//! BLAS-1 style helpers shared by the iterative solvers.
//!
//! All functions operate on `&[f64]` / `&mut [f64]` slices and panic on
//! length mismatch (these are internal hot-path kernels; the public solver
//! entry points validate dimensions and return [`crate::LinalgError`]).

use crate::block::sum_identity;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dot product `aᵀb`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm `‖a‖₂`.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y ← y + α·x`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← α·x`.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Normalises `x` to unit Euclidean length and returns its previous norm.
///
/// If `x` is (numerically) zero it is left untouched and `0.0` is returned.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(x, 1.0 / n);
    }
    n
}

/// Removes the component of `x` along `u`: `x ← x − (xᵀu / uᵀu)·u`.
///
/// No-op when `u` is numerically zero.
pub fn project_out(x: &mut [f64], u: &[f64]) {
    let uu = dot(u, u);
    if uu <= f64::MIN_POSITIVE {
        return;
    }
    let c = dot(x, u) / uu;
    axpy(-c, u, x);
}

/// Removes the mean of `x`, i.e. projects out the all-ones direction.
///
/// Graph Laplacians of connected graphs are singular exactly along the
/// constant vector; every Krylov/Lanczos/CG loop in this workspace keeps its
/// iterates in the complement of that null space using this helper.
pub fn project_out_ones(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for xi in x.iter_mut() {
        *xi -= mean;
    }
}

/// Draws a random vector with i.i.d. entries in `[-1, 1)`, projects out the
/// all-ones direction and normalises it.
///
/// Used to seed Krylov iterations deterministically (`seed` fully determines
/// the result).
pub fn random_unit_perp_ones(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    random_unit_perp_ones_with(n, &mut rng)
}

/// As [`random_unit_perp_ones`] but drawing from a caller-provided RNG.
pub fn random_unit_perp_ones_with<R: Rng>(n: usize, rng: &mut R) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
    project_out_ones(&mut v);
    if normalize(&mut v) == 0.0 && n > 1 {
        // Astronomically unlikely; fall back to a deterministic non-constant vector.
        for (i, vi) in v.iter_mut().enumerate() {
            *vi = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        project_out_ones(&mut v);
        normalize(&mut v);
    }
    v
}

/// Modified Gram–Schmidt: orthogonalises `x` against each vector in `basis`
/// (assumed mutually orthonormal), twice for numerical robustness.
///
/// Each subtraction `x ← x − (xᵀb)·b` shares its pass over `x` with the
/// next coefficient's dot product, which reads every entry just after it
/// is updated: one pass per basis vector instead of two, with the
/// arithmetic of a separate [`dot`] and [`axpy`] in the same order, so the
/// same bits.
///
/// # Panics
/// Panics if a basis vector's length differs from `x`'s.
pub fn mgs_orthogonalize(x: &mut [f64], basis: &[Vec<f64>]) {
    let mut order = basis.iter().chain(basis);
    let Some(mut b) = order.next() else {
        return;
    };
    let mut c = dot(x, b);
    for next in order {
        assert_eq!(next.len(), x.len(), "dot: length mismatch");
        let mut acc = sum_identity();
        for ((xi, bi), ni) in x.iter_mut().zip(b).zip(next) {
            *xi += -c * bi;
            acc += *xi * ni;
        }
        (b, c) = (next, acc);
    }
    axpy(-c, b, x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut x = vec![0.0, 0.0];
        assert_eq!(normalize(&mut x), 0.0);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn project_out_ones_zeroes_mean() {
        let mut x = vec![1.0, 2.0, 3.0, 6.0];
        project_out_ones(&mut x);
        assert!(x.iter().sum::<f64>().abs() < 1e-12);
    }

    #[test]
    fn random_unit_vector_is_deterministic_unit_and_perp() {
        let a = random_unit_perp_ones(100, 42);
        let b = random_unit_perp_ones(100, 42);
        assert_eq!(a, b);
        assert!((norm2(&a) - 1.0).abs() < 1e-12);
        assert!(a.iter().sum::<f64>().abs() < 1e-10);
        let c = random_unit_perp_ones(100, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn mgs_produces_orthogonal_vectors() {
        let b1 = {
            let mut v = vec![1.0, 0.0, 0.0];
            normalize(&mut v);
            v
        };
        let b2 = {
            let mut v = vec![1.0, 1.0, 0.0];
            mgs_orthogonalize(&mut v, std::slice::from_ref(&b1));
            normalize(&mut v);
            v
        };
        let mut x = vec![1.0, 2.0, 3.0];
        mgs_orthogonalize(&mut x, &[b1.clone(), b2.clone()]);
        assert!(dot(&x, &b1).abs() < 1e-12);
        assert!(dot(&x, &b2).abs() < 1e-12);
    }

    /// The two-pass loop [`mgs_orthogonalize`] replays: a whole [`dot`],
    /// then a whole [`axpy`], per basis vector, twice.
    fn mgs_two_pass(x: &mut [f64], basis: &[Vec<f64>]) {
        for _ in 0..2 {
            for b in basis {
                let c = dot(x, b);
                axpy(-c, b, x);
            }
        }
    }

    #[test]
    fn mgs_matches_the_two_pass_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x6d67);
        for case in 0..60 {
            let n = 1 + case;
            // Up to n vectors, orthonormalised by the reference itself, as
            // the Krylov and Lanczos bases are.
            let mut basis: Vec<Vec<f64>> = Vec::new();
            for _ in 0..(case % 9).min(n) {
                let mut v = random_unit_perp_ones_with(n, &mut rng);
                mgs_two_pass(&mut v, &basis);
                if normalize(&mut v) > 1e-12 {
                    basis.push(v);
                }
            }
            let mut x: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            if case % 5 == 0 {
                x[0] = -0.0; // signed zeros take the same path
            }
            let mut reference = x.clone();
            mgs_orthogonalize(&mut x, &basis);
            mgs_two_pass(&mut reference, &basis);
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&reference), "case {case}");
        }
    }

    proptest! {
        #[test]
        fn prop_project_out_makes_orthogonal(
            x in proptest::collection::vec(-100.0f64..100.0, 2..32),
            u in proptest::collection::vec(-100.0f64..100.0, 2..32),
        ) {
            let n = x.len().min(u.len());
            let mut x = x[..n].to_vec();
            let u = &u[..n];
            let unorm = norm2(u);
            prop_assume!(unorm > 1e-6);
            let xnorm = norm2(&x).max(1.0);
            project_out(&mut x, u);
            prop_assert!(dot(&x, u).abs() <= 1e-9 * xnorm * unorm);
        }

        #[test]
        fn prop_cauchy_schwarz(
            a in proptest::collection::vec(-10.0f64..10.0, 1..16),
            b in proptest::collection::vec(-10.0f64..10.0, 1..16),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            prop_assert!(dot(a, b).abs() <= norm2(a) * norm2(b) + 1e-9);
        }
    }
}
