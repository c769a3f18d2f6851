//! Preconditioned conjugate gradients.

use crate::op::LinearOperator;
use crate::vector::{axpy, dot, norm2, project_out};
use crate::CsrMatrix;

/// A symmetric positive (semi-)definite preconditioner `M ≈ A`, applied as
/// `z ← M⁻¹ r`.
///
/// The spanning-tree preconditioner used for Laplacian systems lives in
/// `ingrass-graph` (it needs a tree); this crate provides [`IdentityPrecond`]
/// and [`JacobiPrecond`].
pub trait Preconditioner {
    /// Dimension of the preconditioner.
    fn dim(&self) -> usize;

    /// Computes `z ← M⁻¹ r`.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Computes `Z ← M⁻¹ R` for a block of `k` residuals stored row-major
    /// (entry `(i, c)` at `i * k + c`; see [`crate::block`]).
    ///
    /// Each column of `z` must be bit-identical to
    /// [`Preconditioner::apply`] on that column alone — [`crate::pcg_block`]
    /// relies on it. `scratch` is caller-owned working memory reused
    /// across calls; implementations grow it as needed, so a steady-state
    /// call allocates nothing. The provided method gathers one column at a
    /// time, applies [`Preconditioner::apply`] and scatters the result
    /// back; override it when one pass over the preconditioner can serve
    /// every column (as [`crate::SparseCholesky`] does).
    ///
    /// # Panics
    /// Implementations may panic if `r.len()` or `z.len()` differ from
    /// `self.dim() * k`.
    fn apply_block(&self, r: &[f64], z: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        crate::block::per_column(self.dim(), r, z, k, scratch, |rc, zc| self.apply(rc, zc));
    }
}

impl<T: Preconditioner + ?Sized> Preconditioner for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z)
    }

    fn apply_block(&self, r: &[f64], z: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        (**self).apply_block(r, z, k, scratch)
    }
}

/// The trivial preconditioner `M = I` (plain CG).
#[derive(Debug, Clone)]
pub struct IdentityPrecond {
    dim: usize,
}

impl IdentityPrecond {
    /// Identity preconditioner of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        IdentityPrecond { dim }
    }
}

impl Preconditioner for IdentityPrecond {
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds the Jacobi preconditioner from the diagonal of `m`.
    ///
    /// Zero or negative diagonal entries (possible for isolated vertices in a
    /// Laplacian) are replaced by 1 so the preconditioner stays SPD.
    pub fn from_matrix(m: &CsrMatrix) -> Self {
        Self::from_diagonal(m.diagonal())
    }

    /// Builds the preconditioner from an explicit diagonal.
    pub fn from_diagonal(diag: Vec<f64>) -> Self {
        let inv_diag = diag
            .into_iter()
            .map(|d| if d > 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        JacobiPrecond { inv_diag }
    }
}

impl Preconditioner for JacobiPrecond {
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Options controlling a [`pcg`] run.
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Maximum number of iterations (default 2000).
    pub max_iters: usize,
    /// Relative residual tolerance `‖r‖/‖b‖` (default `1e-10`).
    pub rel_tol: f64,
    /// Absolute residual tolerance, used when `‖b‖ = 0` (default `1e-14`).
    pub abs_tol: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            max_iters: 2000,
            rel_tol: 1e-10,
            abs_tol: 1e-14,
        }
    }
}

impl CgOptions {
    /// Returns options with the given relative tolerance.
    pub fn with_rel_tol(mut self, tol: f64) -> Self {
        self.rel_tol = tol;
        self
    }

    /// Returns options with the given iteration cap.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

/// Outcome of a [`pcg`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm `‖b − Ax‖`.
    pub residual_norm: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// Preconditioned conjugate gradients: solves `A x = b` for a symmetric
/// positive (semi-)definite operator `A`, starting from the initial guess in
/// `x` and overwriting it with the solution.
///
/// For *singular consistent* systems (graph Laplacians of connected graphs
/// with `b ⊥ 1`), pass the null-space vector via `deflate`; the iterates and
/// residuals are projected against it every iteration so rounding error
/// cannot excite the null space.
///
/// Returns a [`CgResult`] rather than an error on non-convergence: partial
/// solutions are still useful to callers like the condition-number estimator,
/// which inspects `converged` itself.
///
/// # Panics
/// Panics if `b.len()`, `x.len()` or the preconditioner dimension disagree
/// with `a.dim()`.
pub fn pcg<A, M>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    precond: &M,
    deflate: Option<&[f64]>,
    opts: &CgOptions,
) -> CgResult
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let n = a.dim();
    assert_eq!(b.len(), n, "pcg: b dimension");
    assert_eq!(x.len(), n, "pcg: x dimension");
    assert_eq!(precond.dim(), n, "pcg: preconditioner dimension");

    let bnorm = norm2(b);
    let target = (opts.rel_tol * bnorm).max(opts.abs_tol);

    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    if let Some(u) = deflate {
        project_out(&mut r, u);
        project_out(x, u);
    }

    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z);
    if let Some(u) = deflate {
        project_out(&mut z, u);
    }
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    let mut rnorm = norm2(&r);
    if rnorm <= target {
        return CgResult {
            iterations: 0,
            residual_norm: rnorm,
            converged: true,
        };
    }

    for iter in 1..=opts.max_iters {
        a.apply(&p, &mut ap);
        if let Some(u) = deflate {
            project_out(&mut ap, u);
        }
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Operator is (numerically) indefinite along p — typically the
            // null space re-entering; stop with what we have.
            return CgResult {
                iterations: iter,
                residual_norm: rnorm,
                converged: rnorm <= target,
            };
        }
        let alpha = rz / pap;
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        if let Some(u) = deflate {
            project_out(&mut r, u);
        }
        rnorm = norm2(&r);
        if rnorm <= target {
            return CgResult {
                iterations: iter,
                residual_norm: rnorm,
                converged: true,
            };
        }
        precond.apply(&r, &mut z);
        if let Some(u) = deflate {
            project_out(&mut z, u);
        }
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }

    CgResult {
        iterations: opts.max_iters,
        residual_norm: rnorm,
        converged: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use proptest::prelude::*;

    fn laplacian_path(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n - 1 {
            t.push((i, i, 1.0));
            t.push((i + 1, i + 1, 1.0));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn solves_small_spd_system() {
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let b = [1.0, 2.0];
        let mut x = vec![0.0; 2];
        let pre = IdentityPrecond::new(2);
        let res = pcg(&a, &b, &mut x, &pre, None, &CgOptions::default());
        assert!(res.converged);
        let exact = DenseMatrix::from_csr(&a).solve_spd(&b).unwrap();
        assert!((x[0] - exact[0]).abs() < 1e-8);
        assert!((x[1] - exact[1]).abs() < 1e-8);
    }

    #[test]
    fn jacobi_precond_reduces_iterations_on_ill_scaled_system() {
        // diag(1, 1e4) with small coupling: Jacobi fixes the scaling.
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 0.1), (1, 0, 0.1), (1, 1, 1e4)]);
        let b = [1.0, 1.0];
        let opts = CgOptions::default();

        let mut x1 = vec![0.0; 2];
        let id = IdentityPrecond::new(2);
        let r1 = pcg(&a, &b, &mut x1, &id, None, &opts);

        let mut x2 = vec![0.0; 2];
        let jac = JacobiPrecond::from_matrix(&a);
        let r2 = pcg(&a, &b, &mut x2, &jac, None, &opts);

        assert!(r1.converged && r2.converged);
        assert!(r2.iterations <= r1.iterations);
    }

    #[test]
    fn solves_singular_laplacian_with_deflation() {
        let n = 20;
        let l = laplacian_path(n);
        // b ⊥ 1: potential difference between endpoints.
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let ones: Vec<f64> = vec![1.0; n];
        let mut x = vec![0.0; n];
        let pre = JacobiPrecond::from_matrix(&l);
        let res = pcg(&l, &b, &mut x, &pre, Some(&ones), &CgOptions::default());
        assert!(res.converged, "residual {}", res.residual_norm);
        // Effective resistance across a unit path of n-1 edges is n-1.
        let r_eff = x[0] - x[n - 1];
        assert!((r_eff - (n as f64 - 1.0)).abs() < 1e-6, "got {r_eff}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let mut x = vec![0.0; 2];
        let pre = IdentityPrecond::new(2);
        let res = pcg(&a, &[0.0, 0.0], &mut x, &pre, None, &CgOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn reports_non_convergence() {
        let n = 50;
        let l = laplacian_path(n);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let mut x = vec![0.0; n];
        let pre = IdentityPrecond::new(n);
        let opts = CgOptions::default().with_max_iters(2);
        let ones = vec![1.0; n];
        let res = pcg(&l, &b, &mut x, &pre, Some(&ones), &opts);
        assert!(!res.converged);
        assert_eq!(res.iterations, 2);
    }

    #[test]
    fn warm_start_helps() {
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let b = [1.0, 2.0];
        let exact = DenseMatrix::from_csr(&a).solve_spd(&b).unwrap();
        let mut x = exact.clone();
        let pre = IdentityPrecond::new(2);
        let res = pcg(&a, &b, &mut x, &pre, None, &CgOptions::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    proptest! {
        #[test]
        fn prop_cg_matches_dense_solve(
            raw in proptest::collection::vec(-1.0f64..1.0, 25),
            b in proptest::collection::vec(-1.0f64..1.0, 5),
        ) {
            // SPD A = MᵀM + I as triplets.
            let m = DenseMatrix::from_rows(5, 5, &raw);
            let mut trip = Vec::new();
            for i in 0..5 {
                for j in 0..5 {
                    let mut acc = if i == j { 1.0 } else { 0.0 };
                    for k in 0..5 {
                        acc += m.get(k, i) * m.get(k, j);
                    }
                    trip.push((i, j, acc));
                }
            }
            let a = CsrMatrix::from_triplets(5, 5, &trip);
            let mut x = vec![0.0; 5];
            let pre = JacobiPrecond::from_matrix(&a);
            let res = pcg(&a, &b, &mut x, &pre, None, &CgOptions::default());
            prop_assert!(res.converged);
            let exact = DenseMatrix::from_csr(&a).solve_spd(&b).unwrap();
            for i in 0..5 {
                prop_assert!((x[i] - exact[i]).abs() < 1e-6);
            }
        }
    }
}
