//! The [`LinearOperator`] abstraction used by the iterative methods.

/// A square linear operator `y = A·x` applied matrix-free.
///
/// Implemented by [`crate::CsrMatrix`] and by wrapper types such as
/// [`FnOperator`]; the Lanczos and CG kernels are written against this trait
/// so callers can pass composed operators (e.g. `L_H⁺·L_G` built from a
/// matvec and a CG solve) without materialising them.
pub trait LinearOperator {
    /// The dimension `n` of the operator.
    fn dim(&self) -> usize;

    /// Computes `y ← A·x`.
    ///
    /// # Panics
    /// Implementations may panic if `x.len() != self.dim()` or
    /// `y.len() != self.dim()`.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Computes `Y ← A·X` for a block of `k` vectors stored row-major
    /// (entry `(i, c)` at `i * k + c`; see [`crate::block`]).
    ///
    /// Each column of `y` must be bit-identical to
    /// [`LinearOperator::apply`] on that column alone — [`crate::pcg_block`]
    /// relies on it. `scratch` is caller-owned working memory reused
    /// across calls; implementations grow it as needed. The provided
    /// method gathers one column at a time, applies
    /// [`LinearOperator::apply`] and scatters the result back; override it
    /// when one pass over the operator can serve every column.
    ///
    /// # Panics
    /// Implementations may panic if `x.len()` or `y.len()` differ from
    /// `self.dim() * k`.
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        crate::block::per_column(self.dim(), x, y, k, scratch, |xc, yc| self.apply(xc, yc));
    }

    /// Allocating convenience wrapper around [`LinearOperator::apply`].
    fn apply_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (**self).apply(x, y)
    }

    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        (**self).apply_block(x, y, k, scratch)
    }
}

/// Wraps a closure as a [`LinearOperator`].
///
/// # Example
///
/// ```
/// use ingrass_linalg::{FnOperator, LinearOperator};
/// // The operator 2·I on R³.
/// let op = FnOperator::new(3, |x, y| {
///     for (yi, xi) in y.iter_mut().zip(x) { *yi = 2.0 * xi; }
/// });
/// assert_eq!(op.apply_alloc(&[1.0, 2.0, 3.0]), vec![2.0, 4.0, 6.0]);
/// ```
pub struct FnOperator<F>
where
    F: Fn(&[f64], &mut [f64]),
{
    dim: usize,
    f: F,
}

impl<F> FnOperator<F>
where
    F: Fn(&[f64], &mut [f64]),
{
    /// Creates an operator of dimension `dim` applying `f`.
    pub fn new(dim: usize, f: F) -> Self {
        FnOperator { dim, f }
    }
}

impl<F> LinearOperator for FnOperator<F>
where
    F: Fn(&[f64], &mut [f64]),
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        (self.f)(x, y)
    }
}

impl<F> std::fmt::Debug for FnOperator<F>
where
    F: Fn(&[f64], &mut [f64]),
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnOperator")
            .field("dim", &self.dim)
            .finish()
    }
}

/// The operator `A + σ·I` for a base operator `A` and shift `σ`.
///
/// Useful for regularising singular Laplacians and for spectral shifts in
/// tests.
#[derive(Debug)]
pub struct ShiftedOperator<A: LinearOperator> {
    base: A,
    shift: f64,
}

impl<A: LinearOperator> ShiftedOperator<A> {
    /// Creates `base + shift·I`.
    pub fn new(base: A, shift: f64) -> Self {
        ShiftedOperator { base, shift }
    }
}

impl<A: LinearOperator> LinearOperator for ShiftedOperator<A> {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.base.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += self.shift * xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;

    #[test]
    fn fn_operator_applies_closure() {
        let op = FnOperator::new(2, |x: &[f64], y: &mut [f64]| {
            y[0] = x[1];
            y[1] = x[0];
        });
        assert_eq!(op.apply_alloc(&[1.0, 2.0]), vec![2.0, 1.0]);
        assert_eq!(op.dim(), 2);
    }

    #[test]
    fn shifted_operator_adds_identity() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let op = ShiftedOperator::new(&m, 2.0);
        assert_eq!(op.apply_alloc(&[1.0, 1.0]), vec![3.0, 3.0]);
    }

    #[test]
    fn reference_to_operator_is_operator() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        fn takes_op<O: LinearOperator>(o: O) -> usize {
            o.dim()
        }
        assert_eq!(takes_op(&m), 2);
    }
}
