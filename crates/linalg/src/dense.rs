//! Small dense matrices: Cholesky, symmetric eigendecomposition.
//!
//! These are *reference* kernels: `O(n³)` and intended for test oracles,
//! exact effective-resistance computation on small graphs, and the tiny
//! tridiagonal eigenproblems produced by Lanczos. They are not meant for the
//! large graphs the sparse path handles.

use crate::block::{tile, tile_mut, tiles, with_lanes};
use crate::csr::CsrMatrix;
use crate::error::LinalgError;

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use ingrass_linalg::DenseMatrix;
/// let mut a = DenseMatrix::zeros(2, 2);
/// a.set(0, 0, 4.0); a.set(0, 1, 1.0);
/// a.set(1, 0, 1.0); a.set(1, 1, 3.0);
/// let x = a.solve_spd(&[1.0, 2.0]).unwrap();
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `n_rows × n_cols` matrix of zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        DenseMatrix {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Densifies a sparse matrix.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let mut d = DenseMatrix::zeros(m.n_rows(), m.n_cols());
        for r in 0..m.n_rows() {
            let (cols, vals) = m.row(r);
            for (c, v) in cols.iter().zip(vals) {
                d.set(r, *c as usize, *v);
            }
        }
        d
    }

    /// Builds from a row-major slice.
    ///
    /// # Panics
    /// Panics if `data.len() != n_rows * n_cols`.
    pub fn from_rows(n_rows: usize, n_cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), n_rows * n_cols, "from_rows: length mismatch");
        DenseMatrix {
            n_rows,
            n_cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n_cols + c]
    }

    /// Sets entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n_cols + c] = v;
    }

    /// Adds `v` to entry `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n_cols + c] += v;
    }

    /// `y ← A·x` (allocating).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols, "matvec: dimension");
        let mut y = vec![0.0; self.n_rows];
        for r in 0..self.n_rows {
            let row = &self.data[r * self.n_cols..(r + 1) * self.n_cols];
            y[r] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Cholesky factorisation `A = LLᵀ` of a symmetric positive definite
    /// matrix; returns the lower factor. Only the lower triangle of `self`
    /// is read.
    ///
    /// Left-looking by columns: entry `(i, j)` is
    /// `(a_ij − Σ_{k<j} l_ik·l_jk) / l_jj`, each subtraction taken in
    /// ascending `k`. The chains of one column are independent, so they run
    /// together: the columns of `L` are built contiguously and every `k`
    /// updates the whole remaining column as one slice operation. Each
    /// entry still sees exactly its own sequence of operations, so the
    /// factor is the same to the bit as the row-by-row recurrence.
    ///
    /// # Errors
    /// [`LinalgError::NotSpd`] if a pivot is non-positive;
    /// [`LinalgError::DimensionMismatch`] if the matrix is not square.
    pub fn cholesky(&self) -> Result<DenseMatrix, LinalgError> {
        if self.n_rows != self.n_cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n_rows,
                found: self.n_cols,
            });
        }
        let n = self.n_rows;
        // `cols[j * n + i]` = l_ij: column j of L, contiguous.
        let mut cols = vec![0.0; n * n];
        for j in 0..n {
            let (done, rest) = cols.split_at_mut(j * n);
            // Rows j..n of column j; row j's chain is the pivot's.
            let col = &mut rest[j..n];
            for (i, s) in col.iter_mut().enumerate() {
                *s = self.data[(j + i) * n + j];
            }
            for lk in done.chunks_exact(n) {
                let ljk = lk[j];
                for (s, &lik) in col.iter_mut().zip(&lk[j..]) {
                    *s -= lik * ljk;
                }
            }
            let d = col[0];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotSpd { pivot: j });
            }
            let dj = d.sqrt();
            col[0] = dj;
            for s in &mut col[1..] {
                *s /= dj;
            }
        }
        // Transposed in place, the columns become the rows of L, and the
        // never-written upper half of each column its zero upper triangle.
        for j in 0..n {
            for i in j + 1..n {
                cols.swap(j * n + i, i * n + j);
            }
        }
        Ok(DenseMatrix {
            n_rows: n,
            n_cols: n,
            data: cols,
        })
    }

    /// Solves `A x = b` for SPD `A` via Cholesky.
    ///
    /// # Errors
    /// Propagates [`LinalgError::NotSpd`]; returns
    /// [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n_rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n_rows,
                found: b.len(),
            });
        }
        let l = self.cholesky()?;
        let n = self.n_rows;
        // Forward substitution L y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                let v = y[k];
                y[i] -= l.get(i, k) * v;
            }
            y[i] /= l.get(i, i);
        }
        // Back substitution Lᵀ x = y.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let v = y[k];
                y[i] -= l.get(k, i) * v;
            }
            y[i] /= l.get(i, i);
        }
        Ok(y)
    }

    /// Solves `L Lᵀ X = B` in place, with `self` taken as the lower
    /// Cholesky factor `L` (as returned by [`DenseMatrix::cholesky`]), for
    /// a block of `k` right-hand sides stored row-major (entry `(i, c)` at
    /// `i * k + c`; see [`crate::block`]).
    ///
    /// Per column this is forward then back substitution with the
    /// substitution sums accumulated in ascending index order — the same
    /// operations as the solve step of [`DenseMatrix::solve_spd`] — while
    /// each factor entry is read once per register tile of columns.
    ///
    /// # Panics
    /// Panics if `self` is not square or `b.len()` differs from
    /// `n_rows × k`.
    pub fn cholesky_solve_block_in_place(&self, b: &mut [f64], k: usize) {
        assert_eq!(
            self.n_rows, self.n_cols,
            "cholesky solve: factor not square"
        );
        assert_eq!(b.len(), self.n_rows * k, "cholesky solve: block dimension");
        for (c0, w) in tiles(k) {
            with_lanes!(w, lower_solve_tile(self, b, k, c0));
        }
    }

    /// Symmetric eigendecomposition via cyclic Jacobi rotations.
    ///
    /// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted in
    /// ascending order and the i-th *column* of the returned matrix holding
    /// the corresponding unit eigenvector. Only the symmetric part of `self`
    /// is used.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if the matrix is not square;
    /// [`LinalgError::NotConverged`] if the off-diagonal mass fails to drop
    /// below tolerance within 100 sweeps (does not happen for symmetric
    /// input).
    pub fn symmetric_eigen(&self) -> Result<(Vec<f64>, DenseMatrix), LinalgError> {
        if self.n_rows != self.n_cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n_rows,
                found: self.n_cols,
            });
        }
        let n = self.n_rows;
        if n == 0 {
            return Ok((Vec::new(), DenseMatrix::zeros(0, 0)));
        }
        // Work on the symmetrised copy.
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, 0.5 * (self.get(i, j) + self.get(j, i)));
            }
        }
        let mut v = DenseMatrix::identity(n);
        let frob: f64 = a.data.iter().map(|x| x * x).sum::<f64>().sqrt();
        let tol = 1e-14 * frob.max(1.0);
        let max_sweeps = 100;
        for _sweep in 0..max_sweeps {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a.get(i, j) * a.get(i, j);
                }
            }
            if off.sqrt() <= tol {
                let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a.get(i, i), i)).collect();
                pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
                let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
                let mut vectors = DenseMatrix::zeros(n, n);
                for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
                    for r in 0..n {
                        vectors.set(r, new_col, v.get(r, old_col));
                    }
                }
                return Ok((values, vectors));
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        Err(LinalgError::NotConverged {
            method: "jacobi_eigen",
            iterations: max_sweeps,
            residual: f64::NAN,
        })
    }

    /// Applies the Moore–Penrose pseudo-inverse of a singular symmetric PSD
    /// matrix (e.g. a graph Laplacian) to `b`, using the eigendecomposition.
    ///
    /// Eigenvalues with magnitude below `rank_tol · λ_max` are treated as
    /// zero.
    ///
    /// # Errors
    /// Propagates errors from [`DenseMatrix::symmetric_eigen`].
    pub fn pseudo_inverse_apply(&self, b: &[f64], rank_tol: f64) -> Result<Vec<f64>, LinalgError> {
        let (vals, vecs) = self.symmetric_eigen()?;
        let n = self.n_rows;
        let lmax = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let cutoff = rank_tol * lmax.max(f64::MIN_POSITIVE);
        let mut x = vec![0.0; n];
        for (i, &lam) in vals.iter().enumerate() {
            if lam.abs() <= cutoff {
                continue;
            }
            let mut coeff = 0.0;
            for r in 0..n {
                coeff += vecs.get(r, i) * b[r];
            }
            coeff /= lam;
            for r in 0..n {
                x[r] += coeff * vecs.get(r, i);
            }
        }
        Ok(x)
    }
}

/// [`DenseMatrix::cholesky_solve_block_in_place`] on columns
/// `c0..c0 + W` of a `k`-column block.
fn lower_solve_tile<const W: usize>(l: &DenseMatrix, b: &mut [f64], k: usize, c0: usize) {
    let n = l.n_rows;
    for i in 0..n {
        let mut acc = *tile::<W>(b, i * k + c0);
        for (j, &lij) in l.data[i * n..i * n + i].iter().enumerate() {
            let bj = tile::<W>(b, j * k + c0);
            for c in 0..W {
                acc[c] -= lij * bj[c];
            }
        }
        let d = l.data[i * n + i];
        *tile_mut::<W>(b, i * k + c0) = acc.map(|a| a / d);
    }
    for i in (0..n).rev() {
        let mut acc = *tile::<W>(b, i * k + c0);
        for j in i + 1..n {
            let lji = l.data[j * n + i];
            let bj = tile::<W>(b, j * k + c0);
            for c in 0..W {
                acc[c] -= lji * bj[c];
            }
        }
        let d = l.data[i * n + i];
        *tile_mut::<W>(b, i * k + c0) = acc.map(|a| a / d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The row-by-row Cholesky recurrence the column kernel replays: one
    /// `s -= l_ik·l_jk` chain at a time, `k` ascending.
    fn cholesky_reference(a: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        let n = a.n_rows;
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a.get(j, j);
            for k in 0..j {
                d -= l.get(j, k) * l.get(j, k);
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotSpd { pivot: j });
            }
            let dj = d.sqrt();
            l.set(j, j, dj);
            for i in (j + 1)..n {
                let mut s = a.get(i, j);
                for k in 0..j {
                    s -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, s / dj);
            }
        }
        Ok(l)
    }

    /// A seeded symmetric matrix: off-diagonals in `[-1, 1)`, diagonal
    /// `shift` plus `[0, 1)` (SPD once `shift ≥ n`).
    fn random_symmetric(n: usize, shift: f64, seed: u64) -> DenseMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a.set(i, i, shift + rng.random::<f64>());
            for j in 0..i {
                let v = rng.random_range(-1.0..1.0);
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
        a
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn cholesky_matches_the_row_recurrence_bit_for_bit() {
        let sizes = (0..=20).chain([100, 300]);
        for (seed, n) in sizes.enumerate() {
            let mut a = random_symmetric(n, n as f64, seed as u64);
            let want = bits(&cholesky_reference(&a).unwrap());
            assert_eq!(bits(&a.cholesky().unwrap()), want, "n = {n}");
            // The upper triangle is never read.
            for i in 0..n {
                for j in i + 1..n {
                    a.set(i, j, f64::NAN);
                }
            }
            assert_eq!(bits(&a.cholesky().unwrap()), want, "n = {n}, NaN above");
        }
    }

    #[test]
    fn cholesky_reports_the_reference_pivot_on_indefinite_input() {
        let mut late_failures = 0;
        for seed in 0..40u64 {
            let n = 2 + (seed as usize % 30);
            // A diagonal shift of √n / 2 leaves the spectrum well below
            // zero, so the recurrence breaks down part-way through.
            let mut a = random_symmetric(n, 0.5 * (n as f64).sqrt(), 1000 + seed);
            if seed % 5 == 0 {
                a.set(n / 2, n / 2, f64::NAN);
            }
            let want = cholesky_reference(&a);
            if let Err(LinalgError::NotSpd { pivot }) = want {
                late_failures += usize::from(pivot > 0);
            }
            match (a.cholesky(), want) {
                (Ok(got), Ok(want)) => assert_eq!(bits(&got), bits(&want), "seed {seed}"),
                (got, want) => assert_eq!(got.err(), want.err(), "seed {seed}"),
            }
        }
        assert!(
            late_failures >= 20,
            "only {late_failures} inputs fail past pivot 0"
        );
    }

    #[test]
    fn cholesky_of_identity() {
        let i = DenseMatrix::identity(4);
        let l = i.cholesky().unwrap();
        assert_eq!(l, DenseMatrix::identity(4));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        assert!(matches!(m.cholesky(), Err(LinalgError::NotSpd { .. })));
    }

    #[test]
    fn solve_spd_roundtrip() {
        let a = DenseMatrix::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 5.0]);
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = a.solve_spd(&b).unwrap();
        for i in 0..3 {
            assert!((x[i] - x_true[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let m = DenseMatrix::from_rows(3, 3, &[3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let (vals, vecs) = m.symmetric_eigen().unwrap();
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
        // Eigenvector for eigenvalue 1.0 is e_1.
        assert!(vecs.get(1, 0).abs() > 0.99);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let m = DenseMatrix::from_rows(3, 3, &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0]);
        let (vals, vecs) = m.symmetric_eigen().unwrap();
        // A = V diag(vals) Vᵀ
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += vecs.get(i, k) * vals[k] * vecs.get(j, k);
                }
                assert!((acc - m.get(i, j)).abs() < 1e-10, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn pseudo_inverse_on_laplacian() {
        // Path graph P3 Laplacian; pinv satisfies L L⁺ b = b for b ⊥ 1.
        let l = DenseMatrix::from_rows(3, 3, &[1.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 1.0]);
        let b = [1.0, 0.0, -1.0];
        let x = l.pseudo_inverse_apply(&b, 1e-10).unwrap();
        let lb = l.matvec(&x);
        for i in 0..3 {
            assert!((lb[i] - b[i]).abs() < 1e-10);
        }
        // Effective resistance between ends of P3 (unit weights) is 2.
        let r = x[0] - x[2];
        assert!((r - 2.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_empty_matrix() {
        let m = DenseMatrix::zeros(0, 0);
        let (vals, _) = m.symmetric_eigen().unwrap();
        assert!(vals.is_empty());
    }

    proptest! {
        #[test]
        fn prop_cholesky_solve_matches_eigen_solve(
            raw in proptest::collection::vec(-1.0f64..1.0, 16),
            b in proptest::collection::vec(-1.0f64..1.0, 4),
        ) {
            // Build SPD A = MᵀM + I.
            let m = DenseMatrix::from_rows(4, 4, &raw);
            let mut a = DenseMatrix::zeros(4, 4);
            for i in 0..4 {
                for j in 0..4 {
                    let mut acc = if i == j { 1.0 } else { 0.0 };
                    for k in 0..4 {
                        acc += m.get(k, i) * m.get(k, j);
                    }
                    a.set(i, j, acc);
                }
            }
            let x = a.solve_spd(&b).unwrap();
            let ax = a.matvec(&x);
            for i in 0..4 {
                prop_assert!((ax[i] - b[i]).abs() < 1e-8);
            }
        }

        #[test]
        fn prop_eigenvalues_sum_to_trace(
            raw in proptest::collection::vec(-2.0f64..2.0, 25),
        ) {
            let mut a = DenseMatrix::from_rows(5, 5, &raw);
            // Symmetrise.
            for i in 0..5 {
                for j in 0..5 {
                    let s = 0.5 * (a.get(i, j) + a.get(j, i));
                    a.set(i, j, s);
                    a.set(j, i, s);
                }
            }
            let trace: f64 = (0..5).map(|i| a.get(i, i)).sum();
            let (vals, _) = a.symmetric_eigen().unwrap();
            prop_assert!((vals.iter().sum::<f64>() - trace).abs() < 1e-9);
        }
    }
}
