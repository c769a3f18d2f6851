//! Compressed sparse row matrices.

use crate::block::{tile, tile_mut, tiles, with_lanes};
use crate::op::LinearOperator;

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// Graph Laplacians and adjacency matrices in this workspace are stored as
/// `CsrMatrix`. Indices are `u32` (graphs up to ~4 billion nodes are out of
/// scope); values are `f64`.
///
/// # Example
///
/// ```
/// use ingrass_linalg::CsrMatrix;
/// // [[2, -1], [-1, 2]]
/// let m = CsrMatrix::from_triplets(2, 2, &[(0,0,2.0), (0,1,-1.0), (1,0,-1.0), (1,1,2.0)]);
/// assert_eq!(m.nnz(), 4);
/// let y = m.matvec_alloc(&[1.0, 0.0]);
/// assert_eq!(y, vec![2.0, -1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate entries are summed; explicit zeros produced by cancellation
    /// are kept (they are harmless and rare in our use).
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn from_triplets(n_rows: usize, n_cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; n_rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < n_rows && c < n_cols, "triplet index out of bounds");
            counts[r + 1] += 1;
        }
        for i in 0..n_rows {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; triplets.len()];
        let mut data = vec![0f64; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let k = cursor[r];
            indices[k] = c as u32;
            data[k] = v;
            cursor[r] += 1;
        }
        let mut m = CsrMatrix {
            n_rows,
            n_cols,
            indptr: counts,
            indices,
            data,
        };
        m.sort_and_coalesce();
        m
    }

    /// Builds a matrix from its CSR arrays: row `r` holds the columns
    /// `indices[indptr[r]..indptr[r + 1]]`, strictly increasing, and the
    /// values at the same positions of `data` — the layout
    /// [`CsrMatrix::from_triplets`] produces, without its sort.
    ///
    /// # Panics
    /// Panics if `indptr` does not have `n_rows + 1` entries rising from 0
    /// to `indices.len()`, if `data` and `indices` differ in length, or if
    /// a row's columns are not strictly increasing and below `n_cols`.
    pub fn from_sorted_rows(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), n_rows + 1, "from_sorted_rows: indptr length");
        assert_eq!(indptr[0], 0, "from_sorted_rows: indptr start");
        assert_eq!(
            indptr[n_rows],
            indices.len(),
            "from_sorted_rows: indptr end"
        );
        assert_eq!(data.len(), indices.len(), "from_sorted_rows: data length");
        for r in 0..n_rows {
            let cols = &indices[indptr[r]..indptr[r + 1]];
            assert!(
                cols.windows(2).all(|w| w[0] < w[1])
                    && cols.last().map_or(true, |&c| (c as usize) < n_cols),
                "from_sorted_rows: row {r} columns not increasing or out of bounds"
            );
        }
        CsrMatrix {
            n_rows,
            n_cols,
            indptr,
            indices,
            data,
        }
    }

    fn sort_and_coalesce(&mut self) {
        let mut new_indptr = Vec::with_capacity(self.n_rows + 1);
        let mut new_indices = Vec::with_capacity(self.indices.len());
        let mut new_data = Vec::with_capacity(self.data.len());
        new_indptr.push(0);
        let mut row_buf: Vec<(u32, f64)> = Vec::new();
        for r in 0..self.n_rows {
            row_buf.clear();
            for k in self.indptr[r]..self.indptr[r + 1] {
                row_buf.push((self.indices[k], self.data[k]));
            }
            row_buf.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row_buf.len() {
                let (c, mut v) = row_buf[i];
                let mut j = i + 1;
                while j < row_buf.len() && row_buf[j].0 == c {
                    v += row_buf[j].1;
                    j += 1;
                }
                new_indices.push(c);
                new_data.push(v);
                i = j;
            }
            new_indptr.push(new_indices.len());
        }
        self.indptr = new_indptr;
        self.indices = new_indices;
        self.data = new_data;
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices and values of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// The main diagonal as a dense vector (zeros where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        let mut d = vec![0.0; n];
        for (r, di) in d.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            if let Ok(k) = cols.binary_search(&(r as u32)) {
                *di = vals[k];
            }
        }
        d
    }

    /// Entry `(r, c)`, or `0.0` if not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// `y ← A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "matvec: x dimension");
        assert_eq!(y.len(), self.n_rows, "matvec: y dimension");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                acc += self.data[k] * x[self.indices[k] as usize];
            }
            *yr = acc;
        }
    }

    /// Allocating variant of [`CsrMatrix::matvec`].
    pub fn matvec_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.matvec(x, &mut y);
        y
    }

    /// Quadratic form `xᵀAx`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_cols, "quadratic_form: x dimension");
        let mut acc = 0.0;
        for r in 0..self.n_rows {
            let mut row_acc = 0.0;
            for k in self.indptr[r]..self.indptr[r + 1] {
                row_acc += self.data[k] * x[self.indices[k] as usize];
            }
            acc += x[r] * row_acc;
        }
        acc
    }

    /// The transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut data = vec![0f64; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.n_rows {
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k] as usize;
                let p = cursor[c];
                indices[p] = r as u32;
                data[p] = self.data[k];
                cursor[c] += 1;
            }
        }
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr: counts,
            indices,
            data,
        }
    }

    /// Whether the matrix equals its transpose up to `tol` (test helper).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr || t.indices != self.indices {
            return false;
        }
        self.data
            .iter()
            .zip(&t.data)
            .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.n_rows, self.n_cols, "operator must be square");
        self.n_rows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }

    /// One pass over the rows serves every column: each stored entry is
    /// read once per register tile instead of once per vector.
    fn apply_block(&self, x: &[f64], y: &mut [f64], k: usize, _scratch: &mut Vec<f64>) {
        assert_eq!(x.len(), self.n_cols * k, "matvec block: x dimension");
        assert_eq!(y.len(), self.n_rows * k, "matvec block: y dimension");
        for (c0, w) in tiles(k) {
            with_lanes!(w, matvec_tile(self, x, y, k, c0));
        }
    }
}

/// [`CsrMatrix::matvec`] on columns `c0..c0 + W` of `k`-column blocks,
/// with the same per-column operation order.
fn matvec_tile<const W: usize>(m: &CsrMatrix, x: &[f64], y: &mut [f64], k: usize, c0: usize) {
    for r in 0..m.n_rows {
        let (lo, hi) = (m.indptr[r], m.indptr[r + 1]);
        let mut acc = [0.0f64; W];
        for (&j, &a) in m.indices[lo..hi].iter().zip(&m.data[lo..hi]) {
            let xj = tile::<W>(x, j as usize * k + c0);
            for c in 0..W {
                acc[c] += a * xj[c];
            }
        }
        *tile_mut::<W>(y, r * k + c0) = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn example() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 2.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 2.0),
            ],
        )
    }

    #[test]
    fn triplets_are_sorted_and_coalesced() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 0, 2.0), (0, 1, 3.0)]);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[2.0, 4.0]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = example();
        let y = m.matvec_alloc(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn diagonal_and_get() {
        let m = example();
        assert_eq!(m.diagonal(), vec![2.0, 2.0, 2.0]);
        assert_eq!(m.get(0, 1), -1.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn transpose_of_symmetric_is_identical() {
        let m = example();
        assert!(m.is_symmetric(0.0));
        let t = m.transpose();
        assert_eq!(m, t);
    }

    #[test]
    fn transpose_of_rectangular() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, 1.0)]);
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 1.0);
    }

    #[test]
    fn quadratic_form_matches_matvec() {
        let m = example();
        let x = [1.0, -2.0, 0.5];
        let y = m.matvec_alloc(&x);
        let manual: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((m.quadratic_form(&x) - manual).abs() < 1e-14);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(3, 3, &[(2, 0, 1.0)]);
        assert_eq!(m.row(0).0.len(), 0);
        assert_eq!(m.row(1).0.len(), 0);
        assert_eq!(m.matvec_alloc(&[1.0, 0.0, 0.0]), vec![0.0, 0.0, 1.0]);
    }

    proptest! {
        #[test]
        fn prop_transpose_is_involution(
            entries in proptest::collection::vec((0usize..8, 0usize..8, -10.0f64..10.0), 0..40)
        ) {
            let m = CsrMatrix::from_triplets(8, 8, &entries);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_matvec_linear(
            entries in proptest::collection::vec((0usize..6, 0usize..6, -5.0f64..5.0), 0..20),
            x in proptest::collection::vec(-3.0f64..3.0, 6),
            y in proptest::collection::vec(-3.0f64..3.0, 6),
        ) {
            let m = CsrMatrix::from_triplets(6, 6, &entries);
            let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
            let m_sum = m.matvec_alloc(&sum);
            let mx = m.matvec_alloc(&x);
            let my = m.matvec_alloc(&y);
            for i in 0..6 {
                prop_assert!((m_sum[i] - mx[i] - my[i]).abs() < 1e-9);
            }
        }
    }
}
