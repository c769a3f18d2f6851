//! Sparse Cholesky factorisation with a fill-reducing ordering.
//!
//! The solve subsystem (`ingrass-solve`) preconditions conjugate gradients
//! on the *original* graph Laplacian with an exact factorisation of the
//! *sparsifier* Laplacian: the sparsifier is sparse enough that `L Lᵀ`
//! carries little fill, and κ(L_H⁻¹ L_G) is exactly the condition number
//! the inGRASS engine maintains, so PCG converges in `O(√κ)` iterations.
//!
//! Two pieces:
//!
//! * [`min_degree_order`] — an AMD-lite minimum-degree ordering: eliminate
//!   the vertex of least degree, connect its neighbours into a clique,
//!   repeat. Deterministic (ties break on the smaller node index). It runs
//!   on the explicit elimination graph, with exact degrees. While the graph
//!   is large and sparse each uneliminated vertex keeps its neighbours as
//!   one sorted `Vec<u32>`, and eliminating a pivot is one linear merge of
//!   its list into each neighbour's. Once at most 256 vertices remain —
//!   the dense tail, where merges would cost the square of the degree per
//!   pivot — each keeps a bitset row instead, and once one pivot touches
//!   every remaining vertex the rest is a clique whose order is known.
//! * [`SparseCholesky`] — up-looking sparse `L Lᵀ` factorisation over the
//!   elimination tree, `O(|L|)` forward/backward solves, and a
//!   [`Preconditioner`] impl so a factor can drop straight into [`crate::pcg`].

use crate::block::{gather_rows, scatter_rows, scratch_slice, tile, tile_mut, tiles, with_lanes};
use crate::cg::Preconditioner;
use crate::error::LinalgError;
use crate::CsrMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// AMD-lite fill-reducing ordering of a symmetric sparsity pattern.
///
/// Classic minimum degree: repeatedly eliminate the vertex of smallest
/// current degree in the elimination graph (ties break on the smaller
/// index, so the ordering is deterministic), turning its neighbourhood
/// into a clique. No supernode detection or degree approximation — "lite"
/// — but on the mesh/grid Laplacians this workspace factors it keeps fill
/// within a small constant of full AMD.
///
/// Returns `perm` with `perm[k]` = the original index eliminated at step
/// `k` (i.e. new-to-old).
///
/// # Panics
/// Panics if `a` is not square.
pub fn min_degree_order(a: &CsrMatrix) -> Vec<usize> {
    assert_eq!(a.n_rows(), a.n_cols(), "min_degree_order: square input");
    min_degree_core(a, None).0
}

/// AMD-lite with a structural hint, reporting the exact factor size.
///
/// `tiebreak` (optional) is a *soft* hint consulted only between vertices
/// of equal current degree: lower tie values are eliminated first. Soft
/// hints never override the degree heuristic — they steer it where it is
/// indifferent, which is how a separator structure can defer "bad"
/// vertices (e.g. churn-inserted chord endpoints) at zero cost.
///
/// Returns `(perm, fill)` where `fill` is exactly `nnz(L)` (stored entries
/// including the diagonal) of a Cholesky factorisation of `a`'s pattern
/// under `perm` — the elimination graph is the filled graph, so the count
/// is a byproduct. Lets callers race orderings and keep the cheapest
/// without a numeric factorisation per candidate.
///
/// # Panics
/// Panics if `a` is not square or `tiebreak` has the wrong length.
pub fn min_degree_order_with_hints(a: &CsrMatrix, tiebreak: Option<&[u32]>) -> (Vec<usize>, usize) {
    assert_eq!(a.n_rows(), a.n_cols(), "min_degree_order: square input");
    if let Some(hint) = tiebreak {
        assert_eq!(
            hint.len(),
            a.n_rows(),
            "min_degree_order_with_hints: one hint entry per vertex"
        );
    }
    min_degree_core(a, tiebreak)
}

/// Minimum-degree elimination with a lazy heap keyed `(degree, tie,
/// index)`: an entry whose vertex is gone, or whose degree no longer
/// matches the vertex's, is skipped when popped. Every degree change pushes
/// a fresh entry, so the pivot is always the least key among the remaining
/// vertices — which fixes the whole order, however the graph is stored.
fn min_degree_core(a: &CsrMatrix, tiebreak: Option<&[u32]>) -> (Vec<usize>, usize) {
    let n = a.n_rows();
    let tie = |v: usize| tiebreak.map_or(0, |t| t[v]);
    let mut graph = EliminationGraph::new(a);
    let mut heap: BinaryHeap<Reverse<(usize, u32, u32)>> = (0..n)
        .map(|v| Reverse((graph.degree[v], tie(v), v as u32)))
        .collect();
    let mut perm = Vec::with_capacity(n);
    let mut fill = 0usize;
    while let Some(Reverse((deg, _, v))) = heap.pop() {
        let v = v as usize;
        if !graph.live[v] || graph.degree[v] != deg {
            continue;
        }
        perm.push(v);
        // The factor column for this pivot holds the diagonal plus one
        // entry per uneliminated neighbour in the filled graph.
        fill += 1 + deg;
        if deg + 1 == graph.remaining {
            // v neighbours every other remaining vertex, so they are left
            // as a clique: each later pivot has the same degree as the rest
            // and loses one, so they go by (tie, index) and the r of them
            // add r + (r − 1) + … + 1 entries.
            let mut rest: Vec<usize> = (0..n).filter(|&u| u != v && graph.live[u]).collect();
            rest.sort_unstable_by_key(|&u| (tie(u), u));
            fill += deg * (deg + 1) / 2;
            perm.extend(rest);
            break;
        }
        graph.eliminate(v, |u, d| heap.push(Reverse((d, tie(u), u as u32))));
    }
    (perm, fill)
}

/// Remaining vertices at which the elimination graph switches from
/// neighbour lists to bitset rows (at most four words a row).
const DENSE_TAIL: usize = 256;

/// The elimination graph of a minimum-degree run: the uneliminated
/// vertices and every edge of the filled graph among them. While it is
/// large and sparse each vertex keeps a sorted neighbour list, and
/// eliminating a pivot merges its list into each neighbour's. Once at most
/// [`DENSE_TAIL`] vertices remain — where elimination has made the graph
/// nearly complete and list merges cost the square of the degree per
/// pivot — each vertex keeps a bitset row instead, and a merge is an OR of
/// a few words.
struct EliminationGraph {
    /// Current degree of every uneliminated vertex.
    degree: Vec<usize>,
    live: Vec<bool>,
    remaining: usize,
    /// Sorted neighbour lists (emptied when the bitset rows take over).
    lists: Vec<Vec<u32>>,
    /// Scratch for list merges.
    merged: Vec<u32>,
    /// Bitset rows, once they take over.
    rows: Option<BitRows>,
}

/// One bitset row of `words` words per vertex that remained at the switch.
struct BitRows {
    /// Vertex of each row.
    vertex: Vec<u32>,
    /// Row of each vertex.
    row_of: Vec<u32>,
    words: usize,
    bits: Vec<u64>,
    /// Scratch copy of the pivot's row.
    pivot: Vec<u64>,
}

impl EliminationGraph {
    /// The symmetrised pattern of `a` without its diagonal.
    fn new(a: &CsrMatrix) -> Self {
        let n = a.n_rows();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for r in 0..n {
            for &c in a.row(r).0 {
                if c as usize != r {
                    lists[r].push(c);
                    lists[c as usize].push(r as u32);
                }
            }
        }
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
        }
        let mut graph = EliminationGraph {
            degree: lists.iter().map(Vec::len).collect(),
            live: vec![true; n],
            remaining: n,
            lists,
            merged: Vec::new(),
            rows: None,
        };
        if n <= DENSE_TAIL {
            graph.switch_to_rows();
        }
        graph
    }

    /// Eliminates `v`: its neighbours become a clique. Reports each
    /// neighbour's new degree to `changed`.
    fn eliminate(&mut self, v: usize, mut changed: impl FnMut(usize, usize)) {
        self.live[v] = false;
        self.remaining -= 1;
        if let Some(rows) = &mut self.rows {
            // row[u] ← (row[u] ∪ row[v]) \ {u, v} for each neighbour u.
            let (w, rv) = (rows.words, rows.row_of[v] as usize);
            rows.pivot.clear();
            rows.pivot
                .extend_from_slice(&rows.bits[rv * w..(rv + 1) * w]);
            for (k, &word) in rows.pivot.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let ru = k * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let row = &mut rows.bits[ru * w..(ru + 1) * w];
                    for (x, &y) in row.iter_mut().zip(&rows.pivot) {
                        *x |= y;
                    }
                    row[ru / 64] &= !(1 << (ru % 64));
                    row[rv / 64] &= !(1 << (rv % 64));
                    let u = rows.vertex[ru] as usize;
                    self.degree[u] = row.iter().map(|x| x.count_ones() as usize).sum();
                    changed(u, self.degree[u]);
                }
            }
            return;
        }
        // lists[u] ← (lists[u] ∪ lists[v]) \ {u, v}, one merge of sorted
        // lists per neighbour u.
        let clique = std::mem::take(&mut self.lists[v]);
        for &u in &clique {
            let u = u as usize;
            union_without(
                &self.lists[u],
                &clique,
                u as u32,
                v as u32,
                &mut self.merged,
            );
            std::mem::swap(&mut self.lists[u], &mut self.merged);
            self.degree[u] = self.lists[u].len();
            changed(u, self.degree[u]);
        }
        if self.remaining <= DENSE_TAIL {
            self.switch_to_rows();
        }
    }

    /// Moves the remaining vertices' lists into bitset rows.
    fn switch_to_rows(&mut self) {
        let n = self.live.len();
        let vertex: Vec<u32> = (0..n as u32).filter(|&u| self.live[u as usize]).collect();
        let mut row_of = vec![u32::MAX; n];
        for (r, &u) in vertex.iter().enumerate() {
            row_of[u as usize] = r as u32;
        }
        let words = vertex.len().div_ceil(64);
        let mut bits = vec![0u64; vertex.len() * words];
        for (r, &u) in vertex.iter().enumerate() {
            for &x in &std::mem::take(&mut self.lists[u as usize]) {
                let c = row_of[x as usize] as usize;
                bits[r * words + c / 64] |= 1 << (c % 64);
            }
        }
        self.rows = Some(BitRows {
            vertex,
            row_of,
            words,
            bits,
            pivot: Vec::with_capacity(words),
        });
    }
}

/// `out` ← the sorted union of the sorted lists `a` and `b`, less `x` and
/// `y`.
fn union_without(a: &[u32], b: &[u32], x: u32, y: u32, out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let m = a[i].min(b[j]);
        i += usize::from(a[i] == m);
        j += usize::from(b[j] == m);
        if m != x && m != y {
            out.push(m);
        }
    }
    for &m in a[i..].iter().chain(&b[j..]) {
        if m != x && m != y {
            out.push(m);
        }
    }
}

/// Sparse Cholesky factorisation `P A Pᵀ = L Lᵀ` of a symmetric positive
/// definite matrix.
///
/// Up-looking factorisation over the elimination tree (the CSparse
/// `cs_chol` scheme): for each row the nonzero pattern is the tree reach of
/// the row's entries, and the numeric step is one sparse triangular solve.
/// The permutation defaults to [`min_degree_order`]; pass a custom one via
/// [`SparseCholesky::factor_with_order`].
///
/// The factor implements [`Preconditioner`], so it can precondition
/// [`crate::pcg`] directly — this is how the solve service applies the
/// sparsifier factor to the original Laplacian.
///
/// # Example
/// ```
/// use ingrass_linalg::{CsrMatrix, SparseCholesky};
/// // SPD: [[4, 1], [1, 3]].
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)]);
/// let f = SparseCholesky::factor(&a).unwrap();
/// let x = f.solve(&[1.0, 2.0]);
/// let r = a.matvec_alloc(&x);
/// assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    /// `perm[k]` = original index of the k-th pivot (new-to-old).
    perm: Vec<u32>,
    /// `iperm[old]` = pivot position of original index `old` (old-to-new);
    /// the inverse of `perm`, kept so incremental updates can scatter a
    /// sparse vector straight into the permuted basis.
    iperm: Vec<u32>,
    /// Column pointers of `L` (column-major, diagonal entry first per
    /// column, off-diagonal rows strictly ascending after it).
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseCholesky {
    /// Factors `a` with the default [`min_degree_order`] ordering.
    ///
    /// # Errors
    /// [`LinalgError::NotSpd`] if a pivot is non-positive;
    /// [`LinalgError::InvalidArgument`] if `a` is not square.
    pub fn factor(a: &CsrMatrix) -> Result<Self, LinalgError> {
        if a.n_rows() != a.n_cols() {
            return Err(LinalgError::InvalidArgument(format!(
                "cholesky needs a square matrix, got {}x{}",
                a.n_rows(),
                a.n_cols()
            )));
        }
        let perm = min_degree_order(a);
        Self::factor_with_order(a, &perm)
    }

    /// Factors `a` with an explicit elimination order (`perm[k]` = original
    /// index of the k-th pivot; must be a permutation of `0..n`).
    ///
    /// # Errors
    /// [`LinalgError::NotSpd`] on a non-positive pivot;
    /// [`LinalgError::InvalidArgument`] on a malformed permutation or a
    /// non-square input.
    pub fn factor_with_order(a: &CsrMatrix, perm: &[usize]) -> Result<Self, LinalgError> {
        let n = a.n_rows();
        if a.n_cols() != n {
            return Err(LinalgError::InvalidArgument(format!(
                "cholesky needs a square matrix, got {}x{}",
                n,
                a.n_cols()
            )));
        }
        if perm.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: perm.len(),
            });
        }
        let mut iperm = vec![u32::MAX; n];
        for (k, &old) in perm.iter().enumerate() {
            if old >= n || iperm[old] != u32::MAX {
                return Err(LinalgError::InvalidArgument(
                    "ordering is not a permutation".into(),
                ));
            }
            iperm[old] = k as u32;
        }

        // Upper triangle of the permuted matrix in CSC form: column k holds
        // the rows i ≤ k of P A Pᵀ (i.e. row k of the lower part — what the
        // up-looking step consumes). Symmetric input stores each off-diagonal
        // twice; exactly one orientation lands in the upper triangle.
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for r in 0..n {
            let (cidx, vals) = a.row(r);
            let pr = iperm[r];
            for (&c, &v) in cidx.iter().zip(vals) {
                let pc = iperm[c as usize];
                if pr <= pc {
                    cols[pc as usize].push((pr, v));
                }
            }
        }
        for col in &mut cols {
            col.sort_unstable_by_key(|&(r, _)| r);
        }

        // Elimination tree of the permuted pattern (Liu's algorithm with
        // path compression through `ancestor`).
        const NONE: u32 = u32::MAX;
        let mut parent = vec![NONE; n];
        let mut ancestor = vec![NONE; n];
        for k in 0..n {
            for &(i, _) in &cols[k] {
                let mut j = i;
                while j != NONE && (j as usize) < k {
                    let next = ancestor[j as usize];
                    ancestor[j as usize] = k as u32;
                    if next == NONE {
                        parent[j as usize] = k as u32;
                        break;
                    }
                    j = next;
                }
            }
        }

        // Up-looking numeric factorisation. Columns of L grow as later rows
        // append their entries; each column starts with its diagonal.
        let mut l_cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        let mut x = vec![0.0; n];
        let mut mark = vec![usize::MAX; n];
        let mut reach: Vec<u32> = Vec::with_capacity(n);
        let mut path: Vec<u32> = Vec::with_capacity(64);
        for k in 0..n {
            // Pattern of row k of L = the etree reach of column k's rows,
            // collected per leaf in root→leaf order and reversed below.
            reach.clear();
            mark[k] = k;
            let mut d = 0.0;
            for &(i, v) in &cols[k] {
                if i as usize == k {
                    d = v;
                    continue;
                }
                x[i as usize] = v;
                path.clear();
                let mut j = i;
                while mark[j as usize] != k {
                    path.push(j);
                    mark[j as usize] = k;
                    j = parent[j as usize];
                }
                // Reverse the leaf-to-ancestor path so `reach` stays in
                // ascending (topological) elimination order per segment.
                reach.extend(path.drain(..).rev());
            }
            reach.sort_unstable();

            for &j in reach.iter() {
                let j = j as usize;
                let col = &l_cols[j];
                let ljj = col[0].1;
                let lkj = x[j] / ljj;
                x[j] = 0.0;
                for &(i, lij) in &col[1..] {
                    x[i as usize] -= lij * lkj;
                }
                d -= lkj * lkj;
                l_cols[j].push((k as u32, lkj));
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotSpd { pivot: k });
            }
            l_cols[k].push((k as u32, d.sqrt()));
        }

        // Flatten the per-column vectors into CSC arrays.
        let nnz: usize = l_cols.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(n + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in &l_cols {
            for &(i, v) in col {
                row_idx.push(i);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        Ok(SparseCholesky {
            n,
            perm: perm.iter().map(|&p| p as u32).collect(),
            iperm,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Rank-1 update: replaces the factor of `A` with a factor of
    /// `A + x xᵀ`, where `x` is given as sparse `(index, value)` entries in
    /// the **original** (unpermuted) index space. Entries on the same index
    /// accumulate.
    ///
    /// The patched factor keeps the original elimination ordering; new
    /// structural entries (fill) appear where the update vector's etree
    /// paths leave the existing pattern. If `max_nnz` is given and the
    /// patched pattern would store more than that many entries, the call
    /// fails with [`LinalgError::FillBudget`] **without touching the
    /// factor** — the caller's cue to refactorize instead.
    ///
    /// Cost is proportional to the entries of `L` along the elimination
    /// paths of `x`'s nonzeros — for localized updates, far below a
    /// refactorization.
    ///
    /// # Errors
    /// [`LinalgError::FillBudget`] (factor untouched) and
    /// [`LinalgError::InvalidArgument`] on out-of-range or non-finite
    /// entries (factor untouched).
    pub fn cholupdate(
        &mut self,
        x: &[(usize, f64)],
        max_nnz: Option<usize>,
    ) -> Result<(), LinalgError> {
        self.rank_one(x, false, max_nnz)
    }

    /// Rank-1 downdate: replaces the factor of `A` with a factor of
    /// `A - x xᵀ`. Same contract as [`SparseCholesky::cholupdate`], with
    /// one addition: if `A - x xᵀ` is not positive definite the hyperbolic
    /// rotation breaks down with [`LinalgError::NotSpd`], and the factor is
    /// left **partially patched** (unusable) — callers must refactorize on
    /// any error from this method.
    pub fn choldowndate(
        &mut self,
        x: &[(usize, f64)],
        max_nnz: Option<usize>,
    ) -> Result<(), LinalgError> {
        self.rank_one(x, true, max_nnz)
    }

    fn rank_one(
        &mut self,
        x: &[(usize, f64)],
        downdate: bool,
        max_nnz: Option<usize>,
    ) -> Result<(), LinalgError> {
        let n = self.n;
        for &(i, v) in x {
            if i >= n {
                return Err(LinalgError::InvalidArgument(format!(
                    "update entry index {i} out of range for dimension {n}"
                )));
            }
            if !v.is_finite() {
                return Err(LinalgError::InvalidArgument(
                    "update entry value is not finite".into(),
                ));
            }
        }
        // Scatter into the permuted basis; track the structural nonzeros.
        let mut w = vec![0.0; n];
        let mut front: Vec<u32> = Vec::with_capacity(x.len());
        for &(i, v) in x {
            let p = self.iperm[i] as usize;
            if w[p] == 0.0 && v != 0.0 {
                front.push(p as u32);
            }
            w[p] += v;
        }
        front.sort_unstable();
        front.dedup();
        if front.is_empty() {
            return Ok(());
        }

        // Symbolic pass: walk the affected columns in elimination order.
        // Rotating at column k makes w structurally nonzero at every stored
        // row of column k, and column k structurally nonzero at every row
        // where w is — so the frontier evolves as a sorted-list union, and
        // the rows w brings that the column lacks become fill. Nothing is
        // mutated yet, so a fill-budget rejection leaves the factor intact.
        let first = front[0] as usize;
        let mut fill: Vec<(u32, u32)> = Vec::new(); // (col, row), built sorted
        let mut rest: Vec<u32> = front[1..].to_vec();
        let mut merged: Vec<u32> = Vec::new();
        let mut k = first;
        loop {
            let (lo, hi) = (self.col_ptr[k], self.col_ptr[k + 1]);
            let col_rows = &self.row_idx[lo + 1..hi];
            merged.clear();
            let (mut a, mut b) = (0, 0);
            while a < rest.len() || b < col_rows.len() {
                let ra = rest.get(a).copied().unwrap_or(u32::MAX);
                let rb = col_rows.get(b).copied().unwrap_or(u32::MAX);
                match ra.cmp(&rb) {
                    std::cmp::Ordering::Less => {
                        fill.push((k as u32, ra));
                        merged.push(ra);
                        a += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(rb);
                        b += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(ra);
                        a += 1;
                        b += 1;
                    }
                }
            }
            if merged.is_empty() {
                break;
            }
            k = merged[0] as usize;
            rest.clear();
            rest.extend_from_slice(&merged[1..]);
        }

        if let Some(budget) = max_nnz {
            let needed = self.nnz() + fill.len();
            if needed > budget {
                return Err(LinalgError::FillBudget { needed, budget });
            }
        }

        // Splice the fill into the flat CSC arrays (one O(nnz + fill)
        // rebuild; new entries start at exactly 0.0 so the numeric sweep
        // below treats them like any stored entry).
        if !fill.is_empty() {
            let new_nnz = self.nnz() + fill.len();
            let mut col_ptr = Vec::with_capacity(n + 1);
            let mut row_idx = Vec::with_capacity(new_nnz);
            let mut values = Vec::with_capacity(new_nnz);
            col_ptr.push(0);
            let mut f = 0;
            for j in 0..n {
                let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
                // Diagonal first, then merge old off-diagonals with fill.
                row_idx.push(self.row_idx[lo]);
                values.push(self.values[lo]);
                let mut p = lo + 1;
                while p < hi || (f < fill.len() && fill[f].0 as usize == j) {
                    let old_row = if p < hi { self.row_idx[p] } else { u32::MAX };
                    let fill_row = if f < fill.len() && fill[f].0 as usize == j {
                        fill[f].1
                    } else {
                        u32::MAX
                    };
                    if old_row < fill_row {
                        row_idx.push(old_row);
                        values.push(self.values[p]);
                        p += 1;
                    } else {
                        row_idx.push(fill_row);
                        values.push(0.0);
                        f += 1;
                    }
                }
                col_ptr.push(row_idx.len());
            }
            self.col_ptr = col_ptr;
            self.row_idx = row_idx;
            self.values = values;
        }

        // Numeric pass: one Givens (update) or hyperbolic (downdate)
        // rotation per affected column. A column where w cancelled to
        // exactly zero gets the identity rotation — skip it.
        for k in first..n {
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            w[k] = 0.0;
            let (lo, hi) = (self.col_ptr[k], self.col_ptr[k + 1]);
            let ljj = self.values[lo];
            let (c, s, r) = if downdate {
                let r2 = ljj * ljj - wk * wk;
                if r2 <= 0.0 || !r2.is_finite() {
                    return Err(LinalgError::NotSpd { pivot: k });
                }
                let r = r2.sqrt();
                (r / ljj, wk / ljj, r)
            } else {
                let r = ljj.hypot(wk);
                (r / ljj, wk / ljj, r)
            };
            self.values[lo] = r;
            if downdate {
                for p in lo + 1..hi {
                    let i = self.row_idx[p] as usize;
                    let lnew = (self.values[p] - s * w[i]) / c;
                    w[i] = c * w[i] - s * lnew;
                    self.values[p] = lnew;
                }
            } else {
                for p in lo + 1..hi {
                    let i = self.row_idx[p] as usize;
                    let lnew = (self.values[p] + s * w[i]) / c;
                    w[i] = c * w[i] - s * lnew;
                    self.values[p] = lnew;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries of `L` (a fill measure; `≥ nnz(tril(A))` always).
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The elimination order used (`perm[k]` = original index of pivot `k`).
    pub fn ordering(&self) -> &[u32] {
        &self.perm
    }

    /// Estimated floating-point work of a numeric refactorization with this
    /// pattern: `Σ_j c_j²` over the column counts `c_j` of `L`. Fill makes
    /// this grow faster than [`SparseCholesky::nnz`], so it is the right
    /// normalizer when judging whether factor-maintenance time merely
    /// tracks the instance or genuinely regresses.
    pub fn flops_estimate(&self) -> f64 {
        (0..self.n)
            .map(|j| {
                let c = (self.col_ptr[j + 1] - self.col_ptr[j]) as f64;
                c * c
            })
            .sum()
    }

    /// Solves `A x = b` into `x` via `P A Pᵀ = L Lᵀ`.
    ///
    /// # Panics
    /// Panics if `b.len()` or `x.len()` differ from [`SparseCholesky::dim`].
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n, "cholesky solve: b dimension");
        assert_eq!(x.len(), n, "cholesky solve: x dimension");
        let mut y = vec![0.0; n];
        for k in 0..n {
            y[k] = b[self.perm[k] as usize];
        }
        self.solve_permuted_in_place(&mut y);
        for k in 0..n {
            x[self.perm[k] as usize] = y[k];
        }
    }

    /// Solves `L Lᵀ y = ŷ` **in the permuted basis**, in place and with no
    /// allocation: on entry `y[k]` is the right-hand side of pivot `k`
    /// (i.e. `b[perm[k]]`), on exit it is the solution in the same basis.
    ///
    /// This is the zero-allocation core [`SparseCholesky::solve_into`]
    /// wraps; callers that already hold permuted data (hot preconditioner
    /// paths — see `SparsifierPrecond` in the core crate) use it directly.
    ///
    /// # Panics
    /// Panics if `y.len()` differs from [`SparseCholesky::dim`].
    pub fn solve_permuted_in_place(&self, y: &mut [f64]) {
        let n = self.n;
        assert_eq!(y.len(), n, "cholesky solve: y dimension");
        // Forward solve L y = P b (column-oriented).
        for j in 0..n {
            let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let yj = y[j] / self.values[lo];
            y[j] = yj;
            for p in lo + 1..hi {
                y[self.row_idx[p] as usize] -= self.values[p] * yj;
            }
        }
        // Backward solve Lᵀ z = y (columns of L are rows of Lᵀ).
        for j in (0..n).rev() {
            let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let mut acc = y[j];
            for p in lo + 1..hi {
                acc -= self.values[p] * y[self.row_idx[p] as usize];
            }
            y[j] = acc / self.values[lo];
        }
    }

    /// [`SparseCholesky::solve_permuted_in_place`] for a block of `k`
    /// right-hand sides stored row-major (entry `(i, c)` at `i * k + c`;
    /// see [`crate::block`]): each factor entry is read once per register
    /// tile of columns instead of once per vector, and every column comes
    /// out bit-identical to the one-vector solve.
    ///
    /// # Panics
    /// Panics if `y.len()` differs from `k` × [`SparseCholesky::dim`].
    pub fn solve_permuted_block_in_place(&self, y: &mut [f64], k: usize) {
        assert_eq!(y.len(), self.n * k, "cholesky block solve: y dimension");
        for (c0, w) in tiles(k) {
            with_lanes!(w, forward_tile(self, y, k, c0));
            with_lanes!(w, backward_tile(self, y, k, c0));
        }
    }

    /// Allocating variant of [`SparseCholesky::solve_into`].
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Exports the exact factor state for persistence.
    ///
    /// The returned arrays are bit-identical copies of the internal
    /// representation (the inverse permutation is derived, not stored), so
    /// [`SparseCholesky::from_state`] round-trips to a factor whose solves
    /// and incremental updates are bit-for-bit identical to this one — the
    /// property the recovery parity proptests pin.
    pub fn to_state(&self) -> CholeskyState {
        CholeskyState {
            n: self.n,
            perm: self.perm.clone(),
            col_ptr: self.col_ptr.clone(),
            row_idx: self.row_idx.clone(),
            values: self.values.clone(),
        }
    }

    /// Rebuilds a factor from persisted state, validating the structural
    /// invariants the solve and update kernels rely on.
    ///
    /// # Errors
    /// [`LinalgError::InvalidArgument`] if the permutation is malformed,
    /// the column pointers are inconsistent, a row index is out of range or
    /// out of order, or a diagonal value is non-positive.
    pub fn from_state(state: CholeskyState) -> Result<Self, LinalgError> {
        let CholeskyState {
            n,
            perm,
            col_ptr,
            row_idx,
            values,
        } = state;
        if perm.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: perm.len(),
            });
        }
        let mut iperm = vec![u32::MAX; n];
        for (k, &old) in perm.iter().enumerate() {
            let old = old as usize;
            if old >= n || iperm[old] != u32::MAX {
                return Err(LinalgError::InvalidArgument(
                    "ordering is not a permutation".into(),
                ));
            }
            iperm[old] = k as u32;
        }
        if col_ptr.len() != n + 1 || col_ptr[0] != 0 {
            return Err(LinalgError::InvalidArgument(
                "cholesky state: column pointers must have n + 1 entries starting at 0".into(),
            ));
        }
        if col_ptr[n] != row_idx.len() || row_idx.len() != values.len() {
            return Err(LinalgError::InvalidArgument(
                "cholesky state: value/index arrays disagree with pointers".into(),
            ));
        }
        for j in 0..n {
            let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
            if lo >= hi || hi > row_idx.len() {
                return Err(LinalgError::InvalidArgument(format!(
                    "cholesky state: column {j} is empty or pointers out of bounds"
                )));
            }
            if row_idx[lo] as usize != j {
                return Err(LinalgError::InvalidArgument(format!(
                    "cholesky state: column {j} does not start with its diagonal"
                )));
            }
            if !(values[lo].is_finite() && values[lo] > 0.0) {
                return Err(LinalgError::InvalidArgument(format!(
                    "cholesky state: non-positive diagonal in column {j}"
                )));
            }
            let mut prev = j as u32;
            for p in lo + 1..hi {
                let r = row_idx[p];
                if r as usize >= n || r <= prev {
                    return Err(LinalgError::InvalidArgument(format!(
                        "cholesky state: rows of column {j} not strictly ascending"
                    )));
                }
                prev = r;
            }
        }
        Ok(SparseCholesky {
            n,
            perm,
            iperm,
            col_ptr,
            row_idx,
            values,
        })
    }
}

/// Exact, serializable state of a [`SparseCholesky`] factor.
///
/// All fields are public plain data so a persistence layer can encode them
/// without this crate knowing the wire format. Produced by
/// [`SparseCholesky::to_state`]; consumed (with validation) by
/// [`SparseCholesky::from_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct CholeskyState {
    /// Dimension of the factored matrix.
    pub n: usize,
    /// Elimination order: `perm[k]` = original index of pivot `k`.
    pub perm: Vec<u32>,
    /// Column pointers of `L` (length `n + 1`).
    pub col_ptr: Vec<usize>,
    /// Row indices of `L` (diagonal first per column, then strictly
    /// ascending).
    pub row_idx: Vec<u32>,
    /// Numeric values of `L`, aligned with `row_idx`.
    pub values: Vec<f64>,
}

/// The forward sweep of [`SparseCholesky::solve_permuted_in_place`] on
/// columns `c0..c0 + W` of a `k`-column block.
fn forward_tile<const W: usize>(f: &SparseCholesky, y: &mut [f64], k: usize, c0: usize) {
    for j in 0..f.n {
        let (lo, hi) = (f.col_ptr[j], f.col_ptr[j + 1]);
        let d = f.values[lo];
        let yj = tile_mut::<W>(y, j * k + c0);
        for v in yj.iter_mut() {
            *v /= d;
        }
        let yj = *yj;
        for (&row, &l) in f.row_idx[lo + 1..hi].iter().zip(&f.values[lo + 1..hi]) {
            let t = tile_mut::<W>(y, row as usize * k + c0);
            for c in 0..W {
                t[c] -= l * yj[c];
            }
        }
    }
}

/// The backward sweep of [`SparseCholesky::solve_permuted_in_place`] on
/// columns `c0..c0 + W` of a `k`-column block.
fn backward_tile<const W: usize>(f: &SparseCholesky, y: &mut [f64], k: usize, c0: usize) {
    for j in (0..f.n).rev() {
        let (lo, hi) = (f.col_ptr[j], f.col_ptr[j + 1]);
        let mut acc = *tile::<W>(y, j * k + c0);
        for (&row, &l) in f.row_idx[lo + 1..hi].iter().zip(&f.values[lo + 1..hi]) {
            let t = tile::<W>(y, row as usize * k + c0);
            for c in 0..W {
                acc[c] -= l * t[c];
            }
        }
        let d = f.values[lo];
        *tile_mut::<W>(y, j * k + c0) = acc.map(|a| a / d);
    }
}

impl Preconditioner for SparseCholesky {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.solve_into(r, z);
    }

    /// Gathers the block into the permuted basis once, sweeps the factor
    /// once for every column, and scatters back — no per-call allocation
    /// once `scratch` has grown to `dim × k`.
    fn apply_block(&self, r: &[f64], z: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        let y = scratch_slice(scratch, self.n * k);
        gather_rows(r, &self.perm, y, k);
        self.solve_permuted_block_in_place(y, k);
        scatter_rows(y, &self.perm, z, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use proptest::prelude::*;

    fn grounded_laplacian_grid(side: usize) -> CsrMatrix {
        // 2D grid Laplacian with the last node grounded (removed): SPD.
        let n = side * side;
        let idx = |r: usize, c: usize| r * side + c;
        let mut t = Vec::new();
        let mut push = |u: usize, v: usize, w: f64| {
            if u < n - 1 && v < n - 1 {
                t.push((u, v, -w));
                t.push((v, u, -w));
            }
            if u < n - 1 {
                t.push((u, u, w));
            }
            if v < n - 1 {
                t.push((v, v, w));
            }
        };
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    push(idx(r, c), idx(r, c + 1), 1.0 + ((r + c) % 3) as f64);
                }
                if r + 1 < side {
                    push(idx(r, c), idx(r + 1, c), 1.0 + ((r * c) % 2) as f64);
                }
            }
        }
        CsrMatrix::from_triplets(n - 1, n - 1, &t)
    }

    /// The minimum-degree kernel the elimination-graph version replays:
    /// per-vertex `BTreeSet` adjacency, the pivot's clique inserted pair
    /// by pair, the same heap key and lazy-deletion rule.
    fn min_degree_reference(a: &CsrMatrix, tiebreak: Option<&[u32]>) -> (Vec<usize>, usize) {
        use std::collections::BTreeSet;
        let n = a.n_rows();
        let tie = |v: usize| tiebreak.map_or(0, |t| t[v]);
        let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        for r in 0..n {
            for &c in a.row(r).0 {
                if c as usize != r {
                    adj[r].insert(c);
                    adj[c as usize].insert(r as u32);
                }
            }
        }
        let mut heap: BinaryHeap<Reverse<(usize, u32, u32)>> = (0..n)
            .map(|v| Reverse((adj[v].len(), tie(v), v as u32)))
            .collect();
        let mut eliminated = vec![false; n];
        let mut perm = Vec::with_capacity(n);
        let mut fill = 0usize;
        while let Some(Reverse((deg, _, v))) = heap.pop() {
            let v = v as usize;
            if eliminated[v] || adj[v].len() != deg {
                continue;
            }
            eliminated[v] = true;
            perm.push(v);
            fill += 1 + deg;
            let neighbours: Vec<u32> = adj[v].iter().copied().collect();
            for &u in &neighbours {
                adj[u as usize].remove(&(v as u32));
            }
            for (i, &u) in neighbours.iter().enumerate() {
                for &w in &neighbours[i + 1..] {
                    adj[u as usize].insert(w);
                    adj[w as usize].insert(u);
                }
            }
            for &u in &neighbours {
                let u = u as usize;
                heap.push(Reverse((adj[u].len(), tie(u), u as u32)));
            }
        }
        (perm, fill)
    }

    /// `(perm, fill)` of the kernel and the reference agree with and
    /// without a tie-break hint.
    fn assert_min_degree_matches(a: &CsrMatrix, tiebreak: &[u32], case: &str) {
        for hint in [None, Some(tiebreak)] {
            assert_eq!(
                min_degree_order_with_hints(a, hint),
                min_degree_reference(a, hint),
                "{case}, hint {}",
                hint.is_some()
            );
        }
    }

    #[test]
    fn min_degree_matches_the_reference_elimination() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let pattern = |n: usize, edges: &[(usize, usize)]| {
            let mut t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
            for &(u, v) in edges {
                t.push((u, v, 1.0));
                t.push((v, u, 1.0));
            }
            CsrMatrix::from_triplets(n, n, &t)
        };
        let mut rng = StdRng::seed_from_u64(0x6d64);
        for case in 0..240 {
            let (n, mut edges) = if case % 4 == 0 {
                // A grid with random chords, larger than the bitset tail,
                // so elimination starts on neighbour lists and switches.
                let side = rng.random_range(17usize..23);
                let n = side * side;
                let mut edges = Vec::new();
                for v in 0..n {
                    if v % side + 1 < side {
                        edges.push((v, v + 1));
                    }
                    if v + side < n {
                        edges.push((v, v + side));
                    }
                }
                (n, edges)
            } else {
                // From a near-tree to a dense tangle, so the pivots'
                // cliques range from a few vertices to most of the graph.
                let n = rng.random_range(0usize..90);
                (n, Vec::new())
            };
            if n >= 2 {
                let m = if case % 4 == 0 {
                    n / 16
                } else {
                    rng.random_range(0..4 * n)
                };
                edges.extend((0..m).map(|_| (rng.random_range(0..n), rng.random_range(0..n))));
            }
            let ties: Vec<u32> = (0..n).map(|_| rng.random_range(0u32..4)).collect();
            assert_min_degree_matches(&pattern(n, &edges), &ties, &format!("random {case}"));
        }
        // Two grids, a path and isolated vertices, none connected.
        let grid = grounded_laplacian_grid(12);
        let g = grid.n_rows();
        let mut edges = Vec::new();
        for base in [0, g] {
            for r in 0..g {
                for &c in grid.row(r).0 {
                    edges.push((base + r, base + c as usize));
                }
            }
        }
        edges.extend((0..9).map(|i| (2 * g + i, 2 * g + i + 1)));
        let n = 2 * g + 14;
        assert!(n > DENSE_TAIL);
        let ties: Vec<u32> = (0..n).map(|v| (v % 3) as u32).collect();
        assert_min_degree_matches(&pattern(n, &edges), &ties, "disconnected");
        let clique: Vec<(usize, usize)> =
            (0..16).flat_map(|u| (0..u).map(move |v| (u, v))).collect();
        assert_min_degree_matches(&pattern(16, &clique), &[1; 16], "clique");
        for n in [0, 1] {
            assert_min_degree_matches(&pattern(n, &[]), &vec![0; n], "trivial");
        }
    }

    #[test]
    fn min_degree_is_a_permutation() {
        let a = grounded_laplacian_grid(5);
        let p = min_degree_order(&a);
        let mut seen = vec![false; a.n_rows()];
        for &v in &p {
            assert!(!seen[v]);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn min_degree_reduces_fill_on_grids() {
        let a = grounded_laplacian_grid(8);
        let natural: Vec<usize> = (0..a.n_rows()).collect();
        let f_nat = SparseCholesky::factor_with_order(&a, &natural).unwrap();
        let f_amd = SparseCholesky::factor(&a).unwrap();
        assert!(
            f_amd.nnz() <= f_nat.nnz(),
            "amd {} vs natural {}",
            f_amd.nnz(),
            f_nat.nnz()
        );
    }

    #[test]
    fn factor_solve_matches_dense() {
        let a = grounded_laplacian_grid(6);
        let f = SparseCholesky::factor(&a).unwrap();
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let x = f.solve(&b);
        let exact = DenseMatrix::from_csr(&a).solve_spd(&b).unwrap();
        for i in 0..n {
            assert!(
                (x[i] - exact[i]).abs() < 1e-9,
                "i={i}: {} vs {}",
                x[i],
                exact[i]
            );
        }
    }

    #[test]
    fn factorization_detects_indefinite_matrix() {
        let a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)]);
        assert!(matches!(
            SparseCholesky::factor(&a),
            Err(LinalgError::NotSpd { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_bad_permutation() {
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(SparseCholesky::factor(&rect).is_err());
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 2.0)]);
        assert!(SparseCholesky::factor_with_order(&a, &[0, 0]).is_err());
        assert!(SparseCholesky::factor_with_order(&a, &[0]).is_err());
    }

    #[test]
    fn preconditioner_impl_is_exact_inverse() {
        let a = grounded_laplacian_grid(4);
        let f = SparseCholesky::factor(&a).unwrap();
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut z = vec![0.0; n];
        Preconditioner::apply(&f, &b, &mut z);
        let back = a.matvec_alloc(&z);
        for i in 0..n {
            assert!((back[i] - b[i]).abs() < 1e-9);
        }
    }

    /// Dense-roundtrip reference: `A + sigma · x xᵀ` as a fresh CSR matrix.
    fn with_outer(a: &CsrMatrix, x: &[(usize, f64)], sigma: f64) -> CsrMatrix {
        let n = a.n_rows();
        let mut xv = vec![0.0; n];
        for &(i, v) in x {
            xv[i] += v;
        }
        let mut t = Vec::new();
        for r in 0..n {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                t.push((r, c as usize, v));
            }
        }
        for i in 0..n {
            if xv[i] == 0.0 {
                continue;
            }
            for j in 0..n {
                if xv[j] != 0.0 {
                    t.push((i, j, sigma * xv[i] * xv[j]));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    fn order_of(f: &SparseCholesky) -> Vec<usize> {
        f.ordering().iter().map(|&p| p as usize).collect()
    }

    #[test]
    fn cholupdate_matches_refactorization() {
        let a = grounded_laplacian_grid(6);
        let n = a.n_rows();
        let mut f = SparseCholesky::factor(&a).unwrap();
        let x = vec![(2, 0.8), (17, -0.5), (20, 0.3)];
        f.cholupdate(&x, None).unwrap();
        let fresh =
            SparseCholesky::factor_with_order(&with_outer(&a, &x, 1.0), &order_of(&f)).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 13) as f64) - 6.0).collect();
        let (got, want) = (f.solve(&b), fresh.solve(&b));
        for i in 0..n {
            assert!(
                (got[i] - want[i]).abs() < 1e-9,
                "i={i}: {} vs {}",
                got[i],
                want[i]
            );
        }
        assert_eq!(
            f.nnz(),
            fresh.nnz(),
            "patched pattern must cover the fresh one"
        );
    }

    #[test]
    fn choldowndate_recovers_the_original_factor() {
        let a = grounded_laplacian_grid(5);
        let n = a.n_rows();
        let base = SparseCholesky::factor(&a).unwrap();
        let mut f = base.clone();
        let x = vec![(1, 0.9), (10, 0.4)];
        f.cholupdate(&x, None).unwrap();
        f.choldowndate(&x, None).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let (got, want) = (f.solve(&b), base.solve(&b));
        for i in 0..n {
            assert!((got[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn choldowndate_detects_loss_of_positive_definiteness() {
        let a = grounded_laplacian_grid(4);
        let mut f = SparseCholesky::factor(&a).unwrap();
        // Subtracting a huge outer product makes the matrix indefinite.
        let x = vec![(0, 100.0)];
        assert!(matches!(
            f.choldowndate(&x, None),
            Err(LinalgError::NotSpd { .. })
        ));
    }

    #[test]
    fn fill_budget_rejection_leaves_the_factor_untouched() {
        let a = grounded_laplacian_grid(6);
        let n = a.n_rows();
        let natural: Vec<usize> = (0..n).collect();
        let mut f = SparseCholesky::factor_with_order(&a, &natural).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let before = f.solve(&b);
        // Nodes 0 and 7 share no stored column entry under the natural
        // ordering, so this update needs fill; a budget of the current nnz
        // must reject it.
        let x = vec![(0, 0.5), (7, 0.5)];
        let budget = f.nnz();
        match f.cholupdate(&x, Some(budget)) {
            Err(LinalgError::FillBudget {
                needed,
                budget: got,
            }) => {
                assert!(needed > budget);
                assert_eq!(got, budget);
            }
            other => panic!("expected FillBudget, got {other:?}"),
        }
        let after = f.solve(&b);
        assert_eq!(before, after, "rejected update must not touch the factor");
        // With the budget lifted the same update succeeds and matches a
        // refactorization.
        f.cholupdate(&x, None).unwrap();
        let fresh = SparseCholesky::factor_with_order(&with_outer(&a, &x, 1.0), &natural).unwrap();
        let (got, want) = (f.solve(&b), fresh.solve(&b));
        for i in 0..n {
            assert!((got[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_and_cancelling_updates_are_no_ops() {
        let a = grounded_laplacian_grid(4);
        let mut f = SparseCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..a.n_rows()).map(|i| i as f64).collect();
        let before = f.solve(&b);
        f.cholupdate(&[], None).unwrap();
        f.cholupdate(&[(3, 0.5), (3, -0.5)], None).unwrap();
        assert_eq!(before, f.solve(&b));
    }

    #[test]
    fn update_rejects_bad_entries() {
        let a = grounded_laplacian_grid(4);
        let mut f = SparseCholesky::factor(&a).unwrap();
        assert!(f.cholupdate(&[(999, 1.0)], None).is_err());
        assert!(f.cholupdate(&[(0, f64::NAN)], None).is_err());
    }

    proptest! {
        #[test]
        fn prop_update_downdate_prefixes_match_refactorization(
            picks in proptest::collection::vec((0usize..24, 0usize..24, 0.1f64..0.9, 0usize..2), 1..6),
            b in proptest::collection::vec(-2.0f64..2.0, 24),
        ) {
            // Random mixed batch of edge-style rank-1 updates on a grounded
            // 5x5 grid (n = 24); after every prefix the patched factor must
            // agree with a fresh factorization of the accumulated matrix.
            let a0 = grounded_laplacian_grid(5);
            let n = a0.n_rows();
            let mut f = SparseCholesky::factor(&a0).unwrap();
            let mut acc = a0.clone();
            // Downdates remove a half-scaled copy of an earlier update, so
            // the accumulated matrix stays SPD by construction.
            let mut applied: Vec<Vec<(usize, f64)>> = Vec::new();
            for &(u, v, w, down) in &picks {
                let down = down == 1;
                let (x, sigma) = if down && !applied.is_empty() {
                    let prev = applied.pop().unwrap();
                    let scale = 0.5f64.sqrt();
                    let xs: Vec<(usize, f64)> =
                        prev.iter().map(|&(i, val)| (i, val * scale)).collect();
                    (xs, -1.0)
                } else {
                    let root = w.sqrt();
                    let x: Vec<(usize, f64)> = if u == v {
                        vec![(u, root)]
                    } else {
                        vec![(u, root), (v, -root)]
                    };
                    applied.push(x.clone());
                    (x, 1.0)
                };
                if sigma > 0.0 {
                    f.cholupdate(&x, None).unwrap();
                } else {
                    f.choldowndate(&x, None).unwrap();
                }
                acc = with_outer(&acc, &x, sigma);
                let fresh = SparseCholesky::factor_with_order(&acc, &order_of(&f)).unwrap();
                let (got, want) = (f.solve(&b), fresh.solve(&b));
                for i in 0..n {
                    prop_assert!((got[i] - want[i]).abs() < 1e-7,
                        "i={i}: {} vs {}", got[i], want[i]);
                }
            }
        }

        #[test]
        fn prop_factor_solve_inverts_spd(
            raw in proptest::collection::vec(-1.0f64..1.0, 36),
            b in proptest::collection::vec(-2.0f64..2.0, 6),
        ) {
            // SPD A = MᵀM + I.
            let m = DenseMatrix::from_rows(6, 6, &raw);
            let mut trip = Vec::new();
            for i in 0..6 {
                for j in 0..6 {
                    let mut acc = if i == j { 1.0 } else { 0.0 };
                    for k in 0..6 {
                        acc += m.get(k, i) * m.get(k, j);
                    }
                    trip.push((i, j, acc));
                }
            }
            let a = CsrMatrix::from_triplets(6, 6, &trip);
            let f = SparseCholesky::factor(&a).unwrap();
            let x = f.solve(&b);
            let r = a.matvec_alloc(&x);
            for i in 0..6 {
                prop_assert!((r[i] - b[i]).abs() < 1e-8);
            }
        }
    }
}
