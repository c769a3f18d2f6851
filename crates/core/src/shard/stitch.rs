//! Stitching per-shard factors into one sparsifier preconditioner.
//!
//! The grounded sparsifier Laplacian `L` (ground node 0 removed),
//! reordered by the shard partition, is block-arrowhead: per-shard
//! interior blocks `A_s`, a boundary block `L_BB` over the cross-shard
//! edge endpoints `B`, and couplings `E_s = L[I_s, B]`. The classic
//! block factorisation then solves `L z = r` *exactly* with
//!
//! 1. per-shard interior solves `y_s = A_s⁻¹ r_s` (sparse Cholesky,
//!    computed per shard and in parallel),
//! 2. one dense solve with the boundary Schur complement
//!    `S = L_BB − Σ_s E_sᵀ A_s⁻¹ E_s` (small: `|B|` is the number of
//!    cross-shard endpoints, which the LRD partition keeps low),
//! 3. a per-shard correction pass `x_s = A_s⁻¹ (r_s − E_s x_B)`.
//!
//! Because the solve is exact, a [`StitchedPrecond`] preconditions PCG on
//! the original Laplacian exactly as well as the single-engine
//! `SparsifierPrecond` of the same sparsifier — stitched-solve iteration
//! counts match, which the parity suite pins.
//!
//! Every loop below runs in a fixed index order and parallel maps place
//! results by index, so the factor (and every solve through it) is
//! bit-identical at any thread width.

use crate::error::InGrassError;
use crate::Result;
use ingrass_graph::Graph;
use ingrass_linalg::{block, CsrMatrix, DenseMatrix, Preconditioner, SparseCholesky};

/// Node classes of the block partition.
const CLASS_GROUND: u8 = 0;
const CLASS_BOUNDARY: u8 = 1;
const CLASS_INTERIOR: u8 = 2;

/// The Schur-complement-stitched preconditioner over a sharded
/// sparsifier: per-shard interior Cholesky factors plus one dense factor
/// of the boundary Schur complement, applied as an exact block solve.
#[derive(Debug, Clone)]
pub struct StitchedPrecond {
    n: usize,
    /// Global boundary nodes, ascending (their index is the boundary
    /// coordinate of the dense block).
    boundary: Vec<u32>,
    /// Global ids of each shard's interior nodes, ascending.
    interiors: Vec<Vec<u32>>,
    /// Interior factor per shard (`None` for an empty interior).
    chols: Vec<Option<SparseCholesky>>,
    /// Per shard: the global node of each interior factor pivot, in
    /// elimination order — the row map that gathers a block straight into
    /// the factor's permuted basis.
    pivots: Vec<Vec<u32>>,
    /// Per shard: interior slot → pivot position (the inverse of the
    /// factor's ordering), for coupling entries in the permuted basis.
    pivot_of: Vec<Vec<u32>>,
    /// Per shard: coupling entries `(interior slot, boundary slot, w)`
    /// for every sparsifier edge between that shard's interior and the
    /// boundary set.
    coupling: Vec<Vec<(u32, u32, f64)>>,
    /// Dense lower Cholesky factor of the boundary Schur complement
    /// (`None` when the boundary is empty).
    schur: Option<DenseMatrix>,
}

impl StitchedPrecond {
    /// Builds the stitched factor for `graph` under the given node →
    /// shard assignment.
    ///
    /// `threads` bounds the fan-out of per-shard factorisations and
    /// Schur column solves; the result is identical at any width.
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] if an interior block or the
    /// boundary Schur complement is not SPD — the assembled sparsifier
    /// is disconnected or numerically degenerate.
    pub(crate) fn build(
        graph: &Graph,
        shard_of: &[u32],
        shards: usize,
        threads: usize,
    ) -> Result<StitchedPrecond> {
        let n = graph.num_nodes();
        let Blocks {
            boundary,
            interiors,
            trips,
            coupling,
            lbb,
        } = assemble(graph, shard_of, shards);
        let nb = boundary.len();

        // Per-shard interior factors, in parallel (placed by index).
        let chols: Vec<Result<Option<SparseCholesky>>> =
            ingrass_par::par_map_range_with(threads.max(1), shards, |sh| {
                let m = interiors[sh].len();
                if m == 0 {
                    return Ok(None);
                }
                let a = CsrMatrix::from_triplets(m, m, &trips[sh]);
                SparseCholesky::factor(&a).map(Some).map_err(|e| {
                    InGrassError::BadSparsifier(format!(
                        "shard {sh} interior block is not SPD: {e}"
                    ))
                })
            });
        let mut factors: Vec<Option<SparseCholesky>> = Vec::with_capacity(shards);
        for c in chols {
            factors.push(c?);
        }

        let (pivots, pivot_of): (Vec<Vec<u32>>, Vec<Vec<u32>>) = interiors
            .iter()
            .zip(&factors)
            .map(|(interior, chol)| {
                let order = chol.as_ref().map_or(&[][..], |c| c.ordering());
                let mut pivot_of = vec![0u32; interior.len()];
                for (k, &slot) in order.iter().enumerate() {
                    pivot_of[slot as usize] = k as u32;
                }
                let pivots = order.iter().map(|&slot| interior[slot as usize]).collect();
                (pivots, pivot_of)
            })
            .unzip();

        let schur = if nb > 0 {
            let s = schur_complement(lbb, nb, &factors, &pivot_of, &coupling, threads.max(1));
            Some(s.cholesky().map_err(|e| {
                InGrassError::BadSparsifier(format!(
                    "boundary Schur complement ({nb} nodes) is not SPD: {e}"
                ))
            })?)
        } else {
            None
        };

        Ok(StitchedPrecond {
            n,
            boundary,
            interiors,
            chols: factors,
            pivots,
            pivot_of,
            coupling,
            schur,
        })
    }

    /// Number of shards stitched.
    pub fn shards(&self) -> usize {
        self.interiors.len()
    }

    /// Number of boundary nodes (the dense block's dimension).
    pub fn boundary_nodes(&self) -> usize {
        self.boundary.len()
    }

    /// Stored factor entries: per-shard sparse factors plus the dense
    /// boundary factor's lower triangle.
    pub fn factor_nnz(&self) -> usize {
        let sparse: usize = self.chols.iter().flatten().map(|c| c.nnz()).sum();
        let nb = self.boundary.len();
        sparse + nb * (nb + 1) / 2
    }

    /// Estimated refactorisation work across all blocks.
    pub fn factor_flops(&self) -> f64 {
        let sparse: f64 = self
            .chols
            .iter()
            .flatten()
            .map(|c| c.flops_estimate())
            .sum();
        let nb = self.boundary.len() as f64;
        sparse + nb * nb * nb / 3.0
    }

    /// Solves `S x = b` in place for a block of `k` columns with the cached
    /// dense lower factor (no-op for an empty boundary).
    fn schur_solve(&self, b: &mut [f64], k: usize) {
        if let Some(l) = &self.schur {
            l.cholesky_solve_block_in_place(b, k);
        }
    }

    /// One interior solve `out = A_s⁻¹ rhs` for shard `sh` (no-op for an
    /// empty interior).
    fn interior_solve(&self, sh: usize, rhs: &[f64], out: &mut [f64]) {
        if let Some(chol) = &self.chols[sh] {
            chol.solve_into(rhs, out);
        }
    }
}

/// The grounded sparsifier Laplacian cut along a shard partition.
struct Blocks {
    /// Global boundary nodes, ascending.
    boundary: Vec<u32>,
    /// Global ids of each shard's interior nodes, ascending.
    interiors: Vec<Vec<u32>>,
    /// Per shard: triplets of the interior block `A_s` over interior slots.
    trips: Vec<Vec<(usize, usize, f64)>>,
    /// Per shard: coupling entries `(interior slot, boundary slot, w)`.
    coupling: Vec<Vec<(u32, u32, f64)>>,
    /// The boundary block `L_BB`, row-major. Every off-diagonal addition
    /// lands on `(i, j)` and `(j, i)` alike, so it is exactly symmetric.
    lbb: Vec<f64>,
}

/// Classifies nodes and assembles every block of the partitioned
/// Laplacian in one pass over the edges.
fn assemble(graph: &Graph, shard_of: &[u32], shards: usize) -> Blocks {
    let n = graph.num_nodes();
    assert_eq!(shard_of.len(), n, "shard assignment covers every node");
    let ground = 0usize;

    // Classify nodes: endpoints of cross-shard edges are boundary
    // (except ground, which is simply removed), everything else is
    // interior to its shard.
    let mut class = vec![CLASS_INTERIOR; n];
    if n > 0 {
        class[ground] = CLASS_GROUND;
    }
    for e in graph.edges() {
        let (u, v) = (e.u.index(), e.v.index());
        if shard_of[u] != shard_of[v] {
            if u != ground {
                class[u] = CLASS_BOUNDARY;
            }
            if v != ground {
                class[v] = CLASS_BOUNDARY;
            }
        }
    }
    let boundary: Vec<u32> = (0..n)
        .filter(|&u| class[u] == CLASS_BOUNDARY)
        .map(|u| u as u32)
        .collect();
    let nb = boundary.len();
    let mut slot = vec![0u32; n];
    for (i, &b) in boundary.iter().enumerate() {
        slot[b as usize] = i as u32;
    }
    let mut interiors: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for u in 0..n {
        if class[u] != CLASS_INTERIOR {
            continue;
        }
        let sh = shard_of[u] as usize;
        slot[u] = interiors[sh].len() as u32;
        interiors[sh].push(u as u32);
    }

    // One pass over the edges fills per-shard interior triplets, the
    // couplings, and the boundary block's off-diagonal; degrees
    // accumulate for every node so each block's diagonal is the full
    // grounded-Laplacian diagonal.
    let mut degree = vec![0.0f64; n];
    let mut trips: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); shards];
    let mut coupling: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); shards];
    let mut lbb = vec![0.0f64; nb * nb];
    for e in graph.edges() {
        let (u, v, w) = (e.u.index(), e.v.index(), e.weight);
        degree[u] += w;
        degree[v] += w;
        match (class[u], class[v]) {
            (CLASS_INTERIOR, CLASS_INTERIOR) => {
                let sh = shard_of[u] as usize;
                debug_assert_eq!(sh, shard_of[v] as usize);
                let (i, j) = (slot[u] as usize, slot[v] as usize);
                trips[sh].push((i, j, -w));
                trips[sh].push((j, i, -w));
            }
            (CLASS_INTERIOR, CLASS_BOUNDARY) => {
                coupling[shard_of[u] as usize].push((slot[u], slot[v], w));
            }
            (CLASS_BOUNDARY, CLASS_INTERIOR) => {
                coupling[shard_of[v] as usize].push((slot[v], slot[u], w));
            }
            (CLASS_BOUNDARY, CLASS_BOUNDARY) => {
                let (i, j) = (slot[u] as usize, slot[v] as usize);
                lbb[i * nb + j] += -w;
                lbb[j * nb + i] += -w;
            }
            // Edges at the ground node only contribute degree.
            _ => {}
        }
    }
    for (sh, interior) in interiors.iter().enumerate() {
        for (i, &u) in interior.iter().enumerate() {
            trips[sh].push((i, i, degree[u as usize]));
        }
    }
    for (i, &b) in boundary.iter().enumerate() {
        lbb[i * nb + i] += degree[b as usize];
    }
    Blocks {
        boundary,
        interiors,
        trips,
        coupling,
        lbb,
    }
}

/// Boundary columns a Schur worker solves at once: bounds each worker's
/// transient block to this many interior-sized columns.
const SCHUR_TILE: usize = 16;

/// The boundary Schur complement `S = L_BB − Σ_s E_sᵀ A_s⁻¹ E_s`, with one
/// interior solve per boundary column a shard couples to.
///
/// `S` is accumulated as its transpose `st` — row `b` of `st` is column
/// `b` of `S`, and it starts as `L_BB`, which is its own transpose — so the
/// workers of one shard, each given a contiguous run of that shard's
/// coupled columns, own disjoint runs of rows. Every entry still receives
/// its additions in the serial order (shards ascending, coupling entries in
/// stored order), so `S` is bit-identical at any width and to one
/// `solve_into` per column.
fn schur_complement(
    mut st: Vec<f64>,
    nb: usize,
    factors: &[Option<SparseCholesky>],
    pivot_of: &[Vec<u32>],
    coupling: &[Vec<(u32, u32, f64)>],
    threads: usize,
) -> DenseMatrix {
    for (sh, chol) in factors.iter().enumerate() {
        let Some(chol) = chol else { continue };
        let mut cols: Vec<u32> = coupling[sh].iter().map(|&(_, b, _)| b).collect();
        cols.sort_unstable();
        cols.dedup();
        // Cut `st` into the row runs [cols[first], cols[last]] of each
        // worker's columns; rows between runs belong to no worker.
        let mut parts: Vec<(&[u32], &mut [f64])> = Vec::new();
        let (mut rest, mut at) = (&mut st[..], 0usize);
        for range in ingrass_par::split_even(cols.len(), threads) {
            let mine = &cols[range];
            let (lo, hi) = (mine[0] as usize, mine[mine.len() - 1] as usize + 1);
            let (_, tail) = std::mem::take(&mut rest).split_at_mut((lo - at) * nb);
            let (rows, tail) = tail.split_at_mut((hi - lo) * nb);
            parts.push((mine, rows));
            (rest, at) = (tail, hi);
        }
        ingrass_par::par_map_mut_with(threads, &mut parts, |(mine, rows)| {
            schur_columns(chol, &pivot_of[sh], &coupling[sh], mine, rows, nb);
        });
    }
    for b in 0..nb {
        for bp in b + 1..nb {
            st.swap(b * nb + bp, bp * nb + b);
        }
    }
    DenseMatrix::from_rows(nb, nb, &st)
}

/// One worker's share of a shard's Schur update: for each boundary column
/// `b` in `cols` (ascending), `rows[(b − cols[0])·nb + b'] += w·y[i]` for
/// every coupling entry `(i, b', w)` in stored order, where `y = A⁻¹ E[:, b]`.
/// Columns are solved [`SCHUR_TILE`] at a time as one row-major block in
/// the factor's pivot basis.
fn schur_columns(
    chol: &SparseCholesky,
    pivot_of: &[u32],
    entries: &[(u32, u32, f64)],
    cols: &[u32],
    rows: &mut [f64],
    nb: usize,
) {
    let (m, lo) = (chol.dim(), cols[0] as usize);
    let mut y = Vec::new();
    for tile in cols.chunks(SCHUR_TILE) {
        let k = tile.len();
        let y = block::scratch_slice(&mut y, m * k);
        y.fill(0.0);
        // Column b of E_s: entries −w at the coupled rows.
        for &(i, b, w) in entries {
            if let Ok(c) = tile.binary_search(&b) {
                y[pivot_of[i as usize] as usize * k + c] -= w;
            }
        }
        chol.solve_permuted_block_in_place(y, k);
        for (c, &b) in tile.iter().enumerate() {
            let row = &mut rows[(b as usize - lo) * nb..][..nb];
            for &(i, bp, w) in entries {
                // −(E_sᵀ y)[bp] with E[i, bp] = −w ⇒ +w·y[i].
                row[bp as usize] += w * y[pivot_of[i as usize] as usize * k + c];
            }
        }
    }
}

impl Preconditioner for StitchedPrecond {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n);
        debug_assert_eq!(z.len(), self.n);
        if self.n <= 1 {
            z.fill(0.0);
            return;
        }
        let shards = self.interiors.len();

        // 1. Per-shard interior pre-solves y_s = A_s⁻¹ r_s.
        let mut ys: Vec<Vec<f64>> = Vec::with_capacity(shards);
        for sh in 0..shards {
            let interior = &self.interiors[sh];
            let rhs: Vec<f64> = interior.iter().map(|&u| r[u as usize]).collect();
            let mut y = vec![0.0f64; interior.len()];
            self.interior_solve(sh, &rhs, &mut y);
            ys.push(y);
        }

        // 2. Boundary solve x_B = S⁻¹ (r_B − Σ E_sᵀ y_s).
        let mut xb: Vec<f64> = self.boundary.iter().map(|&b| r[b as usize]).collect();
        for sh in 0..shards {
            for &(i, b, w) in &self.coupling[sh] {
                // −E[i,b]·y[i] with E[i,b] = −w.
                xb[b as usize] += w * ys[sh][i as usize];
            }
        }
        self.schur_solve(&mut xb, 1);

        // 3. Correction pass x_s = A_s⁻¹ (r_s − E_s x_B) and scatter.
        z[0] = 0.0;
        for (i, &b) in self.boundary.iter().enumerate() {
            z[b as usize] = xb[i];
        }
        for sh in 0..shards {
            let interior = &self.interiors[sh];
            if interior.is_empty() {
                continue;
            }
            let mut t: Vec<f64> = interior.iter().map(|&u| r[u as usize]).collect();
            for &(i, b, w) in &self.coupling[sh] {
                t[i as usize] += w * xb[b as usize];
            }
            let mut x = vec![0.0f64; interior.len()];
            self.interior_solve(sh, &t, &mut x);
            for (i, &u) in interior.iter().enumerate() {
                z[u as usize] = x[i];
            }
        }
    }

    /// The same three steps for a whole block, without the per-column
    /// gathers: each shard's rows are gathered straight into its factor's
    /// permuted basis and swept once for every column, couplings update
    /// all columns per entry, and the boundary system is one blocked dense
    /// solve. Pre-solves and correction share one region of `scratch`,
    /// the boundary block the other.
    fn apply_block(&self, r: &[f64], z: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        debug_assert_eq!(r.len(), self.n * k);
        debug_assert_eq!(z.len(), self.n * k);
        if self.n <= 1 {
            z.fill(0.0);
            return;
        }
        let interior_rows: usize = self.pivots.iter().map(Vec::len).sum();
        let work = block::scratch_slice(scratch, (interior_rows + self.boundary.len()) * k);
        let (ys, xb) = work.split_at_mut(interior_rows * k);

        // 1. Per-shard interior pre-solves y_s = A_s⁻¹ r_s (pivot order).
        let mut at = 0;
        for (sh, chol) in self.chols.iter().enumerate() {
            let rows = &self.pivots[sh];
            let y = &mut ys[at..at + rows.len() * k];
            at += rows.len() * k;
            if let Some(chol) = chol {
                block::gather_rows(r, rows, y, k);
                chol.solve_permuted_block_in_place(y, k);
            }
        }

        // 2. Boundary solve x_B = S⁻¹ (r_B − Σ E_sᵀ y_s).
        block::gather_rows(r, &self.boundary, xb, k);
        let mut at = 0;
        for sh in 0..self.chols.len() {
            let y = &ys[at..at + self.pivots[sh].len() * k];
            at += y.len();
            for &(i, b, w) in &self.coupling[sh] {
                let (yi, bi) = (self.pivot_of[sh][i as usize] as usize * k, b as usize * k);
                for c in 0..k {
                    // −E[i,b]·y[i] with E[i,b] = −w.
                    xb[bi + c] += w * y[yi + c];
                }
            }
        }
        self.schur_solve(xb, k);

        // 3. Correction pass x_s = A_s⁻¹ (r_s − E_s x_B) and scatter.
        z[..k].fill(0.0);
        block::scatter_rows(xb, &self.boundary, z, k);
        let mut at = 0;
        for (sh, chol) in self.chols.iter().enumerate() {
            let rows = &self.pivots[sh];
            let t = &mut ys[at..at + rows.len() * k];
            at += rows.len() * k;
            let Some(chol) = chol else { continue };
            block::gather_rows(r, rows, t, k);
            for &(i, b, w) in &self.coupling[sh] {
                let (ti, bi) = (self.pivot_of[sh][i as usize] as usize * k, b as usize * k);
                for c in 0..k {
                    t[ti + c] += w * xb[bi + c];
                }
            }
            chol.solve_permuted_block_in_place(t, k);
            block::scatter_rows(t, rows, z, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingrass_linalg::{pcg, CgOptions};

    /// A two-block graph: two 4-cliques joined by two cross edges.
    fn two_blocks() -> (Graph, Vec<u32>) {
        let mut edges = Vec::new();
        for base in [0usize, 4] {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    edges.push((base + a, base + b, 1.0 + (a + b) as f64 * 0.1));
                }
            }
        }
        edges.push((1, 5, 0.5));
        edges.push((3, 6, 0.25));
        let g = Graph::from_edges(8, &edges).unwrap();
        let shard_of = vec![0, 0, 0, 0, 1, 1, 1, 1];
        (g, shard_of)
    }

    #[test]
    fn stitched_solve_is_exact_for_its_own_laplacian() {
        let (g, shard_of) = two_blocks();
        let pre = StitchedPrecond::build(&g, &shard_of, 2, 1).unwrap();
        assert_eq!(pre.shards(), 2);
        assert_eq!(pre.boundary_nodes(), 4); // nodes 1, 3, 5, 6
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut b = vec![0.0; n];
        b[2] = 1.0;
        b[7] = -1.0;
        let ones = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(&l, &b, &mut x, &pre, Some(&ones), &CgOptions::default());
        assert!(res.converged);
        assert!(
            res.iterations <= 2,
            "exact block solve took {} iters",
            res.iterations
        );
    }

    #[test]
    fn matches_mono_preconditioner_application() {
        // The stitched apply must equal the exact grounded solve, i.e.
        // L·z = r on the ground-complement (up to the grounded node).
        let (g, shard_of) = two_blocks();
        let pre = StitchedPrecond::build(&g, &shard_of, 2, 1).unwrap();
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut r = vec![0.0; n];
        for (i, v) in r.iter_mut().enumerate() {
            *v = (i as f64 * 0.37).sin();
        }
        r[0] = 0.0; // grounded coordinate carries no information
        let mut z = vec![0.0; n];
        pre.apply(&r, &mut z);
        assert_eq!(z[0], 0.0);
        // Check L z = r on every non-ground coordinate.
        let mut lz = vec![0.0; n];
        l.matvec(&z, &mut lz);
        for i in 1..n {
            assert!(
                (lz[i] - r[i]).abs() < 1e-9,
                "residual at {i}: {} vs {}",
                lz[i],
                r[i]
            );
        }
    }

    #[test]
    fn thread_width_does_not_change_the_factor() {
        let (g, shard_of) = two_blocks();
        let p1 = StitchedPrecond::build(&g, &shard_of, 2, 1).unwrap();
        let p4 = StitchedPrecond::build(&g, &shard_of, 2, 4).unwrap();
        let n = g.num_nodes();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0).recip()).collect();
        let (mut z1, mut z4) = (vec![0.0; n], vec![0.0; n]);
        p1.apply(&r, &mut z1);
        p4.apply(&r, &mut z4);
        assert_eq!(z1, z4, "stitched solve differs across build widths");
        assert_eq!(p1.factor_nnz(), p4.factor_nnz());
    }

    /// The boundary Schur factor as the build computed it one column at
    /// a time: a dense right-hand side per coupled boundary column,
    /// `solve_into`, then `+= w·y[i]` into `L_BB` over the coupling in
    /// stored order, shards and columns ascending; then `cholesky()`.
    fn reference_schur(g: &Graph, shard_of: &[u32], shards: usize) -> DenseMatrix {
        let blocks = assemble(g, shard_of, shards);
        let nb = blocks.boundary.len();
        let mut s = DenseMatrix::from_rows(nb, nb, &blocks.lbb);
        for (sh, trips) in blocks.trips.iter().enumerate() {
            let m = blocks.interiors[sh].len();
            if m == 0 {
                continue;
            }
            let chol = SparseCholesky::factor(&CsrMatrix::from_triplets(m, m, trips)).unwrap();
            let entries = &blocks.coupling[sh];
            let mut cols: Vec<u32> = entries.iter().map(|&(_, b, _)| b).collect();
            cols.sort_unstable();
            cols.dedup();
            for &b in &cols {
                let mut rhs = vec![0.0f64; m];
                for &(i, bp, w) in entries {
                    if bp == b {
                        rhs[i as usize] -= w;
                    }
                }
                let mut y = vec![0.0f64; m];
                chol.solve_into(&rhs, &mut y);
                for &(i, bp, w) in entries {
                    s.add(bp as usize, b as usize, w * y[i as usize]);
                }
            }
        }
        s.cholesky().unwrap()
    }

    fn dense_bits(m: &DenseMatrix) -> Vec<u64> {
        let n = m.n_rows();
        (0..n * n).map(|e| m.get(e / n, e % n).to_bits()).collect()
    }

    /// A GRASS sparsifier of a Delaunay mesh, cut by the sharded engine's
    /// own routing into four shards.
    fn delaunay_shards() -> (Graph, Vec<u32>) {
        let g0 = ingrass_gen::TestCase::DelaunayN18.build(0.01, 7);
        let h0 = ingrass_baselines::GrassSparsifier::default()
            .by_offtree_density(&g0, 0.10)
            .unwrap()
            .graph;
        let eng = crate::ShardedEngine::setup(
            &h0,
            &crate::SetupConfig::default(),
            &crate::ShardedConfig::default().with_shards(4),
        )
        .unwrap();
        let shard_of = eng.routing().shard_of_slice().to_vec();
        (eng.assembled_graph().unwrap(), shard_of)
    }

    #[test]
    fn schur_factor_matches_the_column_by_column_build() {
        for ((g, shard_of), shards) in [(two_blocks(), 2), (delaunay_shards(), 4)] {
            let want = dense_bits(&reference_schur(&g, &shard_of, shards));
            for threads in [1, 2, 3, 4] {
                let pre = StitchedPrecond::build(&g, &shard_of, shards, threads).unwrap();
                if shards == 4 {
                    // Some shard's columns span more than one tile.
                    let widest = pre.coupling.iter().map(|entries| {
                        let mut cols: Vec<u32> = entries.iter().map(|&(_, b, _)| b).collect();
                        cols.sort_unstable();
                        cols.dedup();
                        cols.len()
                    });
                    assert!(widest.max().unwrap() > SCHUR_TILE);
                }
                let got = dense_bits(pre.schur.as_ref().unwrap());
                assert_eq!(got, want, "{shards} shards at width {threads}");
            }
        }
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let (g, _) = two_blocks();
        let shard_of = vec![0u32; g.num_nodes()];
        let pre = StitchedPrecond::build(&g, &shard_of, 1, 1).unwrap();
        assert_eq!(pre.boundary_nodes(), 0);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut b = vec![0.0; n];
        b[1] = 1.0;
        b[4] = -1.0;
        let ones = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(&l, &b, &mut x, &pre, Some(&ones), &CgOptions::default());
        assert!(res.converged && res.iterations <= 2);
    }
}
