//! The sparsifier as a preconditioner: grounded sparse Cholesky of the
//! live sparsifier Laplacian, tagged with the engine epoch that built it.
//!
//! This is the hand-off point between the incremental engine and the solve
//! subsystem (`ingrass-solve`): the engine maintains `H ≈ G` spectrally, so
//! an *exact* factorisation of `L_H` preconditions CG on `L_G` with
//! iteration count `O(√κ(L_H⁻¹L_G))` — the very condition number the
//! update phase keeps bounded. Callers cache the factor and rebuild only
//! when [`crate::InGrassEngine::epoch`] moves (a drift-triggered re-setup
//! replaced the hierarchy, so the sparsifier may have changed shape
//! substantially).

use crate::error::InGrassError;
use crate::lrd::LrdHierarchy;
use crate::ordering::lrd_nested_dissection_order;
use crate::Result;
use ingrass_graph::DynGraph;
use ingrass_linalg::{block, CsrMatrix, LinalgError, Preconditioner, SparseCholesky};

/// Grounded Laplacian straight from the edge list: node `ground`'s
/// row/column dropped, the rest re-indexed by skipping it.
fn grounded_laplacian(h: &DynGraph, ground: usize) -> CsrMatrix {
    let n = h.num_nodes();
    let shift = |x: usize| if x > ground { x - 1 } else { x };
    let mut trip: Vec<(usize, usize, f64)> = Vec::with_capacity(4 * h.num_edges());
    for (_, e) in h.edges_iter() {
        let (u, v, w) = (e.u.index(), e.v.index(), e.weight);
        let keep_u = u != ground;
        let keep_v = v != ground;
        if keep_u {
            trip.push((shift(u), shift(u), w));
        }
        if keep_v {
            trip.push((shift(v), shift(v), w));
        }
        if keep_u && keep_v {
            trip.push((shift(u), shift(v), -w));
            trip.push((shift(v), shift(u), -w));
        }
    }
    CsrMatrix::from_triplets(n.saturating_sub(1), n.saturating_sub(1), &trip)
}

/// A grounded sparse Cholesky factor of a sparsifier Laplacian, usable as
/// a [`Preconditioner`] for full-dimension Laplacian PCG.
///
/// Graph Laplacians are singular (the constant vector spans the null
/// space); grounding — deleting one node's row and column — leaves an SPD
/// matrix for a connected graph. `apply` solves the grounded system and
/// pins the grounded node's potential to zero; combined with the constant
/// deflation [`ingrass_linalg::pcg`] performs anyway for Laplacian systems,
/// the map is symmetric positive definite on the relevant subspace.
///
/// Built by [`crate::InGrassEngine::preconditioner`]; the attached
/// [`SparsifierPrecond::epoch`] is the engine epoch at build time, which
/// [`crate::SnapshotEngine`] compares against the engine's to decide whether
/// the factor can be patched or must be rebuilt.
#[derive(Debug, Clone)]
pub struct SparsifierPrecond {
    n: usize,
    ground: usize,
    epoch: u64,
    /// Stored factor entries at build time — the reference point for the
    /// incremental-update fill budget (the live nnz grows as updates
    /// splice fill in).
    built_nnz: usize,
    /// Stored factor entries when the elimination *ordering* was last
    /// computed. Numeric-only rebuilds ([`Self::rebuild_numeric`]) reuse
    /// the ordering and carry this forward; once a rebuilt factor under
    /// the cached ordering outgrows it by the fill-growth factor the
    /// ordering is stale and the next rebuild recomputes it.
    order_base_nnz: usize,
    chol: SparseCholesky,
    /// Fused permutation: `gperm[k]` is the *original node index* of the
    /// factor's pivot `k` (the Cholesky ordering composed with the
    /// ground-skip re-indexing). Lets `apply` gather/scatter straight
    /// between the full-dimension vectors and the permuted solve basis
    /// with a single scratch allocation per call.
    gperm: Vec<u32>,
}

impl SparsifierPrecond {
    /// Factors the grounded Laplacian of the given sparsifier under the
    /// elimination ordering [`lrd_nested_dissection_order`] derives from
    /// `hierarchy` (the engine's decomposition of the same node set). A
    /// one-node sparsifier grounds to an empty matrix, so its ordering and
    /// factor are empty.
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] if the grounded Laplacian is not
    /// positive definite (the sparsifier is disconnected or numerically
    /// degenerate).
    pub(crate) fn build(h: &DynGraph, epoch: u64, hierarchy: &LrdHierarchy) -> Result<Self> {
        let n = h.num_nodes();
        let ground = 0usize;
        let grounded = grounded_laplacian(h, ground);
        let order = lrd_nested_dissection_order(
            hierarchy,
            h.edges_iter().map(|(_, e)| (e.u.index(), e.v.index())),
            Some(ground),
        );
        let chol = SparseCholesky::factor_with_order(&grounded, &order).map_err(|e| {
            InGrassError::BadSparsifier(format!("sparsifier Laplacian is not SPD grounded: {e}"))
        })?;
        Ok(Self::from_factor(n, ground, epoch, chol, None))
    }

    /// Refactors the given sparsifier **numerically only**, reusing this
    /// factor's elimination ordering instead of recomputing one.
    ///
    /// Computing a fill-reducing ordering is the dominant cost of a full
    /// rebuild — far more than the numeric factorization it feeds — and
    /// within one engine epoch the sparsifier's shape drifts slowly, so
    /// the cached ordering stays near-optimal. This is the publish path's
    /// recovery from a fill-budget overrun and its fast path for batches
    /// too large to patch profitably; the `order_base_nnz` reference is
    /// carried forward so staleness ([`Self::order_is_fresh`]) accumulates
    /// across numeric rebuilds until a full rebuild resets it.
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] if the node count changed since the
    /// ordering was computed or the grounded Laplacian is not SPD.
    pub(crate) fn rebuild_numeric(&self, h: &DynGraph, epoch: u64) -> Result<Self> {
        let n = h.num_nodes();
        if n != self.n {
            return Err(InGrassError::BadSparsifier(format!(
                "cached ordering is for {} nodes, sparsifier has {n}",
                self.n
            )));
        }
        let ground = self.ground;
        let grounded = grounded_laplacian(h, ground);
        let order: Vec<usize> = self.chol.ordering().iter().map(|&p| p as usize).collect();
        let chol = SparseCholesky::factor_with_order(&grounded, &order).map_err(|e| {
            InGrassError::BadSparsifier(format!("sparsifier Laplacian is not SPD grounded: {e}"))
        })?;
        Ok(Self::from_factor(
            n,
            ground,
            epoch,
            chol,
            Some(self.order_base_nnz),
        ))
    }

    /// Whether the cached elimination ordering is still worth reusing: the
    /// factor built under it has not outgrown the factor size at ordering
    /// time by more than `growth`. Once this turns `false`, the next
    /// rebuild should recompute the ordering (a full
    /// [`crate::InGrassEngine::preconditioner`] build).
    pub(crate) fn order_is_fresh(&self, growth: f64) -> bool {
        (self.built_nnz as f64) <= (self.order_base_nnz as f64) * growth.max(1.0)
    }

    /// Nodes of the sparsifier this factor was built for (full dimension,
    /// including the grounded node).
    pub(crate) fn num_nodes(&self) -> usize {
        self.n
    }

    fn from_factor(
        n: usize,
        ground: usize,
        epoch: u64,
        chol: SparseCholesky,
        order_base_nnz: Option<usize>,
    ) -> Self {
        let gperm = chol
            .ordering()
            .iter()
            .map(|&g| {
                let g = g as usize;
                (if g >= ground { g + 1 } else { g }) as u32
            })
            .collect();
        let built_nnz = chol.nnz();
        SparsifierPrecond {
            n,
            ground,
            epoch,
            built_nnz,
            order_base_nnz: order_base_nnz.unwrap_or(built_nnz),
            chol,
            gperm,
        }
    }

    /// Patches the factor in place with a batch of sparsifier edge-weight
    /// deltas `(u, v, Δw)` in original node indices: each delta is one
    /// rank-1 update (`Δw > 0`) or downdate (`Δw < 0`) of the grounded
    /// Laplacian along `√|Δw|·(e_u − e_v)`.
    ///
    /// `max_nnz` bounds the factor's stored entries (fill budget). On any
    /// error the factor must be considered unusable (a downdate can fail
    /// midway through the batch) and the caller should refactorize — which
    /// is also the recovery for [`LinalgError::FillBudget`].
    ///
    /// Updates run before downdates: every intermediate matrix then
    /// dominates either the old or the new Laplacian in the PSD order, so
    /// a batch whose *net* effect keeps the sparsifier connected (the
    /// engine's invariant) can never lose positive definiteness midway —
    /// e.g. deleting a bridge in the same batch that inserts its
    /// replacement path.
    pub(crate) fn apply_edge_deltas(
        &mut self,
        deltas: &[(u32, u32, f64)],
        max_nnz: usize,
    ) -> std::result::Result<(), LinalgError> {
        if self.n <= 1 {
            return Ok(());
        }
        let ground = self.ground;
        let shift = |x: usize| if x > ground { x - 1 } else { x };
        let mut x: Vec<(usize, f64)> = Vec::with_capacity(2);
        let ordered = deltas
            .iter()
            .filter(|&&(_, _, dw)| dw > 0.0)
            .chain(deltas.iter().filter(|&&(_, _, dw)| dw < 0.0));
        for &(u, v, dw) in ordered {
            if dw == 0.0 || u == v {
                continue;
            }
            let (u, v) = (u as usize, v as usize);
            let root = dw.abs().sqrt();
            x.clear();
            if u != ground {
                x.push((shift(u), root));
            }
            if v != ground {
                x.push((shift(v), -root));
            }
            if dw > 0.0 {
                self.chol.cholupdate(&x, Some(max_nnz))?;
            } else {
                self.chol.choldowndate(&x, Some(max_nnz))?;
            }
        }
        Ok(())
    }

    /// Stored factor entries at the last (re)build — the base the fill
    /// budget for incremental updates is computed from.
    pub(crate) fn built_nnz(&self) -> usize {
        self.built_nnz
    }

    /// Exports the factor's exact state for persistence.
    ///
    /// `built_nnz` / `order_base_nnz` travel explicitly rather than being
    /// recomputed at restore: a patched factor's live nnz differs from its
    /// nnz at the last rebuild, and recomputing either would shift the
    /// fill-budget and ordering-staleness decisions away from those the
    /// original engine would have made.
    pub(crate) fn export_state(&self) -> crate::state::PrecondState {
        crate::state::PrecondState {
            n: self.n,
            ground: self.ground,
            epoch: self.epoch,
            built_nnz: self.built_nnz,
            order_base_nnz: self.order_base_nnz,
            chol: self.chol.to_state(),
        }
    }

    /// Restores a factor from persisted state, revalidating the invariants
    /// `apply` relies on (factor dimension matches the grounded sparsifier,
    /// ground node in range) on top of the Cholesky-level checks.
    pub(crate) fn from_state(state: crate::state::PrecondState) -> Result<Self> {
        let chol = SparseCholesky::from_state(state.chol).map_err(|e| {
            InGrassError::BadSparsifier(format!("persisted factor is invalid: {e}"))
        })?;
        if state.n > 0 && (state.ground >= state.n || chol.dim() + 1 != state.n) {
            return Err(InGrassError::BadSparsifier(format!(
                "persisted factor dimension {} does not ground {} nodes at node {}",
                chol.dim(),
                state.n,
                state.ground
            )));
        }
        let ground = state.ground;
        let gperm = chol
            .ordering()
            .iter()
            .map(|&g| {
                let g = g as usize;
                (if g >= ground { g + 1 } else { g }) as u32
            })
            .collect();
        Ok(SparsifierPrecond {
            n: state.n,
            ground,
            epoch: state.epoch,
            built_nnz: state.built_nnz,
            order_base_nnz: state.order_base_nnz,
            chol,
            gperm,
        })
    }

    /// The engine epoch (re-setup count) the factor was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stored entries of the Cholesky factor (fill measure).
    pub fn factor_nnz(&self) -> usize {
        self.chol.nnz()
    }

    /// Estimated numeric-refactorization work of the factor's pattern
    /// ([`ingrass_linalg::SparseCholesky::flops_estimate`]).
    pub fn factor_flops(&self) -> f64 {
        self.chol.flops_estimate()
    }
}

impl Preconditioner for SparsifierPrecond {
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
        // Gather the grounded right-hand side directly into the permuted
        // solve basis, solve in place, scatter back: one scratch vector
        // per apply on a path PCG hits every iteration.
        let mut y: Vec<f64> = self.gperm.iter().map(|&g| r[g as usize]).collect();
        self.chol.solve_permuted_in_place(&mut y);
        z[self.ground] = 0.0;
        for (&g, &yk) in self.gperm.iter().zip(&y) {
            z[g as usize] = yk;
        }
    }

    /// The same gather → solve → scatter for a whole block: one factor
    /// sweep serves every column, through `scratch` instead of a fresh
    /// vector per call.
    fn apply_block(&self, r: &[f64], z: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        debug_assert_eq!(r.len(), self.n * k);
        debug_assert_eq!(z.len(), self.n * k);
        if self.n <= 1 {
            z.fill(0.0);
            return;
        }
        let y = block::scratch_slice(scratch, (self.n - 1) * k);
        block::gather_rows(r, &self.gperm, y, k);
        self.chol.solve_permuted_block_in_place(y, k);
        z[self.ground * k..(self.ground + 1) * k].fill(0.0);
        block::scatter_rows(y, &self.gperm, z, k);
    }
}

#[cfg(test)]
mod tests {
    use crate::shard::StitchedPrecond;
    use crate::{InGrassEngine, SetupConfig};
    use ingrass_baselines::GrassSparsifier;
    use ingrass_gen::{grid_2d, WeightModel};
    use ingrass_graph::Graph;
    use ingrass_linalg::{
        pcg, pcg_block, CgOptions, CgResult, CsrMatrix, IdentityPrecond, Preconditioner,
    };

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// For every block width 1..=17: `apply_block` equals `apply` per
    /// column, and `pcg_block` equals per-column `pcg` — solutions and
    /// results — bit for bit.
    fn assert_blocked_paths_match<M: Preconditioner>(l: &CsrMatrix, pre: &M) {
        let n = l.n_rows();
        let ones = vec![1.0; n];
        let opts = CgOptions::default().with_rel_tol(1e-8);
        // Terminal pairs (column 0 is a zero right-hand side).
        let rhss: Vec<Vec<f64>> = (0..17)
            .map(|c| {
                let mut b = vec![0.0; n];
                if c > 0 {
                    b[(5 * c) % n] += 1.0;
                    b[(11 * c + 3) % n] -= 1.0;
                }
                b
            })
            .collect();
        let reference: Vec<(Vec<f64>, CgResult)> = rhss
            .iter()
            .map(|b| {
                let mut x = vec![0.0; n];
                let res = pcg(l, b, &mut x, pre, Some(&ones), &opts);
                (x, res)
            })
            .collect();
        assert!(reference.iter().any(|(_, r)| r.iterations > 3));
        let mut scratch = Vec::new();
        for k in 1..=17 {
            let block: Vec<f64> = (0..n * k).map(|v| (v as f64 * 0.37).sin()).collect();
            let mut z = vec![0.0; n * k];
            pre.apply_block(&block, &mut z, k, &mut scratch);
            for c in 0..k {
                let col: Vec<f64> = (0..n).map(|i| block[i * k + c]).collect();
                let mut want = vec![0.0; n];
                pre.apply(&col, &mut want);
                let got: Vec<f64> = (0..n).map(|i| z[i * k + c]).collect();
                assert_eq!(bits(&got), bits(&want), "apply_block k {k} column {c}");
            }

            let mut xs = rhss[..k].to_vec();
            let results = pcg_block(l, &mut xs, pre, Some(&ones), &opts);
            for (c, (x, res)) in xs.iter().zip(&results).enumerate() {
                let (want_x, want) = &reference[c];
                assert_eq!(
                    (res.iterations, res.converged, res.residual_norm.to_bits()),
                    (
                        want.iterations,
                        want.converged,
                        want.residual_norm.to_bits()
                    ),
                    "pcg_block k {k} column {c}"
                );
                assert_eq!(bits(x), bits(want_x), "pcg_block k {k} column {c} x");
            }
        }
    }

    /// A 10×10 grid G with a 10 % off-tree GRASS sparsifier H of it.
    fn grid_and_sparsifier() -> (Graph, Graph) {
        let g = grid_2d(10, 10, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let h = GrassSparsifier::default()
            .by_offtree_density(&g, 0.10)
            .unwrap()
            .graph;
        (g, h)
    }

    #[test]
    fn blocked_sparsifier_precond_matches_pcg_bitwise() {
        let (g, h) = grid_and_sparsifier();
        let engine = InGrassEngine::setup(&h, &SetupConfig::default()).unwrap();
        let pre = engine.preconditioner().unwrap();
        assert_blocked_paths_match(&g.laplacian(), &pre);
    }

    #[test]
    fn blocked_stitched_precond_matches_pcg_bitwise() {
        let (g, h) = grid_and_sparsifier();
        // Quadrants of the grid as four shards.
        let shard_of: Vec<u32> = (0..100u32)
            .map(|v| (v % 10) / 5 + 2 * ((v / 10) / 5))
            .collect();
        let pre = StitchedPrecond::build(&h, &shard_of, 4, 1).unwrap();
        assert!(pre.boundary_nodes() > 0);
        assert_blocked_paths_match(&g.laplacian(), &pre);
    }

    fn ring_with_chords() -> Graph {
        let n = 24;
        let mut edges: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, (i + 1) % n, 1.0 + (i % 3) as f64))
            .collect();
        for i in 0..n / 2 {
            edges.push((i, i + n / 2, 0.5));
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn preconditioner_solves_its_own_laplacian_in_one_iteration() {
        let h = ring_with_chords();
        let engine = InGrassEngine::setup(&h, &SetupConfig::default()).unwrap();
        let pre = engine.preconditioner().unwrap();
        assert_eq!(pre.epoch(), 0);
        let l = h.laplacian();
        let n = h.num_nodes();
        let mut b = vec![0.0; n];
        b[2] = 1.0;
        b[17] = -1.0;
        let ones = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(&l, &b, &mut x, &pre, Some(&ones), &CgOptions::default());
        assert!(res.converged);
        assert!(
            res.iterations <= 2,
            "exact preconditioner took {} iters",
            res.iterations
        );
    }

    /// The smallest sparsifiers: one node grounds to an empty factor that
    /// maps every residual to zero; two nodes leave one pivot, so the
    /// solve of `L_H z = e_1 − e_0` is exactly `z_1 = 1/w`.
    #[test]
    fn one_and_two_node_sparsifiers_solve_exactly() {
        let single = Graph::from_edges(1, &[]).unwrap();
        let pre = InGrassEngine::setup(&single, &SetupConfig::default())
            .unwrap()
            .preconditioner()
            .unwrap();
        assert_eq!(pre.factor_nnz(), 0);
        let mut z = [1.0];
        pre.apply(&[0.5], &mut z);
        assert_eq!(z, [0.0]);

        let pair = Graph::from_edges(2, &[(0, 1, 4.0)]).unwrap();
        let pre = InGrassEngine::setup(&pair, &SetupConfig::default())
            .unwrap()
            .preconditioner()
            .unwrap();
        assert_eq!(pre.factor_nnz(), 1);
        let mut z = [1.0, 1.0];
        pre.apply(&[-1.0, 1.0], &mut z);
        assert_eq!(z, [0.0, 0.25]);
    }

    #[test]
    fn preconditioner_beats_identity_on_a_denser_graph() {
        let h = ring_with_chords();
        let engine = InGrassEngine::setup(&h, &SetupConfig::default()).unwrap();
        let pre = engine.preconditioner().unwrap();
        // A "denser original": the sparsifier plus extra chords.
        let mut edges: Vec<(usize, usize, f64)> = h
            .edges()
            .iter()
            .map(|e| (e.u.index(), e.v.index(), e.weight))
            .collect();
        let n = h.num_nodes();
        for i in 0..n {
            edges.push((i, (i + 5) % n, 0.25));
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let l = g.laplacian();
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let ones = vec![1.0; n];
        let opts = CgOptions::default().with_rel_tol(1e-8);

        let mut x1 = vec![0.0; n];
        let plain = pcg(
            &l,
            &b,
            &mut x1,
            &IdentityPrecond::new(n),
            Some(&ones),
            &opts,
        );
        let mut x2 = vec![0.0; n];
        let pred = pcg(&l, &b, &mut x2, &pre, Some(&ones), &opts);
        assert!(plain.converged && pred.converged);
        assert!(
            pred.iterations < plain.iterations,
            "preconditioned {} vs plain {}",
            pred.iterations,
            plain.iterations
        );
    }
}
