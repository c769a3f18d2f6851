//! The solve service: epoch-keyed preconditioner cache + batched PCG.

use ingrass::{InGrassEngine, InGrassError, PhaseTimer, SparsifierPrecond, SparsifierSnapshot};
use ingrass_graph::{kruskal_tree, TreeObjective, TreePrecond};
use ingrass_linalg::{BlockPcg, CgOptions, CgResult, CsrMatrix, JacobiPrecond, Preconditioner};
use std::fmt;

/// How the service turns the live sparsifier into a preconditioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecondStrategy {
    /// Always factor: grounded sparse Cholesky of `L_H`
    /// ([`InGrassEngine::preconditioner`]). Exact for the sparsifier —
    /// the strongest preconditioner this crate offers.
    Cholesky,
    /// Diagonal of `L_H` (weighted sparsifier degrees). Near-zero build
    /// cost, weakest preconditioner; the floor for very large graphs.
    Jacobi,
    /// Exact `O(n)` solver of a max-weight spanning tree of the sparsifier
    /// (the classic support-graph preconditioner).
    Tree,
    /// Cholesky while the sparsifier has at most `max_cholesky_nodes`
    /// nodes, spanning-tree above — the huge-case fallback the service
    /// picks automatically.
    Auto {
        /// Node-count ceiling for the Cholesky path.
        max_cholesky_nodes: usize,
    },
}

impl Default for PrecondStrategy {
    fn default() -> Self {
        PrecondStrategy::Auto {
            max_cholesky_nodes: 200_000,
        }
    }
}

/// Which preconditioner a [`SolveReport`] actually used (the resolution of
/// [`PrecondStrategy::Auto`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecondKind {
    /// Grounded sparse Cholesky of the sparsifier Laplacian.
    Cholesky,
    /// Sparsifier diagonal.
    Jacobi,
    /// Spanning tree of the sparsifier.
    Tree,
}

impl fmt::Display for PrecondKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrecondKind::Cholesky => write!(f, "cholesky"),
            PrecondKind::Jacobi => write!(f, "jacobi"),
            PrecondKind::Tree => write!(f, "tree"),
        }
    }
}

enum PrecondImpl {
    Cholesky(SparsifierPrecond),
    Jacobi(JacobiPrecond),
    Tree(TreePrecond),
}

impl Preconditioner for PrecondImpl {
    fn dim(&self) -> usize {
        match self {
            PrecondImpl::Cholesky(p) => p.dim(),
            PrecondImpl::Jacobi(p) => p.dim(),
            PrecondImpl::Tree(p) => p.dim(),
        }
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            PrecondImpl::Cholesky(p) => p.apply(r, z),
            PrecondImpl::Jacobi(p) => p.apply(r, z),
            PrecondImpl::Tree(p) => p.apply(r, z),
        }
    }

    fn apply_block(&self, r: &[f64], z: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        match self {
            PrecondImpl::Cholesky(p) => p.apply_block(r, z, k, scratch),
            PrecondImpl::Jacobi(p) => p.apply_block(r, z, k, scratch),
            PrecondImpl::Tree(p) => p.apply_block(r, z, k, scratch),
        }
    }
}

struct CachedPrecond {
    /// Which engine instance the factor was extracted from — epoch alone
    /// cannot distinguish two different engines that both sit at epoch 0.
    engine_id: u64,
    epoch: u64,
    kind: PrecondKind,
    factor_nnz: usize,
    imp: PrecondImpl,
}

/// Errors of the solve service.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// An operand's dimension disagrees with the engine's node count.
    Dimension {
        /// Expected dimension (the engine's node count).
        expected: usize,
        /// Dimension found.
        found: usize,
        /// Which operand was wrong.
        what: &'static str,
    },
    /// A right-hand side holds a NaN or infinite entry. PCG cannot make
    /// progress on it (it would stop after one iteration with an all-zero
    /// solution and a NaN residual), so it is refused before it is queued
    /// or solved.
    NonFinite {
        /// Position of the offending right-hand side in the batch (0 for
        /// a single submission).
        rhs: usize,
        /// Index of its first non-finite entry.
        index: usize,
        /// That entry's value.
        value: f64,
    },
    /// Extracting the preconditioner from the engine failed.
    Precondition(String),
    /// The admission queue is at its [`SolveConfig::max_pending`] cap;
    /// the request was rejected without being queued.
    QueueFull {
        /// The configured cap the queue is sitting at.
        max_pending: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Dimension {
                expected,
                found,
                what,
            } => write!(f, "{what} has dimension {found}, engine expects {expected}"),
            SolveError::NonFinite { rhs, index, value } => write!(
                f,
                "right-hand side {rhs} has non-finite entry {value} at index {index}"
            ),
            SolveError::Precondition(msg) => write!(f, "preconditioner extraction failed: {msg}"),
            SolveError::QueueFull { max_pending } => {
                write!(f, "admission queue full ({max_pending} pending)")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<InGrassError> for SolveError {
    fn from(e: InGrassError) -> Self {
        SolveError::Precondition(e.to_string())
    }
}

/// Folds solve-service errors into the workspace-level error (the impl
/// lives here, next to [`SolveError`], because of the orphan rule — see
/// [`ingrass::IngrassError`]).
impl From<SolveError> for ingrass::IngrassError {
    fn from(e: SolveError) -> Self {
        ingrass::IngrassError::Solve(e.to_string())
    }
}

/// Configuration of a [`SolveService`].
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Preconditioner extraction strategy (default [`PrecondStrategy::Auto`]).
    pub strategy: PrecondStrategy,
    /// PCG options; the default targets `1e-8` relative residual with a
    /// 20 000-iteration budget (looser than [`CgOptions::default`] — solve
    /// traffic wants throughput, estimators want the last digits).
    pub cg: CgOptions,
    /// Worker threads for multi-RHS batches (`None` = the ambient
    /// `ingrass-par` width). Results are bit-identical at any width.
    pub threads: Option<usize>,
    /// Admission cap for [`crate::ConcurrentSolveService`]: once this many
    /// requests are pending, further submissions are rejected with
    /// [`SolveError::QueueFull`] instead of growing the queue without
    /// bound. `None` (the default, and the only mode the single-caller
    /// [`SolveService`] ever sees) admits everything.
    pub max_pending: Option<usize>,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            strategy: PrecondStrategy::default(),
            cg: CgOptions::default()
                .with_rel_tol(1e-8)
                .with_max_iters(20_000),
            threads: None,
            max_pending: None,
        }
    }
}

/// Lifetime counters of a [`SolveService`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Preconditioner (re)builds performed.
    pub factorizations: usize,
    /// Batches served from the cached factorization.
    pub cache_hits: usize,
    /// `solve_batch` calls served (engine-cached and snapshot paths).
    pub batches: usize,
    /// Batches served against an immutable snapshot
    /// ([`SolveService::solve_snapshot_batch`]) — these never touch the
    /// factorization cache.
    pub snapshot_batches: usize,
    /// Individual right-hand sides solved.
    pub solves: usize,
    /// PCG iterations summed over all solves.
    pub iterations_total: usize,
}

/// What one [`SolveService::solve_batch`] call did.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Engine epoch the serving preconditioner belongs to.
    pub epoch: u64,
    /// Whether this call had to (re)build the preconditioner (`false` =
    /// warm cache).
    pub refactorized: bool,
    /// The preconditioner kind that served the batch.
    pub precond: PrecondKind,
    /// Seconds spent building the preconditioner (0 on a warm call).
    pub factor_seconds: f64,
    /// Stored entries of the serving factor (0 for Jacobi/tree).
    pub factor_nnz: usize,
    /// Seconds spent in PCG for the whole batch.
    pub solve_seconds: f64,
    /// Per-right-hand-side PCG outcomes, in batch order.
    pub results: Vec<CgResult>,
}

impl SolveReport {
    /// Largest per-RHS iteration count in the batch.
    pub fn max_iterations(&self) -> usize {
        self.results.iter().map(|r| r.iterations).max().unwrap_or(0)
    }

    /// Iterations summed over the batch.
    pub fn total_iterations(&self) -> usize {
        self.results.iter().map(|r| r.iterations).sum()
    }

    /// Whether every right-hand side reached the tolerance.
    pub fn all_converged(&self) -> bool {
        self.results.iter().all(|r| r.converged)
    }
}

/// A Laplacian solve service preconditioned by a live inGRASS sparsifier.
///
/// The service owns a one-slot factorization cache keyed by the engine
/// instance and its ledger epoch ([`InGrassEngine::instance_id`],
/// [`InGrassEngine::epoch`]): ordinary update batches leave the epoch
/// unchanged, so consecutive solves reuse the factor; a drift-triggered
/// re-setup bumps the epoch — and handing the service a different engine
/// changes the instance — so the next solve rebuilds automatically. See
/// the [crate-level docs](crate) for the full story.
///
/// The engine is borrowed *shared* and only for the duration of a single
/// call: between solves the caller is free to read engine stats
/// ([`InGrassEngine::epoch`], [`InGrassEngine::resetups`]) or apply update
/// batches (`tests/solve_service.rs` pins this). For serving threads that
/// must not touch the engine at all,
/// [`SolveService::solve_snapshot_batch`] answers against an immutable
/// [`SparsifierSnapshot`] instead.
pub struct SolveService {
    cfg: SolveConfig,
    cache: Option<CachedPrecond>,
    stats: SolveStats,
}

impl fmt::Debug for SolveService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveService")
            .field("cfg", &self.cfg)
            .field("cached_epoch", &self.cache.as_ref().map(|c| c.epoch))
            .field("stats", &self.stats)
            .finish()
    }
}

impl SolveService {
    /// A service with the given configuration.
    pub fn new(cfg: SolveConfig) -> Self {
        SolveService {
            cfg,
            cache: None,
            stats: SolveStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The epoch of the cached factorization, if one is live.
    pub fn cached_epoch(&self) -> Option<u64> {
        self.cache.as_ref().map(|c| c.epoch)
    }

    /// Drops the cached factorization; the next solve rebuilds.
    pub fn invalidate(&mut self) {
        self.cache = None;
    }

    /// Solves `L_G x = b` for one right-hand side. Convenience wrapper over
    /// [`SolveService::solve_batch`].
    ///
    /// # Errors
    /// As for [`SolveService::solve_batch`].
    pub fn solve(
        &mut self,
        engine: &InGrassEngine,
        laplacian: &CsrMatrix,
        b: &[f64],
    ) -> crate::Result<(Vec<f64>, SolveReport)> {
        let (mut xs, report) = self.solve_batch(engine, laplacian, &[b.to_vec()])?;
        Ok((xs.pop().expect("one rhs in, one solution out"), report))
    }

    /// Solves `L_G xᵢ = bᵢ` for a batch of right-hand sides with PCG,
    /// preconditioned by the (cached) sparsifier factorization.
    ///
    /// `laplacian` is the Laplacian of the **original** graph the engine's
    /// sparsifier approximates — the caller keeps it current as the graph
    /// churns. Right-hand sides are interpreted as node current injections
    /// and projected onto `1⊥` (a Laplacian system is only consistent for
    /// zero-sum injections); solutions are zero-mean potentials.
    ///
    /// The cache policy: if the cached factor came from this engine
    /// instance ([`InGrassEngine::instance_id`]) at its current
    /// [`InGrassEngine::epoch`], the batch is served warm (no
    /// factorization); otherwise — epoch moved, or a different engine is
    /// presented — the preconditioner is rebuilt from the live sparsifier
    /// first. Non-convergence is reported per-RHS in
    /// [`SolveReport::results`], not as an error.
    ///
    /// # Errors
    /// [`SolveError::Dimension`] on operand/engine shape mismatch;
    /// [`SolveError::NonFinite`] if a right-hand side holds a NaN or
    /// infinite entry; [`SolveError::Precondition`] if factorization
    /// fails.
    pub fn solve_batch(
        &mut self,
        engine: &InGrassEngine,
        laplacian: &CsrMatrix,
        rhss: &[Vec<f64>],
    ) -> crate::Result<(Vec<Vec<f64>>, SolveReport)> {
        let n = engine.sparsifier().num_nodes();
        check_operands(n, laplacian, rhss)?;

        let (refactorized, factor_seconds) = self.ensure_precond(engine)?;
        let cached = self.cache.as_ref().expect("ensure_precond populated cache");

        let threads = self.cfg.threads.unwrap_or_else(ingrass_par::num_threads);
        let (xs, results, solve_seconds) =
            pcg_batch(laplacian, rhss, &cached.imp, &self.cfg.cg, threads);
        self.stats.batches += 1;
        self.stats.solves += rhss.len();
        self.stats.iterations_total += results.iter().map(|r| r.iterations).sum::<usize>();
        let report = SolveReport {
            epoch: cached.epoch,
            refactorized,
            precond: cached.kind,
            factor_seconds,
            factor_nnz: cached.factor_nnz,
            solve_seconds,
            results,
        };
        Ok((xs, report))
    }

    /// Solves `L_G xᵢ = bᵢ` against an immutable [`SparsifierSnapshot`]:
    /// the preconditioner is the snapshot's own grounded Cholesky factor,
    /// so this path **borrows no engine at all** and never touches the
    /// factorization cache — the narrow-borrow entry point for serving
    /// threads that hold a snapshot while a writer mutates the engine
    /// elsewhere.
    ///
    /// `laplacian` is the original graph's Laplacian *as of the state the
    /// caller wants answered* — typically the graph matching the
    /// snapshot's version (the concurrent serving layer keeps the pair
    /// together). Right-hand sides are projected onto `1⊥` exactly as in
    /// [`SolveService::solve_batch`].
    ///
    /// The returned report carries the snapshot's epoch; `refactorized` is
    /// always `false` and `factor_seconds` 0 (the factor was paid for at
    /// publish time by the [`ingrass::SnapshotEngine`] — usually as a
    /// handful of rank-1 up/downdates patching the previous factor rather
    /// than a from-scratch refactorization, which is what keeps publish
    /// latency flat under sustained churn).
    ///
    /// # Errors
    /// [`SolveError::Dimension`] on operand/snapshot shape mismatch;
    /// [`SolveError::NonFinite`] if a right-hand side holds a NaN or
    /// infinite entry.
    pub fn solve_snapshot_batch(
        &mut self,
        snapshot: &SparsifierSnapshot,
        laplacian: &CsrMatrix,
        rhss: &[Vec<f64>],
    ) -> crate::Result<(Vec<Vec<f64>>, SolveReport)> {
        let n = snapshot.num_nodes();
        check_operands(n, laplacian, rhss)?;
        let threads = self.cfg.threads.unwrap_or_else(ingrass_par::num_threads);
        let (xs, results, solve_seconds) = pcg_batch(
            laplacian,
            rhss,
            snapshot.preconditioner(),
            &self.cfg.cg,
            threads,
        );
        self.stats.batches += 1;
        self.stats.snapshot_batches += 1;
        self.stats.solves += rhss.len();
        self.stats.iterations_total += results.iter().map(|r| r.iterations).sum::<usize>();
        let report = SolveReport {
            epoch: snapshot.epoch(),
            refactorized: false,
            precond: crate::SNAPSHOT_PRECOND,
            factor_seconds: 0.0,
            factor_nnz: snapshot.preconditioner().factor_nnz(),
            solve_seconds,
            results,
        };
        Ok((xs, report))
    }

    /// Makes the cache current for the engine's epoch. Returns
    /// `(refactorized, factor_seconds)`.
    fn ensure_precond(&mut self, engine: &InGrassEngine) -> crate::Result<(bool, f64)> {
        let epoch = engine.epoch();
        let engine_id = engine.instance_id();
        if let Some(c) = &self.cache {
            if c.engine_id == engine_id && c.epoch == epoch {
                self.stats.cache_hits += 1;
                return Ok((false, 0.0));
            }
        }
        let timer = PhaseTimer::start();
        let n = engine.sparsifier().num_nodes();
        let kind = match self.cfg.strategy {
            PrecondStrategy::Cholesky => PrecondKind::Cholesky,
            PrecondStrategy::Jacobi => PrecondKind::Jacobi,
            PrecondStrategy::Tree => PrecondKind::Tree,
            PrecondStrategy::Auto { max_cholesky_nodes } => {
                if n <= max_cholesky_nodes {
                    PrecondKind::Cholesky
                } else {
                    PrecondKind::Tree
                }
            }
        };
        let (imp, factor_nnz) = match kind {
            PrecondKind::Cholesky => {
                let p = engine.preconditioner()?;
                let nnz = p.factor_nnz();
                (PrecondImpl::Cholesky(p), nnz)
            }
            PrecondKind::Jacobi => {
                let h = engine.sparsifier();
                let mut diag = vec![0.0; n];
                for (_, e) in h.edges_iter() {
                    diag[e.u.index()] += e.weight;
                    diag[e.v.index()] += e.weight;
                }
                (PrecondImpl::Jacobi(JacobiPrecond::from_diagonal(diag)), 0)
            }
            PrecondKind::Tree => {
                let snapshot = engine.sparsifier_graph();
                let tree = kruskal_tree(&snapshot, TreeObjective::MaxWeight)
                    .map_err(|e| SolveError::Precondition(e.to_string()))?;
                (PrecondImpl::Tree(TreePrecond::new(&tree.tree)), 0)
            }
        };
        let factor_seconds = timer.total().as_secs_f64();
        self.cache = Some(CachedPrecond {
            engine_id,
            epoch,
            kind,
            factor_nnz,
            imp,
        });
        self.stats.factorizations += 1;
        Ok((true, factor_seconds))
    }
}

/// Operand validation shared by every solve entry point (including the
/// concurrent service's admission path): shapes, and finite right-hand
/// sides.
pub(crate) fn check_operands(
    n: usize,
    laplacian: &CsrMatrix,
    rhss: &[Vec<f64>],
) -> crate::Result<()> {
    if laplacian.n_rows() != n || laplacian.n_cols() != n {
        return Err(SolveError::Dimension {
            expected: n,
            found: laplacian.n_rows().max(laplacian.n_cols()),
            what: "laplacian",
        });
    }
    for (rhs, b) in rhss.iter().enumerate() {
        if b.len() != n {
            return Err(SolveError::Dimension {
                expected: n,
                found: b.len(),
                what: "right-hand side",
            });
        }
        if let Some(index) = b.iter().position(|v| !v.is_finite()) {
            return Err(SolveError::NonFinite {
                rhs,
                index,
                value: b[index],
            });
        }
    }
    Ok(())
}

/// One block of requests, solved as one blocked PCG run
/// ([`ingrass_linalg::BlockPcg`]) by the recipe every serving path shares
/// — the cached-engine batch, the snapshot batch, and the concurrent
/// service's drain: each right-hand side projected onto `1⊥`
/// (b ← b − mean(b)·1, for Laplacian consistency), the constant deflated
/// every iteration, every column starting from zero. Each request's answer
/// is bit-identical to solving it alone, whatever the block size.
///
/// [`Block::new`] allocates everything the solve needs, so the thread
/// that cuts a batch into blocks owns the memory and workers only compute.
pub(crate) struct Block {
    /// The projected right-hand sides; [`Block::solve`] overwrites them
    /// with the solutions.
    pub(crate) xs: Vec<Vec<f64>>,
    ones: Vec<f64>,
    pcg: BlockPcg,
}

impl Block {
    pub(crate) fn new(n: usize, rhss: &[Vec<f64>]) -> Self {
        let xs = rhss
            .iter()
            .map(|rhs| {
                let mean = rhs.iter().sum::<f64>() / n.max(1) as f64;
                rhs.iter().map(|v| v - mean).collect()
            })
            .collect();
        Block {
            xs,
            ones: vec![1.0; n],
            pcg: BlockPcg::new(n, rhss.len()),
        }
    }

    pub(crate) fn solve<M>(
        &mut self,
        laplacian: &CsrMatrix,
        precond: &M,
        cg: &CgOptions,
    ) -> Vec<CgResult>
    where
        M: Preconditioner + ?Sized,
    {
        self.pcg
            .solve(laplacian, &mut self.xs, precond, Some(&self.ones), cg)
    }
}

/// A batch solved as `min(threads, len)` contiguous, near-equal
/// [`Block`]s ([`ingrass_par::split_even`]), distributed across `threads`
/// workers (bit-identical at any width and any block composition).
/// Returns the solutions, the per-RHS outcomes, and the solve wall
/// seconds.
fn pcg_batch<M>(
    laplacian: &CsrMatrix,
    rhss: &[Vec<f64>],
    precond: &M,
    cg: &CgOptions,
    threads: usize,
) -> (Vec<Vec<f64>>, Vec<CgResult>, f64)
where
    M: Preconditioner + Sync + ?Sized,
{
    let timer = PhaseTimer::start();
    let n = laplacian.n_rows();
    let mut blocks: Vec<Block> = ingrass_par::split_even(rhss.len(), threads)
        .into_iter()
        .map(|cols| Block::new(n, &rhss[cols]))
        .collect();
    let results = ingrass_par::par_map_mut_with(threads, &mut blocks, |block| {
        block.solve(laplacian, precond, cg)
    });
    let solve_seconds = timer.total().as_secs_f64();
    let xs = blocks.into_iter().flat_map(|b| b.xs).collect();
    (xs, results.into_iter().flatten().collect(), solve_seconds)
}

/// Plain (unpreconditioned) CG on a Laplacian system, with the same
/// consistency projection and constant-deflation the service applies — the
/// fair baseline the benches and acceptance tests compare
/// [`SolveService::solve_batch`] against.
pub fn unpreconditioned_cg(
    laplacian: &CsrMatrix,
    b: &[f64],
    opts: &CgOptions,
) -> (Vec<f64>, CgResult) {
    let n = laplacian.n_rows();
    assert_eq!(b.len(), n, "unpreconditioned_cg: b dimension");
    let mean = b.iter().sum::<f64>() / n.max(1) as f64;
    let projected: Vec<f64> = b.iter().map(|v| v - mean).collect();
    let ones = vec![1.0; n];
    let mut x = vec![0.0; n];
    let pre = ingrass_linalg::IdentityPrecond::new(n);
    let res = ingrass_linalg::pcg(laplacian, &projected, &mut x, &pre, Some(&ones), opts);
    (x, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingrass::{SetupConfig, UpdateConfig, UpdateOp};
    use ingrass_baselines::GrassSparsifier;
    use ingrass_gen::{grid_2d, WeightModel};
    use ingrass_graph::Graph;

    fn fixture(side: usize, seed: u64) -> (Graph, InGrassEngine) {
        let g = grid_2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g, 0.10)
            .unwrap()
            .graph;
        let engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        (g, engine)
    }

    fn pair_rhs(n: usize, u: usize, v: usize) -> Vec<f64> {
        let mut b = vec![0.0; n];
        b[u] = 1.0;
        b[v] = -1.0;
        b
    }

    #[test]
    fn cold_then_warm_cache_behaviour() {
        let (g, engine) = fixture(10, 1);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut svc = SolveService::new(SolveConfig::default());
        let (_, r1) = svc.solve(&engine, &l, &pair_rhs(n, 0, n - 1)).unwrap();
        assert!(r1.refactorized);
        assert_eq!(r1.precond, PrecondKind::Cholesky);
        assert!(r1.all_converged());
        let (_, r2) = svc.solve(&engine, &l, &pair_rhs(n, 3, 77)).unwrap();
        assert!(!r2.refactorized);
        assert_eq!(r2.factor_seconds, 0.0);
        assert_eq!(svc.stats().factorizations, 1);
        assert_eq!(svc.stats().cache_hits, 1);
        assert_eq!(svc.stats().solves, 2);
    }

    #[test]
    fn batch_solutions_match_single_solves() {
        let (g, engine) = fixture(8, 2);
        let l = g.laplacian();
        let n = g.num_nodes();
        let rhss = vec![pair_rhs(n, 0, 9), pair_rhs(n, 5, 40), pair_rhs(n, 11, 62)];
        let mut svc = SolveService::new(SolveConfig::default());
        let (xs, report) = svc.solve_batch(&engine, &l, &rhss).unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(report.results.len(), 3);
        let mut svc2 = SolveService::new(SolveConfig::default());
        for (b, x_batch) in rhss.iter().zip(&xs) {
            let (x_single, _) = svc2.solve(&engine, &l, b).unwrap();
            for (a, b) in x_single.iter().zip(x_batch) {
                assert_eq!(a, b, "batch and single solves must agree bitwise");
            }
        }
    }

    #[test]
    fn solutions_satisfy_the_laplacian_equation() {
        let (g, engine) = fixture(9, 3);
        let l = g.laplacian();
        let n = g.num_nodes();
        let b = pair_rhs(n, 2, 70);
        let mut svc = SolveService::new(SolveConfig::default());
        let (x, report) = svc.solve(&engine, &l, &b).unwrap();
        assert!(report.all_converged());
        let r = l.matvec_alloc(&x);
        let err: f64 = r
            .iter()
            .zip(&b)
            .map(|(ri, bi)| (ri - bi).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "residual {err}");
        // Zero-mean output (deflated solve).
        let mean: f64 = x.iter().sum::<f64>() / n as f64;
        assert!(mean.abs() < 1e-8);
    }

    #[test]
    fn a_different_engine_at_the_same_epoch_is_not_served_the_old_factor() {
        let (g, engine_a) = fixture(10, 40);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut svc = SolveService::new(SolveConfig::default());
        svc.solve(&engine_a, &l, &pair_rhs(n, 0, 9)).unwrap();
        assert_eq!(svc.stats().factorizations, 1);
        // A fresh setup over the same graph: also at epoch 0, but a
        // different engine — its sparsifier is not the cached one.
        let (_, engine_b) = fixture(10, 41);
        assert_eq!(engine_b.epoch(), 0);
        assert_ne!(engine_a.instance_id(), engine_b.instance_id());
        let (_, r) = svc.solve(&engine_b, &l, &pair_rhs(n, 0, 9)).unwrap();
        assert!(r.refactorized, "stale cross-engine cache was served");
        assert_eq!(svc.stats().factorizations, 2);
        // And going back to engine A refactorizes again (one-slot cache).
        let (_, r) = svc.solve(&engine_a, &l, &pair_rhs(n, 0, 9)).unwrap();
        assert!(r.refactorized);
    }

    #[test]
    fn epoch_bump_invalidates_the_cache() {
        let (g, mut engine) = fixture(10, 4);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut svc = SolveService::new(SolveConfig::default());
        svc.solve(&engine, &l, &pair_rhs(n, 0, 50)).unwrap();
        assert_eq!(svc.cached_epoch(), Some(0));
        // Manual re-setup bumps the epoch; next solve must refactorize.
        engine.resetup().unwrap();
        assert_eq!(engine.epoch(), 1);
        let (_, r) = svc.solve(&engine, &l, &pair_rhs(n, 0, 50)).unwrap();
        assert!(r.refactorized);
        assert_eq!(r.epoch, 1);
        assert_eq!(svc.stats().factorizations, 2);
    }

    #[test]
    fn non_resetup_update_batch_keeps_the_cache_warm() {
        let (g, mut engine) = fixture(10, 5);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut svc = SolveService::new(SolveConfig::default());
        svc.solve(&engine, &l, &pair_rhs(n, 1, 42)).unwrap();
        let r = engine
            .apply_batch(
                &[UpdateOp::Insert {
                    u: 0,
                    v: n - 1,
                    weight: 0.7,
                }],
                &UpdateConfig::default(),
            )
            .unwrap();
        assert!(r.resetup.is_none());
        let (_, warm) = svc.solve(&engine, &l, &pair_rhs(n, 1, 42)).unwrap();
        assert!(
            !warm.refactorized,
            "insert batch must not invalidate the cache"
        );
    }

    #[test]
    fn strategies_all_converge() {
        let (g, engine) = fixture(8, 6);
        let l = g.laplacian();
        let n = g.num_nodes();
        for strategy in [
            PrecondStrategy::Cholesky,
            PrecondStrategy::Jacobi,
            PrecondStrategy::Tree,
            PrecondStrategy::Auto {
                max_cholesky_nodes: 1,
            },
        ] {
            let mut svc = SolveService::new(SolveConfig {
                strategy,
                ..Default::default()
            });
            let (_, r) = svc.solve(&engine, &l, &pair_rhs(n, 0, n / 2)).unwrap();
            assert!(r.all_converged(), "{strategy:?} failed: {r:?}");
            if let PrecondStrategy::Auto { .. } = strategy {
                assert_eq!(r.precond, PrecondKind::Tree, "tiny ceiling must fall back");
            }
        }
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let (g, engine) = fixture(6, 7);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut svc = SolveService::new(SolveConfig::default());
        let small = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        assert!(matches!(
            svc.solve(&engine, &small, &pair_rhs(n, 0, 1)),
            Err(SolveError::Dimension {
                what: "laplacian",
                ..
            })
        ));
        assert!(matches!(
            svc.solve(&engine, &l, &[1.0, -1.0]),
            Err(SolveError::Dimension {
                what: "right-hand side",
                ..
            })
        ));
    }

    #[test]
    fn non_finite_rhs_is_rejected_by_batch_paths() {
        let (g, engine) = fixture(6, 10);
        let l = g.laplacian();
        let n = g.num_nodes();
        let mut bad = pair_rhs(n, 0, 5);
        bad[7] = f64::INFINITY;
        let batch = vec![pair_rhs(n, 1, 2), bad];
        let mut svc = SolveService::new(SolveConfig::default());
        let expect = SolveError::NonFinite {
            rhs: 1,
            index: 7,
            value: f64::INFINITY,
        };
        assert_eq!(svc.solve_batch(&engine, &l, &batch).unwrap_err(), expect);
        let snap =
            ingrass::SnapshotEngine::setup(&engine.sparsifier_graph(), &SetupConfig::default())
                .unwrap()
                .snapshot();
        assert_eq!(
            svc.solve_snapshot_batch(&snap, &l, &batch).unwrap_err(),
            expect
        );
        assert_eq!(svc.stats().solves, 0, "nothing was solved");
    }

    #[test]
    fn batch_width_does_not_change_answers() {
        let (g, engine) = fixture(9, 11);
        let l = g.laplacian();
        let n = g.num_nodes();
        let rhss: Vec<Vec<f64>> = (0..11).map(|k| pair_rhs(n, k, n - 1 - 2 * k)).collect();
        let solve = |threads| {
            let mut svc = SolveService::new(SolveConfig {
                threads: Some(threads),
                ..Default::default()
            });
            let (xs, report) = svc.solve_batch(&engine, &l, &rhss).unwrap();
            (xs, report.results)
        };
        let one = solve(1);
        for threads in [2, 3, 4, 16] {
            assert_eq!(solve(threads), one, "width {threads} diverged");
        }
    }

    #[test]
    fn empty_batch_is_served() {
        let (g, engine) = fixture(6, 8);
        let l = g.laplacian();
        let mut svc = SolveService::new(SolveConfig::default());
        let (xs, report) = svc.solve_batch(&engine, &l, &[]).unwrap();
        assert!(xs.is_empty());
        assert!(report.results.is_empty());
        assert_eq!(report.max_iterations(), 0);
        // Building the preconditioner still happened (the cache is primed).
        assert_eq!(svc.stats().factorizations, 1);
    }

    #[test]
    fn inconsistent_rhs_is_projected() {
        let (g, engine) = fixture(6, 9);
        let l = g.laplacian();
        let n = g.num_nodes();
        // Constant offset on top of a valid injection pair.
        let b: Vec<f64> = pair_rhs(n, 0, n - 1).iter().map(|v| v + 3.0).collect();
        let mut svc = SolveService::new(SolveConfig::default());
        let (x, r) = svc.solve(&engine, &l, &b).unwrap();
        assert!(r.all_converged());
        let lx = l.matvec_alloc(&x);
        // The solution solves the projected system.
        assert!((lx[0] - 1.0).abs() < 1e-6 && (lx[n - 1] + 1.0).abs() < 1e-6);
    }
}
