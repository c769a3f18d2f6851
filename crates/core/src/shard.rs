//! Sharded multi-writer engine over the LRD hierarchy.
//!
//! [`ShardedEngine`] partitions the sparsifier by top-level LRD clusters
//! into `S` independent [`InGrassEngine`]s — each with its own ledger,
//! drift tracker, ordering cache, and Cholesky factor — and routes every
//! intra-cluster [`UpdateOp`] to its owning shard through a deterministic
//! [`ShardRouting`] table derived from the hierarchy (rebuilt on every
//! drift re-setup). Cross-shard edges never enter a shard engine and
//! live in the coordinator's [`BoundaryGraph`] instead.
//!
//! # Commit protocol
//!
//! [`ShardedEngine::apply_batch`] runs a three-step epoch-fenced commit:
//!
//! 1. **Partition** — the batch is validated atomically and routed into
//!    per-shard op lists plus a coordinator-owned boundary list.
//! 2. **Parallel apply** — every shard with routed work runs its own
//!    [`InGrassEngine::apply_batch`], mapped over `ingrass-par` workers
//!    with `par_map_mut_with` (shard RNG streams were isolated at setup
//!    via `derive_seed`), and all workers join at the **epoch fence**.
//!    At width 1, or when only one shard has work, the map runs on the
//!    calling thread.
//! 3. **Commit** — per-shard [`UpdateReport`]s are merged in ascending
//!    shard-index order (a shard error propagates from the lowest index
//!    *before* any coordinator state moves), boundary ops apply
//!    single-threaded after the fence, and the drift decision is taken
//!    from the *merged* post-fence state — so a triggered
//!    [`ShardedEngine::resetup`] moves every shard across the same epoch
//!    boundary.
//!
//! Publishing stitches the per-shard sparsifiers back together: the
//! assembled graph's grounded Laplacian is solved exactly by a
//! Schur-complement block factor ([`StitchedPrecond`] — per-shard interior
//! back-substitution, a dense boundary solve, and a correction pass),
//! wrapped in the same [`SparsifierSnapshot`] the single-writer
//! [`crate::SnapshotEngine`] publishes. Readers, the solve layer,
//! perfbench, and persistence therefore work unchanged.
//!
//! # Determinism
//!
//! Everything is bit-for-bit identical at any `INGRASS_THREADS` width for
//! a fixed shard count: routing is a pure function of the hierarchy and
//! the edge list, shard batches are disjoint and land by shard index,
//! the boundary graph iterates in canonical `BTreeMap` order, and the
//! stitched factor's parallel stages place every result by index.

mod boundary;
mod routing;
mod stitch;

pub use boundary::BoundaryGraph;
pub use routing::ShardRouting;
pub use stitch::StitchedPrecond;

use crate::config::{DriftPolicy, SetupConfig, UpdateConfig};
use crate::engine::InGrassEngine;
use crate::error::InGrassError;
use crate::ledger::{validate_batch, ResetupReason, UpdateOp};
use crate::lrd::LrdHierarchy;
use crate::report::{PhaseTimer, UpdateReport};
use crate::snapshot::{
    PublishReport, SnapshotCell, SnapshotPrecond, SnapshotReader, SparsifierSnapshot,
};
use crate::Result;
use ingrass_graph::{DisjointSets, Graph, NodeId};
use ingrass_metrics::{LatencyHistogram, ShardStats};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of a [`ShardedEngine`]: how many shards to split the
/// hierarchy into and how wide to fan their batches out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Requested shard count (clamped to the node count at setup; the
    /// effective count is [`ShardedEngine::shards`]). Must be ≥ 1.
    pub shards: usize,
    /// Worker threads for per-shard batch application and stitched-factor
    /// builds; `None` uses the ambient `INGRASS_THREADS` width. Results
    /// are identical at any width.
    pub threads: Option<usize>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            threads: None,
        }
    }
}

impl ShardedConfig {
    /// Checks the configuration is inside its domain.
    ///
    /// # Errors
    /// [`InGrassError::InvalidConfig`] if `shards == 0` or
    /// `threads == Some(0)`.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(InGrassError::InvalidConfig(
                "shard count must be ≥ 1".to_string(),
            ));
        }
        if self.threads == Some(0) {
            return Err(InGrassError::InvalidConfig(
                "thread override must be ≥ 1 (use None for the ambient width)".to_string(),
            ));
        }
        Ok(())
    }

    /// Returns the configuration with [`ShardedConfig::shards`] replaced.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns the configuration with [`ShardedConfig::threads`] replaced.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }
}

/// What one [`ShardedEngine::apply_batch`] did: routing counts, the
/// coordinator's boundary-op outcomes, and each shard engine's own report.
#[derive(Debug, Clone)]
pub struct ShardedBatchReport {
    /// Operations in the batch.
    pub batch_size: usize,
    /// Operations routed to a shard engine (both endpoints on one shard).
    pub intra_ops: usize,
    /// Operations handled by the coordinator (endpoints on two shards).
    pub boundary_ops: usize,
    /// Cross-shard edges inserted into (or merged onto) the boundary graph.
    pub boundary_inserted: usize,
    /// Cross-shard edges deleted from the boundary graph.
    pub boundary_deleted: usize,
    /// Cross-shard edges reweighted in place.
    pub boundary_reweighted: usize,
    /// Boundary deletions that would have disconnected the shard quotient
    /// and were converted into re-link edges of weight `min(w, 1/R̂)`.
    pub boundary_relinked: usize,
    /// Boundary deletes/reweights of edges the boundary never carried.
    pub boundary_vacuous: usize,
    /// Per-shard engine reports, by shard index; `None` where the batch
    /// routed no operations.
    pub shard_reports: Vec<Option<UpdateReport>>,
    /// Whether this batch's drift crossed the policy on any shard (or the
    /// boundary) and triggered a global re-setup, and why.
    pub resetup: Option<ResetupReason>,
    /// Workers the parallel apply phase fanned out over:
    /// `min(threads, shards with work)`, and 1 when at most one shard
    /// received work (that batch runs on the calling thread).
    pub fence_width: usize,
    /// Wall-clock span of the parallel apply phase: fan-out to epoch
    /// fence, i.e. the slowest shard's apply on a multi-core host. Zero
    /// when the batch routed no intra-shard work.
    pub parallel_wall_s: f64,
    /// Batch wall time (includes the re-setup, when one triggered).
    pub elapsed: Duration,
}

/// A sharded multi-writer over the LRD hierarchy: `S` independent
/// [`InGrassEngine`]s behind one deterministic router, publishing
/// [`SparsifierSnapshot`]s stitched by a Schur-complement block factor.
///
/// The writer API mirrors [`crate::SnapshotEngine`]
/// ([`ShardedEngine::apply_batch`], [`ShardedEngine::resetup`]) with one
/// deliberate difference: publication is **explicit**
/// ([`ShardedEngine::publish`]). A stitched factor is always a full
/// rebuild (there is no incremental patch tier across shard boundaries),
/// so the coordinator lets callers batch many shard-parallel applies per
/// publish instead of paying a rebuild per batch.
///
/// # Example
///
/// ```
/// use ingrass::{SetupConfig, ShardedConfig, ShardedEngine, UpdateConfig, UpdateOp};
/// use ingrass_gen::{grid_2d, WeightModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h0 = grid_2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
/// let mut engine = ShardedEngine::setup(&h0, &SetupConfig::default(),
///     &ShardedConfig::default().with_shards(2))?;
/// let reader = engine.reader();
///
/// engine.apply_batch(
///     &[UpdateOp::Insert { u: 0, v: 9, weight: 0.5 }],
///     &UpdateConfig::default(),
/// )?;
/// let report = engine.publish()?;
/// assert!(report.shard.is_some());
/// assert_eq!(reader.current().sequence(), report.sequence);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    setup_cfg: SetupConfig,
    shard_cfg: ShardedConfig,
    /// The current epoch's global hierarchy (routing + resistance bounds
    /// for boundary re-links); rebuilt at every global re-setup.
    hierarchy: Arc<LrdHierarchy>,
    routing: ShardRouting,
    engines: Vec<InGrassEngine>,
    boundary: BoundaryGraph,
    cell: Arc<SnapshotCell>,
    sequence: u64,
    /// Coordinator epoch: global re-setups so far. Shard engines run with
    /// drift disabled, so their own epochs never move.
    epoch: u64,
    version: u64,
    instance_id: u64,
    updates_applied: usize,
    publishes_rebuilt: u64,
    boundary_relinks: u64,
    /// Boundary weight baseline of the epoch: the total at the last
    /// (re)setup plus everything inserted or re-linked since — the
    /// denominator of the boundary's deleted-weight drift fraction.
    boundary_epoch_weight: f64,
    boundary_deleted_weight: f64,
    per_shard_hist: Vec<LatencyHistogram>,
    /// One sample per batch with shard work: the fan-out→fence span.
    parallel_update: LatencyHistogram,
    per_shard_ops: Vec<u64>,
}

/// Reassembles the global sparsifier: every shard's sparsifier mapped
/// back to global ids, plus the boundary edges. Shard subgraphs and the
/// boundary partition the edge set, so no pair collides; iteration order
/// (shard index, then edge id, then canonical boundary order) is fixed.
fn assemble_graph(
    routing: &ShardRouting,
    engines: &[InGrassEngine],
    boundary: &BoundaryGraph,
) -> Result<Graph> {
    let n = routing.num_nodes();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for (sh, eng) in engines.iter().enumerate() {
        let globals = routing.global_of(sh);
        let sub = eng.sparsifier_graph();
        for e in sub.edges() {
            edges.push((
                globals[e.u.index()] as usize,
                globals[e.v.index()] as usize,
                e.weight,
            ));
        }
    }
    for (u, v, w) in boundary.iter() {
        edges.push((u as usize, v as usize, w));
    }
    Ok(Graph::from_edges(n, &edges)?)
}

/// Maps an op's endpoints through a local-id table, keeping the variant.
fn remap(op: UpdateOp, u: usize, v: usize) -> UpdateOp {
    match op {
        UpdateOp::Insert { weight, .. } => UpdateOp::Insert { u, v, weight },
        UpdateOp::Delete { .. } => UpdateOp::Delete { u, v },
        UpdateOp::Reweight { weight, .. } => UpdateOp::Reweight { u, v, weight },
    }
}

impl ShardedEngine {
    /// Builds the global hierarchy for `h0`, partitions it into shards,
    /// runs per-shard engine setup, and publishes the initial stitched
    /// snapshot (sequence 1).
    ///
    /// Each shard engine runs on the shard's induced subgraph with a seed
    /// derived from `cfg.seed` and its shard index, and with drift
    /// disabled — the coordinator owns the drift policy, because a shard
    /// re-setup would rebuild a hierarchy the router no longer matches.
    ///
    /// # Errors
    /// As for [`crate::InGrassEngine::setup`] (disconnected or empty
    /// input, invalid configuration), plus [`ShardedConfig::validate`].
    pub fn setup(h0: &Graph, cfg: &SetupConfig, shard_cfg: &ShardedConfig) -> Result<Self> {
        shard_cfg.validate()?;
        let edge_resistance = InGrassEngine::estimate_edge_resistances(h0, cfg)?;
        let hierarchy = Arc::new(LrdHierarchy::build(
            h0,
            &edge_resistance,
            cfg.initial_diameter,
            cfg.diameter_growth,
            cfg.max_levels,
        )?);
        let routing = ShardRouting::build(&hierarchy, h0, shard_cfg.shards);
        let (engines, boundary) = Self::split(h0, &routing, cfg)?;
        let s = routing.shards();
        let instance_id = crate::engine::next_instance_id();
        let boundary_epoch_weight = boundary.total_weight();
        let threads = shard_cfg
            .threads
            .unwrap_or_else(ingrass_par::num_threads)
            .max(1);
        let snap = build_snapshot(
            instance_id,
            0,
            0,
            1,
            &routing,
            &engines,
            &boundary,
            &hierarchy,
            threads,
        )?;
        Ok(ShardedEngine {
            setup_cfg: cfg.clone(),
            shard_cfg: *shard_cfg,
            hierarchy,
            routing,
            engines,
            boundary,
            cell: Arc::new(SnapshotCell::new(Arc::new(snap))),
            sequence: 1,
            epoch: 0,
            version: 0,
            instance_id,
            updates_applied: 0,
            publishes_rebuilt: 1,
            boundary_relinks: 0,
            boundary_epoch_weight,
            boundary_deleted_weight: 0.0,
            per_shard_hist: vec![LatencyHistogram::new(); s],
            parallel_update: LatencyHistogram::new(),
            per_shard_ops: vec![0; s],
        })
    }

    /// Splits `g` along the routing table: intra-shard edges become each
    /// shard's induced subgraph (local ids), cross-shard edges the
    /// boundary graph. Runs per-shard engine setup.
    fn split(
        g: &Graph,
        routing: &ShardRouting,
        cfg: &SetupConfig,
    ) -> Result<(Vec<InGrassEngine>, BoundaryGraph)> {
        let s = routing.shards();
        let mut per: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); s];
        let mut boundary = BoundaryGraph::new();
        for e in g.edges() {
            let (u, v) = (e.u.index(), e.v.index());
            let (su, sv) = (routing.shard_of(u), routing.shard_of(v));
            if su == sv {
                per[su].push((routing.local_of(u), routing.local_of(v), e.weight));
            } else {
                boundary.insert(u, v, e.weight);
            }
        }
        let mut engines = Vec::with_capacity(s);
        for (sh, edges) in per.iter().enumerate() {
            let sub = Graph::from_edges(routing.global_of(sh).len(), edges)?;
            let shard_cfg = cfg
                .clone()
                .with_seed(ingrass_par::derive_seed(cfg.seed, sh as u64))
                .with_drift(DriftPolicy::never());
            engines.push(InGrassEngine::setup(&sub, &shard_cfg)?);
        }
        Ok((engines, boundary))
    }

    /// Applies one update batch through the epoch-fenced commit protocol
    /// (see the module docs): validates it atomically, partitions it into
    /// per-shard op lists and a boundary list, maps the non-empty shard
    /// batches over `ingrass-par` workers (on the calling thread at width
    /// 1 or when one shard has work), joins at the epoch fence, then
    /// commits — merging per-shard reports in ascending
    /// shard-index order, applying the cross-shard boundary ops
    /// single-threaded *after* the fence, and consulting the drift policy
    /// across the merged state — a trip re-runs the *global* setup (fresh
    /// hierarchy, fresh routing, fresh shard engines) before this call
    /// returns, so every shard crosses the same epoch boundary.
    ///
    /// The outcome is bit-identical at any worker width for a fixed shard
    /// count: shard batches are disjoint, each shard's RNG stream was
    /// derived from its index at setup, results land by shard index at
    /// the fence, and boundary ops touch an edge set no shard engine
    /// carries.
    ///
    /// The published snapshot does **not** move; call
    /// [`ShardedEngine::publish`] when readers should see the new state.
    ///
    /// # Errors
    /// As for [`crate::validate_batch`]: invalid config or an op
    /// referencing an unknown node, a self-loop, or a weight that is not
    /// finite and positive. The batch is validated up front, so no shard
    /// engine mutates on invalid input; a shard error surfacing at the
    /// fence (unreachable while every shard engine runs the same check)
    /// propagates from the lowest shard index before the commit step
    /// touches any coordinator state.
    ///
    /// # Panics
    /// Re-raises a panic from a shard's apply once every worker has
    /// joined. The coordinator's state has not moved then, but shard
    /// engines whose apply completed keep their new state.
    pub fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        cfg: &UpdateConfig,
    ) -> Result<ShardedBatchReport> {
        let timer = PhaseTimer::start();
        validate_batch(ops, cfg, self.routing.num_nodes())?;

        let s = self.routing.shards();
        let mut shard_batches: Vec<Vec<UpdateOp>> = vec![Vec::new(); s];
        let mut boundary_ops: Vec<UpdateOp> = Vec::new();
        for &op in ops {
            let (u, v) = op.endpoints();
            let (su, sv) = (self.routing.shard_of(u), self.routing.shard_of(v));
            if su == sv {
                shard_batches[su].push(remap(
                    op,
                    self.routing.local_of(u),
                    self.routing.local_of(v),
                ));
            } else {
                boundary_ops.push(op);
            }
        }

        let mut report = ShardedBatchReport {
            batch_size: ops.len(),
            intra_ops: ops.len() - boundary_ops.len(),
            boundary_ops: boundary_ops.len(),
            boundary_inserted: 0,
            boundary_deleted: 0,
            boundary_reweighted: 0,
            boundary_relinked: 0,
            boundary_vacuous: 0,
            shard_reports: vec![None; s],
            resetup: None,
            fence_width: 1,
            parallel_wall_s: 0.0,
            elapsed: Duration::ZERO,
        };

        // ---- Parallel apply: the shards that received work are mapped
        // over `ingrass-par` workers, each engine lent to exactly one
        // worker, and the results come back in ascending shard order
        // whatever the scheduling, so any width yields identical state.
        // Shard engines never touch the boundary graph or each other, so
        // the workers share nothing. At width 1, or with one shard's
        // work, the map runs on the calling thread.
        let threads = self.threads();
        let mut work: Vec<(usize, &mut InGrassEngine, Vec<UpdateOp>)> = self
            .engines
            .iter_mut()
            .zip(shard_batches)
            .enumerate()
            .filter(|(_, (_, batch))| !batch.is_empty())
            .map(|(sh, (eng, batch))| (sh, eng, batch))
            .collect();
        report.fence_width = threads.min(work.len()).max(1);
        let fence_timer = PhaseTimer::start();
        let applied = ingrass_par::par_map_mut_with(threads, &mut work, |(sh, eng, batch)| {
            let shard_timer = PhaseTimer::start();
            eng.apply_batch(batch, cfg)
                .map(|rep| (*sh, rep, shard_timer.total().as_secs_f64()))
        });
        let fence_wall_s = fence_timer.total().as_secs_f64();

        // ---- Epoch fence: every worker has joined, and a worker's panic
        // has been re-raised. An error (unreachable while every shard
        // engine runs the same `validate_batch` as above) propagates from
        // the lowest shard index before the commit step below touches any
        // coordinator state — the boundary graph, the op counters, and
        // the drift ledgers stay put.
        let applied = applied.into_iter().collect::<Result<Vec<_>>>()?;

        // ---- Commit: record the merged reports and walls, apply the
        // cross-shard boundary ops single-threaded (they touch an edge
        // set no shard engine carries, so applying them after the fence
        // leaves the final state identical to any interleaving), then
        // take the drift decision from the merged post-fence state.
        if !applied.is_empty() {
            report.parallel_wall_s = fence_wall_s;
            self.parallel_update.record(fence_wall_s);
        }
        for (sh, rep, wall) in applied {
            self.per_shard_hist[sh].record(wall);
            self.per_shard_ops[sh] += rep.batch_size as u64;
            report.shard_reports[sh] = Some(rep);
        }
        for op in &boundary_ops {
            self.apply_boundary_op(*op, &mut report);
        }

        self.updates_applied += ops.len();
        if !ops.is_empty() {
            self.version += 1;
        }

        if let Some(reason) = self.drift_tripped() {
            self.resetup()?;
            report.resetup = Some(reason);
        }
        report.elapsed = timer.total();
        Ok(report)
    }

    /// Applies one cross-shard op to the boundary graph, converting a
    /// quotient-disconnecting deletion into a re-link of weight
    /// `min(w, 1/R̂(u,v))` — the same alternative-path conductance bound
    /// the shard engines use for bridge deletions.
    fn apply_boundary_op(&mut self, op: UpdateOp, report: &mut ShardedBatchReport) {
        match op {
            UpdateOp::Insert { u, v, weight } => {
                self.boundary.insert(u, v, weight);
                self.boundary_epoch_weight += weight;
                report.boundary_inserted += 1;
            }
            UpdateOp::Delete { u, v } => match self.boundary.remove(u, v) {
                Some(w) => {
                    self.boundary_deleted_weight += w;
                    report.boundary_deleted += 1;
                    if !self.quotient_connected() {
                        let r = self
                            .hierarchy
                            .resistance_bound(NodeId::new(u), NodeId::new(v));
                        let alt = if r.is_finite() && r > 0.0 { 1.0 / r } else { w };
                        let relink = w.min(alt).max(f64::MIN_POSITIVE);
                        self.boundary.insert(u, v, relink);
                        self.boundary_epoch_weight += relink;
                        self.boundary_relinks += 1;
                        report.boundary_relinked += 1;
                    }
                }
                None => report.boundary_vacuous += 1,
            },
            UpdateOp::Reweight { u, v, weight } => {
                if self.boundary.set_weight(u, v, weight) {
                    report.boundary_reweighted += 1;
                } else {
                    report.boundary_vacuous += 1;
                }
            }
        }
    }

    /// Whether the shard quotient (shards as supernodes, boundary edges
    /// between them) is connected — the invariant that keeps the
    /// assembled sparsifier connected, given each shard engine keeps its
    /// own subgraph connected.
    fn quotient_connected(&self) -> bool {
        let s = self.routing.shards();
        if s <= 1 {
            return true;
        }
        let mut ds = DisjointSets::new(s);
        for (u, v, _) in self.boundary.iter() {
            ds.union(
                self.routing.shard_of(u as usize),
                self.routing.shard_of(v as usize),
            );
        }
        ds.num_sets() == 1
    }

    /// Coordinator drift check: any shard ledger over the user's policy,
    /// or the boundary's own deleted-weight fraction over the same knob.
    fn drift_tripped(&self) -> Option<ResetupReason> {
        let policy = &self.setup_cfg.drift;
        if !policy.auto_resetup {
            return None;
        }
        if self.boundary_epoch_weight > 0.0
            && self.boundary_deleted_weight / self.boundary_epoch_weight
                > policy.max_deleted_weight_fraction
        {
            return Some(ResetupReason::DeletedWeight);
        }
        self.engines
            .iter()
            .find_map(|eng| eng.ledger().should_resetup(policy))
    }

    /// Re-runs the global setup on the assembled sparsifier: fresh
    /// resistance estimates, hierarchy, routing table, shard engines, and
    /// boundary graph. Bumps the coordinator epoch (readers keep serving
    /// the previous epoch's snapshot until the next
    /// [`ShardedEngine::publish`]).
    ///
    /// # Errors
    /// As for [`crate::InGrassEngine::setup`] on the assembled graph.
    pub fn resetup(&mut self) -> Result<()> {
        let graph = assemble_graph(&self.routing, &self.engines, &self.boundary)?;
        let edge_resistance = InGrassEngine::estimate_edge_resistances(&graph, &self.setup_cfg)?;
        let hierarchy = Arc::new(LrdHierarchy::build(
            &graph,
            &edge_resistance,
            self.setup_cfg.initial_diameter,
            self.setup_cfg.diameter_growth,
            self.setup_cfg.max_levels,
        )?);
        let routing = ShardRouting::build(&hierarchy, &graph, self.shard_cfg.shards);
        let (engines, boundary) = Self::split(&graph, &routing, &self.setup_cfg)?;
        self.hierarchy = hierarchy;
        self.routing = routing;
        self.engines = engines;
        self.boundary_epoch_weight = boundary.total_weight();
        self.boundary_deleted_weight = 0.0;
        self.boundary = boundary;
        self.epoch += 1;
        self.version += 1;
        Ok(())
    }

    /// Stitches the current per-shard state into a fresh
    /// [`SparsifierSnapshot`] and swaps it in as the current one. Always a
    /// full rebuild (interior factors + boundary Schur complement); the
    /// report carries the merged [`ShardStats`] in
    /// [`PublishReport::shard`].
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] if an interior block or the
    /// boundary Schur complement is not SPD — cannot happen while the
    /// shard-connectivity and quotient-connectivity invariants hold.
    pub fn publish(&mut self) -> Result<PublishReport> {
        let timer = PhaseTimer::start();
        let snap = Arc::new(build_snapshot(
            self.instance_id,
            self.epoch,
            self.version,
            self.sequence + 1,
            &self.routing,
            &self.engines,
            &self.boundary,
            &self.hierarchy,
            self.threads(),
        )?);
        self.sequence += 1;
        self.publishes_rebuilt += 1;
        let report = PublishReport {
            epoch: snap.epoch(),
            version: snap.version(),
            sequence: snap.sequence(),
            publish_seconds: timer.total().as_secs_f64(),
            factor_nnz: snap.preconditioner().factor_nnz(),
            factor_flops: snap.preconditioner().factor_flops(),
            edges: snap.resistance_summary().edges,
            factor_updated: false,
            factor_updates: 0,
            factor_refactors: self.publishes_rebuilt,
            shard: Some(self.shard_stats()),
        };
        self.cell.store(snap);
        Ok(report)
    }

    /// A new reader subscription — the same handle type
    /// [`crate::SnapshotEngine::reader`] hands out, so the solve service
    /// and perfbench consume sharded snapshots unchanged.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::from_cell(Arc::clone(&self.cell))
    }

    /// The most recently published snapshot.
    pub fn snapshot(&self) -> Arc<SparsifierSnapshot> {
        self.cell.load()
    }

    /// The assembled global sparsifier: every shard's sparsifier mapped
    /// to global ids, plus the boundary edges.
    ///
    /// # Errors
    /// Graph assembly failure (cannot happen while routing invariants
    /// hold — the edge partitions are disjoint and in bounds).
    pub fn assembled_graph(&self) -> Result<Graph> {
        assemble_graph(&self.routing, &self.engines, &self.boundary)
    }

    /// Merged per-shard work statistics since setup (or restore).
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats::from_shards(
            &self.per_shard_hist,
            &self.parallel_update,
            &self.per_shard_ops,
            self.boundary.len(),
            self.boundary.node_count(),
        )
    }

    /// Effective shard count (after clamping to the node count).
    pub fn shards(&self) -> usize {
        self.routing.shards()
    }

    /// The routing table in effect (rebuilt at every re-setup).
    pub fn routing(&self) -> &ShardRouting {
        &self.routing
    }

    /// The cross-shard boundary graph.
    pub fn boundary(&self) -> &BoundaryGraph {
        &self.boundary
    }

    /// The current epoch's global LRD hierarchy.
    pub fn hierarchy(&self) -> &LrdHierarchy {
        &self.hierarchy
    }

    /// Nodes in the routed graph.
    pub fn num_nodes(&self) -> usize {
        self.routing.num_nodes()
    }

    /// Coordinator epoch: global re-setups so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Monotone state version (bumps per non-empty batch and re-setup).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique coordinator identity (same namespace as
    /// [`crate::InGrassEngine::instance_id`]).
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Snapshots published so far (including the one from setup).
    pub fn publishes(&self) -> u64 {
        self.sequence
    }

    /// Operations routed through [`ShardedEngine::apply_batch`] so far.
    pub fn updates_applied(&self) -> usize {
        self.updates_applied
    }

    /// Boundary deletions converted into re-link edges so far.
    pub fn boundary_relinks(&self) -> u64 {
        self.boundary_relinks
    }

    fn threads(&self) -> usize {
        self.shard_cfg
            .threads
            .unwrap_or_else(ingrass_par::num_threads)
            .max(1)
    }

    /// Exports the coordinator's complete state for persistence: every
    /// shard engine, the routing assignment, the boundary edge list, the
    /// global hierarchy, and the drift counters.
    /// [`ShardedEngine::from_state`] is its inverse. Per-shard latency
    /// histograms are process-local measurements and restart empty, and
    /// each shard's setup timings export as zero
    /// ([`crate::InGrassEngine::export_state`]).
    pub fn export_state(&self) -> crate::state::ShardedState {
        crate::state::ShardedState {
            shards: self.engines.iter().map(|e| e.export_state()).collect(),
            shard_of: self.routing.shard_of_slice().to_vec(),
            routing_level: self.routing.level(),
            boundary_edges: self.boundary.to_edges(),
            levels: self.hierarchy.levels().to_vec(),
            setup_cfg: self.setup_cfg.clone(),
            shard_count: self.shard_cfg.shards,
            threads: self.shard_cfg.threads,
            sequence: self.sequence,
            epoch: self.epoch,
            version: self.version,
            updates_applied: self.updates_applied,
            boundary_relinks: self.boundary_relinks,
            boundary_epoch_weight: self.boundary_epoch_weight,
            boundary_deleted_weight: self.boundary_deleted_weight,
            per_shard_ops: self.per_shard_ops.clone(),
        }
    }

    /// Restores a sharded engine from persisted state and republishes the
    /// restored view as the current snapshot (at the *restored* sequence
    /// number — restoring is not a publish).
    ///
    /// # Errors
    /// [`InGrassError::InvalidConfig`] / [`InGrassError::BadSparsifier`]
    /// if any shard state fails validation or the routing, hierarchy, and
    /// shard shapes disagree.
    pub fn from_state(state: crate::state::ShardedState) -> Result<Self> {
        let s = state.shards.len();
        if s == 0 {
            return Err(InGrassError::InvalidConfig(
                "sharded state carries no shard engines".to_string(),
            ));
        }
        if state.per_shard_ops.len() != s {
            return Err(InGrassError::InvalidConfig(format!(
                "per-shard op counters cover {} shards, state has {}",
                state.per_shard_ops.len(),
                s
            )));
        }
        let shard_cfg = ShardedConfig {
            shards: state.shard_count,
            threads: state.threads,
        };
        shard_cfg.validate()?;
        let hierarchy = Arc::new(LrdHierarchy::from_levels(state.levels)?);
        if hierarchy.num_nodes() != state.shard_of.len() {
            return Err(InGrassError::InvalidConfig(format!(
                "hierarchy labels {} nodes, routing covers {}",
                hierarchy.num_nodes(),
                state.shard_of.len()
            )));
        }
        if let Some(&bad) = state.shard_of.iter().find(|&&sh| sh as usize >= s) {
            return Err(InGrassError::InvalidConfig(format!(
                "routing references shard {bad}, state has {s}"
            )));
        }
        let routing = ShardRouting::from_shard_of(state.shard_of, s, state.routing_level);
        let mut engines = Vec::with_capacity(s);
        for (sh, eng_state) in state.shards.into_iter().enumerate() {
            let eng = InGrassEngine::from_state(eng_state)?;
            if eng.sparsifier().num_nodes() != routing.global_of(sh).len() {
                return Err(InGrassError::InvalidConfig(format!(
                    "shard {sh} engine covers {} nodes, routing assigns {}",
                    eng.sparsifier().num_nodes(),
                    routing.global_of(sh).len()
                )));
            }
            engines.push(eng);
        }
        let n = routing.num_nodes();
        for &(u, v, _) in &state.boundary_edges {
            if u as usize >= n || v as usize >= n {
                return Err(InGrassError::InvalidConfig(format!(
                    "boundary edge ({u},{v}) out of bounds for {n} nodes"
                )));
            }
            if routing.shard_of(u as usize) == routing.shard_of(v as usize) {
                return Err(InGrassError::InvalidConfig(format!(
                    "boundary edge ({u},{v}) joins two nodes of shard {}",
                    routing.shard_of(u as usize)
                )));
            }
        }
        let boundary = BoundaryGraph::from_edges(&state.boundary_edges);
        let threads = state
            .threads
            .unwrap_or_else(ingrass_par::num_threads)
            .max(1);
        let instance_id = crate::engine::next_instance_id();
        let snap = build_snapshot(
            instance_id,
            state.epoch,
            state.version,
            state.sequence,
            &routing,
            &engines,
            &boundary,
            &hierarchy,
            threads,
        )?;
        Ok(ShardedEngine {
            setup_cfg: state.setup_cfg,
            shard_cfg,
            hierarchy,
            routing,
            engines,
            boundary,
            cell: Arc::new(SnapshotCell::new(Arc::new(snap))),
            sequence: state.sequence,
            epoch: state.epoch,
            version: state.version,
            instance_id,
            updates_applied: state.updates_applied,
            publishes_rebuilt: state.sequence,
            boundary_relinks: state.boundary_relinks,
            boundary_epoch_weight: state.boundary_epoch_weight,
            boundary_deleted_weight: state.boundary_deleted_weight,
            per_shard_hist: vec![LatencyHistogram::new(); s],
            parallel_update: LatencyHistogram::new(),
            per_shard_ops: state.per_shard_ops,
        })
    }
}

/// Builds a stitched snapshot from coordinator parts (free function so
/// setup/restore can call it before the struct exists).
#[allow(clippy::too_many_arguments)]
fn build_snapshot(
    instance_id: u64,
    epoch: u64,
    version: u64,
    sequence: u64,
    routing: &ShardRouting,
    engines: &[InGrassEngine],
    boundary: &BoundaryGraph,
    hierarchy: &Arc<LrdHierarchy>,
    threads: usize,
) -> Result<SparsifierSnapshot> {
    let graph = assemble_graph(routing, engines, boundary)?;
    let stitched = StitchedPrecond::build(
        &graph,
        routing.shard_of_slice(),
        routing.shards(),
        epoch,
        threads,
    )?;
    SparsifierSnapshot::assemble(
        instance_id,
        epoch,
        version,
        sequence,
        graph,
        SnapshotPrecond::Sharded(stitched),
        Arc::clone(hierarchy),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingrass_gen::{grid_2d, WeightModel};
    use ingrass_linalg::Preconditioner;

    fn fixture(side: usize, seed: u64) -> Graph {
        grid_2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed)
    }

    fn engine(side: usize, shards: usize) -> ShardedEngine {
        ShardedEngine::setup(
            &fixture(side, 1),
            &SetupConfig::default(),
            &ShardedConfig::default().with_shards(shards),
        )
        .unwrap()
    }

    fn edge_set(g: &Graph) -> Vec<(usize, usize, u64)> {
        let mut out: Vec<(usize, usize, u64)> = g
            .edges()
            .iter()
            .map(|e| {
                let (u, v) = (e.u.index(), e.v.index());
                let (u, v) = if u < v { (u, v) } else { (v, u) };
                (u, v, e.weight.to_bits())
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn setup_partitions_without_losing_edges() {
        let h0 = fixture(10, 1);
        let eng = ShardedEngine::setup(
            &h0,
            &SetupConfig::default(),
            &ShardedConfig::default().with_shards(4),
        )
        .unwrap();
        assert_eq!(eng.shards(), 4);
        assert_eq!(edge_set(&eng.assembled_graph().unwrap()), edge_set(&h0));
        assert!(!eng.boundary().is_empty());
        let snap = eng.snapshot();
        assert_eq!(snap.sequence(), 1);
        assert!(snap.verify_checksum());
    }

    #[test]
    fn snapshot_solves_its_own_laplacian_exactly() {
        let eng = engine(8, 3);
        let snap = eng.snapshot();
        let n = snap.num_nodes();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut z = vec![0.0; n];
        snap.preconditioner().apply(&r, &mut z);
        let mut lz = vec![0.0; n];
        snap.laplacian().matvec(&z, &mut lz);
        for i in 1..n {
            assert!(
                (lz[i] - (r[i] - r[0])).abs() < 1e-7 || (lz[i] - r[i]).abs() < 1e-7,
                "residual at {i}: Lz={} r={}",
                lz[i],
                r[i]
            );
        }
        // Exact effective resistance of a self pair is zero.
        assert_eq!(
            snap.effective_resistance(NodeId::new(3), NodeId::new(3)),
            0.0
        );
    }

    #[test]
    fn batches_route_to_shards_and_boundary() {
        let mut eng = engine(8, 2);
        // Find an intra-shard and a cross-shard non-edge pair.
        let routing = eng.routing().clone();
        let n = routing.num_nodes();
        let mut intra = None;
        let mut cross = None;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                let same = routing.shard_of(u) == routing.shard_of(v);
                if same && intra.is_none() {
                    intra = Some((u, v));
                } else if !same && cross.is_none() {
                    cross = Some((u, v));
                }
                if intra.is_some() && cross.is_some() {
                    break 'outer;
                }
            }
        }
        let (iu, iv) = intra.unwrap();
        let (cu, cv) = cross.unwrap();
        let before_boundary = eng.boundary().len();
        let report = eng
            .apply_batch(
                &[
                    UpdateOp::Insert {
                        u: iu,
                        v: iv,
                        weight: 0.5,
                    },
                    UpdateOp::Insert {
                        u: cu,
                        v: cv,
                        weight: 0.25,
                    },
                ],
                &UpdateConfig::default(),
            )
            .unwrap();
        assert_eq!(report.intra_ops, 1);
        assert_eq!(report.boundary_ops, 1);
        assert_eq!(report.boundary_inserted, 1);
        let owner = routing.shard_of(iu);
        assert_eq!(report.shard_reports[owner].as_ref().unwrap().batch_size, 1);
        assert!(eng.boundary().len() >= before_boundary);
        assert_eq!(eng.version(), 1);

        // Publish is explicit: the reader still sees sequence 1 until then.
        let reader = eng.reader();
        assert_eq!(reader.current().sequence(), 1);
        let pub_report = eng.publish().unwrap();
        assert_eq!(pub_report.sequence, 2);
        let stats = pub_report.shard.unwrap();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.total_shard_ops, 1);
        assert_eq!(reader.current().sequence(), 2);
        assert!(reader.current().verify_checksum());
    }

    #[test]
    fn boundary_bridge_delete_relinks() {
        let mut eng = engine(8, 2);
        // Delete every boundary edge; the last removal must re-link to
        // keep the shard quotient connected.
        let edges: Vec<(u32, u32, f64)> = eng.boundary().to_edges();
        assert!(!edges.is_empty());
        let ops: Vec<UpdateOp> = edges
            .iter()
            .map(|&(u, v, _)| UpdateOp::Delete {
                u: u as usize,
                v: v as usize,
            })
            .collect();
        // Drift would legitimately trip on this much deleted weight; keep
        // the routing stable for the assertion below.
        let mut cfg = eng.setup_cfg.clone();
        cfg.drift = DriftPolicy::never();
        eng.setup_cfg = cfg;
        let report = eng.apply_batch(&ops, &UpdateConfig::default()).unwrap();
        assert!(report.boundary_relinked >= 1, "{report:?}");
        assert!(eng.quotient_connected());
        eng.publish().unwrap();
        assert!(eng.snapshot().verify_checksum());
    }

    #[test]
    fn forced_resetup_bumps_epoch_and_rebuilds_routing() {
        let mut eng = engine(8, 3);
        let v0 = eng.version();
        eng.resetup().unwrap();
        assert_eq!(eng.epoch(), 1);
        assert_eq!(eng.version(), v0 + 1);
        let report = eng.publish().unwrap();
        assert_eq!(report.epoch, 1);
        assert!(eng.snapshot().verify_checksum());
    }

    #[test]
    fn state_round_trips_bit_exactly() {
        let mut eng = engine(8, 3);
        eng.apply_batch(
            &[
                UpdateOp::Insert {
                    u: 0,
                    v: 63,
                    weight: 0.4,
                },
                UpdateOp::Insert {
                    u: 5,
                    v: 40,
                    weight: 1.1,
                },
                UpdateOp::Delete { u: 0, v: 1 },
            ],
            &UpdateConfig::default(),
        )
        .unwrap();
        eng.publish().unwrap();
        let restored = ShardedEngine::from_state(eng.export_state()).unwrap();
        assert_eq!(restored.snapshot().checksum(), {
            // Restored checksum differs only through instance_id, which is
            // process-unique by design; compare the structural parts.
            let a = eng.snapshot();
            let b = restored.snapshot();
            assert_eq!(a.epoch(), b.epoch());
            assert_eq!(a.version(), b.version());
            assert_eq!(a.sequence(), b.sequence());
            assert_eq!(edge_set(a.graph()), edge_set(b.graph()));
            b.checksum()
        });
        // And the two engines evolve identically from here.
        let ops = [
            UpdateOp::Insert {
                u: 2,
                v: 61,
                weight: 0.7,
            },
            UpdateOp::Reweight {
                u: 5,
                v: 40,
                weight: 0.9,
            },
        ];
        let mut a = eng;
        let mut b = restored;
        a.apply_batch(&ops, &UpdateConfig::default()).unwrap();
        b.apply_batch(&ops, &UpdateConfig::default()).unwrap();
        a.publish().unwrap();
        b.publish().unwrap();
        assert_eq!(
            edge_set(a.snapshot().graph()),
            edge_set(b.snapshot().graph())
        );
    }

    #[test]
    fn fence_reports_parallel_phase_and_skips_boundary_only_batches() {
        let mut eng = ShardedEngine::setup(
            &fixture(8, 1),
            &SetupConfig::default(),
            &ShardedConfig::default()
                .with_shards(2)
                .with_threads(Some(4)),
        )
        .unwrap();
        let routing = eng.routing().clone();
        let n = routing.num_nodes();
        // One intra-shard pair per shard, and one cross-shard pair.
        let mut intra = [None, None];
        let mut cross = None;
        for u in 0..n {
            for v in (u + 1)..n {
                let su = routing.shard_of(u);
                if su == routing.shard_of(v) {
                    intra[su].get_or_insert((u, v));
                } else {
                    cross.get_or_insert((u, v));
                }
            }
        }
        let insert = |(u, v): (usize, usize), weight| UpdateOp::Insert { u, v, weight };
        let (intra0, intra1) = (intra[0].unwrap(), intra[1].unwrap());
        let (cu, cv) = cross.unwrap();

        // A batch that reaches one shard runs its apply on the calling
        // thread: width 1, but the span is still recorded.
        let report = eng
            .apply_batch(&[insert(intra0, 0.5)], &UpdateConfig::default())
            .unwrap();
        assert_eq!(report.fence_width, 1, "one shard with work runs inline");
        assert!(report.parallel_wall_s > 0.0);
        assert_eq!(eng.shard_stats().parallel_update.count(), 1);

        // A batch that reaches both shards fans out: the fence width
        // clamps to the shards with work, and the span is recorded once.
        let report = eng
            .apply_batch(
                &[insert(intra0, 0.75), insert(intra1, 0.5)],
                &UpdateConfig::default(),
            )
            .unwrap();
        assert_eq!(
            report.fence_width, 2,
            "width = min(threads, shards with work)"
        );
        assert!(report.parallel_wall_s > 0.0);
        assert!(report.shard_reports.iter().all(Option::is_some));
        assert_eq!(eng.shard_stats().parallel_update.count(), 2);
        let span = eng.shard_stats().parallel_update.total_seconds();
        assert!(span >= report.parallel_wall_s);

        // A boundary-only batch commits without a parallel phase: no
        // fence span is recorded and the wall reads zero.
        let report = eng
            .apply_batch(
                &[UpdateOp::Insert {
                    u: cu,
                    v: cv,
                    weight: 0.25,
                }],
                &UpdateConfig::default(),
            )
            .unwrap();
        assert_eq!(report.intra_ops, 0);
        assert_eq!(report.fence_width, 1);
        assert_eq!(report.parallel_wall_s, 0.0);
        assert_eq!(eng.shard_stats().parallel_update.count(), 2);
        assert!(report.shard_reports.iter().all(Option::is_none));
    }

    #[test]
    fn invalid_ops_leave_every_shard_untouched() {
        let mut eng = engine(6, 2);
        let v0 = eng.version();
        let err = eng.apply_batch(
            &[
                UpdateOp::Insert {
                    u: 0,
                    v: 5,
                    weight: 1.0,
                },
                UpdateOp::Insert {
                    u: 0,
                    v: 99_999,
                    weight: 1.0,
                },
            ],
            &UpdateConfig::default(),
        );
        assert!(err.is_err());
        assert_eq!(eng.version(), v0);
        assert_eq!(eng.updates_applied(), 0);
    }
}
