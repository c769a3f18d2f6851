//! The incremental sparsification engine (setup + update phases).

use crate::config::{SetupConfig, UpdateConfig};
use crate::connectivity::ClusterConnectivity;
use crate::error::InGrassError;
use crate::ledger::{validate_batch, UpdateLedger, UpdateOp};
use crate::lrd::LrdHierarchy;
use crate::report::{EdgeOutcome, PhaseTimer, SetupReport, UpdateReport};
use crate::Result;
use ingrass_graph::{is_connected, DynGraph, Graph, NodeId};
use ingrass_resistance::{KrylovConfig, KrylovEmbedder, ResistanceEstimator};

/// The setup-phase artifacts rebuilt at every (re)setup.
struct SetupArtifacts {
    hierarchy: LrdHierarchy,
    connectivity: ClusterConnectivity,
    h: DynGraph,
    report: SetupReport,
}

/// The inGRASS engine: owns the sparsifier `H` and the setup-phase
/// artifacts (LRD hierarchy + cluster connectivity), and applies streamed
/// update operations in `O(log N)` per insertion. Deletions additionally
/// run a bidirectional connectivity probe that stops as soon as an
/// alternative path between the endpoints is found — local (a few hops)
/// for the typical non-bridge deletion, `O(N + M)` worst case only when
/// the deleted edge really is a bridge (which then triggers a re-link).
///
/// All mutations flow through [`InGrassEngine::apply_batch`] as
/// [`UpdateOp`]s (insertions, deletions, reweights); every operation is
/// recorded in the [`UpdateLedger`], whose drift tracker re-runs the setup
/// phase automatically once the configured [`crate::DriftPolicy`] is
/// exceeded. [`InGrassEngine::insert_batch`] remains as a thin
/// insert-only compatibility wrapper.
///
/// See the [crate-level documentation](crate) for the full algorithm and a
/// quickstart; paper: Algorithm 1.
#[derive(Debug)]
pub struct InGrassEngine {
    hierarchy: LrdHierarchy,
    connectivity: ClusterConnectivity,
    h: DynGraph,
    /// Per-edge *merged surplus*: the part of an edge's weight that was
    /// absorbed from other logical edges (merge/redistribute outcomes),
    /// indexed by edge id. Deleting an edge only removes its own original
    /// weight — the surplus belongs to graph edges that still exist, so the
    /// deletion path re-injects it through the filter instead of dropping
    /// it. Reset at every (re)setup epoch (ids are compacted).
    surplus: Vec<f64>,
    /// Scratch for the deletion path's connectivity probe: per-node visit
    /// stamps (two fresh marks per probe), reused so a probe allocates no
    /// `O(n)` buffer.
    probe_mark: Vec<u64>,
    probe_epoch: u64,
    setup_report: SetupReport,
    setup_cfg: SetupConfig,
    /// Journal of sparsifier edge-weight changes `(u, v, Δw)` since the
    /// last drain (or re-setup). These are the *actual* mutations of `h` —
    /// after merge/redistribute/relink/surplus transformations — so a
    /// cached Cholesky factor of `L_H` can be patched with one rank-1
    /// update per entry instead of refactorizing
    /// (`SparsifierPrecond::apply_edge_deltas`). Compacted in
    /// place when it outgrows the sparsifier; cleared by a re-setup, which
    /// invalidates factors wholesale via the epoch.
    deltas: Vec<(u32, u32, f64)>,
    ledger: UpdateLedger,
    updates_applied: usize,
    version: u64,
    instance_id: u64,
}

/// Process-wide counter backing [`InGrassEngine::instance_id`].
static ENGINE_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Allocates a fresh process-unique identity from the same counter the
/// engines use, so sharded coordinators and single engines share one id
/// space (external caches key on `(instance_id, epoch)` and must never
/// collide across the two kinds).
pub(crate) fn next_instance_id() -> u64 {
    ENGINE_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl InGrassEngine {
    /// Runs the one-time setup phase on the initial sparsifier `h0`.
    ///
    /// Steps (paper Algorithm 1, lines 1–3): estimate the effective
    /// resistance of every sparsifier edge, build the multilevel LRD
    /// decomposition, and index cluster connectivity at every level.
    ///
    /// The configuration is retained: its [`crate::DriftPolicy`] governs
    /// when churn triggers an automatic re-setup over the same pipeline.
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] if `h0` is empty or disconnected;
    /// [`InGrassError::InvalidConfig`] for bad configuration values.
    pub fn setup(h0: &Graph, cfg: &SetupConfig) -> Result<Self> {
        let built = Self::build_artifacts(h0, cfg)?;
        let ledger = UpdateLedger::new(built.h.total_weight(), &built.hierarchy);
        let surplus = vec![0.0; built.h.num_edges()];
        let probe_mark = vec![0; built.h.num_nodes()];
        Ok(InGrassEngine {
            hierarchy: built.hierarchy,
            connectivity: built.connectivity,
            h: built.h,
            surplus,
            probe_mark,
            probe_epoch: 0,
            setup_report: built.report,
            setup_cfg: cfg.clone(),
            deltas: Vec::new(),
            ledger,
            updates_applied: 0,
            version: 0,
            instance_id: ENGINE_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }

    /// Validates the input graph and runs setup phase 1: per-edge
    /// effective-resistance estimates from the Krylov embedding.
    ///
    /// Shared by [`InGrassEngine::build_artifacts`] and the sharded
    /// coordinator (`crate::shard`), which needs a *global* hierarchy for
    /// its routing table without paying for a full engine setup.
    pub(crate) fn estimate_edge_resistances(h0: &Graph, cfg: &SetupConfig) -> Result<Vec<f64>> {
        if h0.num_nodes() == 0 {
            return Err(InGrassError::BadSparsifier("no nodes".into()));
        }
        if !is_connected(h0) {
            return Err(InGrassError::BadSparsifier(
                "initial sparsifier must be connected".into(),
            ));
        }
        let emb = KrylovEmbedder::build(h0, &KrylovConfig::default().with_seed(cfg.seed))
            .map_err(|e| InGrassError::BadSparsifier(e.to_string()))?;
        Ok(emb.edge_resistances(h0))
    }

    /// The three setup phases, shared by [`InGrassEngine::setup`] and every
    /// drift-driven re-setup.
    fn build_artifacts(h0: &Graph, cfg: &SetupConfig) -> Result<SetupArtifacts> {
        let mut timer = PhaseTimer::start();
        // Phase 1 (including input validation): per-edge effective
        // resistance estimates.
        let edge_resistance = Self::estimate_edge_resistances(h0, cfg)?;
        let resistance_time = timer.lap();

        // Phase 2: multilevel LRD decomposition.
        let hierarchy = LrdHierarchy::build(
            h0,
            &edge_resistance,
            cfg.initial_diameter,
            cfg.diameter_growth,
            cfg.max_levels,
        )?;
        let lrd_time = timer.lap();

        // Phase 3: multilevel sparse connectivity structure.
        let h = DynGraph::from_graph(h0);
        let connectivity = ClusterConnectivity::build(&h, &hierarchy);
        let connectivity_time = timer.lap();

        let report = SetupReport {
            nodes: h0.num_nodes(),
            edges: h0.num_edges(),
            levels: hierarchy.num_levels(),
            resistance_time,
            lrd_time,
            connectivity_time,
            total_time: timer.total(),
        };
        Ok(SetupArtifacts {
            hierarchy,
            connectivity,
            h,
            report,
        })
    }

    /// Re-runs the setup phase on the *live* sparsifier: fresh resistance
    /// estimates, a fresh LRD hierarchy, and a fresh connectivity index
    /// (with compacted edge ids). The ledger's drift tracker and staleness
    /// counters reset; lifetime operation counters survive.
    ///
    /// Called automatically by [`InGrassEngine::apply_batch`] when the
    /// [`crate::DriftPolicy`] threshold is crossed; public so callers can
    /// force a re-setup at their own cadence.
    ///
    /// # Errors
    /// Propagates setup errors (the live sparsifier is connected by
    /// invariant, so these indicate estimator failure).
    pub fn resetup(&mut self) -> Result<&SetupReport> {
        let snapshot = self.h.to_graph();
        let built = Self::build_artifacts(&snapshot, &self.setup_cfg)?;
        self.hierarchy = built.hierarchy;
        self.connectivity = built.connectivity;
        self.h = built.h;
        self.surplus = vec![0.0; self.h.num_edges()];
        // Stale weight deltas refer to the pre-resetup sparsifier; the
        // epoch bump already tells factor caches to rebuild from scratch.
        self.deltas.clear();
        self.setup_report = built.report;
        self.ledger
            .begin_epoch(self.h.total_weight(), &self.hierarchy);
        self.version += 1;
        Ok(&self.setup_report)
    }

    /// Applies one batch of update operations (insertions, deletions,
    /// reweights) — the uniform mutation path.
    ///
    /// The batch is validated up front by [`crate::validate_batch`] (no
    /// partial application on invalid input). Runs of consecutive
    /// insertions are ranked by estimated spectral distortion `w·R̂`
    /// (descending, unless disabled) exactly like the paper's insert-only
    /// update phase; deletions and reweights act as ordering barriers so
    /// that rip-up sequences (delete then re-insert) keep their meaning.
    /// After the batch, the drift tracker is consulted
    /// and — if the configured [`crate::DriftPolicy`] was exceeded — a
    /// re-setup runs before this call returns (reported in
    /// [`UpdateReport::resetup`]).
    ///
    /// Operation semantics:
    ///
    /// * [`UpdateOp::Insert`] — include / merge / redistribute at the
    ///   filtering level (paper Fig. 3).
    /// * [`UpdateOp::Delete`] — remove the edge from the sparsifier; a
    ///   bridge deletion re-links the endpoints with weight
    ///   `min(w, 1/R̂(u,v))` (the hierarchy's alternative-path conductance
    ///   estimate) so the sparsifier stays connected. Deleting an edge the
    ///   sparsifier never carried is vacuous (its weight was filtered or
    ///   merged away) but still counts toward staleness.
    /// * [`UpdateOp::Reweight`] — overwrite the weight in place when the
    ///   sparsifier carries the edge; vacuous otherwise. Callers that need
    ///   exact semantics for absorbed edges should rip-up (delete +
    ///   re-insert).
    ///
    /// # Errors
    /// As for [`crate::validate_batch`]: [`InGrassError::InvalidConfig`]
    /// if `target_condition < 2`; [`InGrassError::Graph`] if an operation
    /// references an unknown node, is a self-loop, or carries a weight that
    /// is not finite and positive.
    pub fn apply_batch(&mut self, ops: &[UpdateOp], cfg: &UpdateConfig) -> Result<UpdateReport> {
        let timer = PhaseTimer::start();
        validate_batch(ops, cfg, self.h.num_nodes())?;

        let level = self.filtering_level_for(cfg);

        // Spectral distortion estimation (update phase 1): O(levels) per
        // insert via the LRD embedding. The scores are independent reads of
        // the hierarchy, so huge batches fan out across threads (scores land
        // by index — identical at any width); typical O(10³)-op batches
        // stay serial per the shared ingrass-par threshold.
        let hierarchy = &self.hierarchy;
        let scores: Vec<f64> = ingrass_par::par_map_auto(ops, |op| match *op {
            UpdateOp::Insert { u, v, weight } => {
                let r = hierarchy.resistance_bound(NodeId::new(u), NodeId::new(v));
                weight * r.min(f64::MAX / 2.0)
            }
            _ => 0.0,
        });

        // Ordering: each maximal run of consecutive inserts is sorted by
        // distortion (the paper's ranking); deletes/reweights pin their
        // position so mixed sequences keep their operational meaning.
        let mut order: Vec<usize> = Vec::with_capacity(ops.len());
        let mut run: Vec<usize> = Vec::new();
        let flush = |order: &mut Vec<usize>, run: &mut Vec<usize>| {
            if cfg.sort_by_distortion {
                run.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
            }
            order.append(run);
        };
        for (i, op) in ops.iter().enumerate() {
            match op {
                UpdateOp::Insert { .. } => run.push(i),
                _ => {
                    flush(&mut order, &mut run);
                    order.push(i);
                }
            }
        }
        flush(&mut order, &mut run);

        let mut report = UpdateReport {
            batch_size: ops.len(),
            included: 0,
            merged: 0,
            redistributed: 0,
            deleted: 0,
            relinked: 0,
            reweighted: 0,
            vacuous: 0,
            filtering_level: level,
            max_distortion: 0.0,
            resetup: None,
            drift_deleted_weight_fraction: 0.0,
            drift_distortion_fraction: 0.0,
            elapsed: std::time::Duration::ZERO,
        };
        for &idx in &order {
            let outcome = match ops[idx] {
                UpdateOp::Insert { u, v, weight } => {
                    report.max_distortion = report.max_distortion.max(scores[idx]);
                    self.ledger.note_insert();
                    self.apply_edge(NodeId::new(u), NodeId::new(v), weight, level)?
                }
                UpdateOp::Delete { u, v } => {
                    let (outcome, distortion) =
                        self.apply_delete(NodeId::new(u), NodeId::new(v), level)?;
                    report.max_distortion = report.max_distortion.max(distortion);
                    outcome
                }
                UpdateOp::Reweight { u, v, weight } => {
                    let (outcome, distortion) =
                        self.apply_reweight(NodeId::new(u), NodeId::new(v), weight)?;
                    report.max_distortion = report.max_distortion.max(distortion);
                    outcome
                }
            };
            match outcome {
                EdgeOutcome::Included => report.included += 1,
                EdgeOutcome::Merged => report.merged += 1,
                EdgeOutcome::Redistributed => report.redistributed += 1,
                EdgeOutcome::Deleted => report.deleted += 1,
                EdgeOutcome::Relinked => report.relinked += 1,
                EdgeOutcome::Reweighted => report.reweighted += 1,
                EdgeOutcome::Vacuous => report.vacuous += 1,
            }
        }
        self.updates_applied += ops.len();
        if !ops.is_empty() {
            self.version += 1;
        }

        // Drift policy: the setup/update split as a policy, not a lifecycle.
        if let Some(reason) = self.ledger.should_resetup(&self.setup_cfg.drift) {
            self.resetup()?;
            report.resetup = Some(reason);
        }
        report.drift_deleted_weight_fraction = self.ledger.drift().deleted_weight_fraction();
        report.drift_distortion_fraction = self.ledger.drift().distortion_fraction();
        report.elapsed = timer.total();
        Ok(report)
    }

    /// Applies one batch of newly inserted edges `(u, v, weight)` (paper
    /// Algorithm 1, lines 4–5).
    ///
    /// Thin compatibility wrapper over [`InGrassEngine::apply_batch`] with
    /// every operation an [`UpdateOp::Insert`]; insert-only batches behave
    /// exactly as the bespoke pre-ledger path did.
    ///
    /// # Errors
    /// As for [`InGrassEngine::apply_batch`].
    pub fn insert_batch(
        &mut self,
        edges: &[(usize, usize, f64)],
        cfg: &UpdateConfig,
    ) -> Result<UpdateReport> {
        let ops: Vec<UpdateOp> = edges
            .iter()
            .map(|&(u, v, weight)| UpdateOp::Insert { u, v, weight })
            .collect();
        self.apply_batch(&ops, cfg)
    }

    /// Applies one inserted edge at the given filtering level and reports
    /// its fate.
    fn apply_edge(&mut self, u: NodeId, v: NodeId, w: f64, level: usize) -> Result<EdgeOutcome> {
        let lvl = self.hierarchy.level(level);
        let (cu, cv) = (lvl.cluster_of[u.index()], lvl.cluster_of[v.index()]);

        if cu == cv {
            // Same cluster: discard and spread the weight proportionally
            // over the cluster's internal sparsifier edges.
            let intra = self.connectivity.intra_edges(level, cu);
            if !intra.is_empty() {
                let total: f64 = intra
                    .iter()
                    .filter_map(|&e| self.h.edge(e))
                    .map(|e| e.weight)
                    .sum();
                if total > 0.0 {
                    let ids: Vec<_> = intra.to_vec();
                    for e in ids {
                        if let Some(edge) = self.h.edge(e) {
                            let share = w * edge.weight / total;
                            self.h
                                .add_weight(e, share)
                                .map_err(|err| InGrassError::Graph(err.to_string()))?;
                            self.add_surplus(e, share);
                            self.note_delta(edge.u, edge.v, share);
                        }
                    }
                    return Ok(EdgeOutcome::Redistributed);
                }
            }
            // Defensive fall-through (a cluster with no internal edges
            // cannot arise from edge contraction, but deletion churn can
            // empty one): include.
        } else if let Some(rep) = self
            .connectivity
            .connecting_live_edge(level, cu, cv, &self.h)
        {
            // Clusters already connected: absorb the weight into the
            // existing representative edge.
            let rep_edge = self.h.edge(rep).expect("connecting edge is live");
            self.h
                .add_weight(rep, w)
                .map_err(|err| InGrassError::Graph(err.to_string()))?;
            self.add_surplus(rep, w);
            self.note_delta(rep_edge.u, rep_edge.v, w);
            return Ok(EdgeOutcome::Merged);
        }

        // Spectrally unique: include and index at every level.
        let (id, created) = self
            .h
            .add_edge(u, v, w)
            .map_err(|err| InGrassError::Graph(err.to_string()))?;
        self.note_delta(u, v, w);
        if created {
            self.connectivity
                .register_edge(&self.hierarchy, &self.h, id, u, v);
        } else {
            // A parallel logical edge landed on a pair the sparsifier
            // already carries: the addition is absorbed weight.
            self.add_surplus(id, w);
        }
        Ok(EdgeOutcome::Included)
    }

    /// Journals one sparsifier weight change (see the `deltas` field).
    fn note_delta(&mut self, u: NodeId, v: NodeId, dw: f64) {
        if dw == 0.0 {
            return;
        }
        self.deltas.push((u.index() as u32, v.index() as u32, dw));
        // Keep the journal proportional to the sparsifier even if nobody
        // drains it: coalescing bounds it by the distinct pairs touched.
        if self.deltas.len() > (4 * self.h.num_edges()).max(1024) {
            self.deltas = Self::coalesce_deltas(std::mem::take(&mut self.deltas));
        }
    }

    /// Sums journal entries per unordered endpoint pair (deterministic:
    /// sorted by pair) and drops exact cancellations.
    fn coalesce_deltas(mut raw: Vec<(u32, u32, f64)>) -> Vec<(u32, u32, f64)> {
        for d in raw.iter_mut() {
            if d.0 > d.1 {
                std::mem::swap(&mut d.0, &mut d.1);
            }
        }
        raw.sort_by_key(|&(u, v, _)| (u, v));
        let mut out: Vec<(u32, u32, f64)> = Vec::with_capacity(raw.len());
        for (u, v, dw) in raw {
            match out.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += dw,
                _ => out.push((u, v, dw)),
            }
        }
        out.retain(|&(_, _, dw)| dw != 0.0);
        out
    }

    /// Drains the journal of sparsifier edge-weight changes since the last
    /// drain (or the last re-setup, which clears it): one `(u, v, Δw)` per
    /// touched unordered endpoint pair, net of cancellations.
    ///
    /// This is how the serving layer keeps a live Cholesky factor patched:
    /// each entry is a rank-1 update/downdate of `L_H`
    /// (`SparsifierPrecond::apply_edge_deltas`). Deltas journaled
    /// in an epoch the consumer never saw are useless — always compare
    /// [`InGrassEngine::epoch`] against the factor's before applying.
    pub fn take_edge_deltas(&mut self) -> Vec<(u32, u32, f64)> {
        Self::coalesce_deltas(std::mem::take(&mut self.deltas))
    }

    /// Records absorbed weight on an edge (see the `surplus` field).
    fn add_surplus(&mut self, id: ingrass_graph::EdgeId, w: f64) {
        if self.surplus.len() <= id.index() {
            self.surplus.resize(id.index() + 1, 0.0);
        }
        self.surplus[id.index()] += w;
    }

    /// The absorbed (non-original) share of an edge's weight.
    fn surplus_of(&self, id: ingrass_graph::EdgeId) -> f64 {
        self.surplus.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Applies one deletion at the given filtering level; returns the
    /// outcome and the estimated distortion `w·R̂` the deletion contributes.
    ///
    /// Only the edge's *original* weight is removed: merged surplus belongs
    /// to logical edges that still exist, so it is re-injected through the
    /// filter (where it lands on another representative, spreads inside the
    /// cluster, or — rarely — becomes a fresh edge).
    fn apply_delete(&mut self, u: NodeId, v: NodeId, level: usize) -> Result<(EdgeOutcome, f64)> {
        let Some(id) = self.h.edge_id(u, v) else {
            // The sparsifier never carried this edge (filtered or merged
            // away at insert time): nothing physical to undo, but the
            // cluster's certified diameter still weakens.
            self.ledger.note_vacuous(&self.hierarchy, u, v);
            return Ok((EdgeOutcome::Vacuous, 0.0));
        };
        let w = self.h.edge(id).expect("indexed edge is live").weight;
        let surplus = self.surplus_of(id).min(w);
        let w_own = w - surplus;
        let rhat = self.hierarchy.resistance_bound(u, v);
        let distortion = if rhat.is_finite() { w_own * rhat } else { 0.0 };
        self.h.remove_edge(u, v).expect("edge id was live");
        self.note_delta(u, v, -w);
        if self.surplus.len() > id.index() {
            self.surplus[id.index()] = 0.0;
        }
        self.connectivity
            .unregister_edge(&self.hierarchy, &self.h, id, u, v);
        if self.still_connected(u, v) {
            if surplus > 0.0 {
                self.apply_edge(u, v, surplus, level)?;
            }
            self.ledger
                .note_delete(&self.hierarchy, u, v, w_own, rhat, false);
            Ok((EdgeOutcome::Deleted, distortion))
        } else {
            // Bridge deletion: the sparsifier must stay connected (both the
            // condition number and a future re-setup are undefined
            // otherwise). Re-link the endpoints through the spanning
            // structure with the hierarchy's alternative-path conductance
            // estimate `1/R̂` — the weight the surviving paths would carry —
            // capped by the deleted weight; absorbed surplus rides along on
            // the re-link edge.
            let relink_own = if rhat.is_finite() && rhat > 0.0 {
                (1.0 / rhat).min(w_own)
            } else {
                w_own
            };
            let relink_w = (relink_own + surplus).max(f64::MIN_POSITIVE);
            let (id2, created) = self
                .h
                .add_edge(u, v, relink_w)
                .expect("relink endpoints are valid");
            self.note_delta(u, v, relink_w);
            if created {
                self.connectivity
                    .register_edge(&self.hierarchy, &self.h, id2, u, v);
                if surplus > 0.0 {
                    self.add_surplus(id2, surplus);
                }
            }
            self.ledger
                .note_delete(&self.hierarchy, u, v, w_own - relink_own, rhat, true);
            Ok((EdgeOutcome::Relinked, distortion))
        }
    }

    /// Whether `u` and `v` are still connected in the live sparsifier —
    /// the deletion path's bridge check.
    ///
    /// Bidirectional BFS over epoch-stamped scratch marks: the two
    /// frontiers stop the moment they meet, so the typical non-bridge
    /// deletion (whose alternative path is a handful of hops through the
    /// neighbourhood) costs a few adjacency scans rather than the full
    /// `O(N + M)` sweep a one-sided search would need; only a true bridge
    /// pays for sweeping its (smaller) side of the cut.
    fn still_connected(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return true;
        }
        // Two fresh marks per probe; stale marks from earlier probes can
        // never collide because the epoch only grows.
        self.probe_epoch += 2;
        let (mark_u, mark_v) = (self.probe_epoch, self.probe_epoch | 1);
        self.probe_mark[u.index()] = mark_u;
        self.probe_mark[v.index()] = mark_v;
        let mut frontier_u = vec![u];
        let mut frontier_v = vec![v];
        loop {
            // Expand the smaller frontier (classic bidirectional search).
            let from_u = frontier_u.len() <= frontier_v.len();
            let (frontier, own, other) = if from_u {
                (&mut frontier_u, mark_u, mark_v)
            } else {
                (&mut frontier_v, mark_v, mark_u)
            };
            if frontier.is_empty() {
                return false;
            }
            let mut next = Vec::with_capacity(frontier.len());
            for &x in frontier.iter() {
                for (y, _, _) in self.h.neighbors(x) {
                    let seen = self.probe_mark[y.index()];
                    if seen == other {
                        return true;
                    }
                    if seen != own {
                        self.probe_mark[y.index()] = own;
                        next.push(y);
                    }
                }
            }
            *frontier = next;
        }
    }

    /// Applies one reweight; returns the outcome and the estimated
    /// distortion `|Δw|·R̂` the change contributes.
    ///
    /// The new weight replaces the edge's *original* share; merged surplus
    /// stays on the edge (it belongs to other logical edges).
    fn apply_reweight(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<(EdgeOutcome, f64)> {
        let Some(id) = self.h.edge_id(u, v) else {
            // The weight lives on a representative edge (or was filtered);
            // exact semantics need a rip-up (delete + re-insert).
            self.ledger.note_vacuous(&self.hierarchy, u, v);
            return Ok((EdgeOutcome::Vacuous, 0.0));
        };
        let old = self.h.edge(id).expect("indexed edge is live").weight;
        let surplus = self.surplus_of(id).min(old);
        let old_own = old - surplus;
        self.h
            .set_weight(id, w + surplus)
            .map_err(|err| InGrassError::Graph(err.to_string()))?;
        self.note_delta(u, v, (w + surplus) - old);
        let rhat = self.hierarchy.resistance_bound(u, v);
        let removed = (old_own - w).max(0.0);
        self.ledger
            .note_reweight(&self.hierarchy, u, v, removed, rhat);
        let distortion = if rhat.is_finite() {
            (old_own - w).abs() * rhat
        } else {
            0.0
        };
        Ok((EdgeOutcome::Reweighted, distortion))
    }

    /// Estimated spectral distortion `w · R̂(u, v)` of a candidate edge.
    pub fn estimate_distortion(&self, u: NodeId, v: NodeId, w: f64) -> f64 {
        w * self.hierarchy.resistance_bound(u, v)
    }

    /// The filtering level that a target condition number selects.
    ///
    /// The [`LrdHierarchy`] owns the definition (paper Section III-C-2);
    /// this method and every engine-internal path delegate to it.
    pub fn filtering_level(&self, target_condition: f64) -> usize {
        self.hierarchy.filtering_level(target_condition)
    }

    /// The filtering level an update config selects: the explicit override
    /// (clamped to the hierarchy) when present, else the level derived from
    /// the target condition number. The single internal source of truth.
    fn filtering_level_for(&self, cfg: &UpdateConfig) -> usize {
        cfg.filtering_level_override
            .map(|l| l.min(self.hierarchy.num_levels() - 1))
            .unwrap_or_else(|| self.filtering_level(cfg.target_condition))
    }

    /// The live sparsifier.
    pub fn sparsifier(&self) -> &DynGraph {
        &self.h
    }

    /// Immutable snapshot of the sparsifier (for matrix export and
    /// measurement).
    pub fn sparsifier_graph(&self) -> Graph {
        self.h.to_graph()
    }

    /// The LRD hierarchy built during setup.
    pub fn hierarchy(&self) -> &LrdHierarchy {
        &self.hierarchy
    }

    /// The multilevel cluster-connectivity index.
    pub fn connectivity(&self) -> &ClusterConnectivity {
        &self.connectivity
    }

    /// Setup-phase statistics.
    pub fn setup_report(&self) -> &SetupReport {
        &self.setup_report
    }

    /// Total number of stream operations processed so far.
    pub fn updates_applied(&self) -> usize {
        self.updates_applied
    }

    /// The operation ledger: lifetime insert/delete/reweight counters plus
    /// the current epoch's drift tracker and staleness counters.
    pub fn ledger(&self) -> &UpdateLedger {
        &self.ledger
    }

    /// Automatic re-setups performed so far (convenience for
    /// `ledger().resetups()`).
    pub fn resetups(&self) -> usize {
        self.ledger.resetups()
    }

    /// The engine's ledger epoch: 0 after [`InGrassEngine::setup`],
    /// incremented by every (drift-triggered or manual) re-setup.
    ///
    /// Within one epoch the LRD hierarchy and connectivity index are fixed
    /// and the sparsifier only drifts incrementally — [`crate::SnapshotEngine`]
    /// keeps patching or numerically refactoring its factor while the
    /// epoch stands, and rebuilds it when the epoch moves.
    pub fn epoch(&self) -> u64 {
        self.ledger.resetups() as u64
    }

    /// A process-unique identity for this engine instance (stable across
    /// re-setups, distinct for every [`InGrassEngine::setup`] call).
    ///
    /// [`InGrassEngine::epoch`] alone cannot distinguish two *different*
    /// engines that both happen to sit at, say, epoch 0 — anything keyed
    /// on engine state (notably `ingrass-solve`'s admission groups, keyed
    /// on a snapshot's `(instance_id, epoch, version)`) includes it, so a
    /// freshly set-up engine is never confused with another. The value
    /// carries no meaning beyond equality and never feeds any computation,
    /// so determinism of results is unaffected.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Monotone state version: incremented by every non-empty
    /// [`InGrassEngine::apply_batch`] and by every re-setup. Two equal
    /// versions imply an identical sparsifier; finer-grained than
    /// [`InGrassEngine::epoch`] for callers that want exact staleness
    /// tracking rather than epoch granularity.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Builds a fresh preconditioner from the live sparsifier: a grounded
    /// sparse Cholesky factorization of `L_H`, tagged with the current
    /// [`InGrassEngine::epoch`].
    ///
    /// The factor is exact for the sparsifier, so preconditioned CG on the
    /// *original* Laplacian `L_G` converges in `O(√κ(L_H⁻¹L_G))`
    /// iterations — the condition number the update phase keeps bounded.
    /// [`crate::SnapshotEngine`] maintains this factor across publishes
    /// and hands it to every [`crate::SparsifierSnapshot`], which is what
    /// `ingrass-solve`'s `ConcurrentSolveService` preconditions with.
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] if the grounded Laplacian fails to
    /// factor (disconnected or numerically degenerate sparsifier — cannot
    /// happen while the engine's connectivity invariant holds).
    pub fn preconditioner(&self) -> Result<crate::SparsifierPrecond> {
        crate::SparsifierPrecond::build(&self.h, self.epoch(), Some(&self.hierarchy))
    }

    /// Exports the engine's complete observable state for persistence.
    ///
    /// Everything an update decision can depend on travels: the hierarchy,
    /// the incrementally maintained connectivity index (a fresh rebuild
    /// can disagree with it — see [`crate::state`]), the edge-slot array
    /// with tombstones, surplus, the undrained delta journal, and the
    /// ledger with its drift sums. The probe scratch and the
    /// process-unique [`InGrassEngine::instance_id`] are excluded: the
    /// former is unobservable between probes, the latter is regenerated at
    /// restore so caches never confuse a restored engine with its source.
    ///
    /// The setup report's four wall-clock durations are process-local
    /// measurements, like the sharded engine's per-shard latencies: they
    /// export as zero, so one history always exports the same bytes. The
    /// node, edge and level counts travel.
    pub fn export_state(&self) -> crate::state::EngineState {
        let zero = std::time::Duration::ZERO;
        crate::state::EngineState {
            num_nodes: self.h.num_nodes(),
            levels: self.hierarchy.levels().to_vec(),
            connectivity: self.connectivity.export_state(),
            edge_slots: self.h.edge_slots(),
            surplus: self.surplus.clone(),
            setup_report: SetupReport {
                resistance_time: zero,
                lrd_time: zero,
                connectivity_time: zero,
                total_time: zero,
                ..self.setup_report
            },
            setup_cfg: self.setup_cfg.clone(),
            deltas: self.deltas.clone(),
            ledger: self.ledger.export_state(),
            updates_applied: self.updates_applied,
            version: self.version,
        }
    }

    /// Restores an engine from persisted state.
    ///
    /// The restored engine is bit-for-bit equivalent to the exporter for
    /// every observable computation: the same sparsifier edges (ids
    /// included), the same hierarchy and connectivity index, the same
    /// drift sums — so replaying a WAL tail on it reproduces the original
    /// run exactly. Only [`InGrassEngine::instance_id`] differs (fresh by
    /// design), the setup report's durations read zero (see
    /// [`InGrassEngine::export_state`]) and the probe scratch restarts at
    /// zero.
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] / [`InGrassError::InvalidConfig`]
    /// if the state is internally inconsistent (edge slots out of bounds,
    /// hierarchy node count mismatch, surplus length disagreeing with the
    /// edge-slot array).
    pub fn from_state(state: crate::state::EngineState) -> Result<Self> {
        let h = DynGraph::from_edge_slots(state.num_nodes, &state.edge_slots)?;
        // The surplus array grows lazily (`add_surplus` resizes on first
        // touch), so it may cover fewer slots than the sparsifier — but
        // never more.
        if state.surplus.len() > state.edge_slots.len() {
            return Err(InGrassError::InvalidConfig(format!(
                "surplus covers {} edge slots, sparsifier has only {}",
                state.surplus.len(),
                state.edge_slots.len()
            )));
        }
        let hierarchy = LrdHierarchy::from_levels(state.levels)?;
        if hierarchy.num_nodes() != state.num_nodes {
            return Err(InGrassError::InvalidConfig(format!(
                "hierarchy labels {} nodes, sparsifier has {}",
                hierarchy.num_nodes(),
                state.num_nodes
            )));
        }
        let connectivity = ClusterConnectivity::from_state(&state.connectivity);
        let probe_mark = vec![0; state.num_nodes];
        Ok(InGrassEngine {
            hierarchy,
            connectivity,
            h,
            surplus: state.surplus,
            probe_mark,
            probe_epoch: 0,
            setup_report: state.setup_report,
            setup_cfg: state.setup_cfg,
            deltas: state.deltas,
            ledger: UpdateLedger::from_state(&state.ledger),
            updates_applied: state.updates_applied,
            version: state.version,
            instance_id: ENGINE_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SetupConfig, UpdateConfig};
    use ingrass_baselines::GrassSparsifier;
    use ingrass_gen::{grid_2d, InsertionStream, StreamConfig, WeightModel};
    use proptest::prelude::*;

    fn sparsifier_fixture(side: usize, seed: u64) -> (Graph, Graph) {
        let g = grid_2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g, 0.10)
            .unwrap()
            .graph;
        (g, h0)
    }

    #[test]
    fn empty_start_engine_never_drifts_into_resetup() {
        // Regression companion to the zero-baseline DriftTracker guard: an
        // engine set up from a single-node (zero-weight) sparsifier must
        // keep `should_resetup` decidable — batches apply cleanly and no
        // NaN fraction can fire (or permanently suppress) a re-setup.
        let h0 = Graph::from_edges(1, &[]).unwrap();
        let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let drift = engine.ledger().drift().deleted_weight_fraction();
        assert_eq!(drift, 0.0);
        assert!(drift.is_finite());
        let report = engine.apply_batch(&[], &UpdateConfig::default()).unwrap();
        assert!(report.resetup.is_none());
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn setup_produces_log_levels() {
        let (_g, h0) = sparsifier_fixture(16, 1);
        let engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let report = engine.setup_report();
        assert_eq!(report.nodes, 256);
        assert!(
            report.levels >= 3 && report.levels <= 24,
            "{}",
            report.levels
        );
        assert_eq!(engine.sparsifier().num_edges(), h0.num_edges());
    }

    #[test]
    fn setup_rejects_disconnected_sparsifier() {
        let h0 = Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(matches!(
            InGrassEngine::setup(&h0, &SetupConfig::default()),
            Err(InGrassError::BadSparsifier(_))
        ));
    }

    #[test]
    fn all_three_outcomes_occur() {
        let (_g, h0) = sparsifier_fixture(16, 2);
        let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let cfg = UpdateConfig {
            target_condition: 60.0,
            ..Default::default()
        };
        let level = engine.filtering_level(cfg.target_condition);
        assert!(level > 0, "target must select a non-trivial level");
        let lvl = engine.hierarchy().level(level).clone();

        // Craft one edge per outcome by inspecting the hierarchy.
        let n = h0.num_nodes();
        // (a) same cluster.
        let mut intra_pair = None;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if lvl.cluster_of[u] == lvl.cluster_of[v]
                    && h0.edge_weight(u.into(), v.into()).is_none()
                {
                    intra_pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        // (b) clusters already connected by an H edge, endpoints not
        // adjacent in H.
        let mut merge_pair = None;
        'outer2: for e in h0.edges() {
            let (cu, cv) = (lvl.cluster_of[e.u.index()], lvl.cluster_of[e.v.index()]);
            if cu == cv {
                continue;
            }
            for u in 0..n {
                if lvl.cluster_of[u] != cu || u == e.u.index() {
                    continue;
                }
                for v in 0..n {
                    if lvl.cluster_of[v] != cv || v == e.v.index() {
                        continue;
                    }
                    if h0.edge_weight(u.into(), v.into()).is_none() && u != v {
                        merge_pair = Some((u, v));
                        break 'outer2;
                    }
                }
            }
        }
        let (iu, iv) = intra_pair.expect("grid clusters have non-adjacent internal pairs");
        let (mu, mv) = merge_pair.expect("connected cluster pairs exist");

        let before_edges = engine.sparsifier().num_edges();
        let r1 = engine.insert_batch(&[(iu, iv, 1.0)], &cfg).unwrap();
        assert_eq!(r1.redistributed, 1, "intra-cluster edge must redistribute");
        assert_eq!(engine.sparsifier().num_edges(), before_edges);

        let r2 = engine.insert_batch(&[(mu, mv, 1.0)], &cfg).unwrap();
        assert_eq!(r2.merged, 1, "connected cluster pair must merge");
        assert_eq!(engine.sparsifier().num_edges(), before_edges);

        // (c) find a cluster pair with no connecting edge.
        let mut include_pair = None;
        {
            let conn = engine.connectivity();
            'outer3: for u in 0..n {
                for v in (u + 1)..n {
                    let (cu, cv) = (lvl.cluster_of[u], lvl.cluster_of[v]);
                    if cu != cv && conn.connecting_edge(level, cu, cv).is_none() {
                        include_pair = Some((u, v));
                        break 'outer3;
                    }
                }
            }
        }
        if let Some((nu, nv)) = include_pair {
            let r3 = engine.insert_batch(&[(nu, nv, 1.0)], &cfg).unwrap();
            assert_eq!(r3.included, 1, "unique cluster pair must include");
            assert_eq!(engine.sparsifier().num_edges(), before_edges + 1);
        }
    }

    #[test]
    fn weight_is_conserved_across_outcomes() {
        let (g, h0) = sparsifier_fixture(14, 3);
        let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let stream = InsertionStream::generate(
            &g,
            &StreamConfig {
                batches: 1,
                edges_per_batch: 60,
                ..Default::default()
            },
        );
        let batch = &stream.batches()[0];
        let new_weight: f64 = batch.iter().map(|&(_, _, w)| w).sum();
        let before = engine.sparsifier().total_weight();
        let report = engine
            .insert_batch(batch, &UpdateConfig::default())
            .unwrap();
        let after = engine.sparsifier().total_weight();
        assert_eq!(report.total_processed(), batch.len());
        assert!(
            (after - before - new_weight).abs() < 1e-8 * (1.0 + new_weight),
            "weight leak: Δ={} vs inserted {}",
            after - before,
            new_weight
        );
    }

    #[test]
    fn sparsifier_stays_connected_under_updates() {
        let (g, h0) = sparsifier_fixture(12, 4);
        let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let stream = InsertionStream::paper_default(&g, 8);
        for batch in stream.batches() {
            engine
                .insert_batch(batch, &UpdateConfig::default())
                .unwrap();
        }
        assert!(is_connected(&engine.sparsifier_graph()));
        assert_eq!(engine.updates_applied(), stream.total_edges());
    }

    #[test]
    fn tighter_target_condition_admits_more_edges() {
        // A small C forces a fine filtering level → more unique cluster
        // pairs → more inclusions; a huge C collapses everything to the top
        // cluster → everything redistributes.
        let (g, h0) = sparsifier_fixture(14, 5);
        let stream = InsertionStream::generate(
            &g,
            &StreamConfig {
                batches: 1,
                edges_per_batch: 80,
                ..Default::default()
            },
        );
        let batch = &stream.batches()[0];

        let mut tight = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let r_tight = tight
            .insert_batch(
                batch,
                &UpdateConfig {
                    target_condition: 4.0,
                    ..Default::default()
                },
            )
            .unwrap();

        let mut loose = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let r_loose = loose
            .insert_batch(
                batch,
                &UpdateConfig {
                    target_condition: 1e9,
                    ..Default::default()
                },
            )
            .unwrap();

        assert!(
            r_tight.included > r_loose.included,
            "tight {} vs loose {}",
            r_tight.included,
            r_loose.included
        );
        assert_eq!(r_loose.included, 0, "top level must absorb everything");
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let (_g, h0) = sparsifier_fixture(8, 6);
        let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let before = engine.sparsifier().total_weight();
        let cfg = UpdateConfig::default();
        assert!(engine.insert_batch(&[(0, 0, 1.0)], &cfg).is_err());
        assert!(engine.insert_batch(&[(0, 9999, 1.0)], &cfg).is_err());
        assert!(engine.insert_batch(&[(0, 1, -2.0)], &cfg).is_err());
        assert!(engine
            .insert_batch(
                &[(0, 1, 1.0)],
                &UpdateConfig {
                    target_condition: 1.0,
                    ..Default::default()
                }
            )
            .is_err());
        assert_eq!(engine.sparsifier().total_weight(), before);
        assert_eq!(engine.updates_applied(), 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (_g, h0) = sparsifier_fixture(8, 7);
        let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let r = engine.insert_batch(&[], &UpdateConfig::default()).unwrap();
        assert_eq!(r.batch_size, 0);
        assert_eq!(r.total_processed(), 0);
    }

    #[test]
    fn engine_is_deterministic() {
        let (g, h0) = sparsifier_fixture(12, 8);
        let stream = InsertionStream::paper_default(&g, 3);
        let run = || {
            let mut e = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
            for b in stream.batches() {
                e.insert_batch(b, &UpdateConfig::default()).unwrap();
            }
            let snap = e.sparsifier_graph();
            (snap.num_edges(), snap.total_weight())
        };
        let (e1, w1) = run();
        let (e2, w2) = run();
        assert_eq!(e1, e2);
        assert!((w1 - w2).abs() < 1e-12);
    }

    #[test]
    fn merged_weight_lands_on_representative_edge() {
        let (_g, h0) = sparsifier_fixture(16, 9);
        let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let cfg = UpdateConfig {
            target_condition: 60.0,
            ..Default::default()
        };
        let level = engine.filtering_level(cfg.target_condition);
        let lvl = engine.hierarchy().level(level).clone();
        // Find a cluster pair connected by exactly one H edge and a fresh
        // node pair spanning those clusters.
        let mut found = None;
        for (id, e) in h0.edges().iter().enumerate() {
            let (cu, cv) = (lvl.cluster_of[e.u.index()], lvl.cluster_of[e.v.index()]);
            if cu == cv {
                continue;
            }
            let crossings = h0
                .edges()
                .iter()
                .filter(|e2| {
                    let (a, b) = (lvl.cluster_of[e2.u.index()], lvl.cluster_of[e2.v.index()]);
                    (a.min(b), a.max(b)) == (cu.min(cv), cu.max(cv))
                })
                .count();
            if crossings == 1 {
                found = Some((id, *e, cu, cv));
                break;
            }
        }
        let Some((_, rep_edge, cu, cv)) = found else {
            return; // no singleton pair in this fixture — vacuous
        };
        // A new pair in (cu, cv) different from the representative.
        let n = h0.num_nodes();
        let mut pair = None;
        'o: for u in 0..n {
            if lvl.cluster_of[u] != cu || u == rep_edge.u.index() {
                continue;
            }
            for v in 0..n {
                if lvl.cluster_of[v] != cv || v == rep_edge.v.index() {
                    continue;
                }
                if h0.edge_weight(u.into(), v.into()).is_none() {
                    pair = Some((u, v));
                    break 'o;
                }
            }
        }
        let Some((u, v)) = pair else { return };
        let before = engine
            .sparsifier()
            .edge_weight(rep_edge.u, rep_edge.v)
            .unwrap();
        let r = engine.insert_batch(&[(u, v, 2.5)], &cfg).unwrap();
        assert_eq!(r.merged, 1);
        let after = engine
            .sparsifier()
            .edge_weight(rep_edge.u, rep_edge.v)
            .unwrap();
        assert!(
            (after - before - 2.5).abs() < 1e-12,
            "weight went elsewhere"
        );
    }

    #[test]
    fn filtering_level_override_is_respected() {
        let (g, h0) = sparsifier_fixture(12, 10);
        let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let stream = InsertionStream::generate(
            &g,
            &StreamConfig {
                batches: 1,
                edges_per_batch: 20,
                ..Default::default()
            },
        );
        let top = engine.hierarchy().num_levels() - 1;
        let r = engine
            .insert_batch(
                &stream.batches()[0],
                &UpdateConfig {
                    target_condition: 4.0,               // would pick a fine level…
                    filtering_level_override: Some(top), // …but we force the top
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.filtering_level, top);
        assert_eq!(r.included, 0, "top level absorbs everything");
        // Out-of-range overrides clamp instead of panicking.
        let r = engine
            .insert_batch(
                &[],
                &UpdateConfig {
                    filtering_level_override: Some(9999),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.filtering_level, top);
    }

    #[test]
    fn delete_of_included_edge_restores_edge_count() {
        let (_g, h0) = sparsifier_fixture(14, 12);
        let mut engine = InGrassEngine::setup(
            &h0,
            &SetupConfig::default().with_drift(crate::DriftPolicy::never()),
        )
        .unwrap();
        let cfg = UpdateConfig {
            target_condition: 8.0, // fine level → the insert is included
            ..Default::default()
        };
        // Find a pair the engine will include (unique cluster pair).
        let level = engine.filtering_level(cfg.target_condition);
        let lvl = engine.hierarchy().level(level).clone();
        let n = h0.num_nodes();
        let mut pair = None;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                let (cu, cv) = (lvl.cluster_of[u], lvl.cluster_of[v]);
                if cu != cv
                    && engine
                        .connectivity()
                        .connecting_edge(level, cu, cv)
                        .is_none()
                    && h0.edge_weight(u.into(), v.into()).is_none()
                {
                    pair = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = pair.expect("fine level has unconnected cluster pairs");
        let before = engine.sparsifier().num_edges();
        let r = engine
            .apply_batch(&[UpdateOp::Insert { u, v, weight: 1.0 }], &cfg)
            .unwrap();
        assert_eq!(r.included, 1);
        assert_eq!(engine.sparsifier().num_edges(), before + 1);

        let r = engine
            .apply_batch(&[UpdateOp::Delete { u, v }], &cfg)
            .unwrap();
        assert_eq!(r.deleted, 1, "{r:?}");
        assert_eq!(engine.sparsifier().num_edges(), before);
        assert!(is_connected(&engine.sparsifier_graph()));
        assert_eq!(engine.ledger().deletes(), 1);
        assert!(engine.ledger().drift().deleted_weight_fraction() > 0.0);
    }

    #[test]
    fn bridge_deletion_relinks_and_preserves_connectivity() {
        // A path graph: every edge is a bridge.
        let h0 = Graph::from_edges(
            6,
            &[
                (0, 1, 2.0),
                (1, 2, 2.0),
                (2, 3, 2.0),
                (3, 4, 2.0),
                (4, 5, 2.0),
            ],
        )
        .unwrap();
        let mut engine = InGrassEngine::setup(
            &h0,
            &SetupConfig::default().with_drift(crate::DriftPolicy::never()),
        )
        .unwrap();
        let cfg = UpdateConfig::default();
        let r = engine
            .apply_batch(&[UpdateOp::Delete { u: 2, v: 3 }], &cfg)
            .unwrap();
        assert_eq!(r.relinked, 1, "{r:?}");
        assert_eq!(r.deleted, 0);
        let snap = engine.sparsifier_graph();
        assert!(is_connected(&snap));
        // The re-link weight is capped by the deleted weight and positive.
        let w = snap.edge_weight(2.into(), 3.into()).unwrap();
        assert!(w > 0.0 && w <= 2.0, "relink weight {w}");
        assert_eq!(engine.ledger().relinks(), 1);
    }

    #[test]
    fn reweight_overwrites_in_place_and_vacuous_ops_are_counted() {
        let (_g, h0) = sparsifier_fixture(10, 13);
        let mut engine = InGrassEngine::setup(
            &h0,
            &SetupConfig::default().with_drift(crate::DriftPolicy::never()),
        )
        .unwrap();
        let cfg = UpdateConfig::default();
        let e = h0.edges()[0];
        let (u, v) = (e.u.index(), e.v.index());
        let r = engine
            .apply_batch(
                &[UpdateOp::Reweight {
                    u,
                    v,
                    weight: e.weight * 0.5,
                }],
                &cfg,
            )
            .unwrap();
        assert_eq!(r.reweighted, 1);
        let got = engine.sparsifier().edge_weight(e.u, e.v).unwrap();
        assert!((got - e.weight * 0.5).abs() < 1e-12);
        assert_eq!(engine.ledger().reweights(), 1);

        // A non-edge: both delete and reweight are vacuous, not errors.
        let n = h0.num_nodes();
        let mut non_edge = None;
        'outer: for a in 0..n {
            for b in (a + 1)..n {
                if h0.edge_weight(a.into(), b.into()).is_none() {
                    non_edge = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = non_edge.unwrap();
        let r = engine
            .apply_batch(
                &[
                    UpdateOp::Delete { u: a, v: b },
                    UpdateOp::Reweight {
                        u: a,
                        v: b,
                        weight: 1.0,
                    },
                ],
                &cfg,
            )
            .unwrap();
        assert_eq!(r.vacuous, 2);
        assert_eq!(r.total_processed(), 2);
        assert_eq!(engine.ledger().vacuous(), 2);
    }

    #[test]
    fn rip_up_sequence_preserves_order_within_batch() {
        // Delete + re-insert of the same pair in ONE batch must end with the
        // edge present (the delete may not be reordered after the insert).
        let (_g, h0) = sparsifier_fixture(12, 14);
        let mut engine = InGrassEngine::setup(
            &h0,
            &SetupConfig::default().with_drift(crate::DriftPolicy::never()),
        )
        .unwrap();
        let cfg = UpdateConfig {
            target_condition: 8.0,
            ..Default::default()
        };
        let e = h0.edges()[3];
        let (u, v) = (e.u.index(), e.v.index());
        let before = engine.sparsifier().total_weight();
        let r = engine
            .apply_batch(
                &[
                    UpdateOp::Delete { u, v },
                    UpdateOp::Insert { u, v, weight: 9.0 },
                ],
                &cfg,
            )
            .unwrap();
        assert_eq!(r.total_processed(), 2);
        assert!(r.deleted + r.relinked == 1, "{r:?}");
        // The 9.0 landed somewhere (included on the pair, merged, or
        // redistributed) — total weight reflects delete-then-insert.
        let after = engine.sparsifier().total_weight();
        let expected_delta = 9.0 - e.weight;
        assert!(
            (after - before - expected_delta).abs() < 1e-9 + 2.0 * e.weight,
            "Δ={} vs expected ≈{}",
            after - before,
            expected_delta
        );
        assert!(is_connected(&engine.sparsifier_graph()));
    }

    #[test]
    fn drift_threshold_triggers_automatic_resetup() {
        let (_g, h0) = sparsifier_fixture(12, 15);
        let cfg = SetupConfig::default().with_drift(crate::DriftPolicy {
            max_deleted_weight_fraction: 0.02,
            max_distortion_fraction: 1e9,
            max_cluster_staleness: u32::MAX,
            auto_resetup: true,
        });
        let mut engine = InGrassEngine::setup(&h0, &cfg).unwrap();
        assert_eq!(engine.resetups(), 0);
        let ucfg = UpdateConfig::default();
        // Delete edges until the deleted-weight fraction crosses 2 %.
        let mut triggered = false;
        for e in h0.edges().iter().take(h0.num_edges() / 2) {
            let r = engine
                .apply_batch(
                    &[UpdateOp::Delete {
                        u: e.u.index(),
                        v: e.v.index(),
                    }],
                    &ucfg,
                )
                .unwrap();
            if let Some(reason) = r.resetup {
                assert_eq!(reason, crate::ResetupReason::DeletedWeight);
                // Drift reset by the re-setup.
                assert_eq!(r.drift_deleted_weight_fraction, 0.0);
                triggered = true;
                break;
            }
        }
        assert!(triggered, "drift never crossed the 2% threshold");
        assert_eq!(engine.resetups(), 1);
        assert!(is_connected(&engine.sparsifier_graph()));
        // The engine keeps serving updates after the re-setup.
        let r = engine.insert_batch(&[], &ucfg).unwrap();
        assert_eq!(r.batch_size, 0);
    }

    #[test]
    fn insert_batch_matches_apply_batch_with_insert_ops() {
        let (g, h0) = sparsifier_fixture(12, 16);
        let stream = InsertionStream::paper_default(&g, 5);
        let cfg = UpdateConfig::default();
        let mut a = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let mut b = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
        for batch in stream.batches() {
            let ra = a.insert_batch(batch, &cfg).unwrap();
            let ops: Vec<UpdateOp> = batch
                .iter()
                .map(|&(u, v, weight)| UpdateOp::Insert { u, v, weight })
                .collect();
            let rb = b.apply_batch(&ops, &cfg).unwrap();
            assert_eq!(
                (ra.included, ra.merged, ra.redistributed),
                (rb.included, rb.merged, rb.redistributed)
            );
        }
        let (ga, gb) = (a.sparsifier_graph(), b.sparsifier_graph());
        assert_eq!(ga.num_edges(), gb.num_edges());
        assert!((ga.total_weight() - gb.total_weight()).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_update_invariants(
            seed in 0u64..500,
            batch_size in 1usize..60,
            target in 4.0f64..400.0,
        ) {
            let (g, h0) = sparsifier_fixture(10, seed);
            let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default()).unwrap();
            let stream = InsertionStream::generate(&g, &StreamConfig {
                batches: 1,
                edges_per_batch: batch_size,
                seed,
                ..Default::default()
            });
            let batch = &stream.batches()[0];
            let w_new: f64 = batch.iter().map(|&(_, _, w)| w).sum();
            let w_before = engine.sparsifier().total_weight();
            let r = engine.insert_batch(batch, &UpdateConfig {
                target_condition: target,
                ..Default::default()
            }).unwrap();
            // Accounting closes.
            prop_assert_eq!(r.total_processed(), batch.len());
            // Weight conservation.
            let w_after = engine.sparsifier().total_weight();
            prop_assert!((w_after - w_before - w_new).abs() < 1e-7 * (1.0 + w_new));
            // Connectivity preserved.
            prop_assert!(is_connected(&engine.sparsifier_graph()));
        }
    }
}
