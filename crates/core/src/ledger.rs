//! The operation log every sparsifier mutation flows through.
//!
//! inGRASS as published is insert-only: the setup phase is a hard-coded
//! lifecycle boundary and the update phase only ever grows the sparsifier.
//! This module turns that split into a *policy*: all mutations are expressed
//! as [`UpdateOp`]s, applied through [`crate::InGrassEngine::apply_batch`],
//! and accounted in an [`UpdateLedger`] whose drift tracker decides — via
//! the configured [`crate::DriftPolicy`] — when the cached LRD embedding has
//! gone stale enough that a re-setup pays for itself.

use crate::config::UpdateConfig;
use crate::error::InGrassError;
use crate::lrd::LrdHierarchy;
use ingrass_graph::NodeId;
use std::fmt;

/// One mutation of the underlying graph, streamed to the engine.
///
/// Node indices refer to the sparsifier's node space (nodes are fixed; the
/// engine neither adds nor removes vertices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateOp {
    /// A new edge `{u, v}` with weight `weight` entered the graph.
    Insert {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
        /// Positive finite edge weight.
        weight: f64,
    },
    /// The edge `{u, v}` left the graph.
    Delete {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// The edge `{u, v}` changed weight to `weight` (absolute, not a delta).
    Reweight {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
        /// New positive finite edge weight.
        weight: f64,
    },
}

impl UpdateOp {
    /// The operation's endpoints `(u, v)`.
    pub fn endpoints(&self) -> (usize, usize) {
        match *self {
            UpdateOp::Insert { u, v, .. }
            | UpdateOp::Delete { u, v }
            | UpdateOp::Reweight { u, v, .. } => (u, v),
        }
    }

    /// The weight payload, if the variant carries one.
    pub fn weight(&self) -> Option<f64> {
        match *self {
            UpdateOp::Insert { weight, .. } | UpdateOp::Reweight { weight, .. } => Some(weight),
            UpdateOp::Delete { .. } => None,
        }
    }
}

/// Checks a batch for a sparsifier on `num_nodes` nodes before any of it
/// is applied. Every writer runs this one check first —
/// [`crate::InGrassEngine::apply_batch`], [`crate::ShardedEngine::apply_batch`],
/// and the durable store before it logs a batch — so all of them refuse
/// the same inputs with the same error, and nothing they refuse is ever
/// applied in part or written to a log.
///
/// # Errors
/// [`InGrassError::InvalidConfig`] if `target_condition` is NaN or
/// below 2;
/// [`InGrassError::Graph`] if an operation references a node
/// `≥ num_nodes`, is a self-loop, or carries a weight that is not finite
/// and positive.
pub fn validate_batch(ops: &[UpdateOp], cfg: &UpdateConfig, num_nodes: usize) -> crate::Result<()> {
    if cfg.target_condition.is_nan() || cfg.target_condition < 2.0 {
        return Err(InGrassError::InvalidConfig(format!(
            "target condition must be ≥ 2, got {}",
            cfg.target_condition
        )));
    }
    for op in ops {
        let (u, v) = op.endpoints();
        if u >= num_nodes || v >= num_nodes {
            return Err(InGrassError::Graph(format!(
                "edge ({u},{v}) out of bounds for {num_nodes} nodes"
            )));
        }
        if u == v {
            return Err(InGrassError::Graph(format!("self-loop at node {u}")));
        }
        if let Some(w) = op.weight() {
            if w <= 0.0 || !w.is_finite() {
                return Err(InGrassError::Graph(format!(
                    "edge ({u},{v}) has invalid weight {w}"
                )));
            }
        }
    }
    Ok(())
}

/// Replays update operations onto a plain [`ingrass_graph::DynGraph`] —
/// the ground-truth mirror of a stream: inserts add (or merge onto) the
/// edge, deletes and reweights of edges the graph does not carry are
/// silently skipped (the vacuous-op contract, matching the churn
/// generator's whole-stream `apply_to`). This is how benches, examples,
/// and tests keep the *original* graph in lockstep with the ops they feed
/// [`crate::InGrassEngine::apply_batch`].
///
/// # Errors
/// [`crate::InGrassError::Graph`] if an insert is invalid for the graph
/// (out-of-bounds endpoint, self-loop, non-positive weight).
pub fn replay_ops(graph: &mut ingrass_graph::DynGraph, ops: &[UpdateOp]) -> crate::Result<()> {
    for op in ops {
        match *op {
            UpdateOp::Insert { u, v, weight } => {
                graph.add_edge(u.into(), v.into(), weight)?;
            }
            UpdateOp::Delete { u, v } => {
                graph.remove_edge(u.into(), v.into());
            }
            UpdateOp::Reweight { u, v, weight } => {
                if let Some(id) = graph.edge_id(u.into(), v.into()) {
                    graph.set_weight(id, weight)?;
                }
            }
        }
    }
    Ok(())
}

/// Why the drift tracker asked for a re-setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResetupReason {
    /// Deleted weight exceeded the configured fraction of the sparsifier
    /// weight at the last (re)setup.
    DeletedWeight,
    /// Accumulated churn distortion exceeded the leverage budget.
    Distortion,
    /// A single cluster absorbed more stale operations than allowed.
    ClusterStaleness,
}

impl fmt::Display for ResetupReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResetupReason::DeletedWeight => write!(f, "deleted-weight fraction"),
            ResetupReason::Distortion => write!(f, "accumulated distortion"),
            ResetupReason::ClusterStaleness => write!(f, "cluster staleness"),
        }
    }
}

/// Accumulated spectral drift since the last (re)setup.
///
/// Two signals: the *weight* the sparsifier has lost (deletions and
/// down-weights, as a fraction of the weight at setup) and the *leverage*
/// the churn has touched — `Σ w·R̂` over deleted/reweighted edges, measured
/// against the total leverage `Σ_{e∈H} w(e)·R(e) ≈ n−1` of the whole
/// sparsifier. Both are cheap running sums; neither needs a solve.
#[derive(Debug, Clone)]
pub struct DriftTracker {
    initial_weight: f64,
    nodes: usize,
    deleted_weight: f64,
    accumulated_distortion: f64,
    stale_ops: usize,
}

impl DriftTracker {
    fn new(initial_weight: f64, nodes: usize) -> Self {
        DriftTracker {
            initial_weight: initial_weight.max(0.0),
            nodes,
            deleted_weight: 0.0,
            accumulated_distortion: 0.0,
            stale_ops: 0,
        }
    }

    fn record(&mut self, removed_weight: f64, rhat: f64) {
        self.deleted_weight += removed_weight.max(0.0);
        if rhat.is_finite() {
            self.accumulated_distortion += removed_weight.max(0.0) * rhat;
        }
        self.stale_ops += 1;
    }

    /// Weight removed since setup as a fraction of the weight at setup.
    ///
    /// Guarded against a degenerate baseline: an engine set up from a
    /// zero-weight/empty sparsifier (a single-node graph) has
    /// `initial_weight == 0`, and an unguarded division would yield `NaN`
    /// (or, with a clamped denominator, an absurdly huge fraction) — either
    /// of which breaks `should_resetup` comparisons. With nothing deleted
    /// the fraction is 0; weight somehow removed from a zero-weight start
    /// counts as total loss (1.0 per unit, saturating the policy).
    pub fn deleted_weight_fraction(&self) -> f64 {
        if self.deleted_weight <= 0.0 {
            0.0
        } else if self.initial_weight <= 0.0 {
            f64::MAX
        } else {
            self.deleted_weight / self.initial_weight
        }
    }

    /// Accumulated `Σ w·R̂` over churn operations since setup.
    pub fn accumulated_distortion(&self) -> f64 {
        self.accumulated_distortion
    }

    /// Accumulated distortion relative to the sparsifier's total leverage
    /// (`Σ_{e∈H} w·R = n−1` with exact resistances).
    pub fn distortion_fraction(&self) -> f64 {
        self.accumulated_distortion / ((self.nodes.saturating_sub(1)).max(1) as f64)
    }

    /// Deletions/reweights recorded since setup.
    pub fn stale_ops(&self) -> usize {
        self.stale_ops
    }
}

/// Per-cluster staleness counters at every LRD level.
///
/// A delete or reweight of `{u, v}` invalidates the resistance-diameter
/// bound of the *first* cluster containing both endpoints — that diameter
/// was certified by paths that may have used the churned edge. The tracker
/// counts invalidations per cluster; the maximum feeds the drift policy.
#[derive(Debug, Clone)]
pub struct StalenessTracker {
    counts: Vec<Vec<u32>>,
    max: u32,
}

impl StalenessTracker {
    fn new(hierarchy: &LrdHierarchy) -> Self {
        StalenessTracker {
            counts: hierarchy
                .levels()
                .iter()
                .map(|l| vec![0u32; l.num_clusters])
                .collect(),
            max: 0,
        }
    }

    fn touch(&mut self, hierarchy: &LrdHierarchy, u: NodeId, v: NodeId) {
        if let Some(level) = hierarchy.first_common_level(u, v) {
            let c = hierarchy.level(level).cluster_of[u.index()] as usize;
            let slot = &mut self.counts[level][c];
            *slot = slot.saturating_add(1);
            self.max = self.max.max(*slot);
        }
    }

    /// The largest per-cluster staleness count.
    pub fn max_staleness(&self) -> u32 {
        self.max
    }

    /// Staleness count of cluster `c` at `level`.
    ///
    /// # Panics
    /// Panics if `level` or `c` is out of bounds.
    pub fn staleness(&self, level: usize, c: u32) -> u32 {
        self.counts[level][c as usize]
    }
}

/// The ledger all mutations flow through: operation counters, the drift
/// tracker, and the per-cluster staleness counters, reset at every
/// (re)setup epoch.
#[derive(Debug, Clone)]
pub struct UpdateLedger {
    inserts: usize,
    deletes: usize,
    reweights: usize,
    relinks: usize,
    vacuous: usize,
    resetups: usize,
    drift: DriftTracker,
    staleness: StalenessTracker,
}

impl UpdateLedger {
    pub(crate) fn new(initial_weight: f64, hierarchy: &LrdHierarchy) -> Self {
        UpdateLedger {
            inserts: 0,
            deletes: 0,
            reweights: 0,
            relinks: 0,
            vacuous: 0,
            resetups: 0,
            drift: DriftTracker::new(initial_weight, hierarchy.num_nodes()),
            staleness: StalenessTracker::new(hierarchy),
        }
    }

    /// Starts a new epoch after a re-setup: drift and staleness reset, the
    /// lifetime operation counters and the re-setup count survive.
    pub(crate) fn begin_epoch(&mut self, initial_weight: f64, hierarchy: &LrdHierarchy) {
        self.resetups += 1;
        self.drift = DriftTracker::new(initial_weight, hierarchy.num_nodes());
        self.staleness = StalenessTracker::new(hierarchy);
    }

    pub(crate) fn note_insert(&mut self) {
        self.inserts += 1;
    }

    pub(crate) fn note_delete(
        &mut self,
        hierarchy: &LrdHierarchy,
        u: NodeId,
        v: NodeId,
        removed_weight: f64,
        rhat: f64,
        relinked: bool,
    ) {
        self.deletes += 1;
        if relinked {
            self.relinks += 1;
        }
        self.drift.record(removed_weight, rhat);
        self.staleness.touch(hierarchy, u, v);
    }

    pub(crate) fn note_reweight(
        &mut self,
        hierarchy: &LrdHierarchy,
        u: NodeId,
        v: NodeId,
        removed_weight: f64,
        rhat: f64,
    ) {
        self.reweights += 1;
        self.drift.record(removed_weight, rhat);
        self.staleness.touch(hierarchy, u, v);
    }

    pub(crate) fn note_vacuous(&mut self, hierarchy: &LrdHierarchy, u: NodeId, v: NodeId) {
        self.vacuous += 1;
        // The underlying graph changed in a way the sparsifier never
        // represented; the containing cluster's bound is still weakened.
        self.drift.stale_ops += 1;
        self.staleness.touch(hierarchy, u, v);
    }

    /// Evaluates the drift policy; `Some(reason)` means a re-setup is due.
    pub(crate) fn should_resetup(&self, policy: &crate::DriftPolicy) -> Option<ResetupReason> {
        if !policy.auto_resetup {
            return None;
        }
        if self.drift.deleted_weight_fraction() > policy.max_deleted_weight_fraction {
            return Some(ResetupReason::DeletedWeight);
        }
        if self.drift.distortion_fraction() > policy.max_distortion_fraction {
            return Some(ResetupReason::Distortion);
        }
        if self.staleness.max_staleness() > policy.max_cluster_staleness {
            return Some(ResetupReason::ClusterStaleness);
        }
        None
    }

    /// Insert operations applied over the engine's lifetime.
    pub fn inserts(&self) -> usize {
        self.inserts
    }

    /// Delete operations applied over the engine's lifetime.
    pub fn deletes(&self) -> usize {
        self.deletes
    }

    /// Reweight operations applied over the engine's lifetime.
    pub fn reweights(&self) -> usize {
        self.reweights
    }

    /// Bridge deletions converted into re-links (subset of `deletes`).
    pub fn relinks(&self) -> usize {
        self.relinks
    }

    /// Deletes/reweights of edges the sparsifier never carried.
    pub fn vacuous(&self) -> usize {
        self.vacuous
    }

    /// Automatic re-setups performed so far.
    pub fn resetups(&self) -> usize {
        self.resetups
    }

    /// The current epoch's drift tracker.
    pub fn drift(&self) -> &DriftTracker {
        &self.drift
    }

    /// The current epoch's staleness counters.
    pub fn staleness(&self) -> &StalenessTracker {
        &self.staleness
    }

    /// Exports the exact ledger state for persistence — including the
    /// drift tracker's running sums, which decide *future* re-setup
    /// points and therefore must survive a restart bit-for-bit.
    pub(crate) fn export_state(&self) -> crate::state::LedgerState {
        crate::state::LedgerState {
            inserts: self.inserts,
            deletes: self.deletes,
            reweights: self.reweights,
            relinks: self.relinks,
            vacuous: self.vacuous,
            resetups: self.resetups,
            drift_initial_weight: self.drift.initial_weight,
            drift_nodes: self.drift.nodes,
            drift_deleted_weight: self.drift.deleted_weight,
            drift_accumulated_distortion: self.drift.accumulated_distortion,
            drift_stale_ops: self.drift.stale_ops,
            staleness_counts: self.staleness.counts.clone(),
            staleness_max: self.staleness.max,
        }
    }

    /// Rebuilds a ledger from persisted state (the inverse of
    /// [`UpdateLedger::export_state`]).
    pub(crate) fn from_state(state: &crate::state::LedgerState) -> Self {
        UpdateLedger {
            inserts: state.inserts,
            deletes: state.deletes,
            reweights: state.reweights,
            relinks: state.relinks,
            vacuous: state.vacuous,
            resetups: state.resetups,
            drift: DriftTracker {
                initial_weight: state.drift_initial_weight,
                nodes: state.drift_nodes,
                deleted_weight: state.drift_deleted_weight,
                accumulated_distortion: state.drift_accumulated_distortion,
                stale_ops: state.drift_stale_ops,
            },
            staleness: StalenessTracker {
                counts: state.staleness_counts.clone(),
                max: state.staleness_max,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriftPolicy;
    use ingrass_graph::Graph;

    fn tiny_hierarchy() -> LrdHierarchy {
        // A 4-path with unit resistances: levels singleton → coarser → root.
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let r = vec![1.0; 3];
        LrdHierarchy::build(&g, &r, Some(1.0), 4.0, 64).unwrap()
    }

    #[test]
    fn drift_fractions_accumulate() {
        let h = tiny_hierarchy();
        let mut ledger = UpdateLedger::new(10.0, &h);
        ledger.note_delete(&h, 0.into(), 1.into(), 2.0, 1.5, false);
        ledger.note_reweight(&h, 1.into(), 2.into(), 1.0, 2.0);
        assert_eq!(ledger.deletes(), 1);
        assert_eq!(ledger.reweights(), 1);
        assert!((ledger.drift().deleted_weight_fraction() - 0.3).abs() < 1e-12);
        assert!((ledger.drift().accumulated_distortion() - 5.0).abs() < 1e-12);
        assert_eq!(ledger.drift().stale_ops(), 2);
    }

    #[test]
    fn zero_weight_baseline_never_yields_nan_and_resetup_stays_decidable() {
        // Regression: dividing by an (effectively) zero initial weight made
        // the deleted-weight fraction NaN/absurd, so `should_resetup`
        // either never fired or fired on the first vacuous deletion.
        let h = tiny_hierarchy();
        let ledger = UpdateLedger::new(0.0, &h);
        let f = ledger.drift().deleted_weight_fraction();
        assert_eq!(f, 0.0, "nothing deleted: fraction must be exactly 0");
        assert!(f.is_finite());
        assert!(ledger.should_resetup(&DriftPolicy::default()).is_none());

        // Weight actually removed against a zero baseline counts as total
        // loss and saturates the policy (finite, not NaN).
        let mut ledger = UpdateLedger::new(0.0, &h);
        ledger.note_delete(&h, 0.into(), 1.into(), 0.5, 1.0, false);
        let f = ledger.drift().deleted_weight_fraction();
        assert!(!f.is_nan() && f > 1.0);
        assert_eq!(
            ledger.should_resetup(&DriftPolicy::default()),
            Some(ResetupReason::DeletedWeight)
        );
    }

    #[test]
    fn staleness_counts_first_common_cluster() {
        let h = tiny_hierarchy();
        let mut ledger = UpdateLedger::new(1.0, &h);
        assert_eq!(ledger.staleness().max_staleness(), 0);
        ledger.note_delete(&h, 0.into(), 1.into(), 0.1, 1.0, false);
        ledger.note_delete(&h, 0.into(), 1.into(), 0.1, 1.0, false);
        assert_eq!(ledger.staleness().max_staleness(), 2);
        let level = h.first_common_level(0.into(), 1.into()).unwrap();
        let c = h.level(level).cluster_of[0];
        assert_eq!(ledger.staleness().staleness(level, c), 2);
    }

    #[test]
    fn policy_thresholds_trigger_in_order() {
        let h = tiny_hierarchy();
        let mut ledger = UpdateLedger::new(1.0, &h);
        let policy = DriftPolicy {
            max_deleted_weight_fraction: 0.5,
            max_distortion_fraction: 1e9,
            max_cluster_staleness: u32::MAX,
            auto_resetup: true,
        };
        assert_eq!(ledger.should_resetup(&policy), None);
        ledger.note_delete(&h, 0.into(), 1.into(), 0.6, 1.0, false);
        assert_eq!(
            ledger.should_resetup(&policy),
            Some(ResetupReason::DeletedWeight)
        );
        // Master switch wins over every threshold.
        let off = DriftPolicy {
            auto_resetup: false,
            ..policy
        };
        assert_eq!(ledger.should_resetup(&off), None);
    }

    #[test]
    fn epoch_reset_preserves_lifetime_counters() {
        let h = tiny_hierarchy();
        let mut ledger = UpdateLedger::new(1.0, &h);
        ledger.note_insert();
        ledger.note_delete(&h, 0.into(), 1.into(), 0.5, 1.0, true);
        ledger.note_vacuous(&h, 2.into(), 3.into());
        ledger.begin_epoch(2.0, &h);
        assert_eq!(ledger.resetups(), 1);
        assert_eq!(ledger.inserts(), 1);
        assert_eq!(ledger.deletes(), 1);
        assert_eq!(ledger.relinks(), 1);
        assert_eq!(ledger.vacuous(), 1);
        assert_eq!(ledger.drift().stale_ops(), 0);
        assert_eq!(ledger.staleness().max_staleness(), 0);
    }

    #[test]
    fn update_op_accessors() {
        let ops = [
            UpdateOp::Insert {
                u: 1,
                v: 2,
                weight: 0.5,
            },
            UpdateOp::Delete { u: 3, v: 4 },
            UpdateOp::Reweight {
                u: 5,
                v: 6,
                weight: 2.0,
            },
        ];
        assert_eq!(ops[0].endpoints(), (1, 2));
        assert_eq!(ops[1].endpoints(), (3, 4));
        assert_eq!(ops[2].endpoints(), (5, 6));
        assert_eq!(ops[0].weight(), Some(0.5));
        assert_eq!(ops[1].weight(), None);
        assert_eq!(ops[2].weight(), Some(2.0));
    }
}
