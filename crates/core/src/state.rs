//! Exact, serializable engine state — the contract between the core crate
//! and the persistence layer (`ingrass-store`).
//!
//! Recovery must be *bit-exact*: the parity proptests pin that an engine
//! restored from a snapshot plus a replayed WAL tail produces the same
//! sparsifier edges, factor values, and ledger decisions as an engine that
//! ran straight through. That rules out "rebuild from the graph" shortcuts
//! for two structures:
//!
//! * the [`crate::ClusterConnectivity`] index is maintained
//!   *incrementally* — a deletion drops a cluster-pair entry only when its
//!   representative edge died, without re-indexing other live crossing
//!   edges, so a fresh `build()` over the restored graph can disagree with
//!   the maintained index and change later merge/redistribute decisions;
//! * the serving layer's live Cholesky factor accumulates rank-1 patches,
//!   so a factor refactorized at load time differs in rounding from the
//!   continuously patched one.
//!
//! Hence every structure exports its exact fields. Two kinds of state are
//! deliberately *not* persisted because they are unobservable: the
//! engine's probe-mark scratch (each connectivity probe stamps two fresh
//! marks) restores to zeros, and the process-unique `instance_id` is
//! regenerated so external caches never confuse a restored engine with the
//! original.
//!
//! Determinism caveats encoded here: the connectivity maps' outer HashMap
//! keys are sorted for deterministic bytes, but the *inner* intra-edge
//! lists are kept verbatim — the redistribute path accumulates weight
//! shares in list order, so reordering them would perturb floating-point
//! sums.

use crate::config::SetupConfig;
use crate::lrd::LrdLevel;
use crate::report::SetupReport;
use crate::snapshot::FactorPolicy;
use ingrass_linalg::CholeskyState;

/// Exact state of a [`crate::ClusterConnectivity`] index.
///
/// Outer maps are flattened to key-sorted vectors (deterministic bytes);
/// inner intra-edge lists keep their maintained order verbatim (the
/// redistribute path is order-sensitive in floating point).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectivityState {
    /// Per level: sorted `(cluster_a, cluster_b, representative edge id)`.
    pub pair_maps: Vec<Vec<(u32, u32, u32)>>,
    /// Per level: sorted by cluster, each with its intra-edge id list in
    /// maintained order (possibly containing dead ids — lazily compacted).
    pub intra_maps: Vec<Vec<(u32, Vec<u32>)>>,
    /// Per level: sorted `(cluster, dead entry count)` for the lazy
    /// compaction bookkeeping.
    pub intra_dead: Vec<Vec<(u32, u32)>>,
}

/// Exact state of an [`crate::UpdateLedger`], including the drift tracker
/// whose running sums decide future re-setup points.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerState {
    /// Lifetime insert count.
    pub inserts: usize,
    /// Lifetime delete count.
    pub deletes: usize,
    /// Lifetime reweight count.
    pub reweights: usize,
    /// Lifetime re-link count.
    pub relinks: usize,
    /// Lifetime vacuous-operation count.
    pub vacuous: usize,
    /// Re-setups performed (the engine epoch).
    pub resetups: usize,
    /// Drift tracker: sparsifier weight at the current epoch's setup.
    pub drift_initial_weight: f64,
    /// Drift tracker: node count at the current epoch's setup.
    pub drift_nodes: usize,
    /// Drift tracker: weight deleted since the current epoch began.
    pub drift_deleted_weight: f64,
    /// Drift tracker: accumulated churn distortion `Σ w·R̂`.
    pub drift_accumulated_distortion: f64,
    /// Drift tracker: stale operations since the current epoch began.
    pub drift_stale_ops: usize,
    /// Per-level, per-cluster staleness counters.
    pub staleness_counts: Vec<Vec<u32>>,
    /// Largest staleness count seen this epoch.
    pub staleness_max: u32,
}

/// Exact state of an [`crate::InGrassEngine`].
///
/// Produced by [`crate::InGrassEngine::export_state`]; consumed (with
/// validation) by [`crate::InGrassEngine::from_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Node count of the sparsifier.
    pub num_nodes: usize,
    /// The LRD hierarchy, level by level.
    pub levels: Vec<LrdLevel>,
    /// The cluster-connectivity index, exactly as maintained.
    pub connectivity: ConnectivityState,
    /// The sparsifier's edge-slot array including tombstones
    /// ([`ingrass_graph::DynGraph::edge_slots`]) — positions are edge ids.
    pub edge_slots: Vec<Option<(u32, u32, f64)>>,
    /// Per-edge merged surplus, indexed by edge id.
    pub surplus: Vec<f64>,
    /// Setup-phase statistics. The counts are those of the last
    /// (re)setup; its wall-clock durations are process-local and export
    /// as zero ([`crate::InGrassEngine::export_state`]).
    pub setup_report: SetupReport,
    /// The retained setup configuration (drift policy included).
    pub setup_cfg: SetupConfig,
    /// Undrained edge-weight delta journal.
    pub deltas: Vec<(u32, u32, f64)>,
    /// The operation ledger.
    pub ledger: LedgerState,
    /// Stream operations processed so far.
    pub updates_applied: usize,
    /// Monotone engine state version.
    pub version: u64,
}

/// Exact state of a [`crate::SparsifierPrecond`] (grounded factor).
///
/// Carries `built_nnz` / `order_base_nnz` explicitly: a patched factor's
/// current nnz differs from its nnz at the last rebuild, and recomputing
/// either at restore time would shift the fill-budget and
/// ordering-staleness decisions away from the original engine's.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecondState {
    /// Full sparsifier dimension (including the grounded node).
    pub n: usize,
    /// The grounded-out node.
    pub ground: usize,
    /// Engine epoch the factor was built at.
    pub epoch: u64,
    /// Stored factor entries at the last (re)build.
    pub built_nnz: usize,
    /// Stored factor entries when the elimination ordering was computed.
    pub order_base_nnz: usize,
    /// The exact Cholesky factor state.
    pub chol: CholeskyState,
}

/// Exact state of a [`crate::SnapshotEngine`]: the wrapped engine plus the
/// serving layer's incrementally maintained factor and its policy
/// counters.
///
/// Produced by [`crate::SnapshotEngine::export_state`]; consumed by
/// [`crate::SnapshotEngine::from_state`]. This is the payload the store
/// crate serializes into durable snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingState {
    /// The wrapped engine's state.
    pub engine: EngineState,
    /// The live factor, with accumulated rank-1 patches intact.
    pub factor: PrecondState,
    /// Whether the live factor is numerically usable.
    pub factor_valid: bool,
    /// Publish sequence number (snapshots published so far).
    pub sequence: u64,
    /// The factor-maintenance policy.
    pub factor_policy: FactorPolicy,
    /// Consecutive incremental publishes since the last rebuild.
    pub updates_since_refactor: u64,
    /// Lifetime incremental factor patches.
    pub factor_updates: u64,
    /// Lifetime factor rebuilds.
    pub factor_refactors: u64,
}

/// Exact state of a [`crate::ShardedEngine`]: every shard engine, the
/// routing assignment, the boundary edge list, the global hierarchy, and
/// the coordinator's drift counters.
///
/// Produced by [`crate::ShardedEngine::export_state`]; consumed by
/// [`crate::ShardedEngine::from_state`]. Per-shard latency histograms
/// are process-local wall-clock measurements and are deliberately not
/// persisted (they restart empty); per-shard *op* counters are, so
/// imbalance statistics survive a restore.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedState {
    /// Each shard engine's state, by shard index.
    pub shards: Vec<EngineState>,
    /// Node → shard assignment (the persisted form of the routing table;
    /// local index maps are reconstructed from it).
    pub shard_of: Vec<u32>,
    /// The hierarchy level whose clusters seeded the partition.
    pub routing_level: usize,
    /// Cross-shard boundary edges `(u, v, w)` in canonical order.
    pub boundary_edges: Vec<(u32, u32, f64)>,
    /// The global LRD hierarchy's levels (per-level cluster labels).
    pub levels: Vec<LrdLevel>,
    /// The coordinator's setup configuration (the user's drift policy —
    /// shard engines persist their own drift-disabled copies).
    pub setup_cfg: SetupConfig,
    /// Requested shard count ([`crate::ShardedConfig::shards`]).
    pub shard_count: usize,
    /// Thread override ([`crate::ShardedConfig::threads`]).
    pub threads: Option<usize>,
    /// Publish sequence number (snapshots published so far).
    pub sequence: u64,
    /// Coordinator epoch (global re-setups so far).
    pub epoch: u64,
    /// Coordinator state version.
    pub version: u64,
    /// Operations routed through the coordinator so far.
    pub updates_applied: usize,
    /// Boundary deletions converted into re-link edges so far.
    pub boundary_relinks: u64,
    /// Boundary weight baseline of the current epoch (drift denominator).
    pub boundary_epoch_weight: f64,
    /// Boundary weight deleted in the current epoch (drift numerator).
    pub boundary_deleted_weight: f64,
    /// Lifetime operations applied per shard.
    pub per_shard_ops: Vec<u64>,
}
