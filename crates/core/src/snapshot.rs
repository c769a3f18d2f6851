//! Snapshot-isolated serving: the engine's ownership story refactored from
//! `&mut`-everywhere to publish/subscribe.
//!
//! The incremental engine is inherently single-writer — every mutation
//! rethreads the sparsifier, the connectivity index, and the ledger — but
//! the *consumers* of the sparsifier (Laplacian solves, effective-resistance
//! queries, condition monitoring) are read-only and embarrassingly
//! concurrent. [`SnapshotEngine`] splits the two roles:
//!
//! * the **writer** owns the [`crate::InGrassEngine`] and applies update
//!   batches exactly as before; after every state-changing batch it
//!   *publishes* an immutable [`SparsifierSnapshot`];
//! * any number of **readers** hold a cheap [`SnapshotReader`] handle and
//!   load the current snapshot whenever they start a piece of work. A
//!   reader keeps using the snapshot it loaded for as long as it likes —
//!   the writer never invalidates memory out from under it (the snapshot is
//!   `Arc`-shared and dropped only when the last holder lets go).
//!
//! Publication is a pointer swap under a briefly-held lock: readers block
//! the writer only for the nanoseconds of the swap itself, never for the
//! duration of a solve, and the writer blocks readers only while replacing
//! one `Arc`. Staleness is explicit and bounded: a reader's view is the
//! state as of the [`SparsifierSnapshot::version`] it loaded, and the
//! `(instance_id, epoch, version)` tag says exactly which state that is.

use crate::config::SetupConfig;
use crate::engine::InGrassEngine;
use crate::error::InGrassError;
use crate::ledger::UpdateOp;
use crate::lrd::LrdHierarchy;
use crate::precond::SparsifierPrecond;
use crate::report::{PhaseTimer, UpdateReport};
use crate::shard::StitchedPrecond;
use crate::{Result, UpdateConfig};
use ingrass_graph::{Graph, NodeId};
use ingrass_linalg::{CsrMatrix, Preconditioner};
use ingrass_metrics::ShardStats;
use std::sync::{Arc, RwLock};

/// The preconditioner a snapshot carries: the single-engine grounded
/// Cholesky factor, or the sharded engine's Schur-complement-stitched
/// block factor. Both are exact solves of the snapshot's sparsifier
/// Laplacian, so every consumer (PCG preconditioning, exact
/// effective-resistance queries) treats them uniformly through
/// [`Preconditioner`].
#[derive(Debug, Clone)]
pub enum SnapshotPrecond {
    /// One grounded sparse Cholesky factor of the whole sparsifier.
    Mono(SparsifierPrecond),
    /// Per-shard interior factors stitched over the boundary Schur
    /// complement ([`crate::ShardedEngine`]).
    Sharded(StitchedPrecond),
}

impl SnapshotPrecond {
    /// Stored factor entries (all blocks for the sharded variant).
    pub fn factor_nnz(&self) -> usize {
        match self {
            SnapshotPrecond::Mono(p) => p.factor_nnz(),
            SnapshotPrecond::Sharded(p) => p.factor_nnz(),
        }
    }

    /// Estimated numeric-refactorization work of the factor's pattern.
    pub fn factor_flops(&self) -> f64 {
        match self {
            SnapshotPrecond::Mono(p) => p.factor_flops(),
            SnapshotPrecond::Sharded(p) => p.factor_flops(),
        }
    }

    /// The engine (or coordinator) epoch the factor was built at.
    pub fn epoch(&self) -> u64 {
        match self {
            SnapshotPrecond::Mono(p) => p.epoch(),
            SnapshotPrecond::Sharded(p) => p.epoch(),
        }
    }

    /// The node whose row/column was grounded out (always 0 today).
    pub fn ground_node(&self) -> usize {
        match self {
            SnapshotPrecond::Mono(p) => p.ground_node(),
            SnapshotPrecond::Sharded(p) => p.ground_node(),
        }
    }
}

impl Preconditioner for SnapshotPrecond {
    fn dim(&self) -> usize {
        match self {
            SnapshotPrecond::Mono(p) => p.dim(),
            SnapshotPrecond::Sharded(p) => p.dim(),
        }
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            SnapshotPrecond::Mono(p) => p.apply(r, z),
            SnapshotPrecond::Sharded(p) => p.apply(r, z),
        }
    }

    fn apply_block(&self, r: &[f64], z: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
        match self {
            SnapshotPrecond::Mono(p) => p.apply_block(r, z, k, scratch),
            SnapshotPrecond::Sharded(p) => p.apply_block(r, z, k, scratch),
        }
    }
}

/// Aggregate resistance statistics of a snapshot's sparsifier, computed
/// from the hierarchy's `O(log N)` resistance bounds at publish time.
///
/// These are the serving-side analogue of the drift tracker: a reader can
/// judge how much spectral mass its (possibly stale) view carries without
/// touching the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResistanceSummary {
    /// Live sparsifier edges at publish time.
    pub edges: usize,
    /// Total sparsifier edge weight.
    pub total_weight: f64,
    /// Σ `w·R̂` over all sparsifier edges — the total estimated spectral
    /// mass (compare against `n − 1`, the value for an ideal sparsifier).
    pub total_distortion: f64,
    /// Largest single-edge `w·R̂` contribution.
    pub max_edge_distortion: f64,
}

/// An immutable, epoch-tagged view of the sparsifier, published by a
/// [`SnapshotEngine`] and shared by reference counting.
///
/// # Invariants
///
/// * **Immutability** — nothing behind this type ever changes after
///   [`SnapshotEngine::publish`] returns. Every field is plain owned data
///   (or an `Arc` to data that is itself frozen for the snapshot's epoch),
///   so a snapshot may be read from any number of threads without
///   synchronization. The type is `Send + Sync`.
/// * **Internal consistency** — [`SparsifierSnapshot::graph`],
///   [`SparsifierSnapshot::laplacian`], and
///   [`SparsifierSnapshot::preconditioner`] all describe the *same* state
///   of the sparsifier: the Laplacian is built from the graph, and the
///   grounded Cholesky factor is exact for that Laplacian — applying the
///   preconditioner to a consistent right-hand side solves `L_H x = b` in
///   one shot (PCG against [`SparsifierSnapshot::laplacian`] converges in
///   ≤ 2 iterations).
/// * **Tagging** — `(instance_id, epoch, version)` equals the owning
///   engine's [`crate::InGrassEngine::instance_id`] /
///   [`crate::InGrassEngine::epoch`] / [`crate::InGrassEngine::version`]
///   at publish time. Snapshots from one engine are totally ordered by
///   `version`; `epoch` moves only at re-setups.
/// * **Checksum** — [`SparsifierSnapshot::checksum`] was computed over the
///   Laplacian's CSR arrays (plus the tag) at publish time;
///   [`SparsifierSnapshot::verify_checksum`] recomputes it. A mismatch
///   would mean a torn publish — which the `Arc`-swap protocol makes
///   impossible, and the concurrency suites assert exactly that.
/// * **Longevity** — a snapshot outlives engine churn: re-setups and
///   further batches never touch it, so a reader holding an old epoch's
///   snapshot keeps getting exact answers *for that epoch's state*.
///   Dropping the last `Arc` frees the factor with it.
#[derive(Debug)]
pub struct SparsifierSnapshot {
    instance_id: u64,
    epoch: u64,
    version: u64,
    sequence: u64,
    graph: Graph,
    laplacian: Arc<CsrMatrix>,
    precond: SnapshotPrecond,
    hierarchy: Arc<LrdHierarchy>,
    resistance: ResistanceSummary,
    checksum: u64,
}

/// FNV-1a over a byte slice, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl SparsifierSnapshot {
    /// Builds a snapshot of the engine's current state. `hierarchy` must be
    /// a clone of the engine's hierarchy at its current epoch, and
    /// `precond` a factor consistent with the engine's current sparsifier
    /// (the [`SnapshotEngine`] hands in a clone of the live factor it
    /// maintains incrementally).
    fn capture(
        engine: &InGrassEngine,
        hierarchy: Arc<LrdHierarchy>,
        sequence: u64,
        precond: SparsifierPrecond,
    ) -> Result<SparsifierSnapshot> {
        SparsifierSnapshot::assemble(
            engine.instance_id(),
            engine.epoch(),
            engine.version(),
            sequence,
            engine.sparsifier_graph(),
            SnapshotPrecond::Mono(precond),
            hierarchy,
        )
    }

    /// Builds a snapshot from already-materialised parts. This is the
    /// publish path shared by [`SnapshotEngine`] (mono factor, engine
    /// tags) and [`crate::ShardedEngine`] (stitched factor, coordinator
    /// tags); `graph` and `precond` must describe the same sparsifier
    /// state, and `hierarchy` the epoch's decomposition.
    pub(crate) fn assemble(
        instance_id: u64,
        epoch: u64,
        version: u64,
        sequence: u64,
        graph: Graph,
        precond: SnapshotPrecond,
        hierarchy: Arc<LrdHierarchy>,
    ) -> Result<SparsifierSnapshot> {
        let laplacian = Arc::new(graph.laplacian());

        let mut total_weight = 0.0;
        let mut total_distortion = 0.0;
        let mut max_edge_distortion = 0.0f64;
        for e in graph.edges() {
            total_weight += e.weight;
            let r = hierarchy.resistance_bound(e.u, e.v);
            if r.is_finite() {
                let d = e.weight * r;
                total_distortion += d;
                max_edge_distortion = max_edge_distortion.max(d);
            }
        }
        let resistance = ResistanceSummary {
            edges: graph.num_edges(),
            total_weight,
            total_distortion,
            max_edge_distortion,
        };

        let mut snap = SparsifierSnapshot {
            instance_id,
            epoch,
            version,
            sequence,
            graph,
            laplacian,
            precond,
            hierarchy,
            resistance,
            checksum: 0,
        };
        snap.checksum = snap.compute_checksum();
        Ok(snap)
    }

    /// Checksum over the Laplacian CSR arrays and the snapshot tag.
    fn compute_checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv1a(h, &self.instance_id.to_le_bytes());
        h = fnv1a(h, &self.epoch.to_le_bytes());
        h = fnv1a(h, &self.version.to_le_bytes());
        h = fnv1a(h, &(self.laplacian.n_rows() as u64).to_le_bytes());
        for r in 0..self.laplacian.n_rows() {
            let (cols, vals) = self.laplacian.row(r);
            for &c in cols {
                h = fnv1a(h, &c.to_le_bytes());
            }
            for &v in vals {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// The owning engine's process-unique identity
    /// ([`crate::InGrassEngine::instance_id`]).
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The engine epoch (re-setup count) this snapshot belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine's monotone state version at publish time. Snapshots of
    /// one engine are totally ordered by this field.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Publish sequence number within the owning [`SnapshotEngine`]
    /// (1 for the snapshot published by setup, then +1 per publish).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Node count of the sparsifier.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The frozen sparsifier graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The sparsifier Laplacian `L_H` in CSR form.
    pub fn laplacian(&self) -> &CsrMatrix {
        &self.laplacian
    }

    /// The Laplacian by shared handle — for callers (queues, services) that
    /// outlive the borrow.
    pub fn laplacian_arc(&self) -> Arc<CsrMatrix> {
        Arc::clone(&self.laplacian)
    }

    /// The exact factorisation of `L_H` — one grounded Cholesky factor for
    /// a [`SnapshotEngine`] publish, or a Schur-stitched block factor for a
    /// [`crate::ShardedEngine`] publish. Either way it solves this
    /// snapshot's sparsifier exactly, so it preconditions the original
    /// graph's Laplacian identically.
    pub fn preconditioner(&self) -> &SnapshotPrecond {
        &self.precond
    }

    /// Aggregate resistance statistics captured at publish time.
    pub fn resistance_summary(&self) -> &ResistanceSummary {
        &self.resistance
    }

    /// The hierarchy's `O(log N)` effective-resistance upper bound between
    /// two nodes — the same estimate the update phase ranks insertions by,
    /// served from the frozen epoch without touching the engine.
    pub fn resistance_bound(&self, u: NodeId, v: NodeId) -> f64 {
        self.hierarchy.resistance_bound(u, v)
    }

    /// *Exact* effective resistance between `u` and `v` in this snapshot's
    /// sparsifier, via one grounded-factor solve of `L_H x = e_u − e_v`.
    ///
    /// This is the resistance-serving workload: `O(nnz(L))` per query
    /// against a frozen view, with no iteration and no engine access.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of bounds.
    pub fn effective_resistance(&self, u: NodeId, v: NodeId) -> f64 {
        let n = self.num_nodes();
        assert!(u.index() < n && v.index() < n, "node out of bounds");
        if u == v {
            return 0.0;
        }
        let mut b = vec![0.0; n];
        b[u.index()] = 1.0;
        b[v.index()] = -1.0;
        let mut x = vec![0.0; n];
        self.precond.apply(&b, &mut x);
        x[u.index()] - x[v.index()]
    }

    /// The checksum computed over the Laplacian CSR arrays at publish time.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Recomputes the checksum and compares it against the value stored at
    /// publish time. `false` would indicate a torn snapshot; the stress
    /// suites call this from every reader thread.
    pub fn verify_checksum(&self) -> bool {
        self.compute_checksum() == self.checksum
    }
}

/// What one [`SnapshotEngine::publish`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishReport {
    /// Engine epoch of the published snapshot.
    pub epoch: u64,
    /// Engine version of the published snapshot.
    pub version: u64,
    /// Publish sequence number ([`SparsifierSnapshot::sequence`]).
    pub sequence: u64,
    /// Wall seconds spent building the snapshot (graph freeze + Laplacian
    /// assembly + factor maintenance + resistance summary) — the
    /// publish latency perfbench reports as `snapshot.publish_s`.
    pub publish_seconds: f64,
    /// Stored entries of the snapshot's Cholesky factor.
    pub factor_nnz: usize,
    /// Estimated numeric-refactorization work of the factor's pattern
    /// (`Σ` column-nnz²) — the cost model the `serve/<case>` flat-trend
    /// gate normalizes publish latency by.
    pub factor_flops: f64,
    /// Live sparsifier edges in the snapshot.
    pub edges: usize,
    /// Whether this publish patched the live factor with rank-1
    /// up/downdates (`true`) instead of refactorizing from scratch.
    pub factor_updated: bool,
    /// Cumulative incremental factor patches over the engine's lifetime.
    pub factor_updates: u64,
    /// Cumulative factor rebuilds over the engine's lifetime (includes the
    /// initial build at setup, epoch changes, fill-budget and numerical
    /// fallbacks, and the periodic drift-bounding rebuild).
    pub factor_refactors: u64,
    /// Per-shard work statistics for a [`crate::ShardedEngine`] publish;
    /// `None` for the single-engine [`SnapshotEngine`].
    pub shard: Option<ShardStats>,
}

/// Policy for maintaining the live Cholesky factor across publishes.
///
/// Publishes are served by the cheapest of three maintenance tiers:
///
/// 1. **Patch** — small batches apply one rank-1 update/downdate per net
///    edge-weight delta to the live factor. Cost scales with the batch,
///    not the graph.
/// 2. **Numeric refactorization** — batches too large to patch profitably
///    (see [`FactorPolicy::max_patch_fraction`]), fill-budget overruns,
///    downdate breakdowns, and the drift backstop refactor numerically
///    under the *cached* elimination ordering. Computing a fill-reducing
///    ordering dominates a full rebuild, and within one epoch the
///    sparsifier's shape drifts slowly, so reusing the ordering keeps this
///    tier cheap and its cost flat across epochs.
/// 3. **Full rebuild** — ordering recompute plus numeric factorization,
///    only when the engine epoch moves (drift re-setup replaced the
///    hierarchy), the node count changed, or the cached ordering has gone
///    stale (factor fill outgrew `order_staleness ×` its size at ordering
///    time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorPolicy {
    /// Patch the live factor incrementally when possible; `false` restores
    /// the refactorize-every-publish behaviour.
    pub incremental: bool,
    /// Fill budget as a growth factor: a patch that would push the
    /// factor's stored entries past `fill_growth ×` its nnz at the last
    /// rebuild falls back to refactorization.
    pub fill_growth: f64,
    /// Hard cap on consecutive incremental publishes before a rebuild is
    /// forced, bounding rounding drift in the patched factor.
    pub max_updates_between_refactors: u64,
    /// Patch only batches whose delta count is at most this fraction of
    /// the factor's dimension; larger batches go straight to a numeric
    /// refactorization under the cached ordering. Each rank-1 patch walks
    /// the column closure of its edge (worst case most of the factor) and
    /// leaves behind fill the cached ordering never planned for, so
    /// patching a bulk batch is both slower than one numeric rebuild *and*
    /// degrades every later publish. The default keeps the patch tier for
    /// the near-single-op batches it is built for (interactive edits,
    /// drift probes) and routes bulk churn to the numeric tier.
    pub max_patch_fraction: f64,
    /// Staleness bound for the cached elimination ordering: once a
    /// numeric rebuild's factor outgrows `order_staleness ×` the factor
    /// size at ordering time, the next rebuild recomputes the ordering.
    /// Deliberately generous — an ordering recompute costs orders of
    /// magnitude more than the extra fill it removes, so it should fire
    /// only when fill has genuinely blown up (epoch moves refresh the
    /// ordering anyway).
    pub order_staleness: f64,
}

impl Default for FactorPolicy {
    fn default() -> Self {
        FactorPolicy {
            incremental: true,
            fill_growth: 2.0,
            max_updates_between_refactors: 256,
            max_patch_fraction: 0.002,
            order_staleness: 8.0,
        }
    }
}

impl FactorPolicy {
    /// Checks every field is inside its domain, so publish-time code can
    /// rely on the values verbatim instead of clamping them silently.
    ///
    /// # Errors
    /// [`InGrassError::InvalidConfig`] naming the offending field if
    /// `fill_growth < 1` (the budget would undercut the factor's own
    /// size), `max_patch_fraction ∉ [0, 1]`, `order_staleness < 1`, or any
    /// of the three is not finite.
    pub fn validate(&self) -> Result<()> {
        if !self.fill_growth.is_finite() || self.fill_growth < 1.0 {
            return Err(InGrassError::InvalidConfig(format!(
                "fill_growth must be a finite value ≥ 1, got {}",
                self.fill_growth
            )));
        }
        if !self.max_patch_fraction.is_finite() || !(0.0..=1.0).contains(&self.max_patch_fraction) {
            return Err(InGrassError::InvalidConfig(format!(
                "max_patch_fraction must be within [0, 1], got {}",
                self.max_patch_fraction
            )));
        }
        if !self.order_staleness.is_finite() || self.order_staleness < 1.0 {
            return Err(InGrassError::InvalidConfig(format!(
                "order_staleness must be a finite value ≥ 1, got {}",
                self.order_staleness
            )));
        }
        Ok(())
    }
}

/// What one [`SnapshotEngine::apply_batch`] did: the engine's own update
/// report plus the publish that followed (if the batch changed state).
#[derive(Debug, Clone)]
pub struct BatchPublishReport {
    /// The inner engine's report for the batch.
    pub update: UpdateReport,
    /// The publish triggered by the batch; `None` for an empty batch (the
    /// engine version did not move, so the current snapshot already *is*
    /// the state).
    pub publish: Option<PublishReport>,
}

/// The shared cell readers subscribe to. Publication replaces the `Arc`
/// under a write lock held only for the swap.
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    current: RwLock<Arc<SparsifierSnapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(initial: Arc<SparsifierSnapshot>) -> SnapshotCell {
        SnapshotCell {
            current: RwLock::new(initial),
        }
    }

    pub(crate) fn load(&self) -> Arc<SparsifierSnapshot> {
        // A poisoned lock only means some reader panicked mid-clone; the
        // data is an Arc swap away from consistent either way.
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            Err(p) => Arc::clone(&p.into_inner()),
        }
    }

    pub(crate) fn store(&self, snap: Arc<SparsifierSnapshot>) {
        match self.current.write() {
            Ok(mut g) => *g = snap,
            Err(p) => *p.into_inner() = snap,
        }
    }
}

/// A cheap, cloneable subscription to a [`SnapshotEngine`]'s published
/// snapshots. Handles are `Send`; readers on other threads call
/// [`SnapshotReader::current`] to load the newest snapshot and then work
/// off it without further synchronization.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
}

impl SnapshotReader {
    pub(crate) fn from_cell(cell: Arc<SnapshotCell>) -> SnapshotReader {
        SnapshotReader { cell }
    }

    /// The most recently published snapshot.
    pub fn current(&self) -> Arc<SparsifierSnapshot> {
        self.cell.load()
    }
}

/// A single-writer wrapper around [`crate::InGrassEngine`] that publishes
/// an immutable [`SparsifierSnapshot`] after every state-changing batch,
/// for any number of concurrent readers.
///
/// The writer API mirrors the engine ([`SnapshotEngine::apply_batch`],
/// [`SnapshotEngine::resetup`]); readers come from
/// [`SnapshotEngine::reader`]. Concurrency model and staleness contract:
/// publication swaps an `Arc` under a briefly-held lock, so readers block
/// the writer only for the swap itself; a reader's view is exact for the
/// [`SparsifierSnapshot::version`] it loaded, and old views stay valid
/// (and allocated) until their last holder drops them.
///
/// # Example
///
/// ```
/// use ingrass::{SnapshotEngine, SetupConfig, UpdateConfig, UpdateOp};
/// use ingrass_graph::Graph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h0 = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])?;
/// let mut engine = SnapshotEngine::setup(&h0, &SetupConfig::default())?;
/// let reader = engine.reader();
/// let before = reader.current();
///
/// let report = engine.apply_batch(
///     &[UpdateOp::Insert { u: 0, v: 2, weight: 0.5 }],
///     &UpdateConfig::default(),
/// )?;
/// assert!(report.publish.is_some());
/// let after = reader.current();
/// assert!(after.version() > before.version()); // readers see the new state…
/// assert!(before.verify_checksum());           // …and the old view stays intact.
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SnapshotEngine {
    engine: InGrassEngine,
    /// The current epoch's hierarchy, cloned out of the engine once per
    /// epoch so every snapshot of the epoch shares one allocation.
    hierarchy: Arc<LrdHierarchy>,
    hierarchy_epoch: u64,
    cell: Arc<SnapshotCell>,
    sequence: u64,
    /// The live factor, patched in place across ordinary publishes and
    /// cloned into every snapshot; rebuilt per [`FactorPolicy`].
    factor: SparsifierPrecond,
    /// `false` after a failed patch left `factor` numerically unusable —
    /// the next publish must rebuild regardless of policy.
    factor_valid: bool,
    factor_policy: FactorPolicy,
    updates_since_refactor: u64,
    factor_updates: u64,
    factor_refactors: u64,
}

impl SnapshotEngine {
    /// Runs engine setup and publishes the initial snapshot (sequence 1).
    ///
    /// # Errors
    /// As for [`crate::InGrassEngine::setup`].
    pub fn setup(h0: &Graph, cfg: &SetupConfig) -> Result<Self> {
        Self::from_engine(InGrassEngine::setup(h0, cfg)?)
    }

    /// Wraps an already-set-up engine and publishes its current state as
    /// the initial snapshot.
    ///
    /// # Errors
    /// Propagates preconditioner extraction failure (cannot happen while
    /// the engine's connectivity invariant holds).
    pub fn from_engine(mut engine: InGrassEngine) -> Result<Self> {
        let hierarchy = Arc::new(engine.hierarchy().clone());
        let hierarchy_epoch = engine.epoch();
        // Deltas journaled before the wrap describe mutations the fresh
        // factor build below already sees — drop them.
        let _ = engine.take_edge_deltas();
        let factor = engine.preconditioner()?;
        let snap = SparsifierSnapshot::capture(&engine, Arc::clone(&hierarchy), 1, factor.clone())?;
        Ok(SnapshotEngine {
            engine,
            hierarchy,
            hierarchy_epoch,
            cell: Arc::new(SnapshotCell::new(Arc::new(snap))),
            sequence: 1,
            factor,
            factor_valid: true,
            factor_policy: FactorPolicy::default(),
            updates_since_refactor: 0,
            factor_updates: 0,
            factor_refactors: 1,
        })
    }

    /// Replaces the [`FactorPolicy`] governing incremental maintenance of
    /// the live factor (builder form).
    ///
    /// # Errors
    /// [`InGrassError::InvalidConfig`] if the policy fails
    /// [`FactorPolicy::validate`] — out-of-domain values are rejected here
    /// rather than silently clamped at publish time.
    pub fn with_factor_policy(mut self, policy: FactorPolicy) -> Result<Self> {
        self.set_factor_policy(policy)?;
        Ok(self)
    }

    /// Replaces the [`FactorPolicy`] governing incremental maintenance of
    /// the live factor.
    ///
    /// # Errors
    /// [`InGrassError::InvalidConfig`] if the policy fails
    /// [`FactorPolicy::validate`]; the previous policy stays in effect.
    pub fn set_factor_policy(&mut self, policy: FactorPolicy) -> Result<()> {
        policy.validate()?;
        self.factor_policy = policy;
        Ok(())
    }

    /// The [`FactorPolicy`] currently in effect.
    pub fn factor_policy(&self) -> FactorPolicy {
        self.factor_policy
    }

    /// Publishes that patched the live factor incrementally so far.
    pub fn factor_updates(&self) -> u64 {
        self.factor_updates
    }

    /// Factor rebuilds so far (≥ 1: setup builds the first factor).
    pub fn factor_refactors(&self) -> u64 {
        self.factor_refactors
    }

    /// A new reader subscription. Clone freely; hand to other threads.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
        }
    }

    /// The most recently published snapshot (writer-side convenience;
    /// readers use [`SnapshotReader::current`]).
    pub fn snapshot(&self) -> Arc<SparsifierSnapshot> {
        self.cell.load()
    }

    /// Read access to the wrapped engine (stats, hierarchy, ledger).
    ///
    /// Intentionally *no* `engine_mut`: every mutation must flow through
    /// [`SnapshotEngine::apply_batch`] / [`SnapshotEngine::resetup`] so the
    /// published snapshot can never silently fall behind the engine.
    pub fn engine(&self) -> &InGrassEngine {
        &self.engine
    }

    /// Snapshots published so far (including the one from setup).
    pub fn publishes(&self) -> u64 {
        self.sequence
    }

    /// Applies one update batch through the wrapped engine and publishes a
    /// fresh snapshot if the batch changed state (non-empty batch, or a
    /// drift-triggered re-setup inside it).
    ///
    /// # Errors
    /// As for [`crate::InGrassEngine::apply_batch`], plus preconditioner
    /// extraction failure at publish.
    pub fn apply_batch(
        &mut self,
        ops: &[UpdateOp],
        cfg: &UpdateConfig,
    ) -> Result<BatchPublishReport> {
        let before = self.engine.version();
        let update = self.engine.apply_batch(ops, cfg)?;
        let publish = if self.engine.version() != before {
            Some(self.publish()?)
        } else {
            None
        };
        Ok(BatchPublishReport { update, publish })
    }

    /// Forces a re-setup of the wrapped engine and publishes the new
    /// epoch's snapshot.
    ///
    /// # Errors
    /// As for [`crate::InGrassEngine::resetup`].
    pub fn resetup(&mut self) -> Result<PublishReport> {
        self.engine.resetup()?;
        self.publish()
    }

    /// Captures the engine's current state into a fresh snapshot and swaps
    /// it in as the current one. Readers holding older snapshots are
    /// unaffected; the previous snapshot is freed once its last holder
    /// drops it.
    ///
    /// The expensive half of the split is maintaining the factor, and this
    /// is where the incremental tentpole pays off: ordinary batches drain
    /// the engine's edge-delta journal and patch the live factor with one
    /// rank-1 update/downdate per net delta (additions first, so every
    /// intermediate matrix stays SPD). Batches too large to patch
    /// profitably, fill-budget overruns, downdate breakdowns, and the
    /// drift backstop refactor *numerically* under the cached elimination
    /// ordering; only an epoch move (or a stale ordering) pays for a full
    /// rebuild with an ordering recompute — see [`FactorPolicy`]. The
    /// snapshot then shares a clone of the maintained factor.
    ///
    /// # Errors
    /// Preconditioner rebuild failure (disconnected or degenerate
    /// sparsifier — cannot happen while engine invariants hold).
    pub fn publish(&mut self) -> Result<PublishReport> {
        let timer = PhaseTimer::start();
        if self.hierarchy_epoch != self.engine.epoch() {
            self.hierarchy = Arc::new(self.engine.hierarchy().clone());
            self.hierarchy_epoch = self.engine.epoch();
        }
        let deltas = self.engine.take_edge_deltas();
        let policy = self.factor_policy;
        let same_epoch = self.factor.epoch() == self.engine.epoch();
        let mut factor_updated = false;
        if policy.incremental
            && self.factor_valid
            && same_epoch
            && self.updates_since_refactor < policy.max_updates_between_refactors
            && (deltas.len() as f64) <= policy.max_patch_fraction * self.factor.num_nodes() as f64
        {
            // `fill_growth ≥ 1` is enforced at policy-set time
            // ([`FactorPolicy::validate`]), so the budget never undercuts
            // the factor's own size.
            let budget = ((self.factor.built_nnz() as f64) * policy.fill_growth).ceil();
            match self.factor.apply_edge_deltas(&deltas, budget as usize) {
                Ok(()) => factor_updated = true,
                // A failed patch may have applied a prefix of the batch:
                // the factor is unusable until the rebuild below succeeds.
                Err(_) => self.factor_valid = false,
            }
        }
        if factor_updated {
            self.factor_updates += 1;
            self.updates_since_refactor += 1;
        } else {
            // Rebuild tier: reuse the cached elimination ordering (numeric
            // refactorization only) while the epoch stands, the node count
            // matches, and the ordering is still fresh; recompute the
            // ordering otherwise. A failed cached-order rebuild (e.g. the
            // sparsifier changed shape more than expected) falls through
            // to the full build rather than erroring the publish.
            let reuse = same_epoch
                && self.factor.num_nodes() == self.engine.sparsifier().num_nodes()
                && self.factor.order_is_fresh(policy.order_staleness);
            let rebuilt = if reuse {
                self.factor
                    .rebuild_numeric(self.engine.sparsifier(), self.engine.epoch())
                    .or_else(|_| self.engine.preconditioner())
            } else {
                self.engine.preconditioner()
            };
            self.factor = rebuilt?;
            self.factor_valid = true;
            self.factor_refactors += 1;
            self.updates_since_refactor = 0;
        }
        // The counter moves only on success: a failed capture must leave
        // publishes()/sequence untouched (no skipped sequence numbers).
        let snap = Arc::new(SparsifierSnapshot::capture(
            &self.engine,
            Arc::clone(&self.hierarchy),
            self.sequence + 1,
            self.factor.clone(),
        )?);
        self.sequence += 1;
        let report = PublishReport {
            epoch: snap.epoch(),
            version: snap.version(),
            sequence: snap.sequence(),
            publish_seconds: timer.total().as_secs_f64(),
            factor_nnz: snap.preconditioner().factor_nnz(),
            factor_flops: snap.preconditioner().factor_flops(),
            edges: snap.resistance_summary().edges,
            factor_updated,
            factor_updates: self.factor_updates,
            factor_refactors: self.factor_refactors,
            shard: None,
        };
        self.cell.store(snap);
        Ok(report)
    }

    /// Exports the serving layer's complete state for persistence: the
    /// wrapped engine ([`crate::InGrassEngine::export_state`]), the live
    /// factor with its accumulated rank-1 patches intact, and the
    /// policy counters that drive future maintenance-tier decisions.
    ///
    /// This is the payload `ingrass-store` serializes into durable
    /// snapshots; [`SnapshotEngine::from_state`] is its inverse.
    pub fn export_state(&self) -> crate::state::ServingState {
        crate::state::ServingState {
            engine: self.engine.export_state(),
            factor: self.factor.export_state(),
            factor_valid: self.factor_valid,
            sequence: self.sequence,
            factor_policy: self.factor_policy,
            updates_since_refactor: self.updates_since_refactor,
            factor_updates: self.factor_updates,
            factor_refactors: self.factor_refactors,
        }
    }

    /// Restores a serving engine from persisted state and publishes the
    /// restored view as the current snapshot (at the *restored* sequence
    /// number — restoring is not a publish).
    ///
    /// Unlike [`SnapshotEngine::from_engine`], this must **not** drain the
    /// engine's delta journal or rebuild the factor: the persisted factor
    /// already reflects exactly the deltas drained before export, and the
    /// journal holds exactly those not yet applied to it — rebuilding
    /// either would fork the restored run's rounding from the original's.
    ///
    /// # Errors
    /// [`InGrassError::InvalidConfig`] /
    /// [`InGrassError::BadSparsifier`] if the engine state, factor state,
    /// or factor policy fails validation, or if the factor's dimension
    /// disagrees with the restored sparsifier.
    pub fn from_state(state: crate::state::ServingState) -> Result<Self> {
        state.factor_policy.validate()?;
        let engine = InGrassEngine::from_state(state.engine)?;
        let factor = SparsifierPrecond::from_state(state.factor)?;
        if factor.num_nodes() != engine.sparsifier().num_nodes() {
            return Err(InGrassError::BadSparsifier(format!(
                "persisted factor grounds {} nodes, sparsifier has {}",
                factor.num_nodes(),
                engine.sparsifier().num_nodes()
            )));
        }
        let hierarchy = Arc::new(engine.hierarchy().clone());
        let hierarchy_epoch = engine.epoch();
        let snap = SparsifierSnapshot::capture(
            &engine,
            Arc::clone(&hierarchy),
            state.sequence,
            factor.clone(),
        )?;
        Ok(SnapshotEngine {
            engine,
            hierarchy,
            hierarchy_epoch,
            cell: Arc::new(SnapshotCell::new(Arc::new(snap))),
            sequence: state.sequence,
            factor,
            factor_valid: state.factor_valid,
            factor_policy: state.factor_policy,
            updates_since_refactor: state.updates_since_refactor,
            factor_updates: state.factor_updates,
            factor_refactors: state.factor_refactors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriftPolicy;
    use ingrass_linalg::{pcg, CgOptions};

    fn ring_with_chords(n: usize) -> Graph {
        let mut edges: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, (i + 1) % n, 1.0 + (i % 3) as f64))
            .collect();
        for i in 0..n / 2 {
            edges.push((i, i + n / 2, 0.5));
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn snapshot_types_are_send_and_sync() {
        assert_send_sync::<SparsifierSnapshot>();
        assert_send_sync::<SnapshotReader>();
        assert_send_sync::<Arc<SparsifierSnapshot>>();
    }

    #[test]
    fn setup_publishes_a_consistent_initial_snapshot() {
        let h0 = ring_with_chords(20);
        let engine = SnapshotEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.sequence(), 1);
        assert_eq!(snap.num_nodes(), 20);
        assert_eq!(snap.graph().num_edges(), h0.num_edges());
        assert!(snap.verify_checksum());
        let rs = snap.resistance_summary();
        assert_eq!(rs.edges, h0.num_edges());
        assert!((rs.total_weight - h0.total_weight()).abs() < 1e-9);
        assert!(rs.total_distortion > 0.0);
        assert!(rs.max_edge_distortion <= rs.total_distortion);
    }

    #[test]
    fn snapshot_factor_is_exact_for_its_own_laplacian() {
        let h0 = ring_with_chords(24);
        let engine = SnapshotEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        let n = snap.num_nodes();
        let mut b = vec![0.0; n];
        b[1] = 1.0;
        b[n - 2] = -1.0;
        let ones = vec![1.0; n];
        let mut x = vec![0.0; n];
        let res = pcg(
            snap.laplacian(),
            &b,
            &mut x,
            snap.preconditioner(),
            Some(&ones),
            &CgOptions::default(),
        );
        assert!(res.converged);
        assert!(res.iterations <= 2, "exact factor took {}", res.iterations);
    }

    #[test]
    fn effective_resistance_matches_series_path() {
        // A path of three unit edges: R(0,3) = 3, R(0,1) = 1.
        let h0 = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let engine = SnapshotEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let snap = engine.snapshot();
        assert!((snap.effective_resistance(0.into(), 3.into()) - 3.0).abs() < 1e-9);
        assert!((snap.effective_resistance(0.into(), 1.into()) - 1.0).abs() < 1e-9);
        assert_eq!(snap.effective_resistance(2.into(), 2.into()), 0.0);
        assert!(snap.resistance_bound(0.into(), 3.into()) >= 3.0 - 1e-9);
    }

    #[test]
    fn apply_batch_publishes_and_old_snapshots_survive() {
        let h0 = ring_with_chords(20);
        let mut engine = SnapshotEngine::setup(
            &h0,
            &SetupConfig::default().with_drift(DriftPolicy::never()),
        )
        .unwrap();
        let reader = engine.reader();
        let old = reader.current();
        let old_edges = old.graph().num_edges();
        let old_checksum = old.checksum();

        let report = engine
            .apply_batch(
                &[UpdateOp::Insert {
                    u: 0,
                    v: 7,
                    weight: 2.0,
                }],
                &UpdateConfig {
                    target_condition: 4.0,
                    ..Default::default()
                },
            )
            .unwrap();
        let publish = report.publish.expect("non-empty batch must publish");
        assert_eq!(publish.version, engine.engine().version());
        assert!(publish.publish_seconds >= 0.0);
        assert!(publish.factor_nnz > 0);

        let new = reader.current();
        assert!(new.version() > old.version());
        assert!(new.sequence() > old.sequence());
        // The old view is untouched.
        assert_eq!(old.graph().num_edges(), old_edges);
        assert_eq!(old.checksum(), old_checksum);
        assert!(old.verify_checksum());
    }

    #[test]
    fn empty_batch_does_not_publish() {
        let h0 = ring_with_chords(16);
        let mut engine = SnapshotEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let before = engine.snapshot();
        let report = engine.apply_batch(&[], &UpdateConfig::default()).unwrap();
        assert!(report.publish.is_none());
        assert!(Arc::ptr_eq(&before, &engine.snapshot()));
        assert_eq!(engine.publishes(), 1);
    }

    #[test]
    fn resetup_bumps_the_epoch_tag_and_old_epoch_stays_usable() {
        let h0 = ring_with_chords(20);
        let mut engine = SnapshotEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let old = engine.snapshot();
        let publish = engine.resetup().unwrap();
        assert_eq!(publish.epoch, 1);
        let new = engine.snapshot();
        assert_eq!(new.epoch(), 1);
        assert_eq!(old.epoch(), 0);
        // The old epoch's factor still answers exactly for its own state.
        let r = old.effective_resistance(0.into(), 5.into());
        assert!(r.is_finite() && r > 0.0);
        assert!(old.verify_checksum());
    }

    #[test]
    fn dropped_snapshots_are_freed_once_unpublished() {
        let h0 = ring_with_chords(16);
        let mut engine = SnapshotEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let old = engine.snapshot();
        let weak = Arc::downgrade(&old);
        drop(old);
        // Still alive: the cell holds it as the current snapshot.
        assert!(weak.upgrade().is_some());
        engine
            .apply_batch(
                &[UpdateOp::Insert {
                    u: 0,
                    v: 5,
                    weight: 1.0,
                }],
                &UpdateConfig::default(),
            )
            .unwrap();
        // Replaced and unreferenced: the factor is gone with it.
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn reader_handles_work_across_threads() {
        let h0 = ring_with_chords(20);
        let mut engine = SnapshotEngine::setup(&h0, &SetupConfig::default()).unwrap();
        let reader = engine.reader();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let r = reader.clone();
                    s.spawn(move || {
                        let snap = r.current();
                        assert!(snap.verify_checksum());
                        snap.version()
                    })
                })
                .collect();
            engine
                .apply_batch(
                    &[UpdateOp::Insert {
                        u: 1,
                        v: 9,
                        weight: 0.3,
                    }],
                    &UpdateConfig::default(),
                )
                .unwrap();
            for h in handles {
                let v = h.join().unwrap();
                assert!(v <= engine.engine().version());
            }
        });
    }
}
