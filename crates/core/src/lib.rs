//! **inGRASS** — incremental graph spectral sparsification via
//! low-resistance-diameter decomposition (Aghdaei & Feng, DAC 2024).
//!
//! Given an initial graph `G(0)` and its spectral sparsifier `H(0)`,
//! inGRASS maintains the sparsifier under streams of edge insertions in
//! `O(log N)` time per edge instead of re-running sparsification from
//! scratch:
//!
//! * **Setup phase** ([`InGrassEngine::setup`], once, `O(N log N)`):
//!   1. estimate the effective resistance of every sparsifier edge with a
//!      solve-free Krylov embedding (`ingrass-resistance`, paper eq. (3));
//!   2. run the multilevel **low-resistance-diameter (LRD) decomposition**
//!      ([`LrdHierarchy`]) — contract low-resistance edges into clusters
//!      with geometrically growing resistance-diameter budgets; the
//!      per-level cluster indices are the `O(log N)`-dimensional node
//!      embedding of paper Fig. 2;
//!   3. index which sparsifier edge connects every cluster pair at every
//!      level ([`ClusterConnectivity`]).
//! * **Update phase** ([`InGrassEngine::apply_batch`], `O(log N)` per
//!   insertion; deletions add an early-exit connectivity probe that is
//!   local unless the edge was a bridge): every mutation flows through
//!   the operation log as an
//!   [`UpdateOp`]. Insertions follow the paper — estimate the edge's
//!   spectral distortion `w·R̂` from the hierarchy, process in decreasing
//!   distortion order, and at the *filtering level* chosen from the target
//!   condition number either **include** the edge, **merge** its weight
//!   onto the existing edge between the two clusters, or **redistribute**
//!   its weight inside the cluster (paper Fig. 3). Deletions and reweights
//!   (beyond the paper) update the sparsifier in place, re-link bridge
//!   deletions, and feed the [`UpdateLedger`]'s drift tracker, which
//!   re-runs setup automatically once the configured [`DriftPolicy`] is
//!   crossed. [`InGrassEngine::insert_batch`] remains as the insert-only
//!   compatibility wrapper.
//! * **Serving** ([`SnapshotEngine`], beyond the paper): a single-writer /
//!   many-readers split over the engine. Each state-changing batch
//!   publishes an immutable, epoch-tagged [`SparsifierSnapshot`]
//!   (`Arc`-shared sparsifier + Laplacian CSR + grounded Cholesky factor +
//!   resistance summary) that any number of reader threads solve and query
//!   against while the writer keeps mutating — see the
//!   [`snapshot`](SnapshotEngine) module docs for the concurrency model.
//!
//! # Quickstart
//!
//! ```
//! use ingrass::{InGrassEngine, IngrassError, SetupConfig, UpdateConfig};
//! use ingrass_baselines::GrassSparsifier;
//! use ingrass_gen::{grid_2d, WeightModel};
//!
//! # fn main() -> Result<(), IngrassError> {
//! // The original graph and its initial sparsifier.
//! let g0 = grid_2d(16, 16, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
//! let h0 = GrassSparsifier::default().by_offtree_density(&g0, 0.10)?;
//!
//! // One-time setup: resistance embedding + LRD decomposition.
//! let mut engine = InGrassEngine::setup(&h0.graph, &SetupConfig::default())?;
//!
//! // Stream in new edges; the engine updates the sparsifier in place.
//! let report = engine.insert_batch(
//!     &[(0, 255, 1.0), (3, 40, 0.8)],
//!     &UpdateConfig { target_condition: 64.0, ..Default::default() },
//! )?;
//! assert_eq!(report.batch_size, 2);
//! let h1 = engine.sparsifier_graph();
//! assert!(h1.num_edges() >= h0.graph.num_edges());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod config;
mod connectivity;
mod engine;
mod error;
mod ledger;
mod lrd;
mod ordering;
mod precond;
mod report;
mod shard;
mod snapshot;
pub mod state;

pub use config::{DriftPolicy, SetupConfig, UpdateConfig};
pub use connectivity::ClusterConnectivity;
pub use engine::InGrassEngine;
pub use error::{InGrassError, IngrassError};
pub use ledger::{
    replay_ops, validate_batch, DriftTracker, ResetupReason, StalenessTracker, UpdateLedger,
    UpdateOp,
};
pub use lrd::{LrdHierarchy, LrdLevel};
pub use ordering::lrd_nested_dissection_order;
pub use precond::SparsifierPrecond;
pub use report::{EdgeOutcome, PhaseTimer, SetupReport, UpdateReport};
pub use shard::{
    BoundaryGraph, ShardRouting, ShardedBatchReport, ShardedConfig, ShardedEngine, StitchedPrecond,
};
pub use snapshot::{
    BatchPublishReport, FactorPolicy, PublishReport, ResistanceSummary, SnapshotEngine,
    SnapshotPrecond, SnapshotReader, SparsifierSnapshot,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, InGrassError>;
