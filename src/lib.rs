//! # ingrass-repro — inGRASS (DAC 2024), reproduced in Rust
//!
//! A from-scratch reproduction of *inGRASS: Incremental Graph Spectral
//! Sparsification via Low-Resistance-Diameter Decomposition* (Aghdaei &
//! Feng, DAC 2024), including every substrate the paper depends on.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `ingrass` | the paper's contribution: LRD decomposition, multilevel embedding, incremental engine |
//! | [`graph`] | `ingrass-graph` | graphs, spanning trees, LCA, tree solvers, contraction |
//! | [`linalg`] | `ingrass-linalg` | CSR/dense matrices, CG/PCG, (pencil) Lanczos |
//! | [`resistance`] | `ingrass-resistance` | Krylov and exact effective-resistance estimators |
//! | [`gen`] | `ingrass-gen` | workload generators + the paper's benchmark suite |
//! | [`baselines`] | `ingrass-baselines` | GRASS-style from-scratch sparsifier, Random baseline |
//! | [`metrics`] | `ingrass-metrics` | relative condition number, density, distortion stats |
//! | [`par`] | `ingrass-par` | deterministic parallel primitives (`par_map`, `split_even`, `INGRASS_THREADS`) |
//! | [`solve`] | `ingrass-solve` | sparsifier-preconditioned Laplacian solves: one concurrent service that batches submissions per published snapshot into blocked multi-RHS PCG |
//! | [`store`] | `ingrass-store` | durable WAL + snapshot persistence, crash recovery via [`PersistentEngine`](store::PersistentEngine) |
//!
//! The [`prelude`] pulls in the names used by virtually every program, the
//! [`config`] module gathers every tuning knob in one place, and every
//! fallible path folds into the workspace-level
//! [`IngrassError`](core::IngrassError).
//!
//! # Example
//!
//! ```
//! use ingrass_repro::prelude::*;
//!
//! # fn main() -> Result<(), IngrassError> {
//! // 1. A workload graph and its initial sparsifier.
//! let g0 = grid_2d(16, 16, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
//! let h0 = GrassSparsifier::default().by_offtree_density(&g0, 0.10)?;
//!
//! // 2. inGRASS setup (once) …
//! let mut engine = InGrassEngine::setup(&h0.graph, &SetupConfig::default())?;
//!
//! // 3. … then O(log N) incremental updates.
//! let report = engine.insert_batch(
//!     &[(0, 200, 1.0)],
//!     &UpdateConfig { target_condition: 80.0, ..Default::default() },
//! )?;
//! assert_eq!(report.total_processed(), 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub use ingrass as core;
pub use ingrass_baselines as baselines;
pub use ingrass_gen as gen;
pub use ingrass_graph as graph;
pub use ingrass_linalg as linalg;
pub use ingrass_metrics as metrics;
pub use ingrass_par as par;
pub use ingrass_resistance as resistance;
pub use ingrass_solve as solve;
pub use ingrass_store as store;

/// Every tuning knob in the workspace, gathered in one module.
///
/// Mirrors [`ingrass::config`](core::config) and extends it with the
/// solve- and persistence-layer policies, so programs can write
/// `use ingrass_repro::config::*;` and reach every configuration type
/// without memorising which crate owns it.
pub mod config {
    pub use ingrass::config::{DriftPolicy, FactorPolicy, SetupConfig, UpdateConfig};
    pub use ingrass_solve::SolveConfig;
    pub use ingrass_store::StorePolicy;
}

/// The names almost every downstream program needs.
pub mod prelude {
    pub use crate::churn_to_update_ops;
    pub use ingrass::{
        DriftPolicy, FactorPolicy, InGrassEngine, InGrassError, IngrassError, LrdHierarchy,
        SetupConfig, ShardedBatchReport, ShardedConfig, ShardedEngine, SnapshotEngine,
        SnapshotReader, SparsifierSnapshot, UpdateConfig, UpdateLedger, UpdateOp,
    };
    pub use ingrass_baselines::{GrassConfig, GrassSparsifier, RandomSparsifier, TreeKind};
    pub use ingrass_gen::{
        airfoil_mesh, barabasi_albert, delaunay, grid_2d, ocean_mesh, paper_suite, power_grid,
        rmat, sphere_mesh, AirfoilConfig, BaConfig, ChurnConfig, ChurnOp, ChurnStream,
        DelaunayConfig, InsertionStream, OceanConfig, PowerGridConfig, RmatConfig, SphereConfig,
        StreamConfig, TestCase, WeightModel,
    };
    pub use ingrass_graph::{DynGraph, Edge, EdgeId, Graph, GraphBuilder, NodeId};
    pub use ingrass_metrics::{
        estimate_condition_number, ConditionOptions, ConditionTrajectory, SparsifierDensity,
    };
    pub use ingrass_resistance::{
        ExactResistance, KrylovConfig, KrylovEmbedder, ResistanceEstimator,
    };
    pub use ingrass_solve::{ConcurrentSolveService, SolveConfig};
    pub use ingrass_store::{PersistentEngine, RecoveryReport, StoreError, StorePolicy};
}

/// The master seed the integration test suites derive their randomness
/// from: `INGRASS_TEST_SEED` when set (CI re-runs the suites with extra
/// seeds so determinism pins aren't single-seed artifacts), else 42.
///
/// Malformed values fall back to the default rather than panicking, so a
/// stray environment variable cannot fail a test run for a spurious
/// reason.
///
/// # Example
/// ```
/// let seed = ingrass_repro::test_seed();
/// assert!(seed == 42 || std::env::var("INGRASS_TEST_SEED").is_ok());
/// ```
pub fn test_seed() -> u64 {
    std::env::var("INGRASS_TEST_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(42)
}

/// Converts generator churn operations ([`ingrass_gen::ChurnOp`]) into
/// engine update operations ([`ingrass::UpdateOp`]).
///
/// The two types mirror each other on purpose: `ingrass-gen` cannot depend
/// on the core crate (the core crate's tests consume the generators), so
/// the facade owns the bridge.
///
/// # Example
/// ```
/// use ingrass_repro::prelude::*;
/// let ops = churn_to_update_ops(&[
///     ChurnOp::Insert(0, 1, 2.0),
///     ChurnOp::Delete(0, 1),
///     ChurnOp::Reweight(2, 3, 0.5),
/// ]);
/// assert_eq!(ops[1], UpdateOp::Delete { u: 0, v: 1 });
/// ```
pub fn churn_to_update_ops(ops: &[ingrass_gen::ChurnOp]) -> Vec<ingrass::UpdateOp> {
    ops.iter()
        .map(|op| match *op {
            ingrass_gen::ChurnOp::Insert(u, v, weight) => {
                ingrass::UpdateOp::Insert { u, v, weight }
            }
            ingrass_gen::ChurnOp::Delete(u, v) => ingrass::UpdateOp::Delete { u, v },
            ingrass_gen::ChurnOp::Reweight(u, v, weight) => {
                ingrass::UpdateOp::Reweight { u, v, weight }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let g = grid_2d(4, 4, WeightModel::Unit, 0);
        assert_eq!(g.num_nodes(), 16);
    }
}
