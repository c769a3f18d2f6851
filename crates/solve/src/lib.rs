//! Sparsifier-preconditioned Laplacian solves — where the sparsifier pays
//! rent.
//!
//! The inGRASS engine maintains a sparsifier `H` with a bounded relative
//! condition number `κ(L_G, L_H)` against the evolving original graph `G`.
//! This crate closes the loop: it serves **batched multi-RHS PCG solves on
//! the original Laplacian**, preconditioned by the exact factor of `L_H`
//! that every published [`ingrass::SparsifierSnapshot`] carries.
//!
//! Since the factor is exact for `L_H`, preconditioned CG on `L_G`
//! converges in `O(√κ(L_H⁻¹L_G))` iterations — the very quantity the
//! incremental update phase keeps small — instead of the `O(√κ(L_G))` of
//! plain CG.
//!
//! Both services answer against snapshots and never borrow an engine, so a
//! writer keeps applying update batches throughout:
//!
//! * [`SolveService::solve_batch`] is the single-caller form: one batch
//!   against one snapshot, solved by [`ingrass_linalg::pcg_multi`];
//! * [`ConcurrentSolveService`] is the serving form: reader threads submit
//!   right-hand sides tagged with the snapshot they should be answered
//!   against, submissions against one snapshot coalesce into a multi-RHS
//!   admission group, and `drain` answers every pending group on the
//!   `ingrass-par` workers.
//!
//! # Example
//!
//! ```
//! use ingrass::{SetupConfig, SnapshotEngine};
//! use ingrass_solve::{SolveConfig, SolveService};
//! use ingrass_baselines::GrassSparsifier;
//! use ingrass_gen::{grid_2d, WeightModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
//! let h0 = GrassSparsifier::default().by_offtree_density(&g, 0.10)?;
//! let engine = SnapshotEngine::setup(&h0.graph, &SetupConfig::default())?;
//! // The publish already factored the sparsifier.
//! let snap = engine.snapshot();
//!
//! let mut service = SolveService::new(SolveConfig::default());
//! let l_g = g.laplacian();
//! let mut b = vec![0.0; g.num_nodes()];
//! b[0] = 1.0;
//! b[143] = -1.0;
//!
//! let (x, report) = service.solve(&snap, &l_g, &b)?;
//! assert!(report.results[0].converged);
//! assert_eq!(report.epoch, snap.epoch());
//! assert!((x[0] - x[143]) > 0.0); // positive effective resistance
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod concurrent;
mod service;

pub use concurrent::{ConcurrentSolveService, ConcurrentSolveStats, DrainReport, Served, Ticket};
pub use service::{
    unpreconditioned_cg, SolveConfig, SolveError, SolveReport, SolveService, SolveStats,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SolveError>;
