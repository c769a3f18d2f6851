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
//! [`ConcurrentSolveService`] answers against snapshots and never borrows
//! an engine, so a writer keeps applying update batches throughout. Any
//! number of threads [`submit`](ConcurrentSolveService::submit) right-hand
//! sides, each tagged with the snapshot it should be answered against;
//! submissions against one snapshot coalesce into a multi-RHS admission
//! group, and [`drain`](ConcurrentSolveService::drain) answers every
//! pending group on the `ingrass-par` workers. A caller with one batch of
//! its own submits it and drains.
//!
//! # Example
//!
//! ```
//! use ingrass::{SetupConfig, SnapshotEngine};
//! use ingrass_solve::{ConcurrentSolveService, SolveConfig};
//! use ingrass_baselines::GrassSparsifier;
//! use ingrass_gen::{grid_2d, WeightModel};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
//! let h0 = GrassSparsifier::default().by_offtree_density(&g, 0.10)?;
//! let engine = SnapshotEngine::setup(&h0.graph, &SetupConfig::default())?;
//! // The publish already factored the sparsifier.
//! let snap = engine.snapshot();
//!
//! let service = ConcurrentSolveService::new(SolveConfig::default());
//! let l_g = Arc::new(g.laplacian());
//! let mut b = vec![0.0; g.num_nodes()];
//! b[0] = 1.0;
//! b[143] = -1.0;
//!
//! service.submit(&snap, &l_g, b)?;
//! let round = service.drain();
//! let served = &round.served[0];
//! assert!(served.result.converged);
//! assert_eq!(served.epoch, snap.epoch());
//! assert!((served.x[0] - served.x[143]) > 0.0); // positive effective resistance
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod concurrent;
mod service;

pub use concurrent::{ConcurrentSolveService, ConcurrentSolveStats, DrainReport, Served, Ticket};
pub use service::{unpreconditioned_cg, SolveConfig, SolveError};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SolveError>;
