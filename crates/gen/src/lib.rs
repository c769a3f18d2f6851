//! Workload generators for the inGRASS reproduction.
//!
//! The paper evaluates on SuiteSparse matrices (circuit grids, finite-element
//! meshes, Delaunay triangulations) that we cannot redistribute; this crate
//! generates seeded synthetic graphs of the *same structural classes* so
//! every experiment exercises the identical code paths (see DESIGN.md §4 for
//! the substitution table):
//!
//! * [`power_grid`] — multi-layer IC power-distribution grids with vias and
//!   bimodal conductances (`G2_circuit` / `G3_circuit` analogues).
//! * [`delaunay`] — true Bowyer–Watson Delaunay triangulation of seeded
//!   random points (`delaunay_n18 … n22` analogues).
//! * [`sphere_mesh`], [`ocean_mesh`], [`airfoil_mesh`] — finite-element
//!   triangulations (`fe_sphere`, `fe_ocean`, `fe_4elt2` / `NACA15` / `M6`
//!   analogues).
//! * [`rmat`], [`barabasi_albert`] — heavy-tailed "social network" graphs.
//! * [`TestCase`] — the registry mirroring the paper's 14 benchmark rows
//!   with a scale knob.
//! * [`InsertionStream`] — seeded batches of new edges for the 10-iteration
//!   incremental-update experiments (Tables II/III, Fig. 4).
//! * [`ChurnStream`] — seeded fully-dynamic batches mixing insertions,
//!   deletions, and reweights (ECO rip-up, unfollow, coarsening workloads)
//!   with a protected spanning tree so every prefix stays connected.
//!
//! Every generator takes an explicit seed and is fully deterministic.
//!
//! # Example
//!
//! ```
//! use ingrass_gen::{delaunay, DelaunayConfig};
//! use ingrass_graph::is_connected;
//!
//! let g = delaunay(&DelaunayConfig { points: 200, seed: 7, ..Default::default() }).unwrap();
//! assert!(is_connected(&g));
//! // Planar triangulations have |E| ≤ 3|V| − 6.
//! assert!(g.num_edges() <= 3 * g.num_nodes() - 6);
//! ```

#![deny(missing_docs)]

mod delaunay;
mod grid;
mod mesh;
mod social;
mod stream;
mod suite;

pub use delaunay::{delaunay, delaunay_points, DelaunayConfig, PointDistribution};
pub use grid::{grid_2d, power_grid, PowerGridConfig, WeightModel};
pub use mesh::{airfoil_mesh, ocean_mesh, sphere_mesh, AirfoilConfig, OceanConfig, SphereConfig};
pub use social::{barabasi_albert, rmat, BaConfig, RmatConfig};
pub use stream::{ChurnConfig, ChurnOp, ChurnStream, InsertionStream, ShardSkew, StreamConfig};
pub use suite::{paper_suite, TestCase};
