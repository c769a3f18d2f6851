//! Evaluation metrics for the inGRASS reproduction: the relative condition
//! number `κ(L_G, L_H)` the paper reports everywhere, density definitions,
//! and distortion statistics.
//!
//! # Example
//!
//! ```
//! use ingrass_gen::{grid_2d, WeightModel};
//! use ingrass_metrics::{estimate_condition_number, ConditionOptions};
//!
//! let g = grid_2d(8, 8, WeightModel::Unit, 0);
//! // κ(L, L) = 1 for identical graphs.
//! let est = estimate_condition_number(&g, &g, &ConditionOptions::default()).unwrap();
//! assert!((est.kappa - 1.0).abs() < 1e-4);
//! ```

#![deny(missing_docs)]

mod condition;
mod density;
mod distortion;
mod error;
mod histogram;
mod shard;
mod trajectory;

pub use condition::{estimate_condition_number, ConditionEstimate, ConditionOptions};
pub use density::{DensityReport, SparsifierDensity};
pub use distortion::{offtree_distortion_stats, DistortionStats};
pub use error::MetricsError;
pub use histogram::LatencyHistogram;
pub use shard::ShardStats;
pub use trajectory::{ConditionTrajectory, TrajectoryPoint};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MetricsError>;
