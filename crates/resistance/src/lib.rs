//! Effective-resistance estimation for the inGRASS reproduction.
//!
//! The effective resistance `R(p, q) = b_pq^T L⁺ b_pq` between two nodes of
//! a weighted graph is the quantity every spectral sparsifier in the GRASS
//! family ranks edges by (spectral distortion of an edge = `w · R`). This
//! crate offers two estimators behind one trait:
//!
//! * [`KrylovEmbedder`] — the paper's setup-phase scheme (eq. (3)): smooth
//!   an `m`-dimensional block of random probes with the damped random-walk
//!   operator, orthonormalise it, and use Rayleigh-quotient-scaled
//!   approximate eigenvectors as node coordinates. Nearly-linear time, no
//!   solves; accuracy suited for *ranking* edges, not for sharp values.
//! * [`ExactResistance`] — ground truth: dense pseudo-inverse for small
//!   graphs, or one CG solve per query for medium graphs. Used in tests and
//!   benches.
//!
//! # Example
//!
//! ```
//! use ingrass_graph::Graph;
//! use ingrass_resistance::{ExactResistance, KrylovEmbedder, KrylovConfig, ResistanceEstimator};
//!
//! // A path of 4 nodes: resistance 0-3 is 3 (unit weights in series).
//! let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
//! let exact = ExactResistance::dense(&g).unwrap();
//! assert!((exact.resistance(0.into(), 3.into()) - 3.0).abs() < 1e-9);
//!
//! // The Krylov embedding preserves the ordering of resistances.
//! let emb = KrylovEmbedder::build(&g, &KrylovConfig::default()).unwrap();
//! let near = emb.resistance(0.into(), 1.into());
//! let far = emb.resistance(0.into(), 3.into());
//! assert!(far > near);
//! ```

#![deny(missing_docs)]

mod embedding;
mod exact;
mod krylov;

pub use embedding::NodeEmbedding;
pub use exact::ExactResistance;
pub use krylov::{KrylovConfig, KrylovEmbedder};

use ingrass_graph::{Graph, NodeId};

/// A source of (approximate) effective resistances between node pairs.
pub trait ResistanceEstimator {
    /// Estimated effective resistance between `u` and `v`.
    fn resistance(&self, u: NodeId, v: NodeId) -> f64;

    /// Estimated resistance of every edge of `g`, indexed by edge id.
    fn edge_resistances(&self, g: &Graph) -> Vec<f64> {
        g.edges()
            .iter()
            .map(|e| self.resistance(e.u, e.v))
            .collect()
    }
}
