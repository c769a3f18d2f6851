//! Dense low-dimensional node embeddings whose squared distances estimate
//! effective resistances.

use crate::ResistanceEstimator;
use ingrass_graph::{Graph, NodeId};

/// An `n × d` row-major matrix of node coordinates.
///
/// The Krylov estimator reduces resistance queries to squared Euclidean
/// distances between embedding rows; this type holds the rows and
/// implements [`ResistanceEstimator`] directly.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEmbedding {
    n: usize,
    dim: usize,
    data: Vec<f64>,
}

impl NodeEmbedding {
    /// Creates an embedding from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != n * dim`.
    pub fn from_rows(n: usize, dim: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * dim, "embedding data length mismatch");
        NodeEmbedding { n, dim, data }
    }

    /// Number of embedded nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Embedding dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The coordinate row of node `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of bounds.
    #[inline]
    pub fn vector(&self, u: NodeId) -> &[f64] {
        &self.data[u.index() * self.dim..(u.index() + 1) * self.dim]
    }

    /// Squared Euclidean distance between the rows of `u` and `v`.
    pub fn distance2(&self, u: NodeId, v: NodeId) -> f64 {
        let (a, b) = (self.vector(u), self.vector(v));
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

impl ResistanceEstimator for NodeEmbedding {
    fn resistance(&self, u: NodeId, v: NodeId) -> f64 {
        self.distance2(u, v)
    }

    fn edge_resistances(&self, g: &Graph) -> Vec<f64> {
        // Each edge's distance is independent; wide graphs fan the map out
        // (results placed by edge index — identical at any width), small
        // ones stay serial per the shared ingrass-par threshold.
        ingrass_par::par_map_auto(g.edges(), |e| self.distance2(e.u, e.v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_match_manual_computation() {
        // Two nodes at (0,0) and (3,4): squared distance 25.
        let e = NodeEmbedding::from_rows(2, 2, vec![0.0, 0.0, 3.0, 4.0]);
        assert_eq!(e.distance2(0.into(), 1.into()), 25.0);
        assert_eq!(e.distance2(1.into(), 0.into()), 25.0);
        assert_eq!(e.distance2(0.into(), 0.into()), 0.0);
        assert_eq!(e.vector(1.into()), &[3.0, 4.0]);
        assert_eq!(e.num_nodes(), 2);
        assert_eq!(e.dim(), 2);
    }

    #[test]
    fn estimator_trait_delegates_to_distance() {
        let e = NodeEmbedding::from_rows(2, 1, vec![1.0, -1.0]);
        assert_eq!(e.resistance(0.into(), 1.into()), 4.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_data_length_panics() {
        NodeEmbedding::from_rows(2, 2, vec![0.0; 3]);
    }
}
