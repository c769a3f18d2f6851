//! The immutable weighted undirected graph.

use crate::error::GraphError;
use crate::ids::{Edge, EdgeId, NodeId};
use crate::Result;
use ingrass_linalg::CsrMatrix;

/// One adjacency entry: the neighbour, the edge weight, and the id of the
/// undirected edge it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adjacency {
    /// Neighbouring node.
    pub to: NodeId,
    /// Weight of the connecting edge.
    pub weight: f64,
    /// Id of the undirected edge (indexes [`Graph::edges`]).
    pub edge: EdgeId,
}

/// An immutable weighted undirected graph stored in CSR adjacency form.
///
/// Invariants enforced at construction:
/// * all edge weights are positive and finite,
/// * no self-loops (dropped silently — they do not affect the Laplacian),
/// * no parallel edges (coalesced by summing weights, matching the parallel
///   conductance law).
///
/// # Example
/// ```
/// use ingrass_graph::Graph;
/// let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (1, 2, 3.0)]).unwrap();
/// assert_eq!(g.num_edges(), 2);            // parallel edges coalesced
/// assert_eq!(g.edge_weight(1.into(), 2.into()), Some(5.0));
/// assert_eq!(g.weighted_degree(1.into()), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    adj_ptr: Vec<usize>,
    adj: Vec<Adjacency>,
}

impl Graph {
    /// Builds a graph with `n` nodes from `(u, v, weight)` tuples.
    ///
    /// # Errors
    /// [`GraphError::NodeOutOfBounds`] if an endpoint is `≥ n`;
    /// [`GraphError::InvalidEdge`] if a weight is non-positive or non-finite.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w)?;
        }
        Ok(b.build())
    }

    pub(crate) fn from_canonical_edges(n: usize, mut edges: Vec<Edge>) -> Self {
        // Coalesce duplicates.
        edges.sort_unstable_by_key(|e| (e.u, e.v));
        let mut out: Vec<Edge> = Vec::with_capacity(edges.len());
        for e in edges {
            match out.last_mut() {
                Some(last) if last.u == e.u && last.v == e.v => last.weight += e.weight,
                _ => out.push(e),
            }
        }
        let edges = out;

        let mut deg = vec![0usize; n + 1];
        for e in &edges {
            deg[e.u.index() + 1] += 1;
            deg[e.v.index() + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let mut adj = vec![
            Adjacency {
                to: NodeId::new(0),
                weight: 0.0,
                edge: EdgeId::new(0),
            };
            2 * edges.len()
        ];
        let mut cursor = deg.clone();
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId::new(i);
            adj[cursor[e.u.index()]] = Adjacency {
                to: e.v,
                weight: e.weight,
                edge: id,
            };
            cursor[e.u.index()] += 1;
            adj[cursor[e.v.index()]] = Adjacency {
                to: e.u,
                weight: e.weight,
                edge: id,
            };
            cursor[e.v.index()] += 1;
        }
        Graph {
            n,
            edges,
            adj_ptr: deg,
            adj,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of (undirected, coalesced) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list; [`EdgeId`] `i` refers to `edges()[i]`.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Adjacency list of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of bounds.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[Adjacency] {
        &self.adj[self.adj_ptr[u.index()]..self.adj_ptr[u.index() + 1]]
    }

    /// Unweighted degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj_ptr[u.index() + 1] - self.adj_ptr[u.index()]
    }

    /// Weighted degree (sum of incident edge weights) of `u`.
    pub fn weighted_degree(&self, u: NodeId) -> f64 {
        self.neighbors(u).iter().map(|a| a.weight).sum()
    }

    /// Weight of the edge `{u, v}`, or `None` if absent.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.neighbors(u)
            .iter()
            .find(|a| a.to == v)
            .map(|a| a.weight)
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Iterator over node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId::new)
    }

    /// The graph Laplacian `L = D − A` as a sparse matrix.
    pub fn laplacian(&self) -> CsrMatrix {
        self.adjacency_rows(true)
    }

    /// The weighted adjacency matrix `A` as a sparse matrix.
    pub fn adjacency_matrix(&self) -> CsrMatrix {
        self.adjacency_rows(false)
    }

    /// `A`, or `D − A` when `laplacian`, row by row from the adjacency
    /// lists. Those are sorted by neighbour and free of self-loops and
    /// repeats (edges are canonical and coalesced), so they are the
    /// matrix rows already: the degree goes in between the lower and the
    /// higher neighbours.
    fn adjacency_rows(&self, laplacian: bool) -> CsrMatrix {
        let nnz = self.adj.len() + if laplacian { self.n } else { 0 };
        let mut indptr = Vec::with_capacity(self.n + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut data = Vec::with_capacity(nnz);
        indptr.push(0);
        let entry = |w: f64| if laplacian { -w } else { w };
        for u in self.nodes() {
            let nbrs = self.neighbors(u);
            let split = nbrs.partition_point(|a| a.to < u);
            for a in &nbrs[..split] {
                indices.push(a.to.raw());
                data.push(entry(a.weight));
            }
            if laplacian {
                indices.push(u.raw());
                data.push(self.weighted_degree(u));
            }
            for a in &nbrs[split..] {
                indices.push(a.to.raw());
                data.push(entry(a.weight));
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_sorted_rows(self.n, self.n, indptr, indices, data)
    }

    /// A new graph containing only the edges selected by `keep`
    /// (`keep.len() == num_edges()`), over the same node set.
    ///
    /// # Panics
    /// Panics if `keep.len() != num_edges()`.
    pub fn edge_subgraph(&self, keep: &[bool]) -> Graph {
        assert_eq!(keep.len(), self.edges.len(), "edge mask length");
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(e, _)| *e)
            .collect();
        Graph::from_canonical_edges(self.n, edges)
    }
}

/// Incremental builder for [`Graph`]; validates and coalesces edges.
///
/// # Example
/// ```
/// use ingrass_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 1.0).unwrap();
/// b.add_edge(1, 2, 0.5).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-allocates capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds an undirected edge; self-loops are dropped, duplicates are
    /// coalesced at [`GraphBuilder::build`] time.
    ///
    /// # Errors
    /// [`GraphError::NodeOutOfBounds`] / [`GraphError::InvalidEdge`] as in
    /// [`Graph::from_edges`].
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> Result<&mut Self> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfBounds {
                node: u,
                num_nodes: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfBounds {
                node: v,
                num_nodes: self.n,
            });
        }
        if weight <= 0.0 || !weight.is_finite() {
            return Err(GraphError::InvalidEdge(format!(
                "weight must be positive and finite, got {weight}"
            )));
        }
        if u != v {
            self.edges
                .push(Edge::new(NodeId::new(u), NodeId::new(v), weight));
        }
        Ok(self)
    }

    /// Number of edges added so far (before coalescing).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalises the graph.
    pub fn build(self) -> Graph {
        Graph::from_canonical_edges(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 4.0)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1.into()), 2);
        assert_eq!(g.weighted_degree(0.into()), 5.0);
        assert_eq!(g.edge_weight(2.into(), 0.into()), Some(4.0));
        assert_eq!(g.edge_weight(0.into(), 0.into()), None);
        assert!((g.total_weight() - 7.0).abs() < 1e-15);
    }

    /// `L` and `A` assembled from sorted triplets: the reference the
    /// row-by-row copies must match.
    fn laplacian_and_adjacency_from_triplets(g: &Graph) -> (CsrMatrix, CsrMatrix) {
        let mut lap = Vec::new();
        let mut adj = Vec::new();
        for i in 0..g.num_nodes() {
            lap.push((i, i, g.weighted_degree(NodeId::new(i))));
        }
        for e in g.edges() {
            let (u, v) = (e.u.index(), e.v.index());
            lap.extend([(u, v, -e.weight), (v, u, -e.weight)]);
            adj.extend([(u, v, e.weight), (v, u, e.weight)]);
        }
        let n = g.num_nodes();
        (
            CsrMatrix::from_triplets(n, n, &lap),
            CsrMatrix::from_triplets(n, n, &adj),
        )
    }

    #[test]
    fn matrices_match_the_triplet_builds_bit_for_bit() {
        let shapes = [
            (1, vec![]),
            (4, vec![(0, 1, 1.0), (2, 3, 0.5)]), // two components
            (5, vec![(4, 0, 2.0), (3, 1, 0.25), (0, 2, 1.5), (2, 4, 3.0)]),
        ];
        let mut graphs: Vec<Graph> = shapes
            .iter()
            .map(|(n, e)| Graph::from_edges(*n, e).unwrap())
            .collect();
        graphs.push(triangle());
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut edges = Vec::new();
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (u, v) = ((x % 60) as usize, ((x >> 20) % 60) as usize);
            edges.push((u, v, 0.1 + (x >> 40) as f64 / (1u64 << 24) as f64));
        }
        graphs.push(Graph::from_edges(60, &edges).unwrap());
        let bits = |m: &CsrMatrix| -> Vec<(Vec<u32>, Vec<u64>)> {
            (0..m.n_rows())
                .map(|r| {
                    let (c, v) = m.row(r);
                    (c.to_vec(), v.iter().map(|x| x.to_bits()).collect())
                })
                .collect()
        };
        for g in &graphs {
            let (lap, adj) = laplacian_and_adjacency_from_triplets(g);
            assert_eq!(bits(&g.laplacian()), bits(&lap));
            assert_eq!(bits(&g.adjacency_matrix()), bits(&adj));
            assert_eq!(g.laplacian(), lap);
            assert_eq!(g.adjacency_matrix(), adj);
        }
    }

    #[test]
    fn self_loops_dropped_duplicates_coalesced() {
        let g = Graph::from_edges(2, &[(0, 0, 5.0), (0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0.into(), 1.into()), Some(3.0));
    }

    #[test]
    fn rejects_bad_edges() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5, 1.0)]),
            Err(GraphError::NodeOutOfBounds { node: 5, .. })
        ));
        assert!(matches!(
            Graph::from_edges(2, &[(0, 1, -1.0)]),
            Err(GraphError::InvalidEdge(_))
        ));
        assert!(matches!(
            Graph::from_edges(2, &[(0, 1, f64::NAN)]),
            Err(GraphError::InvalidEdge(_))
        ));
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = triangle();
        let l = g.laplacian();
        assert!(l.is_symmetric(0.0));
        let ones = vec![1.0; 3];
        let y = l.matvec_alloc(&ones);
        for v in y {
            assert!(v.abs() < 1e-14);
        }
        assert_eq!(l.get(0, 0), 5.0);
        assert_eq!(l.get(0, 1), -1.0);
    }

    #[test]
    fn adjacency_matrix_matches_edges() {
        let g = triangle();
        let a = g.adjacency_matrix();
        assert_eq!(a.get(1, 2), 2.0);
        assert_eq!(a.get(2, 1), 2.0);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn adjacency_entries_carry_edge_ids() {
        let g = triangle();
        for (i, e) in g.edges().iter().enumerate() {
            let found = g
                .neighbors(e.u)
                .iter()
                .find(|a| a.to == e.v)
                .expect("adjacency present");
            assert_eq!(found.edge, EdgeId::new(i));
            assert_eq!(found.weight, e.weight);
        }
    }

    #[test]
    fn edge_subgraph_keeps_selected() {
        let g = triangle();
        let keep = vec![true, false, true];
        let s = g.edge_subgraph(&keep);
        assert_eq!(s.num_edges(), 2);
        assert_eq!(s.num_nodes(), 3);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    proptest! {
        #[test]
        fn prop_laplacian_quadratic_form_nonnegative(
            edges in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..5.0), 1..40),
            x in proptest::collection::vec(-3.0f64..3.0, 10),
        ) {
            let g = Graph::from_edges(10, &edges).unwrap();
            let l = g.laplacian();
            prop_assert!(l.quadratic_form(&x) >= -1e-9);
        }

        #[test]
        fn prop_degree_sums_equal_twice_edges(
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0.1f64..5.0), 0..30),
        ) {
            let g = Graph::from_edges(8, &edges).unwrap();
            let total_deg: usize = g.nodes().map(|u| g.degree(u)).sum();
            prop_assert_eq!(total_deg, 2 * g.num_edges());
            let total_wdeg: f64 = g.nodes().map(|u| g.weighted_degree(u)).sum();
            prop_assert!((total_wdeg - 2.0 * g.total_weight()).abs() < 1e-9);
        }
    }
}
