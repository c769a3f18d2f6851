//! Elimination orderings derived from the LRD cluster hierarchy.
//!
//! The LRD decomposition is a low-(resistance-)diameter decomposition, and
//! — following the separator-tree view of Liu–Sachdeva–Yu's "Short Cycles
//! via Low-Diameter Decompositions" — its cluster tree carries dissection
//! information: the vertices whose sparsifier edges cross cluster
//! boundaries at level `ℓ` are exactly the separator of the level-`ℓ`
//! region. At the sparsifier sizes this engine factors, however, an exact
//! greedy minimum-degree elimination is already near-optimal on the
//! near-planar bulk of the graph, and imposing the cluster tree as a hard
//! elimination constraint (interiors strictly before separators) *adds*
//! fill — LRD leaves are tiny and their two-sided separators fat. What the
//! hierarchy knows that minimum degree does not is *which* vertices churn
//! has turned into long-chord endpoints: those carry a coarse separator
//! level, and deferring them when degree is indifferent measurably cuts
//! fill. So the hierarchy is applied as a soft tie-break inside minimum
//! degree, and the cheaper of {plain, tie-broken} elimination is kept —
//! each elimination-graph run reports its exact `nnz(L)` as a byproduct, so
//! the choice costs no extra factorisation.

use crate::lrd::LrdHierarchy;
use ingrass_graph::NodeId;
use ingrass_linalg::{min_degree_order_with_hints, CsrMatrix};

/// Fill-reducing elimination order guided by the LRD hierarchy.
///
/// For every vertex, its *separator level* is the coarsest level at which
/// one of its incident sparsifier edges still crosses a cluster boundary
/// (the highest level whose separator it belongs to; vertices interior to
/// a leaf cluster get level 1). The separator level is handed to
/// [`ingrass_linalg::min_degree_order_with_hints`] as a soft tie-break:
/// among pivots of equal current elimination-graph degree, vertices deep
/// inside fine clusters are eliminated before endpoints of coarse
/// cross-cluster chords, postponing the dense blocks those chords induce.
/// Two candidate orders are raced — plain minimum degree and the
/// tie-broken variant — and the one with the smaller exact factor size
/// (`nnz(L)`, counted during elimination) wins, so the result is never
/// worse than [`ingrass_linalg::min_degree_order`] on fill and is strictly
/// better once churn has laced the sparsifier with chords. Deterministic
/// throughout (ties on node index).
///
/// `edges` supplies the sparsifier's edge endpoints (orientation and
/// multiplicity are irrelevant). `ground` removes one vertex from the
/// ordering and shifts larger indices down by one, matching the grounded
/// Laplacian the sparsifier preconditioner factors.
///
/// Returns `perm` with `perm[k]` = the (grounded) original index of the
/// k-th pivot — the same new-to-old convention as
/// [`ingrass_linalg::min_degree_order`].
pub fn lrd_nested_dissection_order(
    hierarchy: &LrdHierarchy,
    edges: impl Iterator<Item = (usize, usize)>,
    ground: Option<usize>,
) -> Vec<usize> {
    let n = hierarchy.num_nodes();
    let num_levels = hierarchy.num_levels();
    let edges: Vec<(usize, usize)> = edges.filter(|&(u, v)| u != v && u < n && v < n).collect();
    // Separator level per vertex. An edge whose endpoints first share a
    // cluster at level ℓ connects two distinct level-(ℓ−1) clusters inside
    // that region, so both endpoints belong to the separator of the
    // level-ℓ region; a vertex keeps the coarsest such level over its
    // incident edges. Endpoints of an edge whose clusters never merge (the
    // budget-capped hierarchy kept several top-level clusters) get
    // `num_levels`, deferring them hardest.
    let mut sep_level = vec![1u32; n];
    for &(u, v) in &edges {
        let merge = hierarchy
            .first_common_level(NodeId::new(u), NodeId::new(v))
            .unwrap_or(num_levels);
        let sep = merge.max(1) as u32;
        sep_level[u] = sep_level[u].max(sep);
        sep_level[v] = sep_level[v].max(sep);
    }

    // Grounded sparsity pattern (values are irrelevant to the ordering).
    let shift = |v: usize| match ground {
        Some(g) if v > g => v - 1,
        _ => v,
    };
    let m = n - usize::from(ground.is_some() && ground.unwrap() < n);
    let mut tiebreak = vec![0u32; m];
    for v in 0..n {
        if Some(v) != ground {
            tiebreak[shift(v)] = sep_level[v];
        }
    }
    let mut trip: Vec<(usize, usize, f64)> = Vec::with_capacity(2 * edges.len() + m);
    for i in 0..m {
        trip.push((i, i, 1.0));
    }
    for &(u, v) in &edges {
        if Some(u) == ground || Some(v) == ground {
            continue;
        }
        trip.push((shift(u), shift(v), 1.0));
        trip.push((shift(v), shift(u), 1.0));
    }
    let pattern = CsrMatrix::from_triplets(m, m, &trip);

    let (plain, plain_fill) = min_degree_order_with_hints(&pattern, None);
    let (guided, guided_fill) = min_degree_order_with_hints(&pattern, Some(&tiebreak));
    if guided_fill <= plain_fill {
        guided
    } else {
        plain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SetupConfig;
    use crate::engine::InGrassEngine;
    use ingrass_graph::Graph;

    fn grid_graph(side: usize) -> Graph {
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| r * side + c;
        for r in 0..side {
            for c in 0..side {
                if c + 1 < side {
                    edges.push((idx(r, c), idx(r, c + 1), 1.0));
                }
                if r + 1 < side {
                    edges.push((idx(r, c), idx(r + 1, c), 1.0));
                }
            }
        }
        Graph::from_edges(side * side, &edges).unwrap()
    }

    #[test]
    fn nested_dissection_order_is_a_permutation() {
        let g = grid_graph(8);
        let engine = InGrassEngine::setup(&g, &SetupConfig::default()).unwrap();
        let h = engine.sparsifier();
        let n = g.num_nodes();

        let full = lrd_nested_dissection_order(
            engine.hierarchy(),
            h.edges_iter().map(|(_, e)| (e.u.index(), e.v.index())),
            None,
        );
        let mut seen = vec![false; n];
        for &v in &full {
            assert!(v < n && !seen[v], "duplicate or out-of-range index {v}");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b));

        // Grounding drops one vertex and compacts the index space.
        let grounded = lrd_nested_dissection_order(
            engine.hierarchy(),
            h.edges_iter().map(|(_, e)| (e.u.index(), e.v.index())),
            Some(0),
        );
        let mut seen = vec![false; n - 1];
        for &v in &grounded {
            assert!(v < n - 1 && !seen[v]);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
