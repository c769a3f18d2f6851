//! Multilevel low-resistance-diameter (LRD) decomposition — the heart of
//! the inGRASS setup phase (paper Section III-B-2, Fig. 2).

use crate::error::InGrassError;
use crate::Result;
use ingrass_graph::{DisjointSets, Graph, NodeId};

/// One level of the LRD hierarchy: a partition of the nodes into clusters
/// whose effective-resistance diameter (upper bound) stays within the
/// level's budget.
#[derive(Debug, Clone, PartialEq)]
pub struct LrdLevel {
    /// Cluster index of every node (dense labels `0..num_clusters`).
    pub cluster_of: Vec<u32>,
    /// Resistance-diameter upper bound per cluster.
    pub diameter: Vec<f64>,
    /// Node count per cluster.
    pub size: Vec<u32>,
    /// Number of clusters at this level.
    pub num_clusters: usize,
    /// Diameter budget `δ_ℓ` that formed this level (0 for level 0).
    pub threshold: f64,
}

impl LrdLevel {
    /// The largest cluster size at this level.
    pub fn max_cluster_size(&self) -> usize {
        self.size.iter().copied().max().unwrap_or(0) as usize
    }
}

/// The multilevel LRD decomposition of a sparsifier.
///
/// Level 0 is the singleton partition; each subsequent level contracts
/// inter-cluster edges in increasing estimated-resistance order as long as
/// the merged cluster's diameter bound `diam(A) + diam(B) + r(e)` stays
/// within the level budget `δ_ℓ = δ₀·γ^{ℓ−1}`. Parallel inter-cluster edges
/// combine by the parallel-conductance law (`1/r = Σ 1/rᵢ`).
///
/// The per-level cluster indices of a node form its `O(log N)`-dimensional
/// embedding vector ([`LrdHierarchy::embedding_vector`], paper Fig. 2); the
/// resistance between two nodes is bounded by the diameter of the first
/// cluster that contains both ([`LrdHierarchy::resistance_bound`]).
#[derive(Debug, Clone)]
pub struct LrdHierarchy {
    levels: Vec<LrdLevel>,
}

impl LrdHierarchy {
    /// Rebuilds a hierarchy from persisted levels (the persistence layer's
    /// inverse of [`LrdHierarchy::levels`]).
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] for an empty level list;
    /// [`InGrassError::InvalidConfig`] if the levels disagree on node
    /// count or a level's arrays disagree with its cluster count.
    pub(crate) fn from_levels(levels: Vec<LrdLevel>) -> Result<Self> {
        let Some(first) = levels.first() else {
            return Err(InGrassError::BadSparsifier(
                "hierarchy has no levels".into(),
            ));
        };
        let n = first.cluster_of.len();
        for (i, lvl) in levels.iter().enumerate() {
            if lvl.cluster_of.len() != n {
                return Err(InGrassError::InvalidConfig(format!(
                    "level {i} labels {} nodes, level 0 labels {n}",
                    lvl.cluster_of.len()
                )));
            }
            if lvl.diameter.len() != lvl.num_clusters || lvl.size.len() != lvl.num_clusters {
                return Err(InGrassError::InvalidConfig(format!(
                    "level {i} arrays disagree with its {} clusters",
                    lvl.num_clusters
                )));
            }
            if lvl
                .cluster_of
                .iter()
                .any(|&c| c as usize >= lvl.num_clusters)
            {
                return Err(InGrassError::InvalidConfig(format!(
                    "level {i} has a cluster label out of range"
                )));
            }
        }
        Ok(LrdHierarchy { levels })
    }

    /// Builds the hierarchy for `h0` given estimated per-edge resistances
    /// (indexed by `h0`'s edge ids).
    ///
    /// `initial_diameter = None` defaults to 4× the median edge resistance;
    /// `growth` is the per-level budget multiplier `γ > 1`.
    ///
    /// # Errors
    /// [`InGrassError::BadSparsifier`] for an empty graph;
    /// [`InGrassError::InvalidConfig`] for a non-finite growth ≤ 1, an
    /// initial diameter that is not finite and positive, or a resistance
    /// array of the wrong length.
    pub fn build(
        h0: &Graph,
        edge_resistance: &[f64],
        initial_diameter: Option<f64>,
        growth: f64,
        max_levels: usize,
    ) -> Result<Self> {
        Self::build_with(
            h0,
            edge_resistance,
            initial_diameter,
            growth,
            max_levels,
            contract,
        )
    }

    /// [`LrdHierarchy::build`] with the contraction of the inter-cluster
    /// multigraph passed in, so tests can run the one it replays.
    fn build_with(
        h0: &Graph,
        edge_resistance: &[f64],
        initial_diameter: Option<f64>,
        growth: f64,
        max_levels: usize,
        contract: impl Fn(&[(u32, u32, f64)], &[u32]) -> Vec<(u32, u32, f64)>,
    ) -> Result<Self> {
        let n = h0.num_nodes();
        if n == 0 {
            return Err(InGrassError::BadSparsifier("graph has no nodes".into()));
        }
        if edge_resistance.len() != h0.num_edges() {
            return Err(InGrassError::InvalidConfig(format!(
                "edge resistance array has {} entries for {} edges",
                edge_resistance.len(),
                h0.num_edges()
            )));
        }
        if growth <= 1.0 || !growth.is_finite() {
            return Err(InGrassError::InvalidConfig(format!(
                "diameter growth must be a finite number > 1, got {growth}"
            )));
        }
        // A zero budget merges nothing and never grows; a negative or NaN
        // one would silently leave only the singleton level.
        if let Some(d0) = initial_diameter {
            if !(d0.is_finite() && d0 > 0.0) {
                return Err(InGrassError::InvalidConfig(format!(
                    "initial diameter must be a finite number > 0, got {d0}"
                )));
            }
        }

        // Clip estimates with the provable per-edge upper bound R ≤ 1/w —
        // any estimate above the edge's own resistance is certainly wrong.
        let mut redge: Vec<f64> = edge_resistance
            .iter()
            .zip(h0.edges())
            .map(|(&r, e)| r.max(1e-15).min(1.0 / e.weight))
            .collect();
        // Degenerate estimators (all zeros) still need an ordering.
        for (r, e) in redge.iter_mut().zip(h0.edges()) {
            if !r.is_finite() {
                *r = 1.0 / e.weight;
            }
        }

        let delta0 = initial_diameter.unwrap_or_else(|| default_diameter(&redge));

        // Level 0: singletons.
        let mut levels = vec![LrdLevel {
            cluster_of: (0..n as u32).collect(),
            diameter: vec![0.0; n],
            size: vec![1; n],
            num_clusters: n,
            threshold: 0.0,
        }];

        // Working inter-cluster multigraph: (cluster_u, cluster_v, r).
        let mut inter: Vec<(u32, u32, f64)> = h0
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| (e.u.raw(), e.v.raw(), redge[i]))
            .collect();
        let mut cluster_of: Vec<u32> = (0..n as u32).collect();
        let mut diameter: Vec<f64> = vec![0.0; n];
        let mut num_clusters = n;
        let mut delta = delta0;

        while levels.len() < max_levels && num_clusters > 1 && !inter.is_empty() {
            // Contract edges in increasing resistance order under the
            // diameter budget.
            inter.sort_by(|a, b| a.2.total_cmp(&b.2));
            let mut dsu = DisjointSets::new(num_clusters);
            let mut diam = diameter.clone();
            for &(a, b, r) in &inter {
                let (ra, rb) = (dsu.find(a as usize), dsu.find(b as usize));
                if ra == rb {
                    continue;
                }
                let merged = diam[ra] + diam[rb] + r;
                if merged <= delta {
                    dsu.union(ra, rb);
                    let root = dsu.find(ra);
                    diam[root] = merged;
                }
            }
            let labels = dsu.labels();
            let new_count = dsu.num_sets();
            if new_count == num_clusters {
                // Nothing merged at this budget — grow and retry (no level
                // recorded for a no-op).
                delta *= growth;
                // Safety: if the budget overflows to infinity something is
                // pathological; bail out with the current hierarchy.
                if !delta.is_finite() {
                    break;
                }
                continue;
            }

            // New per-cluster diameter and size.
            let mut new_diam = vec![0.0f64; new_count];
            let mut new_size = vec![0u32; new_count];
            for old in 0..num_clusters {
                let nl = labels[old] as usize;
                new_diam[nl] = new_diam[nl].max(diam[dsu.find(old)]);
            }
            // Node-level assignment.
            let mut node_cluster = vec![0u32; n];
            for u in 0..n {
                let nl = labels[cluster_of[u] as usize];
                node_cluster[u] = nl;
                new_size[nl as usize] += 1;
            }

            inter = contract(&inter, &labels);

            cluster_of = node_cluster.clone();
            diameter = new_diam.clone();
            num_clusters = new_count;
            levels.push(LrdLevel {
                cluster_of: node_cluster,
                diameter: new_diam,
                size: new_size,
                num_clusters: new_count,
                threshold: delta,
            });
            delta *= growth;
        }

        Ok(LrdHierarchy { levels })
    }

    /// Number of levels (including the singleton level 0).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The levels, finest (singletons) first.
    pub fn levels(&self) -> &[LrdLevel] {
        &self.levels
    }

    /// A single level.
    ///
    /// # Panics
    /// Panics if `level` is out of bounds.
    pub fn level(&self, level: usize) -> &LrdLevel {
        &self.levels[level]
    }

    /// Number of nodes covered by the hierarchy.
    pub fn num_nodes(&self) -> usize {
        self.levels[0].cluster_of.len()
    }

    /// The node's embedding vector: its cluster index at every level
    /// (paper Fig. 2).
    pub fn embedding_vector(&self, u: NodeId) -> Vec<u32> {
        self.levels
            .iter()
            .map(|l| l.cluster_of[u.index()])
            .collect()
    }

    /// The first (finest) level at which `u` and `v` share a cluster, or
    /// `None` if they never merge (disconnected sparsifier).
    pub fn first_common_level(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.levels
            .iter()
            .position(|l| l.cluster_of[u.index()] == l.cluster_of[v.index()])
    }

    /// Upper bound on the effective resistance between `u` and `v`: the
    /// diameter of the first cluster containing both. Returns `f64::MAX`
    /// if they never share a cluster.
    pub fn resistance_bound(&self, u: NodeId, v: NodeId) -> f64 {
        match self.first_common_level(u, v) {
            Some(l) => {
                let lvl = &self.levels[l];
                let d = lvl.diameter[lvl.cluster_of[u.index()] as usize];
                // Two distinct nodes are at least one edge apart; level-0
                // "diameter 0" only applies to u == v.
                if u == v {
                    0.0
                } else {
                    d.max(f64::MIN_POSITIVE)
                }
            }
            None => f64::MAX,
        }
    }

    /// The *filtering level* for a target condition number `C`: the deepest
    /// level whose largest cluster holds at most `C/2` nodes (paper Section
    /// III-C-2). Level 0 always qualifies.
    pub fn filtering_level(&self, target_condition: f64) -> usize {
        let cap = (target_condition / 2.0).max(1.0);
        let mut best = 0usize;
        for (i, l) in self.levels.iter().enumerate() {
            if (l.max_cluster_size() as f64) <= cap {
                best = i;
            }
        }
        best
    }
}

/// The default initial budget: 4× the median (the upper one of an even
/// count) edge resistance, 1 when there are no edges.
fn default_diameter(redge: &[f64]) -> f64 {
    let mut r = redge.to_vec();
    let mid = r.len() / 2;
    let median = if r.is_empty() {
        1.0
    } else {
        *r.select_nth_unstable_by(mid, |a, b| a.total_cmp(b)).1
    };
    4.0 * median.max(1e-12)
}

/// The inter-cluster multigraph `inter` contracted by `labels`: one edge
/// per pair of distinct clusters, sorted by the pair, whose resistance
/// combines the pair's edges in parallel (`1/r = Σ 1/rᵢ`, conductances
/// added in `inter` order).
///
/// A stable sort on the cluster pair keeps each pair's edges in `inter`
/// order, so every pair's sum is the one a map accumulating in `inter`
/// order would form.
fn contract(inter: &[(u32, u32, f64)], labels: &[u32]) -> Vec<(u32, u32, f64)> {
    let mut pairs: Vec<(u32, u32, f64)> = inter
        .iter()
        .filter_map(|&(a, b, r)| {
            let (ca, cb) = (labels[a as usize], labels[b as usize]);
            (ca != cb).then(|| (ca.min(cb), ca.max(cb), 1.0 / r))
        })
        .collect();
    pairs.sort_by_key(|&(a, b, _)| (a, b));
    let mut out: Vec<(u32, u32, f64)> = Vec::with_capacity(pairs.len());
    let mut rest = &pairs[..];
    while let Some(&(a, b, _)) = rest.first() {
        let run = rest.iter().take_while(|p| (p.0, p.1) == (a, b)).count();
        let cond = rest[..run].iter().fold(0.0, |sum, p| sum + p.2);
        out.push((a, b, 1.0 / cond));
        rest = &rest[run..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ingrass_gen::{grid_2d, WeightModel};
    use ingrass_resistance::ExactResistance;
    use ingrass_resistance::ResistanceEstimator;
    use proptest::prelude::*;

    fn build_default(g: &Graph) -> LrdHierarchy {
        let r: Vec<f64> = g.edges().iter().map(|e| 1.0 / e.weight).collect();
        LrdHierarchy::build(g, &r, None, 4.0, 64).unwrap()
    }

    #[test]
    fn hierarchy_terminates_in_one_cluster_on_connected_graphs() {
        let g = grid_2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
        let h = build_default(&g);
        assert!(h.num_levels() >= 2);
        assert_eq!(h.levels().last().unwrap().num_clusters, 1);
        // O(log N) levels: generously bounded.
        assert!(h.num_levels() <= 20, "levels {}", h.num_levels());
    }

    #[test]
    fn levels_partition_and_nest() {
        let g = grid_2d(10, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 2);
        let h = build_default(&g);
        let n = g.num_nodes();
        for l in h.levels() {
            // Partition: labels dense, sizes consistent.
            let mut count = vec![0u32; l.num_clusters];
            for &c in &l.cluster_of {
                assert!((c as usize) < l.num_clusters);
                count[c as usize] += 1;
            }
            assert_eq!(count, l.size);
            assert_eq!(count.iter().sum::<u32>() as usize, n);
        }
        // Nesting: same cluster at level ℓ ⇒ same cluster at ℓ+1.
        for w in h.levels().windows(2) {
            let (fine, coarse) = (&w[0], &w[1]);
            let mut map = vec![u32::MAX; fine.num_clusters];
            for u in 0..n {
                let (fc, cc) = (fine.cluster_of[u] as usize, coarse.cluster_of[u]);
                if map[fc] == u32::MAX {
                    map[fc] = cc;
                } else {
                    assert_eq!(map[fc], cc, "cluster split across coarse level");
                }
            }
        }
        // Cluster counts strictly decrease across recorded levels.
        for w in h.levels().windows(2) {
            assert!(w[1].num_clusters < w[0].num_clusters);
        }
    }

    #[test]
    fn diameters_respect_thresholds() {
        let g = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let h = build_default(&g);
        for l in h.levels().iter().skip(1) {
            for (c, &d) in l.diameter.iter().enumerate() {
                assert!(
                    d <= l.threshold + 1e-12,
                    "cluster {c} diameter {d} over budget {}",
                    l.threshold
                );
            }
        }
    }

    #[test]
    fn resistance_bound_upper_bounds_exact_resistance_with_exact_input() {
        // With exact per-edge resistances, the diameter bound must sit at
        // or above the true effective resistance (path argument + Rayleigh
        // monotonicity).
        let g = grid_2d(6, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 4);
        let exact = ExactResistance::dense(&g).unwrap();
        let r: Vec<f64> = exact.edge_resistances(&g);
        let h = LrdHierarchy::build(&g, &r, None, 4.0, 64).unwrap();
        for u in 0..36usize {
            for v in (u + 1)..36 {
                let bound = h.resistance_bound(u.into(), v.into());
                let truth = exact.resistance(u.into(), v.into());
                assert!(
                    bound >= truth * 0.999,
                    "bound {bound} < exact {truth} for ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn embedding_vector_matches_levels() {
        let g = grid_2d(5, 5, WeightModel::Unit, 5);
        let h = build_default(&g);
        let v = h.embedding_vector(7.into());
        assert_eq!(v.len(), h.num_levels());
        for (l, &c) in v.iter().enumerate() {
            assert_eq!(c, h.level(l).cluster_of[7]);
        }
        assert_eq!(v[0], 7); // singleton level: own id
    }

    #[test]
    fn filtering_level_monotone_in_target() {
        let g = grid_2d(10, 10, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 6);
        let h = build_default(&g);
        let mut prev = 0;
        for c in [2.0, 4.0, 8.0, 32.0, 128.0, 1e6] {
            let l = h.filtering_level(c);
            assert!(l >= prev, "filtering level decreased at C={c}");
            prev = l;
        }
        // Huge targets reach the coarsest level; tiny ones stay at 0.
        assert_eq!(h.filtering_level(1e9), h.num_levels() - 1);
        assert_eq!(h.filtering_level(2.0), 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = grid_2d(3, 3, WeightModel::Unit, 0);
        let r = vec![1.0; g.num_edges()];
        assert!(LrdHierarchy::build(&g, &r[..3], None, 4.0, 64).is_err());
        assert!(LrdHierarchy::build(&g, &r, None, 1.0, 64).is_err());
        assert!(LrdHierarchy::build(&g, &r, None, f64::NAN, 64).is_err());
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(LrdHierarchy::build(&empty, &[], None, 4.0, 64).is_err());
    }

    #[test]
    fn rejects_initial_diameters_that_are_not_finite_and_positive() {
        let g = grid_2d(4, 4, WeightModel::Unit, 0);
        let r = vec![1.0; g.num_edges()];
        // Zero last: a build that mishandles it never returns, so the
        // other cases get to fail first.
        for d0 in [f64::NAN, -1.0, f64::INFINITY, 0.0] {
            let built = LrdHierarchy::build(&g, &r, Some(d0), 4.0, 64);
            assert!(
                matches!(built, Err(InGrassError::InvalidConfig(_))),
                "initial diameter {d0}"
            );
        }
        let cfg = crate::SetupConfig {
            initial_diameter: Some(0.0),
            ..Default::default()
        };
        assert!(matches!(
            crate::InGrassEngine::setup(&g, &cfg),
            Err(InGrassError::InvalidConfig(_))
        ));
    }

    /// The map-based contraction that [`contract`] replays: conductances
    /// accumulated per cluster pair in `inter` order, then sorted by pair.
    fn contract_reference(inter: &[(u32, u32, f64)], labels: &[u32]) -> Vec<(u32, u32, f64)> {
        let mut acc: std::collections::HashMap<(u32, u32), f64> =
            std::collections::HashMap::with_capacity(inter.len());
        for &(a, b, r) in inter {
            let (mut ca, mut cb) = (labels[a as usize], labels[b as usize]);
            if ca == cb {
                continue;
            }
            if ca > cb {
                std::mem::swap(&mut ca, &mut cb);
            }
            *acc.entry((ca, cb)).or_insert(0.0) += 1.0 / r;
        }
        let mut out: Vec<(u32, u32, f64)> = acc
            .into_iter()
            .map(|((a, b), cond)| (a, b, 1.0 / cond))
            .collect();
        out.sort_unstable_by_key(|x| (x.0, x.1));
        out
    }

    /// Every level of the hierarchy on `g` (Krylov edge resistances) is the
    /// reference contraction's, down to the bits of each diameter and
    /// threshold.
    fn assert_levels_match_reference(g: &Graph, case: &str) {
        use ingrass_resistance::{KrylovConfig, KrylovEmbedder};
        let r = KrylovEmbedder::build(g, &KrylovConfig::default())
            .unwrap()
            .edge_resistances(g);
        let got = LrdHierarchy::build(g, &r, None, 4.0, 64).unwrap();
        let want = LrdHierarchy::build_with(g, &r, None, 4.0, 64, contract_reference).unwrap();
        assert_eq!(got.num_levels(), want.num_levels(), "{case}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (l, (a, b)) in got.levels().iter().zip(want.levels()).enumerate() {
            assert_eq!(a.cluster_of, b.cluster_of, "{case}, level {l}");
            assert_eq!(a.size, b.size, "{case}, level {l}");
            assert_eq!(bits(&a.diameter), bits(&b.diameter), "{case}, level {l}");
            assert_eq!(
                a.threshold.to_bits(),
                b.threshold.to_bits(),
                "{case}, level {l}"
            );
        }
    }

    #[test]
    fn levels_match_the_map_contraction_bit_for_bit() {
        for (side, seed) in [(8, 1), (13, 2), (21, 3)] {
            let g = grid_2d(side, side, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
            assert_levels_match_reference(&g, &format!("grid {side}, seed {seed}"));
        }
        // A GRASS sparsifier of a Delaunay graph after paper-shaped churn.
        use ingrass_gen::{ChurnConfig, ChurnOp, ChurnStream, TestCase};
        let g0 = TestCase::DelaunayN18.build(0.004, 7);
        let h0 = ingrass_baselines::GrassSparsifier::default()
            .by_offtree_density(&g0, 0.10)
            .unwrap()
            .graph;
        let mut engine = crate::InGrassEngine::setup(&h0, &crate::SetupConfig::default()).unwrap();
        let churn = ChurnStream::generate(
            &g0,
            &ChurnConfig {
                batches: 40,
                ops_per_batch: 25,
                ..ChurnConfig::paper_shaped(&g0, 7)
            },
        );
        for batch in churn.batches() {
            let ops: Vec<crate::UpdateOp> = batch
                .iter()
                .map(|op| match *op {
                    ChurnOp::Insert(u, v, weight) => crate::UpdateOp::Insert { u, v, weight },
                    ChurnOp::Delete(u, v) => crate::UpdateOp::Delete { u, v },
                    ChurnOp::Reweight(u, v, weight) => crate::UpdateOp::Reweight { u, v, weight },
                })
                .collect();
            engine
                .apply_batch(&ops, &crate::UpdateConfig::default())
                .unwrap();
        }
        assert_levels_match_reference(&engine.sparsifier_graph(), "churned sparsifier");
    }

    #[test]
    fn default_diameter_is_four_sorted_medians() {
        let mut x = 0x9e37_79b9_u64;
        for len in 0..40 {
            let r: Vec<f64> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    [0.5, 1e-13, 2.0, 0.25][(x >> 60) as usize % 4]
                        * (1.0 + (x >> 40) as f64 * 1e-9)
                })
                .collect();
            let mut sorted = r.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted.get(sorted.len() / 2).copied().unwrap_or(1.0);
            let want = 4.0 * median.max(1e-12);
            assert_eq!(default_diameter(&r).to_bits(), want.to_bits(), "{r:?}");
        }
    }

    #[test]
    fn single_node_graph_has_trivial_hierarchy() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let h = LrdHierarchy::build(&g, &[], None, 4.0, 64).unwrap();
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.resistance_bound(0.into(), 0.into()), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_hierarchy_invariants_on_random_connected_graphs(
            extra in proptest::collection::vec((0usize..30, 0usize..30, 0.1f64..10.0), 0..60),
            growth in 1.5f64..8.0,
        ) {
            let mut edges: Vec<(usize, usize, f64)> =
                (0..29).map(|i| (i, i + 1, 1.0 + (i % 5) as f64)).collect();
            edges.extend(extra);
            let g = Graph::from_edges(30, &edges).unwrap();
            let r: Vec<f64> = g.edges().iter().map(|e| 1.0 / e.weight).collect();
            let h = LrdHierarchy::build(&g, &r, None, growth, 64).unwrap();
            // Terminates at one cluster, nested partitions, diameters within
            // budget.
            prop_assert_eq!(h.levels().last().unwrap().num_clusters, 1);
            for l in h.levels().iter().skip(1) {
                for &d in &l.diameter {
                    prop_assert!(d <= l.threshold + 1e-9);
                }
            }
            // resistance_bound is symmetric and zero iff identical nodes.
            let b = h.resistance_bound(3.into(), 17.into());
            prop_assert!((b - h.resistance_bound(17.into(), 3.into())).abs() < 1e-12);
            prop_assert!(b > 0.0);
            prop_assert_eq!(h.resistance_bound(5.into(), 5.into()), 0.0);
        }
    }
}
