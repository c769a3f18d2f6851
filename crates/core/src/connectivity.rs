//! The multilevel sparse cluster-connectivity structure (paper Section
//! III-B-3): for every LRD level, which sparsifier edge connects each
//! cluster pair, and which edges live inside each cluster.

use crate::lrd::{LrdHierarchy, LrdLevel};
use ingrass_graph::{DynGraph, EdgeId, NodeId};
use std::collections::HashMap;

/// Per-level cluster-pair → representative-edge index plus per-cluster
/// internal-edge registry.
///
/// This is the structure the update phase queries in `O(1)` per level:
///
/// * [`ClusterConnectivity::connecting_edge`] — is there already a
///   sparsifier edge between these two clusters? (→ **merge** outcome)
/// * [`ClusterConnectivity::intra_edges`] — the sparsifier edges inside a
///   cluster (→ **redistribute** outcome).
///
/// It is updated (`register_edge`) whenever the engine includes a new edge,
/// exactly as the paper prescribes ("the sparse data structure is promptly
/// updated upon the addition of a newly introduced edge"), and
/// (`unregister_edge`) whenever a churn deletion removes one.
///
/// Deletions make entries *stale*: a representative edge id may be dead in
/// `H`, and intra lists may carry dead ids. Readers therefore filter by
/// liveness ([`ClusterConnectivity::connecting_live_edge`]); intra lists are
/// compacted lazily once more than half of a list is dead, keeping deletion
/// amortized `O(levels)` even for the top-level list that holds every edge.
#[derive(Debug, Clone)]
pub struct ClusterConnectivity {
    /// One map per level: canonical cluster pair → representative edge.
    pair_maps: Vec<HashMap<(u32, u32), EdgeId>>,
    /// One map per level: cluster → edges fully inside it.
    intra_maps: Vec<HashMap<u32, Vec<EdgeId>>>,
    /// One map per level: cluster → dead entries in its intra list.
    intra_dead: Vec<HashMap<u32, u32>>,
}

impl ClusterConnectivity {
    /// Indexes every live edge of `h` against `hierarchy`.
    ///
    /// Levels share nothing, so each is indexed by one worker, registering
    /// the edges in `h`'s order as [`ClusterConnectivity::register_edge`]
    /// does one edge at a time.
    pub fn build(h: &DynGraph, hierarchy: &LrdHierarchy) -> Self {
        let (pair_maps, intra_maps) = ingrass_par::par_map(hierarchy.levels(), |lvl| {
            let (mut pairs, mut intra) = (HashMap::new(), HashMap::new());
            for (id, edge) in h.edges_iter() {
                register_at(lvl, &mut pairs, &mut intra, h, id, edge.u, edge.v);
            }
            (pairs, intra)
        })
        .into_iter()
        .unzip();
        ClusterConnectivity {
            pair_maps,
            intra_maps,
            intra_dead: vec![HashMap::new(); hierarchy.num_levels()],
        }
    }

    /// Registers a (new) sparsifier edge at every level. A pair entry whose
    /// previous representative has died in `h` is repaired in place.
    pub fn register_edge(
        &mut self,
        hierarchy: &LrdHierarchy,
        h: &DynGraph,
        id: EdgeId,
        u: NodeId,
        v: NodeId,
    ) {
        for (level, lvl) in hierarchy.levels().iter().enumerate() {
            let (pairs, intra) = (&mut self.pair_maps[level], &mut self.intra_maps[level]);
            register_at(lvl, pairs, intra, h, id, u, v);
        }
    }

    /// Unregisters a deleted sparsifier edge at every level: pair entries
    /// pointing at it are dropped (a later include repairs the pair), and
    /// its intra lists are compacted lazily via the half-dead rule.
    pub fn unregister_edge(
        &mut self,
        hierarchy: &LrdHierarchy,
        h: &DynGraph,
        id: EdgeId,
        u: NodeId,
        v: NodeId,
    ) {
        for (level, lvl) in hierarchy.levels().iter().enumerate() {
            let (mut cu, mut cv) = (lvl.cluster_of[u.index()], lvl.cluster_of[v.index()]);
            if cu == cv {
                let Some(list) = self.intra_maps[level].get_mut(&cu) else {
                    continue;
                };
                let dead = self.intra_dead[level].entry(cu).or_insert(0);
                *dead += 1;
                if (*dead as usize) * 2 > list.len() {
                    list.retain(|&e| h.edge(e).is_some() && e != id);
                    *dead = 0;
                }
            } else {
                if cu > cv {
                    std::mem::swap(&mut cu, &mut cv);
                }
                if self.pair_maps[level].get(&(cu, cv)) == Some(&id) {
                    self.pair_maps[level].remove(&(cu, cv));
                }
            }
        }
    }

    /// The representative sparsifier edge between clusters `a` and `b` at
    /// `level`, if any.
    ///
    /// # Panics
    /// Panics if `level` is out of bounds.
    pub fn connecting_edge(&self, level: usize, a: u32, b: u32) -> Option<EdgeId> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.pair_maps[level].get(&key).copied()
    }

    /// Like [`ClusterConnectivity::connecting_edge`], but filters out a
    /// representative that has died in `h` (deleted by churn and not yet
    /// repaired by a later include).
    pub fn connecting_live_edge(
        &self,
        level: usize,
        a: u32,
        b: u32,
        h: &DynGraph,
    ) -> Option<EdgeId> {
        self.connecting_edge(level, a, b)
            .filter(|&id| h.edge(id).is_some())
    }

    /// The sparsifier edges fully inside cluster `c` at `level`.
    ///
    /// # Panics
    /// Panics if `level` is out of bounds.
    pub fn intra_edges(&self, level: usize, c: u32) -> &[EdgeId] {
        self.intra_maps[level]
            .get(&c)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of distinct connected cluster pairs at `level` (statistics).
    ///
    /// # Panics
    /// Panics if `level` is out of bounds.
    pub fn num_connected_pairs(&self, level: usize) -> usize {
        self.pair_maps[level].len()
    }

    /// Exports the exact index state for persistence. Outer map keys are
    /// sorted (deterministic bytes); intra-edge lists are kept verbatim —
    /// their order feeds floating-point share accumulation in the
    /// redistribute path and must survive a round-trip bit-for-bit.
    pub(crate) fn export_state(&self) -> crate::state::ConnectivityState {
        let pair_maps = self
            .pair_maps
            .iter()
            .map(|m| {
                let mut v: Vec<(u32, u32, u32)> = m
                    .iter()
                    .map(|(&(a, b), &id)| (a, b, id.index() as u32))
                    .collect();
                v.sort_unstable_by_key(|&(a, b, _)| (a, b));
                v
            })
            .collect();
        let intra_maps = self
            .intra_maps
            .iter()
            .map(|m| {
                let mut v: Vec<(u32, Vec<u32>)> = m
                    .iter()
                    .map(|(&c, ids)| (c, ids.iter().map(|id| id.index() as u32).collect()))
                    .collect();
                v.sort_unstable_by_key(|&(c, _)| c);
                v
            })
            .collect();
        let intra_dead = self
            .intra_dead
            .iter()
            .map(|m| {
                let mut v: Vec<(u32, u32)> = m.iter().map(|(&c, &d)| (c, d)).collect();
                v.sort_unstable_by_key(|&(c, _)| c);
                v
            })
            .collect();
        crate::state::ConnectivityState {
            pair_maps,
            intra_maps,
            intra_dead,
        }
    }

    /// Rebuilds the index from persisted state (the inverse of
    /// [`ClusterConnectivity::export_state`]).
    pub(crate) fn from_state(state: &crate::state::ConnectivityState) -> Self {
        let pair_maps = state
            .pair_maps
            .iter()
            .map(|v| {
                v.iter()
                    .map(|&(a, b, id)| ((a, b), EdgeId::new(id as usize)))
                    .collect::<HashMap<_, _>>()
            })
            .collect();
        let intra_maps = state
            .intra_maps
            .iter()
            .map(|v| {
                v.iter()
                    .map(|(c, ids)| (*c, ids.iter().map(|&id| EdgeId::new(id as usize)).collect()))
                    .collect::<HashMap<u32, Vec<EdgeId>>>()
            })
            .collect();
        let intra_dead = state
            .intra_dead
            .iter()
            .map(|v| v.iter().copied().collect::<HashMap<u32, u32>>())
            .collect();
        ClusterConnectivity {
            pair_maps,
            intra_maps,
            intra_dead,
        }
    }
}

/// [`ClusterConnectivity::register_edge`] at one level.
fn register_at(
    lvl: &LrdLevel,
    pairs: &mut HashMap<(u32, u32), EdgeId>,
    intra: &mut HashMap<u32, Vec<EdgeId>>,
    h: &DynGraph,
    id: EdgeId,
    u: NodeId,
    v: NodeId,
) {
    let (mut cu, mut cv) = (lvl.cluster_of[u.index()], lvl.cluster_of[v.index()]);
    if cu == cv {
        intra.entry(cu).or_default().push(id);
    } else {
        if cu > cv {
            std::mem::swap(&mut cu, &mut cv);
        }
        let entry = pairs.entry((cu, cv)).or_insert(id);
        if h.edge(*entry).is_none() {
            *entry = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lrd::LrdHierarchy;
    use ingrass_gen::{grid_2d, WeightModel};
    use ingrass_graph::Graph;

    fn setup(g: &Graph) -> (DynGraph, LrdHierarchy, ClusterConnectivity) {
        let r: Vec<f64> = g.edges().iter().map(|e| 1.0 / e.weight).collect();
        let h = LrdHierarchy::build(g, &r, None, 4.0, 64).unwrap();
        let d = DynGraph::from_graph(g);
        let c = ClusterConnectivity::build(&d, &h);
        (d, h, c)
    }

    #[test]
    fn build_matches_registering_each_edge_in_turn() {
        // The one-edge-at-a-time build the per-level workers replay,
        // checked on a graph with deleted edges so `h` has dead slots.
        let g = grid_2d(9, 7, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 4);
        let (mut d, h, _) = setup(&g);
        for (u, v) in [(0, 1), (10, 19), (30, 31)] {
            d.remove_edge(NodeId::new(u), NodeId::new(v));
        }
        let levels = h.num_levels();
        let mut serial = ClusterConnectivity {
            pair_maps: vec![HashMap::new(); levels],
            intra_maps: vec![HashMap::new(); levels],
            intra_dead: vec![HashMap::new(); levels],
        };
        for (id, edge) in d.edges_iter() {
            serial.register_edge(&h, &d, id, edge.u, edge.v);
        }
        assert_eq!(
            ClusterConnectivity::build(&d, &h).export_state(),
            serial.export_state()
        );
    }

    #[test]
    fn level0_pair_map_mirrors_edges() {
        let g = grid_2d(5, 5, WeightModel::Unit, 1);
        let (d, _h, c) = setup(&g);
        // At the singleton level every edge connects two distinct clusters.
        assert_eq!(c.num_connected_pairs(0), g.num_edges());
        for (id, e) in d.edges_iter() {
            assert_eq!(c.connecting_edge(0, e.u.raw(), e.v.raw()), Some(id));
        }
        assert!(c.intra_edges(0, 0).is_empty());
    }

    #[test]
    fn top_level_holds_all_edges_as_intra() {
        let g = grid_2d(6, 4, WeightModel::Unit, 2);
        let (_d, h, c) = setup(&g);
        let top = h.num_levels() - 1;
        assert_eq!(c.num_connected_pairs(top), 0);
        assert_eq!(c.intra_edges(top, 0).len(), g.num_edges());
    }

    #[test]
    fn every_edge_is_intra_or_pair_at_every_level() {
        let g = grid_2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 3);
        let (_d, h, c) = setup(&g);
        for level in 0..h.num_levels() {
            let intra_total: usize = (0..h.level(level).num_clusters as u32)
                .map(|cl| c.intra_edges(level, cl).len())
                .sum();
            // Pair maps deduplicate to one representative per pair, so
            // intra + distinct pairs ≤ edges, and intra counts every edge
            // inside clusters exactly once.
            let pairs = c.num_connected_pairs(level);
            assert!(intra_total + pairs <= g.num_edges());
            // All edges accounted: recompute directly.
            let lvl = h.level(level);
            let expect_intra = g
                .edges()
                .iter()
                .filter(|e| lvl.cluster_of[e.u.index()] == lvl.cluster_of[e.v.index()])
                .count();
            assert_eq!(intra_total, expect_intra);
        }
    }

    #[test]
    fn register_edge_updates_maps() {
        let g = grid_2d(4, 4, WeightModel::Unit, 4);
        let (mut d, h, mut c) = setup(&g);
        // Insert a brand-new long-range edge into H and register it.
        let (id, created) = d.add_edge(0.into(), 15.into(), 1.0).unwrap();
        assert!(created);
        let before = c.connecting_edge(0, 0, 15);
        assert!(before.is_none());
        c.register_edge(&h, &d, id, 0.into(), 15.into());
        assert_eq!(c.connecting_edge(0, 0, 15), Some(id));
        // At the top level it lands in the intra registry.
        let top = h.num_levels() - 1;
        assert!(c.intra_edges(top, 0).contains(&id));
    }

    #[test]
    fn unregister_drops_pair_and_register_repairs_dead_reps() {
        let g = grid_2d(4, 4, WeightModel::Unit, 5);
        let (mut d, h, mut c) = setup(&g);
        // Level 0: every edge is its own pair representative.
        let (id, e) = d.edges_iter().next().unwrap();
        assert_eq!(c.connecting_edge(0, e.u.raw(), e.v.raw()), Some(id));
        d.remove_edge(e.u, e.v).unwrap();
        assert_eq!(c.connecting_live_edge(0, e.u.raw(), e.v.raw(), &d), None);
        c.unregister_edge(&h, &d, id, e.u, e.v);
        assert_eq!(c.connecting_edge(0, e.u.raw(), e.v.raw()), None);
        // Re-inserting the pair registers the fresh id.
        let (id2, created) = d.add_edge(e.u, e.v, 2.0).unwrap();
        assert!(created);
        c.register_edge(&h, &d, id2, e.u, e.v);
        assert_eq!(c.connecting_edge(0, e.u.raw(), e.v.raw()), Some(id2));
        assert_eq!(
            c.connecting_live_edge(0, e.u.raw(), e.v.raw(), &d),
            Some(id2)
        );
    }

    #[test]
    fn intra_lists_compact_lazily_under_deletion() {
        let g = grid_2d(6, 6, WeightModel::Unit, 6);
        let (mut d, h, mut c) = setup(&g);
        let top = h.num_levels() - 1;
        let total = c.intra_edges(top, 0).len();
        assert_eq!(total, g.num_edges());
        // Delete well past half of all edges; the top-level intra list must
        // shrink (half-dead compaction) and never return a majority of dead
        // ids.
        let victims: Vec<_> = d.edges_iter().collect();
        let kill = total * 2 / 3;
        for &(id, e) in victims.iter().take(kill) {
            d.remove_edge(e.u, e.v).unwrap();
            c.unregister_edge(&h, &d, id, e.u, e.v);
        }
        let list = c.intra_edges(top, 0);
        assert!(
            list.len() < total,
            "top intra list never compacted: {} entries",
            list.len()
        );
        let live = list.iter().filter(|&&e| d.edge(e).is_some()).count();
        assert!(
            2 * live >= list.len(),
            "list majority-dead after compaction"
        );
    }

    #[test]
    fn representative_is_first_registered() {
        let g =
            Graph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0), (0, 2, 1.0), (1, 3, 1.0)]).unwrap();
        let r = vec![1.0, 1.0, 1.0, 1.0];
        let h = LrdHierarchy::build(&g, &r, Some(1.5), 4.0, 64).unwrap();
        let d = DynGraph::from_graph(&g);
        let c = ClusterConnectivity::build(&d, &h);
        // Whatever level clusters {0,1} and {2,3} (if formed), the first
        // inter-edge in id order is the representative.
        for level in 0..h.num_levels() {
            let lvl = h.level(level);
            let (c0, c2) = (lvl.cluster_of[0], lvl.cluster_of[2]);
            if c0 != c2 {
                if let Some(rep) = c.connecting_edge(level, c0, c2) {
                    let e = d.edge(rep).unwrap();
                    let crossings: Vec<EdgeId> = d
                        .edges_iter()
                        .filter(|(_, e)| lvl.cluster_of[e.u.index()] != lvl.cluster_of[e.v.index()])
                        .map(|(i, _)| i)
                        .collect();
                    assert!(crossings.contains(&rep));
                    assert!(lvl.cluster_of[e.u.index()] != lvl.cluster_of[e.v.index()]);
                }
            }
        }
    }
}
