//! Edge-insertion and mixed-churn stream generation for the incremental
//! experiments.

use ingrass_graph::{kruskal_tree, DynGraph, Graph, NodeId, TreeObjective};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// Configuration for [`InsertionStream::generate`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of update iterations (the paper uses 10).
    pub batches: usize,
    /// New edges per batch.
    pub edges_per_batch: usize,
    /// Fraction of *local* insertions (endpoints a short walk apart — ECO
    /// rewires); the rest are uniform random pairs (long-range straps).
    pub locality: f64,
    /// Walk length used for local insertions.
    pub local_hops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batches: 10,
            edges_per_batch: 100,
            locality: 0.7,
            local_hops: 3,
            seed: 99,
        }
    }
}

/// A seeded stream of new-edge batches, none of which duplicate an existing
/// edge of the base graph or an earlier stream edge.
///
/// The paper's experiments insert edges over 10 iterations until the
/// sparsifier-density-if-everything-were-kept rises from ~10 % to ~32–50 %;
/// [`InsertionStream::paper_default`] reproduces that sizing from the
/// off-tree edge count of the base graph.
///
/// # Example
/// ```
/// use ingrass_gen::{grid_2d, WeightModel, InsertionStream, StreamConfig};
/// let g = grid_2d(10, 10, WeightModel::Unit, 0);
/// let stream = InsertionStream::generate(&g, &StreamConfig {
///     batches: 3, edges_per_batch: 5, ..Default::default()
/// });
/// assert_eq!(stream.batches().len(), 3);
/// for batch in stream.batches() {
///     for &(u, v, w) in batch {
///         assert!(w > 0.0);
///         assert!(g.edge_weight(u.into(), v.into()).is_none()); // genuinely new
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct InsertionStream {
    batches: Vec<Vec<(usize, usize, f64)>>,
}

impl InsertionStream {
    /// Generates a stream for `g` under `cfg`.
    ///
    /// # Panics
    /// Panics if `g` has fewer than 2 nodes.
    pub fn generate(g: &Graph, cfg: &StreamConfig) -> Self {
        let n = g.num_nodes();
        assert!(n >= 2, "stream needs at least two nodes");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut used: HashSet<(u32, u32)> =
            g.edges().iter().map(|e| (e.u.raw(), e.v.raw())).collect();
        // Empirical weight sampler: reuse the base graph's weight
        // distribution so inserted edges look like real wires.
        let sample_weight = |rng: &mut StdRng| -> f64 {
            if g.num_edges() == 0 {
                1.0
            } else {
                g.edges()[rng.random_range(0..g.num_edges())].weight
            }
        };
        let mut batches = Vec::with_capacity(cfg.batches);
        for _ in 0..cfg.batches {
            let mut batch = Vec::with_capacity(cfg.edges_per_batch);
            let mut guard = 0usize;
            while batch.len() < cfg.edges_per_batch && guard < 100 * cfg.edges_per_batch + 100 {
                guard += 1;
                let u = rng.random_range(0..n);
                let v = if rng.random::<f64>() < cfg.locality {
                    // Short random walk from u.
                    let mut cur = NodeId::new(u);
                    for _ in 0..cfg.local_hops {
                        let nbrs = g.neighbors(cur);
                        if nbrs.is_empty() {
                            break;
                        }
                        cur = nbrs[rng.random_range(0..nbrs.len())].to;
                    }
                    cur.index()
                } else {
                    rng.random_range(0..n)
                };
                if u == v {
                    continue;
                }
                let key = if u < v {
                    (u as u32, v as u32)
                } else {
                    (v as u32, u as u32)
                };
                if used.insert(key) {
                    batch.push((key.0 as usize, key.1 as usize, sample_weight(&mut rng)));
                }
            }
            batches.push(batch);
        }
        InsertionStream { batches }
    }

    /// The paper-shaped stream: 10 batches totalling 24 % of the base
    /// graph's off-tree edge count, 85 % local (2-hop) insertions.
    ///
    /// With an initial sparsifier at 10 % off-tree density, keeping *all*
    /// stream edges would push it to ~34 % — matching the `D → D_all`
    /// columns of Table II. The locality mix is calibrated so the stale
    /// sparsifier's condition measure degrades by ≈ 3–5×, the regime the
    /// paper's `κ → κ_perturbed` columns report (e.g. 88 → 353).
    pub fn paper_default(g: &Graph, seed: u64) -> Self {
        let off_tree = g
            .num_edges()
            .saturating_sub(g.num_nodes().saturating_sub(1));
        let total = ((off_tree as f64) * 0.24).ceil() as usize;
        let per_batch = (total / 10).max(1);
        Self::generate(
            g,
            &StreamConfig {
                batches: 10,
                edges_per_batch: per_batch,
                locality: 0.85,
                local_hops: 2,
                seed,
            },
        )
    }

    /// The generated batches.
    pub fn batches(&self) -> &[Vec<(usize, usize, f64)>] {
        &self.batches
    }

    /// Total number of stream edges.
    pub fn total_edges(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }
}

/// One operation of a [`ChurnStream`].
///
/// Mirrors the engine's `UpdateOp` (`ingrass::UpdateOp`) without depending
/// on the core crate; the `ingrass-repro` facade provides the conversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnOp {
    /// Insert a new edge `{u, v}` with the given weight.
    Insert(usize, usize, f64),
    /// Delete the edge `{u, v}`.
    Delete(usize, usize),
    /// Set the weight of edge `{u, v}` to the given value.
    Reweight(usize, usize, f64),
}

/// Configuration for [`ChurnStream::generate`].
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of update batches.
    pub batches: usize,
    /// Operations per batch.
    pub ops_per_batch: usize,
    /// Fraction of operations that delete a live churnable edge.
    pub delete_fraction: f64,
    /// Fraction of operations that reweight a live churnable edge.
    pub reweight_fraction: f64,
    /// Fraction of *insertions* with endpoints a short walk apart (see
    /// [`StreamConfig::locality`]).
    pub locality: f64,
    /// Walk length used for local insertions.
    pub local_hops: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            batches: 10,
            ops_per_batch: 100,
            delete_fraction: 0.25,
            reweight_fraction: 0.15,
            locality: 0.7,
            local_hops: 3,
            seed: 99,
        }
    }
}

impl ChurnConfig {
    /// Delete share of the paper-shaped mix ([`ChurnConfig::paper_shaped`]).
    pub const PAPER_DELETE_FRACTION: f64 = 0.25;
    /// Reweight share of the paper-shaped mix.
    pub const PAPER_REWEIGHT_FRACTION: f64 = 0.15;

    /// The paper-shaped churn sizing shared by perfbench and the parity
    /// tests: ~24 % of `g`'s off-tree edge count over 10 batches
    /// (mirroring [`InsertionStream::paper_default`]), with a quarter of
    /// the operations deleting and 15 % reweighting, 85 % local (2-hop)
    /// insertions.
    pub fn paper_shaped(g: &Graph, seed: u64) -> Self {
        let off_tree = g
            .num_edges()
            .saturating_sub(g.num_nodes().saturating_sub(1));
        ChurnConfig {
            batches: 10,
            ops_per_batch: (((off_tree as f64) * 0.24).ceil() as usize / 10).max(1),
            delete_fraction: Self::PAPER_DELETE_FRACTION,
            reweight_fraction: Self::PAPER_REWEIGHT_FRACTION,
            locality: 0.85,
            local_hops: 2,
            seed,
        }
    }
}

/// Shard-aware skew knobs for [`ChurnStream::generate_with_skew`]: a node
/// labelling (typically a sharded engine's node → shard assignment) plus
/// two biases that shape where insertions land.
///
/// perfbench's `shard` workload and the shard parity suite use this to
/// stress the router: a
/// `hot_fraction` of intra-label insertions all land in `hot_label`
/// (load imbalance), and a `cross_fraction` of insertions straddle two
/// labels (boundary-graph growth). Deletes and reweights are unaffected —
/// they sample live churnable edges exactly as [`ChurnStream::generate`]
/// does.
#[derive(Debug, Clone)]
pub struct ShardSkew {
    /// Label of each node (length must equal the graph's node count).
    pub labels: Vec<u32>,
    /// Fraction of *intra-label* insertions forced into
    /// [`ShardSkew::hot_label`]; the rest pick a label by node mass.
    pub hot_fraction: f64,
    /// Fraction of insertions whose endpoints carry different labels.
    pub cross_fraction: f64,
    /// The label receiving the hot-cluster bias.
    pub hot_label: u32,
}

/// A seeded fully-dynamic stream: batches mixing edge insertions,
/// deletions, and reweights — the churn workloads (netlist ECO with
/// removals, social unfollows, mesh coarsening) the insert-only
/// [`InsertionStream`] cannot express.
///
/// Invariants, by construction:
///
/// * every prefix of the stream keeps the evolving graph **connected**: a
///   spanning tree of the base graph is protected — deletions and reweights
///   only ever touch *churnable* edges (initial off-tree edges plus edges
///   the stream itself inserted);
/// * deletions and reweights reference edges that are live at that point of
///   the stream; insertions reference pairs that are absent (a deleted pair
///   may be re-inserted later — the ECO rip-up pattern);
/// * the whole stream is a deterministic function of the seed.
///
/// # Example
/// ```
/// use ingrass_gen::{grid_2d, WeightModel, ChurnStream, ChurnConfig};
/// use ingrass_graph::is_connected;
/// let g = grid_2d(10, 10, WeightModel::Unit, 0);
/// let stream = ChurnStream::generate(&g, &ChurnConfig {
///     batches: 3, ops_per_batch: 20, ..Default::default()
/// });
/// assert_eq!(stream.batches().len(), 3);
/// assert!(stream.deletes() > 0);
/// // Replaying the ops on the base graph yields the (connected) final graph.
/// let g_final = stream.apply_to(&g).unwrap();
/// assert!(is_connected(&g_final));
/// ```
#[derive(Debug, Clone)]
pub struct ChurnStream {
    batches: Vec<Vec<ChurnOp>>,
    inserts: usize,
    deletes: usize,
    reweights: usize,
}

impl ChurnStream {
    /// Generates a churn stream for `g` under `cfg`.
    ///
    /// # Panics
    /// Panics if `g` has fewer than 2 nodes, is disconnected, or the
    /// delete/reweight fractions are invalid (negative or summing above 1).
    pub fn generate(g: &Graph, cfg: &ChurnConfig) -> Self {
        Self::generate_inner(g, cfg, None)
    }

    /// [`ChurnStream::generate`] with shard-aware insertion skew: the
    /// locality walk is replaced by [`ShardSkew`]-driven endpoint
    /// sampling (hot-cluster bias + cross-label fraction) while deletes
    /// and reweights keep their live-edge semantics. Deterministic for a
    /// fixed `(cfg.seed, skew)` like the unskewed generator.
    ///
    /// # Panics
    /// As for [`ChurnStream::generate`], plus if `skew.labels` does not
    /// cover the graph's nodes, a fraction is outside `[0, 1]`, or
    /// `skew.hot_label` labels no node.
    pub fn generate_with_skew(g: &Graph, cfg: &ChurnConfig, skew: &ShardSkew) -> Self {
        assert_eq!(
            skew.labels.len(),
            g.num_nodes(),
            "skew labels must cover every node"
        );
        assert!(
            skew.hot_fraction.is_finite()
                && (0.0..=1.0).contains(&skew.hot_fraction)
                && skew.cross_fraction.is_finite()
                && (0.0..=1.0).contains(&skew.cross_fraction),
            "skew fractions must be within [0, 1]"
        );
        assert!(
            skew.labels.contains(&skew.hot_label),
            "hot label {} labels no node",
            skew.hot_label
        );
        Self::generate_inner(g, cfg, Some(skew))
    }

    fn generate_inner(g: &Graph, cfg: &ChurnConfig, skew: Option<&ShardSkew>) -> Self {
        let n = g.num_nodes();
        assert!(n >= 2, "churn stream needs at least two nodes");
        assert!(
            cfg.delete_fraction >= 0.0
                && cfg.reweight_fraction >= 0.0
                && cfg.delete_fraction + cfg.reweight_fraction <= 1.0,
            "delete/reweight fractions must be non-negative and sum to ≤ 1"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let tree = kruskal_tree(g, TreeObjective::MaxWeight).expect("base graph must be connected");

        // Live pair set and the churnable (non-protected) subset.
        let mut present: HashSet<(u32, u32)> =
            g.edges().iter().map(|e| (e.u.raw(), e.v.raw())).collect();
        let mut churnable: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|&(i, _)| !tree.in_tree[i])
            .map(|(_, e)| (e.u.raw(), e.v.raw()))
            .collect();
        let protected: HashSet<(u32, u32)> = g
            .edges()
            .iter()
            .enumerate()
            .filter(|&(i, _)| tree.in_tree[i])
            .map(|(_, e)| (e.u.raw(), e.v.raw()))
            .collect();

        let sample_weight = |rng: &mut StdRng| -> f64 {
            if g.num_edges() == 0 {
                1.0
            } else {
                g.edges()[rng.random_range(0..g.num_edges())].weight
            }
        };

        // Label buckets for skewed endpoint sampling.
        let nodes_by_label: Option<Vec<Vec<u32>>> = skew.map(|sk| {
            let num_labels = sk
                .labels
                .iter()
                .copied()
                .max()
                .map_or(0, |m| m as usize + 1);
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); num_labels];
            for (u, &lab) in sk.labels.iter().enumerate() {
                buckets[lab as usize].push(u as u32);
            }
            buckets
        });

        let (mut inserts, mut deletes, mut reweights) = (0usize, 0usize, 0usize);
        let mut batches = Vec::with_capacity(cfg.batches);
        for _ in 0..cfg.batches {
            let mut batch = Vec::with_capacity(cfg.ops_per_batch);
            let mut guard = 0usize;
            while batch.len() < cfg.ops_per_batch && guard < 100 * cfg.ops_per_batch + 100 {
                guard += 1;
                let roll = rng.random::<f64>();
                if roll < cfg.delete_fraction {
                    if churnable.is_empty() {
                        continue;
                    }
                    let i = rng.random_range(0..churnable.len());
                    let (u, v) = churnable.swap_remove(i);
                    present.remove(&(u, v));
                    batch.push(ChurnOp::Delete(u as usize, v as usize));
                    deletes += 1;
                } else if roll < cfg.delete_fraction + cfg.reweight_fraction {
                    if churnable.is_empty() {
                        continue;
                    }
                    let i = rng.random_range(0..churnable.len());
                    let (u, v) = churnable[i];
                    batch.push(ChurnOp::Reweight(
                        u as usize,
                        v as usize,
                        sample_weight(&mut rng),
                    ));
                    reweights += 1;
                } else {
                    // Insertion. With a skew: cross-label or (hot-biased)
                    // intra-label endpoint sampling; otherwise the same
                    // locality mix as `InsertionStream`.
                    let (u, v) = if let (Some(sk), Some(buckets)) = (skew, &nodes_by_label) {
                        if rng.random::<f64>() < sk.cross_fraction {
                            // Cross-label pair: rejection-sample the second
                            // endpoint out of the first one's label.
                            let u = rng.random_range(0..n);
                            let mut v = usize::MAX;
                            for _ in 0..32 {
                                let cand = rng.random_range(0..n);
                                if sk.labels[cand] != sk.labels[u] {
                                    v = cand;
                                    break;
                                }
                            }
                            if v == usize::MAX {
                                continue;
                            }
                            (u, v)
                        } else {
                            let lab = if rng.random::<f64>() < sk.hot_fraction {
                                sk.hot_label as usize
                            } else {
                                // By node mass: the label of a uniform node.
                                sk.labels[rng.random_range(0..n)] as usize
                            };
                            let bucket = &buckets[lab];
                            if bucket.len() < 2 {
                                continue;
                            }
                            (
                                bucket[rng.random_range(0..bucket.len())] as usize,
                                bucket[rng.random_range(0..bucket.len())] as usize,
                            )
                        }
                    } else {
                        let u = rng.random_range(0..n);
                        let v = if rng.random::<f64>() < cfg.locality {
                            let mut cur = NodeId::new(u);
                            for _ in 0..cfg.local_hops {
                                let nbrs = g.neighbors(cur);
                                if nbrs.is_empty() {
                                    break;
                                }
                                cur = nbrs[rng.random_range(0..nbrs.len())].to;
                            }
                            cur.index()
                        } else {
                            rng.random_range(0..n)
                        };
                        (u, v)
                    };
                    if u == v {
                        continue;
                    }
                    let key = if u < v {
                        (u as u32, v as u32)
                    } else {
                        (v as u32, u as u32)
                    };
                    // Protected pairs stay whatever the base graph made
                    // them; everything else is fair game once absent.
                    if protected.contains(&key) || !present.insert(key) {
                        continue;
                    }
                    churnable.push(key);
                    batch.push(ChurnOp::Insert(
                        key.0 as usize,
                        key.1 as usize,
                        sample_weight(&mut rng),
                    ));
                    inserts += 1;
                }
            }
            batches.push(batch);
        }
        ChurnStream {
            batches,
            inserts,
            deletes,
            reweights,
        }
    }

    /// The paper-shaped stream: [`ChurnConfig::paper_shaped`] applied to
    /// `g` — the churn analogue of [`InsertionStream::paper_default`].
    ///
    /// # Panics
    /// As for [`ChurnStream::generate`].
    pub fn paper_default(g: &Graph, seed: u64) -> Self {
        Self::generate(g, &ChurnConfig::paper_shaped(g, seed))
    }

    /// The generated batches.
    pub fn batches(&self) -> &[Vec<ChurnOp>] {
        &self.batches
    }

    /// Total operations across all batches.
    pub fn total_ops(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }

    /// Insert operations in the stream.
    pub fn inserts(&self) -> usize {
        self.inserts
    }

    /// Delete operations in the stream.
    pub fn deletes(&self) -> usize {
        self.deletes
    }

    /// Reweight operations in the stream.
    pub fn reweights(&self) -> usize {
        self.reweights
    }

    /// Replays the whole stream onto `g` and returns the final graph — the
    /// ground truth that from-scratch baselines sparsify.
    ///
    /// # Errors
    /// Returns the underlying graph error if an operation is inconsistent
    /// with the evolving graph (cannot happen for generated streams).
    pub fn apply_to(&self, g: &Graph) -> Result<Graph, ingrass_graph::GraphError> {
        let mut d = DynGraph::from_graph(g);
        for batch in &self.batches {
            for op in batch {
                match *op {
                    ChurnOp::Insert(u, v, w) => {
                        d.add_edge(u.into(), v.into(), w)?;
                    }
                    ChurnOp::Delete(u, v) => {
                        d.remove_edge(u.into(), v.into());
                    }
                    ChurnOp::Reweight(u, v, w) => {
                        if let Some(id) = d.edge_id(u.into(), v.into()) {
                            d.set_weight(id, w)?;
                        }
                    }
                }
            }
        }
        Ok(d.to_graph())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{grid_2d, WeightModel};

    #[test]
    fn stream_edges_are_new_and_unique() {
        let g = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 1);
        let s = InsertionStream::generate(
            &g,
            &StreamConfig {
                batches: 5,
                edges_per_batch: 30,
                ..Default::default()
            },
        );
        let mut seen = HashSet::new();
        for batch in s.batches() {
            for &(u, v, w) in batch {
                assert!(u < v);
                assert!(w > 0.0);
                assert!(g.edge_weight(u.into(), v.into()).is_none());
                assert!(seen.insert((u, v)), "duplicate stream edge ({u},{v})");
            }
        }
        assert_eq!(s.total_edges(), 150);
    }

    #[test]
    fn paper_default_sizes_to_offtree_fraction() {
        let g = grid_2d(20, 20, WeightModel::Unit, 2);
        let s = InsertionStream::paper_default(&g, 7);
        let off_tree = g.num_edges() - (g.num_nodes() - 1);
        let expect = ((off_tree as f64) * 0.24) as usize;
        assert_eq!(s.batches().len(), 10);
        let total = s.total_edges();
        assert!(
            total >= expect.saturating_sub(15) && total <= expect + 15,
            "total {total} vs expected ≈{expect}"
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let g = grid_2d(10, 10, WeightModel::Unit, 0);
        let a = InsertionStream::generate(&g, &StreamConfig::default());
        let b = InsertionStream::generate(&g, &StreamConfig::default());
        assert_eq!(a.batches()[0], b.batches()[0]);
    }

    #[test]
    fn churn_stream_ops_are_consistent_and_connected() {
        use ingrass_graph::is_connected;
        let g = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
        let s = ChurnStream::generate(
            &g,
            &ChurnConfig {
                batches: 6,
                ops_per_batch: 40,
                ..Default::default()
            },
        );
        assert_eq!(s.total_ops(), 240);
        assert_eq!(s.inserts() + s.deletes() + s.reweights(), s.total_ops());
        assert!(s.deletes() > 0 && s.reweights() > 0 && s.inserts() > 0);
        // Replay tracks liveness: every delete/reweight hits a live edge,
        // every insert a free pair; the graph stays connected throughout.
        let mut d = DynGraph::from_graph(&g);
        for batch in s.batches() {
            for op in batch {
                match *op {
                    ChurnOp::Insert(u, v, w) => {
                        assert!(
                            d.edge_id(u.into(), v.into()).is_none(),
                            "insert over live edge"
                        );
                        assert!(w > 0.0);
                        d.add_edge(u.into(), v.into(), w).unwrap();
                    }
                    ChurnOp::Delete(u, v) => {
                        assert!(
                            d.remove_edge(u.into(), v.into()).is_some(),
                            "delete of dead edge"
                        );
                    }
                    ChurnOp::Reweight(u, v, w) => {
                        let id = d
                            .edge_id(u.into(), v.into())
                            .expect("reweight of dead edge");
                        assert!(w > 0.0);
                        d.set_weight(id, w).unwrap();
                    }
                }
            }
            assert!(is_connected(&d.to_graph()), "prefix disconnected the graph");
        }
        let final_graph = s.apply_to(&g).unwrap();
        assert_eq!(final_graph.num_edges(), d.to_graph().num_edges());
    }

    #[test]
    fn churn_stream_is_deterministic_and_respects_mix() {
        let g = grid_2d(14, 14, WeightModel::Unit, 3);
        let cfg = ChurnConfig {
            batches: 5,
            ops_per_batch: 60,
            delete_fraction: 0.4,
            reweight_fraction: 0.2,
            ..Default::default()
        };
        let a = ChurnStream::generate(&g, &cfg);
        let b = ChurnStream::generate(&g, &cfg);
        assert_eq!(a.batches()[0], b.batches()[0]);
        assert_eq!(a.deletes(), b.deletes());
        // The realized mix tracks the configured fractions loosely (deletes
        // can be starved only when churnable edges run out).
        let total = a.total_ops() as f64;
        assert!(
            (a.deletes() as f64 / total - 0.4).abs() < 0.15,
            "{}",
            a.deletes()
        );
        assert!((a.reweights() as f64 / total - 0.2).abs() < 0.15);
    }

    #[test]
    fn churn_insert_only_matches_insertion_semantics() {
        // With zero delete/reweight fractions every op is an insert of a
        // genuinely new pair.
        let g = grid_2d(10, 10, WeightModel::Unit, 5);
        let s = ChurnStream::generate(
            &g,
            &ChurnConfig {
                batches: 4,
                ops_per_batch: 25,
                delete_fraction: 0.0,
                reweight_fraction: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(s.deletes() + s.reweights(), 0);
        let mut seen = HashSet::new();
        for batch in s.batches() {
            for op in batch {
                let ChurnOp::Insert(u, v, _) = *op else {
                    panic!("non-insert op in insert-only stream")
                };
                assert!(g.edge_weight(u.into(), v.into()).is_none());
                assert!(seen.insert((u, v)));
            }
        }
    }

    #[test]
    fn skewed_churn_is_deterministic_for_seed() {
        let g = grid_2d(12, 12, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 9);
        // Quadrant labelling: 4 labels over the 12×12 grid.
        let labels: Vec<u32> = (0..144)
            .map(|i| {
                let (x, y) = (i % 12, i / 12);
                ((y / 6) * 2 + x / 6) as u32
            })
            .collect();
        let skew = ShardSkew {
            labels,
            hot_fraction: 0.3,
            cross_fraction: 0.2,
            hot_label: 1,
        };
        let cfg = ChurnConfig {
            batches: 5,
            ops_per_batch: 50,
            ..Default::default()
        };
        let a = ChurnStream::generate_with_skew(&g, &cfg, &skew);
        let b = ChurnStream::generate_with_skew(&g, &cfg, &skew);
        assert_eq!(a.batches(), b.batches());
        assert_eq!(a.inserts(), b.inserts());
        // Still a valid churn stream: replay succeeds and stays connected.
        use ingrass_graph::is_connected;
        assert!(is_connected(&a.apply_to(&g).unwrap()));
    }

    #[test]
    fn skew_biases_hot_label_and_cross_fraction() {
        let g = grid_2d(16, 16, WeightModel::Unit, 4);
        let labels: Vec<u32> = (0..256)
            .map(|i| {
                let (x, y) = (i % 16, i / 16);
                ((y / 8) * 2 + x / 8) as u32
            })
            .collect();
        let skew = ShardSkew {
            labels: labels.clone(),
            hot_fraction: 0.6,
            cross_fraction: 0.25,
            hot_label: 2,
        };
        let s = ChurnStream::generate_with_skew(
            &g,
            &ChurnConfig {
                batches: 8,
                ops_per_batch: 80,
                delete_fraction: 0.0,
                reweight_fraction: 0.0,
                ..Default::default()
            },
            &skew,
        );
        let mut cross = 0usize;
        let mut per_label = [0usize; 4];
        let mut total = 0usize;
        for batch in s.batches() {
            for op in batch {
                let ChurnOp::Insert(u, v, _) = *op else {
                    panic!("insert-only stream")
                };
                total += 1;
                if labels[u] != labels[v] {
                    cross += 1;
                } else {
                    per_label[labels[u] as usize] += 1;
                }
            }
        }
        assert!(total > 100);
        let cross_frac = cross as f64 / total as f64;
        assert!(
            (cross_frac - 0.25).abs() < 0.12,
            "cross fraction {cross_frac}"
        );
        // The hot label dominates intra-label insertions: with a 0.6 hot
        // bias it should hold well over twice any cold label's share.
        let hot = per_label[2];
        for (lab, &cold) in per_label.iter().enumerate() {
            if lab != 2 {
                assert!(hot > 2 * cold, "hot {hot} vs label {lab} = {cold}");
            }
        }
    }

    #[test]
    fn locality_controls_edge_span() {
        // Fully local streams should have shorter grid distances than
        // fully global ones.
        let w = 30usize;
        let g = grid_2d(w, w, WeightModel::Unit, 3);
        let dist = |edges: &InsertionStream| -> f64 {
            let mut total = 0.0;
            let mut count = 0usize;
            for b in edges.batches() {
                for &(u, v, _) in b {
                    let (ux, uy) = (u % w, u / w);
                    let (vx, vy) = (v % w, v / w);
                    total += ((ux as f64 - vx as f64).abs()) + ((uy as f64 - vy as f64).abs());
                    count += 1;
                }
            }
            total / count.max(1) as f64
        };
        let local = InsertionStream::generate(
            &g,
            &StreamConfig {
                locality: 1.0,
                batches: 4,
                edges_per_batch: 50,
                ..Default::default()
            },
        );
        let global = InsertionStream::generate(
            &g,
            &StreamConfig {
                locality: 0.0,
                batches: 4,
                edges_per_batch: 50,
                ..Default::default()
            },
        );
        assert!(dist(&local) < dist(&global));
    }
}
