//! The paper's Krylov-subspace resistance embedding (setup phase, eq. (3)).

use crate::embedding::NodeEmbedding;
use ingrass_graph::{Graph, GraphError, NodeId};
use ingrass_linalg::block::{sum_identity, tile, tile_mut, with_lanes, LANES};
use ingrass_linalg::vector::{mgs_orthogonalize, normalize, random_unit_perp_ones};
use ingrass_linalg::{CsrMatrix, DenseMatrix, LinearOperator};
use std::ops::Range;

/// Jacobi damping factor `ω` of the smoothing operator
/// `(1−ω)·I + ω·D⁻¹A`, in `(0, 1]`. Damping keeps the alternating mode of
/// bipartite-ish graphs out of the subspace.
const OMEGA: f64 = 0.7;

/// Smoothing sweeps applied to every random probe (randomized subspace
/// iteration depth).
const STEPS: usize = 8;

/// Configuration for [`KrylovEmbedder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct KrylovConfig {
    /// Krylov subspace order `m` (embedding dimension). `None` picks
    /// `⌈log₂ n⌉ + 4`, matching the paper's `O(log N)` prescription with a
    /// constant that keeps small graphs accurate.
    pub dim: Option<usize>,
    /// RNG seed of the random probes.
    pub seed: u64,
    /// Worker threads for the embarrassingly parallel stages (probe
    /// smoothing, Rayleigh–Ritz assembly, coordinate columns). `None`
    /// (default) uses the ambient width from `ingrass_par::num_threads`
    /// (`INGRASS_THREADS` override, else host parallelism). The result is
    /// bit-for-bit identical at any thread count.
    pub threads: Option<usize>,
}

impl Default for KrylovConfig {
    fn default() -> Self {
        KrylovConfig {
            dim: None,
            seed: 42,
            threads: None,
        }
    }
}

impl KrylovConfig {
    /// Returns the config with an explicit embedding dimension.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = Some(dim);
        self
    }

    /// Returns the config with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with an explicit worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// The paper's scalable effective-resistance estimator (Section III-B-1).
///
/// Smooths `m` seeded random probes with the damped random-walk operator
/// `(1−ω)·I + ω·D⁻¹A` (one weighted-Jacobi sweep, since
/// `D⁻¹A = I − D⁻¹L`), orthonormalises them into `ũ_1 … ũ_m`, then
/// estimates
///
/// ```text
/// R(p, q) ≈ Σ_i (ũ_iᵀ b_pq)² / (ũ_iᵀ L ũ_i)        (paper eq. (3))
/// ```
///
/// which is the squared distance between rows of the node embedding
/// `y_p[i] = ũ_i[p] / sqrt(ũ_iᵀ L ũ_i)`. The sweeps pull every probe onto
/// the smooth (low Laplacian frequency) modes that dominate effective
/// resistance — the solver-free smoothing SF-GRASS \[9\] uses — which the
/// paper's literal single-vector chain `x, Ax, A²x, …` does not on
/// irregular graphs. Cost: a fixed number of sparse mat-vecs per probe plus
/// `O(n m²)` orthogonalisation — no linear solves.
///
/// The estimate is coarse in absolute terms but preserves the *ordering* of
/// resistances well, which is all the LRD decomposition and the distortion
/// ranking need (validated against [`crate::ExactResistance`] in this
/// crate's tests and the workspace's `oracle_resistance` suite).
#[derive(Debug, Clone, PartialEq)]
pub struct KrylovEmbedder {
    embedding: NodeEmbedding,
}

impl KrylovEmbedder {
    /// Builds the Krylov resistance embedding of `g`.
    ///
    /// # Errors
    /// [`GraphError::Empty`] if the graph has no nodes.
    pub fn build(g: &Graph, cfg: &KrylovConfig) -> Result<Self, GraphError> {
        Ok(KrylovEmbedder {
            embedding: build_krylov_embedding(g, cfg)?,
        })
    }

    /// The underlying node embedding.
    pub fn embedding(&self) -> &NodeEmbedding {
        &self.embedding
    }

    /// Number of embedded nodes.
    pub fn num_nodes(&self) -> usize {
        self.embedding.num_nodes()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.embedding.dim()
    }

    /// Squared embedding distance (= resistance estimate) between `u` and `v`.
    pub fn distance2(&self, u: NodeId, v: NodeId) -> f64 {
        self.embedding.distance2(u, v)
    }
}

impl crate::ResistanceEstimator for KrylovEmbedder {
    fn resistance(&self, u: NodeId, v: NodeId) -> f64 {
        self.embedding.distance2(u, v)
    }

    fn edge_resistances(&self, g: &Graph) -> Vec<f64> {
        crate::ResistanceEstimator::edge_resistances(&self.embedding, g)
    }
}

fn build_krylov_embedding(g: &Graph, cfg: &KrylovConfig) -> Result<NodeEmbedding, GraphError> {
    let n = g.num_nodes();
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let m = cfg
        .dim
        .unwrap_or_else(|| ((n.max(2) as f64).log2().ceil() as usize) + 4)
        .clamp(1, n.saturating_sub(1).max(1));

    let lap: CsrMatrix = g.laplacian();
    let adj: CsrMatrix = g.adjacency_matrix();
    let inv_deg: Vec<f64> = (0..n)
        .map(|u| {
            let d = g.weighted_degree(NodeId::new(u));
            if d > 0.0 {
                1.0 / d
            } else {
                0.0
            }
        })
        .collect();
    let threads = cfg.threads.unwrap_or_else(ingrass_par::num_threads);

    // Randomized subspace iteration: a *block* of m random probes, each
    // smoothed `STEPS` times, covers the m lowest Laplacian modes far
    // better than a single Krylov chain. Each probe starts from its own
    // seeded random vector and is smoothed independently of the others —
    // the hot O(m · STEPS · nnz) stage runs in parallel, one contiguous
    // run of probes per worker, and only the (order-sensitive, O(n m²))
    // MGS pass below stays serial, so the basis is identical at any thread
    // count.
    let runs = ingrass_par::split_even(m, threads);
    let smoothed: Vec<Vec<f64>> = ingrass_par::par_map_with(threads, &runs, |run| {
        smooth_probes(&adj, &inv_deg, cfg.seed, run.clone())
    })
    .into_iter()
    .flatten()
    .collect();
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    for mut w in smoothed {
        mgs_orthogonalize(&mut w, &basis);
        if normalize(&mut w) <= 1e-12 {
            continue; // rank-deficient probe; skip
        }
        basis.push(w);
    }
    Ok(ritz_embedding(&lap, basis, cfg.seed, threads))
}

/// The node embedding of eq. (3) over the orthonormal `basis` (a seeded
/// random direction when the probes were all rank-deficient).
///
/// Rayleigh–Ritz on L over the Krylov space: the projected matrix
/// T = ŨᵀLŨ is eigendecomposed and its Ritz pairs (θ_i, Ũs_i) serve as
/// the "new set of mutually-orthogonal vectors approximating the original
/// Laplacian eigenvectors" of the paper. The low Ritz pairs converge to
/// the low Laplacian eigenpairs — the ones that dominate eq. (2).
fn ritz_embedding(
    lap: &CsrMatrix,
    mut basis: Vec<Vec<f64>>,
    seed: u64,
    threads: usize,
) -> NodeEmbedding {
    let n = lap.n_rows();
    if basis.is_empty() {
        basis.push(random_unit_perp_ones(n, seed));
    }
    let dim = basis.len();
    // LŨ, one contiguous run of basis vectors per worker multiplied as one
    // block (each column bit-identical to `matvec`).
    let runs = ingrass_par::split_even(dim, threads);
    let lu: Vec<Vec<f64>> = ingrass_par::par_map_with(threads, &runs, |run| {
        let x = to_block(&basis[run.clone()]);
        let mut y = vec![0.0; x.len()];
        lap.apply_block(&x, &mut y, run.len(), &mut Vec::new());
        lanes(&y, run.len())
    })
    .into_iter()
    .flatten()
    .collect();
    // Upper triangle of T, one independent row per basis vector; a row's
    // dot products run side by side, a register tile of columns per pass.
    let t_rows: Vec<Vec<f64>> = ingrass_par::par_map_range_with(threads, dim, |i| {
        let mut row = Vec::with_capacity(dim - i);
        for cols in lu[i..].chunks(LANES) {
            with_lanes!(cols.len(), dots(&basis[i], cols, &mut row));
        }
        row
    });
    let mut t = DenseMatrix::zeros(dim, dim);
    for (i, row) in t_rows.iter().enumerate() {
        for (off, &v) in row.iter().enumerate() {
            let j = i + off;
            t.set(i, j, v);
            t.set(j, i, v);
        }
    }
    let (theta, s) = t
        .symmetric_eigen()
        .expect("small symmetric eigenproblem cannot fail");
    let theta_max = theta.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let cutoff = 1e-12 * theta_max.max(f64::MIN_POSITIVE);

    // Node coordinates: y_p[i] = (Ũ s_i)[p] / sqrt(θ_i), eq. (3). Each Ritz
    // direction fills one embedding column independently; the per-column
    // accumulation order over j is the serial loop's, so the coordinates are
    // bitwise thread-count-independent.
    let cols: Vec<Option<Vec<f64>>> = ingrass_par::par_map_range_with(threads, dim, |i| {
        let th = theta[i];
        if th <= cutoff {
            return None; // numerically-null direction carries no energy
        }
        let inv_sqrt = 1.0 / th.sqrt();
        let mut col = vec![0.0; n];
        for (j, u) in basis.iter().enumerate() {
            let c = s.get(j, i) * inv_sqrt;
            if c == 0.0 {
                continue;
            }
            for (cp, up) in col.iter_mut().zip(u) {
                *cp += c * up;
            }
        }
        Some(col)
    });
    let mut data = vec![0.0; n * dim];
    for (i, col) in cols.iter().enumerate() {
        if let Some(col) = col {
            for (p, &v) in col.iter().enumerate() {
                data[p * dim + i] = v;
            }
        }
    }
    NodeEmbedding::from_rows(n, dim, data)
}

/// Appends `uᵀcols[c]` for each of the `W` columns `cols` to `out`, each
/// summed in ascending order from [`Iterator::sum`]'s start, as
/// `vector::dot` does.
fn dots<const W: usize>(u: &[f64], cols: &[Vec<f64>], out: &mut Vec<f64>) {
    let cols: [&[f64]; W] = std::array::from_fn(|c| &cols[c][..u.len()]);
    let mut acc = [sum_identity(); W];
    for (p, &up) in u.iter().enumerate() {
        for c in 0..W {
            acc[c] += up * cols[c][p];
        }
    }
    out.extend(acc);
}

/// The probes `run`, each drawn from its own seed and smoothed `STEPS`
/// times by `(1−ω)·I + ω·D⁻¹A`, then centred and normalised, in probe
/// order.
///
/// The probes advance together in register tiles of at most [`LANES`],
/// so one pass over the adjacency rows serves a whole tile instead of one
/// latency-bound product per probe. Every probe gets exactly the
/// arithmetic of smoothing it alone — `CsrMatrix::matvec`, then
/// `vector::project_out_ones` and `vector::normalize`, rows in ascending
/// order — so its bits do not depend on its tile.
fn smooth_probes(adj: &CsrMatrix, inv_deg: &[f64], seed: u64, run: Range<usize>) -> Vec<Vec<f64>> {
    let n = inv_deg.len();
    let mut out = Vec::with_capacity(run.len());
    for tile in ingrass_par::split_even(run.len(), run.len().div_ceil(LANES)) {
        let probes: Vec<Vec<f64>> = tile
            .map(|i| {
                random_unit_perp_ones(n, ingrass_par::derive_seed(seed, (run.start + i) as u64))
            })
            .collect();
        out.extend(with_lanes!(probes.len(), smooth_tile(adj, inv_deg, probes)));
    }
    out
}

/// [`smooth_probes`] for one tile of `W` probes, held as a row-major
/// `n × W` block. A probe whose norm falls to `√f64::MIN_POSITIVE` stops
/// at that sweep: its vector is taken then, and the sweeps its lane still
/// runs are discarded.
fn smooth_tile<const W: usize>(
    adj: &CsrMatrix,
    inv_deg: &[f64],
    probes: Vec<Vec<f64>>,
) -> Vec<Vec<f64>> {
    let mut x = to_block(&probes);
    drop(probes);
    let mut y = vec![0.0; x.len()];
    let mut stopped: Vec<Option<Vec<f64>>> = vec![None; W];
    for _ in 0..STEPS {
        let norm = sweep::<W>(adj, inv_deg, &x, &mut y);
        std::mem::swap(&mut x, &mut y);
        for (c, slot) in stopped.iter_mut().enumerate() {
            if slot.is_none() && norm[c] <= f64::MIN_POSITIVE.sqrt() {
                *slot = Some(lane(&x, W, c)); // probe annihilated (tiny graphs)
            }
        }
        if stopped.iter().all(Option::is_some) {
            break;
        }
    }
    stopped
        .into_iter()
        .enumerate()
        .map(|(c, slot)| slot.unwrap_or_else(|| lane(&x, W, c)))
        .collect()
}

/// The vectors `cols` (all of one length) as a row-major block, one
/// column each.
fn to_block(cols: &[Vec<f64>]) -> Vec<f64> {
    let k = cols.len();
    let mut block = vec![0.0; cols.first().map_or(0, Vec::len) * k];
    for (c, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            block[i * k + c] = v;
        }
    }
    block
}

/// Column `c` of a row-major block of `k` columns.
fn lane(block: &[f64], k: usize, c: usize) -> Vec<f64> {
    block[c..].iter().step_by(k).copied().collect()
}

/// Every column of a row-major block of `k` columns.
fn lanes(block: &[f64], k: usize) -> Vec<Vec<f64>> {
    (0..k).map(|c| lane(block, k, c)).collect()
}

/// One smoothing sweep of every lane of the `n × W` block `x` into `y`,
/// returning each lane's norm before normalisation.
fn sweep<const W: usize>(adj: &CsrMatrix, inv_deg: &[f64], x: &[f64], y: &mut [f64]) -> [f64; W] {
    let n = inv_deg.len();
    // y ← (1−ω)·x + ω·D⁻¹(A·x), summing each lane as it is written.
    let mut sum = [sum_identity(); W];
    for (i, &di) in inv_deg.iter().enumerate() {
        let (cols, vals) = adj.row(i);
        let mut acc = [0.0f64; W]; // `matvec` starts each row at 0.0
        for (&j, &a) in cols.iter().zip(vals) {
            let xj = tile::<W>(x, j as usize * W);
            for c in 0..W {
                acc[c] += a * xj[c];
            }
        }
        let xi = tile::<W>(x, i * W);
        let yi = tile_mut::<W>(y, i * W);
        for c in 0..W {
            yi[c] = (1.0 - OMEGA) * xi[c] + OMEGA * acc[c] * di;
            sum[c] += yi[c];
        }
    }
    // Centre each lane, summing its squares.
    let mean = sum.map(|s| s / n as f64);
    let mut sq = [sum_identity(); W];
    for i in 0..n {
        let yi = tile_mut::<W>(y, i * W);
        for c in 0..W {
            yi[c] -= mean[c];
            sq[c] += yi[c] * yi[c];
        }
    }
    // Scale each lane to unit length; a zero lane stays as it is.
    let norm = sq.map(f64::sqrt);
    let inv = norm.map(|v| if v > 0.0 { 1.0 / v } else { 1.0 });
    for i in 0..n {
        let yi = tile_mut::<W>(y, i * W);
        for c in 0..W {
            yi[c] *= inv[c];
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactResistance;
    use crate::ResistanceEstimator;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn grid(w: usize, h: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let u = y * w + x;
                if x + 1 < w {
                    edges.push((u, u + 1, 0.5 + rng.random::<f64>()));
                }
                if y + 1 < h {
                    edges.push((u, u + w, 0.5 + rng.random::<f64>()));
                }
            }
        }
        Graph::from_edges(w * h, &edges).unwrap()
    }

    fn spearman(a: &[f64], b: &[f64]) -> f64 {
        fn ranks(x: &[f64]) -> Vec<f64> {
            let mut idx: Vec<usize> = (0..x.len()).collect();
            idx.sort_by(|&i, &j| x[i].total_cmp(&x[j]));
            let mut r = vec![0.0; x.len()];
            for (rank, &i) in idx.iter().enumerate() {
                r[i] = rank as f64;
            }
            r
        }
        let (ra, rb) = (ranks(a), ranks(b));
        let n = a.len() as f64;
        let mean = (n - 1.0) / 2.0;
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for i in 0..a.len() {
            num += (ra[i] - mean) * (rb[i] - mean);
            da += (ra[i] - mean).powi(2);
            db += (rb[i] - mean).powi(2);
        }
        num / (da.sqrt() * db.sqrt())
    }

    /// The one-vector-at-a-time pipeline that the embedding replays: each
    /// probe smoothed alone through `matvec_alloc`, `project_out_ones`
    /// and `normalize`; Gram–Schmidt by a whole `dot` and a whole `axpy`
    /// per basis vector, twice; one dot product per entry of T; one
    /// embedding column per Ritz direction.
    fn reference_embedding(g: &Graph, cfg: &KrylovConfig) -> NodeEmbedding {
        use ingrass_linalg::vector::{axpy, dot, project_out_ones};
        let n = g.num_nodes();
        let m = cfg
            .dim
            .unwrap_or_else(|| ((n.max(2) as f64).log2().ceil() as usize) + 4)
            .clamp(1, n.saturating_sub(1).max(1));
        let lap = g.laplacian();
        let adj = g.adjacency_matrix();
        let inv_deg: Vec<f64> = (0..n)
            .map(|u| {
                let d = g.weighted_degree(NodeId::new(u));
                if d > 0.0 {
                    1.0 / d
                } else {
                    0.0
                }
            })
            .collect();
        let smooth = |x: &[f64]| -> Vec<f64> {
            let mut y = adj.matvec_alloc(x);
            for ((yi, xi), di) in y.iter_mut().zip(x).zip(&inv_deg) {
                *yi = (1.0 - OMEGA) * xi + OMEGA * *yi * di;
            }
            y
        };
        let mut basis: Vec<Vec<f64>> = Vec::new();
        for i in 0..m {
            let mut w = random_unit_perp_ones(n, ingrass_par::derive_seed(cfg.seed, i as u64));
            for _ in 0..STEPS {
                w = smooth(&w);
                project_out_ones(&mut w);
                if normalize(&mut w) <= f64::MIN_POSITIVE.sqrt() {
                    break;
                }
            }
            for _ in 0..2 {
                for b in &basis {
                    let c = dot(&w, b);
                    axpy(-c, b, &mut w);
                }
            }
            if normalize(&mut w) <= 1e-12 {
                continue;
            }
            basis.push(w);
        }
        if basis.is_empty() {
            basis.push(random_unit_perp_ones(n, cfg.seed));
        }

        let dim = basis.len();
        let lu: Vec<Vec<f64>> = basis.iter().map(|u| lap.matvec_alloc(u)).collect();
        let mut t = DenseMatrix::zeros(dim, dim);
        for i in 0..dim {
            for j in i..dim {
                let v: f64 = basis[i].iter().zip(&lu[j]).map(|(a, b)| a * b).sum();
                t.set(i, j, v);
                t.set(j, i, v);
            }
        }
        let (theta, s) = t.symmetric_eigen().unwrap();
        let theta_max = theta.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let cutoff = 1e-12 * theta_max.max(f64::MIN_POSITIVE);
        let mut data = vec![0.0; n * dim];
        for (i, &th) in theta.iter().enumerate() {
            if th <= cutoff {
                continue;
            }
            let inv_sqrt = 1.0 / th.sqrt();
            let mut col = vec![0.0; n];
            for (j, u) in basis.iter().enumerate() {
                let c = s.get(j, i) * inv_sqrt;
                if c == 0.0 {
                    continue;
                }
                for (cp, up) in col.iter_mut().zip(u) {
                    *cp += c * up;
                }
            }
            for (p, &v) in col.iter().enumerate() {
                data[p * dim + i] = v;
            }
        }
        NodeEmbedding::from_rows(n, dim, data)
    }

    #[test]
    fn embedding_matches_the_one_probe_pipeline_bit_for_bit() {
        use ingrass_gen::TestCase;
        use ingrass_graph::{kruskal_tree, TreeObjective};
        // A Delaunay sparsifier: the heaviest spanning tree plus every
        // tenth off-tree edge.
        let delaunay = TestCase::DelaunayN18.build(0.005, 3);
        let tree = kruskal_tree(&delaunay, TreeObjective::MaxWeight).unwrap();
        let mut off = 0;
        let keep: Vec<bool> = tree
            .in_tree
            .iter()
            .map(|&t| {
                off += usize::from(!t);
                t || off % 10 == 0
            })
            .collect();
        let triangle = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)];
        // Default dimensions cut the probes into tiles of 1 to 8 across
        // the widths below; the wide grid adds a run longer than a tile at
        // every width.
        let cases = [
            ("grid 9x7", grid(9, 7, 1), None),
            ("grid 16x5", grid(16, 5, 2), None),
            ("grid 12x12, 23 probes", grid(12, 12, 3), Some(23)),
            ("delaunay sparsifier", delaunay.edge_subgraph(&keep), None),
            ("K3", Graph::from_edges(3, &triangle).unwrap(), None),
            ("one node", Graph::from_edges(1, &[]).unwrap(), None),
            (
                "two nodes",
                Graph::from_edges(2, &[(0, 1, 2.5)]).unwrap(),
                None,
            ),
        ];
        for (name, g, dim) in cases {
            let cfg = KrylovConfig {
                dim,
                seed: 17,
                threads: None,
            };
            let reference = reference_embedding(&g, &cfg);
            for threads in 1..=4 {
                let emb = KrylovEmbedder::build(&g, &cfg.clone().with_threads(threads)).unwrap();
                assert_eq!(emb.dim(), reference.dim(), "{name}");
                for u in g.nodes() {
                    let bits = |e: &NodeEmbedding| -> Vec<u64> {
                        e.vector(u).iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(emb.embedding()),
                        bits(&reference),
                        "{name}, {threads} threads, node {u:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn embedding_dimension_defaults_to_log_n() {
        let g = grid(8, 8, 1);
        let emb = KrylovEmbedder::build(&g, &KrylovConfig::default()).unwrap();
        assert_eq!(emb.num_nodes(), 64);
        assert_eq!(emb.dim(), 10); // ceil(log2 64) + 4
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = grid(6, 6, 2);
        let cfg = KrylovConfig::default().with_seed(9);
        let a = KrylovEmbedder::build(&g, &cfg).unwrap();
        let b = KrylovEmbedder::build(&g, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn path_graph_resistances_track_distance() {
        // Truncated spectral sums are not strictly monotone along a path;
        // the *ranking* must still strongly track the true resistance.
        let n = 16;
        let edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let emb = KrylovEmbedder::build(&g, &KrylovConfig::default().with_dim(12)).unwrap();
        let approx: Vec<f64> = (1..n).map(|k| emb.distance2(0.into(), k.into())).collect();
        let truth: Vec<f64> = (1..n).map(|k| k as f64).collect();
        let rho = spearman(&approx, &truth);
        assert!(rho > 0.8, "spearman along path too low: {rho}");
        // Far pairs must read clearly larger than adjacent ones.
        assert!(approx[14] > 2.0 * approx[0]);
    }

    #[test]
    fn pair_resistance_ranking_correlates_with_exact() {
        // Pairs at mixed distances — the workload the update phase sees
        // (new edges span both local and long-range node pairs).
        let g = grid(7, 7, 3);
        let emb = KrylovEmbedder::build(&g, &KrylovConfig::default().with_dim(14)).unwrap();
        let exact = ExactResistance::dense(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut approx = Vec::new();
        let mut truth = Vec::new();
        for _ in 0..80 {
            let u: usize = rng.random_range(0..49);
            let v: usize = rng.random_range(0..49);
            if u == v {
                continue;
            }
            approx.push(emb.distance2(u.into(), v.into()));
            truth.push(exact.resistance(u.into(), v.into()));
        }
        let rho = spearman(&approx, &truth);
        assert!(rho > 0.6, "spearman correlation too low: {rho}");
    }

    #[test]
    fn empty_graph_errors() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(KrylovEmbedder::build(&g, &KrylovConfig::default()).is_err());
    }

    #[test]
    fn tiny_complete_graph_does_not_panic_on_exhausted_krylov_space() {
        // K3 has a 2-dimensional nontrivial spectrum; asking for dim 3 should
        // cap gracefully.
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        let emb = KrylovEmbedder::build(&g, &KrylovConfig::default().with_dim(3)).unwrap();
        assert!(emb.dim() >= 1);
        // K3 with unit weights: exact R = 2/3 between any pair; the embedding
        // must at least be symmetric across pairs.
        let r01 = emb.distance2(0.into(), 1.into());
        let r12 = emb.distance2(1.into(), 2.into());
        assert!((r01 - r12).abs() < 0.5 * r01.max(r12) + 1e-12);
    }
}
