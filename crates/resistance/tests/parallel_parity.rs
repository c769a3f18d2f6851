//! Parallel execution must be invisible: the Krylov embedding's output is
//! bit-for-bit identical at any thread count. These suites pin that contract
//! on random suite-style graphs — any scheduling- or reduction-order leak in
//! `ingrass-par` or the estimator shows up here as a bitwise mismatch.

use ingrass_gen::{grid_2d, WeightModel};
use ingrass_graph::Graph;
use ingrass_resistance::{KrylovConfig, KrylovEmbedder, NodeEmbedding, ResistanceEstimator};
use proptest::prelude::*;

/// A connected random-weight grid in the size band the suite generators
/// produce at test scale.
fn random_suite_graph(side: usize, seed: u64) -> Graph {
    grid_2d(side, side, WeightModel::Uniform { lo: 0.25, hi: 4.0 }, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Krylov `edge_resistances` at 2/4/8 threads equals the serial result
    /// exactly — not approximately.
    #[test]
    fn prop_krylov_edge_resistances_parallel_parity(
        seed in 0u64..1000,
        side in 6usize..14,
    ) {
        let g = random_suite_graph(side, seed);
        let serial = KrylovEmbedder::build(
            &g,
            &KrylovConfig::default().with_seed(seed).with_threads(1),
        )
        .unwrap()
        .edge_resistances(&g);
        for threads in [2usize, 4, 8] {
            let parallel = KrylovEmbedder::build(
                &g,
                &KrylovConfig::default().with_seed(seed).with_threads(threads),
            )
            .unwrap()
            .edge_resistances(&g);
            prop_assert_eq!(
                &parallel,
                &serial,
                "krylov diverged at {} threads",
                threads
            );
        }
    }
}

/// The wide-graph path of `NodeEmbedding::edge_resistances` fans out across
/// threads (the proptest graphs above stay under its threshold); build a
/// graph past the threshold and check the fan-out against the hand-written
/// serial map.
#[test]
fn wide_graph_edge_resistances_match_serial_map() {
    let side = 100; // 19_800 edges
    let g = random_suite_graph(side, 7);
    assert!(g.num_edges() > ingrass_par::PAR_AUTO_THRESHOLD);
    let n = g.num_nodes();
    let dim = 6;
    let data: Vec<f64> = (0..n * dim)
        .map(|i| ((i as f64) * 0.37).sin()) // deterministic synthetic rows
        .collect();
    let emb = NodeEmbedding::from_rows(n, dim, data);
    let serial: Vec<f64> = g.edges().iter().map(|e| emb.distance2(e.u, e.v)).collect();
    assert_eq!(emb.edge_resistances(&g), serial);
}
