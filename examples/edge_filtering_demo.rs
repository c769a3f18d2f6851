//! Reproduces paper **Fig. 3**: three new edges arrive and the filtering
//! level decides their fate — one is *merged* into an existing edge between
//! the same cluster pair, one is *redistributed* inside its cluster, and
//! one is *included* because no sparsifier edge connects its clusters.
//!
//! Run with: `cargo run --release --example edge_filtering_demo`

use ingrass_repro::core::EdgeOutcome;
use ingrass_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three 5-node communities in a row, bridged by single edges:
    //   cluster A = 0..5, B = 5..10, C = 10..15; bridges 4-5 and 9-10.
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for base in [0usize, 5, 10] {
        for i in 0..5 {
            edges.push((base + i, base + (i + 1) % 5, 5.0));
        }
    }
    edges.push((4, 5, 0.5)); // A—B bridge
    edges.push((9, 10, 0.5)); // B—C bridge
    let h0 = Graph::from_edges(15, &edges)?;

    let mut engine = InGrassEngine::setup(&h0, &SetupConfig::default())?;

    // Pick a target condition number whose filtering level groups each
    // community into one cluster (max cluster size 5 ⇒ C = 10 works).
    let cfg = UpdateConfig {
        target_condition: 10.0,
        ..Default::default()
    };
    let level = engine.filtering_level(cfg.target_condition);
    let lvl = engine.hierarchy().level(level);
    println!(
        "filtering level {level}: {} clusters (sizes up to {})",
        lvl.num_clusters,
        lvl.max_cluster_size()
    );
    for u in [0usize, 4, 5, 9, 10, 14] {
        println!("  node {u:>2} → cluster {}", lvl.cluster_of[u]);
    }

    // The three arrivals of Fig. 3 and the outcome the paper shows for each:
    let candidates = [
        (
            3,
            6,
            1.0,
            EdgeOutcome::Merged,
            "A↔B again — an A–B edge already exists",
        ),
        (
            6,
            8,
            1.0,
            EdgeOutcome::Redistributed,
            "inside B — endpoints share a cluster",
        ),
        (
            2,
            12,
            1.0,
            EdgeOutcome::Included,
            "A↔C — no sparsifier edge between those clusters",
        ),
    ];
    let edges_before = engine.sparsifier().num_edges();
    println!("\nprocessing three new edges (distortion-ranked):");
    for (u, v, w, expected, why) in candidates {
        let distortion = engine.estimate_distortion(u.into(), v.into(), w);
        let before_edges = engine.sparsifier().num_edges();
        let before_weight = engine.sparsifier().total_weight();
        let r = engine.insert_batch(&[(u, v, w)], &cfg)?;
        let outcome = if r.included == 1 {
            EdgeOutcome::Included
        } else if r.merged == 1 {
            EdgeOutcome::Merged
        } else {
            EdgeOutcome::Redistributed
        };
        println!(
            "  ({u:>2},{v:>2}) w={w}  distortion≈{distortion:.2}  → {outcome:?}  \
             (edges {}→{}, total weight {:.2}→{:.2})  // {why}",
            before_edges,
            engine.sparsifier().num_edges(),
            before_weight,
            engine.sparsifier().total_weight()
        );
        assert_eq!(outcome, expected, "({u},{v}): {why}");
    }
    assert_eq!(engine.sparsifier().num_edges(), edges_before + 1);

    println!(
        "\nresult: sparsifier gained exactly one edge; the other two arrivals \
         were absorbed as weight adjustments, as in paper Fig. 3(b)."
    );
    Ok(())
}
