//! Quality ablations of two design choices: spanning-tree backbone ×
//! selection policy for the GRASS baseline, and the LRD diameter growth
//! factor γ for the inGRASS setup.
//!
//! `cargo run -p ingrass-bench --release --bin ablation [--scale f]`

use ingrass::{InGrassEngine, SetupConfig, UpdateConfig};
use ingrass_baselines::{GrassConfig, GrassSparsifier, SelectionPolicy, TreeKind};
use ingrass_bench::HarnessOptions;
use ingrass_gen::{InsertionStream, TestCase};
use ingrass_graph::DynGraph;
use ingrass_metrics::{estimate_condition_number, ConditionOptions, SparsifierDensity};

fn main() {
    let opts = HarnessOptions::from_args();
    let cond = ConditionOptions::default();

    // ------------------------------------------------------------------
    // Ablation A: tree backbone × selection policy at equal density.
    // ------------------------------------------------------------------
    println!("Ablation A — GRASS baseline: λmax at 10% off-tree density");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "case", "maxW/topk", "maxW/peel", "effW/topk", "effW/peel", "lsst/topk", "lsst/peel"
    );
    for case in [
        TestCase::G2Circuit,
        TestCase::DelaunayN18,
        TestCase::FeSphere,
    ] {
        let g0 = case.build(opts.scale, opts.seed);
        print!("{:<14}", case.name());
        for tree in [
            TreeKind::MaxWeight,
            TreeKind::EffectiveWeight,
            TreeKind::LowStretch(7),
        ] {
            for selection in [SelectionPolicy::TopK, SelectionPolicy::SpreadPeel] {
                let out = GrassSparsifier::new(GrassConfig { tree, selection })
                    .by_offtree_density(&g0, opts.initial_density)
                    .expect("sparsification");
                let k = estimate_condition_number(&g0, &out.graph, &cond)
                    .expect("estimate")
                    .lambda_max;
                print!(" {k:>11.1}");
            }
        }
        println!();
    }

    // ------------------------------------------------------------------
    // Ablation B: inGRASS LRD diameter growth factor.
    // ------------------------------------------------------------------
    println!("\nAblation B — inGRASS: final λmax / off-tree density after 10 update batches");
    println!("{:<14} {:>18} {:>18}", "case", "γ=4", "γ=2");
    for case in [TestCase::G2Circuit, TestCase::DelaunayN18] {
        let g0 = case.build(opts.scale, opts.seed);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g0, opts.initial_density)
            .expect("sparsification");
        let target = estimate_condition_number(&g0, &h0.graph, &cond)
            .expect("estimate")
            .lambda_max;
        let stream = InsertionStream::paper_default(&g0, opts.seed);
        let mut g_cum = DynGraph::from_graph(&g0);
        for batch in stream.batches() {
            for &(u, v, w) in batch {
                g_cum.add_edge(u.into(), v.into(), w).expect("stream edge");
            }
        }
        let g_final = g_cum.to_graph();
        let density = SparsifierDensity::new(g0.num_nodes());

        print!("{:<14}", case.name());
        for gamma in [4.0, 2.0] {
            let setup = SetupConfig::default()
                .with_diameter_growth(gamma)
                .with_seed(opts.seed);
            let mut engine = InGrassEngine::setup(&h0.graph, &setup).expect("setup");
            let ucfg = UpdateConfig {
                target_condition: target,
                ..Default::default()
            };
            for batch in stream.batches() {
                engine.insert_batch(batch, &ucfg).expect("update");
            }
            let h = engine.sparsifier_graph();
            let k = estimate_condition_number(&g_final, &h, &cond)
                .expect("estimate")
                .lambda_max;
            let d = density.report_graphs(&h, &g0).off_tree;
            print!("   {:>8.1}/{:>4.1}%", k, 100.0 * d);
        }
        println!();
    }
    println!("\n(target per case = λmax of H(0) vs G(0); lower λmax and lower density are better)");
}
