//! Reproduces paper **Table II**: incremental sparsification over
//! 10 update iterations — densities and condition measures for GRASS
//! (from-scratch re-runs), inGRASS, and Random, plus the runtime speedup.
//!
//! `cargo run -p ingrass-bench --release --bin table2 [--scale f] [--cases a,b]`

use ingrass_bench::{run_case, write_csv, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args();
    println!(
        "Table II — 10-iteration incremental sparsification (scale {:.4}, seed {})",
        opts.scale, opts.seed
    );
    println!(
        "{:<14} {:>13} {:>14} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8} | paper ×",
        "case",
        "D0→Dall",
        "κ0→κstale",
        "GRASS-D",
        "inGRASS-D",
        "Random-D",
        "GRASS-T",
        "inGRASS-T",
        "speedup"
    );
    let mut csv = Vec::new();
    for case in &opts.cases {
        let g0 = case.build(opts.scale, opts.seed);
        let r = run_case(*case, &g0, &opts);
        println!(
            "{:<14} {:>5.1}%→{:>5.1}% {:>6.0}→{:>6.0} {:>7.1}% {:>8.1}% {:>8.1}% {:>8.2}s {:>8.4}s {:>7.0}× | {:>4.0}×",
            case.name(),
            100.0 * r.density_initial,
            100.0 * r.density_all,
            r.kappa_initial,
            r.kappa_stale,
            100.0 * r.grass_density,
            100.0 * r.ingrass_density,
            100.0 * r.random_density,
            r.grass_time,
            r.ingrass_time,
            r.speedup(),
            case.paper_speedup(),
        );
        csv.push(format!(
            "{},{},{},{:.4},{:.4},{:.2},{:.2},{:.4},{:.4},{:.4},{:.6},{:.6},{:.2},{:.2},{:.2},{:.6}",
            case.name(),
            r.nodes,
            r.edges,
            r.density_initial,
            r.density_all,
            r.kappa_initial,
            r.kappa_stale,
            r.grass_density,
            r.ingrass_density,
            r.random_density,
            r.grass_time,
            r.ingrass_time,
            r.speedup(),
            r.grass_kappa,
            r.ingrass_kappa,
            r.ingrass_kappa_two_sided,
        ));
    }
    write_csv(
        "table2.csv",
        "case,nodes,edges,d0,d_all,kappa0,kappa_stale,grass_d,ingrass_d,random_d,\
         grass_t,ingrass_t,speedup,grass_kappa,ingrass_kappa,ingrass_kappa_two_sided",
        &csv,
    );
    println!(
        "\nκ columns are the condition measure λmax(L_H⁺L_G); the CSV adds the\n\
         achieved values per method and inGRASS's two-sided κ (grass_kappa,\n\
         ingrass_kappa and ingrass_kappa_two_sided in table2.csv)."
    );
}
