//! Criterion timing ablations of two design choices: spanning-tree
//! constructions and GRASS selection policies. (The *quality*
//! side of these ablations lives in the `ablation` binary, which prints κ
//! tables.)

use criterion::{criterion_group, criterion_main, Criterion};
use ingrass_baselines::{GrassConfig, GrassSparsifier, SelectionPolicy, TreeKind};
use ingrass_gen::{delaunay, DelaunayConfig};
use ingrass_graph::{effective_weight_tree, kruskal_tree, low_stretch_tree, TreeObjective};

fn bench_trees(c: &mut Criterion) {
    let mut group = c.benchmark_group("spanning_tree_build");
    group.sample_size(10);
    let g = delaunay(&DelaunayConfig {
        points: 10_000,
        seed: 2,
        ..Default::default()
    })
    .expect("delaunay");
    group.bench_function("kruskal_max_weight", |b| {
        b.iter(|| kruskal_tree(&g, TreeObjective::MaxWeight).expect("tree"))
    });
    group.bench_function("effective_weight", |b| {
        b.iter(|| effective_weight_tree(&g).expect("tree"))
    });
    group.bench_function("low_stretch_mpx", |b| {
        b.iter(|| low_stretch_tree(&g, 7).expect("tree"))
    });
    group.finish();
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("grass_selection_policy");
    group.sample_size(10);
    let g = delaunay(&DelaunayConfig {
        points: 10_000,
        seed: 3,
        ..Default::default()
    })
    .expect("delaunay");
    for (name, selection) in [
        ("topk", SelectionPolicy::TopK),
        ("spread_peel", SelectionPolicy::SpreadPeel),
    ] {
        group.bench_function(name, |b| {
            let grass = GrassSparsifier::new(GrassConfig {
                tree: TreeKind::LowStretch(7),
                selection,
            });
            b.iter(|| grass.by_offtree_density(&g, 0.10).expect("sparsify"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trees, bench_selection);
criterion_main!(benches);
