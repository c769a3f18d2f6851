//! Criterion micro-benchmarks of the inGRASS update phase — the paper's
//! headline O(log N)-per-edge claim (Fig. 4 at micro scale).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use ingrass::{InGrassEngine, SetupConfig, SnapshotEngine, UpdateConfig};
use ingrass_baselines::GrassSparsifier;
use ingrass_gen::{InsertionStream, StreamConfig, TestCase};

fn bench_update_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_batch_100_edges");
    group.sample_size(20);
    group.throughput(Throughput::Elements(100));
    for case in [TestCase::G2Circuit, TestCase::DelaunayN18] {
        let g0 = case.build(0.004, 11);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g0, 0.10)
            .expect("sparsify")
            .graph;
        let stream = InsertionStream::generate(
            &g0,
            &StreamConfig {
                batches: 1,
                edges_per_batch: 100,
                ..Default::default()
            },
        );
        let batch = stream.batches()[0].clone();
        let cfg = UpdateConfig::default();
        group.bench_with_input(
            BenchmarkId::from_parameter(case.name()),
            &batch,
            |b, batch| {
                b.iter_batched(
                    || InGrassEngine::setup(&h0, &SetupConfig::default()).expect("setup"),
                    |mut e| e.insert_batch(batch, &cfg).expect("update"),
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_per_edge_scaling(c: &mut Criterion) {
    // O(log N) per edge: per-edge update cost across a 16× size sweep
    // should grow far slower than linearly.
    let mut group = c.benchmark_group("update_per_edge_scaling");
    group.sample_size(10);
    for scale_num in [1usize, 4, 16] {
        let g0 = TestCase::DelaunayN20.build(0.0005 * scale_num as f64, 5);
        let h0 = GrassSparsifier::default()
            .by_offtree_density(&g0, 0.10)
            .expect("sparsify")
            .graph;
        let stream = InsertionStream::generate(
            &g0,
            &StreamConfig {
                batches: 1,
                edges_per_batch: 200,
                ..Default::default()
            },
        );
        let batch = stream.batches()[0].clone();
        let cfg = UpdateConfig::default();
        group.throughput(Throughput::Elements(batch.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(g0.num_nodes()),
            &batch,
            |b, batch| {
                b.iter_batched(
                    || InGrassEngine::setup(&h0, &SetupConfig::default()).expect("setup"),
                    |mut e| e.insert_batch(batch, &cfg).expect("update"),
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// The fixed cost every publish pays, on perfbench `serve-edit`'s instance
/// at seed 42 (a ~5.2 k-node Delaunay graph, 30 % off-tree GRASS
/// sparsifier): `SnapshotEngine::publish` with no pending deltas, so the
/// factor tier is an empty patch and what is timed is the graph freeze,
/// the checksum and the factor clone. Twenty samples plus the warm-up
/// stay under the 256-publish refactor backstop, so no sample rebuilds.
fn bench_publish(c: &mut Criterion) {
    let mut group = c.benchmark_group("publish");
    group.sample_size(20);
    let seed = 42;
    let g0 = TestCase::DelaunayN18.build(0.02, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g0, 0.30)
        .expect("sparsify")
        .graph;
    let mut engine =
        SnapshotEngine::setup(&h0, &SetupConfig::default().with_seed(seed)).expect("setup");
    let label = format!("n_{}_m_{}", h0.num_nodes(), h0.num_edges());
    group.bench_function(format!("no_delta/{label}"), |b| {
        b.iter(|| engine.publish().expect("publish"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_update_batch,
    bench_per_edge_scaling,
    bench_publish
);
criterion_main!(benches);
