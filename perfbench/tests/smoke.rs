//! Tiny-size runs of every workload: each must pass its own checks and
//! emit exactly the metrics `BENCHMARK.json` names.

use perfbench::{per_layer_names, run, Kind, Outcome, Size, Workload, END_TO_END};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tiny(kind: Kind, trace: bool) -> Outcome {
    // Tests run in parallel threads of one process: give each run its own
    // store directory.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    std::env::set_var("INGRASS_THREADS", "2");
    let out = run(&Workload {
        kind,
        seed: 42,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
        work_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{run_id}")),
    });
    assert!(out.correct, "{} failed: {:?}", kind.name(), out.failures);
    assert_eq!(out.failed, 0);
    out
}

fn values(out: &Outcome) -> BTreeMap<&'static str, f64> {
    out.metrics.iter().map(|m| (m.name, m.value)).collect()
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for kind in Kind::ALL {
        let out = tiny(kind, false);
        let names: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, END_TO_END.to_vec(), "{}", kind.name());
        for m in &out.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", kind.name(), m.name, m.value);
        }
        let line = out.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for kind in Kind::ALL {
        let out = tiny(kind, true);
        let names: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(
            names,
            per_layer_names().collect::<Vec<_>>(),
            "{}",
            kind.name()
        );
        let v = values(&out);
        assert!(v["trace.spans"] > 0.0 && v["trace.overhead_frac"] > 0.0);
        assert!(
            v["trace.overhead_frac"] < 0.5,
            "{}",
            v["trace.overhead_frac"]
        );
        assert!(v["quality.kappa"] > 1.0, "{}", kind.name());
    }
}

#[test]
fn serve_edit_layers_account_for_the_apply_wall() {
    // store.wal_s is the durable apply's self time: its wall minus the
    // engine update and the publish the library reports. Together the
    // layers must add back up to the apply wall measured outside.
    let v = values(&tiny(Kind::ServeEdit, true));
    let layers =
        v["engine.update_s"] + v["engine.resetup_s"] + v["snapshot.publish_s"] + v["store.wal_s"];
    let wall = v["bench.write_s"];
    assert!(wall > 0.0 && v["store.wal_s"] > 0.0 && v["snapshot.publish_s"] > 0.0);
    assert!(
        (layers - wall).abs() <= 1e-9 * wall,
        "layers {layers} vs apply wall {wall}"
    );
}

#[test]
fn each_workload_reaches_the_layers_it_is_for() {
    let stream = values(&tiny(Kind::Stream, true));
    assert!(stream["resistance.embed_s"] > 0.0 && stream["lrd.query_s"] > 0.0);
    assert!(stream["baselines.grass_s"] > 0.0 && stream["baselines.speedup_vs_grass"] > 0.0);
    assert_eq!(stream["shard.fence_s"], 0.0);
    let edit = values(&tiny(Kind::ServeEdit, true));
    assert!(edit["snapshot.patched"] > 0.0 && edit["store.checkpoints"] > 0.0);
    let read = values(&tiny(Kind::ServeRead, true));
    assert!(read["solve.drain_s"] > 0.0 && read["solve.iters_per_solve"] > 0.0);
    let shard = values(&tiny(Kind::Shard, true));
    assert!(shard["shard.fence_s"] > 0.0 && shard["shard.publish_s"] > 0.0);
}

/// `"name": "<x>"` entries of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    let layers: Vec<String> = per_layer_names().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in(&json, "per_layer"), layers);
    let workloads: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}
