//! Corruption-tolerance suite for the WAL: flip a bit at **every byte
//! position** of every segment of a small store and attempt recovery.
//! The contract: recovery either truncates to the last valid record (the
//! recovered state is exactly a straight run of some *prefix* of the
//! logged batches) or fails loudly — it never decodes damaged bytes into
//! a state that no prefix of the history ever produced.

use ingrass_repro::prelude::*;
use ingrass_repro::{churn_to_update_ops, test_seed};
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ingrass-walflip-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn copy_store(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).expect("create flip dir");
    for entry in fs::read_dir(src).expect("read store dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
}

#[test]
fn every_single_bit_flip_truncates_or_fails_loudly() {
    let seed = test_seed();
    let g = grid_2d(6, 6, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g, 0.25)
        .expect("sparsifier")
        .graph;
    let cfg = SetupConfig::default().with_seed(seed);
    let churn = ChurnStream::generate(
        &g,
        &ChurnConfig {
            batches: 4,
            ops_per_batch: 3,
            seed: seed ^ 0xf11b,
            ..Default::default()
        },
    );
    let ucfg = UpdateConfig::default();

    // No automatic snapshots: recovery must replay the whole WAL, so
    // every byte of it is load-bearing. Tiny segments force rotation so
    // both the mid-log (fatal) and last-segment (truncating) arms are
    // exercised.
    let policy = StorePolicy::default()
        .with_fsync(false)
        .with_segment_bytes(128)
        .with_snapshot_every(0);
    let live_dir = tmpdir("live");
    let mut persistent = PersistentEngine::create(&live_dir, &h0, &cfg, policy).expect("create");

    // The legal outcomes: a straight run of every batch prefix.
    let mut straight = SnapshotEngine::setup(&h0, &cfg).expect("straight setup");
    let mut prefix_states = vec![straight.export_state()];
    for batch in churn.batches() {
        let ops = churn_to_update_ops(batch);
        persistent
            .apply_batch(&ops, &ucfg)
            .expect("persistent batch");
        straight.apply_batch(&ops, &ucfg).expect("straight batch");
        prefix_states.push(straight.export_state());
    }
    drop(persistent);

    let mut segments: Vec<PathBuf> = fs::read_dir(&live_dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    assert!(
        segments.len() >= 2,
        "need rotation to exercise the mid-log arm, got {} segment(s)",
        segments.len()
    );

    let flip_dir = tmpdir("flip");
    let (mut truncations, mut loud_failures) = (0usize, 0usize);
    for (seg_idx, segment) in segments.iter().enumerate() {
        let pristine = fs::read(segment).expect("read segment");
        let last_segment = seg_idx + 1 == segments.len();
        for pos in 0..pristine.len() {
            copy_store(&live_dir, &flip_dir);
            let mut bytes = pristine.clone();
            bytes[pos] ^= 1 << (pos % 8);
            fs::write(
                flip_dir.join(segment.file_name().expect("segment name")),
                &bytes,
            )
            .expect("write flipped segment");

            match PersistentEngine::open(&flip_dir, policy) {
                Err(_) => loud_failures += 1, // loud is always legal
                Ok((recovered, report)) => {
                    let state = recovered.engine().export_state();
                    let matched = prefix_states.iter().position(|p| *p == state);
                    assert!(
                        matched.is_some(),
                        "flip at byte {pos} of segment {seg_idx} recovered a state \
                         that no prefix of the history ever produced"
                    );
                    assert!(
                        last_segment,
                        "flip at byte {pos} of non-final segment {seg_idx} must fail \
                         loudly, but recovery succeeded at prefix {:?}",
                        matched
                    );
                    assert!(
                        matched.expect("checked above") < prefix_states.len() - 1,
                        "flip at byte {pos} of segment {seg_idx} left the full history \
                         intact — the damage went undetected (report: {report:?})"
                    );
                    truncations += 1;
                }
            }
        }
    }
    assert!(truncations > 0, "no flip exercised tail truncation");
    assert!(loud_failures > 0, "no flip exercised the loud-failure arm");

    let _ = fs::remove_dir_all(&live_dir);
    let _ = fs::remove_dir_all(&flip_dir);
}
