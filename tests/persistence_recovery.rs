//! Recovery parity suite for the persistence layer: at **every** batch
//! prefix `k` of a churn stream, crashing after `k` batches (simulated by
//! copying the store directory) and running [`PersistentEngine::open`] on
//! the copy must reproduce exactly the state a straight in-memory run
//! reaches after the same `k` batches — identical sparsifier edges,
//! bit-identical Cholesky factor, identical ledger and epoch. The stream
//! crosses drift-triggered re-setup boundaries (aggressive
//! [`DriftPolicy`]) and, with small `snapshot_every`, the recovery path
//! exercises snapshot + WAL-tail splits at many different offsets.

use ingrass_repro::prelude::*;
use ingrass_repro::{churn_to_update_ops, test_seed};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ingrass-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// Copies every regular file of a store directory — the moral equivalent
/// of the on-disk bytes surviving a crash at this instant.
fn copy_store(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).expect("create crash dir");
    for entry in fs::read_dir(src).expect("read store dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy store file");
    }
}

fn fixture(seed: u64, drift: DriftPolicy) -> (Graph, SetupConfig, ChurnStream) {
    let g = grid_2d(8, 8, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, seed);
    let h0 = GrassSparsifier::default()
        .by_offtree_density(&g, 0.25)
        .expect("sparsifier")
        .graph;
    let cfg = SetupConfig::default().with_seed(seed).with_drift(drift);
    let churn = ChurnStream::generate(
        &g,
        &ChurnConfig {
            batches: 8,
            ops_per_batch: 5,
            seed: seed ^ 0xd15c,
            ..Default::default()
        },
    );
    (h0, cfg, churn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// `recover(crash_at_k) == run_straight(k)` for every batch prefix
    /// `k`, across drift-triggered re-setup boundaries and across
    /// snapshot + WAL-tail splits (small `snapshot_every` moves the split
    /// point through the stream as `k` grows).
    #[test]
    fn prop_recovery_matches_straight_run_at_every_prefix(
        case_seed in 0u64..1000,
        snapshot_every in 1u64..4,
    ) {
        let seed = test_seed() ^ case_seed;
        // Aggressive drift: deletions in the default churn mix cross the
        // threshold mid-stream, so some prefixes straddle a re-setup.
        let drift = DriftPolicy {
            max_deleted_weight_fraction: 0.02,
            ..Default::default()
        };
        let (h0, cfg, churn) = fixture(seed, drift);
        let ucfg = UpdateConfig::default();

        let live_dir = tmpdir(&format!("live-{case_seed}-{snapshot_every}"));
        let crash_dir = tmpdir(&format!("crash-{case_seed}-{snapshot_every}"));
        let policy = StorePolicy::default()
            .with_fsync(false) // this suite simulates crashes by copying, not by killing
            .with_segment_bytes(1 << 12)
            .with_snapshot_every(snapshot_every);
        let mut persistent =
            PersistentEngine::create(&live_dir, &h0, &cfg, policy).expect("create store");
        let mut straight = SnapshotEngine::setup(&h0, &cfg).expect("straight setup");

        for (k, batch) in churn.batches().iter().enumerate() {
            let ops = churn_to_update_ops(batch);
            persistent.apply_batch(&ops, &ucfg).expect("persistent batch");
            straight.apply_batch(&ops, &ucfg).expect("straight batch");

            copy_store(&live_dir, &crash_dir);
            let (recovered, report) =
                PersistentEngine::open(&crash_dir, policy).expect("recovery");
            prop_assert_eq!(
                recovered.engine().export_state(),
                straight.export_state(),
                "prefix k={} diverged (recovery replayed {} batches on snapshot seq {})",
                k + 1,
                report.replayed_batches,
                report.snapshot_sequence
            );
            prop_assert_eq!(recovered.wal_seq(), persistent.wal_seq());
        }

        // The explicit re-setup marker path: if drift never fired, force
        // the epoch transition; either way the post-re-setup state must
        // survive a crash + recovery bit-for-bit.
        if straight.engine().epoch() == 0 {
            persistent.resetup().expect("persistent resetup");
            straight.resetup().expect("straight resetup");
        }
        prop_assert!(straight.engine().epoch() > 0, "no epoch transition exercised");
        copy_store(&live_dir, &crash_dir);
        let (recovered, _) = PersistentEngine::open(&crash_dir, policy).expect("final recovery");
        prop_assert_eq!(
            recovered.engine().export_state(),
            straight.export_state()
        );

        let _ = fs::remove_dir_all(&live_dir);
        let _ = fs::remove_dir_all(&crash_dir);
    }
}

/// Deterministic spot-check of the same contract (fast path for plain
/// `cargo test` without the property loop): one stream, crash after the
/// final batch, compare.
#[test]
fn recovery_round_trip_is_bit_exact() {
    let seed = test_seed();
    let (h0, cfg, churn) = fixture(seed, DriftPolicy::default());
    let ucfg = UpdateConfig::default();

    let live_dir = tmpdir("det-live");
    let crash_dir = tmpdir("det-crash");
    let policy = StorePolicy::default()
        .with_fsync(false)
        .with_snapshot_every(3);
    let mut persistent =
        PersistentEngine::create(&live_dir, &h0, &cfg, policy).expect("create store");
    let mut straight = SnapshotEngine::setup(&h0, &cfg).expect("straight setup");
    for batch in churn.batches() {
        let ops = churn_to_update_ops(batch);
        persistent
            .apply_batch(&ops, &ucfg)
            .expect("persistent batch");
        straight.apply_batch(&ops, &ucfg).expect("straight batch");
    }

    copy_store(&live_dir, &crash_dir);
    let (recovered, report) = PersistentEngine::open(&crash_dir, policy).expect("recovery");
    assert!(report.recover_seconds >= 0.0);
    assert_eq!(recovered.engine().export_state(), straight.export_state());

    let _ = fs::remove_dir_all(&live_dir);
    let _ = fs::remove_dir_all(&crash_dir);
}
