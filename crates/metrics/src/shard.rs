//! Per-shard work statistics for the sharded multi-writer engine.
//!
//! A [`ShardStats`] folds the per-shard update-latency histograms into
//! one and reports the load-balance figure the shard parity suite asserts
//! on: the imbalance ratio `max shard work / mean shard work`, measured in
//! routed operations so it is deterministic even on a single-CPU CI
//! container where wall-clock ratios are meaningless.

use crate::LatencyHistogram;

/// Aggregated view of how work spread across the shards of a sharded
/// engine, surfaced through `PublishReport` and perfbench's
/// `shard.imbalance`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardStats {
    /// Number of shards the engine is running.
    pub shards: usize,
    /// All per-shard update batch latencies merged into one histogram
    /// (so `total_seconds` is the *summed* per-shard update wall, and
    /// `p99` the tail of a single shard's apply).
    pub update: LatencyHistogram,
    /// Wall-clock span of each fenced parallel apply phase (fan-out →
    /// epoch fence), one sample per batch that routed shard work. On a
    /// multi-core host this tracks the *slowest* shard of each batch;
    /// `update.total_seconds() / parallel_update.total_seconds()` is the
    /// realized shard-parallel speedup (≈ 1 on a single-CPU runner).
    pub parallel_update: LatencyHistogram,
    /// Largest number of operations any single shard has applied.
    pub max_shard_ops: u64,
    /// Total operations routed to shards (excludes boundary ops).
    pub total_shard_ops: u64,
    /// `max_shard_ops / mean_shard_ops`; `1.0` when no work has been
    /// routed yet. Perfectly balanced work gives 1.0, all work on one
    /// of `S` shards gives `S`.
    pub imbalance_ratio: f64,
    /// Edges currently held by the coordinator's boundary graph.
    pub boundary_edges: usize,
    /// Distinct endpoints of boundary edges (excluding the ground node).
    pub boundary_nodes: usize,
}

impl ShardStats {
    /// Builds the summary from per-shard accumulators.
    ///
    /// `per_shard` and `ops_per_shard` must be indexed by shard id and
    /// have the same length; the constructor merges the latency
    /// histograms with [`LatencyHistogram::merge`] and derives the
    /// imbalance ratio from the routed-op counts. `parallel_update` is the
    /// coordinator's per-batch fan-out→fence span histogram, carried
    /// through as-is.
    pub fn from_shards(
        per_shard: &[LatencyHistogram],
        parallel_update: &LatencyHistogram,
        ops_per_shard: &[u64],
        boundary_edges: usize,
        boundary_nodes: usize,
    ) -> ShardStats {
        debug_assert_eq!(per_shard.len(), ops_per_shard.len());
        let shards = per_shard.len();
        let mut update = LatencyHistogram::new();
        for h in per_shard {
            update.merge(h);
        }
        let total_shard_ops: u64 = ops_per_shard.iter().sum();
        let max_shard_ops = ops_per_shard.iter().copied().max().unwrap_or(0);
        let imbalance_ratio = if shards == 0 || total_shard_ops == 0 {
            1.0
        } else {
            let mean = total_shard_ops as f64 / shards as f64;
            max_shard_ops as f64 / mean
        };
        ShardStats {
            shards,
            update,
            parallel_update: *parallel_update,
            max_shard_ops,
            total_shard_ops,
            imbalance_ratio,
            boundary_edges,
            boundary_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_shards_report_unit_imbalance() {
        let stats = ShardStats::from_shards(
            &[LatencyHistogram::new(); 4],
            &LatencyHistogram::new(),
            &[0; 4],
            0,
            0,
        );
        assert_eq!(stats.shards, 4);
        assert_eq!(stats.imbalance_ratio, 1.0);
        assert_eq!(stats.update.count(), 0);
        assert_eq!(stats.parallel_update.count(), 0);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        // 4 shards, ops 30/10/10/10 → mean 15, max 30 → ratio 2.0.
        let stats = ShardStats::from_shards(
            &[LatencyHistogram::new(); 4],
            &LatencyHistogram::new(),
            &[30, 10, 10, 10],
            3,
            5,
        );
        assert!((stats.imbalance_ratio - 2.0).abs() < 1e-12);
        assert_eq!(stats.max_shard_ops, 30);
        assert_eq!(stats.total_shard_ops, 60);
        assert_eq!(stats.boundary_edges, 3);
        assert_eq!(stats.boundary_nodes, 5);
    }

    #[test]
    fn latencies_merge_across_shards() {
        let mut a = LatencyHistogram::new();
        a.record(0.25);
        a.record(0.75);
        let mut b = LatencyHistogram::new();
        b.record(0.5);
        let mut fence = LatencyHistogram::new();
        fence.record(0.8);
        fence.record(0.6);
        let stats = ShardStats::from_shards(&[a, b], &fence, &[2, 1], 0, 0);
        assert_eq!(stats.update.count(), 3);
        assert!((stats.update.total_seconds() - 1.5).abs() < 1e-12);
        // The fence span accumulator is carried through untouched: one
        // sample per batch, summing to the coordinator's parallel wall.
        assert_eq!(stats.parallel_update.count(), 2);
        assert!((stats.parallel_update.total_seconds() - 1.4).abs() < 1e-12);
        assert_eq!(stats.update.min_seconds(), 0.25);
        assert_eq!(stats.update.max_seconds(), 0.75);
        // 0.75 lands in the [0.75, 1.0) bucket; bucket interpolation may
        // report up to the bucket's upper bound.
        let p99 = stats.update.p99();
        assert!(p99 > 0.5 && p99 <= 1.0, "p99 {p99}");
    }
}
