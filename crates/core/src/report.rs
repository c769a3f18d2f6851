//! Setup and update reports.

use std::time::{Duration, Instant};

/// Wall-clock stopwatch with per-phase laps.
///
/// One code path for every timing the workspace records: the engine's
/// [`SetupReport`]/[`UpdateReport`] phases, publish times and the solve
/// services' drain times all read from this, so their numbers are
/// directly comparable.
///
/// ```
/// use ingrass::PhaseTimer;
/// let mut timer = PhaseTimer::start();
/// let phase1 = timer.lap(); // time since start
/// let phase2 = timer.lap(); // time since the previous lap
/// assert!(timer.total() >= phase1 + phase2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer {
    start: Instant,
    last: Instant,
}

impl PhaseTimer {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        let now = Instant::now();
        PhaseTimer {
            start: now,
            last: now,
        }
    }

    /// Ends the current phase: returns the time since the previous `lap`
    /// (or since `start`) and begins the next phase.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let phase = now.duration_since(self.last);
        self.last = now;
        phase
    }

    /// Total time since `start`, without ending the current phase.
    pub fn total(&self) -> Duration {
        self.start.elapsed()
    }
}

/// What happened to one update operation during the update phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOutcome {
    /// Spectrally critical and unique: added to the sparsifier.
    Included,
    /// A sparsifier edge already connects the two clusters at the filtering
    /// level: its weight absorbed the new edge.
    Merged,
    /// Both endpoints share a cluster at the filtering level: the weight was
    /// distributed proportionally over the cluster's internal edges.
    Redistributed,
    /// The edge was removed from the sparsifier.
    Deleted,
    /// The deletion hit a bridge of the sparsifier; the edge was replaced by
    /// a re-link edge so the sparsifier stays connected.
    Relinked,
    /// The edge's weight was overwritten in place.
    Reweighted,
    /// A delete/reweight of an edge the sparsifier never carried (its weight
    /// was filtered or merged away earlier): no physical change.
    Vacuous,
}

/// Statistics of one [`crate::InGrassEngine::setup`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupReport {
    /// Nodes in the sparsifier.
    pub nodes: usize,
    /// Edges in the initial sparsifier.
    pub edges: usize,
    /// LRD levels built (= node embedding dimension).
    pub levels: usize,
    /// Time spent estimating edge resistances.
    pub resistance_time: Duration,
    /// Time spent on the LRD decomposition.
    pub lrd_time: Duration,
    /// Time spent building the cluster-connectivity index.
    pub connectivity_time: Duration,
    /// Total setup wall time.
    pub total_time: Duration,
}

/// Statistics of one [`crate::InGrassEngine::apply_batch`] (or
/// [`crate::InGrassEngine::insert_batch`]) call.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Operations in the batch.
    pub batch_size: usize,
    /// Edges added to the sparsifier.
    pub included: usize,
    /// Edges merged onto existing representative edges.
    pub merged: usize,
    /// Edges redistributed inside clusters.
    pub redistributed: usize,
    /// Edges removed from the sparsifier.
    pub deleted: usize,
    /// Bridge deletions converted into re-link edges (counted separately
    /// from `deleted`).
    pub relinked: usize,
    /// Edge weights overwritten in place.
    pub reweighted: usize,
    /// Deletes/reweights of edges the sparsifier never carried.
    pub vacuous: usize,
    /// Filtering level used.
    pub filtering_level: usize,
    /// Largest estimated distortion in the batch.
    pub max_distortion: f64,
    /// Whether this batch's drift crossed the policy and triggered an
    /// automatic re-setup (and why).
    pub resetup: Option<crate::ResetupReason>,
    /// Deleted-weight fraction of the drift tracker after the batch (0 right
    /// after a re-setup).
    pub drift_deleted_weight_fraction: f64,
    /// Distortion fraction of the drift tracker after the batch (0 right
    /// after a re-setup).
    pub drift_distortion_fraction: f64,
    /// Batch wall time (includes the re-setup, when one triggered).
    pub elapsed: Duration,
}

impl UpdateReport {
    /// Operations processed (must equal `batch_size`).
    pub fn total_processed(&self) -> usize {
        self.included
            + self.merged
            + self.redistributed
            + self.deleted
            + self.relinked
            + self.reweighted
            + self.vacuous
    }

    /// Fraction of the batch physically added to the sparsifier.
    pub fn inclusion_rate(&self) -> f64 {
        if self.batch_size == 0 {
            0.0
        } else {
            self.included as f64 / self.batch_size as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timer_laps_partition_total() {
        let mut t = PhaseTimer::start();
        std::thread::sleep(Duration::from_millis(2));
        let a = t.lap();
        std::thread::sleep(Duration::from_millis(2));
        let b = t.lap();
        assert!(a >= Duration::from_millis(1));
        assert!(b >= Duration::from_millis(1));
        assert!(t.total() >= a + b);
    }

    fn empty_report() -> UpdateReport {
        UpdateReport {
            batch_size: 0,
            included: 0,
            merged: 0,
            redistributed: 0,
            deleted: 0,
            relinked: 0,
            reweighted: 0,
            vacuous: 0,
            filtering_level: 0,
            max_distortion: 0.0,
            resetup: None,
            drift_deleted_weight_fraction: 0.0,
            drift_distortion_fraction: 0.0,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn update_report_accounting() {
        let r = UpdateReport {
            batch_size: 14,
            included: 4,
            merged: 5,
            redistributed: 1,
            deleted: 2,
            relinked: 1,
            reweighted: 1,
            filtering_level: 3,
            max_distortion: 2.5,
            elapsed: Duration::from_millis(1),
            ..empty_report()
        };
        assert_eq!(r.total_processed(), 14);
        assert!((r.inclusion_rate() - 4.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_rate_is_zero() {
        let r = empty_report();
        assert_eq!(r.inclusion_rate(), 0.0);
    }
}
