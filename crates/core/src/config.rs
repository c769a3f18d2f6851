//! Setup and update configuration.
//!
//! This module is the one-stop shop for every knob the engine reads:
//! [`SetupConfig`] / [`DriftPolicy`] for the setup phase, [`UpdateConfig`]
//! for update batches, and (re-exported from its home module) the serving
//! layer's [`FactorPolicy`]. The facade crate's `config` module re-exports
//! all of them alongside the solve and store configs.

pub use crate::snapshot::FactorPolicy;

/// When accumulated churn drift forces an automatic re-setup.
///
/// The paper treats setup as a one-time phase; this policy makes the
/// setup/update split configurable. Deletions and reweights degrade the
/// cached LRD embedding (cluster diameters were certified by paths that may
/// have used the churned edges); the engine's [`crate::UpdateLedger`] tracks
/// that degradation and, when any threshold below is crossed at the end of
/// an [`crate::InGrassEngine::apply_batch`] call, rebuilds the hierarchy
/// from the live sparsifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPolicy {
    /// Re-setup when deleted weight exceeds this fraction of the sparsifier
    /// weight at the last (re)setup (default 0.2).
    pub max_deleted_weight_fraction: f64,
    /// Re-setup when accumulated churn distortion `Σ w·R̂` exceeds this
    /// fraction of the sparsifier's total leverage `n − 1` (default 0.25).
    pub max_distortion_fraction: f64,
    /// Re-setup when any single cluster absorbs more than this many stale
    /// operations (default 4096).
    pub max_cluster_staleness: u32,
    /// Master switch; `false` restores the paper's insert-only lifecycle
    /// where setup never re-runs (default `true`).
    pub auto_resetup: bool,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            max_deleted_weight_fraction: 0.2,
            max_distortion_fraction: 0.25,
            max_cluster_staleness: 4096,
            auto_resetup: true,
        }
    }
}

impl DriftPolicy {
    /// A policy that never re-runs setup (the paper's hard lifecycle).
    pub fn never() -> Self {
        DriftPolicy {
            auto_resetup: false,
            ..Default::default()
        }
    }
}

/// Configuration of the one-time setup phase.
///
/// Setup phase 1 always estimates edge resistances with the paper's
/// solve-free Krylov embedding ([`ingrass_resistance::KrylovEmbedder`] at
/// its default dimension, seeded by [`SetupConfig::seed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SetupConfig {
    /// Per-level growth factor `γ` of the resistance-diameter budget
    /// (default 4; must be > 1).
    pub diameter_growth: f64,
    /// Initial diameter budget `δ₀`. `None` (default) picks 4× the median
    /// estimated edge resistance — small enough that level 1 only merges
    /// tightly coupled nodes. A set budget must be finite and positive;
    /// setup rejects any other with [`crate::InGrassError::InvalidConfig`].
    pub initial_diameter: Option<f64>,
    /// Hard cap on the number of LRD levels (default 64 — effectively
    /// "until one cluster remains").
    pub max_levels: usize,
    /// RNG seed of the Krylov resistance embedding.
    pub seed: u64,
    /// When churn drift triggers an automatic re-setup.
    pub drift: DriftPolicy,
}

impl Default for SetupConfig {
    fn default() -> Self {
        SetupConfig {
            diameter_growth: 4.0,
            initial_diameter: None,
            max_levels: 64,
            seed: 42,
            drift: DriftPolicy::default(),
        }
    }
}

impl SetupConfig {
    /// Returns the config with the given diameter growth factor.
    pub fn with_diameter_growth(mut self, gamma: f64) -> Self {
        self.diameter_growth = gamma;
        self
    }

    /// Returns the config with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with the given drift policy.
    pub fn with_drift(mut self, drift: DriftPolicy) -> Self {
        self.drift = drift;
        self
    }
}

/// Configuration of one update batch.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateConfig {
    /// Target relative condition number `C = κ(L_G, L_H)`. Selects the
    /// filtering level: the deepest LRD level whose largest cluster has at
    /// most `C/2` nodes (paper Section III-C-2). Must be ≥ 2.
    pub target_condition: f64,
    /// Process the batch in decreasing estimated-distortion order
    /// (default `true`, per the paper; `false` keeps arrival order — an
    /// ablation knob).
    pub sort_by_distortion: bool,
    /// Explicit filtering level, overriding the one derived from
    /// `target_condition` (ablation knob; `None` = derive).
    pub filtering_level_override: Option<usize>,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        UpdateConfig {
            target_condition: 100.0,
            sort_by_distortion: true,
            filtering_level_override: None,
        }
    }
}

impl UpdateConfig {
    /// Returns the config with the given target condition number.
    pub fn with_target_condition(mut self, target: f64) -> Self {
        self.target_condition = target;
        self
    }

    /// Returns the config with distortion-ordered processing on or off.
    pub fn with_sort_by_distortion(mut self, sort: bool) -> Self {
        self.sort_by_distortion = sort;
        self
    }

    /// Returns the config with an explicit filtering level (`None`
    /// restores derivation from the target condition number).
    pub fn with_filtering_level_override(mut self, level: Option<usize>) -> Self {
        self.filtering_level_override = level;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = SetupConfig::default();
        assert!(s.diameter_growth > 1.0);
        assert!(s.max_levels >= 8);
        let u = UpdateConfig::default();
        assert!(u.target_condition >= 2.0);
        assert!(u.sort_by_distortion);
    }

    #[test]
    fn builder_methods_chain() {
        let s = SetupConfig::default()
            .with_diameter_growth(2.0)
            .with_seed(9)
            .with_drift(DriftPolicy::never());
        assert_eq!(s.diameter_growth, 2.0);
        assert_eq!(s.seed, 9);
        assert!(!s.drift.auto_resetup);
    }

    #[test]
    fn update_config_builders_chain() {
        let u = UpdateConfig::default()
            .with_target_condition(32.0)
            .with_sort_by_distortion(false)
            .with_filtering_level_override(Some(3));
        assert_eq!(u.target_condition, 32.0);
        assert!(!u.sort_by_distortion);
        assert_eq!(u.filtering_level_override, Some(3));
    }

    #[test]
    fn drift_policy_defaults_are_sane() {
        let p = DriftPolicy::default();
        assert!(p.auto_resetup);
        assert!(p.max_deleted_weight_fraction > 0.0 && p.max_deleted_weight_fraction < 1.0);
        assert!(p.max_distortion_fraction > 0.0);
        assert!(!DriftPolicy::never().auto_resetup);
    }
}
