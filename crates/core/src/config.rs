//! Simulation configuration (paper Table 1 + Table 2).

use geodns_nameserver::MinTtlBehavior;
use geodns_server::{CapacityPlan, HeterogeneityLevel};
use geodns_simcore::QueueKind;
use geodns_workload::{LatencySpec, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::obs::ObsConfig;
use crate::{Algorithm, ClientCacheModel, EstimatorKind, FailureConfig, ServiceModel};

fn default_noncoop_fraction() -> f64 {
    1.0
}

/// How the server side is specified.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerSpec {
    /// One of the paper's Table 2 heterogeneity presets (N = 7).
    Level(HeterogeneityLevel),
    /// Explicit relative capacities (decreasing, starting at 1.0).
    Relative(Vec<f64>),
}

impl ServerSpec {
    /// Realizes the capacity plan for a given total site capacity.
    ///
    /// # Errors
    ///
    /// Returns a message if the relative capacities are invalid.
    pub fn plan(&self, total_capacity: f64) -> Result<CapacityPlan, String> {
        match self {
            ServerSpec::Level(level) => Ok(CapacityPlan::from_level(*level, total_capacity)),
            ServerSpec::Relative(rel) => CapacityPlan::from_relative(rel.clone(), total_capacity),
        }
    }
}

/// The full configuration of one simulation run. Defaults are the paper's
/// Table 1 values; every knob the evaluation sweeps is here.
///
/// # Examples
///
/// ```
/// use geodns_core::{Algorithm, SimConfig};
/// use geodns_server::HeterogeneityLevel;
///
/// let cfg = SimConfig::paper_default(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H20);
/// assert_eq!(cfg.workload.n_clients, 500);
/// assert_eq!(cfg.ttl_const_s, 240.0);
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The client workload (paper: 500 clients, K = 20 domains, pure Zipf).
    pub workload: WorkloadSpec,
    /// The server layout (paper: N = 7, Table 2 presets).
    pub servers: ServerSpec,
    /// Total site capacity in hits/s (paper: 500, held constant).
    pub total_capacity: f64,
    /// The scheduling algorithm under test.
    pub algorithm: Algorithm,
    /// How the DNS estimates hidden load weights.
    pub estimator: EstimatorKind,
    /// Name-server TTL acceptance (Figures 4–5 sweep the clamp).
    pub ns_behavior: MinTtlBehavior,
    /// Fraction of domains whose NS actually applies `ns_behavior`; the
    /// rest stay cooperative. The paper studies the worst case (1.0, the
    /// default); lower values model the realistic Internet mix
    /// (extension). Which domains are non-cooperative is drawn from the
    /// master seed.
    #[serde(default = "default_noncoop_fraction")]
    pub ns_noncoop_fraction: f64,
    /// Per-hit service-time shape (extension; the paper's model is
    /// exponential).
    #[serde(default)]
    pub service: ServiceModel,
    /// Client-side address caching (extension; browsers that pin resolved
    /// addresses defeat short TTLs).
    #[serde(default)]
    pub client_cache: ClientCacheModel,
    /// Capture the full utilization time series in the report (costs
    /// memory; off by default).
    #[serde(default)]
    pub record_timeline: bool,
    /// Server fault injection: seeded crash/recovery with client failover
    /// semantics (extension; off by default — the paper's servers never
    /// fail).
    #[serde(default)]
    pub failures: FailureConfig,
    /// Observability recorders: the counters registry and/or a JSONL
    /// decision trace (extension; both off by default — the disabled path
    /// is allocation-free and leaves reports byte-identical).
    #[serde(default)]
    pub obs: ObsConfig,
    /// Geographic latency model: a seeded per-domain×server base-RTT
    /// matrix giving proximity-aware policies a network-distance axis
    /// (extension; off by default — the dedicated RNG stream is never
    /// drawn and reports stay byte-identical).
    #[serde(default)]
    pub latency: LatencySpec,
    /// The constant-TTL baseline all schemes are rate-matched to (240 s).
    pub ttl_const_s: f64,
    /// The two-tier class threshold γ; `None` means the paper's `1/K`.
    pub class_threshold: Option<f64>,
    /// Whether adaptive TTLs are rate-normalized (paper: yes; ablation
    /// bench turns this off).
    pub normalize_ttl: bool,
    /// Seconds between utilization checks (paper: 8 s).
    pub util_interval_s: f64,
    /// Alarm threshold θ in `(0, 1]` (0.9 by default; OCR lost the digit).
    pub alarm_threshold: f64,
    /// Alarm hysteresis gap (paper: none).
    pub alarm_hysteresis: f64,
    /// Network delay for alarm/normal signals reaching the DNS, seconds.
    pub feedback_delay_s: f64,
    /// Measured span of the run after warm-up, seconds (paper: 5 h).
    pub duration_s: f64,
    /// Warm-up span discarded from statistics, seconds.
    pub warmup_s: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Which future-event-list implementation drives the run. Both kinds
    /// deliver events in the identical `(time, seq)` order, so reports are
    /// bit-identical either way (enforced by `tests/determinism.rs`); the
    /// calendar queue is simply faster. The heap is kept selectable as the
    /// differential-testing oracle.
    #[serde(default)]
    pub queue: QueueKind,
    /// Cap on samples retained by each exact response-time CDF; 0
    /// (default) retains everything. Below the cap quantiles are
    /// byte-identical to the uncapped CDF; beyond it samples go through a
    /// seeded reservoir so memory stays bounded — the scale experiments
    /// record one sample per page and would otherwise hold gigabytes.
    #[serde(default)]
    pub cdf_sample_cap: usize,
}

impl SimConfig {
    /// The paper's default configuration for a given algorithm and
    /// heterogeneity level.
    #[must_use]
    pub fn paper_default(algorithm: Algorithm, level: HeterogeneityLevel) -> Self {
        SimConfig {
            workload: WorkloadSpec::paper_default(),
            servers: ServerSpec::Level(level),
            total_capacity: 500.0,
            algorithm,
            estimator: EstimatorKind::Oracle,
            ns_behavior: MinTtlBehavior::Cooperative,
            ns_noncoop_fraction: 1.0,
            service: ServiceModel::Exponential,
            client_cache: ClientCacheModel::Off,
            record_timeline: false,
            failures: FailureConfig::default(),
            obs: ObsConfig::default(),
            latency: LatencySpec::default(),
            ttl_const_s: 240.0,
            class_threshold: None,
            normalize_ttl: true,
            util_interval_s: 8.0,
            alarm_threshold: 0.9,
            alarm_hysteresis: 0.0,
            feedback_delay_s: 0.1,
            duration_s: 5.0 * 3600.0,
            warmup_s: 1800.0,
            seed: 0x6E0D_0513,
            queue: QueueKind::default(),
            cdf_sample_cap: 0,
        }
    }

    /// The paper's "ideal" envelope: PRR with constant TTL under a uniform
    /// client distribution.
    #[must_use]
    pub fn ideal(level: HeterogeneityLevel) -> Self {
        let mut cfg = Self::paper_default(Algorithm::prr_ttl1(), level);
        cfg.workload = WorkloadSpec::ideal();
        cfg
    }

    /// A shortened variant for tests and quick examples: same model, only
    /// `duration` and `warmup` shrink.
    #[must_use]
    pub fn quick(algorithm: Algorithm, level: HeterogeneityLevel) -> Self {
        let mut cfg = Self::paper_default(algorithm, level);
        cfg.duration_s = 1200.0;
        cfg.warmup_s = 300.0;
        cfg
    }

    /// The effective two-tier class threshold γ (`1/K` unless overridden).
    #[must_use]
    pub fn gamma(&self) -> f64 {
        self.class_threshold.unwrap_or(1.0 / self.workload.n_domains as f64)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first problem found as a human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        self.workload.session.validate()?;
        self.workload.build().map(|_| ())?;
        self.servers.plan(self.total_capacity).map(|_| ())?;
        self.estimator.validate()?;
        if !(self.ttl_const_s.is_finite() && self.ttl_const_s > 0.0) {
            return Err(format!("ttl_const_s must be > 0, got {}", self.ttl_const_s));
        }
        if let Some(g) = self.class_threshold {
            if !(g > 0.0 && g < 1.0) {
                return Err(format!("class threshold must be in (0,1), got {g}"));
            }
        }
        if !(self.util_interval_s.is_finite() && self.util_interval_s > 0.0) {
            return Err(format!("util_interval_s must be > 0, got {}", self.util_interval_s));
        }
        if !(self.alarm_threshold > 0.0 && self.alarm_threshold <= 1.0) {
            return Err(format!("alarm threshold must be in (0,1], got {}", self.alarm_threshold));
        }
        if !(self.alarm_hysteresis >= 0.0 && self.alarm_hysteresis < self.alarm_threshold) {
            return Err("alarm hysteresis must be in [0, threshold)".to_string());
        }
        if self.feedback_delay_s < 0.0 {
            return Err("feedback delay must be >= 0".to_string());
        }
        if !(0.0..=1.0).contains(&self.ns_noncoop_fraction) {
            return Err(format!(
                "ns_noncoop_fraction must be in [0,1], got {}",
                self.ns_noncoop_fraction
            ));
        }
        self.service.validate()?;
        self.client_cache.validate()?;
        self.failures.validate()?;
        self.obs.validate()?;
        self.latency.validate()?;
        if self.duration_s <= 0.0 || self.duration_s.is_nan() {
            return Err("duration must be > 0".to_string());
        }
        if self.warmup_s < 0.0 {
            return Err("warmup must be >= 0".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers() {
        let cfg = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H20);
        assert_eq!(cfg.workload.n_domains, 20);
        assert_eq!(cfg.total_capacity, 500.0);
        assert_eq!(cfg.util_interval_s, 8.0);
        assert_eq!(cfg.duration_s, 18000.0);
        assert!((cfg.gamma() - 0.05).abs() < 1e-12, "γ = 1/K = 1/20");
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn ideal_uses_uniform_workload() {
        let cfg = SimConfig::ideal(HeterogeneityLevel::H35);
        let w = cfg.workload.build().unwrap();
        let rates = w.nominal_rates();
        assert!((rates[0] - rates[19]).abs() < 1e-9);
        assert_eq!(cfg.algorithm, Algorithm::prr_ttl1());
    }

    #[test]
    fn gamma_override() {
        let mut cfg = SimConfig::paper_default(Algorithm::rr2(), HeterogeneityLevel::H0);
        cfg.class_threshold = Some(0.1);
        assert_eq!(cfg.gamma(), 0.1);
        cfg.class_threshold = Some(1.5);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_problems() {
        let base = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H0);

        let mut cfg = base.clone();
        cfg.ttl_const_s = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = base.clone();
        cfg.alarm_threshold = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = base.clone();
        cfg.duration_s = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = base.clone();
        cfg.servers = ServerSpec::Relative(vec![0.5, 1.0]);
        assert!(cfg.validate().is_err());

        let mut cfg = base.clone();
        cfg.latency.regions = 0;
        assert!(cfg.validate().is_err(), "garbage latency block rejected even when disabled");

        let mut cfg = base;
        cfg.workload.n_clients = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn quick_is_just_shorter() {
        let q = SimConfig::quick(Algorithm::rr(), HeterogeneityLevel::H20);
        let p = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H20);
        assert!(q.duration_s < p.duration_s);
        assert_eq!(q.workload, p.workload);
    }

    /// Configs written before the CDF cap existed still parse, to the
    /// uncapped single-world run they always described.
    #[test]
    fn pre_sharding_configs_deserialize_to_single_shard() {
        let cfg = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H20);
        let mut json: serde_json::Value = serde_json::to_value(&cfg).unwrap();
        match &mut json {
            serde_json::Value::Object(fields) => {
                fields.retain(|(k, _)| k != "cdf_sample_cap");
            }
            other => panic!("config serializes to an object, got {other:?}"),
        }
        let back: SimConfig = serde_json::from_value(&json).unwrap();
        assert_eq!(back.cdf_sample_cap, 0);
        assert_eq!(back, cfg);
    }

    #[test]
    fn explicit_relative_servers() {
        let mut cfg = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H0);
        cfg.servers = ServerSpec::Relative(vec![1.0, 0.9, 0.3]);
        assert!(cfg.validate().is_ok());
        let plan = cfg.servers.plan(cfg.total_capacity).unwrap();
        assert_eq!(plan.num_servers(), 3);
    }
}
