//! Configuration and report (de)serialization: a downstream user drives
//! sweeps from JSON files, so every config knob must round-trip.

use geodns_core::{
    run_simulation, Algorithm, ClientDistribution, EstimatorKind, MinTtlBehavior, PolicyKind,
    ServerSpec, SimConfig, TierSpec, TtlKind,
};
use geodns_server::HeterogeneityLevel;

#[test]
fn default_config_round_trips() {
    let cfg = SimConfig::paper_default(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H35);
    let json = serde_json::to_string_pretty(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn exotic_config_round_trips() {
    let mut cfg = SimConfig::paper_default(
        Algorithm::new(
            PolicyKind::Mrl,
            TtlKind::Adaptive { tiers: TierSpec::Classes(3), server_scaled: true },
        ),
        HeterogeneityLevel::H65,
    );
    cfg.servers = ServerSpec::Relative(vec![1.0, 0.9, 0.42]);
    cfg.estimator = EstimatorKind::Measured { collect_interval_s: 16.0, ema_alpha: 0.5 };
    cfg.ns_behavior = MinTtlBehavior::DefaultOnSmall { min_ttl_s: 30.0, default_ttl_s: 600.0 };
    cfg.workload.distribution = ClientDistribution::Explicit(vec![25; 20]);
    cfg.workload.rate_error = 0.2;
    cfg.class_threshold = Some(0.07);
    cfg.normalize_ttl = false;

    let json = serde_json::to_string(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn config_is_human_editable_json() {
    let cfg = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H20);
    let json = serde_json::to_value(&cfg).unwrap();
    // Spot-check the field names a user would edit.
    assert_eq!(json["ttl_const_s"], 240.0);
    assert_eq!(json["util_interval_s"], 8.0);
    assert_eq!(json["workload"]["n_clients"], 500);
    assert_eq!(json["alarm_threshold"], 0.9);
}

#[test]
fn invalid_json_fails_cleanly() {
    let err = serde_json::from_str::<SimConfig>("{\"not\": \"a config\"}");
    assert!(err.is_err());
}

#[test]
fn algorithm_names_survive_serde() {
    for algorithm in
        [Algorithm::rr(), Algorithm::prr2_ttl(2), Algorithm::drr2_ttl_s_k(), Algorithm::dal()]
    {
        let json = serde_json::to_string(&algorithm).unwrap();
        let back: Algorithm = serde_json::from_str(&json).unwrap();
        assert_eq!(algorithm, back);
        assert_eq!(algorithm.name(), back.name());
    }
}

/// `run_config --template` as written while the config still had a
/// domain-sharding block (`"shard"`), since removed from the model.
const TEMPLATE_WITH_SHARD_BLOCK: &str = r#"{
  "workload": {
    "n_clients": 500,
    "n_domains": 20,
    "distribution": {
      "Zipf": {
        "exponent": 1.0
      }
    },
    "session": {
      "pages_mean": 20.0,
      "hits_lo": 5,
      "hits_hi": 15,
      "think_mean_s": 15.0
    },
    "rate_error": 0.0,
    "profile": "Constant"
  },
  "servers": {
    "Level": "H35"
  },
  "total_capacity": 500.0,
  "algorithm": {
    "policy": "Rr2",
    "ttl": {
      "Adaptive": {
        "tiers": "PerDomain",
        "server_scaled": true
      }
    }
  },
  "estimator": "Oracle",
  "ns_behavior": "Cooperative",
  "ns_noncoop_fraction": 1.0,
  "service": "Exponential",
  "client_cache": "Off",
  "record_timeline": false,
  "failures": {
    "enabled": false,
    "spec": {
      "mtbf_s": 3600.0,
      "mttr_s": 120.0
    },
    "failover": "PinUntilTtl"
  },
  "obs": {
    "counters": false,
    "trace_path": null,
    "trace_max_records": 1000000
  },
  "latency": {
    "enabled": false,
    "regions": 3,
    "intra_rtt_ms": 15.0,
    "inter_rtt_ms": 120.0,
    "jitter_ms": 10.0
  },
  "ttl_const_s": 240.0,
  "class_threshold": null,
  "normalize_ttl": true,
  "util_interval_s": 8.0,
  "alarm_threshold": 0.9,
  "alarm_hysteresis": 0.0,
  "feedback_delay_s": 0.1,
  "duration_s": 18000.0,
  "warmup_s": 1800.0,
  "seed": 1846347027,
  "queue": "Calendar",
  "shard": {
    "shards": 1,
    "epoch_s": 8.0,
    "parallel": true
  },
  "cdf_sample_cap": 0
}"#;

#[test]
fn retired_shard_block_is_ignored() {
    // Saved configs keep working: the stale block parses away, and the run
    // is byte-identical to the same config without it. The span is cut
    // short identically in both so the test stays quick.
    let with_block: serde_json::Value = serde_json::from_str(TEMPLATE_WITH_SHARD_BLOCK).unwrap();
    assert!(with_block.get("shard").is_some(), "the template carries a shard block");
    let mut without_block = with_block.clone();
    if let serde_json::Value::Object(fields) = &mut without_block {
        fields.retain(|(k, _)| k != "shard");
    }

    let runs: Vec<String> = [with_block, without_block]
        .iter()
        .map(|json| {
            let mut cfg: SimConfig = serde_json::from_value(json).unwrap();
            cfg.duration_s = 600.0;
            cfg.warmup_s = 120.0;
            serde_json::to_string(&run_simulation(&cfg).unwrap()).unwrap()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}
