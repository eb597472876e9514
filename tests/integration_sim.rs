//! Cross-crate integration tests: full simulation runs asserting the
//! physical invariants of the model.

use geodns_core::{
    run_simulation, run_simulation_metered, Algorithm, EstimatorKind, SimConfig, SimReport,
};
use geodns_server::HeterogeneityLevel;

fn run_short(algorithm: Algorithm, level: HeterogeneityLevel, seed: u64) -> SimReport {
    let mut cfg = SimConfig::paper_default(algorithm, level);
    cfg.duration_s = 800.0;
    cfg.warmup_s = 200.0;
    cfg.seed = seed;
    run_simulation(&cfg).expect("valid config")
}

#[test]
fn utilization_samples_are_bounded_and_plentiful() {
    let r = run_short(Algorithm::rr(), HeterogeneityLevel::H35, 1);
    // 800 s of measurement at an 8 s interval → ≈100 samples.
    assert!(r.max_util_samples.len() >= 95, "{} samples", r.max_util_samples.len());
    assert!(r.max_util_samples.iter().all(|&u| (0.0..=1.0).contains(&u)));
    assert!(r.max_util_samples.windows(2).all(|w| w[0] <= w[1]), "sorted");
}

#[test]
fn offered_load_sits_near_the_design_point() {
    // The paper designs for 2/3 average utilization; the closed loop eats a
    // bit of that through response times.
    for algorithm in [Algorithm::rr(), Algorithm::drr2_ttl_s_k()] {
        let r = run_short(algorithm, HeterogeneityLevel::H20, 2);
        let mean = r.mean_util();
        assert!((0.45..0.8).contains(&mean), "{}: mean util {mean}", r.algorithm);
    }
}

#[test]
fn hit_throughput_matches_offered_load() {
    let r = run_short(Algorithm::prr2_ttl_k(), HeterogeneityLevel::H20, 3);
    // ≈333 hits/s offered over 800 s ≈ 266k hits; allow generous slack for
    // the closed-loop slowdown and warm-up edge effects.
    let rate = r.hits_completed as f64 / r.measured_span_s;
    assert!((250.0..400.0).contains(&rate), "hit completion rate {rate}");
}

#[test]
fn dns_sees_only_a_small_fraction_of_requests() {
    let r = run_short(Algorithm::rr(), HeterogeneityLevel::H20, 4);
    assert!(r.dns_control_fraction > 0.005, "some sessions must be DNS-routed");
    assert!(
        r.dns_control_fraction < 0.25,
        "address caching must hide most requests, got {}",
        r.dns_control_fraction
    );
    // Address-request rate should be in the vicinity of K/TTL = 20/240.
    assert!(
        (0.02..0.25).contains(&r.address_request_rate),
        "address rate {}",
        r.address_request_rate
    );
}

#[test]
fn every_server_receives_work() {
    let r = run_short(Algorithm::prr_ttl1(), HeterogeneityLevel::H65, 5);
    for (i, &u) in r.per_server_mean_util.iter().enumerate() {
        assert!(u > 0.05, "server {i} looks idle: mean util {u}");
    }
}

#[test]
fn page_responses_are_sane() {
    let r = run_short(Algorithm::drr2_ttl_s(2), HeterogeneityLevel::H35, 6);
    assert!(r.page_response_mean_s > 0.0);
    assert!(r.page_response_p95_s >= r.page_response_mean_s);
    // 10 hits/page at ≥49 hits/s per server: well under 10 s unless the
    // model leaks queueing.
    assert!(r.page_response_p95_s < 10.0, "p95 {}", r.page_response_p95_s);
}

#[test]
fn measured_estimator_tracks_reality() {
    // With live measurement the adaptive schemes should behave comparably
    // to the oracle (the workload is stationary).
    let mut oracle_cfg = SimConfig::paper_default(Algorithm::prr2_ttl_k(), HeterogeneityLevel::H35);
    oracle_cfg.duration_s = 1500.0;
    oracle_cfg.warmup_s = 600.0; // long enough for the EMA to converge
    oracle_cfg.seed = 7;
    let mut measured_cfg = oracle_cfg.clone();
    measured_cfg.estimator = EstimatorKind::measured_default();

    let oracle = run_simulation(&oracle_cfg).unwrap();
    let measured = run_simulation(&measured_cfg).unwrap();
    assert!(
        (oracle.p98() - measured.p98()).abs() < 0.25,
        "oracle {} vs measured {}",
        oracle.p98(),
        measured.p98()
    );
}

#[test]
fn alarms_fire_under_pressure_and_not_in_paradise() {
    // Overloaded site: alarms must fire.
    let mut hot = SimConfig::paper_default(Algorithm::rr(), HeterogeneityLevel::H65);
    hot.duration_s = 800.0;
    hot.warmup_s = 200.0;
    hot.seed = 8;
    let r = run_simulation(&hot).unwrap();
    assert!(r.alarms > 0, "a 65%-heterogeneous site under RR must alarm");

    // Overprovisioned site: no alarms.
    let mut cool = hot.clone();
    cool.total_capacity = 2000.0;
    let r = run_simulation(&cool).unwrap();
    assert_eq!(r.alarms, 0, "a 4x-overprovisioned site should never alarm");
}

#[test]
fn report_serializes_to_json() {
    let r = run_short(Algorithm::rr(), HeterogeneityLevel::H0, 9);
    let json = serde_json::to_string(&r).expect("serialize");
    let back: SimReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(r, back);
}

#[test]
fn client_state_holds_the_bytes_per_client_budget() {
    // The struct-of-arrays columns cost 32¼ bytes per client (four f64
    // columns plus one bit of hot/normal class). The budget is the
    // regression tripwire: a per-client struct or a stray usize column
    // blows straight through 40.
    let mut cfg = SimConfig::quick(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H20);
    cfg.workload.n_clients = 50_000;
    cfg.workload.n_domains = 2_000;
    cfg.total_capacity = 50_000.0;
    cfg.duration_s = 30.0;
    cfg.warmup_s = 5.0;
    let (_, metrics) = run_simulation_metered(&cfg).unwrap();
    let bytes = metrics.bytes_per_client();
    assert!(bytes > 0.0, "metering must account the client columns");
    assert!(bytes <= 40.0, "client state regressed to {bytes:.2} bytes/client");
}

#[test]
fn capped_cdfs_keep_the_report_usable() {
    // `cdf_sample_cap` bounds report memory for long runs; the capped
    // response-time summary must stay a faithful reservoir sample, not
    // collapse to a truncated prefix.
    let mut base = SimConfig::quick(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H20);
    base.duration_s = 300.0;
    base.warmup_s = 60.0;
    base.seed = 5;
    let mut capped = base.clone();
    capped.cdf_sample_cap = 8_192;
    let mut exact = capped.clone();
    exact.cdf_sample_cap = 0;
    let capped = run_simulation(&capped).unwrap();
    let exact = run_simulation(&exact).unwrap();
    assert_eq!(capped.hits_completed, exact.hits_completed);
    assert!(
        (capped.page_response_p95_s - exact.page_response_p95_s).abs()
            < exact.page_response_p95_s * 0.25,
        "reservoir p95 {:.4}s drifted from exact {:.4}s",
        capped.page_response_p95_s,
        exact.page_response_p95_s
    );

    // A cap the run never reaches must be a no-op: byte-identical report.
    let mut roomy = base;
    roomy.cdf_sample_cap = usize::MAX;
    assert_eq!(run_simulation(&roomy).unwrap(), exact);
}
