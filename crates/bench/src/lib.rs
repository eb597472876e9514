//! Shared harness for the paper-regeneration bench targets.
//!
//! Every `fig*`/`table*`/`sweep_*`/`ablation_*` bench target is a
//! `harness = false` binary that:
//!
//! 1. builds the experiment's configurations from the paper defaults,
//! 2. runs them in parallel ([`geodns_core::run_all`]),
//! 3. prints the same rows/series the paper reports, and
//! 4. persists the raw numbers to `target/paper/<id>.json`.
//!
//! Set `GEODNS_QUICK=1` (or pass `--quick`) to shrink runs for smoke
//! testing; paper-fidelity runs are the default.

mod burst;
mod chart;
mod micro;

pub use burst::BurstClock;
pub use chart::{ascii_chart, Series};
pub use micro::MicroBench;

use std::fs;
use std::path::PathBuf;

use geodns_core::{Experiment, SimConfig, SimReport};

/// Whether the invocation asked for a shortened smoke run.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var("GEODNS_QUICK").map(|v| v != "0").unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}

/// Applies quick-mode shrinking to a paper config when enabled.
pub fn apply_mode(cfg: &mut SimConfig) {
    if quick_mode() {
        cfg.duration_s = 1200.0;
        cfg.warmup_s = 300.0;
    }
}

/// The grid of utilization levels used to print CDF curves (Figures 1–2).
#[must_use]
pub fn util_grid() -> Vec<f64> {
    (10..=20).map(|i| f64::from(i) * 0.05).collect() // 0.50 … 1.00
}

/// Runs a labelled experiment, printing progress to stderr.
///
/// # Panics
///
/// Panics on configuration errors — a bench target with an invalid config
/// is a bug, not an operational condition.
#[must_use]
pub fn run_experiment(experiment: &Experiment) -> Vec<(String, SimReport)> {
    eprintln!(
        "[{}] running {} simulations{} …",
        experiment.id,
        experiment.rows.len(),
        if quick_mode() { " (quick mode)" } else { "" }
    );
    let t0 = std::time::Instant::now();
    let results = experiment.run().unwrap_or_else(|e| panic!("{}: {e}", experiment.id));
    eprintln!("[{}] done in {:.1?}", experiment.id, t0.elapsed());
    results
}

/// Where the regenerated artifacts go.
#[must_use]
pub fn output_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/paper");
    fs::create_dir_all(&dir).expect("create target/paper");
    dir
}

/// Persists the experiment's raw reports as JSON for EXPERIMENTS.md.
pub fn save_json(id: &str, results: &[(String, SimReport)]) {
    let path = output_dir().join(format!("{id}.json"));
    let labelled: Vec<serde_json::Value> = results
        .iter()
        .map(|(label, report)| {
            serde_json::json!({
                "label": label,
                "report": report,
            })
        })
        .collect();
    let json = serde_json::to_string_pretty(&labelled).expect("serialize reports");
    fs::write(&path, json).expect("write JSON artifact");
    eprintln!("wrote {}", path.display());
}

/// Prints a Figure-1/2-style CDF table: one column per utilization level,
/// one row per algorithm.
pub fn print_cdf_table(title: &str, results: &[(String, SimReport)]) {
    let grid = util_grid();
    let mut header: Vec<String> = vec!["algorithm".into()];
    header.extend(grid.iter().map(|x| format!("<{x:.2}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, r)| {
            let mut row = vec![label.clone()];
            row.extend(grid.iter().map(|&x| format!("{:.3}", r.prob_max_util_lt(x))));
            row
        })
        .collect();
    println!("\n{title}");
    println!("cumulative frequency  P(MaxUtilization < x)\n");
    println!("{}", geodns_core::format_table(&header_refs, &rows));

    let series: Vec<Series> =
        results.iter().map(|(label, r)| Series::new(label.clone(), r.cdf_curve(&grid))).collect();
    println!("{}", ascii_chart(&series, 72, 20));
}

/// Prints a Figure-3..7-style series table: `P(maxU < 0.98)` per x-value,
/// one row per algorithm. `points` is `[(x_label, results-at-x)]`.
pub fn print_p98_series(
    title: &str,
    x_name: &str,
    algorithms: &[String],
    points: &[(String, Vec<(String, SimReport)>)],
) {
    let mut header: Vec<String> = vec!["algorithm".into()];
    header.extend(points.iter().map(|(x, _)| x.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = algorithms
        .iter()
        .map(|alg| {
            let mut row = vec![alg.clone()];
            for (_, results) in points {
                let p = results
                    .iter()
                    .find(|(label, _)| label == alg)
                    .map(|(_, r)| r.p98())
                    .unwrap_or(f64::NAN);
                row.push(format!("{p:.3}"));
            }
            row
        })
        .collect();
    println!("\n{title}");
    println!("P(MaxUtilization < 0.98) vs {x_name}\n");
    println!("{}", geodns_core::format_table(&header_refs, &rows));

    // Sketch the curves when the x labels parse as numbers.
    let xs: Vec<Option<f64>> = points
        .iter()
        .map(|(x, _)| {
            x.trim_end_matches(['%', 's'])
                .trim_start_matches(['K', 'N', 'i', '=', 'γ', 'θ'])
                .parse()
                .ok()
        })
        .collect();
    if xs.iter().all(Option::is_some) && xs.len() > 1 {
        let series: Vec<Series> = algorithms
            .iter()
            .map(|alg| {
                let pts = points
                    .iter()
                    .zip(&xs)
                    .filter_map(|((_, results), x)| {
                        results
                            .iter()
                            .find(|(label, _)| label == alg)
                            .map(|(_, r)| (x.expect("checked"), r.p98()))
                    })
                    .collect();
                Series::new(alg.clone(), pts)
            })
            .collect();
        println!("{}", ascii_chart(&series, 72, 20));
    }
}

/// Flattens per-x results into one labelled list for JSON persistence,
/// prefixing each label with its x value.
#[must_use]
pub fn flatten_series(points: &[(String, Vec<(String, SimReport)>)]) -> Vec<(String, SimReport)> {
    points
        .iter()
        .flat_map(|(x, results)| {
            results.iter().map(move |(label, r)| (format!("{x}|{label}"), r.clone()))
        })
        .collect()
}

/// The five policies the paper tracks in Figures 4–5: the four fully
/// adaptive TTL/K–TTL/S_K variants plus the coarse `PRR2-TTL/2` that is
/// naturally immune to the clamp.
#[must_use]
pub fn figure45_algorithms() -> Vec<geodns_core::Algorithm> {
    use geodns_core::Algorithm;
    vec![
        Algorithm::drr2_ttl_s_k(),
        Algorithm::drr_ttl_s_k(),
        Algorithm::prr2_ttl_k(),
        Algorithm::prr_ttl_k(),
        Algorithm::prr2_ttl(2),
    ]
}

/// The eight policies of Figures 6–7: the TTL/K & TTL/S_K family (robust)
/// against the TTL/2 & TTL/S_2 family (error-sensitive).
#[must_use]
pub fn figure67_algorithms() -> Vec<geodns_core::Algorithm> {
    use geodns_core::Algorithm;
    vec![
        Algorithm::drr2_ttl_s_k(),
        Algorithm::drr_ttl_s_k(),
        Algorithm::prr2_ttl_k(),
        Algorithm::prr_ttl_k(),
        Algorithm::drr2_ttl_s(2),
        Algorithm::drr_ttl_s(2),
        Algorithm::prr2_ttl(2),
        Algorithm::prr_ttl(2),
    ]
}

/// Runs the Figures 4–5 min-TTL sweep at one heterogeneity level: every NS
/// clamps proposed TTLs up to the threshold (the paper's worst case).
pub fn run_min_ttl_sweep(id: &str, fig_no: u32, level: geodns_core::HeterogeneityLevel, seed: u64) {
    use geodns_core::{Algorithm, Experiment, MinTtlBehavior};
    let algorithms = figure45_algorithms();
    let names: Vec<String> = algorithms.iter().map(Algorithm::name).collect();
    let thresholds = [0.0, 40.0, 80.0, 120.0, 160.0, 200.0, 240.0, 280.0];

    let mut points = Vec::new();
    for min_ttl in thresholds {
        let mut e = Experiment::new(format!("{id}@{min_ttl}"));
        for &algorithm in &algorithms {
            let mut cfg = SimConfig::paper_default(algorithm, level);
            cfg.seed = seed;
            if min_ttl > 0.0 {
                cfg.ns_behavior = MinTtlBehavior::ClampToMin { min_ttl_s: min_ttl };
            }
            apply_mode(&mut cfg);
            e.push(algorithm.name(), cfg);
        }
        points.push((format!("{min_ttl:.0}s"), run_experiment(&e)));
    }

    print_p98_series(
        &format!("Figure {fig_no}: Sensitivity to minimum TTL (heterogeneity {level})"),
        "minimum TTL accepted by the name servers",
        &names,
        &points,
    );
    save_json(id, &flatten_series(&points));
}

/// Runs the fault-injection MTBF sweep: every server crashes/recovers as a
/// seeded exponential process (MTTR fixed) and clients follow the
/// paper-faithful pin-until-TTL failover, so a scheme's TTL length directly
/// bounds how long dead bindings keep swallowing hits. Answers whether the
/// short-TTL advantage doubles as a fast-failover advantage.
pub fn run_failure_sweep(id: &str, level: geodns_core::HeterogeneityLevel, seed: u64) {
    use geodns_core::{Algorithm, Experiment};
    use geodns_server::FailureSpec;

    let algorithms = [
        Algorithm::drr2_ttl_s_k(),
        Algorithm::prr2_ttl_k(),
        Algorithm::prr2_ttl(2),
        Algorithm::rr(),
    ];
    let names: Vec<String> = algorithms.iter().map(Algorithm::name).collect();
    let mtbfs = [600.0, 1200.0, 2400.0, 4800.0];
    const MTTR_S: f64 = 120.0;

    let mut points = Vec::new();
    for mtbf in mtbfs {
        let mut e = Experiment::new(format!("{id}@{mtbf}"));
        for algorithm in algorithms {
            let mut cfg = SimConfig::paper_default(algorithm, level);
            cfg.seed = seed;
            cfg.failures.enabled = true;
            cfg.failures.spec = FailureSpec { mtbf_s: mtbf, mttr_s: MTTR_S };
            apply_mode(&mut cfg);
            e.push(algorithm.name(), cfg);
        }
        points.push((format!("{mtbf:.0}s"), run_experiment(&e)));
    }

    print_p98_series(
        &format!(
            "X12: Load balance under server failures (MTTR {MTTR_S:.0} s, heterogeneity {level})"
        ),
        "mean time between failures per server",
        &names,
        &points,
    );
    print_failure_table(&names, &points);
    save_json(id, &flatten_series(&points));
}

/// Prints the failover-quality half of the failure sweep: the fraction of
/// hits lost to dead bindings, per-server availability, and how fast
/// traffic returns to a repaired server.
pub fn print_failure_table(algorithms: &[String], points: &[(String, Vec<(String, SimReport)>)]) {
    let mut header: Vec<String> = vec!["algorithm".into()];
    header.extend(points.iter().map(|(x, _)| format!("fail% @{x}")));
    header.extend(points.iter().map(|(x, _)| format!("rebal_s @{x}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = algorithms
        .iter()
        .map(|alg| {
            let mut row = vec![alg.clone()];
            for (_, results) in points {
                let f = results
                    .iter()
                    .find(|(label, _)| label == alg)
                    .map(|(_, r)| {
                        let total = r.hits_completed + r.hits_failed;
                        if total > 0 {
                            100.0 * r.hits_failed as f64 / total as f64
                        } else {
                            0.0
                        }
                    })
                    .unwrap_or(f64::NAN);
                row.push(format!("{f:.2}"));
            }
            for (_, results) in points {
                let t = results
                    .iter()
                    .find(|(label, _)| label == alg)
                    .map(|(_, r)| r.time_to_rebalance_mean_s)
                    .unwrap_or(f64::NAN);
                row.push(format!("{t:.1}"));
            }
            row
        })
        .collect();
    println!("\nfailed-hit share and time-to-rebalance after repair\n");
    println!("{}", geodns_core::format_table(&header_refs, &rows));
}

/// Runs the Figures 6–7 estimation-error sweep at one heterogeneity level:
/// the busiest domain's actual rate is inflated by e% (others deflated
/// proportionally) while the DNS keeps using the unperturbed estimates.
pub fn run_error_sweep(id: &str, fig_no: u32, level: geodns_core::HeterogeneityLevel, seed: u64) {
    use geodns_core::{Algorithm, Experiment};
    let algorithms = figure67_algorithms();
    let names: Vec<String> = algorithms.iter().map(Algorithm::name).collect();
    let errors = [0.0, 0.10, 0.20, 0.30, 0.40, 0.50];

    let mut points = Vec::new();
    for error in errors {
        let mut e = Experiment::new(format!("{id}@{error}"));
        for &algorithm in &algorithms {
            let mut cfg = SimConfig::paper_default(algorithm, level);
            cfg.seed = seed;
            cfg.workload.rate_error = error;
            apply_mode(&mut cfg);
            e.push(algorithm.name(), cfg);
        }
        points.push((format!("{:.0}%", error * 100.0), run_experiment(&e)));
    }

    print_p98_series(
        &format!(
            "Figure {fig_no}: Sensitivity to error in estimating the domain hidden load weight \
             (heterogeneity {level})"
        ),
        "estimation error",
        &names,
        &points,
    );
    save_json(id, &flatten_series(&points));
}

/// Runs the X18 proximity sweep: the geographic latency model is enabled
/// and the RTT-band policy (at several band widths) competes with the
/// proximity-blind baselines on *client-perceived* latency — page response
/// plus the network round-trip of the (domain, server) pair the scheduler
/// chose. Returns the labelled reports so the bench binary can gate on
/// them with `--check`.
pub fn run_rtt_band_sweep(
    id: &str,
    level: geodns_core::HeterogeneityLevel,
    seed: u64,
) -> Vec<(String, SimReport)> {
    use geodns_core::{Algorithm, Experiment, DEFAULT_BAND_MS};

    let mut e = Experiment::new(id.to_string());
    let mut push = |label: String, algorithm: Algorithm| {
        let mut cfg = SimConfig::paper_default(algorithm, level);
        cfg.seed = seed;
        cfg.latency.enabled = true;
        apply_mode(&mut cfg);
        e.push(label, cfg);
    };
    push("RR".into(), Algorithm::rr());
    push("DAL".into(), Algorithm::dal());
    push("DRR2-TTL/S_K".into(), Algorithm::drr2_ttl_s_k());
    for band_ms in [50, 100, DEFAULT_BAND_MS, 800] {
        push(format!("RTT-BAND:{band_ms}"), Algorithm::rtt_band(band_ms));
    }
    let results = run_experiment(&e);

    let header =
        ["algorithm", "perceived_mean_s", "p50_s", "p95_s", "p99_s", "rtt_mean_ms", "P(maxU<.98)"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, r)| {
            let lat = r.latency.as_ref().expect("latency model enabled for every row");
            vec![
                label.clone(),
                format!("{:.3}", lat.perceived_mean_s),
                format!("{:.3}", lat.perceived_p50_s),
                format!("{:.3}", lat.perceived_p95_s),
                format!("{:.3}", lat.perceived_p99_s),
                format!("{:.1}", lat.rtt_mean_s * 1000.0),
                format!("{:.3}", r.p98()),
            ]
        })
        .collect();
    println!("\nX18: Client-perceived latency with the geographic model (heterogeneity {level})\n");
    println!("{}", geodns_core::format_table(&header, &rows));
    save_json(id, &results);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn util_grid_covers_the_interesting_range() {
        let g = util_grid();
        assert_eq!(g.first().copied(), Some(0.5));
        assert_eq!(g.last().copied(), Some(1.0));
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn flatten_prefixes_labels() {
        let r = geodns_core::SimReport {
            algorithm: "RR".into(),
            seed: 0,
            heterogeneity_pct: 0.0,
            measured_span_s: 1.0,
            max_util_samples: vec![],
            per_server_mean_util: vec![],
            page_response_mean_s: 0.0,
            page_response_p95_s: 0.0,
            sessions: 0,
            dns_queries: 0,
            address_request_rate: 0.0,
            dns_control_fraction: 0.0,
            hits_completed: 0,
            alarms: 0,
            ns_miss_fraction: 0.0,
            page_response_hot_mean_s: 0.0,
            page_response_normal_mean_s: 0.0,
            client_cache_hits: 0,
            hits_failed: 0,
            rebinds: 0,
            per_server_availability: vec![],
            time_to_rebalance_mean_s: 0.0,
            hits_issued_total: 0,
            hits_served_total: 0,
            hits_failed_total: 0,
            hits_in_flight: 0,
            timeline: None,
            obs: None,
            latency: None,
        };
        let flat = flatten_series(&[("20".into(), vec![("RR".into(), r)])]);
        assert_eq!(flat[0].0, "20|RR");
    }
}
