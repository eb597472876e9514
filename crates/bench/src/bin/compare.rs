//! `compare` — run the full algorithm catalogue side by side on one
//! heterogeneity level and print a comparison table.
//!
//! ```sh
//! cargo run --release -p geodns-bench --bin compare -- [het%] [duration_s] [seed]
//! # e.g.
//! cargo run --release -p geodns-bench --bin compare -- 50 18000 42
//! ```

use geodns_core::{format_table, run_all, Algorithm, SimConfig};
use geodns_server::HeterogeneityLevel;

fn usage() -> ! {
    eprintln!("usage: compare [het%] [duration_s] [seed]");
    eprintln!("  het%        heterogeneity level: 0, 20, 35, 50 or 65 (default 20)");
    eprintln!("  duration_s  measured span in seconds, > 0 (default 18000)");
    eprintln!("  seed        master RNG seed, u64 (default 1998)");
    std::process::exit(2);
}

fn parse_level(arg: Option<&String>) -> HeterogeneityLevel {
    match arg.map(String::as_str) {
        Some("0") => HeterogeneityLevel::H0,
        Some("20") | None => HeterogeneityLevel::H20,
        Some("35") => HeterogeneityLevel::H35,
        Some("50") => HeterogeneityLevel::H50,
        Some("65") => HeterogeneityLevel::H65,
        Some(other) => {
            eprintln!("error: unknown heterogeneity level '{other}' (use 0/20/35/50/65)");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 3 {
        eprintln!("error: too many arguments");
        usage();
    }
    let level = parse_level(args.first());
    let duration: f64 = match args.get(1) {
        None => 18000.0,
        Some(s) => match s.parse() {
            Ok(d) if d > 0.0 => d,
            _ => {
                eprintln!("error: duration_s must be a positive number, got '{s}'");
                usage()
            }
        },
    };
    let seed: u64 = match args.get(2) {
        None => 1998,
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("error: seed must be a u64, got '{s}'");
                usage()
            }
        },
    };

    let algorithms = [
        Algorithm::rr(),
        Algorithm::rr2(),
        Algorithm::dal(),
        Algorithm::mrl(),
        Algorithm::prr_ttl1(),
        Algorithm::prr2_ttl1(),
        Algorithm::prr2_ttl(2),
        Algorithm::prr2_ttl_k(),
        Algorithm::drr2_ttl_s(1),
        Algorithm::drr2_ttl_s(2),
        Algorithm::drr2_ttl_s_k(),
    ];

    let mut configs: Vec<SimConfig> = algorithms
        .iter()
        .map(|&algorithm| {
            let mut cfg = SimConfig::paper_default(algorithm, level);
            cfg.duration_s = duration;
            cfg.warmup_s = (duration * 0.1).max(120.0);
            cfg.seed = seed;
            cfg
        })
        .collect();
    let mut ideal = SimConfig::ideal(level);
    ideal.duration_s = duration;
    ideal.warmup_s = (duration * 0.1).max(120.0);
    ideal.seed = seed;
    configs.push(ideal);

    eprintln!(
        "running {} algorithms at heterogeneity {level}, {duration:.0}s each, seed {seed} …",
        configs.len()
    );
    let t0 = std::time::Instant::now();
    let reports = run_all(&configs).expect("valid configs");
    eprintln!("done in {:.1?}", t0.elapsed());

    let mut rows: Vec<Vec<String>> = reports
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let label =
                if i == reports.len() - 1 { "Ideal".to_string() } else { r.algorithm.clone() };
            vec![
                label,
                format!("{:.3}", r.prob_max_util_lt(0.9)),
                format!("{:.3}", r.p98()),
                format!("{:.3}", r.mean_max_util()),
                format!("{:.3}", r.mean_util()),
                format!("{:.0}", r.page_response_p95_s * 1e3),
                format!("{:.4}", r.address_request_rate),
                format!("{:.1}", r.dns_control_fraction * 100.0),
                format!("{}", r.alarms),
            ]
        })
        .collect();
    rows.sort_by(|a, b| b[2].partial_cmp(&a[2]).unwrap_or(std::cmp::Ordering::Equal));

    println!();
    println!(
        "{}",
        format_table(
            &[
                "algorithm",
                "P<0.9",
                "P<0.98",
                "maxU avg",
                "mean U",
                "p95 ms",
                "addr r/s",
                "DNS %",
                "alarms"
            ],
            &rows
        )
    );
}
