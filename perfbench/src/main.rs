//! `geodns-perfbench` — the end-to-end and per-layer benchmark of the
//! geodns simulator and the `geodnsd` daemon.
//!
//! ```text
//! geodns-perfbench --workload sim_paper|sim_wide|dns_query|dns_control
//!                  --seed N --seconds S --trace 0|1 [--tiny] [--spans-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1` runs
//! an untraced and a traced pass of half the time each, replays the layer
//! functions, and reports the per-layer metrics; the spans of the traced
//! pass go to `DIR/<workload>-seed<N>.json`. `--tiny` shrinks every
//! workload for the smoke test. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod dns;
mod layers;
mod measure;
mod sim;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("lat_p50_us", "us"),
];

/// Per-layer metrics. A workload that does not exercise a layer reports
/// 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.world_build_s", "s"),
    ("workload.build_s", "s"),
    ("core.world_run_s", "s"),
    ("simcore.events", "count"),
    ("simcore.events.departure", "count"),
    ("simcore.events.issue_page", "count"),
    ("simcore.events.session_start", "count"),
    ("simcore.events.util_sample", "count"),
    ("simcore.events.signal_arrive", "count"),
    ("simcore.engine_hold_ns", "ns"),
    ("simcore.cdf_record_ns", "ns"),
    ("server.arrive_depart_ns", "ns"),
    ("server.queue_arrivals", "count"),
    ("nameserver.lookup_ns", "ns"),
    ("nameserver.miss_frac", "1"),
    ("core.dns_decisions", "count"),
    ("core.resolve_ns", "ns"),
    ("core.ingest_ns", "ns"),
    ("core.attributed_frac", "1"),
    ("wire.handle_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.parse_ns", "ns"),
    ("bench.validate_ns", "ns"),
    ("gen.sendmmsg_ns", "ns"),
    ("gen.recvmmsg_ns", "ns"),
    ("gen.answers_per_recv", "count"),
    ("gen.cpu_s", "s"),
    ("gen.runq_wait_s", "s"),
    ("lat_p90_us", "us"),
    ("lat_p99_us", "us"),
    ("gen_late_p99_us", "us"),
    ("ctl_ack_p50_us", "us"),
    ("daemon.worker_cpu_s", "s"),
    ("daemon.worker_runq_wait_s", "s"),
    ("daemon.collector_cpu_s", "s"),
    ("daemon.received", "count"),
    ("daemon.answered", "count"),
    ("daemon.ctl", "count"),
    ("daemon.dropped", "count"),
    ("daemon.rx_drops", "count"),
    ("daemon.tx_errors", "count"),
    ("daemon.collections", "count"),
    ("bench.main_cpu_s", "s"),
    ("bench.main_runq_wait_s", "s"),
    ("bench.trace_overhead_frac", "1"),
    ("fail_frac", "1"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        spans_dir: PathBuf::from(".bench_build/perfbench-spans"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                };
            }
            "--spans-dir" => args.spans_dir = PathBuf::from(value()?),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be > 0, got {}", args.seconds));
    }
    Ok(args)
}

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A value set earlier in this run (0 if none was).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one invocation found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants and wrong outputs; any one makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// A run that could not measure at all.
    pub fn broken(error: String) -> Self {
        Outcome { attempted: 1, failed: 1, errors: vec![error], metrics: Metrics::default() }
    }

    pub fn absorb(&mut self, errors: Vec<String>, attempted: u64, failed: u64) {
        self.errors.extend(errors);
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Writes the traced pass's spans; a failure to write is an error of the
/// benchmark's environment, not of the program under test, so it is
/// reported on stderr only.
pub fn write_spans(spans: &measure::Spans, args: &Args) {
    let path = args.spans_dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    if let Err(e) = spans.write_json(&path) {
        eprintln!("perfbench: spans not written: {e}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "sim_paper" => sim::run(sim::Kind::Paper, &args),
        "sim_wide" => sim::run(sim::Kind::Wide, &args),
        "dns_query" => dns::run(dns::Kind::Query, &args),
        "dns_control" => dns::run(dns::Kind::Control, &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.set("fail_frac", frac);
    }
    let mut metrics: Vec<(String, serde_json::Value)> = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.0.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                out.errors.push(format!("end-to-end metric {name} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            out.errors.push(format!("metric {name} is {value}"));
            continue;
        }
        eprintln!("perfbench: {:<30} {value:>16.6} {unit}", name);
        metrics.push((name.to_string(), serde_json::json!({ "value": value, "unit": unit })));
    }
    for e in &out.errors {
        eprintln!("perfbench: error: {e}");
    }
    let correct = out.errors.is_empty();
    let line = serde_json::json!({
        "correct": correct,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&line).expect("the result serializes"));
    std::process::exit(if correct { 0 } else { 1 });
}
