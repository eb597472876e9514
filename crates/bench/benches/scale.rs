//! Internet-scale wall-chart: events/sec and bytes/client as the client
//! population grows 10k → 1M over a 10k-domain Zipf workload.
//!
//! The paper simulates 500 clients and 20 domains; this chart answers
//! whether the same model — dense struct-of-arrays client state, the
//! alias-sampled Zipf partition, the calendar-queue engine — holds up at
//! Internet scale. Site capacity grows with the population (1 hit/s per
//! client, the paper's 500-for-500 design point) so per-server offered
//! load stays at the ~2/3 design level while the event count scales.
//!
//! Each cell times its two phases apart: `build_s` is `World::new`
//! (workload tables, client columns, farm), and events/sec divides the
//! processed events by `run_s`, the time in `World::run_metered` alone
//! (stepping plus the report's finalize), so construction never inflates
//! or dilutes the rate. Each cell also reports the measured per-client
//! session-state bytes (the struct-of-arrays columns; ~32¼ B/client).
//!
//! Modes:
//!
//! * default — 10k / 100k / 1M clients;
//! * `GEODNS_QUICK=1` / `--quick` — shrunken populations and spans for CI;
//! * `--check` — gate the measured numbers against the committed
//!   `BENCH_scale.json`: every cell must hold `gate_max_bytes_per_client`.
//!
//! The grid is persisted to `target/paper/scale.json`; the committed
//! `BENCH_scale.json` is a hand-promoted snapshot of a reference run plus
//! the gate value.

use std::path::PathBuf;
use std::time::Instant;

use geodns_bench::{output_dir, quick_mode};
use geodns_core::{format_table, Algorithm, SimConfig, World};
use geodns_server::HeterogeneityLevel;

const DOMAINS: usize = 10_000;

/// A scale-run configuration: `clients` over [`DOMAINS`] Zipf domains,
/// capacity matched to the population, response CDFs capped so report
/// memory stays bounded however long the run.
fn scale_config(clients: usize, warmup_s: f64, duration_s: f64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H20);
    cfg.workload.n_clients = clients;
    cfg.workload.n_domains = DOMAINS;
    cfg.total_capacity = clients as f64;
    cfg.warmup_s = warmup_s;
    cfg.duration_s = duration_s;
    cfg.seed = 0x5CA1_E001;
    cfg.cdf_sample_cap = 1 << 20;
    cfg
}

/// One measured cell: build the world, run it to completion, time each
/// phase, pull the metrics.
struct Cell {
    clients: usize,
    events: u64,
    build_s: f64,
    run_s: f64,
    events_per_sec: f64,
    bytes_per_client: f64,
    hits_completed: u64,
    vm_hwm_mb: f64,
}

fn run_cell(cfg: &SimConfig) -> Cell {
    let t0 = Instant::now();
    let world = World::new(cfg).expect("valid scale config");
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (report, metrics) = world.run_metered();
    let run_s = t1.elapsed().as_secs_f64();
    Cell {
        clients: cfg.workload.n_clients,
        events: metrics.events,
        build_s,
        run_s,
        events_per_sec: metrics.events as f64 / run_s.max(1e-9),
        bytes_per_client: metrics.bytes_per_client(),
        hits_completed: report.hits_completed,
        vm_hwm_mb: vm_hwm_mb(),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable. Monotone across cells — the 1M
/// cell runs last, so its value is the chart's memory headline.
fn vm_hwm_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Applies the bytes/client gate from the committed baseline.
fn check_against_baseline(dense: &[Cell]) {
    let path = repo_root().join("BENCH_scale.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("--check: cannot read {}: {e}", path.display()));
    let baseline: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("--check: bad baseline JSON: {e}"));
    let max_bytes =
        baseline["gate_max_bytes_per_client"].as_f64().expect("baseline gate_max_bytes_per_client");

    let mut ok = true;
    for cell in dense {
        eprintln!(
            "check dense {} clients: {:.2} bytes/client (cap {max_bytes:.1})",
            cell.clients, cell.bytes_per_client
        );
        if cell.bytes_per_client > max_bytes {
            eprintln!("scale: {} clients blew the bytes/client cap", cell.clients);
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!("scale: all cells hold the BENCH_scale.json gates");
}

fn main() {
    let quick = quick_mode();
    let check = std::env::args().any(|a| a == "--check");

    // (clients, warmup_s, duration_s): spans shrink as populations grow so
    // every cell processes a few million events, enough for a stable rate.
    let dense_grid: &[(usize, f64, f64)] = if quick {
        &[(10_000, 5.0, 15.0), (100_000, 2.0, 6.0)]
    } else {
        &[(10_000, 30.0, 120.0), (100_000, 10.0, 30.0), (1_000_000, 5.0, 15.0)]
    };

    eprintln!(
        "[scale] {DOMAINS} domains, dense grid {:?} clients{}",
        dense_grid.iter().map(|&(c, _, _)| c).collect::<Vec<_>>(),
        if quick { " (quick mode)" } else { "" }
    );

    let mut dense: Vec<Cell> = Vec::new();
    for &(clients, warmup, duration) in dense_grid {
        let cell = run_cell(&scale_config(clients, warmup, duration));
        eprintln!(
            "[scale] {clients} clients: built in {:.3} s, {:.0} events/s over {} events, \
             {:.2} bytes/client, peak rss {:.0} MiB",
            cell.build_s, cell.events_per_sec, cell.events, cell.bytes_per_client, cell.vm_hwm_mb
        );
        dense.push(cell);
    }

    let dense_rows: Vec<Vec<String>> = dense
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.clients),
                format!("{}", c.events),
                format!("{:.3}", c.build_s),
                format!("{:.2}", c.run_s),
                format!("{:.0}", c.events_per_sec),
                format!("{:.2}", c.bytes_per_client),
                format!("{:.0}", c.vm_hwm_mb),
            ]
        })
        .collect();
    println!("\nscale: dense client state over {DOMAINS} Zipf domains\n");
    println!(
        "{}",
        format_table(
            &["clients", "events", "build s", "run s", "events/s", "B/client", "peak MiB"],
            &dense_rows
        )
    );

    let cell_json = |c: &Cell| {
        serde_json::json!({
            "clients": c.clients,
            "events": c.events,
            "build_s": c.build_s,
            "run_s": c.run_s,
            "events_per_sec": c.events_per_sec,
            "bytes_per_client": c.bytes_per_client,
            "hits_completed": c.hits_completed,
            "vm_hwm_mb": c.vm_hwm_mb,
        })
    };
    let json = serde_json::json!({
        "quick": quick,
        "domains": DOMAINS,
        "dense": dense.iter().map(cell_json).collect::<Vec<_>>(),
    });
    let path = output_dir().join("scale.json");
    std::fs::write(&path, serde_json::to_string_pretty(&json).expect("serialize"))
        .expect("write scale.json");
    eprintln!("wrote {}", path.display());

    if check {
        check_against_baseline(&dense);
    }
}
