//! The two simulator workloads: worlds built with `World::new` and run with
//! `World::run_metered`, single-threaded, unsharded.
//!
//! * `sim_paper` — the paper's §4 model (500 clients, K = 20 Zipf
//!   domains, 7 servers at H35, 30 min warm-up + 5 h span) under RR,
//!   PRR2-TTL/K and DRR2-TTL/S_K in turn. Small and cache-resident; most
//!   events are departures and DNS decisions are rare.
//! * `sim_wide` — 300k clients over 10k Zipf domains at 1 hit/s of
//!   capacity per client, with a warm-up longer than the 2 × 15 s
//!   think-time stagger so the measured span is steady state. About 300k
//!   events pending, client columns larger than the caches, and every
//!   name-server cache entry starts cold.

use std::time::Instant;

use geodns_core::{Algorithm, HeterogeneityLevel, ObsSnapshot, SimConfig, SimReport, World};
use geodns_simcore::{fnv1a_64, split_mix_64};

use crate::layers;
use crate::measure::{median, quantile, SchedStat, Spans};
use crate::{Args, Metrics, Outcome};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper,
    Wide,
}

/// The configurations one unit of work runs, in order. `tiny` shrinks the
/// spans and populations for the smoke test.
pub fn configs(kind: Kind, seed: u64, tiny: bool) -> Vec<SimConfig> {
    let seed = split_mix_64(seed ^ 0x5349_4D00);
    match kind {
        Kind::Paper => [Algorithm::rr(), Algorithm::prr2_ttl_k(), Algorithm::drr2_ttl_s_k()]
            .into_iter()
            .map(|a| {
                let mut c = SimConfig::paper_default(a, HeterogeneityLevel::H35);
                c.seed = seed;
                if tiny {
                    c.warmup_s = 120.0;
                    c.duration_s = 600.0;
                }
                c
            })
            .collect(),
        Kind::Wide => {
            let mut c =
                SimConfig::paper_default(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H35);
            let (clients, domains) = if tiny { (5_000, 500) } else { (300_000, 10_000) };
            c.workload.n_clients = clients;
            c.workload.n_domains = domains;
            c.total_capacity = clients as f64;
            c.warmup_s = 40.0;
            c.duration_s = if tiny { 5.0 } else { 16.0 };
            c.cdf_sample_cap = 1 << 16;
            c.seed = seed;
            vec![c]
        }
    }
}

/// Builds of every configuration per `setup_s` batch. One batch runs
/// before the first unit and one after every configuration's run, so the
/// median samples the whole run rather than a few moments of it.
fn setup_batch(kind: Kind, tiny: bool) -> usize {
    match (kind, tiny) {
        (_, true) => 2,
        (Kind::Paper, false) => 17,
        (Kind::Wide, false) => 5,
    }
}

/// The report's invariants; each broken one is one message.
pub fn check_report(r: &SimReport) -> Vec<String> {
    let mut errors = Vec::new();
    if r.hits_issued_total != r.hits_served_total + r.hits_failed_total + r.hits_in_flight {
        errors.push(format!(
            "{}: hits issued {} != served {} + failed {} + in flight {}",
            r.algorithm,
            r.hits_issued_total,
            r.hits_served_total,
            r.hits_failed_total,
            r.hits_in_flight
        ));
    }
    let utils = r.max_util_samples.iter().chain(&r.per_server_mean_util);
    if let Some(u) = utils.clone().find(|u| !(0.0..=1.0).contains(*u)) {
        errors.push(format!("{}: utilisation {u} outside [0, 1]", r.algorithm));
    }
    let scalars = [
        ("measured_span_s", r.measured_span_s),
        ("page_response_mean_s", r.page_response_mean_s),
        ("page_response_p95_s", r.page_response_p95_s),
        ("address_request_rate", r.address_request_rate),
        ("dns_control_fraction", r.dns_control_fraction),
        ("ns_miss_fraction", r.ns_miss_fraction),
    ];
    let vectors = r.per_server_availability.iter().chain(utils);
    if let Some((name, v)) = scalars.iter().find(|(_, v)| !v.is_finite()) {
        errors.push(format!("{}: {name} is {v}", r.algorithm));
    }
    if vectors.clone().any(|v| !v.is_finite()) {
        errors.push(format!("{}: a per-server or per-sample field is not finite", r.algorithm));
    }
    if r.max_util_samples.is_empty() || r.hits_completed == 0 || r.dns_queries == 0 {
        errors.push(format!("{}: the run measured nothing", r.algorithm));
    }
    errors
}

/// Digest of a report with its `obs` snapshot left out, so a traced run
/// (recorders on) can be compared with an untraced one.
fn digest(report: &SimReport) -> u64 {
    let mut r = report.clone();
    r.obs = None;
    fnv1a_64(serde_json::to_string(&r).expect("a report serializes").as_bytes())
}

/// One unit of work: every configuration built and run once.
pub struct Unit {
    pub wall_s: f64,
    pub run_s: f64,
    pub events: u64,
}

/// A measured pass: units until the time budget is spent.
pub struct Pass {
    pub units: Vec<Unit>,
    /// Per-configuration latency, build plus run, in µs.
    pub request_us: Vec<f64>,
    pub build_s: Vec<f64>,
    /// `World::new` times of the setup batches.
    pub setup_s: Vec<f64>,
    /// Report digest per configuration, from the first unit.
    pub digests: Vec<u64>,
    /// Observability snapshot per configuration, from the last unit.
    pub obs: Vec<Option<ObsSnapshot>>,
    pub events: Vec<u64>,
    pub runs: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Runs units until `seconds` have passed. With `setup` set, a batch of
/// that many builds of every configuration runs before the first unit and
/// after each configuration's run, their times going to `Pass::setup_s`;
/// a unit's `wall_s` leaves the batches out.
fn run_pass(
    cfgs: &[SimConfig],
    seconds: f64,
    setup: Option<usize>,
    mut spans: Option<&mut Spans>,
) -> Pass {
    let mut pass = Pass {
        units: Vec::new(),
        request_us: Vec::new(),
        build_s: Vec::new(),
        setup_s: Vec::new(),
        digests: Vec::new(),
        obs: vec![None; cfgs.len()],
        events: vec![0; cfgs.len()],
        runs: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let start = Instant::now();
    if let Some(builds) = setup {
        setup_batch_into(cfgs, builds, &mut pass);
    }
    loop {
        let unit_span = spans.as_deref_mut().map(|s| s.begin("sim.unit", None));
        let (mut wall_s, mut run_s, mut events) = (0.0, 0.0, 0);
        for (i, cfg) in cfgs.iter().enumerate() {
            pass.runs += 1;
            let span = spans.as_deref_mut().map(|s| s.begin("core.World::new", unit_span));
            let t0 = Instant::now();
            let world = World::new(cfg);
            let t1 = Instant::now();
            if let (Some(s), Some(id)) = (spans.as_deref_mut(), span) {
                s.end(id);
            }
            let world = match world {
                Ok(w) => w,
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("World::new: {e}"));
                    continue;
                }
            };
            let span = spans.as_deref_mut().map(|s| s.begin("core.World::run_metered", unit_span));
            let (report, metrics) = world.run_metered();
            let t2 = Instant::now();
            if let (Some(s), Some(id)) = (spans.as_deref_mut(), span) {
                s.end(id);
            }
            pass.build_s.push((t1 - t0).as_secs_f64());
            pass.request_us.push((t2 - t0).as_nanos() as f64 * 1e-3);
            run_s += (t2 - t1).as_secs_f64();
            events += metrics.events;
            pass.events[i] = metrics.events;

            let span = spans.as_deref_mut().map(|s| s.begin("bench.check", unit_span));
            let mut errors = check_report(&report);
            let d = digest(&report);
            match pass.digests.get(i) {
                None => pass.digests.push(d),
                Some(&first) if first != d => {
                    errors.push(format!("{}: report changed between units", report.algorithm));
                }
                Some(_) => {}
            }
            if let (Some(s), Some(id)) = (spans.as_deref_mut(), span) {
                s.end(id);
            }
            if !errors.is_empty() {
                pass.failed += 1;
                pass.errors.extend(errors);
            }
            pass.obs[i] = report.obs;
            wall_s += t0.elapsed().as_secs_f64();
            if let Some(builds) = setup {
                setup_batch_into(cfgs, builds, &mut pass);
            }
        }
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), unit_span) {
            s.end(id);
        }
        pass.units.push(Unit { wall_s, run_s, events });
        if pass.failed > 0 || start.elapsed().as_secs_f64() + wall_s > seconds {
            break;
        }
    }
    pass
}

/// Times `builds` rounds of `World::new` (config to ready world) over
/// every configuration into `pass.setup_s`. `setup_s` is the median of all
/// of them: one cold build is page-fault noise.
fn setup_batch_into(cfgs: &[SimConfig], builds: usize, pass: &mut Pass) {
    for _ in 0..builds {
        for cfg in cfgs {
            let t0 = Instant::now();
            match World::new(cfg) {
                Ok(world) => {
                    pass.setup_s.push(t0.elapsed().as_secs_f64());
                    drop(world);
                }
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("World::new: {e}"));
                    return;
                }
            }
        }
    }
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let cfgs = configs(kind, args.seed, args.tiny);
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    if !args.trace {
        let mut pass = run_pass(&cfgs, args.seconds, Some(setup_batch(kind, args.tiny)), None);
        m.set("setup_s", median(&mut pass.setup_s));
        let col =
            |f: &dyn Fn(&Unit) -> f64| median(&mut pass.units.iter().map(f).collect::<Vec<_>>());
        m.set("wall_s", col(&|u| u.wall_s));
        m.set("ops_per_s", col(&|u| u.events as f64 / u.run_s));
        m.set("lat_p50_us", quantile(&mut pass.request_us, 0.5));
        match crate::measure::peak_rss_mib() {
            Ok(v) => m.set("peak_rss_mib", v),
            Err(e) => return Outcome::broken(e),
        }
        out.absorb(pass.errors, pass.runs, pass.failed);
        out.metrics = m;
        return out;
    }

    let mut base = run_pass(&cfgs, args.seconds / 2.0, None, None);
    m.set("lat_p90_us", quantile(&mut base.request_us, 0.9));
    m.set("lat_p99_us", quantile(&mut base.request_us, 0.99));
    let traced_cfgs: Vec<SimConfig> = cfgs
        .iter()
        .map(|c| {
            let mut c = c.clone();
            c.obs.counters = true;
            c
        })
        .collect();
    let mut spans = Spans::new();
    let main0 = SchedStat::this_thread();
    let mut traced = run_pass(&traced_cfgs, args.seconds / 2.0, None, Some(&mut spans));
    let main = SchedStat::this_thread().since(main0);
    if base.digests != traced.digests {
        traced.failed += 1;
        traced.errors.push("traced and untraced reports differ (obs excluded)".into());
    }
    let run_s = |p: &Pass| median(&mut p.units.iter().map(|u| u.run_s).collect::<Vec<_>>());
    let world_run_s = run_s(&traced);
    m.set("core.world_run_s", world_run_s);
    m.set("bench.trace_overhead_frac", world_run_s / run_s(&base) - 1.0);
    m.set("core.world_build_s", median(&mut traced.build_s.clone()));
    m.set("bench.main_cpu_s", main.cpu_s);
    m.set("bench.main_runq_wait_s", main.runq_wait_s);
    layers::sim(&cfgs, &traced, &mut m, &mut spans);
    crate::write_spans(&spans, args);
    out.absorb(base.errors, base.runs, base.failed);
    out.absorb(traced.errors, traced.runs, traced.failed);
    out.metrics = m;
    out
}
