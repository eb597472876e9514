//! The layer-replay harness: times the public functions of each layer
//! crate from outside, each shaped by the workload's own sizes and counts
//! (domains, servers, pending events, CDF cap, query mix), and weighs the
//! per-call times by the counts the traced run observed.
//!
//! Inputs are drawn before timing starts, so only the layer's own call is
//! inside a timed round.

use std::hint::black_box;
use std::time::Instant;

use geodns_core::{DnsScheduler, EstimatorKind, HiddenLoadEstimator, ObsSnapshot, SimConfig};
use geodns_nameserver::{MinTtlBehavior, NsCache, NsLookup};
use geodns_server::{Hit, WebServer};
use geodns_simcore::dist::{Discrete, Distribution, Exponential, Uniform, ZipfAlias};
use geodns_simcore::stats::Cdf;
use geodns_simcore::{Engine, RngStreams, SimTime, StreamRng};
use geodns_wire::mmsg::SendBatch;
use geodns_wire::Message;

use crate::dns::{self, Ask};
use crate::measure::{median, ns_per_op, Spans};
use crate::sim;
use crate::Metrics;

/// Wall-clock budget of one replayed function.
const BUDGET_S: f64 = 0.15;
/// Pre-drawn inputs cycled through by every replay.
const DRAWS: usize = 4096;

/// [`ns_per_op`] inside a span named after the replayed function.
fn timed(
    spans: &mut Spans,
    name: &'static str,
    batch: usize,
    budget_s: f64,
    op: impl FnMut(),
) -> f64 {
    spans.wrap(name, || ns_per_op(batch, budget_s, op))
}

fn draws<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    (0..n).map(|_| f()).collect()
}

fn rng(seed: u64, name: &str) -> StreamRng {
    RngStreams::new(seed).stream(name)
}

/// Count of one event kind in a snapshot.
fn kind_count(obs: &ObsSnapshot, kind: &str) -> u64 {
    obs.events.iter().filter(|e| e.kind == kind).map(|e| e.count).sum()
}

/// Layer numbers for the simulator workloads, from the traced pass.
pub fn sim(cfgs: &[SimConfig], traced: &sim::Pass, m: &mut Metrics, spans: &mut Spans) {
    let cfg = &cfgs[0];
    let seed = cfg.seed;
    let obs: Vec<&ObsSnapshot> = traced.obs.iter().flatten().collect();
    let sum = |f: &dyn Fn(&ObsSnapshot) -> u64| obs.iter().map(|o| f(o)).sum::<u64>();
    let events: u64 = traced.events.iter().sum();
    let kinds = [
        ("simcore.events.departure", "Departure"),
        ("simcore.events.issue_page", "IssuePage"),
        ("simcore.events.session_start", "SessionStart"),
        ("simcore.events.util_sample", "UtilSample"),
        ("simcore.events.signal_arrive", "SignalArrive"),
    ];
    m.set("simcore.events", events as f64);
    for (name, kind) in kinds {
        m.set(name, sum(&|o| kind_count(o, kind)) as f64);
    }
    let arrivals = sum(&|o| o.queue_arrivals);
    let decisions = sum(&|o| o.dns_decisions);
    let ns_hits = sum(&|o| o.ns_hits);
    let ns_misses = sum(&|o| o.ns_misses_cold + o.ns_misses_expired);
    let lookups = ns_hits + ns_misses;
    // Each page's response time is pushed into the page CDF at most once.
    let pages = sum(&|o| kind_count(o, "IssuePage") + kind_count(o, "SessionStart"));
    m.set("server.queue_arrivals", arrivals as f64);
    m.set("core.dns_decisions", decisions as f64);
    m.set(
        "nameserver.miss_frac",
        if lookups == 0 { 0.0 } else { ns_misses as f64 / lookups as f64 },
    );

    let build_s = spans.wrap("workload.WorkloadSpec::build", || {
        let mut builds = Vec::new();
        let start = Instant::now();
        while builds.len() < 3 || start.elapsed().as_secs_f64() < BUDGET_S {
            let t0 = Instant::now();
            let w = cfg.workload.build().expect("the workload built in the measured run");
            builds.push(t0.elapsed().as_secs_f64());
            drop(black_box(w));
        }
        median(&mut builds)
    });
    m.set("workload.build_s", build_s);

    let runs = cfgs.len() as f64;
    let span_s = cfg.warmup_s + cfg.duration_s;
    let n_domains = cfg.workload.n_domains;
    let workload = cfg.workload.build().expect("the workload built in the measured run");
    let plan = cfg.servers.plan(cfg.total_capacity).expect("the plan built in the measured run");
    let domain_law = Discrete::from_weights(workload.nominal_rates()).expect("positive rates");
    let mut r = rng(seed, "replay-domains");
    let domains = draws(DRAWS, || domain_law.sample(&mut r));

    // Engine hold model: one pending event per client, each step
    // rescheduling its event either a service time ahead (with the run's
    // share of departures) or a think time ahead, as the run does.
    let pending = cfg.workload.n_clients;
    let departures = sum(&|o| kind_count(o, "Departure"));
    let short_share = departures as f64 / events.max(1) as f64;
    let service = Exponential::with_mean(plan.num_servers() as f64 / cfg.total_capacity);
    let think = Exponential::with_mean(cfg.workload.session.think_mean_s);
    let unit = Uniform::new(0.0, 1.0).expect("valid range");
    let mut r = rng(seed, "replay-hold");
    let delays = draws(DRAWS, || {
        if unit.sample(&mut r) < short_share {
            service.sample(&mut r)
        } else {
            think.sample(&mut r)
        }
    });
    let mut engine: Engine<u32> = Engine::with_capacity_and_kind(pending + 64, cfg.queue);
    for i in 0..pending {
        engine.schedule_in(think.sample(&mut r), i as u32);
    }
    let mut j = 0usize;
    let hold_ns = timed(spans, "simcore.Engine::step+schedule_in", 10_000, BUDGET_S, || {
        let (_, e) = engine.step().expect("the hold model keeps its population");
        engine.schedule_in(delays[j % DRAWS], e);
        j += 1;
    });
    drop(engine);
    m.set("simcore.engine_hold_ns", hold_ns);

    // CDF pushes at the workload's cap, one fresh CDF per run's worth.
    let per_run = ((pages as f64 / runs) as usize).clamp(1, 1 << 20);
    let mut r = rng(seed, "replay-cdf");
    let samples = draws(DRAWS, || 10.0 * unit.sample(&mut r));
    let cdf_ns = spans.wrap("simcore.Cdf::record", || {
        let mut rounds = Vec::new();
        let start = Instant::now();
        while rounds.len() < 3 || start.elapsed().as_secs_f64() < BUDGET_S {
            let mut cdf = Cdf::with_cap(cfg.cdf_sample_cap, seed);
            let t0 = Instant::now();
            for i in 0..per_run {
                cdf.record(samples[i % DRAWS]);
            }
            rounds.push(t0.elapsed().as_nanos() as f64 / per_run as f64);
            black_box(&cdf);
        }
        median(&mut rounds)
    });
    m.set("simcore.cdf_record_ns", cdf_ns);

    // One server's arrive + depart with n_domains per-domain counters.
    let mut server =
        WebServer::new(0, plan.absolute(0), n_domains, SimTime::ZERO).expect("valid capacity");
    let (mut t, mut j) = (0.0, 0usize);
    let server_ns = timed(spans, "server.WebServer::arrive+depart", 10_000, BUDGET_S, || {
        t += 1e-3;
        let now = SimTime::from_secs(t);
        let hit = Hit { client: j, domain: domains[j % DRAWS], last_of_page: false };
        server.arrive(hit, now);
        black_box(server.depart(now));
        j += 1;
    });
    m.set("server.arrive_depart_ns", server_ns);

    // Name-server cache lookups (insert on a miss) at the run's pace.
    let mut cache = NsCache::new(n_domains, MinTtlBehavior::Cooperative);
    let dt = span_s * runs / lookups.max(1) as f64;
    let (mut t, mut j) = (0.0, 0usize);
    let lookup_ns =
        timed(spans, "nameserver.NsCache::lookup_with_outcome", 10_000, BUDGET_S, || {
            t += dt;
            let now = SimTime::from_secs(t);
            let d = domains[j % DRAWS];
            if !matches!(cache.lookup_with_outcome(d, now), NsLookup::Hit { .. }) {
                cache.insert(d, 0, cfg.ttl_const_s, now);
            }
            j += 1;
        });
    m.set("nameserver.lookup_ns", lookup_ns);

    // DNS decisions, each configuration's scheduler weighted by its own
    // decision count.
    let backlogs = vec![0.0; plan.num_servers()];
    let (mut weighted, mut weight) = (0.0, 0.0);
    for (c, o) in cfgs.iter().zip(&traced.obs) {
        let n = o.as_ref().map_or(0, |o| o.dns_decisions) as f64;
        let mut sched = DnsScheduler::new(
            c.algorithm,
            &plan,
            HiddenLoadEstimator::new(c.estimator, workload.nominal_rates()),
            c.gamma(),
            c.ttl_const_s,
            c.normalize_ttl,
            rng(c.seed, "dns-policy"),
        );
        let mut j = 0usize;
        let ns = timed(spans, "core.DnsScheduler::resolve", 1_000, BUDGET_S / runs, || {
            black_box(sched.resolve(domains[j % DRAWS], SimTime::from_secs(j as f64), &backlogs));
            j += 1;
        });
        weighted += n.max(1.0) * ns;
        weight += n.max(1.0);
    }
    let resolve_ns = weighted / weight;
    m.set("core.resolve_ns", resolve_ns);
    m.set("core.ingest_ns", ingest_ns(cfg, workload.nominal_rates(), &plan, spans));

    let attributed_ns = events as f64 * hold_ns
        + arrivals as f64 * server_ns
        + lookups as f64 * lookup_ns
        + decisions as f64 * resolve_ns
        + pages as f64 * cdf_ns;
    let run_s = m.get("core.world_run_s");
    m.set("core.attributed_frac", attributed_ns * 1e-9 / run_s);
}

/// `DnsScheduler::ingest` of one collection with the live estimator (EMA)
/// at the workload's domain count.
fn ingest_ns(
    cfg: &SimConfig,
    weights: &[f64],
    plan: &geodns_server::CapacityPlan,
    spans: &mut Spans,
) -> f64 {
    let kind = EstimatorKind::Measured { collect_interval_s: 1.0, ema_alpha: 0.25 };
    let mut sched = DnsScheduler::new(
        cfg.algorithm,
        plan,
        HiddenLoadEstimator::new(kind, weights),
        cfg.gamma(),
        cfg.ttl_const_s,
        cfg.normalize_ttl,
        rng(cfg.seed, "replay-ingest"),
    );
    ingest_replay(&mut sched, weights, spans)
}

fn ingest_replay(sched: &mut DnsScheduler, weights: &[f64], spans: &mut Spans) -> f64 {
    let total: f64 = weights.iter().sum();
    let counts: Vec<u64> = weights.iter().map(|w| (w / total * 1e5).round() as u64 + 1).collect();
    timed(spans, "core.DnsScheduler::ingest", 4, BUDGET_S, || {
        black_box(sched.ingest(&counts, 1.0));
    })
}

/// Layer numbers for the daemon workloads: the daemon's serving call, the
/// generator's encode and validate steps, and the scheduler underneath.
pub fn dns(kind: dns::Kind, seed: u64, m: &mut Metrics, spans: &mut Spans) {
    let declined = if kind == dns::Kind::Control { dns::DECLINED_SHARE } else { 0.0 };
    let zipf = ZipfAlias::new(dns::DOMAINS, 1.0).expect("valid Zipf parameters");
    let coin = Uniform::new(0.0, 1.0).expect("valid range");
    let mut r = rng(seed, "replay-mix");
    let mut templates = dns::templates();
    let mix: Vec<(u8, Ask, Vec<u8>)> = (0..DRAWS)
        .map(|i| {
            let d = zipf.sample(&mut r) as u8;
            let ask = match (coin.sample(&mut r) < declined, coin.sample(&mut r) < 0.5) {
                (false, _) => Ask::Site,
                (true, true) => Ask::Missing,
                (true, false) => Ask::Foreign,
            };
            let t = &mut templates[ask as usize];
            t.header.id = i as u16;
            (d, ask, t.to_bytes())
        })
        .collect();

    // The daemon's serving call on the workload's query mix.
    let mut server = dns::shard(kind, seed).expect("the shard built in the measured run");
    let mut out = Vec::with_capacity(512);
    let mut j = 0usize;
    let handle_ns = timed(spans, "wire.AuthoritativeServer::handle_into", 10_000, BUDGET_S, || {
        let (d, _, q) = &mix[j % DRAWS];
        black_box(server.handle_into(q, [127, 0, *d, 1], j as f64 * 1e-6, &mut out).ok());
        j += 1;
    });
    m.set("wire.handle_ns", handle_ns);

    // The generator's per-query staging: encode into the send arena.
    let mut tx = SendBatch::new(dns::WINDOW, 512);
    let peer = std::net::SocketAddr::from(([127, 0, 0, 1], 53));
    let mut j = 0u16;
    m.set(
        "wire.encode_ns",
        timed(spans, "wire.Message::write_bytes", 10_000, BUDGET_S, || {
            if tx.is_full() {
                tx.clear();
            }
            templates[0].header.id = j;
            templates[0].write_bytes(tx.buffer());
            tx.commit(peer);
            j = j.wrapping_add(1);
        }),
    );

    // The wire layer's full parse, and the generator's own per-answer
    // validation (a byte compare for fast-path answers), on the daemon's
    // answers.
    let answers: Vec<Vec<u8>> = mix
        .iter()
        .enumerate()
        .map(|(i, (d, _, q))| {
            let mut out = Vec::new();
            server.handle_into(q, [127, 0, *d, 1], i as f64 * 1e-6, &mut out).ok();
            out
        })
        .collect();
    let mut j = 0usize;
    m.set(
        "wire.parse_ns",
        timed(spans, "wire.Message::parse", 10_000, BUDGET_S, || {
            black_box(Message::parse(&answers[j % DRAWS]).ok());
            j += 1;
        }),
    );
    let bytes = templates.map(|t| t.to_bytes());
    let addrs = dns::server_addrs();
    let mut j = 0usize;
    m.set(
        "bench.validate_ns",
        timed(spans, "bench.valid_answer", 10_000, BUDGET_S, || {
            let (_, ask, _) = &mix[j % DRAWS];
            let ok = dns::valid_answer(
                &answers[j % DRAWS],
                (j % DRAWS) as u16,
                *ask,
                &bytes[*ask as usize],
                &addrs,
            );
            black_box(ok);
            j += 1;
        }),
    );

    // The scheduler under the daemon, and one live-estimator collection.
    let (est, weights) = dns::estimator(kind);
    let mut sched = dns::scheduler(est, &weights, rng(seed, "replay-resolve"));
    let backlogs = vec![0.0; addrs.len()];
    let mut j = 0usize;
    m.set(
        "core.resolve_ns",
        timed(spans, "core.DnsScheduler::resolve", 10_000, BUDGET_S, || {
            let d = usize::from(mix[j % DRAWS].0);
            black_box(sched.resolve(d, SimTime::from_secs(j as f64 * 1e-6), &backlogs));
            j += 1;
        }),
    );
    let live = EstimatorKind::Measured { collect_interval_s: 0.1, ema_alpha: 0.25 };
    let shares = dns::zipf_shares();
    let mut sched = dns::scheduler(live, &shares, rng(seed, "replay-ingest"));
    m.set("core.ingest_ns", ingest_replay(&mut sched, &shares, spans));
}
