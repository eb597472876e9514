//! The two daemon workloads. `geodnsd` runs in-process (`Daemon::spawn`,
//! one batched worker) and one generator thread drives it over loopback
//! from per-domain source addresses, the only vantage a client of a real
//! authoritative server has.
//!
//! Every thread of a daemon workload runs on one CPU, so the workload asks
//! for no more CPU than a simulator does. The worker and the generator run
//! under `SCHED_BATCH`, so a wake-up never preempts the running thread:
//! the generator sleeps in `poll` while it awaits an answer and can send
//! nothing, the worker then drains its socket, and they take turns in whole
//! batches. With nothing awaited the generator spins until its next query
//! is due, so the CPU never goes idle. With the two on separate CPUs, or
//! with wake-ups free to preempt, the rate and latency moved by a third
//! from run to run (see README.md).
//!
//! * `dns_query` — closed loop: [`WINDOW`] queries in flight, refilled
//!   [`GROUP`] at a time from one Zipf-drawn domain as answers come back.
//!   Every query takes the daemon's fast path, so this measures the
//!   capacity of one CPU shared by the daemon and its client.
//! * `dns_control` — open loop at [`OFFERED_QPS`], at which the worker is
//!   busy about a fifth of the time on a 2-vCPU x86-64 box and answers
//!   nearly every query before the next is due, with the live §3
//!   estimation loop on, a GDNSCTL1 `alarm`/`normal`/`backlogs` write every
//!   [`CTL_PERIOD`], and a [`DECLINED_SHARE`] of queries the fast path
//!   declines (NXDOMAIN and out-of-zone).

use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use geodns_core::{
    Algorithm, DnsScheduler, EstimatorKind, HeterogeneityLevel, HiddenLoadEstimator,
};
use geodns_server::CapacityPlan;
use geodns_simcore::dist::{Distribution, Uniform, ZipfAlias};
use geodns_simcore::{split_mix_64, RngStreams, StreamRng};
use geodns_wire::mmsg::{self, RecvBatch, SendBatch};
use geodns_wire::{
    AuthoritativeServer, ClientMap, Daemon, DaemonConfig, DaemonReport, IoMode, Message, Question,
    Rcode,
};

use crate::measure::{median, quantile, thread_schedstat, SchedStat, Spans};
use crate::{layers, sys};
use crate::{Args, Metrics, Outcome};

/// Client domains; domain `d` sends from `127.0.{d}.1`.
pub const DOMAINS: usize = 20;
/// Queries `dns_query` keeps in flight, and the daemon's batch size.
pub const WINDOW: usize = 32;
/// Queries `dns_query` sends per refill, all from one Zipf-drawn domain:
/// one `sendmmsg` per group instead of one per query.
const GROUP: usize = 8;
/// Offered load of `dns_control`, queries per second.
const OFFERED_QPS: f64 = 25_000.0;
/// Share of `dns_control` queries the fast path declines.
pub const DECLINED_SHARE: f64 = 1.0 / 32.0;
/// Cadence of `dns_control`'s GDNSCTL1 writes.
const CTL_PERIOD: Duration = Duration::from_millis(10);
/// How often the daemon's collector merges per-domain counts.
const COLLECT_INTERVAL: Duration = Duration::from_millis(100);
/// Largest allowed gap between a learned weight and its offered Zipf share
/// at the end of a `dns_control` pass.
const WEIGHT_TOL: f64 = 0.02;
/// Most `dns_control` queries in flight at once. A query that comes due
/// while the cap is reached waits, and its latency still runs from its due
/// time; the cap keeps a stalled daemon's socket queue (about 270 small
/// datagrams at the default 208 KiB receive buffer) from overflowing.
const MAX_OUTSTANDING: u64 = 128;
/// Longest the generator sleeps waiting for an answer before it looks for
/// lost queries.
const IDLE_WAIT: Duration = Duration::from_millis(50);
/// How long an answer may take before its query counts as lost.
const TIMEOUT: Duration = Duration::from_secs(1);

const SITE: &str = "www.example.org";
const ZONE: &str = "example.org";
/// In the zone but not the site: answered NXDOMAIN by the slow path.
const NX_NAME: &str = "missing.example.org";
/// Outside the zone: answered REFUSED by the slow path.
const FOREIGN_NAME: &str = "www.example.net";

/// The CPU every thread of a daemon workload runs on.
const WORKER_CPU: usize = 0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Control,
}

/// What a query asks for, and so which answer is correct.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    Site,
    Missing,
    Foreign,
}

impl Ask {
    fn name(self) -> &'static str {
        match self {
            Ask::Site => SITE,
            Ask::Missing => NX_NAME,
            Ask::Foreign => FOREIGN_NAME,
        }
    }
}

/// Sizes of one invocation.
#[derive(Clone, Copy)]
struct Sizes {
    unit_queries: usize,
    warmup_queries: usize,
    /// Timed spawns per `setup_s` batch.
    setup_spawns: usize,
    /// Untimed spawns that open each batch: the first spawns of a process
    /// run several times slower than later ones.
    setup_warmup: usize,
}

impl Sizes {
    fn new(tiny: bool) -> Self {
        if tiny {
            Sizes { unit_queries: 2_048, warmup_queries: 1_024, setup_spawns: 3, setup_warmup: 1 }
        } else {
            Sizes {
                unit_queries: 65_536,
                warmup_queries: 32_768,
                setup_spawns: 24,
                setup_warmup: 8,
            }
        }
    }
}

/// The Web servers' A records, `S_1` first.
pub fn server_addrs() -> Vec<[u8; 4]> {
    (0..7u8).map(|i| [192, 0, 2, 10 + i]).collect()
}

/// The estimator each workload's daemon runs: `dns_query` is spoon-fed
/// the offered Zipf shares, `dns_control` starts uniform and learns them.
pub fn estimator(kind: Kind) -> (EstimatorKind, Vec<f64>) {
    match kind {
        Kind::Query => (EstimatorKind::Oracle, zipf_shares()),
        Kind::Control => (
            EstimatorKind::Measured {
                collect_interval_s: COLLECT_INTERVAL.as_secs_f64(),
                ema_alpha: 0.25,
            },
            vec![1.0; DOMAINS],
        ),
    }
}

/// The offered per-domain shares (pure Zipf over [`DOMAINS`]).
pub fn zipf_shares() -> Vec<f64> {
    let zipf = ZipfAlias::new(DOMAINS, 1.0).expect("valid Zipf parameters");
    (0..DOMAINS).map(|d| zipf.prob(d)).collect()
}

/// The scheduler every daemon shard and every replay runs: DRR2-TTL/S_K
/// over 7 servers at H35, γ = 1/K.
pub fn scheduler(kind: EstimatorKind, weights: &[f64], rng: StreamRng) -> DnsScheduler {
    let plan = CapacityPlan::from_level(HeterogeneityLevel::H35, 500.0);
    DnsScheduler::new(
        Algorithm::drr2_ttl_s_k(),
        &plan,
        HiddenLoadEstimator::new(kind, weights),
        1.0 / weights.len() as f64,
        240.0,
        true,
        rng,
    )
}

/// One daemon shard for `kind`.
pub fn shard(kind: Kind, seed: u64) -> Result<AuthoritativeServer, String> {
    let (est, weights) = estimator(kind);
    let sched = scheduler(est, &weights, RngStreams::new(seed).stream("perfbench-dns"));
    let mut clients = ClientMap::new();
    for d in 0..DOMAINS {
        clients.add_prefix([127, 0, d as u8, 0], 24, d)?;
    }
    AuthoritativeServer::new(
        SITE.parse().map_err(|e| format!("{e:?}"))?,
        ZONE.parse().map_err(|e| format!("{e:?}"))?,
        server_addrs(),
        sched,
        clients,
        0,
    )
}

fn daemon_config(kind: Kind) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(SocketAddr::from(([127, 0, 0, 1], 0)));
    cfg.io_mode = IoMode::Batched;
    cfg.batch = WINDOW;
    cfg.pin = Some(WORKER_CPU);
    if kind == Kind::Control {
        cfg.collect_interval = Some(COLLECT_INTERVAL);
    }
    cfg
}

/// Checks one answer to query `id` asking `ask`. A site answer must be
/// NOERROR with one A record naming a plan server and a TTL of at least
/// one second; the other two must carry their rcode and no answer.
///
/// The daemon's fast-path layout is checked byte by byte; anything else
/// goes through the full `Message::parse`.
pub fn valid_answer(resp: &[u8], id: u16, ask: Ask, query: &[u8], addrs: &[[u8; 4]]) -> bool {
    if ask == Ask::Site {
        let q = query.len();
        let name = &query[12..q - 4];
        if resp.len() == q + name.len() + 14 {
            let a = q + name.len();
            let ttl = u32::from_be_bytes([resp[a + 4], resp[a + 5], resp[a + 6], resp[a + 7]]);
            if resp[0..2] == id.to_be_bytes()
                && resp[2] & 0x80 != 0
                && resp[3] & 0x0F == 0
                && resp[4..12] == [0, 1, 0, 1, 0, 0, 0, 0]
                && resp[12..q] == query[12..q]
                && &resp[q..a] == name
                && resp[a..a + 4] == [0, 1, 0, 1]
                && resp[a + 8..a + 10] == [0, 4]
            {
                return ttl >= 1 && addrs.iter().any(|s| resp[a + 10..a + 14] == *s);
            }
        }
    }
    let Ok(m) = Message::parse(resp) else {
        return false;
    };
    let header_ok = m.header.id == id && m.header.response;
    match ask {
        Ask::Site => {
            header_ok
                && m.header.rcode == Rcode::NoError
                && m.answers.len() == 1
                && m.answers[0].ttl >= 1
                && m.answers[0].a_addr().is_some_and(|a| addrs.contains(&a))
        }
        Ask::Missing => header_ok && m.header.rcode == Rcode::NxDomain && m.answers.is_empty(),
        Ask::Foreign => header_ok && m.header.rcode == Rcode::Refused && m.answers.is_empty(),
    }
}

/// Per-domain non-blocking sockets bound to `127.0.{d}.1` and connected
/// to the daemon.
fn domain_sockets(target: SocketAddr) -> Result<Vec<UdpSocket>, String> {
    (0..DOMAINS)
        .map(|d| {
            let s = UdpSocket::bind(SocketAddr::from(([127, 0, d as u8, 1], 0)))
                .map_err(|e| format!("bind 127.0.{d}.1: {e}"))?;
            s.connect(target).map_err(|e| format!("connect {target}: {e}"))?;
            s.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
            Ok(s)
        })
        .collect()
}

/// Query templates indexed by [`Ask`]; the generator sets the id and
/// encodes each query with `Message::write_bytes`.
pub fn templates() -> [Message; 3] {
    [Ask::Site, Ask::Missing, Ask::Foreign].map(|a| Message::query(0, Question::a(a.name())))
}

/// Failure accounting of one pass.
#[derive(Default)]
struct Tally {
    sent: u64,
    answered: u64,
    timeouts: u64,
    malformed: u64,
    send_errors: u64,
    ctl_sent: u64,
    /// Control writes never acked.
    ctl_lost: u64,
    /// Control writes acked with anything but `GDNSCTL1 ok`.
    ctl_bad: u64,
    /// Whether the pass stopped sending at its deadline.
    cut: bool,
}

/// One timed unit: a fixed number of queries.
struct Unit {
    wall_s: f64,
    answered: u64,
    lat_p50_us: f64,
    lat_p90_us: f64,
    lat_p99_us: f64,
    late_p99_us: f64,
}

/// Syscall timing gathered by the traced pass.
#[derive(Default)]
struct Syscalls {
    send_ns: f64,
    sent: u64,
    recv_ns: f64,
    recv_calls: u64,
    received: u64,
}

/// What the generator thread hands back.
struct GenOut {
    units: Vec<Unit>,
    tally: Tally,
    ctl_ack_us: Vec<f64>,
    sys: Syscalls,
    gen: SchedStat,
    worker: SchedStat,
    collector: SchedStat,
    spans: Option<Spans>,
}

/// One measured pass: spawn, warm up, run the units, shut down.
struct Pass {
    gen: GenOut,
    report: DaemonReport,
    main: SchedStat,
    errors: Vec<String>,
    failed: u64,
    attempted: u64,
}

fn run_pass(kind: Kind, args: &Args, seconds: f64, traced: bool) -> Result<Pass, String> {
    let sizes = Sizes::new(args.tiny);
    let seed = split_mix_64(args.seed ^ 0x444E_5300);
    let handle = Daemon::spawn(&daemon_config(kind), vec![shard(kind, seed)?])?;
    if handle.io_mode() != IoMode::Batched {
        let mode = handle.io_mode();
        let _ = handle.shutdown();
        return Err(format!("daemon degraded to {mode} I/O; the benchmark needs batched"));
    }
    let target = handle.local_addr();
    // A new thread takes its name once it first runs, so look until the
    // worker has.
    for _ in 0..1000 {
        if sys::batch_threads("geodnsd-worker-0") > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let main0 = SchedStat::this_thread();
    let gen = std::thread::Builder::new()
        .name("perfbench-gen".into())
        .spawn(move || -> Result<GenOut, String> {
            let _ = geodns_wire::affinity::pin_to_core(WORKER_CPU);
            sys::batch_this_thread();
            drive(target, seed, Pacing::of(kind), seconds, sizes, traced)
        })
        .map_err(|e| format!("spawn generator: {e}"))?;
    let gen = gen.join().map_err(|_| "generator thread panicked".to_string());
    let main = SchedStat::this_thread().since(main0);
    let report = handle.shutdown();
    let gen = gen??;

    let mut errors = Vec::new();
    let mut failed = gen.tally.timeouts
        + gen.tally.malformed
        + gen.tally.send_errors
        + gen.tally.ctl_lost
        + gen.tally.ctl_bad;
    if gen.tally.malformed > 0 {
        errors.push(format!("{} malformed or mismatched answers", gen.tally.malformed));
    }
    if gen.tally.ctl_bad > 0 {
        errors.push(format!("{} control writes acked with an error", gen.tally.ctl_bad));
    }
    if gen.tally.cut {
        errors.push(format!("the pass was cut at its deadline after {} queries", gen.tally.sent));
        failed += 1;
    }
    let t = report.totals();
    if t.received != t.answered + t.ctl + t.dropped {
        errors.push(format!(
            "daemon accounting broken: received {} != answered {} + ctl {} + dropped {}",
            t.received, t.answered, t.ctl, t.dropped
        ));
        failed += 1;
    }
    if t.received != gen.tally.sent + gen.tally.ctl_sent {
        // Datagrams lost ahead of the daemon show up as rx_drops; any
        // other gap means the daemon or the generator miscounted.
        let gap = (gen.tally.sent + gen.tally.ctl_sent).abs_diff(t.received);
        if gap != t.rx_drops {
            errors.push(format!(
                "daemon received {} datagrams but the generator sent {} (rx_drops {})",
                t.received,
                gen.tally.sent + gen.tally.ctl_sent,
                t.rx_drops
            ));
        }
    }
    failed += t.rx_drops + t.tx_errors + t.dropped;
    if t.dropped > 0 {
        errors.push(format!("daemon dropped {} datagrams as unanswerable", t.dropped));
    }
    if kind == Kind::Control {
        let learned = &report.workers[0].weights;
        let err =
            learned.iter().zip(zipf_shares()).map(|(l, z)| (l - z).abs()).fold(0.0_f64, f64::max);
        if learned.len() != DOMAINS || err > WEIGHT_TOL {
            errors.push(format!(
                "learned weights {learned:?} off the offered Zipf shares by {err:.4} \
                 (tolerance {WEIGHT_TOL})"
            ));
            failed += 1;
        }
    }
    let attempted = gen.tally.sent + gen.tally.ctl_sent;
    eprintln!(
        "perfbench: pass: sent {} answered {} timeouts {} malformed {} send_errors {} \
         ctl sent {} lost {} bad {}; daemon received {} answered {} ctl {} dropped {} rx_drops {} \
         tx_errors {}",
        gen.tally.sent,
        gen.tally.answered,
        gen.tally.timeouts,
        gen.tally.malformed,
        gen.tally.send_errors,
        gen.tally.ctl_sent,
        gen.tally.ctl_lost,
        gen.tally.ctl_bad,
        t.received,
        t.answered,
        t.ctl,
        t.dropped,
        t.rx_drops,
        t.tx_errors
    );
    Ok(Pass { gen, report, main, errors, failed, attempted })
}

/// How the generator paces its queries.
#[derive(Clone, Copy)]
struct Pacing {
    /// Offered queries per second (open loop), or `None` for a closed
    /// loop that sends a new query as soon as one is retired.
    rate: Option<f64>,
    /// Most queries in flight at once.
    cap: u64,
    /// Consecutive queries sent from one Zipf-drawn domain; the closed
    /// loop refills only when a whole group fits in the window.
    group: usize,
    /// Share of queries the fast path declines.
    declined: f64,
    /// Whether to write GDNSCTL1 control messages every [`CTL_PERIOD`].
    control: bool,
}

impl Pacing {
    fn of(kind: Kind) -> Self {
        match kind {
            Kind::Query => Pacing {
                rate: None,
                cap: WINDOW as u64,
                group: GROUP,
                declined: 0.0,
                control: false,
            },
            Kind::Control => Pacing {
                rate: Some(OFFERED_QPS),
                cap: MAX_OUTSTANDING,
                group: 1,
                declined: DECLINED_SHARE,
                control: true,
            },
        }
    }
}

/// A query sent and not yet retired.
#[derive(Clone, Copy)]
struct Slot {
    live: bool,
    ask: Ask,
    domain: u8,
    /// Unit index, or `u32::MAX` for warm-up queries.
    unit: u32,
    /// When the query was due: its schedule slot in the open loop, its
    /// commit into the send batch in the closed loop.
    due: Instant,
    /// When the query was committed into its send batch.
    sent: Instant,
}

impl Slot {
    /// Retires this query as lost.
    fn lose(
        &mut self,
        outstanding: &mut [u32; DOMAINS],
        in_flight: &mut u64,
        units: &mut [UnitLog],
        sizes: &Sizes,
        tally: &mut Tally,
    ) {
        self.live = false;
        tally.timeouts += 1;
        outstanding[usize::from(self.domain)] -= 1;
        *in_flight -= 1;
        if self.unit != u32::MAX {
            units[self.unit as usize].retire(sizes.unit_queries);
        }
    }
}

/// Per-unit bookkeeping; the sample vectors are freed as soon as every
/// query of the unit is retired, so memory does not grow with run length.
struct UnitLog {
    first_due: Instant,
    last_answer: Option<Instant>,
    answered: u64,
    retired: usize,
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    done: Option<Unit>,
}

impl UnitLog {
    fn finish(&mut self) -> Unit {
        let late = &mut self.late_us;
        let unit = Unit {
            wall_s: self.last_answer.map_or(f64::NAN, |t| (t - self.first_due).as_secs_f64()),
            answered: self.answered,
            lat_p50_us: quantile(&mut self.lat_us, 0.5),
            lat_p90_us: quantile(&mut self.lat_us, 0.9),
            lat_p99_us: quantile(&mut self.lat_us, 0.99),
            late_p99_us: if late.is_empty() { 0.0 } else { quantile(late, 0.99) },
        };
        self.lat_us = Vec::new();
        self.late_us = Vec::new();
        unit
    }

    /// Counts one query of this unit as retired (answered or lost).
    fn retire(&mut self, unit_queries: usize) {
        self.retired += 1;
        if self.retired == unit_queries {
            self.done = Some(self.finish());
        }
    }
}

/// The generator. Each query goes out from its Zipf-drawn domain's socket;
/// each loop turn sends what it may (queries that have come due in the
/// open loop, replacements for retired ones in the closed loop, never more
/// than `pacing.cap` in flight), grouped into one batch per domain, writes
/// a control message when one is due, and drains every socket with
/// answers outstanding. A turn that receives nothing while an answer is
/// awaited and nothing can be sent ends in a sleep until an answer arrives;
/// otherwise the loop spins.
///
/// Latency runs from a query's due time to the return of the receive call
/// that carried its answer, so a stall of either side shows up in it; in
/// the open loop, how late the generator itself sent is reported apart.
///
/// A query unanswered after [`TIMEOUT`] is retired as lost, so lost answers
/// never hold the in-flight cap. A pass still sending at its deadline,
/// well past `seconds`, stops and is marked cut.
fn drive(
    target: SocketAddr,
    seed: u64,
    pacing: Pacing,
    seconds: f64,
    sizes: Sizes,
    traced: bool,
) -> Result<GenOut, String> {
    let sockets = domain_sockets(target)?;
    let ctl = UdpSocket::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
        .map_err(|e| format!("bind control socket: {e}"))?;
    ctl.connect(target).map_err(|e| format!("connect control socket: {e}"))?;
    ctl.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
    let addrs = server_addrs();
    let mut templates = templates();
    let bytes = templates.clone().map(|t| t.to_bytes());
    let zipf = ZipfAlias::new(DOMAINS, 1.0).map_err(|e| e.to_string())?;
    let coin = Uniform::new(0.0, 1.0).map_err(|e| e.to_string())?;
    let mut rng = RngStreams::new(seed).stream("perfbench-gen");
    let mut backlog_rng = RngStreams::new(seed).stream("perfbench-backlogs");
    let mut tx: Vec<SendBatch> = (0..DOMAINS).map(|_| SendBatch::new(WINDOW, 512)).collect();
    let mut rx = RecvBatch::new(WINDOW, 512);
    let mut outstanding = [0u32; DOMAINS];
    let mut slots = vec![
        Slot {
            live: false,
            ask: Ask::Site,
            domain: 0,
            unit: 0,
            due: Instant::now(),
            sent: Instant::now(),
        };
        1 << 16
    ];
    let mut tally = Tally::default();
    let mut sys = Syscalls::default();
    let mut spans = traced.then(Spans::new);

    // The open loop's query count is fixed by its rate; the closed loop
    // adds units while the time budget lasts.
    let mut total = match pacing.rate {
        Some(rate) => {
            sizes.warmup_queries
                + ((seconds * rate) as usize / sizes.unit_queries).max(1) * sizes.unit_queries
        }
        None => usize::MAX,
    };
    let start = Instant::now() + Duration::from_millis(1);
    let give_up = start + Duration::from_secs_f64(3.0 * seconds) + 2 * TIMEOUT;
    let period = pacing.rate.map(|r| Duration::from_secs_f64(1.0 / r));
    let due = |k: usize| period.map(|p| start + p * k as u32);
    let mut units: Vec<UnitLog> = Vec::new();

    let mut ctl_seq = 0u64;
    let mut ctl_next = start;
    let mut ctl_pending: Option<Instant> = None;
    let mut ctl_ack_us = Vec::new();
    let mut ctl_buf = [0u8; 256];

    let mut k = 0usize;
    // No query before this one can still be live.
    let mut oldest = 0usize;
    let mut in_flight = 0u64;
    let mut drain_deadline: Option<Instant> = None;
    let mut timing: Option<Instant> = None;
    let (mut gen0, mut worker0, mut collector0) =
        (SchedStat::default(), SchedStat::default(), SchedStat::default());
    let mut span = spans.as_mut().map(|s| s.begin("dns.warmup", None));
    let mut domain = 0;

    loop {
        let now = Instant::now();
        let received = tally.answered + tally.malformed;
        if k < total && now >= give_up {
            tally.cut = true;
            total = k;
        }
        // Retire queries unanswered for longer than TIMEOUT, oldest first.
        // Those more than 2^16 back lost their slot to a newer query with
        // the same id, which retired them.
        oldest = oldest.max(k.saturating_sub(1 << 16));
        while oldest < k {
            let slot = &mut slots[usize::from(oldest as u16)];
            if slot.live {
                if now - slot.sent <= TIMEOUT {
                    break;
                }
                slot.lose(&mut outstanding, &mut in_flight, &mut units, &sizes, &mut tally);
            }
            oldest += 1;
        }
        // Send what may go out now.
        let mut dirty = 0u32;
        while k < total
            && in_flight + (pacing.group - k % pacing.group) as u64 <= pacing.cap
            && due(k).is_none_or(|d| d <= now)
        {
            if k >= sizes.warmup_queries
                && (k - sizes.warmup_queries).is_multiple_of(sizes.unit_queries)
            {
                let began = *timing.get_or_insert_with(|| {
                    gen0 = SchedStat::this_thread();
                    worker0 = thread_schedstat("geodnsd-worker-0");
                    collector0 = thread_schedstat("geodnsd-collector");
                    sys = Syscalls::default();
                    if let (Some(s), Some(id)) = (spans.as_mut(), span) {
                        s.end(id);
                        span = Some(s.begin("dns.timed", None));
                    }
                    now
                });
                let done = units.len() as f64;
                if pacing.rate.is_none()
                    && done > 0.0
                    && (now - began).as_secs_f64() * (done + 1.0) / done > seconds
                {
                    total = k;
                    break;
                }
                units.push(UnitLog {
                    first_due: due(k).unwrap_or(now),
                    last_answer: None,
                    answered: 0,
                    retired: 0,
                    lat_us: Vec::with_capacity(sizes.unit_queries),
                    late_us: Vec::new(),
                    done: None,
                });
            }
            if k.is_multiple_of(pacing.group) {
                domain = zipf.sample(&mut rng);
            }
            let ask = if pacing.declined > 0.0 && coin.sample(&mut rng) < pacing.declined {
                if coin.sample(&mut rng) < 0.5 {
                    Ask::Missing
                } else {
                    Ask::Foreign
                }
            } else {
                Ask::Site
            };
            let qid = k as u16;
            let slot = &mut slots[usize::from(qid)];
            if slot.live {
                // The id came round again with the old query unanswered.
                slot.lose(&mut outstanding, &mut in_flight, &mut units, &sizes, &mut tally);
            }
            let t = &mut templates[ask as usize];
            t.header.id = qid;
            if tx[domain].is_full() {
                flush(&sockets[domain], &mut tx[domain], &mut tally, &mut sys, traced);
            }
            t.write_bytes(tx[domain].buffer());
            tx[domain].commit(target);
            let committed = Instant::now();
            let due_k = due(k).unwrap_or(committed);
            let unit = if k < sizes.warmup_queries { u32::MAX } else { units.len() as u32 - 1 };
            *slot =
                Slot { live: true, ask, domain: domain as u8, unit, due: due_k, sent: committed };
            if unit != u32::MAX && pacing.rate.is_some() {
                units[unit as usize].late_us.push((committed - due_k).as_nanos() as f64 * 1e-3);
            }
            outstanding[domain] += 1;
            in_flight += 1;
            dirty |= 1 << domain;
            k += 1;
        }
        while dirty != 0 {
            let d = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            flush(&sockets[d], &mut tx[d], &mut tally, &mut sys, traced);
        }

        // One control write at a time, on a fixed cadence.
        if pacing.control && ctl_pending.is_none() && now >= ctl_next && k < total {
            let server = (ctl_seq / 3) as usize % addrs.len();
            ctl_seq += 1;
            let msg = match ctl_seq % 3 {
                1 => format!("GDNSCTL1 alarm {ctl_seq} {server}"),
                2 => format!("GDNSCTL1 normal {ctl_seq} {server}"),
                _ => {
                    let values: Vec<String> = (0..addrs.len())
                        .map(|_| format!("{:.3}", coin.sample(&mut backlog_rng)))
                        .collect();
                    format!("GDNSCTL1 backlogs {ctl_seq} {}", values.join(","))
                }
            };
            let sent_at = Instant::now();
            match ctl.send(msg.as_bytes()) {
                Ok(_) => {
                    tally.ctl_sent += 1;
                    ctl_pending = Some(sent_at);
                }
                Err(_) => tally.ctl_lost += 1,
            }
            ctl_next += CTL_PERIOD;
        }
        if let Some(sent_at) = ctl_pending {
            match ctl.recv(&mut ctl_buf) {
                Ok(n) => {
                    let at = Instant::now();
                    if &ctl_buf[..n] == b"GDNSCTL1 ok" {
                        if timing.is_some() {
                            ctl_ack_us.push((at - sent_at).as_nanos() as f64 * 1e-3);
                        }
                    } else {
                        tally.ctl_bad += 1;
                    }
                    ctl_pending = None;
                }
                Err(_) if sent_at.elapsed() > TIMEOUT => {
                    tally.ctl_lost += 1;
                    ctl_pending = None;
                }
                Err(_) => {}
            }
        }

        // Drain every socket with answers outstanding.
        for d in 0..DOMAINS {
            while outstanding[d] > 0 {
                let t0 = traced.then(Instant::now);
                let n = mmsg::recv_batch(&sockets[d], &mut rx).unwrap_or(0);
                let at = Instant::now();
                if let Some(t0) = t0 {
                    sys.recv_ns += (at - t0).as_nanos() as f64;
                    sys.recv_calls += 1;
                    sys.received += n as u64;
                }
                if n == 0 {
                    break;
                }
                for i in 0..n {
                    let (resp, _) = rx.datagram(i);
                    let rid =
                        if resp.len() >= 2 { u16::from_be_bytes([resp[0], resp[1]]) } else { 0 };
                    let slot = &mut slots[usize::from(rid)];
                    if !slot.live
                        || usize::from(slot.domain) != d
                        || !valid_answer(resp, rid, slot.ask, &bytes[slot.ask as usize], &addrs)
                    {
                        tally.malformed += 1;
                        continue;
                    }
                    slot.live = false;
                    outstanding[d] -= 1;
                    in_flight -= 1;
                    tally.answered += 1;
                    if slot.unit != u32::MAX {
                        let u = &mut units[slot.unit as usize];
                        u.answered += 1;
                        u.last_answer = Some(at);
                        u.lat_us.push((at - slot.due).as_nanos() as f64 * 1e-3);
                        u.retire(sizes.unit_queries);
                    }
                }
            }
        }

        // No answer came in, one is awaited, and no query can go out now:
        // sleep until an answer arrives, which hands the CPU to the worker.
        // With nothing awaited the loop spins until the next query is due;
        // a timed sleep would leave the CPU idle, to be woken out of a halt.
        if received == tally.answered + tally.malformed && (in_flight > 0 || ctl_pending.is_some())
        {
            let sendable = k < total
                && in_flight + (pacing.group - k % pacing.group) as u64 <= pacing.cap
                && due(k).is_none_or(|d| d <= Instant::now());
            if !sendable {
                let watched = sockets.iter().zip(outstanding).map(|(s, n)| (n > 0).then_some(s));
                let ctl_watch = std::iter::once(ctl_pending.map(|_| &ctl));
                sys::wait_readable(watched.chain(ctl_watch), IDLE_WAIT);
            }
        }
        if k >= total {
            if in_flight == 0 && ctl_pending.is_none() {
                break;
            }
            let deadline = *drain_deadline.get_or_insert(now + TIMEOUT);
            if now >= deadline {
                tally.timeouts += in_flight;
                if ctl_pending.is_some() {
                    tally.ctl_lost += 1;
                }
                break;
            }
        }
    }
    if let (Some(s), Some(id)) = (spans.as_mut(), span) {
        s.end(id);
        for u in &units {
            if let Some(last) = u.last_answer {
                s.record("dns.unit", Some(id), u.first_due, last);
            }
        }
    }
    let units =
        units.into_iter().map(|mut u| u.done.take().unwrap_or_else(|| u.finish())).collect();
    Ok(GenOut {
        units,
        tally,
        ctl_ack_us,
        sys,
        gen: SchedStat::this_thread().since(gen0),
        worker: thread_schedstat("geodnsd-worker-0").since(worker0),
        collector: thread_schedstat("geodnsd-collector").since(collector0),
        spans,
    })
}

fn flush(
    socket: &UdpSocket,
    tx: &mut SendBatch,
    tally: &mut Tally,
    sys: &mut Syscalls,
    traced: bool,
) {
    let t0 = traced.then(Instant::now);
    let out = mmsg::send_batch(socket, tx);
    if let Some(t0) = t0 {
        sys.send_ns += t0.elapsed().as_nanos() as f64;
        sys.sent += out.sent;
    }
    tally.sent += out.sent;
    tally.send_errors += out.errors;
}

/// One batch of `setup_s` samples: `Daemon::spawn` with its shard until
/// the first validated answer, timed once per spawn after the batch's
/// warm-up spawns. Spawn `first` onwards take their shard seeds from the
/// run's seed. Returns the spawns attempted and failed.
fn setup_batch(
    kind: Kind,
    args: &Args,
    first: usize,
    times: &mut Vec<f64>,
    errors: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let sizes = Sizes::new(args.tiny);
    let probe = UdpSocket::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
        .map_err(|e| format!("bind probe socket: {e}"))?;
    probe.set_read_timeout(Some(TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
    let query = templates()[0].to_bytes();
    let addrs = server_addrs();
    let mut buf = [0u8; 512];
    let mut failed = 0;
    let spawns = sizes.setup_warmup + sizes.setup_spawns;
    for i in first..first + spawns {
        let seed = split_mix_64(args.seed ^ i as u64);
        let t0 = Instant::now();
        let handle = Daemon::spawn(&daemon_config(kind), vec![shard(kind, seed)?])?;
        probe.send_to(&query, handle.local_addr()).map_err(|e| format!("probe send: {e}"))?;
        let got = probe.recv(&mut buf);
        let dt = t0.elapsed().as_secs_f64();
        let report = handle.shutdown();
        let t = report.totals();
        let mut ok = true;
        match got {
            Ok(n) if valid_answer(&buf[..n], 0, Ask::Site, &query, &addrs) => {
                if i - first >= sizes.setup_warmup {
                    times.push(dt);
                }
            }
            _ => {
                errors.push(format!("spawn {i}: no valid first answer"));
                ok = false;
            }
        }
        if t.received != t.answered + t.ctl + t.dropped {
            errors.push(format!("spawn {i}: daemon accounting broken"));
            ok = false;
        }
        failed += u64::from(!ok);
    }
    Ok((spawns as u64, failed))
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    match run_inner(kind, args) {
        Ok(o) => o,
        Err(e) => Outcome::broken(e),
    }
}

fn run_inner(kind: Kind, args: &Args) -> Result<Outcome, String> {
    // Threads inherit this CPU: the daemon's, the generator and the spawns'.
    let _ = geodns_wire::affinity::pin_to_core(WORKER_CPU);
    let mut out = Outcome::default();
    if !args.trace {
        // One batch of setup_s spawns before the pass and one after it, so
        // the median samples both ends of the run. More passes between
        // more batches made peak_rss_mib vary from run to run.
        let sizes = Sizes::new(args.tiny);
        let spawns = sizes.setup_warmup + sizes.setup_spawns;
        let mut setup = Vec::new();
        let mut errors = Vec::new();
        let (attempted, failed) = setup_batch(kind, args, 0, &mut setup, &mut errors)?;
        out.absorb(errors, attempted, failed);
        let pass = run_pass(kind, args, args.seconds, false)?;
        out.absorb(pass.errors, pass.attempted, pass.failed);
        let mut errors = Vec::new();
        let (attempted, failed) = setup_batch(kind, args, spawns, &mut setup, &mut errors)?;
        out.absorb(errors, attempted, failed);
        let mut m = Metrics::default();
        m.set("setup_s", median(&mut setup));
        unit_metrics(&pass.gen.units, &mut m);
        m.set("peak_rss_mib", crate::measure::peak_rss_mib()?);
        out.metrics = m;
        return Ok(out);
    }
    let base = run_pass(kind, args, args.seconds / 2.0, false)?;
    let traced = run_pass(kind, args, args.seconds / 2.0, true)?;
    let mut m = Metrics::default();
    let col = |units: &[Unit], f: &dyn Fn(&Unit) -> f64| {
        median(&mut units.iter().map(f).collect::<Vec<_>>())
    };
    let (b, g) = (&base.gen, traced.gen);
    m.set(
        "bench.trace_overhead_frac",
        col(&g.units, &|u| u.wall_s) / col(&b.units, &|u| u.wall_s) - 1.0,
    );
    m.set("lat_p90_us", col(&b.units, &|u| u.lat_p90_us));
    m.set("lat_p99_us", col(&b.units, &|u| u.lat_p99_us));
    m.set("gen_late_p99_us", col(&g.units, &|u| u.late_p99_us));
    if !g.ctl_ack_us.is_empty() {
        m.set("ctl_ack_p50_us", quantile(&mut g.ctl_ack_us.clone(), 0.5));
    }
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    m.set("gen.sendmmsg_ns", per(g.sys.send_ns, g.sys.sent));
    m.set("gen.recvmmsg_ns", per(g.sys.recv_ns, g.sys.received));
    m.set("gen.answers_per_recv", per(g.sys.received as f64, g.sys.recv_calls));
    m.set("gen.cpu_s", g.gen.cpu_s);
    m.set("gen.runq_wait_s", g.gen.runq_wait_s);
    m.set("daemon.worker_cpu_s", g.worker.cpu_s);
    m.set("daemon.worker_runq_wait_s", g.worker.runq_wait_s);
    m.set("daemon.collector_cpu_s", g.collector.cpu_s);
    m.set("bench.main_cpu_s", traced.main.cpu_s);
    m.set("bench.main_runq_wait_s", traced.main.runq_wait_s);
    let t = traced.report.totals();
    m.set("daemon.received", t.received as f64);
    m.set("daemon.answered", t.answered as f64);
    m.set("daemon.ctl", t.ctl as f64);
    m.set("daemon.dropped", t.dropped as f64);
    m.set("daemon.rx_drops", t.rx_drops as f64);
    m.set("daemon.tx_errors", t.tx_errors as f64);
    m.set("daemon.collections", traced.report.collections() as f64);
    m.set("core.dns_decisions", traced.report.dns_decisions() as f64);
    let mut spans = g.spans.unwrap_or_else(Spans::new);
    layers::dns(kind, args.seed, &mut m, &mut spans);
    // Share of the worker's CPU time that `handle_into` alone explains.
    let timed_answers: u64 = g.units.iter().map(|u| u.answered).sum();
    let handle_s = timed_answers as f64 * m.get("wire.handle_ns") * 1e-9;
    m.set("core.attributed_frac", handle_s / g.worker.cpu_s.max(1e-9));
    crate::write_spans(&spans, args);
    out.absorb(base.errors, base.attempted, base.failed);
    out.absorb(traced.errors, traced.attempted, traced.failed);
    out.metrics = m;
    Ok(out)
}

/// End-to-end metrics from a pass's units: medians over units, so one
/// unit disturbed by the box does not move the result.
fn unit_metrics(units: &[Unit], m: &mut Metrics) {
    let col = |f: &dyn Fn(&Unit) -> f64| median(&mut units.iter().map(f).collect::<Vec<_>>());
    m.set("wall_s", col(&|u| u.wall_s));
    m.set("ops_per_s", col(&|u| u.answered as f64 / u.wall_s));
    m.set("lat_p50_us", col(&|u| u.lat_p50_us));
}
