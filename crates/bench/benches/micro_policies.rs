//! Micro-benchmarks for the DNS decision path: policy selection and full
//! scheduler resolution. The paper stresses adaptive TTL's "low
//! computational complexity" — these benches quantify it.
//! `GEODNS_QUICK=1` / `--quick` shortens the timing windows.

use geodns_bench::MicroBench;
use geodns_core::{
    Algorithm, DnsScheduler, EstimatorKind, HiddenLoadEstimator, PolicyKind, SchedCtx,
};
use geodns_server::{CapacityPlan, HeterogeneityLevel};
use geodns_simcore::{RngStreams, SimTime};

const DECISIONS: u64 = 10_000;

fn bench_select(bench: &mut MicroBench) {
    let plan = CapacityPlan::from_level(HeterogeneityLevel::H35, 500.0);
    let weights: Vec<f64> = (0..20).map(|i| 100.0 / (i + 1) as f64).collect();
    let available = vec![true; 7];
    let backlogs = vec![0.0; 7];

    for kind in [
        PolicyKind::Rr,
        PolicyKind::Rr2,
        PolicyKind::Prr,
        PolicyKind::Prr2,
        PolicyKind::Dal,
        PolicyKind::Mrl,
        PolicyKind::LeastLoaded,
    ] {
        let mut policy = kind.build(7, 2, 20);
        let mut rng = RngStreams::new(9).stream("bench");
        bench.time(&format!("policy_select/{}", kind.paper_name()), DECISIONS, || {
            let mut acc = 0usize;
            for i in 0..DECISIONS {
                let ctx = SchedCtx {
                    domain: (i % 20) as usize,
                    class: (i % 2) as usize,
                    weights: &weights,
                    relative_caps: plan.relatives(),
                    capacities: plan.absolutes(),
                    available: &available,
                    backlogs: &backlogs,
                    now: SimTime::from_secs(i as f64),
                };
                let s = policy.select(&ctx, &mut rng);
                policy.assigned(s, 0.05, 240.0, ctx.now);
                acc += s;
            }
            acc
        });
    }
}

fn bench_resolve(bench: &mut MicroBench) {
    for algorithm in [Algorithm::rr(), Algorithm::drr2_ttl_s_k(), Algorithm::prr2_ttl_k()] {
        let plan = CapacityPlan::from_level(HeterogeneityLevel::H35, 500.0);
        let weights: Vec<f64> = (0..20).map(|i| 100.0 / (i + 1) as f64).collect();
        let est = HiddenLoadEstimator::new(EstimatorKind::Oracle, &weights);
        let rng = RngStreams::new(3).stream("dns");
        let mut dns = DnsScheduler::new(algorithm, &plan, est, 0.05, 240.0, true, rng);
        let backlogs = vec![0.0; 7];
        bench.time(&format!("scheduler_resolve/{}", algorithm.name()), DECISIONS, || {
            let mut acc = 0usize;
            for i in 0..DECISIONS {
                let (s, _) =
                    dns.resolve((i % 20) as usize, SimTime::from_secs(i as f64), &backlogs);
                acc += s;
            }
            acc
        });
    }
}

fn bench_rebuild(bench: &mut MicroBench) {
    let plan = CapacityPlan::from_level(HeterogeneityLevel::H35, 500.0);
    let weights = vec![1.0; 100];
    let est = HiddenLoadEstimator::new(
        EstimatorKind::Measured { collect_interval_s: 32.0, ema_alpha: 0.25 },
        &weights,
    );
    let rng = RngStreams::new(4).stream("dns");
    let mut dns = DnsScheduler::new(Algorithm::drr2_ttl_s_k(), &plan, est, 0.01, 240.0, true, rng);
    let counts: Vec<u64> = (0..100).map(|i| 1000 / (i + 1)).collect();
    bench.time("scheduler_ingest_rebuild_k100", 1, || dns.ingest(&counts, 32.0));
}

fn main() {
    let mut bench = MicroBench::new("micro_policies");
    bench_select(&mut bench);
    bench_resolve(&mut bench);
    bench_rebuild(&mut bench);
    bench.finish();
}
