//! Micro-benchmarks for the random-variate samplers — the workload model
//! draws millions of these per run. `GEODNS_QUICK=1` / `--quick` shortens
//! the timing windows.

use geodns_bench::MicroBench;
use geodns_simcore::dist::{Discrete, DiscreteUniform, Distribution, Exponential, Geometric, Zipf};
use geodns_simcore::RngStreams;

const DRAWS: u64 = 10_000;

fn bench_samplers(bench: &mut MicroBench) {
    let exp = Exponential::with_mean(15.0);
    let mut rng = RngStreams::new(1).stream("exp");
    bench.time("distributions/exponential", DRAWS, || {
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += exp.sample(&mut rng);
        }
        acc
    });

    let hits = DiscreteUniform::new(5, 15).unwrap();
    let mut rng = RngStreams::new(2).stream("du");
    bench.time("distributions/discrete_uniform", DRAWS, || {
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            acc += hits.sample(&mut rng);
        }
        acc
    });

    let pages = Geometric::with_mean(20.0).unwrap();
    let mut rng = RngStreams::new(3).stream("geo");
    bench.time("distributions/geometric", DRAWS, || {
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            acc += pages.sample(&mut rng);
        }
        acc
    });

    let zipf = Zipf::new(100, 1.0).unwrap();
    let mut rng = RngStreams::new(4).stream("zipf");
    bench.time("distributions/zipf_alias_k100", DRAWS, || {
        let mut acc = 0usize;
        for _ in 0..DRAWS {
            acc += zipf.sample(&mut rng);
        }
        acc
    });

    let weights: Vec<f64> = (1..=1000).map(|i| 1.0 / f64::from(i)).collect();
    let discrete = Discrete::from_weights(&weights).unwrap();
    let mut rng = RngStreams::new(5).stream("alias");
    bench.time("distributions/alias_k1000", DRAWS, || {
        let mut acc = 0usize;
        for _ in 0..DRAWS {
            acc += discrete.sample(&mut rng);
        }
        acc
    });
}

fn bench_construction(bench: &mut MicroBench) {
    let weights: Vec<f64> = (1..=1000).map(|i| 1.0 / f64::from(i)).collect();
    bench.time("alias_table_build_k1000", 1, || Discrete::from_weights(&weights).unwrap());
}

fn main() {
    let mut bench = MicroBench::new("micro_distributions");
    bench_samplers(&mut bench);
    bench_construction(&mut bench);
    bench.finish();
}
