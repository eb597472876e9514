//! Property-based tests for the simulation substrate.

use geodns_simcore::dist::{
    Discrete, Distribution, Empirical, Exponential, Geometric, Uniform, Zipf, ZipfAlias,
};
use geodns_simcore::stats::{Cdf, Histogram, P2Quantile, Tally};
use geodns_simcore::{CalendarQueue, EventQueue, HeapQueue, QueueKind, RngStreams, SimTime};
use proptest::prelude::*;

/// One step of a random queue workload: push an event at the given offset
/// from the current maximum time, or pop.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Push(f64),
    Pop,
}

fn queue_ops(len: usize) -> impl Strategy<Value = Vec<QueueOp>> {
    // Mostly pushes with a wide mix of deltas: ties (0.0), short hops, and
    // far-future jumps that land in the overflow list; one pop in three.
    prop::collection::vec(
        (0u8..6, 0.0f64..50.0).prop_map(|(kind, x)| match kind {
            0 => QueueOp::Push(0.0),
            1 => QueueOp::Push(x),
            2 => QueueOp::Push(x * 100.0),
            3 => QueueOp::Push(x * 10_000.0),
            _ => QueueOp::Pop,
        }),
        1..len,
    )
}

proptest! {
    /// Random push/pop interleavings against a sorted-vec oracle: both
    /// queue kinds must agree with the oracle on every pop, for any mix of
    /// tie, near, and far-future times (the latter exercising the calendar
    /// overflow list and bucket-width recalibration).
    #[test]
    fn queues_match_sorted_vec_oracle(ops in queue_ops(300)) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        // Oracle: (time, seq) pairs kept sorted ascending; pop = remove(0).
        let mut oracle: Vec<(SimTime, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut high = SimTime::ZERO;

        for op in ops {
            match op {
                QueueOp::Push(delta) => {
                    // Anchor pushes at the highest time seen so the trace
                    // stays causal, the way an engine drives the queue.
                    let t = high + delta;
                    high = if t > high { t } else { high };
                    cal.push(t, seq);
                    heap.push(t, seq);
                    let at = oracle.partition_point(|&(ot, os)| (ot, os) < (t, seq));
                    oracle.insert(at, (t, seq));
                    seq += 1;
                }
                QueueOp::Pop => {
                    let expect = if oracle.is_empty() { None } else { Some(oracle.remove(0)) };
                    prop_assert_eq!(cal.pop(), expect, "calendar vs oracle");
                    prop_assert_eq!(heap.pop(), expect, "heap vs oracle");
                }
            }
        }
        // Drain: the full remaining order must match too.
        while let Some(expected) = (!oracle.is_empty()).then(|| oracle.remove(0)) {
            prop_assert_eq!(cal.pop(), Some(expected), "calendar drain");
            prop_assert_eq!(heap.pop(), Some(expected), "heap drain");
        }
        prop_assert_eq!(cal.pop(), None);
        prop_assert_eq!(heap.pop(), None);
    }

    /// FIFO among same-time events survives calendar bucket resizes: a
    /// burst of ties pushed before, across, and after a forced growth
    /// rebuild pops back in exact insertion order.
    #[test]
    fn tie_fifo_survives_bucket_resizes(
        n_ties in 1usize..120,
        tie_at in 0.0f64..1000.0,
        filler in prop::collection::vec(0.0f64..1000.0, 64..256),
    ) {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut q = EventQueue::with_kind(kind);
            // Interleave tied events with spread-out filler so the calendar
            // crosses at least one grow threshold mid-sequence.
            let mut expected_ties = Vec::new();
            for (i, &f) in filler.iter().enumerate() {
                q.push(SimTime::from_secs(f), usize::MAX - i);
                if i < n_ties {
                    q.push(SimTime::from_secs(tie_at), i);
                    expected_ties.push(i);
                }
            }
            let mut got_ties = Vec::new();
            let mut last = SimTime::ZERO;
            while let Some((t, payload)) = q.pop() {
                prop_assert!(t >= last, "time went backwards under {kind:?}");
                last = t;
                if payload < usize::MAX / 2 {
                    got_ties.push(payload);
                }
            }
            prop_assert_eq!(&got_ties, &expected_ties, "tie FIFO broke under {:?}", kind);
        }
    }

    /// The event queue always yields events in non-decreasing time order,
    /// with FIFO order among events that share a timestamp.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u32..100, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(f64::from(t)), (t, i));
        }
        let mut last: Option<(SimTime, (u32, usize))> = None;
        while let Some((time, payload)) = q.pop() {
            if let Some((lt, lp)) = last {
                prop_assert!(time >= lt, "time went backwards");
                if time == lt {
                    prop_assert!(payload.1 > lp.1, "FIFO violated on tie");
                }
            }
            last = Some((time, payload));
        }
    }

    /// Tally::merge is equivalent to recording both sample sets sequentially.
    #[test]
    fn tally_merge_matches_sequential(
        a in prop::collection::vec(-1e6f64..1e6, 0..50),
        b in prop::collection::vec(-1e6f64..1e6, 0..50),
    ) {
        let mut ta = Tally::new();
        let mut tb = Tally::new();
        let mut whole = Tally::new();
        for &x in &a { ta.record(x); whole.record(x); }
        for &x in &b { tb.record(x); whole.record(x); }
        ta.merge(&tb);
        prop_assert_eq!(ta.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((ta.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
            prop_assert!((ta.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance()));
        }
    }

    /// A histogram's CDF is monotone non-decreasing and bounded by [0, 1].
    #[test]
    fn histogram_cdf_is_monotone(samples in prop::collection::vec(-0.5f64..1.5, 1..300)) {
        let mut h = Histogram::new(0.0, 1.0, 50).unwrap();
        for &s in &samples { h.record(s); }
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = f64::from(i) / 100.0;
            let c = h.cdf_at(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= prev - 1e-12, "CDF decreased at {x}");
            prev = c;
        }
    }

    /// Exact CDF: prob_lt <= prob_le, quantile inverts prob_le.
    #[test]
    fn cdf_strict_weak_consistency(samples in prop::collection::vec(-100f64..100.0, 1..200), x in -100f64..100.0) {
        let mut c = Cdf::new();
        for &s in &samples { c.record(s); }
        prop_assert!(c.prob_lt(x) <= c.prob_le(x));
        let q = c.quantile(0.5).unwrap();
        prop_assert!(c.prob_le(q) >= 0.5);
    }

    /// Zipf probabilities are normalized and non-increasing in rank.
    #[test]
    fn zipf_probabilities_sane(n in 1usize..200, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s).unwrap();
        let total: f64 = (0..n).map(|i| z.prob(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for i in 1..n {
            prop_assert!(z.prob(i) <= z.prob(i - 1) + 1e-12);
        }
    }

    /// The compact `ZipfAlias` is pinned against the reference `Zipf` over
    /// the whole parameter space: identical analytic probabilities (to the
    /// bit) and identical sample streams from equal RNG states, so swapping
    /// one for the other can never perturb a seeded run.
    #[test]
    fn zipf_alias_pins_to_reference_zipf(n in 1usize..400, s in 0.0f64..3.0, seed in 0u64..1000) {
        let a = ZipfAlias::new(n, s).unwrap();
        let z = Zipf::new(n, s).unwrap();
        for i in 0..n {
            prop_assert_eq!(a.prob(i).to_bits(), z.prob(i).to_bits(), "prob({}) diverged", i);
        }
        let mut rng_a = RngStreams::new(seed).stream("zipf-alias-pin");
        let mut rng_z = RngStreams::new(seed).stream("zipf-alias-pin");
        for draw in 0..500 {
            prop_assert_eq!(a.sample(&mut rng_a), z.sample(&mut rng_z), "draw {} diverged", draw);
        }
    }

    /// A capped CDF that never exceeds its cap is indistinguishable from an
    /// exact one: same retained multiset, same quantiles, to the bit.
    #[test]
    fn capped_cdf_exact_below_cap(
        samples in prop::collection::vec(-1e3f64..1e3, 1..100),
        seed in 0u64..1000,
        q in 0.0f64..1.0,
    ) {
        let mut exact = Cdf::new();
        let mut capped = Cdf::with_cap(100, seed);
        for &s in &samples {
            exact.record(s);
            capped.record(s);
        }
        prop_assert_eq!(capped.count(), exact.count());
        prop_assert_eq!(capped.seen(), samples.len() as u64);
        prop_assert_eq!(
            capped.quantile(q).unwrap().to_bits(),
            exact.quantile(q).unwrap().to_bits()
        );
        prop_assert_eq!(capped.mean().to_bits(), exact.mean().to_bits());
    }

    /// Alias-method sampling only produces indices with positive weight.
    #[test]
    fn discrete_support_respected(weights in prop::collection::vec(0.0f64..10.0, 1..50), seed in 0u64..1000) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let d = Discrete::from_weights(&weights).unwrap();
        let mut rng = RngStreams::new(seed).stream("prop");
        for _ in 0..200 {
            let i = d.sample(&mut rng);
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {i}");
        }
    }

    /// Exponential samples are non-negative; uniform samples respect bounds.
    #[test]
    fn continuous_supports(seed in 0u64..1000, mean in 0.001f64..1e4, lo in -1e3f64..1e3, width in 0.001f64..1e3) {
        let mut rng = RngStreams::new(seed).stream("sup");
        let e = Exponential::with_mean(mean);
        prop_assert!(e.sample(&mut rng) >= 0.0);
        let u = Uniform::new(lo, lo + width).unwrap();
        let x = u.sample(&mut rng);
        prop_assert!(x >= lo && x < lo + width);
    }

    /// Geometric samples are at least 1.
    #[test]
    fn geometric_support(seed in 0u64..1000, mean in 1.0f64..100.0) {
        let g = Geometric::with_mean(mean).unwrap();
        let mut rng = RngStreams::new(seed).stream("geo");
        for _ in 0..50 {
            prop_assert!(g.sample(&mut rng) >= 1);
        }
    }

    /// Empirical resampling stays within the observed range.
    #[test]
    fn empirical_stays_in_range(samples in prop::collection::vec(-50f64..50.0, 1..100), seed in 0u64..100) {
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let d = Empirical::from_samples(samples).unwrap();
        let mut rng = RngStreams::new(seed).stream("emp");
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo && x <= hi);
        }
    }

    /// P² estimates stay within the sample range.
    #[test]
    fn p2_stays_in_range(samples in prop::collection::vec(-1e3f64..1e3, 5..200), p in 0.01f64..0.99) {
        let mut q = P2Quantile::new(p).unwrap();
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &s in &samples { q.record(s); }
        let v = q.value().unwrap();
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "estimate {v} outside [{lo}, {hi}]");
    }

    /// Named RNG streams are reproducible and name-sensitive.
    #[test]
    fn rng_streams_deterministic(seed in 0u64..u64::MAX, idx in 0u64..1000) {
        use rand::Rng;
        let f = RngStreams::new(seed);
        let a: u64 = f.stream_indexed("tag", idx).gen();
        let b: u64 = f.stream_indexed("tag", idx).gen();
        prop_assert_eq!(a, b);
    }
}
