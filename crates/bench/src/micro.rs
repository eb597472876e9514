//! A minimal timing harness for the `micro_*` bench targets.
//!
//! Each sampler is a closure doing a fixed batch of work per call. The
//! harness calibrates a call count that fills a time window, times that
//! many back-to-back calls with [`Instant`], and keeps the best of a few
//! repeats — the least-noise estimate for a CPU-bound loop. Results print
//! as one table.

use std::hint::black_box;
use std::time::{Duration, Instant};

use geodns_core::format_table;

use crate::quick_mode;

/// One timed sampler: its `group/name` label, best mean nanoseconds per call, and
/// the elements (draws, decisions) one call processes.
#[derive(Debug)]
struct MicroRow {
    name: String,
    ns_per_iter: f64,
    elements: u64,
}

/// Times samplers and collects their rows.
#[derive(Debug)]
pub struct MicroBench {
    id: &'static str,
    window: Duration,
    repeats: usize,
    rows: Vec<MicroRow>,
}

impl MicroBench {
    /// A harness for the bench target `id`: 200 ms windows, best of 5, or
    /// 20 ms best of 2 in quick mode.
    #[must_use]
    pub fn new(id: &'static str) -> Self {
        let (window, repeats) = if quick_mode() {
            (Duration::from_millis(20), 2)
        } else {
            (Duration::from_millis(200), 5)
        };
        MicroBench { id, window, repeats, rows: Vec::new() }
    }

    /// Times `routine`, which processes `elements` elements per call, and
    /// records it under `name`.
    pub fn time<O>(&mut self, name: &str, elements: u64, mut routine: impl FnMut() -> O) {
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let iters = (self.window.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let ns_per_iter = (0..self.repeats)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    black_box(routine());
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .fold(f64::INFINITY, f64::min);
        self.rows.push(MicroRow { name: name.to_string(), ns_per_iter, elements });
    }

    /// Prints the table.
    pub fn finish(self) {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{:.1}", r.ns_per_iter),
                    format!("{:.3}", r.elements as f64 / r.ns_per_iter * 1e3),
                ]
            })
            .collect();
        println!("\n{}\n", self.id);
        println!("{}", format_table(&["sampler", "ns/iter", "Melem/s"], &rows));
    }
}
