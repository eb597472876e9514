//! Experiment runner: parallel sweeps and table formatting.

use crate::{run_simulation, SimConfig, SimReport};

/// Runs every configuration, in parallel across OS threads (one run is
/// single-threaded; sweeps are embarrassingly parallel). Results come back
/// in input order.
///
/// # Errors
///
/// Returns the first configuration error encountered.
///
/// # Examples
///
/// ```
/// use geodns_core::{run_all, Algorithm, SimConfig};
/// use geodns_server::HeterogeneityLevel;
///
/// let mut a = SimConfig::quick(Algorithm::rr(), HeterogeneityLevel::H20);
/// a.duration_s = 60.0; a.warmup_s = 15.0;
/// let mut b = a.clone();
/// b.algorithm = Algorithm::prr_ttl1();
/// let reports = run_all(&[a, b]).unwrap();
/// assert_eq!(reports.len(), 2);
/// assert_eq!(reports[0].algorithm, "RR");
/// ```
pub fn run_all(configs: &[SimConfig]) -> Result<Vec<SimReport>, String> {
    let cores = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    run_on_threads(configs, cores)
}

/// [`run_all`] on at most `threads` workers; 1 runs serially on the
/// calling thread. Results come back in input order regardless of the
/// worker count or completion order (workers send `(index, result)`
/// pairs; the receiver reorders).
fn run_on_threads(configs: &[SimConfig], threads: usize) -> Result<Vec<SimReport>, String> {
    let threads = threads.min(configs.len());
    if threads <= 1 {
        return configs.iter().map(run_simulation).collect();
    }

    // Workers pull indices from a shared counter and send `(index, result)`
    // pairs down an mpsc channel; the receiving end reorders into input
    // order. Lock-free on the result path — no Mutex over the output Vec.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Result<SimReport, String>)>();

    std::thread::scope(|scope| {
        let next = &next;
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                if tx.send((i, run_simulation(&configs[i]))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut results: Vec<Option<Result<SimReport, String>>> = Vec::new();
    results.resize_with(configs.len(), || None);
    for (i, result) in rx {
        results[i] = Some(result);
    }
    results.into_iter().map(|r| r.expect("every slot filled")).collect()
}

/// A labelled experiment: named rows, each a config to run.
///
/// Thin convenience for the bench harness: run everything, keep the labels
/// attached.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// A human-readable experiment id (e.g. `"fig1"`).
    pub id: String,
    /// `(label, config)` rows.
    pub rows: Vec<(String, SimConfig)>,
}

impl Experiment {
    /// Creates an experiment.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        Experiment { id: id.into(), rows: Vec::new() }
    }

    /// Adds a labelled configuration.
    pub fn push(&mut self, label: impl Into<String>, config: SimConfig) {
        self.rows.push((label.into(), config));
    }

    /// Runs all rows in parallel and returns `(label, report)` pairs.
    ///
    /// # Errors
    ///
    /// Returns the first configuration error encountered.
    pub fn run(&self) -> Result<Vec<(String, SimReport)>, String> {
        let configs: Vec<SimConfig> = self.rows.iter().map(|(_, c)| c.clone()).collect();
        let reports = run_all(&configs)?;
        Ok(self.rows.iter().map(|(label, _)| label.clone()).zip(reports).collect())
    }
}

/// Formats a simple aligned text table: `header` then one row per entry.
/// Used by the figure-regeneration benches to print paper-style series.
#[must_use]
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header.iter().map(|s| (*s).to_string()).collect(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use geodns_server::HeterogeneityLevel;

    fn tiny(algorithm: Algorithm) -> SimConfig {
        let mut cfg = SimConfig::quick(algorithm, HeterogeneityLevel::H20);
        cfg.duration_s = 60.0;
        cfg.warmup_s = 15.0;
        cfg
    }

    #[test]
    fn parallel_matches_serial() {
        let configs =
            vec![tiny(Algorithm::rr()), tiny(Algorithm::prr_ttl1()), tiny(Algorithm::dal())];
        let parallel = run_all(&configs).unwrap();
        let serial: Vec<_> = configs.iter().map(|c| run_simulation(c).unwrap()).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn jobs_cap_preserves_input_order_and_results() {
        // Distinct seeds make any reordering visible in the reports.
        let configs: Vec<SimConfig> = (0..5)
            .map(|i| {
                let mut c = tiny(Algorithm::rr());
                c.seed = 100 + i;
                c
            })
            .collect();
        let serial = run_on_threads(&configs, 1).unwrap();
        for threads in [2, 3, 64] {
            let parallel = run_on_threads(&configs, threads).unwrap();
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        for (cfg, report) in configs.iter().zip(&serial) {
            assert_eq!(report.seed, cfg.seed, "input order held");
        }
    }

    #[test]
    fn experiment_keeps_labels() {
        let mut e = Experiment::new("test");
        e.push("RR", tiny(Algorithm::rr()));
        e.push("DAL", tiny(Algorithm::dal()));
        let results = e.run().unwrap();
        assert_eq!(results[0].0, "RR");
        assert_eq!(results[0].1.algorithm, "RR");
        assert_eq!(results[1].0, "DAL");
    }

    #[test]
    fn error_propagates() {
        let mut bad = tiny(Algorithm::rr());
        bad.duration_s = -5.0;
        assert!(run_all(&[bad]).is_err());
    }

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["name", "x"],
            &[vec!["a".into(), "1.00".into()], vec!["longer".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1.00"));
    }
}
