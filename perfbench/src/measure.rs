//! Measurement plumbing shared by every workload: order statistics,
//! process and thread accounting read from `/proc`, and the in-memory span
//! recorder of the traced run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; sorts `values` in place. `NaN` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPU time and run-queue wait of one thread, in seconds, from its
/// `schedstat` (`<on-cpu ns> <run-queue wait ns> <timeslices>`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStat {
    pub cpu_s: f64,
    pub runq_wait_s: f64,
}

impl SchedStat {
    fn parse(text: &str) -> Option<Self> {
        let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
        let cpu = fields.next()??;
        let wait = fields.next()??;
        Some(SchedStat { cpu_s: cpu as f64 * 1e-9, runq_wait_s: wait as f64 * 1e-9 })
    }

    /// The calling thread's counters so far.
    pub fn this_thread() -> Self {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|t| Self::parse(&t))
            .unwrap_or_default()
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_s: self.cpu_s - earlier.cpu_s,
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
        }
    }
}

/// The counters of every live thread of this process whose name is
/// `name`, summed; zero when no such thread is running. The kernel keeps
/// only the first 15 bytes of a thread name, so only those are compared.
pub fn thread_schedstat(name: &str) -> SchedStat {
    let name = &name.as_bytes()[..name.len().min(15)];
    let mut total = SchedStat::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end().as_bytes() != name {
            continue;
        }
        if let Some(s) =
            std::fs::read_to_string(dir.join("schedstat")).ok().and_then(|t| SchedStat::parse(&t))
        {
            total.cpu_s += s.cpu_s;
            total.runq_wait_s += s.runq_wait_s;
        }
    }
    total
}

/// One timed call into a layer, recorded by the traced run.
struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Spans are kept until the traced run ends and
/// then written out in one go, so recording costs two clock reads and a
/// `Vec` push.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        id
    }

    /// Records a span that has already ended.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span { id: self.spans.len(), parent, name, start_ns, end_ns });
    }

    /// Runs `f` inside a span named `name`.
    pub fn wrap<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, None);
        let value = f();
        self.end(id);
        value
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Writes every span as one JSON array (`id`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`), where a span's self time is its
    /// duration minus the time its direct children cover.
    pub fn write_json(&self, path: &Path) -> Result<(), String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let write = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
            writeln!(out, "[")?;
            for (i, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                let dur = s.end_ns - s.start_ns;
                let sep = if i + 1 == self.spans.len() { "" } else { "," };
                writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\
                     \"end_ns\":{},\"self_ns\":{}}}{sep}",
                    s.id,
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    dur.saturating_sub(child_ns[s.id])
                )?;
            }
            writeln!(out, "]")?;
            out.flush()
        };
        write(&mut out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Runs `op` in rounds of `batch` calls until `budget_s` has passed (at
/// least three rounds) and returns the median nanoseconds per call.
pub fn ns_per_op(batch: usize, budget_s: f64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut rounds: Vec<f64> = Vec::new();
    while rounds.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        for _ in 0..batch {
            op();
        }
        rounds.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut rounds)
}
