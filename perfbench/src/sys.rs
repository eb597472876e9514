//! Linux calls the daemon workloads need beyond `std`, declared against
//! the C library: waiting on several sockets at once, and the
//! `SCHED_BATCH` policy.

use std::net::UdpSocket;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const POLLIN: i16 = 1;
const SCHED_BATCH: i32 = 3;

/// Blocks until one of `sockets` is readable or `timeout` has passed.
/// A `None` socket is not watched; at most 32 sockets are.
pub fn wait_readable<'a>(sockets: impl Iterator<Item = Option<&'a UdpSocket>>, timeout: Duration) {
    let mut fds = [const { PollFd { fd: -1, events: POLLIN, revents: 0 } }; 32];
    let mut n = 0;
    for s in sockets.take(fds.len()) {
        fds[n].fd = s.map_or(-1, |s| s.as_raw_fd());
        n += 1;
    }
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fds` outlives the call and `n` is at most its length.
    unsafe { poll(fds.as_mut_ptr(), n as u64, ms) };
}

/// Moves thread `tid` (0: the calling thread) to `SCHED_BATCH`, under which
/// a thread woken up does not preempt the one running. Best-effort.
fn set_batch(tid: i32) {
    let param = SchedParam { priority: 0 };
    // SAFETY: `param` outlives the call.
    unsafe { sched_setscheduler(tid, SCHED_BATCH, &param) };
}

/// Moves the calling thread to `SCHED_BATCH`.
pub fn batch_this_thread() {
    set_batch(0);
}

/// Moves every thread of this process named `name` to `SCHED_BATCH`. The
/// kernel keeps only the first 15 bytes of a thread name, so only those
/// are compared. Returns how many threads matched.
pub fn batch_threads(name: &str) -> usize {
    let name = &name.as_bytes()[..name.len().min(15)];
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut n = 0;
    for task in tasks.flatten() {
        let comm = std::fs::read(task.path().join("comm")).unwrap_or_default();
        let tid = task.file_name().to_str().and_then(|t| t.parse::<i32>().ok());
        if let (true, Some(tid)) = (comm.strip_suffix(b"\n") == Some(name), tid) {
            set_batch(tid);
            n += 1;
        }
    }
    n
}
