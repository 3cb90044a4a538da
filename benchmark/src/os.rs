//! What the benchmark asks of the operating system: thread placement, timer
//! precision, and a peak-memory reading per round.
//!
//! # Thread placement
//!
//! The system calls its pool "pinned": worker `i` stands for processor `i`.
//! It sets no affinity, though, and on this guest kernel that leaves placement
//! to wake-up heuristics for the life of a process: two spinning threads took
//! a full second to be spread over the two CPUs, and threads that run for
//! 20 ms at a time never are.  Runs then fall into one of two modes for
//! minutes on end — everything on one CPU (no speed-up at `p = 2`, cheap
//! hand-offs) or spread (speed-up, hand-offs through an idle-CPU wake-up) —
//! and `mm_dense/op_ms_p50` read 31 ms or 18 ms, `svc_open/op_ms_p50` 0.37 ms
//! or 0.60 ms, accordingly.  So the benchmark fixes the placement, from
//! outside, by thread name: what the pool's name promises for the workers,
//! and one fixed CPU for every other thread that takes part in an operation.
//!
//! | thread | CPU |
//! |---|---|
//! | caller / client / collector (the benchmark's main thread) | 0 |
//! | `paco-worker-<i>` | `i mod nproc` |
//! | `paco-engine-<s>` (executor of shard `s`) | `(s + 1) mod nproc` |
//! | open-loop generator (the benchmark's own) | `1 mod nproc` |

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The 1024-bit `cpu_set_t` of glibc.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Let the calling thread's sleeps end within a microsecond of their time
/// instead of the default 50 µs: the open-loop generator sleeps to each due
/// time and must not be the reason a request leaves late.
pub fn precise_timers() -> bool {
    // SAFETY: PR_SET_TIMERSLACK takes the slack in nanoseconds as its only
    // argument and affects nothing but the calling thread's timer rounding.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) == 0 }
}

/// Hand free heap pages back to the kernel.  Called at the start of every
/// round: the benchmark's own input generation allocates in a pattern that
/// follows the seed (it left `incr_updates` resident in 2 MiB steps from seed
/// to seed), and whatever a backlog once grew the heap to stays resident.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only releases memory the allocator holds free.
    unsafe { malloc_trim(0) };
}

/// Reset the process's resident-set high-water mark (`VmHWM`) to what is
/// resident now, so the next reading is the peak since this call.  Where
/// `/proc/self/clear_refs` cannot be written the mark simply keeps rising.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPUs this process may use.  Read once, before any thread is placed:
/// afterwards the calling thread's own mask would be the answer.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn set_affinity(tid: i32, cpus: impl IntoIterator<Item = usize>) -> bool {
    let mut set: CpuSet = [0; 16];
    for cpu in cpus {
        set[cpu / 64 % 16] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a live, correctly sized `cpu_set_t`; the call reads
    // `cpusetsize` bytes from it and touches no other memory.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Restrict the calling thread to CPU `cpu mod nproc`.
pub fn pin_current(cpu: usize) -> bool {
    set_affinity(0, [cpu % nproc()])
}

/// Let the calling thread (and the threads it spawns from now on) run anywhere.
pub fn release_current() -> bool {
    set_affinity(0, 0..nproc())
}

/// The CPU a thread of the system belongs on, by its name.
fn cpu_for(comm: &str) -> Option<usize> {
    let index = |prefix: &str| {
        comm.strip_prefix(prefix)
            .and_then(|i| i.parse::<usize>().ok())
    };
    index("paco-worker-").or_else(|| index("paco-engine-").map(|shard| shard + 1))
}

/// Threads already placed, so that a build can wait for *its* threads.
static PLACED: Mutex<BTreeSet<i32>> = Mutex::new(BTreeSet::new());

/// Place the worker and executor threads of this process (see the table
/// above); call it after building a `Session` or an `Engine` that starts
/// `expected` threads.  A thread names itself only once it runs, so a scan
/// right after the build can come too early: this one repeats until it has
/// placed `expected` threads it had not placed before, or a few milliseconds
/// have passed.  Returns how many it placed.
pub fn place_threads(expected: usize) -> usize {
    let mut placed = PLACED
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let deadline = Instant::now() + Duration::from_millis(5);
    let mut new = 0;
    loop {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return new;
        };
        let mut alive = BTreeSet::new();
        for task in tasks.flatten() {
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|t| t.parse::<i32>().ok())
            else {
                continue;
            };
            alive.insert(tid);
            if placed.contains(&tid) {
                continue;
            }
            let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) else {
                continue;
            };
            if let Some(cpu) = cpu_for(comm.trim()) {
                if set_affinity(tid, [cpu % nproc()]) {
                    placed.insert(tid);
                    new += 1;
                }
            }
        }
        // Forget threads that have ended; their ids may come round again.
        placed.retain(|tid| alive.contains(tid));
        if new >= expected || Instant::now() >= deadline {
            return new;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_are_placed_by_name() {
        assert_eq!(cpu_for("paco-worker-0"), Some(0));
        assert_eq!(cpu_for("paco-worker-3"), Some(3));
        assert_eq!(cpu_for("paco-engine-0"), Some(1));
        assert_eq!(cpu_for("paco_benchmark"), None);
        assert_eq!(cpu_for("paco-worker-x"), None);
    }
}
