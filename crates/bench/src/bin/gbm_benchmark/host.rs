//! What the benchmark reads from, or does to, the host: core count, peak
//! resident memory, its scratch directory, pacing, CPU affinity, and the
//! copy-bandwidth roof scans are reported against.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Threads the host can run at once.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MiB (`0` where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `<cargo target dir>/gbm_benchmark`: everything the benchmark writes
/// (traces, results, the durable server's files) lands here. The target
/// directory is found from the running executable, so the files stay
/// inside whichever checkout built it.
pub fn state_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let target = exe
        .ancestors()
        .find(|p| p.join("CACHEDIR.TAG").exists())
        .or_else(|| exe.parent())
        .expect("an executable has a parent directory");
    target.join("gbm_benchmark")
}

/// A fresh, empty directory under [`state_dir`], unique to this call.
pub fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = state_dir().join(format!("{label}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the target directory is writable");
    dir
}

/// Blocks until `due`: sleeps while far away, spins the last stretch so
/// the wake-up lands within microseconds (an OS sleep alone overshoots by
/// the timer slack, which would read as latency when ops are timed from
/// their due time).
pub fn pace_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if let Some(far) = due
        .checked_duration_since(now)
        .and_then(|d| d.checked_sub(SPIN))
    {
        std::thread::sleep(far);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Words of a `cpu_set_t`: 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // glibc; the workspace vendors no libc crate
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While alive, the thread that made it, and every thread started since,
/// may run on one CPU only. Dropping it gives the making thread its CPUs
/// back (threads started meanwhile keep the one).
pub struct OneCpu {
    previous: Option<[u64; CPU_SET_WORDS]>,
}

/// Confines the calling thread and the threads it goes on to start to the
/// first CPU it may run on. For a workload whose threads only ever hand
/// work to each other and wait: where the scheduler wakes the next thread,
/// on the waker's core or on another, otherwise decides the op's time, and
/// it decides differently from one run to the next. Does nothing where the
/// host has no such call or refuses it.
pub fn pin_to_one_cpu() -> OneCpu {
    #[cfg(target_os = "linux")]
    {
        let mut allowed = [0u64; CPU_SET_WORDS];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a live, writable buffer of `bytes` bytes,
        // which is what the call may write; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } == 0 {
            if let Some(word) = allowed.iter().position(|w| *w != 0) {
                let mut one = [0u64; CPU_SET_WORDS];
                one[word] = 1 << allowed[word].trailing_zeros();
                // SAFETY: `one` is a live buffer of `bytes` bytes, only read.
                if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0 {
                    return OneCpu {
                        previous: Some(allowed),
                    };
                }
            }
        }
    }
    OneCpu { previous: None }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(previous) = self.previous {
            // SAFETY: `previous` is a live buffer of the length passed, only
            // read. A refusal leaves the thread pinned, which is harmless.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&previous), previous.as_ptr()) };
        }
    }
}

/// Large-buffer copy bandwidth in GB/s, counting bytes read plus bytes
/// written: the roof a bandwidth-bound scan is reported against. Median of
/// several copies of a `bytes`-long buffer, which should be well past the
/// last-level cache.
pub fn memcpy_gbps(bytes: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let mut rates = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        rates.push(2.0 * bytes as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_readouts_are_sane() {
        assert!(cores() >= 1);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
        let a = scratch_dir("t");
        let b = scratch_dir("t");
        assert_ne!(a, b);
        assert!(a.starts_with(state_dir()) && a.is_dir());
        for d in [a, b] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn pinning_confines_new_threads_and_is_undone() {
        let before = cores();
        {
            let pin = pin_to_one_cpu();
            if pin.previous.is_some() {
                assert_eq!(cores(), 1);
                assert_eq!(std::thread::spawn(cores).join().unwrap(), 1);
            }
        }
        assert_eq!(cores(), before);
    }

    #[test]
    fn pacing_never_returns_early() {
        let due = Instant::now() + Duration::from_millis(2);
        pace_until(due);
        assert!(Instant::now() >= due);
        pace_until(due); // already past: returns at once
    }
}
