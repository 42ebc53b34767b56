//! What the benchmark reads from the operating system: CPU time, peak
//! and current memory, and the environment record.

/// Reads one of the kernel's CPU-time clocks, in nanoseconds.
///
/// `clock_gettime` brings the running task's time up to date before it
/// answers; `/proc/thread-self/schedstat` and `/proc/self/stat` do not,
/// and on some virtual machines they move in whole scheduler ticks.
fn cpu_clock_ns(clock: std::ffi::c_int) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: std::ffi::c_long,
        nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time of the calling thread, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(3)
}

/// CPU time of the whole process, every thread, in nanoseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(2)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MiB.
pub fn status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's `VmHWM` to its current resident size (writing
/// `5` to `/proc/self/clear_refs`), so that a later reading is the peak
/// of what ran since. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns the allocator's free memory to the system, so that resident
/// size (and a peak reset to it) holds live memory, not what earlier
/// work freed.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Nearest-rank percentile of an ascending slice: a value that was
/// actually measured, with `(1 - p) * n` samples above it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// Whether the kernel exposes a hardware performance-counter PMU.
pub fn hw_counters() -> bool {
    std::path::Path::new("/sys/bus/event_source/devices/cpu").exists()
}

/// `a / b`, or 0 when there is nothing to divide by (JSON has no NaN).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut genus_common::SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.99), 198.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        let (t, p) = (thread_cpu_ns(), process_cpu_ns());
        assert!(t > 0 && p >= t, "thread {t} ns, process {p} ns");
        assert!(status_mib("VmHWM") > 0.0);
    }

    #[test]
    fn peak_reset_forgets_earlier_peaks() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        trim_heap();
        let before = status_mib("VmHWM");
        assert!(reset_peak_rss(), "clear_refs accepts 5");
        assert!(status_mib("VmHWM") < before - 32.0);
    }
}
