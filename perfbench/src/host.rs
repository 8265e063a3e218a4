//! What the host contributes to every number: its fingerprint, the raw
//! cost of the primitives the lock layers are built from, process CPU
//! time and peak resident set.

use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Identifies the machine a result came from, so results from different
/// hosts are never compared silently.
#[derive(Clone, Debug)]
pub struct Host {
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Raw `AtomicU32` CAS + release store, ns per pair.
    pub cas_pair_ns: f64,
    /// Median reading of an empty `Instant::now` .. `elapsed` bracket.
    pub timer_pair_ns: f64,
}

impl Host {
    /// Reads the fingerprint and runs the calibration loops (~50 ms).
    pub fn probe() -> Host {
        Host {
            cpu_model: cpu_model(),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cas_pair_ns: median_of(7, cas_pair_batch),
            timer_pair_ns: median_of(7, timer_pair_batch),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn median_of(batches: usize, f: fn() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..batches).map(|_| f()).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

const CALIBRATION_ITERS: u32 = 200_000;

/// The thin-lock fast path reduced to its hardware: one CAS to acquire,
/// one store to release.
fn cas_pair_batch() -> f64 {
    let word = AtomicU32::new(0);
    let start = Instant::now();
    for _ in 0..CALIBRATION_ITERS {
        let w = black_box(&word);
        let _ = w.compare_exchange(0, 1 << 16, Ordering::Acquire, Ordering::Relaxed);
        w.store(0, Ordering::Release);
    }
    start.elapsed().as_nanos() as f64 / f64::from(CALIBRATION_ITERS)
}

/// What an empty timed bracket reads (the median of many): the floor
/// under every sampled duration.
fn timer_pair_batch() -> f64 {
    let mut h = crate::hist::Hist::default();
    for _ in 0..CALIBRATION_ITERS / 4 {
        let t = Instant::now();
        h.record(crate::workload::nanos(black_box(t).elapsed()));
    }
    h.quantile(0.5)
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// User + system CPU time of the whole process (all threads, exited ones
/// included), in seconds.
pub fn process_cpu_s() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable value with the layout of Linux's
    // `struct rusage`, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_plausible_values() {
        let h = Host::probe();
        assert!(h.nproc >= 1);
        assert!(h.cas_pair_ns > 0.0 && h.timer_pair_ns > 0.0);
        let before = process_cpu_s();
        thinlock_trace::replay::spin_work(2_000_000);
        assert!(process_cpu_s() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
