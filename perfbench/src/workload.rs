//! What every workload shares: the result of one round, the spans the
//! benchmark records around the runtime layer, and the round clock.
//!
//! A run is a sequence of rounds. Each round sets up from scratch (inputs
//! generated from the seed, a fresh backend, threads registered, warm-up)
//! and then measures a closed loop for its share of `--seconds`.

use std::time::{Duration, Instant};

use thinlock_runtime::error::SyncResult;
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::registry::{Registration, ThreadRegistry};
use thinlock_trace::replay::spin_work;

use crate::hist::Hist;
use crate::host::process_cpu_s;
use crate::shim::Totals;

/// One op in this many has its latency sampled in the lock-bound
/// workloads (tax-replay, server-2t); vm-sync times every op.
pub const OP_SAMPLE_EVERY: u64 = 32;

pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Spans the benchmark records around runtime- and trace-layer calls.
/// Untraced, nothing is timed and the calls pass straight through.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Whether calls are timed.
    pub traced: bool,
    /// `Heap::alloc` durations.
    pub alloc: Hist,
    /// `ThreadRegistry::register` durations.
    pub register: Hist,
    /// Time in application `spin_work` during the timed phase.
    pub work_ns: u64,
    /// `Vm::run` durations during the timed phase.
    pub run: Hist,
    /// Their sum.
    pub run_ns: u64,
    /// Time inside `lock`/`unlock` calls made by those `Vm::run` calls.
    pub run_child_ns: u64,
}

impl Spans {
    /// Empty spans; `traced` turns timing on.
    pub fn new(traced: bool) -> Self {
        Spans {
            traced,
            ..Spans::default()
        }
    }

    /// `heap.alloc()`, timed when traced.
    pub fn alloc(&mut self, heap: &Heap) -> SyncResult<ObjRef> {
        if !self.traced {
            return heap.alloc();
        }
        let start = Instant::now();
        let r = heap.alloc();
        self.alloc.record(nanos(start.elapsed()));
        r
    }

    /// `registry.register()`, timed when traced.
    pub fn register(&mut self, registry: &ThreadRegistry) -> SyncResult<Registration> {
        if !self.traced {
            return registry.register();
        }
        let start = Instant::now();
        let r = registry.register();
        self.register.record(nanos(start.elapsed()));
        r
    }

    /// Application work, timed when traced.
    pub fn work(&mut self, units: u32) {
        if !self.traced {
            spin_work(units);
            return;
        }
        let start = Instant::now();
        spin_work(units);
        self.work_ns += nanos(start.elapsed());
    }

    /// Adds `other` (another thread's spans) into `self`.
    pub fn merge(&mut self, other: &Spans) {
        self.alloc.merge(&other.alloc);
        self.register.merge(&other.register);
        self.work_ns += other.work_ns;
        self.run.merge(&other.run);
        self.run_ns += other.run_ns;
        self.run_child_ns += other.run_child_ns;
    }
}

/// The outcome of one round.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Whether the round ran traced.
    pub traced: bool,
    /// Worker threads that ran the timed loop.
    pub threads: u32,
    /// Set-up time: inputs, heap, registration, warm-up.
    pub setup_s: f64,
    /// Timed wall time.
    pub wall_s: f64,
    /// Process CPU time over the timed phase.
    pub cpu_s: f64,
    /// Ops attempted in the timed phase.
    pub ops: u64,
    /// Ops whose checks failed.
    pub failed: u64,
    /// Sampled op latencies (ns).
    pub op_ns: Hist,
    /// Shim counters over the timed phase.
    pub shim: Totals,
    /// Slow-path `lock` calls over the whole round, warm-up included:
    /// contention on a thin word is what inflates it, so by design it
    /// happens before timing starts.
    pub slow_lock_all: Hist,
    /// Benchmark-side spans (setup and timed phase).
    pub spans: Spans,
    /// `inflation_count()` at the end, summed over the round's backends.
    pub inflations: u64,
    /// Inflations during the timed phase.
    pub inflations_timed: u64,
    /// Largest `monitors_peak()` of the round's backends.
    pub monitors_peak: u64,
    /// Hot objects whose word was fat when timing started (server-2t).
    pub hot_fat_at_start: u64,
    /// Hot objects the warm-up had to inflate by hint (server-2t).
    pub warmup_forced: u64,
}

/// Wall and CPU clocks read together at a phase boundary.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    /// Wall clock.
    pub at: Instant,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl Stamp {
    /// Reads both clocks.
    pub fn now() -> Stamp {
        Stamp {
            cpu_s: process_cpu_s(),
            at: Instant::now(),
        }
    }

    /// Wall and CPU seconds from `self` to `later`.
    pub fn until(self, later: Stamp) -> (f64, f64) {
        (
            later.at.duration_since(self.at).as_secs_f64(),
            later.cpu_s - self.cpu_s,
        )
    }
}
