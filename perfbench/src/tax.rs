//! `tax-replay`: one thread replays the 18 Table 1 programs, uncontended.
//!
//! Each program is a trace from `thinlock_trace::generator::generate` with
//! the Figure 3 nesting mix and little application work per sync, so the
//! thin fast path (CAS to lock, store to unlock, XOR test to nest) does
//! most of the work. A pass replays all 18 programs, each over its own thin
//! backend; a backend serves [`PASSES_PER_BACKEND`] passes before it is
//! replaced by a fresh one, so replays allocate fresh objects during
//! timing while building and registering, which happens off the clock,
//! stays a small share of the run. An op is one outermost synchronized
//! block.

use std::sync::Arc;

use thinlock::BackendChoice;
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::Registration;
use thinlock_trace::generator::{self, LockTrace, TraceConfig, TraceOp};
use thinlock_trace::table1::MACRO_BENCHMARKS;

use crate::hist::Hist;
use crate::shim::{Recorder, Shim};
use crate::workload::{nanos, Round, Spans, Stamp, OP_SAMPLE_EVERY};

/// Passes one set of backends serves before it is rebuilt.
pub const PASSES_PER_BACKEND: usize = 8;

/// Trace shape: Table 1 counts divided by 1000, capped so one pass of all
/// 18 programs replays in a few milliseconds, with a light body per sync.
pub fn config(seed: u64) -> TraceConfig {
    TraceConfig {
        scale: 1000,
        seed,
        max_objects: 2_000,
        max_lock_ops: 32_000,
        skew: 0.8,
        work_per_sync: 10,
        work_per_alloc: 40,
    }
}

/// The op stream: the 18 traces for `seed`.
pub fn generate(seed: u64) -> Vec<LockTrace> {
    MACRO_BENCHMARKS
        .iter()
        .map(|p| generator::generate(p, &config(seed)))
        .collect()
}

/// Outermost synchronized blocks in a trace.
fn blocks(trace: &LockTrace) -> u64 {
    let mut depth = 0u32;
    let mut n = 0;
    for op in trace.ops() {
        match op {
            TraceOp::Lock(_) => {
                n += u64::from(depth == 0);
                depth += 1;
            }
            TraceOp::Unlock(_) => depth -= 1,
            _ => {}
        }
    }
    n
}

/// What one replay of one trace did.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Objects the replay allocated.
    pub objects: Vec<ObjRef>,
    /// Outermost blocks attempted.
    pub ops: u64,
    /// Blocks in which a `lock` or `unlock` returned an error.
    pub failed: u64,
    /// `lock` calls that succeeded.
    pub locks: u64,
    /// An `Alloc` failed, so the replay stopped early.
    pub aborted: bool,
}

/// Replays `trace` on the calling thread through `shim`.
pub fn replay(
    shim: &Shim,
    reg: &Registration,
    trace: &LockTrace,
    spans: &mut Spans,
    op_ns: &mut Hist,
    op_seq: &mut u64,
) -> Replayed {
    let t = reg.token();
    let heap = shim.heap();
    let mut out = Replayed {
        objects: Vec::with_capacity(trace.required_heap_capacity()),
        ..Replayed::default()
    };
    let mut depth = 0u32;
    let mut block_ok = true;
    let mut block_start = None;
    for op in trace.ops() {
        match *op {
            TraceOp::Alloc => match spans.alloc(heap) {
                Ok(obj) => out.objects.push(obj),
                Err(_) => {
                    out.aborted = true;
                    break;
                }
            },
            TraceOp::Lock(o) => {
                if depth == 0 {
                    out.ops += 1;
                    block_ok = true;
                    if op_seq.is_multiple_of(OP_SAMPLE_EVERY) {
                        block_start = Some(std::time::Instant::now());
                    }
                    *op_seq += 1;
                }
                depth += 1;
                match shim.lock(out.objects[o as usize], t) {
                    Ok(()) => out.locks += 1,
                    Err(_) => block_ok = false,
                }
            }
            TraceOp::Unlock(o) => {
                block_ok &= shim.unlock(out.objects[o as usize], t).is_ok();
                depth -= 1;
                if depth == 0 {
                    if let Some(start) = block_start.take() {
                        op_ns.record(nanos(start.elapsed()));
                    }
                    out.failed += u64::from(!block_ok);
                }
            }
            TraceOp::Work(units) => spans.work(units),
        }
    }
    out
}

/// The tax-replay check: every lock of the trace completed and no object
/// is still held. Returns how many of the replay's ops failed: all of
/// them when the check fails, else those whose calls returned errors.
pub fn check(shim: &dyn SyncBackend, trace: &LockTrace, r: &Replayed) -> u64 {
    let held = r.objects.iter().any(|&o| shim.owner_of(o).is_some());
    if r.aborted || r.locks != trace.lock_ops() || held {
        blocks(trace)
    } else {
        r.failed
    }
}

/// The backends of [`PASSES_PER_BACKEND`] passes, built and registered
/// before timing.
fn build_pass(
    traces: &[LockTrace],
    rec: &Arc<Recorder>,
    spans: &mut Spans,
) -> Vec<(Shim, Registration)> {
    traces
        .iter()
        .map(|trace| {
            let capacity = trace.required_heap_capacity() * PASSES_PER_BACKEND;
            let backend = BackendChoice::Thin.build(capacity);
            let shim = Shim::new(backend, Arc::clone(rec));
            let reg = spans
                .register(shim.registry())
                .expect("a fresh registry has room for one thread");
            (shim, reg)
        })
        .collect()
}

/// Replays one pass; returns each trace's replay and the clocks around
/// the whole pass.
fn run_pass(
    traces: &[LockTrace],
    pass: &[(Shim, Registration)],
    spans: &mut Spans,
    op_ns: &mut Hist,
    op_seq: &mut u64,
) -> (Vec<Replayed>, Stamp, Stamp) {
    let start = Stamp::now();
    let replays = traces
        .iter()
        .zip(pass)
        .map(|(trace, (shim, reg))| replay(shim, reg, trace, spans, op_ns, op_seq))
        .collect();
    (replays, start, Stamp::now())
}

/// One round: set up, warm up with one pass, then replay passes until
/// `seconds` of replay time have been measured.
pub fn round(seed: u64, seconds: f64, traced: bool) -> Round {
    let setup = Stamp::now();
    let mut spans = Spans::new(traced);
    let traces = generate(seed);
    let rec = Recorder::new(traced);
    let mut op_ns = Hist::default();
    let mut op_seq = 0u64;
    let mut round = Round {
        traced,
        threads: 1,
        ..Round::default()
    };

    let mut pass = build_pass(&traces, &rec, &mut spans);
    run_pass(&traces, &pass, &mut spans, &mut op_ns, &mut op_seq);
    let mut served = 1;
    round.setup_s = setup.at.elapsed().as_secs_f64();
    op_ns = Hist::default();
    let before = rec.totals();
    spans.work_ns = 0;

    while round.wall_s < seconds {
        if served == PASSES_PER_BACKEND {
            round.inflations += pass
                .iter()
                .map(|(shim, _)| shim.inflation_count())
                .sum::<u64>();
            pass.clear();
            pass = build_pass(&traces, &rec, &mut spans);
            served = 0;
        }
        let inflations_before: u64 = pass.iter().map(|(shim, _)| shim.inflation_count()).sum();
        let (replays, start, end) = run_pass(&traces, &pass, &mut spans, &mut op_ns, &mut op_seq);
        served += 1;
        let (wall, cpu) = start.until(end);
        round.wall_s += wall;
        round.cpu_s += cpu;
        for ((trace, (shim, _)), r) in traces.iter().zip(&pass).zip(&replays) {
            round.ops += r.ops;
            round.failed += check(shim, trace, r);
            round.monitors_peak = round.monitors_peak.max(shim.monitors_peak() as u64);
        }
        let inflations: u64 = pass.iter().map(|(shim, _)| shim.inflation_count()).sum();
        round.inflations_timed += inflations - inflations_before;
    }
    round.inflations += pass
        .iter()
        .map(|(shim, _)| shim.inflation_count())
        .sum::<u64>();
    let all = rec.totals();
    round.shim = all.since(&before);
    round.slow_lock_all = all.slow_lock;
    round.op_ns = op_ns;
    round.spans = spans;
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_op_stream() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7), generate(8));
    }

    #[test]
    fn a_clean_replay_passes_and_a_held_object_fails_every_op() {
        let trace = &generate(3)[0];
        let rec = Recorder::new(false);
        let shim = Shim::new(
            BackendChoice::Thin.build(trace.required_heap_capacity() + 1),
            rec,
        );
        let reg = shim.registry().register().unwrap();
        let mut spans = Spans::new(false);
        let r = replay(&shim, &reg, trace, &mut spans, &mut Hist::default(), &mut 0);
        assert_eq!(r.ops, blocks(trace));
        assert_eq!(check(&shim, trace, &r), 0);

        // An object left locked fails the replay's every op.
        shim.lock(r.objects[0], reg.token()).unwrap();
        assert_eq!(check(&shim, trace, &r), r.ops);
        shim.unlock(r.objects[0], reg.token()).unwrap();

        // So does a lost lock.
        let short = Replayed {
            locks: r.locks - 1,
            ..r
        };
        assert_eq!(check(&shim, trace, &short), blocks(trace));
    }
}
