//! `server-2t`: two worker threads share a handful of hot objects.
//!
//! Each worker draws synchronized blocks whose depth follows the Figure 3
//! mix of a Table 1 program. 40% of the blocks lock one of [`HOT`] objects
//! both workers share; the rest lock the worker's private objects. Every
//! lock call bumps a guarded counter with a plain load and store, so a
//! mutual-exclusion failure loses an update, as
//! `trace::concurrent::replay_concurrent` checks it. The main thread only
//! blocks in join. An op is one outermost synchronized block.
//!
//! Steadiness rules. Each round builds a fresh backend and warms up until
//! every hot object's word is fat; thin inflation is one-way, so every
//! round then times the same lock shapes (hot objects on the monitor
//! path, private ones on the thin fast path) and inflates nothing while
//! timed. Clocks, `getrusage` and recorder snapshots are read only at the
//! phase barriers, and no sampler thread runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use thinlock::BackendChoice;
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::prng::Prng;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadToken;
use thinlock_trace::table1::MACRO_BENCHMARKS;

use crate::hist::Hist;
use crate::shim::{Recorder, Shim, Totals};
use crate::workload::{nanos, Round, Spans, Stamp, OP_SAMPLE_EVERY};

/// Worker threads.
pub const THREADS: usize = 2;
/// Objects both workers lock. Two hot objects taking 40% of the blocks
/// make about 3% of lock calls block, so the p99 latencies sit inside the
/// blocked population; with eight hot objects taking half the blocks,
/// about 1% blocked and the p99s jumped between the blocked and the
/// unblocked population from run to run.
pub const HOT: usize = 2;
/// Private objects per worker.
pub const PRIVATE: usize = 256;
/// Share of blocks that lock a hot object. Below one half, so the medians
/// sit inside the private (thin fast path) population rather than on the
/// edge between it and the hot one.
const HOT_SHARE: f64 = 0.4;
/// Blocks in each worker's seeded sequence; the loop cycles through it.
const SEQUENCE: usize = 16_384;
/// Most work units inside a block, per nesting level; each block draws
/// its own amount, so op latencies spread smoothly instead of clustering
/// at a few fixed values.
const WORK_IN: u32 = 60;
/// Work units between blocks.
const WORK_OUT: u32 = 40;
/// Warm-up runs at least this long, and until every hot object is fat.
const WARMUP_MIN: Duration = Duration::from_millis(150);
/// After this long, hot objects still thin are inflated by hint.
const WARMUP_MAX: Duration = Duration::from_secs(3);

/// One synchronized block: `depth` nested locks of arena object `obj`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Block {
    /// Arena index: `0..HOT` are hot, then each worker's private range.
    pub obj: u32,
    /// Nesting depth, 1 to 4.
    pub depth: u32,
    /// Work units inside the block.
    pub work: u32,
}

/// Depth with `P(d >= k) = f_k / f_1`, the generator's Figure 3 rule.
fn depth(fractions: &[f64; 4], rng: &mut Prng) -> u32 {
    let x = rng.next_f64();
    let f1 = fractions[0].max(f64::MIN_POSITIVE);
    (2..=4).take_while(|&k| x < fractions[k - 1] / f1).count() as u32 + 1
}

/// The op stream for `seed`: one block sequence per worker.
pub fn generate(seed: u64) -> Vec<Vec<Block>> {
    (0..THREADS)
        .map(|w| {
            let mut rng = Prng::seed_from_u64(seed ^ ((w as u64 + 1) << 40));
            (0..SEQUENCE)
                .map(|_| {
                    let profile = &MACRO_BENCHMARKS[rng.range_usize(0, MACRO_BENCHMARKS.len())];
                    let obj = if rng.gen_bool(HOT_SHARE) {
                        rng.range_usize(0, HOT)
                    } else {
                        HOT + w * PRIVATE + rng.range_usize(0, PRIVATE)
                    };
                    let depth = depth(&profile.depth_fractions, &mut rng);
                    Block {
                        obj: obj as u32,
                        depth,
                        work: rng.range_u32(0, WORK_IN * depth + 1),
                    }
                })
                .collect()
        })
        .collect()
}

/// A guarded counter on a line of its own.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Counter(AtomicU64);

/// The server-2t check: each object's guarded counter equals the lock
/// calls made on it. Returns the objects whose counter lost an update.
pub fn lost_updates(counters: &[Counter], locks: &[u64]) -> Vec<usize> {
    counters
        .iter()
        .zip(locks)
        .enumerate()
        .filter(|(_, (c, &n))| c.0.load(Ordering::Relaxed) != n)
        .map(|(i, _)| i)
        .collect()
}

/// What one worker did.
#[derive(Debug, Default)]
struct Worker {
    /// Lock calls per arena object, warm-up included.
    locks: Vec<u64>,
    /// Timed ops per arena object.
    ops: Vec<u64>,
    /// Timed ops whose calls returned an error.
    failed: u64,
    op_ns: Hist,
    spans: Spans,
}

/// Everything the workers share in one round.
struct Shared<'a> {
    shim: &'a Shim,
    arena: &'a [ObjRef],
    counters: &'a [Counter],
    barrier: Barrier,
    warm: AtomicBool,
    seconds: Duration,
    deadline: OnceLock<Instant>,
    /// Start-of-timing snapshot: clocks, recorder, inflations, hot fat.
    start: OnceLock<(Stamp, Totals, u64, u64, u64)>,
    end: OnceLock<(Stamp, Totals, u64)>,
}

impl Shared<'_> {
    fn hot_fat(&self) -> u64 {
        self.arena[..HOT]
            .iter()
            .filter(|&&o| self.shim.probe_word(o).is_fat())
            .count() as u64
    }

    /// Runs one block; returns whether every call succeeded.
    fn block(&self, w: &mut Worker, t: ThreadToken, b: Block) -> bool {
        let obj = self.arena[b.obj as usize];
        let counter = &self.counters[b.obj as usize].0;
        let mut ok = true;
        for _ in 0..b.depth {
            ok &= self.shim.lock(obj, t).is_ok();
            // Racy-looking read-modify-write, serialized by the monitor.
            let v = counter.load(Ordering::Relaxed);
            std::hint::spin_loop();
            counter.store(v + 1, Ordering::Relaxed);
        }
        w.locks[b.obj as usize] += u64::from(b.depth);
        w.spans.work(b.work);
        for _ in 0..b.depth {
            ok &= self.shim.unlock(obj, t).is_ok();
        }
        ok
    }

    fn worker(&self, id: usize, blocks: &[Block], traced: bool) -> Worker {
        let mut w = Worker {
            locks: vec![0; self.arena.len()],
            ops: vec![0; self.arena.len()],
            spans: Spans::new(traced),
            ..Worker::default()
        };
        let reg = w
            .spans
            .register(self.shim.registry())
            .expect("registry has room for the workers");
        let t = reg.token();
        let began = Instant::now();
        let mut next = 0;
        // Warm-up: until every hot object is fat (worker 0 decides).
        while !self.warm.load(Ordering::Acquire) {
            for _ in 0..64 {
                self.block(&mut w, t, blocks[next % blocks.len()]);
                w.spans.work(WORK_OUT);
                next += 1;
            }
            if id == 0 {
                let waited = began.elapsed();
                if waited >= WARMUP_MAX || (waited >= WARMUP_MIN && self.hot_fat() == HOT as u64) {
                    self.warm.store(true, Ordering::Release);
                }
            }
        }
        self.barrier.wait();
        if id == 0 {
            let forced = self.arena[..HOT]
                .iter()
                .filter(|&&o| self.shim.pre_inflate_hint(o))
                .count() as u64;
            let totals = self.shim.recorder().totals();
            let inflations = self.shim.inflation_count();
            let hot_fat = self.hot_fat();
            let stamp = Stamp::now();
            let _ = self.deadline.set(stamp.at + self.seconds);
            let _ = self.start.set((stamp, totals, inflations, hot_fat, forced));
        }
        self.barrier.wait();
        w.spans.work_ns = 0;
        let deadline = *self.deadline.get().expect("worker 0 set the deadline");
        let mut seq = 0u64;
        loop {
            let b = blocks[next % blocks.len()];
            next += 1;
            let sampled = seq.is_multiple_of(OP_SAMPLE_EVERY);
            seq += 1;
            let start = sampled.then(Instant::now);
            let ok = self.block(&mut w, t, b);
            let stop = start.map(|start| {
                let now = Instant::now();
                w.op_ns.record(nanos(now - start));
                now >= deadline
            });
            w.ops[b.obj as usize] += 1;
            w.failed += u64::from(!ok);
            w.spans.work(WORK_OUT);
            if stop == Some(true) {
                break;
            }
        }
        self.barrier.wait();
        if id == 0 {
            let _ = self.end.set((
                Stamp::now(),
                self.shim.recorder().totals(),
                self.shim.inflation_count(),
            ));
        }
        w
    }
}

/// One round: fresh backend, arena and threads; warm up until every hot
/// object is fat; time both workers for `seconds`; check the counters.
pub fn round(seed: u64, seconds: f64, traced: bool) -> Round {
    let setup = Stamp::now();
    let mut spans = Spans::new(traced);
    let streams = generate(seed);
    let objects = HOT + THREADS * PRIVATE;
    let shim = Shim::new(BackendChoice::Thin.build(objects), Recorder::new(traced));
    let arena: Vec<ObjRef> = (0..objects)
        .map(|_| spans.alloc(shim.heap()).expect("heap sized for the arena"))
        .collect();
    let counters: Vec<Counter> = (0..objects).map(|_| Counter::default()).collect();
    let shared = Shared {
        shim: &shim,
        arena: &arena,
        counters: &counters,
        barrier: Barrier::new(THREADS),
        warm: AtomicBool::new(false),
        seconds: Duration::from_secs_f64(seconds),
        deadline: OnceLock::new(),
        start: OnceLock::new(),
        end: OnceLock::new(),
    };
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(id, blocks)| {
                let shared = &shared;
                scope.spawn(move || shared.worker(id, blocks, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let (start, before, inflations_before, hot_fat, forced) = shared
        .start
        .into_inner()
        .expect("worker 0 stamped the start");
    let (end, after, inflations) = shared.end.into_inner().expect("worker 0 stamped the end");
    let mut round = Round {
        traced,
        threads: THREADS as u32,
        setup_s: start.at.duration_since(setup.at).as_secs_f64(),
        shim: after.since(&before),
        slow_lock_all: after.slow_lock.clone(),
        inflations,
        inflations_timed: inflations - inflations_before,
        monitors_peak: shim.monitors_peak() as u64,
        hot_fat_at_start: hot_fat,
        warmup_forced: forced,
        ..Round::default()
    };
    (round.wall_s, round.cpu_s) = start.until(end);
    let mut locks = vec![0u64; objects];
    let mut ops = vec![0u64; objects];
    for w in &workers {
        for (i, n) in w.locks.iter().enumerate() {
            locks[i] += n;
            ops[i] += w.ops[i];
        }
        round.failed += w.failed;
        round.op_ns.merge(&w.op_ns);
        spans.merge(&w.spans);
    }
    round.ops = ops.iter().sum();
    // A lost update fails every op on that object.
    for i in lost_updates(&counters, &locks) {
        round.failed += ops[i];
    }
    round.failed = round.failed.min(round.ops);
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
        let blocks = &generate(7)[1];
        let hot = blocks.iter().filter(|b| (b.obj as usize) < HOT).count();
        assert!((hot as f64 / blocks.len() as f64 - HOT_SHARE).abs() < 0.02);
        assert!(blocks.iter().all(|b| (1..=4).contains(&b.depth)));
        assert!(blocks
            .iter()
            .all(|b| (b.obj as usize) < HOT || (b.obj as usize) >= HOT + PRIVATE));
    }

    #[test]
    fn a_lost_update_is_caught() {
        let counters: Vec<Counter> = (0..3).map(|_| Counter::default()).collect();
        counters[0].0.store(5, Ordering::Relaxed);
        counters[2].0.store(2, Ordering::Relaxed);
        assert_eq!(lost_updates(&counters, &[5, 0, 2]), Vec::<usize>::new());
        assert_eq!(lost_updates(&counters, &[5, 0, 3]), vec![2]);
    }

    #[test]
    fn a_short_round_is_correct_and_starts_all_fat() {
        let r = round(11, 0.2, true);
        assert!(r.ops > 0);
        assert_eq!(r.failed, 0);
        assert_eq!(r.hot_fat_at_start, HOT as u64);
        assert_eq!(r.inflations_timed, 0);
        assert!(r.shim.fat_entries > 0 && r.shim.fast_entries > 0);
    }
}
