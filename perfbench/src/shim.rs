//! A pass-through `SyncProtocol` that counts and times the calls it
//! forwards.
//!
//! Every workload drives its backend through a [`Shim`], untraced runs
//! included, so a parent commit and a change carry the same measurement
//! overhead. Untraced, the shim counts every `lock`/`unlock` and times one
//! call in [`SAMPLE_EVERY`] of each. Traced, it also probes the lock word
//! before each `lock` to classify the entry (fast, slow, fat, nested) and
//! times every call, which is what the per-layer `core.*` and `monitor.*`
//! metrics are made of.
//!
//! Counters live in one [`Recorder`] slot per thread index, written only
//! by the thread holding that index, so recording needs no atomic
//! read-modify-write and no two threads share a cache line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use thinlock_runtime::backend::{MonitorProbe, SyncBackend};
use thinlock_runtime::error::SyncResult;
use thinlock_runtime::events::TraceSink;
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::lockword::{LockWord, ThreadIndex};
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};

use crate::hist::{AtomicHist, Hist};

/// Untraced runs time one `lock` and one `unlock` call in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// Thread indices a recorder has room for (index 0 is never issued).
const SLOTS: usize = 8;

/// A backend as the workloads hold it.
pub type Backend = Arc<dyn SyncBackend + Send + Sync>;

fn bump(c: &AtomicU64, by: u64) {
    // Single writer per slot: a load and a store suffice.
    c.store(c.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One thread's counters. Aligned so two threads never share a line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Slot {
    locks: AtomicU64,
    unlocks: AtomicU64,
    lock_errors: AtomicU64,
    unlock_errors: AtomicU64,
    nested: AtomicU64,
    fast_entries: AtomicU64,
    slow_entries: AtomicU64,
    fat_entries: AtomicU64,
    lock_ns: AtomicU64,
    unlock_ns: AtomicU64,
    acquire: AtomicHist,
    unlock: AtomicHist,
    fast_lock: AtomicHist,
    slow_lock: AtomicHist,
    fat_lock: AtomicHist,
}

/// The counters of every thread that calls through the shims sharing it.
///
/// Several shims may share one recorder (the tax replay builds a fresh
/// backend per program run); a thread index must then belong to one live
/// thread at a time, which holds as long as each backend's registry hands
/// out indices to the recording threads only.
#[derive(Debug)]
pub struct Recorder {
    traced: bool,
    slots: Box<[Slot]>,
}

/// A snapshot of a [`Recorder`], summed over threads. Counters and
/// histograms only grow, so [`Totals::since`] gives a phase's share.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// `lock` calls.
    pub locks: u64,
    /// `unlock` calls.
    pub unlocks: u64,
    /// `lock` calls that returned an error.
    pub lock_errors: u64,
    /// `unlock` calls that returned an error.
    pub unlock_errors: u64,
    /// Traced: `lock` calls on an object the caller already held.
    pub nested: u64,
    /// Traced: `lock` calls whose word was unlocked or thin-owned by the
    /// caller.
    pub fast_entries: u64,
    /// Traced: `lock` calls whose word was thin-owned by another thread.
    pub slow_entries: u64,
    /// Traced: `lock` calls whose word was fat.
    pub fat_entries: u64,
    /// Traced: time inside `lock`.
    pub lock_ns: u64,
    /// Traced: time inside `unlock`.
    pub unlock_ns: u64,
    /// Timed `lock` calls (sampled untraced, all traced).
    pub acquire: Hist,
    /// Timed `unlock` calls (sampled untraced, all traced).
    pub unlock: Hist,
    /// Traced: `lock` calls entered on the fast path.
    pub fast_lock: Hist,
    /// Traced: `lock` calls entered on the slow path.
    pub slow_lock: Hist,
    /// Traced: `lock` calls entered on a fat word.
    pub fat_lock: Hist,
}

impl Totals {
    /// Lock acquisitions completed.
    pub fn syncs(&self) -> u64 {
        self.locks - self.lock_errors
    }

    /// What `self` holds beyond the earlier snapshot `earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        Totals {
            locks: self.locks - earlier.locks,
            unlocks: self.unlocks - earlier.unlocks,
            lock_errors: self.lock_errors - earlier.lock_errors,
            unlock_errors: self.unlock_errors - earlier.unlock_errors,
            nested: self.nested - earlier.nested,
            fast_entries: self.fast_entries - earlier.fast_entries,
            slow_entries: self.slow_entries - earlier.slow_entries,
            fat_entries: self.fat_entries - earlier.fat_entries,
            lock_ns: self.lock_ns - earlier.lock_ns,
            unlock_ns: self.unlock_ns - earlier.unlock_ns,
            acquire: self.acquire.since(&earlier.acquire),
            unlock: self.unlock.since(&earlier.unlock),
            fast_lock: self.fast_lock.since(&earlier.fast_lock),
            slow_lock: self.slow_lock.since(&earlier.slow_lock),
            fat_lock: self.fat_lock.since(&earlier.fat_lock),
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Totals) {
        self.locks += other.locks;
        self.unlocks += other.unlocks;
        self.lock_errors += other.lock_errors;
        self.unlock_errors += other.unlock_errors;
        self.nested += other.nested;
        self.fast_entries += other.fast_entries;
        self.slow_entries += other.slow_entries;
        self.fat_entries += other.fat_entries;
        self.lock_ns += other.lock_ns;
        self.unlock_ns += other.unlock_ns;
        self.acquire.merge(&other.acquire);
        self.unlock.merge(&other.unlock);
        self.fast_lock.merge(&other.fast_lock);
        self.slow_lock.merge(&other.slow_lock);
        self.fat_lock.merge(&other.fat_lock);
    }
}

impl Recorder {
    /// A recorder; `traced` selects full classification and timing.
    pub fn new(traced: bool) -> Arc<Self> {
        Arc::new(Recorder {
            traced,
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        })
    }

    fn slot(&self, t: ThreadToken) -> &Slot {
        self.slots
            .get(usize::from(t.index().get()))
            .expect("recorder has a slot for every benchmark thread")
    }

    /// Time thread `t` has spent inside traced `lock`/`unlock` calls.
    pub fn busy_ns(&self, t: ThreadToken) -> u64 {
        let s = self.slot(t);
        s.lock_ns.load(Ordering::Relaxed) + s.unlock_ns.load(Ordering::Relaxed)
    }

    /// Sums every thread's counters.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for s in self.slots.iter() {
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            t.locks += get(&s.locks);
            t.unlocks += get(&s.unlocks);
            t.lock_errors += get(&s.lock_errors);
            t.unlock_errors += get(&s.unlock_errors);
            t.nested += get(&s.nested);
            t.fast_entries += get(&s.fast_entries);
            t.slow_entries += get(&s.slow_entries);
            t.fat_entries += get(&s.fat_entries);
            t.lock_ns += get(&s.lock_ns);
            t.unlock_ns += get(&s.unlock_ns);
            s.acquire.add_to(&mut t.acquire);
            s.unlock.add_to(&mut t.unlock);
            s.fast_lock.add_to(&mut t.fast_lock);
            s.slow_lock.add_to(&mut t.slow_lock);
            s.fat_lock.add_to(&mut t.fat_lock);
        }
        t
    }
}

/// The pass-through protocol: forwards every call to `inner` unchanged.
pub struct Shim {
    inner: Backend,
    rec: Arc<Recorder>,
}

impl Shim {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Backend, rec: Arc<Recorder>) -> Self {
        Shim { inner, rec }
    }

    /// The recorder this shim writes.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.rec
    }

    fn lock_traced(&self, s: &Slot, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let held = self.inner.holds_lock(obj, t);
        let word = self.inner.probe_word(obj);
        let start = Instant::now();
        let r = self.inner.lock(obj, t);
        let ns = nanos(start.elapsed());
        if held {
            bump(&s.nested, 1);
        }
        let class = if word.is_fat() {
            bump(&s.fat_entries, 1);
            &s.fat_lock
        } else if word.is_unlocked() || word.is_thin_owned_by(t.shifted()) {
            bump(&s.fast_entries, 1);
            &s.fast_lock
        } else {
            bump(&s.slow_entries, 1);
            &s.slow_lock
        };
        class.record(ns);
        s.acquire.record(ns);
        bump(&s.lock_ns, ns);
        r
    }
}

impl SyncProtocol for Shim {
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let s = self.rec.slot(t);
        let n = s.locks.load(Ordering::Relaxed);
        s.locks.store(n + 1, Ordering::Relaxed);
        let r = if self.rec.traced {
            self.lock_traced(s, obj, t)
        } else if n.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            let r = self.inner.lock(obj, t);
            s.acquire.record(nanos(start.elapsed()));
            r
        } else {
            self.inner.lock(obj, t)
        };
        if r.is_err() {
            bump(&s.lock_errors, 1);
        }
        r
    }

    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let s = self.rec.slot(t);
        let n = s.unlocks.load(Ordering::Relaxed);
        s.unlocks.store(n + 1, Ordering::Relaxed);
        let r = if self.rec.traced || n.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            let r = self.inner.unlock(obj, t);
            let ns = nanos(start.elapsed());
            s.unlock.record(ns);
            if self.rec.traced {
                bump(&s.unlock_ns, ns);
            }
            r
        } else {
            self.inner.unlock(obj, t)
        };
        if r.is_err() {
            bump(&s.unlock_errors, 1);
        }
        r
    }

    fn wait(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome> {
        self.inner.wait(obj, t, timeout)
    }

    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.notify(obj, t)
    }

    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.notify_all(obj, t)
    }

    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.inner.holds_lock(obj, t)
    }

    fn try_lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<bool> {
        self.inner.try_lock(obj, t)
    }

    fn lock_deadline(&self, obj: ObjRef, t: ThreadToken, timeout: Duration) -> SyncResult<()> {
        self.inner.lock_deadline(obj, t, timeout)
    }

    fn pre_inflate_hint(&self, obj: ObjRef) -> bool {
        self.inner.pre_inflate_hint(obj)
    }

    fn pin_fifo_hint(&self, obj: ObjRef) -> bool {
        self.inner.pin_fifo_hint(obj)
    }

    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        self.inner.trace_sink()
    }

    fn heap(&self) -> &Heap {
        self.inner.heap()
    }

    fn registry(&self) -> &ThreadRegistry {
        self.inner.registry()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl SyncBackend for Shim {
    fn probe_word(&self, obj: ObjRef) -> LockWord {
        self.inner.probe_word(obj)
    }

    fn monitor_probe(&self, obj: ObjRef) -> Option<MonitorProbe> {
        self.inner.monitor_probe(obj)
    }

    fn owner_of(&self, obj: ObjRef) -> Option<ThreadIndex> {
        self.inner.owner_of(obj)
    }

    fn in_wait_set(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.inner.in_wait_set(obj, t)
    }

    fn spin_enabled(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.inner.spin_enabled(obj, t)
    }

    fn deflation_capable(&self) -> bool {
        self.inner.deflation_capable()
    }

    fn inflation_count(&self) -> u64 {
        self.inner.inflation_count()
    }

    fn deflation_count(&self) -> u64 {
        self.inner.deflation_count()
    }

    fn monitors_live(&self) -> usize {
        self.inner.monitors_live()
    }

    fn monitors_peak(&self) -> usize {
        self.inner.monitors_peak()
    }

    fn monitors_allocated(&self) -> u64 {
        self.inner.monitors_allocated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinlock::BackendChoice;
    use thinlock_runtime::prng::Prng;

    /// One step of the equivalence stream.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Lock(usize),
        Unlock(usize),
        PreInflate(usize),
    }

    /// A seeded single-thread stream that nests, unlocks objects it does
    /// not hold (errors), and inflates by hint, so thin, fat and error
    /// paths of the backend are all taken.
    fn stream(seed: u64, objects: usize, len: usize) -> Vec<Step> {
        let mut rng = Prng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let o = rng.range_usize(0, objects);
                match rng.next_below(100) {
                    0..=44 => Step::Lock(o),
                    45..=89 => Step::Unlock(o),
                    _ => Step::PreInflate(o),
                }
            })
            .collect()
    }

    /// Everything observable after a step: its result, every lock word,
    /// what the caller holds, `inflation_count()` and `monitors_peak()`.
    type Observed = (String, Vec<u32>, Vec<bool>, u64, usize);

    fn observe(b: &dyn SyncBackend, objs: &[ObjRef], t: ThreadToken, out: String) -> Observed {
        (
            out,
            objs.iter().map(|&o| b.probe_word(o).bits()).collect(),
            objs.iter().map(|&o| b.holds_lock(o, t)).collect(),
            b.inflation_count(),
            b.monitors_peak(),
        )
    }

    fn drive(b: &dyn SyncBackend, steps: &[Step]) -> Vec<Observed> {
        let objs: Vec<ObjRef> = (0..4).map(|_| b.heap().alloc().unwrap()).collect();
        let reg = b.registry().register().unwrap();
        let t = reg.token();
        steps
            .iter()
            .map(|&s| {
                let out = match s {
                    Step::Lock(o) => format!("{:?}", b.lock(objs[o], t)),
                    Step::Unlock(o) => format!("{:?}", b.unlock(objs[o], t)),
                    Step::PreInflate(o) => format!("{:?}", b.pre_inflate_hint(objs[o])),
                };
                observe(b, &objs, t, out)
            })
            .collect()
    }

    #[test]
    fn wrapped_backend_matches_unwrapped_on_a_seeded_stream() {
        for seed in [1, 2, 3] {
            let steps = stream(seed, 4, 3000);
            let plain = drive(&*BackendChoice::Thin.build(8), &steps);
            for traced in [false, true] {
                let shim = Shim::new(BackendChoice::Thin.build(8), Recorder::new(traced));
                assert_eq!(drive(&shim, &steps), plain, "seed {seed} traced {traced}");
                let totals = shim.recorder().totals();
                let locks = steps.iter().filter(|s| matches!(s, Step::Lock(_))).count();
                assert_eq!(totals.locks, locks as u64);
                let errors = plain.iter().filter(|r| r.0.starts_with("Err")).count() as u64;
                assert_eq!(totals.lock_errors + totals.unlock_errors, errors);
                assert!(errors > 0, "the stream must exercise error returns");
                assert!(plain.last().unwrap().3 > 0, "the stream must inflate");
            }
        }
    }

    #[test]
    fn traced_recorder_classifies_every_lock_call() {
        let shim = Shim::new(BackendChoice::Thin.build(2), Recorder::new(true));
        let obj = shim.heap().alloc().unwrap();
        let reg = shim.registry().register().unwrap();
        let t = reg.token();
        shim.lock(obj, t).unwrap();
        shim.lock(obj, t).unwrap();
        assert!(shim.pre_inflate_hint(shim.heap().alloc().unwrap()));
        shim.unlock(obj, t).unwrap();
        shim.unlock(obj, t).unwrap();
        let fat = ObjRef::from_index(1);
        shim.lock(fat, t).unwrap();
        shim.unlock(fat, t).unwrap();
        let tot = shim.recorder().totals();
        assert_eq!((tot.locks, tot.unlocks), (3, 3));
        assert_eq!(
            (tot.fast_entries, tot.slow_entries, tot.fat_entries),
            (2, 0, 1)
        );
        assert_eq!(tot.nested, 1);
        assert_eq!(tot.acquire.count(), 3);
        assert_eq!(tot.unlock.count(), 3);
        assert_eq!(shim.recorder().busy_ns(t), tot.lock_ns + tot.unlock_ns);
    }

    #[test]
    fn untraced_recorder_samples_one_call_in_n() {
        let shim = Shim::new(BackendChoice::Thin.build(1), Recorder::new(false));
        let obj = shim.heap().alloc().unwrap();
        let reg = shim.registry().register().unwrap();
        for _ in 0..(3 * SAMPLE_EVERY) {
            shim.lock(obj, reg.token()).unwrap();
            shim.unlock(obj, reg.token()).unwrap();
        }
        let tot = shim.recorder().totals();
        assert_eq!(tot.syncs(), 3 * SAMPLE_EVERY);
        assert_eq!((tot.acquire.count(), tot.unlock.count()), (3, 3));
        assert_eq!(
            tot.fast_entries + tot.lock_ns,
            0,
            "untraced runs classify nothing"
        );
    }
}
