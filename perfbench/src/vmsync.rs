//! `vm-sync`: one thread makes a seeded sequence of short `Vm::run` calls.
//!
//! The programs are the single-threaded Table 2 micro-benchmarks and
//! three programs over the synchronized class library (`VectorLib`,
//! `HashtableLib` and `javalex_like`), so the interpreter's dispatch loop,
//! `monitorenter`/`monitorexit` and synchronized invocation do most of the
//! work. Each call's iteration count is drawn from the seed and its result
//! is checked against the value computed here. An op is one `Vm::run`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use thinlock::ThinLocks;
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::prng::Prng;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};
use thinlock_vm::asm::assemble;
use thinlock_vm::error::VmError;
use thinlock_vm::library::{install_hashtable, install_vector, javalex_expected, javalex_like};
use thinlock_vm::programs::MicroBench;
use thinlock_vm::{Program, Value, Vm};

use crate::hist::Hist;
use crate::shim::{Recorder, Shim};
use crate::workload::{nanos, Round, Spans, Stamp};

/// Hashtable buckets: twice the largest key count, so `put` never probes
/// a full table.
const BUCKETS: u16 = 1031;
/// Instance fields per heap object: enough for the hashtable and for a
/// vector of the largest iteration count.
const FIELDS: usize = 1 + 2 * BUCKETS as usize;
/// Calls in the seeded sequence; the timed loop cycles through it.
const SEQUENCE: usize = 8192;
/// Calls run as warm-up before timing.
const WARMUP_CALLS: usize = 1024;

/// A program of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A single-threaded Table 2 micro-benchmark.
    Micro(MicroBench),
    /// Fill a `VectorLib` vector, then sum it through `elementAt`.
    Vector,
    /// Fill a `HashtableLib` table, then sum it through `get`.
    Hashtable,
    /// `javalex_like`: fill a vector, then ten scan passes.
    Javalex,
}

/// The mix, with the range each program's iteration count is drawn from
/// (chosen so every call takes tens of microseconds).
pub const MIX: [(Kind, i32, i32); 10] = [
    (Kind::Micro(MicroBench::NoSync), 200, 2000),
    (Kind::Micro(MicroBench::Sync), 100, 1000),
    (Kind::Micro(MicroBench::NestedSync), 100, 1000),
    (Kind::Micro(MicroBench::MultiSync(64)), 4, 32),
    (Kind::Micro(MicroBench::Call), 100, 1000),
    (Kind::Micro(MicroBench::CallSync), 100, 1000),
    (Kind::Micro(MicroBench::NestedCallSync), 100, 1000),
    (Kind::Vector, 32, 512),
    (Kind::Hashtable, 32, 512),
    (Kind::Javalex, 16, 128),
];

/// One call of the sequence: which program of [`MIX`], and its argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Call {
    /// Index into [`MIX`].
    pub program: usize,
    /// The `main(n)` argument.
    pub n: i32,
}

/// The op stream for `seed`.
pub fn generate(seed: u64) -> Vec<Call> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..SEQUENCE)
        .map(|_| {
            let program = rng.range_usize(0, MIX.len());
            let (_, lo, hi) = MIX[program];
            Call {
                program,
                n: rng.range_i32(lo, hi + 1),
            }
        })
        .collect()
}

/// The value `main(n)` must return.
pub fn expected(kind: Kind, n: i32) -> i32 {
    let sum = |f: fn(i32) -> i32| (0..n).fold(0i32, |acc, k| acc.wrapping_add(f(k)));
    match kind {
        Kind::Micro(m) => m.expected(n),
        Kind::Vector => sum(|k| 3 * k + 1),
        Kind::Hashtable => sum(|k| 7 * k + 3),
        Kind::Javalex => javalex_expected(n),
    }
}

/// The vm-sync check: the call returned its expected value.
pub fn check(expected: i32, got: &Result<Option<Value>, VmError>) -> bool {
    matches!(got, Ok(Some(Value::Int(v))) if *v == expected)
}

/// `main(n)` over `VectorLib`: append `3k + 1` for `k < n`, then sum the
/// elements back through `size` and `elementAt`.
fn vector_program() -> Program {
    let main = assemble(
        "\
pool 1
method main args=1 locals=3 returns {
  iconst 0
  istore 1
fill:
  iload 1
  iload 0
  if_icmpge sum_init
  aconst 0
  iload 1
  iconst 3
  imul
  iconst 1
  iadd
  invoke 1
  iinc 1 1
  goto fill
sum_init:
  iconst 0
  istore 1
  iconst 0
  istore 2
sum:
  iload 1
  aconst 0
  invoke 3
  if_icmpge done
  iload 2
  aconst 0
  iload 1
  invoke 2
  iadd
  istore 2
  iinc 1 1
  goto sum
done:
  iload 2
  ireturn
}
",
    )
    .expect("vector main assembles");
    let mut program = Program::new(1);
    program.add_method(main.methods()[0].clone());
    let lib = install_vector(&mut program);
    assert_eq!((lib.add, lib.get, lib.size), (1, 2, 3));
    program
}

/// `main(n)` over `HashtableLib`: put `k + 1 -> 7k + 3` for `k < n`, then
/// sum the values back through `get`. Later calls overwrite the same
/// keys with the same values, so the table needs no reset.
fn hashtable_program() -> Program {
    let main = assemble(
        "\
pool 1
method main args=1 locals=3 returns {
  iconst 0
  istore 1
fill:
  iload 1
  iload 0
  if_icmpge sum_init
  aconst 0
  iload 1
  iconst 1
  iadd
  iload 1
  iconst 7
  imul
  iconst 3
  iadd
  invoke 1
  iinc 1 1
  goto fill
sum_init:
  iconst 0
  istore 1
  iconst 0
  istore 2
sum:
  iload 1
  iload 0
  if_icmpge done
  iload 2
  aconst 0
  iload 1
  iconst 1
  iadd
  invoke 2
  iadd
  istore 2
  iinc 1 1
  goto sum
done:
  iload 2
  ireturn
}
",
    )
    .expect("hashtable main assembles");
    let mut program = Program::new(1);
    program.add_method(main.methods()[0].clone());
    let lib = install_hashtable(&mut program, BUCKETS);
    assert_eq!((lib.put, lib.get), (1, 2));
    program
}

fn build(kind: Kind) -> Program {
    match kind {
        Kind::Micro(m) => m.program(),
        Kind::Vector => vector_program(),
        Kind::Hashtable => hashtable_program(),
        Kind::Javalex => javalex_like(),
    }
}

/// One VM per program of the mix, ready to run calls.
struct Machine<'p> {
    vms: Vec<Vm<'p, Shim>>,
    /// Vector receivers whose size field is cleared before each call.
    vectors: Vec<Option<ObjRef>>,
}

impl<'p> Machine<'p> {
    fn new(shim: &'p Shim, programs: &'p [Program], spans: &mut Spans) -> Self {
        let mut vms = Vec::new();
        let mut vectors = Vec::new();
        for ((kind, _, _), program) in MIX.iter().zip(programs) {
            let pool: Vec<ObjRef> = (0..program.pool_size())
                .map(|_| spans.alloc(shim.heap()).expect("heap sized for every pool"))
                .collect();
            vectors.push(matches!(kind, Kind::Vector | Kind::Javalex).then(|| pool[0]));
            vms.push(Vm::new(shim, program, pool).expect("mix programs validate"));
        }
        Machine { vms, vectors }
    }

    /// Runs one call; returns whether it passed and its duration.
    fn call(&self, shim: &Shim, token: ThreadToken, call: Call) -> (bool, Duration) {
        if let Some(v) = self.vectors[call.program] {
            shim.heap().field(v, 0).store(0, Ordering::Relaxed);
        }
        let want = expected(MIX[call.program].0, call.n);
        let start = Instant::now();
        let got = self.vms[call.program].run("main", token, &[Value::Int(call.n)]);
        let took = start.elapsed();
        (check(want, &got), took)
    }
}

/// One round: build the programs and a thin backend over a heap with
/// fields, warm up, then run calls until `seconds` have been measured.
///
/// `BackendChoice::build` makes field-less heaps, and the library classes
/// keep their state in fields, so the backend is the same `ThinLocks`
/// the choice builds, constructed over a heap with fields.
pub fn round(seed: u64, seconds: f64, traced: bool) -> Round {
    let setup = Stamp::now();
    let mut spans = Spans::new(traced);
    let calls = generate(seed);
    let programs: Vec<Program> = MIX.iter().map(|&(k, _, _)| build(k)).collect();
    let objects: usize = programs.iter().map(|p| p.pool_size() as usize).sum();
    let heap = Arc::new(Heap::with_capacity_and_fields(objects, FIELDS));
    let shim = Shim::new(
        Arc::new(ThinLocks::new(heap, ThreadRegistry::new())),
        Recorder::new(traced),
    );
    let reg = spans
        .register(shim.registry())
        .expect("a fresh registry has room for one thread");
    let t = reg.token();
    let machine = Machine::new(&shim, &programs, &mut spans);
    for &call in calls.iter().take(WARMUP_CALLS) {
        machine.call(&shim, t, call);
    }

    let mut round = Round {
        traced,
        threads: 1,
        setup_s: setup.at.elapsed().as_secs_f64(),
        ..Round::default()
    };
    let before = shim.recorder().totals();
    let inflations_before = shim.inflation_count();
    let start = Stamp::now();
    let deadline = start.at + Duration::from_secs_f64(seconds);
    let mut op_ns = Hist::default();
    let mut next = WARMUP_CALLS;
    loop {
        let call = calls[next % calls.len()];
        next += 1;
        let busy = shim.recorder().busy_ns(t);
        let (ok, took) = machine.call(&shim, t, call);
        round.ops += 1;
        round.failed += u64::from(!ok);
        op_ns.record(nanos(took));
        if traced {
            spans.run.record(nanos(took));
            spans.run_ns += nanos(took);
            spans.run_child_ns += shim.recorder().busy_ns(t) - busy;
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let end = Stamp::now();
    (round.wall_s, round.cpu_s) = start.until(end);
    let all = shim.recorder().totals();
    round.shim = all.since(&before);
    round.slow_lock_all = all.slow_lock;
    round.op_ns = op_ns;
    round.spans = spans;
    round.inflations = shim.inflation_count();
    round.inflations_timed = round.inflations - inflations_before;
    round.monitors_peak = shim.monitors_peak() as u64;
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
    fn every_program_returns_its_expected_value_and_a_wrong_one_fails() {
        let programs: Vec<Program> = MIX.iter().map(|&(k, _, _)| build(k)).collect();
        let objects: usize = programs.iter().map(|p| p.pool_size() as usize).sum();
        let heap = Arc::new(Heap::with_capacity_and_fields(objects, FIELDS));
        let shim = Shim::new(
            Arc::new(ThinLocks::new(heap, ThreadRegistry::new())),
            Recorder::new(false),
        );
        let reg = shim.registry().register().unwrap();
        let machine = Machine::new(&shim, &programs, &mut Spans::new(false));
        for (program, &(_, lo, hi)) in MIX.iter().enumerate() {
            for n in [lo, hi, lo, hi] {
                let (ok, _) = machine.call(&shim, reg.token(), Call { program, n });
                assert!(ok, "program {program} n {n}");
            }
        }
        assert!(check(45, &Ok(Some(Value::Int(45)))));
        assert!(
            !check(45, &Ok(Some(Value::Int(44)))),
            "a wrong return value fails"
        );
        assert!(!check(45, &Ok(None)));
        assert!(!check(45, &Err(VmError::BadMethod { id: 9 })));
    }
}
