//! Turns rounds into the metrics `BENCHMARK.json` names, and prints them.
//!
//! End-to-end metrics come from untraced rounds only; per-layer metrics
//! from traced rounds, except `bench.trace_overhead`, which compares the
//! two. End-to-end rates and percentiles pool the timed phases of all
//! untraced rounds: the rates are total work over total time, and the
//! percentiles come from the rounds' merged histograms. A shared host's
//! speed drifts over seconds, and every round sees a different part of
//! that drift, so the whole run's average is steadier than any one round's
//! value or a median of them. `setup_s` is the median of the rounds'
//! set-up times. Per-layer percentiles
//! come from the traced rounds' merged histograms, and counts are
//! per-round medians. Per-layer values cover the timed phase, except the
//! slow-path spans and `core.inflations`, which cover the whole round.

use std::fmt::Write;

use crate::hist::Hist;
use crate::host::Host;
use crate::shim::Totals;
use crate::workload::{Round, Spans};

/// A named value with its unit.
type Metric = (&'static str, f64, &'static str);

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn syncs_per_s(r: &Round) -> f64 {
    ratio(r.shim.syncs() as f64, r.wall_s)
}

/// The metrics of one run.
#[derive(Debug)]
pub struct Report {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
    acquire_samples: u64,
    op_samples: u64,
    hot_fat_at_start: u64,
    warmup_forced: u64,
    round_syncs_per_s: Vec<f64>,
}

impl Report {
    /// Summarizes `rounds`; `peak_mb` is the run's peak resident set.
    pub fn new(rounds: &[Round], host: &Host, peak_mb: f64) -> Report {
        let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let med =
            |rs: &[&Round], f: &dyn Fn(&Round) -> f64| median(rs.iter().map(|r| f(r)).collect());
        let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
        let failed: u64 = rounds.iter().map(|r| r.failed).sum();
        let mut pooled = Totals::default();
        let (mut op_ns, mut wall_s, mut cpu_s) = (Hist::default(), 0.0, 0.0);
        for r in &untraced {
            pooled.merge(&r.shim);
            op_ns.merge(&r.op_ns);
            wall_s += r.wall_s;
            cpu_s += r.cpu_s;
        }
        let syncs = pooled.syncs() as f64;
        let end_to_end = vec![
            ("syncs_per_s", ratio(syncs, wall_s), "1/s"),
            ("cpu_ns_per_sync", ratio(cpu_s * 1e9, syncs), "ns"),
            ("acquire_p50_ns", pooled.acquire.quantile(0.50), "ns"),
            ("acquire_p99_ns", pooled.acquire.quantile(0.99), "ns"),
            ("op_p50_us", op_ns.quantile(0.50) / 1e3, "us"),
            ("op_p99_us", op_ns.quantile(0.99) / 1e3, "us"),
            ("mem_peak_mb", peak_mb, "MB"),
            ("setup_s", med(&untraced, &|r| r.setup_s), "s"),
            (
                "success_rate",
                ratio((attempted - failed) as f64, attempted as f64),
                "ratio",
            ),
        ];

        let mut shim = Totals::default();
        let mut spans = Spans::default();
        let mut slow_lock = Hist::default();
        for r in &traced {
            shim.merge(&r.shim);
            spans.merge(&r.spans);
            slow_lock.merge(&r.slow_lock_all);
        }
        let thread_ns: f64 = traced
            .iter()
            .map(|r| r.wall_s * 1e9 * f64::from(r.threads))
            .sum();
        let locks = shim.locks as f64;
        let runs = spans.run.count() as f64;
        let per_layer = vec![
            (
                "runtime.alloc_calls",
                med(&traced, &|r| r.spans.alloc.count() as f64),
                "count",
            ),
            ("runtime.alloc_ns_p50", spans.alloc.quantile(0.50), "ns"),
            ("runtime.register_ns", spans.register.quantile(0.50), "ns"),
            (
                "core.lock_calls",
                med(&traced, &|r| r.shim.locks as f64),
                "count",
            ),
            (
                "core.unlock_calls",
                med(&traced, &|r| r.shim.unlocks as f64),
                "count",
            ),
            (
                "core.nested_share",
                ratio(shim.nested as f64, locks),
                "ratio",
            ),
            (
                "core.fast_entry_share",
                ratio(shim.fast_entries as f64, locks),
                "ratio",
            ),
            ("core.fast_lock_ns_p50", shim.fast_lock.quantile(0.50), "ns"),
            ("core.unlock_ns_p50", shim.unlock.quantile(0.50), "ns"),
            (
                "core.busy_share",
                ratio((shim.lock_ns + shim.unlock_ns) as f64, thread_ns),
                "ratio",
            ),
            ("core.slow_lock_ns_p50", slow_lock.quantile(0.50), "ns"),
            ("core.slow_lock_ns_p99", slow_lock.quantile(0.99), "ns"),
            (
                "core.inflations",
                med(&traced, &|r| r.inflations as f64),
                "count",
            ),
            (
                "core.inflations_timed",
                traced.iter().map(|r| r.inflations_timed).max().unwrap_or(0) as f64,
                "count",
            ),
            (
                "monitor.fat_entry_share",
                ratio(shim.fat_entries as f64, locks),
                "ratio",
            ),
            (
                "monitor.fat_lock_ns_p50",
                shim.fat_lock.quantile(0.50),
                "ns",
            ),
            (
                "monitor.fat_lock_ns_p99",
                shim.fat_lock.quantile(0.99),
                "ns",
            ),
            (
                "monitor.monitors_peak",
                traced.iter().map(|r| r.monitors_peak).max().unwrap_or(0) as f64,
                "count",
            ),
            (
                "vm.run_calls",
                med(&traced, &|r| r.spans.run.count() as f64),
                "count",
            ),
            ("vm.run_us_p50", spans.run.quantile(0.50) / 1e3, "us"),
            ("vm.run_us_p99", spans.run.quantile(0.99) / 1e3, "us"),
            (
                "vm.syncs_per_run",
                ratio(shim.syncs() as f64, runs),
                "count",
            ),
            (
                "vm.self_share",
                ratio(
                    spans.run_ns.saturating_sub(spans.run_child_ns) as f64,
                    spans.run_ns as f64,
                ),
                "ratio",
            ),
            (
                "trace.work_share",
                ratio(spans.work_ns as f64, thread_ns),
                "ratio",
            ),
            ("host.cas_pair_ns", host.cas_pair_ns, "ns"),
            ("host.timer_pair_ns", host.timer_pair_ns, "ns"),
            (
                "bench.trace_overhead",
                ratio(med(&traced, &syncs_per_s), med(&untraced, &syncs_per_s)),
                "ratio",
            ),
        ];
        Report {
            end_to_end,
            per_layer,
            attempted,
            failed,
            acquire_samples: untraced.iter().map(|r| r.shim.acquire.count()).sum(),
            op_samples: untraced.iter().map(|r| r.op_ns.count()).sum(),
            hot_fat_at_start: rounds.iter().map(|r| r.hot_fat_at_start).min().unwrap_or(0),
            warmup_forced: rounds.iter().map(|r| r.warmup_forced).sum(),
            round_syncs_per_s: rounds.iter().map(syncs_per_s).collect(),
        }
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut s = String::new();
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{s}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }

    /// The line before the result: host, calibration, sample counts and
    /// every round's `syncs_per_s`, which shows how steady the host was.
    pub fn info_json(&self, workload: &str, seed: u64, seconds: f64, host: &Host) -> String {
        let model: String = host
            .cpu_model
            .chars()
            .filter(|c| !matches!(c, '"' | '\\') && !c.is_control())
            .collect();
        let rates: Vec<String> = self
            .round_syncs_per_s
            .iter()
            .map(|v| format!("{:.0}", if v.is_finite() { *v } else { 0.0 }))
            .collect();
        format!(
            "{{\"info\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"host\": {{\"cpu_model\": \"{model}\", \"nproc\": {}, \"cas_pair_ns\": {}, \
             \"timer_pair_ns\": {}}}, \"acquire_samples\": {}, \"op_samples\": {}, \
             \"hot_fat_at_start_min\": {}, \"warmup_forced\": {}, \
             \"round_syncs_per_s\": [{}]}}}}",
            host.nproc,
            host.cas_pair_ns,
            host.timer_pair_ns,
            self.acquire_samples,
            self.op_samples,
            self.hot_fat_at_start,
            self.warmup_forced,
            rates.join(", ")
        )
    }
}
