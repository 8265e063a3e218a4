//! The repository benchmark: three workloads over the thin backend,
//! end-to-end metrics from untraced rounds and per-layer metrics from
//! traced ones. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tax-replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! host fingerprint, its calibration and the sample counts.

mod hist;
mod host;
mod report;
mod server;
mod shim;
mod tax;
mod vmsync;
mod workload;

use std::process::ExitCode;

use workload::Round;

/// The workloads, by command-line name.
const WORKLOADS: [&str; 3] = ["tax-replay", "vm-sync", "server-2t"];

/// Rounds of an untraced run; the end-to-end metrics pool their timed
/// phases, and `setup_s` is the median of their set-up times.
const ROUNDS: usize = 10;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad(&"must be 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn round(workload: &str, seed: u64, seconds: f64, traced: bool) -> Round {
    match workload {
        "tax-replay" => tax::round(seed, seconds, traced),
        "vm-sync" => vmsync::round(seed, seconds, traced),
        "server-2t" => server::round(seed, seconds, traced),
        _ => unreachable!("parse admits only known workloads"),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    // Traced runs measure untraced rounds too, for the tracing overhead.
    let plan: Vec<bool> = if args.trace {
        vec![false, false, true, true]
    } else {
        vec![false; ROUNDS]
    };
    let per_round = args.seconds / plan.len() as f64;
    let rounds: Vec<Round> = plan
        .iter()
        .map(|&traced| round(&args.workload, args.seed, per_round, traced))
        .collect();
    let peak_mb = host::peak_rss_mb();
    let result = report::Report::new(&rounds, &host, peak_mb);
    println!(
        "{}",
        result.info_json(&args.workload, args.seed, args.seconds, &host)
    );
    println!("{}", result.result_json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_command_line_is_checked_where_it_enters() {
        let a = args("--workload vm-sync --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("vm-sync", 9, 10.0, true)
        );
        assert!(args("--workload nope --seed 9 --seconds 10 --trace 1").is_err());
        assert!(args("--workload vm-sync --seed -1 --seconds 10 --trace 1").is_err());
        assert!(args("--workload vm-sync --seed 1 --seconds 0 --trace 1").is_err());
        assert!(args("--workload vm-sync --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload vm-sync --seed 1 --seconds 10").is_err());
        assert!(args("--workload vm-sync --seed 1 --seconds 10 --trace").is_err());
    }
}
