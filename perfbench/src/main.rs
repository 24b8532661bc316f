//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per invocation. The seed generates every input; the
//! program under test only ever sees the generated inputs. With
//! `--trace 0` the run is untraced and reports the end-to-end metrics;
//! with `--trace 1` it alternates untraced and traced passes over the
//! same inputs, wraps every call into a layer in an `obs` span, and
//! reports the per-layer metrics plus the tracing overhead. Human-readable
//! lines (prefixed `#`) come first; the last line of standard output is
//! one JSON object. See `README.md` beside this file for the workloads.

mod alg1;
mod mcinc;
mod report;
mod servemix;
mod spans;

use report::Outcome;
use std::time::Duration;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "alg1-solve",
    "alg1-preprocess",
    "serve-mixed",
    "mc-incremental",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    report::print_fingerprint(&args.workload, args.seed, args.seconds, args.trace);
    let mut out: Outcome = match args.workload.as_str() {
        "alg1-solve" => alg1::run(alg1::SOLVE, args.seed, args.seconds, args.trace),
        "alg1-preprocess" => alg1::run(alg1::PREPROCESS, args.seed, args.seconds, args.trace),
        "serve-mixed" => servemix::run(args.seed, args.seconds, args.trace),
        "mc-incremental" => mcinc::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload name validated in parse_args"),
    };
    out.metrics
        .insert("peak_rss_mb".into(), report::peak_rss_mb());
    println!("{}", out.to_json(args.trace));
}
