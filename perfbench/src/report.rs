//! Shared plumbing: metric lists, the result line, statistics, the
//! machine fingerprint and the seeded generator.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced run), as `BENCHMARK.json` lists them.
/// Every workload reports all of them.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("total_s", "s")];

/// The Algorithm-1 arms, by metric prefix.
pub const ARM_KEYS: [&str; 4] = ["baseline", "comp", "ours", "fraig"];

/// Per-layer metrics (traced run), as `BENCHMARK.json` lists them. A
/// workload that never calls a layer reports its metrics as 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for a in ARM_KEYS {
        add(format!("{a}.total_s"), "s");
        add(format!("{a}.stage_coverage"), "ratio");
        if a == "ours" || a == "fraig" {
            add(format!("{a}.rl.embed_s"), "s");
            add(format!("{a}.rl.infer_s"), "s");
            add(format!("{a}.rl.steps"), "count");
        }
        if a != "baseline" {
            for op in ["balance", "rewrite", "refactor", "resub"] {
                add(format!("{a}.synth.{op}_s"), "s");
            }
            add(format!("{a}.synth.calls"), "count");
            add(format!("{a}.synth.ands_in"), "count");
            add(format!("{a}.synth.ands_out"), "count");
        }
        if a == "fraig" {
            add(format!("{a}.sweep.fraig_s"), "s");
            add(format!("{a}.sweep.sat_calls"), "count");
            add(format!("{a}.sweep.proved"), "count");
            add(format!("{a}.sweep.useful_ratio"), "ratio");
            add(format!("{a}.sweep.ands_removed"), "count");
        }
        if a == "baseline" {
            add(format!("{a}.cnf.tseitin_s"), "s");
        } else {
            add(format!("{a}.mapper.map_s"), "s");
            add(format!("{a}.mapper.luts"), "count");
            add(format!("{a}.cnf.lut2cnf_s"), "s");
        }
        add(format!("{a}.cnf.vars"), "count");
        add(format!("{a}.cnf.clauses"), "count");
        add(format!("{a}.sat.solve_s"), "s");
        add(format!("{a}.sat.decisions"), "count");
        add(format!("{a}.sat.conflicts"), "count");
        add(format!("{a}.sat.propagations"), "count");
        add(format!("{a}.sat.props_per_s"), "1/s");
        add(format!("{a}.core.decode_verify_s"), "s");
    }
    for (name, unit) in [
        ("serve.p50_ms", "ms"),
        ("serve.p95_ms", "ms"),
        ("serve.submit_ms", "ms"),
        ("serve.hit_ratio", "ratio"),
        ("serve.dup_solves", "count"),
        ("serve.certs_verified", "count"),
        ("serve.hit_p50_ms", "ms"),
        ("serve.miss_p50_ms", "ms"),
        ("mc.bmc_s", "s"),
        ("mc.kind_s", "s"),
        ("mc.frames", "count"),
        ("mc.conflicts", "count"),
        ("trace.overhead_pct", "%"),
    ] {
        add(name.to_string(), unit);
    }
    v
}

/// Operations attempted and failed, plus anything that makes the run
/// incorrect (a wrong verdict, a counter that did not repeat).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    wrong: Vec<String>,
}

impl Tally {
    /// An operation that did not produce a usable answer (time-out,
    /// `Unknown`, shed, panic). Counted, not fatal.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        info(format!("FAILED {what}"));
    }

    /// A wrong verdict or a broken invariant: the run is incorrect.
    pub fn wrong(&mut self, what: String) {
        info(format!("WRONG {what}"));
        self.wrong.push(what);
    }

    /// A wrong answer is also a failed operation.
    pub fn wrong_op(&mut self, what: String) {
        self.failed += 1;
        self.wrong(what);
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Sets a metric; non-finite values (an empty ratio) read as 0.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.into(), v);
    }

    /// The result line: every end-to-end metric (`trace == false`) or
    /// every per-layer metric (`trace == true`), by name with its unit.
    pub fn to_json(&self, trace: bool) -> String {
        let e2e: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let layers = per_layer();
        for name in self.metrics.keys() {
            assert!(
                e2e.iter().chain(&layers).any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        let wanted = if trace { &layers } else { &e2e };
        let fields: Vec<String> = wanted
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.wrong.is_empty() && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        )
    }
}

/// A human-readable line; the result line stays last.
pub fn info(line: String) {
    println!("# {line}");
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Per-position minimum over repeated runs of the same operations (runs
/// may be shorter than others if they stopped early).
pub fn best_of(runs: &[&[f64]]) -> Vec<f64> {
    let n = runs.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            runs.iter()
                .filter_map(|r| r.get(i))
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Set-ups per run: at least `SETUP_MIN`, more while their total stays
/// under `SETUP_BUDGET`, so a set-up of a few milliseconds gets a median
/// over dozens of repetitions. `setup_s` is their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 64;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Runs the workload's set-up repeatedly; returns the last result, the
/// median wall time, and whether every repetition had the first one's
/// `fingerprint`. Each result is dropped before the next set-up starts,
/// so repetitions do not add to peak memory.
pub fn repeated_setup<T, F: PartialEq>(
    mut setup: impl FnMut() -> T,
    fingerprint: impl Fn(&T) -> F,
) -> (T, f64, bool) {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut first = None;
    let mut same = true;
    loop {
        let t = Instant::now();
        let out = setup();
        secs.push(t.elapsed().as_secs_f64());
        let fp = fingerprint(&out);
        match &first {
            None => first = Some(fp),
            Some(f) => same &= *f == fp,
        }
        let more =
            secs.len() < SETUP_MIN || (secs.len() < SETUP_MAX && start.elapsed() < SETUP_BUDGET);
        if !more {
            return (out, median(&secs), same);
        }
    }
}

/// The run's measuring budget: passes repeat while another pass of the
/// average length still fits (at least `min_passes` run).
pub struct PassClock {
    start: Instant,
    budget: Duration,
}

impl PassClock {
    pub fn start(budget: Duration) -> PassClock {
        PassClock {
            start: Instant::now(),
            budget,
        }
    }

    pub fn more(&self, passes_done: usize, min_passes: usize) -> bool {
        if passes_done < min_passes {
            return true;
        }
        let elapsed = self.start.elapsed();
        elapsed + elapsed / passes_done as u32 <= self.budget
    }
}

/// Prints the deterministic counters of a run and their digest. Two runs
/// of the same code on the same machine and seed print the same digest.
pub fn print_counters(lines: &[String]) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in lines {
        info(format!("count {l}"));
        for b in l.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    info(format!("counters_digest={h:016x}"));
}

pub fn print_fingerprint(workload: &str, seed: u64, seconds: Duration, trace: bool) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    info(format!("machine nproc={nproc} cpu=\"{cpu}\""));
    info(format!(
        "run workload={workload} seed={seed} seconds={} trace={}",
        seconds.as_secs_f64(),
        u8::from(trace)
    ));
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
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

/// SplitMix64: the benchmark's own seeded generator, so the inputs depend
/// only on `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
