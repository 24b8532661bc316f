//! `mc-incremental`: `BmcEngine::check_frames` depth sweeps and
//! `kind::prove` on `workloads::seq` machines. `mc` is the only caller of
//! the solver's incremental path (activation literals,
//! `solve_with_assumptions`); this workload keeps a change to `sat` from
//! slowing incremental solving unmeasured.

use crate::report::{self, info, quantile, Outcome, PassClock, Rng, Tally};
use crate::servemix::pattern_depth;
use crate::spans::SpanTree;
use aig::seq::SeqAig;
use mc::{prove, BmcEngine, BmcOptions, BmcResult, KindOptions, KindResult};
use std::time::{Duration, Instant};
use workloads::seq::{counter, mod_counter, pattern_fsm, retimed_adder_lec};

/// What a machine's property does.
#[derive(Clone, Copy, Debug)]
enum Truth {
    /// First fires at this frame.
    FailsAt(usize),
    /// Never fires.
    Holds,
}

enum Task {
    /// `check_frames(d)` for `d = step, 2·step, …, bound`, stopping at the
    /// first counterexample.
    Sweep { step: usize, bound: usize },
    /// k-induction up to strength `max_k`.
    Prove { max_k: usize },
}

struct Job {
    name: String,
    machine: SeqAig,
    truth: Truth,
    task: Task,
}

fn jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let modulus = 40 + rng.below(8) as u64;
    let pattern: Vec<bool> = (0..12).map(|_| rng.below(2) == 1).collect();
    let bits: String = pattern.iter().map(|&b| if b { '1' } else { '0' }).collect();
    let adder_bits = 8;
    vec![
        Job {
            name: "counter7".into(),
            machine: counter(7),
            truth: Truth::FailsAt(127),
            task: Task::Sweep {
                step: 8,
                bound: 160,
            },
        },
        Job {
            name: "counter9".into(),
            machine: counter(9),
            truth: Truth::FailsAt(511),
            task: Task::Sweep {
                step: 8,
                bound: 120,
            },
        },
        Job {
            name: format!("mod_counter6/{modulus}"),
            machine: mod_counter(6, modulus),
            truth: Truth::Holds,
            task: Task::Sweep { step: 8, bound: 96 },
        },
        Job {
            name: format!("mod_counter6/{modulus}"),
            machine: mod_counter(6, modulus),
            truth: Truth::Holds,
            task: Task::Prove { max_k: 80 },
        },
        Job {
            name: format!("retimed_adder{adder_bits}"),
            machine: retimed_adder_lec(adder_bits),
            truth: Truth::Holds,
            task: Task::Sweep { step: 4, bound: 40 },
        },
        Job {
            name: format!("retimed_adder{adder_bits}"),
            machine: retimed_adder_lec(adder_bits),
            truth: Truth::Holds,
            task: Task::Prove { max_k: 8 },
        },
        Job {
            name: format!("pattern{bits}"),
            machine: pattern_fsm(&pattern),
            truth: Truth::FailsAt(pattern_depth(&pattern)),
            task: Task::Sweep { step: 2, bound: 24 },
        },
        Job {
            name: "counter5".into(),
            machine: counter(5),
            truth: Truth::FailsAt(31),
            task: Task::Prove { max_k: 40 },
        },
    ]
}

/// Random simulation must agree with the known truth where it can
/// decide: no trace may fire before the first failure (or at all, for a
/// property that holds), within the job's depth.
fn check_truth(job: &Job, seed: u64) -> Result<(), String> {
    const TRACES_WORDS: u64 = 64;
    let depth = match job.task {
        Task::Sweep { bound, .. } => bound,
        Task::Prove { max_k } => max_k,
    };
    let horizon = match job.truth {
        Truth::FailsAt(d) => d.min(depth),
        Truth::Holds => depth,
    };
    let mut rng = Rng::new(seed);
    for _ in 0..TRACES_WORDS {
        let inputs: Vec<Vec<u64>> = (0..horizon)
            .map(|_| (0..job.machine.num_pis()).map(|_| rng.next_u64()).collect())
            .collect();
        let outs = job.machine.simulate_words(&inputs);
        if let Some(t) = outs.iter().position(|o| o.iter().any(|&w| w != 0)) {
            return Err(format!("{}: a random trace fires at frame {t}", job.name));
        }
    }
    Ok(())
}

/// A counterexample must replay through `SeqAig::simulate` and fire at
/// the known first frame.
fn check_cex(job: &Job, depth: usize, trace: &[Vec<bool>]) -> Result<(), String> {
    let Truth::FailsAt(expect) = job.truth else {
        return Err(format!(
            "counterexample at {depth} for a property that holds"
        ));
    };
    if depth != expect {
        return Err(format!(
            "counterexample at {depth}, first failure is at {expect}"
        ));
    }
    let outs = job.machine.simulate(trace);
    if trace.len() != depth + 1 || !outs[depth].iter().any(|&o| o) {
        return Err(format!("counterexample trace does not fire at {depth}"));
    }
    Ok(())
}

struct Pass {
    wall_s: f64,
    op_ms: Vec<f64>,
    bmc_s: f64,
    kind_s: f64,
    frames: u64,
    conflicts: u64,
    /// Per job: outcome and solver counters (deterministic).
    counts: Vec<String>,
}

fn run_job(job: &Job, root: &obs::Span, pass: &mut Pass, tally: &mut Tally) {
    let span = root.child("bench.job");
    match job.task {
        Task::Sweep { step, bound } => {
            let mut engine = BmcEngine::new(&job.machine, BmcOptions::default());
            let mut outcome = format!("clean@{bound}");
            for d in (step..=bound).step_by(step) {
                tally.attempted += 1;
                let t = Instant::now();
                let r = {
                    let _sp = span.child("mc.bmc");
                    engine.check_frames(d)
                };
                let secs = t.elapsed().as_secs_f64();
                pass.bmc_s += secs;
                pass.op_ms.push(secs * 1e3);
                let expect_cex = matches!(job.truth, Truth::FailsAt(f) if f < d);
                match r {
                    BmcResult::Cex { depth, trace } => {
                        if let Err(e) = check_cex(job, depth, &trace) {
                            tally.wrong_op(format!("{} bmc({d}): {e}", job.name));
                        }
                        outcome = format!("cex@{depth}");
                        break;
                    }
                    BmcResult::Clean { .. } if expect_cex => {
                        tally.wrong_op(format!("{} bmc({d}): clean, but fails earlier", job.name));
                    }
                    BmcResult::Clean { .. } => {}
                    BmcResult::Unknown { frame } => {
                        tally.fail(format!("{} bmc({d}): unknown at frame {frame}", job.name));
                        outcome = format!("unknown@{frame}");
                        break;
                    }
                }
            }
            pass.frames += engine.clean_frames() as u64;
            let st = engine.stats();
            pass.conflicts += st.conflicts;
            pass.counts.push(format!(
                "{} bmc {outcome} frames={} decisions={} conflicts={} propagations={}",
                job.name,
                engine.clean_frames(),
                st.decisions,
                st.conflicts,
                st.propagations
            ));
        }
        Task::Prove { max_k } => {
            tally.attempted += 1;
            let t = Instant::now();
            let r = {
                let _sp = span.child("mc.kind");
                prove(&job.machine, max_k, &KindOptions::default())
            };
            let secs = t.elapsed().as_secs_f64();
            pass.kind_s += secs;
            pass.op_ms.push(secs * 1e3);
            let outcome = match (&r, job.truth) {
                (KindResult::Proved { k }, Truth::Holds) => format!("proved@{k}"),
                (KindResult::Cex { depth, trace }, _) => {
                    if let Err(e) = check_cex(job, *depth, trace) {
                        tally.wrong_op(format!("{} kind: {e}", job.name));
                    }
                    format!("cex@{depth}")
                }
                (KindResult::Proved { k }, Truth::FailsAt(_)) => {
                    tally.wrong_op(format!(
                        "{} kind: proved at {k}, but the property fails",
                        job.name
                    ));
                    format!("proved@{k}")
                }
                (KindResult::Unknown { k }, _) => {
                    tally.fail(format!("{} kind: unknown at k={k}", job.name));
                    format!("unknown@{k}")
                }
            };
            pass.counts.push(format!("{} kind {outcome}", job.name));
        }
    }
}

fn run_pass(jobs: &[Job], traced: bool, tally: &mut Tally) -> Pass {
    let reg = if traced {
        obs::Registry::tracing()
    } else {
        obs::Registry::disabled()
    };
    let mut pass = Pass {
        wall_s: 0.0,
        op_ms: Vec::new(),
        bmc_s: 0.0,
        kind_s: 0.0,
        frames: 0,
        conflicts: 0,
        counts: Vec::new(),
    };
    let t0 = Instant::now();
    {
        let root = reg.span("bench.pass");
        for job in jobs {
            run_job(job, &root, &mut pass, tally);
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    if traced {
        // Span-derived layer times replace the clock reads of this pass.
        match SpanTree::drain(&reg) {
            Ok(tree) => {
                pass.bmc_s = tree.named("mc.bmc").map(|(_, s)| s.secs()).sum();
                pass.kind_s = tree.named("mc.kind").map(|(_, s)| s.secs()).sum();
            }
            Err(e) => tally.wrong(format!("trace stream invalid: {e}")),
        }
    }
    pass
}

pub fn run(seed: u64, seconds: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let ((jobs, errors), setup_s, _) = report::repeated_setup(
        || {
            let jobs = jobs(seed);
            let errors: Vec<String> = jobs
                .iter()
                .filter_map(|j| check_truth(j, seed).err())
                .collect();
            (jobs, errors)
        },
        |_| (),
    );
    out.set("setup_s", setup_s);
    for e in errors {
        out.tally.wrong(e);
    }
    info(format!(
        "mc jobs={}",
        jobs.iter()
            .map(|j| j.name.as_str())
            .collect::<Vec<_>>()
            .join(",")
    ));

    let clock = PassClock::start(seconds);
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let min_passes = if trace { 2 } else { 1 };
    while clock.more(passes.len(), min_passes) {
        let traced = trace && passes.len() % 2 == 1;
        passes.push((traced, run_pass(&jobs, traced, &mut out.tally)));
    }
    for (i, (_, p)) in passes.iter().enumerate() {
        if p.counts != passes[0].1.counts {
            out.tally
                .wrong(format!("pass {i} counters differ from pass 0"));
        }
    }

    // Each check's best time over the passes: the work is deterministic
    // (the gate above), so the minimum is least disturbed by other load.
    let best = |traced: bool| {
        let runs: Vec<&[f64]> = passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p.op_ms.as_slice())
            .collect();
        report::best_of(&runs)
    };
    let ops = best(false);
    let walls: Vec<f64> = passes
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, p)| p.wall_s)
        .collect();
    info(format!(
        "untraced passes={} wall_s={walls:?} ops_per_pass={}",
        walls.len(),
        ops.len()
    ));
    let untraced_total = ops.iter().sum::<f64>() / 1e3;
    info(format!(
        "latency per engine call p50_ms={:.2} p90_ms={:.2}",
        quantile(&ops, 0.5),
        quantile(&ops, 0.9)
    ));
    out.set("total_s", untraced_total);

    let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
    if !traced.is_empty() {
        let best_pass =
            |f: &dyn Fn(&Pass) -> f64| traced.iter().map(|p| f(p)).fold(f64::INFINITY, f64::min);
        out.set("mc.bmc_s", best_pass(&|p| p.bmc_s));
        out.set("mc.kind_s", best_pass(&|p| p.kind_s));
        out.set("mc.frames", best_pass(&|p| p.frames as f64));
        out.set("mc.conflicts", best_pass(&|p| p.conflicts as f64));
        let t = best(true).iter().sum::<f64>() / 1e3;
        info(format!(
            "tracing traced_total_s={t:.4} untraced_total_s={untraced_total:.4}"
        ));
        out.set(
            "trace.overhead_pct",
            100.0 * (t - untraced_total) / untraced_total,
        );
    }
    report::print_counters(&passes[0].1.counts);
    out
}
