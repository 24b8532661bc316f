//! Regenerates the **extension ablations** (not paper figures — see
//! DESIGN.md §5): SAT sweeping (fraig) ahead of the cost-customised
//! mapping, and SatELite-style CNF presolve behind it, measured on the
//! same hard test split as Fig. 4/5 plus the extended workload families.
//!
//! ```text
//! CSAT_SCALE=standard cargo run --release -p bench --bin run_ext
//! ```

use bench::experiments::{solver_preset, test_split, Scale};
use csat_preproc::report::{classify, Status};
use csat_preproc::{BaselinePipeline, FrameworkPipeline, Pipeline};
use rl::RecipePolicy;
use sat::presolve::{solve_cnf_presolved, PresolveConfig};
use sat::solve_cnf;
use std::time::Instant;
use sweep::FraigParams;
use synth::Recipe;
use workloads::dataset::{generate_extended, DatasetParams};
use workloads::Instance;

fn main() {
    let scale = Scale::from_env(Scale::standard());
    let solver = solver_preset("kissat");
    let budget = scale.budget();

    // Arm set: Baseline, Ours, Ours+fraig; each also solved with presolve.
    let policy = || RecipePolicy::Fixed(Recipe::size_script());
    let arms: Vec<(&str, Box<dyn Pipeline>)> = vec![
        ("Baseline", Box::new(BaselinePipeline)),
        ("Ours", Box::new(FrameworkPipeline::ours(policy()))),
        (
            "Ours+fraig",
            Box::new(FrameworkPipeline::ours(policy()).with_sweep(FraigParams::default())),
        ),
    ];

    let mut wrong = 0;
    for (set_name, instances) in [
        ("hard test split (Fig. 4/5 instances)", test_split(&scale)),
        (
            "extended families (prefix adders / tree multipliers / shifters)",
            generate_extended(
                &DatasetParams {
                    count: scale.test_count / 2,
                    min_bits: scale.test_bits.0,
                    max_bits: scale.test_bits.1,
                    hard_multipliers: false,
                },
                0xE87,
            ),
        ),
    ] {
        println!("==================== {set_name} ====================");
        println!(
            "{:<12} {:>7} {:>6} {:>14} {:>12} | {:>14} {:>12}",
            "pipeline",
            "solved",
            "wrong",
            "total time (s)",
            "decisions",
            "+presolve t(s)",
            "decisions"
        );
        for (name, p) in &arms {
            let mut report = ArmReport::default();
            for inst in &instances {
                measure(p.as_ref(), inst, &solver, &budget, &mut report);
            }
            println!(
                "{:<12} {:>7} {:>6} {:>14.2} {:>12} | {:>14.2} {:>12}",
                name,
                report.solved,
                report.wrong,
                report.plain_secs,
                report.plain_decisions,
                report.presolved_secs,
                report.presolved_decisions
            );
            wrong += report.wrong;
        }
        println!();
    }
    if wrong > 0 {
        eprintln!("{wrong} wrong answer(s)");
        std::process::exit(1);
    }
}

#[derive(Default)]
struct ArmReport {
    solved: usize,
    /// Verdicts, plain or presolved, that failed their check.
    wrong: usize,
    plain_secs: f64,
    plain_decisions: u64,
    presolved_secs: f64,
    presolved_decisions: u64,
}

fn measure(
    p: &dyn Pipeline,
    inst: &Instance,
    solver: &sat::SolverConfig,
    budget: &sat::Budget,
    report: &mut ArmReport,
) {
    let t0 = Instant::now();
    let pre = p.preprocess(&inst.aig);
    let preprocess = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (res, stats) = solve_cnf(&pre.cnf, solver.clone(), budget.clone());
    report.plain_secs += preprocess + t0.elapsed().as_secs_f64();
    report.plain_decisions += stats.decisions;
    match classify(&inst.aig, &pre, &res, inst.expected) {
        Status::Sat | Status::Unsat => report.solved += 1,
        Status::Timeout => {}
        Status::Wrong { reason } => {
            eprintln!("WRONG ANSWER: {} on {}: {reason}", p.name(), inst.name);
            report.wrong += 1;
        }
    }

    let t0 = Instant::now();
    let (res2, stats2) = solve_cnf_presolved(
        &pre.cnf,
        solver.clone(),
        budget.clone(),
        &PresolveConfig::default(),
    );
    report.presolved_secs += preprocess + t0.elapsed().as_secs_f64();
    report.presolved_decisions += stats2.decisions;
    if let Status::Wrong { reason } = classify(&inst.aig, &pre, &res2, inst.expected) {
        eprintln!(
            "WRONG ANSWER: {} + presolve on {}: {reason}",
            p.name(),
            inst.name
        );
        report.wrong += 1;
    }
}
