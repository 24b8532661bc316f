//! Experiment execution and reporting: run pipelines over instance sets,
//! collect per-instance records, and derive the paper's plots/tables
//! (cactus curves, totals, Table-I statistics).

use crate::pipeline::Pipeline;
use aig::Aig;
use sat::{solve_cnf, Budget, SolveResult, SolverConfig, Stats};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use workloads::Instance;

/// Outcome of one (pipeline, instance, solver) run.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub enum Status {
    /// Satisfiable; the decoded model satisfies the original circuit.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted (the paper's TO).
    Timeout,
    /// A verdict that fails its check: a decoded model that does not
    /// satisfy the circuit, or a verdict contradicting the instance label.
    /// Never counted as solved; campaigns exit non-zero on it.
    Wrong {
        /// What the check found.
        reason: String,
    },
}

/// One run record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    /// Instance name.
    pub instance: String,
    /// Pipeline name.
    pub pipeline: String,
    /// Solver preset name.
    pub solver: String,
    /// Outcome.
    pub status: Status,
    /// Branching decisions (the paper's core metric).
    pub decisions: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// CNF variables handed to the solver.
    pub cnf_vars: u32,
    /// CNF clauses handed to the solver.
    pub cnf_clauses: usize,
    /// Preprocessing seconds (RL inference + transformation time).
    pub preprocess_secs: f64,
    /// Solving seconds.
    pub solve_secs: f64,
    /// Executed synthesis recipe.
    pub recipe: String,
}

impl RunRecord {
    /// Total runtime of the run (preprocess + solve), as the paper reports.
    pub fn total_secs(&self) -> f64 {
        self.preprocess_secs + self.solve_secs
    }

    /// True when the run finished within budget with a checked verdict.
    pub fn solved(&self) -> bool {
        matches!(self.status, Status::Sat | Status::Unsat)
    }

    /// True when the verdict failed its check ([`Status::Wrong`]).
    pub fn wrong(&self) -> bool {
        matches!(self.status, Status::Wrong { .. })
    }
}

/// Runs one pipeline on one instance with one solver preset.
pub fn run_one(
    pipeline: &dyn Pipeline,
    instance: &Instance,
    solver_name: &str,
    solver: &SolverConfig,
    budget: Budget,
) -> RunRecord {
    let pre = pipeline.preprocess(&instance.aig);
    let t0 = Instant::now();
    let (result, stats) = solve_cnf(&pre.cnf, solver.clone(), budget);
    let solve_secs = t0.elapsed().as_secs_f64();
    let status = classify(&instance.aig, &pre, &result, instance.expected);
    let Stats {
        decisions,
        conflicts,
        ..
    } = stats;
    RunRecord {
        instance: instance.name.clone(),
        pipeline: pipeline.name(),
        solver: solver_name.to_string(),
        status,
        decisions,
        conflicts,
        cnf_vars: pre.cnf.num_vars(),
        cnf_clauses: pre.cnf.num_clauses(),
        preprocess_secs: pre.preprocess_time.as_secs_f64(),
        solve_secs,
        recipe: pre.recipe,
    }
}

/// Checks a solver verdict on the original circuit `aig`: a model is
/// decoded through `pre` and replayed, and both verdicts are held against
/// the instance label `expected` (if any). A failed check is
/// [`Status::Wrong`], in release builds too.
pub fn classify(
    aig: &Aig,
    pre: &crate::pipeline::PreprocessResult,
    result: &SolveResult,
    expected: Option<bool>,
) -> Status {
    let wrong = |reason: &str| Status::Wrong {
        reason: reason.to_string(),
    };
    match result {
        SolveResult::Sat(model) => {
            let ins = pre.decoder.decode_inputs(model);
            if !aig.eval(&ins).iter().any(|&o| o) {
                wrong("decoded model does not satisfy the instance")
            } else if expected == Some(false) {
                wrong("instance labelled UNSAT produced a model")
            } else {
                Status::Sat
            }
        }
        SolveResult::Unsat if expected == Some(true) => wrong("instance labelled SAT proved UNSAT"),
        SolveResult::Unsat => Status::Unsat,
        SolveResult::Unknown => Status::Timeout,
    }
}

/// Runs a pipeline over a whole instance set.
pub fn run_campaign(
    pipeline: &dyn Pipeline,
    instances: &[Instance],
    solver_name: &str,
    solver: &SolverConfig,
    budget: Budget,
) -> Vec<RunRecord> {
    instances
        .iter()
        .map(|inst| run_one(pipeline, inst, solver_name, solver, budget.clone()))
        .collect()
}

/// Cactus-plot data: after sorting solved runs by total runtime, point `i`
/// is (cumulative seconds, instances solved). This is exactly the paper's
/// Fig. 4/5 presentation.
pub fn cactus(records: &[RunRecord]) -> Vec<(f64, usize)> {
    let mut times: Vec<f64> = records
        .iter()
        .filter(|r| r.solved())
        .map(RunRecord::total_secs)
        .collect();
    times.sort_by(f64::total_cmp);
    let mut out = Vec::with_capacity(times.len());
    let mut acc = 0.0;
    for (i, t) in times.into_iter().enumerate() {
        acc += t;
        out.push((acc, i + 1));
    }
    out
}

/// Total runtime with time-outs charged at `penalty_secs` (the paper uses
/// the 1000 s limit itself).
pub fn total_runtime(records: &[RunRecord], penalty_secs: f64) -> f64 {
    records
        .iter()
        .map(|r| {
            if r.solved() {
                r.total_secs()
            } else {
                penalty_secs
            }
        })
        .sum()
}

/// Runs whose verdict failed its check ([`Status::Wrong`]).
pub fn count_wrong(records: &[RunRecord]) -> usize {
    records.iter().filter(|r| r.wrong()).count()
}

/// Total branching decisions across a campaign.
pub fn total_decisions(records: &[RunRecord]) -> u64 {
    records.iter().map(|r| r.decisions).sum()
}

/// Avg/Std/Min/Max summary of a sample (Table I's row format).
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub struct Summary {
    /// Mean.
    pub avg: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes a [`Summary`]; returns zeros on an empty sample.
pub fn summarize(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary {
            avg: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let n = xs.len() as f64;
    let avg = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - avg) * (x - avg)).sum::<f64>() / n;
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Summary {
        avg,
        std: var.sqrt(),
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::BaselinePipeline;
    use workloads::dataset::{generate, DatasetParams};

    #[test]
    fn campaign_produces_valid_records() {
        let set = generate(
            &DatasetParams {
                count: 4,
                min_bits: 4,
                max_bits: 6,
                hard_multipliers: false,
            },
            8,
        );
        let records = run_campaign(
            &BaselinePipeline,
            &set,
            "kissat",
            &SolverConfig::kissat_like(),
            Budget::conflicts(200_000),
        );
        assert_eq!(records.len(), 4);
        for r in &records {
            assert!(!r.wrong(), "{}: {:?}", r.instance, r.status);
            assert!(r.cnf_vars > 0);
        }
    }

    #[test]
    fn cactus_monotone() {
        let set = generate(
            &DatasetParams {
                count: 5,
                min_bits: 4,
                max_bits: 6,
                hard_multipliers: false,
            },
            9,
        );
        let records = run_campaign(
            &BaselinePipeline,
            &set,
            "kissat",
            &SolverConfig::kissat_like(),
            Budget::conflicts(200_000),
        );
        let c = cactus(&records);
        assert!(!c.is_empty());
        for w in c.windows(2) {
            assert!(w[1].0 >= w[0].0, "cumulative time must not decrease");
            assert_eq!(w[1].1, w[0].1 + 1);
        }
    }

    #[test]
    fn summary_stats() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.avg, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std - 1.118).abs() < 1e-3);
        let empty = summarize(&[]);
        assert_eq!(empty.avg, 0.0);
    }

    #[test]
    fn classify_rejects_forged_verdicts() {
        // x AND y: the only model sets both inputs.
        let mut g = Aig::new();
        let x = g.add_pi();
        let y = g.add_pi();
        let o = g.and(x, y);
        g.add_po(o);
        let pre = BaselinePipeline.preprocess(&g);
        let (result, _) = solve_cnf(&pre.cnf, SolverConfig::default(), Budget::conflicts(1000));
        let SolveResult::Sat(model) = &result else {
            panic!("x AND y is satisfiable");
        };
        assert_eq!(classify(&g, &pre, &result, Some(true)), Status::Sat);
        assert!(matches!(
            classify(&g, &pre, &result, Some(false)),
            Status::Wrong { .. }
        ));
        // Forge the model: every variable false, so x = y = 0.
        let forged = SolveResult::Sat(vec![false; model.len()]);
        let status = classify(&g, &pre, &forged, None);
        assert_eq!(
            status,
            Status::Wrong {
                reason: "decoded model does not satisfy the instance".into()
            }
        );
        assert!(matches!(
            classify(&g, &pre, &SolveResult::Unsat, Some(true)),
            Status::Wrong { .. }
        ));
        assert_eq!(classify(&g, &pre, &SolveResult::Unsat, None), Status::Unsat);
        let record = RunRecord {
            instance: "and2".into(),
            pipeline: "p".into(),
            solver: "s".into(),
            status,
            decisions: 0,
            conflicts: 0,
            cnf_vars: 1,
            cnf_clauses: 1,
            preprocess_secs: 0.1,
            solve_secs: 0.1,
            recipe: String::new(),
        };
        assert!(!record.solved() && record.wrong());
        let records = [record];
        assert_eq!(count_wrong(&records), 1);
        assert!(cactus(&records).is_empty());
    }

    #[test]
    fn timeout_penalty_applied() {
        let records = vec![RunRecord {
            instance: "x".into(),
            pipeline: "p".into(),
            solver: "s".into(),
            status: Status::Timeout,
            decisions: 10,
            conflicts: 10,
            cnf_vars: 1,
            cnf_clauses: 1,
            preprocess_secs: 0.1,
            solve_secs: 0.5,
            recipe: String::new(),
        }];
        assert_eq!(total_runtime(&records, 1000.0), 1000.0);
    }
}
