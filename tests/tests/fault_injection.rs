//! Deterministic fault-injection harness for the resource-governance
//! layer: chaos-seeded Unknown storms, worker panics, and round
//! starvation inside the sweep, plus cross-thread cancellation
//! and deadline interruption of the CDCL solver. The invariants under
//! test are the soundness half of the robustness contract:
//!
//! * a faulted sweep still returns, and its output is functionally
//!   equivalent to the input (faults lose merges, never correctness);
//! * fault plans are pure functions of `(seed, round, task)`, so a
//!   chaos run repeats exactly;
//! * deterministic round starvation only ever *removes* merges relative
//!   to the fault-free run (merge subset);
//! * a panicking query is contained: reported in `oracle_failures`, its
//!   pair degraded to undecided, the process never aborts;
//! * a cancelled or deadline-cut solver returns `Unknown` promptly with
//!   its incremental state intact — the follow-up unthrottled solve on
//!   the *same* solver agrees with a fresh one.

use aig::check::{exhaustive_equiv, sim_equiv};
use proptest::prelude::*;
use sat::{solve_cnf, Budget, Cancellation, SolveResult, Solver, SolverConfig};
use std::time::{Duration, Instant};
use sweep::{fraig, ChaosPlan, FraigParams};
use workloads::cnf_gen::random_3sat;
use workloads::lec::{adder_miter, miter, restructure};
use workloads::random_aig::{random_aig, RandomAigParams};

fn test_miter(seed: u64, n_gates: usize) -> aig::Aig {
    let g = random_aig(
        &RandomAigParams {
            n_pis: 7,
            n_gates,
            n_pos: 2,
            ..RandomAigParams::default()
        },
        seed,
    );
    miter(&g, &restructure(&g, seed ^ 0xFA))
}

proptest! {
    /// Unknown storms at a random rate: whatever queries the chaos eats,
    /// the sweep must terminate with an equivalent graph, and a repeat
    /// run must match it exactly (fault rolls are functions of
    /// (seed, round, task) alone).
    #[test]
    fn unknown_storm_is_sound_and_deterministic(
        seed in 0u64..10_000,
        rate in 0u16..1025,
    ) {
        let m = test_miter(seed, 60);
        let params = FraigParams {
            chaos: Some(ChaosPlan { seed, unknown_in_1024: rate, ..ChaosPlan::default() }),
            ..FraigParams::default()
        };
        let first = fraig(&m, &params);
        let second = fraig(&m, &params);
        prop_assert_eq!(&first.stats, &second.stats, "chaos run diverged on repeat");
        prop_assert!(exhaustive_equiv(&m, &first.aig), "faulted sweep must stay equivalent");
    }

    /// Deterministic round starvation (every query Unknown from round r
    /// on): rounds before r are untouched, so the starved run's merges
    /// are exactly a prefix — and therefore a subset — of the fault-free
    /// run's.
    #[test]
    fn round_starvation_merges_are_a_subset(seed in 0u64..10_000, from in 0usize..4) {
        let m = test_miter(seed, 50);
        let base = FraigParams::default();
        let free = fraig(&m, &base);
        let starved = fraig(&m, &FraigParams {
            chaos: Some(ChaosPlan { seed, starve_from_round: Some(from), ..ChaosPlan::default() }),
            ..base.clone()
        });
        prop_assert!(starved.stats.proved <= free.stats.proved, "faults can only lose merges");
        prop_assert!(starved.aig.num_ands() >= free.aig.num_ands());
        prop_assert!(exhaustive_equiv(&m, &starved.aig));
        if from >= free.stats.rounds {
            // Chaos that never fires must change nothing at all.
            prop_assert_eq!(&starved.stats, &free.stats);
        }
    }

    /// Query panics at a random rate: contained, reported, sound, and
    /// repeatable. The process-level assertion is implicit — an escaped
    /// panic would abort the test binary.
    #[test]
    fn panic_storm_is_contained_and_deterministic(seed in 0u64..10_000) {
        let m = test_miter(seed, 40);
        let params = FraigParams {
            chaos: Some(ChaosPlan { seed, panic_in_1024: 300, ..ChaosPlan::default() }),
            ..FraigParams::default()
        };
        let first = fraig(&m, &params);
        let second = fraig(&m, &params);
        prop_assert_eq!(&first.stats, &second.stats, "panic containment diverged on repeat");
        prop_assert!(exhaustive_equiv(&m, &first.aig));
    }

    /// Cancelling a solver mid-search from another thread: the solve
    /// returns promptly (Unknown, unless it legitimately finished first),
    /// and after lifting the token the SAME solver instance reaches the
    /// verdict of a fresh, never-cancelled solver.
    #[test]
    fn cross_thread_cancellation_is_prompt_and_recoverable(seed in 0u64..10_000) {
        let f = random_3sat(40, 4.26, seed);
        let cancel = Cancellation::new();
        let mut s = Solver::from_cnf(&f, SolverConfig::kissat_like());
        s.set_budget(Budget::UNLIMITED.with_cancel(cancel.clone()));
        let canceller = {
            let c = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(300));
                c.cancel();
            })
        };
        let t0 = Instant::now();
        let throttled = s.solve();
        let waited = t0.elapsed();
        canceller.join().expect("canceller thread must not panic");
        prop_assert!(waited < Duration::from_secs(20), "cancellation was not prompt");
        if matches!(throttled, SolveResult::Unknown) {
            prop_assert!(s.stats().cancellations >= 1, "Unknown must be attributed to the token");
        }
        // Recover on the same incremental state.
        cancel.reset();
        s.set_budget(Budget::UNLIMITED);
        let resumed = s.solve();
        let (fresh, _) = solve_cnf(&f, SolverConfig::kissat_like(), Budget::UNLIMITED);
        match (&resumed, &fresh) {
            (SolveResult::Sat(model), SolveResult::Sat(_)) => {
                prop_assert!(f.eval(model), "resumed model must satisfy the formula");
            }
            (SolveResult::Unsat, SolveResult::Unsat) => {}
            other => panic!("cancelled-then-resumed solver diverged from fresh: {other:?}"),
        }
    }

    /// Deadline exhaustion mid-search leaves the incremental state
    /// intact: an expired-deadline solve returns Unknown, and the same
    /// solver under a fresh unlimited budget agrees with a fresh solver.
    #[test]
    fn deadline_interrupt_preserves_solver_state(seed in 0u64..10_000) {
        let f = random_3sat(36, 4.26, seed);
        let mut s = Solver::from_cnf(&f, SolverConfig::cadical_like());
        s.set_budget(Budget::timeout(Duration::ZERO));
        prop_assert!(matches!(s.solve(), SolveResult::Unknown));
        prop_assert!(s.stats().deadline_interrupts >= 1);
        s.set_budget(Budget::UNLIMITED);
        let resumed = s.solve();
        let (fresh, _) = solve_cnf(&f, SolverConfig::cadical_like(), Budget::UNLIMITED);
        match (&resumed, &fresh) {
            (SolveResult::Sat(model), SolveResult::Sat(_)) => prop_assert!(f.eval(model)),
            (SolveResult::Unsat, SolveResult::Unsat) => {}
            other => panic!("deadline-cut solver diverged from fresh: {other:?}"),
        }
    }
}

/// A guaranteed panic storm (every query dies) on a real miter: the sweep
/// must survive every query failing in every round, report the failures,
/// merge nothing, and hand back an untouched (still equivalent) graph.
#[test]
fn total_panic_storm_still_returns_sound_result() {
    let m = adder_miter(5);
    let out = fraig(
        &m,
        &FraigParams {
            chaos: Some(ChaosPlan {
                seed: 7,
                panic_in_1024: 1024,
                ..ChaosPlan::default()
            }),
            ..FraigParams::default()
        },
    );
    assert!(out.stats.oracle_failures >= 1, "failures must be counted");
    assert_eq!(out.stats.proved, 0, "no query survives to prove anything");
    assert!(sim_equiv(&m, &out.aig, 16, 3));
}

/// A whole-sweep deadline in the past: zero rounds run, the interruption
/// is recorded, and the untouched graph is returned.
#[test]
fn expired_sweep_deadline_yields_partial_but_sound_result() {
    let m = adder_miter(5);
    let out = fraig(
        &m,
        &FraigParams {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..FraigParams::default()
        },
    );
    assert_eq!(out.stats.rounds, 0);
    assert!(out.stats.deadline_interrupts >= 1);
    assert!(sim_equiv(&m, &out.aig, 16, 3));
}
