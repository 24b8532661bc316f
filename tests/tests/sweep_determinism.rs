//! Run-to-run determinism of the sweep engine.
//!
//! The fraig engine is sequential: one incremental oracle proves each
//! round's candidate pairs in index order, and resimulation draws every
//! block's patterns from a stream keyed by `(seed, block)`. Without a
//! deadline the outcome is therefore a pure function of the graph and the
//! parameters. These tests check that the hard way — running the same
//! sweep twice and demanding bit-identical [`FraigOutcome`]s (same merges,
//! same stats, same rebuilt graph) — and keep the solver's two-tier
//! watcher/reason integrity audit running while they do (the oracle calls
//! `Solver::assert_integrity` after each query in debug builds, which is
//! how `cargo test` and the CI paranoia job run).

use aig::check::{exhaustive_equiv, sim_equiv};
use aig::Aig;
use proptest::prelude::*;
use sweep::{fraig, FraigOutcome, FraigParams};
use workloads::lec::{adder_miter, miter, restructure};
use workloads::random_aig::{random_aig, RandomAigParams};

/// Structural equality of two graphs, node for node.
fn same_aig(a: &Aig, b: &Aig) -> bool {
    a.num_nodes() == b.num_nodes()
        && a.pis() == b.pis()
        && a.pos() == b.pos()
        && a.iter_ands().zip(b.iter_ands()).all(|(va, vb)| {
            let (na, nb) = (a.node(va), b.node(vb));
            va == vb && na.fanin0() == nb.fanin0() && na.fanin1() == nb.fanin1()
        })
}

/// Asserts two outcomes are bit-identical; returns the shared outcome.
fn assert_identical(a: &FraigOutcome, b: &FraigOutcome) {
    assert_eq!(a.stats, b.stats, "run counters diverged");
    assert!(same_aig(&a.aig, &b.aig), "rebuilt graphs diverged");
}

proptest! {
    /// Random equivalence miters: a random graph against a functionally
    /// identical, structurally perturbed copy. Two sweeps with the same
    /// parameters must produce the same merges, the same counterexample
    /// trajectory (visible through the stats), and the same output graph —
    /// which must itself stay equivalent to the input.
    #[test]
    fn repeat_fraig_runs_are_identical(seed in 0u64..10_000, n_gates in 20usize..100) {
        let g = random_aig(
            &RandomAigParams {
                n_pis: 7,
                n_gates,
                n_pos: 3,
                ..RandomAigParams::default()
            },
            seed,
        );
        let m = miter(&g, &restructure(&g, seed ^ 0xD1CE));
        // 17 sim words = 3 simulation blocks, so multi-block resimulation
        // is exercised, not just the oracle.
        let params = FraigParams { sim_words: 17, ..FraigParams::default() };
        let first = fraig(&m, &params);
        let second = fraig(&m, &params);
        assert_identical(&first, &second);
        prop_assert!(exhaustive_equiv(&m, &first.aig), "sweep must preserve the function");
    }
}

proptest! {
    /// Tight budgets force `Unknown` answers and bring the oracle's
    /// cumulative budget clock into play; repeated runs must still agree.
    #[test]
    fn repeat_fraig_runs_are_identical_under_budget_pressure(seed in 0u64..10_000) {
        let g = random_aig(
            &RandomAigParams {
                n_pis: 6,
                n_gates: 60,
                n_pos: 2,
                ..RandomAigParams::default()
            },
            seed,
        );
        let m = miter(&g, &restructure(&g, seed ^ 0xBEEF));
        let params = FraigParams { conflict_budget: 3, ..FraigParams::default() };
        let first = fraig(&m, &params);
        let second = fraig(&m, &params);
        assert_identical(&first, &second);
        prop_assert!(sim_equiv(&m, &first.aig, 8, 11));
    }
}

/// The adder miter at a size where every round carries real SAT work: the
/// sweep must collapse it to constant false, identically on a repeat run,
/// with the solver integrity audit live after every oracle query (debug
/// builds run `assert_integrity` after each one).
#[test]
fn integrity_audited_sweep_collapses_adder_miter() {
    let m = adder_miter(8);
    let first = fraig(&m, &FraigParams::default());
    let second = fraig(&m, &FraigParams::default());
    assert_identical(&first, &second);
    assert_eq!(
        first.aig.pos()[0],
        aig::Lit::FALSE,
        "equivalent adders: miter is 0"
    );
    assert_eq!(first.aig.num_ands(), 0);
    assert!(first.stats.proved > 0);
}

/// Tracing observes the sweep without steering it: a run under a tracing
/// registry must match an untraced one exactly.
#[test]
fn traced_sweep_matches_untraced() {
    let m = adder_miter(6);
    let untraced = fraig(&m, &FraigParams::default());
    let traced = fraig(
        &m,
        &FraigParams {
            obs: obs::Registry::tracing(),
            ..FraigParams::default()
        },
    );
    assert_identical(&untraced, &traced);
}
