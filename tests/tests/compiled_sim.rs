//! Differential tests: compiled simulation programs vs the interpreter.
//!
//! The compiled engine ([`aig::SimProgram`]) lowers an AIG into a flat
//! levelized program of fused word-ops; the block interpreter
//! ([`aig::sim::random_columns`] and [`aig::sim::SimVectors::simulate_column`])
//! walks the graph per block and is kept as the independent reference.
//! Both must produce *bit-identical* signature matrices from the same
//! per-block RNG streams — the sweeper resimulates on the compiled engine
//! only, so these tests are what ties its equivalence classes to the
//! plain graph semantics:
//!
//! * random AIGs: compiled full-mode matrix == interpreter matrix, with
//!   equal whole-matrix checksums;
//! * adversarial edge shapes (constant POs, PI passthroughs, duplicated
//!   and complemented POs, deep fanout-free chains that the outputs-only
//!   compiler fuses into multi-input ops);
//! * counterexample-style replay columns: `simulate_columns_prog` ==
//!   per-column `simulate_column` on explicit PI patterns;
//! * the compiled sequential stepper: `SeqAig::simulate_words` lanes ==
//!   64 independent step-by-step bool simulations (`unroll` + `eval` is
//!   covered by `mc_differential`; here the oracle is per-frame `eval`
//!   of the core, which shares no code with the stepper).

use aig::seq::SeqAig;
use aig::sim::{random_columns, random_columns_prog, simulate_columns_prog, SimVectors};
use aig::{Aig, Lit, SimProgram};
use proptest::prelude::*;
use workloads::random_aig::{random_aig, RandomAigParams};

fn random_graph(gates: usize, pis: usize, seed: u64) -> Aig {
    random_aig(
        &RandomAigParams {
            n_pis: pis,
            n_gates: gates,
            n_pos: 4,
            ..RandomAigParams::default()
        },
        seed,
    )
}

/// Interpreter and compiled matrices for the same (seed, width) fill,
/// asserting bit-identity and checksum equality.
fn assert_fill_identical(g: &Aig, n_words: usize, seed: u64) {
    let prog = SimProgram::full(g);
    let mut reference = SimVectors::zero(g.num_nodes(), n_words);
    random_columns(g, &mut reference, 0, n_words, seed);
    let mut compiled = SimVectors::zero(g.num_nodes(), n_words);
    random_columns_prog(&prog, &mut compiled, 0, n_words, seed);
    for v in 0..g.num_nodes() {
        assert_eq!(compiled.row(v), reference.row(v), "node {v} differs");
    }
    assert_eq!(compiled.checksum(), reference.checksum());
}

/// Edge shapes the fold/fusion paths must survive: constant POs, PI
/// passthroughs (plain and complemented), one PO repeated, and a deep
/// fanout-free AND chain (fused into multi-input ops by the
/// outputs-only compiler, node-per-node in full mode).
fn edge_shape() -> Aig {
    let mut g = Aig::new();
    let pis = g.add_pis(9);
    g.add_po(Lit::FALSE);
    g.add_po(Lit::TRUE);
    g.add_po(pis[0]);
    g.add_po(!pis[0]);
    let chain = g.and_many(&pis);
    g.add_po(chain);
    g.add_po(chain);
    g.add_po(!chain);
    let x = g.xor(pis[1], pis[2]);
    let gated = g.and(x, !pis[3]);
    g.add_po(gated);
    g
}

#[test]
fn edge_shapes_fill_identically() {
    assert_fill_identical(&edge_shape(), 8, 0xDEAD_BEEF);
}

#[test]
fn edge_shape_outputs_only_program_matches_eval() {
    let g = edge_shape();
    let prog = SimProgram::outputs_only(&g);
    assert_eq!(prog.num_outputs(), g.num_pos());
    let n = g.num_pis();
    for pattern in 0..1u32 << n {
        let ins: Vec<bool> = (0..n).map(|i| pattern >> i & 1 != 0).collect();
        let expect = g.eval(&ins);
        let pi_words: Vec<u64> = ins.iter().map(|&b| u64::from(b)).collect();
        let mut vals = Vec::new();
        prog.run_dense(&mut vals, 1, &pi_words);
        for (o, &e) in expect.iter().enumerate() {
            assert_eq!(
                prog.output(o).read(&vals, 1, 0) & 1 != 0,
                e,
                "PO {o} under pattern {pattern:#b}"
            );
        }
    }
}

proptest! {
    /// Compiled full-mode fills are bit-identical to the interpreter on
    /// random AIGs, including the whole-matrix checksum.
    #[test]
    fn compiled_matches_interpreter_on_random_aigs(
        gates in 1usize..120,
        pis in 1usize..12,
        words in 1usize..10,
        seed in any::<u64>(),
    ) {
        assert_fill_identical(&random_graph(gates, pis, seed), words, seed);
    }

    /// Replay columns (explicit PI words, the sweeper's counterexample
    /// path) agree between engines.
    #[test]
    fn compiled_replay_matches_interpreter(
        gates in 1usize..80,
        pis in 1usize..8,
        seed in any::<u64>(),
        pi_fill in any::<u64>(),
    ) {
        let g = random_graph(gates, pis, seed);
        let prog = SimProgram::full(&g);
        let patterns: Vec<Vec<u64>> = (0..3u64)
            .map(|w| (0..pis as u64).map(|i| pi_fill.rotate_left((w * 13 + i * 7) as u32)).collect())
            .collect();
        let jobs: Vec<(usize, &[u64])> = patterns
            .iter()
            .enumerate()
            .map(|(w, p)| (w * 2, p.as_slice()))
            .collect();
        let mut reference = SimVectors::zero(g.num_nodes(), 6);
        for &(w, pi_words) in &jobs {
            reference.simulate_column(&g, w, pi_words);
        }
        let mut compiled = SimVectors::zero(g.num_nodes(), 6);
        simulate_columns_prog(&prog, &mut compiled, &jobs);
        for v in 0..g.num_nodes() {
            prop_assert_eq!(compiled.row(v), reference.row(v));
        }
    }

    /// Every lane of the compiled sequential stepper is an independent
    /// machine: `simulate_words` with 64 packed traces matches 64
    /// separate per-frame `eval` walks of the core.
    #[test]
    fn stepper_lanes_match_per_frame_eval(
        pis in 1usize..3,
        latches in 1usize..4,
        gates in 4usize..40,
        frames in 1usize..6,
        seed in any::<u64>(),
        stim in any::<u64>(),
    ) {
        let core = random_aig(
            &RandomAigParams {
                n_pis: pis + latches,
                n_gates: gates,
                n_pos: 2 + latches,
                ..RandomAigParams::default()
            },
            seed,
        );
        let m = SeqAig::new(core, pis, latches);
        // Frame-major word stimulus; lane `l` reads bit `l`.
        let stimulus: Vec<Vec<u64>> = (0..frames)
            .map(|t| (0..pis).map(|i| stim.rotate_left((t * pis + i) as u32 * 11)).collect())
            .collect();
        let outs = m.simulate_words(&stimulus);
        prop_assert_eq!(outs.len(), frames);
        for lane in [0usize, 1, 31, 63] {
            // Bool oracle: walk the core with `eval`, threading latch
            // state by hand.
            let mut state = vec![false; latches];
            for (t, frame) in stimulus.iter().enumerate() {
                let mut ins: Vec<bool> =
                    frame.iter().map(|&w| w >> lane & 1 != 0).collect();
                ins.extend(state.iter().copied());
                let full = m.comb().eval(&ins);
                for (o, &e) in full[..m.num_pos()].iter().enumerate() {
                    prop_assert_eq!(
                        outs[t][o] >> lane & 1 != 0,
                        e,
                        "lane {} frame {} PO {}",
                        lane,
                        t,
                        o
                    );
                }
                state = full[m.num_pos()..].to_vec();
            }
        }
    }
}
