//! Golden outputs of the resynthesis passes.
//!
//! Each pass is pure and deterministic, so the graph it returns is a fixed
//! function of its input. This suite pins `structural_hash()` and
//! `num_ands()` after `balance`, `rewrite`, `rewrite -z`, `refactor`,
//! `resub` and the `size_script` recipe on a handful of generator
//! circuits. A kernel that is rewritten for speed must keep every number
//! here: any change of cut order, cube order, candidate tie-break or
//! structure choice shows up as a different hash.
//!
//! On a mismatch the assertion prints the whole table as measured, in the
//! layout of [`GOLDEN`].

use aig::Aig;
use synth::{apply_op, Recipe, SynthOp};
use workloads::datapath::{alu, array_multiplier, carry_lookahead_adder, ripple_carry_adder};
use workloads::lec::{miter, restructure};
use workloads::prefix_adders::kogge_stone_adder;

/// The circuits, by name.
fn circuits() -> Vec<(&'static str, Aig)> {
    vec![
        ("rca16", ripple_carry_adder(16).aig),
        ("cla16", carry_lookahead_adder(16).aig),
        ("ks16", kogge_stone_adder(16).aig),
        ("alu16", alu(16).aig),
        ("mul6", array_multiplier(6).aig),
        (
            "rca12=cla12'",
            miter(
                &ripple_carry_adder(12).aig,
                &restructure(&carry_lookahead_adder(12).aig, 0x5eed),
            ),
        ),
    ]
}

/// The transformations, by name; each starts from the original circuit.
const STEPS: [&str; 6] = ["b", "rw", "rwz", "rf", "rs", "size_script"];

fn run_step(g: &Aig, step: &str) -> Aig {
    match step {
        "size_script" => Recipe::size_script().apply(g),
        op => apply_op(g, op.parse::<SynthOp>().expect("known op")),
    }
}

/// One pinned result: `(step, structural_hash, num_ands)`.
type Row = (&'static str, u64, usize);
/// Every circuit's results, by circuit name.
type Table = Vec<(&'static str, Vec<Row>)>;

/// `(circuit, [(step, structural_hash, num_ands)])`, measured on the
/// allocating implementations the current kernels replaced.
type Golden = [(&'static str, [Row; 6]); 6];

const GOLDEN: Golden = [
    (
        "rca16",
        [
            ("b", 0x7a6dd547724c4cd, 139),
            ("rw", 0x30d086656279bbbe, 124),
            ("rwz", 0xb662c9b2239739f5, 124),
            ("rf", 0xce2e713e3999e423, 123),
            ("rs", 0x9f222488f428f15, 139),
            ("size_script", 0x54c2835b0f447c41, 108),
        ],
    ),
    (
        "cla16",
        [
            ("b", 0x2644319944ec8551, 469),
            ("rw", 0x69dc2d4b0af4f961, 348),
            ("rwz", 0x1562346233d8997f, 348),
            ("rf", 0x52f14ba0ec536583, 404),
            ("rs", 0x7ad428222e6b25f4, 325),
            ("size_script", 0xa0376be67d7e1509, 384),
        ],
    ),
    (
        "ks16",
        [
            ("b", 0x164a1f971695d76, 256),
            ("rw", 0x3b1539c21b81f22, 240),
            ("rwz", 0x2938aa2cc3bbee12, 240),
            ("rf", 0x969f4384bc911eaa, 225),
            ("rs", 0xb7939d4ae6caa78e, 241),
            ("size_script", 0x6835c3601cf62406, 220),
        ],
    ),
    (
        "alu16",
        [
            ("b", 0xc0fe83895d68096a, 299),
            ("rw", 0x91a442adf642808a, 265),
            ("rwz", 0xa29cc6a0cfc9f8bc, 265),
            ("rf", 0x490a18a238a3b07b, 279),
            ("rs", 0x74774e6c05669bb7, 297),
            ("size_script", 0x5b906ff894017931, 265),
        ],
    ),
    (
        "mul6",
        [
            ("b", 0xd17eef789a399a7b, 276),
            ("rw", 0x486ff0e12ceddf60, 222),
            ("rwz", 0x486ff0e12ceddf60, 222),
            ("rf", 0x9c5616aa46075ce6, 276),
            ("rs", 0x5acdc483dd654c6d, 274),
            ("size_script", 0x486ff0e12ceddf60, 222),
        ],
    ),
    (
        "rca12=cla12'",
        [
            ("b", 0x36724d6e8de4d0e3, 459),
            ("rw", 0x667004a1913562b6, 260),
            ("rwz", 0x623e6cc58d06959b, 260),
            ("rf", 0xa1d65671825798d5, 378),
            ("rs", 0x536565225af2f440, 281),
            ("size_script", 0x66a5cb6df346aeb0, 237),
        ],
    ),
];

fn render(table: &Table) -> String {
    let mut s = String::new();
    for (name, rows) in table {
        s.push_str(&format!("    (\n        {name:?},\n        [\n"));
        for (step, h, n) in rows {
            s.push_str(&format!("            ({step:?}, {h:#x}, {n}),\n"));
        }
        s.push_str("        ],\n    ),\n");
    }
    s
}

#[test]
fn synthesis_outputs_match_golden_hashes() {
    let measured: Table = circuits()
        .into_iter()
        .map(|(name, g)| {
            let rows = STEPS
                .iter()
                .map(|&step| {
                    let h = run_step(&g, step);
                    (step, h.structural_hash(), h.num_ands())
                })
                .collect();
            (name, rows)
        })
        .collect();
    let expected: Table = GOLDEN
        .iter()
        .map(|(name, rows)| (*name, rows.to_vec()))
        .collect();
    assert!(
        measured == expected,
        "synthesis output changed; measured:\n{}",
        render(&measured)
    );
}

#[test]
fn golden_circuits_are_nontrivial_and_passes_never_grow() {
    for (name, g) in circuits() {
        assert!(g.num_ands() > 50, "{name} too small to pin anything");
        for step in ["rw", "rf", "rs", "size_script"] {
            let h = run_step(&g, step);
            assert!(
                h.num_ands() <= g.num_ands(),
                "{name}/{step}: {} -> {}",
                g.num_ands(),
                h.num_ands()
            );
        }
    }
}
