//! Truth-table resynthesis: decomposition-based structure generation.
//!
//! Converts an arbitrary function (as a [`Tt`]) into a compact [`GateList`].
//! The recursion tries, in order: constants, single literals, top-level
//! AND/OR/XOR decompositions on each support variable, and finally a Shannon
//! expansion (MUX) on the most binate variable, memoising sub-functions so
//! shared cofactors become shared gates.
//!
//! Each level reads every variable's cofactor pair once, in place
//! ([`Tt::cofactor_pair`]): that one pass answers the support test, the
//! five top-decomposition tests and the Shannon binateness count, and only
//! the cofactor the recursion descends into is materialised.
//!
//! Together with the algebraic factoring of [`crate::factor`], this is the
//! structure generator behind the NPN rewriting library and refactoring.

use crate::builder::{sig_not, Sig, StructBuilder, SIG_FALSE, SIG_TRUE};
use aig::hash::FastMap;
use aig::{CofactorPair, GateList, Tt};

/// Synthesises a gate structure for `f` by recursive decomposition.
///
/// The structure has `f.nvars()` leaves; leaves outside the support are
/// simply unused.
pub fn decompose(f: &Tt) -> GateList {
    let mut b = StructBuilder::new(f.nvars());
    let mut memo: FastMap<Tt, Sig> = FastMap::default();
    let root = decompose_rec(f, &mut b, &mut memo);
    b.finish(root)
}

fn decompose_rec(f: &Tt, b: &mut StructBuilder, memo: &mut FastMap<Tt, Sig>) -> Sig {
    if f.is_zero() {
        return SIG_FALSE;
    }
    if f.is_one() {
        return SIG_TRUE;
    }
    if let Some(&s) = memo.get(f) {
        return s;
    }
    let nf = !f;
    if let Some(&s) = memo.get(&nf) {
        return sig_not(s);
    }

    // One in-place pass per variable; the support is where the cofactors
    // differ.
    let mut buf = [(0usize, CofactorPair::default()); Tt::MAX_VARS];
    let mut n = 0;
    for v in 0..f.nvars() {
        let p = f.cofactor_pair(v);
        if p.diff_ones != 0 {
            buf[n] = (v, p);
            n += 1;
        }
    }
    let sup = &buf[..n];
    debug_assert!(!sup.is_empty());
    // Single literal?
    if let [(v, _)] = *sup {
        let s = if f.bit(1 << v) {
            b.leaf(v)
        } else {
            sig_not(b.leaf(v))
        };
        memo.insert(f.clone(), s);
        return s;
    }

    // Top decomposition on each support variable.
    for &(v, p) in sup {
        let lv = b.leaf(v);
        let s = if p.c0_zero {
            // f = v & c1
            let inner = decompose_rec(&f.cofactor1(v), b, memo);
            Some(b.and(lv, inner))
        } else if p.c1_zero {
            // f = !v & c0
            let inner = decompose_rec(&f.cofactor0(v), b, memo);
            Some(b.and(sig_not(lv), inner))
        } else if p.c0_one {
            // f = !v | c1
            let inner = decompose_rec(&f.cofactor1(v), b, memo);
            Some(b.or(sig_not(lv), inner))
        } else if p.c1_one {
            // f = v | c0
            let inner = decompose_rec(&f.cofactor0(v), b, memo);
            Some(b.or(lv, inner))
        } else if p.complementary {
            // f = v ^ c0
            let inner = decompose_rec(&f.cofactor0(v), b, memo);
            Some(b.xor(lv, inner))
        } else {
            None
        };
        if let Some(s) = s {
            memo.insert(f.clone(), s);
            return s;
        }
    }

    // Shannon expansion on the most binate variable (largest on-set change;
    // the last of equals, as `max_by_key` picks).
    let (v, _) = *sup
        .iter()
        .max_by_key(|(_, p)| p.diff_ones)
        .expect("non-empty support");
    let s0 = decompose_rec(&f.cofactor0(v), b, memo);
    let s1 = decompose_rec(&f.cofactor1(v), b, memo);
    let lv = b.leaf(v);
    let s = b.mux(lv, s1, s0);
    memo.insert(f.clone(), s);
    s
}

/// Evaluates a gate structure on Boolean leaf values (reference semantics,
/// shared by the test-suites of this crate).
pub fn eval_gatelist(gl: &GateList, leaves: &[bool]) -> bool {
    assert_eq!(leaves.len(), gl.n_leaves, "leaf count mismatch");
    let mut vals: Vec<bool> = leaves.to_vec();
    let dec = |vals: &[bool], s: Sig| -> bool {
        match s {
            SIG_FALSE => false,
            SIG_TRUE => true,
            _ => vals[(s >> 1) as usize] ^ (s & 1 != 0),
        }
    };
    for &(a, bb) in &gl.gates {
        let v = dec(&vals, a) & dec(&vals, bb);
        vals.push(v);
    }
    dec(&vals, gl.root)
}

/// The truth table computed by a gate structure (for verification).
pub fn gatelist_tt(gl: &GateList) -> Tt {
    let n = gl.n_leaves;
    let mut out = Tt::zero(n);
    for m in 0..(1usize << n) {
        let leaves: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
        if eval_gatelist(gl, &leaves) {
            out.set_bit(m, true);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_3var_functions_roundtrip() {
        for bits in 0..256u64 {
            let f = Tt::from_u64(3, bits);
            let gl = decompose(&f);
            assert_eq!(gatelist_tt(&gl), f, "bits={bits:#x}");
        }
    }

    #[test]
    fn random_4_to_8_var_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for n in 4..=8usize {
            for _ in 0..25 {
                let words = (0..(if n <= 6 { 1 } else { 1 << (n - 6) }))
                    .map(|_| rng.gen())
                    .collect();
                let f = Tt::from_words(n, words);
                let gl = decompose(&f);
                assert_eq!(gatelist_tt(&gl), f, "n={n}");
            }
        }
    }

    #[test]
    fn and_gate_costs_one() {
        let f = Tt::var(2, 0) & Tt::var(2, 1);
        assert_eq!(decompose(&f).size(), 1);
    }

    #[test]
    fn xor_gate_costs_three() {
        let f = Tt::var(2, 0) ^ Tt::var(2, 1);
        assert_eq!(decompose(&f).size(), 3);
    }

    #[test]
    fn constants_cost_zero() {
        assert_eq!(decompose(&Tt::zero(4)).size(), 0);
        assert_eq!(decompose(&Tt::one(4)).size(), 0);
        assert_eq!(decompose(&Tt::var(4, 2)).size(), 0);
    }

    #[test]
    fn shared_cofactors_are_shared_gates() {
        // f = (a & b) ^ c, with xor forcing Shannon/xor paths that reuse a&b.
        let ab = Tt::var(3, 0) & Tt::var(3, 1);
        let f = &ab ^ &Tt::var(3, 2);
        let gl = decompose(&f);
        // a&b, then xor with c: 1 + 3 = 4 gates max.
        assert!(gl.size() <= 4, "got {}", gl.size());
        assert_eq!(gatelist_tt(&gl), f);
    }

    #[test]
    fn majority_is_compact() {
        let (a, b, c) = (Tt::var(3, 0), Tt::var(3, 1), Tt::var(3, 2));
        let maj = (&(&a & &b) | &(&b & &c)) | (&a & &c);
        let gl = decompose(&maj);
        assert_eq!(gatelist_tt(&gl), maj);
        assert!(
            gl.size() <= 6,
            "majority should need few gates, got {}",
            gl.size()
        );
    }
}
