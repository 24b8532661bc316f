//! Algebraic factoring of ISOP covers — the classic `refactor` generator.
//!
//! Following Brayton's decomposition/factorisation line (the paper's
//! `refactor` citation), a sum-of-products cover is turned into a factored
//! form by *literal division*: pick the most frequent literal `l`, split the
//! cover into `l · Q + R`, and recurse. The factored form is then emitted
//! as an AND/OR structure via [`StructBuilder`].
//!
//! The division works in place: the cover is partitioned into the
//! quotient (first) and the remainder, and the recursion descends into the
//! two sub-slices. Literal frequencies are counted over each cube's set
//! mask bits only.
//!
//! [`best_structure`] combines this generator with the decomposition engine
//! of [`crate::dsd`] and returns the smaller result — our stand-in for the
//! pre-computed optimal structures of ABC's rewriting library.

use crate::builder::{sig_not, Sig, StructBuilder, SIG_FALSE, SIG_TRUE};
use aig::{Cube, GateList, Tt};

/// Synthesises a structure for `f` via algebraic factoring of its ISOP.
///
/// Both `f` and `!f` are factored; the smaller structure (complemented back
/// if needed) wins.
pub fn factor(f: &Tt) -> GateList {
    let pos = factor_cover(f.nvars(), &mut f.isop());
    let neg = factor_cover(f.nvars(), &mut (!f).isop());
    if pos.size() <= neg.size() {
        pos
    } else {
        GateList {
            root: sig_not(neg.root),
            ..neg
        }
    }
}

fn factor_cover(nvars: usize, cover: &mut [Cube]) -> GateList {
    let mut b = StructBuilder::new(nvars);
    let root = factor_rec(cover, &mut b);
    b.finish(root)
}

/// Factors `cover`, reordering (and dividing) its cubes in place.
///
/// The structure depends only on the *set* of cubes: the dividing literal
/// is chosen by count (ties to the lowest variable, positive first) and a
/// single cube is built in variable order. So the partition need not keep
/// the cubes' order, and a plain swap partition does the division.
fn factor_rec(cover: &mut [Cube], b: &mut StructBuilder) -> Sig {
    if cover.is_empty() {
        return SIG_FALSE;
    }
    if cover.iter().any(|c| c.mask == 0) {
        return SIG_TRUE; // tautology cube
    }
    if cover.len() == 1 {
        return build_cube(&cover[0], b);
    }
    // Most frequent literal over the cover.
    let (var, positive) = most_frequent_literal(cover);
    let bit = 1u32 << var;
    let want = if positive { bit } else { 0 };
    // Quotient cubes, divided by the literal, to the front.
    let mut q = 0;
    for i in 0..cover.len() {
        let c = cover[i];
        if c.mask & bit != 0 && c.vals & bit == want {
            cover.swap(q, i);
            cover[q] = Cube {
                mask: c.mask & !bit,
                vals: c.vals & !bit,
            };
            q += 1;
        }
    }
    debug_assert!(q > 0);
    let (quotient, remainder) = cover.split_at_mut(q);
    let q_sig = factor_rec(quotient, b);
    let lit_sig = if positive {
        b.leaf(var)
    } else {
        sig_not(b.leaf(var))
    };
    let lhs = b.and(lit_sig, q_sig);
    if remainder.is_empty() {
        lhs
    } else {
        let r_sig = factor_rec(remainder, b);
        b.or(lhs, r_sig)
    }
}

fn build_cube(c: &Cube, b: &mut StructBuilder) -> Sig {
    let mut acc = SIG_TRUE;
    for (v, pos) in c.lits() {
        let l = if pos { b.leaf(v) } else { sig_not(b.leaf(v)) };
        acc = b.and(acc, l);
    }
    acc
}

/// The literal in the most cubes: the lowest variable wins ties, and its
/// positive literal before its negative one.
fn most_frequent_literal(cover: &[Cube]) -> (usize, bool) {
    let mut pos = [0u32; 32];
    let mut neg = [0u32; 32];
    for c in cover {
        for (v, p) in c.lits() {
            if p {
                pos[v] += 1;
            } else {
                neg[v] += 1;
            }
        }
    }
    let mut best = (0usize, true);
    let mut best_count = 0u32;
    for v in 0..32 {
        if pos[v] > best_count {
            best_count = pos[v];
            best = (v, true);
        }
        if neg[v] > best_count {
            best_count = neg[v];
            best = (v, false);
        }
    }
    debug_assert!(best_count > 0, "cover with no literals");
    best
}

/// The best structure we can synthesise for `f`: the smaller of the
/// decomposition-based and factoring-based results.
pub fn best_structure(f: &Tt) -> GateList {
    let d = crate::dsd::decompose(f);
    let a = factor(f);
    if d.size() <= a.size() {
        d
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsd::gatelist_tt;

    #[test]
    fn all_3var_functions_roundtrip() {
        for bits in 0..256u64 {
            let f = Tt::from_u64(3, bits);
            let gl = factor(&f);
            assert_eq!(gatelist_tt(&gl), f, "bits={bits:#x}");
        }
    }

    #[test]
    fn random_roundtrip_4_to_8() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        for n in 4..=8usize {
            for _ in 0..20 {
                let words = (0..(if n <= 6 { 1 } else { 1 << (n - 6) }))
                    .map(|_| rng.gen())
                    .collect();
                let f = Tt::from_words(n, words);
                let gl = factor(&f);
                assert_eq!(gatelist_tt(&gl), f, "n={n}");
            }
        }
    }

    #[test]
    fn sop_friendly_functions_factor_well() {
        // f = a·b + a·c + a·d factors as a·(b + c + d): 3 gates.
        let n = 4;
        let a = Tt::var(n, 0);
        let f = (&(&a & &Tt::var(n, 1)) | &(&a & &Tt::var(n, 2))) | (&a & &Tt::var(n, 3));
        let gl = factor(&f);
        assert_eq!(gatelist_tt(&gl), f);
        assert!(
            gl.size() <= 3,
            "kernel extraction expected, got {}",
            gl.size()
        );
    }

    #[test]
    fn best_structure_roundtrips_and_is_minimal_of_both() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        for _ in 0..50 {
            let f = Tt::from_u64(4, rng.gen::<u64>() & 0xFFFF);
            let b = best_structure(&f);
            assert_eq!(gatelist_tt(&b), f);
            assert!(b.size() <= crate::dsd::decompose(&f).size());
            assert!(b.size() <= factor(&f).size());
        }
    }

    /// The allocating factoring `factor_rec` replaced: a fresh quotient and
    /// remainder vector per level, and a 32-variable scan per literal pick.
    fn reference_factor(f: &Tt) -> GateList {
        fn rec(cover: &[Cube], b: &mut StructBuilder) -> Sig {
            if cover.is_empty() {
                return SIG_FALSE;
            }
            if cover.iter().any(|c| c.mask == 0) {
                return SIG_TRUE;
            }
            if cover.len() == 1 {
                return build_cube(&cover[0], b);
            }
            let mut best = (0usize, true);
            let mut best_count = 0usize;
            for v in 0..32 {
                let bit = 1u32 << v;
                let pos = cover
                    .iter()
                    .filter(|c| c.mask & bit != 0 && c.vals & bit != 0)
                    .count();
                let neg = cover
                    .iter()
                    .filter(|c| c.mask & bit != 0 && c.vals & bit == 0)
                    .count();
                if pos > best_count {
                    best_count = pos;
                    best = (v, true);
                }
                if neg > best_count {
                    best_count = neg;
                    best = (v, false);
                }
            }
            let (var, positive) = best;
            let bit = 1u32 << var;
            let mut quotient = Vec::new();
            let mut remainder = Vec::new();
            for c in cover {
                if c.mask & bit != 0 && (c.vals & bit != 0) == positive {
                    let mut q = *c;
                    q.mask &= !bit;
                    q.vals &= !bit;
                    quotient.push(q);
                } else {
                    remainder.push(*c);
                }
            }
            let q_sig = rec(&quotient, b);
            let lit = if positive {
                b.leaf(var)
            } else {
                sig_not(b.leaf(var))
            };
            let lhs = b.and(lit, q_sig);
            if remainder.is_empty() {
                lhs
            } else {
                let r_sig = rec(&remainder, b);
                b.or(lhs, r_sig)
            }
        }
        let run = |cover: &[Cube]| {
            let mut b = StructBuilder::new(f.nvars());
            let root = rec(cover, &mut b);
            b.finish(root)
        };
        let pos = run(&f.isop());
        let neg = run(&(!f).isop());
        if pos.size() <= neg.size() {
            pos
        } else {
            GateList {
                root: sig_not(neg.root),
                ..neg
            }
        }
    }

    #[test]
    fn factor_matches_reference_exhaustive_3var() {
        for bits in 0..256u64 {
            let f = Tt::from_u64(3, bits);
            assert_eq!(factor(&f), reference_factor(&f), "bits={bits:#x}");
        }
    }

    #[test]
    fn factor_matches_reference_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFAC7);
        for n in 4..=10usize {
            for _ in 0..24 {
                let word = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
                    (0..(if n <= 6 { 1 } else { 1 << (n - 6) }))
                        .map(|_| rng.gen())
                        .collect()
                };
                let dense = Tt::from_words(n, word(&mut rng));
                // Sparse and dense-ish covers: AND/OR of two random tables.
                let sparse = &dense & &Tt::from_words(n, word(&mut rng));
                let wide = &dense | &Tt::from_words(n, word(&mut rng));
                for f in [dense, sparse, wide] {
                    assert_eq!(factor(&f), reference_factor(&f), "n={n} {f:?}");
                }
            }
        }
    }

    #[test]
    fn constants_and_literals() {
        assert_eq!(factor(&Tt::zero(3)).size(), 0);
        assert_eq!(factor(&Tt::one(3)).size(), 0);
        let f = !Tt::var(3, 1);
        let gl = factor(&f);
        assert_eq!(gl.size(), 0);
        assert_eq!(gatelist_tt(&gl), f);
    }
}
