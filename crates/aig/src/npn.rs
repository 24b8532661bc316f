//! Exact NPN canonisation of 4-variable functions.
//!
//! Two functions are NPN-equivalent when one can be obtained from the other
//! by Negating inputs, Permuting inputs, and/or Negating the output. The
//! 65 536 four-variable functions fall into 222 NPN classes; DAG-aware
//! rewriting keeps one pre-computed optimal structure per class and
//! instantiates it through the recorded transform.

use crate::lit::Lit;
use std::cell::RefCell;
use std::sync::OnceLock;

/// An NPN transform `T` acting on 4-variable functions.
///
/// Semantics (with `fl_i` = bit `i` of `flips`):
///
/// ```text
/// (T·F)(x0, x1, x2, x3) = out ⊕ F(x_{p[0]} ⊕ fl_0, ..., x_{p[3]} ⊕ fl_3)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NpnTransform {
    /// Input permutation: variable `i` of `F` reads `x_{perm[i]}`.
    pub perm: [u8; 4],
    /// Input complementations, one bit per variable of `F`.
    pub flips: u8,
    /// Output complementation.
    pub out: bool,
}

impl NpnTransform {
    /// The identity transform.
    pub const IDENTITY: NpnTransform = NpnTransform {
        perm: [0, 1, 2, 3],
        flips: 0,
        out: false,
    };

    /// Applies the transform to a truth table.
    pub fn apply(&self, f: u16) -> u16 {
        let mut g = 0u16;
        for m in 0..16u32 {
            // y_i = x_{p[i]} ^ fl_i, where x bits come from m.
            let mut y = 0u32;
            for i in 0..4 {
                let xb = m >> self.perm[i] & 1;
                y |= (xb ^ (self.flips as u32 >> i & 1)) << i;
            }
            if f >> y & 1 != 0 {
                g |= 1 << m;
            }
        }
        if self.out {
            g = !g;
        }
        g
    }

    /// Given concrete leaf literals for `F`'s inputs, produces the leaf
    /// literals (and output complement) with which a structure implementing
    /// `T·F` realises `F(leaves)`:
    ///
    /// ```text
    /// F(l_0..l_3) = out ⊕ (T·F)(w_0..w_3)   with  w_j = l_{p⁻¹(j)} ⊕ fl_{p⁻¹(j)}
    /// ```
    pub fn instantiate(&self, leaves: &[Lit; 4]) -> ([Lit; 4], bool) {
        let mut pinv = [0usize; 4];
        for (i, &p) in self.perm.iter().enumerate() {
            pinv[p as usize] = i;
        }
        let mut w = [Lit::FALSE; 4];
        for (j, wj) in w.iter_mut().enumerate() {
            let i = pinv[j];
            *wj = leaves[i].xor_compl(self.flips >> i & 1 != 0);
        }
        (w, self.out)
    }
}

/// All 24 permutations of four elements.
fn permutations4() -> &'static [[u8; 4]; 24] {
    static PERMS: OnceLock<[[u8; 4]; 24]> = OnceLock::new();
    PERMS.get_or_init(|| {
        let mut out = [[0u8; 4]; 24];
        let mut idx = 0;
        for a in 0..4u8 {
            for b in 0..4u8 {
                if b == a {
                    continue;
                }
                for c in 0..4u8 {
                    if c == a || c == b {
                        continue;
                    }
                    let d = (0..4u8).find(|&d| d != a && d != b && d != c).unwrap();
                    out[idx] = [a, b, c, d];
                    idx += 1;
                }
            }
        }
        debug_assert_eq!(idx, 24);
        out
    })
}

/// Minterm-mapping tables for every (perm, flips) pair: `maps[p][fl][m]`
/// is the source minterm `F` is read at when producing bit `m` of `T·F`.
fn minterm_maps() -> &'static Vec<[[u8; 16]; 16]> {
    static MAPS: OnceLock<Vec<[[u8; 16]; 16]>> = OnceLock::new();
    MAPS.get_or_init(|| {
        let perms = permutations4();
        let mut all = Vec::with_capacity(24);
        for perm in perms.iter() {
            let mut per_flip = [[0u8; 16]; 16];
            for (fl, row) in per_flip.iter_mut().enumerate() {
                for (m, slot) in row.iter_mut().enumerate() {
                    let mut y = 0usize;
                    for i in 0..4 {
                        let xb = m >> perm[i] & 1;
                        y |= (xb ^ (fl >> i & 1)) << i;
                    }
                    *slot = y as u8;
                }
            }
            all.push(per_flip);
        }
        all
    })
}

fn apply_with_map(f: u16, map: &[u8; 16], out: bool) -> u16 {
    let mut g = 0u16;
    for (m, &src) in map.iter().enumerate() {
        if f >> src & 1 != 0 {
            g |= 1 << m;
        }
    }
    if out {
        !g
    } else {
        g
    }
}

/// Computes the NPN-canonical representative of `f` and a transform with
/// `canon == transform.apply(f)`.
///
/// The canonical form is the numerically smallest table reachable by any of
/// the 768 NPN transforms, so all members of a class share one canon.
///
/// ```
/// use aig::npn::npn_canon;
/// let (c1, _) = npn_canon(0x8888); // x0 & x1
/// let (c2, _) = npn_canon(0xEEEE); // x0 | x1  (NPN-equivalent to AND)
/// assert_eq!(c1, c2);
/// ```
pub fn npn_canon(f: u16) -> (u16, NpnTransform) {
    let perms = permutations4();
    let maps = minterm_maps();
    let mut best = u16::MAX;
    let mut best_t = NpnTransform::IDENTITY;
    for (pi, perm) in perms.iter().enumerate() {
        for fl in 0..16u8 {
            let map = &maps[pi][fl as usize];
            for out in [false, true] {
                let g = apply_with_map(f, map, out);
                if g < best {
                    best = g;
                    best_t = NpnTransform {
                        perm: *perm,
                        flips: fl,
                        out,
                    };
                }
            }
        }
    }
    (best, best_t)
}

/// Memoised variant of [`npn_canon`]. The memo is per thread, so a lookup
/// takes no lock: DAG-aware rewriting canonises every 4-cut of every node.
pub fn npn_canon_cached(f: u16) -> (u16, NpnTransform) {
    thread_local! {
        static CACHE: RefCell<crate::hash::FastMap<u16, (u16, NpnTransform)>> =
            RefCell::new(crate::hash::FastMap::default());
    }
    CACHE.with(|cache| {
        if let Some(&hit) = cache.borrow().get(&f) {
            return hit;
        }
        let res = npn_canon(f);
        cache.borrow_mut().insert(f, res);
        res
    })
}

/// Enumerates one representative per NPN class of 4-variable functions.
///
/// There are exactly 222 classes; this is used to pre-build the rewriting
/// library and verified in tests.
pub fn npn_class_representatives() -> Vec<u16> {
    let mut seen = crate::hash::FastSet::default();
    let mut reps = Vec::new();
    for f in 0..=u16::MAX {
        let (c, _) = npn_canon_cached(f);
        if seen.insert(c) {
            reps.push(c);
        }
    }
    reps.sort_unstable();
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identity_applies_trivially() {
        for f in [0x0000u16, 0xFFFF, 0x8888, 0x6666, 0xCAFE] {
            assert_eq!(NpnTransform::IDENTITY.apply(f), f);
        }
    }

    #[test]
    fn canon_is_invariant_under_transforms() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let f: u16 = rng.gen();
            let (c, _) = npn_canon(f);
            // Apply a random transform, canonise again: same canon.
            let t = NpnTransform {
                perm: *rand_perm(&mut rng),
                flips: rng.gen::<u8>() & 0xF,
                out: rng.gen(),
            };
            let g = t.apply(f);
            let (c2, _) = npn_canon(g);
            assert_eq!(c, c2, "f={f:#06x} g={g:#06x}");
        }
    }

    fn rand_perm(rng: &mut impl Rng) -> &'static [u8; 4] {
        &permutations4()[rng.gen_range(0..24usize)]
    }

    #[test]
    fn transform_reaches_canon() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let f: u16 = rng.gen();
            let (c, t) = npn_canon(f);
            assert_eq!(t.apply(f), c);
        }
    }

    #[test]
    fn exactly_222_classes() {
        assert_eq!(npn_class_representatives().len(), 222);
    }

    #[test]
    fn instantiate_consistency() {
        // Semantic check of `instantiate`: evaluate F on random leaf values
        // and check out ^ (T·F)(w) matches, where w is built per instantiate.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let f: u16 = rng.gen();
            let t = NpnTransform {
                perm: *rand_perm(&mut rng),
                flips: rng.gen::<u8>() & 0xF,
                out: rng.gen(),
            };
            let g = t.apply(f);
            // Represent leaf literals as plain booleans with optional
            // complement: leaf i has value v[i]; Lit complement = XOR.
            let vals: [bool; 4] = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            let leaves = [
                Lit::from_var(10, false),
                Lit::from_var(11, false),
                Lit::from_var(12, false),
                Lit::from_var(13, false),
            ];
            let (w, out) = t.instantiate(&leaves);
            // Evaluate F(vals).
            let mf = (0..4).fold(0u16, |acc, i| acc | (vals[i] as u16) << i);
            let lhs = f >> mf & 1 != 0;
            // Evaluate out ^ G(w-values).
            let wval = |l: Lit| -> bool {
                let base = vals[(l.var() - 10) as usize];
                base ^ l.is_compl()
            };
            let mg = (0..4).fold(0u16, |acc, j| acc | (wval(w[j]) as u16) << j);
            let rhs = out ^ (g >> mg & 1 != 0);
            assert_eq!(lhs, rhs, "f={f:#06x} t={t:?}");
        }
    }

    #[test]
    fn cached_matches_uncached() {
        for f in [0u16, 1, 0x1234, 0xFFFF, 0x8000] {
            assert_eq!(npn_canon_cached(f), npn_canon(f));
        }
    }
}
