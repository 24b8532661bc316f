//! Multi-word truth tables and irredundant sum-of-products (ISOP) covers.
//!
//! A [`Tt`] stores the complete function table of an `n`-variable Boolean
//! function as packed 64-bit words, exactly like ABC/mockturtle truth tables:
//! bit `m` of the table is the function value on minterm `m`, and variable
//! `i` of minterm `m` is bit `i` of `m`.
//!
//! The [`Tt::isop`] method computes an irredundant SOP cover with the
//! Minato–Morreale algorithm; the cube counts of `f` and `!f` together form
//! the paper's *branching complexity* metric (Fig. 3) and the clause count of
//! the ISOP-based LUT-to-CNF encoding.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Patterns of the first six elementary variables within a single word.
pub(crate) const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A complete truth table over `nvars` variables.
///
/// ```
/// use aig::Tt;
/// let a = Tt::var(3, 0);
/// let b = Tt::var(3, 1);
/// let c = Tt::var(3, 2);
/// let maj = (a.clone() & b.clone()) | (b.clone() & c.clone()) | (a & c);
/// assert_eq!(maj.count_ones(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tt {
    nvars: usize,
    words: Vec<u64>,
}

/// The relations between the cofactors `c0 = f|x=0` and `c1 = f|x=1` of a
/// table with respect to one variable, as [`Tt::cofactor_pair`] measures
/// them. These answer the top-decomposition tests of the `synth` crate's
/// decomposition engine and its choice of Shannon variable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CofactorPair {
    /// `c0` is constant false (`f = x & c1`).
    pub c0_zero: bool,
    /// `c0` is constant true (`f = !x | c1`).
    pub c0_one: bool,
    /// `c1` is constant false (`f = !x & c0`).
    pub c1_zero: bool,
    /// `c1` is constant true (`f = x | c0`).
    pub c1_one: bool,
    /// `c0 == !c1` (`f = x ^ c0`).
    pub complementary: bool,
    /// Ones of `c0 ^ c1` as same-size tables: zero exactly when `f` does not
    /// depend on the variable.
    pub diff_ones: u64,
}

fn n_words(nvars: usize) -> usize {
    if nvars <= 6 {
        1
    } else {
        1 << (nvars - 6)
    }
}

/// Mask selecting the valid bits of the (single) word of a small table.
fn word_mask(nvars: usize) -> u64 {
    if nvars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << nvars)) - 1
    }
}

/// True if the single-word table `w` depends on variable `i < 6`.
#[inline]
fn word_has_var(w: u64, i: usize) -> bool {
    (w ^ (w >> (1 << i))) & !VAR_MASKS[i] != 0
}

/// Repeats the low `2^nvars` bits of `w` across the whole word, so a table
/// over `nvars <= 6` variables reads as one over six that ignores the rest
/// (and all-ones means constant true).
fn replicate(mut w: u64, nvars: usize) -> u64 {
    let mut bits = 1usize << nvars;
    while bits < 64 {
        w |= w << bits;
        bits <<= 1;
    }
    w
}

impl Tt {
    /// Maximum supported variable count (table size 2^20 bits = 128 KiB).
    pub const MAX_VARS: usize = 20;

    /// The constant-false table over `nvars` variables.
    ///
    /// # Panics
    /// Panics if `nvars > Tt::MAX_VARS`.
    pub fn zero(nvars: usize) -> Tt {
        assert!(nvars <= Self::MAX_VARS, "too many truth-table variables");
        Tt {
            nvars,
            words: vec![0; n_words(nvars)],
        }
    }

    /// The constant-true table over `nvars` variables.
    pub fn one(nvars: usize) -> Tt {
        let mut t = Tt::zero(nvars);
        for w in &mut t.words {
            *w = u64::MAX;
        }
        t.mask_excess();
        t
    }

    /// The table of elementary variable `i` over `nvars` variables.
    ///
    /// # Panics
    /// Panics if `i >= nvars`.
    pub fn var(nvars: usize, i: usize) -> Tt {
        assert!(i < nvars, "variable index out of range");
        let mut t = Tt::zero(nvars);
        if i < 6 {
            for w in &mut t.words {
                *w = VAR_MASKS[i];
            }
        } else {
            let stride = 1 << (i - 6);
            for (wi, w) in t.words.iter_mut().enumerate() {
                if wi & stride != 0 {
                    *w = u64::MAX;
                }
            }
        }
        t.mask_excess();
        t
    }

    /// Builds a table from raw words (low minterms first).
    ///
    /// # Panics
    /// Panics if `words.len()` does not match `nvars`.
    pub fn from_words(nvars: usize, words: Vec<u64>) -> Tt {
        assert_eq!(words.len(), n_words(nvars), "word count mismatch");
        let mut t = Tt { nvars, words };
        t.mask_excess();
        t
    }

    /// Builds a 4-variable table from its 16-bit encoding.
    pub fn from_u16(bits: u16) -> Tt {
        Tt {
            nvars: 4,
            words: vec![bits as u64],
        }
    }

    /// The 16-bit encoding of a 4-variable table.
    ///
    /// # Panics
    /// Panics if the table does not have exactly four variables.
    pub fn to_u16(&self) -> u16 {
        assert_eq!(self.nvars, 4, "to_u16 requires a 4-variable table");
        (self.words[0] & 0xFFFF) as u16
    }

    /// Builds a table over at most six variables from a single word.
    pub fn from_u64(nvars: usize, bits: u64) -> Tt {
        assert!(nvars <= 6, "from_u64 supports at most 6 variables");
        let mut t = Tt {
            nvars,
            words: vec![bits],
        };
        t.mask_excess();
        t
    }

    /// The single-word encoding of a table over at most six variables.
    pub fn to_u64(&self) -> u64 {
        assert!(self.nvars <= 6, "to_u64 supports at most 6 variables");
        self.words[0]
    }

    /// Number of variables.
    #[inline]
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Raw words of the table.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_excess(&mut self) {
        if self.nvars < 6 {
            self.words[0] &= word_mask(self.nvars);
        }
    }

    /// Value of the function on minterm `m`.
    #[inline]
    pub fn bit(&self, m: usize) -> bool {
        self.words[m >> 6] >> (m & 63) & 1 != 0
    }

    /// Sets the value of the function on minterm `m`.
    #[inline]
    pub fn set_bit(&mut self, m: usize, v: bool) {
        if v {
            self.words[m >> 6] |= 1u64 << (m & 63);
        } else {
            self.words[m >> 6] &= !(1u64 << (m & 63));
        }
    }

    /// Number of satisfying minterms.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// True if the function is constant false.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if the function is constant true.
    pub fn is_one(&self) -> bool {
        let last_mask = word_mask(self.nvars);
        if self.words.len() == 1 {
            return self.words[0] == last_mask;
        }
        self.words.iter().all(|&w| w == u64::MAX)
    }

    /// Negative cofactor with respect to variable `i` (as a same-size table).
    pub fn cofactor0(&self, i: usize) -> Tt {
        assert!(i < self.nvars);
        let mut t = self.clone();
        if i < 6 {
            let shift = 1 << i;
            let mask = !VAR_MASKS[i];
            for w in &mut t.words {
                let lo = *w & mask;
                *w = lo | lo << shift;
            }
        } else {
            let stride = 1 << (i - 6);
            let n = t.words.len();
            let mut wi = 0;
            while wi < n {
                for k in 0..stride {
                    t.words[wi + stride + k] = t.words[wi + k];
                }
                wi += 2 * stride;
            }
        }
        t.mask_excess();
        t
    }

    /// Positive cofactor with respect to variable `i` (as a same-size table).
    pub fn cofactor1(&self, i: usize) -> Tt {
        assert!(i < self.nvars);
        let mut t = self.clone();
        if i < 6 {
            let shift = 1 << i;
            let mask = VAR_MASKS[i];
            for w in &mut t.words {
                let hi = *w & mask;
                *w = hi | hi >> shift;
            }
        } else {
            let stride = 1 << (i - 6);
            let n = t.words.len();
            let mut wi = 0;
            while wi < n {
                for k in 0..stride {
                    t.words[wi + k] = t.words[wi + stride + k];
                }
                wi += 2 * stride;
            }
        }
        t.mask_excess();
        t
    }

    /// True if the function depends on variable `i`.
    ///
    /// Compares the two cofactor halves in place: shifted bit fields within
    /// each word for `i < 6`, word blocks for `i >= 6`.
    pub fn has_var(&self, i: usize) -> bool {
        assert!(i < self.nvars);
        if i < 6 {
            self.words.iter().any(|&w| word_has_var(w, i))
        } else {
            let stride = 1 << (i - 6);
            self.words
                .chunks_exact(2 * stride)
                .any(|block| block[..stride] != block[stride..])
        }
    }

    /// How the two cofactors with respect to variable `i` relate, in one
    /// pass over the table and without building either cofactor.
    ///
    /// Reads each cofactor pair in place, like [`Tt::has_var`]: shifted bit
    /// fields within each word for `i < 6`, word blocks for `i >= 6`.
    pub fn cofactor_pair(&self, i: usize) -> CofactorPair {
        assert!(i < self.nvars);
        let mut p = CofactorPair {
            c0_zero: true,
            c0_one: true,
            c1_zero: true,
            c1_one: true,
            complementary: true,
            diff_ones: 0,
        };
        // `lo`/`hi`: the two cofactors' values on the same minterm
        // positions, under `full` (the positions of one cofactor).
        let mut visit = |lo: u64, hi: u64, full: u64| {
            p.c0_zero &= lo == 0;
            p.c0_one &= lo == full;
            p.c1_zero &= hi == 0;
            p.c1_one &= hi == full;
            p.complementary &= lo ^ hi == full;
            p.diff_ones += u64::from((lo ^ hi).count_ones());
        };
        if i < 6 {
            let shift = 1 << i;
            let full = !VAR_MASKS[i] & word_mask(self.nvars);
            for &w in &self.words {
                visit(w & full, (w >> shift) & full, full);
            }
        } else {
            let stride = 1 << (i - 6);
            for block in self.words.chunks_exact(2 * stride) {
                let (w0, w1) = block.split_at(stride);
                for (&lo, &hi) in w0.iter().zip(w1) {
                    visit(lo, hi, u64::MAX);
                }
            }
        }
        // Same-size cofactor tables repeat each position twice.
        p.diff_ones *= 2;
        p
    }

    /// The set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.nvars).filter(|&i| self.has_var(i)).collect()
    }

    /// Swaps the roles of variables `i` and `j`.
    pub fn swap_vars(&self, i: usize, j: usize) -> Tt {
        if i == j {
            return self.clone();
        }
        self.permute(&identity_swapped(self.nvars, i, j))
    }

    /// Reorders variables: new variable `perm[i]` takes the role of old
    /// variable `i` (i.e. minterm bit `i` moves to bit `perm[i]`).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..nvars`.
    pub fn permute(&self, perm: &[usize]) -> Tt {
        assert_eq!(perm.len(), self.nvars, "permutation length mismatch");
        let mut seen = vec![false; self.nvars];
        for &p in perm {
            assert!(p < self.nvars && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut out = Tt::zero(self.nvars);
        let total = 1usize << self.nvars;
        for m in 0..total {
            if self.bit(m) {
                let mut mm = 0usize;
                for (i, &p) in perm.iter().enumerate() {
                    if m >> i & 1 != 0 {
                        mm |= 1 << p;
                    }
                }
                out.set_bit(mm, true);
            }
        }
        out
    }

    /// Complements the polarity of input variable `i`.
    pub fn flip_var(&self, i: usize) -> Tt {
        assert!(i < self.nvars);
        let mut t = self.clone();
        if i < 6 {
            let shift = 1 << i;
            for w in &mut t.words {
                let hi = *w & VAR_MASKS[i];
                let lo = *w & !VAR_MASKS[i];
                *w = hi >> shift | lo << shift;
            }
        } else {
            let stride = 1 << (i - 6);
            let n = t.words.len();
            let mut wi = 0;
            while wi < n {
                for k in 0..stride {
                    t.words.swap(wi + k, wi + stride + k);
                }
                wi += 2 * stride;
            }
        }
        t
    }

    /// Re-expresses the function over a larger variable set (the new
    /// variables are don't-cares).
    ///
    /// # Panics
    /// Panics if `nvars < self.nvars()`.
    pub fn extend_to(&self, nvars: usize) -> Tt {
        assert!(nvars >= self.nvars, "cannot shrink a table with extend_to");
        if nvars == self.nvars {
            return self.clone();
        }
        let mut t = Tt::zero(nvars);
        if self.nvars <= 6 {
            t.words.fill(replicate(self.words[0], self.nvars));
        } else {
            let chunk = self.words.len();
            for (wi, out) in t.words.iter_mut().enumerate() {
                *out = self.words[wi % chunk];
            }
        }
        t.mask_excess();
        t
    }

    /// Projects the function onto the variables it actually depends on.
    ///
    /// Returns the shrunk table and the original indices of the kept
    /// variables (`kept[i]` is the old index of new variable `i`).
    pub fn shrink_to_support(&self) -> (Tt, Vec<usize>) {
        let sup = self.support();
        let mut t = Tt::zero(sup.len());
        let total = 1usize << sup.len();
        for m in 0..total {
            // Build a representative full minterm: support vars as in `m`,
            // other vars at 0.
            let mut full = 0usize;
            for (i, &v) in sup.iter().enumerate() {
                if m >> i & 1 != 0 {
                    full |= 1 << v;
                }
            }
            if self.bit(full) {
                t.set_bit(m, true);
            }
        }
        (t, sup)
    }
}

fn identity_swapped(n: usize, i: usize, j: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.swap(i, j);
    p
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Tt {
            type Output = Tt;
            fn $method(self, rhs: Tt) -> Tt { (&self).$method(&rhs) }
        }
        impl<'a> $trait<&'a Tt> for &'a Tt {
            type Output = Tt;
            fn $method(self, rhs: &'a Tt) -> Tt {
                assert_eq!(self.nvars, rhs.nvars, "truth-table arity mismatch");
                let words = self
                    .words
                    .iter()
                    .zip(&rhs.words)
                    .map(|(a, b)| a $op b)
                    .collect();
                Tt { nvars: self.nvars, words }
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

impl Not for Tt {
    type Output = Tt;
    fn not(self) -> Tt {
        !&self
    }
}

impl Not for &Tt {
    type Output = Tt;
    fn not(self) -> Tt {
        let mut t = Tt {
            nvars: self.nvars,
            words: self.words.iter().map(|w| !w).collect(),
        };
        t.mask_excess();
        t
    }
}

impl fmt::Debug for Tt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tt{}[", self.nvars)?;
        for w in self.words.iter().rev() {
            write!(f, "{w:016x}")?;
        }
        write!(f, "]")
    }
}

// ---------------------------------------------------------------------------
// Cubes and ISOP
// ---------------------------------------------------------------------------

/// A product term (cube) over at most 32 variables.
///
/// Variable `i` appears in the cube iff bit `i` of `mask` is set; its
/// polarity is bit `i` of `vals` (1 = positive literal).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cube {
    /// Which variables appear in the cube.
    pub mask: u32,
    /// Polarity of each appearing variable.
    pub vals: u32,
}

impl Cube {
    /// The empty cube (constant true product).
    pub const TAUTOLOGY: Cube = Cube { mask: 0, vals: 0 };

    /// Adds literal `var` with polarity `positive` to the cube.
    pub fn with_lit(mut self, var: usize, positive: bool) -> Cube {
        self.mask |= 1 << var;
        if positive {
            self.vals |= 1 << var;
        } else {
            self.vals &= !(1 << var);
        }
        self
    }

    /// Number of literals in the cube.
    pub fn num_lits(&self) -> u32 {
        self.mask.count_ones()
    }

    /// Iterates over `(var, positive)` pairs of the cube's literals.
    pub fn lits(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            let i = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (i < 32).then(|| (i, self.vals >> i & 1 != 0))
        })
    }

    /// Evaluates the cube on a minterm.
    pub fn eval(&self, minterm: u32) -> bool {
        minterm & self.mask == self.vals & self.mask
    }

    /// The characteristic truth table of the cube over `nvars` variables.
    pub fn to_tt(&self, nvars: usize) -> Tt {
        let mut t = Tt::one(nvars);
        for (v, pos) in self.lits() {
            let tv = Tt::var(nvars, v);
            t = if pos { t & tv } else { t & !tv };
        }
        t
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mask == 0 {
            return write!(f, "1");
        }
        for (v, pos) in self.lits() {
            write!(f, "{}x{}", if pos { "" } else { "!" }, v)?;
        }
        Ok(())
    }
}

impl Tt {
    /// Irredundant sum-of-products cover via Minato–Morreale.
    ///
    /// The returned cubes satisfy `OR(cubes) == self` exactly (verified in
    /// tests); the cover is irredundant in the ISOP sense (each cube contains
    /// a minterm covered by no other cube).
    ///
    /// The cube order is part of the contract: `lut2cnf` emits clauses and
    /// `refactor` builds structures in this order, so it must not change.
    pub fn isop(&self) -> Vec<Cube> {
        let mut cover = Vec::new();
        if self.nvars <= 6 {
            let w = replicate(self.words[0], self.nvars);
            let f = isop_word(w, w, self.nvars, &mut cover);
            debug_assert_eq!(f, w, "ISOP cover must equal the function");
        } else {
            let n = self.words.len();
            // The covered function, then three half-size buffers per level
            // below it: 3 * (n/2 + n/4 + .. + 1) < 3n words.
            let mut buf = vec![0u64; 4 * n];
            let (covered, scratch) = buf.split_at_mut(n);
            isop_words(&self.words, &self.words, covered, scratch, &mut cover);
            debug_assert_eq!(
                covered,
                &self.words[..],
                "ISOP cover must equal the function"
            );
        }
        cover
    }

    /// `|isop(f)| + |isop(!f)|` — the paper's *branching complexity* of a
    /// cell implementing this function, and simultaneously the number of
    /// clauses the ISOP LUT-to-CNF encoding produces for it.
    ///
    /// ```
    /// use aig::Tt;
    /// // Fig. 3 of the paper: 2-input AND has C = 3, 2-input XOR has C = 4.
    /// assert_eq!(Tt::from_u64(2, 0x8).branching_complexity(), 3);
    /// assert_eq!(Tt::from_u64(2, 0x6).branching_complexity(), 4);
    /// ```
    pub fn branching_complexity(&self) -> usize {
        self.isop().len() + (!self).isop().len()
    }
}

/// Adds literal `var` with polarity `positive` to every cube of `cubes`.
fn add_lit(cubes: &mut [Cube], var: usize, positive: bool) {
    for c in cubes {
        *c = c.with_lit(var, positive);
    }
}

/// Minato–Morreale on one word: appends an ISOP cover of some `f` with
/// `lower <= f <= upper` to `cover` and returns `f`. Both bounds are
/// replicated six-variable tables that ignore variables `top..6`.
///
/// Finds the topmost variable `v` either bound depends on, then covers the
/// minterms that need `!v`, those that need `v`, and the rest, in that
/// order.
fn isop_word(lower: u64, upper: u64, top: usize, cover: &mut Vec<Cube>) -> u64 {
    if lower == 0 {
        return 0;
    }
    if upper == u64::MAX {
        cover.push(Cube::TAUTOLOGY);
        return u64::MAX;
    }
    let mut v = top;
    loop {
        debug_assert!(v > 0, "non-constant function must have support");
        v -= 1;
        if word_has_var(lower, v) || word_has_var(upper, v) {
            break;
        }
    }
    let shift = 1 << v;
    let hi = VAR_MASKS[v];
    let cof0 = |w: u64| (w & !hi) | (w & !hi) << shift;
    let cof1 = |w: u64| (w & hi) | (w & hi) >> shift;
    let (l0, l1, u0, u1) = (cof0(lower), cof1(lower), cof0(upper), cof1(upper));

    let start0 = cover.len();
    let f0 = isop_word(l0 & !u1, u0, v, cover);
    add_lit(&mut cover[start0..], v, false);
    let start1 = cover.len();
    let f1 = isop_word(l1 & !u0, u1, v, cover);
    add_lit(&mut cover[start1..], v, true);
    let f2 = isop_word((l0 & !f0) | (l1 & !f1), u0 & u1, v, cover);
    (f0 & !hi) | (f1 & hi) | f2
}

/// [`isop_word`] on a table of `n = lower.len()` words (a power of two),
/// whose top variable is `5 + log2(n)`. Writes the covered function to
/// `out` (`n` words); `scratch` must hold at least `3n` words.
///
/// A variable `v >= 6` splits the slice into its two cofactor halves. When
/// neither bound depends on it, both halves are equal and the recursion
/// narrows to the lower one; once one word remains, [`isop_word`] takes
/// over. No call allocates.
fn isop_words(
    lower: &[u64],
    upper: &[u64],
    out: &mut [u64],
    scratch: &mut [u64],
    cover: &mut Vec<Cube>,
) {
    if lower.iter().all(|&w| w == 0) {
        out.fill(0);
        return;
    }
    if upper.iter().all(|&w| w == u64::MAX) {
        cover.push(Cube::TAUTOLOGY);
        out.fill(u64::MAX);
        return;
    }
    let mut n = lower.len();
    while n > 1 {
        let h = n / 2;
        if lower[..h] != lower[h..n] || upper[..h] != upper[h..n] {
            break;
        }
        n = h;
    }
    if n == 1 {
        out.fill(isop_word(lower[0], upper[0], 6, cover));
        return;
    }
    let h = n / 2;
    let v = 6 + h.trailing_zeros() as usize;
    let (l0, l1) = lower[..n].split_at(h);
    let (u0, u1) = upper[..n].split_at(h);
    let (f0, f1) = out[..n].split_at_mut(h);
    let (lo, rest) = scratch.split_at_mut(h);
    let (up, rest) = rest.split_at_mut(h);
    let (f2, rest) = rest.split_at_mut(h);

    for k in 0..h {
        lo[k] = l0[k] & !u1[k];
    }
    let start0 = cover.len();
    isop_words(lo, u0, f0, rest, cover);
    add_lit(&mut cover[start0..], v, false);

    for k in 0..h {
        lo[k] = l1[k] & !u0[k];
    }
    let start1 = cover.len();
    isop_words(lo, u1, f1, rest, cover);
    add_lit(&mut cover[start1..], v, true);

    for k in 0..h {
        lo[k] = (l0[k] & !f0[k]) | (l1[k] & !f1[k]);
        up[k] = u0[k] & u1[k];
    }
    isop_words(lo, up, f2, rest, cover);
    for k in 0..h {
        f0[k] |= f2[k];
        f1[k] |= f2[k];
    }
    // Variables above `v` were skipped: the result ignores them too.
    while n < out.len() {
        out.copy_within(..n, n);
        n *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover_to_tt(nvars: usize, cubes: &[Cube]) -> Tt {
        let mut acc = Tt::zero(nvars);
        for c in cubes {
            acc = acc | c.to_tt(nvars);
        }
        acc
    }

    #[test]
    fn elementary_vars() {
        for n in 1..=8 {
            for i in 0..n {
                let t = Tt::var(n, i);
                assert_eq!(t.count_ones(), 1u64 << (n - 1));
                assert!(t.has_var(i));
                for j in 0..n {
                    assert_eq!(t.has_var(j), i == j);
                }
            }
        }
    }

    #[test]
    fn cofactors() {
        let n = 7;
        let a = Tt::var(n, 2);
        let b = Tt::var(n, 6);
        let f = a.clone() & b.clone();
        assert!(f.cofactor0(6).is_zero());
        assert_eq!(f.cofactor1(6), a);
        assert!(f.cofactor0(2).is_zero());
        assert_eq!(f.cofactor1(2), b);
    }

    #[test]
    fn swap_and_flip() {
        let n = 5;
        let f = Tt::var(n, 0) & !Tt::var(n, 3);
        let g = f.swap_vars(0, 3);
        assert_eq!(g, Tt::var(n, 3) & !Tt::var(n, 0));
        let h = f.flip_var(3);
        assert_eq!(h, Tt::var(n, 0) & Tt::var(n, 3));
        assert_eq!(h.flip_var(3), f);
    }

    #[test]
    fn permute_roundtrip() {
        let n = 4;
        let f = (Tt::var(n, 0) & Tt::var(n, 1)) | (Tt::var(n, 2) ^ Tt::var(n, 3));
        let perm = [2usize, 0, 3, 1];
        let mut inv = [0usize; 4];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        assert_eq!(f.permute(&perm).permute(&inv), f);
    }

    #[test]
    fn extend_preserves_function() {
        let f = Tt::from_u64(2, 0x6); // xor
        let g = f.extend_to(8);
        assert_eq!(g.nvars(), 8);
        for m in 0..256usize {
            assert_eq!(g.bit(m), (m & 1 != 0) ^ (m >> 1 & 1 != 0), "m={m}");
        }
    }

    #[test]
    fn shrink_to_support_works() {
        let n = 6;
        let f = Tt::var(n, 1) ^ Tt::var(n, 4);
        let (s, kept) = f.shrink_to_support();
        assert_eq!(kept, vec![1, 4]);
        assert_eq!(s, Tt::from_u64(2, 0x6));
    }

    /// The allocating Minato–Morreale recursion that [`isop_word`] and
    /// [`isop_words`] replaced: the reference for their cube order.
    fn isop_reference(f: &Tt) -> Vec<Cube> {
        let mut cover = Vec::new();
        let g = isop_rec(f, f, f.nvars(), &mut cover);
        assert_eq!(&g, f, "reference cover must equal the function");
        cover
    }

    fn isop_rec(lower: &Tt, upper: &Tt, top: usize, cover: &mut Vec<Cube>) -> Tt {
        if lower.is_zero() {
            return Tt::zero(lower.nvars());
        }
        if upper.is_one() {
            cover.push(Cube::TAUTOLOGY);
            return Tt::one(lower.nvars());
        }
        let mut v = top;
        loop {
            v -= 1;
            let differs = |t: &Tt| t.cofactor0(v) != t.cofactor1(v);
            if differs(lower) || differs(upper) {
                break;
            }
        }
        let l0 = lower.cofactor0(v);
        let l1 = lower.cofactor1(v);
        let u0 = upper.cofactor0(v);
        let u1 = upper.cofactor1(v);
        let start0 = cover.len();
        let f0 = isop_rec(&(&l0 & &!&u1), &u0, v, cover);
        add_lit(&mut cover[start0..], v, false);
        let start1 = cover.len();
        let f1 = isop_rec(&(&l1 & &!&u0), &u1, v, cover);
        add_lit(&mut cover[start1..], v, true);
        let lnew = &(&l0 & &!&f0) | &(&l1 & &!&f1);
        let f2 = isop_rec(&lnew, &(&u0 & &u1), v, cover);
        let tv = Tt::var(lower.nvars(), v);
        (&(&f0 & &!&tv) | &(&f1 & &tv)) | f2
    }

    fn random_tt(rng: &mut rand::rngs::StdRng, n: usize) -> Tt {
        use rand::Rng;
        Tt::from_words(n, (0..n_words(n)).map(|_| rng.gen::<u64>()).collect())
    }

    fn assert_isop_matches_reference(f: &Tt) {
        for g in [f.clone(), !f] {
            assert_eq!(g.isop(), isop_reference(&g), "{g:?}");
        }
    }

    #[test]
    fn isop_order_matches_reference_exhaustive() {
        for n in 0..=4usize {
            for bits in 0..1u64 << (1 << n) {
                assert_isop_matches_reference(&Tt::from_u64(n, bits));
            }
        }
    }

    #[test]
    fn isop_order_matches_reference_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1509);
        for n in 0..=12usize {
            for _ in 0..12 {
                // Dense random tables.
                assert_isop_matches_reference(&random_tt(&mut rng, n));
                // Sparse ones (few minterms, so small cubes and deep
                // recursion) and tables that ignore their top variables.
                let a = random_tt(&mut rng, n);
                let b = random_tt(&mut rng, n);
                assert_isop_matches_reference(&(&a & &b));
                let k = rng.gen_range(0..=n);
                assert_isop_matches_reference(&random_tt(&mut rng, k).extend_to(n));
                // A random subset of variables removed anywhere in the table.
                let mut g = random_tt(&mut rng, n);
                for i in 0..n {
                    if rng.gen_bool(0.4) {
                        g = g.cofactor1(i);
                    }
                }
                assert_isop_matches_reference(&g);
            }
        }
    }

    #[test]
    fn has_var_matches_cofactors() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDE9);
        let check = |t: &Tt| {
            for i in 0..t.nvars() {
                assert_eq!(t.has_var(i), t.cofactor0(i) != t.cofactor1(i), "{t:?} x{i}");
            }
        };
        for n in 1..=11usize {
            for _ in 0..16 {
                let f = random_tt(&mut rng, n);
                check(&f);
                check(&!&f);
                for i in 0..n {
                    // Independent of x_i, then dependent on it at a single
                    // minterm anywhere in the table.
                    let mut g = f.cofactor0(i);
                    check(&g);
                    let m = rng.gen_range(0..1usize << n);
                    g.set_bit(m, !g.bit(m));
                    assert!(g.has_var(i), "n={n} x{i} m={m}");
                    check(&g);
                }
            }
        }
    }

    #[test]
    fn cofactor_pair_matches_materialised_cofactors() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FA);
        let check = |t: &Tt| {
            for i in 0..t.nvars() {
                let (c0, c1) = (t.cofactor0(i), t.cofactor1(i));
                let want = CofactorPair {
                    c0_zero: c0.is_zero(),
                    c0_one: c0.is_one(),
                    c1_zero: c1.is_zero(),
                    c1_one: c1.is_one(),
                    complementary: c0 == !&c1,
                    diff_ones: (&c0 ^ &c1).count_ones(),
                };
                assert_eq!(t.cofactor_pair(i), want, "{t:?} x{i}");
            }
        };
        // Every function of up to three variables (tables under one word).
        for n in 1..=3usize {
            for bits in 0..1u64 << (1 << n) {
                check(&Tt::from_u64(n, bits));
            }
        }
        for n in 1..=12usize {
            for _ in 0..12 {
                let f = random_tt(&mut rng, n);
                check(&f);
                check(&!&f);
                for i in 0..n {
                    // Each relation made to hold for x_i: one cofactor
                    // constant, the cofactors complementary, x_i unused.
                    let g = f.cofactor0(i);
                    let xi = Tt::var(n, i);
                    check(&g);
                    check(&(&g & &xi));
                    check(&(&g & &!&xi));
                    check(&(&g | &xi));
                    check(&(&g | &!&xi));
                    check(&(&g ^ &xi));
                    // Sparse tables and a single flipped minterm.
                    let mut h = &g & &random_tt(&mut rng, n);
                    check(&h);
                    let m = rng.gen_range(0..1usize << n);
                    h.set_bit(m, !h.bit(m));
                    check(&h);
                }
            }
        }
        check(&Tt::zero(7));
        check(&Tt::one(7));
        check(&Tt::one(2));
    }

    #[test]
    fn cube_lits_lists_set_bits_in_order() {
        let c = Cube {
            mask: 0x8000_0025,
            vals: 0x8000_0004,
        };
        let lits: Vec<(usize, bool)> = c.lits().collect();
        assert_eq!(lits, vec![(0, false), (2, true), (5, false), (31, true)]);
        assert_eq!(Cube::TAUTOLOGY.lits().count(), 0);
    }

    #[test]
    fn isop_covers_exactly_small() {
        // All 2- and 3-variable functions.
        for n in [2usize, 3] {
            let total = 1usize << (1 << n);
            for bits in 0..total as u64 {
                let f = Tt::from_u64(n, bits);
                let cover = f.isop();
                assert_eq!(cover_to_tt(n, &cover), f, "n={n} bits={bits:#x}");
            }
        }
    }

    #[test]
    fn isop_covers_exactly_random_4_to_9() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
        for n in 4..=9usize {
            for _ in 0..40 {
                let words = (0..(if n <= 6 { 1 } else { 1 << (n - 6) }))
                    .map(|_| rng.gen::<u64>())
                    .collect();
                let f = Tt::from_words(n, words);
                let cover = f.isop();
                assert_eq!(cover_to_tt(n, &cover), f, "n={n}");
            }
        }
    }

    #[test]
    fn paper_fig3_branching_complexity() {
        // L1 = AND: off-set splits into two cubes, on-set is one cube -> 3.
        let and2 = Tt::from_u64(2, 0x8);
        assert_eq!(and2.isop().len(), 1);
        assert_eq!((!&and2).isop().len(), 2);
        assert_eq!(and2.branching_complexity(), 3);
        // L2 = XOR: two cubes each side -> 4.
        let xor2 = Tt::from_u64(2, 0x6);
        assert_eq!(xor2.isop().len(), 2);
        assert_eq!((!&xor2).isop().len(), 2);
        assert_eq!(xor2.branching_complexity(), 4);
    }

    #[test]
    fn isop_constants() {
        assert!(Tt::zero(3).isop().is_empty());
        let ones = Tt::one(3).isop();
        assert_eq!(ones.len(), 1);
        assert_eq!(ones[0], Cube::TAUTOLOGY);
    }

    #[test]
    fn cube_eval_and_tt_agree() {
        let c = Cube::TAUTOLOGY.with_lit(0, true).with_lit(2, false);
        let t = c.to_tt(3);
        for m in 0..8u32 {
            assert_eq!(c.eval(m), t.bit(m as usize), "m={m}");
        }
    }

    #[test]
    fn xor4_isop_has_eight_cubes() {
        let n = 4;
        let f = Tt::var(n, 0) ^ Tt::var(n, 1) ^ Tt::var(n, 2) ^ Tt::var(n, 3);
        assert_eq!(f.isop().len(), 8);
        assert_eq!(f.branching_complexity(), 16);
    }
}
