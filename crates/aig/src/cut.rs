//! k-feasible cut enumeration.
//!
//! A *cut* of node `n` is a set of nodes (the *leaves*) such that every path
//! from a PI to `n` passes through a leaf; it is k-feasible when it has at
//! most `k` leaves. Cuts are the unit of work for both DAG-aware rewriting
//! (k = 4) and LUT mapping (k = 4..6): the function of `n` expressed over
//! the cut leaves is what gets replaced or mapped.
//!
//! The enumeration is the classic bottom-up merge with priority capping and
//! dominance filtering, as in ABC's cut package.
//!
//! [`ConeEval`] computes the function of a node over a cut. It is the one
//! cone evaluator of the workspace: rewriting reads 4-leaf functions from
//! it as a single word, refactoring, resubstitution and LUT mapping read
//! word slices. It keeps its tables in one reusable word arena indexed by
//! epoch-stamped per-node slots, so a query allocates nothing.

use crate::aig::Aig;
use crate::lit::Var;
use crate::tt::Tt;

/// Maximum number of leaves a [`Cut`] can hold.
pub const MAX_CUT_SIZE: usize = 8;

/// A cut: a sorted set of at most [`MAX_CUT_SIZE`] leaf nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    leaves: [Var; MAX_CUT_SIZE],
    len: u8,
    /// 64-bit Bloom-style signature for fast subset tests.
    sig: u64,
}

impl Cut {
    /// The trivial cut `{node}`.
    pub fn trivial(node: Var) -> Cut {
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[0] = node;
        Cut {
            leaves,
            len: 1,
            sig: 1u64 << (node % 64),
        }
    }

    /// Builds a cut from a sorted, deduplicated slice of leaves.
    ///
    /// # Panics
    /// Panics if the slice is longer than [`MAX_CUT_SIZE`] or not strictly
    /// sorted.
    pub fn from_sorted(leaves_in: &[Var]) -> Cut {
        assert!(leaves_in.len() <= MAX_CUT_SIZE, "cut too large");
        assert!(
            leaves_in.windows(2).all(|w| w[0] < w[1]),
            "leaves must be strictly sorted"
        );
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[..leaves_in.len()].copy_from_slice(leaves_in);
        let sig = leaves_in.iter().fold(0u64, |s, &l| s | 1u64 << (l % 64));
        Cut {
            leaves,
            len: leaves_in.len() as u8,
            sig,
        }
    }

    /// The leaves of the cut, sorted ascending.
    #[inline]
    pub fn leaves(&self) -> &[Var] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// True if `self`'s leaves are a subset of `other`'s.
    pub fn subset_of(&self, other: &Cut) -> bool {
        if self.len > other.len || self.sig & !other.sig != 0 {
            return false;
        }
        // Merge-style subset check on sorted arrays.
        let (a, b) = (self.leaves(), other.leaves());
        let mut j = 0;
        for &x in a {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j == b.len() || b[j] != x {
                return false;
            }
        }
        true
    }

    /// Merges two cuts; `None` if the union exceeds `k` leaves.
    pub fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        debug_assert!(k <= MAX_CUT_SIZE);
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = [0 as Var; MAX_CUT_SIZE];
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() || j < b.len() {
            let take_a = j == b.len() || (i < a.len() && a[i] <= b[j]);
            let v = if take_a {
                let v = a[i];
                i += 1;
                if j < b.len() && b[j] == v {
                    j += 1;
                }
                v
            } else {
                let v = b[j];
                j += 1;
                v
            };
            if n == k {
                return None;
            }
            out[n] = v;
            n += 1;
        }
        Some(Cut {
            leaves: out,
            len: n as u8,
            sig: self.sig | other.sig,
        })
    }
}

/// Parameters for cut enumeration.
#[derive(Clone, Copy, Debug)]
pub struct CutParams {
    /// Maximum leaves per cut (`2..=MAX_CUT_SIZE`).
    pub k: usize,
    /// Maximum cuts kept per node (the trivial cut is kept in addition).
    pub max_cuts: usize,
}

impl Default for CutParams {
    fn default() -> CutParams {
        CutParams { k: 4, max_cuts: 8 }
    }
}

/// All k-feasible cuts of every node.
///
/// `cuts[v]` holds the priority cuts of node `v`, each list ending with the
/// trivial cut. PIs have just their trivial cut; the constant node has none
/// (structural hashing guarantees it never feeds an AND gate).
pub fn enumerate_cuts(aig: &Aig, p: &CutParams) -> Vec<Vec<Cut>> {
    assert!((2..=MAX_CUT_SIZE).contains(&p.k), "cut size out of range");
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
    for v in 1..aig.num_nodes() as Var {
        let node = aig.node(v);
        if node.is_pi() {
            cuts[v as usize].push(Cut::trivial(v));
            continue;
        }
        let f0 = node.fanin0().var();
        let f1 = node.fanin1().var();
        let mut set: Vec<Cut> = Vec::with_capacity(p.max_cuts + 1);
        // Split borrows: the fanin cut lists are at smaller indices.
        let (c0, c1) = (&cuts[f0 as usize], &cuts[f1 as usize]);
        for a in c0 {
            for b in c1 {
                let Some(m) = a.merge(b, p.k) else { continue };
                insert_filtered(&mut set, m, p.max_cuts);
            }
        }
        set.push(Cut::trivial(v));
        cuts[v as usize] = set;
    }
    cuts
}

/// Inserts `c` into `set` unless dominated; removes cuts `c` dominates;
/// keeps the set sorted by size and capped at `cap`.
fn insert_filtered(set: &mut Vec<Cut>, c: Cut, cap: usize) {
    for existing in set.iter() {
        if existing.subset_of(&c) {
            return; // dominated by a smaller-or-equal cut
        }
    }
    set.retain(|existing| !c.subset_of(existing));
    let pos = set.partition_point(|e| e.size() <= c.size());
    set.insert(pos, c);
    if set.len() > cap {
        set.truncate(cap);
    }
}

/// Reusable truth-table evaluator for the cone of a node over cut leaves.
///
/// Every resynthesis loop asks the same question many times per node: what
/// function does `root` compute over these leaves? The evaluator answers it
/// without allocating. All tables of one evaluation live back to back in a
/// single word arena, and each node has one slot `(epoch, offset)`: the node
/// has a table in the current evaluation exactly when its epoch is the
/// current one. Starting a new evaluation bumps the epoch, which forgets
/// every table at once; the arena and the slots are reused.
///
/// Leaf `i` is elementary variable `i`. A table over `n <= 6` leaves is one
/// word in *replicated* form: bit `m` holds the value on minterm `m mod 2^n`,
/// as if the function were over six variables and ignored the top `6 - n`.
/// So the low 16 bits of a table over up to 4 leaves are its 4-variable
/// table, and complementing a table is a plain bitwise `!`. Tables over
/// more leaves take `2^(n-6)` words, low minterms first, as in [`Tt`];
/// [`Tt::from_words`] turns any table into a [`Tt`].
#[derive(Clone, Debug)]
pub struct ConeEval {
    /// Per node: the epoch of its last table and the table's arena offset.
    slot: Vec<(u32, u32)>,
    epoch: u32,
    arena: Vec<u64>,
    words: usize,
    order: Vec<Var>,
    stack: Vec<(Var, bool)>,
}

impl ConeEval {
    /// An evaluator for graphs of up to `aig.num_nodes()` nodes.
    pub fn new(aig: &Aig) -> ConeEval {
        ConeEval {
            slot: vec![(0, 0); aig.num_nodes()],
            epoch: 0,
            arena: Vec::new(),
            words: 0,
            order: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Evaluates the cone of `root` over `leaves` and returns the table of
    /// `root`. Starts a new evaluation: the tables of earlier ones are gone.
    ///
    /// Every path from a PI to `root` must pass through a leaf (true for any
    /// enumerated or reconvergence-driven cut); `root` may be a leaf itself.
    ///
    /// # Panics
    /// Panics if the cone is not closed under the leaves, if a leaf repeats,
    /// or if there are more than [`Tt::MAX_VARS`] leaves.
    pub fn eval(&mut self, aig: &Aig, root: Var, leaves: &[Var]) -> &[u64] {
        let nv = leaves.len();
        assert!(nv <= Tt::MAX_VARS, "too many cut leaves");
        if self.epoch == u32::MAX {
            self.slot.fill((0, 0));
            self.epoch = 0;
        }
        self.epoch += 1;
        self.words = if nv <= 6 { 1 } else { 1 << (nv - 6) };
        self.arena.clear();
        self.order.clear();
        for (i, &l) in leaves.iter().enumerate() {
            assert!(!self.has(l), "repeated cut leaf {l}");
            self.stamp(l);
            if i < 6 {
                let w = crate::tt::VAR_MASKS[i];
                self.arena.extend(std::iter::repeat_n(w, self.words));
            } else {
                let stride = 1 << (i - 6);
                self.arena
                    .extend((0..self.words).map(|wi| if wi & stride != 0 { !0 } else { 0 }));
            }
        }
        // Iterative post-order: a node is expanded once, then computed once
        // both fanins have tables.
        self.stack.clear();
        self.stack.push((root, false));
        while let Some((v, expanded)) = self.stack.pop() {
            if self.has(v) {
                continue;
            }
            let node = aig.node(v);
            assert!(node.is_and(), "cut leaves do not cover node {v}");
            let (a, b) = (node.fanin0().var(), node.fanin1().var());
            if expanded {
                self.add_and(aig, v);
            } else {
                self.stack.push((v, true));
                if !self.has(a) {
                    self.stack.push((a, false));
                }
                if !self.has(b) {
                    self.stack.push((b, false));
                }
            }
        }
        self.table(root).expect("root evaluated")
    }

    /// Adds AND node `v` to the current evaluation if both its fanins have
    /// tables (and `v` has none yet). Returns whether `v` has a table now.
    ///
    /// Resubstitution grows its divisor set this way: nodes outside the
    /// cone whose fanins are already expressed over the same leaves.
    pub fn add_and(&mut self, aig: &Aig, v: Var) -> bool {
        if self.has(v) {
            return true;
        }
        let node = aig.node(v);
        debug_assert!(node.is_and(), "only AND nodes are computed");
        let (a, b) = (node.fanin0(), node.fanin1());
        let (Some(oa), Some(ob)) = (self.offset(a.var()), self.offset(b.var())) else {
            return false;
        };
        let ma = if a.is_compl() { !0u64 } else { 0 };
        let mb = if b.is_compl() { !0u64 } else { 0 };
        self.stamp(v);
        for k in 0..self.words {
            let w = (self.arena[oa + k] ^ ma) & (self.arena[ob + k] ^ mb);
            self.arena.push(w);
        }
        true
    }

    /// True if `v` has a table in the current evaluation.
    #[inline]
    pub fn has(&self, v: Var) -> bool {
        self.offset(v).is_some()
    }

    /// The table of `v` in the current evaluation, if it has one.
    #[inline]
    pub fn table(&self, v: Var) -> Option<&[u64]> {
        self.offset(v).map(|o| &self.arena[o..o + self.words])
    }

    /// Every node with a table in the current evaluation, in the order the
    /// tables were made: the leaves, then the cone bottom-up, then nodes
    /// added with [`ConeEval::add_and`].
    pub fn order(&self) -> &[Var] {
        &self.order
    }

    #[inline]
    fn offset(&self, v: Var) -> Option<usize> {
        let (e, o) = self.slot[v as usize];
        (e == self.epoch && e != 0).then_some(o as usize)
    }

    fn stamp(&mut self, v: Var) {
        let offset = u32::try_from(self.arena.len()).expect("arena offset fits in u32");
        self.slot[v as usize] = (self.epoch, offset);
        self.order.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Lit;

    fn sample_aig() -> (Aig, Lit, Lit, Lit, Lit, Lit) {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let t = g.and(a, b);
        let u = g.or(t, c);
        g.add_po(u);
        (g, a, b, c, t, u)
    }

    #[test]
    fn trivial_and_merged_cuts() {
        let (g, a, b, c, t, u) = sample_aig();
        let cuts = enumerate_cuts(&g, &CutParams { k: 4, max_cuts: 8 });
        // PI cuts are trivial.
        assert_eq!(cuts[a.var() as usize], vec![Cut::trivial(a.var())]);
        // t has cut {a, b} and trivial.
        let ct = &cuts[t.var() as usize];
        assert!(ct.iter().any(|cut| cut.leaves() == [a.var(), b.var()]));
        assert!(ct.iter().any(|cut| cut.leaves() == [t.var()]));
        // u has cut {a, b, c}.
        let cu = &cuts[u.var() as usize];
        let mut want = [a.var(), b.var(), c.var()];
        want.sort_unstable();
        assert!(cu.iter().any(|cut| cut.leaves() == want));
    }

    #[test]
    fn cut_function_matches_eval() {
        let (g, a, b, c, _t, u) = sample_aig();
        let mut leaves = [a.var(), b.var(), c.var()];
        leaves.sort_unstable();
        let mut ev = ConeEval::new(&g);
        let f = Tt::from_words(3, ev.eval(&g, u.var(), &leaves).to_vec());
        for m in 0..8usize {
            // leaf i value = bit i of m; map to PI values.
            let val = |v: Var| -> bool {
                let idx = leaves.iter().position(|&l| l == v).unwrap();
                m >> idx & 1 != 0
            };
            let ins = [val(a.var()), val(b.var()), val(c.var())];
            let po_val = g.eval(&ins)[0] ^ u.is_compl();
            // f is the function of node u.var() (regular polarity).
            assert_eq!(f.bit(m), po_val, "m={m}");
        }
    }

    /// The allocating walk [`ConeEval`] replaced: a hash-map memo of
    /// masked [`Tt`]s, filled in the same post-order. Returns every table
    /// and the order in which they were made.
    fn reference_walk(
        aig: &Aig,
        root: Var,
        leaves: &[Var],
    ) -> (crate::hash::FastMap<Var, Tt>, Vec<Var>) {
        let nv = leaves.len();
        let mut memo = crate::hash::FastMap::default();
        let mut order = Vec::new();
        for (i, &l) in leaves.iter().enumerate() {
            memo.insert(l, Tt::var(nv, i));
            order.push(l);
        }
        let mut stack = vec![(root, false)];
        while let Some((v, expanded)) = stack.pop() {
            if memo.contains_key(&v) {
                continue;
            }
            let node = aig.node(v);
            assert!(node.is_and(), "cut leaves do not cover node {v}");
            let (a, b) = (node.fanin0(), node.fanin1());
            if expanded {
                let ta = memo[&a.var()].clone();
                let tb = memo[&b.var()].clone();
                let ta = if a.is_compl() { !ta } else { ta };
                let tb = if b.is_compl() { !tb } else { tb };
                memo.insert(v, ta & tb);
                order.push(v);
            } else {
                stack.push((v, true));
                if !memo.contains_key(&a.var()) {
                    stack.push((a.var(), false));
                }
                if !memo.contains_key(&b.var()) {
                    stack.push((b.var(), false));
                }
            }
        }
        (memo, order)
    }

    /// Random graph with heavy sharing: fanins drawn from the last few
    /// nodes, complemented at random, mixed with OR/XOR/MUX shapes.
    fn random_shared_aig(seed: u64, n_pis: usize, n_gates: usize) -> Aig {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut pool = g.add_pis(n_pis);
        for _ in 0..n_gates {
            let lo = pool.len().saturating_sub(12);
            let pick = |rng: &mut rand::rngs::StdRng| {
                pool[rng.gen_range(lo..pool.len())].xor_compl(rng.gen())
            };
            let (a, b, c) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
            let l = match rng.gen_range(0..4) {
                0 => g.and(a, b),
                1 => g.or(a, b),
                2 => g.xor(a, b),
                _ => g.mux(a, b, c),
            };
            if !l.is_const() && !pool.contains(&l.regular()) {
                pool.push(l.regular());
            }
        }
        let last = *pool.last().expect("non-empty");
        g.add_po(last);
        g
    }

    /// Grows a cut of `root` with up to `k` leaves by expanding random AND
    /// leaves into their fanins; returns the leaves in random order.
    fn random_cut(g: &Aig, root: Var, k: usize, rng: &mut impl rand::Rng) -> Vec<Var> {
        let mut leaves = vec![root];
        for _ in 0..4 * k {
            let ands: Vec<usize> = (0..leaves.len())
                .filter(|&i| g.node(leaves[i]).is_and())
                .collect();
            if ands.is_empty() {
                break;
            }
            let i = ands[rng.gen_range(0..ands.len())];
            let n = *g.node(leaves[i]);
            let mut next = leaves.clone();
            next.swap_remove(i);
            for f in n.fanins() {
                if !next.contains(&f.var()) {
                    next.push(f.var());
                }
            }
            if next.len() > k || next.contains(&0) {
                continue;
            }
            leaves = next;
        }
        for i in (1..leaves.len()).rev() {
            leaves.swap(i, rng.gen_range(0..=i));
        }
        leaves
    }

    #[test]
    fn cone_eval_matches_reference_memo_walk() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0e);
        let mut sizes = [0usize; 13];
        for seed in 0..12 {
            let g = random_shared_aig(seed, 14, 160);
            // One evaluator per graph, reused across every query, so stale
            // tables from earlier epochs would show up as mismatches.
            let mut ev = ConeEval::new(&g);
            for root in g.iter_ands().step_by(3) {
                let k = rng.gen_range(1..=12);
                let leaves = random_cut(&g, root, k, &mut rng);
                sizes[leaves.len()] += 1;
                let nv = leaves.len();
                let (memo, order) = reference_walk(&g, root, &leaves);
                let f = ev.eval(&g, root, &leaves).to_vec();
                assert_eq!(
                    Tt::from_words(nv, f),
                    memo[&root],
                    "seed {seed} root {root}"
                );
                assert_eq!(ev.order(), &order[..], "seed {seed} root {root}");
                for (&v, t) in &memo {
                    let got = Tt::from_words(nv, ev.table(v).expect("table").to_vec());
                    assert_eq!(&got, t, "node {v}");
                }
                // Side nodes: anything whose fanins both have tables.
                for c in g.iter_ands().filter(|&c| c > root).take(40) {
                    let n = g.node(c);
                    let (a, b) = (n.fanin0(), n.fanin1());
                    let want = match (memo.get(&a.var()), memo.get(&b.var())) {
                        (Some(ta), Some(tb)) if !ev.has(c) => {
                            let ta = if a.is_compl() { !ta } else { ta.clone() };
                            let tb = if b.is_compl() { !tb } else { tb.clone() };
                            Some(ta & tb)
                        }
                        _ => None,
                    };
                    if let Some(want) = want {
                        assert!(ev.add_and(&g, c));
                        let got = Tt::from_words(nv, ev.table(c).expect("added").to_vec());
                        assert_eq!(got, want, "side node {c}");
                    }
                }
                // A node that already has a table is not added twice.
                let made = ev.order().len();
                assert!(ev.add_and(&g, root));
                assert_eq!(ev.order().len(), made);
            }
        }
        // Root-is-leaf, and every cut size up to 12, were exercised.
        assert!(sizes.iter().skip(1).all(|&n| n > 0), "cut sizes {sizes:?}");
    }

    #[test]
    fn cone_eval_small_tables_are_replicated() {
        // x0 & !x1 over two leaves, read as a 4-variable table.
        let mut g = Aig::new();
        let pis = g.add_pis(2);
        let t = g.and(pis[0], !pis[1]);
        g.add_po(t);
        let mut ev = ConeEval::new(&g);
        let w = ev.eval(&g, t.var(), &[pis[0].var(), pis[1].var()])[0];
        assert_eq!(w, 0x2222_2222_2222_2222);
        let want = Tt::from_u64(2, 0x2).extend_to(4).to_u16();
        assert_eq!(w as u16, want);
        // The root as its own leaf is the elementary variable.
        assert_eq!(ev.eval(&g, t.var(), &[t.var()]), &[crate::tt::VAR_MASKS[0]]);
        assert_eq!(ev.order(), &[t.var()]);
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn cone_eval_rejects_open_cones() {
        let (g, a, b, _c, _t, u) = sample_aig();
        let _ = ConeEval::new(&g).eval(&g, u.var(), &[a.var(), b.var()]);
    }

    #[test]
    fn dominance_filtering() {
        let mut set = Vec::new();
        let big = Cut::from_sorted(&[1, 2, 3]);
        let small = Cut::from_sorted(&[1, 2]);
        insert_filtered(&mut set, big, 8);
        insert_filtered(&mut set, small, 8);
        // The small cut dominates and evicts the big one.
        assert_eq!(set, vec![small]);
        // Re-inserting the dominated cut is a no-op.
        insert_filtered(&mut set, big, 8);
        assert_eq!(set, vec![small]);
    }

    #[test]
    fn merge_respects_k() {
        let a = Cut::from_sorted(&[1, 2, 3]);
        let b = Cut::from_sorted(&[4, 5]);
        assert!(a.merge(&b, 4).is_none());
        let m = a.merge(&b, 5).unwrap();
        assert_eq!(m.leaves(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_dedups_common_leaves() {
        let a = Cut::from_sorted(&[1, 2, 3]);
        let b = Cut::from_sorted(&[2, 3, 4]);
        let m = a.merge(&b, 4).unwrap();
        assert_eq!(m.leaves(), &[1, 2, 3, 4]);
    }

    #[test]
    fn subset_checks() {
        let a = Cut::from_sorted(&[1, 3]);
        let b = Cut::from_sorted(&[1, 2, 3]);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(a.subset_of(&a));
    }

    #[test]
    fn cuts_cap_respected() {
        // A chain of ANDs produces many cuts; ensure the cap holds.
        let mut g = Aig::new();
        let pis = g.add_pis(10);
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        let cuts = enumerate_cuts(&g, &CutParams { k: 4, max_cuts: 5 });
        for set in &cuts {
            assert!(set.len() <= 6, "cap plus trivial cut");
        }
    }
}
