//! Bit-parallel simulation.
//!
//! Each `u64` word carries 64 independent input patterns, so one sweep over
//! the node array evaluates the circuit on 64 assignments at once. Random
//! simulation underpins probabilistic equivalence checking, resubstitution
//! filtering, and the structural embedding's functional signatures.
//!
//! Signatures live in a [`SimVectors`] matrix: one flat `Vec<u64>` holding
//! `n_words` words per row (row-major, stride `n_words`), one row per AIG
//! node. Simulation writes straight into the matrix column by column, so
//! neither the producer nor any consumer allocates per-node rows.
use crate::aig::Aig;
use crate::compile::SimProgram;
use crate::tt::Tt;
use rand::{Rng, SeedableRng};

/// A flat, strided matrix of simulation words: `n_rows` rows of `n_words`
/// `u64` words each, in one contiguous buffer.
///
/// Row `r` occupies `words[r * n_words .. (r + 1) * n_words]`. For
/// node-signature matrices the row index is the node id; for PO-signature
/// matrices it is the output index.
#[derive(Clone, Debug)]
pub struct SimVectors {
    words: Vec<u64>,
    n_words: usize,
    /// Dense per-node scratch column reused across simulations (excluded
    /// from equality; purely a cache).
    scratch: Vec<u64>,
}

impl Default for SimVectors {
    fn default() -> SimVectors {
        SimVectors::new()
    }
}

impl PartialEq for SimVectors {
    fn eq(&self, other: &SimVectors) -> bool {
        self.n_words == other.n_words && self.words == other.words
    }
}

impl Eq for SimVectors {}

impl SimVectors {
    /// An empty matrix; shape it with [`SimVectors::reshape`].
    pub fn new() -> SimVectors {
        SimVectors {
            words: Vec::new(),
            n_words: 0,
            scratch: Vec::new(),
        }
    }

    /// An all-zero matrix of `n_rows * n_words` words.
    pub fn zero(n_rows: usize, n_words: usize) -> SimVectors {
        SimVectors {
            words: vec![0u64; n_rows * n_words],
            n_words,
            scratch: Vec::new(),
        }
    }

    /// Reshapes to `n_rows * n_words`, reusing the existing buffer —
    /// repeated simulations (e.g. one per sweep round) pay the matrix
    /// allocation once instead of remapping megabytes per call.
    ///
    /// Retained cells are *not* cleared: contents are unspecified until
    /// written. Every producer here overwrites whole columns (each column
    /// pass scatters every row), so no memset is needed between reuses.
    pub fn reshape(&mut self, n_rows: usize, n_words: usize) {
        self.n_words = n_words;
        self.words.resize(n_rows * n_words, 0);
    }

    /// Words per row (the stride).
    #[inline]
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.words.len().checked_div(self.n_words).unwrap_or(0)
    }

    /// Row `r` as a word slice (borrow, no copy).
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.n_words..(r + 1) * self.n_words]
    }

    /// Mutable access to row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.n_words..(r + 1) * self.n_words]
    }

    /// Word `w` of row `r`.
    #[inline]
    pub fn word(&self, r: usize, w: usize) -> u64 {
        self.words[r * self.n_words + w]
    }

    /// The whole word buffer, for in-crate raw-pointer producers.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Order-sensitive checksum of the whole matrix.
    ///
    /// Every word of every row contributes, with a per-word and per-row
    /// rotation so that moving a word between columns or rows changes the
    /// result — unlike a plain XOR fold, where symmetric contents (or a
    /// row XORing to zero) make disagreement invisible. Used by the bench
    /// harness and CI to compare the two simulation engines.
    pub fn checksum(&self) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (self.words.len() as u64);
        if self.n_words == 0 {
            return h;
        }
        for row in self.words.chunks_exact(self.n_words) {
            let mut x = 0u64;
            for (j, &w) in row.iter().enumerate() {
                x ^= w.rotate_left((j & 63) as u32);
            }
            h = h.rotate_left(7) ^ x;
        }
        h
    }

    /// Simulates the graph on one 64-pattern word per PI, writing node
    /// values into column `w` of the matrix (row = node id). The matrix
    /// must have one row per node; the constant node's column stays 0.
    ///
    /// # Panics
    /// Panics if `pi_words.len() != aig.num_pis()` or `w >= n_words`.
    pub fn simulate_column(&mut self, aig: &Aig, w: usize, pi_words: &[u64]) {
        self.simulate_block(aig, w, 1, pi_words);
    }

    /// Simulates `nb` consecutive columns (`w0 .. w0 + nb`) in one blocked
    /// pass. `pi_block` holds the input words PI-major: words `j` of PI `i`
    /// at `pi_block[i * nb + j]`.
    ///
    /// With `nb` sized to a cache line (8 words), the strided scatter into
    /// the matrix touches each row's line once per *block* instead of once
    /// per column — the main memory-traffic win of the flat layout.
    ///
    /// # Panics
    /// Panics if `pi_block.len() != aig.num_pis() * nb` or the column range
    /// is out of bounds.
    pub fn simulate_block(&mut self, aig: &Aig, w0: usize, nb: usize, pi_block: &[u64]) {
        assert!(w0 + nb <= self.n_words, "column range out of bounds");
        debug_assert_eq!(self.n_rows(), aig.num_nodes(), "one row per node");
        let mut val = std::mem::take(&mut self.scratch);
        sim_dense_block(aig, nb, pi_block, &mut val);
        let stride = self.n_words;
        for v in 0..aig.num_nodes() {
            self.words[v * stride + w0..v * stride + w0 + nb]
                .copy_from_slice(&val[v * nb..(v + 1) * nb]);
        }
        self.scratch = val;
    }
}

/// Evaluates every node on `nb` words per PI into a dense node-major buffer
/// (`val[v * nb + j]` = word `j` of node `v`), reusing `val`'s allocation.
///
/// This is the simulation kernel proper: fanin loads stay in a contiguous,
/// cache-resident buffer; scattering into a strided signature matrix is the
/// caller's (cheap, linear) job.
///
/// # Panics
/// Panics if `pi_block.len() != aig.num_pis() * nb`.
fn sim_dense_block(aig: &Aig, nb: usize, pi_block: &[u64], val: &mut Vec<u64>) {
    assert_eq!(
        pi_block.len(),
        aig.num_pis() * nb,
        "nb simulation words per PI required"
    );
    val.clear();
    val.resize(aig.num_nodes() * nb, 0);
    for (i, &pi) in aig.pis().iter().enumerate() {
        val[pi as usize * nb..(pi as usize + 1) * nb]
            .copy_from_slice(&pi_block[i * nb..(i + 1) * nb]);
    }
    for v in aig.iter_ands() {
        let node = aig.node(v);
        let (f0, f1) = (node.fanin0(), node.fanin1());
        let m0 = if f0.is_compl() { !0u64 } else { 0 };
        let m1 = if f1.is_compl() { !0u64 } else { 0 };
        let (i0, i1, iv) = (
            f0.var() as usize * nb,
            f1.var() as usize * nb,
            v as usize * nb,
        );
        for j in 0..nb {
            val[iv + j] = (val[i0 + j] ^ m0) & (val[i1 + j] ^ m1);
        }
    }
}

/// Evaluates all nodes on one 64-pattern word per PI.
///
/// Returns one word per node, in node order (constant node first, value 0).
/// One-shot convenience around [`SimVectors::simulate_column`]; batch
/// clients should simulate into a shared matrix instead.
///
/// # Panics
/// Panics if `pi_words.len() != aig.num_pis()`.
pub fn simulate_words(aig: &Aig, pi_words: &[u64]) -> Vec<u64> {
    let mut sv = SimVectors::zero(aig.num_nodes(), 1);
    sv.simulate_column(aig, 0, pi_words);
    sv.words
}

/// Per-node signatures over `n_words * 64` uniformly random patterns.
///
/// `row(v)[w]` is simulation word `w` of node `v`. Deterministic for a
/// fixed seed.
pub fn random_signatures(aig: &Aig, n_words: usize, seed: u64) -> SimVectors {
    let mut sigs = SimVectors::new();
    random_signatures_into(aig, n_words, seed, &mut sigs);
    sigs
}

/// Columns per blocked simulation pass: one 64-byte cache line of words.
const SIM_BLOCK: usize = 8;

/// [`random_signatures`] into a caller-owned matrix, reusing its buffer.
///
/// Wide fills (≥ 4 words) go through the compiled engine
/// ([`SimProgram::full`] + [`random_columns_prog`]), which amortises one
/// cheap compilation over many columns; narrow fills stay on the
/// interpreter. Both produce bit-identical matrices, so the routing is
/// invisible to callers.
pub fn random_signatures_into(aig: &Aig, n_words: usize, seed: u64, sigs: &mut SimVectors) {
    sigs.reshape(aig.num_nodes(), n_words);
    if n_words >= 4 {
        let prog = SimProgram::full(aig);
        random_columns_prog(&prog, sigs, 0, n_words, seed);
    } else {
        random_columns(aig, sigs, 0, n_words, seed);
    }
}

/// Decorrelates a per-block random stream from the base seed (splitmix64
/// finalizer). Seeding every block independently — instead of drawing one
/// sequential stream — makes block `b`'s words depend only on
/// `(seed, b)`, so both engines and every column offset see the same
/// patterns per block.
#[inline]
fn block_seed(seed: u64, block: u64) -> u64 {
    let mut z = seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The blocks of a random fill of columns `w0 .. w0 + n_cols`:
/// `(start column, width)`, at most [`SIM_BLOCK`] wide. A block's
/// position in this sequence is the index of its RNG stream.
fn blocks(w0: usize, n_cols: usize) -> impl Iterator<Item = (usize, usize)> {
    let end = w0 + n_cols;
    (w0..end)
        .step_by(SIM_BLOCK)
        .map(move |w| (w, SIM_BLOCK.min(end - w)))
}

/// Fills one random block's PI words from its private stream.
fn fill_pi_block(pi_block: &mut [u64], seed: u64, block: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(block_seed(seed, block));
    for p in pi_block.iter_mut() {
        *p = rng.gen();
    }
}

/// Fills columns `w0 .. w0 + n_cols` of an already-shaped matrix with
/// uniformly random patterns, in blocked interpreter passes.
/// Deterministic for a fixed seed, and bit-identical to
/// [`random_columns_prog`]. Serves narrow fills in
/// [`random_signatures_into`] and is the reference the compiled engine is
/// tested against.
pub fn random_columns(aig: &Aig, sigs: &mut SimVectors, w0: usize, n_cols: usize, seed: u64) {
    let n_pis = aig.num_pis();
    let mut pi_block = vec![0u64; n_pis * SIM_BLOCK];
    for (b, (w, nb)) in blocks(w0, n_cols).enumerate() {
        let pi = &mut pi_block[..n_pis * nb];
        fill_pi_block(pi, seed, b as u64);
        sigs.simulate_block(aig, w, nb, pi);
    }
}

/// [`random_columns`] driven by a compiled program instead of the
/// interpreter.
///
/// The block structure and per-block RNG streams are identical to the
/// interpreter's, and a [`SimProgram::full`] program writes every node
/// row bit-identically to [`SimVectors::simulate_block`] — so for any
/// `(seed, column range)` this fills exactly the same matrix as
/// [`random_columns`]. The win is the run itself: one precompiled op
/// sweep writing straight into the strided matrix, instead of a dense
/// interpreter pass plus a row-by-row scatter.
///
/// # Panics
/// Panics if the matrix shape does not match the program
/// (`n_rows == prog.n_slots()`) or the column range is out of bounds.
pub fn random_columns_prog(
    prog: &SimProgram,
    sigs: &mut SimVectors,
    w0: usize,
    n_cols: usize,
    seed: u64,
) {
    let n_pis = prog.n_pis();
    let mut pi_block = vec![0u64; n_pis * SIM_BLOCK];
    for (b, (w, nb)) in blocks(w0, n_cols).enumerate() {
        let pi = &mut pi_block[..n_pis * nb];
        fill_pi_block(pi, seed, b as u64);
        prog.run_strided(sigs, w, nb, pi);
    }
}

/// Replays `(column, PI words)` jobs through a compiled program, one
/// [`SimProgram::run_strided`] column per job. Used by the sweep engine
/// to replay counterexample chunks; each column is bit-identical to
/// [`SimVectors::simulate_column`] on the same PI words.
///
/// # Panics
/// Panics if the matrix shape does not match the program or a column is
/// out of range.
pub fn simulate_columns_prog(prog: &SimProgram, sigs: &mut SimVectors, jobs: &[(usize, &[u64])]) {
    for &(w, pi_words) in jobs {
        prog.run_strided(sigs, w, 1, pi_words);
    }
}

/// PO signatures over `n_words * 64` random patterns (complement applied).
///
/// Row `o` is the signature of output `o`. The node matrix is simulated
/// once; each output row is then produced by one flat copy that borrows
/// the source row in place and folds in the complement — no per-PO row
/// allocations.
pub fn po_signatures(aig: &Aig, n_words: usize, seed: u64) -> SimVectors {
    let sigs = random_signatures(aig, n_words, seed);
    let mut out = SimVectors::zero(aig.num_pos(), n_words);
    for (o, po) in aig.pos().iter().enumerate() {
        let src = sigs.row(po.var() as usize);
        for (d, &s) in out.row_mut(o).iter_mut().zip(src) {
            *d = if po.is_compl() { !s } else { s };
        }
    }
    out
}

/// Complete truth tables of every PO over the PIs (exhaustive simulation).
///
/// # Panics
/// Panics if the graph has more than [`Tt::MAX_VARS`] primary inputs.
pub fn output_tts(aig: &Aig) -> Vec<Tt> {
    let n = aig.num_pis();
    assert!(n <= Tt::MAX_VARS, "too many PIs for exhaustive simulation");
    let n_words = if n <= 6 { 1 } else { 1 << (n - 6) };
    // One reused node-wide column + the PO rows: memory stays
    // O(num_nodes + num_pos * n_words) even at 20 PIs, where a full
    // node-by-word matrix would be gigabytes.
    let mut col = SimVectors::zero(aig.num_nodes(), 1);
    let mut po_words = SimVectors::zero(aig.num_pos(), n_words);
    let mut pi_words = vec![0u64; n];
    for w in 0..n_words {
        // PI i pattern within word w of the elementary table of variable i.
        for (i, p) in pi_words.iter_mut().enumerate() {
            *p = if i < 6 {
                crate::tt::VAR_MASKS[i]
            } else if w >> (i - 6) & 1 != 0 {
                u64::MAX
            } else {
                0
            };
        }
        col.simulate_column(aig, 0, &pi_words);
        for (o, po) in aig.pos().iter().enumerate() {
            let x = col.word(po.var() as usize, 0);
            po_words.row_mut(o)[w] = if po.is_compl() { !x } else { x };
        }
    }
    (0..aig.num_pos())
        .map(|o| Tt::from_words(n, po_words.row(o).to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_match_scalar_eval() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor(a, b);
        let y = g.mux(c, x, a);
        g.add_po(y);
        let pi_words = [0b1010u64, 0b1100, 0b1111_0000];
        let vals = simulate_words(&g, &pi_words);
        for bit in 0..8 {
            let ins: Vec<bool> = pi_words.iter().map(|w| w >> bit & 1 != 0).collect();
            let expect = g.eval(&ins)[0];
            let got = vals[y.var() as usize] >> bit & 1 != 0;
            assert_eq!(got ^ y.is_compl(), expect, "bit={bit}");
        }
    }

    #[test]
    fn output_tts_match_eval() {
        let mut g = Aig::new();
        let pis = g.add_pis(7); // crosses the one-word boundary
        let x = g.xor_many(&pis);
        let y = g.and_many(&pis[..3]);
        g.add_po(x);
        g.add_po(!y);
        let tts = output_tts(&g);
        for m in 0..128usize {
            let ins: Vec<bool> = (0..7).map(|i| m >> i & 1 != 0).collect();
            let out = g.eval(&ins);
            assert_eq!(tts[0].bit(m), out[0], "po0 m={m}");
            assert_eq!(tts[1].bit(m), out[1], "po1 m={m}");
        }
    }

    #[test]
    fn signatures_deterministic() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        let s1 = random_signatures(&g, 4, 42);
        let s2 = random_signatures(&g, 4, 42);
        assert_eq!(s1, s2);
        let s3 = random_signatures(&g, 4, 43);
        assert_ne!(s1, s3);
    }

    #[test]
    fn po_signature_applies_complement() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(a);
        g.add_po(!a);
        let sigs = po_signatures(&g, 2, 1);
        assert_eq!(sigs.word(0, 0), !sigs.word(1, 0));
    }

    #[test]
    fn matrix_shape_and_rows() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        let sigs = random_signatures(&g, 3, 7);
        assert_eq!(sigs.n_words(), 3);
        assert_eq!(sigs.n_rows(), g.num_nodes());
        // Row of the AND node = AND of its (non-complemented) fanin rows.
        let (ra, rb): (Vec<u64>, Vec<u64>) = (
            sigs.row(a.var() as usize).to_vec(),
            sigs.row(b.var() as usize).to_vec(),
        );
        let rx = sigs.row(x.var() as usize);
        for w in 0..3 {
            assert_eq!(rx[w], ra[w] & rb[w]);
        }
        // Constant node's row is all-zero.
        assert!(sigs.row(0).iter().all(|&w| w == 0));
    }

    #[test]
    fn columns_are_independent() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.or(a, b);
        g.add_po(x);
        let mut sv = SimVectors::zero(g.num_nodes(), 2);
        sv.simulate_column(&g, 0, &[0b01, 0b10]);
        sv.simulate_column(&g, 1, &[0b11, 0b00]);
        // Complement of the OR literal folds back to the node row's value.
        let or_word = |w: usize| {
            let raw = sv.word(x.var() as usize, w);
            (if x.is_compl() { !raw } else { raw }) & 0b11
        };
        // Column 0: or(01,10) = 11; column 1: or(11,00) = 11.
        assert_eq!(or_word(0), 0b11);
        assert_eq!(or_word(1), 0b11);
        assert_eq!(sv.word(a.var() as usize, 1), 0b11);
        assert_eq!(sv.word(b.var() as usize, 1), 0);
    }

    /// A miter-ish graph big enough for several simulation blocks.
    fn wide_graph() -> Aig {
        let mut g = Aig::new();
        let pis = g.add_pis(12);
        let mut layer: Vec<crate::Lit> = pis.clone();
        for r in 0..6 {
            layer = layer
                .windows(2)
                .map(|w| {
                    if r % 2 == 0 {
                        g.and(w[0], !w[1])
                    } else {
                        g.xor(w[0], w[1])
                    }
                })
                .collect();
        }
        for &l in &layer {
            g.add_po(l);
        }
        g
    }

    #[test]
    fn compiled_random_columns_match_interpreter() {
        let g = wide_graph();
        let prog = SimProgram::full(&g);
        // 27 columns = 4 blocks (8+8+8+3).
        let mut interp = SimVectors::zero(g.num_nodes(), 27);
        random_columns(&g, &mut interp, 0, 27, 0xFEED);
        let mut comp = SimVectors::zero(g.num_nodes(), 27);
        random_columns_prog(&prog, &mut comp, 0, 27, 0xFEED);
        assert_eq!(comp, interp);
        assert_eq!(comp.checksum(), interp.checksum());
        // Offsets keep per-block streams: filling [3, 3+24) uses the same
        // block indices 0.. as filling from 0, applied at shifted columns.
        let mut off = SimVectors::zero(g.num_nodes(), 27);
        random_columns_prog(&prog, &mut off, 3, 24, 0xFEED);
        let mut off_interp = SimVectors::zero(g.num_nodes(), 27);
        random_columns(&g, &mut off_interp, 3, 24, 0xFEED);
        assert_eq!(off, off_interp);
        for v in 0..g.num_nodes() {
            assert_eq!(off.row(v)[3..27], interp.row(v)[..24], "node {v}");
        }
    }

    /// A blocked random fill (up to `SIM_BLOCK` word-parallel columns per
    /// pass) equals simulating each column on its own from the same
    /// per-block PI stream.
    #[test]
    fn parallel_random_columns_match_sequential() {
        let g = wide_graph();
        let n_pis = g.num_pis();
        let mut blocked = SimVectors::zero(g.num_nodes(), 27);
        random_columns(&g, &mut blocked, 0, 27, 0xFEED);
        let mut by_column = SimVectors::zero(g.num_nodes(), 27);
        for (b, (w, nb)) in blocks(0, 27).enumerate() {
            let mut pi = vec![0u64; n_pis * nb];
            fill_pi_block(&mut pi, 0xFEED, b as u64);
            for j in 0..nb {
                let col: Vec<u64> = (0..n_pis).map(|i| pi[i * nb + j]).collect();
                by_column.simulate_column(&g, w + j, &col);
            }
        }
        assert_eq!(blocked, by_column);
    }

    /// Replay chunks laid out as one PI-major block and simulated in a
    /// single word-parallel pass equal replaying them column by column.
    #[test]
    fn parallel_replay_columns_match_sequential() {
        let g = wide_graph();
        let prog = SimProgram::full(&g);
        let n_pis = g.num_pis();
        let chunks: Vec<Vec<u64>> = (0..5)
            .map(|k| (0..n_pis as u64).map(|i| i * 0x9E37 + k).collect())
            .collect();
        let jobs: Vec<(usize, &[u64])> = chunks
            .iter()
            .enumerate()
            .map(|(k, c)| (k, c.as_slice()))
            .collect();
        let mut seq = SimVectors::zero(g.num_nodes(), 5);
        simulate_columns_prog(&prog, &mut seq, &jobs);
        let mut by_hand = SimVectors::zero(g.num_nodes(), 5);
        for &(w, pi) in &jobs {
            by_hand.simulate_column(&g, w, pi);
        }
        assert_eq!(seq, by_hand);
        let block: Vec<u64> = (0..n_pis)
            .flat_map(|i| chunks.iter().map(move |c| c[i]))
            .collect();
        let mut interp = SimVectors::zero(g.num_nodes(), 5);
        interp.simulate_block(&g, 0, 5, &block);
        assert_eq!(interp, seq);
        let mut comp = SimVectors::zero(g.num_nodes(), 5);
        prog.run_strided(&mut comp, 0, 5, &block);
        assert_eq!(comp, seq);
    }

    #[test]
    fn compiled_replay_columns_match_interpreter() {
        let g = wide_graph();
        let prog = SimProgram::full(&g);
        let chunks: Vec<Vec<u64>> = (0..5)
            .map(|k| (0..g.num_pis() as u64).map(|i| i * 0xABCD + k).collect())
            .collect();
        let jobs: Vec<(usize, &[u64])> = chunks
            .iter()
            .enumerate()
            .map(|(k, c)| (k, c.as_slice()))
            .collect();
        let mut interp = SimVectors::zero(g.num_nodes(), 5);
        for &(w, pi) in &jobs {
            interp.simulate_column(&g, w, pi);
        }
        let mut comp = SimVectors::zero(g.num_nodes(), 5);
        simulate_columns_prog(&prog, &mut comp, &jobs);
        assert_eq!(comp, interp);
    }

    #[test]
    fn signatures_into_routes_through_compiled_engine() {
        // Wide fills route through the compiled engine; the matrix must
        // be bit-identical to a pure interpreter fill of the same shape.
        let g = wide_graph();
        let mut routed = SimVectors::new();
        random_signatures_into(&g, 8, 99, &mut routed);
        let mut interp = SimVectors::zero(g.num_nodes(), 8);
        random_columns(&g, &mut interp, 0, 8, 99);
        assert_eq!(routed, interp);
    }

    #[test]
    fn checksum_is_not_vacuous() {
        let g = wide_graph();
        let a = random_signatures(&g, 4, 1);
        let b = random_signatures(&g, 4, 2);
        assert_ne!(a.checksum(), b.checksum(), "different contents differ");
        // Swapping two rows changes the checksum (order sensitivity) —
        // the old fold-one-row scheme XORed symmetric contents to zero.
        let mut swapped = a.clone();
        let (r0, r1): (Vec<u64>, Vec<u64>) = (a.row(1).to_vec(), a.row(2).to_vec());
        swapped.row_mut(1).copy_from_slice(&r1);
        swapped.row_mut(2).copy_from_slice(&r0);
        assert_ne!(a.checksum(), swapped.checksum(), "row order matters");
        // And a matrix XOR-symmetric per row still yields nonzero.
        let mut sym = SimVectors::zero(2, 2);
        sym.row_mut(0).copy_from_slice(&[0xFF, 0xFF]);
        assert_ne!(sym.checksum(), SimVectors::zero(2, 2).checksum());
    }
}
