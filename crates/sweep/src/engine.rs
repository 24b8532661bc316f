//! The fraig engine: simulate, conjecture, SAT-prove, merge, rebuild.
//!
//! Each round resimulates the graph on the compiled simulator, collects
//! its candidate pairs into a fixed list, and proves them in index order
//! on one incremental oracle. Every query runs under `catch_unwind`: a
//! panicked query answers `Undecided`, and the next query rebuilds the
//! oracle from the base solver.

use crate::chaos::{ChaosPlan, Fault};
use crate::classes::candidate_classes;
use aig::sim::{random_columns_prog, simulate_columns_prog, SimVectors};
use aig::{Aig, Lit, SimProgram, Var};
use cnf::{tseitin, CnfLit, VarMap};
use sat::{Budget, SolveResult, Solver, SolverConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Tuning knobs for [`fraig`].
#[derive(Clone, Debug)]
pub struct FraigParams {
    /// Words (64 patterns each) of base random simulation per round.
    pub sim_words: usize,
    /// Conflict budget per SAT equivalence query; exceeding it leaves the
    /// pair unproven (no unsoundness, only missed merges).
    pub conflict_budget: u64,
    /// Maximum simulate–prove–refine rounds.
    pub max_rounds: usize,
    /// Maximum SAT queries per node per round (caps wide classes).
    pub max_checks_per_node: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Whole-sweep wall-clock deadline. Once passed, the round loop exits
    /// before starting another round, and in-flight SAT queries are
    /// interrupted by the solver's own deadline check — either way the
    /// partial result is sound: merges proved so far are kept, remaining
    /// pairs stay `Undecided`, and the cut is recorded in
    /// [`FraigStats::deadline_interrupts`]. `None` (the default) never
    /// interrupts. A deadline is the one knob that depends on wall time,
    /// so a deadlined sweep is sound but not reproducible run to run.
    pub deadline: Option<Instant>,
    /// Deterministic fault-injection plan (test harness). `None` — the
    /// default and the production setting — injects nothing and leaves
    /// every path untouched. See [`ChaosPlan`].
    pub chaos: Option<ChaosPlan>,
    /// Checked mode: every oracle runs with proof logging on, and every
    /// UNSAT answer — the verdicts merges rest on — is verified by the
    /// independent `checker` crate before the merge is accepted; a
    /// rejected certificate panics the query, which is contained like any
    /// oracle panic (the pair stays unmerged and counts in
    /// [`FraigStats::oracle_failures`]). Each verification re-checks
    /// the oracle's cumulative log, so this is a test-harness/audit mode,
    /// not a production default. Default `false`.
    pub certify: bool,
    /// Observability domain: the sweep runs under a `sweep.fraig` span
    /// with one `sweep.round` child per round, under which the oracle's
    /// solver opens its `sat.solve` spans and reports `sat.*` counters;
    /// per-round pair counts feed the `sweep.round.pairs` histogram, and
    /// [`FraigStats`] is published as `sweep.stats.*`
    /// gauges on completion. The default (disabled) registry keeps every
    /// probe to one branch. (This field is why `FraigParams` is `Clone`
    /// but no longer `Copy`.)
    pub obs: obs::Registry,
}

impl Default for FraigParams {
    fn default() -> FraigParams {
        FraigParams {
            sim_words: 8,
            conflict_budget: 2_000,
            max_rounds: 4,
            max_checks_per_node: 4,
            seed: 0x5eed_f4a1,
            deadline: None,
            chaos: None,
            certify: false,
            obs: obs::Registry::disabled(),
        }
    }
}

/// Counters describing one [`fraig`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FraigStats {
    /// Simulate–prove rounds executed.
    pub rounds: usize,
    /// SAT equivalence queries issued.
    pub sat_calls: u64,
    /// Queries answered UNSAT (equivalence proved, node merged).
    pub proved: usize,
    /// Queries answered SAT (counterexample found, class split).
    pub disproved: usize,
    /// Queries left undecided: out of budget, cut by the deadline, or
    /// lost to an injected fault or a panic.
    pub unknown: usize,
    /// Counterexample patterns fed back into simulation.
    pub cex_patterns: usize,
    /// Deadline interruptions observed: one per SAT query cut mid-search
    /// by the sweep deadline, plus one if the round loop itself was cut
    /// before finishing.
    pub deadline_interrupts: u64,
    /// Queries that panicked and were contained: each answered
    /// `Undecided`, and the oracle was rebuilt from the base solver for
    /// the next query.
    pub oracle_failures: u64,
    /// UNSAT merge verdicts verified by the independent proof checker
    /// (equals `proved` when [`FraigParams::certify`] is on; 0 otherwise).
    pub certified: u64,
}

impl FraigStats {
    /// Publishes every field as a `sweep.stats.*` gauge (last-write-wins);
    /// [`fraig`] calls this on completion so live snapshots and the final
    /// stats struct agree by construction.
    pub fn publish(&self, reg: &obs::Registry) {
        if !reg.is_enabled() {
            return;
        }
        reg.set_gauge("sweep.stats.rounds", self.rounds as u64);
        reg.set_gauge("sweep.stats.sat_calls", self.sat_calls);
        reg.set_gauge("sweep.stats.proved", self.proved as u64);
        reg.set_gauge("sweep.stats.disproved", self.disproved as u64);
        reg.set_gauge("sweep.stats.unknown", self.unknown as u64);
        reg.set_gauge("sweep.stats.cex_patterns", self.cex_patterns as u64);
        reg.set_gauge("sweep.stats.deadline_interrupts", self.deadline_interrupts);
        reg.set_gauge("sweep.stats.oracle_failures", self.oracle_failures);
        reg.set_gauge("sweep.stats.certified", self.certified);
    }
}

/// Result of a [`fraig`] run.
#[derive(Clone, Debug)]
pub struct FraigOutcome {
    /// The swept, functionally equivalent graph.
    pub aig: Aig,
    /// Run counters.
    pub stats: FraigStats,
}

/// One candidate equivalence query: prove `member ≡ repr ⊕ phase`.
#[derive(Clone, Copy, Debug)]
struct PairTask {
    repr: Var,
    member: Var,
    phase: bool,
}

/// SAT-sweeps the graph: merges nodes proved functionally equivalent
/// (up to complementation) and returns the reduced graph.
///
/// The output is functionally equivalent to the input by construction:
/// every merge is justified by an UNSAT answer on the pairwise miter
/// `a ⊕ b` over the *original* graph, so substitutions compose soundly in
/// any order. Budget exhaustion only loses reductions, never correctness.
///
/// The run is sequential and deterministic: without a deadline, the same
/// graph and parameters give the same merges, statistics and output graph
/// on every machine.
///
/// ```
/// use aig::Aig;
/// use sweep::{fraig, FraigParams};
///
/// let mut g = Aig::new();
/// let pis = g.add_pis(4);
/// let f = g.and_many(&pis);
/// g.add_po(f);
/// let out = fraig(&g, &FraigParams::default());
/// assert!(aig::check::exhaustive_equiv(&g, &out.aig));
/// ```
pub fn fraig(aig: &Aig, params: &FraigParams) -> FraigOutcome {
    let mut stats = FraigStats::default();
    let n = aig.num_nodes();
    let reach = aig.reachable_from_pos();
    let (base_cnf, vmap) = tseitin(aig);
    // The Tseitin encoding is normalised into a solver once; the oracle
    // then *clones* that base solver — a flat memcpy of the arena and
    // watcher lists — so rebuilding it after a panicked query never
    // re-normalises the CNF. Learnt clauses carry over between queries;
    // per-query miter gadgets are guarded by activation literals (assumed
    // for the query, retired by a unit).
    let base_solver = Solver::from_cnf(
        &base_cnf,
        SolverConfig {
            proof: params.certify,
            ..SolverConfig::default()
        },
    );
    let base_vars = base_cnf.num_vars();
    // Built lazily (a sweep without candidates never pays for it) and
    // dropped after a panicked query.
    let mut oracle: Option<PairOracle> = None;

    // equiv[v] = Some(l): node v is equivalent to old-graph literal l
    // (l.var() < v). Chains are resolved during rebuild.
    let mut equiv: Vec<Option<Lit>> = vec![None; n];
    // Counterexamples, batched 64-per-word: each chunk is one packed
    // simulation word per PI, so replaying the accumulated refinement
    // patterns costs one matrix column per chunk — no per-pattern bool
    // vectors, no per-counterexample resimulation.
    let mut cex_chunks: Vec<Vec<u64>> = Vec::new();
    // Pairs already disproved or abandoned; never retried. Kept as a
    // sorted vector of packed (repr, member) keys — a binary search per
    // candidate instead of hashing inside the refinement loop.
    let mut dead: Vec<u64> = Vec::new();
    let pair_key = |repr: Var, member: Var| (repr as u64) << 32 | member as u64;

    // One signature matrix reused across rounds (buffer grows by one
    // refinement column per round, never reallocates from scratch).
    let mut sigs = SimVectors::new();
    // The sweep never mutates the graph mid-run, so the compiled program
    // is built once and reused by every round's resimulation.
    let prog = SimProgram::full(aig);
    let sweep_span = params.obs.span_with("sweep.fraig", &[("nodes", n.into())]);
    let pairs_hist = params.obs.histogram("sweep.round.pairs");
    for round in 0..params.max_rounds {
        // Whole-sweep deadline: never start a round past it. Everything
        // merged so far is individually SAT-proved, so cutting here only
        // loses further reductions, never soundness.
        if params.deadline.is_some_and(|d| Instant::now() >= d) {
            stats.deadline_interrupts += 1;
            break;
        }
        stats.rounds = round + 1;
        let round_span = sweep_span.child_with("sweep.round", &[("round", round.into())]);
        let proved_before = stats.proved;
        let disproved_before = stats.disproved;
        simulate_round(&prog, params, round, &cex_chunks, &mut sigs);

        // Candidates: constant node + reachable, not-yet-merged PIs/ANDs.
        let members =
            (0..n as Var).filter(|&v| v == 0 || (reach[v as usize] && equiv[v as usize].is_none()));
        let classes = candidate_classes(&sigs, members);

        // The round's query list, fixed up front: each node appears in at
        // most one class, so the filters below depend only on *previous*
        // rounds — the list is deterministic before any query runs.
        let mut tasks: Vec<PairTask> = Vec::new();
        let mut checks = vec![0usize; n];
        for class in classes.classes() {
            let repr = class[0];
            for &member in &class[1..] {
                if equiv[member.var as usize].is_some() {
                    continue;
                }
                if dead.binary_search(&pair_key(repr.var, member.var)).is_ok() {
                    continue;
                }
                if checks[member.var as usize] >= params.max_checks_per_node {
                    continue;
                }
                checks[member.var as usize] += 1;
                tasks.push(PairTask {
                    repr: repr.var,
                    member: member.var,
                    phase: repr.phase != member.phase,
                });
            }
        }
        stats.sat_calls += tasks.len() as u64;
        pairs_hist.observe(tasks.len() as u64);
        // The oracle's solver spans hang under the current round.
        if let Some(oracle) = oracle.as_mut() {
            oracle.solver.set_observer(round_span.handle());
        }

        // This round's counterexamples, packed on the fly (bit j of
        // chunk[i] = value of PI i in the j-th counterexample). One word
        // per round: at most 64 patterns are replayed, later
        // counterexamples only retire their own pair.
        let mut chunk = vec![0u64; aig.num_pis()];
        let mut chunk_len = 0u32;
        let mut fresh_dead: Vec<u64> = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            let fault = params.chaos.as_ref().and_then(|c| c.roll(round, i));
            let answer = if fault == Some(Fault::Unknown) {
                Answer::Undecided {
                    deadline_interrupted: false,
                }
            } else {
                // AssertUnwindSafe: a panicked query may leave the oracle
                // half-mutated, so it is dropped below, never queried again.
                let query = catch_unwind(AssertUnwindSafe(|| {
                    if fault == Some(Fault::Panic) {
                        panic!("chaos: injected oracle panic");
                    }
                    let oracle = oracle.get_or_insert_with(|| {
                        PairOracle::new(&base_solver, base_vars, round_span.handle())
                    });
                    oracle.prove_pair(&vmap, task, params)
                }));
                query.unwrap_or_else(|_| {
                    stats.oracle_failures += 1;
                    oracle = None;
                    Answer::Undecided {
                        deadline_interrupted: false,
                    }
                })
            };
            match answer {
                Answer::Equivalent => {
                    stats.proved += 1;
                    if params.certify {
                        // prove_pair verified the certificate (or panicked)
                        // before reporting Equivalent.
                        stats.certified += 1;
                    }
                    equiv[task.member as usize] = Some(Lit::from_var(task.repr, task.phase));
                }
                Answer::Different(pattern) => {
                    stats.disproved += 1;
                    fresh_dead.push(pair_key(task.repr, task.member));
                    if chunk_len < 64 {
                        for (pi, &bit) in pattern.iter().enumerate() {
                            chunk[pi] |= (bit as u64) << chunk_len;
                        }
                        chunk_len += 1;
                    }
                }
                Answer::Undecided {
                    deadline_interrupted,
                } => {
                    stats.unknown += 1;
                    if deadline_interrupted {
                        stats.deadline_interrupts += 1;
                    }
                    fresh_dead.push(pair_key(task.repr, task.member));
                }
            }
        }
        // A round's (repr, member) pairs are distinct, so merging the
        // fresh keys once per round keeps `dead` sorted and duplicate-free.
        dead.extend(fresh_dead);
        dead.sort_unstable();
        round_span.record("tasks", tasks.len());
        round_span.record("proved", stats.proved - proved_before);
        round_span.record("disproved", stats.disproved - disproved_before);
        if chunk_len == 0 {
            break;
        }
        stats.cex_patterns += chunk_len as usize;
        cex_chunks.push(chunk);
    }

    drop(sweep_span);
    stats.publish(&params.obs);
    FraigOutcome {
        aig: rebuild(aig, &equiv),
        stats,
    }
}

enum Answer {
    Equivalent,
    Different(Vec<bool>),
    Undecided {
        /// The query was cut by the sweep deadline (as opposed to the
        /// conflict budget or an injected fault).
        deadline_interrupted: bool,
    },
}

/// Incremental equivalence oracle: one CDCL solver holding the Tseitin
/// encoding, queried per candidate pair through activation literals.
struct PairOracle {
    solver: Solver,
    /// Next fresh variable for activation literals.
    next_var: u32,
}

impl PairOracle {
    /// Clones the pre-loaded base solver instead of re-normalising the
    /// shared CNF (a memcpy), with its spans parented under `span`.
    fn new(base_solver: &Solver, base_vars: u32, span: obs::SpanHandle) -> PairOracle {
        let mut solver = base_solver.clone();
        solver.set_observer(span);
        PairOracle {
            solver,
            next_var: base_vars + 1,
        }
    }

    /// Budgeted SAT check of `member ≡ repr ⊕ phase` over the original
    /// graph. Learnt clauses persist across calls.
    fn prove_pair(&mut self, vmap: &VarMap, task: &PairTask, params: &FraigParams) -> Answer {
        let PairTask {
            repr,
            member,
            phase,
        } = *task;
        let a = vmap
            .lit(Lit::from_var(member, false))
            .expect("member is PO-reachable, hence encoded");
        // The conflict budget is cumulative on the oracle's solver; the
        // sweep deadline rides along so a mid-round cut interrupts the
        // remaining queries promptly instead of letting each burn its full
        // conflict allowance.
        let limit = self.solver.stats().conflicts + params.conflict_budget;
        let deadline_interrupts_before = self.solver.stats().deadline_interrupts;
        self.solver
            .set_budget(Budget::conflicts(limit).with_deadline(params.deadline));
        let result = match cnf_lit_of(vmap, repr, phase) {
            Some(b) => {
                // Miter gadget `s -> (a ⊕ b)` under fresh activation var s.
                let s = CnfLit::pos(self.next_var);
                self.next_var += 1;
                self.solver.add_clause_cnf(&[!s, a, b]);
                self.solver.add_clause_cnf(&[!s, !a, !b]);
                let r = self.solver.solve_with_assumptions(&[s]);
                if params.certify && r.is_unsat() {
                    // Certify against the pre-retirement formula: once the
                    // `!s` unit lands, `s` would be trivially refutable and
                    // the check would prove nothing about the miter.
                    self.certify_unsat(&[s]);
                }
                // Retire the gadget so later queries never revisit it.
                self.solver.add_clause_cnf(&[!s]);
                r
            }
            None => {
                // repr is the constant node: test `member ≠ phase`.
                let assumption = if phase { !a } else { a };
                let r = self.solver.solve_with_assumptions(&[assumption]);
                if params.certify && r.is_unsat() {
                    self.certify_unsat(&[assumption]);
                }
                r
            }
        };
        // Paranoia: the oracle leans on incremental solving — gadget
        // binaries in the inline tier, long learnts churning through
        // reduction/GC between queries — so audit the two-tier
        // watcher/reason invariants after every query in debug builds.
        #[cfg(debug_assertions)]
        self.solver.assert_integrity();
        match result {
            SolveResult::Unsat => Answer::Equivalent,
            SolveResult::Sat(model) => Answer::Different(vmap.decode_inputs(&model)),
            SolveResult::Unknown => Answer::Undecided {
                deadline_interrupted: self.solver.stats().deadline_interrupts
                    > deadline_interrupts_before,
            },
        }
    }

    /// Verifies the solver's UNSAT-under-assumptions verdict with the
    /// independent RUP checker: the certificate is the oracle's cumulative
    /// proof log, checked against its cumulative originals plus the
    /// query's assumptions as unit clauses. Panics if rejected — a merge
    /// justified by an unverifiable UNSAT answer must never be applied.
    fn certify_unsat(&self, assumptions: &[CnfLit]) {
        let log = self
            .solver
            .proof()
            .expect("certify mode constructs oracles with proof logging on");
        let formula = log.originals().to_vec();
        let assumed: Vec<i32> = assumptions.iter().map(|&l| l.to_dimacs()).collect();
        let proof =
            checker::Proof::from_steps(log.steps().iter().map(|s| (s.delete, s.lits.clone())));
        if let Err(e) = checker::check_with_assumptions(&formula, &assumed, &proof) {
            panic!("sweep oracle UNSAT merge verdict failed certification: {e}");
        }
    }
}

/// CNF literal of an old-graph node, or `None` for the constant node when
/// it was not encoded.
fn cnf_lit_of(vmap: &VarMap, var: Var, phase: bool) -> Option<CnfLit> {
    if var == 0 {
        // Constant false node; may be unencoded. Handled by the caller.
        return None;
    }
    Some(
        vmap.lit(Lit::from_var(var, phase))
            .expect("repr is PO-reachable, hence encoded"),
    )
}

/// Rebuilds the graph substituting merged nodes, then drops dangling logic.
fn rebuild(aig: &Aig, equiv: &[Option<Lit>]) -> Aig {
    let mut out = Aig::with_capacity(aig.num_nodes());
    let mut map: Vec<Lit> = vec![Lit::FALSE; aig.num_nodes()];
    for &pi in aig.pis() {
        map[pi as usize] = out.add_pi();
    }
    for v in aig.iter_ands() {
        map[v as usize] = match equiv[v as usize] {
            Some(rep) => map[rep.var() as usize].xor_compl(rep.is_compl()),
            None => {
                let node = aig.node(v);
                let f0 = node.fanin0();
                let f1 = node.fanin1();
                let a = map[f0.var() as usize].xor_compl(f0.is_compl());
                let b = map[f1.var() as usize].xor_compl(f1.is_compl());
                out.and(a, b)
            }
        };
    }
    for &po in aig.pos() {
        let l = map[po.var() as usize].xor_compl(po.is_compl());
        out.add_po(l);
    }
    out.compact().0
}

/// One round's signature matrix: `sim_words` fresh random columns plus one
/// replayed column per accumulated counterexample chunk, all run through
/// the compiled program straight into a single strided [`SimVectors`]
/// buffer.
fn simulate_round(
    prog: &SimProgram,
    params: &FraigParams,
    round: usize,
    cex_chunks: &[Vec<u64>],
    sigs: &mut SimVectors,
) {
    // Reshape without zeroing: every column below is fully written.
    sigs.reshape(prog.n_slots(), params.sim_words + cex_chunks.len());
    random_columns_prog(prog, sigs, 0, params.sim_words, params.seed ^ round as u64);
    let jobs: Vec<(usize, &[u64])> = cex_chunks
        .iter()
        .enumerate()
        .map(|(k, chunk)| (params.sim_words + k, chunk.as_slice()))
        .collect();
    simulate_columns_prog(prog, sigs, &jobs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::check::{exhaustive_equiv, sim_equiv};

    /// Two structurally different adders over shared PIs, XOR-mitered:
    /// the classic fraig victim.
    fn equivalence_miter(bits: usize) -> Aig {
        let mut g = Aig::new();
        let xs = g.add_pis(bits);
        let ys = g.add_pis(bits);
        // Ripple-carry sum bits.
        let mut carry = Lit::FALSE;
        let mut sums_a = Vec::new();
        for i in 0..bits {
            let s = g.xor(xs[i], ys[i]);
            let s = g.xor(s, carry);
            sums_a.push(s);
            let c1 = g.and(xs[i], ys[i]);
            let t = g.xor(xs[i], ys[i]);
            let c2 = g.and(t, carry);
            carry = g.or(c1, c2);
        }
        // Second copy with majority-form carries.
        let mut carry = Lit::FALSE;
        let mut sums_b = Vec::new();
        for i in 0..bits {
            let s1 = g.xor(xs[i], ys[i]);
            let s = g.xor(s1, carry);
            sums_b.push(s);
            let ab = g.and(xs[i], ys[i]);
            let ac = g.and(xs[i], carry);
            let bc = g.and(ys[i], carry);
            let t = g.or(ab, ac);
            carry = g.or(t, bc);
        }
        let diffs: Vec<Lit> = sums_a
            .iter()
            .zip(&sums_b)
            .map(|(&a, &b)| g.xor(a, b))
            .collect();
        let any = g.or_many(&diffs);
        g.add_po(any);
        g
    }

    #[test]
    fn collapses_equivalence_miter_to_constant_false() {
        let g = equivalence_miter(4);
        let out = fraig(&g, &FraigParams::default());
        assert_eq!(
            out.aig.pos()[0],
            Lit::FALSE,
            "miter of equal circuits is constant 0"
        );
        assert_eq!(out.aig.num_ands(), 0);
        assert!(out.stats.proved > 0);
    }

    #[test]
    fn preserves_function_on_non_constant_outputs() {
        let mut g = Aig::new();
        let pis = g.add_pis(6);
        let a = g.xor_many(&pis[..3]);
        let b = g.and_many(&pis[3..]);
        let f = g.mux(pis[0], a, b);
        g.add_po(f);
        g.add_po(a);
        let out = fraig(&g, &FraigParams::default());
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn merges_duplicate_cones() {
        // The same 3-input majority built twice; sweeping should remove
        // roughly half the gates.
        let mut g = Aig::new();
        let p = g.add_pis(3);
        let maj = |g: &mut Aig| {
            let ab = g.and(p[0], p[1]);
            let ac = g.and(p[0], p[2]);
            let bc = g.and(p[1], p[2]);
            let t = g.or(ab, ac);
            g.or(t, bc)
        };
        let m1 = maj(&mut g);
        // Force distinct structure for the second copy: different
        // association order.
        let bc = g.and(p[1], p[2]);
        let ac = g.and(p[2], p[0]);
        let ab = g.and(p[0], p[1]);
        let t = g.or(bc, ac);
        let m2 = g.or(t, ab);
        let both = g.and(m1, m2); // = majority, since m1 ≡ m2
        g.add_po(both);
        let before = g.num_ands();
        let out = fraig(&g, &FraigParams::default());
        assert!(exhaustive_equiv(&g, &out.aig));
        assert!(
            out.aig.num_ands() <= before / 2 + 1,
            "expected ~half the gates, got {} of {before}",
            out.aig.num_ands()
        );
    }

    #[test]
    fn detects_complemented_equivalence() {
        // f and ¬f as two POs; sweeping must keep both POs correct.
        let mut g = Aig::new();
        let p = g.add_pis(3);
        let f = g.xor_many(&p);
        // De-Morgan complement built structurally.
        let x01 = g.xnor(p[0], p[1]);
        let nf = g.xnor(x01, !p[2]);
        g.add_po(f);
        g.add_po(nf);
        let out = fraig(&g, &FraigParams::default());
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn zero_budget_degrades_gracefully() {
        let g = equivalence_miter(3);
        let params = FraigParams {
            conflict_budget: 0,
            ..FraigParams::default()
        };
        let out = fraig(&g, &params);
        // Few merges may be proved, but the graph must stay equivalent.
        assert!(sim_equiv(&g, &out.aig, 8, 7));
        assert_eq!(
            out.stats.proved + out.stats.disproved + out.stats.unknown,
            out.stats.sat_calls as usize
        );
    }

    #[test]
    fn counterexamples_refine_classes() {
        // A pair of functions that agree on most patterns (differ only
        // when all PIs are 1): simulation may alias them, SAT must split.
        let mut g = Aig::new();
        let p = g.add_pis(6);
        let all = g.and_many(&p);
        let most = g.and_many(&p[..5]); // differs from `all` on one minterm class
        let d = g.xor(all, most);
        g.add_po(d);
        let out = fraig(
            &g,
            &FraigParams {
                sim_words: 1,
                ..FraigParams::default()
            },
        );
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn idempotent_on_swept_graphs() {
        let g = equivalence_miter(3);
        let once = fraig(&g, &FraigParams::default());
        let twice = fraig(&once.aig, &FraigParams::default());
        assert_eq!(once.aig.num_ands(), twice.aig.num_ands());
    }

    #[test]
    fn handles_constant_pos_and_empty_graphs() {
        let mut g = Aig::new();
        g.add_po(Lit::TRUE);
        let out = fraig(&g, &FraigParams::default());
        assert_eq!(out.aig.pos()[0], Lit::TRUE);

        let mut g2 = Aig::new();
        let a = g2.add_pi();
        g2.add_po(a);
        let out2 = fraig(&g2, &FraigParams::default());
        assert_eq!(out2.aig.num_ands(), 0);
        assert_eq!(out2.aig.num_pis(), 1);
    }

    #[test]
    fn expired_deadline_yields_sound_partial_result() {
        // A deadline in the past cuts the sweep before round 1: no merges,
        // no SAT calls, but a functionally identical graph and the cut
        // recorded in the stats.
        let g = equivalence_miter(4);
        let out = fraig(
            &g,
            &FraigParams {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..FraigParams::default()
            },
        );
        assert_eq!(out.stats.rounds, 0);
        assert_eq!(out.stats.sat_calls, 0);
        assert!(out.stats.deadline_interrupts >= 1);
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn chaos_panic_storm_is_contained() {
        // Every query panics: the sweep must still terminate with an
        // equivalent graph, all pairs undecided, and every failure counted
        // — the process-level contract behind the serve layer.
        let g = equivalence_miter(4);
        let out = fraig(
            &g,
            &FraigParams {
                chaos: Some(ChaosPlan {
                    seed: 7,
                    panic_in_1024: 1024,
                    ..ChaosPlan::default()
                }),
                ..FraigParams::default()
            },
        );
        assert!(out.stats.oracle_failures >= 1);
        assert_eq!(out.stats.oracle_failures, out.stats.sat_calls);
        assert_eq!(out.stats.proved, 0);
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    #[test]
    fn one_panicked_query_loses_only_itself() {
        // A single mid-round panic costs exactly its own pair: the oracle
        // is rebuilt from the base solver and every later query of the
        // round is still answered.
        let g = equivalence_miter(4);
        let clean = fraig(&g, &FraigParams::default());
        assert_eq!(clean.stats.rounds, 1, "the clean sweep is one round");
        let tasks = clean.stats.sat_calls as usize;
        assert!(tasks >= 4, "need a round with several queries");
        // First seed whose plan panics exactly one query of round 0, with
        // at least two queries after it.
        let plan = (0u64..)
            .map(|seed| ChaosPlan {
                seed,
                panic_in_1024: 64,
                ..ChaosPlan::default()
            })
            .find(|plan| {
                let hits: Vec<usize> = (0..tasks)
                    .filter(|&i| plan.roll(0, i) == Some(Fault::Panic))
                    .collect();
                hits.len() == 1 && hits[0] > 0 && hits[0] + 2 < tasks
            })
            .expect("some seed panics one mid-round query");
        let out = fraig(
            &g,
            &FraigParams {
                chaos: Some(plan),
                ..FraigParams::default()
            },
        );
        assert_eq!(out.stats.oracle_failures, 1);
        assert_eq!(out.stats.sat_calls, clean.stats.sat_calls);
        assert_eq!(out.stats.unknown, 1, "only the panicked query is lost");
        assert_eq!(out.stats.proved, clean.stats.proved - 1);
        assert!(exhaustive_equiv(&g, &out.aig));
    }

    /// Structural equality of two rebuilt graphs (node-for-node).
    fn same_aig(a: &Aig, b: &Aig) -> bool {
        a.num_nodes() == b.num_nodes()
            && a.pis() == b.pis()
            && a.pos() == b.pos()
            && a.iter_ands().zip(b.iter_ands()).all(|(va, vb)| {
                let (na, nb) = (a.node(va), b.node(vb));
                va == vb && na.fanin0() == nb.fanin0() && na.fanin1() == nb.fanin1()
            })
    }

    #[test]
    fn repeat_runs_are_bit_identical() {
        // Multi-block resimulation (17 words) and several rounds of
        // counterexample replay (1 word): the same parameters must give
        // the same stats and the same rebuilt graph every time.
        let g = equivalence_miter(5);
        for sim_words in [17usize, 1] {
            let params = FraigParams {
                sim_words,
                ..FraigParams::default()
            };
            let first = fraig(&g, &params);
            let second = fraig(&g, &params);
            assert_eq!(first.stats, second.stats, "sim_words={sim_words}");
            assert!(same_aig(&first.aig, &second.aig));
            assert_eq!(first.aig.pos()[0], Lit::FALSE);
        }
    }
}
