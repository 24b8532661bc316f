//! Deterministic fault injection for the sweep oracle and the serve
//! engine's workers.
//!
//! A [`ChaosPlan`] rolls a [`Fault`] (or none) per work item as a pure
//! function of `(seed, round, task)`, so an injected fault pattern replays
//! identically on every run. The callers contain what it injects: the
//! sweep wraps each oracle query in `catch_unwind`, and the serve engine
//! wraps each worker attempt.

/// Deterministic fault-injection plan — the robustness test harness
/// behind `tests/fault_injection.rs` and the serve layer's chaos suites.
///
/// Faults are rolled per work item from `(seed, round, task)` alone, so an
/// injected fault pattern is bit-reproducible. The fraig sweep reads
/// `round` as its sweep round and `task` as the pair index; the serve
/// engine reads them as retry attempt and query id. Three fault shapes
/// cover the real failure modes:
///
/// * **Unknown storms** (`unknown_in_1024`): the worker's answer is
///   replaced by an inconclusive one without running the real work,
///   modelling budget/deadline exhaustion on a single item.
/// * **Worker panics** (`panic_in_1024`): the worker panics, modelling a
///   crashed solver; the caller contains it (`catch_unwind`) and degrades
///   or retries the item.
/// * **Round starvation** (`starve_from_round`): every item from the given
///   round on is starved, modelling whole-run deadline exhaustion at round
///   granularity — deterministic, unlike a real wall-clock cut, so tests
///   can assert exact subset properties.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Fault-pattern seed.
    pub seed: u64,
    /// Per-item chance (out of 1024) of forcing an inconclusive answer.
    pub unknown_in_1024: u16,
    /// Per-item chance (out of 1024) of panicking the worker.
    pub panic_in_1024: u16,
    /// Starve every item to inconclusive from this round on.
    pub starve_from_round: Option<usize>,
}

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Answer inconclusively without doing the real work.
    Unknown,
    /// Panic the worker mid-item.
    Panic,
}

impl ChaosPlan {
    /// Rolls the fault (if any) for one work item. Pure function of
    /// `(self.seed, round, task)` — never of scheduling — so a fault
    /// pattern replays identically whatever executes the items.
    pub fn roll(&self, round: usize, task: usize) -> Option<Fault> {
        if self.starve_from_round.is_some_and(|r| round >= r) {
            return Some(Fault::Unknown);
        }
        let x = splitmix64(
            self.seed ^ ((round as u64) << 40) ^ (task as u64).wrapping_mul(0x9E37_79B9),
        );
        let r = (x % 1024) as u16;
        if r < self.panic_in_1024 {
            Some(Fault::Panic)
        } else if r < self.panic_in_1024.saturating_add(self.unknown_in_1024) {
            Some(Fault::Unknown)
        } else {
            None
        }
    }
}

/// SplitMix64 finaliser: one well-mixed word from one input word.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
