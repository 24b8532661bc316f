//! # `sweep` — SAT sweeping (fraig) over And-Inverter Graphs
//!
//! Functional reduction in the style of ABC's `fraig`/`&fraig`: bit-parallel
//! random simulation partitions nodes into *candidate equivalence classes*
//! (nodes whose signatures match up to complementation), and a budgeted SAT
//! miter check either proves a candidate pair equivalent — in which case the
//! later node is merged into the earlier one — or yields a counterexample
//! input pattern that refines the simulation and splits the class.
//!
//! SAT sweeping is the strongest size-oriented AIG simplification ABC
//! applies before its own CNF generation, and the natural "future work"
//! extension of the paper's synthesis action set: unlike `rewrite`/`resub`,
//! it removes *functionally* redundant logic that no local window can see
//! (e.g. the two halves of an equivalence miter). The workspace exposes it
//! as an optional preprocessing stage ahead of the cost-customised LUT
//! mapping.
//!
//! The engine is sequential: one incremental SAT oracle proves each
//! round's candidate pairs in index order on the caller's thread, and
//! resimulation runs the compiled simulator ([`aig::SimProgram`]).
//! Without a deadline, the outcome is a pure function of the graph and
//! [`FraigParams`]. The README's "Parallelism" section gives the
//! measurements behind the sequential design.
//!
//! ```
//! use aig::Aig;
//! use sweep::{fraig, FraigParams};
//!
//! // XOR built twice from the same inputs: fraig collapses the copies.
//! let mut g = Aig::new();
//! let a = g.add_pi();
//! let b = g.add_pi();
//! let x1 = g.xor(a, b);
//! // A structurally different XOR: (a | b) & !(a & b).
//! let o = g.or(a, b);
//! let n = g.and(a, b);
//! let x2 = g.and(o, !n);
//! let miter = g.xor(x1, x2);
//! g.add_po(miter);
//!
//! let outcome = fraig(&g, &FraigParams::default());
//! assert!(outcome.aig.num_ands() < g.num_ands());
//! assert_eq!(outcome.aig.pos()[0], aig::Lit::FALSE); // proved constant
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chaos;
mod classes;
mod engine;

pub use chaos::{ChaosPlan, Fault};
pub use classes::{candidate_classes, ClassMember, SigClasses};
pub use engine::{fraig, FraigOutcome, FraigParams, FraigStats};
