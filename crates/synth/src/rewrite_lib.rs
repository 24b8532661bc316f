//! The NPN-class structure library used by DAG-aware rewriting.
//!
//! ABC ships a pre-computed table of optimal 4-input structures; we build
//! ours lazily: the first time a canonical function is requested, a compact
//! structure is synthesised with [`crate::factor::best_structure`] and
//! memoised for the thread. All 222 classes cost a few milliseconds total.
//! Lookups take no lock and copy nothing: rewriting prices every cut's
//! candidate in place through [`with_npn_structure`] and copies only the
//! winner.

use aig::hash::FastMap;
use aig::{GateList, Tt};
use std::cell::RefCell;

thread_local! {
    static LIBRARY: RefCell<FastMap<u16, GateList>> = RefCell::new(FastMap::default());
}

/// Runs `f` on a structure implementing the (NPN-canonical) 4-variable
/// function `canon`. Structures are memoised per thread.
///
/// # Panics
/// Panics if `f` itself asks for a structure that is not built yet (the
/// library is borrowed while `f` runs).
pub fn with_npn_structure<R>(canon: u16, f: impl FnOnce(&GateList) -> R) -> R {
    LIBRARY.with(|lib| {
        if !lib.borrow().contains_key(&canon) {
            let gl = crate::factor::best_structure(&Tt::from_u16(canon));
            lib.borrow_mut().insert(canon, gl);
        }
        f(&lib.borrow()[&canon])
    })
}

/// A copy of the structure implementing the (NPN-canonical) 4-variable
/// function `canon`.
pub fn npn_structure(canon: u16) -> GateList {
    with_npn_structure(canon, GateList::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsd::gatelist_tt;
    use aig::npn::npn_class_representatives;

    #[test]
    fn every_class_synthesises_correctly() {
        for canon in npn_class_representatives() {
            let gl = npn_structure(canon);
            assert_eq!(gatelist_tt(&gl).to_u16(), canon, "class {canon:#06x}");
        }
    }

    #[test]
    fn structures_are_reasonably_small() {
        // The exact optimum for the worst 4-input NPN class is 9 AND gates;
        // our heuristic generators stay within 2x of that, which is enough
        // for rewriting (gains are measured, never assumed).
        let max = npn_class_representatives()
            .into_iter()
            .map(|c| npn_structure(c).size())
            .max()
            .unwrap();
        assert!(max <= 18, "largest class structure has {max} gates");
    }

    #[test]
    fn cache_returns_identical_structure() {
        let a = npn_structure(0x6996); // xor4 class canon or similar
        let b = npn_structure(0x6996);
        assert_eq!(a, b);
    }
}
