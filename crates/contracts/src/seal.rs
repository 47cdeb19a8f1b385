//! Dynamic sealing for bounded parametric-polymorphic contracts (§2.4.2).
//!
//! A contract `forall X with {+lookup, +contents} . {cur : X, ...} -> void`
//! "dynamically seals the argument cur as it flows into the body of the
//! function through contract X, and unseals it as it flows out to the
//! functions filter and cmd". The body may exercise only the *bound*
//! privileges of a sealed value; positions typed `X` in argument contracts
//! of function-typed parameters unseal values carrying the matching brand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shill_cap::PrivSet;

use crate::blame::Blame;

static NEXT_BRAND: AtomicU64 = AtomicU64::new(1);

/// A fresh brand minted per polymorphic-function *call*: two calls to the
/// same `forall` function get distinct brands, so capabilities cannot leak
/// between instantiations.
#[derive(Debug, Clone)]
pub struct SealBrand {
    id: u64,
    /// The contract variable's name, for messages (e.g. `X`).
    pub var: String,
    /// The privileges the sealed value's *host function body* may still use
    /// (the `with { ... }` bound on the `forall`).
    pub bound: PrivSet,
    /// Blame for violations attributed through this seal.
    pub blame: Arc<Blame>,
}

impl SealBrand {
    pub fn mint(var: impl Into<String>, bound: PrivSet, blame: Arc<Blame>) -> Arc<SealBrand> {
        Arc::new(SealBrand {
            id: NEXT_BRAND.fetch_add(1, Ordering::Relaxed),
            var: var.into(),
            bound,
            blame,
        })
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether `other` is the same minting (pointer-free comparison).
    pub fn same(&self, other: &SealBrand) -> bool {
        self.id == other.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_cap::Priv;

    #[test]
    fn brands_are_unique_per_mint() {
        let blame = Blame::new("caller", "find", "forall X with {+lookup}");
        let a = SealBrand::mint("X", PrivSet::of(&[Priv::Lookup]), blame.clone());
        let b = SealBrand::mint("X", PrivSet::of(&[Priv::Lookup]), blame);
        assert!(!a.same(&b));
        assert!(a.same(&a.clone()));
    }

    #[test]
    fn bound_records_allowed_privileges() {
        let blame = Blame::new("caller", "find", "forall X with {+lookup,+contents}");
        let s = SealBrand::mint("X", PrivSet::of(&[Priv::Lookup, Priv::Contents]), blame);
        assert!(s.bound.contains(Priv::Lookup));
        assert!(!s.bound.contains(Priv::Read));
        assert_eq!(s.var, "X");
    }
}
