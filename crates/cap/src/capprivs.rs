//! Recursive privilege descriptions: a privilege set plus per-privilege
//! modifiers for derived capabilities.
//!
//! A contract like `dir(+contents, +lookup with {+path, +stat})` grants the
//! `+contents` and `+lookup` privileges, and says that capabilities derived
//! by `lookup` carry only `{+path, +stat}`. "When a privilege confers the
//! right to derive new capabilities but does not come with a modifier ...,
//! the derived capability has the same privileges as its parent capability"
//! (§2.2) — that inheritance is the `modifiers.get(op).unwrap_or(parent)`
//! rule in [`CapPrivs::derived`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::privs::{Priv, PrivSet};

/// A (possibly recursive) privilege description attached to a capability or
/// written in a capability contract.
#[derive(Clone, PartialEq, Eq)]
pub struct CapPrivs {
    /// The privileges this capability may exercise.
    pub privs: PrivSet,
    /// Privileges that capabilities derived through a given operation will
    /// carry. Only meaningful for deriving privileges ([`Priv::derives`]).
    pub modifiers: BTreeMap<Priv, Arc<CapPrivs>>,
}

impl CapPrivs {
    /// Exactly these privileges, inheriting-by-default on derivation.
    pub fn of(privs: PrivSet) -> CapPrivs {
        CapPrivs {
            privs,
            modifiers: BTreeMap::new(),
        }
    }

    /// Every privilege ("full priv" in the paper's Figure 1).
    pub fn full() -> CapPrivs {
        CapPrivs::of(PrivSet::full())
    }

    /// No privileges at all.
    pub fn none() -> CapPrivs {
        CapPrivs::of(PrivSet::EMPTY)
    }

    /// Attach a `with { ... }` modifier for a deriving privilege. Also
    /// inserts the privilege itself into the set.
    pub fn with_modifier(mut self, p: Priv, derived: CapPrivs) -> CapPrivs {
        self.privs.insert(p);
        self.modifiers.insert(p, Arc::new(derived));
        self
    }

    /// Whether operation `p` is permitted.
    pub fn allows(&self, p: Priv) -> bool {
        self.privs.contains(p)
    }

    /// The privileges a capability derived via `op` carries: the modifier
    /// if one was given, otherwise this same description (inheritance).
    pub fn derived(self: &Arc<Self>, op: Priv) -> Arc<CapPrivs> {
        match self.modifiers.get(&op) {
            Some(m) => Arc::clone(m),
            None => Arc::clone(self),
        }
    }

    /// These privileges limited to `to` (modifiers kept): shared when they
    /// lie within it already.
    pub fn within(self: Arc<Self>, to: PrivSet) -> Arc<CapPrivs> {
        if self.privs.is_subset(&to) {
            return self;
        }
        let mut narrowed = (*self).clone();
        narrowed.privs = narrowed.privs.intersection(to);
        Arc::new(narrowed)
    }

    /// Structural subset: `self` grants no more than `other`, recursively
    /// through modifiers. Used to compare contract strength and by the
    /// sandbox's no-amplification rule.
    pub fn is_subset(&self, other: &CapPrivs) -> bool {
        if !self.privs.is_subset(&other.privs) {
            return false;
        }
        // For each deriving privilege self grants, the derived privileges
        // must also be a subset of what other would derive.
        for p in self.privs.iter().filter(|p| p.derives()) {
            let self_d = self.modifiers.get(&p);
            let other_d = other.modifiers.get(&p);
            match (self_d, other_d) {
                (None, None) => {} // both inherit: already covered at this level
                (Some(s), Some(o)) => {
                    if !s.is_subset(o) {
                        return false;
                    }
                }
                (Some(s), None) => {
                    // other inherits itself on derivation.
                    if !s.is_subset(other) {
                        return false;
                    }
                }
                (None, Some(o)) => {
                    // self inherits itself; compare self against other's modifier.
                    if !self.privs.is_subset(&o.privs) {
                        return false;
                    }
                    // Deeper structure of an inherited self is self again; one
                    // level of checking suffices for the conservative answer.
                }
            }
        }
        true
    }

    /// Whether two privilege descriptions *conflict* for the purpose of the
    /// sandbox's privilege-amplification rule (§3.2.2): they conflict when
    /// neither is a subset of the other, i.e. merging them would create
    /// authority neither had alone.
    pub fn conflicts_with(&self, other: &CapPrivs) -> bool {
        !self.is_subset(other) && !other.is_subset(self)
    }
}

impl fmt::Debug for CapPrivs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for CapPrivs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        let mut first = true;
        for p in self.privs.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{p}")?;
            if let Some(m) = self.modifiers.get(&p) {
                write!(f, " with {}", m.privs)?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modifier_overrides_inheritance() {
        let derived = CapPrivs::of(PrivSet::of(&[Priv::Path, Priv::Stat]));
        let parent = Arc::new(
            CapPrivs::of(PrivSet::of(&[Priv::Contents]))
                .with_modifier(Priv::Lookup, derived.clone()),
        );
        let d = parent.derived(Priv::Lookup);
        assert_eq!(d.privs, PrivSet::of(&[Priv::Path, Priv::Stat]));
        // Without a modifier, derivation inherits the parent wholesale.
        let plain = Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Lookup, Priv::Read])));
        let d2 = plain.derived(Priv::Lookup);
        assert_eq!(d2.privs, plain.privs);
    }

    #[test]
    fn subset_flat() {
        let small = CapPrivs::of(PrivSet::of(&[Priv::Read]));
        let big = CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Write]));
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
    }

    #[test]
    fn subset_through_modifiers() {
        let narrow = CapPrivs::of(PrivSet::of(&[Priv::Contents]))
            .with_modifier(Priv::Lookup, CapPrivs::of(PrivSet::of(&[Priv::Path])));
        let wide = CapPrivs::of(PrivSet::of(&[Priv::Contents])).with_modifier(
            Priv::Lookup,
            CapPrivs::of(PrivSet::of(&[Priv::Path, Priv::Stat, Priv::Read])),
        );
        assert!(narrow.is_subset(&wide));
        assert!(!wide.is_subset(&narrow));
    }

    #[test]
    fn modifier_vs_inherited() {
        // `lookup with {+read}` vs plain `{+lookup, +read}`: the modified
        // one derives only +read; the inheriting one derives lookup+read.
        let modified = CapPrivs::of(PrivSet::EMPTY)
            .with_modifier(Priv::Lookup, CapPrivs::of(PrivSet::of(&[Priv::Read])));
        let inherited = CapPrivs::of(PrivSet::of(&[Priv::Lookup, Priv::Read]));
        assert!(modified.is_subset(&inherited));
        assert!(!inherited.is_subset(&modified));
    }

    #[test]
    fn conflict_detection() {
        // The paper's example: +create-file with {+read,...} vs
        // +create-file with {+write} — neither subsumes the other.
        let a = CapPrivs::of(PrivSet::EMPTY).with_modifier(
            Priv::CreateFile,
            CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Stat, Priv::Path])),
        );
        let b = CapPrivs::of(PrivSet::EMPTY)
            .with_modifier(Priv::CreateFile, CapPrivs::of(PrivSet::of(&[Priv::Write])));
        assert!(a.conflicts_with(&b));
        assert!(!a.conflicts_with(&a.clone()));
        let sub = CapPrivs::of(PrivSet::EMPTY)
            .with_modifier(Priv::CreateFile, CapPrivs::of(PrivSet::of(&[Priv::Read])));
        assert!(!a.conflicts_with(&sub));
    }

    #[test]
    fn display_shows_modifiers() {
        let c = CapPrivs::of(PrivSet::of(&[Priv::Contents]))
            .with_modifier(Priv::Lookup, CapPrivs::of(PrivSet::of(&[Priv::Path])));
        let s = c.to_string();
        assert!(s.contains("+contents"));
        assert!(s.contains("+lookup with {+path}"));
    }
}
