//! The MAC policy registry: which policy modules are loaded, in load order.
//!
//! Replaces the original bare `Vec<Arc<dyn MacPolicy>>` whose lifecycle
//! notifications cloned the whole vector per call. The registry also owns
//! the cache bookkeeping the access-vector cache ([`crate::avc`]) validates
//! against: an attach/detach epoch, and memoized "are all loaded policies
//! cacheable" and "are all loaded policies label-scoped" flags so the hot
//! path never re-walks the stack to decide whether the AVC may be consulted
//! or an unlabelled subject may skip the checks.

use std::sync::Arc;

use crate::mac::MacPolicy;

#[derive(Default)]
pub struct PolicyRegistry {
    entries: Vec<Arc<dyn MacPolicy>>,
    /// Bumped on every attach/detach; folded into the AVC's combined epoch
    /// so load-order changes invalidate all cached verdicts.
    epoch: u64,
    /// True iff every loaded policy opted into AVC caching. Vacuously true
    /// when no policy is loaded (the AVC is bypassed then anyway).
    all_cacheable: bool,
    /// True iff every loaded policy confines only labelled subjects
    /// ([`MacPolicy::label_scoped`]). Vacuously true when none is loaded.
    all_label_scoped: bool,
}

impl PolicyRegistry {
    pub fn new() -> PolicyRegistry {
        PolicyRegistry {
            entries: Vec::new(),
            epoch: 0,
            all_cacheable: true,
            all_label_scoped: true,
        }
    }

    pub fn attach(&mut self, policy: Arc<dyn MacPolicy>) {
        self.entries.push(policy);
        self.epoch += 1;
        self.recompute();
    }

    /// Detach by name; returns whether anything was removed.
    pub fn detach(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|p| p.name() != name);
        let removed = before != self.entries.len();
        if removed {
            self.epoch += 1;
            self.recompute();
        }
        removed
    }

    fn recompute(&mut self) {
        self.all_cacheable = self.entries.iter().all(|p| p.decisions_cacheable());
        self.all_label_scoped = self.entries.iter().all(|p| p.label_scoped());
    }

    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|p| p.name() == name)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn as_slice(&self) -> &[Arc<dyn MacPolicy>] {
        &self.entries
    }

    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn MacPolicy>> {
        self.entries.iter()
    }

    /// Whether the AVC may be consulted for the current policy stack.
    pub fn cacheable(&self) -> bool {
        self.all_cacheable
    }

    /// Whether no loaded policy can restrict an unlabelled subject.
    pub fn label_scoped(&self) -> bool {
        self.all_label_scoped
    }

    /// The combined cache epoch: registry attach/detach epoch plus every
    /// policy's own epoch. Any authority-shrinking event anywhere in the
    /// stack changes this value and thereby invalidates the AVC.
    pub fn combined_epoch(&self) -> u64 {
        self.entries
            .iter()
            .fold(self.epoch, |acc, p| acc.wrapping_add(p.cache_epoch()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::NullPolicy;

    struct Uncacheable;
    impl MacPolicy for Uncacheable {
        fn name(&self) -> &str {
            "opaque"
        }
    }

    struct Scoped;
    impl MacPolicy for Scoped {
        fn name(&self) -> &str {
            "scoped"
        }
        fn label_scoped(&self) -> bool {
            true
        }
    }

    #[test]
    fn attach_detach_tracks_epoch_and_cacheability() {
        let mut r = PolicyRegistry::new();
        assert!(r.cacheable());
        let e0 = r.combined_epoch();
        r.attach(Arc::new(NullPolicy));
        assert!(r.cacheable());
        assert_ne!(r.combined_epoch(), e0);
        r.attach(Arc::new(Uncacheable));
        assert!(!r.cacheable(), "one opaque policy disables the AVC");
        assert!(r.detach("opaque"));
        assert!(r.cacheable());
        assert!(!r.detach("opaque"));
        assert!(r.contains("null"));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn label_scope_is_memoized_over_the_whole_stack() {
        let mut r = PolicyRegistry::new();
        r.attach(Arc::new(Scoped));
        assert!(r.label_scoped());
        r.attach(Arc::new(NullPolicy));
        assert!(!r.label_scoped(), "one unscoped policy mediates everyone");
        assert!(r.detach("null"));
        assert!(r.label_scoped());
    }
}
