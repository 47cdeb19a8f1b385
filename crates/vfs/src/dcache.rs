//! Directory-entry cache (dcache) for the access-control fast path.
//!
//! Real kernels amortize `namei`'s per-component directory lookups with a
//! name cache; this is the simulated analogue. Entries map `(parent
//! directory, component name)` to the child node — or to a cached **absence**
//! (a negative entry, as in FreeBSD's namecache): find-style workloads probe
//! the same missing names over and over, and a negative entry answers the
//! `ENOENT` without re-scanning the directory. Entries are invalidated by
//! *generation*: every directory carries a generation counter that any
//! namespace mutation under it (create, link, unlink, rmdir, rename,
//! symlink) bumps, so invalidation is O(1) per mutation and stale entries
//! are dropped lazily on the next probe. Because creates and renames bump
//! the generation like every other mutation, a negative entry can never
//! outlive the creation of the name it denies.
//!
//! Layering: the cache is owned by [`crate::Filesystem`] — mutation points
//! bump generations as part of the structural operation — but it is
//! *consulted* by the kernel's path walker, which still performs the DAC
//! search check and the MAC lookup hook on every component. The cache only
//! short-circuits the directory-entry scan, never an access-control
//! decision.
//!
//! Concurrency: the maps sit behind one [`crate::sync::Mutex`] and the
//! counters are relaxed atomics, so the cache is usable from sandbox
//! sessions running on worker threads (`&Filesystem` probes from multiple
//! threads are safe). The lock covers both `dirs` and `gens`; no method
//! takes another lock while holding it, so there is no ordering concern.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::sync::Mutex;
use crate::types::NodeId;

/// Soft bound on cached directories; exceeding it evicts stale generations
/// first and falls back to a full purge (the workloads here never churn
/// enough live directories for precision eviction to matter).
const DEFAULT_CAPACITY: usize = 4096;

/// Cached entries for one directory at one generation. `Some(node)` is a
/// positive entry; `None` records a validated absence.
#[derive(Debug, Default)]
struct DirEntries {
    gen: u64,
    names: HashMap<String, Option<NodeId>>,
}

/// The lock-guarded interior: the entry map and the per-directory
/// generation counters (missing means generation 0).
#[derive(Debug, Default)]
struct Inner {
    dirs: HashMap<NodeId, DirEntries>,
    gens: HashMap<NodeId, u64>,
}

/// Result of probing the cache for one `(dir, name)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcacheProbe {
    /// The name resolves to this node (at the directory's current
    /// generation).
    Pos(NodeId),
    /// The name was recently looked up and did not exist; no mutation has
    /// touched the directory since.
    Neg,
    /// Nothing cached (or a stale/disabled entry): scan the directory.
    Miss,
}

/// Observability counters. Hits/misses are counted only while the cache is
/// enabled; `invalidations` counts generation bumps (mutations), which are
/// tracked even while disabled so a re-enable never sees stale state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DcacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Probes answered by a cached negative entry.
    pub neg_hits: u64,
    pub invalidations: u64,
    pub purges: u64,
    /// Stale-generation directories dropped by capacity pressure (the
    /// eviction pass that runs before a full purge is considered).
    pub evictions: u64,
}

/// The name-lookup cache. Interior-mutable (lock + atomics) because the
/// path walker probes it through `&Filesystem`, possibly from several
/// session threads at once.
#[derive(Debug)]
pub struct Dcache {
    inner: Mutex<Inner>,
    enabled: AtomicBool,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    neg_hits: AtomicU64,
    invalidations: AtomicU64,
    purges: AtomicU64,
    evictions: AtomicU64,
}

impl Default for Dcache {
    fn default() -> Self {
        Self::new()
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl Dcache {
    pub fn new() -> Dcache {
        Dcache {
            inner: Mutex::new(Inner::default()),
            enabled: AtomicBool::new(true),
            capacity: DEFAULT_CAPACITY,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            neg_hits: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            purges: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether lookups consult the cache (the `security.cache.dcache`
    /// sysctl; ablation benches toggle this).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable the cache. Disabling purges all entries so a later
    /// re-enable starts cold rather than stale.
    pub fn set_enabled(&self, enabled: bool) {
        if self.enabled() && !enabled {
            self.purge();
        }
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Probe the cache. On [`DcacheProbe::Miss`] callers fall back to the
    /// real directory scan and record the outcome with `insert` /
    /// `insert_negative`.
    pub fn probe(&self, dir: NodeId, name: &str) -> DcacheProbe {
        if !self.enabled() {
            return DcacheProbe::Miss;
        }
        let mut inner = self.inner.lock();
        let current = inner.gens.get(&dir).copied().unwrap_or(0);
        if let Some(de) = inner.dirs.get(&dir) {
            if de.gen != current {
                // The whole generation is stale: drop it in one shot.
                inner.dirs.remove(&dir);
            } else if let Some(entry) = de.names.get(name) {
                return match entry {
                    Some(node) => {
                        bump(&self.hits);
                        DcacheProbe::Pos(*node)
                    }
                    None => {
                        bump(&self.neg_hits);
                        DcacheProbe::Neg
                    }
                };
            }
        }
        bump(&self.misses);
        DcacheProbe::Miss
    }

    /// Backwards-compatible positive probe (tests, diagnostics): `Some` only
    /// for a positive hit.
    pub fn get(&self, dir: NodeId, name: &str) -> Option<NodeId> {
        match self.probe(dir, name) {
            DcacheProbe::Pos(n) => Some(n),
            _ => None,
        }
    }

    fn record(&self, dir: NodeId, name: &str, entry: Option<NodeId>) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock();
        let current = inner.gens.get(&dir).copied().unwrap_or(0);
        if inner.dirs.len() >= self.capacity && !inner.dirs.contains_key(&dir) {
            // Evict stale generations; purge wholesale if the cache is
            // still at capacity afterwards (everything live).
            let before = inner.dirs.len();
            let Inner { dirs, gens } = &mut *inner;
            dirs.retain(|d, de| de.gen == gens.get(d).copied().unwrap_or(0));
            self.evictions
                .fetch_add((before - inner.dirs.len()) as u64, Ordering::Relaxed);
            if inner.dirs.len() >= self.capacity {
                inner.dirs.clear();
                bump(&self.purges);
            }
        }
        let de = inner.dirs.entry(dir).or_default();
        if de.gen != current {
            de.names.clear();
            de.gen = current;
        }
        de.names.insert(name.to_string(), entry);
    }

    /// Record a successful lookup at the directory's current generation.
    pub fn insert(&self, dir: NodeId, name: &str, node: NodeId) {
        self.record(dir, name, Some(node));
    }

    /// Record a validated absence (the scan came back `ENOENT`) at the
    /// directory's current generation. Any later create/rename in the
    /// directory bumps the generation and the entry dies with it.
    pub fn insert_negative(&self, dir: NodeId, name: &str) {
        self.record(dir, name, None);
    }

    /// A namespace mutation happened in `dir`: bump its generation, logically
    /// invalidating every cached entry under it in O(1).
    pub fn invalidate_dir(&self, dir: NodeId) {
        let mut inner = self.inner.lock();
        *inner.gens.entry(dir).or_insert(0) += 1;
        bump(&self.invalidations);
    }

    /// A directory node was reclaimed: forget its generation bookkeeping.
    pub fn forget_dir(&self, dir: NodeId) {
        let mut inner = self.inner.lock();
        inner.dirs.remove(&dir);
        inner.gens.remove(&dir);
    }

    /// Drop every entry (generation counters survive).
    pub fn purge(&self) {
        self.inner.lock().dirs.clear();
        bump(&self.purges);
    }

    /// Live cached name entries, positive and negative (tests).
    pub fn entry_count(&self) -> usize {
        self.inner
            .lock()
            .dirs
            .values()
            .map(|de| de.names.len())
            .sum()
    }

    /// Live cached negative entries (tests).
    pub fn neg_entry_count(&self) -> usize {
        self.inner
            .lock()
            .dirs
            .values()
            .map(|de| de.names.values().filter(|e| e.is_none()).count())
            .sum()
    }

    /// Live cached directories (tests: capacity-pressure behaviour).
    pub fn dir_count(&self) -> usize {
        self.inner.lock().dirs.len()
    }

    /// The current generation of a directory (tests/diagnostics).
    pub fn generation(&self, dir: NodeId) -> u64 {
        self.inner.lock().gens.get(&dir).copied().unwrap_or(0)
    }

    pub fn stats(&self) -> DcacheStats {
        DcacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            neg_hits: self.neg_hits.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            purges: self.purges.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.neg_hits.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
        self.purges.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_insert_hit() {
        let dc = Dcache::new();
        assert_eq!(dc.probe(NodeId(1), "a"), DcacheProbe::Miss);
        dc.insert(NodeId(1), "a", NodeId(2));
        assert_eq!(dc.probe(NodeId(1), "a"), DcacheProbe::Pos(NodeId(2)));
        let st = dc.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    #[test]
    fn negative_entries_hit_until_mutation() {
        let dc = Dcache::new();
        assert_eq!(dc.probe(NodeId(1), "ghost"), DcacheProbe::Miss);
        dc.insert_negative(NodeId(1), "ghost");
        assert_eq!(dc.probe(NodeId(1), "ghost"), DcacheProbe::Neg);
        assert_eq!(dc.probe(NodeId(1), "ghost"), DcacheProbe::Neg);
        assert_eq!(dc.neg_entry_count(), 1);
        assert_eq!(dc.stats().neg_hits, 2);
        // A create (or any mutation) in the directory bumps the generation:
        // the absence is no longer known.
        dc.invalidate_dir(NodeId(1));
        assert_eq!(dc.probe(NodeId(1), "ghost"), DcacheProbe::Miss);
        dc.insert(NodeId(1), "ghost", NodeId(9));
        assert_eq!(dc.probe(NodeId(1), "ghost"), DcacheProbe::Pos(NodeId(9)));
    }

    #[test]
    fn positive_and_negative_coexist_per_directory() {
        let dc = Dcache::new();
        dc.insert(NodeId(1), "real", NodeId(2));
        dc.insert_negative(NodeId(1), "ghost");
        assert_eq!(dc.probe(NodeId(1), "real"), DcacheProbe::Pos(NodeId(2)));
        assert_eq!(dc.probe(NodeId(1), "ghost"), DcacheProbe::Neg);
        assert_eq!(dc.entry_count(), 2);
        assert_eq!(dc.neg_entry_count(), 1);
    }

    #[test]
    fn generation_bump_invalidates_whole_directory() {
        let dc = Dcache::new();
        dc.insert(NodeId(1), "a", NodeId(2));
        dc.insert(NodeId(1), "b", NodeId(3));
        dc.insert(NodeId(9), "c", NodeId(4));
        dc.invalidate_dir(NodeId(1));
        assert_eq!(dc.get(NodeId(1), "a"), None);
        assert_eq!(dc.get(NodeId(1), "b"), None);
        // Unrelated directory unaffected.
        assert_eq!(dc.get(NodeId(9), "c"), Some(NodeId(4)));
    }

    #[test]
    fn insert_after_bump_starts_fresh_generation() {
        let dc = Dcache::new();
        dc.insert(NodeId(1), "a", NodeId(2));
        dc.invalidate_dir(NodeId(1));
        dc.insert(NodeId(1), "a", NodeId(7));
        assert_eq!(dc.get(NodeId(1), "a"), Some(NodeId(7)));
        assert_eq!(dc.generation(NodeId(1)), 1);
    }

    #[test]
    fn disabled_cache_never_hits_and_purges() {
        let dc = Dcache::new();
        dc.insert(NodeId(1), "a", NodeId(2));
        dc.insert_negative(NodeId(1), "ghost");
        dc.set_enabled(false);
        assert_eq!(dc.probe(NodeId(1), "a"), DcacheProbe::Miss);
        assert_eq!(dc.probe(NodeId(1), "ghost"), DcacheProbe::Miss);
        dc.insert(NodeId(1), "a", NodeId(2));
        assert_eq!(dc.entry_count(), 0);
        dc.set_enabled(true);
        assert_eq!(dc.get(NodeId(1), "a"), None, "re-enable starts cold");
    }

    #[test]
    fn capacity_pressure_purges_rather_than_grows() {
        let dc = Dcache::new();
        for i in 0..DEFAULT_CAPACITY + 10 {
            dc.insert(NodeId(i as u64 + 10), "x", NodeId(1));
        }
        assert!(dc.dir_count() <= DEFAULT_CAPACITY + 1);
        assert!(dc.stats().purges >= 1);
    }

    #[test]
    fn capacity_pressure_evicts_stale_generations_before_live_entries() {
        let dc = Dcache::new();
        // Fill to capacity, then invalidate half the directories so their
        // cached generations turn stale.
        for i in 0..DEFAULT_CAPACITY {
            dc.insert(NodeId(i as u64 + 10), "x", NodeId(1));
        }
        for i in 0..DEFAULT_CAPACITY / 2 {
            dc.invalidate_dir(NodeId(i as u64 + 10));
        }
        // The next new-directory insert must evict exactly the stale half —
        // not purge the live half.
        dc.insert(NodeId(999_999), "y", NodeId(2));
        let st = dc.stats();
        assert_eq!(st.evictions as usize, DEFAULT_CAPACITY / 2);
        assert_eq!(st.purges, 0, "live entries must survive stale eviction");
        // A live directory from the untouched half still answers.
        assert_eq!(
            dc.probe(NodeId(DEFAULT_CAPACITY as u64 / 2 + 10), "x"),
            DcacheProbe::Pos(NodeId(1))
        );
        // The stale half is gone (fresh probes miss).
        assert_eq!(dc.probe(NodeId(10), "x"), DcacheProbe::Miss);
    }

    #[test]
    fn capacity_pressure_with_all_live_directories_full_purges_once() {
        let dc = Dcache::new();
        for i in 0..DEFAULT_CAPACITY {
            dc.insert(NodeId(i as u64 + 10), "x", NodeId(1));
        }
        assert_eq!(dc.dir_count(), DEFAULT_CAPACITY);
        // Over-capacity insert with every generation live: stale eviction
        // frees nothing, so the fallback purge must fire (and count).
        dc.insert(NodeId(999_999), "y", NodeId(2));
        let st = dc.stats();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.purges, 1);
        assert_eq!(dc.dir_count(), 1, "only the fresh insert survives");
        assert_eq!(dc.probe(NodeId(999_999), "y"), DcacheProbe::Pos(NodeId(2)));
    }

    #[test]
    fn inserts_into_cached_directories_do_not_trigger_capacity_pressure() {
        let dc = Dcache::new();
        for i in 0..DEFAULT_CAPACITY {
            dc.insert(NodeId(i as u64 + 10), "x", NodeId(1));
        }
        // At capacity, but the target directory is already cached: no
        // eviction, no purge — the entry lands in the existing slot.
        dc.insert(NodeId(10), "second", NodeId(3));
        let st = dc.stats();
        assert_eq!((st.evictions, st.purges), (0, 0));
        assert_eq!(dc.probe(NodeId(10), "second"), DcacheProbe::Pos(NodeId(3)));
    }
}
