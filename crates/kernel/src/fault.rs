//! Deterministic fault-injection plane.
//!
//! A [`FaultPlane`] is a seeded schedule of failures threaded through the
//! kernel's hot paths: ulimit charging, pid allocation, path resolution,
//! the vfs data path (via [`shill_vfs::FaultHook`]), batch-entry
//! execution, and the MAC vnode hook (as an injected policy panic). The
//! point is to prove the degradation story: under any schedule the kernel
//! returns clean errnos, the batch machinery cancels dependents instead of
//! wedging, and the three execution modes (the sequential oracle,
//! `submit_batch`, the sharded pool) stay observationally identical.
//!
//! ## Determinism model
//!
//! Two kinds of trigger, both replayable bit-for-bit:
//!
//! - **Hash-rate firing**: a site fires iff
//!   `mix(seed, site, key) % rate == 0`. The key is derived from
//!   *mode-invariant* identities — shard-relative pids and node ids, path
//!   hashes, batch slot indices — never from global hit order. Stateless
//!   firing is what makes one schedule produce the *same* faults whether
//!   entries run in submission order, out-of-order by wave, or on a
//!   sharded worker pool: reordering cannot change which operations fail.
//! - **Explicit nth-hit entries**: `site@n=ERRNO` fires on the n-th hit
//!   of that site (per-plane counter). Hit order is deterministic within
//!   one execution mode, so these are for targeted regression tests, not
//!   for cross-mode differential schedules.
//!
//! ## Schedule syntax (`SHILL_FAULTS`)
//!
//! Semicolon-separated clauses:
//!
//! ```text
//! seed=7;rate=41;sites=namei+fs.read+fs.write+batch
//! namei@3=EIO;fs.write@1=short:2;mac_panic@2=panic
//! ```
//!
//! `rate=N` means each enabled site fires on ~1/N of its keys (`rate=0`
//! or no `sites=` clause disables hash firing). Site names: `charge`,
//! `alloc_pid`, `namei`, `fs.read`, `fs.write`, `batch`, `mac_panic`,
//! `pipe.read`, `pipe.write`, `sock.send`, `sock.recv`, `fence`.
//! Explicit actions: an errno name (`EIO`), `short:K` (data sites only:
//! truncate the op to `K` bytes), or `panic`.
//!
//! ## Accounting
//!
//! Every fired fault bumps `faults_injected`; faults that surface as a
//! clean errno (or short op) bump `faults_survived` at the same instant.
//! An injected panic bumps only `faults_injected` — the containment site
//! that catches it (the `BatchPool` worker, a session body's unwind
//! guard) books `faults_survived`. `injected == survived` after a run is
//! therefore the machine-checkable statement that no panic escaped.
//! Counters accumulate in the plane and drain into
//! [`crate::stats::KernelStats`] at [`crate::kernel::Kernel::stats_snapshot`]
//! time, like policy stripe contention.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shill_vfs::sync::Mutex;
use shill_vfs::{Errno, FaultHook, IoFault};

use crate::trace::{TracePlane, TraceSite};

/// Number of [`FaultSite`] variants (sizes the per-site hit counters).
const N_SITES: usize = 12;

/// Injection points the plane knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// Ulimit charging at syscall entry ([`crate::kernel::Kernel`]'s
    /// `charge`): fires in every execution mode, keyed by shard-relative
    /// pid — a cursed pid fails every syscall with the injected errno.
    Charge = 0,
    /// Pid allocation (`fork`, `spawn_user`): simulated pid-space
    /// exhaustion, keyed by the shard-relative pid about to be handed out.
    AllocPid = 1,
    /// Path resolution entry (`namei`), keyed by a hash of the path
    /// string — a cursed path fails resolution everywhere, whether or not
    /// the walk would have been answered by the dcache.
    Namei = 2,
    /// File reads at the vfs boundary (below MAC), keyed by
    /// (shard-relative node, offset, length). May fail or go short.
    FsRead = 3,
    /// File writes at the vfs boundary, same keying as reads.
    FsWrite = 4,
    /// Batch-entry execution, keyed by (shard-relative pid, slot index) —
    /// slot identity, not execution order, so the same entry fails under
    /// sequential, wave-scheduled, and pooled execution.
    Batch = 5,
    /// Injected panic in the MAC vnode hook, modeling a buggy policy
    /// module. Keyed by shard-relative pid.
    MacPanic = 6,
    /// Pipe drains inside [`crate::pipe::PipeTable`], keyed by
    /// (shard-relative pipe id, requested length) — below MAC, above the
    /// buffer, so every execution mode that touches the pipe sees the
    /// same verdict. May fail or go short.
    PipeRead = 7,
    /// Pipe fills, same keying as pipe reads (shard-relative pipe id,
    /// payload length).
    PipeWrite = 8,
    /// Socket sends inside [`crate::net::NetStack`], keyed by
    /// (shard-relative socket id, payload length) — fires after the
    /// connection is classified, modeling a peer that resets mid-send.
    SockSend = 9,
    /// Socket receives, keyed by (shard-relative socket id, requested
    /// length). May fail or deliver short.
    SockRecv = 10,
    /// Injected panic inside a multi-shard rendezvous
    /// ([`crate::shard::KernelShards::fenced_ordered`]), fired *after*
    /// every fence lock is acquired — modeling a shard that dies
    /// mid-rendezvous with the cross-shard locks held. Keyed by the
    /// (home, fence-set) fingerprint, which is a property of the job's
    /// fence declaration, never of execution order. Panic-only, like
    /// `mac_panic`: survival is booked by the containment boundary that
    /// catches the unwind (the `BatchPool` worker).
    Fence = 11,
}

impl FaultSite {
    /// The schedule-syntax name of this site (`charge`, `fs.read`, …).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Charge => "charge",
            FaultSite::AllocPid => "alloc_pid",
            FaultSite::Namei => "namei",
            FaultSite::FsRead => "fs.read",
            FaultSite::FsWrite => "fs.write",
            FaultSite::Batch => "batch",
            FaultSite::MacPanic => "mac_panic",
            FaultSite::PipeRead => "pipe.read",
            FaultSite::PipeWrite => "pipe.write",
            FaultSite::SockSend => "sock.send",
            FaultSite::SockRecv => "sock.recv",
            FaultSite::Fence => "fence",
        }
    }

    fn from_name(s: &str) -> Option<FaultSite> {
        Some(match s {
            "charge" => FaultSite::Charge,
            "alloc_pid" => FaultSite::AllocPid,
            "namei" => FaultSite::Namei,
            "fs.read" => FaultSite::FsRead,
            "fs.write" => FaultSite::FsWrite,
            "batch" => FaultSite::Batch,
            "mac_panic" => FaultSite::MacPanic,
            "pipe.read" => FaultSite::PipeRead,
            "pipe.write" => FaultSite::PipeWrite,
            "sock.send" => FaultSite::SockSend,
            "sock.recv" => FaultSite::SockRecv,
            "fence" => FaultSite::Fence,
            _ => return None,
        })
    }

    /// Errno menu a hash firing picks from at this site.
    fn menu(self) -> &'static [Errno] {
        match self {
            FaultSite::Charge | FaultSite::AllocPid => &[Errno::EAGAIN],
            FaultSite::Namei => &[Errno::EIO, Errno::EACCES, Errno::ENOENT],
            FaultSite::FsRead => &[Errno::EIO],
            FaultSite::FsWrite => &[Errno::EIO, Errno::ENOSPC],
            FaultSite::Batch => &[Errno::EIO, Errno::EAGAIN],
            FaultSite::MacPanic | FaultSite::Fence => &[],
            FaultSite::PipeRead => &[Errno::EIO],
            FaultSite::PipeWrite => &[Errno::EPIPE, Errno::EIO],
            FaultSite::SockSend => &[Errno::ECONNRESET, Errno::EPIPE],
            FaultSite::SockRecv => &[Errno::ECONNRESET, Errno::EIO],
        }
    }
}

/// What an explicit `site@n=…` entry does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExplicitAction {
    Fail(Errno),
    Short(usize),
    Panic,
}

#[derive(Debug)]
struct ExplicitEntry {
    site: FaultSite,
    nth: u64,
    action: ExplicitAction,
}

/// A seeded, replayable fault schedule. Interior-mutable (atomics only)
/// so `&self` call sites — `namei`, `mac_vnode`, the vfs read path — can
/// consult it.
#[derive(Debug)]
pub struct FaultPlane {
    seed: u64,
    rate: u64,
    site_mask: u32,
    explicit: Vec<ExplicitEntry>,
    hits: [AtomicU64; N_SITES],
    /// Faults fired but not yet drained into kernel stats.
    pending_injected: AtomicU64,
    /// Faults that surfaced as clean errnos (or were contained), not yet
    /// drained.
    pending_survived: AtomicU64,
    /// Tracing plane handle, when armed: every firing records an
    /// instant event tagged with the fault-site name. Only touched on
    /// the (rare) firing path, never on the hit-count fast path.
    trace: Mutex<Option<Arc<TracePlane>>>,
}

impl FaultPlane {
    /// A plane with hash firing over `sites` at 1-in-`rate` and no
    /// explicit entries.
    pub fn seeded(seed: u64, rate: u64, sites: &[FaultSite]) -> FaultPlane {
        let mut mask = 0u32;
        for s in sites {
            mask |= 1 << (*s as usize);
        }
        FaultPlane {
            seed,
            rate,
            site_mask: mask,
            explicit: Vec::new(),
            hits: Default::default(),
            pending_injected: AtomicU64::new(0),
            pending_survived: AtomicU64::new(0),
            trace: Mutex::new(None),
        }
    }

    /// Arm tracing: subsequent firings record [`TraceSite::Fault`]
    /// instant events tagged with the fault-site name.
    pub fn attach_trace(&self, plane: &Arc<TracePlane>) {
        *self.trace.lock() = Some(Arc::clone(plane));
    }

    fn trace_fire(&self, site: FaultSite) {
        if let Some(plane) = self.trace.lock().as_ref() {
            plane.instant(TraceSite::Fault, 0, 0, site.name());
        }
    }

    /// Add an explicit nth-hit errno failure (1-based `nth`).
    pub fn fail_on(mut self, site: FaultSite, nth: u64, errno: Errno) -> FaultPlane {
        self.explicit.push(ExplicitEntry {
            site,
            nth,
            action: ExplicitAction::Fail(errno),
        });
        self
    }

    /// Add an explicit nth-hit short-I/O truncation (data sites only).
    pub fn short_on(mut self, site: FaultSite, nth: u64, len: usize) -> FaultPlane {
        self.explicit.push(ExplicitEntry {
            site,
            nth,
            action: ExplicitAction::Short(len),
        });
        self
    }

    /// Add an explicit nth-hit injected panic.
    pub fn panic_on(mut self, site: FaultSite, nth: u64) -> FaultPlane {
        self.explicit.push(ExplicitEntry {
            site,
            nth,
            action: ExplicitAction::Panic,
        });
        self
    }

    /// Parse a `SHILL_FAULTS` schedule string.
    pub fn parse(spec: &str) -> Result<FaultPlane, String> {
        let mut plane = FaultPlane::seeded(1, 0, &[]);
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (lhs, rhs) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause without '=': {clause:?}"))?;
            match lhs {
                "seed" => {
                    plane.seed = rhs.parse().map_err(|_| format!("bad seed in {clause:?}"))?;
                }
                "rate" => {
                    plane.rate = rhs.parse().map_err(|_| format!("bad rate in {clause:?}"))?;
                }
                "sites" => {
                    for name in rhs.split('+').filter(|s| !s.is_empty()) {
                        let site = FaultSite::from_name(name)
                            .ok_or_else(|| format!("unknown fault site {name:?}"))?;
                        plane.site_mask |= 1 << (site as usize);
                    }
                }
                _ => {
                    // site@n=ACTION
                    let (site_name, nth) = lhs
                        .split_once('@')
                        .ok_or_else(|| format!("unknown fault clause {clause:?}"))?;
                    let site = FaultSite::from_name(site_name)
                        .ok_or_else(|| format!("unknown fault site {site_name:?}"))?;
                    let nth: u64 = nth
                        .parse()
                        .map_err(|_| format!("bad hit index in {clause:?}"))?;
                    if nth == 0 {
                        return Err(format!("hit indices are 1-based: {clause:?}"));
                    }
                    let action = if rhs == "panic" {
                        ExplicitAction::Panic
                    } else if let Some(len) = rhs.strip_prefix("short:") {
                        ExplicitAction::Short(
                            len.parse()
                                .map_err(|_| format!("bad short length in {clause:?}"))?,
                        )
                    } else {
                        ExplicitAction::Fail(
                            errno_from_name(rhs).ok_or_else(|| format!("unknown errno {rhs:?}"))?,
                        )
                    };
                    plane.explicit.push(ExplicitEntry { site, nth, action });
                }
            }
        }
        Ok(plane)
    }

    /// Build a plane from the `SHILL_FAULTS` environment variable, if set.
    /// A malformed schedule panics — a fault plane that silently does
    /// nothing would make a red CI run green.
    pub fn from_env() -> Option<FaultPlane> {
        let spec = std::env::var("SHILL_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        Some(FaultPlane::parse(&spec).expect("malformed SHILL_FAULTS schedule"))
    }

    /// splitmix64-style avalanche over (seed, site, key).
    fn mix(&self, site: FaultSite, key: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_add((site as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(key.wrapping_mul(0xD1B5_4A32_D192_ED03));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        x
    }

    fn record_hit(&self, site: FaultSite) -> u64 {
        self.hits[site as usize].fetch_add(1, Ordering::Relaxed) + 1
    }

    fn explicit_for(&self, site: FaultSite, hit: u64) -> Option<ExplicitAction> {
        self.explicit
            .iter()
            .find(|e| e.site == site && e.nth == hit)
            .map(|e| e.action)
    }

    fn hash_fires(&self, site: FaultSite, key: u64) -> Option<u64> {
        if self.rate == 0 || self.site_mask & (1 << (site as usize)) == 0 {
            return None;
        }
        let h = self.mix(site, key);
        h.is_multiple_of(self.rate).then_some(h / self.rate)
    }

    fn book_errno(&self, site: FaultSite) {
        self.pending_injected.fetch_add(1, Ordering::Relaxed);
        self.pending_survived.fetch_add(1, Ordering::Relaxed);
        self.trace_fire(site);
    }

    /// Consult the plane at a control-path site. `Some(errno)` means the
    /// caller must fail the operation with that errno (already booked as
    /// injected *and* survived — errno faults are survived by
    /// construction).
    pub fn check(&self, site: FaultSite, key: u64) -> Option<Errno> {
        let hit = self.record_hit(site);
        if let Some(action) = self.explicit_for(site, hit) {
            match action {
                ExplicitAction::Fail(e) => {
                    self.book_errno(site);
                    return Some(e);
                }
                ExplicitAction::Panic => {
                    self.pending_injected.fetch_add(1, Ordering::Relaxed);
                    self.trace_fire(site);
                    panic!("injected fault: panic at site {}", site.name());
                }
                ExplicitAction::Short(_) => return None,
            }
        }
        let roll = self.hash_fires(site, key)?;
        let menu = site.menu();
        if menu.is_empty() {
            return None;
        }
        self.book_errno(site);
        Some(menu[(roll % menu.len() as u64) as usize])
    }

    /// Consult the plane at a data-path site (`fs.read` / `fs.write`).
    /// Short verdicts truncate the op to fewer bytes; they are injected
    /// *and* survived (the caller proceeds with a legal partial result).
    pub fn check_io(&self, site: FaultSite, key: u64, len: usize) -> Option<IoFault> {
        let hit = self.record_hit(site);
        if let Some(action) = self.explicit_for(site, hit) {
            match action {
                ExplicitAction::Fail(e) => {
                    self.book_errno(site);
                    return Some(IoFault::Fail(e));
                }
                ExplicitAction::Short(n) => {
                    self.book_errno(site);
                    return Some(IoFault::Short(n));
                }
                ExplicitAction::Panic => {
                    self.pending_injected.fetch_add(1, Ordering::Relaxed);
                    self.trace_fire(site);
                    panic!("injected fault: panic at site {}", site.name());
                }
            }
        }
        let roll = self.hash_fires(site, key)?;
        self.book_errno(site);
        // Alternate failures and short ops off the roll: bit 0 picks the
        // kind, higher bits pick the errno or the truncated length. A
        // short length of `len` (no truncation) is excluded so a firing
        // is always observable.
        if roll & 1 == 0 || len == 0 {
            let menu = site.menu();
            Some(IoFault::Fail(
                menu[((roll >> 1) % menu.len() as u64) as usize],
            ))
        } else {
            Some(IoFault::Short(((roll >> 1) % len as u64) as usize))
        }
    }

    /// Consult the `mac_panic` site; panics if it fires. The panic is
    /// booked as injected only — whoever contains it calls
    /// [`FaultPlane::book_survived`], keeping `injected == survived` the
    /// no-escape invariant.
    pub fn maybe_panic(&self, key: u64) {
        self.maybe_panic_at(FaultSite::MacPanic, key);
    }

    /// Consult a panic-only site (`mac_panic`, `fence`); panics if it
    /// fires. Booked as injected only, exactly like
    /// [`FaultPlane::maybe_panic`]: the containment boundary that catches
    /// the unwind books survival.
    pub fn maybe_panic_at(&self, site: FaultSite, key: u64) {
        let hit = self.record_hit(site);
        let fires = matches!(self.explicit_for(site, hit), Some(ExplicitAction::Panic))
            || self.hash_fires(site, key).is_some();
        if fires {
            self.pending_injected.fetch_add(1, Ordering::Relaxed);
            self.trace_fire(site);
            panic!("injected fault: panic at site {}", site.name());
        }
    }

    /// Book one contained fault (a caught injected panic).
    pub fn book_survived(&self) {
        self.pending_survived.fetch_add(1, Ordering::Relaxed);
    }

    /// Drain pending (injected, survived) counts — called by
    /// [`crate::kernel::Kernel::stats_snapshot`].
    pub fn drain(&self) -> (u64, u64) {
        (
            self.pending_injected.swap(0, Ordering::Relaxed),
            self.pending_survived.swap(0, Ordering::Relaxed),
        )
    }

    /// Total hits recorded at a site (fired or not) — test observability.
    pub fn hits(&self, site: FaultSite) -> u64 {
        self.hits[site as usize].load(Ordering::Relaxed)
    }
}

/// The plane doubles as the vfs data-path hook: reads and writes key on
/// (shard-relative node, offset, length), all mode- and shard-invariant.
impl FaultHook for FaultPlane {
    fn on_read(&self, rel_node: u64, offset: u64, len: usize) -> Option<IoFault> {
        let key = rel_node ^ offset.rotate_left(17) ^ (len as u64).rotate_left(37);
        self.check_io(FaultSite::FsRead, key, len)
    }

    fn on_write(&self, rel_node: u64, offset: u64, len: usize) -> Option<IoFault> {
        let key = rel_node ^ offset.rotate_left(17) ^ (len as u64).rotate_left(37);
        self.check_io(FaultSite::FsWrite, key, len)
    }
}

/// FNV-1a over a path string: the mode-invariant key for `namei` faults.
pub fn path_key(path: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in path.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn errno_from_name(name: &str) -> Option<Errno> {
    const ALL: &[Errno] = &[
        Errno::EPERM,
        Errno::ENOENT,
        Errno::ESRCH,
        Errno::EINTR,
        Errno::EIO,
        Errno::EBADF,
        Errno::ECHILD,
        Errno::EAGAIN,
        Errno::ENOMEM,
        Errno::EACCES,
        Errno::EFAULT,
        Errno::EBUSY,
        Errno::EEXIST,
        Errno::EXDEV,
        Errno::ENODEV,
        Errno::ENOTDIR,
        Errno::EISDIR,
        Errno::EINVAL,
        Errno::ENFILE,
        Errno::EMFILE,
        Errno::EFBIG,
        Errno::ENOSPC,
        Errno::EROFS,
        Errno::EMLINK,
        Errno::EPIPE,
        Errno::ELOOP,
        Errno::ENAMETOOLONG,
        Errno::ENOTEMPTY,
        Errno::ENOSYS,
        Errno::ENOEXEC,
        Errno::ECANCELED,
        Errno::ECONNRESET,
    ];
    ALL.iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_firing_is_deterministic_and_key_dependent() {
        let a = FaultPlane::seeded(7, 3, &[FaultSite::Namei]);
        let b = FaultPlane::seeded(7, 3, &[FaultSite::Namei]);
        let keys: Vec<u64> = (0..256).collect();
        let fire_a: Vec<_> = keys.iter().map(|k| a.check(FaultSite::Namei, *k)).collect();
        let fire_b: Vec<_> = keys.iter().map(|k| b.check(FaultSite::Namei, *k)).collect();
        assert_eq!(fire_a, fire_b, "same seed, same keys, same verdicts");
        let fired = fire_a.iter().filter(|r| r.is_some()).count();
        assert!(
            fired > 20,
            "rate=3 over 256 keys should fire often: {fired}"
        );
        assert!(fired < 200, "rate=3 must not fire on everything: {fired}");
        // A different seed reshuffles which keys fire.
        let c = FaultPlane::seeded(8, 3, &[FaultSite::Namei]);
        let fire_c: Vec<_> = keys.iter().map(|k| c.check(FaultSite::Namei, *k)).collect();
        assert_ne!(fire_a, fire_c);
    }

    #[test]
    fn firing_is_order_independent() {
        let a = FaultPlane::seeded(42, 5, &[FaultSite::Batch]);
        let b = FaultPlane::seeded(42, 5, &[FaultSite::Batch]);
        let mut fwd: Vec<_> = (0..64).map(|k| (k, a.check(FaultSite::Batch, k))).collect();
        let mut rev: Vec<_> = (0..64)
            .rev()
            .map(|k| (k, b.check(FaultSite::Batch, k)))
            .collect();
        fwd.sort_by_key(|(k, _)| *k);
        rev.sort_by_key(|(k, _)| *k);
        assert_eq!(fwd, rev, "hash firing must not depend on visit order");
    }

    #[test]
    fn explicit_nth_hit_fires_once_at_exactly_that_hit() {
        let p = FaultPlane::seeded(1, 0, &[]).fail_on(FaultSite::Charge, 3, Errno::EAGAIN);
        assert_eq!(p.check(FaultSite::Charge, 0), None);
        assert_eq!(p.check(FaultSite::Charge, 0), None);
        assert_eq!(p.check(FaultSite::Charge, 0), Some(Errno::EAGAIN));
        assert_eq!(p.check(FaultSite::Charge, 0), None);
        assert_eq!(p.hits(FaultSite::Charge), 4);
        assert_eq!(p.drain(), (1, 1));
        assert_eq!(p.drain(), (0, 0), "drain is destructive");
    }

    #[test]
    fn parse_round_trips_the_documented_syntax() {
        let p = FaultPlane::parse("seed=7;rate=41;sites=namei+fs.read+batch").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.rate, 41);
        for s in [FaultSite::Namei, FaultSite::FsRead, FaultSite::Batch] {
            assert!(p.site_mask & (1 << (s as usize)) != 0);
        }
        assert!(p.site_mask & (1 << (FaultSite::Charge as usize)) == 0);

        let p = FaultPlane::parse("namei@3=EIO;fs.write@1=short:2;mac_panic@2=panic").unwrap();
        assert_eq!(p.explicit.len(), 3);
        assert_eq!(p.explicit[0].action, ExplicitAction::Fail(Errno::EIO));
        assert_eq!(p.explicit[1].action, ExplicitAction::Short(2));
        assert_eq!(p.explicit[2].action, ExplicitAction::Panic);

        assert!(FaultPlane::parse("sites=warp_core").is_err());
        assert!(FaultPlane::parse("namei@0=EIO").is_err(), "1-based hits");
        assert!(FaultPlane::parse("namei@1=EWHAT").is_err());
        assert!(FaultPlane::parse("garbage").is_err());
    }

    #[test]
    fn short_io_truncates_and_books_both_counters() {
        let p = FaultPlane::seeded(1, 0, &[]).short_on(FaultSite::FsWrite, 1, 2);
        assert_eq!(
            p.check_io(FaultSite::FsWrite, 9, 100),
            Some(IoFault::Short(2))
        );
        assert_eq!(p.drain(), (1, 1));
    }

    #[test]
    fn injected_panic_books_injected_only_until_contained() {
        let p = FaultPlane::seeded(1, 0, &[]).panic_on(FaultSite::MacPanic, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.maybe_panic(0)));
        assert!(r.is_err(), "explicit panic entry must fire");
        assert_eq!(p.drain(), (1, 0));
        p.book_survived();
        assert_eq!(p.drain(), (0, 1));
    }

    #[test]
    fn pipe_and_socket_sites_parse_and_fire() {
        let p = FaultPlane::parse("seed=3;rate=2;sites=pipe.read+pipe.write+sock.send+sock.recv")
            .unwrap();
        for s in [
            FaultSite::PipeRead,
            FaultSite::PipeWrite,
            FaultSite::SockSend,
            FaultSite::SockRecv,
        ] {
            assert!(
                p.site_mask & (1 << (s as usize)) != 0,
                "{} enabled",
                s.name()
            );
            assert_eq!(FaultSite::from_name(s.name()), Some(s), "name round-trip");
            let fired = (0..64).filter(|k| p.check_io(s, *k, 16).is_some()).count();
            assert!(fired > 8, "rate=2 must fire at {}: {fired}", s.name());
        }
        // Data-path menus stay inside the errnos a real pipe/socket can
        // produce (plus EIO), so injected faults are indistinguishable
        // from organic ones to a script.
        assert!(FaultSite::SockSend.menu().contains(&Errno::ECONNRESET));
        assert!(FaultSite::PipeWrite.menu().contains(&Errno::EPIPE));
        assert!(FaultPlane::parse("sock.recv@1=ECONNRESET").is_ok());
    }

    #[test]
    fn path_key_distinguishes_paths() {
        assert_ne!(path_key("/a/b"), path_key("/a/c"));
        assert_eq!(path_key("/a/b"), path_key("/a/b"));
    }
}
