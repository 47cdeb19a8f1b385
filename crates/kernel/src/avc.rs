//! Access-vector cache (AVC) for MAC decisions.
//!
//! Modeled on the SELinux/TrustedBSD AVC: the kernel memoizes *allow*
//! verdicts from the policy stack so the hot path (`namei`'s per-component
//! `Lookup` checks, per-`read` interposition, pipe/socket data-path checks)
//! stops paying a virtual call into every registered policy for decisions
//! that cannot have changed. Entries are keyed by subject, then by
//! ([`ObjId`], class), so vnode, pipe, and socket vectors all share one
//! cache and one epoch discipline, and a process exit drops its verdicts
//! in O(its own entries).
//!
//! Safety rules, in order of importance:
//!
//! * **Denials are never cached.** A denied operation always re-consults
//!   the policies, so privilege propagation or a debug auto-grant is picked
//!   up immediately and no denial can outlive a grant.
//! * **Allow verdicts are epoch-validated.** Each entry records the
//!   combined epoch (policy registry attach/detach epoch + the sum of every
//!   policy's [`crate::mac::MacPolicy::cache_epoch`]) at insert time; any
//!   authority-shrinking event bumps an epoch and every older entry turns
//!   stale.
//! * **Only name- and address-free operation classes are cached.**
//!   `CreateFile(name)`, `RenameTo(name)`, `Connect(addr)` etc. bypass the
//!   cache entirely: they are checks where a policy may legitimately care
//!   about the operand, not just the object.
//! * The cache is consulted at all only when **every** registered policy
//!   opted in via `decisions_cacheable`.

use std::sync::atomic::{AtomicBool, Ordering};

use shill_vfs::sync::Mutex;
use shill_vfs::IdMap;

use crate::mac::{PipeOp, SocketOp, VnodeOp};
use crate::types::{ObjId, Pid};

/// Soft bound on cached verdicts before a wholesale purge.
const DEFAULT_CAPACITY: usize = 8192;

/// Operand-free operation classes eligible for caching — the analogue of
/// SELinux access-vector permission bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AvcClass {
    Lookup,
    Read,
    Write,
    Exec,
    Stat,
    ReadDir,
    ReadSymlink,
    PathLookup,
    Chdir,
    PipeRead,
    PipeWrite,
    PipeStat,
    SockSend,
    SockRecv,
}

/// Map a vnode operation to its cacheable class; `None` means the operation
/// must always reach the policies (mutations and name-dependent checks).
pub fn avc_class(op: &VnodeOp<'_>) -> Option<AvcClass> {
    match op {
        VnodeOp::Lookup(_) => Some(AvcClass::Lookup),
        VnodeOp::Read => Some(AvcClass::Read),
        VnodeOp::Write => Some(AvcClass::Write),
        VnodeOp::Exec => Some(AvcClass::Exec),
        VnodeOp::Stat => Some(AvcClass::Stat),
        VnodeOp::ReadDir => Some(AvcClass::ReadDir),
        VnodeOp::ReadSymlink => Some(AvcClass::ReadSymlink),
        VnodeOp::PathLookup => Some(AvcClass::PathLookup),
        VnodeOp::Chdir => Some(AvcClass::Chdir),
        _ => None,
    }
}

/// Map a pipe operation to its cacheable class. All pipe operations are
/// operand-free, so every one caches.
pub fn avc_pipe_class(op: PipeOp) -> Option<AvcClass> {
    match op {
        PipeOp::Read => Some(AvcClass::PipeRead),
        PipeOp::Write => Some(AvcClass::PipeWrite),
        PipeOp::Stat => Some(AvcClass::PipeStat),
    }
}

/// Map a socket operation to its cacheable class; `None` for lifecycle and
/// address-carrying checks (`Create`, `Bind`, `Connect`, `Listen`,
/// `Accept`), which always reach the policies.
pub fn avc_socket_class(op: &SocketOp) -> Option<AvcClass> {
    match op {
        SocketOp::Send => Some(AvcClass::SockSend),
        SocketOp::Recv => Some(AvcClass::SockRecv),
        _ => None,
    }
}

/// The access-vector cache. Interior-mutable (lock + atomic) because MAC
/// checks run behind `&Kernel` on read-path syscalls, possibly from several
/// session threads at once.
#[derive(Debug, Default)]
pub struct Avc {
    entries: Mutex<Entries>,
    enabled: AtomicBool,
}

/// The cached verdicts, keyed subject first: a process exit removes one
/// inner map instead of scanning every subject's verdicts.
#[derive(Debug, Default)]
struct Entries {
    /// subject → (object, class) → combined epoch at which the allow was
    /// recorded. Presence at the current epoch means "allowed".
    by_pid: IdMap<Pid, IdMap<(ObjId, AvcClass), u64>>,
    /// Verdicts across all subjects, kept exact so neither the capacity
    /// check nor `entry_count` walks the map.
    len: usize,
}

impl Avc {
    pub fn new() -> Avc {
        Avc {
            entries: Mutex::new(Entries::default()),
            enabled: AtomicBool::new(true),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable the cache. Disabling flushes; the return value is
    /// the number of live verdicts that flush dropped (0 for an enable, a
    /// disabled→disabled transition, or an already-empty cache), so callers
    /// can count only flushes that actually did work.
    pub fn set_enabled(&self, enabled: bool) -> usize {
        let dropped = if self.enabled() && !enabled {
            self.flush()
        } else {
            0
        };
        self.enabled.store(enabled, Ordering::Relaxed);
        dropped
    }

    /// Probe for a still-valid allow verdict. Stale entries are dropped.
    pub fn probe(&self, pid: Pid, obj: ObjId, class: AvcClass, epoch: u64) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut guard = self.entries.lock();
        let Entries { by_pid, len } = &mut *guard;
        let Some(own) = by_pid.get_mut(&pid) else {
            return false;
        };
        match own.get(&(obj, class)) {
            Some(e) if *e == epoch => true,
            Some(_) => {
                own.remove(&(obj, class));
                *len -= 1;
                false
            }
            None => false,
        }
    }

    /// Record an allow verdict at the given combined epoch.
    pub fn record(&self, pid: Pid, obj: ObjId, class: AvcClass, epoch: u64) {
        if !self.enabled() {
            return;
        }
        let mut guard = self.entries.lock();
        let e = &mut *guard;
        if e.len >= DEFAULT_CAPACITY {
            // Evict stale epochs first; purge wholesale as a last resort.
            let mut live = 0;
            e.by_pid.retain(|_, own| {
                own.retain(|_, at| *at == epoch);
                live += own.len();
                !own.is_empty()
            });
            e.len = live;
            if e.len >= DEFAULT_CAPACITY {
                e.by_pid.clear();
                e.len = 0;
            }
        }
        if e.by_pid
            .entry(pid)
            .or_default()
            .insert((obj, class), epoch)
            .is_none()
        {
            e.len += 1;
        }
    }

    /// Drop every cached verdict; returns how many were live.
    pub fn flush(&self) -> usize {
        let mut e = self.entries.lock();
        e.by_pid.clear();
        std::mem::take(&mut e.len)
    }

    /// Drop verdicts for one subject (process exit): O(its own verdicts).
    pub fn drop_pid(&self, pid: Pid) {
        let mut e = self.entries.lock();
        if let Some(own) = e.by_pid.remove(&pid) {
            e.len -= own.len();
        }
    }

    /// Drop verdicts for one object (vnode reclaimed, pipe/socket closed),
    /// for every subject.
    pub fn drop_obj(&self, obj: ObjId) {
        let mut guard = self.entries.lock();
        let Entries { by_pid, len } = &mut *guard;
        for own in by_pid.values_mut() {
            let before = own.len();
            own.retain(|(o, _), _| *o != obj);
            *len -= before - own.len();
        }
    }

    /// Live cached verdicts (tests/diagnostics).
    pub fn entry_count(&self) -> usize {
        self.entries.lock().len
    }

    /// Cached verdicts, live or stale, held for one subject
    /// (tests/diagnostics).
    pub fn entries_for(&self, pid: Pid) -> usize {
        self.entries.lock().by_pid.get(&pid).map_or(0, IdMap::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PipeId, SockDomain, SockId};
    use shill_vfs::NodeId;

    fn vn(n: u64) -> ObjId {
        ObjId::Vnode(NodeId(n))
    }

    #[test]
    fn probe_record_roundtrip() {
        let avc = Avc::new();
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        assert!(avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        // Different class, pid, or object: separate vectors.
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Write, 0));
        assert!(!avc.probe(Pid(2), vn(5), AvcClass::Read, 0));
        assert!(!avc.probe(Pid(1), vn(6), AvcClass::Read, 0));
    }

    #[test]
    fn pipe_and_socket_vectors_are_distinct_objects() {
        let avc = Avc::new();
        avc.record(Pid(1), ObjId::Pipe(PipeId(5)), AvcClass::PipeRead, 0);
        avc.record(Pid(1), ObjId::Socket(SockId(5)), AvcClass::SockSend, 0);
        assert!(avc.probe(Pid(1), ObjId::Pipe(PipeId(5)), AvcClass::PipeRead, 0));
        assert!(avc.probe(Pid(1), ObjId::Socket(SockId(5)), AvcClass::SockSend, 0));
        // A vnode with the same raw id is a different key entirely.
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        avc.drop_obj(ObjId::Pipe(PipeId(5)));
        assert!(!avc.probe(Pid(1), ObjId::Pipe(PipeId(5)), AvcClass::PipeRead, 0));
        assert_eq!(avc.entry_count(), 1);
    }

    #[test]
    fn epoch_bump_invalidates() {
        let avc = Avc::new();
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 1));
        // The stale entry was dropped eagerly.
        assert_eq!(avc.entry_count(), 0);
    }

    #[test]
    fn targeted_drops() {
        let avc = Avc::new();
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        avc.record(Pid(2), vn(5), AvcClass::Read, 0);
        avc.record(Pid(1), vn(6), AvcClass::Stat, 0);
        avc.drop_pid(Pid(1));
        assert_eq!(avc.entry_count(), 1);
        avc.drop_obj(vn(5));
        assert_eq!(avc.entry_count(), 0);
    }

    #[test]
    fn drop_pid_leaves_other_subjects_verdicts() {
        let avc = Avc::new();
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        avc.record(Pid(1), vn(6), AvcClass::Stat, 0);
        avc.record(Pid(2), vn(5), AvcClass::Read, 0);
        avc.record(Pid(3), vn(7), AvcClass::Lookup, 0);
        avc.drop_pid(Pid(1));
        assert_eq!(avc.entry_count(), 2);
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        assert!(avc.probe(Pid(2), vn(5), AvcClass::Read, 0));
        assert!(avc.probe(Pid(3), vn(7), AvcClass::Lookup, 0));
        // Dropping a subject with no verdicts is a no-op.
        avc.drop_pid(Pid(9));
        assert_eq!(avc.entry_count(), 2);
    }

    #[test]
    fn drop_obj_removes_the_object_for_every_subject() {
        let avc = Avc::new();
        for pid in 1..=3 {
            avc.record(Pid(pid), vn(5), AvcClass::Read, 0);
            avc.record(Pid(pid), vn(5), AvcClass::Stat, 0);
            avc.record(Pid(pid), vn(6), AvcClass::Read, 0);
        }
        avc.drop_obj(vn(5));
        assert_eq!(avc.entry_count(), 3);
        for pid in 1..=3 {
            assert!(!avc.probe(Pid(pid), vn(5), AvcClass::Read, 0));
            assert!(!avc.probe(Pid(pid), vn(5), AvcClass::Stat, 0));
            assert!(avc.probe(Pid(pid), vn(6), AvcClass::Read, 0));
        }
    }

    #[test]
    fn capacity_purge_evicts_stale_epochs_before_clearing() {
        let avc = Avc::new();
        // Fill to capacity across many subjects: one verdict at the current
        // epoch, the rest stale.
        avc.record(Pid(1), vn(0), AvcClass::Read, 2);
        for i in 1..DEFAULT_CAPACITY as u64 {
            avc.record(Pid(2 + (i % 64) as u32), vn(i), AvcClass::Read, 1);
        }
        assert_eq!(avc.entry_count(), DEFAULT_CAPACITY);
        // The next record at epoch 2 evicts only the stale verdicts.
        avc.record(Pid(1), vn(1), AvcClass::Stat, 2);
        assert_eq!(avc.entry_count(), 2);
        assert!(avc.probe(Pid(1), vn(0), AvcClass::Read, 2));
        assert!(avc.probe(Pid(1), vn(1), AvcClass::Stat, 2));

        // All live at the current epoch: nothing stale to evict, so the
        // purge clears wholesale and keeps only the new verdict.
        let avc = Avc::new();
        for i in 0..DEFAULT_CAPACITY as u64 {
            avc.record(Pid(1 + (i % 64) as u32), vn(i), AvcClass::Read, 0);
        }
        avc.record(Pid(99), vn(1), AvcClass::Stat, 0);
        assert_eq!(avc.entry_count(), 1);
        assert!(avc.probe(Pid(99), vn(1), AvcClass::Stat, 0));
    }

    #[test]
    fn entry_count_stays_exact_after_probe_evicts_stale_entries() {
        let avc = Avc::new();
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        avc.record(Pid(1), vn(6), AvcClass::Read, 0);
        avc.record(Pid(2), vn(5), AvcClass::Read, 0);
        // Re-recording an existing vector does not grow the count.
        avc.record(Pid(2), vn(5), AvcClass::Read, 0);
        assert_eq!(avc.entry_count(), 3);
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 1));
        assert_eq!(avc.entry_count(), 2);
        // A miss on an absent vector evicts nothing.
        assert!(!avc.probe(Pid(1), vn(7), AvcClass::Read, 1));
        assert_eq!(avc.entry_count(), 2);
        avc.drop_pid(Pid(1));
        assert_eq!(avc.entry_count(), 1);
        assert_eq!(avc.flush(), 1);
        assert_eq!(avc.entry_count(), 0);
    }

    #[test]
    fn disabled_avc_is_inert() {
        let avc = Avc::new();
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        avc.set_enabled(false);
        assert!(!avc.probe(Pid(1), vn(5), AvcClass::Read, 0));
        avc.record(Pid(1), vn(5), AvcClass::Read, 0);
        assert_eq!(avc.entry_count(), 0, "disable flushed and stays empty");
    }

    #[test]
    fn operand_carrying_ops_have_no_class() {
        assert_eq!(avc_class(&VnodeOp::CreateFile("x")), None);
        assert_eq!(avc_class(&VnodeOp::UnlinkFile("x")), None);
        assert_eq!(avc_class(&VnodeOp::RenameTo("x")), None);
        assert_eq!(avc_class(&VnodeOp::Chmod), None);
        assert_eq!(avc_class(&VnodeOp::Truncate), None);
        assert_eq!(avc_class(&VnodeOp::Lookup("x")), Some(AvcClass::Lookup));
        assert_eq!(avc_pipe_class(PipeOp::Read), Some(AvcClass::PipeRead));
        assert_eq!(avc_pipe_class(PipeOp::Write), Some(AvcClass::PipeWrite));
        assert_eq!(avc_socket_class(&SocketOp::Send), Some(AvcClass::SockSend));
        assert_eq!(avc_socket_class(&SocketOp::Recv), Some(AvcClass::SockRecv));
        assert_eq!(avc_socket_class(&SocketOp::Create(SockDomain::Inet)), None);
        assert_eq!(avc_socket_class(&SocketOp::Listen), None);
        assert_eq!(avc_socket_class(&SocketOp::Accept), None);
    }
}
