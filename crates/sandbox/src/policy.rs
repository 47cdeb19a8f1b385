//! The SHILL MAC policy module (paper §3.2).
//!
//! Labels each kernel object with a *privilege map* — "a map from sessions
//! to sets of privileges" — and checks every mediated operation against the
//! invoking process's session. Privileges propagate to derived objects via
//! the `vnode_post_lookup`/`vnode_post_create` hooks, subject to:
//!
//! * **no `..`/`.` propagation** (§3.2.2 "Path traversal"): lookups of
//!   `..` are permitted with `+lookup` but never propagate privileges, and
//!   `.` propagation is refused because it would amplify (a `+lookup with
//!   {+stat}` would otherwise grant `+stat` on the directory itself);
//! * **no privilege amplification** (§3.2.2): a session is never granted
//!   conflicting privilege entries for one object; a propagated entry
//!   replaces the existing one only when it subsumes it.
//!
//! The policy also enforces the coarser MAC granularity the paper reports:
//! to write (or append) a session needs **both** `+write` and `+append`
//! (§3.2.3), because the framework has one write entry point.
//!
//! # Striped state
//!
//! SHILL's capability semantics require per-session label isolation plus a
//! globally ordered revocation epoch — nothing couples two sessions' label
//! maps. The state is therefore **striped by session**: labels are kept
//! session-major (`SessionId → ObjId → CapPrivs`) inside N lock stripes
//! keyed by `SessionId`, so a session's enter, label merges, checks, and
//! reclaim scrub touch only its own stripe. A process's session is its
//! kernel label ([`Kernel::set_label`], read from [`MacCtx::label`]), so
//! the policy keeps no pid-keyed state; being label-scoped, it is never
//! consulted for a process outside every session. The revocation epoch
//! stays one global `AtomicU64` (the cross-shard/cross-stripe invalidation
//! broadcast), the audit log sits behind its own mutex, and every counter
//! is an atomic — there is **no** global lock left on any label path.
//! Stripe locks are leaves: no other lock is ever acquired while one is
//! held (log pushes happen after the stripe guard drops). The stripe count
//! is [`DEFAULT_POLICY_STRIPES`]; [`ShillPolicy::with_stripes`] picks
//! another.

use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};

use crate::sync::{Mutex, RwLock};

use shill_cap::{pipe_op_priv, socket_op_priv, vnode_op_priv, CapPrivs, Priv, PrivSet};
use shill_kernel::SockDomain;
use shill_kernel::{
    Kernel, MacCtx, MacPolicy, ObjId, Pid, PipeOp, ProcOp, SocketOp, SystemOp, VnodeOp,
};
use shill_kernel::{TracePlane, TraceScope, TraceSite};
use shill_vfs::{Errno, FileType, IdMap, NodeId, SysResult};

use crate::log::{LogEvent, SandboxLog};
use crate::session::{Session, SessionId};

/// Default stripe count: enough to keep sessions of a handful of kernel
/// shards on distinct locks without bloating the tiny single-session case.
pub const DEFAULT_POLICY_STRIPES: usize = 8;

/// Upper bound on the stripe count (mirrors the kernel's shard clamp).
pub const MAX_POLICY_STRIPES: usize = 1024;

/// Counters exposed for tests and the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    pub sessions_created: u64,
    pub grants: u64,
    pub propagations: u64,
    pub denials: u64,
    pub checks: u64,
    /// Label entries scrubbed during session reclamation (the cleanup cost
    /// the paper attributes Find's overhead to).
    pub scrubbed: u64,
    /// Cache-epoch bumps: authority-shrinking events (session enter,
    /// session reclamation) that invalidated the kernel's access-vector
    /// cache.
    pub epoch_bumps: u64,
    /// Label-stripe acquisitions whose `try_lock` probe found the stripe
    /// held by another thread. Zero for single-threaded and perfectly
    /// shard-affine workloads; growth means sessions are colliding on a
    /// stripe (build the policy [`ShillPolicy::with_stripes`] a larger
    /// count).
    pub stripe_contention: u64,
}

/// Per-policy atomic counters ([`PolicyStats`] is their snapshot).
#[derive(Debug, Default)]
struct PolicyCounters {
    sessions_created: AtomicU64,
    grants: AtomicU64,
    propagations: AtomicU64,
    denials: AtomicU64,
    checks: AtomicU64,
    scrubbed: AtomicU64,
    epoch_bumps: AtomicU64,
    stripe_contention: AtomicU64,
    /// Watermark of `stripe_contention` already drained to the kernel via
    /// [`MacPolicy::take_contention`].
    contention_drained: AtomicU64,
}

/// One session's state inside its stripe: metadata plus its session-major
/// label map (`ObjId → privileges`). Reclaiming the session drops the whole
/// struct — the scrub is `O(own labels)` and touches no other stripe.
struct SessionState {
    meta: Session,
    labels: IdMap<ObjId, Arc<CapPrivs>>,
    /// Child sessions already reclaimed: their parent link, which their
    /// zombies still need (a zombie keeps its label until it is reaped, and
    /// `waitpid` checks that it descends from the waiter's session). Kept
    /// until this session is itself reclaimed.
    reclaimed_children: Vec<SessionId>,
}

impl SessionState {
    fn new(id: SessionId, parent: Option<SessionId>) -> SessionState {
        SessionState {
            meta: Session::new(id, parent),
            labels: IdMap::default(),
            reclaimed_children: Vec::new(),
        }
    }
}

/// One lock stripe of session-major state.
#[derive(Default)]
struct Stripe {
    sessions: IdMap<SessionId, SessionState>,
}

/// The session a process label names: `ShillPolicy` stores the session id
/// itself, and ids start at 1.
fn session(label: Option<NonZeroU64>) -> Option<SessionId> {
    label.map(|l| SessionId(l.get()))
}

/// Merge a propagated/granted entry under the no-amplification rule:
/// keep the existing entry unless the new one subsumes it.
fn merge_label(labels: &mut IdMap<ObjId, Arc<CapPrivs>>, obj: ObjId, new: Arc<CapPrivs>) -> bool {
    match labels.get(&obj) {
        // Re-propagation of the very same description (hot path: every
        // repeated lookup re-derives the same `Arc` from the parent
        // label) — nothing can change, skip the structural compare.
        Some(existing) if Arc::ptr_eq(existing, &new) => false,
        None => {
            labels.insert(obj, new);
            true
        }
        Some(existing) if existing.is_subset(&new) => {
            labels.insert(obj, new);
            true
        }
        Some(_) => false, // conflicting or weaker: refuse (conservative)
    }
}

/// The SHILL sandbox policy. Register with
/// [`shill_kernel::Kernel::register_policy`]; create sessions around `exec`
/// with [`ShillPolicy::shill_init`] / [`ShillPolicy::shill_grant`] /
/// [`ShillPolicy::shill_enter`].
pub struct ShillPolicy {
    /// Session-major label stripes, keyed by `SessionId`. Leaf locks: MAC
    /// hooks take exactly one (the acting session's), never two at once,
    /// and acquire nothing else while holding one.
    stripes: Vec<RwLock<Stripe>>,
    /// Audit log behind its **own** lock (never nested with a stripe lock):
    /// logging a denial cannot block a label merge on any stripe, and
    /// log-only operations (`set_log_enabled`, `clear_log`) contend with
    /// nothing but other log accesses.
    log: Mutex<SandboxLog>,
    /// Verbose-logging gate mirrored outside the log lock so gated pushes
    /// skip the lock entirely when logging is off (the common case).
    log_enabled: AtomicBool,
    /// Session id allocator.
    next_session: AtomicU64,
    /// Cache epoch for the kernel's access-vector cache: bumped whenever
    /// this policy's authority can *shrink* (a session being entered turns
    /// permissive verdicts restrictive; a session being reclaimed scrubs
    /// labels). A lone global atomic — the cross-shard, cross-stripe
    /// invalidation broadcast — read by every shard's hot path without
    /// any lock.
    epoch: AtomicU64,
    counters: PolicyCounters,
    /// Kernel tracing plane, attached via [`MacPolicy::attach_trace`] when
    /// the owning kernel arms tracing. Behind its own mutex (only touched
    /// on attach and on the already-slow contended-stripe path), with
    /// [`ShillPolicy::trace_armed`] mirroring "is a plane attached" so the
    /// uncontended hot path pays one relaxed load and no lock.
    trace: Mutex<Option<Arc<TracePlane>>>,
    /// Lock-free mirror of `trace.is_some()`.
    trace_armed: AtomicBool,
}

impl Default for ShillPolicy {
    fn default() -> ShillPolicy {
        ShillPolicy::with_stripes(DEFAULT_POLICY_STRIPES)
    }
}

impl ShillPolicy {
    /// A policy with [`DEFAULT_POLICY_STRIPES`] stripes.
    pub fn new() -> Arc<ShillPolicy> {
        Arc::new(ShillPolicy::default())
    }

    /// Explicit stripe count (tests and benches; clamped to at least 1).
    pub fn with_stripes(stripes: usize) -> ShillPolicy {
        let n = stripes.clamp(1, MAX_POLICY_STRIPES);
        ShillPolicy {
            stripes: (0..n).map(|_| RwLock::new(Stripe::default())).collect(),
            log: Mutex::new(SandboxLog::default()),
            log_enabled: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            counters: PolicyCounters::default(),
            trace: Mutex::new(None),
            trace_armed: AtomicBool::new(false),
        }
    }

    /// Which stripe a session's state lives on (tests use this to place
    /// sessions on distinct stripes).
    pub fn stripe_of(&self, session: SessionId) -> usize {
        (session.0 as usize) % self.stripes.len()
    }

    // --- striped lock plumbing --------------------------------------------

    fn count_contended(&self) {
        self.counters
            .stripe_contention
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Open a `stripe` trace span covering a blocking stripe-lock wait.
    /// Only reached on the contended path (the `try_*` probe already
    /// failed), so taking the trace mutex here costs nothing on the hot
    /// path; the atomic mirror skips even that when no plane is attached.
    /// `arg` is the stripe index the waiter blocked on.
    fn stripe_wait_span(&self, arg: u64) -> Option<TraceScope> {
        if !self.trace_armed.load(Ordering::Relaxed) {
            return None;
        }
        let plane = self.trace.lock().clone()?;
        plane.span(TraceSite::Stripe, 0, arg)
    }

    fn stripe_read(&self, sid: SessionId) -> RwLockReadGuard<'_, Stripe> {
        let idx = self.stripe_of(sid);
        let lock = &self.stripes[idx];
        match lock.try_read() {
            Some(g) => g,
            None => {
                self.count_contended();
                let _wait = self.stripe_wait_span(idx as u64);
                lock.read()
            }
        }
    }

    fn stripe_write(&self, sid: SessionId) -> RwLockWriteGuard<'_, Stripe> {
        let idx = self.stripe_of(sid);
        let lock = &self.stripes[idx];
        match lock.try_write() {
            Some(g) => g,
            None => {
                self.count_contended();
                let _wait = self.stripe_wait_span(idx as u64);
                lock.write()
            }
        }
    }

    /// Push a verbose (gated) log event; the atomic gate keeps the log
    /// lock untouched when logging is off.
    fn log_verbose(&self, event: LogEvent) {
        if self.log_enabled.load(Ordering::Relaxed) {
            self.log.lock().push(event);
        }
    }

    /// Push an always-recorded event (denials, debug auto-grants).
    fn log_always(&self, event: LogEvent) {
        self.log.lock().push_always(event);
    }

    /// The session a label names, if that session is *entered* — only
    /// entered sessions are restricted (§3.2.1).
    fn entered(&self, label: Option<NonZeroU64>) -> Option<SessionId> {
        let sid = session(label)?;
        let st = self.stripe_read(sid);
        match st.sessions.get(&sid) {
            Some(s) if s.meta.entered => Some(sid),
            _ => None,
        }
    }

    /// Does `candidate` equal or descend from `ancestor`? Walks the parent
    /// chain one stripe-read at a time — never two stripe locks at once.
    fn descends(&self, candidate: SessionId, ancestor: SessionId) -> bool {
        let mut cur = Some(candidate);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.parent_session(c);
        }
        false
    }

    /// A session's parent. A reclaimed session's link lives on in its
    /// parent's `reclaimed_children`, found by sweeping the stripes one read
    /// at a time: only a process check on a zombie whose session is gone
    /// pays that.
    fn parent_session(&self, sid: SessionId) -> Option<SessionId> {
        if let Some(s) = self.stripe_read(sid).sessions.get(&sid) {
            return s.meta.parent;
        }
        self.stripes.iter().find_map(|stripe| {
            stripe
                .read()
                .sessions
                .values()
                .find(|s| s.reclaimed_children.contains(&sid))
                .map(|s| s.meta.id)
        })
    }

    /// Check a privilege against the session's own label map, applying
    /// debug-mode auto-grant. The warm path is a stripe **read**; only a
    /// debug auto-grant upgrades to the stripe's write side. Denials are
    /// logged after the stripe guard drops (stripe locks stay leaves).
    fn check_priv(&self, pid: Pid, sid: SessionId, obj: ObjId, needed: Priv) -> SysResult<()> {
        let debug = {
            let st = self.stripe_read(sid);
            let Some(s) = st.sessions.get(&sid) else {
                return Ok(()); // session gone: unrestricted
            };
            if !s.meta.entered {
                return Ok(());
            }
            self.counters.checks.fetch_add(1, Ordering::Relaxed);
            if s.labels
                .get(&obj)
                .map(|p| p.allows(needed))
                .unwrap_or(false)
            {
                return Ok(());
            }
            s.meta.debug
        };
        if debug {
            // §3.2.2: debugging mode "automatically grants the necessary
            // privileges if an operation would fail".
            {
                let mut st = self.stripe_write(sid);
                let Some(s) = st.sessions.get_mut(&sid) else {
                    return Ok(());
                };
                if !s.meta.entered {
                    return Ok(());
                }
                let base = s
                    .labels
                    .get(&obj)
                    .map(|p| (**p).clone())
                    .unwrap_or_else(CapPrivs::none);
                let mut privs = base.privs;
                privs.insert(needed);
                s.labels.insert(
                    obj,
                    Arc::new(CapPrivs {
                        privs,
                        modifiers: base.modifiers,
                    }),
                );
            }
            self.log_always(LogEvent::DebugAutoGrant {
                session: sid,
                pid,
                obj,
                granted: needed,
            });
            return Ok(());
        }
        self.counters.denials.fetch_add(1, Ordering::Relaxed);
        self.log_always(LogEvent::Denied {
            session: sid,
            pid,
            obj,
            needed,
        });
        Err(Errno::EACCES)
    }

    // --- the module's system calls (§3.2.1) -------------------------------

    /// `shill_init`: create a session and move `pid` into it by setting the
    /// process's kernel label. If the process is already in a session the
    /// new one is its child and can hold at most the parent's privileges
    /// (hierarchical attenuation); the process leaves the parent session,
    /// which is reclaimed if that was its last process. `ESRCH` if `pid`
    /// is not in `k`'s process table.
    pub fn shill_init(&self, k: &mut Kernel, pid: Pid) -> SysResult<SessionId> {
        let parent = session(k.process(pid)?.label());
        let sid = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed) + 1);
        // Session state first, label second: a process never carries a
        // session whose stripe entry does not exist yet.
        self.stripe_write(sid)
            .sessions
            .insert(sid, SessionState::new(sid, parent));
        k.set_label(pid, NonZeroU64::new(sid.0))?;
        if let Some(parent) = parent {
            self.release(parent);
        }
        self.counters
            .sessions_created
            .fetch_add(1, Ordering::Relaxed);
        self.log_verbose(LogEvent::SessionCreated {
            session: sid,
            parent,
        });
        Ok(sid)
    }

    /// Make room in `session`'s label map for `additional` more labels, so
    /// populating it does not grow the map step by step.
    pub fn reserve_labels(&self, session: SessionId, additional: usize) -> SysResult<()> {
        let mut st = self.stripe_write(session);
        let s = st.sessions.get_mut(&session).ok_or(Errno::EINVAL)?;
        s.labels.reserve(additional);
        Ok(())
    }

    /// `shill_grant`: give `session` privileges on a kernel object.
    /// Only possible before `shill_enter`; a granter inside an entered
    /// session (its label in `k`) can only attenuate (grant a subset of
    /// what it holds).
    pub fn shill_grant(
        &self,
        k: &Kernel,
        granter: Pid,
        session: SessionId,
        obj: ObjId,
        privs: Arc<CapPrivs>,
    ) -> SysResult<()> {
        {
            let st = self.stripe_read(session);
            let s = st.sessions.get(&session).ok_or(Errno::EINVAL)?;
            if s.meta.entered {
                return Err(Errno::EINVAL);
            }
        }
        // Attenuation snapshot from the granter's (possibly different)
        // stripe — taken and released before the target stripe is locked,
        // so no two stripe locks are ever held together.
        if let Some(gsid) = self.entered(k.process(granter)?.label()) {
            let held = self
                .privs_on(gsid, obj)
                .unwrap_or_else(|| Arc::new(CapPrivs::none()));
            if !privs.is_subset(&held) {
                return Err(Errno::EACCES);
            }
        }
        // Formatting the description costs more than the grant itself, so
        // it is done only for the verbose log.
        let desc = self
            .log_enabled
            .load(Ordering::Relaxed)
            .then(|| privs.to_string());
        {
            let mut st = self.stripe_write(session);
            let s = st.sessions.get_mut(&session).ok_or(Errno::EINVAL)?;
            if s.meta.entered {
                return Err(Errno::EINVAL); // raced with shill_enter
            }
            merge_label(&mut s.labels, obj, privs);
        }
        self.counters.grants.fetch_add(1, Ordering::Relaxed);
        if let Some(privs) = desc {
            self.log_verbose(LogEvent::Grant {
                session,
                obj,
                privs,
                propagated: false,
            });
        }
        Ok(())
    }

    /// Grant a socket-factory capability: session-scoped socket privileges.
    pub fn shill_grant_socket_factory(
        &self,
        k: &Kernel,
        granter: Pid,
        session: SessionId,
        privs: PrivSet,
    ) -> SysResult<()> {
        if let Some(gsid) = self.entered(k.process(granter)?.label()) {
            let held = {
                self.stripe_read(gsid)
                    .sessions
                    .get(&gsid)
                    .map(|s| s.meta.socket_privs)
                    .unwrap_or(PrivSet::EMPTY)
            };
            if !privs.is_subset(&held) {
                return Err(Errno::EACCES);
            }
        }
        {
            let mut st = self.stripe_write(session);
            let s = st.sessions.get_mut(&session).ok_or(Errno::EINVAL)?;
            if s.meta.entered {
                return Err(Errno::EINVAL);
            }
            s.meta.socket_privs = s.meta.socket_privs.union(privs);
        }
        self.counters.grants.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Grant a pipe-factory capability.
    pub fn shill_grant_pipe_factory(&self, _granter: Pid, session: SessionId) -> SysResult<()> {
        let mut st = self.stripe_write(session);
        let s = st.sessions.get_mut(&session).ok_or(Errno::EINVAL)?;
        if s.meta.entered {
            return Err(Errno::EINVAL);
        }
        s.meta.pipe_factory = true;
        Ok(())
    }

    /// `shill_enter`: seal the session; from now on its processes are
    /// restricted to the granted capabilities. Touches only the session's
    /// stripe and the epoch, never a kernel.
    pub fn shill_enter(&self, sid: SessionId) -> SysResult<()> {
        let epoch = {
            let mut st = self.stripe_write(sid);
            let s = st.sessions.get_mut(&sid).ok_or(Errno::EINVAL)?;
            if s.meta.entered {
                return Err(Errno::EINVAL);
            }
            s.meta.entered = true;
            // Entering flips this session's processes from unrestricted to
            // capability-checked: verdicts cached before the flip are void.
            // The bump happens inside the stripe hold so the flip and the
            // broadcast publish together, exactly as the single-lock form
            // did (an atomic increment, not a lock acquisition — the
            // stripe stays a leaf).
            let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
            s.meta.entered_epoch = epoch;
            epoch
        };
        self.counters.epoch_bumps.fetch_add(1, Ordering::Relaxed);
        self.log_verbose(LogEvent::SessionEntered { session: sid });
        self.log_verbose(LogEvent::CacheEpochBump {
            session: sid,
            epoch,
        });
        Ok(())
    }

    // --- administration ----------------------------------------------------

    /// Put a session in debug mode (§3.2.2).
    pub fn set_debug(&self, session: SessionId, debug: bool) -> SysResult<()> {
        self.stripe_write(session)
            .sessions
            .get_mut(&session)
            .ok_or(Errno::EINVAL)?
            .meta
            .debug = debug;
        Ok(())
    }

    /// Enable verbose grant logging. Touches only the log lock and its
    /// atomic gate — never a label stripe.
    pub fn set_log_enabled(&self, enabled: bool) {
        self.log_enabled.store(enabled, Ordering::Relaxed);
        self.log.lock().enabled = enabled;
    }

    /// Re-bound the audit-log ring (default [`crate::log::DEFAULT_LOG_CAP`],
    /// env `SHILL_LOG_CAP`). Dropped-oldest overflow is surfaced through
    /// the kernel's `log_dropped` telemetry counter.
    pub fn set_log_capacity(&self, cap: usize) {
        self.log.lock().set_capacity(cap);
    }

    /// Snapshot of the audit log.
    pub fn log_events(&self) -> Vec<LogEvent> {
        self.log.lock().events().cloned().collect()
    }

    pub fn clear_log(&self) {
        self.log.lock().clear();
    }

    pub fn stats(&self) -> PolicyStats {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PolicyStats {
            sessions_created: g(&self.counters.sessions_created),
            grants: g(&self.counters.grants),
            propagations: g(&self.counters.propagations),
            denials: g(&self.counters.denials),
            checks: g(&self.counters.checks),
            scrubbed: g(&self.counters.scrubbed),
            epoch_bumps: g(&self.counters.epoch_bumps),
            stripe_contention: g(&self.counters.stripe_contention),
        }
    }

    /// The session a process of `k` belongs to (entered or not).
    pub fn session_of(&self, k: &Kernel, pid: Pid) -> Option<SessionId> {
        session(k.process(pid).ok()?.label())
    }

    /// A process left `sid` (exit, or a move into a child session): drop
    /// the session's live count, and reclaim it when that reaches zero.
    fn release(&self, sid: SessionId) {
        let reclaimed = {
            let mut st = self.stripe_write(sid);
            let reclaim = match st.sessions.get_mut(&sid) {
                Some(s) => {
                    s.meta.live_procs = s.meta.live_procs.saturating_sub(1);
                    s.meta.live_procs == 0
                }
                None => false,
            };
            if reclaim {
                // Scrub this session's labels by dropping its own map —
                // O(own labels), touching no other session and no other
                // stripe. This is the (here synchronous) analogue of the
                // kernel's asynchronous session cleanup the paper blames
                // for part of Find's overhead (§4.2).
                let (scrubbed, parent) = st
                    .sessions
                    .remove(&sid)
                    .map(|ss| (ss.labels.len(), ss.meta.parent))
                    .unwrap_or((0, None));
                // Conservative: the scrub removed label entries, so nothing
                // cached against this policy may survive it. Bumped inside
                // the stripe hold so scrub and broadcast publish together.
                let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
                Some((scrubbed, parent, epoch))
            } else {
                None
            }
        };
        if let Some((scrubbed, parent, epoch)) = reclaimed {
            // The parent session, while it lives, keeps the link for this
            // session's zombies.
            if let Some(p) = parent {
                if let Some(ps) = self.stripe_write(p).sessions.get_mut(&p) {
                    ps.reclaimed_children.push(sid);
                }
            }
            self.counters
                .scrubbed
                .fetch_add(scrubbed as u64, Ordering::Relaxed);
            self.counters.epoch_bumps.fetch_add(1, Ordering::Relaxed);
            self.log_verbose(LogEvent::SessionReclaimed {
                session: sid,
                labels_scrubbed: scrubbed,
            });
            self.log_verbose(LogEvent::CacheEpochBump {
                session: sid,
                epoch,
            });
        }
    }

    /// The privileges a session holds on an object (tests/diagnostics).
    pub fn privs_on(&self, session: SessionId, obj: ObjId) -> Option<Arc<CapPrivs>> {
        self.stripe_read(session)
            .sessions
            .get(&session)?
            .labels
            .get(&obj)
            .cloned()
    }

    /// Number of live label entries (tests: session scrubbing).
    pub fn label_entries(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.read()
                    .sessions
                    .values()
                    .map(|ss| ss.labels.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

impl MacPolicy for ShillPolicy {
    fn name(&self) -> &str {
        "shill"
    }

    /// The SHILL policy opts into the kernel's access-vector cache: its
    /// vnode verdicts depend only on (session-of-pid, vnode, privilege
    /// class), and between epoch bumps authority only grows (privilege
    /// propagation and debug auto-grants add entries, never remove them).
    fn decisions_cacheable(&self) -> bool {
        true
    }

    /// Only a process in a session is restricted, and every hook ignores a
    /// process without one.
    fn label_scoped(&self) -> bool {
        true
    }

    fn cache_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Drain contended stripe acquisitions since the last drain; the
    /// kernel books them as `policy_stripe_contention` at snapshot time.
    fn take_contention(&self) -> u64 {
        let cur = self.counters.stripe_contention.load(Ordering::Relaxed);
        let prev = self
            .counters
            .contention_drained
            .swap(cur, Ordering::Relaxed);
        cur.saturating_sub(prev)
    }

    /// Accept the kernel's tracing plane; contended stripe waits start
    /// emitting `stripe` spans into it.
    fn attach_trace(&self, plane: &Arc<TracePlane>) {
        *self.trace.lock() = Some(Arc::clone(plane));
        self.trace_armed.store(true, Ordering::Relaxed);
    }

    /// Drain audit-ring overflow drops; the kernel books them as
    /// `log_dropped` at snapshot time.
    fn take_log_dropped(&self) -> u64 {
        self.log.lock().take_dropped()
    }

    fn vnode_check(&self, ctx: MacCtx, node: NodeId, op: &VnodeOp<'_>) -> SysResult<()> {
        let Some(sid) = session(ctx.label) else {
            return Ok(());
        };
        let obj = ObjId::Vnode(node);
        let needed = vnode_op_priv(op);
        if needed == Priv::Write {
            // §3.2.3: single write entry point ⇒ require both privileges.
            self.check_priv(ctx.pid, sid, obj, Priv::Write)?;
            self.check_priv(ctx.pid, sid, obj, Priv::Append)?;
            return Ok(());
        }
        self.check_priv(ctx.pid, sid, obj, needed)
    }

    fn vnode_post_lookup(&self, ctx: MacCtx, dir: NodeId, name: &str, child: NodeId) {
        // §3.2.2: lookups of ".." are allowed but privileges are "only
        // propagate[d] ... when the directory entry requested is not '..'",
        // and "." is excluded too "since this can lead to privilege
        // amplification".
        if name == ".." || name == "." {
            return;
        }
        let Some(sid) = session(ctx.label) else {
            return;
        };
        // Warm fast path under the stripe's read lock: repeated lookups
        // re-derive the same `Arc` from the parent label (`derived` clones
        // the modifier Arc or the parent itself), so when the child already
        // holds that exact entry the merge is a guaranteed no-op — no
        // write lock, and sessions on other stripes were never in play.
        // Every other case (no entry yet, structural change, races with a
        // concurrent mutation) re-runs the full logic under the stripe's
        // write lock, whose outcome is authoritative.
        {
            let st = self.stripe_read(sid);
            let Some(s) = st.sessions.get(&sid) else {
                return;
            };
            if !s.meta.entered {
                return;
            }
            let Some(parent_privs) = s.labels.get(&ObjId::Vnode(dir)) else {
                return;
            };
            if !parent_privs.allows(Priv::Lookup) {
                return;
            }
            let derived = parent_privs.derived(Priv::Lookup);
            if let Some(existing) = s.labels.get(&ObjId::Vnode(child)) {
                if Arc::ptr_eq(existing, &derived) {
                    return;
                }
            }
        }
        let mut st = self.stripe_write(sid);
        let Some(s) = st.sessions.get_mut(&sid) else {
            return;
        };
        if !s.meta.entered {
            return;
        }
        let Some(parent_privs) = s.labels.get(&ObjId::Vnode(dir)).cloned() else {
            return;
        };
        if !parent_privs.allows(Priv::Lookup) {
            return;
        }
        let derived = parent_privs.derived(Priv::Lookup);
        if merge_label(&mut s.labels, ObjId::Vnode(child), derived) {
            self.counters.propagations.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn vnode_post_create(
        &self,
        ctx: MacCtx,
        dir: NodeId,
        _name: &str,
        child: NodeId,
        ftype: FileType,
    ) {
        let Some(sid) = session(ctx.label) else {
            return;
        };
        let mut st = self.stripe_write(sid);
        let Some(s) = st.sessions.get_mut(&sid) else {
            return;
        };
        if !s.meta.entered {
            return;
        }
        let Some(parent_privs) = s.labels.get(&ObjId::Vnode(dir)).cloned() else {
            return;
        };
        let via = match ftype {
            FileType::Directory => Priv::CreateDir,
            FileType::Symlink => Priv::CreateSymlink,
            _ => Priv::CreateFile,
        };
        if !parent_privs.allows(via) {
            return;
        }
        let derived = parent_privs.derived(via);
        if merge_label(&mut s.labels, ObjId::Vnode(child), derived) {
            self.counters.propagations.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn batch_complete(
        &self,
        ctx: MacCtx,
        outcomes: &[Option<Errno>],
        dag: &shill_kernel::BatchDag,
        wave_ns: &[u64],
    ) {
        // Span events are verbose-gated; skip everything (including the
        // session probe) when logging is off.
        if !self.log_enabled.load(Ordering::Relaxed) {
            return;
        }
        let Some(sid) = self.entered(ctx.label) else {
            return;
        };
        // One span per batch (verbose log level, like grants): the
        // per-entry denials were already recorded individually by the
        // checks themselves. `ECANCELED` slots are dependency-poisoning
        // cancellations (abort cones, missing slot inputs) — those entries
        // never executed, so the span books them separately from real
        // failures (nothing else in the kernel produces that errno). The
        // per-wave split applies the same accounting to each dependency
        // wave, and is identical between the one-shot and the stepped
        // execution of the same batch.
        let split = |slots: &[usize]| {
            let mut wave = crate::log::BatchWaveAudit::default();
            for &slot in slots {
                match outcomes.get(slot) {
                    Some(Some(Errno::ECANCELED)) => wave.cancelled += 1,
                    Some(Some(_)) => {
                        wave.executed += 1;
                        wave.failed += 1;
                    }
                    _ => wave.executed += 1,
                }
            }
            wave
        };
        let waves: Vec<crate::log::BatchWaveAudit> = dag
            .waves()
            .enumerate()
            .map(|(i, w)| {
                let mut audit = split(w);
                // Timing is measured only with the trace plane's wave site
                // armed; 0 otherwise. The differential oracle never
                // compares it.
                audit.wave_ns = wave_ns.get(i).copied().unwrap_or(0);
                audit
            })
            .collect();
        let cancelled: usize = waves.iter().map(|w| w.cancelled).sum();
        let failed: usize = waves.iter().map(|w| w.failed).sum();
        self.log_verbose(LogEvent::BatchSpan {
            session: sid,
            pid: ctx.pid,
            entries: outcomes.len(),
            executed: outcomes.len() - cancelled,
            failed,
            cancelled,
            outcomes: outcomes.to_vec(),
            waves,
        });
    }

    fn pipe_post_create(&self, ctx: MacCtx, pipe: ObjId) {
        let Some(sid) = session(ctx.label) else {
            return;
        };
        let mut st = self.stripe_write(sid);
        let Some(s) = st.sessions.get_mut(&sid) else {
            return;
        };
        if !s.meta.entered {
            return;
        }
        // A pipe created inside the sandbox is fully usable by its session.
        merge_label(&mut s.labels, pipe, Arc::new(CapPrivs::full()));
    }

    fn socket_post_create(&self, ctx: MacCtx, sock: ObjId) {
        let Some(sid) = session(ctx.label) else {
            return;
        };
        let mut st = self.stripe_write(sid);
        let Some(s) = st.sessions.get_mut(&sid) else {
            return;
        };
        if !s.meta.entered {
            return;
        }
        let privs = s.meta.socket_privs;
        if !privs.is_empty() {
            merge_label(&mut s.labels, sock, Arc::new(CapPrivs::of(privs)));
        }
    }

    fn pipe_check_create(&self, ctx: MacCtx) -> SysResult<()> {
        let Some(sid) = session(ctx.label) else {
            return Ok(());
        };
        // §3.1.1: creating pipes is the right a pipe factory grants.
        let denied = {
            let st = self.stripe_read(sid);
            st.sessions
                .get(&sid)
                .is_some_and(|s| s.meta.entered && !s.meta.pipe_factory)
        };
        if !denied {
            return Ok(());
        }
        self.counters.denials.fetch_add(1, Ordering::Relaxed);
        Err(Errno::EACCES)
    }

    fn pipe_check(&self, ctx: MacCtx, pipe: ObjId, op: PipeOp) -> SysResult<()> {
        let Some(sid) = session(ctx.label) else {
            return Ok(());
        };
        let needed = pipe_op_priv(op);
        if needed == Priv::Write {
            self.check_priv(ctx.pid, sid, pipe, Priv::Write)?;
            self.check_priv(ctx.pid, sid, pipe, Priv::Append)?;
            return Ok(());
        }
        self.check_priv(ctx.pid, sid, pipe, needed)
    }

    fn socket_check(&self, ctx: MacCtx, sock: ObjId, op: &SocketOp) -> SysResult<()> {
        let Some(sid) = session(ctx.label) else {
            return Ok(());
        };
        if let SocketOp::Create(domain) = op {
            enum Verdict {
                Unrestricted,
                Allowed,
                DeniedOther,
                DeniedFactory,
            }
            let v = {
                let st = self.stripe_read(sid);
                match st.sessions.get(&sid) {
                    Some(s) if s.meta.entered => {
                        // Figure 7: "Sockets (other): Denied" — even with a
                        // factory.
                        if *domain == SockDomain::Other {
                            Verdict::DeniedOther
                        } else if s.meta.socket_privs.contains(Priv::SockCreate) {
                            Verdict::Allowed
                        } else {
                            Verdict::DeniedFactory
                        }
                    }
                    _ => Verdict::Unrestricted,
                }
            };
            return match v {
                Verdict::Unrestricted | Verdict::Allowed => Ok(()),
                Verdict::DeniedOther => {
                    self.counters.denials.fetch_add(1, Ordering::Relaxed);
                    Err(Errno::EACCES)
                }
                Verdict::DeniedFactory => {
                    self.counters.denials.fetch_add(1, Ordering::Relaxed);
                    self.log_always(LogEvent::Denied {
                        session: sid,
                        pid: ctx.pid,
                        obj: sock,
                        needed: Priv::SockCreate,
                    });
                    Err(Errno::EACCES)
                }
            };
        }
        self.check_priv(ctx.pid, sid, sock, socket_op_priv(op))
    }

    fn proc_check(&self, ctx: MacCtx, target: MacCtx, _op: ProcOp) -> SysResult<()> {
        let Some(actor) = self.entered(ctx.label) else {
            return Ok(());
        };
        // §3.2.2 "Process interaction": only processes in the same session
        // or a descendant session.
        let ok = match session(target.label) {
            Some(t) => self.descends(t, actor),
            None => false,
        };
        if ok {
            Ok(())
        } else {
            self.counters.denials.fetch_add(1, Ordering::Relaxed);
            Err(Errno::EACCES)
        }
    }

    fn system_check(&self, ctx: MacCtx, op: &SystemOp) -> SysResult<()> {
        if self.entered(ctx.label).is_none() {
            return Ok(());
        }
        // Paper Figure 7: sysctl read-only; kenv, kernel modules, POSIX IPC
        // and System V IPC all denied.
        match op {
            SystemOp::SysctlRead(_) => Ok(()),
            SystemOp::SysctlWrite(_)
            | SystemOp::KernelEnv
            | SystemOp::KernelModule
            | SystemOp::PosixIpc
            | SystemOp::SysvIpc => {
                self.counters.denials.fetch_add(1, Ordering::Relaxed);
                Err(Errno::EACCES)
            }
        }
    }

    fn vnode_destroy(&self, node: NodeId) {
        // Labels are session-major, so an object-keyed scrub sweeps the
        // stripes one at a time (never holding two). Object ids are never
        // reused (per-shard monotone allocators with disjoint strides), so
        // this is garbage collection, not a correctness fence.
        let obj = ObjId::Vnode(node);
        for stripe in &self.stripes {
            let mut st = stripe.write();
            for ss in st.sessions.values_mut() {
                ss.labels.remove(&obj);
            }
        }
    }

    /// §3.2.1: spawned processes join the parent's session by default —
    /// the kernel copied the label; the session counts one more process.
    fn proc_fork(&self, _parent: Pid, child: MacCtx) {
        let Some(sid) = session(child.label) else {
            return;
        };
        if let Some(s) = self.stripe_write(sid).sessions.get_mut(&sid) {
            s.meta.live_procs += 1;
        }
    }

    /// The exit drops the session's live count, reclaiming it at zero. The
    /// zombie keeps its label until it is reaped, so the parent's
    /// `waitpid` still finds its session (§3.2.2).
    fn proc_exit(&self, ctx: MacCtx) {
        if let Some(sid) = session(ctx.label) {
            self.release(sid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_vfs::Cred;

    /// A kernel with the policy loaded and one unlabelled user process.
    fn setup() -> (Kernel, Arc<ShillPolicy>, Pid) {
        let mut k = Kernel::new();
        let p = ShillPolicy::new();
        k.register_policy(p.clone());
        let pid = k.spawn_user(Cred::user(100));
        (k, p, pid)
    }

    fn ctx(k: &Kernel, pid: Pid) -> MacCtx {
        k.process(pid).unwrap().mac_ctx()
    }

    /// Grant `privs` on vnode `node` to `sid`, from unlabelled init.
    fn grant(
        p: &ShillPolicy,
        k: &Kernel,
        sid: SessionId,
        node: u64,
        privs: Arc<CapPrivs>,
    ) -> SysResult<()> {
        p.shill_grant(k, Pid(1), sid, ObjId::Vnode(NodeId(node)), privs)
    }

    fn caps(privs: &[Priv]) -> Arc<CapPrivs> {
        Arc::new(CapPrivs::of(PrivSet::of(privs)))
    }

    #[test]
    fn unsandboxed_process_is_unrestricted() {
        let (k, p, pid) = setup();
        let c = ctx(&k, pid);
        assert!(p.vnode_check(c, NodeId(5), &VnodeOp::Read).is_ok());
    }

    #[test]
    fn unentered_session_is_unrestricted() {
        let (mut k, p, pid) = setup();
        p.shill_init(&mut k, pid).unwrap();
        let c = ctx(&k, pid);
        assert!(p.vnode_check(c, NodeId(5), &VnodeOp::Read).is_ok());
    }

    #[test]
    fn entered_session_requires_privileges() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        grant(&p, &k, sid, 5, caps(&[Priv::Read])).unwrap();
        p.shill_enter(sid).unwrap();
        let c = ctx(&k, pid);
        assert!(p.vnode_check(c, NodeId(5), &VnodeOp::Read).is_ok());
        assert_eq!(
            p.vnode_check(c, NodeId(5), &VnodeOp::Stat).unwrap_err(),
            Errno::EACCES
        );
        assert_eq!(
            p.vnode_check(c, NodeId(6), &VnodeOp::Read).unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn grant_after_enter_fails() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        p.shill_enter(sid).unwrap();
        assert_eq!(
            grant(&p, &k, sid, 5, caps(&[Priv::Read])).unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn write_requires_write_and_append() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        grant(&p, &k, sid, 5, caps(&[Priv::Write])).unwrap();
        p.shill_enter(sid).unwrap();
        // +write alone is insufficient in the sandbox (§3.2.3).
        assert_eq!(
            p.vnode_check(ctx(&k, pid), NodeId(5), &VnodeOp::Write)
                .unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn lookup_propagates_with_modifier() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        let parent = Arc::new(
            CapPrivs::of(PrivSet::of(&[Priv::Lookup]))
                .with_modifier(Priv::Lookup, CapPrivs::of(PrivSet::of(&[Priv::Read]))),
        );
        grant(&p, &k, sid, 5, parent).unwrap();
        p.shill_enter(sid).unwrap();
        let c = ctx(&k, pid);
        p.vnode_post_lookup(c, NodeId(5), "dog.jpg", NodeId(9));
        let child = p.privs_on(sid, ObjId::Vnode(NodeId(9))).unwrap();
        assert!(child.allows(Priv::Read));
        assert!(!child.allows(Priv::Lookup));
        assert!(p.vnode_check(c, NodeId(9), &VnodeOp::Read).is_ok());
    }

    #[test]
    fn dotdot_and_dot_do_not_propagate() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        grant(&p, &k, sid, 5, caps(&[Priv::Lookup, Priv::Stat])).unwrap();
        p.shill_enter(sid).unwrap();
        let c = ctx(&k, pid);
        p.vnode_post_lookup(c, NodeId(5), "..", NodeId(4));
        p.vnode_post_lookup(c, NodeId(5), ".", NodeId(5));
        assert!(p.privs_on(sid, ObjId::Vnode(NodeId(4))).is_none());
        // "." must not amplify either; entry for 5 stays the explicit grant.
        assert!(p
            .privs_on(sid, ObjId::Vnode(NodeId(5)))
            .unwrap()
            .allows(Priv::Stat));
    }

    #[test]
    fn no_amplification_on_conflicting_entries() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        // Existing entry: create-file derives read-only.
        let ro_create = Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Lookup])).with_modifier(
            Priv::CreateFile,
            CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Stat, Priv::Path])),
        ));
        grant(&p, &k, sid, 7, ro_create).unwrap();
        p.shill_enter(sid).unwrap();
        // A lookup from a parent whose modifier would give conflicting
        // (write-capable) create privileges must NOT be merged in.
        let conflicting = Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Lookup])).with_modifier(
            Priv::CreateFile,
            CapPrivs::of(PrivSet::of(&[Priv::Write, Priv::Append])),
        ));
        let parent = Arc::new(
            CapPrivs::of(PrivSet::of(&[Priv::Lookup]))
                .with_modifier(Priv::Lookup, (*conflicting).clone()),
        );
        grant(&p, &k, sid, 6, parent).unwrap_err(); // entered: expected
                                                    // Re-create scenario without enter ordering problems:
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        let ro_create = Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Lookup])).with_modifier(
            Priv::CreateFile,
            CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Stat, Priv::Path])),
        ));
        grant(&p, &k, sid, 7, ro_create.clone()).unwrap();
        let parent = Arc::new(
            CapPrivs::of(PrivSet::of(&[Priv::Lookup]))
                .with_modifier(Priv::Lookup, (*conflicting).clone()),
        );
        grant(&p, &k, sid, 6, parent).unwrap();
        p.shill_enter(sid).unwrap();
        p.vnode_post_lookup(ctx(&k, pid), NodeId(6), "seven", NodeId(7));
        let entry = p.privs_on(sid, ObjId::Vnode(NodeId(7))).unwrap();
        assert_eq!(
            &*entry, &*ro_create,
            "conflicting propagation must be refused"
        );
    }

    #[test]
    fn session_scrub_removes_labels() {
        let (mut k, p, user) = setup();
        let pid = k.fork(user).unwrap(); // no session yet: no count
        let sid = p.shill_init(&mut k, pid).unwrap();
        grant(&p, &k, sid, 5, caps(&[Priv::Read])).unwrap();
        grant(&p, &k, sid, 6, caps(&[Priv::Read])).unwrap();
        p.shill_enter(sid).unwrap();
        assert_eq!(p.label_entries(), 2);
        k.exit(pid, 0);
        assert_eq!(p.label_entries(), 0);
        assert_eq!(p.stats().scrubbed, 2);
    }

    #[test]
    fn fork_joins_session_and_keeps_it_alive() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        grant(&p, &k, sid, 5, caps(&[Priv::Read])).unwrap();
        p.shill_enter(sid).unwrap();
        let child = k.fork(pid).unwrap();
        assert_eq!(p.session_of(&k, child), Some(sid));
        let c = ctx(&k, child);
        assert!(p.vnode_check(c, NodeId(5), &VnodeOp::Read).is_ok());
        k.exit(pid, 0);
        // Child still alive: labels retained.
        assert_eq!(p.label_entries(), 1);
        k.exit(child, 0);
        assert_eq!(p.label_entries(), 0);
    }

    #[test]
    fn hierarchical_attenuation() {
        let (mut k, p, pid) = setup();
        let s1 = p.shill_init(&mut k, pid).unwrap();
        grant(&p, &k, s1, 5, caps(&[Priv::Read, Priv::Stat])).unwrap();
        p.shill_enter(s1).unwrap();
        // The sandboxed, SHILL-aware process spawns a child in a
        // sub-session.
        let child = k.fork(pid).unwrap();
        let s2 = p.shill_init(&mut k, child).unwrap();
        // Attenuation: can grant ⊆ of what s1 holds...
        p.shill_grant(&k, pid, s2, ObjId::Vnode(NodeId(5)), caps(&[Priv::Read]))
            .unwrap();
        // ...but not more.
        assert_eq!(
            p.shill_grant(&k, pid, s2, ObjId::Vnode(NodeId(5)), caps(&[Priv::Write]))
                .unwrap_err(),
            Errno::EACCES
        );
        p.shill_enter(s2).unwrap();
        let (c1, c2) = (ctx(&k, pid), ctx(&k, child));
        assert!(p.vnode_check(c2, NodeId(5), &VnodeOp::Read).is_ok());
        assert_eq!(
            p.vnode_check(c2, NodeId(5), &VnodeOp::Stat).unwrap_err(),
            Errno::EACCES
        );
        // Signals: s2 descends from s1, so the parent can signal the child
        // but not vice versa.
        assert!(p.proc_check(c1, c2, ProcOp::Signal).is_ok());
        assert_eq!(
            p.proc_check(c2, c1, ProcOp::Signal).unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn process_confinement() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        p.shill_enter(sid).unwrap();
        // An unsandboxed process is outside every session.
        let other = k.spawn_user(Cred::user(100));
        let (c, o) = (ctx(&k, pid), ctx(&k, other));
        assert_eq!(
            p.proc_check(c, o, ProcOp::Signal).unwrap_err(),
            Errno::EACCES
        );
        assert_eq!(
            p.proc_check(c, o, ProcOp::Debug).unwrap_err(),
            Errno::EACCES
        );
        // The unsandboxed side is unrestricted (kernel DAC still applies).
        assert!(p.proc_check(o, c, ProcOp::Signal).is_ok());
    }

    #[test]
    fn socket_factory_gates_creation() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        p.shill_enter(sid).unwrap();
        let create = SocketOp::Create(SockDomain::Inet);
        assert_eq!(
            p.socket_check(
                ctx(&k, pid),
                ObjId::Socket(shill_kernel::SockId(0)),
                &create
            )
            .unwrap_err(),
            Errno::EACCES
        );
        // With a factory: allowed, and new sockets get the factory privs.
        let (mut k, p, pid) = setup();
        let sid2 = p.shill_init(&mut k, pid).unwrap();
        p.shill_grant_socket_factory(
            &k,
            Pid(1),
            sid2,
            PrivSet::of(&[
                Priv::SockCreate,
                Priv::SockConnect,
                Priv::SockSend,
                Priv::SockRecv,
            ]),
        )
        .unwrap();
        p.shill_enter(sid2).unwrap();
        let c = ctx(&k, pid);
        assert!(p
            .socket_check(c, ObjId::Socket(shill_kernel::SockId(0)), &create)
            .is_ok());
        p.socket_post_create(c, ObjId::Socket(shill_kernel::SockId(7)));
        assert!(p
            .socket_check(c, ObjId::Socket(shill_kernel::SockId(7)), &SocketOp::Send)
            .is_ok());
        assert_eq!(
            p.socket_check(c, ObjId::Socket(shill_kernel::SockId(7)), &SocketOp::Listen)
                .unwrap_err(),
            Errno::EACCES
        );
        // "Other" domains are denied even with a factory (Figure 7).
        assert_eq!(
            p.socket_check(
                c,
                ObjId::Socket(shill_kernel::SockId(0)),
                &SocketOp::Create(SockDomain::Other)
            )
            .unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn system_surfaces_follow_figure7() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        p.shill_enter(sid).unwrap();
        let c = ctx(&k, pid);
        assert!(p
            .system_check(c, &SystemOp::SysctlRead("kern.ostype".into()))
            .is_ok());
        for denied in [
            SystemOp::SysctlWrite("kern.x".into()),
            SystemOp::KernelEnv,
            SystemOp::KernelModule,
            SystemOp::PosixIpc,
            SystemOp::SysvIpc,
        ] {
            assert_eq!(p.system_check(c, &denied).unwrap_err(), Errno::EACCES);
        }
    }

    #[test]
    fn debug_mode_auto_grants_and_logs() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        p.set_debug(sid, true).unwrap();
        p.shill_enter(sid).unwrap();
        let c = ctx(&k, pid);
        assert!(p.vnode_check(c, NodeId(5), &VnodeOp::Read).is_ok());
        let events = p.log_events();
        assert!(events.iter().any(|e| matches!(
            e,
            LogEvent::DebugAutoGrant {
                granted: Priv::Read,
                ..
            }
        )));
        // The grant persists for subsequent checks.
        assert!(p
            .privs_on(sid, ObjId::Vnode(NodeId(5)))
            .unwrap()
            .allows(Priv::Read));
    }

    #[test]
    fn denials_are_logged() {
        let (mut k, p, pid) = setup();
        let sid = p.shill_init(&mut k, pid).unwrap();
        p.shill_enter(sid).unwrap();
        let _ = p.vnode_check(ctx(&k, pid), NodeId(5), &VnodeOp::Read);
        let log = p.log_events();
        assert_eq!(log.len(), 1);
        assert!(
            matches!(&log[0], LogEvent::Denied { needed: Priv::Read, session, .. } if *session == sid)
        );
        assert_eq!(p.stats().denials, 1);
    }
}
