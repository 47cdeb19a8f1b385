//! [`ServerCore`]: the transport-independent server engine.
//!
//! The core owns the sharded kernel and the SHILL policy module, and
//! exposes exactly four operations to the socket layer (and to in-process
//! harnesses like the fuzzer). Each runs on the calling thread — for the
//! socket layer, the connection's own thread:
//!
//! * [`ServerCore::open_session`] — factor gate, admission control, and
//!   the fork/grant/`shill_enter` choreography. A passing tenant gets a
//!   sandboxed session pinned to a kernel shard, granted only its own
//!   `/srv/<tenant>` subtree and limited by its quota's ulimits (the
//!   PR 2 charge meter: every kernel crossing ticks `cpu_ticks`, and an
//!   exhausted budget surfaces as catchable `EAGAIN`, not a kill).
//! * [`ServerCore::dispatch`] — one request frame → one batch, run wave
//!   by wave through [`KernelShards::run_job`], under per-tenant
//!   backpressure and a `dispatch` trace span (which feeds the `dispatch`
//!   latency histogram).
//! * [`ServerCore::close_session`] — teardown and session reclamation
//!   (label scrub + epoch bump), same choreography as the executor.
//! * [`ServerCore::drain`] — graceful drain: new frames and sessions are
//!   refused with `ECANCELED`-class errors while every in-flight frame
//!   runs to completion and is delivered.
//!
//! Multi-tenancy is capability isolation, not namespace isolation: every
//! tenant shares one kernel and one policy module, and a tenant reaching
//! for another tenant's subtree is stopped by the MAC policy (`EACCES`),
//! not by the server front-end.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use shill_cap::{CapPrivs, Priv, PrivSet};
use shill_kernel::{
    BatchArg, BatchEntry, BatchOut, KernelShards, Pid, StatsSnapshot, SyscallBatch, TracePlane,
    TraceSite, Ulimits,
};
use shill_sandbox::{setup_sandbox, Grant, SandboxSpec, SessionId, ShillPolicy};
use shill_vfs::{Cred, Errno, Gid, Mode, SysResult, Uid};

use crate::auth::AuthFactor;
use crate::proto::Request;

/// Per-tenant resource quota.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Maximum concurrently open sessions for this tenant.
    pub max_sessions: usize,
    /// Maximum frames in flight (dispatched, not yet answered) for this
    /// tenant; the per-tenant backpressure knob.
    pub max_inflight: usize,
    /// Resource limits stamped onto every session process at
    /// `shill_enter` time. `max_cpu_ticks` is the rate quota: the kernel
    /// charge meter ticks it per crossing and answers `EAGAIN` once the
    /// budget is spent.
    pub ulimits: Ulimits,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_sessions: 64,
            max_inflight: 16,
            ulimits: Ulimits::default(),
        }
    }
}

/// One configured tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name: the `auth` frame's first argument and the
    /// `/srv/<name>` subtree owner.
    pub name: String,
    /// The tenant's quota.
    pub quota: TenantQuota,
}

impl TenantSpec {
    /// A tenant with the default quota.
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            quota: TenantQuota::default(),
        }
    }

    /// Builder: replace the quota.
    pub fn with_quota(mut self, quota: TenantQuota) -> TenantSpec {
        self.quota = quota;
        self
    }
}

/// Server construction parameters.
pub struct ServerConfig {
    /// Kernel shard count.
    pub shards: usize,
    /// Global cap on concurrently open sessions (admission control; the
    /// per-tenant cap is [`TenantQuota::max_sessions`]).
    pub max_sessions: usize,
    /// Maximum accepted frame payload (bytes).
    pub max_frame: usize,
    /// The tenants this server serves. Each gets `/srv/<name>/seed.txt`
    /// on every shard.
    pub tenants: Vec<TenantSpec>,
    /// Optional fault schedule (`SHILL_FAULTS` grammar) armed on every
    /// shard — server traffic rides the same planes as everything else.
    pub fault_spec: Option<String>,
    /// Optional trace spec (`SHILL_TRACE` grammar) armed on every shard;
    /// also the source of the server's own accept/auth/dispatch spans.
    pub trace_spec: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 2,
            max_sessions: 1024,
            max_frame: crate::proto::MAX_FRAME_DEFAULT,
            tenants: Vec::new(),
            fault_spec: None,
            trace_spec: None,
        }
    }
}

/// Why the server refused or failed a request.
#[derive(Debug)]
pub enum ServerError {
    /// Factor gate or unknown tenant (`EACCES`).
    Auth(String),
    /// Admission control: session table full or tenant session quota
    /// reached (`EAGAIN` — retry later).
    Admission(String),
    /// Per-tenant inflight cap reached (`EAGAIN` — retry later).
    Backpressure(String),
    /// The server is draining: new work refused, in-flight work completes
    /// (`ECANCELED`).
    Draining,
    /// Request not valid in this state (`EINVAL`).
    Malformed(String),
    /// A kernel-side failure, including `EACCES` capability denials and
    /// `EAGAIN` quota exhaustion from the charge meter.
    Sys(Errno),
}

impl ServerError {
    /// The errno name carried on the wire (`err <ERRNO> <detail>`).
    pub fn errno_name(&self) -> &'static str {
        match self {
            ServerError::Auth(_) => "EACCES",
            ServerError::Admission(_) | ServerError::Backpressure(_) => "EAGAIN",
            ServerError::Draining => "ECANCELED",
            ServerError::Malformed(_) => "EINVAL",
            ServerError::Sys(e) => e.name(),
        }
    }

    /// Human-readable detail for the error frame.
    pub fn detail(&self) -> String {
        match self {
            ServerError::Auth(d)
            | ServerError::Admission(d)
            | ServerError::Backpressure(d)
            | ServerError::Malformed(d) => d.clone(),
            ServerError::Draining => "server draining".to_string(),
            ServerError::Sys(e) => e.to_string(),
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.errno_name(), self.detail())
    }
}

impl std::error::Error for ServerError {}

/// Monotonic per-tenant counters (exported by
/// [`ServerCore::telemetry_text`]).
#[derive(Default)]
struct TenantCounters {
    sessions_opened: AtomicU64,
    sessions_refused: AtomicU64,
    frames_ok: AtomicU64,
    frames_err: AtomicU64,
    backpressure: AtomicU64,
    quota_trips: AtomicU64,
}

/// A point-in-time copy of one tenant's counters and gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCountersSnapshot {
    /// Sessions successfully opened (monotonic).
    pub sessions_opened: u64,
    /// Auth or admission refusals (monotonic).
    pub sessions_refused: u64,
    /// Frames answered `ok` (monotonic).
    pub frames_ok: u64,
    /// Frames answered `err` (monotonic).
    pub frames_err: u64,
    /// Frames refused by the inflight cap (monotonic, included in
    /// `frames_err`).
    pub backpressure: u64,
    /// Frames that hit the charge-meter quota — `EAGAIN` from the kernel
    /// (monotonic, included in `frames_err`).
    pub quota_trips: u64,
    /// Currently open sessions (gauge).
    pub open_sessions: u64,
    /// Frames currently in flight (gauge).
    pub inflight: u64,
}

struct TenantState {
    name: String,
    quota: TenantQuota,
    /// Seed-file node and subtree nodes are per-shard; only the paths are
    /// shared, so sessions resolve their grants at open time.
    open: AtomicUsize,
    inflight: AtomicUsize,
    counters: TenantCounters,
}

impl TenantState {
    fn snapshot(&self) -> TenantCountersSnapshot {
        TenantCountersSnapshot {
            sessions_opened: self.counters.sessions_opened.load(Ordering::Relaxed),
            sessions_refused: self.counters.sessions_refused.load(Ordering::Relaxed),
            frames_ok: self.counters.frames_ok.load(Ordering::Relaxed),
            frames_err: self.counters.frames_err.load(Ordering::Relaxed),
            backpressure: self.counters.backpressure.load(Ordering::Relaxed),
            quota_trips: self.counters.quota_trips.load(Ordering::Relaxed),
            open_sessions: self.open.load(Ordering::Relaxed) as u64,
            inflight: self.inflight.load(Ordering::Relaxed) as u64,
        }
    }
}

/// An open, entered session: the net layer holds one per authenticated
/// connection; in-process harnesses drive it directly.
pub struct SessionHandle {
    tenant: Arc<TenantState>,
    parent: Pid,
    /// The confined session process (the pid every batch submits as).
    pub child: Pid,
    /// The SHILL session id.
    pub session: SessionId,
    /// The kernel shard the session is pinned to.
    pub shard: usize,
}

impl SessionHandle {
    /// The owning tenant's name.
    pub fn tenant(&self) -> &str {
        &self.tenant.name
    }
}

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHandle")
            .field("tenant", &self.tenant.name)
            .field("child", &self.child)
            .field("session", &self.session)
            .field("shard", &self.shard)
            .finish()
    }
}

struct CoreState {
    draining: bool,
    open_total: usize,
    inflight_total: usize,
}

/// The engine. See the module docs for the operation contract.
pub struct ServerCore {
    shards: KernelShards,
    policy: Arc<ShillPolicy>,
    factor: Box<dyn AuthFactor>,
    tenants: HashMap<String, Arc<TenantState>>,
    state: Mutex<CoreState>,
    drained: Condvar,
    next_shard: AtomicUsize,
    max_sessions: usize,
    max_frame: usize,
    trace: Option<Arc<TracePlane>>,
}

/// RAII inflight accounting: decremented (and the drain condvar notified)
/// however dispatch exits.
struct InflightGuard<'a> {
    core: &'a ServerCore,
    tenant: &'a TenantState,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::Relaxed);
        let mut st = self.core.state.lock().unwrap();
        st.inflight_total -= 1;
        if st.inflight_total == 0 {
            self.core.drained.notify_all();
        }
    }
}

fn leaf_caps() -> CapPrivs {
    CapPrivs::of(PrivSet::of(&[
        Priv::Read,
        Priv::Write,
        Priv::Append,
        Priv::Truncate,
        Priv::Stat,
        Priv::Path,
    ]))
}

fn dir_caps() -> CapPrivs {
    CapPrivs::of(PrivSet::of(&[
        Priv::Lookup,
        Priv::Contents,
        Priv::Stat,
        Priv::CreateFile,
        Priv::UnlinkFile,
        Priv::Read,
        Priv::Write,
        Priv::Append,
        Priv::Truncate,
        Priv::Path,
    ]))
    .with_modifier(Priv::Lookup, leaf_caps())
    .with_modifier(Priv::CreateFile, leaf_caps())
}

impl ServerCore {
    /// Build the kernel (one `/srv/<tenant>` subtree per tenant on every
    /// shard), register the SHILL policy, and arm the configured
    /// fault/trace planes. Starts no thread.
    pub fn new(cfg: ServerConfig, factor: Box<dyn AuthFactor>) -> ServerCore {
        let names: Vec<String> = cfg.tenants.iter().map(|t| t.name.clone()).collect();
        let shards = KernelShards::new_with(cfg.shards.max(1), |k, _| {
            for t in &names {
                // The tenant owns its subtree (sessions run as uid 100),
                // so DAC lets it create files there; cross-tenant denial
                // is the MAC policy's job, not DAC's.
                k.fs.mkdir_p(&format!("/srv/{t}"), Mode(0o755), Uid(100), Gid(100))
                    .expect("tenant subtree");
                k.fs.put_file(
                    &format!("/srv/{t}/seed.txt"),
                    b"seed\n",
                    Mode(0o666),
                    Uid(100),
                    Gid(100),
                )
                .expect("tenant seed file");
            }
        });
        let policy = ShillPolicy::new();
        shards.register_policy(policy.clone());
        if let Some(s) = cfg.fault_spec.as_deref() {
            shards.set_fault_plane(Some(s));
        }
        if let Some(s) = cfg.trace_spec.as_deref() {
            shards.set_trace_plane(Some(s));
        }
        let trace = shards.with_shard(0, |k| k.trace_plane_handle());
        let tenants = cfg
            .tenants
            .into_iter()
            .map(|t| {
                (
                    t.name.clone(),
                    Arc::new(TenantState {
                        name: t.name,
                        quota: t.quota,
                        open: AtomicUsize::new(0),
                        inflight: AtomicUsize::new(0),
                        counters: TenantCounters::default(),
                    }),
                )
            })
            .collect();
        ServerCore {
            shards,
            policy,
            factor,
            tenants,
            state: Mutex::new(CoreState {
                draining: false,
                open_total: 0,
                inflight_total: 0,
            }),
            drained: Condvar::new(),
            next_shard: AtomicUsize::new(0),
            max_sessions: cfg.max_sessions,
            max_frame: cfg.max_frame,
            trace,
        }
    }

    /// The frame-size cap the transport should enforce.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// The underlying shard set (fault/trace arming, stats assertions).
    pub fn shards(&self) -> &KernelShards {
        &self.shards
    }

    /// The policy module (session churn in stress harnesses).
    pub fn policy(&self) -> &Arc<ShillPolicy> {
        &self.policy
    }

    /// The server's trace plane handle (shard 0's plane), if tracing is
    /// armed.
    pub fn trace(&self) -> Option<&Arc<TracePlane>> {
        self.trace.as_ref()
    }

    /// A merged kernel stats snapshot across every shard.
    pub fn stats(&self) -> StatsSnapshot {
        self.shards.stats()
    }

    /// Factor gate + admission + sandbox choreography. On success the
    /// connection owns an entered session confined to `/srv/<tenant>`.
    pub fn open_session(&self, tenant: &str, secret: &str) -> Result<SessionHandle, ServerError> {
        let _span = self
            .trace
            .as_ref()
            .and_then(|p| p.span(TraceSite::Auth, 0, tenant.len() as u64));
        let Some(state) = self.tenants.get(tenant) else {
            return Err(ServerError::Auth(format!("unknown tenant {tenant}")));
        };
        if !self.factor.verify(tenant, secret) {
            state
                .counters
                .sessions_refused
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Auth(format!(
                "factor {} refused tenant {tenant}",
                self.factor.name()
            )));
        }
        // Admission under the core lock; the tenant gauge only moves here
        // and in close_session, both while holding it.
        {
            let mut st = self.state.lock().unwrap();
            if st.draining {
                state
                    .counters
                    .sessions_refused
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::Draining);
            }
            if st.open_total >= self.max_sessions {
                state
                    .counters
                    .sessions_refused
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::Admission(format!(
                    "server session table full ({})",
                    self.max_sessions
                )));
            }
            if state.open.load(Ordering::Relaxed) >= state.quota.max_sessions {
                state
                    .counters
                    .sessions_refused
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::Admission(format!(
                    "tenant {tenant} session quota ({}) reached",
                    state.quota.max_sessions
                )));
            }
            st.open_total += 1;
            state.open.fetch_add(1, Ordering::Relaxed);
        }
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.count();
        let setup = {
            let mut k = self.shards.lock_shard(shard);
            let root = k.fs.root();
            let srv = k.fs.resolve_abs("/srv").expect("/srv exists");
            let home =
                k.fs.resolve_abs(&format!("/srv/{tenant}"))
                    .expect("tenant subtree exists");
            let parent = k.spawn_user(Cred::user(100));
            let spec = SandboxSpec {
                grants: vec![
                    Grant::vnode(root, CapPrivs::of(PrivSet::of(&[Priv::Lookup]))),
                    Grant::vnode(srv, CapPrivs::of(PrivSet::of(&[Priv::Lookup]))),
                    Grant::vnode(home, dir_caps()),
                ],
                ulimits: Some(state.quota.ulimits),
                ..Default::default()
            };
            match setup_sandbox(&mut k, &self.policy, parent, &spec) {
                Ok(sb) => Ok((parent, sb)),
                Err(e) => {
                    k.exit(parent, 0);
                    let _ = k.waitpid(Pid(1), parent);
                    Err(e)
                }
            }
        };
        match setup {
            Ok((parent, sb)) => {
                state
                    .counters
                    .sessions_opened
                    .fetch_add(1, Ordering::Relaxed);
                Ok(SessionHandle {
                    tenant: Arc::clone(state),
                    parent,
                    child: sb.child,
                    session: sb.session,
                    shard,
                })
            }
            Err(e) => {
                // Roll the admission back: the session never existed.
                state.open.fetch_sub(1, Ordering::Relaxed);
                self.state.lock().unwrap().open_total -= 1;
                Err(ServerError::Sys(e))
            }
        }
    }

    /// Tear a session down: exit + reap the child (label scrub, epoch
    /// bump), retire the parent, release the admission slot.
    pub fn close_session(&self, h: SessionHandle) {
        {
            let mut k = self.shards.lock_shard(h.shard);
            k.exit(h.child, 0);
            let _ = k.waitpid(h.parent, h.child);
            k.exit(h.parent, 0);
            let _ = k.waitpid(Pid(1), h.parent);
        }
        h.tenant.open.fetch_sub(1, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        st.open_total -= 1;
        if st.inflight_total == 0 {
            self.drained.notify_all();
        }
    }

    /// Execute one request frame for an open session, on the calling
    /// thread. Returns the `ok` payload, or the typed refusal/failure. The
    /// whole execution runs under a `dispatch` trace span, so p50/p99
    /// dispatch latency falls out of the `dispatch` histogram.
    pub fn dispatch(&self, h: &SessionHandle, req: &Request) -> Result<Vec<u8>, ServerError> {
        let out = self.dispatch_inner(h, req);
        match &out {
            Ok(_) => h.tenant.counters.frames_ok.fetch_add(1, Ordering::Relaxed),
            Err(e) => {
                if matches!(e, ServerError::Sys(Errno::EAGAIN)) {
                    h.tenant
                        .counters
                        .quota_trips
                        .fetch_add(1, Ordering::Relaxed);
                }
                h.tenant.counters.frames_err.fetch_add(1, Ordering::Relaxed)
            }
        };
        out
    }

    fn dispatch_inner(&self, h: &SessionHandle, req: &Request) -> Result<Vec<u8>, ServerError> {
        // Backpressure + drain gate, then inflight accounting via guard.
        {
            let mut st = self.state.lock().unwrap();
            if st.draining {
                return Err(ServerError::Draining);
            }
            if h.tenant.inflight.load(Ordering::Relaxed) >= h.tenant.quota.max_inflight {
                h.tenant
                    .counters
                    .backpressure
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServerError::Backpressure(format!(
                    "tenant {} inflight cap ({}) reached",
                    h.tenant.name, h.tenant.quota.max_inflight
                )));
            }
            st.inflight_total += 1;
            h.tenant.inflight.fetch_add(1, Ordering::Relaxed);
        }
        let _inflight = InflightGuard {
            core: self,
            tenant: &h.tenant,
        };
        let _span = self
            .trace
            .as_ref()
            .and_then(|p| p.span(TraceSite::Dispatch, h.child.0 as u64, 0));
        match req {
            Request::Ping => Ok(b"pong".to_vec()),
            Request::Telemetry => Ok(self.telemetry_text().into_bytes()),
            Request::Read { path } => {
                let slots = self.run_batch(
                    h,
                    SyscallBatch::single(BatchEntry::ReadFile {
                        dirfd: None,
                        path: path.clone(),
                    }),
                    &[],
                )?;
                match take_slot(slots, 0)? {
                    BatchOut::Data(d) => Ok(d),
                    other => Err(unexpected(other)),
                }
            }
            Request::Write { path, data } => {
                let slots = self.run_batch(
                    h,
                    SyscallBatch::single(BatchEntry::WriteFile {
                        dirfd: None,
                        path: path.clone(),
                        data: BatchArg::Bytes(data.clone()),
                        mode: Mode(0o644),
                        append: false,
                    }),
                    &[],
                )?;
                match take_slot(slots, 0)? {
                    BatchOut::Written(n) => Ok(n.to_string().into_bytes()),
                    other => Err(unexpected(other)),
                }
            }
            Request::Stat { path } => {
                let slots = self.run_batch(
                    h,
                    SyscallBatch::single(BatchEntry::Stat {
                        dirfd: None,
                        path: path.clone(),
                        follow: true,
                    }),
                    &[],
                )?;
                match take_slot(slots, 0)? {
                    BatchOut::Stat(st) => Ok(format!("size={}", st.size).into_bytes()),
                    other => Err(unexpected(other)),
                }
            }
            Request::Copy { src, dst } => {
                let slots = self.run_batch(
                    h,
                    SyscallBatch::aborting(vec![
                        BatchEntry::ReadFile {
                            dirfd: None,
                            path: src.clone(),
                        },
                        BatchEntry::WriteFile {
                            dirfd: None,
                            path: dst.clone(),
                            data: BatchArg::OutputOf(0),
                            mode: Mode(0o644),
                            append: false,
                        },
                    ]),
                    &[],
                )?;
                // Surface the *first* failure: under FailMode::Abort the
                // write is ECANCELED when the read failed, which would
                // mask the interesting errno.
                let mut slots = slots.into_iter();
                let read = slots.next().unwrap_or(Err(Errno::EINVAL));
                let write = slots.next().unwrap_or(Err(Errno::EINVAL));
                read.map_err(ServerError::Sys)?;
                match write.map_err(ServerError::Sys)? {
                    BatchOut::Written(n) => Ok(n.to_string().into_bytes()),
                    other => Err(unexpected(other)),
                }
            }
            Request::Sync => {
                // A fenced no-op: the wave rendezvouses with every shard,
                // totally ordering this session against all of them — and
                // walking straight through the `fence` fault site.
                let fence: Vec<usize> =
                    (0..self.shards.count()).filter(|&s| s != h.shard).collect();
                let slots = self.run_batch(
                    h,
                    SyscallBatch::single(BatchEntry::Stat {
                        dirfd: None,
                        path: format!("/srv/{}/seed.txt", h.tenant.name),
                        follow: true,
                    }),
                    &fence,
                )?;
                take_slot(slots, 0)?;
                Ok(b"synced".to_vec())
            }
            Request::Auth { .. } => {
                Err(ServerError::Malformed("already authenticated".to_string()))
            }
            Request::Bye => Ok(b"bye".to_vec()),
        }
    }

    fn run_batch(
        &self,
        h: &SessionHandle,
        batch: SyscallBatch,
        fence: &[usize],
    ) -> Result<Vec<SysResult<BatchOut>>, ServerError> {
        self.shards
            .run_job(h.child, batch, fence)
            .map_err(ServerError::Sys)
    }

    /// Graceful drain: refuse new work, then block until every in-flight
    /// frame has completed and been delivered. Open sessions stay open
    /// (their next frame gets `ECANCELED`); nothing in flight is lost.
    pub fn drain(&self) {
        let mut st = self.state.lock().unwrap();
        st.draining = true;
        while st.inflight_total > 0 {
            st = self.drained.wait(st).unwrap();
        }
    }

    /// A point-in-time copy of one tenant's counters.
    pub fn tenant_counters(&self, tenant: &str) -> Option<TenantCountersSnapshot> {
        self.tenants.get(tenant).map(|t| t.snapshot())
    }

    /// Kernel telemetry (stats + latency histograms + trace ring) in
    /// Prometheus text format, with the server's per-tenant counters
    /// appended as `shill_tenant_*{tenant="..."}` series.
    pub fn telemetry_text(&self) -> String {
        let mut out = self.shards.telemetry().render_text();
        let mut names: Vec<&String> = self.tenants.keys().collect();
        names.sort();
        for name in names {
            let t = &self.tenants[name];
            let s = t.snapshot();
            for (metric, value) in [
                ("shill_tenant_sessions_opened", s.sessions_opened),
                ("shill_tenant_sessions_refused", s.sessions_refused),
                ("shill_tenant_frames_ok", s.frames_ok),
                ("shill_tenant_frames_err", s.frames_err),
                ("shill_tenant_backpressure", s.backpressure),
                ("shill_tenant_quota_trips", s.quota_trips),
                ("shill_tenant_open_sessions", s.open_sessions),
                ("shill_tenant_inflight", s.inflight),
            ] {
                out.push_str(&format!("{metric}{{tenant=\"{name}\"}} {value}\n"));
            }
        }
        out
    }
}

fn take_slot(slots: Vec<SysResult<BatchOut>>, idx: usize) -> Result<BatchOut, ServerError> {
    slots
        .into_iter()
        .nth(idx)
        .unwrap_or(Err(Errno::EINVAL))
        .map_err(ServerError::Sys)
}

fn unexpected(out: BatchOut) -> ServerError {
    debug_assert!(false, "unexpected batch output shape: {out:?}");
    ServerError::Sys(Errno::EIO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::StaticTokens;

    fn two_tenant_core() -> ServerCore {
        ServerCore::new(
            ServerConfig {
                tenants: vec![TenantSpec::new("alice"), TenantSpec::new("bob")],
                ..Default::default()
            },
            Box::new(StaticTokens::new([("alice", "sesame"), ("bob", "hunter2")])),
        )
    }

    #[test]
    fn sessions_are_confined_to_their_tenant_subtree() {
        let core = two_tenant_core();
        let h = core.open_session("alice", "sesame").unwrap();
        // Own subtree: read/write/stat/copy all pass.
        let n = core
            .dispatch(
                &h,
                &Request::Write {
                    path: "/srv/alice/f.txt".into(),
                    data: b"hello".to_vec(),
                },
            )
            .unwrap();
        assert_eq!(n, b"5");
        assert_eq!(
            core.dispatch(
                &h,
                &Request::Read {
                    path: "/srv/alice/f.txt".into()
                }
            )
            .unwrap(),
            b"hello"
        );
        // Another tenant's subtree: the MAC policy, not the server, says no.
        let err = core
            .dispatch(
                &h,
                &Request::Read {
                    path: "/srv/bob/seed.txt".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServerError::Sys(Errno::EACCES)), "{err}");
        core.close_session(h);
        assert_eq!(core.policy().label_entries(), 0, "session must reclaim");
    }

    #[test]
    fn auth_gate_and_admission_refuse_with_typed_errors() {
        let core = ServerCore::new(
            ServerConfig {
                tenants: vec![TenantSpec::new("alice").with_quota(TenantQuota {
                    max_sessions: 1,
                    ..Default::default()
                })],
                ..Default::default()
            },
            Box::new(StaticTokens::new([("alice", "sesame")])),
        );
        // Wrong secret, unknown tenant: EACCES class.
        assert_eq!(
            core.open_session("alice", "wrong")
                .unwrap_err()
                .errno_name(),
            "EACCES"
        );
        assert_eq!(
            core.open_session("eve", "x").unwrap_err().errno_name(),
            "EACCES"
        );
        // Tenant session quota: EAGAIN class, and it frees on close.
        let h = core.open_session("alice", "sesame").unwrap();
        assert_eq!(
            core.open_session("alice", "sesame")
                .unwrap_err()
                .errno_name(),
            "EAGAIN"
        );
        core.close_session(h);
        let h2 = core.open_session("alice", "sesame").unwrap();
        core.close_session(h2);
        let snap = core.tenant_counters("alice").unwrap();
        assert_eq!(snap.sessions_opened, 2);
        assert_eq!(snap.sessions_refused, 2);
        assert_eq!(snap.open_sessions, 0);
    }

    #[test]
    fn drain_refuses_new_frames_and_sessions() {
        let core = two_tenant_core();
        let h = core.open_session("alice", "sesame").unwrap();
        core.drain();
        assert!(matches!(
            core.dispatch(&h, &Request::Ping).unwrap_err(),
            ServerError::Draining
        ));
        assert!(matches!(
            core.open_session("bob", "hunter2").unwrap_err(),
            ServerError::Draining
        ));
        core.close_session(h);
    }

    #[test]
    fn sync_pays_a_cross_shard_rendezvous() {
        let core = two_tenant_core();
        let h = core.open_session("alice", "sesame").unwrap();
        let before = core.shards().rendezvous_count();
        assert_eq!(core.dispatch(&h, &Request::Sync).unwrap(), b"synced");
        assert!(
            core.shards().rendezvous_count() > before,
            "sync must fence the other shards"
        );
        core.close_session(h);
    }

    #[test]
    fn telemetry_text_carries_tenant_series() {
        let core = two_tenant_core();
        let h = core.open_session("alice", "sesame").unwrap();
        core.dispatch(&h, &Request::Ping).unwrap();
        let text = core.telemetry_text();
        assert!(text.contains("shill_tenant_frames_ok{tenant=\"alice\"} 1"));
        assert!(text.contains("shill_tenant_sessions_opened{tenant=\"alice\"} 1"));
        assert!(text.contains("shill_tenant_sessions_opened{tenant=\"bob\"} 0"));
        core.close_session(h);
    }
}
