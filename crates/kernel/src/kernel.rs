//! The kernel object: process table, policy registry, executable registry,
//! path walking (`namei`), and process lifecycle. File/socket system calls
//! live in [`crate::syscalls`] as further `impl Kernel` blocks.

use std::collections::HashMap;
use std::num::NonZeroU64;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

use shill_vfs::{dac, Access, Cred, DeviceKind, Errno, Filesystem, IdMap, Mode, NodeId, SysResult};

use crate::avc::{avc_class, avc_pipe_class, avc_socket_class, Avc, AvcClass};
use crate::batch::BatchState;
use crate::fault::{path_key, FaultPlane, FaultSite};
use crate::mac::{MacCtx, MacPolicy, PipeOp, ProcOp, SocketOp, SystemOp, VnodeOp};
use crate::net::NetStack;
use crate::pipe::PipeTable;
use crate::process::{CloseQueue, FdObject, OpenFile, ProcState, Process};
use crate::registry::PolicyRegistry;
use crate::stats::KernelStats;
use crate::trace::{Telemetry, TracePlane, TraceScope, TraceSite};
use crate::types::{Fd, ObjId, Pid, PipeEnd, Ulimits};

/// Sysctl knob toggling the MAC access-vector cache (`0`/`1`).
pub const SYSCTL_AVC: &str = "security.cache.avc";

/// A registered executable: the simulated analogue of a binary image.
/// Handlers receive the kernel, the pid they run as, and `argv`.
pub type ExecHandler = Arc<dyn Fn(&mut Kernel, Pid, &[String]) -> i32 + Send + Sync>;

/// Maximum symlink traversals in one path resolution.
const MAX_SYMLINK_HOPS: u32 = 32;

/// Result of a path walk.
#[derive(Debug, Clone)]
pub(crate) struct Lookup {
    /// Directory containing the final component.
    pub parent: NodeId,
    /// The final component name (after symlink resolution of the
    /// dirname), in parent mode only: the callers that create, unlink,
    /// link or rename are the ones that read it. Empty otherwise, so a
    /// plain walk allocates nothing.
    pub name: String,
    /// The final node, if it exists.
    pub node: Option<NodeId>,
}

/// The simulated kernel.
pub struct Kernel {
    pub fs: Filesystem,
    pub pipes: PipeTable,
    pub net: NetStack,
    pub stats: KernelStats,
    /// Bytes written to the console (tty device); visible to tests.
    pub console: Vec<u8>,
    procs: IdMap<Pid, Process>,
    registry: PolicyRegistry,
    /// Access-vector cache for MAC vnode verdicts (see [`crate::avc`]).
    avc: Avc,
    exec_handlers: HashMap<String, ExecHandler>,
    pub(crate) sysctls: HashMap<String, String>,
    pub(crate) kenv: HashMap<String, String>,
    /// Live batched submission, if any (see [`crate::batch`]): one ulimit
    /// charge and one MAC context amortized across the batch's entries (or,
    /// for the per-wave scheduler path in [`crate::sched`], across one
    /// dependency wave).
    /// Installed and cleared exclusively through the batch drop-guard so
    /// an unwind mid-batch can never leave it populated.
    pub(crate) batch: Option<BatchState>,
    /// Which shard of a [`crate::shard::KernelShards`] this kernel is (0
    /// for a standalone kernel). Determines the id-space offsets below.
    shard: usize,
    next_pid: u32,
    rng: u64,
    /// Fault-injection plane, if installed (see [`crate::fault`]). Shared
    /// with the filesystem's data-path hook via `Arc`; `None` costs one
    /// branch per consulted site.
    faults: Option<Arc<FaultPlane>>,
    /// Tracing plane, if armed (see [`crate::trace`]). `None` (the
    /// default) costs one branch per instrumented site; armed but with a
    /// site masked off costs one relaxed load.
    trace: Option<Arc<TracePlane>>,
    /// Descriptors released between crossings (see [`CloseQueue`]).
    /// Created on first use, so a kernel nobody defers closes on pays
    /// nothing for it.
    closes: OnceLock<CloseQueue>,
    /// The buffer `drain_closes` swaps with the queue's: empty between
    /// drains, with the capacity of earlier ones.
    closing: Vec<(Pid, Fd)>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// A kernel with a root filesystem containing `/dev/{null,zero,tty,random}`,
    /// `/tmp`, and an `init` process (pid 1, root, cwd `/`).
    pub fn new() -> Kernel {
        Kernel::new_shard(0)
    }

    /// A kernel for shard `shard` of a [`crate::shard::KernelShards`]: same
    /// contents as [`Kernel::new`], but every id allocator (pids, vnode ids,
    /// pipe ids, socket ids) starts at the shard's stride offset. Shards
    /// share one MAC policy module whose object labels are keyed by object
    /// id, so the id spaces must be disjoint — a grant on shard 0's
    /// `vnode#7` must never alias shard 1's `vnode#7` — and pids stay
    /// disjoint so a pid names one process across shards. The one
    /// deliberate exception is `init` (pid 1), which exists per shard: it
    /// is never labelled and never granted capabilities, so policy-side
    /// aliasing is harmless. `new_shard(0)` is identical to `new()`.
    ///
    /// # Panics
    ///
    /// If `shard >= MAX_SHARDS`. The cap is a sanity bound enforced here
    /// because this constructor is public on its own (`KernelShards`
    /// clamps separately); the hard arithmetic limit is further out — at
    /// shard 4096 the pid-stride product overflows `u32` and would
    /// silently alias shard 0's pid space — so anyone raising
    /// `MAX_SHARDS` must keep it below `u32::MAX / SHARD_PID_STRIDE`.
    pub fn new_shard(shard: usize) -> Kernel {
        assert!(
            shard < crate::shard::MAX_SHARDS,
            "shard index {shard} exceeds MAX_SHARDS ({}): the pid stride would alias",
            crate::shard::MAX_SHARDS
        );
        let obj_base = shard as u64 * crate::shard::SHARD_OBJ_STRIDE;
        let mut fs = Filesystem::with_id_base(obj_base);
        let root = fs.root();
        let dev = fs
            .create_dir(
                root,
                "dev",
                Mode::DIR_DEFAULT,
                shill_vfs::Uid::ROOT,
                shill_vfs::Gid::WHEEL,
            )
            .expect("mkdir /dev");
        fs.create_device(dev, "null", DeviceKind::Null, Mode::RW_ALL)
            .expect("null");
        fs.create_device(dev, "zero", DeviceKind::Zero, Mode::RW_ALL)
            .expect("zero");
        fs.create_device(dev, "tty", DeviceKind::Tty, Mode::RW_ALL)
            .expect("tty");
        fs.create_device(dev, "random", DeviceKind::Random, Mode(0o444))
            .expect("random");
        fs.mkdir_p(
            "/tmp",
            Mode(0o777),
            shill_vfs::Uid::ROOT,
            shill_vfs::Gid::WHEEL,
        )
        .expect("mkdir /tmp");

        let mut procs = IdMap::default();
        procs.insert(Pid(1), Process::new(Pid(1), Pid(1), Cred::ROOT, root));

        let mut sysctls = HashMap::new();
        sysctls.insert("kern.ostype".to_string(), "SimBSD".to_string());
        sysctls.insert("kern.osrelease".to_string(), "9.2-SHILL".to_string());
        sysctls.insert("hw.ncpu".to_string(), "6".to_string());
        sysctls.insert(SYSCTL_AVC.to_string(), "1".to_string());

        let mut k = Kernel {
            fs,
            pipes: PipeTable::with_id_base(obj_base),
            net: NetStack::with_id_base(obj_base),
            stats: KernelStats::default(),
            console: Vec::new(),
            procs,
            registry: PolicyRegistry::new(),
            avc: Avc::new(),
            exec_handlers: HashMap::new(),
            sysctls,
            kenv: HashMap::new(),
            batch: None,
            shard,
            next_pid: shard as u32 * crate::shard::SHARD_PID_STRIDE + 1,
            rng: 0x9E3779B97F4A7C15,
            faults: None,
            trace: None,
            closes: OnceLock::new(),
            closing: Vec::new(),
        };
        // `SHILL_FAULTS` arms every kernel in the process with the same
        // schedule — shard-relative keying makes the planes agree on which
        // operations fail regardless of which shard runs them.
        if let Some(plane) = FaultPlane::from_env() {
            k.set_fault_plane(Some(plane));
        }
        // `SHILL_TRACE` arms a per-shard trace ring; shards share one
        // monotonic epoch so the merged timeline is coherent.
        if let Some(plane) = TracePlane::from_env() {
            k.set_trace_plane(Some(plane));
        }
        k
    }

    /// Install (or clear) a fault-injection plane, returning the plane it
    /// displaced. The plane is shared with the filesystem so data-path
    /// faults originate below the MAC hooks; clearing removes the hook
    /// too. The returned handle (counters intact) can be put back with
    /// [`Kernel::restore_fault_plane`] — the idiom for standing a
    /// schedule down across fixture choreography.
    pub fn set_fault_plane(&mut self, plane: Option<FaultPlane>) -> Option<Arc<FaultPlane>> {
        let plane = plane.map(Arc::new);
        self.fs
            .set_fault_hook(plane.clone().map(|p| p as shill_vfs::SharedFaultHook));
        self.pipes.set_fault_plane(plane.clone());
        self.net.set_fault_plane(plane.clone());
        if let (Some(f), Some(t)) = (&plane, &self.trace) {
            f.attach_trace(t);
        }
        std::mem::replace(&mut self.faults, plane)
    }

    /// Reinstall a plane previously displaced by
    /// [`Kernel::set_fault_plane`], hit counters and pending accounting
    /// intact.
    pub fn restore_fault_plane(&mut self, plane: Option<Arc<FaultPlane>>) {
        self.fs
            .set_fault_hook(plane.clone().map(|p| p as shill_vfs::SharedFaultHook));
        self.pipes.set_fault_plane(plane.clone());
        self.net.set_fault_plane(plane.clone());
        if let (Some(f), Some(t)) = (&plane, &self.trace) {
            f.attach_trace(t);
        }
        self.faults = plane;
    }

    /// The installed fault plane, if any (containment sites book survived
    /// panics through this).
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.faults.as_ref()
    }

    // --- tracing plane ----------------------------------------------------

    /// Arm (or disarm) the tracing plane. The plane is stamped with this
    /// kernel's shard index and handed to the fault plane (so firings
    /// record instants) and to every registered policy (so stripe waits
    /// record spans). Returns the plane it displaced.
    pub fn set_trace_plane(&mut self, plane: Option<Arc<TracePlane>>) -> Option<Arc<TracePlane>> {
        if let Some(t) = &plane {
            t.set_shard(self.shard as u64);
            if let Some(f) = &self.faults {
                f.attach_trace(t);
            }
            for p in self.registry.iter() {
                p.attach_trace(t);
            }
        }
        std::mem::replace(&mut self.trace, plane)
    }

    /// The armed tracing plane, if any.
    pub fn trace_plane_handle(&self) -> Option<Arc<TracePlane>> {
        self.trace.clone()
    }

    /// Whether a site is currently traced: `false` with no plane (one
    /// branch), else one relaxed load of the site mask.
    #[inline]
    pub(crate) fn trace_wants(&self, site: TraceSite) -> bool {
        matches!(&self.trace, Some(t) if t.wants(site))
    }

    /// Open a span at an instrumented site. The returned guard owns its
    /// plane handle, so the caller keeps `&mut self` while it is live and
    /// an unwind still closes the span. `None` when untraced.
    #[inline]
    pub(crate) fn trace_span(&self, site: TraceSite, pid: u64, arg: u64) -> Option<TraceScope> {
        match &self.trace {
            Some(t) => t.span(site, pid, arg),
            None => None,
        }
    }

    /// Open the syscall span of batch slot `slot`: the first entry a loop
    /// executes opens it, and each later one chains onto it
    /// ([`TraceScope::chain`]), so a loop over entries reads the clock
    /// once per entry and clones the plane handle once.
    #[inline]
    pub(crate) fn chain_syscall_span(&self, span: &mut Option<TraceScope>, pid: Pid, slot: usize) {
        match span {
            Some(s) => s.chain(slot as u64),
            None => *span = self.trace_span(TraceSite::Syscall, pid.0 as u64, slot as u64),
        }
    }

    /// One unified observability snapshot: drained counters (see
    /// [`Kernel::stats_snapshot`]), per-site latency histograms, and the
    /// drained trace ring. With no plane armed the histogram and event
    /// sections are empty but the counters are still exported.
    pub fn telemetry(&self) -> Telemetry {
        let stats = self.stats_snapshot();
        match &self.trace {
            Some(t) => Telemetry {
                stats,
                hists: t.hists(),
                events: t.drain(),
            },
            None => Telemetry {
                stats,
                ..Telemetry::default()
            },
        }
    }

    /// Consult the fault plane at a control-path site.
    fn fault_check(&self, site: FaultSite, key: u64) -> SysResult<()> {
        if let Some(f) = &self.faults {
            if let Some(e) = f.check(site, key) {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Shard-relative pid: the mode- and shard-invariant session key fault
    /// schedules fire on.
    fn fault_pid_key(pid: Pid) -> u64 {
        (pid.0 % crate::shard::SHARD_PID_STRIDE) as u64
    }

    /// Consult the fault plane for a batch entry, keyed by slot identity
    /// (never execution order) so sequential, wave-scheduled, and stepped
    /// execution fail the same entries.
    pub(crate) fn fault_batch_entry(&self, pid: Pid, slot: usize) -> SysResult<()> {
        self.fault_check(
            FaultSite::Batch,
            Self::fault_pid_key(pid) << 32 | slot as u64,
        )
    }

    /// Which shard this kernel is (0 for a standalone kernel).
    pub fn shard_index(&self) -> usize {
        self.shard
    }

    // --- policy / executable registries ---------------------------------

    /// Load a MAC policy module (the "SHILL installed" configuration).
    /// Attaching a policy flushes the access-vector cache: verdicts reached
    /// without the new policy's veto are no longer valid. `avc_flushes`
    /// counts only flushes that dropped live verdicts — attaching to a
    /// kernel whose cache is empty is not an eviction event.
    pub fn register_policy(&mut self, policy: Arc<dyn MacPolicy>) {
        if let Some(t) = &self.trace {
            policy.attach_trace(t);
        }
        self.registry.attach(policy);
        if self.avc.flush() > 0 {
            KernelStats::bump(&self.stats.avc_flushes);
        }
    }

    /// Unload a policy by name (what `kldunload` would do; the SHILL policy
    /// itself denies this from inside a sandbox). Flushes the AVC.
    pub fn unregister_policy(&mut self, name: &str) -> bool {
        let removed = self.registry.detach(name);
        if removed && self.avc.flush() > 0 {
            KernelStats::bump(&self.stats.avc_flushes);
        }
        removed
    }

    /// Whether a policy with this name is loaded.
    pub fn has_policy(&self, name: &str) -> bool {
        self.registry.contains(name)
    }

    // --- cache control ----------------------------------------------------

    /// Toggle the access-vector cache directly (the `security.cache.avc`
    /// sysctl routes here; ablation benches call it to compare modes).
    /// `avc_flushes` is bumped only when disabling actually dropped live
    /// verdicts: a disabled→disabled write or a toggle of an empty cache
    /// flushes nothing and must not inflate the counter.
    pub fn set_avc_enabled(&mut self, on: bool) {
        if self.avc.set_enabled(on) > 0 {
            KernelStats::bump(&self.stats.avc_flushes);
        }
        self.sysctls.insert(
            SYSCTL_AVC.to_string(),
            if on { "1" } else { "0" }.to_string(),
        );
    }

    /// Whether the access-vector cache is on.
    pub fn avc_enabled(&self) -> bool {
        self.avc.enabled()
    }

    /// Forwards to [`Kernel::set_avc_enabled`] and ignores its first
    /// argument, which toggled the directory-entry cache this kernel no
    /// longer has. perfbench (`perfbench/src/layers.rs`) is its only
    /// caller; everything else calls `set_avc_enabled`.
    pub fn set_cache_enabled(&mut self, _dcache: bool, avc: bool) {
        self.set_avc_enabled(avc);
    }

    /// Apply a `security.cache.avc` sysctl write; no-op for other names.
    /// The knob accepts exactly `"0"`/`"1"` — anything else is `EINVAL`
    /// so a malformed write (e.g. `"off"`) can never silently enable a
    /// cache the operator meant to turn off.
    pub(crate) fn apply_cache_sysctl(&mut self, name: &str, value: &str) -> SysResult<()> {
        if name != SYSCTL_AVC {
            return Ok(());
        }
        match value.trim() {
            "0" => self.set_avc_enabled(false),
            "1" => self.set_avc_enabled(true),
            _ => return Err(Errno::EINVAL),
        }
        Ok(())
    }

    /// The access-vector cache (tests/diagnostics).
    pub fn avc(&self) -> &Avc {
        &self.avc
    }

    /// Whether a batched submission's amortized state is currently
    /// installed (diagnostics: the job tests assert the per-wave
    /// install/release discipline never leaks state past a run).
    pub fn batch_in_flight(&self) -> bool {
        self.batch.is_some()
    }

    /// Defensive teardown of any batch state left installed. The batch
    /// drop-guard makes a stuck batch unreachable in principle;
    /// [`crate::KernelShards::run_job`] still calls this after containing
    /// a panic, because a kernel wedged with stale batch state would fail
    /// every later submission on the shard with `EINVAL`.
    pub(crate) fn abort_stale_batch(&mut self) {
        self.batch = None;
    }

    /// Register a simulated executable under `program` (matched against the
    /// `#!SIMBIN <program>` line of executable files).
    pub fn register_exec(&mut self, program: &str, handler: ExecHandler) {
        self.exec_handlers.insert(program.to_string(), handler);
    }

    /// Look up a registered executable handler by program name.
    pub(crate) fn exec_handler(&self, program: &str) -> Option<ExecHandler> {
        self.exec_handlers.get(program).cloned()
    }

    // --- processes -------------------------------------------------------

    pub fn process(&self, pid: Pid) -> SysResult<&Process> {
        self.procs.get(&pid).ok_or(Errno::ESRCH)
    }

    pub fn process_mut(&mut self, pid: Pid) -> SysResult<&mut Process> {
        self.procs.get_mut(&pid).ok_or(Errno::ESRCH)
    }

    /// Live process-table entries, zombies included (diagnostics/tests —
    /// the session executor's leak regression checks this stays flat).
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// The MAC subject context for a process. Inside a batched submission
    /// the context built once at submit time is reused — credentials and
    /// labels cannot change mid-batch (no batch entry alters them), so
    /// re-deriving it per check is pure overhead.
    pub(crate) fn ctx(&self, pid: Pid) -> SysResult<MacCtx> {
        if let Some(b) = &self.batch {
            if b.ctx.pid == pid {
                return Ok(b.ctx);
            }
        }
        KernelStats::bump(&self.stats.mac_ctx_setups);
        Ok(self.process(pid)?.mac_ctx())
    }

    /// Set (or clear) a process's MAC label. The labelling policy calls
    /// this when it moves a process into a session (`shill_init`);
    /// children inherit the label from then on.
    pub fn set_label(&mut self, pid: Pid, label: Option<NonZeroU64>) -> SysResult<()> {
        self.process_mut(pid)?.label = label;
        Ok(())
    }

    /// Charge one syscall tick against the process's cpu ulimit. Inside a
    /// batched submission the accounting was hoisted to `submit_batch`: the
    /// tick is consumed from the batch's pre-read budget (identical EAGAIN
    /// trip points, no per-call process-table lookup) and written back once
    /// when the batch completes.
    pub(crate) fn charge(&mut self, pid: Pid) -> SysResult<()> {
        KernelStats::bump(&self.stats.syscalls);
        // Injected ulimit exhaustion fires here — before the batch branch —
        // so sequential and batched execution trip at identical points.
        self.fault_check(FaultSite::Charge, Self::fault_pid_key(pid))?;
        if let Some(b) = &self.batch {
            if b.ctx.pid == pid {
                return b.consume_tick();
            }
        }
        KernelStats::bump(&self.stats.charge_calls);
        let p = self.process_mut(pid)?;
        if !p.alive() {
            return Err(Errno::ESRCH);
        }
        p.cpu_ticks += 1;
        if p.cpu_ticks > p.ulimits.max_cpu_ticks {
            return Err(Errno::EAGAIN);
        }
        Ok(())
    }

    /// Allocate the next pid, enforcing the shard stride: a shard that
    /// exhausts its pid range must fail (`EAGAIN`, like real pid
    /// exhaustion) rather than silently bleed into the next shard's range,
    /// where a bled pid would route to the wrong shard's lock and could
    /// alias a live pid there.
    fn alloc_pid(&mut self) -> SysResult<Pid> {
        let base = self.shard as u32 * crate::shard::SHARD_PID_STRIDE;
        // Simulated pid-space exhaustion, keyed by the shard-relative pid
        // about to be handed out.
        self.fault_check(FaultSite::AllocPid, (self.next_pid + 1 - base) as u64)?;
        if self.next_pid - base >= crate::shard::SHARD_PID_STRIDE - 1 {
            return Err(Errno::EAGAIN);
        }
        self.next_pid += 1;
        Ok(Pid(self.next_pid))
    }

    /// Create a fresh top-level user process (child of init) with the given
    /// credentials; used by ambient scripts and test setup. Panics if the
    /// shard's pid space (2^20 lifetime pids) is exhausted — callers that
    /// must degrade instead of abort use [`Kernel::try_spawn_user`].
    pub fn spawn_user(&mut self, cred: Cred) -> Pid {
        self.try_spawn_user(cred)
            .expect("shard pid space exhausted")
    }

    /// Fallible [`Kernel::spawn_user`]: pid-space exhaustion (the shard
    /// stride guard, or an injected `alloc_pid` fault) surfaces as the
    /// same `EAGAIN` real pid exhaustion produces, so callers can hand
    /// scripts a catchable `syserror` instead of aborting the harness.
    /// The process starts unlabelled.
    pub fn try_spawn_user(&mut self, cred: Cred) -> SysResult<Pid> {
        let pid = self.alloc_pid()?;
        let root = self.fs.root();
        let child = Process::new(pid, Pid(1), cred, root);
        let ctx = child.mac_ctx();
        self.procs.insert(pid, child);
        if let Some(init) = self.procs.get_mut(&Pid(1)) {
            init.children.push(pid);
        }
        for p in self.registry.iter() {
            p.proc_fork(Pid(1), ctx);
        }
        Ok(pid)
    }

    /// Fork: the child inherits credentials, cwd, ulimits, descriptors
    /// (with reference counts bumped) and the MAC label, so session
    /// membership is inherited (paper §3.2.1: "Processes spawned by a
    /// process in a session are by default placed in the same session").
    pub fn fork(&mut self, parent: Pid) -> SysResult<Pid> {
        self.new_child(parent, None)
    }

    /// Spawn, posix_spawn-style: like [`Kernel::fork`], but the child's
    /// descriptor table holds only `fds`, each `(parent_fd, child_fd)`
    /// pair installed at the fixed child number like a `dup2` file action.
    /// The cost is O(`fds`) instead of O(the parent's table). A bad parent
    /// descriptor fails with `EBADF` before any pid is allocated.
    pub fn spawn(&mut self, parent: Pid, fds: &[(Fd, Fd)]) -> SysResult<Pid> {
        self.new_child(parent, Some(fds))
    }

    /// The body [`Kernel::fork`] and [`Kernel::spawn`] share: the charge,
    /// the `max_processes` check, pid allocation, label inheritance, the
    /// `forks` counter and the `proc_fork` hooks. `actions` picks the
    /// descriptor table: the parent's whole table (`None`) or just the
    /// listed descriptors.
    fn new_child(&mut self, parent: Pid, actions: Option<&[(Fd, Fd)]>) -> SysResult<Pid> {
        self.charge(parent)?;
        KernelStats::bump(&self.stats.forks);
        let (cred, cwd, ulimits, label, fds) = {
            let p = self.process(parent)?;
            let live = p.children.len() as u32;
            if live >= p.ulimits.max_processes {
                return Err(Errno::EAGAIN);
            }
            let fds: Vec<(Fd, OpenFile)> = match actions {
                None => p.fds.iter().map(|(fd, of)| (*fd, of.clone())).collect(),
                Some(actions) => actions
                    .iter()
                    .map(|&(src, dst)| Ok((dst, p.file(src)?.clone())))
                    .collect::<SysResult<_>>()?,
            };
            (p.cred, p.cwd, p.ulimits, p.label, fds)
        };
        let pid = self.alloc_pid()?;
        let mut child = Process::new(pid, parent, cred, cwd);
        child.ulimits = ulimits;
        child.label = label;
        for (fd, of) in fds {
            match of.object {
                FdObject::Vnode(n) => self.fs.incref(n),
                FdObject::Pipe(id, end) => {
                    let _ = self.pipes.addref(id, end == PipeEnd::Write);
                }
                FdObject::Socket(_) => {}
            }
            child.install_fd(fd, of);
        }
        let ctx = child.mac_ctx();
        self.procs.insert(pid, child);
        self.process_mut(parent)?.children.push(pid);
        for p in self.registry.iter() {
            p.proc_fork(parent, ctx);
        }
        Ok(pid)
    }

    /// Terminate a process: close descriptors, notify policies, zombify.
    /// Nobody can wait for the process's zombie children any more, and an
    /// orphan (its parent already exited) has nobody to wait for it, so
    /// both are reaped here: the process table, and the labels it holds,
    /// stay bounded by the live processes.
    pub fn exit(&mut self, pid: Pid, status: i32) {
        let (fds, ppid) = match self.procs.get(&pid) {
            Some(p) if p.alive() => (p.fds.keys().copied().collect::<Vec<Fd>>(), p.ppid),
            _ => return,
        };
        for fd in fds {
            let _ = self.close(pid, fd);
        }
        let (zombies, ctx) = match self.procs.get_mut(&pid) {
            Some(p) => {
                p.state = ProcState::Zombie(status);
                (p.children.clone(), p.mac_ctx())
            }
            None => return,
        };
        for p in self.registry.iter() {
            p.proc_exit(ctx);
        }
        // The subject is gone; its cached MAC verdicts must not linger (a
        // policy may also have scrubbed session labels, which its epoch
        // bump invalidates for the session's *other* processes).
        self.avc.drop_pid(pid);
        for child in zombies {
            if matches!(self.procs.get(&child), Some(c) if !c.alive()) {
                self.reap(pid, child);
            }
        }
        if !matches!(self.procs.get(&ppid), Some(p) if p.alive()) {
            self.reap(ppid, pid);
        }
    }

    /// Wait for a zombie child and reap it. `EAGAIN` while still running
    /// (cannot block in a synchronous simulator), `ECHILD` if not a child.
    pub fn waitpid(&mut self, parent: Pid, child: Pid) -> SysResult<i32> {
        self.charge(parent)?;
        if !self.process(parent)?.children.contains(&child) {
            return Err(Errno::ECHILD);
        }
        self.mac_proc(parent, child, ProcOp::Wait)?;
        let status = match self.process(child)?.state {
            ProcState::Zombie(s) => s,
            ProcState::Running => return Err(Errno::EAGAIN),
            ProcState::Reaped => return Err(Errno::ECHILD),
        };
        self.reap(parent, child);
        Ok(status)
    }

    /// Remove an exited `child`, and its label with it, from the process
    /// table and from `parent`'s children.
    fn reap(&mut self, parent: Pid, child: Pid) {
        self.procs.remove(&child);
        if let Some(p) = self.procs.get_mut(&parent) {
            p.children.retain(|c| *c != child);
        }
    }

    /// Send a (fatal) signal. The only delivery the simulator models is
    /// termination, which is all the case studies need.
    pub fn kill(&mut self, pid: Pid, target: Pid) -> SysResult<()> {
        self.charge(pid)?;
        if !self.procs.contains_key(&target) {
            return Err(Errno::ESRCH);
        }
        self.mac_proc(pid, target, ProcOp::Signal)?;
        self.exit(target, -9);
        Ok(())
    }

    /// Attach a debugger (ptrace-style); always refused across sessions by
    /// the SHILL policy, permitted by the bare kernel.
    pub fn pdebug(&mut self, pid: Pid, target: Pid) -> SysResult<()> {
        self.charge(pid)?;
        if !self.procs.contains_key(&target) {
            return Err(Errno::ESRCH);
        }
        self.mac_proc(pid, target, ProcOp::Debug)
    }

    /// Set ulimits on a (child) process before exec, per the paper's
    /// `exec(..., ulimit = ...)` option.
    pub fn set_ulimits(&mut self, pid: Pid, limits: Ulimits) -> SysResult<()> {
        self.process_mut(pid)?.ulimits = limits;
        Ok(())
    }

    // --- MAC helpers ------------------------------------------------------

    /// Whether the MAC helpers skip `pid` outright because no loaded policy
    /// can restrict it or wants its notifications: none is loaded, or every
    /// one is label-scoped ([`MacPolicy::label_scoped`]) and the process
    /// carries no label. Such a subject never reaches the AVC either.
    /// Inside a batch the cached context answers; a pid not in the table
    /// is not skipped, so the checks still report `ESRCH`.
    pub(crate) fn unconfined(&self, pid: Pid) -> bool {
        if self.registry.is_empty() {
            return true;
        }
        if !self.registry.label_scoped() {
            return false;
        }
        match &self.batch {
            Some(b) if b.ctx.pid == pid => b.ctx.label.is_none(),
            _ => matches!(self.procs.get(&pid), Some(p) if p.label.is_none()),
        }
    }

    pub(crate) fn mac_vnode(&self, pid: Pid, node: NodeId, op: &VnodeOp<'_>) -> SysResult<()> {
        if self.registry.is_empty() {
            return Ok(());
        }
        // Injected policy-module panic: fires before the AVC probe and the
        // policy iteration, modeling a hook that dies mid-check. Only
        // armed when a policy is actually registered (it is a *policy*
        // fault); containment is the caller's unwind boundary. It fires
        // for unlabelled subjects too, so a schedule counts the same
        // checks whatever the labels.
        if let Some(f) = &self.faults {
            f.maybe_panic(Self::fault_pid_key(pid));
        }
        if self.unconfined(pid) {
            return Ok(());
        }
        // Mutation and name-dependent ops have no class, so they always
        // reach the policies.
        self.mac_fenced(
            pid,
            ObjId::Vnode(node),
            avc_class(op),
            &self.stats.mac_vnode_checks,
            node.0,
            |p, ctx| p.vnode_check(ctx, node, op),
        )
    }

    /// Deliver a notification from `pid` to every loaded policy, unless
    /// [`Kernel::unconfined`] skips the subject.
    pub(crate) fn mac_notify(&self, pid: Pid, hook: impl Fn(&dyn MacPolicy, MacCtx)) {
        if self.unconfined(pid) {
            return;
        }
        if let Ok(ctx) = self.ctx(pid) {
            for p in self.registry.iter() {
                hook(p.as_ref(), ctx);
            }
        }
    }

    pub(crate) fn mac_post_lookup(&self, pid: Pid, dir: NodeId, name: &str, child: NodeId) {
        self.mac_notify(pid, |p, ctx| p.vnode_post_lookup(ctx, dir, name, child));
    }

    pub(crate) fn mac_post_create(
        &self,
        pid: Pid,
        dir: NodeId,
        name: &str,
        child: NodeId,
        ftype: shill_vfs::FileType,
    ) {
        self.mac_notify(pid, |p, ctx| {
            p.vnode_post_create(ctx, dir, name, child, ftype)
        });
    }

    pub(crate) fn mac_pipe(&self, pid: Pid, obj: ObjId, op: PipeOp) -> SysResult<()> {
        if self.unconfined(pid) {
            return Ok(());
        }
        // Pipe data-path verdicts are operand-free and monotone between
        // epoch bumps, so they memoize like vnode verdicts.
        self.mac_fenced(
            pid,
            obj,
            avc_pipe_class(op),
            &self.stats.mac_other_checks,
            0,
            |p, ctx| p.pipe_check(ctx, obj, op),
        )
    }

    pub(crate) fn mac_socket(&self, pid: Pid, obj: ObjId, op: &SocketOp) -> SysResult<()> {
        if self.unconfined(pid) {
            return Ok(());
        }
        // Send/Recv are cacheable; lifecycle and address-carrying checks
        // (Create/Bind/Connect/Listen/Accept) always reach the policies.
        self.mac_fenced(
            pid,
            obj,
            avc_socket_class(op),
            &self.stats.mac_other_checks,
            0,
            |p, ctx| p.socket_check(ctx, obj, op),
        )
    }

    /// One AVC-fenced MAC check against a non-empty registry, for a subject
    /// that [`Kernel::unconfined`] did not skip. A previously
    /// memoized allow for `(pid, obj, class)`, still valid at the combined
    /// epoch, answers without touching the policies. Otherwise every
    /// policy runs `check` under one `Mac` span (booking `counter` per
    /// policy), and an allow is memoized. Denials are never cached, and an
    /// op with no class, a disabled AVC or an uncacheable policy stack
    /// always takes the policy loop.
    fn mac_fenced(
        &self,
        pid: Pid,
        obj: ObjId,
        class: Option<AvcClass>,
        counter: &AtomicU64,
        span_arg: u64,
        check: impl Fn(&dyn MacPolicy, MacCtx) -> SysResult<()>,
    ) -> SysResult<()> {
        let fence = class
            .filter(|_| self.avc.enabled() && self.registry.cacheable())
            .map(|class| (class, self.registry.combined_epoch()));
        if let Some((class, epoch)) = fence {
            if self.avc.probe(pid, obj, class, epoch) {
                KernelStats::bump(&self.stats.avc_hits);
                return Ok(());
            }
            KernelStats::bump(&self.stats.avc_misses);
        }
        let ctx = self.ctx(pid)?;
        // Only checks that reach the policy modules are spanned: an AVC
        // hit returned above without touching the trace plane.
        let _mac_span = self.trace_span(TraceSite::Mac, pid.0 as u64, span_arg);
        for p in self.registry.iter() {
            KernelStats::bump(counter);
            check(p.as_ref(), ctx)?;
        }
        if let Some((class, epoch)) = fence {
            self.avc.record(pid, obj, class, epoch);
        }
        Ok(())
    }

    pub(crate) fn mac_system(&self, pid: Pid, op: &SystemOp) -> SysResult<()> {
        if self.unconfined(pid) {
            return Ok(());
        }
        let ctx = self.ctx(pid)?;
        for p in self.registry.iter() {
            KernelStats::bump(&self.stats.mac_other_checks);
            p.system_check(ctx, op)?;
        }
        Ok(())
    }

    /// `pid` acting on the process `target` (signal, wait, debug).
    fn mac_proc(&self, pid: Pid, target: Pid, op: ProcOp) -> SysResult<()> {
        if self.unconfined(pid) {
            return Ok(());
        }
        let ctx = self.ctx(pid)?;
        let target = self.process(target)?.mac_ctx();
        for p in self.registry.iter() {
            p.proc_check(ctx, target, op)?;
            KernelStats::bump(&self.stats.mac_other_checks);
        }
        Ok(())
    }

    pub(crate) fn notify_vnode_destroy(&self, node: NodeId) {
        for p in self.registry.iter() {
            p.vnode_destroy(node);
        }
        self.avc.drop_obj(ObjId::Vnode(node));
    }

    pub(crate) fn policies(&self) -> &[Arc<dyn MacPolicy>] {
        self.registry.as_slice()
    }

    /// Stats snapshot that first drains each registered policy's contention
    /// counter ([`MacPolicy::take_contention`]) into
    /// `KernelStats::policy_stripe_contention`. [`crate::shard::KernelShards::stats`]
    /// folds these per-shard snapshots under one rendezvous, so the merged
    /// view accounts every contended stripe acquisition exactly once.
    /// `self.stats.snapshot()` remains the raw, drain-free form.
    pub fn stats_snapshot(&self) -> crate::stats::StatsSnapshot {
        for p in self.registry.iter() {
            let drained = p.take_contention();
            if drained > 0 {
                KernelStats::add(&self.stats.policy_stripe_contention, drained);
            }
            let dropped = p.take_log_dropped();
            if dropped > 0 {
                KernelStats::add(&self.stats.log_dropped, dropped);
            }
        }
        if let Some(t) = &self.trace {
            let dropped = t.take_dropped();
            if dropped > 0 {
                KernelStats::add(&self.stats.trace_dropped, dropped);
            }
        }
        if let Some(f) = &self.faults {
            let (injected, survived) = f.drain();
            if injected > 0 {
                KernelStats::add(&self.stats.faults_injected, injected);
            }
            if survived > 0 {
                KernelStats::add(&self.stats.faults_survived, survived);
            }
        }
        self.stats.snapshot()
    }

    /// Deterministic pseudo-random byte source for `/dev/random`.
    pub(crate) fn next_random(&mut self) -> u8 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng & 0xFF) as u8
    }

    // --- path walking (namei) --------------------------------------------

    /// Starting node for a path: root for absolute, `dirfd`'s node when
    /// given, else the process's cwd.
    fn walk_start(&self, pid: Pid, dirfd: Option<Fd>, path: &str) -> SysResult<NodeId> {
        if path.starts_with('/') {
            return Ok(self.fs.root());
        }
        match dirfd {
            Some(fd) => self.process(pid)?.fd_node(fd),
            None => Ok(self.process(pid)?.cwd),
        }
    }

    /// Resolve one component within `cur`, performing DAC search, the MAC
    /// lookup check, `.`/`..` handling, and the post-lookup notification.
    fn walk_component(&self, pid: Pid, cred: Cred, cur: NodeId, name: &str) -> SysResult<NodeId> {
        KernelStats::bump(&self.stats.lookups);
        let dir = self.fs.node(cur)?;
        if !dir.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        if !dac::check_access(dir, cred, Access::Exec) {
            return Err(Errno::EACCES);
        }
        self.mac_vnode(pid, cur, &VnodeOp::Lookup(name))?;
        let child = match name {
            "." => cur,
            ".." => self.fs.parent_of(cur)?,
            _ => {
                KernelStats::bump(&self.stats.dir_scans);
                self.fs.lookup(cur, name)?
            }
        };
        // The paper adds mac_vnode_post_lookup precisely here: after a
        // successful lookup, so the policy can propagate privileges (or
        // decline to, for "." / "..").
        self.mac_post_lookup(pid, cur, name, child);
        Ok(child)
    }

    /// Full path resolution. With `parent_mode`, resolves the dirname and
    /// reports the final component without requiring it to exist (create/
    /// unlink/rename preparation). `follow_last` controls trailing-symlink
    /// traversal. Batched and sequential callers take the same walk: every
    /// component gets its DAC search check, MAC `Lookup` check and
    /// `post_lookup` notification. A walk allocates nothing: it iterates
    /// the path's components, and copies out the final one
    /// ([`Lookup::name`]) only in parent mode.
    pub(crate) fn namei(
        &self,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
        follow_last: bool,
        parent_mode: bool,
    ) -> SysResult<Lookup> {
        if path.is_empty() {
            return Err(Errno::ENOENT);
        }
        if path.len() > 1024 {
            return Err(Errno::ENAMETOOLONG);
        }
        // Injected resolution failure, keyed by the path string itself and
        // checked before any MAC hook: a cursed path fails identically with
        // the AVC on or off, which keeps fault schedules cache-mode-invariant.
        self.fault_check(FaultSite::Namei, path_key(path))?;
        let cred = self.process(pid)?.cred;
        let start = self.walk_start(pid, dirfd, path)?;
        let mut hops = 0u32;
        self.namei_inner(pid, cred, start, path, follow_last, parent_mode, &mut hops)
    }

    #[allow(clippy::too_many_arguments)]
    fn namei_inner(
        &self,
        pid: Pid,
        cred: Cred,
        start: NodeId,
        path: &str,
        follow_last: bool,
        parent_mode: bool,
        hops: &mut u32,
    ) -> SysResult<Lookup> {
        let mut comps = path.split('/').filter(|c| !c.is_empty()).peekable();
        let mut cur = start;
        while let Some(comp) = comps.next() {
            let last = comps.peek().is_none();
            if !shill_vfs::node::valid_component(comp) {
                return Err(Errno::ENAMETOOLONG);
            }
            if last && parent_mode {
                if comp == "." || comp == ".." {
                    return Err(Errno::EINVAL);
                }
                // Look the final component up, tolerating absence.
                let node = match self.walk_component(pid, cred, cur, comp) {
                    Ok(n) => Some(self.follow_symlinks(pid, cred, cur, n, follow_last, hops)?),
                    Err(Errno::ENOENT) => None,
                    Err(e) => return Err(e),
                };
                return Ok(Lookup {
                    parent: cur,
                    name: comp.to_string(),
                    node,
                });
            }
            let child = self.walk_component(pid, cred, cur, comp)?;
            let follow = !last || follow_last;
            cur = self.follow_symlinks(pid, cred, cur, child, follow, hops)?;
        }
        // Every component walked; a path with none ("/") names the start.
        Ok(Lookup {
            parent: start,
            name: String::new(),
            node: Some(cur),
        })
    }

    /// Iteratively resolve symlinks at `node` (looked up inside `dir`).
    fn follow_symlinks(
        &self,
        pid: Pid,
        cred: Cred,
        dir: NodeId,
        node: NodeId,
        follow: bool,
        hops: &mut u32,
    ) -> SysResult<NodeId> {
        if !follow {
            return Ok(node);
        }
        let mut cur = node;
        while self.fs.node(cur)?.is_symlink() {
            *hops += 1;
            if *hops > MAX_SYMLINK_HOPS {
                return Err(Errno::ELOOP);
            }
            self.mac_vnode(pid, cur, &VnodeOp::ReadSymlink)?;
            let target = self.fs.readlink(cur)?;
            let base = if target.starts_with('/') {
                self.fs.root()
            } else {
                dir
            };
            let res = self.namei_inner(pid, cred, base, &target, true, false, hops)?;
            cur = res.node.ok_or(Errno::ENOENT)?;
        }
        Ok(cur)
    }

    /// Resolve a path to an existing node (convenience over `namei`).
    pub fn resolve(
        &self,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
        follow: bool,
    ) -> SysResult<NodeId> {
        self.namei(pid, dirfd, path, follow, false)?
            .node
            .ok_or(Errno::ENOENT)
    }

    // --- descriptor plumbing shared by syscalls ---------------------------

    /// Install an open vnode descriptor, bumping the open reference.
    pub(crate) fn install_vnode_fd(
        &mut self,
        pid: Pid,
        node: NodeId,
        readable: bool,
        writable: bool,
        append: bool,
    ) -> SysResult<Fd> {
        self.fs.incref(node);
        let p = self.process_mut(pid)?;
        let fd = match p.alloc_fd() {
            Ok(fd) => fd,
            Err(e) => {
                self.fs.decref(node);
                return Err(e);
            }
        };
        let p = self.process_mut(pid)?;
        p.install_fd(
            fd,
            OpenFile {
                object: FdObject::Vnode(node),
                offset: 0,
                readable,
                writable,
                append,
            },
        );
        Ok(fd)
    }

    /// Inspect what a descriptor refers to (used when granting capabilities
    /// backed by pipes/sockets to sandbox sessions).
    pub fn fd_object(&self, pid: Pid, fd: Fd) -> SysResult<FdObject> {
        Ok(self.process(pid)?.file(fd)?.object.clone())
    }

    /// Duplicate an open descriptor from one process into another at a fixed
    /// descriptor number (stdio wiring for sandboxed children). Reference
    /// counts are bumped like `dup2` across a fork would.
    pub fn transfer_fd(&mut self, src: Pid, src_fd: Fd, dst: Pid, dst_fd: Fd) -> SysResult<()> {
        let of = self.process(src)?.file(src_fd)?.clone();
        match of.object {
            FdObject::Vnode(n) => self.fs.incref(n),
            FdObject::Pipe(id, end) => self.pipes.addref(id, end == PipeEnd::Write)?,
            FdObject::Socket(_) => {}
        }
        self.process_mut(dst)?.install_fd(dst_fd, of);
        Ok(())
    }

    /// The queue on which descriptor owners outside the kernel (capability
    /// handles) defer their closes; see [`CloseQueue`].
    pub fn close_queue(&self) -> CloseQueue {
        self.closes.get_or_init(CloseQueue::default).clone()
    }

    /// Close every descriptor queued on [`Kernel::close_queue`] since the
    /// last drain. A descriptor whose process already exited (its table
    /// closed wholesale) is skipped.
    pub fn drain_closes(&mut self) {
        let Some(q) = self.closes.get() else { return };
        let mut closing = std::mem::take(&mut self.closing);
        q.take_into(&mut closing);
        for &(pid, fd) in &closing {
            let _ = self.close(pid, fd);
        }
        closing.clear();
        self.closing = closing;
    }

    /// Close a descriptor, releasing the underlying object reference.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> SysResult<()> {
        let of = self.process_mut(pid)?.fds.remove(&fd).ok_or(Errno::EBADF)?;
        match of.object {
            FdObject::Vnode(n) => {
                let existed = self.fs.exists(n);
                self.fs.decref(n);
                if existed && !self.fs.exists(n) {
                    self.notify_vnode_destroy(n);
                }
            }
            FdObject::Pipe(id, end) => {
                self.pipes.release(id, end == PipeEnd::Write);
                // Conservative hygiene: cached pipe verdicts die with the
                // descriptor (losing a cache entry is always safe).
                self.avc.drop_obj(ObjId::Pipe(id));
            }
            FdObject::Socket(s) => {
                self.net.close(s);
                self.avc.drop_obj(ObjId::Socket(s));
            }
        }
        Ok(())
    }
}

/// The whole point of the thread-safe state conversion: a kernel can be
/// moved to (and shared between) session worker threads. Everything
/// interior-mutable inside it is an atomic or a lock-guarded map.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Kernel>();
    assert_send_sync::<KernelStats>();
    assert_send_sync::<Avc>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpenFlags;

    #[test]
    fn new_kernel_has_devices_and_init() {
        let k = Kernel::new();
        assert!(k.fs.resolve_abs("/dev/null").is_ok());
        assert!(k.fs.resolve_abs("/dev/tty").is_ok());
        assert!(k.fs.resolve_abs("/tmp").is_ok());
        assert!(k.process(Pid(1)).is_ok());
    }

    #[test]
    fn each_drain_closes_exactly_the_descriptors_queued_since_the_last() {
        let mut k = Kernel::new();
        let u = k.spawn_user(Cred::ROOT);
        let fds: Vec<Fd> = (0..4)
            .map(|_| k.open(u, "/dev/null", OpenFlags::RDONLY, Mode(0)).unwrap())
            .collect();
        let open = |k: &Kernel| -> Vec<Fd> {
            fds.iter()
                .copied()
                .filter(|fd| k.process(u).unwrap().file(*fd).is_ok())
                .collect()
        };
        let q = k.close_queue();
        k.drain_closes();
        assert_eq!(open(&k), fds, "nothing queued, nothing closed");
        q.push(u, fds[2]);
        q.push(u, fds[0]);
        k.drain_closes();
        assert_eq!(open(&k), [fds[1], fds[3]]);
        q.push(u, fds[3]);
        k.drain_closes();
        assert_eq!(open(&k), [fds[1]]);
        k.drain_closes();
        assert_eq!(open(&k), [fds[1]]);
    }

    #[test]
    fn spawn_and_fork_lineage() {
        let mut k = Kernel::new();
        let u = k.spawn_user(Cred::user(100));
        let c = k.fork(u).unwrap();
        assert_eq!(k.process(c).unwrap().ppid, u);
        assert!(k.process(u).unwrap().children.contains(&c));
    }

    #[test]
    fn waitpid_reaps_zombie() {
        let mut k = Kernel::new();
        let u = k.spawn_user(Cred::user(100));
        let c = k.fork(u).unwrap();
        assert_eq!(k.waitpid(u, c).unwrap_err(), Errno::EAGAIN);
        k.exit(c, 7);
        assert_eq!(k.waitpid(u, c).unwrap(), 7);
        assert_eq!(k.waitpid(u, c).unwrap_err(), Errno::ECHILD);
        assert!(k.process(c).is_err());
    }

    #[test]
    fn kill_terminates() {
        let mut k = Kernel::new();
        let u = k.spawn_user(Cred::user(100));
        let c = k.fork(u).unwrap();
        k.kill(u, c).unwrap();
        assert_eq!(k.waitpid(u, c).unwrap(), -9);
    }

    #[test]
    fn pid_allocation_never_bleeds_into_the_next_shard_stride() {
        let mut k = Kernel::new_shard(1);
        // Fast-forward the allocator to the end of shard 1's range: the
        // last in-range pid is handed out, then allocation fails with
        // EAGAIN instead of bleeding into shard 2's stride (which would
        // misroute the pid and could alias shard 2's policy labels).
        k.next_pid = 2 * crate::shard::SHARD_PID_STRIDE - 2;
        let u = k.spawn_user(Cred::user(100));
        assert_eq!(u.0, 2 * crate::shard::SHARD_PID_STRIDE - 1);
        assert_eq!(k.fork(u).unwrap_err(), Errno::EAGAIN);
    }

    #[test]
    fn cpu_ulimit_trips() {
        let mut k = Kernel::new();
        let u = k.spawn_user(Cred::user(100));
        k.set_ulimits(
            u,
            Ulimits {
                max_cpu_ticks: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(k.fork(u).is_ok()); // tick 1
        let r2 = k.fork(u); // tick 2
        assert!(r2.is_ok());
        assert_eq!(k.fork(u).unwrap_err(), Errno::EAGAIN); // tick 3 > 2
    }

    #[test]
    fn label_is_inherited_and_leaves_with_the_process() {
        let mut k = Kernel::new();
        let u = k.spawn_user(Cred::user(100));
        assert_eq!(k.process(u).unwrap().label(), None);
        let l = NonZeroU64::new(7);
        assert_eq!(k.set_label(u, l), Ok(()));
        let forked = k.fork(u).unwrap();
        let spawned = k.spawn(u, &[]).unwrap();
        assert_eq!(k.process(forked).unwrap().label(), l);
        assert_eq!(k.process(spawned).unwrap().mac_ctx().label, l);
        let fresh = k.spawn_user(Cred::user(100));
        assert_eq!(k.process(fresh).unwrap().label(), None);
        // The zombie keeps its label for the parent's wait; the reap drops
        // it with the table entry, and an orphan is reaped at its exit.
        k.exit(forked, 0);
        assert_eq!(k.process(forked).unwrap().label(), l);
        assert_eq!(k.waitpid(u, forked), Ok(0));
        assert!(k.process(forked).is_err());
        k.exit(u, 0);
        k.exit(spawned, 0);
        assert!(k.process(spawned).is_err());
        assert_eq!(k.set_label(spawned, None), Err(Errno::ESRCH));
    }

    #[test]
    fn policy_registry_load_unload() {
        let mut k = Kernel::new();
        k.register_policy(Arc::new(crate::mac::NullPolicy));
        assert!(k.has_policy("null"));
        assert!(k.unregister_policy("null"));
        assert!(!k.has_policy("null"));
        assert!(!k.unregister_policy("null"));
    }
}
