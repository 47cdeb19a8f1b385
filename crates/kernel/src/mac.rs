//! The MAC framework: the simulated analogue of the TrustedBSD MAC
//! framework the paper builds its sandbox on (§3.2).
//!
//! The framework "allows FreeBSD's access control mechanisms to be extended
//! with third-party mandatory access control policies by mediating access to
//! sensitive kernel objects and invoking access control checks specified by
//! third-party policy modules". Here, policy modules implement [`MacPolicy`]
//! and the kernel invokes each hook at the same points the TrustedBSD
//! framework would, including the two hooks the paper *added*:
//! `mac_vnode_post_lookup` and `mac_vnode_post_create` (§3.2.2).
//!
//! Labels: TrustedBSD attaches policy-agnostic labels to kernel objects
//! and keeps a subject's label on its credential. Here each process has one
//! label slot: an opaque non-zero word the labelling policy assigns
//! ([`crate::Kernel::set_label`]), inherited by `fork` and `spawn` and
//! dropped with the process. [`MacCtx`] carries it to every hook. A policy
//! that confines only labelled subjects says so once
//! ([`MacPolicy::label_scoped`]); when every loaded policy does, the kernel
//! answers an unlabelled subject's checks without the access-vector cache
//! or the policy loop. Object labels stay in the policies' own tables keyed
//! by [`crate::types::ObjId`] (interior mutability behind `&self` hooks),
//! which is observationally equivalent and avoids threading label storage
//! through every kernel object.

use std::num::NonZeroU64;

use shill_vfs::{Cred, Errno, FileType, NodeId, SysResult};

use crate::types::{ObjId, Pid, SockAddr, SockDomain};

/// Subject context passed to every hook: which process is acting, under
/// which credentials, and with which label (`None` when no policy has
/// labelled it). The SHILL sandbox stores a session id in the label, so a
/// hook reads the subject's session as a field.
#[derive(Debug, Clone, Copy)]
pub struct MacCtx {
    pub pid: Pid,
    pub cred: Cred,
    pub label: Option<NonZeroU64>,
}

/// Vnode operations mediated by the framework. Each corresponds to one
/// `mac_vnode_check_*` entry point; the SHILL policy maps these onto its
/// twenty-four filesystem privileges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VnodeOp<'a> {
    /// Read file contents.
    Read,
    /// Write file contents. NOTE: the framework "exposes a single entry
    /// point for operations that write to filesystem objects" (§3.2.3), so
    /// the kernel emits `Write` for both write and append system calls and
    /// policies cannot distinguish them. (The SHILL *language* can.)
    Write,
    /// Execute a file image.
    Exec,
    /// Read metadata (`stat`).
    Stat,
    /// Look up `name` within a directory.
    Lookup(&'a str),
    /// Enumerate directory entries.
    ReadDir,
    /// Create a regular file named `name` in a directory.
    CreateFile(&'a str),
    /// Create a subdirectory.
    CreateDir(&'a str),
    /// Create a symlink.
    CreateSymlink(&'a str),
    /// Remove the file link `name` from a directory.
    UnlinkFile(&'a str),
    /// Remove the subdirectory `name`.
    UnlinkDir(&'a str),
    /// Remove the symlink `name`.
    UnlinkSymlink(&'a str),
    /// Install a hard link named `name` to an existing file.
    Link(&'a str),
    /// Move an entry out of this directory (rename source side).
    RenameFrom(&'a str),
    /// Move an entry into this directory (rename destination side).
    RenameTo(&'a str),
    /// Change permission bits.
    Chmod,
    /// Change ownership.
    Chown,
    /// Change file flags (`chflags`).
    Chflags,
    /// Change timestamps.
    Utimes,
    /// Truncate or extend the file.
    Truncate,
    /// Read a symlink target.
    ReadSymlink,
    /// Use the directory as working directory (`chdir`).
    Chdir,
    /// Translate the vnode back to a path (the paper's new `path` syscall).
    PathLookup,
}

/// Socket-level operations (`mac_socket_check_*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketOp {
    Create(SockDomain),
    Bind(SockAddr),
    Connect(SockAddr),
    Listen,
    Accept,
    Send,
    Recv,
}

/// Pipe operations (`mac_pipe_check_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeOp {
    Read,
    Write,
    Stat,
}

/// Process-on-process operations (`mac_proc_check_*`); the target
/// process reaches the hook as its own [`MacCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcOp {
    Signal,
    Wait,
    Debug,
}

/// Global (non-object) surfaces a policy may restrict; paper Figure 7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemOp {
    /// `sysctl` read.
    SysctlRead(String),
    /// `sysctl` write.
    SysctlWrite(String),
    /// Kernel environment access (`kenv`).
    KernelEnv,
    /// Kernel module load/unload (`kldload`/`kldunload`).
    KernelModule,
    /// POSIX IPC objects (shm/sem/mq).
    PosixIpc,
    /// System V IPC objects.
    SysvIpc,
}

/// A mandatory access control policy module.
///
/// All check hooks return `Ok(())` to permit; an `Err` veto aborts the system
/// call with that errno (the framework composes policies by conjunction,
/// exactly like TrustedBSD). Notification hooks (`post_*`, lifecycle) return
/// nothing. Hooks take `&self`: policies use interior mutability for their
/// label state, as label updates happen inside read-path system calls.
pub trait MacPolicy: Send + Sync {
    /// Short policy name (e.g. `"shill"`), used in logs.
    fn name(&self) -> &str;

    // --- access-vector cache contract -----------------------------------
    /// Whether this policy's *allow* verdicts may be memoized by the
    /// kernel's access-vector cache ([`crate::avc`]). Opting in promises:
    ///
    /// * vnode verdicts depend only on the subject process, the vnode, and
    ///   the operation *class* (not on lookup/create component names);
    /// * between bumps of [`MacPolicy::cache_epoch`], the policy's
    ///   authority only grows (privilege propagation, debug auto-grants) —
    ///   an operation once allowed stays allowed.
    ///
    /// Defaults to `false`: an unknown third-party policy disables the AVC
    /// entirely rather than risk caching around a revocation.
    fn decisions_cacheable(&self) -> bool {
        false
    }

    /// Whether this policy confines only labelled subjects. Opting in
    /// promises that it permits every check from a process without a label
    /// and ignores every notification from one. When every loaded policy
    /// opts in, the kernel skips the access-vector cache and the policy loop
    /// for an unlabelled subject; [`MacPolicy::vnode_destroy`] and the
    /// process lifecycle hooks are still delivered.
    ///
    /// Defaults to `false`: an unknown policy mediates every process.
    fn label_scoped(&self) -> bool {
        false
    }

    /// Monotonic counter a cacheable policy bumps whenever authority could
    /// *shrink* — e.g. a session being entered (permissive → restricted) or
    /// reclaimed (labels scrubbed). Every bump invalidates all cached
    /// verdicts. Constant for policies whose verdicts are never revoked.
    fn cache_epoch(&self) -> u64 {
        0
    }

    /// Drain the number of *contended* internal lock acquisitions the
    /// policy accumulated since the last drain (a striped policy counts an
    /// acquisition whose `try_lock` probe found the stripe held). The
    /// kernel pulls this at snapshot time and folds it into
    /// `KernelStats::policy_stripe_contention`; draining (return-and-reset)
    /// keeps the aggregate exact even with one policy attached to many
    /// shards. Policies without internal striping report 0.
    fn take_contention(&self) -> u64 {
        0
    }

    /// Drain the number of audit-log events the policy discarded because
    /// its bounded log ring was full (see `SHILL_LOG_CAP` in the sandbox
    /// crate). Pulled at snapshot time into `KernelStats::log_dropped`,
    /// with the same return-and-reset discipline as
    /// [`MacPolicy::take_contention`]. Policies without an audit log
    /// report 0.
    fn take_log_dropped(&self) -> u64 {
        0
    }

    /// The kernel's tracing plane ([`crate::trace::TracePlane`]) was
    /// armed; policies that instrument their own waits (e.g. stripe-lock
    /// contention spans) keep the handle. Called once per
    /// `set_trace_plane`/`register_policy` pairing; the default ignores
    /// it.
    fn attach_trace(&self, _plane: &std::sync::Arc<crate::trace::TracePlane>) {}

    // --- checks ---------------------------------------------------------
    fn vnode_check(&self, _ctx: MacCtx, _node: NodeId, _op: &VnodeOp<'_>) -> SysResult<()> {
        Ok(())
    }
    /// `ctx.pid` creates a pipe pair: the right a pipe factory grants
    /// (§3.1.1). A lifecycle check on no object yet, so it is never cached.
    fn pipe_check_create(&self, _ctx: MacCtx) -> SysResult<()> {
        Ok(())
    }

    fn pipe_check(&self, _ctx: MacCtx, _pipe: ObjId, _op: PipeOp) -> SysResult<()> {
        Ok(())
    }
    fn socket_check(&self, _ctx: MacCtx, _sock: ObjId, _op: &SocketOp) -> SysResult<()> {
        Ok(())
    }
    /// `ctx` acts on the process `target` (a zombie, for `Wait`).
    fn proc_check(&self, _ctx: MacCtx, _target: MacCtx, _op: ProcOp) -> SysResult<()> {
        Ok(())
    }
    fn system_check(&self, _ctx: MacCtx, _op: &SystemOp) -> SysResult<()> {
        Ok(())
    }

    // --- notifications --------------------------------------------------
    /// Invoked after a lookup completes successfully; the paper added this
    /// hook so the policy can propagate privileges to the child vnode.
    fn vnode_post_lookup(&self, _ctx: MacCtx, _dir: NodeId, _name: &str, _child: NodeId) {}

    /// Invoked after a create completes successfully (paper-added hook).
    fn vnode_post_create(
        &self,
        _ctx: MacCtx,
        _dir: NodeId,
        _name: &str,
        _child: NodeId,
        _ftype: FileType,
    ) {
    }

    /// A batched submission ([`crate::batch`]) completed for `ctx.pid`.
    /// `outcomes` has one slot per entry, `None` for success and the errno
    /// otherwise; `dag` holds the layering the submission executed in
    /// ([`crate::BatchDag::waves`]: slot indices per wave — a single wave
    /// for a flat batch, one wave per link for an `&&` chain). Policies with an audit
    /// log record one span per batch instead of one event per call, split
    /// per wave. `wave_ns` carries one execution duration per wave in
    /// nanoseconds when the tracing plane measured them (zeros otherwise —
    /// timing is observability, never policy input).
    fn batch_complete(
        &self,
        _ctx: MacCtx,
        _outcomes: &[Option<Errno>],
        _dag: &crate::BatchDag,
        _wave_ns: &[u64],
    ) {
    }

    /// A pipe pair was created by `ctx.pid`.
    fn pipe_post_create(&self, _ctx: MacCtx, _pipe: ObjId) {}

    /// A socket was created by `ctx.pid`.
    fn socket_post_create(&self, _ctx: MacCtx, _sock: ObjId) {}

    /// A vnode is being reclaimed; drop labels.
    fn vnode_destroy(&self, _node: NodeId) {}

    // --- process lifecycle ----------------------------------------------
    /// `child` was created by `parent` (`fork`, `spawn`, or a top-level
    /// user process under init), carrying the label it inherited.
    fn proc_fork(&self, _parent: Pid, _child: MacCtx) {}

    /// `ctx.pid` exited; release per-process state (session membership
    /// etc.). The kernel calls it once per process. The zombie keeps its
    /// label until it is reaped, so its parent's `waitpid` check still
    /// sees it.
    fn proc_exit(&self, _ctx: MacCtx) {}
}

/// A do-nothing policy used by tests to verify hook plumbing and by the
/// "SHILL installed" benchmark configuration (module loaded, no sandbox).
#[derive(Debug, Default)]
pub struct NullPolicy;

impl MacPolicy for NullPolicy {
    fn name(&self) -> &str {
        "null"
    }

    fn decisions_cacheable(&self) -> bool {
        true // allows everything, forever: trivially monotone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_vfs::Cred;

    #[test]
    fn null_policy_permits_everything() {
        let p = NullPolicy;
        let ctx = MacCtx {
            pid: Pid(1),
            cred: Cred::ROOT,
            label: None,
        };
        assert!(p.vnode_check(ctx, NodeId(1), &VnodeOp::Read).is_ok());
        assert!(p
            .socket_check(
                ctx,
                ObjId::Socket(crate::types::SockId(1)),
                &SocketOp::Listen
            )
            .is_ok());
        assert!(p.system_check(ctx, &SystemOp::KernelModule).is_ok());
    }
}
