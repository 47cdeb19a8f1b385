//! # shill-kernel
//!
//! The simulated commodity kernel the SHILL reproduction runs on: processes
//! and descriptors, a full `*at` system-call surface (plus the paper's new
//! `flinkat`, `funlinkat`, `frenameat`, fd-returning `mkdirat`, and `path`
//! syscalls), anonymous pipes, a socket layer with simulated remote hosts,
//! and a TrustedBSD-style MAC framework ([`mac::MacPolicy`]) with the two
//! hooks the paper added (`vnode_post_lookup`, `vnode_post_create`).
//!
//! The SHILL sandbox itself is a *policy module* implemented in the
//! `shill-sandbox` crate; this crate is policy-agnostic.

pub mod avc;
#[warn(missing_docs)]
pub mod batch;
#[warn(missing_docs)]
pub mod fault;
#[warn(missing_docs)]
pub mod hist;
pub mod kernel;
pub mod mac;
pub mod net;
pub mod pipe;
pub mod process;
pub mod registry;
#[warn(missing_docs)]
pub mod sched;
#[warn(missing_docs)]
pub mod shard;
pub mod stats;
pub mod syscalls;
#[warn(missing_docs)]
pub mod trace;
pub mod types;

pub use avc::{avc_class, avc_pipe_class, avc_socket_class, Avc, AvcClass};
pub use batch::{BatchArg, BatchEntry, BatchFd, BatchOut, FailMode, SyscallBatch};
pub use fault::{path_key, FaultPlane, FaultSite};
pub use hist::{HistSnapshot, LatencyHist, SiteHists, SiteHistsSnapshot, HIST_BUCKETS};
pub use kernel::{ExecHandler, Kernel, Lookup, SYSCTL_AVC};
pub use mac::{MacCtx, MacPolicy, NullPolicy, PipeOp, ProcOp, SocketOp, SystemOp, VnodeOp};
pub use net::{InjConnId, RemoteHandler};
pub use process::{CloseQueue, FdObject, OpenFile, ProcState, Process};
pub use registry::PolicyRegistry;
pub use sched::{BatchDag, ScheduledRun};
pub use shard::{
    shard_count_from_env, KernelShards, MAX_SHARDS, SHARD_OBJ_STRIDE, SHARD_PID_STRIDE,
    SHILL_SHARDS_ENV,
};
pub use stats::{KernelStats, StatsSnapshot};
pub use trace::{
    trace_now_ns, Telemetry, TraceEvent, TraceKind, TracePlane, TraceScope, TraceSite,
    DEFAULT_TRACE_CAP,
};
pub use types::{
    Fd, ObjId, OpenFlags, Pid, PipeEnd, PipeId, SockAddr, SockDomain, SockId, Ulimits,
};
