//! Multi-tenant SHILL server front-end.
//!
//! The ROADMAP's production front door: SHILL as a long-running service
//! that accepts framed requests over TCP and Unix sockets, authenticates
//! each connection through a pluggable factor gate ([`auth::AuthFactor`]),
//! attaches a per-tenant capability policy and ulimit quota, and
//! multiplexes the resulting sandboxed sessions onto the sharded kernel.
//! Each request runs on its connection's own thread, as a system call
//! runs in its calling process.
//!
//! Layering:
//!
//! * [`proto`] — the wire format: length-prefixed frames with UTF-8 text
//!   payloads, plus the request grammar and typed responses.
//! * [`auth`] — the factor trait (the shape of `sibsecsh`'s auth gate)
//!   and stock factors. Passing the gate is what leads to `shill_enter`:
//!   an authenticated connection gets a freshly forked, granted, entered
//!   session pinned to a kernel shard.
//! * [`core`] — [`core::ServerCore`], the transport-independent engine:
//!   admission control, per-tenant backpressure, the charge-meter quota
//!   (the kernel's ulimit machinery), frame dispatch through
//!   `KernelShards::run_job`, and graceful drain. Also the per-tenant
//!   telemetry counters.
//! * [`net`] — the socket front-end ([`net::Server`]): accept loops,
//!   per-connection handlers, and a small blocking [`net::Client`] used
//!   by the tests, the load-generator bench, and the CI smoke.
//!
//! Observability and fault injection are wired from day one: accepts,
//! auth attempts, and dispatches are trace sites
//! (`shill_kernel::TraceSite::{Accept, Auth, Dispatch}`), dispatch
//! latency feeds the `dispatch` histogram, and every kernel-side fault
//! schedule (including the `fence` rendezvous site) applies to server
//! traffic unchanged because dispatch rides the same wave scheduler.

pub mod auth;
pub mod core;
pub mod net;
pub mod proto;

pub use crate::core::{
    ServerConfig, ServerCore, ServerError, SessionHandle, TenantCountersSnapshot, TenantQuota,
    TenantSpec,
};
pub use auth::{AllowAll, AuthFactor, ChainAll, StaticTokens};
pub use net::{Client, Server};
pub use proto::{read_frame, write_frame, FrameError, Request, MAX_FRAME_DEFAULT};
