//! # shill-sandbox
//!
//! The SHILL capability-based sandbox, implemented as a policy module for
//! the simulated MAC framework (paper §3.2). Provides:
//!
//! * [`ShillPolicy`] — the policy module: sessions, per-object privilege
//!   maps, propagation via the post-lookup/post-create hooks, the `..`/`.`
//!   and no-amplification rules, process confinement, Figure 7's system
//!   surface policy, audit logging and debug mode;
//! * [`harness`] — the fork / `shill_init` / grant / `shill_enter` / exec
//!   choreography the SHILL runtime performs;
//! * [`policyfile`] — the policy-file format of the command-line debugging
//!   tool;
//! * [`executor`] — concurrent execution against a [`KernelShards`] set:
//!   [`run_sessions`] drives sandboxed sessions on worker threads. A
//!   scheduled batch job runs on the thread that submits it, wave by
//!   wave, through [`KernelShards::run_job`].

pub mod executor;
pub mod harness;
pub mod log;
pub mod policy;
pub mod policyfile;
pub mod session;
pub mod sync;

pub use executor::{run_sessions, SessionBody, SessionOutcome, SessionTask};
pub use harness::{run_sandboxed, setup_sandbox, Grant, Sandbox, SandboxSpec};
pub use log::{BatchWaveAudit, LogEvent, SandboxLog, DEFAULT_LOG_CAP, SHILL_LOG_CAP_ENV};
pub use policy::{PolicyStats, ShillPolicy, DEFAULT_POLICY_STRIPES, MAX_POLICY_STRIPES};
pub use policyfile::{build_spec, parse_policy, ParseError, Rule};
pub use session::{Session, SessionId};
pub use shill_kernel::KernelShards;
