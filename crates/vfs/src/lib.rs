//! # shill-vfs
//!
//! Simulated filesystem substrate for the SHILL (OSDI 2014) reproduction.
//!
//! The original SHILL prototype enforces its capability-based sandbox inside
//! the FreeBSD 9.2 kernel. This crate provides the filesystem half of our
//! simulated kernel: vnodes (files, directories, symlinks, character
//! devices, socket bind points), discretionary access control, link-count
//! and name-cache maintenance, and the structural operations
//! (`lookup`/`create`/`link`/`unlink`/`rename`/`read`/`write`/...) from
//! which `shill-kernel` builds its system-call surface.
//!
//! Layering rule: this crate is *mechanism only* — it never checks DAC or
//! MAC itself. The kernel performs `dac::check_access` and invokes the MAC
//! framework's hooks before calling in, mirroring how `ufs` sits under the
//! TrustedBSD MAC framework.

pub mod dac;
pub mod errno;
pub mod fault;
pub mod fs;
pub mod node;
pub mod sync;
pub mod types;

pub use errno::{Errno, SysResult};
pub use fault::{FaultHook, IoFault, SharedFaultHook};
pub use fs::Filesystem;
pub use node::{DeviceKind, NodeBody, Vnode};
pub use types::{Access, Cred, FileType, Gid, Mode, NodeId, Stat, Timestamp, Uid};
