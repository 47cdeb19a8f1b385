//! Re-export of the workspace's `parking_lot`-style mutex shim.
//!
//! The wrapper itself lives in `shill_vfs::sync` (the lowest crate) so the
//! kernel's AVC/batch state and this crate's policy lock share one
//! primitive; the historical `shill_sandbox::sync::Mutex` path
//! keeps working for existing users.

pub use shill_vfs::sync::{Mutex, RwLock};
