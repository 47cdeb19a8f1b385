//! # shill-cap
//!
//! Language-level capabilities for the SHILL reproduction: the privilege
//! vocabulary (24 filesystem + 7 socket privileges, §3.1.1), recursive
//! privilege descriptions with `with { ... }` derivation modifiers,
//! fd-backed raw capabilities (files, directories, pipe ends, sockets, and
//! the pipe/socket factories), and the privilege↔MAC-operation alignment
//! table shared with the sandbox policy.

pub mod capprivs;
pub mod mapping;
pub mod privs;
pub mod rawcap;

pub use capprivs::CapPrivs;
pub use mapping::{pipe_op_priv, socket_op_priv, vnode_op_priv};
pub use privs::{filesystem_privs, socket_privs, Priv, PrivSet, ALL_PRIVS};
pub use rawcap::{CapKind, CapObj, Name, RawCap};
