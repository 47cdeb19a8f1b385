//! # shill-core
//!
//! The SHILL language (OSDI 2014), reproduced in Rust: lexer, parser, and
//! tree-walking evaluator for the capability-safe and ambient dialects;
//! contract enforcement at function and module boundaries (including
//! bounded parametric polymorphism with dynamic sealing); the builtin
//! capability operations; the `exec` sandbox launcher; and the standard
//! library (`shill/native` wallets, `shill/contracts` abbreviations,
//! `shill/filesys` helpers).

pub mod ast;
pub mod batchio;
pub mod builtins;
pub mod env;
pub mod eval;
pub mod lex;
pub mod parse;
pub mod profile;
mod resolve;
pub mod runtime;
pub mod stdlib;
pub mod value;

pub use ast::{ContractExpr, Dialect, Script};
pub use env::Env;
pub use eval::Interp;
pub use parse::{parse_contract, parse_script, ParseError};
pub use profile::Profile;
pub use runtime::{RuntimeConfig, ShillRuntime};
pub use value::{EvalResult, ShillError, Value};
