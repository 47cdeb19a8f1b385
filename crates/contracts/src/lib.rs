//! # shill-contracts
//!
//! Contract runtime for the SHILL reproduction: blame assignment
//! ([`Blame`], [`Violation`]), the capability-proxy layer ([`GuardedCap`])
//! that enforces capability contracts at every operation, and dynamic seals
//! ([`SealBrand`]) backing bounded parametric-polymorphic contracts.
//!
//! The contract *syntax* and function-contract enforcement live in
//! `shill-core` (they are inseparable from the interpreter's value type);
//! this crate holds the security-critical enforcement machinery.

pub mod blame;
pub mod guard;
pub mod seal;

pub use blame::{Blame, ContractText, Party, Violation};
pub use guard::{CapError, CapResult, Guard, GuardedCap};
pub use seal::SealBrand;
