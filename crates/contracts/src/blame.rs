//! Blame assignment (paper §2.2).
//!
//! "Each contract establishes an agreement between two parties: the provider
//! of the value with the contract and the value's consumer. ... If a
//! contract is violated, the SHILL runtime aborts execution and, to help
//! with auditing and debugging, indicates which part of the script failed to
//! meet its obligations."

use std::fmt;
use std::sync::Arc;

/// The two contractual parties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Party {
    /// The provider of the value (must deliver at least what the contract
    /// promises — e.g. a capability that really has the privileges).
    Provider,
    /// The consumer (must use the value within the contract — e.g. never
    /// exercise a privilege the contract withholds).
    Consumer,
}

/// The source text of the contract a blame cites, e.g.
/// `cur : dir(+contents, +lookup with {+path})`. Most contracts are never
/// violated, so a blame keeps the contract itself and renders the text
/// only when a [`Violation`] is built or a contracted value is displayed.
pub trait ContractText: Send + Sync {
    fn render(&self) -> String;
}

impl ContractText for String {
    fn render(&self) -> String {
        self.clone()
    }
}

/// Identities attached to one contract boundary.
#[derive(Clone)]
pub struct Blame {
    /// Name of the providing side (e.g. the ambient script or caller).
    pub provider: String,
    /// Name of the consuming side (e.g. the capability-safe script).
    pub consumer: String,
    contract: Arc<dyn ContractText>,
}

impl Blame {
    /// A blame citing contract text that is already rendered.
    pub fn new(
        provider: impl Into<String>,
        consumer: impl Into<String>,
        contract: impl Into<String>,
    ) -> Arc<Blame> {
        Blame::citing(provider, consumer, Arc::new(contract.into()))
    }

    /// A blame citing a contract that renders its text when asked.
    pub fn citing(
        provider: impl Into<String>,
        consumer: impl Into<String>,
        contract: Arc<dyn ContractText>,
    ) -> Arc<Blame> {
        Arc::new(Blame {
            provider: provider.into(),
            consumer: consumer.into(),
            contract,
        })
    }

    /// The cited contract's source text.
    pub fn contract(&self) -> String {
        self.contract.render()
    }

    /// Swap the parties: used when a value flows *out* of a component (a
    /// function argument position reverses obligations — standard
    /// higher-order contract blame).
    pub fn swapped(&self) -> Arc<Blame> {
        Blame::citing(
            self.consumer.clone(),
            self.provider.clone(),
            Arc::clone(&self.contract),
        )
    }
}

impl fmt::Debug for Blame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Blame")
            .field("provider", &self.provider)
            .field("consumer", &self.consumer)
            .field("contract", &self.contract())
            .finish()
    }
}

/// A contract violation: who broke which promise, doing what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub blamed: Party,
    pub blamed_name: String,
    pub contract: String,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "contract violation: {} broke the contract `{}`: {}",
            self.blamed_name, self.contract, self.message
        )
    }
}

impl std::error::Error for Violation {}

impl Violation {
    pub fn consumer(blame: &Blame, message: impl Into<String>) -> Violation {
        Violation {
            blamed: Party::Consumer,
            blamed_name: blame.consumer.clone(),
            contract: blame.contract(),
            message: message.into(),
        }
    }

    pub fn provider(blame: &Blame, message: impl Into<String>) -> Violation {
        Violation {
            blamed: Party::Provider,
            blamed_name: blame.provider.clone(),
            contract: blame.contract(),
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swapped_reverses_parties() {
        let b = Blame::new("user", "script", "cur : is_dir");
        let s = b.swapped();
        assert_eq!(s.provider, "script");
        assert_eq!(s.consumer, "user");
        assert_eq!(s.contract(), b.contract());
    }

    #[test]
    fn violation_message_names_the_party() {
        let b = Blame::new("user", "find_jpg", "out : file(+append)");
        let v = Violation::consumer(&b, "attempted +read");
        let text = v.to_string();
        assert!(text.contains("find_jpg"));
        assert!(text.contains("out : file(+append)"));
        assert!(text.contains("+read"));
        let p = Violation::provider(&b, "capability lacks +append");
        assert!(p.to_string().contains("user"));
    }
}
