//! Runtime values.
//!
//! Capability safety at the value level (§2.1): there is no constructor from
//! strings to capabilities, capabilities have no serialized form
//! (`to_display` renders an opaque token), and the interpreter offers no
//! mutable variables — so "SHILL scripts cannot store or share capabilities
//! through memory, the filesystem, or the network".

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use shill_cap::FdHandle;
use shill_contracts::{Blame, ContractText, GuardedCap, SealBrand, Violation};
use shill_vfs::Errno;

use crate::ast::{contract_to_string, Fun, FuncContract};
use crate::builtins::Builtin;
use crate::env::Env;

/// What a pending future's slots in the accumulated batch resolve into.
/// Slot indices refer to the interpreter's single pending
/// [`crate::batchio::DeferredAcc`]; the descriptors let resolution continue
/// an operation whose first 1 MiB window came back full. Each fragment
/// holds an [`FdHandle`] on each descriptor its batch entries name, so a capability
/// passed as a temporary (`async read(open_file(..))`) keeps its
/// descriptor open until the fragment resolves. Guard checks already
/// happened at enqueue time — resolution only maps slot results to values,
/// so errnos surface as catchable [`Value::SysErr`]s, never violations.
#[derive(Debug, Clone)]
pub enum FragKind {
    /// One `Preadv` window at `slot`; resolves to the file's contents as a
    /// string (continuing past a full window via `fd`).
    Read { slot: usize, fd: FdHandle },
    /// `Ftruncate` + `Pwrite` at `slots` on `fd`; resolves to void, like
    /// the sequential `write` builtin.
    Write { slots: [usize; 2], fd: FdHandle },
    /// A fused copy window at `first_slot..first_slot + 3`
    /// (read → truncate → write, data flowing by slot reference); resolves
    /// to the total bytes copied (continuing past a full window).
    Copy {
        first_slot: usize,
        sfd: FdHandle,
        dfd: FdHandle,
    },
    /// A `Stat` sweep relative to `dir` at
    /// `first_slot..first_slot + names.len()`; resolves to
    /// `[[name, size], …]` over the entries whose stat succeeded, in
    /// directory order — the `dir_stats` shape.
    DirStats {
        names: Vec<String>,
        first_slot: usize,
        dir: FdHandle,
    },
    /// One `Preadv` window per file; resolves to a list of contents
    /// strings, each element independently a string or a syserror.
    Slurp { reads: Vec<(usize, FdHandle)> },
}

impl FragKind {
    /// The accumulated-batch slots this fragment resolves from (`select`
    /// uses these to decide which future completed first).
    pub fn slots(&self) -> Vec<usize> {
        match self {
            FragKind::Read { slot, .. } => vec![*slot],
            FragKind::Write { slots, .. } => slots.to_vec(),
            FragKind::Copy { first_slot, .. } => (*first_slot..first_slot + 3).collect(),
            FragKind::DirStats {
                names, first_slot, ..
            } => (*first_slot..first_slot + names.len()).collect(),
            FragKind::Slurp { reads } => reads.iter().map(|(s, _)| *s).collect(),
        }
    }
}

/// A future's lifetime: pending (slots enqueued in the interpreter's
/// accumulated batch, not yet submitted) until an `await` flushes the
/// batch, then ready forever. A future that is never awaited never
/// executes — dropping the accumulator drops the deferred I/O.
pub enum FutureState {
    Pending(FragKind),
    Ready(Value),
}

/// The cell behind a [`Value::Future`]. Interior-mutable so every clone of
/// the future observes the resolution.
pub struct FutureCell {
    pub state: RefCell<FutureState>,
}

impl FutureCell {
    pub fn pending(kind: FragKind) -> Rc<FutureCell> {
        Rc::new(FutureCell {
            state: RefCell::new(FutureState::Pending(kind)),
        })
    }

    pub fn ready(v: Value) -> Rc<FutureCell> {
        Rc::new(FutureCell {
            state: RefCell::new(FutureState::Ready(v)),
        })
    }

    pub fn is_pending(&self) -> bool {
        matches!(*self.state.borrow(), FutureState::Pending(_))
    }

    pub fn set_ready(&self, v: Value) {
        *self.state.borrow_mut() = FutureState::Ready(v);
    }

    /// The resolved value, if ready (clones — futures are shared).
    pub fn ready_value(&self) -> Option<Value> {
        match &*self.state.borrow() {
            FutureState::Ready(v) => Some(v.clone()),
            FutureState::Pending(_) => None,
        }
    }

    /// The accumulated-batch slots a still-pending future waits on.
    pub fn pending_slots(&self) -> Option<Vec<usize>> {
        match &*self.state.borrow() {
            FutureState::Pending(kind) => Some(kind.slots()),
            FutureState::Ready(_) => None,
        }
    }

    /// Take the pending fragment for resolution, leaving the cell ready
    /// with a placeholder (the resolver overwrites it via `set_ready`).
    pub fn take_frag(&self) -> Option<FragKind> {
        let mut st = self.state.borrow_mut();
        match &*st {
            FutureState::Pending(_) => {
                match std::mem::replace(&mut *st, FutureState::Ready(Value::Void)) {
                    FutureState::Pending(kind) => Some(kind),
                    FutureState::Ready(_) => unreachable!(),
                }
            }
            FutureState::Ready(_) => None,
        }
    }
}

/// One evaluation of a `fun` literal: its code, and the name the first
/// definition that binds it gives it, for diagnostics. A closure value is
/// a lambda and the frame it closes over ([`Value::Closure`]).
pub struct Lambda {
    pub name: RefCell<String>,
    pub fun: Rc<Fun>,
}

/// A function contract wrapper around a callable value.
pub struct ContractedFn {
    pub inner: Value,
    pub contract: Arc<FuncContract>,
    /// `forall` information: variable name and privilege bound, if present.
    pub forall: Option<(String, shill_cap::PrivSet)>,
    pub blame: Arc<Blame>,
    /// Contract-variable bindings captured when this wrapper was itself
    /// created inside a polymorphic instantiation.
    pub seals: Vec<(String, Arc<SealBrand>)>,
    /// Polarity: `true` when calling this wrapper sends arguments *into*
    /// the component the contract guards (so `forall` variables in the
    /// domain seal); flips at each function-contract nesting (§2.4.2).
    pub into_body: bool,
    /// The root frame of the script the contract was written in: named
    /// contract abbreviations and user-defined predicates resolve there,
    /// by name, at call time.
    pub cenv: Env,
    /// The blame of each argument, then each keyword, then the result,
    /// made at the first call.
    pub(crate) blames: OnceCell<Box<[Arc<Blame>]>>,
}

impl ContractedFn {
    /// Blame for each position of the contract: the arguments, then the
    /// keywords, then the result, whose provider is the function.
    pub(crate) fn blames(&self) -> &[Arc<Blame>] {
        self.blames.get_or_init(|| {
            let fc = &self.contract;
            let (args, kwargs) = (fc.args.len(), fc.kwargs.len());
            let positions = (0..args).map(At::Arg).chain((0..kwargs).map(At::Kwarg));
            let cite = |at| {
                let (provider, consumer) = match at {
                    At::Result => (&self.blame.consumer, &self.blame.provider),
                    _ => (&self.blame.provider, &self.blame.consumer),
                };
                let text = Arc::new(Cited {
                    func: Arc::clone(fc),
                    at,
                });
                Blame::citing(provider.as_str(), consumer.as_str(), text)
            };
            positions.chain([At::Result]).map(cite).collect()
        })
    }
}

/// A position of a function contract.
#[derive(Clone, Copy)]
enum At {
    Arg(usize),
    Kwarg(usize),
    Result,
}

/// The text a blame cites for one position of a function contract.
struct Cited {
    func: Arc<FuncContract>,
    at: At,
}

impl ContractText for Cited {
    fn render(&self) -> String {
        let fc = &self.func;
        match self.at {
            At::Arg(i) => format!("{} : {}", fc.args[i].0, contract_to_string(&fc.args[i].1)),
            At::Kwarg(i) => {
                let (name, c) = &fc.kwargs[i];
                format!("{name} = : {}", contract_to_string(c))
            }
            At::Result => contract_to_string(&fc.result),
        }
    }
}

/// A keyword argument: its name, shared with the call's syntax, and value.
pub type Kwarg = (Rc<str>, Value);

/// Native (Rust-implemented) function, e.g. the wrapper `pkg_native`
/// returns. Reads the evaluated positional and keyword arguments in
/// place, as a builtin does.
pub type NativeFnImpl =
    dyn Fn(&mut crate::eval::Interp, &[Value], &[Kwarg]) -> Result<Value, ShillError>;

pub struct NativeFn {
    pub name: String,
    pub f: Box<NativeFnImpl>,
}

/// A capability wallet (§2.4.1): "a map from strings to lists of
/// capabilities". `kind` distinguishes native wallets (built by
/// `populate_native_wallet`) for the `native_wallet` contract.
pub struct Wallet {
    pub kind: String,
    pub map: RefCell<BTreeMap<String, Vec<Value>>>,
}

/// Runtime values.
#[derive(Clone)]
pub enum Value {
    Void,
    Bool(bool),
    Num(i64),
    Str(Rc<str>),
    List(Rc<Vec<Value>>),
    /// A capability (possibly contract-guarded): two pointers, so copying
    /// it allocates nothing.
    Cap(GuardedCap),
    /// A sealed capability inside a polymorphic function body (§2.4.2).
    Sealed {
        brand: Arc<SealBrand>,
        inner: Rc<Value>,
    },
    /// A lambda and the frame it closes over.
    Closure(Rc<Lambda>, Env),
    Contracted(Rc<ContractedFn>),
    Native(Rc<NativeFn>),
    /// A builtin (dispatched in `builtins.rs`).
    Builtin(Builtin),
    /// A first-class contract value (user-defined abbreviations).
    Contract(Rc<crate::ast::ContractExpr>),
    Wallet(Rc<Wallet>),
    /// A system error produced by a capability operation; scripts observe
    /// these with `is_syserror` (paper Figure 3 line 11).
    SysErr(Errno),
    /// A deferred I/O result: produced by `async`, forced by `await`.
    /// Holds slot references into the interpreter's accumulated batch
    /// while pending. Like capabilities, futures render opaquely and have
    /// no serialized form.
    Future(Rc<FutureCell>),
}

/// Top-level script errors. Errors are the cold path, so every payload
/// wider than a `String` is boxed: an [`EvalResult`] is 32 bytes, and
/// each evaluation step moves one.
#[derive(Debug)]
pub enum ShillError {
    Parse(Box<crate::parse::ParseError>),
    /// Contract violation: aborts execution with blame (§2.2).
    Violation(Box<Violation>),
    /// Unrecoverable system error escaping the runtime.
    Sys(Errno),
    /// Other runtime errors (unbound variable, arity, type errors...).
    Runtime(String),
}

impl fmt::Display for ShillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShillError::Parse(e) => write!(f, "{e}"),
            ShillError::Violation(v) => write!(f, "{v}"),
            ShillError::Sys(e) => write!(f, "system error: {e}"),
            ShillError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for ShillError {}

impl From<Violation> for ShillError {
    fn from(v: Violation) -> Self {
        ShillError::Violation(Box::new(v))
    }
}

impl From<crate::parse::ParseError> for ShillError {
    fn from(e: crate::parse::ParseError) -> Self {
        ShillError::Parse(Box::new(e))
    }
}

pub type EvalResult = Result<Value, ShillError>;

impl Value {
    pub fn str(s: impl Into<Rc<str>>) -> Value {
        Value::Str(s.into())
    }

    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(items))
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Void => "void",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Cap(_) => "capability",
            Value::Sealed { .. } => "sealed capability",
            Value::Closure(..) | Value::Contracted(_) | Value::Native(_) | Value::Builtin(_) => {
                "function"
            }
            Value::Contract(_) => "contract",
            Value::Wallet(_) => "wallet",
            Value::SysErr(_) => "syserror",
            Value::Future(_) => "future",
        }
    }

    pub fn is_callable(&self) -> bool {
        matches!(
            self,
            Value::Closure(..) | Value::Contracted(_) | Value::Native(_) | Value::Builtin(_)
        )
    }

    pub fn truthy(&self) -> Result<bool, ShillError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ShillError::Runtime(format!(
                "expected a boolean condition, got {}",
                other.type_name()
            ))),
        }
    }

    /// Structural equality for `==`. Capabilities compare by identity-ish
    /// (same underlying node); functions are never equal.
    pub fn equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Void, Value::Void) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::SysErr(a), Value::SysErr(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equals(y))
            }
            (Value::Cap(a), Value::Cap(b)) => match (a.raw.node, b.raw.node) {
                (Some(x), Some(y)) => x == y,
                _ => a.same(b),
            },
            // Futures compare by identity: two deferred ops are never "the
            // same" even if they resolve to equal values.
            (Value::Future(a), Value::Future(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Rendering for `to_string`/output. Capabilities render opaquely: they
    /// are deliberately not serializable.
    pub fn display(&self) -> String {
        match self {
            Value::Void => "void".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) => n.to_string(),
            Value::Str(s) => s.to_string(),
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(|v| v.display()).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Cap(c) => format!("<capability {}>", c.name()),
            Value::Sealed { brand, .. } => format!("<sealed {}>", brand.var),
            Value::Closure(l, _) => format!("<fun {}>", l.name.borrow()),
            Value::Contracted(c) => format!("<contracted fun via {}>", c.blame.contract()),
            Value::Native(n) => format!("<native {}>", n.name),
            Value::Builtin(b) => format!("<builtin {}>", b.name()),
            Value::Contract(c) => format!("<contract {}>", crate::ast::contract_to_string(c)),
            Value::Wallet(w) => format!("<{} wallet>", w.kind),
            Value::SysErr(e) => format!("<syserror {}>", e.name()),
            Value::Future(f) => {
                if f.is_pending() {
                    "<future pending>".into()
                } else {
                    "<future ready>".into()
                }
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_caps_opaquely() {
        // No constructor from strings: the only way to get a Cap is via the
        // ambient runtime. Here we just check non-cap rendering.
        assert_eq!(Value::Num(42).display(), "42");
        assert_eq!(Value::str("hi").display(), "hi");
        assert_eq!(
            Value::list(vec![Value::Num(1), Value::Bool(true)]).display(),
            "[1, true]"
        );
        assert_eq!(Value::SysErr(Errno::ENOENT).display(), "<syserror ENOENT>");
    }

    #[test]
    fn equality_is_structural_for_data() {
        assert!(Value::list(vec![Value::Num(1)]).equals(&Value::list(vec![Value::Num(1)])));
        assert!(!Value::str("a").equals(&Value::str("b")));
        assert!(!Value::Num(1).equals(&Value::Bool(true)));
    }

    #[test]
    fn an_evaluation_result_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<EvalResult>(), 32);
    }

    #[test]
    fn truthiness_requires_bool() {
        assert!(Value::Bool(true).truthy().unwrap());
        assert!(Value::Num(1).truthy().is_err());
    }
}
