//! Abstract syntax for SHILL scripts.
//!
//! Two dialects share this AST (§2.5): capability-safe scripts
//! (`#lang shill/cap`) and ambient scripts (`#lang shill/ambient`). The
//! parser enforces the ambient dialect's restrictions ("straight line code
//! that can import capability-safe scripts, create capabilities ... and call
//! functions").

use std::rc::Rc;
use std::sync::Arc;

use shill_cap::{CapPrivs, PrivSet};
use shill_contracts::ContractText;

use crate::builtins::Builtin;

/// Which dialect a script is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// `#lang shill/cap` — capability-safe.
    CapSafe,
    /// `#lang shill/ambient` — ambient authority, heavily restricted syntax.
    Ambient,
}

/// A source position for error messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    pub line: usize,
    pub col: usize,
}

impl std::fmt::Display for Pos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A parsed script.
#[derive(Debug, Clone)]
pub struct Script {
    pub dialect: Dialect,
    /// `require` declarations, in order.
    pub requires: Vec<String>,
    /// `provide name : contract;` declarations.
    pub provides: Vec<Provide>,
    /// Top-level statements (definitions and expressions).
    pub body: Vec<Stmt>,
}

/// One `provide` declaration. The contract is shared with the blame of
/// every wrapper it makes, which renders it only if a violation cites it.
#[derive(Debug, Clone)]
pub struct Provide {
    pub name: String,
    pub contract: Arc<ContractExpr>,
    pub pos: Pos,
}

/// Statements.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `name = expr;` — an immutable binding into `slot` of the frame the
    /// definition runs in, as the resolver (`resolve.rs`) assigned it.
    Def {
        name: String,
        expr: Expr,
        pos: Pos,
        slot: usize,
    },
    /// A bare expression. The boolean records whether it was terminated by
    /// an explicit `;`: a semicolon-terminated final statement makes the
    /// enclosing block evaluate to void (statement position), while a bare
    /// trailing expression is the block's value.
    Expr(Expr, bool),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    /// `++`: string/list concatenation.
    Concat,
}

/// Where a variable reference looks, innermost first, as the resolver
/// (`resolve.rs`) decided: the slots of every enclosing scope that binds
/// the name, then the builtin of that name. At run time the first slot
/// already defined wins, so a reference made before its scope's
/// definition has run still reads the outer binding.
#[derive(Debug, Clone, Default)]
pub struct VarRef {
    pub name: String,
    pub pos: Pos,
    pub scopes: Vec<Addr>,
    pub builtin: Option<Builtin>,
}

/// A slot `up` frames out from the current one.
#[derive(Debug, Clone, Copy)]
pub struct Addr {
    pub up: usize,
    pub slot: usize,
}

/// A `fun` literal's code, shared by every closure made from it.
#[derive(Debug, Clone)]
pub struct Fun {
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
    /// The slot each parameter binds in a call's frame; a repeated name
    /// repeats its slot, so binding it twice fails when the call runs.
    pub param_slots: Vec<usize>,
    /// Slots in a call's frame: parameters, body definitions, and the
    /// definitions of the `if` blocks in the body.
    pub frame_size: usize,
}

/// Expressions.
#[derive(Debug, Clone)]
pub enum Expr {
    Void(Pos),
    Bool(bool, Pos),
    Num(i64, Pos),
    /// A string literal. Evaluating it shares the string: a string carries
    /// no authority, so the compiled-module cache may hold it.
    Str(Rc<str>, Pos),
    Var(VarRef),
    List(Vec<Expr>, Pos),
    /// `fun(a, b) { ... }`.
    Fun(Rc<Fun>, Pos),
    /// `f(a, b, key = c)`.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        kwargs: Vec<(Rc<str>, Expr)>,
        pos: Pos,
    },
    /// `if c then t [else e]` — branches are blocks or single statements.
    /// A branch's definitions live in slots of the enclosing frame.
    If {
        cond: Box<Expr>,
        then: Vec<Stmt>,
        els: Option<Vec<Stmt>>,
        pos: Pos,
    },
    /// `for x in e { ... }`. Each iteration runs in a frame of
    /// `frame_size` slots, the loop variable in slot 0.
    For {
        var: String,
        iter: Box<Expr>,
        body: Vec<Stmt>,
        frame_size: usize,
        pos: Pos,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
        pos: Pos,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        pos: Pos,
    },
    /// A contract written in expression position (contracts are values and
    /// can be bound to names, enabling user-defined contract abbreviations).
    Contract(Box<ContractExpr>, Pos),
}

impl Expr {
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Void(p)
            | Expr::Bool(_, p)
            | Expr::Num(_, p)
            | Expr::Str(_, p)
            | Expr::Var(VarRef { pos: p, .. })
            | Expr::List(_, p)
            | Expr::Fun(_, p)
            | Expr::Call { pos: p, .. }
            | Expr::If { pos: p, .. }
            | Expr::For { pos: p, .. }
            | Expr::Unary { pos: p, .. }
            | Expr::Binary { pos: p, .. }
            | Expr::Contract(_, p) => *p,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
    Neg,
}

/// Contract syntax (§2.2). Contracts are first-class: they appear in
/// `provide` declarations and may be bound to names.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractExpr {
    /// Flat kind predicates: `is_file`, `is_dir`, `is_bool`, ...
    IsFile,
    IsDir,
    IsPipe,
    IsBool,
    IsNum,
    IsString,
    IsList,
    IsFun,
    /// Postcondition `void` (no value returned).
    Void,
    /// `any`: no constraint.
    Any,
    /// `file(+read, +path, ...)` — file-kind capability with privileges.
    File(CapPrivs),
    /// `dir(+lookup with {...}, ...)`.
    Dir(CapPrivs),
    /// `socket(+sock-send, ...)`.
    Socket(CapPrivs),
    /// A pipe-factory capability.
    PipeFactory,
    /// A socket-factory capability with at most these privileges.
    SocketFactory(PrivSet),
    /// `native_wallet` (§3.1.4).
    NativeWallet,
    /// Any wallet.
    Wallet,
    /// Disjunction `c1 \/ c2`.
    Or(Vec<ContractExpr>),
    /// Conjunction `c1 && c2`.
    And(Vec<ContractExpr>),
    /// Function contract `{a : C1, b : C2} -> C3`.
    Func(Arc<FuncContract>),
    /// Bounded polymorphism: `forall X with {+p, ...} . C` (§2.4.2).
    Forall {
        var: String,
        bound: PrivSet,
        body: Box<ContractExpr>,
    },
    /// A contract variable occurrence (`X`) inside a `forall` body.
    Var(String),
    /// A named contract resolved from the environment at wrap time
    /// (user-defined abbreviations like `readonly`, or imported wallet
    /// contracts like `ocaml_wallet`).
    Named(String),
    /// A user-defined predicate: the named function is called with the
    /// value; contract holds if it returns `true`.
    Predicate(String),
}

/// A function contract: named argument preconditions plus a postcondition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncContract {
    /// `(arg name, contract)` pairs, positional order.
    pub args: Vec<(String, ContractExpr)>,
    /// Keyword-argument contracts (optional arguments like `stdout`).
    pub kwargs: Vec<(String, ContractExpr)>,
    /// The postcondition.
    pub result: ContractExpr,
}

impl ContractText for ContractExpr {
    fn render(&self) -> String {
        contract_to_string(self)
    }
}

/// Render a contract back to (approximately) its source form — used in
/// blame messages so violations cite the contract text.
pub fn contract_to_string(c: &ContractExpr) -> String {
    match c {
        ContractExpr::IsFile => "is_file".into(),
        ContractExpr::IsDir => "is_dir".into(),
        ContractExpr::IsPipe => "is_pipe".into(),
        ContractExpr::IsBool => "is_bool".into(),
        ContractExpr::IsNum => "is_num".into(),
        ContractExpr::IsString => "is_string".into(),
        ContractExpr::IsList => "is_list".into(),
        ContractExpr::IsFun => "is_fun".into(),
        ContractExpr::Void => "void".into(),
        ContractExpr::Any => "any".into(),
        ContractExpr::File(p) => format!("file{p}"),
        ContractExpr::Dir(p) => format!("dir{p}"),
        ContractExpr::Socket(p) => format!("socket{p}"),
        ContractExpr::PipeFactory => "pipe_factory".into(),
        ContractExpr::SocketFactory(p) => format!("socket_factory{p}"),
        ContractExpr::NativeWallet => "native_wallet".into(),
        ContractExpr::Wallet => "wallet".into(),
        ContractExpr::Or(cs) => cs
            .iter()
            .map(contract_to_string)
            .collect::<Vec<_>>()
            .join(" \\/ "),
        ContractExpr::And(cs) => cs
            .iter()
            .map(contract_to_string)
            .collect::<Vec<_>>()
            .join(" && "),
        ContractExpr::Func(fc) => {
            let args = fc
                .args
                .iter()
                .map(|(n, c)| format!("{n} : {}", contract_to_string(c)))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{{{args}}} -> {}", contract_to_string(&fc.result))
        }
        ContractExpr::Forall { var, bound, body } => {
            format!("forall {var} with {bound} . {}", contract_to_string(body))
        }
        ContractExpr::Var(v) => v.clone(),
        ContractExpr::Named(n) => n.clone(),
        ContractExpr::Predicate(n) => format!("<predicate {n}>"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_cap::{Priv, PrivSet};

    #[test]
    fn contract_rendering() {
        let c = ContractExpr::Or(vec![
            ContractExpr::Dir(CapPrivs::of(PrivSet::of(&[Priv::Contents, Priv::Lookup]))),
            ContractExpr::File(CapPrivs::of(PrivSet::of(&[Priv::Path]))),
        ]);
        let s = contract_to_string(&c);
        assert!(s.contains("dir(+contents, +lookup)"));
        assert!(s.contains("\\/"));
        assert!(s.contains("file(+path)"));
    }

    #[test]
    fn func_contract_rendering() {
        let fc = FuncContract {
            args: vec![
                ("cur".into(), ContractExpr::Var("X".into())),
                (
                    "out".into(),
                    ContractExpr::File(CapPrivs::of(PrivSet::of(&[Priv::Append]))),
                ),
            ],
            kwargs: vec![],
            result: ContractExpr::Void,
        };
        let c = ContractExpr::Forall {
            var: "X".into(),
            bound: PrivSet::of(&[Priv::Lookup, Priv::Contents]),
            body: Box::new(ContractExpr::Func(Arc::new(fc))),
        };
        let s = contract_to_string(&c);
        assert!(s.starts_with("forall X with"));
        assert!(s.contains("cur : X"));
        assert!(s.contains("-> void"));
    }
}
