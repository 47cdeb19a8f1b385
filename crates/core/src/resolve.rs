//! The resolver: one pass between parsing and evaluation that decides,
//! for every variable reference, which slots it may read.
//!
//! Scopes are static: a script's root scope, a function's parameters, a
//! block's definitions, a loop's variable. A function call and a loop
//! iteration each get a frame of slots ([`Env`](crate::env::Env)); every scope
//! inside one takes slots of that frame, so an `if` block costs no frame
//! of its own. A reference records the address of each enclosing scope
//! that binds its name, innermost first, and the builtin of that name if
//! there is one ([`VarRef`]). At run time it reads the first of those
//! slots already defined. That keeps SHILL's dynamic rules: a name used
//! before its block's definition has run reads the outer binding, and a
//! closure sees a sibling defined after it once that definition has run.

use std::rc::Rc;

use crate::ast::{Addr, Dialect, Expr, Script, Stmt, VarRef};
use crate::builtins::Builtin;
use crate::env::Root;

struct Scope {
    names: Vec<(String, usize)>,
    /// Index of the frame whose slots the scope takes.
    frame: usize,
}

impl Scope {
    fn slot(&self, name: &str) -> Option<usize> {
        self.names.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }
}

struct Resolver {
    dialect: Dialect,
    scopes: Vec<Scope>,
    /// Slots taken so far in each open frame, outermost first.
    frames: Vec<usize>,
}

impl Resolver {
    fn open(&mut self) {
        self.scopes.push(Scope {
            names: Vec::new(),
            frame: self.frames.len() - 1,
        });
    }

    /// The slot `name` binds in the innermost scope.
    fn bind(&mut self, name: &str) -> usize {
        let scope = self.scopes.last_mut().expect("a scope is open");
        if let Some(slot) = scope.slot(name) {
            return slot;
        }
        let slot = self.frames[scope.frame];
        self.frames[scope.frame] += 1;
        scope.names.push((name.to_string(), slot));
        slot
    }

    /// Resolve `body` in a fresh frame whose first scope binds `first`;
    /// returns their slots and the frame's size.
    fn frame(&mut self, first: &[String], body: &mut [Stmt]) -> (Vec<usize>, usize) {
        self.frames.push(0);
        self.open();
        let slots = first.iter().map(|n| self.bind(n)).collect();
        self.block(body);
        self.scopes.pop();
        (slots, self.frames.pop().expect("frame is open"))
    }

    /// A block: its definitions are bound before any statement resolves,
    /// so a reference anywhere in it may see them once they have run.
    fn block(&mut self, stmts: &mut [Stmt]) {
        self.open();
        for s in stmts.iter_mut() {
            if let Stmt::Def { name, slot, .. } = s {
                *slot = self.bind(name);
            }
        }
        self.stmts(stmts);
        self.scopes.pop();
    }

    fn stmts(&mut self, stmts: &mut [Stmt]) {
        for s in stmts {
            match s {
                Stmt::Def { expr, .. } | Stmt::Expr(expr, _) => self.expr(expr),
            }
        }
    }

    fn expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Void(_) | Expr::Bool(..) | Expr::Num(..) | Expr::Str(..) | Expr::Contract(..) => {
            }
            Expr::Var(v) => self.var(v),
            Expr::List(items, _) => items.iter_mut().for_each(|e| self.expr(e)),
            Expr::Fun(fun, _) => {
                let fun = Rc::make_mut(fun);
                (fun.param_slots, fun.frame_size) = self.frame(&fun.params, &mut fun.body);
            }
            Expr::Call {
                callee,
                args,
                kwargs,
                ..
            } => {
                self.expr(callee);
                args.iter_mut().for_each(|e| self.expr(e));
                kwargs.iter_mut().for_each(|(_, e)| self.expr(e));
            }
            Expr::If {
                cond, then, els, ..
            } => {
                self.expr(cond);
                self.block(then);
                if let Some(els) = els {
                    self.block(els);
                }
            }
            Expr::For {
                var,
                iter,
                body,
                frame_size,
                ..
            } => {
                self.expr(iter);
                *frame_size = self.frame(std::slice::from_ref(var), body).1;
            }
            Expr::Unary { expr, .. } => self.expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
        }
    }

    fn var(&self, v: &mut VarRef) {
        let here = self.frames.len() - 1;
        v.scopes = self
            .scopes
            .iter()
            .rev()
            .filter_map(|s| {
                let slot = s.slot(&v.name)?;
                Some(Addr {
                    up: here - s.frame,
                    slot,
                })
            })
            .collect();
        v.builtin = Builtin::lookup(&v.name, self.dialect);
    }
}

/// Resolve `script` in place. `preset` names what the root frame binds
/// before the body runs: an ambient script's stdio and factories, and the
/// imports.
pub(crate) fn resolve<'a>(script: &mut Script, preset: impl IntoIterator<Item = &'a str>) -> Root {
    let dialect = script.dialect;
    let mut r = Resolver {
        dialect,
        scopes: Vec::new(),
        frames: vec![0],
    };
    r.open();
    for name in preset {
        r.bind(name);
    }
    // A top-level definition of a builtin's name gets a slot that starts
    // out holding the builtin (`Root::redefined`).
    let mut redefined = Vec::new();
    for s in script.body.iter_mut() {
        if let Stmt::Def { name, slot, .. } = s {
            let fresh = r.scopes[0].slot(name).is_none();
            *slot = r.bind(name);
            if let Some(b) = Builtin::lookup(name, dialect).filter(|_| fresh) {
                redefined.push((*slot, b));
            }
        }
    }
    r.stmts(&mut script.body);
    // Root names were bound first, in slot order.
    let names = r.scopes.pop().expect("root scope").names;
    Root {
        names: names.into_iter().map(|(n, _)| n).collect(),
        size: r.frames[0],
        dialect,
        redefined,
    }
}
