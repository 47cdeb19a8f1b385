//! Lexical environments as slot frames.
//!
//! The resolver (`resolve.rs`) gives every definition, parameter and
//! loop variable a slot, and every variable reference the (frames out,
//! slot) addresses of the scopes that may bind it
//! ([`crate::ast::VarRef`]). A frame is one call's, one loop iteration's
//! or one script's slots; the definitions of an `if` block take slots of
//! the frame it runs in. Free names that no definition or import binds
//! are builtins, so no frame holds the builtins.
//!
//! A frame is one allocation: it holds its first `INLINE_SLOTS` slots
//! itself, and only a larger frame keeps the rest in a boxed slice.
//!
//! SHILL "does not have mutable variables" (§2.1): a slot is written once,
//! and defining it again is the redefinition error. Inner scopes shadow
//! outer ones with slots of their own.

use std::cell::OnceCell;
use std::rc::Rc;

use crate::ast::{Addr, Dialect};
use crate::builtins::Builtin;
use crate::value::{Lambda, ShillError, Value};

/// A slot's contents. A closure defined in the frame it closes over is
/// kept without that frame, and reading the slot pairs it with the frame
/// again: a frame holding its own closures would be an `Rc` cycle, kept
/// alive forever with every capability bound in it.
enum Slot {
    Val(Value),
    Fun(Rc<Lambda>),
}

/// Slots a frame holds inline. Every call and loop frame of the Find and
/// package case studies has at most four slots (`docs/tuning.md`, "A lean
/// call path").
const INLINE_SLOTS: usize = 4;

struct Frame {
    inline: [OnceCell<Slot>; INLINE_SLOTS],
    /// The slots past the inline ones: empty, and unallocated, unless the
    /// frame has more than [`INLINE_SLOTS`].
    spill: Box<[OnceCell<Slot>]>,
    parent: Option<Env>,
    /// Root frames only: what by-name lookups see.
    root: Option<Rc<Root>>,
}

impl Frame {
    fn new(size: usize, parent: Option<Env>) -> Frame {
        Frame {
            inline: [const { OnceCell::new() }; INLINE_SLOTS],
            spill: (INLINE_SLOTS..size).map(|_| OnceCell::new()).collect(),
            parent,
            root: None,
        }
    }

    fn slot(&self, slot: usize) -> &OnceCell<Slot> {
        match self.inline.get(slot) {
            Some(cell) => cell,
            None => &self.spill[slot - INLINE_SLOTS],
        }
    }
}

/// The root scope of a script, as the resolver laid it out.
pub(crate) struct Root {
    /// The names of the first slots: imports, an ambient script's stdio
    /// and factories, and the top-level definitions.
    pub(crate) names: Vec<String>,
    /// All slots of the root frame, with those of top-level `if` blocks.
    pub(crate) size: usize,
    pub(crate) dialect: Dialect,
    /// Builtins that a top-level definition redefines. Their slots start
    /// out holding the builtin, so the definition fails when it runs, as
    /// any redefinition does.
    pub(crate) redefined: Vec<(usize, Builtin)>,
}

/// A shared frame and, through its parents, the frames around it.
#[derive(Clone)]
pub struct Env(Rc<Frame>);

impl Env {
    /// A script's root frame. `preset` binds names before the body runs;
    /// a later entry replaces an earlier one of the same name, as an
    /// import replaces another import or an ambient value.
    pub(crate) fn root(root: Rc<Root>, preset: Vec<(String, Value)>) -> Env {
        let mut frame = Frame::new(root.size, None);
        let mut bind = |slot: usize, v: Value| {
            let cell = match frame.inline.get_mut(slot) {
                Some(cell) => cell,
                None => &mut frame.spill[slot - INLINE_SLOTS],
            };
            *cell = OnceCell::from(Slot::Val(v));
        };
        for (slot, b) in &root.redefined {
            bind(*slot, b.value());
        }
        for (name, v) in preset {
            if let Some(slot) = root.names.iter().position(|n| *n == name) {
                bind(slot, v);
            }
        }
        frame.root = Some(root);
        Env(Rc::new(frame))
    }

    /// A root frame that binds nothing: by-name lookups see the builtins
    /// of `dialect` only.
    pub(crate) fn bare(dialect: Dialect) -> Env {
        let root = Root {
            names: Vec::new(),
            size: 0,
            dialect,
            redefined: Vec::new(),
        };
        Env::root(Rc::new(root), Vec::new())
    }

    /// A child frame of `size` empty slots.
    pub(crate) fn child(&self, size: usize) -> Env {
        Env(Rc::new(Frame::new(size, Some(self.clone()))))
    }

    /// Bind `slot` of this frame. Fails if it is already bound — SHILL has
    /// no mutation or redefinition.
    pub(crate) fn define(&self, slot: usize, name: &str, value: Value) -> Result<(), ShillError> {
        let v = match value {
            Value::Closure(lambda, env) if Rc::ptr_eq(&env.0, &self.0) => Slot::Fun(lambda),
            other => Slot::Val(other),
        };
        self.0.slot(slot).set(v).map_err(|_| {
            ShillError::Runtime(format!(
                "`{name}` is already defined; SHILL bindings are immutable"
            ))
        })
    }

    /// The value at `at`, if that slot has been defined.
    pub(crate) fn get(&self, at: Addr) -> Option<Value> {
        let mut frame = self;
        for _ in 0..at.up {
            frame = frame.0.parent.as_ref()?;
        }
        Some(match frame.0.slot(at.slot).get()? {
            Slot::Val(v) => v.clone(),
            Slot::Fun(lambda) => Value::Closure(Rc::clone(lambda), frame.clone()),
        })
    }

    /// Look `name` up by name in the root scope, then among the builtins —
    /// for what is known only by name at run time: provided names, named
    /// contracts and predicates.
    pub fn named(&self, name: &str) -> Option<Value> {
        let mut frame = self;
        while let Some(parent) = &frame.0.parent {
            frame = parent;
        }
        let root = frame.0.root.as_ref()?;
        let slot = root.names.iter().position(|n| n == name);
        slot.and_then(|slot| frame.get(Addr { up: 0, slot }))
            .or_else(|| Builtin::lookup(name, root.dialect).map(Builtin::value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(names: &[&str], size: usize) -> Env {
        let root = Root {
            names: names.iter().map(|n| n.to_string()).collect(),
            size,
            dialect: Dialect::CapSafe,
            redefined: Vec::new(),
        };
        Env::root(Rc::new(root), Vec::new())
    }

    const HERE: Addr = Addr { up: 0, slot: 0 };

    #[test]
    fn define_and_lookup() {
        let env = root(&["x"], 2);
        env.define(0, "x", Value::Num(1)).unwrap();
        assert!(matches!(env.get(HERE), Some(Value::Num(1))));
        assert!(env.get(Addr { up: 0, slot: 1 }).is_none());
    }

    #[test]
    fn no_redefinition_in_same_scope() {
        let env = root(&["x"], 1);
        env.define(0, "x", Value::Num(1)).unwrap();
        assert!(env.define(0, "x", Value::Num(2)).is_err());
        // The original binding is untouched.
        assert!(matches!(env.get(HERE), Some(Value::Num(1))));
    }

    #[test]
    fn shadowing_in_child_scope_is_fine() {
        let env = root(&["x"], 1);
        env.define(0, "x", Value::Num(1)).unwrap();
        let inner = env.child(1);
        inner.define(0, "x", Value::Num(2)).unwrap();
        assert!(matches!(inner.get(HERE), Some(Value::Num(2))));
        assert!(matches!(
            inner.get(Addr { up: 1, slot: 0 }),
            Some(Value::Num(1))
        ));
    }

    #[test]
    fn child_sees_parent() {
        let env = root(&["x"], 1);
        env.define(0, "x", Value::Num(7)).unwrap();
        let inner = env.child(0).child(0);
        assert!(matches!(
            inner.get(Addr { up: 2, slot: 0 }),
            Some(Value::Num(7))
        ));
    }

    #[test]
    fn slots_past_the_inline_ones_bind_once_and_read_back() {
        let size = INLINE_SLOTS + 3;
        let env = root(&[], 1).child(size);
        for slot in 0..size {
            env.define(slot, "s", Value::Num(slot as i64)).unwrap();
        }
        for slot in 0..size {
            let got = env.get(Addr { up: 0, slot });
            assert!(matches!(got, Some(Value::Num(n)) if n == slot as i64));
        }
        assert!(env.define(INLINE_SLOTS + 1, "s", Value::Num(0)).is_err());
        let past = Addr {
            up: 1,
            slot: size - 1,
        };
        assert!(matches!(env.child(0).get(past), Some(Value::Num(6))));
    }

    #[test]
    fn a_root_frame_presets_slots_past_the_inline_ones() {
        let names: Vec<String> = (0..INLINE_SLOTS + 2).map(|i| format!("n{i}")).collect();
        let last = names[INLINE_SLOTS + 1].clone();
        let root = Root {
            size: names.len(),
            names,
            dialect: Dialect::CapSafe,
            redefined: Vec::new(),
        };
        let preset = vec![(last.clone(), Value::Num(1)), (last, Value::Num(2))];
        let env = Env::root(Rc::new(root), preset);
        let at = Addr {
            up: 0,
            slot: INLINE_SLOTS + 1,
        };
        assert!(
            matches!(env.get(at), Some(Value::Num(2))),
            "the later entry wins"
        );
        assert!(env.get(HERE).is_none());
    }

    #[test]
    fn by_name_lookups_see_the_root_scope_then_the_builtins() {
        let env = root(&["x", "length"], 2);
        env.define(0, "x", Value::Num(7)).unwrap();
        let inner = env.child(0);
        assert!(matches!(inner.named("x"), Some(Value::Num(7))));
        assert!(matches!(
            inner.named("length"),
            Some(Value::Builtin(Builtin::Length))
        ));
        assert!(matches!(inner.named("readonly"), Some(Value::Contract(_))));
        assert!(inner.named("open_file").is_none(), "ambient only");
        assert!(inner.named("y").is_none());
    }
}
