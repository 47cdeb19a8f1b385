//! The SHILL evaluator: expression evaluation, function application,
//! contract application at boundaries, and the module system.
//!
//! A script is parsed, its `require`s are loaded, and the resolver
//! (`resolve.rs`) gives every name a slot before the tree walker runs it.
//! Variables read slots of [`Env`] frames, free names are [`Builtin`]
//! constants, and a contracted call cites its contract's text in blame
//! only when a violation is built.
//!
//! A module (the prelude, or a script that `require` loads) is parsed and
//! resolved once per thread: every runtime on the thread that loads the
//! same source against the same import names reuses that code. Each
//! runtime still evaluates its own instance of the module.

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use shill_cap::{CapPrivs, PrivSet};
use shill_contracts::{Blame, CapResult, GuardedCap, SealBrand, Violation};
use shill_kernel::{Kernel, Pid};
use shill_sandbox::ShillPolicy;

use crate::ast::{contract_to_string, BinOp, ContractExpr, Dialect, Expr, Script, Stmt, UnOp};
use crate::batchio::DeferredAcc;
use crate::builtins::{self, Builtin};
use crate::env::{Env, Root};
use crate::parse::parse_script;
use crate::profile::Profile;
use crate::resolve::resolve;
use crate::value::{ContractedFn, EvalResult, FutureCell, Kwarg, Lambda, ShillError, Value};

/// Maximum evaluation depth (recursion guard).
/// Applications may nest this deep. The bound is set so that the native
/// stack (each interpreter level costs a handful of Rust frames, which are
/// large in debug builds) cannot overflow before the interpreter reports a
/// clean "evaluation depth exceeded" error — including on 2 MiB test
/// threads.
const MAX_DEPTH: usize = 220;

/// Exported bindings of an evaluated module.
pub type ModuleExports = Rc<HashMap<String, Value>>;

/// Modules a thread keeps compiled; the cache is cleared when it is full.
const COMPILED_CAP: usize = 64;

/// Empty argument vectors an interpreter keeps for its next calls. A call
/// in flight holds one, so this bounds the reuse across nested calls, not
/// the nesting.
const ARG_POOL: usize = 32;

/// A module's code as the resolver left it. It holds no value, frame or
/// blame, so sharing it shares no authority between runtimes.
struct Compiled {
    script: Rc<Script>,
    root: Rc<Root>,
    /// The preset names the root was resolved against, sorted: the same
    /// source resolves differently against other imports.
    imports: Vec<String>,
}

thread_local! {
    /// Module source text → its compiled form. The AST holds `Rc`s, so
    /// each thread keeps its own, and a fresh thread starts cold.
    static COMPILED: RefCell<HashMap<String, Rc<Compiled>>> = RefCell::new(HashMap::new());
}

/// The interpreter: kernel, policy module, the runtime's process, module
/// store, and profiling state.
pub struct Interp {
    pub kernel: Kernel,
    /// The SHILL policy module, when loaded. `exec` requires it.
    pub policy: Option<Arc<ShillPolicy>>,
    /// The runtime's own (unsandboxed) process.
    pub pid: Pid,
    /// Module name → source text ("the filesystem" for `require`).
    pub scripts: HashMap<String, String>,
    module_cache: HashMap<String, ModuleExports>,
    /// Modules currently being loaded (cycle detection).
    loading: Vec<String>,
    pub profile: Profile,
    /// Output of the `display` builtin.
    pub out: Vec<u8>,
    depth: usize,
    /// The pending accumulated batch: `async` expressions enqueue deferred
    /// I/O fragments here; the first `await` flushes it in one scheduled
    /// submission. At most one accumulator exists at a time, so any
    /// pending future always belongs to it.
    pub deferred: Option<DeferredAcc>,
    /// Non-zero while evaluating inside an `async` operand —
    /// [`Interp::batchable`] consults this to defer instead of flushing
    /// at once. A plain counter (not a flag): `async` forms nest,
    /// including through closure calls made inside the operand.
    pub async_depth: usize,
    /// Argument vectors for reuse by `Expr::Call`. Every vector here is
    /// empty: no argument outlives its call through the pool.
    arg_pool: Vec<Vec<Value>>,
    /// Emptied keyword-argument vectors, as `arg_pool`.
    kwarg_pool: Vec<Vec<Kwarg>>,
    /// The argv strings and grant list every `exec` launch reuses.
    pub(crate) exec_buffers: builtins::ExecBuffers,
}

impl Interp {
    /// Build an interpreter around an existing kernel. `policy` should
    /// already be registered with the kernel by the caller.
    pub fn new(kernel: Kernel, policy: Option<Arc<ShillPolicy>>, pid: Pid) -> Interp {
        Interp {
            kernel,
            policy,
            pid,
            scripts: HashMap::new(),
            module_cache: HashMap::new(),
            loading: Vec::new(),
            profile: Profile::default(),
            out: Vec::new(),
            depth: 0,
            deferred: None,
            async_depth: 0,
            arg_pool: Vec::new(),
            kwarg_pool: Vec::new(),
            exec_buffers: Default::default(),
        }
    }

    /// Force the accumulated batch: one submission resolving every
    /// pending future. No-op when nothing is deferred.
    pub fn flush_deferred(&mut self) {
        if let Some(acc) = self.deferred.take() {
            crate::batchio::flush_deferred(&mut self.kernel, self.pid, acc);
        }
    }

    /// Run one batchable operation through its fragment (`enqueue`, one
    /// of the [`DeferredAcc`] `defer_*` methods). Inside `async` the
    /// fragment joins the accumulated batch and the result is its pending
    /// future; otherwise it is flushed at once
    /// ([`crate::batchio::run_now`]) and the result is its value.
    /// `Ok(None)` when the fragment declined: the caller runs its
    /// byte-level fallback eagerly.
    pub fn batchable(
        &mut self,
        enqueue: impl FnOnce(&mut DeferredAcc, &mut Kernel, Pid) -> CapResult<Option<Rc<FutureCell>>>,
    ) -> CapResult<Option<Value>> {
        if self.async_depth > 0 {
            if let Some(acc) = self.deferred.as_mut() {
                return Ok(enqueue(acc, &mut self.kernel, self.pid)?.map(Value::Future));
            }
        }
        crate::batchio::run_now(&mut self.kernel, self.pid, enqueue)
    }

    /// Register a script under a module name for `require`.
    pub fn add_script(&mut self, name: &str, source: &str) {
        self.scripts.insert(name.to_string(), source.to_string());
    }

    fn enter(&mut self) -> Result<(), ShillError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(ShillError::Runtime("evaluation depth exceeded".into()));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    // --- script evaluation ---------------------------------------------------

    /// Evaluate a whole script (usually an ambient script). Returns the
    /// value of the last top-level expression. The script is parsed afresh
    /// on every call; only the modules it `require`s are compiled once per
    /// thread.
    pub fn run_script(&mut self, name: &str, source: &str) -> EvalResult {
        let mut script = parse_script(source)?;
        let last = self.run_parsed(&mut script, name);
        // The script's bindings are gone: close the descriptors only they
        // held.
        self.kernel.drain_closes();
        last
    }

    fn run_parsed(&mut self, script: &mut Script, name: &str) -> EvalResult {
        // What the root binds before the body runs: an ambient script's
        // stdio and factories, then the imports, which may shadow them and
        // the builtins; definitions still cannot rebind them afterwards.
        let mut preset = match script.dialect {
            Dialect::Ambient => builtins::ambient_values(self),
            Dialect::CapSafe => Vec::new(),
        };
        // Nested loads run inside this one, so each is booked once.
        let t0 = Instant::now();
        let imported = self.import(&script.requires, &mut preset);
        self.profile.module_load += t0.elapsed();
        imported?;
        let root = resolve(script, preset.iter().map(|(n, _)| n.as_str()));
        let (_, last) = self.eval_script(script, Rc::new(root), preset, name)?;
        Ok(last)
    }

    /// Load `requires` and append their exports to `preset`, then sort it
    /// stably by name. A module's exports come from a map, so only the
    /// sort gives equal imports equal slots from one runtime to the next;
    /// stability keeps a later entry of a name after an earlier one, and
    /// the later one wins (`Env::root`).
    fn import(
        &mut self,
        requires: &[String],
        preset: &mut Vec<(String, Value)>,
    ) -> Result<(), ShillError> {
        for req in requires {
            let exports = self.load_module(req)?;
            preset.extend(exports.iter().map(|(n, v)| (n.clone(), v.clone())));
        }
        preset.sort_by(|(a, _), (b, _)| a.cmp(b));
        Ok(())
    }

    /// Evaluate a resolved script in a fresh root frame, and collect its
    /// provided (contract-wrapped) exports.
    fn eval_script(
        &mut self,
        script: &Script,
        root: Rc<Root>,
        preset: Vec<(String, Value)>,
        name: &str,
    ) -> Result<(HashMap<String, Value>, Value), ShillError> {
        let env = Env::root(root, preset);
        let mut last = Value::Void;
        for stmt in &script.body {
            last = self.eval_stmt(&env, stmt)?;
        }
        // Wrap provides with their contracts at the module boundary.
        let mut exports = HashMap::new();
        for p in &script.provides {
            let v = env.named(&p.name).ok_or_else(|| {
                ShillError::Runtime(format!("provided `{}` is not defined", p.name))
            })?;
            let blame = Blame::citing(
                format!("client of {name}"),
                format!("{name}:{}", p.name),
                p.contract.clone(),
            );
            // positive=false: the provided value flows *out* of the module
            // to its client; function wrappers created here get
            // `into_body = true` (calling them enters the module).
            let wrapped = self.apply_contract(v, &p.contract, blame, &[], &env, false)?;
            exports.insert(p.name.clone(), wrapped);
        }
        Ok((exports, last))
    }

    /// Load (or fetch cached) a module by name. Only capability-safe
    /// scripts can be required (§2.5: "capability-safe scripts cannot
    /// import ambient scripts").
    pub fn load_module(&mut self, name: &str) -> Result<ModuleExports, ShillError> {
        if let Some(m) = self.module_cache.get(name) {
            return Ok(Rc::clone(m));
        }
        // Rust-implemented standard library modules.
        if let Some(m) = crate::stdlib::stdlib_module(name) {
            let m = Rc::new(m);
            self.module_cache.insert(name.to_string(), Rc::clone(&m));
            return Ok(m);
        }
        if self.loading.iter().any(|l| l == name) {
            return Err(ShillError::Runtime(format!("cyclic require of {name:?}")));
        }
        let source = self
            .scripts
            .get(name)
            .cloned()
            .ok_or_else(|| ShillError::Runtime(format!("unknown module {name:?}")))?;
        // The borrow ends here: loading the module's imports loads more.
        let cached = COMPILED.with(|c| c.borrow().get(&source).cloned());
        let script = match &cached {
            Some(c) => Rc::clone(&c.script),
            None => Rc::new(parse_script(&source)?),
        };
        if script.dialect != Dialect::CapSafe {
            return Err(ShillError::Runtime(format!(
                "cannot require {name:?}: only capability-safe scripts may be imported"
            )));
        }
        self.loading.push(name.to_string());
        let result = self.instantiate(name, source, script, cached);
        self.loading.pop();
        let m = Rc::new(result?);
        self.module_cache.insert(name.to_string(), Rc::clone(&m));
        Ok(m)
    }

    /// Load a module's imports, reuse its compiled form if it was resolved
    /// against the same import names (or compile it), and evaluate it.
    fn instantiate(
        &mut self,
        name: &str,
        source: String,
        script: Rc<Script>,
        cached: Option<Rc<Compiled>>,
    ) -> Result<HashMap<String, Value>, ShillError> {
        let mut preset = Vec::new();
        self.import(&script.requires, &mut preset)?;
        let names = || preset.iter().map(|(n, _)| n.as_str());
        let compiled = match cached {
            Some(c) if c.imports.iter().map(String::as_str).eq(names()) => c,
            stale => {
                // A fresh parse is ours alone. A stale entry's AST is never
                // resolved again: live closures share its `Fun`s.
                let mut script = match stale {
                    None => Rc::try_unwrap(script).expect("a fresh parse is not shared"),
                    Some(_) => parse_script(&source)?,
                };
                let root = resolve(&mut script, names());
                let c = Rc::new(Compiled {
                    script: Rc::new(script),
                    root: Rc::new(root),
                    imports: names().map(str::to_string).collect(),
                });
                COMPILED.with(|m| {
                    let mut m = m.borrow_mut();
                    if m.len() >= COMPILED_CAP {
                        m.clear();
                    }
                    m.insert(source, Rc::clone(&c));
                });
                c
            }
        };
        let root = Rc::clone(&compiled.root);
        let (exports, _) = self.eval_script(&compiled.script, root, preset, name)?;
        Ok(exports)
    }

    // --- statements / expressions ---------------------------------------------

    pub fn eval_stmt(&mut self, env: &Env, stmt: &Stmt) -> EvalResult {
        match stmt {
            Stmt::Def {
                name, expr, slot, ..
            } => {
                let v = self.eval_expr(env, expr)?;
                // Name closures after their binding for blame messages.
                if let Value::Closure(l, _) = &v {
                    if l.name.borrow().is_empty() {
                        *l.name.borrow_mut() = name.clone();
                    }
                }
                env.define(*slot, name, v)?;
                Ok(Value::Void)
            }
            Stmt::Expr(e, semi) => {
                let v = self.eval_expr(env, e)?;
                // A `;`-terminated statement is evaluated for effect only;
                // this is what makes `-> void` contracts satisfiable by
                // bodies like `wrapper(args, stdout = out);` (Figure 4).
                Ok(if *semi { Value::Void } else { v })
            }
        }
    }

    /// A block's definitions bind slots of the frame it runs in.
    fn eval_block(&mut self, env: &Env, stmts: &[Stmt]) -> EvalResult {
        let mut last = Value::Void;
        for s in stmts {
            last = self.eval_stmt(env, s)?;
        }
        Ok(last)
    }

    pub fn eval_expr(&mut self, env: &Env, expr: &Expr) -> EvalResult {
        self.enter()?;
        let r = self.eval_expr_inner(env, expr);
        self.leave();
        r
    }

    fn eval_expr_inner(&mut self, env: &Env, expr: &Expr) -> EvalResult {
        match expr {
            Expr::Void(_) => Ok(Value::Void),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Num(n, _) => Ok(Value::Num(*n)),
            Expr::Str(s, _) => Ok(Value::Str(Rc::clone(s))),
            Expr::Var(v) => {
                // The innermost scope whose definition has run wins.
                if let Some(val) = v.scopes.iter().find_map(|at| env.get(*at)) {
                    return Ok(val);
                }
                v.builtin.map(Builtin::value).ok_or_else(|| {
                    ShillError::Runtime(format!("unbound variable `{}` at {}", v.name, v.pos))
                })
            }
            Expr::List(items, _) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval_expr(env, e)?);
                }
                Ok(Value::list(out))
            }
            Expr::Fun(fun, _) => {
                let lambda = Lambda {
                    name: RefCell::default(),
                    fun: Rc::clone(fun),
                };
                Ok(Value::Closure(Rc::new(lambda), env.clone()))
            }
            Expr::Contract(c, _) => Ok(Value::Contract(Rc::new((**c).clone()))),
            Expr::Async(inner, _) => {
                // Evaluate the operand with deferral armed: I/O builtins
                // enqueue fragments into the accumulator and hand back
                // pending futures. Anything else the operand produces is
                // wrapped as an already-ready future, so
                // `await (async e) == e` uniformly.
                if self.deferred.is_none() {
                    self.deferred = Some(DeferredAcc::new());
                }
                self.async_depth += 1;
                let r = self.eval_expr(env, inner);
                self.async_depth -= 1;
                Ok(match r? {
                    f @ Value::Future(_) => f,
                    other => Value::Future(FutureCell::ready(other)),
                })
            }
            Expr::Await(inner, _) => {
                let v = self.eval_expr(env, inner)?;
                match v {
                    Value::Future(f) => {
                        // A pending future always belongs to the single
                        // live accumulator; forcing it flushes everything
                        // accumulated so far in one submission.
                        if f.is_pending() {
                            self.flush_deferred();
                        }
                        Ok(f.ready_value().unwrap_or(Value::Void))
                    }
                    // Awaiting a non-future is the identity, so scripts
                    // can sprinkle `await` over values of either shape.
                    other => Ok(other),
                }
            }
            Expr::Unary { op, expr, .. } => {
                let v = self.eval_expr(env, expr)?;
                match op {
                    UnOp::Not => Ok(Value::Bool(!v.truthy()?)),
                    UnOp::Neg => match v {
                        Value::Num(n) => Ok(Value::Num(-n)),
                        other => Err(ShillError::Runtime(format!(
                            "cannot negate {}",
                            other.type_name()
                        ))),
                    },
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => self.eval_binary(env, *op, lhs, rhs),
            Expr::If {
                cond, then, els, ..
            } => {
                let c = self.eval_expr(env, cond)?.truthy()?;
                if c {
                    self.eval_block(env, then)
                } else if let Some(e) = els {
                    self.eval_block(env, e)
                } else {
                    Ok(Value::Void)
                }
            }
            Expr::For {
                var,
                iter,
                body,
                frame_size,
                ..
            } => {
                let items = match self.eval_expr(env, iter)? {
                    Value::List(l) => l,
                    other => {
                        return Err(ShillError::Runtime(format!(
                            "for-loop expects a list, got {}",
                            other.type_name()
                        )))
                    }
                };
                for item in items.iter() {
                    let frame = env.child(*frame_size);
                    frame.define(0, var, item.clone())?;
                    self.eval_block(&frame, body)?;
                }
                Ok(Value::Void)
            }
            Expr::Call {
                callee,
                args,
                kwargs,
                pos,
            } => {
                let f = self.eval_expr(env, callee)?;
                let mut argv = self.arg_pool.pop().unwrap_or_default();
                let mut kw = Vec::new();
                let r = 'call: {
                    for a in args {
                        match self.eval_expr(env, a) {
                            Ok(v) => argv.push(v),
                            Err(e) => break 'call Err(e),
                        }
                    }
                    if !kwargs.is_empty() {
                        kw = self.kwarg_pool.pop().unwrap_or_default();
                    }
                    for (n, e) in kwargs {
                        match self.eval_expr(env, e) {
                            Ok(v) => kw.push((Rc::clone(n), v)),
                            Err(e) => break 'call Err(e),
                        }
                    }
                    match self.call(f, &mut argv, &mut kw) {
                        Err(ShillError::Runtime(m)) => {
                            Err(ShillError::Runtime(format!("{m} (call at {pos})")))
                        }
                        r => r,
                    }
                };
                // A closure moves the arguments into its frame; a builtin
                // reads them in place, and a failed argument leaves those
                // before it. Either way they drop here, with the call.
                argv.clear();
                if self.arg_pool.len() < ARG_POOL {
                    self.arg_pool.push(argv);
                }
                if kw.capacity() > 0 {
                    kw.clear();
                    if self.kwarg_pool.len() < ARG_POOL {
                        self.kwarg_pool.push(kw);
                    }
                }
                r
            }
        }
    }

    fn eval_binary(&mut self, env: &Env, op: BinOp, lhs: &Expr, rhs: &Expr) -> EvalResult {
        // Short-circuit logicals.
        match op {
            BinOp::And => {
                let l = self.eval_expr(env, lhs)?;
                if !l.truthy()? {
                    return Ok(Value::Bool(false));
                }
                let r = self.eval_expr(env, rhs)?;
                return Ok(Value::Bool(r.truthy()?));
            }
            BinOp::Or => {
                let l = self.eval_expr(env, lhs)?;
                if l.truthy()? {
                    return Ok(Value::Bool(true));
                }
                let r = self.eval_expr(env, rhs)?;
                return Ok(Value::Bool(r.truthy()?));
            }
            _ => {}
        }
        let l = self.eval_expr(env, lhs)?;
        let r = self.eval_expr(env, rhs)?;
        let num = |v: &Value| -> Result<i64, ShillError> {
            match v {
                Value::Num(n) => Ok(*n),
                other => Err(ShillError::Runtime(format!(
                    "arithmetic on {}",
                    other.type_name()
                ))),
            }
        };
        match op {
            BinOp::Eq => Ok(Value::Bool(l.equals(&r))),
            BinOp::Ne => Ok(Value::Bool(!l.equals(&r))),
            BinOp::Lt => Ok(Value::Bool(num(&l)? < num(&r)?)),
            BinOp::Le => Ok(Value::Bool(num(&l)? <= num(&r)?)),
            BinOp::Gt => Ok(Value::Bool(num(&l)? > num(&r)?)),
            BinOp::Ge => Ok(Value::Bool(num(&l)? >= num(&r)?)),
            BinOp::Add => Ok(Value::Num(num(&l)?.wrapping_add(num(&r)?))),
            BinOp::Sub => Ok(Value::Num(num(&l)?.wrapping_sub(num(&r)?))),
            BinOp::Mul => Ok(Value::Num(num(&l)?.wrapping_mul(num(&r)?))),
            BinOp::Concat => match (&l, &r) {
                (Value::Str(a), Value::Str(b)) => Ok(Value::str(format!("{a}{b}"))),
                (Value::List(a), Value::List(b)) => {
                    let mut out: Vec<Value> = a.iter().cloned().collect();
                    out.extend(b.iter().cloned());
                    Ok(Value::list(out))
                }
                _ => Err(ShillError::Runtime(format!(
                    "++ expects two strings or two lists, got {} and {}",
                    l.type_name(),
                    r.type_name()
                ))),
            },
            BinOp::And | BinOp::Or => unreachable!(),
        }
    }

    // --- application ----------------------------------------------------------

    pub fn apply(&mut self, f: Value, mut args: Vec<Value>, mut kwargs: Vec<Kwarg>) -> EvalResult {
        self.call(f, &mut args, &mut kwargs)
    }

    /// Call `f`. A closure moves the arguments into its frame, and a
    /// native function or a builtin reads them in place: what is left
    /// drops when the caller clears `args` and `kwargs`.
    fn call(&mut self, f: Value, args: &mut Vec<Value>, kwargs: &mut Vec<Kwarg>) -> EvalResult {
        self.enter()?;
        let r = self.call_inner(f, args, kwargs);
        self.leave();
        r
    }

    fn call_inner(
        &mut self,
        f: Value,
        args: &mut Vec<Value>,
        kwargs: &mut Vec<Kwarg>,
    ) -> EvalResult {
        match f {
            Value::Closure(l, env) => {
                let fun = &l.fun;
                if args.len() != fun.params.len() {
                    return Err(ShillError::Runtime(format!(
                        "{} expects {} arguments, got {}",
                        l.name.borrow(),
                        fun.params.len(),
                        args.len()
                    )));
                }
                if !kwargs.is_empty() {
                    return Err(ShillError::Runtime(format!(
                        "{} does not accept keyword arguments",
                        l.name.borrow()
                    )));
                }
                let frame = env.child(fun.frame_size);
                let params = fun.param_slots.iter().zip(&fun.params);
                for ((slot, p), v) in params.zip(args.drain(..)) {
                    frame.define(*slot, p, v)?;
                }
                self.eval_block(&frame, &fun.body)
            }
            Value::Contracted(cf) => self.apply_contracted(&cf, args, kwargs),
            // Builtins and native functions are the interpreter's kernel
            // crossings: each first closes the descriptors of capabilities
            // dropped since the last one (see `shill_cap::RawCap`).
            Value::Native(nf) => {
                self.kernel.drain_closes();
                (nf.f)(self, args, kwargs)
            }
            Value::Builtin(b) => {
                self.kernel.drain_closes();
                builtins::call_builtin(self, b, args, kwargs)
            }
            other => Err(ShillError::Runtime(format!(
                "cannot call a {}",
                other.type_name()
            ))),
        }
    }

    /// Call a contracted function: wrap each argument in place, call the
    /// inner function on them, and wrap its result.
    fn apply_contracted(
        &mut self,
        cf: &ContractedFn,
        args: &mut Vec<Value>,
        kwargs: &mut Vec<Kwarg>,
    ) -> EvalResult {
        self.profile.contract_applications += 1;
        let fc = &cf.contract;
        if args.len() != fc.args.len() {
            return Err(Violation::provider(
                &cf.blame,
                format!("expected {} arguments, got {}", fc.args.len(), args.len()),
            )
            .into());
        }
        // Mint a fresh brand per call for polymorphic contracts (§2.4.2).
        let mut minted;
        let seals = match &cf.forall {
            Some((var, bound)) => {
                minted = cf.seals.clone();
                let brand = SealBrand::mint(var.clone(), *bound, Arc::clone(&cf.blame));
                minted.push((var.clone(), brand));
                &minted
            }
            None => &cf.seals,
        };
        // Precondition: wrap each argument. The argument's *provider* is the
        // caller; violations of flat checks blame the caller side. Domain
        // polarity is `cf.into_body`: values entering the guarded body seal.
        // Named contracts resolve in the contract's defining environment.
        let env = &cf.cenv;
        let blames = cf.blames();
        for ((v, (_, c)), blame) in args.iter_mut().zip(&fc.args).zip(blames) {
            let arg = std::mem::replace(v, Value::Void);
            let blame = Arc::clone(blame);
            *v = self.apply_contract(arg, c, blame, seals, env, cf.into_body)?;
        }
        // Keyword arguments: check those with declared contracts.
        for (name, v) in kwargs.iter_mut() {
            if let Some(i) = fc.kwargs.iter().position(|(n, _)| **n == **name) {
                let arg = std::mem::replace(v, Value::Void);
                let blame = Arc::clone(&blames[fc.args.len() + i]);
                let c = &fc.kwargs[i].1;
                *v = self.apply_contract(arg, c, blame, seals, env, cf.into_body)?;
            }
        }
        let result = self.call(cf.inner.clone(), args, kwargs)?;
        // Postcondition: the function is the provider of the result; range
        // polarity is the flip of the domain's.
        let blame = Arc::clone(blames.last().expect("a result blame"));
        self.apply_contract(result, &fc.result, blame, seals, env, !cf.into_body)
    }

    // --- contract application ---------------------------------------------------

    /// Check whether a value passes `c`'s first-order (immediate) test —
    /// used to select a disjunct of an `Or` contract.
    #[allow(clippy::only_used_in_recursion)]
    fn first_order(
        &mut self,
        v: &Value,
        c: &ContractExpr,
        seals: &[(String, Arc<SealBrand>)],
        env: &Env,
    ) -> bool {
        // See through seals for kind queries.
        let v = match v {
            Value::Sealed { inner, .. } => inner,
            other => other,
        };
        match c {
            ContractExpr::IsFile | ContractExpr::File(_) => {
                matches!(v, Value::Cap(cap) if cap.is_file())
            }
            ContractExpr::IsDir | ContractExpr::Dir(_) => {
                matches!(v, Value::Cap(cap) if cap.is_dir())
            }
            ContractExpr::IsPipe => {
                matches!(v, Value::Cap(cap) if cap.kind() == shill_cap::CapKind::PipeEnd)
            }
            ContractExpr::Socket(_) => {
                matches!(v, Value::Cap(cap) if cap.kind() == shill_cap::CapKind::Socket)
            }
            ContractExpr::PipeFactory => {
                matches!(v, Value::Cap(cap) if cap.kind() == shill_cap::CapKind::PipeFactory)
            }
            ContractExpr::SocketFactory(_) => {
                matches!(v, Value::Cap(cap) if cap.kind() == shill_cap::CapKind::SocketFactory)
            }
            ContractExpr::IsBool => matches!(v, Value::Bool(_)),
            ContractExpr::IsNum => matches!(v, Value::Num(_)),
            ContractExpr::IsString => matches!(v, Value::Str(_)),
            ContractExpr::IsList => matches!(v, Value::List(_)),
            ContractExpr::IsFun | ContractExpr::Func(_) | ContractExpr::Forall { .. } => {
                v.is_callable()
            }
            ContractExpr::Void => matches!(v, Value::Void),
            ContractExpr::Any => true,
            ContractExpr::NativeWallet => {
                matches!(v, Value::Wallet(w) if w.kind == "native")
            }
            ContractExpr::Wallet => matches!(v, Value::Wallet(_)),
            ContractExpr::Or(cs) => cs.iter().any(|c| self.first_order(v, c, seals, env)),
            ContractExpr::And(cs) => cs.iter().all(|c| self.first_order(v, c, seals, env)),
            ContractExpr::Var(_) => matches!(v, Value::Cap(_) | Value::Sealed { .. }),
            ContractExpr::Named(name) => match env.named(name) {
                Some(Value::Contract(inner)) => self.first_order(v, &inner, seals, env),
                Some(f) if f.is_callable() => true, // predicate: decided at apply
                _ => false,
            },
            ContractExpr::Predicate(_) => true,
        }
    }

    /// Apply a contract to a value: flat checks verify, capability contracts
    /// wrap with guards, function contracts wrap with [`ContractedFn`],
    /// `forall` variables seal (`positive`) or unseal (`!positive`).
    pub fn apply_contract(
        &mut self,
        v: Value,
        c: &ContractExpr,
        blame: Arc<Blame>,
        seals: &[(String, Arc<SealBrand>)],
        env: &Env,
        positive: bool,
    ) -> EvalResult {
        self.profile.contract_applications += 1;
        let fail = |msg: String| -> ShillError { Violation::provider(&blame, msg).into() };
        match c {
            ContractExpr::Any => Ok(v),
            ContractExpr::Void => match v {
                Value::Void => Ok(Value::Void),
                other => Err(fail(format!("expected void, got {}", other.type_name()))),
            },
            ContractExpr::IsBool
            | ContractExpr::IsNum
            | ContractExpr::IsString
            | ContractExpr::IsList
            | ContractExpr::IsFun
            | ContractExpr::IsFile
            | ContractExpr::IsDir
            | ContractExpr::IsPipe => {
                if self.first_order(&v, c, seals, env) {
                    Ok(v)
                } else {
                    Err(fail(format!(
                        "value of type {} does not satisfy {}",
                        v.type_name(),
                        contract_to_string(c)
                    )))
                }
            }
            ContractExpr::File(privs) | ContractExpr::Dir(privs) | ContractExpr::Socket(privs) => {
                if !self.first_order(&v, c, seals, env) {
                    return Err(fail(format!(
                        "value of type {} does not satisfy {}",
                        v.type_name(),
                        contract_to_string(c)
                    )));
                }
                match v {
                    Value::Cap(cap) => {
                        self.profile.guard_checks += 1;
                        Ok(Value::Cap(
                            cap.restrict(Arc::new(privs.clone()), Arc::clone(&blame)),
                        ))
                    }
                    Value::Sealed { .. } => Err(fail(
                        "cannot apply a capability contract to a sealed value".into(),
                    )),
                    _ => unreachable!("first_order checked"),
                }
            }
            ContractExpr::PipeFactory => {
                if self.first_order(&v, c, seals, env) {
                    Ok(v)
                } else {
                    Err(fail("expected a pipe factory".into()))
                }
            }
            ContractExpr::SocketFactory(privs) => match v {
                Value::Cap(cap) if cap.kind() == shill_cap::CapKind::SocketFactory => {
                    let mut cp = shill_cap::CapPrivs::of(*privs);
                    cp.privs.insert(shill_cap::Priv::SockCreate);
                    Ok(Value::Cap(cap.restrict(Arc::new(cp), Arc::clone(&blame))))
                }
                other => Err(fail(format!(
                    "expected a socket factory, got {}",
                    other.type_name()
                ))),
            },
            ContractExpr::NativeWallet | ContractExpr::Wallet => {
                if self.first_order(&v, c, seals, env) {
                    Ok(v)
                } else {
                    Err(fail(format!(
                        "expected a {} wallet, got {}",
                        if matches!(c, ContractExpr::NativeWallet) {
                            "native"
                        } else {
                            ""
                        },
                        v.type_name()
                    )))
                }
            }
            ContractExpr::And(cs) => {
                let mut out = v;
                for c in cs {
                    out = self.apply_contract(out, c, Arc::clone(&blame), seals, env, positive)?;
                }
                Ok(out)
            }
            ContractExpr::Or(cs) => {
                for branch in cs {
                    if self.first_order(&v, branch, seals, env) {
                        return self.apply_contract(v, branch, blame, seals, env, positive);
                    }
                }
                Err(fail(format!(
                    "value of type {} matches no branch of {}",
                    v.type_name(),
                    contract_to_string(c)
                )))
            }
            ContractExpr::Func(fc) => {
                if !v.is_callable() {
                    return Err(fail(format!("expected a function, got {}", v.type_name())));
                }
                // Polarity flips at each function-contract nesting: a
                // function received as an *argument* (positive context) is
                // called by the body, sending values back out — so its
                // wrapper's domain unseals, and the contractual parties
                // swap (standard higher-order blame).
                Ok(Value::Contracted(Rc::new(ContractedFn {
                    inner: v,
                    contract: Arc::clone(fc),
                    forall: None,
                    blame: if positive { blame.swapped() } else { blame },
                    seals: seals.to_vec(),
                    into_body: !positive,
                    cenv: env.clone(),
                    blames: OnceCell::new(),
                })))
            }
            ContractExpr::Forall { var, bound, body } => {
                let ContractExpr::Func(fc) = &**body else {
                    return Err(fail("forall must wrap a function contract".into()));
                };
                if !v.is_callable() {
                    return Err(fail(format!("expected a function, got {}", v.type_name())));
                }
                Ok(Value::Contracted(Rc::new(ContractedFn {
                    inner: v,
                    contract: Arc::clone(fc),
                    forall: Some((var.clone(), *bound)),
                    blame: if positive { blame.swapped() } else { blame },
                    seals: seals.to_vec(),
                    into_body: !positive,
                    cenv: env.clone(),
                    blames: OnceCell::new(),
                })))
            }
            ContractExpr::Var(name) => {
                let Some((_, brand)) = seals.iter().rev().find(|(n, _)| n == name) else {
                    return Err(fail(format!("unbound contract variable {name}")));
                };
                if positive {
                    // Value flows INTO the guarded component: seal it.
                    match &v {
                        Value::Cap(_) | Value::Sealed { .. } => Ok(Value::Sealed {
                            brand: Arc::clone(brand),
                            inner: Rc::new(v),
                        }),
                        other => Err(fail(format!(
                            "contract variable {name} expects a capability, got {}",
                            other.type_name()
                        ))),
                    }
                } else {
                    // Value flows OUT to a context that bound X: unseal.
                    match v {
                        Value::Sealed { brand: b, inner } if b.same(brand) => Ok((*inner).clone()),
                        Value::Sealed { brand: b, .. } => Err(Violation::consumer(
                            &blame,
                            format!(
                                "sealed value of {} leaked into context expecting {}",
                                b.var, name
                            ),
                        )
                        .into()),
                        other => Ok(other), // unsealed values pass through
                    }
                }
            }
            ContractExpr::Named(name) => match env.named(name) {
                Some(Value::Contract(inner)) => {
                    self.apply_contract(v, &inner, blame, seals, env, positive)
                }
                Some(f) if f.is_callable() => {
                    // User-defined predicate (§2.4.2: "user-defined
                    // predicates written in SHILL itself").
                    let verdict = self.apply(f, vec![v.clone()], vec![])?;
                    match verdict {
                        Value::Bool(true) => Ok(v),
                        Value::Bool(false) => {
                            Err(fail(format!("predicate `{name}` rejected the value")))
                        }
                        other => Err(ShillError::Runtime(format!(
                            "predicate `{name}` returned {}, expected a boolean",
                            other.type_name()
                        ))),
                    }
                }
                _ => Err(ShillError::Runtime(format!("unknown contract `{name}`"))),
            },
            ContractExpr::Predicate(name) => {
                let f = env
                    .named(name)
                    .ok_or_else(|| ShillError::Runtime(format!("unknown predicate `{name}`")))?;
                let verdict = self.apply(f, vec![v.clone()], vec![])?;
                match verdict {
                    Value::Bool(true) => Ok(v),
                    _ => Err(fail(format!("predicate `{name}` rejected the value"))),
                }
            }
        }
    }

    // --- helpers shared with builtins ------------------------------------------

    /// Unwrap a (possibly multiply) sealed capability, checking that every
    /// brand's bound allows `needed`. Returns the inner guarded capability;
    /// a caller that derives a capability from it seals that as `v` is
    /// sealed, with `Interp::sealed_like`.
    pub fn unseal_for<'v>(
        &mut self,
        v: &'v Value,
        needed: shill_cap::Priv,
    ) -> Result<&'v GuardedCap, ShillError> {
        let mut cur = v;
        loop {
            match cur {
                Value::Sealed { brand, inner } => {
                    if !brand.bound.contains(needed) {
                        return Err(Violation::consumer(
                            &brand.blame,
                            format!(
                                "operation {needed} is outside the bound of contract variable {}",
                                brand.var
                            ),
                        )
                        .into());
                    }
                    cur = inner;
                }
                Value::Cap(cap) => {
                    self.profile.guard_checks += 1;
                    return Ok(cap);
                }
                other => {
                    return Err(ShillError::Runtime(format!(
                        "expected a capability, got {}",
                        other.type_name()
                    )))
                }
            }
        }
    }

    /// `v` sealed with the brands `from` is sealed with, in the same
    /// order (§2.4.2: what a sealed directory yields stays sealed). One
    /// allocation per seal, none for an unsealed `from`.
    pub(crate) fn sealed_like(from: &Value, v: Value) -> Value {
        match from {
            Value::Sealed { brand, inner } => Value::Sealed {
                brand: Arc::clone(brand),
                inner: Rc::new(Self::sealed_like(inner, v)),
            },
            _ => v,
        }
    }

    /// The socket-factory privileges of a capability (used by `exec`).
    pub fn socket_factory_privs(privs: &CapPrivs) -> PrivSet {
        let mut out = PrivSet::EMPTY;
        for p in shill_cap::privs::socket_privs() {
            if privs.allows(*p) {
                out.insert(*p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use shill_vfs::Cred;

    use super::*;
    use crate::runtime::{RuntimeConfig, ShillRuntime};

    /// Run `f` on a fresh thread, whose module cache starts empty.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("test thread");
    }

    fn runtime() -> ShillRuntime {
        ShillRuntime::new(Kernel::new(), RuntimeConfig::NoPolicy, Cred::ROOT)
    }

    fn compiled(source: &str) -> Option<Rc<Compiled>> {
        COMPILED.with(|c| c.borrow().get(source).cloned())
    }

    fn entries() -> usize {
        COMPILED.with(|c| c.borrow().len())
    }

    /// `v` of a module registered as `m.cap`, required by an ambient script.
    fn require_v(rt: &mut ShillRuntime, source: &str) -> EvalResult {
        rt.add_script("m.cap", source);
        rt.run("main", "#lang shill/ambient\nrequire \"m.cap\";\nv")
    }

    #[test]
    fn runtimes_on_one_thread_share_a_module_that_imports_shill_native() {
        // `shill/native` is built afresh by every runtime, so its exports
        // come out of a new map each time.
        const M: &str = r#"#lang shill/cap
require shill/native;
require "shill/prelude";
v = length(map(id, [is_syserror, pkg_native]));
provide v : is_num;
"#;
        on_fresh_thread(|| {
            let mut first = runtime();
            assert!(matches!(require_v(&mut first, M), Ok(Value::Num(2))));
            let entry = compiled(M).expect("the module is compiled");
            let mut second = runtime();
            assert!(matches!(require_v(&mut second, M), Ok(Value::Num(2))));
            assert!(Rc::ptr_eq(&entry, &compiled(M).expect("still compiled")));
        });
    }

    #[test]
    fn a_module_name_with_new_source_runs_the_new_text() {
        on_fresh_thread(|| {
            for n in [1, 2] {
                let mut rt = runtime();
                let source = format!("#lang shill/cap\nv = {n};\nprovide v : is_num;\n");
                assert!(matches!(require_v(&mut rt, &source), Ok(Value::Num(v)) if v == n));
            }
        });
    }

    #[test]
    fn the_script_a_run_takes_is_not_cached() {
        on_fresh_thread(|| {
            let mut rt = runtime();
            assert_eq!(entries(), 1, "the prelude");
            rt.run("main", "#lang shill/ambient\nx = 1;\nx").unwrap();
            rt.run("main", "#lang shill/cap\nf = fun(x) { x };\nf(1)")
                .unwrap();
            assert_eq!(entries(), 1);
        });
    }
}
