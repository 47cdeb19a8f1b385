//! Rust-implemented standard-library modules (§3.1.4).
//!
//! * `shill/native` — capability wallets for launching executables:
//!   `populate_native_wallet` resolves `$PATH`/`$LD_LIBRARY_PATH`-style
//!   specs against a root directory capability; `pkg_native` finds an
//!   executable in a wallet, runs the simulated `ldd` to collect library
//!   capabilities, and returns a contracted wrapper that `exec`s the
//!   program with everything it needs.
//! * `shill/contracts` — abbreviations (`readonly`, `writeable`, ...).
//! * `shill/filesys` — multi-component path resolution via chained lookups,
//!   plus batch-backed cat/cp-style helpers (`copy_file`, `dir_stats`) that
//!   submit one kernel batch where the naive script loop would issue one
//!   call per chunk or per name.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use shill_cap::{CapPrivs, Priv, PrivSet};
use shill_contracts::{Blame, CapError, GuardedCap};

use crate::ast::{ContractExpr, Dialect, FuncContract};
use crate::builtins::{self, cap_result, Builtin, Extras};
use crate::env::Env;
use crate::eval::Interp;
use crate::value::{ContractedFn, EvalResult, Kwarg, NativeFn, ShillError, Value};

/// Fetch a Rust-implemented stdlib module by name.
pub fn stdlib_module(name: &str) -> Option<HashMap<String, Value>> {
    match name {
        "shill/native" => Some(native_module()),
        "shill/contracts" => Some(contracts_module()),
        "shill/filesys" => Some(filesys_module()),
        _ => None,
    }
}

fn native_fn(
    name: &str,
    f: impl Fn(&mut Interp, &[Value], &[Kwarg]) -> EvalResult + 'static,
) -> Value {
    Value::Native(Rc::new(NativeFn {
        name: name.to_string(),
        f: Box::new(f),
    }))
}

// --- shill/contracts ---------------------------------------------------------

fn contracts_module() -> HashMap<String, Value> {
    let mut m: HashMap<String, Value> =
        [Builtin::Readonly, Builtin::Writeable, Builtin::Appendonly]
            .into_iter()
            .map(|b| (b.name().to_string(), b.value()))
            .collect();
    m.insert(
        "executable".into(),
        Value::Contract(Rc::new(ContractExpr::File(CapPrivs::of(PrivSet::of(&[
            Priv::Exec,
            Priv::Read,
            Priv::Stat,
            Priv::Path,
        ]))))),
    );
    m
}

// --- shill/filesys -----------------------------------------------------------

fn filesys_module() -> HashMap<String, Value> {
    let mut m = HashMap::new();
    // resolve_path(dircap, "a/b/c") -> capability (or syserror). Each
    // component is a separate `lookup`, so contracts and capability safety
    // apply per step; `..` is refused by `lookup` itself.
    m.insert(
        "resolve_path".into(),
        native_fn("resolve_path", |interp, args, _kw| {
            if args.len() != 2 {
                return Err(ShillError::Runtime(
                    "resolve_path expects (dir, path)".into(),
                ));
            }
            let Value::Str(path) = &args[1] else {
                return Err(ShillError::Runtime(
                    "resolve_path: path must be a string".into(),
                ));
            };
            let mut cur = args[0].clone();
            for comp in path.split('/').filter(|c| !c.is_empty()) {
                let cap = interp.unseal_for(&cur, Priv::Lookup)?;
                let pid = interp.pid;
                match cap.lookup(&mut interp.kernel, pid, comp) {
                    Ok(next) => cur = Interp::sealed_like(&cur, Value::Cap(next)),
                    Err(CapError::Sys(e)) => return Ok(Value::SysErr(e)),
                    Err(CapError::Violation(v)) => return Err(v.into()),
                }
            }
            Ok(cur)
        }),
    );
    // copy_file(src, dst) -> bytes copied (or syserror). cp in one
    // expression, fused onto the scheduler's pipeline path: each window is
    // ONE submission (read → truncate → write) with the bytes flowing to
    // the write through a slot reference instead of surfacing here; under
    // `async` the first window joins the accumulated batch. Self-copies
    // and copies involving a pipe, socket or device decline the pipeline
    // and copy byte-wise. Requires +read on src and +write (with
    // +truncate/+append per the sandbox's write conservatism) on dst.
    m.insert(
        "copy_file".into(),
        native_fn("copy_file", |interp, args, _kw| {
            if args.len() != 2 {
                return Err(ShillError::Runtime("copy_file expects (src, dst)".into()));
            }
            let src = interp.unseal_for(&args[0], Priv::Read)?;
            let dst = interp.unseal_for(&args[1], Priv::Write)?;
            cap_result(
                match interp.batchable(|acc, _, _| acc.defer_copy(src, dst)) {
                    Ok(Some(v)) => Ok(v),
                    Ok(None) => crate::batchio::cap_copy(&mut interp.kernel, interp.pid, src, dst)
                        .map(|n| Value::Num(n as i64)),
                    Err(e) => Err(e),
                },
            )
        }),
    );
    // dir_stats(dir) -> list of [name, size] pairs. The `contents` +
    // per-name `stat` loop as one readdir plus one batched fstatat sweep;
    // names whose stat fails (vanished, denied) are skipped, like `find`.
    // Under `async` the readdir still runs at once (the sweep needs the
    // names) and the fstatat fan joins the accumulated batch.
    m.insert(
        "dir_stats".into(),
        native_fn("dir_stats", |interp, args, _kw| {
            if args.len() != 1 {
                return Err(ShillError::Runtime("dir_stats expects (dir)".into()));
            }
            let dir = interp.unseal_for(&args[0], Priv::Contents)?;
            cap_result(
                interp
                    .batchable(|acc, k, pid| acc.defer_dir_stats(k, pid, dir).map(Some))
                    .map(|v| v.unwrap_or(Value::Void)),
            )
        }),
    );
    // slurp_many(caps) -> list of file contents (per-element syserrors for
    // the files that fail). The whole sweep is ONE submission — a Preadv
    // window per file — instead of a read syscall per element. Under
    // `async` it joins the accumulated batch and returns a future.
    m.insert(
        "slurp_many".into(),
        native_fn("slurp_many", |interp, args, _kw| {
            if args.len() != 1 {
                return Err(ShillError::Runtime("slurp_many expects (cap-list)".into()));
            }
            let items: Vec<Value> = match &args[0] {
                Value::List(l) => l.iter().cloned().collect(),
                other => vec![other.clone()],
            };
            let mut caps = Vec::with_capacity(items.len());
            for v in &items {
                caps.push(interp.unseal_for(v, Priv::Read)?.clone());
            }
            match interp.batchable(|acc, _, _| acc.defer_slurp(&caps)) {
                Ok(Some(v)) => return Ok(v),
                Ok(None) => {}
                Err(e) => return cap_result(Err(e)),
            }
            // Some capability was not batchable (pipe/socket): read each
            // eagerly, keeping the per-element string/syserror shape.
            let pid = interp.pid;
            let mut out = Vec::with_capacity(caps.len());
            for cap in &caps {
                match crate::batchio::cap_read_all(&mut interp.kernel, pid, cap) {
                    Ok(d) => out.push(Value::str(String::from_utf8_lossy(&d).into_owned())),
                    Err(CapError::Sys(e)) => out.push(Value::SysErr(e)),
                    Err(CapError::Violation(v)) => return Err(v.into()),
                }
            }
            Ok(Value::list(out))
        }),
    );
    m
}

// --- shill/native ------------------------------------------------------------

fn native_module() -> HashMap<String, Value> {
    let mut m = HashMap::new();
    m.insert(
        "populate_native_wallet".into(),
        native_fn("populate_native_wallet", populate_native_wallet),
    );
    m.insert("pkg_native".into(), native_fn("pkg_native", pkg_native));
    m
}

fn want_wallet(v: &Value) -> Result<Rc<crate::value::Wallet>, ShillError> {
    match v {
        Value::Wallet(w) => Ok(Rc::clone(w)),
        other => Err(ShillError::Runtime(format!(
            "expected a wallet, got {}",
            other.type_name()
        ))),
    }
}

fn want_cap(v: &Value) -> Result<&GuardedCap, ShillError> {
    match v {
        Value::Cap(c) => Ok(c),
        other => Err(ShillError::Runtime(format!(
            "expected a capability, got {}",
            other.type_name()
        ))),
    }
}

/// Walk a `/`-separated path from a directory capability via lookups.
fn walk(
    interp: &mut Interp,
    root: &GuardedCap,
    path: &str,
) -> Result<Option<GuardedCap>, ShillError> {
    let mut cur = root.clone();
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        let pid = interp.pid;
        match cur.lookup(&mut interp.kernel, pid, comp) {
            Ok(next) => cur = next,
            Err(CapError::Sys(_)) => return Ok(None),
            Err(CapError::Violation(v)) => return Err(v.into()),
        }
    }
    Ok(Some(cur))
}

/// `populate_native_wallet(wallet, root, path_spec, libpath_spec[, pipe_factory])`
///
/// §3.1.4: "Its arguments include path specifications for where to search
/// for executables and libraries (i.e., colon-separated strings, analogous
/// to environment variables $PATH and $LD_LIBRARY_PATH), and a directory
/// capability to use as a root for the path specifications."
fn populate_native_wallet(interp: &mut Interp, args: &[Value], _kw: &[Kwarg]) -> EvalResult {
    if args.len() < 4 || args.len() > 5 {
        return Err(ShillError::Runtime(
            "populate_native_wallet expects (wallet, root, path_spec, libpath_spec[, pipe_factory])".into(),
        ));
    }
    let wallet = want_wallet(&args[0])?;
    let root = want_cap(&args[1])?.clone();
    let Value::Str(path_spec) = &args[2] else {
        return Err(ShillError::Runtime("path_spec must be a string".into()));
    };
    let Value::Str(lib_spec) = &args[3] else {
        return Err(ShillError::Runtime("libpath_spec must be a string".into()));
    };

    let mut paths = Vec::new();
    for spec in path_spec.split(':').filter(|s| !s.is_empty()) {
        if let Some(cap) = walk(interp, &root, spec)? {
            paths.push(Value::Cap(cap));
        }
    }
    let mut libs = Vec::new();
    for spec in lib_spec.split(':').filter(|s| !s.is_empty()) {
        if let Some(cap) = walk(interp, &root, spec)? {
            libs.push(Value::Cap(cap));
        }
    }
    // Traversal-only root: +lookup with nothing extra propagating beyond
    // lookup itself, so sandboxes can resolve absolute paths without
    // gaining read access along the way.
    let lookup_only = CapPrivs::of(PrivSet::of(&[Priv::Lookup]))
        .with_modifier(Priv::Lookup, CapPrivs::of(PrivSet::of(&[Priv::Lookup])));
    let rooted = root.restrict(
        Arc::new(lookup_only),
        Blame::new(
            "populate_native_wallet",
            "sandbox",
            "root : dir(+lookup with {+lookup})",
        ),
    );

    let mut map = wallet.map.borrow_mut();
    map.entry("PATH".into()).or_default().extend(paths);
    map.entry("LD_LIBRARY_PATH".into())
        .or_default()
        .extend(libs);
    map.insert("root".into(), vec![Value::Cap(rooted)]);
    if let Some(pf) = args.get(4) {
        match pf {
            Value::Cap(c) if c.kind() == shill_cap::CapKind::PipeFactory => {
                map.insert("pipe-factory".into(), vec![pf.clone()]);
            }
            Value::Void => {}
            other => {
                return Err(ShillError::Runtime(format!(
                    "fifth argument must be a pipe factory, got {}",
                    other.type_name()
                )))
            }
        }
    }
    Ok(Value::Void)
}

/// `pkg_native(program, wallet)` (§3.1.4): find the executable on the
/// wallet's PATH, run `ldd` for its libraries, gather known extra
/// dependencies, and return a contracted wrapper closing over everything
/// needed to `exec` it.
fn pkg_native(interp: &mut Interp, args: &[Value], _kw: &[Kwarg]) -> EvalResult {
    if args.len() != 2 {
        return Err(ShillError::Runtime(
            "pkg_native expects (program, wallet)".into(),
        ));
    }
    let Value::Str(program) = &args[0] else {
        return Err(ShillError::Runtime(
            "pkg_native: program must be a string".into(),
        ));
    };
    let program = program.to_string();
    let wallet = want_wallet(&args[1])?;

    // 1. Find the executable along PATH.
    let path_caps: Vec<Value> = wallet.map.borrow().get("PATH").cloned().unwrap_or_default();
    let mut exec_cap: Option<GuardedCap> = None;
    for dir in &path_caps {
        let dir = want_cap(dir)?;
        let pid = interp.pid;
        match dir.lookup(&mut interp.kernel, pid, program.as_str()) {
            Ok(c) if c.is_file() => {
                exec_cap = Some(c);
                break;
            }
            Ok(_) => {}
            Err(CapError::Sys(_)) => {}
            Err(CapError::Violation(v)) => return Err(v.into()),
        }
    }
    let Some(exec_cap) = exec_cap else {
        return Ok(Value::SysErr(shill_vfs::Errno::ENOENT));
    };
    let exec_node = exec_cap
        .raw
        .node
        .ok_or_else(|| ShillError::Runtime("executable has no backing file".into()))?;
    // Restrict the executable capability to what running it needs.
    let exec_privs = CapPrivs::of(PrivSet::of(&[
        Priv::Exec,
        Priv::Read,
        Priv::Path,
        Priv::Stat,
    ]));
    let exec_cap = exec_cap.restrict(
        Arc::new(exec_privs),
        Blame::new(
            "pkg_native",
            "sandbox",
            "exe : file(+exec, +read, +path, +stat)",
        ),
    );

    // 2. `ldd`: dependencies as absolute paths, resolved against the
    // wallet's library directories by basename.
    let deps = interp.kernel.ldd(exec_node).unwrap_or_default();
    let lib_dirs: Vec<Value> = wallet
        .map
        .borrow()
        .get("LD_LIBRARY_PATH")
        .cloned()
        .unwrap_or_default();
    let ro = Arc::new(CapPrivs::of(PrivSet::readonly_file()));
    let mut lib_caps: Vec<Value> = Vec::new();
    for dep in &deps {
        let base = dep.rsplit('/').next().unwrap_or(dep);
        for dir in &lib_dirs {
            let dir = want_cap(dir)?;
            let pid = interp.pid;
            match dir.lookup(&mut interp.kernel, pid, base) {
                Ok(c) => {
                    let guarded = c.restrict(
                        Arc::clone(&ro),
                        Blame::new("pkg_native", "sandbox", "lib : file(+stat, +read, +path)"),
                    );
                    lib_caps.push(Value::Cap(guarded));
                    break;
                }
                Err(CapError::Sys(_)) => {}
                Err(CapError::Violation(v)) => return Err(v.into()),
            }
        }
    }

    // 3. Known extra dependencies and the traversal root.
    {
        let map = wallet.map.borrow();
        if let Some(extra) = map.get(&format!("deps:{program}")) {
            lib_caps.extend(extra.iter().cloned());
        }
        if let Some(root) = map.get("root") {
            lib_caps.extend(root.iter().cloned());
        }
        if let Some(pf) = map.get("pipe-factory") {
            lib_caps.extend(pf.iter().cloned());
        }
    }

    // 4. The wrapper: exec with all gathered capabilities. It accepts
    // (args_list) plus stdio/extras keywords, like Figure 4's
    // `jpeg_wrapper(["-i", arg], stdout = out)`. What is the same on every
    // launch is built here, once: the program's name, which heads the
    // argv, and the grants of the libraries, the root and the pipe
    // factory.
    let mut fixed = Extras::default();
    for cap in &lib_caps {
        fixed.add(interp, cap)?;
    }
    let head = [Value::str(program.as_str())];
    let exec_val = Value::Cap(exec_cap);
    let wrapper = native_fn(
        &format!("native:{program}"),
        move |interp, wargs, wkwargs| {
            if wargs.len() != 1 {
                return Err(ShillError::Runtime(format!(
                    "{} wrapper expects one argument (argv list)",
                    head[0].display()
                )));
            }
            let argv = match &wargs[0] {
                Value::List(items) => &items[..],
                one => std::slice::from_ref(one),
            };
            builtins::launch(interp, &exec_val, &head, argv, wkwargs, &fixed)
        },
    );

    // 5. The contract on pkg_native's result — "checked once per sandbox"
    // and the dominant contract-checking cost in the paper's profile
    // (§4.2). Declares the argv list and stdio capability obligations.
    let stdio_out = ContractExpr::File(CapPrivs::of(PrivSet::of(&[
        Priv::Write,
        Priv::Append,
        Priv::Stat,
        Priv::Path,
    ])));
    let stdio_in = ContractExpr::File(CapPrivs::of(PrivSet::of(&[
        Priv::Read,
        Priv::Stat,
        Priv::Path,
    ])));
    let contract = FuncContract {
        args: vec![("args".to_string(), ContractExpr::IsList)],
        kwargs: vec![
            ("stdout".to_string(), stdio_out.clone()),
            ("stderr".to_string(), stdio_out),
            ("stdin".to_string(), stdio_in),
            ("extras".to_string(), ContractExpr::IsList),
        ],
        result: ContractExpr::Any,
    };
    let blame = Blame::new(
        format!("caller of native:{program}"),
        format!("native:{program}"),
        format!("native wrapper for {program}"),
    );
    Ok(Value::Contracted(Rc::new(ContractedFn {
        inner: wrapper,
        contract: Arc::new(contract),
        forall: None,
        blame,
        seals: Vec::new(),
        into_body: true,
        cenv: Env::bare(Dialect::CapSafe),
        blames: Default::default(),
    })))
}
