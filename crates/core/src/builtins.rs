//! Built-in functions: the capability-consuming wrappers around system
//! calls (§2.1), list/string helpers, and the `exec` sandbox launcher
//! (§2.3).

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use shill_cap::{CapKind, CapPrivs, Priv, PrivSet, RawCap};
use shill_contracts::{CapError, GuardedCap};
use shill_kernel::{FdObject, ObjId, Ulimits};
use shill_sandbox::{Grant, SandboxSpec};
use shill_vfs::{Errno, Mode};

use crate::ast::{ContractExpr, Dialect};
use crate::eval::Interp;
use crate::value::{EvalResult, Kwarg, ShillError, Value, Wallet};

/// Declares [`Builtin`] with the name each variant is called by.
macro_rules! builtins {
    ($($variant:ident = $name:literal,)*) => {
        /// A builtin, by what scripts call it. The resolver binds every
        /// free name that names one, so no scope holds the builtins.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Builtin {
            $($variant,)*
        }

        impl Builtin {
            /// The name scripts use.
            pub fn name(self) -> &'static str {
                match self {
                    $(Builtin::$variant => $name,)*
                }
            }

            fn named(name: &str) -> Option<Builtin> {
                match name {
                    $($name => Some(Builtin::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

builtins! {
    IsFile = "is_file",
    IsDir = "is_dir",
    IsPipe = "is_pipe",
    IsSyserror = "is_syserror",
    IsBool = "is_bool",
    IsNum = "is_num",
    IsString = "is_string",
    IsList = "is_list",
    IsVoid = "is_void",
    IsFun = "is_fun",
    HasExt = "has_ext",
    Path = "path",
    Read = "read",
    Write = "write",
    Append = "append",
    Contents = "contents",
    Lookup = "lookup",
    CreateFile = "create_file",
    CreateDir = "create_dir",
    UnlinkFile = "unlink_file",
    UnlinkDir = "unlink_dir",
    ReadSymlink = "read_symlink",
    Link = "link",
    CreatePipe = "create_pipe",
    CreateSocket = "create_socket",
    SockConnect = "sock_connect",
    SockSend = "sock_send",
    SockRecv = "sock_recv",
    Exec = "exec",
    Length = "length",
    Nth = "nth",
    Split = "split",
    StartsWith = "starts_with",
    EndsWith = "ends_with",
    StripPrefix = "strip_prefix",
    ToString = "to_string",
    Display = "display",
    Syserror = "syserror",
    Telemetry = "telemetry",
    WalletGet = "wallet_get",
    WalletKeys = "wallet_keys",
    WalletSet = "wallet_set",
    WalletAddDep = "wallet_add_dep",
    StatSize = "stat_size",
    // Ambient only (§2.5): path-based capability creation and wallets.
    OpenFile = "open_file",
    OpenDir = "open_dir",
    CreateWallet = "create_wallet",
    // Contract abbreviations. §3.1.4: "a programmer can specify the
    // contract `readonly` rather than the more verbose dir(...) ∨ file(...)".
    Readonly = "readonly",
    Writeable = "writeable",
    Appendonly = "appendonly",
}

impl Builtin {
    /// The builtin a free `name` means in `dialect`.
    pub fn lookup(name: &str, dialect: Dialect) -> Option<Builtin> {
        use Builtin::*;
        Builtin::named(name).filter(|b| {
            dialect == Dialect::Ambient || !matches!(b, OpenFile | OpenDir | CreateWallet)
        })
    }

    /// What a reference to the builtin evaluates to: the function itself,
    /// or the contract an abbreviation stands for.
    pub fn value(self) -> Value {
        let file = |privs: &[Priv]| ContractExpr::File(CapPrivs::of(PrivSet::of(privs)));
        let contract = match self {
            Builtin::Readonly => ContractExpr::Or(vec![
                ContractExpr::Dir(CapPrivs::of(PrivSet::readonly_dir())),
                ContractExpr::File(CapPrivs::of(PrivSet::readonly_file())),
            ]),
            Builtin::Writeable => file(&[
                Priv::Write,
                Priv::Append,
                Priv::Truncate,
                Priv::Stat,
                Priv::Path,
            ]),
            Builtin::Appendonly => file(&[Priv::Append, Priv::Path]),
            b => return Value::Builtin(b),
        };
        Value::Contract(Rc::new(contract))
    }
}

/// What an ambient script's root binds before it runs: the factories, and
/// capabilities for the controlling terminal (§2.5).
pub fn ambient_values(interp: &mut Interp) -> Vec<(String, Value)> {
    let unguarded = |cap| Value::Cap(GuardedCap::unguarded(cap));
    let mut out = vec![
        ("pipe_factory".into(), unguarded(RawCap::pipe_factory())),
        ("socket_factory".into(), unguarded(RawCap::socket_factory())),
    ];
    for name in ["stdin", "stdout", "stderr"] {
        if let Ok(cap) = RawCap::open_path(&mut interp.kernel, interp.pid, "/dev/tty") {
            out.push((name.into(), unguarded(cap)));
        }
    }
    out
}

fn arity(args: &[Value], n: usize, name: &str) -> Result<(), ShillError> {
    if args.len() != n {
        return Err(ShillError::Runtime(format!(
            "{name} expects {n} argument(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

fn want_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, ShillError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(ShillError::Runtime(format!(
            "{what} must be a string, got {}",
            other.type_name()
        ))),
    }
}

/// Convert a capability-op result: system errors become `SysErr` *values*
/// (observable via `is_syserror`), contract violations abort.
pub(crate) fn cap_result(r: Result<Value, CapError>) -> EvalResult {
    match r {
        Ok(v) => Ok(v),
        Err(CapError::Sys(e)) => Ok(Value::SysErr(e)),
        Err(CapError::Violation(v)) => Err(v.into()),
    }
}

/// Whether `name` ends in `.` and then `ext`.
fn has_ext(name: &str, ext: &str) -> bool {
    name.strip_suffix(ext)
        .is_some_and(|stem| stem.ends_with('.'))
}

/// A capability derived from `from`, sealed with the brands `from` is
/// sealed with (§2.4.2: what a sealed directory yields stays sealed).
fn derived(from: &Value, r: Result<GuardedCap, CapError>) -> EvalResult {
    cap_result(r.map(|cap| Interp::sealed_like(from, Value::Cap(cap))))
}

/// The name a string argument holds, shared: a capability derived under it
/// keeps this very allocation as its name.
fn want_name<'v>(v: &'v Value, what: &str) -> Result<&'v Rc<str>, ShillError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(ShillError::Runtime(format!(
            "{what} must be a string, got {}",
            other.type_name()
        ))),
    }
}

/// Dispatch a builtin call. The arguments are read in place: they drop
/// when the caller clears its argument vectors.
pub fn call_builtin(
    interp: &mut Interp,
    builtin: Builtin,
    args: &[Value],
    kwargs: &[Kwarg],
) -> EvalResult {
    use Builtin::*;
    let name = builtin.name();
    if builtin != Exec && !kwargs.is_empty() {
        return Err(ShillError::Runtime(format!(
            "{name} does not accept keyword arguments"
        )));
    }
    match builtin {
        // --- type predicates ------------------------------------------------
        IsFile => {
            arity(args, 1, name)?;
            let inner = strip_seals(&args[0]);
            Ok(Value::Bool(matches!(inner, Value::Cap(c) if c.is_file())))
        }
        IsDir => {
            arity(args, 1, name)?;
            let inner = strip_seals(&args[0]);
            Ok(Value::Bool(matches!(inner, Value::Cap(c) if c.is_dir())))
        }
        IsPipe => {
            arity(args, 1, name)?;
            let inner = strip_seals(&args[0]);
            Ok(Value::Bool(
                matches!(inner, Value::Cap(c) if c.kind() == CapKind::PipeEnd),
            ))
        }
        IsSyserror => {
            arity(args, 1, name)?;
            Ok(Value::Bool(matches!(args[0], Value::SysErr(_))))
        }
        IsBool => {
            arity(args, 1, name)?;
            Ok(Value::Bool(matches!(args[0], Value::Bool(_))))
        }
        IsNum => {
            arity(args, 1, name)?;
            Ok(Value::Bool(matches!(args[0], Value::Num(_))))
        }
        IsString => {
            arity(args, 1, name)?;
            Ok(Value::Bool(matches!(args[0], Value::Str(_))))
        }
        IsList => {
            arity(args, 1, name)?;
            Ok(Value::Bool(matches!(args[0], Value::List(_))))
        }
        IsVoid => {
            arity(args, 1, name)?;
            Ok(Value::Bool(matches!(args[0], Value::Void)))
        }
        IsFun => {
            arity(args, 1, name)?;
            Ok(Value::Bool(args[0].is_callable()))
        }

        // --- capability queries ------------------------------------------------
        Path => {
            arity(args, 1, name)?;
            let cap = interp.unseal_for(&args[0], Priv::Path)?;
            let pid = interp.pid;
            cap_result(cap.path(&mut interp.kernel, pid).map(Value::str))
        }
        // A capability's extension is that of the directory-entry name it
        // was derived or opened under (`RawCap::name`, the name `find
        // -name` tests), so no kernel crossing: a symlink answers for its
        // own name, and a later rename does not change the answer. It
        // still needs `+path` from every contract, and a capability with
        // no descriptor has no extension.
        HasExt => {
            arity(args, 2, name)?;
            let ext = want_str(&args[1], "extension")?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Bool(has_ext(s, ext))),
                v => {
                    let cap = interp.unseal_for(v, Priv::Path)?;
                    cap.check(Priv::Path)?;
                    Ok(Value::Bool(
                        cap.raw.fd().is_some() && has_ext(cap.name(), ext),
                    ))
                }
            }
        }
        StatSize => {
            arity(args, 1, name)?;
            let cap = interp.unseal_for(&args[0], Priv::Stat)?;
            let pid = interp.pid;
            cap_result(
                cap.stat(&mut interp.kernel, pid)
                    .map(|st| Value::Num(st.size as i64)),
            )
        }

        // --- file operations ------------------------------------------------
        // `read`/`write` submit batches (`crate::batchio`): same guard
        // checks and per-chunk MAC interposition, one kernel crossing per
        // window instead of one per chunk. Pipes, sockets and devices go
        // through the checked raw path.
        Read => {
            arity(args, 1, name)?;
            let cap = interp.unseal_for(&args[0], Priv::Read)?;
            cap_result(
                crate::batchio::cap_read_all(&mut interp.kernel, interp.pid, cap)
                    .map(|d| Value::str(String::from_utf8_lossy(&d).into_owned())),
            )
        }
        Write => {
            arity(args, 2, name)?;
            let data = want_str(&args[1], "data")?.as_bytes().to_vec();
            let cap = interp.unseal_for(&args[0], Priv::Write)?;
            cap_result(
                crate::batchio::cap_write(&mut interp.kernel, interp.pid, cap, data)
                    .map(|()| Value::Void),
            )
        }
        Append => {
            arity(args, 2, name)?;
            let data = want_str(&args[1], "data")?;
            let cap = interp.unseal_for(&args[0], Priv::Append)?;
            let pid = interp.pid;
            cap_result(
                cap.append(&mut interp.kernel, pid, data.as_bytes())
                    .map(|_| Value::Void),
            )
        }

        // --- directory operations ----------------------------------------------
        // Each name is one allocation, read straight from the directory;
        // a capability `lookup` derives under it shares it.
        Contents => {
            arity(args, 1, name)?;
            let cap = interp.unseal_for(&args[0], Priv::Contents)?;
            let pid = interp.pid;
            cap_result(
                cap.contents(&mut interp.kernel, pid, |name| Value::str(name))
                    .map(Value::list),
            )
        }
        Lookup => {
            arity(args, 2, name)?;
            let child_name = want_name(&args[1], "name")?;
            let cap = interp.unseal_for(&args[0], Priv::Lookup)?;
            let pid = interp.pid;
            derived(
                &args[0],
                cap.lookup(&mut interp.kernel, pid, Rc::clone(child_name)),
            )
        }
        CreateFile => {
            arity(args, 2, name)?;
            let fname = want_name(&args[1], "name")?;
            let cap = interp.unseal_for(&args[0], Priv::CreateFile)?;
            let pid = interp.pid;
            let r = cap.create_file(
                &mut interp.kernel,
                pid,
                Rc::clone(fname),
                Mode::FILE_DEFAULT,
            );
            derived(&args[0], r)
        }
        CreateDir => {
            arity(args, 2, name)?;
            let dname = want_name(&args[1], "name")?;
            let cap = interp.unseal_for(&args[0], Priv::CreateDir)?;
            let pid = interp.pid;
            let r = cap.create_dir(&mut interp.kernel, pid, Rc::clone(dname), Mode::DIR_DEFAULT);
            derived(&args[0], r)
        }
        UnlinkFile => {
            arity(args, 2, name)?;
            let n = want_str(&args[1], "name")?;
            let cap = interp.unseal_for(&args[0], Priv::UnlinkFile)?;
            let pid = interp.pid;
            cap_result(
                cap.unlink_file(&mut interp.kernel, pid, n)
                    .map(|_| Value::Void),
            )
        }
        UnlinkDir => {
            arity(args, 2, name)?;
            let n = want_str(&args[1], "name")?;
            let cap = interp.unseal_for(&args[0], Priv::UnlinkDir)?;
            let pid = interp.pid;
            cap_result(
                cap.unlink_dir(&mut interp.kernel, pid, n)
                    .map(|_| Value::Void),
            )
        }
        ReadSymlink => {
            arity(args, 2, name)?;
            let n = want_str(&args[1], "name")?;
            let cap = interp.unseal_for(&args[0], Priv::ReadSymlink)?;
            let pid = interp.pid;
            cap_result(cap.read_symlink(&mut interp.kernel, pid, n).map(Value::str))
        }
        Link => {
            arity(args, 3, name)?;
            let n = want_str(&args[2], "name")?;
            let dir = interp.unseal_for(&args[0], Priv::Link)?;
            let file = interp.unseal_for(&args[1], Priv::Path)?;
            let pid = interp.pid;
            cap_result(
                dir.link(&mut interp.kernel, pid, file, n)
                    .map(|_| Value::Void),
            )
        }
        CreatePipe => {
            arity(args, 1, name)?;
            let cap = interp.unseal_for(&args[0], Priv::PipeCreate)?;
            let pid = interp.pid;
            cap_result(
                cap.create_pipe(&mut interp.kernel, pid)
                    .map(|(r, w)| Value::list(vec![Value::Cap(r), Value::Cap(w)])),
            )
        }

        // --- sockets (paper §3.1.1's suggested extension: "adding built-in
        // functions for socket operations to the language") ------------------
        CreateSocket => {
            arity(args, 2, name)?;
            let domain = match want_str(&args[1], "domain")? {
                "inet" => shill_kernel::SockDomain::Inet,
                "unix" => shill_kernel::SockDomain::Unix,
                other => {
                    return Err(ShillError::Runtime(format!(
                        "unknown socket domain {other:?} (inet|unix)"
                    )))
                }
            };
            let cap = interp.unseal_for(&args[0], Priv::SockCreate)?;
            let pid = interp.pid;
            cap_result(
                cap.create_socket(&mut interp.kernel, pid, domain)
                    .map(Value::Cap),
            )
        }
        SockConnect => {
            arity(args, 2, name)?;
            let addr = want_str(&args[1], "address")?;
            let addr = match addr.rsplit_once(':') {
                Some((host, port)) => shill_kernel::SockAddr::Inet {
                    host: host.to_string(),
                    port: port.parse().map_err(|_| {
                        ShillError::Runtime(format!("bad port in address {addr:?}"))
                    })?,
                },
                None => shill_kernel::SockAddr::Unix {
                    path: addr.to_string(),
                },
            };
            let cap = interp.unseal_for(&args[0], Priv::SockConnect)?;
            let pid = interp.pid;
            cap_result(
                cap.sock_connect(&mut interp.kernel, pid, addr)
                    .map(|_| Value::Void),
            )
        }
        SockSend => {
            arity(args, 2, name)?;
            let data = want_str(&args[1], "data")?;
            let cap = interp.unseal_for(&args[0], Priv::SockSend)?;
            let pid = interp.pid;
            cap_result(
                cap.sock_send(&mut interp.kernel, pid, data.as_bytes())
                    .map(|_| Value::Void),
            )
        }
        SockRecv => {
            arity(args, 1, name)?;
            let cap = interp.unseal_for(&args[0], Priv::SockRecv)?;
            let pid = interp.pid;
            cap_result(
                cap.sock_recv(&mut interp.kernel, pid)
                    .map(|d| Value::str(String::from_utf8_lossy(&d).into_owned())),
            )
        }

        // --- exec (sandbox launcher) ------------------------------------------
        Exec => builtin_exec(interp, args, kwargs),

        // --- lists & strings -----------------------------------------------------
        Length => {
            arity(args, 1, name)?;
            match &args[0] {
                Value::List(l) => Ok(Value::Num(l.len() as i64)),
                Value::Str(s) => Ok(Value::Num(s.len() as i64)),
                other => Err(ShillError::Runtime(format!(
                    "length of {}",
                    other.type_name()
                ))),
            }
        }
        Nth => {
            arity(args, 2, name)?;
            let i = match args[1] {
                Value::Num(n) if n >= 0 => n as usize,
                _ => {
                    return Err(ShillError::Runtime(
                        "nth index must be a non-negative number".into(),
                    ))
                }
            };
            match &args[0] {
                Value::List(l) => l
                    .get(i)
                    .cloned()
                    .ok_or_else(|| ShillError::Runtime(format!("nth: index {i} out of bounds"))),
                other => Err(ShillError::Runtime(format!("nth on {}", other.type_name()))),
            }
        }
        Split => {
            arity(args, 2, name)?;
            let s = want_str(&args[0], "string")?;
            let sep = want_str(&args[1], "separator")?;
            Ok(Value::list(
                s.split(sep)
                    .filter(|p| !p.is_empty())
                    .map(Value::str)
                    .collect(),
            ))
        }
        StartsWith => {
            arity(args, 2, name)?;
            let s = want_str(&args[0], "string")?;
            let p = want_str(&args[1], "prefix")?;
            Ok(Value::Bool(s.starts_with(p)))
        }
        EndsWith => {
            arity(args, 2, name)?;
            let s = want_str(&args[0], "string")?;
            let p = want_str(&args[1], "suffix")?;
            Ok(Value::Bool(s.ends_with(p)))
        }
        StripPrefix => {
            arity(args, 2, name)?;
            let s = want_str(&args[0], "string")?;
            let p = want_str(&args[1], "prefix")?;
            Ok(Value::str(s.strip_prefix(p).unwrap_or(s)))
        }
        ToString => {
            arity(args, 1, name)?;
            Ok(Value::str(args[0].display()))
        }
        Display => {
            for a in args {
                interp.out.extend_from_slice(a.display().as_bytes());
            }
            interp.out.push(b'\n');
            Ok(Value::Void)
        }

        Syserror => {
            // Construct a catchable system error from its errno name —
            // the value a denied syscall would have produced. Scripts
            // talking to the server front-end use this to re-raise wire
            // errors (`err EAGAIN ...`) as ordinary `is_syserror` values
            // their retry logic already handles.
            arity(args, 1, name)?;
            let Value::Str(s) = &args[0] else {
                return Err(ShillError::Runtime(format!(
                    "syserror wants an errno name string, got {}",
                    args[0].type_name()
                )));
            };
            match Errno::from_name(s) {
                Some(e) => Ok(Value::SysErr(e)),
                None => Err(ShillError::Runtime(format!(
                    "syserror: unknown errno name {s:?}"
                ))),
            }
        }

        // --- observability ----------------------------------------------------------
        Telemetry => {
            // Draining snapshot of the kernel's observability plane.
            // `telemetry()` renders Prometheus text exposition;
            // `telemetry("chrome")` renders a chrome://tracing JSON
            // document. Both are strings the script can write wherever
            // its capabilities allow.
            let format = match args.len() {
                0 => "text",
                1 => match &args[0] {
                    Value::Str(s) => match &**s {
                        "text" | "chrome" => &**s,
                        other => {
                            return Err(ShillError::Runtime(format!(
                                "telemetry: unknown format {other:?} (want \"text\" or \"chrome\")"
                            )))
                        }
                    },
                    other => {
                        return Err(ShillError::Runtime(format!(
                            "telemetry format must be a string, got {}",
                            other.type_name()
                        )))
                    }
                },
                _ => {
                    return Err(ShillError::Runtime(
                        "telemetry expects at most one argument".into(),
                    ))
                }
            };
            let snap = interp.kernel.telemetry();
            let rendered = if format == "chrome" {
                snap.render_chrome_json()
            } else {
                snap.render_text()
            };
            Ok(Value::str(rendered))
        }

        // --- wallets ----------------------------------------------------------------
        WalletGet => {
            arity(args, 2, name)?;
            let key = want_str(&args[1], "key")?;
            match &args[0] {
                Value::Wallet(w) => Ok(Value::list(
                    w.map.borrow().get(key).cloned().unwrap_or_default(),
                )),
                other => Err(ShillError::Runtime(format!(
                    "wallet_get on {}",
                    other.type_name()
                ))),
            }
        }
        WalletKeys => {
            arity(args, 1, name)?;
            match &args[0] {
                Value::Wallet(w) => Ok(Value::list(
                    w.map.borrow().keys().cloned().map(Value::str).collect(),
                )),
                other => Err(ShillError::Runtime(format!(
                    "wallet_keys on {}",
                    other.type_name()
                ))),
            }
        }
        WalletSet => {
            arity(args, 3, name)?;
            let key = want_str(&args[1], "key")?;
            let items = match &args[2] {
                Value::List(l) => l.iter().cloned().collect(),
                other => vec![other.clone()],
            };
            match &args[0] {
                Value::Wallet(w) => {
                    w.map.borrow_mut().insert(key.to_string(), items);
                    Ok(Value::Void)
                }
                other => Err(ShillError::Runtime(format!(
                    "wallet_set on {}",
                    other.type_name()
                ))),
            }
        }
        WalletAddDep => {
            // wallet_add_dep(wallet, program, cap): register an extra
            // dependency for a program (§4.1: adding /usr/local/lib/ocaml
            // as a dependency for OCaml executables).
            arity(args, 3, name)?;
            let prog = want_str(&args[1], "program")?;
            match &args[0] {
                Value::Wallet(w) => {
                    w.map
                        .borrow_mut()
                        .entry(format!("deps:{prog}"))
                        .or_default()
                        .push(args[2].clone());
                    Ok(Value::Void)
                }
                other => Err(ShillError::Runtime(format!(
                    "wallet_add_dep on {}",
                    other.type_name()
                ))),
            }
        }

        // --- ambient-only ----------------------------------------------------------
        OpenFile | OpenDir => {
            arity(args, 1, name)?;
            let p = want_str(&args[0], "path")?;
            let pid = interp.pid;
            match RawCap::open_path(&mut interp.kernel, pid, p) {
                Ok(cap) => {
                    if builtin == OpenDir && !cap.is_dir() {
                        return Err(ShillError::Runtime(format!("{p} is not a directory")));
                    }
                    if builtin == OpenFile && cap.is_dir() {
                        return Err(ShillError::Runtime(format!("{p} is a directory")));
                    }
                    Ok(Value::Cap(GuardedCap::unguarded(cap)))
                }
                Err(e) => Ok(Value::SysErr(e)),
            }
        }
        CreateWallet => {
            arity(args, 0, name)?;
            Ok(Value::Wallet(Rc::new(Wallet {
                kind: "native".into(),
                map: std::cell::RefCell::new(Default::default()),
            })))
        }

        // Abbreviations evaluate to contracts, never to a callable.
        Readonly | Writeable | Appendonly => {
            Err(ShillError::Runtime("cannot call a contract".into()))
        }
    }
}

fn strip_seals(v: &Value) -> &Value {
    let mut cur = v;
    while let Value::Sealed { inner, .. } = cur {
        cur = inner;
    }
    cur
}

/// The one grant rule (§2.3). A capability passed to `exec`, whether as
/// the executable, in the argv, in the extras or as stdio, gives the
/// sandbox its effective privileges ("the MAC policy further limits access
/// to the resource according to the capability's contract"), within the
/// bound of every seal around it. `None` for a value that is not a
/// capability.
fn grant_of(v: &Value) -> Option<(&GuardedCap, Arc<CapPrivs>)> {
    let mut bound = PrivSet::full();
    let mut cur = v;
    while let Value::Sealed { brand, inner } = cur {
        bound = bound.intersection(brand.bound);
        cur = inner;
    }
    let Value::Cap(cap) = cur else { return None };
    Some((cap, cap.effective_privs().within(bound)))
}

/// Resolve the kernel object for a capability (pipes/sockets have no vnode).
fn obj_of(interp: &Interp, cap: &GuardedCap) -> Option<ObjId> {
    if let Some(n) = cap.raw.node {
        return Some(ObjId::Vnode(n));
    }
    let fd = cap.raw.fd()?;
    match interp.kernel.fd_object(interp.pid, fd).ok()? {
        FdObject::Vnode(n) => Some(ObjId::Vnode(n)),
        FdObject::Pipe(id, _) => Some(ObjId::Pipe(id)),
        FdObject::Socket(s) => Some(ObjId::Socket(s)),
    }
}

/// What an `exec` grants beyond its executable and argv: its extras.
#[derive(Default)]
pub(crate) struct Extras {
    grants: Vec<Grant>,
    pipe_factory: bool,
    socket_privs: PrivSet,
}

impl Extras {
    /// Add `v`, a capability or a list of them nested at any depth, under
    /// the one grant rule. A pipe or socket factory grants the right to
    /// create pipes or sockets, as far as its own grant allows.
    pub(crate) fn add(&mut self, interp: &Interp, v: &Value) -> Result<(), ShillError> {
        if let Value::List(items) = v {
            return items.iter().try_for_each(|item| self.add(interp, item));
        }
        let Some((cap, privs)) = grant_of(v) else {
            return Err(ShillError::Runtime(
                "exec extras must be capabilities".into(),
            ));
        };
        match cap.kind() {
            CapKind::PipeFactory => self.pipe_factory |= privs.allows(Priv::PipeCreate),
            CapKind::SocketFactory => {
                self.socket_privs = self
                    .socket_privs
                    .union(Interp::socket_factory_privs(&privs));
            }
            _ => {
                if let Some(obj) = obj_of(interp, cap) {
                    self.grants.push(Grant { obj, privs });
                }
            }
        }
        Ok(())
    }

    /// Forget what was added, keeping the grant list's buffer.
    fn clear(&mut self) {
        self.grants.clear();
        self.pipe_factory = false;
        self.socket_privs = PrivSet::EMPTY;
    }
}

/// What every launch writes and the next one reuses: the argv strings and
/// the grant list.
#[derive(Default)]
pub(crate) struct ExecBuffers {
    argv: Vec<String>,
    extras: Extras,
}

/// The `exec` builtin (§2.3): run an executable in a capability-based
/// sandbox. Positional: the executable capability and the argv list
/// (strings or capabilities — capabilities are passed as paths). Keyword:
/// `stdin`/`stdout`/`stderr` capabilities, `extras` (additional
/// capabilities, §2.3), `timeout` (cpu tick ulimit).
fn builtin_exec(interp: &mut Interp, args: &[Value], kwargs: &[Kwarg]) -> EvalResult {
    if args.len() != 2 {
        return Err(ShillError::Runtime(
            "exec expects (executable, argv-list)".into(),
        ));
    }
    let Value::List(argv) = &args[1] else {
        return Err(ShillError::Runtime(format!(
            "exec argv must be a list, got {}",
            args[1].type_name()
        )));
    };
    launch(interp, &args[0], &[], argv, kwargs, &Extras::default())
}

/// Launch `exec` in a sandbox with argv `head` followed by `argv`,
/// keyword arguments as [`builtin_exec`]'s, and the
/// `fixed` extras a `pkg_native` wrapper computed when it was made. Every
/// grant follows [`grant_of`]. A stdio capability must allow what the
/// child does through it (`+read` for stdin, `+append` for stdout and
/// stderr), or the launch is a violation blaming the contract's consumer,
/// as `read` or `append` would be.
pub(crate) fn launch(
    interp: &mut Interp,
    exec: &Value,
    head: &[Value],
    argv: &[Value],
    kwargs: &[Kwarg],
    fixed: &Extras,
) -> EvalResult {
    let mut bufs = std::mem::take(&mut interp.exec_buffers);
    let r = launch_with(interp, exec, head, argv, kwargs, fixed, &mut bufs);
    // A launch that stopped early leaves what it added: none of it may
    // reach the next one.
    bufs.extras.clear();
    interp.exec_buffers = bufs;
    r
}

fn launch_with(
    interp: &mut Interp,
    exec: &Value,
    head: &[Value],
    argv: &[Value],
    kwargs: &[Kwarg],
    fixed: &Extras,
    bufs: &mut ExecBuffers,
) -> EvalResult {
    let policy = interp
        .policy
        .clone()
        .ok_or_else(|| ShillError::Runtime("exec requires the SHILL kernel module".into()))?;

    let setup_start = Instant::now();

    // Executable capability: +exec required.
    let exec_cap = interp.unseal_for(exec, Priv::Exec)?;
    let exec_node = exec_cap
        .raw
        .node
        .ok_or_else(|| ShillError::Runtime("executable capability has no file".into()))?;
    let ExecBuffers { argv: args, extras } = bufs;
    if let Some((_, privs)) = grant_of(exec) {
        let obj = ObjId::Vnode(exec_node);
        extras.grants.push(Grant { obj, privs });
    }

    // argv: strings pass through; capabilities become paths AND grants.
    // Each string is written into the buffer's string at its position.
    let mut n = 0;
    for item in head.iter().chain(argv) {
        let path;
        let arg = match item {
            Value::Str(s) => &**s,
            v @ (Value::Cap(_) | Value::Sealed { .. }) => {
                let cap = interp.unseal_for(v, Priv::Path)?;
                let pid = interp.pid;
                path = match cap.path(&mut interp.kernel, pid) {
                    Ok(p) => p,
                    Err(CapError::Sys(e)) => return Ok(Value::SysErr(e)),
                    Err(CapError::Violation(viol)) => return Err(viol.into()),
                };
                if let Some((cap, privs)) = grant_of(v) {
                    if let Some(obj) = obj_of(interp, cap) {
                        extras.grants.push(Grant { obj, privs });
                    }
                }
                &path
            }
            other => {
                return Err(ShillError::Runtime(format!(
                    "exec argv entries must be strings or capabilities, got {}",
                    other.type_name()
                )))
            }
        };
        match args.get_mut(n) {
            Some(slot) => {
                slot.clear();
                slot.push_str(arg);
            }
            None => args.push(arg.to_owned()),
        }
        n += 1;
    }
    extras.grants.extend(fixed.grants.iter().cloned());
    extras.pipe_factory |= fixed.pipe_factory;
    extras.socket_privs = extras.socket_privs.union(fixed.socket_privs);

    let mut spec = SandboxSpec::default();
    let mut timeout: Option<u64> = None;
    for (key, v) in kwargs {
        match &**key {
            "stdin" | "stdout" | "stderr" => {
                let (slot, needed) = match &**key {
                    "stdin" => (0, Priv::Read),
                    "stdout" => (1, Priv::Append),
                    _ => (2, Priv::Append),
                };
                let cap = interp.unseal_for(v, needed)?;
                cap.check(needed)?;
                let fd = cap.raw.fd().ok_or_else(|| {
                    ShillError::Runtime(format!("{key} capability has no descriptor"))
                })?;
                spec.stdio_privs[slot] = grant_of(v).map(|(_, privs)| privs);
                match slot {
                    0 => spec.stdin = Some(fd),
                    1 => spec.stdout = Some(fd),
                    _ => spec.stderr = Some(fd),
                }
            }
            "extras" => extras.add(interp, v)?,
            "timeout" => {
                if let Value::Num(n) = v {
                    timeout = Some((*n).max(0) as u64);
                }
            }
            other => {
                return Err(ShillError::Runtime(format!(
                    "exec: unknown keyword argument {other}"
                )))
            }
        }
    }
    spec.grants = std::mem::take(&mut extras.grants);
    spec.pipe_factory = extras.pipe_factory;
    spec.socket_privs = extras.socket_privs;
    if let Some(t) = timeout {
        spec.ulimits = Some(Ulimits {
            max_cpu_ticks: t,
            ..Default::default()
        });
    }

    // Sandbox setup (fork / shill_init / grants / shill_enter). Setup
    // failures — fork-time pid-space exhaustion (EAGAIN from the shard
    // pid stride), max_processes ulimit exhaustion, a refused grant —
    // surface as catchable `syserror` values, not harness-level aborts: a
    // script that hits a resource wall must be able to observe it with
    // `is_syserror` and degrade, exactly like any other denied syscall.
    let parent = interp.pid;
    let sandbox = shill_sandbox::setup_sandbox(&mut interp.kernel, &policy, parent, &spec);
    extras.grants = spec.grants;
    let sandbox = match sandbox {
        Ok(sb) => sb,
        Err(e) => return Ok(Value::SysErr(e)),
    };
    interp.profile.sandboxes += 1;
    interp.profile.sandbox_setup += setup_start.elapsed();

    // Sandboxed execution. The handler behind `exec_node` is a kernel-level
    // binary with no way back into this interpreter, so the window never
    // nests inside another and books its whole span.
    let exec_start = Instant::now();
    let status = match interp
        .kernel
        .exec_node(sandbox.child, exec_node, &args[..n])
    {
        Ok(s) => {
            interp.kernel.exit(sandbox.child, s);
            interp.kernel.waitpid(parent, sandbox.child)
        }
        Err(e) => {
            interp.kernel.exit(sandbox.child, 126);
            let _ = interp.kernel.waitpid(parent, sandbox.child);
            Err(e)
        }
    };
    interp.profile.sandboxed_exec += exec_start.elapsed();
    Ok(match status {
        Ok(s) => Value::Num(s as i64),
        Err(e) => Value::SysErr(e),
    })
}
