//! The SHILL runtime: owns the kernel, the policy module, and the
//! interpreter, and measures the Figure 10 phase breakdown.

use std::sync::Arc;
use std::time::Instant;

use shill_kernel::{Kernel, Pid, Ulimits};
use shill_sandbox::ShillPolicy;
use shill_vfs::Cred;

use crate::eval::Interp;
use crate::profile::Profile;
use crate::value::{EvalResult, Value};

/// A small prelude evaluated at startup. This plays the role of Racket
/// runtime + stdlib initialization in the original prototype ("Racket
/// startup cost is responsible for the high overhead of Download and
/// Uninstall", §4.2): real parsing and evaluation work performed before any
/// user script runs.
const PRELUDE: &str = r#"#lang shill/cap
# --- shill prelude: list and string helpers -------------------------------
id = fun(x) { x };
compose = fun(f, g) { fun(x) { f(g(x)) } };
map = fun(f, xs) {
  go = fun(i, acc) {
    if i < length(xs) then go(i + 1, acc ++ [f(nth(xs, i))]) else acc
  };
  go(0, [])
};
filter_list = fun(p, xs) {
  go = fun(i, acc) {
    if i < length(xs) then {
      keep = p(nth(xs, i));
      if keep then go(i + 1, acc ++ [nth(xs, i)]) else go(i + 1, acc)
    } else acc
  };
  go(0, [])
};
foldl = fun(f, z, xs) {
  go = fun(i, acc) {
    if i < length(xs) then go(i + 1, f(acc, nth(xs, i))) else acc
  };
  go(0, z)
};
any_list = fun(p, xs) { foldl(fun(a, x) { a || p(x) }, false, xs) };
all_list = fun(p, xs) { foldl(fun(a, x) { a && p(x) }, true, xs) };
join = fun(sep, xs) {
  foldl(fun(acc, x) { if acc == "" then x else acc ++ sep ++ x }, "", xs)
};
repeat_string = fun(s, n) {
  go = fun(i, acc) { if i < n then go(i + 1, acc ++ s) else acc };
  go(0, "")
};

provide id : any -> any;
provide compose : {f : is_fun, g : is_fun} -> is_fun;
provide map : {f : is_fun, xs : is_list} -> is_list;
provide filter_list : {p : is_fun, xs : is_list} -> is_list;
provide foldl : {f : is_fun, z : any, xs : is_list} -> any;
provide any_list : {p : is_fun, xs : is_list} -> is_bool;
provide all_list : {p : is_fun, xs : is_list} -> is_bool;
provide join : {sep : is_string, xs : is_list} -> is_string;
provide repeat_string : {s : is_string, n : is_num} -> is_string;
"#;

/// How the runtime is configured — the benchmark configurations of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeConfig {
    /// Kernel module not loaded: scripts run, `exec` fails. Used for the
    /// "SHILL installed"-vs-"Baseline" kernel microcomparisons only.
    NoPolicy,
    /// Kernel module loaded (the normal configuration).
    WithPolicy,
}

/// The SHILL runtime.
pub struct ShillRuntime {
    pub interp: Interp,
    pub policy: Option<Arc<ShillPolicy>>,
}

impl ShillRuntime {
    /// Build a runtime around an existing kernel, spawning the runtime's
    /// (unsandboxed) process with `cred`. Startup cost — process spawn,
    /// policy registration, prelude evaluation — is recorded in the
    /// profile's `startup` bucket.
    pub fn new(mut kernel: Kernel, config: RuntimeConfig, cred: Cred) -> ShillRuntime {
        let t0 = Instant::now();
        let policy = match config {
            RuntimeConfig::WithPolicy => {
                let p = ShillPolicy::new();
                kernel.register_policy(p.clone());
                Some(p)
            }
            RuntimeConfig::NoPolicy => None,
        };
        let pid = kernel.spawn_user(cred);
        // The runtime holds one descriptor per live capability; give it a
        // roomy table (Find visits ~58k files).
        let _ = kernel.set_ulimits(
            pid,
            Ulimits {
                max_open_files: u32::MAX,
                ..Default::default()
            },
        );
        let mut interp = Interp::new(kernel, policy.clone(), pid);
        // Evaluate the prelude (the "Racket startup" analogue).
        interp.add_script("shill/prelude", PRELUDE);
        let _ = interp.load_module("shill/prelude");
        interp.profile.startup += t0.elapsed();
        ShillRuntime { interp, policy }
    }

    /// Register a capability-safe script for `require`.
    pub fn add_script(&mut self, name: &str, source: &str) {
        self.interp.add_script(name, source);
    }

    /// Run an ambient (or test) script. Prelude exports are made available
    /// by an implicit `require shill/prelude`.
    pub fn run(&mut self, name: &str, source: &str) -> EvalResult {
        let t0 = Instant::now();
        let r = self.interp.run_script(name, source);
        self.interp.profile.total += t0.elapsed();
        r
    }

    /// Convenience for tests: run and expect success.
    pub fn run_ok(&mut self, source: &str) -> Value {
        match self.run("main", source) {
            Ok(v) => v,
            Err(e) => panic!("script failed: {e}"),
        }
    }

    /// The `display` builtin's output so far.
    pub fn output(&self) -> String {
        String::from_utf8_lossy(&self.interp.out).into_owned()
    }

    pub fn profile(&self) -> Profile {
        self.interp.profile
    }

    pub fn kernel(&mut self) -> &mut Kernel {
        &mut self.interp.kernel
    }

    pub fn pid(&self) -> Pid {
        self.interp.pid
    }

    /// Dismantle the runtime, releasing the kernel and the policy module —
    /// the entry point for the concurrent phase of a workload: scripts that
    /// prepared state single-threaded wrap the kernel as a one-shard
    /// `shill_kernel::KernelShards::from_kernel` and hand it to a fleet of
    /// session worker threads (`shill_sandbox::run_sessions`) from here.
    pub fn into_parts(self) -> (Kernel, Option<Arc<ShillPolicy>>) {
        (self.interp.kernel, self.policy)
    }
}
