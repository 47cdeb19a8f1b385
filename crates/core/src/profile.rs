//! Runtime profiling instrumentation.
//!
//! Figure 10 of the paper breaks script time into: total, "Racket startup"
//! (here: constructing the runtime and loading its prelude), sandbox setup,
//! sandboxed execution, and "remaining time" (script evaluation including
//! contract checking). The runtime accumulates the same buckets, plus a
//! module-load term: the loads of the modules that a `run` script
//! `require`s, nested requires included. A warm load evaluates code
//! compiled earlier on the same thread; a cold one also parses and
//! resolves it. Parsing the `run` script itself books to no bucket, so it
//! counts as remaining time.

use std::time::Duration;

/// Accumulated phase timings and counters for one runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// Time inside `ShillRuntime::new`: policy registration, the runtime
    /// process's spawn, and the prelude's load.
    pub startup: Duration,
    /// Time spent loading the modules that `run` scripts `require`: parse
    /// and resolve (on a thread that has not compiled them yet), top-level
    /// evaluation, and provide wrapping.
    pub module_load: Duration,
    /// Time spent forking/granting/entering sandboxes (the `exec` builtin's
    /// setup path).
    pub sandbox_setup: Duration,
    /// Time spent inside sandboxed executables.
    pub sandboxed_exec: Duration,
    /// Wall-clock total of `ShillRuntime::new` and every `run` call, so
    /// that [`Profile::remaining`] subtracts `startup` from a total that
    /// contains it.
    pub total: Duration,
    /// Number of sandboxes created (Figure 10 discussion: Grading creates
    /// 5,371; Find 15,292).
    pub sandboxes: u64,
    /// Contract applications performed (wrap-time).
    pub contract_applications: u64,
    /// Guard checks performed (operation-time).
    pub guard_checks: u64,
}

impl Profile {
    /// "Remaining time": script evaluation including contract checking —
    /// computed exactly as the paper does, by subtraction.
    pub fn remaining(&self) -> Duration {
        self.total
            .saturating_sub(self.startup)
            .saturating_sub(self.module_load)
            .saturating_sub(self.sandbox_setup)
            .saturating_sub(self.sandboxed_exec)
    }

    pub fn reset(&mut self) {
        *self = Profile::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_is_total_minus_phases() {
        let p = Profile {
            startup: Duration::from_millis(100),
            sandbox_setup: Duration::from_millis(200),
            sandboxed_exec: Duration::from_millis(300),
            total: Duration::from_millis(1000),
            ..Default::default()
        };
        assert_eq!(p.remaining(), Duration::from_millis(400));
    }

    #[test]
    fn remaining_saturates() {
        let p = Profile {
            startup: Duration::from_millis(100),
            total: Duration::from_millis(50),
            ..Default::default()
        };
        assert_eq!(p.remaining(), Duration::ZERO);
    }

    #[test]
    fn remaining_excludes_module_load() {
        let p = Profile {
            startup: Duration::from_millis(100),
            module_load: Duration::from_millis(150),
            sandbox_setup: Duration::from_millis(200),
            sandboxed_exec: Duration::from_millis(300),
            total: Duration::from_millis(1000),
            ..Default::default()
        };
        assert_eq!(p.remaining(), Duration::from_millis(250));
    }
}
