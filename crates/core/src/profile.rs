//! Runtime profiling instrumentation.
//!
//! Figure 10 of the paper breaks script time into: total, "Racket startup"
//! (here: constructing the runtime and loading its prelude), sandbox setup,
//! sandboxed execution, and "remaining time" (script evaluation including
//! contract checking). The runtime accumulates the same buckets. Parsing
//! and loading a script, or a module it `require`s, books to no bucket, so
//! it counts as remaining time.

use std::time::Duration;

/// Accumulated phase timings and counters for one runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Profile {
    /// Time inside `ShillRuntime::new`: policy registration, the runtime
    /// process's spawn, and the prelude's parse and evaluation.
    pub startup: Duration,
    /// Time spent forking/granting/entering sandboxes (the `exec` builtin's
    /// setup path).
    pub sandbox_setup: Duration,
    /// Time spent inside sandboxed executables.
    pub sandboxed_exec: Duration,
    /// Wall-clock total of `run` calls.
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
            .saturating_sub(self.sandbox_setup)
            .saturating_sub(self.sandboxed_exec)
    }

    pub fn reset(&mut self) {
        *self = Profile::default();
    }
}

/// Reentrancy-safe phase accounting for the `exec` builtin.
///
/// When a nested `run`/`exec` recurses through an outer `exec`'s execution
/// window, naive `bucket += span.elapsed()` books the inner phases *twice*
/// — once by the inner call and again inside the outer span — so the
/// bucket sum can exceed `total` and [`Profile::remaining`] (a
/// subtraction) underflows. `PhaseNesting` enforces **innermost-only
/// attribution**: each phase books its own span minus everything nested
/// phases already booked inside it, so the bucket telescope never exceeds
/// the outermost wall-clock span.
///
/// Discipline: [`PhaseNesting::enter`] when a recursion-capable phase
/// window opens, [`PhaseNesting::exit`] with the measured span on every
/// path that closes it (the return value is what to add to the bucket);
/// [`PhaseNesting::book_leaf`] for phases that cannot recurse but must
/// still be subtracted from an enclosing window.
#[derive(Debug, Default, Clone)]
pub struct PhaseNesting {
    /// One accumulator per open phase: wall-clock already booked by
    /// phases nested inside it.
    stack: Vec<Duration>,
}

impl PhaseNesting {
    /// Open a phase window.
    pub fn enter(&mut self) {
        self.stack.push(Duration::ZERO);
    }

    /// Close the innermost phase window whose measured wall-clock span is
    /// `span`; returns the portion attributable to this phase alone
    /// (span minus nested bookings, saturating). The full span is
    /// credited to the enclosing window's nested ledger, if any.
    pub fn exit(&mut self, span: Duration) -> Duration {
        let inner = self.stack.pop().unwrap_or(Duration::ZERO);
        if let Some(parent) = self.stack.last_mut() {
            *parent += span;
        }
        span.saturating_sub(inner)
    }

    /// Credit a non-recursive phase's span to the enclosing window's
    /// nested ledger (no-op at top level). Returns `span` unchanged so
    /// call sites can book it in one expression.
    pub fn book_leaf(&mut self, span: Duration) -> Duration {
        if let Some(parent) = self.stack.last_mut() {
            *parent += span;
        }
        span
    }

    /// Currently open phase windows (0 outside any `exec`).
    pub fn depth(&self) -> usize {
        self.stack.len()
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
    fn nested_exec_attributes_innermost_only() {
        // Outer exec window 100ms; inside it a nested exec books 30ms of
        // execution and 10ms of setup. The outer exec must book only the
        // 60ms that is genuinely its own.
        let mut nest = PhaseNesting::default();
        let mut p = Profile::default();

        nest.enter(); // outer exec window opens
        p.sandbox_setup += nest.book_leaf(Duration::from_millis(10)); // inner setup
        nest.enter(); // inner exec window
        p.sandboxed_exec += nest.exit(Duration::from_millis(30)); // inner exec closes
        p.sandboxed_exec += nest.exit(Duration::from_millis(100)); // outer closes

        assert_eq!(nest.depth(), 0);
        assert_eq!(p.sandbox_setup, Duration::from_millis(10));
        // 30ms inner + (100 − 30 − 10)ms outer = 90ms, not 130ms.
        assert_eq!(p.sandboxed_exec, Duration::from_millis(90));
    }

    #[test]
    fn nested_accounting_never_underflows_remaining() {
        // Regression: with naive accounting, total = 100ms but the buckets
        // sum to 140ms and remaining() hits the saturation floor while the
        // true remainder is 0 < r. With innermost-only attribution the
        // telescoped bucket sum equals the outermost span exactly.
        let mut nest = PhaseNesting::default();
        let mut p = Profile::default();

        nest.enter();
        p.sandbox_setup += nest.book_leaf(Duration::from_millis(10));
        nest.enter();
        p.sandboxed_exec += nest.exit(Duration::from_millis(40));
        p.sandboxed_exec += nest.exit(Duration::from_millis(90));
        p.total = Duration::from_millis(100);

        let booked = p.sandbox_setup + p.sandboxed_exec;
        assert!(booked <= p.total, "buckets must telescope under total");
        assert_eq!(p.remaining(), Duration::from_millis(10));
    }

    #[test]
    fn exit_saturates_on_clock_skew() {
        // A nested span reported larger than its parent's (possible with
        // coarse clocks) must clamp to zero, not panic or wrap.
        let mut nest = PhaseNesting::default();
        nest.enter();
        nest.enter();
        let inner = nest.exit(Duration::from_millis(50));
        assert_eq!(inner, Duration::from_millis(50));
        let outer = nest.exit(Duration::from_millis(20));
        assert_eq!(outer, Duration::ZERO);
    }
}
