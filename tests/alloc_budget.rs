//! Allocation budgets for the interpreter's call path.
//!
//! This binary installs a counting global allocator. Each thread counts
//! its own allocations and reallocations in a `const`-initialised
//! thread-local, so tests running in parallel on other threads never add
//! to a count. Debug and release builds make the same allocations, so
//! `cargo test -q` gates the bounds below.
//!
//! Re-measure with `cargo test -q --test alloc_budget -- --nocapture`:
//! each test prints the count it checks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shill::prelude::*;
use shill::scenarios::{find_task, Config};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the counter is gone while its thread tears down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a `const`-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and reallocations this thread makes in `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A warm Find run at 1/400 (`find_task(Config::ShillVersion, 400)`, its
/// second run on this thread, so its modules are compiled) allocates at
/// most `BOUND` times. Measured: 4 737, against 8 190 before frames were
/// one allocation, arguments went through a reused buffer and `namei`
/// stopped allocating. The bound leaves 10% headroom.
#[test]
fn a_warm_find_run_stays_within_its_allocation_budget() {
    const BOUND: u64 = 5_200;
    let (_, first) = find_task(Config::ShillVersion, 400).run();
    first.expect("find runs");
    let task = find_task(Config::ShillVersion, 400);
    let (n, (rt, result)) = allocations(|| task.run());
    result.expect("find runs");
    drop(rt);
    println!("warm find at 1/400: {n} allocations");
    assert!(n <= BOUND, "{n} allocations, budget {BOUND}");
}

/// 1 000 calls of a one-parameter closure allocate at most once each: the
/// call's frame. Measured: 1 000, against 3 000 when the argument vector
/// and the frame's slots were allocations of their own.
#[test]
fn a_closure_call_allocates_at_most_its_frame() {
    let mut rt = ShillRuntime::new(Kernel::new(), RuntimeConfig::NoPolicy, Cred::ROOT);
    // The two scripts parse alike and build the same loop frames; only
    // the `if` decides whether the 1 000 calls run.
    let script = |cond: &str| {
        format!(
            "#lang shill/cap\nf = fun(x) {{ x }};\nten = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];\n\
             for a in ten {{ for b in ten {{ for c in ten {{ if {cond} then f(c); }} }} }}\n"
        )
    };
    let (calling, not_calling) = (script("true"), script("false"));
    rt.run("warm", &calling).expect("runs");
    let (with_calls, r) = allocations(|| rt.run("calls", &calling));
    r.expect("runs");
    let (without, r) = allocations(|| rt.run("no calls", &not_calling));
    r.expect("runs");
    let n = with_calls - without;
    println!("1 000 closure calls: {n} allocations");
    assert!(n <= 1_000, "{n} allocations for 1 000 calls");
}
