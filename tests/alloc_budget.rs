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
//!
//! Where the allocations come from: `cargo test --test alloc_budget --
//! --ignored --nocapture allocation_sites` prints a warm Find run's
//! allocations per site, keyed by the innermost two repository frames
//! (file and line). It needs line tables, which the default test profile
//! has. The profile is switched on per thread and is off for every other
//! test, so it changes none of the counts they gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use shill::prelude::*;
use shill::scenarios::{find_task, Config, ShillTask, FIND_SHILL_CAP};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread attributes each allocation to its site.
    static PROFILING: Cell<bool> = const { Cell::new(false) };
    /// Set while the profiler itself runs: what it allocates is neither
    /// counted nor profiled.
    static IN_PROFILER: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<BTreeMap<String, u64>> = const { RefCell::new(BTreeMap::new()) };
}

fn count() {
    // `try_with`: the thread-locals are gone while their thread tears down.
    if IN_PROFILER.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    if PROFILING.try_with(Cell::get).unwrap_or(false) {
        IN_PROFILER.set(true);
        record_site();
        IN_PROFILER.set(false);
    }
}

/// Book one allocation to the innermost two repository frames of the
/// current backtrace: source paths relative to the workspace, other than
/// this file's.
fn record_site() {
    let trace = std::backtrace::Backtrace::force_capture().to_string();
    let frames: Vec<&str> = trace
        .lines()
        .filter_map(|l| l.trim().strip_prefix("at "))
        .filter(|at| (at.starts_with("./") || !at.starts_with('/')) && !at.contains("alloc_budget"))
        .map(|at| {
            let at = at.trim_start_matches("./");
            // Keep `file:line`, drop the column.
            at.rsplit_once(':').map_or(at, |(fl, _)| fl)
        })
        .take(2)
        .collect();
    let key = if frames.is_empty() {
        "<outside the repository>".to_string()
    } else {
        frames.join(" < ")
    };
    SITES.with(|s| *s.borrow_mut().entry(key).or_insert(0) += 1);
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only `const`-initialised thread-locals, which never allocate, and the
// profiler, which runs only when switched on and guards itself against
// re-entry.
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
/// most `BOUND` times. Measured: 2 489, against 4 737 before a capability
/// was one allocation, a directory entry's name one more, and a sandbox
/// launch reused its buffers (8 190 before frames were one allocation,
/// arguments went through a reused buffer and `namei` stopped
/// allocating). The bound leaves 10% headroom.
#[test]
fn a_warm_find_run_stays_within_its_allocation_budget() {
    const BOUND: u64 = 2_730;
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

/// A warm Find run's allocations per site: run by hand (see the module
/// doc), not gated.
#[test]
#[ignore = "prints a per-site allocation profile; run by hand"]
fn allocation_sites_of_a_warm_find_run() {
    let (_, first) = find_task(Config::ShillVersion, 400).run();
    first.expect("find runs");
    let task = find_task(Config::ShillVersion, 400);
    PROFILING.set(true);
    let (n, (rt, result)) = allocations(|| task.run());
    PROFILING.set(false);
    result.expect("find runs");
    drop(rt);
    let mut sites: Vec<(String, u64)> = SITES
        .with(|s| std::mem::take(&mut *s.borrow_mut()))
        .into_iter()
        .collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("warm find at 1/400: {n} allocations");
    for (site, count) in sites {
        println!("{count:>6}  {site}");
    }
}

/// Walks a directory of `ENTRIES` files the way Find does: the directory
/// crosses `walk`'s modifier-free `dir(...)` contract, then `visit`'s
/// `forall X`, which seals it, and `visit` derives a capability for each
/// entry with `lookup`. `body` is the loop body.
fn derivation_runtime(body: &str) -> ShillRuntime {
    const ENTRIES: usize = 200;
    let mut k = Kernel::new();
    for i in 0..ENTRIES {
        k.fs.put_file(
            &format!("/d/f{i:03}.c"),
            b"x",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .expect("tree");
    }
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    let visit = format!(
        "#lang shill/cap\nprovide visit : forall X with {{+lookup, +contents}} . {{cur : X}} -> void;\n\
         visit = fun(cur) {{ for name in contents(cur) {{ {body} }} }};\n"
    );
    rt.add_script("visit.cap", &visit);
    rt.add_script(
        "walk.cap",
        "#lang shill/cap\nrequire \"visit.cap\";\n\
         provide walk : {src : dir(+contents, +lookup, +path, +stat, +read)} -> void;\n\
         walk = fun(src) { visit(src); };\n",
    );
    rt
}

const WALK: &str = "#lang shill/ambient\nrequire \"walk.cap\";\nwalk(open_dir(\"/d\"));\n";

/// One `lookup` on Find's path (a directory under a modifier-free
/// contract and a `forall` seal) allocates at most twice: the derived
/// capability, and the seal around it. Measured: 2, against 6 when the
/// descriptor, the name, the guard list and the seal's brand list were
/// allocations of their own.
#[test]
fn a_lookup_allocates_only_the_capability_and_its_seal() {
    let per_lookup = |body: &str| {
        let mut rt = derivation_runtime(body);
        rt.run("warm", WALK).expect("walks");
        let (n, r) = allocations(|| rt.run("walk", WALK));
        r.expect("walks");
        n
    };
    let deriving = per_lookup("child = lookup(cur, name);");
    let naming = per_lookup("child = name;");
    let n = (deriving - naming) as f64 / 200.0;
    println!("one lookup: {n} allocations");
    assert!(n <= 2.0, "{n} allocations per lookup");
}

/// One `grep` launch through `pkg_native`'s wrapper, on Find's path,
/// allocates at most `BOUND` times: a warm Find run at 1/400 less the
/// same run with the launch taken out of `cmd`, per launch. Measured:
/// 25.9, against 63.6 when the wrapper rebuilt its argv head and extras on
/// every call, `exec` copied its argv and extras, the path took five
/// allocations and the scheduler allocated per slot.
#[test]
fn a_sandbox_launch_stays_within_its_allocation_budget() {
    const BOUND: f64 = 32.0;
    let launch = "grep([\"-H\", \"mac_\", f], stdout = out);";
    assert!(FIND_SHILL_CAP.contains(launch));
    let quiet: &'static str = Box::leak(FIND_SHILL_CAP.replace(launch, "f;").into_boxed_str());
    let variant = |launching: bool| {
        let mut task: ShillTask = find_task(Config::ShillVersion, 400);
        if !launching {
            for (name, source) in &mut task.modules {
                if *name == "task.cap" {
                    *source = quiet;
                }
            }
        }
        task
    };
    let warm_count = |launching: bool| {
        let (_, first) = variant(launching).run();
        first.expect("find runs");
        let task = variant(launching);
        let (n, (rt, result)) = allocations(|| task.run());
        result.expect("find runs");
        let launches = rt.profile().sandboxes;
        drop(rt);
        (n, launches)
    };
    let (with_launches, launches) = warm_count(true);
    let (without, none) = warm_count(false);
    assert_eq!(none, 0);
    assert!(launches > 0);
    let n = (with_launches - without) as f64 / launches as f64;
    println!("one launch: {n:.1} allocations ({launches} launches)");
    assert!(n <= BOUND, "{n:.1} allocations per launch, budget {BOUND}");
}
