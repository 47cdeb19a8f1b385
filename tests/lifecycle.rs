//! Process and capability lifecycle: a sandbox launch hands the child the
//! stdio it was wired with and nothing else, a capability's descriptor
//! lives exactly as long as the capability, and the runtime's descriptor
//! table is bounded by the capabilities a script keeps alive — not by
//! everything it ever looked up.

use std::rc::Rc;
use std::sync::{Arc, Mutex};

use shill::kernel::Ulimits;
use shill::prelude::*;

/// `n` small root-owned files under `/data`, plus an empty `/tmp/log.txt`.
fn kernel_with_files(n: usize) -> Kernel {
    let mut k = Kernel::new();
    for i in 0..n {
        k.fs.put_file(
            &format!("/data/f{i:04}"),
            b"x",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }
    k.fs.put_file("/tmp/log.txt", b"", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k
}

fn runtime(k: Kernel) -> ShillRuntime {
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    rt.add_script("walk.cap", WALK_CAP);
    rt
}

/// `touch_all` looks every entry up and drops it again, logging one `o`
/// per success; `hoard` keeps every capability it derives alive in a
/// wallet and logs each failed lookup's syserror instead.
const WALK_CAP: &str = r#"#lang shill/cap
provide touch_all : {d : dir(+contents, +lookup), log : file(+append)} -> void;
provide hoard : {d : dir(+contents, +lookup), w : wallet, log : file(+append)} -> void;
touch_all = fun(d, log) {
  for name in contents(d) {
    f = lookup(d, name);
    append(log, if is_syserror(f) then to_string(f) else "o");
  }
};
hoard = fun(d, w, log) {
  for name in contents(d) {
    f = lookup(d, name);
    if is_syserror(f) then append(log, to_string(f) ++ "\n")
    else wallet_add_dep(w, "held", f);
  }
};
"#;

fn log(rt: &mut ShillRuntime) -> String {
    let node = rt.kernel().fs.resolve_abs("/tmp/log.txt").unwrap();
    String::from_utf8(rt.kernel().fs.read(node, 0, 1 << 20).unwrap()).unwrap()
}

fn runtime_fds(rt: &mut ShillRuntime) -> usize {
    let pid = rt.pid();
    rt.kernel().process(pid).unwrap().fds.len()
}

/// What the probe binary saw: its own descriptors and its parent's table
/// size.
type ProbeLog = Mutex<Option<(Vec<Fd>, usize)>>;

#[test]
fn sandbox_child_holds_only_its_stdio_while_the_runtime_holds_many_caps() {
    let seen: Arc<ProbeLog> = Arc::default();
    let mut k = kernel_with_files(150);
    let probe = Arc::clone(&seen);
    k.register_exec(
        "fdprobe",
        Arc::new(move |k: &mut Kernel, pid: Pid, _argv: &[String]| {
            let me = k.process(pid).unwrap();
            let mut fds: Vec<Fd> = me.fds.keys().copied().collect();
            fds.sort_by_key(|fd| fd.0);
            let parent = k.process(me.ppid).unwrap().fds.len();
            *probe.lock().unwrap() = Some((fds, parent));
            0
        }),
    );
    k.fs.put_file(
        "/bin/fdprobe",
        b"#!SIMBIN fdprobe\n",
        Mode(0o755),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    let mut rt = runtime(k);
    let v = rt.run_ok(
        r#"#lang shill/ambient
require "walk.cap";
w = create_wallet();
log = open_file("/tmp/log.txt");
hoard(open_dir("/data"), w, log);
exec(open_file("/bin/fdprobe"), ["fdprobe"], stdout = log)"#,
    );
    assert!(matches!(v, Value::Num(0)), "{v:?}");
    assert_eq!(log(&mut rt), "", "every lookup succeeded");
    let (child_fds, runtime_fds) = seen.lock().unwrap().take().expect("probe ran");
    assert!(runtime_fds >= 150, "runtime held {runtime_fds} descriptors");
    assert_eq!(child_fds, vec![Fd::STDOUT], "the child got its stdout only");
}

#[test]
fn looking_up_thousands_of_files_stays_under_the_default_fd_limit() {
    const FILES: usize = 2000;
    let mut rt = runtime(kernel_with_files(FILES));
    let pid = rt.pid();
    assert_eq!(
        rt.kernel().process(pid).unwrap().ulimits.max_open_files,
        Ulimits::default().max_open_files,
        "the runtime runs at the default descriptor limit"
    );
    let start = runtime_fds(&mut rt);
    // The run's value keeps one capability bound afterwards.
    let held = rt.run_ok(
        r#"#lang shill/ambient
require "walk.cap";
touch_all(open_dir("/data"), open_file("/tmp/log.txt"));
open_dir("/data")"#,
    );
    assert!(matches!(held, Value::Cap(_)), "{held:?}");
    assert_eq!(log(&mut rt), "o".repeat(FILES), "no lookup failed");
    let end = runtime_fds(&mut rt);
    assert!(
        end <= start + 1,
        "{start} descriptors at start, {end} at end"
    );
    drop(held);
    rt.run_ok("#lang shill/ambient\n0");
    assert_eq!(
        runtime_fds(&mut rt),
        start,
        "the last capability's close ran"
    );
}

#[test]
fn keeping_more_caps_alive_than_the_fd_limit_is_a_catchable_emfile() {
    let limit = Ulimits::default().max_open_files as usize;
    let mut rt = runtime(kernel_with_files(limit + 100));
    rt.run_ok(
        r#"#lang shill/ambient
require "walk.cap";
w = create_wallet();
hoard(open_dir("/data"), w, open_file("/tmp/log.txt"));"#,
    );
    let log = log(&mut rt);
    let failures: Vec<&str> = log.lines().collect();
    assert!(!failures.is_empty(), "some lookup must hit the limit");
    assert!(
        failures.iter().all(|l| *l == "<syserror EMFILE>"),
        "{failures:?}"
    );
    // Once the wallet is gone, its descriptors are released.
    assert_eq!(runtime_fds(&mut rt), 0);
}

/// `probe` binds its parameter, a capability it derives and a
/// self-recursive helper. The helper's closure lives in a slot of the
/// call's own frame, so the frame must not outlive the call.
const HELPER_CAP: &str = r#"#lang shill/cap
provide probe : {d : dir(+lookup)} -> is_num;
probe = fun(d) {
  f = lookup(d, "f0000");
  go = fun(i) { if i < 3 then go(i + 1) else i };
  go(0)
};
"#;

#[test]
fn a_call_that_binds_a_recursive_helper_releases_its_capabilities() {
    let mut rt = runtime(kernel_with_files(1));
    rt.add_script("helper.cap", HELPER_CAP);
    rt.run_ok("#lang shill/ambient\nrequire \"helper.cap\";\n0");
    let start = runtime_fds(&mut rt);
    for call in 0..2000 {
        let v = rt
            .run(
                "main",
                "#lang shill/ambient\nrequire \"helper.cap\";\nprobe(open_dir(\"/data\"))",
            )
            .unwrap_or_else(|e| panic!("call {call}: {e}"));
        assert!(matches!(v, Value::Num(3)), "call {call}: {v:?}");
    }
    assert_eq!(runtime_fds(&mut rt), start, "descriptors after 2 000 calls");
}

/// A module's top-level closures live in its root frame and close over it.
/// Once the runtime and the caller's copies of the exports drop, nothing
/// keeps them alive.
#[test]
fn module_level_closures_die_with_their_runtime() {
    let mut rt = runtime(kernel_with_files(1));
    rt.add_script("helper.cap", HELPER_CAP);
    let mut closures = Vec::new();
    for module in ["shill/prelude", "helper.cap", "walk.cap"] {
        let exports = rt.interp.load_module(module).expect("module loads");
        for (name, v) in exports.iter() {
            let Value::Contracted(wrapper) = v else {
                panic!("{module}: {name} is {v:?}")
            };
            let Value::Closure(lambda, _) = &wrapper.inner else {
                panic!("{module}: {name} wraps {:?}", wrapper.inner)
            };
            closures.push((format!("{module}: {name}"), Rc::downgrade(lambda)));
        }
    }
    assert_eq!(closures.len(), 9 + 1 + 2);
    assert!(closures.iter().all(|(_, c)| c.upgrade().is_some()));
    drop(rt);
    for (name, closure) in closures {
        assert!(closure.upgrade().is_none(), "{name} outlived its runtime");
    }
}

/// The runtime is a process no session owns. With only the label-scoped
/// SHILL policy loaded, its checks never reach the access-vector cache, so
/// after a fine-grained Find run the cache holds no verdict for it — only
/// its `grep` sandboxes went through the policy.
#[test]
fn find_leaves_no_avc_verdict_for_the_unlabelled_runtime() {
    use shill::scenarios::{FIND_SHILL_CAP, POLY_FIND_CAP};
    let mut k = shill::setup::standard_kernel();
    let tree = shill::binaries::workloads::source_tree(&mut k, 400);
    k.fs.put_file("/tmp/matches.txt", b"", Mode(0o666), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    rt.add_script("find.cap", POLY_FIND_CAP);
    rt.add_script("task.cap", FIND_SHILL_CAP);
    rt.run(
        "find-main",
        r#"#lang shill/ambient
require shill/native;
require "task.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/bin:/bin", "/lib", pipe_factory);
find_fine(open_dir("/usr/src"), open_file("/tmp/matches.txt"), wallet)
"#,
    )
    .expect("find fine");
    let pid = rt.pid();
    let k = rt.kernel();
    let node = k.fs.resolve_abs("/tmp/matches.txt").unwrap();
    let matches = k.fs.read(node, 0, 1 << 24).unwrap();
    assert_eq!(
        matches.iter().filter(|&&b| b == b'\n').count(),
        tree.c_files_with_pattern,
        "every matching file was grepped"
    );
    assert_eq!(k.process(pid).unwrap().label(), None);
    let st = k.stats_snapshot();
    assert!(
        st.forks > 0 && st.avc_misses > 0,
        "the sandboxes used the AVC"
    );
    assert_eq!(k.avc().entries_for(pid), 0);
}
