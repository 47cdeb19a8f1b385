//! Tests for the Rust-implemented stdlib modules: `shill/filesys`,
//! `shill/contracts`, and module-system behaviours (caching, unknown
//! modules, prelude availability).

use shill_core::{RuntimeConfig, ShillError, ShillRuntime, Value};
use shill_kernel::Kernel;
use shill_vfs::{Cred, Gid, Mode, Uid};

fn rt() -> ShillRuntime {
    let mut k = Kernel::new();
    k.fs.put_file(
        "/srv/app/conf/main.cfg",
        b"cfg!",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT)
}

#[test]
fn filesys_resolve_path_walks_by_lookup() {
    let mut r = rt();
    r.add_script(
        "m.cap",
        r#"#lang shill/cap
require shill/filesys;
provide fetch : {root : dir(+lookup, +read)} -> is_string;
fetch = fun(root) {
  c = resolve_path(root, "app/conf/main.cfg");
  read(c)
};
"#,
    );
    let v = r
        .run(
            "main",
            "#lang shill/ambient\nrequire \"m.cap\";\nfetch(open_dir(\"/srv\"))",
        )
        .unwrap();
    assert_eq!(v.display(), "cfg!");
}

#[test]
fn filesys_resolve_path_respects_contracts() {
    // A lookup-only directory cannot resolve into a READ: the derived
    // capability inherits the lookup-only guard.
    let mut r = rt();
    r.add_script(
        "m.cap",
        r#"#lang shill/cap
require shill/filesys;
provide fetch : {root : dir(+lookup)} -> is_string;
fetch = fun(root) {
  c = resolve_path(root, "app/conf/main.cfg");
  read(c)
};
"#,
    );
    let err = r
        .run(
            "main",
            "#lang shill/ambient\nrequire \"m.cap\";\nfetch(open_dir(\"/srv\"))",
        )
        .unwrap_err();
    assert!(matches!(err, ShillError::Violation(_)), "{err}");
}

#[test]
fn filesys_resolve_path_missing_is_syserror() {
    let mut r = rt();
    r.add_script(
        "m.cap",
        r#"#lang shill/cap
require shill/filesys;
provide probe : {root : dir(+lookup)} -> is_bool;
probe = fun(root) { is_syserror(resolve_path(root, "no/such/thing")) };
"#,
    );
    let v = r
        .run(
            "main",
            "#lang shill/ambient\nrequire \"m.cap\";\nprobe(open_dir(\"/srv\"))",
        )
        .unwrap();
    assert!(matches!(v, Value::Bool(true)));
}

#[test]
fn contracts_module_abbreviations_importable() {
    let mut r = rt();
    r.add_script(
        "m.cap",
        r#"#lang shill/cap
require shill/contracts;
provide run_it : {exe : executable} -> is_bool;
run_it = fun(exe) { is_file(exe) };
"#,
    );
    r.kernel()
        .fs
        .put_file(
            "/bin/thing",
            b"#!SIMBIN thing\n",
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    let v = r
        .run(
            "main",
            "#lang shill/ambient\nrequire \"m.cap\";\nrun_it(open_file(\"/bin/thing\"))",
        )
        .unwrap();
    assert!(matches!(v, Value::Bool(true)));
}

#[test]
fn modules_are_cached_across_requires() {
    // Two scripts require the same module; its top level runs once (the
    // display output appears exactly once).
    let mut r = rt();
    r.add_script(
        "shared.cap",
        "#lang shill/cap\ndisplay(\"loading shared\");\nprovide s : {} -> is_num;\ns = fun() { 5 };",
    );
    r.add_script(
        "a.cap",
        "#lang shill/cap\nrequire \"shared.cap\";\nprovide a : {} -> is_num;\na = fun() { s() };",
    );
    r.add_script(
        "b.cap",
        "#lang shill/cap\nrequire \"shared.cap\";\nprovide b : {} -> is_num;\nb = fun() { s() + 1 };",
    );
    let v = r
        .run(
            "main",
            "#lang shill/ambient\nrequire \"a.cap\";\nrequire \"b.cap\";\na() + b()",
        )
        .unwrap();
    assert_eq!(v.display(), "11");
    assert_eq!(
        r.output().matches("loading shared").count(),
        1,
        "module body ran once"
    );
}

#[test]
fn cyclic_requires_detected() {
    let mut r = rt();
    r.add_script(
        "x.cap",
        "#lang shill/cap\nrequire \"y.cap\";\nprovide fx : {} -> any;\nfx = fun() { 1 };",
    );
    r.add_script(
        "y.cap",
        "#lang shill/cap\nrequire \"x.cap\";\nprovide fy : {} -> any;\nfy = fun() { 2 };",
    );
    let err = r
        .run("main", "#lang shill/ambient\nrequire \"x.cap\";\nfx()")
        .unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("cyclic"), "{m}"),
        other => panic!("{other}"),
    }
}

#[test]
fn unknown_module_reports_name() {
    let mut r = rt();
    let err = r
        .run("main", "#lang shill/ambient\nrequire \"nope.cap\";")
        .unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("nope.cap"), "{m}"),
        other => panic!("{other}"),
    }
}

// --- batchable builtins -------------------------------------------------------

/// Files the batchable builtins read and write, owned by the script's
/// user (uid 100).
fn batch_rt() -> ShillRuntime {
    let mut k = Kernel::new();
    let big = vec![7u8; 200_000];
    for (path, data) in [
        ("/home/u/a.txt", &b"alpha"[..]),
        ("/home/u/b.txt", b"bravo-bravo"),
        ("/home/u/c.txt", b"charlie"),
        ("/home/u/out.txt", b""),
        ("/home/u/out2.txt", b""),
        ("/home/u/big.bin", &big),
    ] {
        k.fs.put_file(path, data, Mode(0o644), Uid(100), Gid(100))
            .unwrap();
    }
    ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::user(100))
}

fn file_content(rt: &mut ShillRuntime, path: &str) -> Vec<u8> {
    let node = rt.kernel().fs.resolve_abs(path).unwrap();
    rt.kernel().fs.read(node, 0, 1 << 20).unwrap()
}

/// Each batchable builtin on capabilities passed as temporaries.
const BATCHABLE_OPS: [&str; 5] = [
    r#"read(open_file("/home/u/a.txt"))"#,
    r#"write(open_file("/home/u/out.txt"), "fresh")"#,
    r#"copy_file(open_file("/home/u/big.bin"), open_file("/home/u/out2.txt"))"#,
    r#"dir_stats(open_dir("/home/u"))"#,
    r#"slurp_many([open_file("/home/u/a.txt"), open_file("/home/u/c.txt")])"#,
];

/// Run an ambient script (with `shill/filesys`) in `rt`.
fn run_filesys(rt: &mut ShillRuntime, body: &str) -> Value {
    rt.run(
        "main",
        &format!("#lang shill/ambient\nrequire shill/filesys;\n{body}"),
    )
    .unwrap()
}

/// The kernel counters one ambient script (with `shill/filesys`) moves in
/// a fresh runtime, field by field.
fn stats_delta(body: &str) -> Vec<(&'static str, u64)> {
    let mut rt = batch_rt();
    let before = rt.kernel().stats_snapshot();
    run_filesys(&mut rt, body);
    let after = rt.kernel().stats_snapshot();
    before
        .fields()
        .into_iter()
        .zip(after.fields())
        .map(|((name, b), (_, a))| (name, a - b))
        .collect()
}

#[test]
fn batchable_builtins_on_temporary_caps_return_their_values() {
    // A temporary's descriptor is closed at the first builtin call after
    // its last drop; each builtin holds its capabilities until it returns.
    let mut rt = batch_rt();
    let v = run_filesys(&mut rt, &format!("[{}]", BATCHABLE_OPS.join(",\n")));
    let Value::List(items) = &v else {
        panic!("{v:?}")
    };
    for (op, item) in BATCHABLE_OPS.iter().zip(items.iter()) {
        assert!(!item.display().contains("syserror"), "{op}: {item:?}");
    }
    assert_eq!(items[0].display(), "alpha");
    assert!(matches!(items[1], Value::Void), "{:?}", items[1]);
    assert!(matches!(items[2], Value::Num(200_000)), "{:?}", items[2]);
    assert!(items[3].display().contains("[a.txt, 5]"), "{:?}", items[3]);
    assert_eq!(items[4].display(), "[alpha, charlie]");
    assert_eq!(file_content(&mut rt, "/home/u/out.txt"), b"fresh");
    assert_eq!(
        file_content(&mut rt, "/home/u/out2.txt"),
        vec![7u8; 200_000]
    );
}

/// Every counter each of [`BATCHABLE_OPS`] moves, opens and closes
/// included; a counter not listed stays 0. Recorded when each builtin
/// flushed a private accumulator of deferred fragments, so equal deltas
/// mean equal entries, slots, edges and fail modes.
const RECORDED_DELTAS: [&[(&str, u64)]; 5] = [
    &[
        ("syscalls", 5),
        ("lookups", 9),
        ("dir_scans", 9),
        ("charge_calls", 5),
        ("mac_ctx_setups", 1),
        ("batches", 1),
        ("batch_entries", 1),
        ("sched_waves", 1),
    ],
    &[
        ("syscalls", 6),
        ("lookups", 9),
        ("dir_scans", 9),
        ("charge_calls", 5),
        ("mac_ctx_setups", 1),
        ("batches", 1),
        ("batch_entries", 2),
        ("sched_waves", 2),
    ],
    &[
        ("syscalls", 11),
        ("lookups", 12),
        ("dir_scans", 12),
        ("charge_calls", 6),
        ("mac_ctx_setups", 1),
        ("batches", 1),
        ("batch_entries", 3),
        ("sched_waves", 3),
        ("slot_links", 1),
    ],
    &[
        ("syscalls", 12),
        ("lookups", 16),
        ("dir_scans", 16),
        ("charge_calls", 7),
        ("mac_ctx_setups", 1),
        ("batches", 1),
        ("batch_entries", 6),
        ("sched_waves", 1),
    ],
    &[
        ("syscalls", 7),
        ("lookups", 12),
        ("dir_scans", 12),
        ("charge_calls", 6),
        ("mac_ctx_setups", 1),
        ("batches", 1),
        ("batch_entries", 2),
        ("sched_waves", 1),
    ],
];

#[test]
fn batchable_builtins_submit_the_recorded_batches() {
    for (op, recorded) in BATCHABLE_OPS.iter().zip(RECORDED_DELTAS) {
        for (name, value) in stats_delta(op) {
            let want = recorded
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v);
            assert_eq!(value, want, "{op}: {name}");
        }
    }
}

#[test]
fn eager_copy_and_reads_submit_one_batch_each() {
    let mut rt = batch_rt();
    rt.add_script(
        "pipeline.cap",
        r#"#lang shill/cap
require shill/filesys;
provide sequential : {src : file(+read), b : file(+read), c : file(+read),
                      dst : file(+write)} -> is_list;
sequential = fun(src, b, c, dst) {
  [copy_file(src, dst), read(b), read(c)]
};
"#,
    );
    let before = rt.kernel().stats_snapshot();
    let v = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "pipeline.cap";
sequential(open_file("/home/u/a.txt"), open_file("/home/u/b.txt"),
           open_file("/home/u/c.txt"), open_file("/home/u/out.txt"))
"#,
        )
        .unwrap();
    let after = rt.kernel().stats_snapshot();
    assert!(
        after.batches - before.batches >= 3,
        "each operation is its own submission"
    );
    assert_eq!(v.display(), "[5, bravo-bravo, charlie]");
    assert_eq!(file_content(&mut rt, "/home/u/out.txt"), b"alpha");
}

#[test]
fn slurp_many_is_one_submission() {
    let mut rt = batch_rt();
    rt.add_script(
        "slurp.cap",
        r#"#lang shill/cap
require shill/filesys;
provide slurp3 : {a : file(+read), b : file(+read), c : file(+read)} -> is_list;
slurp3 = fun(a, b, c) { slurp_many([a, b, c]) };
"#,
    );
    let before = rt.kernel().stats_snapshot();
    let v = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "slurp.cap";
slurp3(open_file("/home/u/a.txt"), open_file("/home/u/b.txt"),
       open_file("/home/u/c.txt"))"#,
        )
        .unwrap();
    let after = rt.kernel().stats_snapshot();
    assert_eq!(after.batches - before.batches, 1);
    assert_eq!(v.display(), "[alpha, bravo-bravo, charlie]");
}

#[test]
fn slurp_many_fails_per_element() {
    // The sweep runs every read (`Continue`): one failed read is that
    // element's syserror, and its siblings still return their contents.
    let mut rt = batch_rt();
    let plane = shill_kernel::FaultPlane::parse("seed=1;rate=0;sites=").unwrap();
    rt.kernel().set_fault_plane(Some(plane.fail_on(
        shill_kernel::FaultSite::FsRead,
        1,
        shill_vfs::Errno::EIO,
    )));
    let v = run_filesys(
        &mut rt,
        r#"rs = slurp_many([open_file("/home/u/a.txt"), open_file("/home/u/b.txt")]);
[is_syserror(nth(rs, 0)), nth(rs, 1)]"#,
    );
    assert_eq!(v.display(), "[true, bravo-bravo]");
}
