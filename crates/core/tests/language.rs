//! End-to-end tests of the SHILL language: evaluation, capability safety,
//! contracts with blame, polymorphic sealing, wallets, and sandboxed exec.
//! The paper's Figures 3–6 run here as executable programs.

use std::sync::Arc;

use shill_core::{RuntimeConfig, ShillError, ShillRuntime, Value};
use shill_kernel::{Fd, Kernel, OpenFlags, Pid};
use shill_vfs::{Cred, Gid, Mode, Uid};

/// A kernel with a small home tree and a couple of simulated binaries.
fn test_kernel() -> Kernel {
    let mut k = Kernel::new();
    k.fs.put_file(
        "/home/u/pics/dog.jpg",
        b"JPGDATA",
        Mode(0o644),
        Uid(100),
        Gid(100),
    )
    .unwrap();
    k.fs.put_file(
        "/home/u/pics/cat.jpg",
        b"JPGCAT",
        Mode(0o644),
        Uid(100),
        Gid(100),
    )
    .unwrap();
    k.fs.put_file(
        "/home/u/pics/readme.txt",
        b"text",
        Mode(0o644),
        Uid(100),
        Gid(100),
    )
    .unwrap();
    k.fs.put_file(
        "/home/u/pics/deep/bird.jpg",
        b"JPGBIRD",
        Mode(0o644),
        Uid(100),
        Gid(100),
    )
    .unwrap();
    k.fs.put_file("/home/u/out.txt", b"", Mode(0o644), Uid(100), Gid(100))
        .unwrap();

    // Simulated jpeginfo: writes info about its -i argument to stdout.
    k.register_exec(
        "jpeginfo",
        Arc::new(|k: &mut Kernel, pid: Pid, argv: &[String]| {
            let file = argv.iter().skip(1).find(|a| !a.starts_with('-'));
            let Some(file) = file else { return 2 };
            let fd = match k.open(pid, file, OpenFlags::RDONLY, Mode(0)) {
                Ok(fd) => fd,
                Err(_) => return 1,
            };
            let data = k.read(pid, fd, 1 << 20).unwrap_or_default();
            let _ = k.close(pid, fd);
            let msg = format!("{file}: {} bytes\n", data.len());
            if k.write(pid, Fd::STDOUT, msg.as_bytes()).is_err() {
                return 1;
            }
            0
        }),
    );
    k.fs.put_file(
        "/usr/local/bin/jpeginfo",
        b"#!SIMBIN jpeginfo\nNEEDS /lib/libc.so\nNEEDS /lib/libjpeg.so\n",
        Mode(0o755),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    k.fs.put_file("/lib/libc.so", b"LIBC", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.fs.put_file(
        "/lib/libjpeg.so",
        b"LIBJPEG",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    k
}

fn runtime() -> ShillRuntime {
    ShillRuntime::new(test_kernel(), RuntimeConfig::WithPolicy, Cred::user(100))
}

// --- basic evaluation ---------------------------------------------------------

#[test]
fn arithmetic_and_strings() {
    let mut rt = runtime();
    let v = rt.run_ok("#lang shill/ambient\nx = 2 + 3 * 4;\nto_string(x)");
    assert!(matches!(v, Value::Str(s) if &*s == "14"));
    let v = rt
        .run("main2", "#lang shill/ambient\ns = \"a\" ++ \"b\";\ns")
        .unwrap();
    assert!(matches!(v, Value::Str(s) if &*s == "ab"));
}

#[test]
fn closures_and_recursion_in_cap_scripts() {
    let mut rt = runtime();
    rt.add_script(
        "fact.cap",
        "#lang shill/cap\nfact = fun(n) { if n <= 1 then 1 else n * fact(n - 1) };\nprovide fact : {n : is_num} -> is_num;",
    );
    let v = rt.run_ok("#lang shill/ambient\nrequire \"fact.cap\";\nfact(6)");
    assert!(matches!(v, Value::Num(720)));
}

#[test]
fn prelude_helpers_available() {
    let mut rt = runtime();
    rt.add_script(
        "uses_prelude.cap",
        r#"#lang shill/cap
require "shill/prelude";
inc_all = fun(xs) { map(fun(x) { x + 1 }, xs) };
provide inc_all : {xs : is_list} -> is_list;
"#,
    );
    let v = rt.run_ok(
        "#lang shill/ambient\nrequire \"uses_prelude.cap\";\nys = inc_all([1, 2, 3]);\nnth(ys, 2)",
    );
    assert!(matches!(v, Value::Num(4)));
}

#[test]
fn immutability_enforced() {
    let mut rt = runtime();
    let err = rt
        .run("main", "#lang shill/ambient\nx = 1;\nx = 2;")
        .unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("immutable"), "{m}"),
        other => panic!("{other}"),
    }
}

#[test]
fn ambient_cannot_use_control_flow() {
    let mut rt = runtime();
    assert!(matches!(
        rt.run("main", "#lang shill/ambient\nif true then 1;"),
        Err(ShillError::Parse(_))
    ));
}

#[test]
fn cap_scripts_lack_ambient_builtins() {
    let mut rt = runtime();
    rt.add_script(
        "sneaky.cap",
        "#lang shill/cap\nsteal = fun() { open_file(\"/home/u/out.txt\") };\nprovide steal : {} -> any;",
    );
    let err = rt
        .run(
            "main",
            "#lang shill/ambient\nrequire \"sneaky.cap\";\nsteal();",
        )
        .unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("unbound variable `open_file`"), "{m}"),
        other => panic!("{other}"),
    }
}

#[test]
fn require_rejects_ambient_modules() {
    let mut rt = runtime();
    rt.add_script("amb", "#lang shill/ambient\nx = 1;");
    let err = rt
        .run("main", "#lang shill/ambient\nrequire \"amb\";")
        .unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("capability-safe"), "{m}"),
        other => panic!("{other}"),
    }
}

// --- figure 3: find_jpg -------------------------------------------------------

const FIND_JPG: &str = r#"#lang shill/cap

provide find_jpg :
  {cur : dir(+contents, +lookup, +path) \/ file(+path),
   out : file(+append)} -> void;

find_jpg = fun(cur, out) {
  if is_file(cur) && has_ext(cur, "jpg") then
    append(out, path(cur) ++ "\n");

  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then
        find_jpg(child, out);
    }
}
"#;

#[test]
fn figure3_find_jpg_end_to_end() {
    let mut rt = runtime();
    rt.add_script("find_jpg.cap", FIND_JPG);
    rt.run_ok(
        r#"#lang shill/ambient
require "find_jpg.cap";
pics = open_dir("/home/u/pics");
out = open_file("/home/u/out.txt");
find_jpg(pics, out);
"#,
    );
    let node = rt.kernel().fs.resolve_abs("/home/u/out.txt").unwrap();
    let content = rt.kernel().fs.read(node, 0, 4096).unwrap();
    let text = String::from_utf8(content).unwrap();
    assert!(text.contains("/home/u/pics/dog.jpg"));
    assert!(text.contains("/home/u/pics/cat.jpg"));
    assert!(text.contains("/home/u/pics/deep/bird.jpg"));
    assert!(!text.contains("readme.txt"));
}

#[test]
fn find_jpg_contract_blocks_reading_out() {
    // A malicious variant that tries to *read* the output capability,
    // which the contract only grants +append on.
    let mut rt = runtime();
    rt.add_script(
        "evil.cap",
        r#"#lang shill/cap
provide evil :
  {cur : dir(+contents, +lookup, +path) \/ file(+path),
   out : file(+append)} -> void;
evil = fun(cur, out) { read(out); }
"#,
    );
    let err = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "evil.cap";
pics = open_dir("/home/u/pics");
out = open_file("/home/u/out.txt");
evil(pics, out);
"#,
        )
        .unwrap_err();
    match err {
        ShillError::Violation(v) => {
            assert!(v.blamed_name.contains("evil"), "consumer blamed: {v}");
            assert!(v.message.contains("+read"), "{v}");
        }
        other => panic!("expected violation, got {other}"),
    }
}

#[test]
fn find_jpg_contract_blocks_unlink_on_derived() {
    // Derived children inherit the contract: unlink is not granted.
    let mut rt = runtime();
    rt.add_script(
        "evil2.cap",
        r#"#lang shill/cap
provide evil2 : {cur : dir(+contents, +lookup)} -> void;
evil2 = fun(cur) {
  for name in contents(cur) {
    unlink_file(cur, name);
  }
}
"#,
    );
    let err = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "evil2.cap";
pics = open_dir("/home/u/pics");
evil2(pics);
"#,
        )
        .unwrap_err();
    assert!(matches!(err, ShillError::Violation(_)));
    // Nothing was deleted.
    assert!(rt.kernel().fs.resolve_abs("/home/u/pics/dog.jpg").is_ok());
}

#[test]
fn provider_blamed_for_wrong_kind() {
    let mut rt = runtime();
    rt.add_script(
        "wants_dir.cap",
        "#lang shill/cap\nf = fun(d) { contents(d) };\nprovide f : {d : is_dir} -> any;",
    );
    let err = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "wants_dir.cap";
file = open_file("/home/u/out.txt");
f(file);
"#,
        )
        .unwrap_err();
    match err {
        ShillError::Violation(v) => {
            // The caller (provider of the argument) is blamed.
            assert!(v.blamed_name.contains("client of"), "{v}");
        }
        other => panic!("{other}"),
    }
}

// --- figure 5: polymorphic find -----------------------------------------------

const POLY_FIND: &str = r#"#lang shill/cap

provide find :
  forall X with {+lookup, +contents} .
  {cur : X, filter : X -> is_bool, cmd : X -> void} -> void;

find = fun(cur, filter, cmd) {
  if is_file(cur) && filter(cur) then
    cmd(cur);

  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then
        find(child, filter, cmd);
    }
}
"#;

#[test]
fn figure5_polymorphic_find_works() {
    let mut rt = runtime();
    rt.add_script("find.cap", POLY_FIND);
    rt.add_script(
        "client.cap",
        r#"#lang shill/cap
require "find.cap";
provide run_it : {root : dir(+contents, +lookup, +path, +stat) \/ file(+path, +stat), out : file(+append)} -> void;
run_it = fun(root, out) {
  find(root,
       fun(f) { has_ext(f, "jpg") },
       fun(f) { append(out, path(f) ++ "\n"); });
}
"#,
    );
    rt.run_ok(
        r#"#lang shill/ambient
require "client.cap";
pics = open_dir("/home/u/pics");
out = open_file("/home/u/out.txt");
run_it(pics, out);
"#,
    );
    let node = rt.kernel().fs.resolve_abs("/home/u/out.txt").unwrap();
    let text = String::from_utf8(rt.kernel().fs.read(node, 0, 4096).unwrap()).unwrap();
    assert!(text.contains("dog.jpg"));
    assert!(text.contains("bird.jpg"));
    assert!(!text.contains("readme"));
}

#[test]
fn polymorphic_find_body_cannot_exceed_bound() {
    // A dishonest `find` that tries to use +path on the sealed argument —
    // outside the forall bound {+lookup, +contents}.
    let mut rt = runtime();
    rt.add_script(
        "badfind.cap",
        r#"#lang shill/cap
provide find :
  forall X with {+lookup, +contents} .
  {cur : X, filter : X -> is_bool, cmd : X -> void} -> void;
find = fun(cur, filter, cmd) {
  display(path(cur));
}
"#,
    );
    let err = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "badfind.cap";
pics = open_dir("/home/u/pics");
find(pics, is_file, is_file);
"#,
        )
        .unwrap_err();
    match err {
        ShillError::Violation(v) => {
            assert!(v.message.contains("+path"), "{v}");
            assert!(v.message.contains('X'), "{v}");
        }
        other => panic!("{other}"),
    }
}

#[test]
fn polymorphic_filter_gets_unsealed_value() {
    // The filter may use privileges beyond the bound (here +stat via
    // stat_size) because X unseals on the way out to it (§2.4.2).
    let mut rt = runtime();
    rt.add_script("find.cap", POLY_FIND);
    rt.add_script(
        "client.cap",
        r#"#lang shill/cap
require "find.cap";
provide count_nonempty : {root : dir(+contents, +lookup, +stat) \/ file(+stat), out : file(+append)} -> void;
count_nonempty = fun(root, out) {
  find(root,
       fun(f) { stat_size(f) > 0 },
       fun(f) { append(out, "hit\n"); });
}
"#,
    );
    rt.run_ok(
        r#"#lang shill/ambient
require "client.cap";
pics = open_dir("/home/u/pics");
out = open_file("/home/u/out.txt");
count_nonempty(pics, out);
"#,
    );
    let node = rt.kernel().fs.resolve_abs("/home/u/out.txt").unwrap();
    let text = String::from_utf8(rt.kernel().fs.read(node, 0, 4096).unwrap()).unwrap();
    // 4 files, all non-empty.
    assert_eq!(text.matches("hit").count(), 4);
}

// --- figures 4 & 6: jpeginfo with wallets and sandboxed exec --------------------

const JPEGINFO_CAP: &str = r#"#lang shill/cap
require shill/native;

provide jpeginfo :
  {wallet : native_wallet, out : file(+write, +append),
   arg : file(+read, +path)} -> void;

jpeginfo = fun(wallet, out, arg) {
  jpeg_wrapper = pkg_native("jpeginfo", wallet);
  jpeg_wrapper(["-i", arg], stdout = out);
}
"#;

const JPEGINFO_AMBIENT: &str = r#"#lang shill/ambient
require shill/native;
require "jpeginfo.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/bin", "/lib", pipe_factory);

dog = open_file("/home/u/pics/dog.jpg");
out = open_file("/home/u/out.txt");
jpeginfo(wallet, out, dog);
"#;

#[test]
fn figure4_and_6_jpeginfo_sandboxed() {
    let mut rt = runtime();
    rt.add_script("jpeginfo.cap", JPEGINFO_CAP);
    rt.run_ok(JPEGINFO_AMBIENT);
    let node = rt.kernel().fs.resolve_abs("/home/u/out.txt").unwrap();
    let text = String::from_utf8(rt.kernel().fs.read(node, 0, 4096).unwrap()).unwrap();
    assert!(text.contains("/home/u/pics/dog.jpg: 7 bytes"), "{text}");
    // Exactly one sandbox was created.
    assert_eq!(rt.profile().sandboxes, 1);
    assert!(rt.profile().contract_applications > 0);
}

#[test]
fn sandboxed_jpeginfo_cannot_read_ungranted_file() {
    // Pass a path *string* for a file the sandbox has no capability for:
    // the sandboxed binary must fail to open it.
    let mut rt = runtime();
    rt.add_script("jpeginfo.cap", JPEGINFO_CAP);
    rt.add_script(
        "sneaky.cap",
        r#"#lang shill/cap
require shill/native;
provide sneak : {wallet : native_wallet, out : file(+write, +append)} -> any;
sneak = fun(wallet, out) {
  w = pkg_native("jpeginfo", wallet);
  w(["-i", "/home/u/pics/cat.jpg"], stdout = out)
}
"#,
    );
    let v = rt.run_ok(
        r#"#lang shill/ambient
require "sneaky.cap";
require shill/native;
root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/bin", "/lib", pipe_factory);
out = open_file("/home/u/out.txt");
sneak(wallet, out)
"#,
    );
    // jpeginfo exits 1: open of the un-granted path failed inside the
    // sandbox (traversal root is lookup-only; no +read propagates).
    assert!(matches!(v, Value::Num(1)), "got {v:?}");
}

#[test]
fn exec_without_policy_module_fails() {
    let mut rt = ShillRuntime::new(test_kernel(), RuntimeConfig::NoPolicy, Cred::user(100));
    rt.add_script("jpeginfo.cap", JPEGINFO_CAP);
    let err = rt.run("main", JPEGINFO_AMBIENT).unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("kernel module"), "{m}"),
        other => panic!("{other}"),
    }
}

// --- wallets -------------------------------------------------------------------

#[test]
fn wallet_contract_enforced() {
    let mut rt = runtime();
    rt.add_script(
        "w.cap",
        "#lang shill/cap\nf = fun(w) { wallet_keys(w) };\nprovide f : {w : native_wallet} -> is_list;",
    );
    let err = rt
        .run("main", "#lang shill/ambient\nrequire \"w.cap\";\nf(42);")
        .unwrap_err();
    assert!(matches!(err, ShillError::Violation(_)));
    let v = rt.run_ok(
        "#lang shill/ambient\nrequire \"w.cap\";\nw = create_wallet();\nwallet_set(w, \"k\", [1]);\nf(w)",
    );
    assert!(matches!(v, Value::List(_)));
}

#[test]
fn capabilities_are_not_serializable() {
    let mut rt = runtime();
    let v = rt.run_ok("#lang shill/ambient\nd = open_dir(\"/home/u/pics\");\nto_string(d)");
    match v {
        Value::Str(s) => {
            assert!(s.contains("<capability"), "{s}");
            assert!(
                !s.contains("/home"),
                "path must not leak through display: {s}"
            );
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn syserror_values_are_observable_not_fatal() {
    let mut rt = runtime();
    let v = rt.run_ok(
        "#lang shill/ambient\nd = open_dir(\"/home/u/pics\");\nc = lookup(d, \"missing\");\nis_syserror(c)",
    );
    assert!(matches!(v, Value::Bool(true)));
}

#[test]
fn syserror_builtin_constructs_catchable_errors() {
    let mut rt = runtime();
    // The constructed value is a first-class syserror, equal to the one a
    // real denial produces — the retry class a server client re-raises.
    let v = rt.run_ok("#lang shill/ambient\ne = syserror(\"EAGAIN\");\nis_syserror(e)");
    assert!(matches!(v, Value::Bool(true)));
    let v = rt.run_ok("#lang shill/ambient\nsyserror(\"EAGAIN\")");
    assert!(matches!(v, Value::SysErr(shill_vfs::Errno::EAGAIN)));
    // Unknown names are a programming error, not a silent default.
    let err = rt
        .run("main", "#lang shill/ambient\nsyserror(\"EWHATEVER\")")
        .unwrap_err();
    assert!(matches!(err, ShillError::Runtime(m) if m.contains("unknown errno name")));
}

#[test]
fn user_defined_contract_abbreviations() {
    let mut rt = runtime();
    rt.add_script(
        "ro.cap",
        r#"#lang shill/cap
f = fun(x) { read(x) };
provide f : {x : readonly} -> is_string;
"#,
    );
    let v = rt.run_ok(
        "#lang shill/ambient\nrequire \"ro.cap\";\nfile = open_file(\"/home/u/pics/readme.txt\");\nf(file)",
    );
    assert!(matches!(v, Value::Str(s) if &*s == "text"));
}

#[test]
fn profile_counts_contract_work() {
    let mut rt = runtime();
    rt.add_script("find_jpg.cap", FIND_JPG);
    rt.run_ok(
        r#"#lang shill/ambient
require "find_jpg.cap";
pics = open_dir("/home/u/pics");
out = open_file("/home/u/out.txt");
find_jpg(pics, out);
"#,
    );
    let p = rt.profile();
    assert!(p.contract_applications > 5, "{p:?}");
    assert!(p.guard_checks > 0, "{p:?}");
    assert!(p.total > std::time::Duration::ZERO);
}

// --- scoping rules and error text, pinned byte for byte ------------------------
//
// Scopes are resolved before evaluation, but a name still means what the
// dynamic chain of scopes says when the reference runs. Each case runs a
// cap-dialect script whose line 1 is the `#lang` header, so the positions
// in the error text are stable.

/// `ok:<value>` or `err:<error text>` for a script run in a fresh runtime.
fn outcome(rt: &mut ShillRuntime, src: &str) -> String {
    match rt.run("main", src) {
        Ok(v) => format!("ok:{}", v.display()),
        Err(e) => format!("err:{e}"),
    }
}

fn cap_outcome(lines: &[&str]) -> String {
    outcome(
        &mut runtime(),
        &format!("#lang shill/cap\n{}\n", lines.join("\n")),
    )
}

#[test]
fn a_use_before_a_definition_in_the_same_block_reads_the_outer_binding() {
    assert_eq!(
        cap_outcome(&[
            "x = 1;",
            "f = fun() { y = x; x = 2; [y, x] };",
            "to_string(f())",
        ]),
        "ok:[1, 2]"
    );
}

#[test]
fn a_later_sibling_is_visible_once_its_definition_has_run() {
    assert_eq!(
        cap_outcome(&["g = fun() { h() };", "v = g();", "h = fun() { 7 };"]),
        "err:runtime error: unbound variable `h` at 2:13 (call at 3:6)"
    );
    assert_eq!(
        cap_outcome(&["g = fun() { h() };", "h = fun() { 7 };", "g()"]),
        "ok:7"
    );
    assert_eq!(
        cap_outcome(&[
            "even = fun(n) { if n == 0 then true else odd(n - 1) };",
            "odd = fun(n) { if n == 0 then false else even(n - 1) };",
            "[even(10), odd(7), even(3)]",
        ]),
        "ok:[true, true, false]"
    );
}

#[test]
fn redefining_a_builtin_fails_at_top_level_and_a_parameter_shadows_it() {
    assert_eq!(
        cap_outcome(&["length = fun(x) { 0 };"]),
        "err:runtime error: `length` is already defined; SHILL bindings are immutable"
    );
    assert_eq!(
        cap_outcome(&["f = fun(length) { length + 1 };", "f(2)"]),
        "ok:3"
    );
}

#[test]
fn definitions_in_an_if_block_do_not_escape_it() {
    assert_eq!(
        cap_outcome(&[
            "f = fun(c) { if c then { z = 1; z } else 0; z };",
            "f(true)",
        ]),
        "err:runtime error: unbound variable `z` at 2:45 (call at 3:2)"
    );
}

#[test]
fn duplicate_parameters_fail_when_the_function_is_called() {
    assert_eq!(
        cap_outcome(&["f = fun(a, a) { a };"]),
        "ok:void",
        "neither parsing nor resolving rejects them"
    );
    assert_eq!(
        cap_outcome(&["f = fun(a, a) { a };", "f(1, 2)"]),
        "err:runtime error: `a` is already defined; SHILL bindings are immutable (call at 3:2)"
    );
}

#[test]
fn an_arity_error_names_the_binding() {
    assert_eq!(
        cap_outcome(&["myfun = fun(a) { a };", "myfun(1, 2)"]),
        "err:runtime error: myfun expects 1 arguments, got 2 (call at 3:6)"
    );
}

#[test]
fn a_closure_is_named_by_the_first_definition_that_binds_it() {
    assert_eq!(
        cap_outcome(&[
            "mk = fun() { fun(a) { a } };",
            "k = mk();",
            "h = k;",
            "to_string([k, h, mk, mk()])",
        ]),
        "ok:[<fun k>, <fun k>, <fun mk>, <fun >]"
    );
}

const PINNED_CAP: &str = r#"#lang shill/cap
f = fun(x) { x };
g = fun(out) { read(out) };
provide f : {x : is_num} -> is_string;
provide g : {out : file(+append)} -> any;
"#;

#[test]
fn contract_violations_and_function_displays_are_pinned() {
    let mut rt = runtime();
    rt.add_script("pinned.cap", PINNED_CAP);
    let run = |rt: &mut ShillRuntime, body: &str| {
        outcome(
            rt,
            &format!("#lang shill/ambient\nrequire \"pinned.cap\";\n{body}\n"),
        )
    };
    assert_eq!(
        run(&mut rt, "f(\"one\")"),
        "err:contract violation: client of pinned.cap broke the contract `x : is_num`: \
         value of type string does not satisfy is_num"
    );
    assert_eq!(
        run(&mut rt, "f(1)"),
        "err:contract violation: pinned.cap:f broke the contract `is_string`: \
         value of type number does not satisfy is_string"
    );
    assert_eq!(
        run(&mut rt, "g(open_file(\"/home/u/out.txt\"))"),
        "err:contract violation: pinned.cap:g broke the contract `out : file(+append)`: \
         operation +read on capability `out.txt` is not permitted"
    );
    assert_eq!(
        run(&mut rt, "to_string([f, length, open_file])"),
        "ok:[<contracted fun via {x : is_num} -> is_string>, <builtin length>, <builtin open_file>]"
    );
}

// --- modules compiled once per thread -------------------------------------------

/// Requires `b.cap` and reads its `x` at top level.
const READS_X: &str = "#lang shill/cap\nrequire \"b.cap\";\nv = x + 1;\nprovide v : is_num;\n";

/// `ok:`/`err:` of requiring `READS_X` through each `b.cap` in turn, a new
/// runtime each, all on one fresh thread.
fn read_x_on_one_thread(bs: &'static [&'static str]) -> Vec<String> {
    let read_x = |b: &str| {
        let mut rt = runtime();
        rt.add_script("b.cap", b);
        rt.add_script("a.cap", READS_X);
        outcome(&mut rt, "#lang shill/ambient\nrequire \"a.cap\";\nv")
    };
    std::thread::spawn(move || bs.iter().map(|b| read_x(b)).collect())
        .join()
        .unwrap()
}

#[test]
fn a_module_is_compiled_again_when_its_imports_change() {
    const PROVIDES_X: &str = "#lang shill/cap\nx = 41;\nprovide x : is_num;\n";
    const PROVIDES_Y: &str = "#lang shill/cap\ny = 41;\nprovide y : is_num;\n";
    let unbound = "err:runtime error: unbound variable `x` at 3:5";
    assert_eq!(read_x_on_one_thread(&[PROVIDES_X]), ["ok:42"]);
    assert_eq!(read_x_on_one_thread(&[PROVIDES_Y]), [unbound]);
    // Each runtime after the first finds `a.cap` compiled against the
    // imports of the runtime before it.
    assert_eq!(
        read_x_on_one_thread(&[PROVIDES_Y, PROVIDES_X, PROVIDES_Y]),
        [unbound, "ok:42", unbound]
    );
}

// --- the call path: frames, argument buffers, literals and blame ----------------
// Exact texts recorded before the call path's representation changed.

#[test]
fn a_frame_larger_than_its_inline_slots_reads_back_and_refuses_redefinition() {
    let body = [
        "f = fun(a, b, c, d, e, g) {",
        "  x = a + b;",
        "  y = c + d;",
        "  z = e + g;",
        "  [g, e, d, c, b, a, x, y, z]",
        "};",
        "f(1, 2, 3, 4, 5, 6)",
    ];
    assert_eq!(cap_outcome(&body), "ok:[6, 5, 4, 3, 2, 1, 3, 7, 11]");
    let redefined = [
        "f = fun(a, b, c, d, e, g) {",
        "  x = a;",
        "  y = g;",
        "  z = x + y;",
        "  z = 0;",
        "  z",
        "};",
        "f(1, 2, 3, 4, 5, 6)",
    ];
    assert_eq!(
        cap_outcome(&redefined),
        "err:runtime error: `z` is already defined; SHILL bindings are immutable (call at 9:2)"
    );
}

#[test]
fn a_failing_argument_leaves_no_stale_arguments_for_the_next_call() {
    let mut rt = runtime();
    rt.add_script(
        "pair.cap",
        "#lang shill/cap\npair = fun(a, b) { [a, b] };\nprovide pair : {a : any, b : any} -> is_list;\n",
    );
    let run = |rt: &mut ShillRuntime, body: &str| {
        outcome(
            rt,
            &format!("#lang shill/ambient\nrequire \"pair.cap\";\n{body}\n"),
        )
    };
    assert_eq!(
        run(&mut rt, "pair(pair(1, 2), nth([], 3))"),
        "err:runtime error: nth: index 3 out of bounds (call at 3:21)"
    );
    assert_eq!(run(&mut rt, "pair(5, 6)"), "ok:[5, 6]");
    assert_eq!(
        cap_outcome(&[
            "f = fun(a, b) { [a, b] };",
            "g = fun(x) { f(x, nth([x], 1)) };",
            "h = fun(x) { g(x) };",
            "h(7)",
        ]),
        "err:runtime error: nth: index 1 out of bounds (call at 3:22) (call at 4:15) (call at 5:2)"
    );
    assert_eq!(
        cap_outcome(&[
            "f = fun(a, b) { [a, b] };",
            "bad = fun() { f(1, length(3)) };",
            "[f(8, 9), f(f(1, 2), [])]",
        ]),
        "ok:[[8, 9], [[1, 2], []]]"
    );
}

#[test]
fn has_ext_on_strings_matches_a_dot_and_the_extension() {
    assert_eq!(
        cap_outcome(&[
            "[has_ext(\"a.c\", \"c\"), has_ext(\".c\", \"c\"), has_ext(\"c\", \"c\"),",
            " has_ext(\"a.cc\", \"c\"), has_ext(\"a.c\", \"\"), has_ext(\"a.\", \"\")]",
        ]),
        "ok:[true, true, false, false, false, true]"
    );
}

#[test]
fn a_violation_three_calls_deep_keeps_its_blame_text() {
    let mut rt = runtime();
    rt.add_script(
        "inner.cap",
        "#lang shill/cap\ninner = fun(x) { x + 1 };\nprovide inner : {x : is_num} -> is_num;\n",
    );
    rt.add_script(
        "outer.cap",
        r#"#lang shill/cap
require "inner.cap";
a = fun(v) { b(v) };
b = fun(v) { c(v) };
c = fun(v) { inner(v) };
provide a : {v : any} -> any;
"#,
    );
    let run = |rt: &mut ShillRuntime, body: &str| {
        outcome(
            rt,
            &format!("#lang shill/ambient\nrequire \"outer.cap\";\n{body}\n"),
        )
    };
    assert_eq!(
        run(&mut rt, "a(\"s\")"),
        "err:contract violation: client of inner.cap broke the contract `x : is_num`: \
         value of type string does not satisfy is_num"
    );
    assert_eq!(run(&mut rt, "a(41)"), "ok:42");
}
