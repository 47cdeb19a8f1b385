//! Edge cases of bounded parametric polymorphism (§2.4.2): brand
//! freshness, nested instantiation, leak prevention, and the filter/cmd
//! privilege asymmetry from Figure 5's discussion.

use shill::prelude::*;

const POLY_FIND: &str = shill::scenarios::POLY_FIND_CAP;

fn runtime() -> ShillRuntime {
    let mut rt = shill::setup::standard_runtime();
    rt.kernel()
        .fs
        .put_file("/home/u/a/x.jpg", b"X", Mode(0o644), Uid(100), Gid(100))
        .unwrap();
    rt.kernel()
        .fs
        .put_file("/home/u/a/y.txt", b"Y", Mode(0o644), Uid(100), Gid(100))
        .unwrap();
    rt.kernel()
        .fs
        .put_file("/home/u/out.txt", b"", Mode(0o644), Uid(100), Gid(100))
        .unwrap();
    rt
}

#[test]
fn figure5_clients_with_different_filters() {
    // §2.4.2: "one client may use it with a filter that examines file
    // creation times (which requires the +stat privilege). Another client
    // may use find with a filter that inspects a file's name (which
    // requires +path, but not +stat)."
    let mut rt = runtime();
    rt.add_script("find.cap", POLY_FIND);
    rt.add_script(
        "clients.cap",
        r#"#lang shill/cap
require "find.cap";

provide by_name : {root : dir(+contents, +lookup, +path), out : file(+append)} -> void;
provide by_size : {root : dir(+contents, +lookup, +stat), out : file(+append)} -> void;

by_name = fun(root, out) {
  find(root, fun(f) { has_ext(f, "jpg") }, fun(f) { append(out, "name-hit\n"); });
};

by_size = fun(root, out) {
  find(root, fun(f) { stat_size(f) > 0 }, fun(f) { append(out, "size-hit\n"); });
}
"#,
    );
    rt.run(
        "main",
        r#"#lang shill/ambient
require "clients.cap";
d = open_dir("/home/u/a");
out = open_file("/home/u/out.txt");
by_name(d, out);
by_size(d, out);
"#,
    )
    .expect("both clients");
    let n = rt.kernel().fs.resolve_abs("/home/u/out.txt").unwrap();
    let text = String::from_utf8(rt.kernel().fs.read(n, 0, 4096).unwrap()).unwrap();
    assert_eq!(text.matches("name-hit").count(), 1, "{text}");
    assert_eq!(text.matches("size-hit").count(), 2, "{text}");
}

#[test]
fn body_cannot_use_filter_privileges() {
    // "the contract guarantees that the implementation of find itself
    // cannot use either the +stat or +path privileges, even though it
    // invokes the functions filter and cmd."
    let mut rt = runtime();
    rt.add_script(
        "dishonest.cap",
        r#"#lang shill/cap
provide find :
  forall X with {+lookup, +contents} .
  {cur : X, filter : X -> is_bool, cmd : X -> void} -> void;
# Tries to stat the sealed argument directly in the body.
find = fun(cur, filter, cmd) { stat_size(cur); }
"#,
    );
    let err = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "dishonest.cap";
find(open_dir("/home/u/a"), is_file, is_file);
"#,
        )
        .unwrap_err();
    match err {
        ShillError::Violation(v) => {
            assert!(v.message.contains("+stat"), "{v}");
            assert!(v.blamed_name.contains("find"), "body is blamed: {v}");
        }
        other => panic!("{other}"),
    }
}

#[test]
fn seals_do_not_leak_across_instantiations() {
    // A dishonest polymorphic function that CAPTURES a sealed value from
    // one call and replays it into a different instantiation's filter:
    // the brand mismatch is caught when the second wrapper unseals.
    let mut rt = runtime();
    rt.add_script(
        "leaky.cap",
        r#"#lang shill/cap
provide poly :
  forall X with {+lookup, +contents} .
  {cur : X, k : X -> void} -> is_fun;
# Returns a closure capturing the sealed cur instead of using it.
poly = fun(cur, k) { fun() { k(cur) } };

provide replay : {a : is_dir, b : is_dir, sink : {v : any} -> void} -> void;
replay = fun(a, b, sink) {
  # First instantiation: capture sealed a with continuation k1.
  grab = poly(a, fun(x) { sink(x); });
  # Second instantiation with b; its k2 would unseal brand-2 values.
  grab2 = poly(b, fun(x) { sink(x); });
  # Replaying grab is fine (same instantiation):
  grab();
}
"#,
    );
    // The well-behaved replay works — each continuation unseals its own
    // instantiation's brand.
    rt.run(
        "main",
        r#"#lang shill/ambient
require "leaky.cap";
replay(open_dir("/home/u/a"), open_dir("/home/u/a"), fun_sink);
"#,
    )
    .expect_err("fun_sink is unbound — ambient cannot pass functions");
    // Do it through a cap script instead.
    rt.add_script(
        "driver.cap",
        r#"#lang shill/cap
require "leaky.cap";
provide drive : {a : is_dir, b : is_dir} -> is_num;
drive = fun(a, b) {
  seen = fun(x) { is_dir(x); };
  grab = poly(a, seen);
  grab();
  7
}
"#,
    );
    let v = rt
        .run(
            "main2",
            r#"#lang shill/ambient
require "driver.cap";
drive(open_dir("/home/u/a"), open_dir("/home/u/a"))
"#,
        )
        .unwrap();
    assert!(matches!(v, Value::Num(7)));
}

#[test]
fn recursive_polymorphic_calls_nest_seals() {
    // Figure 5's find recurses through its own contracted export: each
    // level re-seals. The deep tree exercises multi-level nesting.
    let mut rt = runtime();
    for d in ["b", "b/c", "b/c/d"] {
        rt.kernel()
            .fs
            .mkdir_p(&format!("/home/u/a/{d}"), Mode(0o755), Uid(100), Gid(100))
            .unwrap();
    }
    rt.kernel()
        .fs
        .put_file(
            "/home/u/a/b/c/d/deep.jpg",
            b"D",
            Mode(0o644),
            Uid(100),
            Gid(100),
        )
        .unwrap();
    rt.add_script("find.cap", POLY_FIND);
    rt.add_script(
        "deep.cap",
        r#"#lang shill/cap
require "find.cap";
provide run : {root : dir(+contents, +lookup, +path), out : file(+append)} -> void;
run = fun(root, out) {
  find(root, fun(f) { has_ext(f, "jpg") }, fun(f) { append(out, path(f) ++ "\n"); });
}
"#,
    );
    rt.run(
        "main",
        r#"#lang shill/ambient
require "deep.cap";
run(open_dir("/home/u/a"), open_file("/home/u/out.txt"));
"#,
    )
    .expect("deep traversal");
    let n = rt.kernel().fs.resolve_abs("/home/u/out.txt").unwrap();
    let text = String::from_utf8(rt.kernel().fs.read(n, 0, 4096).unwrap()).unwrap();
    assert!(text.contains("/home/u/a/b/c/d/deep.jpg"), "{text}");
    assert!(text.contains("/home/u/a/x.jpg"), "{text}");
}

#[test]
fn sealed_values_display_opaquely() {
    let mut rt = runtime();
    rt.add_script(
        "show.cap",
        r#"#lang shill/cap
provide poly :
  forall X with {+lookup} . {cur : X} -> is_string;
poly = fun(cur) { to_string(cur) };
"#,
    );
    let v = rt
        .run(
            "main",
            "#lang shill/ambient\nrequire \"show.cap\";\npoly(open_dir(\"/home/u/a\"))",
        )
        .unwrap();
    let s = v.display();
    assert!(s.contains("sealed"), "{s}");
    assert!(!s.contains("/home"), "sealed values leak nothing: {s}");
}

#[test]
fn dir_stats_stays_within_the_seal_bound() {
    // `dir_stats` stands for `contents`, then `lookup`, then `stat_size`
    // on each child, and a child of a sealed directory carries the same
    // seal. A bound without +stat refuses the sweep as it refuses the
    // loop, and blames the body.
    let mut rt = runtime();
    rt.add_script(
        "sweep.cap",
        r#"#lang shill/cap
require shill/filesys;
provide find :
  forall X with {+lookup, +contents} .
  {cur : X, filter : X -> is_bool, cmd : X -> void} -> any;
find = fun(cur, filter, cmd) { dir_stats(cur) }
"#,
    );
    let err = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "sweep.cap";
find(open_dir("/home/u/a"), is_file, is_file)
"#,
        )
        .unwrap_err();
    match err {
        ShillError::Violation(v) => {
            assert!(v.message.contains("+stat"), "{v}");
            assert!(v.blamed_name.contains("find"), "body is blamed: {v}");
        }
        other => panic!("{other}"),
    }
}
