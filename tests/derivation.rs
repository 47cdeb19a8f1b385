//! Capability derivation is a descriptor operation (§2.1): `lookup` is
//! `openat` relative to the directory capability's descriptor. What a
//! derived capability designates, and whether it can be derived at all,
//! depends on that descriptor and the entry's name — not on the path from
//! `/` down to the directory.

use shill::prelude::*;
use shill::vfs::Errno;

/// A runtime for uid 100 over the standard binaries plus `files`
/// (`(path, contents)`, owned by uid 100).
fn user_runtime(files: &[(&str, &str)]) -> ShillRuntime {
    let mut k = shill::setup::standard_kernel();
    for (path, contents) in files {
        k.fs.put_file(
            path,
            contents.as_bytes(),
            Mode::FILE_DEFAULT,
            Uid(100),
            Gid(100),
        )
        .unwrap();
    }
    ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::user(100))
}

/// Run `f` as root, the way an administrator acts on the tree while the
/// runtime holds its capabilities.
fn as_root(rt: &mut ShillRuntime, f: impl FnOnce(&mut Kernel, Pid)) {
    let k = rt.kernel();
    let root = k.spawn_user(Cred::ROOT);
    f(k, root)
}

fn read_file(rt: &mut ShillRuntime, path: &str) -> String {
    let k = rt.kernel();
    let n = k.fs.resolve_abs(path).unwrap();
    String::from_utf8(k.fs.read(n, 0, 4096).unwrap()).unwrap()
}

#[test]
fn capability_derived_through_symlink_grants_its_target() {
    // The sandbox is granted the vnode the capability records. That must
    // be the file the descriptor names (the link's target), or grep is
    // handed a path it has no privilege to open.
    let mut rt = user_runtime(&[
        ("/home/user/data.txt", "SECRET: the target's line\n"),
        ("/tmp/out.txt", ""),
    ]);
    as_root(&mut rt, |k, root| {
        k.symlinkat(root, "data.txt", None, "/home/user/link")
            .unwrap()
    });
    let v = rt
        .run(
            "main",
            r#"#lang shill/ambient
require shill/native;
root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/bin:/bin", "/lib", pipe_factory);
grep = pkg_native("grep", wallet);
d = open_dir("/home/user");
out = open_file("/tmp/out.txt");
grep(["-H", "SECRET", lookup(d, "link")], stdout = out)
"#,
        )
        .unwrap();
    let out = read_file(&mut rt, "/tmp/out.txt");
    assert!(
        matches!(v, Value::Num(0)),
        "grep exited {v:?}, wrote {out:?}"
    );
    assert_eq!(out, "/home/user/data.txt:SECRET: the target's line\n");
}

/// Capability-safe helpers that return a closure over derived
/// capabilities, so a test can change the tree between derivation and use.
const LATER: &str = r#"#lang shill/cap
provide read_later : {d : dir(+lookup with {+read})} -> any;
provide exts_later : {d : dir(+lookup with {+path})} -> any;

read_later = fun(d) {
  fun() {
    f = lookup(d, "f");
    if is_syserror(f) then f else read(f)
  }
};

exts_later = fun(d) {
  link = lookup(d, "link.c");
  a = lookup(d, "a.c");
  fun() { [has_ext(link, "c"), has_ext(link, "h"), has_ext(a, "c"), has_ext(a, "h")] }
};
"#;

#[test]
fn derivation_does_not_depend_on_ancestor_permissions() {
    // The runtime holds a capability for /a/b; root then removes every
    // permission on /a. The descriptor still names b, so deriving and
    // reading b's child needs b's search permission only.
    let mut rt = user_runtime(&[("/a/b/f", "payload")]);
    rt.add_script("later.cap", LATER);
    let derive_and_read = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "later.cap";
read_later(open_dir("/a/b"))
"#,
        )
        .unwrap();
    as_root(&mut rt, |k, root| {
        k.fchmodat(root, None, "/a", Mode(0o000)).unwrap()
    });
    let v = rt.interp.apply(derive_and_read, vec![], vec![]).unwrap();
    assert_eq!(v.display(), "payload");
    // A fresh path walk from `/` is still refused: only the descriptor
    // survives the chmod.
    let user = rt.pid();
    assert_eq!(
        rt.kernel()
            .open(user, "/a/b/f", OpenFlags::RDONLY, Mode(0))
            .unwrap_err(),
        Errno::EACCES
    );
}

const PATHLESS_PROBE: &str = r#"#lang shill/cap
provide probe : {f : file(+read)} -> is_bool;
probe = fun(f) { has_ext(f, "txt") };
"#;

#[test]
fn has_ext_needs_path_from_every_contract() {
    let mut rt = user_runtime(&[("/home/user/notes.txt", "n")]);
    rt.add_script("probe.cap", PATHLESS_PROBE);
    let err = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "probe.cap";
probe(open_file("/home/user/notes.txt"))
"#,
        )
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "contract violation: probe.cap:probe broke the contract `f : file(+read)`: \
         operation +path on capability `notes.txt` is not permitted"
    );
}

#[test]
fn has_ext_tests_the_name_the_capability_was_derived_under() {
    // `find -name` matches directory-entry names; `has_ext` tests the same
    // name, so a symlink answers for its own name and a rename after
    // derivation does not change the answer.
    let mut rt = user_runtime(&[("/home/user/foo.h", "h"), ("/home/user/a.c", "c")]);
    as_root(&mut rt, |k, root| {
        k.symlinkat(root, "foo.h", None, "/home/user/link.c")
            .unwrap()
    });
    rt.add_script("later.cap", LATER);
    let probe = rt
        .run(
            "main",
            r#"#lang shill/ambient
require "later.cap";
exts_later(open_dir("/home/user"))
"#,
        )
        .unwrap();
    as_root(&mut rt, |k, root| {
        k.renameat(root, None, "/home/user/a.c", None, "/home/user/a.h")
            .unwrap()
    });
    let v = rt.interp.apply(probe, vec![], vec![]).unwrap();
    assert_eq!(v.display(), "[true, false, true, false]");
}

#[test]
fn path_of_a_file_another_capability_deleted_is_its_last_path() {
    // §3.1.3: once the file has no name the `path` syscall fails, and
    // "SHILL uses the last known path".
    let mut rt = user_runtime(&[("/home/user/doomed.txt", "x")]);
    rt.run(
        "main",
        r#"#lang shill/ambient
f = open_file("/home/user/doomed.txt");
d = open_dir("/home/user");
unlink_file(d, "doomed.txt");
display(path(f), " ", is_syserror(lookup(d, "doomed.txt")));
"#,
    )
    .unwrap();
    assert_eq!(rt.output(), "/home/user/doomed.txt true\n");
}

#[test]
fn dir_stats_needs_stat_on_the_capabilities_lookup_derives() {
    // `dir_stats(d)` stands for `stat_size(lookup(d, n))` over the names
    // of `d`. A `with` modifier on +lookup decides what a child may do, so
    // a child without +stat refuses the sweep as it refuses the loop.
    let mut rt = user_runtime(&[("/home/user/a.txt", "aaaa"), ("/home/user/b.txt", "b")]);
    rt.add_script(
        "sizes.cap",
        r#"#lang shill/cap
require shill/filesys;
provide sweep : {d : dir(+contents, +stat, +lookup with {+path})} -> any;
provide walk : {d : dir(+contents, +stat, +lookup with {+path})} -> any;
sweep = fun(d) { dir_stats(d) };
walk = fun(d) { for n in contents(d) { stat_size(lookup(d, n)); } };
"#,
    );
    for f in ["walk", "sweep"] {
        let err = rt
            .run(
                "main",
                &format!(
                    "#lang shill/ambient\nrequire \"sizes.cap\";\n{f}(open_dir(\"/home/user\"))\n"
                ),
            )
            .unwrap_err();
        match err {
            ShillError::Violation(v) => {
                assert!(v.message.contains("+stat"), "{f}: {v}");
                assert!(v.blamed_name.contains("sizes.cap"), "{f}: {v}");
            }
            other => panic!("{f}: {other}"),
        }
    }
}
