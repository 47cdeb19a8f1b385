//! Threat-model tests: the paper's concrete security claims, asserted.
//!
//! From §1 (the grading example): "grade will not read any other student's
//! submission; grade will not communicate over the network (as it has no
//! capability for network access); grade will not corrupt the test suite
//! nor write any files other than the grade log and subdirectories it
//! creates within the working directory."

use shill::prelude::*;
use shill::scenarios::GRADING_SHILL_CAP;

fn grading_runtime(students: usize) -> ShillRuntime {
    let mut k = shill::setup::standard_kernel();
    shill::binaries::grading_workload(&mut k, students, 2);
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    rt.add_script("grading.cap", GRADING_SHILL_CAP);
    rt
}

const GRADING_AMBIENT: &str = r#"#lang shill/ambient
require shill/native;
require "grading.cap";
root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/bin:/usr/bin:/bin", "/lib:/usr/local/lib", pipe_factory);
wallet_add_dep(wallet, "ocamlc", open_dir("/usr/local/lib/ocaml"));
subs = open_dir("/course/submissions");
tests = open_dir("/course/tests");
work = open_dir("/course/work");
grades = open_dir("/course/grades");
grade_all(subs, tests, work, grades, wallet)
"#;

fn grade_of(rt: &mut ShillRuntime, i: usize) -> String {
    let n = rt
        .kernel()
        .fs
        .resolve_abs(&format!("/course/grades/student{i:03}.grade"))
        .expect("grade file");
    String::from_utf8(rt.kernel().fs.read(n, 0, 500).unwrap()).unwrap()
}

#[test]
fn cheater_cannot_read_peer_submission() {
    // student000 is the read-cheater: its program tries to read
    // student002's main.ml at test-run time and print it to stdout (which
    // would corrupt its own output and change its grade — or worse, leak).
    let mut rt = grading_runtime(6);
    rt.run("main", GRADING_AMBIENT).expect("grading");
    // The cheater's answer is otherwise correct. If the readfile had
    // SUCCEEDED, the leaked content would prefix its output and every diff
    // would fail → score 0. The sandbox denies the read, so it scores full.
    let g = grade_of(&mut rt, 0);
    assert_eq!(
        g.trim(),
        "score 2/2",
        "cheater read was denied, solution still graded: {g}"
    );
}

#[test]
fn cheater_cannot_forge_grade_file() {
    // student001 tries to `writefile` its own grade file during the test
    // run. The run sandbox has no capability for the grades directory.
    let mut rt = grading_runtime(6);
    rt.run("main", GRADING_AMBIENT).expect("grading");
    let g = grade_of(&mut rt, 1);
    assert!(!g.contains("999"), "forged grade must not appear: {g}");
    assert_eq!(g.trim(), "score 2/2");
}

#[test]
fn submissions_cannot_touch_network() {
    // A submission that "phones home": ocamlrun has no socket syscalls in
    // its repertoire, but even a binary that tried would need the session
    // to hold a socket-factory capability — the grading script grants none.
    // Check at the MAC level: a process in the grading sandbox session
    // cannot create a socket.
    let mut k = shill::setup::standard_kernel();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    let sb = shill::sandbox::setup_sandbox(
        &mut k,
        &policy,
        user,
        &shill::sandbox::SandboxSpec::default(),
    )
    .unwrap();
    assert_eq!(
        k.socket(sb.child, shill::kernel::SockDomain::Inet)
            .unwrap_err(),
        shill::vfs::Errno::EACCES
    );
}

#[test]
fn test_suite_stays_intact() {
    let mut rt = grading_runtime(6);
    let before: Vec<u8> = {
        let n = rt
            .kernel()
            .fs
            .resolve_abs("/course/tests/expected1")
            .unwrap();
        rt.kernel().fs.read(n, 0, 1000).unwrap()
    };
    rt.run("main", GRADING_AMBIENT).expect("grading");
    let after: Vec<u8> = {
        let n = rt
            .kernel()
            .fs
            .resolve_abs("/course/tests/expected1")
            .unwrap();
        rt.kernel().fs.read(n, 0, 1000).unwrap()
    };
    assert_eq!(before, after, "test suite must be unmodified");
}

#[test]
fn grade_files_are_append_only_for_the_script() {
    // The grades contract is `+create_file with {+append, +path, +stat}`:
    // a grading script that tried to *read back* or *truncate* a grade
    // file it created violates its contract.
    let mut k = shill::setup::standard_kernel();
    shill::binaries::grading_workload(&mut k, 2, 1);
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    rt.add_script(
        "nosy.cap",
        r#"#lang shill/cap
provide nosy : {grades : dir(+create_file with {+append, +path, +stat})} -> void;
nosy = fun(grades) {
  g = create_file(grades, "x.grade");
  append(g, "score 1\n");
  read(g);
}
"#,
    );
    let err = rt
        .run(
            "main",
            "#lang shill/ambient\nrequire \"nosy.cap\";\nnosy(open_dir(\"/course/grades\"));",
        )
        .unwrap_err();
    match err {
        ShillError::Violation(v) => assert!(v.message.contains("+read"), "{v}"),
        other => panic!("{other}"),
    }
}

#[test]
fn sandboxed_binaries_cannot_unload_the_policy_module() {
    // §2.3: "no sandboxed executable has a capability to unload kernel
    // modules, including the module that enforces the MAC policy."
    let mut k = shill::setup::standard_kernel();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let root_user = k.spawn_user(Cred::ROOT);
    let sb = shill::sandbox::setup_sandbox(
        &mut k,
        &policy,
        root_user,
        &shill::sandbox::SandboxSpec::default(),
    )
    .unwrap();
    assert_eq!(
        k.kldunload(sb.child, "shill").unwrap_err(),
        shill::vfs::Errno::EACCES
    );
    assert!(k.has_policy("shill"));
    // Outside a sandbox, root CAN unload it (it is a normal module).
    assert!(k.kldunload(root_user, "shill").is_ok());
    assert!(!k.has_policy("shill"));
}

#[test]
fn dac_still_applies_inside_sandboxes() {
    // §2.3: MAC is enforced IN ADDITION to DAC. A sandbox granted +read on
    // a file the *user* cannot read still cannot read it.
    let mut k = shill::setup::standard_kernel();
    k.fs.put_file(
        "/secret/root-only.txt",
        b"s",
        Mode(0o600),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::user(100));
    let node = k.fs.resolve_abs("/secret/root-only.txt").unwrap();
    let secret_dir = k.fs.resolve_abs("/secret").unwrap();
    let root = k.fs.root();
    let spec = shill::sandbox::SandboxSpec {
        grants: vec![
            shill::sandbox::Grant::vnode(root, shill::cap::CapPrivs::full()),
            shill::sandbox::Grant::vnode(secret_dir, shill::cap::CapPrivs::full()),
            shill::sandbox::Grant::vnode(node, shill::cap::CapPrivs::full()),
        ],
        ..Default::default()
    };
    let sb = shill::sandbox::setup_sandbox(&mut k, &policy, user, &spec).unwrap();
    assert_eq!(
        k.open(
            sb.child,
            "/secret/root-only.txt",
            OpenFlags::RDONLY,
            Mode(0)
        )
        .unwrap_err(),
        shill::vfs::Errno::EACCES,
        "DAC denies even though MAC grants"
    );
}

#[test]
fn capability_safe_scripts_cannot_import_ambient_scripts() {
    let mut rt = shill::setup::standard_runtime();
    rt.add_script("amb", "#lang shill/ambient\nx = open_dir(\"/\");");
    rt.add_script(
        "trick.cap",
        "#lang shill/cap\nrequire \"amb\";\nprovide f : {} -> any;\nf = fun() { 1 };",
    );
    let err = rt
        .run("main", "#lang shill/ambient\nrequire \"trick.cap\";\nf();")
        .unwrap_err();
    match err {
        ShillError::Runtime(m) => assert!(m.contains("capability-safe"), "{m}"),
        other => panic!("{other}"),
    }
}

#[test]
fn sandbox_cannot_escape_via_dotdot() {
    // A sandboxed process with privileges under /jail only: ".." lookups
    // are permitted, but no privileges propagate upward, so reaching
    // anything outside fails.
    let mut k = shill::setup::standard_kernel();
    k.fs.put_file("/jail/inner.txt", b"in", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.fs.put_file("/outside.txt", b"out", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    let jail = k.fs.resolve_abs("/jail").unwrap();
    let root = k.fs.root();
    // Traversal-only root (what a native wallet grants) + full on the jail.
    let lookup_only =
        shill::cap::CapPrivs::of(shill::cap::PrivSet::of(&[shill::cap::Priv::Lookup]))
            .with_modifier(
                shill::cap::Priv::Lookup,
                shill::cap::CapPrivs::of(shill::cap::PrivSet::of(&[shill::cap::Priv::Lookup])),
            );
    let spec = shill::sandbox::SandboxSpec {
        grants: vec![
            shill::sandbox::Grant::vnode(root, lookup_only),
            shill::sandbox::Grant::vnode(jail, shill::cap::CapPrivs::full()),
        ],
        ..Default::default()
    };
    let sb = shill::sandbox::setup_sandbox(&mut k, &policy, user, &spec).unwrap();
    k.chdir(sb.child, "/jail").unwrap();
    // Inside works:
    assert!(k
        .open(sb.child, "inner.txt", OpenFlags::RDONLY, Mode(0))
        .is_ok());
    // Escape fails: the ".." lookup itself is allowed (+lookup on /jail),
    // but no privileges propagate upward (§3.2.2), and the traversal-only
    // root conveys +lookup — never +read — so the final open is denied.
    assert_eq!(
        k.open(sb.child, "../outside.txt", OpenFlags::RDONLY, Mode(0))
            .unwrap_err(),
        shill::vfs::Errno::EACCES
    );
}

/// A runtime whose kernel has two registered binaries and an empty
/// `/tmp/out.txt`: `/bin/writer` writes `written\n` to its stdout, and
/// `/bin/piper` creates a pipe. Each exits 0 when the kernel lets it, 1
/// when it refuses.
fn launcher_runtime(module: &str, source: &str) -> ShillRuntime {
    use std::sync::Arc;
    let mut k = shill::setup::standard_kernel();
    k.register_exec(
        "writer",
        Arc::new(|k: &mut Kernel, pid: Pid, _argv: &[String]| {
            i32::from(k.write(pid, Fd::STDOUT, b"written\n").is_err())
        }),
    );
    k.register_exec(
        "piper",
        Arc::new(|k: &mut Kernel, pid: Pid, _argv: &[String]| i32::from(k.pipe(pid).is_err())),
    );
    for bin in ["writer", "piper"] {
        let text = format!("#!SIMBIN {bin}\n");
        k.fs.put_file(
            &format!("/bin/{bin}"),
            text.as_bytes(),
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }
    k.fs.put_file("/tmp/out.txt", b"", Mode(0o666), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let mut rt = ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT);
    rt.add_script(module, source);
    rt
}

fn out_text(rt: &mut ShillRuntime) -> String {
    let node = rt.kernel().fs.resolve_abs("/tmp/out.txt").unwrap();
    String::from_utf8(rt.kernel().fs.read(node, 0, 1 << 10).unwrap()).unwrap()
}

/// `f(open_file("/tmp/out.txt"), open_file("/bin/<prog>"))` from `m.cap`.
fn run_launcher(rt: &mut ShillRuntime, prog: &str) -> Result<Value, ShillError> {
    rt.run(
        "main",
        &format!(
            "#lang shill/ambient\nrequire \"m.cap\";\n\
             f(open_file(\"/tmp/out.txt\"), open_file(\"/bin/{prog}\"))"
        ),
    )
}

const STDIO_PROG: &str = "prog : file(+exec, +read, +stat, +path)";

#[test]
fn a_stdout_capability_without_append_cannot_be_written_through_exec() {
    // §2.3: "the MAC policy further limits access to the resource
    // according to the capability's contract". A stdout whose contract
    // does not allow +append is refused at the exec, with the blame the
    // `append` builtin would carry, and nothing is written.
    let refusal = |body: &str| {
        let source = format!(
            "#lang shill/cap\nprovide f : {{out : file(+read, +stat, +path), {STDIO_PROG}}} -> any;\n\
             f = fun(out, prog) {{ {body} }};\n"
        );
        let mut rt = launcher_runtime("m.cap", &source);
        let err = run_launcher(&mut rt, "writer").unwrap_err();
        (err, out_text(&mut rt))
    };
    let (by_exec, written) = refusal("exec(prog, [\"writer\"], stdout = out)");
    let (by_append, _) = refusal("append(out, \"written\\n\")");
    match (&by_exec, &by_append) {
        (ShillError::Violation(e), ShillError::Violation(a)) => {
            assert!(e.message.contains("+append"), "{e}");
            assert_eq!(e.to_string(), a.to_string());
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(written, "", "the sandbox wrote nothing");
}

#[test]
fn an_append_only_stdout_gives_the_sandbox_no_write() {
    // Under file(+append, +stat, +path) the language lets the exec
    // through, and the session gets the contract's {+append, +stat}: by
    // §3.2.3's coarser rule a sandboxed write needs +write, so the child's
    // write is refused.
    let source = format!(
        "#lang shill/cap\nprovide f : {{out : file(+append, +stat, +path), {STDIO_PROG}}} -> any;\n\
         f = fun(out, prog) {{ exec(prog, [\"writer\"], stdout = out) }};\n"
    );
    let mut rt = launcher_runtime("m.cap", &source);
    let status = run_launcher(&mut rt, "writer").expect("the exec runs");
    assert!(matches!(status, Value::Num(1)), "write refused: {status:?}");
    assert_eq!(out_text(&mut rt), "");
}

#[test]
fn a_sealed_pipe_factory_in_extras_grants_only_its_bound() {
    // §2.4.2: a sealed value may be used only within its bound. A pipe
    // factory sealed under `forall X with {+path}` passed in `extras`
    // gives the sandbox no right to create pipes; the same factory
    // unsealed does.
    let launch = |contract: &str| {
        let source = format!(
            "#lang shill/cap\nprovide f : {contract};\n\
             f = fun(pf, prog) {{ exec(prog, [\"piper\"], extras = [pf]) }};\n"
        );
        let mut rt = launcher_runtime("m.cap", &source);
        rt.run(
            "main",
            "#lang shill/ambient\nrequire \"m.cap\";\nf(pipe_factory, open_file(\"/bin/piper\"))",
        )
        .expect("the exec runs")
    };
    let sealed = launch(&format!(
        "forall X with {{+path}} . {{pf : X, {STDIO_PROG}}} -> any"
    ));
    assert!(matches!(sealed, Value::Num(1)), "pipe refused: {sealed:?}");
    let unsealed = launch(&format!("{{pf : pipe_factory, {STDIO_PROG}}} -> any"));
    assert!(
        matches!(unsealed, Value::Num(0)),
        "pipe created: {unsealed:?}"
    );
}

#[test]
fn a_launch_that_stops_early_leaves_no_grant_for_the_next() {
    // `exec` reuses its grant buffers from one launch to the next: what a
    // launch added before it failed must not reach the next sandbox.
    let source = format!(
        "#lang shill/cap\nprovide f : {{pf : pipe_factory, {STDIO_PROG}}} -> any;\n\
         provide g : {{{STDIO_PROG}}} -> any;\n\
         f = fun(pf, prog) {{ exec(prog, [\"piper\"], extras = [pf], bogus = 1) }};\n\
         g = fun(prog) {{ exec(prog, [\"piper\"]) }};\n"
    );
    let mut rt = launcher_runtime("m.cap", &source);
    let err = rt
        .run(
            "main",
            "#lang shill/ambient\nrequire \"m.cap\";\nf(pipe_factory, open_file(\"/bin/piper\"))",
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown keyword"), "{err}");
    let status = rt
        .run(
            "next",
            "#lang shill/ambient\nrequire \"m.cap\";\ng(open_file(\"/bin/piper\"))",
        )
        .expect("the exec runs");
    assert!(matches!(status, Value::Num(1)), "pipe refused: {status:?}");
}
