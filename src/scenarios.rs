//! The paper's four case studies (§4.1), as SHILL scripts plus drivers for
//! each benchmark configuration of §4.2. Shared by `examples/`, `tests/`,
//! and the `shill-bench` harness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::binaries::workloads;
use crate::core::{Profile, RuntimeConfig, ShillRuntime, Value};
use crate::kernel::{Kernel, Pid, SockAddr};
use crate::sandbox::ShillPolicy;
use crate::vfs::Cred;

/// The four measurement configurations of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// No SHILL kernel module; command run directly.
    Baseline,
    /// Module loaded (hooks fire) but no sandbox.
    Installed,
    /// The command launched inside one SHILL sandbox.
    Sandboxed,
    /// The task rewritten in SHILL with fine-grained contracts.
    ShillVersion,
}

impl Config {
    pub fn label(self) -> &'static str {
        match self {
            Config::Baseline => "Baseline",
            Config::Installed => "SHILL installed",
            Config::Sandboxed => "Sandboxed",
            Config::ShillVersion => "SHILL version",
        }
    }
}

/// Result of one scenario run.
pub struct Outcome {
    pub wall: Duration,
    /// Runtime profile, for configurations that used the SHILL runtime.
    pub profile: Option<Profile>,
    /// Scenario-specific check value (e.g. files matched, requests served).
    pub checked: u64,
}

/// Run `argv` directly as a user process (Baseline / Installed configs).
pub fn direct_exec(k: &mut Kernel, user: Pid, argv: &[&str]) -> i32 {
    let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    let child = k.fork(user).expect("fork");
    let status = k.exec_at(child, None, &argv[0], &argv).unwrap_or(-1);
    k.exit(child, status);
    k.waitpid(user, child).unwrap_or(-1)
}

/// Process-global cache mode for scenario kernels (they are constructed
/// inside each `run_*` driver). Ablation benches and the cache-mode parity
/// tests flip this to compare cached vs. uncached MAC verdicts end to end.
static SCENARIO_CACHES: AtomicBool = AtomicBool::new(true);

/// Run subsequent scenarios with the access-vector cache on or off.
/// Affects only kernels built by this module's `run_*` functions.
pub fn set_scenario_cache_mode(enabled: bool) {
    SCENARIO_CACHES.store(enabled, Ordering::SeqCst);
}

/// A standard kernel honoring the scenario cache mode.
fn scenario_kernel() -> Kernel {
    let mut k = crate::setup::standard_kernel();
    k.set_avc_enabled(SCENARIO_CACHES.load(Ordering::SeqCst));
    k
}

fn kernel_for(config: Config) -> Kernel {
    let mut k = scenario_kernel();
    if config == Config::Installed {
        // Module loaded, nothing sandboxed.
        k.register_policy(ShillPolicy::new());
    }
    k
}

fn runtime_for(config: Config, k: Kernel, cred: Cred) -> ShillRuntime {
    debug_assert!(matches!(config, Config::Sandboxed | Config::ShillVersion));
    let _ = config;
    ShillRuntime::new(k, RuntimeConfig::WithPolicy, cred)
}

// =============================================================================
// Grading (§4.1 "Grading submissions")
// =============================================================================

/// The 22-line capability-safe script that sandboxes the Bash-equivalent
/// grading driver (coarse-grained configuration). Contract mirrors the
/// case study: read submissions and tests; create/modify/delete in the
/// working and output directories; toolchain via the wallet.
pub const GRADING_SANDBOXED_CAP: &str = r#"#lang shill/cap
require shill/native;

provide grade_sandboxed :
  {subs : dir(+contents, +lookup, +path, +read, +stat),
   tests : dir(+contents, +lookup, +path, +read, +stat),
   work : dir(+contents, +lookup, +path, +stat, +create_file, +create_dir,
              +read, +write, +append, +unlink_file, +unlink_dir, +truncate),
   grades : dir(+contents, +lookup, +path, +stat, +create_file,
                +read, +write, +append, +truncate, +unlink_file),
   wallet : native_wallet} -> any;

grade_sandboxed = fun(subs, tests, work, grades, wallet) {
  grader = pkg_native("grade-sh", wallet);
  grader([subs, tests, work, grades])
}
"#;

/// The fine-grained pure-SHILL grading script (§4.1): per-student sandboxes
/// for compile and run, append-only grade files, no cross-student access.
pub const GRADING_SHILL_CAP: &str = r#"#lang shill/cap
require shill/native;
require "shill/prelude";

# Contract notes (cf. Figure 1): submissions and tests are read-only; the
# working directory only allows creating fully-private subdirectories; the
# grades directory only allows creating append-only files.
provide grade_all :
  {subs : dir(+contents,
              +lookup with {+contents, +lookup, +read, +stat, +path}),
   tests : dir(+contents,
               +lookup with {+read, +stat, +path}),
   work : dir(+create_dir with {+contents, +lookup, +path, +stat,
                                +create_file, +read, +write, +append,
                                +truncate, +unlink_file}),
   grades : dir(+create_file with {+append, +path, +stat}),
   wallet : native_wallet} -> void;

grade_one_test = fun(runner, bc, input, expected, outfile) {
  st = runner([bc], stdin = input, stdout = outfile);
  if st == 0 && read(outfile) == read(expected) then 1 else 0
};

grade_all = fun(subs, tests, work, grades, wallet) {
  compiler = pkg_native("ocamlc", wallet);
  runner = pkg_native("ocamlrun", wallet);
  inputs = filter_list(fun(n) { starts_with(n, "input") }, contents(tests));
  for student in contents(subs) {
    sdir = lookup(subs, student);
    gradefile = create_file(grades, student ++ ".grade");
    if is_syserror(sdir) || !is_dir(sdir) then
      append(gradefile, "score 0 (bad submission)\n")
    else {
      src = lookup(sdir, "main.ml");
      if is_syserror(src) then
        append(gradefile, "score 0 (missing main.ml)\n")
      else {
        swork = create_dir(work, student);
        bc = create_file(swork, "main.bc");
        cst = compiler([src, "-o", bc]);
        if cst != 0 then
          append(gradefile, "score 0 (compile error)\n")
        else {
          total = foldl(fun(acc, name) {
            case = strip_prefix(name, "input");
            input = lookup(tests, name);
            expected = lookup(tests, "expected" ++ case);
            outfile = create_file(swork, "out" ++ case);
            if is_syserror(expected) then acc
            else acc + grade_one_test(runner, bc, input, expected, outfile)
          }, 0, inputs);
          append(gradefile,
                 "score " ++ to_string(total) ++ "/"
                          ++ to_string(length(inputs)) ++ "\n");
        }
      }
    }
  }
}
"#;

/// Ambient driver for the grading scripts.
fn grading_ambient(entry: &str) -> String {
    format!(
        r#"#lang shill/ambient
require shill/native;
require "grading.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/bin:/usr/bin:/bin", "/lib:/usr/local/lib", pipe_factory);
wallet_add_dep(wallet, "ocamlc", open_dir("/usr/local/lib/ocaml"));
wallet_add_dep(wallet, "grade-sh", open_dir("/usr/local/lib/ocaml"));
wallet_add_dep(wallet, "grade-sh", open_dir("/tmp"));
wallet_add_dep(wallet, "grade-sh", open_file("/usr/local/bin/ocamlc"));
wallet_add_dep(wallet, "grade-sh", open_file("/usr/local/bin/ocamlrun"));
wallet_add_dep(wallet, "grade-sh", open_file("/usr/bin/diff"));

subs = open_dir("/course/submissions");
tests = open_dir("/course/tests");
work = open_dir("/course/work");
grades = open_dir("/course/grades");
{entry}(subs, tests, work, grades, wallet)
"#
    )
}

/// Run the grading scenario under a configuration.
pub fn run_grading(config: Config, students: usize, tests: usize) -> Outcome {
    match config {
        Config::Baseline | Config::Installed => {
            let mut k = kernel_for(config);
            workloads::grading_workload(&mut k, students, tests);
            let user = k.spawn_user(Cred::ROOT);
            let t0 = Instant::now();
            let st = direct_exec(
                &mut k,
                user,
                &[
                    "/usr/local/bin/grade-sh",
                    "/course/submissions",
                    "/course/tests",
                    "/course/work",
                    "/course/grades",
                ],
            );
            let wall = t0.elapsed();
            assert_eq!(st, 0, "grade-sh failed");
            Outcome {
                wall,
                profile: None,
                checked: count_grades(&k, students),
            }
        }
        Config::Sandboxed | Config::ShillVersion => {
            let mut k = scenario_kernel();
            workloads::grading_workload(&mut k, students, tests);
            let t0 = Instant::now();
            let mut rt = runtime_for(config, k, Cred::ROOT);
            let (script, entry) = match config {
                Config::Sandboxed => (GRADING_SANDBOXED_CAP, "grade_sandboxed"),
                _ => (GRADING_SHILL_CAP, "grade_all"),
            };
            rt.add_script("grading.cap", script);
            let r = rt.run("grading-main", &grading_ambient(entry));
            let wall = t0.elapsed();
            if let Err(e) = r {
                panic!("grading script failed: {e}");
            }
            let checked = count_grades(rt.kernel(), students);
            Outcome {
                wall,
                profile: Some(rt.profile()),
                checked,
            }
        }
    }
}

fn count_grades(k: &Kernel, students: usize) -> u64 {
    let mut n = 0;
    for i in 0..students {
        if k.fs
            .resolve_abs(&format!("/course/grades/student{i:03}.grade"))
            .is_ok()
        {
            n += 1;
        }
    }
    n
}

// =============================================================================
// Find (§4.1 "Find")
// =============================================================================

/// The simple variant: one sandbox around
/// `find /usr/src -name "*.c" -exec grep -H mac_ {} ;`.
pub const FIND_SANDBOXED_CAP: &str = r#"#lang shill/cap
require shill/native;

provide find_sandboxed :
  {src : dir(+contents, +lookup, +path, +read, +stat, +read_symlink, +chdir),
   out : file(+write, +append, +stat),
   wallet : native_wallet} -> any;

find_sandboxed = fun(src, out, wallet) {
  finder = pkg_native("find", wallet);
  finder([src, "-name", "*.c", "-exec", "/usr/bin/grep", "-H", "mac_", "{}", ";"],
         stdout = out)
}
"#;

/// The fine-grained variant (§4.1): the polymorphic `find` of Figure 5
/// walks the tree in SHILL and launches one `grep` sandbox per `.c` file,
/// passing the file *capability* — "the files that grep operates on are
/// exactly the files selected by the find function".
pub const FIND_SHILL_CAP: &str = r#"#lang shill/cap
require shill/native;
require "find.cap";

provide find_fine :
  {src : dir(+contents, +lookup, +path, +stat, +read),
   out : file(+write, +append, +stat),
   wallet : native_wallet} -> void;

find_fine = fun(src, out, wallet) {
  grep = pkg_native("grep", wallet);
  find(src,
       fun(f) { has_ext(f, "c") },
       fun(f) { grep(["-H", "mac_", f], stdout = out); });
}
"#;

fn find_ambient(entry: &str) -> String {
    format!(
        r#"#lang shill/ambient
require shill/native;
require "task.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/bin:/bin", "/lib", pipe_factory);
# `find -exec` spawns grep inside the sandbox: the grep binary and its
# libraries are dependencies of running find (§3.1.4's known-deps map).
wallet_add_dep(wallet, "find", open_file("/usr/bin/grep"));
wallet_add_dep(wallet, "find", open_file("/lib/libregex.so"));

src = open_dir("/usr/src");
out = open_file("/tmp/matches.txt");
{entry}(src, out, wallet)
"#
    )
}

/// Run the find scenario. `scale` divides the paper's 57,817-file tree.
pub fn run_find(config: Config, scale: usize) -> Outcome {
    match config {
        Config::Baseline | Config::Installed => {
            let mut k = kernel_for(config);
            workloads::source_tree(&mut k, scale);
            k.fs.put_file(
                "/tmp/matches.txt",
                b"",
                crate::vfs::Mode(0o666),
                crate::vfs::Uid::ROOT,
                crate::vfs::Gid::WHEEL,
            )
            .unwrap();
            let user = k.spawn_user(Cred::ROOT);
            // Wire stdout to the output file like the shell would.
            let t0 = Instant::now();
            let child = k.fork(user).expect("fork");
            let out = k
                .open(
                    child,
                    "/tmp/matches.txt",
                    crate::kernel::OpenFlags::creat_trunc_w(),
                    crate::vfs::Mode(0o644),
                )
                .unwrap();
            k.transfer_fd(child, out, child, crate::kernel::Fd::STDOUT)
                .unwrap();
            let argv: Vec<String> = [
                "/usr/bin/find",
                "/usr/src",
                "-name",
                "*.c",
                "-exec",
                "/usr/bin/grep",
                "-H",
                "mac_",
                "{}",
                ";",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let st = k.exec_at(child, None, &argv[0], &argv).unwrap_or(-1);
            k.exit(child, st);
            let _ = k.waitpid(user, child);
            let wall = t0.elapsed();
            Outcome {
                wall,
                profile: None,
                checked: count_matches(&k),
            }
        }
        Config::Sandboxed | Config::ShillVersion => {
            let mut k = scenario_kernel();
            workloads::source_tree(&mut k, scale);
            k.fs.put_file(
                "/tmp/matches.txt",
                b"",
                crate::vfs::Mode(0o666),
                crate::vfs::Uid::ROOT,
                crate::vfs::Gid::WHEEL,
            )
            .unwrap();
            let t0 = Instant::now();
            let mut rt = runtime_for(config, k, Cred::ROOT);
            match config {
                Config::Sandboxed => {
                    rt.add_script("task.cap", FIND_SANDBOXED_CAP);
                    rt.run("find-main", &find_ambient("find_sandboxed"))
                        .expect("find sandboxed");
                }
                _ => {
                    rt.add_script("find.cap", POLY_FIND_CAP);
                    rt.add_script("task.cap", FIND_SHILL_CAP);
                    rt.run("find-main", &find_ambient("find_fine"))
                        .expect("find fine");
                }
            }
            let wall = t0.elapsed();
            let checked = count_matches(rt.kernel());
            Outcome {
                wall,
                profile: Some(rt.profile()),
                checked,
            }
        }
    }
}

fn count_matches(k: &Kernel) -> u64 {
    match k.fs.resolve_abs("/tmp/matches.txt") {
        Ok(n) => {
            let data = k.fs.read(n, 0, usize::MAX >> 1).unwrap_or_default();
            data.iter().filter(|b| **b == b'\n').count() as u64
        }
        Err(_) => 0,
    }
}

/// Figure 5's polymorphic find, exported for reuse.
pub const POLY_FIND_CAP: &str = r#"#lang shill/cap

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

// =============================================================================
// Package management (§4.1 "Package Management")
// =============================================================================

/// The Emacs package manager: each function gets only the authority its
/// step needs — "only the function for downloading the source code can
/// access the network, and only the install function can write to the
/// intended installation directory".
pub const PACKAGE_CAP: &str = r#"#lang shill/cap
require shill/native;

provide download :
  {dest : dir(+create_file with {+read, +write, +append, +truncate, +path, +stat}),
   net : socket_factory(+sock_create, +sock_connect, +sock_send, +sock_recv),
   wallet : native_wallet} -> any;

provide unpack :
  {tarball : file(+read, +path, +stat),
   dest : dir(+contents, +lookup, +path, +stat, +create_file, +create_dir,
              +read, +write, +append, +truncate),
   wallet : native_wallet} -> any;

provide configure_pkg :
  {srcdir : dir(+contents, +lookup, +path, +stat, +create_file, +create_dir,
                +read, +write, +append, +truncate, +chdir),
   wallet : native_wallet} -> any;

provide make_pkg :
  {srcdir : dir(+contents, +lookup, +path, +stat, +create_file, +create_dir,
                +read, +write, +append, +truncate, +chdir),
   wallet : native_wallet} -> any;

provide install_pkg :
  {srcdir : dir(+contents, +lookup, +path, +stat, +read, +chdir, +write, +append,
                +create_file, +create_dir),
   prefix : dir(+contents, +lookup, +path, +stat,
                +create_dir with {+contents, +lookup, +path, +stat,
                                  +create_file, +create_dir, +write, +append,
                                  +truncate, +read}),
   wallet : native_wallet} -> any;

provide uninstall_pkg :
  {srcdir : dir(+contents, +lookup, +path, +stat, +read, +chdir, +write, +append,
                +create_file, +truncate),
   prefix : dir(+contents, +lookup, +path, +stat,
                +lookup with {+contents, +lookup, +path, +stat, +unlink_file}),
   wallet : native_wallet} -> any;

download = fun(dest, net, wallet) {
  tarball = create_file(dest, "emacs-24.tar");
  fetch = pkg_native("curl", wallet);
  fetch(["-o", tarball, "http://mirror.gnu.org/emacs-24.tar"], extras = [net])
};

unpack = fun(tarball, dest, wallet) {
  untar = pkg_native("tar", wallet);
  untar(["-xf", tarball, "-C", dest])
};

configure_pkg = fun(srcdir, wallet) {
  conf = pkg_native("configure", wallet);
  conf(["--prefix=/opt/emacs", "--srcdir=" ++ path(srcdir)], extras = [srcdir])
};

make_pkg = fun(srcdir, wallet) {
  make = pkg_native("gmake", wallet);
  make(["-C", srcdir, "all"])
};

install_pkg = fun(srcdir, prefix, wallet) {
  make = pkg_native("gmake", wallet);
  make(["-C", srcdir, "install"], extras = [prefix])
};

uninstall_pkg = fun(srcdir, prefix, wallet) {
  make = pkg_native("gmake", wallet);
  make(["-C", srcdir, "uninstall"], extras = [prefix])
}
"#;

/// Which package-manager step to run (the Figure 9 sub-benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmacsStep {
    Download,
    Untar,
    Configure,
    Make,
    Install,
    Uninstall,
    /// The whole pipeline (the "Emacs" column of Figure 9).
    Total,
}

impl EmacsStep {
    pub fn label(self) -> &'static str {
        match self {
            EmacsStep::Download => "Download",
            EmacsStep::Untar => "Untar",
            EmacsStep::Configure => "Configure",
            EmacsStep::Make => "Make",
            EmacsStep::Install => "Install",
            EmacsStep::Uninstall => "Uninstall",
            EmacsStep::Total => "Emacs",
        }
    }
}

/// Number of synthetic Emacs sources (compilation units).
pub const EMACS_SOURCES: usize = 40;
/// Bytes per synthetic source file.
pub const EMACS_SOURCE_LEN: usize = 2048;

/// Prepare a kernel with the mirror and any prerequisite steps' outputs.
fn emacs_prepare(k: &mut Kernel, upto: EmacsStep) {
    workloads::emacs_mirror(k, EMACS_SOURCES, EMACS_SOURCE_LEN);
    k.fs.mkdir_p(
        "/build",
        crate::vfs::Mode(0o777),
        crate::vfs::Uid::ROOT,
        crate::vfs::Gid::WHEEL,
    )
    .unwrap();
    k.fs.mkdir_p(
        "/opt/emacs",
        crate::vfs::Mode(0o777),
        crate::vfs::Uid::ROOT,
        crate::vfs::Gid::WHEEL,
    )
    .unwrap();
    let user = k.spawn_user(Cred::ROOT);
    let steps: &[EmacsStep] = match upto {
        EmacsStep::Download | EmacsStep::Total => &[],
        EmacsStep::Untar => &[EmacsStep::Download],
        EmacsStep::Configure => &[EmacsStep::Download, EmacsStep::Untar],
        EmacsStep::Make => &[EmacsStep::Download, EmacsStep::Untar, EmacsStep::Configure],
        EmacsStep::Install => &[
            EmacsStep::Download,
            EmacsStep::Untar,
            EmacsStep::Configure,
            EmacsStep::Make,
        ],
        EmacsStep::Uninstall => &[
            EmacsStep::Download,
            EmacsStep::Untar,
            EmacsStep::Configure,
            EmacsStep::Make,
            EmacsStep::Install,
        ],
    };
    for s in steps {
        let st = emacs_direct_step(k, user, *s);
        assert_eq!(st, 0, "prerequisite step {s:?} failed");
    }
}

/// Run one step directly (Baseline / Installed).
fn emacs_direct_step(k: &mut Kernel, user: Pid, step: EmacsStep) -> i32 {
    match step {
        EmacsStep::Download => direct_exec(
            k,
            user,
            &[
                "/usr/local/bin/curl",
                "-o",
                "/build/emacs-24.tar",
                "http://mirror.gnu.org/emacs-24.tar",
            ],
        ),
        EmacsStep::Untar => direct_exec(
            k,
            user,
            &["/usr/bin/tar", "-xf", "/build/emacs-24.tar", "-C", "/build"],
        ),
        EmacsStep::Configure => direct_exec(
            k,
            user,
            &[
                "/usr/local/bin/configure",
                "--prefix=/opt/emacs",
                "--srcdir=/build/emacs-24",
            ],
        ),
        EmacsStep::Make => direct_exec(
            k,
            user,
            &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "all"],
        ),
        EmacsStep::Install => direct_exec(
            k,
            user,
            &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "install"],
        ),
        EmacsStep::Uninstall => direct_exec(
            k,
            user,
            &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "uninstall"],
        ),
        EmacsStep::Total => {
            for s in [
                EmacsStep::Download,
                EmacsStep::Untar,
                EmacsStep::Configure,
                EmacsStep::Make,
                EmacsStep::Install,
                EmacsStep::Uninstall,
            ] {
                let st = emacs_direct_step(k, user, s);
                if st != 0 {
                    return st;
                }
            }
            0
        }
    }
}

/// Run one Emacs step (or the total pipeline) under a configuration.
pub fn run_emacs(config: Config, step: EmacsStep) -> Outcome {
    match config {
        Config::Baseline | Config::Installed => {
            let mut k = kernel_for(config);
            emacs_prepare(&mut k, step);
            let user = k.spawn_user(Cred::ROOT);
            let t0 = Instant::now();
            let st = emacs_direct_step(&mut k, user, step);
            let wall = t0.elapsed();
            assert_eq!(st, 0, "emacs step {step:?} failed");
            Outcome {
                wall,
                profile: None,
                checked: 1,
            }
        }
        Config::Sandboxed | Config::ShillVersion => {
            let mut k = scenario_kernel();
            emacs_prepare(&mut k, step);
            let t0 = Instant::now();
            let mut rt = runtime_for(config, k, Cred::ROOT);
            rt.add_script("package.cap", PACKAGE_CAP);
            // gmake resolves Makefile commands (cc, mkdir, install, rm) by
            // absolute path inside the sandbox, so they are registered as
            // wallet dependencies — the paper's mechanism for exactly this
            // (§3.1.4 "a map from known libraries to the file resources
            // those libraries depend on").
            let prologue = r#"#lang shill/ambient
require shill/native;
require "package.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/bin:/usr/bin:/bin:/usr/local/sbin", "/lib:/usr/local/lib", pipe_factory);
wallet_add_dep(wallet, "gmake", open_file("/usr/bin/cc"));
wallet_add_dep(wallet, "gmake", open_file("/bin/mkdir"));
wallet_add_dep(wallet, "gmake", open_file("/usr/bin/install"));
wallet_add_dep(wallet, "gmake", open_file("/bin/rm"));
wallet_add_dep(wallet, "gmake", open_file("/lib/libelf.so"));
builddir = open_dir("/build");
"#;
            let call = match step {
                EmacsStep::Download => "st = download(builddir, socket_factory, wallet);".to_string(),
                EmacsStep::Untar => {
                    "st = unpack(open_file(\"/build/emacs-24.tar\"), builddir, wallet);".to_string()
                }
                EmacsStep::Configure => {
                    "srcdir = open_dir(\"/build/emacs-24\");\nst = configure_pkg(srcdir, wallet);"
                        .to_string()
                }
                EmacsStep::Make => {
                    "srcdir = open_dir(\"/build/emacs-24\");\nst = make_pkg(srcdir, wallet);"
                        .to_string()
                }
                EmacsStep::Install => "srcdir = open_dir(\"/build/emacs-24\");\nprefix = open_dir(\"/opt/emacs\");\nst = install_pkg(srcdir, prefix, wallet);".to_string(),
                EmacsStep::Uninstall => "srcdir = open_dir(\"/build/emacs-24\");\nprefix = open_dir(\"/opt/emacs\");\nst = uninstall_pkg(srcdir, prefix, wallet);".to_string(),
                EmacsStep::Total => r#"st0 = download(builddir, socket_factory, wallet);
stu = unpack(open_file("/build/emacs-24.tar"), builddir, wallet);
srcdir = open_dir("/build/emacs-24");
prefix = open_dir("/opt/emacs");
stc = configure_pkg(srcdir, wallet);
stm = make_pkg(srcdir, wallet);
sti = install_pkg(srcdir, prefix, wallet);
stx = uninstall_pkg(srcdir, prefix, wallet);
st = st0 + stu + stc + stm + sti + stx;"#
                    .to_string(),
            };
            let script = format!("{prologue}{call}\nst");
            let v = rt.run("emacs-main", &script).expect("emacs step script");
            let wall = t0.elapsed();
            match v {
                Value::Num(0) => {}
                other => panic!("emacs step {step:?} returned {other:?}"),
            }
            Outcome {
                wall,
                profile: Some(rt.profile()),
                checked: 1,
            }
        }
    }
}

// =============================================================================
// Apache (§4.1 "Apache web server")
// =============================================================================

/// The 30-line capability-safe Apache launcher: read-only config and
/// content, append-only log, socket factory for the network.
pub const APACHE_CAP: &str = r#"#lang shill/cap
require shill/native;

provide serve :
  {content : dir(+contents, +lookup with {+read, +stat, +path},
                 +path, +stat, +read),
   conf : file(+read, +path, +stat),
   log : file(+append, +write, +path, +stat),
   net : socket_factory(+sock_create, +sock_bind, +sock_listen,
                        +sock_accept, +sock_send, +sock_recv),
   wallet : native_wallet} -> any;

serve = fun(content, conf, log, net, wallet) {
  httpd = pkg_native("apached", wallet);
  httpd(["-root", content, "-log", log, "-port", "8080"],
        extras = [net, conf])
}
"#;

/// Run the Apache scenario: preload `requests` clients for a `size`-byte
/// file, run the server, verify every response carried the full payload.
pub fn run_apache(config: Config, requests: usize, size: usize) -> Outcome {
    let prepare = |k: &mut Kernel| -> (Vec<crate::kernel::InjConnId>, SockAddr) {
        let w = workloads::web_workload(k, size);
        let addr = SockAddr::Inet {
            host: "0.0.0.0".into(),
            port: w.port,
        };
        let conns: Vec<_> = (0..requests)
            .map(|_| {
                k.net
                    .preload_connection(addr.clone(), format!("GET /{}", w.file_name).into_bytes())
            })
            .collect();
        (conns, addr)
    };
    let verify = |k: &mut Kernel, conns: Vec<crate::kernel::InjConnId>| -> u64 {
        let mut ok = 0;
        for c in conns {
            if let Ok((done, resp)) = k.net.take_response(c) {
                if done && resp.len() > size {
                    ok += 1;
                }
            }
        }
        ok
    };
    match config {
        Config::Baseline | Config::Installed => {
            let mut k = kernel_for(config);
            let (conns, _) = prepare(&mut k);
            let user = k.spawn_user(Cred::ROOT);
            let t0 = Instant::now();
            let st = direct_exec(
                &mut k,
                user,
                &[
                    "/usr/local/sbin/apached",
                    "-root",
                    "/var/www",
                    "-log",
                    "/var/log/httpd-access.log",
                    "-port",
                    "8080",
                ],
            );
            let wall = t0.elapsed();
            assert_eq!(st, 0);
            Outcome {
                wall,
                profile: None,
                checked: verify(&mut k, conns),
            }
        }
        Config::Sandboxed | Config::ShillVersion => {
            let mut k = scenario_kernel();
            let (conns, _) = prepare(&mut k);
            let t0 = Instant::now();
            let mut rt = runtime_for(Config::Sandboxed, k, Cred::ROOT);
            rt.add_script("apache.cap", APACHE_CAP);
            let v = rt
                .run(
                    "apache-main",
                    r#"#lang shill/ambient
require shill/native;
require "apache.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/sbin:/usr/bin:/bin", "/lib", pipe_factory);
content = open_dir("/var/www");
conf = open_file("/etc/apache/httpd.conf");
log = open_file("/var/log/httpd-access.log");
serve(content, conf, log, socket_factory, wallet)
"#,
                )
                .expect("apache script");
            let wall = t0.elapsed();
            assert!(matches!(v, Value::Num(0)), "apached exit: {v:?}");
            let checked = verify(rt.kernel(), conns);
            Outcome {
                wall,
                profile: Some(rt.profile()),
                checked,
            }
        }
    }
}
