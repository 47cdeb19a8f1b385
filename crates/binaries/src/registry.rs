//! Binary registry: registers every simulated executable with the kernel
//! and installs the corresponding `#!SIMBIN` files and shared libraries in
//! the filesystem.

use std::sync::Arc;

use shill_kernel::Kernel;
use shill_vfs::{Gid, Mode, Uid};

/// Install path and library dependencies for each binary.
pub struct BinSpec {
    pub name: &'static str,
    pub path: &'static str,
    pub needs: &'static [&'static str],
}

/// All simulated binaries, with realistic-ish install locations and
/// library dependency lists (read by the simulated `ldd` for
/// `pkg_native`).
pub const BINARIES: &[BinSpec] = &[
    BinSpec {
        name: "cat",
        path: "/bin/cat",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "echo",
        path: "/bin/echo",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "cp",
        path: "/bin/cp",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "rm",
        path: "/bin/rm",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "mkdir",
        path: "/bin/mkdir",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "grep",
        path: "/usr/bin/grep",
        needs: &["/lib/libc.so", "/lib/libregex.so"],
    },
    BinSpec {
        name: "find",
        path: "/usr/bin/find",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "diff",
        path: "/usr/bin/diff",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "wc",
        path: "/usr/bin/wc",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "install",
        path: "/usr/bin/install",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "tar",
        path: "/usr/bin/tar",
        needs: &["/lib/libc.so", "/lib/libarchive.so"],
    },
    BinSpec {
        name: "jpeginfo",
        path: "/usr/local/bin/jpeginfo",
        needs: &["/lib/libc.so", "/usr/local/lib/libjpeg.so"],
    },
    BinSpec {
        name: "cc",
        path: "/usr/bin/cc",
        needs: &["/lib/libc.so", "/lib/libelf.so"],
    },
    BinSpec {
        name: "gmake",
        path: "/usr/local/bin/gmake",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "configure",
        path: "/usr/local/bin/configure",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "ocamlc",
        path: "/usr/local/bin/ocamlc",
        needs: &["/lib/libc.so", "/lib/libm.so"],
    },
    BinSpec {
        name: "ocamlrun",
        path: "/usr/local/bin/ocamlrun",
        needs: &["/lib/libc.so", "/lib/libm.so"],
    },
    BinSpec {
        name: "ocamlyacc",
        path: "/usr/local/bin/ocamlyacc",
        needs: &["/lib/libc.so"],
    },
    BinSpec {
        name: "curl",
        path: "/usr/local/bin/curl",
        needs: &["/lib/libc.so", "/lib/libssl.so"],
    },
    BinSpec {
        name: "apached",
        path: "/usr/local/sbin/apached",
        needs: &["/lib/libc.so", "/lib/libssl.so", "/lib/libpcre.so"],
    },
    BinSpec {
        name: "grade-sh",
        path: "/usr/local/bin/grade-sh",
        needs: &["/lib/libc.so"],
    },
];

/// Shared libraries installed under `/lib` / `/usr/local/lib`.
pub const LIBRARIES: &[&str] = &[
    "/lib/libc.so",
    "/lib/libm.so",
    "/lib/libregex.so",
    "/lib/libarchive.so",
    "/lib/libelf.so",
    "/lib/libssl.so",
    "/lib/libpcre.so",
    "/usr/local/lib/libjpeg.so",
];

/// Register every handler and install every binary/library file. Idempotent.
pub fn install_all(k: &mut Kernel) {
    use crate::{build, coreutils, netbins};

    macro_rules! reg {
        ($name:expr, $f:path) => {
            k.register_exec(
                $name,
                Arc::new(|k: &mut Kernel, pid, argv: &[String]| $f(k, pid, argv)),
            );
        };
    }
    reg!("cat", coreutils::cat);
    reg!("echo", coreutils::echo);
    reg!("cp", coreutils::cp);
    reg!("rm", coreutils::rm);
    reg!("mkdir", coreutils::mkdir);
    reg!("grep", coreutils::grep);
    reg!("find", coreutils::find);
    reg!("diff", coreutils::diff);
    reg!("wc", coreutils::wc);
    reg!("install", coreutils::install);
    reg!("tar", coreutils::tar);
    reg!("jpeginfo", coreutils::jpeginfo);
    reg!("cc", build::cc);
    reg!("gmake", build::gmake);
    reg!("configure", build::configure);
    reg!("ocamlc", build::ocamlc);
    reg!("ocamlrun", build::ocamlrun);
    reg!("ocamlyacc", build::ocamlyacc);
    reg!("curl", netbins::curl);
    reg!("apached", netbins::apached);
    reg!("grade-sh", netbins::grade_sh);
    reg!("emacs", netbins::emacs);

    for lib in LIBRARIES {
        let content = format!("SHARED LIBRARY {lib}\n{}", "x".repeat(512));
        k.fs.put_file(lib, content.as_bytes(), Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .expect("install library");
    }
    for spec in BINARIES {
        let mut content = format!("#!SIMBIN {}\n", spec.name);
        for n in spec.needs {
            content.push_str(&format!("NEEDS {n}\n"));
        }
        k.fs.put_file(
            spec.path,
            content.as_bytes(),
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .expect("install binary");
    }
    // The OCaml standard library ocamlc insists on reading (§4.1).
    k.fs.put_file(
        "/usr/local/lib/ocaml/stdlib.cma",
        b"OCAML STDLIB\n",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .expect("install ocaml stdlib");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use shill_kernel::{Fd, MacCtx, MacPolicy, Pid, VnodeOp};
    use shill_vfs::{Cred, Errno, NodeId, SysResult};

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        install_all(&mut k);
        let pid = k.spawn_user(Cred::ROOT);
        (k, pid)
    }

    fn run(k: &mut Kernel, pid: Pid, argv: &[&str]) -> i32 {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let child = k.fork(pid).unwrap();
        let status = k.exec_at(child, None, &argv[0], &argv).unwrap();
        k.exit(child, status);
        k.waitpid(pid, child).unwrap()
    }

    /// Run with stdout captured into a pipe.
    fn run_capture(k: &mut Kernel, pid: Pid, argv: &[&str]) -> (i32, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let (r, w) = k.pipe(pid).unwrap();
        let child = k.fork(pid).unwrap();
        k.transfer_fd(pid, w, child, Fd::STDOUT).unwrap();
        let status = k.exec_at(child, None, &argv[0], &argv).unwrap();
        k.exit(child, status);
        let status = k.waitpid(pid, child).unwrap();
        k.close(pid, w).unwrap();
        let mut out = Vec::new();
        loop {
            match k.read(pid, r, 65536) {
                Ok(c) if c.is_empty() => break,
                Ok(c) => out.extend(c),
                Err(_) => break,
            }
        }
        (status, String::from_utf8_lossy(&out).into_owned())
    }

    #[test]
    fn cat_and_echo() {
        let (mut k, pid) = setup();
        k.fs.put_file("/data/a.txt", b"hello ", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        k.fs.put_file("/data/b.txt", b"world", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let (st, out) = run_capture(&mut k, pid, &["/bin/cat", "/data/a.txt", "/data/b.txt"]);
        assert_eq!(st, 0);
        assert_eq!(out, "hello world");
        let (st, out) = run_capture(&mut k, pid, &["/bin/echo", "hi", "there"]);
        assert_eq!(st, 0);
        assert_eq!(out, "hi there\n");
    }

    #[test]
    fn grep_matches_and_reports() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/src/a.c",
            b"int mac_check(void);\nint other;\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let (st, out) = run_capture(&mut k, pid, &["/usr/bin/grep", "-H", "mac_", "/src/a.c"]);
        assert_eq!(st, 0);
        assert_eq!(out, "/src/a.c:int mac_check(void);\n");
        let (st, out) = run_capture(&mut k, pid, &["/usr/bin/grep", "absent", "/src/a.c"]);
        assert_eq!(st, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn find_with_name_and_exec() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/src/x/a.c",
            b"mac_foo\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file(
            "/src/x/b.h",
            b"mac_bar\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file(
            "/src/y/c.c",
            b"nothing\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let (st, out) = run_capture(&mut k, pid, &["/usr/bin/find", "/src", "-name", "*.c"]);
        assert_eq!(st, 0);
        assert!(out.contains("/src/x/a.c"));
        assert!(!out.contains("b.h"));
        assert!(out.contains("/src/y/c.c"));
        // find -exec grep: only a.c matches the pattern.
        let (st, out) = run_capture(
            &mut k,
            pid,
            &[
                "/usr/bin/find",
                "/src",
                "-name",
                "*.c",
                "-exec",
                "/usr/bin/grep",
                "-H",
                "mac_",
                "{}",
                ";",
            ],
        );
        assert_eq!(st, 0);
        assert!(out.contains("/src/x/a.c:mac_foo"));
        assert!(!out.contains("c.c:"));
    }

    #[test]
    fn tar_roundtrip_via_binary() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/proj/src/main.c",
            b"int main;",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file("/proj/README", b"docs", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        k.fs.mkdir_p("/dest", Mode(0o755), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        assert_eq!(
            run(&mut k, pid, &["/usr/bin/tar", "-cf", "/tmp/p.tar", "/proj"]),
            0
        );
        assert_eq!(
            run(
                &mut k,
                pid,
                &["/usr/bin/tar", "-xf", "/tmp/p.tar", "-C", "/dest"]
            ),
            0
        );
        let n = k.fs.resolve_abs("/dest/src/main.c").unwrap();
        assert_eq!(k.fs.read(n, 0, 100).unwrap(), b"int main;");
    }

    #[test]
    fn find_and_tar_sweep_a_directory_through_its_descriptor() {
        let (mut k, pid) = setup();
        let dir = "/d1/d2/d3/d4/d5";
        for i in 0..8 {
            k.fs.put_file(
                &format!("{dir}/f{i}"),
                b"data",
                Mode(0o644),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        }
        let lookups = |k: &mut Kernel, argv: &[&str]| {
            let before = k.stats.snapshot().lookups;
            assert_eq!(run(k, pid, argv), 0, "{argv:?}");
            k.stats.snapshot().lookups - before
        };
        // The binary's path (3 components) and the directory's (5), then
        // one lookup per name resolved against the directory's descriptor.
        // Re-walking `dir/name` from `/` would cost 6 per name.
        assert_eq!(lookups(&mut k, &["/usr/bin/find", dir]), 3 + 5 + 8);
        // `tar -cf` stats and reads each name, then writes the archive
        // (2 components).
        assert_eq!(
            lookups(&mut k, &["/usr/bin/tar", "-cf", "/tmp/p.tar", dir]),
            3 + 5 + 2 * 8 + 2
        );
    }

    /// Denies listing one directory, so opening it succeeds and
    /// `readdirfd` on it fails.
    struct DenyReadDir(NodeId);

    impl MacPolicy for DenyReadDir {
        fn name(&self) -> &str {
            "deny-readdir"
        }

        fn vnode_check(&self, _ctx: MacCtx, node: NodeId, op: &VnodeOp<'_>) -> SysResult<()> {
            match op {
                VnodeOp::ReadDir if node == self.0 => Err(Errno::EACCES),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn tar_closes_its_directory_when_listing_fails() {
        let (mut k, pid) = setup();
        k.fs.put_file("/proj/sub/a.c", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let sub = k.fs.resolve_abs("/proj/sub").unwrap();
        k.register_policy(Arc::new(DenyReadDir(sub)));
        let open_before = k.process(pid).unwrap().fds.len();
        let argv = ["tar", "-cf", "/tmp/p.tar", "/proj"].map(String::from);
        assert_eq!(crate::coreutils::tar(&mut k, pid, &argv), 1);
        assert_eq!(k.process(pid).unwrap().fds.len(), open_before);
    }

    #[test]
    fn ocaml_toolchain_compiles_and_runs() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/work/main.ml",
            b"sum\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        assert_eq!(
            run(
                &mut k,
                pid,
                &[
                    "/usr/local/bin/ocamlc",
                    "/work/main.ml",
                    "-o",
                    "/work/main.bc"
                ]
            ),
            0
        );
        // Feed stdin via a pipe.
        let (r, w) = k.pipe(pid).unwrap();
        k.write(pid, w, b"3\n4\n5\n").unwrap();
        k.close(pid, w).unwrap();
        let child = k.fork(pid).unwrap();
        k.transfer_fd(pid, r, child, Fd::STDIN).unwrap();
        let (orx, otx) = k.pipe(pid).unwrap();
        k.transfer_fd(pid, otx, child, Fd::STDOUT).unwrap();
        let st = k
            .exec_at(
                child,
                None,
                "/usr/local/bin/ocamlrun",
                &["ocamlrun".into(), "/work/main.bc".into()],
            )
            .unwrap();
        k.exit(child, st);
        k.waitpid(pid, child).unwrap();
        k.close(pid, otx).unwrap();
        assert_eq!(st, 0);
        let out = k.read(pid, orx, 100).unwrap();
        assert_eq!(out, b"12\n");
    }

    #[test]
    fn ocamlc_rejects_syntax_errors() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/work/bad.ml",
            b"sum\nsyntax-error\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        assert_eq!(
            run(
                &mut k,
                pid,
                &[
                    "/usr/local/bin/ocamlc",
                    "/work/bad.ml",
                    "-o",
                    "/work/bad.bc"
                ]
            ),
            2
        );
    }

    #[test]
    fn configure_gmake_build_install_uninstall() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/build/emacs/src/alloc.c",
            b"alloc",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file(
            "/build/emacs/src/lisp.c",
            b"lisp",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        assert_eq!(
            run(
                &mut k,
                pid,
                &[
                    "/usr/local/bin/configure",
                    "--prefix=/opt/emacs",
                    "--srcdir=/build/emacs",
                ]
            ),
            0
        );
        assert!(k.fs.resolve_abs("/build/emacs/Makefile").is_ok());
        assert_eq!(
            run(
                &mut k,
                pid,
                &["/usr/local/bin/gmake", "-C", "/build/emacs", "all"]
            ),
            0
        );
        assert!(k.fs.resolve_abs("/build/emacs/emacs").is_ok());
        assert_eq!(
            run(
                &mut k,
                pid,
                &["/usr/local/bin/gmake", "-C", "/build/emacs", "install"]
            ),
            0
        );
        assert!(k.fs.resolve_abs("/opt/emacs/bin/emacs").is_ok());
        // The installed binary runs.
        let (st, out) = run_capture(&mut k, pid, &["/opt/emacs/bin/emacs"]);
        assert_eq!(st, 0);
        assert!(out.contains("GNU Emacs"));
        assert_eq!(
            run(
                &mut k,
                pid,
                &["/usr/local/bin/gmake", "-C", "/build/emacs", "uninstall"]
            ),
            0
        );
        assert!(k.fs.resolve_abs("/opt/emacs/bin/emacs").is_err());
    }

    #[test]
    fn curl_downloads_from_remote() {
        let (mut k, pid) = setup();
        let addr = shill_kernel::SockAddr::Inet {
            host: "mirror.gnu.org".into(),
            port: 80,
        };
        k.net.register_remote(
            addr,
            Box::new(|req| {
                assert!(req.starts_with(b"GET /emacs.tar"));
                b"TARBALLBYTES".to_vec()
            }),
        );
        assert_eq!(
            run(
                &mut k,
                pid,
                &[
                    "/usr/local/bin/curl",
                    "-o",
                    "/tmp/emacs.tar",
                    "http://mirror.gnu.org/emacs.tar",
                ]
            ),
            0
        );
        let n = k.fs.resolve_abs("/tmp/emacs.tar").unwrap();
        assert_eq!(k.fs.read(n, 0, 100).unwrap(), b"TARBALLBYTES");
    }

    #[test]
    fn apached_serves_preloaded_connections() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/var/www/index.html",
            b"<html>hi</html>",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.mkdir_p("/var/log", Mode(0o755), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        // The driver plays the clients first: preload connections, then run
        // the server; they land in its accept queue at listen time.
        let addr = shill_kernel::SockAddr::Inet {
            host: "0.0.0.0".into(),
            port: 8080,
        };
        let c1 = k
            .net
            .preload_connection(addr.clone(), b"GET /index.html".to_vec());
        let c2 = k.net.preload_connection(addr, b"GET /missing".to_vec());
        let st = run(
            &mut k,
            pid,
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
        assert_eq!(st, 0);
        let (done1, resp1) = k.net.take_response(c1).unwrap();
        assert!(done1);
        let resp1 = String::from_utf8_lossy(&resp1).into_owned();
        assert!(resp1.starts_with("HTTP/1.0 200 OK"), "{resp1}");
        assert!(resp1.contains("<html>hi</html>"));
        let (_, resp2) = k.net.take_response(c2).unwrap();
        assert!(String::from_utf8_lossy(&resp2).starts_with("HTTP/1.0 404"));
        // Access log has both requests.
        let log = k.fs.resolve_abs("/var/log/httpd-access.log").unwrap();
        let log = String::from_utf8(k.fs.read(log, 0, 4096).unwrap()).unwrap();
        assert!(log.contains("GET /index.html 200"));
        assert!(log.contains("GET /missing 404"));
    }

    #[test]
    fn grade_sh_end_to_end() {
        let (mut k, pid) = setup();
        // Two students: one correct (sum), one wrong.
        k.fs.put_file(
            "/course/submissions/alice/main.ml",
            b"sum\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file(
            "/course/submissions/bob/main.ml",
            b"print 0\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file(
            "/course/tests/input1",
            b"1\n2\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file(
            "/course/tests/expected1",
            b"3\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.mkdir_p("/course/work", Mode(0o777), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        k.fs.mkdir_p("/course/grades", Mode(0o777), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let st = run(
            &mut k,
            pid,
            &[
                "/usr/local/bin/grade-sh",
                "/course/submissions",
                "/course/tests",
                "/course/work",
                "/course/grades",
            ],
        );
        assert_eq!(st, 0);
        let a = k.fs.resolve_abs("/course/grades/alice.grade").unwrap();
        assert_eq!(k.fs.read(a, 0, 100).unwrap(), b"score 1/1\n");
        let b = k.fs.resolve_abs("/course/grades/bob.grade").unwrap();
        assert_eq!(k.fs.read(b, 0, 100).unwrap(), b"score 0/1\n");
    }
}
