//! Network binaries: `curl` (the Emacs `download` step) and `apached` (the
//! Apache case study's server).

use shill_kernel::{Kernel, OpenFlags, Pid, SockAddr, SockDomain};
use shill_vfs::Mode;

use crate::util::{append_line, join, spit, stderr, stdout};

/// Parse `http://host:port/path`.
fn parse_url(url: &str) -> Option<(String, u16, String)> {
    let rest = url.strip_prefix("http://")?;
    let (hostport, path) = match rest.find('/') {
        Some(i) => (&rest[..i], rest[i..].to_string()),
        None => (rest, "/".to_string()),
    };
    let (host, port) = match hostport.find(':') {
        Some(i) => (hostport[..i].to_string(), hostport[i + 1..].parse().ok()?),
        None => (hostport.to_string(), 80),
    };
    Some((host, port, path))
}

/// `curl -o OUT URL` — fetch a resource from a (simulated) remote host.
pub fn curl(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let mut out: Option<String> = None;
    let mut url: Option<String> = None;
    let mut i = 1;
    while i < argv.len() {
        if argv[i] == "-o" {
            out = argv.get(i + 1).cloned();
            i += 2;
        } else {
            url = Some(argv[i].clone());
            i += 1;
        }
    }
    let (Some(out), Some(url)) = (out, url) else {
        stderr(k, pid, "usage: curl -o OUT URL\n");
        return 64;
    };
    let Some((host, port, path)) = parse_url(&url) else {
        stderr(k, pid, &format!("curl: bad url {url}\n"));
        return 3;
    };
    let sock = match k.socket(pid, SockDomain::Inet) {
        Ok(fd) => fd,
        Err(e) => {
            stderr(k, pid, &format!("curl: socket: {e}\n"));
            return 7;
        }
    };
    if let Err(e) = k.connect(
        pid,
        sock,
        SockAddr::Inet {
            host: host.clone(),
            port,
        },
    ) {
        stderr(k, pid, &format!("curl: connect {host}:{port}: {e}\n"));
        return 7;
    }
    if let Err(e) = k.write(pid, sock, format!("GET {path}").as_bytes()) {
        stderr(k, pid, &format!("curl: send: {e}\n"));
        return 56;
    }
    let mut body = Vec::new();
    loop {
        match k.read(pid, sock, 65536) {
            Ok(chunk) if chunk.is_empty() => break,
            Ok(chunk) => body.extend(chunk),
            Err(e) => {
                stderr(k, pid, &format!("curl: recv: {e}\n"));
                return 56;
            }
        }
    }
    let _ = k.close(pid, sock);
    match spit(k, pid, &out, &body, Mode::FILE_DEFAULT) {
        Ok(()) => {
            stdout(k, pid, format!("fetched {} bytes\n", body.len()).as_bytes());
            0
        }
        Err(e) => {
            stderr(k, pid, &format!("curl: {out}: {e}\n"));
            23
        }
    }
}

/// `apached -root DIR -log FILE -port N -count M` — serve up to `M` queued
/// connections: parse `GET /path`, stream the file from the content root,
/// append an access-log line. The benchmark driver injects client
/// connections into the listener before running the server (execution is
/// synchronous; see `shill-kernel::net`).
pub fn apached(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let mut root = "/var/www".to_string();
    let mut log = "/var/log/httpd-access.log".to_string();
    let mut port = 8080u16;
    let mut count = usize::MAX;
    let mut i = 1;
    while i + 1 < argv.len() {
        match argv[i].as_str() {
            "-root" => root = argv[i + 1].clone(),
            "-log" => log = argv[i + 1].clone(),
            "-port" => port = argv[i + 1].parse().unwrap_or(8080),
            "-count" => count = argv[i + 1].parse().unwrap_or(usize::MAX),
            _ => {}
        }
        i += 2;
    }
    let lsock = match k.socket(pid, SockDomain::Inet) {
        Ok(fd) => fd,
        Err(e) => {
            stderr(k, pid, &format!("apached: socket: {e}\n"));
            return 1;
        }
    };
    let addr = SockAddr::Inet {
        host: "0.0.0.0".into(),
        port,
    };
    if let Err(e) = k.bind(pid, lsock, addr).and_then(|()| k.listen(pid, lsock)) {
        stderr(k, pid, &format!("apached: bind/listen: {e}\n"));
        return 1;
    }
    let mut served = 0usize;
    while served < count {
        let conn = match k.accept(pid, lsock) {
            Ok(c) => c,
            Err(shill_vfs::Errno::EAGAIN) => break, // queue drained
            Err(e) => {
                stderr(k, pid, &format!("apached: accept: {e}\n"));
                return 1;
            }
        };
        served += 1;
        let mut req = Vec::new();
        loop {
            match k.read(pid, conn, 4096) {
                Ok(chunk) if chunk.is_empty() => break,
                Ok(chunk) => req.extend(chunk),
                Err(_) => break,
            }
        }
        let req = String::from_utf8_lossy(&req).into_owned();
        let path = req
            .strip_prefix("GET ")
            .map(|r| r.split_whitespace().next().unwrap_or("/").to_string())
            .unwrap_or_else(|| "/".to_string());
        let full = join(&root, path.trim_start_matches('/'));
        match k.open(pid, &full, OpenFlags::RDONLY, Mode(0)) {
            Ok(fd) => {
                let _ = k.write(pid, conn, b"HTTP/1.0 200 OK\n\n");
                let mut off = 0u64;
                loop {
                    match k.pread(pid, fd, off, 65536) {
                        Ok(chunk) if chunk.is_empty() => break,
                        Ok(chunk) => {
                            off += chunk.len() as u64;
                            if k.write(pid, conn, &chunk).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                let _ = k.close(pid, fd);
                let _ = append_line(k, pid, &log, &format!("GET {path} 200 {off}"));
            }
            Err(_) => {
                let _ = k.write(pid, conn, b"HTTP/1.0 404 Not Found\n\n");
                let _ = append_line(k, pid, &log, &format!("GET {path} 404 0"));
            }
        }
        k.close(pid, conn).ok();
    }
    let _ = k.close(pid, lsock);
    stdout(k, pid, format!("served {served} requests\n").as_bytes());
    0
}

/// `grade-sh SUBMISSIONS TESTS WORK OUT` — the 61-line Bash grading script
/// of §4.1, as one native program: for each student, compile with `ocamlc`,
/// run against each test with `ocamlrun`, diff against expected output, and
/// record a grade file. Runs entirely inside ONE sandbox (the coarse
/// configuration); the pure-SHILL version lives in `examples/grading.rs`.
pub fn grade_sh(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let (Some(subs), Some(tests), Some(work), Some(outdir)) =
        (argv.get(1), argv.get(2), argv.get(3), argv.get(4))
    else {
        stderr(k, pid, "usage: grade-sh SUBMISSIONS TESTS WORK OUT\n");
        return 64;
    };
    let sfd = match k.open(pid, subs, OpenFlags::dir(), Mode(0)) {
        Ok(fd) => fd,
        Err(e) => {
            stderr(k, pid, &format!("grade-sh: {subs}: {e}\n"));
            return 1;
        }
    };
    let students = match k.readdirfd(pid, sfd) {
        Ok(s) => s,
        Err(_) => return 1,
    };
    let _ = k.close(pid, sfd);
    // Collect test ids from TESTS: pairs inputN / expectedN.
    let tfd = match k.open(pid, tests, OpenFlags::dir(), Mode(0)) {
        Ok(fd) => fd,
        Err(e) => {
            stderr(k, pid, &format!("grade-sh: {tests}: {e}\n"));
            return 1;
        }
    };
    let tnames = k.readdirfd(pid, tfd).unwrap_or_default();
    let _ = k.close(pid, tfd);
    let mut cases: Vec<String> = tnames
        .iter()
        .filter_map(|n| n.strip_prefix("input").map(String::from))
        .collect();
    cases.sort();

    for student in &students {
        let src = join(&join(subs, student), "main.ml");
        let bc = join(work, &format!("{student}.bc"));
        // Compile.
        let child = match k.fork(pid) {
            Ok(c) => c,
            Err(_) => return 1,
        };
        let st = k
            .exec_at(
                child,
                None,
                "/usr/local/bin/ocamlc",
                &["ocamlc".into(), src.clone(), "-o".into(), bc.clone()],
            )
            .unwrap_or(127);
        k.exit(child, st);
        let Ok(st) = k.waitpid(pid, child) else {
            return 1;
        };
        let gradefile = join(outdir, &format!("{student}.grade"));
        if st != 0 {
            let _ = spit(
                k,
                pid,
                &gradefile,
                b"score 0 (compile error)\n",
                Mode::FILE_DEFAULT,
            );
            continue;
        }
        // Run each test.
        let mut passed = 0usize;
        for case in &cases {
            let input = join(tests, &format!("input{case}"));
            let expected = join(tests, &format!("expected{case}"));
            let outfile = join(work, &format!("{student}.out{case}"));
            // ocamlrun with stdin from the input file and stdout to outfile.
            let child = match k.fork(pid) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let setup = (|| -> Result<(), shill_vfs::Errno> {
                let infd = k.open(child, &input, OpenFlags::RDONLY, Mode(0))?;
                k.transfer_fd(child, infd, child, shill_kernel::Fd::STDIN)?;
                k.close(child, infd)?;
                let outfd = k.open(
                    child,
                    &outfile,
                    OpenFlags::creat_trunc_w(),
                    Mode::FILE_DEFAULT,
                )?;
                k.transfer_fd(child, outfd, child, shill_kernel::Fd::STDOUT)?;
                k.close(child, outfd)?;
                Ok(())
            })();
            let st = if setup.is_ok() {
                k.exec_at(
                    child,
                    None,
                    "/usr/local/bin/ocamlrun",
                    &["ocamlrun".into(), bc.clone()],
                )
                .unwrap_or(127)
            } else {
                126
            };
            k.exit(child, st);
            let Ok(st) = k.waitpid(pid, child) else {
                return 1;
            };
            if st != 0 {
                continue;
            }
            // diff out vs expected.
            let child = match k.fork(pid) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let st = k
                .exec_at(
                    child,
                    None,
                    "/usr/bin/diff",
                    &["diff".into(), outfile.clone(), expected.clone()],
                )
                .unwrap_or(2);
            k.exit(child, st);
            let Ok(st) = k.waitpid(pid, child) else {
                return 1;
            };
            if st == 0 {
                passed += 1;
            }
        }
        let line = format!("score {passed}/{}\n", cases.len());
        let _ = spit(k, pid, &gradefile, line.as_bytes(), Mode::FILE_DEFAULT);
    }
    0
}

/// The built `emacs` binary (what the package-manager case study installs):
/// prints a version banner.
pub fn emacs(k: &mut Kernel, pid: Pid, _argv: &[String]) -> i32 {
    stdout(k, pid, b"GNU Emacs 24.simulated\n");
    0
}
