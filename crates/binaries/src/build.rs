//! The build toolchain: `cc`, `configure`, `gmake`, and the OCaml tools
//! (`ocamlc`, `ocamlrun`, `ocamlyacc`) used by the grading case study.
//!
//! The OCaml tools reproduce two incidents from §4.1: `ocamlc` reads
//! `/usr/local/lib/ocaml` (the missing-wallet-dependency bug) and
//! `ocamlyacc` writes scratch files in `/tmp` (the missing `/tmp`
//! capability bug).

use shill_kernel::{Fd, Kernel, OpenFlags, Pid};
use shill_vfs::Mode;

use crate::util::{join, slurp, spit, stderr, stdout};

/// Where `gmake` looks for programs named in Makefile commands.
const GMAKE_PATH: &[&str] = &["/usr/local/bin", "/usr/bin", "/bin"];

/// A tiny checksum loop standing in for compilation work.
fn crunch(data: &[u8], rounds: u32) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for _ in 0..rounds {
        for b in data {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// `cc -c SRC -o OUT` / `cc -o OUT OBJ...` — "compile" and "link".
pub fn cc(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    if argv.get(1).map(String::as_str) == Some("-c") {
        let (Some(src), Some(out)) = (argv.get(2), argv.get(4)) else {
            return 64;
        };
        let data = match slurp(k, pid, src) {
            Ok(d) => d,
            Err(e) => {
                stderr(k, pid, &format!("cc: {src}: {e}\n"));
                return 1;
            }
        };
        let h = crunch(&data, 4);
        let obj = format!("OBJ {h:016x} {}\n", src);
        match spit(k, pid, out, obj.as_bytes(), Mode::FILE_DEFAULT) {
            Ok(()) => 0,
            Err(e) => {
                stderr(k, pid, &format!("cc: {out}: {e}\n"));
                1
            }
        }
    } else if argv.get(1).map(String::as_str) == Some("-o") {
        let Some(out) = argv.get(2) else { return 64 };
        let mut image = b"#!SIMBIN emacs\n".to_vec();
        for obj in &argv[3..] {
            match slurp(k, pid, obj) {
                Ok(d) => image.extend(d),
                Err(e) => {
                    stderr(k, pid, &format!("cc: {obj}: {e}\n"));
                    return 1;
                }
            }
        }
        match spit(k, pid, out, &image, Mode(0o755)) {
            Ok(()) => 0,
            Err(_) => 1,
        }
    } else {
        64
    }
}

/// `configure --prefix=P [--srcdir=D]` — scan the source tree, write
/// `config.status` and a `Makefile` with compile/link/install/uninstall
/// targets (run from the source directory; gmake chdirs there).
pub fn configure(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let mut prefix = "/usr/local".to_string();
    let mut srcdir = ".".to_string();
    for a in &argv[1..] {
        if let Some(p) = a.strip_prefix("--prefix=") {
            prefix = p.to_string();
        }
        if let Some(d) = a.strip_prefix("--srcdir=") {
            srcdir = d.to_string();
        }
    }
    let src = join(&srcdir, "src");
    let dfd = match k.open(pid, &src, OpenFlags::dir(), Mode(0)) {
        Ok(fd) => fd,
        Err(e) => {
            stderr(k, pid, &format!("configure: {src}: {e}\n"));
            return 1;
        }
    };
    let names = match k.readdirfd(pid, dfd) {
        Ok(n) => n,
        Err(_) => return 1,
    };
    let _ = k.close(pid, dfd);
    // Probe each source file (configure reads headers/sources).
    let mut cfiles = Vec::new();
    for n in &names {
        if n.ends_with(".c") {
            let p = join(&src, n);
            if slurp(k, pid, &p).is_ok() {
                cfiles.push(n.clone());
            }
        }
    }
    if cfiles.is_empty() {
        stderr(k, pid, "configure: no sources found\n");
        return 1;
    }
    let mut mk = String::new();
    mk.push_str("all:\n");
    mk.push_str(&format!(
        "\tmkdir -p {}/obj\n",
        srcdir.trim_end_matches('/')
    ));
    let mut objs = Vec::new();
    for c in &cfiles {
        let stem = c.trim_end_matches(".c");
        let obj = format!("{srcdir}/obj/{stem}.o");
        mk.push_str(&format!("\tcc -c {src}/{c} -o {obj}\n"));
        objs.push(obj);
    }
    mk.push_str(&format!("\tcc -o {srcdir}/emacs {}\n", objs.join(" ")));
    mk.push_str("install:\n");
    mk.push_str(&format!("\tmkdir -p {prefix}/bin\n"));
    mk.push_str(&format!("\tinstall {srcdir}/emacs {prefix}/bin/emacs\n"));
    mk.push_str("uninstall:\n");
    mk.push_str(&format!("\trm {prefix}/bin/emacs\n"));
    let makefile = join(&srcdir, "Makefile");
    if spit(k, pid, &makefile, mk.as_bytes(), Mode::FILE_DEFAULT).is_err() {
        return 1;
    }
    if spit(
        k,
        pid,
        &join(&srcdir, "config.status"),
        b"configured\n",
        Mode::FILE_DEFAULT,
    )
    .is_err()
    {
        return 1;
    }
    stdout(
        k,
        pid,
        format!("configured {} sources, prefix {prefix}\n", cfiles.len()).as_bytes(),
    );
    0
}

/// Resolve a program name along the fixed gmake PATH.
fn resolve_prog(k: &mut Kernel, pid: Pid, name: &str) -> Option<String> {
    if name.starts_with('/') {
        return Some(name.to_string());
    }
    for dir in GMAKE_PATH {
        let p = format!("{dir}/{name}");
        if k.fstatat(pid, None, &p, true).is_ok() {
            return Some(p);
        }
    }
    None
}

/// `gmake [-C DIR] [TARGET]` — run the commands of a Makefile target,
/// forking one child per command (each joins the caller's session).
pub fn gmake(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let mut dir: Option<String> = None;
    let mut target = "all".to_string();
    let mut i = 1;
    while i < argv.len() {
        if argv[i] == "-C" {
            dir = argv.get(i + 1).cloned();
            i += 2;
        } else {
            target = argv[i].clone();
            i += 1;
        }
    }
    if let Some(d) = &dir {
        if let Err(e) = k.chdir(pid, d) {
            stderr(k, pid, &format!("gmake: cannot chdir {d}: {e}\n"));
            return 2;
        }
    }
    let makefile = match slurp(k, pid, "Makefile") {
        Ok(d) => String::from_utf8_lossy(&d).into_owned(),
        Err(e) => {
            stderr(k, pid, &format!("gmake: Makefile: {e}\n"));
            return 2;
        }
    };
    // Parse: `target:` lines introduce rules; tab-indented lines are
    // commands.
    let mut current: Option<String> = None;
    let mut commands = Vec::new();
    for line in makefile.lines() {
        if let Some(cmd) = line.strip_prefix('\t') {
            if current.as_deref() == Some(target.as_str()) {
                commands.push(cmd.to_string());
            }
        } else if let Some(t) = line.strip_suffix(':') {
            current = Some(t.trim().to_string());
        }
    }
    if commands.is_empty() {
        stderr(k, pid, &format!("gmake: no rule for target {target}\n"));
        return 2;
    }
    for cmd in commands {
        let parts: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        if parts.is_empty() {
            continue;
        }
        let Some(prog) = resolve_prog(k, pid, &parts[0]) else {
            stderr(k, pid, &format!("gmake: {}: command not found\n", parts[0]));
            return 127;
        };
        let child = match k.fork(pid) {
            Ok(c) => c,
            Err(_) => return 2,
        };
        let status = k.exec_at(child, None, &prog, &parts).unwrap_or(127);
        k.exit(child, status);
        let status = match k.waitpid(pid, child) {
            Ok(s) => s,
            Err(e) => {
                stderr(k, pid, &format!("gmake: wait: {e}\n"));
                return 2;
            }
        };
        if status != 0 {
            stderr(k, pid, &format!("gmake: *** [{cmd}] error {status}\n"));
            return status;
        }
    }
    0
}

// --- the OCaml toolchain -------------------------------------------------------

/// Valid "OCaml" source operations for the grading assignment.
fn valid_op(line: &str) -> bool {
    let line = line.trim();
    line.is_empty()
        || line == "sum"
        || line == "double"
        || line.starts_with("print ")
        || line.starts_with("readfile ")
        || line.starts_with("writefile ")
        || line.starts_with('#')
}

/// `ocamlc SRC -o OUT` — "compile" to bytecode. Reads the stdlib from
/// `/usr/local/lib/ocaml` (the §4.1 missing-dependency path!) and rejects
/// sources containing invalid operations.
pub fn ocamlc(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let (Some(src), Some(out)) = (argv.get(1), argv.get(3)) else {
        return 64;
    };
    // The stdlib read that surprised the paper's authors:
    if slurp(k, pid, "/usr/local/lib/ocaml/stdlib.cma").is_err() {
        stderr(
            k,
            pid,
            "ocamlc: cannot read /usr/local/lib/ocaml/stdlib.cma\n",
        );
        return 2;
    }
    let data = match slurp(k, pid, src) {
        Ok(d) => d,
        Err(e) => {
            stderr(k, pid, &format!("ocamlc: {src}: {e}\n"));
            return 2;
        }
    };
    let text = String::from_utf8_lossy(&data);
    for (i, line) in text.lines().enumerate() {
        if !valid_op(line) {
            stderr(k, pid, &format!("ocamlc: {src}:{}: syntax error\n", i + 1));
            return 2;
        }
    }
    let _ = crunch(&data, 8);
    let mut bc = b"OCAMLBC\n".to_vec();
    bc.extend_from_slice(&data);
    match spit(k, pid, out, &bc, Mode(0o755)) {
        Ok(()) => 0,
        Err(e) => {
            stderr(k, pid, &format!("ocamlc: {out}: {e}\n"));
            2
        }
    }
}

/// `ocamlyacc GRAMMAR` — writes a scratch file in `/tmp` (the §4.1 bug).
pub fn ocamlyacc(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let scratch = format!("/tmp/ocamlyacc.{}", pid.0);
    if spit(k, pid, &scratch, b"tables\n", Mode::FILE_DEFAULT).is_err() {
        stderr(k, pid, "ocamlyacc: cannot write /tmp\n");
        return 2;
    }
    let _ = argv;
    let _ = k.unlinkat(pid, None, &scratch, false);
    0
}

/// `ocamlrun BC` — execute bytecode: `sum` adds integers from stdin,
/// `double` doubles one integer, `print X` prints, `readfile`/`writefile`
/// attempt filesystem access (the malicious-submission vector).
pub fn ocamlrun(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let Some(bc_path) = argv.get(1) else {
        return 64;
    };
    let data = match slurp(k, pid, bc_path) {
        Ok(d) => d,
        Err(e) => {
            stderr(k, pid, &format!("ocamlrun: {bc_path}: {e}\n"));
            return 2;
        }
    };
    let text = String::from_utf8_lossy(&data);
    let Some(body) = text.strip_prefix("OCAMLBC\n") else {
        stderr(k, pid, "ocamlrun: not bytecode\n");
        return 2;
    };
    // stdin: drain the descriptor.
    let mut input = Vec::new();
    loop {
        match k.read(pid, Fd::STDIN, 4096) {
            Ok(chunk) if chunk.is_empty() => break,
            Ok(chunk) => input.extend(chunk),
            Err(_) => break,
        }
    }
    let nums: Vec<i64> = String::from_utf8_lossy(&input)
        .lines()
        .filter_map(|l| l.trim().parse().ok())
        .collect();
    for line in body.lines() {
        let line = line.trim();
        if line == "sum" {
            let s: i64 = nums.iter().sum();
            stdout(k, pid, format!("{s}\n").as_bytes());
        } else if line == "double" {
            let d = nums.first().copied().unwrap_or(0) * 2;
            stdout(k, pid, format!("{d}\n").as_bytes());
        } else if let Some(msg) = line.strip_prefix("print ") {
            stdout(k, pid, format!("{msg}\n").as_bytes());
        } else if let Some(path) = line.strip_prefix("readfile ") {
            match slurp(k, pid, path) {
                Ok(d) => stdout(k, pid, &d),
                Err(e) => stderr(k, pid, &format!("ocamlrun: readfile {path}: {e}\n")),
            }
        } else if let Some(rest) = line.strip_prefix("writefile ") {
            let mut it = rest.splitn(2, ' ');
            let path = it.next().unwrap_or("");
            let content = it.next().unwrap_or("");
            if let Err(e) = spit(k, pid, path, content.as_bytes(), Mode::FILE_DEFAULT) {
                stderr(k, pid, &format!("ocamlrun: writefile {path}: {e}\n"));
            }
        }
    }
    0
}
