//! Core utilities: `cat`, `echo`, `cp`, `grep`, `find`, `diff`, `rm`,
//! `mkdir`, `install`, `tar`, `jpeginfo`.
//!
//! Each is implemented as a plain function over the syscall interface; the
//! registry in [`crate::registry`] exposes them as `#!SIMBIN` executables.

use shill_kernel::{Kernel, OpenFlags, Pid};
use shill_vfs::Mode;

use crate::tar::{pack, unpack, Entry};
use crate::util::{
    copy_path, glob_match, join, slurp, slurp_many, spit, stat_sweep, stderr, stdout, CopyErr,
};

/// `cat FILE...` — concatenate files to stdout.
pub fn cat(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let mut status = 0;
    for path in &argv[1..] {
        match slurp(k, pid, path) {
            Ok(data) => stdout(k, pid, &data),
            Err(e) => {
                stderr(k, pid, &format!("cat: {path}: {e}\n"));
                status = 1;
            }
        }
    }
    status
}

/// `echo ARGS...` — print arguments.
pub fn echo(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let line = argv[1..].join(" ");
    stdout(k, pid, line.as_bytes());
    stdout(k, pid, b"\n");
    0
}

/// `cp SRC DST` — one fused-pipeline submission: the read's bytes flow to
/// the write through a slot reference instead of surfacing here between
/// two submissions.
pub fn cp(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    if argv.len() != 3 {
        stderr(k, pid, "usage: cp SRC DST\n");
        return 64;
    }
    match copy_path(k, pid, &argv[1], &argv[2], Mode::FILE_DEFAULT) {
        Ok(_) => 0,
        Err(CopyErr::Src(e)) => {
            stderr(k, pid, &format!("cp: {}: {e}\n", argv[1]));
            1
        }
        Err(CopyErr::Dst(e)) => {
            stderr(k, pid, &format!("cp: {}: {e}\n", argv[2]));
            1
        }
    }
}

/// `grep [-H] PATTERN FILE...` — fixed-string search, printing matching
/// lines (with `-H`, prefixed by the filename).
pub fn grep(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let mut args = argv[1..].iter();
    let mut with_name = false;
    let mut pattern = None;
    let mut files = Vec::new();
    for a in args.by_ref() {
        if a == "-H" {
            with_name = true;
        } else if pattern.is_none() {
            pattern = Some(a.clone());
        } else {
            files.push(a.clone());
        }
    }
    let Some(pattern) = pattern else {
        stderr(k, pid, "usage: grep [-H] PATTERN FILE...\n");
        return 64;
    };
    let mut matched = false;
    let mut status_err = false;
    for f in &files {
        match slurp(k, pid, f) {
            Ok(data) => {
                let text = String::from_utf8_lossy(&data);
                for line in text.lines() {
                    if line.contains(&pattern) {
                        matched = true;
                        let out = if with_name {
                            format!("{f}:{line}\n")
                        } else {
                            format!("{line}\n")
                        };
                        stdout(k, pid, out.as_bytes());
                    }
                }
            }
            Err(e) => {
                stderr(k, pid, &format!("grep: {f}: {e}\n"));
                status_err = true;
            }
        }
    }
    if status_err {
        2
    } else if matched {
        0
    } else {
        1
    }
}

/// `find DIR [-name GLOB] [-exec PROG ARGS... {} ;]` — recursive traversal,
/// printing matches or spawning `PROG` per match (fork + exec, so children
/// join the caller's sandbox session).
pub fn find(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    if argv.len() < 2 {
        stderr(
            k,
            pid,
            "usage: find DIR [-name GLOB] [-exec PROG ARGS {} ;]\n",
        );
        return 64;
    }
    let root = argv[1].clone();
    let mut name_glob: Option<String> = None;
    let mut exec_cmd: Option<Vec<String>> = None;
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "-name" => {
                name_glob = argv.get(i + 1).cloned();
                i += 2;
            }
            "-exec" => {
                let mut cmd = Vec::new();
                i += 1;
                while i < argv.len() && argv[i] != ";" {
                    cmd.push(argv[i].clone());
                    i += 1;
                }
                i += 1;
                exec_cmd = Some(cmd);
            }
            _ => i += 1,
        }
    }
    let mut status = 0;
    let mut stack = vec![root];
    // Iterative DFS; directories are listed via open+readdir so every
    // component and entry goes through MAC checks.
    while let Some(dir) = stack.pop() {
        let dfd = match k.open(pid, &dir, OpenFlags::dir(), Mode(0)) {
            Ok(fd) => fd,
            Err(e) => {
                stderr(k, pid, &format!("find: {dir}: {e}\n"));
                status = 1;
                continue;
            }
        };
        let names = match k.readdirfd(pid, dfd) {
            Ok(n) => n,
            Err(e) => {
                let _ = k.close(pid, dfd);
                stderr(k, pid, &format!("find: {dir}: {e}\n"));
                status = 1;
                continue;
            }
        };
        // One batched stat sweep per directory, each name resolved against
        // the directory's descriptor: one lookup per entry, as fts(3) does.
        // The descriptor closes before the per-entry loop, so `-exec`
        // children do not inherit it.
        let stats = stat_sweep(k, pid, Some(dfd), &names);
        let _ = k.close(pid, dfd);
        // Reverse so traversal order matches a recursive implementation.
        for (name, st) in names.into_iter().zip(stats).rev() {
            let st = match st {
                Ok(st) => st,
                Err(_) => continue,
            };
            let path = join(&dir, &name);
            if st.ftype.is_dir() {
                stack.push(path);
                continue;
            }
            let matches = name_glob
                .as_deref()
                .map(|g| glob_match(g, &name))
                .unwrap_or(true);
            if !matches {
                continue;
            }
            match &exec_cmd {
                None => stdout(k, pid, format!("{path}\n").as_bytes()),
                Some(cmd) => {
                    let child_argv: Vec<String> = cmd
                        .iter()
                        .map(|a| if a == "{}" { path.clone() } else { a.clone() })
                        .collect();
                    if child_argv.is_empty() {
                        continue;
                    }
                    match k.fork(pid) {
                        Ok(child) => {
                            let st = k
                                .exec_at(child, None, &child_argv[0], &child_argv)
                                .unwrap_or(127);
                            k.exit(child, st);
                            if !matches!(k.waitpid(pid, child), Ok(0 | 1)) {
                                status = 1;
                            }
                        }
                        Err(_) => status = 1,
                    }
                }
            }
        }
    }
    status
}

/// `diff A B` — exit 0 if byte-identical, 1 otherwise.
pub fn diff(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    if argv.len() != 3 {
        return 64;
    }
    let a = slurp(k, pid, &argv[1]);
    let b = slurp(k, pid, &argv[2]);
    match (a, b) {
        (Ok(a), Ok(b)) => {
            if a == b {
                0
            } else {
                stdout(
                    k,
                    pid,
                    format!("files {} and {} differ\n", argv[1], argv[2]).as_bytes(),
                );
                1
            }
        }
        _ => 2,
    }
}

/// `rm [-r] PATH...`.
pub fn rm(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let recursive = argv.iter().any(|a| a == "-r");
    let mut status = 0;
    for path in argv[1..].iter().filter(|a| *a != "-r") {
        if rm_one(k, pid, path, recursive).is_err() {
            stderr(k, pid, &format!("rm: {path}: failed\n"));
            status = 1;
        }
    }
    status
}

fn rm_one(k: &mut Kernel, pid: Pid, path: &str, recursive: bool) -> Result<(), shill_vfs::Errno> {
    let st = k.fstatat(pid, None, path, false)?;
    if st.ftype.is_dir() {
        if !recursive {
            return Err(shill_vfs::Errno::EISDIR);
        }
        let dfd = k.open(pid, path, OpenFlags::dir(), Mode(0))?;
        let names = k.readdirfd(pid, dfd)?;
        k.close(pid, dfd)?;
        for name in names {
            rm_one(k, pid, &join(path, &name), true)?;
        }
        k.unlinkat(pid, None, path, true)
    } else {
        k.unlinkat(pid, None, path, false)
    }
}

/// `mkdir [-p] PATH`.
pub fn mkdir(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let parents = argv.iter().any(|a| a == "-p");
    let mut status = 0;
    for path in argv[1..].iter().filter(|a| *a != "-p") {
        if parents {
            // Create each prefix, ignoring EEXIST.
            let mut prefix = String::new();
            for comp in path.split('/').filter(|c| !c.is_empty()) {
                prefix.push('/');
                prefix.push_str(comp);
                match k.mkdirat(pid, None, &prefix, Mode::DIR_DEFAULT) {
                    Ok(fd) => {
                        let _ = k.close(pid, fd);
                    }
                    Err(shill_vfs::Errno::EEXIST) => {}
                    Err(_) => {
                        status = 1;
                        break;
                    }
                }
            }
        } else {
            match k.mkdirat(pid, None, path, Mode::DIR_DEFAULT) {
                Ok(fd) => {
                    let _ = k.close(pid, fd);
                }
                Err(_) => status = 1,
            }
        }
    }
    status
}

/// `install SRC DST` — copy with exec mode (fused pipeline, like `cp`).
pub fn install(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    if argv.len() != 3 {
        return 64;
    }
    match copy_path(k, pid, &argv[1], &argv[2], Mode(0o755)) {
        Ok(_) => 0,
        Err(CopyErr::Src(e)) | Err(CopyErr::Dst(e)) => {
            stderr(k, pid, &format!("install: {e}\n"));
            1
        }
    }
}

/// `tar -cf ARCHIVE DIR` / `tar -xf ARCHIVE -C DESTDIR`.
pub fn tar(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    match argv.get(1).map(String::as_str) {
        Some("-cf") => {
            let (Some(archive), Some(dir)) = (argv.get(2), argv.get(3)) else {
                return 64;
            };
            let mut entries = Vec::new();
            if tar_collect(k, pid, dir, "", &mut entries).is_err() {
                return 1;
            }
            match spit(k, pid, archive, &pack(&entries), Mode::FILE_DEFAULT) {
                Ok(()) => 0,
                Err(_) => 1,
            }
        }
        Some("-xf") => {
            let Some(archive) = argv.get(2) else {
                return 64;
            };
            let dest = match (argv.get(3).map(String::as_str), argv.get(4)) {
                (Some("-C"), Some(d)) => d.clone(),
                _ => ".".to_string(),
            };
            let bytes = match slurp(k, pid, archive) {
                Ok(b) => b,
                Err(e) => {
                    stderr(k, pid, &format!("tar: {archive}: {e}\n"));
                    return 1;
                }
            };
            let Some(entries) = unpack(&bytes) else {
                stderr(k, pid, "tar: malformed archive\n");
                return 1;
            };
            for e in entries {
                let r = match e {
                    Entry::Dir { path } => {
                        match k.mkdirat(pid, None, &join(&dest, &path), Mode::DIR_DEFAULT) {
                            Ok(fd) => {
                                let _ = k.close(pid, fd);
                                Ok(())
                            }
                            Err(shill_vfs::Errno::EEXIST) => Ok(()),
                            Err(e) => Err(e),
                        }
                    }
                    Entry::File { path, data, mode } => {
                        spit(k, pid, &join(&dest, &path), &data, Mode(mode))
                    }
                };
                if let Err(e) = r {
                    stderr(k, pid, &format!("tar: extract failed: {e}\n"));
                    return 1;
                }
            }
            0
        }
        _ => 64,
    }
}

fn tar_collect(
    k: &mut Kernel,
    pid: Pid,
    root: &str,
    rel: &str,
    out: &mut Vec<Entry>,
) -> Result<(), shill_vfs::Errno> {
    let full = if rel.is_empty() {
        root.to_string()
    } else {
        join(root, rel)
    };
    let dfd = k.open(pid, &full, OpenFlags::dir(), Mode(0))?;
    let names = match k.readdirfd(pid, dfd) {
        Ok(names) => names,
        Err(e) => {
            let _ = k.close(pid, dfd);
            return Err(e);
        }
    };
    // One batched stat sweep for the directory, then one batched read
    // sweep over its regular files, each name resolved against `dfd` —
    // per-directory submissions instead of per-name ones. Archive order is
    // unchanged (names in readdir order, depth first).
    let stats = stat_sweep(k, pid, Some(dfd), &names);
    // Stats are swept per directory in one submission (like `find`), so a
    // denied name may log denials for its siblings too, where the old
    // per-name loop stopped at the first — a deliberate batching tradeoff.
    // Reads stay conservative: a stat failure aborts the pack at that
    // entry, so only files *before* the first failure are read — no reads
    // the sequential form would never have performed within this
    // directory.
    let first_err = stats
        .iter()
        .position(|st| st.is_err())
        .unwrap_or(stats.len());
    let files: Vec<String> = stats[..first_err]
        .iter()
        .zip(&names)
        .filter(|(st, _)| st.as_ref().map(|s| s.ftype.is_regular()).unwrap_or(false))
        .map(|(_, n)| n.clone())
        .collect();
    let mut file_data = slurp_many(k, pid, Some(dfd), &files).into_iter();
    // Closed before recursing, so descriptors do not pile up with depth.
    k.close(pid, dfd)?;
    for (name, st) in names.into_iter().zip(stats) {
        let r = if rel.is_empty() {
            name
        } else {
            join(rel, &name)
        };
        let st = st?;
        if st.ftype.is_dir() {
            out.push(Entry::Dir { path: r.clone() });
            tar_collect(k, pid, root, &r, out)?;
        } else if st.ftype.is_regular() {
            let data = file_data.next().unwrap_or(Err(shill_vfs::Errno::EINVAL))?;
            out.push(Entry::File {
                path: r,
                data,
                mode: st.mode.bits(),
            });
        }
    }
    Ok(())
}

/// `jpeginfo [-i] FILE...` — report size info per file (Figure 4/6 demo).
pub fn jpeginfo(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    let mut status = 0;
    for path in argv[1..].iter().filter(|a| !a.starts_with('-')) {
        match slurp(k, pid, path) {
            Ok(data) => {
                stdout(k, pid, format!("{path}: {} bytes\n", data.len()).as_bytes());
            }
            Err(e) => {
                stderr(k, pid, &format!("jpeginfo: {path}: {e}\n"));
                status = 1;
            }
        }
    }
    status
}

/// `wc -l FILE` — line count (used by grading to sanity-check outputs).
pub fn wc(k: &mut Kernel, pid: Pid, argv: &[String]) -> i32 {
    for path in argv[1..].iter().filter(|a| !a.starts_with('-')) {
        match slurp(k, pid, path) {
            Ok(data) => {
                let n = data.iter().filter(|b| **b == b'\n').count();
                stdout(k, pid, format!("{n} {path}\n").as_bytes());
            }
            Err(_) => return 1,
        }
    }
    0
}
