//! Shared helpers for simulated binaries: every binary works exclusively
//! through system calls, so MAC checks fire exactly as they would for real
//! executables under the paper's kernel module. Whole-file operations use
//! the kernel's batched submission path — the fused open→read→close /
//! open→write→close entries run the identical per-operation MAC checks
//! with one ulimit charge and one MAC context per file.

use shill_kernel::{BatchArg, BatchEntry, BatchFd, BatchOut, Fd, Kernel, Pid, SyscallBatch};
use shill_vfs::{Errno, Mode, Stat, SysResult};

/// Read a whole file by path (fused open→read-to-EOF→close, one batch).
pub fn slurp(k: &mut Kernel, pid: Pid, path: &str) -> SysResult<Vec<u8>> {
    k.submit_single(
        pid,
        BatchEntry::ReadFile {
            dirfd: None,
            path: path.to_string(),
        },
    )?
    .into_data()
}

/// Read many files in ONE batched submission: one fused open→read→close
/// entry per name, each resolved relative to `dirfd` (the cwd when
/// `None`), with one charge and one MAC context for the sweep. Per-name
/// outcomes are preserved.
pub fn slurp_many(
    k: &mut Kernel,
    pid: Pid,
    dirfd: Option<Fd>,
    names: &[String],
) -> Vec<SysResult<Vec<u8>>> {
    let entries: Vec<BatchEntry> = names
        .iter()
        .map(|n| BatchEntry::ReadFile {
            dirfd: dirfd.map(BatchFd::Fd),
            path: n.clone(),
        })
        .collect();
    match k.submit_batch(pid, &SyscallBatch::new(entries)) {
        Ok(out) => out
            .into_iter()
            .map(|r| r.and_then(BatchOut::into_data))
            .collect(),
        Err(e) => names.iter().map(|_| Err(e)).collect(),
    }
}

/// Create/truncate a file by path and write contents (fused, one batch).
pub fn spit(k: &mut Kernel, pid: Pid, path: &str, data: &[u8], mode: Mode) -> SysResult<()> {
    k.submit_single(
        pid,
        BatchEntry::WriteFile {
            dirfd: None,
            path: path.to_string(),
            data: data.into(),
            mode,
            append: false,
        },
    )?;
    Ok(())
}

/// Which side of a [`copy_path`] failed (so `cp`-style binaries can blame
/// the right operand in their diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyErr {
    Src(Errno),
    Dst(Errno),
}

/// Copy a file by path as ONE fused-pipeline submission: a `ReadFile`
/// whose bytes flow to a `WriteFile` through a slot reference
/// (`BatchArg::OutputOf`), scheduled as two dependency waves. The data
/// never surfaces to the caller, and the copy pays one kernel crossing
/// instead of a `slurp` and a `spit`.
/// Returns bytes copied. Submission-level failures (nested batch, dead
/// process) are reported against the source operand.
pub fn copy_path(
    k: &mut Kernel,
    pid: Pid,
    src: &str,
    dst: &str,
    mode: Mode,
) -> Result<usize, CopyErr> {
    let batch = SyscallBatch::aborting(vec![
        BatchEntry::ReadFile {
            dirfd: None,
            path: src.to_string(),
        },
        BatchEntry::WriteFile {
            dirfd: None,
            path: dst.to_string(),
            data: BatchArg::OutputOf(0),
            mode,
            append: false,
        },
    ]);
    // The read payload stays in the kernel-to-write slot link and never
    // surfaces here.
    let mut out = k
        .submit_batch(pid, &batch)
        .map_err(CopyErr::Src)?
        .into_iter();
    match (out.next(), out.next()) {
        (Some(Err(e)), _) => Err(CopyErr::Src(e)),
        (_, Some(written)) => written
            .and_then(BatchOut::into_written)
            .map_err(CopyErr::Dst),
        _ => Err(CopyErr::Dst(Errno::EINVAL)),
    }
}

/// Append a line to a file by path (creating it if missing).
pub fn append_line(k: &mut Kernel, pid: Pid, path: &str, line: &str) -> SysResult<()> {
    let mut data = line.as_bytes().to_vec();
    data.push(b'\n');
    k.submit_single(
        pid,
        BatchEntry::WriteFile {
            dirfd: None,
            path: path.to_string(),
            data: data.into(),
            mode: Mode::FILE_DEFAULT,
            append: true,
        },
    )?;
    Ok(())
}

/// `lstat` a set of names in one batched submission, each resolved
/// relative to `dirfd` (the cwd when `None`): the readdir+fstatat sweep
/// `find` and `tar` perform per directory, as fts(3) does. Per-name
/// outcomes are preserved.
pub fn stat_sweep(
    k: &mut Kernel,
    pid: Pid,
    dirfd: Option<Fd>,
    names: &[String],
) -> Vec<SysResult<Stat>> {
    let entries: Vec<BatchEntry> = names
        .iter()
        .map(|n| BatchEntry::Stat {
            dirfd: dirfd.map(BatchFd::Fd),
            path: n.clone(),
            follow: false,
        })
        .collect();
    match k.submit_batch(pid, &SyscallBatch::new(entries)) {
        Ok(out) => out
            .into_iter()
            .map(|r| r.and_then(BatchOut::into_stat))
            .collect(),
        Err(e) => names.iter().map(|_| Err(e)).collect(),
    }
}

/// Write to the process's stdout descriptor; ignores EBADF so binaries can
/// run without wired stdio.
///
/// Uses the kernel's append path: descriptors duplicated across `fork` in
/// this simulator have *independent* offsets (a real kernel shares the open
/// file description), so positional writes from sibling children would
/// overwrite each other. Appending reproduces the observable shared-offset
/// behaviour for the `> file` redirections the scenarios use.
pub fn stdout(k: &mut Kernel, pid: Pid, data: &[u8]) {
    let _ = k.append_fd(pid, Fd::STDOUT, data);
}

/// Write a diagnostic to stderr.
pub fn stderr(k: &mut Kernel, pid: Pid, msg: &str) {
    let _ = k.append_fd(pid, Fd::STDERR, msg.as_bytes());
}

/// Glob match supporting a single `*` (enough for `-name "*.c"`).
pub fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.find('*') {
        None => pattern == name,
        Some(i) => {
            let (pre, post) = (&pattern[..i], &pattern[i + 1..]);
            name.len() >= pre.len() + post.len() && name.starts_with(pre) && name.ends_with(post)
        }
    }
}

/// Join a directory path and a name.
pub fn join(dir: &str, name: &str) -> String {
    if dir.ends_with('/') {
        format!("{dir}{name}")
    } else {
        format!("{dir}/{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_vfs::{Cred, Gid, Uid};

    #[test]
    fn glob() {
        assert!(glob_match("*.c", "main.c"));
        assert!(glob_match("*.c", ".c"));
        assert!(!glob_match("*.c", "main.h"));
        assert!(glob_match("main.*", "main.c"));
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("*.tar.gz", "x.gz"));
    }

    #[test]
    fn slurp_spit_roundtrip() {
        let mut k = Kernel::new();
        k.fs.mkdir_p("/d", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let pid = k.spawn_user(Cred::ROOT);
        spit(&mut k, pid, "/d/f", b"hello", Mode::FILE_DEFAULT).unwrap();
        assert_eq!(slurp(&mut k, pid, "/d/f").unwrap(), b"hello");
        append_line(&mut k, pid, "/d/f", "x").unwrap();
        assert_eq!(slurp(&mut k, pid, "/d/f").unwrap(), b"hellox\n");
    }
}
