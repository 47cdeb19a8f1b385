//! Batch-aware I/O for the SHILL runtime.
//!
//! The language builtins are "wrappers for the corresponding system calls"
//! (§2.1); the naive wrappers issue one kernel call per operation, so a
//! `read` of a large file or a `contents`+`stat` sweep pays the per-call
//! charging and MAC-context cost once per chunk or per name. Each
//! batchable builtin — `read`, `write`, `copy_file`, `dir_stats`,
//! `slurp_many` — instead builds one batch and submits it through
//! [`shill_kernel::Kernel::submit_batch`]. The operation stays observably
//! equivalent to the sequential wrappers (same per-chunk MAC
//! interposition, same errnos) with one kernel crossing per window, and a
//! copy fuses into single submissions via slot references
//! (`BatchArg::OutputOf`).
//!
//! Byte-level paths remain only for what a batch cannot express: pipes,
//! sockets and devices (the checked raw paths on [`GuardedCap`]), and
//! self-copies ([`cap_copy`]).
//!
//! Capability discipline is unchanged: each operation performs its
//! contract-guard checks ([`GuardedCap::check`]) before touching a
//! descriptor, and the kernel still runs every DAC/MAC check per
//! underlying operation.

use shill_cap::{CapKind, Priv};
use shill_contracts::{CapError, CapResult, GuardedCap};
use shill_kernel::{BatchArg, BatchEntry, BatchOut, Fd, Kernel, Pid, SyscallBatch};
use shill_vfs::{Errno, SysResult};

/// Chunk size used by vectored reads/writes (matches the sequential
/// wrappers' 64 KiB chunking).
const CHUNK: usize = 65536;
/// Chunks per submitted window: one kernel crossing charges for up to this
/// many chunk reads.
const WINDOW: usize = 16;

/// Map a fused batch's failures back to the first real cause errno.
///
/// Within one scheduled batch a failed entry cancels its dependency cone:
/// the cone's slots complete with `ECANCELED`, an artifact of scheduling,
/// not a fault a sequential script could ever see. Resolving an operation
/// by scanning its slots must therefore prefer the lowest-slot
/// *non*-`ECANCELED` errno — the root cause — and fall back to
/// `ECANCELED` only when every failed slot is a cone artifact (the cause
/// lies outside the batch).
pub fn first_cause(errs: impl IntoIterator<Item = (usize, Errno)>) -> Option<Errno> {
    let mut cause: Option<(usize, Errno)> = None;
    let mut cone: Option<(usize, Errno)> = None;
    for (slot, e) in errs {
        let best = if e == Errno::ECANCELED {
            &mut cone
        } else {
            &mut cause
        };
        if best.is_none_or(|(s, _)| slot < s) {
            *best = Some((slot, e));
        }
    }
    cause.or(cone).map(|(_, e)| e)
}

/// The first cause among a submission's failed slots.
fn batch_cause(out: &[SysResult<BatchOut>]) -> Option<Errno> {
    first_cause(
        out.iter()
            .enumerate()
            .filter_map(|(slot, r)| r.as_ref().err().map(|e| (slot, *e))),
    )
}

/// One full window of positional reads from `offset`.
fn window(fd: Fd, offset: u64) -> BatchEntry {
    BatchEntry::Preadv {
        fd: fd.into(),
        offset,
        lens: vec![CHUNK; WINDOW],
    }
}

/// Read a regular file to EOF from `off` (positional; does not disturb
/// the descriptor offset), submitting one batch per 1 MiB window instead of
/// one call per 64 KiB chunk.
pub fn read_from_fd(k: &mut Kernel, pid: Pid, fd: Fd, off: u64) -> SysResult<Vec<u8>> {
    let first = k.submit_single(pid, window(fd, off))?.into_data()?;
    read_on(k, pid, fd, off, first)
}

/// Continue a read whose window from `off` returned `data`: the identical
/// windows [`read_from_fd`] submits, until one comes back short.
fn read_on(
    k: &mut Kernel,
    pid: Pid,
    fd: Fd,
    mut off: u64,
    mut data: Vec<u8>,
) -> SysResult<Vec<u8>> {
    let mut n = data.len();
    while n == CHUNK * WINDOW {
        off += n as u64;
        let more = k.submit_single(pid, window(fd, off))?.into_data()?;
        n = more.len();
        data.extend(more);
    }
    Ok(data)
}

/// The descriptor of a capability whose reads and writes can take the
/// batched path: a regular file with a live descriptor. Pipes, sockets,
/// and devices keep the sequential wrappers (their drain/EAGAIN semantics
/// differ).
fn batchable_file(cap: &GuardedCap) -> Option<Fd> {
    if cap.kind() == CapKind::File {
        cap.raw.fd()
    } else {
        None
    }
}

/// `read`: guard-checked, then batched by window for regular files,
/// through the sequential wrapper otherwise.
pub fn cap_read_all(k: &mut Kernel, pid: Pid, cap: &GuardedCap) -> CapResult<Vec<u8>> {
    cap.check(Priv::Read)?;
    match batchable_file(cap) {
        Some(fd) => Ok(read_from_fd(k, pid, fd, 0)?),
        None => Ok(cap.raw.read_all(k, pid)?),
    }
}

/// `write`: truncate + positional write in one submission, the write
/// ordered after the truncate, so a denied truncate cancels it. Pipes,
/// sockets and devices go through the checked raw path.
pub(crate) fn cap_write(
    k: &mut Kernel,
    pid: Pid,
    cap: &GuardedCap,
    data: Vec<u8>,
) -> CapResult<()> {
    cap.check(Priv::Write)?;
    let Some(fd) = batchable_file(cap) else {
        return Ok(cap.raw.write_all(k, pid, &data)?);
    };
    let batch = SyscallBatch::aborting(vec![
        BatchEntry::Ftruncate {
            fd: fd.into(),
            len: 0,
        },
        BatchEntry::Pwrite {
            fd: fd.into(),
            offset: 0,
            data: data.into(),
        },
    ])
    .after(1, 0);
    match batch_cause(&k.submit_batch(pid, &batch)?) {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// `copy_file`: the windowed copy pipeline. The first 1 MiB window is
/// `Preadv(src) → Ftruncate(dst) → Pwrite(dst, OutputOf(read))`, the
/// read's bytes flowing to the write through the slot reference, and the
/// truncate ordered after the read so a denied read leaves the
/// destination untouched; each later window is a read and a write. Returns
/// the bytes copied.
///
/// A self-copy (same vnode, via any alias or hard link) declines the
/// pipeline, because its first-window truncate would cut off source bytes
/// beyond the window before they were read, and so does a copy between a
/// file and a pipe, socket or device. Those read the whole source, then
/// write it as `write` does.
pub fn cap_copy(k: &mut Kernel, pid: Pid, src: &GuardedCap, dst: &GuardedCap) -> CapResult<usize> {
    src.check(Priv::Read)?;
    dst.check(Priv::Write)?;
    match (batchable_file(src), batchable_file(dst)) {
        (Some(sfd), Some(dfd)) if src.raw.node.is_none() || src.raw.node != dst.raw.node => {
            Ok(copy_windows(k, pid, sfd, dfd)?)
        }
        _ => {
            let data = cap_read_all(k, pid, src)?;
            let n = data.len();
            cap_write(k, pid, dst, data).map(|()| n)
        }
    }
}

/// The windowed copy from `sfd` to `dfd`: one submission per window until
/// a window comes back short. Returns the destination length.
fn copy_windows(k: &mut Kernel, pid: Pid, sfd: Fd, dfd: Fd) -> SysResult<usize> {
    let write = |offset| BatchEntry::Pwrite {
        fd: dfd.into(),
        offset,
        data: BatchArg::OutputOf(0),
    };
    let mut batch = SyscallBatch::aborting(vec![
        window(sfd, 0),
        BatchEntry::Ftruncate {
            fd: dfd.into(),
            len: 0,
        },
        write(0),
    ])
    .after(1, 0)
    .after(2, 1);
    let mut off = 0;
    loop {
        let mut out = k.submit_batch(pid, &batch)?;
        if let Some(e) = batch_cause(&out) {
            return Err(e);
        }
        let n = out.swap_remove(0)?.into_data()?.len();
        off += n;
        if n < CHUNK * WINDOW {
            return Ok(off);
        }
        batch = SyscallBatch::aborting(vec![window(sfd, off as u64), write(off as u64)]);
    }
}

/// `dir_stats`: the `contents` + `lookup` + `stat` loop as one readdir
/// plus one sweep of `fstatat`s relative to the directory's descriptor.
/// Returns `(name, size)` pairs in directory order; names whose stat
/// failed (vanished, denied) are skipped, like `find`.
///
/// It grants no more than the loop: the directory's guards must allow
/// +contents, +lookup and +stat, and the guards `lookup` derives for a
/// child must allow +stat.
pub(crate) fn dir_stats(
    k: &mut Kernel,
    pid: Pid,
    dir: &GuardedCap,
) -> CapResult<Vec<(String, u64)>> {
    dir.check(Priv::Contents)?;
    dir.check(Priv::Lookup)?;
    dir.check(Priv::Stat)?;
    dir.check_derived(Priv::Lookup, Priv::Stat)?;
    let fd = dir.raw.fd().ok_or(Errno::EBADF)?;
    let names = k.readdirfd(pid, fd)?;
    let stats = names
        .iter()
        .map(|name| BatchEntry::Stat {
            dirfd: Some(fd.into()),
            path: name.clone(),
            follow: false,
        })
        .collect();
    let out = k.submit_batch(pid, &SyscallBatch::new(stats))?;
    Ok(names
        .into_iter()
        .zip(out)
        .filter_map(|(name, r)| Some((name, r.and_then(BatchOut::into_stat).ok()?.size)))
        .collect())
}

/// `slurp_many`: one `Preadv` window per file, all in one submission,
/// each read continued past a full window as [`read_from_fd`] continues
/// it. Each element is independently the file's bytes or its errno. A
/// pipe, socket or device among `caps` sends every read through
/// [`cap_read_all`] instead.
pub(crate) fn slurp_many(
    k: &mut Kernel,
    pid: Pid,
    caps: &[GuardedCap],
) -> CapResult<Vec<SysResult<Vec<u8>>>> {
    for c in caps {
        c.check(Priv::Read)?;
    }
    let Some(fds) = caps.iter().map(batchable_file).collect::<Option<Vec<Fd>>>() else {
        return caps
            .iter()
            .map(|c| match cap_read_all(k, pid, c) {
                Ok(data) => Ok(Ok(data)),
                Err(CapError::Sys(e)) => Ok(Err(e)),
                Err(v) => Err(v),
            })
            .collect();
    };
    let reads = fds.iter().map(|&fd| window(fd, 0)).collect();
    let out = k.submit_batch(pid, &SyscallBatch::new(reads))?;
    Ok(fds
        .into_iter()
        .zip(out)
        .map(|(fd, r)| read_on(k, pid, fd, 0, r?.into_data()?))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_cap::RawCap;
    use shill_vfs::{Cred, Gid, Mode, Uid};

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        k.fs.put_file(
            "/home/u/big.bin",
            &vec![7u8; 200_000],
            Mode(0o644),
            Uid(100),
            Gid(100),
        )
        .unwrap();
        k.fs.put_file("/home/u/a.txt", b"alpha", Mode(0o644), Uid(100), Gid(100))
            .unwrap();
        k.fs.put_file("/home/u/b.txt", b"bb", Mode(0o644), Uid(100), Gid(100))
            .unwrap();
        let pid = k.spawn_user(Cred::user(100));
        (k, pid)
    }

    #[test]
    fn batched_read_matches_sequential() {
        let (mut k, pid) = setup();
        let cap = RawCap::open_path(&mut k, pid, "/home/u/big.bin").unwrap();
        let gc = GuardedCap::unguarded(cap);
        let batched = cap_read_all(&mut k, pid, &gc).unwrap();
        let sequential = gc.raw.read_all(&mut k, pid).unwrap();
        assert_eq!(batched, sequential);
        assert_eq!(batched.len(), 200_000);
    }

    #[test]
    fn batched_write_roundtrip_and_copy() {
        let (mut k, pid) = setup();
        let a = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/a.txt").unwrap());
        let b = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/b.txt").unwrap());
        let v = cap_write(&mut k, pid, &a, b"rewritten".to_vec());
        assert!(matches!(v, Ok(())), "{v:?}");
        assert_eq!(cap_read_all(&mut k, pid, &a).unwrap(), b"rewritten");
        let n = cap_copy(&mut k, pid, &a, &b);
        assert!(matches!(n, Ok(9)), "{n:?}");
        assert_eq!(cap_read_all(&mut k, pid, &b).unwrap(), b"rewritten");
    }

    #[test]
    fn fused_copy_is_one_submission_per_window() {
        let (mut k, pid) = setup();
        let src = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/big.bin").unwrap());
        k.fs.put_file("/home/u/dst.bin", b"", Mode(0o644), Uid(100), Gid(100))
            .unwrap();
        let dst = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/dst.bin").unwrap());
        k.stats.reset();
        let n = cap_copy(&mut k, pid, &src, &dst);
        assert!(matches!(n, Ok(200_000)), "{n:?}");
        let st = k.stats.snapshot();
        // 200,000 bytes fit in one 1 MiB window: read + truncate + write
        // fused into a single submission, data flowing via a slot link.
        assert_eq!(st.batches, 1, "one submission for the whole copy");
        assert_eq!(st.slot_links, 1, "read data flowed to the write in-batch");
        assert!(st.sched_waves >= 2, "the pipeline ran as dependency waves");
        assert_eq!(cap_read_all(&mut k, pid, &dst).unwrap(), vec![7u8; 200_000]);
    }

    #[test]
    fn self_copy_larger_than_one_window_is_lossless() {
        // Regression: the windowed pipeline's first-window truncate must
        // not destroy unread source bytes when src and dst alias the same
        // vnode (copy_file("/p/big", "/p/big")).
        let (mut k, pid) = setup();
        let payload: Vec<u8> = (0..(CHUNK * WINDOW + 300_000))
            .map(|i| (i % 251) as u8)
            .collect();
        k.fs.put_file(
            "/home/u/self.bin",
            &payload,
            Mode(0o644),
            Uid(100),
            Gid(100),
        )
        .unwrap();
        let a = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/self.bin").unwrap());
        let b = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/self.bin").unwrap());
        let n = cap_copy(&mut k, pid, &a, &b).unwrap();
        assert_eq!(n, payload.len());
        assert_eq!(cap_read_all(&mut k, pid, &a).unwrap(), payload);
    }

    #[test]
    fn dir_stats_sweep_is_batched() {
        let (mut k, pid) = setup();
        let dir = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u").unwrap());
        k.stats.reset();
        let pairs = dir_stats(&mut k, pid, &dir).unwrap();
        assert_eq!(pairs.len(), 3);
        let sizes: Vec<u64> = pairs.iter().map(|(_, size)| *size).collect();
        assert!(sizes.contains(&5) && sizes.contains(&2) && sizes.contains(&200_000));
        let st = k.stats.snapshot();
        assert_eq!(st.batches, 1, "one batch for the whole stat sweep");
        // readdir (1 sequential charge) + one batch charge.
        assert_eq!(st.charge_calls, 2);
    }

    #[test]
    fn first_cause_prefers_real_errnos_over_the_cancellation_cone() {
        // Regression: resolving a batch's failures must not report the
        // cone artifact even when it is encountered first —
        // whether because the cone slot is numerically lower or because it
        // executed earlier.
        assert_eq!(
            first_cause([(2, Errno::ECANCELED), (5, Errno::EIO)]),
            Some(Errno::EIO)
        );
        assert_eq!(
            first_cause([(7, Errno::EIO), (1, Errno::ENOSPC)]),
            Some(Errno::ENOSPC),
            "lowest failing slot is the cause, not discovery order"
        );
        assert_eq!(
            first_cause([(3, Errno::ECANCELED)]),
            Some(Errno::ECANCELED),
            "an all-cone batch has nothing better to report"
        );
        assert_eq!(first_cause([]), None);
    }

    #[test]
    fn copy_surfaces_the_cause_errno_not_the_cone() {
        use shill_kernel::{FaultPlane, FaultSite};
        let (mut k, pid) = setup();
        let src = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/big.bin").unwrap());
        k.fs.put_file("/home/u/dst.bin", b"", Mode(0o644), Uid(100), Gid(100))
            .unwrap();
        let dst = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/dst.bin").unwrap());
        // Fail the second batch entry to execute — the truncate — so the
        // dependent write completes as a cancellation-cone ECANCELED. The
        // copy must surface the truncate's EIO, not the artifact.
        k.set_fault_plane(Some(FaultPlane::seeded(1, 0, &[]).fail_on(
            FaultSite::Batch,
            2,
            Errno::EIO,
        )));
        match cap_copy(&mut k, pid, &src, &dst) {
            Err(CapError::Sys(e)) => assert_eq!(e, Errno::EIO, "cause errno, not ECANCELED"),
            other => panic!("expected the injected EIO, got {other:?}"),
        }
        let st = k.stats_snapshot();
        assert_eq!(st.faults_injected, 1);
        assert!(st.sched_cancelled_cone >= 1, "the write was cone-cancelled");
    }

    #[test]
    fn guard_violation_blocks_before_any_syscall() {
        let (mut k, pid) = setup();
        let raw = RawCap::open_path(&mut k, pid, "/home/u/a.txt").unwrap();
        let sealed = GuardedCap::unguarded(raw).restrict(
            std::sync::Arc::new(shill_cap::CapPrivs::of(shill_cap::PrivSet::of(&[
                Priv::Stat,
            ]))),
            shill_contracts::Blame::new("t", "t", "file(+stat)"),
        );
        assert!(matches!(
            cap_read_all(&mut k, pid, &sealed),
            Err(CapError::Violation(_))
        ));
        assert!(matches!(
            cap_copy(&mut k, pid, &sealed, &sealed),
            Err(CapError::Violation(_))
        ));
        // A readable source must not be drained when the destination
        // forbids the write.
        let src = GuardedCap::unguarded(RawCap::open_path(&mut k, pid, "/home/u/b.txt").unwrap());
        k.stats.reset();
        assert!(matches!(
            cap_copy(&mut k, pid, &src, &sealed),
            Err(CapError::Violation(_))
        ));
        assert_eq!(k.stats.snapshot().syscalls, 0);
    }
}
