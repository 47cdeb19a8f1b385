//! Batch-aware I/O for the SHILL runtime.
//!
//! The language builtins are "wrappers for the corresponding system calls"
//! (§2.1); the naive wrappers issue one kernel call per operation, so a
//! `read` of a large file or a `contents`+`stat` sweep pays the per-call
//! charging and MAC-context cost once per chunk or per name. These helpers
//! route the same operations through [`shill_kernel::Kernel::submit_batch`]
//! and, for pipelines with data dependencies, through the batch scheduler
//! ([`shill_kernel::Kernel::submit_scheduled`]) — observably equivalent
//! (same per-chunk MAC interposition, same errnos) but with one kernel
//! crossing per window, and with copies fused into single submissions via
//! slot references (`BatchArg::OutputOf`).
//!
//! Capability discipline is unchanged: callers perform the contract-guard
//! checks ([`GuardedCap::check`]) before reaching for the descriptor, and
//! the kernel still runs every DAC/MAC check per underlying operation.

use std::rc::Rc;
use std::sync::Arc;

use shill_cap::{CapFd, CapKind, Priv};
use shill_contracts::{CapError, CapResult, GuardedCap};
use shill_kernel::{BatchArg, BatchEntry, BatchOut, FailMode, Fd, Kernel, Pid, SyscallBatch};
use shill_vfs::{Errno, Stat, SysResult};

use crate::value::{FragKind, FutureCell, Value};

/// Chunk size used by vectored reads/writes (matches the sequential
/// wrappers' 64 KiB chunking).
const CHUNK: usize = 65536;
/// Chunks per submitted window: one kernel crossing charges for up to this
/// many chunk reads.
const WINDOW: usize = 16;

/// Map a fused fragment's failures back to the first real cause errno.
///
/// Within one scheduled batch a failed entry cancels its dependency cone:
/// the cone's slots complete with `ECANCELED`, an artifact of scheduling,
/// not a fault a sequential script could ever see. Resolving a fragment by
/// scanning its slots (or its completions in an arbitrary order) must
/// therefore prefer the lowest-slot *non*-`ECANCELED` errno — the root
/// cause — and fall back to `ECANCELED` only when every failed slot is a
/// cone artifact (the cause lies outside the fragment).
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

/// Read a regular file to EOF from `off` (positional; does not disturb
/// the descriptor offset), submitting one batch per 1 MiB window instead of
/// one call per 64 KiB chunk.
pub fn read_from_fd(k: &mut Kernel, pid: Pid, fd: Fd, mut off: u64) -> SysResult<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let data = k
            .submit_single(
                pid,
                BatchEntry::Preadv {
                    fd: fd.into(),
                    offset: off,
                    lens: vec![CHUNK; WINDOW],
                },
            )?
            .into_data()?;
        let n = data.len();
        out.extend(data);
        off += n as u64;
        if n < CHUNK * WINDOW {
            return Ok(out);
        }
    }
}

/// Read a regular file to EOF from offset 0.
pub fn read_all_fd(k: &mut Kernel, pid: Pid, fd: Fd) -> SysResult<Vec<u8>> {
    read_from_fd(k, pid, fd, 0)
}

/// Overwrite a regular file (truncate + positional write) in one batch.
/// Takes the buffer by value so it moves into the entry without a copy.
/// `Abort` mode mirrors the sequential wrapper: a denied truncate stops the
/// write from running.
pub fn write_all_fd(k: &mut Kernel, pid: Pid, fd: Fd, data: Vec<u8>) -> SysResult<()> {
    let out = k.submit_batch(
        pid,
        &SyscallBatch::aborting(vec![
            BatchEntry::Ftruncate {
                fd: fd.into(),
                len: 0,
            },
            BatchEntry::Pwrite {
                fd: fd.into(),
                offset: 0,
                data: data.into(),
            },
        ]),
    )?;
    for r in out {
        r?;
    }
    Ok(())
}

/// `stat` every name in a directory with one kernel crossing — the batched
/// form of the `contents` + per-name `stat` loop. Per-name outcomes are
/// preserved (a denied or vanished entry yields its errno in that slot).
pub fn stat_names(
    k: &mut Kernel,
    pid: Pid,
    dirfd: Fd,
    names: &[String],
) -> SysResult<Vec<SysResult<Stat>>> {
    let entries: Vec<BatchEntry> = names
        .iter()
        .map(|n| BatchEntry::Stat {
            dirfd: Some(dirfd.into()),
            path: n.clone(),
            follow: false,
        })
        .collect();
    let out = k.submit_batch(pid, &SyscallBatch::new(entries))?;
    Ok(out
        .into_iter()
        .map(|r| r.and_then(BatchOut::into_stat))
        .collect())
}

/// Whether a capability's reads/writes can take the batched fast path: a
/// regular file with a live descriptor. Pipes, sockets, and devices keep
/// the sequential wrappers (their drain/EAGAIN semantics differ).
fn batchable_file(cap: &GuardedCap) -> Option<&Arc<CapFd>> {
    if cap.kind() == CapKind::File {
        cap.raw.fd_handle()
    } else {
        None
    }
}

/// `read` builtin fast path: guard-checked, then batched for regular files,
/// falling back to the sequential wrapper otherwise.
pub fn cap_read_all(k: &mut Kernel, pid: Pid, cap: &GuardedCap) -> CapResult<Vec<u8>> {
    cap.check(Priv::Read)?;
    match batchable_file(cap) {
        Some(fd) => Ok(read_all_fd(k, pid, fd.fd())?),
        None => Ok(cap.raw.read_all(k, pid)?),
    }
}

/// `write` builtin fast path. Takes the buffer by value (the batched path
/// moves it into the entry; the fallback borrows it).
pub fn cap_write_all(k: &mut Kernel, pid: Pid, cap: &GuardedCap, data: Vec<u8>) -> CapResult<()> {
    cap.check(Priv::Write)?;
    match batchable_file(cap) {
        Some(fd) => Ok(write_all_fd(k, pid, fd.fd(), data)?),
        None => Ok(cap.raw.write_all(k, pid, &data)?),
    }
}

/// cp-style copy between two file capabilities, fused onto the scheduler's
/// pipeline path: each window is ONE submission —
/// `Preadv(src) → [Ftruncate(dst) →] Pwrite(dst, data: OutputOf(read))` —
/// with the read's bytes flowing to the write through a slot reference
/// instead of surfacing to the runtime between two submissions. The chain
/// runs in `Abort` mode with the truncate ordered after the first read, so
/// a denied read leaves the destination untouched and a denied truncate
/// cancels the write, exactly like the two-submission form.
pub fn cap_copy(k: &mut Kernel, pid: Pid, src: &GuardedCap, dst: &GuardedCap) -> CapResult<usize> {
    src.check(Priv::Read)?;
    dst.check(Priv::Write)?;
    // Self-copy (same vnode, via any alias or hard link) must not take the
    // windowed pipeline: its first-window truncate would cut off source
    // bytes beyond the window before they were read. Read-all-then-write
    // preserves the pre-pipeline lossless behaviour.
    let same_node = src.raw.node.is_some() && src.raw.node == dst.raw.node;
    let (Some(sfd), Some(dfd)) = (batchable_file(src), batchable_file(dst)) else {
        // Pipes/sockets/devices: sequential wrappers, as before.
        let data = cap_read_all(k, pid, src)?;
        let n = data.len();
        cap_write_all(k, pid, dst, data)?;
        return Ok(n);
    };
    if same_node {
        let data = cap_read_all(k, pid, src)?;
        let n = data.len();
        cap_write_all(k, pid, dst, data)?;
        return Ok(n);
    }
    Ok(copy_windows(k, pid, sfd.fd(), dfd.fd(), 0).map_err(CapError::Sys)? as usize)
}

/// The windowed copy pipeline from `start` to EOF: one scheduled
/// submission per 1 MiB window, read data flowing to the write through a
/// slot reference. The first window (`start == 0`) truncates the
/// destination — after the read, so a failed read cancels it. Returns the
/// total bytes copied *including* `start` (i.e. the destination length).
/// Shared by [`cap_copy`] and the deferred-copy continuation, which picks
/// up at window two after the accumulated batch carried window one.
pub(crate) fn copy_windows(
    k: &mut Kernel,
    pid: Pid,
    sfd: Fd,
    dfd: Fd,
    start: u64,
) -> SysResult<u64> {
    let mut off = start;
    loop {
        let mut batch = SyscallBatch::aborting(vec![BatchEntry::Preadv {
            fd: sfd.into(),
            offset: off,
            lens: vec![CHUNK; WINDOW],
        }]);
        let mut prev = 0;
        if off == 0 {
            // First window truncates the destination — after the read, so
            // a failed read cancels it (dependency cone, not "every later
            // entry").
            prev = batch.push(BatchEntry::Ftruncate {
                fd: dfd.into(),
                len: 0,
            });
            batch.deps.push((prev, 0));
        }
        let wr = batch.push(BatchEntry::Pwrite {
            fd: dfd.into(),
            offset: off,
            data: BatchArg::OutputOf(0),
        });
        if prev != 0 {
            batch.deps.push((wr, prev));
        }
        // Consume the completions by value: the window's payload moves
        // out of the read slot exactly once, no clones. Failures resolve
        // through `first_cause`, so a cancellation cone (`ECANCELED`)
        // never masks the root-cause errno no matter what order the
        // completion queue delivered them in.
        let completions = k.submit_scheduled(pid, &batch)?;
        let mut read: Option<Vec<u8>> = None;
        let mut errs: Vec<(usize, Errno)> = Vec::new();
        for c in completions {
            match c.out {
                Ok(out) if c.slot == 0 => read = Some(out.into_data()?),
                Ok(_) => {}
                Err(e) => errs.push((c.slot, e)),
            }
        }
        if let Some(e) = first_cause(errs) {
            return Err(e);
        }
        let n = read.map(|d| d.len()).ok_or(Errno::EINVAL)?;
        off += n as u64;
        if n < CHUNK * WINDOW {
            return Ok(off);
        }
    }
}

/// The interpreter's accumulated batch: inside `async`, the I/O builtins
/// enqueue DAG fragments here instead of submitting private batches, and
/// the first `await` flushes the whole accumulation through ONE
/// [`Kernel::submit_scheduled`] submission, resolving every future from
/// the completions.
///
/// Guard checks run at *enqueue* time (a violation aborts before anything
/// joins the batch); errnos surface at *resolution* time as the same
/// catchable syserrors the sequential wrappers produce. Fragments from
/// distinct `async` expressions share no edges, so one fragment's failure
/// never cancels a sibling — within a fragment, the same declared/data
/// edges as the eager paths make a failure cancel exactly its own cone.
pub struct DeferredAcc {
    batch: SyscallBatch,
    futures: Vec<Rc<FutureCell>>,
}

impl Default for DeferredAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl DeferredAcc {
    pub fn new() -> DeferredAcc {
        // Abort mode scopes cancellation to declared/data cones. (With no
        // edges at all it would degrade to the legacy `&&`-chain — the
        // flush downgrades such a batch to `Continue`, which is equivalent
        // for an edge-free DAG.)
        let mut batch = SyscallBatch::new(Vec::new());
        batch.fail_mode = FailMode::Abort;
        DeferredAcc {
            batch,
            futures: Vec::new(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.futures.is_empty()
    }

    /// Number of entries accumulated so far (test observability).
    pub fn pending_entries(&self) -> usize {
        self.batch.entries.len()
    }

    fn push_future(&mut self, kind: FragKind) -> Rc<FutureCell> {
        let fut = FutureCell::pending(kind);
        self.futures.push(Rc::clone(&fut));
        fut
    }

    /// Defer a `read`: the same first `Preadv` window the eager path
    /// submits (so per-chunk fault keys match); resolution continues past
    /// a full window eagerly. `None` means the capability is not
    /// batchable (pipe/socket/device) — the caller runs the sequential
    /// wrapper instead.
    pub fn defer_read(&mut self, cap: &GuardedCap) -> CapResult<Option<Rc<FutureCell>>> {
        cap.check(Priv::Read)?;
        let Some(fd) = batchable_file(cap) else {
            return Ok(None);
        };
        let slot = self.batch.push(BatchEntry::Preadv {
            fd: fd.fd().into(),
            offset: 0,
            lens: vec![CHUNK; WINDOW],
        });
        let fd = Arc::clone(fd);
        Ok(Some(self.push_future(FragKind::Read { slot, fd })))
    }

    /// Defer a `write`: truncate + positional write, the write ordered
    /// after the truncate exactly like [`write_all_fd`]'s aborting pair.
    pub fn defer_write(
        &mut self,
        cap: &GuardedCap,
        data: Vec<u8>,
    ) -> CapResult<Option<Rc<FutureCell>>> {
        cap.check(Priv::Write)?;
        let Some(fd) = batchable_file(cap) else {
            return Ok(None);
        };
        let tr = self.batch.push(BatchEntry::Ftruncate {
            fd: fd.fd().into(),
            len: 0,
        });
        let wr = self.batch.push(BatchEntry::Pwrite {
            fd: fd.fd().into(),
            offset: 0,
            data: data.into(),
        });
        self.batch.deps.push((wr, tr));
        let fd = Arc::clone(fd);
        Ok(Some(self.push_future(FragKind::Write {
            slots: [tr, wr],
            fd,
        })))
    }

    /// Defer a copy: the first `copy_windows` window as a fragment —
    /// `Preadv(src) → Ftruncate(dst) → Pwrite(dst, OutputOf(read))`, the
    /// read's bytes flowing to the write through the slot reference —
    /// with resolution continuing from window two eagerly. `None` for
    /// non-batchable endpoints or a self-copy (same vnode), which must
    /// not take the windowed pipeline (see [`cap_copy`]).
    pub fn defer_copy(
        &mut self,
        src: &GuardedCap,
        dst: &GuardedCap,
    ) -> CapResult<Option<Rc<FutureCell>>> {
        src.check(Priv::Read)?;
        dst.check(Priv::Write)?;
        let (Some(sfd), Some(dfd)) = (batchable_file(src), batchable_file(dst)) else {
            return Ok(None);
        };
        if src.raw.node.is_some() && src.raw.node == dst.raw.node {
            return Ok(None);
        }
        let rd = self.batch.push(BatchEntry::Preadv {
            fd: sfd.fd().into(),
            offset: 0,
            lens: vec![CHUNK; WINDOW],
        });
        let tr = self.batch.push(BatchEntry::Ftruncate {
            fd: dfd.fd().into(),
            len: 0,
        });
        self.batch.deps.push((tr, rd));
        let wr = self.batch.push(BatchEntry::Pwrite {
            fd: dfd.fd().into(),
            offset: 0,
            data: BatchArg::OutputOf(rd),
        });
        self.batch.deps.push((wr, tr));
        Ok(Some(self.push_future(FragKind::Copy {
            first_slot: rd,
            sfd: Arc::clone(sfd),
            dfd: Arc::clone(dfd),
        })))
    }

    /// Defer the `dir_stats` sweep: the readdir runs eagerly (its name
    /// list orders the fragment), the per-name `fstatat`s join the
    /// accumulated batch.
    pub fn defer_dir_stats(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        dir: &GuardedCap,
    ) -> CapResult<Rc<FutureCell>> {
        dir.check(Priv::Contents)?;
        dir.check(Priv::Lookup)?;
        dir.check(Priv::Stat)?;
        let dir = dir.raw.fd_handle().ok_or(CapError::Sys(Errno::EBADF))?;
        let names = k.readdirfd(pid, dir.fd())?;
        let first_slot = self.batch.entries.len();
        for n in &names {
            self.batch.push(BatchEntry::Stat {
                dirfd: Some(dir.fd().into()),
                path: n.clone(),
                follow: false,
            });
        }
        Ok(self.push_future(FragKind::DirStats {
            names,
            first_slot,
            dir: Arc::clone(dir),
        }))
    }

    /// Defer `slurp_many`: one `Preadv` window per file, resolving to a
    /// list whose elements are independently contents strings or
    /// syserrors. `None` if any capability is non-batchable — the caller
    /// falls back to per-file sequential reads.
    pub fn defer_slurp(&mut self, caps: &[Rc<GuardedCap>]) -> CapResult<Option<Rc<FutureCell>>> {
        for c in caps {
            c.check(Priv::Read)?;
        }
        let mut fds = Vec::with_capacity(caps.len());
        for c in caps {
            match batchable_file(c) {
                Some(fd) => fds.push(Arc::clone(fd)),
                None => return Ok(None),
            }
        }
        let reads = fds
            .into_iter()
            .map(|fd| {
                let slot = self.batch.push(BatchEntry::Preadv {
                    fd: fd.fd().into(),
                    offset: 0,
                    lens: vec![CHUNK; WINDOW],
                });
                (slot, fd)
            })
            .collect();
        Ok(Some(self.push_future(FragKind::Slurp { reads })))
    }

    /// Hand the batch to a caller that wants to step it wave by wave
    /// (`select`). The futures keep their slot references; the caller
    /// resolves them against the run's slot table when done.
    pub fn into_parts(self) -> (SyscallBatch, Vec<Rc<FutureCell>>) {
        let DeferredAcc { mut batch, futures } = self;
        demote_structureless(&mut batch);
        (batch, futures)
    }
}

/// An edge-free Abort batch would take the legacy `&&`-chain path
/// (every entry serialized behind its predecessor); independent deferred
/// fragments must stay independent, so such a batch runs as `Continue` —
/// identical semantics when there is nothing to cancel through.
fn demote_structureless(batch: &mut SyscallBatch) {
    if batch.deps.is_empty() && !batch.uses_slots() {
        batch.fail_mode = FailMode::Continue;
    }
}

/// Flush the accumulated batch: ONE scheduled submission, then resolve
/// every pending future from the completions. A submission-level refusal
/// (e.g. an injected charge fault — pid-keyed, so the sequential twin's
/// per-call submissions refuse identically) resolves every future to that
/// errno.
pub fn flush_deferred(k: &mut Kernel, pid: Pid, acc: DeferredAcc) {
    let DeferredAcc { mut batch, futures } = acc;
    if futures.is_empty() {
        return;
    }
    demote_structureless(&mut batch);
    let completions = match k.submit_scheduled(pid, &batch) {
        Ok(c) => c,
        Err(e) => {
            for f in futures {
                f.set_ready(Value::SysErr(e));
            }
            return;
        }
    };
    // Move the completions into a slot-indexed table; each fragment then
    // moves its payloads out exactly once — no clones of window data.
    let mut slots: Vec<SysResult<BatchOut>> = vec![Err(Errno::EINVAL); batch.entries.len()];
    for c in completions {
        slots[c.slot] = c.out;
    }
    resolve_futures(k, pid, &mut slots, &futures);
}

/// Resolve every still-pending future in `futures` against a filled slot
/// table (shared by [`flush_deferred`] and the `select` builtin's stepped
/// path).
pub fn resolve_futures(
    k: &mut Kernel,
    pid: Pid,
    slots: &mut [SysResult<BatchOut>],
    futures: &[Rc<FutureCell>],
) {
    for f in futures {
        if let Some(kind) = f.take_frag() {
            let v = resolve_frag(k, pid, slots, kind);
            f.set_ready(v);
        }
    }
}

fn take_slot(slots: &mut [SysResult<BatchOut>], i: usize) -> SysResult<BatchOut> {
    std::mem::replace(&mut slots[i], Err(Errno::EINVAL))
}

/// A deferred read's resolution: the accumulated window's bytes, continued
/// eagerly from the window boundary when the window came back full — the
/// continuation issues the identical `Preadv` windows the eager
/// [`read_from_fd`] loop would, so per-chunk fault keys line up.
fn resolve_read(
    k: &mut Kernel,
    pid: Pid,
    slots: &mut [SysResult<BatchOut>],
    slot: usize,
    fd: Fd,
) -> SysResult<Vec<u8>> {
    let mut data = take_slot(slots, slot)?.into_data()?;
    if data.len() == CHUNK * WINDOW {
        let rest = read_from_fd(k, pid, fd, data.len() as u64)?;
        data.extend(rest);
    }
    Ok(data)
}

fn lossy(data: Vec<u8>) -> Value {
    Value::str(String::from_utf8_lossy(&data).into_owned())
}

/// Map one fragment's slots to the value its sequential twin would
/// produce. Failures resolve through [`first_cause`], so a cancellation
/// cone never masks the root-cause errno.
fn resolve_frag(
    k: &mut Kernel,
    pid: Pid,
    slots: &mut [SysResult<BatchOut>],
    kind: FragKind,
) -> Value {
    match kind {
        FragKind::Read { slot, fd } => match resolve_read(k, pid, slots, slot, fd.fd()) {
            Ok(d) => lossy(d),
            Err(e) => Value::SysErr(e),
        },
        FragKind::Write { slots: ws, .. } => {
            let errs = ws
                .into_iter()
                .filter_map(|s| take_slot(slots, s).err().map(|e| (s, e)));
            match first_cause(errs) {
                Some(e) => Value::SysErr(e),
                None => Value::Void,
            }
        }
        FragKind::Copy {
            first_slot,
            sfd,
            dfd,
        } => {
            let mut errs = Vec::new();
            let mut len = None;
            for s in first_slot..first_slot + 3 {
                match take_slot(slots, s) {
                    Ok(out) if s == first_slot => match out.into_data() {
                        Ok(d) => len = Some(d.len()),
                        Err(e) => errs.push((s, e)),
                    },
                    Ok(_) => {}
                    Err(e) => errs.push((s, e)),
                }
            }
            if let Some(e) = first_cause(errs) {
                return Value::SysErr(e);
            }
            let Some(n) = len else {
                return Value::SysErr(Errno::EINVAL);
            };
            if n < CHUNK * WINDOW {
                return Value::Num(n as i64);
            }
            match copy_windows(k, pid, sfd.fd(), dfd.fd(), n as u64) {
                Ok(total) => Value::Num(total as i64),
                Err(e) => Value::SysErr(e),
            }
        }
        FragKind::DirStats {
            names, first_slot, ..
        } => {
            // Same shape as the eager `dir_stats`: `[name, size]` pairs in
            // directory order, names whose stat failed skipped.
            let items = names
                .into_iter()
                .enumerate()
                .filter_map(|(i, name)| {
                    take_slot(slots, first_slot + i)
                        .and_then(BatchOut::into_stat)
                        .ok()
                        .map(|st| Value::list(vec![Value::str(name), Value::Num(st.size as i64)]))
                })
                .collect();
            Value::list(items)
        }
        FragKind::Slurp { reads } => Value::list(
            reads
                .into_iter()
                .map(
                    |(slot, fd)| match resolve_read(k, pid, slots, slot, fd.fd()) {
                        Ok(d) => lossy(d),
                        Err(e) => Value::SysErr(e),
                    },
                )
                .collect(),
        ),
    }
}

/// The `contents`+`stat` sweep over a directory capability: one `readdir`,
/// then one batch of `fstatat`s relative to the directory descriptor.
/// Returns `(name, stat-result)` pairs in directory order.
pub fn cap_dir_stats(
    k: &mut Kernel,
    pid: Pid,
    dir: &GuardedCap,
) -> CapResult<Vec<(String, SysResult<Stat>)>> {
    dir.check(Priv::Contents)?;
    dir.check(Priv::Lookup)?;
    dir.check(Priv::Stat)?;
    let dirfd = dir.raw.fd().ok_or(CapError::Sys(Errno::EBADF))?;
    let names = k.readdirfd(pid, dirfd)?;
    let stats = stat_names(k, pid, dirfd, &names)?;
    Ok(names.into_iter().zip(stats).collect())
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
        cap_write_all(&mut k, pid, &a, b"rewritten".to_vec()).unwrap();
        assert_eq!(cap_read_all(&mut k, pid, &a).unwrap(), b"rewritten");
        let n = cap_copy(&mut k, pid, &a, &b).unwrap();
        assert_eq!(n, 9);
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
        let n = cap_copy(&mut k, pid, &src, &dst).unwrap();
        assert_eq!(n, 200_000);
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
        let pairs = cap_dir_stats(&mut k, pid, &dir).unwrap();
        assert_eq!(pairs.len(), 3);
        let sizes: Vec<u64> = pairs
            .iter()
            .map(|(_, st)| st.as_ref().map(|s| s.size).unwrap_or(0))
            .collect();
        assert!(sizes.contains(&5) && sizes.contains(&2) && sizes.contains(&200_000));
        let st = k.stats.snapshot();
        assert_eq!(st.batches, 1, "one batch for the whole stat sweep");
        // readdir (1 sequential charge) + one batch charge.
        assert_eq!(st.charge_calls, 2);
    }

    #[test]
    fn first_cause_prefers_real_errnos_over_the_cancellation_cone() {
        // Regression (ISSUE 8 satellite): resolving a fragment must not
        // report the cone artifact even when it is encountered first —
        // whether because the cone slot is numerically lower or because a
        // completion queue delivered it earlier.
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
            "an all-cone fragment has nothing better to report"
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
    }
}
