//! Batch-aware I/O for the SHILL runtime.
//!
//! The language builtins are "wrappers for the corresponding system calls"
//! (§2.1); the naive wrappers issue one kernel call per operation, so a
//! `read` of a large file or a `contents`+`stat` sweep pays the per-call
//! charging and MAC-context cost once per chunk or per name. Each
//! batchable builtin — `read`, `write`, `copy_file`, `dir_stats`,
//! `slurp_many` — instead has ONE implementation: a dependency-DAG
//! fragment added to a [`DeferredAcc`]. Inside `async` the fragment joins
//! the interpreter's accumulated batch and the builtin returns a future;
//! otherwise a private accumulator is flushed at once ([`run_now`]). Both
//! forms submit the same entries, slots, edges and fail mode through
//! [`shill_kernel::Kernel::submit_batch`], so fault keys and counters
//! match. Either way the operation is observably equivalent to the
//! sequential wrappers (same per-chunk MAC interposition, same errnos)
//! with one kernel crossing per window, and copies fuse into single
//! submissions via slot references (`BatchArg::OutputOf`).
//!
//! Byte-level paths remain only for what a fragment cannot express:
//! pipes, sockets and devices ([`cap_read_all`] and the checked raw
//! paths on [`GuardedCap`]), self-copies ([`cap_copy`]), and continuations
//! past a fragment's first 1 MiB window ([`read_from_fd`] and the
//! windowed copy).
//!
//! Capability discipline is unchanged: fragments perform the
//! contract-guard checks ([`GuardedCap::check`]) before touching a
//! descriptor, and the kernel still runs every DAC/MAC check per
//! underlying operation.

use std::rc::Rc;

use shill_cap::{CapKind, FdHandle, Priv};
use shill_contracts::{CapError, CapResult, GuardedCap};
use shill_kernel::{BatchArg, BatchEntry, BatchOut, FailMode, Fd, Kernel, Pid, SyscallBatch};
use shill_vfs::{Errno, SysResult};

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
/// scanning its slots must therefore prefer the lowest-slot
/// *non*-`ECANCELED` errno — the root cause — and fall back to
/// `ECANCELED` only when every failed slot is a cone artifact (the cause
/// lies outside the fragment).
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

/// Whether a capability's reads/writes can take the batched fast path: a
/// regular file with a live descriptor. Pipes, sockets, and devices keep
/// the sequential wrappers (their drain/EAGAIN semantics differ).
fn batchable_file(cap: &GuardedCap) -> Option<FdHandle> {
    if cap.kind() == CapKind::File {
        cap.raw.fd_handle()
    } else {
        None
    }
}

/// The byte-level read the fallbacks need: guard-checked, then batched by
/// window for regular files, through the sequential wrapper otherwise.
pub fn cap_read_all(k: &mut Kernel, pid: Pid, cap: &GuardedCap) -> CapResult<Vec<u8>> {
    cap.check(Priv::Read)?;
    match batchable_file(cap) {
        Some(fd) => Ok(read_from_fd(k, pid, fd.fd(), 0)?),
        None => Ok(cap.raw.read_all(k, pid)?),
    }
}

/// The byte-level copy for endpoints the fused pipeline declines
/// ([`DeferredAcc::defer_copy`] returns `None`, after running both guard
/// checks): a self-copy (same vnode, via any alias or hard link), whose
/// first-window truncate would cut off source bytes beyond the window
/// before they were read, and a copy between a file and a pipe, socket or
/// device. Reads the whole source, then writes it — through the write
/// fragment when the destination is a regular file, through the checked
/// raw path otherwise. Returns the bytes copied.
pub fn cap_copy(k: &mut Kernel, pid: Pid, src: &GuardedCap, dst: &GuardedCap) -> CapResult<usize> {
    src.check(Priv::Read)?;
    dst.check(Priv::Write)?;
    let mut data = cap_read_all(k, pid, src)?;
    let n = data.len();
    match run_now(k, pid, |acc, _, _| acc.defer_write(dst, &mut data))? {
        Some(Value::SysErr(e)) => Err(CapError::Sys(e)),
        Some(_) => Ok(n),
        None => dst.write_all(k, pid, &data).map(|()| n),
    }
}

/// The windowed copy pipeline from `start` to EOF: one submission per
/// 1 MiB window, the read's bytes flowing to the write through a slot
/// reference. Returns the total bytes copied *including* `start` (i.e.
/// the destination length). The copy fragment carries window one (and
/// the destination's truncate); its resolution continues here from window
/// two.
fn copy_windows(k: &mut Kernel, pid: Pid, sfd: Fd, dfd: Fd, start: u64) -> SysResult<u64> {
    let mut off = start;
    loop {
        let batch = SyscallBatch::aborting(vec![
            BatchEntry::Preadv {
                fd: sfd.into(),
                offset: off,
                lens: vec![CHUNK; WINDOW],
            },
            BatchEntry::Pwrite {
                fd: dfd.into(),
                offset: off,
                data: BatchArg::OutputOf(0),
            },
        ]);
        // Failures resolve through `first_cause`, so a cancellation cone
        // (`ECANCELED`) never masks the root-cause errno.
        let mut out = k.submit_batch(pid, &batch)?;
        let errs = out
            .iter()
            .enumerate()
            .filter_map(|(slot, r)| r.as_ref().err().map(|e| (slot, *e)));
        if let Some(e) = first_cause(errs) {
            return Err(e);
        }
        let n = take_slot(&mut out, 0)?.into_data()?.len();
        off += n as u64;
        if n < CHUNK * WINDOW {
            return Ok(off);
        }
    }
}

/// Run one batchable operation eagerly: `enqueue` adds its fragment to a
/// private accumulator, which is flushed at once, so the eager call
/// submits exactly the entries, slots, edges and fail mode its `async`
/// twin submits. Returns the fragment's value; `Ok(None)` when the
/// fragment declined (a capability that is not a regular file, or a
/// self-copy) and the caller runs its byte-level fallback.
pub fn run_now(
    k: &mut Kernel,
    pid: Pid,
    enqueue: impl FnOnce(&mut DeferredAcc, &mut Kernel, Pid) -> CapResult<Option<Rc<FutureCell>>>,
) -> CapResult<Option<Value>> {
    let mut acc = DeferredAcc::new();
    let Some(fut) = enqueue(&mut acc, k, pid)? else {
        return Ok(None);
    };
    flush_deferred(k, pid, acc);
    Ok(Some(fut.ready_value().unwrap_or(Value::Void)))
}

/// An accumulated batch of DAG fragments, one per batchable operation.
/// Inside `async` the interpreter's accumulator collects every fragment
/// and the first `await` flushes the whole accumulation through ONE
/// [`Kernel::submit_batch`] submission; an eager call flushes a private
/// accumulator at once ([`run_now`]). Flushing resolves every future from
/// the slot-ordered results.
///
/// Guard checks run at *enqueue* time (a violation aborts before anything
/// joins the batch); errnos surface at *resolution* time as the same
/// catchable syserrors the sequential wrappers produce. Fragments from
/// distinct `async` expressions share no edges, so one fragment's failure
/// never cancels a sibling — within a fragment, declared/data edges make a
/// failure cancel exactly its own cone.
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

    fn push_future(&mut self, kind: FragKind) -> Rc<FutureCell> {
        let fut = FutureCell::pending(kind);
        self.futures.push(Rc::clone(&fut));
        fut
    }

    /// Defer a `read`: one `Preadv` window from offset 0; resolution
    /// continues past a full window with the identical windows
    /// [`read_from_fd`] submits (so per-chunk fault keys match). `None`
    /// means the capability is not batchable (pipe/socket/device) — the
    /// caller runs the sequential wrapper instead.
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
        Ok(Some(self.push_future(FragKind::Read { slot, fd })))
    }

    /// Defer a `write`: truncate + positional write, the write ordered
    /// after the truncate, so a denied truncate cancels it. The bytes are
    /// taken out of `data` only when the fragment is accepted: a
    /// non-batchable capability (`None`) leaves them for the caller's
    /// sequential wrapper.
    pub fn defer_write(
        &mut self,
        cap: &GuardedCap,
        data: &mut Vec<u8>,
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
            data: std::mem::take(data).into(),
        });
        self.batch.deps.push((wr, tr));
        Ok(Some(self.push_future(FragKind::Write {
            slots: [tr, wr],
            fd,
        })))
    }

    /// Defer a copy: its first 1 MiB window as a fragment —
    /// `Preadv(src) → Ftruncate(dst) → Pwrite(dst, OutputOf(read))`, the
    /// read's bytes flowing to the write through the slot reference, and
    /// the truncate ordered after the read so a denied read leaves the
    /// destination untouched — with resolution continuing from window two
    /// eagerly. `None` for non-batchable endpoints or a self-copy (same
    /// vnode), which must not take the windowed pipeline (see
    /// [`cap_copy`]).
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
            sfd,
            dfd,
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
            dir,
        }))
    }

    /// Defer `slurp_many`: one `Preadv` window per file, resolving to a
    /// list whose elements are independently contents strings or
    /// syserrors. `None` if any capability is non-batchable — the caller
    /// falls back to per-file sequential reads.
    pub fn defer_slurp(&mut self, caps: &[GuardedCap]) -> CapResult<Option<Rc<FutureCell>>> {
        for c in caps {
            c.check(Priv::Read)?;
        }
        let mut fds = Vec::with_capacity(caps.len());
        for c in caps {
            match batchable_file(c) {
                Some(fd) => fds.push(fd),
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

/// Flush the accumulated batch: ONE submission, then resolve every
/// pending future from the slot-ordered results (each fragment moves its
/// payloads out exactly once — no clones of window data). A
/// submission-level refusal (e.g. an injected charge fault) resolves
/// every future to that errno.
pub fn flush_deferred(k: &mut Kernel, pid: Pid, acc: DeferredAcc) {
    let DeferredAcc { mut batch, futures } = acc;
    if futures.is_empty() {
        return;
    }
    demote_structureless(&mut batch);
    match k.submit_batch(pid, &batch) {
        Ok(mut slots) => resolve_futures(k, pid, &mut slots, &futures),
        Err(e) => {
            for f in futures {
                f.set_ready(Value::SysErr(e));
            }
        }
    }
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

/// A read fragment's resolution: the first window's bytes, continued
/// eagerly from the window boundary with [`read_from_fd`] when the window
/// came back full.
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
            // `[name, size]` pairs in directory order, names whose stat
            // failed (vanished, denied) skipped.
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
        let mut data = b"rewritten".to_vec();
        let v = run_now(&mut k, pid, |acc, _, _| acc.defer_write(&a, &mut data)).unwrap();
        assert!(matches!(v, Some(Value::Void)), "{v:?}");
        assert_eq!(cap_read_all(&mut k, pid, &a).unwrap(), b"rewritten");
        let n = run_now(&mut k, pid, |acc, _, _| acc.defer_copy(&a, &b)).unwrap();
        assert!(matches!(n, Some(Value::Num(9))), "{n:?}");
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
        let n = run_now(&mut k, pid, |acc, _, _| acc.defer_copy(&src, &dst)).unwrap();
        assert!(matches!(n, Some(Value::Num(200_000))), "{n:?}");
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
        let v = run_now(&mut k, pid, |acc, k, pid| {
            acc.defer_dir_stats(k, pid, &dir).map(Some)
        })
        .unwrap();
        let Some(Value::List(pairs)) = v else {
            panic!("{v:?}")
        };
        assert_eq!(pairs.len(), 3);
        let sizes: Vec<u64> = pairs
            .iter()
            .map(|pair| match pair {
                Value::List(kv) => match kv[1] {
                    Value::Num(n) => n as u64,
                    _ => 0,
                },
                _ => 0,
            })
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
        match run_now(&mut k, pid, |acc, _, _| acc.defer_copy(&src, &dst)) {
            Ok(Some(Value::SysErr(e))) => assert_eq!(e, Errno::EIO, "cause errno, not ECANCELED"),
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
