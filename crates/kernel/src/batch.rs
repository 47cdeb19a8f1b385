//! Batched syscall submission (io_uring-style) across the runtime→kernel
//! boundary.
//!
//! SHILL's enforcement model (paper §2.3) makes every language operation
//! pay a full kernel round-trip: a ulimit charge, a MAC subject-context
//! construction, and a `namei` path walk. The AVC cuts the per-*component*
//! MAC cost; this module cuts the per-*call* cost. A
//! [`SyscallBatch`] carries a sequence of [`BatchEntry`] operations, and
//! [`crate::Kernel::submit_batch`] — the one way a batch executes —
//! runs them in dependency waves ([`crate::sched`]) with two
//! amortizations:
//!
//! * **One ulimit charge per batch.** The cpu-tick budget is read once at
//!   submit time; entries consume ticks from the pre-read budget (same
//!   `EAGAIN` trip points as sequential execution) and the total is written
//!   back once.
//! * **One MAC context per batch.** No batch entry can change the subject's
//!   credentials, so the `MacCtx` built at submit time is reused by every
//!   check.
//!
//! Nothing else is elided. Every path an entry names is resolved by the
//! same `namei` walk a sequential syscall takes — DAC search, MAC `Lookup`
//! and `post_lookup` on every component — and data-path interposition
//! (`Read`/`Write` checks per chunk) fires per operation. A submitter that
//! sweeps one directory resolves names against that directory's
//! descriptor (`dirfd`), as `openat`/`fstatat` callers do, rather than
//! re-walking a shared dirname per entry. Observable equivalence with
//! sequential execution — same results, same errnos, same audit denials —
//! is a test target (`tests/batch_equivalence.rs`).
//!
//! ## Slot references and dependencies
//!
//! Entries can consume earlier entries' outputs without a kernel round-trip
//! in between: a descriptor position takes [`BatchFd::FromEntry`] (the fd
//! produced by an earlier `Open`), a data argument takes
//! [`BatchArg::OutputOf`] (the bytes produced by an earlier read-class
//! entry). References must point **backward** (producer index < consumer
//! index), which makes cycles unrepresentable; forward, out-of-range, or
//! type-mismatched references fail the whole submission with `EINVAL`
//! before anything executes. A batch may also declare explicit ordering
//! edges ([`SyscallBatch::after`]) between entries that share state the
//! kernel cannot see (say, two writes that must land in order).
//!
//! Slot references and declared edges together form the batch's dependency
//! DAG ([`crate::sched::BatchDag`]). [`crate::Kernel::submit_batch`]
//! executes it in dependency waves, possibly **out of** submission order
//! (see [`crate::sched`]); [`crate::Kernel::run_sequential`], the
//! equivalence oracle, executes it in submission order (always a valid
//! topological order, since edges point backward). Both return one result
//! per entry in slot order, and they are observationally equivalent on
//! batches whose conflicting entries are ordered by the DAG.
//!
//! Failure semantics are selected per batch by [`FailMode`]. A failed (or
//! cancelled) entry always poisons its transitive *data* dependents — their
//! input does not exist, so they report `ECANCELED` without executing.
//! Under the default [`FailMode::Continue`] that is the only propagation:
//! declared ordering edges still just order. [`FailMode::Abort`] widens
//! poisoning to declared edges too — each dependency cone behaves like an
//! `&&` chain — and, for a batch with no slot references and no declared
//! edges, the legacy chain semantics are preserved by treating the batch
//! as one linear dependency chain (the first failure cancels every later
//! entry, which never executes).

use std::sync::atomic::{AtomicU64, Ordering};

use shill_vfs::{Errno, Mode, Stat, SysResult};

use crate::kernel::Kernel;
use crate::mac::MacCtx;
use crate::sched::{into_slots, BatchDag, WaveTable};
use crate::stats::KernelStats;
use crate::types::{Fd, OpenFlags, Pid};

/// Read/write chunk used by the fused file operations.
const FUSED_CHUNK: usize = 65536;

/// What happens to the rest of the batch when an entry fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailMode {
    /// Entries are independent: a failure yields its errno in that slot and
    /// later entries still execute (the common case for stat sweeps) —
    /// except transitive *data* dependents of the failure, whose input is
    /// missing and who therefore report `ECANCELED` without executing.
    #[default]
    Continue,
    /// `&&`-chain semantics per dependency cone: the first failure cancels
    /// every transitive dependent (data *and* declared edges), which
    /// reports `ECANCELED` without executing. A batch with no edges at all
    /// is treated as one linear chain, preserving the pre-scheduler
    /// behaviour of cancelling every later entry.
    Abort,
}

/// A descriptor position in a batch entry: either a descriptor the
/// submitter already holds, or a slot reference to the fd produced by an
/// earlier `Open` entry in the same batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFd {
    /// A descriptor the submitting process already holds.
    Fd(Fd),
    /// The descriptor produced by entry `i` of this batch (`i` must be an
    /// earlier [`BatchEntry::Open`]; validated at submission).
    FromEntry(usize),
}

impl From<Fd> for BatchFd {
    fn from(fd: Fd) -> BatchFd {
        BatchFd::Fd(fd)
    }
}

/// A data argument in a batch entry: literal bytes, or a slot reference to
/// the data produced by an earlier read-class entry in the same batch.
/// `OutputOf` is what fuses whole pipelines — a copy is
/// `[ReadFile src, WriteFile { data: OutputOf(0), .. }]` in one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchArg {
    /// Literal bytes supplied by the submitter.
    Bytes(Vec<u8>),
    /// The bytes produced by entry `i` of this batch (`i` must be an
    /// earlier `Read`/`Pread`/`Readv`/`Preadv`/`ReadFile`; validated at
    /// submission).
    OutputOf(usize),
}

impl From<Vec<u8>> for BatchArg {
    fn from(data: Vec<u8>) -> BatchArg {
        BatchArg::Bytes(data)
    }
}

impl From<&[u8]> for BatchArg {
    fn from(data: &[u8]) -> BatchArg {
        BatchArg::Bytes(data.to_vec())
    }
}

/// One operation in a batch. Path-carrying entries resolve relative to
/// `dirfd` (or the cwd when `None`), exactly like their `*at` syscall
/// counterparts.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchEntry {
    /// `openat` → [`BatchOut::Fd`].
    Open {
        /// Base directory for relative paths (`None` = cwd).
        dirfd: Option<BatchFd>,
        /// Path to open, resolved like `openat`.
        path: String,
        /// Open flags (`RDONLY`, `creat_trunc_w`, …).
        flags: OpenFlags,
        /// Creation mode when the flags create.
        mode: Mode,
    },
    /// `close` → [`BatchOut::Unit`].
    Close {
        /// Descriptor to close.
        fd: BatchFd,
    },
    /// `read` at the descriptor offset → [`BatchOut::Data`].
    Read {
        /// Descriptor to read from.
        fd: BatchFd,
        /// Maximum bytes to read.
        len: usize,
    },
    /// Positional `pread` → [`BatchOut::Data`].
    Pread {
        /// Descriptor to read from.
        fd: BatchFd,
        /// File offset to read at (descriptor offset unchanged).
        offset: u64,
        /// Maximum bytes to read.
        len: usize,
    },
    /// Vectored read at the descriptor offset: one chunk per len, stopping
    /// at EOF → [`BatchOut::Data`] (concatenated).
    Readv {
        /// Descriptor to read from.
        fd: BatchFd,
        /// Chunk lengths, one read per element.
        lens: Vec<usize>,
    },
    /// Vectored positional read → [`BatchOut::Data`] (concatenated).
    Preadv {
        /// Descriptor to read from.
        fd: BatchFd,
        /// Starting file offset.
        offset: u64,
        /// Chunk lengths, one read per element.
        lens: Vec<usize>,
    },
    /// `write` at the descriptor offset → [`BatchOut::Written`].
    Write {
        /// Descriptor to write to.
        fd: BatchFd,
        /// Bytes to write (literal or slot reference).
        data: BatchArg,
    },
    /// Positional `pwrite` → [`BatchOut::Written`].
    Pwrite {
        /// Descriptor to write to.
        fd: BatchFd,
        /// File offset to write at (descriptor offset unchanged).
        offset: u64,
        /// Bytes to write (literal or slot reference).
        data: BatchArg,
    },
    /// Vectored write at the descriptor offset → [`BatchOut::Written`]
    /// (total).
    Writev {
        /// Descriptor to write to.
        fd: BatchFd,
        /// Buffers written back to back.
        bufs: Vec<Vec<u8>>,
    },
    /// Append regardless of offset → [`BatchOut::Written`].
    Append {
        /// Descriptor to append through.
        fd: BatchFd,
        /// Bytes to append (literal or slot reference).
        data: BatchArg,
    },
    /// `ftruncate` → [`BatchOut::Unit`].
    Ftruncate {
        /// Descriptor whose file is truncated.
        fd: BatchFd,
        /// New length.
        len: u64,
    },
    /// `fstat` → [`BatchOut::Stat`].
    Fstat {
        /// Descriptor to stat.
        fd: BatchFd,
    },
    /// `fstatat` → [`BatchOut::Stat`].
    Stat {
        /// Base directory for relative paths (`None` = cwd).
        dirfd: Option<BatchFd>,
        /// Path to stat.
        path: String,
        /// Whether a trailing symlink is followed.
        follow: bool,
    },
    /// `getdirentries` on an open directory → [`BatchOut::Names`].
    ReadDir {
        /// Open directory descriptor.
        fd: BatchFd,
    },
    /// Fused open→read-to-EOF→close → [`BatchOut::Data`]. One entry instead
    /// of N+2 calls; every per-chunk MAC `Read` check still fires.
    ReadFile {
        /// Base directory for relative paths (`None` = cwd).
        dirfd: Option<BatchFd>,
        /// Path of the file to slurp.
        path: String,
    },
    /// Fused open(create)→write→close → [`BatchOut::Written`]. With
    /// `append`, opens append-mode (creating if missing) instead of
    /// truncating.
    WriteFile {
        /// Base directory for relative paths (`None` = cwd).
        dirfd: Option<BatchFd>,
        /// Path of the file to write.
        path: String,
        /// Bytes to write (literal or slot reference).
        data: BatchArg,
        /// Creation mode when the file is created.
        mode: Mode,
        /// Append instead of truncate.
        append: bool,
    },
    /// `unlinkat` → [`BatchOut::Unit`].
    Unlink {
        /// Base directory for relative paths (`None` = cwd).
        dirfd: Option<BatchFd>,
        /// Path to remove.
        path: String,
        /// Remove a directory (`rmdir` semantics) instead of a file.
        remove_dir: bool,
    },
}

impl BatchEntry {
    /// Slot references this entry consumes, as up to two
    /// `(producer, wants_fd)` pairs (`wants_fd` distinguishes descriptor
    /// from data references). Allocation-free: an entry has at most one
    /// descriptor position and one data argument.
    pub(crate) fn slot_refs(&self) -> [Option<(usize, bool)>; 2] {
        let fd_ref = |f: &BatchFd| match f {
            BatchFd::FromEntry(i) => Some((*i, true)),
            BatchFd::Fd(_) => None,
        };
        let dir_ref = |f: &Option<BatchFd>| match f {
            Some(BatchFd::FromEntry(i)) => Some((*i, true)),
            _ => None,
        };
        let data_ref = |a: &BatchArg| match a {
            BatchArg::OutputOf(i) => Some((*i, false)),
            BatchArg::Bytes(_) => None,
        };
        match self {
            BatchEntry::Open { dirfd, .. } => [dir_ref(dirfd), None],
            BatchEntry::Close { fd }
            | BatchEntry::Read { fd, .. }
            | BatchEntry::Pread { fd, .. }
            | BatchEntry::Readv { fd, .. }
            | BatchEntry::Preadv { fd, .. }
            | BatchEntry::Writev { fd, .. }
            | BatchEntry::Ftruncate { fd, .. }
            | BatchEntry::Fstat { fd }
            | BatchEntry::ReadDir { fd } => [fd_ref(fd), None],
            BatchEntry::Write { fd, data }
            | BatchEntry::Pwrite { fd, data, .. }
            | BatchEntry::Append { fd, data } => [fd_ref(fd), data_ref(data)],
            BatchEntry::Stat { dirfd, .. }
            | BatchEntry::ReadFile { dirfd, .. }
            | BatchEntry::Unlink { dirfd, .. } => [dir_ref(dirfd), None],
            BatchEntry::WriteFile { dirfd, data, .. } => [dir_ref(dirfd), data_ref(data)],
        }
    }

    /// Whether this entry's output is a descriptor (`BatchOut::Fd`).
    pub(crate) fn produces_fd(&self) -> bool {
        matches!(self, BatchEntry::Open { .. })
    }

    /// Whether this entry's output is data (`BatchOut::Data`).
    pub(crate) fn produces_data(&self) -> bool {
        matches!(
            self,
            BatchEntry::Read { .. }
                | BatchEntry::Pread { .. }
                | BatchEntry::Readv { .. }
                | BatchEntry::Preadv { .. }
                | BatchEntry::ReadFile { .. }
        )
    }
}

/// Per-entry result payload.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOut {
    /// Side-effect-only entry completed (close, truncate, unlink).
    Unit,
    /// Descriptor produced by an `Open` entry.
    Fd(Fd),
    /// Bytes produced by a read-class entry.
    Data(Vec<u8>),
    /// Byte count produced by a write-class entry.
    Written(usize),
    /// Metadata produced by a stat-class entry.
    Stat(Stat),
    /// Directory entry names produced by `ReadDir`.
    Names(Vec<String>),
}

impl BatchOut {
    /// Extract a `Stat` payload; `EINVAL` for any other variant.
    pub fn into_stat(self) -> SysResult<Stat> {
        match self {
            BatchOut::Stat(st) => Ok(st),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Extract a data payload; `EINVAL` for any other variant.
    pub fn into_data(self) -> SysResult<Vec<u8>> {
        match self {
            BatchOut::Data(d) => Ok(d),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Extract a written-byte count; `EINVAL` for any other variant.
    pub fn into_written(self) -> SysResult<usize> {
        match self {
            BatchOut::Written(n) => Ok(n),
            _ => Err(Errno::EINVAL),
        }
    }
}

/// An ordered sequence of entries submitted as one kernel crossing, plus
/// the dependency edges that constrain out-of-order execution.
///
/// # Examples
///
/// Slot references fuse a whole open→read→copy pipeline into one
/// submission: [`BatchFd::FromEntry`] names the descriptor an earlier
/// `Open` produced, [`BatchArg::OutputOf`] the bytes an earlier read
/// produced, and neither the descriptor nor the payload ever surfaces to
/// the submitter. The explicit [`SyscallBatch::after`] edge keeps the
/// close behind the read (two users of one descriptor — a conflict the
/// kernel cannot infer from the references alone):
///
/// ```
/// use shill_kernel::{BatchArg, BatchEntry, BatchFd, BatchOut, Kernel, OpenFlags, SyscallBatch};
/// use shill_vfs::{Cred, Mode};
///
/// let mut k = Kernel::new();
/// k.fs.put_file("/tmp/src", b"payload", Mode(0o644),
///               shill_vfs::Uid::ROOT, shill_vfs::Gid::WHEEL).unwrap();
/// let pid = k.spawn_user(Cred::ROOT);
///
/// let mut batch = SyscallBatch::new(Vec::new());
/// let open = batch.push(BatchEntry::Open {
///     dirfd: None, path: "/tmp/src".into(), flags: OpenFlags::RDONLY, mode: Mode(0),
/// });
/// let read = batch.push(BatchEntry::Read { fd: BatchFd::FromEntry(open), len: 64 });
/// let copy = batch.push(BatchEntry::WriteFile {
///     dirfd: None, path: "/tmp/dst".into(), data: BatchArg::OutputOf(read),
///     mode: Mode(0o644), append: false,
/// });
/// let close = batch.push(BatchEntry::Close { fd: BatchFd::FromEntry(open) });
/// let batch = batch.after(close, read);
///
/// // One kernel crossing; the scheduler may run `copy` and `close` in
/// // either order (they conflict with nothing unordered).
/// let out = k.submit_batch(pid, &batch).unwrap();
/// assert_eq!(out[read], Ok(BatchOut::Data(b"payload".to_vec())));
/// assert_eq!(out[copy], Ok(BatchOut::Written(7)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SyscallBatch {
    /// The operations, in submission (slot) order.
    pub entries: Vec<BatchEntry>,
    /// What happens to dependents when an entry fails.
    pub fail_mode: FailMode,
    /// Explicit ordering edges as `(entry, depends_on)` pairs with
    /// `depends_on < entry`. Slot references add data edges implicitly;
    /// declared edges are for conflicts the kernel cannot see (two entries
    /// touching the same descriptor offset or the same path).
    pub deps: Vec<(usize, usize)>,
}

impl SyscallBatch {
    /// A batch of independent entries ([`FailMode::Continue`], no edges).
    pub fn new(entries: Vec<BatchEntry>) -> SyscallBatch {
        SyscallBatch {
            entries,
            fail_mode: FailMode::Continue,
            deps: Vec::new(),
        }
    }

    /// A one-entry batch (the fused-entry convenience shape).
    pub fn single(entry: BatchEntry) -> SyscallBatch {
        SyscallBatch::new(vec![entry])
    }

    /// A batch with `&&`-chain failure semantics ([`FailMode::Abort`]).
    pub fn aborting(entries: Vec<BatchEntry>) -> SyscallBatch {
        SyscallBatch {
            entries,
            fail_mode: FailMode::Abort,
            deps: Vec::new(),
        }
    }

    /// Declare that `entry` must execute after `on` (builder form).
    pub fn after(mut self, entry: usize, on: usize) -> SyscallBatch {
        self.deps.push((entry, on));
        self
    }

    /// Append an entry, returning its slot index (for slot references).
    pub fn push(&mut self, entry: BatchEntry) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// Whether any entry consumes another entry's output.
    pub fn uses_slots(&self) -> bool {
        self.entries
            .iter()
            .any(|e| e.slot_refs().iter().any(|r| r.is_some()))
    }
}

/// Live state of a batched submission, installed on the kernel for the
/// duration of `submit_batch` (or of one stepped wave). `charge` and `ctx`
/// consult it.
pub struct BatchState {
    /// The MAC subject context, built once.
    pub ctx: MacCtx,
    /// cpu_ticks at submit time.
    pub base: u64,
    /// The subject's `max_cpu_ticks`.
    pub limit: u64,
    /// Ticks consumed so far by the batch's inner syscalls.
    pub used: AtomicU64,
}

impl BatchState {
    /// Consume one cpu tick from the pre-read budget; trips `EAGAIN` at
    /// exactly the tick where sequential per-call charging would.
    pub fn consume_tick(&self) -> SysResult<()> {
        let used = self.used.fetch_add(1, Ordering::Relaxed) + 1;
        if self.base + used > self.limit {
            return Err(Errno::EAGAIN);
        }
        Ok(())
    }
}

/// Scope guard for the kernel's live [`BatchState`]: installing it arms the
/// amortizations, and dropping it **always** clears the state and writes
/// the consumed ticks back — including when entry execution unwinds
/// mid-batch (say, a buggy policy module panicking inside a check). Before
/// this guard existed, an unwind left `Kernel::batch` populated and every
/// later submission returned `EINVAL` as a phantom "nested batch".
pub(crate) struct BatchGuard<'a> {
    pub k: &'a mut Kernel,
    pid: Pid,
}

impl<'a> BatchGuard<'a> {
    /// Install batch state for `pid`: one ulimit accounting read, one MAC
    /// context construction. `EINVAL` if a batch is already live (no nested
    /// submissions: the amortized accounting is per-batch), `ESRCH` for a
    /// dead process.
    pub fn install(k: &'a mut Kernel, pid: Pid) -> SysResult<BatchGuard<'a>> {
        if k.batch.is_some() {
            return Err(Errno::EINVAL);
        }
        // One ulimit accounting operation for the whole installation.
        KernelStats::bump(&k.stats.charge_calls);
        let (base, limit) = {
            let p = k.process(pid)?;
            if !p.alive() {
                return Err(Errno::ESRCH);
            }
            (p.cpu_ticks, p.ulimits.max_cpu_ticks)
        };
        // One MAC context construction for the whole installation.
        KernelStats::bump(&k.stats.mac_ctx_setups);
        let ctx = k.process(pid)?.mac_ctx();
        k.batch = Some(BatchState {
            ctx,
            base,
            limit,
            used: AtomicU64::new(0),
        });
        Ok(BatchGuard { k, pid })
    }

    /// The MAC context built at install time.
    pub fn ctx(&self) -> MacCtx {
        self.k.batch.as_ref().expect("batch state live").ctx
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if let Some(st) = self.k.batch.take() {
            // Write the consumed ticks back in one process-table access
            // (entries that ran before an unwind stay charged).
            if let Ok(p) = self.k.process_mut(self.pid) {
                p.cpu_ticks = st.base + st.used.load(Ordering::Relaxed);
            }
        }
    }
}

impl Kernel {
    /// Submit a batch for `pid` and execute it in dependency waves under
    /// one amortized installation: one ulimit charge and one MAC context
    /// (see the module docs for the amortization and equivalence contract,
    /// and [`crate::sched`] for the wave model).
    /// Returns one result per entry, in slot order, moved out of the run
    /// with no copy. The outer `Err` is reserved for submission-level
    /// failures (no such process, nested submission, malformed slot
    /// references).
    ///
    /// Callers that must release the kernel between waves step the same
    /// batch with [`crate::sched::ScheduledRun`] instead.
    pub fn submit_batch(
        &mut self,
        pid: Pid,
        batch: &SyscallBatch,
    ) -> SysResult<Vec<SysResult<BatchOut>>> {
        let mut table = WaveTable::new(batch)?;
        let n = batch.entries.len() as u64;
        let batch_span = self.trace_span(crate::trace::TraceSite::Batch, pid.0 as u64, n);
        let ctx = {
            let guard = BatchGuard::install(self, pid)?;
            KernelStats::bump(&guard.k.stats.batches);
            while !table.finished() {
                guard.k.exec_next_wave(pid, batch, &mut table);
            }
            guard.ctx()
        };
        drop(batch_span);
        self.audit_batch(ctx, &table);
        Ok(table.into_results())
    }

    /// Submit a single (typically fused) entry: one kernel crossing, one
    /// result. The convenience wrapper the whole-file helpers build on.
    pub fn submit_single(&mut self, pid: Pid, entry: BatchEntry) -> SysResult<BatchOut> {
        self.submit_batch(pid, &SyscallBatch::single(entry))?
            .into_iter()
            .next()
            .unwrap_or(Err(Errno::EINVAL))
    }

    /// Execute the same entries through the plain sequential path, in
    /// submission order: one charge and one MAC context per inner syscall,
    /// no batch audit span. Slot references and dependency poisoning are
    /// honoured identically — submission order is always a valid
    /// topological order because every edge points backward, so "execute
    /// in order, cancelling poisoned slots" realizes exactly the semantics
    /// the wave scheduler realizes out of order.
    /// This is the equivalence oracle: the property suites and the
    /// ablation bench compare [`Kernel::submit_batch`] against it.
    pub fn run_sequential(
        &mut self,
        pid: Pid,
        batch: &SyscallBatch,
    ) -> SysResult<Vec<SysResult<BatchOut>>> {
        if self.batch.is_some() {
            return Err(Errno::EINVAL);
        }
        if !self.process(pid)?.alive() {
            return Err(Errno::ESRCH);
        }
        let dag = BatchDag::build(batch)?;
        let mut results: Vec<Option<SysResult<BatchOut>>> = Vec::new();
        results.resize_with(batch.entries.len(), || None);
        let mut syscall_span = None;
        for (i, entry) in batch.entries.iter().enumerate() {
            let r = if dag.should_cancel(i, batch.fail_mode, &results) {
                // Cancelled entries never execute.
                Err(Errno::ECANCELED)
            } else if let Err(e) = self.fault_batch_entry(pid, i) {
                // An injected entry fault fails the slot before it runs;
                // dependents are cancelled by the normal poisoning rules —
                // the same slot-keyed schedule the wave scheduler sees.
                Err(e)
            } else {
                self.chain_syscall_span(&mut syscall_span, pid, i);
                self.exec_entry(pid, entry, &results)
            };
            results[i] = Some(r);
        }
        Ok(into_slots(results))
    }

    /// Resolve a descriptor position against earlier slot results.
    /// Type/range mismatches are rejected at submission, so the fallback
    /// `EINVAL` here is defensive.
    pub(crate) fn resolve_batch_fd(
        &self,
        fd: BatchFd,
        prior: &[Option<SysResult<BatchOut>>],
    ) -> SysResult<Fd> {
        match fd {
            BatchFd::Fd(fd) => Ok(fd),
            BatchFd::FromEntry(i) => {
                KernelStats::bump(&self.stats.slot_links);
                match prior.get(i).and_then(|r| r.as_ref()) {
                    Some(Ok(BatchOut::Fd(fd))) => Ok(*fd),
                    _ => Err(Errno::EINVAL),
                }
            }
        }
    }

    pub(crate) fn resolve_batch_dirfd(
        &self,
        dirfd: &Option<BatchFd>,
        prior: &[Option<SysResult<BatchOut>>],
    ) -> SysResult<Option<Fd>> {
        match dirfd {
            None => Ok(None),
            Some(f) => self.resolve_batch_fd(*f, prior).map(Some),
        }
    }

    /// Resolve a data argument against earlier slot results, by
    /// reference: literal bytes are borrowed from the entry, `OutputOf`
    /// bytes from the producer's result slot — no payload copy on either
    /// path (the producer's slot keeps its result, so several consumers
    /// may reference the same producer).
    pub(crate) fn resolve_batch_data<'p>(
        &self,
        data: &'p BatchArg,
        prior: &'p [Option<SysResult<BatchOut>>],
    ) -> SysResult<&'p [u8]> {
        match data {
            BatchArg::Bytes(b) => Ok(b),
            BatchArg::OutputOf(i) => {
                KernelStats::bump(&self.stats.slot_links);
                match prior.get(*i).and_then(|r| r.as_ref()) {
                    Some(Ok(BatchOut::Data(d))) => Ok(d),
                    _ => Err(Errno::EINVAL),
                }
            }
        }
    }

    /// Dispatch one entry through the ordinary syscall implementations —
    /// the same code paths, checks, and audit events as sequential
    /// execution, modulo the charge/context amortizations (active only
    /// while a batch is live). `prior` carries earlier slots' results for
    /// slot-reference resolution.
    pub(crate) fn exec_entry(
        &mut self,
        pid: Pid,
        entry: &BatchEntry,
        prior: &[Option<SysResult<BatchOut>>],
    ) -> SysResult<BatchOut> {
        match entry {
            BatchEntry::Open {
                dirfd,
                path,
                flags,
                mode,
            } => {
                let dirfd = self.resolve_batch_dirfd(dirfd, prior)?;
                self.openat(pid, dirfd, path, *flags, *mode)
                    .map(BatchOut::Fd)
            }
            BatchEntry::Close { fd } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                self.close(pid, fd).map(|_| BatchOut::Unit)
            }
            BatchEntry::Read { fd, len } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                self.read(pid, fd, *len).map(BatchOut::Data)
            }
            BatchEntry::Pread { fd, offset, len } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                self.pread(pid, fd, *offset, *len).map(BatchOut::Data)
            }
            BatchEntry::Readv { fd, lens } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                let mut data = Vec::new();
                for len in lens {
                    let chunk = self.read(pid, fd, *len)?;
                    let eof = chunk.len() < *len;
                    data.extend(chunk);
                    if eof {
                        break;
                    }
                }
                Ok(BatchOut::Data(data))
            }
            BatchEntry::Preadv { fd, offset, lens } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                let mut data = Vec::new();
                let mut off = *offset;
                for len in lens {
                    let chunk = self.pread(pid, fd, off, *len)?;
                    let eof = chunk.len() < *len;
                    off += chunk.len() as u64;
                    data.extend(chunk);
                    if eof {
                        break;
                    }
                }
                Ok(BatchOut::Data(data))
            }
            BatchEntry::Write { fd, data } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                let data = self.resolve_batch_data(data, prior)?;
                self.write(pid, fd, data).map(BatchOut::Written)
            }
            BatchEntry::Pwrite { fd, offset, data } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                let data = self.resolve_batch_data(data, prior)?;
                self.pwrite(pid, fd, *offset, data).map(BatchOut::Written)
            }
            BatchEntry::Writev { fd, bufs } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                let mut n = 0usize;
                for buf in bufs {
                    n += self.write(pid, fd, buf)?;
                }
                Ok(BatchOut::Written(n))
            }
            BatchEntry::Append { fd, data } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                let data = self.resolve_batch_data(data, prior)?;
                self.append_fd(pid, fd, data).map(BatchOut::Written)
            }
            BatchEntry::Ftruncate { fd, len } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                self.ftruncate(pid, fd, *len).map(|_| BatchOut::Unit)
            }
            BatchEntry::Fstat { fd } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                self.fstat(pid, fd).map(BatchOut::Stat)
            }
            BatchEntry::Stat {
                dirfd,
                path,
                follow,
            } => {
                let dirfd = self.resolve_batch_dirfd(dirfd, prior)?;
                self.fstatat(pid, dirfd, path, *follow).map(BatchOut::Stat)
            }
            BatchEntry::ReadDir { fd } => {
                let fd = self.resolve_batch_fd(*fd, prior)?;
                self.readdirfd(pid, fd).map(BatchOut::Names)
            }
            BatchEntry::ReadFile { dirfd, path } => {
                let dirfd = self.resolve_batch_dirfd(dirfd, prior)?;
                let fd = self.openat(pid, dirfd, path, OpenFlags::RDONLY, Mode(0))?;
                let mut data = Vec::new();
                loop {
                    match self.read(pid, fd, FUSED_CHUNK) {
                        Ok(chunk) if chunk.is_empty() => break,
                        Ok(chunk) => data.extend(chunk),
                        Err(e) => {
                            let _ = self.close(pid, fd);
                            return Err(e);
                        }
                    }
                }
                self.close(pid, fd)?;
                Ok(BatchOut::Data(data))
            }
            BatchEntry::WriteFile {
                dirfd,
                path,
                data,
                mode,
                append,
            } => {
                let dirfd = self.resolve_batch_dirfd(dirfd, prior)?;
                let data = self.resolve_batch_data(data, prior)?;
                let flags = if *append {
                    let mut f = OpenFlags::append_only();
                    f.create = true;
                    f
                } else {
                    OpenFlags::creat_trunc_w()
                };
                let fd = self.openat(pid, dirfd, path, flags, *mode)?;
                match self.write(pid, fd, data) {
                    Ok(n) => {
                        self.close(pid, fd)?;
                        Ok(BatchOut::Written(n))
                    }
                    Err(e) => {
                        let _ = self.close(pid, fd);
                        Err(e)
                    }
                }
            }
            BatchEntry::Unlink {
                dirfd,
                path,
                remove_dir,
            } => {
                let dirfd = self.resolve_batch_dirfd(dirfd, prior)?;
                self.unlinkat(pid, dirfd, path, *remove_dir)
                    .map(|_| BatchOut::Unit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::{MacPolicy, VnodeOp};
    use shill_vfs::{Cred, Gid, NodeId, Uid};

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        k.fs.mkdir_p("/deep/a/b/c", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        for i in 0..4 {
            k.fs.put_file(
                &format!("/deep/a/b/c/f{i}"),
                format!("file-{i}").as_bytes(),
                Mode::FILE_DEFAULT,
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        }
        let pid = k.spawn_user(Cred::ROOT);
        (k, pid)
    }

    fn stat_entry(path: &str) -> BatchEntry {
        BatchEntry::Stat {
            dirfd: None,
            path: path.to_string(),
            follow: true,
        }
    }

    #[test]
    fn batch_matches_sequential_results() {
        let (mut k, pid) = setup();
        let batch = SyscallBatch::new(vec![
            stat_entry("/deep/a/b/c/f0"),
            stat_entry("/deep/a/b/c/f1"),
            stat_entry("/deep/a/b/c/missing"),
            BatchEntry::ReadFile {
                dirfd: None,
                path: "/deep/a/b/c/f2".into(),
            },
        ]);
        let batched = k.submit_batch(pid, &batch).unwrap();
        let (mut k2, pid2) = setup();
        let sequential = k2.run_sequential(pid2, &batch).unwrap();
        assert_eq!(batched, sequential);
        assert_eq!(batched[2], Err(Errno::ENOENT));
        assert_eq!(
            batched[3],
            Ok(BatchOut::Data(b"file-2".to_vec())),
            "fused read returns contents"
        );
    }

    #[test]
    fn one_charge_and_one_context_per_batch() {
        let (mut k, pid) = setup();
        k.stats.reset();
        let batch = SyscallBatch::new(
            (0..4)
                .map(|i| stat_entry(&format!("/deep/a/b/c/f{i}")))
                .collect(),
        );
        let out = k.submit_batch(pid, &batch).unwrap();
        assert!(out.iter().all(|r| r.is_ok()));
        let st = k.stats.snapshot();
        assert_eq!(st.charge_calls, 1, "one ulimit charge for the batch");
        assert_eq!(st.mac_ctx_setups, 1, "one MAC context for the batch");
        assert_eq!(st.lookups, 4 * 5, "every entry walks its whole path");
    }

    #[test]
    fn mid_batch_mutations_match_sequential() {
        let (mut k, pid) = setup();
        let (mut k2, pid2) = setup();
        let mut run = |batch: &SyscallBatch| {
            let out = k.submit_batch(pid, batch).unwrap();
            assert_eq!(out, k2.run_sequential(pid2, batch).unwrap());
            out
        };
        let out = run(&SyscallBatch::new(vec![
            stat_entry("/deep/a/b/c/f0"),
            BatchEntry::Unlink {
                dirfd: None,
                path: "/deep/a/b/c".into(),
                remove_dir: true,
            },
            stat_entry("/deep/a/b/c/f1"),
        ]));
        assert!(out[0].is_ok());
        // The directory was not empty: the unlink itself fails...
        assert_eq!(out[1], Err(Errno::ENOTEMPTY));

        // ...and a name unlinked mid-batch is gone for the next entry.
        let out = run(&SyscallBatch::new(vec![
            stat_entry("/deep/a/b/c/f0"),
            BatchEntry::Unlink {
                dirfd: None,
                path: "/deep/a/b/c/f1".into(),
                remove_dir: false,
            },
            stat_entry("/deep/a/b/c/f1"),
        ]));
        assert!(out[0].is_ok());
        assert!(out[1].is_ok());
        assert_eq!(out[2], Err(Errno::ENOENT), "unlinked mid-batch");

        // A create in a directory on the walked chain leaves later walks
        // through it intact.
        let out = run(&SyscallBatch::new(vec![
            stat_entry("/deep/a/b/c/f0"),
            BatchEntry::WriteFile {
                dirfd: None,
                path: "/deep/a/b/side".into(),
                data: b"x".to_vec().into(),
                mode: Mode::FILE_DEFAULT,
                append: false,
            },
            stat_entry("/deep/a/b/c/f2"),
            stat_entry("/deep/a/b/c/f0"),
        ]));
        assert!(out.iter().all(|r| r.is_ok()), "{out:?}");
    }

    #[test]
    fn fail_modes() {
        let (mut k, pid) = setup();
        let entries = vec![
            stat_entry("/deep/a/b/c/f0"),
            stat_entry("/deep/a/b/c/missing"),
            stat_entry("/deep/a/b/c/f1"),
        ];
        let cont = k
            .submit_batch(pid, &SyscallBatch::new(entries.clone()))
            .unwrap();
        assert!(cont[0].is_ok());
        assert_eq!(cont[1], Err(Errno::ENOENT));
        assert!(cont[2].is_ok(), "Continue keeps going past a failure");
        let abort = k
            .submit_batch(pid, &SyscallBatch::aborting(entries))
            .unwrap();
        assert!(abort[0].is_ok());
        assert_eq!(abort[1], Err(Errno::ENOENT));
        assert_eq!(
            abort[2],
            Err(Errno::ECANCELED),
            "Abort cancels the rest like an && chain"
        );
    }

    #[test]
    fn cpu_ticks_match_sequential_and_trip_identically() {
        let (mut k, pid) = setup();
        let batch = SyscallBatch::new(vec![
            stat_entry("/deep/a/b/c/f0"),
            stat_entry("/deep/a/b/c/f1"),
            stat_entry("/deep/a/b/c/f2"),
        ]);
        let (mut k2, pid2) = setup();
        k.submit_batch(pid, &batch).unwrap();
        k2.run_sequential(pid2, &batch).unwrap();
        assert_eq!(
            k.process(pid).unwrap().cpu_ticks,
            k2.process(pid2).unwrap().cpu_ticks,
            "tick accounting identical"
        );
        // With a 2-tick budget the third entry trips EAGAIN in both modes.
        for (kern, p) in [(&mut k, pid), (&mut k2, pid2)] {
            kern.set_ulimits(
                p,
                crate::types::Ulimits {
                    max_cpu_ticks: kern.process(p).unwrap().cpu_ticks + 2,
                    ..Default::default()
                },
            )
            .unwrap();
        }
        let b = k.submit_batch(pid, &batch).unwrap();
        let s = k2.run_sequential(pid2, &batch).unwrap();
        assert_eq!(b, s);
        assert_eq!(b[2], Err(Errno::EAGAIN));
    }

    #[test]
    fn nested_submission_is_rejected() {
        let (mut k, pid) = setup();
        // Simulate a live batch (as an exec handler running inside one
        // would see): a second submission must refuse rather than corrupt
        // the amortized accounting.
        k.batch = Some(BatchState {
            ctx: MacCtx {
                pid,
                cred: Cred::ROOT,
                label: None,
            },
            base: 0,
            limit: u64::MAX,
            used: AtomicU64::new(0),
        });
        assert_eq!(
            k.submit_batch(pid, &SyscallBatch::default()).unwrap_err(),
            Errno::EINVAL
        );
        k.batch = None;
        assert!(k.submit_batch(pid, &SyscallBatch::default()).is_ok());
    }

    #[test]
    fn write_file_fusion_creates_and_appends() {
        let (mut k, pid) = setup();
        let out = k
            .submit_batch(
                pid,
                &SyscallBatch::new(vec![
                    BatchEntry::WriteFile {
                        dirfd: None,
                        path: "/deep/a/b/c/new.txt".into(),
                        data: b"one\n".to_vec().into(),
                        mode: Mode::FILE_DEFAULT,
                        append: false,
                    },
                    BatchEntry::WriteFile {
                        dirfd: None,
                        path: "/deep/a/b/c/new.txt".into(),
                        data: b"two\n".to_vec().into(),
                        mode: Mode::FILE_DEFAULT,
                        append: true,
                    },
                    BatchEntry::ReadFile {
                        dirfd: None,
                        path: "/deep/a/b/c/new.txt".into(),
                    },
                ]),
            )
            .unwrap();
        assert_eq!(out[2], Ok(BatchOut::Data(b"one\ntwo\n".to_vec())));
    }

    #[test]
    fn slot_references_fuse_an_open_read_write_close_pipeline() {
        let (mut k, pid) = setup();
        k.stats.reset();
        // copy /deep/a/b/c/f0 → /deep/a/b/c/copy in ONE submission: the
        // Open's fd feeds Read and Close, the Read's data feeds WriteFile.
        let batch = SyscallBatch::aborting(vec![
            BatchEntry::Open {
                dirfd: None,
                path: "/deep/a/b/c/f0".into(),
                flags: OpenFlags::RDONLY,
                mode: Mode(0),
            },
            BatchEntry::Read {
                fd: BatchFd::FromEntry(0),
                len: 1024,
            },
            BatchEntry::WriteFile {
                dirfd: None,
                path: "/deep/a/b/c/copy".into(),
                data: BatchArg::OutputOf(1),
                mode: Mode::FILE_DEFAULT,
                append: false,
            },
            BatchEntry::Close {
                fd: BatchFd::FromEntry(0),
            },
        ])
        .after(3, 1);
        let out = k.submit_batch(pid, &batch).unwrap();
        assert!(out.iter().all(|r| r.is_ok()), "{out:?}");
        assert_eq!(out[2], Ok(BatchOut::Written(6)));
        let st = k.stats.snapshot();
        assert_eq!(st.batches, 1, "whole pipeline in one submission");
        assert_eq!(st.slot_links, 3, "two fd links + one data link");
        let copied = k
            .submit_single(
                pid,
                BatchEntry::ReadFile {
                    dirfd: None,
                    path: "/deep/a/b/c/copy".into(),
                },
            )
            .unwrap();
        assert_eq!(copied, BatchOut::Data(b"file-0".to_vec()));
    }

    #[test]
    fn malformed_slot_references_fail_the_submission() {
        let (mut k, pid) = setup();
        // Forward reference.
        let fwd = SyscallBatch::new(vec![
            BatchEntry::Read {
                fd: BatchFd::FromEntry(1),
                len: 8,
            },
            BatchEntry::Open {
                dirfd: None,
                path: "/deep/a/b/c/f0".into(),
                flags: OpenFlags::RDONLY,
                mode: Mode(0),
            },
        ]);
        assert_eq!(k.submit_batch(pid, &fwd).unwrap_err(), Errno::EINVAL);
        // Type mismatch: a Stat entry does not produce a descriptor.
        let mismatch = SyscallBatch::new(vec![
            stat_entry("/deep/a/b/c/f0"),
            BatchEntry::Read {
                fd: BatchFd::FromEntry(0),
                len: 8,
            },
        ]);
        assert_eq!(k.submit_batch(pid, &mismatch).unwrap_err(), Errno::EINVAL);
        // Self/forward dependency declarations.
        let bad_dep = SyscallBatch::new(vec![stat_entry("/deep/a/b/c/f0")]).after(0, 0);
        assert_eq!(k.submit_batch(pid, &bad_dep).unwrap_err(), Errno::EINVAL);
        // Nothing was left installed by the rejected submissions.
        assert!(k
            .submit_batch(pid, &SyscallBatch::single(stat_entry("/deep/a/b/c/f0")))
            .is_ok());
    }

    #[test]
    fn data_dependents_of_a_failure_are_poisoned_even_under_continue() {
        let (mut k, pid) = setup();
        let batch = SyscallBatch::new(vec![
            BatchEntry::ReadFile {
                dirfd: None,
                path: "/deep/a/b/c/missing".into(),
            },
            BatchEntry::WriteFile {
                dirfd: None,
                path: "/deep/a/b/c/out".into(),
                data: BatchArg::OutputOf(0),
                mode: Mode::FILE_DEFAULT,
                append: false,
            },
            stat_entry("/deep/a/b/c/f0"),
        ]);
        let out = k.submit_batch(pid, &batch).unwrap();
        assert_eq!(out[0], Err(Errno::ENOENT));
        assert_eq!(
            out[1],
            Err(Errno::ECANCELED),
            "consumer's input does not exist"
        );
        assert!(out[2].is_ok(), "unrelated entry still runs under Continue");
        assert!(
            k.fstatat(pid, None, "/deep/a/b/c/out", true).is_err(),
            "poisoned WriteFile must not have executed"
        );
        // The sequential oracle agrees.
        let (mut k2, pid2) = setup();
        assert_eq!(out, k2.run_sequential(pid2, &batch).unwrap());
    }

    /// A policy module that panics inside its Nth vnode check — the
    /// realistic way entry execution unwinds mid-batch.
    struct PanickingPolicy {
        checks_until_panic: AtomicU64,
    }

    impl MacPolicy for PanickingPolicy {
        fn name(&self) -> &str {
            "panicking"
        }

        fn vnode_check(&self, _ctx: MacCtx, _node: NodeId, _op: &VnodeOp<'_>) -> SysResult<()> {
            if self.checks_until_panic.fetch_sub(1, Ordering::Relaxed) == 1 {
                panic!("buggy policy module");
            }
            Ok(())
        }
    }

    #[test]
    fn unwind_mid_batch_clears_batch_state() {
        // Regression (ISSUE 4 satellite): before the drop-guard, a panic
        // during entry execution left `Kernel::batch` populated and every
        // later submission returned EINVAL as a phantom nested batch.
        let (mut k, pid) = setup();
        k.register_policy(std::sync::Arc::new(PanickingPolicy {
            checks_until_panic: AtomicU64::new(3),
        }));
        let batch = SyscallBatch::new(vec![
            stat_entry("/deep/a/b/c/f0"),
            stat_entry("/deep/a/b/c/f1"),
        ]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = k.submit_batch(pid, &batch);
        }));
        assert!(unwound.is_err(), "the policy panic must surface");
        assert!(k.unregister_policy("panicking"));
        assert!(
            k.batch.is_none(),
            "drop-guard must clear batch state on unwind"
        );
        let out = k.submit_batch(pid, &batch).expect("not EINVAL");
        assert!(out.iter().all(|r| r.is_ok()), "{out:?}");
    }
}
