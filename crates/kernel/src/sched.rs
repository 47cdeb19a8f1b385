//! The dependency-wave scheduler: the one executor behind every batched
//! submission.
//!
//! [`crate::batch`] gave the runtime→kernel boundary a submission queue;
//! this module executes it. A [`SyscallBatch`] whose entries declare
//! their dependencies (explicit [`SyscallBatch::deps`] edges plus the data
//! edges implied by [`crate::batch::BatchFd::FromEntry`] /
//! [`crate::batch::BatchArg::OutputOf`] slot references) is validated
//! into a [`BatchDag`], topologically layered into **ready waves**, and
//! executed wave by wave: every entry in a wave has all of its
//! dependencies satisfied, so an entry whose dependencies resolve early
//! overtakes earlier-submitted entries that are still waiting on theirs.
//! Results come back in slot order, moved out of the run's result table
//! ([`crate::Kernel::submit_batch`], [`ScheduledRun::into_results`]).
//! Execution order stays visible where something reads it:
//! [`ScheduledRun::completed_slots`] and the `sched_reorders` counter.
//!
//! ## Equivalence contract
//!
//! Scheduled execution must be observationally equivalent to
//! [`crate::Kernel::run_sequential`] — same per-slot results, errnos, audit
//! denials, and cache-counter evolution — for every batch whose
//! *conflicting* entries are ordered by the DAG (the io_uring contract:
//! operations racing on shared state without a declared edge have
//! unspecified relative order). Within a wave, entries execute in ascending
//! slot order, so a batch with **no** edges executes in exactly index
//! order; `FailMode::Abort` batches with no edges are treated as one
//! linear chain (see [`crate::batch::FailMode`]), preserving the legacy
//! `&&`-chain semantics. One caveat: descriptor *numbers* returned by
//! `Open` entries are covered only up to renaming — the fd allocator is a
//! monotonic counter, so a reordered (or transiently fused) open shifts
//! later numbers; in-batch consumers use slot references precisely so
//! nothing else depends on the number. The DAG property suite in
//! `tests/batch_equivalence.rs` is the enforcement.
//!
//! ## Cancellation cones
//!
//! A failed entry never cancels "every later entry". It poisons its
//! transitive *data* dependents (their input does not exist) under both
//! fail modes; under [`FailMode::Abort`] the poison also follows declared
//! ordering edges, so the failure cancels exactly its **dependency cone**
//! while independent entries keep executing. Cancelled slots report
//! `ECANCELED` without executing: they are not counted in `batch_entries`,
//! produce no audit denials, and are booked as cancellations (not
//! failures) in the batch's audit span.
//!
//! ## One-shot and stepped forms
//!
//! Both forms share the wave executor and the slot-ordered result type;
//! they differ only in locking. [`crate::Kernel::submit_batch`] runs all
//! waves under one amortized [`crate::batch::BatchState`] installation
//! (one ulimit charge, one MAC context), for callers that hold
//! `&mut Kernel`. The stepped form — [`ScheduledRun::prepare`]
//! (pure validation, no kernel access, callable outside any lock) +
//! [`crate::Kernel::sched_run_wave`] + [`crate::Kernel::sched_audit`] +
//! [`ScheduledRun::into_results`] — installs batch state **per wave**, so
//! [`crate::KernelShards::run_job`] can drop the shard lock between waves
//! and interleave waves of different sessions' submissions, and
//! `select`/`stream_read` can look at each wave's completions before the
//! next one runs. Per-wave installation re-reads
//! the tick budget each wave (write-back keeps the cumulative count, so
//! `EAGAIN` trip points are unchanged) and builds one MAC context per
//! wave. Lock order is inherited from the executor: the kernel lock is
//! acquired first and no interior cache/policy lock is ever held across a
//! wave boundary.

use shill_vfs::{Errno, SysResult};

use crate::batch::{BatchGuard, BatchOut, FailMode, SyscallBatch};
use crate::kernel::Kernel;
use crate::stats::KernelStats;
use crate::types::Pid;

/// A batch's validated dependency DAG: per-entry data and ordering edges,
/// layered into ready waves. Its tables are flat, each one allocation per
/// batch whatever its size: the edges of every entry in one list, and the
/// entries in execution order in another.
#[derive(Debug, Clone)]
pub struct BatchDag {
    /// Per entry: where its edges lie in `edges`, and its wave.
    slots: Vec<SlotDeps>,
    /// Each entry's producers (the entries it slot-references: a failed or
    /// cancelled producer always poisons it), then its declared
    /// dependencies (poison follows these only under [`FailMode::Abort`]),
    /// each run sorted and without duplicates.
    edges: Vec<usize>,
    /// The entries in execution order: wave by wave, ascending within a
    /// wave.
    order: Vec<usize>,
    /// `order[wave_ends[w - 1]..wave_ends[w]]` is wave `w`: the slots
    /// whose longest dependency chain has length `w`.
    wave_ends: Vec<usize>,
}

/// One entry's runs in [`BatchDag::edges`] and its wave.
#[derive(Debug, Clone, Copy, Default)]
struct SlotDeps {
    data: (usize, usize),
    order: (usize, usize),
    wave: usize,
}

/// Sort and deduplicate `edges[run.0..run.1]` in place; returns the run
/// that remains.
fn sort_run(edges: &mut [usize], run: (usize, usize)) -> (usize, usize) {
    let seg = &mut edges[run.0..run.1];
    seg.sort_unstable();
    let mut kept = 0;
    for i in 0..seg.len() {
        if kept == 0 || seg[i] != seg[kept - 1] {
            seg[kept] = seg[i];
            kept += 1;
        }
    }
    (run.0, run.0 + kept)
}

impl BatchDag {
    /// Validate a batch's references and edges and layer it into waves.
    /// `EINVAL` for forward/self/out-of-range references or declared
    /// edges, and for slot references whose producer cannot produce the
    /// referenced kind (`FromEntry` of a non-`Open`, `OutputOf` of a
    /// non-read entry). Backward-only edges make cycles unrepresentable,
    /// so no cycle check is needed.
    pub fn build(batch: &SyscallBatch) -> SysResult<BatchDag> {
        let n = batch.entries.len();
        let mut slots = vec![SlotDeps::default(); n];
        // Count each entry's edges, validating them.
        let mut data_edges = 0;
        for (i, entry) in batch.entries.iter().enumerate() {
            for (producer, wants_fd) in entry.slot_refs().into_iter().flatten() {
                if producer >= i {
                    return Err(Errno::EINVAL);
                }
                let p = &batch.entries[producer];
                let compatible = if wants_fd {
                    p.produces_fd()
                } else {
                    p.produces_data()
                };
                if !compatible {
                    return Err(Errno::EINVAL);
                }
                slots[i].data.1 += 1;
                data_edges += 1;
            }
        }
        for &(entry, on) in &batch.deps {
            if entry >= n || on >= entry {
                return Err(Errno::EINVAL);
            }
            slots[entry].order.1 += 1;
        }
        // Legacy `&&`-chain: an Abort batch that declares no structure at
        // all is one linear dependency chain, exactly as the pre-scheduler
        // abort semantics cancelled every entry after the first failure.
        let chain = batch.fail_mode == FailMode::Abort && batch.deps.is_empty() && data_edges == 0;
        if chain {
            for slot in slots.iter_mut().skip(1) {
                slot.order.1 = 1;
            }
        }
        // Lay the runs out; each run's end is its fill cursor until filled.
        let mut at = 0;
        for slot in &mut slots {
            let (data, order) = (slot.data.1, slot.order.1);
            slot.data = (at, at);
            slot.order = (at + data, at + data);
            at += data + order;
        }
        let mut edges = vec![0; at];
        for (i, entry) in batch.entries.iter().enumerate() {
            for (producer, _) in entry.slot_refs().into_iter().flatten() {
                edges[slots[i].data.1] = producer;
                slots[i].data.1 += 1;
            }
        }
        for &(entry, on) in &batch.deps {
            edges[slots[entry].order.1] = on;
            slots[entry].order.1 += 1;
        }
        if chain {
            for (i, slot) in slots.iter_mut().enumerate().skip(1) {
                edges[slot.order.0] = i - 1;
                slot.order.1 += 1;
            }
        }
        // Longest-path layering: an entry's wave is one past its deepest
        // dependency's.
        let mut height = 0;
        for i in 0..n {
            let data = sort_run(&mut edges, slots[i].data);
            let order = sort_run(&mut edges, slots[i].order);
            let deps = edges[data.0..data.1].iter().chain(&edges[order.0..order.1]);
            let wave = deps.map(|&j| slots[j].wave + 1).max().unwrap_or(0);
            slots[i] = SlotDeps { data, order, wave };
            height = height.max(wave);
        }
        // Group by wave, keeping slot order within each.
        let mut wave_ends = vec![0; if n == 0 { 0 } else { height + 1 }];
        for slot in &slots {
            wave_ends[slot.wave] += 1;
        }
        let mut end = 0;
        for e in &mut wave_ends {
            end += *e;
            *e = end - *e; // each wave's start, its fill cursor
        }
        let mut order = vec![0; n];
        for (i, slot) in slots.iter().enumerate() {
            order[wave_ends[slot.wave]] = i;
            wave_ends[slot.wave] += 1;
        }
        Ok(BatchDag {
            slots,
            edges,
            order,
            wave_ends,
        })
    }

    /// The number of waves.
    pub fn wave_count(&self) -> usize {
        self.wave_ends.len()
    }

    /// Wave `w`'s slot indices, ascending.
    pub fn wave(&self, w: usize) -> &[usize] {
        let start = if w == 0 { 0 } else { self.wave_ends[w - 1] };
        &self.order[start..self.wave_ends[w]]
    }

    /// The wave layering (slot indices per wave, ascending).
    pub fn waves(&self) -> impl ExactSizeIterator<Item = &[usize]> {
        (0..self.wave_count()).map(|w| self.wave(w))
    }

    /// Whether `slot` must be cancelled instead of executed, given the
    /// results recorded so far: any failed-or-cancelled data producer
    /// poisons it; under Abort, any failed-or-cancelled declared
    /// dependency does too. All of `slot`'s dependencies completed in
    /// every valid execution order before `slot` is considered, so this is
    /// order-independent — the wave scheduler and the sequential oracle
    /// compute identical cancellation sets.
    pub(crate) fn should_cancel(
        &self,
        slot: usize,
        fail_mode: FailMode,
        results: &[Option<SysResult<BatchOut>>],
    ) -> bool {
        let failed = |j: &usize| matches!(results[*j], Some(Err(_)));
        let SlotDeps { data, order, .. } = self.slots[slot];
        self.edges[data.0..data.1].iter().any(failed)
            || (fail_mode == FailMode::Abort && self.edges[order.0..order.1].iter().any(failed))
    }
}

/// The execution state both scheduled forms share: the validated DAG, the
/// per-slot result table and per-wave timing. Waves run in index order, so
/// the next wave is the count of waves timed, and the slots completed so
/// far, in execution order, are the DAG's order up to it.
pub(crate) struct WaveTable {
    dag: BatchDag,
    results: Vec<Option<SysResult<BatchOut>>>,
    /// Per-wave execution durations in nanoseconds, one slot per executed
    /// wave. Measured only while the tracing plane's wave site is armed
    /// (zeros otherwise) and handed to the audit span.
    wave_ns: Vec<u64>,
}

impl WaveTable {
    /// Validate `batch` into an empty table. Pure computation.
    pub(crate) fn new(batch: &SyscallBatch) -> SysResult<WaveTable> {
        let dag = BatchDag::build(batch)?;
        let n = batch.entries.len();
        let mut results = Vec::new();
        results.resize_with(n, || None);
        let wave_ns = Vec::with_capacity(dag.wave_count());
        Ok(WaveTable {
            dag,
            results,
            wave_ns,
        })
    }

    /// Whether every wave has executed.
    pub(crate) fn finished(&self) -> bool {
        self.wave_ns.len() >= self.dag.wave_count()
    }

    /// Slots completed so far, in execution order.
    fn completed(&self) -> &[usize] {
        let done = match self.wave_ns.len() {
            0 => 0,
            w => self.dag.wave_ends[w - 1],
        };
        &self.dag.order[..done]
    }

    /// Move the result table into slot order ([`into_slots`]).
    pub(crate) fn into_results(self) -> Vec<SysResult<BatchOut>> {
        into_slots(self.results)
    }
}

/// An in-flight stepped submission: the batch and its wave table.
/// Built outside any kernel lock by [`ScheduledRun::prepare`]; advanced
/// one wave at a time by [`Kernel::sched_run_wave`]; audited by
/// [`Kernel::sched_audit`]; and consumed into slot-ordered results by
/// [`ScheduledRun::into_results`].
pub struct ScheduledRun {
    pid: Pid,
    batch: SyscallBatch,
    table: WaveTable,
    /// The MAC context captured at the first wave's installation — the
    /// context the entries actually ran under. The audit span uses it
    /// even if the submitting process is gone by audit time.
    ctx: Option<crate::mac::MacCtx>,
}

impl ScheduledRun {
    /// Validate `batch` into an executable run. Pure computation — no
    /// kernel access, so [`crate::KernelShards::run_job`] calls this
    /// outside the kernel lock.
    pub fn prepare(pid: Pid, batch: SyscallBatch) -> SysResult<ScheduledRun> {
        let table = WaveTable::new(&batch)?;
        Ok(ScheduledRun {
            pid,
            batch,
            table,
            ctx: None,
        })
    }

    /// The submitting process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Whether every wave has executed.
    pub fn finished(&self) -> bool {
        self.table.finished()
    }

    /// Slots completed so far, in execution order — the steppable
    /// consumer's per-wave peek: after each [`Kernel::sched_run_wave`] a
    /// caller (streaming reads, `select`) can see which slots have
    /// delivered while later waves are still pending.
    pub fn completed_slots(&self) -> &[usize] {
        self.table.completed()
    }

    /// Borrow a completed slot's result (`None` until it executes or is
    /// cancelled). Payloads stay in place — the streaming consumer clones
    /// the wave it is about to hand out and leaves the rest unmoved for
    /// [`ScheduledRun::into_results`].
    pub fn result_of(&self, slot: usize) -> Option<&SysResult<BatchOut>> {
        self.table.results.get(slot)?.as_ref()
    }

    /// Consume the run into its slot-ordered results (the
    /// [`Kernel::submit_batch`] shape), moving each result — no payload
    /// copies, and callable outside any kernel lock (`run_job` hands each
    /// job's payloads back here).
    pub fn into_results(self) -> Vec<SysResult<BatchOut>> {
        self.table.into_results()
    }
}

/// Move a result table into slot order. `EINVAL` fills any slot that never
/// completed (only an unfinished run has one; defensive).
pub(crate) fn into_slots(results: Vec<Option<SysResult<BatchOut>>>) -> Vec<SysResult<BatchOut>> {
    results
        .into_iter()
        .map(|r| r.unwrap_or(Err(Errno::EINVAL)))
        .collect()
}

impl Kernel {
    /// Execute the next ready wave of `run` under a per-wave batch-state
    /// installation, releasing the amortized state before returning (so a
    /// shared-kernel worker can drop the kernel lock between waves).
    /// Returns whether waves remain. `EINVAL` while another submission's
    /// batch state is live on this kernel.
    pub fn sched_run_wave(&mut self, run: &mut ScheduledRun) -> SysResult<bool> {
        if run.ctx.is_none() {
            // First call: install even when the batch has zero waves, so
            // the liveness check (`ESRCH`), the `batches` stat, and the
            // audit context match `submit_batch` of the same batch.
            let guard = BatchGuard::install(self, run.pid)?;
            KernelStats::bump(&guard.k.stats.batches);
            // The audit span reports the context the entries ran under,
            // even if the process is reclaimed before the run finishes.
            run.ctx = Some(guard.ctx());
            if !run.finished() {
                guard.k.exec_next_wave(run.pid, &run.batch, &mut run.table);
            }
            return Ok(!run.finished());
        }
        if run.finished() {
            return Ok(false);
        }
        let guard = BatchGuard::install(self, run.pid)?;
        guard.k.exec_next_wave(run.pid, &run.batch, &mut run.table);
        drop(guard);
        Ok(!run.finished())
    }

    /// Deliver a finished run's audit span (the only step that needs the
    /// kernel). `EINVAL` if waves remain. `run_job` calls this under the
    /// kernel lock and then moves the results out with
    /// [`ScheduledRun::into_results`] outside it. The span carries the
    /// context captured when the run's first wave installed — not a
    /// re-read — so a process reclaimed between last wave and audit still
    /// gets its span, attributed to the credentials the entries were
    /// checked under.
    pub fn sched_audit(&mut self, run: &ScheduledRun) -> SysResult<()> {
        if !run.finished() {
            return Err(Errno::EINVAL);
        }
        if let Some(ctx) = run.ctx {
            self.audit_batch(ctx, &run.table);
        }
        Ok(())
    }

    /// One audit span per batch, for both scheduled forms: per-entry
    /// outcomes in slot order (`None` = success) and per-wave timing
    /// (zeros unless the wave trace site is armed). A subject that
    /// [`Kernel::unconfined`] skips gets none.
    pub(crate) fn audit_batch(&self, ctx: crate::mac::MacCtx, table: &WaveTable) {
        if self.unconfined(ctx.pid) {
            return;
        }
        let outcomes: Vec<Option<Errno>> = table
            .results
            .iter()
            .map(|r| match r {
                Some(Err(e)) => Some(*e),
                _ => None,
            })
            .collect();
        for p in self.policies() {
            p.batch_complete(ctx, &outcomes, &table.dag, &table.wave_ns);
        }
    }

    /// The wave executor shared by [`Kernel::submit_batch`] and the
    /// stepped path: execute `table`'s next wave. Cancelled slots complete
    /// immediately with `ECANCELED`; live slots execute in ascending slot
    /// order within the wave. Requires installed batch state. Records the
    /// wave's execution duration in nanoseconds when the tracing plane's
    /// wave site is armed, 0 otherwise — the off path never reads the
    /// clock.
    pub(crate) fn exec_next_wave(&mut self, pid: Pid, batch: &SyscallBatch, table: &mut WaveTable) {
        let wave = table.wave_ns.len();
        let WaveTable {
            dag,
            results,
            wave_ns,
        } = table;
        KernelStats::bump(&self.stats.sched_waves);
        let _wave_span = self.trace_span(crate::trace::TraceSite::Wave, pid.0 as u64, wave as u64);
        let wave_t0 = self
            .trace_wants(crate::trace::TraceSite::Wave)
            .then(std::time::Instant::now);
        // Out-of-order accounting: each already-completed slot with a
        // *larger* index than an executing slot is one submission-order
        // inversion. Slots executed earlier in *this* wave always have
        // smaller indices (within-wave order is ascending), so only prior
        // waves' completions can invert — count them in each prior wave,
        // which is sorted.
        let mut syscall_span = None;
        for &slot in dag.wave(wave) {
            let r = if dag.should_cancel(slot, batch.fail_mode, results) {
                KernelStats::bump(&self.stats.sched_cancelled_cone);
                Err(Errno::ECANCELED)
            } else if let Err(e) = self.fault_batch_entry(pid, slot) {
                // Slot-keyed injection: the same entry fails here as in
                // the sequential oracle, no matter which wave or worker
                // runs it — execution order never changes the fault
                // schedule.
                Err(e)
            } else {
                KernelStats::bump(&self.stats.batch_entries);
                // Per-entry dispatch span, chained across the wave: with
                // the sequential oracle's loop in `crate::batch`, this
                // covers syscall dispatch in every execution mode.
                self.chain_syscall_span(&mut syscall_span, pid, slot);
                self.exec_entry(pid, &batch.entries[slot], results)
            };
            let inversions: usize = (0..wave)
                .map(|w| dag.wave(w))
                .map(|prior| prior.len() - prior.partition_point(|&s| s < slot))
                .sum();
            KernelStats::add(&self.stats.sched_reorders, inversions as u64);
            results[slot] = Some(r);
        }
        drop(syscall_span);
        wave_ns.push(wave_t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchArg, BatchEntry, BatchFd};
    use crate::types::OpenFlags;
    use shill_vfs::{Cred, Gid, Mode, Uid};

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        k.fs.mkdir_p("/w/sub", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        for i in 0..3 {
            k.fs.put_file(
                &format!("/w/sub/f{i}"),
                format!("data-{i}").as_bytes(),
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
    fn waves_layer_by_longest_dependency_chain() {
        let batch = SyscallBatch::new(vec![
            BatchEntry::Open {
                dirfd: None,
                path: "/w/sub/f0".into(),
                flags: OpenFlags::RDONLY,
                mode: Mode(0),
            },
            stat_entry("/w/sub/f1"), // independent
            BatchEntry::Read {
                fd: BatchFd::FromEntry(0),
                len: 64,
            },
            BatchEntry::Close {
                fd: BatchFd::FromEntry(0),
            },
        ])
        .after(3, 2);
        let dag = BatchDag::build(&batch).unwrap();
        assert_eq!(dag.waves().collect::<Vec<_>>(), [&[0, 1][..], &[2], &[3]]);
    }

    #[test]
    fn flat_abort_batch_layers_as_a_linear_chain() {
        let batch = SyscallBatch::aborting(vec![
            stat_entry("/w/sub/f0"),
            stat_entry("/w/sub/f1"),
            stat_entry("/w/sub/f2"),
        ]);
        let dag = BatchDag::build(&batch).unwrap();
        assert_eq!(dag.waves().collect::<Vec<_>>(), [&[0][..], &[1], &[2]]);
        // A flat Continue batch stays one wave (fully independent).
        let flat = SyscallBatch::new(vec![stat_entry("/w/sub/f0"), stat_entry("/w/sub/f1")]);
        let dag = BatchDag::build(&flat).unwrap();
        assert_eq!(dag.waves().collect::<Vec<_>>(), [&[0, 1][..]]);
    }

    #[test]
    fn scheduled_reorders_independent_entries_and_matches_sequential() {
        let (mut k, pid) = setup();
        k.stats.reset();
        // Chain: open f0 → read → close. Independent stats of f1/f2 land in
        // wave 0 and overtake the chain's later links.
        let batch = SyscallBatch::new(vec![
            BatchEntry::Open {
                dirfd: None,
                path: "/w/sub/f0".into(),
                flags: OpenFlags::RDONLY,
                mode: Mode(0),
            },
            BatchEntry::Read {
                fd: BatchFd::FromEntry(0),
                len: 64,
            },
            BatchEntry::Close {
                fd: BatchFd::FromEntry(0),
            },
            stat_entry("/w/sub/f1"),
            stat_entry("/w/sub/f2"),
        ])
        .after(2, 1);
        let scheduled = k.submit_batch(pid, &batch).unwrap();
        let st = k.stats.snapshot();
        assert_eq!(st.sched_waves, 3);
        assert_eq!(
            st.sched_reorders, 4,
            "slots 3 and 4 each overtook slots 1 and 2"
        );
        assert_eq!(st.slot_links, 2);
        assert_eq!(st.charge_calls, 1, "one amortized installation");

        assert_eq!(scheduled[1], Ok(BatchOut::Data(b"data-0".to_vec())));
        let (mut k2, pid2) = setup();
        let sequential = k2.run_sequential(pid2, &batch).unwrap();
        assert_eq!(scheduled, sequential);

        // Execution order: wave 0 = [0, 3, 4], wave 1 = [1], wave 2 = [2].
        let (mut k3, pid3) = setup();
        let mut run = ScheduledRun::prepare(pid3, batch).unwrap();
        while k3.sched_run_wave(&mut run).unwrap() {}
        assert_eq!(run.completed_slots(), &[0, 3, 4, 1, 2]);
    }

    #[test]
    fn abort_cancels_the_dependency_cone_not_every_later_entry() {
        let (mut k, pid) = setup();
        // 0: failing read; 1 data-depends on 0 (cone); 2 depends on 1
        // (transitive cone); 3 independent — must still execute.
        let batch = SyscallBatch::aborting(vec![
            BatchEntry::ReadFile {
                dirfd: None,
                path: "/w/sub/missing".into(),
            },
            BatchEntry::WriteFile {
                dirfd: None,
                path: "/w/sub/out".into(),
                data: BatchArg::OutputOf(0),
                mode: Mode::FILE_DEFAULT,
                append: false,
            },
            stat_entry("/w/sub/out"),
            stat_entry("/w/sub/f1"),
        ])
        .after(2, 1);
        k.stats.reset();
        let out = k.submit_batch(pid, &batch).unwrap();
        assert_eq!(out[0], Err(Errno::ENOENT));
        assert_eq!(out[1], Err(Errno::ECANCELED));
        assert_eq!(out[2], Err(Errno::ECANCELED), "cone is transitive");
        assert!(out[3].is_ok(), "independent entry survives the abort");
        assert_eq!(k.stats.snapshot().sched_cancelled_cone, 2);
        let (mut k2, pid2) = setup();
        assert_eq!(out, k2.run_sequential(pid2, &batch).unwrap());
    }

    #[test]
    fn abort_order_edges_poison_but_continue_order_edges_do_not() {
        for (fail_mode, expect_cancel) in [(FailMode::Abort, true), (FailMode::Continue, false)] {
            let (mut k, pid) = setup();
            let batch = SyscallBatch {
                entries: vec![
                    BatchEntry::ReadFile {
                        dirfd: None,
                        path: "/w/sub/missing".into(),
                    },
                    stat_entry("/w/sub/f0"),
                ],
                fail_mode,
                deps: vec![(1, 0)],
            };
            let out = k.submit_batch(pid, &batch).unwrap();
            assert_eq!(out[0], Err(Errno::ENOENT));
            if expect_cancel {
                assert_eq!(out[1], Err(Errno::ECANCELED), "Abort follows order edges");
            } else {
                assert!(out[1].is_ok(), "Continue order edges only order");
            }
            let (mut k2, pid2) = setup();
            assert_eq!(out, k2.run_sequential(pid2, &batch).unwrap());
        }
    }

    #[test]
    fn steppable_run_matches_one_shot_submission() {
        let build = || {
            SyscallBatch::new(vec![
                BatchEntry::Open {
                    dirfd: None,
                    path: "/w/sub/f0".into(),
                    flags: OpenFlags::RDONLY,
                    mode: Mode(0),
                },
                BatchEntry::Read {
                    fd: BatchFd::FromEntry(0),
                    len: 64,
                },
                stat_entry("/w/sub/f2"),
                BatchEntry::Close {
                    fd: BatchFd::FromEntry(0),
                },
            ])
            .after(3, 1)
        };
        let (mut k, pid) = setup();
        let one_shot = k.submit_batch(pid, &build()).unwrap();

        let (mut k2, pid2) = setup();
        let mut run = ScheduledRun::prepare(pid2, build()).unwrap();
        let mut steps = 0;
        while k2.sched_run_wave(&mut run).unwrap() {
            steps += 1;
        }
        assert_eq!(steps + 1, 3, "three waves stepped");
        assert!(k2.batch.is_none(), "per-wave state released between waves");
        k2.sched_audit(&run).unwrap();
        let stepped = run.into_results();
        assert_eq!(one_shot, stepped);
        assert_eq!(
            k.process(pid).unwrap().cpu_ticks,
            k2.process(pid2).unwrap().cpu_ticks,
            "per-wave tick write-back preserves the cumulative charge"
        );
    }

    #[test]
    fn sched_finish_refuses_unfinished_runs() {
        let (mut k, pid) = setup();
        let batch = SyscallBatch::aborting(vec![stat_entry("/w/sub/f0"), stat_entry("/w/sub/f1")]);
        let mut run = ScheduledRun::prepare(pid, batch).unwrap();
        assert!(k.sched_run_wave(&mut run).unwrap(), "one wave remains");
        assert!(matches!(k.sched_audit(&run), Err(Errno::EINVAL)));
    }

    #[test]
    fn empty_batch_completes_with_no_waves() {
        let (mut k, pid) = setup();
        let out = k.submit_batch(pid, &SyscallBatch::default()).unwrap();
        assert!(out.is_empty());
        assert_eq!(k.stats.snapshot().sched_waves, 0);
    }

    #[test]
    fn steppable_empty_batch_matches_one_shot_semantics() {
        // The stepped path must not skip the liveness check or the `batches`
        // accounting just because a batch has zero waves.
        let (mut k, pid) = setup();
        k.stats.reset();
        let mut run = ScheduledRun::prepare(pid, SyscallBatch::default()).unwrap();
        assert!(!k.sched_run_wave(&mut run).unwrap());
        assert_eq!(k.stats.snapshot().batches, 1);
        k.sched_audit(&run).unwrap();
        assert!(run.into_results().is_empty());

        // A dead process is refused, exactly as submit_batch refuses.
        let ghost = k.spawn_user(Cred::ROOT);
        k.exit(ghost, 0);
        let mut run = ScheduledRun::prepare(ghost, SyscallBatch::default()).unwrap();
        assert_eq!(k.sched_run_wave(&mut run).unwrap_err(), Errno::ESRCH);
        assert_eq!(
            k.submit_batch(ghost, &SyscallBatch::default()).unwrap_err(),
            Errno::ESRCH
        );
    }
}
