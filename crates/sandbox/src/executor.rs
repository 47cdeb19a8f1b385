//! Concurrent session execution: N worker threads, each driving one
//! sandboxed session against a [`KernelShards`] set.
//!
//! The kernel's interior-mutable hot state (stats counters, the AVC,
//! in-flight batch state) is thread-safe (atomics + lock-guarded
//! maps), so whole [`Kernel`]s sit behind per-shard locks
//! ([`KernelShards`]) and sessions pinned to different shards genuinely
//! overlap. The shard set is the only kernel handle the executor takes: one
//! kernel behind one lock is simply the one-shard set
//! ([`KernelShards::from_kernel`]).
//!
//! Execution model: each [`SessionTask`] is the analogue of one `exec`-style
//! sandbox launch. A worker thread sets the sandbox up under its shard's
//! kernel lock (fork, `shill_init`, grants, `shill_enter` — this is where
//! the session is **pinned**: every process it ever holds lives in that
//! shard's process table, so every later crossing routes to that shard),
//! waits on a barrier so every session is entered before any body runs
//! (maximizing interleaving), then drives its body — which takes the shard
//! lock per kernel crossing ([`KernelShards::with_pid`]), exactly as
//! independent processes contend for a real kernel — and finally tears the
//! session down (exit, reap, label scrub + epoch bump), even when the body
//! panics.
//!
//! Consistency under interleaving is inherited from the PR 1/2 invalidation
//! machinery, not re-derived here: every namespace mutation happens *while
//! holding the owning shard's lock*, so the next walk reads the directory
//! as it now is; every authority-shrinking policy event bumps the
//! `ShillPolicy` epoch (an atomic shared by **all** shards — the
//! cross-shard invalidation broadcast) before its state-lock hold ends,
//! and the AVC validates against that fence on the next lock-holder's
//! probe. The lock
//! order is: shard lock(s) first — ascending shard order when a rendezvous
//! takes several — then any interior cache/policy lock; no interior lock is
//! ever held across a shard-lock acquisition. See `docs/concurrency.md`
//! for the full specification.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;

use shill_kernel::{BatchOut, Kernel, KernelShards, Pid, ScheduledRun, SyscallBatch};
use shill_vfs::sync::Mutex;
use shill_vfs::{Cred, Errno, SysResult};

use crate::harness::{setup_sandbox, SandboxSpec};
use crate::policy::ShillPolicy;
use crate::session::SessionId;

/// The work a session performs once entered: kernel crossings on its own
/// pid via [`KernelShards::with_pid`] (which routes to the pinned shard),
/// returning an exit status. Bodies should keep critical sections to single
/// operations so sessions genuinely interleave.
pub type SessionBody = Arc<dyn Fn(&KernelShards, Pid, SessionId) -> i32 + Send + Sync>;

/// One sandboxed session to run on a worker thread.
pub struct SessionTask {
    /// The shard this session lives on (taken modulo the shard count).
    /// Pinning happens at launch: the task's parent process, sandbox
    /// choreography, and every body crossing run against this shard's
    /// kernel.
    pub shard: usize,
    /// Grants, stdio wiring, ulimits — as for [`setup_sandbox`].
    pub spec: SandboxSpec,
    /// The sandboxed "program".
    pub body: SessionBody,
}

/// What one session produced.
#[derive(Debug)]
pub struct SessionOutcome {
    pub session: SessionId,
    pub child: Pid,
    /// The body's exit status, as reaped by the session's parent.
    pub status: i32,
}

/// Run every task as its own sandboxed session on its own worker thread,
/// against one shard set and one policy module. Each task's whole lifecycle
/// (parent spawn, sandbox setup, body, teardown) runs against its pinned
/// shard, so tasks on different shards contend on **no** kernel lock. Each
/// task gets a fresh (unsandboxed) parent process with `parent_cred`; the
/// returned outcomes are in task order. The submission-level `Err` is
/// reserved for setup failures and panicking bodies (a body that fails is
/// just a nonzero status).
pub fn run_sessions(
    shards: &KernelShards,
    policy: &Arc<ShillPolicy>,
    parent_cred: Cred,
    tasks: Vec<SessionTask>,
) -> SysResult<Vec<SessionOutcome>> {
    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let entered = Arc::new(Barrier::new(n));
    let results: Vec<SysResult<SessionOutcome>> = thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                let shard = task.shard % shards.count();
                let policy = Arc::clone(policy);
                let entered = Arc::clone(&entered);
                scope.spawn(move || -> SysResult<SessionOutcome> {
                    // Setup choreography under one lock hold: fork, session
                    // creation, grants, stdio, enter. Failures (and panics)
                    // are captured rather than propagated before the
                    // barrier: every sibling waits on it, so a worker that
                    // bailed early would wedge the other n-1 forever.
                    let setup = {
                        let mut k = shards.lock_shard(shard);
                        let mut parent = None;
                        let launched = catch_unwind(AssertUnwindSafe(|| {
                            let p = *parent.insert(k.spawn_user(parent_cred));
                            setup_sandbox(&mut k, &policy, p, &task.spec).map(|sb| (p, sb))
                        }));
                        if !matches!(launched, Ok(Ok(_))) {
                            // A failed or panicked launch retires what it
                            // created, in the same hold, so it leaves no
                            // process-table residue.
                            if let Some(p) = parent {
                                retire_launch(&mut k, p);
                            }
                            if launched.is_err() {
                                book_survived(&k);
                            }
                        }
                        launched
                    };
                    // Every session entered before any body runs.
                    entered.wait();
                    let (parent, sb) = match setup {
                        Ok(Ok(v)) => v,
                        Ok(Err(e)) => return Err(e),
                        Err(panic) => resume_unwind(panic),
                    };
                    // A panicking body (a failed assertion, an injected
                    // `mac_panic` fault) must not skip the teardown: catch
                    // it, reclaim the session, then re-raise.
                    let body = catch_unwind(AssertUnwindSafe(|| {
                        (task.body)(shards, sb.child, sb.session)
                    }));
                    // Teardown under one lock hold: exit + reap the child
                    // (reclaiming the session: label scrub, epoch bump),
                    // then retire the throwaway parent so repeated
                    // run_sessions calls don't grow the process table.
                    let reaped = {
                        let mut k = shards.lock_shard(shard);
                        if body.is_err() {
                            book_survived(&k);
                        }
                        k.exit(sb.child, body.as_ref().map_or(1, |&status| status));
                        let reaped = k.waitpid(parent, sb.child);
                        k.exit(parent, 0);
                        let _ = k.waitpid(Pid(1), parent);
                        reaped
                    };
                    if let Err(panic) = body {
                        resume_unwind(panic);
                    }
                    Ok(SessionOutcome {
                        session: sb.session,
                        child: sb.child,
                        status: reaped?,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(Errno::EINVAL)))
            .collect()
    });
    results.into_iter().collect()
}

/// Retire a launch's throwaway `parent` together with any child a failed
/// or panicked setup left behind (the child's exit also reclaims its
/// session's labels; the parent's exit reaps the child's zombie).
fn retire_launch(k: &mut Kernel, parent: Pid) {
    let children = k
        .process(parent)
        .map(|p| p.children.clone())
        .unwrap_or_default();
    for child in children {
        k.exit(child, 127);
    }
    k.exit(parent, 0);
    let _ = k.waitpid(Pid(1), parent);
}

/// Book a panic caught at a containment boundary as survived on `k`'s
/// fault plane, if one is armed — keeping `faults_injected ==
/// faults_survived` the no-escape invariant.
fn book_survived(k: &Kernel) {
    if let Some(plane) = k.fault_plane() {
        plane.book_survived();
    }
}

/// One scheduled submission for the batch worker pool: which process
/// submits, what, and which other shards its waves must be ordered against.
pub struct BatchJob {
    /// The submitting process; its pid pins the job to a shard.
    pub pid: Pid,
    /// The dependency-aware batch to execute.
    pub batch: SyscallBatch,
    /// Extra shards each wave must fence. Empty means shard-local: the
    /// overwhelming case, where every wave takes only the pinned shard's
    /// lock. A non-empty fence makes every wave pay a rendezvous that
    /// holds these shards' locks (plus the pid's own) in ascending order,
    /// totally ordering it against their waves — e.g. a namespace mutation
    /// feeding a shared-policy revocation that sessions on other shards
    /// must not outrun. Every entry must be a valid shard index: an
    /// out-of-range entry panics the job's worker slot rather than
    /// silently running the job unfenced.
    pub fence: Vec<usize>,
}

/// One unit of work fed to a pool worker: the job, the shard set to run it
/// against, and where to deliver the result.
struct PoolTask {
    shards: KernelShards,
    idx: usize,
    job: BatchJob,
    done: mpsc::Sender<(usize, SysResult<Vec<SysResult<BatchOut>>>)>,
}

/// Pool bookkeeping shared by producers ([`BatchPool::run`]) and workers.
/// The single job channel of the earlier pool is replaced by one deque
/// **per worker** plus work stealing, so shard-affine jobs land on the
/// worker that last executed that shard's traffic (warm shard lock, warm
/// caches) and only overflow migrates.
struct PoolShared {
    /// Per-worker job deques. The owner pops its own **front**; a starving
    /// worker steals from a victim's **back** — the end furthest from what
    /// the owner touches next, classic work-stealing order.
    queues: Vec<Mutex<std::collections::VecDeque<PoolTask>>>,
    /// Wait-state guarded by one small mutex: producers bump `queued`
    /// *before* publishing a task, workers decrement after taking one, so
    /// `queued == 0` under this lock really means "nothing in flight".
    state: Mutex<PoolState>,
    /// Workers park here when every deque is dry and the pool is open.
    cv: std::sync::Condvar,
    /// Jobs taken from another worker's deque (the pool-side steal count;
    /// the kernel-side [`StatsSnapshot::pool_steals`] is booked per shard
    /// under the stolen job's first wave lock and can only lag this —
    /// a stolen job whose DAG validation fails never touches a shard).
    steals: std::sync::atomic::AtomicU64,
}

struct PoolState {
    closed: bool,
    queued: usize,
}

/// Per-worker scratch reused across jobs: a cross-shard job's fence
/// declaration is normalized once per job ([`KernelShards::fence_set`])
/// into this buffer, and every wave's multi-lock acquisition then runs
/// allocation- and sort-free ([`KernelShards::fenced_ordered`]).
#[derive(Default)]
struct WorkerArena {
    fence: Vec<usize>,
}

/// A **persistent** worker pool executing scheduled batches from
/// (typically) different sessions against a sharded kernel. Workers are
/// spawned once at construction, fed through a channel, and joined
/// (after draining the queue) on drop — `BatchPool::run` no longer pays a
/// per-call `thread::scope` spawn, the cost the PR 4 ablation flagged.
///
/// Where `run_sessions` bodies hold their shard's lock for every crossing
/// of one session, the pool's workers acquire locks **per dependency
/// wave**: DAG validation ([`ScheduledRun::prepare`]), moving the results
/// out, and payload handling all happen outside any kernel lock.
/// Wave classification is the sharding dispatch layer:
///
/// * a **shard-local** job's waves route straight to the pinned shard's
///   lock, so jobs of sessions on different shards genuinely overlap;
/// * a **cross-shard** job's waves each pay an explicit rendezvous
///   ([`KernelShards::fenced`]) that holds every touched shard's lock in
///   ascending order for the wave's duration.
///
/// Lock order: shard lock(s) per wave, released before any pool
/// bookkeeping (channel sends, result collection) — no interior lock is
/// ever held across a shard-lock acquisition.
pub struct BatchPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl BatchPool {
    /// Spawn a pool of `workers` persistent threads (at least one). Each
    /// worker owns a deque; threads idle on the pool condvar until
    /// [`BatchPool::run`] feeds them, and exit when the pool drops. A
    /// worker drains its **own** deque first and steals from siblings only
    /// when it runs dry, so shard affinity holds exactly as long as the
    /// affine worker keeps up.
    pub fn new(workers: usize) -> BatchPool {
        let n = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..n)
                .map(|_| Mutex::new(std::collections::VecDeque::new()))
                .collect(),
            state: Mutex::new(PoolState {
                closed: false,
                queued: 0,
            }),
            cv: std::sync::Condvar::new(),
            steals: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..n)
            .map(|me| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || Self::worker_loop(&shared, me))
            })
            .collect();
        BatchPool { shared, workers }
    }

    fn worker_loop(shared: &PoolShared, me: usize) {
        let mut arena = WorkerArena::default();
        let n = shared.queues.len();
        loop {
            // Own deque first (front: submission order); hold each deque
            // lock only for the pop — the job runs with pool bookkeeping
            // released.
            let mut found = shared.queues[me].lock().pop_front().map(|t| (t, false));
            if found.is_none() {
                // Dry: steal from a sibling's back. Scan order starts at
                // the next worker so victims rotate instead of piling onto
                // worker 0.
                for off in 1..n {
                    let victim = (me + off) % n;
                    if let Some(t) = shared.queues[victim].lock().pop_back() {
                        shared
                            .steals
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        found = Some((t, true));
                        break;
                    }
                }
            }
            let Some((task, stolen)) = found else {
                let st = shared.state.lock();
                if st.queued > 0 {
                    // A producer has announced a task it hasn't finished
                    // publishing (or a sibling popped between our scan and
                    // this lock): rescan rather than sleep through it.
                    drop(st);
                    thread::yield_now();
                    continue;
                }
                if st.closed {
                    break;
                }
                let _unused = shared
                    .cv
                    .wait(st)
                    .unwrap_or_else(|poison| poison.into_inner());
                continue;
            };
            shared.state.lock().queued -= 1;
            let PoolTask {
                shards,
                idx,
                job,
                done,
            } = task;
            // A panicking policy module must cost one job (its slot
            // reports EINVAL, as the scoped pool's join did), not a pool
            // worker for the process lifetime.
            let job_pid = job.pid;
            let r = catch_unwind(AssertUnwindSafe(|| {
                Self::run_one(&shards, job, stolen, &mut arena)
            }))
            .unwrap_or_else(|_| {
                // Containment bookkeeping, under the home shard's lock
                // (released by the unwind — the sync shim never poisons):
                // the wave that died is booked as a cancellation, any
                // batch state the drop-guard could not reach is cleared so
                // the shard stays usable, and an armed fault plane records
                // the panic as survived — keeping `faults_injected ==
                // faults_survived` the no-escape invariant.
                let home = shards.shard_of(job_pid);
                shards.with_shard(home, |k| {
                    k.abort_stale_batch();
                    shill_kernel::KernelStats::bump(&k.stats.sched_cancelled_cone);
                    book_survived(k);
                });
                Err(Errno::EINVAL)
            });
            // The result send is the "job done" edge: no kernel handle may
            // outlive it, so a caller that saw every result can immediately
            // recover sole ownership of the shard set (the reuse
            // regression pins this).
            drop(shards);
            let _ = done.send((idx, r));
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs executed by a worker other than the one they were routed to,
    /// over the pool's lifetime. Zero while every affine worker keeps up
    /// with its own shard's traffic; growth is the load-imbalance signal
    /// (and the proof, in tests, that stealing actually engaged).
    pub fn steals(&self) -> u64 {
        self.shared
            .steals
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Execute jobs against a shard set, returning each job's slot-ordered
    /// results (the [`Kernel::submit_batch`] shape) in job order. A job's
    /// `Err` is its submission-level failure (malformed DAG, dead process,
    /// a contained panic); per-entry failures live in its slots.
    /// Shard-local jobs of different shards overlap wave-for-wave; fenced
    /// jobs rendezvous. The pool may be reused across
    /// calls and across different shard sets — workers hold a shard-set
    /// handle only while executing a job of it (the reuse regression test
    /// pins this down: a drained pool holds no kernel, session, or batch
    /// state).
    ///
    /// Routing: on a multi-shard set, a job goes to the deque of worker
    /// `shard_of(pid) % workers` — jobs of one shard queue behind each
    /// other on the worker whose caches that shard's traffic last warmed,
    /// and contend for its shard lock from one thread instead of several.
    /// On a single-shard set there is no affinity to exploit, so jobs
    /// round-robin. Either way, idle workers steal the overflow.
    pub fn run(
        &self,
        shards: &KernelShards,
        jobs: Vec<BatchJob>,
    ) -> Vec<SysResult<Vec<SysResult<BatchOut>>>> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.len();
        let affine = shards.count() > 1;
        let (done_tx, done_rx) = mpsc::channel();
        let mut out: Vec<SysResult<Vec<SysResult<BatchOut>>>> =
            (0..n).map(|_| Err(Errno::EINVAL)).collect();
        for (idx, job) in jobs.into_iter().enumerate() {
            let target = if affine {
                shards.shard_of(job.pid) % workers
            } else {
                idx % workers
            };
            let task = PoolTask {
                shards: shards.clone(),
                idx,
                job,
                done: done_tx.clone(),
            };
            // Announce before publishing: a worker that sees `queued > 0`
            // with an empty scan knows to rescan, never to sleep.
            self.shared.state.lock().queued += 1;
            self.shared.queues[target].lock().push_back(task);
            self.shared.cv.notify_one();
        }
        drop(done_tx);
        for (idx, r) in done_rx.iter().take(n) {
            out[idx] = r;
        }
        out
    }

    /// Drive one job: validate outside any lock, execute wave by wave
    /// acquiring the pinned shard's lock (or the fence's rendezvous) once
    /// per wave, audit under the same discipline, and move the slot-ordered
    /// results out (the payloads move, never copy) outside it. A stolen job
    /// books one `pool_steals` on its home shard inside its first wave
    /// hold, so the per-shard stat split shows whose traffic overflowed.
    fn run_one(
        shards: &KernelShards,
        job: BatchJob,
        stolen: bool,
        arena: &mut WorkerArena,
    ) -> SysResult<Vec<SysResult<BatchOut>>> {
        let BatchJob { pid, batch, fence } = job;
        let home = shards.shard_of(pid);
        let fenced = !fence.is_empty();
        if fenced {
            // Normalize the fence once per job; every wave then acquires
            // the pre-ordered set without sorting or allocating.
            shards.fence_set(home, &fence, &mut arena.fence);
        }
        let entries = batch.entries.len() as u64;
        let mut run = ScheduledRun::prepare(pid, batch)?;
        let mut credit_steal = stolen;
        // The pool steps waves directly and never passes through
        // `submit_batch`, so open the batch-site span here: it covers the
        // whole job, across every wave and any lock release between them.
        let mut batch_span: Option<shill_kernel::TraceScope> = None;
        {
            let mut wave = |k: &mut Kernel, run: &mut ScheduledRun| {
                if credit_steal {
                    shill_kernel::KernelStats::bump(&k.stats.pool_steals);
                    k.trace_instant(
                        shill_kernel::TraceSite::Steal,
                        pid.0 as u64,
                        0,
                        "pool_steal",
                    );
                    credit_steal = false;
                }
                if batch_span.is_none() {
                    if let Some(plane) = k.trace_plane_handle() {
                        batch_span =
                            plane.span(shill_kernel::TraceSite::Batch, pid.0 as u64, entries);
                    }
                }
                k.sched_run_wave(run)
            };
            loop {
                let more = if fenced {
                    shards.fenced_ordered(home, &arena.fence, |k| wave(k, &mut run))?
                } else {
                    shards.with_shard(home, |k| wave(k, &mut run))?
                };
                if !more {
                    break;
                }
            }
        }
        // End the span before the audit: the histogram measures execution,
        // not bookkeeping.
        drop(batch_span);
        if fenced {
            shards.fenced_ordered(home, &arena.fence, |k| k.sched_audit(&run))?;
        } else {
            shards.with_shard(home, |k| k.sched_audit(&run))?;
        }
        Ok(run.into_results())
    }
}

impl Drop for BatchPool {
    /// Drain on drop: close the pool (workers finish every task already
    /// deposited — results of an in-flight `run` on another thread still
    /// arrive), wake all sleepers, and join every worker.
    fn drop(&mut self) {
        self.shared.state.lock().closed = true;
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_cap::{CapPrivs, Priv, PrivSet};
    use shill_kernel::OpenFlags;
    use shill_vfs::{Gid, Mode, Uid};

    use crate::harness::Grant;

    fn caps(privs: &[Priv]) -> CapPrivs {
        CapPrivs::of(PrivSet::of(privs))
    }

    #[test]
    fn four_sessions_run_concurrently_and_stay_confined() {
        // All four sessions on one shard: the single-lock kernel.
        four_confined_sessions_across(1);
    }

    #[test]
    fn sharded_sessions_run_pinned_and_confined() {
        // The same four sessions pinned two per shard across two shards.
        four_confined_sessions_across(2);
    }

    /// Run four sandboxed sessions spread evenly over `nshards` shards, each
    /// reading its own file and denied its same-shard sibling's, and check
    /// every session passes, stays on its pinned shard without a
    /// rendezvous, and leaves no label residue.
    fn four_confined_sessions_across(nshards: usize) {
        let per_shard = 4 / nshards;
        let policy = ShillPolicy::new();
        let shards = KernelShards::new_with(nshards, |k, s| {
            for i in 0..per_shard {
                k.fs.put_file(
                    &format!("/work/s{i}/data.txt"),
                    format!("shard-{s}-sess-{i}").as_bytes(),
                    Mode(0o666),
                    Uid::ROOT,
                    Gid::WHEEL,
                )
                .unwrap();
            }
        });
        shards.register_policy(policy.clone());
        let before = shards.rendezvous_count();

        let leaf = caps(&[Priv::Read, Priv::Stat, Priv::Path]);
        let tasks: Vec<SessionTask> = (0..4usize)
            .map(|t| {
                let (shard, i) = (t % nshards, t / nshards);
                // Grants are resolved against the pinned shard's
                // namespace.
                let (root, work, dir) = shards.with_shard(shard, |k| {
                    (
                        k.fs.root(),
                        k.fs.resolve_abs("/work").unwrap(),
                        k.fs.resolve_abs(&format!("/work/s{i}")).unwrap(),
                    )
                });
                let spec = SandboxSpec {
                    grants: vec![
                        Grant::vnode(root, caps(&[Priv::Lookup])),
                        Grant::vnode(work, caps(&[Priv::Lookup])),
                        Grant::vnode(
                            dir,
                            caps(&[Priv::Lookup]).with_modifier(Priv::Lookup, leaf.clone()),
                        ),
                    ],
                    ..Default::default()
                };
                let body: SessionBody = Arc::new(move |sk: &KernelShards, pid, _sid| {
                    assert_eq!(sk.shard_of(pid), shard, "body runs on its pinned shard");
                    for _ in 0..50 {
                        // Own file: readable.
                        let ok = sk.with_pid(pid, |k| {
                            assert_eq!(k.shard_index(), shard);
                            let fd = k.open(
                                pid,
                                &format!("/work/s{i}/data.txt"),
                                OpenFlags::RDONLY,
                                Mode(0),
                            )?;
                            let data = k.read(pid, fd, 64)?;
                            k.close(pid, fd)?;
                            Ok::<_, Errno>(data)
                        });
                        if ok != Ok(format!("shard-{shard}-sess-{i}").into_bytes()) {
                            eprintln!("session {t}: bad read {ok:?}");
                            return 1;
                        }
                        // A sibling session's file on the same shard
                        // must stay denied, whatever runs elsewhere.
                        let peer = (i + 1) % per_shard;
                        let denied = sk.with_pid(pid, |k| {
                            k.open(
                                pid,
                                &format!("/work/s{peer}/data.txt"),
                                OpenFlags::RDONLY,
                                Mode(0),
                            )
                        });
                        if denied != Err(Errno::EACCES) {
                            eprintln!("session {t}: isolation breach {denied:?}");
                            return 2;
                        }
                    }
                    0
                });
                SessionTask { shard, spec, body }
            })
            .collect();

        let outcomes = run_sessions(&shards, &policy, Cred::user(100), tasks).unwrap();
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert_eq!(
                o.status, 0,
                "session {:?} failed ({nshards} shards)",
                o.session
            );
        }
        assert_eq!(
            shards.rendezvous_count(),
            before,
            "pinned sessions are shard-local end to end"
        );
        // All sessions reclaimed: no label residue.
        assert_eq!(policy.label_entries(), 0);
    }

    #[test]
    fn failed_setup_neither_hangs_nor_leaks_processes() {
        let mut kernel = Kernel::new();
        let policy = ShillPolicy::new();
        kernel.register_policy(policy.clone());
        let shards = KernelShards::from_kernel(kernel);
        let before = shards.with_shard(0, |k| k.process_count());

        let ok_body: SessionBody = Arc::new(|_sk: &KernelShards, _pid, _sid| 0);
        let tasks = vec![
            SessionTask {
                shard: 0,
                spec: SandboxSpec::default(),
                body: Arc::clone(&ok_body),
            },
            SessionTask {
                shard: 0,
                // stdin names a descriptor the parent does not hold: the
                // spawn inside setup_sandbox fails before any child exists.
                spec: SandboxSpec {
                    stdin: Some(shill_kernel::Fd(999)),
                    ..Default::default()
                },
                body: ok_body,
            },
        ];
        // The failure must surface as an error — a worker bailing before
        // the start barrier used to wedge its siblings forever.
        let r = run_sessions(&shards, &policy, Cred::user(100), tasks);
        assert_eq!(r.unwrap_err(), Errno::EBADF);
        // Both the failed launch and the successful session retired every
        // process they created (parents included), and the half-built
        // session's labels were reclaimed.
        assert_eq!(shards.with_shard(0, |k| k.process_count()), before);
        assert_eq!(policy.label_entries(), 0);
    }

    #[test]
    fn panicking_body_neither_leaks_processes_nor_labels() {
        let mut kernel = Kernel::new();
        let policy = ShillPolicy::new();
        kernel.register_policy(policy.clone());
        kernel
            .fs
            .put_file("/work/data.txt", b"x", Mode(0o666), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let root = kernel.fs.root();
        let file = kernel.fs.resolve_abs("/work/data.txt").unwrap();
        let shards = KernelShards::from_kernel(kernel);
        let before = shards.with_shard(0, |k| k.process_count());

        // Granted sessions hold labels while live, so a skipped reclaim
        // shows up as label residue as well as process-table residue.
        let spec = || SandboxSpec {
            grants: vec![
                Grant::vnode(root, caps(&[Priv::Lookup])),
                Grant::vnode(file, caps(&[Priv::Read, Priv::Stat])),
            ],
            ..Default::default()
        };
        let tasks = vec![
            SessionTask {
                shard: 0,
                spec: spec(),
                body: Arc::new(|_sk: &KernelShards, _pid, _sid| 0),
            },
            SessionTask {
                shard: 0,
                spec: spec(),
                // What a failed `assert!` in a body, or an injected
                // `mac_panic` fault on one of its crossings, amounts to.
                body: Arc::new(|_sk: &KernelShards, _pid, _sid| panic!("body gave up")),
            },
        ];
        let r = run_sessions(&shards, &policy, Cred::user(100), tasks);
        assert_eq!(r.unwrap_err(), Errno::EINVAL, "the panic surfaces");
        // Both sessions were torn down: child exited and reaped, parent
        // retired, labels scrubbed.
        assert_eq!(shards.with_shard(0, |k| k.process_count()), before);
        assert_eq!(policy.label_entries(), 0);
    }

    #[test]
    fn injected_setup_and_body_panics_are_retired_and_booked_survived() {
        let mut kernel = Kernel::new();
        let policy = ShillPolicy::new();
        kernel.register_policy(policy.clone());
        kernel
            .fs
            .put_file("/work/data.txt", b"x", Mode(0o666), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let root = kernel.fs.root();
        let file = kernel.fs.resolve_abs("/work/data.txt").unwrap();
        let shards = KernelShards::from_kernel(kernel);
        let before = shards.with_shard(0, |k| k.process_count());
        let task = |body: SessionBody| SessionTask {
            shard: 0,
            spec: SandboxSpec {
                grants: vec![
                    Grant::vnode(root, caps(&[Priv::Lookup])),
                    Grant::vnode(file, caps(&[Priv::Read, Priv::Stat])),
                ],
                ..Default::default()
            },
            body,
        };

        // Setup panic: pid allocation 1 is the throwaway parent, 2 the
        // sandbox child.
        shards.set_fault_plane(Some("alloc_pid@2=panic"));
        let r = run_sessions(
            &shards,
            &policy,
            Cred::user(100),
            vec![task(Arc::new(|_sk: &KernelShards, _pid, _sid| 0))],
        );
        assert_eq!(r.unwrap_err(), Errno::EINVAL, "the setup panic surfaces");
        assert_eq!(
            shards.with_shard(0, |k| k.process_count()),
            before,
            "the panicked launch leaked its parent"
        );
        let setup = shards.stats();
        assert_eq!(setup.faults_injected, 1);
        assert_eq!(
            setup.faults_survived, setup.faults_injected,
            "setup panic not booked"
        );

        // Body panic: an injected policy panic on the body's first vnode
        // check.
        shards.set_fault_plane(None);
        let r = run_sessions(
            &shards,
            &policy,
            Cred::user(100),
            vec![task(Arc::new(|sk: &KernelShards, pid, _sid| {
                sk.with_pid(pid, |k| {
                    let plane = shill_kernel::FaultPlane::parse("mac_panic@1=panic").unwrap();
                    k.set_fault_plane(Some(plane));
                    let _ = k.open(pid, "/work/data.txt", OpenFlags::RDONLY, Mode(0));
                });
                0
            }))],
        );
        assert_eq!(r.unwrap_err(), Errno::EINVAL, "the body panic surfaces");
        // The counters are cumulative over the shard's lifetime.
        let body = shards.stats();
        assert_eq!(body.faults_injected, 2);
        assert_eq!(
            body.faults_survived, body.faults_injected,
            "body panic not booked"
        );
        assert_eq!(shards.with_shard(0, |k| k.process_count()), before);
        assert_eq!(policy.label_entries(), 0);
    }

    #[test]
    fn batch_pool_executes_scheduled_jobs_per_wave_and_stays_confined() {
        use shill_kernel::{BatchArg, BatchEntry, BatchFd, SyscallBatch};

        let mut kernel = Kernel::new();
        let policy = ShillPolicy::new();
        kernel.register_policy(policy.clone());
        for i in 0..4 {
            // World-writable session dirs: the sandboxed child (uid 100)
            // creates its copy there; confinement is the MAC policy's job.
            kernel
                .fs
                .mkdir_p(&format!("/work/s{i}"), Mode(0o777), Uid::ROOT, Gid::WHEEL)
                .unwrap();
            kernel
                .fs
                .put_file(
                    &format!("/work/s{i}/data.txt"),
                    format!("payload-{i}").as_bytes(),
                    Mode(0o666),
                    Uid::ROOT,
                    Gid::WHEEL,
                )
                .unwrap();
        }
        let root = kernel.fs.root();
        let work = kernel.fs.resolve_abs("/work").unwrap();
        let user = kernel.spawn_user(Cred::user(100));
        let leaf = caps(&[
            Priv::Read,
            Priv::Write,
            Priv::Append,
            Priv::Truncate,
            Priv::Stat,
            Priv::Path,
            Priv::CreateFile,
        ]);
        // One sandboxed session per subtree, each submitting a fused
        // open→read→close + copy pipeline as one scheduled job.
        let mut children = Vec::new();
        for i in 0..4 {
            let dir = kernel.fs.resolve_abs(&format!("/work/s{i}")).unwrap();
            let spec = SandboxSpec {
                grants: vec![
                    Grant::vnode(root, caps(&[Priv::Lookup])),
                    Grant::vnode(work, caps(&[Priv::Lookup])),
                    Grant::vnode(
                        dir,
                        caps(&[Priv::Lookup, Priv::CreateFile])
                            .with_modifier(Priv::Lookup, leaf.clone())
                            .with_modifier(Priv::CreateFile, leaf.clone()),
                    ),
                ],
                ..Default::default()
            };
            let sb = setup_sandbox(&mut kernel, &policy, user, &spec).unwrap();
            children.push(sb.child);
        }
        let shards = KernelShards::from_kernel(kernel);

        let job = |i: usize, pid: Pid| BatchJob {
            pid,
            batch: SyscallBatch::aborting(vec![
                BatchEntry::Open {
                    dirfd: None,
                    path: format!("/work/s{i}/data.txt"),
                    flags: OpenFlags::RDONLY,
                    mode: Mode(0),
                },
                BatchEntry::Read {
                    fd: BatchFd::FromEntry(0),
                    len: 64,
                },
                BatchEntry::WriteFile {
                    dirfd: None,
                    path: format!("/work/s{i}/copy.txt"),
                    data: BatchArg::OutputOf(1),
                    mode: Mode(0o666),
                    append: false,
                },
                BatchEntry::Close {
                    fd: BatchFd::FromEntry(0),
                },
            ])
            .after(3, 1),
            // A job probing a NEIGHBOUR's subtree must stay denied even
            // when its waves interleave with the owner's under the pool.
            fence: Vec::new(),
        };
        let mut jobs: Vec<BatchJob> = (0..4).map(|i| job(i, children[i])).collect();
        for (i, &child) in children.iter().enumerate() {
            jobs.push(BatchJob {
                pid: child,
                batch: SyscallBatch::single(BatchEntry::ReadFile {
                    dirfd: None,
                    path: format!("/work/s{}/data.txt", (i + 1) % 4),
                }),
                fence: Vec::new(),
            });
        }

        let results = BatchPool::new(4).run(&shards, jobs);
        assert_eq!(results.len(), 8);
        for (i, r) in results[..4].iter().enumerate() {
            let slots = r.as_ref().unwrap();
            assert!(slots.iter().all(|s| s.is_ok()), "job {i}: {slots:?}");
        }
        for (i, r) in results[4..].iter().enumerate() {
            let slots = r.as_ref().unwrap();
            assert_eq!(slots[0], Err(Errno::EACCES), "job {i} isolation breach");
        }
        // The fused copies landed.
        for (i, &child) in children.iter().enumerate() {
            let data = shards.with_pid(child, |k| {
                k.submit_single(
                    child,
                    BatchEntry::ReadFile {
                        dirfd: None,
                        path: format!("/work/s{i}/copy.txt"),
                    },
                )
            });
            assert_eq!(
                data.unwrap(),
                shill_kernel::BatchOut::Data(format!("payload-{i}").into_bytes())
            );
        }
        // No batch state may leak past the pool run.
        assert!(!shards.with_shard(0, |k| k.batch_in_flight()));
    }

    /// One confined sandbox per shard, reading its shard-local file.
    fn sharded_fixture(shards: &KernelShards, policy: &Arc<ShillPolicy>) -> Vec<(Pid, Pid)> {
        (0..shards.count())
            .map(|s| {
                let mut k = shards.lock_shard(s);
                let root = k.fs.root();
                let dir = k.fs.resolve_abs("/work").unwrap();
                let file = k.fs.resolve_abs("/work/data.txt").unwrap();
                let parent = k.spawn_user(Cred::user(100));
                let spec = SandboxSpec {
                    grants: vec![
                        Grant::vnode(root, caps(&[Priv::Lookup])),
                        Grant::vnode(dir, caps(&[Priv::Lookup])),
                        Grant::vnode(file, caps(&[Priv::Read, Priv::Stat])),
                    ],
                    ..Default::default()
                };
                let sb = setup_sandbox(&mut k, policy, parent, &spec).unwrap();
                (parent, sb.child)
            })
            .collect()
    }

    fn populate_shard(k: &mut Kernel, s: usize) {
        k.fs.put_file(
            "/work/data.txt",
            format!("shard-{s}").as_bytes(),
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }

    /// A shard-local job reading the fixture file.
    fn read_job(pid: Pid) -> BatchJob {
        BatchJob {
            pid,
            batch: SyscallBatch::single(shill_kernel::BatchEntry::ReadFile {
                dirfd: None,
                path: "/work/data.txt".into(),
            }),
            fence: Vec::new(),
        }
    }

    #[test]
    fn persistent_pool_is_reusable_and_leaks_nothing_across_runs() {
        let pool = BatchPool::new(2);
        assert_eq!(pool.workers(), 2);
        // Two generations against two *different* shard sets: a worker may
        // hold a kernel or session only while executing a job of it.
        for generation in 0..2 {
            let policy = ShillPolicy::new();
            let shards = KernelShards::new_with(2, populate_shard);
            shards.register_policy(policy.clone());
            let sandboxes = sharded_fixture(&shards, &policy);

            for round in 0..3 {
                let jobs = sandboxes
                    .iter()
                    .map(|&(_, child)| read_job(child))
                    .collect();
                let outs = pool.run(&shards, jobs);
                for (s, out) in outs.iter().enumerate() {
                    let slots = out.as_ref().unwrap();
                    assert_eq!(
                        slots[0],
                        Ok(shill_kernel::BatchOut::Data(
                            format!("shard-{s}").into_bytes()
                        )),
                        "generation {generation} round {round}"
                    );
                }
                for s in 0..2 {
                    assert!(
                        !shards.with_shard(s, |k| k.batch_in_flight()),
                        "batch state leaked past pool run (gen {generation}, round {round})"
                    );
                }
            }
            // Tear the sessions down; reclamation must leave no label
            // residue even with the pool still alive.
            for &(parent, child) in &sandboxes {
                shards.with_pid(child, |k| {
                    k.exit(child, 0);
                    let _ = k.waitpid(parent, child);
                    k.exit(parent, 0);
                    let _ = k.waitpid(Pid(1), parent);
                });
            }
            assert_eq!(policy.label_entries(), 0, "sessions leaked across runs");
            // Every worker dropped its shard-set handle when it posted its
            // last result: the caller holds the only reference.
            assert!(
                shards.try_into_kernels().is_some(),
                "a pool worker kept a kernel handle after its jobs finished"
            );
        }
        // All-local traffic never paid a rendezvous inside the pool (the
        // register/teardown rendezvous are accounted before/after runs).
        drop(pool);
    }

    /// A policy that parks `blocked`'s first vnode check until `release`'s
    /// first vnode check has happened — a deterministic way to wedge one
    /// worker mid-wave and force its remaining queue onto a thief.
    struct GatePolicy {
        blocked: Pid,
        release: Pid,
        tx: Mutex<Option<mpsc::Sender<()>>>,
        rx: Mutex<Option<mpsc::Receiver<()>>>,
    }

    impl shill_kernel::MacPolicy for GatePolicy {
        fn name(&self) -> &str {
            "gate"
        }
        fn vnode_check(
            &self,
            ctx: shill_kernel::MacCtx,
            _node: shill_vfs::NodeId,
            _op: &shill_kernel::VnodeOp<'_>,
        ) -> SysResult<()> {
            if ctx.pid == self.release {
                if let Some(tx) = self.tx.lock().take() {
                    let _ = tx.send(());
                }
            } else if ctx.pid == self.blocked {
                if let Some(rx) = self.rx.lock().take() {
                    // A generous timeout turns a broken steal path into a
                    // loud test failure instead of a hung suite.
                    rx.recv_timeout(std::time::Duration::from_secs(10))
                        .expect("gate never released: the idle worker did not steal");
                }
            }
            Ok(())
        }
    }

    #[test]
    fn starving_worker_steals_from_a_wedged_siblings_deque() {
        // Three shards, two workers: shards 0 and 2 both route to worker 0
        // (`shard % workers`), shard 1 to worker 1. The shard-0 job wedges
        // inside its first wave (holding only shard 0's lock), so the
        // shard-2 job behind it in worker 0's deque can only finish if
        // worker 1 steals it — and the gate only opens when it runs, making
        // completion itself the proof that stealing engaged.
        let shards = KernelShards::new_with(3, populate_shard);
        let wedged = shards.with_shard(0, |k| k.spawn_user(Cred::user(100)));
        let runner = shards.with_shard(2, |k| k.spawn_user(Cred::user(100)));
        let (tx, rx) = mpsc::channel();
        shards.register_policy(Arc::new(GatePolicy {
            blocked: wedged,
            release: runner,
            tx: Mutex::new(Some(tx)),
            rx: Mutex::new(Some(rx)),
        }));

        let pool = BatchPool::new(2);
        let outs = pool.run(&shards, vec![read_job(wedged), read_job(runner)]);
        for (i, (out, shard)) in outs.iter().zip([0usize, 2]).enumerate() {
            let slots = out.as_ref().unwrap();
            assert_eq!(
                slots[0],
                Ok(shill_kernel::BatchOut::Data(
                    format!("shard-{shard}").into_bytes()
                )),
                "job {i}"
            );
        }
        // The pool observed the steal, and the stolen job booked it on its
        // home shard; the kernel-side count can only lag the pool's (a
        // stolen job credits the stat inside its first wave).
        assert!(pool.steals() >= 1, "no steal recorded");
        let merged = shards.stats();
        assert!(merged.pool_steals >= 1, "kernel never saw the steal");
        assert!(merged.pool_steals <= pool.steals());
    }

    /// A policy whose vnode hook panics exactly once, for one pid — the
    /// deliberately buggy module of the robustness plan.
    struct PanicOncePolicy {
        victim: Pid,
        armed: std::sync::atomic::AtomicBool,
    }

    impl shill_kernel::MacPolicy for PanicOncePolicy {
        fn name(&self) -> &str {
            "panic-once"
        }
        fn vnode_check(
            &self,
            ctx: shill_kernel::MacCtx,
            _node: shill_vfs::NodeId,
            _op: &shill_kernel::VnodeOp<'_>,
        ) -> SysResult<()> {
            if ctx.pid == self.victim && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                panic!("deliberately panicking policy module");
            }
            Ok(())
        }
    }

    #[test]
    fn pool_survives_a_policy_panicking_mid_wave_on_a_stolen_job() {
        // Same steal topology as above: shards 0 and 2 route to worker 0
        // and the shard-0 job wedges mid-wave, so worker 1 must steal the
        // shard-2 job — whose policy hook then panics. The gate is keyed
        // to the victim's check (which runs before the panicking module in
        // registration order), so the panic provably happens on a *stolen*
        // job; it must cost exactly that job, not the thief, the shard, or
        // the pool.
        let shards = KernelShards::new_with(3, populate_shard);
        let wedged = shards.with_shard(0, |k| k.spawn_user(Cred::user(100)));
        let bystander = shards.with_shard(1, |k| k.spawn_user(Cred::user(100)));
        let victim = shards.with_shard(2, |k| k.spawn_user(Cred::user(100)));
        let (tx, rx) = mpsc::channel();
        shards.register_policy(Arc::new(GatePolicy {
            blocked: wedged,
            release: victim,
            tx: Mutex::new(Some(tx)),
            rx: Mutex::new(Some(rx)),
        }));
        shards.register_policy(Arc::new(PanicOncePolicy {
            victim,
            armed: std::sync::atomic::AtomicBool::new(true),
        }));

        let pool = BatchPool::new(2);
        let round = || vec![read_job(wedged), read_job(bystander), read_job(victim)];
        let outs = pool.run(&shards, round());
        match &outs[2] {
            Err(e) => assert_eq!(*e, Errno::EINVAL, "panicked job reports EINVAL"),
            Ok(_) => panic!("the panicked job must not report success"),
        }
        for (i, shard) in [(0usize, 0usize), (1, 1)] {
            let slots = outs[i].as_ref().unwrap();
            assert_eq!(
                slots[0],
                Ok(shill_kernel::BatchOut::Data(
                    format!("shard-{shard}").into_bytes()
                )),
                "job {i} must complete despite the sibling panic"
            );
        }
        assert!(pool.steals() >= 1, "the panicking job was not stolen");
        // Containment booked the dead wave as a cancellation and left no
        // batch state installed anywhere.
        let merged = shards.stats();
        assert!(merged.sched_cancelled_cone >= 1, "dead wave not booked");
        for s in 0..3 {
            assert!(
                !shards.with_shard(s, |k| k.batch_in_flight()),
                "batch state stuck on shard {s} after a contained panic"
            );
        }
        // The worker that contained the panic is still alive and the
        // victim's shard still serves: a full healthy round on the same
        // pool (the panic policy is disarmed after its one shot).
        let outs = pool.run(&shards, round());
        for (out, shard) in outs.iter().zip([0usize, 1, 2]) {
            let slots = out.as_ref().unwrap();
            assert_eq!(
                slots[0],
                Ok(shill_kernel::BatchOut::Data(
                    format!("shard-{shard}").into_bytes()
                )),
                "post-panic round failed on shard {shard}"
            );
        }
        // Drain-on-drop joins every worker; no kernel handle outlives it.
        drop(pool);
        assert!(
            shards.try_into_kernels().is_some(),
            "a worker kept a kernel handle after the contained panic"
        );
    }

    #[test]
    fn fenced_jobs_pay_a_rendezvous_per_wave_and_stay_equivalent() {
        let policy = ShillPolicy::new();
        let shards = KernelShards::new_with(2, populate_shard);
        shards.register_policy(policy.clone());
        let sandboxes = sharded_fixture(&shards, &policy);
        let pool = BatchPool::new(2);
        let job = |fence: Vec<usize>| BatchJob {
            pid: sandboxes[0].1,
            batch: SyscallBatch::aborting(vec![
                shill_kernel::BatchEntry::Stat {
                    dirfd: None,
                    path: "/work/data.txt".into(),
                    follow: true,
                },
                shill_kernel::BatchEntry::ReadFile {
                    dirfd: None,
                    path: "/work/data.txt".into(),
                },
            ]),
            fence,
        };
        fn slots(r: &SysResult<Vec<SysResult<BatchOut>>>) -> &[SysResult<BatchOut>] {
            r.as_ref().unwrap()
        }

        let before = shards.rendezvous_count();
        let local = pool.run(&shards, vec![job(Vec::new())]);
        assert!(local[0].is_ok());
        assert_eq!(
            shards.rendezvous_count(),
            before,
            "a shard-local job must never fence"
        );

        let fenced = pool.run(&shards, vec![job(vec![1])]);
        assert!(fenced[0].is_ok());
        // Two waves (abort chain) + the audit delivery, all fenced.
        assert_eq!(
            shards.rendezvous_count(),
            before + 3,
            "every wave of a cross-shard job pays the rendezvous"
        );
        // Fencing changes ordering guarantees, never results.
        assert_eq!(slots(&local[0]), slots(&fenced[0]));

        // One run carrying both kinds: only the fenced job pays — its two
        // waves plus the audit — and every slot matches the separate runs.
        let before = shards.rendezvous_count();
        let mixed = pool.run(&shards, vec![job(Vec::new()), job(vec![1])]);
        assert_eq!(
            shards.rendezvous_count(),
            before + 3,
            "a mixed run pays exactly the fenced job's rendezvous"
        );
        assert_eq!(slots(&mixed[0]), slots(&local[0]));
        assert_eq!(slots(&mixed[1]), slots(&fenced[0]));
    }

    #[test]
    fn fence_fault_mid_rendezvous_is_contained_and_leaves_no_lock_held() {
        // The no-escape regression for the `fence` site: a shard "dies"
        // mid-rendezvous (injected panic with every fence lock held), the
        // worker's containment boundary books survival, the failed job
        // reports a clean submission error, and no shard lock stays held —
        // later shard-local *and* fenced jobs run normally.
        let policy = ShillPolicy::new();
        let shards = KernelShards::new_with(2, populate_shard);
        shards.register_policy(policy.clone());
        let sandboxes = sharded_fixture(&shards, &policy);
        let pool = BatchPool::new(2);
        shards.set_fault_plane(Some("fence@1=panic"));

        let fenced = || BatchJob {
            fence: vec![1],
            ..read_job(sandboxes[0].1)
        };
        let out = pool.run(&shards, vec![fenced()]);
        assert_eq!(out[0], Err(Errno::EINVAL), "the killed job costs its slot");

        // No lock escaped the unwind: shard-local traffic, a full
        // rendezvous, and a fresh fenced job (the explicit entry fired on
        // hit 1; hit 2 passes) all complete.
        let local = pool.run(&shards, vec![read_job(sandboxes[0].1)]);
        assert!(local[0].is_ok());
        let fenced_again = pool.run(&shards, vec![fenced()]);
        assert!(
            fenced_again[0].is_ok(),
            "the fence site fires once, not forever"
        );

        // Fault accounting balances: one injected panic, one contained.
        let stats = shards.stats();
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(
            stats.faults_survived, stats.faults_injected,
            "no injected rendezvous fault may escape"
        );
        shards.set_fault_plane(None);
    }

    #[test]
    fn repeated_run_sessions_keep_the_process_table_flat() {
        let mut kernel = Kernel::new();
        let policy = ShillPolicy::new();
        kernel.register_policy(policy.clone());
        let shards = KernelShards::from_kernel(kernel);
        let before = shards.with_shard(0, |k| k.process_count());
        for _ in 0..5 {
            let tasks = (0..3)
                .map(|_| SessionTask {
                    shard: 0,
                    spec: SandboxSpec::default(),
                    body: Arc::new(|_sk: &KernelShards, _pid, _sid| 0) as SessionBody,
                })
                .collect();
            run_sessions(&shards, &policy, Cred::user(100), tasks).unwrap();
            assert_eq!(
                shards.with_shard(0, |k| k.process_count()),
                before,
                "run_sessions must retire parents and children alike"
            );
        }
    }
}
