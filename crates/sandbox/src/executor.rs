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
use std::sync::{Arc, Barrier};
use std::thread;

use shill_kernel::{Kernel, KernelShards, Pid};
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

#[cfg(test)]
mod tests {
    use super::*;
    use shill_cap::{CapPrivs, Priv, PrivSet};
    use shill_kernel::{BatchArg, BatchEntry, BatchFd, BatchOut, OpenFlags, SyscallBatch};
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

    type JobResult = SysResult<Vec<SysResult<BatchOut>>>;

    /// Run every `(pid, batch, fence)` job at once, one thread each, as
    /// concurrent sessions submit: results come back in job order.
    fn run_concurrently(
        shards: &KernelShards,
        jobs: Vec<(Pid, SyscallBatch, Vec<usize>)>,
    ) -> Vec<JobResult> {
        thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(pid, batch, fence)| scope.spawn(move || shards.run_job(pid, batch, &fence)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_jobs_run_per_wave_and_stay_confined() {
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

        let pipeline = |i: usize| {
            SyscallBatch::aborting(vec![
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
            .after(3, 1)
        };
        let mut jobs: Vec<_> = (0..4)
            .map(|i| (children[i], pipeline(i), Vec::new()))
            .collect();
        // A job probing a NEIGHBOUR's subtree must stay denied even when
        // its waves interleave with the owner's.
        for (i, &child) in children.iter().enumerate() {
            jobs.push((
                child,
                SyscallBatch::single(BatchEntry::ReadFile {
                    dirfd: None,
                    path: format!("/work/s{}/data.txt", (i + 1) % 4),
                }),
                Vec::new(),
            ));
        }

        let results = run_concurrently(&shards, jobs);
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
                BatchOut::Data(format!("payload-{i}").into_bytes())
            );
        }
        // No batch state may leak past the jobs.
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

    /// A batch reading the fixture file.
    fn read_batch() -> SyscallBatch {
        SyscallBatch::single(BatchEntry::ReadFile {
            dirfd: None,
            path: "/work/data.txt".into(),
        })
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
    fn run_job_contains_a_policy_panicking_mid_wave() {
        // Three shards, one job each, all in flight at once; the victim's
        // policy hook panics mid-wave. The panic must cost exactly that
        // job, not its thread's siblings, the shard, or later jobs.
        let shards = KernelShards::new_with(3, populate_shard);
        let pids: Vec<Pid> = (0..3)
            .map(|s| shards.with_shard(s, |k| k.spawn_user(Cred::user(100))))
            .collect();
        let victim = pids[2];
        shards.register_policy(Arc::new(PanicOncePolicy {
            victim,
            armed: std::sync::atomic::AtomicBool::new(true),
        }));
        let round = || -> Vec<_> {
            pids.iter()
                .map(|&pid| (pid, read_batch(), Vec::new()))
                .collect()
        };

        let outs = run_concurrently(&shards, round());
        assert_eq!(outs[2], Err(Errno::EINVAL), "panicked job reports EINVAL");
        for (shard, out) in outs[..2].iter().enumerate() {
            assert_eq!(
                out.as_ref().unwrap()[0],
                Ok(BatchOut::Data(format!("shard-{shard}").into_bytes())),
                "job {shard} must complete despite the sibling panic"
            );
        }
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
        // The victim's shard still serves: a full healthy round (the
        // panic policy is disarmed after its one shot).
        let outs = run_concurrently(&shards, round());
        for (shard, out) in outs.iter().enumerate() {
            assert_eq!(
                out.as_ref().unwrap()[0],
                Ok(BatchOut::Data(format!("shard-{shard}").into_bytes())),
                "post-panic round failed on shard {shard}"
            );
        }
    }

    #[test]
    fn fenced_jobs_pay_a_rendezvous_per_wave_and_stay_equivalent() {
        let policy = ShillPolicy::new();
        let shards = KernelShards::new_with(2, populate_shard);
        shards.register_policy(policy.clone());
        let sandboxes = sharded_fixture(&shards, &policy);
        let pid = sandboxes[0].1;
        let batch = || {
            SyscallBatch::aborting(vec![
                BatchEntry::Stat {
                    dirfd: None,
                    path: "/work/data.txt".into(),
                    follow: true,
                },
                BatchEntry::ReadFile {
                    dirfd: None,
                    path: "/work/data.txt".into(),
                },
            ])
        };

        let before = shards.rendezvous_count();
        let local = shards.run_job(pid, batch(), &[]).unwrap();
        assert_eq!(
            shards.rendezvous_count(),
            before,
            "a shard-local job must never fence"
        );

        let fenced = shards.run_job(pid, batch(), &[1]).unwrap();
        // Two waves (abort chain) + the audit delivery, all fenced.
        assert_eq!(
            shards.rendezvous_count(),
            before + 3,
            "every wave of a cross-shard job pays the rendezvous"
        );
        // Fencing changes ordering guarantees, never results.
        assert_eq!(local, fenced);

        // Both kinds in flight at once: only the fenced job pays — its
        // two waves plus the audit — and every slot matches the separate
        // runs.
        let before = shards.rendezvous_count();
        let mixed = run_concurrently(
            &shards,
            vec![(pid, batch(), Vec::new()), (pid, batch(), vec![1])],
        );
        assert_eq!(
            shards.rendezvous_count(),
            before + 3,
            "a mixed run pays exactly the fenced job's rendezvous"
        );
        assert_eq!(mixed[0].as_ref().unwrap(), &local);
        assert_eq!(mixed[1].as_ref().unwrap(), &fenced);
    }

    #[test]
    fn fence_fault_mid_rendezvous_is_contained_and_leaves_no_lock_held() {
        // The no-escape regression for the `fence` site: a shard "dies"
        // mid-rendezvous (injected panic with every fence lock held),
        // `run_job`'s containment boundary books survival, the failed job
        // reports a clean submission error, and no shard lock stays held —
        // later shard-local *and* fenced jobs run normally.
        let policy = ShillPolicy::new();
        let shards = KernelShards::new_with(2, populate_shard);
        shards.register_policy(policy.clone());
        let sandboxes = sharded_fixture(&shards, &policy);
        let pid = sandboxes[0].1;
        shards.set_fault_plane(Some("fence@1=panic"));

        let out = shards.run_job(pid, read_batch(), &[1]);
        assert_eq!(out, Err(Errno::EINVAL), "the killed job costs its slot");

        // No lock escaped the unwind: shard-local traffic, a full
        // rendezvous, and a fresh fenced job (the explicit entry fired on
        // hit 1; hit 2 passes) all complete.
        assert!(shards.run_job(pid, read_batch(), &[]).is_ok());
        assert!(
            shards.run_job(pid, read_batch(), &[1]).is_ok(),
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
