//! Concurrent-session stress tests: multiple sandboxed sessions on worker
//! threads sharing one kernel, with namespace mutation and authority
//! revocation racing path resolution and batched submission.
//!
//! The safety claim under test (ISSUE 3 tentpole + the concurrent
//! invalidation satellite): with the kernel's AVC fenced by the policy's
//! cache epoch, **no stale allow verdict is
//! ever served** — once a revocation (vnode replaced, session reclaimed)
//! has happened-before a check (both ordered by the kernel lock), the
//! check's outcome reflects it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use shill_cap::{CapPrivs, Priv, PrivSet};
use shill_kernel::{
    shard_count_from_env, BatchEntry, Kernel, KernelShards, OpenFlags, Pid, SyscallBatch,
};
use shill_sandbox::{
    run_sessions, setup_sandbox, Grant, SandboxSpec, SessionBody, SessionTask, ShillPolicy,
};
use shill_vfs::{Cred, Errno, Gid, Mode, Uid};

fn caps(privs: &[Priv]) -> CapPrivs {
    CapPrivs::of(PrivSet::of(privs))
}

/// One thread revokes authority by replacing the granted file (unlink +
/// re-create under the kernel lock) while reader sessions resolve the path,
/// open/read it, and submit stat batches. Every reader asserts, under the
/// same lock hold that performed its check, that the verdict matches the
/// revocation state: allowed before, `EACCES` after, never a stale allow.
#[test]
fn revocation_is_never_outrun_by_cached_verdicts() {
    const READERS: usize = 4;
    const ITERS: usize = 300;
    const REVOKE_AT: u64 = 150;

    let mut kernel = Kernel::new();
    let policy = ShillPolicy::new();
    kernel.register_policy(policy.clone());
    kernel
        .fs
        .put_file(
            "/pool/secret",
            b"classified",
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    kernel
        .fs
        .put_file("/pool/alpha", b"aaa", Mode(0o666), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let root = kernel.fs.root();
    let pool = kernel.fs.resolve_abs("/pool").unwrap();
    let secret = kernel.fs.resolve_abs("/pool/secret").unwrap();
    let alpha = kernel.fs.resolve_abs("/pool/alpha").unwrap();
    let mutator_pid = kernel.spawn_user(Cred::ROOT);
    let shared = KernelShards::from_kernel(kernel);

    // Reader grants: traversal on the directories (no propagation
    // modifiers) and data privileges pinned to the *current* secret/alpha
    // vnodes. Replacing the file leaves the new vnode unlabeled, so the
    // replacement is a revocation for every reader.
    let reader_spec = || SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            Grant::vnode(pool, caps(&[Priv::Lookup])),
            Grant::vnode(secret, caps(&[Priv::Read, Priv::Stat])),
            Grant::vnode(alpha, caps(&[Priv::Read, Priv::Stat])),
        ],
        ..Default::default()
    };

    let revoked = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));

    let tasks: Vec<SessionTask> = (0..READERS)
        .map(|_| {
            let revoked = Arc::clone(&revoked);
            let progress = Arc::clone(&progress);
            let failures = Arc::clone(&failures);
            let body: SessionBody = Arc::new(move |sk: &KernelShards, pid, _sid| {
                let mut status = 0;
                for i in 0..ITERS {
                    // One lock hold covers reading the revocation flag and
                    // the checks, so the flag's value is the ground truth
                    // for what the verdict must be.
                    sk.with_pid(pid, |k| {
                        let was_revoked = revoked.load(Ordering::SeqCst);
                        let open = k.open(pid, "/pool/secret", OpenFlags::RDONLY, Mode(0));
                        match open {
                            Ok(fd) => {
                                let data = k.read(pid, fd, 64).unwrap_or_default();
                                let _ = k.close(pid, fd);
                                if was_revoked {
                                    eprintln!("stale allow served after revocation ({data:?})");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                    status = 1;
                                } else if data != b"classified" {
                                    eprintln!("pre-revocation read returned {data:?}");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                    status = 1;
                                }
                            }
                            Err(Errno::EACCES) => {
                                if !was_revoked {
                                    eprintln!("spurious denial before revocation");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                    status = 1;
                                }
                            }
                            Err(e) => {
                                eprintln!("unexpected open errno {e:?}");
                                failures.fetch_add(1, Ordering::SeqCst);
                                status = 1;
                            }
                        }
                        // Batched resolution of the same names: the AVC's
                        // reuse inside a batch must obey the same fences.
                        if i % 3 == 0 {
                            let was_revoked = revoked.load(Ordering::SeqCst);
                            let batch = SyscallBatch::new(vec![
                                BatchEntry::Stat {
                                    dirfd: None,
                                    path: "/pool/alpha".into(),
                                    follow: true,
                                },
                                BatchEntry::Stat {
                                    dirfd: None,
                                    path: "/pool/secret".into(),
                                    follow: true,
                                },
                            ]);
                            let out = k.submit_batch(pid, &batch).expect("submit");
                            if out[0].is_err() {
                                eprintln!("granted sibling stat failed: {:?}", out[0]);
                                failures.fetch_add(1, Ordering::SeqCst);
                                status = 1;
                            }
                            let secret_ok = out[1].is_ok();
                            if secret_ok == was_revoked {
                                eprintln!(
                                    "batched stat verdict {secret_ok} contradicts revocation \
                                     state {was_revoked}"
                                );
                                failures.fetch_add(1, Ordering::SeqCst);
                                status = 1;
                            }
                        }
                    });
                    progress.fetch_add(1, Ordering::SeqCst);
                }
                status
            });
            SessionTask {
                shard: 0,
                spec: reader_spec(),
                body,
            }
        })
        .collect();

    let mutator = {
        let shared = shared.clone();
        let policy = Arc::clone(&policy);
        let revoked = Arc::clone(&revoked);
        let progress = Arc::clone(&progress);
        thread::spawn(move || {
            // Let the readers warm their caches first.
            while progress.load(Ordering::SeqCst) < REVOKE_AT {
                thread::yield_now();
            }
            shared.with_shard(0, |k| {
                // Replace the file: unlink destroys the labeled vnode
                // (labels die with it, AVC entries for the object drop),
                // and the re-created name resolves to an unlabeled vnode.
                // The flag flips inside the same lock hold, so every later
                // lock-holder must see the revoked verdict.
                k.unlinkat(mutator_pid, None, "/pool/secret", false)
                    .expect("unlink");
                let fd = k
                    .open(
                        mutator_pid,
                        "/pool/secret",
                        OpenFlags::creat_trunc_w(),
                        Mode(0o666),
                    )
                    .expect("recreate");
                k.write(mutator_pid, fd, b"forged").expect("write");
                k.close(mutator_pid, fd).expect("close");
                revoked.store(true, Ordering::SeqCst);
            });
            // Keep shrinking authority while readers run: sibling session
            // churn bumps the policy epoch (enter + reclaim), stressing the
            // AVC's combined-epoch validation from another thread.
            for _ in 0..20 {
                shared.with_shard(0, |k| {
                    let parent = k.spawn_user(Cred::user(7));
                    let spec = SandboxSpec {
                        grants: vec![Grant::vnode(root, caps(&[Priv::Lookup]))],
                        ..Default::default()
                    };
                    let sb = setup_sandbox(k, &policy, parent, &spec).expect("churn sandbox");
                    k.exit(sb.child, 0);
                    let _ = k.waitpid(parent, sb.child);
                });
                thread::yield_now();
            }
        })
    };

    let outcomes = run_sessions(&shared, &policy, Cred::user(100), tasks).expect("sessions");
    mutator.join().unwrap();
    assert_eq!(
        failures.load(Ordering::SeqCst),
        0,
        "stale verdicts observed"
    );
    for o in &outcomes {
        assert_eq!(
            o.status, 0,
            "reader {:?} observed a stale verdict",
            o.session
        );
    }
}

/// Sibling-session churn: one thread creates, enters, and reclaims sessions
/// (each reclaim scrubs labels and bumps the policy epoch) while reader
/// sessions keep resolving and reading files they remain entitled to. The
/// epoch bumps must only ever invalidate cache entries — never flip a live
/// grant to a denial.
#[test]
fn session_churn_does_not_disturb_unrelated_sessions() {
    const READERS: usize = 4;
    const ITERS: usize = 200;

    let mut kernel = Kernel::new();
    let policy = ShillPolicy::new();
    kernel.register_policy(policy.clone());
    for i in 0..READERS {
        kernel
            .fs
            .put_file(
                &format!("/data/r{i}.txt"),
                format!("reader-{i}").as_bytes(),
                Mode(0o666),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
    }
    kernel
        .fs
        .put_file(
            "/data/churn.txt",
            b"churn",
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    let root = kernel.fs.root();
    let data = kernel.fs.resolve_abs("/data").unwrap();
    let files: Vec<_> = (0..READERS)
        .map(|i| kernel.fs.resolve_abs(&format!("/data/r{i}.txt")).unwrap())
        .collect();
    let churn_file = kernel.fs.resolve_abs("/data/churn.txt").unwrap();
    let churn_parent = kernel.spawn_user(Cred::user(200));
    let shared = KernelShards::from_kernel(kernel);

    let stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let shared = shared.clone();
        let policy = Arc::clone(&policy);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut churned = 0u64;
            while !stop.load(Ordering::SeqCst) {
                shared.with_shard(0, |k| {
                    let spec = SandboxSpec {
                        grants: vec![
                            Grant::vnode(root, caps(&[Priv::Lookup])),
                            Grant::vnode(data, caps(&[Priv::Lookup])),
                            Grant::vnode(churn_file, caps(&[Priv::Read, Priv::Stat])),
                        ],
                        ..Default::default()
                    };
                    let sb = setup_sandbox(k, &policy, churn_parent, &spec).expect("churn sandbox");
                    let fd = k
                        .open(sb.child, "/data/churn.txt", OpenFlags::RDONLY, Mode(0))
                        .expect("churn open");
                    let _ = k.read(sb.child, fd, 16);
                    let _ = k.close(sb.child, fd);
                    // Exit + reap: the session reclaim scrubs labels and
                    // bumps the cache epoch.
                    k.exit(sb.child, 0);
                    let _ = k.waitpid(churn_parent, sb.child);
                });
                churned += 1;
                thread::yield_now();
            }
            churned
        })
    };

    let tasks: Vec<SessionTask> = (0..READERS)
        .map(|i| {
            let node = files[i];
            let body: SessionBody = Arc::new(move |sk: &KernelShards, pid, _sid| {
                for _ in 0..ITERS {
                    let r = sk.with_pid(pid, |k| {
                        let fd =
                            k.open(pid, &format!("/data/r{i}.txt"), OpenFlags::RDONLY, Mode(0))?;
                        let d = k.read(pid, fd, 32)?;
                        k.close(pid, fd)?;
                        Ok::<_, Errno>(d)
                    });
                    if r != Ok(format!("reader-{i}").into_bytes()) {
                        eprintln!("reader {i} perturbed: {r:?}");
                        return 1;
                    }
                }
                0
            });
            SessionTask {
                shard: 0,
                spec: SandboxSpec {
                    grants: vec![
                        Grant::vnode(root, caps(&[Priv::Lookup])),
                        Grant::vnode(data, caps(&[Priv::Lookup])),
                        Grant::vnode(node, caps(&[Priv::Read, Priv::Stat])),
                    ],
                    ..Default::default()
                },
                body,
            }
        })
        .collect();

    let outcomes = run_sessions(&shared, &policy, Cred::user(100), tasks).expect("sessions");
    stop.store(true, Ordering::SeqCst);
    let churned = churner.join().unwrap();
    for o in &outcomes {
        assert_eq!(o.status, 0, "reader {:?} perturbed by churn", o.session);
    }
    assert!(churned > 0, "churner must have cycled at least one session");
    // Every churn session was reclaimed: epoch bumps happened, and no
    // residue from reclaimed sessions survives.
    assert!(policy.stats().epoch_bumps >= churned);
    assert_eq!(policy.label_entries(), 0);
}

// ===================================================================
// ISSUE 5: the sharded kernel. A session is pinned to one shard; the only
// state shards share is the policy module, whose cache epoch is the
// cross-shard invalidation broadcast. The tests below honor SHILL_SHARDS
// (CI runs them at 1, 2, and 4 shards).
// ===================================================================

/// The cross-shard revocation claim: an authority-shrinking event driven
/// by a thread working **shard A** (here: `shill_enter` flipping a session
/// from permissive to restricted, followed by session churn) is never
/// outrun by a cached verdict on **shard B**, even though the revoker
/// never takes shard B's lock. The ordering fence is the policy's shared
/// epoch plus the test flags' release/acquire edges — exactly the
/// machinery `docs/concurrency.md` specifies.
#[test]
fn cross_shard_revocation_is_never_stale_served() {
    const ITERS: usize = 400;
    const WARM: u64 = 100;

    let n = shard_count_from_env(2);
    let policy = ShillPolicy::new();
    let shards = KernelShards::new_with(n, |k, s| {
        k.fs.put_file(
            "/pool/secret",
            format!("classified-{s}").as_bytes(),
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    });
    shards.register_policy(policy.clone());
    let shard_a = 0;
    let shard_b = n - 1;

    // A session on shard B, created but NOT yet entered: its process is
    // unrestricted, so shard B's AVC fills with permissive allows — the
    // verdicts the cross-shard enter must revoke.
    let (reader_pid, reader_sid) = {
        let mut k = shards.lock_shard(shard_b);
        let parent = k.spawn_user(Cred::user(100));
        let child = k.fork(parent).unwrap();
        let sid = policy.shill_init(&mut k, child).unwrap();
        (child, sid)
    };

    // Two-flag bracketing of the revocation: `entering` is set before the
    // epoch bump, `entered` after it. A denial is legitimate as soon as
    // `entering` is up; an allow is stale only once `entered` is up.
    let entering = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));

    thread::scope(|scope| {
        let reader = {
            let shards = shards.clone();
            let entering = Arc::clone(&entering);
            let entered = Arc::clone(&entered);
            let progress = Arc::clone(&progress);
            let failures = Arc::clone(&failures);
            scope.spawn(move || {
                for i in 0..ITERS {
                    shards.with_shard(shard_b, |k| {
                        let was_entered = entered.load(Ordering::SeqCst);
                        let open = k.open(reader_pid, "/pool/secret", OpenFlags::RDONLY, Mode(0));
                        match open {
                            Ok(fd) => {
                                let _ = k.close(reader_pid, fd);
                                if was_entered {
                                    eprintln!(
                                        "stale permissive allow served after cross-shard enter"
                                    );
                                    failures.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            Err(Errno::EACCES) => {
                                if !entering.load(Ordering::SeqCst) {
                                    eprintln!("denial before any enter began");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            Err(e) => {
                                eprintln!("unexpected open errno {e:?}");
                                failures.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        // The batched path must obey the same fences.
                        if i % 3 == 0 {
                            let was_entered = entered.load(Ordering::SeqCst);
                            let out = k
                                .submit_batch(
                                    reader_pid,
                                    &SyscallBatch::single(BatchEntry::Stat {
                                        dirfd: None,
                                        path: "/pool/secret".into(),
                                        follow: true,
                                    }),
                                )
                                .expect("submit");
                            match &out[0] {
                                Ok(_) if was_entered => {
                                    eprintln!("stale batched allow after cross-shard enter");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                }
                                Err(Errno::EACCES) if !entering.load(Ordering::SeqCst) => {
                                    eprintln!("batched denial before any enter began");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                }
                                _ => {}
                            }
                        }
                    });
                    progress.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        // The revocation, driven from shard A. It never touches shard B's
        // lock: the shared policy epoch is the only broadcast.
        let revoker = {
            let shards = shards.clone();
            let policy = Arc::clone(&policy);
            let entering = Arc::clone(&entering);
            let entered = Arc::clone(&entered);
            let progress = Arc::clone(&progress);
            scope.spawn(move || {
                while progress.load(Ordering::SeqCst) < WARM {
                    thread::yield_now();
                }
                entering.store(true, Ordering::SeqCst);
                shards.with_shard(shard_a, |k| {
                    // Real shard-A kernel work in the same lock hold, so
                    // the enter is literally performed "on shard A".
                    let probe = k.spawn_user(Cred::user(9));
                    policy.shill_enter(reader_sid).expect("enter");
                    k.exit(probe, 0);
                    let _ = k.waitpid(Pid(1), probe);
                });
                entered.store(true, Ordering::SeqCst);
                // Keep shrinking authority from shard A while the reader
                // probes: every churned session bumps the shared epoch.
                for _ in 0..10 {
                    shards.with_shard(shard_a, |k| {
                        let parent = k.spawn_user(Cred::user(7));
                        let sb = setup_sandbox(k, &policy, parent, &SandboxSpec::default())
                            .expect("churn sandbox");
                        k.exit(sb.child, 0);
                        let _ = k.waitpid(parent, sb.child);
                        k.exit(parent, 0);
                        let _ = k.waitpid(Pid(1), parent);
                    });
                    thread::yield_now();
                }
            })
        };
        reader.join().unwrap();
        revoker.join().unwrap();
    });

    assert_eq!(
        failures.load(Ordering::SeqCst),
        0,
        "stale verdicts crossed the shard boundary"
    );
    assert!(
        entered.load(Ordering::SeqCst),
        "the enter must have happened mid-run"
    );
}

// ===================================================================
// ISSUE 6: the striped policy plane. Label state is session-major inside
// lock stripes; the audit log has its own lock. The tests below pin the
// two independence claims: a revocation on one stripe is never coupled to
// a first-touch storm on another, and denial logging never blocks a label
// merge on another stripe.
// ===================================================================

/// Churn-under-revocation across stripes: sessions on one stripe hammer
/// first-touch label merges (the write-heaviest path the policy has) while
/// a session on another stripe is revoked (`shill_enter` flips it from
/// permissive to restricted) and probed from a different shard. The enter
/// touches only the reader's stripe, so it must complete mid-storm, and
/// the two-flag bracket proves no stale allow is served across stripes.
#[test]
fn stripe_revocation_is_not_stalled_by_first_touch_storms() {
    const ITERS: usize = 400;
    const WARM: u64 = 80;
    const STORM_FILES: usize = 16;

    let n = shard_count_from_env(2);
    let policy = Arc::new(ShillPolicy::with_stripes(2));
    let shards = KernelShards::new_with(n, |k, s| {
        k.fs.put_file(
            "/pool/secret",
            format!("classified-{s}").as_bytes(),
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        for j in 0..STORM_FILES {
            k.fs.put_file(
                &format!("/storm/f{j}"),
                b"storm",
                Mode(0o666),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        }
    });
    shards.register_policy(policy.clone());
    let shard_a = 0;
    let shard_b = n - 1;

    // The victim: a session on shard B, created but not entered, so shard
    // B's AVC fills with permissive allows that the enter must revoke.
    let (reader_pid, reader_sid) = {
        let mut k = shards.lock_shard(shard_b);
        let parent = k.spawn_user(Cred::user(100));
        let child = k.fork(parent).unwrap();
        let sid = policy.shill_init(&mut k, child).unwrap();
        (child, sid)
    };

    let entering = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let off_stripe_storms = Arc::new(AtomicU64::new(0));

    thread::scope(|scope| {
        let reader = {
            let shards = shards.clone();
            let entering = Arc::clone(&entering);
            let entered = Arc::clone(&entered);
            let progress = Arc::clone(&progress);
            let failures = Arc::clone(&failures);
            scope.spawn(move || {
                for _ in 0..ITERS {
                    shards.with_shard(shard_b, |k| {
                        let was_entered = entered.load(Ordering::SeqCst);
                        let open = k.open(reader_pid, "/pool/secret", OpenFlags::RDONLY, Mode(0));
                        match open {
                            Ok(fd) => {
                                let _ = k.close(reader_pid, fd);
                                if was_entered {
                                    eprintln!("stale allow served after cross-stripe enter");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            Err(Errno::EACCES) => {
                                if !entering.load(Ordering::SeqCst) {
                                    eprintln!("denial before any enter began");
                                    failures.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            Err(e) => {
                                eprintln!("unexpected open errno {e:?}");
                                failures.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    });
                    progress.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        // First-touch storm on shard A: each round builds a fresh session,
        // merges STORM_FILES labels through lookup propagation (stripe
        // write locks), and reclaims it (stripe write + epoch bump).
        // Session ids are consecutive, so with two stripes every other
        // storm session shares the reader's stripe and the rest prove the
        // off-stripe independence claim.
        let storm = {
            let shards = shards.clone();
            let policy = Arc::clone(&policy);
            let stop = Arc::clone(&stop);
            let off_stripe = Arc::clone(&off_stripe_storms);
            scope.spawn(move || {
                let mut storms = 0u64;
                while !stop.load(Ordering::SeqCst) || storms < 3 {
                    let sid = shards.with_shard(shard_a, |k| {
                        let parent = k.spawn_user(Cred::user(7));
                        let root = k.fs.root();
                        let dir = k.fs.resolve_abs("/storm").unwrap();
                        let spec = SandboxSpec {
                            grants: vec![
                                Grant::vnode(root, caps(&[Priv::Lookup])),
                                Grant::vnode(
                                    dir,
                                    caps(&[Priv::Lookup]).with_modifier(
                                        Priv::Lookup,
                                        caps(&[Priv::Read, Priv::Stat]),
                                    ),
                                ),
                            ],
                            ..Default::default()
                        };
                        let sb = setup_sandbox(k, &policy, parent, &spec).expect("storm sandbox");
                        for j in 0..STORM_FILES {
                            let fd = k
                                .open(
                                    sb.child,
                                    &format!("/storm/f{j}"),
                                    OpenFlags::RDONLY,
                                    Mode(0),
                                )
                                .expect("storm open");
                            let _ = k.read(sb.child, fd, 8);
                            let _ = k.close(sb.child, fd);
                        }
                        k.exit(sb.child, 0);
                        let _ = k.waitpid(parent, sb.child);
                        k.exit(parent, 0);
                        let _ = k.waitpid(Pid(1), parent);
                        sb.session
                    });
                    if policy.stripe_of(sid) != policy.stripe_of(reader_sid) {
                        off_stripe.fetch_add(1, Ordering::SeqCst);
                    }
                    storms += 1;
                    thread::yield_now();
                }
                storms
            })
        };

        // The revocation: `shill_enter` touches only the reader's label
        // stripe — no kernel lock, no storm stripe. It must complete while
        // the storm keeps pounding its own stripe.
        let revoker = {
            let policy = Arc::clone(&policy);
            let entering = Arc::clone(&entering);
            let entered = Arc::clone(&entered);
            let progress = Arc::clone(&progress);
            scope.spawn(move || {
                while progress.load(Ordering::SeqCst) < WARM {
                    thread::yield_now();
                }
                entering.store(true, Ordering::SeqCst);
                policy.shill_enter(reader_sid).expect("enter");
                entered.store(true, Ordering::SeqCst);
            })
        };

        reader.join().unwrap();
        revoker.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        let storms = storm.join().unwrap();
        assert!(storms >= 3, "storm never cycled");
    });

    assert_eq!(
        failures.load(Ordering::SeqCst),
        0,
        "stale verdicts crossed the stripe boundary"
    );
    assert!(entered.load(Ordering::SeqCst), "the revocation never ran");
    assert!(
        off_stripe_storms.load(Ordering::SeqCst) >= 1,
        "no storm session landed on a different stripe than the reader"
    );
    // Every storm session was reclaimed on its own stripe; the reader's
    // entered-but-grantless session holds no labels.
    assert_eq!(policy.label_entries(), 0);
}

/// Satellite regression (audit log off the label lock): a denial storm —
/// every event goes through `push_always` under the log's own mutex —
/// must never block first-touch label merges of a session on another
/// stripe. Drives the policy hooks directly: the kernel only labels the two
/// processes, so the only locks in play are the two stripes and the log
/// mutex.
#[test]
fn denial_logging_never_blocks_label_merges_on_other_stripes() {
    use shill_kernel::{MacPolicy, ObjId, VnodeOp};
    use shill_vfs::NodeId;

    const N: usize = 5_000;

    let p = Arc::new(ShillPolicy::with_stripes(2));
    let mut k = Kernel::new();
    let denier_pid = k.spawn_user(Cred::user(100));
    let merger_pid = k.spawn_user(Cred::user(100));
    let denier_sid = p.shill_init(&mut k, denier_pid).unwrap();
    let merger_sid = p.shill_init(&mut k, merger_pid).unwrap();
    // Consecutive session ids, two stripes: guaranteed disjoint.
    assert_ne!(p.stripe_of(denier_sid), p.stripe_of(merger_sid));

    // Denier: entered with no grants — every check denies and logs.
    p.shill_enter(denier_sid).unwrap();
    // Merger: a lookup-propagating grant, so every fresh child node is a
    // first-touch merge under its stripe's write lock.
    let parent_dir = NodeId(1000);
    p.shill_grant(
        &k,
        Pid(1),
        merger_sid,
        ObjId::Vnode(parent_dir),
        Arc::new(
            caps(&[Priv::Lookup]).with_modifier(Priv::Lookup, caps(&[Priv::Read, Priv::Stat])),
        ),
    )
    .unwrap();
    p.shill_enter(merger_sid).unwrap();
    let denier_ctx = k.process(denier_pid).unwrap().mac_ctx();
    let merger_ctx = k.process(merger_pid).unwrap().mac_ctx();

    thread::scope(|scope| {
        let denier = {
            let p = Arc::clone(&p);
            scope.spawn(move || {
                let ctx = denier_ctx;
                for _ in 0..N {
                    assert_eq!(
                        p.vnode_check(ctx, NodeId(5), &VnodeOp::Read),
                        Err(Errno::EACCES)
                    );
                }
            })
        };
        let merger = {
            let p = Arc::clone(&p);
            scope.spawn(move || {
                let ctx = merger_ctx;
                for i in 0..N {
                    p.vnode_post_lookup(ctx, parent_dir, "f", NodeId(2000 + i as u64));
                }
            })
        };
        denier.join().unwrap();
        merger.join().unwrap();
    });

    let st = p.stats();
    assert_eq!(st.denials, N as u64, "every probe must have denied");
    assert_eq!(
        st.propagations, N as u64,
        "every first touch must have merged"
    );
    // Denials are push_always events: all N are in the log even though
    // verbose logging was never enabled — and none of them cost the merger
    // its stripe.
    assert_eq!(p.log_events().len(), N);
    assert_eq!(p.label_entries(), N + 1); // parent grant + N children
}

/// Deterministic form of the epoch broadcast: a fully warm session pinned
/// to shard B revalidates its AVC verdicts (misses grow) after a session
/// is churned on shard A — and its live grants still hold. One policy,
/// two kernels, no shared kernel lock.
#[test]
fn cross_shard_epoch_broadcast_reaches_remote_shard_caches() {
    let n = shard_count_from_env(2);
    let policy = ShillPolicy::new();
    let shards = KernelShards::new_with(n, |k, s| {
        k.fs.put_file(
            "/data/r.txt",
            format!("reader-{s}").as_bytes(),
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    });
    shards.register_policy(policy.clone());
    let shard_a = 0;
    let shard_b = n - 1;

    // A granted, entered session pinned to shard B.
    let reader = {
        let mut k = shards.lock_shard(shard_b);
        let root = k.fs.root();
        let data = k.fs.resolve_abs("/data").unwrap();
        let file = k.fs.resolve_abs("/data/r.txt").unwrap();
        let parent = k.spawn_user(Cred::user(100));
        let spec = SandboxSpec {
            grants: vec![
                Grant::vnode(root, caps(&[Priv::Lookup])),
                Grant::vnode(data, caps(&[Priv::Lookup])),
                Grant::vnode(file, caps(&[Priv::Read, Priv::Stat])),
            ],
            ..Default::default()
        };
        setup_sandbox(&mut k, &policy, parent, &spec).unwrap().child
    };
    let read_once = || {
        let d = shards.with_shard(shard_b, |k| {
            let fd = k.open(reader, "/data/r.txt", OpenFlags::RDONLY, Mode(0))?;
            let d = k.read(reader, fd, 32)?;
            k.close(reader, fd)?;
            Ok::<_, Errno>(d)
        });
        assert_eq!(
            d,
            Ok(format!("reader-{shard_b}").into_bytes()),
            "a live grant must never flip"
        );
    };

    for _ in 0..5 {
        read_once();
    }
    let warm = shards.with_shard(shard_b, |k| k.stats.snapshot());
    for _ in 0..5 {
        read_once();
    }
    let steady = shards.with_shard(shard_b, |k| k.stats.snapshot());
    assert_eq!(
        steady.avc_misses, warm.avc_misses,
        "a warm shard must be serving pure AVC hits"
    );
    assert!(steady.avc_hits > warm.avc_hits);

    // Churn one whole session on shard A: enter + reclaim = two
    // authority-shrinking epoch bumps through the shared policy.
    let bumps_before = policy.stats().epoch_bumps;
    shards.with_shard(shard_a, |k| {
        let parent = k.spawn_user(Cred::user(7));
        let sb = setup_sandbox(k, &policy, parent, &SandboxSpec::default()).expect("churn");
        k.exit(sb.child, 0);
        let _ = k.waitpid(parent, sb.child);
        k.exit(parent, 0);
        let _ = k.waitpid(Pid(1), parent);
    });
    assert!(policy.stats().epoch_bumps >= bumps_before + 2);

    for _ in 0..5 {
        read_once();
    }
    let after = shards.with_shard(shard_b, |k| k.stats.snapshot());
    assert!(
        after.avc_misses > steady.avc_misses,
        "the shard-A epoch bump must invalidate shard B's cached verdicts \
         (misses {} -> {})",
        steady.avc_misses,
        after.avc_misses
    );
}
