//! Equivalence under threaded execution (ISSUE 3 acceptance): the
//! batched/sequential and cached/uncached equivalence properties must keep
//! holding when sessions run on worker threads against one shared kernel.
//!
//! Construction: two identically-built kernels host four sandboxed
//! sessions, each confined to its own subtree. On the first kernel the
//! sessions run **concurrently** (worker threads, kernel behind a one-shard
//! `KernelShards` lock) submitting batches; on the second, the same batches
//! replay **sequentially** on the main thread through `run_sequential`.
//! Because sessions are confined to disjoint subtrees, per-session results
//! and per-session audit denials must be identical — any cross-session
//! interference through the shared caches/stats/policy state would show up
//! as a divergence. Node ids are excluded from fingerprints (allocation
//! order for mid-test creates legitimately depends on interleaving).

use std::sync::Arc;

use shill::cap::{CapPrivs, Priv, PrivSet};
use shill::kernel::{BatchEntry, BatchOut, Fd, Kernel, OpenFlags, Pid, SyscallBatch};
use shill::prelude::*;
use shill::sandbox::{
    setup_sandbox, Grant, KernelShards, LogEvent, SandboxSpec, SessionId, ShillPolicy,
};
use shill::vfs::sync::Mutex;

const SESSIONS: usize = 4;
const ROUNDS: usize = 6;
const ENTRIES_PER_BATCH: usize = 10;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn caps(privs: &[Priv]) -> CapPrivs {
    CapPrivs::of(PrivSet::of(privs))
}

/// One session's sandbox on a kernel: child pid plus pre-opened fds
/// (readable file, writable file, directory).
struct SessionFixture {
    child: Pid,
    session: SessionId,
    fds: Vec<Fd>,
}

/// Populate the deterministic `/data` tree (`SESSIONS` confined subtrees
/// plus ungranted `/data/x{i}` siblings for denials) on a kernel — the
/// same construction whether the kernel stands alone or is one shard.
fn populate_fs(k: &mut Kernel) {
    for i in 0..SESSIONS {
        for j in 0..3 {
            k.fs.put_file(
                &format!("/data/t{i}/inner/f{j}"),
                format!("t{i}-f{j}").as_bytes(),
                Mode(0o666),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        }
        k.fs.put_file(
            &format!("/data/t{i}/note.txt"),
            b"note",
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file(
            &format!("/data/x{i}/key"),
            b"hunter2",
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }
}

/// Build `SESSIONS` sandboxes on an already-populated kernel.
fn build_sessions(k: &mut Kernel, policy: &Arc<ShillPolicy>) -> Vec<SessionFixture> {
    let root = k.fs.root();
    let data = k.fs.resolve_abs("/data").unwrap();
    let user = k.spawn_user(Cred::ROOT);

    let mut fixtures = Vec::new();
    for i in 0..SESSIONS {
        let tdir = k.fs.resolve_abs(&format!("/data/t{i}")).unwrap();
        let leaf = caps(&[
            Priv::Read,
            Priv::Write,
            Priv::Append,
            Priv::Truncate,
            Priv::Stat,
            Priv::Path,
        ]);
        let inner_privs = caps(&[
            Priv::Lookup,
            Priv::Contents,
            Priv::Stat,
            Priv::CreateFile,
            Priv::UnlinkFile,
            Priv::Read,
            Priv::Write,
            Priv::Append,
            Priv::Truncate,
            Priv::Path,
        ])
        .with_modifier(Priv::Lookup, leaf.clone())
        .with_modifier(Priv::CreateFile, leaf.clone());
        let t_privs = caps(&[
            Priv::Lookup,
            Priv::Contents,
            Priv::Stat,
            Priv::CreateFile,
            Priv::UnlinkFile,
        ])
        .with_modifier(Priv::Lookup, inner_privs)
        .with_modifier(Priv::CreateFile, leaf);
        let spec = SandboxSpec {
            grants: vec![
                Grant::vnode(root, caps(&[Priv::Lookup])),
                Grant::vnode(data, caps(&[Priv::Lookup])),
                Grant::vnode(tdir, t_privs),
            ],
            ..Default::default()
        };
        let sb = setup_sandbox(k, policy, user, &spec).unwrap();
        let rd = k
            .open(
                sb.child,
                &format!("/data/t{i}/note.txt"),
                OpenFlags::RDONLY,
                Mode(0),
            )
            .unwrap();
        let wr = k
            .open(
                sb.child,
                &format!("/data/t{i}/inner/f0"),
                OpenFlags::rdwr(),
                Mode(0),
            )
            .unwrap();
        let dir = k
            .open(sb.child, &format!("/data/t{i}"), OpenFlags::dir(), Mode(0))
            .unwrap();
        fixtures.push(SessionFixture {
            child: sb.child,
            session: sb.session,
            fds: vec![rd, wr, dir],
        });
    }
    fixtures
}

/// Build a standalone kernel hosting `SESSIONS` sandboxes. The
/// construction is fully deterministic so two calls produce identical
/// kernels.
fn build_kernel(cached: bool) -> (Kernel, Arc<ShillPolicy>, Vec<SessionFixture>) {
    let mut k = Kernel::new();
    k.set_cache_enabled(cached, cached);
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    populate_fs(&mut k);
    let fixtures = build_sessions(&mut k, &policy);
    (k, policy, fixtures)
}

/// The deterministic batch sequence session `i` submits.
fn session_batches(i: usize, fds: &[Fd]) -> Vec<SyscallBatch> {
    let mut rng = Rng::new(0x5E55_0000 + i as u64 * 0x1001);
    let arb_path = |rng: &mut Rng| -> String {
        let pool = [
            format!("/data/t{i}/inner/f0"),
            format!("/data/t{i}/inner/f1"),
            format!("/data/t{i}/inner/f2"),
            format!("/data/t{i}/inner/missing"),
            format!("/data/t{i}/note.txt"),
            format!("/data/t{i}/ghost"),
            format!("/data/x{i}/key"),
            "/nowhere/at/all".to_string(),
        ];
        pool[rng.below(pool.len())].clone()
    };
    (0..ROUNDS)
        .map(|_| {
            let entries: Vec<BatchEntry> = (0..1 + rng.below(ENTRIES_PER_BATCH))
                .map(|_| match rng.below(8) {
                    0 => BatchEntry::Stat {
                        dirfd: None,
                        path: arb_path(&mut rng),
                        follow: rng.flag(),
                    },
                    1 => BatchEntry::ReadFile {
                        dirfd: None,
                        path: arb_path(&mut rng),
                    },
                    2 => BatchEntry::Open {
                        dirfd: None,
                        path: arb_path(&mut rng),
                        flags: OpenFlags::RDONLY,
                        mode: Mode(0),
                    },
                    3 => BatchEntry::WriteFile {
                        dirfd: None,
                        path: format!("/data/t{i}/inner/w{}", rng.below(3)),
                        data: vec![b'x'; 1 + rng.below(48)].into(),
                        mode: Mode::FILE_DEFAULT,
                        append: rng.flag(),
                    },
                    4 => BatchEntry::Unlink {
                        dirfd: None,
                        path: format!("/data/t{i}/inner/w{}", rng.below(3)),
                        remove_dir: false,
                    },
                    5 => BatchEntry::Pread {
                        fd: fds[0].into(),
                        offset: rng.below(4) as u64,
                        len: 1 + rng.below(16),
                    },
                    6 => BatchEntry::ReadDir { fd: fds[2].into() },
                    _ => BatchEntry::Fstat {
                        fd: fds[rng.below(3)].into(),
                    },
                })
                .collect();
            if rng.flag() {
                SyscallBatch::new(entries)
            } else {
                SyscallBatch::aborting(entries)
            }
        })
        .collect()
}

/// Node-id-free fingerprint: interleaving legitimately changes allocation
/// order for files created mid-run, and fd numbering inside a shared
/// kernel, so compare shapes, sizes, data, and errnos.
fn fingerprint(r: &Result<BatchOut, shill::vfs::Errno>) -> String {
    match r {
        Ok(BatchOut::Unit) => "unit".into(),
        Ok(BatchOut::Fd(_)) => "fd".into(),
        Ok(BatchOut::Data(d)) => format!("data:{}:{d:?}", d.len()),
        Ok(BatchOut::Written(n)) => format!("written:{n}"),
        Ok(BatchOut::Stat(st)) => format!("stat:{}:{:?}", st.size, st.ftype),
        Ok(BatchOut::Names(ns)) => format!("names:{ns:?}"),
        Err(e) => format!("errno:{e:?}"),
    }
}

/// Per-session denial sequence (needed-privilege names, in order). Global
/// log order depends on thread interleaving; per-session order does not.
fn session_denials(policy: &ShillPolicy, session: SessionId) -> Vec<String> {
    policy
        .log_events()
        .iter()
        .filter_map(|e| match e {
            LogEvent::Denied {
                session: s, needed, ..
            } if *s == session => Some(format!("{needed:?}")),
            _ => None,
        })
        .collect()
}

fn run_threaded_vs_sequential(cached: bool) {
    // Kernel A: concurrent sessions, batched submission.
    let (kernel_a, policy_a, fixtures_a) = build_kernel(cached);
    // Kernel B: identical construction, sequential replay on this thread.
    let (mut kernel_b, policy_b, fixtures_b) = build_kernel(cached);
    for (a, b) in fixtures_a.iter().zip(&fixtures_b) {
        assert_eq!(a.fds, b.fds, "twin kernels diverged during construction");
        assert_eq!(a.session, b.session);
    }

    let shared = KernelShards::from_kernel(kernel_a);
    let results: Arc<Mutex<Vec<Vec<String>>>> = Arc::new(Mutex::new(vec![Vec::new(); SESSIONS]));

    // Drive the pre-built sandboxes directly on worker threads (the
    // run_sessions executor, which creates its own sandboxes, is exercised
    // by the sandbox crate's tests; here both kernels' sandboxes were built
    // identically up front so the twins match exactly).
    std::thread::scope(|scope| {
        for (i, fx) in fixtures_a.iter().enumerate() {
            let shared = shared.clone();
            let results = Arc::clone(&results);
            let batches = session_batches(i, &fx.fds);
            let pid = fx.child;
            scope.spawn(move || {
                let mut fps = Vec::new();
                for batch in &batches {
                    let out = shared
                        .with_pid(pid, |k| k.submit_batch(pid, batch))
                        .expect("submit");
                    fps.extend(out.iter().map(fingerprint));
                }
                results.lock()[i] = fps;
            });
        }
    });

    // Sequential replay on kernel B, round-robin across sessions (ordering
    // across sessions is immaterial for confined subtrees).
    let mut seq_results: Vec<Vec<String>> = vec![Vec::new(); SESSIONS];
    let all_batches: Vec<Vec<SyscallBatch>> = fixtures_b
        .iter()
        .enumerate()
        .map(|(i, fx)| session_batches(i, &fx.fds))
        .collect();
    for round in 0..ROUNDS {
        for (i, (fx, batches)) in fixtures_b.iter().zip(&all_batches).enumerate() {
            let out = kernel_b
                .run_sequential(fx.child, &batches[round])
                .expect("sequential");
            seq_results[i].extend(out.iter().map(fingerprint));
        }
    }

    let threaded = results.lock().clone();
    for i in 0..SESSIONS {
        assert_eq!(
            threaded[i], seq_results[i],
            "session {i} (cached={cached}): threaded batched execution diverged \
             from sequential replay"
        );
    }
    for (a, b) in fixtures_a.iter().zip(&fixtures_b) {
        assert_eq!(
            session_denials(&policy_a, a.session),
            session_denials(&policy_b, b.session),
            "audit denials diverged for {:?} (cached={cached})",
            a.session
        );
    }
}

#[test]
fn threaded_batched_sessions_match_sequential_replay_caches_on() {
    run_threaded_vs_sequential(true);
}

#[test]
fn threaded_batched_sessions_match_sequential_replay_caches_off() {
    run_threaded_vs_sequential(false);
}

/// The cached/uncached equivalence property under threads: the same
/// threaded workload on a caches-on kernel and a caches-off kernel produces
/// identical per-session outcomes.
#[test]
fn threaded_outcomes_identical_across_cache_modes() {
    let run = |cached: bool| -> (Vec<Vec<String>>, Vec<Vec<String>>) {
        let (kernel, policy, fixtures) = build_kernel(cached);
        let shared = KernelShards::from_kernel(kernel);
        let results: Arc<Mutex<Vec<Vec<String>>>> =
            Arc::new(Mutex::new(vec![Vec::new(); SESSIONS]));
        std::thread::scope(|scope| {
            for (i, fx) in fixtures.iter().enumerate() {
                let shared = shared.clone();
                let results = Arc::clone(&results);
                let batches = session_batches(i, &fx.fds);
                let pid = fx.child;
                scope.spawn(move || {
                    let mut fps = Vec::new();
                    for batch in &batches {
                        let out = shared
                            .with_pid(pid, |k| k.submit_batch(pid, batch))
                            .expect("submit");
                        fps.extend(out.iter().map(fingerprint));
                    }
                    results.lock()[i] = fps;
                });
            }
        });
        let denials = fixtures
            .iter()
            .map(|fx| session_denials(&policy, fx.session))
            .collect();
        let fps = results.lock().clone();
        (fps, denials)
    };
    let (on, on_denials) = run(true);
    let (off, off_denials) = run(false);
    assert_eq!(on, off, "cache mode changed a threaded outcome");
    assert_eq!(
        on_denials, off_denials,
        "cache mode changed threaded denials"
    );
}

// ===================================================================
// ISSUE 4: the BatchPool — scheduled batches from different sessions on
// worker threads that acquire the kernel per dependency wave — must
// preserve the same per-session equivalence as the per-session-thread
// executor, with waves of different submissions interleaving freely.
// ===================================================================

use shill::kernel::{BatchArg, BatchFd};
use shill::sandbox::{BatchJob, BatchPool};

/// The deterministic fused-pipeline job each session submits per round:
/// open → read → write-copy → close, plus a denied probe of the
/// neighbour's subtree (exercising denials under wave interleaving).
fn session_pipeline(i: usize, round: usize) -> SyscallBatch {
    SyscallBatch::aborting(vec![
        BatchEntry::Open {
            dirfd: None,
            path: format!("/data/t{i}/inner/f{}", round % 3),
            flags: OpenFlags::RDONLY,
            mode: Mode(0),
        },
        BatchEntry::Read {
            fd: BatchFd::FromEntry(0),
            len: 64,
        },
        BatchEntry::WriteFile {
            dirfd: None,
            path: format!("/data/t{i}/inner/copy{round}"),
            data: BatchArg::OutputOf(1),
            mode: Mode::FILE_DEFAULT,
            append: false,
        },
        BatchEntry::Close {
            fd: BatchFd::FromEntry(0),
        },
    ])
    .after(3, 1)
}

fn neighbour_probe(i: usize) -> SyscallBatch {
    SyscallBatch::single(BatchEntry::ReadFile {
        dirfd: None,
        path: format!("/data/x{i}/key"),
    })
}

/// Pool execution vs sequential replay: per-session results and denial
/// sequences must match exactly (fd numbers excluded — descriptor
/// allocation order under interleaved waves is legitimately different).
#[test]
fn batch_pool_matches_sequential_replay() {
    for cached in [true, false] {
        let (kernel_a, policy_a, fixtures_a) = build_kernel(cached);
        let (mut kernel_b, policy_b, fixtures_b) = build_kernel(cached);
        for (a, b) in fixtures_a.iter().zip(&fixtures_b) {
            assert_eq!(a.session, b.session);
        }
        let shared = KernelShards::from_kernel(kernel_a);
        let pool = BatchPool::new(4);
        let mut pool_results: Vec<Vec<String>> = vec![Vec::new(); SESSIONS];

        // Each round submits one pipeline + one denied probe per session
        // through the pool; a session's rounds stay ordered (its own
        // subtree mutations must not race), different sessions' waves
        // interleave inside each round.
        for round in 0..ROUNDS {
            let jobs: Vec<BatchJob> = fixtures_a
                .iter()
                .enumerate()
                .flat_map(|(i, fx)| {
                    [
                        BatchJob {
                            pid: fx.child,
                            batch: session_pipeline(i, round),
                            fence: Vec::new(),
                        },
                        BatchJob {
                            pid: fx.child,
                            batch: neighbour_probe(i),
                            fence: Vec::new(),
                        },
                    ]
                })
                .collect();
            let outs = pool.run(&shared, jobs);
            for (j, out) in outs.into_iter().enumerate() {
                let session = j / 2;
                let slots = out.expect("pool job");
                pool_results[session].extend(slots.iter().map(fingerprint));
            }
        }
        assert!(
            !shared.with_shard(0, |k| k.batch_in_flight()),
            "no batch state may leak past the pool"
        );

        // Sequential replay of the identical per-session job streams.
        let mut seq_results: Vec<Vec<String>> = vec![Vec::new(); SESSIONS];
        for round in 0..ROUNDS {
            for (i, fx) in fixtures_b.iter().enumerate() {
                for batch in [session_pipeline(i, round), neighbour_probe(i)] {
                    let out = kernel_b.run_sequential(fx.child, &batch).expect("seq");
                    seq_results[i].extend(out.iter().map(fingerprint));
                }
            }
        }
        for i in 0..SESSIONS {
            assert_eq!(
                pool_results[i], seq_results[i],
                "session {i} (cached={cached}): pool execution diverged from \
                 sequential replay"
            );
            assert_eq!(
                session_denials(&policy_a, fixtures_a[i].session),
                session_denials(&policy_b, fixtures_b[i].session),
                "session {i} (cached={cached}): pool denials diverged"
            );
        }
    }
}

/// The pool must also be equivalent for the random *flat* batch streams
/// the per-session-thread suites use — one job per batch, per-session
/// order preserved by submitting each session's rounds as successive
/// pool runs.
#[test]
fn batch_pool_random_flat_batches_match_sequential_replay() {
    let (kernel_a, policy_a, fixtures_a) = build_kernel(true);
    let (mut kernel_b, policy_b, fixtures_b) = build_kernel(true);
    let shared = KernelShards::from_kernel(kernel_a);
    let pool = BatchPool::new(4);
    let all_batches: Vec<Vec<SyscallBatch>> = fixtures_a
        .iter()
        .enumerate()
        .map(|(i, fx)| session_batches(i, &fx.fds))
        .collect();

    let mut pool_results: Vec<Vec<String>> = vec![Vec::new(); SESSIONS];
    for round in 0..ROUNDS {
        let jobs: Vec<BatchJob> = fixtures_a
            .iter()
            .zip(&all_batches)
            .map(|(fx, batches)| BatchJob {
                pid: fx.child,
                batch: batches[round].clone(),
                fence: Vec::new(),
            })
            .collect();
        let outs = pool.run(&shared, jobs);
        for (i, out) in outs.into_iter().enumerate() {
            let slots = out.expect("pool job");
            pool_results[i].extend(slots.iter().map(fingerprint));
        }
    }

    // Sessions are confined to disjoint subtrees, so session-major replay
    // order is equivalent to round-major.
    let mut seq_results: Vec<Vec<String>> = vec![Vec::new(); SESSIONS];
    for (i, fx) in fixtures_b.iter().enumerate() {
        for batch in &all_batches[i] {
            let out = kernel_b.run_sequential(fx.child, batch).expect("seq");
            seq_results[i].extend(out.iter().map(fingerprint));
        }
    }
    for i in 0..SESSIONS {
        assert_eq!(
            pool_results[i], seq_results[i],
            "session {i}: pooled flat batches diverged from sequential replay"
        );
        assert_eq!(
            session_denials(&policy_a, fixtures_a[i].session),
            session_denials(&policy_b, fixtures_b[i].session),
            "session {i}: pooled flat-batch denials diverged"
        );
    }
}

// ===================================================================
// ISSUE 5: the sharded kernel. The PR 4 equivalence guarantees must hold
// unchanged against `KernelShards` at any shard count: shard-count-1 is
// bit-for-bit the PR 3/4 single-lock kernel, and at N shards each shard's
// sessions must match a standalone twin built identically — any
// cross-shard interference through the shared policy state would diverge.
// Honors SHILL_SHARDS (CI runs 1, 2, and 4).
// ===================================================================

use shill::kernel::shard_count_from_env;

#[test]
fn sharded_pool_matches_per_shard_sequential_replay() {
    let nshards = shard_count_from_env(2);
    for cached in [true, false] {
        // Sharded side: ONE policy across all shards, `SESSIONS` sandboxes
        // per shard, every job shard-local through the persistent pool.
        let policy_a = ShillPolicy::new();
        let shards = KernelShards::new_with(nshards, |k, _| {
            k.set_cache_enabled(cached, cached);
            populate_fs(k);
        });
        shards.register_policy(policy_a.clone());
        let fixtures_a: Vec<Vec<SessionFixture>> = (0..nshards)
            .map(|s| {
                let mut k = shards.lock_shard(s);
                build_sessions(&mut k, &policy_a)
            })
            .collect();

        // Twin side: per-shard standalone kernels with their own policy,
        // built identically (same shard index, so identical id spaces).
        let mut twins: Vec<(Kernel, Arc<ShillPolicy>, Vec<SessionFixture>)> = (0..nshards)
            .map(|s| {
                let mut k = Kernel::new_shard(s);
                k.set_cache_enabled(cached, cached);
                let p = ShillPolicy::new();
                k.register_policy(p.clone());
                populate_fs(&mut k);
                let f = build_sessions(&mut k, &p);
                (k, p, f)
            })
            .collect();
        for (s, (_, _, fb)) in twins.iter().enumerate() {
            for (a, b) in fixtures_a[s].iter().zip(fb) {
                assert_eq!(a.child, b.child, "twin shard {s} diverged");
                assert_eq!(a.fds, b.fds);
            }
        }

        // Twice as many workers as shards: the non-affine half has nothing
        // routed to it and lives entirely off stolen jobs, so the replay
        // equivalence below is checked *with stealing engaged*, not just
        // with affine workers keeping up.
        let pool = BatchPool::new(nshards * 2);
        let rendezvous_before = shards.rendezvous_count();
        let mut pool_results: Vec<Vec<Vec<String>>> = vec![vec![Vec::new(); SESSIONS]; nshards];
        for round in 0..ROUNDS {
            let jobs: Vec<BatchJob> = (0..nshards)
                .flat_map(|s| {
                    fixtures_a[s].iter().enumerate().flat_map(move |(i, fx)| {
                        [
                            BatchJob {
                                pid: fx.child,
                                batch: session_pipeline(i, round),
                                fence: Vec::new(),
                            },
                            BatchJob {
                                pid: fx.child,
                                batch: neighbour_probe(i),
                                fence: Vec::new(),
                            },
                        ]
                    })
                })
                .collect();
            let outs = pool.run(&shards, jobs);
            for (j, out) in outs.into_iter().enumerate() {
                let (s, rest) = (j / (SESSIONS * 2), j % (SESSIONS * 2));
                let i = rest / 2;
                let slots = out.expect("pool job");
                pool_results[s][i].extend(slots.iter().map(fingerprint));
            }
        }
        for s in 0..nshards {
            assert!(
                !shards.with_shard(s, |k| k.batch_in_flight()),
                "batch state leaked on shard {s}"
            );
        }
        assert_eq!(
            shards.rendezvous_count(),
            rendezvous_before,
            "shard-local jobs must never pay a rendezvous"
        );
        // Steal accounting: the kernel books a stolen job on its home
        // shard inside its first wave, so the merged kernel count can
        // never exceed the pool's own tally.
        assert!(
            shards.stats().pool_steals <= pool.steals(),
            "kernel recorded more steals ({}) than the pool ({})",
            shards.stats().pool_steals,
            pool.steals()
        );

        // Per-shard sequential replay on the twins.
        for (s, (kernel_b, policy_b, fixtures_b)) in twins.iter_mut().enumerate() {
            for round in 0..ROUNDS {
                for (i, fx) in fixtures_b.iter().enumerate() {
                    let mut seq = Vec::new();
                    for batch in [session_pipeline(i, round), neighbour_probe(i)] {
                        let out = kernel_b.run_sequential(fx.child, &batch).expect("seq");
                        seq.extend(out.iter().map(fingerprint));
                    }
                    let start = round * seq.len();
                    assert_eq!(
                        &pool_results[s][i][start..start + seq.len()],
                        &seq[..],
                        "shard {s} session {i} round {round} (cached={cached}, \
                         shards={nshards}): sharded pool diverged from twin replay"
                    );
                }
            }
            for (a, b) in fixtures_a[s].iter().zip(fixtures_b.iter()) {
                assert_eq!(
                    session_denials(&policy_a, a.session),
                    session_denials(policy_b, b.session),
                    "shard {s}: audit denials diverged (cached={cached})"
                );
            }
        }
    }
}
