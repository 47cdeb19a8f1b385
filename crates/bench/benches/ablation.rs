//! Ablation benches: what each design choice of the SHILL stack costs or
//! saves, one group per choice. Every group runs its arms in interleaved
//! rounds and reports through `shill_bench::Group` (see the crate docs);
//! `SHILL_BENCH_ONLY=<group>[,<group>…]` runs a subset.
//!
//! * **cache** — deep-path repeated `fstatat` (depth 9) with the AVC on vs
//!   off (the `security.cache.avc` sysctl): time per op, policy-reaching MAC
//!   checks, AVC hits and directory scans.
//! * **batch** — the same entries through `Kernel::submit_batch` vs
//!   replayed sequentially (`Kernel::run_sequential`) on the deep-path stat
//!   and streaming-copy workloads: time per op, ulimit charges, MAC context
//!   setups. Deep-stat has a third arm, batched with the trace plane armed
//!   on every site; its ratio to the batched arm is the tracing tax CI
//!   gates at 1.10×.
//! * **sched** — (a) copies as fused pipelines (`ReadFile → WriteFile{data:
//!   OutputOf}` in one submission) vs two submissions; (b) the
//!   multi-session workload per call vs as scheduled fused chains, on one
//!   thread.
//! * **shard** — sandboxed sessions of open/read/close + stat batches on
//!   worker threads, pinned across 1, 2 and 4 kernel shards, vs the same
//!   sessions run one after another on one thread.
//! * **policy** — concurrent session churn against the striped policy
//!   plane at 1, 2 and 4 shards.
//! * **lang** — a SHILL script's async pipeline (one `await_all`) vs its
//!   sequential twin: time and batch submissions per round.
//! * **server** — concurrent authenticated TCP sessions against the
//!   multi-tenant server (`SHILL_BENCH_SERVER_SESSIONS`, default 1000),
//!   per-request latency end to end through the framed protocol.

use std::sync::Arc;
use std::time::{Duration, Instant};

use shill::kernel::{BatchEntry, SyscallBatch, TracePlane, TraceSite};
use shill::prelude::*;
use shill_bench::{interleave, runs, Group, Metric, Stats};
use shill_cap::{CapPrivs, Priv, PrivSet};
use shill_sandbox::{setup_sandbox, Grant, SandboxSpec};

/// `/deep/d0/…/d8/leaf.bin`: the depth-9 file the cache and batch groups
/// stat.
fn deep_file() -> String {
    let dirs: String = (0..9).map(|i| format!("/d{i}")).collect();
    format!("/deep{dirs}/leaf.bin")
}

/// One cache-group round: `ops` deep-path stats in a sandbox, with
/// per-op counters.
struct CacheRun {
    ns_per_op: f64,
    mac_vnode_checks: f64,
    avc_hits: f64,
    dir_scans: f64,
}

fn cache_run(cached: bool, ops: usize) -> CacheRun {
    let file = deep_file();
    let (mut k, pid) = batch_fixture(|k| {
        k.fs.put_file(&file, b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
    });
    k.set_avc_enabled(cached);
    k.fstatat(pid, None, &file, true).unwrap(); // warmup + propagation
    k.stats.reset();
    let t0 = Instant::now();
    for _ in 0..ops {
        k.fstatat(pid, None, &file, true).unwrap();
    }
    let elapsed = t0.elapsed();
    let st = k.stats.snapshot();
    let per = |c: u64| c as f64 / ops as f64;
    CacheRun {
        ns_per_op: elapsed.as_nanos() as f64 / ops as f64,
        mac_vnode_checks: per(st.mac_vnode_checks),
        avc_hits: per(st.avc_hits),
        dir_scans: per(st.dir_scans),
    }
}

const CACHE_METRICS: [Metric<CacheRun>; 4] = [
    ("time", "ns/op", |c| c.ns_per_op),
    ("mac_vnode_checks", "count/op", |c| c.mac_vnode_checks),
    ("avc_hits", "count/op", |c| c.avc_hits),
    ("dir_scans", "count/op", |c| c.dir_scans),
];

fn bench_cache() {
    const ARMS: [&str; 2] = ["cached", "uncached"];
    let r = interleave(runs(), 2, |arm| cache_run(arm == 0, 3_334));
    let mut g = Group::new("cache");
    for (metric, unit, f) in CACHE_METRICS {
        g.per_arm(metric, unit, &ARMS, &r, f);
    }
    g.ratio("time_ratio", &ARMS, &r, 1, 0, |c| c.ns_per_op);
    g.write();
}

/// One batch-group round, counters per op.
struct BatchRun {
    ns_per_op: f64,
    charge_calls: f64,
    mac_ctx_setups: f64,
    trace_events: f64,
    trace_dropped: f64,
}

/// A sandboxed kernel (full root grant, caches on).
fn batch_fixture(build: impl FnOnce(&mut Kernel)) -> (Kernel, Pid) {
    let mut k = Kernel::new();
    build(&mut k);
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let spec = SandboxSpec {
        grants: vec![Grant::vnode(root, CapPrivs::full())],
        ..Default::default()
    };
    let sb = setup_sandbox(&mut k, &policy, user, &spec).expect("sandbox");
    (k, sb.child)
}

/// Submit `batch` through the scheduler, or replay it sequentially.
fn submit(
    k: &mut Kernel,
    pid: Pid,
    batch: &SyscallBatch,
    batched: bool,
) -> Vec<shill_vfs::SysResult<shill::kernel::BatchOut>> {
    if batched {
        k.submit_batch(pid, batch).unwrap()
    } else {
        k.run_sequential(pid, batch).unwrap()
    }
}

/// Deep-path stat workload: `submissions` batches of `width` repeated
/// stats of the depth-9 file. One "op" is one stat entry. With `traced`
/// the trace plane is armed on every site and its ring drained after each
/// submission, outside the timing, so the traced arm pays the steady-state
/// push cost, never the ring-full fast path.
fn batch_stat_run(batched: bool, traced: bool, submissions: usize, width: usize) -> BatchRun {
    let file = deep_file();
    let (mut k, pid) = batch_fixture(|k| {
        k.fs.put_file(&file, b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
    });
    let plane = traced.then(|| Arc::new(TracePlane::new(TraceSite::ALL_MASK, 1 << 16)));
    k.set_trace_plane(plane.clone());
    let batch = SyscallBatch::new(
        (0..width)
            .map(|_| BatchEntry::Stat {
                dirfd: None,
                path: file.clone(),
                follow: true,
            })
            .collect(),
    );
    // Warmup (propagation + caches), then measure.
    k.fstatat(pid, None, &file, true).unwrap();
    k.stats.reset();
    let mut busy = Duration::ZERO;
    let mut trace_events = 0u64;
    for _ in 0..submissions {
        let t0 = Instant::now();
        let out = submit(&mut k, pid, &batch, batched);
        busy += t0.elapsed();
        debug_assert!(out.iter().all(|r| r.is_ok()));
        if let Some(plane) = &plane {
            trace_events += plane.drain().len() as u64;
        }
    }
    let st = k.stats_snapshot();
    let ops = (submissions * width) as f64;
    BatchRun {
        ns_per_op: busy.as_nanos() as f64 / ops,
        charge_calls: st.charge_calls as f64 / ops,
        mac_ctx_setups: st.mac_ctx_setups as f64 / ops,
        trace_events: trace_events as f64 / ops,
        trace_dropped: st.trace_dropped as f64,
    }
}

/// Streaming-copy workload: a source-tree sweep (`files` 2 KiB files under
/// a shared deep dirname, the cp -r shape) copied via the fused
/// read-file/write-file entries, `rounds` times. One "op" is one file
/// copied.
fn batch_copy_run(batched: bool, rounds: usize, files: usize) -> BatchRun {
    let src = "/srcdir/project/src/lib/util";
    let dst = "/dstdir/project/src/lib/util";
    let (mut k, pid) = batch_fixture(|k| {
        for i in 0..files {
            k.fs.put_file(
                &format!("{src}/f{i}"),
                &vec![b'd'; 2 * 1024],
                Mode(0o644),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        }
        k.fs.mkdir_p(dst, Mode(0o777), Uid::ROOT, Gid::WHEEL)
            .unwrap();
    });
    let reads = SyscallBatch::new(
        (0..files)
            .map(|i| BatchEntry::ReadFile {
                dirfd: None,
                path: format!("{src}/f{i}"),
            })
            .collect(),
    );
    // Warmup: one read pass populates propagation and caches.
    submit(&mut k, pid, &reads, batched);
    k.stats.reset();
    let t0 = Instant::now();
    for _ in 0..rounds {
        let out = submit(&mut k, pid, &reads, batched);
        let writes = SyscallBatch::new(
            out.into_iter()
                .enumerate()
                .map(|(i, r)| BatchEntry::WriteFile {
                    dirfd: None,
                    path: format!("{dst}/f{i}"),
                    data: match r {
                        Ok(shill::kernel::BatchOut::Data(d)) => d.into(),
                        _ => unreachable!("read failed"),
                    },
                    mode: Mode(0o644),
                    append: false,
                })
                .collect(),
        );
        let out = submit(&mut k, pid, &writes, batched);
        debug_assert!(out.iter().all(|r| r.is_ok()));
    }
    let elapsed = t0.elapsed();
    let st = k.stats.snapshot();
    let ops = (rounds * files) as f64;
    BatchRun {
        ns_per_op: elapsed.as_nanos() as f64 / ops,
        charge_calls: st.charge_calls as f64 / ops,
        mac_ctx_setups: st.mac_ctx_setups as f64 / ops,
        trace_events: 0.0,
        trace_dropped: 0.0,
    }
}

const BATCH_METRICS: [Metric<BatchRun>; 3] = [
    ("time", "ns/op", |b| b.ns_per_op),
    ("charge_calls", "count/op", |b| b.charge_calls),
    ("mac_ctx_setups", "count/op", |b| b.mac_ctx_setups),
];

fn bench_batch() {
    const STAT: [&str; 3] = ["batched", "sequential", "traced"];
    const COPY: [&str; 2] = ["batched", "sequential"];
    let stat = interleave(runs(), 3, |arm| batch_stat_run(arm != 1, arm == 2, 300, 64));
    let copy = interleave(runs(), 2, |arm| batch_copy_run(arm == 0, 20, 48));
    let mut g = Group::new("batch");
    for (metric, unit, f) in BATCH_METRICS {
        g.per_arm(&format!("deep_stat.{metric}"), unit, &STAT, &stat, f);
    }
    g.ratio("deep_stat.time_ratio", &STAT, &stat, 1, 0, |b| b.ns_per_op);
    g.ratio("deep_stat.time_ratio", &STAT, &stat, 2, 0, |b| b.ns_per_op);
    let events = stat.stats(2, |b| b.trace_events);
    g.add("deep_stat.trace_events", "count/op", "traced", events);
    let dropped = stat.stats(2, |b| b.trace_dropped);
    g.add("deep_stat.trace_dropped", "count", "traced", dropped);
    for (metric, unit, f) in BATCH_METRICS {
        g.per_arm(&format!("stream_copy.{metric}"), unit, &COPY, &copy, f);
    }
    g.ratio("stream_copy.time_ratio", &COPY, &copy, 1, 0, |b| {
        b.ns_per_op
    });
    g.write();

    let traced = stat.samples(2);
    assert!(
        traced.iter().all(|b| b.trace_dropped == 0.0),
        "ring drained every submission; nothing may drop"
    );
    assert!(
        traced.iter().all(|b| b.trace_events > 0.0),
        "armed plane must record events"
    );
}

/// The shard group's workload, in ns per op: `sessions` confined subtrees
/// of 8 files on each of `nshards` kernel shards, session `i` pinned to
/// shard `i % nshards`, each session running `rounds` of 8
/// open/read/close triples plus one 8-entry stat batch. `threaded` runs
/// every session on its own worker thread; otherwise the sessions run one
/// after another on this thread.
fn session_workload(sessions: usize, rounds: usize, nshards: usize, threaded: bool) -> f64 {
    use shill::kernel::KernelShards;
    use shill_sandbox::{run_sessions, SessionBody, SessionTask};

    let policy = ShillPolicy::new();
    let shards = KernelShards::new_with(nshards, |k, _| {
        for i in 0..sessions {
            for j in 0..8 {
                k.fs.put_file(
                    &format!("/work/s{i}/inner/f{j}"),
                    &vec![b'd'; 512],
                    Mode(0o644),
                    Uid::ROOT,
                    Gid::WHEEL,
                )
                .unwrap();
            }
        }
    });
    shards.register_policy(policy.clone());

    let leaf = CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Stat, Priv::Path]));
    let inner = CapPrivs::of(PrivSet::of(&[Priv::Lookup, Priv::Contents, Priv::Stat]))
        .with_modifier(Priv::Lookup, leaf.clone());
    let tasks: Vec<SessionTask> = (0..sessions)
        .map(|i| {
            let shard = i % nshards;
            // Grants resolve against the pinned shard's namespace (node
            // ids are shard-disjoint).
            let (root, work, dir) = shards.with_shard(shard, |k| {
                (
                    k.fs.root(),
                    k.fs.resolve_abs("/work").unwrap(),
                    k.fs.resolve_abs(&format!("/work/s{i}")).unwrap(),
                )
            });
            let spec = SandboxSpec {
                grants: vec![
                    Grant::vnode(root, CapPrivs::of(PrivSet::of(&[Priv::Lookup]))),
                    Grant::vnode(work, CapPrivs::of(PrivSet::of(&[Priv::Lookup]))),
                    Grant::vnode(
                        dir,
                        CapPrivs::of(PrivSet::of(&[Priv::Lookup, Priv::Contents, Priv::Stat]))
                            .with_modifier(Priv::Lookup, inner.clone()),
                    ),
                ],
                ..Default::default()
            };
            let body: SessionBody = Arc::new(move |shards, pid, _sid| {
                for _ in 0..rounds {
                    for j in 0..8 {
                        let ok = shards.with_pid(pid, |k| {
                            let fd = k.open(
                                pid,
                                &format!("/work/s{i}/inner/f{j}"),
                                OpenFlags::RDONLY,
                                Mode(0),
                            )?;
                            let _ = k.read(pid, fd, 512)?;
                            k.close(pid, fd)
                        });
                        if ok.is_err() {
                            return 1;
                        }
                    }
                    let batch = SyscallBatch::new(
                        (0..8)
                            .map(|j| BatchEntry::Stat {
                                dirfd: None,
                                path: format!("/work/s{i}/inner/f{j}"),
                                follow: true,
                            })
                            .collect(),
                    );
                    let out = shards.with_pid(pid, |k| k.submit_batch(pid, &batch));
                    match out {
                        Ok(rs) if rs.iter().all(|r| r.is_ok()) => {}
                        _ => return 1,
                    }
                }
                0
            });
            SessionTask { shard, spec, body }
        })
        .collect();

    // ops per session per round: 8 open/read/close triples + 8 stat entries.
    let ops = (sessions * rounds * (8 * 3 + 8)) as f64;
    let t0 = Instant::now();
    if threaded {
        let outcomes =
            run_sessions(&shards, &policy, shill_vfs::Cred::user(100), tasks).expect("sessions");
        assert!(outcomes.iter().all(|o| o.status == 0));
    } else {
        for task in tasks {
            let outcomes = run_sessions(&shards, &policy, shill_vfs::Cred::user(100), vec![task])
                .expect("session");
            assert!(outcomes.iter().all(|o| o.status == 0));
        }
    }
    let elapsed = t0.elapsed();
    assert_eq!(
        shards.rendezvous_count(),
        if nshards > 1 { 1 } else { 0 },
        "only the policy attach may rendezvous — session traffic is shard-local"
    );
    elapsed.as_nanos() as f64 / ops
}

/// One sched-group copy round, counters per file.
struct SchedRun {
    ns_per_op: f64,
    batches: f64,
    slot_links: f64,
}

/// Copy `files` files of `size` bytes `rounds` times, either as fused
/// pipelines (one scheduled submission per file, data flowing via
/// `OutputOf`) or as the two-submission slurp-then-spit form. One "op" is
/// one file copied.
fn sched_copy_run(fused: bool, rounds: usize, files: usize, size: usize) -> SchedRun {
    use shill::kernel::BatchArg;
    // cp-in-place shape (`cp f f.bak`): source and copy share a deep
    // dirname. Both forms walk it once per entry; the fused pipeline saves
    // a submission's charge and MAC context, and the copy's round trip
    // through the caller.
    let src = "/srcdir/p/a/b/c/d/e/f/util";
    let dst = src;
    let (mut k, pid) = batch_fixture(|k| {
        for i in 0..files {
            k.fs.put_file(
                &format!("{src}/f{i}"),
                &vec![b'd'; size],
                Mode(0o644),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        }
        k.fs.mkdir_p(dst, Mode(0o777), Uid::ROOT, Gid::WHEEL)
            .unwrap();
    });
    // Warmup pass (propagation + caches).
    for i in 0..files {
        let _ = k.submit_single(
            pid,
            BatchEntry::ReadFile {
                dirfd: None,
                path: format!("{src}/f{i}"),
            },
        );
    }
    k.stats.reset();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for i in 0..files {
            if fused {
                let batch = SyscallBatch::aborting(vec![
                    BatchEntry::ReadFile {
                        dirfd: None,
                        path: format!("{src}/f{i}"),
                    },
                    BatchEntry::WriteFile {
                        dirfd: None,
                        path: format!("{dst}/c{i}"),
                        data: BatchArg::OutputOf(0),
                        mode: Mode(0o644),
                        append: false,
                    },
                ]);
                let out = k.submit_batch(pid, &batch).unwrap();
                debug_assert!(out.iter().all(|r| r.is_ok()));
            } else {
                let data = k
                    .submit_single(
                        pid,
                        BatchEntry::ReadFile {
                            dirfd: None,
                            path: format!("{src}/f{i}"),
                        },
                    )
                    .unwrap();
                let shill::kernel::BatchOut::Data(data) = data else {
                    unreachable!()
                };
                k.submit_single(
                    pid,
                    BatchEntry::WriteFile {
                        dirfd: None,
                        path: format!("{dst}/c{i}"),
                        data: data.into(),
                        mode: Mode(0o644),
                        append: false,
                    },
                )
                .unwrap();
            }
        }
    }
    let elapsed = t0.elapsed();
    let st = k.stats.snapshot();
    let ops = (rounds * files) as f64;
    SchedRun {
        ns_per_op: elapsed.as_nanos() as f64 / ops,
        batches: st.batches as f64 / ops,
        slot_links: st.slot_links as f64 / ops,
    }
}

/// `sessions` sandboxed subtrees × `rounds`, each round touching 8 files
/// (open/read/close) and stat-sweeping them — the shard group's workload —
/// on this thread, in ns per op. One "op" is one logical syscall (8×3 + 8
/// per session-round), so ns/op is directly comparable with the shard
/// group's. Unscheduled, each session runs per-call open/read/close
/// triples plus one batched stat sweep per round. Scheduled, it submits
/// the same work as `FOLD` rounds of 8 fused open→read→close chains in ONE
/// batch (reads overlapping as a wave) plus the folded stat sweep.
/// `rounds` is a multiple of `FOLD`.
fn sched_session_run(sessions: usize, rounds: usize, scheduled: bool) -> f64 {
    use shill::kernel::{BatchFd, KernelShards};

    let mut k = Kernel::new();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let inner = |i: usize| format!("/work/s{i}/p/a/b/c/d/e/inner");
    for i in 0..sessions {
        for j in 0..8 {
            k.fs.put_file(
                &format!("{}/f{j}", inner(i)),
                &vec![b'd'; 512],
                Mode(0o644),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        }
    }
    let root = k.fs.root();
    let user = k.spawn_user(Cred::ROOT);
    let mut children = Vec::new();
    for _ in 0..sessions {
        let spec = SandboxSpec {
            grants: vec![Grant::vnode(root, CapPrivs::full())],
            ..Default::default()
        };
        let sb = setup_sandbox(&mut k, &policy, user, &spec).expect("sandbox");
        children.push(sb.child);
    }
    let shared = KernelShards::from_kernel(k);

    // `fold` rounds of the 8-file stat sweep in one submission.
    let sweep = |i: usize, fold: usize| -> SyscallBatch {
        SyscallBatch::new(
            (0..fold * 8)
                .map(|j| BatchEntry::Stat {
                    dirfd: None,
                    path: format!("{}/f{}", inner(i), j % 8),
                    follow: true,
                })
                .collect(),
        )
    };
    // `fold` rounds of 8 independent open→read→close chains fused into one
    // submission: the opens form wave 0, the reads wave 1, the closes
    // wave 2 (how a session actually uses the scheduler — submissions as
    // large as its dependency structure allows).
    let pipelines = |i: usize, fold: usize| -> SyscallBatch {
        let mut batch = SyscallBatch::new(Vec::new());
        for j in 0..fold * 8 {
            let open = batch.push(BatchEntry::Open {
                dirfd: None,
                path: format!("{}/f{}", inner(i), j % 8),
                flags: OpenFlags::RDONLY,
                mode: Mode(0),
            });
            let read = batch.push(BatchEntry::Read {
                fd: BatchFd::FromEntry(open),
                len: 512,
            });
            let close = batch.push(BatchEntry::Close {
                fd: BatchFd::FromEntry(open),
            });
            batch.deps.push((close, read));
        }
        batch
    };

    // ops per session-round: 8 open/read/close triples + 8 stat entries.
    let ops = (sessions * rounds * (8 * 3 + 8)) as f64;
    let t0 = Instant::now();
    if scheduled {
        for _ in 0..rounds / FOLD {
            for (i, &pid) in children.iter().enumerate() {
                for batch in [pipelines(i, FOLD), sweep(i, FOLD)] {
                    let out = shared
                        .with_pid(pid, |k| k.submit_batch(pid, &batch))
                        .expect("scheduled");
                    assert!(out.iter().all(|r| r.is_ok()));
                }
            }
        }
    } else {
        for _ in 0..rounds {
            for (i, &pid) in children.iter().enumerate() {
                for j in 0..8 {
                    shared
                        .with_pid(pid, |k| {
                            let fd = k.open(
                                pid,
                                &format!("{}/f{j}", inner(i)),
                                OpenFlags::RDONLY,
                                Mode(0),
                            )?;
                            let _ = k.read(pid, fd, 512)?;
                            k.close(pid, fd)
                        })
                        .expect("triple");
                }
                let out = shared
                    .with_pid(pid, |k| k.submit_batch(pid, &sweep(i, 1)))
                    .expect("sweep");
                assert!(out.iter().all(|r| r.is_ok()));
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / ops
}

/// Rounds folded into one scheduled submission in the sched group's
/// scheduled modes.
const FOLD: usize = 8;

const SCHED_METRICS: [Metric<SchedRun>; 3] = [
    ("copy.time", "ns/file", |c| c.ns_per_op),
    ("copy.batches", "count/file", |c| c.batches),
    ("copy.slot_links", "count/file", |c| c.slot_links),
];

fn bench_sched() {
    const COPY: [&str; 2] = ["fused", "two_submission"];
    const SESSIONS: [&str; 2] = ["per_call_single", "scheduled_single"];
    let copy = interleave(runs(), 2, |arm| sched_copy_run(arm == 0, 64, 32, 512));
    let sessions = interleave(runs(), SESSIONS.len(), |arm| {
        sched_session_run(4, 12 * FOLD, arm == 1)
    });
    let mut g = Group::new("sched");
    for (metric, unit, f) in SCHED_METRICS {
        g.per_arm(metric, unit, &COPY, &copy, f);
    }
    g.ratio("copy.time_ratio", &COPY, &copy, 1, 0, |c| c.ns_per_op);
    g.per_arm("sessions.time", "ns/op", &SESSIONS, &sessions, |&ns| ns);
    g.ratio("sessions.time_ratio", &SESSIONS, &sessions, 0, 1, |&ns| ns);
    g.write();
}

/// Sessions pinned round-robin across 1, 2 and 4 kernel shards on worker
/// threads, against the same sessions driven one after another by one
/// thread. At one shard every wave serializes on one kernel lock; at N
/// shards, sessions on different shards contend on no kernel lock at all
/// and pay zero rendezvous (the workload asserts it). On one core the
/// shards can only time-slice; the records carry `cores`.
fn bench_shard() {
    const ARMS: [&str; 4] = ["single_thread", "shards=1", "shards=2", "shards=4"];
    let r = interleave(runs(), ARMS.len(), |arm| match arm {
        0 => session_workload(4, 96, 1, false),
        a => session_workload(4, 96, 1 << (a - 1), true),
    });
    let mut g = Group::new("shard");
    g.per_arm("time", "ns/op", &ARMS, &r, |&ns| ns);
    for den in [0, 2, 3] {
        g.ratio("time_ratio", &ARMS, &r, 1, den, |&ns| ns);
    }
    g.write();
}

/// One churn run: time per session cycled and the policy's contended
/// stripe acquisitions while they cycled.
struct ChurnRun {
    ns_per_session: f64,
    contention: f64,
}

/// Concurrent session churn: one churner thread per kernel shard, each
/// cycling sandboxes (setup → first-touch `files` labels through lookup
/// propagation → reclaim). Every phase of a cycle hits the policy plane:
/// `shill_init`/grants/`shill_enter` (stripe writes + epoch bump), the
/// first touches (stripe write per new label), and the reclaim scrub
/// (stripe write + epoch bump). With striped state the churners only
/// collide when their session ids share a stripe.
fn policy_churn_workload(nshards: usize, per_shard: usize, files: usize) -> ChurnRun {
    use shill::kernel::{KernelShards, Pid};

    let policy = ShillPolicy::new();
    let shards = KernelShards::new_with(nshards, |k, _| {
        for j in 0..files {
            k.fs.put_file(
                &format!("/churn/f{j}"),
                b"x",
                Mode(0o644),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        }
    });
    shards.register_policy(policy.clone());
    let contention_before = policy.stats().stripe_contention;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for s in 0..nshards {
            let shards = shards.clone();
            let policy = Arc::clone(&policy);
            scope.spawn(move || {
                let leaf = CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Stat]));
                for _ in 0..per_shard {
                    shards.with_shard(s, |k| {
                        let parent = k.spawn_user(Cred::user(100));
                        let root = k.fs.root();
                        let dir = k.fs.resolve_abs("/churn").unwrap();
                        let spec = SandboxSpec {
                            grants: vec![
                                Grant::vnode(root, CapPrivs::of(PrivSet::of(&[Priv::Lookup]))),
                                Grant::vnode(
                                    dir,
                                    CapPrivs::of(PrivSet::of(&[Priv::Lookup]))
                                        .with_modifier(Priv::Lookup, leaf.clone()),
                                ),
                            ],
                            ..Default::default()
                        };
                        let sb = setup_sandbox(k, &policy, parent, &spec).expect("churn sandbox");
                        for j in 0..files {
                            if let Ok(fd) = k.open(
                                sb.child,
                                &format!("/churn/f{j}"),
                                OpenFlags::RDONLY,
                                Mode(0),
                            ) {
                                let _ = k.close(sb.child, fd);
                            }
                        }
                        k.exit(sb.child, 0);
                        let _ = k.waitpid(parent, sb.child);
                        k.exit(parent, 0);
                        let _ = k.waitpid(Pid(1), parent);
                    });
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let sessions = (nshards * per_shard) as f64;
    ChurnRun {
        ns_per_session: elapsed.as_nanos() as f64 / sessions,
        contention: (policy.stats().stripe_contention - contention_before) as f64,
    }
}

/// The striped policy plane under session churn as shards (and churner
/// threads) grow, with stripe-contention counts alongside. On fewer cores
/// than shards the shard counts time-slice, so the ratio reads as
/// contention reduction, not parallel speedup.
fn bench_policy() {
    const ARMS: [&str; 3] = ["shards=1", "shards=2", "shards=4"];
    let r = interleave(runs(), ARMS.len(), |arm| {
        policy_churn_workload(1 << arm, 60, 12)
    });
    let mut g = Group::new("policy");
    let metrics: [Metric<ChurnRun>; 2] = [
        ("churn.time", "ns/session", |c| c.ns_per_session),
        ("churn.stripe_contention", "count", |c| c.contention),
    ];
    for (metric, unit, f) in metrics {
        g.per_arm(metric, unit, &ARMS, &r, f);
    }
    for den in 1..ARMS.len() {
        g.ratio("churn.time_ratio", &ARMS, &r, 0, den, |c| c.ns_per_session);
    }
    g.write();
}

/// The lang group's script pair: the async pipeline and its sequential
/// twin, identical work — copy src→dst (slot-linked), two reads, one stat
/// sweep — differing only in when the kernel sees it.
const LANG_PIPELINE: &str = r#"#lang shill/cap
require shill/filesys;
provide fused :
  {src : file(+read), a : file(+read), b : file(+read),
   d : dir(+contents, +lookup, +stat), dst : file(+write)} -> is_list;
provide sequential :
  {src : file(+read), a : file(+read), b : file(+read),
   d : dir(+contents, +lookup, +stat), dst : file(+write)} -> is_list;
fused = fun(src, a, b, d, dst) {
  f0 = async copy_file(src, dst);
  f1 = async read(a);
  f2 = async read(b);
  f3 = async dir_stats(d);
  await_all([f0, f1, f2, f3])
};
sequential = fun(src, a, b, d, dst) {
  [copy_file(src, dst), read(a), read(b), dir_stats(d)]
};
"#;

/// One lang-group round: drive `rounds` pipeline invocations through a
/// fresh runtime, returning (ns/round, batch submissions/round).
fn lang_mode_run(mode: &str, rounds: usize) -> (f64, f64) {
    let mut rt = shill::setup::standard_runtime();
    for (path, data) in [
        ("/home/user/lang/src.bin", vec![b'p'; 16_384]),
        ("/home/user/lang/a.txt", b"alpha".to_vec()),
        ("/home/user/lang/b.txt", b"bravo".to_vec()),
        ("/home/user/lang/dst.bin", Vec::new()),
    ] {
        rt.kernel()
            .fs
            .put_file(path, &data, Mode(0o644), Uid(100), Gid(100))
            .unwrap();
    }
    for i in 0..6 {
        rt.kernel()
            .fs
            .put_file(
                &format!("/home/user/lang/sweep/s{i}.txt"),
                &vec![b's'; 100 * (i + 1)],
                Mode(0o644),
                Uid(100),
                Gid(100),
            )
            .unwrap();
    }
    rt.add_script("pipeline.cap", LANG_PIPELINE);
    let driver = format!(
        r#"#lang shill/ambient
require "pipeline.cap";
{mode}(open_file("/home/user/lang/src.bin"), open_file("/home/user/lang/a.txt"),
   open_file("/home/user/lang/b.txt"), open_dir("/home/user/lang/sweep"),
   open_file("/home/user/lang/dst.bin"))
"#
    );
    // Warm the module cache and the AVC before timing.
    rt.run("warmup", &driver).expect("warmup");
    let before = rt.kernel().stats_snapshot();
    let t0 = Instant::now();
    for i in 0..rounds {
        rt.run(&format!("round{i}"), &driver).expect("round");
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    let after = rt.kernel().stats_snapshot();
    (
        elapsed / rounds as f64,
        (after.batches - before.batches) as f64 / rounds as f64,
    )
}

/// Language-surface fusion: the async script vs its sequential twin. The
/// submission count is the structural claim (ONE accumulated
/// `submit_batch` per round vs one private batch per operation) and is
/// machine-independent; time per round is box-dependent.
fn bench_lang() {
    const ARMS: [&str; 2] = ["fused", "sequential"];
    let r = interleave(runs(), 2, |arm| lang_mode_run(ARMS[arm], 60));
    let mut g = Group::new("lang");
    g.per_arm("time", "ns/round", &ARMS, &r, |m| m.0);
    g.ratio("time_ratio", &ARMS, &r, 1, 0, |m| m.0);
    g.per_arm("submissions", "count/round", &ARMS, &r, |m| m.1);
    g.write();
    assert!(
        r.stats(0, |m| m.1).median < r.stats(1, |m| m.1).median,
        "the fused script must submit fewer batches than its twin"
    );
}

/// Server front-end load generation. Open `sessions` concurrent
/// authenticated TCP connections (thread-per-connection on the server
/// side, `DRIVERS` client threads each owning a slice), then push `ROUNDS`
/// read frames down every connection, timing each request end-to-end:
/// frame write, server dispatch on the connection thread, reply frame read.
/// The storm is one run; its requests are the sample, so the latency
/// median and quartiles are exact over every request.
fn bench_server() {
    use shill::server::{
        Client, Server, ServerConfig, ServerCore, StaticTokens, TenantQuota, TenantSpec,
    };

    const ROUNDS: usize = 3;
    const DRIVERS: usize = 16;
    const TENANTS: usize = 8;
    let sessions = shill_bench::server_sessions();
    println!("\nserver: {sessions} concurrent sessions, {ROUNDS} rounds, {DRIVERS} drivers");

    let core = ServerCore::new(
        ServerConfig {
            shards: 4,
            max_sessions: sessions + DRIVERS,
            tenants: (0..TENANTS)
                .map(|i| {
                    TenantSpec::new(format!("t{i}")).with_quota(TenantQuota {
                        max_sessions: sessions,
                        max_inflight: sessions,
                        ..Default::default()
                    })
                })
                .collect(),
            ..Default::default()
        },
        Box::new(StaticTokens::new(
            (0..TENANTS).map(|i| (format!("t{i}"), format!("s{i}"))),
        )),
    );
    let server = Server::start(core).expect("bind loopback");
    let addr = server.tcp_addr();

    // Phase 1: the session storm — every connection authenticated and
    // its sandbox entered before any request is timed.
    let t_open = Instant::now();
    let mut conns: Vec<Vec<(Client, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DRIVERS)
            .map(|d| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for s in (d..sessions).step_by(DRIVERS) {
                        let tenant = format!("t{}", s % TENANTS);
                        let mut c = Client::connect_tcp(addr).expect("connect");
                        let reply = c
                            .auth(&tenant, &format!("s{}", s % TENANTS))
                            .expect("auth frame");
                        assert!(reply.starts_with("ok "), "auth refused: {reply}");
                        mine.push((c, format!("read /srv/{tenant}/seed.txt")));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let open_s = t_open.elapsed().as_secs_f64();
    let opened: usize = conns.iter().map(|v| v.len()).sum();
    assert_eq!(opened, sessions, "every session must open");

    // Phase 2: the request storm, one latency sample per request.
    let t0 = Instant::now();
    let samples: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|mine| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(mine.len() * ROUNDS);
                    for _ in 0..ROUNDS {
                        for (c, req) in mine.iter_mut() {
                            let t = Instant::now();
                            let reply = c.req(req).expect("request frame");
                            lat.push(t.elapsed().as_secs_f64() * 1e6);
                            assert!(reply.starts_with("ok "), "refused: {reply}");
                        }
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    let mut all: Vec<f64> = samples.into_iter().flatten().collect();
    all.sort_by(f64::total_cmp);
    let p99 = all[((all.len() as f64 * 0.99) as usize).min(all.len() - 1)];
    let mut g = Group::new("server");
    g.exact("sessions", "count", "", opened as f64);
    g.exact(
        "open_rate",
        "sessions/s",
        "",
        opened as f64 / open_s.max(1e-9),
    );
    g.exact("throughput", "req/s", "", all.len() as f64 / wall.max(1e-9));
    g.add("latency", "us", "", Stats::of(&all));
    g.add(
        "latency_p99",
        "us",
        "",
        Stats {
            median: p99,
            q1: p99,
            q3: p99,
            n: all.len(),
        },
    );
    g.write();

    // Orderly close so the gauge really returns to zero.
    for (mut c, _) in conns.into_iter().flatten() {
        let _ = c.req("bye");
    }
    let core = server.core();
    server.shutdown();
    let open_now: u64 = (0..TENANTS)
        .map(|i| {
            core.tenant_counters(&format!("t{i}"))
                .unwrap()
                .open_sessions
        })
        .sum();
    assert_eq!(open_now, 0, "sessions must all close after the storm");
}

const GROUPS: [(&str, fn()); 7] = [
    ("cache", bench_cache),
    ("batch", bench_batch),
    ("sched", bench_sched),
    ("shard", bench_shard),
    ("policy", bench_policy),
    ("lang", bench_lang),
    ("server", bench_server),
];

fn main() {
    println!(
        "Ablation benches — design-choice costs ({} interleaved rounds; median [IQR])",
        runs()
    );
    // `SHILL_BENCH_ONLY=policy,lang` (comma-separated group names) runs a
    // subset.
    let only = std::env::var("SHILL_BENCH_ONLY").ok();
    let wanted: Vec<&str> = only
        .as_deref()
        .map(|o| o.split(',').map(str::trim).collect())
        .unwrap_or_default();
    for name in &wanted {
        assert!(
            GROUPS.iter().any(|(g, _)| g == name),
            "SHILL_BENCH_ONLY: unknown group {name:?}"
        );
    }
    for (name, bench) in GROUPS {
        if wanted.is_empty() || wanted.contains(&name) {
            bench();
        }
    }
}
