//! Span discipline for the tracing plane (ISSUE 9).
//!
//! Property: **every `Begin` has a matching `End`**, per site, in every
//! execution mode — `run_sequential`, `submit_batch`, and the sharded
//! `BatchPool` — and the property survives standing fault schedules,
//! including injected policy panics (the RAII scope closes during unwind,
//! so containment at the wave boundary never leaks an open span). Alongside the balance property, the tests pin the exported
//! artifacts: Prometheus text exposition with per-site quantiles, and a
//! structurally valid chrome://tracing JSON document.

use std::collections::HashMap;
use std::sync::Arc;

use shill::cap::{CapPrivs, Priv, PrivSet};
use shill::kernel::{
    BatchArg, BatchEntry, BatchFd, FailMode, FaultPlane, Fd, Kernel, KernelShards, OpenFlags, Pid,
    SyscallBatch, TraceEvent, TraceKind, TracePlane, TraceSite,
};
use shill::prelude::*;
use shill::sandbox::{setup_sandbox, BatchJob, BatchPool, Grant, SandboxSpec, ShillPolicy};

fn caps(privs: &[Priv]) -> CapPrivs {
    CapPrivs::of(PrivSet::of(privs))
}

fn populate_fs(k: &mut Kernel) {
    for i in 0..4 {
        k.fs.put_file(
            &format!("/obs/pub/f{i}"),
            format!("obs-{i}").as_bytes(),
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }
    k.fs.put_file("/obs/secret", b"no", Mode(0o666), Uid::ROOT, Gid::WHEEL)
        .unwrap();
}

/// A sandbox granted the `/obs/pub` subtree (with propagation) but not
/// `/obs/secret`, plus one pre-opened descriptor pair. Deterministic
/// construction so every mode sees identical ids.
fn build_sandbox(k: &mut Kernel, policy: &Arc<ShillPolicy>) -> (Pid, Vec<Fd>) {
    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let obs = k.fs.resolve_abs("/obs").unwrap();
    let pub_dir = k.fs.resolve_abs("/obs/pub").unwrap();
    let leaf = caps(&[
        Priv::Read,
        Priv::Write,
        Priv::Append,
        Priv::Stat,
        Priv::Path,
    ]);
    let pub_privs = caps(&[Priv::Lookup, Priv::Contents, Priv::Stat, Priv::CreateFile])
        .with_modifier(Priv::Lookup, leaf.clone())
        .with_modifier(Priv::CreateFile, leaf);
    let spec = SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            Grant::vnode(obs, caps(&[Priv::Lookup])),
            Grant::vnode(pub_dir, pub_privs),
        ],
        ..Default::default()
    };
    let sb = setup_sandbox(k, policy, user, &spec).unwrap();
    let rd = k
        .open(sb.child, "/obs/pub/f0", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    let wr = k
        .open(sb.child, "/obs/pub/f1", OpenFlags::rdwr(), Mode(0))
        .unwrap();
    (sb.child, vec![rd, wr])
}

/// A workload batch mixing reads, writes, stats, denials, and a failing
/// lookup, with a declared edge so the scheduler produces >1 wave.
fn workload(fds: &[Fd], round: usize) -> SyscallBatch {
    SyscallBatch {
        entries: vec![
            BatchEntry::Stat {
                dirfd: None,
                path: "/obs/pub/f2".into(),
                follow: true,
            },
            BatchEntry::Read {
                fd: BatchFd::Fd(fds[0]),
                len: 4,
            },
            BatchEntry::Write {
                fd: BatchFd::Fd(fds[1]),
                data: BatchArg::Bytes(format!("r{round}").into_bytes()),
            },
            // Denied: no grant on /obs/secret.
            BatchEntry::Stat {
                dirfd: None,
                path: "/obs/secret".into(),
                follow: true,
            },
            // Fails: no such file.
            BatchEntry::Stat {
                dirfd: None,
                path: "/obs/pub/missing".into(),
                follow: true,
            },
        ],
        fail_mode: FailMode::Continue,
        // The write runs after the read: at least two dependency waves.
        deps: vec![(2, 1)],
    }
}

fn trace_plane() -> Arc<TracePlane> {
    // Capacity far above anything the workloads produce: the balance
    // property must never be explained away by ring overwrites.
    Arc::new(TracePlane::new(TraceSite::ALL_MASK, 1 << 16))
}

/// Per-site (begins, ends, instants) split of a drained event stream.
fn balance(events: &[TraceEvent]) -> HashMap<&'static str, (u64, u64, u64)> {
    let mut out: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for e in events {
        let slot = out.entry(e.site.name()).or_default();
        match e.kind {
            TraceKind::Begin => slot.0 += 1,
            TraceKind::End => slot.1 += 1,
            TraceKind::Instant => slot.2 += 1,
        }
    }
    out
}

fn assert_balanced(events: &[TraceEvent], ctx: &str) {
    for (site, (begins, ends, _instants)) in balance(events) {
        assert_eq!(
            begins, ends,
            "site {site}: {begins} begins vs {ends} ends ({ctx})"
        );
    }
}

const MODES: &[&str] = &["sequential", "batched"];

/// Fault schedules the balance property must survive: none, errno
/// injection on the data path, and injected policy panics (`mac_panic`)
/// that unwind mid-wave.
const SCHEDULES: &[Option<&str>] = &[
    None,
    Some("seed=7;rate=5;sites=namei+fs.read+fs.write"),
    Some("mac_panic@4=panic;mac_panic@11=panic"),
];

fn run_standalone(mode: &str, schedule: Option<&str>) -> (Vec<TraceEvent>, u64, u64, u64) {
    let mut k = Kernel::new_shard(0);
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    policy.set_log_enabled(true);
    populate_fs(&mut k);
    let (child, fds) = build_sandbox(&mut k, &policy);
    k.set_trace_plane(Some(trace_plane()));
    k.set_fault_plane(schedule.map(|s| FaultPlane::parse(s).expect("schedule")));
    for round in 0..12 {
        let b = workload(&fds, round);
        // Injected mac panics unwind out of the submission; the batch
        // drop-guard contains the damage and the trace scopes must close
        // on the way out. With no fault plane armed nothing may panic, so
        // such a panic fails the test instead of being contained.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match mode {
            "sequential" => {
                let _ = k.run_sequential(child, &b);
            }
            "batched" => {
                let _ = k.submit_batch(child, &b);
            }
            other => unreachable!("mode {other}"),
        }));
        if let Err(panic) = r {
            match k.fault_plane() {
                Some(p) => p.book_survived(),
                None => std::panic::resume_unwind(panic),
            }
        }
    }
    let tele = k.telemetry();
    (
        tele.events,
        tele.stats.trace_dropped,
        tele.stats.faults_injected,
        tele.stats.faults_survived,
    )
}

#[test]
fn spans_balance_in_every_mode_under_every_schedule() {
    for mode in MODES {
        for schedule in SCHEDULES {
            let (events, dropped, injected, survived) = run_standalone(mode, *schedule);
            let ctx = format!("mode={mode}, schedule={schedule:?}");
            assert_eq!(dropped, 0, "ring overflow would void the property ({ctx})");
            assert!(!events.is_empty(), "tracing produced no events ({ctx})");
            assert_balanced(&events, &ctx);
            assert_eq!(
                injected, survived,
                "a fault escaped containment with tracing on ({ctx})"
            );
            if let Some(spec) = schedule {
                assert!(injected > 0, "schedule {spec:?} never fired ({ctx})");
            }
        }
    }
}

/// The third mode: spans stay balanced through the sharded worker pool,
/// and per-shard rings merge into one attributable stream.
#[test]
fn spans_balance_through_the_sharded_pool() {
    let policy = ShillPolicy::new();
    let shards = KernelShards::new_with(2, |k, _| {
        populate_fs(k);
    });
    shards.register_policy(policy.clone());
    policy.set_log_enabled(true);
    let mut pids = Vec::new();
    for shard in 0..2 {
        let mut k = shards.lock_shard(shard);
        let (child, fds) = build_sandbox(&mut k, &policy);
        pids.push((child, fds));
    }
    shards.set_trace_plane(Some("sites=all;cap=65536"));
    let pool = BatchPool::new(2);
    for round in 0..8 {
        let jobs: Vec<BatchJob> = pids
            .iter()
            .map(|(child, fds)| BatchJob {
                pid: *child,
                batch: workload(fds, round),
                fence: Vec::new(),
            })
            .collect();
        for out in pool.run(&shards, jobs) {
            let slots = out.expect("pool job");
            // Sanity: the workload really ran.
            assert!(!slots.is_empty());
        }
    }
    drop(pool);
    let tele = shards.telemetry();
    assert_eq!(tele.stats.trace_dropped, 0);
    assert_balanced(&tele.events, "sharded pool");
    // Both shards contributed events, and the merged stream is
    // timestamp-ordered.
    let shard_ids: std::collections::HashSet<u64> = tele.events.iter().map(|e| e.shard).collect();
    assert!(
        shard_ids.len() >= 2,
        "expected events from both shards: {shard_ids:?}"
    );
    assert!(tele.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // Wave histogram counts match wave End events.
    let waves = tele
        .events
        .iter()
        .filter(|e| e.site == TraceSite::Wave && e.kind == TraceKind::End)
        .count() as u64;
    assert_eq!(tele.hists.wave.count, waves);
}

/// The telemetry artifacts are pinned: Prometheus text exposition carries
/// per-site quantiles for syscall/batch/wave, and the chrome trace is a
/// structurally valid JSON document with one complete event per span.
#[test]
fn telemetry_renders_quantiles_and_chrome_trace() {
    let (_events, ..) = run_standalone("batched", None); // warm the epoch
    let mut k = Kernel::new_shard(0);
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    populate_fs(&mut k);
    let (child, fds) = build_sandbox(&mut k, &policy);
    k.set_trace_plane(Some(trace_plane()));
    for round in 0..16 {
        let _ = k.submit_batch(child, &workload(&fds, round));
    }
    let tele = k.telemetry();
    let text = tele.render_text();
    for site in ["syscall", "batch", "wave", "mac"] {
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                text.contains(&format!(
                    "shill_latency_ns{{site=\"{site}\",quantile=\"{q}\"}}"
                )),
                "missing {site} q{q} in:\n{text}"
            );
        }
        assert!(text.contains(&format!("shill_latency_ns_count{{site=\"{site}\"}}")));
    }
    assert!(text.contains("shill_syscalls "));
    assert!(text.contains("shill_trace_dropped 0"));
    assert!(text.contains("shill_log_dropped 0"));

    let json = tele.render_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    // Balanced quoting and bracketing — the document must survive a
    // strict parser without this test depending on one.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert_eq!(json.matches('"').count() % 2, 0);
    let ends = tele
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::End)
        .count();
    assert_eq!(json.matches("\"ph\":\"X\"").count(), ends);
}

/// The audit-log ring surfaces its overflow through telemetry: shrink the
/// ring, overflow it, and watch `log_dropped` drain through the kernel
/// snapshot exactly once.
#[test]
fn log_ring_overflow_reaches_telemetry() {
    let mut k = Kernel::new_shard(0);
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    policy.set_log_enabled(true);
    policy.set_log_capacity(8);
    populate_fs(&mut k);
    let (child, fds) = build_sandbox(&mut k, &policy);
    for round in 0..32 {
        let _ = k.submit_batch(child, &workload(&fds, round));
    }
    let first = k.stats_snapshot();
    assert!(
        first.log_dropped > 0,
        "a 8-slot ring must overflow under 32 verbose batches"
    );
    // The policy-side counter drains into the cumulative kernel stat
    // exactly once: a second snapshot with no new traffic shows the same
    // total, not double.
    let second = k.stats_snapshot();
    assert_eq!(
        second.log_dropped, first.log_dropped,
        "drops must not be re-booked on every snapshot"
    );
    assert!(policy.log_events().len() <= 8);
}
