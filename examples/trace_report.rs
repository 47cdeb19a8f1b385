//! Kernel-wide tracing in action: a multi-session sharded workload with
//! the observability plane armed, exported two ways (ISSUE 9).
//!
//! 1. Two kernel shards, two sandboxed sessions each, each session's jobs
//!    submitted from its own thread with every trace site enabled. The merged
//!    [`Telemetry`] snapshot is rendered as Prometheus text exposition
//!    (`target/trace_report.prom`) and as a chrome://tracing document
//!    (`target/trace_report.json` — load it via `chrome://tracing` or
//!    <https://ui.perfetto.dev>).
//! 2. The same snapshot surfaced at the language level: a script calls
//!    the `telemetry` builtin and gets the text exposition as a string.
//!
//! Run with: `cargo run --example trace_report`

use std::sync::Arc;

use shill::cap::{CapPrivs, Priv, PrivSet};
use shill::kernel::{
    BatchArg, BatchEntry, BatchFd, FailMode, Fd, Kernel, KernelShards, SyscallBatch, Telemetry,
};
use shill::prelude::*;
use shill::sandbox::{setup_sandbox, Grant, SandboxSpec, ShillPolicy};

fn caps(privs: &[Priv]) -> CapPrivs {
    CapPrivs::of(PrivSet::of(privs))
}

fn populate(k: &mut Kernel) {
    for i in 0..8 {
        k.fs.put_file(
            &format!("/srv/data/f{i}"),
            vec![b'x'; 256 + i * 64].as_slice(),
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }
}

fn launch_session(k: &mut Kernel, policy: &Arc<ShillPolicy>) -> (Pid, Vec<Fd>) {
    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let srv = k.fs.resolve_abs("/srv").unwrap();
    let data = k.fs.resolve_abs("/srv/data").unwrap();
    let leaf = caps(&[
        Priv::Read,
        Priv::Write,
        Priv::Append,
        Priv::Stat,
        Priv::Path,
    ]);
    let spec = SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            Grant::vnode(srv, caps(&[Priv::Lookup])),
            Grant::vnode(
                data,
                caps(&[Priv::Lookup, Priv::Contents, Priv::Stat]).with_modifier(Priv::Lookup, leaf),
            ),
        ],
        ..Default::default()
    };
    let sb = setup_sandbox(k, policy, user, &spec).unwrap();
    let rd = k
        .open(sb.child, "/srv/data/f0", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    let wr = k
        .open(sb.child, "/srv/data/f1", OpenFlags::rdwr(), Mode(0))
        .unwrap();
    (sb.child, vec![rd, wr])
}

fn workload(fds: &[Fd], round: usize) -> SyscallBatch {
    SyscallBatch {
        entries: vec![
            BatchEntry::Stat {
                dirfd: None,
                path: format!("/srv/data/f{}", round % 8),
                follow: true,
            },
            BatchEntry::Read {
                fd: BatchFd::Fd(fds[0]),
                len: 64,
            },
            BatchEntry::Write {
                fd: BatchFd::Fd(fds[1]),
                data: BatchArg::Bytes(format!("round-{round}").into_bytes()),
            },
            BatchEntry::ReadFile {
                dirfd: None,
                path: format!("/srv/data/f{}", (round + 3) % 8),
            },
        ],
        fail_mode: FailMode::Continue,
        // Write after read: the scheduler gets at least two waves.
        deps: vec![(2, 1)],
    }
}

fn quantile_report(tele: &Telemetry) {
    println!("  site       count      p50(ns)      p90(ns)      p99(ns)      max(ns)");
    for (name, h) in tele.hists.sites() {
        println!(
            "  {name:<10} {:>6} {:>12} {:>12} {:>12} {:>12}",
            h.count,
            h.p50(),
            h.p90(),
            h.p99(),
            h.max()
        );
    }
}

fn main() {
    // --- part 1: sharded multi-session workload -------------------------
    let policy = ShillPolicy::new();
    let shards = KernelShards::new_with(2, |k, _| populate(k));
    shards.register_policy(policy.clone());
    policy.set_log_enabled(true);

    // Two sessions per shard: four concurrent tenants.
    let mut sessions = Vec::new();
    for shard in 0..2 {
        for _ in 0..2 {
            let mut k = shards.lock_shard(shard);
            sessions.push(launch_session(&mut k, &policy));
        }
    }

    // Arm every site on every shard (the env form would be
    // `SHILL_TRACE=sites=all;cap=65536`).
    shards.set_trace_plane(Some("sites=all;cap=65536"));

    std::thread::scope(|scope| {
        for (pid, fds) in &sessions {
            let shards = &shards;
            scope.spawn(move || {
                for round in 0..64 {
                    shards
                        .run_job(*pid, workload(fds, round), &[])
                        .expect("batch job");
                }
            });
        }
    });

    let tele = shards.telemetry();
    println!(
        "=== merged telemetry ({} trace events) ===",
        tele.events.len()
    );
    quantile_report(&tele);
    println!(
        "  syscalls={} batches={} waves={} rendezvous={}",
        tele.stats.syscalls,
        tele.stats.batches,
        tele.stats.sched_waves,
        shards.rendezvous_count(),
    );

    let prom = tele.render_text();
    let chrome = tele.render_chrome_json();
    for site in ["syscall", "batch", "wave"] {
        for q in ["0.5", "0.99"] {
            let needle = format!("shill_latency_ns{{site=\"{site}\",quantile=\"{q}\"}}");
            assert!(prom.contains(&needle), "missing {needle}");
        }
    }
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));

    std::fs::create_dir_all("target").unwrap();
    std::fs::write("target/trace_report.prom", &prom).unwrap();
    std::fs::write("target/trace_report.json", &chrome).unwrap();
    println!(
        "\nwrote target/trace_report.prom ({} bytes) and target/trace_report.json ({} bytes)",
        prom.len(),
        chrome.len()
    );

    // --- part 2: the `telemetry` builtin --------------------------------
    let mut rt = shill::setup::standard_runtime();
    rt.kernel().set_trace_plane(Some(Arc::new(
        shill::kernel::TracePlane::parse("sites=all;cap=8192").unwrap(),
    )));
    let v = rt
        .run(
            "main",
            r#"#lang shill/ambient
        telemetry()
        "#,
        )
        .unwrap();
    let text = v.display();
    assert!(text.contains("shill_syscalls"));
    assert!(text.contains("shill_latency_ns"));
    let head: Vec<&str> = text.lines().take(6).collect();
    println!("\n=== telemetry() builtin (first lines) ===");
    for line in head {
        println!("  {line}");
    }
}
