//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Contract checking cost** — Figure 3's `find_jpg` traversal with the
//!    precise contract vs an `any`-typed contract (no capability guards):
//!    isolates the language-level proxy cost.
//! 2. **Session scrub cost** — per-file sandbox churn (the Find pattern):
//!    how much of sandbox teardown is privilege-map scrubbing.
//! 3. **Privilege propagation cost** — deep path resolution inside a
//!    sandbox with and without propagation (granting the leaf directly vs
//!    deriving privileges along the chain).
//! 4. **Resolution-cache ablation** — the deep-directory repeated-stat
//!    workload with the dcache + AVC on vs off (the `security.cache.*`
//!    sysctls), reporting time per op, policy-reaching MAC checks, and
//!    directory scans. Set `SHILL_BENCH_CACHE_JSON=<path>` to record a
//!    machine-readable baseline (committed as `BENCH_cache.json`).
//! 5. **Batched-submission ablation** — the same entries submitted through
//!    `Kernel::submit_batch` vs replayed sequentially
//!    (`Kernel::run_sequential`) on the deep-path stat and streaming-copy
//!    workloads, reporting ns/op, ulimit charge operations, and MAC
//!    context setups. Set `SHILL_BENCH_BATCH_JSON=<path>` to record the
//!    baseline (committed as `BENCH_batch.json`).
//! 6. **Multi-session throughput** — N sandboxed sessions driving
//!    open/read/close + batched-stat workloads over one shared kernel
//!    (a one-shard `KernelShards` + `run_sessions` worker threads — group
//!    8's workload at one shard) vs the same total
//!    work driven by a single thread. With one global kernel lock the
//!    threads mostly serialize — this group records the contention
//!    baseline the ROADMAP's sharding item must beat. Set
//!    `SHILL_BENCH_CONCURRENCY_JSON=<path>` to record it (committed as
//!    `BENCH_concurrency.json`).
//! 7. **Batch-scheduler ablation** — (a) copies as fused pipelines
//!    (`ReadFile → WriteFile{data: OutputOf}` in ONE scheduled submission)
//!    vs the two-submission form where the data surfaces to the runtime in
//!    between; (b) `BatchPool` multi-session scheduled submissions at
//!    1/2/4 workers (kernel lock acquired per dependency wave; DAG
//!    validation and completion assembly outside the lock) vs the same
//!    jobs driven by a single thread. Set `SHILL_BENCH_SCHED_JSON=<path>`
//!    to record the baseline (committed as `BENCH_sched.json`).
//! 10. **Language-surface fusion** — a SHILL script's async pipeline
//!     (deferred copy + reads + stat sweep forced by one `await_all`) vs
//!     its sequential twin, comparing wall time and batch submissions per
//!     round. Set `SHILL_BENCH_LANG_JSON=<path>` to record the baseline
//!     (committed as `BENCH_lang.json`).
//! 11. **Observability ablation** — the group-5 deep-stat batched workload
//!     with the trace plane absent vs armed on every site, isolating the
//!     tracing tax: off-path is one relaxed load per instrumented site,
//!     on-path pays two clock reads plus a ring push per span. Set
//!     `SHILL_BENCH_OBS_JSON=<path>` to record the baseline (committed as
//!     `BENCH_obs.json`); CI gates the on/off ratio at 1.10×.
//! 12. **Server front-end load generation** — ≥1000 concurrent
//!     authenticated TCP sessions against the multi-tenant server,
//!     per-request latency sampled end-to-end through the framed
//!     protocol (exact-sorted p50/p99). Knobs:
//!     `SHILL_BENCH_SERVER_SESSIONS`, `SHILL_BENCH_SERVER_ROUNDS`,
//!     `SHILL_BENCH_SERVER_DRIVERS`. Set `SHILL_BENCH_SERVER_JSON=<path>`
//!     to record the baseline (committed as `BENCH_server.json`).

use std::sync::Arc;
use std::time::Instant;

use shill::kernel::{BatchEntry, SyscallBatch, TracePlane, TraceSite};
use shill::prelude::*;
use shill_bench::{sample, Stats};
use shill_cap::{CapPrivs, Priv, PrivSet};
use shill_sandbox::{setup_sandbox, Grant, SandboxSpec, ShillPolicy};

const FIND_JPG_PRECISE: &str = r#"#lang shill/cap
provide find_jpg :
  {cur : dir(+contents, +lookup, +path) \/ file(+path),
   out : file(+append)} -> void;
find_jpg = fun(cur, out) {
  if is_file(cur) && has_ext(cur, "jpg") then
    append(out, path(cur) ++ "\n");
  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then
        find_jpg(child, out);
    }
}
"#;

const FIND_JPG_ANY: &str = r#"#lang shill/cap
provide find_jpg : {cur : any, out : any} -> void;
find_jpg = fun(cur, out) {
  if is_file(cur) && has_ext(cur, "jpg") then
    append(out, path(cur) ++ "\n");
  if is_dir(cur) then
    for name in contents(cur) {
      child = lookup(cur, name);
      if !is_syserror(child) then
        find_jpg(child, out);
    }
}
"#;

fn traversal(script: &str) -> std::time::Duration {
    let mut rt = shill::setup::standard_runtime();
    shill::binaries::photo_workload(rt.kernel(), 300);
    rt.kernel()
        .fs
        .put_file("/home/user/out.txt", b"", Mode(0o644), Uid(100), Gid(100))
        .unwrap();
    rt.add_script("find_jpg.cap", script);
    let t0 = Instant::now();
    rt.run(
        "main",
        r#"#lang shill/ambient
require "find_jpg.cap";
find_jpg(open_dir("/home/user"), open_file("/home/user/out.txt"));
"#,
    )
    .expect("traversal");
    t0.elapsed()
}

fn bench_contract_cost() {
    let n = shill_bench::runs();
    let precise = Stats::of(&sample(n, || traversal(FIND_JPG_PRECISE)));
    let any = Stats::of(&sample(n, || traversal(FIND_JPG_ANY)));
    println!("1. capability-contract guard cost (find_jpg over 300 files):");
    println!("   precise contract: {}", precise.fmt_ms());
    println!("   `any` contract:   {}", any.fmt_ms());
    println!(
        "   guard overhead:   {}",
        shill_bench::ratio(&precise, &any)
    );
}

fn bench_session_churn() {
    // One sandbox per item, like Find: measure setup+teardown per session
    // and how much the label scrub contributes.
    let sessions = 2_000usize;
    let mut k = Kernel::new();
    for i in 0..50 {
        k.fs.put_file(
            &format!("/data/f{i}"),
            b"x",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    let data = k.fs.resolve_abs("/data").unwrap();
    let grants = vec![Grant::vnode(
        data,
        CapPrivs::of(PrivSet::of(&[
            Priv::Lookup,
            Priv::Contents,
            Priv::Read,
            Priv::Stat,
        ])),
    )];
    let t0 = Instant::now();
    for _ in 0..sessions {
        let spec = SandboxSpec {
            grants: grants.clone(),
            ..Default::default()
        };
        let sb = setup_sandbox(&mut k, &policy, user, &spec).expect("sandbox");
        // Touch a few files so privilege propagation populates labels.
        for i in 0..5 {
            let fd = k.open(sb.child, &format!("/data/f{i}"), OpenFlags::RDONLY, Mode(0));
            if let Ok(fd) = fd {
                let _ = k.close(sb.child, fd);
            }
        }
        k.exit(sb.child, 0);
        let _ = k.waitpid(user, sb.child);
    }
    let elapsed = t0.elapsed();
    let st = policy.stats();
    println!("\n2. session churn ({sessions} sandboxes, 5 opens each):");
    println!(
        "   {:?} total, {:.1}µs/sandbox; label entries scrubbed: {} ({} per session)",
        elapsed,
        elapsed.as_secs_f64() * 1e6 / sessions as f64,
        st.scrubbed,
        st.scrubbed / sessions as u64
    );
    println!(
        "   (all sessions reclaimed: {} live label entries remain)",
        policy.label_entries()
    );
}

fn bench_propagation_depth() {
    println!("\n3. privilege propagation along deep paths (open at depth d, ns/op):");
    for depth in [1usize, 3, 6, 9] {
        let mut k = Kernel::new();
        let mut p = String::from("/deep");
        for i in 0..depth {
            p.push_str(&format!("/d{i}"));
        }
        let file = format!("{p}/leaf.bin");
        k.fs.put_file(&file, b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        let user = k.spawn_user(Cred::ROOT);
        let root = k.fs.root();
        let spec = SandboxSpec {
            grants: vec![Grant::vnode(root, CapPrivs::full())],
            ..Default::default()
        };
        let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
        let n = 20_000;
        let t0 = Instant::now();
        for _ in 0..n {
            let fd = k
                .open(sb.child, &file, OpenFlags::RDONLY, Mode(0))
                .expect("open");
            k.close(sb.child, fd).unwrap();
        }
        let per = t0.elapsed().as_nanos() as f64 / n as f64;
        println!("   depth {depth:>2}: {per:>8.0}ns/op");
    }
    println!("   (expect linear growth — one lookup check + propagation per component)");
}

/// One cache-ablation measurement: deep-path repeated stats in a sandbox.
struct CacheRun {
    ns_per_op: f64,
    mac_vnode_checks: u64,
    avc_hits: u64,
    dcache_hits: u64,
    dir_scans: u64,
}

fn cache_run(cached: bool, depth: usize, rounds: usize) -> CacheRun {
    let mut k = Kernel::new();
    let mut p = String::from("/deep");
    for i in 0..depth {
        p.push_str(&format!("/d{i}"));
    }
    let file = format!("{p}/leaf.bin");
    k.fs.put_file(&file, b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let spec = SandboxSpec {
        grants: vec![Grant::vnode(root, CapPrivs::full())],
        ..Default::default()
    };
    let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
    k.set_cache_enabled(cached, cached);
    k.fstatat(sb.child, None, &file, true).unwrap(); // warmup + propagation
    k.stats.reset();
    let t0 = Instant::now();
    for _ in 0..rounds {
        k.fstatat(sb.child, None, &file, true).unwrap();
    }
    let elapsed = t0.elapsed();
    let st = k.stats.snapshot();
    CacheRun {
        ns_per_op: elapsed.as_nanos() as f64 / rounds as f64,
        mac_vnode_checks: st.mac_vnode_checks,
        avc_hits: st.avc_hits,
        dcache_hits: st.dcache_hits,
        dir_scans: st.dir_scans,
    }
}

fn bench_cache_ablation() {
    println!("\n4. resolution-cache ablation (stat at depth 9, 50,000 repeats):");
    let rounds = 50_000;
    let on = cache_run(true, 9, rounds);
    let off = cache_run(false, 9, rounds);
    let report = |label: &str, r: &CacheRun| {
        println!(
            "   {label:<10} {:>8.0}ns/op  policy checks {:>8}  avc hits {:>8}  dcache hits {:>8}  dir scans {:>8}",
            r.ns_per_op, r.mac_vnode_checks, r.avc_hits, r.dcache_hits, r.dir_scans
        );
    };
    report("cached:", &on);
    report("uncached:", &off);
    println!(
        "   policy-reaching MAC checks cut {:.1}×; directory scans cut {:.1}×; {:.2}× faster",
        off.mac_vnode_checks as f64 / on.mac_vnode_checks.max(1) as f64,
        off.dir_scans as f64 / on.dir_scans.max(1) as f64,
        off.ns_per_op / on.ns_per_op
    );
    if let Ok(path) = std::env::var("SHILL_BENCH_CACHE_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"workload\": \"deep-path repeated fstatat, depth 9, {rounds} rounds\",\n",
                "  \"cached\": {{\"ns_per_op\": {:.1}, \"mac_vnode_checks\": {}, \"avc_hits\": {}, \"dcache_hits\": {}, \"dir_scans\": {}}},\n",
                "  \"uncached\": {{\"ns_per_op\": {:.1}, \"mac_vnode_checks\": {}, \"avc_hits\": {}, \"dcache_hits\": {}, \"dir_scans\": {}}},\n",
                "  \"policy_check_reduction\": {:.2},\n",
                "  \"dir_scan_reduction\": {:.2},\n",
                "  \"speedup\": {:.3}\n",
                "}}\n"
            ),
            on.ns_per_op,
            on.mac_vnode_checks,
            on.avc_hits,
            on.dcache_hits,
            on.dir_scans,
            off.ns_per_op,
            off.mac_vnode_checks,
            off.avc_hits,
            off.dcache_hits,
            off.dir_scans,
            off.mac_vnode_checks as f64 / on.mac_vnode_checks.max(1) as f64,
            off.dir_scans as f64 / on.dir_scans.max(1) as f64,
            off.ns_per_op / on.ns_per_op,
            rounds = rounds,
        );
        std::fs::write(&path, json).expect("write cache baseline");
        println!("   baseline written to {path}");
    }
}

/// One batch-ablation measurement.
struct BatchRun {
    ns_per_op: f64,
    charge_calls: u64,
    mac_ctx_setups: u64,
    prefix_hits: u64,
}

/// A sandboxed kernel (full root grant, caches on) for the batch ablation.
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

/// Deep-path stat workload: batches of `width` repeated stats of a file at
/// directory depth 9, the PR 1 cache workload now driven through the batch
/// path. One "op" is one stat entry.
fn batch_stat_run(batched: bool, rounds: usize, width: usize) -> BatchRun {
    let depth = 9;
    let mut p = String::from("/deep");
    for i in 0..depth {
        p.push_str(&format!("/d{i}"));
    }
    let file = format!("{p}/leaf.bin");
    let (mut k, pid) = batch_fixture(|k| {
        k.fs.put_file(&file, b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
    });
    let entries: Vec<BatchEntry> = (0..width)
        .map(|_| BatchEntry::Stat {
            dirfd: None,
            path: file.clone(),
            follow: true,
        })
        .collect();
    let batch = SyscallBatch::new(entries);
    // Warmup (propagation + caches), then measure.
    k.fstatat(pid, None, &file, true).unwrap();
    k.stats.reset();
    let t0 = Instant::now();
    for _ in 0..rounds {
        let out = if batched {
            k.submit_batch(pid, &batch).unwrap()
        } else {
            k.run_sequential(pid, &batch).unwrap()
        };
        debug_assert!(out.iter().all(|r| r.is_ok()));
    }
    let elapsed = t0.elapsed();
    let st = k.stats.snapshot();
    BatchRun {
        ns_per_op: elapsed.as_nanos() as f64 / (rounds * width) as f64,
        charge_calls: st.charge_calls,
        mac_ctx_setups: st.mac_ctx_setups,
        prefix_hits: st.batch_prefix_hits,
    }
}

/// Streaming-copy workload: a source-tree sweep (`files` 2 KiB files under
/// a shared deep dirname, the cp -r shape) copied via the fused
/// read-file/write-file entries. One "op" is one file copied.
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
    let _ = if batched {
        k.submit_batch(pid, &reads).unwrap()
    } else {
        k.run_sequential(pid, &reads).unwrap()
    };
    k.stats.reset();
    let t0 = Instant::now();
    for _ in 0..rounds {
        let out = if batched {
            k.submit_batch(pid, &reads).unwrap()
        } else {
            k.run_sequential(pid, &reads).unwrap()
        };
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
        let out = if batched {
            k.submit_batch(pid, &writes).unwrap()
        } else {
            k.run_sequential(pid, &writes).unwrap()
        };
        debug_assert!(out.iter().all(|r| r.is_ok()));
    }
    let elapsed = t0.elapsed();
    let st = k.stats.snapshot();
    BatchRun {
        ns_per_op: elapsed.as_nanos() as f64 / (rounds * files) as f64,
        charge_calls: st.charge_calls,
        mac_ctx_setups: st.mac_ctx_setups,
        prefix_hits: st.batch_prefix_hits,
    }
}

fn bench_batch_ablation() {
    println!("\n5. batched-submission ablation (batched vs sequential, caches on):");
    let report = |label: &str, r: &BatchRun| {
        println!(
            "   {label:<22} {:>8.0}ns/op  charges {:>8}  ctx setups {:>8}  prefix hits {:>8}",
            r.ns_per_op, r.charge_calls, r.mac_ctx_setups, r.prefix_hits
        );
    };
    let stat_rounds = 2_000;
    let stat_b = batch_stat_run(true, stat_rounds, 64);
    let stat_s = batch_stat_run(false, stat_rounds, 64);
    report("deep-stat batched:", &stat_b);
    report("deep-stat sequential:", &stat_s);
    let copy_rounds = 300;
    let copy_b = batch_copy_run(true, copy_rounds, 48);
    let copy_s = batch_copy_run(false, copy_rounds, 48);
    report("stream-copy batched:", &copy_b);
    report("stream-copy sequential:", &copy_s);
    let ratio = |s: f64, b: f64| s / b.max(1e-9);
    let red = |s: u64, b: u64| s as f64 / (b.max(1)) as f64;
    println!(
        "   deep-stat:   {:.2}× faster; charges cut {:.1}×; ctx setups cut {:.1}×",
        ratio(stat_s.ns_per_op, stat_b.ns_per_op),
        red(stat_s.charge_calls, stat_b.charge_calls),
        red(stat_s.mac_ctx_setups, stat_b.mac_ctx_setups),
    );
    println!(
        "   stream-copy: {:.2}× faster; charges cut {:.1}×; ctx setups cut {:.1}×",
        ratio(copy_s.ns_per_op, copy_b.ns_per_op),
        red(copy_s.charge_calls, copy_b.charge_calls),
        red(copy_s.mac_ctx_setups, copy_b.mac_ctx_setups),
    );
    if let Ok(path) = std::env::var("SHILL_BENCH_BATCH_JSON") {
        let wl = |r: &BatchRun| {
            format!(
                "{{\"ns_per_op\": {:.1}, \"charge_calls\": {}, \"mac_ctx_setups\": {}, \"batch_prefix_hits\": {}}}",
                r.ns_per_op, r.charge_calls, r.mac_ctx_setups, r.prefix_hits
            )
        };
        let json = format!(
            concat!(
                "{{\n",
                "  \"deep_stat\": {{\n",
                "    \"workload\": \"fstatat at depth 9, {sr} rounds x 64-entry batches\",\n",
                "    \"batched\": {},\n",
                "    \"sequential\": {},\n",
                "    \"speedup\": {:.3},\n",
                "    \"charge_reduction\": {:.2},\n",
                "    \"ctx_setup_reduction\": {:.2}\n",
                "  }},\n",
                "  \"stream_copy\": {{\n",
                "    \"workload\": \"48 x 2KiB files at depth 4 copied via fused read/write, {cr} rounds\",\n",
                "    \"batched\": {},\n",
                "    \"sequential\": {},\n",
                "    \"speedup\": {:.3},\n",
                "    \"charge_reduction\": {:.2},\n",
                "    \"ctx_setup_reduction\": {:.2}\n",
                "  }}\n",
                "}}\n"
            ),
            wl(&stat_b),
            wl(&stat_s),
            ratio(stat_s.ns_per_op, stat_b.ns_per_op),
            red(stat_s.charge_calls, stat_b.charge_calls),
            red(stat_s.mac_ctx_setups, stat_b.mac_ctx_setups),
            wl(&copy_b),
            wl(&copy_s),
            ratio(copy_s.ns_per_op, copy_b.ns_per_op),
            red(copy_s.charge_calls, copy_b.charge_calls),
            red(copy_s.mac_ctx_setups, copy_b.mac_ctx_setups),
            sr = stat_rounds,
            cr = copy_rounds,
        );
        std::fs::write(&path, json).expect("write batch baseline");
        println!("   baseline written to {path}");
    }
}

/// One multi-session measurement: total ops completed and wall time.
struct ConcurrencyRun {
    ns_per_op: f64,
    ops: u64,
}

/// The multi-session workload groups 6 and 8 share: `sessions` confined
/// subtrees of 8 files on each of `nshards` kernel shards, session `i`
/// pinned to shard `i % nshards`, each session running `rounds` of 8
/// open/read/close triples plus one 8-entry stat batch. `threaded` runs
/// every session on its own worker thread; otherwise the sessions run one
/// after another on this thread (group 6's single-thread baseline).
fn session_workload(
    sessions: usize,
    rounds: usize,
    nshards: usize,
    threaded: bool,
) -> ConcurrencyRun {
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
    let ops = (sessions * rounds * (8 * 3 + 8)) as u64;
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
    ConcurrencyRun {
        ns_per_op: elapsed.as_nanos() as f64 / ops as f64,
        ops,
    }
}

fn bench_concurrency() {
    let sessions = 4;
    let rounds = 400;
    println!(
        "\n6. multi-session throughput ({sessions} sessions x {rounds} rounds, shared kernel):"
    );
    // Group 8 at one shard, against the same work driven by one thread.
    let threaded = session_workload(sessions, rounds, 1, true);
    let single = session_workload(sessions, rounds, 1, false);
    let report = |label: &str, r: &ConcurrencyRun| {
        println!(
            "   {label:<28} {:>8.0}ns/op  ({} ops, {:.2}M ops/s)",
            r.ns_per_op,
            r.ops,
            1e3 / r.ns_per_op
        );
    };
    report("4 worker threads:", &threaded);
    report("single-threaded baseline:", &single);
    println!(
        "   threaded/single ratio: {:.2}× (global kernel lock; the sharding \
         item exists to push this below 1.0)",
        threaded.ns_per_op / single.ns_per_op.max(1e-9)
    );
    if let Ok(path) = std::env::var("SHILL_BENCH_CONCURRENCY_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"workload\": \"{s} sessions x {r} rounds of 8 open/read/close + 8-entry stat batch, shared kernel\",\n",
                "  \"threaded\": {{\"ns_per_op\": {:.1}, \"ops\": {}}},\n",
                "  \"single_thread\": {{\"ns_per_op\": {:.1}, \"ops\": {}}},\n",
                "  \"threaded_over_single\": {:.3}\n",
                "}}\n"
            ),
            threaded.ns_per_op,
            threaded.ops,
            single.ns_per_op,
            single.ops,
            threaded.ns_per_op / single.ns_per_op.max(1e-9),
            s = sessions,
            r = rounds,
        );
        std::fs::write(&path, json).expect("write concurrency baseline");
        println!("   baseline written to {path}");
    }
}

/// One scheduler measurement.
struct SchedRun {
    ns_per_op: f64,
    batches: u64,
    slot_links: u64,
    sched_waves: u64,
}

/// Copy `files` files of `size` bytes, either as fused pipelines (one
/// scheduled submission per file, data flowing via `OutputOf`) or as the
/// two-submission slurp-then-spit form. One "op" is one file copied.
fn sched_copy_run(fused: bool, rounds: usize, files: usize, size: usize) -> SchedRun {
    use shill::kernel::{BatchArg, SyscallBatch};
    // cp-in-place shape (`cp f f.bak`): source and copy share a deep
    // dirname, so the fused pipeline's write reuses the read's prefix walk
    // within the single submission — two submissions each pay their own.
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
                let out = k.submit_scheduled(pid, &batch).unwrap();
                debug_assert!(out.iter().all(|c| c.out.is_ok()));
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
    SchedRun {
        ns_per_op: elapsed.as_nanos() as f64 / (rounds * files) as f64,
        batches: st.batches,
        slot_links: st.slot_links,
        sched_waves: st.sched_waves,
    }
}

/// How group 7b drives the multi-session workload.
enum PoolMode {
    /// The PR 3 shape `BENCH_concurrency.json` recorded: per-call
    /// open/read/close triples + one batched stat sweep, one session after
    /// another on this thread. This is the single-thread baseline the
    /// acceptance criterion compares against.
    NaiveSingle,
    /// The same work as scheduled submissions (8 fused open→read→close
    /// chains in ONE batch, reads overlapping as a wave, plus the stat
    /// sweep), driven by this thread directly — isolates the scheduler's
    /// amortization from the pool machinery.
    ScheduledSingle,
    /// The scheduled submissions through a `BatchPool` of N workers.
    Pool(usize),
}

/// `sessions` sandboxed subtrees × `rounds`, each round touching 8 files
/// (open/read/close) and stat-sweeping them — exactly the ablation-6
/// workload — driven naively or through the scheduler + pool. One "op" is
/// one logical syscall (8×3 + 8 per session-round), so ns/op is directly
/// comparable with `BENCH_concurrency.json`.
fn sched_pool_run(sessions: usize, rounds: usize, mode: PoolMode) -> ConcurrencyRun {
    use shill::kernel::{completions_to_slots, BatchFd, KernelShards, SyscallBatch};
    use shill_sandbox::{BatchJob, BatchPool};

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
    /// Rounds folded into one scheduled submission in the pool modes.
    const FOLD: usize = 8;

    // ops per session-round: 8 open/read/close triples + 8 stat entries.
    let ops = (sessions * rounds * (8 * 3 + 8)) as u64;
    let t0 = Instant::now();
    match mode {
        PoolMode::NaiveSingle => {
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
        PoolMode::ScheduledSingle => {
            for _ in 0..rounds / FOLD {
                for (i, &pid) in children.iter().enumerate() {
                    for batch in [pipelines(i, FOLD), sweep(i, FOLD)] {
                        let out = shared
                            .with_pid(pid, |k| k.submit_scheduled(pid, &batch))
                            .expect("scheduled");
                        assert!(out.iter().all(|c| c.out.is_ok()));
                    }
                }
            }
        }
        PoolMode::Pool(workers) => {
            // The whole run is one job stream (every job is read-only, so
            // cross-round ordering is immaterial): workers drain it,
            // acquiring the kernel per wave.
            let pool = BatchPool::new(workers);
            let jobs: Vec<BatchJob> = (0..rounds / FOLD)
                .flat_map(|_| {
                    (0..sessions).flat_map(|i| {
                        [
                            BatchJob {
                                pid: children[i],
                                batch: pipelines(i, FOLD),
                                fence: Vec::new(),
                            },
                            BatchJob {
                                pid: children[i],
                                batch: sweep(i, FOLD),
                                fence: Vec::new(),
                            },
                        ]
                    })
                })
                .collect();
            for out in pool.run(&shared, jobs) {
                let out = out.expect("pool job");
                let slots = completions_to_slots(out.len(), &out);
                assert!(slots.iter().all(|r| r.is_ok()));
            }
        }
    }
    let elapsed = t0.elapsed();
    ConcurrencyRun {
        ns_per_op: elapsed.as_nanos() as f64 / ops as f64,
        ops,
    }
}

fn bench_sched() {
    println!("\n7. batch-scheduler ablation:");
    let (copy_rounds, files, size) = (400, 32, 512);
    // Best-of-3, like the pool group: single runs on a contended box swing
    // by ±30%.
    let best_copy = |fused: bool| -> SchedRun {
        (0..3)
            .map(|_| sched_copy_run(fused, copy_rounds, files, size))
            .min_by(|a, b| a.ns_per_op.total_cmp(&b.ns_per_op))
            .unwrap()
    };
    let fused = best_copy(true);
    let two = best_copy(false);
    let report = |label: &str, r: &SchedRun| {
        println!(
            "   {label:<26} {:>8.0}ns/file  batches {:>7}  slot links {:>7}  waves {:>7}",
            r.ns_per_op, r.batches, r.slot_links, r.sched_waves
        );
    };
    report("fused-pipeline copy:", &fused);
    report("two-submission copy:", &two);
    println!(
        "   fused copy: {:.2}× faster; submissions cut {:.1}×",
        two.ns_per_op / fused.ns_per_op.max(1e-9),
        two.batches as f64 / fused.batches.max(1) as f64
    );

    let (sessions, rounds) = (4, 400);
    // Best-of-5 per mode: ns/op on a contended box is noisy, and the
    // minimum is the standard microbenchmark estimator.
    let best = |mode: fn() -> PoolMode| -> ConcurrencyRun {
        (0..5)
            .map(|_| sched_pool_run(sessions, rounds, mode()))
            .min_by(|a, b| a.ns_per_op.total_cmp(&b.ns_per_op))
            .unwrap()
    };
    let single = best(|| PoolMode::NaiveSingle);
    let sched_single = best(|| PoolMode::ScheduledSingle);
    let pool1 = best(|| PoolMode::Pool(1));
    let pool2 = best(|| PoolMode::Pool(2));
    let pool4 = best(|| PoolMode::Pool(4));
    let preport = |label: &str, r: &ConcurrencyRun| {
        println!(
            "   {label:<30} {:>8.0}ns/op  ({} ops, {:.2}M ops/s)",
            r.ns_per_op,
            r.ops,
            1e3 / r.ns_per_op
        );
    };
    preport("single-thread per-call (PR 3):", &single);
    preport("single-thread scheduled:", &sched_single);
    preport("pool, 1 worker:", &pool1);
    preport("pool, 2 workers:", &pool2);
    preport("pool, 4 workers:", &pool4);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (best_workers, best_pool) = [(1usize, &pool1), (2, &pool2), (4, &pool4)]
        .into_iter()
        .min_by(|a, b| a.1.ns_per_op.total_cmp(&b.1.ns_per_op))
        .unwrap();
    let speedup = single.ns_per_op / best_pool.ns_per_op.max(1e-9);
    println!(
        "   pool({best_workers}) over the PR 3 per-call single-thread baseline: \
         {speedup:.2}× throughput on {cores} core(s) (fused chains amortize \
         charges/contexts; waves of different sessions interleave under the \
         per-wave lock — extra workers beyond the core count only add \
         context switching)"
    );
    if let Ok(path) = std::env::var("SHILL_BENCH_SCHED_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"fused_copy\": {{\n",
                "    \"workload\": \"{files} x {size}B files copied, {cr} rounds\",\n",
                "    \"fused\": {{\"ns_per_file\": {:.1}, \"batches\": {}, \"slot_links\": {}}},\n",
                "    \"two_submission\": {{\"ns_per_file\": {:.1}, \"batches\": {}}},\n",
                "    \"speedup\": {:.3},\n",
                "    \"submission_reduction\": {:.2}\n",
                "  }},\n",
                "  \"batch_pool\": {{\n",
                "    \"workload\": \"{s} sessions x {r} rounds of 8 open/read/close + 8-entry stat sweep (the BENCH_concurrency shape), scheduled as fused chains through BatchPool\",\n",
                "    \"cores\": {cores},\n",
                "    \"single_thread_per_call\": {{\"ns_per_op\": {:.1}, \"ops\": {}}},\n",
                "    \"single_thread_scheduled\": {{\"ns_per_op\": {:.1}}},\n",
                "    \"workers_1\": {{\"ns_per_op\": {:.1}}},\n",
                "    \"workers_2\": {{\"ns_per_op\": {:.1}}},\n",
                "    \"workers_4\": {{\"ns_per_op\": {:.1}}},\n",
                "    \"best_workers\": {best_workers},\n",
                "    \"pool_over_single_thread_throughput\": {:.3}\n",
                "  }}\n",
                "}}\n"
            ),
            fused.ns_per_op,
            fused.batches,
            fused.slot_links,
            two.ns_per_op,
            two.batches,
            two.ns_per_op / fused.ns_per_op.max(1e-9),
            two.batches as f64 / fused.batches.max(1) as f64,
            single.ns_per_op,
            single.ops,
            sched_single.ns_per_op,
            pool1.ns_per_op,
            pool2.ns_per_op,
            pool4.ns_per_op,
            speedup,
            files = files,
            size = size,
            cr = copy_rounds,
            s = sessions,
            r = rounds,
            cores = cores,
            best_workers = best_workers,
        );
        std::fs::write(&path, json).expect("write sched baseline");
        println!("   baseline written to {path}");
    }
}

/// Group 8 — kernel-shard ablation: the group-6 multi-session workload
/// with sessions **pinned across N kernel shards**. At 1 shard this is
/// exactly the group-6 threaded run (every wave serializes on one lock —
/// the `BENCH_concurrency.json` ≈1.0× baseline); at N shards, sessions on
/// different shards contend on no kernel lock at all, so throughput
/// scales with cores. On a single-core box the ratio stays ≈1.0× by
/// construction (the threads time-slice); the JSON records the core
/// count so the baseline is interpretable.
fn bench_shard() {
    let sessions = 4;
    let rounds = 400;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\n8. kernel-shard ablation ({sessions} sessions x {rounds} rounds, \
         sessions pinned across shards, {cores} core(s)):"
    );
    // Best-of-5 per shard count (same estimator as groups 6/7).
    let best = |nshards: usize| -> ConcurrencyRun {
        (0..5)
            .map(|_| session_workload(sessions, rounds, nshards, true))
            .min_by(|a, b| a.ns_per_op.total_cmp(&b.ns_per_op))
            .unwrap()
    };
    let s1 = best(1);
    let s2 = best(2);
    let s4 = best(4);
    let report = |label: &str, r: &ConcurrencyRun| {
        println!(
            "   {label:<28} {:>8.0}ns/op  ({} ops, {:.2}M ops/s)",
            r.ns_per_op,
            r.ops,
            1e3 / r.ns_per_op
        );
    };
    report("1 shard (single lock):", &s1);
    report("2 shards:", &s2);
    report("4 shards:", &s4);
    let speedup2 = s1.ns_per_op / s2.ns_per_op.max(1e-9);
    let speedup4 = s1.ns_per_op / s4.ns_per_op.max(1e-9);
    println!(
        "   throughput over the single-lock baseline: {speedup2:.2}× at 2 shards, \
         {speedup4:.2}× at 4 shards on {cores} core(s){}",
        if cores == 1 {
            " (single-core box: shards can only time-slice — the >1.3× \
             acceptance target applies on multi-core)"
        } else {
            ""
        }
    );
    if let Ok(path) = std::env::var("SHILL_BENCH_SHARD_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"workload\": \"{s} sessions x {r} rounds of 8 open/read/close + 8-entry stat batch, sessions pinned round-robin across kernel shards\",\n",
                "  \"cores\": {cores},\n",
                "  \"shards_1\": {{\"ns_per_op\": {:.1}, \"ops\": {}}},\n",
                "  \"shards_2\": {{\"ns_per_op\": {:.1}}},\n",
                "  \"shards_4\": {{\"ns_per_op\": {:.1}}},\n",
                "  \"speedup_2_shards_over_single_lock\": {:.3},\n",
                "  \"speedup_4_shards_over_single_lock\": {:.3},\n",
                "  \"note\": \"shard-local sessions pay zero rendezvous; on 1 core the ratio is bounded at ~1.0 by time-slicing — the >1.3x target is a multi-core property\"\n",
                "}}\n"
            ),
            s1.ns_per_op,
            s1.ops,
            s2.ns_per_op,
            s4.ns_per_op,
            speedup2,
            speedup4,
            s = sessions,
            r = rounds,
            cores = cores,
        );
        std::fs::write(&path, json).expect("write shard baseline");
        println!("   baseline written to {path}");
    }
}

/// One group-9 churn measurement: total sessions cycled and the policy's
/// contended stripe acquisitions while they cycled.
struct ChurnRun {
    ns_per_session: f64,
    sessions: u64,
    contention: u64,
}

/// Group 9 workload — concurrent session churn: one churner thread per
/// kernel shard, each cycling sandboxes (setup → first-touch `files`
/// labels through lookup propagation → reclaim). Every phase of a cycle
/// hits the policy plane: `shill_init`/grants/`shill_enter` (stripe
/// writes + epoch bump), the first touches (stripe write per new label),
/// and the reclaim scrub (stripe write + epoch bump). With striped state
/// the churners only collide when their session ids share a stripe; the
/// old single-`RwLock` policy serialized every one of these against all
/// concurrent checks on other shards.
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
    let sessions = (nshards * per_shard) as u64;
    ChurnRun {
        ns_per_session: elapsed.as_nanos() as f64 / sessions as f64,
        sessions,
        contention: policy.stats().stripe_contention - contention_before,
    }
}

/// Group 9 steal phase: a `BatchPool` with twice as many workers as
/// shards (the non-affine half lives off stolen jobs) drains a burst of
/// shard-local stat batches. Returns (pool-side steals, kernel-side
/// `pool_steals`) — the kernel count is booked per home shard and can
/// only lag the pool's.
fn policy_steal_phase(nshards: usize, rounds: usize) -> (u64, u64) {
    use shill::kernel::KernelShards;
    use shill_sandbox::{BatchJob, BatchPool};

    let policy = ShillPolicy::new();
    let shards = KernelShards::new_with(nshards, |k, _| {
        k.fs.put_file("/churn/f0", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
    });
    shards.register_policy(policy.clone());
    let children: Vec<_> = (0..nshards)
        .map(|s| {
            shards.with_shard(s, |k| {
                let parent = k.spawn_user(Cred::user(100));
                let root = k.fs.root();
                let dir = k.fs.resolve_abs("/churn").unwrap();
                let file = k.fs.resolve_abs("/churn/f0").unwrap();
                let spec = SandboxSpec {
                    grants: vec![
                        Grant::vnode(root, CapPrivs::of(PrivSet::of(&[Priv::Lookup]))),
                        Grant::vnode(dir, CapPrivs::of(PrivSet::of(&[Priv::Lookup]))),
                        Grant::vnode(file, CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Stat]))),
                    ],
                    ..Default::default()
                };
                setup_sandbox(k, &policy, parent, &spec)
                    .expect("steal sandbox")
                    .child
            })
        })
        .collect();
    let pool = BatchPool::new(nshards * 2);
    let jobs: Vec<BatchJob> = (0..rounds)
        .flat_map(|_| {
            children.iter().map(|&child| BatchJob {
                pid: child,
                batch: SyscallBatch::single(BatchEntry::Stat {
                    dirfd: None,
                    path: "/churn/f0".into(),
                    follow: true,
                }),
                fence: Vec::new(),
            })
        })
        .collect();
    let outs = pool.run(&shards, jobs);
    assert!(outs.iter().all(|o| o.is_ok()));
    (pool.steals(), shards.stats().pool_steals)
}

/// Group 9 — striped policy-plane ablation. The group-8 narrative said
/// the policy write-lock was the last serializer left; this measures the
/// fix: session-churn throughput as shards (and churner threads) grow,
/// with stripe-contention and pool-steal observability alongside. On one
/// core the shard counts can only time-slice, so the ratio reads as
/// contention reduction, not parallel speedup — the ≥1.3× acceptance
/// target at 4 shards applies on ≥4 cores.
fn bench_policy() {
    let per_shard = 400;
    let files = 12;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let stripes = ShillPolicy::new().stripe_count();
    println!(
        "\n9. striped policy-plane churn (1 churner/shard x {per_shard} sessions, \
         {files} first-touch labels each, {stripes} stripes, {cores} core(s)):"
    );
    let best = |nshards: usize| -> ChurnRun {
        (0..3)
            .map(|_| policy_churn_workload(nshards, per_shard, files))
            .min_by(|a, b| a.ns_per_session.total_cmp(&b.ns_per_session))
            .unwrap()
    };
    let c1 = best(1);
    let c2 = best(2);
    let c4 = best(4);
    let report = |label: &str, r: &ChurnRun| {
        println!(
            "   {label:<12} {:>8.0}ns/session  ({} sessions, {:.0} sessions/s, \
             {} contended stripe acquisitions)",
            r.ns_per_session,
            r.sessions,
            1e9 / r.ns_per_session,
            r.contention,
        );
    };
    report("1 shard:", &c1);
    report("2 shards:", &c2);
    report("4 shards:", &c4);
    let ratio2 = c1.ns_per_session / c2.ns_per_session.max(1e-9);
    let ratio4 = c1.ns_per_session / c4.ns_per_session.max(1e-9);
    println!(
        "   churn throughput over 1 shard: {ratio2:.2}× at 2, {ratio4:.2}× at 4 \
         on {cores} core(s){}",
        if cores == 1 {
            " (single-core box: the gain is contention reduction only — the \
             ≥1.3× target at 4 shards applies on ≥4 cores)"
        } else {
            ""
        }
    );
    let (steals2_pool, steals2_kernel) = policy_steal_phase(2, 200);
    let (steals4_pool, steals4_kernel) = policy_steal_phase(4, 200);
    println!(
        "   steal phase (2x workers draining shard-local bursts): \
         2 shards {steals2_pool} pool / {steals2_kernel} kernel, \
         4 shards {steals4_pool} pool / {steals4_kernel} kernel"
    );
    if let Ok(path) = std::env::var("SHILL_BENCH_POLICY_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"workload\": \"one churner thread per shard x {p} sessions, each: setup -> {f} first-touch label merges -> reclaim\",\n",
                "  \"cores\": {cores},\n",
                "  \"stripes\": {stripes},\n",
                "  \"churn_1_shard\": {{\"ns_per_session\": {:.1}, \"sessions\": {}, \"stripe_contention\": {}}},\n",
                "  \"churn_2_shards\": {{\"ns_per_session\": {:.1}, \"sessions\": {}, \"stripe_contention\": {}}},\n",
                "  \"churn_4_shards\": {{\"ns_per_session\": {:.1}, \"sessions\": {}, \"stripe_contention\": {}}},\n",
                "  \"churn_ratio_2_shards_over_1\": {:.3},\n",
                "  \"churn_ratio_4_shards_over_1\": {:.3},\n",
                "  \"steal_phase\": {{\"shards_2\": {{\"pool\": {}, \"kernel\": {}}}, \"shards_4\": {{\"pool\": {}, \"kernel\": {}}}}},\n",
                "  \"note\": \"striped label state: churners collide only when session ids share a stripe; on 1 core the ratio reads as contention reduction, the >=1.3x target at 4 shards applies on >=4 cores\"\n",
                "}}\n"
            ),
            c1.ns_per_session,
            c1.sessions,
            c1.contention,
            c2.ns_per_session,
            c2.sessions,
            c2.contention,
            c4.ns_per_session,
            c4.sessions,
            c4.contention,
            ratio2,
            ratio4,
            steals2_pool,
            steals2_kernel,
            steals4_pool,
            steals4_kernel,
            p = per_shard,
            f = files,
            cores = cores,
            stripes = stripes,
        );
        std::fs::write(&path, json).expect("write policy baseline");
        println!("   baseline written to {path}");
    }
}

/// The group-10 script pair: the async pipeline and its sequential twin,
/// identical work — copy src→dst (slot-linked), two reads, one stat
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

/// One group-10 measurement: drive `rounds` pipeline invocations through
/// a fresh runtime, returning (ns/round, batch submissions/round).
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
    // Warm the module cache and the dcache before timing.
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

/// Group 10 — language-surface fusion: the async script vs its
/// sequential twin. The submission count is the structural win (ONE
/// `submit_scheduled` per round vs one private batch per operation);
/// wall time mostly tracks the amortizations that buys.
fn bench_lang() {
    let rounds = 300;
    println!(
        "\n10. language-surface fusion (copy + 2 reads + stat sweep x {rounds} \
         rounds, best of 3):"
    );
    let best = |mode: &str| -> (f64, f64) {
        (0..3)
            .map(|_| lang_mode_run(mode, rounds))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap()
    };
    let (fused_ns, fused_batches) = best("fused");
    let (seq_ns, seq_batches) = best("sequential");
    println!("   async (fused):    {fused_ns:>8.0}ns/round  {fused_batches:.1} submissions/round");
    println!("   sequential twin:  {seq_ns:>8.0}ns/round  {seq_batches:.1} submissions/round");
    let sub_ratio = seq_batches / fused_batches.max(1e-9);
    let time_ratio = seq_ns / fused_ns.max(1e-9);
    println!("   fusion: {sub_ratio:.1}× fewer submissions, {time_ratio:.2}× wall time vs twin");
    assert!(
        fused_batches < seq_batches,
        "the fused script must submit fewer batches than its twin"
    );
    if let Ok(path) = std::env::var("SHILL_BENCH_LANG_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"workload\": \"script pipeline per round: copy 16KiB (slot-linked) + 2 reads + 6-file stat sweep; async form forced by one await_all vs eager sequential twin\",\n",
                "  \"rounds\": {rounds},\n",
                "  \"fused\": {{\"ns_per_round\": {:.1}, \"submissions_per_round\": {:.2}}},\n",
                "  \"sequential\": {{\"ns_per_round\": {:.1}, \"submissions_per_round\": {:.2}}},\n",
                "  \"submission_ratio_sequential_over_fused\": {:.3},\n",
                "  \"time_ratio_sequential_over_fused\": {:.3},\n",
                "  \"note\": \"submissions/round is the structural claim (one submit_scheduled vs one private batch per op); ns/round varies with the box\"\n",
                "}}\n"
            ),
            fused_ns,
            fused_batches,
            seq_ns,
            seq_batches,
            sub_ratio,
            time_ratio,
            rounds = rounds,
        );
        std::fs::write(&path, json).expect("write lang baseline");
        println!("   baseline written to {path}");
    }
}

/// One group-11 measurement.
struct ObsRun {
    ns_per_op: f64,
    trace_events: u64,
    trace_dropped: u64,
}

/// Drive the group-5 deep-stat batched workload with the trace plane
/// absent (`traced = false`) or armed on every site. Rounds are timed
/// individually and the ring is drained between them, so the measurement
/// is the steady-state push cost, never the ring-full fast path.
fn obs_stat_run(traced: bool, rounds: usize, width: usize) -> ObsRun {
    let depth = 9;
    let mut p = String::from("/deep");
    for i in 0..depth {
        p.push_str(&format!("/d{i}"));
    }
    let file = format!("{p}/leaf.bin");
    let (mut k, pid) = batch_fixture(|k| {
        k.fs.put_file(&file, b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
    });
    if traced {
        k.set_trace_plane(Some(Arc::new(TracePlane::new(
            TraceSite::ALL_MASK,
            1 << 16,
        ))));
    }
    let entries: Vec<BatchEntry> = (0..width)
        .map(|_| BatchEntry::Stat {
            dirfd: None,
            path: file.clone(),
            follow: true,
        })
        .collect();
    let batch = SyscallBatch::new(entries);
    // Warmup (propagation + caches), then measure.
    k.fstatat(pid, None, &file, true).unwrap();
    k.stats.reset();
    let mut busy = std::time::Duration::ZERO;
    let mut trace_events = 0u64;
    for _ in 0..rounds {
        let t0 = Instant::now();
        let out = k.submit_batch(pid, &batch).unwrap();
        busy += t0.elapsed();
        debug_assert!(out.iter().all(|r| r.is_ok()));
        if let Some(plane) = k.trace_plane_handle() {
            trace_events += plane.drain().len() as u64;
        }
    }
    let st = k.stats_snapshot();
    ObsRun {
        ns_per_op: busy.as_nanos() as f64 / (rounds * width) as f64,
        trace_events,
        trace_dropped: st.trace_dropped,
    }
}

/// Group 11 — observability-plane overhead: deep-stat batched with the
/// trace plane off vs armed on every site.
fn bench_obs() {
    println!("\n11. observability ablation (deep-stat batched, trace plane off vs on):");
    let rounds = 2_000;
    let width = 64;
    // Interleaved best-of-3: off/on pairs sampled close together so a
    // box-wide hiccup hits both sides of the ratio.
    let keep = |slot: &mut Option<ObsRun>, r: ObsRun| {
        if slot.as_ref().is_none_or(|b| r.ns_per_op < b.ns_per_op) {
            *slot = Some(r);
        }
    };
    let (mut off, mut on) = (None, None);
    for _ in 0..3 {
        keep(&mut off, obs_stat_run(false, rounds, width));
        keep(&mut on, obs_stat_run(true, rounds, width));
    }
    let (off, on) = (off.unwrap(), on.unwrap());
    assert_eq!(
        on.trace_dropped, 0,
        "ring drained every round; nothing may drop"
    );
    assert!(on.trace_events > 0, "armed plane must record events");
    let overhead = on.ns_per_op / off.ns_per_op.max(1e-9);
    println!("   trace off: {:>8.0}ns/op", off.ns_per_op);
    println!(
        "   trace on:  {:>8.0}ns/op  events {:>8}  dropped {:>4}",
        on.ns_per_op, on.trace_events, on.trace_dropped
    );
    println!("   overhead (on/off): {overhead:.3}×");
    if let Ok(path) = std::env::var("SHILL_BENCH_OBS_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"workload\": \"fstatat at depth 9, {r} rounds x {w}-entry batches via submit_batch (the group-5 deep-stat shape), ring drained between rounds\",\n",
                "  \"off\": {{\"ns_per_op\": {:.1}}},\n",
                "  \"on\": {{\"ns_per_op\": {:.1}, \"trace_events\": {}, \"trace_dropped\": {}}},\n",
                "  \"overhead_on_over_off\": {:.3},\n",
                "  \"note\": \"off is the shipped default (no plane installed: one relaxed load per site); the CI gate holds on/off at 1.10x measured in the same process\"\n",
                "}}\n"
            ),
            off.ns_per_op,
            on.ns_per_op,
            on.trace_events,
            on.trace_dropped,
            overhead,
            r = rounds,
            w = width,
        );
        std::fs::write(&path, json).expect("write obs baseline");
        println!("   baseline written to {path}");
    }
}

/// Group 12 — server front-end load generation. Open `sessions`
/// concurrent authenticated TCP connections (thread-per-connection on
/// the server side, `drivers` client threads each owning a slice), then
/// push `rounds` read frames down every connection, timing each request
/// end-to-end: frame write, server dispatch through the batch pool,
/// reply frame read. Latency quantiles are exact (sorted samples, one
/// per request), never histogram-bucketed.
fn bench_server() {
    use shill::server::{
        Client, Server, ServerConfig, ServerCore, StaticTokens, TenantQuota, TenantSpec,
    };

    let envnum = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let sessions = envnum("SHILL_BENCH_SERVER_SESSIONS", 1000);
    let rounds = envnum("SHILL_BENCH_SERVER_ROUNDS", 3);
    let drivers = envnum("SHILL_BENCH_SERVER_DRIVERS", 16).max(1);
    const TENANTS: usize = 8;
    println!("\n12. server front-end ({sessions} concurrent sessions, {rounds} rounds, {drivers} drivers):");

    let core = ServerCore::new(
        ServerConfig {
            shards: 4,
            pool_workers: 4,
            max_sessions: sessions + drivers,
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
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for s in (d..sessions).step_by(drivers) {
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
    println!(
        "   opened {opened} sessions in {open_s:.2}s ({:.0}/s)",
        opened as f64 / open_s.max(1e-9)
    );

    // Phase 2: the request storm, one latency sample per request.
    let t0 = Instant::now();
    let samples: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|mine| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(mine.len() * rounds);
                    for _ in 0..rounds {
                        for (c, req) in mine.iter_mut() {
                            let t = Instant::now();
                            let reply = c.req(req).expect("request frame");
                            lat.push(t.elapsed().as_nanos() as u64);
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

    let mut all: Vec<u64> = samples.into_iter().flatten().collect();
    all.sort_unstable();
    let total = all.len();
    let q = |p: f64| all[(((total as f64) * p) as usize).min(total - 1)];
    let (p50, p99) = (q(0.50), q(0.99));
    let mean = all.iter().sum::<u64>() as f64 / total as f64;
    let rps = total as f64 / wall.max(1e-9);
    println!(
        "   {total} requests in {wall:.2}s: {rps:.0} req/s  p50 {:.1}µs  p99 {:.1}µs  mean {:.1}µs",
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
        mean / 1e3
    );

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

    if let Ok(path) = std::env::var("SHILL_BENCH_SERVER_JSON") {
        let json = format!(
            concat!(
                "{{\n",
                "  \"workload\": \"{s} concurrent authenticated TCP sessions across {t} tenants, {r} read frames each through the framed protocol onto a 4-shard kernel + 4-worker batch pool; latency is per-request end-to-end (client write to client read), quantiles exact-sorted\",\n",
                "  \"sessions\": {s},\n",
                "  \"drivers\": {d},\n",
                "  \"requests\": {n},\n",
                "  \"open_seconds\": {:.2},\n",
                "  \"throughput_rps\": {:.0},\n",
                "  \"p50_ns\": {},\n",
                "  \"p99_ns\": {},\n",
                "  \"mean_ns\": {:.0},\n",
                "  \"note\": \"thread-per-connection server on loopback; on a single-core CI box the quantiles measure the multiplexing queue, not the kernel crossing\"\n",
                "}}\n"
            ),
            open_s,
            rps,
            p50,
            p99,
            mean,
            s = sessions,
            t = TENANTS,
            r = rounds,
            d = drivers,
            n = total,
        );
        std::fs::write(&path, json).expect("write server baseline");
        println!("   baseline written to {path}");
    }
}

fn main() {
    println!("Ablation benches — design-choice costs\n");
    // `SHILL_BENCH_ONLY=policy` (comma-separated names) runs a subset —
    // CI uses it to record one group's baseline without paying for all.
    let only = std::env::var("SHILL_BENCH_ONLY").ok();
    let want = |name: &str| {
        only.as_deref()
            .is_none_or(|o| o.split(',').any(|g| g.trim().eq_ignore_ascii_case(name)))
    };
    if want("contract") {
        bench_contract_cost();
    }
    if want("churn") {
        bench_session_churn();
    }
    if want("propagation") {
        bench_propagation_depth();
    }
    if want("cache") {
        bench_cache_ablation();
    }
    if want("batch") {
        bench_batch_ablation();
    }
    if want("concurrency") {
        bench_concurrency();
    }
    if want("sched") {
        bench_sched();
    }
    if want("shard") {
        bench_shard();
    }
    if want("policy") {
        bench_policy();
    }
    if want("lang") {
        bench_lang();
    }
    if want("obs") {
        bench_obs();
    }
    if want("server") {
        bench_server();
    }
    let _ = Arc::new(());
}
