//! Grammar-based fuzzing with a differential oracle (ISSUE 7 tentpole).
//!
//! Three layers, all deterministic (seeded xorshift, no wall clock):
//!
//! 1. **Front-end fuzz** — grammar-generated SHILL sources always parse;
//!    byte-level mutants (truncation, NULs, splices, duplication) never
//!    panic the lexer/parser.
//! 2. **Eval determinism** — a generated script produces the identical
//!    value, output, and errno stream on a twin runtime, with caches on
//!    or off.
//! 3. **The standing differential twin** — grammar-generated syscall
//!    workloads (dependency DAGs over a partially-granted sandbox) run
//!    through all three execution modes — `run_sequential` (the oracle),
//!    `submit_batch`, and the stepped `KernelShards::run_job` — under the
//!    same seeded fault schedule, caches on and off. Results, errnos, denial
//!    sets, audit-span accounting, and fault bookkeeping must be
//!    identical; `faults_injected == faults_survived` proves no injected
//!    fault ever escaped as a panic.
//!
//! Layers 3b and 4 carry the differential oracle to span accounting and
//! to the server path. Layer 5 compares the evaluator with itself across
//! changes: generated scoping scripts must reproduce the outcomes recorded
//! in `tests/corpus/eval_fingerprints.txt`.
//!
//! Iteration counts honor `SHILL_FUZZ_ITERS` (CI runs 1000); crashes and
//! divergences are reported with the generating seed so they can be
//! replayed bit-for-bit, and interesting sources land in `tests/corpus/`
//! (replayed by `corpus_replays_deterministically`).

use std::sync::Arc;

use shill::cap::{CapPrivs, Priv, PrivSet};
use shill::kernel::{
    BatchArg, BatchEntry, BatchFd, BatchOut, FailMode, FaultPlane, Fd, Kernel, KernelShards,
    OpenFlags, Pid, SyscallBatch,
};
use shill::prelude::*;
use shill::sandbox::{setup_sandbox, Grant, LogEvent, SandboxSpec, ShillPolicy};

fn iters() -> usize {
    std::env::var("SHILL_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000)
}

/// Deterministic xorshift64* (the repo's standing generator idiom).
#[derive(Clone)]
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

// =======================================================================
// Layer 1: grammar generation of SHILL source text + mutation.
// =======================================================================

/// Generate an expression of bounded depth from the SHILL grammar.
fn gen_expr(rng: &mut Rng, depth: usize, cap_dialect: bool) -> String {
    if depth == 0 {
        return match rng.below(6) {
            0 => format!("{}", rng.below(1000)),
            1 => format!("\"s{}\"", rng.below(100)),
            2 => "true".into(),
            3 => "false".into(),
            4 => "[]".into(),
            _ => format!("v{}", rng.below(3)),
        };
    }
    match rng.below(10) {
        0 => format!(
            "({} + {})",
            gen_expr(rng, depth - 1, cap_dialect),
            gen_expr(rng, depth - 1, cap_dialect)
        ),
        1 => format!(
            "({} * {})",
            gen_expr(rng, depth - 1, cap_dialect),
            gen_expr(rng, depth - 1, cap_dialect)
        ),
        2 => format!(
            "\"x\" ++ to_string({})",
            gen_expr(rng, depth - 1, cap_dialect)
        ),
        3 => format!(
            "[{}, {}]",
            gen_expr(rng, depth - 1, cap_dialect),
            gen_expr(rng, depth - 1, cap_dialect)
        ),
        4 => format!("length([{}])", gen_expr(rng, depth - 1, cap_dialect)),
        5 if cap_dialect => format!(
            "if {} > 0 then {} else {}",
            gen_expr(rng, depth - 1, cap_dialect),
            gen_expr(rng, depth - 1, cap_dialect),
            gen_expr(rng, depth - 1, cap_dialect)
        ),
        6 if cap_dialect => format!(
            "fun(a) {{ a + {} }}({})",
            gen_expr(rng, depth - 1, cap_dialect),
            gen_expr(rng, depth - 1, cap_dialect)
        ),
        7 => format!("-({})", gen_expr(rng, depth - 1, cap_dialect)),
        8 => format!("!({} == {})", rng.below(4), rng.below(4)),
        _ => format!("to_string({})", gen_expr(rng, depth - 1, cap_dialect)),
    }
}

/// Paths the ambient generator opens: present, absent, and a directory.
const SCRIPT_PATHS: &[&str] = &[
    "/home/u/a.txt",
    "/home/u/b.txt",
    "/home/u/missing",
    "/home/u",
    "/nowhere",
];

/// Generate a whole script: cap dialect (pure compute, optional provide)
/// or ambient dialect (opens + observation via `is_syserror`).
fn gen_script(rng: &mut Rng) -> String {
    let cap = rng.flag();
    let mut s = String::new();
    if cap {
        s.push_str("#lang shill/cap\n");
        for i in 0..1 + rng.below(3) {
            let d = 1 + rng.below(3);
            let e = gen_expr(rng, d, true);
            s.push_str(&format!("v{i} = {e};\n"));
        }
        let d = 1 + rng.below(3);
        s.push_str(&format!("{}\n", gen_expr(rng, d, true)));
    } else {
        s.push_str("#lang shill/ambient\n");
        for i in 0..1 + rng.below(3) {
            if rng.flag() {
                let p = SCRIPT_PATHS[rng.below(SCRIPT_PATHS.len())];
                s.push_str(&format!("v{i} = open_file(\"{p}\");\n"));
            } else {
                let d = 1 + rng.below(2);
                let e = gen_expr(rng, d, false);
                s.push_str(&format!("v{i} = {e};\n"));
            }
        }
        s.push_str("to_string(is_syserror(v0))\n");
    }
    s
}

/// Byte-level mutation: the output may be arbitrarily broken — the oracle
/// is only "no panic, clean ParseError".
fn mutate(rng: &mut Rng, src: &str) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        if bytes.is_empty() {
            break;
        }
        match rng.below(5) {
            0 => {
                // Truncate at an arbitrary byte.
                bytes.truncate(rng.below(bytes.len()));
            }
            1 => {
                // Flip a byte (may produce invalid UTF-8 → lossy-decoded).
                let i = rng.below(bytes.len());
                bytes[i] = (rng.next() & 0xFF) as u8;
            }
            2 => {
                // Insert junk, NULs included.
                let i = rng.below(bytes.len());
                let junk: &[u8] = match rng.below(4) {
                    0 => b"\0\0",
                    1 => b"((((((((",
                    2 => b"\xff\xfe",
                    _ => b"!!!!----",
                };
                for (j, b) in junk.iter().enumerate() {
                    bytes.insert(i + j, *b);
                }
            }
            3 => {
                // Duplicate a chunk.
                let i = rng.below(bytes.len());
                let len = rng.below(bytes.len() - i).min(32);
                let chunk: Vec<u8> = bytes[i..i + len].to_vec();
                for (j, b) in chunk.into_iter().enumerate() {
                    bytes.insert(i + j, b);
                }
            }
            _ => {
                // Delete a range.
                let i = rng.below(bytes.len());
                let len = rng.below(bytes.len() - i).min(16);
                bytes.drain(i..i + len);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn fuzzed_sources_parse_and_mutants_never_panic() {
    let mut rng = Rng::new(0xF0 | 0x5EED);
    for case in 0..iters() {
        let src = gen_script(&mut rng);
        // Grammar-generated sources are valid by construction.
        if let Err(e) = shill::core::parse_script(&src) {
            panic!("case {case}: generated source failed to parse: {e}\n{src}");
        }
        // Mutants may parse or not — they must never panic (a panic here
        // fails the test harness; nothing to assert).
        for _ in 0..3 {
            let m = mutate(&mut rng, &src);
            let _ = shill::core::parse_script(&m);
        }
    }
}

// =======================================================================
// Layer 2: eval determinism — twin runtimes, caches on/off.
// =======================================================================

fn script_kernel(cached: bool) -> Kernel {
    let mut k = Kernel::new();
    k.set_avc_enabled(cached);
    k.fs.put_file("/home/u/a.txt", b"alpha", Mode(0o644), Uid(100), Gid(100))
        .unwrap();
    k.fs.put_file("/home/u/b.txt", b"beta", Mode(0o600), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k
}

/// Everything a script evaluation observes, in one comparable string.
fn eval_fingerprint(cached: bool, src: &str) -> String {
    let mut rt = ShillRuntime::new(
        script_kernel(cached),
        RuntimeConfig::WithPolicy,
        Cred::user(100),
    );
    let r = rt.run("fuzz", src);
    let v = match r {
        Ok(v) => format!("ok:{}", v.display()),
        Err(e) => format!("err:{e}"),
    };
    format!("{v}|out:{}", rt.output())
}

#[test]
fn fuzzed_scripts_evaluate_deterministically_in_both_cache_modes() {
    let mut rng = Rng::new(0xDE7E_2714);
    for case in 0..iters() {
        let src = gen_script(&mut rng);
        let a = eval_fingerprint(true, &src);
        let b = eval_fingerprint(true, &src);
        assert_eq!(
            a, b,
            "case {case}: same script, same caches, diverged\n{src}"
        );
        let c = eval_fingerprint(false, &src);
        assert_eq!(a, c, "case {case}: cache mode changed evaluation\n{src}");
    }
}

// =======================================================================
// Layer 3: the three-mode differential oracle under fault schedules.
// =======================================================================

/// Seeded fault schedules (the `SHILL_FAULTS` syntax). Hash-rate sites
/// only: their keys (path hash, shard-relative node/pid, slot index) are
/// identical across execution modes, so one schedule fires identically in
/// all three — the replayable-bit-for-bit contract.
const SCHEDULES: &[Option<&str>] = &[
    None,
    Some("seed=11;rate=6;sites=namei"),
    Some("seed=23;rate=5;sites=fs.read+fs.write"),
    Some("seed=5;rate=4;sites=namei+fs.read+fs.write+batch"),
];

fn caps(privs: &[Priv]) -> CapPrivs {
    CapPrivs::of(PrivSet::of(privs))
}

fn populate_workload_fs(k: &mut Kernel) {
    for i in 0..4 {
        k.fs.put_file(
            &format!("/data/pub/inner/f{i}"),
            format!("pub-{i}").as_bytes(),
            Mode(0o666),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }
    k.fs.put_file(
        "/data/pub/note.txt",
        b"note",
        Mode(0o666),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    k.fs.put_file(
        "/data/secret/key",
        b"hunter2",
        Mode(0o666),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
}

/// Build the sandboxed workload fixture on an existing kernel: a granted
/// region (with propagating leaf privileges), a denied region, and three
/// pre-opened descriptors. Identical construction order on every twin ⇒
/// identical pids, node ids, session ids, and descriptor numbers.
fn build_sandbox(k: &mut Kernel, policy: &Arc<ShillPolicy>) -> (Pid, Vec<Fd>) {
    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let data = k.fs.resolve_abs("/data").unwrap();
    let pub_dir = k.fs.resolve_abs("/data/pub").unwrap();
    let leaf = caps(&[
        Priv::Read,
        Priv::Write,
        Priv::Append,
        Priv::Truncate,
        Priv::Stat,
        Priv::Path,
    ]);
    let inner = caps(&[
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
    let pub_privs = caps(&[Priv::Lookup, Priv::Contents, Priv::Stat])
        .with_modifier(Priv::Lookup, inner)
        .with_modifier(Priv::CreateFile, leaf);
    let spec = SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            Grant::vnode(data, caps(&[Priv::Lookup])),
            Grant::vnode(pub_dir, pub_privs),
        ],
        ..Default::default()
    };
    let sb = setup_sandbox(k, policy, user, &spec).unwrap();
    let rd = k
        .open(sb.child, "/data/pub/note.txt", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    let wr = k
        .open(sb.child, "/data/pub/inner/f0", OpenFlags::rdwr(), Mode(0))
        .unwrap();
    let dir = k
        .open(sb.child, "/data/pub", OpenFlags::dir(), Mode(0))
        .unwrap();
    (sb.child, vec![rd, wr, dir])
}

fn arb_workload_path(rng: &mut Rng) -> String {
    const PATHS: &[&str] = &[
        "/data/pub/inner/f0",
        "/data/pub/inner/f1",
        "/data/pub/inner/f2",
        "/data/pub/inner/missing",
        "/data/pub/note.txt",
        "/data/secret/key",
        "/nowhere/at/all",
    ];
    PATHS[rng.below(PATHS.len())].to_string()
}

/// Grammar over syscall workloads: a dependency DAG with barrier ordering
/// for mutations and per-descriptor chains, so all three execution modes
/// observe the same offsets and namespace states. This is the lowered form
/// of the scripts layer-2 runs — `exec` batches its sandbox I/O exactly
/// like this.
fn gen_workload(rng: &mut Rng, fds: &[Fd]) -> SyscallBatch {
    let fail_mode = if rng.flag() {
        FailMode::Continue
    } else {
        FailMode::Abort
    };
    let mut batch = SyscallBatch {
        entries: Vec::new(),
        fail_mode,
        deps: Vec::new(),
    };
    let mut open_slots: Vec<usize> = Vec::new();
    let mut data_slots: Vec<usize> = Vec::new();
    let mut last_barrier: Option<usize> = None;
    let mut since_barrier: Vec<usize> = Vec::new();
    let mut last_fd_op: Option<usize> = None;
    let mut last_fd_use: std::collections::HashMap<usize, usize> = Default::default();

    for _ in 0..2 + rng.below(10) {
        let choice = rng.below(12);
        let slot = batch.entries.len();
        let dep = |deps: &mut Vec<(usize, usize)>, on: Option<usize>| {
            if let Some(on) = on {
                if on < slot {
                    deps.push((slot, on));
                }
            }
        };
        match choice {
            0 | 1 => {
                batch.push(BatchEntry::Stat {
                    dirfd: None,
                    path: arb_workload_path(rng),
                    follow: rng.flag(),
                });
                dep(&mut batch.deps, last_barrier);
                since_barrier.push(slot);
            }
            2 | 3 => {
                batch.push(BatchEntry::ReadFile {
                    dirfd: None,
                    path: arb_workload_path(rng),
                });
                dep(&mut batch.deps, last_barrier);
                since_barrier.push(slot);
                data_slots.push(slot);
            }
            4 => {
                batch.push(BatchEntry::Open {
                    dirfd: None,
                    path: arb_workload_path(rng),
                    flags: OpenFlags::RDONLY,
                    mode: Mode(0),
                });
                dep(&mut batch.deps, last_barrier);
                dep(&mut batch.deps, last_fd_op);
                since_barrier.push(slot);
                last_fd_op = Some(slot);
                open_slots.push(slot);
            }
            5 | 6 if !open_slots.is_empty() => {
                let producer = open_slots[rng.below(open_slots.len())];
                batch.push(BatchEntry::Read {
                    fd: BatchFd::FromEntry(producer),
                    len: 1 + rng.below(24),
                });
                dep(&mut batch.deps, last_barrier);
                dep(&mut batch.deps, last_fd_use.insert(producer, slot));
                since_barrier.push(slot);
                data_slots.push(slot);
            }
            7 if !open_slots.is_empty() => {
                let idx = rng.below(open_slots.len());
                let producer = open_slots.swap_remove(idx);
                batch.push(BatchEntry::Close {
                    fd: BatchFd::FromEntry(producer),
                });
                dep(&mut batch.deps, last_barrier);
                dep(&mut batch.deps, last_fd_op);
                dep(&mut batch.deps, last_fd_use.insert(producer, slot));
                since_barrier.push(slot);
                last_fd_op = Some(slot);
            }
            8 => {
                batch.push(BatchEntry::Pread {
                    fd: fds[0].into(),
                    offset: rng.below(8) as u64,
                    len: 1 + rng.below(16),
                });
                dep(&mut batch.deps, last_barrier);
                since_barrier.push(slot);
            }
            9 => {
                batch.push(BatchEntry::Write {
                    fd: fds[1].into(),
                    data: vec![b'z'; 1 + rng.below(24)].into(),
                });
                for j in since_barrier.drain(..) {
                    batch.deps.push((slot, j));
                }
                dep(&mut batch.deps, last_barrier);
                last_barrier = Some(slot);
            }
            10 => {
                let data: BatchArg = if !data_slots.is_empty() && rng.flag() {
                    BatchArg::OutputOf(data_slots[rng.below(data_slots.len())])
                } else {
                    vec![b'x'; 1 + rng.below(48)].into()
                };
                batch.push(BatchEntry::WriteFile {
                    dirfd: None,
                    path: format!("/data/pub/inner/w{}", rng.below(3)),
                    data,
                    mode: Mode::FILE_DEFAULT,
                    append: rng.flag(),
                });
                for j in since_barrier.drain(..) {
                    batch.deps.push((slot, j));
                }
                dep(&mut batch.deps, last_barrier);
                last_barrier = Some(slot);
            }
            _ => {
                batch.push(BatchEntry::Unlink {
                    dirfd: None,
                    path: format!("/data/pub/inner/w{}", rng.below(3)),
                    remove_dir: false,
                });
                for j in since_barrier.drain(..) {
                    batch.deps.push((slot, j));
                }
                dep(&mut batch.deps, last_barrier);
                last_barrier = Some(slot);
            }
        }
    }
    batch
}

/// A deterministic high-key-diversity batch prepended to every workload
/// stream: dozens of distinct namei, fs.read, fs.write, and batch-slot
/// keys, so every hash-rate schedule in `SCHEDULES` provably fires no
/// matter how low `SHILL_FUZZ_ITERS` is set (the hash is stateless, so
/// firing is a pure function of the key set). Mutating entries are
/// dep-chained; the reads are positionless, so the batch is
/// order-insensitive for the out-of-order modes.
fn coverage_batch(fds: &[Fd]) -> SyscallBatch {
    let mut batch = SyscallBatch {
        entries: Vec::new(),
        fail_mode: FailMode::Continue,
        deps: Vec::new(),
    };
    for i in 0..48 {
        batch.push(BatchEntry::Stat {
            dirfd: None,
            path: format!("/data/pub/inner/cov{i}"),
            follow: true,
        });
    }
    for offset in 0..6u64 {
        for len in 1..7usize {
            batch.push(BatchEntry::Pread {
                fd: fds[0].into(),
                offset,
                len,
            });
        }
    }
    let mut prev: Option<usize> = None;
    for len in 1..16usize {
        let slot = batch.entries.len();
        batch.push(BatchEntry::Write {
            fd: fds[1].into(),
            data: vec![b'c'; len].into(),
        });
        if let Some(p) = prev {
            batch.deps.push((slot, p));
        }
        prev = Some(slot);
    }
    batch
}

/// Comparable slot outcome. Descriptor numbers are compared modulo
/// renaming: the fd allocator is order-sensitive and nothing observable
/// depends on the number (in-batch consumers use slot references).
fn fingerprint(r: &Result<BatchOut, shill::vfs::Errno>) -> String {
    match r {
        Ok(BatchOut::Unit) => "unit".into(),
        Ok(BatchOut::Fd(_)) => "fd".into(),
        Ok(BatchOut::Data(d)) => format!("data:{d:?}"),
        Ok(BatchOut::Written(n)) => format!("written:{n}"),
        Ok(BatchOut::Stat(st)) => format!("stat:{}:{:?}", st.size, st.ftype),
        Ok(BatchOut::Names(ns)) => format!("names:{ns:?}"),
        Err(e) => format!("errno:{e:?}"),
    }
}

/// Denials normalized to (object, needed-privileges): session ids and node
/// id bases differ across twins by construction, the authority decision
/// must not.
fn denial_set(policy: &ShillPolicy) -> Vec<String> {
    let mut v: Vec<String> = policy
        .log_events()
        .iter()
        .filter_map(|e| match e {
            LogEvent::Denied { obj, needed, .. } => Some(format!("{obj:?}/{needed:?}")),
            _ => None,
        })
        .collect();
    v.sort();
    v
}

/// Aggregate audit-span accounting: (spans, entries, executed, failed,
/// cancelled) summed over every `BatchSpan` the policy logged.
fn span_totals(policy: &ShillPolicy) -> (u64, u64, u64, u64, u64) {
    let mut t = (0u64, 0u64, 0u64, 0u64, 0u64);
    for e in policy.log_events().iter() {
        if let LogEvent::BatchSpan {
            entries,
            executed,
            failed,
            cancelled,
            ..
        } = e
        {
            t.0 += 1;
            t.1 += *entries as u64;
            t.2 += *executed as u64;
            t.3 += *failed as u64;
            t.4 += *cancelled as u64;
        }
    }
    t
}

/// One execution mode's observation of the whole workload stream.
struct ModeRun {
    name: &'static str,
    /// Per-batch slot fingerprints.
    results: Vec<Vec<String>>,
    denials: Vec<String>,
    spans: Option<(u64, u64, u64, u64, u64)>,
    faults_injected: u64,
    faults_survived: u64,
}

fn standalone_fixture(
    cached: bool,
    schedule: Option<&str>,
) -> (Kernel, Arc<ShillPolicy>, Pid, Vec<Fd>) {
    let mut k = Kernel::new_shard(0);
    k.set_avc_enabled(cached);
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    policy.set_log_enabled(true);
    populate_workload_fs(&mut k);
    let (child, fds) = build_sandbox(&mut k, &policy);
    // Armed only after setup: the schedule governs the workload, not the
    // fixture choreography.
    k.set_fault_plane(schedule.map(|s| FaultPlane::parse(s).expect("schedule")));
    (k, policy, child, fds)
}

fn run_mode(
    name: &'static str,
    cached: bool,
    schedule: Option<&str>,
    batches: &[SyscallBatch],
) -> ModeRun {
    let (mut k, policy, child, _fds) = standalone_fixture(cached, schedule);
    let mut results = Vec::with_capacity(batches.len());
    for b in batches {
        let out = match name {
            "sequential" => k.run_sequential(child, b).expect("sequential"),
            "batched" => k.submit_batch(child, b).expect("batched"),
            other => unreachable!("unknown mode {other}"),
        };
        results.push(out.iter().map(fingerprint).collect());
    }
    if std::env::var("SHILL_FUZZ_DEBUG").is_ok() {
        if let Some(p) = k.fault_plane() {
            use shill::kernel::FaultSite;
            eprintln!(
                "[{name}] hits: namei={} fsread={} fswrite={} batch={} charge={}",
                p.hits(FaultSite::Namei),
                p.hits(FaultSite::FsRead),
                p.hits(FaultSite::FsWrite),
                p.hits(FaultSite::Batch),
                p.hits(FaultSite::Charge),
            );
        }
    }
    let snap = k.stats_snapshot();
    ModeRun {
        name,
        results,
        denials: denial_set(&policy),
        spans: (name != "sequential").then(|| span_totals(&policy)),
        faults_injected: snap.faults_injected,
        faults_survived: snap.faults_survived,
    }
}

/// The third mode: `KernelShards::run_job` on a one-shard set, which takes
/// the shard lock once per wave, so the stepped per-wave path executes
/// every batch; construction order matches the standalone twins, so session
/// ids, pids, and descriptors line up exactly.
fn run_job_mode(cached: bool, schedule: Option<&str>, batches: &[SyscallBatch]) -> ModeRun {
    let policy = ShillPolicy::new();
    let shards = KernelShards::new_with(1, |k, _| {
        k.set_avc_enabled(cached);
        populate_workload_fs(k);
    });
    shards.register_policy(policy.clone());
    policy.set_log_enabled(true);
    let (child, _fds) = {
        let mut k = shards.lock_shard(0);
        build_sandbox(&mut k, &policy)
    };
    shards.set_fault_plane(schedule);
    let mut results = Vec::with_capacity(batches.len());
    for b in batches {
        let slots = shards.run_job(child, b.clone(), &[]).expect("job");
        results.push(slots.iter().map(fingerprint).collect());
    }
    let snap = shards.stats();
    ModeRun {
        name: "run-job",
        results,
        denials: denial_set(&policy),
        spans: Some(span_totals(&policy)),
        faults_injected: snap.faults_injected,
        faults_survived: snap.faults_survived,
    }
}

#[test]
fn four_modes_agree_under_every_fault_schedule_and_cache_mode() {
    let n = iters();
    for (si, schedule) in SCHEDULES.iter().enumerate() {
        for cached in [true, false] {
            // Identical workload stream for every mode: generate once.
            let mut rng = Rng::new(0xD1FF ^ (si as u64) << 8);
            let probe_fds = {
                let (_, _, _, fds) = standalone_fixture(cached, None);
                fds
            };
            let mut batches = vec![coverage_batch(&probe_fds)];
            batches.extend((0..n).map(|_| gen_workload(&mut rng, &probe_fds)));

            let seq = run_mode("sequential", cached, *schedule, &batches);
            let bat = run_mode("batched", cached, *schedule, &batches);
            let job = run_job_mode(cached, *schedule, &batches);
            let modes = [&seq, &bat, &job];

            let ctxt =
                |m: &ModeRun| format!("schedule {:?}, cached={cached}, mode {}", schedule, m.name);
            for m in &modes[1..] {
                for (i, (a, b)) in seq.results.iter().zip(&m.results).enumerate() {
                    assert_eq!(
                        a,
                        b,
                        "workload {i} diverged: sequential vs {} ({})\nbatch: {:?}",
                        m.name,
                        ctxt(m),
                        batches[i]
                    );
                }
                assert_eq!(seq.denials, m.denials, "denial sets diverged ({})", ctxt(m));
            }
            // Audit-span accounting agrees across the two span-producing
            // modes (sequential execution books no batch spans).
            assert_eq!(bat.spans, job.spans, "span accounting: batched vs run_job");

            // Fault bookkeeping: every mode injected the same faults, and
            // every injected fault was survived — none escaped as a panic.
            for m in &modes {
                assert_eq!(
                    m.faults_injected,
                    m.faults_survived,
                    "a fault escaped containment ({})",
                    ctxt(m)
                );
            }
            for m in &modes[1..] {
                assert_eq!(
                    seq.faults_injected,
                    m.faults_injected,
                    "fault schedule fired differently ({})",
                    ctxt(m)
                );
            }
            if let Some(spec) = schedule {
                assert!(
                    seq.faults_injected > 0,
                    "schedule {spec:?} (cached={cached}) never fired — dead oracle"
                );
            }
        }
    }
}

// =======================================================================
// Revocation-path fault: no stale allow.
// =======================================================================

/// A fault injected while a session is being torn down must not leave a
/// stale permissive verdict behind: after the disrupted teardown, a new
/// session without the grant is denied — the AVC epoch discipline holds
/// even on the error path.
#[test]
fn injected_fault_on_the_revocation_path_leaves_no_stale_allow() {
    let mut k = Kernel::new();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    populate_workload_fs(&mut k);
    let user = k.spawn_user(Cred::ROOT);
    let note = k.fs.resolve_abs("/data/pub/note.txt").unwrap();
    let root = k.fs.root();
    let data = k.fs.resolve_abs("/data").unwrap();
    let pub_dir = k.fs.resolve_abs("/data/pub").unwrap();

    // Session A: granted read on the note; the allow verdict is cached.
    let spec_granted = SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            Grant::vnode(data, caps(&[Priv::Lookup])),
            Grant::vnode(pub_dir, caps(&[Priv::Lookup])),
            Grant::vnode(note, caps(&[Priv::Read, Priv::Stat])),
        ],
        ..Default::default()
    };
    let a = setup_sandbox(&mut k, &policy, user, &spec_granted).unwrap();
    let fd = k
        .open(a.child, "/data/pub/note.txt", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    assert_eq!(k.read(a.child, fd, 4).unwrap(), b"note");

    // Teardown with a fault injected on the reap path: the parent's first
    // charged syscall (the waitpid) fails with EAGAIN mid-revocation.
    k.set_fault_plane(Some(FaultPlane::seeded(9, 0, &[]).fail_on(
        shill::kernel::FaultSite::Charge,
        1,
        shill::vfs::Errno::EAGAIN,
    )));
    k.exit(a.child, 0);
    assert_eq!(
        k.waitpid(user, a.child),
        Err(shill::vfs::Errno::EAGAIN),
        "the injected fault must actually disrupt the reap"
    );
    // The script retries, as satellite 1 guarantees it can.
    assert_eq!(k.waitpid(user, a.child), Ok(0));

    // Session B: same structure, but NO grant on the note. The cached
    // allow from session A must not leak: every access is denied.
    let spec_ungranted = SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            Grant::vnode(data, caps(&[Priv::Lookup])),
            Grant::vnode(pub_dir, caps(&[Priv::Lookup])),
        ],
        ..Default::default()
    };
    let b = setup_sandbox(&mut k, &policy, user, &spec_ungranted).unwrap();
    assert_eq!(
        k.open(b.child, "/data/pub/note.txt", OpenFlags::RDONLY, Mode(0)),
        Err(shill::vfs::Errno::EACCES),
        "stale allow after a disrupted revocation"
    );
    let snap = k.stats_snapshot();
    assert_eq!(snap.faults_injected, 1);
    assert_eq!(snap.faults_survived, 1);
}

// =======================================================================
// Corpus replay.
// =======================================================================

/// Every file in `tests/corpus/` replays deterministically: parse never
/// panics, and sources that parse evaluate to the identical outcome twice.
/// Fuzzer finds land here (named for what they exercised) and stay forever.
#[test]
fn corpus_replays_deterministically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "shill"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "corpus must not be empty");
    for path in entries {
        let raw = std::fs::read(&path).unwrap();
        let src = String::from_utf8_lossy(&raw).into_owned();
        let parsed = shill::core::parse_script(&src);
        if parsed.is_ok() {
            let a = eval_fingerprint(true, &src);
            let b = eval_fingerprint(true, &src);
            assert_eq!(a, b, "corpus {path:?} is nondeterministic");
            let c = eval_fingerprint(false, &src);
            assert_eq!(a, c, "corpus {path:?} diverges across cache modes");
        }
    }
}

// =======================================================================
// Layer 3b: span discipline under the standing fault schedules (ISSUE 9).
// =======================================================================

/// With the tracing plane armed on top of the fuzzed workload stream,
/// every `Begin` event still has a matching `End` — under every standing
/// errno schedule and under injected policy panics that unwind mid-batch.
/// The differential identities the plain oracle checks must also hold
/// with tracing on: results match the untraced sequential twin, and
/// `faults_injected == faults_survived` (tracing must not open an escape
/// hatch for a contained panic, nor leak a scope while unwinding).
#[test]
fn fuzzed_workloads_keep_spans_balanced_with_tracing_on() {
    use shill::kernel::{TraceKind, TracePlane, TraceSite};

    let n = iters().min(200);
    let mut all_schedules: Vec<Option<&str>> = SCHEDULES.to_vec();
    // Injected policy panics: the hard case for RAII scope closure.
    all_schedules.push(Some("mac_panic@5=panic;mac_panic@17=panic"));

    for (si, schedule) in all_schedules.iter().enumerate() {
        let mut rng = Rng::new(0x0B5E ^ (si as u64) << 8);
        let probe_fds = {
            let (_, _, _, fds) = standalone_fixture(true, None);
            fds
        };
        let batches: Vec<SyscallBatch> =
            (0..n).map(|_| gen_workload(&mut rng, &probe_fds)).collect();

        // Untraced sequential oracle (contained, since mac_panic unwinds).
        let (mut k_seq, _pol_seq, child_seq, _f) = standalone_fixture(true, *schedule);
        let mut seq_results = Vec::with_capacity(batches.len());
        for b in &batches {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                k_seq
                    .run_sequential(child_seq, b)
                    .map(|out| out.iter().map(fingerprint).collect::<Vec<_>>())
            }));
            match r {
                Ok(out) => seq_results.push(Some(out.expect("sequential"))),
                Err(_) => {
                    if let Some(p) = k_seq.fault_plane() {
                        p.book_survived();
                    }
                    seq_results.push(None);
                }
            }
        }

        // Traced batched twin.
        let (mut k, _policy, child, _fds) = standalone_fixture(true, *schedule);
        k.set_trace_plane(Some(std::sync::Arc::new(TracePlane::new(
            TraceSite::ALL_MASK,
            1 << 17,
        ))));
        for (i, b) in batches.iter().enumerate() {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                k.submit_batch(child, b)
                    .map(|out| out.iter().map(fingerprint).collect::<Vec<_>>())
            }));
            match r {
                Ok(out) => {
                    let got = out.expect("batched");
                    // A batch the sequential twin completed without a
                    // panic must agree with the traced run. Nth-hit panic
                    // schedules are NOT mode-invariant (see fault.rs), so
                    // under mac_panic only balance and containment are
                    // checked — a panic at a different entry leaves
                    // legitimately divergent partial state.
                    let mode_invariant = schedule.is_none_or(|s| !s.contains("mac_panic"));
                    if let (true, Some(want)) = (mode_invariant, &seq_results[i]) {
                        assert_eq!(
                            want, &got,
                            "workload {i} diverged with tracing on (schedule {schedule:?})"
                        );
                    }
                }
                Err(_) => {
                    if let Some(p) = k.fault_plane() {
                        p.book_survived();
                    }
                }
            }
        }

        let tele = k.telemetry();
        assert_eq!(
            tele.stats.trace_dropped, 0,
            "ring overflow voids the balance check (schedule {schedule:?})"
        );
        let mut begins: std::collections::HashMap<&str, i64> = std::collections::HashMap::new();
        for e in &tele.events {
            match e.kind {
                TraceKind::Begin => *begins.entry(e.site.name()).or_default() += 1,
                TraceKind::End => *begins.entry(e.site.name()).or_default() -= 1,
                TraceKind::Instant => {}
            }
        }
        for (site, open) in begins {
            assert_eq!(
                open, 0,
                "site {site}: {open} unmatched span(s) (schedule {schedule:?})"
            );
        }
        assert_eq!(
            tele.stats.faults_injected, tele.stats.faults_survived,
            "a fault escaped containment with tracing on (schedule {schedule:?})"
        );
        if schedule.is_some() {
            assert!(
                tele.stats.faults_injected > 0,
                "schedule {schedule:?} never fired against the traced twin"
            );
        }
    }
}

// =======================================================================
// Layer 4: multi-session server workloads under standing fault schedules
// (ISSUE 10).
// =======================================================================

/// The server-path extension of the differential oracle: generated
/// multi-tenant request streams run through `ServerCore::dispatch` — the
/// same admission/backpressure/quota/scheduler path the socket front-end uses
/// — under standing fault schedules, including the `fence` rendezvous
/// site (exercised by generated `sync` frames, whose waves fence every
/// shard). Meanwhile a revoker thread churns whole sessions
/// (`shill_enter` via `open_session`, reclamation via `close_session`),
/// so privilege labels and cache epochs turn over constantly.
///
/// Oracles, all order-free so thread interleaving cannot weaken them:
///
/// * **No stale allow**: a prober session holds no capability on the
///   victim tenant's subtree, so every cross-tenant probe must answer an
///   error — never data — no matter how many reclaimed sessions held
///   that grant moments earlier.
/// * **Fault accounting balances**: `faults_injected == faults_survived`
///   across every shard when the storm ends — a mid-rendezvous fence
///   panic with all shard locks held is contained by `run_job`,
///   books its survival, and leaves no lock behind (proved by the very
///   next dispatch succeeding).
/// * **Dead-oracle guard**: each armed schedule must actually fire.
#[test]
fn fuzzed_server_sessions_survive_fault_storms_without_stale_allows() {
    use shill::kernel::FaultSite;
    use shill::server::{Request, ServerConfig, ServerCore, StaticTokens, TenantSpec};

    const SCHEDULES4: &[Option<&str>] = &[
        None,
        Some("seed=7;rate=6;sites=namei+fs.read+fs.write"),
        Some("seed=13;rate=4;sites=batch+fence"),
        Some("fence@1=panic;fence@5=panic"),
    ];
    let ops = iters().min(150);

    for (si, schedule) in SCHEDULES4.iter().enumerate() {
        let core = Arc::new(ServerCore::new(
            ServerConfig {
                shards: 3,
                tenants: vec![
                    TenantSpec::new("victim"),
                    TenantSpec::new("p0"),
                    TenantSpec::new("p1"),
                ],
                fault_spec: schedule.map(str::to_string),
                ..Default::default()
            },
            Box::new(StaticTokens::new([
                ("victim", "vs"),
                ("p0", "s0"),
                ("p1", "s1"),
            ])),
        ));

        // Open a session with retries: an injected errno may fail the
        // sandbox choreography itself, which is a refusal, not a crash.
        let open = |core: &ServerCore, tenant: &str, secret: &str| {
            for _ in 0..64 {
                if let Ok(h) = core.open_session(tenant, secret) {
                    return h;
                }
            }
            panic!("session for {tenant} never opened (schedule {schedule:?})");
        };

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        // The revoker: churn enter/reclaim on the victim tenant so its
        // grants are created and scrubbed all storm long.
        let revoker = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut churned = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if let Ok(h) = core.open_session("victim", "vs") {
                        // The reclaimed-in-a-moment session really holds
                        // (and may exercise) the victim grant.
                        let _ = core.dispatch(
                            &h,
                            &Request::Read {
                                path: "/srv/victim/seed.txt".into(),
                            },
                        );
                        core.close_session(h);
                        churned += 1;
                    }
                }
                churned
            })
        };

        // Probers: generated request streams on their own subtree plus
        // cross-tenant probes of the victim's seed file.
        let mut stale_allows = 0usize;
        let mut contained_syncs = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let core = Arc::clone(&core);
                    let tenant = if t % 2 == 0 { "p0" } else { "p1" };
                    let secret = if t % 2 == 0 { "s0" } else { "s1" };
                    scope.spawn(move || {
                        let mut rng = Rng::new(0x5E4 ^ ((si as u64) << 16) ^ (t as u64));
                        let h = open(&core, tenant, secret);
                        let own = format!("/srv/{tenant}/seed.txt");
                        let mut stale = 0usize;
                        let mut contained = 0usize;
                        for i in 0..ops {
                            let req = match rng.next() % 6 {
                                0 => Request::Read { path: own.clone() },
                                1 => Request::Write {
                                    path: format!("/srv/{tenant}/w{t}-{i}.txt"),
                                    data: b"x".repeat(1 + (rng.next() % 32) as usize),
                                },
                                2 => Request::Stat { path: own.clone() },
                                3 => Request::Copy {
                                    src: own.clone(),
                                    dst: format!("/srv/{tenant}/c{t}.txt"),
                                },
                                // Fence coverage: a cross-shard sync wave.
                                4 => Request::Sync,
                                // The stale-allow probe.
                                _ => Request::Read {
                                    path: "/srv/victim/seed.txt".into(),
                                },
                            };
                            let is_probe =
                                matches!(&req, Request::Read { path } if path.starts_with("/srv/victim"));
                            let is_sync = matches!(req, Request::Sync);
                            match core.dispatch(&h, &req) {
                                Ok(_) if is_probe => stale += 1,
                                Err(_) if is_sync => contained += 1,
                                _ => {}
                            }
                        }
                        core.close_session(h);
                        (stale, contained)
                    })
                })
                .collect();
            for h in handles {
                let (stale, contained) = h.join().unwrap();
                stale_allows += stale;
                contained_syncs += contained;
            }
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let churned = revoker.join().unwrap();

        assert_eq!(
            stale_allows, 0,
            "a cross-tenant probe was served (schedule {schedule:?}, {churned} sessions churned)"
        );
        let stats = core.stats();
        assert_eq!(
            stats.faults_injected, stats.faults_survived,
            "fault accounting must balance (schedule {schedule:?})"
        );
        if schedule.is_some() {
            assert!(
                stats.faults_injected > 0,
                "schedule {schedule:?} never fired through the server path"
            );
            assert!(churned > 0, "the revoker never churned a session");
        }
        // The fence schedules must actually kill syncs mid-rendezvous —
        // and the server must keep answering afterwards (no lock left
        // held: the very assertion above required later frames to run).
        if schedule.is_some_and(|s| s.contains("fence")) {
            let fence_hits: u64 = (0..core.shards().count())
                .map(|s| {
                    core.shards().with_shard(s, |k| {
                        k.fault_plane().map_or(0, |p| p.hits(FaultSite::Fence))
                    })
                })
                .sum();
            assert!(
                fence_hits > 0,
                "no sync wave ever consulted the fence site (schedule {schedule:?})"
            );
            assert!(
                contained_syncs > 0,
                "no fence fault was ever contained through dispatch (schedule {schedule:?})"
            );
        }
    }
}

// =======================================================================
// Layer 5: recorded evaluator fingerprints.
// =======================================================================
//
// Layer 2 and the corpus replay compare two runs of one build, so
// they cannot see a change in what the evaluator returns. This layer
// compares against outcomes recorded once, in
// `tests/corpus/eval_fingerprints.txt`, for cap-dialect scripts that stress
// scoping: nested `fun`s whose parameters shadow outer names, `if` and
// `for` blocks that define names, self- and mutually recursive local
// helpers, references before and after a definition, and unbound names.
//
// Every call of a user function passes a fuel argument `k` that only
// decreases (`k - 1` inside a body, a literal 0–3 at top level), and
// every function body guards its calls with `k > 0`, so the call tree of
// a generated script stays small.

/// Cases recorded in the fingerprint file.
const FINGERPRINT_CASES: usize = 300;
/// The layer's own seed: layers 1–4 keep their random streams.
const FINGERPRINT_SEED: u64 = 0x005C_09E5_F1D0;
/// Names used as values; `length` is a builtin and `zz` is never bound.
const SCOPE_VALUES: &[&str] = &["a", "b", "x", "length", "zz"];
/// Names value definitions bind: `length` now and then, `zz` never.
const SCOPE_DEFS: &[&str] = &[
    "a", "b", "x", "a", "b", "x", "a", "b", "x", "a", "b", "length",
];
/// Names that are called.
const SCOPE_FUNS: &[&str] = &["f", "g", "h", "go"];

/// A generator of scoping scripts. `vals` and `funs` hold the names bound
/// where the generator stands (a superset of the pools' bound names is
/// never assumed): most references pick one of those, the rest pick any
/// name of the pool, bound or not, defined earlier or later.
struct ScopeGen {
    rng: Rng,
    vals: Vec<&'static str>,
    funs: Vec<&'static str>,
    in_fun: bool,
}

impl ScopeGen {
    /// A bound name from `bound` most of the time, else any name of
    /// `pool`; `None` when nothing is bound and the dice say so.
    fn name(&mut self, pool: &[&'static str], funs: bool) -> Option<&'static str> {
        let bound = if funs { &self.funs } else { &self.vals };
        match self.rng.below(10) {
            0 => Some(pool[self.rng.below(pool.len())]),
            _ if bound.is_empty() => None,
            _ => Some(bound[self.rng.below(bound.len())]),
        }
    }

    /// The fuel passed by a call: `k - 1` inside a function, else a literal.
    fn fuel(&mut self) -> String {
        if self.in_fun {
            "k - 1".into()
        } else {
            format!("{}", self.rng.below(4))
        }
    }

    fn leaf(&mut self) -> String {
        let name = match self.rng.below(5) {
            0 | 1 => None,
            2 if self.in_fun => Some("k"),
            _ => self.name(SCOPE_VALUES, false),
        };
        match name {
            Some(n) => n.into(),
            None if self.rng.below(4) != 0 => format!("{}", self.rng.below(10)),
            None => format!("\"s{}\"", self.rng.below(4)),
        }
    }

    /// Run `f` in a nested scope: names it binds are forgotten after.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut ScopeGen) -> T) -> T {
        let (v, g, in_fun) = (self.vals.len(), self.funs.len(), self.in_fun);
        let r = f(self);
        self.vals.truncate(v);
        self.funs.truncate(g);
        self.in_fun = in_fun;
        r
    }

    /// A `fun` literal whose body guards every call with its fuel, and
    /// its parameter count.
    fn fun(&mut self, depth: usize) -> (String, usize) {
        self.scoped(|g| {
            g.in_fun = true;
            g.vals.push("k");
            let params = match g.rng.below(8) {
                0..=5 => "k".to_string(),
                6 => {
                    let p = SCOPE_VALUES[g.rng.below(SCOPE_VALUES.len())];
                    g.vals.push(p);
                    format!("k, {p}")
                }
                _ => match g.rng.below(3) {
                    0 => "k, k".to_string(),
                    _ => {
                        let p = SCOPE_FUNS[g.rng.below(SCOPE_FUNS.len())];
                        format!("k, {p}")
                    }
                },
            };
            let body = g.block(depth.saturating_sub(1));
            let leaf = g.leaf();
            let arity = params.split(',').count();
            (
                format!("fun({params}) {{ if k > 0 then {{ {body} }} else {leaf} }}"),
                arity,
            )
        })
    }

    /// The arguments of a call: the fuel, then `arity - 1` expressions.
    fn args(&mut self, arity: usize, depth: usize) -> String {
        let mut a = self.fuel();
        for _ in 1..arity {
            a.push_str(", ");
            a.push_str(&self.expr(depth.saturating_sub(1)));
        }
        a
    }

    /// A call of a named function or, when none is bound, of a literal.
    fn call(&mut self, depth: usize) -> String {
        let arity = if self.rng.below(6) == 0 { 2 } else { 1 };
        match self.name(SCOPE_FUNS, true) {
            Some(f) => format!("{f}({})", self.args(arity, depth)),
            None => {
                let (f, arity) = self.fun(depth.saturating_sub(1));
                format!("{f}({})", self.args(arity, depth))
            }
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 {
            return self.leaf();
        }
        let d = depth - 1;
        match self.rng.below(10) {
            0 if self.rng.flag() => format!("({} + {})", self.expr(d), self.expr(d)),
            0 => format!("({} == {})", self.expr(d), self.expr(d)),
            1 => format!("[{}, {}]", self.expr(d), self.expr(d)),
            2 | 3 => self.call(depth),
            4 => {
                let (f, arity) = self.fun(d);
                format!("{f}({})", self.args(arity, depth))
            }
            5 => {
                let (l, r) = (self.leaf(), self.leaf());
                let then = self.scoped(|g| g.block(d));
                let els = self.scoped(|g| g.block(d));
                format!("if {l} == {r} then {{ {then} }} else {{ {els} }}")
            }
            6 => {
                let (l, r) = (self.leaf(), self.leaf());
                let var = SCOPE_VALUES[self.rng.below(SCOPE_VALUES.len())];
                let body = self.scoped(|g| {
                    g.vals.push(var);
                    g.block(d)
                });
                format!("for {var} in [{l}, {r}] {{ {body} }}")
            }
            7 => format!("to_string({})", self.expr(d)),
            8 => format!("length(to_string({}))", self.expr(d)),
            _ => self.leaf(),
        }
    }

    /// A name to define from `pool`, rerolled twice while already bound,
    /// so most definitions bind a fresh name and some shadow or collide.
    fn def_name(&mut self, pool: &[&'static str]) -> &'static str {
        let mut name = pool[self.rng.below(pool.len())];
        for _ in 0..2 {
            if !self.vals.contains(&name) && !self.funs.contains(&name) {
                break;
            }
            name = pool[self.rng.below(pool.len())];
        }
        name
    }

    /// One statement: a definition (of a value or a function), a
    /// `display`, or an expression statement.
    fn stmt(&mut self, depth: usize) -> String {
        match self.rng.below(6) {
            0 | 1 => {
                let name = self.def_name(SCOPE_FUNS);
                let (rhs, _) = self.fun(depth);
                self.funs.push(name);
                format!("{name} = {rhs};")
            }
            2 | 3 => {
                let name = self.def_name(SCOPE_DEFS);
                let alias = self
                    .name(SCOPE_FUNS, true)
                    .filter(|_| self.rng.below(4) == 0);
                let rhs = if let Some(f) = alias {
                    f.to_string()
                } else {
                    self.expr(depth)
                };
                self.vals.push(name);
                format!("{name} = {rhs};")
            }
            4 => format!("display({});", self.expr(depth)),
            _ => format!("{};", self.expr(depth)),
        }
    }

    /// A block body: a few statements and a trailing expression.
    fn block(&mut self, depth: usize) -> String {
        let mut s = String::new();
        for _ in 0..self.rng.below(3) {
            s.push_str(&self.stmt(depth));
            s.push(' ');
        }
        s.push_str(&self.expr(depth));
        s
    }

    /// A whole cap-dialect script, one top-level statement per line.
    fn script(&mut self) -> String {
        self.vals.clear();
        self.funs.clear();
        let mut s = String::from("#lang shill/cap\n");
        for _ in 0..2 + self.rng.below(4) {
            s.push_str(&self.stmt(2));
            s.push('\n');
        }
        let tail = match self.rng.below(3) {
            0 => self.call(2),
            1 => {
                let e = self.expr(2);
                let f = self.name(SCOPE_FUNS, true).unwrap_or("length");
                format!("to_string([{e}, {f}])")
            }
            _ => self.expr(2),
        };
        s.push_str(&tail);
        s.push('\n');
        s
    }
}

/// One case's outcome on one line: `ok:<value>|out:<output>` or
/// `err:<text>`, with `\` and newlines escaped.
fn recorded_fingerprint(src: &str) -> String {
    let mut rt = ShillRuntime::new(
        script_kernel(true),
        RuntimeConfig::WithPolicy,
        Cred::user(100),
    );
    let fp = match rt.run("fuzz", src) {
        Ok(v) => format!("ok:{}|out:{}", v.display(), rt.output()),
        Err(e) => format!("err:{e}"),
    };
    fp.replace('\\', "\\\\").replace('\n', "\\n")
}

fn fingerprint_cases() -> Vec<(String, String)> {
    let mut gen = ScopeGen {
        rng: Rng::new(FINGERPRINT_SEED),
        vals: Vec::new(),
        funs: Vec::new(),
        in_fun: false,
    };
    (0..FINGERPRINT_CASES)
        .map(|_| {
            let src = gen.script();
            let fp = recorded_fingerprint(&src);
            (src, fp)
        })
        .collect()
}

fn fingerprint_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/eval_fingerprints.txt")
}

#[test]
fn evaluator_matches_recorded_fingerprints() {
    let recorded = std::fs::read_to_string(fingerprint_path()).expect("fingerprint file");
    let lines: Vec<&str> = recorded.lines().collect();
    assert_eq!(lines.len(), FINGERPRINT_CASES, "one line per case");
    let mut diffs = Vec::new();
    for (i, ((src, now), line)) in fingerprint_cases().iter().zip(&lines).enumerate() {
        let want = line
            .strip_prefix(&format!("{i} "))
            .unwrap_or_else(|| panic!("line {i} does not start with its case index: {line}"));
        if now != want {
            diffs.push(format!(
                "case {i}:\n{src}  recorded: {want}\n  now:      {now}"
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {FINGERPRINT_CASES} cases changed outcome:\n\n{}",
        diffs.len(),
        diffs.join("\n\n")
    );
}

/// Rewrites the fingerprint file from the current evaluator. Run it only
/// when a change of outcome is intended:
/// `cargo test --test fuzz_grammar regenerate_eval_fingerprints -- --ignored`.
#[test]
#[ignore]
fn regenerate_eval_fingerprints() {
    let out: String = fingerprint_cases()
        .iter()
        .enumerate()
        .map(|(i, (_, fp))| format!("{i} {fp}\n"))
        .collect();
    std::fs::write(fingerprint_path(), out).expect("write fingerprint file");
}
