//! Batch/sequential equivalence: the property suite for the batched
//! submission path.
//!
//! Acceptance criterion (in the spirit of Smoosh's executable POSIX
//! semantics): `Kernel::submit_batch` must be **observably equivalent** to
//! replaying the same entries one by one through the sequential syscall
//! path — identical per-entry results, identical errnos, and identical MAC
//! audit denial events — in both cache modes. The build environment is
//! offline, so instead of `proptest` this uses the repo's deterministic
//! xorshift generator: random batches over a fixture tree with partial
//! sandbox grants (so denials actually occur), submitted batched on one
//! kernel and sequentially on an identically-constructed twin.

use std::sync::Arc;

use shill::cap::{CapPrivs, Priv, PrivSet};
use shill::kernel::{
    BatchArg, BatchEntry, BatchFd, BatchOut, Fd, Kernel, OpenFlags, Pid, ScheduledRun, SyscallBatch,
};
use shill::prelude::*;
use shill::sandbox::{setup_sandbox, Grant, LogEvent, SandboxSpec, ShillPolicy};
use shill::scenarios::set_scenario_cache_mode;

const CASES: usize = 48;
const ENTRIES_PER_BATCH: usize = 12;

/// Deterministic xorshift64* generator (same idiom as `tests/properties.rs`).
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

/// One sandboxed fixture: a tree with granted, partially-granted, and
/// ungranted regions, plus pre-opened descriptors for fd-based entries.
struct Fixture {
    k: Kernel,
    policy: Arc<ShillPolicy>,
    child: Pid,
    /// Pre-opened descriptors (same numbering in both twins): a readable
    /// granted file, a writable granted file, and the granted directory.
    fds: Vec<Fd>,
}

fn caps(privs: &[Priv]) -> CapPrivs {
    CapPrivs::of(PrivSet::of(privs))
}

fn build_fixture(cached: bool) -> Fixture {
    let mut k = Kernel::new();
    k.set_cache_enabled(cached, cached);
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());

    // Granted region: /data/pub (+lookup propagating read/stat/write).
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
    // Ungranted region: /data/secret.
    k.fs.put_file(
        "/data/secret/key",
        b"hunter2",
        Mode(0o666),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();

    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let data = k.fs.resolve_abs("/data").unwrap();
    let pub_dir = k.fs.resolve_abs("/data/pub").unwrap();

    // Leaf files: full data access. Inner directories: traversal, listing,
    // create/unlink, with leaf privileges propagating through both lookup
    // and create (so files created mid-batch are usable, as `exec` grants
    // would arrange).
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
    let pub_privs = caps(&[
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
            Grant::vnode(pub_dir, pub_privs),
        ],
        ..Default::default()
    };
    let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();

    // Pre-open descriptors inside the sandbox (deterministic numbering).
    let rd = k
        .open(sb.child, "/data/pub/note.txt", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    let wr = k
        .open(sb.child, "/data/pub/inner/f0", OpenFlags::rdwr(), Mode(0))
        .unwrap();
    let dir = k
        .open(sb.child, "/data/pub", OpenFlags::dir(), Mode(0))
        .unwrap();
    Fixture {
        k,
        policy,
        child: sb.child,
        fds: vec![rd, wr, dir],
    }
}

/// Paths the generator draws from: granted, denied, and absent names,
/// sharing dirnames so mutations in one entry affect later walks.
fn arb_path(rng: &mut Rng) -> String {
    const PATHS: &[&str] = &[
        "/data/pub/inner/f0",
        "/data/pub/inner/f1",
        "/data/pub/inner/f2",
        "/data/pub/inner/f3",
        "/data/pub/inner/missing",
        "/data/pub/note.txt",
        "/data/pub/ghost",
        "/data/secret/key",
        "/data/secret/other",
        "/nowhere/at/all",
    ];
    PATHS[rng.below(PATHS.len())].to_string()
}

fn arb_entry(rng: &mut Rng, fds: &[Fd]) -> BatchEntry {
    match rng.below(10) {
        0 => BatchEntry::Stat {
            dirfd: None,
            path: arb_path(rng),
            follow: rng.flag(),
        },
        1 => BatchEntry::ReadFile {
            dirfd: None,
            path: arb_path(rng),
        },
        2 => BatchEntry::Open {
            dirfd: None,
            path: arb_path(rng),
            flags: OpenFlags::RDONLY,
            mode: Mode(0),
        },
        3 => BatchEntry::WriteFile {
            dirfd: None,
            path: format!("/data/pub/inner/w{}", rng.below(3)),
            data: vec![b'x'; 1 + rng.below(64)].into(),
            mode: Mode::FILE_DEFAULT,
            append: rng.flag(),
        },
        4 => BatchEntry::WriteFile {
            // Denied region: creates here produce EACCES in both modes.
            dirfd: None,
            path: format!("/data/secret/w{}", rng.below(2)),
            data: vec![b'y'; 8].into(),
            mode: Mode::FILE_DEFAULT,
            append: false,
        },
        5 => BatchEntry::Unlink {
            dirfd: None,
            path: format!("/data/pub/inner/w{}", rng.below(3)),
            remove_dir: false,
        },
        6 => BatchEntry::Pread {
            fd: fds[0].into(),
            offset: rng.below(8) as u64,
            len: 1 + rng.below(16),
        },
        7 => BatchEntry::Write {
            fd: fds[1].into(),
            data: vec![b'z'; 1 + rng.below(32)].into(),
        },
        8 => BatchEntry::ReadDir { fd: fds[2].into() },
        _ => BatchEntry::Fstat {
            fd: fds[rng.below(3)].into(),
        },
    }
}

fn arb_batch(rng: &mut Rng, fds: &[Fd]) -> SyscallBatch {
    let entries = (0..1 + rng.below(ENTRIES_PER_BATCH))
        .map(|_| arb_entry(rng, fds))
        .collect();
    if rng.flag() {
        SyscallBatch::new(entries)
    } else {
        SyscallBatch::aborting(entries)
    }
}

/// Execute `batch` through the stepped form — one batch-state installation
/// per wave, as `BatchPool` drives it — then audit it and move its
/// slot-ordered results out.
fn run_stepped(
    k: &mut Kernel,
    pid: Pid,
    batch: SyscallBatch,
) -> Vec<Result<BatchOut, shill::vfs::Errno>> {
    let mut run = ScheduledRun::prepare(pid, batch).expect("prepare");
    while k.sched_run_wave(&mut run).expect("wave") {}
    k.sched_audit(&run).expect("audit");
    run.into_results()
}

/// The audit fingerprint compared across modes: every denial, in order.
fn denial_fingerprint(policy: &ShillPolicy) -> Vec<String> {
    policy
        .log_events()
        .iter()
        .filter_map(|e| match e {
            LogEvent::Denied {
                session,
                pid,
                obj,
                needed,
            } => Some(format!("{session:?}/{pid:?}/{obj:?}/{needed:?}")),
            _ => None,
        })
        .collect()
}

/// Compact, comparable form of one entry result.
fn fingerprint(r: &Result<BatchOut, shill::vfs::Errno>) -> String {
    match r {
        Ok(BatchOut::Unit) => "unit".into(),
        Ok(BatchOut::Fd(fd)) => format!("fd:{}", fd.0),
        Ok(BatchOut::Data(d)) => format!("data:{}:{d:?}", d.len()),
        Ok(BatchOut::Written(n)) => format!("written:{n}"),
        Ok(BatchOut::Stat(st)) => format!("stat:{}:{}:{:?}", st.node.0, st.size, st.ftype),
        Ok(BatchOut::Names(ns)) => format!("names:{ns:?}"),
        Err(e) => format!("errno:{e:?}"),
    }
}

fn run_equivalence_cases(cached: bool, seed: u64) {
    set_scenario_cache_mode(cached);
    let mut rng = Rng::new(seed);
    for case in 0..CASES {
        let mut batched = build_fixture(cached);
        let mut sequential = build_fixture(cached);
        assert_eq!(batched.fds, sequential.fds, "twin fixtures diverged");
        // Each case submits several batches against evolving state, so
        // later batches see mutations (and dcache invalidations) from
        // earlier ones.
        for round in 0..3 {
            let batch = arb_batch(&mut rng, &batched.fds);
            let b = batched
                .k
                .submit_batch(batched.child, &batch)
                .expect("submit");
            let s = sequential
                .k
                .run_sequential(sequential.child, &batch)
                .expect("sequential");
            let bf: Vec<String> = b.iter().map(fingerprint).collect();
            let sf: Vec<String> = s.iter().map(fingerprint).collect();
            assert_eq!(
                bf, sf,
                "case {case} round {round} (cached={cached}): results diverged for {batch:?}"
            );
        }
        assert_eq!(
            denial_fingerprint(&batched.policy),
            denial_fingerprint(&sequential.policy),
            "case {case} (cached={cached}): audit denial events diverged"
        );
    }
    set_scenario_cache_mode(true);
}

#[test]
fn random_batches_equivalent_with_caches_on() {
    run_equivalence_cases(true, 0xC0FFEE);
}

#[test]
fn random_batches_equivalent_with_caches_off() {
    run_equivalence_cases(false, 0xC0FFEE);
}

#[test]
fn batched_results_identical_across_cache_modes() {
    // The same batch sequence must also produce identical outcomes whether
    // the dcache/AVC are on or off (composing the PR 1 parity criterion
    // with the batch path).
    let mut rng_on = Rng::new(0xBEEF);
    let mut rng_off = Rng::new(0xBEEF);
    for _ in 0..16 {
        set_scenario_cache_mode(true);
        let mut fon = build_fixture(true);
        set_scenario_cache_mode(false);
        let mut foff = build_fixture(false);
        for _ in 0..3 {
            let batch_on = arb_batch(&mut rng_on, &fon.fds);
            let batch_off = arb_batch(&mut rng_off, &foff.fds);
            assert_eq!(
                batch_on.entries, batch_off.entries,
                "generators in lockstep"
            );
            let on = fon.k.submit_batch(fon.child, &batch_on).unwrap();
            let off = foff.k.submit_batch(foff.child, &batch_off).unwrap();
            let on_f: Vec<String> = on.iter().map(fingerprint).collect();
            let off_f: Vec<String> = off.iter().map(fingerprint).collect();
            assert_eq!(on_f, off_f, "cache mode changed a batched outcome");
        }
        assert_eq!(
            denial_fingerprint(&fon.policy),
            denial_fingerprint(&foff.policy),
            "cache mode changed batched audit denials"
        );
    }
    set_scenario_cache_mode(true);
}

#[test]
fn abort_mode_cancels_exactly_like_sequential_short_circuit() {
    let mut f = build_fixture(true);
    let batch = SyscallBatch::aborting(vec![
        BatchEntry::Stat {
            dirfd: None,
            path: "/data/pub/note.txt".into(),
            follow: true,
        },
        BatchEntry::ReadFile {
            dirfd: None,
            path: "/data/secret/key".into(),
        },
        BatchEntry::Stat {
            dirfd: None,
            path: "/data/pub/note.txt".into(),
            follow: true,
        },
    ]);
    let out = f.k.submit_batch(f.child, &batch).unwrap();
    assert!(out[0].is_ok());
    assert_eq!(out[1], Err(shill::vfs::Errno::EACCES));
    assert_eq!(out[2], Err(shill::vfs::Errno::ECANCELED));
    let mut f2 = build_fixture(true);
    let seq = f2.k.run_sequential(f2.child, &batch).unwrap();
    assert_eq!(
        out.iter().map(fingerprint).collect::<Vec<_>>(),
        seq.iter().map(fingerprint).collect::<Vec<_>>()
    );
}

#[test]
fn abort_cancellations_are_cancellations_not_denials_or_successes() {
    // Regression (ISSUE 3): entries cancelled by `FailMode::Abort` never
    // execute. They must not count in `batch_entries`, must not produce
    // audit denials, and the batch span must book them as cancellations —
    // separate from the one real failure that tripped the abort.
    let mut f = build_fixture(true);
    f.policy.set_log_enabled(true);
    f.k.stats.reset();
    f.policy.clear_log();
    let batch = SyscallBatch::aborting(vec![
        BatchEntry::Stat {
            dirfd: None,
            path: "/data/pub/note.txt".into(),
            follow: true,
        },
        BatchEntry::ReadFile {
            dirfd: None,
            path: "/data/secret/key".into(), // denied: trips the abort
        },
        BatchEntry::Stat {
            dirfd: None,
            path: "/data/pub/note.txt".into(),
            follow: true,
        },
        BatchEntry::WriteFile {
            dirfd: None,
            path: "/data/pub/inner/wx".into(),
            data: b"never".to_vec().into(),
            mode: Mode::FILE_DEFAULT,
            append: false,
        },
    ]);
    let out = f.k.submit_batch(f.child, &batch).unwrap();
    assert!(out[0].is_ok());
    assert_eq!(out[1], Err(shill::vfs::Errno::EACCES));
    assert_eq!(out[2], Err(shill::vfs::Errno::ECANCELED));
    assert_eq!(out[3], Err(shill::vfs::Errno::ECANCELED));

    let snap = f.k.stats.snapshot();
    assert_eq!(snap.batches, 1);
    assert_eq!(
        snap.batch_entries, 2,
        "only executed entries count; cancelled ones never ran"
    );

    // The cancelled WriteFile must not have executed: no file created.
    assert!(f
        .k
        .fstatat(f.child, None, "/data/pub/inner/wx", true)
        .is_err());

    // Exactly one audit denial (the read of /data/secret/key); the
    // cancelled entries produced none.
    assert_eq!(denial_fingerprint(&f.policy).len(), 1);

    let events = f.policy.log_events();
    let span = events
        .iter()
        .find(|e| matches!(e, LogEvent::BatchSpan { .. }))
        .expect("one span per batch");
    let LogEvent::BatchSpan {
        entries,
        executed,
        failed,
        cancelled,
        outcomes,
        ..
    } = span
    else {
        unreachable!()
    };
    assert_eq!(*entries, 4);
    assert_eq!(*executed, 2, "entries - cancellations");
    assert_eq!(*failed, 1, "only the real EACCES is a failure");
    assert_eq!(*cancelled, 2);
    assert_eq!(outcomes[2], Some(shill::vfs::Errno::ECANCELED));
}

#[test]
fn batched_and_sequential_stats_are_in_parity() {
    // ISSUE 3 satellite: beyond identical results and audit events, the
    // observability counters must agree between `submit_batch` and
    // `run_sequential` twins. Documented exceptions: `charge_calls` and
    // `mac_ctx_setups` (the amortizations are the batch path's point) and
    // the `batches`/`batch_entries` counters (sequential execution has no
    // batch bookkeeping). Both forms take the same path walk, so `lookups`,
    // the cache hit/miss counters, and policy-reaching check counts all
    // line up.
    for cached in [true, false] {
        set_scenario_cache_mode(cached);
        let mut rng = Rng::new(0xFEED_FACE);
        for case in 0..12 {
            let mut batched = build_fixture(cached);
            let mut sequential = build_fixture(cached);
            batched.k.stats.reset();
            sequential.k.stats.reset();
            for _ in 0..3 {
                let batch = arb_batch(&mut rng, &batched.fds);
                batched.k.submit_batch(batched.child, &batch).expect("b");
                sequential
                    .k
                    .run_sequential(sequential.child, &batch)
                    .expect("s");
            }
            let b = batched.k.stats.snapshot();
            let s = sequential.k.stats.snapshot();
            let ctxt = format!("case {case} cached={cached}");
            assert_eq!(b.syscalls, s.syscalls, "{ctxt}: syscalls");
            assert_eq!(b.lookups, s.lookups, "{ctxt}: lookups");
            assert_eq!(
                b.mac_vnode_checks, s.mac_vnode_checks,
                "{ctxt}: policy-reaching vnode checks"
            );
            assert_eq!(b.dcache_hits, s.dcache_hits, "{ctxt}: dcache hits");
            assert_eq!(b.dcache_misses, s.dcache_misses, "{ctxt}: dcache misses");
            assert_eq!(b.dcache_neg_hits, s.dcache_neg_hits, "{ctxt}: neg hits");
            assert_eq!(b.dir_scans, s.dir_scans, "{ctxt}: dir scans");
            assert_eq!(b.avc_hits, s.avc_hits, "{ctxt}: avc hits");
            assert_eq!(b.avc_misses, s.avc_misses, "{ctxt}: avc misses");
            assert_eq!(
                b.mac_other_checks, s.mac_other_checks,
                "{ctxt}: other checks"
            );
        }
    }
    set_scenario_cache_mode(true);
}

#[test]
fn batch_audit_span_records_per_entry_outcomes() {
    let mut f = build_fixture(true);
    f.policy.set_log_enabled(true);
    let batch = SyscallBatch::new(vec![
        BatchEntry::Stat {
            dirfd: None,
            path: "/data/pub/note.txt".into(),
            follow: true,
        },
        BatchEntry::ReadFile {
            dirfd: None,
            path: "/data/secret/key".into(),
        },
    ]);
    f.k.submit_batch(f.child, &batch).unwrap();
    let events = f.policy.log_events();
    let span = events
        .iter()
        .find(|e| matches!(e, LogEvent::BatchSpan { .. }))
        .expect("one span per batch");
    let LogEvent::BatchSpan {
        entries,
        failed,
        outcomes,
        ..
    } = span
    else {
        unreachable!()
    };
    assert_eq!(*entries, 2);
    assert_eq!(*failed, 1);
    assert_eq!(outcomes[0], None);
    assert_eq!(outcomes[1], Some(shill::vfs::Errno::EACCES));
    // The denial inside the batch is still individually logged.
    assert_eq!(denial_fingerprint(&f.policy).len(), 1);
}

// ===================================================================
// ISSUE 4: the batch scheduler (out-of-order wave execution) must be
// observationally equivalent to `run_sequential` — results, errnos, audit
// denials, and stats counters — under both flat batches and random
// dependency DAGs, in both cache modes.
// ===================================================================

/// Flat batches (the PR 2/3 generator) through the stepped per-wave form:
/// no declared edges, so the scheduler runs them in index order —
/// equivalence must be *exact*, including denial order and the full
/// stats-parity counter list.
#[test]
fn scheduled_flat_batches_equivalent_to_sequential() {
    for cached in [true, false] {
        set_scenario_cache_mode(cached);
        let mut rng = Rng::new(0x05EE_DDA6);
        for case in 0..16 {
            let mut scheduled = build_fixture(cached);
            let mut sequential = build_fixture(cached);
            scheduled.k.stats.reset();
            sequential.k.stats.reset();
            for round in 0..3 {
                let batch = arb_batch(&mut rng, &scheduled.fds);
                let sch = run_stepped(&mut scheduled.k, scheduled.child, batch.clone());
                let seq = sequential
                    .k
                    .run_sequential(sequential.child, &batch)
                    .expect("sequential");
                assert_eq!(
                    sch.iter().map(fingerprint).collect::<Vec<_>>(),
                    seq.iter().map(fingerprint).collect::<Vec<_>>(),
                    "case {case} round {round} (cached={cached}): flat scheduled diverged"
                );
            }
            assert_eq!(
                denial_fingerprint(&scheduled.policy),
                denial_fingerprint(&sequential.policy),
                "case {case} (cached={cached}): flat scheduled denial order diverged"
            );
            let b = scheduled.k.stats.snapshot();
            let s = sequential.k.stats.snapshot();
            let ctxt = format!("flat case {case} cached={cached}");
            assert_eq!(b.syscalls, s.syscalls, "{ctxt}: syscalls");
            assert_eq!(b.lookups, s.lookups, "{ctxt}: lookups");
            assert_eq!(b.mac_vnode_checks, s.mac_vnode_checks, "{ctxt}: checks");
            assert_eq!(b.dcache_hits, s.dcache_hits, "{ctxt}: dcache hits");
            assert_eq!(b.avc_hits, s.avc_hits, "{ctxt}: avc hits");
        }
    }
    set_scenario_cache_mode(true);
}

/// Random dependency-DAG generator. Conflicting entries are ordered by the
/// DAG (the io_uring contract the scheduler documents): entries touching
/// the fd table (Open/Close) form one chain, entries using the same
/// in-batch descriptor form a chain per descriptor, and namespace/content
/// mutations are full barriers. Read-only entries between barriers reorder
/// freely — that is where the out-of-order execution happens.
struct DagBuilder {
    batch: SyscallBatch,
    /// Slots of `Open` entries whose fd is still referencable.
    open_slots: Vec<usize>,
    /// Slots producing data (for `OutputOf` references).
    data_slots: Vec<usize>,
    /// Last fd-table mutation (Open/Close chain).
    last_fd_op: Option<usize>,
    /// Last user of each in-batch descriptor (keyed by producer slot).
    last_fd_use: std::collections::HashMap<usize, usize>,
    /// Last full barrier (namespace/content mutation).
    last_barrier: Option<usize>,
    /// Entries since the last barrier (the next barrier depends on all).
    since_barrier: Vec<usize>,
}

impl DagBuilder {
    fn new(fail_mode: shill::kernel::FailMode) -> DagBuilder {
        DagBuilder {
            batch: SyscallBatch {
                entries: Vec::new(),
                fail_mode,
                deps: Vec::new(),
            },
            open_slots: Vec::new(),
            data_slots: Vec::new(),
            last_fd_op: None,
            last_fd_use: std::collections::HashMap::new(),
            last_barrier: None,
            since_barrier: Vec::new(),
        }
    }

    fn dep(&mut self, slot: usize, on: Option<usize>) {
        if let Some(on) = on {
            if on < slot {
                self.batch.deps.push((slot, on));
            }
        }
    }

    /// A read-only entry: ordered only after the last barrier.
    fn read_only(&mut self, e: BatchEntry) -> usize {
        let produces_data = e.produces_data_for_test();
        let slot = self.batch.push(e);
        self.dep(slot, self.last_barrier);
        self.since_barrier.push(slot);
        if produces_data {
            self.data_slots.push(slot);
        }
        slot
    }

    /// A namespace/content mutation: a full barrier (depends on everything
    /// since the previous barrier; everything after depends on it).
    fn barrier(&mut self, e: BatchEntry) -> usize {
        let slot = self.batch.push(e);
        let prior: Vec<usize> = self.since_barrier.drain(..).collect();
        for j in prior {
            self.dep(slot, Some(j));
        }
        self.dep(slot, self.last_barrier);
        self.last_barrier = Some(slot);
        slot
    }

    /// An fd-table mutation (Open/Close): chained with other fd-table
    /// mutations so descriptor numbering matches index order.
    fn fd_table_op(&mut self, e: BatchEntry) -> usize {
        let slot = self.read_only(e);
        self.dep(slot, self.last_fd_op);
        self.last_fd_op = Some(slot);
        slot
    }

    /// An entry using the descriptor produced by `producer`: chained with
    /// that descriptor's previous user (offsets are shared state).
    fn uses_fd(&mut self, slot: usize, producer: usize) {
        let prev = self.last_fd_use.insert(producer, slot);
        self.dep(slot, prev);
    }
}

/// Helper exposed for the generator (mirrors the kernel's internal
/// classification of data-producing entries).
trait ProducesData {
    fn produces_data_for_test(&self) -> bool;
}

impl ProducesData for BatchEntry {
    fn produces_data_for_test(&self) -> bool {
        matches!(
            self,
            BatchEntry::Read { .. }
                | BatchEntry::Pread { .. }
                | BatchEntry::Readv { .. }
                | BatchEntry::Preadv { .. }
                | BatchEntry::ReadFile { .. }
        )
    }
}

fn arb_dag_batch(rng: &mut Rng, fds: &[Fd]) -> SyscallBatch {
    let fail_mode = if rng.flag() {
        shill::kernel::FailMode::Continue
    } else {
        shill::kernel::FailMode::Abort
    };
    let mut b = DagBuilder::new(fail_mode);
    for _ in 0..2 + rng.below(ENTRIES_PER_BATCH) {
        match rng.below(12) {
            0 | 1 => {
                b.read_only(BatchEntry::Stat {
                    dirfd: None,
                    path: arb_path(rng),
                    follow: rng.flag(),
                });
            }
            2 | 3 => {
                b.read_only(BatchEntry::ReadFile {
                    dirfd: None,
                    path: arb_path(rng),
                });
            }
            4 => {
                let slot = b.fd_table_op(BatchEntry::Open {
                    dirfd: None,
                    path: arb_path(rng),
                    flags: OpenFlags::RDONLY,
                    mode: Mode(0),
                });
                b.open_slots.push(slot);
            }
            5 | 6 if !b.open_slots.is_empty() => {
                // Read through an in-batch descriptor (moves its offset:
                // chained per descriptor). The open may have failed (denied
                // path) — then this slot is poisoned, in both modes.
                let producer = b.open_slots[rng.below(b.open_slots.len())];
                let slot = b.read_only(BatchEntry::Read {
                    fd: BatchFd::FromEntry(producer),
                    len: 1 + rng.below(24),
                });
                b.uses_fd(slot, producer);
                b.data_slots.push(slot);
            }
            7 if !b.open_slots.is_empty() => {
                let idx = rng.below(b.open_slots.len());
                let producer = b.open_slots.swap_remove(idx);
                let slot = b.fd_table_op(BatchEntry::Close {
                    fd: BatchFd::FromEntry(producer),
                });
                b.uses_fd(slot, producer);
            }
            8 => {
                b.read_only(BatchEntry::Pread {
                    fd: fds[0].into(),
                    offset: rng.below(8) as u64,
                    len: 1 + rng.below(16),
                });
            }
            9 => {
                // Content mutation through a fixture descriptor: barrier
                // (paths may read the same file).
                b.barrier(BatchEntry::Write {
                    fd: fds[1].into(),
                    data: vec![b'z'; 1 + rng.below(24)].into(),
                });
            }
            10 => {
                // Create/overwrite, possibly consuming earlier read data
                // through a slot reference. Namespace mutation: barrier.
                let data: BatchArg = if !b.data_slots.is_empty() && rng.flag() {
                    BatchArg::OutputOf(b.data_slots[rng.below(b.data_slots.len())])
                } else {
                    vec![b'x'; 1 + rng.below(48)].into()
                };
                b.barrier(BatchEntry::WriteFile {
                    dirfd: None,
                    path: format!("/data/pub/inner/w{}", rng.below(3)),
                    data,
                    mode: Mode::FILE_DEFAULT,
                    append: rng.flag(),
                });
            }
            _ => {
                b.barrier(BatchEntry::Unlink {
                    dirfd: None,
                    path: format!("/data/pub/inner/w{}", rng.below(3)),
                    remove_dir: false,
                });
            }
        }
    }
    b.batch
}

/// The DAG property suite (ISSUE 4 acceptance): scheduled out-of-order
/// execution vs the sequential oracle on random dependency DAGs, in both
/// cache modes — identical per-slot results, identical denial *sets* (the
/// order of independent entries' denials is legitimately schedule-
/// dependent), and identical cache/check counters.
#[test]
fn random_dags_scheduled_equivalent_to_sequential() {
    let mut total_reorders = 0u64;
    for cached in [true, false] {
        set_scenario_cache_mode(cached);
        let mut rng = Rng::new(0xDA6_5EED);
        for case in 0..24 {
            let mut scheduled = build_fixture(cached);
            let mut sequential = build_fixture(cached);
            scheduled.k.stats.reset();
            sequential.k.stats.reset();
            let (mut expected_executed, mut expected_cancelled) = (0u64, 0u64);
            for round in 0..3 {
                let batch = arb_dag_batch(&mut rng, &scheduled.fds);
                let sch = scheduled
                    .k
                    .submit_batch(scheduled.child, &batch)
                    .expect("scheduled");
                let seq = sequential
                    .k
                    .run_sequential(sequential.child, &batch)
                    .expect("sequential");
                // Descriptor *numbers* are compared modulo renaming: the
                // fd allocator is a monotonic counter, so an `Open`'s
                // number shifts with execution order (transient fused
                // opens allocate too). Nothing else observable depends on
                // it — in-batch consumers use slot references.
                let fp = |r: &Result<BatchOut, shill::vfs::Errno>| match r {
                    Ok(BatchOut::Fd(_)) => "fd".to_string(),
                    other => fingerprint(other),
                };
                assert_eq!(
                    sch.iter().map(fp).collect::<Vec<_>>(),
                    seq.iter().map(fp).collect::<Vec<_>>(),
                    "case {case} round {round} (cached={cached}): DAG scheduled \
                     diverged for {batch:?}"
                );
                for r in &sch {
                    if *r == Err(shill::vfs::Errno::ECANCELED) {
                        expected_cancelled += 1;
                    } else {
                        expected_executed += 1;
                    }
                }
            }
            let mut sch_denials = denial_fingerprint(&scheduled.policy);
            let mut seq_denials = denial_fingerprint(&sequential.policy);
            sch_denials.sort();
            seq_denials.sort();
            assert_eq!(
                sch_denials, seq_denials,
                "case {case} (cached={cached}): DAG denial sets diverged"
            );
            let b = scheduled.k.stats.snapshot();
            let s = sequential.k.stats.snapshot();
            let ctxt = format!("DAG case {case} cached={cached}");
            assert_eq!(b.syscalls, s.syscalls, "{ctxt}: syscalls");
            assert_eq!(b.lookups, s.lookups, "{ctxt}: lookups");
            assert_eq!(
                b.mac_vnode_checks, s.mac_vnode_checks,
                "{ctxt}: policy-reaching vnode checks"
            );
            assert_eq!(b.dcache_hits, s.dcache_hits, "{ctxt}: dcache hits");
            assert_eq!(b.dcache_misses, s.dcache_misses, "{ctxt}: dcache misses");
            assert_eq!(b.dcache_neg_hits, s.dcache_neg_hits, "{ctxt}: neg hits");
            assert_eq!(b.dir_scans, s.dir_scans, "{ctxt}: dir scans");
            assert_eq!(b.avc_hits, s.avc_hits, "{ctxt}: avc hits");
            assert_eq!(b.avc_misses, s.avc_misses, "{ctxt}: avc misses");
            assert_eq!(b.slot_links, s.slot_links, "{ctxt}: slot links");
            // Cancelled slots never count as executed; the cone counter
            // books exactly the ECANCELED slots.
            assert_eq!(b.batch_entries, expected_executed, "{ctxt}: executed");
            assert_eq!(
                b.sched_cancelled_cone, expected_cancelled,
                "{ctxt}: cancellations"
            );
            total_reorders += b.sched_reorders;
        }
    }
    assert!(
        total_reorders > 0,
        "the DAG suite must actually exercise out-of-order execution"
    );
    set_scenario_cache_mode(true);
}

/// ISSUE 4 acceptance: a copy pipeline — open→read→write→close — completes
/// in ONE submission via slot references, with the read's bytes flowing to
/// the write in-kernel.
#[test]
fn copy_pipeline_completes_in_one_submission() {
    let mut f = build_fixture(true);
    f.k.stats.reset();
    let batch = SyscallBatch::aborting(vec![
        BatchEntry::Open {
            dirfd: None,
            path: "/data/pub/note.txt".into(),
            flags: OpenFlags::RDONLY,
            mode: Mode(0),
        },
        BatchEntry::Read {
            fd: BatchFd::FromEntry(0),
            len: 4096,
        },
        BatchEntry::WriteFile {
            dirfd: None,
            path: "/data/pub/inner/note-copy".into(),
            data: BatchArg::OutputOf(1),
            mode: Mode::FILE_DEFAULT,
            append: false,
        },
        BatchEntry::Close {
            fd: BatchFd::FromEntry(0),
        },
    ])
    .after(3, 1);
    let out = f.k.submit_batch(f.child, &batch).unwrap();
    assert!(out.iter().all(|r| r.is_ok()), "{out:?}");
    let st = f.k.stats.snapshot();
    assert_eq!(st.batches, 1, "one kernel submission for the whole copy");
    assert_eq!(st.slot_links, 3, "fd→read, fd→close, data→write");
    assert!(st.sched_waves >= 3, "pipeline executed as dependency waves");
    let copied =
        f.k.submit_single(
            f.child,
            BatchEntry::ReadFile {
                dirfd: None,
                path: "/data/pub/inner/note-copy".into(),
            },
        )
        .unwrap();
    assert_eq!(copied, BatchOut::Data(b"note".to_vec()));
}

/// ISSUE 4 satellite: `ECANCELED` slots carry identical `BatchSpan`
/// accounting (executed/failed/cancelled, per-entry outcomes, per-wave
/// split) and `batch_entries` semantics in both scheduled forms — span
/// parity between a one-shot `submit_batch` and its stepped per-wave twin.
#[test]
fn scheduled_and_in_order_spans_are_in_parity() {
    let make_batch = || {
        // Failing read (denied) with a data dependent and a transitive
        // dependent; an independent stat survives the abort.
        SyscallBatch::aborting(vec![
            BatchEntry::ReadFile {
                dirfd: None,
                path: "/data/secret/key".into(), // denied: EACCES
            },
            BatchEntry::WriteFile {
                dirfd: None,
                path: "/data/pub/inner/never".into(),
                data: BatchArg::OutputOf(0),
                mode: Mode::FILE_DEFAULT,
                append: false,
            },
            BatchEntry::Stat {
                dirfd: None,
                path: "/data/pub/inner/never".into(),
                follow: true,
            },
            BatchEntry::Stat {
                dirfd: None,
                path: "/data/pub/note.txt".into(),
                follow: true,
            },
        ])
        .after(2, 1)
    };
    let span_of = |policy: &ShillPolicy| -> LogEvent {
        policy
            .log_events()
            .iter()
            .find(|e| matches!(e, LogEvent::BatchSpan { .. }))
            .expect("span present")
            .clone()
    };

    let mut one_shot = build_fixture(true);
    one_shot.policy.set_log_enabled(true);
    one_shot.k.stats.reset();
    let a = one_shot
        .k
        .submit_batch(one_shot.child, &make_batch())
        .unwrap();

    let mut stepped = build_fixture(true);
    stepped.policy.set_log_enabled(true);
    stepped.k.stats.reset();
    let b = run_stepped(&mut stepped.k, stepped.child, make_batch());
    assert_eq!(a, b, "results identical across execution strategies");
    assert_eq!(a[1], Err(shill::vfs::Errno::ECANCELED));
    assert_eq!(a[2], Err(shill::vfs::Errno::ECANCELED), "transitive cone");
    assert!(a[3].is_ok(), "independent entry survives");

    let span_a = span_of(&one_shot.policy);
    let span_b = span_of(&stepped.policy);
    let (LogEvent::BatchSpan { session: sa, .. }, LogEvent::BatchSpan { session: sb, .. }) =
        (&span_a, &span_b)
    else {
        unreachable!()
    };
    assert_eq!(sa, sb, "twin sessions line up");
    assert_eq!(span_a, span_b, "identical spans, per-wave split included");
    let LogEvent::BatchSpan {
        executed,
        failed,
        cancelled,
        waves,
        ..
    } = span_a
    else {
        unreachable!()
    };
    assert_eq!(executed, 2);
    assert_eq!(failed, 1, "only the denied read is a failure");
    assert_eq!(cancelled, 2, "the cone, not every later entry");
    assert_eq!(waves.len(), 3, "read+stat wave, write wave, stat wave");
    assert_eq!(
        one_shot.k.stats.snapshot().batch_entries,
        stepped.k.stats.snapshot().batch_entries,
        "cancelled entries never count as executed in either strategy"
    );
}
