//! Invalidation-correctness tests for the resolution fast path: the
//! directory-entry cache (dcache) and the MAC access-vector cache (AVC).
//!
//! The security property under test: enabling the caches must never change
//! the *outcome* of any operation — only how much work it takes.

use std::collections::HashSet;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shill_kernel::{
    Kernel, MacCtx, MacPolicy, NullPolicy, OpenFlags, Pid, VnodeOp, SYSCTL_AVC, SYSCTL_DCACHE,
};
use shill_vfs::{Cred, Errno, Gid, Mode, NodeId, SysResult, Uid};

fn setup() -> (Kernel, Pid) {
    let mut k = Kernel::new();
    let pid = k.spawn_user(Cred::ROOT);
    (k, pid)
}

// --- dcache invalidation ----------------------------------------------------

#[test]
fn unlink_invalidates_dcache_entry() {
    let (mut k, pid) = setup();
    k.fs.put_file("/a/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    // Warm the cache.
    let st1 = k.fstatat(pid, None, "/a/f", true).unwrap();
    k.unlinkat(pid, None, "/a/f", false).unwrap();
    assert_eq!(
        k.fstatat(pid, None, "/a/f", true).unwrap_err(),
        Errno::ENOENT
    );
    // Re-create under the same name: the walker must see the *new* node.
    k.fs.put_file("/a/f", b"y", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let st2 = k.fstatat(pid, None, "/a/f", true).unwrap();
    assert_ne!(
        st1.node, st2.node,
        "stale dcache entry resolved to the old node"
    );
}

#[test]
fn rename_invalidates_both_directories() {
    let (mut k, pid) = setup();
    k.fs.put_file("/src/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.fs.mkdir_p("/dst", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let before = k.fstatat(pid, None, "/src/f", true).unwrap();
    k.renameat(pid, None, "/src/f", None, "/dst/g").unwrap();
    assert_eq!(
        k.fstatat(pid, None, "/src/f", true).unwrap_err(),
        Errno::ENOENT
    );
    let after = k.fstatat(pid, None, "/dst/g", true).unwrap();
    assert_eq!(before.node, after.node);
    // A different file renamed over a warm destination entry must win.
    k.fs.put_file("/src/h", b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let h = k.fstatat(pid, None, "/src/h", true).unwrap();
    k.renameat(pid, None, "/src/h", None, "/dst/g").unwrap();
    assert_eq!(k.fstatat(pid, None, "/dst/g", true).unwrap().node, h.node);
}

#[test]
fn rmdir_invalidates_dcache_entry() {
    let (mut k, pid) = setup();
    k.fs.mkdir_p("/top/sub", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.fstatat(pid, None, "/top/sub", true).unwrap(); // warm
    k.unlinkat(pid, None, "/top/sub", true).unwrap();
    assert_eq!(
        k.fstatat(pid, None, "/top/sub", true).unwrap_err(),
        Errno::ENOENT
    );
    // Recreate: fresh node, fresh entry.
    k.fs.mkdir_p("/top/sub", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
        .unwrap();
    assert!(k.fstatat(pid, None, "/top/sub", true).is_ok());
}

#[test]
fn symlink_creation_invalidates_parent() {
    let (mut k, pid) = setup();
    k.fs.put_file("/real", b"r", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    assert_eq!(
        k.fstatat(pid, None, "/tmp/link", true).unwrap_err(),
        Errno::ENOENT
    );
    k.symlinkat(pid, "/real", None, "/tmp/link").unwrap();
    assert!(k.fstatat(pid, None, "/tmp/link", true).is_ok());
}

#[test]
fn dcache_counters_move_and_sysctl_toggles() {
    let (mut k, pid) = setup();
    k.fs.put_file("/w/x/y/leaf", b"d", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.stats.reset();
    for _ in 0..10 {
        k.fstatat(pid, None, "/w/x/y/leaf", true).unwrap();
    }
    let warm = k.stats.snapshot();
    assert!(warm.dcache_hits > 0, "repeated walks must hit the dcache");
    assert!(
        warm.dir_scans < warm.lookups,
        "directory scans ({}) should be fewer than components walked ({})",
        warm.dir_scans,
        warm.lookups
    );
    // Toggle off via sysctl: every component scans again.
    k.sysctl_write(pid, SYSCTL_DCACHE, "0").unwrap();
    k.stats.reset();
    for _ in 0..10 {
        k.fstatat(pid, None, "/w/x/y/leaf", true).unwrap();
    }
    let cold = k.stats.snapshot();
    assert_eq!(cold.dcache_hits, 0);
    assert_eq!(cold.dir_scans, cold.lookups);
    assert!(!k.cache_enabled().0);
    k.sysctl_write(pid, SYSCTL_DCACHE, "1").unwrap();
    assert!(k.cache_enabled().0);
}

// --- symlink hop limit is cache-invariant ------------------------------------

fn symlink_outcomes(k: &mut Kernel, pid: Pid) -> Vec<Result<Vec<u8>, Errno>> {
    let mut out = Vec::new();
    // A loop must ELOOP; a long-but-legal chain must resolve.
    out.push(
        k.open(pid, "/loop/a", OpenFlags::RDONLY, Mode(0))
            .and_then(|fd| {
                let r = k.read(pid, fd, 16);
                let _ = k.close(pid, fd);
                r
            }),
    );
    out.push(
        k.open(pid, "/chain/l0", OpenFlags::RDONLY, Mode(0))
            .and_then(|fd| {
                let r = k.read(pid, fd, 16);
                let _ = k.close(pid, fd);
                r
            }),
    );
    out.push(
        k.open(pid, "/deep33", OpenFlags::RDONLY, Mode(0))
            .and_then(|fd| {
                let r = k.read(pid, fd, 16);
                let _ = k.close(pid, fd);
                r
            }),
    );
    out
}

/// Build: a two-link loop, a 20-hop chain to a real file, and a 33-hop chain
/// that exceeds MAX_SYMLINK_HOPS (32).
fn build_symlink_workload(k: &mut Kernel, pid: Pid) {
    k.fs.mkdir_p("/loop", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.symlinkat(pid, "/loop/b", None, "/loop/a").unwrap();
    k.symlinkat(pid, "/loop/a", None, "/loop/b").unwrap();
    k.fs.mkdir_p("/chain", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.fs.put_file(
        "/chain/target",
        b"chained",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    for i in (0..20).rev() {
        let next = if i == 19 {
            "/chain/target".to_string()
        } else {
            format!("/chain/l{}", i + 1)
        };
        k.symlinkat(pid, &next, None, &format!("/chain/l{i}"))
            .unwrap();
    }
    // 33 hops: d0 → d1 → ... → d33 (file); traversal needs 33 link reads.
    k.fs.put_file("/d33", b"too deep", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    for i in (0..33).rev() {
        let next = if i == 32 {
            "/d33".to_string()
        } else {
            format!("/d{}", i + 1)
        };
        k.symlinkat(pid, &next, None, &format!("/d{i}")).unwrap();
    }
    // Entry point named distinctly from the numbered chain.
    k.symlinkat(pid, "/d0", None, "/deep33").unwrap();
}

#[test]
fn symlink_hop_limit_identical_with_and_without_caches() {
    let (mut k, pid) = setup();
    build_symlink_workload(&mut k, pid);

    k.set_cache_enabled(true, true);
    let cached_cold = symlink_outcomes(&mut k, pid);
    let cached_warm = symlink_outcomes(&mut k, pid); // warm dcache this time
    k.set_cache_enabled(false, false);
    let uncached = symlink_outcomes(&mut k, pid);

    assert_eq!(
        cached_cold, uncached,
        "cold cached run diverged from uncached"
    );
    assert_eq!(
        cached_warm, uncached,
        "warm cached run diverged from uncached"
    );
    assert_eq!(
        uncached[0],
        Err(Errno::ELOOP),
        "loop must ELOOP in all modes"
    );
    assert_eq!(uncached[1], Ok(b"chained".to_vec()));
    assert_eq!(
        uncached[2],
        Err(Errno::ELOOP),
        "34 hops exceed the 32-hop budget"
    );
}

// --- AVC ---------------------------------------------------------------------

/// A cacheable test policy with an explicit deny set and a manually bumped
/// epoch — lets us exercise the kernel/policy epoch protocol without the
/// full SHILL sandbox. Genuinely `Sync` (lock + atomic): kernels are shared
/// across session threads now.
#[derive(Default)]
struct TogglePolicy {
    denied: shill_vfs::sync::Mutex<HashSet<NodeId>>,
    epoch: std::sync::atomic::AtomicU64,
}

impl TogglePolicy {
    fn deny(&self, node: NodeId) {
        self.denied.lock().insert(node);
        // Authority shrank: honor the cache-epoch contract.
        self.epoch
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn allow(&self, node: NodeId) {
        // Authority only grows: no bump required.
        self.denied.lock().remove(&node);
    }
}

impl MacPolicy for TogglePolicy {
    fn name(&self) -> &str {
        "toggle"
    }

    fn decisions_cacheable(&self) -> bool {
        true
    }

    fn cache_epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn vnode_check(&self, _ctx: MacCtx, node: NodeId, _op: &VnodeOp<'_>) -> SysResult<()> {
        if self.denied.lock().contains(&node) {
            Err(Errno::EACCES)
        } else {
            Ok(())
        }
    }
}

#[test]
fn avc_caches_allows_and_respects_policy_epoch() {
    let (mut k, pid) = setup();
    k.fs.put_file("/data/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let node = k.fs.resolve_abs("/data/f").unwrap();
    let policy = Arc::new(TogglePolicy::default());
    k.register_policy(policy.clone());

    k.stats.reset();
    let fd = k.open(pid, "/data/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    for _ in 0..20 {
        k.read(pid, fd, 1).unwrap();
    }
    let warm = k.stats.snapshot();
    assert!(
        warm.avc_hits >= 19,
        "repeat reads must be AVC hits, got {}",
        warm.avc_hits
    );

    // Revoke: the policy denies the node and bumps its epoch; the very next
    // read must reach the policy and fail despite the warm cache.
    policy.deny(node);
    assert_eq!(k.read(pid, fd, 1).unwrap_err(), Errno::EACCES);

    // Re-allow (monotone growth, no bump needed): works again.
    policy.allow(node);
    assert!(k.read(pid, fd, 1).is_ok());
}

/// A label-scoped policy that counts the vnode checks and lookup
/// notifications reaching it.
#[derive(Default)]
struct ScopedCounter {
    checks: AtomicU64,
    lookups: AtomicU64,
}

impl MacPolicy for ScopedCounter {
    fn name(&self) -> &str {
        "scoped"
    }

    fn decisions_cacheable(&self) -> bool {
        true
    }

    fn label_scoped(&self) -> bool {
        true
    }

    fn vnode_check(&self, _ctx: MacCtx, _node: NodeId, _op: &VnodeOp<'_>) -> SysResult<()> {
        self.checks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn vnode_post_lookup(&self, _ctx: MacCtx, _dir: NodeId, _name: &str, _child: NodeId) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn label_scoped_stack_skips_unlabelled_subjects_and_unscoped_policies_still_mediate() {
    let (mut k, pid) = setup();
    k.fs.put_file("/data/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let node = k.fs.resolve_abs("/data/f").unwrap();
    let scoped = Arc::new(ScopedCounter::default());
    k.register_policy(scoped.clone());
    let labelled = k.fork(pid).unwrap();
    k.set_label(labelled, NonZeroU64::new(1)).unwrap();
    let seen = |p: &ScopedCounter| {
        (
            p.checks.load(Ordering::Relaxed),
            p.lookups.load(Ordering::Relaxed),
        )
    };

    // Unlabelled under a label-scoped stack: no policy call, no verdict.
    let fd = k.open(pid, "/data/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    k.read(pid, fd, 1).unwrap();
    assert_eq!(seen(&scoped), (0, 0));
    assert_eq!(k.avc().entries_for(pid), 0);

    // A labelled subject takes the full path and warms its own vectors.
    let lfd = k
        .open(labelled, "/data/f", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    k.read(labelled, lfd, 1).unwrap();
    let (checks, lookups) = seen(&scoped);
    assert!(checks > 0 && lookups > 0);
    assert!(k.avc().entries_for(labelled) > 0);

    // One policy that is not label-scoped mediates the unlabelled process.
    let toggle = Arc::new(TogglePolicy::default());
    toggle.deny(node);
    k.register_policy(toggle.clone());
    assert_eq!(k.read(pid, fd, 1).unwrap_err(), Errno::EACCES);
    toggle.allow(node);
    k.read(pid, fd, 1).unwrap();
    assert!(seen(&scoped).0 > checks, "the stack now checks everyone");
    assert!(k.avc().entries_for(pid) > 0);
}

#[test]
fn policy_attach_flushes_avc() {
    let (mut k, pid) = setup();
    k.fs.put_file("/data/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let node = k.fs.resolve_abs("/data/f").unwrap();
    k.register_policy(Arc::new(NullPolicy));
    let fd = k.open(pid, "/data/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    k.read(pid, fd, 1).unwrap(); // warm allow under NullPolicy alone
    assert!(k.avc().entry_count() > 0);

    // Attach a denying policy: the stale allow must not short-circuit it.
    let toggle = Arc::new(TogglePolicy::default());
    toggle.deny(node);
    k.register_policy(toggle);
    assert_eq!(k.read(pid, fd, 1).unwrap_err(), Errno::EACCES);
}

#[test]
fn policy_detach_flushes_avc_and_uncacheable_policy_disables_it() {
    let (mut k, pid) = setup();
    k.fs.put_file("/data/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();

    /// Default-cacheability check: a policy that does not opt in.
    struct Opaque;
    impl MacPolicy for Opaque {
        fn name(&self) -> &str {
            "opaque"
        }
    }

    k.register_policy(Arc::new(NullPolicy));
    k.register_policy(Arc::new(Opaque));
    k.stats.reset();
    let fd = k.open(pid, "/data/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    for _ in 0..5 {
        k.read(pid, fd, 1).unwrap();
    }
    let snap = k.stats.snapshot();
    assert_eq!(
        snap.avc_hits, 0,
        "an uncacheable policy must disable the AVC"
    );
    assert_eq!(snap.avc_misses, 0);

    // Detach it: caching resumes (and the flush counter moved).
    assert!(k.unregister_policy("opaque"));
    k.stats.reset();
    for _ in 0..5 {
        k.read(pid, fd, 1).unwrap();
    }
    assert!(k.stats.snapshot().avc_hits > 0);
}

#[test]
fn process_exit_drops_subject_entries() {
    let (mut k, pid) = setup();
    k.fs.put_file("/data/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.register_policy(Arc::new(NullPolicy));
    let fd = k.open(pid, "/data/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    k.read(pid, fd, 1).unwrap();
    assert!(k.avc().entry_count() > 0);
    k.exit(pid, 0);
    assert_eq!(
        k.avc().entry_count(),
        0,
        "exiting subject's verdicts must be dropped"
    );
}

#[test]
fn avc_sysctl_toggle() {
    let (mut k, pid) = setup();
    k.fs.put_file("/data/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.register_policy(Arc::new(NullPolicy));
    k.sysctl_write(pid, SYSCTL_AVC, "0").unwrap();
    assert!(!k.cache_enabled().1);
    k.stats.reset();
    let fd = k.open(pid, "/data/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    for _ in 0..5 {
        k.read(pid, fd, 1).unwrap();
    }
    let snap = k.stats.snapshot();
    assert_eq!(snap.avc_hits, 0);
    assert!(
        snap.mac_vnode_checks >= 5,
        "with the AVC off every check reaches the policy"
    );
    k.sysctl_write(pid, SYSCTL_AVC, "1").unwrap();
    assert!(k.cache_enabled().1);
}

#[test]
fn cache_sysctls_reject_malformed_values() {
    let (mut k, pid) = setup();
    for bad in ["off", "false", "banana", "", "2"] {
        assert_eq!(
            k.sysctl_write(pid, SYSCTL_AVC, bad).unwrap_err(),
            Errno::EINVAL,
            "value {bad:?} must be rejected"
        );
        assert_eq!(
            k.sysctl_write(pid, SYSCTL_DCACHE, bad).unwrap_err(),
            Errno::EINVAL
        );
    }
    // A failed write changes neither the cache state nor the stored knob.
    assert_eq!(k.cache_enabled(), (true, true));
    assert_eq!(k.sysctl_read(pid, SYSCTL_AVC).unwrap(), "1");
    // Whitespace-tolerant well-formed values still work.
    k.sysctl_write(pid, SYSCTL_AVC, " 0 ").unwrap();
    assert!(!k.cache_enabled().1);
}

// --- negative dcache entries -------------------------------------------------

#[test]
fn negative_dcache_caches_absent_names_until_create() {
    let (mut k, pid) = setup();
    k.fs.mkdir_p("/probe", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.stats.reset();
    // First probe scans and records the absence.
    assert_eq!(
        k.fstatat(pid, None, "/probe/ghost", true).unwrap_err(),
        Errno::ENOENT
    );
    let after_first = k.stats.snapshot();
    assert_eq!(after_first.dcache_neg_hits, 0);
    // Re-probes answer from the negative entry: no new directory scan of
    // /probe (the walk of "probe" in "/" still hits positively).
    for _ in 0..5 {
        assert_eq!(
            k.fstatat(pid, None, "/probe/ghost", true).unwrap_err(),
            Errno::ENOENT
        );
    }
    let after = k.stats.snapshot();
    assert_eq!(after.dcache_neg_hits, 5, "absent name answered from cache");
    assert_eq!(
        after.dir_scans, after_first.dir_scans,
        "no further scans for the cached absence"
    );
    // Creating the name invalidates the negative entry immediately.
    k.fs.put_file(
        "/probe/ghost",
        b"now real",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    let st = k.fstatat(pid, None, "/probe/ghost", true).unwrap();
    assert_eq!(st.size, 8);
}

#[test]
fn negative_dcache_invalidated_by_rename_into_place() {
    let (mut k, pid) = setup();
    k.fs.put_file("/dir/real", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    // Cache the absence of /dir/target.
    assert_eq!(
        k.fstatat(pid, None, "/dir/target", true).unwrap_err(),
        Errno::ENOENT
    );
    k.renameat(pid, None, "/dir/real", None, "/dir/target")
        .unwrap();
    assert!(
        k.fstatat(pid, None, "/dir/target", true).is_ok(),
        "rename into place must kill the negative entry"
    );
}

#[test]
fn negative_dcache_inert_when_disabled() {
    let (mut k, pid) = setup();
    k.fs.mkdir_p("/probe", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.set_cache_enabled(false, false);
    k.stats.reset();
    for _ in 0..3 {
        assert_eq!(
            k.fstatat(pid, None, "/probe/ghost", true).unwrap_err(),
            Errno::ENOENT
        );
    }
    let snap = k.stats.snapshot();
    assert_eq!(snap.dcache_neg_hits, 0);
    assert!(snap.dir_scans >= 3, "every probe scans with the cache off");
}

// --- pipe/socket access vectors ---------------------------------------------

/// Cacheable policy that counts how many pipe/socket checks actually reach
/// it (the AVC should absorb repeats). Atomic counters: the kernel is
/// shared across session threads now, so test policies are `Sync` for real
/// rather than by unsafe assertion.
#[derive(Default)]
struct CountingPolicy {
    pipe_checks: std::sync::atomic::AtomicU64,
    socket_checks: std::sync::atomic::AtomicU64,
    epoch: std::sync::atomic::AtomicU64,
}

impl CountingPolicy {
    fn pipe_count(&self) -> u64 {
        self.pipe_checks.load(std::sync::atomic::Ordering::Relaxed)
    }
    fn socket_count(&self) -> u64 {
        self.socket_checks
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl MacPolicy for CountingPolicy {
    fn name(&self) -> &str {
        "counting"
    }
    fn decisions_cacheable(&self) -> bool {
        true
    }
    fn cache_epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Relaxed)
    }
    fn pipe_check(
        &self,
        _ctx: MacCtx,
        _pipe: shill_kernel::ObjId,
        _op: shill_kernel::PipeOp,
    ) -> SysResult<()> {
        self.pipe_checks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
    fn socket_check(
        &self,
        _ctx: MacCtx,
        _sock: shill_kernel::ObjId,
        _op: &shill_kernel::SocketOp,
    ) -> SysResult<()> {
        self.socket_checks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
}

#[test]
fn avc_caches_pipe_data_path_verdicts() {
    let (mut k, pid) = setup();
    let policy = Arc::new(CountingPolicy::default());
    k.register_policy(policy.clone());
    let (r, w) = k.pipe(pid).unwrap();
    k.stats.reset();
    for _ in 0..10 {
        k.write(pid, w, b"x").unwrap();
        k.read(pid, r, 1).unwrap();
    }
    // First write and first read consult the policy; the rest are AVC hits.
    assert_eq!(policy.pipe_count(), 2);
    assert_eq!(k.stats.snapshot().avc_hits, 18);
    // An epoch bump (authority shrank) invalidates the cached vectors.
    policy
        .epoch
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    k.write(pid, w, b"y").unwrap();
    assert_eq!(policy.pipe_count(), 3);
}

#[test]
fn avc_caches_socket_send_recv_but_not_lifecycle() {
    let (mut k, pid) = setup();
    let policy = Arc::new(CountingPolicy::default());
    k.register_policy(policy.clone());
    let addr = shill_kernel::SockAddr::Inet {
        host: "peer".into(),
        port: 80,
    };
    k.net
        .register_remote(addr.clone(), Box::new(|_| b"pong".to_vec()));
    let fd = k.socket(pid, shill_kernel::SockDomain::Inet).unwrap();
    k.connect(pid, fd, addr.clone()).unwrap();
    let base = policy.socket_count(); // create + connect reached policy
    assert_eq!(base, 2);
    for _ in 0..5 {
        k.write(pid, fd, b"ping").unwrap();
        let _ = k.read(pid, fd, 16);
    }
    // One Send and one Recv consult; the rest hit the AVC.
    assert_eq!(policy.socket_count(), base + 2);
    // Connect is address-carrying: a second connect consults again.
    let fd2 = k.socket(pid, shill_kernel::SockDomain::Inet).unwrap();
    k.connect(pid, fd2, addr).unwrap();
    assert_eq!(policy.socket_count(), base + 4);
    // Closing the socket drops its cached vectors.
    let before = k.avc().entry_count();
    k.close(pid, fd).unwrap();
    assert!(k.avc().entry_count() < before);
}

#[test]
fn uncacheable_policy_keeps_pipe_checks_on_slow_path() {
    struct Opaque2;
    impl MacPolicy for Opaque2 {
        fn name(&self) -> &str {
            "opaque2"
        }
    }
    let (mut k, pid) = setup();
    let policy = Arc::new(CountingPolicy::default());
    k.register_policy(policy.clone());
    k.register_policy(Arc::new(Opaque2));
    let (r, w) = k.pipe(pid).unwrap();
    for _ in 0..4 {
        k.write(pid, w, b"x").unwrap();
        k.read(pid, r, 1).unwrap();
    }
    assert_eq!(
        policy.pipe_count(),
        8,
        "an opaque policy in the stack disables pipe-vector caching"
    );
}

// --- flush accounting and capacity boundaries (ISSUE 3 satellites) -----------

/// `avc_flushes` counts only flushes that dropped live cached verdicts:
/// attaching to an empty cache, disabled→disabled writes, and empty-cache
/// toggles must not inflate it.
#[test]
fn avc_flushes_count_only_live_flushes() {
    let (mut k, pid) = setup();
    k.fs.put_file("/a/f", b"xy", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    // Attach to an empty cache: no live verdicts dropped, no flush counted.
    k.register_policy(Arc::new(NullPolicy));
    assert_eq!(k.stats.snapshot().avc_flushes, 0);

    // Warm the AVC.
    let fd = k.open(pid, "/a/f", OpenFlags::RDONLY, Mode(0)).unwrap();
    k.pread(pid, fd, 0, 1).unwrap();
    assert!(k.avc().entry_count() > 0);

    // Disabling with live entries: exactly one counted flush.
    k.set_cache_enabled(true, false);
    assert_eq!(k.stats.snapshot().avc_flushes, 1);

    // disabled→disabled, disabled→enabled: nothing to drop, no count.
    k.set_cache_enabled(true, false);
    k.set_cache_enabled(true, true);
    assert_eq!(k.stats.snapshot().avc_flushes, 1);

    // enabled→disabled with an *empty* cache: still nothing dropped.
    k.set_cache_enabled(true, false);
    assert_eq!(k.stats.snapshot().avc_flushes, 1);
    k.set_cache_enabled(true, true);

    // Detach with an empty cache: not a counted flush either.
    assert!(k.unregister_policy("null"));
    assert_eq!(k.stats.snapshot().avc_flushes, 1);

    // Re-attach (empty: uncounted), re-warm, then detach: counted.
    k.register_policy(Arc::new(NullPolicy));
    assert_eq!(k.stats.snapshot().avc_flushes, 1);
    k.pread(pid, fd, 0, 1).unwrap();
    assert!(k.avc().entry_count() > 0);
    assert!(k.unregister_policy("null"));
    assert_eq!(k.stats.snapshot().avc_flushes, 2);
}

/// Drive the dcache past its 4096-directory capacity through real path
/// walks: with every cached generation live the fallback is a (counted)
/// full purge and resolution stays correct; with stale generations present
/// the eviction pass drops exactly those, which `dcache_evictions` exposes.
#[test]
fn dcache_capacity_boundary_under_real_walks() {
    const DIRS: usize = 4000;
    const STALE: usize = 500;
    const FRESH: usize = 500;
    let (mut k, pid) = setup();
    for i in 0..DIRS {
        k.fs.put_file(
            &format!("/big/d{i}/f"),
            b"x",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }

    // Pass 1: walk a file in every directory. 4000 leaf dirs (+ /, /big)
    // stay under capacity: no pressure events.
    let first: Vec<NodeId> = (0..DIRS)
        .map(|i| {
            k.fstatat(pid, None, &format!("/big/d{i}/f"), true)
                .unwrap()
                .node
        })
        .collect();
    k.fs.dcache().reset_stats();

    // Mutate the first 500 directories (creating a sibling bumps their
    // generations): their cached entries are now stale.
    for i in 0..STALE {
        k.fs.put_file(
            &format!("/big/d{i}/g"),
            b"y",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }

    // Walk files in 500 *new* directories: the cache crosses 4096 cached
    // directories part-way through, and the pressure pass must evict the
    // 500 stale ones instead of purging the live set.
    for i in 0..FRESH {
        k.fs.put_file(
            &format!("/big/e{i}/f"),
            b"z",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fstatat(pid, None, &format!("/big/e{i}/f"), true).unwrap();
    }
    assert_eq!(
        k.dcache_evictions(),
        STALE as u64,
        "capacity pressure must drop exactly the stale generations"
    );
    assert_eq!(
        k.fs.dcache().stats().purges,
        0,
        "stale eviction freed room; no full purge"
    );

    // Correctness across the pressure event: every original file still
    // resolves to the same node, including the stale-evicted directories.
    for i in (0..DIRS).step_by(97) {
        let st = k.fstatat(pid, None, &format!("/big/d{i}/f"), true).unwrap();
        assert_eq!(st.node, first[i], "d{i}/f resolved differently");
    }

    // All-live pressure: re-walk everything (refilling the cache), then keep
    // adding new directories until the capacity check fires with no stale
    // generations anywhere — the fallback full purge must fire and count.
    for i in 0..DIRS {
        k.fstatat(pid, None, &format!("/big/d{i}/f"), true).unwrap();
    }
    let mut extra = 0usize;
    while k.fs.dcache().stats().purges == 0 {
        k.fs.put_file(
            &format!("/big/p{extra}/f"),
            b"w",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fstatat(pid, None, &format!("/big/p{extra}/f"), true)
            .unwrap();
        extra += 1;
        assert!(extra < 8192, "purge never fired under all-live pressure");
    }
    // And resolution is still correct afterwards.
    let st = k.fstatat(pid, None, "/big/d0/f", true).unwrap();
    assert_eq!(st.node, first[0]);
}
