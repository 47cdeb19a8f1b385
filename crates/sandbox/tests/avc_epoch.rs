//! ShillPolicy ↔ kernel AVC epoch-protocol tests, plus the headline
//! fast-path acceptance criterion: on a repeated deep-path stat workload
//! the caches must cut policy-reaching MAC checks by ≥ 5× and directory
//! scans measurably, without changing a single verdict.

use shill_cap::{CapPrivs, Priv, PrivSet};
use shill_kernel::{Kernel, OpenFlags};
use shill_sandbox::{setup_sandbox, Grant, SandboxSpec, ShillPolicy};
use shill_vfs::{Cred, Errno, Gid, Mode, Uid};

fn caps(privs: &[Priv]) -> CapPrivs {
    CapPrivs::of(PrivSet::of(privs))
}

/// Pre-enter allows must not leak into the entered session: the epoch bump
/// at `shill_enter` has to invalidate every verdict cached while the
/// session was still permissive.
#[test]
fn enter_invalidates_pre_enter_verdicts() {
    let mut k = Kernel::new();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    k.fs.put_file("/data/secret", b"s", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let user = k.spawn_user(Cred::ROOT);
    let child = k.fork(user).unwrap();
    let session = policy.shill_init(&mut k, child).unwrap();

    // Un-entered session: unrestricted. This warms the AVC for (child,
    // /data/secret, Read) and every Lookup on the path.
    let fd = k
        .open(child, "/data/secret", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    k.read(child, fd, 1).unwrap();
    k.close(child, fd).unwrap();
    assert!(
        k.avc().entry_count() > 0,
        "pre-enter verdicts should be cached"
    );

    // Enter with no grants: everything must now be denied — the warm cache
    // must not answer for the old permissive world.
    policy.shill_enter(session).unwrap();
    assert_eq!(
        k.open(child, "/data/secret", OpenFlags::RDONLY, Mode(0))
            .unwrap_err(),
        Errno::EACCES
    );
}

/// Privilege propagation (`mac_post_lookup`) interacts correctly with the
/// AVC: an initial denial is never cached, so once propagation grants the
/// privilege the operation succeeds — and the propagated allow then caches.
#[test]
fn propagation_grants_are_picked_up_despite_caching() {
    let mut k = Kernel::new();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    k.fs.put_file(
        "/home/alice/dog.jpg",
        b"JPG",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let alice = k.fs.resolve_abs("/home/alice").unwrap();
    let dog = k.fs.resolve_abs("/home/alice/dog.jpg").unwrap();

    let lookup_with_read = CapPrivs::of(PrivSet::of(&[Priv::Lookup]))
        .with_modifier(Priv::Lookup, caps(&[Priv::Read, Priv::Stat]));
    let spec = SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            // /home gets only +lookup via propagation from /; alice carries
            // the read-deriving modifier.
            Grant::vnode(alice, lookup_with_read),
        ],
        ..Default::default()
    };
    let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();

    // Direct stat on the leaf before any traversal: denied (no label yet),
    // and that denial must not stick anywhere.
    assert!(policy
        .privs_on(sb.session, shill_kernel::ObjId::Vnode(dog))
        .is_none());

    // Traverse: propagation labels dog.jpg with +read/+stat; the same open
    // that was impossible a moment ago now succeeds, cache or no cache.
    let fd = k
        .open(sb.child, "/home/alice/dog.jpg", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    assert_eq!(k.read(sb.child, fd, 3).unwrap(), b"JPG");

    // Warm repeat: verdicts now come from the AVC.
    k.stats.reset();
    for _ in 0..10 {
        k.fstatat(sb.child, None, "/home/alice/dog.jpg", true)
            .unwrap();
    }
    assert!(k.stats.snapshot().avc_hits > 0);
}

/// Session reclamation scrubs labels and bumps the epoch; a later sandbox
/// for the same objects starts cold and correctly restricted.
#[test]
fn session_reclaim_invalidates_cached_verdicts() {
    let mut k = Kernel::new();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    k.fs.put_file("/data/f", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let data = k.fs.resolve_abs("/data").unwrap();
    let f = k.fs.resolve_abs("/data/f").unwrap();

    let spec = SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            Grant::vnode(data, caps(&[Priv::Lookup])),
            Grant::vnode(f, caps(&[Priv::Read, Priv::Stat])),
        ],
        ..Default::default()
    };
    let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
    let fd = k
        .open(sb.child, "/data/f", OpenFlags::RDONLY, Mode(0))
        .unwrap();
    k.read(sb.child, fd, 1).unwrap();
    let bumps_before = policy.stats().epoch_bumps;
    k.exit(sb.child, 0);
    k.waitpid(user, sb.child).unwrap();
    assert!(
        policy.stats().epoch_bumps > bumps_before,
        "reclaim must bump the epoch"
    );
    assert_eq!(policy.label_entries(), 0);

    // A fresh sandbox without the read grant must be denied — nothing from
    // the previous session's cache may answer.
    let spec2 = SandboxSpec {
        grants: vec![
            Grant::vnode(root, caps(&[Priv::Lookup])),
            Grant::vnode(data, caps(&[Priv::Lookup])),
        ],
        ..Default::default()
    };
    let sb2 = setup_sandbox(&mut k, &policy, user, &spec2).unwrap();
    assert_eq!(
        k.open(sb2.child, "/data/f", OpenFlags::RDONLY, Mode(0))
            .unwrap_err(),
        Errno::EACCES
    );
}

// --- acceptance criterion ----------------------------------------------------

/// Deep-path repeated stat workload under a sandbox; returns the
/// mac_vnode_checks reaching policies over `rounds` repetitions.
fn deep_stat_workload(cached: bool, rounds: usize) -> u64 {
    let mut k = Kernel::new();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let depth = 8;
    let mut path = String::new();
    for i in 0..depth {
        path.push_str(&format!("/d{i}"));
    }
    let leaf = format!("{path}/leaf.bin");
    k.fs.put_file(&leaf, b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let user = k.spawn_user(Cred::ROOT);
    let root = k.fs.root();
    let spec = SandboxSpec {
        grants: vec![Grant::vnode(root, CapPrivs::full())],
        ..Default::default()
    };
    let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
    k.set_avc_enabled(cached);
    // One warmup walk (populates labels via propagation + warms the AVC),
    // then the measured repeats.
    k.fstatat(sb.child, None, &leaf, true).unwrap();
    k.stats.reset();
    for _ in 0..rounds {
        k.fstatat(sb.child, None, &leaf, true).unwrap();
    }
    k.stats.snapshot().mac_vnode_checks
}

#[test]
fn caches_cut_policy_checks_5x_on_deep_stat_workload() {
    let rounds = 200;
    let checks_on = deep_stat_workload(true, rounds);
    let checks_off = deep_stat_workload(false, rounds);
    assert!(
        checks_off >= 5 * checks_on.max(1),
        "expected ≥5× fewer policy-reaching MAC checks: cached={checks_on} uncached={checks_off}"
    );
}
