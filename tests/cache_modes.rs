//! The security suite, run in both cache modes.
//!
//! Acceptance criterion for the resolution fast path (dcache + AVC): every
//! MAC/DAC denial that holds with the caches off must hold identically with
//! them on. Each scenario below returns a compact outcome fingerprint; the
//! suite runs once per mode and the fingerprints must match exactly (and
//! match the expected denials).

use std::sync::Arc;

use shill::cap::{CapPrivs, Priv, PrivSet};
use shill::kernel::{Fd, Kernel, OpenFlags, Pid, SockAddr, SockDomain};
use shill::prelude::*;
use shill::sandbox::{run_sandboxed, setup_sandbox, Grant, SandboxSpec, ShillPolicy};
use shill::scenarios::{run_find, run_grading, set_scenario_cache_mode, Config};
use shill::vfs::Errno;

fn caps(privs: &[Priv]) -> CapPrivs {
    CapPrivs::of(PrivSet::of(privs))
}

fn fmt<T>(r: Result<T, Errno>) -> String {
    match r {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("{e:?}"),
    }
}

/// Kernel + ShillPolicy denial scenarios. Returns (label, outcome) pairs.
fn kernel_denial_suite(cached: bool) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut push = |label: &str, outcome: String| out.push((label.to_string(), outcome));

    // 1. Read without a grant is denied; granted file is readable.
    {
        let mut k = Kernel::new();
        k.set_cache_enabled(cached, cached);
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        k.fs.put_file("/data/ok", b"1", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        k.fs.put_file("/data/secret", b"2", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let user = k.spawn_user(Cred::user(100));
        let root = k.fs.root();
        let data = k.fs.resolve_abs("/data").unwrap();
        let ok = k.fs.resolve_abs("/data/ok").unwrap();
        let spec = SandboxSpec {
            grants: vec![
                Grant::vnode(root, caps(&[Priv::Lookup])),
                Grant::vnode(data, caps(&[Priv::Lookup])),
                Grant::vnode(ok, caps(&[Priv::Read, Priv::Stat])),
            ],
            ..Default::default()
        };
        let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
        push(
            "granted read",
            fmt(k.open(sb.child, "/data/ok", OpenFlags::RDONLY, Mode(0))),
        );
        push(
            "ungranted read",
            fmt(k.open(sb.child, "/data/secret", OpenFlags::RDONLY, Mode(0))),
        );
        // Repeat with warm caches: identical verdicts.
        push(
            "granted read (warm)",
            fmt(k.open(sb.child, "/data/ok", OpenFlags::RDONLY, Mode(0))),
        );
        push(
            "ungranted read (warm)",
            fmt(k.open(sb.child, "/data/secret", OpenFlags::RDONLY, Mode(0))),
        );
    }

    // 2. §3.2.3 granularity: +write alone is insufficient (needs +append too).
    {
        let mut k = Kernel::new();
        k.set_cache_enabled(cached, cached);
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        k.fs.put_file("/data/f", b"x", Mode(0o666), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let user = k.spawn_user(Cred::user(100));
        let root = k.fs.root();
        let data = k.fs.resolve_abs("/data").unwrap();
        let f = k.fs.resolve_abs("/data/f").unwrap();
        let spec = SandboxSpec {
            grants: vec![
                Grant::vnode(root, caps(&[Priv::Lookup])),
                Grant::vnode(data, caps(&[Priv::Lookup])),
                Grant::vnode(f, caps(&[Priv::Write])), // no +append
            ],
            ..Default::default()
        };
        let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
        let mut fl = OpenFlags::RDONLY;
        fl.read = false;
        fl.write = true;
        push(
            "write without append",
            fmt(k.open(sb.child, "/data/f", fl, Mode(0))),
        );
        push(
            "write without append (warm)",
            fmt(k.open(sb.child, "/data/f", fl, Mode(0))),
        );
    }

    // 3. `..` traversal without +lookup on the parent is confined (Figure 8
    //    left panel), warm caches included.
    {
        let mut k = Kernel::new();
        k.set_cache_enabled(cached, cached);
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        k.fs.mkdir_p("/home/bob", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        k.fs.put_file(
            "/home/alice/dog.jpg",
            b"JPG",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let user = k.spawn_user(Cred::user(100));
        let bob = k.fs.resolve_abs("/home/bob").unwrap();
        let alice = k.fs.resolve_abs("/home/alice").unwrap();
        let child = k.fork(user).unwrap();
        let session = policy.shill_init(&mut k, child).unwrap();
        policy
            .shill_grant(
                &k,
                user,
                session,
                shill::kernel::ObjId::Vnode(bob),
                Arc::new(caps(&[Priv::Lookup])),
            )
            .unwrap();
        policy
            .shill_grant(
                &k,
                user,
                session,
                shill::kernel::ObjId::Vnode(alice),
                Arc::new(caps(&[Priv::Lookup]).with_modifier(Priv::Lookup, caps(&[Priv::Read]))),
            )
            .unwrap();
        k.chdir(child, "/home/bob").unwrap();
        policy.shill_enter(session).unwrap();
        push(
            "dotdot escape",
            fmt(k.open(child, "../alice/dog.jpg", OpenFlags::RDONLY, Mode(0))),
        );
        push(
            "dotdot escape (warm)",
            fmt(k.open(child, "../alice/dog.jpg", OpenFlags::RDONLY, Mode(0))),
        );
    }

    // 4. DAC still applies inside sandboxes: a 0600 root file stays
    //    unreadable for uid 100 even with a full MAC grant.
    {
        let mut k = Kernel::new();
        k.set_cache_enabled(cached, cached);
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        k.fs.put_file("/data/rootonly", b"r", Mode(0o600), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let user = k.spawn_user(Cred::user(100));
        let root = k.fs.root();
        let spec = SandboxSpec {
            grants: vec![Grant::vnode(root, CapPrivs::full())],
            ..Default::default()
        };
        let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
        push(
            "dac denial",
            fmt(k.open(sb.child, "/data/rootonly", OpenFlags::RDONLY, Mode(0))),
        );
        push(
            "dac denial (warm)",
            fmt(k.open(sb.child, "/data/rootonly", OpenFlags::RDONLY, Mode(0))),
        );
    }

    // 5. Sockets without a factory capability are denied.
    {
        let mut k = Kernel::new();
        k.set_cache_enabled(cached, cached);
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        let user = k.spawn_user(Cred::user(100));
        let spec = SandboxSpec::default();
        let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
        push(
            "socket no factory",
            fmt(k.socket(sb.child, SockDomain::Inet)),
        );
        let _ = SockAddr::Inet {
            host: String::new(),
            port: 0,
        };
    }

    // 6. Sandboxed root cannot unload the policy module.
    {
        let mut k = Kernel::new();
        k.set_cache_enabled(cached, cached);
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        k.register_exec(
            "unloader",
            Arc::new(|k: &mut Kernel, pid: Pid, _argv: &[String]| {
                match k.kldunload(pid, "shill") {
                    Err(Errno::EACCES) => 13,
                    Ok(()) => 0,
                    Err(_) => 1,
                }
            }),
        );
        k.fs.put_file(
            "/bin/unloader",
            b"#!SIMBIN unloader\n",
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let user = k.spawn_user(Cred::ROOT);
        let bin = k.fs.resolve_abs("/bin/unloader").unwrap();
        let spec = SandboxSpec {
            grants: vec![Grant::vnode(bin, caps(&[Priv::Exec, Priv::Read]))],
            ..Default::default()
        };
        let status =
            run_sandboxed(&mut k, &policy, user, bin, &["unloader".into()], &spec).unwrap();
        push(
            "kldunload from sandbox",
            format!("status {status} policy {}", k.has_policy("shill")),
        );
    }

    // 7. Sandboxed sysctl writes (e.g. trying to turn the caches OFF from
    //    inside) are denied — the checked cannot disable the checker.
    {
        let mut k = Kernel::new();
        k.set_cache_enabled(cached, cached);
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        let user = k.spawn_user(Cred::ROOT);
        let spec = SandboxSpec::default();
        let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
        push(
            "sandboxed cache sysctl",
            fmt(k.sysctl_write(sb.child, shill::kernel::SYSCTL_AVC, "0")),
        );
        // The denied write must leave the configured mode untouched.
        push(
            "caches unchanged",
            format!("{}", k.cache_enabled() == (cached, cached)),
        );
        let _ = Fd::STDIN;
    }

    out
}

#[test]
fn denial_suite_identical_in_both_cache_modes() {
    let with_caches = kernel_denial_suite(true);
    let without_caches = kernel_denial_suite(false);
    assert_eq!(
        with_caches, without_caches,
        "a cache changed a security verdict — fingerprints diverged"
    );
    // Spot-check the expected denials hold at all (not just consistently).
    let get = |label: &str| {
        with_caches
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("missing scenario {label}"))
            .1
            .clone()
    };
    assert_eq!(get("granted read"), "ok");
    assert_eq!(get("ungranted read"), "EACCES");
    assert_eq!(get("ungranted read (warm)"), "EACCES");
    assert_eq!(get("write without append"), "EACCES");
    assert_eq!(get("dotdot escape"), "EACCES");
    assert_eq!(get("dotdot escape (warm)"), "EACCES");
    assert_eq!(get("dac denial"), "EACCES");
    assert_eq!(get("socket no factory"), "EACCES");
    assert_eq!(get("kldunload from sandbox"), "status 13 policy true");
    assert_eq!(get("sandboxed cache sysctl"), "EACCES");
    assert_eq!(get("caches unchanged"), "true");
}

/// Full language-level scenario parity: the Find and grading case studies
/// produce identical observable results with the caches on and off.
#[test]
fn case_studies_identical_in_both_cache_modes() {
    let scale = 400; // small slice of the paper's 57,817-file tree
    set_scenario_cache_mode(true);
    let find_on = run_find(Config::ShillVersion, scale).checked;
    let grading_on = run_grading(Config::ShillVersion, 3, 2).checked;
    set_scenario_cache_mode(false);
    let find_off = run_find(Config::ShillVersion, scale).checked;
    let grading_off = run_grading(Config::ShillVersion, 3, 2).checked;
    set_scenario_cache_mode(true);
    assert_eq!(
        find_on, find_off,
        "find results diverged between cache modes"
    );
    assert_eq!(
        grading_on, grading_off,
        "grading results diverged between cache modes"
    );
    assert!(
        find_on > 0,
        "find must match something for the parity check to mean anything"
    );
    assert!(grading_on > 0);
}
