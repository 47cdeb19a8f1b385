//! The §3.2.2 debugging workflow, end-to-end: "running programs in a
//! debugging sandbox and then viewing the logs was a useful starting point
//! for identifying necessary capabilities."

use std::collections::BTreeSet;

use shill::prelude::*;
use shill::sandbox::{build_spec, parse_policy, run_sandboxed, LogEvent};

#[test]
fn debug_run_discovers_missing_capabilities_and_fixed_policy_works() {
    let mut k = shill::setup::standard_kernel();
    k.fs.put_file("/data/in.txt", b"payload", Mode(0o644), Uid(100), Gid(100))
        .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::user(100));

    // Deliberately incomplete policy: no grant for the input file.
    let incomplete = r#"
path /bin/cat +exec +read +path +stat
path /lib/libc.so +read +stat +path
path / +lookup with {+lookup}
"#;

    // 1. Normal run fails (cat exits 1).
    let rules = parse_policy(incomplete).unwrap();
    let spec = build_spec(&mut k, user, &rules).unwrap();
    let exe = k.resolve(user, None, "/bin/cat", true).unwrap();
    let argv: Vec<String> = vec!["cat".into(), "/data/in.txt".into()];
    let st = run_sandboxed(&mut k, &policy, user, exe, &argv, &spec).unwrap();
    assert_eq!(st, 1, "denied read makes cat fail");
    let denials = policy
        .log_events()
        .iter()
        .filter(|e| matches!(e, LogEvent::Denied { .. }))
        .count();
    assert!(
        denials > 0,
        "denials are logged even without verbose logging"
    );

    // 2. Debug run succeeds and records exactly what was missing.
    policy.clear_log();
    let mut dbg_spec = build_spec(&mut k, user, &rules).unwrap();
    dbg_spec.debug = true;
    let st = run_sandboxed(&mut k, &policy, user, exe, &argv, &dbg_spec).unwrap();
    assert_eq!(st, 0, "debug mode auto-grants");
    let discovered: BTreeSet<String> = policy
        .log_events()
        .iter()
        .filter_map(|e| match e {
            LogEvent::DebugAutoGrant { granted, .. } => Some(granted.to_string()),
            _ => None,
        })
        .collect();
    assert!(discovered.contains("+read"), "discovered: {discovered:?}");

    // 3. The completed policy runs cleanly with zero denials.
    let complete = format!("{incomplete}path /data/in.txt +read +stat +path\n");
    let rules = parse_policy(&complete).unwrap();
    let spec = build_spec(&mut k, user, &rules).unwrap();
    policy.clear_log();
    let st = run_sandboxed(&mut k, &policy, user, exe, &argv, &spec).unwrap();
    assert_eq!(st, 0);
    assert!(
        !policy
            .log_events()
            .iter()
            .any(|e| matches!(e, LogEvent::Denied { .. })),
        "no denials with the complete policy"
    );
}

#[test]
fn verbose_logging_records_grants_and_session_lifecycle() {
    let mut k = shill::setup::standard_kernel();
    k.fs.put_file("/data/x", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    policy.set_log_enabled(true);
    let user = k.spawn_user(Cred::ROOT);
    let rules = parse_policy("path /data/x +read +stat\npath /bin/cat +exec +read\npath / +lookup")
        .unwrap();
    let spec = build_spec(&mut k, user, &rules).unwrap();
    let exe = k.resolve(user, None, "/bin/cat", true).unwrap();
    let _ = run_sandboxed(
        &mut k,
        &policy,
        user,
        exe,
        &["cat".into(), "/data/x".into()],
        &spec,
    );
    let events = policy.log_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, LogEvent::SessionCreated { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, LogEvent::SessionEntered { .. })));
    assert!(events.iter().any(|e| matches!(
        e,
        LogEvent::Grant {
            propagated: false,
            ..
        }
    )));
    assert!(events
        .iter()
        .any(|e| matches!(e, LogEvent::SessionReclaimed { .. })));
}

#[test]
fn policy_stats_reflect_activity() {
    let mut k = shill::setup::standard_kernel();
    k.fs.put_file("/data/x", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    let rules = parse_policy("path /data/x +read +stat\npath /bin/cat +exec +read\npath / +lookup")
        .unwrap();
    let spec = build_spec(&mut k, user, &rules).unwrap();
    let exe = k.resolve(user, None, "/bin/cat", true).unwrap();
    let st = run_sandboxed(
        &mut k,
        &policy,
        user,
        exe,
        &["cat".into(), "/data/x".into()],
        &spec,
    )
    .unwrap();
    assert_eq!(st, 0);
    let s = policy.stats();
    assert_eq!(s.sessions_created, 1);
    assert!(s.grants >= 3);
    assert!(s.checks > 0);
    assert!(s.propagations > 0, "lookup chain propagated privileges");
    assert!(s.scrubbed > 0, "teardown scrubbed the session's labels");
}
