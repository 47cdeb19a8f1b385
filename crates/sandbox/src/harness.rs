//! Sandbox launch helper: the kernel-side choreography the SHILL runtime
//! performs for `exec` (§3.2.2): "the SHILL runtime sets up a sandbox by
//! forking a new process, creating a new session, and granting the session
//! the capabilities passed to exec. It then calls `shill_enter` before
//! transferring control to the executable."
//!
//! The fork here is a spawn with stdio only ([`Kernel::spawn`]): the
//! child's descriptor table holds exactly the stdin/stdout/stderr it was
//! wired with, never the runtime's capability descriptors. Grants are
//! policy labels on kernel objects, not descriptors, so a launch costs
//! O(its grants) however much the runtime has opened before it.

use std::sync::Arc;

use shill_cap::{CapPrivs, Priv, PrivSet};
use shill_kernel::{Fd, Kernel, ObjId, Pid, Ulimits};
use shill_vfs::{NodeId, SysResult};

use crate::policy::ShillPolicy;
use crate::session::SessionId;

/// One capability grant for a sandbox: a kernel object plus privileges.
#[derive(Debug, Clone)]
pub struct Grant {
    pub obj: ObjId,
    pub privs: Arc<CapPrivs>,
}

impl Grant {
    pub fn vnode(node: NodeId, privs: CapPrivs) -> Grant {
        Grant {
            obj: ObjId::Vnode(node),
            privs: Arc::new(privs),
        }
    }
}

/// Everything needed to launch one sandboxed execution.
pub struct SandboxSpec {
    /// Capabilities to grant.
    pub grants: Vec<Grant>,
    /// Socket-factory privileges (empty = no factory).
    pub socket_privs: PrivSet,
    /// Pipe-factory capability.
    pub pipe_factory: bool,
    /// stdio wiring: descriptors of the *parent* to mirror into the child
    /// as fds 0/1/2.
    pub stdin: Option<Fd>,
    pub stdout: Option<Fd>,
    pub stderr: Option<Fd>,
    /// Resource limits for the child (paper Figure 7 footnote).
    pub ulimits: Option<Ulimits>,
    /// Create the session in debug mode (§3.2.2).
    pub debug: bool,
}

impl Default for SandboxSpec {
    fn default() -> Self {
        SandboxSpec {
            grants: Vec::new(),
            socket_privs: PrivSet::EMPTY,
            pipe_factory: false,
            stdin: None,
            stdout: None,
            stderr: None,
            ulimits: None,
            debug: false,
        }
    }
}

/// A prepared (entered) sandbox: run executables in it, then `finish`.
pub struct Sandbox {
    pub child: Pid,
    pub session: SessionId,
}

/// Spawn a child of `parent` with only its stdio wired, create and
/// populate its session, and enter. After this the child is confined. A
/// bad stdio descriptor fails the spawn before any child exists; a failure
/// after it (a refused grant) reaps the half-built child and reclaims its
/// session, so a failed launch leaves no process-table or label residue.
pub fn setup_sandbox(
    k: &mut Kernel,
    policy: &Arc<ShillPolicy>,
    parent: Pid,
    spec: &SandboxSpec,
) -> SysResult<Sandbox> {
    let stdio: Vec<(Fd, Fd)> = spec
        .stdio()
        .filter_map(|(src, dst, _)| Some((src?, dst)))
        .collect();
    let child = k.spawn(parent, &stdio)?;
    match setup_sandbox_child(k, policy, parent, child, spec) {
        Ok(session) => Ok(Sandbox { child, session }),
        Err(e) => {
            k.exit(child, 127);
            let _ = k.waitpid(parent, child);
            Err(e)
        }
    }
}

impl SandboxSpec {
    /// Each stdio slot: the parent descriptor wired into it (if any), the
    /// child descriptor number, and the privileges the wiring grants.
    fn stdio(&self) -> impl Iterator<Item = (Option<Fd>, Fd, PrivSet)> {
        let read = PrivSet::of(&[Priv::Read, Priv::Stat]);
        let write = PrivSet::of(&[Priv::Write, Priv::Append, Priv::Stat]);
        [
            (self.stdin, Fd::STDIN, read),
            (self.stdout, Fd::STDOUT, write),
            (self.stderr, Fd::STDERR, write),
        ]
        .into_iter()
    }
}

/// The post-spawn half of the launch choreography.
fn setup_sandbox_child(
    k: &mut Kernel,
    policy: &Arc<ShillPolicy>,
    parent: Pid,
    child: Pid,
    spec: &SandboxSpec,
) -> SysResult<crate::session::SessionId> {
    let session = policy.shill_init(k, child)?;
    if spec.debug {
        policy.set_debug(session, true)?;
    }
    for g in &spec.grants {
        policy.shill_grant(k, parent, session, g.obj, Arc::clone(&g.privs))?;
    }
    if !spec.socket_privs.is_empty() {
        policy.shill_grant_socket_factory(k, parent, session, spec.socket_privs)?;
    }
    if spec.pipe_factory {
        policy.shill_grant_pipe_factory(parent, session)?;
    }
    // stdio descriptors are capabilities passed to the sandbox (`exec(...,
    // stdout = out)` in the paper): the spawn wired them into fds 0-2; grant
    // the backing kernel object to the session with the matching privileges.
    for (src, _, privs) in spec.stdio() {
        let Some(fd) = src else { continue };
        let obj = match k.fd_object(parent, fd)? {
            shill_kernel::FdObject::Vnode(n) => ObjId::Vnode(n),
            shill_kernel::FdObject::Pipe(id, _) => ObjId::Pipe(id),
            shill_kernel::FdObject::Socket(s) => ObjId::Socket(s),
        };
        policy.shill_grant(k, parent, session, obj, Arc::new(CapPrivs::of(privs)))?;
    }
    if let Some(l) = spec.ulimits {
        k.set_ulimits(child, l)?;
    }
    policy.shill_enter(session)?;
    Ok(session)
}

/// Full `exec`-in-sandbox: set up, run the executable at `exec_node`
/// synchronously, tear the child down, and return its exit status.
pub fn run_sandboxed(
    k: &mut Kernel,
    policy: &Arc<ShillPolicy>,
    parent: Pid,
    exec_node: NodeId,
    argv: &[String],
    spec: &SandboxSpec,
) -> SysResult<i32> {
    let sb = setup_sandbox(k, policy, parent, spec)?;
    let status = match k.exec_node(sb.child, exec_node, argv) {
        Ok(s) => s,
        Err(e) => {
            // Exec itself refused (e.g. no +exec privilege): reap and report.
            k.exit(sb.child, 126);
            let _ = k.waitpid(parent, sb.child);
            return Err(e);
        }
    };
    k.exit(sb.child, status);
    let reaped = k.waitpid(parent, sb.child)?;
    Ok(reaped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_kernel::OpenFlags;
    use shill_vfs::{Cred, Errno, Gid, Mode, Uid};

    /// Register a tiny `cat`-like binary for tests.
    fn register_catlike(k: &mut Kernel) {
        k.register_exec(
            "minicat",
            Arc::new(|k: &mut Kernel, pid: Pid, argv: &[String]| {
                let src = &argv[1];
                let fd = match k.open(pid, src, OpenFlags::RDONLY, Mode(0)) {
                    Ok(fd) => fd,
                    Err(_) => return 1,
                };
                let data = match k.read(pid, fd, 1 << 20) {
                    Ok(d) => d,
                    Err(_) => return 1,
                };
                if k.write(pid, Fd::STDOUT, &data).is_err() {
                    return 1;
                }
                0
            }),
        );
        k.fs.put_file(
            "/bin/minicat",
            b"#!SIMBIN minicat\n",
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
    }

    fn full(privs: &[Priv]) -> CapPrivs {
        CapPrivs::of(PrivSet::of(privs))
    }

    #[test]
    fn sandboxed_cat_reads_only_granted_file() {
        let mut k = Kernel::new();
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        register_catlike(&mut k);
        k.fs.put_file(
            "/data/ok.txt",
            b"granted",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.fs.put_file(
            "/data/secret.txt",
            b"secret",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let user = k.spawn_user(Cred::user(100));
        let (pr, pw) = k.pipe(user).unwrap();

        let bin = k.fs.resolve_abs("/bin/minicat").unwrap();
        let root = k.fs.root();
        let data = k.fs.resolve_abs("/data").unwrap();
        let ok = k.fs.resolve_abs("/data/ok.txt").unwrap();

        let spec = SandboxSpec {
            grants: vec![
                Grant::vnode(bin, full(&[Priv::Exec, Priv::Read, Priv::Path])),
                // Traversal-only on / and /data (lookup, no read).
                Grant::vnode(root, full(&[Priv::Lookup])),
                Grant::vnode(data, full(&[Priv::Lookup])),
                Grant::vnode(ok, full(&[Priv::Read, Priv::Path, Priv::Stat])),
            ],
            stdout: Some(pw),
            ..Default::default()
        };
        let status = run_sandboxed(
            &mut k,
            &policy,
            user,
            bin,
            &["minicat".into(), "/data/ok.txt".into()],
            &spec,
        )
        .unwrap();
        assert_eq!(status, 0);
        assert_eq!(k.read(user, pr, 100).unwrap(), b"granted");

        // Same sandbox shape, un-granted file: the open inside fails.
        let spec2 = SandboxSpec {
            grants: vec![
                Grant::vnode(bin, full(&[Priv::Exec, Priv::Read, Priv::Path])),
                Grant::vnode(root, full(&[Priv::Lookup])),
                Grant::vnode(data, full(&[Priv::Lookup])),
            ],
            stdout: Some(pw),
            ..Default::default()
        };
        let status = run_sandboxed(
            &mut k,
            &policy,
            user,
            bin,
            &["minicat".into(), "/data/secret.txt".into()],
            &spec2,
        )
        .unwrap();
        assert_eq!(status, 1, "cat must fail on the un-granted file");
    }

    #[test]
    fn exec_without_exec_privilege_is_refused() {
        let mut k = Kernel::new();
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        register_catlike(&mut k);
        let user = k.spawn_user(Cred::user(100));
        let bin = k.fs.resolve_abs("/bin/minicat").unwrap();
        let spec = SandboxSpec {
            grants: vec![Grant::vnode(bin, full(&[Priv::Read]))], // no +exec
            ..Default::default()
        };
        assert_eq!(
            run_sandboxed(&mut k, &policy, user, bin, &["minicat".into()], &spec).unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn figure8_path_traversal_both_panels() {
        // Reproduces the paper's Figure 8 worked example:
        // open("../alice/dog.jpg", O_RDONLY) from cwd /home/bob.
        let mut k = Kernel::new();
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
        k.register_exec(
            "opener",
            Arc::new(|k: &mut Kernel, pid: Pid, _argv: &[String]| {
                match k.open(pid, "../alice/dog.jpg", OpenFlags::RDONLY, Mode(0)) {
                    Ok(fd) => match k.read(pid, fd, 3) {
                        Ok(d) if d == b"JPG" => 0,
                        _ => 2,
                    },
                    Err(Errno::EACCES) => 13,
                    Err(_) => 3,
                }
            }),
        );
        k.fs.put_file(
            "/bin/opener",
            b"#!SIMBIN opener\n",
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();

        let user = k.spawn_user(Cred::user(100));
        let bin = k.fs.resolve_abs("/bin/opener").unwrap();
        let alice = k.fs.resolve_abs("/home/alice").unwrap();
        let bob = k.fs.resolve_abs("/home/bob").unwrap();
        let home = k.fs.resolve_abs("/home").unwrap();

        let lookup_with_read = CapPrivs::of(PrivSet::of(&[Priv::Lookup]))
            .with_modifier(Priv::Lookup, CapPrivs::of(PrivSet::of(&[Priv::Read])));

        // Left panel: privileges on /home/alice and /home/bob but NOT /home.
        let run = |k: &mut Kernel, grants: Vec<Grant>| -> i32 {
            let child = k.fork(user).unwrap();
            let session = policy.shill_init(k, child).unwrap();
            for g in &grants {
                policy
                    .shill_grant(k, user, session, g.obj, Arc::clone(&g.privs))
                    .unwrap();
            }
            k.chdir(child, "/home/bob").unwrap();
            policy.shill_enter(session).unwrap();
            let status = k.exec_node(child, bin, &["opener".into()]).unwrap();
            k.exit(child, status);
            k.waitpid(user, child).unwrap()
        };

        let left = run(
            &mut k,
            vec![
                Grant::vnode(bin, full(&[Priv::Exec, Priv::Read])),
                Grant::vnode(alice, lookup_with_read.clone()),
                Grant::vnode(bob, full(&[Priv::Lookup])),
            ],
        );
        assert_eq!(
            left, 13,
            "without +lookup on /home the open fails with EACCES"
        );

        // Right panel: additionally +lookup on /home → succeeds, and the
        // +read propagates to dog.jpg through /home/alice's modifier.
        let right = run(
            &mut k,
            vec![
                Grant::vnode(bin, full(&[Priv::Exec, Priv::Read])),
                Grant::vnode(alice, lookup_with_read),
                Grant::vnode(bob, full(&[Priv::Lookup])),
                Grant::vnode(home, full(&[Priv::Lookup])),
            ],
        );
        assert_eq!(right, 0, "with +lookup on /home the open succeeds");
    }

    #[test]
    fn sandboxed_process_cannot_unload_policy() {
        let mut k = Kernel::new();
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        k.register_exec(
            "unloader",
            Arc::new(|k: &mut Kernel, pid: Pid, _argv: &[String]| {
                match k.kldunload(pid, "shill") {
                    Ok(()) => 0,
                    Err(Errno::EACCES) => 13,
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
        // Run as root inside the sandbox: even root-in-sandbox is denied.
        let user = k.spawn_user(Cred::ROOT);
        let bin = k.fs.resolve_abs("/bin/unloader").unwrap();
        let spec = SandboxSpec {
            grants: vec![Grant::vnode(bin, full(&[Priv::Exec, Priv::Read]))],
            ..Default::default()
        };
        let status =
            run_sandboxed(&mut k, &policy, user, bin, &["unloader".into()], &spec).unwrap();
        assert_eq!(status, 13);
        assert!(k.has_policy("shill"), "policy must survive the attempt");
    }

    #[test]
    fn sandboxed_process_reaps_its_exited_child() {
        // §3.2.2: a sandboxed process may wait for processes of its own
        // session, so the exited child's label must outlive the exit until
        // the reap.
        let mut k = Kernel::new();
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        let user = k.spawn_user(Cred::user(100));
        let sb = setup_sandbox(&mut k, &policy, user, &SandboxSpec::default()).unwrap();
        let child = k.fork(sb.child).unwrap();
        k.exit(child, 7);
        assert_eq!(k.waitpid(sb.child, child), Ok(7));
        assert!(k.process(child).is_err(), "the zombie left the table");
        assert_eq!(policy.session_of(&k, child), None, "the label went with it");
        assert_eq!(k.waitpid(sb.child, child), Err(Errno::ECHILD));
    }

    #[test]
    fn exit_reaps_zombie_children_nobody_can_wait_for() {
        let mut k = Kernel::new();
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        let user = k.spawn_user(Cred::user(100));
        let procs = k.process_count();
        let sb = setup_sandbox(&mut k, &policy, user, &SandboxSpec::default()).unwrap();
        let child = k.fork(sb.child).unwrap();
        k.exit(child, 0);
        // The sandboxed parent exits without waiting: its zombie child is
        // reaped with it, and the parent's own zombie waits for `user`.
        k.exit(sb.child, 3);
        assert!(k.process(child).is_err());
        assert_eq!(policy.session_of(&k, child), None);
        assert_eq!(k.waitpid(user, sb.child), Ok(3));
        assert_eq!(k.process_count(), procs);
        assert_eq!(policy.session_of(&k, sb.child), None);
    }

    #[test]
    fn nested_launch_releases_the_parent_session() {
        // A sandboxed process launches a sandbox of its own: the spawned
        // child inherits the outer session, then moves into a fresh inner
        // one. The move must release it from the outer session, or that
        // session outlives its last process and keeps its labels.
        let mut k = Kernel::new();
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        let user = k.spawn_user(Cred::user(100));
        let root = k.fs.root();
        let outer = SandboxSpec {
            grants: vec![Grant::vnode(root, full(&[Priv::Lookup, Priv::Stat]))],
            ..Default::default()
        };
        let sb = setup_sandbox(&mut k, &policy, user, &outer).unwrap();
        let inner = SandboxSpec {
            grants: vec![Grant::vnode(root, full(&[Priv::Lookup]))],
            ..Default::default()
        };
        let nested = setup_sandbox(&mut k, &policy, sb.child, &inner).unwrap();
        assert_ne!(nested.session, sb.session);
        assert_eq!(policy.session_of(&k, nested.child), Some(nested.session));
        assert_eq!(policy.label_entries(), 2);
        k.exit(nested.child, 0);
        k.exit(sb.child, 0);
        assert_eq!(k.waitpid(user, sb.child), Ok(0));
        assert_eq!(policy.label_entries(), 0, "the outer session leaked");
    }

    #[test]
    fn spawned_child_holds_only_its_stdio() {
        let mut k = Kernel::new();
        let policy = ShillPolicy::new();
        k.register_policy(policy.clone());
        let user = k.spawn_user(Cred::user(100));
        for _ in 0..100 {
            k.open(user, "/dev/null", OpenFlags::RDONLY, Mode(0))
                .unwrap();
        }
        let (_, pw) = k.pipe(user).unwrap();
        let spec = SandboxSpec {
            stdout: Some(pw),
            ..Default::default()
        };
        let sb = setup_sandbox(&mut k, &policy, user, &spec).unwrap();
        let fds: Vec<Fd> = k.process(sb.child).unwrap().fds.keys().copied().collect();
        assert_eq!(fds, vec![Fd::STDOUT]);
        // A bad stdio descriptor fails the launch before any child exists.
        let procs = k.process_count();
        let bad = SandboxSpec {
            stdin: Some(Fd(9999)),
            ..Default::default()
        };
        assert!(matches!(
            setup_sandbox(&mut k, &policy, user, &bad),
            Err(Errno::EBADF)
        ));
        assert_eq!(k.process_count(), procs);
    }
}
