//! Guarded capabilities: the proxy layer that enforces capability contracts.
//!
//! "Each contract wraps the underlying capability with a proxy. These
//! proxies enforce the contracts ... by intercepting calls to operations on
//! the capabilities and allow them only if permitted by the contract"
//! (§2.2). A [`GuardedCap`] is a raw capability plus a stack of guards, one
//! per contract boundary it has crossed; deriving a capability (lookup,
//! create) maps every guard through its `with { ... }` modifier, which is
//! how contract restrictions follow derived capabilities.
//!
//! The stack is a shared, immutable list, newest guard first. A contract
//! application adds one node in front of the list it was given. A
//! derivation through guards that have no modifier for the operation
//! shares its parent's list whole, so deriving a capability allocates
//! only the capability ([`RawCap`]).

use std::rc::Rc;
use std::sync::{Arc, LazyLock};

use shill_cap::{CapKind, CapPrivs, Name, Priv, RawCap};
use shill_kernel::{Kernel, Pid, SockAddr, SockDomain};
use shill_vfs::{Errno, Mode, Stat};

use crate::blame::{Blame, Violation};

/// Errors from checked capability operations: either a contract violation
/// (aborts the script, with blame) or an ordinary system error (scripts can
/// observe these, e.g. `is_syserror(child)` in the paper's Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapError {
    Violation(Violation),
    Sys(Errno),
}

impl From<Errno> for CapError {
    fn from(e: Errno) -> CapError {
        CapError::Sys(e)
    }
}

impl From<Violation> for CapError {
    fn from(v: Violation) -> CapError {
        CapError::Violation(v)
    }
}

impl std::fmt::Display for CapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapError::Violation(v) => write!(f, "{v}"),
            CapError::Sys(e) => write!(f, "{e}"),
        }
    }
}

pub type CapResult<T> = Result<T, CapError>;

/// One contract boundary's restriction on a capability, in front of the
/// guards of the boundaries it crossed before.
#[derive(Debug)]
pub struct Guard {
    pub privs: Arc<CapPrivs>,
    pub blame: Arc<Blame>,
    /// The guard of the boundary crossed before this one.
    outer: Option<Rc<Guard>>,
}

/// Whether two guard lists are one list.
fn same_list(a: &Option<Rc<Guard>>, b: &Option<Rc<Guard>>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => Rc::ptr_eq(a, b),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// The effective privileges of an unguarded capability, shared.
static FULL: LazyLock<Arc<CapPrivs>> = LazyLock::new(|| Arc::new(CapPrivs::full()));

/// A capability with zero or more contract guards. Zero guards means the
/// capability is used with the authority it was created with (ambient
/// scripts); every contract application pushes one guard.
#[derive(Debug, Clone)]
pub struct GuardedCap {
    pub raw: RawCap,
    /// The newest guard; `None` when unguarded.
    guards: Option<Rc<Guard>>,
}

impl GuardedCap {
    /// An unguarded capability (full creation-time authority).
    pub fn unguarded(raw: RawCap) -> GuardedCap {
        GuardedCap { raw, guards: None }
    }

    /// Apply a capability contract: push a guard.
    pub fn restrict(&self, privs: Arc<CapPrivs>, blame: Arc<Blame>) -> GuardedCap {
        let guard = Guard {
            privs,
            blame,
            outer: self.guards.clone(),
        };
        GuardedCap {
            raw: self.raw.clone(),
            guards: Some(Rc::new(guard)),
        }
    }

    /// The guards, newest first.
    fn guards(&self) -> impl Iterator<Item = &Guard> {
        std::iter::successors(self.guards.as_deref(), |g| g.outer.as_deref())
    }

    /// Whether `self` and `other` are one capability under one list of
    /// guards: copies of one value.
    pub fn same(&self, other: &GuardedCap) -> bool {
        same_list(&self.guards, &other.guards) && self.raw.same(&other.raw)
    }

    pub fn kind(&self) -> CapKind {
        self.raw.kind
    }

    pub fn is_dir(&self) -> bool {
        self.raw.is_dir()
    }

    pub fn is_file(&self) -> bool {
        self.raw.is_file()
    }

    /// The capability's display name (creation-time component name).
    pub fn name(&self) -> &str {
        &self.raw.name
    }

    /// Check every guard for privilege `op`. Blame lands on the earliest
    /// (innermost) contract that forbids the operation: the last one
    /// denying it in the newest-first list.
    pub fn check(&self, op: Priv) -> Result<(), Violation> {
        match self.guards().filter(|g| !g.privs.allows(op)).last() {
            None => Ok(()),
            Some(g) => Err(Violation::consumer(
                &g.blame,
                format!(
                    "operation {op} on capability `{}` is not permitted",
                    self.raw.name
                ),
            )),
        }
    }

    /// The effective privileges after all guards (used when granting this
    /// capability to a sandbox: "if any of these capabilities comes with a
    /// contract, the MAC policy further limits access to the resource
    /// according to the capability's contract", §2.3).
    ///
    /// An unguarded capability shares one full set. Where no guard has a
    /// modifier and one guard's set is the intersection of them all (a
    /// capability under one contract, or under nested contracts that
    /// narrow it step by step), that guard's privileges are shared too.
    pub fn effective_privs(&self) -> Arc<CapPrivs> {
        let Some(newest) = self.guards.as_deref() else {
            return Arc::clone(&FULL);
        };
        if newest.outer.is_none() {
            return Arc::clone(&newest.privs);
        }
        // Intersect guard privilege sets; modifiers come from the
        // innermost guard that has one for each deriving privilege.
        let privs = self
            .guards()
            .fold(newest.privs.privs, |acc, g| acc.intersection(g.privs.privs));
        if self.guards().all(|g| g.privs.modifiers.is_empty()) {
            if let Some(g) = self.guards().find(|g| g.privs.privs == privs) {
                return Arc::clone(&g.privs);
            }
        }
        let mut out = CapPrivs::of(privs);
        for p in privs.iter().filter(|p| p.derives()) {
            let innermost = self
                .guards()
                .filter_map(|g| g.privs.modifiers.get(&p))
                .last();
            if let Some(m) = innermost {
                out.modifiers.insert(p, Arc::clone(m));
            }
        }
        Arc::new(out)
    }

    /// The guards of a capability derived through `op`: each mapped
    /// through its modifier for `op`. The longest run of oldest guards
    /// that no modifier changes is shared, so a derivation with no
    /// modifier shares the whole list.
    fn derive_guards(&self, op: Priv) -> Option<Rc<Guard>> {
        fn derive(guard: &Option<Rc<Guard>>, op: Priv) -> Option<Rc<Guard>> {
            let g = guard.as_ref()?;
            let privs = g.privs.derived(op);
            let outer = derive(&g.outer, op);
            if same_list(&outer, &g.outer) && Arc::ptr_eq(&privs, &g.privs) {
                return Some(Rc::clone(g));
            }
            Some(Rc::new(Guard {
                privs,
                blame: Arc::clone(&g.blame),
                outer,
            }))
        }
        derive(&self.guards, op)
    }

    // --- checked operations -------------------------------------------------

    /// `path` builtin (requires `+path`).
    pub fn path(&self, k: &mut Kernel, pid: Pid) -> CapResult<String> {
        self.check(Priv::Path)?;
        Ok(self.raw.path(k, pid)?)
    }

    /// `stat` builtin (requires `+stat`).
    pub fn stat(&self, k: &mut Kernel, pid: Pid) -> CapResult<Stat> {
        self.check(Priv::Stat)?;
        Ok(self.raw.stat(k, pid)?)
    }

    /// `read` builtin (requires `+read`).
    pub fn read_all(&self, k: &mut Kernel, pid: Pid) -> CapResult<Vec<u8>> {
        self.check(Priv::Read)?;
        Ok(self.raw.read_all(k, pid)?)
    }

    /// `write` builtin (requires `+write`).
    pub fn write_all(&self, k: &mut Kernel, pid: Pid, data: &[u8]) -> CapResult<()> {
        self.check(Priv::Write)?;
        Ok(self.raw.write_all(k, pid, data)?)
    }

    /// `append` builtin (requires `+append`). Note: the *language* checks
    /// `+append` alone — finer than the sandbox's write+append conservatism
    /// (§3.2.3), exactly as the paper describes.
    pub fn append(&self, k: &mut Kernel, pid: Pid, data: &[u8]) -> CapResult<()> {
        self.check(Priv::Append)?;
        Ok(self.raw.append(k, pid, data)?)
    }

    /// `truncate` builtin.
    pub fn truncate(&self, k: &mut Kernel, pid: Pid, len: u64) -> CapResult<()> {
        self.check(Priv::Truncate)?;
        Ok(self.raw.truncate(k, pid, len)?)
    }

    /// `chmod` builtin.
    pub fn chmod(&self, k: &mut Kernel, pid: Pid, mode: Mode) -> CapResult<()> {
        self.check(Priv::Chmod)?;
        Ok(self.raw.chmod(k, pid, mode)?)
    }

    /// `contents` builtin (requires `+contents`): the entry names, each
    /// mapped by `each` as it is read.
    pub fn contents<T>(
        &self,
        k: &mut Kernel,
        pid: Pid,
        each: impl FnMut(&str) -> T,
    ) -> CapResult<Vec<T>> {
        self.check(Priv::Contents)?;
        Ok(self.raw.contents(k, pid, each)?)
    }

    /// `lookup` builtin (requires `+lookup`); the derived capability's
    /// guards are mapped through each contract's `with` modifier.
    pub fn lookup(&self, k: &mut Kernel, pid: Pid, name: impl Name) -> CapResult<GuardedCap> {
        self.check(Priv::Lookup)?;
        let raw = self.raw.lookup(k, pid, name)?;
        Ok(GuardedCap {
            raw,
            guards: self.derive_guards(Priv::Lookup),
        })
    }

    /// `create-file` builtin.
    pub fn create_file(
        &self,
        k: &mut Kernel,
        pid: Pid,
        name: impl Name,
        mode: Mode,
    ) -> CapResult<GuardedCap> {
        self.check(Priv::CreateFile)?;
        let raw = self.raw.create_file(k, pid, name, mode)?;
        Ok(GuardedCap {
            raw,
            guards: self.derive_guards(Priv::CreateFile),
        })
    }

    /// `create-dir` builtin.
    pub fn create_dir(
        &self,
        k: &mut Kernel,
        pid: Pid,
        name: impl Name,
        mode: Mode,
    ) -> CapResult<GuardedCap> {
        self.check(Priv::CreateDir)?;
        let raw = self.raw.create_dir(k, pid, name, mode)?;
        Ok(GuardedCap {
            raw,
            guards: self.derive_guards(Priv::CreateDir),
        })
    }

    /// `unlink-file` builtin.
    pub fn unlink_file(&self, k: &mut Kernel, pid: Pid, name: &str) -> CapResult<()> {
        self.check(Priv::UnlinkFile)?;
        Ok(self.raw.unlink_file(k, pid, name)?)
    }

    /// `unlink-dir` builtin.
    pub fn unlink_dir(&self, k: &mut Kernel, pid: Pid, name: &str) -> CapResult<()> {
        self.check(Priv::UnlinkDir)?;
        Ok(self.raw.unlink_dir(k, pid, name)?)
    }

    /// `read-symlink` builtin.
    pub fn read_symlink(&self, k: &mut Kernel, pid: Pid, name: &str) -> CapResult<String> {
        self.check(Priv::ReadSymlink)?;
        Ok(self.raw.read_symlink(k, pid, name)?)
    }

    /// `link` builtin (the paper's `flinkat`).
    pub fn link(&self, k: &mut Kernel, pid: Pid, file: &GuardedCap, name: &str) -> CapResult<()> {
        self.check(Priv::Link)?;
        Ok(self.raw.link(k, pid, &file.raw, name)?)
    }

    /// Pipe factory `create` (requires `+create-pipe`).
    pub fn create_pipe(&self, k: &mut Kernel, pid: Pid) -> CapResult<(GuardedCap, GuardedCap)> {
        self.check(Priv::PipeCreate)?;
        let (r, w) = self.raw.create_pipe(k, pid)?;
        Ok((GuardedCap::unguarded(r), GuardedCap::unguarded(w)))
    }

    /// Socket factory `create` (requires `+sock-create`).
    pub fn create_socket(
        &self,
        k: &mut Kernel,
        pid: Pid,
        domain: SockDomain,
    ) -> CapResult<GuardedCap> {
        self.check(Priv::SockCreate)?;
        let raw = self.raw.create_socket(k, pid, domain)?;
        // Derived socket carries the factory's guards (socket privileges).
        Ok(GuardedCap {
            raw,
            guards: self.guards.clone(),
        })
    }

    /// Socket `connect` (requires `+sock-connect`).
    pub fn sock_connect(&self, k: &mut Kernel, pid: Pid, addr: SockAddr) -> CapResult<()> {
        self.check(Priv::SockConnect)?;
        Ok(self.raw.sock_connect(k, pid, addr)?)
    }

    /// Socket `send` (requires `+sock-send`).
    pub fn sock_send(&self, k: &mut Kernel, pid: Pid, data: &[u8]) -> CapResult<()> {
        self.check(Priv::SockSend)?;
        self.raw.write_all(k, pid, data)?;
        Ok(())
    }

    /// Socket `recv` until EOF (requires `+sock-recv`).
    pub fn sock_recv(&self, k: &mut Kernel, pid: Pid) -> CapResult<Vec<u8>> {
        self.check(Priv::SockRecv)?;
        Ok(self.raw.read_all(k, pid)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_cap::PrivSet;
    use shill_vfs::{Cred, Gid, Uid};

    fn setup() -> (Kernel, Pid, GuardedCap) {
        let mut k = Kernel::new();
        k.fs.put_file("/home/u/a.txt", b"alpha", Mode(0o644), Uid(100), Gid(100))
            .unwrap();
        k.fs.put_file("/home/u/b.jpg", b"beta", Mode(0o644), Uid(100), Gid(100))
            .unwrap();
        let pid = k.spawn_user(Cred::user(100));
        let dir = RawCap::open_path(&mut k, pid, "/home/u").unwrap();
        (k, pid, GuardedCap::unguarded(dir))
    }

    fn blame(contract: &str) -> Arc<Blame> {
        Blame::new("user", "script", contract)
    }

    #[test]
    fn unguarded_allows_everything_dac_allows() {
        let (mut k, pid, dir) = setup();
        assert_eq!(
            dir.contents(&mut k, pid, str::to_owned).unwrap(),
            vec!["a.txt", "b.jpg"]
        );
        let a = dir.lookup(&mut k, pid, "a.txt").unwrap();
        assert_eq!(a.read_all(&mut k, pid).unwrap(), b"alpha");
    }

    #[test]
    fn guard_denies_unlisted_privilege_with_consumer_blame() {
        let (mut k, pid, dir) = setup();
        let ro = dir.restrict(
            Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Contents, Priv::Lookup]))),
            blame("cur : dir(+contents, +lookup)"),
        );
        assert!(ro.contents(&mut k, pid, str::to_owned).is_ok());
        match ro.unlink_file(&mut k, pid, "a.txt").unwrap_err() {
            CapError::Violation(v) => {
                assert_eq!(v.blamed_name, "script");
                assert!(v.message.contains("+unlink-file"));
            }
            other => panic!("expected violation, got {other:?}"),
        }
        // The file is untouched.
        assert!(k.fs.resolve_abs("/home/u/a.txt").is_ok());
    }

    #[test]
    fn derived_caps_inherit_guard_by_default() {
        let (mut k, pid, dir) = setup();
        let guarded = dir.restrict(
            Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Lookup, Priv::Path]))),
            blame("cur : dir(+lookup, +path)"),
        );
        let child = guarded.lookup(&mut k, pid, "a.txt").unwrap();
        // Inherited: +path ok, +read not in the contract.
        assert!(child.path(&mut k, pid).is_ok());
        assert!(matches!(
            child.read_all(&mut k, pid).unwrap_err(),
            CapError::Violation(_)
        ));
    }

    #[test]
    fn with_modifier_controls_derived_privileges() {
        let (mut k, pid, dir) = setup();
        let privs = CapPrivs::of(PrivSet::of(&[Priv::Contents])).with_modifier(
            Priv::Lookup,
            CapPrivs::of(PrivSet::of(&[Priv::Path, Priv::Stat])),
        );
        let guarded = dir.restrict(
            Arc::new(privs),
            blame("dir(+contents, +lookup with {+path,+stat})"),
        );
        let child = guarded.lookup(&mut k, pid, "b.jpg").unwrap();
        assert!(child.path(&mut k, pid).is_ok());
        assert!(child.stat(&mut k, pid).is_ok());
        assert!(matches!(
            child.read_all(&mut k, pid).unwrap_err(),
            CapError::Violation(_)
        ));
        // And derived-from-derived stays at {path, stat} (no deriving privs).
        assert!(matches!(
            child.lookup(&mut k, pid, "x").unwrap_err(),
            CapError::Violation(_)
        ));
    }

    #[test]
    fn stacked_guards_check_all_layers() {
        let (mut k, pid, dir) = setup();
        let layer1 = dir.restrict(
            Arc::new(CapPrivs::of(PrivSet::of(&[
                Priv::Contents,
                Priv::Lookup,
                Priv::Stat,
            ]))),
            blame("outer"),
        );
        let layer2 = layer1.restrict(
            Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Contents]))),
            Blame::new("script", "helper", "inner"),
        );
        assert!(layer2.contents(&mut k, pid, str::to_owned).is_ok());
        // +stat passes layer1 but fails layer2 → the inner consumer is blamed.
        match layer2.stat(&mut k, pid).unwrap_err() {
            CapError::Violation(v) => {
                assert_eq!(v.contract, "inner");
                assert_eq!(v.blamed_name, "helper");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn syserrors_are_not_violations() {
        let (mut k, pid, dir) = setup();
        let guarded = dir.restrict(
            Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Lookup]))),
            blame("dir(+lookup)"),
        );
        match guarded.lookup(&mut k, pid, "missing").unwrap_err() {
            CapError::Sys(Errno::ENOENT) => {}
            other => panic!("expected ENOENT, got {other:?}"),
        }
    }

    #[test]
    fn effective_privs_intersect_guards() {
        let (_k, _pid, dir) = setup();
        let layered = dir
            .restrict(
                Arc::new(CapPrivs::of(PrivSet::of(&[
                    Priv::Read,
                    Priv::Stat,
                    Priv::Path,
                ]))),
                blame("a"),
            )
            .restrict(
                Arc::new(CapPrivs::of(PrivSet::of(&[Priv::Read, Priv::Write]))),
                blame("b"),
            );
        let eff = layered.effective_privs();
        assert!(eff.allows(Priv::Read));
        assert!(!eff.allows(Priv::Stat));
        assert!(!eff.allows(Priv::Write));
    }

    #[test]
    fn create_file_through_guard() {
        let (mut k, pid, dir) = setup();
        let privs = CapPrivs::of(PrivSet::EMPTY).with_modifier(
            Priv::CreateFile,
            CapPrivs::of(PrivSet::of(&[Priv::Append, Priv::Path])),
        );
        let guarded = dir.restrict(
            Arc::new(privs),
            blame("dir(+create-file with {+append,+path})"),
        );
        let f = guarded
            .create_file(&mut k, pid, "log.txt", Mode(0o644))
            .unwrap();
        f.append(&mut k, pid, b"entry\n").unwrap();
        // Append-only: read and write are violations.
        assert!(matches!(
            f.read_all(&mut k, pid).unwrap_err(),
            CapError::Violation(_)
        ));
        assert!(matches!(
            f.write_all(&mut k, pid, b"x").unwrap_err(),
            CapError::Violation(_)
        ));
    }
}
