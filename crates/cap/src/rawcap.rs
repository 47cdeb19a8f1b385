//! Raw (unguarded) capabilities: unforgeable references to kernel resources.
//!
//! "Conceptually, SHILL capabilities correspond to operating system
//! representations of resources, such as file descriptors, and built-in
//! functions such as `append` and `lookup` are wrappers for the
//! corresponding system calls" (§2.1). A [`RawCap`] carries the descriptor
//! (held by the SHILL runtime's process) plus enough metadata to answer
//! kind queries without a syscall. A capability is one allocation: its
//! descriptor, node, kind and name live behind one `Rc`, which every
//! contract-restricted copy shares, and the last copy to drop hands the
//! descriptor back for closing. A capability never leaves the thread of
//! the runtime that opened it; [`RawCap`] is not `Send`, so the compiler
//! holds that. Its name is the `Rc<str>` the script handed `lookup`, so a
//! name read from `contents` becomes the derived capability's name without
//! a copy.
//!
//! Derivation is a descriptor operation too: `lookup` is
//! `openat(dirfd, name)` relative to the directory capability's descriptor,
//! as `create_file` and `create_dir` are, so it walks one component at any
//! depth and does not depend on the directory's ancestors. The derived
//! capability's node and kind are those of the descriptor actually opened
//! (for a symlink, its target).
//!
//! Contract enforcement does **not** live here: `shill-contracts` wraps raw
//! capabilities in guards. This layer is what the ambient language creates
//! with the user's full authority; DAC is still enforced by the kernel on
//! every operation.
//!
//! Capability-safety invariants this layer maintains:
//! * `lookup` accepts a single component only, and refuses `.` and `..`
//!   ("a script cannot use ... lookup(cur,\"..\") to obtain the parent
//!   directory", §2.1).
//! * Capabilities cannot be constructed from paths (only the ambient
//!   runtime does that, and only via [`RawCap::open_path`] which it alone calls).

use std::ops::Deref;
use std::rc::Rc;

use shill_kernel::{CloseQueue, Fd, Kernel, OpenFlags, Pid, SockAddr, SockDomain};
use shill_vfs::{Errno, FileType, Mode, NodeId, Stat, SysResult};

/// Capability safety: a name handed to a directory capability is one
/// component, and never `.` or `..` (§2.1).
fn single_component(name: &str) -> SysResult<()> {
    if !shill_vfs::node::valid_component(name) || name == "." || name == ".." {
        return Err(Errno::EINVAL);
    }
    Ok(())
}

/// A name a capability is derived under: borrowed for the syscall, and
/// kept (`Rc<str>` shared, anything else copied) only when the derivation
/// succeeds.
pub trait Name: AsRef<str> + Into<Rc<str>> {}

impl<N: AsRef<str> + Into<Rc<str>>> Name for N {}

/// What kind of resource a capability designates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapKind {
    File,
    Dir,
    /// One end of a pipe. Unix convention groups these with files
    /// ("file capabilities include capabilities for files, pipes, and
    /// devices", §2.2).
    PipeEnd,
    /// Character device.
    Device,
    Socket,
    /// The right to create pipes (§3.1.1).
    PipeFactory,
    /// The right to create sockets (§3.1.1).
    SocketFactory,
}

impl CapKind {
    /// Unix-convention "file": files, pipe ends, and devices.
    pub fn is_file_like(self) -> bool {
        matches!(self, CapKind::File | CapKind::PipeEnd | CapKind::Device)
    }
}

/// The runtime's descriptor behind a capability. Dropping it (with the
/// capability's last copy) queues the close on the kernel's
/// [`CloseQueue`]; the runtime drains it at its next kernel crossing
/// ([`Kernel::drain_closes`]).
#[derive(Debug)]
struct CapFd {
    fd: Fd,
    pid: Pid,
    closes: CloseQueue,
}

impl Drop for CapFd {
    fn drop(&mut self) {
        self.closes.push(self.pid, self.fd);
    }
}

/// A capability's descriptor number and a copy of the capability, which
/// keeps the descriptor open.
#[derive(Debug, Clone)]
pub struct FdHandle {
    fd: Fd,
    _cap: RawCap,
}

impl FdHandle {
    pub fn fd(&self) -> Fd {
        self.fd
    }
}

/// What a capability designates, read through [`RawCap`].
#[derive(Debug)]
pub struct CapObj {
    pub kind: CapKind,
    /// Descriptor in the runtime process. Factories have no descriptor.
    fd: Option<CapFd>,
    /// Underlying vnode for filesystem-backed capabilities; this is what
    /// gets granted (with privileges) to sandbox sessions.
    pub node: Option<NodeId>,
    /// Name under which the capability was created/derived (display,
    /// `has_ext`). Not used for access.
    pub name: Rc<str>,
    /// Whether the descriptor was opened readable / writable (the maximum
    /// DAC allowed at creation).
    pub readable: bool,
    pub writable: bool,
}

/// A raw capability: a shared handle on one [`CapObj`]. Cloning it, as a
/// contract application does, copies a pointer.
#[derive(Debug, Clone)]
pub struct RawCap(Rc<CapObj>);

impl Deref for RawCap {
    type Target = CapObj;

    fn deref(&self) -> &CapObj {
        &self.0
    }
}

impl RawCap {
    fn factory(kind: CapKind, name: &str) -> RawCap {
        RawCap(Rc::new(CapObj {
            kind,
            fd: None,
            node: None,
            name: name.into(),
            readable: false,
            writable: false,
        }))
    }

    /// A capability for descriptor `fd` of `pid`.
    fn with_fd(
        k: &Kernel,
        pid: Pid,
        fd: Fd,
        kind: CapKind,
        name: &str,
        rw: (bool, bool),
    ) -> RawCap {
        let fd = CapFd {
            fd,
            pid,
            closes: k.close_queue(),
        };
        RawCap(Rc::new(CapObj {
            kind,
            fd: Some(fd),
            node: None,
            name: name.into(),
            readable: rw.0,
            writable: rw.1,
        }))
    }

    /// Make a pipe-factory capability.
    pub fn pipe_factory() -> RawCap {
        RawCap::factory(CapKind::PipeFactory, "<pipe-factory>")
    }

    /// Make a socket-factory capability.
    pub fn socket_factory() -> RawCap {
        RawCap::factory(CapKind::SocketFactory, "<socket-factory>")
    }

    /// The descriptor in the runtime process, if the capability has one.
    pub fn fd(&self) -> Option<Fd> {
        self.0.fd.as_ref().map(|h| h.fd)
    }

    /// The descriptor, held open by a copy of the capability: deferred
    /// I/O that resolves after the capability itself is gone holds one.
    pub fn fd_handle(&self) -> Option<FdHandle> {
        Some(FdHandle {
            fd: self.fd()?,
            _cap: self.clone(),
        })
    }

    /// Whether `self` and `other` are copies of one capability (one
    /// descriptor).
    pub fn same(&self, other: &RawCap) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }

    fn live_fd(&self) -> SysResult<Fd> {
        self.fd().ok_or(Errno::EBADF)
    }

    pub fn is_dir(&self) -> bool {
        self.kind == CapKind::Dir
    }

    pub fn is_file(&self) -> bool {
        self.kind.is_file_like()
    }

    /// Open a capability for an existing path with the maximum access DAC
    /// grants the process. **Ambient-only**: capability-safe code never
    /// sees paths.
    pub fn open_path(k: &mut Kernel, pid: Pid, path: &str) -> SysResult<RawCap> {
        let name = path.rsplit('/').find(|c| !c.is_empty()).unwrap_or("/");
        let (fd, readable, writable) = Self::open_at(k, pid, None, path)?;
        Self::from_fd(k, pid, fd, name.into(), readable, writable)
    }

    /// Open `path` relative to `dirfd` (shared by `open_path` and
    /// `lookup`). Tries read+write, then degrades, recording what DAC
    /// allowed — "the capability has all privileges that the invoking user
    /// is allowed for this file" (§2.5). A directory refuses the read+write
    /// attempt with `EISDIR` and is opened once more as a directory. Node
    /// and kind come from the descriptor actually opened, so a symlink
    /// yields a capability for its target. Returns the descriptor and
    /// whether it reads and writes.
    fn open_at(
        k: &mut Kernel,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
    ) -> SysResult<(Fd, bool, bool)> {
        let attempts: [(OpenFlags, bool, bool); 3] = [
            (OpenFlags::rdwr(), true, true),
            (OpenFlags::RDONLY, true, false),
            (OpenFlags::wronly(), false, true),
        ];
        for (flags, readable, writable) in attempts {
            match k.openat(pid, dirfd, path, flags, Mode(0)) {
                Ok(fd) => return Ok((fd, readable, writable)),
                Err(Errno::EISDIR) => {
                    let fd = k.openat(pid, dirfd, path, OpenFlags::dir(), Mode(0))?;
                    return Ok((fd, true, false));
                }
                // Only an access denial can clear at a lesser access.
                Err(Errno::EACCES) => {}
                Err(e) => return Err(e),
            }
        }
        Err(Errno::EACCES)
    }

    /// Wrap a vnode descriptor just opened in the runtime process, taking
    /// node and kind from what it names.
    fn from_fd(
        k: &mut Kernel,
        pid: Pid,
        fd: Fd,
        name: Rc<str>,
        readable: bool,
        writable: bool,
    ) -> SysResult<RawCap> {
        let fd = CapFd {
            fd,
            pid,
            closes: k.close_queue(),
        };
        let node = k.process(pid)?.fd_node(fd.fd)?;
        let kind = match k.fs.node(node)?.file_type() {
            FileType::Directory => CapKind::Dir,
            FileType::CharDevice => CapKind::Device,
            FileType::Regular | FileType::Symlink | FileType::Socket => CapKind::File,
            FileType::Fifo => CapKind::PipeEnd,
        };
        Ok(RawCap(Rc::new(CapObj {
            kind,
            fd: Some(fd),
            node: Some(node),
            name,
            readable,
            writable,
        })))
    }

    // --- queries ---------------------------------------------------------

    /// `path` builtin: the paper's `path` syscall, falling back to the
    /// last-known path (§3.1.3) once the name cache no longer covers the
    /// file: the path the filesystem recorded when the file lost its name
    /// while this descriptor held it open ([`Kernel::fd_last_path`]).
    pub fn path(&self, k: &mut Kernel, pid: Pid) -> SysResult<String> {
        let fd = self.live_fd()?;
        match k.path_syscall(pid, fd) {
            Ok(p) => Ok(p),
            Err(Errno::ENOENT) => k.fd_last_path(pid, fd)?.ok_or(Errno::ENOENT),
            Err(e) => Err(e),
        }
    }

    /// `stat` builtin.
    pub fn stat(&self, k: &mut Kernel, pid: Pid) -> SysResult<Stat> {
        k.fstat(pid, self.live_fd()?)
    }

    // --- file operations ---------------------------------------------------

    /// Read the entire contents.
    pub fn read_all(&self, k: &mut Kernel, pid: Pid) -> SysResult<Vec<u8>> {
        let fd = self.live_fd()?;
        if self.kind == CapKind::PipeEnd || self.kind == CapKind::Socket {
            // Drain until EOF/EAGAIN.
            let mut out = Vec::new();
            loop {
                match k.read(pid, fd, 65536) {
                    Ok(chunk) if chunk.is_empty() => break,
                    Ok(chunk) => out.extend(chunk),
                    Err(Errno::EAGAIN) => break,
                    Err(e) => return Err(e),
                }
            }
            return Ok(out);
        }
        let mut out = Vec::new();
        let mut off = 0u64;
        loop {
            let chunk = k.pread(pid, fd, off, 65536)?;
            if chunk.is_empty() {
                break;
            }
            off += chunk.len() as u64;
            out.extend(chunk);
        }
        Ok(out)
    }

    /// Overwrite contents (truncate + write).
    pub fn write_all(&self, k: &mut Kernel, pid: Pid, data: &[u8]) -> SysResult<()> {
        let fd = self.live_fd()?;
        match self.kind {
            CapKind::File => {
                k.ftruncate(pid, fd, 0)?;
                k.pwrite(pid, fd, 0, data)?;
                Ok(())
            }
            CapKind::PipeEnd | CapKind::Socket | CapKind::Device => {
                k.write(pid, fd, data)?;
                Ok(())
            }
            _ => Err(Errno::EISDIR),
        }
    }

    /// Append.
    pub fn append(&self, k: &mut Kernel, pid: Pid, data: &[u8]) -> SysResult<()> {
        k.append_fd(pid, self.live_fd()?, data)?;
        Ok(())
    }

    /// Truncate.
    pub fn truncate(&self, k: &mut Kernel, pid: Pid, len: u64) -> SysResult<()> {
        k.ftruncate(pid, self.live_fd()?, len)
    }

    /// Change mode bits.
    pub fn chmod(&self, k: &mut Kernel, pid: Pid, mode: Mode) -> SysResult<()> {
        k.fchmod(pid, self.live_fd()?, mode)
    }

    // --- directory operations -----------------------------------------------

    /// `contents` builtin: the entry names, each mapped by `each` as it is
    /// read (so a caller that keeps a name copies it once).
    pub fn contents<T>(
        &self,
        k: &mut Kernel,
        pid: Pid,
        each: impl FnMut(&str) -> T,
    ) -> SysResult<Vec<T>> {
        k.readdirfd_map(pid, self.live_fd()?, each)
    }

    /// `lookup` builtin: derive a capability for a direct child. Single
    /// component only; `.` and `..` refused (capability safety, §2.1).
    /// The child is named by `name` itself: an `Rc<str>` is shared, not
    /// copied, and nothing is copied when the lookup fails.
    pub fn lookup(&self, k: &mut Kernel, pid: Pid, name: impl Name) -> SysResult<RawCap> {
        single_component(name.as_ref())?;
        let (fd, readable, writable) = Self::open_at(k, pid, Some(self.live_fd()?), name.as_ref())?;
        Self::from_fd(k, pid, fd, name.into(), readable, writable)
    }

    /// Create a file in this directory, deriving a capability for it.
    pub fn create_file(
        &self,
        k: &mut Kernel,
        pid: Pid,
        name: impl Name,
        mode: Mode,
    ) -> SysResult<RawCap> {
        single_component(name.as_ref())?;
        let dirfd = self.live_fd()?;
        let mut flags = OpenFlags::rdwr();
        flags.create = true;
        flags.exclusive = true;
        let fd = k.openat(pid, Some(dirfd), name.as_ref(), flags, mode)?;
        Self::from_fd(k, pid, fd, name.into(), true, true)
    }

    /// Create a subdirectory, deriving a capability (uses the paper's
    /// fd-returning `mkdirat`).
    pub fn create_dir(
        &self,
        k: &mut Kernel,
        pid: Pid,
        name: impl Name,
        mode: Mode,
    ) -> SysResult<RawCap> {
        single_component(name.as_ref())?;
        let dirfd = self.live_fd()?;
        let fd = k.mkdirat(pid, Some(dirfd), name.as_ref(), mode)?;
        Self::from_fd(k, pid, fd, name.into(), true, false)
    }

    /// Remove a file link in this directory. Uses the TOCTTOU-safe
    /// `funlinkat` when the caller supplies the expected file capability.
    pub fn unlink_file(&self, k: &mut Kernel, pid: Pid, name: &str) -> SysResult<()> {
        single_component(name)?;
        k.unlinkat(pid, Some(self.live_fd()?), name, false)
    }

    /// TOCTTOU-safe unlink: remove `name` only if it still refers to `file`.
    pub fn unlink_exactly(
        &self,
        k: &mut Kernel,
        pid: Pid,
        file: &RawCap,
        name: &str,
    ) -> SysResult<()> {
        k.funlinkat(pid, self.live_fd()?, file.live_fd()?, name)
    }

    /// Remove an empty subdirectory.
    pub fn unlink_dir(&self, k: &mut Kernel, pid: Pid, name: &str) -> SysResult<()> {
        single_component(name)?;
        k.unlinkat(pid, Some(self.live_fd()?), name, true)
    }

    /// Remove a symlink.
    pub fn unlink_symlink(&self, k: &mut Kernel, pid: Pid, name: &str) -> SysResult<()> {
        self.unlink_file(k, pid, name)
    }

    /// Read a symlink target within this directory.
    pub fn read_symlink(&self, k: &mut Kernel, pid: Pid, name: &str) -> SysResult<String> {
        single_component(name)?;
        k.readlinkat(pid, Some(self.live_fd()?), name)
    }

    /// Install a hard link to `file` under `name` (the paper's `flinkat`).
    pub fn link(&self, k: &mut Kernel, pid: Pid, file: &RawCap, name: &str) -> SysResult<()> {
        k.flinkat(pid, file.live_fd()?, self.live_fd()?, name)
    }

    /// Move `file` (verified linked at `oldname` here) into `dst/newname`
    /// (the paper's `frenameat`).
    pub fn rename_into(
        &self,
        k: &mut Kernel,
        pid: Pid,
        file: &RawCap,
        oldname: &str,
        dst: &RawCap,
        newname: &str,
    ) -> SysResult<()> {
        k.frenameat(
            pid,
            file.live_fd()?,
            self.live_fd()?,
            oldname,
            dst.live_fd()?,
            newname,
        )
    }

    // --- factories -----------------------------------------------------------

    /// Pipe factory `create`: returns `(read_end, write_end)` capabilities.
    pub fn create_pipe(&self, k: &mut Kernel, pid: Pid) -> SysResult<(RawCap, RawCap)> {
        if self.kind != CapKind::PipeFactory {
            return Err(Errno::EINVAL);
        }
        let (r, w) = k.pipe(pid)?;
        Ok((
            RawCap::with_fd(k, pid, r, CapKind::PipeEnd, "<pipe-r>", (true, false)),
            RawCap::with_fd(k, pid, w, CapKind::PipeEnd, "<pipe-w>", (false, true)),
        ))
    }

    /// Socket factory `create`.
    pub fn create_socket(&self, k: &mut Kernel, pid: Pid, domain: SockDomain) -> SysResult<RawCap> {
        if self.kind != CapKind::SocketFactory {
            return Err(Errno::EINVAL);
        }
        let fd = k.socket(pid, domain)?;
        Ok(RawCap::with_fd(
            k,
            pid,
            fd,
            CapKind::Socket,
            "<socket>",
            (true, true),
        ))
    }

    /// Connect a socket capability.
    pub fn sock_connect(&self, k: &mut Kernel, pid: Pid, addr: SockAddr) -> SysResult<()> {
        k.connect(pid, self.live_fd()?, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_vfs::{Cred, Gid, Uid};

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        k.fs.put_file(
            "/home/alice/dog.jpg",
            b"JPG",
            Mode::FILE_DEFAULT,
            Uid(100),
            Gid(100),
        )
        .unwrap();
        k.fs.put_file(
            "/home/alice/notes.txt",
            b"text",
            Mode::FILE_DEFAULT,
            Uid(100),
            Gid(100),
        )
        .unwrap();
        k.fs.mkdir_p("/home/alice/sub", Mode::DIR_DEFAULT, Uid(100), Gid(100))
            .unwrap();
        let pid = k.spawn_user(Cred::user(100));
        (k, pid)
    }

    #[test]
    fn open_path_and_queries() {
        let (mut k, pid) = setup();
        let cap = RawCap::open_path(&mut k, pid, "/home/alice/dog.jpg").unwrap();
        assert!(cap.is_file());
        assert!(!cap.is_dir());
        assert_eq!(&*cap.name, "dog.jpg");
        assert_eq!(cap.path(&mut k, pid).unwrap(), "/home/alice/dog.jpg");
        assert_eq!(cap.read_all(&mut k, pid).unwrap(), b"JPG");
    }

    #[test]
    fn dir_contents_and_lookup() {
        let (mut k, pid) = setup();
        let dir = RawCap::open_path(&mut k, pid, "/home/alice").unwrap();
        assert!(dir.is_dir());
        let names = dir.contents(&mut k, pid, str::to_owned).unwrap();
        assert_eq!(names, vec!["dog.jpg", "notes.txt", "sub"]);
        let child = dir.lookup(&mut k, pid, "dog.jpg").unwrap();
        assert_eq!(child.read_all(&mut k, pid).unwrap(), b"JPG");
    }

    #[test]
    fn derivation_walks_one_component_at_any_depth() {
        for depth in [2, 9] {
            let mut k = Kernel::new();
            let dir: String = (1..=depth).map(|i| format!("/d{i}")).collect();
            let (uid, gid) = (Uid(100), Gid(100));
            k.fs.put_file(&format!("{dir}/f"), b"x", Mode::FILE_DEFAULT, uid, gid)
                .unwrap();
            k.fs.mkdir_p(&format!("{dir}/sub"), Mode::DIR_DEFAULT, uid, gid)
                .unwrap();
            let pid = k.spawn_user(Cred::user(100));
            let parent = RawCap::open_path(&mut k, pid, &dir).unwrap();
            let mut derive = |name: &str| {
                let before = k.stats_snapshot().lookups;
                let cap = parent.lookup(&mut k, pid, name).unwrap();
                (cap, k.stats_snapshot().lookups - before)
            };
            let (file, walked) = derive("f");
            assert!(file.is_file() && file.readable && file.writable);
            assert_eq!(walked, 1, "file under a depth-{depth} directory");
            let (sub, walked) = derive("sub");
            assert!(sub.is_dir());
            assert!(
                walked <= 2,
                "directory under depth {depth}: {walked} lookups"
            );
        }
    }

    #[test]
    fn lookup_refuses_dotdot_and_multi() {
        let (mut k, pid) = setup();
        let dir = RawCap::open_path(&mut k, pid, "/home/alice/sub").unwrap();
        assert_eq!(dir.lookup(&mut k, pid, "..").unwrap_err(), Errno::EINVAL);
        assert_eq!(dir.lookup(&mut k, pid, ".").unwrap_err(), Errno::EINVAL);
        assert_eq!(dir.lookup(&mut k, pid, "a/b").unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (mut k, pid) = setup();
        let dir = RawCap::open_path(&mut k, pid, "/home/alice").unwrap();
        let f = dir
            .create_file(&mut k, pid, "new.txt", Mode::FILE_DEFAULT)
            .unwrap();
        f.write_all(&mut k, pid, b"hello").unwrap();
        f.append(&mut k, pid, b" world").unwrap();
        assert_eq!(f.read_all(&mut k, pid).unwrap(), b"hello world");
        let d = dir
            .create_dir(&mut k, pid, "work", Mode::DIR_DEFAULT)
            .unwrap();
        assert!(d.is_dir());
        assert!(k.fs.resolve_abs("/home/alice/work").is_ok());
    }

    #[test]
    fn unlink_and_toctou_safe_variant() {
        let (mut k, pid) = setup();
        let dir = RawCap::open_path(&mut k, pid, "/home/alice").unwrap();
        let f = dir.lookup(&mut k, pid, "notes.txt").unwrap();
        dir.unlink_exactly(&mut k, pid, &f, "notes.txt").unwrap();
        assert!(k.fs.resolve_abs("/home/alice/notes.txt").is_err());
        dir.unlink_file(&mut k, pid, "dog.jpg").unwrap();
        assert!(k.fs.resolve_abs("/home/alice/dog.jpg").is_err());
    }

    #[test]
    fn pipe_factory_roundtrip() {
        let (mut k, pid) = setup();
        let factory = RawCap::pipe_factory();
        let (r, w) = factory.create_pipe(&mut k, pid).unwrap();
        w.append(&mut k, pid, b"through").unwrap();
        assert_eq!(r.read_all(&mut k, pid).unwrap(), b"through");
        // A file capability is not a pipe factory.
        let dir = RawCap::open_path(&mut k, pid, "/home/alice").unwrap();
        assert_eq!(dir.create_pipe(&mut k, pid).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn socket_factory_roundtrip() {
        let (mut k, pid) = setup();
        let addr = SockAddr::Inet {
            host: "mirror".into(),
            port: 80,
        };
        k.net
            .register_remote(addr.clone(), Box::new(|_| b"tarball".to_vec()));
        let factory = RawCap::socket_factory();
        let sock = factory
            .create_socket(&mut k, pid, SockDomain::Inet)
            .unwrap();
        sock.sock_connect(&mut k, pid, addr).unwrap();
        sock.write_all(&mut k, pid, b"GET").unwrap();
        assert_eq!(sock.read_all(&mut k, pid).unwrap(), b"tarball");
    }

    #[test]
    fn dac_limits_capability_creation() {
        let (mut k, _) = setup();
        k.fs.put_file(
            "/home/alice/private",
            b"secret",
            Mode(0o600),
            Uid(100),
            Gid(100),
        )
        .unwrap();
        let stranger = k.spawn_user(Cred::user(999));
        assert_eq!(
            RawCap::open_path(&mut k, stranger, "/home/alice/private").unwrap_err(),
            Errno::EACCES
        );
        // Alice herself can.
        let alice = k.spawn_user(Cred::user(100));
        let cap = RawCap::open_path(&mut k, alice, "/home/alice/private").unwrap();
        assert!(cap.readable && cap.writable);
    }

    #[test]
    fn readonly_file_gets_readonly_cap() {
        let (mut k, _) = setup();
        k.fs.put_file("/etc/conf", b"cfg", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let user = k.spawn_user(Cred::user(100));
        let cap = RawCap::open_path(&mut k, user, "/etc/conf").unwrap();
        assert!(cap.readable);
        assert!(!cap.writable);
        assert_eq!(cap.write_all(&mut k, user, b"x").unwrap_err(), Errno::EBADF);
    }
}
