//! File, pipe, socket, and system-surface system calls, plus `exec`.
//!
//! Every syscall follows the paper's enforcement order (§2.3): the
//! operation must pass **both** the operating system's DAC checks and the
//! MAC framework's policy checks ("an operation on a resource by a sandboxed
//! execution is permitted only if it passes the checks performed by the
//! operating system based on the user's ambient authority and is also
//! permitted by the capabilities possessed by the sandbox").

use shill_vfs::{
    dac, Access, DeviceKind, Errno, FileType, Gid, Mode, NodeBody, NodeId, Stat, SysResult, Uid,
};

use crate::kernel::{ExecHandler, Kernel};
use crate::mac::{PipeOp, SocketOp, SystemOp, VnodeOp};
use crate::process::{FdObject, OpenFile};
use crate::stats::KernelStats;
use crate::types::{Fd, ObjId, OpenFlags, Pid, PipeEnd, SockAddr, SockDomain, SockId};

impl Kernel {
    fn dac_node(&self, pid: Pid, node: NodeId, access: Access) -> SysResult<()> {
        let cred = self.process(pid)?.cred;
        if dac::check_access(self.fs.node(node)?, cred, access) {
            Ok(())
        } else {
            Err(Errno::EACCES)
        }
    }

    // --- open/close -------------------------------------------------------

    /// `openat(2)`. `dirfd = None` resolves relative paths against the cwd.
    pub fn openat(
        &mut self,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
        flags: OpenFlags,
        mode: Mode,
    ) -> SysResult<Fd> {
        self.charge(pid)?;
        let lk = self.namei(pid, dirfd, path, !flags.nofollow, flags.create)?;
        let node = match lk.node {
            Some(n) => {
                if flags.create && flags.exclusive {
                    return Err(Errno::EEXIST);
                }
                n
            }
            None => {
                if !flags.create {
                    return Err(Errno::ENOENT);
                }
                // Create path: DAC write + MAC create-file on the parent.
                self.dac_node(pid, lk.parent, Access::Write)?;
                self.mac_vnode(pid, lk.parent, &VnodeOp::CreateFile(&lk.name))?;
                let cred = self.process(pid)?.cred;
                let n = self
                    .fs
                    .create_file(lk.parent, &lk.name, mode, cred.uid, cred.gid)?;
                self.mac_post_create(pid, lk.parent, &lk.name, n, FileType::Regular);
                n
            }
        };
        let vn = self.fs.node(node)?;
        let ftype = vn.file_type();
        if flags.directory && ftype != FileType::Directory {
            return Err(Errno::ENOTDIR);
        }
        if ftype == FileType::Directory && (flags.write || flags.truncate) {
            return Err(Errno::EISDIR);
        }
        if ftype == FileType::Symlink {
            // Only reachable with nofollow.
            return Err(Errno::ELOOP);
        }
        // DAC at open time, as Unix does.
        if flags.read {
            self.dac_node(pid, node, Access::Read)?;
        }
        if flags.write || flags.append || flags.truncate {
            self.dac_node(pid, node, Access::Write)?;
        }
        // MAC at open time. Character devices are still checked at *open*;
        // it is per-byte read/write the framework cannot see (§3.2.3).
        // Opening a directory checks nothing extra: a directory descriptor
        // serves lookups as well as listings, and listing is checked in
        // `readdirfd`.
        if flags.read && ftype != FileType::Directory {
            self.mac_vnode(pid, node, &VnodeOp::Read)?;
        }
        if flags.write || flags.append {
            self.mac_vnode(pid, node, &VnodeOp::Write)?;
        }
        if flags.truncate && ftype == FileType::Regular {
            self.mac_vnode(pid, node, &VnodeOp::Truncate)?;
            self.fs.truncate(node, 0)?;
        }
        self.install_vnode_fd(
            pid,
            node,
            flags.read,
            flags.write || flags.append,
            flags.append,
        )
    }

    /// `open(2)`: cwd-relative `openat`.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags, mode: Mode) -> SysResult<Fd> {
        self.openat(pid, None, path, flags, mode)
    }

    // --- read/write -------------------------------------------------------

    fn device_read(&mut self, kind: DeviceKind, len: usize) -> Vec<u8> {
        match kind {
            DeviceKind::Null | DeviceKind::Tty => Vec::new(),
            DeviceKind::Zero => vec![0u8; len],
            DeviceKind::Random => (0..len).map(|_| self.next_random()).collect(),
        }
    }

    /// `read(2)`: read at the descriptor offset, advancing it.
    pub fn read(&mut self, pid: Pid, fd: Fd, len: usize) -> SysResult<Vec<u8>> {
        self.charge(pid)?;
        let (object, offset, readable) = {
            let of = self.process(pid)?.file(fd)?;
            (of.object.clone(), of.offset, of.readable)
        };
        match object {
            FdObject::Vnode(node) => {
                if !readable {
                    return Err(Errno::EBADF);
                }
                let body_kind = self.fs.node(node)?.file_type();
                match body_kind {
                    FileType::Regular => {
                        // Per-operation MAC check: this is the interposition
                        // the Figure 11 microbenchmarks measure.
                        self.mac_vnode(pid, node, &VnodeOp::Read)?;
                        let data = self.fs.read(node, offset, len)?;
                        self.process_mut(pid)?.file_mut(fd)?.offset += data.len() as u64;
                        Ok(data)
                    }
                    FileType::CharDevice => {
                        // §3.2.3: "The MAC framework does not interpose on
                        // read or write operations on character devices."
                        let kind = match &self.fs.node(node)?.body {
                            NodeBody::CharDevice(k) => *k,
                            _ => unreachable!(),
                        };
                        Ok(self.device_read(kind, len))
                    }
                    FileType::Directory => Err(Errno::EISDIR),
                    _ => Err(Errno::EINVAL),
                }
            }
            FdObject::Pipe(id, end) => {
                if end != PipeEnd::Read {
                    return Err(Errno::EBADF);
                }
                self.mac_pipe(pid, ObjId::Pipe(id), PipeOp::Read)?;
                self.pipes.read(id, len)
            }
            FdObject::Socket(s) => {
                self.mac_socket(pid, ObjId::Socket(s), &SocketOp::Recv)?;
                self.net.recv(s, len)
            }
        }
    }

    /// `pread(2)`: positional read; does not move the offset.
    pub fn pread(&mut self, pid: Pid, fd: Fd, offset: u64, len: usize) -> SysResult<Vec<u8>> {
        self.charge(pid)?;
        let (object, readable) = {
            let of = self.process(pid)?.file(fd)?;
            (of.object.clone(), of.readable)
        };
        match object {
            FdObject::Vnode(node) => {
                if !readable {
                    return Err(Errno::EBADF);
                }
                match self.fs.node(node)?.file_type() {
                    FileType::Regular => {
                        self.mac_vnode(pid, node, &VnodeOp::Read)?;
                        self.fs.read(node, offset, len)
                    }
                    FileType::CharDevice => {
                        let kind = match &self.fs.node(node)?.body {
                            NodeBody::CharDevice(k) => *k,
                            _ => unreachable!(),
                        };
                        Ok(self.device_read(kind, len))
                    }
                    FileType::Directory => Err(Errno::EISDIR),
                    _ => Err(Errno::EINVAL),
                }
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// `write(2)` at the descriptor offset (or EOF for append-mode fds).
    pub fn write(&mut self, pid: Pid, fd: Fd, buf: &[u8]) -> SysResult<usize> {
        self.charge(pid)?;
        let (object, offset, writable, append) = {
            let of = self.process(pid)?.file(fd)?;
            (of.object.clone(), of.offset, of.writable, of.append)
        };
        match object {
            FdObject::Vnode(node) => {
                if !writable {
                    return Err(Errno::EBADF);
                }
                match self.fs.node(node)?.file_type() {
                    FileType::Regular => {
                        // One MAC entry point for write AND append (§3.2.3):
                        // the framework cannot tell them apart.
                        self.mac_vnode(pid, node, &VnodeOp::Write)?;
                        let at = if append {
                            self.fs.node(node)?.file_data()?.len() as u64
                        } else {
                            offset
                        };
                        let max = self.process(pid)?.ulimits.max_file_size;
                        if at.saturating_add(buf.len() as u64) > max {
                            return Err(Errno::EFBIG);
                        }
                        let n = self.fs.write(node, at, buf)?;
                        self.process_mut(pid)?.file_mut(fd)?.offset = at + n as u64;
                        Ok(n)
                    }
                    FileType::CharDevice => {
                        let kind = match &self.fs.node(node)?.body {
                            NodeBody::CharDevice(k) => *k,
                            _ => unreachable!(),
                        };
                        if kind == DeviceKind::Tty {
                            self.console.extend_from_slice(buf);
                        }
                        Ok(buf.len())
                    }
                    FileType::Directory => Err(Errno::EISDIR),
                    _ => Err(Errno::EINVAL),
                }
            }
            FdObject::Pipe(id, end) => {
                if end != PipeEnd::Write {
                    return Err(Errno::EBADF);
                }
                self.mac_pipe(pid, ObjId::Pipe(id), PipeOp::Write)?;
                self.pipes.write(id, buf)
            }
            FdObject::Socket(s) => {
                self.mac_socket(pid, ObjId::Socket(s), &SocketOp::Send)?;
                self.net.send(s, buf)
            }
        }
    }

    /// `pwrite(2)`: positional write; does not move the offset.
    pub fn pwrite(&mut self, pid: Pid, fd: Fd, offset: u64, buf: &[u8]) -> SysResult<usize> {
        self.charge(pid)?;
        let (object, writable) = {
            let of = self.process(pid)?.file(fd)?;
            (of.object.clone(), of.writable)
        };
        match object {
            FdObject::Vnode(node) => {
                if !writable {
                    return Err(Errno::EBADF);
                }
                match self.fs.node(node)?.file_type() {
                    FileType::Regular => {
                        self.mac_vnode(pid, node, &VnodeOp::Write)?;
                        let max = self.process(pid)?.ulimits.max_file_size;
                        if offset.saturating_add(buf.len() as u64) > max {
                            return Err(Errno::EFBIG);
                        }
                        self.fs.write(node, offset, buf)
                    }
                    FileType::CharDevice => Ok(buf.len()),
                    FileType::Directory => Err(Errno::EISDIR),
                    _ => Err(Errno::EINVAL),
                }
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// Append to a regular file regardless of the descriptor offset.
    /// Convenience for the SHILL runtime's `append` builtin; emits the same
    /// single MAC `Write` entry point as `write` (§3.2.3 granularity).
    pub fn append_fd(&mut self, pid: Pid, fd: Fd, buf: &[u8]) -> SysResult<usize> {
        self.charge(pid)?;
        let (object, writable) = {
            let of = self.process(pid)?.file(fd)?;
            (of.object.clone(), of.writable)
        };
        match object {
            FdObject::Vnode(node) => {
                if !writable {
                    return Err(Errno::EBADF);
                }
                match self.fs.node(node)?.file_type() {
                    FileType::Regular => {
                        self.mac_vnode(pid, node, &VnodeOp::Write)?;
                        let at = self.fs.node(node)?.file_data()?.len() as u64;
                        let max = self.process(pid)?.ulimits.max_file_size;
                        if at.saturating_add(buf.len() as u64) > max {
                            return Err(Errno::EFBIG);
                        }
                        self.fs.write(node, at, buf)
                    }
                    FileType::CharDevice => {
                        let kind = match &self.fs.node(node)?.body {
                            NodeBody::CharDevice(k) => *k,
                            _ => unreachable!(),
                        };
                        if kind == DeviceKind::Tty {
                            self.console.extend_from_slice(buf);
                        }
                        Ok(buf.len())
                    }
                    _ => Err(Errno::EINVAL),
                }
            }
            FdObject::Pipe(id, end) => {
                if end != PipeEnd::Write {
                    return Err(Errno::EBADF);
                }
                self.mac_pipe(pid, ObjId::Pipe(id), PipeOp::Write)?;
                self.pipes.write(id, buf)
            }
            FdObject::Socket(s) => {
                self.mac_socket(pid, ObjId::Socket(s), &SocketOp::Send)?;
                self.net.send(s, buf)
            }
        }
    }

    /// `lseek(2)` (absolute positioning only; that is all callers need).
    pub fn lseek(&mut self, pid: Pid, fd: Fd, offset: u64) -> SysResult<u64> {
        self.charge(pid)?;
        let of = self.process_mut(pid)?.file_mut(fd)?;
        of.offset = offset;
        Ok(offset)
    }

    // --- metadata ---------------------------------------------------------

    /// `fstat(2)`.
    pub fn fstat(&mut self, pid: Pid, fd: Fd) -> SysResult<Stat> {
        self.charge(pid)?;
        match self.process(pid)?.file(fd)?.object {
            FdObject::Vnode(node) => {
                self.mac_vnode(pid, node, &VnodeOp::Stat)?;
                Ok(self.fs.node(node)?.stat())
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// `fstatat(2)`.
    pub fn fstatat(
        &mut self,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
        follow: bool,
    ) -> SysResult<Stat> {
        self.charge(pid)?;
        let node = self.resolve(pid, dirfd, path, follow)?;
        self.mac_vnode(pid, node, &VnodeOp::Stat)?;
        Ok(self.fs.node(node)?.stat())
    }

    /// List a directory open at `fd` (`getdirentries`).
    pub fn readdirfd(&mut self, pid: Pid, fd: Fd) -> SysResult<Vec<String>> {
        self.charge(pid)?;
        let node = self.process(pid)?.fd_node(fd)?;
        self.dac_node(pid, node, Access::Read)?;
        self.mac_vnode(pid, node, &VnodeOp::ReadDir)?;
        self.fs.readdir(node)
    }

    /// `readlinkat(2)`.
    pub fn readlinkat(&mut self, pid: Pid, dirfd: Option<Fd>, path: &str) -> SysResult<String> {
        self.charge(pid)?;
        let node = self.resolve(pid, dirfd, path, false)?;
        self.mac_vnode(pid, node, &VnodeOp::ReadSymlink)?;
        self.fs.readlink(node)
    }

    /// `fchmod(2)`.
    pub fn fchmod(&mut self, pid: Pid, fd: Fd, mode: Mode) -> SysResult<()> {
        self.charge(pid)?;
        let node = self.process(pid)?.fd_node(fd)?;
        self.chmod_node(pid, node, mode)
    }

    /// `fchmodat(2)`.
    pub fn fchmodat(
        &mut self,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
        mode: Mode,
    ) -> SysResult<()> {
        self.charge(pid)?;
        let node = self.resolve(pid, dirfd, path, true)?;
        self.chmod_node(pid, node, mode)
    }

    fn chmod_node(&mut self, pid: Pid, node: NodeId, mode: Mode) -> SysResult<()> {
        let cred = self.process(pid)?.cred;
        let n = self.fs.node(node)?;
        if !cred.is_root() && cred.uid != n.uid {
            return Err(Errno::EPERM);
        }
        self.mac_vnode(pid, node, &VnodeOp::Chmod)?;
        self.fs.chmod(node, mode)
    }

    /// `fchown(2)` (root only, as on Unix).
    pub fn fchown(&mut self, pid: Pid, fd: Fd, uid: Uid, gid: Gid) -> SysResult<()> {
        self.charge(pid)?;
        let node = self.process(pid)?.fd_node(fd)?;
        if !self.process(pid)?.cred.is_root() {
            return Err(Errno::EPERM);
        }
        self.mac_vnode(pid, node, &VnodeOp::Chown)?;
        self.fs.chown(node, uid, gid)
    }

    /// `futimes(2)` — modeled as touching mtime.
    pub fn futimes(&mut self, pid: Pid, fd: Fd) -> SysResult<()> {
        self.charge(pid)?;
        let node = self.process(pid)?.fd_node(fd)?;
        self.dac_node(pid, node, Access::Write)?;
        self.mac_vnode(pid, node, &VnodeOp::Utimes)?;
        // Touch by a zero-length truncate-to-same-size write equivalent:
        let len = self.fs.node(node)?.size();
        if self.fs.node(node)?.is_file() {
            self.fs.truncate(node, len)?;
        }
        Ok(())
    }

    /// `ftruncate(2)`.
    pub fn ftruncate(&mut self, pid: Pid, fd: Fd, len: u64) -> SysResult<()> {
        self.charge(pid)?;
        let (node, writable) = {
            let of = self.process(pid)?.file(fd)?;
            match of.object {
                FdObject::Vnode(n) => (n, of.writable),
                _ => return Err(Errno::EINVAL),
            }
        };
        if !writable {
            return Err(Errno::EBADF);
        }
        self.mac_vnode(pid, node, &VnodeOp::Truncate)?;
        if len > self.process(pid)?.ulimits.max_file_size {
            return Err(Errno::EFBIG);
        }
        self.fs.truncate(node, len)
    }

    // --- namespace mutation -----------------------------------------------

    /// `mkdirat(2)`, with the paper's extension: returns a descriptor for
    /// the newly created directory (§3.1.3: "a version of mkdirat that
    /// returns a file descriptor for the newly created directory").
    pub fn mkdirat(
        &mut self,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
        mode: Mode,
    ) -> SysResult<Fd> {
        self.charge(pid)?;
        let lk = self.namei(pid, dirfd, path, true, true)?;
        if lk.node.is_some() {
            return Err(Errno::EEXIST);
        }
        self.dac_node(pid, lk.parent, Access::Write)?;
        self.mac_vnode(pid, lk.parent, &VnodeOp::CreateDir(&lk.name))?;
        let cred = self.process(pid)?.cred;
        let node = self
            .fs
            .create_dir(lk.parent, &lk.name, mode, cred.uid, cred.gid)?;
        self.mac_post_create(pid, lk.parent, &lk.name, node, FileType::Directory);
        self.install_vnode_fd(pid, node, true, false, false)
    }

    /// `symlinkat(2)`.
    pub fn symlinkat(
        &mut self,
        pid: Pid,
        target: &str,
        dirfd: Option<Fd>,
        path: &str,
    ) -> SysResult<()> {
        self.charge(pid)?;
        let lk = self.namei(pid, dirfd, path, false, true)?;
        if lk.node.is_some() {
            return Err(Errno::EEXIST);
        }
        self.dac_node(pid, lk.parent, Access::Write)?;
        self.mac_vnode(pid, lk.parent, &VnodeOp::CreateSymlink(&lk.name))?;
        let cred = self.process(pid)?.cred;
        let node = self
            .fs
            .create_symlink(lk.parent, &lk.name, target, cred.uid, cred.gid)?;
        self.mac_post_create(pid, lk.parent, &lk.name, node, FileType::Symlink);
        Ok(())
    }

    /// `unlinkat(2)`; `remove_dir` selects `AT_REMOVEDIR` behaviour.
    pub fn unlinkat(
        &mut self,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
        remove_dir: bool,
    ) -> SysResult<()> {
        self.charge(pid)?;
        let lk = self.namei(pid, dirfd, path, false, true)?;
        let node = lk.node.ok_or(Errno::ENOENT)?;
        self.dac_node(pid, lk.parent, Access::Write)?;
        let ftype = self.fs.node(node)?.file_type();
        let op = match (remove_dir, ftype) {
            (true, FileType::Directory) => VnodeOp::UnlinkDir(&lk.name),
            (true, _) => return Err(Errno::ENOTDIR),
            (false, FileType::Directory) => return Err(Errno::EISDIR),
            (false, FileType::Symlink) => VnodeOp::UnlinkSymlink(&lk.name),
            (false, _) => VnodeOp::UnlinkFile(&lk.name),
        };
        self.mac_vnode(pid, lk.parent, &op)?;
        if remove_dir {
            self.fs.rmdir(lk.parent, &lk.name)?;
        } else {
            self.fs.unlink(lk.parent, &lk.name)?;
        }
        if !self.fs.exists(node) {
            self.notify_vnode_destroy(node);
        }
        Ok(())
    }

    /// The paper's new `funlinkat`: remove the link `name` in the directory
    /// open at `dirfd` **only if** it still refers to the file open at
    /// `filefd`, closing the TOCTTOU gap of path-based `unlinkat` (§3.1.3).
    pub fn funlinkat(&mut self, pid: Pid, dirfd: Fd, filefd: Fd, name: &str) -> SysResult<()> {
        self.charge(pid)?;
        let dir = self.process(pid)?.fd_node(dirfd)?;
        let file = self.process(pid)?.fd_node(filefd)?;
        if !shill_vfs::node::valid_component(name) || name == "." || name == ".." {
            return Err(Errno::EINVAL);
        }
        let linked = self.fs.lookup(dir, name)?;
        if linked != file {
            // The name no longer refers to the expected file.
            return Err(Errno::EINVAL);
        }
        self.dac_node(pid, dir, Access::Write)?;
        let ftype = self.fs.node(file)?.file_type();
        let op = match ftype {
            FileType::Symlink => VnodeOp::UnlinkSymlink(name),
            FileType::Directory => return Err(Errno::EISDIR),
            _ => VnodeOp::UnlinkFile(name),
        };
        self.mac_vnode(pid, dir, &op)?;
        self.fs.unlink(dir, name)?;
        if !self.fs.exists(file) {
            self.notify_vnode_destroy(file);
        }
        Ok(())
    }

    /// `linkat(2)` (path-designated source, as on FreeBSD).
    pub fn linkat(
        &mut self,
        pid: Pid,
        srcdirfd: Option<Fd>,
        srcpath: &str,
        dstdirfd: Option<Fd>,
        dstpath: &str,
    ) -> SysResult<()> {
        self.charge(pid)?;
        let src = self.resolve(pid, srcdirfd, srcpath, false)?;
        self.flink_node(pid, src, dstdirfd, dstpath)
    }

    /// The paper's new `flinkat`: install a link to the **file open at
    /// `filefd`** (not a path) into a directory (§3.1.3).
    pub fn flinkat(&mut self, pid: Pid, filefd: Fd, dstdirfd: Fd, name: &str) -> SysResult<()> {
        self.charge(pid)?;
        let file = self.process(pid)?.fd_node(filefd)?;
        let dir = self.process(pid)?.fd_node(dstdirfd)?;
        if !shill_vfs::node::valid_component(name) || name == "." || name == ".." {
            return Err(Errno::EINVAL);
        }
        self.dac_node(pid, dir, Access::Write)?;
        self.mac_vnode(pid, dir, &VnodeOp::Link(name))?;
        self.fs.link(dir, name, file)
    }

    fn flink_node(
        &mut self,
        pid: Pid,
        src: NodeId,
        dstdirfd: Option<Fd>,
        dstpath: &str,
    ) -> SysResult<()> {
        let lk = self.namei(pid, dstdirfd, dstpath, false, true)?;
        if lk.node.is_some() {
            return Err(Errno::EEXIST);
        }
        self.dac_node(pid, lk.parent, Access::Write)?;
        self.mac_vnode(pid, lk.parent, &VnodeOp::Link(&lk.name))?;
        self.fs.link(lk.parent, &lk.name, src)
    }

    /// `renameat(2)`.
    pub fn renameat(
        &mut self,
        pid: Pid,
        srcdirfd: Option<Fd>,
        srcpath: &str,
        dstdirfd: Option<Fd>,
        dstpath: &str,
    ) -> SysResult<()> {
        self.charge(pid)?;
        let s = self.namei(pid, srcdirfd, srcpath, false, true)?;
        s.node.ok_or(Errno::ENOENT)?;
        let d = self.namei(pid, dstdirfd, dstpath, false, true)?;
        self.dac_node(pid, s.parent, Access::Write)?;
        self.dac_node(pid, d.parent, Access::Write)?;
        self.mac_vnode(pid, s.parent, &VnodeOp::RenameFrom(&s.name))?;
        self.mac_vnode(pid, d.parent, &VnodeOp::RenameTo(&d.name))?;
        let replaced = d.node;
        self.fs.rename(s.parent, &s.name, d.parent, &d.name)?;
        if let Some(r) = replaced {
            if !self.fs.exists(r) {
                self.notify_vnode_destroy(r);
            }
        }
        Ok(())
    }

    /// The paper's new `frenameat`: like `funlinkat` but re-installs the
    /// link in a target directory — move the **file open at `filefd`**,
    /// verified to still be linked at `srcdirfd/name`, to `dstdirfd/newname`.
    #[allow(clippy::too_many_arguments)]
    pub fn frenameat(
        &mut self,
        pid: Pid,
        filefd: Fd,
        srcdirfd: Fd,
        name: &str,
        dstdirfd: Fd,
        newname: &str,
    ) -> SysResult<()> {
        self.charge(pid)?;
        let file = self.process(pid)?.fd_node(filefd)?;
        let sdir = self.process(pid)?.fd_node(srcdirfd)?;
        let ddir = self.process(pid)?.fd_node(dstdirfd)?;
        if self.fs.lookup(sdir, name)? != file {
            return Err(Errno::EINVAL);
        }
        if !shill_vfs::node::valid_component(newname) || newname == "." || newname == ".." {
            return Err(Errno::EINVAL);
        }
        self.dac_node(pid, sdir, Access::Write)?;
        self.dac_node(pid, ddir, Access::Write)?;
        self.mac_vnode(pid, sdir, &VnodeOp::RenameFrom(name))?;
        self.mac_vnode(pid, ddir, &VnodeOp::RenameTo(newname))?;
        self.fs.rename(sdir, name, ddir, newname)
    }

    // --- fd → path (the paper's `path` syscall) ----------------------------

    /// The paper's new `path` system call: "attempts to retrieve an
    /// accessible path for a file descriptor from the filesystem's lookup
    /// cache" (§3.1.3). `ENOENT` when the cache no longer covers the node;
    /// the SHILL runtime then falls back to [`Kernel::fd_last_path`].
    pub fn path_syscall(&mut self, pid: Pid, fd: Fd) -> SysResult<String> {
        self.charge(pid)?;
        let node = self.process(pid)?.fd_node(fd)?;
        self.mac_vnode(pid, node, &VnodeOp::PathLookup)?;
        self.fs.path_of(node).ok_or(Errno::ENOENT)
    }

    /// The last path at which a descriptor's vnode was reachable, recorded
    /// by the filesystem when the name went (runtime-side fallback for
    /// `path`). `None` while the name cache still covers the node, and for
    /// pipes and sockets.
    pub fn fd_last_path(&self, pid: Pid, fd: Fd) -> SysResult<Option<String>> {
        Ok(match self.process(pid)?.file(fd)?.object {
            FdObject::Vnode(n) => self.fs.last_path(n).map(str::to_owned),
            _ => None,
        })
    }

    // --- cwd ----------------------------------------------------------------

    /// `fchdir(2)`.
    pub fn fchdir(&mut self, pid: Pid, fd: Fd) -> SysResult<()> {
        self.charge(pid)?;
        let node = self.process(pid)?.fd_node(fd)?;
        if !self.fs.node(node)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        self.dac_node(pid, node, Access::Exec)?;
        self.mac_vnode(pid, node, &VnodeOp::Chdir)?;
        self.process_mut(pid)?.cwd = node;
        Ok(())
    }

    /// `chdir(2)`.
    pub fn chdir(&mut self, pid: Pid, path: &str) -> SysResult<()> {
        self.charge(pid)?;
        let node = self.resolve(pid, None, path, true)?;
        if !self.fs.node(node)?.is_dir() {
            return Err(Errno::ENOTDIR);
        }
        self.dac_node(pid, node, Access::Exec)?;
        self.mac_vnode(pid, node, &VnodeOp::Chdir)?;
        self.process_mut(pid)?.cwd = node;
        Ok(())
    }

    /// `getcwd(3)` via the name cache.
    pub fn getcwd(&mut self, pid: Pid) -> SysResult<String> {
        self.charge(pid)?;
        let cwd = self.process(pid)?.cwd;
        self.fs.path_of(cwd).ok_or(Errno::ENOENT)
    }

    // --- pipes ---------------------------------------------------------------

    /// `pipe(2)`: returns `(read_end, write_end)`.
    pub fn pipe(&mut self, pid: Pid) -> SysResult<(Fd, Fd)> {
        self.charge(pid)?;
        let id = self.pipes.create();
        self.mac_notify(pid, |p, ctx| p.pipe_post_create(ctx, ObjId::Pipe(id)));
        let p = self.process_mut(pid)?;
        let rfd = p.alloc_fd()?;
        p.install_fd(
            rfd,
            OpenFile {
                object: FdObject::Pipe(id, PipeEnd::Read),
                offset: 0,
                readable: true,
                writable: false,
                append: false,
            },
        );
        let wfd = p.alloc_fd()?;
        p.install_fd(
            wfd,
            OpenFile {
                object: FdObject::Pipe(id, PipeEnd::Write),
                offset: 0,
                readable: false,
                writable: true,
                append: false,
            },
        );
        Ok((rfd, wfd))
    }

    // --- sockets ---------------------------------------------------------------

    /// `socket(2)`.
    pub fn socket(&mut self, pid: Pid, domain: SockDomain) -> SysResult<Fd> {
        self.charge(pid)?;
        // The create check is session-scoped for the SHILL policy (socket
        // factory capability); the object id is not yet known, so pass a
        // placeholder.
        self.mac_socket(pid, ObjId::Socket(SockId(0)), &SocketOp::Create(domain))?;
        let sid = self.net.socket(domain);
        self.mac_notify(pid, |p, ctx| p.socket_post_create(ctx, ObjId::Socket(sid)));
        let p = self.process_mut(pid)?;
        let fd = p.alloc_fd()?;
        p.install_fd(
            fd,
            OpenFile {
                object: FdObject::Socket(sid),
                offset: 0,
                readable: true,
                writable: true,
                append: false,
            },
        );
        Ok(fd)
    }

    fn fd_sock(&self, pid: Pid, fd: Fd) -> SysResult<SockId> {
        match self.process(pid)?.file(fd)?.object {
            FdObject::Socket(s) => Ok(s),
            _ => Err(Errno::ENOTSOCK),
        }
    }

    /// `bind(2)`.
    pub fn bind(&mut self, pid: Pid, fd: Fd, addr: SockAddr) -> SysResult<()> {
        self.charge(pid)?;
        let s = self.fd_sock(pid, fd)?;
        self.mac_socket(pid, ObjId::Socket(s), &SocketOp::Bind(addr.clone()))?;
        if let SockAddr::Unix { path } = &addr {
            // Unix sockets occupy a filesystem bind point.
            let lk = self.namei(pid, None, path, false, true)?;
            if lk.node.is_some() {
                return Err(Errno::EADDRINUSE);
            }
            self.dac_node(pid, lk.parent, Access::Write)?;
            self.mac_vnode(pid, lk.parent, &VnodeOp::CreateFile(&lk.name))?;
            let cred = self.process(pid)?.cred;
            let n =
                self.fs
                    .create_socket_node(lk.parent, &lk.name, Mode(0o666), cred.uid, cred.gid)?;
            self.mac_post_create(pid, lk.parent, &lk.name, n, FileType::Socket);
        }
        self.net.bind(s, addr)
    }

    /// `listen(2)`.
    pub fn listen(&mut self, pid: Pid, fd: Fd) -> SysResult<()> {
        self.charge(pid)?;
        let s = self.fd_sock(pid, fd)?;
        self.mac_socket(pid, ObjId::Socket(s), &SocketOp::Listen)?;
        self.net.listen(s)
    }

    /// `accept(2)`; `EAGAIN` when no client is queued.
    pub fn accept(&mut self, pid: Pid, fd: Fd) -> SysResult<Fd> {
        self.charge(pid)?;
        let s = self.fd_sock(pid, fd)?;
        self.mac_socket(pid, ObjId::Socket(s), &SocketOp::Accept)?;
        let conn = self.net.accept(s)?;
        self.mac_notify(pid, |p, ctx| p.socket_post_create(ctx, ObjId::Socket(conn)));
        let p = self.process_mut(pid)?;
        let cfd = p.alloc_fd()?;
        p.install_fd(
            cfd,
            OpenFile {
                object: FdObject::Socket(conn),
                offset: 0,
                readable: true,
                writable: true,
                append: false,
            },
        );
        Ok(cfd)
    }

    /// `connect(2)`.
    pub fn connect(&mut self, pid: Pid, fd: Fd, addr: SockAddr) -> SysResult<()> {
        self.charge(pid)?;
        let s = self.fd_sock(pid, fd)?;
        self.mac_socket(pid, ObjId::Socket(s), &SocketOp::Connect(addr.clone()))?;
        self.net.connect(s, addr)
    }

    // --- system surfaces (paper Figure 7) -------------------------------------

    /// `sysctl` read.
    pub fn sysctl_read(&mut self, pid: Pid, name: &str) -> SysResult<String> {
        self.charge(pid)?;
        self.mac_system(pid, &SystemOp::SysctlRead(name.to_string()))?;
        self.sysctls.get(name).cloned().ok_or(Errno::ENOENT)
    }

    /// `sysctl` write.
    pub fn sysctl_write(&mut self, pid: Pid, name: &str, value: &str) -> SysResult<()> {
        self.charge(pid)?;
        self.mac_system(pid, &SystemOp::SysctlWrite(name.to_string()))?;
        if !self.process(pid)?.cred.is_root() {
            return Err(Errno::EPERM);
        }
        // `security.cache.*` knobs take effect immediately and validate
        // before the store, so a malformed write changes nothing (and,
        // because sysctl writes are denied inside a sandbox, a confined
        // process can never toggle the caches it is being checked through).
        self.apply_cache_sysctl(name, value)?;
        self.sysctls.insert(name.to_string(), value.to_string());
        Ok(())
    }

    /// Kernel environment access (`kenv(2)`).
    pub fn kenv_get(&mut self, pid: Pid, name: &str) -> SysResult<String> {
        self.charge(pid)?;
        self.mac_system(pid, &SystemOp::KernelEnv)?;
        self.kenv.get(name).cloned().ok_or(Errno::ENOENT)
    }

    /// Kernel environment write.
    pub fn kenv_set(&mut self, pid: Pid, name: &str, value: &str) -> SysResult<()> {
        self.charge(pid)?;
        self.mac_system(pid, &SystemOp::KernelEnv)?;
        if !self.process(pid)?.cred.is_root() {
            return Err(Errno::EPERM);
        }
        self.kenv.insert(name.to_string(), value.to_string());
        Ok(())
    }

    /// `kldunload(2)`: unloading the MAC policy module. The SHILL policy
    /// denies this from inside a sandbox — "no sandboxed executable has a
    /// capability to unload kernel modules, including the module that
    /// enforces the MAC policy" (§2.3).
    pub fn kldunload(&mut self, pid: Pid, module: &str) -> SysResult<()> {
        self.charge(pid)?;
        self.mac_system(pid, &SystemOp::KernelModule)?;
        if !self.process(pid)?.cred.is_root() {
            return Err(Errno::EPERM);
        }
        if self.unregister_policy(module) {
            Ok(())
        } else {
            Err(Errno::ENOENT)
        }
    }

    /// POSIX IPC surface (shm_open and friends) — denied by the SHILL policy.
    pub fn posix_ipc_open(&mut self, pid: Pid, _name: &str) -> SysResult<()> {
        self.charge(pid)?;
        self.mac_system(pid, &SystemOp::PosixIpc)?;
        Ok(())
    }

    /// System V IPC surface (`shmget` etc.) — denied by the SHILL policy.
    pub fn sysv_ipc_get(&mut self, pid: Pid, _key: u32) -> SysResult<()> {
        self.charge(pid)?;
        self.mac_system(pid, &SystemOp::SysvIpc)?;
        Ok(())
    }

    // --- exec ------------------------------------------------------------------

    /// Execute the file open at `node` with `argv`, running its registered
    /// handler synchronously as `pid`. Returns the exit status.
    ///
    /// Executable format: a first line `#!SIMBIN <program>`; subsequent
    /// `NEEDS <path>` lines declare shared-library dependencies readable by
    /// the simulated `ldd` (used by `pkg_native`).
    pub fn exec_node(&mut self, pid: Pid, node: NodeId, argv: &[String]) -> SysResult<i32> {
        self.charge(pid)?;
        KernelStats::bump(&self.stats.execs);
        self.dac_node(pid, node, Access::Exec)?;
        self.mac_vnode(pid, node, &VnodeOp::Exec)?;
        let content = self.fs.node(node)?.file_data()?.clone();
        let text = String::from_utf8_lossy(&content);
        let program = parse_simbin(&text).ok_or(Errno::ENOEXEC)?;
        let handler: ExecHandler = self.exec_handler(&program).ok_or(Errno::ENOEXEC)?;
        Ok(handler(self, pid, argv))
    }

    /// Resolve and execute by path.
    pub fn exec_at(
        &mut self,
        pid: Pid,
        dirfd: Option<Fd>,
        path: &str,
        argv: &[String],
    ) -> SysResult<i32> {
        let node = self.resolve(pid, dirfd, path, true)?;
        self.exec_node(pid, node, argv)
    }

    /// Shared-library dependencies of an executable (simulated `ldd`).
    /// Reads through the *filesystem*, not the registry, so a capability to
    /// the executable file is what's needed — matching `pkg_native`'s
    /// behaviour of invoking `ldd` on the binary (§3.1.4).
    pub fn ldd(&self, node: NodeId) -> SysResult<Vec<String>> {
        let content = self.fs.node(node)?.file_data()?;
        let text = String::from_utf8_lossy(content);
        if parse_simbin(&text).is_none() {
            return Err(Errno::ENOEXEC);
        }
        Ok(text
            .lines()
            .filter_map(|l| l.strip_prefix("NEEDS "))
            .map(|s| s.trim().to_string())
            .collect())
    }
}

/// Parse the `#!SIMBIN <program>` header.
fn parse_simbin(text: &str) -> Option<String> {
    let first = text.lines().next()?;
    let rest = first.strip_prefix("#!SIMBIN ")?;
    let name = rest.trim();
    if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_vfs::Cred;
    use std::sync::Arc;

    fn setup() -> (Kernel, Pid) {
        let mut k = Kernel::new();
        let pid = k.spawn_user(Cred::ROOT);
        (k, pid)
    }

    #[test]
    fn open_create_write_read() {
        let (mut k, pid) = setup();
        let fd = k
            .open(
                pid,
                "/tmp/a.txt",
                OpenFlags::creat_trunc_w(),
                Mode::FILE_DEFAULT,
            )
            .unwrap();
        assert_eq!(k.write(pid, fd, b"hello").unwrap(), 5);
        k.close(pid, fd).unwrap();
        let fd = k
            .open(pid, "/tmp/a.txt", OpenFlags::RDONLY, Mode::FILE_DEFAULT)
            .unwrap();
        assert_eq!(k.read(pid, fd, 100).unwrap(), b"hello");
        assert_eq!(k.read(pid, fd, 100).unwrap(), b""); // EOF: offset advanced
        k.close(pid, fd).unwrap();
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let (mut k, pid) = setup();
        let fd = k
            .open(
                pid,
                "/tmp/log",
                OpenFlags::creat_trunc_w(),
                Mode::FILE_DEFAULT,
            )
            .unwrap();
        k.write(pid, fd, b"one\n").unwrap();
        k.close(pid, fd).unwrap();
        let fd = k
            .open(
                pid,
                "/tmp/log",
                OpenFlags::append_only(),
                Mode::FILE_DEFAULT,
            )
            .unwrap();
        k.write(pid, fd, b"two\n").unwrap();
        k.close(pid, fd).unwrap();
        let fd = k
            .open(pid, "/tmp/log", OpenFlags::RDONLY, Mode::FILE_DEFAULT)
            .unwrap();
        assert_eq!(k.read(pid, fd, 100).unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn dac_denies_unreadable_file() {
        let mut k = Kernel::new();
        let alice = k.spawn_user(Cred::user(100));
        let bob = k.spawn_user(Cred::user(200));
        let fd = k
            .open(
                alice,
                "/tmp/secret",
                OpenFlags::creat_trunc_w(),
                Mode(0o600),
            )
            .unwrap();
        k.close(alice, fd).unwrap();
        assert_eq!(
            k.open(bob, "/tmp/secret", OpenFlags::RDONLY, Mode(0))
                .unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn mkdirat_returns_usable_dirfd() {
        let (mut k, pid) = setup();
        let dfd = k
            .mkdirat(pid, None, "/tmp/work", Mode::DIR_DEFAULT)
            .unwrap();
        let f = k
            .openat(
                pid,
                Some(dfd),
                "inner.txt",
                OpenFlags::creat_trunc_w(),
                Mode::FILE_DEFAULT,
            )
            .unwrap();
        k.write(pid, f, b"x").unwrap();
        k.close(pid, f).unwrap();
        assert!(k.fs.resolve_abs("/tmp/work/inner.txt").is_ok());
    }

    #[test]
    fn dotdot_walks_up() {
        let (mut k, pid) = setup();
        k.fs.mkdir_p("/home/bob", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        k.fs.put_file(
            "/home/alice/dog.jpg",
            b"jpg",
            Mode::FILE_DEFAULT,
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.chdir(pid, "/home/bob").unwrap();
        let fd = k
            .open(pid, "../alice/dog.jpg", OpenFlags::RDONLY, Mode(0))
            .unwrap();
        assert_eq!(k.read(pid, fd, 3).unwrap(), b"jpg");
    }

    #[test]
    fn funlinkat_checks_identity() {
        let (mut k, pid) = setup();
        k.fs.put_file("/tmp/a", b"1", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let dirfd = k.open(pid, "/tmp", OpenFlags::dir(), Mode(0)).unwrap();
        let filefd = k.open(pid, "/tmp/a", OpenFlags::RDONLY, Mode(0)).unwrap();
        // Replace /tmp/a with a different file behind our back.
        k.unlinkat(pid, None, "/tmp/a", false).unwrap();
        k.fs.put_file("/tmp/a", b"2", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        // funlinkat detects the swap.
        assert_eq!(
            k.funlinkat(pid, dirfd, filefd, "a").unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn flinkat_links_by_descriptor() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/tmp/orig",
            b"data",
            Mode::FILE_DEFAULT,
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let filefd = k
            .open(pid, "/tmp/orig", OpenFlags::RDONLY, Mode(0))
            .unwrap();
        let dirfd = k.open(pid, "/tmp", OpenFlags::dir(), Mode(0)).unwrap();
        k.flinkat(pid, filefd, dirfd, "alias").unwrap();
        let fd = k
            .open(pid, "/tmp/alias", OpenFlags::RDONLY, Mode(0))
            .unwrap();
        assert_eq!(k.read(pid, fd, 10).unwrap(), b"data");
    }

    #[test]
    fn frenameat_moves_verified_file() {
        let (mut k, pid) = setup();
        k.fs.mkdir_p("/tmp/dst", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        k.fs.put_file("/tmp/f", b"x", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let sdir = k.open(pid, "/tmp", OpenFlags::dir(), Mode(0)).unwrap();
        let ddir = k.open(pid, "/tmp/dst", OpenFlags::dir(), Mode(0)).unwrap();
        let f = k.open(pid, "/tmp/f", OpenFlags::RDONLY, Mode(0)).unwrap();
        k.frenameat(pid, f, sdir, "f", ddir, "g").unwrap();
        assert!(k.fs.resolve_abs("/tmp/dst/g").is_ok());
        assert!(k.fs.resolve_abs("/tmp/f").is_err());
    }

    #[test]
    fn path_syscall_and_fallback() {
        let (mut k, pid) = setup();
        k.fs.put_file("/tmp/p.txt", b"", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let fd = k
            .open(pid, "/tmp/p.txt", OpenFlags::RDONLY, Mode(0))
            .unwrap();
        assert_eq!(k.path_syscall(pid, fd).unwrap(), "/tmp/p.txt");
        k.unlinkat(pid, None, "/tmp/p.txt", false).unwrap();
        assert_eq!(k.path_syscall(pid, fd).unwrap_err(), Errno::ENOENT);
        assert_eq!(k.fd_last_path(pid, fd).unwrap().unwrap(), "/tmp/p.txt");
    }

    #[test]
    fn last_path_is_taken_when_the_name_goes_not_at_open() {
        let (mut k, pid) = setup();
        k.fs.put_file("/tmp/a", b"", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let fd = k.open(pid, "/tmp/a", OpenFlags::RDONLY, Mode(0)).unwrap();
        k.renameat(pid, None, "/tmp/a", None, "/tmp/b").unwrap();
        assert_eq!(k.fd_last_path(pid, fd).unwrap(), None);
        k.unlinkat(pid, None, "/tmp/b", false).unwrap();
        assert_eq!(k.path_syscall(pid, fd).unwrap_err(), Errno::ENOENT);
        assert_eq!(k.fd_last_path(pid, fd).unwrap().unwrap(), "/tmp/b");
    }

    #[test]
    fn removed_open_directory_keeps_its_path() {
        let (mut k, pid) = setup();
        k.fs.mkdir_p("/tmp/d", Mode::DIR_DEFAULT, Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let fd = k.open(pid, "/tmp/d", OpenFlags::dir(), Mode(0)).unwrap();
        k.unlinkat(pid, None, "/tmp/d", true).unwrap();
        assert_eq!(k.path_syscall(pid, fd).unwrap_err(), Errno::ENOENT);
        assert_eq!(k.fd_last_path(pid, fd).unwrap().unwrap(), "/tmp/d");
    }

    #[test]
    fn unlinked_cached_link_keeps_its_path_until_the_last_close() {
        let (mut k, pid) = setup();
        let node =
            k.fs.put_file("/tmp/a", b"", Mode::FILE_DEFAULT, Uid::ROOT, Gid::WHEEL)
                .unwrap();
        // The newest link is the name the cache holds.
        k.linkat(pid, None, "/tmp/a", None, "/tmp/b").unwrap();
        let fd = k.open(pid, "/tmp/a", OpenFlags::RDONLY, Mode(0)).unwrap();
        k.unlinkat(pid, None, "/tmp/b", false).unwrap();
        assert_eq!(k.path_syscall(pid, fd).unwrap_err(), Errno::ENOENT);
        assert_eq!(k.fd_last_path(pid, fd).unwrap().unwrap(), "/tmp/b");
        k.close(pid, fd).unwrap();
        assert_eq!(k.fs.last_path(node), None);
        assert_eq!(k.fs.resolve_abs("/tmp/a"), Ok(node));
    }

    #[test]
    fn device_read_write_and_console() {
        let (mut k, pid) = setup();
        let null = k
            .open(pid, "/dev/null", OpenFlags::rdwr(), Mode(0))
            .unwrap();
        assert_eq!(k.read(pid, null, 10).unwrap(), b"");
        assert_eq!(k.write(pid, null, b"gone").unwrap(), 4);
        let zero = k
            .open(pid, "/dev/zero", OpenFlags::RDONLY, Mode(0))
            .unwrap();
        assert_eq!(k.read(pid, zero, 4).unwrap(), vec![0, 0, 0, 0]);
        let tty = k.open(pid, "/dev/tty", OpenFlags::rdwr(), Mode(0)).unwrap();
        k.write(pid, tty, b"hello console").unwrap();
        assert_eq!(k.console, b"hello console");
    }

    #[test]
    fn pipe_roundtrip_via_fds() {
        let (mut k, pid) = setup();
        let (r, w) = k.pipe(pid).unwrap();
        k.write(pid, w, b"through the pipe").unwrap();
        assert_eq!(k.read(pid, r, 7).unwrap(), b"through");
        k.close(pid, w).unwrap();
        assert_eq!(k.read(pid, r, 100).unwrap(), b" the pipe");
        assert_eq!(k.read(pid, r, 100).unwrap(), b""); // EOF
    }

    #[test]
    fn exec_runs_registered_handler() {
        let (mut k, pid) = setup();
        k.register_exec(
            "hello",
            Arc::new(|k: &mut Kernel, pid: Pid, argv: &[String]| {
                let fd = k
                    .open(
                        pid,
                        "/tmp/out",
                        OpenFlags::creat_trunc_w(),
                        Mode::FILE_DEFAULT,
                    )
                    .unwrap();
                k.write(pid, fd, format!("args={}", argv.join(",")).as_bytes())
                    .unwrap();
                k.close(pid, fd).unwrap();
                0
            }),
        );
        k.fs.put_file(
            "/bin/hello",
            b"#!SIMBIN hello\nNEEDS /lib/libc.so\n",
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let status = k
            .exec_at(pid, None, "/bin/hello", &["hello".into(), "world".into()])
            .unwrap();
        assert_eq!(status, 0);
        let node = k.fs.resolve_abs("/tmp/out").unwrap();
        assert_eq!(k.fs.read(node, 0, 100).unwrap(), b"args=hello,world");
    }

    #[test]
    fn exec_requires_exec_bit_and_format() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/bin/noexec",
            b"#!SIMBIN hello\n",
            Mode(0o644),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let user = k.spawn_user(Cred::user(100));
        assert_eq!(
            k.exec_at(user, None, "/bin/noexec", &[]).unwrap_err(),
            Errno::EACCES
        );
        k.fs.put_file(
            "/bin/garbage",
            b"not a binary",
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        assert_eq!(
            k.exec_at(pid, None, "/bin/garbage", &[]).unwrap_err(),
            Errno::ENOEXEC
        );
    }

    #[test]
    fn ldd_reads_needs_lines() {
        let (mut k, _) = setup();
        k.fs.put_file(
            "/bin/x",
            b"#!SIMBIN x\nNEEDS /lib/libc.so\nNEEDS /usr/lib/libm.so\n",
            Mode(0o755),
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        let n = k.fs.resolve_abs("/bin/x").unwrap();
        assert_eq!(k.ldd(n).unwrap(), vec!["/lib/libc.so", "/usr/lib/libm.so"]);
    }

    #[test]
    fn sysctl_and_kenv() {
        let (mut k, pid) = setup();
        assert_eq!(k.sysctl_read(pid, "kern.ostype").unwrap(), "SimBSD");
        k.sysctl_write(pid, "kern.custom", "1").unwrap();
        assert_eq!(k.sysctl_read(pid, "kern.custom").unwrap(), "1");
        let user = k.spawn_user(Cred::user(100));
        assert_eq!(
            k.sysctl_write(user, "kern.custom", "2").unwrap_err(),
            Errno::EPERM
        );
        k.kenv_set(pid, "smbios.bios", "sim").unwrap();
        assert_eq!(k.kenv_get(pid, "smbios.bios").unwrap(), "sim");
    }

    #[test]
    fn socket_remote_roundtrip_via_syscalls() {
        let (mut k, pid) = setup();
        let addr = SockAddr::Inet {
            host: "files.example".into(),
            port: 80,
        };
        k.net
            .register_remote(addr.clone(), Box::new(|_| b"payload".to_vec()));
        let fd = k.socket(pid, SockDomain::Inet).unwrap();
        k.connect(pid, fd, addr).unwrap();
        k.write(pid, fd, b"GET /").unwrap();
        assert_eq!(k.read(pid, fd, 100).unwrap(), b"payload");
        k.close(pid, fd).unwrap();
    }

    #[test]
    fn unix_socket_bind_creates_node() {
        let (mut k, pid) = setup();
        let fd = k.socket(pid, SockDomain::Unix).unwrap();
        k.bind(
            pid,
            fd,
            SockAddr::Unix {
                path: "/tmp/sock".into(),
            },
        )
        .unwrap();
        let n = k.fs.resolve_abs("/tmp/sock").unwrap();
        assert_eq!(k.fs.node(n).unwrap().file_type(), FileType::Socket);
    }

    #[test]
    fn fsize_ulimit_enforced() {
        let (mut k, pid) = setup();
        k.set_ulimits(
            pid,
            crate::types::Ulimits {
                max_file_size: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let fd = k
            .open(
                pid,
                "/tmp/big",
                OpenFlags::creat_trunc_w(),
                Mode::FILE_DEFAULT,
            )
            .unwrap();
        assert_eq!(k.write(pid, fd, b"abcd").unwrap(), 4);
        assert_eq!(k.write(pid, fd, b"e").unwrap_err(), Errno::EFBIG);
    }

    #[test]
    fn symlink_resolution_through_open() {
        let (mut k, pid) = setup();
        k.fs.put_file(
            "/data/real.txt",
            b"real",
            Mode::FILE_DEFAULT,
            Uid::ROOT,
            Gid::WHEEL,
        )
        .unwrap();
        k.symlinkat(pid, "/data/real.txt", None, "/tmp/link")
            .unwrap();
        let fd = k
            .open(pid, "/tmp/link", OpenFlags::RDONLY, Mode(0))
            .unwrap();
        assert_eq!(k.read(pid, fd, 10).unwrap(), b"real");
        // nofollow refuses the trailing symlink.
        let mut fl = OpenFlags::RDONLY;
        fl.nofollow = true;
        assert_eq!(
            k.open(pid, "/tmp/link", fl, Mode(0)).unwrap_err(),
            Errno::ELOOP
        );
    }
}
