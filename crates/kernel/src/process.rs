//! Processes and file descriptors.
//!
//! A descriptor holds its object, offset and access mode only. The path a
//! vnode was last reachable at lives in the filesystem, which records it
//! when the name goes ([`shill_vfs::Filesystem::last_path`]).

use std::num::NonZeroU64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shill_vfs::sync::Mutex;
use shill_vfs::{Cred, Errno, IdMap, NodeId, SysResult};

use crate::mac::MacCtx;
use crate::types::{Fd, Pid, PipeEnd, PipeId, SockId, Ulimits};

/// What an open descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdObject {
    /// A vnode (file, directory, device) with a current offset.
    Vnode(NodeId),
    /// One end of an anonymous pipe.
    Pipe(PipeId, PipeEnd),
    /// A socket.
    Socket(SockId),
}

/// Per-descriptor state.
#[derive(Debug, Clone)]
pub struct OpenFile {
    pub object: FdObject,
    pub offset: u64,
    pub readable: bool,
    pub writable: bool,
    pub append: bool,
}

/// Process lifecycle states. Execution is synchronous, so `Running` simply
/// means "not yet exited".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    Running,
    /// Exited with status; awaiting `waitpid` by the parent.
    Zombie(i32),
    /// Fully reaped (kept briefly for diagnostics, then dropped).
    Reaped,
}

/// A simulated process.
#[derive(Debug)]
pub struct Process {
    pub pid: Pid,
    pub ppid: Pid,
    pub cred: Cred,
    pub cwd: NodeId,
    pub fds: IdMap<Fd, OpenFile>,
    pub next_fd: u32,
    pub state: ProcState,
    pub ulimits: Ulimits,
    /// Syscall ticks consumed (for the cpu ulimit).
    pub cpu_ticks: u64,
    /// Live (non-reaped) children.
    pub children: Vec<Pid>,
    /// The MAC label: an opaque word a labelling policy assigned
    /// ([`crate::Kernel::set_label`]), `None` for a process no policy has
    /// labelled. A child inherits it at `fork`/`spawn`; a top-level user
    /// process starts without one, and it leaves with the table entry.
    pub(crate) label: Option<NonZeroU64>,
}

impl Process {
    pub fn new(pid: Pid, ppid: Pid, cred: Cred, cwd: NodeId) -> Process {
        Process {
            pid,
            ppid,
            cred,
            cwd,
            fds: IdMap::default(),
            next_fd: 3, // 0-2 reserved for stdio
            state: ProcState::Running,
            ulimits: Ulimits::default(),
            cpu_ticks: 0,
            children: Vec::new(),
            label: None,
        }
    }

    /// The process's MAC label (see [`crate::Kernel::set_label`]).
    pub fn label(&self) -> Option<NonZeroU64> {
        self.label
    }

    /// The subject context MAC hooks see for this process.
    pub fn mac_ctx(&self) -> MacCtx {
        MacCtx {
            pid: self.pid,
            cred: self.cred,
            label: self.label,
        }
    }

    pub fn alive(&self) -> bool {
        self.state == ProcState::Running
    }

    /// Allocate the next free descriptor number.
    pub fn alloc_fd(&mut self) -> SysResult<Fd> {
        if self.fds.len() as u32 >= self.ulimits.max_open_files {
            return Err(Errno::EMFILE);
        }
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        Ok(fd)
    }

    /// Install an open file at a specific descriptor (stdio wiring).
    pub fn install_fd(&mut self, fd: Fd, of: OpenFile) {
        self.next_fd = self.next_fd.max(fd.0 + 1);
        self.fds.insert(fd, of);
    }

    pub fn file(&self, fd: Fd) -> SysResult<&OpenFile> {
        self.fds.get(&fd).ok_or(Errno::EBADF)
    }

    pub fn file_mut(&mut self, fd: Fd) -> SysResult<&mut OpenFile> {
        self.fds.get_mut(&fd).ok_or(Errno::EBADF)
    }

    /// The vnode a descriptor refers to, or `EBADF`/`ENOTDIR`-style errors
    /// for non-vnode descriptors.
    pub fn fd_node(&self, fd: Fd) -> SysResult<NodeId> {
        match self.file(fd)?.object {
            FdObject::Vnode(n) => Ok(n),
            _ => Err(Errno::EBADF),
        }
    }
}

/// Descriptors whose last holder let go of them outside a kernel
/// crossing: a capability dropped mid-evaluation has no `&mut Kernel` to
/// close through, so it queues `(pid, fd)` here and
/// [`crate::Kernel::drain_closes`] closes it at the owner's next crossing
/// (the analogue of Linux deferring the final `fput` to the return to user
/// space). Descriptor numbers are never reused ([`Process::alloc_fd`] only
/// counts up), so a late close cannot hit another file.
///
/// Every builtin call drains the queue, and most find it empty: a drain
/// reads a flag and takes the lock only when something is queued.
#[derive(Debug, Clone, Default)]
pub struct CloseQueue(Arc<Closes>);

#[derive(Debug, Default)]
struct Closes {
    /// Whether `queued` may hold entries. `push` stores `true` (Release)
    /// after queuing and `take_into` clears it, both under the lock; a
    /// drain that loads it clear (Acquire) skips the lock, and an entry
    /// pushed meanwhile on another thread waits for the next drain.
    pending: AtomicBool,
    queued: Mutex<Vec<(Pid, Fd)>>,
}

impl CloseQueue {
    /// Queue `fd` of `pid` for closing at the next drain.
    pub fn push(&self, pid: Pid, fd: Fd) {
        let mut queued = self.0.queued.lock();
        queued.push((pid, fd));
        self.0.pending.store(true, Ordering::Release);
    }

    /// Swap everything queued since the last take, in order, into `out`,
    /// which must be empty. The queue keeps `out`'s buffer in exchange, so
    /// neither buffer is allocated again once both have grown.
    pub(crate) fn take_into(&self, out: &mut Vec<(Pid, Fd)>) {
        debug_assert!(out.is_empty());
        if !self.0.pending.load(Ordering::Acquire) {
            return;
        }
        let mut queued = self.0.queued.lock();
        self.0.pending.store(false, Ordering::Relaxed);
        std::mem::swap(&mut *queued, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(node: NodeId) -> OpenFile {
        OpenFile {
            object: FdObject::Vnode(node),
            offset: 0,
            readable: true,
            writable: false,
            append: false,
        }
    }

    #[test]
    fn a_close_queue_hands_over_what_was_queued_in_order_and_keeps_its_buffers() {
        let q = CloseQueue::default();
        let mut out = Vec::new();
        q.take_into(&mut out);
        assert!(out.is_empty(), "nothing queued");
        q.push(Pid(2), Fd(3));
        q.push(Pid(2), Fd(4));
        q.take_into(&mut out);
        assert_eq!(out, [(Pid(2), Fd(3)), (Pid(2), Fd(4))]);
        out.clear();
        q.push(Pid(3), Fd(5));
        q.take_into(&mut out);
        assert_eq!(out, [(Pid(3), Fd(5))]);
        out.clear();
        q.take_into(&mut out);
        assert!(out.is_empty(), "a drain takes each descriptor once");
        // Both buffers have grown: later rounds swap them, allocating none.
        q.push(Pid(2), Fd(6));
        q.take_into(&mut out);
        let buffers = [out.as_ptr(), q.0.queued.lock().as_ptr()];
        for fd in 7..10 {
            out.clear();
            q.push(Pid(2), Fd(fd));
            q.take_into(&mut out);
            assert_eq!(out, [(Pid(2), Fd(fd))]);
            let now = [out.as_ptr(), q.0.queued.lock().as_ptr()];
            assert!(now == buffers || now == [buffers[1], buffers[0]]);
        }
    }

    #[test]
    fn fd_allocation_skips_stdio() {
        let mut p = Process::new(Pid(2), Pid(1), Cred::user(100), NodeId(1));
        assert_eq!(p.alloc_fd().unwrap(), Fd(3));
        assert_eq!(p.alloc_fd().unwrap(), Fd(4));
    }

    #[test]
    fn install_fd_advances_counter() {
        let mut p = Process::new(Pid(2), Pid(1), Cred::user(100), NodeId(1));
        p.install_fd(Fd(7), of(NodeId(3)));
        assert_eq!(p.alloc_fd().unwrap(), Fd(8));
    }

    #[test]
    fn fd_limit_enforced() {
        let mut p = Process::new(Pid(2), Pid(1), Cred::user(100), NodeId(1));
        p.ulimits.max_open_files = 2;
        p.install_fd(Fd(3), of(NodeId(3)));
        p.install_fd(Fd(4), of(NodeId(4)));
        assert_eq!(p.alloc_fd().unwrap_err(), Errno::EMFILE);
    }

    #[test]
    fn fd_node_rejects_non_vnode() {
        let mut p = Process::new(Pid(2), Pid(1), Cred::user(100), NodeId(1));
        p.install_fd(
            Fd(3),
            OpenFile {
                object: FdObject::Pipe(PipeId(1), PipeEnd::Read),
                offset: 0,
                readable: true,
                writable: false,
                append: false,
            },
        );
        assert_eq!(p.fd_node(Fd(3)).unwrap_err(), Errno::EBADF);
        assert_eq!(p.fd_node(Fd(9)).unwrap_err(), Errno::EBADF);
    }
}
