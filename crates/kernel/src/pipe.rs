//! Anonymous pipes.
//!
//! Execution in the simulator is synchronous (a spawned executable runs to
//! completion inside `exec`), so pipes behave as unbounded buffers: writers
//! append, readers drain FIFO. Reading an empty pipe yields EOF when no
//! write end remains open, and `EAGAIN` otherwise (non-blocking semantics —
//! a blocking read could never be satisfied in a synchronous world).

use std::collections::VecDeque;
use std::sync::Arc;

use shill_vfs::{Errno, IdMap, IoFault, SysResult};

use crate::fault::{FaultPlane, FaultSite};
use crate::shard::SHARD_OBJ_STRIDE;
use crate::types::PipeId;

/// Mode-invariant fault key for a pipe/socket data op: shard-relative
/// object id mixed with the op length — never global order, so the same
/// schedule fires identically under sequential, batched, and stepped
/// execution.
pub(crate) fn data_fault_key(id: u64, len: usize) -> u64 {
    (id % SHARD_OBJ_STRIDE) ^ (len as u64).rotate_left(37)
}

/// Move up to `n` bytes off the front of a pipe or socket buffer: one
/// slice copy per half of the ring, then the drained range is dropped.
pub(crate) fn take_front(buf: &mut VecDeque<u8>, n: usize) -> Vec<u8> {
    let n = n.min(buf.len());
    let (head, tail) = buf.as_slices();
    let from_head = n.min(head.len());
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&head[..from_head]);
    out.extend_from_slice(&tail[..n - from_head]);
    buf.drain(..n);
    out
}

/// One pipe buffer plus reference counts for each end.
#[derive(Debug)]
struct PipeBuf {
    data: VecDeque<u8>,
    readers: u32,
    writers: u32,
}

/// Table of live pipes.
#[derive(Debug, Default)]
pub struct PipeTable {
    pipes: IdMap<PipeId, PipeBuf>,
    next: u64,
    /// Fault plane consulted on the data path (`pipe.read` / `pipe.write`
    /// sites); installed by [`crate::kernel::Kernel::set_fault_plane`].
    faults: Option<Arc<FaultPlane>>,
}

impl PipeTable {
    pub fn new() -> PipeTable {
        PipeTable::default()
    }

    /// A table allocating `PipeId`s from `base` upward. Kernel shards use
    /// disjoint bases so pipe ids — which key shared MAC policy labels —
    /// never alias across shards.
    pub fn with_id_base(base: u64) -> PipeTable {
        PipeTable {
            next: base,
            ..PipeTable::default()
        }
    }

    /// Install (or clear) the fault plane consulted on reads and writes.
    pub fn set_fault_plane(&mut self, plane: Option<Arc<FaultPlane>>) {
        self.faults = plane;
    }

    /// Allocate a new pipe with one reader and one writer reference.
    pub fn create(&mut self) -> PipeId {
        self.next += 1;
        let id = PipeId(self.next);
        self.pipes.insert(
            id,
            PipeBuf {
                data: VecDeque::new(),
                readers: 1,
                writers: 1,
            },
        );
        id
    }

    /// Number of live pipes (tests).
    pub fn len(&self) -> usize {
        self.pipes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pipes.is_empty()
    }

    /// Add a reference to one end (descriptor duplication / fork).
    pub fn addref(&mut self, id: PipeId, write_end: bool) -> SysResult<()> {
        let p = self.pipes.get_mut(&id).ok_or(Errno::EBADF)?;
        if write_end {
            p.writers += 1;
        } else {
            p.readers += 1;
        }
        Ok(())
    }

    /// Drop a reference to one end; the pipe is reclaimed when both sides
    /// reach zero.
    pub fn release(&mut self, id: PipeId, write_end: bool) {
        let remove = match self.pipes.get_mut(&id) {
            Some(p) => {
                if write_end {
                    p.writers = p.writers.saturating_sub(1);
                } else {
                    p.readers = p.readers.saturating_sub(1);
                }
                p.readers == 0 && p.writers == 0
            }
            None => false,
        };
        if remove {
            self.pipes.remove(&id);
        }
    }

    /// Write into the pipe. Fails with `EPIPE` when no reader remains.
    pub fn write(&mut self, id: PipeId, mut buf: &[u8]) -> SysResult<usize> {
        let p = self.pipes.get_mut(&id).ok_or(Errno::EBADF)?;
        if p.readers == 0 {
            return Err(Errno::EPIPE);
        }
        if let Some(plane) = &self.faults {
            match plane.check_io(
                FaultSite::PipeWrite,
                data_fault_key(id.0, buf.len()),
                buf.len(),
            ) {
                Some(IoFault::Fail(e)) => return Err(e),
                Some(IoFault::Short(n)) => buf = &buf[..n],
                None => {}
            }
        }
        p.data.extend(buf);
        Ok(buf.len())
    }

    /// Read up to `len` bytes. Empty + writers alive → `EAGAIN`; empty + no
    /// writers → EOF (empty vec).
    pub fn read(&mut self, id: PipeId, mut len: usize) -> SysResult<Vec<u8>> {
        let p = self.pipes.get_mut(&id).ok_or(Errno::EBADF)?;
        if let Some(plane) = &self.faults {
            match plane.check_io(FaultSite::PipeRead, data_fault_key(id.0, len), len) {
                Some(IoFault::Fail(e)) => return Err(e),
                Some(IoFault::Short(n)) => len = n,
                None => {}
            }
        }
        if p.data.is_empty() {
            if p.writers == 0 {
                return Ok(Vec::new());
            }
            return Err(Errno::EAGAIN);
        }
        Ok(take_front(&mut p.data, len))
    }

    /// Bytes currently buffered.
    pub fn buffered(&self, id: PipeId) -> SysResult<usize> {
        Ok(self.pipes.get(&id).ok_or(Errno::EBADF)?.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.write(id, b"abc").unwrap();
        t.write(id, b"def").unwrap();
        assert_eq!(t.read(id, 4).unwrap(), b"abcd");
        assert_eq!(t.read(id, 10).unwrap(), b"ef");
    }

    #[test]
    fn read_copies_across_the_ring_wrap() {
        let mut t = PipeTable::new();
        let id = t.create();
        let bytes: Vec<u8> = (0..12).collect();
        t.write(id, &bytes[..8]).unwrap();
        assert_eq!(t.read(id, 5).unwrap(), &bytes[..5]);
        t.write(id, &bytes[8..]).unwrap();
        assert!(
            !t.pipes[&id].data.as_slices().1.is_empty(),
            "the second write wraps the ring"
        );
        assert_eq!(t.read(id, 100).unwrap(), &bytes[5..]);
        assert_eq!(t.read(id, 1).unwrap_err(), Errno::EAGAIN);
    }

    #[test]
    fn empty_with_writer_is_eagain() {
        let mut t = PipeTable::new();
        let id = t.create();
        assert_eq!(t.read(id, 1).unwrap_err(), Errno::EAGAIN);
    }

    #[test]
    fn empty_without_writer_is_eof() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.release(id, true);
        assert_eq!(t.read(id, 1).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn write_without_reader_is_epipe() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.release(id, false);
        assert_eq!(t.write(id, b"x").unwrap_err(), Errno::EPIPE);
    }

    #[test]
    fn reclaimed_after_both_ends_close() {
        let mut t = PipeTable::new();
        let id = t.create();
        assert_eq!(t.len(), 1);
        t.release(id, false);
        t.release(id, true);
        assert_eq!(t.len(), 0);
        assert_eq!(t.write(id, b"x").unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn injected_pipe_faults_fail_and_shorten() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.set_fault_plane(Some(Arc::new(
            FaultPlane::seeded(1, 0, &[])
                .fail_on(FaultSite::PipeWrite, 1, Errno::EPIPE)
                .short_on(FaultSite::PipeWrite, 2, 2)
                .fail_on(FaultSite::PipeRead, 1, Errno::EIO),
        )));
        assert_eq!(t.write(id, b"abcdef").unwrap_err(), Errno::EPIPE);
        assert_eq!(t.write(id, b"abcdef").unwrap(), 2, "short write");
        assert_eq!(t.read(id, 10).unwrap_err(), Errno::EIO);
        assert_eq!(
            t.read(id, 10).unwrap(),
            b"ab",
            "only the short prefix landed"
        );
        let plane = t.faults.as_ref().unwrap();
        assert_eq!(
            plane.drain(),
            (3, 3),
            "all injected faults surfaced cleanly"
        );
    }

    #[test]
    fn pipe_fault_key_is_shard_relative() {
        // The same pipe ordinal on two shards maps to one key: a schedule
        // fires identically wherever the session happens to be pinned.
        let base = 3 * SHARD_OBJ_STRIDE;
        assert_eq!(data_fault_key(7, 16), data_fault_key(base + 7, 16));
        assert_ne!(data_fault_key(7, 16), data_fault_key(8, 16));
    }

    #[test]
    fn refcounts_keep_pipe_alive() {
        let mut t = PipeTable::new();
        let id = t.create();
        t.addref(id, true).unwrap();
        t.release(id, true);
        t.write(id, b"ok").unwrap(); // still one writer
        t.release(id, true);
        t.release(id, false);
        assert!(t.is_empty());
    }
}
