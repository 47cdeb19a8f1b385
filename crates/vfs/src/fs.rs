//! The filesystem proper: a node table plus the structural operations the
//! kernel builds its syscalls from.
//!
//! This layer is *mechanism only*: it maintains directory structure, link
//! counts, and the name cache, but performs no DAC or MAC checks. Policy
//! (DAC in [`crate::dac`], capability MAC in the `shill-sandbox` crate) is
//! applied by the kernel before calling into these operations — exactly the
//! layering of a real kernel, where `ufs_lookup` does the work and the MAC
//! framework's hooks gate it.
//!
//! Every table here is keyed by a node id this filesystem allocates, so
//! each is an [`IdMap`]. A node's last-known path (§3.1.3) is taken when
//! its name-cache entry goes while a descriptor holds it open, not at
//! open: see [`Filesystem::last_path`].

use std::collections::BTreeMap;

use crate::errno::{Errno, SysResult};
use crate::fault::{IoFault, SharedFaultHook};
use crate::idmap::IdMap;
use crate::node::{DeviceKind, NodeBody, Vnode};
use crate::types::{Gid, Mode, NodeId, Timestamp, Uid};

/// Maximum number of hard links to one file.
const LINK_MAX: u32 = 32_767;

/// The simulated filesystem: node table, root, logical clock, and the
/// name cache used by the paper's new `path` system call.
#[derive(Debug)]
pub struct Filesystem {
    nodes: IdMap<NodeId, Vnode>,
    root: NodeId,
    next_id: u64,
    clock: u64,
    /// Name cache: child → (parent, name under which it was last reachable).
    /// Mirrors FreeBSD's lookup cache, which the `path` syscall consults
    /// (§3.1.3). Entries are best-effort: unlinking purges them.
    name_cache: IdMap<NodeId, (NodeId, String)>,
    /// Open-file reference counts maintained by the kernel so unlinked but
    /// still-open files stay readable (Unix semantics).
    open_refs: IdMap<NodeId, u32>,
    /// Path of each open node at the moment its name-cache entry was
    /// purged. An entry goes with the node's last open reference, so it
    /// never outlives `open_refs`, and a reclaimed node has none.
    last_paths: IdMap<NodeId, String>,
    /// Node-id base this filesystem allocates from (shard stride); hooks
    /// below are consulted with ids relative to it so fault schedules are
    /// shard-invariant.
    id_base: u64,
    /// Fault-injection hook consulted on the data path (see
    /// [`crate::fault`]). `None` — the default — means no injection.
    fault: Option<SharedFaultHook>,
}

impl Default for Filesystem {
    fn default() -> Self {
        Self::new()
    }
}

impl Filesystem {
    /// Create a filesystem containing only a root directory owned by root
    /// with mode 0755.
    pub fn new() -> Filesystem {
        Filesystem::with_id_base(0)
    }

    /// Create a filesystem whose node ids are allocated from `base` upward
    /// (root is `base + 1`). Kernel shards use disjoint bases so that
    /// `NodeId`s — which key MAC policy labels shared across shards — never
    /// alias between shards' namespaces.
    pub fn with_id_base(base: u64) -> Filesystem {
        let root_id = NodeId(base + 1);
        let mut nodes = IdMap::default();
        nodes.insert(
            root_id,
            Vnode {
                id: root_id,
                mode: Mode::DIR_DEFAULT,
                uid: Uid::ROOT,
                gid: Gid::WHEEL,
                nlink: 2,
                mtime: Timestamp(0),
                ctime: Timestamp(0),
                body: NodeBody::Dir(BTreeMap::new()),
            },
        );
        Filesystem {
            nodes,
            root: root_id,
            next_id: base + 2,
            clock: 1,
            name_cache: IdMap::default(),
            open_refs: IdMap::default(),
            last_paths: IdMap::default(),
            id_base: base,
            fault: None,
        }
    }

    /// Install (or clear) the data-path fault hook. The kernel's fault
    /// plane installs itself here so injected I/O failures originate below
    /// the MAC layer, where real media errors would.
    pub fn set_fault_hook(&mut self, hook: Option<SharedFaultHook>) {
        self.fault = hook;
    }

    /// Consult the installed fault hook for a data-path op on `node`.
    fn fault_io(&self, write: bool, node: NodeId, offset: u64, len: usize) -> Option<IoFault> {
        let hook = self.fault.as_ref()?;
        let rel = node.0.wrapping_sub(self.id_base);
        if write {
            hook.on_write(rel, offset, len)
        } else {
            hook.on_read(rel, offset, len)
        }
    }

    /// The root directory's node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Advance and return the logical clock.
    fn tick(&mut self) -> Timestamp {
        self.clock += 1;
        Timestamp(self.clock)
    }

    /// Number of live nodes (for tests and leak checks).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fetch a node, failing with `ENOENT` if it has been reclaimed.
    pub fn node(&self, id: NodeId) -> SysResult<&Vnode> {
        self.nodes.get(&id).ok_or(Errno::ENOENT)
    }

    /// Mutable fetch.
    pub fn node_mut(&mut self, id: NodeId) -> SysResult<&mut Vnode> {
        self.nodes.get_mut(&id).ok_or(Errno::ENOENT)
    }

    fn alloc(&mut self, body: NodeBody, mode: Mode, uid: Uid, gid: Gid, nlink: u32) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let now = self.tick();
        self.nodes.insert(
            id,
            Vnode {
                id,
                mode,
                uid,
                gid,
                nlink,
                mtime: now,
                ctime: now,
                body,
            },
        );
        id
    }

    /// Look up `name` in directory `dir`. Purely structural: `.` and `..`
    /// are *not* interpreted here (the kernel's path walker handles them so
    /// the MAC hooks can see each component).
    pub fn lookup(&self, dir: NodeId, name: &str) -> SysResult<NodeId> {
        let d = self.node(dir)?;
        let entries = d.dir_entries()?;
        entries.get(name).copied().ok_or(Errno::ENOENT)
    }

    /// The parent of `dir` according to the directory tree (for `..`).
    /// Root's parent is root, as on Unix.
    pub fn parent_of(&self, dir: NodeId) -> SysResult<NodeId> {
        if dir == self.root {
            return Ok(self.root);
        }
        match self.name_cache.get(&dir) {
            Some((parent, _)) => Ok(*parent),
            None => Err(Errno::ENOENT),
        }
    }

    fn insert_entry(&mut self, dir: NodeId, name: &str, child: NodeId) -> SysResult<()> {
        if !crate::node::valid_component(name) || name == "." || name == ".." {
            return Err(Errno::EINVAL);
        }
        let now = self.tick();
        let d = self.node_mut(dir)?;
        let entries = d.dir_entries_mut()?;
        if entries.contains_key(name) {
            return Err(Errno::EEXIST);
        }
        entries.insert(name.to_string(), child);
        d.mtime = now;
        self.name_cache.insert(child, (dir, name.to_string()));
        Ok(())
    }

    /// Create a regular file in `dir`.
    pub fn create_file(
        &mut self,
        dir: NodeId,
        name: &str,
        mode: Mode,
        uid: Uid,
        gid: Gid,
    ) -> SysResult<NodeId> {
        self.node(dir)?.dir_entries()?; // fail early with ENOTDIR
        let id = self.alloc(NodeBody::File(Vec::new()), mode, uid, gid, 1);
        match self.insert_entry(dir, name, id) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.nodes.remove(&id);
                Err(e)
            }
        }
    }

    /// Create a subdirectory of `dir`.
    pub fn create_dir(
        &mut self,
        dir: NodeId,
        name: &str,
        mode: Mode,
        uid: Uid,
        gid: Gid,
    ) -> SysResult<NodeId> {
        self.node(dir)?.dir_entries()?;
        let id = self.alloc(NodeBody::Dir(BTreeMap::new()), mode, uid, gid, 2);
        match self.insert_entry(dir, name, id) {
            Ok(()) => {
                self.node_mut(dir)?.nlink += 1; // child's ".." reference
                Ok(id)
            }
            Err(e) => {
                self.nodes.remove(&id);
                Err(e)
            }
        }
    }

    /// Create a symbolic link in `dir` pointing at `target`.
    pub fn create_symlink(
        &mut self,
        dir: NodeId,
        name: &str,
        target: &str,
        uid: Uid,
        gid: Gid,
    ) -> SysResult<NodeId> {
        self.node(dir)?.dir_entries()?;
        let id = self.alloc(
            NodeBody::Symlink(target.to_string()),
            Mode(0o777),
            uid,
            gid,
            1,
        );
        match self.insert_entry(dir, name, id) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.nodes.remove(&id);
                Err(e)
            }
        }
    }

    /// Create a character device node.
    pub fn create_device(
        &mut self,
        dir: NodeId,
        name: &str,
        kind: DeviceKind,
        mode: Mode,
    ) -> SysResult<NodeId> {
        self.node(dir)?.dir_entries()?;
        let id = self.alloc(NodeBody::CharDevice(kind), mode, Uid::ROOT, Gid::WHEEL, 1);
        match self.insert_entry(dir, name, id) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.nodes.remove(&id);
                Err(e)
            }
        }
    }

    /// Create a Unix-domain socket bind point.
    pub fn create_socket_node(
        &mut self,
        dir: NodeId,
        name: &str,
        mode: Mode,
        uid: Uid,
        gid: Gid,
    ) -> SysResult<NodeId> {
        self.node(dir)?.dir_entries()?;
        let id = self.alloc(NodeBody::Socket, mode, uid, gid, 1);
        match self.insert_entry(dir, name, id) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.nodes.remove(&id);
                Err(e)
            }
        }
    }

    /// Install a hard link to existing node `target` under `dir/name`.
    /// Hard links to directories are refused (`EPERM`), as on FreeBSD.
    pub fn link(&mut self, dir: NodeId, name: &str, target: NodeId) -> SysResult<()> {
        let t = self.node(target)?;
        if t.is_dir() {
            return Err(Errno::EPERM);
        }
        if t.nlink >= LINK_MAX {
            return Err(Errno::EMLINK);
        }
        self.insert_entry(dir, name, target)?;
        self.node_mut(target)?.nlink += 1;
        Ok(())
    }

    /// Remove the entry `dir/name` referring to a non-directory. Frees the
    /// node when its link count reaches zero and no descriptor holds it open.
    pub fn unlink(&mut self, dir: NodeId, name: &str) -> SysResult<()> {
        let child = self.lookup(dir, name)?;
        if self.node(child)?.is_dir() {
            return Err(Errno::EISDIR);
        }
        let now = self.tick();
        let d = self.node_mut(dir)?;
        d.dir_entries_mut()?.remove(name);
        d.mtime = now;
        if matches!(self.name_cache.get(&child), Some((p, n)) if *p == dir && n == name) {
            self.purge_name(child);
        }
        let c = self.node_mut(child)?;
        c.nlink = c.nlink.saturating_sub(1);
        self.maybe_reclaim(child);
        Ok(())
    }

    /// Remove the empty directory `dir/name`.
    pub fn rmdir(&mut self, dir: NodeId, name: &str) -> SysResult<()> {
        let child = self.lookup(dir, name)?;
        {
            let c = self.node(child)?;
            let entries = c.dir_entries()?;
            if !entries.is_empty() {
                return Err(Errno::ENOTEMPTY);
            }
        }
        let now = self.tick();
        let d = self.node_mut(dir)?;
        d.dir_entries_mut()?.remove(name);
        d.mtime = now;
        d.nlink = d.nlink.saturating_sub(1);
        self.purge_name(child);
        let c = self.node_mut(child)?;
        c.nlink = 0;
        self.maybe_reclaim(child);
        Ok(())
    }

    /// Rename `srcdir/sname` to `dstdir/dname`, replacing a compatible
    /// existing destination. Refuses to move a directory into its own
    /// subtree (`EINVAL`), matching `rename(2)`.
    pub fn rename(
        &mut self,
        srcdir: NodeId,
        sname: &str,
        dstdir: NodeId,
        dname: &str,
    ) -> SysResult<()> {
        let node = self.lookup(srcdir, sname)?;
        if !crate::node::valid_component(dname) || dname == "." || dname == ".." {
            return Err(Errno::EINVAL);
        }
        let is_dir = self.node(node)?.is_dir();
        if is_dir {
            // Walk up from dstdir: node must not be an ancestor of dstdir.
            let mut cur = dstdir;
            loop {
                if cur == node {
                    return Err(Errno::EINVAL);
                }
                if cur == self.root {
                    break;
                }
                cur = self.parent_of(cur)?;
            }
        }
        // Remove a pre-existing destination entry.
        if let Ok(existing) = self.lookup(dstdir, dname) {
            if existing == node {
                return Ok(()); // rename to itself is a no-op
            }
            let exist_is_dir = self.node(existing)?.is_dir();
            match (is_dir, exist_is_dir) {
                (true, false) => return Err(Errno::ENOTDIR),
                (false, true) => return Err(Errno::EISDIR),
                (true, true) => self.rmdir(dstdir, dname)?,
                (false, false) => self.unlink(dstdir, dname)?,
            }
        }
        let now = self.tick();
        {
            let s = self.node_mut(srcdir)?;
            s.dir_entries_mut()?.remove(sname);
            s.mtime = now;
        }
        {
            let d = self.node_mut(dstdir)?;
            d.dir_entries_mut()?.insert(dname.to_string(), node);
            d.mtime = now;
        }
        if is_dir && srcdir != dstdir {
            self.node_mut(srcdir)?.nlink = self.node(srcdir)?.nlink.saturating_sub(1);
            self.node_mut(dstdir)?.nlink += 1;
        }
        self.name_cache.insert(node, (dstdir, dname.to_string()));
        Ok(())
    }

    /// Read up to `len` bytes from a regular file at `offset`.
    pub fn read(&self, node: NodeId, offset: u64, len: usize) -> SysResult<Vec<u8>> {
        let len = match self.fault_io(false, node, offset, len) {
            Some(IoFault::Fail(e)) => return Err(e),
            Some(IoFault::Short(n)) => len.min(n),
            None => len,
        };
        let n = self.node(node)?;
        let data = n.file_data()?;
        let start = (offset as usize).min(data.len());
        let end = start.saturating_add(len).min(data.len());
        Ok(data[start..end].to_vec())
    }

    /// Write `buf` into a regular file at `offset`, extending (zero-filling)
    /// as needed. Returns the number of bytes written.
    pub fn write(&mut self, node: NodeId, offset: u64, buf: &[u8]) -> SysResult<usize> {
        let buf = match self.fault_io(true, node, offset, buf.len()) {
            Some(IoFault::Fail(e)) => return Err(e),
            Some(IoFault::Short(n)) => &buf[..buf.len().min(n)],
            None => buf,
        };
        let now = self.tick();
        let n = self.node_mut(node)?;
        let data = n.file_data_mut()?;
        let off = offset as usize;
        if off > data.len() {
            data.resize(off, 0);
        }
        let overlap = data.len().saturating_sub(off).min(buf.len());
        data[off..off + overlap].copy_from_slice(&buf[..overlap]);
        data.extend_from_slice(&buf[overlap..]);
        n.mtime = now;
        Ok(buf.len())
    }

    /// Append `buf` to a regular file; returns the offset it landed at.
    pub fn append(&mut self, node: NodeId, buf: &[u8]) -> SysResult<u64> {
        let len = self.node(node)?.file_data()?.len() as u64;
        self.write(node, len, buf)?;
        Ok(len)
    }

    /// Truncate (or extend) a regular file to `len` bytes.
    pub fn truncate(&mut self, node: NodeId, len: u64) -> SysResult<()> {
        let now = self.tick();
        let n = self.node_mut(node)?;
        let data = n.file_data_mut()?;
        data.resize(len as usize, 0);
        n.mtime = now;
        Ok(())
    }

    /// List names in a directory (sorted; `BTreeMap` order).
    pub fn readdir(&self, dir: NodeId) -> SysResult<Vec<String>> {
        Ok(self.node(dir)?.dir_entries()?.keys().cloned().collect())
    }

    /// Read a symlink's target.
    pub fn readlink(&self, node: NodeId) -> SysResult<String> {
        match &self.node(node)?.body {
            NodeBody::Symlink(t) => Ok(t.clone()),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Change permission bits.
    pub fn chmod(&mut self, node: NodeId, mode: Mode) -> SysResult<()> {
        let now = self.tick();
        let n = self.node_mut(node)?;
        n.mode = Mode(mode.bits());
        n.ctime = now;
        Ok(())
    }

    /// Change ownership.
    pub fn chown(&mut self, node: NodeId, uid: Uid, gid: Gid) -> SysResult<()> {
        let now = self.tick();
        let n = self.node_mut(node)?;
        n.uid = uid;
        n.gid = gid;
        n.ctime = now;
        Ok(())
    }

    /// Reconstruct an absolute path for `node` from the name cache, the
    /// mechanism behind the paper's new `path` system call. Returns `None`
    /// when any ancestor link has been purged from the cache.
    pub fn path_of(&self, node: NodeId) -> Option<String> {
        if node == self.root {
            return Some("/".to_string());
        }
        let mut parts: Vec<&str> = Vec::new();
        let mut cur = node;
        let mut hops = 0;
        while cur != self.root {
            let (parent, name) = self.name_cache.get(&cur)?;
            parts.push(name);
            cur = *parent;
            hops += 1;
            if hops > 4096 {
                return None; // defensive: corrupted cache
            }
        }
        parts.reverse();
        Some(format!("/{}", parts.join("/")))
    }

    /// Drop `node`'s name-cache entry. A node a descriptor still holds
    /// open keeps the path it was reachable at until now.
    fn purge_name(&mut self, node: NodeId) {
        if self.open_refs.contains_key(&node) {
            if let Some(path) = self.path_of(node) {
                self.last_paths.insert(node, path);
            }
        }
        self.name_cache.remove(&node);
    }

    /// The last path at which an open node was reachable, recorded when its
    /// name-cache entry was purged (`unlink`, `rmdir`, or the one a
    /// replacing `rename` performs). The runtime falls back to it when the
    /// `path` syscall fails (§3.1.3: "If the path system call fails, SHILL
    /// uses the last known path"). `None` once the last descriptor closes.
    pub fn last_path(&self, node: NodeId) -> Option<&str> {
        self.last_paths.get(&node).map(String::as_str)
    }

    /// Take an open reference on a node (kernel calls this when a descriptor
    /// is created), keeping unlinked-but-open files alive.
    pub fn incref(&mut self, node: NodeId) {
        *self.open_refs.entry(node).or_insert(0) += 1;
    }

    /// Drop an open reference; reclaims the node if it is also unlinked.
    pub fn decref(&mut self, node: NodeId) {
        if let Some(c) = self.open_refs.get_mut(&node) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.open_refs.remove(&node);
                self.last_paths.remove(&node);
            }
        }
        self.maybe_reclaim(node);
    }

    fn maybe_reclaim(&mut self, node: NodeId) {
        let reclaim = match self.nodes.get(&node) {
            Some(n) => n.nlink == 0 && !self.open_refs.contains_key(&node) && node != self.root,
            None => false,
        };
        if reclaim {
            self.nodes.remove(&node);
            self.name_cache.remove(&node);
        }
    }

    /// Whether this node still exists (used by tests).
    pub fn exists(&self, node: NodeId) -> bool {
        self.nodes.contains_key(&node)
    }

    /// Convenience used by workload builders and the ambient runtime:
    /// resolve an absolute, slash-separated path with no symlink following
    /// and no `.`/`..` handling. Not used on any sandboxed path — the kernel
    /// walker is the checked version.
    pub fn resolve_abs(&self, path: &str) -> SysResult<NodeId> {
        self.resolve_abs_inner(path, &mut 0)
    }

    fn resolve_abs_inner(&self, path: &str, hops: &mut u32) -> SysResult<NodeId> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self.lookup(cur, comp)?;
            // Follow symlinks eagerly for convenience resolution. The hop
            // budget is shared across nested targets so loops terminate.
            while let NodeBody::Symlink(t) = &self.node(cur)?.body {
                let t = t.clone();
                *hops += 1;
                if *hops > 32 {
                    return Err(Errno::ELOOP);
                }
                cur = self.resolve_abs_inner(&t, hops)?;
            }
        }
        Ok(cur)
    }

    /// Build all intermediate directories for an absolute path, returning the
    /// node of the final directory. Helper for workload construction.
    pub fn mkdir_p(&mut self, path: &str, mode: Mode, uid: Uid, gid: Gid) -> SysResult<NodeId> {
        let mut cur = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = match self.lookup(cur, comp) {
                Ok(n) => {
                    if !self.node(n)?.is_dir() {
                        return Err(Errno::ENOTDIR);
                    }
                    n
                }
                Err(Errno::ENOENT) => self.create_dir(cur, comp, mode, uid, gid)?,
                Err(e) => return Err(e),
            };
        }
        Ok(cur)
    }

    /// Create (or truncate) a file at an absolute path with given contents.
    /// Helper for workload construction; not a checked syscall path.
    pub fn put_file(
        &mut self,
        path: &str,
        contents: &[u8],
        mode: Mode,
        uid: Uid,
        gid: Gid,
    ) -> SysResult<NodeId> {
        let (dir_path, name) = match path.rfind('/') {
            Some(i) => (&path[..i], &path[i + 1..]),
            None => return Err(Errno::EINVAL),
        };
        let dir = self.mkdir_p(dir_path, Mode::DIR_DEFAULT, uid, gid)?;
        let id = match self.lookup(dir, name) {
            Ok(existing) => {
                self.truncate(existing, 0)?;
                existing
            }
            Err(Errno::ENOENT) => self.create_file(dir, name, mode, uid, gid)?,
            Err(e) => return Err(e),
        };
        self.write(id, 0, contents)?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Filesystem {
        Filesystem::new()
    }

    #[test]
    fn create_and_lookup_file() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a.txt", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.lookup(root, "a.txt").unwrap(), id);
        assert_eq!(f.lookup(root, "missing").unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn duplicate_create_fails_and_leaks_nothing() {
        let mut f = fs();
        let root = f.root();
        let before = f.node_count();
        f.create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        let mid = f.node_count();
        assert_eq!(mid, before + 1);
        assert_eq!(
            f.create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
                .unwrap_err(),
            Errno::EEXIST
        );
        assert_eq!(f.node_count(), mid);
    }

    #[test]
    fn write_read_roundtrip_and_extension() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.write(id, 0, b"hello").unwrap();
        assert_eq!(f.read(id, 0, 100).unwrap(), b"hello");
        f.write(id, 10, b"world").unwrap();
        assert_eq!(f.read(id, 0, 100).unwrap(), b"hello\0\0\0\0\0world");
        f.write(id, 2, b"LL").unwrap();
        assert_eq!(&f.read(id, 0, 5).unwrap(), b"heLLo");
    }

    #[test]
    fn append_returns_old_length() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.append(id, b"ab").unwrap(), 0);
        assert_eq!(f.append(id, b"cd").unwrap(), 2);
        assert_eq!(f.read(id, 0, 10).unwrap(), b"abcd");
    }

    #[test]
    fn unlink_reclaims_when_not_open() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.unlink(root, "a").unwrap();
        assert!(!f.exists(id));
    }

    #[test]
    fn unlink_keeps_open_files_alive() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.write(id, 0, b"data").unwrap();
        f.incref(id);
        f.unlink(root, "a").unwrap();
        assert!(f.exists(id));
        assert_eq!(f.read(id, 0, 4).unwrap(), b"data");
        f.decref(id);
        assert!(!f.exists(id));
    }

    #[test]
    fn hard_links_share_content() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.link(root, "b", id).unwrap();
        assert_eq!(f.node(id).unwrap().nlink, 2);
        f.write(id, 0, b"x").unwrap();
        assert_eq!(f.lookup(root, "b").unwrap(), id);
        f.unlink(root, "a").unwrap();
        assert!(f.exists(id));
        assert_eq!(f.node(id).unwrap().nlink, 1);
    }

    #[test]
    fn link_to_directory_is_eperm() {
        let mut f = fs();
        let root = f.root();
        let d = f
            .create_dir(root, "d", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.link(root, "d2", d).unwrap_err(), Errno::EPERM);
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut f = fs();
        let root = f.root();
        let d = f
            .create_dir(root, "d", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.create_file(d, "x", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.rmdir(root, "d").unwrap_err(), Errno::ENOTEMPTY);
        f.unlink(d, "x").unwrap();
        f.rmdir(root, "d").unwrap();
        assert!(!f.exists(d));
    }

    #[test]
    fn dir_nlink_counts_subdirs() {
        let mut f = fs();
        let root = f.root();
        let d = f
            .create_dir(root, "d", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.node(d).unwrap().nlink, 2);
        f.create_dir(d, "s1", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.create_dir(d, "s2", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.node(d).unwrap().nlink, 4);
        f.rmdir(d, "s1").unwrap();
        assert_eq!(f.node(d).unwrap().nlink, 3);
    }

    #[test]
    fn rename_moves_and_updates_cache() {
        let mut f = fs();
        let root = f.root();
        let a = f
            .create_dir(root, "a", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        let b = f
            .create_dir(root, "b", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        let file = f
            .create_file(a, "f", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.path_of(file).unwrap(), "/a/f");
        f.rename(a, "f", b, "g").unwrap();
        assert_eq!(f.lookup(a, "f").unwrap_err(), Errno::ENOENT);
        assert_eq!(f.lookup(b, "g").unwrap(), file);
        assert_eq!(f.path_of(file).unwrap(), "/b/g");
    }

    #[test]
    fn rename_replaces_existing_file() {
        let mut f = fs();
        let root = f.root();
        let a = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        let b = f
            .create_file(root, "b", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.rename(root, "a", root, "b").unwrap();
        assert_eq!(f.lookup(root, "b").unwrap(), a);
        assert!(!f.exists(b));
    }

    #[test]
    fn rename_dir_into_own_subtree_fails() {
        let mut f = fs();
        let root = f.root();
        let a = f
            .create_dir(root, "a", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        let b = f
            .create_dir(a, "b", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.rename(root, "a", b, "c").unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn path_of_root_and_nested() {
        let mut f = fs();
        let root = f.root();
        assert_eq!(f.path_of(root).unwrap(), "/");
        let home = f
            .create_dir(root, "home", Mode::DIR_DEFAULT, Uid(0), Gid(0))
            .unwrap();
        let alice = f
            .create_dir(home, "alice", Mode::DIR_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        let dog = f
            .create_file(alice, "dog.jpg", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.path_of(dog).unwrap(), "/home/alice/dog.jpg");
    }

    #[test]
    fn path_of_fails_after_unlink() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.incref(id);
        f.unlink(root, "a").unwrap();
        assert_eq!(f.path_of(id), None);
    }

    #[test]
    fn symlink_and_readlink() {
        let mut f = fs();
        let root = f.root();
        let l = f
            .create_symlink(root, "l", "/target", Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.readlink(l).unwrap(), "/target");
        let file = f
            .create_file(root, "t", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        assert_eq!(f.readlink(file).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn resolve_abs_follows_symlinks() {
        let mut f = fs();
        f.mkdir_p("/usr/local/lib", Mode::DIR_DEFAULT, Uid(0), Gid(0))
            .unwrap();
        let id = f
            .put_file(
                "/usr/local/lib/x.so",
                b"lib",
                Mode::FILE_DEFAULT,
                Uid(0),
                Gid(0),
            )
            .unwrap();
        let usr = f.resolve_abs("/usr").unwrap();
        f.create_symlink(f.root(), "ulink", "/usr", Uid(0), Gid(0))
            .unwrap();
        assert_eq!(f.resolve_abs("/ulink"), Ok(usr));
        assert_eq!(f.resolve_abs("/ulink/local/lib/x.so"), Ok(id));
    }

    #[test]
    fn resolve_abs_detects_loops() {
        let mut f = fs();
        f.create_symlink(f.root(), "self", "/self", Uid(0), Gid(0))
            .unwrap();
        assert_eq!(f.resolve_abs("/self").unwrap_err(), Errno::ELOOP);
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.write(id, 0, b"abcdef").unwrap();
        f.truncate(id, 3).unwrap();
        assert_eq!(f.read(id, 0, 10).unwrap(), b"abc");
        f.truncate(id, 5).unwrap();
        assert_eq!(f.read(id, 0, 10).unwrap(), b"abc\0\0");
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let mut f = fs();
        let a = f
            .mkdir_p("/x/y/z", Mode::DIR_DEFAULT, Uid(0), Gid(0))
            .unwrap();
        let b = f
            .mkdir_p("/x/y/z", Mode::DIR_DEFAULT, Uid(0), Gid(0))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_component_names_rejected() {
        let mut f = fs();
        let root = f.root();
        for bad in ["", ".", "..", "a/b"] {
            assert_eq!(
                f.create_file(root, bad, Mode::FILE_DEFAULT, Uid(1), Gid(1))
                    .unwrap_err(),
                Errno::EINVAL,
                "name {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn mtime_advances_on_writes() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        let t0 = f.node(id).unwrap().mtime;
        f.write(id, 0, b"x").unwrap();
        let t1 = f.node(id).unwrap().mtime;
        assert!(t1 > t0);
    }

    #[test]
    fn chmod_chown() {
        let mut f = fs();
        let root = f.root();
        let id = f
            .create_file(root, "a", Mode::FILE_DEFAULT, Uid(1), Gid(1))
            .unwrap();
        f.chmod(id, Mode(0o600)).unwrap();
        f.chown(id, Uid(5), Gid(6)).unwrap();
        let st = f.node(id).unwrap().stat();
        assert_eq!(st.mode.bits(), 0o600);
        assert_eq!(st.uid, Uid(5));
        assert_eq!(st.gid, Gid(6));
    }
}
