//! Simulated network stack.
//!
//! The paper's evaluation needs the network twice: the Emacs `download`
//! function fetches a tarball with `curl`, and the Apache case study serves
//! a 50 MB file to many concurrent clients. Real networking is unavailable
//! here, so this module simulates both directions:
//!
//! * **Outbound**: *remote endpoints* are registered as request→response
//!   handlers; `connect`/`send`/`recv` against their address exercise the
//!   full socket syscall path (and therefore every MAC socket check).
//! * **Inbound**: the benchmark driver *injects* client connections into a
//!   listening socket's accept queue; the sandboxed server `accept`s,
//!   `recv`s the request and `send`s the response, which the driver collects
//!   afterwards. Execution is synchronous, so the driver plays the client
//!   side before/after the server runs rather than concurrently.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use shill_vfs::{Errno, IdMap, IoFault, SysResult};

use crate::fault::{FaultPlane, FaultSite};
use crate::pipe::{data_fault_key, take_front};
use crate::types::{SockAddr, SockDomain, SockId};

/// Handler for a simulated remote host: consumes one request message and
/// produces the response bytes.
pub type RemoteHandler = Box<dyn FnMut(&[u8]) -> Vec<u8> + Send + Sync>;

/// Identifier for an injected (inbound) connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjConnId(pub u64);

#[derive(Debug)]
struct InjConn {
    request: VecDeque<u8>,
    response: Vec<u8>,
    finished: bool,
}

enum ConnKind {
    Remote {
        addr: SockAddr,
        recv_buf: VecDeque<u8>,
    },
    Injected(InjConnId),
}

enum SockState {
    New,
    Bound(SockAddr),
    Listening {
        addr: SockAddr,
        pending: VecDeque<InjConnId>,
    },
    Connected(ConnKind),
    Closed,
}

struct Socket {
    domain: SockDomain,
    state: SockState,
}

/// The network stack: sockets, listeners, remote endpoints, injected
/// connections, and traffic counters.
#[derive(Default)]
pub struct NetStack {
    remotes: HashMap<SockAddr, RemoteHandler>,
    sockets: IdMap<SockId, Socket>,
    listeners: HashMap<SockAddr, SockId>,
    inj: IdMap<InjConnId, InjConn>,
    /// Connections queued for an address *before* anything listens there;
    /// delivered to the accept queue at `listen` time. This is how a
    /// synchronous driver plays "clients" against a server it runs next.
    preloaded: HashMap<SockAddr, VecDeque<InjConnId>>,
    next_sock: u64,
    next_conn: u64,
    /// Total bytes sent/received through sockets, for tests and reports.
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Fault plane consulted on the data path (`sock.send` / `sock.recv`
    /// sites); installed by [`crate::kernel::Kernel::set_fault_plane`].
    faults: Option<Arc<FaultPlane>>,
}

impl NetStack {
    pub fn new() -> NetStack {
        NetStack::default()
    }

    /// A stack allocating `SockId`s from `base` upward. Kernel shards use
    /// disjoint bases so socket ids — which key shared MAC policy labels —
    /// never alias across shards.
    pub fn with_id_base(base: u64) -> NetStack {
        NetStack {
            next_sock: base,
            ..NetStack::default()
        }
    }

    /// Install (or clear) the fault plane consulted on sends and receives.
    pub fn set_fault_plane(&mut self, plane: Option<Arc<FaultPlane>>) {
        self.faults = plane;
    }

    /// Register a simulated remote host at `addr`.
    pub fn register_remote(&mut self, addr: SockAddr, handler: RemoteHandler) {
        self.remotes.insert(addr, handler);
    }

    /// Create an unbound socket.
    pub fn socket(&mut self, domain: SockDomain) -> SockId {
        self.next_sock += 1;
        let id = SockId(self.next_sock);
        self.sockets.insert(
            id,
            Socket {
                domain,
                state: SockState::New,
            },
        );
        id
    }

    pub fn domain(&self, sock: SockId) -> SysResult<SockDomain> {
        Ok(self.sockets.get(&sock).ok_or(Errno::EBADF)?.domain)
    }

    fn get_mut(&mut self, sock: SockId) -> SysResult<&mut Socket> {
        self.sockets.get_mut(&sock).ok_or(Errno::EBADF)
    }

    /// Bind a socket to a local address.
    pub fn bind(&mut self, sock: SockId, addr: SockAddr) -> SysResult<()> {
        if self.listeners.contains_key(&addr) {
            return Err(Errno::EADDRINUSE);
        }
        let s = self.get_mut(sock)?;
        match s.state {
            SockState::New => {
                s.state = SockState::Bound(addr);
                Ok(())
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// Start listening on a bound socket. Any connections preloaded for the
    /// address land in the accept queue immediately.
    pub fn listen(&mut self, sock: SockId) -> SysResult<()> {
        let state = {
            let s = self.get_mut(sock)?;
            std::mem::replace(&mut s.state, SockState::Closed)
        };
        match state {
            SockState::Bound(addr) => {
                let pending = self.preloaded.remove(&addr).unwrap_or_default();
                let s = self.get_mut(sock)?;
                s.state = SockState::Listening {
                    addr: addr.clone(),
                    pending,
                };
                self.listeners.insert(addr, sock);
                Ok(())
            }
            other => {
                self.get_mut(sock)?.state = other;
                Err(Errno::EINVAL)
            }
        }
    }

    /// Queue an inbound client connection for `addr` before (or after) a
    /// listener exists. Driver-side API.
    pub fn preload_connection(&mut self, addr: SockAddr, request: Vec<u8>) -> InjConnId {
        self.next_conn += 1;
        let id = InjConnId(self.next_conn);
        self.inj.insert(
            id,
            InjConn {
                request: request.into(),
                response: Vec::new(),
                finished: false,
            },
        );
        // If a listener is already up, deliver straight to its queue.
        if let Some(lsock) = self.listeners.get(&addr).copied() {
            if let Some(Socket {
                state: SockState::Listening { pending, .. },
                ..
            }) = self.sockets.get_mut(&lsock)
            {
                pending.push_back(id);
                return id;
            }
        }
        self.preloaded.entry(addr).or_default().push_back(id);
        id
    }

    /// Queue an inbound client connection carrying `request` onto the
    /// listener bound at `addr`. Driver-side API (not a syscall).
    pub fn inject_connection(&mut self, addr: &SockAddr, request: Vec<u8>) -> SysResult<InjConnId> {
        let lsock = *self.listeners.get(addr).ok_or(Errno::ECONNREFUSED)?;
        self.next_conn += 1;
        let id = InjConnId(self.next_conn);
        self.inj.insert(
            id,
            InjConn {
                request: request.into(),
                response: Vec::new(),
                finished: false,
            },
        );
        match &mut self.get_mut(lsock)?.state {
            SockState::Listening { pending, .. } => {
                pending.push_back(id);
                Ok(id)
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// Number of connections waiting in a listener's accept queue.
    pub fn pending(&self, sock: SockId) -> SysResult<usize> {
        match &self.sockets.get(&sock).ok_or(Errno::EBADF)?.state {
            SockState::Listening { pending, .. } => Ok(pending.len()),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Accept one pending connection; `EAGAIN` when the queue is empty.
    pub fn accept(&mut self, sock: SockId) -> SysResult<SockId> {
        let conn = match &mut self.get_mut(sock)?.state {
            SockState::Listening { pending, .. } => pending.pop_front().ok_or(Errno::EAGAIN)?,
            _ => return Err(Errno::EINVAL),
        };
        let domain = self.domain(sock)?;
        self.next_sock += 1;
        let id = SockId(self.next_sock);
        self.sockets.insert(
            id,
            Socket {
                domain,
                state: SockState::Connected(ConnKind::Injected(conn)),
            },
        );
        Ok(id)
    }

    /// Connect to a registered remote endpoint.
    pub fn connect(&mut self, sock: SockId, addr: SockAddr) -> SysResult<()> {
        if !self.remotes.contains_key(&addr) {
            return Err(Errno::ECONNREFUSED);
        }
        let s = self.get_mut(sock)?;
        match s.state {
            SockState::New => {
                s.state = SockState::Connected(ConnKind::Remote {
                    addr,
                    recv_buf: VecDeque::new(),
                });
                Ok(())
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// Send on a connected socket. For remote connections each `send` is one
    /// request message; the handler's response is buffered for `recv`. For
    /// injected connections the bytes accumulate as the response the driver
    /// will collect.
    pub fn send(&mut self, sock: SockId, mut buf: &[u8]) -> SysResult<usize> {
        self.bytes_sent += buf.len() as u64;
        // Classify the connection first so the socket borrow ends before we
        // touch the handler or injected-connection tables.
        enum Target {
            Remote(SockAddr),
            Injected(InjConnId),
        }
        let target = match &self.sockets.get(&sock).ok_or(Errno::EBADF)?.state {
            SockState::Connected(ConnKind::Remote { addr, .. }) => Target::Remote(addr.clone()),
            SockState::Connected(ConnKind::Injected(conn)) => Target::Injected(*conn),
            _ => return Err(Errno::ENOTCONN),
        };
        // Fault check after classification: an injected reset models the
        // peer dying mid-send, not a bad descriptor.
        if let Some(plane) = &self.faults {
            match plane.check_io(
                FaultSite::SockSend,
                data_fault_key(sock.0, buf.len()),
                buf.len(),
            ) {
                Some(IoFault::Fail(e)) => return Err(e),
                Some(IoFault::Short(n)) => {
                    // Only the prefix goes on the wire; keep the counter
                    // honest about what was actually transmitted.
                    self.bytes_sent -= (buf.len() - n) as u64;
                    buf = &buf[..n];
                }
                None => {}
            }
        }
        match target {
            Target::Remote(addr) => {
                // Take/put the handler so it cannot observe a partially
                // borrowed stack while producing the response.
                let mut handler = self.remotes.remove(&addr).ok_or(Errno::ECONNRESET)?;
                let response = handler(buf);
                self.remotes.insert(addr, handler);
                match &mut self.sockets.get_mut(&sock).ok_or(Errno::EBADF)?.state {
                    SockState::Connected(ConnKind::Remote { recv_buf, .. }) => {
                        recv_buf.extend(response);
                        Ok(buf.len())
                    }
                    _ => Err(Errno::ENOTCONN),
                }
            }
            Target::Injected(conn) => {
                let c = self.inj.get_mut(&conn).ok_or(Errno::ECONNRESET)?;
                c.response.extend_from_slice(buf);
                Ok(buf.len())
            }
        }
    }

    /// Receive up to `len` bytes; `Ok(empty)` signals EOF.
    pub fn recv(&mut self, sock: SockId, mut len: usize) -> SysResult<Vec<u8>> {
        let s = self.sockets.get_mut(&sock).ok_or(Errno::EBADF)?;
        if let Some(plane) = &self.faults {
            if matches!(s.state, SockState::Connected(_)) {
                match plane.check_io(FaultSite::SockRecv, data_fault_key(sock.0, len), len) {
                    Some(IoFault::Fail(e)) => return Err(e),
                    Some(IoFault::Short(n)) => len = n,
                    None => {}
                }
            }
        }
        let out = match &mut s.state {
            SockState::Connected(ConnKind::Remote { recv_buf, .. }) => take_front(recv_buf, len),
            SockState::Connected(ConnKind::Injected(conn)) => {
                let conn = *conn;
                let c = self.inj.get_mut(&conn).ok_or(Errno::ECONNRESET)?;
                take_front(&mut c.request, len)
            }
            _ => return Err(Errno::ENOTCONN),
        };
        self.bytes_received += out.len() as u64;
        Ok(out)
    }

    /// Close a socket; marks an injected connection finished so the driver
    /// knows the response is complete.
    pub fn close(&mut self, sock: SockId) {
        if let Some(s) = self.sockets.get_mut(&sock) {
            if let SockState::Connected(ConnKind::Injected(conn)) = &s.state {
                if let Some(c) = self.inj.get_mut(conn) {
                    c.finished = true;
                }
            }
            if let SockState::Listening { addr, .. } = &s.state {
                self.listeners.remove(addr);
            }
            s.state = SockState::Closed;
        }
    }

    /// Driver-side: take the response bytes a server wrote to an injected
    /// connection. Returns `(finished, bytes)`.
    pub fn take_response(&mut self, conn: InjConnId) -> SysResult<(bool, Vec<u8>)> {
        let c = self.inj.remove(&conn).ok_or(Errno::EINVAL)?;
        Ok((c.finished, c.response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inet(port: u16) -> SockAddr {
        SockAddr::Inet {
            host: "test.example".into(),
            port,
        }
    }

    #[test]
    fn outbound_request_response() {
        let mut n = NetStack::new();
        n.register_remote(
            inet(80),
            Box::new(|req| {
                let mut v = b"echo:".to_vec();
                v.extend_from_slice(req);
                v
            }),
        );
        let s = n.socket(SockDomain::Inet);
        n.connect(s, inet(80)).unwrap();
        n.send(s, b"hello").unwrap();
        assert_eq!(n.recv(s, 100).unwrap(), b"echo:hello");
        assert_eq!(n.recv(s, 100).unwrap(), b""); // EOF
    }

    #[test]
    fn recv_copies_across_the_ring_wrap() {
        let mut n = NetStack::new();
        n.register_remote(inet(80), Box::new(|req| req.to_vec()));
        let s = n.socket(SockDomain::Inet);
        n.connect(s, inet(80)).unwrap();
        let bytes: Vec<u8> = (0..12).collect();
        n.send(s, &bytes[..8]).unwrap();
        assert_eq!(n.recv(s, 5).unwrap(), &bytes[..5]);
        n.send(s, &bytes[8..]).unwrap();
        match &n.sockets[&s].state {
            SockState::Connected(ConnKind::Remote { recv_buf, .. }) => assert!(
                !recv_buf.as_slices().1.is_empty(),
                "the second response wraps the ring"
            ),
            _ => unreachable!("connected to a remote"),
        }
        assert_eq!(n.recv(s, 100).unwrap(), &bytes[5..]);
        assert_eq!(n.recv(s, 100).unwrap(), b""); // EOF
    }

    #[test]
    fn connect_unregistered_is_refused() {
        let mut n = NetStack::new();
        let s = n.socket(SockDomain::Inet);
        assert_eq!(n.connect(s, inet(81)).unwrap_err(), Errno::ECONNREFUSED);
    }

    #[test]
    fn inbound_inject_accept_serve() {
        let mut n = NetStack::new();
        let server = n.socket(SockDomain::Inet);
        let addr = SockAddr::Inet {
            host: "0.0.0.0".into(),
            port: 8080,
        };
        n.bind(server, addr.clone()).unwrap();
        n.listen(server).unwrap();
        let conn = n.inject_connection(&addr, b"GET /file".to_vec()).unwrap();
        assert_eq!(n.pending(server).unwrap(), 1);

        let c = n.accept(server).unwrap();
        assert_eq!(n.recv(c, 3).unwrap(), b"GET");
        assert_eq!(n.recv(c, 100).unwrap(), b" /file");
        n.send(c, b"200 OK").unwrap();
        n.close(c);

        let (finished, resp) = n.take_response(conn).unwrap();
        assert!(finished);
        assert_eq!(resp, b"200 OK");
    }

    #[test]
    fn accept_empty_queue_is_eagain() {
        let mut n = NetStack::new();
        let server = n.socket(SockDomain::Inet);
        let addr = SockAddr::Inet {
            host: "0.0.0.0".into(),
            port: 9. as u16,
        };
        n.bind(server, addr).unwrap();
        n.listen(server).unwrap();
        assert_eq!(n.accept(server).unwrap_err(), Errno::EAGAIN);
    }

    #[test]
    fn double_bind_is_addrinuse() {
        let mut n = NetStack::new();
        let a = n.socket(SockDomain::Inet);
        let b = n.socket(SockDomain::Inet);
        let addr = SockAddr::Inet {
            host: "0.0.0.0".into(),
            port: 80,
        };
        n.bind(a, addr.clone()).unwrap();
        n.listen(a).unwrap();
        assert_eq!(n.bind(b, addr.clone()).unwrap_err(), Errno::EADDRINUSE);
        // Closing the listener frees the address.
        n.close(a);
        n.bind(b, addr).unwrap();
    }

    #[test]
    fn injected_socket_faults_fail_and_shorten() {
        let mut n = NetStack::new();
        n.register_remote(
            inet(80),
            Box::new(|req| {
                let mut v = b"echo:".to_vec();
                v.extend_from_slice(req);
                v
            }),
        );
        let s = n.socket(SockDomain::Inet);
        n.connect(s, inet(80)).unwrap();
        n.set_fault_plane(Some(Arc::new(
            FaultPlane::seeded(1, 0, &[])
                .fail_on(FaultSite::SockSend, 1, Errno::ECONNRESET)
                .short_on(FaultSite::SockSend, 2, 3)
                .fail_on(FaultSite::SockRecv, 1, Errno::ECONNRESET),
        )));
        assert_eq!(n.send(s, b"hello").unwrap_err(), Errno::ECONNRESET);
        assert_eq!(n.send(s, b"hello").unwrap(), 3, "short send");
        assert_eq!(n.bytes_sent, 5 + 3, "counter reflects transmitted bytes");
        assert_eq!(n.recv(s, 100).unwrap_err(), Errno::ECONNRESET);
        assert_eq!(
            n.recv(s, 100).unwrap(),
            b"echo:hel",
            "prefix was the request"
        );
        let plane = n.faults.as_ref().unwrap();
        assert_eq!(
            plane.drain(),
            (3, 3),
            "all injected faults surfaced cleanly"
        );
    }

    #[test]
    fn traffic_counters() {
        let mut n = NetStack::new();
        n.register_remote(inet(80), Box::new(|_| vec![0u8; 10]));
        let s = n.socket(SockDomain::Inet);
        n.connect(s, inet(80)).unwrap();
        n.send(s, b"abcd").unwrap();
        n.recv(s, 10).unwrap();
        assert_eq!(n.bytes_sent, 4);
        assert_eq!(n.bytes_received, 10);
    }
}
