//! Socket front-end: accept loops, per-connection handlers, and a small
//! blocking [`Client`].
//!
//! [`Server::start`] binds a loopback TCP listener (and optionally a Unix
//! socket) and serves frames until [`Server::shutdown`]. Each accepted
//! connection is an `accept` trace instant and gets its own handler
//! thread; the handler speaks the [`crate::proto`] grammar, runs each
//! request's kernel work itself, owns at most one session, and always
//! closes that session on the way out — a client that vanishes
//! mid-stream leaks nothing. The accepter drops an ended connection's
//! thread handle at its next accept.
//!
//! Threads block on their sockets; none polls. [`Server::shutdown`] sets
//! the stop flag and wakes each accepter with one loopback connection to
//! its own address, dropped unserved. It then closes the read half of the
//! stream clone kept beside each handler's thread handle, so a handler
//! blocked in [`read_frame`] reads `Closed` (or `Truncated` mid-frame),
//! closes its session and hangs up. Every handler hangs up on the way
//! out, so a kept clone never holds a finished connection open.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use shill_kernel::TraceSite;

use crate::core::{ServerCore, SessionHandle};
use crate::proto::{
    err_payload, ok_payload, read_frame, write_frame, FrameError, Request, MAX_FRAME_DEFAULT,
};

/// How long an accepter waits after a failed `accept` before it retries:
/// a descriptor shortage fails every retry at once, so it must not spin.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(2);

/// Each live connection's handler thread, beside a clone of its stream
/// through which [`Server::shutdown`] wakes the handler.
type Conns = Arc<Mutex<Vec<(JoinHandle<()>, Box<dyn Stream>)>>>;

/// A running server: accept threads plus one handler thread per live
/// connection.
pub struct Server {
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    accepters: Vec<JoinHandle<()>>,
    conns: Conns,
    tcp_addr: SocketAddr,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Serve on an ephemeral loopback TCP port.
    pub fn start(core: ServerCore) -> std::io::Result<Server> {
        Server::start_inner(core, None)
    }

    /// Serve on loopback TCP *and* a Unix socket at `path`.
    pub fn start_with_unix(core: ServerCore, path: &Path) -> std::io::Result<Server> {
        Server::start_inner(core, Some(path.to_path_buf()))
    }

    fn start_inner(core: ServerCore, unix_path: Option<PathBuf>) -> std::io::Result<Server> {
        let tcp = TcpListener::bind("127.0.0.1:0")?;
        let tcp_addr = tcp.local_addr()?;
        let unix = match &unix_path {
            // Taking a live server's path would leave that server's
            // `shutdown` unable to reach its accepter.
            Some(path) if UnixStream::connect(path).is_ok() => {
                return Err(std::io::ErrorKind::AddrInUse.into())
            }
            Some(path) => {
                // A stale socket file from a previous run refuses the bind.
                let _ = std::fs::remove_file(path);
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };

        let core = Arc::new(core);
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Conns::default();
        let mut accepters = vec![spawn_accepter(&core, &stop, &conns, "tcp", move || {
            let (s, _) = tcp.accept()?;
            // A frame is two small writes (prefix, payload): without
            // NODELAY, Nagle holds the second until the peer's delayed
            // ACK — tens of ms per request.
            let _ = s.set_nodelay(true);
            Ok((s.try_clone()?, s))
        })];
        if let Some(unix) = unix {
            accepters.push(spawn_accepter(&core, &stop, &conns, "unix", move || {
                let (s, _) = unix.accept()?;
                Ok((s.try_clone()?, s))
            }));
        }

        Ok(Server {
            core,
            stop,
            accepters,
            conns,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (ephemeral port).
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The engine (stats, telemetry, drain state).
    pub fn core(&self) -> Arc<ServerCore> {
        Arc::clone(&self.core)
    }

    /// Graceful drain: refuse new frames and sessions, wait for every
    /// in-flight frame to complete and be delivered. Connections stay up
    /// (their next frame gets `err ECANCELED`).
    pub fn drain(&self) {
        self.core.drain();
    }

    /// Stop accepting, wake every handler, and join all threads. Open
    /// sessions are closed by their handlers on the way out.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each accepter is blocked in `accept`: one connection to its own
        // address wakes it, and it sees the flag.
        let _ = TcpStream::connect(self.tcp_addr);
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
        for h in self.accepters {
            let _ = h.join();
        }
        // With the accepters gone, `conns` holds every handler they
        // started. Closing a read half wakes a handler blocked reading.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for (_, stream) in &conns {
            stream.hang_up(Shutdown::Read);
        }
        for (h, _) in conns {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs `accept`, which yields a clone of a connection's stream to keep
/// and the stream itself, until `shutdown` sets `stop`. The connection that
/// wakes it then goes unserved.
fn spawn_accepter<S: Stream + 'static>(
    core: &Arc<ServerCore>,
    stop: &Arc<AtomicBool>,
    conns: &Conns,
    tag: &'static str,
    accept: impl Fn() -> std::io::Result<(S, S)> + Send + 'static,
) -> JoinHandle<()> {
    let (core, stop, conns) = (Arc::clone(core), Arc::clone(stop), Arc::clone(conns));
    thread::spawn(move || loop {
        let accepted = accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((kept, stream)) = accepted else {
            thread::sleep(ACCEPT_ERROR_PAUSE);
            continue;
        };
        if let Some(plane) = core.trace() {
            plane.instant(TraceSite::Accept, 0, 0, tag);
        }
        let core = Arc::clone(&core);
        let mut conns = conns.lock().unwrap();
        // Drop the handles of connections that have ended, so a
        // long-lived server keeps only its live connections' threads.
        conns.retain(|(h, _)| !h.is_finished());
        conns.push((
            thread::spawn(move || handle_conn(&core, stream)),
            Box::new(kept),
        ));
    })
}

trait Stream: Read + Write + Send {
    /// Shut down one or both halves; a thread blocked reading wakes.
    fn hang_up(&self, how: Shutdown);
}

impl Stream for TcpStream {
    fn hang_up(&self, how: Shutdown) {
        let _ = self.shutdown(how);
    }
}

impl Stream for UnixStream {
    fn hang_up(&self, how: Shutdown) {
        let _ = self.shutdown(how);
    }
}

fn handle_conn(core: &ServerCore, mut stream: impl Stream) {
    let max = core.max_frame();
    let mut session: Option<SessionHandle> = None;
    loop {
        let payload = match read_frame(&mut stream, max) {
            Ok(p) => p,
            // A clean close, a truncated frame, or `shutdown` closing the
            // read half: the conversation is over either way.
            Err(FrameError::Closed | FrameError::Truncated) => break,
            Err(FrameError::Oversized(n)) => {
                // The stream is out of sync past the prefix — answer and
                // hang up.
                let _ = write_frame(
                    &mut stream,
                    &err_payload("EFBIG", &format!("frame of {n} bytes exceeds {max}")),
                );
                break;
            }
        };
        let Some(req) = Request::parse(&payload) else {
            let _ = write_frame(&mut stream, &err_payload("EINVAL", "malformed request"));
            continue;
        };
        let reply = match (&req, &session) {
            (Request::Auth { tenant, secret }, None) => match core.open_session(tenant, secret) {
                Ok(h) => {
                    let sid = h.session.to_string();
                    session = Some(h);
                    ok_payload(sid.as_bytes())
                }
                Err(e) => err_payload(e.errno_name(), &e.detail()),
            },
            (Request::Auth { .. }, Some(_)) => err_payload("EINVAL", "already authenticated"),
            (Request::Bye, _) => {
                let _ = write_frame(&mut stream, &ok_payload(b"bye"));
                break;
            }
            (Request::Ping, None) => ok_payload(b"pong"),
            (_, None) => err_payload("EACCES", "authenticate first"),
            (_, Some(h)) => match core.dispatch(h, &req) {
                Ok(data) => ok_payload(&data),
                Err(e) => err_payload(e.errno_name(), &e.detail()),
            },
        };
        if write_frame(&mut stream, &reply).is_err() {
            break;
        }
    }
    if let Some(h) = session.take() {
        core.close_session(h);
    }
    // The accepter's clone would otherwise hold the connection open until
    // the next accept.
    stream.hang_up(Shutdown::Both);
}

/// A blocking protocol client for tests, the load-generator bench, and
/// the CI smoke.
pub struct Client {
    stream: Box<dyn Stream>,
}

impl Client {
    /// Connect over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: Box::new(stream),
        })
    }

    /// Connect over a Unix socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        Ok(Client {
            stream: Box::new(UnixStream::connect(path)?),
        })
    }

    /// Send one request line, return the response payload as text.
    pub fn req(&mut self, line: &str) -> Result<String, FrameError> {
        self.req_bytes(line.as_bytes())
    }

    /// Send one raw request payload, return the response payload as text.
    pub fn req_bytes(&mut self, payload: &[u8]) -> Result<String, FrameError> {
        write_frame(&mut self.stream, payload).map_err(|_| FrameError::Truncated)?;
        let reply = read_frame(&mut self.stream, MAX_FRAME_DEFAULT)?;
        Ok(String::from_utf8_lossy(&reply).into_owned())
    }

    /// Authenticate; returns the full `ok <session>` / `err ...` response.
    pub fn auth(&mut self, tenant: &str, secret: &str) -> Result<String, FrameError> {
        self.req(&format!("auth {tenant} {secret}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::StaticTokens;
    use crate::core::{ServerConfig, TenantSpec};

    fn two_tenants() -> ServerCore {
        ServerCore::new(
            ServerConfig {
                tenants: vec![TenantSpec::new("alice"), TenantSpec::new("bob")],
                ..Default::default()
            },
            Box::new(StaticTokens::new([("alice", "sesame"), ("bob", "hunter2")])),
        )
    }

    fn serve() -> Server {
        Server::start(two_tenants()).unwrap()
    }

    #[test]
    fn tcp_round_trip_auth_then_io() {
        let server = serve();
        let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
        assert_eq!(c.req("ping").unwrap(), "ok pong");
        assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
        assert_eq!(c.req("write /srv/alice/x.txt hi").unwrap(), "ok 2");
        assert_eq!(c.req("read /srv/alice/x.txt").unwrap(), "ok hi");
        assert_eq!(c.req("stat /srv/alice/x.txt").unwrap(), "ok size=2");
        assert_eq!(c.req("bye").unwrap(), "ok bye");
        let core = server.core();
        server.shutdown();
        assert_eq!(
            core.tenant_counters("alice").unwrap().open_sessions,
            0,
            "handler must close the session"
        );
    }

    #[test]
    fn unix_socket_speaks_the_same_protocol() {
        let path =
            std::env::temp_dir().join(format!("shill-server-test-{}.sock", std::process::id()));
        let core = ServerCore::new(
            ServerConfig {
                tenants: vec![TenantSpec::new("alice")],
                ..Default::default()
            },
            Box::new(StaticTokens::new([("alice", "sesame")])),
        );
        let server = Server::start_with_unix(core, &path).unwrap();
        let taken = Server::start_with_unix(two_tenants(), &path).err();
        assert_eq!(taken.map(|e| e.kind()), Some(std::io::ErrorKind::AddrInUse));
        let mut c = Client::connect_unix(&path).unwrap();
        assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
        assert_eq!(c.req("sync").unwrap(), "ok synced");
        drop(c);
        server.shutdown();
        assert!(!path.exists(), "socket file must be removed on shutdown");
    }

    #[test]
    fn finished_connection_threads_are_reaped_at_accept() {
        const N: usize = 32;
        let server = serve();
        for _ in 0..N {
            let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
            assert!(c.auth("alice", "sesame").unwrap().starts_with("ok "));
            assert_eq!(c.req("bye").unwrap(), "ok bye");
            // The handler hangs up after it has closed the session.
            assert!(matches!(
                read_frame(&mut c.stream, MAX_FRAME_DEFAULT),
                Err(FrameError::Closed)
            ));
        }
        let held = server.conns.lock().unwrap().len();
        assert!(
            held < N / 4,
            "{held} of {N} finished connection threads still held"
        );
        server.shutdown();
    }

    #[test]
    fn connections_open_at_shutdown_close_their_sessions() {
        let path = std::env::temp_dir().join(format!(
            "shill-server-open-at-shutdown-{}.sock",
            std::process::id()
        ));
        let server = Server::start_with_unix(two_tenants(), &path).unwrap();
        let core = server.core();
        // Idle at a frame boundary.
        let mut idle = Client::connect_tcp(server.tcp_addr()).unwrap();
        assert!(idle.auth("alice", "sesame").unwrap().starts_with("ok "));
        // Stopped mid-frame: 2 of the 4 bytes of the next length prefix.
        let mut partial = Client::connect_unix(&path).unwrap();
        assert!(partial.auth("bob", "hunter2").unwrap().starts_with("ok "));
        partial.stream.write_all(&[0, 0]).unwrap();
        server.shutdown();
        for tenant in ["alice", "bob"] {
            assert_eq!(
                core.tenant_counters(tenant).unwrap().open_sessions,
                0,
                "{tenant}'s session must close at shutdown"
            );
        }
        assert_eq!(core.policy().label_entries(), 0);
        for c in [&mut idle, &mut partial] {
            assert_eq!(
                read_frame(&mut c.stream, MAX_FRAME_DEFAULT),
                Err(FrameError::Closed)
            );
        }
    }

    #[test]
    fn vanished_client_leaks_no_session() {
        let server = serve();
        let core = server.core();
        let mut c = Client::connect_tcp(server.tcp_addr()).unwrap();
        assert!(c.auth("bob", "hunter2").unwrap().starts_with("ok "));
        drop(c); // hang up without `bye`
        server.shutdown();
        assert_eq!(core.tenant_counters("bob").unwrap().open_sessions, 0);
        assert_eq!(core.policy().label_entries(), 0);
    }
}
