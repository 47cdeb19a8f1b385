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
//! Handlers read with a short timeout so an idle connection never wedges
//! shutdown: a timeout at a frame boundary just polls the stop flag,
//! while a timeout *mid-frame* keeps waiting for the rest of the frame
//! (slow writers are fine; only a stopped server gives up on them).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use shill_kernel::TraceSite;

use crate::core::{ServerCore, SessionHandle};
use crate::proto::{err_payload, ok_payload, read_frame, write_frame, FrameError, Request};

const READ_TICK: Duration = Duration::from_millis(25);
const ACCEPT_TICK: Duration = Duration::from_millis(2);

/// A running server: accept threads plus one handler thread per live
/// connection.
pub struct Server {
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    accepters: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
        let core = Arc::new(core);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut accepters = Vec::new();

        let tcp = TcpListener::bind("127.0.0.1:0")?;
        let tcp_addr = tcp.local_addr()?;
        tcp.set_nonblocking(true)?;
        accepters.push(spawn_accepter(
            Arc::clone(&core),
            Arc::clone(&stop),
            Arc::clone(&conns),
            move || match tcp.accept() {
                Ok((s, _)) => Accepted::Tcp(s),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Accepted::Idle,
                Err(_) => Accepted::Idle,
            },
        ));

        if let Some(path) = &unix_path {
            // A stale socket file from a previous run refuses the bind.
            let _ = std::fs::remove_file(path);
            let unix = UnixListener::bind(path)?;
            unix.set_nonblocking(true)?;
            accepters.push(spawn_accepter(
                Arc::clone(&core),
                Arc::clone(&stop),
                Arc::clone(&conns),
                move || match unix.accept() {
                    Ok((s, _)) => Accepted::Unix(s),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Accepted::Idle,
                    Err(_) => Accepted::Idle,
                },
            ));
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
        for h in self.accepters {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in conns {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

enum Accepted {
    Tcp(TcpStream),
    Unix(UnixStream),
    Idle,
}

fn spawn_accepter(
    core: Arc<ServerCore>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    mut accept: impl FnMut() -> Accepted + Send + 'static,
) -> JoinHandle<()> {
    thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            let (stream, tag): (Box<dyn Stream>, &'static str) = match accept() {
                Accepted::Tcp(s) => {
                    let _ = s.set_read_timeout(Some(READ_TICK));
                    // A frame is two small writes (prefix, payload):
                    // without NODELAY, Nagle holds the second until the
                    // peer's delayed ACK — tens of ms per request.
                    let _ = s.set_nodelay(true);
                    (Box::new(s), "tcp")
                }
                Accepted::Unix(s) => {
                    let _ = s.set_read_timeout(Some(READ_TICK));
                    (Box::new(s), "unix")
                }
                Accepted::Idle => {
                    thread::park_timeout(ACCEPT_TICK);
                    continue;
                }
            };
            if let Some(plane) = core.trace() {
                plane.instant(TraceSite::Accept, 0, 0, tag);
            }
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let mut conns = conns.lock().unwrap();
            // Drop the handles of connections that have ended, so a
            // long-lived server keeps only its live connections' threads.
            conns.retain(|h| !h.is_finished());
            conns.push(thread::spawn(move || handle_conn(&core, stream, &stop)));
        }
    })
}

trait Stream: Read + Write + Send {}
impl<T: Read + Write + Send> Stream for T {}

/// Read one frame, tolerating read-timeout ticks. A timeout with zero
/// bytes consumed polls `stop` and keeps waiting; a timeout mid-frame
/// waits for the rest unless the server stopped. `Ok(None)` means "the
/// server is stopping and the connection is at a frame boundary".
fn read_frame_ticking(
    r: &mut impl Read,
    max: usize,
    stop: &AtomicBool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return if got == 0 {
                        Ok(None)
                    } else {
                        Err(FrameError::Truncated)
                    };
                }
            }
            Err(_) => return Err(FrameError::Truncated),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Err(FrameError::Truncated);
                }
            }
            Err(_) => return Err(FrameError::Truncated),
        }
    }
    Ok(Some(payload))
}

fn handle_conn(core: &ServerCore, mut stream: Box<dyn Stream>, stop: &AtomicBool) {
    let max = core.max_frame();
    let mut session: Option<SessionHandle> = None;
    loop {
        let payload = match read_frame_ticking(&mut stream, max, stop) {
            Ok(Some(p)) => p,
            // Stop at a frame boundary, clean close, or truncation: the
            // conversation is over either way.
            Ok(None) | Err(FrameError::Closed) | Err(FrameError::Truncated) => break,
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
}

/// A blocking protocol client for tests, the load-generator bench, and
/// the CI smoke.
pub struct Client {
    stream: Box<dyn Stream>,
    max_frame: usize,
}

impl Client {
    /// Connect over TCP.
    pub fn connect_tcp(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: Box::new(stream),
            max_frame: crate::proto::MAX_FRAME_DEFAULT,
        })
    }

    /// Connect over a Unix socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        Ok(Client {
            stream: Box::new(UnixStream::connect(path)?),
            max_frame: crate::proto::MAX_FRAME_DEFAULT,
        })
    }

    /// Send one request line, return the response payload as text.
    pub fn req(&mut self, line: &str) -> Result<String, FrameError> {
        self.req_bytes(line.as_bytes())
    }

    /// Send one raw request payload, return the response payload as text.
    pub fn req_bytes(&mut self, payload: &[u8]) -> Result<String, FrameError> {
        write_frame(&mut self.stream, payload).map_err(|_| FrameError::Truncated)?;
        let reply = read_frame(&mut self.stream, self.max_frame)?;
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

    fn serve() -> Server {
        let core = ServerCore::new(
            ServerConfig {
                tenants: vec![TenantSpec::new("alice"), TenantSpec::new("bob")],
                ..Default::default()
            },
            Box::new(StaticTokens::new([("alice", "sesame"), ("bob", "hunter2")])),
        );
        Server::start(core).unwrap()
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
                read_frame(&mut c.stream, c.max_frame),
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
