//! `server-rw`: `shill_server` over loopback TCP with the default
//! configuration (2 shards, 2 pool workers) and two tenants. Two client
//! connections, one thread each, send a seeded frame mix on their
//! tenant's `/srv/<tenant>`: ~50% `read`, 20% `stat`, 20% `write`
//! (64 B–4 KiB), 10% `copy`. After a seeded burst of 32–96 frames a
//! connection sends `bye`, reconnects and authenticates again.
//!
//! The oracle is a client-side model of each session: every reply is
//! `ok`, and a `read` returns the bytes of the last `write`/`copy` to
//! that path. Sessions land on either shard and shards do not share
//! files, so the model starts afresh (only `seed.txt`) with each session.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use shill::kernel::{Pid, SiteHistsSnapshot};
use shill::server::{
    AuthFactor, Client, Request, Server, ServerConfig, ServerCore, StaticTokens, TenantSpec,
};
use shill::vfs::Cred;

use crate::layers::{self, TRACE_SPEC};
use crate::report::{
    hist_quantile, median, ms, peak_rss_mb, quantile, us, Deadline, Report, Rng, Samples,
};
use crate::spans::Spans;
use crate::speed::{scaled_ms, SpeedLog};
use crate::task::{Setup, WARMUP};
use crate::Run;

const TENANTS: [(&str, &str); 2] = [("t0", "k0-secret"), ("t1", "k1-secret")];
/// File names a connection writes and copies to.
const FILES: u64 = 16;
/// Distinct write payloads per connection, generated during set-up.
const PAYLOADS: usize = 64;
/// Server start-ups per run: one takes ~0.2 ms, so many are needed for a
/// steady median.
const STARTS: usize = 101;
/// Frames after which `peak_rss_mb` is read.
const RSS_AFTER_FRAMES: u64 = 40_000;

fn config(trace: bool) -> ServerConfig {
    ServerConfig {
        tenants: TENANTS.iter().map(|(t, _)| TenantSpec::new(*t)).collect(),
        trace_spec: trace.then(|| TRACE_SPEC.to_string()),
        ..Default::default()
    }
}

fn factor() -> Box<dyn AuthFactor> {
    Box::new(StaticTokens::new(TENANTS))
}

#[derive(Clone, Copy)]
enum Kind {
    Read,
    Stat,
    Write,
    Copy,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Read => "client.req.read",
            Kind::Stat => "client.req.stat",
            Kind::Write => "client.req.write",
            Kind::Copy => "client.req.copy",
        }
    }
}

struct Frame {
    kind: Kind,
    line: String,
    expect: String,
}

/// One connection's seeded frame stream and its model of the session.
struct Conn {
    tenant: &'static str,
    secret: &'static str,
    rng: Rng,
    payloads: Vec<String>,
    model: BTreeMap<String, String>,
}

impl Conn {
    fn new(seed: u64, idx: usize) -> Conn {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(idx as u64 + 1));
        let payloads = (0..PAYLOADS)
            .map(|_| {
                let n = rng.range(64, 4096) as usize;
                rng.text(n)
            })
            .collect();
        let (tenant, secret) = TENANTS[idx];
        Conn {
            tenant,
            secret,
            rng,
            payloads,
            model: BTreeMap::new(),
        }
    }

    /// A new session: the burst length, and a model holding only the
    /// tenant's seed file.
    fn session(&mut self) -> u64 {
        self.model.clear();
        self.model.insert(
            format!("/srv/{}/seed.txt", self.tenant),
            "seed\n".to_string(),
        );
        self.rng.range(32, 96)
    }

    fn known(&mut self) -> String {
        let i = self.rng.next() as usize % self.model.len();
        self.model.keys().nth(i).expect("model entry").clone()
    }

    fn file(&mut self) -> String {
        format!("/srv/{}/f{:02}", self.tenant, self.rng.next() % FILES)
    }

    fn next(&mut self) -> Frame {
        let roll = self.rng.next() % 10;
        match roll {
            0..=4 => {
                let path = self.known();
                Frame {
                    kind: Kind::Read,
                    expect: format!("ok {}", self.model[&path]),
                    line: format!("read {path}"),
                }
            }
            5 | 6 => {
                let path = self.known();
                Frame {
                    kind: Kind::Stat,
                    expect: format!("ok size={}", self.model[&path].len()),
                    line: format!("stat {path}"),
                }
            }
            7 | 8 => {
                let path = self.file();
                let data = self.payloads[self.rng.next() as usize % PAYLOADS].clone();
                let f = Frame {
                    kind: Kind::Write,
                    expect: format!("ok {}", data.len()),
                    line: format!("write {path} {data}"),
                };
                self.model.insert(path, data);
                f
            }
            _ => {
                let src = self.known();
                let mut dst = self.file();
                while dst == src {
                    dst = self.file();
                }
                let data = self.model[&src].clone();
                let f = Frame {
                    kind: Kind::Copy,
                    expect: format!("ok {}", data.len()),
                    line: format!("copy {src} {dst}"),
                };
                self.model.insert(dst, data);
                f
            }
        }
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ConnOut {
    /// (start, wall ms) of every frame sent.
    frames: Vec<(Instant, f64)>,
    /// (connect, connected, authenticated) of every session opened.
    opens: Vec<(Instant, Instant, Instant)>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// (frame kind, start, end) when the phase is traced.
    reqs: Vec<(&'static str, Instant, Instant)>,
}

impl ConnOut {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// Reads peak RSS once the connections together have sent `at` frames.
struct RssMark {
    frames: AtomicU64,
    at: u64,
    mb: OnceLock<f64>,
}

impl RssMark {
    fn frame(&self) {
        if self.frames.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let _ = self.mb.set(peak_rss_mb());
        }
    }
}

/// An open session and the frames left in its burst.
struct Session {
    client: Client,
    left: u64,
}

/// One step of a connection's closed loop: open a session, send the
/// next frame of its burst, or close it once the burst is spent.
fn step(
    addr: SocketAddr,
    conn: &mut Conn,
    session: &mut Option<Session>,
    out: &mut ConnOut,
    rss: &RssMark,
    record: bool,
) {
    let Some(sess) = session else {
        let left = conn.session();
        let t0 = Instant::now();
        out.attempted += 1;
        let mut client = match Client::connect_tcp(addr) {
            Ok(c) => c,
            Err(e) => return out.fail(format!("connect: {e}")),
        };
        let t1 = Instant::now();
        match client.auth(conn.tenant, conn.secret) {
            Ok(r) if r.starts_with("ok ") => {}
            other => return out.fail(format!("auth {}: {other:?}", conn.tenant)),
        }
        out.opens.push((t0, t1, Instant::now()));
        *session = Some(Session { client, left });
        return;
    };
    out.attempted += 1;
    if sess.left == 0 {
        match sess.client.req("bye") {
            Ok(r) if r == "ok bye" => {}
            other => out.fail(format!("bye: {other:?}")),
        }
        *session = None;
        return;
    }
    sess.left -= 1;
    let f = conn.next();
    let s = Instant::now();
    let reply = sess.client.req(&f.line);
    let e = Instant::now();
    out.frames.push((s, ms(e - s)));
    rss.frame();
    if record {
        out.reqs.push((f.kind.span(), s, e));
    }
    match reply {
        Ok(r) if r == f.expect => {}
        Ok(r) => {
            let shown: String = r.chars().take(80).collect();
            out.fail(format!("`{}` replied `{shown}`", f.kind.span()));
        }
        Err(e) => {
            out.fail(format!("`{}`: {e:?}", f.kind.span()));
            *session = None;
        }
    }
}

/// One connection's closed loop over `rounds` rounds of `ROUND` each.
/// Between rounds the connection waits, with its session open, while the
/// main thread reads the reference.
fn client(
    addr: SocketAddr,
    mut conn: Conn,
    rounds: usize,
    gate: &Barrier,
    rss: &RssMark,
    record: bool,
) -> ConnOut {
    let mut out = ConnOut::default();
    let mut session = None;
    for _ in 0..rounds {
        gate.wait();
        let end = Instant::now() + ROUND;
        while Instant::now() < end {
            step(addr, &mut conn, &mut session, &mut out, rss, record);
        }
        gate.wait();
    }
    if let Some(mut sess) = session {
        out.attempted += 1;
        match sess.client.req("bye") {
            Ok(r) if r == "ok bye" => {}
            other => out.fail(format!("bye: {other:?}")),
        }
    }
    out
}

/// Length of one round of load between two reference readings.
const ROUND: Duration = Duration::from_millis(200);

/// One timed phase against a running server.
struct Phase {
    samples: Samples,
    /// Calibrated latencies and calibrated seconds of each timed round.
    rounds: Vec<(Vec<f64>, f64)>,
    open_ms: Vec<f64>,
    /// Every frame sent, warm-up included.
    frames: u64,
}

/// Run the connections for `seconds` in rounds of `ROUND`, reading the
/// reference before the first round and after each one. The first tenth
/// of the rounds warms up (frames are sent and checked, their latencies
/// dropped); the rest is timed. A frame or session open is scaled by the
/// readings around the round it started in.
fn phase(server: &Server, seed: u64, seconds: f64, rep: &mut Report, spans: &Spans) -> Phase {
    let record = spans.on();
    let addr = server.tcp_addr();
    let conns: Vec<Conn> = (0..TENANTS.len()).map(|i| Conn::new(seed, i)).collect();
    let rss = RssMark {
        frames: AtomicU64::new(0),
        at: RSS_AFTER_FRAMES,
        mb: OnceLock::new(),
    };
    let rounds = ((seconds / ROUND.as_secs_f64()).round() as usize).max(2);
    let gate = Barrier::new(conns.len() + 1);
    let mut speed = SpeedLog::default();
    let mut round_at = Vec::with_capacity(rounds);
    let outs: Vec<ConnOut> = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|c| {
                let (g, r) = (&gate, &rss);
                sc.spawn(move || client(addr, c, rounds, g, r, record))
            })
            .collect();
        speed.mark();
        for _ in 0..rounds {
            gate.wait();
            let start = Instant::now();
            gate.wait();
            round_at.push((start, start.elapsed()));
            speed.mark();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    if rep.rss_mb.is_none() {
        rep.rss_mb = rss.mb.get().copied();
    }
    let warm = ((rounds as f64 * WARMUP).ceil() as usize).min(rounds - 1);
    let timed = round_at[warm].0;
    let mut p = Phase {
        samples: Samples {
            ref_ms: speed.median_ms(),
            ..Samples::default()
        },
        rounds: round_at[warm..]
            .iter()
            .map(|(at, d)| (Vec::new(), d.as_secs_f64() * speed.scale(*at)))
            .collect(),
        open_ms: Vec::new(),
        frames: rss.frames.load(Ordering::Relaxed),
    };
    for o in outs {
        rep.attempted += o.attempted;
        rep.failed += o.failed;
        if rep.first_failure.is_none() {
            rep.first_failure = o.first_failure;
        }
        for (s, wall_ms) in o.frames.into_iter().filter(|(s, _)| *s >= timed) {
            let scale = speed.scale(s);
            p.samples.push(wall_ms, scale);
            let r = round_at[warm..].partition_point(|(at, _)| *at <= s);
            p.rounds[r.max(1) - 1].0.push(wall_ms * scale);
        }
        for &(s, _, e) in o.opens.iter().filter(|(s, _, _)| *s >= timed) {
            p.open_ms.push(ms(e - s) * speed.scale(s));
        }
        for (name, s, e) in o.reqs {
            spans.record(name, 0, s, e);
        }
        if record {
            for (s, m, e) in o.opens {
                spans.record("client.connect_tcp", 0, s, m);
                spans.record("client.auth", 0, m, e);
            }
        }
    }
    p
}

fn start(trace: bool) -> Server {
    Server::start(ServerCore::new(config(trace), factor())).expect("start server")
}

/// The same seeded mix replayed in-process through `ServerCore`, no TCP:
/// spans around `open_session`, `dispatch` and `close_session`.
struct Replay {
    dispatch_us: Vec<f64>,
    open_ms: Vec<f64>,
}

fn replay(seed: u64, seconds: f64, rep: &mut Report, spans: &Spans) -> Replay {
    let core = ServerCore::new(config(false), factor());
    let mut conns: Vec<Conn> = (0..TENANTS.len()).map(|i| Conn::new(seed, i)).collect();
    let mut r = Replay {
        dispatch_us: Vec::new(),
        open_ms: Vec::new(),
    };
    let mut speed = SpeedLog::default();
    speed.mark();
    let t_start = Instant::now();
    let deadline = Deadline::new(seconds);
    let mut i = 0;
    while r.dispatch_us.len() < 1000 || !deadline.expired() {
        let n = conns.len();
        let c = &mut conns[i % n];
        i += 1;
        let burst = c.session();
        rep.attempted += 1;
        let t0 = Instant::now();
        let h = spans.time("server.open_session", 0, || {
            core.open_session(c.tenant, c.secret)
        });
        r.open_ms.push(ms(t0.elapsed()));
        let h = match h {
            Ok(h) => h,
            Err(e) => {
                rep.fail(|| format!("replay open_session: {e}"));
                continue;
            }
        };
        for _ in 0..burst {
            let f = c.next();
            let req = Request::parse(f.line.as_bytes()).expect("well-formed frame");
            rep.attempted += 1;
            let t = Instant::now();
            let out = spans.time("server.dispatch", 0, || core.dispatch(&h, &req));
            r.dispatch_us.push(us(t.elapsed()));
            let got = match out {
                Ok(d) => format!("ok {}", String::from_utf8_lossy(&d)),
                Err(e) => format!("err {e}"),
            };
            if got != f.expect {
                rep.fail(|| format!("replay `{}`: reply differs from model", f.kind.span()));
            }
        }
        spans.time("server.close_session", 0, || core.close_session(h));
    }
    speed.mark();
    let scale = speed.scale(t_start);
    r.dispatch_us.iter_mut().for_each(|x| *x *= scale);
    r.open_ms.iter_mut().for_each(|x| *x *= scale);
    r
}

/// Live processes across shards, and the fork replay on shard 0: a user
/// process spawned into the kernel the run left behind.
fn kernel_end(core: &ServerCore) -> (usize, f64) {
    let shards = core.shards();
    let procs = (0..shards.count())
        .map(|s| shards.lock_shard(s).process_count())
        .sum();
    let mut k = shards.lock_shard(0);
    let p = k.spawn_user(Cred::user(100));
    let fork_us = layers::fork_replay(&mut k, p, 25);
    k.exit(p, 0);
    let _ = k.waitpid(Pid(1), p);
    (procs, fork_us)
}

fn per_1k(v: u64, frames: u64) -> f64 {
    v as f64 * 1000.0 / frames.max(1) as f64
}

pub fn run(run: &Run, rep: &mut Report, spans: &Spans, mut setup: Setup) {
    if !run.trace {
        // Start several times; the median is the set-up cost, the last
        // server carries the load.
        let mut server = None;
        for _ in 0..STARTS {
            if let Some(old) = server.take() {
                Server::shutdown(old);
            }
            let t = Instant::now();
            server = Some(start(false));
            setup.prep(scaled_ms(t.elapsed()) / 1e3);
        }
        let server = server.expect("server");
        let p = phase(&server, run.seed, run.seconds, rep, spans);
        server.shutdown();
        rep.latency_by_round(&p.samples, &p.rounds);
        setup.report(rep);
        rep.info("session_open_ms.p50", "ms", median(&p.open_ms));
        rep.info("session_open_ms.samples", "count", p.open_ms.len() as f64);
        return;
    }

    // Untraced phase: trace.overhead's denominator and the client side
    // of server.transport_us.
    let server = start(false);
    let plain = phase(&server, run.seed, run.seconds / 2.0, rep, spans);
    server.shutdown();

    // Traced phase: the program's trace plane armed on every shard.
    let server = start(true);
    let core: Arc<ServerCore> = server.core();
    let before = core.stats();
    let rv0 = core.shards().rendezvous_count();
    let traced = spans.time("server.traced_phase", 0, || {
        phase(&server, run.seed, run.seconds / 2.0, rep, spans)
    });
    let rv1 = core.shards().rendezvous_count();
    let d = layers::delta(&before, &core.stats());
    let hists: SiteHistsSnapshot = core.shards().telemetry().hists;
    server.shutdown();
    let (procs, fork_end) = kernel_end(&core);
    drop(core);

    let rp = spans.time("server.replay", 0, || replay(run.seed, 0.5, rep, spans));
    let client_p50 = median(&plain.samples.cal_ms);
    let dispatch_p50_ms = median(&rp.dispatch_us) / 1e3;
    let traced_p50 = median(&traced.samples.cal_ms);
    rep.info("traced.latency_ms.p50", "ms", traced_p50);
    rep.layer("trace.overhead", "x", traced_p50 / client_p50);
    rep.layer("server.dispatch_us.p50", "us", median(&rp.dispatch_us));
    rep.layer(
        "server.dispatch_us.p99",
        "us",
        quantile(&rp.dispatch_us, 0.99),
    );
    rep.layer(
        "server.transport_us.p50",
        "us",
        (client_p50 - dispatch_p50_ms) * 1e3,
    );
    rep.layer("server.open_session_ms.p50", "ms", median(&rp.open_ms));
    rep.layer(
        "server.dispatch_ns.p99",
        "ns",
        hist_quantile(&hists.dispatch, 0.99),
    );
    rep.layer(
        "shard.rendezvous",
        "count/1k",
        per_1k(rv1 - rv0, traced.frames),
    );
    rep.layer(
        "pool.steals",
        "count/1k",
        per_1k(d.pool_steals, traced.frames),
    );
    rep.layer(
        "policy.stripe_contention",
        "count/1k",
        per_1k(d.policy_stripe_contention, traced.frames),
    );
    layers::kernel_counts(rep, &d, traced.frames);
    layers::kernel_hists(rep, &hists);
    rep.layer("kernel.procs_live", "count", procs as f64);
    rep.layer("sandbox.fork_us.end", "us", fork_end);
    rep.layer(
        "sandbox.fork_us.fresh",
        "us",
        spans.time("probe.fork_fresh", 0, || layers::fork_replay_fresh(25)),
    );
    // The in-process replay is this workload's reference configuration:
    // the same frames without framing, sockets or thread hand-off.
    rep.layer("ref.baseline_ms.p50", "ms", dispatch_p50_ms);
    rep.layer("ref.overhead_x", "x", client_p50 / dispatch_p50_ms);
    rep.info("server.replay_frames", "count", rp.dispatch_us.len() as f64);
}
