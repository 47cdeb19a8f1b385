//! Kernel-wide tracing plane: per-shard span rings, site histograms,
//! and the exportable [`Telemetry`] snapshot.
//!
//! The plane is off by default and costs nothing: every instrumented
//! site first checks `Kernel::trace` (an `Option`), and an armed plane
//! gates each site behind one relaxed load of the site mask
//! ([`TracePlane::wants`]). When a site is enabled, a [`TraceScope`]
//! RAII guard pushes a `Begin` event into a fixed-capacity ring on
//! creation and a matching `End` (with duration) on drop — including
//! drops that happen while unwinding from an injected panic, which is
//! what keeps spans balanced under fault schedules.
//!
//! Arming mirrors the fault plane: `SHILL_TRACE` is parsed per shard at
//! kernel construction (`sites=syscall+batch+wave;cap=8192`, or
//! `sites=all`), and `Kernel::set_trace_plane` /
//! `KernelShards::set_trace_plane` install a plane programmatically.
//! All shards stamp timestamps against one process-wide monotonic
//! epoch, so a merged timeline from many shards is coherent.

use crate::hist::{SiteHists, SiteHistsSnapshot};
use crate::stats::StatsSnapshot;
use shill_vfs::sync::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default ring capacity (events per shard) when `cap=` is not given.
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// Nanoseconds since the process-wide trace epoch. The epoch is
/// initialized by whichever shard records first, so timestamps from
/// different shards land on one timeline.
pub fn trace_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An instrumented site. Each site is one bit in the `SHILL_TRACE`
/// site mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum TraceSite {
    /// Per-entry syscall dispatch (all three execution modes).
    Syscall = 0,
    /// Whole-batch submission (`submit_batch`, or one
    /// `KernelShards::run_job` across its stepped waves).
    Batch = 1,
    /// One scheduler wave (`exec_next_wave`).
    Wave = 2,
    /// A MAC check that missed the AVC and reached the policy registry.
    Mac = 3,
    /// A contended policy stripe-lock wait.
    Stripe = 4,
    /// A fault-plane injection firing.
    Fault = 5,
    /// A server front-end connection accept (`shill-server`).
    Accept = 6,
    /// A server front-end authentication attempt (factor check +
    /// session entry).
    Auth = 7,
    /// A server front-end frame dispatch, run on the connection's own
    /// thread; its `End` feeds the `dispatch` latency histogram.
    Dispatch = 8,
}

impl TraceSite {
    /// Every site, in mask-bit order.
    pub const ALL: [TraceSite; 9] = [
        TraceSite::Syscall,
        TraceSite::Batch,
        TraceSite::Wave,
        TraceSite::Mac,
        TraceSite::Stripe,
        TraceSite::Fault,
        TraceSite::Accept,
        TraceSite::Auth,
        TraceSite::Dispatch,
    ];

    /// Mask with every site enabled.
    pub const ALL_MASK: u32 = (1 << 9) - 1;

    /// The site's bit in the site mask.
    #[inline]
    pub fn mask(self) -> u32 {
        1 << self as u32
    }

    /// Stable name, used in `SHILL_TRACE` and in rendered output.
    pub fn name(self) -> &'static str {
        match self {
            TraceSite::Syscall => "syscall",
            TraceSite::Batch => "batch",
            TraceSite::Wave => "wave",
            TraceSite::Mac => "mac",
            TraceSite::Stripe => "stripe",
            TraceSite::Fault => "fault",
            TraceSite::Accept => "accept",
            TraceSite::Auth => "auth",
            TraceSite::Dispatch => "dispatch",
        }
    }

    /// Inverse of [`TraceSite::name`].
    pub fn from_name(name: &str) -> Option<TraceSite> {
        TraceSite::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Span open, pushed when a [`TraceScope`] is created.
    Begin,
    /// Span close with duration, pushed when the scope drops.
    End,
    /// A point event (fault firings, accepts).
    Instant,
}

/// One structured event in the per-shard ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which instrumented site produced the event.
    pub site: TraceSite,
    /// Begin / End / Instant.
    pub kind: TraceKind,
    /// Nanoseconds since the process-wide trace epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds (`End` events only, else 0).
    pub dur_ns: u64,
    /// Shard that recorded the event.
    pub shard: u64,
    /// Session pid the event belongs to (0 when not session-bound).
    pub pid: u64,
    /// Site-specific argument: batch/wave index, entry slot, stripe.
    pub arg: u64,
    /// Site-specific tag, e.g. the fault site name ("" when unused).
    pub tag: &'static str,
}

/// Per-shard tracing state: site mask, fixed-capacity event ring,
/// per-site latency histograms, and a drop counter for ring overflow.
pub struct TracePlane {
    mask: AtomicU32,
    shard: AtomicU64,
    dropped: AtomicU64,
    cap: usize,
    ring: Mutex<VecDeque<TraceEvent>>,
    hists: SiteHists,
}

impl std::fmt::Debug for TracePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracePlane")
            .field("mask", &self.mask.load(Relaxed))
            .field("cap", &self.cap)
            .field("shard", &self.shard.load(Relaxed))
            .field("dropped", &self.dropped.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl TracePlane {
    /// A plane with the given site mask and ring capacity (clamped to
    /// at least 1).
    pub fn new(mask: u32, cap: usize) -> TracePlane {
        TracePlane {
            mask: AtomicU32::new(mask & TraceSite::ALL_MASK),
            shard: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
            hists: SiteHists::default(),
        }
    }

    /// Parse a `SHILL_TRACE` spec: `;`-separated clauses of
    /// `sites=<name>+<name>+…` (or `sites=all` / bare `all`) and
    /// `cap=<events>`. With no `sites=` clause every site is enabled.
    pub fn parse(spec: &str) -> Result<TracePlane, String> {
        let mut mask: Option<u32> = None;
        let mut cap = DEFAULT_TRACE_CAP;
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if clause == "all" {
                mask = Some(TraceSite::ALL_MASK);
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause `{clause}` is not `key=value`"))?;
            match key.trim() {
                "sites" => {
                    let mut m = 0u32;
                    for name in value.split('+') {
                        let name = name.trim();
                        if name == "all" {
                            m = TraceSite::ALL_MASK;
                            continue;
                        }
                        let site = TraceSite::from_name(name).ok_or_else(|| {
                            let menu = TraceSite::ALL
                                .iter()
                                .map(|s| s.name())
                                .collect::<Vec<_>>()
                                .join(", ");
                            format!("unknown trace site `{name}` (known: {menu})")
                        })?;
                        m |= site.mask();
                    }
                    mask = Some(m);
                }
                "cap" => {
                    cap = value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("cap `{value}` is not a number"))?;
                }
                other => return Err(format!("unknown trace clause `{other}`")),
            }
        }
        Ok(TracePlane::new(mask.unwrap_or(TraceSite::ALL_MASK), cap))
    }

    /// Build a plane from `SHILL_TRACE`, if set. Malformed specs panic:
    /// a trace plane that silently records nothing would make an
    /// overhead measurement meaningless.
    pub fn from_env() -> Option<Arc<TracePlane>> {
        let spec = std::env::var("SHILL_TRACE").ok()?;
        let spec = spec.trim();
        if spec.is_empty() || spec == "0" || spec.eq_ignore_ascii_case("off") {
            return None;
        }
        match TracePlane::parse(spec) {
            Ok(plane) => Some(Arc::new(plane)),
            Err(err) => panic!("malformed SHILL_TRACE `{spec}`: {err}"),
        }
    }

    /// One relaxed load: is this site enabled?
    #[inline]
    pub fn wants(&self, site: TraceSite) -> bool {
        self.mask.load(Relaxed) & site.mask() != 0
    }

    /// Current site mask.
    pub fn mask(&self) -> u32 {
        self.mask.load(Relaxed)
    }

    /// Ring capacity in events.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Record which shard this plane instance belongs to; stamped into
    /// every event.
    pub fn set_shard(&self, shard: u64) {
        self.shard.store(shard, Relaxed);
    }

    fn push(&self, ev: TraceEvent) {
        let mut ring = self.ring.lock();
        if ring.len() >= self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Relaxed);
        }
        ring.push_back(ev);
    }

    /// Open a span: pushes `Begin` now, and the returned guard pushes
    /// `End` (feeding the site histogram) when dropped — even during
    /// unwinding. Returns `None` when the site is masked off.
    pub fn span(self: &Arc<TracePlane>, site: TraceSite, pid: u64, arg: u64) -> Option<TraceScope> {
        if !self.wants(site) {
            return None;
        }
        let ts_ns = trace_now_ns();
        self.push(TraceEvent {
            site,
            kind: TraceKind::Begin,
            ts_ns,
            dur_ns: 0,
            shard: self.shard.load(Relaxed),
            pid,
            arg,
            tag: "",
        });
        Some(TraceScope {
            plane: Arc::clone(self),
            site,
            pid,
            arg,
            begin_ns: ts_ns,
        })
    }

    /// Record a point event (no duration).
    pub fn instant(&self, site: TraceSite, pid: u64, arg: u64, tag: &'static str) {
        if !self.wants(site) {
            return;
        }
        self.push(TraceEvent {
            site,
            kind: TraceKind::Instant,
            ts_ns: trace_now_ns(),
            dur_ns: 0,
            shard: self.shard.load(Relaxed),
            pid,
            arg,
            tag,
        });
    }

    fn record_end(&self, site: TraceSite, pid: u64, arg: u64, begin_ns: u64) {
        let now = trace_now_ns();
        let dur_ns = now.saturating_sub(begin_ns);
        self.push(TraceEvent {
            site,
            kind: TraceKind::End,
            ts_ns: now,
            dur_ns,
            shard: self.shard.load(Relaxed),
            pid,
            arg,
            tag: "",
        });
        match site {
            TraceSite::Syscall => self.hists.syscall.record(dur_ns),
            TraceSite::Batch => self.hists.batch.record(dur_ns),
            TraceSite::Wave => self.hists.wave.record(dur_ns),
            TraceSite::Mac => self.hists.mac.record(dur_ns),
            TraceSite::Dispatch => self.hists.dispatch.record(dur_ns),
            _ => {}
        }
    }

    /// Snapshot the per-site latency histograms.
    pub fn hists(&self) -> SiteHistsSnapshot {
        self.hists.snapshot()
    }

    /// Drain and return every buffered event in record order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.ring.lock().drain(..).collect()
    }

    /// Drain the ring-overflow drop count (resets to zero).
    pub fn take_dropped(&self) -> u64 {
        self.dropped.swap(0, Relaxed)
    }
}

/// RAII span guard. Owns an `Arc` to its plane, so it never borrows the
/// kernel: instrumented code keeps full `&mut` access while a span is
/// open, and an unwind through the owning frame still closes the span.
#[must_use = "a TraceScope closes its span when dropped"]
pub struct TraceScope {
    plane: Arc<TracePlane>,
    site: TraceSite,
    pid: u64,
    arg: u64,
    begin_ns: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        self.plane
            .record_end(self.site, self.pid, self.arg, self.begin_ns);
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TracePlane>();
    assert_send_sync::<TraceScope>();
    assert_send_sync::<TraceEvent>();
};

/// A unified observability snapshot: every kernel counter, the per-site
/// latency histograms, and the drained trace events, renderable as a
/// Prometheus text exposition or a chrome://tracing JSON timeline.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Kernel counters (including `trace_dropped` / `log_dropped`).
    pub stats: StatsSnapshot,
    /// Per-site latency histograms (merged across shards when taken
    /// from `KernelShards::telemetry`).
    pub hists: SiteHistsSnapshot,
    /// Drained trace events from every shard, in per-shard record order.
    pub events: Vec<TraceEvent>,
}

impl Telemetry {
    /// Render counters and histogram quantiles as a Prometheus-style
    /// text exposition (`# TYPE` lines plus `name{labels} value`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE shill_kernel counter\n");
        for (name, value) in self.stats.fields() {
            let _ = writeln!(out, "shill_{name} {value}");
        }
        out.push_str("# TYPE shill_latency_ns summary\n");
        for (site, h) in self.hists.sites() {
            for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                let _ = writeln!(
                    out,
                    "shill_latency_ns{{site=\"{site}\",quantile=\"{q}\"}} {v}"
                );
            }
            let _ = writeln!(out, "shill_latency_ns_max{{site=\"{site}\"}} {}", h.max());
            let _ = writeln!(out, "shill_latency_ns_sum{{site=\"{site}\"}} {}", h.sum_ns);
            let _ = writeln!(out, "shill_latency_ns_count{{site=\"{site}\"}} {}", h.count);
        }
        out
    }

    /// Render the drained events as chrome://tracing JSON (the "JSON
    /// Array Format" under a `traceEvents` key). Spans are emitted as
    /// complete `"X"` events from their `End` record, instants as
    /// `"i"`; load the output in chrome://tracing or Perfetto. Shards
    /// map to chrome "processes", session pids to "threads".
    pub fn render_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for ev in &self.events {
            let (ph, ts_ns, dur_field) = match ev.kind {
                TraceKind::Begin => continue, // covered by the End's "X"
                TraceKind::End => (
                    "X",
                    ev.ts_ns.saturating_sub(ev.dur_ns),
                    format!(",\"dur\":{:.3}", ev.dur_ns as f64 / 1000.0),
                ),
                TraceKind::Instant => ("i", ev.ts_ns, ",\"s\":\"t\"".to_string()),
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"shill\",\"ph\":\"{}\",\"ts\":{:.3},\
                 \"pid\":{},\"tid\":{}{},\"args\":{{\"arg\":{},\"tag\":\"{}\"}}}}",
                ev.site.name(),
                ph,
                ts_ns as f64 / 1000.0,
                ev.shard,
                ev.pid,
                dur_field,
                ev.arg,
                ev.tag,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sites_and_cap() {
        let p = TracePlane::parse("sites=syscall+wave;cap=16").unwrap();
        assert!(p.wants(TraceSite::Syscall));
        assert!(p.wants(TraceSite::Wave));
        assert!(!p.wants(TraceSite::Batch));
        assert_eq!(p.cap(), 16);

        let p = TracePlane::parse("all").unwrap();
        assert_eq!(p.mask(), TraceSite::ALL_MASK);
        assert_eq!(p.cap(), DEFAULT_TRACE_CAP);

        assert!(TracePlane::parse("sites=bogus").is_err());
        assert!(TracePlane::parse("cap=xyz").is_err());
        assert!(TracePlane::parse("nonsense").is_err());
    }

    #[test]
    fn site_names_round_trip() {
        for site in TraceSite::ALL {
            assert_eq!(TraceSite::from_name(site.name()), Some(site));
        }
        assert_eq!(TraceSite::from_name("nope"), None);
    }

    #[test]
    fn spans_balance_and_feed_hists() {
        let plane = Arc::new(TracePlane::new(TraceSite::ALL_MASK, 64));
        {
            let _g = plane.span(TraceSite::Syscall, 7, 0).unwrap();
        }
        plane.instant(TraceSite::Fault, 0, 3, "");
        let events = plane.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::Begin);
        assert_eq!(events[1].kind, TraceKind::End);
        assert_eq!(events[1].pid, 7);
        assert_eq!(events[2].kind, TraceKind::Instant);
        assert_eq!(plane.hists().syscall.count, 1);
    }

    #[test]
    fn masked_site_records_nothing() {
        let plane = Arc::new(TracePlane::new(TraceSite::Batch.mask(), 64));
        assert!(plane.span(TraceSite::Syscall, 1, 0).is_none());
        plane.instant(TraceSite::Fault, 1, 0, "");
        assert!(plane.drain().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let plane = Arc::new(TracePlane::new(TraceSite::ALL_MASK, 4));
        for i in 0..6 {
            plane.instant(TraceSite::Fault, 0, i, "charge");
        }
        let events = plane.drain();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].arg, 2); // the two oldest were dropped
        assert_eq!(plane.take_dropped(), 2);
        assert_eq!(plane.take_dropped(), 0);
    }

    #[test]
    fn span_closes_during_unwind() {
        let plane = Arc::new(TracePlane::new(TraceSite::ALL_MASK, 64));
        let p2 = Arc::clone(&plane);
        let _ = std::panic::catch_unwind(move || {
            let _g = p2.span(TraceSite::Batch, 1, 0).unwrap();
            panic!("injected");
        });
        let events = plane.drain();
        let begins = events.iter().filter(|e| e.kind == TraceKind::Begin).count();
        let ends = events.iter().filter(|e| e.kind == TraceKind::End).count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let plane = Arc::new(TracePlane::new(TraceSite::ALL_MASK, 64));
        {
            let _g = plane.span(TraceSite::Wave, 2, 1).unwrap();
        }
        plane.instant(TraceSite::Fault, 2, 0, "namei");
        let t = Telemetry {
            stats: StatsSnapshot::default(),
            hists: plane.hists(),
            events: plane.drain(),
        };
        let json = t.render_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"tag\":\"namei\""));
        // Begin events are folded into the X record, never emitted raw.
        assert!(!json.contains("\"ph\":\"B\""));
        assert_eq!(json.matches("{\"name\":").count(), 2);
    }

    #[test]
    fn text_exposition_lists_counters_and_quantiles() {
        let plane = Arc::new(TracePlane::new(TraceSite::ALL_MASK, 64));
        {
            let _g = plane.span(TraceSite::Syscall, 1, 0).unwrap();
        }
        let t = Telemetry {
            stats: StatsSnapshot::default(),
            hists: plane.hists(),
            events: plane.drain(),
        };
        let text = t.render_text();
        assert!(text.contains("shill_syscalls 0"));
        assert!(text.contains("shill_trace_dropped 0"));
        assert!(text.contains("shill_latency_ns{site=\"syscall\",quantile=\"0.5\"}"));
        assert!(text.contains("shill_latency_ns_count{site=\"syscall\"} 1"));
        assert!(text.contains("shill_latency_ns{site=\"mac\",quantile=\"0.99\"}"));
    }
}
