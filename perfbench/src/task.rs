//! The closed loop shared by `find-fine` and `pkg-pipeline`: one client,
//! one task at a time, each task a fresh `ShillRuntime` over a freshly
//! prepared kernel. A task's latency runs from `ShillRuntime::new` to the
//! return of `run`, as Figure 9 times it; preparation and the output
//! check are outside it.

use std::time::{Duration, Instant};

use shill::core::{EvalResult, Profile, RuntimeConfig, ShillRuntime};
use shill::kernel::{Kernel, SiteHistsSnapshot, StatsSnapshot};
use shill::vfs::Cred;

use crate::layers;
use crate::report::{median, ms, peak_rss_mb, Deadline, Report, Samples};
use crate::spans::Spans;
use crate::speed::{scaled_ms, SpeedLog};
use crate::Run;

/// Share of a phase spent warming up.
pub const WARMUP: f64 = 0.1;
/// Longest stretch of tasks between two reference readings.
const CAL_EVERY: Duration = Duration::from_millis(50);

/// One SHILL case study as a repeatable task.
pub trait Task {
    /// Ops after which `peak_rss_mb` is read.
    fn rss_after_ops(&self) -> u64;
    /// A fresh kernel holding everything the task reads (untimed).
    fn prep(&self) -> Kernel;
    /// Capability-safe scripts registered before the ambient script.
    fn scripts(&self) -> &[(&'static str, &'static str)];
    /// The ambient script the task runs.
    fn ambient(&self) -> &str;
    /// The output oracle (untimed).
    fn check(&self, rt: &mut ShillRuntime, result: EvalResult) -> Result<(), String>;
    /// The same task in the paper's Baseline configuration (plain
    /// simulated binaries, no SHILL module): its wall time.
    fn baseline(&self) -> Duration;
}

/// Times each kind of set-up is repeated, for a median.
pub const SETUPS: usize = 9;

/// Set-up time: work done before ops can run, each kind repeated so the
/// reported figure is a median, in calibrated seconds (`speed`).
#[derive(Default)]
pub struct Setup {
    /// Building the workload's inputs and oracle, repeated.
    one_off: Vec<f64>,
    /// Per-task preparations (fresh kernel, binaries, tree or mirror), or
    /// per-run server start-ups.
    preps: Vec<f64>,
}

impl Setup {
    /// Run the one-off set-up `f` `times` times; keep the last result.
    pub fn one_off<T>(&mut self, times: usize, f: impl Fn() -> T) -> T {
        let mut out = None;
        for _ in 0..times {
            let t = Instant::now();
            out = Some(f());
            self.one_off.push(scaled_ms(t.elapsed()) / 1e3);
        }
        out.expect("set up at least once")
    }

    /// Book one preparation of `secs` calibrated seconds.
    pub fn prep(&mut self, secs: f64) {
        self.preps.push(secs);
    }

    /// `setup_s`: median one-off set-up plus median preparation (each
    /// part also shown in the table).
    pub fn report(&self, rep: &mut Report) {
        let (one_off, prep) = (median(&self.one_off), median(&self.preps));
        rep.e2e("setup_s", "s", one_off + prep);
        rep.info("setup.one_off_s", "s", one_off);
        rep.info("setup.prep_s", "s", prep);
    }
}

/// Per-task readings of a traced phase.
#[derive(Default)]
struct Traced {
    startup_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    setup_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    sandboxes: Vec<f64>,
    applications: Vec<f64>,
    guard_checks: Vec<f64>,
    accounted: Vec<f64>,
    /// Kernel counters summed over the phase's tasks.
    stats: StatsSnapshot,
    /// The phase's trace plane, shared by every task's kernel.
    hists: SiteHistsSnapshot,
}

/// Run tasks for `seconds`: the first tenth warms up (ops run and are
/// checked, their latencies are dropped), the rest is timed. The
/// reference is read at least every `CAL_EVERY` between tasks, and each
/// task and preparation is scaled by the readings around it. Returns the
/// timed samples and, when traced, the runtime of the last task, kept
/// for the fork replay.
fn phase(
    t: &dyn Task,
    seconds: f64,
    rep: &mut Report,
    spans: &Spans,
    setup: &mut Setup,
    mut traced: Option<&mut Traced>,
) -> (Samples, Option<ShillRuntime>) {
    let plane = traced.as_ref().map(|_| layers::trace_plane());
    let rss_at = t.rss_after_ops();
    let mut speed = SpeedLog::default();
    speed.mark();
    let warmup = Deadline::new(seconds * WARMUP);
    let deadline = Deadline::new(seconds);
    // (start, wall seconds) of every preparation, (start, wall ms) of
    // every timed task.
    let mut preps = Vec::new();
    let mut timed = Vec::new();
    let mut last = None;
    while timed.is_empty() || !deadline.expired() {
        let op = rep.attempted;
        let t_prep = Instant::now();
        let mut k = spans.time("task.prep", op, || t.prep());
        preps.push((t_prep, t_prep.elapsed().as_secs_f64()));
        if let Some(p) = &plane {
            k.set_trace_plane(Some(p.clone()));
        }
        let before = k.stats_snapshot();
        rep.attempted += 1;
        let t0 = Instant::now();
        let (mut rt, t_new, result) = spans.time("task", op, || {
            let mut rt = spans.time("core.runtime_new", op, || {
                ShillRuntime::new(k, RuntimeConfig::WithPolicy, Cred::ROOT)
            });
            let t_new = t0.elapsed();
            for (name, src) in t.scripts() {
                rt.add_script(name, src);
            }
            let r = spans.time("core.run", op, || rt.run("main", t.ambient()));
            (rt, t_new, r)
        });
        let wall = t0.elapsed();
        if rep.rss_mb.is_none() && rep.attempted >= rss_at {
            rep.rss_mb = Some(peak_rss_mb());
        }
        if let Err(e) = spans.time("task.check", op, || t.check(&mut rt, result)) {
            rep.fail(|| format!("task {op}: {e}"));
        }
        speed.mark_if_due(CAL_EVERY);
        if timed.is_empty() && !warmup.expired() {
            continue;
        }
        timed.push((t0, ms(wall)));
        if let Some(tr) = traced.as_deref_mut() {
            let p: Profile = rt.profile();
            let after = rt.kernel().stats_snapshot();
            tr.stats = tr.stats.merged(&layers::delta(&before, &after));
            tr.startup_ms.push(ms(t_new));
            tr.eval_ms.push(ms(p.remaining()));
            tr.setup_ms.push(ms(p.sandbox_setup));
            tr.exec_ms.push(ms(p.sandboxed_exec));
            tr.sandboxes.push(p.sandboxes as f64);
            tr.applications.push(p.contract_applications as f64);
            tr.guard_checks.push(p.guard_checks as f64);
            let buckets = p.startup + p.sandbox_setup + p.sandboxed_exec + p.remaining();
            tr.accounted
                .push(buckets.as_secs_f64() / wall.as_secs_f64());
            last = Some(rt);
        }
    }
    speed.mark();
    let mut samples = Samples::default();
    for (t0, wall_ms) in timed {
        samples.push(wall_ms, speed.scale(t0));
    }
    // One client: ops per second of time spent in ops.
    samples.cal_s = samples.cal_ms.iter().sum::<f64>() / 1e3;
    samples.ref_ms = speed.median_ms();
    for (at, secs) in preps {
        setup.prep(secs * speed.scale(at));
    }
    if let (Some(tr), Some(p)) = (traced, plane) {
        tr.hists = p.hists();
    }
    (samples, last)
}

pub fn run(t: &dyn Task, run: &Run, rep: &mut Report, spans: &Spans, mut setup: Setup) {
    if !run.trace {
        let (s, _) = phase(t, run.seconds, rep, spans, &mut setup, None);
        rep.latency(&s);
        setup.report(rep);
        return;
    }
    // Traced run: the same loop untraced, then traced, so the ratio of
    // the two medians is the tracing overhead.
    let (plain, _) = phase(t, run.seconds / 2.0, rep, spans, &mut setup, None);
    let mut tr = Traced::default();
    let (traced, last) = phase(t, run.seconds / 2.0, rep, spans, &mut setup, Some(&mut tr));
    let n = traced.cal_ms.len() as u64;
    let plain_p50 = median(&plain.cal_ms);
    let traced_p50 = median(&traced.cal_ms);
    rep.info("traced.latency_ms.p50", "ms", traced_p50);
    rep.layer("trace.overhead", "x", traced_p50 / plain_p50);
    rep.layer("core.startup_ms", "ms", median(&tr.startup_ms));
    rep.layer("core.eval_ms", "ms", median(&tr.eval_ms));
    rep.layer(
        "contracts.applications",
        "count/op",
        median(&tr.applications),
    );
    rep.layer(
        "contracts.guard_checks",
        "count/op",
        median(&tr.guard_checks),
    );
    rep.layer("sandbox.count", "count/op", median(&tr.sandboxes));
    rep.layer("sandbox.setup_ms", "ms", median(&tr.setup_ms));
    let per: Vec<f64> = tr
        .setup_ms
        .iter()
        .zip(&tr.sandboxes)
        .map(|(s, n)| s * 1e3 / n.max(1.0))
        .collect();
    rep.layer("sandbox.setup_us_per", "us", median(&per));
    rep.layer("binaries.exec_ms", "ms", median(&tr.exec_ms));
    rep.layer("trace.accounted_frac", "ratio", median(&tr.accounted));
    layers::kernel_counts(rep, &tr.stats, n);
    layers::kernel_hists(rep, &tr.hists);

    // Fork replay, with the fd and process readings taken at the same
    // moment: the last task's runtime at task end, and a fresh runtime.
    let mut rt = last.expect("at least one traced task");
    let pid = rt.pid();
    let fds = rt.kernel().process(pid).map(|p| p.fds.len()).unwrap_or(0);
    let procs = rt.kernel().process_count();
    rep.layer("core.runtime_fds", "count", fds as f64);
    rep.layer("kernel.procs_live", "count", procs as f64);
    let end = spans.time("probe.fork_end", 0, || {
        layers::fork_replay(rt.kernel(), pid, 25)
    });
    let fresh = spans.time("probe.fork_fresh", 0, || layers::fork_replay_fresh(25));
    rep.layer("sandbox.fork_us.end", "us", end);
    rep.layer("sandbox.fork_us.fresh", "us", fresh);

    // Paper-shape reference: the same task in the Baseline configuration.
    let base: Vec<f64> = (0..9)
        .map(|_| spans.time("ref.baseline", 0, || scaled_ms(t.baseline())))
        .collect();
    let base_p50 = median(&base);
    rep.layer("ref.baseline_ms.p50", "ms", base_p50);
    rep.layer("ref.overhead_x", "x", plain_p50 / base_p50);
}
