//! Per-layer readings taken from the program's public accessors: kernel
//! counter deltas, latency histograms and the fork replay probe.

use std::sync::Arc;
use std::time::Instant;

use shill::core::{RuntimeConfig, ShillRuntime};
use shill::kernel::{Kernel, Pid, SiteHistsSnapshot, StatsSnapshot, TracePlane};
use shill::vfs::Cred;

use crate::report::{hist_quantile, median, us, Report};

/// Trace sites armed in traced runs: the kernel's syscall and MAC
/// histograms plus the server's dispatch span. The ring only has to hold
/// what is drained between reads; the histograms are what is reported.
pub const TRACE_SPEC: &str = "sites=syscall+mac+dispatch;cap=1024";

pub fn trace_plane() -> Arc<TracePlane> {
    Arc::new(TracePlane::parse(TRACE_SPEC).expect("valid trace spec"))
}

/// A fresh kernel with every simulated binary, caches on: the state each
/// find-fine and pkg-pipeline task starts from.
pub fn fresh_kernel() -> Kernel {
    let mut k = shill::setup::standard_kernel();
    k.set_cache_enabled(true, true);
    k
}

/// `after - before` for the counters the benchmark reports.
pub fn delta(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        syscalls: after.syscalls.saturating_sub(before.syscalls),
        lookups: after.lookups.saturating_sub(before.lookups),
        dcache_hits: after.dcache_hits.saturating_sub(before.dcache_hits),
        dcache_misses: after.dcache_misses.saturating_sub(before.dcache_misses),
        dir_scans: after.dir_scans.saturating_sub(before.dir_scans),
        mac_vnode_checks: after
            .mac_vnode_checks
            .saturating_sub(before.mac_vnode_checks),
        avc_hits: after.avc_hits.saturating_sub(before.avc_hits),
        avc_misses: after.avc_misses.saturating_sub(before.avc_misses),
        execs: after.execs.saturating_sub(before.execs),
        forks: after.forks.saturating_sub(before.forks),
        charge_calls: after.charge_calls.saturating_sub(before.charge_calls),
        batches: after.batches.saturating_sub(before.batches),
        policy_stripe_contention: after
            .policy_stripe_contention
            .saturating_sub(before.policy_stripe_contention),
        pool_steals: after.pool_steals.saturating_sub(before.pool_steals),
        ..StatsSnapshot::default()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Kernel and vfs counters per op from a summed delta over `ops` ops.
pub fn kernel_counts(rep: &mut Report, d: &StatsSnapshot, ops: u64) {
    let per = |v: u64| v as f64 / ops.max(1) as f64;
    rep.layer("kernel.syscalls", "count/op", per(d.syscalls));
    rep.layer("kernel.forks", "count/op", per(d.forks));
    rep.layer("kernel.execs", "count/op", per(d.execs));
    rep.layer("kernel.lookups", "count/op", per(d.lookups));
    rep.layer(
        "kernel.mac_vnode_checks",
        "count/op",
        per(d.mac_vnode_checks),
    );
    rep.layer("kernel.charge_calls", "count/op", per(d.charge_calls));
    rep.layer("kernel.batches", "count/op", per(d.batches));
    rep.layer(
        "kernel.avc_hit_ratio",
        "ratio",
        ratio(d.avc_hits, d.avc_hits + d.avc_misses),
    );
    rep.layer(
        "vfs.dcache_hit_ratio",
        "ratio",
        ratio(d.dcache_hits, d.dcache_hits + d.dcache_misses),
    );
    rep.layer("vfs.dir_scans", "count/op", per(d.dir_scans));
}

/// Kernel latency histograms of a traced phase.
pub fn kernel_hists(rep: &mut Report, h: &SiteHistsSnapshot) {
    rep.layer(
        "kernel.syscall_ns.p50",
        "ns",
        hist_quantile(&h.syscall, 0.5),
    );
    rep.layer(
        "kernel.syscall_ns.p99",
        "ns",
        hist_quantile(&h.syscall, 0.99),
    );
    rep.layer("kernel.mac_ns.p50", "ns", hist_quantile(&h.mac, 0.5));
    rep.info("kernel.syscall_ns.samples", "count", h.syscall.count as f64);
}

/// `Kernel::fork` + `exit` + `waitpid` of a child of `pid`, timed from
/// outside, `rounds` times; the median in microseconds.
pub fn fork_replay(k: &mut Kernel, pid: Pid, rounds: usize) -> f64 {
    let mut xs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let child = k.fork(pid).expect("fork replay: fork");
        k.exit(child, 0);
        let st = k.waitpid(pid, child).expect("fork replay: waitpid");
        xs.push(us(t0.elapsed()));
        assert_eq!(st, 0, "fork replay child status");
    }
    median(&xs)
}

/// The `.fresh` side of the fork replay: a just-built runtime's pid.
pub fn fork_replay_fresh(rounds: usize) -> f64 {
    let mut rt = ShillRuntime::new(fresh_kernel(), RuntimeConfig::WithPolicy, Cred::ROOT);
    let pid = rt.pid();
    fork_replay(rt.kernel(), pid, rounds)
}
