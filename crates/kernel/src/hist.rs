//! Log2-bucketed latency histograms for the observability plane.
//!
//! A [`LatencyHist`] is a fixed array of 64 power-of-two buckets over
//! nanosecond durations, recorded with relaxed atomics so the hot path
//! never takes a lock. Snapshots extract approximate quantiles (the
//! upper bound of the bucket containing the rank) and merge field-wise
//! across shards, mirroring how `KernelStats` snapshots fold in
//! `KernelShards::stats`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of log2 buckets. Bucket `i` holds durations whose bit length
/// is `i`, i.e. values in `[2^(i-1), 2^i)`; bucket 0 holds zero.
pub const HIST_BUCKETS: usize = 64;

/// Bucket index for a duration in nanoseconds.
#[inline]
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

/// Upper bound (inclusive reporting value) of bucket `i` in nanoseconds.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64.checked_shl(i as u32)
            .map(|v| v - 1)
            .unwrap_or(u64::MAX)
    }
}

/// Concurrent log2 latency histogram. All updates are relaxed atomics.
#[derive(Debug)]
pub struct LatencyHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHist {
    /// Record one duration in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
    }

    /// Point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum_ns: self.sum_ns.load(Relaxed),
            max_ns: self.max_ns.load(Relaxed),
        }
    }

    /// Zero every bucket and counter.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum_ns.store(0, Relaxed);
        self.max_ns.store(0, Relaxed);
    }
}

/// Plain-integer copy of a [`LatencyHist`], safe to merge and inspect.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (log2 buckets, see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded durations in nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded duration in nanoseconds.
    pub max_ns: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl std::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistSnapshot")
            .field("count", &self.count)
            .field("sum_ns", &self.sum_ns)
            .field("max_ns", &self.max_ns)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish_non_exhaustive()
    }
}

impl HistSnapshot {
    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket that contains the sample of that rank. Returns 0 for an
    /// empty histogram. The true value is within 2x of the report,
    /// which is what log2 buckets buy.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency (ns, bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile latency (ns, bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile latency (ns, bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Largest recorded duration in nanoseconds.
    pub fn max(&self) -> u64 {
        self.max_ns
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Field-wise sum of many snapshots (max is the max of maxes), the
    /// cross-shard aggregation used by `KernelShards`.
    pub fn merged(snaps: &[HistSnapshot]) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for s in snaps {
            for i in 0..HIST_BUCKETS {
                out.buckets[i] += s.buckets[i];
            }
            out.count += s.count;
            out.sum_ns = out.sum_ns.saturating_add(s.sum_ns);
            out.max_ns = out.max_ns.max(s.max_ns);
        }
        out
    }
}

/// One histogram per instrumented latency site.
#[derive(Debug, Default)]
pub struct SiteHists {
    /// Per-entry syscall dispatch latency.
    pub syscall: LatencyHist,
    /// Whole-batch submission latency (`submit_batch`, or one
    /// `KernelShards::run_job` across its stepped waves).
    pub batch: LatencyHist,
    /// Scheduler wave execution latency.
    pub wave: LatencyHist,
    /// MAC checks that miss the AVC and reach a policy.
    pub mac: LatencyHist,
    /// Server front-end frame dispatch latency (`shill-server`).
    pub dispatch: LatencyHist,
}

impl SiteHists {
    /// Snapshot every site histogram.
    pub fn snapshot(&self) -> SiteHistsSnapshot {
        SiteHistsSnapshot {
            syscall: self.syscall.snapshot(),
            batch: self.batch.snapshot(),
            wave: self.wave.snapshot(),
            mac: self.mac.snapshot(),
            dispatch: self.dispatch.snapshot(),
        }
    }

    /// Zero every site histogram.
    pub fn reset(&self) {
        self.syscall.reset();
        self.batch.reset();
        self.wave.reset();
        self.mac.reset();
        self.dispatch.reset();
    }
}

/// Plain copy of [`SiteHists`], mergeable across shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteHistsSnapshot {
    /// Per-entry syscall dispatch latency.
    pub syscall: HistSnapshot,
    /// Whole-batch submission latency.
    pub batch: HistSnapshot,
    /// Scheduler wave execution latency.
    pub wave: HistSnapshot,
    /// MAC checks that reach a policy.
    pub mac: HistSnapshot,
    /// Server front-end frame dispatch latency.
    pub dispatch: HistSnapshot,
}

impl SiteHistsSnapshot {
    /// Field-wise merge across shards.
    pub fn merged(snaps: &[SiteHistsSnapshot]) -> SiteHistsSnapshot {
        SiteHistsSnapshot {
            syscall: HistSnapshot::merged(&snaps.iter().map(|s| s.syscall).collect::<Vec<_>>()),
            batch: HistSnapshot::merged(&snaps.iter().map(|s| s.batch).collect::<Vec<_>>()),
            wave: HistSnapshot::merged(&snaps.iter().map(|s| s.wave).collect::<Vec<_>>()),
            mac: HistSnapshot::merged(&snaps.iter().map(|s| s.mac).collect::<Vec<_>>()),
            dispatch: HistSnapshot::merged(&snaps.iter().map(|s| s.dispatch).collect::<Vec<_>>()),
        }
    }

    /// Iterate `(site name, snapshot)` pairs in a stable order.
    pub fn sites(&self) -> [(&'static str, &HistSnapshot); 5] {
        [
            ("syscall", &self.syscall),
            ("batch", &self.batch),
            ("wave", &self.wave),
            ("mac", &self.mac),
            ("dispatch", &self.dispatch),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = LatencyHist::default();
        for _ in 0..90 {
            h.record(100); // bucket 7, upper 127
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14, upper 16383
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max(), 10_000);
        assert_eq!(s.p50(), 127);
        assert_eq!(s.p90(), 127);
        // p99 lands in the slow bucket; capped at the observed max.
        assert_eq!(s.p99(), 10_000);
        assert!(s.mean_ns() >= 100 && s.mean_ns() <= 10_000);
    }

    #[test]
    fn empty_hist_is_all_zeros() {
        let s = LatencyHist::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn merged_sums_fieldwise() {
        let a = LatencyHist::default();
        let b = LatencyHist::default();
        a.record(10);
        a.record(20);
        b.record(1_000_000);
        let m = HistSnapshot::merged(&[a.snapshot(), b.snapshot()]);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum_ns, 1_000_030);
        assert_eq!(m.max_ns, 1_000_000);
        // The merged p99 must see the slow shard's sample.
        assert!(m.p99() >= 524_288);
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = LatencyHist::default();
        h.record(42);
        h.reset();
        assert_eq!(h.snapshot(), HistSnapshot::default());
    }
}
