//! Samples, quantiles and the result line.
//!
//! Every workload fills a [`Report`]: end-to-end metrics (printed with
//! `--trace 0`), per-layer metrics (printed with `--trace 1`) and extra
//! lines for the human-readable table. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// splitmix64: the benchmark's only source of input randomness, seeded
/// from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// `n` printable ASCII bytes (no spaces or newlines: they are frame
    /// payload text).
    pub fn text(&mut self, n: usize) -> String {
        const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";
        (0..n)
            .map(|_| ALPHA[(self.next() % ALPHA.len() as u64) as usize] as char)
            .collect()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Quantile `q` of `xs` by linear interpolation between order statistics
/// (the same rule as numpy's default). `xs` need not be sorted.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile of a log2 latency histogram, interpolated linearly inside
/// the bucket that holds the rank (bucket `i` spans `[2^(i-1), 2^i)`).
/// The kernel's own `HistSnapshot::quantile` reports the bucket's upper
/// bound, which repeats exactly from run to run.
pub fn hist_quantile(h: &shill::kernel::HistSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if seen + c >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            let hi = ((1u128 << i) as f64).min(h.max_ns.max(1) as f64 + 1.0);
            return lo + (hi - lo) * ((rank - seen) / c);
        }
        seen += c;
    }
    h.max_ns as f64
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One named value with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first failed op failed (for the human-readable output).
    pub first_failure: Option<String>,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Shown in the table, not part of the result line.
    pub info: Vec<Metric>,
    /// Peak resident memory (MiB), read once the run has completed a
    /// fixed number of ops set per workload. Memory a program leaks per op
    /// then reads the same at any speed: a faster program that fits more
    /// ops in the timed phase does not read as a memory regression.
    pub rss_mb: Option<f64>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.e2e.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layer.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn info(&mut self, name: &str, unit: &'static str, value: f64) {
        self.info.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// The end-to-end metrics of a timed phase of one-client tasks, in
    /// calibrated time (`speed`): throughput, p50 and p90 over every
    /// timed op.
    pub fn latency(&mut self, s: &Samples) {
        self.e2e("throughput_ops_s", "1/s", s.cal_ms.len() as f64 / s.cal_s);
        self.e2e("latency_ms.p50", "ms", quantile(&s.cal_ms, 0.5));
        self.e2e("latency_ms.p90", "ms", quantile(&s.cal_ms, 0.9));
        self.latency_table(s);
    }

    /// The end-to-end metrics of a timed phase cut into rounds, each
    /// given as (calibrated latencies, calibrated seconds): the median
    /// over rounds of each round's throughput, p50 and p90. A round holds
    /// thousands of ops, and the median keeps a host disturbance of a few
    /// rounds out of the result.
    pub fn latency_by_round(&mut self, s: &Samples, rounds: &[(Vec<f64>, f64)]) {
        let per =
            |f: &dyn Fn(&(Vec<f64>, f64)) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        self.e2e(
            "throughput_ops_s",
            "1/s",
            per(&|(l, secs)| l.len() as f64 / secs),
        );
        self.e2e("latency_ms.p50", "ms", per(&|(l, _)| quantile(l, 0.5)));
        self.e2e("latency_ms.p90", "ms", per(&|(l, _)| quantile(l, 0.9)));
        self.latency_table(s);
    }

    /// Table rows of a timed phase: p99 over every timed op where at least
    /// 1000 exist, the sample count, wall-time quantiles and the host's
    /// speed.
    fn latency_table(&mut self, s: &Samples) {
        if s.cal_ms.len() >= 1000 {
            self.info("latency_ms.p99", "ms", quantile(&s.cal_ms, 0.99));
        }
        self.info("latency_ms.samples", "count", s.cal_ms.len() as f64);
        self.info("wall.latency_ms.p50", "ms", quantile(&s.wall_ms, 0.5));
        self.info("wall.latency_ms.p90", "ms", quantile(&s.wall_ms, 0.9));
        self.info("speed.reference_ms", "ms", s.ref_ms);
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Latencies of one timed phase, in wall time and in calibrated time
/// (`speed`).
#[derive(Default)]
pub struct Samples {
    pub wall_ms: Vec<f64>,
    pub cal_ms: Vec<f64>,
    /// Calibrated seconds spent in ops (one client).
    pub cal_s: f64,
    /// Median reading of the reference over the phase, in ms.
    pub ref_ms: f64,
}

impl Samples {
    pub fn push(&mut self, wall_ms: f64, scale: f64) {
        self.wall_ms.push(wall_ms);
        self.cal_ms.push(wall_ms * scale);
    }
}

/// A stopwatch for the timed phase: ops run until `seconds` have passed.
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    pub fn new(seconds: f64) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
        }
    }

    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.budget
    }
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON object of already-encoded values (the span file's lines).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}
