//! Shared measurement and reporting for the SHILL benchmark harness.
//!
//! Every bench binary that measures reports through one record type, one
//! estimator and one writer:
//!
//! * **Estimator** ([`interleave`]). The arms a group compares run in
//!   interleaved rounds. Each round runs every arm once, starting one arm
//!   later than the round before, so a box-wide hiccup lands on every arm
//!   alike. An arm reports the median and interquartile range of its
//!   rounds ([`Stats`]); two arms compare by the median of their per-round
//!   ratios ([`Rounds::ratio`]). `SHILL_BENCH_RUNS` sets the round count.
//! * **Record** ([`Record`]): `{group, metric, unit, config, value, q1, q3,
//!   n, cores, paper}`. `value` is the median, `q1`/`q3` the quartiles
//!   (equal to `value` for an exact counter), `paper` the paper's figure
//!   where the repo states one.
//! * **Writer** ([`Group::write`]). Prints every record and, when
//!   `SHILL_BENCH_OUT` names a directory, writes `<dir>/<group>.json`: a
//!   JSON array with one flat object per line. A relative directory
//!   resolves against the workspace root, not the bench's working
//!   directory (`crates/bench`).
//! * **Threads** ([`on_worker`], [`on_fresh_thread`]). A warm arm runs on
//!   one long-lived spawned thread, which also runs its untimed warm-up; a
//!   cold arm runs on a thread spawned for that run alone. Each module
//!   cache is per thread, and the bench's main thread is no neutral place
//!   to time on: it moved warm tasks by as much as the cache did.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Interleaved rounds per measurement (`SHILL_BENCH_RUNS`, default 15).
pub fn runs() -> usize {
    env_usize("SHILL_BENCH_RUNS", 15).max(1)
}

/// Scale divisor for the Find source tree (paper: 57,817 files at scale 1).
pub fn find_scale() -> usize {
    env_usize("SHILL_BENCH_FIND_SCALE", 40)
}

/// Students in the grading benchmark.
pub fn grading_students() -> usize {
    env_usize("SHILL_BENCH_STUDENTS", 12)
}

/// Requests in the Apache benchmark (paper: 5000 × 50 MB).
pub fn apache_requests() -> usize {
    env_usize("SHILL_BENCH_REQUESTS", 120)
}

/// File size for the Apache benchmark.
pub const APACHE_FILE_SIZE: usize = 512 * 1024;

/// Concurrent sessions in the ablation bench's server group.
pub fn server_sessions() -> usize {
    env_usize("SHILL_BENCH_SERVER_SESSIONS", 1000)
}

/// Run `body` with a function that calls `f` on one worker thread, spawned
/// for `body`'s duration, and waits for the result: every call lands on
/// the same thread, so what it caches carries from call to call.
pub fn on_worker<A: Send, R: Send, T>(
    f: &(dyn Fn(A) -> R + Sync),
    body: impl FnOnce(&dyn Fn(A) -> R) -> T,
) -> T {
    std::thread::scope(|s| {
        let (jobs, job_rx) = mpsc::channel::<A>();
        let (done_tx, done) = mpsc::channel::<R>();
        s.spawn(move || {
            for a in job_rx {
                if done_tx.send(f(a)).is_err() {
                    break;
                }
            }
        });
        let out = body(&|a| {
            jobs.send(a).expect("worker thread alive");
            done.recv().expect("worker thread panicked")
        });
        drop(jobs);
        out
    })
}

/// Call `f` on a thread spawned for this call alone, whose thread-local
/// caches start empty.
pub fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("fresh-thread run"))
}

/// Median and quartiles of a sample (linear interpolation between order
/// statistics; `NaN` for an empty sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stats {
    pub fn of(samples: &[f64]) -> Stats {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let q = |p: f64| {
            if s.is_empty() {
                return f64::NAN;
            }
            let pos = p * (s.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        Stats {
            median: q(0.5),
            q1: q(0.25),
            q3: q(0.75),
            n: s.len(),
        }
    }
}

/// Per-arm samples from [`interleave`], in round order.
pub struct Rounds<T> {
    arms: Vec<Vec<T>>,
}

/// Run `arms` arms for `rounds` rounds. Round `r` calls `run(arm)` once per
/// arm, starting at arm `r % arms` and wrapping, so with two arms the first
/// arm alternates and with more it rotates.
pub fn interleave<T>(rounds: usize, arms: usize, mut run: impl FnMut(usize) -> T) -> Rounds<T> {
    let mut out: Vec<Vec<T>> = (0..arms).map(|_| Vec::with_capacity(rounds)).collect();
    for r in 0..rounds {
        for i in 0..arms {
            let arm = (r + i) % arms;
            out[arm].push(run(arm));
        }
    }
    Rounds { arms: out }
}

impl<T> Rounds<T> {
    /// Arm `arm`'s samples, one per round.
    pub fn samples(&self, arm: usize) -> &[T] {
        &self.arms[arm]
    }

    /// Median and quartiles of `metric` over arm `arm`'s rounds.
    pub fn stats(&self, arm: usize, metric: impl Fn(&T) -> f64) -> Stats {
        Stats::of(&self.arms[arm].iter().map(metric).collect::<Vec<_>>())
    }

    /// Median and quartiles of the per-round ratio of `metric`, arm `num`
    /// over arm `den`.
    pub fn ratio(&self, num: usize, den: usize, metric: impl Fn(&T) -> f64) -> Stats {
        let ratios: Vec<f64> = self.arms[num]
            .iter()
            .zip(&self.arms[den])
            .map(|(a, b)| metric(a) / metric(b))
            .collect();
        Stats::of(&ratios)
    }
}

/// Least-squares line through `(x, y)` points, as `(slope, intercept)`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    (slope, my - slope * mx)
}

/// One measured quantity of one bench group.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub group: String,
    pub metric: String,
    pub unit: String,
    /// The arm or configuration the value belongs to.
    pub config: String,
    /// The median.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// Cores available to the run (`available_parallelism`).
    pub cores: usize,
    /// The paper's figure for this quantity, where the repo states one.
    pub paper: Option<f64>,
}

/// A JSON number rounded to four decimals; `null` when not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", (v * 1e4).round() / 1e4)
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Record {
    /// The record as one flat JSON object on one line.
    fn json(&self) -> String {
        format!(
            "{{\"group\":{},\"metric\":{},\"unit\":{},\"config\":{},\"value\":{},\"q1\":{},\"q3\":{},\"n\":{},\"cores\":{},\"paper\":{}}}",
            json_str(&self.group),
            json_str(&self.metric),
            json_str(&self.unit),
            json_str(&self.config),
            json_num(self.value),
            json_num(self.q1),
            json_num(self.q3),
            self.n,
            self.cores,
            self.paper.map_or_else(|| "null".into(), json_num),
        )
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "  {:<26} {:<26} {:>12} {:<11} [{} .. {}] n={}",
            self.metric,
            self.config,
            json_num(self.value),
            self.unit,
            json_num(self.q1),
            json_num(self.q3),
            self.n
        )?;
        if let Some(p) = self.paper {
            write!(f, "  paper {}", json_num(p))?;
        }
        Ok(())
    }
}

/// One row of a bench's metric table: name, unit, and how to read the
/// metric off one round's result (fed to [`Group::per_arm`]).
pub type Metric<T> = (&'static str, &'static str, fn(&T) -> f64);

/// The records one bench group reports, written together by
/// [`Group::write`].
pub struct Group {
    name: &'static str,
    cores: usize,
    records: Vec<Record>,
}

impl Group {
    pub fn new(name: &'static str) -> Group {
        Group {
            name,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            records: Vec::new(),
        }
    }

    /// Add a record of `metric` under `config`; the caller may set its
    /// `paper` figure through the returned reference.
    pub fn add(&mut self, metric: &str, unit: &str, config: &str, s: Stats) -> &mut Record {
        self.records.push(Record {
            group: self.name.into(),
            metric: metric.into(),
            unit: unit.into(),
            config: config.into(),
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
            cores: self.cores,
            paper: None,
        });
        self.records.last_mut().expect("just pushed")
    }

    /// Add one record of `metric` per arm of `r`, arm `i` under
    /// `configs[i]`.
    pub fn per_arm<T>(
        &mut self,
        metric: &str,
        unit: &str,
        configs: &[&str],
        r: &Rounds<T>,
        f: impl Fn(&T) -> f64,
    ) {
        for (arm, config) in configs.iter().enumerate() {
            self.add(metric, unit, config, r.stats(arm, &f));
        }
    }

    /// Add the median per-round ratio of `f`, arm `num` over arm `den`, as
    /// `metric` (unit `x`) under config `<configs[num]>/<configs[den]>`.
    pub fn ratio<T>(
        &mut self,
        metric: &str,
        configs: &[&str],
        r: &Rounds<T>,
        num: usize,
        den: usize,
        f: impl Fn(&T) -> f64,
    ) {
        let config = format!("{}/{}", configs[num], configs[den]);
        self.add(metric, "x", &config, r.ratio(num, den, f));
    }

    /// Add an exact value: a counter, or a quantity measured once.
    pub fn exact(&mut self, metric: &str, unit: &str, config: &str, value: f64) -> &mut Record {
        self.add(
            metric,
            unit,
            config,
            Stats {
                median: value,
                q1: value,
                q3: value,
                n: 1,
            },
        )
    }

    /// Print every record; when `SHILL_BENCH_OUT` is set, also write them
    /// to `<SHILL_BENCH_OUT>/<group>.json`.
    pub fn write(self) {
        println!("\n{} ({} core(s))", self.name, self.cores);
        for r in &self.records {
            println!("{r}");
        }
        let Ok(out) = std::env::var("SHILL_BENCH_OUT") else {
            return;
        };
        let dir = workspace_root().join(out);
        std::fs::create_dir_all(&dir).expect("create the SHILL_BENCH_OUT directory");
        let lines: Vec<String> = self.records.iter().map(Record::json).collect();
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, format!("[\n{}\n]\n", lines.join(",\n")))
            .expect("write the group's record file");
        println!("  records written to {}", path.display());
    }
}

/// The workspace root, which a relative `SHILL_BENCH_OUT` is taken from.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_sample() {
        let s = Stats::of(&[10.0; 8]);
        assert_eq!(s.median, 10.0);
        assert_eq!(s.q3 - s.q1, 0.0, "zero IQR");
        assert_eq!(s.n, 8);
    }

    #[test]
    fn stats_ci_grows_with_variance() {
        let tight = Stats::of(&[9.0, 10.0, 10.0, 11.0]);
        let wide = Stats::of(&[5.0, 10.0, 10.0, 15.0]);
        assert!(wide.q3 - wide.q1 > tight.q3 - tight.q1);
        assert_eq!(wide.median, 10.0);
        assert_eq!((wide.q1, wide.q3), (8.75, 11.25));
    }

    #[test]
    fn ratio_formatting() {
        let r = interleave(3, 2, |arm| if arm == 0 { 20.0 } else { 10.0 });
        let ratio = r.ratio(0, 1, |&x| x);
        assert_eq!(
            ratio.median,
            r.stats(0, |&x| x).median / r.stats(1, |&x| x).median
        );
        let mut g = Group::new("g");
        g.add("m", "x", "a/b", ratio);
        assert!(g.records[0]
            .json()
            .contains("\"value\":2,\"q1\":2,\"q3\":2,\"n\":3"));
    }

    #[test]
    fn every_round_visits_every_arm_and_the_first_arm_rotates() {
        let mut order = Vec::new();
        interleave(6, 3, |arm| order.push(arm));
        for (r, round) in order.chunks(3).enumerate() {
            let mut seen = round.to_vec();
            seen.sort();
            assert_eq!(seen, [0, 1, 2], "round {r} runs each arm once");
            assert_eq!(round[0], r % 3, "round {r} starts one arm later");
        }
        let mut firsts = Vec::new();
        interleave(4, 2, |arm| firsts.push(arm));
        assert_eq!(firsts, [0, 1, 1, 0, 0, 1, 1, 0], "two arms alternate");
    }

    #[test]
    fn slope_fit_recovers_a_known_line() {
        let points: Vec<(f64, f64)> = (2..=9)
            .map(|d| (d as f64, 120.0 + 35.5 * d as f64))
            .collect();
        let (slope, intercept) = fit_line(&points);
        assert!((slope - 35.5).abs() < 1e-9);
        assert!((intercept - 120.0).abs() < 1e-9);
    }

    #[test]
    fn record_line_escapes_quotes_in_config() {
        let mut g = Group::new("g");
        g.exact("m", "count", "say \"hi\"\\", 3.0).paper = Some(1.5);
        assert_eq!(
            g.records[0].json(),
            r#"{"group":"g","metric":"m","unit":"count","config":"say \"hi\"\\","value":3,"q1":3,"q3":3,"n":1,"cores":"#
                .to_string()
                + &g.cores.to_string()
                + r#","paper":1.5}"#
        );
    }
}
