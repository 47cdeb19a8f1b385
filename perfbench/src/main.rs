//! One benchmark for the SHILL stack: the paper's Find (`find-fine`), the
//! Emacs package pipeline (`pkg-pipeline`) and multi-tenant server
//! traffic (`server-rw`), end to end and per layer, against the public
//! API of the `shill` crate.
//!
//! ```text
//! shill-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing. With `--trace 1` it repeats the loop untraced and then traced
//! (spans from this benchmark's code around calls into each layer, plus
//! the kernel's own trace plane) and reports the per-layer metrics. The
//! last line of standard output is the JSON result; the lines before it
//! are the same numbers as a table, and the traced run writes its spans
//! to `<out>/spans-<workload>-<seed>.jsonl`.

mod find;
mod layers;
mod pkg;
mod report;
mod server;
mod spans;
mod speed;
mod task;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{peak_rss_mb, result_line, Metric, Report};
use spans::Spans;
use task::{Setup, SETUPS};

pub const WORKLOADS: [&str; 3] = ["find-fine", "pkg-pipeline", "server-rw"];

/// Variables that arm the fault or trace plane or change shard, stripe
/// and log layout: a stray one measures a different program.
const GUARDED_ENV: [&str; 5] = [
    "SHILL_FAULTS",
    "SHILL_TRACE",
    "SHILL_SHARDS",
    "SHILL_POLICY_STRIPES",
    "SHILL_LOG_CAP",
];

/// One invocation's parameters.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<(Run, PathBuf), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench-out");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, not {t}")),
                })
            }
            "--out" => out = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (known: {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((
        Run {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        },
        out,
    ))
}

fn run_workload(run: &Run, rep: &mut Report, spans: &Spans) {
    let mut setup = Setup::default();
    match run.workload.as_str() {
        "find-fine" => {
            let t = spans.time("setup.oracle", 0, || {
                setup.one_off(SETUPS, || find::FindFine::new(run.seed))
            });
            task::run(&t, run, rep, spans, setup);
        }
        "pkg-pipeline" => {
            let t = setup.one_off(SETUPS, || pkg::PkgPipeline::new(run.seed));
            task::run(&t, run, rep, spans, setup);
        }
        _ => server::run(run, rep, spans, setup),
    }
}

/// Per-layer metrics of a layer this workload never reaches come from a
/// short traced run of the workload that does: pkg-pipeline for the
/// interpreter, contract, sandbox and binaries layers, server-rw for the
/// server, shard, pool and policy layers. Every traced run thus prints
/// every per-layer metric.
fn fill_missing_layers(run: &Run, rep: &mut Report) {
    for (other, seconds) in [("pkg-pipeline", 0.6), ("server-rw", 0.6)] {
        if other == run.workload {
            continue;
        }
        let short = Run {
            workload: other.to_string(),
            seed: run.seed,
            seconds,
            trace: true,
        };
        let mut r = Report::default();
        run_workload(&short, &mut r, &Spans::new(false));
        if r.failed > 0 {
            let why = r.first_failure.take().unwrap_or_default();
            rep.fail(|| format!("{other} layer run: {why}"));
        }
        for m in r.layer {
            if !rep.layer.iter().any(|x| x.name == m.name) {
                rep.layer.push(m);
            }
        }
    }
}

/// The human-readable table: the result line's metrics, `fail_frac`,
/// then the table-only figures.
fn print_table(run: &Run, rep: &Report, rows: &[Metric]) {
    let row = |m: &Metric| {
        println!(
            "{:<14} {:<32} {:>16.6} {}",
            run.workload, m.name, m.value, m.unit
        )
    };
    rows.iter().for_each(row);
    println!(
        "{:<14} {:<32} {:>16.6} ratio   ({} failed of {} attempted)",
        run.workload,
        "fail_frac",
        rep.fail_frac(),
        rep.failed,
        rep.attempted
    );
    rep.info.iter().for_each(row);
}

fn main() -> ExitCode {
    let (run, out) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("shill-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = GUARDED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("shill-perfbench: refusing to measure with {set:?} set: unset them first");
        return ExitCode::from(3);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile} commit={commit}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );

    let spans = Spans::new(run.trace);
    let mut rep = Report::default();
    run_workload(&run, &mut rep, &spans);
    if run.trace {
        fill_missing_layers(&run, &mut rep);
        for (name, (count, total, own)) in spans.self_times() {
            println!(
                "{:<14} span {:<28} n={count:<7} total={total:>12.3} ms  self={own:>12.3} ms",
                run.workload, name
            );
        }
        let path = out.join(format!("spans-{}-{}.jsonl", run.workload, run.seed));
        match spans.write(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("shill-perfbench: writing {}: {e}", path.display()),
        }
    } else {
        let rss = rep.rss_mb.unwrap_or_else(peak_rss_mb);
        rep.e2e("peak_rss_mb", "MB", rss);
    }
    let gated = if run.trace { &rep.layer } else { &rep.e2e };
    print_table(&run, &rep, gated);
    if let Some(why) = &rep.first_failure {
        println!("# first failure: {why}");
    }
    println!(
        "{}",
        result_line(rep.failed == 0, rep.attempted.max(1), rep.failed, gated)
    );
    ExitCode::SUCCESS
}
