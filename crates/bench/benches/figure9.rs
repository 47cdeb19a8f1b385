//! Figure 9: "Performance of SHILL for a variety of tasks" — the case-study
//! benchmarks under the four configurations (Baseline, SHILL installed,
//! Sandboxed, SHILL version).
//!
//! Scales are reduced relative to the paper's testbed; tune with
//! SHILL_BENCH_RUNS / SHILL_BENCH_FIND_SCALE / SHILL_BENCH_STUDENTS /
//! SHILL_BENCH_REQUESTS. Each round runs one task under every
//! configuration in rotating order. Per (task, configuration) the bench
//! records the median wall time and the median of the per-round ratio to
//! Baseline, with the paper's ratio where the paper states one.
//!
//! The SHILL configurations run twice per round. The warm arms, Baseline
//! and Installed included, run on one worker thread spawned per task,
//! which compiled the task's modules in one untimed run before the
//! rounds. `sandboxed_cold` and `shill_version_cold` run on a freshly
//! spawned thread, whose module cache is empty, so they parse and resolve
//! the prelude and every module again, as the paper's prototype paid
//! Racket startup on every run. The spawn is outside the task's wall time.

use std::time::Duration;

use shill::scenarios::{run_apache, run_emacs, run_find, run_grading, Config, EmacsStep};
use shill_bench::{interleave, on_fresh_thread, on_worker, runs, Group, APACHE_FILE_SIZE};

const CONFIGS: [(Config, &str); 4] = [
    (Config::Baseline, "baseline"),
    (Config::Installed, "installed"),
    (Config::Sandboxed, "sandboxed"),
    (Config::ShillVersion, "shill_version"),
];

/// The paper's ratio to Baseline where §4.2 states one: Installed ≈ 1 on
/// every task, Download Sandboxed ≈ 1.7, Uninstall Sandboxed ≈ 6.6, Find
/// SHILL version ≈ 6.0 (short tasks are dominated by runtime startup, Find
/// by its per-file sandboxes).
fn paper(task: &str, config: Config) -> Option<f64> {
    match (task, config) {
        (_, Config::Installed) => Some(1.0),
        ("download", Config::Sandboxed) => Some(1.7),
        ("uninstall", Config::Sandboxed) => Some(6.6),
        ("find", Config::ShillVersion) => Some(6.0),
        _ => None,
    }
}

fn main() {
    let students = shill_bench::grading_students();
    let scale = shill_bench::find_scale();
    let reqs = shill_bench::apache_requests();
    println!(
        "Figure 9 — case-study timings ({} interleaved rounds; median [IQR])",
        runs()
    );
    println!(
        "workloads: grading {students} students ×3 tests; emacs {} sources; apache {reqs} req × {}KB; find tree 1/{scale} of 57,817 files",
        shill::scenarios::EMACS_SOURCES,
        APACHE_FILE_SIZE / 1024
    );

    let mut g = Group::new("figure9");
    let mut task = |name: &str, has_shill: bool, f: &(dyn Fn(Config) -> Duration + Sync)| {
        let warm = &CONFIGS[..if has_shill { 4 } else { 3 }];
        let cold: Vec<(Config, String)> = warm[2..]
            .iter()
            .map(|&(config, label)| (config, format!("{label}_cold")))
            .collect();
        let configs: Vec<(Config, &str)> = warm
            .iter()
            .copied()
            .chain(cold.iter().map(|(config, label)| (*config, label.as_str())))
            .collect();
        let r = on_worker(f, |warm_run| {
            for &(config, _) in &warm[2..] {
                warm_run(config);
            }
            interleave(runs(), configs.len(), |arm| {
                let config = configs[arm].0;
                let wall = if arm < warm.len() {
                    warm_run(config)
                } else {
                    on_fresh_thread(|| f(config))
                };
                wall.as_secs_f64() * 1e3
            })
        });
        for (arm, &(config, label)) in configs.iter().enumerate() {
            g.add(&format!("{name}.wall"), "ms", label, r.stats(arm, |&ms| ms));
            if arm > 0 {
                g.add(
                    &format!("{name}.vs_baseline"),
                    "x",
                    label,
                    r.ratio(arm, 0, |&ms| ms),
                )
                .paper = paper(name, config);
            }
        }
    };
    task("grading", true, &|c| run_grading(c, students, 3).wall);
    task("emacs", true, &|c| run_emacs(c, EmacsStep::Total).wall);
    task("download", false, &|c| {
        run_emacs(c, EmacsStep::Download).wall
    });
    task("untar", false, &|c| run_emacs(c, EmacsStep::Untar).wall);
    task("configure", false, &|c| {
        run_emacs(c, EmacsStep::Configure).wall
    });
    task("make", false, &|c| run_emacs(c, EmacsStep::Make).wall);
    task("install", false, &|c| run_emacs(c, EmacsStep::Install).wall);
    task("uninstall", false, &|c| {
        run_emacs(c, EmacsStep::Uninstall).wall
    });
    task("apache", false, &|c| {
        run_apache(c, reqs, APACHE_FILE_SIZE).wall
    });
    task("find", true, &|c| run_find(c, scale).wall);
    g.write();
}
