//! Figure 10: "Performance breakdown of four benchmarks" — total time,
//! runtime ("Racket") startup, module loading, sandbox setup, sandboxed
//! execution, and remaining time (script evaluation incl. contract
//! checking) for Uninstall, Download, Grading, and Find.
//!
//! The four tasks run in interleaved rounds, each twice per round. The
//! warm arms (`<task>`) run on one spawned worker thread, which compiled
//! every task's modules in one untimed run before the rounds; the cold arm
//! (`<task>_cold`) runs on a freshly spawned thread, whose module cache is
//! empty. "Remaining" is total minus the four profiled buckets, computed
//! per run from the outer wall time; each bucket records its median over
//! the rounds.

use shill::scenarios::{run_emacs, run_find, run_grading, Config, EmacsStep, Outcome};
use shill_bench::{
    find_scale, grading_students, interleave, on_fresh_thread, on_worker, runs, Group, Metric,
};

/// One run's breakdown: times in ms, then counts.
struct Row {
    total: f64,
    startup: f64,
    module_load: f64,
    setup: f64,
    exec: f64,
    sandboxes: f64,
    contracts: f64,
}

impl Row {
    fn of(o: Outcome) -> Row {
        let p = o.profile.expect("profiled configuration");
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        Row {
            total: ms(o.wall),
            startup: ms(p.startup),
            module_load: ms(p.module_load),
            setup: ms(p.sandbox_setup),
            exec: ms(p.sandboxed_exec),
            sandboxes: p.sandboxes as f64,
            contracts: p.contract_applications as f64,
        }
    }
}

const BUCKETS: [Metric<Row>; 8] = [
    ("total", "ms", |r| r.total),
    ("startup", "ms", |r| r.startup),
    ("module_load", "ms", |r| r.module_load),
    ("sandbox_setup", "ms", |r| r.setup),
    ("sandboxed_exec", "ms", |r| r.exec),
    ("remaining", "ms", |r| {
        (r.total - r.startup - r.module_load - r.setup - r.exec).max(0.0)
    }),
    ("sandboxes", "count", |r| r.sandboxes),
    ("contract_applications", "count", |r| r.contracts),
];

fn main() {
    let students = grading_students();
    let scale = find_scale();
    println!(
        "Figure 10 — performance breakdown ({} interleaved rounds; median [IQR])",
        runs()
    );
    println!("(\"startup\" = runtime+stdlib init, the Racket-startup analogue;");
    println!(" \"module_load\" = the loads of the modules the task's script requires;");
    println!(" \"remaining\" = script evaluation incl. contract checking, by subtraction;");
    println!(" \"<task>_cold\" = on a fresh thread, with no module compiled yet)");

    const TASKS: [&str; 4] = ["uninstall", "download", "grading", "find"];
    let task = |t: usize| match t {
        0 => run_emacs(Config::Sandboxed, EmacsStep::Uninstall),
        1 => run_emacs(Config::Sandboxed, EmacsStep::Download),
        2 => run_grading(Config::ShillVersion, students, 3),
        _ => run_find(Config::ShillVersion, scale),
    };
    let labels: Vec<String> = TASKS
        .iter()
        .map(|t| t.to_string())
        .chain(TASKS.iter().map(|t| format!("{t}_cold")))
        .collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let r = on_worker(&task, |warm_run| {
        for t in 0..TASKS.len() {
            warm_run(t);
        }
        interleave(runs(), labels.len(), |arm| {
            let t = arm % TASKS.len();
            Row::of(if arm < TASKS.len() {
                warm_run(t)
            } else {
                on_fresh_thread(|| task(t))
            })
        })
    });
    let mut g = Group::new("figure10");
    for (bucket, unit, f) in BUCKETS {
        g.per_arm(bucket, unit, &labels, &r, f);
    }
    g.write();
}
