//! Figure 10: "Performance breakdown of four benchmarks" — total time,
//! runtime ("Racket") startup, sandbox setup, sandboxed execution, and
//! remaining time (script evaluation incl. contract checking) for
//! Uninstall, Download, Grading, and Find.
//!
//! The four tasks run in interleaved rounds. "Remaining" is total minus
//! the three profiled buckets, computed per run; each bucket records its
//! median over the rounds.

use shill::scenarios::{run_emacs, run_find, run_grading, Config, EmacsStep, Outcome};
use shill_bench::{find_scale, grading_students, interleave, runs, Group, Metric};

/// One run's breakdown: times in ms, then counts.
struct Row {
    total: f64,
    startup: f64,
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
            setup: ms(p.sandbox_setup),
            exec: ms(p.sandboxed_exec),
            sandboxes: p.sandboxes as f64,
            contracts: p.contract_applications as f64,
        }
    }
}

const BUCKETS: [Metric<Row>; 7] = [
    ("total", "ms", |r| r.total),
    ("startup", "ms", |r| r.startup),
    ("sandbox_setup", "ms", |r| r.setup),
    ("sandboxed_exec", "ms", |r| r.exec),
    ("remaining", "ms", |r| {
        (r.total - r.startup - r.setup - r.exec).max(0.0)
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
    println!(" \"remaining\" = script evaluation incl. contract checking, by subtraction)");

    const TASKS: [&str; 4] = ["uninstall", "download", "grading", "find"];
    let r = interleave(runs(), TASKS.len(), |arm| {
        Row::of(match arm {
            0 => run_emacs(Config::Sandboxed, EmacsStep::Uninstall),
            1 => run_emacs(Config::Sandboxed, EmacsStep::Download),
            2 => run_grading(Config::ShillVersion, students, 3),
            _ => run_find(Config::ShillVersion, scale),
        })
    });
    let mut g = Group::new("figure10");
    for (bucket, unit, f) in BUCKETS {
        g.per_arm(bucket, unit, &TASKS, &r, f);
    }
    g.write();
}
