//! A module compiled by an earlier runtime changes nothing a run can
//! observe. Each case study runs once on a fresh thread, whose module
//! cache is empty, and twice on another thread, the second time on the
//! modules that the first compiled. Results, `display` output, file-system
//! effects, the profile's counts, kernel counter deltas and blame text must
//! all match.

use shill::core::EvalResult;
use shill::kernel::{InjConnId, Kernel};
use shill::scenarios::{
    apache_task, emacs_task, find_task, grading_task, Config, EmacsStep, ShillTask,
};
use shill::vfs::{NodeBody, NodeId};

/// What one run leaves behind that a user could see.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    output: String,
    files: Vec<String>,
    /// Sandboxes, contract applications and guard checks.
    counts: [u64; 3],
    /// Every kernel counter's change over the run.
    stats: Vec<(&'static str, u64)>,
    responses: Vec<String>,
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per node under `dir`: path, metadata and a digest of the body.
fn tree(k: &Kernel, dir: NodeId, path: &str, out: &mut Vec<String>) {
    let node = k.fs.node(dir).expect("live node");
    let body = match &node.body {
        NodeBody::File(data) => format!("file {} bytes, fnv {:x}", data.len(), fnv(data)),
        other => format!("{other:?}"),
    };
    out.push(format!(
        "{path} {:?} {:?} {:?} nlink={} mtime={:?} ctime={:?} {body}",
        node.mode, node.uid, node.gid, node.nlink, node.mtime, node.ctime
    ));
    if let NodeBody::Dir(entries) = &node.body {
        for (name, child) in entries {
            tree(k, *child, &format!("{path}/{name}"), out);
        }
    }
}

fn shown(result: EvalResult) -> String {
    match result {
        Ok(v) => format!("ok:{}", v.display()),
        Err(e) => format!("err:{e}"),
    }
}

fn observe(task: ShillTask, conns: Vec<InjConnId>) -> Observed {
    let before = task.kernel.stats_snapshot();
    let (mut rt, result) = task.run();
    let k = rt.kernel();
    let stats = k
        .stats_snapshot()
        .fields()
        .into_iter()
        .zip(before.fields())
        .map(|((name, after), (_, before))| (name, after - before))
        .collect();
    let responses = conns
        .into_iter()
        .map(|c| match k.net.take_response(c) {
            Ok((done, resp)) => format!("done={done} {} bytes, fnv {:x}", resp.len(), fnv(&resp)),
            Err(e) => format!("{e:?}"),
        })
        .collect();
    let mut files = Vec::new();
    tree(k, k.fs.root(), "", &mut files);
    let p = rt.profile();
    Observed {
        result: shown(result),
        output: rt.output(),
        files,
        counts: [p.sandboxes, p.contract_applications, p.guard_checks],
        stats,
        responses,
    }
}

/// Grading's SHILL version, the whole Emacs pipeline, Find's SHILL version
/// on a small tree, Apache, and a contract violation provoked through
/// `package.cap`, in that order, on the calling thread.
fn observe_all() -> Vec<Observed> {
    let (apache, conns) = apache_task(4, 4096);
    let mut violation = emacs_task(EmacsStep::Download);
    violation.ambient = violation.ambient.replace(
        "download(builddir, socket_factory, wallet)",
        "download(builddir, socket_factory, builddir)",
    );
    vec![
        observe(grading_task(Config::ShillVersion, 3, 2), Vec::new()),
        observe(emacs_task(EmacsStep::Total), Vec::new()),
        observe(find_task(Config::ShillVersion, 400), Vec::new()),
        observe(apache, conns),
        observe(violation, Vec::new()),
    ]
}

#[test]
fn warm_runs_observe_what_a_cold_run_does() {
    let cold = std::thread::spawn(observe_all).join().unwrap();
    let [grading, emacs, find, apache, violation] = &cold[..] else {
        panic!("five cases");
    };
    assert_eq!(grading.result, "ok:void");
    assert_eq!(emacs.result, "ok:0");
    assert!(
        find.counts[0] > 10,
        "one grep sandbox per .c file: {find:?}"
    );
    assert_eq!(apache.result, "ok:0");
    assert!(apache.responses.iter().all(|r| r.starts_with("done=true")));
    assert_eq!(
        violation.result,
        "err:contract violation: client of package.cap broke the contract \
         `wallet : native_wallet`: expected a native wallet, got capability"
    );

    let (first, warm) = std::thread::spawn(|| (observe_all(), observe_all()))
        .join()
        .unwrap();
    for ((c, f), w) in cold.iter().zip(&first).zip(&warm) {
        assert_eq!(c, f, "two cold runs differ");
        assert_eq!(c, w, "a warm run differs from a cold one");
    }
}
