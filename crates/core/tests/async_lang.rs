//! The language surface of the completion model: `async` builds deferred
//! batch fragments, `await`/`await_all` force them through ONE scheduled
//! submission, `select` steps waves to pick the first finisher, and
//! `stream_read` yields per-wave chunks. The async form of a script must
//! be observationally equivalent to its sequential twin — same results,
//! same errnos, same denials — with strictly fewer batch submissions.

use shill_core::{RuntimeConfig, ShillRuntime, Value};
use shill_kernel::{FaultPlane, Kernel};
use shill_vfs::{Cred, Gid, Mode, Uid};

fn test_kernel() -> Kernel {
    let mut k = Kernel::new();
    let put = |k: &mut Kernel, p: &str, data: &[u8]| {
        k.fs.put_file(p, data, Mode(0o644), Uid(100), Gid(100))
            .unwrap();
    };
    put(&mut k, "/home/u/a.txt", b"alpha");
    put(&mut k, "/home/u/b.txt", b"bravo-bravo");
    put(&mut k, "/home/u/c.txt", b"charlie");
    put(&mut k, "/home/u/out.txt", b"");
    put(&mut k, "/home/u/out2.txt", b"");
    k.fs.put_file(
        "/home/u/big.bin",
        &vec![7u8; 200_000],
        Mode(0o644),
        Uid(100),
        Gid(100),
    )
    .unwrap();
    k
}

fn runtime() -> ShillRuntime {
    ShillRuntime::new(test_kernel(), RuntimeConfig::WithPolicy, Cred::user(100))
}

/// A cap script exposing an async pipeline and its sequential twin:
/// copy a → out (read → truncate → write with a slot link), slurp b and c.
const PIPELINE: &str = r#"#lang shill/cap
require shill/filesys;
provide fused : {src : file(+read), b : file(+read), c : file(+read),
                 dst : file(+write)} -> is_list;
provide sequential : {src : file(+read), b : file(+read), c : file(+read),
                      dst : file(+write)} -> is_list;
fused = fun(src, b, c, dst) {
  fc = async copy_file(src, dst);
  fb = async read(b);
  fx = async read(c);
  await_all([fc, fb, fx])
};
sequential = fun(src, b, c, dst) {
  [copy_file(src, dst), read(b), read(c)]
};
"#;

const DRIVE_FUSED: &str = r#"#lang shill/ambient
require "pipeline.cap";
fused(open_file("/home/u/a.txt"), open_file("/home/u/b.txt"),
      open_file("/home/u/c.txt"), open_file("/home/u/out.txt"))
"#;

const DRIVE_SEQ: &str = r#"#lang shill/ambient
require "pipeline.cap";
sequential(open_file("/home/u/a.txt"), open_file("/home/u/b.txt"),
           open_file("/home/u/c.txt"), open_file("/home/u/out.txt"))
"#;

fn out_content(rt: &mut ShillRuntime, path: &str) -> Vec<u8> {
    let node = rt.kernel().fs.resolve_abs(path).unwrap();
    rt.kernel().fs.read(node, 0, 1 << 20).unwrap()
}

// --- the tentpole: one submission for the whole async pipeline ---------------

#[test]
fn async_pipeline_is_one_scheduled_submission() {
    let mut rt = runtime();
    rt.add_script("pipeline.cap", PIPELINE);
    let before = rt.kernel().stats_snapshot();
    let v = rt.run_ok(DRIVE_FUSED);
    let after = rt.kernel().stats_snapshot();

    // One `submit_batch` carried the copy DAG and both reads.
    assert_eq!(after.batches - before.batches, 1, "expected ONE submission");
    // The copy's write consumed the read's buffer through a slot reference.
    assert!(after.slot_links - before.slot_links >= 1, "no slot link");
    // The copy fragment is ≥2 dependency levels deep → several waves.
    assert!(
        after.sched_waves - before.sched_waves >= 2,
        "expected waves"
    );

    let Value::List(items) = &v else {
        panic!("{v:?}")
    };
    assert!(matches!(items[0], Value::Num(5)), "{:?}", items[0]);
    assert_eq!(items[1].display(), "bravo-bravo");
    assert_eq!(items[2].display(), "charlie");
    assert_eq!(out_content(&mut rt, "/home/u/out.txt"), b"alpha");
}

#[test]
fn sequential_twin_needs_more_submissions() {
    let mut rt = runtime();
    rt.add_script("pipeline.cap", PIPELINE);
    let before = rt.kernel().stats_snapshot();
    let v = rt.run_ok(DRIVE_SEQ);
    let after = rt.kernel().stats_snapshot();
    assert!(
        after.batches - before.batches >= 3,
        "each eager op is its own submission"
    );
    let Value::List(items) = &v else {
        panic!("{v:?}")
    };
    assert!(matches!(items[0], Value::Num(5)));
    assert_eq!(items[1].display(), "bravo-bravo");
    assert_eq!(out_content(&mut rt, "/home/u/out.txt"), b"alpha");
}

#[test]
fn async_matches_sequential_twin_bit_for_bit() {
    let mut fused = runtime();
    fused.add_script("pipeline.cap", PIPELINE);
    let fv = fused.run_ok(DRIVE_FUSED);

    let mut seq = runtime();
    seq.add_script("pipeline.cap", PIPELINE);
    let sv = seq.run_ok(DRIVE_SEQ);

    assert_eq!(fv.display(), sv.display());
    assert_eq!(
        out_content(&mut fused, "/home/u/out.txt"),
        out_content(&mut seq, "/home/u/out.txt"),
    );
}

#[test]
fn async_matches_twin_under_standing_faults() {
    // fs.read/fs.write faults key on (node, offset, len) — identical for the
    // accumulated batch and the eager per-op batches — so both modes must
    // surface the SAME syserrors. (The slot-keyed `batch` site is excluded:
    // slot numbering differs by construction between the modes.)
    for spec in [
        "seed=23;rate=5;sites=fs.read+fs.write",
        "seed=9;rate=3;sites=fs.read",
    ] {
        let mut fused = runtime();
        fused.add_script("pipeline.cap", PIPELINE);
        fused
            .kernel()
            .set_fault_plane(Some(FaultPlane::parse(spec).unwrap()));
        let fv = fused.run("main", DRIVE_FUSED);

        let mut seq = runtime();
        seq.add_script("pipeline.cap", PIPELINE);
        seq.kernel()
            .set_fault_plane(Some(FaultPlane::parse(spec).unwrap()));
        let sv = seq.run("main", DRIVE_SEQ);

        let render = |r: &Result<Value, shill_core::ShillError>| match r {
            Ok(v) => format!("ok:{}", v.display()),
            Err(e) => format!("err:{e}"),
        };
        assert_eq!(render(&fv), render(&sv), "spec={spec}");
        fused.kernel().set_fault_plane(None);
        seq.kernel().set_fault_plane(None);
        assert_eq!(
            out_content(&mut fused, "/home/u/out.txt"),
            out_content(&mut seq, "/home/u/out.txt"),
            "spec={spec}"
        );
    }
}

// --- future lifetime ----------------------------------------------------------

#[test]
fn unawaited_futures_never_execute() {
    let mut rt = runtime();
    let before = rt.kernel().stats_snapshot();
    let v = rt.run_ok(
        r#"#lang shill/ambient
f = async write(open_file("/home/u/out.txt"), "poison");
"deferred forever""#,
    );
    let after = rt.kernel().stats_snapshot();
    assert_eq!(v.display(), "deferred forever");
    assert_eq!(after.batches - before.batches, 0);
    assert_eq!(out_content(&mut rt, "/home/u/out.txt"), b"");
}

#[test]
fn await_is_identity_on_plain_values_and_ready_futures() {
    let mut rt = runtime();
    let v = rt.run_ok("#lang shill/ambient\nawait 42");
    assert!(matches!(v, Value::Num(42)));
    let v = rt.run_ok("#lang shill/ambient\nawait (async (1 + 2))");
    assert!(matches!(v, Value::Num(3)));
}

#[test]
fn first_await_forces_every_pending_future() {
    // Awaiting ONE future flushes the whole accumulated batch; the second
    // future is already resolved when awaited — still one submission.
    let mut rt = runtime();
    let before = rt.kernel().stats_snapshot();
    let v = rt.run_ok(
        r#"#lang shill/ambient
fa = async read(open_file("/home/u/a.txt"));
fb = async read(open_file("/home/u/b.txt"));
(await fa) ++ "|" ++ (await fb)"#,
    );
    let after = rt.kernel().stats_snapshot();
    assert_eq!(v.display(), "alpha|bravo-bravo");
    assert_eq!(after.batches - before.batches, 1);
}

#[test]
fn async_errors_surface_as_catchable_syserrors_on_await() {
    // A denial at *enqueue* time still aborts (capability safety is not
    // deferred); an errno at *resolution* time is an ordinary syserror.
    let mut rt = runtime();
    let plane = FaultPlane::parse("seed=1;rate=0;sites=").unwrap();
    rt.kernel().set_fault_plane(Some(plane.fail_on(
        shill_kernel::FaultSite::FsRead,
        1,
        shill_vfs::Errno::EIO,
    )));
    let v = rt.run_ok(
        r#"#lang shill/ambient
f = async read(open_file("/home/u/a.txt"));
is_syserror(await f)"#,
    );
    assert!(matches!(v, Value::Bool(true)), "{v:?}");
}

// --- select -------------------------------------------------------------------

#[test]
fn select_returns_first_completed_and_resolves_the_rest() {
    let mut rt = runtime();
    rt.add_script(
        "sel.cap",
        r#"#lang shill/cap
provide pick : {a : file(+read), b : file(+read)} -> is_list;
pick = fun(a, b) {
  fa = async read(a);
  fb = async read(b);
  i = select([fa, fb]);
  [i, await fa, await fb]
};
"#,
    );
    let before = rt.kernel().stats_snapshot();
    let v = rt.run_ok(
        r#"#lang shill/ambient
require "sel.cap";
pick(open_file("/home/u/a.txt"), open_file("/home/u/b.txt"))"#,
    );
    let after = rt.kernel().stats_snapshot();
    let Value::List(items) = &v else {
        panic!("{v:?}")
    };
    assert!(matches!(items[0], Value::Num(0) | Value::Num(1)));
    assert_eq!(items[1].display(), "alpha");
    assert_eq!(items[2].display(), "bravo-bravo");
    // select stepped the one accumulated batch; the awaits found
    // already-resolved futures.
    assert_eq!(after.batches - before.batches, 1);
}

#[test]
fn select_on_ready_values_returns_earliest_index() {
    let mut rt = runtime();
    let v = rt.run_ok("#lang shill/ambient\nselect([async 7, async 8])");
    assert!(matches!(v, Value::Num(0)), "{v:?}");
}

// --- stream_read --------------------------------------------------------------

#[test]
fn stream_read_yields_waves_and_totals_the_bytes() {
    let mut rt = runtime();
    rt.add_script(
        "stream.cap",
        r#"#lang shill/cap
provide pump : {src : file(+read), dst : file(+append)} -> is_num;
pump = fun(src, dst) {
  stream_read(src, fun(chunk) { append(dst, chunk) })
};
"#,
    );
    let before = rt.kernel().stats_snapshot();
    let v = rt.run_ok(
        r#"#lang shill/ambient
require "stream.cap";
pump(open_file("/home/u/big.bin"), open_file("/home/u/out2.txt"))"#,
    );
    let after = rt.kernel().stats_snapshot();
    assert!(matches!(v, Value::Num(200_000)), "{v:?}");
    assert_eq!(out_content(&mut rt, "/home/u/out2.txt"), vec![7u8; 200_000]);
    // The chunk chain streams one completion per wave.
    assert!(after.sched_waves - before.sched_waves >= 3);
}

#[test]
fn stream_read_small_file_single_wave() {
    let mut rt = runtime();
    rt.add_script(
        "stream.cap",
        r#"#lang shill/cap
provide count : {src : file(+read)} -> is_num;
count = fun(src) { stream_read(src, fun(chunk) { length(chunk) }) };
"#,
    );
    let v = rt.run_ok(
        r#"#lang shill/ambient
require "stream.cap";
count(open_file("/home/u/a.txt"))"#,
    );
    assert!(matches!(v, Value::Num(5)), "{v:?}");
}

// --- slurp_many ---------------------------------------------------------------

#[test]
fn slurp_many_is_one_submission_even_eagerly() {
    let mut rt = runtime();
    rt.add_script(
        "slurp.cap",
        r#"#lang shill/cap
require shill/filesys;
provide slurp3 : {a : file(+read), b : file(+read), c : file(+read)} -> is_list;
slurp3 = fun(a, b, c) { slurp_many([a, b, c]) };
"#,
    );
    let before = rt.kernel().stats_snapshot();
    let v = rt.run_ok(
        r#"#lang shill/ambient
require "slurp.cap";
slurp3(open_file("/home/u/a.txt"), open_file("/home/u/b.txt"),
       open_file("/home/u/c.txt"))"#,
    );
    let after = rt.kernel().stats_snapshot();
    assert_eq!(after.batches - before.batches, 1);
    let Value::List(items) = &v else {
        panic!("{v:?}")
    };
    assert_eq!(items[0].display(), "alpha");
    assert_eq!(items[1].display(), "bravo-bravo");
    assert_eq!(items[2].display(), "charlie");
}

#[test]
fn async_slurp_many_joins_the_accumulated_batch() {
    let mut rt = runtime();
    rt.add_script(
        "slurp.cap",
        r#"#lang shill/cap
require shill/filesys;
provide go : {a : file(+read), b : file(+read), c : file(+read)} -> is_list;
go = fun(a, b, c) {
  fs = async slurp_many([a, b]);
  fc = async read(c);
  await_all([fs, fc])
};
"#,
    );
    let before = rt.kernel().stats_snapshot();
    let v = rt.run_ok(
        r#"#lang shill/ambient
require "slurp.cap";
go(open_file("/home/u/a.txt"), open_file("/home/u/b.txt"),
   open_file("/home/u/c.txt"))"#,
    );
    let after = rt.kernel().stats_snapshot();
    assert_eq!(after.batches - before.batches, 1);
    let Value::List(items) = &v else {
        panic!("{v:?}")
    };
    let Value::List(pair) = &items[0] else {
        panic!("{:?}", items[0])
    };
    assert_eq!(pair[0].display(), "alpha");
    assert_eq!(pair[1].display(), "bravo-bravo");
    assert_eq!(items[1].display(), "charlie");
}

// --- dir_stats ----------------------------------------------------------------

#[test]
fn async_dir_stats_matches_eager() {
    let mut rt = runtime();
    rt.add_script(
        "ds.cap",
        r#"#lang shill/cap
require shill/filesys;
provide both : {d : dir(+contents, +lookup, +stat)} -> is_list;
both = fun(d) {
  f = async dir_stats(d);
  [await f, dir_stats(d)]
};
"#,
    );
    let v = rt.run_ok(
        r#"#lang shill/ambient
require "ds.cap";
both(open_dir("/home/u"))"#,
    );
    let Value::List(items) = &v else {
        panic!("{v:?}")
    };
    assert_eq!(items[0].display(), items[1].display());
    assert!(items[0].display().contains("a.txt"));
}

// --- sibling independence -----------------------------------------------------

#[test]
fn failed_fragment_does_not_poison_siblings() {
    // Fault exactly one read in the accumulated batch: its future resolves
    // to a syserror, the sibling read still succeeds — fragment cones are
    // independent.
    let mut rt = runtime();
    let plane = FaultPlane::parse("seed=1;rate=0;sites=").unwrap();
    rt.kernel().set_fault_plane(Some(plane.fail_on(
        shill_kernel::FaultSite::FsRead,
        1,
        shill_vfs::Errno::EIO,
    )));
    let v = rt.run_ok(
        r#"#lang shill/ambient
fa = async read(open_file("/home/u/a.txt"));
fb = async read(open_file("/home/u/b.txt"));
rs = await_all([fa, fb]);
[is_syserror(nth(rs, 0)), nth(rs, 1)]"#,
    );
    let Value::List(items) = &v else {
        panic!("{v:?}")
    };
    assert!(matches!(items[0], Value::Bool(true)), "{:?}", items[0]);
    assert_eq!(items[1].display(), "bravo-bravo");
}

// --- capabilities passed as temporaries ---------------------------------------

/// Run an ambient script (with `shill/filesys`) in a fresh runtime: its
/// value's rendering and both output files' contents.
fn outcome(body: &str) -> (String, Vec<u8>, Vec<u8>) {
    let mut rt = runtime();
    let v = rt.run_ok(&format!(
        "#lang shill/ambient\nrequire shill/filesys;\n{body}"
    ));
    (
        v.display(),
        out_content(&mut rt, "/home/u/out.txt"),
        out_content(&mut rt, "/home/u/out2.txt"),
    )
}

/// The kernel counters one ambient script (with `shill/filesys`) moves in
/// a fresh runtime, field by field.
fn stats_delta(body: &str) -> Vec<(&'static str, u64)> {
    let mut rt = runtime();
    let before = rt.kernel().stats_snapshot();
    rt.run_ok(&format!(
        "#lang shill/ambient\nrequire shill/filesys;\n{body}"
    ));
    let after = rt.kernel().stats_snapshot();
    before
        .fields()
        .into_iter()
        .zip(after.fields())
        .map(|((name, b), (_, a))| (name, a - b))
        .collect()
}

#[test]
fn async_ops_on_temporary_caps_match_their_eager_twins() {
    // Each deferred form drops its capability as soon as the fragment is
    // enqueued, and a builtin call — a kernel crossing, which closes the
    // descriptors of dropped capabilities — runs before the await. The
    // fragment must keep the descriptor open until it resolves.
    let ops = [
        r#"read(open_file("/home/u/a.txt"))"#,
        r#"write(open_file("/home/u/out.txt"), "fresh")"#,
        r#"copy_file(open_file("/home/u/big.bin"), open_file("/home/u/out2.txt"))"#,
        r#"dir_stats(open_dir("/home/u"))"#,
        r#"slurp_many([open_file("/home/u/a.txt"), open_file("/home/u/c.txt")])"#,
    ];
    for op in ops {
        let deferred = outcome(&format!(
            "f = async {op};\npad = length(\"crossing\");\nawait f"
        ));
        assert_eq!(deferred, outcome(op), "{op}");
        assert!(!deferred.0.contains("syserror"), "{op}: {}", deferred.0);
        // The eager call flushes the same fragment its `async` twin
        // accumulates: identical entries, slots, edges and fail mode, so
        // identical kernel counters.
        assert_eq!(
            stats_delta(op),
            stats_delta(&format!("await (async {op})")),
            "{op}"
        );
    }
    let selected = outcome(
        r#"fa = async read(open_file("/home/u/a.txt"));
fb = async read(open_file("/home/u/b.txt"));
[select([fa, fb]), await fa, await fb]"#,
    );
    let eager =
        outcome(r#"[0, read(open_file("/home/u/a.txt")), read(open_file("/home/u/b.txt"))]"#);
    assert_eq!(selected, eager);
}
