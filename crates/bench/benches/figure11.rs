//! Figure 11: "Overhead of SHILL for microbenchmarks" — per-system-call
//! privilege-checking cost, comparing the "SHILL installed" configuration
//! (module loaded, process unsandboxed) against "Sandboxed" (process inside
//! an entered session with privileges granted).
//!
//! Microbenchmarks: pread-1B, pread-1MB, create-unlink, and
//! open-read-close with 1 and 5 lookups; plus the paper's observation that
//! open overhead "increases linearly in the length of the path", recorded
//! as a per-component slope and intercept fitted over depths 2–9.

use std::time::Instant;

use shill_bench::{fit_line, interleave, runs, Group, Stats};
use shill_cap::CapPrivs;
use shill_kernel::{Fd, Kernel, OpenFlags, Pid};
use shill_sandbox::{setup_sandbox, Grant, SandboxSpec, ShillPolicy};
use shill_vfs::{Cred, Gid, Mode, Uid};

const CONFIGS: [&str; 2] = ["installed", "sandboxed"];

/// Build the bench tree and return a kernel + acting pid for a config.
fn setup(sandboxed: bool) -> (Kernel, Pid) {
    let mut k = Kernel::new();
    k.fs.put_file("/bench/one.bin", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    k.fs.put_file(
        "/bench/mega.bin",
        &vec![7u8; 1 << 20],
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    k.fs.put_file(
        "/bench/d1/d2/d3/d4/deep.bin",
        b"y",
        Mode(0o644),
        Uid::ROOT,
        Gid::WHEEL,
    )
    .unwrap();
    k.fs.mkdir_p("/bench/scratch", Mode(0o777), Uid::ROOT, Gid::WHEEL)
        .unwrap();
    let policy = ShillPolicy::new();
    k.register_policy(policy.clone());
    let user = k.spawn_user(Cred::ROOT);
    if !sandboxed {
        return (k, user);
    }
    // Full privileges on the whole bench tree: overhead measured is pure
    // checking cost, not denials.
    let root = k.fs.root();
    let bench = k.fs.resolve_abs("/bench").unwrap();
    let spec = SandboxSpec {
        grants: vec![
            Grant::vnode(root, CapPrivs::full()),
            Grant::vnode(bench, CapPrivs::full()),
        ],
        ..Default::default()
    };
    let sb = setup_sandbox(&mut k, &policy, user, &spec).expect("sandbox");
    (k, sb.child)
}

/// ns/op for one microbenchmark under one configuration.
fn bench_op(name: &str, sandboxed: bool, n: usize, op: &dyn Fn(&mut Kernel, Pid, Fd)) -> f64 {
    let (mut k, pid) = setup(sandboxed);
    // Pre-open the target descriptor outside the timed region.
    let fd = match name {
        "pread-1B" => k
            .open(pid, "/bench/one.bin", OpenFlags::RDONLY, Mode(0))
            .unwrap(),
        "pread-1MB" => k
            .open(pid, "/bench/mega.bin", OpenFlags::RDONLY, Mode(0))
            .unwrap(),
        _ => k
            .open(pid, "/bench/scratch", OpenFlags::dir(), Mode(0))
            .unwrap(),
    };
    let t0 = Instant::now();
    for _ in 0..n {
        op(&mut k, pid, fd);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `n` operations per round and configuration.
fn row(g: &mut Group, name: &str, n: usize, op: &dyn Fn(&mut Kernel, Pid, Fd)) {
    let r = interleave(runs(), 2, |arm| bench_op(name, arm == 1, n, op));
    g.per_arm(name, "ns", &CONFIGS, &r, |&ns| ns);
    g.ratio(name, &CONFIGS, &r, 1, 0, |&ns| ns);
}

fn orc(k: &mut Kernel, pid: Pid, path: &str) {
    let f = k.open(pid, path, OpenFlags::RDONLY, Mode(0)).expect("open");
    k.read(pid, f, 1).expect("read");
    k.close(pid, f).expect("close");
}

fn main() {
    println!(
        "Figure 11 — syscall microbenchmarks ({} interleaved rounds; median [IQR])",
        runs()
    );
    let mut g = Group::new("figure11");
    row(&mut g, "pread-1B", 40_000, &|k, pid, fd| {
        k.pread(pid, fd, 0, 1).expect("pread");
    });
    row(&mut g, "pread-1MB", 400, &|k, pid, fd| {
        k.pread(pid, fd, 0, 1 << 20).expect("pread");
    });
    row(&mut g, "create-unlink", 4_000, &|k, pid, dirfd| {
        let f = k
            .openat(
                pid,
                Some(dirfd),
                "tmpfile",
                OpenFlags {
                    read: true,
                    write: true,
                    create: true,
                    ..Default::default()
                },
                Mode(0o644),
            )
            .expect("create");
        k.close(pid, f).expect("close");
        k.unlinkat(pid, Some(dirfd), "tmpfile", false)
            .expect("unlink");
    });
    row(&mut g, "open-read-close/1", 10_000, &|k, pid, _| {
        orc(k, pid, "/bench/one.bin")
    });
    row(&mut g, "open-read-close/5", 10_000, &|k, pid, _| {
        orc(k, pid, "/bench/d1/d2/d3/d4/deep.bin")
    });

    // Linearity in path length (§4.2: "overhead increases linearly in the
    // length of the path (i.e., linearly with the number of lookup system
    // calls required)"). Arm 2d + c opens `paths[d]` under CONFIGS[c]; each
    // round fits one line to its own sandboxed − installed overheads.
    let paths: Vec<String> = (1..=8)
        .map(|d| {
            let dirs: String = (1..=d).map(|i| format!("/n{i}")).collect();
            format!("/bench{dirs}/f.bin")
        })
        .collect();
    let r = interleave(runs(), 2 * paths.len(), |arm| {
        let (p, sandboxed) = (&paths[arm / 2], arm % 2 == 1);
        let (mut k, pid) = setup(sandboxed);
        k.fs.put_file(p, b"z", Mode(0o644), Uid::ROOT, Gid::WHEEL)
            .unwrap();
        let n = 1_500;
        let t0 = Instant::now();
        for _ in 0..n {
            orc(&mut k, pid, p);
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    });
    let fits: Vec<(f64, f64)> = (0..runs())
        .map(|round| {
            let points: Vec<(f64, f64)> = (0..paths.len())
                .map(|d| {
                    let overhead = r.samples(2 * d + 1)[round] - r.samples(2 * d)[round];
                    ((d + 2) as f64, overhead)
                })
                .collect();
            fit_line(&points)
        })
        .collect();
    let slopes: Vec<f64> = fits.iter().map(|f| f.0).collect();
    let intercepts: Vec<f64> = fits.iter().map(|f| f.1).collect();
    g.add(
        "orc-depth.slope",
        "ns/component",
        "sandboxed-installed",
        Stats::of(&slopes),
    );
    g.add(
        "orc-depth.intercept",
        "ns",
        "sandboxed-installed",
        Stats::of(&intercepts),
    );
    g.write();
}
