//! `find-fine`: the paper's Find in the SHILL configuration. Figure 5's
//! polymorphic `find` walks `/usr/src` in SHILL and launches one `grep`
//! sandbox per `.c` file, on the source tree at 1/40 scale.
//!
//! The seed rewrites a fixed number of `.c` files, moving the `mac_`
//! pattern between them, so the tree shape (and the work) stays the same
//! while the match set changes. The oracle is the match count of a
//! Baseline run (plain simulated `find -exec grep`) on the same tree.

use std::time::{Duration, Instant};

use shill::binaries::workloads;
use shill::core::{EvalResult, ShillRuntime};
use shill::kernel::{Fd, Kernel, OpenFlags};
use shill::scenarios::{FIND_SHILL_CAP, POLY_FIND_CAP};
use shill::vfs::{Cred, Gid, Mode, Uid};

use crate::layers::fresh_kernel;
use crate::report::Rng;
use crate::task::Task;

/// Divides the paper's 57,817-file tree, as ROADMAP's numbers do.
pub const SCALE: usize = 40;
/// `.c` files whose contents the seed rewrites.
const EDITS: usize = 8;
const MATCHES: &str = "/tmp/matches.txt";

/// The ambient half of the fine-grained Find (the `find_fine` entry of
/// `shill::scenarios`).
const AMBIENT: &str = r#"#lang shill/ambient
require shill/native;
require "task.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/bin:/bin", "/lib", pipe_factory);
wallet_add_dep(wallet, "find", open_file("/usr/bin/grep"));
wallet_add_dep(wallet, "find", open_file("/lib/libregex.so"));

src = open_dir("/usr/src");
out = open_file("/tmp/matches.txt");
find_fine(src, out, wallet)
"#;

pub struct FindFine {
    /// Seeded rewrites: (path, new contents).
    edits: Vec<(String, Vec<u8>)>,
    /// Match lines a Baseline run prints on the seeded tree.
    expected: u64,
}

/// Every `.c` path under `dir`, in sorted order.
fn c_files(k: &Kernel, dir: &str, out: &mut Vec<String>) {
    let node = k.fs.resolve_abs(dir).expect("tree dir");
    let mut names = k.fs.readdir(node).expect("readdir");
    names.sort();
    for n in names {
        let path = format!("{dir}/{n}");
        let child = k.fs.lookup(node, &n).expect("lookup");
        if k.fs.node(child).expect("node").is_dir() {
            c_files(k, &path, out);
        } else if n.ends_with(".c") {
            out.push(path);
        }
    }
}

fn has_pattern(k: &Kernel, path: &str) -> bool {
    let n = k.fs.resolve_abs(path).expect("c file");
    let data = k.fs.read(n, 0, 1 << 20).expect("read c file");
    data.windows(4).any(|w| w == b"mac_")
}

fn put(k: &mut Kernel, path: &str, data: &[u8], mode: u16) {
    k.fs.put_file(path, data, Mode(mode), Uid::ROOT, Gid::WHEEL)
        .expect("put file");
}

fn count_lines(k: &Kernel) -> Result<u64, String> {
    let n =
        k.fs.resolve_abs(MATCHES)
            .map_err(|e| format!("{MATCHES}: {e}"))?;
    let data =
        k.fs.read(n, 0, usize::MAX >> 1)
            .map_err(|e| e.to_string())?;
    Ok(data.iter().filter(|b| **b == b'\n').count() as u64)
}

impl FindFine {
    pub fn new(seed: u64) -> FindFine {
        let mut k = fresh_kernel();
        workloads::source_tree(&mut k, SCALE);
        let mut files = Vec::new();
        c_files(&k, "/usr/src", &mut files);
        let mut rng = Rng::new(seed);
        let mut edits = Vec::new();
        while edits.len() < EDITS {
            let path = &files[rng.next() as usize % files.len()];
            if edits.iter().any(|(p, _)| p == path) {
                continue;
            }
            let body = if has_pattern(&k, path) {
                format!("int g{}(void) {{ return 0; }}\n", rng.range(0, 999))
            } else {
                format!(
                    "#include <sys/mac.h>\nint g(void) {{\n  return mac_vnode_check_write({});\n}}\n",
                    rng.range(0, 999)
                )
            };
            edits.push((path.clone(), body.into_bytes()));
        }
        let mut f = FindFine { edits, expected: 0 };
        let (_, lines) = f.baseline_run();
        f.expected = lines;
        assert!(f.expected > 0, "seeded tree has no matches");
        f
    }

    /// The Baseline configuration: `find /usr/src -name *.c -exec grep
    /// -H mac_ {} ;` run directly, stdout on the matches file. Returns
    /// its wall time and the match lines printed.
    fn baseline_run(&self) -> (Duration, u64) {
        let mut k = self.prep();
        let user = k.spawn_user(Cred::ROOT);
        let t0 = Instant::now();
        let child = k.fork(user).expect("fork");
        let out = k
            .open(child, MATCHES, OpenFlags::creat_trunc_w(), Mode(0o644))
            .expect("open matches");
        k.transfer_fd(child, out, child, Fd::STDOUT)
            .expect("wire stdout");
        let argv: Vec<String> = [
            "/usr/bin/find",
            "/usr/src",
            "-name",
            "*.c",
            "-exec",
            "/usr/bin/grep",
            "-H",
            "mac_",
            "{}",
            ";",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let st = k.exec_at(child, None, &argv[0], &argv).unwrap_or(-1);
        k.exit(child, st);
        let _ = k.waitpid(user, child);
        let wall = t0.elapsed();
        (wall, count_lines(&k).expect("baseline matches"))
    }
}

impl Task for FindFine {
    fn rss_after_ops(&self) -> u64 {
        30
    }

    fn prep(&self) -> Kernel {
        let mut k = fresh_kernel();
        workloads::source_tree(&mut k, SCALE);
        for (path, body) in &self.edits {
            put(&mut k, path, body, 0o644);
        }
        put(&mut k, MATCHES, b"", 0o666);
        k
    }

    fn scripts(&self) -> &[(&'static str, &'static str)] {
        &[("find.cap", POLY_FIND_CAP), ("task.cap", FIND_SHILL_CAP)]
    }

    fn ambient(&self) -> &str {
        AMBIENT
    }

    fn check(&self, rt: &mut ShillRuntime, result: EvalResult) -> Result<(), String> {
        result.map_err(|e| format!("script failed: {e}"))?;
        let got = count_lines(rt.kernel())?;
        if got != self.expected {
            return Err(format!(
                "{got} match lines, Baseline printed {}",
                self.expected
            ));
        }
        Ok(())
    }

    fn baseline(&self) -> Duration {
        self.baseline_run().0
    }
}
