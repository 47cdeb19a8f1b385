//! `pkg-pipeline`: the Emacs package pipeline in the SHILL configuration
//! (`PACKAGE_CAP`: download → untar → configure → make → install →
//! uninstall), one fresh kernel per task.
//!
//! The seed fills the mirror's source files (same count and sizes as
//! `shill::scenarios`' Emacs mirror). The oracle: every step exits 0, the
//! downloaded tarball equals the mirror's bytes, the installed binary
//! exists after install and is gone after uninstall.

use std::time::{Duration, Instant};

use shill::binaries::tar::{pack, Entry};
use shill::binaries::workloads::emacs_mirror_addr;
use shill::core::{EvalResult, ShillRuntime, Value};
use shill::kernel::Kernel;
use shill::scenarios::{direct_exec, EMACS_SOURCES, EMACS_SOURCE_LEN, PACKAGE_CAP};
use shill::vfs::{Cred, Gid, Mode, Uid};

use crate::layers::fresh_kernel;
use crate::report::Rng;
use crate::task::Task;

const TARBALL: &str = "/build/emacs-24.tar";

/// The install prefix `PACKAGE_CAP`'s configure step passes (`--prefix=`).
fn install_prefix() -> &'static str {
    let rest = PACKAGE_CAP
        .split("--prefix=")
        .nth(1)
        .expect("PACKAGE_CAP configures a prefix");
    &rest[..rest.find('"').expect("quoted prefix")]
}

/// The Emacs ambient script of `shill::scenarios` for the whole pipeline,
/// with the install step's output looked up between install and
/// uninstall. The script's value is each step's status followed by that
/// lookup. `{prefix}` stands for [`install_prefix`].
const AMBIENT: &str = r#"#lang shill/ambient
require shill/native;
require "package.cap";

root = open_dir("/");
wallet = create_wallet();
populate_native_wallet(wallet, root, "/usr/local/bin:/usr/bin:/bin:/usr/local/sbin", "/lib:/usr/local/lib", pipe_factory);
wallet_add_dep(wallet, "gmake", open_file("/usr/bin/cc"));
wallet_add_dep(wallet, "gmake", open_file("/bin/mkdir"));
wallet_add_dep(wallet, "gmake", open_file("/usr/bin/install"));
wallet_add_dep(wallet, "gmake", open_file("/bin/rm"));
wallet_add_dep(wallet, "gmake", open_file("/lib/libelf.so"));
builddir = open_dir("/build");
st0 = download(builddir, socket_factory, wallet);
stu = unpack(open_file("/build/emacs-24.tar"), builddir, wallet);
srcdir = open_dir("/build/emacs-24");
prefix = open_dir("{prefix}");
stc = configure_pkg(srcdir, wallet);
stm = make_pkg(srcdir, wallet);
sti = install_pkg(srcdir, prefix, wallet);
bin = lookup(prefix, "bin");
installed = !is_syserror(bin) && is_file(lookup(bin, "emacs"));
stx = uninstall_pkg(srcdir, prefix, wallet);
[st0, stu, stc, stm, sti, stx, installed]
"#;

pub struct PkgPipeline {
    tarball: Vec<u8>,
    ambient: String,
    /// The installed binary, present between install and uninstall.
    installed: String,
}

fn mkdir(k: &mut Kernel, path: &str) {
    k.fs.mkdir_p(path, Mode(0o777), Uid::ROOT, Gid::WHEEL)
        .expect("mkdir");
}

impl PkgPipeline {
    pub fn new(seed: u64) -> PkgPipeline {
        let mut rng = Rng::new(seed);
        let mut entries = vec![
            Entry::Dir {
                path: "emacs-24".into(),
            },
            Entry::Dir {
                path: "emacs-24/src".into(),
            },
            Entry::Dir {
                path: "emacs-24/etc".into(),
            },
            Entry::File {
                path: "emacs-24/configure".into(),
                data: b"#!SIMBIN configure\nNEEDS /lib/libc.so\n".to_vec(),
                mode: 0o755,
            },
            Entry::File {
                path: "emacs-24/README".into(),
                data: b"GNU Emacs (simulated)\n".to_vec(),
                mode: 0o644,
            },
            Entry::File {
                path: "emacs-24/etc/emacs.1".into(),
                data: b".TH EMACS 1\n".to_vec(),
                mode: 0o644,
            },
        ];
        for i in 0..EMACS_SOURCES {
            let mut body = format!("/* emacs source {i} */\n");
            while body.len() < EMACS_SOURCE_LEN {
                body.push_str(&format!(
                    "int sym_{i}_{} = {};\n",
                    rng.range(0, 999),
                    rng.range(0, 99)
                ));
            }
            entries.push(Entry::File {
                path: format!("emacs-24/src/mod{i:03}.c"),
                data: body.into_bytes(),
                mode: 0o644,
            });
        }
        PkgPipeline {
            tarball: pack(&entries),
            ambient: AMBIENT.replace("{prefix}", install_prefix()),
            installed: format!("{}/bin/emacs", install_prefix()),
        }
    }

    /// The six steps run directly as a user process (Baseline).
    fn baseline_steps(k: &mut Kernel) -> Result<(), String> {
        let user = k.spawn_user(Cred::ROOT);
        let prefix = format!("--prefix={}", install_prefix());
        let steps: [&[&str]; 6] = [
            &[
                "/usr/local/bin/curl",
                "-o",
                TARBALL,
                "http://mirror.gnu.org/emacs-24.tar",
            ],
            &["/usr/bin/tar", "-xf", TARBALL, "-C", "/build"],
            &[
                "/usr/local/bin/configure",
                &prefix,
                "--srcdir=/build/emacs-24",
            ],
            &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "all"],
            &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "install"],
            &["/usr/local/bin/gmake", "-C", "/build/emacs-24", "uninstall"],
        ];
        for argv in steps {
            let st = direct_exec(k, user, argv);
            if st != 0 {
                return Err(format!("{} exited {st}", argv[0]));
            }
        }
        Ok(())
    }
}

impl Task for PkgPipeline {
    fn rss_after_ops(&self) -> u64 {
        500
    }

    fn prep(&self) -> Kernel {
        let mut k = fresh_kernel();
        let tarball = self.tarball.clone();
        k.net.register_remote(
            emacs_mirror_addr(),
            Box::new(move |req| {
                if req.starts_with(b"GET /emacs-24.tar") {
                    tarball.clone()
                } else {
                    b"404".to_vec()
                }
            }),
        );
        mkdir(&mut k, "/build");
        mkdir(&mut k, install_prefix());
        k
    }

    fn scripts(&self) -> &[(&'static str, &'static str)] {
        &[("package.cap", PACKAGE_CAP)]
    }

    fn ambient(&self) -> &str {
        &self.ambient
    }

    fn check(&self, rt: &mut ShillRuntime, result: EvalResult) -> Result<(), String> {
        let v = result.map_err(|e| format!("script failed: {e}"))?;
        let Value::List(items) = &v else {
            return Err(format!("script returned {}", v.display()));
        };
        let names = [
            "download",
            "untar",
            "configure",
            "make",
            "install",
            "uninstall",
        ];
        for (name, st) in names.iter().zip(items.iter()) {
            if !matches!(st, Value::Num(0)) {
                return Err(format!("{name} returned {}", st.display()));
            }
        }
        if !matches!(items.get(6), Some(Value::Bool(true))) {
            return Err(format!("{} missing after install", self.installed));
        }
        let k = rt.kernel();
        let node =
            k.fs.resolve_abs(TARBALL)
                .map_err(|e| format!("{TARBALL}: {e}"))?;
        let got =
            k.fs.read(node, 0, usize::MAX >> 1)
                .map_err(|e| e.to_string())?;
        if got != self.tarball {
            return Err(format!(
                "downloaded {} bytes differ from the mirror's {}",
                got.len(),
                self.tarball.len()
            ));
        }
        if k.fs.resolve_abs(&self.installed).is_ok() {
            return Err(format!("{} still present after uninstall", self.installed));
        }
        Ok(())
    }

    fn baseline(&self) -> Duration {
        let mut k = self.prep();
        let t0 = Instant::now();
        Self::baseline_steps(&mut k).expect("baseline pipeline");
        t0.elapsed()
    }
}
