//! Kernel sharding: N independent kernel instances behind per-shard locks,
//! with sessions pinned to shards and epoch-fenced cross-shard
//! invalidation through the shared MAC policy module.
//!
//! The kernel's hot state is thread-safe and a batch job can take the
//! kernel **per dependency wave** ([`KernelShards::run_job`]) — but with
//! one kernel, every wave of every session serializes on the ONE kernel
//! lock: at one shard, the ablation bench's `shard` group runs its worker
//! threads at ≈ 1.0× of one thread (`baselines/shard.json`). Sharding
//! removes that lock:
//!
//! * **[`KernelShards`]** owns `N` [`Kernel`]s, each behind its own lock.
//!   Every shard owns its *entire* hot state: process table, filesystem
//!   tree, AVC, pipe and socket tables, stats. Two sessions pinned to
//!   different shards share **no** kernel lock and no kernel data
//!   structure — their syscalls genuinely overlap on a multi-core box.
//! * **Sessions are pinned to a shard** at launch: the sandbox executor
//!   (`shill-sandbox`) runs the whole `fork`/`shill_init`/grant/
//!   `shill_enter` choreography against one shard's kernel, and every pid
//!   encodes its shard ([`KernelShards::shard_of`]) so later submissions
//!   route without a table lookup.
//! * **Id spaces are disjoint by construction.** Shards share one MAC
//!   policy module (the `ShillPolicy`), whose object labels are keyed by
//!   [`crate::types::ObjId`]; a process's label lives in its shard's
//!   process table. [`Kernel::new_shard`] therefore offsets every
//!   id allocator by the shard's stride ([`SHARD_PID_STRIDE`],
//!   [`SHARD_OBJ_STRIDE`]) so a grant on one shard's object can never alias
//!   another shard's.
//!
//! ## Cross-shard invalidation
//!
//! The only state shards share is the policy module itself, and its
//! invalidation channel is exactly the one PR 1 built: the policy's cache
//! epoch (an `AtomicU64` read without any lock) feeds every shard's
//! `combined_epoch`, so an authority-shrinking event performed while
//! holding *any* shard's lock — or no kernel lock at all — is observed by
//! *every* shard's AVC on its next probe. No cross-shard broadcast call
//! is needed: epochs are validated at probe time, which is what makes
//! shard-local waves safe to run concurrently with policy-state changes
//! driven from other shards. Namespace state needs no channel at all:
//! each shard walks its own tree, and a walk reads a directory's entries
//! directly.
//!
//! ## Rendezvous
//!
//! Operations that must be ordered against **every** shard's waves —
//! policy attach/detach, cache-mode toggles, aggregate stats reads, and
//! cross-shard batch jobs — pay an explicit rendezvous:
//! [`KernelShards::rendezvous`] (all shards) or [`KernelShards::fenced`]
//! (an explicit shard set) acquires the touched shard locks in **ascending
//! shard order** (the deadlock-freedom discipline; there is no other
//! multi-shard acquisition path) and runs the closure while all of them
//! are held. A fenced scheduler wave is therefore totally ordered with
//! respect to every wave of every touched shard. The price is exactly the
//! serialization sharding removes, which is why the scheduler classifies
//! waves shard-local (the overwhelming case: route straight to the pinned
//! shard's lock) vs cross-shard (rendezvous), and why
//! [`KernelShards::rendezvous_count`] is exposed for tests and benches to
//! prove the fast path stays fast.
//!
//! See `docs/concurrency.md` for the written specification (lock order,
//! pinning, epoch fencing, rendezvous protocol) these invariants are
//! tested against.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};

use shill_vfs::sync::Mutex;
use shill_vfs::{Errno, SysResult};

use crate::batch::{BatchOut, SyscallBatch};
use crate::hist::SiteHistsSnapshot;
use crate::kernel::Kernel;
use crate::mac::MacPolicy;
use crate::sched::ScheduledRun;
use crate::stats::{KernelStats, StatsSnapshot};
use crate::trace::{Telemetry, TracePlane, TraceScope, TraceSite};
use crate::types::Pid;

/// Pid-space stride between shards: shard `i` allocates pids from
/// `i * SHARD_PID_STRIDE + 2` upward (pid 1 is each shard's `init`).
/// `shard_of_pid` is a shift, not a table lookup.
pub const SHARD_PID_STRIDE: u32 = 1 << 20;

/// Object-id-space stride between shards: shard `i`'s vnode, pipe, and
/// socket ids start at `i * SHARD_OBJ_STRIDE`. Disjoint ranges keep the
/// shared policy module's labels from aliasing across shards.
pub const SHARD_OBJ_STRIDE: u64 = 1 << 32;

/// Hard cap on the shard count (the pid stride supports 4095; this is a
/// sanity bound far above any sensible configuration).
pub const MAX_SHARDS: usize = 1024;

/// Environment knob the stress suites and benches read to pick a shard
/// count (`SHILL_SHARDS=1,2,4` in CI).
pub const SHILL_SHARDS_ENV: &str = "SHILL_SHARDS";

/// The shard count requested via [`SHILL_SHARDS_ENV`], or `default` when
/// unset/unparsable. Clamped to `1..=MAX_SHARDS`.
pub fn shard_count_from_env(default: usize) -> usize {
    std::env::var(SHILL_SHARDS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(default)
        .clamp(1, MAX_SHARDS)
}

/// FNV-1a over (home, fence set): the mode-invariant key for `fence`
/// faults. Two jobs with the same home shard and fence declaration share
/// a verdict; the verdict never depends on which worker ran the wave or
/// in what order rendezvous were paid.
fn fence_fingerprint(home: usize, ordered: &[usize]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ ((home as u64 + 1).rotate_left(17));
    for &i in ordered {
        h ^= i as u64 + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct Inner {
    shards: Vec<Mutex<Kernel>>,
    /// Cross-shard fences paid so far ([`KernelShards::rendezvous`] and
    /// [`KernelShards::fenced`] acquisitions spanning >1 shard).
    rendezvous: AtomicU64,
}

/// `N` kernels behind per-shard locks. Cheaply cloneable (`Arc` inside);
/// clones address the same shards. The single-shard form is exactly the
/// PR 3 single-lock kernel and behaves identically.
///
/// # Examples
///
/// Pids encode their shard, so submissions route without a table lookup:
///
/// ```
/// use shill_kernel::KernelShards;
/// use shill_vfs::Cred;
///
/// let shards = KernelShards::new(2);
/// let pid = shards.with_shard(1, |k| k.spawn_user(Cred::ROOT));
/// assert_eq!(shards.shard_of(pid), 1);
/// // Shard-local crossings never touch another shard's lock:
/// shards.with_pid(pid, |k| assert_eq!(k.shard_index(), 1));
/// assert_eq!(shards.rendezvous_count(), 0);
/// ```
#[derive(Clone)]
pub struct KernelShards {
    inner: Arc<Inner>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KernelShards>();
};

impl KernelShards {
    /// Create `n` shards (at least one), each a fresh [`Kernel::new_shard`].
    pub fn new(n: usize) -> KernelShards {
        KernelShards::new_with(n, |_, _| {})
    }

    /// Create `n` shards and run `init` on each before any lock is shared
    /// (per-shard filesystem population, policy-free setup).
    pub fn new_with(n: usize, mut init: impl FnMut(&mut Kernel, usize)) -> KernelShards {
        let n = n.clamp(1, MAX_SHARDS);
        KernelShards {
            inner: Arc::new(Inner {
                shards: (0..n)
                    .map(|i| {
                        let mut k = Kernel::new_shard(i);
                        init(&mut k, i);
                        Mutex::new(k)
                    })
                    .collect(),
                rendezvous: AtomicU64::new(0),
            }),
        }
    }

    /// Wrap an existing kernel as a single shard (the single-lock kernel;
    /// the kernel keeps whatever state it already has).
    pub fn from_kernel(kernel: Kernel) -> KernelShards {
        KernelShards {
            inner: Arc::new(Inner {
                shards: vec![Mutex::new(kernel)],
                rendezvous: AtomicU64::new(0),
            }),
        }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard a pid is pinned to. Pids allocated by
    /// [`Kernel::new_shard`] encode their shard in the pid-stride bits;
    /// the modulo keeps foreign pids (a [`KernelShards::from_kernel`]
    /// wrap of an arbitrary kernel) on shard 0.
    pub fn shard_of(&self, pid: Pid) -> usize {
        (pid.0 / SHARD_PID_STRIDE) as usize % self.count()
    }

    /// Lock one shard directly (multi-step setup/teardown choreography).
    pub fn lock_shard(&self, shard: usize) -> MutexGuard<'_, Kernel> {
        self.inner.shards[shard].lock()
    }

    /// Run one kernel crossing under `shard`'s lock.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut self.inner.shards[shard].lock())
    }

    /// Run one kernel crossing under the lock of the shard `pid` is pinned
    /// to (the shard-local fast path — no other shard is touched).
    pub fn with_pid<R>(&self, pid: Pid, f: impl FnOnce(&mut Kernel) -> R) -> R {
        self.with_shard(self.shard_of(pid), f)
    }

    /// The rendezvous: acquire **every** shard's lock in ascending order
    /// and run `f` with all of them held. Use for operations whose effects
    /// must be ordered against every shard's waves (policy attach, cache
    /// toggles, aggregate reads). This is the serialization sharding
    /// exists to avoid — keep it off hot paths.
    pub fn rendezvous<R>(&self, f: impl FnOnce(&mut [&mut Kernel]) -> R) -> R {
        if self.count() > 1 {
            self.inner.rendezvous.fetch_add(1, Ordering::Relaxed);
        }
        let mut guards: Vec<MutexGuard<'_, Kernel>> =
            self.inner.shards.iter().map(|m| m.lock()).collect();
        let mut refs: Vec<&mut Kernel> = guards.iter_mut().map(|g| &mut **g).collect();
        f(&mut refs)
    }

    /// Normalize a fence declaration into the ascending, deduped lock set
    /// (always containing `home`) that [`KernelShards::fenced_ordered`]
    /// consumes.
    ///
    /// # Panics
    ///
    /// If `home` or any fence entry is out of range (see
    /// [`KernelShards::fenced`]).
    fn fence_set(&self, home: usize, fence: &[usize]) -> Vec<usize> {
        assert!(
            home < self.count(),
            "home shard {home} out of range (count {})",
            self.count()
        );
        for &i in fence {
            assert!(
                i < self.count(),
                "fence shard {i} out of range (count {})",
                self.count()
            );
        }
        let mut set: Vec<usize> = fence.iter().copied().chain([home]).collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// A partial rendezvous: acquire the locks of `home` plus every shard
    /// in `fence` (ascending order, duplicates ignored) and run `f` on
    /// `home`'s kernel while all of them are held. A scheduler wave run
    /// under this fence is totally ordered against every wave of every
    /// touched shard — this is what a cross-shard batch job pays per wave.
    ///
    /// # Panics
    ///
    /// If `home` or any fence entry is out of range (the same contract as
    /// [`KernelShards::lock_shard`]). Silently dropping an out-of-range
    /// fence entry would quietly run the job *unfenced* — losing exactly
    /// the cross-shard ordering guarantee the fence was declared for,
    /// with no error and no `rendezvous_count` signal.
    pub fn fenced<R>(&self, home: usize, fence: &[usize], f: impl FnOnce(&mut Kernel) -> R) -> R {
        self.fenced_ordered(home, &self.fence_set(home, fence), f)
    }

    /// [`KernelShards::fenced`] over a pre-normalized lock set (from
    /// [`KernelShards::fence_set`]): no per-call sort or allocation, so a
    /// job fencing every wave pays the normalization once. An empty set
    /// is the shard-local case: `home`'s lock alone.
    ///
    /// # Panics
    ///
    /// If a non-empty `ordered` is not an ascending, deduped, in-range set
    /// containing `home` (debug-asserted; the home lookup fails hard
    /// either way).
    fn fenced_ordered<R>(
        &self,
        home: usize,
        ordered: &[usize],
        f: impl FnOnce(&mut Kernel) -> R,
    ) -> R {
        if ordered.is_empty() {
            return self.with_shard(home, f);
        }
        debug_assert!(ordered.windows(2).all(|w| w[0] < w[1]), "set not ascending");
        debug_assert!(ordered.iter().all(|&i| i < self.count()), "out of range");
        let home_at = ordered
            .iter()
            .position(|&i| i == home)
            .expect("fence set must contain the home shard");
        if ordered.len() > 1 {
            self.inner.rendezvous.fetch_add(1, Ordering::Relaxed);
        }
        let mut guards: Vec<MutexGuard<'_, Kernel>> = Vec::with_capacity(ordered.len());
        for &i in ordered {
            guards.push(self.inner.shards[i].lock());
        }
        if ordered.len() > 1 {
            // Mid-rendezvous fault injection: every fence lock is held at
            // this point, so a firing models a shard dying with the
            // cross-shard locks acquired. The key is the (home, fence-set)
            // fingerprint — a property of the job's fence declaration, not
            // of wave order or worker identity — so one schedule kills the
            // same rendezvous in every execution mode. Unwinding drops the
            // guards (the sync shim never poisons): no lock is left held,
            // which the no-escape regression pins down.
            if let Some(plane) = guards[home_at].fault_plane() {
                plane.maybe_panic_at(
                    crate::fault::FaultSite::Fence,
                    fence_fingerprint(home, ordered),
                );
            }
        }
        f(&mut guards[home_at])
    }

    /// Run one scheduled batch for `pid` on the calling thread, wave by
    /// wave, returning its slot-ordered results (the
    /// [`Kernel::submit_batch`] shape). DAG validation
    /// ([`ScheduledRun::prepare`]) and moving the results out run outside
    /// any kernel lock; each wave, and the audit, takes the lock of the
    /// shard `pid` is pinned to and releases it before the next, so
    /// concurrent jobs of other sessions interleave with this one wave
    /// for wave. An empty `fence` is the shard-local case. A non-empty
    /// `fence` names extra shards every wave must be ordered against:
    /// each wave then pays a [`KernelShards::fenced`] rendezvous.
    ///
    /// The `Err` is the submission-level failure: a malformed DAG, a dead
    /// process, or a contained panic. A panic inside the job — a
    /// panicking policy module, an injected fault, an out-of-range fence
    /// entry — costs this job only: it returns `EINVAL`, any batch state
    /// left installed on the home shard is cleared so the shard keeps
    /// serving, the dead wave is booked in `sched_cancelled_cone`, and an
    /// armed fault plane books the panic as survived.
    pub fn run_job(
        &self,
        pid: Pid,
        batch: SyscallBatch,
        fence: &[usize],
    ) -> SysResult<Vec<SysResult<BatchOut>>> {
        let home = self.shard_of(pid);
        match catch_unwind(AssertUnwindSafe(|| self.run_waves(home, pid, batch, fence))) {
            Ok(out) => out,
            Err(_) => {
                // The unwind released every shard lock (the sync shim
                // never poisons), so the home shard is free to book the
                // containment.
                self.with_shard(home, |k| {
                    k.abort_stale_batch();
                    KernelStats::bump(&k.stats.sched_cancelled_cone);
                    if let Some(plane) = k.fault_plane() {
                        plane.book_survived();
                    }
                });
                Err(Errno::EINVAL)
            }
        }
    }

    fn run_waves(
        &self,
        home: usize,
        pid: Pid,
        batch: SyscallBatch,
        fence: &[usize],
    ) -> SysResult<Vec<SysResult<BatchOut>>> {
        // Normalize the fence once; every wave then acquires the
        // pre-ordered set without sorting or allocating.
        let set = if fence.is_empty() {
            Vec::new()
        } else {
            self.fence_set(home, fence)
        };
        let entries = batch.entries.len() as u64;
        let mut run = ScheduledRun::prepare(pid, batch)?;
        // The stepped form never passes through `submit_batch`, so the
        // batch-site span opens here: it covers the whole job, across
        // every wave and the lock releases between them, and ends before
        // the audit.
        let mut span: Option<TraceScope> = None;
        let mut more = true;
        while more {
            more = self.fenced_ordered(home, &set, |k| {
                if span.is_none() {
                    span = k
                        .trace_plane_handle()
                        .and_then(|p| p.span(TraceSite::Batch, pid.0 as u64, entries));
                }
                k.sched_run_wave(&mut run)
            })?;
        }
        drop(span);
        self.fenced_ordered(home, &set, |k| k.sched_audit(&run))?;
        Ok(run.into_results())
    }

    /// Multi-shard lock acquisitions paid so far (tests and benches assert
    /// the shard-local fast path stays rendezvous-free).
    pub fn rendezvous_count(&self) -> u64 {
        self.inner.rendezvous.load(Ordering::Relaxed)
    }

    /// Attach one policy module to every shard, under a rendezvous: no
    /// shard may run a wave between "policy live on shard A" and "policy
    /// live on shard B". Each shard flushes its own AVC on attach, exactly
    /// as [`Kernel::register_policy`] does standalone.
    pub fn register_policy(&self, policy: Arc<dyn MacPolicy>) {
        self.rendezvous(|shards| {
            for k in shards {
                k.register_policy(Arc::clone(&policy));
            }
        });
    }

    /// Install one fault schedule on every shard, under a rendezvous so
    /// no wave runs with half the shards armed. Each shard gets its own
    /// plane parsed from the same spec — per-shard hit counters keep
    /// nth-hit entries deterministic per shard, while the shared seed and
    /// shard-relative keying make hash-rate firing agree across shards.
    /// Pass `None` to disarm.
    ///
    /// # Panics
    ///
    /// On a malformed spec (same contract as [`crate::fault::FaultPlane::parse`]
    /// via `SHILL_FAULTS`: a schedule that silently fails to arm would
    /// make a red run green).
    pub fn set_fault_plane(&self, spec: Option<&str>) {
        self.rendezvous(|shards| {
            for k in shards {
                let plane = spec
                    .map(|s| crate::fault::FaultPlane::parse(s).expect("malformed fault schedule"));
                k.set_fault_plane(plane);
            }
        });
    }

    /// Install a tracing plane on every shard, under a rendezvous so no
    /// wave runs with half the shards instrumented. Each shard gets its
    /// own plane parsed from the same spec (per-shard rings keep the hot
    /// path lock-shard-local); [`Kernel::set_trace_plane`] stamps the
    /// shard id into each plane so merged event streams stay
    /// attributable. Pass `None` to disarm.
    ///
    /// # Panics
    ///
    /// On a malformed spec (same contract as [`crate::trace::TracePlane::parse`]
    /// via `SHILL_TRACE`).
    pub fn set_trace_plane(&self, spec: Option<&str>) {
        self.rendezvous(|shards| {
            for k in shards {
                let plane = spec
                    .map(|s| Arc::new(TracePlane::parse(s).expect("malformed SHILL_TRACE spec")));
                k.set_trace_plane(plane);
            }
        });
    }

    /// Aggregate stats snapshot across all shards, under a rendezvous so
    /// no wave is mid-flight while counters are read. Uses the draining
    /// form ([`Kernel::stats_snapshot`]) so policy-side contention counters
    /// land in `policy_stripe_contention` exactly once even though one
    /// policy module is attached to every shard.
    pub fn stats(&self) -> StatsSnapshot {
        self.rendezvous(|shards| {
            shards
                .iter()
                .map(|k| k.stats_snapshot())
                .fold(StatsSnapshot::default(), |acc, s| acc.merged(&s))
        })
    }

    /// Aggregate telemetry snapshot across all shards, under one
    /// rendezvous: merged (draining) stats, field-wise merged latency
    /// histograms, and the concatenation of every shard's drained trace
    /// ring (shard attribution lives inside each event). Shards without
    /// an armed plane contribute empty histograms and no events.
    pub fn telemetry(&self) -> Telemetry {
        self.rendezvous(|shards| {
            let mut stats = StatsSnapshot::default();
            let mut hists: Vec<SiteHistsSnapshot> = Vec::with_capacity(shards.len());
            let mut events = Vec::new();
            for k in shards.iter_mut() {
                let t = k.telemetry();
                stats = stats.merged(&t.stats);
                hists.push(t.hists);
                events.extend(t.events);
            }
            events.sort_by_key(|e| e.ts_ns);
            Telemetry {
                stats,
                hists: SiteHistsSnapshot::merged(&hists),
                events,
            }
        })
    }

    /// Recover the kernels once every clone is gone (`None` while other
    /// handles are alive). Shard order is preserved.
    pub fn try_into_kernels(self) -> Option<Vec<Kernel>> {
        Arc::try_unwrap(self.inner)
            .ok()
            .map(|inner| inner.shards.into_iter().map(|m| m.into_inner()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchEntry, SyscallBatch};
    use crate::types::ObjId;
    use shill_vfs::{Cred, Gid, Mode, Uid};

    #[test]
    fn shard_id_spaces_are_disjoint() {
        let shards = KernelShards::new(3);
        let mut pids = Vec::new();
        let mut roots = Vec::new();
        let mut nodes = Vec::new();
        for i in 0..3 {
            shards.with_shard(i, |k| {
                assert_eq!(k.shard_index(), i);
                pids.push(k.spawn_user(Cred::user(100)));
                roots.push(k.fs.root());
                k.fs.put_file("/data.txt", b"x", Mode(0o644), Uid::ROOT, Gid::WHEEL)
                    .unwrap();
                nodes.push(k.fs.resolve_abs("/data.txt").unwrap());
            });
        }
        for a in 0..3 {
            for b in 0..3 {
                if a == b {
                    continue;
                }
                assert_ne!(pids[a], pids[b], "pid spaces must not alias");
                assert_ne!(roots[a], roots[b], "root vnodes must not alias");
                assert_ne!(nodes[a], nodes[b], "vnode ids must not alias");
            }
        }
        // Pins route back to the allocating shard.
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(shards.shard_of(pid), i);
        }
    }

    #[test]
    fn pipe_and_socket_ids_are_disjoint_across_shards() {
        let shards = KernelShards::new(2);
        let mut pipe_objs = Vec::new();
        for i in 0..2 {
            shards.with_shard(i, |k| {
                let pid = k.spawn_user(Cred::user(100));
                let (r, _w) = k.pipe(pid).unwrap();
                pipe_objs.push(k.fd_object(pid, r).unwrap());
            });
        }
        assert_ne!(
            format!("{:?}", pipe_objs[0]),
            format!("{:?}", pipe_objs[1]),
            "pipe ids must not alias across shards"
        );
    }

    #[test]
    fn new_shard_zero_matches_new() {
        let a = Kernel::new();
        let b = Kernel::new_shard(0);
        assert_eq!(a.fs.root(), b.fs.root());
        assert_eq!(a.shard_index(), b.shard_index());
        assert!(b.fs.resolve_abs("/dev/null").is_ok());
    }

    #[test]
    fn rendezvous_counts_only_multi_shard_acquisitions() {
        let shards = KernelShards::new(2);
        shards.with_shard(0, |_| {});
        shards.with_shard(1, |_| {});
        assert_eq!(shards.rendezvous_count(), 0, "shard-local path is free");
        shards.rendezvous(|ks| assert_eq!(ks.len(), 2));
        assert_eq!(shards.rendezvous_count(), 1);
        shards.fenced(0, &[1], |_| {});
        assert_eq!(shards.rendezvous_count(), 2);
        shards.fenced(0, &[0], |_| {});
        assert_eq!(shards.rendezvous_count(), 2, "degenerate fence is local");

        let single = KernelShards::new(1);
        single.rendezvous(|_| {});
        assert_eq!(single.rendezvous_count(), 0, "one shard never pays a fence");
    }

    #[test]
    fn policy_attach_reaches_every_shard() {
        let shards = KernelShards::new(2);
        shards.register_policy(Arc::new(crate::mac::NullPolicy));
        for i in 0..2 {
            assert!(shards.with_shard(i, |k| k.has_policy("null")));
        }
        shards.rendezvous(|ks| ks.iter_mut().for_each(|k| k.set_avc_enabled(false)));
        for i in 0..2 {
            assert!(!shards.with_shard(i, |k| k.avc_enabled()));
        }
    }

    #[test]
    fn scheduled_submission_routes_to_the_pinned_shard() {
        let shards = KernelShards::new_with(2, |k, i| {
            k.fs.put_file(
                &format!("/s{i}.txt"),
                format!("shard-{i}").as_bytes(),
                Mode(0o644),
                Uid::ROOT,
                Gid::WHEEL,
            )
            .unwrap();
        });
        let pid1 = shards.with_shard(1, |k| k.spawn_user(Cred::ROOT));
        let read = |path: &str| {
            let batch = SyscallBatch::single(BatchEntry::ReadFile {
                dirfd: None,
                path: path.into(),
            });
            shards.with_pid(pid1, |k| k.submit_batch(pid1, &batch))
        };
        let out = read("/s1.txt").unwrap();
        assert_eq!(
            out[0],
            Ok(crate::batch::BatchOut::Data(b"shard-1".to_vec()))
        );
        // The other shard's namespace is genuinely elsewhere.
        let miss = read("/s0.txt");
        assert_eq!(miss.unwrap()[0], Err(shill_vfs::Errno::ENOENT));
        assert_eq!(shards.stats().batches, 2);
    }

    #[test]
    fn shared_policy_labels_never_alias_across_shards() {
        // The reason the id strides exist: one policy, two shards, a label
        // on shard 0's node must not leak authority to shard 1's namesake.
        let shards = KernelShards::new(2);
        let n0 = shards.with_shard(0, |k| {
            k.fs.put_file("/f", b"0", Mode(0o644), Uid::ROOT, Gid::WHEEL)
                .unwrap();
            k.fs.resolve_abs("/f").unwrap()
        });
        let n1 = shards.with_shard(1, |k| {
            k.fs.put_file("/f", b"1", Mode(0o644), Uid::ROOT, Gid::WHEEL)
                .unwrap();
            k.fs.resolve_abs("/f").unwrap()
        });
        assert_ne!(ObjId::Vnode(n0), ObjId::Vnode(n1));
    }

    #[test]
    fn try_into_kernels_requires_sole_ownership() {
        let shards = KernelShards::new(2);
        let clone = shards.clone();
        assert!(clone.try_into_kernels().is_none());
        let kernels = shards.try_into_kernels().expect("sole owner");
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[1].shard_index(), 1);
    }

    #[test]
    fn fence_fault_fires_mid_rendezvous_and_leaves_no_lock_held() {
        let shards = KernelShards::new(2);
        shards.set_fault_plane(Some("fence@1=panic"));
        // The fence site consults the HOME shard's plane with all fence
        // locks held; the explicit first-hit entry fires on the first
        // multi-shard acquisition.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shards.fenced(0, &[1], |_| {})
        }));
        assert!(r.is_err(), "armed fence site must panic mid-rendezvous");
        // No lock left held: every shard lock is immediately reacquirable,
        // including a full rendezvous over all of them.
        shards.with_shard(0, |_| {});
        shards.with_shard(1, |_| {});
        shards.rendezvous(|ks| assert_eq!(ks.len(), 2));
        // Containment bookkeeping is the catcher's job; book it here the
        // way `run_job` does, then check the accounting balances.
        shards.with_shard(0, |k| k.fault_plane().unwrap().book_survived());
        let stats = shards.stats();
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.faults_survived, 1);
        // A degenerate (single-shard) fence never consults the site.
        shards.set_fault_plane(Some("fence@1=panic"));
        shards.fenced(1, &[1], |_| {});
        // And a disarmed plane never fires.
        shards.set_fault_plane(None);
        shards.fenced(0, &[1], |_| {});
    }

    #[test]
    fn fence_fingerprint_is_mode_invariant_and_set_dependent() {
        let a = fence_fingerprint(0, &[0, 1]);
        assert_eq!(a, fence_fingerprint(0, &[0, 1]), "pure function of inputs");
        assert_ne!(a, fence_fingerprint(1, &[0, 1]), "home matters");
        assert_ne!(a, fence_fingerprint(0, &[0, 1, 2]), "fence set matters");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fenced_rejects_an_out_of_range_home() {
        let shards = KernelShards::new(2);
        shards.fenced(5, &[0], |_| {});
    }

    #[test]
    #[should_panic(expected = "fence shard 3 out of range")]
    fn fenced_rejects_out_of_range_fence_entries_rather_than_unfencing() {
        // Silently dropping the entry would run the job unfenced — losing
        // the cross-shard ordering the caller declared the fence for.
        let shards = KernelShards::new(2);
        shards.fenced(0, &[3], |_| {});
    }

    #[test]
    #[should_panic(expected = "MAX_SHARDS")]
    fn new_shard_rejects_indices_beyond_the_stride() {
        let _ = Kernel::new_shard(MAX_SHARDS);
    }

    #[test]
    fn env_knob_parses_and_clamps() {
        // Not set in the test environment by default.
        if std::env::var(SHILL_SHARDS_ENV).is_err() {
            assert_eq!(shard_count_from_env(2), 2);
        }
        assert!(shard_count_from_env(0) >= 1);
    }
}
