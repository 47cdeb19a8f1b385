//! Counters used by tests and the benchmark harness.
//!
//! Relaxed atomics, so read-path syscalls (which take `&self` on the
//! filesystem) can still count *and* sandbox sessions running on worker
//! threads can share one kernel without data races. Individual counters
//! are monotone; `snapshot` is not atomic across counters (fine for the
//! tests and reports that consume it, which quiesce the kernel first).
//!
//! The counter list is declared ONCE in the `kernel_stats!` invocation
//! below: the macro expands the atomic struct, the plain snapshot, and
//! `snapshot`/`reset`/`merged`/`fields` from the same list, so adding a
//! counter cannot silently skip reset, shard-merge, or the telemetry
//! exposition (previously three hand-maintained parallel lists).

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`KernelStats`] (atomics) and [`StatsSnapshot`] (plain
/// `u64`s) plus every derived accessor from one field list.
macro_rules! kernel_stats {
    ($( $(#[$meta:meta])* $name:ident, )+) => {
        /// Kernel-wide event counters.
        #[derive(Debug, Default)]
        pub struct KernelStats {
            $( $(#[$meta])* pub $name: AtomicU64, )+
        }

        /// Copyable snapshot of [`KernelStats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $( $(#[$meta])* pub $name: u64, )+
        }

        impl KernelStats {
            /// Plain-value snapshot for assertions and reports.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name.load(Ordering::Relaxed), )+
                }
            }

            /// Zero every counter.
            pub fn reset(&self) {
                $( self.$name.store(0, Ordering::Relaxed); )+
            }
        }

        impl StatsSnapshot {
            /// Field-wise sum of two snapshots: the aggregate view across
            /// kernel shards ([`crate::shard::KernelShards::stats`] folds
            /// per-shard snapshots with this).
            pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $( $name: self.$name + other.$name, )+
                }
            }

            /// Every counter as a `(name, value)` pair in declaration
            /// order — the telemetry text exposition iterates this, so a
            /// new counter shows up in exported metrics for free.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($name), self.$name), )+ ]
            }
        }
    };
}

kernel_stats! {
    /// Total system calls dispatched.
    syscalls,
    /// Per-component directory lookups performed by the path walker.
    lookups,
    /// Never bumped: the directory-entry cache it counted is gone. Kept
    /// (always 0) because perfbench still reads it.
    dcache_hits,
    /// Never bumped, like `dcache_hits`, and kept for the same reason.
    dcache_misses,
    /// Directory-entry scans performed by the path walker: one per
    /// component other than `.` and `..` that passes its DAC search and
    /// MAC `Lookup` checks.
    dir_scans,
    /// MAC vnode checks that *reached* policy modules (0 when no policy is
    /// registered; with the AVC on, far fewer than checks requested).
    mac_vnode_checks,
    /// MAC vnode decisions answered from the access-vector cache.
    avc_hits,
    /// MAC vnode decisions that missed the AVC and consulted policies.
    avc_misses,
    /// Wholesale AVC flushes that actually dropped live cached verdicts
    /// (policy attach/detach, cache toggles). A flush of an already-empty
    /// or disabled cache is not counted.
    avc_flushes,
    /// MAC socket/pipe/proc/system checks invoked.
    mac_other_checks,
    /// Executables run.
    execs,
    /// Processes forked.
    forks,
    /// Ulimit accounting operations: one per sequential syscall, one per
    /// submitted batch (the batch path's whole point is that this grows
    /// far slower than `syscalls`).
    charge_calls,
    /// MAC subject contexts constructed (credential snapshots). Batched
    /// submission builds one per batch and reuses it for every check.
    mac_ctx_setups,
    /// Batches submitted via [`crate::kernel::Kernel::submit_batch`] or
    /// stepped via [`crate::sched::ScheduledRun`].
    batches,
    /// Entries *executed* across all submitted batches. Entries cancelled
    /// by [`crate::batch::FailMode::Abort`] short-circuiting never run and
    /// are not counted.
    batch_entries,
    /// Dependency waves executed by the batch scheduler
    /// ([`crate::kernel::Kernel::submit_batch`] and the stepped per-wave
    /// path, [`crate::sched::ScheduledRun`]).
    sched_waves,
    /// Submission-order inversions performed by the scheduler: pairs where
    /// an entry completed before an earlier-submitted entry (the measure
    /// of real out-of-order execution).
    sched_reorders,
    /// Slot references resolved (`BatchFd::FromEntry` descriptors plus
    /// `BatchArg::OutputOf` data links) across all submission paths.
    slot_links,
    /// Entries cancelled by scheduler dependency poisoning (the abort/
    /// missing-input cone), booked as cancellations, not failures.
    sched_cancelled_cone,
    /// Contended policy stripe-lock acquisitions drained from registered
    /// MAC policies ([`crate::mac::MacPolicy::take_contention`]) at
    /// snapshot time. Zero when every stripe acquisition found its lock
    /// free — the healthy state for shard-affine traffic.
    policy_stripe_contention,
    /// Always 0: a batch job runs on the thread that submits it, so
    /// nothing is stolen and nothing books this. Kept only because the
    /// end-to-end benchmark (`perfbench/`) still reads it as `pool.steals`.
    pool_steals,
    /// Faults fired by the fault-injection plane ([`crate::fault`]):
    /// errno failures, short I/O, and injected panics. Drained from the
    /// plane at snapshot time like `policy_stripe_contention`.
    faults_injected,
    /// Injected faults that degraded cleanly: surfaced as an errno or a
    /// legal short op, or (for injected panics) were caught at a
    /// containment boundary. `faults_injected == faults_survived` is the
    /// machine-checkable "no panic escaped" invariant.
    faults_survived,
    /// Trace events overwritten because a shard's trace ring was full
    /// ([`crate::trace::TracePlane`]); drained from the plane at snapshot
    /// time. A nonzero value means the chrome timeline has a hole — raise
    /// `cap=` in `SHILL_TRACE`.
    trace_dropped,
    /// Audit-log events discarded because the sandbox log ring hit its
    /// capacity (`SHILL_LOG_CAP`); drained from registered policies
    /// ([`crate::mac::MacPolicy::take_log_dropped`]) at snapshot time.
    log_dropped,
}

impl KernelStats {
    /// Add one to a counter (relaxed).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to a counter (relaxed).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let s = KernelStats::default();
        KernelStats::bump(&s.syscalls);
        KernelStats::bump(&s.syscalls);
        KernelStats::bump(&s.lookups);
        KernelStats::add(&s.dir_scans, 3);
        let snap = s.snapshot();
        assert_eq!(snap.syscalls, 2);
        assert_eq!(snap.lookups, 1);
        assert_eq!(snap.dir_scans, 3);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn counters_are_shareable_across_threads() {
        let s = std::sync::Arc::new(KernelStats::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        KernelStats::bump(&s.syscalls);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().syscalls, 4000);
    }

    #[test]
    fn fields_cover_every_counter_once() {
        let s = KernelStats::default();
        KernelStats::bump(&s.trace_dropped);
        KernelStats::add(&s.log_dropped, 2);
        let fields = s.snapshot().fields();
        // One entry per declared counter, names unique, values wired.
        let names: std::collections::HashSet<_> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), fields.len());
        let get = |name: &str| fields.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("trace_dropped"), 1);
        assert_eq!(get("log_dropped"), 2);
        assert_eq!(get("syscalls"), 0);
        assert!(fields.len() >= 26);
    }

    #[test]
    fn merged_sums_new_counters_too() {
        let a = KernelStats::default();
        let b = KernelStats::default();
        KernelStats::bump(&a.log_dropped);
        KernelStats::add(&b.log_dropped, 4);
        KernelStats::bump(&b.trace_dropped);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.log_dropped, 5);
        assert_eq!(m.trace_dropped, 1);
    }
}
