//! Sandbox audit log (paper §3.2.2, "Debugging").
//!
//! "The log records all of the capabilities and privileges granted during a
//! session in addition to all operations that were denied because of
//! insufficient privileges."

use std::collections::VecDeque;

use shill_cap::Priv;
use shill_kernel::{ObjId, Pid};
use shill_vfs::Errno;

use crate::session::SessionId;

/// Default capacity of the audit-log ring: events beyond this drop the
/// oldest entry and bump the drop counter instead of growing without
/// bound (a long-lived server with verbose logging on must not leak).
pub const DEFAULT_LOG_CAP: usize = 65536;

/// Environment knob overriding [`DEFAULT_LOG_CAP`]. Unset or unparsable
/// values silently fall back to the default (unlike `SHILL_TRACE`, a bad
/// log cap cannot make a red run green — it only changes retention).
pub const SHILL_LOG_CAP_ENV: &str = "SHILL_LOG_CAP";

fn log_cap_from_env() -> usize {
    std::env::var(SHILL_LOG_CAP_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_LOG_CAP)
        .max(1)
}

/// One audit event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEvent {
    /// A capability grant (explicit or via privilege propagation).
    Grant {
        session: SessionId,
        obj: ObjId,
        privs: String,
        /// `true` when the grant came from `post_lookup`/`post_create`
        /// propagation rather than an explicit `shill_grant`.
        propagated: bool,
    },
    /// An operation denied for insufficient privileges.
    Denied {
        session: SessionId,
        pid: Pid,
        obj: ObjId,
        needed: Priv,
    },
    /// Debug mode auto-granted a privilege that would have been denied.
    DebugAutoGrant {
        session: SessionId,
        pid: Pid,
        obj: ObjId,
        granted: Priv,
    },
    /// Session lifecycle markers.
    SessionCreated {
        session: SessionId,
        parent: Option<SessionId>,
    },
    SessionEntered {
        session: SessionId,
    },
    SessionReclaimed {
        session: SessionId,
        labels_scrubbed: usize,
    },
    /// An authority-shrinking event bumped the policy's cache epoch,
    /// invalidating the kernel's access-vector cache (`session` is the one
    /// whose enter/reclaim triggered it).
    CacheEpochBump {
        session: SessionId,
        epoch: u64,
    },
    /// One batched submission completed: a single span covering every
    /// entry, with per-entry outcomes (`None` = success). Denials inside
    /// the batch are additionally logged as individual [`LogEvent::Denied`]
    /// events, exactly as in sequential execution. Entries cancelled by
    /// dependency poisoning (an abort cone, or a missing slot-referenced
    /// input) never executed: they are counted as `cancelled`, not as
    /// failures, and `executed` counts only entries that actually ran.
    /// `waves` records the same split per dependency wave, in wave order —
    /// one wave for a flat batch, one per link for an `&&` chain — and is
    /// identical whether the batch ran in order or through the scheduler.
    BatchSpan {
        session: SessionId,
        pid: Pid,
        entries: usize,
        /// Entries that ran (successfully or not); `entries - cancelled`.
        executed: usize,
        /// Executed entries that failed with a real errno.
        failed: usize,
        /// Entries cancelled by dependency poisoning (`ECANCELED` slots).
        cancelled: usize,
        outcomes: Vec<Option<Errno>>,
        /// Per-wave `(executed, failed, cancelled)` split.
        waves: Vec<BatchWaveAudit>,
    },
}

/// The executed/failed/cancelled split of one dependency wave of a batch
/// span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchWaveAudit {
    pub executed: usize,
    pub failed: usize,
    pub cancelled: usize,
    /// Wall-clock duration of the wave in nanoseconds, recorded only when
    /// the kernel's tracing plane has the `wave` site armed (0
    /// otherwise). Timing is
    /// observability metadata: the differential oracle compares the
    /// executed/failed/cancelled split, never `wave_ns`.
    pub wave_ns: u64,
}

/// Bounded audit-event ring, viewable by privileged users. Capacity
/// defaults to [`DEFAULT_LOG_CAP`] (override via `SHILL_LOG_CAP`); when
/// full, the **oldest** event is dropped and [`SandboxLog::dropped`]
/// counts the loss, so a long-lived session degrades to "recent history"
/// rather than unbounded growth.
#[derive(Debug)]
pub struct SandboxLog {
    pub enabled: bool,
    cap: usize,
    events: VecDeque<LogEvent>,
    dropped: u64,
}

impl Default for SandboxLog {
    fn default() -> Self {
        SandboxLog::with_capacity(log_cap_from_env())
    }
}

impl SandboxLog {
    /// A ring holding at most `cap` events (clamped to at least 1).
    pub fn with_capacity(cap: usize) -> SandboxLog {
        SandboxLog {
            enabled: false,
            cap: cap.max(1),
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Re-bound the ring; excess oldest events are dropped (and counted)
    /// immediately.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        while self.events.len() > self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
    }

    /// The ring's current bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn push(&mut self, e: LogEvent) {
        if self.enabled {
            self.push_always(e);
        }
    }

    /// Denials and auto-grants are always recorded (they are the debugging
    /// signal), even when verbose grant logging is off.
    pub fn push_always(&mut self, e: LogEvent) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }

    pub fn events(&self) -> impl ExactSizeIterator<Item = &LogEvent> {
        self.events.iter()
    }

    /// Events currently retained (≤ the ring capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Oldest-event drops since the last [`SandboxLog::take_dropped`]
    /// (ring overflow only — `clear` does not count).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the drop counter (telemetry swap discipline: each loss is
    /// reported exactly once).
    pub fn take_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.dropped)
    }

    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Denied events for a particular session (debugging workflow: run in a
    /// sandbox, inspect what was missing).
    pub fn denials(&self, session: SessionId) -> Vec<&LogEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, LogEvent::Denied { session: s, .. } if *s == session))
            .collect()
    }

    /// Auto-grants for a session: the capabilities a debug run discovered
    /// were needed (§3.2.2: "a useful starting point for identifying
    /// necessary capabilities").
    pub fn auto_grants(&self, session: SessionId) -> Vec<&LogEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, LogEvent::DebugAutoGrant { session: s, .. } if *s == session))
            .collect()
    }

    /// Cache-epoch bumps recorded so far (verbose logging only): how often
    /// session lifecycle events invalidated the kernel's AVC.
    pub fn epoch_bumps(&self) -> Vec<&LogEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, LogEvent::CacheEpochBump { .. }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shill_vfs::NodeId;

    #[test]
    fn disabled_log_keeps_denials_only() {
        let mut log = SandboxLog::default();
        log.push(LogEvent::SessionEntered {
            session: SessionId(1),
        });
        assert!(log.is_empty());
        log.push_always(LogEvent::Denied {
            session: SessionId(1),
            pid: Pid(5),
            obj: ObjId::Vnode(NodeId(9)),
            needed: Priv::Read,
        });
        assert_eq!(log.len(), 1);
        assert_eq!(log.denials(SessionId(1)).len(), 1);
        assert!(log.denials(SessionId(2)).is_empty());
    }

    #[test]
    fn enabled_log_keeps_everything() {
        let mut log = SandboxLog {
            enabled: true,
            ..Default::default()
        };
        log.push(LogEvent::SessionCreated {
            session: SessionId(1),
            parent: None,
        });
        log.push(LogEvent::SessionEntered {
            session: SessionId(1),
        });
        assert_eq!(log.len(), 2);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut log = SandboxLog::with_capacity(2);
        log.enabled = true;
        for epoch in 0..5u64 {
            log.push(LogEvent::CacheEpochBump {
                session: SessionId(1),
                epoch,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        // The survivors are the newest two, in order.
        let epochs: Vec<u64> = log
            .events()
            .map(|e| match e {
                LogEvent::CacheEpochBump { epoch, .. } => *epoch,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(epochs, vec![3, 4]);
        assert_eq!(log.take_dropped(), 3);
        assert_eq!(log.take_dropped(), 0);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn env_cap_falls_back_silently() {
        // Whatever SHILL_LOG_CAP holds in this process, Default must
        // produce a usable ring with a positive capacity.
        let log = SandboxLog::default();
        assert!(log.cap >= 1);
        assert!(log.is_empty());
    }
}
