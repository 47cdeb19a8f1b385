//! Minimal `parking_lot`-style mutex over `std::sync::Mutex`.
//!
//! The build environment has no network access to crates.io, so the
//! caching subsystem's locks are a thin wrapper that recovers from
//! poisoning (a panicking test must not wedge every later check) and
//! returns the guard directly. Lives in the lowest crate of the workspace
//! so the kernel's AVC/batch state and the sandbox policy share one
//! primitive (`shill_sandbox::sync` re-exports it).

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard, TryLockError};

#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Non-blocking acquisition: `None` when the lock is held elsewhere.
    /// Contention instrumentation (e.g. the sandbox policy's stripe
    /// counters) probes with this before falling back to a blocking
    /// [`Mutex::lock`].
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consume the mutex, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Poison-recovering reader-writer lock over `std::sync::RwLock`, shaped
/// like the [`Mutex`] shim above. The sandbox policy's hot read paths
/// (warm privilege-propagation probes) take the read side so sessions
/// pinned to different kernel shards don't serialize on the policy state.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Non-blocking read acquisition: `None` when a writer holds the lock.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Non-blocking write acquisition: `None` when any guard is out.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consume the lock, recovering the value even if poisoned.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}
