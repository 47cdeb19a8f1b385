//! Host speed calibration.
//!
//! On a shared host a vCPU runs up to ~1.8x slower for stretches of
//! seconds while steal time stays flat: within one run find-fine tasks
//! flip between ~80 and ~145 ms, and a pure CPU loop timed between them
//! flips with the same ratio. A run's wall times then measure how much of
//! it fell into slow stretches more than they measure the program.
//!
//! The benchmark therefore times a fixed reference computation (std
//! collections and string formatting only, no SHILL code) between ops and
//! rescales each op's wall time by `REF_MS / reference time` around it.
//! The result reads as milliseconds on a CPU where the reference takes
//! `REF_MS`, which is about the quiet state of a 2-vCPU cloud host: on one
//! host, two versions of the program are compared at the same speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::{median, ms};

/// The reference computation's time on the calibration CPU, in ms.
pub const REF_MS: f64 = 0.65;
/// Repeats per reading; the fastest one is kept, so a single interrupt
/// does not read as a slow CPU.
const REPEATS: usize = 3;

/// One pass of the reference: ~2000 path strings formatted, kept in an
/// ordered map and scanned, as the simulated file system does with names.
fn reference() -> u64 {
    let mut map: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..2000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("/usr/src/dir{}/file{i}.c", x % 97);
        map.insert(key.clone(), key.into_bytes());
    }
    map.iter()
        .map(|(k, v)| v.windows(4).filter(|w| *w == b"file").count() as u64 + k.len() as u64)
        .sum()
}

/// The reference's time now, in ms (fastest of `REPEATS`).
pub fn reference_ms() -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(reference());
            ms(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// `d` in calibrated ms, reading the reference right after it.
pub fn scaled_ms(d: Duration) -> f64 {
    ms(d) * REF_MS / reference_ms()
}

/// Reference readings taken between ops over one phase. An op is scaled
/// by the mean of the readings just before and just after it started.
#[derive(Default)]
pub struct SpeedLog {
    marks: Vec<(Instant, f64)>,
}

impl SpeedLog {
    /// Read the reference now.
    pub fn mark(&mut self) {
        let r = reference_ms();
        self.marks.push((Instant::now(), r));
    }

    /// Read the reference if the last reading is `every` old or more.
    pub fn mark_if_due(&mut self, every: Duration) {
        if self
            .marks
            .last()
            .map_or(true, |(at, _)| at.elapsed() >= every)
        {
            self.mark();
        }
    }

    /// Median reading, in ms: how fast the host ran over the phase.
    pub fn median_ms(&self) -> f64 {
        median(&self.marks.iter().map(|(_, r)| *r).collect::<Vec<_>>())
    }

    /// Factor that turns a wall time of an op started at `at` into
    /// calibrated time.
    pub fn scale(&self, at: Instant) -> f64 {
        let i = self.marks.partition_point(|(t, _)| *t <= at);
        let around: Vec<f64> = self.marks[i.saturating_sub(1)..(i + 1).min(self.marks.len())]
            .iter()
            .map(|(_, r)| *r)
            .collect();
        assert!(!around.is_empty(), "speed log has no readings");
        REF_MS * around.len() as f64 / around.iter().sum::<f64>()
    }
}
