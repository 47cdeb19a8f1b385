//! The hasher for tables keyed by ids the kernel or the policy allocates.
//!
//! Node ids, pids, descriptors, pipe and socket ids, object ids and
//! session ids are handed out by counters inside the program; no client
//! chooses one. So their tables need no defence against keys crafted to
//! collide, and the std hasher's SipHash is pure cost on every lookup.
//! [`IdHasher`] folds each key word in with one rotate, xor and multiply
//! by FxHash's odd constant. Multiplying by an odd number is a bijection
//! on the low bits, so sequential ids, and ids offset by a shard's stride
//! (a multiple of a large power of two), land in distinct buckets.
//!
//! Maps keyed by strings keep the std hasher: a path, a sysctl name or a
//! tenant can come from outside the kernel.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over kernel- or policy-allocated ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// FxHash's multiplier: odd, with its bits spread over the whole word.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One rotate-xor-multiply per key word. Not resistant to chosen keys:
/// use it only where the program allocates the keys (see the module doc).
#[derive(Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b.into());
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(t)
    }

    #[test]
    fn sequential_and_strided_ids_fill_distinct_buckets() {
        const BUCKETS: u64 = 1 << 12;
        for base in [0u64, 1 << 20, 3 << 32] {
            let mut seen = std::collections::HashSet::new();
            for i in 0..BUCKETS {
                assert!(seen.insert(hash_of(&(base + i)) & (BUCKETS - 1)));
            }
        }
    }

    #[test]
    fn map_round_trips_composite_keys() {
        let mut m: IdMap<(u32, u64), &str> = IdMap::default();
        m.insert((1, 2), "a");
        m.insert((2, 1), "b");
        assert_eq!(m[&(1, 2)], "a");
        assert_eq!(m[&(2, 1)], "b");
        assert_ne!(hash_of(&(1u32, 2u64)), hash_of(&(2u32, 1u64)));
    }
}
