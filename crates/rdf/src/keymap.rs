//! Hash maps keyed by [`Key`] for the data path.
//!
//! Every store lookup of the read path — base store, stream-index batch,
//! transient slice, scan memo — hashes one packed `u64` [`Key`]. The
//! standard library's default SipHash is built to resist chosen-key
//! collisions, which costs ~20 ns per probe; keys here are minted by the
//! string server, never taken verbatim from outside the program, so the
//! data path trades that protection for one multiplication.
//!
//! A `Key` is `vid << 18 | pid << 1 | dir`: *not* pre-mixed. hashbrown
//! indexes buckets with the hash's low bits and tags entries with its top
//! seven, so an identity or plain-multiply hash would leave the bucket
//! choice to `pid | dir` alone. [`KeyHasher`] folds the 128-bit product of
//! the key and an odd constant: the high half carries every key bit down
//! into the low bits, the low half carries them up into the tag.

use crate::id::Key;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, odd: the Fibonacci-hashing multiplier.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fold-multiply hasher for [`Key`]s (and other single-`u64` keys).
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write_u64(&mut self, k: u64) {
        let product = u128::from(k ^ self.0) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    /// `Key` derives `Hash` over its single `u64`, so the byte-wise entry
    /// point is never reached on the data path; it stays a correct (if
    /// slower) hasher should another key type be put in a [`KeyMap`].
    fn write(&mut self, bytes: &[u8]) {
        debug_assert!(false, "KeyHasher is for `Key`, which only hashes a u64");
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by [`Key`] using [`KeyHasher`].
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// A hash set of [`Key`]s using [`KeyHasher`].
pub type KeySet = HashSet<Key, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{Dir, Pid, Vid};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: Key) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(key)
    }

    /// 1 M keys shaped like an LSBench store: sequential vertex IDs, each
    /// with 8 predicates in both directions, plus the index-vertex keys.
    fn lsbench_shaped_keys() -> Vec<Key> {
        let mut keys = Vec::with_capacity(1_000_016);
        for pid in 1..=8 {
            for dir in [Dir::In, Dir::Out] {
                keys.push(Key::index(Pid(pid), dir));
            }
        }
        for vid in 1..=62_500 {
            for pid in 1..=8 {
                for dir in [Dir::In, Dir::Out] {
                    keys.push(Key::new(Vid(vid), Pid(pid), dir));
                }
            }
        }
        keys
    }

    /// Σ load² over `buckets` bins; a uniform random hash of `n` keys
    /// expects `n + n(n-1)/buckets`.
    fn sum_of_squared_loads(bins: impl Iterator<Item = usize>, buckets: usize) -> f64 {
        let mut load = vec![0u32; buckets];
        for b in bins {
            load[b] += 1;
        }
        load.iter().map(|&c| f64::from(c) * f64::from(c)).sum()
    }

    #[test]
    fn hashes_are_process_independent() {
        // Pinned values: no per-process or per-map seed may enter the
        // hash, or iteration order (and with it allocation counts) would
        // differ between two runs of one workload.
        assert_eq!(hash_of(Key::from_raw(0)), 0);
        assert_eq!(hash_of(Key::from_raw(1)), MULTIPLIER);
        let k = Key::new(Vid(123_456), Pid(42), Dir::Out);
        assert_eq!(hash_of(k), 0x4893_AB95_288B_3692);
    }

    #[test]
    fn low_bits_spread_lsbench_keys_over_buckets() {
        let keys = lsbench_shaped_keys();
        let n = keys.len() as f64;
        for bits in [16u32, 20] {
            let buckets = 1usize << bits;
            let got = sum_of_squared_loads(
                keys.iter().map(|&k| hash_of(k) as usize & (buckets - 1)),
                buckets,
            );
            let uniform = n + n * (n - 1.0) / buckets as f64;
            assert!(
                got <= 2.0 * uniform,
                "2^{bits} buckets: Σ load² {got} vs {uniform} for a uniform hash"
            );
        }
    }

    #[test]
    fn top_seven_bits_spread_lsbench_keys_over_tags() {
        let keys = lsbench_shaped_keys();
        let mut tags = [0usize; 128];
        for &k in &keys {
            tags[(hash_of(k) >> 57) as usize] += 1;
        }
        let mean = keys.len() / 128;
        for (tag, &count) in tags.iter().enumerate() {
            assert!(
                count <= 2 * mean && count >= mean / 2,
                "tag {tag} holds {count} keys, mean {mean}"
            );
        }
    }

    #[test]
    fn key_only_reaches_write_u64() {
        /// Panics on any entry point but `write_u64`.
        struct OnlyU64(u64);
        impl Hasher for OnlyU64 {
            fn write(&mut self, _: &[u8]) {
                panic!("Key hashed through the byte-wise entry point");
            }
            fn write_u64(&mut self, k: u64) {
                self.0 = k;
            }
            fn finish(&self) -> u64 {
                self.0
            }
        }
        let k = Key::new(Vid(7), Pid(3), Dir::In);
        let mut h = OnlyU64(0);
        k.hash(&mut h);
        assert_eq!(h.finish(), k.raw());
    }

    #[test]
    fn keymap_behaves_like_a_map() {
        let mut m: KeyMap<u32> = KeyMap::default();
        let mut s = KeySet::default();
        for (i, k) in lsbench_shaped_keys().into_iter().take(10_000).enumerate() {
            assert!(m.insert(k, i as u32).is_none());
            assert!(s.insert(k));
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m[&Key::index(Pid(1), Dir::In)], 0);
        assert!(!s.insert(Key::index(Pid(1), Dir::In)));
    }
}
