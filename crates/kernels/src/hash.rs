//! The one hasher of the engine's per-row hash tables: join indexes,
//! join partitions and aggregation group maps.
//!
//! [`WordState`] hashes a key one 8-byte word at a time with a folded
//! multiply: `state = lo ^ hi` of the 128-bit product
//! `(state ^ word) · K`. Integer keys are one word; strings are their
//! bytes in 8-byte words (the last one zero-padded, its length in the
//! top byte). The high half of the product depends on every input bit,
//! so folding it onto the low half gives every output bit, and in
//! particular the low bits the table picks buckets by, a dependence on
//! the whole key. A multiplicative hash of this kind is enough for join
//! and aggregation tables (Richter, Alvarez and Dittrich, PVLDB 2015)
//! and costs one multiply per word, where `std`'s SipHash-1-3 spends
//! several rounds.
//!
//! [`crate::map::hash_i64`] is not this hasher and must not become it:
//! `k · C mod 2^64` keeps the zero low bits of a key that is a multiple
//! of `2^j`, and `std`'s `HashMap` (hashbrown) picks the bucket from the
//! hash's low bits, so keys such as `k · 2^32` would share one bucket.
//! `hash_i64` stays what the DSL's `hash` op, the Bloom positions and the
//! grace-hash partition windows (which read its well-mixed *high* bits)
//! compute.
//!
//! The seed is drawn once per process from
//! [`std::collections::hash_map::RandomState`], so
//! `WordState::default()` is one load, and iteration order differs
//! between processes as it does for `std`'s default; no result may
//! depend on it.
//!
//! **Not DoS-hardened.** A caller that can choose keys with knowledge of
//! the construction can force collisions. The tables that use it hash the
//! engine's own columns; keep `std`'s default hasher for keys that
//! arrive from outside the program.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Odd 64-bit multiplier of the folded multiply.
const K: u64 = 0xa076_1d64_78bd_642f;

/// A `HashMap` keyed through [`WordState`].
pub type WordMap<Key, V> = HashMap<Key, V, WordState>;

/// The [`BuildHasher`] of the engine's per-row hash tables (see the
/// module docs).
#[derive(Debug, Clone, Copy)]
pub struct WordState {
    seed: u64,
}

impl Default for WordState {
    #[inline]
    fn default() -> WordState {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64));
        WordState { seed }
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher { state: self.seed }
    }
}

/// The streaming hasher [`WordState`] builds.
#[derive(Debug, Clone)]
pub struct WordHasher {
    state: u64,
}

#[inline(always)]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 8];
            padded[..tail.len()].copy_from_slice(tail);
            padded[7] = tail.len() as u8;
            self.write_u64(u64::from_le_bytes(padded));
        }
    }

    /// `str`'s `Hash` ends every string with `write_u8(0xff)`: one word.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::hash_str;
    use std::collections::HashSet;

    /// Distinct values of the bucket bits (low 16) and the tag bits
    /// (top 7) that `keys` hash to.
    fn spread(keys: &[i64]) -> (usize, usize) {
        let state = WordState::default();
        let hashes: Vec<u64> = keys.iter().map(|k| state.hash_one(k)).collect();
        let low: HashSet<u64> = hashes.iter().map(|h| h & 0xffff).collect();
        let top: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        (low.len(), top.len())
    }

    /// The key families that defeat a low-bit-preserving hash:
    /// consecutive, `2^12`- and `2^32`-strided, negative, near the `i64`
    /// extremes, and the FNV words the Utf8 index is keyed by.
    fn structured_families() -> Vec<(&'static str, Vec<i64>)> {
        let n = 4096i64;
        vec![
            ("0..n", (0..n).collect()),
            ("k*2^12", (0..n).map(|k| k << 12).collect()),
            ("k*2^32", (0..n).map(|k| k << 32).collect()),
            ("negatives", (1..=n).map(|k| -k).collect()),
            (
                "extremes",
                (0..n / 2)
                    .flat_map(|k| [i64::MIN + k, i64::MAX - k])
                    .collect(),
            ),
            (
                "hash_str(BRAND#k)",
                (0..n).map(|k| hash_str(&format!("BRAND#{k}"))).collect(),
            ),
        ]
    }

    #[test]
    fn structured_keys_spread_over_buckets_and_tags() {
        for (family, keys) in structured_families() {
            let (low, top) = spread(&keys);
            // 4096 keys into 65 536 low-bit values: a uniform hash leaves
            // ≈ 3 970 distinct; the 128 tag values all appear.
            assert!(low >= 3_500, "{family}: {low} distinct low-16 values");
            assert!(top >= 120, "{family}: {top} distinct top-7 values");
        }
    }

    #[test]
    fn strings_hash_by_content_and_length() {
        let state = WordState::default();
        let h = |s: &str| state.hash_one(s);
        assert_eq!(h("BRAND#12"), h(&String::from("BRAND#12")));
        assert_ne!(h("ab"), h("ab\0"));
        assert_ne!(h(""), h("\0"));
        assert_ne!(h("abcdefgh"), h("abcdefgh\0"));
        let brands: HashSet<u64> = (0..1000).map(|k| h(&format!("Brand#{k}"))).collect();
        assert_eq!(brands.len(), 1000);
    }
}
