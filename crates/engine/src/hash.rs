//! Fast, allocation-free hashing: two hashers for two purposes.
//!
//! * [`FxHasher`] routes events to shards. The keyed-parallel executor
//!   hashes every event's grouping key to pick a shard, and the assignment
//!   must be a pure, stable function of the key — identical across runs,
//!   threads and platforms — so it is fixed-seeded. It is the FxHash
//!   multiply-rotate fold used by rustc's internal hash maps: one rotate,
//!   one xor and one multiply per word, folded in little-endian order.
//! * `KeyHash` indexes a window operator's per-key state. A lookup runs on
//!   every folded event, and the keys come from the input stream, so the
//!   hash is seeded once per operator from `std`'s [`RandomState`]: a key
//!   set that collides cannot be computed in advance. Each word is folded by a
//!   *folded multiply* — the 128-bit product of the state xor the word and
//!   a constant, its halves xored together, the construction of foldhash,
//!   hashbrown's default hasher — so every input bit reaches the low bits a
//!   hash table indexes by.
//!
//! `std`'s [`DefaultHasher`](std::collections::hash_map::DefaultHasher)
//! (SipHash-1-3) would serve the second purpose too, at about twice the
//! cost per lookup. Neither hasher here is meant to resist an attacker who
//! can observe hash values.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The multiply constant from FxHash (derived from the golden ratio,
/// `2^64 / φ`, forced odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Seed for shard routing. Any fixed value works; a non-zero seed avoids the
/// degenerate `hash(0) == 0` fixed point of the fold.
pub const SHARD_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seeded FxHash-style [`Hasher`]: `state = rotl5(state ^ word) * K` per
/// 64-bit word.
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A hasher seeded with [`SHARD_SEED`].
    pub fn new() -> FxHasher {
        FxHasher::with_seed(SHARD_SEED)
    }

    /// A hasher with an explicit seed (the initial fold state).
    pub fn with_seed(seed: u64) -> FxHasher {
        FxHasher { hash: seed }
    }

    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash ^ word).rotate_left(5).wrapping_mul(K);
    }
}

impl Default for FxHasher {
    fn default() -> Self {
        FxHasher::new()
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold full little-endian words, then the zero-padded tail. The tail
        // is folded together with its length so "ab" + "" != "a" + "b".
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(tail));
        }
        self.fold(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.fold(v as u64);
        self.fold((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.fold(v as u64);
    }
}

/// What [`KeyHasher`]'s multiplier is before the seed is xored in: the
/// first 64 bits of the fractional part of π, a constant with no structure.
const FOLD: u64 = 0x243f_6a88_85a3_08d3;

/// The 128-bit product of `x` and `y`, its high half xored into its low
/// half: every bit of either operand reaches every output bit.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Builds the [`KeyHasher`]s of one hash table, all from one seed — a
/// [`BuildHasher`] for `HashMap<Key, _, KeyHash>`. The seed is both the
/// starting state and part of the multiplier, as foldhash seeds both
/// operands of its folded multiply: without it, which keys collide is a
/// fixed function of the keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyHash {
    seed: u64,
}

impl KeyHash {
    /// A random seed, drawn from `std`'s [`RandomState`].
    pub(crate) fn new() -> KeyHash {
        KeyHash::with_seed(RandomState::new().build_hasher().finish())
    }

    /// A fixed seed, for reproducible tests.
    pub(crate) fn with_seed(seed: u64) -> KeyHash {
        KeyHash { seed }
    }
}

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    #[inline]
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher {
            hash: self.seed,
            fold: FOLD ^ self.seed,
        }
    }
}

/// A seeded folded-multiply [`Hasher`]: `state = folded_multiply(state ^
/// word, FOLD ^ seed)` per 64-bit word, starting from the seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyHasher {
    hash: u64,
    fold: u64,
}

impl KeyHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = folded_multiply(self.hash ^ word, self.fold);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // As `FxHasher::write`: whole words, the zero-padded tail, then the
        // length, so "ab" + "" != "a" + "b".
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(tail));
        }
        self.fold(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(f: impl Fn(&mut FxHasher)) -> u64 {
        let mut h = FxHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_for_equal_input() {
        let a = hash_of(|h| h.write(b"hello world"));
        let b = hash_of(|h| h.write(b"hello world"));
        assert_eq!(a, b);
    }

    #[test]
    fn sensitive_to_input_and_seed() {
        let a = hash_of(|h| h.write_u64(1));
        let b = hash_of(|h| h.write_u64(2));
        assert_ne!(a, b);
        let mut s = FxHasher::with_seed(123);
        s.write_u64(1);
        assert_ne!(a, s.finish());
    }

    #[test]
    fn byte_stream_framing_distinguishes_splits() {
        // Same bytes, different message boundaries, must differ (length fold).
        let a = hash_of(|h| {
            h.write(b"ab");
            h.write(b"");
        });
        let b = hash_of(|h| {
            h.write(b"a");
            h.write(b"b");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn long_inputs_use_every_word() {
        let mut bytes = [0u8; 32];
        let a = hash_of(|h| h.write(&bytes));
        bytes[31] = 1; // flip a bit in the last chunk
        let b = hash_of(|h| h.write(&bytes));
        assert_ne!(a, b);
    }

    #[test]
    fn key_hash_spreads_keys_that_differ_only_in_high_bits() {
        // `Int(k << 32)` hashes as the bits of its `f64`, whose low 32 bits
        // are all zero: an unmixed multiply keeps them zero, so a table
        // indexing by the low bits puts every key in one bucket.
        use crate::value::{hash_value, Value};
        const BUCKETS: u64 = 4_096;
        let bucket_max = |hash: &dyn Fn(&Value) -> u64| {
            let mut load = vec![0u32; BUCKETS as usize];
            for k in 0..BUCKETS as i64 {
                load[(hash(&Value::Int(k << 32)) % BUCKETS) as usize] += 1;
            }
            load.into_iter().max().unwrap_or(0)
        };
        let build = KeyHash::with_seed(0x5eed);
        let folded = bucket_max(&|v| {
            let mut h = build.build_hasher();
            hash_value(v, &mut h);
            h.finish()
        });
        assert!(
            folded <= 16,
            "fullest of {BUCKETS} buckets holds {folded} keys"
        );
        let unmixed = bucket_max(&|v| {
            let mut h = 0x5eed_u64;
            let mut word = |w: u64| h = (h ^ w).wrapping_mul(FOLD);
            word(2);
            word(v.as_f64().unwrap_or(0.0).to_bits());
            h
        });
        assert_eq!(unmixed, BUCKETS as u32);
    }

    #[test]
    fn key_hash_is_a_function_of_its_seed() {
        let hash = |build: &KeyHash, v: u64| {
            let mut h = build.build_hasher();
            h.write_u64(v);
            h.finish()
        };
        let (a, b) = (KeyHash::with_seed(1), KeyHash::with_seed(2));
        assert_eq!(hash(&a, 7), hash(&a, 7));
        assert_ne!(hash(&a, 7), hash(&b, 7));
        assert_ne!(hash(&a, 7), hash(&a, 8));
        // Random seeds differ from operator to operator.
        assert_ne!(hash(&KeyHash::new(), 7), hash(&KeyHash::new(), 7));
    }
}
