//! The one integer hasher of the workspace.
//!
//! Every hot map on the host keys by a small integer the program computed
//! itself — a cache-line number, a block address, `addr >> shift`, a chunk
//! size, a size-class index. The default SipHash costs more than the rest
//! of such a lookup combined, and these keys need no DoS resistance: none
//! arrives from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for integer keys. One multiplication by the 64-bit
/// golden ratio leaves a product whose high bits depend on every bit of the
/// key; rotating it by 26 puts those under `hashbrown`'s bucket mask — so
/// consecutive keys, which is what the models' are, collide less often than
/// random ones would — and leaves bits 31–37 of the product, mixed from the
/// key's low 38 bits, as its 7-bit control tag. A key of several words folds
/// each into the state before the next.
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Any other key shape, eight bytes at a time (the last word
    /// zero-padded); nothing hot takes this path.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A `HashMap` hashed by [`IntHasher`]; build one with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn usize_u32_and_u64_keys_round_trip() {
        let mut by_usize: IntMap<usize, u64> = IntMap::default();
        let mut by_u32: IntMap<u32, u64> = IntMap::default();
        let mut by_u64: IntMap<u64, u64> = IntMap::default();
        for i in 0..1000u64 {
            by_usize.insert(i as usize, i);
            by_u32.insert(i as u32 * 16, i);
            by_u64.insert(i << 26, i);
        }
        for i in 0..1000u64 {
            assert_eq!(by_usize.get(&(i as usize)), Some(&i));
            assert_eq!(by_u32.remove(&(i as u32 * 16)), Some(i));
            assert_eq!(by_u64[&(i << 26)], i);
        }
        assert_eq!(
            (by_usize.len(), by_u32.len(), by_u64.len()),
            (1000, 0, 1000)
        );
        assert_eq!(by_u64.get(&1), None);
    }

    #[test]
    fn a_usize_key_hashes_like_the_u64_it_is() {
        let build = BuildHasherDefault::<IntHasher>::default();
        assert_eq!(build.hash_one(77usize), build.hash_one(77u64));
        assert_eq!(build.hash_one(77u32), build.hash_one(77u64));
        assert_ne!(build.hash_one((1u64, 2u64)), build.hash_one((2u64, 1u64)));
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
    }

    /// `hashbrown` indexes buckets by the low bits of a hash and tags a slot
    /// with its top seven. 10 000 keys of each shape the allocator models
    /// use must spread over both: a uniform hash leaves ~5 800 distinct
    /// values in 13 low bits and every one of the 128 tags; a degenerate
    /// multiplier or a dropped rotation leaves a fraction.
    #[test]
    fn the_models_key_shapes_spread_over_both_hashbrown_fields() {
        // A simulated heap starts at an arbitrary aligned base.
        const BASE: u64 = 0x2000_0000;
        type Shape = (&'static str, fn(u64) -> u64);
        let shapes: [Shape; 5] = [
            ("addr >> 14", |i| (BASE + (i << 14)) >> 14),
            ("addr >> 16", |i| (BASE + (i << 16)) >> 16),
            ("addr >> 26", |i| (BASE + (i << 26)) >> 26),
            ("chunk sizes", |i| 32 + 16 * i),
            ("class indices", |i| i),
        ];
        let build = BuildHasherDefault::<IntHasher>::default();
        for (shape, key) in shapes {
            let hashes: Vec<u64> = (0..10_000).map(|i| build.hash_one(key(i))).collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & 0x1fff).collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(buckets.len() >= 4500, "{shape}: {} buckets", buckets.len());
            assert_eq!(tags.len(), 128, "{shape}: control tags");
        }
    }
}
