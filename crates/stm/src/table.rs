//! Generation-stamped open-addressing tables for transaction descriptors.
//!
//! A transaction's write map and lock set are cleared on every `begin`,
//! thousands of times per second of simulated work. `HashMap::clear` walks
//! and drops every bucket, so with std collections `begin` is O(footprint
//! of the previous transaction). These tables instead stamp each slot with
//! the generation that wrote it: `clear` just increments the generation
//! counter, making `begin` O(1) regardless of how big the last transaction
//! was, while lookups stay one multiply + masked linear probe over flat
//! arrays (no per-entry boxing, no SipHash).
//!
//! The tables support exactly what the descriptors need — insert, lookup
//! and O(1) clear; deletion is unnecessary because entries only ever
//! accumulate within one transaction.

/// Open-addressed `u64 → u32` map with O(1) wholesale clearing.
pub(crate) struct GenTable {
    keys: Vec<u64>,
    vals: Vec<u32>,
    /// Slot is live iff `gens[i] == gen`.
    gens: Vec<u32>,
    gen: u32,
    mask: usize,
    len: usize,
}

#[inline]
fn hash(key: u64) -> usize {
    // Fibonacci multiply; high bits have the best diffusion.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize
}

impl GenTable {
    /// Capacity is rounded up to a power of two and kept under 50% load.
    pub(crate) fn new() -> Self {
        let cap = 128;
        GenTable {
            keys: vec![0; cap],
            vals: vec![0; cap],
            gens: vec![0; cap],
            gen: 1,
            mask: cap - 1,
            len: 0,
        }
    }

    /// Forget every entry. O(1): live slots are identified by generation.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation wrapped (once per ~4 billion transactions):
                // reset all stamps so stale slots cannot alias as live.
                self.gens.fill(0);
                1
            }
        };
    }

    /// Value stored under `key` in the current generation, if any.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        let mut i = hash(key) & self.mask;
        loop {
            if self.gens[i] != self.gen {
                return None;
            }
            if self.keys[i] == key {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Whether `key` is present (set-style use with ignored values).
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key → val`, overwriting any current-generation entry.
    pub(crate) fn insert(&mut self, key: u64, val: u32) {
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = hash(key) & self.mask;
        loop {
            if self.gens[i] != self.gen {
                self.keys[i] = key;
                self.vals[i] = val;
                self.gens[i] = self.gen;
                self.len += 1;
                return;
            }
            if self.keys[i] == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        let old_gens = std::mem::replace(&mut self.gens, vec![0; new_cap]);
        let live_gen = self.gen;
        self.mask = new_cap - 1;
        self.gen = 1;
        self.len = 0;
        for i in 0..old_keys.len() {
            if old_gens[i] == live_gen {
                self.insert(old_keys[i], old_vals[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite() {
        let mut t = GenTable::new();
        assert_eq!(t.get(42), None);
        t.insert(42, 1);
        t.insert(0, 2); // key 0 is an ordinary key, not a sentinel
        assert_eq!(t.get(42), Some(1));
        assert_eq!(t.get(0), Some(2));
        t.insert(42, 9);
        assert_eq!(t.get(42), Some(9));
    }

    #[test]
    fn clear_is_generation_bump() {
        let mut t = GenTable::new();
        for k in 0..50u64 {
            t.insert(k, k as u32);
        }
        t.clear();
        for k in 0..50u64 {
            assert_eq!(t.get(k), None, "entry {k} must not survive clear");
        }
        t.insert(7, 70);
        assert_eq!(t.get(7), Some(70));
        assert!(!t.contains(8));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut t = GenTable::new();
        for k in 0..10_000u64 {
            t.insert(k * 64, k as u32);
        }
        for k in 0..10_000u64 {
            assert_eq!(t.get(k * 64), Some(k as u32));
        }
        assert_eq!(t.get(10_000 * 64), None);
    }

    #[test]
    fn generation_wrap_resets_stamps() {
        let mut t = GenTable::new();
        t.insert(1, 1);
        t.gen = u32::MAX; // force the wrap path on next clear
        t.clear();
        assert_eq!(t.gen, 1);
        assert_eq!(t.get(1), None);
        t.insert(2, 2);
        assert_eq!(t.get(2), Some(2));
    }

    #[test]
    fn survives_many_clear_cycles() {
        let mut t = GenTable::new();
        for round in 0..1000u64 {
            t.insert(round, round as u32);
            t.insert(round + 1, 0);
            assert!(t.contains(round));
            t.clear();
            assert!(!t.contains(round));
        }
    }
}
