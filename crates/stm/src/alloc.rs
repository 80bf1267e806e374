//! The STM-level dynamic-memory optimization of the paper's §6.2.
//!
//! Instead of freeing objects on abort (or at commit of a transactional
//! free), the STM keeps them in a thread-local pool for reuse by future
//! transactional allocations, avoiding calls into the system allocator and
//! their synchronization. Table 7 shows this only pays off for allocators
//! *without* their own thread-private caching (Glibc), which is exactly
//! what the reproduction demonstrates.

use tm_sim::IntMap;

/// Thread-local pool of blocks keyed by requested size.
#[derive(Debug)]
pub struct ObjectCache {
    by_size: IntMap<u64, Vec<u64>>,
    total: usize,
    cap: usize,
}

impl Default for ObjectCache {
    fn default() -> Self {
        ObjectCache::with_capacity(4096)
    }
}

impl ObjectCache {
    /// Pool holding at most `cap` blocks in total.
    pub fn with_capacity(cap: usize) -> Self {
        ObjectCache {
            by_size: IntMap::default(),
            total: 0,
            cap,
        }
    }

    /// Take a cached block of exactly `size` bytes, if any.
    pub fn take(&mut self, size: u64) -> Option<u64> {
        let v = self.by_size.get_mut(&size)?;
        let a = v.pop();
        if a.is_some() {
            self.total -= 1;
        }
        a
    }

    /// Offer a block to the pool; returns false (caller must really free)
    /// when the pool is full.
    pub fn put(&mut self, size: u64, addr: u64) -> bool {
        if self.total >= self.cap {
            return false;
        }
        self.by_size.entry(size).or_default().push(addr);
        self.total += 1;
        true
    }

    /// Number of blocks currently pooled.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the pool holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip() {
        let mut c = ObjectCache::with_capacity(4);
        assert_eq!(c.take(16), None);
        assert!(c.put(16, 0x1000));
        assert!(c.put(16, 0x2000));
        assert!(c.put(32, 0x3000));
        assert_eq!(c.len(), 3);
        assert_eq!(c.take(16), Some(0x2000));
        assert_eq!(c.take(32), Some(0x3000));
        assert_eq!(c.take(32), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut c = ObjectCache::with_capacity(2);
        assert!(c.put(16, 1));
        assert!(c.put(16, 2));
        assert!(!c.put(16, 3), "pool at capacity must reject");
        c.take(16);
        assert!(c.put(16, 3));
    }

    #[test]
    fn sizes_are_segregated() {
        let mut c = ObjectCache::default();
        c.put(16, 0xa);
        assert_eq!(c.take(48), None, "different size must not match");
        assert_eq!(c.take(16), Some(0xa));
    }
}
