//! Small shared pieces for the application ports.

use tm_sim::Ctx;
use tm_stm::Stm;

/// A shared work counter in simulated memory (STAMP's parallel-for idiom:
/// threads grab the next chunk with an atomic fetch-add).
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    addr: u64,
}

impl Counter {
    /// Allocate the counter cell through the app's allocator (its own cache
    /// line would be `malloc(64)`; STAMP uses plain globals, so a small
    /// block is fine and also exercises the allocator).
    pub fn new(stm: &Stm, ctx: &mut Ctx<'_>) -> Self {
        let addr = stm.allocator().malloc(ctx, 64);
        ctx.write_u64(addr, 0);
        Counter { addr }
    }

    /// Claim the next index.
    pub fn next(&self, ctx: &mut Ctx<'_>) -> u64 {
        ctx.fetch_add_u64(self.addr, 1)
    }

    /// Current value (racy read, as in the originals' progress probes).
    #[allow(dead_code)] // part of the Counter API; exercised in tests
    pub fn peek(&self, ctx: &mut Ctx<'_>) -> u64 {
        ctx.read_u64(self.addr)
    }
}

/// Sense-less spin barrier over simulated memory: each arrival increments
/// the cell; threads spin (burning virtual cycles) until all `n` arrive at
/// the given round. Single-use per round value.
#[derive(Clone, Copy, Debug)]
pub struct SpinBarrier {
    addr: u64,
}

impl SpinBarrier {
    pub fn new(stm: &Stm, ctx: &mut Ctx<'_>) -> Self {
        let addr = stm.allocator().malloc(ctx, 64);
        ctx.write_u64(addr, 0);
        SpinBarrier { addr }
    }

    /// Wait until `n * round` threads have arrived in total.
    pub fn wait(&self, ctx: &mut Ctx<'_>, n: u64, round: u64) {
        ctx.fetch_add_u64(self.addr, 1);
        // A polite spin: 150 cycles between probes.
        ctx.read_u64_until(self.addr, 150, |arrived| arrived >= n * round);
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer) for data generation.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tm_alloc::AllocatorKind;
    use tm_sim::{MachineConfig, Sim};
    use tm_stm::StmConfig;

    fn setup() -> (Sim, Arc<Stm>) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let alloc = AllocatorKind::TbbMalloc.build(&sim);
        let stm = Arc::new(Stm::new(&sim, alloc, StmConfig::default()));
        (sim, stm)
    }

    #[test]
    fn counter_hands_out_unique_indices() {
        let (sim, stm) = setup();
        let c = parking_lot::Mutex::new(None);
        let seen = parking_lot::Mutex::new(Vec::new());
        sim.run(4, |ctx| {
            if ctx.tid() == 0 {
                *c.lock() = Some(Counter::new(&stm, ctx));
            } else {
                ctx.tick(100_000);
                ctx.fence();
            }
            let c = c.lock().unwrap();
            let mut mine = Vec::new();
            loop {
                let i = c.next(ctx);
                if i >= 40 {
                    break;
                }
                mine.push(i);
            }
            seen.lock().extend(mine);
        });
        let mut v = seen.into_inner();
        v.sort_unstable();
        assert_eq!(v, (0..40).collect::<Vec<_>>());
        // After exhaustion the counter has overshot to at least 40 + n.
        let (sim2, stm2) = setup();
        sim2.run(1, |ctx| {
            let c = Counter::new(&stm2, ctx);
            c.next(ctx);
            c.next(ctx);
            assert_eq!(c.peek(ctx), 2);
        });
    }

    #[test]
    fn barrier_synchronizes_rounds() {
        let (sim, stm) = setup();
        let b = parking_lot::Mutex::new(None);
        let log = parking_lot::Mutex::new(Vec::new());
        sim.run(3, |ctx| {
            if ctx.tid() == 0 {
                *b.lock() = Some(SpinBarrier::new(&stm, ctx));
            } else {
                ctx.tick(100_000);
                ctx.fence();
            }
            let b = b.lock().unwrap();
            for round in 1..=3u64 {
                ctx.tick((ctx.tid() as u64 + 1) * 1000);
                b.wait(ctx, 3, round);
                log.lock().push((round, ctx.tid()));
            }
        });
        // All round-1 entries must precede... host order is unspecified, so
        // check counts per round instead.
        let log = log.into_inner();
        for round in 1..=3u64 {
            assert_eq!(log.iter().filter(|e| e.0 == round).count(), 3);
        }
    }

    #[test]
    fn mix_is_deterministic_and_spread() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
        let buckets: std::collections::HashSet<u64> = (0..64).map(|i| mix(i) % 16).collect();
        assert!(buckets.len() > 8, "mix output poorly spread");
    }
}
