//! Labyrinth: Lee-style maze routing.
//!
//! Faithfulness targets (Table 5 + §6): each routing task copies the shared
//! grid into a *privately allocated* buffer — the parallel-region
//! allocations (including large blocks) that dominate Labyrinth's profile —
//! routes on the copy, then validates and claims the path in one long
//! transaction. Almost nothing is allocated inside transactions. A
//! `pad_router_state` knob reproduces the paper's false-sharing ablation:
//! per-thread router counters are allocated back-to-back by the main thread
//! (unpadded: several per cache line → coherence ping-pong) or padded to a
//! line each.

use parking_lot::Mutex;
use tm_ds::TxQueue;
use tm_sim::{Ctx, Sim};
use tm_stm::{Abort, Stm, TxThread};

use super::util::mix;
use crate::StampApp;

struct State {
    grid: u64,
    work: TxQueue,
    /// Per-thread router statistics blocks (the padding-ablation subject).
    router_state: Vec<u64>,
    routed_cell: u64,
}

/// The Labyrinth port on a `side × side` grid.
pub struct Labyrinth {
    /// Grid side length.
    pub side: u64,
    /// Route requests to attempt.
    pub routes: u64,
    /// Input seed.
    pub seed: u64,
    /// Pad per-thread router state to a cache line (the paper's fix for
    /// the Hoard anomaly in §6).
    pub pad_router_state: bool,
    state: Mutex<Option<State>>,
}

impl Labyrinth {
    /// Instantiate at a given problem size and seed.
    pub fn new(side: u64, routes: u64, seed: u64) -> Self {
        Labyrinth {
            side,
            routes,
            seed,
            pad_router_state: true,
            state: Mutex::new(None),
        }
    }

    fn cells(&self) -> u64 {
        self.side * self.side
    }

    /// Route requests resolved so far on `sim`, routed or given up: read
    /// from simulated memory between runs, without an event; `None` before
    /// `init`. A correct run resolves each request once, so at the end this
    /// is the request count at any thread count — Labyrinth's checksum,
    /// which `verify` asserts.
    pub fn resolved_routes(&self, sim: &Sim) -> Option<u64> {
        let cell = self.state.lock().as_ref()?.routed_cell;
        let v = sim.with_state(|m| m.read_u64(cell));
        Some((v & 0xffff_ffff) + (v >> 32))
    }

    /// Deterministic src/dst pair for route `r` (distinct cells).
    fn endpoints(&self, r: u64) -> (u64, u64) {
        let a = mix(self.seed ^ (r * 2 + 1)) % self.cells();
        let mut b = mix(self.seed ^ (r * 2 + 2)) % self.cells();
        if b == a {
            b = (b + 1) % self.cells();
        }
        (a, b)
    }
}

impl StampApp for Labyrinth {
    fn name(&self) -> &'static str {
        "Labyrinth"
    }

    fn init(&self, stm: &Stm, ctx: &mut Ctx<'_>) {
        // Zero-fill: empty grid cells and the route counters are read
        // before being written (malloc'd memory may be recycled).
        let grid = stm.allocator().malloc(ctx, self.cells() * 8);
        for c in 0..self.cells() {
            ctx.write_u64(grid + c * 8, 0);
        }
        let work = TxQueue::new(stm, ctx);
        let routed_cell = stm.allocator().malloc(ctx, 64);
        ctx.write_u64(routed_cell, 0);
        let mut th = stm.thread(0);
        for r in 0..self.routes {
            work.push(stm, ctx, &mut th, r);
        }
        stm.retire(th);
        // Router state allocated for all workers by the main thread — the
        // allocation pattern behind the paper's false-sharing finding.
        let size = if self.pad_router_state { 64 } else { 16 };
        let router_state = (0..8).map(|_| stm.allocator().malloc(ctx, size)).collect();
        *self.state.lock() = Some(State {
            grid,
            work,
            router_state,
            routed_cell,
        });
    }

    fn worker(&self, stm: &Stm, ctx: &mut Ctx<'_>, th: &mut TxThread) {
        let (grid, work, my_state, routed_cell) = {
            let g = self.state.lock();
            let s = g.as_ref().expect("init must run first");
            (s.grid, s.work, s.router_state[ctx.tid()], s.routed_cell)
        };
        let cells = self.cells();
        while let Some(route) = work.pop(stm, ctx, &mut *th) {
            let (src, dst) = self.endpoints(route);
            let mut attempts = 0;
            loop {
                attempts += 1;
                // Private grid copy: the big parallel-region allocation.
                let buf = stm.allocator().malloc(ctx, cells * 8);
                for c in 0..cells {
                    let v = ctx.read_u64(grid + c * 8);
                    ctx.write_u64(buf + c * 8, v);
                    ctx.tick(1);
                }
                // Greedy L-shaped path on the private copy (the original
                // runs a full expansion; the path shape is irrelevant to
                // the allocator study, its length is what matters).
                let path = l_path(src, dst, self.side);
                let free = path
                    .iter()
                    .all(|&c| c == src || c == dst || ctx.read_u64(buf + c * 8) == 0);
                // Router bookkeeping: touch this thread's state block every
                // attempt (false-sharing hotspot when unpadded).
                let tries = ctx.read_u64(my_state);
                ctx.write_u64(my_state, tries + 1);
                stm.allocator().free(ctx, buf);
                if !free {
                    // No route on this copy: give up this task (grid full),
                    // as the original drops unroutable work.
                    ctx.fetch_add_u64(routed_cell, 1 << 32); // failed counter
                    break;
                }
                // Claim the path transactionally; if someone took a cell
                // since our copy, re-copy and retry (the original's
                // grid-copy-revalidate loop).
                let claimed = stm.txn(ctx, &mut *th, |tx, ctx| {
                    for &c in &path {
                        if c != src && c != dst && tx.read(ctx, grid + c * 8)? != 0 {
                            return Ok(false);
                        }
                    }
                    for &c in &path {
                        tx.write(ctx, grid + c * 8, route + 1)?;
                    }
                    Ok::<bool, Abort>(true)
                });
                if claimed {
                    ctx.fetch_add_u64(routed_cell, 1);
                    break;
                }
                if attempts > 8 {
                    ctx.fetch_add_u64(routed_cell, 1 << 32);
                    break;
                }
            }
        }
    }

    fn verify(&self, _stm: &Stm, ctx: &mut Ctx<'_>) {
        let g = self.state.lock();
        let s = g.as_ref().unwrap();
        let v = ctx.read_u64(s.routed_cell);
        let routed = v & 0xffff_ffff;
        let failed = v >> 32;
        assert_eq!(
            routed + failed,
            self.routes,
            "every route attempt must resolve"
        );
        // Each successfully routed path's cells carry its id.
        let mut seen = std::collections::HashMap::new();
        for c in 0..self.cells() {
            let v = ctx.read_u64(s.grid + c * 8);
            if v != 0 {
                *seen.entry(v).or_insert(0u64) += 1;
            }
        }
        for (_, count) in seen {
            assert!(count >= 1, "claimed route with no cells");
        }
    }
}

/// L-shaped path from src to dst on a `side`-wide grid (inclusive).
fn l_path(src: u64, dst: u64, side: u64) -> Vec<u64> {
    let (sx, sy) = (src % side, src / side);
    let (dx, dy) = (dst % side, dst / side);
    let mut path = Vec::new();
    let mut x = sx;
    let mut y = sy;
    path.push(y * side + x);
    while x != dx {
        x = if dx > x { x + 1 } else { x - 1 };
        path.push(y * side + x);
    }
    while y != dy {
        y = if dy > y { y + 1 } else { y - 1 };
        path.push(y * side + x);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{profile_app, run_app, StampOpts};
    use tm_alloc::AllocatorKind;

    #[test]
    fn l_path_connects() {
        let p = l_path(0, 24, 5); // corner to corner on 5x5
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&24));
        assert_eq!(p.len(), 9);
    }

    #[test]
    fn all_routes_resolve() {
        let app = Labyrinth::new(12, 10, 23);
        let r = run_app(&app, AllocatorKind::Hoard, 4, &StampOpts::default());
        assert!(r.commits > 0);
    }

    #[test]
    fn grid_copies_allocate_in_par_region() {
        use tm_alloc::profile::Region;
        let app = Labyrinth::new(10, 6, 23);
        let prof = profile_app(&app, AllocatorKind::Glibc);
        let par = prof[Region::Par as usize];
        assert!(par.by_bucket[7] >= 6, "one big grid copy per attempt");
        assert!(par.frees >= 6);
        assert_eq!(prof[Region::Tx as usize].mallocs, 0);
    }
}
