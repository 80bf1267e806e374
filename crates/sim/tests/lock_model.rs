//! Integration tests of the virtual-time lock model: queueing behaviour,
//! hand-off costs, fairness and statistics.

use parking_lot::Mutex as HostMutex;
use tm_sim::{MachineConfig, Sim};

#[test]
fn fifo_ish_queueing_under_heavy_contention() {
    // 4 threads each take the lock 20 times with long critical sections;
    // the total runtime must be >= the serialized critical-section time.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let mx = sim.new_mutex();
    let cs = 2_000u64;
    let r = sim.run(4, |ctx| {
        for _ in 0..20 {
            ctx.lock(mx);
            ctx.tick(cs);
            ctx.unlock(mx);
        }
    });
    assert!(
        r.cycles >= 80 * cs,
        "lock must serialize: {} cycles",
        r.cycles
    );
    assert_eq!(r.locks.acquisitions, 80);
    assert!(r.locks.contended > 0);
}

#[test]
fn uncontended_lock_is_cheap() {
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let mx = sim.new_mutex();
    let r = sim.run(1, |ctx| {
        for _ in 0..100 {
            ctx.lock(mx);
            ctx.unlock(mx);
        }
    });
    assert_eq!(r.locks.contended, 0);
    assert_eq!(r.locks.wait_cycles, 0);
    // 100 × (acquire + release) at tens of cycles each.
    assert!(r.cycles < 100 * 200, "uncontended lock too expensive");
}

#[test]
fn cross_core_handoff_costs_more_than_reacquisition() {
    let cfg = MachineConfig::xeon_e5405();
    // Same thread re-acquiring: no transfer cost.
    let sim1 = Sim::new(cfg.clone());
    let mx1 = sim1.new_mutex();
    let same = sim1.run(1, |ctx| {
        for _ in 0..50 {
            ctx.lock(mx1);
            ctx.unlock(mx1);
        }
    });
    // Two threads alternating (serialized by big ticks): transfer each time.
    let sim2 = Sim::new(cfg);
    let mx2 = sim2.new_mutex();
    let alternating = sim2.run(2, |ctx| {
        for i in 0..25u64 {
            ctx.tick(10_000 * (2 * i + ctx.tid() as u64) + 1);
            ctx.fence();
            ctx.lock(mx2);
            ctx.unlock(mx2);
        }
    });
    let same_lock_cost = same.cycles;
    // Alternating run's lock costs are buried in the ticks; compare via
    // acquisitions: both performed 50; the per-acquisition cost must be
    // higher in the alternating case. Extract by subtracting tick time.
    let ticks: u64 = (0..25u64)
        .map(|i| 10_000 * (2 * i) + 1)
        .sum::<u64>()
        .max((0..25u64).map(|i| 10_000 * (2 * i + 1) + 1).sum());
    let alt_lock_cost = alternating.cycles.saturating_sub(ticks);
    assert!(
        alt_lock_cost > same_lock_cost,
        "hand-offs ({alt_lock_cost}) must exceed re-acquisition ({same_lock_cost})"
    );
}

#[test]
fn trylock_probing_matches_glibc_pattern() {
    // One holder, three probers: every try_lock during the hold must fail,
    // and after release they must succeed.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let mx = sim.new_mutex();
    let results = HostMutex::new(Vec::new());
    sim.run(4, |ctx| {
        if ctx.tid() == 0 {
            ctx.lock(mx);
            ctx.tick(100_000);
            ctx.unlock(mx);
        } else {
            ctx.tick(1_000);
            ctx.fence();
            let during = ctx.try_lock(mx);
            if during {
                ctx.unlock(mx);
            }
            ctx.tick(200_000);
            ctx.fence();
            let after = ctx.try_lock(mx);
            if after {
                ctx.unlock(mx);
            }
            results.lock().push((ctx.tid(), during, after));
        }
    });
    for (tid, during, _after) in results.into_inner() {
        assert!(!during, "thread {tid}: try_lock during hold must fail");
        // `after` may race with other probers; at least it must not panic.
    }
}

#[test]
fn locks_do_not_interfere() {
    // Two disjoint locks: pairs of threads on different locks do not
    // serialize against each other.
    let sim = Sim::new(MachineConfig::xeon_e5405());
    let a = sim.new_mutex();
    let b = sim.new_mutex();
    let cs = 5_000u64;
    let r = sim.run(4, |ctx| {
        let mx = if ctx.tid() < 2 { a } else { b };
        for _ in 0..10 {
            ctx.lock(mx);
            ctx.tick(cs);
            ctx.unlock(mx);
        }
    });
    // Perfect pairwise serialization: 20 CS per lock, run in parallel
    // across locks → ~20*cs, definitely below the 40*cs full serialization.
    assert!(r.cycles < 30 * cs, "independent locks must run in parallel");
}
