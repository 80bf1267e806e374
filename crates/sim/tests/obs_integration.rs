//! Cross-layer observability check: the `Trace` owned by `Sim` records
//! from inside `Sim::run` workers, and its events drain in virtual-time
//! order.

use tm_sim::{EventKind, MachineConfig, Sim};

#[test]
fn trace_events_drain_in_virtual_time_order() {
    let sim = Sim::new(MachineConfig::xeon_e5405());
    sim.trace().set_enabled(true);
    sim.run(4, |ctx| {
        // Memory traffic advances virtual time between events.
        let a = ctx.os_alloc(64, 64);
        for i in 0..10 {
            ctx.write_u64(a, i);
            ctx.trace_event(EventKind::LockAcquire, i, 0);
        }
    });
    let events = sim.trace().drain();
    // os_alloc itself traces, so: 4 threads x (1 OsAlloc + 10 LockAcquire).
    assert_eq!(events.len(), 4 * 11);
    assert!(
        events.windows(2).all(|w| w[0].time <= w[1].time),
        "drain() must sort by virtual time"
    );
    let acquires = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LockAcquire))
        .count();
    assert_eq!(acquires, 40);
}
