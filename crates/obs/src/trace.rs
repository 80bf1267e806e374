//! Bounded per-thread event tracing in virtual time.
//!
//! Each logical thread records into its **own** fixed-capacity ring, so the
//! recording path is an unsynchronized slot write plus one relaxed counter
//! bump — nothing shared, nothing locked. Rings are bounded: once full, new
//! events overwrite the oldest, so a trace always holds the *last*
//! `capacity` events per thread (the interesting ones — whatever led up to
//! the anomaly being chased). [`Trace::drain`] merges all rings into one
//! virtual-time-ordered stream; it must only be called while no thread is
//! recording (between `Sim::run`s is the natural point).
//!
//! A ring owns no storage until the first event is recorded into it: a
//! trace that is never enabled (every machine the checkers build)
//! allocates nothing, and an unallocated ring is an empty one to every
//! reader.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// What happened. The meaning of an [`Event`]'s `a`/`b` payload words is
/// per-kind, documented on each variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A transaction began. `a` = attempt number for this transaction body
    /// (0 on first attempt), `b` unused.
    TxBegin,
    /// A transaction committed. `a` = reads performed, `b` = writes
    /// performed.
    TxCommit,
    /// A transaction aborted. `a` = abort-cause code (the STM's
    /// `AbortCause as u64`), `b` = conflicting address when known, else 0.
    TxAbort,
    /// An allocation returned. `a` = address, `b` = `region << 48 | size`.
    Malloc,
    /// A free was issued. `a` = address, `b` = `region << 48 | size`.
    Free,
    /// A simulated lock was acquired. `a` = lock id, `b` unused.
    LockAcquire,
    /// A simulated lock acquisition found the lock held. `a` = lock id,
    /// `b` = holder thread id.
    LockContend,
    /// The simulated OS handed out a region. `a` = address, `b` = size.
    OsAlloc,
}

impl EventKind {
    /// Stable snake_case name used in renderings.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TxBegin => "tx_begin",
            EventKind::TxCommit => "tx_commit",
            EventKind::TxAbort => "tx_abort",
            EventKind::Malloc => "malloc",
            EventKind::Free => "free",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockContend => "lock_contend",
            EventKind::OsAlloc => "os_alloc",
        }
    }
}

/// Pack / unpack the `region << 48 | size` payload used by `Malloc`/`Free`.
pub fn pack_region_size(region: u64, size: u64) -> u64 {
    debug_assert!(region < 1 << 16);
    debug_assert!(size < 1 << 48);
    (region << 48) | size
}

/// Inverse of [`pack_region_size`]: `(region, size)` from a payload word.
pub fn unpack_region_size(b: u64) -> (u64, u64) {
    (b >> 48, b & ((1 << 48) - 1))
}

/// One traced occurrence, stamped with the recording thread's virtual
/// clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Virtual time (cycles) on the recording thread's clock.
    pub time: u64,
    /// Logical thread id of the recorder.
    pub tid: u32,
    /// What happened.
    pub kind: EventKind,
    /// First payload word; meaning is per-kind (see [`EventKind`]).
    pub a: u64,
    /// Second payload word; meaning is per-kind (see [`EventKind`]).
    pub b: u64,
}

impl Event {
    /// One-line human rendering, used by `tmstudy report` and tests.
    pub fn render(&self) -> String {
        match self.kind {
            EventKind::TxBegin => format!(
                "[{:>10}] t{} tx_begin attempt={}",
                self.time, self.tid, self.a
            ),
            EventKind::TxCommit => format!(
                "[{:>10}] t{} tx_commit reads={} writes={}",
                self.time, self.tid, self.a, self.b
            ),
            EventKind::TxAbort => format!(
                "[{:>10}] t{} tx_abort cause={} addr={:#x}",
                self.time, self.tid, self.a, self.b
            ),
            EventKind::Malloc | EventKind::Free => {
                let (region, size) = unpack_region_size(self.b);
                format!(
                    "[{:>10}] t{} {} addr={:#x} region={} size={}",
                    self.time,
                    self.tid,
                    self.kind.name(),
                    self.a,
                    region,
                    size
                )
            }
            EventKind::LockAcquire => format!(
                "[{:>10}] t{} lock_acquire lock={}",
                self.time, self.tid, self.a
            ),
            EventKind::LockContend => format!(
                "[{:>10}] t{} lock_contend lock={} holder=t{}",
                self.time, self.tid, self.a, self.b
            ),
            EventKind::OsAlloc => format!(
                "[{:>10}] t{} os_alloc addr={:#x} size={}",
                self.time, self.tid, self.a, self.b
            ),
        }
    }
}

/// One thread's ring. `head` counts events *ever* recorded; the live window
/// is the last `min(head, capacity)` of them, event `i` in slot
/// `i % capacity`. `buf` is empty (and owns no storage) until the first
/// event is stored, then holds `capacity` slots for good. Only thread `tid`
/// writes `buf`, so slot writes need no synchronization; the `head` store
/// is `Release` so a quiescent drainer's `Acquire` load observes completed
/// slots.
struct Ring {
    buf: UnsafeCell<Box<[Event]>>,
    head: AtomicUsize,
}

impl Ring {
    /// Store `event` as event number `i` of a ring of `capacity` slots.
    ///
    /// # Safety
    /// The caller is the ring's only writer and nobody reads `buf`
    /// meanwhile (the owning thread in `record`, anyone at quiescence).
    #[inline]
    unsafe fn put(&self, i: usize, capacity: usize, event: Event) {
        let buf = &mut *self.buf.get();
        let slot = i % capacity;
        if slot >= buf.len() {
            Ring::allocate(buf, capacity);
        }
        // One store on every path, so the event never passes through
        // memory on its way to the slot; on the path around `allocate`
        // the test above is the store's bounds check.
        buf[slot] = event;
    }

    /// Give a ring about to take its first event its storage. Slots are
    /// only ever read below `head`, so what they start as is never seen.
    #[cold]
    #[inline(never)]
    fn allocate(buf: &mut Box<[Event]>, capacity: usize) {
        let unread = Event {
            time: 0,
            tid: 0,
            kind: EventKind::TxBegin,
            a: 0,
            b: 0,
        };
        *buf = vec![unread; capacity].into_boxed_slice();
    }
}

/// The per-thread event rings plus the master enable switch. Recording is
/// a no-op (one relaxed load) while disabled, so leaving tracing compiled
/// into every hot path costs nothing measurable.
pub struct Trace {
    enabled: AtomicBool,
    capacity: usize,
    rings: Vec<Ring>,
}

// SAFETY: each ring's buffer is written only by its owning logical thread
// (`record` takes the recorder's tid; the simulator pins one logical thread
// per tid), and `drain`/`clear` are documented to run only at quiescence.
// The head counter is atomic.
unsafe impl Sync for Trace {}
unsafe impl Send for Trace {}

impl Trace {
    /// Rings for `threads` logical threads, `capacity` events each.
    /// Tracing starts disabled: rings record only after
    /// [`Trace::set_enabled`]`(true)`.
    pub fn new(threads: usize, capacity: usize) -> Self {
        assert!(capacity >= 1, "ring needs at least one slot");
        Trace {
            enabled: AtomicBool::new(false),
            capacity,
            rings: (0..threads)
                .map(|_| Ring {
                    buf: UnsafeCell::new(Box::default()),
                    head: AtomicUsize::new(0),
                })
                .collect(),
        }
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off (the master switch for every ring).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Per-thread ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rings (one per logical thread).
    pub fn threads(&self) -> usize {
        self.rings.len()
    }

    /// Record `event` into thread `tid`'s ring. Must only be called by the
    /// logical thread that owns `tid` (the simulator guarantees this).
    /// No-op while tracing is disabled.
    #[inline]
    pub fn record(&self, tid: usize, event: Event) {
        if !self.is_enabled() {
            return;
        }
        let ring = &self.rings[tid];
        let head = ring.head.load(Ordering::Relaxed);
        // SAFETY: single writer per ring (see `unsafe impl Sync`).
        unsafe { ring.put(head, self.capacity, event) };
        ring.head.store(head + 1, Ordering::Release);
    }

    /// Convenience constructor + record.
    #[inline]
    pub fn emit(&self, tid: usize, time: u64, kind: EventKind, a: u64, b: u64) {
        self.record(
            tid,
            Event {
                time,
                tid: tid as u32,
                kind,
                a,
                b,
            },
        );
    }

    /// Total events ever recorded (including ones already overwritten).
    pub fn recorded(&self) -> usize {
        self.rings
            .iter()
            .map(|r| r.head.load(Ordering::Acquire))
            .sum()
    }

    /// Snapshot every ring's live window, merged and sorted by
    /// `(time, tid)`. Call only at quiescence (no thread recording).
    /// Rings are left intact; see [`Trace::clear`].
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for ring in &self.rings {
            let head = ring.head.load(Ordering::Acquire);
            let live = head.min(self.capacity);
            // SAFETY: quiescence contract — no concurrent writer.
            let buf = unsafe { &*ring.buf.get() };
            let start = head - live;
            for i in start..head {
                out.push(buf[i % self.capacity]);
            }
        }
        out.sort_by_key(|e| (e.time, e.tid));
        out
    }

    /// Forget all recorded events. Call only at quiescence.
    pub fn clear(&self) {
        for ring in &self.rings {
            ring.head.store(0, Ordering::Release);
        }
    }

    /// Capture every ring's cursor and live window so a later
    /// [`Trace::restore`] rewinds the trace exactly (the checkpoint layer's
    /// "trace cursor"). Call only at quiescence. While tracing is disabled
    /// every head is zero, so this is an empty Vec per ring — effectively
    /// free.
    pub fn checkpoint(&self) -> TraceCheckpoint {
        let rings = self
            .rings
            .iter()
            .map(|ring| {
                let head = ring.head.load(Ordering::Acquire);
                let live = head.min(self.capacity);
                // SAFETY: quiescence contract — no concurrent writer.
                let buf = unsafe { &*ring.buf.get() };
                let window = (head - live..head)
                    .map(|i| buf[i % self.capacity])
                    .collect();
                (head, window)
            })
            .collect();
        TraceCheckpoint { rings }
    }

    /// Rewind every ring to `cp`: cursor and live window come back exactly
    /// as captured; events recorded after the checkpoint are forgotten.
    /// Call only at quiescence.
    pub fn restore(&self, cp: &TraceCheckpoint) {
        assert_eq!(cp.rings.len(), self.rings.len(), "thread count changed");
        for (ring, (head, window)) in self.rings.iter().zip(&cp.rings) {
            let start = head - window.len();
            for (i, ev) in (start..*head).zip(window) {
                // SAFETY: quiescence contract — no concurrent writer.
                unsafe { ring.put(i, self.capacity, *ev) };
            }
            ring.head.store(*head, Ordering::Release);
        }
    }
}

/// Frozen trace cursors + live windows, produced by [`Trace::checkpoint`].
pub struct TraceCheckpoint {
    /// Per ring: `(head, live window oldest→newest)`.
    rings: Vec<(usize, Vec<Event>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new(2, 8);
        t.emit(0, 10, EventKind::TxBegin, 0, 0);
        assert_eq!(t.recorded(), 0);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn drain_merges_in_time_order() {
        let t = Trace::new(2, 8);
        t.set_enabled(true);
        t.emit(1, 30, EventKind::TxCommit, 5, 2);
        t.emit(0, 10, EventKind::TxBegin, 0, 0);
        t.emit(0, 40, EventKind::TxAbort, 1, 0x99);
        t.emit(1, 10, EventKind::TxBegin, 0, 0);
        let ev = t.drain();
        assert_eq!(
            ev.iter().map(|e| (e.time, e.tid)).collect::<Vec<_>>(),
            vec![(10, 0), (10, 1), (30, 1), (40, 0)]
        );
        t.clear();
        assert!(t.drain().is_empty());
    }

    #[test]
    fn ring_keeps_last_capacity_events() {
        let t = Trace::new(1, 4);
        t.set_enabled(true);
        for i in 0..10u64 {
            t.emit(0, i, EventKind::Malloc, i, 0);
        }
        let ev = t.drain();
        assert_eq!(ev.len(), 4);
        assert_eq!(
            ev.iter().map(|e| e.time).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(t.recorded(), 10);
    }

    #[test]
    fn checkpoint_restore_rewinds_rings() {
        let t = Trace::new(2, 4);
        t.set_enabled(true);
        for i in 0..6u64 {
            t.emit(0, i, EventKind::Malloc, i, 0);
        }
        t.emit(1, 3, EventKind::TxBegin, 0, 0);
        let cp = t.checkpoint();
        let before = t.drain();
        // Diverge: overwrite ring 0's window, extend ring 1.
        for i in 10..15u64 {
            t.emit(0, i, EventKind::Free, i, 0);
        }
        t.emit(1, 9, EventKind::TxCommit, 1, 1);
        assert_ne!(t.drain(), before);
        t.restore(&cp);
        assert_eq!(t.drain(), before, "restore must reproduce the live window");
        assert_eq!(t.recorded(), 7, "cursors rewound too");
    }

    #[test]
    fn disabled_checkpoint_is_empty_and_restorable() {
        let t = Trace::new(3, 8);
        let cp = t.checkpoint();
        t.emit(0, 1, EventKind::TxBegin, 0, 0); // no-op while disabled
        t.restore(&cp);
        assert_eq!(t.recorded(), 0);
        assert!(t.drain().is_empty());
    }

    fn allocated(t: &Trace) -> Vec<bool> {
        // Quiescent: nobody is recording.
        let has_storage = |r: &Ring| unsafe { !(&*r.buf.get()).is_empty() };
        t.rings.iter().map(has_storage).collect()
    }

    #[test]
    fn never_enabled_trace_owns_no_storage_and_reads_as_empty() {
        let t = Trace::new(3, 4096);
        let cp = t.checkpoint();
        for i in 0..10u64 {
            t.emit(1, i, EventKind::Malloc, i, 0); // no-op while disabled
        }
        assert_eq!(t.recorded(), 0);
        assert!(t.drain().is_empty());
        t.restore(&cp);
        t.clear();
        assert_eq!(t.recorded(), 0);
        assert!(t.drain().is_empty());
        assert_eq!(allocated(&t), [false; 3]);
    }

    #[test]
    fn enabling_after_construction_records_from_the_first_event() {
        let t = Trace::new(3, 4);
        let empty = t.checkpoint();
        t.set_enabled(true);
        t.emit(2, 7, EventKind::TxBegin, 1, 0);
        assert_eq!(
            allocated(&t),
            [false, false, true],
            "only the ring written to"
        );
        assert_eq!(t.recorded(), 1);
        assert_eq!(
            t.drain(),
            [Event {
                time: 7,
                tid: 2,
                kind: EventKind::TxBegin,
                a: 1,
                b: 0
            }]
        );
        // A checkpoint taken over unallocated rings restores them to empty,
        // and one taken now survives the ring wrapping.
        let one = t.checkpoint();
        for i in 10..20u64 {
            t.emit(2, i, EventKind::Free, i, 0);
        }
        t.emit(0, 3, EventKind::TxBegin, 0, 0);
        t.restore(&one);
        assert_eq!(t.recorded(), 1);
        assert_eq!(t.drain().len(), 1);
        assert_eq!(t.drain()[0].time, 7);
        t.restore(&empty);
        assert_eq!(t.recorded(), 0);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn region_size_packing_roundtrips() {
        let b = pack_region_size(2, 12345);
        assert_eq!(unpack_region_size(b), (2, 12345));
    }

    #[test]
    fn rendering_is_stable() {
        let e = Event {
            time: 42,
            tid: 1,
            kind: EventKind::Malloc,
            a: 0x1000,
            b: pack_region_size(1, 64),
        };
        assert_eq!(
            e.render(),
            "[        42] t1 malloc addr=0x1000 region=1 size=64"
        );
    }

    #[test]
    fn concurrent_recording_from_own_shards() {
        let t = std::sync::Arc::new(Trace::new(8, 128));
        t.set_enabled(true);
        std::thread::scope(|s| {
            for tid in 0..8 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        t.emit(tid, i, EventKind::TxCommit, i, 0);
                    }
                });
            }
        });
        assert_eq!(t.recorded(), 8000);
        assert_eq!(t.drain().len(), 8 * 128);
    }
}
