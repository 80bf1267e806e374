//! Set-associative cache hierarchy with an invalidation-based coherence
//! model.
//!
//! The model tracks *tags only* (data lives in [`crate::memory::Memory`]):
//! per-core L1s, per-socket shared L2s, and a directory recording which
//! cores hold each line and which (if any) holds it dirty. Writes invalidate
//! remote copies; fetching a line that is dirty in a remote L1 pays a
//! cache-to-cache transfer. False sharing between threads therefore costs
//! cycles mechanistically, which is one of the paper's key effects
//! (TCMalloc handing adjacent 16-byte blocks to different threads, §5.2).
//!
//! Tag storage follows the lines a run holds: the sets of a *group* (one
//! set in an L1, four in an L2) share one chain of blocks of eight lanes,
//! a lane holds a line of any set of its group, and a chain grows a block
//! only when a fill finds no empty lane in it. The study builds a machine
//! per run and most runs hold a line or two in each L2 set they touch, so
//! building, snapshotting, restoring and dropping a hierarchy cost what
//! the run filled (DESIGN.md §4, §14). Each set is still exactly an LRU
//! set of its associativity.
//!
//! The probe is exact but reads little: each block (`Lanes`, 168 bytes)
//! keeps, beside its eight tags, one word of eight partial-tag bytes. A
//! probe matches the line's byte against that word, then compares the full
//! tag of each matching lane, so an L1 hit reads one word, then one tag.
//! `Lanes::set_tag` is the one writer of the tags, and keeps the word in
//! step.

use std::collections::HashSet;

use crate::config::MachineConfig;
use crate::LINE;

/// Geometry of one cache level (line size is fixed at 64 bytes).
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    fn sets(&self) -> usize {
        (self.size / LINE) as usize / self.ways
    }
}

/// Per-core cache event counters, in the spirit of the paper's PAPI
/// measurements (Table 4 reports L1 data miss ratios).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 data-cache lookups.
    pub l1_accesses: u64,
    /// L1 lookups that missed and fell through to the L2.
    pub l1_misses: u64,
    /// L2 lookups (every L1 miss becomes one).
    pub l2_accesses: u64,
    /// L2 lookups that missed and went to memory.
    pub l2_misses: u64,
    /// Lines obtained via cache-to-cache transfer from a remote dirty copy.
    pub coherence_transfers: u64,
    /// Lines invalidated in this core's L1 by remote writes.
    pub invalidations: u64,
}

impl CacheStats {
    /// L1 miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_accesses as f64
        }
    }

    /// L2 miss ratio in `[0, 1]`.
    pub fn l2_miss_ratio(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// Accumulate another core's counters (used to aggregate a whole run).
    pub fn merge(&mut self, o: &CacheStats) {
        self.l1_accesses += o.l1_accesses;
        self.l1_misses += o.l1_misses;
        self.l2_accesses += o.l2_accesses;
        self.l2_misses += o.l2_misses;
        self.coherence_transfers += o.coherence_transfers;
        self.invalidations += o.invalidations;
    }
}

const EMPTY: u64 = u64::MAX;

/// Lanes per [`Lanes`] block.
const LANES: usize = 8;

/// A byte in every lane of a partial-tag word.
const LANE_ONES: u64 = 0x0101_0101_0101_0101;

/// The partial tag of `tag`: the top byte of its Fibonacci hash, so lines
/// that differ only in high bits — the lines of one set do — still differ
/// here.
#[inline(always)]
const fn ptag_of(tag: u64) -> u64 {
    tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56
}

/// Eight lanes side by side, as parallel arrays, and the rest of their
/// group's chain: 168 bytes. A lane holds one line of any set of the
/// group, or is `EMPTY`. The probe reads `ptag` and then, for each lane
/// whose byte matches, that lane's tag — a hit reads one word, then one
/// tag; a miss usually reads no tag at all.
#[derive(Clone)]
struct Lanes {
    /// Byte `l` is `ptag_of(tags[l])`. [`Lanes::set_tag`] is the one
    /// writer of `tags` and keeps it so.
    ptag: u64,
    /// `EMPTY` marks an invalid lane.
    tags: [u64; LANES],
    /// LRU stamps.
    stamp: [u64; LANES],
    /// Journal epoch marks: `mark == Journal::cur` means the lane's
    /// pre-image is already in the undo log. Marks belong to the live
    /// array's journal, not to the cache state: a clone's are dead data
    /// and [`TagArray::copy_state_from`] never copies them. Sixteen bits
    /// pay for `ptag`: the epoch wraps once per 65 535 arms, and the wrap
    /// clears every mark.
    mark: [u16; LANES],
    /// Dirty bits (meaningful for L1 arrays only).
    dirty: [bool; LANES],
    /// The next block of the chain.
    next: Chain,
}

/// A chain of blocks: its first, which holds the next.
type Chain = Option<Box<Lanes>>;

/// The state every lane starts in, in a block that ends its chain.
const INITIAL: Lanes = Lanes {
    ptag: ptag_of(EMPTY) * LANE_ONES,
    tags: [EMPTY; LANES],
    stamp: [0; LANES],
    mark: [0; LANES],
    dirty: [false; LANES],
    next: None,
};

/// Sets per group, as a shift, of an L1 array: a group is one set. The L1
/// is probed on every access, and a chain of one set's blocks is that set
/// with its ways in order — way `w` in lane `w % LANES` of the chain's
/// block `w / LANES` — so the probe stays one partial-tag word, then one
/// tag.
const L1_GROUP_SHIFT: u32 = 0;

/// Sets per group, as a shift, of an L2 array: a group is four sets. A run
/// holds few lines in each L2 set it touches — counted when each machine
/// of the benchmark's `synth-matrix`, `stamp-apps` and `backend-mix`
/// workloads dropped, the E5405's socket-0 L2 held 5 391–5 734 lines in
/// its 4 096 sets, no set more than 9 — so a set with blocks of its own
/// would fill one or two lanes of each, where four sets' lines share about
/// one block.
const L2_GROUP_SHIFT: u32 = 2;

/// A block of lanes in their initial state. Out of line: inlined, it would
/// build the block on `fill`'s stack frame.
#[cold]
#[inline(never)]
fn initial_block() -> Box<Lanes> {
    Box::new(INITIAL)
}

/// Block `pos` of `chain`. A `pos` one past its last block links a block
/// of initial lanes there — the one place a chain grows.
fn block_at(mut chain: &mut Chain, pos: usize) -> &mut Lanes {
    for _ in 0..pos {
        chain = &mut chain.as_mut().expect("the chain reaches the block").next;
    }
    chain.get_or_insert_with(initial_block)
}

/// Address of one lane: its group, and `pos * LANES + lane` for its block's
/// place `pos` in the group's chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    group: u32,
    at: u32,
}

impl Slot {
    #[inline]
    fn new(group: usize, pos: usize, lane: usize) -> Slot {
        Slot {
            group: group as u32,
            at: (pos * LANES + lane) as u32,
        }
    }

    /// The block's place in its chain, and the lane.
    #[inline]
    fn split(self) -> (usize, usize) {
        (self.at as usize / LANES, self.at as usize % LANES)
    }
}

/// Pre-image of one lane, recorded the first time the lane is mutated
/// after the journal is (re-)armed.
struct SlotUndo {
    slot: Slot,
    tag: u64,
    stamp: u64,
    dirty: bool,
}

/// Undo journal for in-place snapshot restore. A bounded run touches a few
/// hundred lanes, so the checkpoint layer's restore-per-schedule loop must
/// not pay a copy of every block each time. While armed, the first
/// mutation of each lane logs its pre-image, and a revert rewinds exactly
/// the logged lanes plus the LRU tick. "Already logged this epoch" is a
/// per-lane mark that lives beside the lane ([`Lanes::mark`] `== cur`),
/// so arming allocates nothing and clears nothing: it bumps `cur`.
#[derive(Default)]
struct Journal {
    cur: u16,
    undo: Vec<SlotUndo>,
    /// LRU tick at arm time (the tick advances on every probe, hit or
    /// miss, so it is not covered by per-lane pre-images).
    tick0: u64,
}

/// Journal slot whose `Clone` yields a *disarmed* journal: snapshots are
/// inert copies of the chains, and a journal is identity-tied to the live
/// array it was armed on.
struct JournalSlot(Option<Box<Journal>>);

impl Clone for JournalSlot {
    fn clone(&self) -> Self {
        JournalSlot(None)
    }
}

impl Lanes {
    /// The lowest lane holding `line` — a hierarchy fills a line only
    /// where it is not, so there it is the only one. `line`'s partial tag
    /// is broadcast to all eight bytes and XORed with `ptag`, and the SWAR
    /// zero-byte test flags the lanes whose byte matches — every one, plus
    /// possibly lanes above one (the subtraction's borrow). Candidates are
    /// taken lowest first and each is confirmed by its full tag, so the
    /// answer is exact. Which lane hits is as good as random, but there is
    /// almost always one candidate or none, so the loop costs one
    /// predictable compare where an early-exit scan of the tags would
    /// mispredict its exit.
    #[inline(always)]
    fn lane_of(&self, line: u64) -> Option<usize> {
        let x = self.ptag ^ (ptag_of(line) * LANE_ONES);
        let mut candidates = x.wrapping_sub(LANE_ONES) & !x & (LANE_ONES << 7);
        while candidates != 0 {
            let l = candidates.trailing_zeros() as usize / 8;
            if self.tags[l] == line {
                return Some(l);
            }
            #[cfg(test)]
            tests::COLLISIONS.with(|n| n.set(n.get() + 1));
            candidates &= candidates - 1;
        }
        None
    }

    /// Which lanes of a block of `set`'s chain hold a line of `set` (bit
    /// `l` for lane `l`), and which are `EMPTY`. `group_mask` selects the
    /// bits of a set that tell the sets of a group apart: where it is 0 —
    /// a group of one set — every line is `set`'s, and no tag is read
    /// twice. Branch free within a block: a lane's set is as good as
    /// random.
    #[inline(always)]
    fn classify(&self, set: usize, group_mask: usize) -> (u32, u32) {
        let mut empty = 0;
        for (l, &tag) in self.tags.iter().enumerate() {
            empty |= u32::from(tag == EMPTY) << l;
        }
        let mut other = 0;
        if group_mask != 0 {
            for (l, &tag) in self.tags.iter().enumerate() {
                other |= u32::from((tag as usize ^ set) & group_mask != 0) << l;
            }
        }
        (!(other | empty) & ((1 << LANES) - 1), empty)
    }

    /// Write lane `l`'s tag and its partial tag: the one writer of `tags`.
    #[inline(always)]
    fn set_tag(&mut self, l: usize, tag: u64) {
        self.tags[l] = tag;
        let byte = 8 * l as u32;
        self.ptag = (self.ptag & !(0xff << byte)) | (ptag_of(tag) << byte);
    }

    /// Record lane `l`'s pre-image if `journal` is armed and this is the
    /// lane's first mutation of the epoch. Must be called before every
    /// write to `tags`/`stamp`/`dirty`.
    #[inline]
    fn log(&mut self, l: usize, slot: Slot, journal: &mut JournalSlot) {
        if let Some(j) = journal.0.as_deref_mut() {
            if self.mark[l] != j.cur {
                self.mark[l] = j.cur;
                j.undo.push(SlotUndo {
                    slot,
                    tag: self.tags[l],
                    stamp: self.stamp[l],
                    dirty: self.dirty[l],
                });
            }
        }
    }
}

/// One set-associative tag array with LRU replacement. L1 arrays also track
/// a per-way dirty bit mirroring the directory's `dirty_in` field, which is
/// what lets the write-hit fast path in [`Hierarchy::access`] skip the
/// directory entirely.
///
/// Storage follows the lines the array holds. The sets of a *group* share
/// one chain of [`Lanes`] blocks, and a lane holds a line of any of them —
/// its full tag names its set. `heads` holds each group's chain, one
/// pointer a group. A chain grows a block only when a fill finds no empty
/// lane in it, and never shrinks, so building, cloning (the snapshot) and
/// dropping an array cost what the run has filled, not what the modelled
/// cache could hold.
///
/// Each set is exactly an LRU set of `ways` ways: a fill counts the lines
/// of its set as it walks the chain, and a set that holds `ways` lines
/// evicts its own LRU line even where other lanes are empty. Each probe
/// and fill stamps at most one lane with a fresh tick, so stamps are
/// unique and the LRU line is the one a flat array of ways would evict.
#[derive(Clone)]
struct TagArray {
    sets: usize,
    ways: usize,
    /// Sets per group, as a shift: [`L1_GROUP_SHIFT`] or [`L2_GROUP_SHIFT`].
    group_shift: u32,
    /// Each group's chain.
    heads: Vec<Chain>,
    tick: u64,
    journal: JournalSlot,
}

impl TagArray {
    fn new(cfg: CacheConfig, group_shift: u32) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        TagArray {
            sets,
            ways: cfg.ways,
            group_shift,
            heads: vec![None; sets.div_ceil(1 << group_shift)],
            tick: 0,
            journal: JournalSlot(None),
        }
    }

    /// The set `line` maps to, and its group.
    #[inline(always)]
    fn set_of(&self, line: u64) -> (usize, usize) {
        let set = line as usize & (self.sets - 1);
        (set, set >> self.group_shift)
    }

    /// The bits of a set that tell the sets of a group apart.
    #[inline(always)]
    fn group_mask(&self) -> usize {
        (1 << self.group_shift) - 1
    }

    /// Every block, chain by chain.
    fn for_each_block(&mut self, mut f: impl FnMut(&mut Lanes)) {
        for head in &mut self.heads {
            let mut block = head.as_deref_mut();
            while let Some(lanes) = block {
                f(lanes);
                block = lanes.next.as_deref_mut();
            }
        }
    }

    /// The block and lane holding `line`. Walks the group's chain,
    /// matching partial tags, then full tags ([`Lanes::lane_of`]).
    #[inline(always)]
    fn find(&self, line: u64) -> Option<(&Lanes, usize)> {
        let mut block = self.heads[self.set_of(line).1].as_deref();
        while let Some(lanes) = block {
            if let Some(l) = lanes.lane_of(line) {
                return Some((lanes, l));
            }
            block = lanes.next.as_deref();
        }
        None
    }

    /// Find the lane holding `line`, log its pre-image — every caller is
    /// about to write it — and hand out its block, lane and slot.
    #[inline(always)]
    fn touch(&mut self, line: u64) -> Option<(&mut Lanes, usize, Slot)> {
        let g = self.set_of(line).1;
        let mut block = self.heads[g].as_deref_mut();
        let mut pos = 0;
        while let Some(lanes) = block {
            if let Some(l) = lanes.lane_of(line) {
                let slot = Slot::new(g, pos, l);
                lanes.log(l, slot, &mut self.journal);
                return Some((lanes, l, slot));
            }
            block = lanes.next.as_deref_mut();
            pos += 1;
        }
        None
    }

    /// Start the next journal epoch at the current tick: forget the undo
    /// log and outdate every mark by moving `cur` past it.
    fn next_epoch(&mut self) {
        let j = self.journal.0.as_deref_mut().expect("journal is armed");
        j.undo.clear();
        j.tick0 = self.tick;
        j.cur = j.cur.wrapping_add(1);
        if j.cur == 0 {
            // Epoch counter wrapped (once per 2^16 arms): old marks could
            // alias the fresh epoch, so clear them all.
            j.cur = 1;
            self.for_each_block(|lanes| lanes.mark = INITIAL.mark);
        }
    }

    /// Arm (or re-arm) the undo journal: from now until the next arm or
    /// revert, mutated lanes record their pre-images. Allocates nothing
    /// after the first call and touches no lane.
    fn arm_journal(&mut self) {
        self.journal.0.get_or_insert_with(Box::default);
        self.next_epoch();
    }

    /// Undo every lane mutation since the journal was armed and re-arm for
    /// the next epoch. O(lanes touched since arming). A block linked since
    /// arming stays in its chain, every lane back in the initial state —
    /// which is what its absence meant.
    fn revert(&mut self) {
        let j = self
            .journal
            .0
            .as_deref()
            .expect("revert without an armed journal");
        for u in &j.undo {
            let (pos, l) = u.slot.split();
            // Chains never shrink, so a logged lane's block is there.
            let lanes = block_at(&mut self.heads[u.slot.group as usize], pos);
            lanes.set_tag(l, u.tag);
            lanes.stamp[l] = u.stamp;
            lanes.dirty[l] = u.dirty;
        }
        self.tick = j.tick0;
        self.next_epoch();
    }

    /// Overwrite this array's state from `src` (same geometry), reusing
    /// the existing blocks — the cold restore path. Each chain takes its
    /// blocks' lanes from `src`'s, block by block; a block `src` lacks is
    /// reset to initial lanes in place, and one only `src` has is linked.
    /// Marks are not state and are never taken from `src`: they are reset,
    /// so the re-arm that follows outdates them all, while `src`'s date
    /// from whatever epoch it was cloned in — possibly before `cur` last
    /// wrapped — and could make a lane look logged in an epoch in which it
    /// never was.
    fn copy_state_from(&mut self, src: &TagArray) {
        debug_assert_eq!(
            (self.sets, self.ways, self.group_shift),
            (src.sets, src.ways, src.group_shift)
        );
        for (mut dst, src) in self.heads.iter_mut().zip(&src.heads) {
            let mut src = src.as_deref();
            while dst.is_some() || src.is_some() {
                let d = dst.get_or_insert_with(initial_block);
                let s = src.unwrap_or(&INITIAL);
                (d.ptag, d.tags, d.stamp, d.dirty) = (s.ptag, s.tags, s.stamp, s.dirty);
                d.mark = INITIAL.mark;
                src = src.and_then(|s| s.next.as_deref());
                dst = &mut d.next;
            }
        }
        self.tick = src.tick;
    }

    /// Set the dirty bit of an already-probed lane (write upgrade on an L1
    /// hit).
    fn mark_dirty(&mut self, slot: Slot) {
        let (pos, l) = slot.split();
        let lanes = block_at(&mut self.heads[slot.group as usize], pos);
        lanes.log(l, slot, &mut self.journal);
        lanes.dirty[l] = true;
    }

    /// Probe for `line`; on hit, refresh LRU and return the lane's slot and
    /// whether it is dirty. A miss still advances the tick.
    #[inline(always)]
    fn probe(&mut self, line: u64) -> Option<(Slot, bool)> {
        self.tick += 1;
        let tick = self.tick;
        let (lanes, l, slot) = self.touch(line)?;
        lanes.stamp[l] = tick;
        Some((slot, lanes.dirty[l]))
    }

    /// Insert `line` with the given dirty state, evicting the LRU line of
    /// its set if the set is full. Returns the evicted line and whether it
    /// was dirty. The one operation that links a block.
    fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let (set, g) = self.set_of(line);
        self.tick += 1;
        // One pass over the chain: the line if it is there already (races
        // with coherence bookkeeping); else how many lines its set holds,
        // the first empty lane and the chain's length. Lanes are named by
        // their block's place in the chain.
        let (mut held, mut present, mut empty, mut pos) = (0, None, None, 0);
        let mut block = self.heads[g].as_deref();
        while let Some(lanes) = block {
            if let Some(l) = lanes.lane_of(line) {
                present = Some((pos, l));
                break;
            }
            let (mine, empties) = lanes.classify(set, self.group_mask());
            if empty.is_none() && empties != 0 {
                empty = Some((pos, empties.trailing_zeros() as usize));
            }
            held += mine.count_ones() as usize;
            block = lanes.next.as_deref();
            pos += 1;
        }
        let full = present.is_none() && held >= self.ways;
        let (pos, l) = match (present, empty) {
            (Some(at), _) => at,
            _ if full => self.lru(set),
            (None, Some(at)) => at,
            // A block linked at the chain's end.
            (None, None) => (pos, 0),
        };
        let lanes = block_at(&mut self.heads[g], pos);
        lanes.log(l, Slot::new(g, pos, l), &mut self.journal);
        lanes.stamp[l] = self.tick;
        if present.is_some() {
            lanes.dirty[l] |= dirty;
            return None;
        }
        let evicted = full.then_some((lanes.tags[l], lanes.dirty[l]));
        lanes.set_tag(l, line);
        lanes.dirty[l] = dirty;
        evicted
    }

    /// The lane of `set`'s LRU line, named as [`TagArray::fill`] names it:
    /// the lowest stamp among the set's lines, which is unique.
    fn lru(&self, set: usize) -> (usize, usize) {
        let (mut lru, mut lru_stamp, mut pos) = ((0, 0), u64::MAX, 0);
        let mut block = self.heads[set >> self.group_shift].as_deref();
        while let Some(lanes) = block {
            let (mut mine, _) = lanes.classify(set, self.group_mask());
            while mine != 0 {
                let l = mine.trailing_zeros() as usize;
                if lanes.stamp[l] < lru_stamp {
                    (lru, lru_stamp) = ((pos, l), lanes.stamp[l]);
                }
                mine &= mine - 1;
            }
            block = lanes.next.as_deref();
            pos += 1;
        }
        lru
    }

    /// Drop `line` if present (remote invalidation / inclusion victim).
    fn invalidate(&mut self, line: u64) -> bool {
        let Some((lanes, l, _)) = self.touch(line) else {
            return false;
        };
        lanes.set_tag(l, EMPTY);
        lanes.dirty[l] = false;
        true
    }

    /// Clear the dirty bit of `line` if present (downgrade to shared).
    fn clear_dirty(&mut self, line: u64) {
        if let Some((lanes, l, _)) = self.touch(line) {
            lanes.dirty[l] = false;
        }
    }
}

/// Keyed by line number through the workspace's integer hasher: SipHash
/// would cost more than the rest of a directory operation combined.
type DirMap = crate::IntMap<u64, DirEntry>;

/// Cores a machine may have: [`DirEntry::sharers`] holds one bit a core
/// (`Sim::new` refuses more).
pub(crate) const MAX_CORES: usize = u16::BITS as usize;

/// Directory entry: which cores' L1s hold the line, and whether one of them
/// holds it modified.
#[derive(Clone, Copy, Default)]
struct DirEntry {
    /// Bit `c` for core `c`.
    sharers: u16,
    dirty_in: Option<u8>,
}

/// Why a best-effort hardware transaction was doomed (TSX-style).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HtmAbort {
    /// A coherence action hit the transactional footprint: a remote write
    /// touched a tracked line, or a remote read touched a write-set line.
    Conflict,
    /// A tracked line was evicted from the owning core's L1 — the
    /// transactional read/write set overflowed the cache.
    Capacity,
}

type LineSet = HashSet<u64, std::hash::BuildHasherDefault<crate::IntHasher>>;

/// Per-core hardware-transaction tracking: which lines the running
/// transaction has touched, and whether a coherence event or eviction has
/// already doomed it. Membership-only (iteration order never observed), so
/// the `HashSet` stays deterministic.
#[derive(Clone, Default)]
struct TxTrack {
    active: bool,
    doomed: Option<HtmAbort>,
    read_lines: LineSet,
    write_lines: LineSet,
}

impl TxTrack {
    /// Become a copy of `src` in the line sets this track already has.
    fn rewind_to(&mut self, src: &TxTrack) {
        self.active = src.active;
        self.doomed = src.doomed;
        self.read_lines.clear();
        self.read_lines.extend(&src.read_lines);
        self.write_lines.clear();
        self.write_lines.extend(&src.write_lines);
    }
}

/// The full cache hierarchy of the simulated machine. `Clone` exists for
/// the checkpoint layer: a machine snapshot carries a copy of the
/// tag arrays' blocks (and their dirty mirrors), the directory,
/// and the HTM tracking state — O(what the machine has touched).
#[derive(Clone)]
pub struct Hierarchy {
    l1: Vec<TagArray>,
    l2: Vec<TagArray>,
    dir: DirMap,
    stats: Vec<CacheStats>,
    tx: Vec<TxTrack>,
    /// Bit per core with a live, not-yet-doomed hardware transaction. The
    /// zero test keeps the per-access tracking hooks off the hot path for
    /// the (default) software backends; a doom clears the core's bit so a
    /// dead transaction stops paying for tracking too.
    htm_active: u64,
    /// Snapshot id the per-array undo journals are armed for (0 = none).
    /// Meaningful only on the live hierarchy; a cloned (snapshot) copy
    /// carries disarmed journals and this field is never consulted on it.
    journal_for: u64,
    /// Socket of each core: [`MachineConfig::socket_of`], looked up
    /// instead of divided on every miss.
    socket: [u8; MAX_CORES],
    cfg: MachineConfig,
}

impl Hierarchy {
    pub fn new(cfg: &MachineConfig) -> Self {
        Hierarchy {
            l1: (0..cfg.cores)
                .map(|_| TagArray::new(cfg.l1, L1_GROUP_SHIFT))
                .collect(),
            l2: (0..cfg.sockets())
                .map(|_| TagArray::new(cfg.l2, L2_GROUP_SHIFT))
                .collect(),
            dir: DirMap::default(),
            stats: vec![CacheStats::default(); cfg.cores],
            tx: (0..cfg.cores).map(|_| TxTrack::default()).collect(),
            htm_active: 0,
            journal_for: 0,
            socket: std::array::from_fn(|c| cfg.socket_of(c) as u8),
            cfg: cfg.clone(),
        }
    }

    /// Socket that `core` belongs to.
    #[inline]
    pub(crate) fn socket_of(&self, core: usize) -> usize {
        self.socket[core] as usize
    }

    pub fn stats(&self, core: usize) -> CacheStats {
        self.stats[core]
    }

    /// Arm the per-array undo journals relative to snapshot `snap_id`:
    /// until the next arm or restore, the first mutation of each tag-array
    /// lane records its pre-image, letting [`Hierarchy::restore_from`]
    /// rewind in O(lanes touched) instead of re-copying every block.
    /// O(arrays): the marks live with the lanes, so nothing is allocated
    /// or cleared.
    pub(crate) fn arm_journal(&mut self, snap_id: u64) {
        for a in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            a.arm_journal();
        }
        self.journal_for = snap_id;
    }

    /// Rewind to `snap`, the hierarchy captured by snapshot `snap_id`.
    /// Fast path: when the live journals were armed by exactly that
    /// snapshot, revert the logged lanes in place. Cold path (journals
    /// armed for a different snapshot, or never): copy the snapshot's
    /// heads and blocks, reusing the existing allocations. The directory, stats, and HTM
    /// tracking are bounded by L1 residency and copied outright either way
    /// — the directory and the line sets entry by entry into the tables
    /// they already have, which keep the capacity a run grew them to
    /// (nothing iterates either, so their order is not state) — and the
    /// journals end re-armed for `snap_id`.
    pub(crate) fn restore_from(&mut self, snap: &Hierarchy, snap_id: u64) {
        if snap_id != 0 && self.journal_for == snap_id {
            for a in self.l1.iter_mut().chain(self.l2.iter_mut()) {
                a.revert();
            }
        } else {
            for (dst, src) in self.l1.iter_mut().zip(&snap.l1) {
                dst.copy_state_from(src);
            }
            for (dst, src) in self.l2.iter_mut().zip(&snap.l2) {
                dst.copy_state_from(src);
            }
            for a in self.l1.iter_mut().chain(self.l2.iter_mut()) {
                a.arm_journal();
            }
        }
        self.dir.clear();
        self.dir
            .extend(snap.dir.iter().map(|(&line, &e)| (line, e)));
        self.stats.clone_from(&snap.stats);
        for (dst, src) in self.tx.iter_mut().zip(&snap.tx) {
            dst.rewind_to(src);
        }
        self.htm_active = snap.htm_active;
        self.journal_for = snap_id;
    }

    /// Start tracking a hardware transaction on `core`. Every subsequent
    /// [`Hierarchy::access`] by that core joins the transactional footprint
    /// until [`Hierarchy::htm_end`].
    pub fn htm_begin(&mut self, core: usize) {
        let t = &mut self.tx[core];
        t.active = true;
        t.doomed = None;
        t.read_lines.clear();
        t.write_lines.clear();
        self.htm_active |= 1 << core;
    }

    /// Stop tracking on `core` and return the doom verdict, if any. Clears
    /// all transactional state; idempotent (a second call returns `None`).
    pub fn htm_end(&mut self, core: usize) -> Option<HtmAbort> {
        let t = &mut self.tx[core];
        let doom = t.doomed;
        t.active = false;
        t.doomed = None;
        t.read_lines.clear();
        t.write_lines.clear();
        self.htm_active &= !(1 << core);
        doom
    }

    /// Doom verdict of `core`'s running transaction without ending it.
    pub fn htm_doomed(&self, core: usize) -> Option<HtmAbort> {
        self.tx[core].doomed
    }

    /// Record `line` in `core`'s transactional footprint (no-op when no
    /// transaction is active or it is already doomed).
    #[inline]
    fn htm_note_access(&mut self, core: usize, line: u64, write: bool) {
        if self.htm_active & (1 << core) == 0 {
            return;
        }
        let t = &mut self.tx[core];
        if write {
            t.write_lines.insert(line);
        } else {
            t.read_lines.insert(line);
        }
    }

    /// A coherence action by another core reached `line`. A remote *write*
    /// conflicts with both read- and write-set membership; a remote *read*
    /// (downgrade) conflicts only with the write set.
    #[inline]
    fn htm_conflict(&mut self, core: usize, line: u64, remote_write: bool) {
        if self.htm_active & (1 << core) == 0 {
            return;
        }
        let t = &mut self.tx[core];
        if t.write_lines.contains(&line) || (remote_write && t.read_lines.contains(&line)) {
            t.doomed = Some(HtmAbort::Conflict);
            self.htm_active &= !(1 << core);
        }
    }

    /// `line` was evicted from `core`'s own L1; a tracked line leaving the
    /// cache means the hardware can no longer police it — capacity abort.
    #[inline]
    fn htm_evict(&mut self, core: usize, line: u64) {
        if self.htm_active & (1 << core) == 0 {
            return;
        }
        let t = &mut self.tx[core];
        if t.read_lines.contains(&line) || t.write_lines.contains(&line) {
            t.doomed = Some(HtmAbort::Capacity);
            self.htm_active &= !(1 << core);
        }
    }

    /// Simulate one data access by `core` and return its cycle cost.
    ///
    /// Nineteen accesses in twenty are L1 hits, so this front — all a read
    /// hit or an exclusive-dirty write hit executes — is inlined into every
    /// event path and does only what a hit needs: count the access, probe
    /// (one tick, one stamp, at most one journal record) and return the hit
    /// cost. It reads no topology and touches no directory state; the two
    /// out-of-line continuations, [`Hierarchy::upgrade`] and
    /// [`Hierarchy::miss`], are the only writers of that.
    #[inline(always)]
    pub fn access(&mut self, core: usize, addr: u64, write: bool) -> u64 {
        let line = addr / LINE;
        self.stats[core].l1_accesses += 1;
        self.htm_note_access(core, line, write);
        match self.l1[core].probe(line) {
            // Read hit, or exclusive-dirty write hit: the dirty bit mirrors
            // `dirty_in == Some(core)`, which implies we are the only
            // sharer — nothing to invalidate, no directory state to change.
            // This is the hottest path in write-heavy transactional
            // workloads (repeated writes to owned lines) and costs one tag
            // probe, total.
            Some((_, dirty)) if dirty || !write => self.cfg.cost.l1_hit,
            Some((slot, _)) => self.upgrade(core, line, slot),
            None => self.miss(core, line, write),
        }
    }

    /// What [`Hierarchy::access`] would charge `core` for `addr` if that
    /// access needs no coherence action — the line is in `core`'s L1, and
    /// dirty there for a write — else `None`. Mutates nothing, so a spin
    /// can ask before it folds repeats of an access ([`Hierarchy::repeat`]).
    pub(crate) fn repeat_cost(&self, core: usize, addr: u64, write: bool) -> Option<u64> {
        let (lanes, l) = self.l1[core].find(addr / LINE)?;
        (lanes.dirty[l] || !write).then_some(self.cfg.cost.l1_hit)
    }

    /// Apply `k ≥ 1` accesses [`Hierarchy::repeat_cost`] priced, in one
    /// step: what `k` calls of [`Hierarchy::access`] would do — `k` L1
    /// accesses counted, the L1's tick advanced by `k` and the way stamped
    /// with it, the line noted in a live hardware transaction's footprint.
    pub(crate) fn repeat(&mut self, core: usize, addr: u64, write: bool, k: u64) {
        debug_assert!(k > 0, "a repeat of no access");
        let line = addr / LINE;
        self.stats[core].l1_accesses += k;
        self.htm_note_access(core, line, write);
        let l1 = &mut self.l1[core];
        l1.tick += k;
        let tick = l1.tick;
        let (lanes, l, _) = l1.touch(line).expect("a repeated access hits in L1");
        lanes.stamp[l] = tick;
    }

    /// Write hit on a line `core` holds clean: invalidate any other sharers
    /// and take the line exclusive-dirty.
    #[inline(never)]
    fn upgrade(&mut self, core: usize, line: u64, slot: Slot) -> u64 {
        let me = 1u16 << core;
        let cost_model = self.cfg.cost;
        let mut cost = cost_model.l1_hit;
        let e = self.dir.entry(line).or_default();
        let others = e.sharers & !me;
        e.sharers = me;
        e.dirty_in = Some(core as u8);
        if others != 0 {
            cost += cost_model.transfer_same_socket;
            self.invalidate_mask(line, others, core);
        }
        self.l1[core].mark_dirty(slot);
        cost
    }

    /// L1 miss: fetch `line` from a remote L1, the socket's L2 or memory,
    /// update the directory and fill `core`'s L1.
    #[inline(never)]
    fn miss(&mut self, core: usize, line: u64, write: bool) -> u64 {
        let me = 1u16 << core;
        let my_socket = self.socket_of(core);
        let cost_model = self.cfg.cost;
        let mut cost;
        self.stats[core].l1_misses += 1;
        let entry = self.dir.get(&line).copied().unwrap_or_default();
        if let Some(owner) = entry.dirty_in.filter(|&o| o as usize != core) {
            // Dirty in a remote L1: cache-to-cache transfer.
            self.stats[core].coherence_transfers += 1;
            let owner_socket = self.socket_of(owner as usize);
            cost = cost_model.l1_hit
                + if owner_socket == my_socket {
                    cost_model.transfer_same_socket
                } else {
                    cost_model.transfer_cross_socket
                };
            if write {
                // RFO: the remote copy is invalidated.
                self.invalidate_mask(line, 1u16 << owner, core);
                let e = self.dir.entry(line).or_default();
                e.sharers = me;
                e.dirty_in = Some(core as u8);
            } else {
                // Downgrade to shared; the data also lands in our L2. The
                // owner keeps a clean copy, so its dirty bit clears too. A
                // remote read of a write-set line dooms the owner's
                // hardware transaction.
                self.l1[owner as usize].clear_dirty(line);
                self.htm_conflict(owner as usize, line, false);
                let e = self.dir.entry(line).or_default();
                e.dirty_in = None;
                e.sharers |= me;
                self.fill_l2(my_socket, line);
            }
        } else {
            // Clean miss: go to the shared L2, then memory.
            self.stats[core].l2_accesses += 1;
            if self.l2[my_socket].probe(line).is_some() {
                cost = cost_model.l1_hit + cost_model.l2_hit;
            } else {
                self.stats[core].l2_misses += 1;
                cost = cost_model.l1_hit + cost_model.l2_hit + cost_model.mem;
                self.fill_l2(my_socket, line);
            }
            if write {
                let others = entry.sharers & !me;
                if others != 0 {
                    cost += cost_model.transfer_same_socket;
                    self.invalidate_mask(line, others, core);
                }
                let e = self.dir.entry(line).or_default();
                e.sharers = me;
                e.dirty_in = Some(core as u8);
            } else {
                let e = self.dir.entry(line).or_default();
                e.sharers |= me;
            }
        }

        // Fill our L1 (dirty iff this was a write — matching the directory
        // state set above) and keep the directory consistent with the
        // eviction.
        if let Some((evicted, evicted_dirty)) = self.l1[core].fill(line, write) {
            self.htm_evict(core, evicted);
            let mut write_back = false;
            if let Some(e) = self.dir.get_mut(&evicted) {
                e.sharers &= !me;
                if e.dirty_in == Some(core as u8) {
                    e.dirty_in = None; // write-back to L2/memory, not charged
                    write_back = true;
                }
                if e.sharers == 0 {
                    self.dir.remove(&evicted);
                }
            }
            // The per-way dirty bit must agree with the directory's view of
            // who held the line modified.
            debug_assert_eq!(evicted_dirty, write_back);
            if write_back {
                self.fill_l2(my_socket, evicted);
            }
        }
        cost
    }

    fn fill_l2(&mut self, socket: usize, line: u64) {
        // Non-inclusive L2; evictions need no L1 back-invalidation (the
        // dirty bit is L1-only, so it is always false here).
        let _ = self.l2[socket].fill(line, false);
    }

    fn invalidate_mask(&mut self, line: u64, mask: u16, _requester: usize) {
        for c in 0..self.cfg.cores {
            if mask & (1 << c) != 0 {
                self.htm_conflict(c, line, true);
                if self.l1[c].invalidate(line) {
                    self.stats[c].invalidations += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Candidates `Lanes::lane_of` took on their partial tag and then
        /// rejected on the full one, on this thread.
        pub(super) static COLLISIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn machine() -> MachineConfig {
        MachineConfig::tiny_test()
    }

    /// Every block's partial-tag word is what its tags make.
    fn assert_ptags(a: &TagArray) {
        for lanes in blocks(a) {
            let want = (0..LANES).fold(0, |w, l| w | ptag_of(lanes.tags[l]) << (8 * l));
            assert_eq!(lanes.ptag, want, "partial tags of {:x?}", lanes.tags);
        }
    }

    /// Every block, chain by chain.
    fn blocks(a: &TagArray) -> impl Iterator<Item = &Lanes> {
        a.heads
            .iter()
            .flat_map(|head| std::iter::successors(head.as_deref(), |lanes| lanes.next.as_deref()))
    }

    /// The blocks of the chain of `set`'s group, in chain order.
    fn chain(a: &TagArray, set: usize) -> Vec<&Lanes> {
        let head = a.heads[set >> a.group_shift].as_deref();
        std::iter::successors(head, |lanes| lanes.next.as_deref()).collect()
    }

    /// Every lane of the chain of `set`'s group, in chain order: `(tag,
    /// stamp, dirty)`.
    fn lanes_of(a: &TagArray, set: usize) -> Vec<(u64, u64, bool)> {
        let lanes = |lanes: &Lanes| {
            let lanes = lanes.clone();
            (0..LANES).map(move |l| (lanes.tags[l], lanes.stamp[l], lanes.dirty[l]))
        };
        chain(a, set).into_iter().flat_map(lanes).collect()
    }

    /// Way `w` of `set` of an array whose groups are one set: lane
    /// `w % LANES` of the chain's block `w / LANES`, an absent block read
    /// as the initial state it stands for.
    fn way(a: &TagArray, set: usize, w: usize) -> (u64, u64, bool) {
        assert_eq!(a.group_shift, 0, "a lane is a way in a group of one set");
        let initial = (EMPTY, 0, false);
        lanes_of(a, set).get(w).copied().unwrap_or(initial)
    }

    /// The lines `set` holds, with their stamps and dirty bits, by tag: the
    /// state of a set, whichever lanes hold it.
    fn lines_of(a: &TagArray, set: usize) -> Vec<(u64, u64, bool)> {
        let in_set =
            |&(tag, ..): &(u64, u64, bool)| tag != EMPTY && tag as usize & (a.sets - 1) == set;
        let mut lines: Vec<_> = lanes_of(a, set).into_iter().filter(in_set).collect();
        lines.sort_unstable();
        lines
    }

    /// Where `slot` sits in the chain of `set`'s group: `LANES` for each
    /// block before its own, plus its lane — its way, in a group of one
    /// set.
    fn position(a: &TagArray, set: usize, slot: Slot) -> usize {
        assert_eq!(
            slot.group as usize,
            set >> a.group_shift,
            "the slot is in the chain"
        );
        slot.at as usize
    }

    /// Where the lane holding `line` sits in its chain, if one does.
    fn position_of(a: &TagArray, line: u64) -> Option<usize> {
        let set = line as usize & (a.sets - 1);
        lanes_of(a, set).iter().position(|&(tag, ..)| tag == line)
    }

    /// Logical equality: the same lines in each set with the same stamps
    /// and dirty bits, the same tick and the same directory. Which lanes
    /// hold a set's lines, and which blocks exist, is not state (a block of
    /// initial lanes equals an absent one), so only the sets of groups with
    /// a chain on either side are walked; neither are the journal's marks.
    fn assert_arrays_match(live: &Hierarchy, snap: &Hierarchy) {
        assert_match_in(live, snap, |a, b| {
            let chained =
                (0..a.heads.len()).filter(|&g| a.heads[g].is_some() || b.heads[g].is_some());
            let sets_of = |g: usize| g << a.group_shift..((g + 1) << a.group_shift).min(a.sets);
            chained.flat_map(sets_of).collect()
        });
    }

    /// [`assert_arrays_match`] over the sets `sets_of` names for a pair of
    /// arrays (it must name every set the two can differ in). The partial
    /// tags of each side must be its own tags'.
    fn assert_match_in(
        live: &Hierarchy,
        snap: &Hierarchy,
        sets_of: impl Fn(&TagArray, &TagArray) -> Vec<usize>,
    ) {
        for (a, b) in live
            .l1
            .iter()
            .zip(&snap.l1)
            .chain(live.l2.iter().zip(&snap.l2))
        {
            assert_ptags(a);
            assert_ptags(b);
            for set in sets_of(a, b) {
                assert_eq!(lines_of(a, set), lines_of(b, set), "set {set}");
            }
            assert_eq!(a.tick, b.tick);
        }
        assert_eq!(live.htm_active, snap.htm_active);
        assert_eq!(live.dir.len(), snap.dir.len());
        for (line, e) in &live.dir {
            let other = snap.dir.get(line).map(|o| (o.sharers, o.dirty_in));
            assert_eq!(Some((e.sharers, e.dirty_in)), other, "line {line:#x}");
        }
    }

    #[test]
    fn repeated_access_hits_l1() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        let first = h.access(0, 0x1000, false);
        let again = h.access(0, 0x1000, false);
        assert!(first > again);
        assert_eq!(again, cfg.cost.l1_hit);
        assert_eq!(h.stats(0).l1_misses, 1);
        assert_eq!(h.stats(0).l1_accesses, 2);
    }

    #[test]
    fn same_line_shares_fill() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        h.access(0, 0x1000, false);
        // Another word in the same 64-byte line: L1 hit.
        assert_eq!(h.access(0, 0x1038, false), cfg.cost.l1_hit);
    }

    #[test]
    fn journal_revert_matches_the_snapshot_exactly() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        // Pre-snapshot traffic: some lines cached, shared, and dirty.
        for i in 0..64u64 {
            h.access((i % 2) as usize, 0x1000 + i * 0x40, i % 3 == 0);
        }
        let snap = h.clone();
        h.arm_journal(7);

        // Post-snapshot traffic forcing hits, fills, evictions,
        // invalidations, downgrades, and HTM tracking churn.
        h.htm_begin(0);
        for i in 0..512u64 {
            h.access((i % 2) as usize, 0x9000 + i * 0x19, i % 2 == 0);
        }
        let _ = h.htm_end(0);

        // Fast path: journals were armed for id 7.
        h.restore_from(&snap, 7);
        assert_arrays_match(&h, &snap);

        // Cold path: mutate again, then restore with a mismatched id.
        for i in 0..64u64 {
            h.access(1, 0x400 + i * 0x40, true);
        }
        h.restore_from(&snap, 99);
        assert_arrays_match(&h, &snap);
    }

    /// `Hierarchy::access` as one function, and an early-exit scan of each
    /// block's tags under it: the unsplit definition the inlined front,
    /// `upgrade`, `miss` and the mask scan of `Lanes::lane_of` are held to.
    /// `access_reference` is kept verbatim from the implementation it was
    /// (the scan walks a group's chain as `TagArray::touch` does); do not
    /// "improve" it.
    impl TagArray {
        /// Find the lane holding `line`, log its pre-image — every caller is
        /// about to write it — and hand out its block, lane and slot.
        #[inline(always)]
        fn touch_reference(&mut self, line: u64) -> Option<(&mut Lanes, usize, Slot)> {
            let g = self.set_of(line).1;
            let mut block = self.heads[g].as_deref_mut();
            let mut pos = 0;
            while let Some(lanes) = block {
                if let Some(l) = lanes.tags.iter().position(|&t| t == line) {
                    let slot = Slot::new(g, pos, l);
                    lanes.log(l, slot, &mut self.journal);
                    return Some((lanes, l, slot));
                }
                block = lanes.next.as_deref_mut();
                pos += 1;
            }
            None
        }

        /// Probe for `line`; on hit, refresh LRU and return the lane's slot
        /// and whether it is dirty. A miss still advances the tick.
        #[inline(always)]
        fn probe_reference(&mut self, line: u64) -> Option<(Slot, bool)> {
            self.tick += 1;
            let tick = self.tick;
            let (lanes, l, slot) = self.touch_reference(line)?;
            lanes.stamp[l] = tick;
            Some((slot, lanes.dirty[l]))
        }
    }

    impl Hierarchy {
        /// Simulate one data access by `core` and return its cycle cost.
        fn access_reference(&mut self, core: usize, addr: u64, write: bool) -> u64 {
            let line = addr / LINE;
            let me = 1u16 << core;
            let my_socket = self.cfg.socket_of(core);
            let cost_model = self.cfg.cost;
            self.stats[core].l1_accesses += 1;
            self.htm_note_access(core, line, write);

            let mut cost;
            if let Some((slot, dirty)) = self.l1[core].probe_reference(line) {
                cost = cost_model.l1_hit;
                if write {
                    if dirty {
                        // Exclusive-dirty write hit: the dirty bit mirrors
                        // `dirty_in == Some(core)`, which implies we are the
                        // only sharer — nothing to invalidate, no directory
                        // state to change. This is the hottest path in write-
                        // heavy transactional workloads (repeated writes to
                        // owned lines) and costs one tag probe, total.
                        return cost;
                    }
                    // Upgrade: invalidate any other sharers.
                    let e = self.dir.entry(line).or_default();
                    let others = e.sharers & !me;
                    e.sharers = me;
                    e.dirty_in = Some(core as u8);
                    if others != 0 {
                        cost += cost_model.transfer_same_socket;
                        self.invalidate_mask(line, others, core);
                    }
                    self.l1[core].mark_dirty(slot);
                }
                return cost;
            }

            // L1 miss.
            self.stats[core].l1_misses += 1;
            let entry = self.dir.get(&line).copied().unwrap_or_default();
            if let Some(owner) = entry.dirty_in.filter(|&o| o as usize != core) {
                // Dirty in a remote L1: cache-to-cache transfer.
                self.stats[core].coherence_transfers += 1;
                let owner_socket = self.cfg.socket_of(owner as usize);
                cost = cost_model.l1_hit
                    + if owner_socket == my_socket {
                        cost_model.transfer_same_socket
                    } else {
                        cost_model.transfer_cross_socket
                    };
                if write {
                    // RFO: the remote copy is invalidated.
                    self.invalidate_mask(line, 1u16 << owner, core);
                    let e = self.dir.entry(line).or_default();
                    e.sharers = me;
                    e.dirty_in = Some(core as u8);
                } else {
                    // Downgrade to shared; the data also lands in our L2. The
                    // owner keeps a clean copy, so its dirty bit clears too. A
                    // remote read of a write-set line dooms the owner's
                    // hardware transaction.
                    self.l1[owner as usize].clear_dirty(line);
                    self.htm_conflict(owner as usize, line, false);
                    let e = self.dir.entry(line).or_default();
                    e.dirty_in = None;
                    e.sharers |= me;
                    self.fill_l2(my_socket, line);
                }
            } else {
                // Clean miss: go to the shared L2, then memory.
                self.stats[core].l2_accesses += 1;
                if self.l2[my_socket].probe_reference(line).is_some() {
                    cost = cost_model.l1_hit + cost_model.l2_hit;
                } else {
                    self.stats[core].l2_misses += 1;
                    cost = cost_model.l1_hit + cost_model.l2_hit + cost_model.mem;
                    self.fill_l2(my_socket, line);
                }
                if write {
                    let others = entry.sharers & !me;
                    if others != 0 {
                        cost += cost_model.transfer_same_socket;
                        self.invalidate_mask(line, others, core);
                    }
                    let e = self.dir.entry(line).or_default();
                    e.sharers = me;
                    e.dirty_in = Some(core as u8);
                } else {
                    let e = self.dir.entry(line).or_default();
                    e.sharers |= me;
                }
            }

            // Fill our L1 (dirty iff this was a write — matching the directory
            // state set above) and keep the directory consistent with the
            // eviction.
            if let Some((evicted, evicted_dirty)) = self.l1[core].fill(line, write) {
                self.htm_evict(core, evicted);
                let mut write_back = false;
                if let Some(e) = self.dir.get_mut(&evicted) {
                    e.sharers &= !me;
                    if e.dirty_in == Some(core as u8) {
                        e.dirty_in = None; // write-back to L2/memory, not charged
                        write_back = true;
                    }
                    if e.sharers == 0 {
                        self.dir.remove(&evicted);
                    }
                }
                // The per-way dirty bit must agree with the directory's view of
                // who held the line modified.
                debug_assert_eq!(evicted_dirty, write_back);
                if write_back {
                    self.fill_l2(my_socket, evicted);
                }
            }
            cost
        }
    }

    /// The tag array as three flat `Vec`s and a journal with its own
    /// per-way epoch `Vec` — the dense definition the sparse `TagArray` is
    /// held to. Kept verbatim from the implementation it was, but for one
    /// rule: a fill of a line the set holds refreshes that way, where the
    /// old scan stopped at the first empty way before it and put a second
    /// copy there. No hierarchy reaches that state — an L1 is filled only
    /// after its probe missed, and no L2 way is ever emptied — and where
    /// sets share their lanes no way comes before another. Do not
    /// "improve" it otherwise.
    mod dense {
        use super::super::{CacheConfig, EMPTY};

        /// Pre-image of one tag-array way, recorded the first time the way is
        /// mutated after the journal is (re-)armed.
        struct SlotUndo {
            slot: u32,
            tag: u64,
            stamp: u64,
            dirty: bool,
        }

        /// Undo journal for in-place snapshot restore. The tag arrays of a real
        /// machine are megabytes (the E5405 model carries two 98 304-way L2
        /// arrays), but a single bounded run touches a few hundred ways, so the
        /// checkpoint layer's restore-per-schedule loop must not pay a full-array
        /// copy each time. While armed, the first mutation of each way logs its
        /// pre-image (`epoch` marks "already logged this epoch" without any
        /// per-arm clearing), and a revert rewinds exactly the logged ways plus
        /// the LRU tick.
        pub struct Journal {
            /// Per-way mark: `epoch[slot] == cur` means the pre-image is already
            /// in `undo` for the current epoch.
            epoch: Vec<u32>,
            pub cur: u32,
            undo: Vec<SlotUndo>,
            /// LRU tick at arm time (the tick advances on every probe, hit or
            /// miss, so it is not covered by per-way pre-images).
            tick0: u64,
        }

        impl Journal {
            fn next_epoch(&mut self) {
                self.undo.clear();
                self.cur = self.cur.wrapping_add(1);
                if self.cur == 0 {
                    // Epoch counter wrapped (once per 2^32 arms): old marks could
                    // alias the fresh epoch, so clear them all.
                    self.epoch.fill(0);
                    self.cur = 1;
                }
            }
        }

        /// Journal slot whose `Clone` yields a *disarmed* journal: snapshots are
        /// inert copies of the arrays, and a journal is identity-tied to the live
        /// array it was armed on, so cloning a hierarchy must not drag along (or
        /// pay for) megabytes of epoch marks.
        pub struct JournalSlot(pub Option<Box<Journal>>);

        impl Clone for JournalSlot {
            fn clone(&self) -> Self {
                JournalSlot(None)
            }
        }

        /// One set-associative tag array with LRU replacement. L1 arrays also track
        /// a per-way dirty bit mirroring the directory's `dirty_in` field, which is
        /// what lets the write-hit fast path in [`Hierarchy::access`] skip the
        /// directory entirely.
        #[derive(Clone)]
        pub struct TagArray {
            pub sets: usize,
            pub ways: usize,
            /// `sets * ways` tags; `EMPTY` marks an invalid way.
            pub tags: Vec<u64>,
            /// LRU stamps parallel to `tags`.
            pub stamp: Vec<u64>,
            /// Dirty bits parallel to `tags` (meaningful for L1 arrays only).
            pub dirty: Vec<bool>,
            pub tick: u64,
            pub journal: JournalSlot,
        }

        impl TagArray {
            pub fn new(cfg: CacheConfig) -> Self {
                let sets = cfg.sets();
                assert!(sets.is_power_of_two(), "cache sets must be a power of two");
                TagArray {
                    sets,
                    ways: cfg.ways,
                    tags: vec![EMPTY; sets * cfg.ways],
                    stamp: vec![0; sets * cfg.ways],
                    dirty: vec![false; sets * cfg.ways],
                    tick: 0,
                    journal: JournalSlot(None),
                }
            }

            #[inline]
            fn base(&self, line: u64) -> usize {
                (line as usize & (self.sets - 1)) * self.ways
            }

            /// Record `slot`'s pre-image if the journal is armed and this is the
            /// slot's first mutation of the epoch. Must be called before every
            /// write to `tags`/`stamp`/`dirty`.
            #[inline]
            fn log(&mut self, slot: usize) {
                if let Some(j) = self.journal.0.as_deref_mut() {
                    if j.epoch[slot] != j.cur {
                        j.epoch[slot] = j.cur;
                        j.undo.push(SlotUndo {
                            slot: slot as u32,
                            tag: self.tags[slot],
                            stamp: self.stamp[slot],
                            dirty: self.dirty[slot],
                        });
                    }
                }
            }

            /// Arm (or re-arm) the undo journal: from now until the next arm or
            /// revert, mutated ways record their pre-images.
            pub fn arm_journal(&mut self) {
                let slots = self.tags.len();
                let j = self.journal.0.get_or_insert_with(|| {
                    Box::new(Journal {
                        epoch: vec![0; slots],
                        cur: 0,
                        undo: Vec::new(),
                        tick0: 0,
                    })
                });
                j.next_epoch();
                j.tick0 = self.tick;
            }

            /// Undo every way mutation since the journal was armed and re-arm for
            /// the next epoch. O(ways touched since arming).
            pub fn revert(&mut self) {
                let j = self
                    .journal
                    .0
                    .as_deref_mut()
                    .expect("revert without an armed journal");
                for u in &j.undo {
                    let s = u.slot as usize;
                    self.tags[s] = u.tag;
                    self.stamp[s] = u.stamp;
                    self.dirty[s] = u.dirty;
                }
                self.tick = j.tick0;
                j.next_epoch();
            }

            /// Overwrite this array's state from `src` (same geometry), reusing
            /// the existing allocations — the cold restore path.
            pub fn copy_state_from(&mut self, src: &TagArray) {
                debug_assert_eq!((self.sets, self.ways), (src.sets, src.ways));
                self.tags.copy_from_slice(&src.tags);
                self.stamp.copy_from_slice(&src.stamp);
                self.dirty.copy_from_slice(&src.dirty);
                self.tick = src.tick;
            }

            /// Set the dirty bit of an already-probed way (write upgrade on an L1
            /// hit).
            pub fn mark_dirty(&mut self, slot: usize) {
                self.log(slot);
                self.dirty[slot] = true;
            }

            /// Probe for `line`; on hit, refresh LRU and return the way slot.
            pub fn probe(&mut self, line: u64) -> Option<usize> {
                let b = self.base(line);
                self.tick += 1;
                for w in 0..self.ways {
                    if self.tags[b + w] == line {
                        self.log(b + w);
                        self.stamp[b + w] = self.tick;
                        return Some(b + w);
                    }
                }
                None
            }

            /// Insert `line` with the given dirty state, evicting the LRU way if the
            /// set is full. Returns the evicted line and whether it was dirty.
            pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
                let b = self.base(line);
                self.tick += 1;
                if let Some(w) = (0..self.ways).find(|&w| self.tags[b + w] == line) {
                    // Already present (races with coherence bookkeeping).
                    self.log(b + w);
                    self.stamp[b + w] = self.tick;
                    self.dirty[b + w] |= dirty;
                    return None;
                }
                let mut victim = 0;
                let mut victim_stamp = u64::MAX;
                for w in 0..self.ways {
                    if self.tags[b + w] == EMPTY {
                        self.log(b + w);
                        self.tags[b + w] = line;
                        self.stamp[b + w] = self.tick;
                        self.dirty[b + w] = dirty;
                        return None;
                    }
                    if self.stamp[b + w] < victim_stamp {
                        victim_stamp = self.stamp[b + w];
                        victim = w;
                    }
                }
                self.log(b + victim);
                let evicted = (self.tags[b + victim], self.dirty[b + victim]);
                self.tags[b + victim] = line;
                self.stamp[b + victim] = self.tick;
                self.dirty[b + victim] = dirty;
                Some(evicted)
            }

            /// Drop `line` if present (remote invalidation / inclusion victim).
            pub fn invalidate(&mut self, line: u64) -> bool {
                let b = self.base(line);
                for w in 0..self.ways {
                    if self.tags[b + w] == line {
                        self.log(b + w);
                        self.tags[b + w] = EMPTY;
                        self.dirty[b + w] = false;
                        return true;
                    }
                }
                false
            }

            /// Clear the dirty bit of `line` if present (downgrade to shared).
            pub fn clear_dirty(&mut self, line: u64) {
                let b = self.base(line);
                for w in 0..self.ways {
                    if self.tags[b + w] == line {
                        self.log(b + w);
                        self.dirty[b + w] = false;
                        return;
                    }
                }
            }
        }
    }

    fn dense_way(d: &dense::TagArray, set: usize, w: usize) -> (u64, u64, bool) {
        let s = set * d.ways + w;
        (d.tags[s], d.stamp[s], d.dirty[s])
    }

    /// [`lines_of`], of the dense array.
    fn dense_lines_of(d: &dense::TagArray, set: usize) -> Vec<(u64, u64, bool)> {
        let ways = (0..d.ways).map(|w| dense_way(d, set, w));
        let mut lines: Vec<_> = ways.filter(|&(tag, ..)| tag != EMPTY).collect();
        lines.sort_unstable();
        lines
    }

    /// The sparse array against its dense definition: way by way where a
    /// group is one set, else each set's lines with their stamps and dirty
    /// bits.
    fn assert_is(sparse: &TagArray, dense: &dense::TagArray, when: &str) {
        assert_eq!(sparse.tick, dense.tick, "tick {when}");
        for set in 0..sparse.sets {
            if sparse.group_shift > 0 {
                let (s, d) = (lines_of(sparse, set), dense_lines_of(dense, set));
                assert_eq!(s, d, "set {set} {when}");
                continue;
            }
            for w in 0..sparse.ways {
                let (s, d) = (way(sparse, set, w), dense_way(dense, set, w));
                assert_eq!(s, d, "set {set} way {w} {when}");
            }
        }
    }

    /// Both arrays at one moment: what a revert or a restore must bring
    /// back.
    #[derive(Clone)]
    struct Pair {
        sparse: TagArray,
        dense: dense::TagArray,
    }

    impl Pair {
        fn new((cfg, group_shift): (CacheConfig, u32)) -> Pair {
            Pair {
                sparse: TagArray::new(cfg, group_shift),
                dense: dense::TagArray::new(cfg),
            }
        }

        /// `Hierarchy::arm_journal`, on one array.
        fn arm(&mut self) {
            self.sparse.arm_journal();
            self.dense.arm_journal();
        }

        /// The cold path of `Hierarchy::restore_from`, on one array.
        fn cold_restore(&mut self, snap: &Pair) {
            self.sparse.copy_state_from(&snap.sparse);
            self.dense.copy_state_from(&snap.dense);
            self.arm();
        }

        fn revert(&mut self) {
            self.sparse.revert();
            self.dense.revert();
        }

        /// Both arrays are, way for way, what `snap` holds.
        fn assert_back_at(&self, snap: &Pair, when: &str) {
            assert_is(&self.sparse, &self.dense, when);
            assert_is(&self.sparse, &snap.dense, when);
        }

        /// Probe both for `line`: they hit it in the same dirty state — in
        /// the same way of its set, where a group is one set — and each
        /// one's slot for it is returned, or both miss.
        fn probe(&mut self, line: u64) -> Option<(Slot, usize)> {
            let (s, d) = (self.sparse.probe(line), self.dense.probe(line));
            let set = line as usize & (self.sparse.sets - 1);
            let one_set = self.sparse.group_shift == 0;
            assert_eq!(
                s.map(|(slot, dirty)| {
                    assert_eq!(lanes_of(&self.sparse, set)[slot.at as usize].0, line);
                    (one_set.then(|| position(&self.sparse, set, slot)), dirty)
                }),
                d.map(|slot| (
                    one_set.then_some(slot % self.dense.ways),
                    self.dense.dirty[slot]
                )),
                "probe {line:#x}"
            );
            Some((s?.0, d?))
        }

        /// Fill both with `line`: they evict the same line, or none.
        fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
            let evicted = self.sparse.fill(line, dirty);
            assert_eq!(evicted, self.dense.fill(line, dirty), "fill {line:#x}");
            evicted
        }

        /// One random cache operation on both, every observable compared.
        fn step(&mut self, rng: &mut impl rand::Rng, lines: &[u64]) {
            let line = lines[rng.gen_range(0..lines.len())];
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    if let (Some((s, d)), true) = (self.probe(line), rng.gen_bool(0.4)) {
                        self.sparse.mark_dirty(s);
                        self.dense.mark_dirty(d);
                    }
                }
                4..=6 => {
                    self.fill(line, rng.gen_bool(0.3));
                }
                7..=8 => assert_eq!(
                    self.sparse.invalidate(line),
                    self.dense.invalidate(line),
                    "invalidate {line:#x}"
                ),
                _ => {
                    self.sparse.clear_dirty(line);
                    self.dense.clear_dirty(line);
                }
            }
            assert_eq!(self.sparse.tick, self.dense.tick);
        }
    }

    /// Lines that pile more than `ways` deep onto a few sets — among them
    /// the last set of one L2 group, the first of the next and the array's
    /// last — so streams evict, and link blocks one at a time. Each
    /// set also gets two lines that share its first line's partial tag, so
    /// probes meet candidates their full tag rejects.
    fn contended_lines(cfg: CacheConfig) -> Vec<u64> {
        let sets = cfg.sets() as u64;
        let picks = [
            0,
            1,
            (1 << L2_GROUP_SHIFT) - 1,
            1 << L2_GROUP_SHIFT,
            sets / 2,
            sets - 1,
        ];
        let depth = cfg.ways as u64 + 3;
        picks
            .iter()
            .flat_map(|&set| {
                let line = move |k| (set % sets) + k * sets;
                let twins = (depth..)
                    .map(line)
                    .filter(move |&l| ptag_of(l) == ptag_of(line(0)));
                (0..depth).map(line).chain(twins.take(2))
            })
            .collect()
    }

    /// Each level of two machines, with its group size.
    fn oracle_geometries() -> [(CacheConfig, u32); 4] {
        let (xeon, tiny) = (MachineConfig::xeon_e5405(), MachineConfig::tiny_test());
        [
            (xeon.l2, L2_GROUP_SHIFT),
            (xeon.l1, L1_GROUP_SHIFT),
            (tiny.l2, L2_GROUP_SHIFT),
            (tiny.l1, L1_GROUP_SHIFT),
        ]
    }

    #[test]
    fn sparse_array_matches_its_dense_definition_step_by_step() {
        use rand::{Rng, SeedableRng};
        COLLISIONS.set(0);
        for (g, geometry) in oracle_geometries().into_iter().enumerate() {
            let cfg = geometry.0;
            let lines = contended_lines(cfg);
            for seed in 0..4u64 {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed * 16 + g as u64);
                let mut p = Pair::new(geometry);
                // What the armed journals rewind to, and a snapshot a cold
                // restore can go back to (`Hierarchy::clone`).
                let mut armed_at: Option<Pair> = None;
                let mut snap: Option<Pair> = None;
                for step in 0..3000 {
                    match rng.gen_range(0..100u32) {
                        0..=1 => {
                            armed_at = Some(p.clone());
                            p.arm();
                        }
                        2..=4 if armed_at.is_some() => {
                            p.revert();
                            let to = armed_at.as_ref().expect("armed");
                            p.assert_back_at(to, &format!("after revert, step {step}"));
                        }
                        5 => snap = Some(p.clone()),
                        6..=7 if snap.is_some() => {
                            let to = snap.as_ref().expect("snapshot");
                            p.cold_restore(to);
                            p.assert_back_at(to, &format!("after restore, step {step}"));
                            armed_at = snap.clone();
                        }
                        _ => p.step(&mut rng, &lines),
                    }
                    assert_ptags(&p.sparse);
                }
                // A full set with every way probed, so that the dense scan
                // has named each of its ways — and, in a group of one set,
                // the sparse one each lane of each block (8 lanes × 3
                // blocks on the 24-way L2) — the walk above fills the upper
                // ways by luck only. Emptied first, set 0 fills in way
                // order.
                let sets = cfg.sets() as u64;
                let in_set_0 = lines.iter().filter(|&&line| line % sets == 0);
                for &line in in_set_0.clone() {
                    let resident = p.sparse.invalidate(line);
                    assert_eq!(resident, p.dense.invalidate(line));
                }
                let resident: Vec<u64> = in_set_0.copied().take(cfg.ways).collect();
                for &line in &resident {
                    assert_eq!(
                        (p.sparse.fill(line, false), p.dense.fill(line, false)),
                        (None, None)
                    );
                }
                let hit: Vec<usize> = resident
                    .iter()
                    .map(|&line| p.probe(line).expect("just filled").1 % cfg.ways)
                    .collect();
                assert_eq!(hit, (0..cfg.ways).collect::<Vec<_>>());
                assert_is(&p.sparse, &p.dense, "at the end");
            }
        }
        let collisions = COLLISIONS.get();
        assert!(collisions >= 100, "{collisions} partial-tag collisions");
    }

    /// The named hazard: snapshot, run, cold-restore (a mismatched id in
    /// `Hierarchy::restore_from`), run, journalled revert — the array must
    /// be back at the snapshot.
    #[test]
    fn revert_after_a_cold_restore_returns_to_the_snapshot() {
        use rand::SeedableRng;
        for geometry in oracle_geometries() {
            let lines = contended_lines(geometry.0);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
            let mut p = Pair::new(geometry);
            (0..400).for_each(|_| p.step(&mut rng, &lines));
            let snap = p.clone();
            p.arm();
            (0..400).for_each(|_| p.step(&mut rng, &lines));
            p.cold_restore(&snap);
            p.assert_back_at(&snap, "after the cold restore");
            (0..400).for_each(|_| p.step(&mut rng, &lines));
            p.revert();
            p.assert_back_at(&snap, "after the revert");
        }
    }

    /// One set of the E5405's 8-way L1 and of its 24-way L2, full, with the
    /// probed line in the last lane and the three lanes below it — the same
    /// block — holding lines that share its partial-tag byte: every
    /// candidate the partial tags name before the line's own lane is a
    /// collision. Each operation that finds a lane by its tag must act on
    /// the lane whose full tag matches, and on no other.
    #[test]
    fn partial_tag_collisions_resolve_to_the_way_whose_tag_matches() {
        let xeon = MachineConfig::xeon_e5405();
        for (cfg, group_shift) in [(xeon.l1, L1_GROUP_SHIFT), (xeon.l2, L2_GROUP_SHIFT)] {
            let sets = cfg.sets() as u64;
            let (target, mine) = (sets, cfg.ways - 1);
            let byte = ptag_of(target);
            let set_0 = (2..).map(|k| k * sets);
            let colliders = set_0.clone().filter(|&l| ptag_of(l) == byte).take(3);
            let others = set_0.filter(|&l| ptag_of(l) != byte).take(cfg.ways - 4);
            let resident: Vec<u64> = others.chain(colliders).chain([target]).collect();
            let mut a = TagArray::new(cfg, group_shift);
            for &line in &resident {
                assert_eq!(a.fill(line, true), None);
            }
            let before = COLLISIONS.get();

            let (slot, dirty) = a.probe(target).expect("resident");
            assert_eq!((position(&a, 0, slot), dirty), (mine, true));
            assert_eq!(
                lanes_of(&a, 0)[mine].1,
                a.tick,
                "the probe stamps the line's lane"
            );
            assert!(
                COLLISIONS.get() >= before + 3,
                "the colliders were candidates"
            );

            let dirty_before = lanes_of(&a, 0);
            a.clear_dirty(target);
            for (w, (now, was)) in lanes_of(&a, 0).into_iter().zip(dirty_before).enumerate() {
                assert_eq!(now, (was.0, was.1, w != mine), "clear_dirty, lane {w}");
            }

            let before_invalidate = lanes_of(&a, 0);
            assert!(a.invalidate(target));
            for (w, (now, was)) in lanes_of(&a, 0)
                .into_iter()
                .zip(before_invalidate)
                .enumerate()
            {
                let want = if w == mine {
                    (EMPTY, was.1, false)
                } else {
                    was
                };
                assert_eq!(now, want, "invalidate, lane {w}");
            }
            assert_eq!(a.probe(target), None);
            assert!(!a.invalidate(target));

            // The one empty lane is the line's old one; a fill of a line
            // already there refreshes that lane alone.
            assert_eq!(a.fill(target, false), None);
            assert_eq!(lanes_of(&a, 0)[mine], (target, a.tick, false));
            let before_refill = lanes_of(&a, 0);
            assert_eq!(a.fill(target, true), None);
            for (w, (now, was)) in lanes_of(&a, 0).into_iter().zip(before_refill).enumerate() {
                let want = if w == mine {
                    (target, a.tick, true)
                } else {
                    was
                };
                assert_eq!(now, want, "fill, lane {w}");
            }
            let (slot, _) = a.probe(target).expect("filled again");
            assert_eq!(position(&a, 0, slot), mine);
            assert_ptags(&a);
        }
    }

    /// Blocks 1 and 2 of the chain of a set of the E5405's 24-way L2,
    /// against the dense array: blocks linked after the journal is armed
    /// stay in the chain with their lanes reverted to the initial state, a
    /// cold restore from a snapshot that lacks them resets them in place,
    /// and a probe past partial-tag colliders in earlier blocks acts on
    /// the lane whose full tag matches.
    #[test]
    fn blocks_past_the_first_revert_restore_and_probe_like_dense_ways() {
        let cfg = MachineConfig::xeon_e5405().l2;
        let (sets, set) = (cfg.sets() as u64, 1);
        let line = |k: u64| set as u64 + k * sets;
        // Blocks 1 and 2 of the set's chain are there, every lane initial.
        let later_blocks_initial = |a: &TagArray| {
            let chain = chain(a, set);
            assert_eq!(chain.len(), 3);
            for &lanes in &chain[1..] {
                let state = |l: &Lanes| (l.ptag, l.tags, l.stamp, l.dirty);
                assert_eq!(state(lanes), state(&INITIAL));
            }
        };

        let mut p = Pair::new((cfg, L2_GROUP_SHIFT));
        for k in 0..8 {
            p.fill(line(k), k % 2 == 0);
        }
        assert_eq!(chain(&p.sparse, set).len(), 1);
        let snap = p.clone();
        p.arm();
        for k in 8..24 {
            p.fill(line(k), k % 3 == 0);
        }
        assert_eq!(chain(&p.sparse, set).len(), 3);
        p.revert();
        p.assert_back_at(&snap, "after the revert");
        later_blocks_initial(&p.sparse);

        for k in 8..30 {
            p.fill(line(k), k % 3 == 0);
        }
        p.cold_restore(&snap);
        p.assert_back_at(&snap, "after the cold restore");
        later_blocks_initial(&p.sparse);

        // Lanes 7 and 15 — the last of blocks 0 and 1 — hold lines that
        // share the target's partial tag, and lane 23 the target.
        let byte = ptag_of(line(0));
        let colliders = (1..).map(line).filter(|&l| ptag_of(l) == byte);
        let mut others = (1..).map(line).filter(|&l| ptag_of(l) != byte);
        let mut resident: Vec<u64> = Vec::new();
        for c in colliders.take(2).chain([line(0)]) {
            resident.extend(others.by_ref().take(LANES - 1));
            resident.push(c);
        }
        let mut p = Pair::new((cfg, L2_GROUP_SHIFT));
        for &l in &resident {
            p.fill(l, true);
        }
        for (w, want) in [(23, 2), (15, 1)] {
            let before = COLLISIONS.get();
            let (slot, _) = p.probe(resident[w]).expect("resident");
            assert_eq!(position(&p.sparse, set, slot), w);
            assert!(COLLISIONS.get() >= before + want, "lane {w}'s colliders");
        }
        p.sparse.clear_dirty(line(0));
        p.dense.clear_dirty(line(0));
        assert_is(&p.sparse, &p.dense, "after clear_dirty");
        assert!(p.sparse.invalidate(line(0)) && p.dense.invalidate(line(0)));
        assert_is(&p.sparse, &p.dense, "after invalidate");
        assert_eq!(p.probe(line(0)), None);
        assert_eq!(p.fill(line(0), false), None);
        assert_eq!(lanes_of(&p.sparse, set)[23].0, line(0));
        assert_is(&p.sparse, &p.dense, "after the refill");
        assert_ptags(&p.sparse);
    }

    /// A set of the E5405's 24-way L2 that holds 24 lines evicts its own
    /// LRU line, though its group's chain has empty lanes that another set
    /// opened — exactly as the dense set, whose ways are all full, does.
    #[test]
    fn a_full_set_evicts_its_own_lru_line_while_its_group_has_empty_lanes() {
        let cfg = MachineConfig::xeon_e5405().l2;
        let sets = cfg.sets() as u64;
        let mut p = Pair::new((cfg, L2_GROUP_SHIFT));
        // Set 0's 24 lines fill three blocks; one line of set 1 opens a
        // fourth, and leaves seven of its lanes empty.
        (0..24).for_each(|k| assert_eq!(p.fill(k * sets, k % 2 == 0), None));
        assert_eq!(p.fill(1, false), None);
        let empty = |a: &TagArray| lanes_of(a, 0).iter().filter(|l| l.0 == EMPTY).count();
        assert_eq!((chain(&p.sparse, 0).len(), empty(&p.sparse)), (4, 7));

        // The 25th line of set 0 takes the lane of the set's LRU line (its
        // first, dirty), not an empty one; after a probe refreshes the
        // second, the 26th takes the third's.
        assert_eq!(p.fill(24 * sets, false), Some((0, true)));
        assert!(p.probe(sets).is_some());
        assert_eq!(p.fill(25 * sets, true), Some((2 * sets, true)));
        assert_eq!((chain(&p.sparse, 0).len(), empty(&p.sparse)), (4, 7));
        assert_eq!(lines_of(&p.sparse, 1), [(1, 25, false)]);
        assert_is(&p.sparse, &p.dense, "after the evictions");
    }

    /// A block linked while the journal is armed stays in its chain when
    /// the journal reverts, its lanes back to the initial state — what its
    /// absence meant — and the group's next fills take its lanes before
    /// another block is linked; a cold restore to a snapshot that lacks it
    /// resets it in place, and the next fill takes it again.
    #[test]
    fn the_journal_reverts_a_block_appended_since_arming() {
        let cfg = MachineConfig::xeon_e5405().l2;
        let sets = cfg.sets() as u64;
        let fill = |p: &mut Pair, line: u64| assert_eq!(p.fill(line, false), None);
        let state = |l: &Lanes| (l.ptag, l.tags, l.stamp, l.dirty);
        let second_initial = |a: &TagArray| {
            let chain = chain(a, 0);
            assert_eq!((chain.len(), blocks(a).count()), (2, 2));
            assert_eq!(state(chain[1]), state(&INITIAL));
        };
        // Two lines in each set of group 0: one block, full.
        let mut p = Pair::new((cfg, L2_GROUP_SHIFT));
        (0..8).for_each(|i| fill(&mut p, i % 4 + i / 4 * sets));
        assert_eq!(blocks(&p.sparse).count(), 1);
        let snap = p.clone();
        p.arm();
        fill(&mut p, 2 * sets);
        assert_eq!(blocks(&p.sparse).count(), 2);

        p.revert();
        p.assert_back_at(&snap, "after the revert");
        second_initial(&p.sparse);
        (3..10).for_each(|k| fill(&mut p, 3 + k * sets));
        assert_eq!(blocks(&p.sparse).count(), 2);
        assert_is(&p.sparse, &p.dense, "after the refills");

        p.cold_restore(&snap);
        p.assert_back_at(&snap, "after the cold restore");
        second_initial(&p.sparse);
        fill(&mut p, 2 * sets);
        assert_eq!(blocks(&p.sparse).count(), 2);
        assert_is(&p.sparse, &p.dense, "after the fill");
    }

    /// A snapshot's marks are dead data. Here they would bite: the clone is
    /// taken in epoch 5 with ways marked 5, the epoch counter wraps, and the
    /// cold restore re-arms into epoch 5 again — a way that arrived marked
    /// would count as logged, and the revert would leave it as the run left
    /// it.
    #[test]
    fn cold_restore_does_not_import_a_snapshots_marks() {
        use rand::SeedableRng;
        let cfg = MachineConfig::tiny_test().l1;
        let lines = contended_lines(cfg);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let mut p = Pair::new((cfg, L1_GROUP_SHIFT));
        (0..5).for_each(|_| p.arm());
        (0..200).for_each(|_| p.step(&mut rng, &lines));
        let snap = p.clone();
        assert!(blocks(&snap.sparse).any(|lanes| lanes.mark.contains(&5)));

        // Wrap: the next arm clears the live marks and starts over at 1.
        p.sparse.journal.0.as_mut().expect("armed").cur = u16::MAX;
        p.dense.journal.0.as_mut().expect("armed").cur = u32::MAX;
        (0..4).for_each(|_| p.arm());
        (0..200).for_each(|_| p.step(&mut rng, &lines));
        p.cold_restore(&snap);
        assert_eq!(p.sparse.journal.0.as_ref().expect("armed").cur, 5);
        (0..200).for_each(|_| p.step(&mut rng, &lines));
        p.revert();
        p.assert_back_at(&snap, "after the revert");
    }

    /// Everything but the arrays and the directory that two hierarchies
    /// fed the same accesses must agree on, per core.
    fn per_core_view(h: &Hierarchy) -> Vec<impl PartialEq + std::fmt::Debug> {
        let sorted = |set: &LineSet| {
            let mut lines: Vec<u64> = set.iter().copied().collect();
            lines.sort_unstable();
            lines
        };
        (0..h.cfg.cores)
            .map(|c| {
                let (stats, t) = (h.stats(c), &h.tx[c]);
                let tracked = (sorted(&t.read_lines), sorted(&t.write_lines));
                (stats, h.htm_doomed(c), t.active, tracked)
            })
            .collect()
    }

    /// The split `access` against the unsplit function it was, one random
    /// step at a time: accesses from every core to lines that pile onto a
    /// few L1 and L2 sets (so hits land in every lane of every block and
    /// misses take every branch), hardware transactions begun and ended in
    /// between, the journal armed at one random point and reverted — or the
    /// snapshot cold-restored — at another.
    #[test]
    fn split_access_matches_its_unsplit_definition_step_by_step() {
        use rand::{Rng, SeedableRng};
        let machines = [
            MachineConfig::xeon_e5405(),
            MachineConfig::modern_8core(),
            MachineConfig::tiny_test(),
        ];
        COLLISIONS.set(0);
        for (m, cfg) in machines.iter().enumerate() {
            let mut lines = contended_lines(cfg.l1);
            lines.extend(contended_lines(cfg.l2));
            // Every set a line of `lines` can be in, by the array's size.
            let touched: crate::IntMap<usize, Vec<usize>> = [cfg.l1.sets(), cfg.l2.sets()]
                .into_iter()
                .map(|sets| {
                    let mut of_lines: Vec<usize> =
                        lines.iter().map(|&l| l as usize & (sets - 1)).collect();
                    of_lines.sort_unstable();
                    of_lines.dedup();
                    (sets, of_lines)
                })
                .collect();
            // Ways an L1 probe has hit, and lanes below the associativity
            // in an L2 chain an L2 probe has.
            let mut hit = (vec![false; cfg.l1.ways], vec![false; cfg.l2.ways]);
            for seed in 0..3u64 {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed * 16 + m as u64);
                let mut split = Hierarchy::new(cfg);
                let mut whole = Hierarchy::new(cfg);
                // The snapshot the journals are armed for, under its id.
                let mut armed: Option<(Hierarchy, Hierarchy, u64)> = None;
                for step in 0..2500u64 {
                    let core = rng.gen_range(0..cfg.cores);
                    match rng.gen_range(0..200u32) {
                        0..=3 => {
                            split.htm_begin(core);
                            whole.htm_begin(core);
                        }
                        4..=7 => assert_eq!(split.htm_end(core), whole.htm_end(core)),
                        8 => {
                            armed = Some((split.clone(), whole.clone(), step + 1));
                            split.arm_journal(step + 1);
                            whole.arm_journal(step + 1);
                        }
                        9..=10 if armed.is_some() => {
                            let (s, w, id) = armed.as_mut().expect("armed");
                            // A foreign id takes the cold path, and is the
                            // one the journals are armed for after it.
                            if rng.gen_bool(0.3) {
                                *id = step + 1;
                            }
                            split.restore_from(s, *id);
                            whole.restore_from(w, *id);
                        }
                        _ => {
                            let line = lines[rng.gen_range(0..lines.len())];
                            let addr = line * LINE + rng.gen_range(0..8u64) * 8;
                            let write = rng.gen_bool(0.35);
                            let remote = whole.dir.get(&line).and_then(|e| e.dirty_in);
                            if let Some(w) = position_of(&whole.l1[core], line) {
                                hit.0[w] = true;
                            } else if remote.is_none() {
                                // A clean miss probes the socket's L2.
                                let l2 = &whole.l2[cfg.socket_of(core)];
                                if let Some(h) =
                                    position_of(l2, line).and_then(|w| hit.1.get_mut(w))
                                {
                                    *h = true;
                                }
                            }
                            assert_eq!(
                                split.access(core, addr, write),
                                whole.access_reference(core, addr, write),
                                "machine {m} seed {seed} step {step}: core {core} \
                                 line {line:#x} write {write}"
                            );
                        }
                    }
                    assert_eq!(per_core_view(&split), per_core_view(&whole), "step {step}");
                    assert_match_in(&split, &whole, |a, _| touched[&a.sets].clone());
                }
                // And nothing outside them materialized.
                assert_arrays_match(&split, &whole);
            }
            let missed =
                |ways: &[bool]| -> Vec<usize> { (0..ways.len()).filter(|&w| !ways[w]).collect() };
            assert!(
                hit.0.iter().chain(&hit.1).all(|&h| h),
                "machine {m}: probes never hit L1 ways {:?}, L2 ways {:?}",
                missed(&hit.0),
                missed(&hit.1)
            );
        }
        let collisions = COLLISIONS.get();
        assert!(collisions >= 100, "{collisions} partial-tag collisions");
    }

    /// `repeat_cost` and `repeat` against `access`: from random states —
    /// lines shared, dirty and evicted by every core, hardware
    /// transactions live on some, the journal armed at a random point — a
    /// priced access is the plain hit `access` charges, asking mutates
    /// nothing, `repeat(k)` leaves what `k` accesses leave (stats, ticks,
    /// stamps, partial tags, footprints, undo log), and a revert after it
    /// lands on the snapshot exactly.
    #[test]
    fn a_repeat_is_k_accesses_and_reverts_like_them() {
        use rand::{Rng, SeedableRng};
        let cfg = machine();
        let lines = contended_lines(cfg.l1);
        let (mut priced, mut refused) = (0, 0);
        for seed in 0..200u64 {
            // The same traffic twice: a clone's journal is disarmed.
            let build = || {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
                let mut h = Hierarchy::new(&cfg);
                let mut snap = None;
                let arm_at = rng.gen_range(0..60u32);
                for step in 0..60u32 {
                    if step == arm_at {
                        snap = Some(h.clone());
                        h.arm_journal(1);
                    }
                    let core = rng.gen_range(0..cfg.cores);
                    match rng.gen_range(0..12u32) {
                        0 => h.htm_begin(core),
                        1 => drop(h.htm_end(core)),
                        _ => {
                            let line = lines[rng.gen_range(0..lines.len())];
                            h.access(core, line * LINE, rng.gen_bool(0.4));
                        }
                    }
                }
                let core = rng.gen_range(0..cfg.cores);
                let addr = lines[rng.gen_range(0..lines.len())] * LINE + 8;
                let (write, k) = (rng.gen_bool(0.5), rng.gen_range(1..40u64));
                // Mostly as a spin repeats it: right after the access.
                if rng.gen_bool(0.75) {
                    h.access(core, addr, write);
                }
                (h, snap.expect("armed"), core, addr, write, k)
            };
            let (mut once, snap, core, addr, write, k) = build();
            let (mut looped, ..) = build();
            let asked = once.clone();
            let Some(cost) = once.repeat_cost(core, addr, write) else {
                // Not a plain hit: absent, or a write to a clean line.
                if let Some((lanes, l)) = once.l1[core].find(addr / LINE) {
                    assert!(write && !lanes.dirty[l]);
                }
                refused += 1;
                continue;
            };
            priced += 1;
            assert_arrays_match(&once, &asked);
            assert_eq!(
                per_core_view(&once),
                per_core_view(&asked),
                "asking mutated"
            );
            once.repeat(core, addr, write, k);
            for _ in 0..k {
                assert_eq!(looped.access(core, addr, write), cost, "seed {seed}");
            }
            assert_arrays_match(&once, &looped);
            assert_eq!(per_core_view(&once), per_core_view(&looped), "seed {seed}");
            for (a, b) in once.l1.iter().zip(&looped.l1) {
                let undo = |a: &TagArray| -> Vec<(Slot, u64, u64, bool)> {
                    let j = a.journal.0.as_deref().expect("armed");
                    j.undo
                        .iter()
                        .map(|u| (u.slot, u.tag, u.stamp, u.dirty))
                        .collect()
                };
                assert_eq!(undo(a), undo(b), "seed {seed}: undo logs");
            }
            once.restore_from(&snap, 1);
            assert_arrays_match(&once, &snap);
            assert_eq!(per_core_view(&once), per_core_view(&snap), "seed {seed}");
        }
        assert!(
            priced >= 100 && refused >= 20,
            "{priced} priced, {refused} refused"
        );
    }

    #[test]
    fn false_sharing_ping_pong_costs_transfers() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        // Cores 0 and 1 write different words of the same line.
        h.access(0, 0x2000, true);
        let c1 = h.access(1, 0x2008, true);
        let c0 = h.access(0, 0x2000, true);
        assert!(
            c1 > cfg.cost.l1_hit,
            "remote dirty line must cost a transfer"
        );
        assert!(c0 > cfg.cost.l1_hit);
        assert!(h.stats(0).invalidations >= 1);
        assert!(h.stats(1).coherence_transfers >= 1);
    }

    /// The last core the directory can name keeps its own bit: core 0's
    /// write invalidates core 15's copy, and core 15's next read is a
    /// transfer. (A seventeenth core would share core 0's bit; `Sim::new`
    /// refuses that machine.)
    #[test]
    fn the_last_core_of_a_full_sharer_mask_is_invalidated() {
        let cfg = MachineConfig {
            cores: MAX_CORES,
            cores_per_socket: MAX_CORES,
            ..MachineConfig::xeon_e5405()
        };
        let mut h = Hierarchy::new(&cfg);
        let last = MAX_CORES - 1;
        h.access(0, 0x1000, false);
        h.access(last, 0x1000, false);
        h.access(0, 0x1000, true);
        assert_eq!(h.stats(last).invalidations, 1);
        let read = h.access(last, 0x1000, false);
        assert_eq!(read, cfg.cost.l1_hit + cfg.cost.transfer_same_socket);
    }

    #[test]
    fn disjoint_lines_do_not_interfere() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        h.access(0, 0x2000, true);
        h.access(1, 0x2040, true); // next line
        let c0 = h.access(0, 0x2000, true);
        assert_eq!(c0, cfg.cost.l1_hit);
        assert_eq!(h.stats(0).invalidations, 0);
    }

    #[test]
    fn cross_socket_transfer_costs_more() {
        let cfg = machine(); // cores 0,1 socket 0; cores 2,3 socket 1
        let mut h = Hierarchy::new(&cfg);
        h.access(0, 0x3000, true);
        let near = h.access(1, 0x3000, false);
        let mut h2 = Hierarchy::new(&cfg);
        h2.access(0, 0x3000, true);
        let far = h2.access(2, 0x3000, false);
        assert!(far > near);
    }

    #[test]
    fn capacity_eviction() {
        let cfg = machine(); // tiny L1: 1 KiB, 2-way, 8 sets
        let mut h = Hierarchy::new(&cfg);
        // Walk far more lines than L1 holds, twice; second pass must still
        // miss in L1 (capacity) for the early lines.
        for i in 0..64u64 {
            h.access(0, i * 64, false);
        }
        let miss_before = h.stats(0).l1_misses;
        h.access(0, 0, false);
        assert_eq!(h.stats(0).l1_misses, miss_before + 1);
    }

    #[test]
    fn l2_shared_within_socket() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        h.access(0, 0x4000, false);
        // Core 1 (same socket) misses L1 but should hit the shared L2.
        let c = h.access(1, 0x4000, false);
        assert_eq!(c, cfg.cost.l1_hit + cfg.cost.l2_hit);
        // Core 2 (other socket) misses both.
        let c = h.access(2, 0x4040, false);
        assert_eq!(c, cfg.cost.l1_hit + cfg.cost.l2_hit + cfg.cost.mem);
    }

    #[test]
    fn read_sharing_is_cheap_after_writeback() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        h.access(0, 0x5000, true);
        h.access(1, 0x5000, false); // transfer + downgrade
        let c1 = h.access(1, 0x5000, false);
        let c0 = h.access(0, 0x5000, false);
        assert_eq!(c1, cfg.cost.l1_hit);
        assert_eq!(c0, cfg.cost.l1_hit);
    }

    #[test]
    fn htm_remote_write_dooms_read_set() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        h.htm_begin(0);
        h.access(0, 0x6000, false); // tx read
        assert_eq!(h.htm_doomed(0), None);
        h.access(1, 0x6000, true); // remote write invalidates
        assert_eq!(h.htm_doomed(0), Some(HtmAbort::Conflict));
        assert_eq!(h.htm_end(0), Some(HtmAbort::Conflict));
        // Idempotent: tracking is gone after the first end.
        assert_eq!(h.htm_end(0), None);
    }

    #[test]
    fn htm_remote_read_dooms_write_set_only() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        // Read-set line read remotely: no conflict.
        h.htm_begin(0);
        h.access(0, 0x7000, false);
        h.access(1, 0x7000, false);
        assert_eq!(h.htm_doomed(0), None);
        assert_eq!(h.htm_end(0), None);
        // Write-set line read remotely (downgrade): conflict.
        h.htm_begin(0);
        h.access(0, 0x7040, true);
        h.access(1, 0x7040, false);
        assert_eq!(h.htm_end(0), Some(HtmAbort::Conflict));
    }

    #[test]
    fn htm_l1_eviction_is_capacity_abort() {
        let cfg = machine(); // tiny L1: 1 KiB, 2-way => holds 16 lines
        let mut h = Hierarchy::new(&cfg);
        h.htm_begin(0);
        // Touch far more lines than the L1 holds; some tracked line must
        // fall out of the cache.
        for i in 0..64u64 {
            h.access(0, i * 64, false);
        }
        assert_eq!(h.htm_end(0), Some(HtmAbort::Capacity));
    }

    #[test]
    fn htm_untracked_cores_unaffected() {
        let cfg = machine();
        let mut h = Hierarchy::new(&cfg);
        h.htm_begin(0);
        h.access(0, 0x8000, false);
        // Core 1 has no transaction: invalidating its copies dooms nothing.
        h.access(1, 0x8040, false);
        h.access(2, 0x8040, true);
        assert_eq!(h.htm_doomed(1), None);
        assert_eq!(h.htm_doomed(0), None);
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats {
            l1_accesses: 10,
            l1_misses: 2,
            ..Default::default()
        };
        let b = CacheStats {
            l1_accesses: 30,
            l1_misses: 6,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.l1_accesses, 40);
        assert!((a.l1_miss_ratio() - 0.2).abs() < 1e-12);
    }
}
