//! Sparse simulated address space.
//!
//! The simulated machine exposes a 64-bit byte-addressed space. Backing
//! storage is allocated lazily in 4 KiB pages, so allocators can reserve
//! huge aligned regions (e.g. Glibc's 64 MB-aligned arenas) without host
//! memory cost. Data is held as `u64` words; all simulated accesses in this
//! study are word-granular, which matches the word-based STM under test.
//!
//! Every simulated load and store lands here, so the page lookup is the
//! single hottest data access in the system. Instead of a `HashMap` (hash +
//! probe per access), pages hang off a three-level radix table — three
//! array indexes — fronted by a 256-entry direct-mapped TLB of
//! `(page, pointer)` pairs indexed by the page number's low bits: an access
//! to a page that still holds its slot is one compare and one load. A page
//! loses its storage in two places — `release`, when the simulated OS
//! unmaps the mapping it lies in, and `restore` — and each clears the TLB
//! entry of every page it drops; the pages that survive keep their storage,
//! so their entries stay valid. `restore` keeps the buffers it drops (up to
//! `SPARE_MAX`) for the next pages to materialize, zeroed again first, so
//! a checkpointed schedule that rewrites the pages its predecessor wrote
//! allocates none.
//!
//! Host storage follows the live mappings: a released page gives its 4 KiB
//! back and reads as zero again, like any unmapped page, and a write
//! materializes it afresh. Its entry in the materialization log stays, as
//! a tombstone, so the log of an earlier snapshot is still an index-aligned
//! prefix of the live one (the COW sharing below relies on that). Loads and
//! stores that land on a released page are counted
//! ([`Memory::released_accesses`]): no workload touches a mapping it gave
//! back, so the count is zero unless a large block is used after its free.
//!
//! The radix nodes are small (16 KB, 16 KB and 8 KB) and exist only along
//! paths that lead to a page: a fresh memory is one empty root, the first
//! touch of a region adds at most one node per level below it, and dropping
//! the memory visits only the nodes that exist. An absent node reads as
//! zeros, like the absent pages under it.

use std::sync::Arc;

use crate::hash::IntMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;
const WORDS_PER_PAGE: usize = (PAGE_BYTES / 8) as usize;

type Page = [u64; WORDS_PER_PAGE];

/// Bits of the page number each radix level indexes with. Together:
/// 11 + 11 + 10 + 12 = 44 bits of addressable space (16 TiB), far above the
/// 4 GiB-based OS bump allocator; `os_alloc` asserts the bound.
const ROOT_BITS: u64 = 11;
const MID_BITS: u64 = 11;
const LEAF_BITS: u64 = 10;

/// Addresses at or above this cannot be materialized (reads return zero,
/// like any other unmapped address; writes panic).
pub(crate) const ADDR_LIMIT: u64 = 1 << (ROOT_BITS + MID_BITS + LEAF_BITS + PAGE_SHIFT);

/// 1024 pages: 4 MiB of simulated memory behind 8 KB of pointers.
type Leaf = [Option<Box<Page>>; 1 << LEAF_BITS];
/// 2048 leaves: 8 GiB behind 16 KB.
type Mid = [Option<Box<Leaf>>; 1 << MID_BITS];
/// 2048 middle nodes: the whole 16 TiB behind 16 KB.
type Root = [Option<Box<Mid>>; 1 << ROOT_BITS];

/// Marks a materialization-log entry whose page was released after it was
/// logged: a tombstone. Page ids stop at 2^32, far below this bit.
const TOMB: u64 = 1 << 63;

/// Released pages, one bit each, in groups of 64 keyed by `page >> 6`; a
/// group with no bit set is removed, so an empty set is an empty map.
type Released = IntMap<u64, u64>;

/// Whether `page` is in `set`.
fn is_released(set: &Released, page: u64) -> bool {
    set.get(&(page >> 6))
        .is_some_and(|bits| bits >> (page & 63) & 1 != 0)
}

/// Take `page` out of `set`; whether it was in.
fn unrelease(set: &mut Released, page: u64) -> bool {
    let Some(bits) = set.get_mut(&(page >> 6)) else {
        return false;
    };
    let was = *bits >> (page & 63) & 1 != 0;
    *bits &= !(1 << (page & 63));
    if *bits == 0 {
        set.remove(&(page >> 6));
    }
    was
}

/// Page buffers `restore` keeps for reuse at most: 256 KiB.
const SPARE_MAX: usize = 64;

/// TLB entries (log2): 256 pages, 1 MiB of simulated memory.
const TLB_BITS: u64 = 8;

/// One TLB entry: a page id and its storage. See [`Memory::tlb`].
#[derive(Clone, Copy)]
struct TlbEntry {
    page: u64,
    ptr: *mut Page,
}

/// No page: page ids stop at 2^52, so `u64::MAX` is none of them.
const NO_PAGE: TlbEntry = TlbEntry {
    page: u64::MAX,
    ptr: std::ptr::null_mut(),
};

type Tlb = [TlbEntry; 1 << TLB_BITS];

/// `page`'s TLB slot.
#[inline]
fn tlb_slot(page: u64) -> usize {
    page as usize & ((1 << TLB_BITS) - 1)
}

/// `N` copies of `fill` in an array built on the heap (simulated stores
/// run on fiber stacks; a radix node or the TLB must never pass through
/// one).
fn boxed<T: Clone, const N: usize>(fill: T) -> Box<[T; N]> {
    vec![fill; N]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("the slice has N entries"))
}

/// An empty radix node.
fn node<T: Clone, const N: usize>() -> Box<[Option<Box<T>>; N]> {
    boxed(None)
}

/// Storage for a page being materialized: a spare buffer, zeroed, or a
/// fresh one.
fn zeroed(spare: &mut Vec<Box<Page>>) -> Box<Page> {
    match spare.pop() {
        Some(mut page) => {
            page.fill(0);
            page
        }
        None => Box::new([0; WORDS_PER_PAGE]),
    }
}

/// `page`'s index at the root, middle and leaf level.
#[inline]
fn indexes(page: u64) -> (usize, usize, usize) {
    (
        (page >> (MID_BITS + LEAF_BITS)) as usize,
        (page >> LEAF_BITS) as usize & ((1 << MID_BITS) - 1),
        page as usize & ((1 << LEAF_BITS) - 1),
    )
}

/// Frozen image of the materialized page set at one point in time
/// (see [`Memory::snapshot`]).
///
/// Page contents are held behind `Arc` so sibling snapshots share storage
/// copy-on-write style: capturing against a `parent` snapshot clones the
/// `Arc` for every page whose content is unchanged and copies only the
/// pages that actually diverged. In a checkpoint tree (the `tm-mc`
/// explorer) most pages never change between neighbouring checkpoints, so
/// the incremental cost of a snapshot is proportional to the write set,
/// not the resident set.
pub struct MemSnapshot {
    /// `(page id, frozen content)` for every entry of the owning memory's
    /// materialization log at capture time, in log order; `None` for a
    /// tombstone.
    pages: Vec<(u64, Option<Arc<Page>>)>,
    /// The released pages at capture time.
    released: Released,
}

impl MemSnapshot {
    /// Number of pages captured (== materialized pages at capture time).
    pub fn pages(&self) -> usize {
        self.pages.iter().filter(|(_, c)| c.is_some()).count()
    }
}

/// Lazily-populated sparse memory. Unwritten words read as zero, like fresh
/// anonymous mmap pages.
pub struct Memory {
    root: Box<Root>,
    /// Direct-mapped TLB: slot [`tlb_slot`]`(page)` holds `page`'s id and
    /// a raw pointer to its storage, or [`NO_PAGE`]. Each pointer targets
    /// the page's own `Box`, whose address does not depend on the radix
    /// nodes above it (which are themselves boxed, never moved and never
    /// freed while the `Memory` lives). A page's storage leaves it only
    /// through [`Memory::take_page`] — `release` unmapping it, `restore`
    /// dropping a page materialized or kept *after* the snapshot — which
    /// clears the page's entry. So every pointer left targets the storage
    /// its page holds now: a buffer that `restore` recycles into
    /// [`Memory::spare`] and a later write hands to another page is named,
    /// while it is spare, by no entry, and afterwards only by that other
    /// page's. The pointers are only dereferenced through `&mut self`, so
    /// no aliasing can occur.
    tlb: Box<Tlb>,
    resident: usize,
    /// Page ids in materialization order, a released page's entry marked
    /// [`TOMB`]. Append-only between restores but for those marks;
    /// `restore` truncates it back to the snapshot's length, which is what
    /// makes "drop everything newer" O(new pages) instead of a radix walk.
    /// A page is logged once per materialization, so its live entry, if
    /// it has one, is its last.
    mat_log: Vec<u64>,
    /// Pages given back by `release` and not written since.
    released: Released,
    /// Loads and stores that landed on a released page. Host-side: no
    /// report carries it and `restore` does not rewind it.
    released_accesses: u64,
    /// Buffers of pages `restore` dropped, contents stale, for the next
    /// materializations ([`SPARE_MAX`] at most). A released page's buffer
    /// never lands here: it goes back to the host.
    spare: Vec<Box<Page>>,
}

// SAFETY: the TLB's raw pointers target heap storage owned by `self` (a
// page's buffer, which a recycled buffer still is), and are only used
// through `&mut self`, so moving the `Memory` between threads is safe.
unsafe impl Send for Memory {}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    pub fn new() -> Self {
        Memory {
            root: node(),
            tlb: boxed(NO_PAGE),
            resident: 0,
            mat_log: Vec::new(),
            released: Released::default(),
            released_accesses: 0,
            spare: Vec::new(),
        }
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        debug_assert_eq!(addr % 8, 0, "simulated access must be 8-byte aligned");
        (addr >> PAGE_SHIFT, ((addr & (PAGE_BYTES - 1)) / 8) as usize)
    }

    /// Read the aligned word at `addr` (zero if never written, or released
    /// since).
    #[inline]
    pub fn read(&mut self, addr: u64) -> u64 {
        let (page, idx) = Self::split(addr);
        let entry = &mut self.tlb[tlb_slot(page)];
        if entry.page == page {
            // SAFETY: an entry that names `page` points at the storage
            // `page` holds now, recycled buffer or not (the `tlb`
            // invariant), and `&mut self` excludes every other access.
            return unsafe { (*entry.ptr)[idx] };
        }
        let (r, m, l) = indexes(page);
        // An index beyond the root is an address beyond `ADDR_LIMIT`; it
        // and an absent node or page all mean "never written".
        let Some(p) = self
            .root
            .get_mut(r)
            .and_then(|mid| mid.as_deref_mut())
            .and_then(|mid| mid[m].as_deref_mut())
            .and_then(|leaf| leaf[l].as_deref_mut())
        else {
            if !self.released.is_empty() && is_released(&self.released, page) {
                self.released_accesses += 1;
            }
            return 0;
        };
        *entry = TlbEntry { page, ptr: p };
        p[idx]
    }

    /// Write the aligned word at `addr`, materializing its page (and the
    /// radix nodes above it) on demand.
    #[inline]
    pub fn write(&mut self, addr: u64, val: u64) {
        let (page, idx) = Self::split(addr);
        let entry = &mut self.tlb[tlb_slot(page)];
        if entry.page == page {
            // SAFETY: as in `read`.
            unsafe { (*entry.ptr)[idx] = val };
            return;
        }
        assert!(
            addr < ADDR_LIMIT,
            "simulated write at {addr:#x} beyond the {ADDR_LIMIT:#x} address-space bound"
        );
        let (r, m, l) = indexes(page);
        let slot = &mut self.root[r].get_or_insert_with(node)[m].get_or_insert_with(node)[l];
        let p = match slot {
            Some(p) => p,
            None => {
                self.resident += 1;
                self.mat_log.push(page);
                if !self.released.is_empty() && unrelease(&mut self.released, page) {
                    self.released_accesses += 1;
                }
                slot.insert(zeroed(&mut self.spare))
            }
        };
        *entry = TlbEntry {
            page,
            ptr: p.as_mut(),
        };
        p[idx] = val;
    }

    /// Number of materialized pages (test/diagnostic aid; proportional to
    /// host memory footprint).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Loads and stores that landed on a released page since the memory
    /// was built (not rewound by [`Memory::restore`]).
    pub fn released_accesses(&self) -> u64 {
        self.released_accesses
    }

    /// `page`'s radix slot, if the nodes above it exist.
    #[inline]
    fn leaf_slot(&mut self, page: u64) -> Option<&mut Option<Box<Page>>> {
        let (r, m, l) = indexes(page);
        let mid = self.root.get_mut(r)?.as_deref_mut()?;
        Some(&mut mid[m].as_deref_mut()?[l])
    }

    /// The radix slot of a page the materialization log names.
    #[inline]
    fn slot_mut(&mut self, page: u64) -> &mut Option<Box<Page>> {
        self.leaf_slot(page)
            .expect("a logged page has its radix nodes")
    }

    /// Take a materialized page's storage out and clear its TLB entry.
    fn take_page(&mut self, page: u64) -> Box<Page> {
        let storage = self.slot_mut(page).take();
        self.resident -= 1;
        let entry = &mut self.tlb[tlb_slot(page)];
        if entry.page == page {
            *entry = NO_PAGE;
        }
        storage.expect("a dropped page is materialized")
    }

    /// Drop a page a restore rewinds away, keeping its buffer spare.
    fn recycle_page(&mut self, page: u64) {
        let storage = self.take_page(page);
        if self.spare.len() < SPARE_MAX {
            self.spare.push(storage);
        }
    }

    /// Unmap `[base, base + len)`: every page that lies wholly inside it is
    /// released — its storage, if it has any, is freed and its log entry
    /// becomes a tombstone — and reads as zero until a write materializes
    /// it again. A page the range only partly covers is kept: the mapping
    /// next to it may hold the rest. Host bookkeeping only: no simulated
    /// cost, no event.
    pub fn release(&mut self, base: u64, len: u64) {
        let first = base.div_ceil(PAGE_BYTES);
        let end = base.saturating_add(len).min(ADDR_LIMIT) >> PAGE_SHIFT;
        let mut dropped = 0;
        for page in first..end {
            *self.released.entry(page >> 6).or_default() |= 1 << (page & 63);
            if self.leaf_slot(page).is_some_and(|slot| slot.is_some()) {
                drop(self.take_page(page));
                dropped += 1;
            }
        }
        // Each dropped page's live log entry is its last, and a tombstone
        // (`TOMB` set) lies outside `first..end`: mark from the newest end.
        for entry in self.mat_log.iter_mut().rev() {
            if dropped == 0 {
                break;
            }
            if (first..end).contains(entry) {
                *entry |= TOMB;
                dropped -= 1;
            }
        }
    }

    /// Capture every materialized page. With a `parent` snapshot of the
    /// *same* memory taken earlier, pages whose content is unchanged share
    /// the parent's `Arc` instead of being copied (the COW argument in
    /// DESIGN.md §14): the snapshot then allocates only for pages written
    /// since the parent.
    pub fn snapshot(&mut self, parent: Option<&MemSnapshot>) -> MemSnapshot {
        // The materialization log is append-only between restores and a
        // restore truncates it to the snapshot it rewinds to, so a parent's
        // log is always an index-aligned prefix of ours.
        let mut pages = Vec::with_capacity(self.mat_log.len());
        for i in 0..self.mat_log.len() {
            let page = self.mat_log[i];
            if page & TOMB != 0 {
                pages.push((page & !TOMB, None));
                continue;
            }
            let content = self
                .slot_mut(page)
                .as_deref()
                .expect("logged page is materialized");
            let shared = parent.and_then(|p| p.pages.get(i)).and_then(|(id, arc)| {
                let arc = arc.as_ref()?;
                (*id == page && arc.as_ref() == content).then(|| Arc::clone(arc))
            });
            pages.push((page, Some(shared.unwrap_or_else(|| Arc::new(*content)))));
        }
        MemSnapshot {
            pages,
            released: self.released.clone(),
        }
    }

    /// Rewind to `snap`: pages materialized after the capture are dropped,
    /// surviving pages get their captured content back, a page released
    /// since the capture is materialized again and one released at the
    /// capture is dropped. `snap` must come from this memory's own
    /// [`Memory::snapshot`] (enforced by the log prefix check).
    pub fn restore(&mut self, snap: &MemSnapshot) {
        assert!(
            snap.pages.len() <= self.mat_log.len(),
            "snapshot is newer than the memory it restores"
        );
        for i in (snap.pages.len()..self.mat_log.len()).rev() {
            let page = self.mat_log[i];
            if page & TOMB == 0 {
                self.recycle_page(page);
            }
        }
        self.mat_log.truncate(snap.pages.len());
        for (i, (page, content)) in snap.pages.iter().enumerate() {
            let entry = self.mat_log[i];
            assert_eq!(entry & !TOMB, *page, "snapshot from a different memory");
            match (entry & TOMB == 0, content) {
                (true, Some(content)) => {
                    let dst = self
                        .slot_mut(*page)
                        .as_deref_mut()
                        .expect("logged page is materialized");
                    if dst != content.as_ref() {
                        *dst = **content;
                    }
                }
                (true, None) => {
                    self.recycle_page(*page);
                    self.mat_log[i] |= TOMB;
                }
                (false, Some(content)) => {
                    let mut storage = zeroed(&mut self.spare);
                    *storage = **content;
                    *self.slot_mut(*page) = Some(storage);
                    self.resident += 1;
                    self.mat_log[i] = *page;
                }
                (false, None) => {}
            }
        }
        self.released.clone_from(&snap.released);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let mut m = Memory::new();
        assert_eq!(m.read(0x1000), 0);
        assert_eq!(m.read(0xdead_beef_0000), 0); // beyond ADDR_LIMIT: still zero
    }

    #[test]
    fn read_back() {
        let mut m = Memory::new();
        m.write(0x10, 42);
        m.write(0x18, 7);
        assert_eq!(m.read(0x10), 42);
        assert_eq!(m.read(0x18), 7);
        assert_eq!(m.read(0x20), 0);
    }

    #[test]
    fn pages_are_sparse() {
        let mut m = Memory::new();
        // Two writes 64 MB apart cost exactly two pages of host memory.
        m.write(0, 1);
        m.write(64 << 20, 2);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(0), 1);
        assert_eq!(m.read(64 << 20), 2);
    }

    #[test]
    fn word_slots_independent() {
        let mut m = Memory::new();
        for i in 0..WORDS_PER_PAGE as u64 {
            m.write(i * 8, i + 1);
        }
        for i in 0..WORDS_PER_PAGE as u64 {
            assert_eq!(m.read(i * 8), i + 1);
        }
        assert_eq!(m.resident_pages(), 1);
    }

    /// Whether two captured log entries share one frozen page, or are both
    /// tombstones.
    fn same_storage(a: &Option<Arc<Page>>, b: &Option<Arc<Page>>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// From one page to the next page that maps to the same TLB slot.
    const SLOT_STRIDE: u64 = PAGE_BYTES << TLB_BITS;

    /// Whether `addr`'s page is in the TLB.
    fn in_tlb(m: &Memory, addr: u64) -> bool {
        let page = addr >> PAGE_SHIFT;
        m.tlb[tlb_slot(page)].page == page
    }

    #[test]
    fn pages_that_share_a_tlb_slot_take_turns_in_it() {
        let mut m = Memory::new();
        let (a, b) = (0x1000, 0x1000 + SLOT_STRIDE);
        m.write(a, 1);
        m.write(0x2000, 2); // another slot: both stay
        assert!(in_tlb(&m, a) && in_tlb(&m, 0x2000));
        m.write(b, 3); // a's slot: a leaves
        assert!(!in_tlb(&m, a) && in_tlb(&m, b));
        assert_eq!(m.read(a), 1); // back to a through the radix
        assert!(in_tlb(&m, a) && !in_tlb(&m, b));
        m.write(a + 8, 4);
        assert_eq!(m.read(a + 8), 4);
        assert_eq!(m.read(b), 3);
        assert_eq!(m.read(0x2000), 2);
        // An unmapped page takes no slot.
        assert_eq!(m.read(0x1000 + 2 * SLOT_STRIDE), 0);
        assert!(in_tlb(&m, b));
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = Memory::new();
        m.write(0x1000, 1);
        m.write(0x5000, 2);
        let snap = m.snapshot(None);
        assert_eq!(snap.pages(), 2);
        m.write(0x1000, 99); // dirty a captured page
        m.write(0x9000, 3); // materialize a new page
        assert_eq!(m.resident_pages(), 3);
        m.restore(&snap);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(0x1000), 1);
        assert_eq!(m.read(0x5000), 2);
        assert_eq!(m.read(0x9000), 0, "post-snapshot page dropped");
        // The memory is usable (and re-snapshottable) after a restore.
        m.write(0x9000, 4);
        assert_eq!(m.read(0x9000), 4);
        let snap2 = m.snapshot(Some(&snap));
        assert_eq!(snap2.pages(), 3);
    }

    #[test]
    fn snapshot_shares_unchanged_pages_with_parent() {
        let mut m = Memory::new();
        m.write(0x1000, 1);
        m.write(0x5000, 2);
        let parent = m.snapshot(None);
        m.write(0x5000, 7); // only the second page diverges
        let child = m.snapshot(Some(&parent));
        assert!(
            same_storage(&parent.pages[0].1, &child.pages[0].1),
            "unchanged page must be shared, not copied"
        );
        assert!(!same_storage(&parent.pages[1].1, &child.pages[1].1));
        // Both snapshots restore to their own view.
        m.restore(&parent);
        assert_eq!(m.read(0x5000), 2);
        m.restore(&child);
        assert_eq!(m.read(0x5000), 7);
    }

    #[test]
    fn no_page_a_restore_drops_reads_back_through_a_stale_tlb_entry() {
        let mut m = Memory::new();
        let survivors = [0x1000, 0x5000];
        for (i, &a) in survivors.iter().enumerate() {
            m.write(a + 0x800, i as u64 + 1);
        }
        let snap = m.snapshot(None);
        // Pages born after the snapshot, each in the TLB at the restore:
        // in slots of their own, and in the slots of both survivors.
        let dropped = [
            0x2000,
            0x3000,
            0x9000,
            0x1000 + SLOT_STRIDE,
            0x5000 + SLOT_STRIDE,
        ];
        for (i, &a) in dropped.iter().enumerate() {
            m.write(a + 0x800, 10 + i as u64);
        }
        assert!(dropped.iter().all(|&a| in_tlb(&m, a)));
        m.restore(&snap);
        assert_eq!(m.resident_pages(), survivors.len());
        // A stale entry here would read freed storage, or resurrect a
        // dropped page, instead of reading zero.
        for &a in &dropped {
            assert_eq!(m.read(a + 0x800), 0, "dropped page {a:#x}");
        }
        for (i, &a) in survivors.iter().enumerate() {
            assert_eq!(m.read(a + 0x800), i as u64 + 1, "surviving page {a:#x}");
        }
        // And a write materializes a dropped page afresh.
        for (i, &a) in dropped.iter().enumerate() {
            m.write(a + 0x800, 20 + i as u64);
        }
        assert_eq!(m.resident_pages(), survivors.len() + dropped.len());
        for (i, &a) in dropped.iter().enumerate() {
            assert_eq!(m.read(a + 0x800), 20 + i as u64);
        }
    }

    #[test]
    fn a_release_drops_the_pages_wholly_inside_its_range() {
        let mut m = Memory::new();
        // Three pages written, a fourth mapped but never touched.
        for page in 0..3u64 {
            m.write(0x10_0000 + page * PAGE_BYTES + 8, page + 1);
        }
        assert_eq!(m.resident_pages(), 3);
        // A range that starts inside page 0 and ends inside page 2 covers
        // only page 1 wholly.
        m.release(0x10_0000 + 16, 2 * PAGE_BYTES);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(0x10_0000 + 8), 1);
        assert_eq!(m.read(0x10_0000 + 2 * PAGE_BYTES + 8), 3);
        assert_eq!(m.released_accesses(), 0);
        // The whole mapping, the untouched fourth page included.
        m.release(0x10_0000, 4 * PAGE_BYTES);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.mat_log.iter().filter(|&&e| e & TOMB != 0).count(), 3);
        for page in 0..4u64 {
            assert_eq!(m.read(0x10_0000 + page * PAGE_BYTES), 0);
        }
        assert_eq!(m.released_accesses(), 4);
        // An empty or a sub-page range releases nothing.
        m.write(0x20_0000, 5);
        m.release(0x20_0000, 0);
        m.release(0x20_0000, PAGE_BYTES - 8);
        assert_eq!((m.resident_pages(), m.read(0x20_0000)), (1, 5));
    }

    #[test]
    fn a_write_to_a_released_page_materializes_and_logs_it_again() {
        let mut m = Memory::new();
        m.write(0x3000, 7);
        m.release(0x3000, PAGE_BYTES);
        assert_eq!(m.read(0x3008), 0);
        m.write(0x3008, 9);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!((m.read(0x3000), m.read(0x3008)), (0, 9), "no stale word");
        assert_eq!(m.mat_log, [0x3 | TOMB, 0x3]);
        // The read and the write that re-materialized; reads of the live
        // page after it are not counted.
        assert_eq!(m.released_accesses(), 2);
        // Released again, the page's live entry is its second.
        m.release(0x3000, PAGE_BYTES);
        assert_eq!(m.mat_log, [0x3 | TOMB, 0x3 | TOMB]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn no_released_page_reads_back_through_a_stale_tlb_entry() {
        let mut m = Memory::new();
        let (a, b) = (0x1000, 0x1000 + SLOT_STRIDE);
        m.write(a, 1);
        m.write(0x2000, 2);
        assert!(in_tlb(&m, a) && in_tlb(&m, 0x2000));
        m.release(a, PAGE_BYTES);
        assert!(!in_tlb(&m, a), "the released page left its slot");
        assert!(in_tlb(&m, 0x2000), "a page outside the range kept its slot");
        assert_eq!(m.read(a), 0);
        // A page that shares the slot takes it, and the released one, once
        // written again, takes it back with fresh storage.
        m.write(b, 3);
        m.write(a + 8, 4);
        assert_eq!((m.read(a), m.read(a + 8), m.read(b)), (0, 4, 3));
        // A released page whose slot another page holds leaves that one be.
        m.release(a, PAGE_BYTES);
        m.write(b + 8, 5);
        m.release(a, PAGE_BYTES);
        assert!(in_tlb(&m, b));
        assert_eq!((m.read(b), m.read(b + 8), m.read(a + 8)), (3, 5, 0));
    }

    /// The storage `addr`'s page holds, if it is materialized.
    fn storage(m: &mut Memory, addr: u64) -> Option<*const Page> {
        let slot = m.leaf_slot(addr >> PAGE_SHIFT)?;
        slot.as_deref().map(std::ptr::from_ref)
    }

    #[test]
    fn a_buffer_a_restore_recycles_serves_no_stale_word() {
        let words = 0..WORDS_PER_PAGE as u64;
        let mut m = Memory::new();
        m.write(0x1000, 1);
        let snap = m.snapshot(None);
        // Page `a`, born after the snapshot, full of non-zero words and in
        // the TLB at the restore; `b` maps to the same slot.
        let (a, b) = (0x3000, 0x3000 + SLOT_STRIDE);
        for w in words.clone() {
            m.write(a + 8 * w, 0xa000 + w);
        }
        let buffer = storage(&mut m, a);
        assert!(in_tlb(&m, a));
        m.restore(&snap);
        assert_eq!(m.spare.len(), 1, "the restore keeps a's buffer");
        assert!(!in_tlb(&m, a), "a dropped page leaves its slot");

        // `b` takes the slot and the very buffer `a` had: zeroed.
        m.write(b, 7);
        assert!(m.spare.is_empty());
        assert_eq!(storage(&mut m, b), buffer, "the buffer is recycled");
        assert!(in_tlb(&m, b));
        for w in words.clone() {
            assert_eq!(m.read(b + 8 * w), if w == 0 { 7 } else { 0 }, "b word {w}");
        }
        // `a` reads zero everywhere, though its old buffer serves `b` from
        // the slot `a` would use.
        for w in words.clone() {
            assert_eq!(m.read(a + 8 * w), 0, "a word {w} after b took its buffer");
        }
        assert!(in_tlb(&m, b) && !in_tlb(&m, a));

        // Materialized again, on a recycled buffer, `a` reads zero in every
        // word but the one written.
        m.restore(&snap);
        m.write(a + 8, 9);
        assert_eq!(storage(&mut m, a), buffer);
        for w in words.clone() {
            assert_eq!(m.read(a + 8 * w), if w == 1 { 9 } else { 0 }, "a word {w}");
        }

        // A released page's buffer goes back to the host, not to the spares.
        m.restore(&snap);
        assert_eq!(m.spare.len(), 1);
        m.write(0x8000, 3);
        assert!(m.spare.is_empty());
        m.release(0x8000, PAGE_BYTES);
        assert!(m.spare.is_empty(), "a released page is never recycled");
        assert_eq!(m.read(0x8000), 0);
        m.write(0x8000, 4);
        assert_eq!(m.read(0x8000), 4);
        assert_eq!(m.read(0x8008), 0);
    }

    #[test]
    fn a_page_released_before_a_snapshot_stays_released_through_restores() {
        let mut m = Memory::new();
        m.write(0x1000, 1);
        m.write(0x5000, 2);
        m.release(0x5000, PAGE_BYTES);
        let snap = m.snapshot(None);
        assert_eq!(snap.pages(), 1);
        // Written again after the capture: the restore drops it.
        m.write(0x5000, 3);
        m.write(0x1000, 4);
        assert_eq!(m.resident_pages(), 2);
        m.restore(&snap);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!((m.read(0x1000), m.read(0x5000)), (1, 0));
        assert_eq!(m.mat_log, [0x1, 0x5 | TOMB]);
        // And it is released again, as at the capture: a write counts.
        let before = m.released_accesses();
        m.write(0x5008, 5);
        assert_eq!(m.released_accesses(), before + 1);
        let child = m.snapshot(Some(&snap));
        assert!(same_storage(&snap.pages[0].1, &child.pages[0].1));
    }

    #[test]
    fn a_page_released_after_a_snapshot_comes_back_with_its_content() {
        let mut m = Memory::new();
        m.write(0x1000, 1);
        m.write(0x5000, 2);
        m.write(0x5ff8, 3);
        let snap = m.snapshot(None);
        m.release(0x5000, PAGE_BYTES);
        m.release(0x1000, PAGE_BYTES);
        m.write(0x9000, 4); // logged after both tombstones
        assert_eq!(m.resident_pages(), 1);
        let between = m.snapshot(Some(&snap));
        assert_eq!(between.pages(), 1);
        m.restore(&snap);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.mat_log, [0x1, 0x5]);
        assert_eq!((m.read(0x1000), m.read(0x5000), m.read(0x5ff8)), (1, 2, 3));
        assert_eq!(m.read(0x9000), 0);
        // Not released any more: accessing the pages counts nothing.
        let before = m.released_accesses();
        m.write(0x5000, 6);
        assert_eq!(m.released_accesses(), before);
        // Forward again to the snapshot that holds the tombstones.
        m.write(0x9000, 4);
        m.restore(&between);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!((m.read(0x1000), m.read(0x5000), m.read(0x9000)), (0, 0, 4));
        assert_eq!(m.released_accesses(), before + 2);
    }

    /// Word addresses on both sides of every kind of radix boundary: page
    /// to page inside a leaf, leaf to leaf, middle node to middle node, the
    /// lowest and the highest materializable word.
    fn straddling_addrs() -> Vec<u64> {
        let leaf_span = 1u64 << (LEAF_BITS + PAGE_SHIFT);
        let mid_span = leaf_span << MID_BITS;
        let mut addrs = vec![0, 8, PAGE_BYTES - 8, PAGE_BYTES, ADDR_LIMIT - 8];
        for edge in [
            leaf_span,
            5 * leaf_span,
            mid_span,
            3 * mid_span,
            ADDR_LIMIT - mid_span,
        ] {
            addrs.extend([edge - PAGE_BYTES, edge - 8, edge, edge + PAGE_BYTES]);
        }
        addrs
    }

    #[test]
    fn memory_matches_a_map_across_every_node_boundary() {
        use rand::{Rng, SeedableRng};
        use std::collections::{HashMap, HashSet};
        let mut addrs = straddling_addrs();
        // And pages that share a TLB slot: p, p + 256 and p + 512.
        for base in [0x3000, (1 << (LEAF_BITS + PAGE_SHIFT)) - PAGE_BYTES] {
            addrs.extend((0..3).map(|k| base + 0x10 + k * SLOT_STRIDE));
        }
        // Restores and releases that dropped a page whose entry was in the
        // TLB.
        let (mut stale_drops, mut stale_releases) = (0, 0);
        for seed in 0..8u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut m = Memory::new();
            // The model: word values, and which pages a write has touched.
            let mut words: HashMap<u64, u64> = HashMap::new();
            let mut pages: HashSet<u64> = HashSet::new();
            // Snapshots still restorable, oldest first, each with the model
            // it froze; the newest is the COW parent of the next.
            let mut snaps: Vec<(MemSnapshot, HashMap<u64, u64>, HashSet<u64>)> = Vec::new();
            for _ in 0..600 {
                let addr = addrs[rng.gen_range(0..addrs.len())];
                match rng.gen_range(0..20u32) {
                    0 => {
                        let snap = m.snapshot(snaps.last().map(|(s, ..)| s));
                        assert_eq!(snap.pages(), pages.len());
                        // Idempotence: nothing changed, so restoring and
                        // capturing again copies no page.
                        m.restore(&snap);
                        let again = m.snapshot(Some(&snap));
                        assert_eq!(again.pages.len(), snap.pages.len());
                        for ((a, pa), (b, pb)) in again.pages.iter().zip(&snap.pages) {
                            assert!(a == b && same_storage(pa, pb), "page {a:#x} was copied");
                        }
                        snaps.push((snap, words.clone(), pages.clone()));
                    }
                    1 if !snaps.is_empty() => {
                        // Back to a random snapshot; the ones after it are
                        // newer than the memory now and cannot be used.
                        snaps.truncate(rng.gen_range(0..snaps.len()) + 1);
                        let (snap, w, p) = snaps.last().expect("kept one");
                        if pages
                            .difference(p)
                            .any(|&page| in_tlb(&m, page << PAGE_SHIFT))
                        {
                            stale_drops += 1;
                        }
                        m.restore(snap);
                        (words, pages) = (w.clone(), p.clone());
                    }
                    2..=9 => {
                        let val = rng.gen_range(0..4u64); // zeros too
                        m.write(addr, val);
                        words.insert(addr, val);
                        pages.insert(addr >> PAGE_SHIFT);
                    }
                    10 => {
                        // One to three pages from `addr`'s page.
                        let first = addr >> PAGE_SHIFT;
                        let end = first + rng.gen_range(1..4u64);
                        if (first..end).any(|page| in_tlb(&m, page << PAGE_SHIFT)) {
                            stale_releases += 1;
                        }
                        m.release(first << PAGE_SHIFT, (end - first) << PAGE_SHIFT);
                        words.retain(|a, _| !(first..end).contains(&(a >> PAGE_SHIFT)));
                        pages.retain(|page| !(first..end).contains(page));
                    }
                    _ => assert_eq!(m.read(addr), words.get(&addr).copied().unwrap_or(0)),
                }
                assert_eq!(m.resident_pages(), pages.len());
                // At and beyond the limit nothing is ever mapped.
                assert_eq!(m.read(ADDR_LIMIT), 0);
                assert_eq!(m.read(ADDR_LIMIT + (addr & !7)), 0);
                assert_eq!(m.read(!7), 0); // the last word there is
            }
            for &addr in &addrs {
                assert_eq!(m.read(addr), words.get(&addr).copied().unwrap_or(0));
            }
        }
        assert!(
            stale_drops >= 100,
            "{stale_drops} restores dropped a page in the TLB"
        );
        assert!(
            stale_releases >= 30,
            "{stale_releases} releases dropped a page in the TLB"
        );
    }

    #[test]
    #[should_panic]
    fn write_beyond_limit_panics() {
        let mut m = Memory::new();
        m.write(ADDR_LIMIT, 1);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn unaligned_access_panics_in_debug() {
        let mut m = Memory::new();
        m.read(0x11);
    }
}
