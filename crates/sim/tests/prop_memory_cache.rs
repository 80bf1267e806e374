//! Property tests of the simulated memory and cache model.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use tm_sim::{MachineConfig, Sim, SimSnapshot};

/// The simulated address space ends here (`tm_sim`'s private
/// `memory::ADDR_LIMIT`): 44 bits, split 11/11/10 over a three-level page
/// radix above 4 KiB pages.
const ADDR_LIMIT: u64 = 1 << 44;

/// Word addresses on both sides of every kind of radix boundary: page to
/// page, leaf to leaf (4 MiB), middle node to middle node (8 GiB), the
/// lowest and the highest word that can exist.
fn straddling_addrs() -> Vec<u64> {
    let (page, leaf_span, mid_span) = (1u64 << 12, 1u64 << 22, 1u64 << 33);
    let mut addrs = vec![0, 8, page - 8, page, ADDR_LIMIT - 8];
    for edge in [
        leaf_span,
        5 * leaf_span,
        mid_span,
        3 * mid_span,
        ADDR_LIMIT - mid_span,
    ] {
        addrs.extend([edge - page, edge - 8, edge, edge + page]);
    }
    addrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulated memory behaves like memory: the last write to an address
    /// is what a read returns, across any interleaving of addresses.
    #[test]
    fn memory_read_your_writes(ops in prop::collection::vec((0u64..256, any::<u64>()), 1..80)) {
        let sim = Sim::new(MachineConfig::tiny_test());
        let ops2 = ops.clone();
        // Plain asserts inside the closure: a panic propagates out of
        // Sim::run and proptest records the failing case.
        sim.run(1, move |ctx| {
            let mut model = std::collections::HashMap::new();
            for (slot, val) in &ops2 {
                let addr = 0x1000 + slot * 8;
                ctx.write_u64(addr, *val);
                model.insert(addr, *val);
                // Random-ish probe of something written earlier.
                let (probe, expect) = model.iter().next().map(|(a, v)| (*a, *v)).unwrap();
                assert_eq!(ctx.read_u64(probe), expect);
            }
            for (addr, val) in model {
                assert_eq!(ctx.read_u64(addr), val);
            }
        });
    }

    /// The cache model never *creates* misses for a repeated access
    /// sequence: running the same single-line loop twice, the second pass
    /// costs no more than the first.
    #[test]
    fn rerun_is_never_slower(lines in prop::collection::vec(0u64..8, 1..40)) {
        let sim = Sim::new(MachineConfig::tiny_test());
        let lines2 = lines.clone();
        let costs = std::sync::Mutex::new((0u64, 0u64));
        sim.run(1, |ctx| {
            let t0 = ctx.now();
            for &l in &lines2 {
                ctx.read_u64(0x2000 + l * 64);
            }
            let t1 = ctx.now();
            for &l in &lines2 {
                ctx.read_u64(0x2000 + l * 64);
            }
            let t2 = ctx.now();
            *costs.lock().unwrap() = (t1 - t0, t2 - t1);
        });
        let (first, second) = *costs.lock().unwrap();
        prop_assert!(second <= first, "second pass {} > first {}", second, first);

    }

    /// Virtual time is deterministic for any program (same ops, same time),
    /// including multi-threaded runs with shared conflicts.
    #[test]
    fn multithread_determinism(seed in any::<u64>(), n in 1usize..4) {
        let run = |seed: u64| {
            let sim = Sim::new(MachineConfig::tiny_test());
            let r = sim.run(n, move |ctx| {
                let mut x = seed ^ ctx.tid() as u64;
                for _ in 0..40 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let addr = 0x3000 + (x % 16) * 8;
                    if x & 1 == 0 {
                        ctx.write_u64(addr, x);
                    } else {
                        ctx.read_u64(addr);
                    }
                    ctx.tick(x % 50);
                }
            });
            r.cycles
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

/// The whole machine's memory against a map, from outside: untimed reads
/// and writes through `Sim::with_state` on addresses that straddle every
/// node boundary of the page radix, interleaved with `Sim::snapshot` (each
/// the COW child of the one before), `Sim::restore`, `Ctx::os_free` of
/// ranges that start on a page boundary or inside a page, and fresh spans
/// past the last one, as the bump allocator hands them out, mapped,
/// written at both ends and unmapped. A released page reads 0, and every
/// access to one, up to the write that maps it again, is counted. The
/// radix holds a leaf exactly over each 4 MiB with a live page, and the
/// log past the longest one a snapshot captured is at most twice the live
/// pages: counters show that the cases free leaves and compact the log.
///
/// The case loop of `proptest!`, by hand, so that the counters can be
/// asserted over all the cases.
#[test]
fn memory_matches_a_map_through_snapshots_and_restores() {
    let name = "memory_matches_a_map_through_snapshots_and_restores";
    let ops = (prop::collection::vec(
        (0usize..25, 0u64..4, 0u32..23),
        1..300,
    ),);
    // Ops that freed a radix leaf, and releases that compacted the log.
    let (mut leaf_frees, mut compactions) = (0, 0);
    let failure = proptest::run_cases(16, proptest::seed_of(name), &ops, |(ops,)| {
        let addrs = straddling_addrs();
        prop_assert_eq!(addrs.len(), 25);
        let sim = Sim::new(MachineConfig::tiny_test());
        let mut words: HashMap<u64, u64> = HashMap::new();
        let mut pages: HashSet<u64> = HashSet::new();
        let mut released: HashSet<u64> = HashSet::new();
        let mut released_accesses = 0;
        // The longest log a snapshot has captured.
        let mut visible = 0;
        // Snapshots still restorable, oldest first, with the model each froze.
        type Model = (HashMap<u64, u64>, HashSet<u64>, HashSet<u64>);
        let mut snaps: Vec<(SimSnapshot, Model)> = Vec::new();
        let radix = |sim: &Sim| sim.with_state(|m| (m.radix_leaves(), m.log_entries()));
        for &(pick, val, what) in ops {
            let addr = addrs[pick];
            let (leaves_before, log_before) = radix(&sim);
            match what {
                0 => {
                    let snap = sim.snapshot(snaps.last().map(|(s, _)| s));
                    prop_assert_eq!(snap.pages(), pages.len());
                    visible = visible.max(radix(&sim).1);
                    snaps.push((snap, (words.clone(), pages.clone(), released.clone())));
                }
                1 if !snaps.is_empty() => {
                    // Later snapshots are newer than the machine now.
                    snaps.truncate(val as usize % snaps.len() + 1);
                    let (snap, model) = snaps.last().expect("kept one");
                    sim.restore(snap);
                    (words, pages, released) = model.clone();
                }
                2..=9 => {
                    sim.with_state(|m| m.write_u64(addr, val)); // zeros too
                    words.insert(addr, val);
                    pages.insert(addr >> 12);
                    released_accesses += u64::from(released.remove(&(addr >> 12)));
                }
                20 | 21 => {
                    // One to four pages from `addr`, or from its page.
                    let base = if what == 20 { addr & !4095 } else { addr };
                    let len = (val + 1) << 12;
                    sim.run(1, |ctx| ctx.os_free(base, len));
                    let first = base.div_ceil(4096);
                    let end = (base + len).min(ADDR_LIMIT) >> 12;
                    for page in first..end {
                        pages.remove(&page);
                        released.insert(page);
                    }
                    words.retain(|a, _| !(first..end).contains(&(a >> 12)));
                    compactions += u32::from(radix(&sim).1 < log_before);
                }
                22 => {
                    // A fresh span of 1 to 4 MiB, written in its first and
                    // its last word, then unmapped.
                    let len = (val + 1) << 20;
                    let base = sim.with_state(|m| m.os_alloc(len, 4096));
                    for a in [base, base + len - 8] {
                        sim.with_state(|m| m.write_u64(a, val));
                        words.insert(a, val);
                        pages.insert(a >> 12);
                        released_accesses += u64::from(released.remove(&(a >> 12)));
                    }
                    let (grown, log_grown) = radix(&sim);
                    sim.run(1, |ctx| ctx.os_free(base, len));
                    for page in base >> 12..(base + len) >> 12 {
                        pages.remove(&page);
                        released.insert(page);
                    }
                    words.retain(|a, _| !(base..base + len).contains(a));
                    leaf_frees += u32::from(radix(&sim).0 < grown);
                    compactions += u32::from(radix(&sim).1 < log_grown);
                }
                _ => {
                    let expect = words.get(&addr).copied().unwrap_or(0);
                    prop_assert_eq!(sim.with_state(|m| m.read_u64(addr)), expect);
                    released_accesses += u64::from(released.contains(&(addr >> 12)));
                }
            }
            prop_assert_eq!(sim.with_state(|m| m.resident_pages()), pages.len());
            // A leaf over each 4 MiB that holds a live page, and no other.
            let (leaves, log) = radix(&sim);
            let spans: HashSet<u64> = pages.iter().map(|page| page >> 10).collect();
            prop_assert_eq!(leaves, spans.len());
            leaf_frees += u32::from(what != 22 && leaves < leaves_before);
            // Past `visible`, tombstones are at most half the log, and
            // each other entry there is a live page's.
            prop_assert!(
                log <= visible + 2 * pages.len(),
                "log {log}, visible {visible}"
            );
            // At and beyond the limit nothing is ever mapped.
            let beyond = sim.with_state(|m| {
                m.read_u64(ADDR_LIMIT) | m.read_u64(ADDR_LIMIT + addr) | m.read_u64(!7)
            });
            prop_assert_eq!(beyond, 0);
            prop_assert_eq!(sim.with_state(|m| m.released_accesses()), released_accesses);
        }
        for &addr in &addrs {
            let expect = words.get(&addr).copied().unwrap_or(0);
            prop_assert_eq!(sim.with_state(|m| m.read_u64(addr)), expect);
        }
        Ok(())
    });
    if let Some((minimal, err, case, steps)) = failure {
        panic!("{name}: case {case} failed after {steps} shrink steps: {err}\n  minimal ops: {minimal:?}");
    }
    // 236 and 55 over the 16 cases.
    assert!(leaf_frees >= 100, "{leaf_frees} ops freed a radix leaf");
    assert!(
        compactions >= 25,
        "{compactions} releases compacted the log"
    );
}
