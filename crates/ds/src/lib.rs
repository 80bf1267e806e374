//! # tm-ds — transactional data structures
//!
//! The paper's three synthetic-benchmark structures (§5), implemented
//! exactly as the microbenchmarks describe them and laid out in simulated
//! memory through the allocator under test:
//!
//! * [`TxList`] — sorted singly-linked list; 16-byte nodes (value + next),
//!   long traversals, large read sets (§5.1);
//! * [`TxHashSet`] — chained hash set with a large bucket array; short
//!   transactions, small read/write sets (§5.2);
//! * [`TxRbTree`] — red–black tree with 48-byte nodes; medium transactions,
//!   rotations deallocate/move nodes across transactions (§5.3);
//!
//! plus [`TxQueue`], a transactional FIFO used by the STAMP ports.
//!
//! All structures store *handles only* (simulated base addresses); the
//! mutable state — including the tree root pointer — lives in simulated
//! memory and is accessed transactionally, so the structures are safely
//! shared across workload threads by value.

#![deny(missing_docs)]

mod hashmap;
mod hashset;
mod list;
mod queue;
mod rbtree;

pub use hashmap::TxHashMap;
pub use hashset::TxHashSet;
pub use list::TxList;
pub use queue::TxQueue;
pub use rbtree::TxRbTree;

use tm_sim::Ctx;
use tm_stm::{Stm, TxThread};

/// Uniform set interface for the synthetic benchmark sweeps (Fig. 4).
pub trait TxSet: Send + Sync {
    /// Insert `key`; false if already present.
    fn insert(&self, stm: &Stm, ctx: &mut Ctx<'_>, th: &mut TxThread, key: u64) -> bool;
    /// Remove `key`; false if absent.
    fn remove(&self, stm: &Stm, ctx: &mut Ctx<'_>, th: &mut TxThread, key: u64) -> bool;
    /// Membership test.
    fn contains(&self, stm: &Stm, ctx: &mut Ctx<'_>, th: &mut TxThread, key: u64) -> bool;
}

/// The structures the synthetic benchmark sweeps over (paper §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// Sorted singly-linked list (O(n) traversals).
    LinkedList,
    /// Open hash set, one list per bucket.
    HashSet,
    /// CLRS red-black tree.
    RbTree,
}

impl StructureKind {
    /// Every structure, in the paper's Fig. 4 order.
    pub const ALL: [StructureKind; 3] = [
        StructureKind::LinkedList,
        StructureKind::HashSet,
        StructureKind::RbTree,
    ];

    /// Display name, as printed in tables and reports.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::LinkedList => "Linked-list",
            StructureKind::HashSet => "HashSet",
            StructureKind::RbTree => "RBTree",
        }
    }

    /// Command-line token (`--structure hash`), the kind's one spelling:
    /// `--structure` matches it exactly, and the sweep axes, presets and
    /// usage text take it from [`StructureKind::ALL`].
    pub fn token(self) -> &'static str {
        match self {
            StructureKind::LinkedList => "list",
            StructureKind::HashSet => "hash",
            StructureKind::RbTree => "rbtree",
        }
    }
}

/// One of the three set structures, chosen at run time: the one
/// dispatcher over [`StructureKind`]. A handle, so `Copy` across threads.
#[derive(Clone, Copy)]
pub enum AnySet {
    /// A [`TxList`].
    List(TxList),
    /// A [`TxHashSet`].
    Hash(TxHashSet),
    /// A [`TxRbTree`].
    Tree(TxRbTree),
}

impl AnySet {
    /// Build an empty `kind` in simulated memory; `buckets` sizes a hash
    /// set's bucket array and is ignored by the other two.
    pub fn new(kind: StructureKind, stm: &Stm, ctx: &mut Ctx<'_>, buckets: u64) -> AnySet {
        match kind {
            StructureKind::LinkedList => AnySet::List(TxList::new(stm, ctx)),
            StructureKind::HashSet => AnySet::Hash(TxHashSet::new(stm, ctx, buckets)),
            StructureKind::RbTree => AnySet::Tree(TxRbTree::new(stm, ctx)),
        }
    }

    /// The structure behind the uniform set interface.
    pub fn as_set(&self) -> &dyn TxSet {
        match self {
            AnySet::List(s) => s,
            AnySet::Hash(s) => s,
            AnySet::Tree(s) => s,
        }
    }

    /// Structure-specific raw invariants (list sortedness, red–black
    /// shape; a hash set has none beyond its lists), read outside any
    /// transaction. Panics on a violation.
    pub fn check_invariants_raw(&self, ctx: &mut Ctx<'_>) {
        match self {
            AnySet::List(l) => assert!(l.is_sorted_raw(ctx), "list lost sortedness"),
            AnySet::Hash(_) => {}
            AnySet::Tree(t) => {
                t.check_invariants_raw(ctx);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::sync::Arc;
    use tm_alloc::AllocatorKind;
    use tm_sim::{MachineConfig, Sim};
    use tm_stm::StmConfig;

    pub fn setup() -> (Sim, Arc<Stm>) {
        setup_with(AllocatorKind::TbbMalloc, 5)
    }

    pub fn setup_with(kind: AllocatorKind, shift: u32) -> (Sim, Arc<Stm>) {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let alloc = kind.build(&sim);
        let stm = Arc::new(Stm::new(
            &sim,
            alloc,
            StmConfig {
                shift,
                ..StmConfig::default()
            },
        ));
        (sim, stm)
    }

    /// Generic single-threaded check of any `TxSet` against a reference
    /// model under a random operation mix.
    pub fn model_check<S: TxSet>(
        make: impl FnOnce(&Stm, &mut Ctx<'_>) -> S + Send,
        seed: u64,
        ops: usize,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let (sim, stm) = setup();
        let make = parking_lot::Mutex::new(Some(make));
        sim.run(1, |ctx| {
            let set = (make.lock().take().unwrap())(&stm, ctx);
            let mut th = stm.thread(0);
            let mut model = std::collections::BTreeSet::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..ops {
                let key = rng.gen_range(0..64u64);
                match rng.gen_range(0..3) {
                    0 => {
                        let a = set.insert(&stm, ctx, &mut th, key);
                        let b = model.insert(key);
                        assert_eq!(a, b, "insert({key}) diverged");
                    }
                    1 => {
                        let a = set.remove(&stm, ctx, &mut th, key);
                        let b = model.remove(&key);
                        assert_eq!(a, b, "remove({key}) diverged");
                    }
                    _ => {
                        let a = set.contains(&stm, ctx, &mut th, key);
                        let b = model.contains(&key);
                        assert_eq!(a, b, "contains({key}) diverged");
                    }
                }
            }
            // Sweep the whole key space once more for structural agreement.
            for key in 0..64u64 {
                assert_eq!(
                    set.contains(&stm, ctx, &mut th, key),
                    model.contains(&key),
                    "final contains({key}) diverged"
                );
            }
            stm.retire(th);
        });
    }

    /// Generic multi-threaded check: concurrent random ops; afterwards the
    /// net effect of the *successful* operations must match the contents.
    pub fn concurrent_check<S: TxSet + Copy + Send + 'static>(
        make: impl FnOnce(&Stm, &mut Ctx<'_>) -> S + Send,
        threads: usize,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let (sim, stm) = setup();
        let make = parking_lot::Mutex::new(Some(make));
        let set_cell = parking_lot::Mutex::new(None::<S>);
        let net = parking_lot::Mutex::new(Vec::new());
        sim.run(threads, |ctx| {
            if ctx.tid() == 0 {
                let set = (make.lock().take().unwrap())(&stm, ctx);
                *set_cell.lock() = Some(set);
            } else {
                // Everyone else starts after construction in virtual time.
                ctx.tick(1_000_000);
                ctx.fence();
            }
            let set = set_cell.lock().unwrap();
            let mut th = stm.thread(ctx.tid());
            let mut rng = SmallRng::seed_from_u64(ctx.tid() as u64 * 7 + 1);
            let mut local = Vec::new();
            for _ in 0..60 {
                let key = rng.gen_range(0..32u64);
                if rng.gen_bool(0.5) {
                    if set.insert(&stm, ctx, &mut th, key) {
                        local.push((key, 1i64));
                    }
                } else if set.remove(&stm, ctx, &mut th, key) {
                    local.push((key, -1i64));
                }
            }
            net.lock().extend(local);
            stm.retire(th);
        });
        // Sum per-key deltas: a key is present iff its net delta is +1.
        let mut delta = std::collections::HashMap::new();
        for (k, d) in net.into_inner() {
            *delta.entry(k).or_insert(0i64) += d;
        }
        let set = set_cell.lock().unwrap();
        sim.run(1, |ctx| {
            let mut th = stm.thread(0);
            for key in 0..32u64 {
                let want = delta.get(&key).copied().unwrap_or(0) == 1;
                assert_eq!(
                    set.contains(&stm, ctx, &mut th, key),
                    want,
                    "key {key} presence diverged from linearized ops"
                );
            }
            stm.retire(th);
        });
    }
}
