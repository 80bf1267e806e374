//! The host-side state of an allocator model, and its checkpoint.
//!
//! Everything a model mutates on the host — free-list heads, bump cursors,
//! arena and superblock tables, the `addr → id` maps `free` needs — is one
//! `#[derive(Clone)]` struct of plain data inside one [`HostState`]. A heap
//! snapshot is a clone of that struct and a restore is `clone_from`, written
//! here once for every model. Simulated-lock handles created mid-run live
//! *in* the state, so they rewind together with the machine's lock table.
//!
//! The rule (DESIGN.md §4.1): between two events exactly one logical thread
//! runs, on both executors, so the state needs no lock — it sits in a
//! [`tm_sim::TurnCell`], which the holder of the turn opens for the price
//! of a pointer compare. What must never happen is an event while the state
//! is borrowed (the event may hand the turn to a peer that wants it too),
//! and the borrow checker sees to it: [`HostState::with`] takes the thread's
//! `&mut Ctx` for as long as its closure runs, so the closure has no `Ctx`
//! to call. [`HostState::list`] is the one place state and simulated memory
//! meet, and the state is not borrowed while they do.

use std::sync::atomic::{AtomicU64, Ordering};

use tm_sim::{Ctx, Sim, TurnCell};

use crate::freelist::FreeList;
use crate::HeapSnapshot;

/// Source of instance ids: a snapshot names the allocator it was taken from.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

pub(crate) struct HostState<S> {
    /// The model's name, for panic messages.
    model: &'static str,
    id: u64,
    state: TurnCell<S>,
}

impl<S: Clone + Send + Sync + 'static> HostState<S> {
    /// The state of a model built on `sim`: only threads of `sim`'s runs
    /// reach it.
    pub fn new(model: &'static str, sim: &Sim, state: S) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let state = sim.turn_cell(state);
        HostState { model, id, state }
    }

    /// Host-only bookkeeping, from a thread of a run: `f` gets the state
    /// and — `ctx` being borrowed meanwhile — no `Ctx`.
    #[inline]
    pub fn with<R>(&self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut S) -> R) -> R {
        self.state.with(ctx, f)
    }

    /// The same between runs (diagnostics, snapshot, restore); panics
    /// during one.
    pub fn with_idle<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        self.state.with_idle(f)
    }

    /// Operate on the free list `pick` names, whose links live in simulated
    /// memory: copy the head out, run `op` with the `Ctx` and the state not
    /// borrowed, store the head back. Whoever may run during `op` cannot
    /// touch the same list — the model holds the simulated lock that guards
    /// it, or the list is thread-private. Calls nest (a transfer is a `list`
    /// in a `list`).
    pub fn list<R>(
        &self,
        ctx: &mut Ctx<'_>,
        pick: impl Fn(&mut S) -> &mut FreeList,
        op: impl FnOnce(&mut FreeList, &mut Ctx<'_>) -> R,
    ) -> R {
        self.list_then(ctx, pick, op, |_, r| r)
    }

    /// [`HostState::list`], with the bookkeeping that depends on `op`'s
    /// result (a use count, a byte budget) done by `then` in the
    /// store-back's visit to the state instead of a further one.
    pub fn list_then<R, T>(
        &self,
        ctx: &mut Ctx<'_>,
        pick: impl Fn(&mut S) -> &mut FreeList,
        op: impl FnOnce(&mut FreeList, &mut Ctx<'_>) -> R,
        then: impl FnOnce(&mut S, R) -> T,
    ) -> T {
        let mut fl = self.with(ctx, |s| *pick(s));
        let r = op(&mut fl, ctx);
        self.with(ctx, |s| {
            *pick(s) = fl;
            then(s, r)
        })
    }

    /// The boxed value is `(instance id, state)`. Panics during a run.
    pub fn snapshot(&self) -> Option<HeapSnapshot> {
        Some(Box::new((self.id, self.with_idle(|s| s.clone()))))
    }

    /// Panics on a foreign snapshot, and during a run.
    pub fn restore(&self, snap: &HeapSnapshot) {
        match snap.downcast_ref::<(u64, S)>() {
            Some((id, state)) if *id == self.id => self.with_idle(|s| s.clone_from(state)),
            _ => panic!("{} model: restore of a foreign heap snapshot", self.model),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::MachineConfig;

    fn sim() -> Sim {
        Sim::new(MachineConfig::tiny_test())
    }

    fn panic_text(f: impl FnOnce()) -> String {
        let f = std::panic::AssertUnwindSafe(f);
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap()
    }

    #[test]
    fn snapshot_is_a_clone_and_restore_rewinds() {
        let sim = sim();
        let st = HostState::new("toy", &sim, vec![1u64, 2]);
        let snap = st.snapshot().unwrap();
        sim.run(2, |ctx| st.with(ctx, |s| s.push(3)));
        assert_eq!(st.with_idle(|s| s.clone()), [1, 2, 3, 3]);
        st.restore(&snap);
        assert_eq!(st.with_idle(|s| s.clone()), [1, 2]);
    }

    #[test]
    fn restoring_another_state_type_panics_with_the_models_name() {
        let sim = sim();
        let a = HostState::new("toy-a", &sim, 7u64);
        let b = HostState::new("toy-b", &sim, String::new());
        let snap = b.snapshot().unwrap();
        let text = panic_text(move || a.restore(&snap));
        assert_eq!(text, "toy-a model: restore of a foreign heap snapshot");
    }

    #[test]
    fn restoring_another_instances_snapshot_panics_with_the_models_name() {
        let sim = sim();
        let a = HostState::new("toy", &sim, 7u64);
        let sibling = HostState::new("toy", &sim, 7u64);
        let snap = sibling.snapshot().unwrap();
        let text = panic_text(move || a.restore(&snap));
        assert_eq!(text, "toy model: restore of a foreign heap snapshot");
    }

    #[test]
    fn a_snapshot_taken_during_a_run_panics_instead_of_racing_it() {
        let sim = sim();
        let st = HostState::new("toy", &sim, 0u64);
        let text = panic_text(|| {
            sim.run(2, |ctx| {
                st.with(ctx, |s| *s += 1);
                st.snapshot();
            });
        });
        assert_eq!(text, "TurnCell::with_idle called during a run");
    }
}
