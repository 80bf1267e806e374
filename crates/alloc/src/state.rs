//! The host-side state of an allocator model, and its checkpoint.
//!
//! Everything a model mutates on the host — free-list heads, bump cursors,
//! arena and superblock tables, the `addr → id` maps `free` needs — is one
//! `#[derive(Clone)]` struct of plain data inside one [`HostState`]. A heap
//! snapshot is a clone of that struct and a restore is `clone_from`, written
//! here once for every model. `SimMutex` handles created mid-run live *in*
//! the state, so they rewind together with the machine's lock table.
//!
//! The rule (DESIGN.md §4.1): between two events exactly one logical thread
//! runs, on both executors, so the lock below is never contended — it exists
//! to make the model `Sync`. What is forbidden is holding its guard across a
//! `Ctx` call: that call may hand the turn to a peer whose next `with` would
//! wait on the host for a thread that cannot run. [`HostState::list`] is the
//! one place state and simulated memory meet, and it holds no guard while
//! they do; `with` panics, rather than deadlocks, when the rule is broken.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use tm_sim::Ctx;

use crate::freelist::FreeList;
use crate::HeapSnapshot;

/// Source of instance ids: a snapshot names the allocator it was taken from.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

pub(crate) struct HostState<S> {
    /// The model's name, for panic messages.
    model: &'static str,
    id: u64,
    state: Mutex<S>,
}

impl<S: Clone + Send + Sync + 'static> HostState<S> {
    pub fn new(model: &'static str, state: S) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let state = Mutex::new(state);
        HostState { model, id, state }
    }

    /// Host-only bookkeeping: `f` gets the state and no `Ctx`.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut guard = self.state.try_lock().unwrap_or_else(|| self.re_entered());
        f(&mut guard)
    }

    #[cold]
    fn re_entered(&self) -> ! {
        panic!(
            "{} model: host state re-entered under a live guard (held across a Ctx call?)",
            self.model
        )
    }

    /// Operate on the free list `pick` names, whose links live in simulated
    /// memory: copy the head out, run `op` with the `Ctx` and no guard held,
    /// store the head back. Whoever may run during `op` cannot touch the
    /// same list — the model holds the `SimMutex` that guards it, or the
    /// list is thread-private. Calls nest (a transfer is a `list` in a
    /// `list`).
    pub fn list<R>(
        &self,
        ctx: &mut Ctx<'_>,
        pick: impl Fn(&mut S) -> &mut FreeList,
        op: impl FnOnce(&mut FreeList, &mut Ctx<'_>) -> R,
    ) -> R {
        self.list_then(ctx, pick, op, |_, r| r)
    }

    /// [`HostState::list`], with the bookkeeping that depends on `op`'s
    /// result (a use count, a byte budget) done by `then` under the
    /// store-back's guard instead of a further one.
    pub fn list_then<R, T>(
        &self,
        ctx: &mut Ctx<'_>,
        pick: impl Fn(&mut S) -> &mut FreeList,
        op: impl FnOnce(&mut FreeList, &mut Ctx<'_>) -> R,
        then: impl FnOnce(&mut S, R) -> T,
    ) -> T {
        let mut fl = self.with(|s| *pick(s));
        let r = op(&mut fl, ctx);
        self.with(|s| {
            *pick(s) = fl;
            then(s, r)
        })
    }

    /// The boxed value is `(instance id, state)`.
    pub fn snapshot(&self) -> Option<HeapSnapshot> {
        Some(Box::new((self.id, self.with(|s| s.clone()))))
    }

    pub fn restore(&self, snap: &HeapSnapshot) {
        match snap.downcast_ref::<(u64, S)>() {
            Some((id, state)) if *id == self.id => self.with(|s| s.clone_from(state)),
            _ => panic!("{} model: restore of a foreign heap snapshot", self.model),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let st = HostState::new("toy", vec![1u64, 2]);
        let snap = st.snapshot().unwrap();
        st.with(|s| s.push(3));
        st.restore(&snap);
        assert_eq!(st.with(|s| s.clone()), [1, 2]);
    }

    #[test]
    fn restoring_another_state_type_panics_with_the_models_name() {
        let a = HostState::new("toy-a", 7u64);
        let b = HostState::new("toy-b", String::new());
        let snap = b.snapshot().unwrap();
        let text = panic_text(move || a.restore(&snap));
        assert_eq!(text, "toy-a model: restore of a foreign heap snapshot");
    }

    #[test]
    fn restoring_another_instances_snapshot_panics_with_the_models_name() {
        let a = HostState::new("toy", 7u64);
        let sibling = HostState::new("toy", 7u64);
        let snap = sibling.snapshot().unwrap();
        let text = panic_text(move || a.restore(&snap));
        assert_eq!(text, "toy model: restore of a foreign heap snapshot");
    }

    #[test]
    fn re_entering_with_under_a_live_guard_panics_instead_of_deadlocking() {
        let st = HostState::new("toy", 0u64);
        let text = panic_text(move || st.with(|_| st.with(|s| *s += 1)));
        assert!(
            text.starts_with("toy model: host state re-entered"),
            "{text}"
        );
    }
}
