//! Deterministic allocation-fault injection.
//!
//! [`FaultInjector`] wraps any [`Allocator`] and fails `try_malloc`
//! calls according to an [`AllocFaultPlan`]:
//!
//! * **byte budget** — a hard cap on cumulative live bytes, modelling a
//!   small heap: requests that would push the live total past the budget
//!   fail with [`AllocError::Exhausted`] until enough is freed;
//! * **size-class cap** — per-class exhaustion (superblock starvation):
//!   at most `max_live` simultaneously-live blocks whose rounded request
//!   class equals the plan's, independent of total bytes;
//! * **Nth site** — fail exactly the `n`-th allocation attempt (0-based,
//!   counted across all threads in attempt order) with
//!   [`AllocError::Injected`] — the primitive the every-site OOM sweep in
//!   `tm-mc` is built on;
//! * **probabilistic** — fail each attempt with probability `1/denom`,
//!   driven by a seeded splitmix64 stream, so "random" OOM soak runs are
//!   replayable from the seed.
//!
//! The injector only ever fails *allocations*; frees always reach the
//! wrapped allocator (failing a free would leak by construction). The
//! site counter advances on every attempt — including injected failures
//! and the `None` plan — which is what lets a counting dry run under
//! `AllocFaultPlan::None` enumerate the sites a later `NthSite` sweep
//! will target. The plan itself is *settable* and deliberately excluded
//! from [`Allocator::snapshot`], so a checkpointed session can restore
//! the heap to its root state and then sweep plans across re-runs.
//!
//! Disabled-path cost: the CLI layers construct a `FaultInjector` only
//! when a plan other than `None` is requested (or inside the OOM sweep,
//! which needs the site counter), so ordinary runs execute the exact
//! pre-existing allocator call chain — byte-for-byte identical artifacts,
//! pinned by the determinism goldens.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use tm_obs::spec;
use tm_sim::Ctx;

use crate::{AllocError, Allocator, AllocatorAttrs, HeapSnapshot};

/// A deterministic allocation-failure plan. See the module docs for the
/// semantics of each variant; [`AllocFaultPlan::parse`] gives the CLI
/// grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocFaultPlan {
    /// Never inject a failure (the counting dry-run plan).
    None,
    /// Hard cap on cumulative live bytes (request sizes, not internal
    /// footprints): allocations that would exceed it fail as exhausted.
    ByteBudget(u64),
    /// Per-size-class exhaustion: at most `max_live` live blocks in the
    /// class containing `size` (classes are power-of-two request-size
    /// buckets, minimum 8 bytes).
    ClassCap {
        /// Any request size inside the capped class.
        size: u64,
        /// Maximum simultaneously-live blocks in that class.
        max_live: u64,
    },
    /// Fail exactly the `n`-th allocation attempt (0-based, global
    /// attempt order), succeed everywhere else.
    NthSite(u64),
    /// Fail each attempt with probability `1/denom` from a seeded
    /// splitmix64 stream.
    Prob {
        /// Stream seed; equal seeds reproduce the exact failure set.
        seed: u64,
        /// One in `denom` attempts fails (`denom >= 1`).
        denom: u64,
    },
}

/// The power-of-two request-size bucket used by
/// [`AllocFaultPlan::ClassCap`].
fn class_of(size: u64) -> u64 {
    size.next_power_of_two().max(8)
}

impl AllocFaultPlan {
    /// Parse the CLI grammar shared by every `--alloc-fault` flag:
    /// `none` | `budget:<bytes>` | `class:<size>:<max-live>` |
    /// `site:<n>` | `prob:<seed>:<denom>`. Integers are decimal or
    /// `0x`-hex. Errors name the full grammar so the exit-2 path can
    /// print them verbatim.
    pub fn parse(raw: &str) -> Result<AllocFaultPlan, String> {
        let bad = || {
            format!(
                "invalid alloc-fault plan '{raw}' (want none, budget:<bytes>, \
                 class:<size>:<max-live>, site:<n>, or prob:<seed>:<denom>)"
            )
        };
        if raw == "none" {
            return Ok(AllocFaultPlan::None);
        }
        let (kind, rest) = spec::kind(raw).ok_or_else(bad)?;
        match kind {
            "budget" => {
                let [bytes] = spec::fields::<1>(rest).ok_or_else(bad)?;
                Ok(AllocFaultPlan::ByteBudget(
                    spec::int(bytes).ok_or_else(bad)?,
                ))
            }
            "class" => {
                let [size, max_live] = spec::fields::<2>(rest).ok_or_else(bad)?;
                Ok(AllocFaultPlan::ClassCap {
                    size: spec::int(size).ok_or_else(bad)?,
                    max_live: spec::int(max_live).ok_or_else(bad)?,
                })
            }
            "site" => {
                let [n] = spec::fields::<1>(rest).ok_or_else(bad)?;
                Ok(AllocFaultPlan::NthSite(spec::int(n).ok_or_else(bad)?))
            }
            "prob" => {
                let [seed, denom] = spec::fields::<2>(rest).ok_or_else(bad)?;
                let denom = spec::int(denom).ok_or_else(bad)?;
                if denom == 0 {
                    return Err(bad());
                }
                Ok(AllocFaultPlan::Prob {
                    seed: spec::int(seed).ok_or_else(bad)?,
                    denom,
                })
            }
            _ => Err(bad()),
        }
    }
}

impl std::fmt::Display for AllocFaultPlan {
    /// The canonical CLI token form ([`AllocFaultPlan::parse`] inverse).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AllocFaultPlan::None => write!(f, "none"),
            AllocFaultPlan::ByteBudget(b) => write!(f, "budget:{b}"),
            AllocFaultPlan::ClassCap { size, max_live } => write!(f, "class:{size}:{max_live}"),
            AllocFaultPlan::NthSite(n) => write!(f, "site:{n}"),
            AllocFaultPlan::Prob { seed, denom } => write!(f, "prob:{seed}:{denom}"),
        }
    }
}

/// splitmix64 — a statelessly seedable mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Mutable injector bookkeeping. Snapshotted (and restored) with the
/// wrapped heap so a rewound session replays the same site numbering.
#[derive(Clone, Default)]
struct FaultState {
    /// Allocation attempts so far == the next attempt's site index.
    sites: u64,
    /// Failures injected so far.
    injected: u64,
    /// Live blocks handed out through the injector: address → request
    /// size (for budget and class accounting on free).
    live: HashMap<u64, u64>,
    /// Cumulative live request bytes.
    bytes_live: u64,
    /// Live block count per power-of-two request class.
    class_live: HashMap<u64, u64>,
    /// splitmix64 cursor for the probabilistic plan.
    rng: u64,
}

/// An [`Allocator`] wrapper that injects deterministic allocation
/// failures per an [`AllocFaultPlan`]. See the module docs.
pub struct FaultInjector {
    inner: Arc<dyn Allocator>,
    plan: Mutex<AllocFaultPlan>,
    state: Mutex<FaultState>,
}

impl FaultInjector {
    /// Wrap `inner` under `plan` (seed the probabilistic stream from the
    /// plan's seed; other plans ignore the stream).
    pub fn new(inner: Arc<dyn Allocator>, plan: AllocFaultPlan) -> Arc<FaultInjector> {
        let rng = match plan {
            AllocFaultPlan::Prob { seed, .. } => seed,
            _ => 0,
        };
        Arc::new(FaultInjector {
            inner,
            plan: Mutex::new(plan),
            state: Mutex::new(FaultState {
                rng,
                ..FaultState::default()
            }),
        })
    }

    /// Replace the active plan without touching heap or counters. The
    /// every-site sweep uses this between checkpoint restores: the plan
    /// is *not* part of [`Allocator::snapshot`], so restoring the heap
    /// leaves the newly-set plan in force.
    pub fn set_plan(&self, plan: AllocFaultPlan) {
        if let AllocFaultPlan::Prob { seed, .. } = plan {
            self.state.lock().rng = seed;
        }
        *self.plan.lock() = plan;
    }

    /// The active plan.
    pub fn plan(&self) -> AllocFaultPlan {
        *self.plan.lock()
    }

    /// Allocation attempts observed so far (the next site index).
    pub fn sites(&self) -> u64 {
        self.state.lock().sites
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().injected
    }

    /// Does `plan` fail the attempt at `site` for `size` bytes, and with
    /// which error? Must be called with the state lock held.
    fn decide(
        plan: AllocFaultPlan,
        s: &mut FaultState,
        site: u64,
        size: u64,
    ) -> Option<AllocError> {
        match plan {
            AllocFaultPlan::None => None,
            AllocFaultPlan::ByteBudget(budget) => {
                (s.bytes_live + size > budget).then_some(AllocError::Exhausted { size })
            }
            AllocFaultPlan::ClassCap {
                size: class_size,
                max_live,
            } => {
                let class = class_of(size);
                (class == class_of(class_size)
                    && s.class_live.get(&class).copied().unwrap_or(0) >= max_live)
                    .then_some(AllocError::Exhausted { size })
            }
            AllocFaultPlan::NthSite(n) => {
                (site == n).then_some(AllocError::Injected { site, size })
            }
            AllocFaultPlan::Prob { denom, .. } => {
                s.rng = mix(s.rng);
                (s.rng.is_multiple_of(denom)).then_some(AllocError::Injected { site, size })
            }
        }
    }
}

impl Allocator for FaultInjector {
    fn try_malloc(&self, ctx: &mut Ctx<'_>, size: u64) -> Result<u64, AllocError> {
        let plan = *self.plan.lock();
        {
            let mut s = self.state.lock();
            let site = s.sites;
            s.sites += 1;
            if let Some(err) = Self::decide(plan, &mut s, site, size) {
                s.injected += 1;
                return Err(err);
            }
        }
        let addr = self.inner.try_malloc(ctx, size)?;
        let mut s = self.state.lock();
        s.live.insert(addr, size);
        s.bytes_live += size;
        *s.class_live.entry(class_of(size)).or_insert(0) += 1;
        Ok(addr)
    }

    fn try_free(&self, ctx: &mut Ctx<'_>, addr: u64) -> Result<(), AllocError> {
        // Frees are never failed by a plan, but accounting must shrink so
        // budget/class plans recover once memory is returned.
        self.inner.try_free(ctx, addr)?;
        let mut s = self.state.lock();
        if let Some(size) = s.live.remove(&addr) {
            s.bytes_live -= size;
            if let Some(n) = s.class_live.get_mut(&class_of(size)) {
                *n = n.saturating_sub(1);
            }
        }
        Ok(())
    }

    fn min_block(&self) -> u64 {
        self.inner.min_block()
    }

    fn attributes(&self) -> AllocatorAttrs {
        self.inner.attributes()
    }

    fn snapshot(&self) -> Option<HeapSnapshot> {
        let inner = self.inner.snapshot()?;
        Some(Box::new(FaultSnapshot {
            inner,
            state: self.state.lock().clone(),
        }))
    }

    fn restore(&self, snap: &HeapSnapshot) {
        let snap = snap
            .downcast_ref::<FaultSnapshot>()
            .expect("fault injector: restore of a foreign heap snapshot");
        self.inner.restore(&snap.inner);
        // The plan survives on purpose; see `set_plan`.
        *self.state.lock() = snap.state.clone();
    }
}

/// Frozen injector bookkeeping plus the wrapped allocator's snapshot.
/// The active plan is deliberately not captured.
struct FaultSnapshot {
    inner: HeapSnapshot,
    state: FaultState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocatorKind;
    use tm_sim::{MachineConfig, Sim};

    #[test]
    fn plan_tokens_round_trip() {
        for raw in [
            "none",
            "budget:65536",
            "class:64:3",
            "site:7",
            "prob:0xace:16",
        ] {
            let plan = AllocFaultPlan::parse(raw).unwrap();
            // Display canonicalizes hex to decimal; re-parsing must agree.
            assert_eq!(AllocFaultPlan::parse(&plan.to_string()).unwrap(), plan);
        }
        assert_eq!(
            AllocFaultPlan::parse("budget:65536").unwrap(),
            AllocFaultPlan::ByteBudget(65536)
        );
        assert_eq!(
            AllocFaultPlan::parse("prob:0xace:16").unwrap(),
            AllocFaultPlan::Prob {
                seed: 0xace,
                denom: 16
            }
        );
    }

    #[test]
    fn malformed_plans_are_rejected_with_the_grammar() {
        for raw in [
            "",
            "bogus",
            "bogus:1",
            "budget",
            "budget:",
            "budget:x",
            "budget:1:2",
            "class:64",
            "class:64:",
            "class::3",
            "site:",
            "site:-1",
            "prob:1",
            "prob:1:0",
            "none:1",
        ] {
            let err = AllocFaultPlan::parse(raw).unwrap_err();
            assert!(err.contains("invalid alloc-fault plan"), "{raw}: {err}");
            assert!(err.contains("budget:<bytes>"), "{raw}: {err}");
        }
    }

    #[test]
    fn nth_site_fails_exactly_one_attempt() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let inj = FaultInjector::new(
            AllocatorKind::TbbMalloc.build(&sim),
            AllocFaultPlan::NthSite(2),
        );
        let a = Arc::clone(&inj);
        sim.run(1, |ctx| {
            assert!(a.try_malloc(ctx, 16).is_ok());
            assert!(a.try_malloc(ctx, 16).is_ok());
            assert_eq!(
                a.try_malloc(ctx, 24),
                Err(AllocError::Injected { site: 2, size: 24 })
            );
            assert!(a.try_malloc(ctx, 16).is_ok(), "only site 2 fails");
        });
        assert_eq!(inj.sites(), 4);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn byte_budget_recovers_after_frees() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let inj = FaultInjector::new(
            AllocatorKind::TcMalloc.build(&sim),
            AllocFaultPlan::ByteBudget(64),
        );
        let a = Arc::clone(&inj);
        sim.run(1, |ctx| {
            let p = a.try_malloc(ctx, 48).unwrap();
            assert_eq!(
                a.try_malloc(ctx, 32),
                Err(AllocError::Exhausted { size: 32 }),
                "48 + 32 > 64"
            );
            a.try_free(ctx, p).unwrap();
            assert!(a.try_malloc(ctx, 32).is_ok(), "budget freed up");
        });
    }

    #[test]
    fn class_cap_only_hits_its_class() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let inj = FaultInjector::new(
            AllocatorKind::Hoard.build(&sim),
            AllocFaultPlan::ClassCap {
                size: 48, // class 64
                max_live: 2,
            },
        );
        let a = Arc::clone(&inj);
        sim.run(1, |ctx| {
            assert!(a.try_malloc(ctx, 40).is_ok()); // class 64
            assert!(a.try_malloc(ctx, 64).is_ok()); // class 64: now full
            assert_eq!(
                a.try_malloc(ctx, 33),
                Err(AllocError::Exhausted { size: 33 })
            );
            assert!(a.try_malloc(ctx, 16).is_ok(), "other classes unaffected");
            assert!(a.try_malloc(ctx, 128).is_ok(), "other classes unaffected");
        });
    }

    #[test]
    fn prob_plan_is_replayable_from_the_seed() {
        let failures = |seed: u64| {
            let sim = Sim::new(MachineConfig::xeon_e5405());
            let inj = FaultInjector::new(
                AllocatorKind::Glibc.build(&sim),
                AllocFaultPlan::Prob { seed, denom: 4 },
            );
            let a = Arc::clone(&inj);
            let out = parking_lot::Mutex::new(Vec::new());
            sim.run(1, |ctx| {
                for i in 0..64u64 {
                    if a.try_malloc(ctx, 16 + (i % 3) * 16).is_err() {
                        out.lock().push(i);
                    }
                }
            });
            out.into_inner()
        };
        let first = failures(0xace);
        assert!(!first.is_empty(), "1/4 odds over 64 attempts must fire");
        assert_eq!(first, failures(0xace), "same seed, same failure set");
        assert_ne!(first, failures(0xbee), "different seed, different set");
    }

    #[test]
    fn none_plan_counts_sites_but_never_fails() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let inj = FaultInjector::new(AllocatorKind::TbbMalloc.build(&sim), AllocFaultPlan::None);
        let a = Arc::clone(&inj);
        sim.run(2, |ctx| {
            for _ in 0..8 {
                let p = a.try_malloc(ctx, 32).unwrap();
                a.try_free(ctx, p).unwrap();
            }
        });
        assert_eq!(inj.sites(), 16);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn snapshot_rewinds_site_numbering_but_keeps_the_plan() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let inj = FaultInjector::new(AllocatorKind::TbbMalloc.build(&sim), AllocFaultPlan::None);
        let a = Arc::clone(&inj);
        sim.run(1, |ctx| {
            let _ = a.try_malloc(ctx, 16);
        });
        let machine = sim.snapshot(None);
        let heap = inj.snapshot().expect("tbb supports snapshots");
        let a = Arc::clone(&inj);
        sim.run(1, |ctx| {
            let _ = a.try_malloc(ctx, 16);
            let _ = a.try_malloc(ctx, 16);
        });
        assert_eq!(inj.sites(), 3);
        inj.set_plan(AllocFaultPlan::NthSite(1));
        sim.restore(&machine);
        inj.restore(&heap);
        assert_eq!(inj.sites(), 1, "site counter rewinds with the heap");
        assert_eq!(
            inj.plan(),
            AllocFaultPlan::NthSite(1),
            "the plan survives restore"
        );
        let a = Arc::clone(&inj);
        sim.run(1, |ctx| {
            assert!(a.try_malloc(ctx, 16).is_err(), "replayed site 1 now fails");
        });
    }
}
