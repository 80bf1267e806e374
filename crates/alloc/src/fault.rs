//! Deterministic allocation-fault plans.
//!
//! An [`AllocFaultPlan`] names which `try_malloc` attempts the
//! [`crate::HeapAuditor`] fails (see [`crate::HeapAuditor::set_plan`]):
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
//! A plan only ever fails *allocations*; frees always reach the wrapped
//! allocator (failing a free would leak by construction). The auditor's
//! site counter advances on every attempt — including injected failures
//! and the `None` plan — which is what lets a counting dry run under
//! `AllocFaultPlan::None` enumerate the sites a later `NthSite` sweep
//! will target. The plan itself is settable and stays out of
//! [`crate::Allocator::snapshot`]; the totals it decides on (live bytes,
//! live blocks per class, the stream position) are in it.

use tm_obs::spec;

use crate::AllocError;

/// A deterministic allocation-failure plan. See the module docs for the
/// semantics of each variant; [`AllocFaultPlan::parse`] gives the CLI
/// grammar.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AllocFaultPlan {
    /// Never inject a failure (the counting dry-run plan).
    #[default]
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
    /// The CLI grammar of every `--alloc-fault` flag, as the refusal of a
    /// bad plan and the usage text state it.
    pub const GRAMMAR: &'static str =
        "none, budget:<bytes>, class:<size>:<max-live>, site:<n>, or prob:<seed>:<denom>";

    /// Parse [`AllocFaultPlan::GRAMMAR`], shared by every `--alloc-fault`
    /// flag. Integers are decimal or `0x`-hex. Errors name the full
    /// grammar so the exit-2 path can print them verbatim.
    pub fn parse(raw: &str) -> Result<AllocFaultPlan, String> {
        let bad = || {
            format!(
                "invalid alloc-fault plan {} (want {})",
                spec::quote(raw),
                AllocFaultPlan::GRAMMAR
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

/// The live-heap totals a plan decides on, kept by [`crate::HeapAuditor`] in its
/// snapshotted state so a rewound session replays the same decisions.
#[derive(Clone)]
pub(crate) struct Budget {
    /// Cumulative live request bytes.
    bytes_live: u64,
    /// Live block count per power-of-two request class, indexed by
    /// [`class_slot`].
    class_live: [u64; 64],
    /// splitmix64 cursor for the probabilistic plan.
    rng: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            bytes_live: 0,
            class_live: [0; 64],
            rng: 0,
        }
    }
}

/// Where `size`'s class sits in [`Budget::class_live`]: its log2.
fn class_slot(size: u64) -> usize {
    class_of(size).trailing_zeros() as usize
}

impl Budget {
    /// Arm `plan`: a probabilistic plan restarts its stream at its seed.
    pub(crate) fn arm(&mut self, plan: AllocFaultPlan) {
        if let AllocFaultPlan::Prob { seed, .. } = plan {
            self.rng = seed;
        }
    }

    /// Does `plan` fail the attempt at `site` for `size` bytes, and with
    /// which error?
    pub(crate) fn decide(
        &mut self,
        plan: AllocFaultPlan,
        site: u64,
        size: u64,
    ) -> Option<AllocError> {
        match plan {
            AllocFaultPlan::None => None,
            AllocFaultPlan::ByteBudget(budget) => {
                (self.bytes_live + size > budget).then_some(AllocError::Exhausted { size })
            }
            AllocFaultPlan::ClassCap {
                size: class_size,
                max_live,
            } => (class_of(size) == class_of(class_size)
                && self.class_live[class_slot(size)] >= max_live)
                .then_some(AllocError::Exhausted { size }),
            AllocFaultPlan::NthSite(n) => {
                (site == n).then_some(AllocError::Injected { site, size })
            }
            AllocFaultPlan::Prob { denom, .. } => {
                self.rng = mix(self.rng);
                (self.rng.is_multiple_of(denom)).then_some(AllocError::Injected { site, size })
            }
        }
    }

    /// A `size`-byte block went live.
    pub(crate) fn admit(&mut self, size: u64) {
        self.bytes_live += size;
        self.class_live[class_slot(size)] += 1;
    }

    /// A `size`-byte block was freed (after the inner free returned).
    pub(crate) fn release(&mut self, size: u64) {
        self.bytes_live -= size;
        let n = &mut self.class_live[class_slot(size)];
        *n = n.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Allocator, AllocatorKind, HeapAuditor};
    use std::sync::Arc;
    use tm_sim::{MachineConfig, Sim};

    /// `inner` under the heap auditor, armed with `plan`.
    fn faulted(inner: Arc<dyn Allocator>, plan: AllocFaultPlan) -> Arc<HeapAuditor> {
        let auditor = HeapAuditor::new(inner);
        auditor.set_plan(plan);
        auditor
    }

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
        // The plan is shown escaped: the refusal stays one line.
        let err = AllocFaultPlan::parse("x\ny").unwrap_err();
        assert!(
            err.starts_with(r"invalid alloc-fault plan 'x\ny' (want "),
            "{err}"
        );
    }

    #[test]
    fn nth_site_fails_exactly_one_attempt() {
        let sim = Sim::new(MachineConfig::xeon_e5405());
        let inj = faulted(
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
        let inj = faulted(
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
        let inj = faulted(
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
            let inj = faulted(
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
        let inj = faulted(AllocatorKind::TbbMalloc.build(&sim), AllocFaultPlan::None);
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
        let inj = faulted(AllocatorKind::TbbMalloc.build(&sim), AllocFaultPlan::None);
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
