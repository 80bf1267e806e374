//! The systematic every-site OOM sweep.
//!
//! Where [`mod@crate::explore`] sweeps the *schedule* space of a program,
//! this module sweeps its *allocation-failure* space: a counting dry run
//! under [`AllocFaultPlan::None`] enumerates every allocation site the
//! main phase executes (the auditor's site counter advances even when
//! the plan is inert), then the cell is re-executed once per site with
//! exactly that attempt forced to fail ([`AllocFaultPlan::NthSite`]).
//! Every injected failure must end in either a committed retry or a
//! clean propagated `AllocFailed` abort, with token conservation intact
//! and — after a forced [`tm_stm::Stm::quiesce`] — not one block more
//! live than the dry run left. A final *pressure* run under a byte
//! budget sized to admit at most one extra node drives the
//! propagation path itself: transfers that cannot allocate must give up
//! cleanly, and the heap must still balance.
//!
//! The stack is the audited `Stm → HeapAuditor(allocator)` of
//! [`Stack::new`]: the one wrapper both numbers the sites a plan targets
//! and audits the heap, so a leaked block's [`tm_alloc::LiveBlock::site`]
//! names the allocation site that produced it. Sites are swept from the
//! root checkpoint of the one checkpointed [`Session`] (simulator + heap +
//! STM host state, at post-seed quiescence) built over that stack; the
//! fault plan is deliberately not part of the heap snapshot, so
//! `set_plan` between restores re-targets the next run without
//! rebuilding the world.
//!
//! Because the sweep visits sites in ascending order and stops at the
//! first failure, a caught mutant (the catalog's `leak-on-alloc-fail`
//! seed, which this sweep — not the schedule catalog — must catch) is
//! automatically *shrunk* to the minimal failing site index.

use std::sync::Arc;

use tm_alloc::{AllocFaultPlan, AllocatorKind, HeapAuditor};
use tm_obs::{McVerdict, OomCell, OomReport};
use tm_stm::{AbortCause, BackendKind, CmKind, InjectedBug, Stack, StackSpec};

use crate::catalog::verdict_check_cell;
use crate::explore::Session;
use crate::program::{McProgram, ProgramKind, RunConfig, NODE_SIZE};

/// A reusable OOM-sweep execution cell: the one checkpointed [`Session`]
/// over an audited stack, plus the auditor the sweep arms and reads its
/// evidence from. Each [`OomSession::run`] rewinds to the root, arms a
/// fault plan, executes the main phase plus a forced quiescence drain,
/// and leaves the auditor's counters describing exactly that run.
pub struct OomSession {
    session: Session,
    auditor: Arc<HeapAuditor>,
    /// Sites the seed phase consumed: the first main-phase site index.
    seed_sites: u64,
    /// The sweep varies the fault plan, never the schedule.
    zero_schedule: Vec<u64>,
}

impl OomSession {
    /// Build, seed, and checkpoint one cell. `None` when the allocator
    /// does not support heap snapshots or the seed phase panicked —
    /// callers degrade the cell rather than guessing.
    /// [`RunConfig::alloc_fault`] is ignored here: the session arms its
    /// auditor's plan per run ([`OomSession::run`]).
    pub fn try_new(program: &McProgram, cfg: &RunConfig) -> Option<OomSession> {
        let stack = Stack::new(&StackSpec {
            fault: AllocFaultPlan::None,
            audit: true,
            ..cfg.spec()
        });
        stack.sim.set_fuel(cfg.fuel);
        let auditor = Arc::clone(stack.auditor.as_ref().expect("an audited stack"));
        let session = Session::over(program, cfg, stack)?;
        Some(OomSession {
            session,
            seed_sites: auditor.sites(),
            auditor,
            zero_schedule: vec![0; program.points()],
        })
    }

    /// The first main-phase allocation-site index (seed allocations own
    /// the indices below it and are never swept).
    pub fn seed_sites(&self) -> u64 {
        self.seed_sites
    }

    /// Allocation attempts the last run's main phase reached, as an
    /// absolute site index (the sweep's exclusive upper bound after the
    /// dry run).
    pub fn sites(&self) -> u64 {
        self.auditor.sites()
    }

    /// Failures the plan injected during the last run.
    pub fn injected(&self) -> u64 {
        self.auditor.injected()
    }

    /// The auditor's view of the last run (violations, live blocks with
    /// their allocation sites).
    pub fn audit(&self) -> tm_alloc::AuditReport {
        self.auditor.report()
    }

    /// Merged per-run STM statistics (host counters rewind on restore).
    pub fn stats(&self) -> tm_stm::StmStats {
        self.session.stats()
    }

    /// Rewind to the root checkpoint, arm `plan` (after the rewind: a
    /// plan's own state is set up by `set_plan`, and the restore must not
    /// undo it), and execute the main phase plus a forced quiescence drain
    /// (so deferred frees reach the auditor and the leak check sees the
    /// truly-live heap). Same verdict contract as [`crate::run_schedule`],
    /// under the zero schedule.
    pub fn run(&mut self, plan: AllocFaultPlan) -> Result<(), String> {
        self.session.rewind();
        self.auditor.set_plan(plan);
        let r = self.session.play(&self.zero_schedule, |sim, stm| {
            sim.run(1, |ctx| stm.quiesce(ctx));
        });
        self.auditor.set_plan(AllocFaultPlan::None);
        r
    }
}

/// The oracle program of the sweep: the fallible-plane transfers of
/// [`ProgramKind::Oom`] at the quick-matrix shape (3 threads × 2
/// transactions over 2 cells).
pub fn oom_program() -> McProgram {
    McProgram {
        kind: ProgramKind::Oom,
        ..crate::small_program()
    }
}

/// Execute the every-site sweep for one cell, as a `tm-oom-report/v1`
/// cell: counting dry run, one `NthSite` re-run per enumerated main-phase
/// site (ascending, stopping at the first failure — which is therefore
/// minimal), and a byte-budget pressure run that forces the propagation
/// path. See the module docs for the invariants each run must satisfy.
pub fn oom_cell(program: &McProgram, cfg: &RunConfig) -> OomCell {
    let mut cell = OomCell {
        config: vec![
            ("program".into(), program.kind.name().into()),
            ("alloc".into(), cfg.alloc.name().into()),
            ("backend".into(), cfg.backend.name().into()),
            ("cm".into(), cfg.cm.name().into()),
            ("bug".into(), cfg.bug.name().into()),
        ],
        ..OomCell::default()
    };
    // What an injected failure that breaks an invariant means: a seeded
    // mutant is caught by it, the clean STM violated.
    let exposed = if cfg.bug == InjectedBug::None {
        McVerdict::Violation
    } else {
        McVerdict::Caught
    };

    let Some(mut session) = OomSession::try_new(program, cfg) else {
        cell.verdict = McVerdict::Violation;
        cell.detail = Some("cell cannot be checkpointed (no heap snapshot support)".into());
        return cell;
    };

    // Counting dry run: enumerate the main-phase sites and freeze the
    // baselines every injected run is judged against. Its failure is a
    // violation on a mutant cell too — the bug must be exposed *by an
    // injected failure*, not by the clean run.
    if let Err(e) = session.run(AllocFaultPlan::None) {
        cell.verdict = McVerdict::Violation;
        cell.detail = Some(format!("dry run failed: {e}"));
        return cell;
    }
    let first = session.seed_sites();
    let last = session.sites();
    let expected_live = session.audit().live;
    let dry_commits = session.stats().commits;
    cell.sites = last - first;

    for site in first..last {
        let r = session.run(AllocFaultPlan::NthSite(site));
        cell.injected += session.injected();
        if let Some(detail) = check_site_run(&session, site, r, expected_live, dry_commits) {
            cell.failing_site = Some(site);
            cell.detail = Some(detail);
            cell.verdict = exposed;
            return cell;
        }
        if session.stats().commits == dry_commits {
            cell.committed_retries += 1;
        } else {
            cell.alloc_aborts += dry_commits - session.stats().commits;
        }
    }

    // Pressure run: a byte budget with room for one node beyond the
    // seeded heap. Every two-node transfer exhausts the contention
    // manager's retry budget and must propagate cleanly — exercising the
    // give-up path the single-shot NthSite plan cannot reach.
    let budget = expected_live as u64 * NODE_SIZE + NODE_SIZE;
    let r = session.run(AllocFaultPlan::ByteBudget(budget));
    cell.injected += session.injected();
    if let Some(detail) = check_pressure_run(&session, r, expected_live) {
        cell.detail = Some(format!("pressure run (budget {budget}): {detail}"));
        cell.verdict = exposed;
        return cell;
    }
    cell.alloc_aborts += dry_commits - session.stats().commits;

    if cfg.bug != InjectedBug::None {
        // A seeded mutant that survived every injected site escaped.
        cell.verdict = McVerdict::Escaped;
    }
    cell
}

/// The per-site invariants: the run ends clean, the injection actually
/// fired and surfaced as an `AllocFailed` abort, the auditor saw no
/// violation, and quiescence leaves exactly the dry run's live set.
fn check_site_run(
    session: &OomSession,
    site: u64,
    r: Result<(), String>,
    expected_live: usize,
    dry_commits: u64,
) -> Option<String> {
    if let Err(e) = r {
        return Some(e);
    }
    if session.injected() == 0 {
        return Some(format!("site {site} was never reached"));
    }
    let stats = session.stats();
    if stats.by_cause[AbortCause::AllocFailed as usize] == 0 {
        return Some("injected failure never surfaced as an alloc-failed abort".into());
    }
    if stats.commits > dry_commits {
        return Some(format!(
            "commit count grew under injection: {} > {dry_commits}",
            stats.commits
        ));
    }
    audit_failure(session, expected_live)
}

/// The pressure-run invariants: clean end state, no leak — commit-count
/// loss is *expected* here (that is the propagation path under test).
fn check_pressure_run(
    session: &OomSession,
    r: Result<(), String>,
    expected_live: usize,
) -> Option<String> {
    if let Err(e) = r {
        return Some(e);
    }
    audit_failure(session, expected_live)
}

/// Auditor-side checks shared by every injected run: recorded heap
/// violations, then the leak comparison against the dry run's live set,
/// naming the leaked blocks' allocation sites.
fn audit_failure(session: &OomSession, expected_live: usize) -> Option<String> {
    let report = session.audit();
    if !report.is_clean() {
        return Some(format!(
            "heap audit: {} violation(s): {}",
            report.violation_count,
            report.violations.join("; ")
        ));
    }
    if report.live != expected_live {
        if report.live > expected_live {
            let leaked = report.live - expected_live;
            let sites: Vec<String> = report
                .live_blocks
                .iter()
                .map(|(_, b)| b.site.to_string())
                .collect();
            return Some(format!(
                "leaked {leaked} block(s) ({} bytes) after injected failure \
                 (live sites: {})",
                leaked as u64 * NODE_SIZE,
                sites.join(",")
            ));
        }
        return Some(format!(
            "live blocks lost: {} < {expected_live}",
            report.live
        ));
    }
    None
}

/// The backend × contention-manager face of the quick matrix: the two
/// backends crossed with the patient and the adaptive policies.
const QUICK_BACKENDS: [BackendKind; 2] = [BackendKind::Etl, BackendKind::Norec];
const QUICK_CMS: [CmKind; 2] = [CmKind::Suicide, CmKind::Adaptive];

/// The `tmstudy mc --oom` quick suite: the every-site sweep over all
/// four allocators × `QUICK_BACKENDS` × `QUICK_CMS` on the clean STM,
/// plus one `leak-on-alloc-fail` mutant cell the sweep must catch (and
/// shrink to its minimal failing site).
pub fn oom_quick_report(name: &str) -> OomReport {
    let program = oom_program();
    let mut report = OomReport::new(name)
        .meta("mode", "quick")
        .meta("program", program.kind.name());
    for alloc in AllocatorKind::ALL {
        for backend in QUICK_BACKENDS {
            for cm in QUICK_CMS {
                let cfg = RunConfig {
                    alloc,
                    backend,
                    cm,
                    ..RunConfig::clean()
                };
                report.cells.push(oom_cell(&program, &cfg));
            }
        }
    }
    let mutant = RunConfig {
        bug: InjectedBug::LeakOnAllocFail,
        ..RunConfig::clean()
    };
    report.cells.push(oom_cell(&program, &mutant));
    report
}

/// The oom rows of the `tmstudy check` matrix: one clean every-site
/// sweep per allocator (default backend/CM) plus the
/// `leak-on-alloc-fail` mutant cell, converted to the check-report cell
/// shape.
pub fn oom_check_cells() -> Vec<tm_obs::CheckCell> {
    let program = oom_program();
    let mut out = Vec::new();
    for alloc in AllocatorKind::ALL {
        let cfg = RunConfig {
            alloc,
            ..RunConfig::clean()
        };
        out.push(oom_cell_to_check(oom_cell(&program, &cfg)));
    }
    let mutant = RunConfig {
        bug: InjectedBug::LeakOnAllocFail,
        ..RunConfig::clean()
    };
    out.push(oom_cell_to_check(oom_cell(&program, &mutant)));
    out
}

fn oom_cell_to_check(cell: OomCell) -> tm_obs::CheckCell {
    let mut checks = vec![
        ("sites".to_string(), cell.sites),
        ("injected".to_string(), cell.injected),
        ("committed_retries".to_string(), cell.committed_retries),
        ("alloc_aborts".to_string(), cell.alloc_aborts),
    ];
    if let Some(site) = cell.failing_site {
        checks.push(("failing_site".to_string(), site));
    }
    let passed = format!("verdict {}", cell.verdict.name());
    verdict_check_cell(
        "oom",
        cell.config.clone(),
        checks,
        cell.verdict,
        cell.detail.as_deref(),
        Some(passed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sweep_is_clean_and_covers_every_site() {
        let program = oom_program();
        let cfg = RunConfig::clean();
        let out = oom_cell(&program, &cfg);
        assert_eq!(out.verdict, McVerdict::Clean, "{:?}", out.detail);
        assert!(out.sites > 0, "the oom program must allocate");
        // One NthSite injection per swept site, plus the pressure run's.
        assert!(out.injected >= out.sites, "{out:?}");
        // Single-shot injections always recover; the pressure run always
        // forces at least one transfer to give up.
        assert_eq!(out.committed_retries, out.sites, "{out:?}");
        assert!(out.alloc_aborts > 0, "{out:?}");
        assert!(out.failing_site.is_none(), "{out:?}");
    }

    #[test]
    fn leak_mutant_is_caught_at_the_minimal_site() {
        let program = oom_program();
        let cfg = RunConfig {
            bug: InjectedBug::LeakOnAllocFail,
            ..RunConfig::clean()
        };
        let out = oom_cell(&program, &cfg);
        assert_eq!(out.verdict, McVerdict::Caught, "{out:?}");
        let site = out.failing_site.expect("a caught cell names its site");
        let detail = out.detail.as_deref().unwrap();
        assert!(detail.contains("leaked"), "{detail}");
        // Ascending order makes the reported site minimal: every earlier
        // site must have survived injection even under the mutant (the
        // journal is empty when a transfer's *first* allocation fails).
        let mut session = OomSession::try_new(&program, &cfg).unwrap();
        session.run(AllocFaultPlan::None).unwrap();
        let expected_live = session.audit().live;
        let dry_commits = session.stats().commits;
        for earlier in session.seed_sites()..site {
            let r = session.run(AllocFaultPlan::NthSite(earlier));
            assert_eq!(
                check_site_run(&session, earlier, r, expected_live, dry_commits),
                None,
                "site {earlier} fails too — {site} is not minimal"
            );
        }
    }

    #[test]
    fn session_restores_are_deterministic() {
        let program = oom_program();
        let cfg = RunConfig::clean();
        let mut s = OomSession::try_new(&program, &cfg).unwrap();
        s.run(AllocFaultPlan::None).unwrap();
        let sites = s.sites();
        let live = s.audit().live;
        let commits = s.stats().commits;
        let first = s.seed_sites();
        // The session is the schedule explorer's `Session` over another
        // stack; what it observes is what the dedicated OOM session it
        // replaced observed (the `sites` of this cell in
        // tests/golden/oom-quick.oom.json is `sites - first`).
        assert_eq!((first, sites, live, commits), (2, 8, 2, 6));
        // Re-running the same plan reproduces every observable exactly.
        s.run(AllocFaultPlan::NthSite(first)).unwrap();
        assert_eq!(s.injected(), 1);
        s.run(AllocFaultPlan::None).unwrap();
        assert_eq!(s.sites(), sites);
        assert_eq!(s.audit().live, live);
        assert_eq!(s.stats().commits, commits);
        assert_eq!(s.injected(), 0, "the None plan injects nothing");
    }

    #[test]
    fn quick_report_shape_and_verdicts() {
        let report = oom_quick_report("oom_quick_test");
        // 4 allocators × 2 backends × 2 CMs + the mutant cell.
        assert_eq!(report.cells.len(), 17);
        assert_eq!(report.degraded(), 0, "{}", report.render());
        let mutant = report.cells.last().unwrap();
        assert_eq!(mutant.verdict, McVerdict::Caught);
        assert!(mutant.failing_site.is_some());
        // The artifact round-trips through the v1 schema.
        let parsed = OomReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn check_cells_pass_and_carry_site_counters() {
        let cells = oom_check_cells();
        assert_eq!(cells.len(), AllocatorKind::ALL.len() + 1);
        for cell in &cells {
            assert_eq!(
                cell.status,
                tm_obs::CheckStatus::Pass,
                "{:?}: {:?}",
                cell.config,
                cell.detail
            );
            assert!(cell.checks.iter().any(|(k, _)| k == "sites"));
        }
        let mutant = cells.last().unwrap();
        assert!(mutant.checks.iter().any(|(k, _)| k == "failing_site"));
        assert_eq!(mutant.detail.as_deref(), Some("verdict caught"));
    }
}
