//! The generated reproduction book.
//!
//! `tmstudy book` renders `REPRODUCTION.md` *entirely* from the committed
//! `results/*.json` run reports: one section per exhibit, in canonical
//! paper order, with the exhibit's data rendered as markdown tables and
//! ASCII series, commentary relating it to the paper's claim, and a
//! PASS/DEVIATION flag per pinned expectation. The output is a pure
//! function of the inputs — no timestamps, no environment — so
//! regenerating on unchanged results is byte-identical, which is what the
//! CI docs-drift gate checks (`tmstudy book --check`).
//!
//! Expectations ([`Check`]) are pinned to the *committed reproduction*
//! values, which were themselves validated against the paper's shapes
//! when each exhibit landed. A DEVIATION therefore means "the results no
//! longer show what the book says they show" — the signal the gate
//! exists to raise — not a judgement call made at render time.

use crate::report::render_series;
use tm_obs::{RunReport, Section, Series};

/// One pinned expectation against a run report.
pub enum Check {
    /// Some table row of section `section` contains every needle, in
    /// cell order (so "best" and "worst" columns are distinguished).
    RowSeq {
        /// Section title to look in.
        section: &'static str,
        /// Substrings that must appear in one row, in column order.
        needles: &'static [&'static str],
        /// Human sentence for the book's PASS/DEVIATION line.
        desc: &'static str,
    },
    /// In series section `section`, at the largest x, curve `line` has the
    /// highest (`maximize`) or lowest (`!maximize`) y of all curves.
    BestAtMaxX {
        /// Section title to look in.
        section: &'static str,
        /// Curve that should win.
        line: &'static str,
        /// Whether winning means the highest y (else the lowest).
        maximize: bool,
        /// Human sentence for the book's PASS/DEVIATION line.
        desc: &'static str,
    },
}

/// Static book entry: commentary and pinned expectations for one exhibit.
pub struct BookEntry {
    /// Exhibit name, matching `results/<name>.json`.
    pub name: &'static str,
    /// Section heading.
    pub title: &'static str,
    /// Paper-expectation commentary rendered above the data.
    pub expect: &'static str,
    /// Pinned expectations rendered as PASS/DEVIATION flags.
    pub checks: &'static [Check],
}

/// Every exhibit the book knows about, in canonical paper order (the same
/// order `make_all` regenerates them). Exhibits present in `results/` but
/// not listed here are appended alphabetically with generic rendering.
pub const ENTRIES: &[BookEntry] = &[
    BookEntry {
        name: "table1",
        title: "Table 1 — allocator attributes",
        expect: "The four modelled allocators differ exactly where the paper says the \
                 performance differences come from: per-block vs per-class metadata, \
                 minimum block size (Glibc's 32-byte minimum vs 8–16 bytes elsewhere), \
                 and the synchronization discipline of the fast path.",
        checks: &[
            Check::RowSeq {
                section: "data",
                needles: &["Glibc", "32 bytes"],
                desc: "Glibc's minimum block size is 32 bytes",
            },
            Check::RowSeq {
                section: "data",
                needles: &["Hoard", "16 bytes"],
                desc: "Hoard's minimum block size is 16 bytes",
            },
        ],
    },
    BookEntry {
        name: "table2",
        title: "Table 2 — simulated machine",
        expect: "The virtual machine mirrors the paper's testbed: a 2-socket, 8-core \
                 Xeon E5405 with per-core 32 KB L1d and per-socket 6 MB L2, so \
                 cross-socket transfer costs and cache pressure act on the same scales \
                 as in the original study.",
        checks: &[Check::RowSeq {
            section: "data",
            needles: &["Total cores", "8 (2 sockets"],
            desc: "8 cores across 2 sockets",
        }],
    },
    BookEntry {
        name: "fig1",
        title: "Figure 1 — the motivating gap",
        expect: "The paper opens with Intruder and Yada at 8 cores being measurably \
                 faster under Hoard than under Glibc, before any TM-specific \
                 explanation is given. The reproduction shows the same ordering, with \
                 the larger relative gap on Intruder.",
        checks: &[
            Check::RowSeq {
                section: "data",
                needles: &["Intruder", "Hoard", "0.200"],
                desc: "Intruder is faster under Hoard than Glibc at 8 cores",
            },
            Check::RowSeq {
                section: "data",
                needles: &["Yada", "Hoard", "0.090"],
                desc: "Yada is (slightly) faster under Hoard than Glibc at 8 cores",
            },
        ],
    },
    BookEntry {
        name: "fig3",
        title: "Figure 3 — threadtest vs block size",
        expect: "Pure allocator throughput at 8 threads as block size grows: Glibc is \
                 flat (every op takes the arena lock regardless of size), Hoard and \
                 TBBMalloc fall off once blocks outgrow their fast paths, and \
                 TCMalloc's large thread cache keeps it on top at large blocks.",
        checks: &[Check::BestAtMaxX {
            section: "throughput",
            line: "TCMalloc",
            maximize: true,
            desc: "TCMalloc has the highest throughput at the largest block size",
        }],
    },
    BookEntry {
        name: "fig4",
        title: "Figure 4 — synthetic structures vs cores",
        expect: "Throughput scaling of the three synthetic structures at 60% updates. \
                 The paper's headline: no allocator wins everywhere. The linked list \
                 (long transactions, high conflict) favours Glibc, the hash set \
                 favours the class-based allocators, and the red-black tree favours \
                 Hoard — each for a different allocator-interaction reason.",
        checks: &[
            Check::BestAtMaxX {
                section: "Linked-list",
                line: "Glibc",
                maximize: true,
                desc: "Linked list at 8 cores: Glibc on top",
            },
            Check::BestAtMaxX {
                section: "HashSet",
                line: "TCMalloc",
                maximize: true,
                desc: "HashSet at 8 cores: TCMalloc on top",
            },
            Check::BestAtMaxX {
                section: "RBTree",
                line: "Hoard",
                maximize: true,
                desc: "RBTree at 8 cores: Hoard on top",
            },
        ],
    },
    BookEntry {
        name: "table3",
        title: "Table 3 — best/worst per structure",
        expect: "The per-structure winners and losers implied by Figure 4, with the \
                 gap between them. Reading each row as (structure, best, worst): the \
                 spread between best and worst allocator is far from noise — tens of \
                 percent at 8 threads.",
        checks: &[
            Check::RowSeq {
                section: "data",
                needles: &["Linked-list", "Glibc", "TBBMalloc"],
                desc: "Linked list: best Glibc, worst TBBMalloc",
            },
            Check::RowSeq {
                section: "data",
                needles: &["HashSet", "TCMalloc", "Glibc"],
                desc: "HashSet: best TCMalloc, worst Glibc",
            },
            Check::RowSeq {
                section: "data",
                needles: &["RBTree", "Hoard", "Glibc"],
                desc: "RBTree: best Hoard, worst Glibc",
            },
        ],
    },
    BookEntry {
        name: "table4",
        title: "Table 4 — aborts and L1 misses vs cores",
        expect: "For the sorted linked list, the abort fraction and L1 miss ratio both \
                 climb with the core count for every allocator — the paper uses this \
                 to show that the allocator changes *how fast* contention effects \
                 grow, not whether they exist.",
        checks: &[Check::RowSeq {
            section: "data",
            needles: &["8", "50.4%"],
            desc: "At 8 threads, Glibc's abort fraction reaches ~50%",
        }],
    },
    BookEntry {
        name: "fig6",
        title: "Figure 6 — ORT stripe shift 4 vs 6",
        expect: "Relative speedup of the linked list when the ORT stripe shift drops \
                 from 6 to 4 (finer striping). The class-based allocators gain the \
                 most — their tightly packed same-size blocks alias ORT stripes worst \
                 at coarse shifts — while Glibc, whose 32-byte minimum already spreads \
                 blocks out, is essentially unchanged.",
        checks: &[Check::BestAtMaxX {
            section: "speedup",
            line: "TBBMalloc",
            maximize: true,
            desc: "TBBMalloc gains the most from the finer stripe at 8 cores",
        }],
    },
    BookEntry {
        name: "table5",
        title: "Table 5 — STAMP allocation characterization",
        expect: "Where and how much each STAMP application allocates (sequential, \
                 parallel-outside-tx, inside-tx), bucketed by size class. The paper's \
                 point: transactional allocation is dominated by small blocks, which \
                 is exactly where allocator metadata and block-packing policies \
                 diverge.",
        checks: &[Check::RowSeq {
            section: "data",
            needles: &["Genome", "tx", "96"],
            desc: "Genome's transactional allocations sit in the smallest size class",
        }],
    },
    BookEntry {
        name: "fig7",
        title: "Figure 7 — STAMP execution time vs cores",
        expect: "Execution time scaling for the six discussed STAMP applications \
                 under all four allocators. The allocator choice shifts entire \
                 curves: Yada and Vacation separate clearly by allocator while \
                 Labyrinth (few, large allocations) barely reacts until the \
                 class-based allocators' padding kicks in.",
        checks: &[Check::BestAtMaxX {
            section: "Yada",
            line: "TCMalloc",
            maximize: false,
            desc: "Yada at 8 cores runs fastest under TCMalloc",
        }],
    },
    BookEntry {
        name: "table6",
        title: "Table 6 — best/worst per STAMP application",
        expect: "The per-application winners and losers at the best core count — the \
                 STAMP analogue of Table 3, and the same conclusion: the best \
                 allocator is application-specific, and picking the worst one costs \
                 tens of percent.",
        checks: &[
            Check::RowSeq {
                section: "data",
                needles: &["Genome", "TBBMalloc", "Glibc"],
                desc: "Genome: best TBBMalloc, worst Glibc",
            },
            Check::RowSeq {
                section: "data",
                needles: &["Vacation", "TBBMalloc", "Hoard"],
                desc: "Vacation: best TBBMalloc, worst Hoard",
            },
            Check::RowSeq {
                section: "data",
                needles: &["Yada", "TCMalloc", "Glibc"],
                desc: "Yada: best TCMalloc, worst Glibc",
            },
        ],
    },
    BookEntry {
        name: "fig8",
        title: "Figure 8 — Genome and Yada speedup curves",
        expect: "Speedup over the same allocator's single-thread run. Normalizing \
                 this way changes the Yada ranking: Glibc scales *best* on Yada even \
                 though its absolute times are worst, because its 1-thread baseline \
                 is so slow — the paper's warning against reporting self-relative \
                 speedup alone.",
        checks: &[
            Check::BestAtMaxX {
                section: "Genome",
                line: "TBBMalloc",
                maximize: true,
                desc: "Genome: TBBMalloc reaches the highest self-relative speedup",
            },
            Check::BestAtMaxX {
                section: "Yada",
                line: "Glibc",
                maximize: true,
                desc: "Yada: Glibc shows the best *self-relative* scaling",
            },
        ],
    },
    BookEntry {
        name: "table7",
        title: "Table 7 — STM-level object cache",
        expect: "Performance change from the STM-level transactional object cache. \
                 Gains are allocator- and application-specific — largest where \
                 transactional malloc/free pressure was highest — and can go \
                 negative where the cache only adds bookkeeping.",
        checks: &[Check::RowSeq {
            section: "data",
            needles: &["Yada", "+19.07%"],
            desc: "Yada under Hoard gains the most from the object cache",
        }],
    },
    BookEntry {
        name: "ablation_padding",
        title: "Ablation — per-thread pool padding",
        expect: "Labyrinth with and without cache-line padding of the per-thread \
                 memory pools (§6 of the paper): removing the padding re-introduces \
                 false sharing between threads' pool headers.",
        checks: &[],
    },
    BookEntry {
        name: "ablation_hash",
        title: "Ablation — ORT hash vs the HashSet anomaly",
        expect: "The §5.2 HashSet anomaly traced to the ORT hash function: swapping \
                 the shift-and-modulo hash for a mixing hash moves the anomaly, \
                 implicating stripe aliasing rather than the structure itself.",
        checks: &[],
    },
    BookEntry {
        name: "ablation_design",
        title: "Ablation — encounter-time vs commit-time locking",
        expect: "The allocator effects survive a change of STM design: \
                 encounter-time and commit-time locking shift absolute numbers but \
                 preserve the allocator ordering (an extension beyond the paper's \
                 single ETL design).",
        checks: &[],
    },
    BookEntry {
        name: "ablation_shift",
        title: "Ablation — full ORT stripe-shift sweep",
        expect: "The full shift 3..=8 sweep behind Figure 6's two points: \
                 throughput as a function of stripe granularity for each allocator, \
                 locating each allocator's worst-aliasing shift.",
        checks: &[],
    },
    BookEntry {
        name: "ablation_machine",
        title: "Ablation — machine profiles",
        expect: "The paper's future-work question — do these effects persist on \
                 other machines? — explored by re-running a fixed workload on \
                 simulated machines with different cache and transfer-cost \
                 profiles.",
        checks: &[],
    },
    BookEntry {
        name: "ablation_serial",
        title: "Ablation — serial allocator negative control",
        expect: "Negative control for §3: with no allocator contention (single \
                 thread, no TM), the four allocators' throughput curves should \
                 nearly coincide; everything interesting in the other exhibits comes \
                 from concurrency.",
        checks: &[],
    },
    BookEntry {
        name: "ablation_variance",
        title: "Ablation — Bayes variance",
        expect: "The paper singles out Bayes for high run-to-run variance; this \
                 exhibit quantifies it across seeds, explaining why Bayes is \
                 excluded from headline comparisons.",
        checks: &[],
    },
    BookEntry {
        name: "fig4_mixes",
        title: "Extension — Figure 4 under other update mixes",
        expect: "Figure 4's sweep repeated at 0% and 20% updates: as the update \
                 fraction falls, allocation pressure falls with it and the \
                 allocator curves converge — consistent with allocation being the \
                 mechanism behind the spread at 60%.",
        checks: &[],
    },
    BookEntry {
        name: "backend_norec",
        title: "Extension — the HashSet anomaly under NOrec",
        expect: "The §5.2 anomaly is an ownership-table artifact, so it should not \
                 survive a backend that has no ownership table. NOrec detects \
                 conflicts by value validation against a single global sequence \
                 lock: under it the abort column becomes allocator-independent — \
                 the true bucket-conflict floor — while ETL keeps Glibc's \
                 arena-aliasing excess.",
        checks: &[
            Check::RowSeq {
                section: "data",
                needles: &["Glibc", "0.183%", "0.054%"],
                desc: "Glibc's ETL abort excess collapses to the NOrec floor",
            },
            Check::RowSeq {
                section: "data",
                needles: &["TBBMalloc", "0.104%", "0.062%"],
                desc: "TBBMalloc's NOrec abort rate sits on the same floor",
            },
        ],
    },
    BookEntry {
        name: "backend_htm",
        title: "Extension — sim-HTM capacity cliff",
        expect: "Best-effort HTM keeps its read/write set in the L1, so transaction \
                 footprint is a hard resource bound (Dice et al., arXiv:1504.04640): \
                 below 32 KB every commit is a hardware commit with zero capacity \
                 aborts; past it every attempt faults, burns the full retry budget, \
                 and completes only through the serial-irrevocable fallback.",
        checks: &[
            Check::RowSeq {
                section: "data",
                needles: &["448", "28", "0", "hardware"],
                desc: "A 28 KB footprint still commits in hardware with no capacity aborts",
            },
            Check::RowSeq {
                section: "data",
                needles: &["640", "40", "32", "fallback"],
                desc: "A 40 KB footprint exhausts the retry budget and falls back",
            },
        ],
    },
    BookEntry {
        name: "cm_matrix",
        title: "Extension — allocator × contention-manager abort surface",
        expect: "The paper holds the contention manager fixed at SUICIDE and varies \
                 the allocator; this matrix varies both. On the high-contention \
                 linked list the policy axis dominates: exponential backoff roughly \
                 halves the SUICIDE abort ratio for every allocator, karma and \
                 timestamp raise it (shorter pauses for deserving transactions mean \
                 earlier retries into live conflicts), and serialize sits between — \
                 while the allocator spread inside any one column stays well below \
                 the policy spread inside any one row.",
        checks: &[
            Check::RowSeq {
                section: "data",
                needles: &["Glibc", "50.36%", "25.90%"],
                desc: "Backoff roughly halves Glibc's SUICIDE abort ratio",
            },
            Check::RowSeq {
                section: "data",
                needles: &["TBBMalloc", "57.90%", "21.13%"],
                desc: "TBB shows the same halving, from a higher SUICIDE baseline",
            },
        ],
    },
    BookEntry {
        name: "cm_adaptive",
        title: "Extension — adaptive CM controller vs best static policy",
        expect: "The adaptive controller starts at SUICIDE and escalates along \
                 backoff → karma → serialize whenever a 64-attempt window aborts \
                 too often. For every allocator the lowest-abort static policy on \
                 this workload is backoff, and the controller finds it: the \
                 dominant-policy column (most commits retired under it) reads \
                 backoff across the board, with the adaptive abort ratio landing \
                 near the best static column. The switch transcript is a \
                 deterministic function of the workload — the determinism suite \
                 replays it event-for-event.",
        checks: &[
            Check::RowSeq {
                section: "data",
                needles: &["Glibc", "backoff", "25.90%", "backoff"],
                desc: "The controller converges to backoff, Glibc's best static policy",
            },
            Check::RowSeq {
                section: "data",
                needles: &["TCMalloc", "backoff", "27.84%", "backoff", "28.78%"],
                desc: "TCMalloc's adaptive abort ratio lands within a point of best static",
            },
        ],
    },
];

/// Run one check against its report; `Err` carries the deviation detail.
pub fn run_check(check: &Check, report: &RunReport) -> Result<(), String> {
    match check {
        Check::RowSeq {
            section, needles, ..
        } => {
            let Some((_, Section::Table { rows, .. })) =
                report.sections.iter().find(|(t, _)| t == section)
            else {
                return Err(format!("no table section '{section}'"));
            };
            let hit = rows.iter().any(|row| {
                let mut want = needles.iter();
                let mut next = want.next();
                for cell in row {
                    if let Some(n) = next {
                        if cell.contains(n) {
                            next = want.next();
                        }
                    }
                }
                next.is_none()
            });
            if hit {
                Ok(())
            } else {
                Err(format!(
                    "no row of '{section}' matches [{}] in order",
                    needles.join(", ")
                ))
            }
        }
        Check::BestAtMaxX {
            section,
            line,
            maximize,
            ..
        } => {
            let Some((_, Section::Series { lines, .. })) =
                report.sections.iter().find(|(t, _)| t == section)
            else {
                return Err(format!("no series section '{section}'"));
            };
            // y value of each curve at its largest x.
            let mut last: Vec<(&str, f64)> = Vec::new();
            for Series { label, points } in lines {
                let Some(&(_, y)) = points.iter().max_by(|a, b| a.0.total_cmp(&b.0)) else {
                    return Err(format!("curve '{label}' in '{section}' is empty"));
                };
                last.push((label, y));
            }
            let Some(&(_, candidate)) = last.iter().find(|(n, _)| n == line) else {
                return Err(format!("no curve '{line}' in '{section}'"));
            };
            let beaten = last.iter().all(|&(n, y)| {
                n == *line
                    || if *maximize {
                        candidate >= y
                    } else {
                        candidate <= y
                    }
            });
            if beaten {
                Ok(())
            } else {
                let verb = if *maximize { "highest" } else { "lowest" };
                Err(format!(
                    "'{line}' does not have the {verb} final value in '{section}' \
                     ({last:?})"
                ))
            }
        }
    }
}

fn check_desc(check: &Check) -> &'static str {
    match check {
        Check::RowSeq { desc, .. } | Check::BestAtMaxX { desc, .. } => desc,
    }
}

/// Load every `tm-run-report/v1` (or v1.1) file under `dir` (skipping
/// `*.sweep.json` matrices, `*.check.json` correctness reports,
/// `*.mc.json` model-checking reports, and `*.oom.json` allocation-
/// failure sweeps, which have their own schemas), sorted by file name
/// for determinism.
pub fn load_results_dir(dir: &str) -> Result<Vec<RunReport>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut files: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| {
            n.ends_with(".json")
                && !n.ends_with(".sweep.json")
                && !n.ends_with(".check.json")
                && !n.ends_with(".mc.json")
                && !n.ends_with(".oom.json")
        })
        .collect();
    files.sort();
    let mut reports = Vec::with_capacity(files.len());
    for f in files {
        let path = format!("{dir}/{f}");
        let src = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // The results directory may also hold documents in other schemas
        // (a copied `bash benchmark/run.sh` report, for instance); the
        // book is built only from run reports, so skip anything that
        // declares a different schema rather than failing on it.
        let tree = tm_obs::json::Json::parse(&src).map_err(|e| format!("{path}: not JSON: {e}"))?;
        let schema = tree.get("schema").and_then(tm_obs::json::Json::as_str);
        if !schema.is_some_and(|s| tm_obs::report::SCHEMAS.contains(&s)) {
            continue;
        }
        reports.push(RunReport::from_json(&tree).map_err(|e| format!("{path}: {e}"))?);
    }
    Ok(reports)
}

fn md_escape(cell: &str) -> String {
    cell.replace('|', "\\|")
}

fn md_table(out: &mut String, header: &[String], rows: &[Vec<String>]) {
    out.push('|');
    for h in header {
        out.push_str(&format!(" {} |", md_escape(h)));
    }
    out.push_str("\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for c in row {
            out.push_str(&format!(" {} |", md_escape(c)));
        }
        out.push('\n');
    }
}

fn render_section(out: &mut String, title: &str, section: &Section) {
    match section {
        Section::Table { header, rows } => {
            md_table(out, header, rows);
        }
        Section::Series { x_label, lines } => {
            out.push_str("```text\n");
            out.push_str(&render_series(title, x_label, lines));
            out.push_str("```\n");
        }
    }
}

fn render_exhibit(out: &mut String, entry: Option<&BookEntry>, report: &RunReport) {
    let (title, expect, checks): (String, &str, &[Check]) = match entry {
        Some(e) => (format!("{} (`{}`)", e.title, e.name), e.expect, e.checks),
        None => (format!("`{}` (unlisted exhibit)", report.name), "", &[]),
    };
    out.push_str(&format!("## {title}\n\n"));
    let mut labels = vec![format!("kind: {}", report.kind)];
    if let Some(b) = &report.backend {
        labels.push(format!("backend: {b}"));
    }
    if let Some(c) = &report.cm {
        labels.push(format!("cm: {c}"));
    }
    labels.extend(report.meta.iter().map(|(k, v)| format!("{k}: {v}")));
    out.push_str(&format!(
        "*Source: [`results/{name}.json`](results/{name}.json) — {labels}.*\n\n",
        name = report.name,
        labels = labels.join(", ")
    ));
    if !expect.is_empty() {
        out.push_str(&format!("{expect}\n\n"));
    }
    for (stitle, section) in &report.sections {
        if report.sections.len() > 1 {
            out.push_str(&format!("### {stitle}\n\n"));
        }
        render_section(out, stitle, section);
        out.push('\n');
    }
    if !checks.is_empty() {
        for check in checks {
            match run_check(check, report) {
                Ok(()) => out.push_str(&format!("- **PASS** — {}\n", check_desc(check))),
                Err(detail) => out.push_str(&format!(
                    "- **DEVIATION** — {}: {detail}\n",
                    check_desc(check)
                )),
            }
        }
        out.push('\n');
    }
}

/// Render the whole book from loaded run reports. Pure: the output
/// depends only on `reports` (and the static [`ENTRIES`]), so unchanged
/// inputs regenerate byte-identically.
pub fn render_book(reports: &[RunReport]) -> String {
    let find = |name: &str| reports.iter().find(|r| r.name == name);
    let mut out = String::new();
    out.push_str("# Reproduction book\n\n");
    out.push_str(
        "<!-- GENERATED FILE — do not edit. Regenerate with:\n       \
         cargo run --release -p tm-core --bin tmstudy -- book\n     \
         CI fails if this file drifts from the committed results. -->\n\n",
    );
    out.push_str(
        "Every section below is rendered from the committed `results/*.json` run \
         reports (`tm-run-report/v1`). Each exhibit shows its data, commentary on \
         what the paper leads us to expect, and PASS/DEVIATION flags for the \
         expectations pinned to the committed reproduction. Regenerate the \
         underlying results with `cargo run --release -p tm-bench --bin make_all`, \
         then this file with `tmstudy book`.\n\n",
    );
    // Flag tally up front.
    let mut pass = 0usize;
    let mut dev = 0usize;
    for e in ENTRIES {
        if let Some(r) = find(e.name) {
            for c in e.checks {
                match run_check(c, r) {
                    Ok(()) => pass += 1,
                    Err(_) => dev += 1,
                }
            }
        }
    }
    out.push_str(&format!(
        "**Expectation flags: {pass} PASS, {dev} DEVIATION.**\n\n",
    ));
    out.push_str("## Contents\n\n");
    for e in ENTRIES {
        let status = if find(e.name).is_some() {
            ""
        } else {
            " *(missing)*"
        };
        out.push_str(&format!("- **`{}`** — {}{}\n", e.name, e.title, status));
    }
    let mut extras: Vec<&RunReport> = reports
        .iter()
        .filter(|r| ENTRIES.iter().all(|e| e.name != r.name))
        .collect();
    extras.sort_by(|a, b| a.name.cmp(&b.name));
    for r in &extras {
        out.push_str(&format!("- **`{}`** — unlisted exhibit\n", r.name));
    }
    out.push('\n');
    for e in ENTRIES {
        match find(e.name) {
            Some(r) => render_exhibit(&mut out, Some(e), r),
            None => {
                out.push_str(&format!("## {} (`{}`)\n\n", e.title, e.name));
                out.push_str(
                    "*Not yet generated — run `cargo run --release -p tm-bench --bin \
                     make_all` to produce this exhibit.*\n\n",
                );
            }
        }
    }
    for r in extras {
        render_exhibit(&mut out, None, r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_report() -> RunReport {
        RunReport::new("table3", "table").section(
            "data",
            Section::Table {
                header: vec!["Structure".into(), "Best".into(), "Worst".into()],
                rows: vec![
                    vec!["Linked-list".into(), "Glibc".into(), "TBBMalloc".into()],
                    vec!["HashSet".into(), "TCMalloc".into(), "Glibc".into()],
                ],
            },
        )
    }

    fn series_report() -> RunReport {
        RunReport::new("fig3", "figure").section(
            "throughput",
            Section::Series {
                x_label: "block_size".into(),
                lines: vec![
                    Series {
                        label: "Glibc".into(),
                        points: vec![(16.0, 5.0), (64.0, 5.0)],
                    },
                    Series {
                        label: "TCMalloc".into(),
                        points: vec![(16.0, 2.0), (64.0, 9.0)],
                    },
                ],
            },
        )
    }

    #[test]
    fn rowseq_is_order_sensitive() {
        let r = table_report();
        let ok = Check::RowSeq {
            section: "data",
            needles: &["Linked-list", "Glibc", "TBBMalloc"],
            desc: "",
        };
        assert!(run_check(&ok, &r).is_ok());
        // Same needles, wrong order: best/worst swapped must NOT pass.
        let swapped = Check::RowSeq {
            section: "data",
            needles: &["Linked-list", "TBBMalloc", "Glibc"],
            desc: "",
        };
        assert!(run_check(&swapped, &r).is_err());
    }

    #[test]
    fn best_at_max_x_uses_final_points() {
        let r = series_report();
        let win = Check::BestAtMaxX {
            section: "throughput",
            line: "TCMalloc",
            maximize: true,
            desc: "",
        };
        assert!(run_check(&win, &r).is_ok());
        let lose = Check::BestAtMaxX {
            section: "throughput",
            line: "Glibc",
            maximize: true,
            desc: "",
        };
        assert!(run_check(&lose, &r).is_err());
        let lowest = Check::BestAtMaxX {
            section: "throughput",
            line: "Glibc",
            maximize: false,
            desc: "",
        };
        assert!(run_check(&lowest, &r).is_ok());
    }

    #[test]
    fn book_is_deterministic_and_flags_missing_exhibits() {
        let reports = vec![table_report(), series_report()];
        let a = render_book(&reports);
        let b = render_book(&reports);
        assert_eq!(a, b);
        assert!(a.contains("# Reproduction book"));
        assert!(a.contains("Table 3 — best/worst per structure"));
        assert!(a.contains("Not yet generated"), "missing exhibits flagged");
        assert!(a.contains("PASS"));
    }

    #[test]
    fn unlisted_reports_are_appended() {
        let mut extra = table_report();
        extra.name = "zz_custom".into();
        let text = render_book(&[extra]);
        assert!(text.contains("`zz_custom` (unlisted exhibit)"));
    }

    #[test]
    fn load_results_dir_skips_matrix_and_check_reports() {
        let dir = std::env::temp_dir().join(format!("book-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, body: &str| {
            std::fs::write(dir.join(name), body).unwrap();
        };
        write("fig3.json", &table_report().to_json_string());
        // Other schemas in the same directory must be ignored, not parsed.
        write(
            "make_all.sweep.json",
            "{\"schema\": \"tm-sweep-report/v1\"}",
        );
        write("check.check.json", "{\"schema\": \"tm-check-report/v1\"}");
        write("mc_quick.mc.json", "{\"schema\": \"tm-mc-report/v1\"}");
        write("oom_quick.oom.json", "{\"schema\": \"tm-oom-report/v1\"}");
        write("bench.json", "{\"schema\": \"tm-bench/v2\"}");
        write("notes.txt", "not json at all");
        let reports = load_results_dir(dir.to_str().unwrap()).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].name, "table3");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_have_unique_names() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
