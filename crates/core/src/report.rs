//! Plain-text table and series formatting (the generated book and the
//! examples print through it) and the best/worst summary of Tables 3 and 6.

use tm_obs::Series;

/// Render several series as an aligned text table: one row per x, one
/// column per series — directly comparable to the paper's figures.
pub fn render_series(title: &str, x_label: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    let xs = merged_xs(series);
    let mut header = vec![x_label.to_string()];
    header.extend(series.iter().map(|s| s.label.clone()));
    let mut rows = vec![header];
    for &x in &xs {
        let mut row = vec![trim_float(x)];
        for s in series {
            // Index-based join on the merged x axis (total_cmp equality, so
            // a NaN x still matches its own row instead of vanishing).
            let y = s
                .points
                .iter()
                .find(|p| p.0.total_cmp(&x).is_eq())
                .map(|p| format!("{:.4}", p.1))
                .unwrap_or_else(|| "-".into());
            row.push(y);
        }
        rows.push(row);
    }
    out.push_str(&render_rows(&rows));
    out
}

/// All distinct x values across `series`, in `total_cmp` order. `total_cmp`
/// is a total order over every f64 — a stray NaN sorts last instead of
/// panicking the `partial_cmp().unwrap()` this code used to do, and
/// deduplication cannot be fooled by `NaN != NaN`.
fn merged_xs(series: &[Series]) -> Vec<f64> {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| a.total_cmp(b).is_eq());
    xs
}

/// Render a generic table with a header row.
pub fn render_table(title: &str, header: &[&str], body: &[Vec<String>]) -> String {
    let mut rows = vec![header.iter().map(|s| s.to_string()).collect::<Vec<_>>()];
    rows.extend(body.iter().cloned());
    format!("# {title}\n{}", render_rows(&rows))
}

fn trim_float(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn render_rows(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let mut out = String::new();
    for (ri, r) in rows.iter().enumerate() {
        let line: Vec<String> = r
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
        if ri == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Find best/worst labels and the percentage difference between them, as in
/// the paper's Tables 3 and 6 (`lower_is_better` for execution time,
/// `!lower_is_better` for throughput).
pub fn best_worst(entries: &[(String, f64)], lower_is_better: bool) -> BestWorst {
    assert!(!entries.is_empty());
    let mut best = &entries[0];
    let mut worst = &entries[0];
    for e in entries {
        let better = if lower_is_better {
            e.1 < best.1
        } else {
            e.1 > best.1
        };
        let worse = if lower_is_better {
            e.1 > worst.1
        } else {
            e.1 < worst.1
        };
        if better {
            best = e;
        }
        if worse {
            worst = e;
        }
    }
    // Performance difference: how much worse the worst is, relative to the
    // best (171 % in the paper means worst takes 2.71x the best's time).
    let diff_pct = if lower_is_better {
        (worst.1 / best.1 - 1.0) * 100.0
    } else {
        (best.1 / worst.1 - 1.0) * 100.0
    };
    BestWorst {
        best: best.0.clone(),
        worst: worst.0.clone(),
        diff_pct,
    }
}

/// Result of [`best_worst`].
#[derive(Clone, Debug)]
pub struct BestWorst {
    /// Label of the best series at max x.
    pub best: String,
    /// Label of the worst series at max x.
    pub worst: String,
    /// `(best - worst) / worst`, in percent.
    pub diff_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_worst_time() {
        let e = vec![
            ("Glibc".to_string(), 10.0),
            ("Hoard".to_string(), 27.1),
            ("TBB".to_string(), 12.0),
        ];
        let bw = best_worst(&e, true);
        assert_eq!(bw.best, "Glibc");
        assert_eq!(bw.worst, "Hoard");
        assert!((bw.diff_pct - 171.0).abs() < 1e-9);
    }

    #[test]
    fn best_worst_throughput() {
        let e = vec![("A".to_string(), 100.0), ("B".to_string(), 80.0)];
        let bw = best_worst(&e, false);
        assert_eq!(bw.best, "A");
        assert_eq!(bw.worst, "B");
        assert!((bw.diff_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn series_render_includes_all_points() {
        let s = vec![
            Series {
                label: "Glibc".into(),
                points: vec![(1.0, 0.5), (2.0, 0.7)],
            },
            Series {
                label: "Hoard".into(),
                points: vec![(1.0, 0.4)],
            },
        ];
        let out = render_series("Fig X", "cores", &s);
        assert!(out.contains("Glibc"));
        assert!(out.contains("0.7000"));
        assert!(out.contains('-'), "missing points rendered as dash");
        assert_eq!(out.lines().count(), 2 + 2 + 1); // title + header + rule + 2 rows
    }

    #[test]
    fn nan_x_neither_panics_nor_collides() {
        // Regression: the old partial_cmp().unwrap() sort panicked on a NaN
        // x, and the `p.0 == x` join dropped the point (NaN != NaN). Under
        // total_cmp a NaN x sorts last and joins to its own row.
        let s = vec![
            Series {
                label: "a".into(),
                points: vec![(f64::NAN, 7.0), (1.0, 2.0)],
            },
            Series {
                label: "b".into(),
                points: vec![(f64::NAN, 8.0)],
            },
        ];
        let out = render_series("T", "x", &s);
        assert!(out.contains("2.0000"));
        assert!(
            out.contains("7.0000"),
            "NaN row must join its own point:\n{out}"
        );
        assert!(out.contains("8.0000"));
        // Both series' NaN x dedup to a single row: title + header + rule
        // + row(1.0) + row(NaN).
        assert_eq!(out.lines().count(), 5, "{out}");
    }

    #[test]
    fn table_render_aligns() {
        let out = render_table(
            "T",
            &["app", "best"],
            &[vec!["yada".into(), "TCMalloc".into()]],
        );
        assert!(out.contains("yada"));
        assert!(out.contains("TCMalloc"));
    }
}
