//! In-memory spans for the traced run.
//!
//! Spans are recorded only here, in the benchmark's own code, around the
//! calls into each layer: one per workload, pass and cell, one per probe.
//! They stay in memory until the run ends and are then written to
//! `benchmark/out/trace.<workload>.json`. A disabled tracer records
//! nothing and reads no clock, so the untraced run pays one branch per
//! call site.

use std::time::Instant;

use tm_obs::json::Json;

/// One closed interval of the traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one origin instant.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name` (a child of whichever span is
    /// open) and return its result with the span's duration in seconds —
    /// measured even when the tracer is disabled, because callers time
    /// their passes through this one function either way.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len() as u32;
            let at = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name: name.to_string(),
                start_ns: at,
                end_ns: at,
            });
            self.open.push(id);
            id
        });
        let r = f(self);
        let elapsed = start.elapsed();
        if let Some(id) = id {
            self.open.pop();
            let s = &mut self.spans[id as usize];
            s.end_ns = s.start_ns + elapsed.as_nanos() as u64;
        }
        (r, elapsed.as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children that touch or overlap are merged first,
/// so no instant is subtracted twice; a child is clipped to its parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, largest first — the table a reader wants
/// from a trace before opening it.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64)> {
    let mut by_name: Vec<(String, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += own,
            None => by_name.push((s.name.clone(), own)),
        }
    }
    by_name.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    by_name
}

/// The `trace.json` document: every span with its self time.
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::Obj(vec![
        ("schema".into(), Json::str("tm-bench-trace/v1")),
        (
            "spans".into(),
            Json::Arr(
                spans
                    .iter()
                    .zip(own)
                    .map(|(s, own)| {
                        Json::Obj(vec![
                            ("id".into(), Json::u64(s.id as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                            ),
                            ("name".into(), Json::str(s.name.clone())),
                            ("start_ns".into(), Json::u64(s.start_ns)),
                            ("end_ns".into(), Json::u64(s.end_ns)),
                            ("self_ns".into(), Json::u64(own)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(0, None, 0, 100),
            // Two adjacent children and one that overlaps the second.
            span(1, Some(0), 10, 30),
            span(2, Some(0), 30, 50),
            span(3, Some(0), 40, 60),
            // A grandchild takes time from its parent only.
            span(4, Some(1), 12, 20),
        ];
        assert_eq!(self_times_ns(&spans), [50, 12, 20, 20, 8]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert_eq!(self_times_ns(&spans), [5, 10]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let ((), outer) = t.scope("outer", |t| {
            t.scope("inner", |_| std::hint::black_box(())).0
        });
        assert!(outer >= 0.0);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let (v, secs) = off.scope("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn by_name_sums_and_orders() {
        let mut spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 30),
            span(2, Some(0), 50, 90),
        ];
        spans[1].name = "cell".into();
        spans[2].name = "cell".into();
        assert_eq!(
            self_time_by_name(&spans),
            [("cell".to_string(), 70), ("s0".to_string(), 30)]
        );
    }
}
