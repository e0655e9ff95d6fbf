//! Self-time diffing between two snapshots, and the hot-span
//! regression gate built on top of it.
//!
//! Snapshots are *windows*: the server resets the span table at every
//! capture, so two snapshots taken around identical workloads compare
//! cleanly no matter how long the daemon has been running. Because the
//! two windows may still contain different call counts (a longer burst,
//! a retried request), every comparison is made on **per-call self
//! time** (`self_ns / count`), which is invariant under window length.
//!
//! All divisions are guarded: a path with `count == 0` contributes a
//! per-call time of zero, a path missing from the baseline has no
//! defined regression (`delta_pct == None`, rendered as JSON `null`),
//! and an empty snapshot diffs to an empty table — no `NaN`, no panic,
//! whatever the histograms and span tables held.

use crate::Snapshot;
use std::collections::BTreeMap;

/// Hot spans the regression gate watches by default: the event-queue
/// drain and guest simulation loops the paper's speedups protect, the
/// host engines that consume their event stream, plus the server's
/// per-request compute span. Matching is by path *leaf*, so
/// `serve_compute;profile;dedup;guest_sim` counts toward `guest_sim`.
pub const DEFAULT_HOT_SPANS: &[&str] =
    &["eventq_drain", "guest_sim", "host_engines", "serve_compute"];

/// Default regression threshold: a watched span failing with more than
/// this much per-call self-time growth fails the gate.
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// Default absolute floor: a watched span must also grow by at least
/// this many nanoseconds per call to regress. Hot spans whose *self*
/// time is tiny (their children hold the real time — `guest_sim` self
/// runs sub-microsecond while `eventq_drain` below it holds
/// milliseconds) would otherwise trip the relative threshold on
/// scheduler noise alone; a regression smaller than 100 µs per call is
/// not actionable at this system's scale.
pub const DEFAULT_MIN_DELTA_NS: f64 = 100_000.0;

/// One span path's before/after self-time comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// `;`-joined span path.
    pub path: String,
    /// Completions in the baseline window (0 when absent).
    pub a_count: u64,
    /// Baseline self time, summed over the window.
    pub a_self_ns: u64,
    /// Completions in the compared window.
    pub b_count: u64,
    /// Compared self time.
    pub b_self_ns: u64,
    /// `a_self_ns / a_count`, 0.0 when the window has no completions.
    pub a_self_per_call_ns: f64,
    /// `b_self_ns / b_count`, 0.0 when the window has no completions.
    pub b_self_per_call_ns: f64,
    /// Per-call self-time change in percent, positive = regression.
    /// `None` when the baseline per-call time is zero (new or absent
    /// path): there is nothing to regress against.
    pub delta_pct: Option<f64>,
}

/// The per-span delta table between two snapshots, worst regression
/// first.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Baseline snapshot id.
    pub a_id: u64,
    /// Compared snapshot id.
    pub b_id: u64,
    /// One row per span path present in either window, sorted by
    /// `delta_pct` descending; rows with no defined delta sort last,
    /// by compared self time descending.
    pub rows: Vec<DiffRow>,
}

fn per_call(self_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        self_ns as f64 / count as f64
    }
}

/// Per-call growth in percent; `None` when there is no baseline.
fn delta_pct(a: f64, b: f64) -> Option<f64> {
    if a > 0.0 {
        Some(100.0 * (b - a) / a)
    } else {
        None
    }
}

/// Builds the per-span delta table between baseline `a` and compared
/// snapshot `b`.
pub fn diff(a: &Snapshot, b: &Snapshot) -> DiffReport {
    let mut paths: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in &a.spans {
        let e = paths.entry(s.path.as_str()).or_default();
        e.0 += s.count;
        e.1 += s.self_ns;
    }
    for s in &b.spans {
        let e = paths.entry(s.path.as_str()).or_default();
        e.2 += s.count;
        e.3 += s.self_ns;
    }
    let mut rows: Vec<DiffRow> = paths
        .into_iter()
        .map(|(path, (a_count, a_self_ns, b_count, b_self_ns))| {
            let a_per = per_call(a_self_ns, a_count);
            let b_per = per_call(b_self_ns, b_count);
            DiffRow {
                path: path.to_string(),
                a_count,
                a_self_ns,
                b_count,
                b_self_ns,
                a_self_per_call_ns: a_per,
                b_self_per_call_ns: b_per,
                delta_pct: delta_pct(a_per, b_per),
            }
        })
        .collect();
    rows.sort_by(|x, y| match (x.delta_pct, y.delta_pct) {
        (Some(dx), Some(dy)) => dy.partial_cmp(&dx).unwrap_or(std::cmp::Ordering::Equal),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => y.b_self_ns.cmp(&x.b_self_ns),
    });
    DiffReport {
        a_id: a.id,
        b_id: b.id,
        rows,
    }
}

/// Collapsed-stack delta export: one line per path, hottest compared
/// self time first — `path <baseline-self-µs> <compared-self-µs>`, the
/// two-column "difffolded" format flamegraph differential tooling
/// consumes.
pub fn collapsed(report: &DiffReport, top: usize) -> String {
    let mut rows: Vec<&DiffRow> = report.rows.iter().collect();
    rows.sort_by(|x, y| {
        y.b_self_ns
            .cmp(&x.b_self_ns)
            .then_with(|| x.path.cmp(&y.path))
    });
    let mut out = String::new();
    for r in rows.into_iter().take(top) {
        out.push_str(&r.path);
        out.push(' ');
        out.push_str(&(r.a_self_ns / 1_000).to_string());
        out.push(' ');
        out.push_str(&(r.b_self_ns / 1_000).to_string());
        out.push('\n');
    }
    out
}

/// One watched hot span's verdict. Per-call times aggregate every path
/// whose leaf equals the watched name, so the check is insensitive to
/// where in the tree the span ran.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// The watched span name (path leaf).
    pub span: String,
    /// Aggregated baseline per-call self time (0.0 when never seen).
    pub a_self_per_call_ns: f64,
    /// Aggregated compared per-call self time.
    pub b_self_per_call_ns: f64,
    /// Per-call growth in percent; `None` without a baseline.
    pub delta_pct: Option<f64>,
    /// Whether this span regressed beyond the threshold.
    pub regressed: bool,
}

/// The regression-gate verdict for one diff.
#[derive(Debug, Clone)]
pub struct GateResult {
    /// The relative threshold the checks ran against.
    pub threshold_pct: f64,
    /// The absolute per-call floor the checks ran against.
    pub min_delta_ns: f64,
    /// One verdict per watched span, in the order given.
    pub checks: Vec<GateCheck>,
    /// True when no watched span regressed beyond the threshold.
    pub pass: bool,
}

fn leaf(path: &str) -> &str {
    path.rsplit(';').next().unwrap_or(path)
}

/// Sums (count, self_ns) over every path whose leaf is `span`.
fn aggregate(snap: &Snapshot, span: &str) -> (u64, u64) {
    snap.spans
        .iter()
        .filter(|s| leaf(&s.path) == span)
        .fold((0, 0), |(c, n), s| (c + s.count, n + s.self_ns))
}

/// Runs the hot-span regression gate: for each watched span, the
/// aggregated per-call self time in `b` must not exceed the one in `a`
/// by more than `threshold_pct` percent AND `min_delta_ns` nanoseconds
/// — both conditions, so sub-floor noise on a tiny span never fails the
/// gate no matter how large it is relatively. Spans with no baseline
/// (never seen, or zero self time in `a`) cannot regress — a gate
/// against an empty baseline always passes, by design: the bless flow
/// exists precisely to establish a meaningful one.
pub fn gate(
    a: &Snapshot,
    b: &Snapshot,
    spans: &[String],
    threshold_pct: f64,
    min_delta_ns: f64,
) -> GateResult {
    let checks: Vec<GateCheck> = spans
        .iter()
        .map(|span| {
            let (a_count, a_self) = aggregate(a, span);
            let (b_count, b_self) = aggregate(b, span);
            let a_per = per_call(a_self, a_count);
            let b_per = per_call(b_self, b_count);
            let delta = delta_pct(a_per, b_per);
            GateCheck {
                span: span.clone(),
                a_self_per_call_ns: a_per,
                b_self_per_call_ns: b_per,
                delta_pct: delta,
                regressed: delta.is_some_and(|d| d > threshold_pct)
                    && (b_per - a_per) > min_delta_ns,
            }
        })
        .collect();
    let pass = checks.iter().all(|c| !c.regressed);
    GateResult {
        threshold_pct,
        min_delta_ns,
        checks,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanRow;

    fn snap(id: u64, spans: &[(&str, u64, u64)]) -> Snapshot {
        Snapshot {
            id,
            taken_unix_ms: 0,
            label: format!("snap{id}"),
            node_id: "test".into(),
            spans: spans
                .iter()
                .map(|&(path, count, self_ns)| SpanRow {
                    path: path.into(),
                    count,
                    total_ns: self_ns,
                    self_ns,
                })
                .collect(),
            metrics: Vec::new(),
        }
    }

    #[test]
    fn diff_is_per_call_and_window_length_invariant() {
        // Same per-call cost, 3x the calls: no regression.
        let a = snap(1, &[("x;guest_sim", 2, 2_000)]);
        let b = snap(2, &[("x;guest_sim", 6, 6_000)]);
        let report = diff(&a, &b);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.a_self_per_call_ns, 1_000.0);
        assert_eq!(row.b_self_per_call_ns, 1_000.0);
        assert_eq!(row.delta_pct, Some(0.0));
    }

    #[test]
    fn diff_guards_every_division() {
        // Zero counts, zero self times, missing paths on both sides:
        // nothing may NaN or panic.
        let a = snap(1, &[("gone", 1, 500), ("zeroed", 0, 0), ("warm", 4, 400)]);
        let b = snap(2, &[("new", 3, 900), ("zeroed", 0, 0), ("warm", 4, 800)]);
        let report = diff(&a, &b);
        for row in &report.rows {
            assert!(row.a_self_per_call_ns.is_finite(), "{row:?}");
            assert!(row.b_self_per_call_ns.is_finite(), "{row:?}");
            if let Some(d) = row.delta_pct {
                assert!(d.is_finite(), "{row:?}");
            }
        }
        let by_path = |p: &str| report.rows.iter().find(|r| r.path == p).unwrap();
        assert_eq!(by_path("new").delta_pct, None, "no baseline, no delta");
        assert_eq!(by_path("zeroed").delta_pct, None);
        assert_eq!(by_path("warm").delta_pct, Some(100.0));
        // The worst defined regression sorts first; undefined rows last.
        assert_eq!(report.rows[0].path, "warm");
        assert!(report.rows.last().unwrap().delta_pct.is_none());
        // Empty-vs-empty diffs to an empty table.
        assert!(diff(&snap(3, &[]), &snap(4, &[])).rows.is_empty());
    }

    #[test]
    fn gate_matches_leaves_and_aggregates_across_paths() {
        let a = snap(
            1,
            &[
                ("serve_compute;profile;dedup;guest_sim", 2, 2_000_000),
                ("profile;ferret;guest_sim", 2, 2_000_000),
                ("eventq_drain", 10, 1_000_000),
            ],
        );
        // guest_sim: aggregated per-call 1ms -> 2ms (+100%, +1ms —
        // over both the threshold and the absolute floor);
        // eventq_drain unchanged per call.
        let b = snap(
            2,
            &[
                ("serve_compute;profile;dedup;guest_sim", 2, 6_000_000),
                ("profile;ferret;guest_sim", 2, 2_000_000),
                ("eventq_drain", 20, 2_000_000),
            ],
        );
        let spans: Vec<String> = DEFAULT_HOT_SPANS.iter().map(|s| s.to_string()).collect();
        let result = gate(&a, &b, &spans, DEFAULT_THRESHOLD_PCT, DEFAULT_MIN_DELTA_NS);
        assert!(!result.pass);
        let check = |name: &str| result.checks.iter().find(|c| c.span == name).unwrap();
        assert!(check("guest_sim").regressed);
        assert_eq!(check("guest_sim").delta_pct, Some(100.0));
        assert!(!check("eventq_drain").regressed);
        assert_eq!(check("eventq_drain").delta_pct, Some(0.0));
        // serve_compute appears in neither window: no baseline, passes.
        assert!(!check("serve_compute").regressed);
        assert_eq!(check("serve_compute").delta_pct, None);

        // Identical windows pass at any threshold.
        assert!(gate(&a, &a, &spans, 0.0, 0.0).pass);
        // An empty baseline cannot fail the gate.
        assert!(gate(&snap(9, &[]), &b, &spans, DEFAULT_THRESHOLD_PCT, 0.0).pass);
    }

    #[test]
    fn gate_floor_ignores_relative_noise_on_tiny_spans() {
        // guest_sim self doubles (+100%) but only by 800 ns per call —
        // far under the 100 µs floor. This is exactly the scheduler
        // noise a thin parent span shows between identical runs; the
        // gate must not flake on it.
        let a = snap(1, &[("x;guest_sim", 1, 800)]);
        let b = snap(2, &[("x;guest_sim", 1, 1_600)]);
        let spans: Vec<String> = DEFAULT_HOT_SPANS.iter().map(|s| s.to_string()).collect();
        let result = gate(&a, &b, &spans, DEFAULT_THRESHOLD_PCT, DEFAULT_MIN_DELTA_NS);
        assert!(result.pass, "{result:?}");
        // With the floor disabled the same growth fails: the floor, not
        // the threshold, is what saved it.
        assert!(!gate(&a, &b, &spans, DEFAULT_THRESHOLD_PCT, 0.0).pass);
    }

    #[test]
    fn collapsed_is_two_column_difffolded() {
        let a = snap(1, &[("x;y", 1, 5_000), ("x", 1, 2_000)]);
        let b = snap(2, &[("x;y", 1, 9_000), ("x", 1, 1_000)]);
        let text = collapsed(&diff(&a, &b), 10);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["x;y 5 9", "x 2 1"]);
        assert_eq!(collapsed(&diff(&a, &b), 1).lines().count(), 1);
    }
}
