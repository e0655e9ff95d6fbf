//! Metric definitions, in one place.
//!
//! - Latencies are exact client-observed samples, sorted; never bucketed
//!   histogram quantiles.
//! - A failed request counts as a sample of +∞, so it misses every
//!   latency limit and pushes the percentiles up.
//! - A timing is reported as the median plus the highest percentile of
//!   [`LADDER`] that has at least [`TAIL_BEYOND`] samples beyond it,
//!   named and with the sample count n.
//! - `host_mips` is guest instructions committed per host wall second.
//! - Windows of many short requests (`experiments_hot`) are cut into
//!   one-second segments by request start; each segment is summarised on
//!   its own and the run reports the median over all segments of its
//!   windows. On a shared two-core machine a window's p99 moves with
//!   bursts of host-level interference; the segment median reports the
//!   typical second and stays steady from run to run.

/// Percentiles the tail is chosen from, highest last.
pub const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The percentile reported as the tail of `n >= 1` samples: the highest
/// of [`LADDER`] with [`TAIL_BEYOND`] samples beyond it, or `None` (the
/// maximum) when there is none.
fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - 1 - rank(p, n) >= TAIL_BEYOND)
}

fn tail_label(p: Option<f64>) -> String {
    p.map_or_else(|| "max".to_string(), |p| format!("p{p}"))
}

/// A latency summary over exact samples (seconds; failures are +∞).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// Name of the tail percentile, e.g. `p99`; `max` when no percentile
    /// of the ladder has enough samples beyond it.
    pub tail_name: String,
    pub tail: f64,
}

impl Summary {
    /// Summarises `samples` (sorted here). `None` when there are none.
    pub fn of(mut samples: Vec<f64>) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let p = tail_percentile(n);
        Some(Summary {
            n,
            median: sorted_median(&samples),
            tail_name: tail_label(p),
            tail: p.map_or(samples[n - 1], |p| samples[rank(p, n)]),
        })
    }
}

/// One request: start offset into the window (s), latency (s, +∞ when
/// it failed) and the guest instructions its response reports.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub start_s: f64,
    pub latency_s: f64,
    pub insts: u64,
}

/// Medians over the whole one-second segments of a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Segmented {
    pub segments: usize,
    /// Samples in the median segment's summary, for the report.
    pub n_per_segment: usize,
    pub median: f64,
    pub tail_name: String,
    pub tail: f64,
    pub requests_per_s: f64,
    pub insts_per_s: f64,
}

/// Segments each window's requests by start second (a trailing partial
/// second is dropped) and takes medians over the per-segment summaries
/// of all windows. `None` when no whole segment holds a request.
pub fn segmented<'a>(windows: impl IntoIterator<Item = (&'a [Request], f64)>) -> Option<Segmented> {
    let mut rates = Vec::new();
    let mut insts = Vec::new();
    let mut sums = Vec::new();
    for (reqs, window_s) in windows {
        let mut seg: Vec<(Vec<f64>, u64)> = vec![(Vec::new(), 0); window_s.floor() as usize];
        for r in reqs {
            if let Some(s) = seg.get_mut(r.start_s.max(0.0) as usize) {
                s.0.push(r.latency_s);
                s.1 += r.insts;
            }
        }
        rates.extend(seg.iter().map(|s| s.0.len() as f64));
        insts.extend(seg.iter().map(|s| s.1 as f64));
        sums.extend(seg.into_iter().filter_map(|s| Summary::of(s.0)));
    }
    if sums.is_empty() {
        return None;
    }
    let mid = |f: &dyn Fn(&Summary) -> f64| median(&sums.iter().map(f).collect::<Vec<_>>());
    let n_per_segment = mid(&|s| s.n as f64) as usize;
    Some(Segmented {
        segments: rates.len(),
        n_per_segment,
        median: mid(&|s| s.median),
        tail_name: tail_label(tail_percentile(n_per_segment)),
        tail: mid(&|s| s.tail),
        requests_per_s: median(&rates),
        insts_per_s: median(&insts),
    })
}

/// Guest instructions committed per host wall second, in millions.
pub fn host_mips(committed_insts: u64, wall_s: f64) -> f64 {
    committed_insts as f64 / wall_s / 1e6
}

/// The middle sample, or the mean of the two middle samples.
fn sorted_median(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of a non-empty list of run-level values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    sorted_median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nine_samples_have_no_supported_percentile() {
        let s = Summary::of(ramp(9)).unwrap();
        assert_eq!(
            (s.n, s.median, s.tail_name.as_str(), s.tail),
            (9, 5.0, "max", 9.0)
        );
    }

    #[test]
    fn ten_samples_have_no_supported_percentile() {
        // p50 is the 5th sample with 5 beyond it: fewer than ten.
        let s = Summary::of(ramp(10)).unwrap();
        assert_eq!(
            (s.n, s.median, s.tail_name.as_str(), s.tail),
            (10, 5.5, "max", 10.0)
        );
    }

    #[test]
    fn a_thousand_samples_report_p99_with_ten_beyond() {
        let mut v = ramp(1000);
        v.reverse(); // order of arrival does not matter
        let s = Summary::of(v).unwrap();
        assert_eq!(
            (s.median, s.tail_name.as_str(), s.tail),
            (500.5, "p99", 990.0)
        );
    }

    #[test]
    fn tail_climbs_the_ladder_with_n() {
        assert_eq!(Summary::of(ramp(20)).unwrap().tail_name, "p50");
        assert_eq!(Summary::of(ramp(40)).unwrap().tail_name, "p75");
        assert_eq!(Summary::of(ramp(100)).unwrap().tail_name, "p90");
        assert_eq!(Summary::of(ramp(1_000_000)).unwrap().tail_name, "p99");
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let failing = |k: usize| {
            let mut v = ramp(1000);
            for x in v.iter_mut().rev().take(k) {
                *x = f64::INFINITY;
            }
            Summary::of(v).unwrap()
        };
        // p99 has ten samples beyond it: ten failures stay beyond it,
        // the eleventh lands on it.
        assert_eq!(failing(10).tail, 990.0);
        assert_eq!(failing(11).tail, f64::INFINITY);
        assert_eq!(failing(500).median, f64::INFINITY);
    }

    #[test]
    fn host_mips_is_per_host_wall_second() {
        assert_eq!(host_mips(5_000_000, 2.0), 2.5);
    }

    #[test]
    fn segment_medians_ignore_one_bad_second() {
        let mut reqs = Vec::new();
        for sec in 0..5 {
            for i in 0..1000 {
                // Second 3 is ten times slower throughout.
                let slow = if sec == 3 { 10.0 } else { 1.0 };
                reqs.push(Request {
                    start_s: sec as f64 + i as f64 / 1000.0,
                    latency_s: slow * (1.0 + i as f64 / 1000.0),
                    insts: 2,
                });
            }
        }
        // A trailing partial second is dropped.
        reqs.push(Request {
            start_s: 5.5,
            latency_s: 99.0,
            insts: 2,
        });
        let s = segmented([(&reqs[..], 5.9)]).unwrap();
        assert_eq!(
            (s.segments, s.n_per_segment, s.tail_name.as_str()),
            (5, 1000, "p99")
        );
        assert_eq!(s.requests_per_s, 1000.0);
        assert_eq!(s.insts_per_s, 2000.0);
        assert!((s.median - 1.4995).abs() < 1e-9, "{s:?}");
        assert!((s.tail - 1.989).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn empty_sample_set_has_no_summary() {
        assert_eq!(Summary::of(Vec::new()), None);
    }
}
