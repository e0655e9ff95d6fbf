//! A minimal `std::time::Instant` bench runner for `[[bench]]
//! harness = false` targets.
//!
//! `cargo bench` invokes the target with `--bench` plus any user filter
//! strings; the runner warms each benchmark up once, then iterates until
//! a time budget (or iteration cap) is reached and prints min / mean /
//! max wall time per iteration. Deliberately no statistics beyond that —
//! the goal is a dependency-free health check, not Criterion.

use std::time::{Duration, Instant};

/// Per-iteration time budget control for one benchmark group.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop after roughly this much measured time.
    pub max_time: Duration,
    /// Never exceed this many measured iterations.
    pub max_iters: u32,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_time: Duration::from_secs(2),
            max_iters: 50,
        }
    }
}

/// The bench runner: parses CLI args (a non-flag argument is a substring
/// filter on benchmark names) and runs/reports each registered bench.
pub struct Runner {
    filters: Vec<String>,
    ran: u32,
}

impl Runner {
    /// Builds a runner from `std::env::args`, skipping harness flags
    /// that `cargo bench` passes through (`--bench`, `--exact`, ...).
    pub fn from_args() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Runner { filters, ran: 0 }
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    /// Benchmarks `f` under `name` with the default budget.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.bench_with(name, Budget::default(), f);
    }

    /// Benchmarks `f` under `name` with the default budget, and also
    /// reports the time per one of the `units` `unit`s each iteration
    /// processes.
    pub fn bench_per<R>(&mut self, name: &str, units: u64, unit: &str, f: impl FnMut() -> R) {
        if let Some((min, mean)) = self.measure(name, Budget::default(), f) {
            println!(
                "{:<44} min {:>9.1} ns/{unit} mean {:>9.1} ns/{unit} ({units} {unit}s)",
                "",
                min.as_nanos() as f64 / units as f64,
                mean.as_nanos() as f64 / units as f64,
            );
        }
    }

    /// Benchmarks `f` under `name` with an explicit budget.
    pub fn bench_with<R>(&mut self, name: &str, budget: Budget, f: impl FnMut() -> R) {
        self.measure(name, budget, f);
    }

    /// Runs and reports `f` if `name` is selected; returns its min and
    /// mean time per iteration.
    fn measure<R>(
        &mut self,
        name: &str,
        budget: Budget,
        mut f: impl FnMut() -> R,
    ) -> Option<(Duration, Duration)> {
        if !self.selected(name) {
            return None;
        }
        // One untimed warmup (fills caches, triggers lazy init).
        std::hint::black_box(f());

        let started = Instant::now();
        let mut times = Vec::new();
        while times.len() < budget.max_iters as usize
            && (times.is_empty() || started.elapsed() < budget.max_time)
        {
            let t0 = Instant::now();
            std::hint::black_box(f());
            times.push(t0.elapsed());
        }
        let min = times.iter().min().copied().unwrap_or_default();
        let max = times.iter().max().copied().unwrap_or_default();
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "{name:<44} min {:>12} mean {:>12} max {:>12} ({} iters)",
            fmt(min),
            fmt(mean),
            fmt(max),
            times.len()
        );
        self.ran += 1;
        Some((min, mean))
    }

    /// Prints the trailer; call once after all benches are registered.
    pub fn finish(self) {
        println!("{} benchmark(s) run", self.ran);
    }
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_respects_filters() {
        let mut r = Runner {
            filters: vec!["match".into()],
            ran: 0,
        };
        let tight = Budget {
            max_time: Duration::from_millis(1),
            max_iters: 2,
        };
        r.bench_with("no_hit", tight, || 1 + 1);
        assert_eq!(r.ran, 0);
        r.bench_with("does_match", tight, || 1 + 1);
        assert_eq!(r.ran, 1);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert!(fmt(Duration::from_nanos(5)).ends_with("ns"));
        assert!(fmt(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt(Duration::from_secs(5)).ends_with(" s"));
    }
}
