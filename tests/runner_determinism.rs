//! The parallel runner's determinism contract: a figure built on N
//! threads is byte-identical to the same figure built on 1 thread.
//!
//! The comparison is on the rendered `Table` (its `Display` output —
//! exactly what `repro` prints), so any divergence in row order, value
//! or formatting fails the test. Each leg clears the trace cache first,
//! so both simulate and run their host engines at their own thread
//! count rather than read the other leg's memoized results.

use gem5_profiling::prof::figures::{fig01, fig14, Fidelity};
use gem5_profiling::prof::report::Table;
use gem5_profiling::prof::runner::clear_cache;
use gem5_profiling::prof::{threads, with_threads};

/// `figure` rendered at `n` threads from a cold trace cache. The cache
/// is cleared under the thread pin, which serializes the legs.
fn cold_at(n: usize, figure: fn(Fidelity) -> Table) -> String {
    with_threads(n, || {
        clear_cache();
        figure(Fidelity::Quick).to_string()
    })
}

#[test]
fn fig01_is_byte_identical_across_thread_counts() {
    let parallel = cold_at(4, fig01);
    let single = cold_at(1, fig01);
    assert_eq!(parallel, single, "fig01 diverged between 4 and 1 threads");
}

#[test]
fn fig14_is_byte_identical_across_thread_counts() {
    let parallel = cold_at(4, fig14);
    let single = cold_at(1, fig14);
    assert_eq!(parallel, single, "fig14 diverged between 4 and 1 threads");
}

#[test]
fn threads_zero_falls_back_to_available_parallelism() {
    // `GEM5PROF_THREADS=0` (and `set_threads(0)`, which `with_threads(0, …)`
    // pins here) means "auto", not "zero workers". The other tests in this
    // file are immune to the env var: they pin a non-zero override, which
    // takes precedence.
    std::env::set_var("GEM5PROF_THREADS", "0");
    let resolved = with_threads(0, threads);
    std::env::remove_var("GEM5PROF_THREADS");
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        resolved, auto,
        "GEM5PROF_THREADS=0 must fall back to available parallelism"
    );
    assert!(resolved >= 1);
}

#[test]
fn garbage_thread_env_is_ignored() {
    std::env::set_var("GEM5PROF_THREADS", "lots");
    let resolved = with_threads(0, threads);
    std::env::remove_var("GEM5PROF_THREADS");
    assert!(resolved >= 1, "unparseable env var must not zero the pool");
}
