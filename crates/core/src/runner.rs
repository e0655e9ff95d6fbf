//! Parallel experiment execution: a std-only work-stealing thread pool
//! plus the guest-trace memoization cache.
//!
//! The figure matrix is embarrassingly parallel — Fig. 1 alone is
//! 9 workloads × 4 CPU models × platforms × co-run scenarios — but each
//! point was historically profiled sequentially. [`parallel_map`] fans a
//! work list across cores with scoped threads and work stealing, and the
//! [trace cache](cache_stats) records each [`GuestSpec`]'s post-adapter
//! event stream, so the guest simulation runs once while its stream
//! stays cached. [`TRACE_CACHE_CAP`] bounds both one stream and the
//! whole cache: a longer stream is never cached, and the least recently
//! used streams are evicted once the cached total would pass it. Each
//! cached stream also memoizes the host results computed from it, keyed
//! by the whole [`HostSetup`] and at most [`HOST_MEMO_CAP`] of them, so a
//! later profile replays the stream only into engines for new setups.
//! [`threads`] also sets how many threads `hosttrace::record::feed`
//! spreads one profile's engines over.
//!
//! Determinism contract: `parallel_map(items, f)[i] == f(&items[i])`,
//! assembled in input order, for any thread count and any interleaving.
//! Profiling is deterministic per spec (replayed streams are exactly the
//! recorded streams, each engine sees them in order on one thread, and
//! a memoized result is the one that engine produced), so whole figures
//! are byte-identical whether built on 1 thread or N.
//!
//! Thread count resolution order: [`with_threads`] override, then
//! [`set_threads`], then the `GEM5PROF_THREADS` environment variable,
//! then [`std::thread::available_parallelism`].

use crate::cache::LruCache;
use crate::experiment::{GuestSpec, HostSetup};
use gem5sim::system::SimResult;
use gem5sim::ExecTier;
use hostmodel::HostRunStats;
use hosttrace::record::TraceEvent;
use hosttrace::CallProfile;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The thread count [`parallel_map`] will use right now.
///
/// `GEM5PROF_THREADS=0` is not an error: it falls back to
/// [`std::thread::available_parallelism`] with a one-time warning, so
/// scripts can pass `0` to mean "auto".
pub fn threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var("GEM5PROF_THREADS") {
        match s.trim().parse::<usize>() {
            Ok(0) => {
                static WARNED: AtomicBool = AtomicBool::new(false);
                if !WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: GEM5PROF_THREADS=0 — falling back to available parallelism"
                    );
                }
            }
            Ok(n) => return n,
            Err(_) => {}
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets the process-wide thread count (`0` restores auto-detection).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Runs `f` with the thread count pinned to `n`, restoring the previous
/// setting afterwards. Calls are serialized process-wide so concurrent
/// tests cannot observe each other's override.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static SERIAL: Mutex<()> = Mutex::new(());
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let prev = THREAD_OVERRIDE.swap(n, Ordering::Relaxed);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------
// Execution-tier configuration
// ---------------------------------------------------------------------

/// Process-wide exec-tier override: 0 = unset, 1 = interp, 2 = block.
static TIER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The guest execution tier [`crate::profile`] will configure right now.
///
/// Resolution order: [`with_exec_tier`] / [`set_exec_tier`] override,
/// then the `GEM5PROF_EXEC_TIER` environment variable (`interp` |
/// `block`), then the block tier. The tier never changes simulation
/// results — stats, traces and artifacts are byte-identical — so it is
/// deliberately *not* part of the memoization key.
pub fn exec_tier() -> ExecTier {
    match TIER_OVERRIDE.load(Ordering::Relaxed) {
        1 => return ExecTier::Interp,
        2 => return ExecTier::Block,
        _ => {}
    }
    if let Ok(s) = std::env::var("GEM5PROF_EXEC_TIER") {
        match s.trim().parse::<ExecTier>() {
            Ok(t) => return t,
            Err(e) => {
                static WARNED: AtomicBool = AtomicBool::new(false);
                if !WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!("warning: {e}; using the block tier");
                }
            }
        }
    }
    ExecTier::Block
}

fn encode_tier(t: ExecTier) -> usize {
    match t {
        ExecTier::Interp => 1,
        ExecTier::Block => 2,
    }
}

/// Sets the process-wide execution tier.
pub fn set_exec_tier(t: ExecTier) {
    TIER_OVERRIDE.store(encode_tier(t), Ordering::Relaxed);
}

/// Runs `f` with the execution tier pinned to `t`, restoring the
/// previous setting afterwards. Calls are serialized process-wide so
/// concurrent tests cannot observe each other's override.
pub fn with_exec_tier<R>(t: ExecTier, f: impl FnOnce() -> R) -> R {
    static SERIAL: Mutex<()> = Mutex::new(());
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let prev = TIER_OVERRIDE.swap(encode_tier(t), Ordering::Relaxed);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            TIER_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------
// Work-stealing parallel map
// ---------------------------------------------------------------------

/// A worker's slice of the index space: `[lo, hi)`.
struct Range {
    lo: usize,
    hi: usize,
}

/// Applies `f` to every item across [`threads`] scoped worker threads
/// and returns the results **in input order** — byte-identical to the
/// sequential `items.iter().map(f).collect()` regardless of scheduling.
///
/// The index space is split evenly into per-worker ranges; a worker pops
/// from the front of its own range and, when empty, steals the upper
/// half of the largest remaining victim range. Jobs here are coarse
/// (whole guest simulations / host replays), so the per-pop lock is
/// noise.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = threads().min(n).max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    // Keep logical span parentage across the fan-out: worker threads
    // re-root their spans under the caller's current span path, so a
    // `figure → profile → workload` chain survives the thread hop.
    let parent = gem5prof_obs::span::current_path();

    let ranges: Vec<Mutex<Range>> = (0..workers)
        .map(|w| {
            // Even split: worker w owns [w*n/workers, (w+1)*n/workers).
            Mutex::new(Range {
                lo: w * n / workers,
                hi: (w + 1) * n / workers,
            })
        })
        .collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    let pop_own = |me: usize| -> Option<usize> {
        let mut r = lock(&ranges[me]);
        if r.lo < r.hi {
            let i = r.lo;
            r.lo += 1;
            Some(i)
        } else {
            None
        }
    };
    let steal = |me: usize| -> Option<usize> {
        // Chaos point: a stalled queue hand-off. Timing only — the
        // determinism contract (input-order results) must hold through
        // arbitrary scheduling delays.
        if let Some(d) = gem5prof_chaos::delay("runner.queue_stall") {
            std::thread::sleep(d);
            gem5prof_chaos::recovered("runner.queue_stall");
        }
        // Pick the victim with the most remaining work, take its upper
        // half, then serve the first stolen index.
        let victim = (0..ranges.len()).filter(|&v| v != me).max_by_key(|&v| {
            let r = lock(&ranges[v]);
            r.hi.saturating_sub(r.lo)
        })?;
        let (lo, hi) = {
            let mut r = lock(&ranges[victim]);
            let len = r.hi.saturating_sub(r.lo);
            if len == 0 {
                return None;
            }
            let keep = len / 2;
            let stolen_lo = r.lo + keep;
            let stolen_hi = r.hi;
            r.hi = stolen_lo;
            (stolen_lo, stolen_hi)
        };
        {
            let mut mine = lock(&ranges[me]);
            mine.lo = lo + 1;
            mine.hi = hi;
        }
        Some(lo)
    };

    std::thread::scope(|scope| {
        for me in 0..workers {
            let slots = &slots;
            let f = &f;
            let pop_own = &pop_own;
            let steal = &steal;
            let parent = &parent;
            scope.spawn(move || {
                gem5prof_obs::span::with_parent(parent, || loop {
                    let i = match pop_own(me) {
                        Some(i) => i,
                        None => match steal(me) {
                            Some(i) => i,
                            None => break,
                        },
                    };
                    // Chaos point: one worker runs slow; the others must
                    // cover its tail via steals without reordering.
                    if let Some(d) = gem5prof_chaos::delay("runner.slow_worker") {
                        std::thread::sleep(d);
                        gem5prof_chaos::recovered("runner.slow_worker");
                    }
                    *lock(&slots[i]) = Some(f(&items[i]));
                })
            });
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| panic!("slot {i} never produced"))
        })
        .collect()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Guest-trace memoization cache
// ---------------------------------------------------------------------

/// One memoized guest simulation: everything `profile` needs to serve a
/// later call for the same [`GuestSpec`] without touching the simulator.
#[derive(Debug)]
pub(crate) struct CachedGuest {
    /// Guest-side results (host-independent by construction).
    pub guest: SimResult,
    /// Host-function call profile accumulated by the adapter.
    pub profile: CallProfile,
    /// The complete post-adapter event stream, replayable into any host
    /// engine set.
    pub events: Vec<TraceEvent>,
    /// Host results already computed from `events`, oldest first; at most
    /// [`HOST_MEMO_CAP`]. They live and die with the stream.
    hosts: Mutex<Vec<(HostSetup, HostRunStats)>>,
}

/// Bound on the host results memoized per cached stream. Setups come from
/// outside the program (`freq=` and other knobs), so the memo evicts its
/// oldest result rather than grow with them.
pub const HOST_MEMO_CAP: usize = 16;

impl CachedGuest {
    pub fn new(guest: SimResult, profile: CallProfile, events: Vec<TraceEvent>) -> Self {
        CachedGuest {
            guest,
            profile,
            events,
            hosts: Mutex::new(Vec::new()),
        }
    }

    /// The result memoized for `setup`.
    pub fn memoized(&self, setup: &HostSetup) -> Option<HostRunStats> {
        let hosts = lock(&self.hosts);
        let (_, stats) = hosts.iter().find(|(s, _)| s == setup)?;
        Some(stats.clone())
    }

    /// Memoizes `stats` for `setup`, evicting the oldest result past
    /// [`HOST_MEMO_CAP`].
    pub fn remember(&self, setup: &HostSetup, stats: &HostRunStats) {
        let mut hosts = lock(&self.hosts);
        if hosts.iter().any(|(s, _)| s == setup) {
            return;
        }
        if hosts.len() == HOST_MEMO_CAP {
            hosts.remove(0);
        }
        hosts.push((setup.clone(), stats.clone()));
    }
}

/// Bound on the trace cache, in events (24 B per `TraceEvent`, so the
/// cached streams together hold at most 192 MB). A stream longer than
/// this reaches the host engines uncached; shorter ones are cached, and
/// the least recently used are evicted once the total would pass it.
pub const TRACE_CACHE_CAP: usize = 8_000_000;

/// Running totals for the trace cache, readable by tests and tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCacheStats {
    /// Profiles served from a cached stream (no guest simulation).
    pub hits: u64,
    /// Profiles that ran the guest simulator.
    pub misses: u64,
    /// Streams inserted into the cache.
    pub insertions: u64,
    /// Streams evicted to keep the cache within [`TRACE_CACHE_CAP`].
    pub evictions: u64,
    /// Events currently resident across all cached streams (at most
    /// [`TRACE_CACHE_CAP`]).
    pub resident_events: u64,
    /// Host-engine results served from a cached stream's memo.
    pub host_memo_hits: u64,
    /// Host engines fed from a cached stream.
    pub host_replays: u64,
}

static HOST_MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static HOST_REPLAYS: AtomicU64 = AtomicU64::new(0);

/// Counts one cache hit's host results: `memo_hits` served from the memo,
/// `replays` computed by feeding the cached stream to fresh engines.
pub(crate) fn count_host_results(memo_hits: usize, replays: usize) {
    HOST_MEMO_HITS.fetch_add(memo_hits as u64, Ordering::Relaxed);
    HOST_REPLAYS.fetch_add(replays as u64, Ordering::Relaxed);
}

/// The memoized guest streams, each weighted by its event count. Its
/// counters are the single source of truth for [`cache_stats`],
/// `/stats`, and `/metrics`.
fn cache() -> MutexGuard<'static, LruCache<GuestSpec, Arc<CachedGuest>>> {
    static CACHE: OnceLock<Mutex<LruCache<GuestSpec, Arc<CachedGuest>>>> = OnceLock::new();
    lock(CACHE.get_or_init(|| {
        // First touch of the trace cache: surface its counters in the
        // metrics registry, read from the same cache `/stats` reports.
        gem5prof_obs::global().register_collector(Box::new(|| {
            use gem5prof_obs::{MetricKind, Sample};
            let cache = cache();
            let mut samples = cache.stats().metric_samples("gem5prof_trace_cache");
            samples.push(Sample::plain(
                "gem5prof_trace_cache_resident_events",
                "events currently resident across all cached guest streams",
                MetricKind::Gauge,
                cache.weight() as f64,
            ));
            samples.push(Sample::plain(
                "gem5prof_trace_cache_host_memo_hits_total",
                "host-engine results served from a cached stream's memo",
                MetricKind::Counter,
                HOST_MEMO_HITS.load(Ordering::Relaxed) as f64,
            ));
            samples.push(Sample::plain(
                "gem5prof_trace_cache_host_replays_total",
                "host engines fed from a cached stream",
                MetricKind::Counter,
                HOST_REPLAYS.load(Ordering::Relaxed) as f64,
            ));
            samples
        }));
        Mutex::new(LruCache::new(TRACE_CACHE_CAP))
    }))
}

pub(crate) fn cache_lookup(spec: &GuestSpec) -> Option<Arc<CachedGuest>> {
    cache().get(spec)
}

pub(crate) fn cache_insert(spec: GuestSpec, entry: CachedGuest) {
    let weight = entry.events.len();
    cache().insert(spec, Arc::new(entry), weight);
}

/// Current trace-cache counters.
pub fn cache_stats() -> TraceCacheStats {
    let cache = cache();
    let snap = cache.stats();
    TraceCacheStats {
        hits: snap.hits,
        misses: snap.misses,
        insertions: snap.insertions,
        evictions: snap.evictions,
        resident_events: cache.weight() as u64,
        host_memo_hits: HOST_MEMO_HITS.load(Ordering::Relaxed),
        host_replays: HOST_REPLAYS.load(Ordering::Relaxed),
    }
}

/// Empties the trace cache and, with each stream, its memoized host
/// results (counters keep running totals).
pub fn clear_cache() {
    cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for n in [1, 2, 3, 4, 7, 16, 400] {
            let got = with_threads(n, || parallel_map(&items, |x| x * x + 1));
            assert_eq!(got, expect, "threads={n}");
        }
    }

    #[test]
    fn parallel_map_handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |x| *x).is_empty());
        assert_eq!(with_threads(8, || parallel_map(&[42], |x| x + 1)), vec![43]);
    }

    #[test]
    fn stealing_covers_skewed_workloads() {
        // One item is vastly heavier than the rest; the other workers
        // must finish the tail via steals, and order must still hold.
        let items: Vec<u64> = (0..64).collect();
        let got = with_threads(4, || {
            parallel_map(&items, |&x| {
                if x == 0 {
                    (0..200_000u64).fold(x, |a, b| a ^ b.wrapping_mul(31))
                } else {
                    x
                }
            })
        });
        assert_eq!(got[1..], items[1..]);
    }

    #[test]
    fn thread_override_wins_over_env() {
        with_threads(3, || assert_eq!(threads(), 3));
    }

    #[test]
    fn parallel_map_is_correct_under_chaos_stalls() {
        // Injected stalls and slow workers perturb scheduling only; the
        // input-order determinism contract must survive them.
        gem5prof_chaos::arm(
            gem5prof_chaos::Plan::new(11)
                .with_prob(0.0)
                .with_point("runner.slow_worker", 0.25)
                .with_point("runner.queue_stall", 0.5),
        );
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let got = with_threads(4, || parallel_map(&items, |x| x * 3 + 1));
        gem5prof_chaos::disarm();
        assert_eq!(got, expect);
        let rep = gem5prof_chaos::report();
        let stalls: u64 = rep
            .iter()
            .filter(|r| r.point.starts_with("runner."))
            .map(|r| r.injected)
            .sum();
        assert!(stalls > 0, "97 items at p=0.25 must inject at least once");
    }
}
