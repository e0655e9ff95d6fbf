//! The compute engine behind the daemon: a bounded admission queue in
//! front of a worker pool, with a tiered (memory + optional disk) result
//! cache and single-flight request coalescing.
//!
//! Request flow for a compute endpoint:
//!
//! ```text
//! poller thread ──► tiered cache (mem ► disk+promote) ──hit──► respond
//!        │ miss
//!        ▼
//! single-flight map ──key already in flight──► join waiter list,
//!        │ leader                              await the shared result
//!        ▼
//! bounded admission queue ──full──► 429 + Retry-After (backpressure)
//!        │
//!        ▼
//! worker pool (N threads) ──► compute (memoized profile pipeline)
//!        │                         │
//!        ▼                         ▼
//! reply channels (one per     warm mem tier, answer leader + every
//! leader/waiter, deadline)    waiter, then write-behind to disk
//! ```
//!
//! **Coalescing protocol.** The first requester to miss on a key
//! becomes its *leader*: it registers the key in the in-flight map and
//! enqueues exactly one job. Every concurrent requester for the same
//! key *joins* instead — its reply sender is appended to the key's
//! waiter list and no job is enqueued, so K identical cold requests
//! cost one compute and K responses. Each requester keeps its own
//! reply channel and its own deadline: a slow follower times out (504)
//! without affecting the others, and the abandoned result still lands
//! in both cache tiers. Completion order is load-bearing: the worker
//! warms the memory tier *before* clearing the in-flight entry, so a
//! requester that finds the map empty and re-checks the cache (under
//! the in-flight lock) can never miss a result that already finished.
//! If the leader's job dies without finishing — an injected panic, a
//! poisoned render — a drop guard clears the entry and drops every
//! waiter's sender, which each waiter observes as a prompt 500, never
//! a hang.
//!
//! Workers answer every waiter *before* the disk write-behind, so even
//! a request that times out against its deadline still warms both
//! tiers for the next identical spec (`finish` is the single exit path
//! for worker-side cache re-checks, fresh computes, and drain-expired
//! jobs alike). The queue is a `sync_channel`, whose `try_send` gives
//! the non-blocking full check the 429 path needs.

use crate::cluster::ring::{HashRing, DEFAULT_VNODES};
use crate::retry::{self, RetryPolicy};
use crate::routes;
use crate::tier::{DiskSnapshot, TieredCache};
use gem5prof::cache::CacheSnapshot;
use gem5prof::figures::Fidelity;
use gem5prof::spec::ExperimentSpec;
use gem5prof_chaos as chaos;
use gem5prof_obs as obs;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of compute: everything a worker needs to produce a response
/// body. Cheap to clone into the queue.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Work {
    /// A paper figure (1..=15) at a fidelity.
    Figure(usize, Fidelity),
    /// A configuration table (1 or 2).
    Table(usize),
    /// A parameterized experiment.
    Experiment(ExperimentSpec),
}

impl Work {
    /// The canonical result-cache key.
    pub(crate) fn key(&self) -> String {
        match self {
            Work::Figure(n, f) => format!(
                "figure:fig{n:02}:{}",
                match f {
                    Fidelity::Quick => "quick",
                    Fidelity::Paper => "paper",
                }
            ),
            Work::Table(n) => format!("table:table{n}"),
            Work::Experiment(spec) => spec.canonical_key(),
        }
    }

    /// Runs the computation and renders the JSON body.
    fn compute(&self) -> String {
        match self {
            Work::Figure(n, f) => routes::figure_json(*n, *f),
            Work::Table(n) => routes::table_json_by_index(*n),
            Work::Experiment(spec) => routes::experiment_json(spec),
        }
    }
}

/// The channel a requester waits on for its job's outcome.
type ReplyTx = Sender<Result<Arc<String>, String>>;

/// A queued job: the work plus the leader's reply channel. Coalesced
/// followers' channels live in the engine's in-flight map, keyed by
/// `key`, until the job finishes.
struct Job {
    work: Work,
    key: String,
    reply: ReplyTx,
    /// When the job entered the admission queue (queue-wait metric).
    enqueued: Instant,
}

/// Engine construction parameters (a subset of `ServeConfig`).
pub(crate) struct EngineConfig {
    /// Worker-thread count.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_cap: usize,
    /// Memory-tier capacity in entries.
    pub cache_cap: usize,
    /// Disk warm tier directory; `None` disables the tier.
    pub cache_dir: Option<PathBuf>,
    /// Peer nodes (addresses) whose warm tiers are consulted before a
    /// cold compute — cluster mode. Empty disables peer fetch.
    pub peers: Vec<String>,
    /// Test hook: artificial pause before each job. Zero in production.
    pub worker_delay: Duration,
}

impl EngineConfig {
    /// A small all-default config for unit tests.
    #[cfg(test)]
    fn test(workers: usize, queue_cap: usize, cache_cap: usize) -> EngineConfig {
        EngineConfig {
            workers,
            queue_cap,
            cache_cap,
            cache_dir: None,
            peers: Vec::new(),
            worker_delay: Duration::ZERO,
        }
    }
}

/// Request-path instrumentation, registered in the process-wide metrics
/// registry. Names are interned there, so every engine in the process
/// shares the same series.
struct EngineMetrics {
    queue_wait: Arc<obs::Histogram>,
    compute: Arc<obs::Histogram>,
    lookup_hit: Arc<obs::Histogram>,
    lookup_miss: Arc<obs::Histogram>,
}

impl EngineMetrics {
    fn new() -> Self {
        let r = obs::global();
        let b = obs::metrics::duration_buckets();
        EngineMetrics {
            queue_wait: r.histogram(
                "served_queue_wait_seconds",
                "time a job spent in the admission queue before a worker picked it up",
                b,
            ),
            compute: r.histogram(
                "served_compute_seconds",
                "time a worker spent computing one job",
                b,
            ),
            lookup_hit: r.histogram_with(
                "served_cache_lookup_seconds",
                "result-cache lookup latency by outcome",
                b,
                &[("outcome", "hit")],
            ),
            lookup_miss: r.histogram_with(
                "served_cache_lookup_seconds",
                "result-cache lookup latency by outcome",
                b,
                &[("outcome", "miss")],
            ),
        }
    }
}

/// Outcome of a bounded enqueue attempt (the caller holds the reply
/// receiver, so this carries no channel).
enum Enqueue {
    Queued,
    Busy,
    Draining,
}

/// Outcome of submitting work to the engine.
pub(crate) enum Submission {
    /// Served from the result cache.
    Hit(Arc<String>),
    /// Enqueued (or coalesced onto an in-flight job); await the
    /// receiver (subject to the caller's deadline).
    Pending(Receiver<Result<Arc<String>, String>>),
    /// Admission queue full — answer 429.
    Busy,
    /// Engine is draining — answer 503.
    Draining,
}

/// Counters the `/stats` endpoint reports for the serving layer itself.
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    /// Requests parsed (any route, any outcome).
    pub requests: AtomicU64,
    /// Responses by status: 200/400/404/405/429/500/503/504/other.
    pub st_200: AtomicU64,
    pub st_400: AtomicU64,
    pub st_404: AtomicU64,
    pub st_405: AtomicU64,
    pub st_429: AtomicU64,
    pub st_500: AtomicU64,
    pub st_503: AtomicU64,
    pub st_504: AtomicU64,
    pub st_other: AtomicU64,
}

impl ServerStats {
    /// `/metrics` samples, read from the same atomics `/stats` reports:
    /// `gem5prof_served_requests_total` plus one
    /// `gem5prof_served_responses_total{status=…}` series per bucket.
    pub fn metric_samples(&self) -> Vec<obs::Sample> {
        let mut v = vec![obs::Sample::plain(
            "gem5prof_served_requests_total",
            "HTTP requests parsed (any route, any outcome)",
            obs::MetricKind::Counter,
            self.requests.load(Ordering::Relaxed) as f64,
        )];
        for (code, counter) in [
            ("200", &self.st_200),
            ("400", &self.st_400),
            ("404", &self.st_404),
            ("405", &self.st_405),
            ("429", &self.st_429),
            ("500", &self.st_500),
            ("503", &self.st_503),
            ("504", &self.st_504),
            ("other", &self.st_other),
        ] {
            v.push(obs::Sample {
                name: "gem5prof_served_responses_total".into(),
                help: "HTTP responses by status code".into(),
                kind: obs::MetricKind::Counter,
                labels: vec![("status".into(), code.into())],
                value: counter.load(Ordering::Relaxed) as f64,
            });
        }
        v
    }

    /// Records one response with the given status.
    pub fn count(&self, status: u16) {
        let slot = match status {
            200 => &self.st_200,
            400 => &self.st_400,
            404 => &self.st_404,
            405 => &self.st_405,
            429 => &self.st_429,
            500 => &self.st_500,
            503 => &self.st_503,
            504 => &self.st_504,
            _ => &self.st_other,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }
}

/// Corrupts a rendered body the way a torn buffer would: half the bytes
/// (on a char boundary) plus a marker, guaranteed not to parse as JSON.
fn poisoned(body: &str) -> String {
    let mut cut = body.len() / 2;
    while cut > 0 && !body.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}<<chaos-poison>>", &body[..cut])
}

/// Monotone engine id, so per-engine metric series from multiple
/// engines in one process (tests, soak episodes) stay distinguishable.
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// How many ring-ordered peers a cold miss consults before computing.
/// The first candidate is the key's owner among the peers — i.e. the
/// node that owned the key before this one did, which is where a
/// migrated key's warm entry lives; the second covers one further
/// membership change.
const PEER_FETCH_CANDIDATES: usize = 2;

/// Per-attempt peer-fetch timeout. A warm-tier read is a cache lookup
/// plus one round trip; anything slower than this is cheaper to
/// recompute than to wait for.
const PEER_FETCH_TIMEOUT: Duration = Duration::from_secs(2);

/// The peer warm tiers a node may fetch from, with the ring that orders
/// them per key. Set at startup (`--peers`) or pushed by the cluster
/// router (`POST /peers`) once every node's address is known.
struct PeerSet {
    addrs: Vec<String>,
    ring: HashRing,
}

/// Peer-fetch outcome counters (`/stats` + `/metrics`).
#[derive(Debug, Default)]
struct PeerStats {
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
}

/// Point-in-time peer-fetch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PeerSnapshot {
    /// Cold misses answered by a peer's warm tier (each one is a
    /// compute avoided fleet-wide).
    pub hits: u64,
    /// Peer lookups that found no usable entry anywhere.
    pub misses: u64,
    /// Peer lookups that failed (transport error, draining peer,
    /// invalid body) — the node fell back to computing.
    pub errors: u64,
}

impl PeerSet {
    fn build(addrs: Vec<String>) -> Option<PeerSet> {
        if addrs.is_empty() {
            None
        } else {
            let ring = HashRing::new(&addrs, DEFAULT_VNODES);
            Some(PeerSet { addrs, ring })
        }
    }

    /// The first [`PEER_FETCH_CANDIDATES`] peers in ring order for `key`.
    fn candidates(&self, key: &str) -> Vec<String> {
        self.ring
            .successors(key)
            .take(PEER_FETCH_CANDIDATES)
            .map(|i| self.addrs[i].clone())
            .collect()
    }
}

/// The admission queue + worker pool + tiered result cache +
/// single-flight map.
pub(crate) struct Engine {
    /// Queue sender; taken (dropped) on drain so workers exit.
    tx: Mutex<Option<SyncSender<Job>>>,
    /// Rendered responses keyed by canonical spec: memory tier over an
    /// optional disk warm tier.
    cache: TieredCache,
    /// Single-flight map: canonical key → reply senders of the
    /// coalesced followers (the leader's sender rides in its [`Job`]).
    /// An entry exists exactly while one job for the key is queued or
    /// running.
    inflight: Mutex<HashMap<String, Vec<ReplyTx>>>,
    /// Peer warm tiers consulted before a cold compute (cluster mode);
    /// `None` when the node has no peers.
    peers: Mutex<Option<PeerSet>>,
    /// Peer-fetch outcome counters.
    peer_stats: PeerStats,
    /// Actual compute executions (cache re-check hits excluded).
    computes: AtomicU64,
    /// Requests that joined an in-flight key instead of enqueuing.
    coalesced: AtomicU64,
    /// Jobs waiting in the queue.
    depth: AtomicUsize,
    /// Jobs queued or running.
    in_flight: AtomicUsize,
    /// Queue capacity (for `/stats`).
    queue_cap: usize,
    /// Worker count (for `/stats`).
    workers: usize,
    /// This engine's id (labels its per-engine metric series).
    id: u64,
    /// Worker threads, joined on drain.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Request-path histograms (shared series in the global registry).
    metrics: EngineMetrics,
    /// Completion hook for the readiness core: called whenever a job
    /// finishes (any outcome) so the poller re-checks pending
    /// receivers promptly. `None` until `serve` has spawned the core
    /// (engine unit tests, which block on the receiver, never set it).
    waker: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Engine {
    /// Starts `cfg.workers` worker threads behind a queue of
    /// `cfg.queue_cap`, over a tiered cache of `cfg.cache_cap` memory
    /// entries (plus the disk tier when `cfg.cache_dir` is set).
    pub fn start(cfg: EngineConfig) -> Arc<Engine> {
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let engine = Arc::new(Engine {
            tx: Mutex::new(Some(tx)),
            cache: TieredCache::new(cfg.cache_cap, cfg.cache_dir.as_deref()),
            inflight: Mutex::new(HashMap::new()),
            peers: Mutex::new(PeerSet::build(cfg.peers)),
            peer_stats: PeerStats::default(),
            computes: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            queue_cap: cfg.queue_cap,
            workers: cfg.workers,
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            handles: Mutex::new(Vec::new()),
            metrics: EngineMetrics::new(),
            waker: Mutex::new(None),
        });
        // Surface the result cache's counters in `/metrics` from the
        // same counters the `/stats` endpoint reads. A `Weak` keeps the
        // forever-lived registry from pinning drained engines; the
        // `engine` label keeps series from concurrent engines apart.
        let weak: Weak<Engine> = Arc::downgrade(&engine);
        obs::global().register_collector(Box::new(move || {
            let Some(engine) = weak.upgrade() else {
                return Vec::new();
            };
            engine.metric_samples()
        }));
        let worker_delay = cfg.worker_delay;
        let mut handles = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let rx = Arc::clone(&rx);
            let engine_w = Arc::clone(&engine);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("served-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing.
                        let job = match rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                            Ok(job) => job,
                            Err(_) => break, // sender dropped: drain complete
                        };
                        // The whole job scope is panic-isolated: a panic
                        // anywhere inside still decrements `in_flight`
                        // (drop guard in `process`), clears the key's
                        // single-flight entry (leader guard), and drops
                        // the reply senders — which the leader and every
                        // coalesced follower observe as a 500 — and the
                        // worker thread survives to take the next job,
                        // so the pool never shrinks permanently.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                engine_w.process(job, worker_delay)
                            }));
                        if let Err(payload) = outcome {
                            if chaos::is_chaos_panic(payload.as_ref()) {
                                // Two injection points unwind to here;
                                // credit the one that actually fired.
                                let leader = payload
                                    .downcast_ref::<&str>()
                                    .is_some_and(|m| m.contains("coalesced-leader"));
                                chaos::recovered(if leader {
                                    "engine.leader_panic"
                                } else {
                                    "engine.worker_panic"
                                });
                            }
                            // `finish` never ran (the panic unwound past
                            // it); the dropped reply senders are the
                            // outcome. Wake the core so pending
                            // connections observe the disconnect now.
                            engine_w.wake();
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        *engine.handles.lock().unwrap_or_else(|e| e.into_inner()) = handles;
        engine
    }

    /// Per-engine metric samples: memory-tier counters, single-flight
    /// counters, and (when armed) disk-tier counters, all labeled with
    /// this engine's id.
    fn metric_samples(&self) -> Vec<obs::Sample> {
        let id = self.id.to_string();
        let snap = self.cache.mem_snapshot();
        let mut samples = snap.metric_samples("gem5prof_result_cache");
        let gauge = |name: &str, help: &str, v: f64| obs::Sample {
            name: name.into(),
            help: help.into(),
            kind: obs::MetricKind::Gauge,
            labels: Vec::new(),
            value: v,
        };
        let counter = |name: &str, help: &str, v: f64| obs::Sample {
            name: name.into(),
            help: help.into(),
            kind: obs::MetricKind::Counter,
            labels: Vec::new(),
            value: v,
        };
        samples.push(gauge(
            "gem5prof_result_cache_entries",
            "rendered responses currently resident in the memory tier",
            self.cache.len() as f64,
        ));
        samples.push(gauge(
            "gem5prof_result_cache_capacity",
            "memory-tier capacity in entries",
            self.cache.capacity() as f64,
        ));
        samples.push(counter(
            "gem5prof_result_cache_computes_total",
            "jobs that actually computed (cache re-check hits excluded)",
            self.computes.load(Ordering::Relaxed) as f64,
        ));
        samples.push(counter(
            "gem5prof_result_cache_coalesced_total",
            "requests coalesced onto an already-in-flight identical key",
            self.coalesced.load(Ordering::Relaxed) as f64,
        ));
        let peer = self.peer_view();
        for (outcome, v) in [
            ("hit", peer.hits),
            ("miss", peer.misses),
            ("error", peer.errors),
        ] {
            samples.push(obs::Sample {
                name: "gem5prof_cluster_peer_fetch_total".into(),
                help: "peer warm-tier fetches before a cold compute, by outcome".into(),
                kind: obs::MetricKind::Counter,
                labels: vec![("outcome".into(), outcome.into())],
                value: v as f64,
            });
        }
        if let Some((disk, entries)) = self.cache.disk_view() {
            for (name, help, v) in [
                (
                    "gem5prof_disk_cache_hits_total",
                    "disk-tier lookups that served (and promoted) an entry",
                    disk.hits,
                ),
                (
                    "gem5prof_disk_cache_misses_total",
                    "disk-tier lookups that found no usable entry",
                    disk.misses,
                ),
                (
                    "gem5prof_disk_cache_writes_total",
                    "entries persisted by write-behind",
                    disk.writes,
                ),
                (
                    "gem5prof_disk_cache_write_errors_total",
                    "failed write-behinds (entry stays memory-only)",
                    disk.write_errors,
                ),
                (
                    "gem5prof_disk_cache_corrupt_total",
                    "disk entries ignored for failing validation",
                    disk.corrupt,
                ),
                (
                    "gem5prof_disk_cache_stale_total",
                    "disk entries ignored for an older schema version",
                    disk.stale,
                ),
            ] {
                samples.push(counter(name, help, v as f64));
            }
            samples.push(gauge(
                "gem5prof_disk_cache_entries",
                "entry files resident in the cache directory",
                entries as f64,
            ));
        }
        for s in &mut samples {
            s.labels.push(("engine".into(), id.clone()));
        }
        samples
    }

    /// Handles one dequeued job on a worker thread. Runs inside the
    /// worker's `catch_unwind`; the drop guards keep `in_flight` and
    /// the single-flight map honest even if this panics mid-job.
    fn process(&self, job: Job, worker_delay: Duration) {
        struct InFlightGuard<'a>(&'a AtomicUsize);
        impl Drop for InFlightGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let _in_flight = InFlightGuard(&self.in_flight);
        // Leader guard: if this job unwinds before `finish` runs, the
        // key's in-flight entry is cleared and every follower's sender
        // dropped — each follower observes a prompt disconnect (500),
        // never a wait on a job nobody owns. Defused on the `finish`
        // path, which clears the entry itself.
        struct LeaderGuard<'a> {
            engine: &'a Engine,
            key: &'a str,
            armed: bool,
        }
        impl Drop for LeaderGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    drop(self.engine.take_waiters(self.key));
                }
            }
        }
        let mut leader = LeaderGuard {
            engine: self,
            key: &job.key,
            armed: true,
        };
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.metrics
            .queue_wait
            .observe_duration(job.enqueued.elapsed());
        // Worker-side re-check against the full tiered cache. This
        // fires only on races (an entry that landed between the
        // submit-time lookup and the inflight registration, or a disk
        // entry written by another process); the hit flows through the
        // same `finish` path as a fresh compute, so both tiers are
        // (re)warmed and every waiter is answered.
        if let Some(body) = self.cache.get(&job.key) {
            leader.armed = false;
            self.finish(&job.key, &job.reply, Ok(body));
            return;
        }
        // Peer warm-tier fetch (cluster mode): before paying for a cold
        // compute, ask the peers that owned this key before we did. A
        // hit flows through the same `finish` path as a compute, so it
        // answers every coalesced waiter and warms *both* local tiers
        // (promotion) — the fleet recomputes a migrated key zero times.
        if let Some(body) = self.peer_fetch(&job.key) {
            leader.armed = false;
            self.finish(&job.key, &job.reply, Ok(body));
            return;
        }
        if chaos::inject("engine.worker_panic") {
            // Deliberately outside the compute `catch_unwind`: proves the
            // worker loop survives panics on its own paths too.
            panic!("chaos: injected worker panic");
        }
        if let Some(d) = chaos::delay("engine.job_delay") {
            std::thread::sleep(d);
            chaos::recovered("engine.job_delay");
        }
        if !worker_delay.is_zero() {
            std::thread::sleep(worker_delay);
        }
        if chaos::inject("engine.leader_panic") {
            // The coalesced-leader failure mode: the job dies owning the
            // key, *after* the delay window in which followers piled
            // onto it. The leader guard must fail every one of them
            // fast.
            panic!("chaos: injected coalesced-leader panic");
        }
        self.computes.fetch_add(1, Ordering::Relaxed);
        let compute_started = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = obs::span("serve_compute");
            if chaos::inject("engine.job_panic") {
                panic!("chaos: injected job panic");
            }
            let body = job.work.compute();
            if chaos::inject("engine.job_poison") {
                poisoned(&body)
            } else {
                body
            }
        }));
        self.metrics
            .compute
            .observe_duration(compute_started.elapsed());
        let reply = match result {
            Ok(body) => {
                // Validate before caching: every compute endpoint renders
                // JSON, so a body that does not parse is a torn/poisoned
                // result and must never become a cache entry other
                // requests would then be served. The parse only runs with
                // chaos armed — production pays nothing.
                if chaos::enabled() && crate::minjson::parse(&body).is_err() {
                    chaos::recovered("engine.job_poison");
                    Err(format!(
                        "poisoned result for `{}` detected and discarded",
                        job.key
                    ))
                } else {
                    Ok(Arc::new(body))
                }
            }
            Err(payload) => {
                if chaos::is_chaos_panic(payload.as_ref()) {
                    chaos::recovered("engine.job_panic");
                }
                Err(format!("computation for `{}` panicked", job.key))
            }
        };
        leader.armed = false;
        self.finish(&job.key, &job.reply, reply);
    }

    /// The single completion path for every job outcome: warm the
    /// memory tier, clear the single-flight entry, answer the leader
    /// and every coalesced waiter, then write-behind to the disk tier.
    ///
    /// Ordering is the coalescing protocol's backbone:
    /// 1. memory-tier insert *before* clearing the in-flight entry —
    ///    a requester that misses the map re-checks the cache under the
    ///    in-flight lock, so it either joins the entry or hits the tier;
    /// 2. replies *before* the disk write — the filesystem is never on
    ///    a requester's critical path (requesters may already be gone:
    ///    a 504'd deadline still warms both tiers for the next spec).
    fn finish(&self, key: &str, leader_reply: &ReplyTx, outcome: Result<Arc<String>, String>) {
        if let Ok(body) = &outcome {
            self.cache.insert_mem(key, body);
        }
        let waiters = self.take_waiters(key);
        let _ = leader_reply.send(outcome.clone()); // requester may have timed out
        for w in &waiters {
            let _ = w.send(outcome.clone());
        }
        if let Ok(body) = &outcome {
            self.cache.write_behind(key, body);
        }
        self.wake();
    }

    /// Serves `key` from the local tiers only — never computes, never
    /// enqueues, never asks peers. This is the `POST /peek` handler: the
    /// read side of the peer warm-tier protocol. Because it cannot
    /// recurse into another peer fetch, two nodes missing the same key
    /// can never chase each other.
    pub fn peek(&self, key: &str) -> Option<Arc<String>> {
        self.cache.get(&key.to_string())
    }

    /// Installs the readiness core's completion hook. Every job
    /// outcome — reply sent, panic, poison — ends with one call, so a
    /// pending connection is re-polled promptly instead of waiting
    /// for the poller's idle tick.
    pub fn set_waker(&self, f: Box<dyn Fn() + Send + Sync>) {
        *self.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(f);
    }

    fn wake(&self) {
        if let Some(f) = &*self.waker.lock().unwrap_or_else(|e| e.into_inner()) {
            f();
        }
    }

    /// Replaces the peer set (pushed by the cluster router once every
    /// node's ephemeral address is known, and on membership changes).
    pub fn set_peers(&self, addrs: Vec<String>) {
        *self.peers.lock().unwrap_or_else(|e| e.into_inner()) = PeerSet::build(addrs);
    }

    /// Peer-fetch counters.
    pub fn peer_view(&self) -> PeerSnapshot {
        PeerSnapshot {
            hits: self.peer_stats.hits.load(Ordering::Relaxed),
            misses: self.peer_stats.misses.load(Ordering::Relaxed),
            errors: self.peer_stats.errors.load(Ordering::Relaxed),
        }
    }

    /// Asks up to [`PEER_FETCH_CANDIDATES`] ring-ordered peers for
    /// `key`'s rendered body via `POST /peek`. Returns the first valid
    /// answer; any transport error, draining peer, or malformed body
    /// falls through to the next candidate and ultimately to a local
    /// compute. Bodies are validated (well-formed JSON, no poison
    /// marker) so a faulty peer can cost a recompute, never propagate a
    /// bad entry across the fleet.
    fn peer_fetch(&self, key: &str) -> Option<Arc<String>> {
        let candidates = self
            .peers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|p| p.candidates(key))?;
        if chaos::inject("cluster.peer_fetch") {
            // Injected partition: the whole peer tier is unreachable for
            // this miss. Surviving it means computing locally.
            self.peer_stats.errors.fetch_add(1, Ordering::Relaxed);
            chaos::recovered("cluster.peer_fetch");
            return None;
        }
        let policy = RetryPolicy {
            max_retries: 1,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            seed: self.id,
            timeout: PEER_FETCH_TIMEOUT,
        };
        let _span = obs::span("peer_fetch");
        for (i, addr) in candidates.iter().enumerate() {
            let mut conn = None;
            let out = retry::request_with_retry(
                &mut conn,
                addr,
                "POST",
                "/peek",
                Some(key),
                &policy,
                HashRing::key_position(key) ^ i as u64,
            );
            match out.result {
                Ok((200, body)) => {
                    if crate::minjson::parse(&body).is_ok() && !body.contains("<<chaos-poison>>") {
                        self.peer_stats.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(Arc::new(body));
                    }
                    self.peer_stats.errors.fetch_add(1, Ordering::Relaxed);
                }
                Ok((404, _)) => {
                    self.peer_stats.misses.fetch_add(1, Ordering::Relaxed);
                }
                Ok(_) | Err(_) => {
                    self.peer_stats.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        None
    }

    /// Removes and returns `key`'s coalesced waiter list.
    fn take_waiters(&self, key: &str) -> Vec<ReplyTx> {
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key)
            .unwrap_or_default()
    }

    /// Submits work: tiered cache lookup, then single-flight join or
    /// bounded enqueue.
    pub fn submit(&self, work: Work) -> Submission {
        let key = work.key();
        let lookup_started = Instant::now();
        let hit = self.cache.get(&key);
        match &hit {
            Some(_) => &self.metrics.lookup_hit,
            None => &self.metrics.lookup_miss,
        }
        .observe_duration(lookup_started.elapsed());
        if let Some(body) = hit {
            return Submission::Hit(body);
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(waiters) = inflight.get_mut(&key) {
            // Join: one compute is already queued or running for this
            // key; await its result on our own channel (and our own
            // deadline).
            waiters.push(reply_tx);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Submission::Pending(reply_rx);
        }
        // Not in flight. Re-check the memory tier while holding the
        // in-flight lock: completion warms the tier *before* clearing
        // the map entry, so a finish between our lookup above and this
        // lock cannot slip past both checks.
        if let Some(body) = self.cache.get_mem(&key) {
            return Submission::Hit(body);
        }
        // Become the leader: enqueue exactly one job, and register the
        // key (still under the in-flight lock, so no follower can
        // observe a half-registered leader, and a Busy queue never
        // leaves a stale entry behind).
        match self.enqueue(work, &key, reply_tx) {
            Enqueue::Queued => {
                inflight.insert(key, Vec::new());
                Submission::Pending(reply_rx)
            }
            Enqueue::Busy => Submission::Busy,
            Enqueue::Draining => Submission::Draining,
        }
    }

    /// Bounded enqueue of one job (the 429 backpressure point).
    fn enqueue(&self, work: Work, key: &str, reply: ReplyTx) -> Enqueue {
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(tx) = guard.as_ref() else {
            return Enqueue::Draining;
        };
        // Count before the send so `depth`/`in_flight` never under-read.
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(Job {
            work,
            key: key.to_string(),
            reply,
            enqueued: Instant::now(),
        }) {
            Ok(()) => Enqueue::Queued,
            Err(TrySendError::Full(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                self.in_flight.fetch_sub(1, Ordering::Relaxed);
                Enqueue::Busy
            }
            Err(TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                self.in_flight.fetch_sub(1, Ordering::Relaxed);
                Enqueue::Draining
            }
        }
    }

    /// Drains the engine: stops admitting, lets queued and running jobs
    /// complete, joins the workers.
    pub fn drain(&self) {
        drop(self.tx.lock().unwrap_or_else(|e| e.into_inner()).take());
        let handles: Vec<_> = self
            .handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Jobs waiting in the queue right now.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Jobs queued or running right now.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// This engine's metric-label id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Jobs that actually computed.
    pub fn computes(&self) -> u64 {
        self.computes.load(Ordering::Relaxed)
    }

    /// Requests coalesced onto in-flight keys.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Snapshot + length + capacity of the memory tier.
    pub fn cache_view(&self) -> (CacheSnapshot, usize, usize) {
        (
            self.cache.mem_snapshot(),
            self.cache.len(),
            self.cache.capacity(),
        )
    }

    /// Disk-tier counters + resident entry files, when armed.
    pub fn disk_view(&self) -> Option<(DiskSnapshot, u64)> {
        self.cache.disk_view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn await_body(sub: Submission) -> Arc<String> {
        match sub {
            Submission::Hit(body) => body,
            Submission::Pending(rx) => rx
                .recv_timeout(Duration::from_secs(30))
                .expect("worker reply")
                .expect("compute ok"),
            Submission::Busy => panic!("unexpected 429"),
            Submission::Draining => panic!("unexpected 503"),
        }
    }

    #[test]
    fn second_submission_hits_the_cache() {
        let engine = Engine::start(EngineConfig::test(2, 4, 16));
        let first = await_body(engine.submit(Work::Table(1)));
        assert!(first.contains("Table"), "body: {first}");
        match engine.submit(Work::Table(1)) {
            Submission::Hit(body) => assert_eq!(body, first),
            _ => panic!("expected a cache hit on the second submission"),
        }
        assert_eq!(engine.computes(), 1);
        engine.drain();
    }

    #[test]
    fn identical_concurrent_submissions_coalesce_to_one_compute() {
        let mut cfg = EngineConfig::test(1, 8, 16);
        cfg.worker_delay = Duration::from_millis(150);
        let engine = Engine::start(cfg);
        let leader = engine.submit(Work::Table(2));
        assert!(matches!(leader, Submission::Pending(_)));
        // While the single worker sleeps in the delay, identical
        // submissions must join the in-flight key, not enqueue.
        let followers: Vec<_> = (0..3).map(|_| engine.submit(Work::Table(2))).collect();
        assert_eq!(engine.coalesced(), 3);
        let body = await_body(leader);
        for f in followers {
            assert_eq!(await_body(f), body);
        }
        assert_eq!(engine.computes(), 1, "one compute for four submissions");
        engine.drain();
    }

    #[test]
    fn full_queue_reports_busy() {
        let mut cfg = EngineConfig::test(1, 1, 16);
        cfg.worker_delay = Duration::from_millis(300);
        let engine = Engine::start(cfg);
        // Distinct keys so coalescing cannot absorb the burst: one job
        // occupies the worker, one fills the queue, the next bounces.
        let a = engine.submit(Work::Table(1));
        std::thread::sleep(Duration::from_millis(50)); // let the worker dequeue
        let b = engine.submit(Work::Table(2));
        let c = engine.submit(Work::Figure(1, Fidelity::Quick));
        assert!(matches!(a, Submission::Pending(_)));
        assert!(matches!(b, Submission::Pending(_)));
        assert!(
            matches!(c, Submission::Busy),
            "third submission must bounce"
        );
        drop((a, b));
        engine.drain();
    }
}
