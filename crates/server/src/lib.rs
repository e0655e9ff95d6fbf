//! `gem5prof-served` — a std-only experiment-serving daemon.
//!
//! Turns the repository's batch experiment engine into long-lived
//! infrastructure: every figure and table of the paper, plus arbitrary
//! parameterized experiments, served over HTTP/1.1 from a shared,
//! memoizing process.
//!
//! ```text
//! GET  /healthz                    liveness + drain state
//! GET  /stats                      queue, result-cache and trace-cache counters
//! GET  /metrics                    Prometheus text exposition (gem5prof-obs registry)
//! GET  /profile                    self-profiler span table (JSON + collapsed stacks)
//! GET  /profile/history            continuous-profiling snapshot index
//! GET  /profile/diff               per-span self-time delta + hot-span regression gate
//! POST /profile/snapshot           capture a window into the profstore ring
//! POST /profile/bless              mark a snapshot as the regression baseline
//! GET  /figures/fig01..fig17       one figure (?fidelity=quick|paper)
//! GET  /tables/table1|table2       configuration tables
//! POST /experiments                parameterized spec (platform, cpu, workload, knobs)
//! ```
//!
//! Requests flow through a bounded admission queue (backpressure: 429 +
//! `Retry-After` when full) onto a worker pool; results land in an LRU
//! cache keyed by canonicalized spec, layered on top of the guest-trace
//! memoization in `gem5prof::runner`. Graceful shutdown drains in-flight
//! work while rejecting new requests with 503.
//!
//! Every connection is served by one readiness-loop thread (the `core`
//! module) over `epoll`/`poll(2)`; computes run on the engine's worker
//! pool. Everything is std-only, consistent with the offline substrate
//! (`testkit`, `minjson`).

pub mod cluster;
pub mod http;
pub mod minjson;
pub mod poll;
pub mod retry;

mod core;
mod engine;
mod routes;
mod tier;

use crate::core::{CoreConfig, CoreHandle, Dispatch, Service};
use engine::{Engine, EngineConfig, ServerStats};
use gem5prof_chaos as chaos;
use http::Request;
use routes::Shared;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default idle keep-alive / slow-header deadline of the readiness
/// core, for the daemon ([`ServeConfig::read_timeout`]) and the cluster
/// router alike: a connection with no complete request for this long
/// is closed.
pub(crate) const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads; `0` means [`gem5prof::threads`].
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue_cap: usize,
    /// Result-cache memory-tier capacity (entries).
    pub cache_cap: usize,
    /// Disk warm tier for the result cache: rendered responses persist
    /// here (write-behind) and survive restarts. `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Per-request deadline (queue wait + compute).
    pub deadline: Duration,
    /// Test hook: artificial delay before each job, for deterministic
    /// queue-full conditions in integration tests. Zero in production.
    pub worker_delay: Duration,
    /// Stable identity reported in `/healthz` (and recorded by the
    /// cluster router). `None` derives `node-<pid>`.
    pub node_id: Option<String>,
    /// Peer daemon addresses (`host:port`) whose disk warm tiers this
    /// node may probe (`POST /peek`) before computing a cold key.
    /// Usually empty at startup and pushed later via `POST /peers`.
    pub peers: Vec<String>,
    /// Continuous profiling store directory: span/metrics snapshots
    /// persist here as a bounded ring and survive restarts. `None`
    /// disables the `/profile/history|diff|snapshot|bless` routes.
    pub profile_dir: Option<PathBuf>,
    /// Profstore ring capacity (snapshots kept, memory and disk).
    pub profile_cap: usize,
    /// Connection cap for the readiness core: accepts beyond it get an
    /// immediate canned 503 + `Retry-After`.
    pub max_conns: usize,
    /// Idle / slow-header deadline. Partial request bytes do NOT
    /// extend it, so drip-fed headers (slow loris) die on schedule.
    pub read_timeout: Duration,
    /// Stalled-reader deadline: a client that stops draining its
    /// response is disconnected once writes make no progress for this
    /// long.
    pub write_timeout: Duration,
    /// Socket send-buffer override for accepted connections. Tests and
    /// benches force tiny buffers to hit write deadlines
    /// deterministically; `None` (production) keeps kernel defaults.
    pub sndbuf: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7005".into(),
            workers: 0,
            queue_cap: 64,
            cache_cap: 256,
            cache_dir: None,
            deadline: Duration::from_secs(30),
            worker_delay: Duration::ZERO,
            node_id: None,
            peers: Vec::new(),
            profile_dir: None,
            profile_cap: 64,
            max_conns: 4096,
            read_timeout: IDLE_TIMEOUT,
            write_timeout: Duration::from_secs(10),
            sndbuf: None,
        }
    }
}

/// A running daemon. Dropping the handle leaves the daemon running
/// (threads are detached from the handle's lifetime); call
/// [`shutdown`](ServerHandle::shutdown) for a graceful drain.
pub struct ServerHandle {
    addr: SocketAddr,
    draining: Arc<AtomicBool>,
    engine: Arc<Engine>,
    core: CoreHandle,
    profstore: Option<Arc<gem5prof_profstore::ProfStore>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the peer set the engine probes before cold computes.
    /// The cluster router calls this (via `POST /peers`) once every
    /// member's ephemeral address is known.
    pub fn set_peers(&self, addrs: Vec<String>) {
        self.engine.set_peers(addrs);
    }

    /// Graceful shutdown: stop accepting, answer in-progress
    /// connections with 503, drain queued and running jobs, join the
    /// workers. Returns when the engine is idle.
    pub fn shutdown(mut self) {
        self.draining.store(true, Ordering::SeqCst);
        // Nudge the core so it observes the flag now: it stops
        // accepting, answers buffered requests with 503, and holds
        // only connections still waiting on the engine.
        self.core.wake();
        // Resolves every in-flight compute; each completion wakes the
        // core, which unwinds its last pending connections.
        self.engine.drain();
        self.core.join();
        // Land any queued profile segments before reporting "drained":
        // a restarted daemon must see every snapshot captured before
        // the shutdown.
        if let Some(store) = &self.profstore {
            store.flush();
        }
    }
}

/// Binds the listener and starts the readiness core + workers. Returns
/// once the socket is listening — the daemon then runs on background
/// threads.
pub fn serve(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let workers = if cfg.workers == 0 {
        gem5prof::threads()
    } else {
        cfg.workers
    };
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    let engine = Engine::start(EngineConfig {
        workers,
        queue_cap: cfg.queue_cap,
        cache_cap: cfg.cache_cap,
        cache_dir: cfg.cache_dir.clone(),
        worker_delay: cfg.worker_delay,
        peers: cfg.peers.clone(),
    });
    let draining = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    // Surface request/response counters in `/metrics` from the same
    // atomics `/stats` reads. The Arc (not a Weak) keeps a shut-down
    // server's counts visible, so the summed series stays monotone.
    let stats_m = Arc::clone(&stats);
    gem5prof_obs::global().register_collector(Box::new(move || stats_m.metric_samples()));
    // The continuous profiling store is best-effort infrastructure: an
    // unusable directory disables it with a warning instead of failing
    // the daemon, mirroring the disk warm tier.
    let profstore = cfg.profile_dir.as_ref().and_then(|dir| {
        match gem5prof_profstore::ProfStore::open(dir, cfg.profile_cap) {
            Ok(store) => {
                let ps = store.stats_handle();
                gem5prof_obs::global().register_collector(Box::new(move || {
                    use gem5prof_obs::{MetricKind, Sample};
                    let s = ps.snapshot();
                    vec![
                        Sample::plain(
                            "gem5prof_profstore_snapshots_total",
                            "profile snapshots captured",
                            MetricKind::Counter,
                            s.snapshots as f64,
                        ),
                        Sample::plain(
                            "gem5prof_profstore_writes_total",
                            "profile segments persisted",
                            MetricKind::Counter,
                            s.writes as f64,
                        ),
                        Sample::plain(
                            "gem5prof_profstore_write_errors_total",
                            "profile segment writes that failed",
                            MetricKind::Counter,
                            s.write_errors as f64,
                        ),
                        Sample::plain(
                            "gem5prof_profstore_segments_corrupt_total",
                            "profile segments skipped at open for corruption",
                            MetricKind::Counter,
                            s.corrupt as f64,
                        ),
                        Sample::plain(
                            "gem5prof_profstore_segments_stale_total",
                            "profile segments skipped at open for stale versions",
                            MetricKind::Counter,
                            s.stale as f64,
                        ),
                    ]
                }));
                Some(store)
            }
            Err(e) => {
                eprintln!(
                    "gem5prof-served: profile dir {} unusable ({e}); \
                     continuous profiling disabled",
                    dir.display()
                );
                None
            }
        }
    });
    let shared = Arc::new(Shared {
        engine: Arc::clone(&engine),
        stats,
        draining: Arc::clone(&draining),
        deadline: cfg.deadline,
        started: Instant::now(),
        node_id: cfg
            .node_id
            .clone()
            .unwrap_or_else(|| format!("node-{}", std::process::id())),
        profstore: profstore.clone(),
    });

    let service: Arc<dyn Service> = Arc::new(ServedService { shared });
    let core = core::spawn(
        listener,
        service,
        CoreConfig {
            name: "served",
            max_conns: cfg.max_conns,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
            sndbuf: cfg.sndbuf,
            // The served daemon never offloads: blocking work runs on
            // the engine's worker pool.
            offload_threads: 0,
        },
    )?;
    // Completed jobs nudge the poller so pending connections are
    // answered promptly instead of on the idle tick.
    let waker = core.waker();
    engine.set_waker(Box::new(move || waker.wake()));

    Ok(ServerHandle {
        addr,
        draining,
        engine,
        core,
        profstore,
    })
}

/// The experiment server's routing/accounting half of the readiness
/// core: request counting, chaos connection drops, drain rejection
/// (with the `/peek` exemption), then route dispatch.
struct ServedService {
    shared: Arc<Shared>,
}

impl Service for ServedService {
    fn dispatch(&self, req: Request) -> Dispatch {
        // One span per request: routing + submission. (Compute time is
        // accounted by the worker's own `serve_compute` span; the
        // poller thread cannot hold a span open across loop turns.)
        let _span = gem5prof_obs::span("http_request");
        if chaos::inject("server.conn_drop") {
            // The connection dies after the request is parsed but
            // before any response: the client must see a clean
            // transport error. Count it as an "other" response so
            // `/stats` accounting stays exact (every parsed request
            // gets an outcome).
            self.shared.stats.count(0);
            chaos::recovered("server.conn_drop");
            return Dispatch::Hangup;
        }
        // `/peek` stays answerable during a drain: it is a pure
        // warm-tier read (never a compute), and a draining node is
        // exactly the "old owner" a peer wants to fetch from before
        // recomputing a migrated key.
        if self.shared.draining.load(Ordering::Relaxed) && req.path != "/peek" {
            return Dispatch::Reply(routes::draining_reply());
        }
        routes::dispatch(&req, &self.shared)
    }

    fn count_request(&self) {
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    }

    fn count_response(&self, status: u16) {
        self.shared.stats.count(status);
    }

    fn count_parse_error(&self) {
        // The malformed request is counted, and so is its 400, so
        // `/stats` keeps one outcome per request.
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.count(400);
    }

    fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    fn deadline(&self) -> Duration {
        self.shared.deadline
    }

    fn recover_wire_chaos(&self) -> bool {
        true
    }

    fn progress_body(&self, elapsed: Duration) -> String {
        minjson::Json::obj(vec![(
            "progress",
            minjson::Json::obj(vec![
                ("elapsed_ms", minjson::Json::Num(elapsed.as_millis() as f64)),
                (
                    "queue_depth",
                    minjson::Json::Num(self.shared.engine.queue_depth() as f64),
                ),
                (
                    "in_flight",
                    minjson::Json::Num(self.shared.engine.in_flight() as f64),
                ),
            ]),
        )])
        .to_string_compact()
    }
}
