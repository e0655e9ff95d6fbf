//! Chaos soak harness: drive traffic against an in-process,
//! chaos-armed `gem5prof-served` daemon and assert the serving
//! invariants that must survive fault injection.
//!
//! One [`soak_seed`] call is one deterministic episode:
//!
//! 1. arm `gem5prof-chaos` with a seed-derived [`Plan`],
//! 2. start a small server (2 workers, bounded queue) on an ephemeral
//!    port and hammer it with a fixed request mix from N clients,
//! 3. exercise `gem5prof::runner::parallel_map` directly so the
//!    `runner.*` fault points fire too,
//! 4. disarm and probe: workers still compute, caches serve only
//!    well-formed JSON, `/stats` and `/metrics` accounting balances,
//! 5. re-arm and drain gracefully under fault load, with a watchdog.
//!
//! Violations are collected, not panicked, so the `soak` binary can
//! print a one-line reproduction command for the failing seed.

use gem5prof_chaos::{self as chaos, Plan, PointReport};
use gem5prof_served::cluster::{serve_cluster, ClusterConfig, MemberSpec};
use gem5prof_served::minjson::{self, Json};
use gem5prof_served::retry::{self, RetryPolicy};
use gem5prof_served::{serve, ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Knobs for one soak episode.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Wall-clock budget per seed (ignored when `requests > 0`).
    pub secs: f64,
    /// Fixed per-client request count; `0` means time-bound. A fixed
    /// count with one client makes the whole episode replayable —
    /// identical per-point injection schedules run to run.
    pub requests: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Base injection probability (delay/panic/poison points run
    /// hotter; see [`plan_for`]).
    pub prob: f64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            secs: 5.0,
            requests: 0,
            clients: 4,
            prob: 0.08,
        }
    }
}

/// What one seed's episode did and whether it held the invariants.
#[derive(Debug)]
pub struct SeedOutcome {
    pub seed: u64,
    /// Logical requests issued across all clients.
    pub issued: u64,
    /// Requests that ended in a status-coded response.
    pub completed: u64,
    /// Requests that exhausted retries on transport errors.
    pub dropped: u64,
    /// Retries consumed (reported separately from drops).
    pub retries: u64,
    /// Status-code histogram of completed requests.
    pub statuses: BTreeMap<u16, u64>,
    /// Per-point chaos accounting for the traffic phase. With one
    /// client and a fixed request count this is fully deterministic in
    /// the seed (except `runner.queue_stall`, whose visit count depends
    /// on thread scheduling).
    pub points: Vec<PointReport>,
    /// Per-point accounting for the drain-under-chaos phase, kept
    /// separate because it races the listener shutdown and is not
    /// replayable.
    pub drain_points: Vec<PointReport>,
    /// Human-readable invariant violations; empty means the seed passed.
    pub violations: Vec<String>,
}

impl SeedOutcome {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn injected(&self) -> u64 {
        self.all_points().map(|p| p.injected).sum()
    }

    pub fn recovered(&self) -> u64 {
        self.all_points().map(|p| p.recovered).sum()
    }

    /// Traffic-phase and drain-phase reports chained.
    pub fn all_points(&self) -> impl Iterator<Item = &PointReport> {
        self.points.iter().chain(&self.drain_points)
    }
}

/// The plan a soak episode arms: every point fires at `prob`, with the
/// rare-visit points (engine jobs, runner items) boosted so a short
/// episode still exercises the panic/poison/delay classes.
pub fn plan_for(seed: u64, prob: f64) -> Plan {
    let hot = (prob * 3.0).min(0.9);
    Plan::new(seed)
        .with_prob(prob)
        .with_point("engine.job_delay", hot)
        .with_point("engine.job_panic", hot)
        .with_point("engine.job_poison", hot)
        .with_point("engine.worker_panic", hot)
        .with_point("engine.leader_panic", hot)
        .with_point("cache.disk_write", hot)
        .with_point("profstore.disk_write", hot)
        .with_point("runner.slow_worker", hot)
        .with_point("runner.queue_stall", hot)
        // Only visited by clustered engines (a peerless node never
        // calls peer_fetch), so single-node episodes are unchanged.
        .with_point("cluster.peer_fetch", hot)
}

/// The request mix each client cycles through: cheap inline routes,
/// cacheable compute routes, and deliberate 4xx probes. `/figures/figNN`
/// renders are excluded — a cold paper-fidelity figure can take minutes
/// and would turn the soak into a figure benchmark.
const MIX: &[(&str, &str, Option<&str>)] = &[
    ("GET", "/healthz", None),
    ("GET", "/tables/table1", None),
    (
        "POST",
        "/experiments",
        Some(r#"{"platform":"intel_xeon","workload":"dedup","cpu":"atomic"}"#),
    ),
    ("GET", "/stats", None),
    ("GET", "/tables/table2", None),
    (
        "POST",
        "/experiments",
        Some(r#"{"platform":"m1_pro","workload":"dedup","cpu":"atomic"}"#),
    ),
    ("GET", "/metrics", None),
    ("GET", "/figures/fig99", None),            // 404: unknown figure
    ("POST", "/experiments", Some("not json")), // 400
    ("GET", "/tables/nothing", None),           // 404
    (
        "POST",
        "/experiments",
        Some(r#"{"platform":"intel_xeon","workload":"dedup","cpu":"timing"}"#),
    ),
    ("GET", "/profile", None),
    // Continuous profiling under chaos: snapshot captures hit the
    // profstore.disk_write torn-write point; cluster episodes (no
    // --profile-dir on the nodes) answer 503, which ALLOWED covers.
    ("POST", "/profile/snapshot?label=soak", Some("")),
    ("GET", "/profile/history", None),
];

/// Statuses the server may legitimately answer with under this mix.
const ALLOWED: &[u16] = &[200, 400, 404, 429, 500, 503, 504];

#[derive(Default)]
struct Tally {
    issued: u64,
    completed: u64,
    dropped: u64,
    retries: u64,
    bad_bodies: u64,
    statuses: BTreeMap<u16, u64>,
}

fn client_loop(addr: &str, idx: usize, seed: u64, cfg: &SoakConfig, stop_at: Instant) -> Tally {
    let policy = RetryPolicy {
        max_retries: 3,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(100),
        seed: seed ^ idx as u64,
        timeout: Duration::from_secs(10),
    };
    let mut tally = Tally::default();
    let mut conn = None;
    let mut r = 0usize;
    loop {
        let more = if cfg.requests > 0 {
            r < cfg.requests
        } else {
            Instant::now() < stop_at
        };
        if !more {
            break;
        }
        let (method, path, body) = MIX[(idx + r) % MIX.len()];
        tally.issued += 1;
        let out = retry::request_with_retry(
            &mut conn,
            addr,
            method,
            path,
            body,
            &policy,
            ((idx as u64) << 32) | r as u64,
        );
        tally.retries += out.retries as u64;
        match out.result {
            Ok((status, body)) => {
                tally.completed += 1;
                *tally.statuses.entry(status).or_insert(0) += 1;
                // The poison invariant, checked at the consumer: every
                // 200 body (except the Prometheus text route) must be
                // well-formed JSON with no corruption marker.
                if status == 200
                    && path != "/metrics"
                    && (minjson::parse(&body).is_err() || body.contains("<<chaos-poison>>"))
                {
                    tally.bad_bodies += 1;
                }
            }
            Err(_) => tally.dropped += 1,
        }
        r += 1;
    }
    tally
}

/// One GET with retries (used by the chaos-off probe phase), parsed as
/// JSON unless `path` is `/metrics`.
fn probe(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
    let policy = RetryPolicy {
        max_retries: 2,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        seed: 0,
        timeout: Duration::from_secs(30),
    };
    let mut conn = None;
    let out = retry::request_with_retry(&mut conn, addr, method, path, body, &policy, 0);
    match out.result {
        Ok((200, body)) => Ok(body),
        Ok((status, body)) => Err(format!("{method} {path} -> {status}: {body}")),
        Err(e) => Err(format!("{method} {path} failed: {e}")),
    }
}

fn probe_json(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<Json, String> {
    let body = probe(addr, method, path, body)?;
    minjson::parse(&body).map_err(|e| format!("{path} body is not JSON ({e}): {body}"))
}

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

/// Sums per-client tallies and checks the client-observable invariants:
/// exactly-one-response accounting, poison-free 200 bodies, and only
/// legitimate status codes.
#[allow(clippy::type_complexity)]
fn aggregate(
    tallies: Vec<Tally>,
    violations: &mut Vec<String>,
) -> (u64, u64, u64, u64, BTreeMap<u16, u64>) {
    let mut issued = 0;
    let mut completed = 0;
    let mut dropped = 0;
    let mut retries = 0;
    let mut bad_bodies = 0;
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    for t in tallies {
        issued += t.issued;
        completed += t.completed;
        dropped += t.dropped;
        retries += t.retries;
        bad_bodies += t.bad_bodies;
        for (s, n) in t.statuses {
            *statuses.entry(s).or_insert(0) += n;
        }
    }
    if completed + dropped != issued {
        violations.push(format!(
            "request accounting leak: {issued} issued but {completed} completed + {dropped} dropped"
        ));
    }
    if bad_bodies > 0 {
        violations.push(format!(
            "{bad_bodies} 200-response bodies were malformed — a poisoned result reached a client"
        ));
    }
    for (&status, &n) in &statuses {
        if !ALLOWED.contains(&status) {
            violations.push(format!("unexpected status {status} ({n} responses)"));
        }
    }
    (issued, completed, dropped, retries, statuses)
}

/// Graceful drain with a watchdog: `shutdown()` joins the acceptor and
/// workers, which must complete even while chaos is armed. A wedged
/// drain is reported as a violation instead of hanging the soak.
fn drain_with_watchdog(handle: ServerHandle, violations: &mut Vec<String>) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::Builder::new()
        .name("soak-drain".into())
        .spawn(move || {
            handle.shutdown();
            let _ = done_tx.send(());
        })
        .expect("spawn drain thread");
    if done_rx.recv_timeout(Duration::from_secs(60)).is_err() {
        violations.push("graceful drain did not complete within 60s under fault load".into());
    }
}

/// Runs one full soak episode for `seed`. Deterministic given the seed
/// and a fixed `requests` count with one client; see [`SoakConfig`].
pub fn soak_seed(seed: u64, cfg: &SoakConfig) -> SeedOutcome {
    chaos::install_quiet_panic_hook();
    let mut violations = Vec::new();

    // A per-episode disk tier so `cache.disk_write` faults and the
    // corrupt-entry scrubbing run under soak load too.
    let cache_dir =
        std::env::temp_dir().join(format!("gem5prof-soak-{}-{seed:x}", std::process::id()));
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 16,
        cache_cap: 64,
        cache_dir: Some(cache_dir.clone()),
        deadline: Duration::from_secs(5),
        worker_delay: Duration::ZERO,
        // A per-episode profstore so snapshot captures and their torn
        // writes (`profstore.disk_write`) run under soak load. The
        // subdirectory keeps `.g5ps` segments out of the disk tier's
        // scan; the episode cleanup removes both.
        profile_dir: Some(cache_dir.join("prof")),
        ..ServeConfig::default()
    })
    .expect("soak server must bind an ephemeral port");
    let addr = handle.addr().to_string();

    // --- phase 1: traffic under chaos -------------------------------
    chaos::arm(plan_for(seed, cfg.prob));
    let stop_at = Instant::now() + Duration::from_secs_f64(cfg.secs);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|idx| {
                let addr = addr.clone();
                scope.spawn(move || client_loop(&addr, idx, seed, cfg, stop_at))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // --- phase 2: runner fault points, exercised directly ------------
    let items: Vec<u64> = (0..64).collect();
    let doubled =
        gem5prof::runner::with_threads(4, || gem5prof::runner::parallel_map(&items, |&x| x * 2));
    if doubled != items.iter().map(|&x| x * 2).collect::<Vec<_>>() {
        violations.push("parallel_map lost input ordering or results under chaos stalls".into());
    }

    let traffic_points = chaos::report();
    chaos::disarm();

    // --- phase 3: aggregate + client-side invariants -----------------
    let (issued, completed, dropped, retries, statuses) = aggregate(tallies, &mut violations);

    // --- phase 4: chaos-off probes -----------------------------------
    // Workers must still compute fresh work after every injected panic:
    // this spec is not in MIX, so it cannot be served from cache.
    let fresh = r#"{"platform":"intel_xeon","workload":"dedup","cpu":"minor"}"#;
    if let Err(e) = probe_json(&addr, "POST", "/experiments", Some(fresh)) {
        violations.push(format!("worker pool dead after chaos: {e}"));
    }
    // Cached table responses must be intact (the cache never absorbed a
    // poisoned render).
    for path in ["/tables/table1", "/tables/table2"] {
        match probe(&addr, "GET", path, None) {
            Ok(body) if body.contains("<<chaos-poison>>") => {
                violations.push(format!("{path} served a poisoned cached body"))
            }
            Ok(_) => {}
            Err(e) => violations.push(format!("cache probe failed: {e}")),
        }
    }
    // The engine must quiesce (504-abandoned jobs finish; queue empties).
    let quiesce_deadline = Instant::now() + Duration::from_secs(30);
    let mut last_stats = None;
    loop {
        match probe_json(&addr, "GET", "/stats", None) {
            Ok(doc) => {
                let depth = num(&doc, &["server", "queue", "depth"]).unwrap_or(f64::NAN);
                let in_flight = num(&doc, &["server", "queue", "in_flight"]).unwrap_or(f64::NAN);
                let idle = depth == 0.0 && in_flight == 0.0;
                last_stats = Some(doc);
                if idle {
                    break;
                }
                if Instant::now() > quiesce_deadline {
                    violations.push(format!(
                        "engine did not quiesce: depth={depth} in_flight={in_flight} after 30s"
                    ));
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                violations.push(format!("stats probe failed: {e}"));
                break;
            }
        }
    }
    // `/stats` must balance: every parsed request got exactly one
    // status-coded outcome. The probe rendering the snapshot is itself
    // counted as a request but not yet as a response, hence the +1.
    if let Some(doc) = &last_stats {
        let requests = num(doc, &["server", "requests"]).unwrap_or(f64::NAN);
        let responses: f64 = [
            "200", "400", "404", "405", "429", "500", "503", "504", "other",
        ]
        .iter()
        .filter_map(|code| num(doc, &["server", "responses", code]))
        .sum();
        if requests != responses + 1.0 {
            violations.push(format!(
                "/stats accounting imbalance: {requests} requests vs {responses} responses \
                 (+1 in-progress expected)"
            ));
        }
        // `/metrics` reads the same atomics; its counter can only be
        // at or ahead of the snapshot we just took.
        match probe(&addr, "GET", "/metrics", None) {
            Ok(text) => {
                let series_value = |l: &str| {
                    l.split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse::<f64>().ok())
                };
                let metric = text
                    .lines()
                    .find(|l| l.starts_with("gem5prof_served_requests_total "))
                    .and_then(series_value);
                match metric {
                    Some(m) if m >= requests => {}
                    Some(m) => violations.push(format!(
                        "/metrics requests_total {m} fell behind /stats requests {requests}"
                    )),
                    None => violations
                        .push("gem5prof_served_requests_total missing from /metrics".into()),
                }
                // The status-labeled response series feed from the same
                // atomics: summed, they can only be at or ahead of the
                // /stats snapshot — and never ahead of the request
                // counter, or some request got two counted outcomes
                // (the try_clone / torn-connection double-count bug).
                let responses_metric: f64 = text
                    .lines()
                    .filter(|l| l.starts_with("gem5prof_served_responses_total{"))
                    .filter_map(series_value)
                    .sum();
                if responses_metric < responses {
                    violations.push(format!(
                        "/metrics responses sum {responses_metric} fell behind \
                         /stats responses {responses}"
                    ));
                }
                match metric {
                    Some(m) if responses_metric > m => violations.push(format!(
                        "/metrics counted more responses ({responses_metric}) than \
                         requests ({m}): a request got two outcomes"
                    )),
                    _ => {}
                }
            }
            Err(e) => violations.push(format!("metrics probe failed: {e}")),
        }
    }

    // --- phase 5: graceful drain under fault load --------------------
    chaos::arm(plan_for(seed.wrapping_add(0x9E37), cfg.prob));
    std::thread::scope(|scope| {
        for idx in 0..2usize {
            let addr = addr.clone();
            let cfg = SoakConfig {
                requests: 8,
                clients: 1,
                ..cfg.clone()
            };
            scope.spawn(move || {
                // Outcomes are irrelevant: during a drain any mix of
                // 503s and refused connects is legal. The invariant is
                // that the drain itself completes.
                let _ = client_loop(&addr, idx, seed, &cfg, Instant::now());
            });
        }
        std::thread::sleep(Duration::from_millis(20));
        drain_with_watchdog(handle, &mut violations);
    });
    let drain_points = chaos::report();
    chaos::disarm();
    let _ = std::fs::remove_dir_all(&cache_dir);

    SeedOutcome {
        seed,
        issued,
        completed,
        dropped,
        retries,
        statuses,
        points: traffic_points,
        drain_points,
        violations,
    }
}

// ---------------------------------------------------------------------
// Cluster soak: node-kill chaos across a routed fleet
// ---------------------------------------------------------------------

/// One cluster episode: `nodes` in-process daemons behind a
/// consistent-hash router, chaos armed fleet-wide, and a seed-chosen
/// node killed mid-burst. Asserts the serving invariants cluster-wide:
///
/// * **exactly-one-response** — every issued request ends in exactly
///   one status-coded response or one transport error, across node
///   death, ejection and re-routing;
/// * **poison-free** — no 200 body is malformed or carries the chaos
///   corruption marker, whether computed locally, served from a cache
///   tier, or promoted via peer fetch;
/// * **liveness** — the router ejects the dead node, fresh keys still
///   compute on the survivors afterwards, and the surviving fleet
///   drains gracefully under fault load.
///
/// Fleet-wide `computes ≤ unique keys` is deliberately NOT asserted
/// here: injected job panics legitimately force recomputes. The
/// chaos-free cluster smoke in `scripts/verify.sh` (and the bench)
/// asserts it.
pub fn cluster_soak_seed(seed: u64, cfg: &SoakConfig, nodes: usize) -> SeedOutcome {
    let nodes = nodes.max(2);
    chaos::install_quiet_panic_hook();
    let mut violations = Vec::new();

    let base = std::env::temp_dir().join(format!("gem5prof-csoak-{}-{seed:x}", std::process::id()));
    let mut node_handles: Vec<ServerHandle> = (0..nodes)
        .map(|i| {
            serve(ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_cap: 16,
                cache_cap: 64,
                cache_dir: Some(base.join(format!("node{i}"))),
                deadline: Duration::from_secs(5),
                node_id: Some(format!("soak-node-{i}")),
                ..ServeConfig::default()
            })
            .expect("soak node must bind an ephemeral port")
        })
        .collect();
    let router = serve_cluster(ClusterConfig {
        addr: "127.0.0.1:0".into(),
        members: node_handles
            .iter()
            .map(|h| MemberSpec::new(h.addr().to_string()))
            .collect(),
        probe_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_secs(1),
        io_timeout: Duration::from_secs(10),
        ..ClusterConfig::default()
    })
    .expect("soak router must bind an ephemeral port");
    let addr = router.addr().to_string();

    // The victim is seed-chosen and extracted up front; once its port
    // refuses connections, a drained node and a crashed one look the
    // same to the router.
    let victim = (seed as usize) % nodes;
    let victim_addr = node_handles[victim].addr().to_string();
    let victim_handle = node_handles.remove(victim);

    // --- phase 1: traffic under chaos, node kill mid-burst -----------
    chaos::arm(plan_for(seed, cfg.prob));
    let stop_at = Instant::now() + Duration::from_secs_f64(cfg.secs);
    let kill_delay = if cfg.requests > 0 {
        Duration::from_millis(300)
    } else {
        Duration::from_secs_f64(cfg.secs / 2.0)
    };
    let (tallies, kill_violation) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..cfg.clients.max(1))
            .map(|idx| {
                let addr = addr.clone();
                scope.spawn(move || client_loop(&addr, idx, seed, cfg, stop_at))
            })
            .collect();
        let killer = scope.spawn(move || -> Option<String> {
            std::thread::sleep(kill_delay);
            // Watchdogged on an unscoped thread: a wedged drain becomes
            // a violation, not a hung soak.
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::spawn(move || {
                victim_handle.shutdown();
                let _ = done_tx.send(());
            });
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .err()
                .map(|_| "victim node drain did not complete within 60s under fault load".into())
        });
        let tallies: Vec<Tally> = clients.into_iter().map(|h| h.join().unwrap()).collect();
        (tallies, killer.join().unwrap())
    });
    if let Some(v) = kill_violation {
        violations.push(v);
    }
    let traffic_points = chaos::report();
    chaos::disarm();

    // --- phase 2: aggregate + client-side invariants -----------------
    let (issued, completed, dropped, retries, statuses) = aggregate(tallies, &mut violations);

    // --- phase 3: chaos-off cluster probes ---------------------------
    // The router must eject the dead node (its /healthz is gone).
    let eject_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match probe_json(&addr, "GET", "/healthz", None) {
            Ok(doc) => {
                let alive = num(&doc, &["members_alive"]).unwrap_or(f64::NAN);
                if alive == (nodes - 1) as f64 {
                    break;
                }
                if Instant::now() > eject_deadline {
                    violations.push(format!(
                        "router never ejected the killed node: members_alive={alive} after 10s"
                    ));
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                violations.push(format!("router healthz probe failed: {e}"));
                break;
            }
        }
    }
    // `/cluster` must agree on *which* member died.
    match probe_json(&addr, "GET", "/cluster", None) {
        Ok(doc) => {
            if let Some(Json::Arr(members)) = doc.get("members").cloned() {
                for m in &members {
                    let maddr = m.get("addr").and_then(Json::as_str).unwrap_or("");
                    let alive = m.get("alive").and_then(Json::as_bool).unwrap_or(true);
                    if maddr == victim_addr && alive {
                        violations.push(format!("/cluster still lists dead {maddr} as alive"));
                    }
                    if maddr != victim_addr && !alive {
                        violations.push(format!("/cluster ejected surviving member {maddr} too"));
                    }
                }
            } else {
                violations.push("/cluster has no members array".into());
            }
        }
        Err(e) => violations.push(format!("cluster status probe failed: {e}")),
    }
    // Liveness: a spec outside MIX must still compute, re-routed to a
    // survivor regardless of which node originally owned it.
    let fresh = r#"{"platform":"m1_pro","workload":"dedup","cpu":"minor"}"#;
    if let Err(e) = probe_json(&addr, "POST", "/experiments", Some(fresh)) {
        violations.push(format!(
            "fleet cannot compute fresh work after node kill: {e}"
        ));
    }
    // Poison-free: cached tables served through the router are intact.
    for path in ["/tables/table1", "/tables/table2"] {
        match probe(&addr, "GET", path, None) {
            Ok(body) if body.contains("<<chaos-poison>>") => violations.push(format!(
                "{path} served a poisoned cached body via the router"
            )),
            Ok(_) => {}
            Err(e) => violations.push(format!("router cache probe failed: {e}")),
        }
    }

    // --- phase 4: graceful fleet drain under fault load --------------
    chaos::arm(plan_for(seed.wrapping_add(0x9E37), cfg.prob));
    std::thread::scope(|scope| {
        for idx in 0..2usize {
            let addr = addr.clone();
            let cfg = SoakConfig {
                requests: 8,
                clients: 1,
                ..cfg.clone()
            };
            scope.spawn(move || {
                let _ = client_loop(&addr, idx, seed, &cfg, Instant::now());
            });
        }
        std::thread::sleep(Duration::from_millis(20));
        for handle in node_handles.drain(..) {
            drain_with_watchdog(handle, &mut violations);
        }
    });
    router.shutdown();
    let drain_points = chaos::report();
    chaos::disarm();
    let _ = std::fs::remove_dir_all(&base);

    SeedOutcome {
        seed,
        issued,
        completed,
        dropped,
        retries,
        statuses,
        points: traffic_points,
        drain_points,
        violations,
    }
}
