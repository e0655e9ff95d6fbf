//! Route dispatch and JSON rendering.
//!
//! Cheap endpoints (`/healthz`, `/stats`, `/metrics`, `/profile`) are
//! answered inline on the readiness core's poller thread; compute
//! endpoints (`/figures/*`, `/tables/*`, `POST /experiments`) go
//! through the engine's cache + admission queue.

use crate::core::Dispatch;
use crate::engine::{Engine, ServerStats, Submission, Work};
use crate::http::Request;
use crate::minjson::{self, Json};
use gem5prof::figures::{self, Fidelity};
use gem5prof::report::Table;
use gem5prof::spec::{self, ExperimentSpec};
use gem5prof::ProfileRun;
use gem5prof_profstore::{self as profstore, ProfStore};
use platforms::{PlatformId, SystemKnobs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A finished response: status, JSON body, extra headers.
pub(crate) type Reply = (u16, String, Vec<(String, String)>);

/// Shared server state every request is routed against.
pub(crate) struct Shared {
    pub engine: std::sync::Arc<Engine>,
    pub stats: std::sync::Arc<ServerStats>,
    pub draining: std::sync::Arc<std::sync::atomic::AtomicBool>,
    pub deadline: Duration,
    pub started: Instant,
    /// Stable identity this node reports in `/healthz` (the cluster
    /// router's membership probe records it).
    pub node_id: String,
    /// Continuous profiling store (`--profile-dir`); `None` turns the
    /// `/profile/history|diff|snapshot|bless` routes into 503s.
    pub profstore: Option<Arc<ProfStore>>,
}

pub(crate) fn error_body(msg: &str) -> String {
    Json::obj(vec![("error", Json::str(msg))]).to_string_compact()
}

fn plain(status: u16, msg: &str) -> Reply {
    (status, error_body(msg), Vec::new())
}

/// The drain rejection: `Retry-After` marks it as transient so
/// retrying clients (see `retry`) treat it like backpressure instead
/// of a hard failure.
pub(crate) fn draining_reply() -> Reply {
    (
        503,
        error_body("draining"),
        vec![("retry-after".into(), "1".into())],
    )
}

/// Maps a request onto the canonical result-cache key it would
/// compute, if the route is one the cluster router shards by key.
///
/// Uses the same parsers as local dispatch, so router-side ownership
/// and node-side caching agree byte-for-byte on the key. Unparseable
/// requests return `None`: the router forwards them anyway and lets
/// the owner node render the 4xx, keeping error bodies identical
/// between 1-node and N-node deployments.
pub(crate) fn route_key(req: &Request) -> Option<String> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", path) if path.starts_with("/figures/") => {
            parse_figure_path(&path["/figures/".len()..], req)
                .ok()
                .map(|w| w.key())
        }
        ("GET", "/tables/table1") => Some(Work::Table(1).key()),
        ("GET", "/tables/table2") => Some(Work::Table(2).key()),
        ("POST", "/experiments") => parse_experiment(&req.body)
            .ok()
            .map(|spec| Work::Experiment(spec).key()),
        _ => None,
    }
}

/// Dispatches one parsed request to its route without blocking on
/// computes: the readiness core polls `Dispatch::Pending` receivers.
/// `stream` on a pending experiment asks for a chunked response with
/// progress lines while the compute runs
/// (`POST /experiments?stream=progress`).
pub(crate) fn dispatch(req: &Request, shared: &Shared) -> Dispatch {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", path) if path.starts_with("/figures/") => {
            match parse_figure_path(&path["/figures/".len()..], req) {
                Ok(work) => start_work(work, shared, false),
                Err((status, msg)) => Dispatch::Reply(plain(status, &msg)),
            }
        }
        ("GET", "/tables/table1") => start_work(Work::Table(1), shared, false),
        ("GET", "/tables/table2") => start_work(Work::Table(2), shared, false),
        ("POST", "/experiments") => {
            // Streaming is opt-in per request; any other value fails
            // loudly instead of silently running unstreamed.
            let stream = match req.query_param("stream") {
                None => false,
                Some("progress") => true,
                Some(other) => {
                    return Dispatch::Reply(plain(
                        400,
                        &format!("unknown stream mode `{other}` (want `progress`)"),
                    ))
                }
            };
            match parse_experiment(&req.body) {
                Ok(spec) => start_work(Work::Experiment(spec), shared, stream),
                Err(msg) => Dispatch::Reply(plain(400, &msg)),
            }
        }
        _ => Dispatch::Reply(inline_routes(req, shared)),
    }
}

/// Routes answered inline (no compute): status, caches, profiles,
/// peers, and the 4xx fall-throughs.
fn inline_routes(req: &Request, shared: &Shared) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, healthz_json(shared), Vec::new()),
        ("GET", "/stats") => (200, stats_json(shared), Vec::new()),
        ("GET", "/metrics") => (
            200,
            gem5prof_obs::global().render_prometheus(),
            vec![(
                "content-type".into(),
                "text/plain; version=0.0.4; charset=utf-8".into(),
            )],
        ),
        ("GET", "/profile") => (200, profile_json(), Vec::new()),
        ("GET", "/profile/history") => profile_history(req, shared),
        ("GET", "/profile/diff") => profile_diff(req, shared),
        ("POST", "/profile/snapshot") => profile_snapshot(req, shared),
        ("POST", "/profile/bless") => profile_bless(req, shared),
        // Compute routes (`/figures/*`, `/tables/table1|2`,
        // `POST /experiments`) are intercepted by `dispatch` and never
        // reach here; only their method/path near-misses fall through.
        // `/tables/<anything else>` is a missing resource, not a bad request.
        ("GET", path) if path.starts_with("/tables/") => plain(404, "not found"),
        // Peer warm-tier probe: the body is a canonical result-cache
        // key; answer from the local tiers or 404 — never compute. Kept
        // answerable during drain (see `ServedService::dispatch`) so a
        // draining node's warm entries remain fetchable.
        ("POST", "/peek") => match std::str::from_utf8(&req.body) {
            Ok(key) if !key.is_empty() => match shared.engine.peek(key) {
                Some(body) => (200, (*body).clone(), Vec::new()),
                None => plain(404, "not cached"),
            },
            _ => plain(400, "peek body must be a non-empty UTF-8 cache key"),
        },
        // Cluster router pushes the node's peer list once every member's
        // ephemeral address is known: a comma-separated `host:port` list.
        ("POST", "/peers") => match std::str::from_utf8(&req.body) {
            Ok(list) => {
                let peers: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                let n = peers.len();
                shared.engine.set_peers(peers);
                (
                    200,
                    Json::obj(vec![("peers", Json::Num(n as f64))]).to_string_compact(),
                    Vec::new(),
                )
            }
            Err(_) => plain(400, "peer list must be UTF-8"),
        },
        // Known paths with the wrong method get a 405, not a 404.
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/profile" | "/profile/history" | "/profile/diff"
            | "/profile/snapshot" | "/profile/bless" | "/experiments" | "/peek" | "/peers",
        ) => plain(405, "method not allowed"),
        (_, path) if path.starts_with("/figures/") || path.starts_with("/tables/") => {
            plain(405, "method not allowed")
        }
        _ => plain(404, "not found"),
    }
}

/// Submits compute work through the cache + admission queue; a miss
/// comes back as `Dispatch::Pending` for the core to await.
fn start_work(work: Work, shared: &Shared, stream: bool) -> Dispatch {
    if shared.draining.load(Ordering::Relaxed) {
        return Dispatch::Reply(draining_reply());
    }
    Dispatch::Reply(match shared.engine.submit(work) {
        Submission::Hit(body) => (200, (*body).clone(), Vec::new()),
        Submission::Busy => (
            429,
            error_body("admission queue full"),
            vec![("retry-after".into(), "1".into())],
        ),
        Submission::Draining => draining_reply(),
        Submission::Pending(rx) => return Dispatch::Pending { rx, stream },
    })
}

/// Parses `figNN` (accepting `fig1` and `fig01`) plus an optional
/// `?fidelity=quick|paper` query parameter. An unknown figure is a
/// missing resource (404); a bad query on a real figure is a bad
/// request (400) — including any query key other than `fidelity`, so
/// typos (`?fidelty=paper`) fail loudly instead of silently running at
/// the default fidelity.
fn parse_figure_path(name: &str, req: &Request) -> Result<Work, (u16, String)> {
    let n: usize = name
        .strip_prefix("fig")
        .and_then(|d| d.parse().ok())
        .filter(|&n| (1..=17).contains(&n))
        .ok_or_else(|| (404, format!("unknown figure `{name}` (want fig01..fig17)")))?;
    if let Some(q) = req.query.as_deref() {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let key = pair.split_once('=').map_or(pair, |(k, _)| k);
            if key != "fidelity" {
                return Err((
                    400,
                    format!("unknown query parameter `{key}` (only `fidelity` is accepted)"),
                ));
            }
        }
    }
    let fidelity = match req.query_param("fidelity") {
        None => Fidelity::Quick,
        Some(f) => spec::parse_fidelity(f)
            .ok_or_else(|| (400, format!("bad fidelity `{f}` (quick|paper)")))?,
    };
    Ok(Work::Figure(n, fidelity))
}

/// Parses a `POST /experiments` body into a canonical spec.
///
/// ```json
/// {"platform": "intel_xeon", "workload": "dedup", "scale": "test",
///  "cpu": "o3", "mode": "se", "knobs": "thp,freq=2.4"}
/// ```
///
/// `scale`, `mode`, `knobs`, `harts`, `corun` and `corun_div` are
/// optional (`test`, `se`, default, 1, none, 1). Any other field is a
/// 400 naming the offending key — matching `/figures/*` query handling,
/// so typos fail loudly instead of silently running the default.
fn parse_experiment(body: &[u8]) -> Result<ExperimentSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = minjson::parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    let Json::Obj(pairs) = &doc else {
        return Err("experiment spec must be a JSON object".into());
    };
    const KNOWN: [&str; 9] = [
        "platform",
        "workload",
        "scale",
        "cpu",
        "mode",
        "knobs",
        "harts",
        "corun",
        "corun_div",
    ];
    for (k, _) in pairs {
        if !KNOWN.contains(&k.as_str()) {
            return Err(format!(
                "unknown field `{k}` (accepted: {})",
                KNOWN.join(", ")
            ));
        }
    }
    let field = |name: &str| -> Result<&str, String> {
        doc.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing or non-string field `{name}`"))
    };
    let platform = PlatformId::from_name(field("platform")?)
        .ok_or_else(|| "unknown platform (intel_xeon|m1_pro|m1_ultra)".to_string())?;
    let workload =
        spec::parse_workload(field("workload")?).ok_or_else(|| "unknown workload".to_string())?;
    let scale = match doc.get("scale") {
        None => gem5sim_workloads::Scale::Test,
        Some(v) => v
            .as_str()
            .and_then(spec::parse_scale)
            .ok_or_else(|| "bad scale (test|simsmall|simmedium)".to_string())?,
    };
    let cpu = spec::parse_cpu(field("cpu")?)
        .ok_or_else(|| "unknown cpu (atomic|timing|minor|o3)".to_string())?;
    let mode = match doc.get("mode") {
        None => gem5sim::config::SimMode::Se,
        Some(v) => v
            .as_str()
            .and_then(spec::parse_mode)
            .ok_or_else(|| "bad mode (se|fs)".to_string())?,
    };
    let knobs = match doc.get("knobs") {
        None => SystemKnobs::new(),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| "field `knobs` must be a string".to_string())?;
            SystemKnobs::parse(s)?
        }
    };
    let small_int = |name: &str, max: u64| -> Result<u64, String> {
        match doc.get(name) {
            None => Ok(1),
            Some(v) => v
                .as_u64()
                .filter(|&n| (1..=max).contains(&n))
                .ok_or_else(|| format!("field `{name}` must be an integer in 1..={max}")),
        }
    };
    let harts = small_int("harts", 8)? as usize;
    let corun_div = small_int("corun_div", 8)?;
    let corun = match doc.get("corun") {
        None => None,
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| "field `corun` must be a microbenchmark name".to_string())?;
            let m = spec::parse_microbench(s)
                .ok_or_else(|| format!("unknown corun microbenchmark `{s}`"))?;
            if !matches!(workload, gem5sim_workloads::Workload::Micro(_)) {
                return Err(format!(
                    "field `corun` requires a microbenchmark workload, got `{workload}`"
                ));
            }
            Some(m)
        }
    };
    Ok(ExperimentSpec {
        platform,
        workload,
        scale,
        cpu,
        mode,
        knobs,
        harts,
        corun,
        corun_div,
    })
}

// ---------------------------------------------------------------------
// JSON rendering (called from engine workers)
// ---------------------------------------------------------------------

/// Renders a [`Table`] as JSON.
fn table_to_json(t: &Table) -> Json {
    Json::obj(vec![
        ("title", Json::str(&t.title)),
        (
            "columns",
            Json::Arr(t.columns.iter().map(Json::str).collect()),
        ),
        (
            "rows",
            Json::Arr(
                t.rows
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("label", Json::str(&r.label)),
                            (
                                "values",
                                Json::Arr(r.values.iter().map(|&v| Json::Num(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("notes", Json::Arr(t.notes.iter().map(Json::str).collect())),
    ])
}

/// Computes figure `n` and renders it.
pub(crate) fn figure_json(n: usize, f: Fidelity) -> String {
    let table = match n {
        1 => figures::fig01(f),
        2 => figures::fig02(f),
        3 => figures::fig03(f),
        4 => figures::fig04(f),
        5 => figures::fig05(f),
        6 => figures::fig06(f),
        7 => figures::fig07(f),
        8 => figures::fig08(f),
        9 => figures::fig09(f),
        10 => figures::fig10(f),
        11 => figures::fig11(f),
        12 => figures::fig12(f),
        13 => figures::fig13(f),
        14 => figures::fig14(f),
        15 => figures::fig15(f),
        16 => figures::fig16(f),
        17 => figures::fig17(f),
        _ => unreachable!("figure index validated at parse time"),
    };
    table_to_json(&table).to_string_compact()
}

/// Computes table `n` (1 or 2) and renders it.
pub(crate) fn table_json_by_index(n: usize) -> String {
    let table = match n {
        1 => figures::table1(),
        2 => figures::table2(),
        _ => unreachable!("table index validated at parse time"),
    };
    table_to_json(&table).to_string_compact()
}

/// Runs an experiment spec and renders the profile.
pub(crate) fn experiment_json(spec: &ExperimentSpec) -> String {
    let run: ProfileRun = spec.run();
    let host = &run.hosts[0];
    let (retiring, frontend, bad_spec, backend) = host.topdown.level1_pct();
    Json::obj(vec![
        ("key", Json::str(spec.canonical_key())),
        (
            "spec",
            Json::obj(vec![
                ("platform", Json::str(spec.platform.name())),
                ("workload", Json::str(spec.workload.name())),
                ("scale", Json::str(spec::scale_name(spec.scale))),
                ("cpu", Json::str(spec.cpu.label())),
                ("mode", Json::str(spec.mode.label())),
                ("harts", Json::Num(spec.harts as f64)),
                (
                    "corun",
                    match spec.corun {
                        Some(m) => Json::str(m.name()),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
        (
            "guest",
            Json::obj(vec![
                ("sim_ticks", Json::Num(run.guest.sim_ticks as f64)),
                (
                    "committed_insts",
                    Json::Num(run.guest.committed_insts as f64),
                ),
                ("host_events", Json::Num(run.guest.host_events as f64)),
                (
                    "guest_mips",
                    Json::Num(run.guest.committed_insts as f64 / run.guest.sim_seconds() / 1e6),
                ),
                (
                    "checksums",
                    Json::Arr(
                        run.guest
                            .guest_checksums
                            .iter()
                            .map(|&c| Json::str(format!("{c:#018x}")))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "host",
            Json::obj(vec![
                ("name", Json::str(&host.name)),
                ("seconds", Json::Num(host.seconds())),
                ("cycles", Json::Num(host.cycles)),
                ("instructions", Json::Num(host.instructions)),
                ("ipc", Json::Num(host.ipc())),
                (
                    "topdown",
                    Json::obj(vec![
                        ("retiring_pct", Json::Num(retiring)),
                        ("frontend_pct", Json::Num(frontend)),
                        ("bad_speculation_pct", Json::Num(bad_spec)),
                        ("backend_pct", Json::Num(backend)),
                    ]),
                ),
                ("l1i_miss_rate", Json::Num(host.l1i_miss_rate)),
                ("l1d_miss_rate", Json::Num(host.l1d_miss_rate)),
                ("itlb_miss_rate", Json::Num(host.itlb_miss_rate)),
                ("dtlb_miss_rate", Json::Num(host.dtlb_miss_rate)),
                (
                    "branch_mispredict_rate",
                    Json::Num(host.branch_mispredict_rate),
                ),
                ("dsb_coverage", Json::Num(host.dsb_coverage)),
            ]),
        ),
        (
            "functions_touched",
            Json::Num(run.profile.functions_touched() as f64),
        ),
    ])
    .to_string_compact()
}

// ---------------------------------------------------------------------
// Inline endpoints
// ---------------------------------------------------------------------

fn healthz_json(shared: &Shared) -> String {
    let uptime = shared.started.elapsed();
    Json::obj(vec![
        ("status", Json::str("ok")),
        ("node_id", Json::str(&shared.node_id)),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        (
            "draining",
            Json::Bool(shared.draining.load(Ordering::Relaxed)),
        ),
        ("uptime_ms", Json::Num(uptime.as_millis() as f64)),
        ("uptime_seconds", Json::Num(uptime.as_secs_f64())),
    ])
    .to_string_compact()
}

/// Renders the self-profiler's span table as JSON: one node per
/// aggregated span path with total and self wall time, plus the
/// collapsed-stack export for flamegraph tooling.
fn profile_json() -> String {
    let nodes = gem5prof_obs::span::snapshot();
    let total_self: u64 = nodes.iter().map(|n| n.self_ns).sum();
    Json::obj(vec![
        ("total_self_ns", Json::Num(total_self as f64)),
        (
            "spans",
            Json::Arr(
                nodes
                    .iter()
                    .map(|n| {
                        Json::obj(vec![
                            (
                                "path",
                                Json::Arr(n.path.iter().map(|s| Json::str(*s)).collect()),
                            ),
                            ("count", Json::Num(n.count as f64)),
                            ("total_ns", Json::Num(n.total_ns as f64)),
                            ("self_ns", Json::Num(n.self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("collapsed", Json::str(&gem5prof_obs::span::collapsed())),
    ])
    .to_string_compact()
}

// ---------------------------------------------------------------------
// Continuous profiling (`/profile/history|diff|snapshot|bless`)
// ---------------------------------------------------------------------

/// Rejects any query key outside `allowed` with a 400 naming the
/// offending key — the same strictness `/figures/*` applies to
/// `fidelity`, so typos fail loudly instead of silently using defaults.
fn check_query(req: &Request, allowed: &[&str]) -> Result<(), Reply> {
    let Some(q) = req.query.as_deref() else {
        return Ok(());
    };
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        let key = pair.split_once('=').map_or(pair, |(k, _)| k);
        if !allowed.contains(&key) {
            let accepted = if allowed.is_empty() {
                "none are accepted".to_string()
            } else {
                let list: Vec<String> = allowed.iter().map(|k| format!("`{k}`")).collect();
                format!("only {} accepted", list.join(", "))
            };
            return Err(plain(
                400,
                &format!("unknown query parameter `{key}` ({accepted})"),
            ));
        }
    }
    Ok(())
}

/// The profstore, or the bare 503 (no `Retry-After`: this is a
/// configuration condition, not backpressure — clients fail fast).
fn store_or_503(shared: &Shared) -> Result<&Arc<ProfStore>, Reply> {
    shared.profstore.as_ref().ok_or_else(|| {
        plain(
            503,
            "continuous profiling store not configured (start with --profile-dir)",
        )
    })
}

/// Resolves a snapshot selector (`latest`, `blessed`, or an id) or
/// renders the 404 naming it.
fn resolve_or_404(store: &ProfStore, sel: &str) -> Result<Arc<profstore::Snapshot>, Reply> {
    store
        .resolve(sel)
        .and_then(|id| store.get(id))
        .ok_or_else(|| plain(404, &format!("unknown snapshot `{sel}`")))
}

/// Captures the current profiling window: the span table and flattened
/// metrics go into the store, then the span table resets so the next
/// snapshot starts a fresh window. Consecutive snapshots are disjoint.
fn capture_snapshot(store: &ProfStore, label: &str, node_id: &str) -> u64 {
    let spans = gem5prof_obs::span::snapshot()
        .into_iter()
        .map(|n| profstore::SpanRow {
            path: n.path.join(";"),
            count: n.count,
            total_ns: n.total_ns,
            self_ns: n.self_ns,
        })
        .collect();
    let metrics = gem5prof_obs::global()
        .flat_values()
        .into_iter()
        .map(|(name, value)| profstore::MetricRow { name, value })
        .collect();
    gem5prof_obs::span::reset();
    store.store(label, node_id, spans, metrics)
}

fn snapshot_meta_json(s: &profstore::Snapshot) -> Json {
    Json::obj(vec![
        ("id", Json::Num(s.id as f64)),
        ("taken_unix_ms", Json::Num(s.taken_unix_ms as f64)),
        ("label", Json::str(&s.label)),
        ("node_id", Json::str(&s.node_id)),
        ("spans", Json::Num(s.spans.len() as f64)),
        ("total_self_ns", Json::Num(s.total_self_ns() as f64)),
    ])
}

fn profile_history(req: &Request, shared: &Shared) -> Reply {
    if let Err(r) = check_query(req, &[]) {
        return r;
    }
    let store = match store_or_503(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let stats = store.stats();
    let body = Json::obj(vec![
        (
            "snapshots",
            Json::Arr(
                store
                    .history()
                    .iter()
                    .map(|s| snapshot_meta_json(s))
                    .collect(),
            ),
        ),
        (
            "blessed",
            store
                .blessed()
                .map_or(Json::Null, |id| Json::Num(id as f64)),
        ),
        ("capacity", Json::Num(store.capacity() as f64)),
        (
            "stats",
            Json::obj(vec![
                ("snapshots", Json::Num(stats.snapshots as f64)),
                ("writes", Json::Num(stats.writes as f64)),
                ("write_errors", Json::Num(stats.write_errors as f64)),
                ("corrupt", Json::Num(stats.corrupt as f64)),
                ("stale", Json::Num(stats.stale as f64)),
            ]),
        ),
    ])
    .to_string_compact();
    (200, body, Vec::new())
}

fn profile_snapshot(req: &Request, shared: &Shared) -> Reply {
    if let Err(r) = check_query(req, &["label"]) {
        return r;
    }
    let store = match store_or_503(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let label = req.query_param("label").unwrap_or("manual");
    let id = capture_snapshot(store, label, &shared.node_id);
    (
        200,
        Json::obj(vec![
            ("id", Json::Num(id as f64)),
            ("label", Json::str(label)),
        ])
        .to_string_compact(),
        Vec::new(),
    )
}

fn profile_bless(req: &Request, shared: &Shared) -> Reply {
    if let Err(r) = check_query(req, &["id"]) {
        return r;
    }
    let store = match store_or_503(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let sel = req.query_param("id").unwrap_or("latest");
    let snap = match resolve_or_404(store, sel) {
        Ok(s) => s,
        Err(r) => return r,
    };
    match store.bless(snap.id) {
        Ok(id) => (
            200,
            Json::obj(vec![("blessed", Json::Num(id as f64))]).to_string_compact(),
            Vec::new(),
        ),
        Err(e) => plain(500, &format!("cannot persist blessed marker: {e}")),
    }
}

fn profile_diff(req: &Request, shared: &Shared) -> Reply {
    if let Err(r) = check_query(
        req,
        &[
            "a",
            "b",
            "top",
            "format",
            "threshold",
            "min_delta_ns",
            "spans",
        ],
    ) {
        return r;
    }
    let store = match store_or_503(shared) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let a = match resolve_or_404(store, req.query_param("a").unwrap_or("blessed")) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let b = match resolve_or_404(store, req.query_param("b").unwrap_or("latest")) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let top: usize = match req.query_param("top").map(str::parse).transpose() {
        Ok(t) => t.unwrap_or(20),
        Err(_) => return plain(400, "bad top (want an unsigned integer)"),
    };
    let threshold: f64 = match req.query_param("threshold").map(str::parse).transpose() {
        Ok(t) => t.unwrap_or(profstore::DEFAULT_THRESHOLD_PCT),
        Err(_) => return plain(400, "bad threshold (want a percentage number)"),
    };
    let min_delta_ns: f64 = match req.query_param("min_delta_ns").map(str::parse).transpose() {
        Ok(t) => t.unwrap_or(profstore::DEFAULT_MIN_DELTA_NS),
        Err(_) => return plain(400, "bad min_delta_ns (want nanoseconds)"),
    };
    let spans: Vec<String> = match req.query_param("spans") {
        None => profstore::DEFAULT_HOT_SPANS
            .iter()
            .map(|s| s.to_string())
            .collect(),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect(),
    };
    let report = profstore::diff::diff(&a, &b);
    match req.query_param("format").unwrap_or("json") {
        "collapsed" => (
            200,
            profstore::collapsed(&report, top),
            vec![("content-type".into(), "text/plain; charset=utf-8".into())],
        ),
        "json" => {
            let gate = profstore::gate(&a, &b, &spans, threshold, min_delta_ns);
            let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
            let body = Json::obj(vec![
                ("a", snapshot_meta_json(&a)),
                ("b", snapshot_meta_json(&b)),
                (
                    "rows",
                    Json::Arr(
                        report
                            .rows
                            .iter()
                            .take(top)
                            .map(|r| {
                                Json::obj(vec![
                                    ("path", Json::str(&r.path)),
                                    ("a_count", Json::Num(r.a_count as f64)),
                                    ("a_self_ns", Json::Num(r.a_self_ns as f64)),
                                    ("b_count", Json::Num(r.b_count as f64)),
                                    ("b_self_ns", Json::Num(r.b_self_ns as f64)),
                                    ("a_self_per_call_ns", Json::Num(r.a_self_per_call_ns)),
                                    ("b_self_per_call_ns", Json::Num(r.b_self_per_call_ns)),
                                    ("delta_pct", opt(r.delta_pct)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "gate",
                    Json::obj(vec![
                        ("threshold_pct", Json::Num(gate.threshold_pct)),
                        ("min_delta_ns", Json::Num(gate.min_delta_ns)),
                        (
                            "hot_spans",
                            Json::Arr(spans.iter().map(|s| Json::str(s)).collect()),
                        ),
                        (
                            "checks",
                            Json::Arr(
                                gate.checks
                                    .iter()
                                    .map(|c| {
                                        Json::obj(vec![
                                            ("span", Json::str(&c.span)),
                                            ("a_self_per_call_ns", Json::Num(c.a_self_per_call_ns)),
                                            ("b_self_per_call_ns", Json::Num(c.b_self_per_call_ns)),
                                            ("delta_pct", opt(c.delta_pct)),
                                            ("regressed", Json::Bool(c.regressed)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("pass", Json::Bool(gate.pass)),
                    ]),
                ),
            ])
            .to_string_compact();
            (200, body, Vec::new())
        }
        other => plain(400, &format!("bad format `{other}` (json|collapsed)")),
    }
}

fn stats_json(shared: &Shared) -> String {
    let s = &shared.stats;
    let (cache_snap, cache_len, cache_cap) = shared.engine.cache_view();
    let trace = gem5prof::runner::cache_stats();
    let load = |a: &std::sync::atomic::AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
    Json::obj(vec![
        (
            "server",
            Json::obj(vec![
                (
                    "uptime_ms",
                    Json::Num(shared.started.elapsed().as_millis() as f64),
                ),
                (
                    "draining",
                    Json::Bool(shared.draining.load(Ordering::Relaxed)),
                ),
                ("workers", Json::Num(shared.engine.workers() as f64)),
                ("requests", load(&s.requests)),
                (
                    "responses",
                    Json::obj(vec![
                        ("200", load(&s.st_200)),
                        ("400", load(&s.st_400)),
                        ("404", load(&s.st_404)),
                        ("405", load(&s.st_405)),
                        ("429", load(&s.st_429)),
                        ("500", load(&s.st_500)),
                        ("503", load(&s.st_503)),
                        ("504", load(&s.st_504)),
                        ("other", load(&s.st_other)),
                    ]),
                ),
                (
                    "queue",
                    Json::obj(vec![
                        ("depth", Json::Num(shared.engine.queue_depth() as f64)),
                        ("capacity", Json::Num(shared.engine.queue_cap() as f64)),
                        ("in_flight", Json::Num(shared.engine.in_flight() as f64)),
                        ("rejected", load(&s.st_429)),
                    ]),
                ),
            ]),
        ),
        (
            "result_cache",
            Json::obj({
                let mut fields = vec![
                    ("engine_id", Json::Num(shared.engine.id() as f64)),
                    ("hits", Json::Num(cache_snap.hits as f64)),
                    ("misses", Json::Num(cache_snap.misses as f64)),
                    ("insertions", Json::Num(cache_snap.insertions as f64)),
                    ("evictions", Json::Num(cache_snap.evictions as f64)),
                    ("entries", Json::Num(cache_len as f64)),
                    ("capacity", Json::Num(cache_cap as f64)),
                    ("hit_rate", Json::Num(cache_snap.hit_rate())),
                    ("computes", Json::Num(shared.engine.computes() as f64)),
                    ("coalesced", Json::Num(shared.engine.coalesced() as f64)),
                    ("peer_fetch", {
                        let peer = shared.engine.peer_view();
                        Json::obj(vec![
                            ("hits", Json::Num(peer.hits as f64)),
                            ("misses", Json::Num(peer.misses as f64)),
                            ("errors", Json::Num(peer.errors as f64)),
                        ])
                    }),
                ];
                if let Some((disk, entries)) = shared.engine.disk_view() {
                    fields.push((
                        "disk",
                        Json::obj(vec![
                            ("hits", Json::Num(disk.hits as f64)),
                            ("misses", Json::Num(disk.misses as f64)),
                            ("writes", Json::Num(disk.writes as f64)),
                            ("write_errors", Json::Num(disk.write_errors as f64)),
                            ("corrupt", Json::Num(disk.corrupt as f64)),
                            ("stale", Json::Num(disk.stale as f64)),
                            ("entries", Json::Num(entries as f64)),
                        ]),
                    ));
                }
                fields
            }),
        ),
        (
            "trace_cache",
            Json::obj(vec![
                ("hits", Json::Num(trace.hits as f64)),
                ("misses", Json::Num(trace.misses as f64)),
                ("insertions", Json::Num(trace.insertions as f64)),
                ("resident_events", Json::Num(trace.resident_events as f64)),
                ("resident_bytes", Json::Num(trace.resident_bytes as f64)),
                ("host_memo_hits", Json::Num(trace.host_memo_hits as f64)),
                ("host_replays", Json::Num(trace.host_replays as f64)),
            ]),
        ),
        (
            "profstore",
            match &shared.profstore {
                None => Json::Null,
                Some(store) => {
                    let ps = store.stats();
                    Json::obj(vec![
                        ("snapshots", Json::Num(ps.snapshots as f64)),
                        ("writes", Json::Num(ps.writes as f64)),
                        ("write_errors", Json::Num(ps.write_errors as f64)),
                        ("corrupt", Json::Num(ps.corrupt as f64)),
                        ("stale", Json::Num(ps.stale as f64)),
                        ("entries", Json::Num(store.len() as f64)),
                        ("capacity", Json::Num(store.capacity() as f64)),
                        (
                            "blessed",
                            store
                                .blessed()
                                .map_or(Json::Null, |id| Json::Num(id as f64)),
                        ),
                    ])
                }
            },
        ),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_specs_parse_and_reject() {
        let ok = parse_experiment(
            br#"{"platform":"m1_pro","workload":"dedup","cpu":"atomic","knobs":"thp"}"#,
        )
        .unwrap();
        assert_eq!(ok.platform, PlatformId::M1Pro);
        assert_eq!(ok.scale, gem5sim_workloads::Scale::Test, "scale defaults");
        assert!(ok.canonical_key().contains("knobs=thp48"));

        for (body, needle) in [
            (&b"not json"[..], "malformed JSON"),
            (&b"[1,2]"[..], "must be a JSON object"),
            (&br#"{"workload":"dedup","cpu":"o3"}"#[..], "platform"),
            (
                &br#"{"platform":"intel_xeon","workload":"quake","cpu":"o3"}"#[..],
                "workload",
            ),
            (
                &br#"{"platform":"intel_xeon","workload":"dedup","cpu":"486"}"#[..],
                "cpu",
            ),
            (
                &br#"{"platform":"intel_xeon","workload":"dedup","cpu":"o3","knobs":"warp"}"#[..],
                "knob",
            ),
        ] {
            let err = parse_experiment(body).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention {needle}");
        }
    }

    #[test]
    fn unknown_experiment_fields_are_rejected_by_name() {
        for (body, offender) in [
            (
                // typo'd axis: must 400 naming the key, not silently default
                &br#"{"platform":"intel_xeon","workload":"alu","cpu":"timing","hartz":4}"#[..],
                "hartz",
            ),
            (
                &br#"{"platform":"intel_xeon","workload":"dedup","cpu":"o3","fidelity":"paper"}"#[..],
                "fidelity",
            ),
        ] {
            let err = parse_experiment(body).unwrap_err();
            assert!(
                err.contains(&format!("`{offender}`")),
                "`{err}` must name the offending key"
            );
        }
    }

    #[test]
    fn corun_axes_parse_and_validate() {
        let ok = parse_experiment(
            br#"{"platform":"intel_xeon","workload":"mem_stride","cpu":"timing",
                "harts":4,"corun":"alu","corun_div":2}"#,
        )
        .unwrap();
        assert_eq!(ok.harts, 4);
        assert_eq!(ok.corun, Some(gem5sim_workloads::Microbench::Alu));
        assert_eq!(ok.corun_div, 2);
        assert!(ok.canonical_key().ends_with(":harts=4:corun=alu:div=2"));

        for (body, needle) in [
            (
                // harts outside 1..=8
                &br#"{"platform":"intel_xeon","workload":"alu","cpu":"timing","harts":0}"#[..],
                "harts",
            ),
            (
                &br#"{"platform":"intel_xeon","workload":"alu","cpu":"timing","harts":"two"}"#[..],
                "harts",
            ),
            (
                // corun partner must itself be a microbench name
                &br#"{"platform":"intel_xeon","workload":"alu","cpu":"timing","corun":"dedup"}"#[..],
                "corun",
            ),
            (
                // corun on a non-microbench workload is meaningless
                &br#"{"platform":"intel_xeon","workload":"dedup","cpu":"timing","corun":"alu"}"#[..],
                "microbench",
            ),
        ] {
            let err = parse_experiment(body).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention {needle}");
        }
    }

    #[test]
    fn figure_paths_parse() {
        let req = |path: &str, q: Option<&str>| Request {
            method: "GET".into(),
            path: path.into(),
            query: q.map(String::from),
            headers: vec![],
            body: vec![],
            close: false,
        };
        let r = req("/figures/fig01", None);
        assert_eq!(
            parse_figure_path("fig01", &r).unwrap(),
            Work::Figure(1, Fidelity::Quick)
        );
        let r = req("/figures/fig15", Some("fidelity=paper"));
        assert_eq!(
            parse_figure_path("fig15", &r).unwrap(),
            Work::Figure(15, Fidelity::Paper)
        );
        let r = req("/figures/fig7", None);
        assert_eq!(
            parse_figure_path("fig7", &r).unwrap(),
            Work::Figure(7, Fidelity::Quick)
        );
        let r = req("/figures/fig17", None);
        assert_eq!(
            parse_figure_path("fig17", &r).unwrap(),
            Work::Figure(17, Fidelity::Quick)
        );
        for bad in ["fig0", "fig18", "table1", ""] {
            let r = req("/figures/x", None);
            assert_eq!(parse_figure_path(bad, &r).unwrap_err().0, 404, "{bad}");
        }
        let r = req("/figures/fig01", Some("fidelity=warp"));
        assert_eq!(parse_figure_path("fig01", &r).unwrap_err().0, 400);
    }

    #[test]
    fn unknown_query_parameters_are_rejected_by_name() {
        let req = |q: &str| Request {
            method: "GET".into(),
            path: "/figures/fig01".into(),
            query: Some(q.into()),
            headers: vec![],
            body: vec![],
            close: false,
        };
        for (q, offender) in [
            ("fidelty=paper", "fidelty"),        // typo'd key
            ("fidelity=quick&depth=3", "depth"), // extra key after a valid one
            ("verbose", "verbose"),              // bare key without a value
        ] {
            let (status, msg) = parse_figure_path("fig01", &req(q)).unwrap_err();
            assert_eq!(status, 400, "{q}");
            assert!(
                msg.contains(&format!("`{offender}`")),
                "`{msg}` must name the offending key for {q}"
            );
        }
        // A valid query still parses, including a duplicate valid key.
        assert!(parse_figure_path("fig01", &req("fidelity=paper")).is_ok());
        assert!(parse_figure_path("fig01", &req("fidelity=paper&fidelity=quick")).is_ok());
    }

    #[test]
    fn profile_json_is_well_formed() {
        {
            let _s = gem5prof_obs::span("routes_profile_test");
        }
        let doc = minjson::parse(&profile_json()).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert!(!spans.is_empty());
        let seen = spans.iter().any(|s| {
            s.get("path")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .any(|p| p.as_str() == Some("routes_profile_test"))
        });
        assert!(seen, "the span recorded above must appear in /profile");
        for s in spans {
            let total = s.get("total_ns").unwrap().as_f64().unwrap();
            let own = s.get("self_ns").unwrap().as_f64().unwrap();
            assert!(own <= total, "self time cannot exceed total");
        }
    }

    #[test]
    fn table_json_has_paper_shape() {
        let body = table_json_by_index(2);
        let doc = minjson::parse(&body).unwrap();
        assert!(doc
            .get("title")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("Table II"));
        assert!(!doc.get("rows").unwrap().as_arr().unwrap().is_empty());
    }
}
