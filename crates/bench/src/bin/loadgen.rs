//! `loadgen` — closed-loop load generator for `gem5prof-served`.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--clients N] [--requests M] [--paths P1,P2,…]
//!         [--duplicate-fraction F] [--json] [--profile-snapshot]
//!         [--open-loop --connections N]
//! ```
//!
//! Spawns `N` concurrent clients, each holding one keep-alive
//! connection and issuing `M` requests back-to-back (closed loop: the
//! next request starts when the previous response lands). Clients cycle
//! through the given paths (default `/figures/fig01`), so the default
//! workload is repeated-spec and exercises the server's result cache.
//!
//! `--duplicate-fraction F` switches to a duplicate-heavy mix: each
//! request goes to the first path (the shared hot key) with probability
//! `F`, deterministically in the (client, request) pair, and cycles
//! through the remaining paths otherwise. With `F` near 1 every client
//! hammers one key at once — the workload single-flight coalescing is
//! built for: a coalescing server computes the hot key once, a
//! `--no-coalesce` server once per concurrent duplicate.
//!
//! Reports throughput, latency percentiles (plus the +Inf overflow
//! count, so a saturated histogram is visible instead of silently
//! clamping), a status-code histogram, retries, dropped connections
//! (any transport error that survives its retries), and the
//! server-side result cache hit rate read from `/stats` afterwards.
//! `--json` prints the same report as a JSON object (the format stored
//! in `BENCH_serving.json`). `--profile-snapshot` captures a profstore
//! snapshot (`POST /profile/snapshot?label=loadgen`) after the run and
//! records its id in the report's config block, so every bench result
//! is diffable (`servectl profile diff`) after the fact.
//!
//! Clients are well-behaved: 429s honor the server's `Retry-After` and
//! transport errors reconnect with jittered exponential backoff (see
//! `gem5prof_served::retry`); retries are reported separately from drops.
//!
//! `--open-loop --connections N` switches to the connection-scaling
//! mode: one thread drives `N` concurrent keep-alive connections
//! through the same readiness loop (`gem5prof_served::poll`) the
//! server core uses, each issuing `--requests` requests. A
//! thread-per-connection generator cannot hold 10 000 sockets; this
//! one can, which is exactly the regime the readiness-core tentpole
//! exists for. The report gains `mode`, `connections`, and
//! `max_established` fields.
//!
//! Latencies are recorded into one lock-free gem5prof-obs histogram
//! shared by every client thread (relaxed atomics, no contention on the
//! hot path); percentiles are histogram quantiles — the same estimate a
//! Prometheus `histogram_quantile` over the server's own request-path
//! histograms would give.

use gem5prof_obs::metrics::duration_buckets;
use gem5prof_obs::HistogramSnapshot;
use gem5prof_served::http::{one_shot, ClientConn};
use gem5prof_served::minjson::{self, Json};
use gem5prof_served::retry::{request_with_retry, RetryPolicy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Outcome {
    statuses: BTreeMap<u16, u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--clients N] [--requests M] [--paths P1,P2,…] \
         [--duplicate-fraction F] [--json] [--profile-snapshot] \
         [--open-loop --connections N]"
    );
    std::process::exit(2);
}

/// splitmix64: the deterministic per-(client, request) coin for
/// `--duplicate-fraction` (same generator the chaos plan uses).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A histogram quantile in whole microseconds.
fn quantile_us(snap: &HistogramSnapshot, q: f64) -> u64 {
    snap.quantile(q).map_or(0, |s| (s * 1e6).round() as u64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7005".to_string();
    let mut clients: usize = 64;
    let mut requests: usize = 100;
    let mut paths: Vec<String> = vec!["/figures/fig01".into()];
    let mut duplicate_fraction: Option<f64> = None;
    let mut json_out = false;
    let mut profile_snapshot = false;
    let mut open_loop = false;
    let mut connections: usize = 1024;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                i += 2;
            }
            "--clients" => {
                clients = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--requests" => {
                requests = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--paths" => {
                paths = args
                    .get(i + 1)
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|p| {
                        if p.starts_with('/') {
                            p.to_string()
                        } else {
                            format!("/{p}")
                        }
                    })
                    .collect();
                i += 2;
            }
            "--duplicate-fraction" => {
                duplicate_fraction = Some(
                    args.get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .filter(|f: &f64| (0.0..=1.0).contains(f))
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--open-loop" => {
                open_loop = true;
                i += 1;
            }
            "--connections" => {
                connections = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--json" => {
                json_out = true;
                i += 1;
            }
            "--profile-snapshot" => {
                profile_snapshot = true;
                i += 1;
            }
            _ => usage(),
        }
    }

    // Warm-up probe: fail fast (and warm the first figure) before
    // unleashing the fleet.
    if let Err(e) = one_shot(&addr, "GET", "/healthz", None, Duration::from_secs(10)) {
        eprintln!("loadgen: server at {addr} unreachable: {e}");
        std::process::exit(3);
    }

    if open_loop {
        run_open_loop(&addr, connections, requests, &paths, json_out);
    }

    let dropped = Arc::new(AtomicU64::new(0));
    let retried = Arc::new(AtomicU64::new(0));
    let outcomes: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
    let latency = gem5prof_obs::global().histogram(
        "loadgen_request_seconds",
        "client-observed request latency (connect + request + response)",
        duration_buckets(),
    );
    let start = Instant::now();

    std::thread::scope(|scope| {
        for c in 0..clients {
            let addr = addr.clone();
            let paths = paths.clone();
            let dropped = Arc::clone(&dropped);
            let retried = Arc::clone(&retried);
            let outcomes = Arc::clone(&outcomes);
            let latency = Arc::clone(&latency);
            scope.spawn(move || {
                let mut out = Outcome {
                    statuses: BTreeMap::new(),
                };
                let policy = RetryPolicy {
                    seed: c as u64,
                    ..RetryPolicy::default()
                };
                let mut conn: Option<ClientConn> = None;
                for r in 0..requests {
                    let path = match duplicate_fraction {
                        // Hot-key coin flip, deterministic in (client,
                        // request): heads goes to the shared first path,
                        // tails cycles through the rest (or the whole
                        // list when there is no rest).
                        Some(f) => {
                            let coin =
                                splitmix64(((c as u64) << 32) | r as u64) as f64 / u64::MAX as f64;
                            if coin < f || paths.len() == 1 {
                                &paths[0]
                            } else {
                                &paths[1 + (c + r) % (paths.len() - 1)]
                            }
                        }
                        None => &paths[(c + r) % paths.len()],
                    };
                    let t0 = Instant::now();
                    // Latency covers the whole logical request, retries
                    // and backoff included — what a caller would feel.
                    let attempt = request_with_retry(
                        &mut conn,
                        &addr,
                        "GET",
                        path,
                        None,
                        &policy,
                        ((c as u64) << 32) | r as u64,
                    );
                    retried.fetch_add(attempt.retries as u64, Ordering::Relaxed);
                    match attempt.result {
                        Ok((status, _body)) => {
                            latency.observe_duration(t0.elapsed());
                            *out.statuses.entry(status).or_insert(0) += 1;
                        }
                        Err(_) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                outcomes.lock().unwrap().push(out);
            });
        }
    });
    let wall = start.elapsed();

    let outcomes = std::mem::take(&mut *outcomes.lock().unwrap());
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    for o in &outcomes {
        for (&s, &n) in &o.statuses {
            *statuses.entry(s).or_insert(0) += n;
        }
    }
    let snap = latency.snapshot();
    let completed = snap.count();
    let overflow = snap.overflow();
    let dropped = dropped.load(Ordering::Relaxed);
    let retried = retried.load(Ordering::Relaxed);
    let rps = completed as f64 / wall.as_secs_f64();
    let (p50, p90, p95, p99) = (
        quantile_us(&snap, 0.50),
        quantile_us(&snap, 0.90),
        quantile_us(&snap, 0.95),
        quantile_us(&snap, 0.99),
    );

    // Server-side view: result-cache hit rate at steady state.
    let hit_rate = one_shot(&addr, "GET", "/stats", None, Duration::from_secs(10))
        .ok()
        .and_then(|(_, body)| minjson::parse(&body).ok())
        .and_then(|doc| doc.get("result_cache")?.get("hit_rate")?.as_f64());

    // Freeze this run's server-side profile window into the profstore
    // and record the snapshot id as provenance. Null when the daemon
    // has no `--profile-dir` (503) or the capture fails.
    let snapshot_id = if profile_snapshot {
        one_shot(
            &addr,
            "POST",
            "/profile/snapshot?label=loadgen",
            Some(""),
            Duration::from_secs(10),
        )
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| minjson::parse(&body).ok())
        .and_then(|doc| doc.get("id")?.as_f64())
    } else {
        None
    };

    if json_out {
        let status_obj: Vec<(String, Json)> = statuses
            .iter()
            .map(|(s, n)| (s.to_string(), Json::Num(*n as f64)))
            .collect();
        let report = Json::obj(vec![
            (
                "config",
                Json::obj(vec![
                    ("clients", Json::Num(clients as f64)),
                    ("requests_per_client", Json::Num(requests as f64)),
                    ("paths", Json::Arr(paths.iter().map(Json::str).collect())),
                    (
                        "duplicate_fraction",
                        duplicate_fraction.map_or(Json::Null, Json::Num),
                    ),
                    // Provenance: which build produced this number.
                    // `commit` comes from the environment because the
                    // binary can't know its own git state
                    // (scripts/bench_serving.sh exports it); exec tier
                    // and threads resolve from the same env the daemon
                    // under test was started in.
                    (
                        "commit",
                        std::env::var("GEM5PROF_COMMIT").map_or(Json::Null, Json::str),
                    ),
                    ("exec_tier", Json::str(gem5prof::exec_tier().label())),
                    ("threads", Json::Num(gem5prof::threads() as f64)),
                    (
                        "profile_snapshot",
                        snapshot_id.map_or(Json::Null, Json::Num),
                    ),
                ]),
            ),
            ("wall_seconds", Json::Num(wall.as_secs_f64())),
            ("completed", Json::Num(completed as f64)),
            ("dropped_connections", Json::Num(dropped as f64)),
            ("retries", Json::Num(retried as f64)),
            ("throughput_rps", Json::Num(rps)),
            (
                "latency_us",
                Json::obj(vec![
                    ("p50", Json::Num(p50 as f64)),
                    ("p90", Json::Num(p90 as f64)),
                    ("p95", Json::Num(p95 as f64)),
                    ("p99", Json::Num(p99 as f64)),
                    // Samples past the last finite bucket bound: if this
                    // is nonzero the percentiles above are floors, not
                    // estimates.
                    ("overflow", Json::Num(overflow as f64)),
                ]),
            ),
            ("responses", Json::Obj(status_obj)),
            (
                "result_cache_hit_rate",
                hit_rate.map_or(Json::Null, Json::Num),
            ),
        ]);
        println!("{}", report.to_string_pretty());
    } else {
        println!(
            "loadgen: {clients} clients × {requests} requests over {:.2}s",
            wall.as_secs_f64()
        );
        println!("  completed:   {completed} ({rps:.0} req/s)");
        println!("  dropped:     {dropped}");
        println!("  retries:     {retried}");
        println!("  latency:     p50 {p50} µs, p90 {p90} µs, p95 {p95} µs, p99 {p99} µs");
        if overflow > 0 {
            println!("  overflow:    {overflow} samples past the last histogram bound");
        }
        for (s, n) in &statuses {
            println!("  status {s}:  {n}");
        }
        if let Some(h) = hit_rate {
            println!("  result-cache hit rate: {:.1}%", 100.0 * h);
        }
        if let Some(id) = snapshot_id {
            println!("  profile snapshot: {}", id as u64);
        }
    }
    std::process::exit(if dropped == 0 { 0 } else { 1 });
}

// ---------------------------------------------------------------------
// Open-loop connection-scaling mode
// ---------------------------------------------------------------------

/// One nonblocking keep-alive client connection in the open-loop
/// fleet, with a minimal HTTP/1.1 response parser (status line +
/// `Content-Length`; every endpoint this mode targets answers with a
/// sized body).
struct OpenConn {
    stream: std::net::TcpStream,
    wbuf: Vec<u8>,
    woff: usize,
    rbuf: Vec<u8>,
    /// When the current in-flight request was queued.
    t0: Instant,
    sent: usize,
    done: usize,
    /// The poller interest last registered, to skip no-op `modify`s.
    want_write: bool,
}

/// Extracts `(status, total_response_len)` once a full head is
/// buffered; `None` until then.
fn parse_response_head(rbuf: &[u8]) -> Option<(u16, usize)> {
    let head_end = rbuf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&rbuf[..head_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let body_len = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    Some((status, head_end + 4 + body_len))
}

/// Drives `connections` concurrent keep-alive connections from this
/// one thread with the server's own readiness loop: connect in waves,
/// keep exactly one request in flight per connection until each has
/// completed `requests`, record latency per response. Exits the
/// process with the report.
fn run_open_loop(
    addr: &str,
    connections: usize,
    requests: usize,
    paths: &[String],
    json_out: bool,
) -> ! {
    use gem5prof_served::poll::{self, Event, Poller};
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    const WAVE: usize = 256;
    /// Whole-run safety valve: anything still unfinished by then is a
    /// dropped connection, not a hang.
    const RUN_DEADLINE: Duration = Duration::from_secs(120);

    let mut poller = Poller::new().unwrap_or_else(|e| {
        eprintln!("loadgen: cannot create poller: {e}");
        std::process::exit(3);
    });
    let latency = gem5prof_obs::global().histogram(
        "loadgen_open_loop_request_seconds",
        "client-observed request latency in open-loop mode",
        duration_buckets(),
    );
    let mut conns: Vec<Option<OpenConn>> = Vec::with_capacity(connections);
    // Finished connections are parked open, not closed: the
    // `max_established` this mode reports means sockets that were
    // genuinely concurrent, which is the whole point of the run.
    let mut parked: Vec<std::net::TcpStream> = Vec::new();
    let mut statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut dropped: u64 = 0;
    let mut open: usize = 0;
    let mut max_established: usize = 0;
    let mut active: usize = 0;
    let start = Instant::now();

    let request_bytes = |idx: usize, r: usize| -> Vec<u8> {
        let path = &paths[(idx + r) % paths.len()];
        format!("GET {path} HTTP/1.1\r\nhost: gem5prof\r\n\r\n").into_bytes()
    };

    // Queue the next request on `c` (or retire the connection), then
    // flush as much as the socket accepts right now.
    fn pump_write(c: &mut OpenConn) -> std::io::Result<()> {
        while c.woff < c.wbuf.len() {
            match c.stream.write(&c.wbuf[c.woff..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => c.woff += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if c.woff == c.wbuf.len() {
            c.wbuf.clear();
            c.woff = 0;
        }
        Ok(())
    }

    // Connect in waves, pumping the poller between waves so early
    // connections make progress (and don't idle out) while late ones
    // are still dialing.
    let mut events: Vec<Event> = Vec::new();
    let mut next_wave = 0usize;
    loop {
        // Dial the next wave.
        let wave_end = (next_wave + WAVE).min(connections);
        for idx in next_wave..wave_end {
            match std::net::TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = poll::set_nonblocking(stream.as_raw_fd());
                    let mut c = OpenConn {
                        stream,
                        wbuf: request_bytes(idx, 0),
                        woff: 0,
                        rbuf: Vec::new(),
                        t0: Instant::now(),
                        sent: 1,
                        done: 0,
                        want_write: false,
                    };
                    let flushed = pump_write(&mut c).is_ok();
                    c.want_write = !c.wbuf.is_empty();
                    if !flushed
                        || poller
                            .add(c.stream.as_raw_fd(), idx as u64, true, c.want_write)
                            .is_err()
                    {
                        dropped += 1;
                        conns.push(None);
                        continue;
                    }
                    open += 1;
                    active += 1;
                    max_established = max_established.max(open);
                    conns.push(Some(c));
                }
                Err(_) => {
                    dropped += 1;
                    conns.push(None);
                }
            }
        }
        next_wave = wave_end;

        if active == 0 && next_wave >= connections {
            break;
        }
        if start.elapsed() > RUN_DEADLINE {
            dropped += active as u64;
            break;
        }

        // One poller pass: short wait while still dialing, longer once
        // every connection is up.
        let wait = if next_wave < connections {
            Duration::from_millis(1)
        } else {
            Duration::from_millis(100)
        };
        if poller.wait(&mut events, Some(wait)).is_err() {
            break;
        }
        for ev in events.drain(..) {
            let idx = ev.token as usize;
            let Some(slot) = conns.get_mut(idx) else {
                continue;
            };
            let mut dead = ev.error && !ev.readable;
            let mut retired = false;
            {
                let Some(c) = slot.as_mut() else { continue };
                if !dead && ev.writable && pump_write(c).is_err() {
                    dead = true;
                }
                if !dead && ev.readable {
                    let mut buf = [0u8; 16 * 1024];
                    loop {
                        match c.stream.read(&mut buf) {
                            Ok(0) => {
                                dead = true;
                                break;
                            }
                            Ok(n) => {
                                c.rbuf.extend_from_slice(&buf[..n]);
                                // Peel off complete responses; several
                                // can land in one readable burst.
                                while let Some((status, total)) = parse_response_head(&c.rbuf) {
                                    if c.rbuf.len() < total {
                                        break;
                                    }
                                    c.rbuf.drain(..total);
                                    latency.observe_duration(c.t0.elapsed());
                                    *statuses.entry(status).or_insert(0) += 1;
                                    c.done += 1;
                                    if c.done < requests {
                                        c.wbuf = request_bytes(idx, c.sent);
                                        c.woff = 0;
                                        c.sent += 1;
                                        c.t0 = Instant::now();
                                        if pump_write(c).is_err() {
                                            dead = true;
                                        }
                                    } else {
                                        // Finished cleanly: retire.
                                        retired = true;
                                        break;
                                    }
                                }
                                if retired || dead {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                }
                if !dead && !retired {
                    let want_write = !c.wbuf.is_empty();
                    if want_write != c.want_write {
                        c.want_write = want_write;
                        let _ = poller.modify(c.stream.as_raw_fd(), idx as u64, true, want_write);
                    }
                }
            }
            if retired || dead {
                let c = slot.take().expect("slot still occupied");
                let _ = poller.delete(c.stream.as_raw_fd());
                active -= 1;
                if dead {
                    // A connection that dies mid-run is a drop unless
                    // it already delivered everything we asked of it.
                    if c.done < requests {
                        dropped += 1;
                    }
                    open -= 1;
                } else {
                    parked.push(c.stream);
                }
            }
        }
    }
    let wall = start.elapsed();

    let snap = latency.snapshot();
    let completed = snap.count();
    let rps = completed as f64 / wall.as_secs_f64();
    let (p50, p90, p95, p99) = (
        quantile_us(&snap, 0.50),
        quantile_us(&snap, 0.90),
        quantile_us(&snap, 0.95),
        quantile_us(&snap, 0.99),
    );

    if json_out {
        let status_obj: Vec<(String, Json)> = statuses
            .iter()
            .map(|(s, n)| (s.to_string(), Json::Num(*n as f64)))
            .collect();
        let report = Json::obj(vec![
            (
                "config",
                Json::obj(vec![
                    ("mode", Json::str("open_loop")),
                    ("connections", Json::Num(connections as f64)),
                    ("requests_per_connection", Json::Num(requests as f64)),
                    ("paths", Json::Arr(paths.iter().map(Json::str).collect())),
                    (
                        "commit",
                        std::env::var("GEM5PROF_COMMIT").map_or(Json::Null, Json::str),
                    ),
                ]),
            ),
            ("wall_seconds", Json::Num(wall.as_secs_f64())),
            ("max_established", Json::Num(max_established as f64)),
            ("completed", Json::Num(completed as f64)),
            ("dropped_connections", Json::Num(dropped as f64)),
            ("throughput_rps", Json::Num(rps)),
            (
                "latency_us",
                Json::obj(vec![
                    ("p50", Json::Num(p50 as f64)),
                    ("p90", Json::Num(p90 as f64)),
                    ("p95", Json::Num(p95 as f64)),
                    ("p99", Json::Num(p99 as f64)),
                    ("overflow", Json::Num(snap.overflow() as f64)),
                ]),
            ),
            ("responses", Json::Obj(status_obj)),
        ]);
        println!("{}", report.to_string_pretty());
    } else {
        println!(
            "loadgen (open loop): {connections} connections × {requests} requests over {:.2}s",
            wall.as_secs_f64()
        );
        println!("  max established: {max_established}");
        println!("  completed:   {completed} ({rps:.0} req/s)");
        println!("  dropped:     {dropped}");
        println!("  latency:     p50 {p50} µs, p90 {p90} µs, p95 {p95} µs, p99 {p99} µs");
        for (s, n) in &statuses {
            println!("  status {s}:  {n}");
        }
    }
    std::process::exit(if dropped == 0 { 0 } else { 1 });
}
