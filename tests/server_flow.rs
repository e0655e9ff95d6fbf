//! End-to-end flow through `gem5prof-served`: boot the daemon on an
//! ephemeral port, exercise every endpoint class over real TCP, check
//! the result cache via `/stats`, drive the queue into backpressure,
//! and shut down gracefully.

use gem5prof_served::http::one_shot;
use gem5prof_served::minjson;
use gem5prof_served::{serve, ServeConfig};
use std::time::Duration;

/// Generous transport/deadline budget: the cold `/figures/fig01` render
/// simulates every workload × CPU point on however many cores CI has.
const LONG: Duration = Duration::from_secs(900);

fn get(addr: &str, path: &str) -> (u16, String) {
    one_shot(addr, "GET", path, None, LONG).expect("GET transport")
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    one_shot(addr, "POST", path, Some(body), LONG).expect("POST transport")
}

fn parse(body: &str) -> minjson::Json {
    minjson::parse(body).unwrap_or_else(|e| panic!("response is not JSON ({e}): {body}"))
}

#[test]
fn server_flow_end_to_end() {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 32,
        cache_cap: 64,
        deadline: LONG,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // Liveness.
    let (status, body) = get(&addr, "/healthz");
    assert_eq!(status, 200);
    let doc = parse(&body);
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(doc.get("draining").and_then(|v| v.as_bool()), Some(false));

    // Unknown paths and wrong methods.
    assert_eq!(get(&addr, "/nope").0, 404);
    assert_eq!(get(&addr, "/figures/fig99").0, 404);
    assert_eq!(get(&addr, "/experiments").0, 405);

    // Invalid experiment bodies: malformed JSON, then an unknown workload.
    assert_eq!(post(&addr, "/experiments", "{not json").0, 400);
    let bad_spec = r#"{"platform":"intel_xeon","workload":"not_a_workload","cpu":"o3"}"#;
    assert_eq!(post(&addr, "/experiments", bad_spec).0, 400);

    // An unknown field is a 400 that names the offending key, so a
    // typo'd co-run axis can never silently run the default instead.
    let typo = r#"{"workload":"alu","hartz":4}"#;
    let (status, body) = post(&addr, "/experiments", typo);
    assert_eq!(status, 400, "typo'd spec field must be rejected: {body}");
    assert!(
        body.contains("`hartz`"),
        "400 body must name the offending key: {body}"
    );

    // A multi-hart co-run microbenchmark experiment: the response must
    // carry per-hart guest checksums and a guest-MIPS rate.
    let corun = r#"{"platform":"intel_xeon","workload":"mem_stride","cpu":"timing","harts":2,"corun":"alu"}"#;
    let (status, body) = post(&addr, "/experiments", corun);
    assert_eq!(status, 200, "co-run experiment failed: {body}");
    let doc = parse(&body);
    let guest = doc.get("guest").expect("guest section in response");
    let checksums = guest
        .get("checksums")
        .and_then(|v| v.as_arr())
        .expect("guest.checksums array");
    assert_eq!(checksums.len(), 2, "one checksum per hart");
    let mips = guest
        .get("guest_mips")
        .and_then(|v| v.as_f64())
        .expect("guest.guest_mips in response");
    assert!(mips > 0.0, "guest MIPS must be positive, got {mips}");

    // A real parameterized experiment.
    let spec = r#"{"platform":"intel_xeon","workload":"dedup","cpu":"o3"}"#;
    let (status, body) = post(&addr, "/experiments", spec);
    assert_eq!(status, 200, "experiment failed: {body}");
    let doc = parse(&body);
    let seconds = doc
        .get("host")
        .and_then(|h| h.get("seconds"))
        .and_then(|v| v.as_f64())
        .expect("host.seconds in experiment response");
    assert!(
        seconds > 0.0,
        "host.seconds must be positive, got {seconds}"
    );

    // The identical spec again must be served from the result cache.
    assert_eq!(post(&addr, "/experiments", spec).0, 200);
    let (_, stats) = get(&addr, "/stats");
    let stats = parse(&stats);
    let hits = stats
        .get("result_cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_u64())
        .expect("result_cache.hits in /stats");
    assert!(
        hits >= 1,
        "second identical experiment should hit the cache: {}",
        stats.to_string_compact()
    );

    // Unknown query parameters on /figures/* are a 400 naming the key.
    let (status, body) = get(&addr, "/figures/fig01?fidelty=paper");
    assert_eq!(status, 400, "typo'd query key must be rejected: {body}");
    assert!(
        body.contains("`fidelty`"),
        "400 body must name the offending key: {body}"
    );

    // A figure renders, parses, and the repeat is the cached bytes.
    let (status, body) = get(&addr, "/figures/fig01");
    assert_eq!(status, 200, "fig01 failed: {body}");
    let fig = parse(&body);
    let title = fig
        .get("title")
        .and_then(|v| v.as_str())
        .expect("figure title");
    assert!(title.contains("Fig. 1"), "unexpected title: {title}");
    let (status, body_again) = get(&addr, "/figures/fig01");
    assert_eq!(status, 200);
    assert_eq!(body, body_again, "cached figure must be byte-identical");
    assert_eq!(get(&addr, "/tables/table2").0, 200);

    // /metrics: valid Prometheus exposition fed by the same counters
    // /stats reads, including request-path histograms and cache series.
    let (status, text) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains("# TYPE gem5prof_served_requests_total counter"),
        "missing request counter TYPE line:\n{text}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("gem5prof_served_responses_total{status=\"200\"}")),
        "missing status-labeled response series:\n{text}"
    );
    assert!(text.contains("# TYPE served_compute_seconds histogram"));
    assert!(text.contains("served_compute_seconds_bucket{le=\"+Inf\"}"));
    assert!(text.contains("served_compute_seconds_count"));
    assert!(text.contains("served_queue_wait_seconds_sum"));
    assert!(text
        .lines()
        .any(|l| l.starts_with("gem5prof_result_cache_hits_total")));
    for series in [
        "gem5prof_trace_cache_hits_total",
        "gem5prof_trace_cache_host_memo_hits_total",
        "gem5prof_trace_cache_host_replays_total",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(series)),
            "missing {series}:
{text}"
        );
    }
    // One source of truth: the result-cache hit count /metrics reports
    // matches what /stats reported a moment ago (both only grow).
    let metrics_hits = text
        .lines()
        .find(|l| l.starts_with("gem5prof_result_cache_hits_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("parse result-cache hit count from /metrics");
    assert!(
        metrics_hits >= hits as f64,
        "/metrics hits {metrics_hits} < /stats hits {hits}"
    );

    // /profile: span tree with self/total times covering the requests
    // this test just made.
    let (status, body) = get(&addr, "/profile");
    assert_eq!(status, 200);
    let prof = parse(&body);
    let spans = prof
        .get("spans")
        .and_then(|s| s.as_arr())
        .expect("/profile spans array");
    let compute = spans
        .iter()
        .find(|s| {
            s.get("path")
                .and_then(|p| p.as_arr())
                .is_some_and(|p| p.iter().any(|seg| seg.as_str() == Some("serve_compute")))
        })
        .expect("serve_compute span must appear after compute requests");
    let total = compute.get("total_ns").and_then(|v| v.as_f64()).unwrap();
    let own = compute.get("self_ns").and_then(|v| v.as_f64()).unwrap();
    assert!(total > 0.0 && own <= total, "total={total} self={own}");
    assert!(
        prof.get("collapsed").and_then(|v| v.as_str()).is_some(),
        "collapsed-stack export missing"
    );

    // Wrong methods on the observability endpoints are 405, not 404.
    assert_eq!(post(&addr, "/metrics", "").0, 405);
    assert_eq!(post(&addr, "/profile", "").0, 405);

    // Graceful shutdown: the daemon drains and stops listening.
    handle.shutdown();
    assert!(
        one_shot(&addr, "GET", "/healthz", None, Duration::from_secs(5)).is_err(),
        "daemon still reachable after shutdown"
    );
}

#[test]
fn queue_full_answers_429_never_hangs() {
    // One worker, a one-slot queue, and an artificial 400 ms of work per
    // job: a burst of 8 concurrent requests must see some 200s and some
    // 429s, and every request must get *an* answer. The keys are
    // distinct, because identical requests merge onto one job and the
    // queue can never fill (which `coalescing_collapses_identical_requests`
    // asserts); the specs differ only in host frequency, so every compute
    // replays one cheap guest stream.
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 1,
        cache_cap: 16,
        deadline: Duration::from_secs(30),
        worker_delay: Duration::from_millis(400),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    const BURST: usize = 8;

    let barrier = std::sync::Barrier::new(BURST);
    let statuses: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BURST)
            .map(|i| {
                let addr = &addr;
                let barrier = &barrier;
                let spec = format!(
                    r#"{{"platform":"intel_xeon","workload":"alu","cpu":"atomic","knobs":"freq=2.{i}"}}"#
                );
                s.spawn(move || {
                    barrier.wait();
                    one_shot(
                        addr,
                        "POST",
                        "/experiments",
                        Some(spec.as_str()),
                        Duration::from_secs(20),
                    )
                    .expect("request must complete, not hang")
                    .0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let busy = statuses.iter().filter(|&&s| s == 429).count();
    assert_eq!(ok + busy, BURST, "unexpected statuses: {statuses:?}");
    assert!(ok >= 1, "no request got through: {statuses:?}");
    assert!(busy >= 1, "queue never reported full: {statuses:?}");

    let (_, stats) = get(&addr, "/stats");
    let rejected = parse(&stats)
        .get("server")
        .and_then(|s| s.get("queue"))
        .and_then(|q| q.get("rejected"))
        .and_then(|v| v.as_u64())
        .expect("queue.rejected in /stats");
    assert!(rejected >= busy as u64, "rejected={rejected} < busy={busy}");

    handle.shutdown();
}

#[test]
fn coalescing_collapses_identical_requests_to_one_compute() {
    // The single-flight guarantee, end to end over real TCP: K
    // concurrent requests for one cold key are one compute and K
    // identical 200s. The one-slot queue doubles as a proof that the
    // coalesced followers never touched the queue — a second enqueue
    // would have answered 429.
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 1,
        cache_cap: 16,
        deadline: Duration::from_secs(30),
        worker_delay: Duration::from_millis(400),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    const BURST: usize = 8;

    let barrier = std::sync::Barrier::new(BURST);
    let responses: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| {
                let addr = &addr;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    one_shot(addr, "GET", "/tables/table1", None, Duration::from_secs(20))
                        .expect("request must complete, not hang")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let first = &responses[0].1;
    for (status, body) in &responses {
        assert_eq!(*status, 200, "every coalesced request gets the result");
        assert_eq!(body, first, "every response carries the same bytes");
    }

    let (_, stats) = get(&addr, "/stats");
    let stats = parse(&stats);
    let cache = stats.get("result_cache").expect("result_cache in /stats");
    let field = |name: &str| {
        cache
            .get(name)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("result_cache.{name} in /stats"))
    };
    assert_eq!(
        field("computes"),
        1,
        "{BURST} identical requests must cost exactly one compute: {}",
        stats.to_string_compact()
    );
    // Every request that neither computed nor hit the warm cache joined
    // the in-flight key (late arrivals may legitimately hit the cache).
    assert!(
        field("coalesced") >= 1,
        "no request coalesced: {}",
        stats.to_string_compact()
    );
    assert_eq!(
        field("coalesced") + field("hits") + field("computes"),
        BURST as u64,
        "every request is a compute, a join, or a hit: {}",
        stats.to_string_compact()
    );

    // The same counters on /metrics, under this engine's label (other
    // tests in this binary run their own engines concurrently).
    let engine_id = field("engine_id");
    let (status, text) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let series = format!("gem5prof_result_cache_computes_total{{engine=\"{engine_id}\"}}");
    let computes_metric = text
        .lines()
        .find(|l| l.starts_with(&series))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("{series} missing from /metrics:\n{text}"));
    assert_eq!(computes_metric, 1.0);

    handle.shutdown();
}
