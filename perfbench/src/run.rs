//! One run of one workload: fresh daemons, closed-loop load, output
//! checks, `/metrics` deltas and, when traced, the in-process layer calls.

use crate::check;
use crate::daemon::{prom_sum, Conn, Daemon};
use crate::inputs::{self, Experiment, Rng, Workload};
use crate::layers::{self, Expected, LayerTotals, Registries};
use crate::metrics::{self, Summary};
use crate::trace::{Tracer, ROOT};
use gem5prof_served::poll::Poller;
use std::os::unix::io::RawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
}

/// Set-ups per run whose median is `setup_s`.
const SETUPS: usize = 5;

/// Nominal length of one `figures_cold` pass (5–9 s on a two-core host).
const FIGURE_PASS_S: f64 = 8.0;

/// `figures_cold` passes per run: the run length over the nominal pass
/// length. The count depends on `--seconds` only, never on how fast the
/// passes ran, so the percentile a run reports (it depends on the sample
/// count) does not shift with the host's speed.
fn figure_passes(o: &Opts) -> usize {
    (o.seconds / FIGURE_PASS_S).ceil().max(1.0) as usize
}

/// `experiments_hot` splits its run length over this many fresh daemons,
/// as `figures_cold` takes several passes, so no one daemon's state sets
/// a run's figures.
const HOT_WINDOWS: usize = 3;

/// What a response must be.
enum Check {
    /// A figure body rendering byte-equal to its golden file.
    Figure(String),
    /// An experiment body matching the bare run of its guest.
    Experiment(Expected),
    /// Byte-identical to the priming response, which carried `insts`.
    Same(Vec<u8>, u64),
}

/// One request the load generator can send.
struct Item {
    method: &'static str,
    path: String,
    body: Option<String>,
    /// Request id: the path, or the canonical key of an experiment.
    id: String,
    check: Check,
}

impl Item {
    fn figure(n: usize) -> Result<Item, String> {
        let path = inputs::figure_path(n);
        Ok(Item {
            method: "GET",
            id: path.clone(),
            path,
            body: None,
            check: Check::Figure(check::golden(n)?),
        })
    }

    fn experiment(e: &Experiment, want: Expected) -> Item {
        Item {
            method: "POST",
            path: "/experiments".into(),
            body: Some(e.body.clone()),
            id: e.spec.canonical_key(),
            check: Check::Experiment(want),
        }
    }

    /// Checks a response; returns the guest instructions it reports.
    fn verify(&self, status: u16, body: &[u8]) -> Result<u64, String> {
        if status != 200 {
            return Err(format!("{} {} answered {status}", self.method, self.id));
        }
        match &self.check {
            Check::Figure(golden) => check::figure(body, golden).map(|()| 0),
            Check::Experiment(want) => check::experiment(body, &self.id, want),
            Check::Same(first, insts) if first == body => Ok(*insts),
            Check::Same(..) => Err(format!(
                "{}: body differs from its priming response",
                self.id
            )),
        }
    }
}

/// One request as the client saw it.
struct Sample {
    start: Instant,
    end: Instant,
    item: u32,
    ok: bool,
    insts: u64,
}

/// Samples per storage chunk: a hot window records about a million, and
/// growing one vector that large would stall the load thread on copies.
const CHUNK: usize = 1 << 16;

/// Requests, failures and their first messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Failure messages kept per run; the count covers the rest.
const KEPT_ERRORS: usize = 8;

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(msg);
        }
    }

    /// A check that is not a response check (a server-side count, a
    /// drain, an in-process result): its failure counts as a failure.
    fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(e);
        }
    }
}

/// Chooses a connection's next item, or `None` to end the connection.
type Pick<'a> = &'a dyn Fn(&mut Rng) -> Option<usize>;

/// One connection of the load generator.
struct Slot {
    conn: Conn,
    rng: Rng,
    registered: Option<RawFd>,
    /// The request in flight: item and send time.
    inflight: Option<(usize, Instant)>,
}

/// Sends requests over `conns` closed-loop connections from one thread:
/// each connection sends its next request when its previous response
/// has arrived. `pick` chooses the next item for a connection (`None`
/// ends it); no request starts after `deadline`. Waiting on readiness
/// from one thread keeps the load generator to a single runnable thread.
/// Returns the samples and the first failure messages.
fn closed_loop(
    d: &Daemon,
    items: &[Item],
    conns: usize,
    deadline: Option<Instant>,
    seed: u64,
    pick: Pick,
) -> Result<(Vec<Sample>, Vec<String>), String> {
    let mut poller = Poller::new().map_err(|e| format!("epoll: {e}"))?;
    let mut slots: Vec<Slot> = (0..conns)
        .map(|c| Slot {
            conn: Conn::new(d.addr),
            rng: Rng::new(seed ^ (0xC0_FFEE + c as u64)),
            registered: None,
            inflight: None,
        })
        .collect();
    let mut samples: Vec<Vec<Sample>> = vec![Vec::with_capacity(CHUNK)];
    let mut errors = Vec::new();
    let record = |sample: Sample, samples: &mut Vec<Vec<Sample>>| {
        if samples.last().is_some_and(|c| c.len() == CHUNK) {
            samples.push(Vec::with_capacity(CHUNK));
        }
        samples.last_mut().expect("at least one chunk").push(sample);
    };
    // Starts the slot's next request; a failed send is recorded at once.
    let start = |c: usize,
                 slots: &mut Vec<Slot>,
                 poller: &mut Poller,
                 samples: &mut Vec<Vec<Sample>>,
                 errors: &mut Vec<String>| loop {
        let slot = &mut slots[c];
        if deadline.is_some_and(|t| Instant::now() >= t) {
            return;
        }
        let Some(i) = pick(&mut slot.rng) else { return };
        let it = &items[i];
        let t = Instant::now();
        match slot.conn.send(it.method, &it.path, it.body.as_deref()) {
            Ok(()) => {
                let fd = slot.conn.fd().expect("connected by send");
                if slot.registered != Some(fd) {
                    if let Err(e) = poller.add(fd, c as u64, true, false) {
                        errors.push(format!("epoll add: {e}"));
                        return;
                    }
                    slot.registered = Some(fd);
                }
                slot.inflight = Some((i, t));
                return;
            }
            Err(e) => {
                // `send` dropped the connection; its fd number may come back.
                slot.registered = None;
                if errors.len() < KEPT_ERRORS {
                    errors.push(format!("{} {}: {e}", it.method, it.id));
                }
                record(
                    Sample {
                        start: t,
                        end: Instant::now(),
                        item: i as u32,
                        ok: false,
                        insts: 0,
                    },
                    samples,
                );
            }
        }
    };
    for c in 0..conns {
        start(c, &mut slots, &mut poller, &mut samples, &mut errors);
    }
    let mut events = Vec::new();
    while slots.iter().any(|s| s.inflight.is_some()) {
        poller
            .wait(&mut events, Some(crate::daemon::REQUEST_TIMEOUT))
            .map_err(|e| format!("epoll wait: {e}"))?;
        if events.is_empty() {
            return Err(format!(
                "no response within {:?}",
                crate::daemon::REQUEST_TIMEOUT
            ));
        }
        for ev in &events {
            let c = ev.token as usize;
            let slot = &mut slots[c];
            let Some((i, t)) = slot.inflight.take() else {
                continue;
            };
            let it = &items[i];
            let r = slot.conn.recv();
            let end = Instant::now();
            let checked = r
                .map_err(|e| format!("{} {}: {e}", it.method, it.id))
                .and_then(|status| it.verify(status, slot.conn.body()));
            let (ok, insts) = match checked {
                Ok(n) => (true, n),
                Err(e) => {
                    if errors.len() < KEPT_ERRORS {
                        errors.push(e);
                    }
                    (false, 0)
                }
            };
            if slot.conn.fd().is_none() {
                slot.registered = None; // closed; the kernel dropped it from the poller
            }
            record(
                Sample {
                    start: t,
                    end,
                    item: i as u32,
                    ok,
                    insts,
                },
                &mut samples,
            );
            start(c, &mut slots, &mut poller, &mut samples, &mut errors);
        }
    }
    Ok((samples.into_iter().flatten().collect(), errors))
}

/// `/metrics` counters the server-side split is built from.
#[derive(Debug, Clone, Copy, Default)]
struct Scrape {
    queue_wait_s: f64,
    compute_s: f64,
    lookup_hit_s: f64,
    lookup_hits: f64,
    cache_hits: f64,
    computes: f64,
    trace_hits: f64,
    trace_misses: f64,
    trace_resident: f64,
}

impl Scrape {
    fn of(text: &str) -> Scrape {
        let hit = Some("outcome=\"hit\"");
        Scrape {
            queue_wait_s: prom_sum(text, "served_queue_wait_seconds_sum", None),
            compute_s: prom_sum(text, "served_compute_seconds_sum", None),
            lookup_hit_s: prom_sum(text, "served_cache_lookup_seconds_sum", hit),
            lookup_hits: prom_sum(text, "served_cache_lookup_seconds_count", hit),
            cache_hits: prom_sum(text, "gem5prof_result_cache_hits_total", None),
            computes: prom_sum(text, "gem5prof_result_cache_computes_total", None),
            trace_hits: prom_sum(text, "gem5prof_trace_cache_hits_total", None),
            trace_misses: prom_sum(text, "gem5prof_trace_cache_misses_total", None),
            trace_resident: prom_sum(text, "gem5prof_trace_cache_resident_events", None),
        }
    }

    /// Adds another window's deltas; the resident gauge keeps the larger.
    fn add(&mut self, o: &Scrape) {
        self.queue_wait_s += o.queue_wait_s;
        self.compute_s += o.compute_s;
        self.lookup_hit_s += o.lookup_hit_s;
        self.lookup_hits += o.lookup_hits;
        self.cache_hits += o.cache_hits;
        self.computes += o.computes;
        self.trace_hits += o.trace_hits;
        self.trace_misses += o.trace_misses;
        self.trace_resident = self.trace_resident.max(o.trace_resident);
    }

    /// Counter deltas `self - before`; the resident gauge keeps its
    /// latest value.
    fn since(&self, before: &Scrape) -> Scrape {
        Scrape {
            queue_wait_s: self.queue_wait_s - before.queue_wait_s,
            compute_s: self.compute_s - before.compute_s,
            lookup_hit_s: self.lookup_hit_s - before.lookup_hit_s,
            lookup_hits: self.lookup_hits - before.lookup_hits,
            cache_hits: self.cache_hits - before.cache_hits,
            computes: self.computes - before.computes,
            trace_hits: self.trace_hits - before.trace_hits,
            trace_misses: self.trace_misses - before.trace_misses,
            trace_resident: self.trace_resident,
        }
    }
}

fn scrape(conn: &mut Conn) -> Result<Scrape, String> {
    let status = conn
        .call("GET", "/metrics", None)
        .map_err(|e| format!("scrape /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(Scrape::of(&String::from_utf8_lossy(conn.body())))
}

/// A daemon that is set up and ready for its measured window.
struct Ready {
    daemon: Daemon,
    scrape_conn: Conn,
    setup_s: f64,
    before: Scrape,
    cpu_before: f64,
}

/// Spawns a daemon and primes `prime` (indices into `items`). Set-up
/// ends when the pre-window `/metrics` scrape has answered, right before
/// the first measured request.
fn set_up(
    o: &Opts,
    items: &mut [Item],
    prime: &[usize],
    tally: &mut Tally,
) -> Result<Ready, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&o.daemon)?;
    prime_items(&daemon, items, prime, tally);
    let mut scrape_conn = Conn::new(daemon.addr);
    let before = scrape(&mut scrape_conn)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu_before = daemon.cpu_s()?;
    Ok(Ready {
        daemon,
        scrape_conn,
        setup_s,
        before,
        cpu_before,
    })
}

/// Requests each primed item once over two connections and checks it.
/// The first priming keeps each body: responses are deterministic, so
/// every later response to the item, in any window or later priming,
/// must repeat it byte for byte.
fn prime_items(d: &Daemon, items: &mut [Item], prime: &[usize], tally: &mut Tally) {
    let next = AtomicUsize::new(0);
    // Per item: its first body and instruction count, or the failure.
    type Primed = (usize, Result<(Vec<u8>, u64), String>);
    let got: Vec<Primed> = std::thread::scope(|s| {
        let items = &*items;
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut conn = Conn::new(d.addr);
                    let mut out = Vec::new();
                    while let Some(&i) = prime.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let it = &items[i];
                        let r = conn
                            .call(it.method, &it.path, it.body.as_deref())
                            .map_err(|e| format!("{} {}: {e}", it.method, it.id))
                            .and_then(|status| {
                                let n = it.verify(status, conn.body())?;
                                Ok((conn.body().to_vec(), n))
                            });
                        out.push((i, r));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("priming thread panicked"))
            .collect()
    });
    for (i, r) in got {
        tally.attempted += 1;
        match r {
            Ok((body, insts)) => {
                if !matches!(items[i].check, Check::Same(..)) {
                    items[i].check = Check::Same(body, insts);
                }
            }
            Err(e) => tally.fail(format!("priming: {e}")),
        }
    }
}

/// What one measured window gave.
struct Window {
    wall_s: f64,
    reqs: Vec<metrics::Request>,
    /// Sum of client latencies, failed requests included at their
    /// measured time.
    lat_sum_s: f64,
    server: Scrape,
    peak_rss_mb: f64,
    cpu_s: f64,
}

/// Runs a measured window on a ready daemon, then scrapes, samples the
/// process and drains the daemon. `figures_cold` sends its list once;
/// `experiments_cold` walks its list until the run length is spent;
/// `experiments_hot` draws items at random for the run length.
fn measure(
    o: &Opts,
    mut ready: Ready,
    items: &[Item],
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> Result<Window, String> {
    let n = items.len();
    let next = AtomicUsize::new(0);
    let in_order = |_: &mut Rng| Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let at_random = |r: &mut Rng| Some(r.below(n));
    let run_length = Duration::from_secs_f64(o.seconds);
    let (pick, window): (Pick, _) = match o.workload {
        Workload::FiguresCold => (&in_order, None),
        Workload::ExperimentsCold => (&in_order, Some(run_length)),
        Workload::ExperimentsHot => (&at_random, Some(run_length / HOT_WINDOWS as u32)),
    };
    let t0 = Instant::now();
    let (samples, errors) = closed_loop(
        &ready.daemon,
        items,
        o.workload.connections(),
        window.map(|d| t0 + d),
        o.seed,
        pick,
    )?;
    let end = samples.iter().map(|s| s.end).max().unwrap_or(t0);
    let after = scrape(&mut ready.scrape_conn)?;
    let latency = |s: &Sample| s.end.duration_since(s.start).as_secs_f64();
    let w = Window {
        wall_s: end.duration_since(t0).as_secs_f64(),
        reqs: samples
            .iter()
            .map(|s| metrics::Request {
                start_s: s.start.duration_since(t0).as_secs_f64(),
                latency_s: if s.ok { latency(s) } else { f64::INFINITY },
                insts: s.insts,
            })
            .collect(),
        lat_sum_s: samples.iter().map(latency).sum(),
        server: after.since(&ready.before),
        peak_rss_mb: ready.daemon.peak_rss_mb()?,
        cpu_s: ready.daemon.cpu_s()? - ready.cpu_before,
    };
    tally.check(ready.daemon.stop());
    tally.attempted += samples.len() as u64;
    tally.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    tally.errors.extend(
        errors
            .into_iter()
            .take(KEPT_ERRORS - tally.errors.len().min(KEPT_ERRORS)),
    );
    if let Some(t) = tracer {
        // The load loop timed every call; the spans are built from those
        // timestamps once the window has closed.
        let root = t.record("http.window", ROOT, o.workload.name(), t0, end);
        for s in &samples {
            t.record(
                "http.request",
                root,
                &items[s.item as usize].id,
                s.start,
                s.end,
            );
        }
    }
    Ok(w)
}

/// A workload's requests and how its connections walk them.
struct Plan {
    items: Vec<Item>,
    /// Items primed during set-up (`experiments_hot`).
    prime: Vec<usize>,
    /// Guest instructions one `figures_cold` pass simulates (figure
    /// bodies carry none).
    pass_insts: u64,
    /// Experiments whose layers the traced run splits.
    layer_specs: Vec<gem5prof::ExperimentSpec>,
    provenance: Vec<String>,
}

/// Builds the workload's requests from the seed and computes every
/// expected response before any daemon starts. A guest whose bare run
/// fails its own check counts as a failure and is not sent.
fn plan(o: &Opts, tally: &mut Tally) -> Result<Plan, String> {
    let mut expect = |spec: &gem5prof::ExperimentSpec| {
        let want = layers::expected(spec);
        let ok = want.as_ref().ok().cloned();
        tally.check(want.map(|_| ()));
        ok
    };
    let mut items = Vec::new();
    let (layer_specs, pass_insts, prime) = match o.workload {
        Workload::FiguresCold => {
            for &n in &inputs::FIGURES {
                items.push(Item::figure(n)?);
            }
            let guests = inputs::figure_guests();
            let insts = guests
                .iter()
                .filter_map(&mut expect)
                .map(|e| e.committed_insts)
                .sum();
            (guests, insts, false)
        }
        Workload::ExperimentsCold | Workload::ExperimentsHot => {
            let hot = o.workload == Workload::ExperimentsHot;
            let list = if hot {
                inputs::hot_experiments()
            } else {
                inputs::cold_experiments(o.seed)
            };
            for e in &list {
                if let Some(want) = expect(&e.spec) {
                    items.push(Item::experiment(e, want));
                }
            }
            if hot {
                for &n in &inputs::HOT_FIGURES {
                    items.push(Item::figure(n)?);
                }
            }
            (list.into_iter().map(|e| e.spec).collect(), 0, hot)
        }
    };
    let digest = inputs::digest(items.iter().map(|i| i.id.as_str()));
    Ok(Plan {
        provenance: vec![format!("{} requests, digest {digest}", items.len())],
        prime: if prime {
            (0..items.len()).collect()
        } else {
            Vec::new()
        },
        items,
        pass_insts,
        layer_specs,
    })
}

/// End-to-end results of one measurement: its windows and set-ups.
struct Measured {
    windows: Vec<Window>,
    setups: Vec<f64>,
}

/// Runs the workload's measured windows, each on a fresh daemon:
/// `figures_cold` takes [`figure_passes`] passes (a traced measurement
/// takes one), `experiments_cold` one window and
/// `experiments_hot` [`HOT_WINDOWS`]. Further set-ups, timed and
/// discarded, bring the `setup_s` median to `setups` samples.
fn measure_workload(
    o: &Opts,
    p: &mut Plan,
    setups: usize,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let mut m = Measured {
        windows: Vec::new(),
        setups: Vec::new(),
    };
    loop {
        let ready = set_up(o, &mut p.items, &p.prime, tally)?;
        m.setups.push(ready.setup_s);
        let w = measure(o, ready, &p.items, tally, tracer.as_deref_mut())?;
        check_counts(o, p, &w, tally);
        m.windows.push(w);
        let done = match o.workload {
            Workload::FiguresCold => tracer.is_some() || m.windows.len() == figure_passes(o),
            Workload::ExperimentsCold => true,
            Workload::ExperimentsHot => m.windows.len() == HOT_WINDOWS,
        };
        if done {
            break;
        }
    }
    while m.setups.len() < setups {
        let ready = set_up(o, &mut p.items, &p.prime, tally)?;
        m.setups.push(ready.setup_s);
        tally.check(ready.daemon.stop());
    }
    Ok(m)
}

/// Server-side counts that must hold exactly for the window's inputs.
fn check_counts(o: &Opts, p: &Plan, w: &Window, tally: &mut Tally) {
    let computes = w.server.computes as u64;
    let want = match o.workload {
        // Every key in a cold window is distinct.
        Workload::FiguresCold | Workload::ExperimentsCold => w.reqs.len() as u64,
        Workload::ExperimentsHot => 0,
    };
    tally.check(if computes == want {
        Ok(())
    } else {
        Err(format!(
            "server.computes {computes} != {want} distinct cold keys"
        ))
    });
    if o.workload == Workload::FiguresCold {
        let misses = w.server.trace_misses as usize;
        tally.check(if misses == p.layer_specs.len() {
            Ok(())
        } else {
            Err(format!(
                "a pass simulated {misses} guest specs, not the {} figure guests",
                p.layer_specs.len()
            ))
        });
    }
}

/// The end-to-end metrics of one measurement.
struct E2e {
    setup_s: f64,
    wall_s: f64,
    host_mips: f64,
    throughput_rps: f64,
    latency_p50_s: f64,
    latency_tail_s: f64,
    /// How the tail was taken, for the report.
    tail_rule: String,
    peak_rss_mb: f64,
}

impl Measured {
    /// `experiments_hot` takes medians over one-second segments of its
    /// window; the cold workloads pool every request of their windows
    /// and take medians over windows (passes).
    fn e2e(&self, p: &Plan, o: &Opts) -> E2e {
        let per_window = |f: &dyn Fn(&Window) -> f64| {
            metrics::median(&self.windows.iter().map(f).collect::<Vec<_>>())
        };
        let mut e = E2e {
            setup_s: metrics::median(&self.setups),
            wall_s: per_window(&|w| w.wall_s),
            host_mips: per_window(&|w| {
                let insts: u64 = w.reqs.iter().map(|r| r.insts).sum();
                metrics::host_mips(insts + p.pass_insts, w.wall_s)
            }),
            throughput_rps: per_window(&|w| w.reqs.len() as f64 / w.wall_s),
            latency_p50_s: f64::INFINITY,
            latency_tail_s: f64::INFINITY,
            tail_rule: "no samples".into(),
            peak_rss_mb: per_window(&|w| w.peak_rss_mb),
        };
        if o.workload == Workload::ExperimentsHot {
            let windows = self.windows.iter().map(|w| (&w.reqs[..], w.wall_s));
            if let Some(seg) = metrics::segmented(windows) {
                e.host_mips = seg.insts_per_s / 1e6;
                e.throughput_rps = seg.requests_per_s;
                e.latency_p50_s = seg.median;
                e.latency_tail_s = seg.tail;
                e.tail_rule = format!(
                    "{} of each one-second segment (n = {} per segment), median over {} segments \
                     of {} windows",
                    seg.tail_name,
                    seg.n_per_segment,
                    seg.segments,
                    self.windows.len()
                );
            }
        } else {
            let all: Vec<f64> = self
                .windows
                .iter()
                .flat_map(|w| w.reqs.iter().map(|r| r.latency_s))
                .collect();
            if let Some(lat) = Summary::of(all) {
                e.latency_p50_s = lat.median;
                e.latency_tail_s = lat.tail;
                e.tail_rule = format!("{} over n = {} samples", lat.tail_name, lat.n);
            }
        }
        e
    }
}

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Report lines printed before the result.
    pub info: Vec<String>,
    pub tracer: Option<Tracer>,
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    if o.workload == Workload::ExperimentsHot {
        // Cache hits are a ping-pong between the load thread and the
        // daemon's serving thread. On a 2-vCPU virtual machine the
        // cross-CPU wake-ups cost a different amount in each run (p99
        // 0.11 ms in one run, 0.6 ms in the next, with the two pinned
        // apart); on one CPU the figures are steady. Serving cost then
        // shows as throughput and latency on one core.
        crate::daemon::pin_to_one_cpu();
    }
    let mut tally = Tally::default();
    let mut p = plan(o, &mut tally)?;
    let mut info = p.provenance.clone();
    let (metrics, tracer) = if !o.trace {
        let e = measure_workload(o, &mut p, SETUPS, &mut tally, None)?.e2e(&p, o);
        info.push(format!("latency_tail_ms is the {}", e.tail_rule));
        info.push(format!(
            "error_rate = {} fraction ({} failed of {} attempted)",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.failed,
            tally.attempted
        ));
        let m = [
            ("setup_s", e.setup_s, "s"),
            ("wall_s", e.wall_s, "s"),
            ("host_mips", e.host_mips, "MIPS"),
            ("throughput_rps", e.throughput_rps, "req/s"),
            ("latency_p50_ms", e.latency_p50_s * 1e3, "ms"),
            ("latency_tail_ms", e.latency_tail_s * 1e3, "ms"),
            ("peak_rss_mb", e.peak_rss_mb, "MB"),
        ];
        (m.map(|(n, v, u)| (n.to_string(), v, u)).to_vec(), None)
    } else {
        let mut t = Tracer::new(Instant::now());
        let plain = measure_workload(o, &mut p, 1, &mut tally, None)?.e2e(&p, o);
        let traced = measure_workload(o, &mut p, 1, &mut tally, Some(&mut t))?;
        let m = layer_metrics(o, &p, &plain, &traced, &mut t, &mut tally, &mut info)?;
        (m, Some(t))
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        info,
        tracer,
    })
}

/// Renders a quick-fidelity figure in-process.
fn figure_table(n: usize) -> gem5prof::Table {
    use gem5prof::figures::{self, Fidelity::Quick};
    match n {
        2 => figures::fig02(Quick),
        3 => figures::fig03(Quick),
        4 => figures::fig04(Quick),
        5 => figures::fig05(Quick),
        6 => figures::fig06(Quick),
        7 => figures::fig07(Quick),
        8 => figures::fig08(Quick),
        9 => figures::fig09(Quick),
        10 => figures::fig10(Quick),
        11 => figures::fig11(Quick),
        12 => figures::fig12(Quick),
        13 => figures::fig13(Quick),
        14 => figures::fig14(Quick),
        15 => figures::fig15(Quick),
        _ => unreachable!("figures_cold requests fig02..fig15"),
    }
}

/// `figures_cold` in-process: the figure list in order on a cold trace
/// cache (`core.figure_s.*`), then a check that the figure guests are
/// exactly the streams it recorded.
fn figures_in_process(
    p: &Plan,
    t: &mut Tracer,
    root: usize,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    gem5prof::runner::clear_cache();
    let before = gem5prof::runner::cache_stats();
    let mut secs = Vec::new();
    for &n in &inputs::FIGURES {
        let s = t.open("core.figure", root, &inputs::figure_path(n));
        let table = figure_table(n);
        secs.push(t.close(s));
        tally.check(if table.to_string() == check::golden(n)? {
            Ok(())
        } else {
            Err(format!(
                "in-process fig{n:02} does not match its golden file"
            ))
        });
    }
    let recorded = gem5prof::runner::cache_stats();
    let probe = t.open("core.figure_guest_probe", root, "");
    for g in &p.layer_specs {
        g.run();
    }
    t.close(probe);
    let after = gem5prof::runner::cache_stats();
    if recorded.insertions - before.insertions != p.layer_specs.len() as u64
        || after.misses != recorded.misses
    {
        return Err(format!(
            "figure guests are not the {} streams fig02-fig15 recorded ({} recorded, {} probe misses)",
            p.layer_specs.len(),
            recorded.insertions - before.insertions,
            after.misses - recorded.misses
        ));
    }
    Ok(secs)
}

/// Per-layer metrics of a traced run: server-side deltas of the traced
/// window, then the in-process layer calls on the same inputs.
fn layer_metrics(
    o: &Opts,
    p: &Plan,
    plain: &E2e,
    traced: &Measured,
    t: &mut Tracer,
    tally: &mut Tally,
    info: &mut Vec<String>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    // Server-side totals over the traced measurement's windows.
    let mut s = Scrape::default();
    let (mut n, mut lat_sum_s, mut cpu_s) = (0.0, 0.0, 0.0);
    for w in &traced.windows {
        s.add(&w.server);
        n += w.reqs.len() as f64;
        lat_sum_s += w.lat_sum_s;
        cpu_s += w.cpu_s;
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    put("server.queue_wait_s", s.queue_wait_s, "s");
    put("server.compute_s", s.compute_s, "s");
    put(
        "server.gap_us_mean",
        (lat_sum_s - s.queue_wait_s - s.compute_s) / n * 1e6,
        "us",
    );
    put(
        "server.lookup_us_mean",
        ratio(s.lookup_hit_s, s.lookup_hits) * 1e6,
        "us",
    );
    put("server.result_cache_hit_ratio", s.cache_hits / n, "ratio");
    put("server.computes", s.computes, "count");
    put(
        "core.trace_cache_hit_ratio",
        ratio(s.trace_hits, s.trace_hits + s.trace_misses),
        "ratio",
    );
    put("core.trace_resident_events", s.trace_resident, "count");
    put("process.cpu_s", cpu_s, "s");
    let traced_e2e = traced.e2e(p, o);
    put(
        "trace.overhead_wall_s",
        traced_e2e.wall_s - plain.wall_s,
        "s",
    );
    put(
        "trace.overhead_host_mips",
        traced_e2e.host_mips - plain.host_mips,
        "MIPS",
    );

    let root = t.open("in_process", ROOT, o.workload.name());
    let figure_s = if o.workload == Workload::FiguresCold {
        figures_in_process(p, t, root, tally)?
    } else {
        vec![0.0; inputs::FIGURES.len()]
    };
    for (&fig, secs) in inputs::FIGURES.iter().zip(figure_s) {
        put(&format!("core.figure_s.fig{fig:02}"), secs, "s");
    }

    // The split repeats each spec's work about three times over, so on
    // the long cold list it stops after one run length.
    let budget = Duration::from_secs_f64(o.seconds);
    let started = Instant::now();
    let mut lt = LayerTotals::default();
    let mut regs = Registries::default();
    for spec in &p.layer_specs {
        if o.workload == Workload::ExperimentsCold && lt.specs > 0 && started.elapsed() >= budget {
            break;
        }
        tally.check(layers::split(spec, &mut regs, &mut lt, t, root));
    }
    t.close(root);
    let coverage = lt.coverage();
    info.push(format!(
        "layer split over {} of {} specs; {} replays hit the trace cache",
        lt.specs,
        p.layer_specs.len(),
        lt.replay_hits
    ));
    if !(0.95..=1.05).contains(&coverage) {
        info.push(format!(
            "FLAG core.layer_coverage = {coverage:.3} is outside 0.95-1.05: the live pipeline costs \
             {} than its parts run alone",
            if coverage < 1.0 { "more" } else { "less" }
        ));
    }
    put("core.layer_specs", lt.specs as f64, "count");
    put("core.profile_cold_s", lt.profile_cold_s, "s");
    put("core.profile_replay_s", lt.profile_replay_s, "s");
    put("core.layer_coverage", coverage, "ratio");
    put("sim.program_build_s", lt.program_build_s, "s");
    put("sim.guest_exec_s", lt.guest_exec_s, "s");
    put("sim.committed_insts", lt.committed_insts as f64, "count");
    put(
        "sim.bare_mips",
        metrics::host_mips(lt.committed_insts, lt.guest_exec_s),
        "MIPS",
    );
    put(
        "sim.block_hit_ratio",
        ratio(
            lt.block_hits as f64,
            (lt.block_hits + lt.block_compiled) as f64,
        ),
        "ratio",
    );
    put("hosttrace.adapt_s", lt.adapt_s, "s");
    put("hosttrace.events", lt.events as f64, "count");
    put(
        "hosttrace.events_per_inst",
        ratio(lt.events as f64, lt.committed_insts as f64),
        "ratio",
    );
    put("hostmodel.replay_s", lt.replay_s, "s");
    put("hostmodel.engine_events", lt.engine_events as f64, "count");
    put(
        "hostmodel.ns_per_engine_event",
        ratio(lt.replay_s, lt.engine_events as f64) * 1e9,
        "ns",
    );
    if o.workload == Workload::FiguresCold {
        // The daemon simulates each figure guest once per pass; all its
        // other compute is host-engine replay, SPEC trace generation and
        // rendering.
        info.push(format!(
            "share of the daemon's CPU time in one pass: guest execution {:.1}%, trace \
             adaptation {:.1}%, the rest host engines and rendering",
            100.0 * ratio(lt.program_build_s + lt.guest_exec_s, cpu_s),
            100.0 * ratio(lt.adapt_s, cpu_s),
        ));
    }
    let cold = lt.profile_cold_s;
    info.push(format!(
        "share of cold compute: sim {:.1}% (build {:.1}%), hosttrace {:.1}%, hostmodel {:.1}%",
        100.0 * ratio(lt.program_build_s + lt.guest_exec_s, cold),
        100.0 * ratio(lt.program_build_s, cold),
        100.0 * ratio(lt.adapt_s, cold),
        100.0 * ratio(lt.replay_s, cold),
    ));
    Ok(m)
}
