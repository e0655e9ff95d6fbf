//! The `gem5prof-served` daemon binary.
//!
//! ```text
//! gem5prof-served [--addr HOST:PORT] [--workers N] [--threads N]
//!                 [--queue N] [--cache-cap N] [--cache-dir PATH]
//!                 [--deadline-ms N] [--no-coalesce] [--worker-delay-ms N]
//!                 [--port-file PATH] [--node-id ID] [--peers A,B,...]
//!                 [--profile-dir PATH] [--profile-cap N]
//!                 [--max-conns N] [--read-timeout-ms N]
//!                 [--write-timeout-ms N] [--sndbuf BYTES]
//! ```
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; `--port-file` writes
//! the actually-bound `host:port` to a file once listening, which is how
//! scripts (`scripts/verify.sh`) find the daemon without racing on a
//! fixed port. `--cache-dir` arms the disk warm tier: rendered responses
//! persist across restarts, so a rebooted daemon serves figures without
//! recompute. `--no-coalesce` disables duplicate suppression entirely —
//! no single-flight joins, no worker-side cache re-check — restoring
//! the naive thundering-herd engine (benchmark baseline only);
//! `--worker-delay-ms`
//! adds an artificial pause before each job (benchmarks and tests).
//! `--profile-dir` arms the continuous profiling store: span/metrics
//! snapshots persist there as a bounded ring (`--profile-cap` entries)
//! and the `/profile/history|diff|snapshot|bless` routes come alive.
//! SIGINT/SIGTERM trigger a graceful drain: stop accepting,
//! finish in-flight work, reject new requests with 503, then exit.

use gem5prof_served::{serve, ServeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        // Only an atomic store: async-signal-safe.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage() -> ! {
    eprintln!(
        "usage: gem5prof-served [--addr HOST:PORT] [--workers N] [--threads N] \
         [--queue N] [--cache-cap N] [--cache-dir PATH] [--deadline-ms N] \
         [--no-coalesce] [--worker-delay-ms N] [--port-file PATH] \
         [--node-id ID] [--peers HOST:PORT,HOST:PORT,...] \
         [--profile-dir PATH] [--profile-cap N] [--max-conns N] \
         [--read-timeout-ms N] [--write-timeout-ms N] [--sndbuf BYTES]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ServeConfig::default();
    let mut port_file: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        let parse_usize = |i: usize| -> usize { value(i).parse().unwrap_or_else(|_| usage()) };
        // Boolean flags advance by 1; value-taking flags by 2.
        let mut step = 2;
        match args[i].as_str() {
            "--addr" => cfg.addr = value(i),
            "--workers" => cfg.workers = parse_usize(i),
            "--threads" => {
                // Mirrors `repro --threads`: 0 falls back to available
                // parallelism with a warning.
                let n = parse_usize(i);
                if n == 0 {
                    eprintln!("warning: --threads 0 — falling back to available parallelism");
                }
                gem5prof::set_threads(n);
            }
            "--queue" => cfg.queue_cap = parse_usize(i).max(1),
            "--cache-cap" => cfg.cache_cap = parse_usize(i).max(1),
            "--cache-dir" => cfg.cache_dir = Some(value(i).into()),
            "--deadline-ms" => cfg.deadline = Duration::from_millis(parse_usize(i) as u64),
            "--no-coalesce" => {
                cfg.coalesce = false;
                step = 1;
            }
            "--worker-delay-ms" => cfg.worker_delay = Duration::from_millis(parse_usize(i) as u64),
            "--max-conns" => cfg.max_conns = parse_usize(i).max(1),
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(parse_usize(i).max(1) as u64)
            }
            "--write-timeout-ms" => {
                cfg.write_timeout = Duration::from_millis(parse_usize(i).max(1) as u64)
            }
            "--sndbuf" => cfg.sndbuf = Some(parse_usize(i).max(1)),
            "--profile-dir" => cfg.profile_dir = Some(value(i).into()),
            "--profile-cap" => cfg.profile_cap = parse_usize(i).max(1),
            "--port-file" => port_file = Some(value(i)),
            "--node-id" => cfg.node_id = Some(value(i)),
            "--peers" => {
                cfg.peers = value(i)
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += step;
    }

    install_signal_handlers();

    // Opt-in fault injection: a production daemon pays nothing unless
    // GEM5PROF_CHAOS is set, and an armed one says so loudly.
    if let Some(plan) = gem5prof_chaos::arm_from_env() {
        gem5prof_chaos::install_quiet_panic_hook();
        eprintln!(
            "gem5prof-served: CHAOS ARMED (seed={}, default probability {}) — \
             this daemon will inject faults into itself",
            plan.seed, plan.default_prob
        );
    }

    let handle = match serve(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gem5prof-served: cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    let addr = handle.addr();
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("gem5prof-served: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    eprintln!(
        "gem5prof-served: listening on http://{addr} \
         (queue={}, cache={}, deadline={}ms, coalesce={}, disk-tier={}, profstore={})",
        cfg.queue_cap,
        cfg.cache_cap,
        cfg.deadline.as_millis(),
        cfg.coalesce,
        cfg.cache_dir
            .as_deref()
            .map_or("off".into(), |p| p.display().to_string()),
        cfg.profile_dir
            .as_deref()
            .map_or("off".into(), |p| p.display().to_string()),
    );

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("gem5prof-served: draining…");
    handle.shutdown();
    eprintln!("gem5prof-served: drained, exiting");
}
