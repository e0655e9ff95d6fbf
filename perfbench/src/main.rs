//! `perfbench`: the repository's benchmark. Spawns fresh
//! `gem5prof-served` daemons, drives one workload against them in a
//! closed loop, checks every response, and prints every metric by name
//! with its unit. The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//!
//! ```text
//! perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the per-layer ones, and the spans are written to
//! `.bench_out/`. `perfbench/run.sh` builds the daemon and this binary
//! from source and runs it.

mod check;
mod daemon;
mod inputs;
mod layers;
mod metrics;
mod run;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --daemon PATH --workload figures_cold|experiments_cold|experiments_hot \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> run::Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon) =
        (None, None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = inputs::Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--daemon" => daemon = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace, daemon) {
        (Some(workload), Some(seed), Some(seconds), Some(trace), Some(daemon)) => run::Opts {
            workload,
            seed,
            seconds,
            trace,
            daemon,
        },
        _ => usage(),
    }
}

/// The commit under test: `GEM5PROF_COMMIT`, else git's, else unknown
/// (a checkout without `.git`).
fn commit() -> String {
    if let Ok(c) = std::env::var("GEM5PROF_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// JSON has no infinity; a metric made infinite by failures prints as
/// the largest finite number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// Times a fixed integer loop: the host's speed at that moment. On a
/// shared host it drifts over minutes, and every timing drifts with it;
/// the report prints it at the start and end of the run so a reader can
/// tell drift from a change.
fn speed_probe_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let o = parse_args();
    let probe_start = speed_probe_ms();
    let out = match run::run(&o) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {} ({} s{})",
        o.workload.name(),
        o.seed,
        o.seconds,
        if o.trace { ", traced" } else { "" }
    );
    println!(
        "  commit {}, daemon workers {}, exec tier {}, nproc {nproc}, hold-out seed {}",
        commit(),
        gem5prof::threads(),
        gem5prof::exec_tier().label(),
        inputs::HOLDOUT_SEED
    );
    println!(
        "  host speed probe (fixed loop): {probe_start:.1} ms at start, {:.1} ms at end",
        speed_probe_ms()
    );
    for line in &out.info {
        println!("  {line}");
    }
    for (name, v, unit) in &out.metrics {
        println!("  {name} = {v} {unit}");
    }
    for e in &out.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    if let Some(t) = &out.tracer {
        println!("  spans by name (count, total s, self s):");
        for (name, count, total, own) in t.by_name() {
            println!("    {name:<28} {count:>7} {total:>12.6} {own:>12.6}");
        }
        let path = format!(".bench_out/{}-seed{}.spans.tsv", o.workload.name(), o.seed);
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, t.to_tsv()));
        match written {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let mut m = String::new();
    for (i, (name, v, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            m,
            r#"{sep}"{name}":{{"value":{},"unit":"{unit}"}}"#,
            json_num(*v)
        );
    }
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{m}}}}}"#,
        out.attempted, out.failed
    );
    std::process::exit(if correct { 0 } else { 1 });
}
