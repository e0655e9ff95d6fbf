//! `tier_bench` — interp-vs-block comparison of the guest execution
//! tiers on the bare simulation engine (no observer attached).
//!
//! Cells: the kernels water_nsquared, canneal and dedup at `--scale`
//! plus the six microbenchmarks at test scale, each under Atomic and
//! Timing. Every cell runs under both tiers, best of `--reps`, and is
//! verified: the tiers must produce identical [`SimResult`]s, every rep
//! must repeat the first, and a microbenchmark must deposit its
//! expected guest checksum. Per cell it reports `sim_mips` (committed
//! instructions per *simulated* second: IPC × clock) and `host_mips`
//! (committed instructions per host wall second on the block tier).
//!
//! ```text
//! tier_bench [--json] [--scale test|simsmall|simmedium] [--reps N]
//! ```
//!
//! `--json` prints a summary on stdout (`scripts/bench_serving.sh`
//! files it as the `tiers` section of `BENCH_serving.json`); the table
//! always goes to stderr. Commit provenance comes from
//! `GEM5PROF_COMMIT` when set. Exits 1 if any check fails.

use gem5prof::spec::{parse_scale, scale_name};
use gem5prof_served::minjson::Json;
use gem5sim::config::{CpuModel, ExecTier, SimMode, SystemConfig};
use gem5sim::system::{SimResult, System};
use gem5sim_workloads::{Microbench, Scale, Workload};
use std::time::Instant;

const KERNELS: [Workload; 3] = [Workload::WaterNsquared, Workload::Canneal, Workload::Dedup];
const MODELS: [CpuModel; 2] = [CpuModel::Atomic, CpuModel::Timing];

/// Best-of-`reps` wall seconds for one tier, the first rep's result,
/// and whether every rep repeated it.
fn time_tier(
    w: Workload,
    scale: Scale,
    cpu: CpuModel,
    tier: ExecTier,
    reps: u32,
) -> (f64, SimResult, bool) {
    let mut best = f64::INFINITY;
    let mut results = Vec::new();
    for _ in 0..reps {
        let cfg = SystemConfig::new(cpu, SimMode::Se).with_exec_tier(tier);
        let mut sys = System::new(cfg, w.program(scale));
        let start = Instant::now();
        results.push(sys.run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    let deterministic = results.iter().all(|r| *r == results[0]);
    (best, results.swap_remove(0), deterministic)
}

/// `x` rounded to `digits` decimals, so the JSON stays readable.
fn num(x: f64, digits: i32) -> Json {
    let p = 10f64.powi(digits);
    Json::Num((x * p).round() / p)
}

fn usage() -> ! {
    eprintln!("usage: tier_bench [--json] [--scale test|simsmall|simmedium] [--reps N]");
    std::process::exit(2);
}

fn main() {
    let (mut json, mut scale, mut reps) = (false, Scale::SimMedium, 3u32);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| parse_scale(&s))
                    .unwrap_or_else(|| usage())
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let commit = std::env::var("GEM5PROF_COMMIT").unwrap_or_else(|_| "unknown".into());
    eprintln!(
        "tier bench: kernels at {}, microbenchmarks at test, best of {reps} reps, \
         bare engine (no observer), commit={commit}",
        scale_name(scale)
    );

    let cells = KERNELS
        .map(|w| (w, scale))
        .into_iter()
        .chain(Microbench::ALL.map(|m| (Workload::Micro(m), Scale::Test)))
        .flat_map(|(w, s)| MODELS.map(|cpu| (w, s, cpu)));
    let (mut runs, mut all_verified) = (Vec::new(), true);
    // Block-over-interp speedups of the kernel cells, per CPU model.
    let mut kernel_speedups = [Vec::new(), Vec::new()];
    for (w, s, cpu) in cells {
        let (interp_s, ri, det_interp) = time_tier(w, s, cpu, ExecTier::Interp, reps);
        let (block_s, rb, det_block) = time_tier(w, s, cpu, ExecTier::Block, reps);
        let mut errors = Vec::new();
        if !(det_interp && det_block) {
            errors.push("nondeterministic across reps".to_string());
        }
        if ri != rb {
            errors.push("tiers diverged".to_string());
        }
        let insts = rb.committed_insts;
        let (speedup, sim_mips) = (interp_s / block_s, insts as f64 / rb.sim_seconds() / 1e6);
        let host_mips = insts as f64 / block_s / 1e6;
        let mut run = vec![
            ("workload", Json::str(w.name())),
            ("scale", Json::str(scale_name(s))),
            ("cpu", Json::str(cpu.label())),
            ("insts", Json::Num(insts as f64)),
            ("interp_seconds", num(interp_s, 6)),
            ("block_seconds", num(block_s, 6)),
            ("speedup", num(speedup, 3)),
            ("sim_mips", num(sim_mips, 3)),
            ("host_mips", num(host_mips, 3)),
        ];
        if let Workload::Micro(m) = w {
            let (got, want) = (
                rb.guest_checksums.first().copied().unwrap_or(0),
                m.expected_checksum(s),
            );
            if got != want {
                errors.push(format!("checksum {got:#x} != expected {want:#x}"));
            }
            run.push(("checksum", Json::str(format!("{got:#018x}"))));
        } else {
            kernel_speedups[usize::from(cpu == CpuModel::Timing)].push(speedup);
        }
        for e in &errors {
            eprintln!("error: {w}/{}: {e}", cpu.label());
        }
        all_verified &= errors.is_empty();
        run.push(("verified", Json::Bool(errors.is_empty())));
        runs.push(Json::obj(run));
        eprintln!(
            "  {:<16} {:<9} {:<7} {insts:>9} insts  interp {interp_s:>8.4}s  block {block_s:>8.4}s  \
             {speedup:>5.2}x  sim {sim_mips:>7.1} MIPS  host {host_mips:>7.1} MIPS",
            w.name(),
            scale_name(s),
            cpu.label(),
        );
    }

    let [atomic, timing] =
        kernel_speedups.map(|xs| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp());
    eprintln!("  kernel geomean speedup: ATOMIC {atomic:.2}x, TIMING {timing:.2}x");
    if json {
        let report = Json::obj(vec![
            ("commit", Json::str(commit)),
            ("scale", Json::str(scale_name(scale))),
            ("micro_scale", Json::str(scale_name(Scale::Test))),
            ("reps", Json::Num(reps as f64)),
            ("runs", Json::Arr(runs)),
            (
                "kernel_geomean_speedup",
                Json::obj(vec![("ATOMIC", num(atomic, 3)), ("TIMING", num(timing, 3))]),
            ),
            ("all_verified", Json::Bool(all_verified)),
        ]);
        println!("{}", report.to_string_pretty());
    }
    if !all_verified {
        eprintln!("error: tier verification failed");
        std::process::exit(1);
    }
}
