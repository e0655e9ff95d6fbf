//! `bench_report` — assembles `BENCH_serving.json` from the per-run
//! reports `scripts/bench_serving.sh` leaves in one directory.
//!
//! ```text
//! bench_report OUT_DIR FLEET_COMPUTES > BENCH_serving.json
//! ```
//!
//! Every input (the `loadgen --json` reports and the `tier_bench --json`
//! summary) is parsed with `minjson::parse`, and `coalescing_speedup`
//! is computed from the two parsed `throughput_rps` values. A missing
//! or malformed input exits 1 naming the file, and nothing is printed,
//! so a failed run is never stitched into the report.

use gem5prof_served::minjson::{self, Json};
use std::path::Path;

fn load(dir: &Path, name: &str) -> Result<Json, String> {
    let path = dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    minjson::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn throughput(report: &Json, name: &str) -> Result<f64, String> {
    report
        .get("throughput_rps")
        .and_then(Json::as_f64)
        .filter(|&rps| rps > 0.0)
        .ok_or_else(|| format!("{name}.json: no positive throughput_rps"))
}

fn build(dir: &Path, fleet_computes: u64) -> Result<Json, String> {
    let coalesced = load(dir, "coalesced")?;
    let no_coalesce = load(dir, "no_coalesce")?;
    let speedup = throughput(&coalesced, "coalesced")? / throughput(&no_coalesce, "no_coalesce")?;
    Ok(Json::obj(vec![
        ("steady_state", load(dir, "steady")?),
        (
            "duplicate_heavy_cold",
            Json::obj(vec![
                ("coalesced", coalesced),
                ("no_coalesce", no_coalesce),
                (
                    "coalescing_speedup",
                    Json::Num((speedup * 100.0).round() / 100.0),
                ),
            ]),
        ),
        (
            "cluster_duplicate_heavy",
            Json::obj(vec![
                ("single_node", load(dir, "cluster1")?),
                ("four_nodes_routed", load(dir, "cluster4")?),
                ("four_node_fleet_computes", Json::Num(fleet_computes as f64)),
                ("unique_keys", Json::Num(2.0)),
            ]),
        ),
        (
            "serving",
            Json::obj(vec![
                ("readiness_core_512", load(dir, "serving_core")?),
                ("open_loop_10k", load(dir, "serving_10k")?),
            ]),
        ),
        ("tiers", load(dir, "tiers")?),
    ]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (dir, fleet_computes) = match args.as_slice() {
        [dir, n] => match n.parse() {
            Ok(n) => (Path::new(dir), n),
            Err(_) => usage(),
        },
        _ => usage(),
    };
    match build(dir, fleet_computes) {
        Ok(report) => println!("{}", report.to_string_pretty()),
        Err(e) => {
            eprintln!("bench_report: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: bench_report OUT_DIR FLEET_COMPUTES");
    std::process::exit(2);
}
