//! The three workloads and the inputs each one generates from `--seed`.
//!
//! Every workload is a closed loop: a connection sends its next request
//! only after the previous response arrived, because the daemon's
//! callers (`repro` users, notebooks posting experiments) each wait for
//! their result. The daemon sees only the requests generated here.
//!
//! `BENCH_serving.json` and `scripts/bench_serving.sh` stay untouched by
//! this benchmark: they mix bare-engine, `--worker-delay-ms` and
//! `/healthz` numbers. Folding them in is ROADMAP item 3.
//!
//! Seeds: steadiness is checked on seeds 1 to 10. Seed [`HOLDOUT_SEED`]
//! is held out: no change is tuned on it, and a claimed gain must also
//! hold on it.

use gem5prof::spec::ALL_WORKLOADS;
use gem5prof::ExperimentSpec;
use gem5sim::config::{CpuModel, SimMode};
use gem5sim_workloads::Scale;
use platforms::{PlatformId, SystemKnobs};

/// Seed reserved for confirming claims; never used while tuning.
pub const HOLDOUT_SEED: u64 = 7919;

/// One benchmark workload (a traffic mix against a fresh daemon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GET `/figures/fig02` … `/figures/fig15?fidelity=quick`, each once
    /// in paper order, over one connection to a fresh daemon: what
    /// `repro` users regenerate. A run takes one such pass per 8 s of
    /// run length, each on its own fresh daemon.
    ///
    /// Why: host-engine fan-out (7–9 engines per guest run) and
    /// trace-cache reads dominate — most profiles replay a recorded
    /// stream. fig01, fig16 and fig17 are left out for run length; fig14
    /// exercises the same fan-out.
    ///
    /// Predicted to move: `hostmodel.replay_s`, `core.profile_replay_s`
    /// and `core.figure_s.*` move `wall_s`; `core.trace_resident_events`
    /// moves `peak_rss_mb`.
    FiguresCold,
    /// POST `/experiments` over distinct guest specs from the test-scale
    /// space (17 workloads × 4 CPU models, one of SE/FS, one platform and
    /// one knob set per pair) in a seeded order, over two connections to
    /// a fresh daemon.
    ///
    /// Why: every request misses both caches and feeds one host engine,
    /// so guest execution and trace adaptation take their largest share
    /// here, and the run writes both caches. Fan-out parallelism has
    /// nothing to split: its prediction here is flat.
    ///
    /// Predicted to move: `sim.guest_exec_s`, `hosttrace.adapt_s`,
    /// `hostmodel.replay_s` and `core.profile_cold_s` move `host_mips`;
    /// `server.queue_wait_s` moves `latency_tail_ms`.
    ExperimentsCold,
    /// Seeded repeats over a small primed set of experiment specs and
    /// cheap quick figures (the same set for every seed; the seed draws
    /// the request sequence), over two connections, on three fresh
    /// daemons in turn. Priming is set-up. The load generator and the
    /// daemons share one CPU (see `run::run`).
    ///
    /// Why: every request is a result-cache hit served inline on the
    /// readiness core, so the server layer does all the work and every
    /// compute layer is idle. Compute optimisations must leave it flat;
    /// serving changes show only here.
    ///
    /// Predicted to move: `server.gap_us_mean` and
    /// `server.lookup_us_mean` move `latency_p50_ms` and
    /// `throughput_rps`.
    ExperimentsHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FiguresCold,
        Workload::ExperimentsCold,
        Workload::ExperimentsHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresCold => "figures_cold",
            Workload::ExperimentsCold => "experiments_cold",
            Workload::ExperimentsHot => "experiments_hot",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Connections the load generator opens: at most two, as the
    /// benchmark is sized for a two-core host.
    pub fn connections(self) -> usize {
        match self {
            Workload::FiguresCold => 1,
            Workload::ExperimentsCold | Workload::ExperimentsHot => 2,
        }
    }
}

/// The figures `figures_cold` requests, in paper order.
pub const FIGURES: [usize; 14] = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// Path of a quick-fidelity figure.
pub fn figure_path(n: usize) -> String {
    format!("/figures/fig{n:02}?fidelity=quick")
}

/// The guest specs fig02–fig15 simulate at quick fidelity, each once per
/// daemon: every other profile those figures run replays one of these
/// recorded streams. Paired with the Intel_Xeon host most of them use,
/// for the in-process layer split. `figures_cold` checks the daemon's
/// trace-cache misses against this count, and its traced run checks that
/// each spec is a trace-cache hit after the figures ran.
pub fn figure_guests() -> Vec<ExperimentSpec> {
    use gem5sim_workloads::Workload as W;
    let mut g = Vec::new();
    for w in [W::BootExit, W::WaterNsquared] {
        for cpu in CpuModel::ALL {
            g.push((w, cpu, SimMode::Fs));
        }
    }
    for cpu in CpuModel::ALL {
        g.push((W::WaterNsquared, cpu, SimMode::Se));
    }
    for cpu in [CpuModel::Atomic, CpuModel::Timing, CpuModel::O3] {
        g.push((W::Sieve, cpu, SimMode::Se));
    }
    g.into_iter()
        .map(|(w, cpu, mode)| ExperimentSpec::new(PlatformId::IntelXeon, w, Scale::Test, cpu, mode))
        .collect()
}

/// Host knob strings the experiment specs use; each parses with
/// `SystemKnobs::parse`.
const KNOBS: [&str; 7] = [
    "default",
    "thp",
    "ehp",
    "o3",
    "thp,o3",
    "freq=2.4",
    "corun=per_core:2",
];

/// splitmix64: a small, well-mixed generator so every input is a pure
/// function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// One experiment as generated: the wire body the daemon receives and
/// the spec the in-process checks and layer calls use.
#[derive(Debug, Clone)]
pub struct Experiment {
    pub spec: ExperimentSpec,
    pub body: String,
}

fn experiment(
    platform: PlatformId,
    workload: gem5sim_workloads::Workload,
    cpu: CpuModel,
    mode: SimMode,
    knobs: &str,
) -> Experiment {
    let mut spec = ExperimentSpec::new(platform, workload, Scale::Test, cpu, mode);
    spec.knobs = SystemKnobs::parse(knobs).expect("knob menu entries parse");
    let body = format!(
        r#"{{"platform":"{}","workload":"{}","scale":"test","cpu":"{}","mode":"{}","knobs":"{}"}}"#,
        platform.name().to_ascii_lowercase(),
        workload.name(),
        cpu.label().to_ascii_lowercase(),
        mode.label().to_ascii_lowercase(),
        knobs,
    );
    Experiment { spec, body }
}

/// Half of the test-scale space, the same list of specs for every seed,
/// in a seeded order: one guest spec per (workload, CPU model) pair, with
/// SE/FS alternating over the pairs and the host platform and knob set
/// rotating over them. Guest specs are distinct, so every request misses
/// the trace cache and the result cache.
///
/// Platform and knobs are fixed per pair rather than drawn: the platform
/// sets most of a spec's host-engine cost (Intel_Xeon replays take about
/// 1.7× as long as either M1) and knobs move it by about ±10%, and with
/// both drawn by seed the work in a list, and with it every metric, moved
/// with the seed (median latency 155 ms for some seeds, 195 ms for
/// others).
pub fn cold_experiments(seed: u64) -> Vec<Experiment> {
    let mut specs: Vec<Experiment> = ALL_WORKLOADS
        .into_iter()
        .enumerate()
        .flat_map(|(i, w)| {
            CpuModel::ALL.into_iter().enumerate().map(move |(j, cpu)| {
                let k = i * CpuModel::ALL.len() + j;
                experiment(
                    PlatformId::ALL[(i + j) % PlatformId::ALL.len()],
                    w,
                    cpu,
                    [SimMode::Se, SimMode::Fs][(i + j) % 2],
                    KNOBS[k % KNOBS.len()],
                )
            })
        })
        .collect();
    Rng::new(seed).shuffle(&mut specs);
    specs
}

/// The experiments `experiments_hot` primes: the same six for every seed,
/// so set-up, memory and the instructions each response reports do not
/// vary with the seed. Their guest specs take well under a second of
/// cold compute each, so priming stays a small share of set-up.
pub fn hot_experiments() -> Vec<Experiment> {
    use gem5sim_workloads::Workload as W;
    [
        (
            W::Dedup,
            CpuModel::O3,
            SimMode::Se,
            PlatformId::M1Pro,
            "thp",
        ),
        (
            W::WaterNsquared,
            CpuModel::Minor,
            SimMode::Fs,
            PlatformId::IntelXeon,
            "default",
        ),
        (
            W::Blackscholes,
            CpuModel::Timing,
            SimMode::Se,
            PlatformId::M1Ultra,
            "o3",
        ),
        (
            W::Fmm,
            CpuModel::Atomic,
            SimMode::Fs,
            PlatformId::M1Pro,
            "freq=2.4",
        ),
        (
            W::OceanCp,
            CpuModel::O3,
            SimMode::Fs,
            PlatformId::IntelXeon,
            "ehp",
        ),
        (
            W::BootExit,
            CpuModel::Timing,
            SimMode::Fs,
            PlatformId::M1Ultra,
            "corun=per_core:2",
        ),
    ]
    .into_iter()
    .map(|(w, cpu, mode, platform, knobs)| experiment(platform, w, cpu, mode, knobs))
    .collect()
}

/// Quick figures in the hot set: cheap to prime, and their bodies are
/// the largest the daemon serves from cache.
pub const HOT_FIGURES: [usize; 2] = [7, 8];

/// FNV-1a over the canonical keys, one per line: names a spec list in
/// the report without printing it.
pub fn digest<'a>(keys: impl IntoIterator<Item = &'a str>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        for b in k.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn keys(list: &[Experiment]) -> Vec<String> {
        list.iter().map(|e| e.spec.canonical_key()).collect()
    }

    #[test]
    fn same_seed_same_list() {
        assert_eq!(keys(&cold_experiments(3)), keys(&cold_experiments(3)));
        let a: Vec<String> = cold_experiments(3).into_iter().map(|e| e.body).collect();
        let b: Vec<String> = cold_experiments(3).into_iter().map(|e| e.body).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_list() {
        assert_ne!(keys(&cold_experiments(3)), keys(&cold_experiments(4)));
        let d = |s| digest(keys(&cold_experiments(s)).iter().map(String::as_str));
        assert_ne!(d(3), d(4));
    }

    #[test]
    fn guest_specs_are_distinct_and_cover_every_pair() {
        for seed in [1, 2, HOLDOUT_SEED] {
            let list = cold_experiments(seed);
            assert_eq!(list.len(), 17 * 4);
            let guests: HashSet<_> = list.iter().map(|e| e.spec.guest()).collect();
            assert_eq!(guests.len(), list.len());
            let pairs: HashSet<_> = list.iter().map(|e| (e.spec.workload, e.spec.cpu)).collect();
            assert_eq!(pairs.len(), list.len());
            let first: HashSet<_> = cold_experiments(1).iter().map(|e| e.spec.guest()).collect();
            assert_eq!(guests, first, "every seed holds the same guest work");
        }
    }

    #[test]
    fn wire_bodies_name_the_same_spec() {
        for e in cold_experiments(5) {
            assert!(e
                .body
                .contains(&format!("\"workload\":\"{}\"", e.spec.workload.name())));
            assert!(e.body.contains(&format!(
                "\"cpu\":\"{}\"",
                e.spec.cpu.label().to_ascii_lowercase()
            )));
        }
    }
}
