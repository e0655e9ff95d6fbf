//! Exact-output pins: the post-adapter host stream, the call profile and
//! the host results, to the bit.
//!
//! The golden artifacts print three decimals, and `host_batch_diff`
//! compares the engine with the batch, so a change that moves both the
//! same way passes both. These pins do not: they hold
//!
//! 1. an FNV-1a digest of the decoded stream and of the `CallProfile`
//!    for each of the 15 guests fig02–fig15 simulate (perfbench's
//!    `figure_guests`) and for eight `POST /experiments` specs of
//!    perfbench's experiments_cold list (SE and FS, all four CPU models,
//!    `corun=per_core:2`), plus a digest of each spec's served result;
//! 2. the full-precision `{:?}` of `HostRunStats` for Sieve O3 SE,
//!    water_nsquared O3 FS and dedup Minor SE on each Table II platform,
//!    at default knobs and at `thp,o3`, from both the profiling pipeline
//!    (a `HostBatch`) and one `HostEngine` per setup.
//!
//! The pins live in `tests/exact/`. To re-bless after an intentional
//! change of the model:
//!
//! ```text
//! GEM5PROF_BLESS=1 cargo test --test exact_outputs
//! ```

use gem5_profiling::hostmodel::HostEngine;
use gem5_profiling::platforms::{self, PlatformId, SystemKnobs};
use gem5_profiling::prof::{self, ExperimentSpec, GuestSpec, HostSetup};
use gem5_profiling::sim::config::{CpuModel, SimMode, SystemConfig};
use gem5_profiling::sim::observe::{ExecutionObserver, Obs};
use gem5_profiling::sim::system::System;
use gem5_profiling::workloads::{Microbench, Scale, Workload};
use hosttrace::record::{DataRef, ExecRecord, RecordingSink, Stream, TraceSink};
use hosttrace::{BinaryVariant, CallProfile, PageBacking, Registry, TraceAdapter};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn of(s: &str) -> String {
        let mut f = Fnv::new();
        f.put(s.as_bytes());
        format!("{:016x}", f.0)
    }
}

/// Digests every field of every event, in order.
impl TraceSink for Fnv {
    fn exec(&mut self, r: ExecRecord) {
        self.put(&[0]);
        self.put(&r.func.0.to_le_bytes());
        self.put(&r.uops.to_le_bytes());
        self.put(&[r.cond_branches, r.indirect_branches, r.loads, r.stores]);
        self.put(&r.variant.to_le_bytes());
    }
    fn data(&mut self, d: DataRef) {
        self.put(&[1]);
        self.put(&d.addr.to_le_bytes());
        self.put(&d.bytes.to_le_bytes());
        self.put(&[u8::from(d.write)]);
    }
}

/// The recorded post-adapter stream and call profile of a single-hart
/// guest, simulated as `gem5prof::profile` simulates it.
fn record(guest: &GuestSpec) -> (Stream, CallProfile) {
    assert!(guest.harts == 1 && guest.corun.is_none() && guest.corun_div == 1);
    let reg = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base));
    let adapter = Rc::new(RefCell::new(TraceAdapter::new(
        reg,
        RecordingSink::with_cap(usize::MAX),
    )));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);
    let cfg = SystemConfig::new(guest.cpu, guest.mode).with_exec_tier(prof::exec_tier());
    System::with_observer(cfg, guest.workload.program(guest.scale), obs).run();
    let (recorder, profile) = Rc::try_unwrap(adapter)
        .unwrap_or_else(|_| panic!("system dropped; adapter is uniquely owned"))
        .into_inner()
        .into_parts();
    (recorder.finish().0.expect("uncapped recorder"), profile)
}

/// `stream=<digest> profile=<digest>` of the decoded stream and profile.
fn digests(stream: &Stream, profile: &CallProfile) -> String {
    let mut f = Fnv::new();
    stream.feed(&mut f);
    format!(
        "events={} stream={:016x} profile={}",
        stream.len(),
        f.0,
        Fnv::of(&format!("{profile:?}"))
    )
}

fn guest(workload: Workload, cpu: CpuModel, mode: SimMode) -> GuestSpec {
    GuestSpec::new(workload, Scale::Test, cpu, mode)
}

/// perfbench's `figure_guests`: what fig02–fig15 simulate.
fn figure_guests() -> Vec<GuestSpec> {
    let mut g = Vec::new();
    for w in [Workload::BootExit, Workload::WaterNsquared] {
        for cpu in CpuModel::ALL {
            g.push(guest(w, cpu, SimMode::Fs));
        }
    }
    for cpu in CpuModel::ALL {
        g.push(guest(Workload::WaterNsquared, cpu, SimMode::Se));
    }
    for cpu in [CpuModel::Atomic, CpuModel::Timing, CpuModel::O3] {
        g.push(guest(Workload::Sieve, cpu, SimMode::Se));
    }
    g
}

/// Eight entries of perfbench's experiments_cold list: SE and FS, every
/// CPU model, two with `corun=per_core:2`, a microbenchmark.
fn cold_experiments() -> Vec<ExperimentSpec> {
    use CpuModel::*;
    use PlatformId::*;
    use SimMode::*;
    [
        (
            M1Ultra,
            Workload::WaterSpatial,
            Atomic,
            Fs,
            "corun=per_core:2",
        ),
        (IntelXeon, Workload::WaterSpatial, Timing, Se, "default"),
        (M1Pro, Workload::WaterSpatial, Minor, Fs, "thp"),
        (M1Ultra, Workload::WaterSpatial, O3, Se, "ehp"),
        (IntelXeon, Workload::Blackscholes, O3, Fs, "o3"),
        (IntelXeon, Workload::WaterNsquared, Minor, Se, "thp,o3"),
        (
            IntelXeon,
            Workload::Micro(Microbench::BranchPred),
            Atomic,
            Se,
            "corun=per_core:2",
        ),
        (M1Pro, Workload::Dedup, Minor, Se, "o3"),
    ]
    .into_iter()
    .map(|(platform, w, cpu, mode, knobs)| {
        let mut s = ExperimentSpec::new(platform, w, Scale::Test, cpu, mode);
        s.knobs = SystemKnobs::parse(knobs).expect("knobs parse");
        s
    })
    .collect()
}

fn pin_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("exact")
        .join(format!("{name}.txt"))
}

/// Compares `lines` with the pin file `name`, or rewrites it under
/// `GEM5PROF_BLESS=1`.
fn check(name: &str, lines: &[String]) {
    let path = pin_path(name);
    let rendered: String = lines.iter().map(|l| format!("{l}\n")).collect();
    if std::env::var("GEM5PROF_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("pin dir")).expect("create tests/exact");
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("bless {name}: {e}"));
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()));
    let diverged: Vec<String> = pinned
        .lines()
        .zip(rendered.lines())
        .filter(|(p, r)| p != r)
        .map(|(p, r)| format!("  pinned   {p}\n  rendered {r}"))
        .collect();
    assert!(
        diverged.is_empty() && pinned.lines().count() == rendered.lines().count(),
        "{} diverged from its pins in {} of {} lines:\n{}",
        path.display(),
        diverged.len(),
        lines.len(),
        diverged.join("\n")
    );
}

#[test]
fn figure_guest_streams_and_profiles_are_pinned() {
    let lines: Vec<String> = figure_guests()
        .iter()
        .map(|g| {
            let (stream, profile) = record(g);
            format!("{} {}", g.label(), digests(&stream, &profile))
        })
        .collect();
    assert_eq!(lines.len(), 15);
    check("figure_guests", &lines);
}

#[test]
fn experiments_cold_streams_profiles_and_results_are_pinned() {
    let lines: Vec<String> = cold_experiments()
        .iter()
        .map(|spec| {
            let (stream, profile) = record(&spec.guest());
            let run = spec.run();
            assert_eq!(run.profile, profile, "{}", spec.canonical_key());
            format!(
                "{} {} stats={}",
                spec.canonical_key(),
                digests(&stream, &profile),
                Fnv::of(&format!("{:?}", run.hosts[0]))
            )
        })
        .collect();
    check("experiments_cold", &lines);
}

#[test]
fn host_run_stats_are_pinned_to_full_precision() {
    let knobs = [
        ("default", SystemKnobs::new()),
        ("thp,o3", SystemKnobs::parse("thp,o3").expect("knobs parse")),
    ];
    let mut setups: Vec<(String, HostSetup)> = Vec::new();
    for p in [
        platforms::intel_xeon(),
        platforms::m1_pro(),
        platforms::m1_ultra(),
    ] {
        for (label, k) in &knobs {
            setups.push((
                format!("{} {label}", p.config.name),
                HostSetup::with_knobs(&p, k),
            ));
        }
    }
    let hosts: Vec<HostSetup> = setups.iter().map(|(_, h)| h.clone()).collect();
    let mut lines = Vec::new();
    for g in [
        guest(Workload::Sieve, CpuModel::O3, SimMode::Se),
        guest(Workload::WaterNsquared, CpuModel::O3, SimMode::Fs),
        guest(Workload::Dedup, CpuModel::Minor, SimMode::Se),
    ] {
        let (stream, _) = record(&g);
        let batch = prof::profile(&g, &hosts).hosts;
        for ((label, h), got) in setups.iter().zip(batch) {
            let reg = Arc::new(Registry::new(h.binary, h.backing));
            let mut e = HostEngine::new(h.config.clone(), reg);
            stream.feed(&mut e);
            assert_eq!(got, e.finish(), "{} on {label}: batch vs engine", g.label());
            lines.push(format!("{} {label} {got:?}", g.label()));
        }
    }
    check("host_stats", &lines);
}
