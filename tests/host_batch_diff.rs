//! Differential harness for the factored multi-setup host engine.
//!
//! `HostBatch`'s contract is bit identity: every setup's `HostRunStats`
//! must equal, field for field, what one `HostEngine` fed the same stream
//! produces. The batch simulates each distinct structure once, answers
//! every L1 associativity of one set count with one LRU stack pass, and
//! walks compact per-record outcomes for each setup's accounting; a slip
//! in a structure's key, the stack depth or the order of a bucket's
//! additions shows up here as a changed field. Batches of 1–9 setups are
//! drawn from:
//!
//! 1. the Table II platforms under knob sets (THP, EHP, the `-O3` binary,
//!    frequency, co-run);
//! 2. the Fig. 14 FireSim sweep;
//! 3. random geometries: 1–16 ways at shared and unshared set counts,
//!    32/64/128 B lines, with and without a DSB and an STLB.
//!
//! The streams are recorded figure streams (Fig. 14's three Sieve runs
//! and water_nsquared O3 FS) and fuzzed streams (zero-µop records, 255
//! branches/loads/stores, data references spanning many lines). Each
//! batch is fed through `hosttrace::record::feed`, so streams longer than
//! its 65,536-event chunk cross chunk boundaries. A failing case panics
//! with a `replay: Gen::new(0x…)` seed from [`testkit::run_cases`].

use gem5_profiling::hostmodel::{CacheGeom, HostBatch, HostConfig, HostEngine, HostRunStats};
use gem5_profiling::platforms::{self, firesim, SystemKnobs};
use gem5_profiling::sim::config::{CpuModel, SimMode, SystemConfig};
use gem5_profiling::sim::observe::{ExecutionObserver, Obs};
use gem5_profiling::sim::system::System;
use gem5_profiling::workloads::{Scale, Workload};
use hostmodel::CorunScenario;
use hosttrace::record::{feed, replay, DataRef, ExecRecord, RecordingSink, TraceEvent};
use hosttrace::{BinaryVariant, FunctionId, PageBacking, Registry, TraceAdapter};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use testkit::{prop_assert_eq, run_cases, Gen, PropResult};

type Setup = (HostConfig, Arc<Registry>);

fn registry(binary: BinaryVariant, backing: PageBacking) -> Arc<Registry> {
    static REGS: OnceLock<Vec<Arc<Registry>>> = OnceLock::new();
    let regs = REGS.get_or_init(|| {
        let mut v = Vec::new();
        for binary in [BinaryVariant::Base, BinaryVariant::O3Flag] {
            for backing in [PageBacking::Base, PageBacking::thp(), PageBacking::Ehp] {
                v.push(Arc::new(Registry::new(binary, backing)));
            }
        }
        v
    });
    let r = regs
        .iter()
        .find(|r| r.variant() == binary && r.layout().backing == backing)
        .expect("every (binary, backing) pair is built");
    Arc::clone(r)
}

/// The post-adapter stream of one quick-scale guest run.
fn record(workload: Workload, cpu: CpuModel, mode: SimMode) -> Vec<TraceEvent> {
    let adapter = Rc::new(RefCell::new(TraceAdapter::new(
        registry(BinaryVariant::Base, PageBacking::Base),
        RecordingSink::with_cap(usize::MAX),
    )));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);
    System::with_observer(
        SystemConfig::new(cpu, mode),
        workload.program(Scale::Test),
        obs,
    )
    .run();
    let (recorder, _) = Rc::try_unwrap(adapter)
        .unwrap_or_else(|_| panic!("system dropped; adapter is uniquely owned"))
        .into_inner()
        .into_parts();
    recorder.into_events().expect("uncapped recorder")
}

/// Fig. 14's three Sieve streams and water_nsquared O3 FS.
fn figure_streams() -> &'static [(&'static str, Vec<TraceEvent>)] {
    static STREAMS: OnceLock<Vec<(&'static str, Vec<TraceEvent>)>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        vec![
            (
                "sieve atomic",
                record(Workload::Sieve, CpuModel::Atomic, SimMode::Se),
            ),
            (
                "sieve timing",
                record(Workload::Sieve, CpuModel::Timing, SimMode::Se),
            ),
            (
                "sieve o3",
                record(Workload::Sieve, CpuModel::O3, SimMode::Se),
            ),
            (
                "water_nsquared o3 fs",
                record(Workload::WaterNsquared, CpuModel::O3, SimMode::Fs),
            ),
        ]
    })
}

/// One engine per setup, each replaying the whole stream.
fn engines(setups: &[Setup], events: &[TraceEvent]) -> Vec<HostRunStats> {
    setups
        .iter()
        .map(|(cfg, reg)| {
            let mut e = HostEngine::new(cfg.clone(), Arc::clone(reg));
            replay(events, &mut e);
            e.finish()
        })
        .collect()
}

/// The batch fed through `feed`, chunk by chunk.
fn batch(setups: &[Setup], events: &[TraceEvent]) -> Vec<HostRunStats> {
    let mut b = HostBatch::new(setups.to_vec());
    feed(events, &mut b);
    b.finish()
}

/// The batch against one engine per setup.
fn check(setups: &[Setup], events: &[TraceEvent], label: &str) -> PropResult {
    let want = engines(setups, events);
    let got = batch(setups, events);
    prop_assert_eq!(got.len(), setups.len(), "{label}");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(g, w, "{label}: setup {i} of {} ({})", setups.len(), w.name);
    }
    Ok(())
}

/// A Table II platform under a random knob set.
fn table2_setup(g: &mut Gen) -> Setup {
    let p = g
        .pick(&[
            platforms::intel_xeon(),
            platforms::m1_pro(),
            platforms::m1_ultra(),
        ])
        .clone();
    let mut k = SystemKnobs::new();
    match g.u64_in(0..3) {
        0 => {}
        1 => k = k.with_thp(),
        _ => k = k.with_ehp(),
    }
    if g.bool() {
        k = k.with_o3_binary();
    }
    if g.bool() {
        k = k.with_freq(*g.pick(&[1.2, 2.4, 3.1, 4.1]));
    }
    k = k.with_corun(match g.u64_in(0..3) {
        0 => CorunScenario::Single,
        1 => CorunScenario::PerPhysicalCore {
            procs: g.u64_in(1..20),
        },
        _ => CorunScenario::PerHardwareThread {
            procs: g.u64_in(2..40),
        },
    });
    (k.apply(&p.config), registry(k.binary, k.backing))
}

/// A point of the Fig. 14 sweep (or the Table I base host).
fn firesim_setup(g: &mut Gen) -> Setup {
    let mut sweep = firesim::fig14_sweep();
    sweep.push(firesim::base());
    let cfg = g.pick(&sweep).clone();
    (cfg, registry(BinaryVariant::Base, PageBacking::Base))
}

/// A random geometry. With `shared_sets` the L1s take the batch's common
/// set count half of the time, so stack passes get shared.
fn random_setup(g: &mut Gen, line: u64, shared_sets: u64) -> Setup {
    let l1 = |g: &mut Gen| {
        let sets = if g.bool() {
            shared_sets
        } else {
            *g.pick(&[8, 16, 32, 64, 128])
        };
        let assoc = g.u64_in(1..17);
        CacheGeom {
            size: sets * assoc * line,
            assoc,
        }
    };
    let (l1i, l1d) = (l1(g), l1(g));
    let geom = |g: &mut Gen, sets: &[u64], ways: std::ops::Range<u64>| {
        let assoc = g.u64_in(ways);
        CacheGeom {
            size: g.pick(sets) * assoc * line,
            assoc,
        }
    };
    // 3 × 2^k sets exercise the division path, as the Xeon LLC does.
    let l2 = geom(g, &[128, 256, 512, 768], 2..17);
    let llc = geom(g, &[1024, 2048, 3072], 4..17);
    let cfg = HostConfig {
        name: format!("random/{line}"),
        width: g.u64_in(2..9),
        mite_width: *g.pick(&[2.6, 4.0, 8.0]),
        dsb_width: *g.pick(&[0.5, 6.0, 8.0]),
        dsb_uops: *g.pick(&[0, 0, 576, 1536]),
        freq_ghz: 3.0,
        line,
        page: *g.pick(&[4096, 16384]),
        l1i,
        l1d,
        l2,
        llc,
        l2_lat: g.u64_in(8..20),
        llc_lat: g.u64_in(20..90),
        dram_lat: g.u64_in(150..400),
        itlb_entries: *g.pick(&[8, 32, 128]),
        dtlb_entries: *g.pick(&[8, 64, 160]),
        stlb_entries: *g.pick(&[0, 0, 1536]),
        stlb_lat: g.u64_in(0..10),
        walk_lat: g.u64_in(20..60),
        bp_bits: g.u32_in(8..15),
        btb_entries: *g.pick(&[64, 1024, 4096]),
        mispredict_penalty: g.u64_in(10..20),
        resteer_cycles: g.u64_in(4..12),
        loop_reach: *g.pick(&[0, 48, 96, 600]),
        bytes_per_uop: *g.pick(&[3.6, 3.8]),
        uops_per_inst: 1.1,
        mlp: *g.pick(&[1.0, 3.0]),
        fetch_mlp: *g.pick(&[1.0, 2.0, 10.0]),
        prefetch_factor: *g.pick(&[0.0, 0.08, 1.0]),
    };
    let binary = *g.pick(&[BinaryVariant::Base, BinaryVariant::O3Flag]);
    let backing = *g.pick(&[PageBacking::Base, PageBacking::thp(), PageBacking::Ehp]);
    (cfg, registry(binary, backing))
}

/// An earlier setup with other latencies, widths or MLP: the same
/// structures, accounted differently.
fn retimed(g: &mut Gen, (cfg, reg): &Setup) -> Setup {
    let mut c = cfg.clone();
    match g.u64_in(0..4) {
        0 => c.l2_lat += g.u64_in(1..10),
        1 => c.mlp = *g.pick(&[1.0, 1.5, 4.0]),
        2 => c.width = g.u64_in(2..9),
        _ => c.prefetch_factor = *g.pick(&[0.0, 0.5, 1.0]),
    }
    (c, Arc::clone(reg))
}

/// 1–9 setups from all three families; some repeat or retime an earlier
/// one.
fn draw_batch(g: &mut Gen) -> Vec<Setup> {
    let line = *g.pick(&[32, 64, 128]);
    let shared_sets = *g.pick(&[16, 64]);
    let n = g.usize_in(1..10);
    let mut setups: Vec<Setup> = Vec::with_capacity(n);
    while setups.len() < n {
        let s = match g.u64_in(0..9) {
            0 if !setups.is_empty() => setups[g.usize_in(0..setups.len())].clone(),
            1 if !setups.is_empty() => {
                let earlier = setups[g.usize_in(0..setups.len())].clone();
                retimed(g, &earlier)
            }
            0..=2 => table2_setup(g),
            3..=4 => firesim_setup(g),
            _ => random_setup(g, line, shared_sets),
        };
        setups.push(s);
    }
    setups
}

/// A fuzzed stream of `len` events with extreme records mixed in.
fn fuzzed_stream(g: &mut Gen, len: usize) -> Vec<TraceEvent> {
    let funcs = registry(BinaryVariant::Base, PageBacking::Base).len() as u32;
    let hot: Vec<u32> = (0..g.usize_in(4..64)).map(|_| g.u32_in(0..funcs)).collect();
    let mut data_addr = 0x10_0000_0000u64;
    (0..len)
        .map(|_| {
            if g.u64_in(0..5) == 0 {
                data_addr = match g.u64_in(0..4) {
                    0 => data_addr + g.u64_in(0..256),
                    1 => 0x10_0000_0000 + g.u64_in(0..(8 << 20)),
                    2 => g.u64_in(0..(1 << 47)),
                    _ => data_addr,
                };
                let bytes = match g.u64_in(0..6) {
                    0 => 0,
                    1 => g.u32_in(1024..8193),
                    _ => g.u32_in(1..256),
                };
                TraceEvent::Data(DataRef {
                    addr: data_addr,
                    bytes,
                    write: g.bool(),
                })
            } else {
                let extreme = g.u64_in(0..16) == 0;
                let count = |g: &mut Gen, typical: u8| {
                    if extreme {
                        *g.pick(&[0, 255])
                    } else {
                        g.u8_in(0..typical)
                    }
                };
                TraceEvent::Exec(ExecRecord {
                    func: FunctionId(if g.bool() {
                        *g.pick(&hot)
                    } else {
                        g.u32_in(0..funcs)
                    }),
                    uops: if extreme {
                        *g.pick(&[0, u16::MAX])
                    } else {
                        g.u16_in(0..120)
                    },
                    cond_branches: count(g, 12),
                    indirect_branches: count(g, 4),
                    loads: count(g, 24),
                    stores: count(g, 10),
                    variant: g.u32_in(0..5000),
                })
            }
        })
        .collect()
}

#[test]
fn fuzzed_streams_match_per_setup_engines() {
    run_cases("fuzzed_streams_match_per_setup_engines", 32, |g| {
        // One case in four crosses `feed`'s 65,536-event chunk.
        let len = if g.u64_in(0..4) == 0 {
            g.usize_in(65_536..70_000)
        } else {
            g.usize_in(0..12_000)
        };
        let events = fuzzed_stream(g, len);
        let setups = draw_batch(g);
        check(&setups, &events, &format!("fuzzed stream of {len} events"))
    });
}

#[test]
fn figure_streams_match_per_setup_engines() {
    let sweep: Vec<Setup> = firesim::fig14_sweep()
        .into_iter()
        .map(|c| (c, registry(BinaryVariant::Base, PageBacking::Base)))
        .collect();
    for (name, events) in figure_streams() {
        if name.starts_with("sieve") {
            if let Err(e) = check(&sweep, events, &format!("{name}, Fig. 14 sweep")) {
                panic!("{e}");
            }
        }
        run_cases(&format!("figure stream `{name}`"), 2, |g| {
            let setups = draw_batch(g);
            check(&setups, events, name)
        });
    }
}

#[test]
fn equal_setups_are_accounted_once_and_returned_in_order() {
    let xeon = (
        platforms::intel_xeon().config,
        registry(BinaryVariant::Base, PageBacking::Base),
    );
    // Same configuration, different backing: not equal.
    let thp = (
        platforms::intel_xeon().config,
        registry(BinaryVariant::Base, PageBacking::thp()),
    );
    let setups = vec![xeon.clone(), thp.clone(), xeon.clone(), thp, xeon];
    assert_eq!(HostBatch::new(setups.clone()).distinct_setups(), 2);
    let (_, events) = &figure_streams()[0];
    let got = batch(&setups, events);
    assert_eq!(got, engines(&setups, events));
    assert_eq!(got[0], got[2]);
    assert_ne!(got[0], got[1], "THP must change the iTLB outcome");
}
