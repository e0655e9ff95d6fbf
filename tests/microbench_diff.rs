//! Checksummed differential suite for the guest microbenchmarks and
//! multi-hart co-run scenarios.
//!
//! Every microbenchmark variant deposits a deterministic checksum into
//! guest memory before halting; the host mirrors the computation
//! exactly. That turns each differential leg into a *correctness* test,
//! not just a consistency test: the interp and block tiers must agree
//! with each other **and** with the independently computed expected
//! value, under every CPU model, in SE and FS modes, at 1/2/4 harts,
//! and with per-hart clock dividers in play.

use gem5sim::config::{CpuModel, ExecTier, SimMode, SystemConfig};
use gem5sim::system::{SimResult, System};
use gem5sim::trace::{TraceEntry, Tracer, VecTracer};
use gem5sim_isa::exec::ArchState;
use gem5sim_isa::Program;
use gem5sim_workloads::{corun_program, Microbench, Scale, Workload};
use std::cell::RefCell;
use std::rc::Rc;
use testkit::{prop_assert, prop_assert_eq, run_cases, Gen};

/// Everything observable about one simulation run.
struct TierRun {
    result: SimResult,
    trace: Vec<TraceEntry>,
    arch: Vec<ArchState>,
    mem_checksum: u64,
}

fn run_tier(prog: &Program, cfg: SystemConfig) -> TierRun {
    let tracer = Rc::new(RefCell::new(VecTracer::default()));
    let num_cpus = cfg.num_cpus;
    let mut sys = System::new(cfg, prog.clone());
    sys.set_tracer(Tracer::new(tracer.clone()));
    let result = sys.run();
    let arch = (0..num_cpus).map(|i| sys.arch_state(i)).collect();
    let mem_checksum = sys.mem_checksum();
    drop(sys);
    TierRun {
        result,
        trace: Rc::try_unwrap(tracer).unwrap().into_inner().entries,
        arch,
        mem_checksum,
    }
}

/// Runs `prog` under both tiers, asserts byte identity of every
/// observable, and returns the (shared) result for checksum checks.
fn assert_tiers_match(prog: &Program, cfg: SystemConfig, label: &str) -> SimResult {
    let interp = run_tier(prog, cfg.clone().with_exec_tier(ExecTier::Interp));
    let block = run_tier(prog, cfg.with_exec_tier(ExecTier::Block));
    assert_eq!(
        interp.result, block.result,
        "{label}: SimResult diverged between tiers"
    );
    assert_eq!(
        interp.trace, block.trace,
        "{label}: instruction traces diverged between tiers"
    );
    assert_eq!(
        interp.arch, block.arch,
        "{label}: final register state diverged between tiers"
    );
    assert_eq!(
        interp.mem_checksum, block.mem_checksum,
        "{label}: final memory images diverged between tiers"
    );
    interp.result
}

/// Shared-L2 accounting: every L2 access is an L1 miss or an L1 dirty
/// victim writeback — per run, whatever the hart count or CPU model.
fn assert_l2_balances(r: &SimResult, label: &str) {
    assert_eq!(
        r.l2.accesses,
        r.l1i.misses + r.l1d.misses + r.l1i.writebacks + r.l1d.writebacks,
        "{label}: L2 accesses must balance against per-hart L1 misses + writebacks"
    );
}

/// Every variant × (Atomic, Timing) × (SE, FS) × (interp, block):
/// identical stats/traces *and* the expected guest checksum. The FS
/// legs crank the timer to 1 µs so interrupts land inside the kernels.
#[test]
fn every_variant_matches_across_tiers_with_expected_checksum() {
    for m in Microbench::ALL {
        let prog = Workload::Micro(m).program(Scale::Test);
        let expected = m.expected_checksum(Scale::Test);
        for model in [CpuModel::Atomic, CpuModel::Timing] {
            for mode in [SimMode::Se, SimMode::Fs] {
                let mut cfg = SystemConfig::new(model, mode);
                if mode == SimMode::Fs {
                    cfg.timer_interval_us = 1;
                }
                let label = format!("{m}/{model:?}/{mode:?}");
                let r = assert_tiers_match(&prog, cfg, &label);
                assert_eq!(
                    r.guest_checksums,
                    vec![expected],
                    "{label}: wrong guest checksum"
                );
                assert_l2_balances(&r, &label);
            }
        }
    }
}

/// The detailed models don't implement the block tier but must still
/// produce the expected checksum for every variant.
#[test]
fn detailed_models_deposit_expected_checksums() {
    for m in Microbench::ALL {
        let prog = Workload::Micro(m).program(Scale::Test);
        let expected = m.expected_checksum(Scale::Test);
        for model in [CpuModel::Minor, CpuModel::O3] {
            let mut sys = System::new(SystemConfig::new(model, SimMode::Se), prog.clone());
            let r = sys.run();
            assert_eq!(
                r.guest_checksums,
                vec![expected],
                "{m}/{model:?}: wrong guest checksum"
            );
            assert_l2_balances(&r, &format!("{m}/{model:?}"));
        }
    }
}

/// Multi-hart co-runs: even harts run one variant, odd harts another;
/// each hart's checksum slot must hold its own variant's expected value,
/// identically across tiers, at 2 and 4 harts.
#[test]
fn corun_harts_match_across_tiers_with_parity_checksums() {
    let pairs = [
        (Microbench::MemStride, Microbench::Alu),
        (Microbench::Alu, Microbench::BranchPred),
    ];
    for (a, b) in pairs {
        let prog = corun_program(a, b, Scale::Test);
        for harts in [2usize, 4] {
            for model in [CpuModel::Atomic, CpuModel::Timing] {
                let cfg = SystemConfig::new(model, SimMode::Se).with_cpus(harts);
                let label = format!("{a}+{b} x{harts}/{model:?}");
                let r = assert_tiers_match(&prog, cfg, &label);
                let expected: Vec<u64> = (0..harts)
                    .map(|i| {
                        let v = if i % 2 == 0 { a } else { b };
                        v.expected_checksum(Scale::Test)
                    })
                    .collect();
                assert_eq!(r.guest_checksums, expected, "{label}: checksum parity");
                assert_l2_balances(&r, &label);
            }
        }
    }
}

/// Per-hart clock dividers slow the divided harts' guest time but must
/// not change what any hart computes — and the tiers must still agree.
#[test]
fn clock_dividers_stretch_time_but_not_results() {
    // A symmetric pair: with both harts running the same kernel, the
    // divided hart finishes last, so the divider must show up in the
    // end-of-simulation tick (an asymmetric pair could hide it behind
    // the slower undivided hart).
    let (a, b) = (Microbench::Alu, Microbench::Alu);
    let prog = corun_program(a, b, Scale::Test);
    let base_cfg = SystemConfig::new(CpuModel::Timing, SimMode::Se).with_cpus(2);
    let undivided = assert_tiers_match(&prog, base_cfg.clone(), "alu+alu x2");
    let divided = assert_tiers_match(
        &prog,
        base_cfg.with_hart_clock_divs(vec![1, 2]),
        "alu+alu x2 div2",
    );
    assert_eq!(
        undivided.guest_checksums, divided.guest_checksums,
        "dividers must not change guest computation"
    );
    assert!(
        divided.sim_ticks > undivided.sim_ticks,
        "halving hart 1's clock must stretch guest time ({} vs {})",
        divided.sim_ticks,
        undivided.sim_ticks
    );
    assert_eq!(
        undivided.committed_insts, divided.committed_insts,
        "dividers must not change the instruction stream"
    );
}

/// The co-run scaling figure fans (pair × harts) across the worker
/// pool; its rendered output must be byte-identical at any thread count.
#[test]
fn corun_figure_is_byte_identical_across_thread_counts() {
    use gem5_profiling::prof::figures::{fig17, Fidelity};
    use gem5_profiling::prof::runner::clear_cache;
    use gem5_profiling::prof::with_threads;
    // Each leg starts cold, so both run their engines live instead of
    // reading the other's memoized results.
    let fig17_cold = || {
        clear_cache();
        fig17(Fidelity::Quick).to_string()
    };
    let parallel = with_threads(4, fig17_cold);
    let single = with_threads(1, fig17_cold);
    assert_eq!(parallel, single, "fig17 diverged between 4 and 1 threads");
}

/// A memoized multi-hart co-run trace replays identically: a host first
/// profiled on the cached stream gets exactly the guest stats, per-hart
/// checksums and host profile of a live engine on a cold run.
#[test]
fn corun_profiles_replay_identically_from_memoized_traces() {
    use gem5_profiling::prof::experiment::{profile, GuestSpec, HostSetup};
    use gem5_profiling::prof::runner::{clear_cache, threads};
    use gem5_profiling::prof::with_threads;
    let hosts = [platforms::intel_xeon(), platforms::m1_pro()].map(|p| HostSetup::platform(&p));
    let spec = GuestSpec::new(
        Workload::Micro(Microbench::MemStride),
        Scale::Test,
        CpuModel::Timing,
        SimMode::Se,
    )
    .with_harts(4)
    .with_corun(Microbench::Alu)
    .with_corun_div(2);
    // fig17 profiles this guest too: holding the thread-override lock
    // keeps the fig17 test's cache clears and results out of the middle.
    let (first, replayed, cold) = with_threads(threads(), || {
        clear_cache();
        let first = profile(&spec, &hosts[..1]);
        let replayed = profile(&spec, &hosts[1..]);
        clear_cache();
        (first, replayed, profile(&spec, &hosts))
    });
    assert_eq!(first.guest, cold.guest, "cold guest stats diverged");
    assert_eq!(replayed.guest, cold.guest, "replayed guest stats diverged");
    assert_eq!(
        first.hosts[..],
        cold.hosts[..1],
        "live host profiles diverged"
    );
    assert_eq!(
        replayed.hosts[..],
        cold.hosts[1..],
        "replayed host profiles diverged"
    );
    assert_eq!(
        replayed.profile, cold.profile,
        "replayed call profile diverged"
    );
    let expected: Vec<u64> = (0..4)
        .map(|i| {
            let v = if i % 2 == 0 {
                Microbench::MemStride
            } else {
                Microbench::Alu
            };
            v.expected_checksum(Scale::Test)
        })
        .collect();
    assert_eq!(first.guest.guest_checksums, expected);
}

/// Seeded random co-run configurations: variant pair, hart count, CPU
/// model, SE/FS, dividers and block-cache capacity all fuzzed. Tiers
/// must agree and every hart must deposit its variant's checksum.
#[test]
fn fuzzed_corun_configs_match_across_tiers() {
    run_cases("microbench_corun_fuzz", 24, |g| {
        let a = *g.pick(&Microbench::ALL);
        let b = *g.pick(&Microbench::ALL);
        let harts = *g.pick(&[1usize, 2, 3, 4]);
        let model = if g.bool() {
            CpuModel::Atomic
        } else {
            CpuModel::Timing
        };
        let mode = if g.bool() { SimMode::Se } else { SimMode::Fs };
        let mut cfg = SystemConfig::new(model, mode).with_cpus(harts);
        if mode == SimMode::Fs {
            cfg.timer_interval_us = 1;
        }
        if g.bool() {
            cfg = cfg.with_hart_clock_divs((0..harts).map(|_| g.u64_in(1..4)).collect());
        }
        if g.bool() {
            cfg = cfg.with_block_cache_blocks(g.usize_in(1..4));
        }
        let prog = corun_program(a, b, Scale::Test);
        let interp = run_tier(&prog, cfg.clone().with_exec_tier(ExecTier::Interp));
        let block = run_tier(&prog, cfg.with_exec_tier(ExecTier::Block));
        prop_assert_eq!(&interp.result, &block.result, "SimResult diverged");
        prop_assert!(interp.trace == block.trace, "traces diverged");
        prop_assert_eq!(&interp.arch, &block.arch, "register state diverged");
        prop_assert_eq!(
            interp.mem_checksum,
            block.mem_checksum,
            "memory images diverged"
        );
        for i in 0..harts {
            let v = if i % 2 == 0 { a } else { b };
            prop_assert_eq!(
                interp.result.guest_checksums[i],
                v.expected_checksum(Scale::Test),
                "hart checksum wrong"
            );
        }
        Ok(())
    });
}
