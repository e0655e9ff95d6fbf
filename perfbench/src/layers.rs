//! In-process layer calls: one experiment spec pushed through each
//! layer's public functions, each call timed on its own.
//!
//! `ExperimentSpec::run` on a cold trace cache does all of it at once —
//! the guest simulator with the trace adapter attached as a live
//! observer feeding the host engine. Here the same work is split:
//! program build, bare guest execution, the observer + adapter +
//! recorder run, and a replay of the recorded stream into the host
//! engine. Their sum against the cold `run` is `core.layer_coverage`.

use crate::trace::Tracer;
use gem5prof::ExperimentSpec;
use gem5sim::config::SystemConfig;
use gem5sim::observe::{ExecutionObserver, Obs};
use gem5sim::system::{SimResult, System};
use gem5sim_workloads::Workload;
use hostmodel::HostEngine;
use hosttrace::record::{replay, FanoutSink, RecordingSink};
use hosttrace::{BinaryVariant, PageBacking, Registry, TraceAdapter};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Guest results the daemon's responses must match, from a bare run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub committed_insts: u64,
    pub sim_ticks: u64,
    pub checksums: Vec<u64>,
}

impl Expected {
    fn of(r: &SimResult) -> Self {
        Expected {
            committed_insts: r.committed_insts,
            sim_ticks: r.sim_ticks,
            checksums: r.guest_checksums.clone(),
        }
    }
}

fn config(spec: &ExperimentSpec) -> SystemConfig {
    SystemConfig::new(spec.cpu, spec.mode)
        .with_cpus(spec.harts)
        .with_exec_tier(gem5prof::exec_tier())
}

/// A bare run of the spec's guest, with the microbench checksum checked
/// against its host-side mirror. Specs in this benchmark are single-hart
/// with no co-run partner.
pub fn expected(spec: &ExperimentSpec) -> Result<Expected, String> {
    assert!(
        spec.harts == 1 && spec.corun.is_none(),
        "single-hart specs only"
    );
    let r = System::new(config(spec), spec.workload.program(spec.scale)).run();
    if let Workload::Micro(m) = spec.workload {
        let want = m.expected_checksum(spec.scale);
        if r.guest_checksums != [want] {
            return Err(format!(
                "{}: bare run checksums {:x?} != expected_checksum {want:#x}",
                spec.canonical_key(),
                r.guest_checksums
            ));
        }
    }
    Ok(Expected::of(&r))
}

/// Per-layer totals over the specs split so far.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub specs: usize,
    pub profile_cold_s: f64,
    /// Replay time, over the specs whose stream fit the trace cache (a
    /// longer stream is not cached, so its second `run` simulates again).
    pub profile_replay_s: f64,
    pub replay_hits: usize,
    pub program_build_s: f64,
    pub guest_exec_s: f64,
    pub committed_insts: u64,
    pub block_hits: u64,
    pub block_compiled: u64,
    pub adapt_s: f64,
    pub events: u64,
    pub replay_s: f64,
    pub engine_events: u64,
}

impl LayerTotals {
    /// Sum of the split parts over the cold `run` they reproduce.
    pub fn coverage(&self) -> f64 {
        (self.program_build_s + self.guest_exec_s + self.adapt_s + self.replay_s)
            / self.profile_cold_s
    }
}

/// Registries are deterministic per (binary, backing); build each once,
/// outside the timed calls, as the daemon does.
#[derive(Default)]
pub struct Registries(HashMap<(BinaryVariant, PageBacking), Arc<Registry>>);

impl Registries {
    fn get(&mut self, binary: BinaryVariant, backing: PageBacking) -> Arc<Registry> {
        Arc::clone(
            self.0
                .entry((binary, backing))
                .or_insert_with(|| Arc::new(Registry::new(binary, backing))),
        )
    }
}

/// Splits one spec into its layers and adds the timings to `t`. Every
/// call is wrapped in a span under `parent`. Returns an error when a
/// layer's guest results disagree with the bare run.
pub fn split(
    spec: &ExperimentSpec,
    regs: &mut Registries,
    t: &mut LayerTotals,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<(), String> {
    let key = spec.canonical_key();
    let root = tracer.open("layers.spec", parent, &key);

    gem5prof::runner::clear_cache();
    let s = tracer.open("core.profile_cold", root, &key);
    let cold = spec.run();
    t.profile_cold_s += tracer.close(s);

    let hits = gem5prof::runner::cache_stats().hits;
    let s = tracer.open("core.profile_replay", root, &key);
    let replayed = spec.run();
    let replay_s = tracer.close(s);
    if gem5prof::runner::cache_stats().hits > hits {
        t.profile_replay_s += replay_s;
        t.replay_hits += 1;
    }
    if replayed.guest != cold.guest || replayed.hosts != cold.hosts {
        return Err(format!("{key}: replayed profile differs from the cold one"));
    }

    let canon = regs.get(BinaryVariant::Base, PageBacking::Base);
    let host = spec.host();
    let host_reg = regs.get(host.binary, host.backing);

    let s = tracer.open("sim.program_build", root, &key);
    let prog = spec.workload.program(spec.scale);
    t.program_build_s += tracer.close(s);

    let s = tracer.open("sim.guest_exec", root, &key);
    let mut sys = System::new(config(spec), prog.clone());
    let bare = sys.run();
    let guest_exec = tracer.close(s);
    t.guest_exec_s += guest_exec;
    let blocks = sys.block_stats();
    drop(sys);
    t.committed_insts += bare.committed_insts;
    t.block_hits += blocks.hits;
    t.block_compiled += blocks.compiled;

    // Observer + adapter + recorder: the bare run's work plus the
    // adapter's; the difference is the adapter's share.
    let s = tracer.open("hosttrace.observed_run", root, &key);
    let adapter = Rc::new(RefCell::new(TraceAdapter::new(
        canon,
        RecordingSink::with_cap(usize::MAX),
    )));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);
    let mut sys = System::with_observer(config(spec), prog, obs);
    let observed = sys.run();
    drop(sys);
    let observed_s = tracer.close(s);
    t.adapt_s += observed_s - guest_exec;
    let (recorder, _profile) = Rc::try_unwrap(adapter)
        .unwrap_or_else(|_| panic!("system dropped; adapter is uniquely owned"))
        .into_inner()
        .into_parts();
    let events = recorder.into_events().expect("uncapped recorder");
    t.events += events.len() as u64;

    let s = tracer.open("hostmodel.replay", root, &key);
    let mut fanout = FanoutSink::new(vec![HostEngine::new(host.config.clone(), host_reg)]);
    replay(&events, &mut fanout);
    let hosts: Vec<_> = fanout
        .into_inner()
        .into_iter()
        .map(HostEngine::finish)
        .collect();
    t.replay_s += tracer.close(s);
    t.engine_events += events.len() as u64 * hosts.len() as u64;
    tracer.close(root);

    if Expected::of(&bare) != Expected::of(&cold.guest) || observed != bare {
        return Err(format!("{key}: guest results differ between layer calls"));
    }
    if hosts != cold.hosts {
        return Err(format!("{key}: host replay differs from the cold profile"));
    }
    t.specs += 1;
    Ok(())
}
