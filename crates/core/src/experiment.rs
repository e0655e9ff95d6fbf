//! Experiment plumbing: one guest simulation, many host evaluations.
//!
//! [`profile`] is memoized per [`GuestSpec`] (see [`crate::runner`]): the
//! first call simulates the guest, streaming the post-adapter events into
//! the host engines and recording them; later calls for the same spec
//! never touch the simulator, for as long as the stream stays in the
//! trace cache (whose total [`TRACE_CACHE_CAP`] bounds). They take the
//! host results memoized with the stream as they are and feed the
//! recorded stream only into fresh engines for the setups not yet
//! memoized, memoizing those too. Both paths hand the engines the
//! identical stream through [`hosttrace::record::feed`], spread over
//! [`runner::threads`] threads, so results never depend on whether they
//! were simulated, replayed or memoized, nor on the thread count.

use crate::runner::{self, CachedGuest, TRACE_CACHE_CAP};
use gem5sim::config::{CpuModel, SimMode, SystemConfig};
use gem5sim::observe::{CompClass, ExecutionObserver, Obs};
use gem5sim::system::{SimResult, System};
use gem5sim_workloads::{Microbench, Scale, Workload};
use hostmodel::{HostEngine, HostRunStats};
use hosttrace::record::{feed, RecordingSink, TraceEvent};
use hosttrace::{BinaryVariant, CallProfile, PageBacking, Registry, TraceAdapter};
use platforms::{Platform, SystemKnobs};
use specgen::SpecBenchmark;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex, OnceLock};

/// What to simulate on the guest side.
///
/// Doubles as the guest-trace memoization key: two equal specs are
/// guaranteed the same simulation, so one recorded stream serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GuestSpec {
    /// Workload program.
    pub workload: Workload,
    /// Input scale.
    pub scale: Scale,
    /// CPU model under simulation.
    pub cpu: CpuModel,
    /// FS or SE mode.
    pub mode: SimMode,
    /// Number of guest harts. With no co-run partner, every hart runs
    /// `workload`; interference happens in the shared L2 and DRAM.
    pub harts: usize,
    /// Co-run partner for odd harts (requires `workload` to be a
    /// microbench — the pair is built by
    /// [`gem5sim_workloads::corun_program`]).
    pub corun: Option<Microbench>,
    /// Clock divider applied to odd harts (1 = all harts share the
    /// system clock), for asymmetric co-run scenarios.
    pub corun_div: u64,
}

impl GuestSpec {
    /// Creates a single-hart spec.
    pub fn new(workload: Workload, scale: Scale, cpu: CpuModel, mode: SimMode) -> Self {
        GuestSpec {
            workload,
            scale,
            cpu,
            mode,
            harts: 1,
            corun: None,
            corun_div: 1,
        }
    }

    /// Sets the hart count (builder style).
    pub fn with_harts(mut self, harts: usize) -> Self {
        assert!(harts >= 1, "at least one hart required");
        self.harts = harts;
        self
    }

    /// Sets the odd-hart co-run partner (builder style).
    pub fn with_corun(mut self, partner: Microbench) -> Self {
        self.corun = Some(partner);
        self
    }

    /// Sets the odd-hart clock divider (builder style).
    pub fn with_corun_div(mut self, div: u64) -> Self {
        assert!(div >= 1, "clock divider must be >= 1");
        self.corun_div = div;
        self
    }

    /// Figure-style label, e.g. `O3_WATER_NSQUARED`; co-run specs get
    /// `_VS_<partner>` and multi-hart specs `_X<harts>` suffixes.
    pub fn label(&self) -> String {
        let mut l = format!(
            "{}_{}",
            self.cpu.label(),
            self.workload.name().to_uppercase()
        );
        if let Some(p) = self.corun {
            l.push_str(&format!("_VS_{}", p.name().to_uppercase()));
        }
        if self.harts > 1 {
            l.push_str(&format!("_X{}", self.harts));
        }
        l
    }
}

/// One host evaluation point: a platform microarchitecture plus the
/// binary/backing the simulator runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSetup {
    /// Host CPU configuration (already knob-adjusted).
    pub config: hostmodel::HostConfig,
    /// Which simulator binary runs (`-O3` or not).
    pub binary: BinaryVariant,
    /// Text page backing (base / THP / EHP).
    pub backing: PageBacking,
}

impl HostSetup {
    /// A platform at default knobs.
    pub fn platform(p: &Platform) -> Self {
        HostSetup {
            config: p.config.clone(),
            binary: BinaryVariant::Base,
            backing: PageBacking::Base,
        }
    }

    /// A platform with tuning knobs applied.
    pub fn with_knobs(p: &Platform, knobs: &SystemKnobs) -> Self {
        HostSetup {
            config: knobs.apply(&p.config),
            binary: knobs.binary,
            backing: knobs.backing,
        }
    }

    /// A raw host configuration (e.g. a FireSim sweep point).
    pub fn raw(config: hostmodel::HostConfig) -> Self {
        HostSetup {
            config,
            binary: BinaryVariant::Base,
            backing: PageBacking::Base,
        }
    }
}

/// Results of profiling one guest run on several hosts.
#[derive(Debug)]
pub struct ProfileRun {
    /// Guest-side simulation results (identical for all hosts).
    pub guest: SimResult,
    /// One host profile per [`HostSetup`], in input order.
    pub hosts: Vec<HostRunStats>,
    /// Host-function call profile (Fig. 15).
    pub profile: CallProfile,
    /// The canonical binary model, for naming functions.
    pub registry: Arc<Registry>,
}

/// Registries are deterministic per `(binary, backing)`; share them
/// process-wide so every worker thread sees the same instance.
pub(crate) fn registry_for(binary: BinaryVariant, backing: PageBacking) -> Arc<Registry> {
    type Key = (BinaryVariant, PageBacking);
    static CACHE: OnceLock<Mutex<Vec<(Key, Arc<Registry>)>>> = OnceLock::new();
    let mut c = CACHE
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some((_, r)) = c.iter().find(|(k, _)| *k == (binary, backing)) {
        return Arc::clone(r);
    }
    let r = Arc::new(Registry::new(binary, backing));
    c.push(((binary, backing), Arc::clone(&r)));
    r
}

/// Runs one guest simulation, feeding every host setup from the same
/// instrumentation stream (so host comparisons are exact, not sampled).
///
/// Memoized: the first profile of a [`GuestSpec`] records the stream and
/// its host results; subsequent profiles of the same spec perform zero
/// guest simulation until it is evicted, taking memoized host results as
/// they are and replaying the stream into engines only for new setups.
pub fn profile(guest: &GuestSpec, hosts: &[HostSetup]) -> ProfileRun {
    assert!(!hosts.is_empty(), "at least one host setup required");
    let _span = gem5prof_obs::span("profile");
    let _wspan = gem5prof_obs::span(guest.workload.name());
    let (result, profile, host_stats) = match runner::cache_lookup(guest) {
        Some(cached) => (
            cached.guest.clone(),
            cached.profile.clone(),
            hosts_from_cache(&cached, hosts),
        ),
        None => {
            let mut engines: Vec<HostEngine> = hosts.iter().map(engine).collect();
            let (result, profile, events) = simulate(guest, &mut engines, None);
            let stats: Vec<HostRunStats> = engines.into_iter().map(HostEngine::finish).collect();
            if let Some(events) = events {
                let entry = CachedGuest::new(result.clone(), profile.clone(), events);
                for (h, s) in hosts.iter().zip(&stats) {
                    entry.remember(h, s);
                }
                runner::cache_insert(*guest, entry);
            }
            (result, profile, stats)
        }
    };
    ProfileRun {
        guest: result,
        hosts: host_stats,
        profile,
        registry: registry_for(BinaryVariant::Base, PageBacking::Base),
    }
}

/// `hosts` evaluated on a cached stream: memoized results as they are,
/// the rest by replaying the stream into fresh engines, then memoized.
fn hosts_from_cache(cached: &CachedGuest, hosts: &[HostSetup]) -> Vec<HostRunStats> {
    let mut stats: Vec<Option<HostRunStats>> = hosts.iter().map(|h| cached.memoized(h)).collect();
    let todo: Vec<usize> = (0..hosts.len()).filter(|&i| stats[i].is_none()).collect();
    runner::count_host_results(hosts.len() - todo.len(), todo.len());
    if !todo.is_empty() {
        let _replay = gem5prof_obs::span("replay");
        let mut engines: Vec<HostEngine> = todo.iter().map(|&i| engine(&hosts[i])).collect();
        feed(&cached.events, &mut engines, runner::threads());
        for (&i, e) in todo.iter().zip(engines) {
            let s = e.finish();
            cached.remember(&hosts[i], &s);
            stats[i] = Some(s);
        }
    }
    stats
        .into_iter()
        .map(|s| s.expect("memoized or replayed"))
        .collect()
}

/// A fresh host engine for `setup`.
fn engine(setup: &HostSetup) -> HostEngine {
    HostEngine::new(
        setup.config.clone(),
        registry_for(setup.binary, setup.backing),
    )
}

/// Simulates `guest` once, feeding the adapter's output to `engines` chunk
/// by chunk while recording it. Returns the guest results, the call profile
/// and the recording if it has at most [`TRACE_CACHE_CAP`] events.
/// `work_scale` scales one component's host work (Sec. VI); such a stream
/// is not the spec's, so it is never recorded.
pub(crate) fn simulate(
    guest: &GuestSpec,
    engines: &mut Vec<HostEngine>,
    work_scale: Option<(CompClass, f32)>,
) -> (SimResult, CallProfile, Option<Vec<TraceEvent>>) {
    let cap = work_scale.map_or(TRACE_CACHE_CAP, |_| 0);
    let mut adapter = TraceAdapter::new(
        registry_for(BinaryVariant::Base, PageBacking::Base),
        RecordingSink::with_sinks(cap, std::mem::take(engines), runner::threads()),
    );
    if let Some((comp, factor)) = work_scale {
        adapter.set_work_scale(comp, factor);
    }
    let adapter = Rc::new(RefCell::new(adapter));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);

    let program = match guest.corun {
        Some(partner) => {
            let Workload::Micro(main) = guest.workload else {
                panic!(
                    "co-run partner requires a microbench workload, got `{}`",
                    guest.workload
                );
            };
            gem5sim_workloads::corun_program(main, partner, guest.scale)
        }
        None => guest.workload.program(guest.scale),
    };
    let mut cfg = SystemConfig::new(guest.cpu, guest.mode)
        .with_cpus(guest.harts)
        .with_exec_tier(crate::runner::exec_tier());
    if guest.corun_div > 1 {
        // Asymmetric pair: odd harts (the co-run partner's slot) run on
        // a divided clock.
        cfg = cfg.with_hart_clock_divs(
            (0..guest.harts)
                .map(|i| if i % 2 == 1 { guest.corun_div } else { 1 })
                .collect(),
        );
    }
    let result = {
        let _sim = gem5prof_obs::span("guest_sim");
        System::with_observer(cfg, program, obs).run()
    };

    let (recorder, profile) = Rc::try_unwrap(adapter)
        .ok()
        .expect("system dropped; adapter is uniquely owned")
        .into_inner()
        .into_parts();
    let (events, fed) = recorder.finish();
    *engines = fed;
    (result, profile, events)
}

/// Profiles a bare-metal SPEC reference benchmark on several hosts.
pub fn profile_spec(bench: SpecBenchmark, hosts: &[HostSetup], records: u64) -> Vec<HostRunStats> {
    hosts
        .iter()
        .map(|h| {
            let reg = registry_for(h.binary, h.backing);
            let mut engine = HostEngine::new(h.config.clone(), Arc::clone(&reg));
            bench.generate(&reg, &mut engine, records);
            engine.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use platforms::{intel_xeon, m1_pro};

    fn quick(cpu: CpuModel) -> GuestSpec {
        GuestSpec::new(Workload::Dedup, Scale::Test, cpu, SimMode::Se)
    }

    /// `guest` simulated afresh into live engines, bypassing the trace
    /// cache (which other tests share and may clear).
    fn live(guest: &GuestSpec, hosts: &[HostSetup]) -> ProfileRun {
        let mut engines = hosts.iter().map(engine).collect();
        let (result, profile, _) = simulate(guest, &mut engines, None);
        ProfileRun {
            guest: result,
            hosts: engines.into_iter().map(HostEngine::finish).collect(),
            profile,
            registry: registry_for(BinaryVariant::Base, PageBacking::Base),
        }
    }

    #[test]
    fn fanout_hosts_see_identical_streams() {
        // Live, so two engines are fed (on two threads when the runner
        // has them) rather than read from another test's memo.
        let xeon = HostSetup::platform(&intel_xeon());
        let run = live(&quick(CpuModel::Atomic), &[xeon.clone(), xeon]);
        assert_eq!(run.hosts.len(), 2);
        assert_eq!(run.hosts[0].records, run.hosts[1].records);
        assert_eq!(run.hosts[0].cycles, run.hosts[1].cycles);
    }

    #[test]
    fn m1_outruns_xeon_on_the_same_simulation() {
        let hosts = [
            HostSetup::platform(&intel_xeon()),
            HostSetup::platform(&m1_pro()),
        ];
        let run = profile(&quick(CpuModel::O3), &hosts);
        let (xeon, m1) = (&run.hosts[0], &run.hosts[1]);
        assert!(
            m1.seconds() < xeon.seconds(),
            "m1 {} vs xeon {}",
            m1.seconds(),
            xeon.seconds()
        );
        assert!(m1.ipc() > xeon.ipc());
    }

    #[test]
    fn guest_results_are_host_independent() {
        let a = profile(
            &quick(CpuModel::Timing),
            &[HostSetup::platform(&intel_xeon())],
        );
        let b = profile(&quick(CpuModel::Timing), &[HostSetup::platform(&m1_pro())]);
        assert_eq!(a.guest.committed_insts, b.guest.committed_insts);
        assert_eq!(a.guest.sim_ticks, b.guest.sim_ticks);
    }

    #[test]
    fn cached_replay_equals_live_profile() {
        let [xeon, m1] = [intel_xeon(), m1_pro()].map(|p| HostSetup::platform(&p));
        let spec = quick(CpuModel::Minor);
        let _ = profile(&spec, std::slice::from_ref(&xeon));
        // The stream is cached and no test profiles m1 on it, so m1's
        // engine replays it; that must be indistinguishable from live.
        let replayed = profile(&spec, std::slice::from_ref(&m1));
        let live = live(&spec, &[xeon, m1]);
        assert_eq!(replayed.guest, live.guest);
        assert_eq!(replayed.hosts[..], live.hosts[1..]);
        assert_eq!(replayed.profile, live.profile);
    }

    #[test]
    fn host_engines_run_in_their_own_span() {
        // No other test profiles a two-hart fmm, so this call simulates.
        let spec =
            GuestSpec::new(Workload::Fmm, Scale::Test, CpuModel::Atomic, SimMode::Se).with_harts(2);
        let _ = profile(&spec, &[HostSetup::platform(&intel_xeon())]);
        let root = ["profile", spec.workload.name()];
        assert!(
            gem5prof_obs::span::snapshot()
                .iter()
                .any(|n| n.path.starts_with(&root) && n.path.last() == Some(&"host_engines")),
            "no host_engines span under {root:?}"
        );
    }

    #[test]
    fn functions_touched_grow_with_cpu_detail() {
        let host = [HostSetup::platform(&intel_xeon())];
        let counts: Vec<u64> = CpuModel::ALL
            .iter()
            .map(|&cpu| profile(&quick(cpu), &host).profile.functions_touched())
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] < w[1]),
            "functions touched must grow with detail: {counts:?}"
        );
    }

    #[test]
    fn spec_profiles_run() {
        let hosts = [HostSetup::platform(&intel_xeon())];
        let stats = profile_spec(SpecBenchmark::X264, &hosts, 5000);
        assert_eq!(stats.len(), 1);
        assert!(stats[0].ipc() > 1.0);
    }

    #[test]
    fn labels_are_paper_style() {
        assert_eq!(quick(CpuModel::O3).label(), "O3_DEDUP");
        let pair = GuestSpec::new(
            Workload::Micro(Microbench::MemStride),
            Scale::Test,
            CpuModel::Timing,
            SimMode::Se,
        )
        .with_harts(4)
        .with_corun(Microbench::Alu);
        assert_eq!(pair.label(), "TIMING_MEM_STRIDE_VS_ALU_X4");
    }

    #[test]
    fn corun_profile_reports_parity_checksums() {
        let spec = GuestSpec::new(
            Workload::Micro(Microbench::MemStride),
            Scale::Test,
            CpuModel::Timing,
            SimMode::Se,
        )
        .with_harts(2)
        .with_corun(Microbench::Alu);
        let run = profile(&spec, &[HostSetup::platform(&intel_xeon())]);
        assert_eq!(
            run.guest.guest_checksums,
            vec![
                Microbench::MemStride.expected_checksum(Scale::Test),
                Microbench::Alu.expected_checksum(Scale::Test),
            ]
        );
        // The cached stream serves the multi-hart spec too: a new host
        // replays it exactly as a live engine sees it.
        let m1 = [HostSetup::platform(&m1_pro())];
        let replayed = profile(&spec, &m1);
        assert_eq!(run.guest, replayed.guest);
        assert_eq!(replayed.hosts, live(&spec, &m1).hosts);
    }

    #[test]
    #[should_panic(expected = "requires a microbench workload")]
    fn corun_with_non_microbench_workload_panics() {
        let spec = quick(CpuModel::Atomic).with_corun(Microbench::Alu);
        let _ = profile(&spec, &[HostSetup::platform(&intel_xeon())]);
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn empty_hosts_panic() {
        let _ = profile(&quick(CpuModel::Atomic), &[]);
    }
}
