//! Experiment plumbing: one guest simulation, many host evaluations.
//!
//! [`profile`] is memoized per [`GuestSpec`] (see [`crate::runner`]): the
//! first call simulates the guest, streaming the post-adapter events into
//! the host engines and recording them; later calls for the same spec
//! never touch the simulator, for as long as the stream stays in the
//! trace cache (whose total [`TRACE_CACHE_CAP`] bounds). They take the
//! host results memoized with the stream as they are and feed the
//! recorded stream only to a batch of the setups not yet memoized,
//! memoizing those too. Both paths hand one [`HostBatch`] per call the
//! identical stream in 65,536-event chunks, each in a `host_engines`
//! span: the live path through [`hosttrace::record::feed`], the cached
//! path by decoding its encoded [`Stream`]. The batch runs each distinct
//! host structure once and equals one `HostEngine` per setup, so results
//! never depend on whether they were simulated, replayed or memoized,
//! nor on the thread count. Figures that read only guest results call
//! [`run_guest`], which runs no host model at all.

use crate::runner::{self, CachedGuest, TRACE_CACHE_CAP};
use gem5sim::config::{CpuModel, SimMode, SystemConfig};
use gem5sim::observe::{CompClass, ExecutionObserver, Obs};
use gem5sim::system::{SimResult, System};
use gem5sim_isa::Program;
use gem5sim_workloads::{Microbench, Scale, Workload};
use hostmodel::{HostBatch, HostRunStats};
use hosttrace::record::{RecordingSink, Stream, TraceSink};
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
            let (result, profile, stream, batch) = simulate(guest, batch(hosts), None);
            let stats = finish(batch);
            if let Some(stream) = stream {
                let entry = CachedGuest::new(result.clone(), profile.clone(), stream);
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
/// the rest by replaying the stream into one batch, then memoized. Equal
/// setups replay once.
fn hosts_from_cache(cached: &CachedGuest, hosts: &[HostSetup]) -> Vec<HostRunStats> {
    let mut stats: Vec<Option<HostRunStats>> = hosts.iter().map(|h| cached.memoized(h)).collect();
    let todo: Vec<usize> = (0..hosts.len()).filter(|&i| stats[i].is_none()).collect();
    if todo.is_empty() {
        runner::count_host_results(hosts.len(), 0);
    } else {
        let _replay = gem5prof_obs::span("replay");
        let todo_hosts: Vec<HostSetup> = todo.iter().map(|&i| hosts[i].clone()).collect();
        let mut batch = batch(&todo_hosts);
        runner::count_host_results(hosts.len() - todo.len(), batch.distinct_setups());
        cached.stream.feed(&mut batch);
        for ((&i, h), s) in todo.iter().zip(&todo_hosts).zip(finish(batch)) {
            cached.remember(h, &s);
            stats[i] = Some(s);
        }
    }
    stats
        .into_iter()
        .map(|s| s.expect("memoized or replayed"))
        .collect()
}

/// The batch's results. Its last pass is host-model time, so it goes in
/// a `host_engines` span like every chunk `feed` hands it.
fn finish(batch: HostBatch) -> Vec<HostRunStats> {
    let _span = gem5prof_obs::span("host_engines");
    batch.finish()
}

/// One batch evaluating every setup in `hosts`.
fn batch(hosts: &[HostSetup]) -> HostBatch {
    HostBatch::new(
        hosts
            .iter()
            .map(|h| (h.config.clone(), registry_for(h.binary, h.backing)))
            .collect(),
    )
}

/// The program and system configuration `guest` runs with: the one
/// assembly both the observed path ([`simulate`]) and the bare one
/// ([`run_guest`]) use, so the two cannot drift apart.
fn guest_system(guest: &GuestSpec) -> (Program, SystemConfig) {
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
    (program, cfg)
}

/// Simulates `guest` with no observer: the guest results [`profile`]
/// reports, without the trace adapter or a host engine. For figures that
/// read only guest results; not memoized, as a bare run is cheap.
pub fn run_guest(guest: &GuestSpec) -> SimResult {
    let (program, cfg) = guest_system(guest);
    let _sim = gem5prof_obs::span("guest_sim");
    System::new(cfg, program).run()
}

/// Simulates `guest` once, feeding the adapter's output to `sink` (a
/// [`HostBatch`] outside tests) chunk by chunk while recording it. Returns
/// the guest results, the call profile, the recording if it has at most
/// [`TRACE_CACHE_CAP`] events, and the fed sink. `work_scale` scales one
/// component's host work (Sec. VI); such a stream is not the spec's, so
/// it is never recorded.
pub(crate) fn simulate<S: TraceSink + 'static>(
    guest: &GuestSpec,
    sink: S,
    work_scale: Option<(CompClass, f32)>,
) -> (SimResult, CallProfile, Option<Stream>, S) {
    let cap = work_scale.map_or(TRACE_CACHE_CAP, |_| 0);
    let mut adapter = TraceAdapter::new(
        registry_for(BinaryVariant::Base, PageBacking::Base),
        RecordingSink::with_sink(cap, sink),
    );
    if let Some((comp, factor)) = work_scale {
        adapter.set_work_scale(comp, factor);
    }
    let adapter = Rc::new(RefCell::new(adapter));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);
    let (program, cfg) = guest_system(guest);
    let result = {
        let _sim = gem5prof_obs::span("guest_sim");
        System::with_observer(cfg, program, obs).run()
    };

    let (recorder, profile) = Rc::try_unwrap(adapter)
        .ok()
        .expect("system dropped; adapter is uniquely owned")
        .into_inner()
        .into_parts();
    let (stream, sink) = recorder.finish();
    (result, profile, stream, sink)
}

/// Profiles a bare-metal SPEC reference benchmark on several hosts.
///
/// Memoized by (bench, whole setup, records), never evicted: the keys
/// come only from Figs. 2–6 and the ablation study, so the memo holds a
/// few dozen results. Hits count as `host_memo_hits`; the setups not yet
/// memoized run as one batch per binary model.
pub fn profile_spec(bench: SpecBenchmark, hosts: &[HostSetup], records: u64) -> Vec<HostRunStats> {
    type Key = (SpecBenchmark, HostSetup, u64);
    static MEMO: Mutex<Vec<(Key, HostRunStats)>> = Mutex::new(Vec::new());
    let memo = || MEMO.lock().unwrap_or_else(|e| e.into_inner());
    let key = |h: &HostSetup| (bench, h.clone(), records);
    let mut stats: Vec<Option<HostRunStats>> = {
        let memo = memo();
        hosts
            .iter()
            .map(|h| {
                let k = key(h);
                memo.iter().find(|(m, _)| *m == k).map(|(_, s)| s.clone())
            })
            .collect()
    };
    let todo: Vec<usize> = (0..hosts.len()).filter(|&i| stats[i].is_none()).collect();
    runner::count_host_results(hosts.len() - todo.len(), 0);
    let mut groups: Vec<((BinaryVariant, PageBacking), Vec<usize>)> = Vec::new();
    for &i in &todo {
        let reg = (hosts[i].binary, hosts[i].backing);
        match groups.iter_mut().find(|(r, _)| *r == reg) {
            Some((_, g)) => g.push(i),
            None => groups.push((reg, vec![i])),
        }
    }
    for ((binary, backing), group) in groups {
        let setups: Vec<HostSetup> = group.iter().map(|&i| hosts[i].clone()).collect();
        let mut b = batch(&setups);
        bench.generate(&registry_for(binary, backing), &mut b, records);
        let mut memo = memo();
        for ((&i, h), s) in group.iter().zip(&setups).zip(b.finish()) {
            let k = key(h);
            if !memo.iter().any(|(m, _)| *m == k) {
                memo.push((k, s.clone()));
            }
            stats[i] = Some(s);
        }
    }
    stats
        .into_iter()
        .map(|s| s.expect("memoized or profiled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostmodel::HostEngine;
    use hosttrace::FanoutSink;
    use platforms::{intel_xeon, m1_pro};

    fn quick(cpu: CpuModel) -> GuestSpec {
        GuestSpec::new(Workload::Dedup, Scale::Test, cpu, SimMode::Se)
    }

    /// `guest` simulated afresh into live engines, one per setup,
    /// bypassing the trace cache (which other tests share and may clear)
    /// and the batch.
    fn live(guest: &GuestSpec, hosts: &[HostSetup]) -> ProfileRun {
        let engines = hosts
            .iter()
            .map(|h| HostEngine::new(h.config.clone(), registry_for(h.binary, h.backing)))
            .collect();
        let (result, profile, _, engines) = simulate(guest, FanoutSink::new(engines), None);
        ProfileRun {
            guest: result,
            hosts: engines
                .into_inner()
                .into_iter()
                .map(HostEngine::finish)
                .collect(),
            profile,
            registry: registry_for(BinaryVariant::Base, PageBacking::Base),
        }
    }

    #[test]
    fn fanout_hosts_see_identical_streams() {
        // Live, so two engines are fed rather than read from another
        // test's memo.
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
    fn spec_profiles_are_memoized_and_match_live_engines() {
        let hosts = [
            HostSetup::platform(&intel_xeon()),
            HostSetup::platform(&m1_pro()),
        ];
        let first = profile_spec(SpecBenchmark::Mcf, &hosts, 3_000);
        let hits = runner::cache_stats().host_memo_hits;
        let second = profile_spec(SpecBenchmark::Mcf, &hosts, 3_000);
        assert!(runner::cache_stats().host_memo_hits >= hits + 2);
        assert_eq!(first, second);
        for (h, s) in hosts.iter().zip(&first) {
            let reg = registry_for(h.binary, h.backing);
            let mut e = HostEngine::new(h.config.clone(), Arc::clone(&reg));
            SpecBenchmark::Mcf.generate(&reg, &mut e, 3_000);
            assert_eq!(&e.finish(), s);
        }
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
