//! The guest-trace memoization contract: the first profile of a
//! `GuestSpec` simulates the guest; every later profile of the same spec
//! performs **zero** guest simulation. Host results already computed
//! from the cached stream are served from its memo, and only new host
//! setups replay the stream into fresh engines. The memo holds at most
//! `HOST_MEMO_CAP` results per stream and goes with its stream. A stream
//! past the trace-cache cap is the exception: it is never cached, so
//! each profile of it simulates. The same cap bounds the cache's total:
//! streams that together pass it evict the least recently used.
//!
//! "Zero simulation" is asserted through the event-queue layer itself:
//! every serviced simulator event bumps a process-wide counter
//! (`gem5sim_event::global_events_serviced`), so a replayed profile must
//! leave it untouched.
//!
//! This lives in its own integration-test binary (single `#[test]`) so
//! no concurrently running test can perturb the process-wide counters.

use gem5_profiling::prof::experiment::{profile, GuestSpec, HostSetup};
use gem5_profiling::prof::runner::{cache_stats, clear_cache, HOST_MEMO_CAP, TRACE_CACHE_CAP};
use gem5_profiling::sim::config::{CpuModel, SimMode};
use gem5_profiling::workloads::{Microbench, Scale, Workload};
use gem5sim_event::global_events_serviced;
use platforms::{intel_xeon, m1_pro, m1_ultra, SystemKnobs};

#[test]
fn second_profile_of_same_spec_runs_zero_guest_simulation() {
    let hosts = [
        HostSetup::platform(&intel_xeon()),
        HostSetup::platform(&m1_pro()),
    ];
    let spec = GuestSpec::new(Workload::Fmm, Scale::Test, CpuModel::Timing, SimMode::Se);

    // Cold: must simulate (events are serviced, a miss is recorded).
    let stats0 = cache_stats();
    let events0 = global_events_serviced();
    let first = profile(&spec, &hosts);
    let stats1 = cache_stats();
    let events1 = global_events_serviced();
    assert!(events1 > events0, "cold profile must service guest events");
    assert_eq!(stats1.misses, stats0.misses + 1);
    assert_eq!(stats1.hits, stats0.hits);
    assert!(
        stats1.resident_events > stats0.resident_events,
        "the cold run's stream must now be cached"
    );

    // Warm: same spec and hosts, different call — zero guest simulation
    // and zero engine replays: both host results come from the memo.
    let second = profile(&spec, &hosts);
    let stats2 = cache_stats();
    assert_eq!(
        global_events_serviced(),
        events1,
        "a cached profile must not service a single simulator event"
    );
    assert_eq!(stats2.hits, stats1.hits + 1);
    assert_eq!(stats2.misses, stats1.misses);
    assert_eq!(stats2.host_memo_hits, stats1.host_memo_hits + 2);
    assert_eq!(stats2.host_replays, stats1.host_replays);
    assert_eq!(first.guest, second.guest);
    assert_eq!(first.hosts, second.hosts);
    assert_eq!(first.profile, second.profile);

    // A third host: the two known results come from the memo and only
    // the new engine replays the cached stream.
    let three = [
        hosts[0].clone(),
        hosts[1].clone(),
        HostSetup::platform(&m1_ultra()),
    ];
    let replayed = profile(&spec, &three);
    let stats3 = cache_stats();
    assert_eq!(global_events_serviced(), events1);
    assert_eq!(stats3.hits, stats2.hits + 1);
    assert_eq!(stats3.host_memo_hits, stats2.host_memo_hits + 2);
    assert_eq!(stats3.host_replays, stats2.host_replays + 1);

    // The replay is indistinguishable from a live run of the same three
    // hosts. Clearing the cache drops the memo with the stream, so the
    // cold profile simulates and serves nothing from the memo.
    clear_cache();
    let cold = profile(&spec, &three);
    let stats4 = cache_stats();
    let events2 = global_events_serviced();
    assert!(events2 > events1, "a cleared stream must simulate again");
    assert_eq!(stats4.misses, stats3.misses + 1);
    assert_eq!(
        (stats4.host_memo_hits, stats4.host_replays),
        (stats3.host_memo_hits, stats3.host_replays),
        "a cleared cache must keep no memoized host result"
    );
    assert_eq!(replayed.guest, cold.guest);
    assert_eq!(replayed.hosts, cold.hosts);
    assert_eq!(replayed.profile, cold.profile);

    // Setups from outside the program (`freq=` knobs): more distinct
    // ones than the per-stream cap. The first pass replays every engine;
    // the second finds at most the cap memoized, and every result equals
    // a fresh engine's from a cold profile.
    let freqs: Vec<HostSetup> = (0..HOST_MEMO_CAP + 2)
        .map(|i| {
            let knobs = SystemKnobs::parse(&format!("freq={:.1}", 1.0 + 0.1 * i as f64))
                .expect("a valid freq= knob");
            HostSetup::with_knobs(&intel_xeon(), &knobs)
        })
        .collect();
    let pass1 = profile(&spec, &freqs);
    let stats5 = cache_stats();
    assert_eq!(stats5.host_memo_hits, stats4.host_memo_hits);
    assert_eq!(
        stats5.host_replays,
        stats4.host_replays + freqs.len() as u64
    );
    let pass2 = profile(&spec, &freqs);
    let stats6 = cache_stats();
    assert_eq!(
        stats6.host_memo_hits,
        stats5.host_memo_hits + HOST_MEMO_CAP as u64,
        "the memo must hold exactly its cap of the {} setups",
        freqs.len()
    );
    assert_eq!(stats6.host_replays, stats5.host_replays + 2);
    clear_cache();
    let fresh = profile(&spec, &freqs);
    let stats7 = cache_stats();
    let events7 = global_events_serviced();
    assert_eq!(stats7.misses, stats6.misses + 1);
    assert_eq!(stats7.host_memo_hits, stats6.host_memo_hits);
    assert_eq!(pass1.hosts, fresh.hosts);
    assert_eq!(pass2.hosts, fresh.hosts);

    // A different spec is a fresh miss: the guest simulator runs again.
    let other = GuestSpec::new(
        Workload::Canneal,
        Scale::Test,
        CpuModel::Timing,
        SimMode::Se,
    );
    let _ = profile(&other, &hosts);
    let stats8 = cache_stats();
    let events8 = global_events_serviced();
    assert!(events8 > events7, "a distinct spec must simulate");
    assert_eq!(stats8.misses, stats7.misses + 1);

    // A stream past the trace-cache cap (mem_stride on O3 emits ~9M
    // events) still reaches the host engines, but is never cached: every
    // profile of it simulates again and yields the same result.
    let over_cap = GuestSpec::new(
        Workload::Micro(Microbench::MemStride),
        Scale::Test,
        CpuModel::O3,
        SimMode::Se,
    );
    let big_first = profile(&over_cap, &hosts);
    let events9 = global_events_serviced();
    let big_second = profile(&over_cap, &hosts);
    let stats9 = cache_stats();
    assert!(
        global_events_serviced() > events9,
        "an uncached stream must simulate again"
    );
    assert_eq!(stats9.misses, stats8.misses + 2);
    assert_eq!(stats9.hits, stats8.hits);
    assert_eq!(
        (stats9.insertions, stats9.resident_events),
        (stats8.insertions, stats8.resident_events),
        "an over-cap stream must not be cached"
    );
    assert_eq!(big_first.guest, big_second.guest);
    assert_eq!(big_first.hosts, big_second.hosts);
    assert_eq!(big_first.profile, big_second.profile);

    // Two streams that each fit the cap but not together (canneal on O3
    // in FS then SE mode, ~5.8M + ~5.4M events): both are cached, the
    // second evicts the least recently used streams, and the resident
    // total never passes the cap.
    let budget = [SimMode::Fs, SimMode::Se]
        .map(|mode| GuestSpec::new(Workload::Canneal, Scale::Test, CpuModel::O3, mode));
    for spec in &budget {
        let _ = profile(spec, &hosts);
        let resident = cache_stats().resident_events;
        assert!(
            resident <= TRACE_CACHE_CAP as u64,
            "{resident} events resident over the {TRACE_CACHE_CAP}-event cap"
        );
    }
    let stats10 = cache_stats();
    assert_eq!(stats10.insertions, stats9.insertions + 2);
    assert!(
        stats10.evictions > stats9.evictions,
        "the two streams together must pass the cap"
    );

    // The newest stream stays cached: it is served with zero simulation.
    let events10 = global_events_serviced();
    let _ = profile(&budget[1], &hosts);
    assert_eq!(
        global_events_serviced(),
        events10,
        "the most recent stream must survive eviction"
    );
    assert_eq!(cache_stats().hits, stats10.hits + 1);
}
