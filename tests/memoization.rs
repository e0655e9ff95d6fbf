//! The guest-trace memoization contract: the first profile of a
//! `GuestSpec` simulates the guest; every later profile of the same spec
//! replays the recorded stream and performs **zero** guest simulation.
//! A stream past the trace-cache cap is the exception: it is never
//! cached, so each profile of it simulates. The same cap bounds the
//! cache's total: streams that together pass it evict the least
//! recently used.
//!
//! "Zero simulation" is asserted through the event-queue layer itself:
//! every serviced simulator event bumps a process-wide counter
//! (`gem5sim_event::global_events_serviced`), so a replayed profile must
//! leave it untouched.
//!
//! This lives in its own integration-test binary (single `#[test]`) so
//! no concurrently running test can perturb the process-wide counters.

use gem5_profiling::prof::experiment::{profile, GuestSpec, HostSetup};
use gem5_profiling::prof::runner::{cache_stats, TRACE_CACHE_CAP};
use gem5_profiling::sim::config::{CpuModel, SimMode};
use gem5_profiling::workloads::{Microbench, Scale, Workload};
use gem5sim_event::global_events_serviced;
use platforms::{intel_xeon, m1_pro};

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

    // Warm: same spec, different call — zero guest simulation.
    let second = profile(&spec, &hosts);
    let stats2 = cache_stats();
    let events2 = global_events_serviced();
    assert_eq!(
        events2, events1,
        "a cached profile must not service a single simulator event"
    );
    assert_eq!(stats2.hits, stats1.hits + 1);
    assert_eq!(stats2.misses, stats1.misses);

    // And the replay is indistinguishable from the live run.
    assert_eq!(first.guest, second.guest);
    assert_eq!(first.hosts, second.hosts);
    assert_eq!(first.profile, second.profile);

    // A different spec is a fresh miss: the guest simulator runs again.
    let other = GuestSpec::new(
        Workload::Canneal,
        Scale::Test,
        CpuModel::Timing,
        SimMode::Se,
    );
    let _ = profile(&other, &hosts);
    let stats3 = cache_stats();
    let events3 = global_events_serviced();
    assert!(events3 > events2, "a distinct spec must simulate");
    assert_eq!(stats3.misses, stats2.misses + 1);

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
    let events4 = global_events_serviced();
    let big_second = profile(&over_cap, &hosts);
    let stats4 = cache_stats();
    assert!(
        global_events_serviced() > events4,
        "an uncached stream must simulate again"
    );
    assert_eq!(stats4.misses, stats3.misses + 2);
    assert_eq!(stats4.hits, stats3.hits);
    assert_eq!(
        (stats4.insertions, stats4.resident_events),
        (stats3.insertions, stats3.resident_events),
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
    let stats5 = cache_stats();
    assert_eq!(stats5.insertions, stats4.insertions + 2);
    assert!(
        stats5.evictions > stats4.evictions,
        "the two streams together must pass the cap"
    );

    // The newest stream stays cached: it replays with zero simulation.
    let events5 = global_events_serviced();
    let _ = profile(&budget[1], &hosts);
    assert_eq!(
        global_events_serviced(),
        events5,
        "the most recent stream must survive eviction"
    );
    assert_eq!(cache_stats().hits, stats5.hits + 1);
}
