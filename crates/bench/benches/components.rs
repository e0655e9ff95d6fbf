//! Component microbenchmarks: the building blocks whose speed bounds the
//! whole reproduction pipeline.

use bench::harness::Runner;
use gem5sim::config::{CpuModel, SimMode, SystemConfig};
use gem5sim::observe::{ExecutionObserver, Obs};
use gem5sim::system::System;
use gem5sim_event::{EventQueue, Priority};
use gem5sim_workloads::{Scale, Workload};
use hostmodel::HostEngine;
use hosttrace::record::{
    replay, CountingSink, ExecRecord, NullSink, RecordingSink, TraceEvent, TraceSink,
};
use hosttrace::registry::FunctionId;
use hosttrace::{BinaryVariant, PageBacking, Registry, TraceAdapter};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Simulates Sieve O3 SE at test scale with the trace adapter feeding
/// `sink`, and returns the sink.
fn observe_sieve_o3<S: TraceSink + 'static>(reg: &Arc<Registry>, sink: S) -> S {
    let adapter = Rc::new(RefCell::new(TraceAdapter::new(Arc::clone(reg), sink)));
    let obs = Obs::new(Rc::clone(&adapter) as Rc<RefCell<dyn ExecutionObserver>>);
    let program = Workload::Sieve.program(Scale::Test);
    System::with_observer(SystemConfig::new(CpuModel::O3, SimMode::Se), program, obs).run();
    Rc::try_unwrap(adapter)
        .unwrap_or_else(|_| panic!("system dropped; adapter is uniquely owned"))
        .into_inner()
        .into_parts()
        .0
}

fn main() {
    let mut r = Runner::from_args();

    r.bench("eventq/schedule_service_10k", || {
        let eq = EventQueue::new();
        for t in 0..10_000u64 {
            eq.schedule(t, Priority::DEFAULT, |_| {});
        }
        eq.run(None)
    });

    for cpu in CpuModel::ALL {
        let prog = Workload::Dedup.program(Scale::Test);
        r.bench(&format!("guest_cpu_models/{}", cpu.label()), || {
            let mut sys = System::new(SystemConfig::new(cpu, SimMode::Se), prog.clone());
            sys.run().committed_insts
        });
    }

    let reg = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base));
    r.bench("host_engine/exec_100k_records", || {
        let mut e = HostEngine::new(platforms::intel_xeon().config, Arc::clone(&reg));
        for i in 0..100_000u32 {
            e.exec(ExecRecord {
                func: FunctionId(i % 4000),
                uops: 16,
                cond_branches: 3,
                indirect_branches: 1,
                loads: 4,
                stores: 2,
                variant: i / 4000,
            });
        }
        e.finish().cycles
    });

    // The recorded Sieve O3 SE stream, and its exec records.
    let events: Vec<TraceEvent> = observe_sieve_o3(&reg, RecordingSink::with_cap(usize::MAX))
        .into_events()
        .expect("uncapped recorder");
    let mut counts = CountingSink::default();
    replay(&events, &mut counts);

    // The observer: the guest plus the adapter, per exec record emitted.
    r.bench_per(
        "trace_adapter/sieve_o3",
        counts.execs,
        "exec record",
        || observe_sieve_o3(&reg, NullSink),
    );

    // The host model on that stream: one engine per Table II platform,
    // per exec record.
    for p in [
        platforms::intel_xeon(),
        platforms::m1_pro(),
        platforms::m1_ultra(),
    ] {
        let name = format!("host_engine/{}/sieve_o3", p.config.name);
        r.bench_per(&name, counts.execs, "exec record", || {
            let mut e = HostEngine::new(p.config.clone(), Arc::clone(&reg));
            replay(&events, &mut e);
            e.finish().cycles
        });
    }

    // Recording a stream (chunking and encoding it) and feeding a
    // recorded one (decoding it), per event: divide the times by the
    // event count printed first.
    let record = || {
        let mut r = RecordingSink::with_cap(usize::MAX);
        replay(&events, &mut r);
        r.finish().0.expect("uncapped recorder")
    };
    let stream = record();
    println!(
        "trace_stream: Sieve O3 SE test stream, {} events in {} bytes ({:.2} B/event)",
        stream.len(),
        stream.byte_len(),
        stream.byte_len() as f64 / stream.len() as f64
    );
    r.bench("trace_stream/record_sieve_o3", || record().byte_len());
    r.bench("trace_stream/feed_sieve_o3", || {
        let mut c = CountingSink::default();
        stream.feed(&mut c);
        c.uops
    });

    r.finish();
}
