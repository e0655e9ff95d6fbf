//! `gem5prof` — the profiling harness reproducing *Profiling gem5
//! Simulator* (ISPASS 2023).
//!
//! This crate composes the full stack:
//!
//! ```text
//! guest workload ──► gem5sim (the simulator under profile)
//!                       │ ExecutionObserver (every handler)
//!                       ▼
//!                  hosttrace::TraceAdapter (synthetic gem5 binary)
//!                       │ host instruction stream
//!                       ▼
//!                  hosttrace::RecordingSink ──► trace cache (≤ 8 M events as
//!                       │                             │  encoded Streams, ~3 B each;
//!                       │                             │  ≤ 16 memoized host results
//!                       │                             │  per stream)
//!                       │ record::feed               │ hit: Stream::feed decodes,
//!                       ▼ (64 Ki-event chunks)       ▼ for setups not memoized
//!          hostmodel::HostBatch of N host platforms / knob settings
//!                       (each distinct cache, TLB, DSB and predictor
//!                        simulated once; per-setup Top-Down accounting)
//!                       │
//!                       ▼
//!            Top-Down profiles, miss rates, "host seconds"
//! ```
//!
//! [`experiment::profile`] runs one guest simulation and evaluates it on
//! any number of host setups simultaneously; [`figures`] regenerates every
//! figure of the paper as a [`report::Table`].
//!
//! # Example
//!
//! ```
//! use gem5prof::experiment::{profile, GuestSpec, HostSetup};
//! use gem5sim::config::{CpuModel, SimMode};
//! use gem5sim_workloads::{Scale, Workload};
//!
//! let guest = GuestSpec::new(Workload::Dedup, Scale::Test, CpuModel::Atomic, SimMode::Se);
//! let host = HostSetup::platform(&platforms::intel_xeon());
//! let run = profile(&guest, std::slice::from_ref(&host));
//! let (retiring, frontend, _, _) = run.hosts[0].topdown.level1_pct();
//! assert!(retiring > 0.0 && frontend > 0.0);
//! ```

pub mod ablation;
pub mod cache;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod runner;
pub mod spec;

pub use cache::{CacheSnapshot, LruCache};
pub use experiment::{profile, profile_spec, run_guest, GuestSpec, HostSetup, ProfileRun};
pub use report::{geomean, Table};
pub use runner::{
    exec_tier, parallel_map, set_exec_tier, set_threads, threads, with_exec_tier, with_threads,
};
pub use spec::ExperimentSpec;
