//! Host CPU microarchitecture model with Yasin-style **Top-Down** cycle
//! accounting.
//!
//! This crate stands in for the hardware + PMU side of the paper's
//! methodology (VTune/perf on the Xeon, privileged counter reads on the
//! M1s, FireSim for configurable hosts). A [`HostEngine`] consumes the
//! host instruction stream produced by `hosttrace` and models:
//!
//! * the **front end**: L1I + iTLB/STLB (page-size and huge-page aware),
//!   branch direction prediction and BTB (indirect-dispatch "unknown
//!   branch" resteers), and the decode path — DSB (µop cache) vs MITE
//!   (legacy decoders);
//! * the **back end**: L1D/dTLB and the shared L2/LLC/DRAM hierarchy with
//!   memory-level parallelism;
//! * **Top-Down accounting**: every cycle is attributed to retiring,
//!   front-end latency (iCache / iTLB / mispredict resteer / clear
//!   resteer / unknown branch), front-end bandwidth (MITE / DSB), bad
//!   speculation, or back-end (L2/LLC/DRAM/core) — summing exactly to the
//!   total, which is enforced by property tests.
//!
//! Platform configurations for the paper's Table II machines and the
//! FireSim host live in the `platforms` crate.

pub mod batch;
pub mod branch;
pub mod cache;
pub mod config;
pub mod corun;
pub mod dsb;
pub mod engine;
pub mod stats;
pub mod tlb;
pub mod topdown;

pub use batch::HostBatch;
pub use config::{CacheGeom, HostConfig};
pub use corun::{corun_adjust, CorunScenario};
pub use engine::HostEngine;
pub use stats::HostRunStats;
pub use topdown::{FeBandwidth, FeLatency, TopDown};
