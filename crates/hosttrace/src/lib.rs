//! Host-execution abstraction for profiling the `gem5sim` simulator.
//!
//! The paper profiles gem5 *as a host application*: which of gem5's ~10⁴
//! functions run, how large the instruction footprint is, how the branch
//! and data behaviour looks to the host CPU. This crate reconstructs that
//! view for our Rust simulator:
//!
//! * [`registry::Registry`] — a synthetic but structurally faithful model
//!   of the *gem5 binary*: per-component function pools (the O3 CPU model
//!   brings over a thousand functions, the event queue a few dozen, plus a
//!   common libstdc++/allocator pool), each function with a code address,
//!   size, µop weight and branch character, laid out in a text segment
//!   (optionally `-O3`-compiled: smaller and better clustered);
//! * [`record::ExecRecord`] / [`record::DataRef`] — the host instruction
//!   stream: one record per host *function invocation*, consumed by the
//!   `hostmodel` crate's microarchitecture model via [`record::TraceSink`],
//!   in chunks handed out by [`record::feed`]; a recorded stream is held
//!   as a [`record::Stream`], encoded at about 3 bytes per event;
//! * [`adapter::TraceAdapter`] — the bridge: it implements
//!   [`gem5sim::ExecutionObserver`], translating every simulator handler
//!   invocation into calls of the corresponding primary function plus a
//!   deterministic spread of helper-function calls (parameter checks,
//!   packet methods, stat updates, allocator traffic — gem5's real call
//!   trees), and tallying the per-function call profile the paper's
//!   Fig. 15 reports.
//!
//! The *number of distinct functions touched* and the *flatness of the
//! hot-function CDF* are therefore emergent: more detailed CPU models
//! exercise more handler methods, which fan out into larger pools.

pub mod adapter;
pub mod layout;
pub mod profile;
pub mod record;
pub mod registry;

pub use adapter::TraceAdapter;
pub use layout::{PageBacking, TextLayout, HUGE_PAGE};
pub use profile::CallProfile;
pub use record::{DataRef, ExecRecord, FanoutSink, NullSink, TraceSink};
pub use registry::{BinaryVariant, FuncMeta, FunctionId, Registry};

/// Deterministic 64-bit mixer used for all synthetic-but-stable decisions
/// (helper selection, branch outcome streams, layout shuffling).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mixes two values.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(1), mix64(2));
        // Low bits should vary for consecutive inputs.
        let bits: std::collections::HashSet<u64> = (0..64).map(|i| mix64(i) & 0xFF).collect();
        assert!(bits.len() > 40);
    }
}
