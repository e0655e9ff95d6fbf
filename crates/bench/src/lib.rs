//! Support library for the benchmark harness: shared setup helpers and a
//! std-only wall-clock bench runner used by the `[[bench]]` targets and
//! the `repro` binary. No external bench framework — the build must work
//! fully offline.

use gem5prof::experiment::{GuestSpec, HostSetup};
use gem5sim::config::{CpuModel, SimMode};
use gem5sim_workloads::{Scale, Workload};

pub mod harness;
pub mod soak;

/// A tiny guest spec for microbenchmarks.
pub fn tiny_guest(cpu: CpuModel) -> GuestSpec {
    GuestSpec::new(Workload::Dedup, Scale::Test, cpu, SimMode::Se)
}

/// The default host (Intel_Xeon at base knobs).
pub fn xeon_host() -> HostSetup {
    HostSetup::platform(&platforms::intel_xeon())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build() {
        let g = tiny_guest(CpuModel::Atomic);
        assert_eq!(g.scale, Scale::Test);
        let h = xeon_host();
        assert_eq!(h.config.name, "Intel_Xeon");
    }
}
