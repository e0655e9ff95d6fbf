//! Fig. 14: gem5's sensitivity to the *host's* cache configuration
//! (the FireSim study).

use super::Fidelity;
use crate::experiment::{profile, GuestSpec, HostSetup};
use crate::report::Table;
use gem5sim::config::{CpuModel, SimMode};
use gem5sim_workloads::Workload;
use platforms::firesim;

/// Regenerates Fig. 14: simulation speedup of the Sieve-of-Eratosthenes
/// run on gem5, for each host cache configuration, relative to the
/// `8KB/2 : 8KB/2 : 512KB/8` baseline — on the Table I FireSim host.
pub fn fig14(f: Fidelity) -> Table {
    let _span = gem5prof_obs::span("fig14");
    let sweep = firesim::fig14_sweep();
    let setups: Vec<HostSetup> = sweep.iter().cloned().map(HostSetup::raw).collect();
    let cpus = [CpuModel::Atomic, CpuModel::Timing, CpuModel::O3];

    let mut t = Table::new(
        "Fig. 14: speedup vs (8KB/2:8KB/2:512KB/8) host baseline (%)",
        cpus.iter().map(|c| c.label().to_string()).collect(),
    );
    // seconds[cpu][config]. Mapped heaviest first: O3's profile takes
    // about as long as the other two together, so at two threads a
    // second worker runs Timing and Atomic beside it. Reversed back to
    // column order.
    let heaviest_first: Vec<CpuModel> = cpus.iter().rev().copied().collect();
    let mut secs: Vec<Vec<f64>> = crate::runner::parallel_map(&heaviest_first, |&cpu| {
        let run = profile(
            &GuestSpec::new(Workload::Sieve, f.scale(), cpu, SimMode::Se),
            &setups,
        );
        run.hosts.iter().map(|h| h.seconds()).collect()
    });
    secs.reverse();
    for (ci, cfg) in sweep.iter().enumerate() {
        let vals: Vec<f64> = (0..cpus.len())
            .map(|k| 100.0 * (secs[k][0] / secs[k][ci] - 1.0))
            .collect();
        t.push(cfg.name.clone(), vals);
    }
    t.note("paper: 16KB L1s cut Atomic/Timing/O3 time by 30/25/18%; doubling L2 1->2MB has almost no effect");
    t.note("paper: best config 64KB/16 improves speed 68.7/68.2/43.8%; 32KB L1s give the abstract's 31-61%");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_size_dominates_l2_size() {
        let t = fig14(Fidelity::Quick);
        // Baseline row is 0% by construction.
        let base = &t.rows[0];
        assert!(base.values.iter().all(|v| v.abs() < 1e-9));

        // Growing L1s monotonically helps every CPU model.
        let s16 = t.get("16KB/4:16KB/4:512KB/8", "ATOMIC").unwrap();
        let s32 = t.get("32KB/8:32KB/8:512KB/8", "ATOMIC").unwrap();
        let s64 = t.get("64KB/16:64KB/16:512KB/8", "ATOMIC").unwrap();
        assert!(s16 > 5.0, "16KB speedup {s16}%");
        assert!(s32 > s16 && s64 > s32, "monotone: {s16} {s32} {s64}");

        // Doubling L2 from 1MB to 2MB is nearly free of effect.
        let l2_1m = t.get("32KB/8:32KB/8:1024KB/8", "O3").unwrap();
        let l2_2m = t.get("32KB/8:32KB/8:2048KB/8", "O3").unwrap();
        assert!(
            (l2_2m - l2_1m).abs() < 6.0,
            "L2 doubling should barely matter: {l2_1m}% vs {l2_2m}%"
        );
    }

    #[test]
    fn o3_benefits_less_than_simple_models() {
        let t = fig14(Fidelity::Quick);
        let atomic = t.get("64KB/16:64KB/16:512KB/8", "ATOMIC").unwrap();
        let o3 = t.get("64KB/16:64KB/16:512KB/8", "O3").unwrap();
        assert!(
            atomic > o3,
            "paper: Atomic gains more from L1 growth than O3 ({atomic}% vs {o3}%)"
        );
    }
}
