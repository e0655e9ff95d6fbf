//! Figs. 10–13: system tuning — huge pages, `-O3`, frequency.

use super::Fidelity;
use crate::experiment::{profile, GuestSpec, HostSetup};
use crate::report::Table;
use gem5sim::config::{CpuModel, SimMode};
use gem5sim_workloads::Workload;
use hostmodel::HostRunStats;
use platforms::{intel_xeon, PlatformId, SystemKnobs};

/// Fig. 10: speedup from backing gem5's code with huge pages
/// (THP via iodlr-style remapping, EHP via libhugetlbfs) on `Intel_Xeon`.
pub fn fig10(f: Fidelity) -> Table {
    let _span = gem5prof_obs::span("fig10");
    let xeon = intel_xeon();
    let setups = [
        HostSetup::with_knobs(&xeon, &SystemKnobs::new()),
        HostSetup::with_knobs(&xeon, &SystemKnobs::new().with_thp()),
        HostSetup::with_knobs(&xeon, &SystemKnobs::new().with_ehp()),
    ];
    let mut t = Table::new(
        "Fig. 10: huge-page speedup on Intel_Xeon (%)",
        ["THP", "EHP"].map(String::from).to_vec(),
    );
    let rows: Vec<Vec<f64>> = crate::runner::parallel_map(&CpuModel::ALL, |&cpu| {
        let run = profile(
            &GuestSpec::new(Workload::WaterNsquared, f.scale(), cpu, SimMode::Fs),
            &setups,
        );
        let base = run.hosts[0].seconds();
        let speedup = |i: usize| 100.0 * (base / run.hosts[i].seconds() - 1.0);
        vec![speedup(1), speedup(2)]
    });
    for (cpu, vals) in CpuModel::ALL.iter().zip(rows) {
        t.push(cpu.label(), vals);
    }
    t.note("paper: up to 5.9% speedup; small for Atomic/Timing, larger for Minor/O3");
    t
}

/// Fig. 11: improvement in iTLB overhead and retiring cycles with THP.
pub fn fig11(f: Fidelity) -> Table {
    let _span = gem5prof_obs::span("fig11");
    let xeon = intel_xeon();
    let setups = [
        HostSetup::with_knobs(&xeon, &SystemKnobs::new()),
        HostSetup::with_knobs(&xeon, &SystemKnobs::new().with_thp()),
    ];
    let mut t = Table::new(
        "Fig. 11: THP effect on iTLB overhead and retiring",
        ["iTLB-overhead-reduction%", "retiring-improvement%"]
            .map(String::from)
            .to_vec(),
    );
    let rows: Vec<Vec<f64>> = crate::runner::parallel_map(&CpuModel::ALL, |&cpu| {
        let run = profile(
            &GuestSpec::new(Workload::WaterNsquared, f.scale(), cpu, SimMode::Fs),
            &setups,
        );
        let (base, thp) = (&run.hosts[0], &run.hosts[1]);
        let itlb_red = if base.topdown.fe_latency.itlb > 0.0 {
            100.0 * (1.0 - thp.topdown.fe_latency.itlb / base.topdown.fe_latency.itlb)
        } else {
            0.0
        };
        let (r0, ..) = base.topdown.level1_pct();
        let (r1, ..) = thp.topdown.level1_pct();
        vec![itlb_red, 100.0 * (r1 / r0 - 1.0)]
    });
    for (cpu, vals) in CpuModel::ALL.iter().zip(rows) {
        t.push(cpu.label(), vals);
    }
    t.note("paper: THP cuts iTLB overhead by ~63% on average; retiring improves 3-7% for detailed CPUs");
    t
}

/// Fig. 12: speedup from compiling the simulator with `-O3`, per
/// platform.
pub fn fig12(f: Fidelity) -> Table {
    let _span = gem5prof_obs::span("fig12");
    let mut t = Table::new(
        "Fig. 12: -O3 binary speedup (%)",
        PlatformId::ALL
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
    );
    let work: Vec<(CpuModel, PlatformId)> = CpuModel::ALL
        .iter()
        .flat_map(|&cpu| PlatformId::ALL.iter().map(move |&pid| (cpu, pid)))
        .collect();
    let cells: Vec<f64> = crate::runner::parallel_map(&work, |&(cpu, pid)| {
        let p = pid.platform();
        let setups = [
            HostSetup::with_knobs(&p, &SystemKnobs::new()),
            HostSetup::with_knobs(&p, &SystemKnobs::new().with_o3_binary()),
        ];
        let run = profile(
            &GuestSpec::new(Workload::WaterNsquared, f.scale(), cpu, SimMode::Fs),
            &setups,
        );
        100.0 * (run.hosts[0].seconds() / run.hosts[1].seconds() - 1.0)
    });
    let np = PlatformId::ALL.len();
    for (ci, cpu) in CpuModel::ALL.iter().enumerate() {
        t.push(cpu.label(), cells[ci * np..(ci + 1) * np].to_vec());
    }
    t.note("paper: average speedups 1.38% (Xeon), 0.98% (M1_Pro), 0.78% (M1_Ultra); a few regressions occur");
    t
}

/// Fig. 13: simulation time vs CPU frequency on `Intel_Xeon`, normalized
/// to the nominal 3.1 GHz (Turbo Boost as the final row).
///
/// Frequency changes no host-model event, only the cycles-to-seconds
/// conversion, so each CPU model is profiled once and every row re-times
/// the same cycle count.
pub fn fig13(f: Fidelity) -> Table {
    let _span = gem5prof_obs::span("fig13");
    let xeon = intel_xeon();
    let turbo = xeon.turbo_ghz.expect("Xeon has Turbo");
    let freqs = [1.2, 1.6, 2.0, 2.4, 2.8, 3.1, turbo];
    let mut t = Table::new(
        "Fig. 13: normalized simulation time vs frequency (Intel_Xeon)",
        ["Atomic", "O3"].map(String::from).to_vec(),
    );
    let mut rows: Vec<(String, Vec<f64>)> = freqs[..6]
        .iter()
        .map(|g| (format!("{g:.1}GHz"), Vec::new()))
        .collect();
    rows.push(("4.1GHz-Turbo".into(), Vec::new()));
    let cpus = [CpuModel::Atomic, CpuModel::O3];
    let cols: Vec<Vec<f64>> = crate::runner::parallel_map(&cpus, |&cpu| {
        let run = profile(
            &GuestSpec::new(Workload::WaterNsquared, f.scale(), cpu, SimMode::Se),
            &[HostSetup::platform(&xeon)],
        );
        let h = &run.hosts[0];
        let seconds = |g: f64| {
            HostRunStats {
                freq_ghz: g,
                ..h.clone()
            }
            .seconds()
        };
        let base = h.seconds(); // the platform's nominal 3.1 GHz
        freqs.iter().map(|&g| seconds(g) / base).collect()
    });
    for col in cols {
        for (i, row) in rows.iter_mut().enumerate() {
            row.1.push(col[i]);
        }
    }
    for (label, vals) in rows {
        t.push(label, vals);
    }
    t.note("paper: 3.1 -> 1.2 GHz increases simulation time 2.67x (linear in 1/f)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_pages_help_detailed_models_more() {
        let t = fig10(Fidelity::Quick);
        let atomic = t.get("ATOMIC", "THP").unwrap();
        let o3 = t.get("O3", "THP").unwrap();
        assert!(o3 > 0.0, "THP must help O3: {o3}%");
        assert!(o3 > atomic, "O3 {o3}% vs Atomic {atomic}%");
        assert!(
            o3 < 30.0,
            "speedup should stay single/low-double digit: {o3}%"
        );
        let ehp = t.get("O3", "EHP").unwrap();
        assert!(ehp > 0.0);
    }

    #[test]
    fn thp_slashes_itlb_overhead() {
        let t = fig11(Fidelity::Quick);
        for cpu in ["MINOR", "O3"] {
            let red = t.get(cpu, "iTLB-overhead-reduction%").unwrap();
            assert!(red > 30.0, "{cpu}: iTLB reduction {red}%");
            let ret = t.get(cpu, "retiring-improvement%").unwrap();
            assert!(ret > 0.0, "{cpu}: retiring must improve, got {ret}%");
        }
    }

    #[test]
    fn o3_flag_gives_small_speedup() {
        let t = fig12(Fidelity::Quick);
        let v = t.get("O3", "Intel_Xeon").unwrap();
        assert!(
            v > -2.0 && v < 15.0,
            "-O3 speedup {v}% out of plausible range"
        );
    }

    #[test]
    fn frequency_scaling_is_linear() {
        let t = fig13(Fidelity::Quick);
        let slow = t.get("1.2GHz", "O3").unwrap();
        assert!(
            (slow - 3.1 / 1.2).abs() < 0.05,
            "1.2 GHz normalized time {slow} vs expected {:.2}",
            3.1 / 1.2
        );
        let turbo = t.get("4.1GHz-Turbo", "O3").unwrap();
        assert!(turbo < 1.0);
        let nominal = t.get("3.1GHz", "Atomic").unwrap();
        assert!((nominal - 1.0).abs() < 1e-9);
    }
}
