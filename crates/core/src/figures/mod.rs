//! Regeneration of every figure and table in the paper's evaluation.
//!
//! Each `figNN` function runs the required simulations and returns a
//! [`Table`] holding the same rows/series the paper
//! plots, with the paper's reference values attached as notes. The
//! `EXPERIMENTS.md` file at the repository root records paper-vs-measured
//! for each.
//!
//! [`Table`]: crate::report::Table

mod fig01;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod frontend;
mod platform;
mod tables;
mod tuning;

pub use fig01::fig01;
pub use fig14::fig14;
pub use fig15::{fig15, fig15_hottest};
pub use fig16::fig16;
pub use fig17::fig17;
pub use frontend::{fig02, fig03, fig04, fig05, fig06};
pub use platform::{fig07, fig08, fig09};
pub use tables::{table1, table2};
pub use tuning::{fig10, fig11, fig12, fig13};

use crate::report::Table;
use gem5sim_workloads::{Scale, Workload};

/// How much work to spend regenerating a figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Small inputs, reduced workload sets — for tests and Criterion
    /// benches. Trends hold; absolute noise is larger.
    #[default]
    Quick,
    /// The full workload grid at `simsmall`-equivalent inputs (the
    /// default for the `repro` binary).
    Paper,
}

impl Fidelity {
    /// Guest input scale.
    pub fn scale(self) -> Scale {
        match self {
            Fidelity::Quick => Scale::Test,
            Fidelity::Paper => Scale::SimSmall,
        }
    }

    /// PARSEC/SPLASH workload set for multi-workload figures.
    pub fn workloads(self) -> &'static [Workload] {
        match self {
            Fidelity::Quick => &[Workload::WaterNsquared, Workload::Canneal, Workload::Dedup],
            Fidelity::Paper => &Workload::PARSEC,
        }
    }

    /// SPEC trace length in records.
    pub fn spec_records(self) -> u64 {
        match self {
            Fidelity::Quick => 40_000,
            Fidelity::Paper => 250_000,
        }
    }
}

/// Every figure in order — used by the `repro` binary's `all` command.
pub fn all_figures(f: Fidelity) -> Vec<Table> {
    vec![
        table1(),
        table2(),
        fig01(f),
        fig02(f),
        fig03(f),
        fig04(f),
        fig05(f),
        fig06(f),
        fig07(f),
        fig08(f),
        fig09(f),
        fig10(f),
        fig11(f),
        fig12(f),
        fig13(f),
        fig14(f),
        fig15(f),
        fig16(f),
        fig17(f),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_scales() {
        assert_eq!(Fidelity::Quick.scale(), Scale::Test);
        assert_eq!(Fidelity::Paper.scale(), Scale::SimSmall);
        assert_eq!(Fidelity::Quick.workloads().len(), 3);
        assert_eq!(Fidelity::Paper.workloads().len(), 9);
    }

    /// A guest run bare must report exactly what its profile reports, for
    /// every guest Figs. 16 and 17 run bare and for a sample of what
    /// `POST /experiments` accepts, harts, co-run partners and clock
    /// dividers included.
    #[test]
    fn bare_runs_match_profiled_guests() {
        use crate::experiment::{profile, run_guest, GuestSpec, HostSetup};
        use crate::spec::ALL_WORKLOADS;
        use gem5sim::config::{CpuModel, SimMode};
        use gem5sim_workloads::Microbench;

        let mut specs = fig16::specs(Fidelity::Quick);
        specs.extend(fig17::specs(Fidelity::Quick));
        assert_eq!(specs.len(), 36);
        let mut g = testkit::Gen::new(testkit::base_seed());
        for k in 0..12 {
            // Every even case is a microbenchmark, every fourth co-runs
            // on more than one hart with a divided clock. At most four
            // harts (the daemon takes eight) keeps the profiles short.
            let workload = match k % 2 {
                0 => Workload::Micro(*g.pick(&Microbench::ALL)),
                _ => *g.pick(&ALL_WORKLOADS),
            };
            let paired = k % 4 == 0;
            let mut spec = GuestSpec::new(
                workload,
                Scale::Test,
                *g.pick(&CpuModel::ALL),
                *g.pick(&[SimMode::Se, SimMode::Fs]),
            )
            .with_harts(g.usize_in(if paired { 2..5 } else { 1..5 }))
            .with_corun_div(g.u64_in(if paired { 2..9 } else { 1..9 }));
            if paired {
                spec = spec.with_corun(*g.pick(&Microbench::ALL));
            }
            specs.push(spec);
        }
        let xeon = [HostSetup::platform(&platforms::intel_xeon())];
        let differ: Vec<String> = crate::runner::parallel_map(&specs, |spec| {
            (run_guest(spec) != profile(spec, &xeon).guest).then(|| format!("{spec:?}"))
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(
            differ.is_empty(),
            "bare and profiled guests differ: {differ:?}"
        );
    }
}
