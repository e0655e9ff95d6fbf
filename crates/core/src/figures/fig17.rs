//! Fig. 17: multi-hart co-run scaling under the Timing CPU.
//!
//! Pairs of microbenchmarks share a system — even harts run the first
//! variant, odd harts the second, all behind per-hart L1s and one shared
//! L2 — at 1, 2 and 4 harts. Each row reports guest wall-time slowdown
//! relative to its own single-hart run, so the columns isolate pure
//! interference: each `mem_stride` hart's window fills eight ways of
//! every 16-way L2 set, so four memory-bound harts oversubscribe the
//! shared L2's capacity and thrash each other into DRAM, while
//! ALU-bound pairs barely notice each other. The last row halves the
//! odd harts' clock with a per-hart divider, the guest-side analogue of
//! the host model's co-run scenarios ([`hostmodel::CorunScenario`]).

use super::Fidelity;
use crate::experiment::{run_guest, GuestSpec};
use crate::report::Table;
use crate::runner::parallel_map;
use gem5sim::config::{CpuModel, SimMode};
use gem5sim_workloads::{Microbench, Workload};

/// Hart counts shown as columns.
const HARTS: [usize; 3] = [1, 2, 4];

/// (even-hart variant, odd-hart variant, odd-hart clock divider).
const PAIRS: [(Microbench, Microbench, u64); 4] = [
    (Microbench::Alu, Microbench::Alu, 1),
    (Microbench::MemStride, Microbench::Alu, 1),
    (Microbench::MemStride, Microbench::MemStride, 1),
    (Microbench::MemStride, Microbench::Alu, 2),
];

fn row_label(a: Microbench, b: Microbench, div: u64) -> String {
    if div > 1 {
        format!("{}+{}_div{div}", a.name(), b.name())
    } else {
        format!("{}+{}", a.name(), b.name())
    }
}

/// Fig. 17's guests, row-major: each pair at every hart count.
pub(crate) fn specs(f: Fidelity) -> Vec<GuestSpec> {
    PAIRS
        .iter()
        .flat_map(|&(a, b, div)| {
            HARTS.iter().map(move |&h| {
                GuestSpec::new(Workload::Micro(a), f.scale(), CpuModel::Timing, SimMode::Se)
                    .with_harts(h)
                    .with_corun(b)
                    .with_corun_div(div)
            })
        })
        .collect()
}

/// Regenerates Fig. 17: guest-time slowdown of each co-run pair at 1/2/4
/// harts, normalized per row to its 1-hart run (column `1-hart` ≡ 1).
pub fn fig17(f: Fidelity) -> Table {
    let _span = gem5prof_obs::span("fig17");
    let columns: Vec<String> = HARTS.iter().map(|h| format!("{h}-hart")).collect();
    let mut table = Table::new(
        "Fig. 17: co-run slowdown vs harts (Timing CPU, shared L2)",
        columns,
    );

    // pair × harts fans out across the thread pool; assembly below is in
    // input order, so output is thread-count independent. Only guest
    // results are read, so the guests run bare, with no host model.
    let secs: Vec<f64> = parallel_map(&specs(f), |spec| {
        let (Workload::Micro(a), Some(b)) = (spec.workload, spec.corun) else {
            unreachable!("Fig. 17 co-runs microbenchmarks only")
        };
        let guest = run_guest(spec);
        for (i, &chk) in guest.guest_checksums.iter().enumerate() {
            let variant = if i % 2 == 0 { a } else { b };
            assert_eq!(
                chk,
                variant.expected_checksum(f.scale()),
                "hart {i} ({variant}) of {} corrupted its checksum at {} harts",
                row_label(a, b, spec.corun_div),
                spec.harts
            );
        }
        guest.sim_seconds()
    });

    for (r, &(a, b, div)) in PAIRS.iter().enumerate() {
        let base = secs[r * HARTS.len()];
        let values: Vec<f64> = (0..HARTS.len())
            .map(|c| secs[r * HARTS.len() + c] / base)
            .collect();
        table.push(row_label(a, b, div), values);
    }

    table.note("slowdown = sim_seconds(h harts) / sim_seconds(1 hart), per row; even harts run the left variant, odd harts the right");
    table.note("expected: four mem_stride harts oversubscribe the shared L2 (8 ways/set each) and thrash into DRAM; two fit exactly; alu pairs stay near 1.0");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_scales_with_memory_pressure() {
        let t = fig17(Fidelity::Quick);
        for row in &t.rows {
            let one = t.get(&row.label, "1-hart").unwrap();
            assert!(
                (one - 1.0).abs() < 1e-9,
                "{}: 1-hart is the unit baseline",
                row.label
            );
        }
        let alu4 = t.get("alu+alu", "4-hart").unwrap();
        let mem4 = t.get("mem_stride+mem_stride", "4-hart").unwrap();
        let mixed4 = t.get("mem_stride+alu", "4-hart").unwrap();
        // The acceptance criterion: interference-dependent scaling. Four
        // strided harts demand 32 ways of the 16-way shared L2 and
        // thrash (measured ~2.2x); alu pairs and the two-mem-hart mixed
        // pair fit and stay near 1.0.
        assert!(
            alu4 < 1.2,
            "4-hart alu pair ({alu4}) must stay near 1.0 — its L2 footprint is trivial"
        );
        assert!(
            mem4 > 1.5,
            "4-hart mem-bound pair ({mem4}) must thrash the shared L2 well past 1.5x"
        );
        assert!(
            mem4 > alu4 + 0.5,
            "4-hart mem-bound pair ({mem4}) must degrade far more than alu pair ({alu4})"
        );
        assert!(
            mixed4 <= mem4,
            "mixed pair ({mixed4}) cannot exceed the all-memory pair ({mem4})"
        );
        // Halving the interferer's clock stretches total time at least
        // past the undivided mixed pair (the divided alu side runs ~2x
        // longer in guest time).
        let div2 = t.get("mem_stride+alu_div2", "2-hart").unwrap();
        let mixed2 = t.get("mem_stride+alu", "2-hart").unwrap();
        assert!(
            div2 >= mixed2,
            "div2 row ({div2}) should not finish before the undivided pair ({mixed2})"
        );
    }
}
