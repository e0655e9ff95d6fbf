//! Fig. 16: guest-MIPS matrix over the microbenchmark suite.
//!
//! Each cell is the *guest* instruction rate (committed instructions per
//! simulated second, in millions) of one microbenchmark variant under one
//! CPU model. The matrix separates the simulator's timing models along
//! the axes the microbenchmarks isolate — ALU throughput, branch
//! predictability, and memory locality — and every run is pinned by the
//! variant's deterministic guest checksum before its rate is reported.

use super::Fidelity;
use crate::experiment::{run_guest, GuestSpec};
use crate::report::Table;
use crate::runner::parallel_map;
use gem5sim::config::{CpuModel, SimMode};
use gem5sim_workloads::{Microbench, Workload};

/// Fig. 16's guests, one per cell, variant-major.
pub(crate) fn specs(f: Fidelity) -> Vec<GuestSpec> {
    Microbench::ALL
        .iter()
        .flat_map(|&m| {
            CpuModel::ALL
                .iter()
                .map(move |&cpu| GuestSpec::new(Workload::Micro(m), f.scale(), cpu, SimMode::Se))
        })
        .collect()
}

/// Regenerates Fig. 16: rows are microbenchmark variants, columns the
/// four CPU models; values are guest MIPS (higher = the model charges
/// fewer guest ticks per instruction).
pub fn fig16(f: Fidelity) -> Table {
    let _span = gem5prof_obs::span("fig16");
    let columns: Vec<String> = CpuModel::ALL.iter().map(|c| c.label().into()).collect();
    let mut table = Table::new(
        "Fig. 16: guest MIPS per microbenchmark variant and CPU model",
        columns,
    );

    // variant × model fans out across the thread pool; assembly below is
    // in input order, so output is thread-count independent. Only guest
    // results are read, so the guests run bare, with no host model.
    let rates: Vec<f64> = parallel_map(&specs(f), |spec| {
        let Workload::Micro(m) = spec.workload else {
            unreachable!("Fig. 16 runs microbenchmarks only")
        };
        let guest = run_guest(spec);
        // Checksum guardrail: a wrong rate from a wrong execution is
        // worse than no figure at all.
        assert_eq!(
            guest.guest_checksums.first().copied(),
            Some(m.expected_checksum(f.scale())),
            "{m} under {} corrupted its guest checksum",
            spec.cpu.label()
        );
        guest.committed_insts as f64 / guest.sim_seconds() / 1e6
    });

    for (r, &m) in Microbench::ALL.iter().enumerate() {
        let values = rates[r * CpuModel::ALL.len()..(r + 1) * CpuModel::ALL.len()].to_vec();
        table.push(m.name().to_string(), values);
    }

    table.note("guest MIPS = committed_insts / sim_seconds / 1e6; every cell checksum-verified");
    table.note("expected: mem_stride slowest under timing models (L1-defeating stride); branch_unpred pays squashes on MINOR/O3; superscalar O3 can exceed ATOMIC's 1-cycle charge on ALU code");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_matrix_orders_models_and_variants() {
        let t = fig16(Fidelity::Quick);
        assert_eq!(t.rows.len(), Microbench::ALL.len());
        for row in &t.rows {
            for col in &t.columns {
                let v = t.get(&row.label, col).unwrap();
                assert!(v > 0.0, "{}/{col}: rate {v} must be positive", row.label);
            }
        }
        // The L1-defeating stride pays real memory latency under Timing;
        // the sequential walk mostly hits.
        let seq = t.get("mem_seq", "TIMING").unwrap();
        let stride = t.get("mem_stride", "TIMING").unwrap();
        assert!(
            stride < seq,
            "mem_stride ({stride} MIPS) must run slower than mem_seq ({seq} MIPS) under TIMING"
        );
        // Mispredict squashes slow the unpredictable branch kernel on the
        // pipelined models; Atomic charges both kernels identically.
        let pred = t.get("branch_pred", "O3").unwrap();
        let unpred = t.get("branch_unpred", "O3").unwrap();
        assert!(
            unpred < pred,
            "branch_unpred ({unpred} MIPS) must run slower than branch_pred ({pred} MIPS) under O3"
        );
    }
}
