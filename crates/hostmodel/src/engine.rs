//! The host execution engine: consumes the host instruction stream and
//! performs Top-Down cycle accounting.

use crate::branch::HostBranchPredictor;
use crate::cache::HostCache;
use crate::config::HostConfig;
use crate::dsb::{Dsb, WINDOW};
use crate::stats::HostRunStats;
use crate::tlb::{HostTlb, TlbResult};
use crate::topdown::{BeMem, TopDown};
use hosttrace::record::{DataRef, ExecRecord, TraceSink};
use hosttrace::registry::Registry;
use hosttrace::{mix2, mix64};
use std::sync::Arc;

/// Host virtual address of the simulated process's stack (function-local
/// data in [`ExecRecord`]s lands here — hot and small).
const STACK_BASE: u64 = 0x7FFF_F000_0000;

/// Host virtual address of the allocator arena holding SimObject state
/// reached through member pointers (distinct from the instrumented
/// state regions reported via [`DataRef`]s).
const HEAP_BASE: u64 = 0x20_0000_0000;

/// Host address of function `fid`'s `j`-th local load: mostly stack (hot,
/// tiny), with every fourth load reaching the heap.
#[inline]
pub(crate) fn local_load_addr(fid: u64, j: u64) -> u64 {
    if is_heap_load(j) {
        HEAP_BASE + (mix2(fid, j) % (1_500_000 / 64)) * 64
    } else {
        STACK_BASE + (fid.wrapping_mul(968) + j * 64) % 10240
    }
}

/// Whether local load `j` reaches the heap (and so looks up the dTLB).
#[inline]
pub(crate) fn is_heap_load(j: u64) -> bool {
    j % 4 == 3
}

/// Host address of function `fid`'s `j`-th local store (stack).
#[inline]
pub(crate) fn local_store_addr(fid: u64, j: u64) -> u64 {
    STACK_BASE + (fid.wrapping_mul(968) + 5120 + j * 64) % 10240
}

/// The code one invocation fetches: its byte range `[start, end)` and
/// where its branch sites sit. Successive invocations take different
/// paths through the function body, so the span start rotates within it;
/// branch sites are static program points in per-function 256 B regions,
/// so sites recur and predictors can learn them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Fetch {
    pub start: u64,
    pub end: u64,
    pub site_base: u64,
    /// The function's code size.
    pub size: u64,
    /// Percent of the function's conditional branches taken.
    pub taken_rate: u8,
}

impl Fetch {
    #[inline]
    pub(crate) fn of(reg: &Registry, r: &ExecRecord, bytes_per_uop: f64) -> Self {
        let meta = reg.meta(r.func);
        let (addr, size) = (meta.addr, meta.size as u64);
        let bytes = ((r.uops as f64 * bytes_per_uop) as u64).max(16);
        let span = bytes.min(size + 16); // longer executions loop in place
        let off = ((r.variant as u64) * 96) % (size.saturating_sub(span) + 1);
        Fetch {
            start: addr + off,
            end: addr + off + span,
            site_base: addr + (off & !255),
            size,
            taken_rate: meta.taken_rate,
        }
    }

    /// Site of the record's `j`-th conditional branch.
    #[inline]
    pub(crate) fn cond_site(&self, j: u64) -> u64 {
        self.site_base + 16 + (j * 24) % self.size.max(24)
    }

    /// Site of the record's `j`-th indirect branch.
    #[inline]
    pub(crate) fn indirect_site(&self, j: u64) -> u64 {
        self.site_base + 8 + j * 40
    }

    /// Target of an indirect branch at `site` in invocation `variant`.
    /// Site polymorphism: most virtual call sites are monomorphic in
    /// practice; a minority see several receiver types.
    #[inline]
    pub(crate) fn indirect_target(site: u64, variant: u32) -> u64 {
        let h = mix64(site ^ 0xD15EA5E);
        let poly = if h.is_multiple_of(8) {
            2 + mix64(h) % 4
        } else {
            1
        };
        mix2(site, variant as u64 % poly)
    }

    /// The record's first µop-cache window and how many windows its span
    /// covers (at least one).
    #[inline]
    pub(crate) fn windows(&self) -> (u64, u64) {
        let wstart = self.start & !(WINDOW - 1);
        (wstart, (self.end - wstart).div_ceil(WINDOW).max(1))
    }
}

// The Top-Down rules: what one modeled event adds to which bucket. The
// engine and the batch's accounting (`crate::batch`) both call these, in
// the same order per bucket, so their sums agree to the bit.

/// Where an L1 miss is filled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    L2,
    Llc,
    Dram,
}

/// Cycles an L1 miss waits for its fill.
#[inline]
pub(crate) fn fill_latency(cfg: &HostConfig, fill: Fill) -> u64 {
    match fill {
        Fill::L2 => cfg.l2_lat,
        Fill::Llc => cfg.llc_lat,
        Fill::Dram => cfg.dram_lat,
    }
}

/// Cycles a TLB lookup costs before any overlap.
#[inline]
pub(crate) fn tlb_latency(cfg: &HostConfig, r: TlbResult) -> u64 {
    match r {
        TlbResult::L1Hit => 0,
        TlbResult::StlbHit => cfg.stlb_lat,
        TlbResult::Walk => cfg.walk_lat,
    }
}

/// One record's iCache fills, `fetch_pen` cycles in all, overlapped
/// `fetch_mlp` ways.
#[inline]
pub(crate) fn account_icache(icache: &mut f64, cfg: &HostConfig, fetch_pen: u64) {
    *icache += fetch_pen as f64 / cfg.fetch_mlp;
}

/// One record's iTLB misses, `itlb_pen` cycles in all. Page walks
/// serialize instruction delivery far more than line fills do; only
/// adjacent-fetch overlap (x2) hides them.
#[inline]
pub(crate) fn account_itlb(td: &mut TopDown, itlb_pen: u64) {
    td.fe_latency.itlb += itlb_pen as f64 / 2.0;
}

/// A mispredicted conditional branch: wrong-path work is bad
/// speculation; the fetch redirect is a front-end resteer.
#[inline]
pub(crate) fn account_mispredict(td: &mut TopDown, cfg: &HostConfig) {
    let penalty = cfg.mispredict_penalty as f64;
    td.bad_speculation += penalty * 0.55;
    td.fe_latency.mispredict_resteers += penalty * 0.45;
}

/// A correctly predicted conditional branch the front end could not
/// target.
#[inline]
pub(crate) fn account_unknown_cond(td: &mut TopDown, cfg: &HostConfig) {
    td.fe_latency.unknown_branches += cfg.resteer_cycles as f64 * 0.6;
}

/// An indirect branch whose target the BTB missed.
#[inline]
pub(crate) fn account_unknown_indirect(td: &mut TopDown, cfg: &HostConfig) {
    td.fe_latency.unknown_branches += cfg.resteer_cycles as f64;
}

/// The rest of one record's front end and core: retiring at full width,
/// the decode shortfall, machine clears and residual core stalls.
/// `dsb_frac` of its µops come from the µop cache. Called after the
/// record's branches, which also add to bad speculation.
#[inline]
pub(crate) fn account_exec(td: &mut TopDown, cfg: &HostConfig, r: &ExecRecord, dsb_frac: f64) {
    let uopsf = r.uops as f64;
    let width = cfg.width as f64;
    let base = uopsf / width;
    td.retiring += base;

    // Decode: the record's µops are apportioned to the DSB and MITE
    // supply paths by the fraction of its fetch windows resident in the
    // µop cache.
    let mite_uops_f = uopsf * (1.0 - dsb_frac);
    let decode_cycles =
        mite_uops_f / cfg.mite_width + (uopsf - mite_uops_f) / cfg.dsb_width.max(1.0);
    let deficit = (decode_cycles - base).max(0.0);
    if deficit > 0.0 {
        // Attribute the shortfall to the slow component first: the
        // legacy decoders. The DSB only appears when it is itself the
        // limiter (Intel's accounting does the same, which is why the
        // paper sees 92-97% MITE).
        let mite_excess = (mite_uops_f / cfg.mite_width - mite_uops_f / width).max(0.0);
        let to_mite = deficit.min(mite_excess);
        td.fe_bandwidth.mite += to_mite;
        td.fe_bandwidth.dsb += deficit - to_mite;
    }

    // Machine clears (memory-order nukes etc.) are rare and tied to
    // store traffic.
    let penalty = cfg.mispredict_penalty as f64;
    td.fe_latency.clear_resteers += r.stores as f64 * 0.004 * penalty * 0.3;
    td.bad_speculation += r.stores as f64 * 0.004 * penalty * 0.7;

    // Residual core stalls: long dependency chains, division.
    td.be_core += uopsf * 0.012;
}

/// A heap load's dTLB lookup.
#[inline]
pub(crate) fn account_load_dtlb(be: &mut BeMem, cfg: &HostConfig, r: TlbResult) {
    if r != TlbResult::L1Hit {
        be.l2 += tlb_latency(cfg, r) as f64 / cfg.mlp;
    }
}

/// A data record's dTLB lookup; page walks amortize over prefetched
/// streams like the fills do (`stream_factor`).
#[inline]
pub(crate) fn account_data_dtlb(
    be: &mut BeMem,
    cfg: &HostConfig,
    r: TlbResult,
    stream_factor: f64,
) {
    if r != TlbResult::L1Hit {
        be.l2 += tlb_latency(cfg, r) as f64 * (stream_factor / cfg.mlp);
    }
}

/// An L1D miss filled from `fill`. Writes drain through the store
/// buffer, mostly hidden; `stream_factor` is what the prefetcher leaves
/// of a data record's stall (1 for function-local data).
#[inline]
pub(crate) fn account_data_miss(
    be: &mut BeMem,
    cfg: &HostConfig,
    fill: Fill,
    write: bool,
    stream_factor: f64,
) {
    let factor = if write { 0.15 } else { 1.0 };
    let cycles = fill_latency(cfg, fill) as f64 * factor * stream_factor / cfg.mlp;
    match fill {
        Fill::L2 => be.l2 += cycles,
        Fill::Llc => be.llc += cycles,
        Fill::Dram => be.dram += cycles,
    }
}

/// The hardware stride prefetcher over data records. It hides most of
/// the cost of forward-sequential streams: the paper's Sec. IV-A notes
/// gem5's "predictable data cache accesses ... efficiently captured by
/// the hardware prefetchers".
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prefetcher {
    last_line: u64,
}

impl Prefetcher {
    pub(crate) fn new() -> Self {
        Prefetcher {
            last_line: u64::MAX - 8,
        }
    }

    /// The share of the stalls of a data record starting in line number
    /// `line` that the prefetcher leaves exposed.
    #[inline]
    pub(crate) fn stream_factor(&mut self, cfg: &HostConfig, line: u64) -> f64 {
        let delta = line.wrapping_sub(self.last_line);
        // Covers same-line and small forward strides.
        let prefetched = delta <= 4;
        self.last_line = line;
        if prefetched {
            cfg.prefetch_factor
        } else {
            1.0
        }
    }
}

/// The engine. Implements [`TraceSink`]; feed it a stream, then call
/// [`finish`](HostEngine::finish).
#[derive(Debug)]
pub struct HostEngine {
    cfg: HostConfig,
    reg: Arc<Registry>,
    l1i: HostCache,
    l1d: HostCache,
    l2: HostCache,
    llc: HostCache,
    itlb: HostTlb,
    dtlb: HostTlb,
    bp: HostBranchPredictor,
    dsb: Dsb,
    td: TopDown,
    uops: u64,
    dram_bytes: u64,
    records: u64,
    prefetch: Prefetcher,
    line_shift: u32,
    page_shift: u32,
}

impl HostEngine {
    /// Builds an engine for `cfg` over the binary model `reg`.
    pub fn new(cfg: HostConfig, reg: Arc<Registry>) -> Self {
        cfg.validate();
        HostEngine {
            l1i: HostCache::new(cfg.l1i, cfg.line),
            l1d: HostCache::new(cfg.l1d, cfg.line),
            l2: HostCache::new(cfg.l2, cfg.line),
            llc: HostCache::new(cfg.llc, cfg.line),
            itlb: HostTlb::new(cfg.itlb_entries, cfg.stlb_entries),
            dtlb: HostTlb::new(cfg.dtlb_entries, cfg.stlb_entries),
            bp: HostBranchPredictor::new(cfg.bp_bits, cfg.btb_entries),
            dsb: Dsb::new(cfg.dsb_uops),
            td: TopDown::default(),
            uops: 0,
            dram_bytes: 0,
            records: 0,
            prefetch: Prefetcher::new(),
            line_shift: cfg.line.trailing_zeros(),
            page_shift: cfg.page.trailing_zeros(),
            cfg,
            reg,
        }
    }

    /// The configuration this engine models.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Fills a line through L2 → LLC → DRAM; returns where it came from.
    #[inline]
    fn fill(&mut self, line: u64) -> Fill {
        if self.l2.access(line) {
            Fill::L2
        } else if self.llc.access(line) {
            Fill::Llc
        } else {
            self.dram_bytes += self.cfg.line;
            Fill::Dram
        }
    }

    /// Generates the outcome of dynamic conditional branch number `k` at a
    /// site with the given taken bias, returning `(outcome, period)`:
    /// well-biased sites behave like loop back-edges (periodic exits,
    /// `period = Some(..)`), low-bias sites are data-dependent
    /// (`period = None`).
    #[inline]
    pub(crate) fn branch_outcome(site: u64, taken_rate: u8, k: u64) -> (bool, Option<u64>) {
        if taken_rate >= 86 {
            let period = 64 + (taken_rate as u64 - 85) * 40 + (mix64(site) % 64);
            ((k + site) % period != 0, Some(period))
        } else {
            ((mix2(site, k) % 100) < taken_rate as u64, None)
        }
    }

    /// Consumes the engine and produces final statistics.
    pub fn finish(self) -> HostRunStats {
        let insts = self.uops as f64 / self.cfg.uops_per_inst;
        HostRunStats {
            name: self.cfg.name.clone(),
            cycles: self.td.total_cycles(),
            uops: self.uops,
            instructions: insts,
            freq_ghz: self.cfg.freq_ghz,
            topdown: self.td,
            l1i_accesses: self.l1i.accesses,
            l1i_miss_rate: self.l1i.miss_rate(),
            l1d_accesses: self.l1d.accesses,
            l1d_miss_rate: self.l1d.miss_rate(),
            itlb_miss_rate: self.itlb.miss_rate(),
            dtlb_miss_rate: self.dtlb.miss_rate(),
            branch_lookups: self.bp.cond_lookups,
            branch_mispredict_rate: self.bp.mispredict_rate(),
            unknown_branches: self.bp.unknown_branches,
            dsb_coverage: self.dsb.coverage(),
            llc_occupancy_bytes: self.llc.occupancy_bytes(),
            dram_bytes: self.dram_bytes,
            records: self.records,
        }
    }
}

impl TraceSink for HostEngine {
    fn exec(&mut self, r: ExecRecord) {
        self.records += 1;
        let f = Fetch::of(&self.reg, &r, self.cfg.bytes_per_uop);
        let (addr, end) = (f.start, f.end);
        let uops = r.uops as u64;
        self.uops += uops;

        // --- Instruction fetch: line touches over the executed span. ---
        let line_mask = !(self.cfg.line - 1);
        let mut line = addr & line_mask;
        let mut fetch_pen = 0;
        while line < end {
            if !self.l1i.access(line) {
                let fill = self.fill(line);
                fetch_pen += fill_latency(&self.cfg, fill);
            }
            line += self.cfg.line;
        }
        account_icache(&mut self.td.fe_latency.icache, &self.cfg, fetch_pen);

        // --- iTLB over the touched pages (huge-page aware). ---
        let page = self.cfg.page;
        let mut paddr = addr & !(page - 1);
        let mut itlb_pen = 0;
        let mut last_pid = u64::MAX;
        while paddr < end {
            let pid = self.reg.layout().page_id(paddr, page);
            if pid != last_pid {
                last_pid = pid;
                itlb_pen += tlb_latency(&self.cfg, self.itlb.access(pid));
            }
            paddr += page;
        }
        account_itlb(&mut self.td, itlb_pen);

        // --- µop cache: the fraction of the record's fetch windows it
        //     serves. ---
        let (wstart, n_windows) = f.windows();
        let uops_per_window = (uops / n_windows).max(1);
        let mut hits = 0u64;
        let mut w = wstart;
        while w < end {
            if self.dsb.fetch_window(w, uops_per_window) {
                hits += 1;
            }
            w += WINDOW;
        }
        let dsb_frac = if self.dsb.present() {
            hits as f64 / n_windows as f64
        } else {
            0.0
        };

        // --- Conditional branches. ---
        let n_cond = r.cond_branches as u64;
        for j in 0..n_cond {
            let site = f.cond_site(j);
            let k = r.variant as u64 * n_cond + j;
            let (outcome, period) = Self::branch_outcome(site, f.taken_rate, k);
            // Loop-termination predictors (TAGE-style long history)
            // capture periodic exits up to the machine's reach.
            let loop_covered = period.is_some_and(|p| p <= self.cfg.loop_reach);
            match self.bp.cond_branch(site, outcome, loop_covered) {
                (true, _) => account_mispredict(&mut self.td, &self.cfg),
                (false, true) => account_unknown_cond(&mut self.td, &self.cfg),
                (false, false) => {}
            }
        }

        // --- Indirect branches (virtual dispatch). ---
        for j in 0..r.indirect_branches as u64 {
            let site = f.indirect_site(j);
            if self
                .bp
                .indirect_branch(site, Fetch::indirect_target(site, r.variant))
            {
                account_unknown_indirect(&mut self.td, &self.cfg);
            }
        }

        account_exec(&mut self.td, &self.cfg, &r, dsb_frac);

        // --- Function-local data: mostly stack (hot, tiny), with every
        //     fourth load reaching the heap — SimObject fields scattered by
        //     the allocator over ~1.5 MB of pages. The heap lines are hot
        //     (revisited each invocation) but the *pages* are many: this
        //     is what pressures the dTLB without pressuring DRAM, as the
        //     paper observes. ---
        let fid = r.func.0 as u64;
        for j in 0..r.loads as u64 {
            let a = local_load_addr(fid, j);
            if is_heap_load(j) {
                let tlb = self.dtlb.access(a >> self.page_shift);
                account_load_dtlb(&mut self.td.be_mem, &self.cfg, tlb);
            }
            if !self.l1d.access(a) {
                let fill = self.fill(a & line_mask);
                account_data_miss(&mut self.td.be_mem, &self.cfg, fill, false, 1.0);
            }
        }
        for j in 0..r.stores as u64 {
            let a = local_store_addr(fid, j);
            if !self.l1d.access(a) {
                let fill = self.fill(a & line_mask);
                account_data_miss(&mut self.td.be_mem, &self.cfg, fill, true, 1.0);
            }
        }
    }

    fn data(&mut self, d: DataRef) {
        let stream_factor = self
            .prefetch
            .stream_factor(&self.cfg, d.addr >> self.line_shift);
        let tlb = self.dtlb.access(d.addr >> self.page_shift);
        account_data_dtlb(&mut self.td.be_mem, &self.cfg, tlb, stream_factor);
        let mut line = d.addr & !(self.cfg.line - 1);
        let end = d.addr + d.bytes as u64;
        while line < end {
            if !self.l1d.access(line) {
                let fill = self.fill(line);
                account_data_miss(&mut self.td.be_mem, &self.cfg, fill, d.write, stream_factor);
            }
            line += self.cfg.line;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeom;
    use hosttrace::layout::PageBacking;
    use hosttrace::registry::{BinaryVariant, FunctionId};

    fn cfg() -> HostConfig {
        HostConfig {
            name: "test".into(),
            width: 4,
            mite_width: 2.6,
            dsb_width: 6.0,
            dsb_uops: 1536,
            freq_ghz: 3.0,
            line: 64,
            page: 4096,
            l1i: CacheGeom::kib(32, 8),
            l1d: CacheGeom::kib(32, 8),
            l2: CacheGeom::mib(1, 16),
            llc: CacheGeom::mib(8, 16),
            l2_lat: 14,
            llc_lat: 44,
            dram_lat: 280,
            itlb_entries: 128,
            dtlb_entries: 64,
            stlb_entries: 1536,
            stlb_lat: 8,
            walk_lat: 35,
            bp_bits: 13,
            btb_entries: 4096,
            mispredict_penalty: 17,
            resteer_cycles: 9,
            loop_reach: 48,
            bytes_per_uop: 3.6,
            uops_per_inst: 1.1,
            mlp: 3.0,
            fetch_mlp: 2.0,
            prefetch_factor: 0.08,
        }
    }

    fn registry() -> Arc<Registry> {
        Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base))
    }

    fn rec(func: u32, uops: u16, variant: u32) -> ExecRecord {
        ExecRecord {
            func: FunctionId(func),
            uops,
            cond_branches: 3,
            indirect_branches: 1,
            loads: 4,
            stores: 2,
            variant,
        }
    }

    #[test]
    fn accounting_is_conserved() {
        let mut e = HostEngine::new(cfg(), registry());
        for i in 0..5000u32 {
            e.exec(rec(i % 4000, 20, i / 4000));
            e.data(DataRef {
                addr: 0x10_0000_0000 + (i as u64 * 192) % 65536,
                bytes: 64,
                write: i % 3 == 0,
            });
        }
        let s = e.finish();
        let (r, f, b, be) = s.topdown.level1_pct();
        assert!((r + f + b + be - 100.0).abs() < 1e-6, "{r} {f} {b} {be}");
        assert!(s.cycles > 0.0);
        assert!(s.ipc() > 0.0);
    }

    #[test]
    fn scattered_code_is_front_end_bound_hot_loop_is_not() {
        let reg = registry();
        // Hot loop: one small function repeatedly.
        let mut hot = HostEngine::new(cfg(), Arc::clone(&reg));
        for i in 0..20000u32 {
            hot.exec(rec(100, 24, i));
        }
        let hot_s = hot.finish();

        // Scattered: thousands of different functions.
        let mut cold = HostEngine::new(cfg(), Arc::clone(&reg));
        for i in 0..20000u32 {
            cold.exec(rec(i % 5000, 24, i / 5000));
        }
        let cold_s = cold.finish();

        let (_, hot_fe, _, _) = hot_s.topdown.level1_pct();
        let (_, cold_fe, _, _) = cold_s.topdown.level1_pct();
        assert!(
            cold_fe > 2.0 * hot_fe.max(1.0),
            "cold {cold_fe:.1}% vs hot {hot_fe:.1}%"
        );
        assert!(cold_s.dsb_coverage < 0.3);
        assert!(hot_s.dsb_coverage > 0.8);
        assert!(cold_s.itlb_miss_rate > hot_s.itlb_miss_rate);
    }

    #[test]
    fn bigger_l1i_reduces_icache_stalls() {
        let reg = registry();
        let run = |l1i_kib: u64| {
            let mut c = cfg();
            c.l1i = CacheGeom::kib(l1i_kib, 8);
            let mut e = HostEngine::new(c, Arc::clone(&reg));
            // Skewed random function selection (as real call profiles
            // are), not a cyclic sweep that would defeat LRU entirely:
            // 95% of calls hit a hot set of 150 functions (~100 KB of
            // code: beyond 8 KB, within 192 KB). Enough records that the
            // cold tail's compulsory DRAM fetches amortize.
            for i in 0..120_000u64 {
                let h = mix64(i);
                let f = if h % 20 != 0 {
                    h % 150
                } else {
                    150 + mix64(h) % 2350
                };
                e.exec(rec(f as u32, 24, (i / 150) as u32));
            }
            e.finish()
        };
        let small = run(8);
        let large = run(192);
        // Compulsory misses on the cold tail hit both configurations
        // equally; the capacity effect shows in the miss *rate* and in
        // total cycles.
        assert!(
            small.l1i_miss_rate > 2.0 * large.l1i_miss_rate,
            "small {} vs large {}",
            small.l1i_miss_rate,
            large.l1i_miss_rate
        );
        assert!(small.topdown.fe_latency.icache > 1.5 * large.topdown.fe_latency.icache);
        assert!(small.cycles > large.cycles);
    }

    #[test]
    fn larger_pages_reduce_itlb_stalls() {
        let reg = registry();
        let run = |page: u64| {
            let mut c = cfg();
            c.page = page;
            let mut e = HostEngine::new(c, Arc::clone(&reg));
            for i in 0..30000u32 {
                e.exec(rec(i % 2500, 24, i / 2500));
            }
            e.finish()
        };
        let p4k = run(4096);
        let p16k = run(16384);
        assert!(
            p16k.topdown.fe_latency.itlb < p4k.topdown.fe_latency.itlb,
            "16k {} vs 4k {}",
            p16k.topdown.fe_latency.itlb,
            p4k.topdown.fe_latency.itlb
        );
    }

    #[test]
    fn huge_page_backing_reduces_itlb_stalls() {
        let run = |backing: PageBacking| {
            let reg = Arc::new(Registry::new(BinaryVariant::Base, backing));
            let mut e = HostEngine::new(cfg(), reg);
            for i in 0..30000u32 {
                e.exec(rec(i % 2500, 24, i / 2500));
            }
            e.finish()
        };
        let base = run(PageBacking::Base);
        let thp = run(PageBacking::thp());
        let ehp = run(PageBacking::Ehp);
        assert!(thp.topdown.fe_latency.itlb < base.topdown.fe_latency.itlb * 0.6);
        assert!(ehp.topdown.fe_latency.itlb <= thp.topdown.fe_latency.itlb);
    }

    #[test]
    fn sim_state_working_set_shows_in_llc_not_dram() {
        let mut e = HostEngine::new(cfg(), registry());
        // A 1 MB simulated-state working set, touched repeatedly.
        for round in 0..20u64 {
            for off in (0..1_048_576u64).step_by(64) {
                e.data(DataRef {
                    addr: 0x10_0000_0000 + off,
                    bytes: 32,
                    write: round % 4 == 0,
                });
            }
        }
        let s = e.finish();
        assert!(s.llc_occupancy_bytes > 512 * 1024);
        // After warmup, DRAM traffic is only the initial fills (1 MB),
        // not the 20 MB of repeated touches.
        assert!(
            (s.dram_bytes as f64) < 0.15 * (20.0 * 1_048_576.0),
            "dram {}",
            s.dram_bytes
        );
    }

    #[test]
    fn branch_outcomes_are_mostly_predictable_for_biased_sites() {
        let mut e = HostEngine::new(cfg(), registry());
        for i in 0..50000u32 {
            e.exec(rec(200, 24, i));
        }
        let s = e.finish();
        assert!(
            s.branch_mispredict_rate < 0.05,
            "{}",
            s.branch_mispredict_rate
        );
        assert!(s.branch_lookups > 100_000);
    }
}
