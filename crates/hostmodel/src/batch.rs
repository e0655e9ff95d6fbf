//! Many host setups over one stream, each distinct structure simulated
//! once.
//!
//! A [`HostBatch`] evaluates a list of setups (a [`HostConfig`] plus the
//! binary model it runs) on one host stream. Its results are
//! bit-identical to one [`HostEngine`](crate::HostEngine) per setup fed
//! the same stream. The planner keys each structure by the parameters
//! that shape its state and simulates each distinct one once:
//!
//! | structure      | key                                              |
//! |----------------|--------------------------------------------------|
//! | fetch ranges   | binary, `bytes_per_uop`                          |
//! | L1I            | fetch key, line, set count                       |
//! | iTLB           | fetch key, page backing, page, entries, STLB     |
//! | DSB            | fetch key, `dsb_uops`                            |
//! | predictor      | fetch key, `bp_bits`, BTB, `loop_reach`          |
//! | L1D            | line, set count                                  |
//! | dTLB           | page, entries, STLB                              |
//! | L2             | L1I key and ways, L1D key and ways, geometry     |
//! | LLC            | L2 key, geometry                                 |
//!
//! Latencies, widths, MLP and prefetch factors change only the
//! accounting, never a structure's state.
//!
//! The batch buffers [`SUB_EVENTS`] events at a time. Each structure in
//! front of L2 runs over them once and writes compact per-record
//! [`Outcomes`]: stack distances per L1 access, TLB results, DSB hits,
//! and mispredicted/unknown branches. An L1 key runs as one LRU stack
//! pass per set (Mattson et al. 1970): a setup with `a` ways hits exactly
//! when a line's stack distance is below `a`, so every associativity of
//! one set count costs one pass.
//!
//! Behind them, L2 and LLC see only their upstream miss streams, and the
//! Top-Down accounting walks the outcomes in record order with each
//! setup's own latencies, in two parts. The core part (retiring, decode,
//! branch, iTLB and core buckets) depends only on core parameters and is
//! shared by setups that differ only in their caches; the memory part
//! (iCache and back-end memory buckets) is shared by setups that differ
//! only in their core. Both call the engine's Top-Down rules, making the
//! same f64 additions to each bucket in the same order as `HostEngine`,
//! so the sums agree to the bit. A memory part that is the only user of
//! its L2 and of that L2's one LLC fills them inline as it walks, instead
//! of reading the fill levels an L2 pass and an LLC pass wrote; on fig14's
//! seven setups that saves about a fifth of the batch's time. Equal
//! setups are accounted once, and a batch of one distinct setup is a
//! plain engine. Everything runs on the thread that feeds the batch.

use crate::branch::HostBranchPredictor;
use crate::cache::{HostCache, SetIndex};
use crate::config::{CacheGeom, HostConfig};
use crate::dsb::{Dsb, WINDOW};
use crate::engine::{
    account_data_dtlb, account_data_miss, account_exec, account_icache, account_itlb,
    account_load_dtlb, account_mispredict, account_unknown_cond, account_unknown_indirect,
    fill_latency, is_heap_load, local_loads, local_stores, predict_cond, Fetch, Fill, HostEngine,
    Prefetcher,
};
use crate::stats::HostRunStats;
use crate::tlb::{HostTlb, TlbResult};
use crate::topdown::{BeMem, TopDown};
use hosttrace::record::{DataRef, ExecRecord, TraceEvent, TraceSink};
use hosttrace::{BinaryVariant, PageBacking, Registry};
use std::sync::Arc;

/// Events per pass: 2,048 events, 48 KiB. The outcome scratch scales
/// with it (a few hundred KiB per pass on gem5 streams), so it stays
/// cache-resident instead of spanning a whole `feed` chunk.
pub const SUB_EVENTS: usize = 1 << 11;

/// An empty stack slot. Tags are line numbers, so no real tag reaches it.
const EMPTY: u64 = u64::MAX;

/// Exec records of `events`, in order.
fn execs(events: &[TraceEvent]) -> impl Iterator<Item = &ExecRecord> {
    events.iter().filter_map(|ev| match ev {
        TraceEvent::Exec(r) => Some(r),
        TraceEvent::Data(_) => None,
    })
}

/// Calls `f` on each line of `[start, end)`, as the engine walks them.
#[inline]
fn for_lines(start: u64, end: u64, line: u64, mut f: impl FnMut(u64)) {
    let mut l = start & !(line - 1);
    while l < end {
        f(l);
        l += line;
    }
}

/// How many lines `for_lines` visits.
#[inline]
fn lines_in(start: u64, end: u64, line: u64) -> usize {
    let first = start & !(line - 1);
    if end > first {
        ((end - first + line - 1) >> line.trailing_zeros()) as usize
    } else {
        0
    }
}

/// Index of the node whose key is `key`, adding `make()` if there is none.
fn intern<N, K: PartialEq>(
    nodes: &mut Vec<N>,
    key: K,
    key_of: impl Fn(&N) -> K,
    make: impl FnOnce() -> N,
) -> usize {
    if let Some(i) = nodes.iter().position(|n| key_of(n) == key) {
        return i;
    }
    nodes.push(make());
    nodes.len() - 1
}

/// One pass's events and what the shared structures made of them, per
/// node in plan order. Reused pass after pass.
#[derive(Debug, Default)]
struct Outcomes {
    events: Vec<TraceEvent>,
    /// Function-local load and store addresses per exec record: the same
    /// for every setup.
    locals: Vec<u64>,
    /// Fetch ranges per exec record.
    fetch: Vec<Vec<Fetch>>,
    l1i: Vec<Dists>,
    l1d: Vec<Dists>,
    /// (STLB hits, walks) per exec record.
    itlb: Vec<Vec<[u16; 2]>>,
    /// Windows served from the µop cache, per exec record.
    dsb: Vec<Vec<u16>>,
    /// (mispredicted, unknown conditional, unknown indirect) per exec
    /// record.
    bp: Vec<Vec<[u8; 3]>>,
    dtlb: Vec<TlbResults>,
}

/// An L1 stack pass's outcomes.
#[derive(Debug, Default)]
struct Dists {
    /// Stack distance per access; the stack's depth means deeper.
    dist: Vec<u8>,
    /// Largest distance per record (per exec record for an L1I, per event
    /// for an L1D; 0 without accesses): a setup whose ways exceed it
    /// hits on every access of the record, and skips it.
    rec_max: Vec<u8>,
}

/// A dTLB's outcomes.
#[derive(Debug, Default)]
struct TlbResults {
    /// Per lookup, in program order: each heap load's, and one per data
    /// record.
    results: Vec<TlbResult>,
    /// Per event: whether any of its lookups missed the first level.
    rec_miss: Vec<bool>,
}

/// Fetch ranges of one binary at one `bytes_per_uop`.
#[derive(Debug)]
struct FetchNode {
    key: (BinaryVariant, u64),
    reg: Arc<Registry>,
    bytes_per_uop: f64,
}

/// Every associativity of one L1 set count in one pass: per set, the
/// most recently used lines first, as deep as the largest associativity
/// asked for.
#[derive(Debug)]
struct Stack {
    /// (fetch node for an L1I, 0 for an L1D; line; sets).
    key: (usize, u64, u64),
    index: SetIndex,
    depth: usize,
    tags: Vec<u64>,
}

impl Stack {
    fn new(key: (usize, u64, u64)) -> Self {
        Stack {
            key,
            index: SetIndex::new(key.1, key.2),
            depth: 0,
            tags: Vec::new(),
        }
    }

    fn line(&self) -> u64 {
        self.key.1
    }

    /// Moves the line holding `addr` to the top of its set's stack,
    /// records its distance before the move in `out`, and returns it.
    #[inline]
    fn access(&mut self, addr: u64, out: &mut Vec<u8>) -> u8 {
        let (set, tag) = self.index.split(addr);
        let row = &mut self.tags[set * self.depth..(set + 1) * self.depth];
        let mut d = self.depth;
        if row[0] == tag {
            d = 0;
        } else {
            // Shift down until the tag's old slot (or off the bottom).
            let mut prev = std::mem::replace(&mut row[0], tag);
            for (k, slot) in row.iter_mut().enumerate().skip(1) {
                let cur = std::mem::replace(slot, prev);
                if cur == tag {
                    d = k;
                    break;
                }
                prev = cur;
            }
        }
        out.push(d as u8);
        d as u8
    }
}

#[derive(Debug)]
struct ItlbNode {
    key: (usize, PageBacking, u64, u64, u64),
    /// A binary model with this node's page backing.
    reg: Arc<Registry>,
    tlb: HostTlb,
}

#[derive(Debug)]
struct DsbNode {
    key: (usize, u64),
    dsb: Dsb,
}

#[derive(Debug)]
struct BpNode {
    key: (usize, u32, u64, u64),
    bp: HostBranchPredictor,
}

#[derive(Debug)]
struct DtlbNode {
    key: (u64, u64, u64),
    tlb: HostTlb,
}

/// The shared structures in front of L2.
#[derive(Debug, Default)]
struct Nodes {
    fetch: Vec<FetchNode>,
    l1i: Vec<Stack>,
    l1d: Vec<Stack>,
    itlb: Vec<ItlbNode>,
    dsb: Vec<DsbNode>,
    bp: Vec<BpNode>,
    dtlb: Vec<DtlbNode>,
}

impl Nodes {
    /// Empty outcomes, one slot per node.
    fn outcomes(&self) -> Outcomes {
        fn slots<T: Default>(n: usize) -> Vec<T> {
            (0..n).map(|_| T::default()).collect()
        }
        Outcomes {
            events: Vec::with_capacity(SUB_EVENTS),
            locals: Vec::new(),
            fetch: slots(self.fetch.len()),
            l1i: slots(self.l1i.len()),
            l1d: slots(self.l1d.len()),
            itlb: slots(self.itlb.len()),
            dsb: slots(self.dsb.len()),
            bp: slots(self.bp.len()),
            dtlb: slots(self.dtlb.len()),
        }
    }

    /// Runs every structure over `o.events`, in dependency order, and
    /// writes their outcomes to `o`.
    fn run(&mut self, o: &mut Outcomes) {
        let events = &o.events;
        o.locals.clear();
        for r in execs(events) {
            let fid = r.func.0 as u64;
            o.locals.extend(local_loads(fid, r.loads));
            o.locals.extend(local_stores(fid, r.stores));
        }
        for (n, out) in self.fetch.iter().zip(&mut o.fetch) {
            out.clear();
            out.extend(execs(events).map(|r| Fetch::of(&n.reg, r, n.bytes_per_uop)));
        }
        for (s, out) in self.l1i.iter_mut().zip(&mut o.l1i) {
            out.dist.clear();
            out.rec_max.clear();
            let line = s.line();
            for f in &o.fetch[s.key.0] {
                let mut max = 0;
                for_lines(f.start, f.end, line, |l| {
                    max = max.max(s.access(l, &mut out.dist));
                });
                out.rec_max.push(max);
            }
        }
        for (s, out) in self.l1d.iter_mut().zip(&mut o.l1d) {
            out.dist.clear();
            out.rec_max.clear();
            let line = s.line();
            let mut li = 0;
            for ev in events {
                let mut max = 0;
                match ev {
                    TraceEvent::Exec(r) => {
                        let count = r.loads as usize + r.stores as usize;
                        for &a in &o.locals[li..li + count] {
                            max = max.max(s.access(a, &mut out.dist));
                        }
                        li += count;
                    }
                    TraceEvent::Data(d) => {
                        let end = d.addr + d.bytes as u64;
                        for_lines(d.addr, end, line, |l| {
                            max = max.max(s.access(l, &mut out.dist));
                        });
                    }
                }
                out.rec_max.push(max);
            }
        }
        for (n, out) in self.itlb.iter_mut().zip(&mut o.itlb) {
            out.clear();
            let layout = n.reg.layout();
            let page = n.key.2;
            for f in &o.fetch[n.key.0] {
                let mut counts = [0u16; 2];
                let mut last_pid = u64::MAX;
                let mut paddr = f.start & !(page - 1);
                while paddr < f.end {
                    let pid = layout.page_id(paddr, page);
                    if pid != last_pid {
                        last_pid = pid;
                        match n.tlb.access(pid) {
                            TlbResult::L1Hit => {}
                            TlbResult::StlbHit => counts[0] += 1,
                            TlbResult::Walk => counts[1] += 1,
                        }
                    }
                    paddr += page;
                }
                out.push(counts);
            }
        }
        for (n, out) in self.dsb.iter_mut().zip(&mut o.dsb) {
            out.clear();
            for (r, f) in execs(events).zip(&o.fetch[n.key.0]) {
                let (wstart, n_windows) = f.windows();
                let uops_per_window = (r.uops as u64 / n_windows).max(1);
                let mut hits = 0u16;
                let mut w = wstart;
                while w < f.end {
                    if n.dsb.fetch_window(w, uops_per_window) {
                        hits += 1;
                    }
                    w += WINDOW;
                }
                out.push(hits);
            }
        }
        for (n, out) in self.bp.iter_mut().zip(&mut o.bp) {
            out.clear();
            let loop_reach = n.key.3;
            for (r, f) in execs(events).zip(&o.fetch[n.key.0]) {
                let mut counts = [0u8; 3];
                let k0 = r.variant as u64 * r.cond_branches as u64;
                for (k, site) in (k0..).zip(f.cond_sites(r.cond_branches)) {
                    match predict_cond(&mut n.bp, site, f.taken_rate, k, loop_reach) {
                        (true, _) => counts[0] += 1,
                        (false, true) => counts[1] += 1,
                        (false, false) => {}
                    }
                }
                for j in 0..r.indirect_branches as u64 {
                    let site = f.indirect_site(j);
                    if n.bp
                        .indirect_branch(site, Fetch::indirect_target(site, r.variant))
                    {
                        counts[2] += 1;
                    }
                }
                out.push(counts);
            }
        }
        for (n, out) in self.dtlb.iter_mut().zip(&mut o.dtlb) {
            out.results.clear();
            out.rec_miss.clear();
            let shift = n.key.0.trailing_zeros();
            let mut li = 0;
            for ev in events {
                let misses = n.tlb.l1_misses;
                match ev {
                    TraceEvent::Exec(r) => {
                        for j in 0..r.loads as u64 {
                            if is_heap_load(j) {
                                let pid = o.locals[li + j as usize] >> shift;
                                out.results.push(n.tlb.access(pid));
                            }
                        }
                        li += r.loads as usize + r.stores as usize;
                    }
                    TraceEvent::Data(d) => {
                        out.results.push(n.tlb.access(d.addr >> shift));
                    }
                }
                out.rec_miss.push(n.tlb.l1_misses > misses);
            }
        }
    }
}

#[derive(Debug)]
struct L2Node {
    /// (L1I node, its ways, L1D node, its ways, geometry).
    key: (usize, u8, usize, u8, CacheGeom),
    /// The L1I's fetch node.
    fetch: usize,
    line: u64,
    cache: HostCache,
    /// Filled inline, with its one LLC, by the one memory accounting
    /// behind them.
    fused: bool,
    /// Per L1 miss in program order: whether L2 held the line.
    hits: Vec<bool>,
    /// The lines L2 missed, for the LLC.
    miss_lines: Vec<u64>,
}

impl L2Node {
    /// Runs the L1 miss stream of this node's L1 pair through L2.
    fn run(&mut self, o: &Outcomes) {
        self.hits.clear();
        self.miss_lines.clear();
        let (l1i, l1d) = (&o.l1i[self.key.0], &o.l1d[self.key.2]);
        let (iways, dways) = (self.key.1, self.key.3);
        let line = self.line;
        let mask = !(line - 1);
        let (cache, hits, miss_lines) = (&mut self.cache, &mut self.hits, &mut self.miss_lines);
        let mut fill = |l: u64| {
            let hit = cache.access(l);
            hits.push(hit);
            if !hit {
                miss_lines.push(l);
            }
        };
        let fetch = &o.fetch[self.fetch];
        let (mut e, mut ii, mut id, mut li) = (0, 0, 0, 0);
        for (k, ev) in o.events.iter().enumerate() {
            match ev {
                TraceEvent::Exec(r) => {
                    let f = &fetch[e];
                    if l1i.rec_max[e] >= iways {
                        let mut i = ii;
                        for_lines(f.start, f.end, line, |l| {
                            if l1i.dist[i] >= iways {
                                fill(l);
                            }
                            i += 1;
                        });
                    }
                    ii += lines_in(f.start, f.end, line);
                    e += 1;
                    let count = r.loads as usize + r.stores as usize;
                    if l1d.rec_max[k] >= dways {
                        let dist = &l1d.dist[id..id + count];
                        for (&a, &d) in o.locals[li..li + count].iter().zip(dist) {
                            if d >= dways {
                                fill(a & mask);
                            }
                        }
                    }
                    id += count;
                    li += count;
                }
                TraceEvent::Data(d) => {
                    let end = d.addr + d.bytes as u64;
                    if l1d.rec_max[k] >= dways {
                        let mut i = id;
                        for_lines(d.addr, end, line, |l| {
                            if l1d.dist[i] >= dways {
                                fill(l);
                            }
                            i += 1;
                        });
                    }
                    id += lines_in(d.addr, end, line);
                }
            }
        }
    }
}

#[derive(Debug)]
struct LlcNode {
    key: (usize, CacheGeom),
    cache: HostCache,
    /// Fill level per L1 miss in program order.
    levels: Vec<Fill>,
}

impl LlcNode {
    fn run(&mut self, l2: &L2Node) {
        self.levels.clear();
        let mut misses = l2.miss_lines.iter();
        for &hit in &l2.hits {
            self.levels.push(if hit {
                Fill::L2
            } else if self
                .cache
                .access(*misses.next().expect("one line per L2 miss"))
            {
                Fill::Llc
            } else {
                Fill::Dram
            });
        }
    }
}

/// The core part of the accounting: every Top-Down bucket but the iCache
/// and back-end memory ones. A bucket's value depends only on the
/// additions made to it, so setups that share these inputs share it.
#[derive(Debug)]
struct Core {
    /// (fetch, iTLB, DSB, predictor, [width, MITE width, DSB width, STLB
    /// latency, walk latency, mispredict penalty, resteer cycles]).
    key: (usize, usize, Option<usize>, usize, [u64; 7]),
    cfg: HostConfig,
    td: TopDown,
    uops: u64,
    records: u64,
}

impl Core {
    fn account(&mut self, o: &Outcomes) {
        let (fetch, itlb, dsb, bp) = (self.key.0, self.key.1, self.key.2, self.key.3);
        let fetch = &o.fetch[fetch];
        let itlb = &o.itlb[itlb];
        let dsb = dsb.map(|i| &o.dsb[i]);
        let bp = &o.bp[bp];
        let (c, td) = (&self.cfg, &mut self.td);
        for (e, r) in execs(&o.events).enumerate() {
            self.records += 1;
            self.uops += r.uops as u64;
            let [stlb_hits, walks] = itlb[e];
            account_itlb(
                td,
                stlb_hits as u64 * c.stlb_lat + walks as u64 * c.walk_lat,
            );
            let dsb_frac = match dsb {
                Some(hits) => hits[e] as f64 / fetch[e].windows().1 as f64,
                None => 0.0,
            };
            let [mispredicts, unknown, unknown_indirect] = bp[e];
            for _ in 0..mispredicts {
                account_mispredict(td, c);
            }
            for _ in 0..unknown {
                account_unknown_cond(td, c);
            }
            for _ in 0..unknown_indirect {
                account_unknown_indirect(td, c);
            }
            account_exec(td, c, r, dsb_frac);
        }
    }
}

/// The memory part of the accounting: the iCache and back-end memory
/// buckets, and the L1 miss counts.
#[derive(Debug)]
struct Mem {
    /// (LLC, dTLB, [L2, LLC and DRAM latency, STLB latency, walk latency,
    /// MLP, fetch MLP, prefetch factor]); the LLC key implies the L1s,
    /// their ways and the line.
    key: (usize, usize, [u64; 8]),
    cfg: HostConfig,
    fetch: usize,
    l1i: usize,
    l1d: usize,
    l1i_ways: u8,
    l1d_ways: u8,
    l2: usize,
    icache: f64,
    be_mem: BeMem,
    prefetch: Prefetcher,
    l1i_accesses: u64,
    l1i_misses: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
}

fn rate(misses: u64, accesses: u64) -> f64 {
    if accesses == 0 {
        0.0
    } else {
        misses as f64 / accesses as f64
    }
}

impl Mem {
    /// Accounts `o.events` from the outcomes: `HostEngine`'s additions, in
    /// its order. `fill(line)` gives the level that serves each L1 miss,
    /// in program order. A record whose L1 accesses and dTLB lookups all
    /// hit is skipped; the engine adds only zeros for it, which leave the
    /// (never negative) sums unchanged.
    fn account(&mut self, o: &Outcomes, mut fill: impl FnMut(u64) -> Fill) {
        let c = &self.cfg;
        let (l1i, l1d) = (&o.l1i[self.l1i], &o.l1d[self.l1d]);
        let fetch = &o.fetch[self.fetch];
        let tlb = &o.dtlb[self.key.1].results;
        let rec_tlb_miss = &o.dtlb[self.key.1].rec_miss;
        let (line, line_shift) = (c.line, c.line.trailing_zeros());
        let mask = !(line - 1);
        let (iways, dways) = (self.l1i_ways, self.l1d_ways);
        let be = &mut self.be_mem;
        let (mut e, mut ii, mut id, mut it, mut li) = (0, 0, 0, 0, 0);
        let (mut imiss, mut dmiss) = (0, 0);
        for (k, ev) in o.events.iter().enumerate() {
            match ev {
                TraceEvent::Exec(r) => {
                    let f = &fetch[e];
                    if l1i.rec_max[e] >= iways {
                        let mut fetch_pen = 0;
                        let mut i = ii;
                        for_lines(f.start, f.end, line, |l| {
                            if l1i.dist[i] >= iways {
                                imiss += 1;
                                fetch_pen += fill_latency(c, fill(l));
                            }
                            i += 1;
                        });
                        account_icache(&mut self.icache, c, fetch_pen);
                    }
                    ii += lines_in(f.start, f.end, line);
                    e += 1;
                    let (loads, stores) = (r.loads as usize, r.stores as usize);
                    if l1d.rec_max[k] >= dways {
                        for j in 0..loads {
                            if is_heap_load(j as u64) {
                                account_load_dtlb(be, c, tlb[it]);
                                it += 1;
                            }
                            if l1d.dist[id + j] >= dways {
                                dmiss += 1;
                                let at = fill(o.locals[li + j] & mask);
                                account_data_miss(be, c, at, false, 1.0);
                            }
                        }
                        for j in loads..loads + stores {
                            if l1d.dist[id + j] >= dways {
                                dmiss += 1;
                                let at = fill(o.locals[li + j] & mask);
                                account_data_miss(be, c, at, true, 1.0);
                            }
                        }
                    } else {
                        // No L1D miss: only the heap loads' dTLB stalls.
                        if rec_tlb_miss[k] {
                            for &r in &tlb[it..it + loads / 4] {
                                account_load_dtlb(be, c, r);
                            }
                        }
                        it += loads / 4;
                    }
                    id += loads + stores;
                    li += loads + stores;
                }
                TraceEvent::Data(d) => {
                    let stream_factor = self.prefetch.stream_factor(c, d.addr >> line_shift);
                    account_data_dtlb(be, c, tlb[it], stream_factor);
                    it += 1;
                    let end = d.addr + d.bytes as u64;
                    if l1d.rec_max[k] >= dways {
                        let mut i = id;
                        for_lines(d.addr, end, line, |l| {
                            if l1d.dist[i] >= dways {
                                dmiss += 1;
                                account_data_miss(be, c, fill(l), d.write, stream_factor);
                            }
                            i += 1;
                        });
                    }
                    id += lines_in(d.addr, end, line);
                }
            }
        }
        self.l1i_accesses += ii as u64;
        self.l1i_misses += imiss;
        self.l1d_accesses += id as u64;
        self.l1d_misses += dmiss;
    }
}

/// L2, LLC and the accounting: everything behind the shared structures.
#[derive(Debug, Default)]
struct Back {
    l2: Vec<L2Node>,
    llc: Vec<LlcNode>,
    cores: Vec<Core>,
    mems: Vec<Mem>,
}

impl Back {
    /// Marks each L2 whose one LLC feeds exactly one memory accounting,
    /// so that accounting fills both inline.
    fn fuse(&mut self) {
        for (i, l2) in self.l2.iter_mut().enumerate() {
            let mut llcs = (0..self.llc.len()).filter(|&j| self.llc[j].key.0 == i);
            l2.fused = match (llcs.next(), llcs.next()) {
                (Some(j), None) => self.mems.iter().filter(|m| m.key.0 == j).count() == 1,
                _ => false,
            };
        }
    }

    fn run(&mut self, o: &Outcomes) {
        for l2 in self.l2.iter_mut().filter(|l2| !l2.fused) {
            l2.run(o);
        }
        for llc in &mut self.llc {
            let l2 = &self.l2[llc.key.0];
            if !l2.fused {
                llc.run(l2);
            }
        }
        for core in &mut self.cores {
            core.account(o);
        }
        for m in &mut self.mems {
            let (l2, llc) = (&mut self.l2[m.l2], &mut self.llc[m.key.0]);
            if l2.fused {
                let (l2, llc) = (&mut l2.cache, &mut llc.cache);
                m.account(o, |l| {
                    if l2.access(l) {
                        Fill::L2
                    } else if llc.access(l) {
                        Fill::Llc
                    } else {
                        Fill::Dram
                    }
                });
            } else {
                let mut levels = llc.levels.iter();
                m.account(o, |_| *levels.next().expect("one level per L1 miss"));
            }
        }
    }
}

/// One distinct setup: its two parts of the accounting, which lead to its
/// structures.
#[derive(Debug)]
struct Setup {
    cfg: HostConfig,
    core: usize,
    mem: usize,
}

impl Setup {
    fn stats(&self, n: &Nodes, b: &Back) -> HostRunStats {
        let (core, mem) = (&b.cores[self.core], &b.mems[self.mem]);
        let (_, itlb, dsb, bp, _) = core.key;
        let (itlb, dtlb) = (&n.itlb[itlb].tlb, &n.dtlb[mem.key.1].tlb);
        let bp = &n.bp[bp].bp;
        let llc = &b.llc[mem.key.0].cache;
        let mut topdown = core.td;
        topdown.fe_latency.icache = mem.icache;
        topdown.be_mem = mem.be_mem;
        HostRunStats {
            name: self.cfg.name.clone(),
            cycles: topdown.total_cycles(),
            uops: core.uops,
            instructions: core.uops as f64 / self.cfg.uops_per_inst,
            freq_ghz: self.cfg.freq_ghz,
            topdown,
            l1i_accesses: mem.l1i_accesses,
            l1i_miss_rate: rate(mem.l1i_misses, mem.l1i_accesses),
            l1d_accesses: mem.l1d_accesses,
            l1d_miss_rate: rate(mem.l1d_misses, mem.l1d_accesses),
            itlb_miss_rate: itlb.miss_rate(),
            dtlb_miss_rate: dtlb.miss_rate(),
            branch_lookups: bp.cond_lookups,
            branch_mispredict_rate: bp.mispredict_rate(),
            unknown_branches: bp.unknown_branches,
            dsb_coverage: dsb.map_or(0.0, |i| n.dsb[i].dsb.coverage()),
            llc_occupancy_bytes: llc.occupancy_bytes(),
            dram_bytes: llc.misses * self.cfg.line,
            records: core.records,
        }
    }
}

/// Several distinct setups: the shared structures, then what is behind
/// them.
#[derive(Debug)]
struct Factored {
    nodes: Nodes,
    back: Back,
    setups: Vec<Setup>,
    /// The pass being filled.
    pass: Outcomes,
}

impl Factored {
    fn push(&mut self, ev: TraceEvent) {
        self.pass.events.push(ev);
        if self.pass.events.len() == SUB_EVENTS {
            self.run();
        }
    }

    fn run(&mut self) {
        self.nodes.run(&mut self.pass);
        self.back.run(&self.pass);
        self.pass.events.clear();
    }

    /// Finds or adds every structure and accounting `cfg` needs.
    fn plan(&mut self, cfg: HostConfig, reg: Arc<Registry>) -> Setup {
        cfg.validate();
        let (n, b) = (&mut self.nodes, &mut self.back);
        let sets = |g: CacheGeom| g.size / (g.assoc * cfg.line);
        let ways = |g: CacheGeom| {
            u8::try_from(g.assoc)
                .ok()
                .filter(|&w| w < u8::MAX)
                .unwrap_or_else(|| panic!("{}: L1 associativity {} ≥ 255", cfg.name, g.assoc))
        };
        let (iways, dways) = (ways(cfg.l1i), ways(cfg.l1d));
        let key = (reg.variant(), cfg.bytes_per_uop.to_bits());
        let fetch = intern(
            &mut n.fetch,
            key,
            |n| n.key,
            || FetchNode {
                key,
                reg: Arc::clone(&reg),
                bytes_per_uop: cfg.bytes_per_uop,
            },
        );
        let stack = |stacks: &mut Vec<Stack>, key: (usize, u64, u64), ways: u8| {
            let i = intern(stacks, key, |s| s.key, || Stack::new(key));
            stacks[i].depth = stacks[i].depth.max(ways as usize);
            i
        };
        let l1i = stack(&mut n.l1i, (fetch, cfg.line, sets(cfg.l1i)), iways);
        let l1d = stack(&mut n.l1d, (0, cfg.line, sets(cfg.l1d)), dways);
        let key = (
            fetch,
            reg.layout().backing,
            cfg.page,
            cfg.itlb_entries,
            cfg.stlb_entries,
        );
        let itlb = intern(
            &mut n.itlb,
            key,
            |n| n.key,
            || ItlbNode {
                key,
                reg: Arc::clone(&reg),
                tlb: HostTlb::new(cfg.itlb_entries, cfg.stlb_entries),
            },
        );
        let dsb = (cfg.dsb_uops > 0).then(|| {
            let key = (fetch, cfg.dsb_uops);
            intern(
                &mut n.dsb,
                key,
                |n| n.key,
                || DsbNode {
                    key,
                    dsb: Dsb::new(cfg.dsb_uops),
                },
            )
        });
        let key = (fetch, cfg.bp_bits, cfg.btb_entries, cfg.loop_reach);
        let bp = intern(
            &mut n.bp,
            key,
            |n| n.key,
            || BpNode {
                key,
                bp: HostBranchPredictor::new(cfg.bp_bits, cfg.btb_entries),
            },
        );
        let key = (cfg.page, cfg.dtlb_entries, cfg.stlb_entries);
        let dtlb = intern(
            &mut n.dtlb,
            key,
            |n| n.key,
            || DtlbNode {
                key,
                tlb: HostTlb::new(cfg.dtlb_entries, cfg.stlb_entries),
            },
        );
        let key = (l1i, iways, l1d, dways, cfg.l2);
        let l2 = intern(
            &mut b.l2,
            key,
            |n| n.key,
            || L2Node {
                key,
                fetch,
                line: cfg.line,
                cache: HostCache::new(cfg.l2, cfg.line),
                fused: false,
                hits: Vec::new(),
                miss_lines: Vec::new(),
            },
        );
        let key = (l2, cfg.llc);
        let llc = intern(
            &mut b.llc,
            key,
            |n| n.key,
            || LlcNode {
                key,
                cache: HostCache::new(cfg.llc, cfg.line),
                levels: Vec::new(),
            },
        );
        let params = [
            cfg.width,
            cfg.mite_width.to_bits(),
            cfg.dsb_width.to_bits(),
            cfg.stlb_lat,
            cfg.walk_lat,
            cfg.mispredict_penalty,
            cfg.resteer_cycles,
        ];
        let key = (fetch, itlb, dsb, bp, params);
        let core = intern(
            &mut b.cores,
            key,
            |c| c.key,
            || Core {
                key,
                cfg: cfg.clone(),
                td: TopDown::default(),
                uops: 0,
                records: 0,
            },
        );
        let params = [
            cfg.l2_lat,
            cfg.llc_lat,
            cfg.dram_lat,
            cfg.stlb_lat,
            cfg.walk_lat,
            cfg.mlp.to_bits(),
            cfg.fetch_mlp.to_bits(),
            cfg.prefetch_factor.to_bits(),
        ];
        let key = (llc, dtlb, params);
        let mem = intern(
            &mut b.mems,
            key,
            |m| m.key,
            || Mem {
                key,
                cfg: cfg.clone(),
                fetch,
                l1i,
                l1d,
                l1i_ways: iways,
                l1d_ways: dways,
                l2,
                icache: 0.0,
                be_mem: BeMem::default(),
                prefetch: Prefetcher::new(),
                l1i_accesses: 0,
                l1i_misses: 0,
                l1d_accesses: 0,
                l1d_misses: 0,
            },
        );
        Setup { cfg, core, mem }
    }
}

/// How a batch runs its distinct setups.
#[derive(Debug)]
enum Plan {
    /// One distinct setup shares nothing, so it runs the fused
    /// per-record loop of a plain engine, with no outcome scratch.
    One(Box<HostEngine>),
    Factored(Box<Factored>),
}

/// Host setups evaluated together on one stream; see the [module
/// docs](self). Implements [`TraceSink`]: feed it a stream, then call
/// [`finish`](HostBatch::finish).
#[derive(Debug)]
pub struct HostBatch {
    plan: Plan,
    /// Input position → distinct setup.
    slot: Vec<usize>,
}

impl HostBatch {
    /// Plans a batch for `setups`, each a configuration and the binary
    /// model it runs. Equal setups are accounted once.
    ///
    /// # Panics
    ///
    /// Panics if a configuration fails [`HostConfig::validate`] or has an
    /// L1 with 255 ways or more.
    pub fn new(setups: Vec<(HostConfig, Arc<Registry>)>) -> Self {
        let mut distinct: Vec<(HostConfig, Arc<Registry>)> = Vec::new();
        let mut slot = Vec::with_capacity(setups.len());
        for (cfg, reg) in setups {
            let same = |(c, r): &(HostConfig, Arc<Registry>)| {
                *c == cfg
                    && r.variant() == reg.variant()
                    && r.layout().backing == reg.layout().backing
            };
            slot.push(distinct.iter().position(same).unwrap_or_else(|| {
                distinct.push((cfg, reg));
                distinct.len() - 1
            }));
        }
        let plan = if distinct.len() == 1 {
            let (cfg, reg) = distinct.pop().expect("one setup");
            Plan::One(Box::new(HostEngine::new(cfg, reg)))
        } else {
            Plan::Factored(Box::new(Self::factored(distinct)))
        };
        HostBatch { plan, slot }
    }

    fn factored(distinct: Vec<(HostConfig, Arc<Registry>)>) -> Factored {
        let mut f = Factored {
            nodes: Nodes::default(),
            back: Back::default(),
            setups: Vec::new(),
            pass: Outcomes::default(),
        };
        for (cfg, reg) in distinct {
            let s = f.plan(cfg, reg);
            f.setups.push(s);
        }
        for s in f.nodes.l1i.iter_mut().chain(&mut f.nodes.l1d) {
            s.tags = vec![EMPTY; s.key.2 as usize * s.depth];
        }
        f.back.fuse();
        f.pass = f.nodes.outcomes();
        f
    }

    /// Distinct setups this batch accounts.
    pub fn distinct_setups(&self) -> usize {
        match &self.plan {
            Plan::One(_) => 1,
            Plan::Factored(f) => f.setups.len(),
        }
    }

    /// Runs the last, partial pass and returns one result per setup, in
    /// input order.
    pub fn finish(self) -> Vec<HostRunStats> {
        let stats = match self.plan {
            Plan::One(e) => vec![e.finish()],
            Plan::Factored(mut f) => {
                f.run();
                f.setups
                    .iter()
                    .map(|s| s.stats(&f.nodes, &f.back))
                    .collect()
            }
        };
        self.slot.iter().map(|&i| stats[i].clone()).collect()
    }
}

impl TraceSink for HostBatch {
    fn exec(&mut self, r: ExecRecord) {
        match &mut self.plan {
            Plan::One(e) => e.exec(r),
            Plan::Factored(f) => f.push(TraceEvent::Exec(r)),
        }
    }
    fn data(&mut self, d: DataRef) {
        match &mut self.plan {
            Plan::One(e) => e.data(d),
            Plan::Factored(f) => f.push(TraceEvent::Data(d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hosttrace::registry::FunctionId;
    use hosttrace::{mix2, mix64};

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
            l2: CacheGeom::kib(256, 8),
            llc: CacheGeom::mib(2, 16),
            l2_lat: 14,
            llc_lat: 44,
            dram_lat: 280,
            itlb_entries: 64,
            dtlb_entries: 64,
            stlb_entries: 1536,
            stlb_lat: 8,
            walk_lat: 35,
            bp_bits: 12,
            btb_entries: 1024,
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

    fn stream(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| {
                let h = mix64(i);
                if h.is_multiple_of(5) {
                    TraceEvent::Data(DataRef {
                        addr: 0x10_0000_0000 + mix2(h, 1) % (4 << 20),
                        bytes: (h >> 8) as u32 % 300,
                        write: h & 1 == 0,
                    })
                } else {
                    TraceEvent::Exec(ExecRecord {
                        func: FunctionId((h % 3000) as u32),
                        uops: (h >> 12) as u16 % 80,
                        cond_branches: (h >> 20) as u8 % 9,
                        indirect_branches: (h >> 24) as u8 % 3,
                        loads: (h >> 28) as u8 % 12,
                        stores: (h >> 32) as u8 % 6,
                        variant: (i / 3000) as u32,
                    })
                }
            })
            .collect()
    }

    fn engine(setup: &(HostConfig, Arc<Registry>), events: &[TraceEvent]) -> HostRunStats {
        let mut e = HostEngine::new(setup.0.clone(), Arc::clone(&setup.1));
        hosttrace::record::replay(events, &mut e);
        e.finish()
    }

    #[test]
    fn batch_matches_one_engine_per_setup() {
        let base = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base));
        let thp = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::thp()));
        let o3 = Arc::new(Registry::new(BinaryVariant::O3Flag, PageBacking::Base));
        let mut setups = Vec::new();
        for ways in [1, 2, 4, 8, 16] {
            let mut c = cfg();
            c.l1i = CacheGeom::kib(4 * ways, ways);
            c.l1d = CacheGeom::kib(4 * ways, ways);
            c.name = format!("w{ways}");
            setups.push((c, Arc::clone(&base)));
        }
        let mut c = cfg();
        c.dsb_uops = 0;
        c.stlb_entries = 0;
        c.llc = CacheGeom::mib(1, 16);
        setups.push((c, Arc::clone(&thp)));
        let mut c = cfg();
        c.line = 128;
        c.page = 16384;
        c.l2_lat = 18;
        setups.push((c.clone(), Arc::clone(&o3)));
        setups.push((cfg(), Arc::clone(&base)));
        setups.push((c, o3));
        // Same structures as `cfg()`, other accounting: the LLC's level
        // list feeds two memory parts, and two cores share one.
        let mut c = cfg();
        c.mlp = 1.0;
        c.prefetch_factor = 1.0;
        setups.push((c, Arc::clone(&base)));
        let mut c = cfg();
        c.width = 6;
        c.mispredict_penalty = 12;
        setups.push((c, Arc::clone(&base)));
        let events = stream(3 * SUB_EVENTS as u64 + 77);
        let want: Vec<HostRunStats> = setups.iter().map(|s| engine(s, &events)).collect();
        let mut batch = HostBatch::new(setups);
        assert_eq!(batch.distinct_setups(), 10);
        hosttrace::record::replay(&events, &mut batch);
        assert_eq!(batch.finish(), want);
    }

    #[test]
    fn empty_and_one_setup_batches_match_engines() {
        let reg = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base));
        let mut other = cfg();
        other.l1d = CacheGeom::kib(16, 4);
        let two = vec![(cfg(), Arc::clone(&reg)), (other, reg)];
        for events in [Vec::new(), stream(100)] {
            let want: Vec<HostRunStats> = two.iter().map(|s| engine(s, &events)).collect();
            let mut one = HostBatch::new(two[..1].to_vec());
            hosttrace::record::replay(&events, &mut one);
            assert_eq!(one.finish(), want[..1]);
            let mut both = HostBatch::new(two.clone());
            hosttrace::record::replay(&events, &mut both);
            assert_eq!(both.finish(), want);
        }
    }
}
