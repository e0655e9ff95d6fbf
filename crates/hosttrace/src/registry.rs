//! The synthetic gem5 binary: per-component function pools with code
//! addresses, sizes and branch character.
//!
//! Pool sizes model the relative code mass of gem5's components (the O3
//! model plus its template instantiations dwarfs everything else; the
//! classic caches, DRAM controller and crossbar form the timing memory
//! system; a large common pool stands for libstdc++ / libm / allocator
//! code). They were calibrated once so that the *emergent* functions-
//! touched counts land near the paper's Fig. 15 measurements
//! (1602 / 2557 / 3957 / 5209 for Atomic / Timing / Minor / O3); the
//! *relative* growth with CPU detail is structural, not fitted.

use crate::layout::{PageBacking, TextLayout};
use crate::{mix2, mix64};
use gem5sim::CompClass;

/// Index of a host function in the [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FunctionId(pub u32);

/// Which compilation of the binary is running (the paper's Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BinaryVariant {
    /// The default `gem5.opt` build.
    #[default]
    Base,
    /// Recompiled with `-O3`: ~3% smaller code, better intra-component
    /// code clustering.
    O3Flag,
}

/// Static metadata of one host function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncMeta {
    /// Owning component class (`None` for the common libstdc++/libm pool).
    pub comp: Option<CompClass>,
    /// Code address in the text segment.
    pub addr: u64,
    /// Code size in bytes.
    pub size: u32,
    /// Percent of this function's conditional branches that are taken
    /// (drives predictability in the host model).
    pub taken_rate: u8,
    /// Whether this is a primary (handler-entry) function.
    pub is_primary: bool,
}

#[derive(Debug, Clone, Copy)]
struct Pool {
    base: u32,
    primaries: u32,
    helpers: u32,
}

impl Pool {
    fn len(&self) -> u32 {
        self.primaries + self.helpers
    }
}

/// Pool size table: `(component, primaries, helpers)`.
///
/// `Icache`, `Dcache` and `L2` share one pool — in gem5 they are all
/// instances of the same `BaseCache` code.
const POOL_SIZES: &[(PoolKey, u32, u32)] = &[
    (PoolKey::Comp(CompClass::EventQueue), 12, 58),
    (PoolKey::Comp(CompClass::CpuAtomic), 28, 162),
    (PoolKey::Comp(CompClass::CpuTiming), 40, 250),
    (PoolKey::Comp(CompClass::CpuMinor), 110, 1470),
    (PoolKey::Comp(CompClass::CpuO3), 170, 2660),
    (PoolKey::Comp(CompClass::BranchPred), 16, 94),
    (PoolKey::Comp(CompClass::Decoder), 18, 132),
    (PoolKey::Cache, 48, 512),
    (PoolKey::Comp(CompClass::Xbar), 16, 184),
    (PoolKey::Comp(CompClass::Dram), 24, 276),
    (PoolKey::Comp(CompClass::Tlb), 18, 102),
    (PoolKey::Comp(CompClass::Syscall), 22, 78),
    (PoolKey::Comp(CompClass::Device), 14, 56),
    (PoolKey::Comp(CompClass::Stats), 18, 132),
    (PoolKey::Common, 0, 480),
];

/// Pool lookup key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolKey {
    Comp(CompClass),
    /// Shared `BaseCache` code for L1I/L1D/L2.
    Cache,
    /// libstdc++ / libm / allocator.
    Common,
}

fn pool_key(comp: CompClass) -> PoolKey {
    match comp {
        CompClass::Icache | CompClass::Dcache | CompClass::L2 => PoolKey::Cache,
        c => PoolKey::Comp(c),
    }
}

/// The synthetic binary: function table + text layout.
#[derive(Debug, Clone)]
pub struct Registry {
    funcs: Vec<FuncMeta>,
    pools: Vec<(PoolKey, Pool)>,
    layout: TextLayout,
    variant: BinaryVariant,
}

impl Registry {
    /// Builds the binary model for the given compilation variant and text
    /// page backing.
    pub fn new(variant: BinaryVariant, backing: PageBacking) -> Self {
        let text_base = 0x40_0000u64;
        let size_scale_num: u64 = match variant {
            BinaryVariant::Base => 100,
            BinaryVariant::O3Flag => 97,
        };

        // Generate pool descriptors.
        let mut pools = Vec::new();
        let mut next = 0u32;
        for &(key, primaries, helpers) in POOL_SIZES {
            pools.push((
                key,
                Pool {
                    base: next,
                    primaries,
                    helpers,
                },
            ));
            next += primaries + helpers;
        }
        let total = next as usize;

        // Function sizes and branch character, deterministic per id.
        let mut metas: Vec<FuncMeta> = Vec::with_capacity(total);
        for (key, pool) in &pools {
            for i in 0..pool.len() {
                let fid = pool.base + i;
                let h = mix64(fid as u64 ^ 0xC0DE);
                let is_primary = i < pool.primaries;
                // gem5's handler-entry functions are big (templated,
                // inlined-into); helpers are smaller.
                let raw = if is_primary {
                    400 + (h % 1200) as u32
                } else {
                    128 + (h % 384) as u32
                };
                let size = (raw as u64 * size_scale_num / 100) as u32;
                // Mostly well-biased (loop-like) branch sites. Data-
                // dependent (noisy) branches live only in the cold half of
                // each pool: hot steady-state paths are loop-shaped, rare
                // paths carry the unpredictable decisions.
                let in_cold_half = i >= pool.primaries + pool.helpers / 2;
                let taken_rate = if in_cold_half && h % 25 == 0 {
                    55 + (mix64(h) % 30) as u8
                } else {
                    86 + (mix64(h) % 14) as u8
                };
                let comp = match key {
                    PoolKey::Comp(c) => Some(*c),
                    PoolKey::Cache => Some(CompClass::L2),
                    PoolKey::Common => None,
                };
                metas.push(FuncMeta {
                    comp,
                    addr: 0, // assigned below
                    size,
                    taken_rate,
                    is_primary,
                });
            }
        }

        // Lay functions out in the text segment. The base build uses link
        // order that scatters related functions (gem5's many translation
        // units); -O3 keeps each component's code clustered.
        let mut order: Vec<u32> = (0..total as u32).collect();
        match variant {
            BinaryVariant::Base => {
                order.sort_by_key(|&fid| mix64(fid as u64 ^ 0x11AA));
            }
            BinaryVariant::O3Flag => {
                // Cluster by pool, shuffle within.
                order.sort_by_key(|&fid| {
                    let pool_idx = pools
                        .iter()
                        .position(|(_, p)| fid >= p.base && fid < p.base + p.len())
                        .unwrap() as u64;
                    (pool_idx << 32) | (mix64(fid as u64 ^ 0x22BB) & 0xFFFF_FFFF)
                });
            }
        }
        let mut addr = text_base;
        for fid in order {
            let m = &mut metas[fid as usize];
            m.addr = addr;
            addr += m.size as u64 + 16; // alignment padding
        }
        let text_size = addr - text_base;

        Registry {
            funcs: metas,
            pools,
            layout: TextLayout {
                base: text_base,
                size: text_size,
                backing,
            },
            variant,
        }
    }

    /// Number of functions in the binary.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Whether the binary is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Function metadata.
    ///
    /// # Panics
    ///
    /// Panics if `fid` is out of range.
    pub fn meta(&self, fid: FunctionId) -> &FuncMeta {
        &self.funcs[fid.0 as usize]
    }

    /// The text layout.
    pub fn layout(&self) -> &TextLayout {
        &self.layout
    }

    /// The compilation variant.
    pub fn variant(&self) -> BinaryVariant {
        self.variant
    }

    fn pool(&self, key: PoolKey) -> Pool {
        self.pools
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, p)| *p)
            .expect("all pool keys are in the table")
    }

    /// Resolves the instrumentation site (`comp`, `method`) once: its
    /// primary function, the pools its helpers come from and its atomic
    /// reach. [`Site::primary`] and [`Site::helper`] then give what
    /// [`primary`](Self::primary) and [`helper`](Self::helper) give for
    /// this site, without hashing the method string again.
    pub fn site(&self, comp: CompClass, method: &str) -> Site {
        let own = self.pool(pool_key(comp));
        let common = self.pool(PoolKey::Common);
        Site {
            key: mix2(comp as u64, hash_str(method)),
            primary: self.primary(comp, method),
            own: (own.base + own.primaries, reach(own, method)),
            common: (common.base, common.helpers as u64),
            slots: Vec::new(),
        }
    }

    /// The primary (entry) function for a handler method.
    pub fn primary(&self, comp: CompClass, method: &str) -> FunctionId {
        let pool = self.pool(pool_key(comp));
        debug_assert!(pool.primaries > 0, "{comp:?} has primaries");
        let h = mix2(comp as u64, hash_str(method));
        FunctionId(pool.base + (h % pool.primaries as u64) as u32)
    }

    /// Selects the `i`-th helper called by an invocation of
    /// (`comp`, `method`).
    ///
    /// Selection is *tiered* to reproduce a real program's temporal
    /// locality: 70% of a call site's helper calls always go to the same
    /// function (the steady-state code path), 25% rotate through a small
    /// per-site set (occasional paths: retries, fills, stat flushes), and
    /// 5% are cold draws over the whole pool (error paths, rare events) —
    /// which is what slowly drives the functions-touched count toward the
    /// pool size over a run. Atomic-mode fast paths (`recvAtomic*`) reach
    /// only a prefix of each pool, as in gem5 where the atomic path is a
    /// small subset of the timing machinery.
    pub fn helper(&self, comp: CompClass, method: &str, i: u32, variant: u32) -> FunctionId {
        // A stable identity for this helper call site.
        let slot = mix2(mix2(comp as u64, hash_str(method)), i as u64 + 1);
        let tier = mix2(slot, variant as u64) % 100;
        let diversifier: u64 = if tier < 80 {
            0 // steady path: fixed target
        } else if tier < 93 {
            1 + (variant % 24) as u64 // warm set of ~24 alternatives
        } else {
            0x1_0000 + variant as u64 // cold draw
        };
        let h = mix2(slot, diversifier);

        // 30% of call sites live in the common pool (allocator, stdlib) —
        // decided per *site*, so hot stdlib helpers recur.
        if slot % 10 < 3 {
            let common = self.pool(PoolKey::Common);
            return FunctionId(common.base + skewed_index(h ^ 0xC033, common.helpers as u64));
        }
        let pool = self.pool(pool_key(comp));
        FunctionId(pool.base + pool.primaries + skewed_index(h, reach(pool, method)))
    }

    /// A human-readable name for a function (stable, synthetic).
    pub fn name(&self, fid: FunctionId) -> String {
        let m = self.meta(fid);
        let kind = if m.is_primary { "handler" } else { "fn" };
        match m.comp {
            Some(c) => format!("{c}::{kind}_{}", fid.0),
            None => format!("std::{kind}_{}", fid.0),
        }
    }
}

/// How many of `pool`'s helpers a call of `method` reaches: atomic-mode
/// fast paths only the first quarter.
fn reach(pool: Pool, method: &str) -> u64 {
    if method.starts_with("recvAtomic") || method.starts_with("atomic") {
        (pool.helpers as u64 * 25 / 100).max(1)
    } else {
        pool.helpers as u64
    }
}

/// Helper indices whose slots a [`Site`] keeps. A call's helper count is
/// its work over 18, so this covers every call of up to 4,625 work units;
/// the rare index past it is resolved afresh on each call.
const SITE_SLOTS: usize = 256;

/// One instrumentation site resolved against a [`Registry`] by
/// [`Registry::site`]: everything [`Registry::primary`] and
/// [`Registry::helper`] derive from the site alone, so that a call pays
/// only for what depends on its invocation variant.
#[derive(Debug, Clone)]
pub struct Site {
    /// `mix2(comp, hash_str(method))`: the site's identity.
    key: u64,
    primary: FunctionId,
    /// The component pool's first helper and how many helpers the site
    /// reaches.
    own: (u32, u64),
    /// The common pool's first function and its size.
    common: (u32, u64),
    /// Per helper index, grown on first use: the slot hash and the
    /// slot's steady-path helper.
    slots: Vec<(u64, FunctionId)>,
}

impl Site {
    /// The site's primary function: [`Registry::primary`].
    #[inline]
    pub fn primary(&self) -> FunctionId {
        self.primary
    }

    /// The `i`-th helper invocation `variant` of the site calls:
    /// [`Registry::helper`]. Steady-path draws (80%) return the slot's
    /// resolved helper; the rest pick one afresh.
    #[inline]
    pub fn helper(&mut self, i: u32, variant: u32) -> FunctionId {
        let (slot, steady) = match self.slots.get(i as usize) {
            Some(&s) => s,
            None => self.grow(i),
        };
        let tier = mix2(slot, variant as u64) % 100;
        if tier < 80 {
            return steady;
        }
        let diversifier = if tier < 93 {
            1 + (variant % 24) as u64 // warm set of ~24 alternatives
        } else {
            0x1_0000 + variant as u64 // cold draw
        };
        self.pick(slot, mix2(slot, diversifier))
    }

    /// Slot `i`: kept, with every slot before it, if `i` is below
    /// [`SITE_SLOTS`].
    #[cold]
    fn grow(&mut self, i: u32) -> (u64, FunctionId) {
        let resolve = |site: &Site, i: u32| {
            let slot = mix2(site.key, i as u64 + 1);
            (slot, site.pick(slot, mix2(slot, 0)))
        };
        if i as usize >= SITE_SLOTS {
            return resolve(self, i);
        }
        while self.slots.len() <= i as usize {
            let s = resolve(self, self.slots.len() as u32);
            self.slots.push(s);
        }
        self.slots[i as usize]
    }

    /// The helper a slot's draw `h` lands on: 30% of slots live in the
    /// common pool.
    #[inline]
    fn pick(&self, slot: u64, h: u64) -> FunctionId {
        if slot % 10 < 3 {
            FunctionId(self.common.0 + skewed_index(h ^ 0xC033, self.common.1))
        } else {
            FunctionId(self.own.0 + skewed_index(h, self.own.1))
        }
    }
}

/// Quadratically-skewed index in `[0, n)`: call trees concentrate on a
/// hot head of each pool with a long cold tail (gem5's real profile).
#[inline]
fn skewed_index(h: u64, n: u64) -> u32 {
    let r1 = mix64(h);
    let r2 = mix64(r1);
    ((r1 % n) * (r2 % n) / n) as u32
}

fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::{prop_assert, prop_assert_eq, run_cases, Gen};

    fn reg() -> Registry {
        Registry::new(BinaryVariant::Base, PageBacking::Base)
    }

    /// A method name: simulator-like, atomic-prefixed or not, empty,
    /// near-misses of the prefixes, non-ASCII, with a random tail.
    fn method(g: &mut Gen) -> String {
        const STEMS: [&str; 14] = [
            "access",
            "fetch_tick",
            "serviceOne",
            "recvTimingReq",
            "recvAtomic",
            "recvAtomicSnoop",
            "atomic",
            "atomicRead",
            "Atomic",
            " recvAtomic",
            "recvAtomi",
            "",
            "atomîc",
            "日本語",
        ];
        let mut m = g.pick(&STEMS).to_string();
        for _ in 0..g.usize_in(0..4) {
            m.push(char::from(g.u8_in(0x20..0x7f)));
        }
        if g.u64_in(0..4) == 0 {
            m.push(*g.pick(&['é', '→', '😀']));
        }
        m
    }

    #[test]
    fn sites_resolve_as_the_registry_does() {
        let regs = [
            reg(),
            Registry::new(BinaryVariant::O3Flag, PageBacking::thp()),
        ];
        run_cases("sites_resolve_as_the_registry_does", 10_000, |g| {
            let r = g.pick(&regs);
            let comp = *g.pick(&CompClass::ALL);
            let m = method(g);
            let mut site = r.site(comp, &m);
            prop_assert_eq!(site.primary(), r.primary(comp, &m), "{comp:?} {m:?}");
            for _ in 0..g.usize_in(1..40) {
                // Kept slots, the table's edge, and indices past it.
                let i = match g.u64_in(0..4) {
                    0 => g.u32_in(0..8),
                    1 => g.u32_in(0..SITE_SLOTS as u32 + 64),
                    2 => u32::MAX - g.u32_in(0..4),
                    _ => g.next_u64() as u32,
                };
                let v = match g.u64_in(0..4) {
                    0 => 0,
                    1 => u32::MAX,
                    2 => g.u32_in(0..100),
                    _ => g.next_u64() as u32,
                };
                prop_assert_eq!(
                    site.helper(i, v),
                    r.helper(comp, &m, i, v),
                    "{comp:?} {m:?} helper {i} of variant {v}"
                );
            }
            prop_assert!(site.slots.len() <= SITE_SLOTS);
            Ok(())
        });
    }

    #[test]
    fn binary_has_thousands_of_functions() {
        let r = reg();
        assert!(r.len() > 5000, "{}", r.len());
        assert!(!r.is_empty());
    }

    #[test]
    fn text_segment_is_megabytes() {
        let r = reg();
        let mb = r.layout().size as f64 / (1024.0 * 1024.0);
        assert!(mb > 1.5 && mb < 8.0, "text = {mb:.1} MB");
    }

    #[test]
    fn primaries_are_stable_and_within_pool() {
        let r = reg();
        let f1 = r.primary(CompClass::CpuO3, "fetch_tick");
        let f2 = r.primary(CompClass::CpuO3, "fetch_tick");
        assert_eq!(f1, f2);
        assert!(r.meta(f1).is_primary);
        assert_eq!(r.meta(f1).comp, Some(CompClass::CpuO3));
    }

    #[test]
    fn cache_components_share_a_pool() {
        let r = reg();
        let fi = r.primary(CompClass::Icache, "access");
        let fd = r.primary(CompClass::Dcache, "access");
        // Same code pool (BaseCache) — possibly even the same function.
        assert_eq!(r.meta(fi).comp, r.meta(fd).comp);
    }

    #[test]
    fn atomic_methods_reach_fewer_helpers() {
        let r = reg();
        let mut atomic_set = std::collections::HashSet::new();
        let mut timing_set = std::collections::HashSet::new();
        for v in 0..2000u32 {
            for i in 0..4 {
                atomic_set.insert(r.helper(CompClass::Dcache, "recvAtomicAccess", i, v));
                timing_set.insert(r.helper(CompClass::Dcache, "access", i, v));
            }
        }
        // Both reach the shared common pool, so the ratio is bounded by
        // the pool-slice restriction, not 38% outright.
        assert!(
            atomic_set.len() * 5 < timing_set.len() * 4,
            "atomic {} vs timing {}",
            atomic_set.len(),
            timing_set.len()
        );
    }

    #[test]
    fn o3_variant_shrinks_and_clusters_text() {
        let base = Registry::new(BinaryVariant::Base, PageBacking::Base);
        let opt = Registry::new(BinaryVariant::O3Flag, PageBacking::Base);
        assert!(opt.layout().size < base.layout().size);
        // Clustering: the spread of addresses within one pool is smaller.
        let spread = |r: &Registry, comp| {
            let addrs: Vec<u64> = (0..r.len() as u32)
                .filter(|&i| r.meta(FunctionId(i)).comp == Some(comp))
                .map(|i| r.meta(FunctionId(i)).addr)
                .collect();
            addrs.iter().max().unwrap() - addrs.iter().min().unwrap()
        };
        assert!(spread(&opt, CompClass::CpuO3) < spread(&base, CompClass::CpuO3));
    }

    #[test]
    fn addresses_do_not_overlap() {
        let r = reg();
        let mut spans: Vec<(u64, u64)> = (0..r.len() as u32)
            .map(|i| {
                let m = r.meta(FunctionId(i));
                (m.addr, m.addr + m.size as u64)
            })
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn names_are_informative() {
        let r = reg();
        let f = r.primary(CompClass::EventQueue, "serviceOne");
        assert!(r.name(f).starts_with("EventQueue::handler_"));
    }
}
