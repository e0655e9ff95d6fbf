//! Host TLBs. Entries are keyed by opaque *page identifiers* supplied by
//! the text layout (which collapses huge-page-backed code onto 2 MB page
//! ids), so page size and huge-page effects flow through naturally.

use crate::cache::renormalize;

/// Result of a two-level TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbResult {
    /// First-level hit: free.
    L1Hit,
    /// Second-level hit: costs the STLB latency.
    StlbHit,
    /// Full page walk.
    Walk,
}

/// A 4-way set-associative TLB level with hashed indexing and LRU
/// replacement (real first-level TLBs are 4–8-way).
#[derive(Debug, Clone)]
struct TlbLevel {
    slots: Vec<u64>, // sets x 4
    lru: Vec<u32>,
    mask: u64, // set mask
    clock: u32,
}

const TLB_WAYS: usize = 4;

impl TlbLevel {
    fn new(entries: u64) -> Self {
        let sets = (entries / TLB_WAYS as u64).next_power_of_two().max(1);
        TlbLevel {
            slots: vec![u64::MAX; (sets as usize) * TLB_WAYS],
            lru: vec![0; (sets as usize) * TLB_WAYS],
            mask: sets - 1,
            clock: 0,
        }
    }

    #[inline]
    fn access(&mut self, page: u64) -> bool {
        if self.clock == u32::MAX {
            self.clock = renormalize(&mut self.lru, TLB_WAYS);
        }
        self.clock += 1;
        let set = (hosttrace::mix64(page) & self.mask) as usize;
        let base = set * TLB_WAYS;
        let mut victim = base;
        let mut victim_lru = u32::MAX;
        for i in base..base + TLB_WAYS {
            if self.slots[i] == page {
                self.lru[i] = self.clock;
                return true;
            }
            if self.lru[i] < victim_lru {
                victim_lru = self.lru[i];
                victim = i;
            }
        }
        self.slots[victim] = page;
        self.lru[victim] = self.clock;
        false
    }
}

/// A two-level host TLB (L1 TLB + shared STLB).
#[derive(Debug, Clone)]
pub struct HostTlb {
    l1: TlbLevel,
    stlb: Option<TlbLevel>,
    /// Lookups.
    pub lookups: u64,
    /// First-level misses.
    pub l1_misses: u64,
    /// Full walks.
    pub walks: u64,
}

impl HostTlb {
    /// Builds a TLB with `l1_entries` and (if nonzero) `stlb_entries`.
    pub fn new(l1_entries: u64, stlb_entries: u64) -> Self {
        HostTlb {
            l1: TlbLevel::new(l1_entries),
            stlb: (stlb_entries > 0).then(|| TlbLevel::new(stlb_entries)),
            lookups: 0,
            l1_misses: 0,
            walks: 0,
        }
    }

    /// Translates `page`.
    #[inline]
    pub fn access(&mut self, page: u64) -> TlbResult {
        self.lookups += 1;
        if self.l1.access(page) {
            return TlbResult::L1Hit;
        }
        self.l1_misses += 1;
        if let Some(stlb) = &mut self.stlb {
            if stlb.access(page) {
                return TlbResult::StlbHit;
            }
        }
        self.walks += 1;
        TlbResult::Walk
    }

    /// First-level miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_access_hits() {
        let mut t = HostTlb::new(64, 0);
        assert_eq!(t.access(42), TlbResult::Walk);
        assert_eq!(t.access(42), TlbResult::L1Hit);
        assert_eq!(t.lookups, 2);
        assert_eq!(t.walks, 1);
    }

    #[test]
    fn stlb_catches_l1_misses() {
        // L1 TLB holds one 4-way set here; touching 5 pages evicts the
        // LRU (page 0), which the larger STLB still holds.
        let mut t = HostTlb::new(4, 1024);
        for p in 0..5u64 {
            t.access(p);
        }
        let r = t.access(0);
        assert_eq!(r, TlbResult::StlbHit);
    }

    #[test]
    fn lru_order_survives_the_clock_wrap() {
        // One 4-way set; the clock wraps between the second and third fill.
        let mut t = TlbLevel::new(4);
        t.clock = u32::MAX - 2;
        for p in 0..4u64 {
            t.access(p);
        }
        t.access(4); // must evict page 0, the least recently used
        for p in [2, 3, 1, 4] {
            assert!(t.access(p), "page {p} was evicted");
        }
        assert!(!t.access(0));
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut small = HostTlb::new(16, 0);
        let mut large = HostTlb::new(4096, 0);
        for round in 0..30 {
            for p in 0..512u64 {
                small.access(p);
                large.access(p);
            }
            let _ = round;
        }
        assert!(small.miss_rate() > 5.0 * large.miss_rate());
    }

    #[test]
    fn fewer_pages_fewer_misses() {
        // Same address stream, 4x larger pages => 4x fewer distinct pages.
        let mut t4k = HostTlb::new(64, 0);
        let mut t16k = HostTlb::new(64, 0);
        for round in 0..5 {
            for addr in (0..2_000_000u64).step_by(4096) {
                t4k.access(addr / 4096);
                t16k.access(addr / 16384);
            }
            let _ = round;
        }
        assert!(t16k.l1_misses < t4k.l1_misses / 2);
    }
}
