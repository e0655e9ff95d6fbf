//! A fast set-associative host cache model (LRU).

use crate::config::CacheGeom;

/// Splits an address into its set and tag. Every line size and almost
/// every set count is a power of two (the Xeon LLC's 53,248 sets are the
/// exception), so those take shifts and masks and only the rest divide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetIndex {
    line: u64,
    sets: u64,
    line_shift: Option<u32>,
    set_shift: Option<u32>,
}

impl SetIndex {
    pub(crate) fn new(line: u64, sets: u64) -> Self {
        let shift = |n: u64| n.is_power_of_two().then(|| n.trailing_zeros());
        SetIndex {
            line,
            sets,
            line_shift: shift(line),
            set_shift: shift(sets),
        }
    }

    /// `(set, tag)` of the line holding `addr`.
    #[inline]
    pub(crate) fn split(&self, addr: u64) -> (usize, u64) {
        let lineno = match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.line,
        };
        match self.set_shift {
            Some(s) => ((lineno & (self.sets - 1)) as usize, lineno >> s),
            None => ((lineno % self.sets) as usize, lineno / self.sets),
        }
    }
}

/// Re-ranks each set's LRU stamps `1..=ways` in recency order (never-used
/// ways keep 0) and returns the clock to restart from. Called when a u32
/// clock would wrap, so stamps stay exact LRU past 2^32 accesses without
/// widening them.
pub(crate) fn renormalize(lru: &mut [u32], ways: usize) -> u32 {
    let mut order: Vec<usize> = Vec::with_capacity(ways);
    for set in lru.chunks_mut(ways) {
        order.clear();
        order.extend((0..ways).filter(|&i| set[i] != 0));
        order.sort_unstable_by_key(|&i| set[i]);
        for (rank, &i) in order.iter().enumerate() {
            set[i] = rank as u32 + 1;
        }
    }
    ways as u32
}

/// Set-associative cache over line addresses.
#[derive(Debug, Clone)]
pub struct HostCache {
    index: SetIndex,
    assoc: usize,
    line: u64,
    tags: Vec<u64>, // sets * assoc; u64::MAX = invalid
    lru: Vec<u32>,  // 0 = never used; see `renormalize`
    clock: u32,
    /// Accesses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl HostCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent with `line`.
    pub fn new(geom: CacheGeom, line: u64) -> Self {
        assert!(
            geom.size % (geom.assoc * line) == 0 && geom.size > 0,
            "bad geometry {geom:?}"
        );
        let sets = geom.size / (geom.assoc * line);
        HostCache {
            index: SetIndex::new(line, sets),
            assoc: geom.assoc as usize,
            line,
            tags: vec![u64::MAX; (sets * geom.assoc) as usize],
            lru: vec![0; (sets * geom.assoc) as usize],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        if self.clock == u32::MAX {
            self.clock = renormalize(&mut self.lru, self.assoc);
        }
        self.clock += 1;
        let (set, tag) = self.index.split(addr);
        let base = set * self.assoc;
        let tags = &mut self.tags[base..base + self.assoc];
        let lru = &mut self.lru[base..base + self.assoc];
        let mut victim = 0;
        let mut victim_lru = u32::MAX;
        for (i, (&t, &l)) in tags.iter().zip(lru.iter()).enumerate() {
            if t == tag {
                lru[i] = self.clock;
                return true;
            }
            if l < victim_lru {
                victim_lru = l;
                victim = i;
            }
        }
        self.misses += 1;
        tags[victim] = tag;
        lru[victim] = self.clock;
        false
    }

    /// Miss rate in [0, 1].
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Number of valid lines (LLC occupancy reporting).
    pub fn valid_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != u64::MAX).count() as u64
    }

    /// Bytes of valid data.
    pub fn occupancy_bytes(&self) -> u64 {
        self.valid_lines() * self.line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HostCache {
        HostCache::new(
            CacheGeom {
                size: 512,
                assoc: 2,
            },
            64,
        ) // 4 sets
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103F), "same line");
        assert!(!c.access(0x1040), "next line");
    }

    #[test]
    fn lru_within_set() {
        let mut c = tiny();
        c.access(0); // set 0, tag 0
        c.access(256); // set 0, tag 1
        c.access(0); // refresh
        c.access(512); // evicts tag 1
        assert!(c.access(0));
        assert!(!c.access(256));
    }

    #[test]
    fn capacity_bounded() {
        let mut c = tiny();
        for i in 0..100 {
            c.access(i * 64);
        }
        assert_eq!(c.valid_lines(), 8);
        assert_eq!(c.occupancy_bytes(), 512);
    }

    #[test]
    fn lru_order_survives_the_clock_wrap() {
        let mut c = tiny();
        c.clock = u32::MAX - 1;
        c.access(0); // stamped at u32::MAX
        c.access(256); // the clock wraps here
        c.access(512); // must evict the older line, 0
        assert!(c.access(256), "the newer line was evicted");
        assert!(!c.access(0));
    }

    #[test]
    fn non_power_of_two_sets_index_by_division() {
        // 3 sets of 2 ways: lines 0, 3 and 6 share set 0.
        let mut c = HostCache::new(
            CacheGeom {
                size: 384,
                assoc: 2,
            },
            64,
        );
        for line in [0u64, 3, 6] {
            c.access(line * 64);
        }
        assert!(!c.access(0), "set 0 held 3 lines in 2 ways");
        assert!(c.access(6 * 64), "line 6 was more recent than line 3");
        assert_eq!((c.accesses, c.misses), (5, 4));
    }

    #[test]
    fn miss_rate_reported() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }
}
