//! One bounded, weighted LRU map for both of the process's caches.
//!
//! The guest-trace cache in [`crate::runner`] weighs each recorded
//! stream by its event count, so one constant bounds the events held
//! across all streams; the serving layer's result cache
//! (`gem5prof-served`) weighs each rendered response 1, so its capacity
//! counts entries. Each wraps one [`LruCache`] in one `Mutex` and
//! reports its [`CacheSnapshot`], so `/stats` and `/metrics` print every
//! cache in the process in the same shape.

use std::collections::HashMap;
use std::hash::Hash;

/// Hit/miss/insertion/eviction counters of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheSnapshot {
    /// Hits over total lookups, in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// This snapshot as metric samples named `<prefix>_{hits,misses,
    /// insertions,evictions}_total` — the bridge that lets every cache
    /// surface in `/metrics` from the same counters `/stats` reads,
    /// rather than maintaining a parallel counter set.
    pub fn metric_samples(&self, prefix: &str) -> Vec<gem5prof_obs::Sample> {
        use gem5prof_obs::{MetricKind, Sample};
        [
            ("hits_total", "lookups served from the cache", self.hits),
            ("misses_total", "lookups that missed", self.misses),
            ("insertions_total", "entries inserted", self.insertions),
            (
                "evictions_total",
                "entries evicted to make room",
                self.evictions,
            ),
        ]
        .into_iter()
        .map(|(suffix, help, v)| {
            Sample::plain(
                &format!("{prefix}_{suffix}"),
                help,
                MetricKind::Counter,
                v as f64,
            )
        })
        .collect()
    }
}

/// One resident value with its recency tick and weight.
#[derive(Debug)]
struct Entry<V> {
    tick: u64,
    weight: usize,
    value: V,
}

/// A least-recently-used map bounded by the sum of its entries'
/// weights, with plain [`CacheSnapshot`] counters.
///
/// Recency is tracked with a monotone tick per access; eviction scans for
/// the minimum tick. That is O(len) per eviction, which is fine at the
/// few-hundred-entry sizes both caches reach — simplicity and zero
/// dependencies beat an intrusive list here.
#[derive(Debug)]
pub struct LruCache<K, V> {
    cap: usize,
    weight: usize,
    tick: u64,
    map: HashMap<K, Entry<V>>,
    stats: CacheSnapshot,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache whose entries' weights sum to at most `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "LruCache capacity must be positive");
        LruCache {
            cap,
            weight: 0,
            tick: 0,
            map: HashMap::new(),
            stats: CacheSnapshot::default(),
        }
    }

    /// Looks up `key`, refreshing its recency. Records a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.tick = self.tick;
                self.stats.hits += 1;
                Some(e.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `key → value` at `weight`, first evicting
    /// least-recently-used entries until the total weight fits the
    /// capacity. A resident `key` is replaced, not counted as a new
    /// insertion. An entry heavier than the whole capacity is refused
    /// and leaves the cache unchanged.
    pub fn insert(&mut self, key: K, value: V, weight: usize) {
        if weight > self.cap {
            return;
        }
        self.tick += 1;
        let replaced = self.map.remove(&key);
        if let Some(old) = &replaced {
            self.weight -= old.weight;
        }
        while self.weight + weight > self.cap {
            // Resident weight is positive here, so the map is non-empty.
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.weight -= e.weight;
                self.stats.evictions += 1;
            }
        }
        self.weight += weight;
        let entry = Entry {
            tick: self.tick,
            weight,
            value,
        };
        self.map.insert(key, entry);
        if replaced.is_none() {
            self.stats.insertions += 1;
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The resident values, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|e| &e.value)
    }

    /// Sum of the resident entries' weights.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Maximum total weight.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The cache's counters.
    pub fn stats(&self) -> CacheSnapshot {
        self.stats
    }

    /// Empties the cache. Counters keep their running totals and the
    /// removed entries do not count as evictions (nothing was displaced
    /// to make room).
    pub fn clear(&mut self) {
        self.map.clear();
        self.weight = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<&str, u32> = LruCache::new(2);
        c.insert("a", 1, 1);
        c.insert("b", 2, 1);
        assert_eq!(c.get(&"a"), Some(1)); // refresh a; b is now LRU
        c.insert("c", 3, 1);
        assert_eq!(c.get(&"b"), None, "b should have been evicted");
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        let snap = c.stats();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.insertions, 3);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits, 3);
        assert!((snap.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheSnapshot::default().hit_rate(), 0.0);
    }

    #[test]
    fn reinsert_updates_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(7, 1, 1);
        c.insert(7, 2, 1);
        assert_eq!(c.get(&7), Some(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn weight_bounds_the_total_and_heavy_entries_are_refused() {
        let mut c: LruCache<u32, u32> = LruCache::new(10);
        c.insert(1, 1, 4);
        c.insert(2, 2, 4);
        assert_eq!(c.weight(), 8);
        // 8 + 5 > 10: the LRU entry (1) goes, the total stays bounded.
        c.insert(3, 3, 5);
        assert_eq!((c.get(&1), c.weight(), c.len()), (None, 9, 2));
        // Heavier than the whole cache: refused, nothing displaced.
        c.insert(4, 4, 11);
        assert_eq!((c.get(&4), c.weight(), c.len()), (None, 9, 2));
        c.clear();
        assert_eq!((c.weight(), c.len()), (0, 0));
        assert_eq!(c.stats().insertions, 3, "counters survive clear");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, u32>::new(0);
    }
}
