//! Property test for `gem5prof::cache::LruCache`, the weighted LRU both
//! the serving layer's result cache (weight 1 per entry) and the
//! runner's trace cache (weight = events per stream) sit on.
//!
//! Random get/insert sequences with random weights run against a plain
//! model that keeps its entries in a `Vec`, least recently used first.
//! After every call the cache must agree with the model on the lookup
//! result, the counters, the entry count and the total weight; the total
//! weight never exceeds the capacity; and residency is insertions minus
//! evictions.

use gem5prof::cache::{CacheSnapshot, LruCache};
use testkit::{prop_assert, prop_assert_eq, run_cases};

/// The reference LRU: `(key, value, weight)` in recency order, least
/// recently used first.
struct Model {
    cap: usize,
    entries: Vec<(u64, String, usize)>,
    stats: CacheSnapshot,
}

impl Model {
    fn weight(&self) -> usize {
        self.entries.iter().map(|e| e.2).sum()
    }

    fn get(&mut self, key: u64) -> Option<String> {
        match self.entries.iter().position(|e| e.0 == key) {
            Some(i) => {
                let e = self.entries.remove(i);
                let value = e.1.clone();
                self.entries.push(e);
                self.stats.hits += 1;
                Some(value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, value: String, weight: usize) {
        if weight > self.cap {
            return;
        }
        let resident = self.entries.iter().position(|e| e.0 == key);
        if let Some(i) = resident {
            self.entries.remove(i);
        }
        while self.weight() + weight > self.cap {
            self.entries.remove(0);
            self.stats.evictions += 1;
        }
        self.entries.push((key, value, weight));
        if resident.is_none() {
            self.stats.insertions += 1;
        }
    }
}

#[test]
fn weighted_lru_matches_the_vec_model() {
    run_cases("weighted_lru_matches_the_vec_model", 256, |g| {
        let cap = g.usize_in(1..40);
        let keys = g.u64_in(1..24);
        let mut cache: LruCache<u64, String> = LruCache::new(cap);
        let mut model = Model {
            cap,
            entries: Vec::new(),
            stats: CacheSnapshot::default(),
        };
        for step in 0..300 {
            let key = g.u64_in(0..keys);
            if g.bool() {
                prop_assert_eq!(cache.get(&key), model.get(key), "get({key}) at step {step}");
            } else {
                // Occasionally heavier than the whole cache (refused),
                // occasionally weightless.
                let weight = g.usize_in(0..cap + 3);
                // The step in the value exposes a stale replaced entry.
                let value = format!("{key}@{step}");
                cache.insert(key, value.clone(), weight);
                model.insert(key, value, weight);
            }
            let s = cache.stats();
            prop_assert_eq!(s, model.stats, "counters at step {step}");
            prop_assert_eq!(cache.len(), model.entries.len(), "len at step {step}");
            prop_assert_eq!(cache.weight(), model.weight(), "weight at step {step}");
            prop_assert!(
                cache.weight() <= cache.capacity(),
                "weight {} over capacity {cap} at step {step}",
                cache.weight()
            );
            prop_assert_eq!(
                (s.insertions - s.evictions) as usize,
                cache.len(),
                "residency must equal insertions minus evictions"
            );
        }
        Ok(())
    });
}
