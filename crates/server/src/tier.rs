//! The tiered result cache: an in-memory LRU over an optional
//! disk-backed warm tier.
//!
//! ```text
//! lookup:  mem (LruCache, one mutex) ──hit──► body
//!             │ miss
//!             ▼
//!          disk (--cache-dir, versioned files) ──hit──► promote to mem, body
//!             │ miss / corrupt / stale
//!             ▼
//!          None (caller computes)
//!
//! insert:  mem immediately; disk written behind the response (the
//!          worker persists after every waiter has been answered, so
//!          the write is never on a requester's critical path)
//! ```
//!
//! Disk entries are self-describing files under the cache directory:
//!
//! ```text
//! magic "G5PC" | version u8 | key_len u32 LE | body_len u32 LE |
//! fnv1a64(key ++ body) u64 LE | key bytes | body bytes
//! ```
//!
//! The version byte is the **cache schema version**: any change to the
//! rendered-response format bumps [`DISK_FORMAT_VERSION`], and entries
//! carrying an older byte are ignored (counted as `stale`) rather than
//! served. Truncated or bit-flipped files fail the checksum and are
//! ignored as `corrupt`. Either way the daemon recomputes and the next
//! write-behind replaces the bad file — a damaged cache directory can
//! cost recomputes, never wrong answers.

use gem5prof::cache::{CacheSnapshot, LruCache};
use gem5prof_chaos as chaos;
use gem5prof_obs as obs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Schema version of the on-disk entry format. Bump on any change to
/// the file layout **or** to the rendered JSON the entries contain.
pub(crate) const DISK_FORMAT_VERSION: u8 = 1;

/// File magic (so a stray file in the cache dir is never parsed).
const MAGIC: &[u8; 4] = b"G5PC";

/// Extension for cache entry files.
const EXT: &str = "g5pc";

/// FNV-1a over arbitrary bytes; used both for entry checksums and for
/// deriving stable file names from keys.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Serializes one entry to the on-disk layout.
fn encode(key: &str, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(21 + key.len() + body.len());
    out.extend_from_slice(MAGIC);
    out.push(DISK_FORMAT_VERSION);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(&[key.as_bytes(), body.as_bytes()]).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

/// Why a disk entry was rejected.
#[derive(Debug, PartialEq, Eq)]
enum Reject {
    /// Wrong magic, impossible lengths, bad checksum, or non-UTF-8.
    Corrupt,
    /// Valid layout but a different schema version.
    Stale,
    /// Valid entry for a *different* key (hash-collision on file name).
    WrongKey,
}

/// Parses an on-disk entry, returning the body if it is a valid,
/// current-version entry for `key`.
fn decode(bytes: &[u8], key: &str) -> Result<String, Reject> {
    if bytes.len() < 21 || &bytes[0..4] != MAGIC {
        return Err(Reject::Corrupt);
    }
    let version = bytes[4];
    let key_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let body_len = u32::from_le_bytes(bytes[9..13].try_into().unwrap()) as usize;
    let checksum = u64::from_le_bytes(bytes[13..21].try_into().unwrap());
    // Validate the layout before the version so a truncated file of any
    // version is corrupt, not stale.
    let Some(total) = 21usize
        .checked_add(key_len)
        .and_then(|n| n.checked_add(body_len))
    else {
        return Err(Reject::Corrupt);
    };
    if bytes.len() != total {
        return Err(Reject::Corrupt);
    }
    let key_bytes = &bytes[21..21 + key_len];
    let body_bytes = &bytes[21 + key_len..];
    if fnv1a(&[key_bytes, body_bytes]) != checksum {
        return Err(Reject::Corrupt);
    }
    if version != DISK_FORMAT_VERSION {
        return Err(Reject::Stale);
    }
    if key_bytes != key.as_bytes() {
        return Err(Reject::WrongKey);
    }
    String::from_utf8(body_bytes.to_vec()).map_err(|_| Reject::Corrupt)
}

/// Atomic counters for the disk tier, readable as a [`DiskSnapshot`].
#[derive(Debug, Default)]
pub(crate) struct DiskStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub writes: AtomicU64,
    pub write_errors: AtomicU64,
    pub corrupt: AtomicU64,
    pub stale: AtomicU64,
}

/// Point-in-time disk-tier counters for `/stats` and `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DiskSnapshot {
    /// Lookups served from disk (each one is also a promotion to mem).
    pub hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Entries persisted.
    pub writes: u64,
    /// Failed persists (the entry stays memory-only).
    pub write_errors: u64,
    /// Entries ignored for failing magic/length/checksum validation.
    pub corrupt: u64,
    /// Entries ignored for carrying an older schema version.
    pub stale: u64,
}

/// The disk-backed warm tier: one file per key under `dir`.
pub(crate) struct DiskTier {
    dir: PathBuf,
    stats: DiskStats,
}

impl DiskTier {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: &Path) -> std::io::Result<DiskTier> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskTier {
            dir: dir.to_path_buf(),
            stats: DiskStats::default(),
        })
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{EXT}", fnv1a(&[key.as_bytes()])))
    }

    /// Reads the entry for `key`, if a valid current-version one exists.
    /// Corrupt and stale files are counted and left in place — the next
    /// write-behind for the key overwrites them.
    pub fn load(&self, key: &str) -> Option<String> {
        let bytes = match std::fs::read(self.path_for(key)) {
            Ok(b) => b,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode(&bytes, key) {
            Ok(body) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(body)
            }
            Err(reject) => {
                match reject {
                    Reject::Corrupt => self.stats.corrupt.fetch_add(1, Ordering::Relaxed),
                    Reject::Stale => self.stats.stale.fetch_add(1, Ordering::Relaxed),
                    Reject::WrongKey => 0, // a different key's entry, plain miss
                };
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists `key → body` (write to a temp file, then rename, so a
    /// crash mid-write leaves either the old entry or none — never a
    /// torn one). Failures are counted and swallowed: the disk tier is
    /// an optimization, and losing a write costs a recompute after the
    /// next restart, nothing more.
    pub fn store(&self, key: &str, body: &str) {
        let result = (|| -> std::io::Result<()> {
            if let Some(e) = chaos::io_error("cache.disk_write") {
                return Err(e);
            }
            let path = self.path_for(key);
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::write(&tmp, encode(key, body))?;
            std::fs::rename(&tmp, &path)
        })();
        match result {
            Ok(()) => {
                self.stats.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
                if chaos::is_chaos_error(&e) {
                    chaos::recovered("cache.disk_write");
                }
            }
        }
    }

    /// Entry files currently in the cache directory (scrape-time only).
    pub fn entries(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some(EXT))
                    .count() as u64
            })
            .unwrap_or(0)
    }

    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            writes: self.stats.writes.load(Ordering::Relaxed),
            write_errors: self.stats.write_errors.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            stale: self.stats.stale.load(Ordering::Relaxed),
        }
    }
}

/// The engine's result cache: memory tier + optional disk tier, with
/// per-tier lookup histograms in the process registry. Memory entries
/// weigh 1, so the memory tier's capacity counts entries.
pub(crate) struct TieredCache {
    mem: Mutex<LruCache<String, Arc<String>>>,
    disk: Option<DiskTier>,
    lookup_mem: Arc<obs::Histogram>,
    lookup_disk: Arc<obs::Histogram>,
}

impl TieredCache {
    /// Builds the cache. A `cache_dir` that cannot be created disables
    /// the disk tier with a warning rather than failing the daemon.
    pub fn new(cap: usize, cache_dir: Option<&Path>) -> TieredCache {
        let disk = cache_dir.and_then(|dir| match DiskTier::open(dir) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!(
                    "warning: cannot open cache dir {}: {e} — disk tier disabled",
                    dir.display()
                );
                None
            }
        });
        let r = obs::global();
        let b = obs::metrics::duration_buckets();
        TieredCache {
            mem: Mutex::new(LruCache::new(cap)),
            disk,
            lookup_mem: r.histogram_with(
                "served_tier_lookup_seconds",
                "result-cache lookup latency by tier",
                b,
                &[("tier", "mem")],
            ),
            lookup_disk: r.histogram_with(
                "served_tier_lookup_seconds",
                "result-cache lookup latency by tier",
                b,
                &[("tier", "disk")],
            ),
        }
    }

    fn mem(&self) -> MutexGuard<'_, LruCache<String, Arc<String>>> {
        self.mem.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Full tiered lookup: memory first, then disk with promote-on-hit.
    pub fn get(&self, key: &String) -> Option<Arc<String>> {
        let t0 = Instant::now();
        let mem = self.mem().get(key);
        self.lookup_mem.observe_duration(t0.elapsed());
        if mem.is_some() {
            return mem;
        }
        let disk = self.disk.as_ref()?;
        let t0 = Instant::now();
        let body = disk.load(key);
        self.lookup_disk.observe_duration(t0.elapsed());
        let body = Arc::new(body?);
        // Promote: the next lookup for this key is a memory hit.
        self.mem().insert(key.clone(), Arc::clone(&body), 1);
        Some(body)
    }

    /// Memory tier only — the cheap re-check paths (under the
    /// in-flight lock, and nothing else) use this to avoid disk I/O.
    pub fn get_mem(&self, key: &String) -> Option<Arc<String>> {
        self.mem().get(key)
    }

    /// Warms the memory tier (the disk write is separate — see
    /// [`write_behind`](Self::write_behind) — so replies never wait on
    /// the filesystem).
    pub fn insert_mem(&self, key: &str, body: &Arc<String>) {
        self.mem().insert(key.to_string(), Arc::clone(body), 1);
    }

    /// Persists to the disk tier, if one is configured. Called by the
    /// worker after every waiter has been answered.
    pub fn write_behind(&self, key: &str, body: &str) {
        if let Some(disk) = &self.disk {
            disk.store(key, body);
        }
    }

    pub fn mem_snapshot(&self) -> CacheSnapshot {
        self.mem().stats()
    }

    pub fn len(&self) -> usize {
        self.mem().len()
    }

    pub fn capacity(&self) -> usize {
        self.mem().capacity()
    }

    /// Disk counters plus resident file count, if the tier is armed.
    pub fn disk_view(&self) -> Option<(DiskSnapshot, u64)> {
        self.disk.as_ref().map(|d| (d.snapshot(), d.entries()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gem5prof-tier-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_round_trips() {
        let key = "figure:fig01:quick";
        let body = r#"{"title":"Fig. 1","rows":[1,2,3]}"#;
        let bytes = encode(key, body);
        assert_eq!(decode(&bytes, key).unwrap(), body);
        assert_eq!(decode(&bytes, "figure:fig02:quick"), Err(Reject::WrongKey));
    }

    #[test]
    fn decode_rejects_corruption_and_stale_versions() {
        let bytes = encode("k", "body");
        // Truncation, bad magic, and a flipped body byte are corrupt.
        assert_eq!(decode(&bytes[..bytes.len() - 1], "k"), Err(Reject::Corrupt));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic, "k"), Err(Reject::Corrupt));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert_eq!(decode(&flipped, "k"), Err(Reject::Corrupt));
        // A version bump makes the entry stale, not corrupt — but only
        // if the checksum still passes (version is outside the sum).
        let mut old = bytes.clone();
        old[4] = DISK_FORMAT_VERSION.wrapping_add(1);
        assert_eq!(decode(&old, "k"), Err(Reject::Stale));
        assert_eq!(decode(&[], "k"), Err(Reject::Corrupt));
    }

    #[test]
    fn disk_tier_stores_loads_and_counts_rejects() {
        let dir = tmpdir("store");
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.load("k1"), None, "cold dir misses");
        tier.store("k1", "{\"v\":1}");
        assert_eq!(tier.load("k1").as_deref(), Some("{\"v\":1}"));
        assert_eq!(tier.entries(), 1);

        // Corrupt the entry on disk: ignored and counted, then repaired
        // by the next store.
        let path = tier.path_for("k1");
        std::fs::write(&path, b"garbage").unwrap();
        assert_eq!(tier.load("k1"), None);
        tier.store("k1", "{\"v\":2}");
        assert_eq!(tier.load("k1").as_deref(), Some("{\"v\":2}"));

        // A stale-version entry is ignored and counted separately.
        let mut old = encode("k1", "{\"v\":9}");
        old[4] = DISK_FORMAT_VERSION.wrapping_add(1);
        std::fs::write(&path, old).unwrap();
        assert_eq!(tier.load("k1"), None);

        let snap = tier.snapshot();
        assert_eq!(snap.corrupt, 1);
        assert_eq!(snap.stale, 1);
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.writes, 2);
        assert_eq!(snap.write_errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiered_cache_promotes_disk_hits_to_memory() {
        let dir = tmpdir("promote");
        // Warm the disk tier through one cache, then read through a
        // fresh one (a "restarted daemon").
        {
            let warm = TieredCache::new(8, Some(&dir));
            warm.insert_mem("key", &Arc::new("{\"x\":1}".to_string()));
            warm.write_behind("key", "{\"x\":1}");
        }
        let cold = TieredCache::new(8, Some(&dir));
        let key = "key".to_string();
        let body = cold.get(&key).expect("disk tier must serve the restart");
        assert_eq!(*body, "{\"x\":1}");
        let (disk, entries) = cold.disk_view().unwrap();
        assert_eq!(disk.hits, 1);
        assert_eq!(entries, 1);
        // Promoted: the second lookup is a memory hit, not a disk read.
        let again = cold.get(&key).unwrap();
        assert_eq!(*again, "{\"x\":1}");
        let (disk, _) = cold.disk_view().unwrap();
        assert_eq!(disk.hits, 1, "promote must make the repeat a mem hit");
        assert_eq!(cold.mem_snapshot().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_cache_dir_means_no_disk_tier() {
        let c = TieredCache::new(4, None);
        assert!(c.disk_view().is_none());
        assert_eq!(c.get(&"nope".to_string()), None);
    }
}
