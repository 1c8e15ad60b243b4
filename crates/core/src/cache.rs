//! Engine-owned response cache for interactive exploration sessions.
//!
//! A user panning and zooming a map re-issues near-identical queries in a
//! tight loop.  The [`ResponseCache`] short-circuits exact repeats: a
//! completed, non-partial [`crate::engine::QueryOutcome`] is stored under a
//! canonicalized request fingerprint and replayed bit-identically (the cached
//! [`Region`]s are clones of the cold run's) when the same request arrives
//! again while the dataset epoch is unchanged.
//!
//! # Canonical fingerprints
//!
//! The key covers everything that can change the answer under one dataset
//! epoch — the algorithm with its parameters, the keywords in their original
//! order, the length budget `Q.∆`, the region of interest `Q.Λ`, and the
//! top-k setting — and nothing that cannot (deadline, tracing).  The epoch
//! rides on the stored entry instead, so epoch bumps surface as stale
//! lookups.  Floats are canonicalized through [`canon_f64`] before
//! their bit patterns enter the key, so `-0.0` and `0.0` fingerprints agree;
//! rectangle corner order is already normalised by
//! [`lcmsr_roadnet::geo::Rect::new`] at construction.  All raw
//! `f64::to_bits` keying in the engine and service crates is confined to this
//! module (enforced by the `cache_key` lint rule in `lcmsr-analysis`).
//!
//! # Bounds and invalidation
//!
//! The store is LRU-bounded by entry count and approximate byte footprint.
//! Entries carry the dataset epoch they were computed under; a lookup whose
//! entry predates the current epoch evicts it and reports
//! [`CacheLookup::Stale`], so bumping the epoch
//! ([`crate::engine::LcmsrEngine::bump_dataset_epoch`]) invalidates every
//! cached response without touching the store eagerly.

use crate::engine::QueryRequest;
use crate::region::Region;
use crate::stats::RunStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Canonicalizes a float for fingerprinting: `-0.0` maps to `0.0` so the two
/// (numerically equal) spellings share a cache key.  Every other value —
/// including NaN, which request admission rejects before keys are built — is
/// returned unchanged.
pub fn canon_f64(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// Appends the canonical bit pattern of `x` to a key buffer.
fn push_f64(key: &mut Vec<u8>, x: f64) {
    key.extend_from_slice(&canon_f64(x).to_bits().to_le_bytes());
}

/// Appends a length-prefixed byte string to a key buffer.
fn push_bytes(key: &mut Vec<u8>, bytes: &[u8]) {
    key.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    key.extend_from_slice(bytes);
}

/// Builds the canonical cache fingerprint of a request.
///
/// Two requests map to the same key exactly when — under one dataset epoch —
/// they are guaranteed to produce the same regions: same algorithm and
/// parameters, same keywords in the same order, same `∆`, same
/// (canonical) `Λ`, and the same top-k setting.  The epoch itself is carried
/// by the stored entry, not the key, so a lookup after an epoch bump finds
/// the outdated entry and reports it [`CacheLookup::Stale`] instead of
/// silently keying past it.
pub fn request_key(request: &QueryRequest<'_>) -> Vec<u8> {
    let mut key = Vec::with_capacity(96);
    match &request.algorithm {
        crate::engine::Algorithm::App(p) => {
            key.push(0);
            push_f64(&mut key, p.alpha);
            push_f64(&mut key, p.beta);
        }
        crate::engine::Algorithm::Tgen(p) => {
            key.push(1);
            push_f64(&mut key, p.alpha);
        }
        crate::engine::Algorithm::Greedy(p) => {
            key.push(2);
            push_f64(&mut key, p.mu);
        }
        crate::engine::Algorithm::Exact => key.push(3),
    }
    let query = request.query;
    key.extend_from_slice(&(query.keywords.len() as u64).to_le_bytes());
    for keyword in &query.keywords {
        push_bytes(&mut key, keyword.as_bytes());
    }
    push_f64(&mut key, query.delta);
    let rect = &query.region_of_interest;
    push_f64(&mut key, rect.min_x);
    push_f64(&mut key, rect.min_y);
    push_f64(&mut key, rect.max_x);
    push_f64(&mut key, rect.max_y);
    match request.options.k {
        Some(k) => {
            key.push(1);
            key.extend_from_slice(&(k as u64).to_le_bytes());
        }
        None => key.push(0),
    }
    key
}

/// Outcome of a cache probe.
#[derive(Debug)]
pub enum CacheLookup {
    /// The fingerprint is cached under the current epoch; the stored regions
    /// and (structural) stats are returned as clones of the cold run's
    /// (boxed: `RunStats` dwarfs the other variants).
    Hit(Vec<Region>, Box<RunStats>),
    /// The fingerprint was cached, but under an older dataset epoch; the
    /// entry has been evicted and the caller must recompute.
    Stale,
    /// The fingerprint is not cached.
    Miss,
}

/// One stored response.
#[derive(Debug)]
struct CacheEntry {
    epoch: u64,
    regions: Vec<Region>,
    stats: RunStats,
    cost: usize,
    last_used: u64,
}

/// Approximate heap footprint of a stored response, in bytes.
fn response_cost(key_len: usize, regions: &[Region]) -> usize {
    let region_bytes: usize = regions
        .iter()
        .map(|r| 64 + 8 * (r.nodes.len() + r.edges.len()))
        .sum();
    key_len + 160 + region_bytes
}

#[derive(Debug, Default)]
struct CacheStore {
    entries: BTreeMap<Vec<u8>, CacheEntry>,
    bytes: usize,
    tick: u64,
}

impl CacheStore {
    /// Evicts least-recently-used entries until both bounds hold.
    fn evict_to(&mut self, max_entries: usize, max_bytes: usize) {
        while self.entries.len() > max_entries || self.bytes > max_bytes {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                return;
            };
            if let Some(evicted) = self.entries.remove(&victim) {
                self.bytes -= evicted.cost;
            }
        }
    }
}

/// A bounded LRU cache of completed query responses, keyed by canonical
/// request fingerprints (see [`request_key`]) and invalidated wholesale by
/// dataset-epoch bumps.
///
/// Only complete (non-partial) successful outcomes are stored, so a replay is
/// always bit-identical to the cold run it clones.  Hit/miss/stale counters
/// are monotonic over the cache's lifetime.
#[derive(Debug)]
pub struct ResponseCache {
    store: Mutex<CacheStore>,
    max_entries: usize,
    max_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
}

impl Default for ResponseCache {
    fn default() -> Self {
        ResponseCache::with_limits(
            ResponseCache::DEFAULT_MAX_ENTRIES,
            ResponseCache::DEFAULT_MAX_BYTES,
        )
    }
}

impl ResponseCache {
    /// Default entry bound: plenty for one user's pan/zoom session while
    /// keeping the LRU scan trivially cheap.
    pub const DEFAULT_MAX_ENTRIES: usize = 256;
    /// Default approximate byte bound (64 MiB).
    pub const DEFAULT_MAX_BYTES: usize = 64 << 20;

    /// Creates a cache with the default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache bounded to `max_entries` entries and roughly
    /// `max_bytes` bytes of stored responses.
    pub fn with_limits(max_entries: usize, max_bytes: usize) -> Self {
        ResponseCache {
            store: Mutex::new(CacheStore::default()),
            max_entries: max_entries.max(1),
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    /// Probes the cache for `key` under the current `epoch`.
    pub fn lookup(&self, key: &[u8], epoch: u64) -> CacheLookup {
        let mut guard = self.store.lock().expect("response cache poisoned");
        let store = &mut *guard;
        store.tick += 1;
        let tick = store.tick;
        match store.entries.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                CacheLookup::Hit(entry.regions.clone(), Box::new(entry.stats.clone()))
            }
            Some(_) => {
                if let Some(evicted) = store.entries.remove(key) {
                    store.bytes -= evicted.cost;
                }
                self.stale.fetch_add(1, Ordering::Relaxed);
                CacheLookup::Stale
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                CacheLookup::Miss
            }
        }
    }

    /// Stores a completed response under `key`, evicting LRU entries to stay
    /// within bounds.  Callers must only pass complete, non-partial outcomes.
    pub fn insert(&self, key: Vec<u8>, epoch: u64, regions: &[Region], stats: &RunStats) {
        let cost = response_cost(key.len(), regions);
        let mut store = self.store.lock().expect("response cache poisoned");
        store.tick += 1;
        let tick = store.tick;
        if let Some(prev) = store.entries.insert(
            key,
            CacheEntry {
                epoch,
                regions: regions.to_vec(),
                stats: stats.clone(),
                cost,
                last_used: tick,
            },
        ) {
            store.bytes -= prev.cost;
        }
        store.bytes += cost;
        store.evict_to(self.max_entries, self.max_bytes);
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.store
            .lock()
            .expect("response cache poisoned")
            .entries
            .len()
    }

    /// Whether the cache holds no responses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes held by cached responses.
    pub fn bytes(&self) -> usize {
        self.store.lock().expect("response cache poisoned").bytes
    }

    /// Drops every cached response (counters are preserved).
    pub fn clear(&self) {
        let mut store = self.store.lock().expect("response cache poisoned");
        store.entries.clear();
        store.bytes = 0;
    }

    /// Lifetime count of cache hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of cache misses (fingerprint absent).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime count of stale lookups (fingerprint present under an older
    /// dataset epoch; the entry was evicted).
    pub fn stale(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, QueryRequest};
    use crate::greedy::GreedyParams;
    use crate::query::LcmsrQuery;
    use crate::tgen::TgenParams;
    use lcmsr_roadnet::geo::Rect;
    use lcmsr_roadnet::node::NodeId;

    fn region(weight: f64, nodes: usize) -> Region {
        Region {
            nodes: (0..nodes).map(|i| NodeId(i as u32)).collect(),
            edges: Vec::new(),
            length: 100.0,
            weight,
            scaled_weight: 1,
        }
    }

    #[test]
    fn canon_f64_folds_negative_zero_only() {
        assert_eq!(canon_f64(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(canon_f64(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(canon_f64(-1.5).to_bits(), (-1.5f64).to_bits());
        assert_eq!(canon_f64(3.25).to_bits(), 3.25f64.to_bits());
        assert!(canon_f64(f64::NAN).is_nan());
    }

    #[test]
    fn keys_canonicalize_signed_zero_and_swapped_corners() {
        let plus = LcmsrQuery::new(["cafe"], 100.0, Rect::new(0.0, 0.0, 10.0, 10.0)).unwrap();
        let minus = LcmsrQuery::new(["cafe"], 100.0, Rect::new(-0.0, -0.0, 10.0, 10.0)).unwrap();
        // Rect::new normalises corner order at construction; a swapped-corner
        // rect built there lands on the same canonical key.
        let swapped = LcmsrQuery::new(["cafe"], 100.0, Rect::new(10.0, 10.0, -0.0, 0.0)).unwrap();
        let alg = Algorithm::Tgen(TgenParams { alpha: 1.0 });
        let base = request_key(&QueryRequest::new(&plus, alg.clone()));
        assert_eq!(base, request_key(&QueryRequest::new(&minus, alg.clone())));
        assert_eq!(base, request_key(&QueryRequest::new(&swapped, alg.clone())));
        // …while a genuinely different rect does not.
        let other = LcmsrQuery::new(["cafe"], 100.0, Rect::new(0.0, 0.0, 11.0, 10.0)).unwrap();
        assert_ne!(base, request_key(&QueryRequest::new(&other, alg)));
    }

    #[test]
    fn keys_separate_everything_that_changes_the_answer() {
        let rect = Rect::new(0.0, 0.0, 10.0, 10.0);
        let q = LcmsrQuery::new(["cafe", "bar"], 100.0, rect).unwrap();
        let alg = Algorithm::Tgen(TgenParams { alpha: 1.0 });
        let base = request_key(&QueryRequest::new(&q, alg.clone()));
        // Keyword order is semantic for scoring input canonicalization — the
        // key preserves it verbatim.
        let reordered = LcmsrQuery::new(["bar", "cafe"], 100.0, rect).unwrap();
        assert_ne!(
            base,
            request_key(&QueryRequest::new(&reordered, alg.clone()))
        );
        // Keyword boundaries must not alias ("ca"+"febar" vs "cafe"+"bar").
        let shifted = LcmsrQuery::new(["ca", "febar"], 100.0, rect).unwrap();
        assert_ne!(base, request_key(&QueryRequest::new(&shifted, alg.clone())));
        // Budget ∆.
        let tighter = LcmsrQuery::new(["cafe", "bar"], 90.0, rect).unwrap();
        assert_ne!(base, request_key(&QueryRequest::new(&tighter, alg.clone())));
        // Algorithm and parameters.
        assert_ne!(
            base,
            request_key(&QueryRequest::new(
                &q,
                Algorithm::Greedy(GreedyParams::default())
            ))
        );
        assert_ne!(
            base,
            request_key(&QueryRequest::new(
                &q,
                Algorithm::Tgen(TgenParams { alpha: 0.5 })
            ))
        );
        // Top-k setting.
        assert_ne!(
            base,
            request_key(&QueryRequest::new(&q, alg.clone()).top_k(3))
        );
        // Deadline and tracing are execution detail, not identity.
        assert_eq!(
            base,
            request_key(
                &QueryRequest::new(&q, alg)
                    .deadline_in(std::time::Duration::from_secs(1))
                    .trace(true)
            )
        );
    }

    #[test]
    fn lookup_hits_misses_and_goes_stale_across_epochs() {
        let cache = ResponseCache::new();
        let key = vec![1u8, 2, 3];
        assert!(matches!(cache.lookup(&key, 1), CacheLookup::Miss));
        cache.insert(key.clone(), 1, &[region(1.0, 3)], &RunStats::new("TGEN"));
        let CacheLookup::Hit(regions, stats) = cache.lookup(&key, 1) else {
            panic!("expected a hit");
        };
        assert_eq!(regions.len(), 1);
        assert_eq!(stats.algorithm, "TGEN");
        // Same key under a newer epoch: the entry is stale and evicted.
        assert!(matches!(cache.lookup(&key, 2), CacheLookup::Stale));
        assert!(matches!(cache.lookup(&key, 2), CacheLookup::Miss));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.stale(), 1);
    }

    #[test]
    fn lru_eviction_respects_entry_and_byte_bounds() {
        let cache = ResponseCache::with_limits(2, usize::MAX);
        let stats = RunStats::new("TGEN");
        cache.insert(vec![1], 1, &[region(1.0, 1)], &stats);
        cache.insert(vec![2], 1, &[region(2.0, 1)], &stats);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(matches!(cache.lookup(&[1], 1), CacheLookup::Hit(..)));
        cache.insert(vec![3], 1, &[region(3.0, 1)], &stats);
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(&[1], 1), CacheLookup::Hit(..)));
        assert!(matches!(cache.lookup(&[2], 1), CacheLookup::Miss));
        assert!(matches!(cache.lookup(&[3], 1), CacheLookup::Hit(..)));

        // The byte bound evicts too: each stored region costs well over 64
        // bytes, so a tiny budget keeps at most one resident.
        let tiny = ResponseCache::with_limits(usize::MAX, 300);
        tiny.insert(vec![1], 1, &[region(1.0, 4)], &stats);
        assert_eq!(tiny.len(), 1);
        tiny.insert(vec![2], 1, &[region(2.0, 4)], &stats);
        assert!(tiny.len() <= 1, "byte bound must evict");
        assert!(tiny.bytes() <= 300);
        // Re-inserting an existing key replaces, never double-counts.
        tiny.insert(vec![2], 1, &[region(2.5, 4)], &stats);
        let bytes = tiny.bytes();
        tiny.insert(vec![2], 1, &[region(2.5, 4)], &stats);
        assert_eq!(tiny.bytes(), bytes);
        tiny.clear();
        assert!(tiny.is_empty());
        assert_eq!(tiny.bytes(), 0);
    }
}
