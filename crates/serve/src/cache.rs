//! A sharded LRU cache for rendered query responses.
//!
//! Keys are canonical request strings (path + normalized query string),
//! values are the rendered JSON bodies. Sharding by key hash keeps lock
//! contention low under the thread-pool server; within a shard, a
//! monotonic tick stamps each hit and the stalest entry is evicted when
//! the shard overflows. Recency is an approximation (per-shard, O(shard)
//! eviction scan), which is exactly enough for a response cache — the
//! contract that matters is correctness: each serving generation owns its
//! cache and a snapshot swap installs a fresh one, so a cached body never
//! outlives the snapshot that rendered it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

const N_SHARDS: usize = 8;

#[derive(Default)]
struct Shard {
    entries: HashMap<String, (u64, String)>,
    tick: u64,
}

/// Sharded, capacity-bounded response cache.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl QueryCache {
    /// Creates a cache holding roughly `capacity` responses total.
    /// A zero capacity disables caching (every lookup misses).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            shards: (0..N_SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(N_SHARDS),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % N_SHARDS]
    }

    /// Looks up a rendered response, refreshing its recency on hit.
    pub fn get(&self, key: &str) -> Option<String> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let mut shard = self.shard(key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        let (stamp, body) = shard.entries.get_mut(key)?;
        *stamp = tick;
        Some(body.clone())
    }

    /// Inserts a rendered response, evicting the stalest entry in the
    /// shard if it is full.
    pub fn put(&self, key: String, body: String) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard(&key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= self.per_shard_capacity && !shard.entries.contains_key(&key) {
            if let Some(stalest) =
                shard.entries.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone())
            {
                shard.entries.remove(&stalest);
            }
        }
        shard.entries.insert(key, (tick, body));
    }

    /// Number of cached responses across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().entries.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_before_put_hit_after() {
        let cache = QueryCache::new(64);
        assert!(cache.is_empty());
        assert_eq!(cache.get("/search?drug=X"), None);
        cache.put("/search?drug=X".into(), "{}".into());
        assert_eq!(cache.get("/search?drug=X").as_deref(), Some("{}"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_prefers_stale_entries() {
        // One-entry shards: every insert into an occupied shard evicts.
        let cache = QueryCache::new(N_SHARDS);
        for i in 0..100 {
            cache.put(format!("key-{i}"), format!("body-{i}"));
        }
        assert!(cache.len() <= N_SHARDS);
        // The most recent insert in its shard must have survived.
        assert_eq!(cache.get("key-99").as_deref(), Some("body-99"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::new(0);
        cache.put("k".into(), "v".into());
        assert_eq!(cache.get("k"), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn recency_refresh_on_get_protects_hot_keys() {
        let cache = QueryCache::new(N_SHARDS * 2);
        // Two keys per shard max; touch "hot" repeatedly while streaming
        // cold keys through — hot must survive in its shard.
        cache.put("hot".into(), "H".into());
        for i in 0..200 {
            assert_eq!(cache.get("hot").as_deref(), Some("H"), "iteration {i}");
            cache.put(format!("cold-{i}"), "C".into());
        }
    }
}
