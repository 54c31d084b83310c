//! Sharded LRU prepared-statement cache.
//!
//! Maps query text → parsed AST plus (when the heuristic planner
//! covers the query) an annotated physical plan, so repeat queries
//! skip both parsing and planning. Entries are stamped with the
//! [`StoredDb::generation`](mct_core::StoredDb::generation) observed
//! at preparation time; a lookup under a different generation treats
//! the entry as stale and drops it, which is what makes it safe to
//! serve cached plans across updates — any write bumps the generation
//! and implicitly invalidates the whole cache.
//!
//! Sharding keeps the lock fine-grained under the worker pool:
//! [`SHARDS`] independent mutexes, query text hashed (FNV-1a) to pick
//! one. Each shard runs LRU by a per-shard logical clock; eviction is
//! a linear scan for the minimum stamp, which is fine at the small
//! per-shard capacities a plan cache wants.

use mct_obs::Counter;
use mct_query::{Expr, PathPlan};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Number of independent shards.
pub const SHARDS: usize = 8;

/// FNV-1a over `text` — picks the cache shard, and doubles as the
/// `query_hash` field of the request log (so log lines and cache
/// behavior can be correlated without logging full query text).
pub fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A prepared query: the parsed AST and, when the query is a bare
/// colored path the planner covers, its physical plan. `plan: None`
/// means "execute through the interpreter".
#[derive(Debug)]
pub struct Prepared {
    /// Parsed MCXQuery expression.
    pub expr: Expr,
    /// Physical plan, when the planner's fragment covers the query.
    pub plan: Option<PathPlan>,
    /// The query calls `createColor`, the one query form that changes
    /// the store: it runs under the write lock, every other query under
    /// the read lock.
    pub creates_color: bool,
}

struct Entry {
    generation: u64,
    last_used: u64,
    prepared: Arc<Prepared>,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    clock: u64,
}

/// The cache: see the module docs for the design.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    /// Lookups answered from the cache (`server.plan_cache.hits`).
    pub hits: Counter,
    /// Lookups that missed (`server.plan_cache.misses`); stale entries
    /// count as misses too.
    pub misses: Counter,
    /// Entries displaced by LRU (`server.plan_cache.evictions`).
    pub evictions: Counter,
    /// Entries dropped because their generation was stale
    /// (`server.plan_cache.invalidations`).
    pub invalidations: Counter,
}

impl PlanCache {
    /// A cache holding roughly `capacity` entries (split over
    /// [`SHARDS`] shards, minimum one entry per shard).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            hits: mct_obs::counter("server.plan_cache.hits"),
            misses: mct_obs::counter("server.plan_cache.misses"),
            evictions: mct_obs::counter("server.plan_cache.evictions"),
            invalidations: mct_obs::counter("server.plan_cache.invalidations"),
        }
    }

    fn shard(&self, text: &str) -> &Mutex<Shard> {
        &self.shards[(fnv1a(text) as usize) % SHARDS]
    }

    /// Fetch the prepared form of `text` if it was cached under the
    /// current store `generation`. A hit refreshes LRU recency; an
    /// entry from an older generation is removed and reported as a
    /// miss (and an invalidation).
    pub fn lookup(&self, text: &str, generation: u64) -> Option<Arc<Prepared>> {
        let mut shard = self
            .shard(text)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(text) {
            Some(e) if e.generation == generation => {
                e.last_used = clock;
                self.hits.inc();
                Some(Arc::clone(&e.prepared))
            }
            Some(_) => {
                shard.map.remove(text);
                self.invalidations.inc();
                self.misses.inc();
                None
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Store the prepared form of `text` under `generation`, evicting
    /// the least-recently-used entry of a full shard.
    pub fn insert(&self, text: &str, generation: u64, prepared: Arc<Prepared>) {
        let mut shard = self
            .shard(text)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.clock += 1;
        let clock = shard.clock;
        if !shard.map.contains_key(text) && shard.map.len() >= self.per_shard_cap {
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&victim);
                self.evictions.inc();
            }
        }
        shard.map.insert(
            text.to_string(),
            Entry {
                generation,
                last_used: clock,
                prepared,
            },
        );
    }

    /// Total cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prepared() -> Arc<Prepared> {
        Arc::new(Prepared {
            expr: mct_query::parse_query("document(\"d\")/{red}child::a").unwrap(),
            plan: None,
            creates_color: false,
        })
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = PlanCache::new(16);
        assert!(c.lookup("q1", 0).is_none());
        c.insert("q1", 0, prepared());
        assert!(c.lookup("q1", 0).is_some());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stale_generation_invalidates() {
        let c = PlanCache::new(16);
        c.insert("q1", 3, prepared());
        assert!(c.lookup("q1", 4).is_none(), "newer generation must miss");
        assert!(c.is_empty(), "stale entry is dropped eagerly");
        assert!(c.invalidations.get() >= 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_per_shard() {
        let c = PlanCache::new(SHARDS); // one entry per shard
        // Find two distinct keys landing in the same shard.
        let base = "qa".to_string();
        let mut same: Option<String> = None;
        for i in 0..1000 {
            let k = format!("q{i}");
            if std::ptr::eq(c.shard(&k), c.shard(&base)) && k != base {
                same = Some(k);
                break;
            }
        }
        let other = same.expect("some key shares qa's shard");
        c.insert(&base, 0, prepared());
        assert!(c.lookup(&base, 0).is_some());
        // cap is 1 entry per shard, so inserting `other` evicts the
        // only (and thus least-recent) resident: `base`.
        c.insert(&other, 0, prepared());
        assert!(c.lookup(&other, 0).is_some());
        assert!(c.lookup(&base, 0).is_none());
        assert!(c.evictions.get() >= 1);
    }
}
