//! Digest-keyed bounded response cache.
//!
//! Parsing is deterministic per engine (the repo's determinism suite
//! guarantees it), so a response is fully determined by the request
//! digest: resolved engine, sentence text, and the request's canonical
//! [`cdg_core::EngineConfig::encode`] string — one identity field per
//! config key, for free, because the encoder is the same table the
//! decoder used. The cache stores
//! the *rendered response core* (status + result fields, minus the
//! per-delivery `cached=`/`retries=`/`wall_us=` fields, which the server
//! re-appends) — no grammar-borrowing state, so it is trivially shareable.
//!
//! Fault-injected requests are never cached: their responses depend on
//! the fault plan's interaction with retry timing, and serving a stale
//! fault to a healthy machine (or vice versa) would be a lie.
//!
//! Eviction is FIFO by insertion. For a parse service the win is repeated
//! identical sentences (health checks, hot queries), where FIFO ≈ LRU at
//! a fraction of the bookkeeping; capacity bounds memory, which is the
//! robustness requirement.

use std::collections::{HashMap, VecDeque};

/// FNV-1a digest of a request's identity: resolved engine name, sentence
/// text, and the canonical config encoding. Field order is fixed; a `\0`
/// separator keeps `("ab","c")` distinct from `("a","bc")`.
pub fn request_digest(engine: &str, text: &str, config_spec: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash ^= 0;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    eat(engine.as_bytes());
    eat(text.as_bytes());
    eat(config_spec.as_bytes());
    hash
}

/// Bounded FIFO map from request digest to rendered response core.
pub struct ResponseCache {
    capacity: usize,
    map: HashMap<u64, String>,
    order: VecDeque<u64>,
}

impl ResponseCache {
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn get(&self, digest: u64) -> Option<&str> {
        self.map.get(&digest).map(String::as_str)
    }

    /// Insert, evicting the oldest entry at capacity. A capacity-0 cache
    /// stores nothing (caching disabled).
    pub fn insert(&mut self, digest: u64, response_core: String) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(digest, response_core).is_none() {
            self.order.push_back(digest);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_every_identity_field() {
        let base = request_digest("serial", "the dog runs", "");
        assert_eq!(request_digest("serial", "the dog runs", ""), base);
        assert_ne!(request_digest("maspar", "the dog runs", ""), base);
        assert_ne!(request_digest("serial", "the cat runs", ""), base);
        // Any config key flows in through the canonical encoding.
        assert_ne!(
            request_digest("serial", "the dog runs", "budget=ms=50"),
            base
        );
        assert_ne!(request_digest("serial", "the dog runs", "parses=5"), base);
        assert_ne!(
            request_digest("serial", "the dog runs", "filter=naive"),
            base
        );
        // Concatenation boundaries matter.
        assert_ne!(
            request_digest("serial", "ab", "c"),
            request_digest("serial", "a", "bc")
        );
    }

    #[test]
    fn cache_hits_and_misses() {
        let mut cache = ResponseCache::new(4);
        let d = request_digest("serial", "x", "");
        assert!(cache.get(d).is_none());
        cache.insert(d, "OK accepted=true".into());
        assert_eq!(cache.get(d), Some("OK accepted=true"));
    }

    #[test]
    fn capacity_bounds_memory_fifo_eviction() {
        let mut cache = ResponseCache::new(2);
        cache.insert(1, "a".into());
        cache.insert(2, "b".into());
        cache.insert(3, "c".into());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_none(), "oldest entry evicted");
        assert_eq!(cache.get(2), Some("b"));
        assert_eq!(cache.get(3), Some("c"));
        // Re-inserting an existing digest doesn't duplicate the order slot.
        cache.insert(3, "c2".into());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(3), Some("c2"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResponseCache::new(0);
        cache.insert(7, "never".into());
        assert!(cache.is_empty());
        assert!(cache.get(7).is_none());
    }
}
