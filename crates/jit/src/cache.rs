//! Code cache: the VM's store of compiled traces, keyed by
//! (fragment fingerprint, situation).
//!
//! §III-B: "The repetition of this algorithm will eventually lead to many
//! of these traces, each optimized for a specific situation. The VM then
//! chooses — based on the current situation — a trace, if it already
//! learned about that situation, or falls back to interpretation."
//!
//! The *situation* is an opaque string the VM builds from whatever it
//! specialized on: compression schemes of the current blocks, selectivity
//! class, data types, target device. Different situations for the same
//! fragment coexist — that is the multi-trace store.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::compiler::CompiledTrace;

/// The situation key for unspecialized traces: what the engine uses when it
/// did not specialize on compression scheme, selectivity class or device.
/// Sharing the constant keeps every producer and consumer of generic traces
/// on the same cache entries.
pub const GENERIC_SITUATION: &str = "generic";

/// Cache key: fragment structure + specialization situation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Structural fingerprint of the fragment.
    pub fingerprint: u64,
    /// Situation string (e.g. `"scheme=rle;sel=low"`).
    pub situation: String,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Traces currently stored.
    pub entries: usize,
    /// Traces evicted.
    pub evictions: u64,
}

/// A bounded trace cache with FIFO eviction.
pub struct CodeCache {
    inner: RwLock<Inner>,
    capacity: usize,
}

struct Inner {
    map: HashMap<TraceKey, Arc<CompiledTrace>>,
    order: Vec<TraceKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CodeCache {
    /// A cache holding at most `capacity` traces.
    pub fn new(capacity: usize) -> CodeCache {
        CodeCache {
            inner: RwLock::new(Inner {
                map: HashMap::new(),
                order: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Look up a trace for (fingerprint, situation).
    pub fn get(&self, key: &TraceKey) -> Option<Arc<CompiledTrace>> {
        let mut inner = self.inner.write();
        match inner.map.get(key).cloned() {
            Some(t) => {
                inner.hits += 1;
                Some(t)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert a trace, evicting the oldest entry when full.
    pub fn insert(&self, key: TraceKey, trace: Arc<CompiledTrace>) {
        let mut inner = self.inner.write();
        if !inner.map.contains_key(&key) {
            if inner.order.len() >= self.capacity {
                let victim = inner.order.remove(0);
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
            inner.order.push(key.clone());
        }
        inner.map.insert(key, trace);
    }

    /// All situations cached for one fragment (the multi-trace view).
    pub fn situations(&self, fingerprint: u64) -> Vec<String> {
        let inner = self.inner.read();
        let mut v: Vec<String> = inner
            .map
            .keys()
            .filter(|k| k.fingerprint == fingerprint)
            .map(|k| k.situation.clone())
            .collect();
        v.sort();
        v
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.read();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            evictions: inner.evictions,
        }
    }

    /// Drop every cached trace (used on workload shifts that invalidate
    /// specializations wholesale).
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        inner.map.clear();
        inner.order.clear();
    }

    /// Look up a trace, compiling and inserting it on a miss.
    ///
    /// This is the shared-cache fast path for parallel execution: the first
    /// worker to reach a fragment pays the compile cost, every other worker
    /// reuses the trace. Note the compile runs *outside* the cache lock, so
    /// two workers racing on the same cold key may both compile; the cache
    /// stays consistent (last insert wins, both traces are equivalent) and
    /// no worker ever blocks behind another's compilation.
    pub fn get_or_compile(
        &self,
        key: TraceKey,
        compile: impl FnOnce() -> Arc<CompiledTrace>,
    ) -> (Arc<CompiledTrace>, bool) {
        if let Some(hit) = self.get(&key) {
            return (hit, true);
        }
        let trace = compile();
        self.insert(key, trace.clone());
        (trace, false)
    }
}

impl std::fmt::Debug for CodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CodeCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CostModel};
    use adaptvm_dsl::depgraph::{scalar_uses, DepGraph};
    use adaptvm_dsl::partition::Region;
    use adaptvm_dsl::programs;
    use std::collections::HashMap as Map;

    fn a_trace() -> Arc<CompiledTrace> {
        let p = programs::fig2_example();
        let body = programs::loop_body(&p).unwrap();
        let g = DepGraph::from_stmts(body);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        let frag =
            crate::builder::build_fragment(&g, &region, &scalar_uses(body), &Map::new()).unwrap();
        Arc::new(compile(frag, &CostModel::untimed()))
    }

    fn key(fp: u64, sit: &str) -> TraceKey {
        TraceKey {
            fingerprint: fp,
            situation: sit.to_string(),
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = CodeCache::new(4);
        let t = a_trace();
        assert!(cache.get(&key(1, "a")).is_none());
        cache.insert(key(1, "a"), t.clone());
        assert!(cache.get(&key(1, "a")).is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn multi_trace_per_fragment() {
        let cache = CodeCache::new(8);
        let t = a_trace();
        cache.insert(key(7, "scheme=rle"), t.clone());
        cache.insert(key(7, "scheme=dict"), t.clone());
        cache.insert(key(8, "scheme=rle"), t);
        assert_eq!(
            cache.situations(7),
            vec!["scheme=dict".to_string(), "scheme=rle".to_string()]
        );
        assert_eq!(cache.situations(9), Vec::<String>::new());
    }

    #[test]
    fn fifo_eviction() {
        let cache = CodeCache::new(2);
        let t = a_trace();
        cache.insert(key(1, "a"), t.clone());
        cache.insert(key(2, "a"), t.clone());
        cache.insert(key(3, "a"), t);
        assert!(cache.get(&key(1, "a")).is_none(), "oldest evicted");
        assert!(cache.get(&key(3, "a")).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let cache = CodeCache::new(2);
        let t = a_trace();
        cache.insert(key(1, "a"), t.clone());
        cache.insert(key(1, "a"), t);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn clear_empties() {
        let cache = CodeCache::new(2);
        cache.insert(key(1, "a"), a_trace());
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(&key(1, "a")).is_none());
    }
}
