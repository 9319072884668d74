//! Concurrency smoke tests: hammer the shared JIT code cache from many
//! threads at once. These tests assert invariants (no lost inserts beyond
//! capacity, consistent stats) rather than timing; under `cargo test` they double as a data-race
//! canary for the `Arc`-shared JIT structures.

use std::collections::HashMap;
use std::sync::Arc;

use adaptvm::dsl::depgraph::{scalar_uses, DepGraph};
use adaptvm::dsl::partition::Region;
use adaptvm::dsl::programs;
use adaptvm::jit::cache::TraceKey;
use adaptvm::jit::compiler::{compile, CompiledTrace, CostModel};
use adaptvm::jit::CodeCache;

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
        adaptvm::jit::build_fragment(&g, &region, &scalar_uses(body), &HashMap::new()).unwrap();
    Arc::new(compile(frag, &CostModel::untimed()))
}

fn key(fp: u64, situation: &str) -> TraceKey {
    TraceKey {
        fingerprint: fp,
        situation: situation.to_string(),
    }
}

#[test]
fn code_cache_survives_concurrent_hammering() {
    let cache = Arc::new(CodeCache::new(32));
    let trace = a_trace();
    let threads = 8;
    let rounds = 500;

    std::thread::scope(|s| {
        for t in 0..threads {
            let cache = cache.clone();
            let trace = trace.clone();
            s.spawn(move || {
                for i in 0..rounds {
                    let fp = ((t * rounds + i) % 48) as u64;
                    match i % 4 {
                        0 => cache.insert(key(fp, "a"), trace.clone()),
                        1 => {
                            let _ = cache.get(&key(fp, "a"));
                        }
                        2 => {
                            let _ = cache.situations(fp);
                        }
                        _ => {
                            let (_, _) = cache.get_or_compile(key(fp, "b"), || trace.clone());
                        }
                    }
                }
            });
        }
    });

    let stats = cache.stats();
    // Capacity is a hard bound even under racing inserts.
    assert!(stats.entries <= 32, "{stats:?}");
    // Every get accounted as hit or miss.
    assert!(stats.hits + stats.misses > 0);
    // The cache still works after the storm.
    cache.insert(key(999, "post"), trace.clone());
    assert!(cache.get(&key(999, "post")).is_some());
}

#[test]
fn code_cache_clear_races_with_readers() {
    let cache = Arc::new(CodeCache::new(16));
    let trace = a_trace();
    std::thread::scope(|s| {
        for t in 0..4 {
            let cache = cache.clone();
            let trace = trace.clone();
            s.spawn(move || {
                for i in 0..300 {
                    let fp = (i % 8) as u64;
                    if t == 0 && i % 50 == 0 {
                        cache.clear();
                    } else {
                        cache.insert(key(fp, "x"), trace.clone());
                        let _ = cache.get(&key(fp, "x"));
                    }
                }
            });
        }
    });
    assert!(cache.stats().entries <= 16);
}
