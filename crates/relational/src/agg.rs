//! Hash aggregation with adaptively triggered pre-aggregation.
//!
//! The paper (§I, citing its \[12\]) credits part of the vectorized TPC-H Q1
//! win to "an adaptively triggered pre-aggregation": when the group count
//! observed in recent chunks is small, each chunk first aggregates into a
//! tiny local table (cache-resident, branch-predictable) that is then
//! merged into the global one; when groups are many, chunks go straight to
//! the global hash table. [`AdaptiveAggregator`] makes that decision per
//! chunk from observed distinct-group counts.

use std::collections::HashMap;

use adaptvm_kernels::hash::WordMap;

/// Aggregate state per group.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupState {
    /// Row count.
    pub count: i64,
    /// Sum of the value column.
    pub sum: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl GroupState {
    /// Fold one value into the state.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Merge another partial state (used by pre-aggregation).
    pub fn merge(&mut self, other: &GroupState) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Fold one value stored as raw `f64` bits in an `i64` column — the
    /// encoding the out-of-core aggregation's spill runs use
    /// (`f64::to_bits` roundtrips NaNs and signed zeros exactly, so a
    /// spilled group observes bit-identical values in the same order as
    /// a resident one).
    #[inline]
    pub fn observe_bits(&mut self, bits: i64) {
        self.observe(f64::from_bits(bits as u64));
    }

    /// Average value.
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The sequential **row-order aggregation oracle**: every row observed in
/// input order into its group's [`GroupState`], results sorted by key.
/// The out-of-core aggregation (`crate::spill`) is bit-identical to this
/// fold at any budget, worker count, and morsel size, because each group's
/// rows are observed one by one in global row order no matter which
/// partition they land in or whether that partition spilled. It keeps
/// `std`'s `HashMap` and hasher, so it stays independent of the
/// [`WordMap`] the engine's own group tables use.
pub fn aggregate_rows(keys: &[i64], values: &[f64]) -> Vec<(i64, GroupState)> {
    assert_eq!(keys.len(), values.len());
    let mut global: HashMap<i64, GroupState> = HashMap::new();
    for (&k, &v) in keys.iter().zip(values) {
        global.entry(k).or_default().observe(v);
    }
    let mut out: Vec<(i64, GroupState)> = global.into_iter().collect();
    out.sort_by_key(|&(k, _)| k);
    out
}

/// Pre-aggregation decision modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreAgg {
    /// Never pre-aggregate.
    Off,
    /// Always pre-aggregate.
    On,
    /// Decide per chunk from the observed group count (the paper's
    /// "adaptively triggered" variant).
    Adaptive,
}

/// Group count below which local pre-aggregation pays off.
const PREAGG_GROUP_LIMIT: usize = 64;

/// A grouped aggregator over (key, value) chunk pairs.
#[derive(Debug)]
pub struct AdaptiveAggregator {
    mode: PreAgg,
    global: WordMap<i64, GroupState>,
    /// EWMA of per-chunk distinct group counts.
    group_estimate: f64,
    chunks: u64,
    preagg_used: u64,
}

impl AdaptiveAggregator {
    /// Aggregator in the given mode.
    pub fn new(mode: PreAgg) -> AdaptiveAggregator {
        AdaptiveAggregator {
            mode,
            global: WordMap::default(),
            group_estimate: 0.0,
            chunks: 0,
            preagg_used: 0,
        }
    }

    /// Feed one chunk.
    pub fn push_chunk(&mut self, keys: &[i64], values: &[f64]) {
        assert_eq!(keys.len(), values.len());
        self.chunks += 1;
        let use_preagg = match self.mode {
            PreAgg::Off => false,
            PreAgg::On => true,
            PreAgg::Adaptive => {
                // Until we have evidence, try pre-aggregation; afterwards,
                // require a small observed group count.
                self.chunks == 1 || self.group_estimate <= PREAGG_GROUP_LIMIT as f64
            }
        };
        let distinct = if use_preagg {
            self.preagg_used += 1;
            // Local pre-aggregation into a small table, then merge.
            let mut local: WordMap<i64, GroupState> = WordMap::default();
            for (&k, &v) in keys.iter().zip(values) {
                local.entry(k).or_default().observe(v);
            }
            let distinct = local.len();
            for (k, s) in local {
                self.global.entry(k).or_default().merge(&s);
            }
            distinct
        } else {
            // Straight to the global table; estimate distinct cheaply by
            // sampling the chunk.
            for (&k, &v) in keys.iter().zip(values) {
                self.global.entry(k).or_default().observe(v);
            }
            estimate_distinct(keys)
        };
        let alpha = 0.3;
        self.group_estimate = if self.chunks == 1 {
            distinct as f64
        } else {
            alpha * distinct as f64 + (1.0 - alpha) * self.group_estimate
        };
    }

    /// Results sorted by key.
    pub fn finish(&self) -> Vec<(i64, GroupState)> {
        let mut v: Vec<_> = self.global.iter().map(|(&k, &s)| (k, s)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// How many chunks used local pre-aggregation.
    pub fn preagg_used(&self) -> u64 {
        self.preagg_used
    }

    /// Total chunks consumed.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }
}

/// Cheap distinct estimate: exact over a 256-row sample prefix.
fn estimate_distinct(keys: &[i64]) -> usize {
    let sample = &keys[..keys.len().min(256)];
    let mut seen: Vec<i64> = sample.to_vec();
    seen.sort_unstable();
    seen.dedup();
    if sample.len() == keys.len() {
        seen.len()
    } else {
        // Scale the sample estimate, capped by the sample's information.
        (seen.len() as f64 * (keys.len() as f64 / sample.len() as f64).sqrt()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(mode: PreAgg, keys: &[i64], values: &[f64], chunk: usize) -> AdaptiveAggregator {
        let mut agg = AdaptiveAggregator::new(mode);
        let mut i = 0;
        while i < keys.len() {
            let end = (i + chunk).min(keys.len());
            agg.push_chunk(&keys[i..end], &values[i..end]);
            i = end;
        }
        agg
    }

    fn workload(n: usize, groups: i64) -> (Vec<i64>, Vec<f64>) {
        let keys: Vec<i64> = (0..n as i64).map(|i| i % groups).collect();
        let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        (keys, values)
    }

    #[test]
    fn all_modes_agree() {
        let (keys, values) = workload(10_000, 7);
        let reference = feed(PreAgg::Off, &keys, &values, 1024).finish();
        for mode in [PreAgg::On, PreAgg::Adaptive] {
            let result = feed(mode, &keys, &values, 1024).finish();
            assert_eq!(result, reference, "{mode:?}");
        }
        assert_eq!(reference.len(), 7);
        let total: i64 = reference.iter().map(|(_, s)| s.count).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn group_state_math() {
        let (keys, values) = workload(100, 4);
        let agg = feed(PreAgg::Off, &keys, &values, 32);
        let results = agg.finish();
        let (k0, s0) = results[0];
        assert_eq!(k0, 0);
        assert_eq!(s0.count, 25);
        assert_eq!(s0.min, 0.0);
        assert_eq!(s0.max, 96.0);
        let expected_sum: f64 = (0..100).filter(|i| i % 4 == 0).map(|i| i as f64).sum();
        assert_eq!(s0.sum, expected_sum);
        assert!((s0.avg() - expected_sum / 25.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_uses_preagg_for_few_groups() {
        let (keys, values) = workload(50_000, 6);
        let agg = feed(PreAgg::Adaptive, &keys, &values, 1024);
        // After the first probe chunk, every chunk should pre-aggregate.
        assert_eq!(agg.preagg_used(), agg.chunks());
    }

    #[test]
    fn adaptive_disables_preagg_for_many_groups() {
        // Every key distinct: pre-aggregation is pure overhead.
        let keys: Vec<i64> = (0..50_000).collect();
        let values: Vec<f64> = keys.iter().map(|&k| k as f64).collect();
        let agg = feed(PreAgg::Adaptive, &keys, &values, 1024);
        assert!(
            agg.preagg_used() <= 2,
            "high-cardinality groups must disable pre-aggregation (used {} of {})",
            agg.preagg_used(),
            agg.chunks()
        );
        // Still correct.
        assert_eq!(agg.finish().len(), 50_000);
    }

    #[test]
    fn adaptive_reacts_to_group_count_shift() {
        let mut agg = AdaptiveAggregator::new(PreAgg::Adaptive);
        // Phase 1: many groups → preagg off.
        for c in 0..20 {
            let keys: Vec<i64> = (0..1024).map(|i| c * 10_000 + i).collect();
            let values = vec![1.0; 1024];
            agg.push_chunk(&keys, &values);
        }
        let used_phase1 = agg.preagg_used();
        // Phase 2: few groups → estimate decays → preagg back on.
        for _ in 0..30 {
            let keys: Vec<i64> = (0..1024).map(|i| i % 4).collect();
            let values = vec![1.0; 1024];
            agg.push_chunk(&keys, &values);
        }
        assert!(
            agg.preagg_used() > used_phase1,
            "pre-aggregation should re-enable after the shift"
        );
    }

    #[test]
    fn empty_chunks_are_fine() {
        let mut agg = AdaptiveAggregator::new(PreAgg::Adaptive);
        agg.push_chunk(&[], &[]);
        assert!(agg.finish().is_empty());
    }
}
