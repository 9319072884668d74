//! Profiling: the feedback that drives every adaptive decision.
//!
//! §III: "the VM collects profiling information (time spent in each
//! operation, number of calls) to identify hot paths and potential targets
//! for further optimization", and §III-C: workload changes are "triggered
//! by \[the\] program itself or by profiling information".
//!
//! The profile records, per operation site (binding name or sink label):
//! call counts, tuple counts, and elapsed nanoseconds — and per filter
//! site, observed selectivity with an EWMA-based shift detector.

use std::collections::HashMap;

/// Counters for one operation site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpProfile {
    /// Invocations (chunks processed).
    pub calls: u64,
    /// Tuples processed.
    pub tuples: u64,
    /// Total elapsed nanoseconds.
    pub total_ns: u64,
}

impl OpProfile {
    /// Average nanoseconds per call.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// Average nanoseconds per tuple.
    pub fn ns_per_tuple(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.tuples as f64
        }
    }
}

/// Selectivity classes used as trace-specialization situations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelClass {
    /// Under ~5% pass rate.
    Low,
    /// Between the extremes.
    Mid,
    /// Over ~95% pass rate.
    High,
}

impl SelClass {
    /// Classify a pass rate.
    pub fn of(selectivity: f64) -> SelClass {
        if selectivity < 0.05 {
            SelClass::Low
        } else if selectivity > 0.95 {
            SelClass::High
        } else {
            SelClass::Mid
        }
    }

    /// Stable name for situation keys.
    pub fn name(self) -> &'static str {
        match self {
            SelClass::Low => "low",
            SelClass::Mid => "mid",
            SelClass::High => "high",
        }
    }
}

#[derive(Debug, Clone, Default)]
struct SelTracker {
    ewma: f64,
    observations: u64,
}

/// The run profile.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    ops: HashMap<String, OpProfile>,
    selectivity: HashMap<String, SelTracker>,
    /// Loop iterations executed.
    pub iterations: u64,
}

/// EWMA decay for selectivity tracking.
const SEL_ALPHA: f64 = 0.2;

impl Profile {
    /// Fresh profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Record one operation execution.
    pub fn record(&mut self, site: &str, ns: u64, tuples: usize) {
        // Sites repeat every chunk: only a first sighting allocates a key.
        if !self.ops.contains_key(site) {
            self.ops.insert(site.to_string(), OpProfile::default());
        }
        let p = self.ops.get_mut(site).expect("just inserted");
        p.calls += 1;
        p.tuples += tuples as u64;
        p.total_ns += ns;
    }

    /// Record an observed filter selectivity.
    pub fn record_selectivity(&mut self, site: &str, selectivity: f64) {
        if !self.selectivity.contains_key(site) {
            self.selectivity
                .insert(site.to_string(), SelTracker::default());
        }
        let t = self.selectivity.get_mut(site).expect("just inserted");
        if t.observations == 0 {
            t.ewma = selectivity;
        } else {
            t.ewma = SEL_ALPHA * selectivity + (1.0 - SEL_ALPHA) * t.ewma;
        }
        t.observations += 1;
    }

    /// Counters for one site.
    pub fn op(&self, site: &str) -> OpProfile {
        self.ops.get(site).copied().unwrap_or_default()
    }

    /// All sites with counters, sorted by total time descending (the "hot
    /// path" view the optimizer seeds from).
    pub fn hottest(&self) -> Vec<(String, OpProfile)> {
        let mut v: Vec<_> = self.ops.iter().map(|(k, p)| (k.clone(), *p)).collect();
        v.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));
        v
    }

    /// Per-site average cost per call — the measured replacement for
    /// static costs in the dependency graph ([`adaptvm_dsl::depgraph::DepGraph::apply_costs`]).
    pub fn costs(&self) -> HashMap<String, f64> {
        self.ops
            .iter()
            .map(|(k, p)| (k.clone(), p.ns_per_call()))
            .collect()
    }

    /// Smoothed selectivity of a filter site.
    pub fn selectivity(&self, site: &str) -> Option<f64> {
        self.selectivity.get(site).map(|t| t.ewma)
    }

    /// Selectivity class of a site (Mid when unobserved).
    pub fn sel_class(&self, site: &str) -> SelClass {
        self.selectivity(site).map_or(SelClass::Mid, SelClass::of)
    }

    /// Sites whose latest smoothed selectivity moved to a different class
    /// than `previous` recorded — the workload-shift signal.
    pub fn shifted_sites(&self, previous: &HashMap<String, SelClass>) -> Vec<String> {
        let mut out = Vec::new();
        for (site, tracker) in &self.selectivity {
            if let Some(&prev) = previous.get(site) {
                if SelClass::of(tracker.ewma) != prev {
                    out.push(site.clone());
                }
            }
        }
        out.sort();
        out
    }

    /// Snapshot of current selectivity classes.
    pub fn sel_classes(&self) -> HashMap<String, SelClass> {
        self.selectivity
            .iter()
            .map(|(k, t)| (k.clone(), SelClass::of(t.ewma)))
            .collect()
    }

    /// Merge another profile into this one (used by sharded runs).
    pub fn merge(&mut self, other: &Profile) {
        for (k, p) in &other.ops {
            let dst = self.ops.entry(k.clone()).or_default();
            dst.calls += p.calls;
            dst.tuples += p.tuples;
            dst.total_ns += p.total_ns;
        }
        self.iterations += other.iterations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut p = Profile::new();
        p.record("map_a", 1000, 100);
        p.record("map_a", 3000, 100);
        let op = p.op("map_a");
        assert_eq!(op.calls, 2);
        assert_eq!(op.tuples, 200);
        assert_eq!(op.ns_per_call(), 2000.0);
        assert_eq!(op.ns_per_tuple(), 20.0);
        assert_eq!(p.op("missing"), OpProfile::default());
        assert_eq!(p.op("missing").ns_per_call(), 0.0);
    }

    #[test]
    fn hottest_sorts_by_time() {
        let mut p = Profile::new();
        p.record("cheap", 10, 1);
        p.record("hot", 10_000, 1);
        p.record("warm", 500, 1);
        let h = p.hottest();
        assert_eq!(h[0].0, "hot");
        assert_eq!(h[2].0, "cheap");
        assert_eq!(p.costs()["hot"], 10_000.0);
    }

    #[test]
    fn selectivity_ewma_and_classes() {
        let mut p = Profile::new();
        p.record_selectivity("f", 0.5);
        assert_eq!(p.selectivity("f"), Some(0.5));
        assert_eq!(p.sel_class("f"), SelClass::Mid);
        // Long stream of near-zero selectivity drags the EWMA down.
        for _ in 0..50 {
            p.record_selectivity("f", 0.01);
        }
        assert!(p.selectivity("f").unwrap() < 0.05);
        assert_eq!(p.sel_class("f"), SelClass::Low);
        assert_eq!(p.sel_class("unseen"), SelClass::Mid);
    }

    #[test]
    fn shift_detection() {
        let mut p = Profile::new();
        for _ in 0..20 {
            p.record_selectivity("f", 0.01);
        }
        let snapshot = p.sel_classes();
        assert!(p.shifted_sites(&snapshot).is_empty());
        for _ in 0..50 {
            p.record_selectivity("f", 0.99);
        }
        assert_eq!(p.shifted_sites(&snapshot), vec!["f".to_string()]);
    }

    #[test]
    fn class_boundaries() {
        assert_eq!(SelClass::of(0.0), SelClass::Low);
        assert_eq!(SelClass::of(0.049), SelClass::Low);
        assert_eq!(SelClass::of(0.5), SelClass::Mid);
        assert_eq!(SelClass::of(0.951), SelClass::High);
        assert_eq!(SelClass::of(1.0), SelClass::High);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Profile::new();
        a.record("x", 100, 10);
        let mut b = Profile::new();
        b.record("x", 300, 30);
        b.record("y", 50, 5);
        b.iterations = 7;
        a.merge(&b);
        assert_eq!(a.op("x").calls, 2);
        assert_eq!(a.op("x").tuples, 40);
        assert_eq!(a.op("y").calls, 1);
        assert_eq!(a.iterations, 7);
    }
}
