//! The generic two-phase join driver: **partitioned build, shared probe**.
//!
//! Morsel-parallel hash joins decompose into two barriers, mirroring
//! HyPer's morsel-driven join pipeline (Leis et al., SIGMOD 2014):
//!
//! 1. **Build phase** — every build-side morsel is hashed independently
//!    into a private *partition* (no shared mutable state, no locks), then
//!    the partitions are merged — **in morsel order** — into one shared,
//!    read-only structure.
//! 2. **Probe phase** — every probe-side morsel probes that shared
//!    structure concurrently (reads only), and the per-morsel outputs are
//!    returned **in morsel order**.
//!
//! ## Exactness
//!
//! Because both phases run through [`Runner::run`], the same guarantees
//! hold as for every pipeline in this crate: a morsel's result depends
//! only on its row range, and both the partition merge and the output
//! assembly happen in morsel order. Hence the merged build structure and
//! the probe outputs are **independent of worker count and scheduling** —
//! with a deterministic `merge`, a run with 8 workers is observably
//! identical to a run with 1, which is itself the plain sequential loop.
//!
//! The driver is deliberately generic: the relational layer instantiates
//! `Part` with its hash-table partitions and `Shared` with the merged
//! multimap, but any two-phase build/probe shape (e.g. a Bloom filter
//! build + filtered scan) fits. Budgeted joins that may spill implement
//! [`crate::spillable::SpillableOp`] instead, whose partition / consume
//! phases are this driver's build / probe phases.

use crate::dispatch::DispatchStats;
use crate::morsel::{Morsel, MorselPlan};
use crate::pool::Runner;
use crate::scheduler::{CancelToken, RunError};

/// Dispatch statistics for the two phases of a build/probe run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildProbeStats {
    /// Work-stealing stats of the build phase.
    pub build: DispatchStats,
    /// Work-stealing stats of the probe phase.
    pub probe: DispatchStats,
    /// Build-side morsels hashed.
    pub build_morsels: usize,
    /// Probe-side morsels probed.
    pub probe_morsels: usize,
}

/// Run a partitioned build phase, merge the partitions, then a shared
/// probe phase on `runner`; return the shared structure, the per-morsel
/// probe outputs **in morsel order**, and the per-phase dispatch stats.
///
/// * `build_morsel(worker, morsel)` hashes one build-side morsel into a
///   private partition.
/// * `merge(partitions)` folds the partitions — handed over in morsel
///   order — into the shared, read-only probe structure.
/// * `probe_morsel(worker, morsel, shared)` probes one probe-side morsel.
///
/// The first error from either phase aborts the run. `cancel` is checked
/// at every morsel boundary of **both** phases: cancellation between the
/// phases skips the probe entirely; cancellation, deadlines, and admission
/// rejection surface as typed [`RunError`]s. Results are identical on
/// every [`Runner`] (both phases merge in morsel order).
#[allow(clippy::too_many_arguments)]
pub fn build_then_probe<Part, Shared, Out, E, BF, MF, PF>(
    runner: Runner<'_>,
    cancel: Option<&CancelToken>,
    build_plan: &MorselPlan,
    probe_plan: &MorselPlan,
    build_morsel: BF,
    merge: MF,
    probe_morsel: PF,
) -> Result<(Shared, Vec<Out>, BuildProbeStats), RunError<E>>
where
    Part: Send,
    Shared: Sync,
    Out: Send,
    E: Send,
    BF: Fn(usize, &Morsel) -> Result<Part, E> + Send + Sync,
    MF: FnOnce(Vec<Part>) -> Shared,
    PF: Fn(usize, &Morsel, &Shared) -> Result<Out, E> + Send + Sync,
{
    let (partitions, build) = runner.run(build_plan, cancel, &build_morsel)?;
    let shared = merge(partitions);
    let (outputs, probe) = runner.run(probe_plan, cancel, |w, m| probe_morsel(w, m, &shared))?;
    Ok((
        shared,
        outputs,
        BuildProbeStats {
            build,
            probe,
            build_morsels: build_plan.len(),
            probe_morsels: probe_plan.len(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A toy join: build a key→count map, probe counts the hits.
    fn toy_join(workers: usize) -> (HashMap<i64, usize>, Vec<usize>) {
        let build_keys: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let probe_keys: Vec<i64> = (0..2000).map(|i| i % 250).collect();
        let build_plan = MorselPlan::new(build_keys.len(), 64);
        let probe_plan = MorselPlan::new(probe_keys.len(), 128);
        let (shared, outs, stats) = build_then_probe(
            Runner::Scoped { workers },
            None,
            &build_plan,
            &probe_plan,
            |_, m| {
                let mut part: HashMap<i64, usize> = HashMap::new();
                for &k in &build_keys[m.start..m.end()] {
                    *part.entry(k).or_default() += 1;
                }
                Ok::<_, ()>(part)
            },
            |parts| {
                let mut merged: HashMap<i64, usize> = HashMap::new();
                for p in parts {
                    for (k, c) in p {
                        *merged.entry(k).or_default() += c;
                    }
                }
                merged
            },
            |_, m, shared| {
                Ok(probe_keys[m.start..m.end()]
                    .iter()
                    .map(|k| shared.get(k).copied().unwrap_or(0))
                    .sum::<usize>())
            },
        )
        .unwrap();
        assert_eq!(stats.build_morsels, build_plan.len());
        assert_eq!(stats.probe_morsels, probe_plan.len());
        assert_eq!(
            stats.build.executed.iter().sum::<u64>(),
            build_plan.len() as u64
        );
        assert_eq!(
            stats.probe.executed.iter().sum::<u64>(),
            probe_plan.len() as u64
        );
        (shared, outs)
    }

    #[test]
    fn build_then_probe_is_worker_count_invariant() {
        let (shared1, outs1) = toy_join(1);
        for workers in [2, 4, 8] {
            let (shared, outs) = toy_join(workers);
            assert_eq!(shared, shared1, "workers={workers}");
            assert_eq!(outs, outs1, "workers={workers}");
        }
        // And the sequential reference agrees.
        assert_eq!(shared1.len(), 100);
        assert_eq!(
            outs1.iter().sum::<usize>(),
            (0..2000).filter(|i| i % 250 < 100).count() * 10
        );
    }

    #[test]
    fn build_error_aborts_before_probe() {
        let plan = MorselPlan::new(100, 10);
        let probed = std::sync::atomic::AtomicBool::new(false);
        let r = build_then_probe(
            Runner::Scoped { workers: 4 },
            None,
            &plan,
            &plan,
            |_, m| {
                if m.index == 3 {
                    Err("bad build")
                } else {
                    Ok(())
                }
            },
            |_parts| (),
            |_, _, _shared| {
                probed.store(true, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            },
        );
        assert_eq!(r.unwrap_err(), RunError::Task("bad build"));
        assert!(!probed.load(std::sync::atomic::Ordering::Relaxed));
    }
}
