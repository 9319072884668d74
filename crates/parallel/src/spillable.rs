//! The operator-generic out-of-core driver: **[`SpillableOp`]**.
//!
//! PR 5 taught the join driver to spill; this module factors that
//! charge → spill → settle protocol out of the join so *any*
//! memory-hungry operator — grace-hash joins, out-of-core hash
//! aggregation, external merge sort — speaks one budget protocol and the
//! serve layer can hand any query shape a per-tenant [`MemoryBudget`].
//!
//! ## The protocol
//!
//! [`run_spillable`] drives an operator through four steps:
//!
//! 1. **Partition** (morsel-parallel) — [`SpillableOp::partition_morsel`]
//!    turns each input morsel into a private partition fragment; the
//!    fragments are handed over **in morsel order**.
//! 2. **Charge** (sequential) — [`SpillableOp::charge`] folds the
//!    fragments into the operator's shared state, charging the
//!    [`MemoryBudget`] for whatever it keeps resident and **spilling**
//!    what does not fit to run files ([`adaptvm_storage::spill`]),
//!    recording what happened in [`SpillStats`].
//! 3. **Consume** (morsel-parallel, optional) — when
//!    [`SpillableOp::consume_plan`] returns a plan, every morsel of a
//!    second input probes the shared state read-only
//!    ([`SpillableOp::consume_morsel`]); joins probe here, while
//!    aggregation and sort have no second input and skip the phase
//!    entirely (no admission round-trip, no barrier).
//! 4. **Settle** (sequential) — [`SpillableOp::settle`] takes the shared
//!    state **by value** (so it can drop resident structures and return
//!    their budget charges), resolves every spilled run — recursively
//!    re-partitioning what still does not fit — and folds everything
//!    into the final output. The [`SpillCheckpoint`] must be consulted
//!    between spill runs so cancellation and serve-layer deadlines keep
//!    binding through long out-of-core tails.
//!
//! ## Exactness
//!
//! The driver adds no nondeterminism of its own: partition fragments
//! arrive at `charge` in morsel order and consume outputs arrive at
//! `settle` in morsel order, exactly like the in-memory
//! [`crate::join::build_then_probe`] driver. An operator whose hooks are
//! deterministic functions of those ordered inputs is bit-identical to
//! its sequential oracle at any budget, worker count, and morsel size —
//! the invariant every implementation in `adaptvm_relational`
//! (`spill`, `sort`) is tested against.
//!
//! ## Error and budget safety
//!
//! The first error from any phase aborts the run; the shared state (and
//! any [`crate::budget::BudgetLease`]s it holds) is dropped on every
//! exit path, so an aborted query returns its whole charge.

use crate::budget::MemoryBudget;
use crate::dispatch::DispatchStats;
use crate::join::BuildProbeStats;
use crate::morsel::{Morsel, MorselPlan};
use crate::pool::Runner;
use crate::scheduler::{CancelReason, CancelToken, RunError};

/// What the out-of-core path of a budgeted operator did: how much
/// spilled, how much disk traffic it cost, and how deep the grace-hash
/// recursion went. All zero when everything fit in memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Partitions whose build/input rows went to disk instead of a
    /// resident structure (counting recursive sub-partitions; for the
    /// external sort, sorted runs written to disk).
    pub partitions_spilled: usize,
    /// Probe-side partitions whose deferred rows went to disk because
    /// even the row-index list did not fit the budget (joins only).
    pub probe_partitions_spilled: usize,
    /// Run files written.
    pub runs_written: usize,
    /// Bytes appended to run files.
    pub bytes_written: u64,
    /// Bytes read back from run files.
    pub bytes_read: u64,
    /// Deepest grace-hash recursion level reached (0 = no recursion:
    /// every spilled partition fit on its first rebuild).
    pub max_recursion_depth: usize,
    /// Partitions built despite a failing budget charge because they
    /// could not be split further (all rows share one hash) or the
    /// recursion bottomed out.
    pub forced_builds: usize,
}

impl SpillStats {
    /// True when any partition spilled (either side).
    pub fn spilled(&self) -> bool {
        self.partitions_spilled > 0 || self.probe_partitions_spilled > 0
    }
}

/// The cooperative interruption check a settle phase runs **between spill
/// runs**: out-of-core settling happens after the morsel-parallel phases,
/// so the per-morsel cancellation checks no longer fire — this is their
/// sequential counterpart, keeping serve-layer deadlines binding while an
/// operator grinds through spilled partitions.
#[derive(Debug, Clone, Copy)]
pub struct SpillCheckpoint<'a> {
    cancel: Option<&'a CancelToken>,
}

impl<'a> SpillCheckpoint<'a> {
    /// A checkpoint over an optional token (no token = never fires).
    pub fn new(cancel: Option<&'a CancelToken>) -> SpillCheckpoint<'a> {
        SpillCheckpoint { cancel }
    }

    /// Fail typed once the token fired.
    pub fn check<E>(&self) -> Result<(), RunError<E>> {
        match self.cancel.map(CancelToken::check) {
            Some(Err(CancelReason::Cancelled)) => Err(RunError::Cancelled),
            Some(Err(CancelReason::DeadlineExceeded)) => Err(RunError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// One memory-governed operator under the charge → spill → settle
/// protocol; [`run_spillable`] is the only driver. See the module docs
/// for the phase contract each hook must uphold.
pub trait SpillableOp {
    /// A private per-morsel partition fragment (phase 1 output).
    type Partition: Send;
    /// The merged shared state probed read-only by phase 3; holds the
    /// RAII budget leases of everything resident.
    type Shared: Sync;
    /// One consume-morsel output (phase 3).
    type Out: Send;
    /// The settled final output (phase 4).
    type Settled;
    /// The operator's error type.
    type Error: Send;

    /// The morsel plan of the primary input (partitioned in phase 1).
    fn input_plan(&self) -> &MorselPlan;

    /// The morsel plan of the secondary input (probed in phase 3), or
    /// `None` when the operator has no consume phase (aggregation,
    /// sort) — the driver then skips phase 3 entirely.
    fn consume_plan(&self) -> Option<&MorselPlan> {
        None
    }

    /// Phase 1: turn one input morsel into a private partition fragment.
    fn partition_morsel(
        &self,
        worker: usize,
        morsel: &Morsel,
    ) -> Result<Self::Partition, Self::Error>;

    /// Phase 2: fold the fragments (in morsel order) into the shared
    /// state, charging `budget` for whatever stays resident and spilling
    /// the rest.
    fn charge(
        &mut self,
        partitions: Vec<Self::Partition>,
        budget: &MemoryBudget,
        stats: &mut SpillStats,
    ) -> Result<Self::Shared, Self::Error>;

    /// Phase 3: probe the shared state with one morsel of the secondary
    /// input. Only called when [`SpillableOp::consume_plan`] returns a
    /// plan; the default panics to catch drivers calling it anyway.
    fn consume_morsel(
        &self,
        _worker: usize,
        _morsel: &Morsel,
        _shared: &Self::Shared,
    ) -> Result<Self::Out, Self::Error> {
        unreachable!("operator declared no consume phase (consume_plan() == None)")
    }

    /// Phase 4: take the shared state by value, resolve every spilled
    /// run (consulting `checkpoint` between runs), and fold the consume
    /// outputs (in morsel order) into the final result.
    fn settle(
        &mut self,
        shared: Self::Shared,
        outs: Vec<Self::Out>,
        budget: &MemoryBudget,
        stats: &mut SpillStats,
        checkpoint: &SpillCheckpoint<'_>,
    ) -> Result<Self::Settled, RunError<Self::Error>>;
}

/// Drive one [`SpillableOp`] through partition → charge → consume →
/// settle on `runner`, with `cancel` checked at every morsel boundary of
/// the parallel phases and between spill runs of the settle phase.
///
/// Returns the settled output, the per-phase dispatch stats (the consume
/// phase reads all-zero when the operator has none), and the
/// [`SpillStats`].
pub fn run_spillable<Op>(
    op: &mut Op,
    runner: Runner<'_>,
    cancel: Option<&CancelToken>,
    budget: &MemoryBudget,
) -> Result<(Op::Settled, BuildProbeStats, SpillStats), RunError<Op::Error>>
where
    Op: SpillableOp + Sync,
{
    let mut spill = SpillStats::default();
    let input_morsels = op.input_plan().len();
    let (partitions, build) = {
        let op: &Op = op;
        runner.run(op.input_plan(), cancel, |w, m| op.partition_morsel(w, m))?
    };
    let shared = op
        .charge(partitions, budget, &mut spill)
        .map_err(RunError::Task)?;
    let (outs, probe, consume_morsels) = {
        let op: &Op = op;
        match op.consume_plan() {
            Some(plan) => {
                let (outs, stats) =
                    runner.run(plan, cancel, |w, m| op.consume_morsel(w, m, &shared))?;
                let n = plan.len();
                (outs, stats, n)
            }
            None => (Vec::new(), DispatchStats::default(), 0),
        }
    };
    let checkpoint = SpillCheckpoint::new(cancel);
    let settled = op.settle(shared, outs, budget, &mut spill, &checkpoint)?;
    Ok((
        settled,
        BuildProbeStats {
            build,
            probe,
            build_morsels: input_morsels,
            probe_morsels: consume_morsels,
        },
        spill,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetLease;

    /// A toy consume-less operator: sums its input, "spilling" (counting)
    /// every value the budget refuses.
    struct SumOp {
        data: Vec<i64>,
        plan: MorselPlan,
    }

    impl SpillableOp for SumOp {
        type Partition = i64;
        type Shared = (i64, usize);
        type Out = ();
        type Settled = (i64, usize);
        type Error = ();

        fn input_plan(&self) -> &MorselPlan {
            &self.plan
        }

        fn partition_morsel(&self, _w: usize, m: &Morsel) -> Result<i64, ()> {
            Ok(self.data[m.start..m.end()].iter().sum())
        }

        fn charge(
            &mut self,
            parts: Vec<i64>,
            budget: &MemoryBudget,
            stats: &mut SpillStats,
        ) -> Result<(i64, usize), ()> {
            let mut sum = 0;
            let mut refused = 0;
            for p in parts {
                if budget.try_charge(8).is_ok() {
                    sum += p;
                } else {
                    stats.partitions_spilled += 1;
                    refused += 1;
                    sum += p;
                }
            }
            Ok((sum, refused))
        }

        fn settle(
            &mut self,
            shared: (i64, usize),
            outs: Vec<()>,
            budget: &MemoryBudget,
            _stats: &mut SpillStats,
            checkpoint: &SpillCheckpoint<'_>,
        ) -> Result<(i64, usize), RunError<()>> {
            checkpoint.check()?;
            assert!(outs.is_empty(), "no consume phase was declared");
            budget.release(budget.used());
            Ok(shared)
        }
    }

    #[test]
    fn consume_less_op_skips_phase_three() {
        let budget = MemoryBudget::bytes(2 * 8);
        let data: Vec<i64> = (0..100).collect();
        let plan = MorselPlan::new(data.len(), 10);
        let mut op = SumOp { data, plan };
        let ((sum, refused), stats, spill) =
            run_spillable(&mut op, Runner::Scoped { workers: 4 }, None, &budget).unwrap();
        assert_eq!(sum, (0..100).sum::<i64>());
        assert_eq!(refused, 8, "10 morsels, 2 fit the budget");
        assert_eq!(spill.partitions_spilled, 8);
        assert!(spill.spilled());
        assert_eq!(stats.build_morsels, 10);
        assert_eq!(stats.probe_morsels, 0, "no consume phase");
        assert_eq!(stats.probe, DispatchStats::default());
        assert_eq!(budget.used(), 0);
    }

    /// A join-shaped operator whose shared state is a budget lease and
    /// whose consume phase fails at morsel 3.
    struct FailingProbeOp<'a> {
        budget: &'a MemoryBudget,
        plan: MorselPlan,
    }

    impl<'a> SpillableOp for FailingProbeOp<'a> {
        type Partition = ();
        type Shared = BudgetLease<'a>;
        type Out = ();
        type Settled = ();
        type Error = &'static str;

        fn input_plan(&self) -> &MorselPlan {
            &self.plan
        }

        fn consume_plan(&self) -> Option<&MorselPlan> {
            Some(&self.plan)
        }

        fn partition_morsel(&self, _w: usize, _m: &Morsel) -> Result<(), &'static str> {
            Ok(())
        }

        fn charge(
            &mut self,
            _parts: Vec<()>,
            _budget: &MemoryBudget,
            _stats: &mut SpillStats,
        ) -> Result<BudgetLease<'a>, &'static str> {
            Ok(self.budget.lease(600).expect("fits"))
        }

        fn consume_morsel(
            &self,
            _w: usize,
            m: &Morsel,
            _lease: &BudgetLease<'a>,
        ) -> Result<(), &'static str> {
            match m.index {
                3 => Err("probe blew up"),
                _ => Ok(()),
            }
        }

        fn settle(
            &mut self,
            _lease: BudgetLease<'a>,
            _outs: Vec<()>,
            _budget: &MemoryBudget,
            _stats: &mut SpillStats,
            _checkpoint: &SpillCheckpoint<'_>,
        ) -> Result<(), RunError<&'static str>> {
            unreachable!("the consume phase fails first")
        }
    }

    #[test]
    fn consume_phase_error_releases_lease_held_by_shared_state() {
        // The RAII contract the out-of-core joins rely on: when the
        // consume phase aborts, the driver drops the charged Shared state
        // — any BudgetLease it holds must return its charge.
        let budget = MemoryBudget::bytes(1_000);
        let mut op = FailingProbeOp {
            budget: &budget,
            plan: MorselPlan::new(64, 8),
        };
        let r = run_spillable(&mut op, Runner::Scoped { workers: 2 }, None, &budget);
        assert!(matches!(r, Err(RunError::Task("probe blew up"))));
        assert_eq!(budget.used(), 0, "dropped Shared must release its lease");
    }

    #[test]
    fn spill_checkpoint_reports_token_state_typed() {
        let quiet = SpillCheckpoint::new(None);
        assert!(quiet.check::<()>().is_ok());
        let token = CancelToken::new();
        let live = SpillCheckpoint::new(Some(&token));
        assert!(live.check::<()>().is_ok());
        token.cancel();
        assert!(matches!(live.check::<()>(), Err(RunError::Cancelled)));
    }

    #[test]
    fn pre_cancelled_run_fails_typed_before_charging() {
        let budget = MemoryBudget::bytes(1 << 20);
        let token = CancelToken::new();
        token.cancel();
        let mut op = SumOp {
            data: vec![1; 64],
            plan: MorselPlan::new(64, 8),
        };
        let r = run_spillable(
            &mut op,
            Runner::Scoped { workers: 2 },
            Some(&token),
            &budget,
        );
        assert!(matches!(r, Err(RunError::Cancelled)));
        assert_eq!(budget.used(), 0);
    }
}
