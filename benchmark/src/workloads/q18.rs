//! `q18_resident` and `q18_spill` — TPC-H Q18 (no VM leg): the big
//! group-by through the spillable aggregate, on the same data, once with
//! an unlimited budget (the `SpillableOp` protocol on its resident path,
//! zero spill bytes) and once under a budget that keeps half of the
//! partitions resident and spills the other half (`storage::spill` codec,
//! `parallel::scratch`, charge/settle). One operator used two ways, so a
//! spill-path gain that taxes the resident path shows.

use adaptvm::parallel::{MemoryBudget, Trace};
use adaptvm::relational::parallel::{q18_parallel, ParallelOpts};
use adaptvm::relational::tpch::{self, KeyDist, Q18Row};
use adaptvm::storage::Table;

use super::{Closed, Env, OpCtx, OpOutcome, MORSEL_ROWS};
use crate::probes::{ProbeInputs, Q18Probe};

pub const ROWS: usize = 100_000;
pub const ORDERS: usize = 25_000;
/// HAVING sum(l_quantity) > this.
pub const THRESHOLD: f64 = 300.0;
/// `q18_spill`'s budget: a little over half of the 56 B × `ROWS` the
/// aggregate charges, so 8 of the 16 partitions stay resident and 8
/// spill, with no recursion. A tighter budget is not used because every
/// further spilled partition is one more file per operation, and on the
/// reference box the cost of file creation and deletion swings fourfold
/// with the journal's backlog: at 30 files per operation (one recursion
/// level) the p50's run-to-run spread was 41 %.
pub const SPILL_BUDGET_BYTES: usize = 3 * 1024 * 1024;

pub struct Q18 {
    lineitem: Table,
    orders: Table,
    expected: Vec<Q18Row>,
    budget: Option<MemoryBudget>,
    workers: usize,
}

impl Q18 {
    pub fn setup(env: Env, spill: bool) -> Result<Q18, String> {
        Q18::with_sizes(
            env,
            env.scaled(ROWS),
            env.scaled(ORDERS),
            spill.then(|| env.scaled(SPILL_BUDGET_BYTES)),
        )
    }

    pub fn with_sizes(
        env: Env,
        rows: usize,
        n_orders: usize,
        budget_bytes: Option<usize>,
    ) -> Result<Q18, String> {
        let orders = tpch::orders(n_orders, env.seed);
        let lineitem = tpch::lineitem_q18(rows, n_orders, KeyDist::Zipf, env.seed);
        let expected = tpch::q18_reference(&lineitem, &orders, THRESHOLD);
        if expected.is_empty() {
            return Err("q18: no order passes the HAVING threshold".into());
        }
        Ok(Q18 {
            lineitem,
            orders,
            expected,
            budget: budget_bytes.map(MemoryBudget::bytes),
            workers: env.workers,
        })
    }

    pub fn rows(&self) -> usize {
        self.lineitem.rows()
    }

    /// One verified Q18 under `opts` (executor chosen by the caller).
    pub fn run<'a>(
        &'a self,
        mut opts: ParallelOpts<'a>,
        trace: Option<&'a Trace>,
        ctx: &mut OpCtx<'_>,
    ) -> OpOutcome {
        opts.trace = trace;
        if let Some(budget) = &self.budget {
            opts = opts.with_budget(budget);
        }
        let run = ctx.call("relational", "q18_parallel", || {
            q18_parallel(&self.lineitem, &self.orders, THRESHOLD, opts)
        });
        let leaked = self.budget.as_ref().map_or(0, MemoryBudget::used);
        match run {
            Ok(_) if leaked != 0 => {
                OpOutcome::failed(&format!("q18 left {leaked} budget bytes charged"))
            }
            Ok((rows, spill)) if rows == self.expected => OpOutcome {
                ok: true,
                spill: Some(spill),
                ..OpOutcome::default()
            },
            Ok(_) => OpOutcome::failed("q18 result differs from q18_reference"),
            Err(e) => OpOutcome::failed(&format!("q18: {e}")),
        }
    }
}

impl Closed for Q18 {
    fn rows_per_op(&self) -> u64 {
        self.rows() as u64
    }

    fn op(&self, _i: u64, ctx: &mut OpCtx<'_>) -> OpOutcome {
        self.run(ParallelOpts::new(self.workers, MORSEL_ROWS), ctx.trace, ctx)
    }

    fn morsel_layer(&self) -> &'static str {
        "relational"
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            scan: self.lineitem.columns().iter().collect(),
            spill_round_trip: self.budget.is_some(),
            q18: Some(Q18Probe {
                lineitem: &self.lineitem,
                budget: self.budget.as_ref(),
                workers: self.workers,
            }),
            ..ProbeInputs::default()
        }
    }
}
