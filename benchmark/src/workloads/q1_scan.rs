//! `q1_scan` — TPC-H Q1, X100-style vectorized, on a scoped pool.
//! `kernels` + `storage` + `parallel::pool` do the work; `vm`, `jit`,
//! `dsl`, serving and spill do none.

use adaptvm::dsl::ScalarOp;
use adaptvm::relational::parallel::{q1_parallel_vectorized, ParallelOpts};
use adaptvm::relational::tpch::{self, Q1Row};
use adaptvm::storage::{Scalar, Table, DEFAULT_CHUNK};

use super::{Closed, Env, OpCtx, OpOutcome, MORSEL_ROWS};
use crate::probes::{FilterMapFold, ProbeInputs, ScalarLoop};

pub const ROWS: usize = 300_000;

pub struct Q1Scan {
    table: Table,
    expected: Vec<Q1Row>,
    workers: usize,
}

impl Q1Scan {
    pub fn setup(env: Env) -> Result<Q1Scan, String> {
        let table = tpch::lineitem(env.scaled(ROWS), env.seed);
        // The sequential vectorized run is the bit-exact oracle; the fused
        // reference sums in another order and confirms it to 1e-9.
        let expected = tpch::q1_vectorized(&table, DEFAULT_CHUNK);
        if !tpch::q1_results_match(&expected, &tpch::q1_reference(&table)) {
            return Err("q1: sequential vectorized run disagrees with q1_reference".into());
        }
        Ok(Q1Scan {
            table,
            expected,
            workers: env.workers,
        })
    }
}

impl Closed for Q1Scan {
    fn rows_per_op(&self) -> u64 {
        self.table.rows() as u64
    }

    fn op(&self, _i: u64, ctx: &mut OpCtx<'_>) -> OpOutcome {
        let mut opts = ParallelOpts::new(self.workers, MORSEL_ROWS);
        opts.trace = ctx.trace;
        let rows = ctx.call("relational", "q1_parallel_vectorized", || {
            q1_parallel_vectorized(&self.table, DEFAULT_CHUNK, opts)
        });
        match rows {
            Ok(rows) if rows == self.expected => OpOutcome {
                ok: true,
                ..OpOutcome::default()
            },
            Ok(_) => OpOutcome::failed("q1 result differs from the sequential oracle"),
            Err(e) => OpOutcome::failed(&format!("q1: {e}")),
        }
    }

    fn morsel_layer(&self) -> &'static str {
        "kernels"
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        let col = |name: &str| self.table.column_by_name(name).expect("lineitem schema");
        ProbeInputs {
            scan: self.table.columns().iter().collect(),
            kernels: Some(FilterMapFold {
                conjuncts: vec![(
                    ScalarOp::Le,
                    col("l_shipdate"),
                    Scalar::I64(tpch::Q1_SHIPDATE),
                )],
                map: (col("l_extendedprice"), col("l_discount")),
            }),
            scalar_loop: Some(ScalarLoop::Q1(&self.table)),
            ..ProbeInputs::default()
        }
    }
}
