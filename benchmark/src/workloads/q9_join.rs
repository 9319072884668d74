//! `q9_join` — TPC-H Q9: a mixed-key adaptive join chain (two i64
//! `HashTable` sides, one Utf8 `StrHashTable` side), Bloom filters on,
//! reorder decision every 2 batches. `relational` joins do the work;
//! `vm`, `jit` and spill do none. Both key types in one run, so it
//! guards a future collapse of the i64/Utf8 twins.

use adaptvm::relational::parallel::{q9_parallel, ParallelOpts};
use adaptvm::relational::tpch::{self, KeyDist, Q9Data, Q9Row};

use super::{Closed, Env, OpCtx, OpOutcome};
use crate::probes::ProbeInputs;

pub const ROWS: usize = 96_000;
pub const PARTS: usize = 200;
pub const SUPPLIERS: usize = 64;
pub const NATIONS: usize = 8;
/// Rows per probe batch (one reorder observation per join per batch).
pub const BATCH_ROWS: usize = 16_384;
/// Rows per morsel: 8 morsels per batch, so batches probe in parallel.
pub const MORSEL_ROWS: usize = 2_048;
pub const REORDER_EVERY: u64 = 2;

pub struct Q9Join {
    data: Q9Data,
    expected: Vec<Q9Row>,
    workers: usize,
}

impl Q9Join {
    pub fn setup(env: Env) -> Result<Q9Join, String> {
        let data = tpch::q9_data(
            env.scaled(ROWS),
            PARTS,
            SUPPLIERS,
            NATIONS,
            KeyDist::Zipf,
            env.seed,
        );
        let expected = tpch::q9_reference(&data);
        Ok(Q9Join {
            data,
            expected,
            workers: env.workers,
        })
    }
}

impl Closed for Q9Join {
    fn rows_per_op(&self) -> u64 {
        self.data.l_partkey.len() as u64
    }

    fn op(&self, _i: u64, ctx: &mut OpCtx<'_>) -> OpOutcome {
        let mut opts = ParallelOpts::new(self.workers, MORSEL_ROWS);
        opts.trace = ctx.trace;
        let run = ctx.call("relational", "q9_parallel", || {
            q9_parallel(&self.data, BATCH_ROWS, true, REORDER_EVERY, opts)
        });
        match run {
            Ok((rows, reorders)) if rows == self.expected => OpOutcome {
                ok: true,
                reorders: Some(reorders),
                ..OpOutcome::default()
            },
            Ok(_) => OpOutcome::failed("q9 result differs from q9_reference"),
            Err(e) => OpOutcome::failed(&format!("q9: {e}")),
        }
    }

    fn morsel_layer(&self) -> &'static str {
        "relational"
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            q9: Some((&self.data, self.workers)),
            ..ProbeInputs::default()
        }
    }
}
