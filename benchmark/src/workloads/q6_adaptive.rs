//! `q6_adaptive` — TPC-H Q6 through the adaptive VM on one long-lived
//! scheduler (shared code cache + compile server), native tier at its
//! default. `vm` interpretation and `jit` (cache, install, trace/native
//! execution) do the work.

use adaptvm::dsl::ScalarOp;
use adaptvm::parallel::Scheduler;
use adaptvm::relational::parallel::{q6_parallel, ParallelOpts};
use adaptvm::relational::tpch;
use adaptvm::storage::{Array, Scalar, ScalarType, Table};
use adaptvm::vm::{Strategy, VmConfig};

use super::{Closed, Env, OpCtx, OpOutcome, VmCounts, MORSEL_ROWS};
use crate::probes::{FilterMapFold, ProbeInputs, ProgramProbe, ScalarLoop};

pub const ROWS: usize = 120_000;
/// First day of the one-year shipdate window (as the legacy benches use).
pub const DATE_LO: i64 = 1000;

/// The buffer schema of `tpch::q6_program`: four inputs, one output.
pub const Q6_SCHEMA: [(&str, ScalarType); 5] = [
    ("l_price", ScalarType::F64),
    ("l_disc", ScalarType::F64),
    ("l_qty", ScalarType::I64),
    ("l_ship", ScalarType::I64),
    ("revenue", ScalarType::F64),
];

/// The sequential oracle's answer: one worker, pure interpretation, the
/// same morsel size (so the same summation tree), confirmed against the
/// plain-loop `q6_reference` to 1e-9.
pub fn q6_oracle(table: &Table) -> Result<f64, String> {
    let config = VmConfig {
        strategy: Strategy::Interpret,
        ..VmConfig::default()
    };
    let (revenue, _) = q6_parallel(table, DATE_LO, config, ParallelOpts::new(1, MORSEL_ROWS))
        .map_err(|e| format!("q6 oracle run: {e}"))?;
    let reference = tpch::q6_reference(table, DATE_LO);
    if (revenue - reference).abs() / reference.abs().max(1.0) >= 1e-9 {
        return Err(format!(
            "q6: sequential run {revenue} disagrees with q6_reference {reference}"
        ));
    }
    Ok(revenue)
}

/// The Q6 input columns in `Q6_SCHEMA` order.
pub fn q6_columns(table: &Table) -> [&Array; 4] {
    let col = |name: &str| table.column_by_name(name).expect("lineitem schema");
    [
        col("l_extendedprice"),
        col("l_discount"),
        col("l_quantity"),
        col("l_shipdate"),
    ]
}

/// Probe inputs shared by every workload whose operation is Q6.
pub fn q6_probe_inputs(table: &Table) -> ProbeInputs<'_> {
    let [price, disc, qty, ship] = q6_columns(table);
    ProbeInputs {
        scan: vec![price, disc, qty, ship],
        kernels: Some(FilterMapFold {
            conjuncts: vec![
                (ScalarOp::Ge, ship, Scalar::I64(DATE_LO)),
                (ScalarOp::Lt, ship, Scalar::I64(DATE_LO + 365)),
                (ScalarOp::Ge, disc, Scalar::F64(0.05)),
                (ScalarOp::Le, disc, Scalar::F64(0.07)),
                (ScalarOp::Lt, qty, Scalar::I64(24)),
            ],
            map: (price, disc),
        }),
        scalar_loop: Some(ScalarLoop::Q6 {
            price: price.as_f64().expect("f64 price"),
            disc: disc.as_f64().expect("f64 discount"),
            qty: qty.as_i64().expect("i64 quantity"),
            ship: ship.as_i64().expect("i64 shipdate"),
            date_lo: DATE_LO,
        }),
        program: Some(ProgramProbe {
            program: tpch::q6_program(table.rows() as i64, DATE_LO),
            inputs: Q6_SCHEMA
                .iter()
                .map(|(name, _)| *name)
                .zip([price, disc, qty, ship])
                .collect(),
        }),
        // `q6_parallel` parses this text once per morsel.
        dsl: Some((q6_source(table.rows()), Q6_SCHEMA.to_vec())),
        ..ProbeInputs::default()
    }
}

/// The Q6 DSL text, as `tpch::q6_program` hands it to the parser.
fn q6_source(rows: usize) -> String {
    adaptvm::dsl::printer::print_program(&tpch::q6_program(rows as i64, DATE_LO))
}

pub struct Q6Adaptive {
    table: Table,
    scheduler: Scheduler,
    expected_bits: u64,
}

impl Q6Adaptive {
    pub fn setup(env: Env) -> Result<Q6Adaptive, String> {
        let table = tpch::lineitem(env.scaled(ROWS), env.seed);
        let expected_bits = q6_oracle(&table)?.to_bits();
        Ok(Q6Adaptive {
            table,
            scheduler: Scheduler::new(env.workers),
            expected_bits,
        })
    }
}

impl Closed for Q6Adaptive {
    fn rows_per_op(&self) -> u64 {
        self.table.rows() as u64
    }

    fn op(&self, _i: u64, ctx: &mut OpCtx<'_>) -> OpOutcome {
        let mut opts = ParallelOpts::on(&self.scheduler);
        opts.morsel_rows = MORSEL_ROWS;
        opts.trace = ctx.trace;
        let config = VmConfig {
            strategy: Strategy::Adaptive,
            ..VmConfig::default()
        };
        let run = ctx.call("relational", "q6_parallel", || {
            q6_parallel(&self.table, DATE_LO, config, opts)
        });
        match run {
            Ok((revenue, report)) if revenue.to_bits() == self.expected_bits => OpOutcome {
                ok: true,
                vm: Some(VmCounts {
                    trace_executions: report.trace_executions,
                    native_executions: report.native_trace_executions,
                }),
                ..OpOutcome::default()
            },
            Ok((revenue, _)) => OpOutcome::failed(&format!(
                "q6 revenue {revenue} differs from the sequential oracle {}",
                f64::from_bits(self.expected_bits)
            )),
            Err(e) => OpOutcome::failed(&format!("q6: {e}")),
        }
    }

    fn morsel_layer(&self) -> &'static str {
        "vm"
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        q6_probe_inputs(&self.table)
    }
}
