//! `serve_mix` — open loop: seeded Poisson arrivals, at a fixed share of
//! the capacity measured in the same run, through one `QueryService` with
//! three tenants. Interactive = Q6 on 20 000 rows (60 % of arrivals),
//! Normal = Q1 on 50 000 rows (30 %), Batch = Q18 on 15 000 rows / 3 750
//! orders under a 448 KiB tenant budget, which spills about half of its
//! partitions (10 %). Admission, stride dispatch, queueing and cross-query
//! worker sharing do the work here and in no other workload. The queries
//! are small so that a run holds many of them: the p95 of a queue is the
//! noisiest number this benchmark reports, and only samples steady it.

use std::sync::Arc;

use adaptvm::parallel::{
    MemoryBudget, Priority, ProfileRollup, QueryService, ServeConfig, TenantId, TenantQuota,
    TenantRegistry, Trace,
};
use adaptvm::relational::parallel::{q1_parallel_vectorized, q6_parallel, ParallelOpts};
use adaptvm::relational::tpch::{self, Q1Row};
use adaptvm::storage::{Table, DEFAULT_CHUNK};
use adaptvm::vm::{Strategy, VmConfig};

use super::q6_adaptive::{q6_oracle, q6_probe_inputs, DATE_LO};
use super::{q18, report_failure, Env, OpCtx, VmCounts, MORSEL_ROWS};
use crate::openloop::{Arrival, Class};
use crate::probes::ProbeInputs;

pub const INTERACTIVE: Class = 0;
pub const NORMAL: Class = 1;
pub const BATCH: Class = 2;
/// Share of arrivals per class.
pub const MIX: [f64; 3] = [0.6, 0.3, 0.1];
pub const CLASS_NAMES: [&str; 3] = ["interactive", "normal", "batch"];
const PRIORITIES: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];

pub const INTERACTIVE_ROWS: usize = 20_000;
pub const NORMAL_ROWS: usize = 50_000;
pub const BATCH_ROWS: usize = 15_000;
pub const BATCH_ORDERS: usize = 3_750;
pub const BATCH_BUDGET_BYTES: usize = 448 * 1024;
pub const QUEUE_CAPACITY: usize = 64;
/// Client threads carrying the blocking served calls; arrivals beyond
/// this many in flight wait in the generator's channel (and that wait is
/// part of their latency). About one query is in flight at the offered
/// rate; idle clients sleep.
pub const CLIENTS: usize = 8;

/// Client threads of the saturating pass that measures what the service
/// can carry (`serve.capacity_qps`): enough to keep the workers fed and
/// the queries' sequential parts (which run on the client) overlapped,
/// few enough not to crowd the workers off the cores.
pub const SATURATING_CLIENTS: usize = 4;

/// The open loop offers this share of the capacity measured in the same
/// run. A fixed rate does not survive this box: its speed drifts by up to
/// 1.5× within minutes, and 350 arrivals/s — 0.43 worker utilisation in a
/// quiet phase — overloaded in 3 of 10 consecutive runs (p95 spread
/// between runs: 3.8; measured with the earlier, twice as large queries on
/// two workers). The share is what is frozen instead. It is low because
/// the box may slow down after the capacity was measured, and a queue's
/// wait grows with ρ ÷ (1 − ρ): a 1.5× slow-down doubles it from 0.35 and
/// nearly triples it from 0.45. The capacity is what 4 clients get, whose
/// sequential parts overlap; the single worker is busier than the share.
pub const LOAD_SHARE: f64 = 0.35;

/// Interactive p95 limit the rate sweep holds each rate to.
pub const LATENCY_LIMIT_MS: f64 = 20.0;

pub struct ServeMix {
    interactive: Table,
    interactive_bits: u64,
    normal: Table,
    normal_expected: Vec<Q1Row>,
    batch: q18::Q18,
    service: QueryService,
    tenants: [TenantId; 3],
    pub workers: usize,
}

/// What one served query reported when traced.
pub struct TracedQuery {
    pub rollup: ProfileRollup,
    /// `(worker lane, end ns after trace start, duration ns)` per morsel.
    pub morsels: Vec<(u16, u64, u64)>,
    pub events: u64,
    pub dropped: u64,
    pub vm: Option<VmCounts>,
}

/// Outcome of one served query.
pub struct Outcome {
    pub ok: bool,
    pub traced: Option<TracedQuery>,
}

impl ServeMix {
    pub fn setup(env: Env) -> Result<ServeMix, String> {
        let interactive = tpch::lineitem(env.scaled(INTERACTIVE_ROWS), env.seed);
        let interactive_bits = q6_oracle(&interactive)?.to_bits();
        let normal = tpch::lineitem(env.scaled(NORMAL_ROWS), env.seed.wrapping_add(1));
        let normal_expected = tpch::q1_vectorized(&normal, DEFAULT_CHUNK);
        if !tpch::q1_results_match(&normal_expected, &tpch::q1_reference(&normal)) {
            return Err("serve_mix: sequential Q1 disagrees with q1_reference".into());
        }
        let batch_env = Env {
            seed: env.seed.wrapping_add(2),
            ..env
        };
        // The budget is the tenant's (registered below), not the query's.
        let batch = q18::Q18::with_sizes(
            batch_env,
            env.scaled(BATCH_ROWS),
            env.scaled(BATCH_ORDERS),
            None,
        )?;

        let mut registry = TenantRegistry::new();
        let tenants = [
            registry.register(CLASS_NAMES[INTERACTIVE], TenantQuota::new()),
            registry.register(CLASS_NAMES[NORMAL], TenantQuota::new()),
            registry.register(
                CLASS_NAMES[BATCH],
                TenantQuota::new().with_budget(Arc::new(MemoryBudget::bytes(
                    env.scaled(BATCH_BUDGET_BYTES),
                ))),
            ),
        ];
        let service = QueryService::with_tenants(
            ServeConfig::default()
                .with_workers(env.workers)
                .with_queue_capacity(QUEUE_CAPACITY),
            registry,
        );
        Ok(ServeMix {
            interactive,
            interactive_bits,
            normal,
            normal_expected,
            batch,
            service,
            tenants,
            workers: env.workers,
        })
    }

    /// Input rows a query of `class` reads.
    pub fn rows_of(&self, class: Class) -> u64 {
        [
            self.interactive.rows(),
            self.normal.rows(),
            self.batch.rows(),
        ][class] as u64
    }

    pub fn service(&self) -> &QueryService {
        &self.service
    }

    /// Serve one arrival and verify its result; with `traced`, under a
    /// fresh engine trace whose digest is returned.
    pub fn serve(&self, arrival: &Arrival, traced: bool) -> Outcome {
        let trace = traced.then(Trace::new);
        let class = arrival.class;
        let mut opts =
            ParallelOpts::served(&self.service, PRIORITIES[class]).with_tenant(self.tenants[class]);
        opts.morsel_rows = MORSEL_ROWS;
        opts.trace = trace.as_ref();
        let mut vm = None;
        let ok = match class {
            INTERACTIVE => {
                let config = VmConfig {
                    strategy: Strategy::Adaptive,
                    ..VmConfig::default()
                };
                match q6_parallel(&self.interactive, DATE_LO, config, opts) {
                    Ok((revenue, report)) => {
                        vm = Some(VmCounts {
                            trace_executions: report.trace_executions,
                            native_executions: report.native_trace_executions,
                        });
                        check(
                            revenue.to_bits() == self.interactive_bits,
                            "served q6 differs",
                        )
                    }
                    Err(e) => check(false, &format!("served q6: {e}")),
                }
            }
            NORMAL => match q1_parallel_vectorized(&self.normal, DEFAULT_CHUNK, opts) {
                Ok(rows) => check(rows == self.normal_expected, "served q1 differs"),
                Err(e) => check(false, &format!("served q1: {e}")),
            },
            _ => {
                self.batch
                    .run(opts, trace.as_ref(), &mut OpCtx::untraced())
                    .ok
            }
        };
        let traced = trace.map(|t| {
            let profile = t.profile();
            TracedQuery {
                rollup: profile.rollup(),
                morsels: profile
                    .events
                    .iter()
                    .filter_map(|e| match e.kind {
                        adaptvm::parallel::EventKind::Morsel { dur_ns, .. } => {
                            Some((e.lane, e.ts_ns, dur_ns))
                        }
                        _ => None,
                    })
                    .collect(),
                events: profile.events.len() as u64,
                dropped: profile.dropped,
                vm,
            }
        });
        Outcome { ok, traced }
    }

    /// Probes run on the Interactive class's inputs (the class the
    /// end-to-end latency is measured on).
    pub fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            spill_round_trip: true,
            serve_admit: true,
            ..q6_probe_inputs(&self.interactive)
        }
    }
}

fn check(ok: bool, why: &str) -> bool {
    if !ok {
        report_failure(why);
    }
    ok
}
