//! Layer probes: each times one layer's public functions alone, on the
//! workload's own inputs, from outside the engine. A probe gets an equal
//! slice of the traced run's probe budget and reports the median of the
//! repetitions that fit.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use adaptvm::dsl::normalize::normalize_program;
use adaptvm::dsl::parser::parse_program;
use adaptvm::dsl::transform::fuse_program;
use adaptvm::dsl::typecheck::{check_program, infer_expr, Type, TypeEnv};
use adaptvm::dsl::{FoldFn, Program, ScalarOp, Stmt};
use adaptvm::jit::pipeline::whole_pipeline_fragment;
use adaptvm::jit::{compile, CostModel};
use adaptvm::kernels::{filter_cmp, fold_apply, map_apply, FilterFlavor, MapMode, Operand};
use adaptvm::parallel::{
    MemoryBudget, MorselPlan, QueryService, Scheduler, ServeConfig, SubmitOpts,
};
use adaptvm::relational::join::{HashTable, JoinSide, KeyColumn, StrHashTable};
use adaptvm::relational::parallel::{ParallelJoinChain, ParallelOpts};
use adaptvm::relational::spill::parallel_hash_aggregate_spill;
use adaptvm::relational::tpch::{self, Q9Data};
use adaptvm::relational::workload::Workload;
use adaptvm::storage::spill::{IntRunWriter, SpillDir};
use adaptvm::storage::{Array, Scalar, ScalarType, SelVec, Table, DEFAULT_CHUNK};
use adaptvm::vm::{Buffers, RunReport, Strategy, Vm, VmConfig};

use crate::stats::median;
use crate::workloads::{q9_join, MORSEL_ROWS};

/// A conjunctive `column OP constant` predicate and an `a × b` projection
/// folded with `sum`: the shape of Q1's, Q6's and `vm_cold`'s hot loop.
pub struct FilterMapFold<'a> {
    pub conjuncts: Vec<(ScalarOp, &'a Array, Scalar)>,
    pub map: (&'a Array, &'a Array),
}

/// Inputs of the hand-written scalar loop that serves as the ceiling.
pub enum ScalarLoop<'a> {
    Q1(&'a Table),
    Q6 {
        price: &'a [f64],
        disc: &'a [f64],
        qty: &'a [i64],
        ship: &'a [i64],
        date_lo: i64,
    },
    Cold {
        price: &'a [f64],
        disc: &'a [f64],
        key: &'a [i64],
        cut: i64,
    },
}

/// A DSL program and its input buffers, for the `vm.*` and `jit.*` probes.
pub struct ProgramProbe<'a> {
    pub program: Program,
    pub inputs: Vec<(&'static str, &'a Array)>,
}

/// Q18's aggregate alone.
pub struct Q18Probe<'a> {
    pub lineitem: &'a Table,
    pub budget: Option<&'a MemoryBudget>,
    pub workers: usize,
}

/// What a workload offers the probes. A `None`/empty field means the
/// layer does no work in that workload; its metrics then read 0.
#[derive(Default)]
pub struct ProbeInputs<'a> {
    /// Input columns, read chunk-wise for `storage.scan_gb_per_s`.
    pub scan: Vec<&'a Array>,
    pub kernels: Option<FilterMapFold<'a>>,
    pub scalar_loop: Option<ScalarLoop<'a>>,
    pub program: Option<ProgramProbe<'a>>,
    /// DSL text and buffer schema the workload compiles while it runs.
    pub dsl: Option<(String, Vec<(&'static str, ScalarType)>)>,
    /// Run the spill-run write/read round trip.
    pub spill_round_trip: bool,
    /// Q9 inputs and the worker count its probes use.
    pub q9: Option<(&'a Q9Data, usize)>,
    pub q18: Option<Q18Probe<'a>>,
    /// Time `QueryService` admission against direct scheduler submission.
    pub serve_admit: bool,
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// Median wall time of `f` in nanoseconds: one discarded call, then
/// repetitions until `slice` is used up (at least three).
fn median_ns(slice: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < slice {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
        if samples.len() >= 100_000 {
            break;
        }
    }
    median(&samples)
}

/// Run every probe the workload's inputs enable, within `budget`.
pub fn run_all(inputs: &ProbeInputs<'_>, workers: usize, budget: Duration) -> Metrics {
    // One slice per probe group below; the counts mirror the calls.
    let groups = 2 // memory bandwidth + scheduler submit: always
        + usize::from(!inputs.scan.is_empty())
        + 3 * usize::from(inputs.kernels.is_some())
        + usize::from(inputs.scalar_loop.is_some())
        + 6 * usize::from(inputs.program.is_some())
        + 5 * usize::from(inputs.dsl.is_some())
        + 2 * usize::from(inputs.spill_round_trip)
        + 2 * usize::from(inputs.q9.is_some())
        + usize::from(inputs.q18.is_some())
        + usize::from(inputs.serve_admit);
    let slice = budget / groups as u32;
    let mut m = Metrics::new();
    ceiling_bandwidth(slice, &mut m);
    let direct_us = scheduler_submit(workers, slice, &mut m);
    if inputs.serve_admit {
        serve_admit(workers, direct_us, slice, &mut m);
    }
    if !inputs.scan.is_empty() {
        storage_scan(&inputs.scan, slice, &mut m);
    }
    if let Some(k) = &inputs.kernels {
        kernels(k, slice, &mut m);
    }
    if let Some(l) = &inputs.scalar_loop {
        scalar_loop(l, slice, &mut m);
    }
    if let Some(p) = &inputs.program {
        jit_probes(p, slice, &mut m);
        vm_strategies(p, slice, &mut m);
    }
    if let Some((text, schema)) = &inputs.dsl {
        dsl_front_end(text, schema, slice, &mut m);
    }
    if inputs.spill_round_trip {
        spill_round_trip(slice, &mut m);
    }
    if let Some((data, q9_workers)) = inputs.q9 {
        q9_build_probe(data, q9_workers, slice, &mut m);
    }
    if let Some(q) = &inputs.q18 {
        q18_aggregate(q, slice, &mut m);
    }
    m
}

// ---------------------------------------------------------------------
// ceiling
// ---------------------------------------------------------------------

/// STREAM-style read bandwidth: sum a 32 MiB `Vec<i64>`.
fn ceiling_bandwidth(slice: Duration, m: &mut Metrics) {
    let data: Vec<i64> = (0..4 << 20).collect();
    let ns = median_ns(slice, || {
        let sum = black_box(&data)
            .iter()
            .fold(0i64, |a, &v| a.wrapping_add(v));
        black_box(sum);
    });
    m.insert(
        "ceiling.mem_bw_gb_per_s",
        (data.len() * std::mem::size_of::<i64>()) as f64 / ns,
    );
}

/// The hand-written fused loop a compiler could at best emit for the
/// workload's query, single-threaded, over the whole input.
fn scalar_loop(l: &ScalarLoop<'_>, slice: Duration, m: &mut Metrics) {
    let (rows, ns) = match l {
        ScalarLoop::Q1(table) => {
            let col = |name: &str| table.column_by_name(name).expect("lineitem schema");
            let qty = col("l_quantity").as_i64().expect("i64");
            let price = col("l_extendedprice").as_f64().expect("f64");
            let disc = col("l_discount").as_f64().expect("f64");
            let tax = col("l_tax").as_f64().expect("f64");
            let group = col("l_group").as_i64().expect("i64");
            let ship = col("l_shipdate").as_i64().expect("i64");
            let ns = median_ns(slice, || {
                let mut acc = [[0.0f64; 4]; tpch::Q1_GROUPS as usize];
                let mut count = [0i64; tpch::Q1_GROUPS as usize];
                for i in 0..ship.len() {
                    if ship[i] <= tpch::Q1_SHIPDATE {
                        let g = group[i] as usize;
                        let disc_price = price[i] * (1.0 - disc[i]);
                        acc[g][0] += qty[i] as f64;
                        acc[g][1] += price[i];
                        acc[g][2] += disc_price;
                        acc[g][3] += disc_price * (1.0 + tax[i]);
                        count[g] += 1;
                    }
                }
                black_box((acc, count));
            });
            (ship.len(), ns)
        }
        ScalarLoop::Q6 {
            price,
            disc,
            qty,
            ship,
            date_lo,
        } => {
            let date_hi = date_lo + 365;
            let ns = median_ns(slice, || {
                let mut revenue = 0.0;
                for i in 0..price.len() {
                    if ship[i] >= *date_lo
                        && ship[i] < date_hi
                        && disc[i] >= 0.05
                        && disc[i] <= 0.07
                        && qty[i] < 24
                    {
                        revenue += price[i] * disc[i];
                    }
                }
                black_box(revenue);
            });
            (price.len(), ns)
        }
        ScalarLoop::Cold {
            price,
            disc,
            key,
            cut,
        } => {
            let ns = median_ns(slice, || {
                let mut revenue = 0.0;
                for i in 0..price.len() {
                    if key[i] < *cut {
                        revenue += price[i] * disc[i];
                    }
                }
                black_box(revenue);
            });
            (price.len(), ns)
        }
    };
    m.insert("ceiling.scalar_loop_ns_per_row", ns / rows as f64);
}

// ---------------------------------------------------------------------
// storage
// ---------------------------------------------------------------------

/// Chunk-wise read of the input columns, as the scan side of every
/// pipeline does it (`Array::slice` per column per chunk).
fn storage_scan(cols: &[&Array], slice: Duration, m: &mut Metrics) {
    let rows = cols[0].len();
    let bytes: usize = cols.iter().map(|c| c.byte_size()).sum();
    let ns = median_ns(slice, || {
        let mut off = 0;
        while off < rows {
            let n = DEFAULT_CHUNK.min(rows - off);
            for c in cols {
                black_box(c.slice(off, n));
            }
            off += n;
        }
    });
    m.insert("storage.scan_gb_per_s", bytes as f64 / ns);
}

/// Write and read back Q18-shaped `(i64 key, i64 value)` frames through
/// the run codec the spilling aggregate uses, with no operator around it.
fn spill_round_trip(slice: Duration, m: &mut Metrics) {
    const FRAMES: usize = 64;
    const FRAME_ROWS: usize = 4096;
    let keys: Vec<i64> = (0..FRAME_ROWS as i64).map(|i| i * 7919 % 75_000).collect();
    let values: Vec<i64> = (0..FRAME_ROWS as i64).collect();
    let dir = SpillDir::new().expect("spill dir under TMPDIR");
    let write = || {
        let mut w = IntRunWriter::create(dir.run_path("probe")).expect("create run");
        for _ in 0..FRAMES {
            w.append(&keys, &values).expect("append frame");
        }
        w.finish().expect("finish run")
    };
    let bytes = write().bytes() as f64;
    let write_ns = median_ns(slice, || write().delete());
    let run = write();
    let read_ns = median_ns(slice, || {
        let mut reader = run.reader().expect("open run");
        while let Some(frame) = reader.next_frame().expect("read frame") {
            black_box(frame);
        }
    });
    run.delete();
    // bytes/ns = GB/s; ×1000 = MB/s.
    m.insert("storage.spill_write_mb_per_s", bytes / write_ns * 1e3);
    m.insert("storage.spill_read_mb_per_s", bytes / read_ns * 1e3);
}

// ---------------------------------------------------------------------
// dsl
// ---------------------------------------------------------------------

fn dsl_front_end(
    text: &str,
    schema: &[(&'static str, ScalarType)],
    slice: Duration,
    m: &mut Metrics,
) {
    let env = schema
        .iter()
        .fold(TypeEnv::new(), |env, (name, ty)| env.with_buffer(name, *ty));
    let parsed = parse_program(text).expect("workload text parses");
    let normalized = normalize_program(&parsed);
    let us = |ns: f64| ns / 1e3;
    m.insert(
        "dsl.parse_us",
        us(median_ns(slice, || {
            black_box(parse_program(black_box(text)).expect("parses"));
        })),
    );
    m.insert(
        "dsl.typecheck_us",
        us(median_ns(slice, || {
            check_program(black_box(&parsed), &env).expect("typechecks");
        })),
    );
    m.insert(
        "dsl.normalize_us",
        us(median_ns(slice, || {
            black_box(normalize_program(black_box(&parsed)));
        })),
    );
    m.insert(
        "dsl.fuse_us",
        us(median_ns(slice, || {
            black_box(fuse_program(black_box(&normalized)));
        })),
    );
    m.insert(
        "dsl.frontend_us",
        us(median_ns(slice, || {
            black_box(Workload::compile(black_box(text), schema).expect("compiles"));
        })),
    );
}

// ---------------------------------------------------------------------
// kernels
// ---------------------------------------------------------------------

/// At most this many 1024-row chunks feed the kernel probes.
const KERNEL_CHUNKS: usize = 64;

fn kernels(k: &FilterMapFold<'_>, slice: Duration, m: &mut Metrics) {
    let rows = k.map.0.len().min(KERNEL_CHUNKS * DEFAULT_CHUNK);
    let chunk_of = |a: &Array| -> Vec<Array> {
        (0..rows)
            .step_by(DEFAULT_CHUNK)
            .map(|off| a.slice(off, DEFAULT_CHUNK.min(rows - off)))
            .collect()
    };
    let pred_chunks: Vec<Vec<Array>> = k.conjuncts.iter().map(|(_, c, _)| chunk_of(c)).collect();
    let n_chunks = pred_chunks[0].len();
    let filter_chunk = |c: usize, flavor: FilterFlavor| -> SelVec {
        let mut sel: Option<SelVec> = None;
        for ((op, _, constant), chunks) in k.conjuncts.iter().zip(&pred_chunks) {
            let operands = [Operand::Col(&chunks[c]), Operand::Const(constant.clone())];
            sel = Some(filter_cmp(*op, &operands, sel.as_ref(), flavor).expect("filter kernel"));
        }
        sel.expect("at least one conjunct")
    };

    let per_flavor: Vec<f64> = FilterFlavor::ALL
        .iter()
        .map(|&flavor| {
            median_ns(slice / FilterFlavor::ALL.len() as u32, || {
                for c in 0..n_chunks {
                    black_box(filter_chunk(c, flavor));
                }
            }) / rows as f64
        })
        .collect();
    let best = per_flavor.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = per_flavor.iter().copied().fold(0.0, f64::max);
    m.insert("kernels.filter_ns_per_row", best);
    m.insert("kernels.flavor_spread", worst / best);

    let sels: Vec<SelVec> = (0..n_chunks)
        .map(|c| filter_chunk(c, FilterFlavor::SelVecLoop))
        .collect();
    let (a, b) = (chunk_of(k.map.0), chunk_of(k.map.1));
    let map_chunk = |c: usize, mode: MapMode| {
        let operands = [Operand::Col(&a[c]), Operand::Col(&b[c])];
        map_apply(ScalarOp::Mul, &operands, Some(&sels[c]), mode).expect("map kernel")
    };
    let map_ns = [MapMode::Full, MapMode::Selective]
        .iter()
        .map(|&mode| {
            median_ns(slice / 2, || {
                for c in 0..n_chunks {
                    black_box(map_chunk(c, mode));
                }
            })
        })
        .fold(f64::INFINITY, f64::min);
    m.insert("kernels.map_ns_per_row", map_ns / rows as f64);

    let mapped: Vec<Array> = (0..n_chunks)
        .map(|c| map_chunk(c, MapMode::Selective))
        .collect();
    let fold_ns = median_ns(slice, || {
        for c in 0..n_chunks {
            let s = fold_apply(FoldFn::Sum, &Scalar::F64(0.0), &mapped[c], Some(&sels[c]));
            black_box(s.expect("fold kernel"));
        }
    });
    m.insert("kernels.fold_ns_per_row", fold_ns / rows as f64);
}

// ---------------------------------------------------------------------
// jit
// ---------------------------------------------------------------------

/// Element types of `let` bindings — the type hints the VM hands the
/// fragment builder (its own collector is private to `vm::engine`).
fn binding_types(
    program: &Program,
    inputs: &[(&'static str, &Array)],
) -> HashMap<String, ScalarType> {
    fn walk(stmts: &[Stmt], env: &mut TypeEnv, hints: &mut HashMap<String, ScalarType>) {
        for s in stmts {
            match s {
                Stmt::Let { name, expr, body } => {
                    if let Ok(t) = infer_expr(expr, env) {
                        if let Type::Array(elem) = t {
                            hints.insert(name.clone(), elem);
                        }
                        *env = env.clone().with_var(name, t);
                    }
                    walk(body, env, hints);
                }
                Stmt::Assign { name, expr } => {
                    if let Ok(t) = infer_expr(expr, env) {
                        *env = env.clone().with_var(name, t);
                    }
                }
                Stmt::Loop(body) => walk(body, env, hints),
                Stmt::If { then, els, .. } => {
                    walk(then, env, hints);
                    walk(els, env, hints);
                }
                _ => {}
            }
        }
    }
    let mut env = inputs.iter().fold(TypeEnv::new(), |env, (name, a)| {
        env.with_buffer(name, a.scalar_type())
    });
    let mut hints = HashMap::new();
    walk(&normalize_program(program).stmts, &mut env, &mut hints);
    hints
}

/// `jit::compile` on the workload's whole-pipeline trace, then the trace
/// over the workload's chunks on the interpreted and the native tier.
fn jit_probes(p: &ProgramProbe<'_>, slice: Duration, m: &mut Metrics) {
    let hints = binding_types(&p.program, &p.inputs);
    let Ok(fragment) = whole_pipeline_fragment(&p.program, &hints) else {
        return;
    };
    let model = CostModel::untimed();
    let compile_ns = median_ns(slice, || {
        black_box(compile(fragment.clone(), &model));
    });
    m.insert("jit.compile_us", compile_ns / 1e3);

    let trace = compile(fragment, &model);
    let rows = p.inputs[0].1.len().min(KERNEL_CHUNKS * DEFAULT_CHUNK);
    // Trace inputs are the variables the fragment's reads bind.
    let columns: Option<Vec<&Array>> = trace
        .ir
        .inputs
        .iter()
        .map(|var| {
            let read = trace.reads.iter().find(|r| &r.var == var)?;
            let input = p.inputs.iter().find(|(name, _)| *name == read.buffer)?;
            Some(input.1)
        })
        .collect();
    let Some(columns) = columns else { return };
    let chunks: Vec<Vec<Array>> = (0..rows)
        .step_by(DEFAULT_CHUNK)
        .map(|off| {
            columns
                .iter()
                .map(|c| c.slice(off, DEFAULT_CHUNK.min(rows - off)))
                .collect()
        })
        .collect();
    for (name, native) in [
        ("jit.trace_interp_ns_per_row", false),
        ("jit.trace_native_ns_per_row", true),
    ] {
        if native && !trace.has_native() {
            continue;
        }
        let ns = median_ns(slice, || {
            for chunk in &chunks {
                let refs: Vec<&Array> = chunk.iter().collect();
                black_box(trace.run_tiered(&refs, None, native).expect("trace runs"));
            }
        });
        m.insert(name, ns / rows as f64);
    }
}

// ---------------------------------------------------------------------
// vm
// ---------------------------------------------------------------------

/// Single-threaded `Vm::run` of the workload's program under the three
/// strategies — the paper's comparison.
fn vm_strategies(p: &ProgramProbe<'_>, slice: Duration, m: &mut Metrics) {
    let run = |strategy: Strategy| -> RunReport {
        let buffers = p.inputs.iter().fold(Buffers::new(), |b, (name, a)| {
            b.with_input(name, (*a).clone())
        });
        let config = VmConfig {
            strategy,
            ..VmConfig::default()
        };
        let (out, report) = Vm::new(config).run(&p.program, buffers).expect("vm runs");
        black_box(out);
        report
    };
    let ms = |strategy: Strategy| {
        median_ns(slice, || {
            run(strategy);
        }) / 1e6
    };
    let interpret = ms(Strategy::Interpret);
    let compiled = ms(Strategy::CompiledPipeline);
    let adaptive = ms(Strategy::Adaptive);
    m.insert("vm.interpret_ms", interpret);
    m.insert("vm.compiled_ms", compiled);
    m.insert("vm.adaptive_ms", adaptive);
    m.insert("vm.adaptive_over_best", interpret.min(compiled) / adaptive);

    let report = run(Strategy::Adaptive);
    m.insert("vm.interpreted_nodes", report.interpreted_nodes as f64);
    m.insert("vm.injected_traces", report.injected_traces as f64);
    m.insert("vm.fallbacks", report.fallbacks as f64);
    let steps = report.trace_executions + report.interpreted_nodes;
    if steps > 0 {
        m.insert(
            "vm.traced_share",
            report.trace_executions as f64 / steps as f64,
        );
    }

    // Interpreter + bandit self time per node: the run's wall time minus
    // the time its profile attributes to operations.
    let report = run(Strategy::Interpret);
    let op_ns: u64 = report
        .profile
        .hottest()
        .iter()
        .map(|(_, op)| op.total_ns)
        .sum();
    if report.interpreted_nodes > 0 {
        m.insert(
            "vm.dispatch_ns_per_node",
            report.wall_ns.saturating_sub(op_ns) as f64 / report.interpreted_nodes as f64,
        );
    }
}

// ---------------------------------------------------------------------
// parallel / serve
// ---------------------------------------------------------------------

fn empty_plan() -> MorselPlan {
    MorselPlan::new(1, 1)
}

/// An empty one-morsel query, `Scheduler::submit` → `join`. Returns the
/// median in microseconds.
fn scheduler_submit(workers: usize, slice: Duration, m: &mut Metrics) -> f64 {
    let scheduler = Scheduler::new(workers);
    let us = median_ns(slice, || {
        let handle = scheduler
            .submit(
                empty_plan(),
                |_, _| Ok::<u64, ()>(0),
                |parts, _| parts.len(),
            )
            .expect("scheduler accepts");
        black_box(handle.join().expect("empty query completes"));
    }) / 1e3;
    m.insert("parallel.submit_us", us);
    us
}

/// The same empty query through `QueryService` admission, minus the
/// direct submission.
fn serve_admit(workers: usize, direct_us: f64, slice: Duration, m: &mut Metrics) {
    let service = QueryService::new(ServeConfig::default().with_workers(workers));
    let us = median_ns(slice, || {
        let handle = service
            .try_submit(
                SubmitOpts::interactive(),
                empty_plan(),
                |_, _| Ok::<u64, ()>(0),
                |parts, _| parts.len(),
            )
            .expect("queue has room");
        black_box(handle.join().expect("empty query completes"));
    }) / 1e3;
    service.shutdown();
    m.insert("serve.admit_us", us - direct_us);
}

// ---------------------------------------------------------------------
// relational
// ---------------------------------------------------------------------

/// Q9's two halves, through the same public functions `q9_parallel`
/// composes: building the three Bloom-filtered sides, then probing the
/// chain batch by batch.
fn q9_build_probe(data: &Q9Data, workers: usize, slice: Duration, m: &mut Metrics) {
    let build = || -> Vec<JoinSide> {
        let part = HashTable::from_rows(&data.part_keys, &data.part_payload).with_bloom();
        let supp = HashTable::from_rows(&data.supp_keys, &data.supp_payload).with_bloom();
        let brand = StrHashTable::build(
            &Array::from(data.brand_keys.clone()),
            &Array::from(data.brand_payload.clone()),
        )
        .expect("Utf8 keys with integer payloads")
        .with_bloom();
        vec![
            JoinSide::Int(part),
            JoinSide::Int(supp),
            JoinSide::Str(brand),
        ]
    };
    let build_ns = median_ns(slice, || {
        black_box(build());
    });
    m.insert("relational.join_build_ms", build_ns / 1e6);

    let sides = build();
    let opts = ParallelOpts::new(workers, q9_join::MORSEL_ROWS);
    let n = data.l_partkey.len();
    let probe_ns = median_ns(slice, || {
        let mut chain = ParallelJoinChain::new_mixed(sides.clone(), q9_join::REORDER_EVERY);
        let mut start = 0;
        while start < n {
            let end = (start + q9_join::BATCH_ROWS).min(n);
            let keys = [
                KeyColumn::Int(&data.l_partkey[start..end]),
                KeyColumn::Int(&data.l_suppkey[start..end]),
                KeyColumn::Str(&data.l_brand[start..end]),
            ];
            black_box(chain.probe_batch_mixed(&keys, opts).expect("probe"));
            start = end;
        }
    });
    m.insert("relational.join_probe_ms", probe_ns / 1e6);
}

/// `parallel_hash_aggregate_spill` alone, under the workload's budget.
fn q18_aggregate(q: &Q18Probe<'_>, slice: Duration, m: &mut Metrics) {
    let mut opts = ParallelOpts::new(q.workers, MORSEL_ROWS);
    if let Some(budget) = q.budget {
        opts = opts.with_budget(budget);
    }
    let ns = median_ns(slice, || {
        let groups = parallel_hash_aggregate_spill(q.lineitem, "l_orderkey", "l_quantity", opts);
        black_box(groups.expect("aggregate runs"));
    });
    m.insert("relational.agg_ms", ns / 1e6);
}
