//! The Fig. 1 state machine: the adaptive VM engine.
//!
//! > "Program execution starts with interpretation, meanwhile the VM
//! > collects profiling information (time spent in each operation, number
//! > of calls) to identify hot paths and potential targets for further
//! > optimization. At some point, the interpreter decides to optimize and
//! > will eventually generate optimized code which will get injected into
//! > the interpreter. Afterwards program interpretation continues with a
//! > partially optimized program."
//!
//! The engine executes the chunk loop of a program as a **flat iteration
//! plan**: a document-ordered list of steps (skeleton nodes, scalar
//! statements). Injection replaces a contiguous set of node steps with one
//! trace step — the plan *is* the "partially optimized program", and
//! rebuilding it is what "inject functions" means concretely.
//!
//! Three strategies share this machinery (the §IV target-1 goal of
//! mimicking MonetDB/X100 and HyPer in one framework):
//! * [`Strategy::Interpret`] — pure vectorized interpretation,
//! * [`Strategy::CompiledPipeline`] — compile the whole loop body up
//!   front (HyPer-style; at chunk size 1, literally tuple-at-a-time),
//! * [`Strategy::Adaptive`] — Fig. 1: profile, partition (§III-B),
//!   compile hot regions (optionally in the background), inject, and fall
//!   back to interpretation whenever a fragment is uncompilable.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use adaptvm_dsl::ast::{Expr, OpClass, Program, Stmt};
use adaptvm_dsl::depgraph::{scalar_uses, DepGraph, NodeId};
use adaptvm_dsl::normalize::normalize_program;
use adaptvm_dsl::partition::{partition, PartitionConfig};
use adaptvm_dsl::typecheck::{infer_expr, Type, TypeEnv};
use adaptvm_dsl::value::{Value, Vector};
use adaptvm_hetsim::exec::run_trace_on;
use adaptvm_jit::builder::{build_fragment, Fragment};
use adaptvm_jit::cache::{CodeCache, TraceKey, GENERIC_SITUATION};
use adaptvm_jit::compiler::{compile, CompileServer, CompiledTrace, CostModel, TierRun, TraceTier};
use adaptvm_jit::ir::OutputSpec;
use adaptvm_jit::JitError;
use adaptvm_storage::array::Array;
use adaptvm_storage::scalar::ScalarType;
use adaptvm_storage::DEFAULT_CHUNK;

use crate::adaptive::{FixedPolicy, FlavorPolicy};
use crate::env::{Buffers, Env};
use crate::error::VmError;
use crate::interp::{filter_site, Flow, Interpreter, MAX_ITERATIONS};
use crate::placement::PlacementPolicy;
use crate::profile::Profile;

/// The Fig. 1 states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Vectorized interpretation (the start state).
    Interpret,
    /// Profile analysis + partitioning decision.
    Optimize,
    /// Fragment compilation (possibly backgrounded).
    GenerateCode,
    /// Finished traces spliced into the iteration plan.
    InjectFunctions,
}

/// One logged state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateTransition {
    /// Loop iteration at which the transition happened.
    pub iteration: u64,
    /// The state entered.
    pub state: VmState,
}

/// Execution strategies (§IV target 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Pure vectorized interpretation (MonetDB/X100-style).
    Interpret,
    /// Whole-pipeline compilation up front (HyPer-style).
    CompiledPipeline,
    /// The adaptive Fig. 1 state machine.
    #[default]
    Adaptive,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Default chunk length for `read`.
    pub chunk_size: usize,
    /// Execution strategy.
    pub strategy: Strategy,
    /// Iterations of interpretation before the Optimize transition.
    pub hot_threshold: u64,
    /// Compile-cost model. `VmConfig::default()` uses the *untimed* model
    /// (costs reported, no wall-clock padding) so tests stay fast;
    /// benchmarks opt into `CostModel::default()`.
    pub cost_model: CostModel,
    /// §III-B partitioning heuristics.
    pub partition: PartitionConfig,
    /// Compile on a background worker (Fig. 1 semantics) or synchronously.
    pub async_compile: bool,
    /// Devices for placement; empty = host only, >1 = adaptive placement.
    pub devices: Vec<adaptvm_hetsim::device::DeviceSpec>,
    /// Shared code cache, keyed by fragment fingerprint. When set, compile
    /// decisions consult the cache first and publish finished traces into
    /// it — this is how morsel-parallel workers share one JIT: the first
    /// worker to reach a fragment compiles it, everyone else injects the
    /// cached trace for free (§III-B's multi-trace store, shared).
    pub code_cache: Option<Arc<CodeCache>>,
    /// Shared background compile server. When set (it must be a
    /// *publishing* server, [`CompileServer::with_cache`], over the same
    /// cache as `code_cache`), `async_compile` runs submit hot fragments
    /// here instead of spawning a private server per run: the submit is
    /// deduplicated by fragment fingerprint across every run sharing the
    /// server, the finished trace lands in the shared cache, and each run
    /// picks it up from there — the run that submitted counts the compile,
    /// later runs count a `trace_cache_hits`. This is how a long-lived
    /// scheduler overlaps one background compiler with many concurrent
    /// morsel runs. A non-publishing server is ignored (the run falls back
    /// to a private server), because unclaimed finishes would be lost.
    pub compile_server: Option<Arc<CompileServer>>,
    /// Dispatch injected traces to their native machine-code bodies when
    /// the host supports it (x86-64 Linux, not disabled via
    /// `ADAPTVM_NATIVE=0`). `false` pins every trace to the interpreted
    /// tier; results are bit-identical either way — a native guard deopt
    /// transparently re-runs the chunk on the interpreter.
    pub native: bool,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            chunk_size: DEFAULT_CHUNK,
            strategy: Strategy::Adaptive,
            hot_threshold: 8,
            cost_model: CostModel::untimed(),
            partition: PartitionConfig::default(),
            async_compile: false,
            devices: Vec::new(),
            code_cache: None,
            compile_server: None,
            native: adaptvm_jit::exec::native_available(),
        }
    }
}

/// What one run did (the experiment harness prints these).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Loop iterations executed.
    pub iterations: u64,
    /// Fig. 1 transitions, in order.
    pub transitions: Vec<StateTransition>,
    /// Traces injected into the plan.
    pub injected_traces: usize,
    /// Total modeled compile cost (ns).
    pub compile_ns_total: u64,
    /// Trace-step executions.
    pub trace_executions: u64,
    /// Node steps executed by the interpreter.
    pub interpreted_nodes: u64,
    /// Fragments that failed to build/run and fell back to interpretation.
    pub fallbacks: u64,
    /// Traces injected straight from the shared code cache (no compile).
    pub trace_cache_hits: u64,
    /// Trace-step executions served by native machine code (a subset of
    /// `trace_executions`).
    pub native_trace_executions: u64,
    /// Native executions that hit a guard and re-ran on the interpreted
    /// tier (counted under `trace_executions`, not `fallbacks` — the
    /// trace stays injected and the answer is unchanged).
    pub native_deopts: u64,
    /// The run profile.
    pub profile: Profile,
    /// Virtual nanoseconds charged per device (placement runs).
    pub device_ns: Vec<(String, u64)>,
    /// Placement decisions per device.
    pub device_decisions: Vec<(String, u64)>,
    /// Wall-clock nanoseconds of the whole run.
    pub wall_ns: u64,
}

impl RunReport {
    /// The state sequence as short names (test/debug helper).
    pub fn state_names(&self) -> Vec<&'static str> {
        self.transitions
            .iter()
            .map(|t| match t.state {
                VmState::Interpret => "interpret",
                VmState::Optimize => "optimize",
                VmState::GenerateCode => "generate_code",
                VmState::InjectFunctions => "inject_functions",
            })
            .collect()
    }
}

/// The adaptive VM.
pub struct Vm {
    /// Configuration.
    pub config: VmConfig,
}

/// One step of the flat iteration plan.
#[derive(Debug, Clone)]
enum Step {
    /// Interpret one dataflow node (a body-less `let` or a sink statement).
    /// `site` is the node's filter site id, derived once when the plan is
    /// built instead of once per chunk.
    Node { stmt: Stmt, site: Option<String> },
    /// Interpret a scalar statement (assignments, `if`/`break`).
    Scalar(Stmt),
    /// Execute an injected trace.
    Trace(usize),
}

/// An injected compiled region. (No statement copies are kept: if the
/// trace fails recoverably, the injection is simply removed and the plan
/// rebuilt — the covered nodes reappear as ordinary steps.)
struct Injection {
    anchor: NodeId,
    covered: HashSet<NodeId>,
    trace: Arc<CompiledTrace>,
    /// Profile site of the trace step (`trace@<anchor>`).
    site: String,
    /// Selectivity-profile sites of the trace's selection outputs, in
    /// output order (`trace-sel@<name>`).
    sel_sites: Vec<String>,
}

// Unspecialized engine traces use [`GENERIC_SITUATION`] (re-exported from
// `adaptvm_jit::cache` so publishing compile servers key identically).
// Specialized situations — compression scheme, selectivity class — keep
// their own entries beside it; see [`adaptvm_jit::cache`].

impl Vm {
    /// A VM with the given configuration.
    pub fn new(config: VmConfig) -> Vm {
        Vm { config }
    }

    /// A VM with default (adaptive) configuration.
    pub fn adaptive() -> Vm {
        Vm::new(VmConfig::default())
    }

    /// Compile a fragment, going through the shared code cache when one is
    /// configured. Returns the trace; accounts compile cost vs. cache hit
    /// in the report.
    fn compile_cached(&self, frag: Fragment, report: &mut RunReport) -> Arc<CompiledTrace> {
        match &self.config.code_cache {
            Some(cache) => {
                let key = TraceKey {
                    fingerprint: frag.ir.fingerprint(),
                    situation: GENERIC_SITUATION.to_string(),
                };
                let model = self.config.cost_model;
                let (trace, hit) = cache.get_or_compile(key, || Arc::new(compile(frag, &model)));
                if hit {
                    report.trace_cache_hits += 1;
                    crate::obs::jit_event(crate::obs::JitEvent::CacheHit);
                } else {
                    report.compile_ns_total += trace.cost_ns;
                    crate::obs::jit_event(crate::obs::JitEvent::Compile {
                        cost_ns: trace.cost_ns,
                    });
                }
                trace
            }
            None => {
                let trace = Arc::new(compile(frag, &self.config.cost_model));
                report.compile_ns_total += trace.cost_ns;
                crate::obs::jit_event(crate::obs::JitEvent::Compile {
                    cost_ns: trace.cost_ns,
                });
                trace
            }
        }
    }

    /// Run a program with the default fixed flavor policy.
    pub fn run(
        &self,
        program: &Program,
        buffers: Buffers,
    ) -> Result<(Buffers, RunReport), VmError> {
        let mut policy = FixedPolicy::default();
        self.run_with_policy(program, buffers, &mut policy)
    }

    /// Run a program with a caller-supplied flavor policy (micro-adaptive
    /// runs pass a [`crate::adaptive::BanditPolicy`]).
    pub fn run_with_policy(
        &self,
        program: &Program,
        buffers: Buffers,
        policy: &mut dyn FlavorPolicy,
    ) -> Result<(Buffers, RunReport), VmError> {
        let wall = Instant::now();
        let program = normalize_program(program);
        let hints = binding_types(&program, &buffers);
        let mut report = RunReport::default();
        let mut profile = Profile::new();
        let mut env = Env::new(buffers);
        report.transitions.push(StateTransition {
            iteration: 0,
            state: VmState::Interpret,
        });

        // Split around the first top-level loop.
        let loop_pos = program
            .stmts
            .iter()
            .position(|s| matches!(s, Stmt::Loop(_)));
        let Some(loop_pos) = loop_pos else {
            // No loop: plain interpretation.
            let mut interp = Interpreter::new(self.config.chunk_size, &mut profile, policy);
            interp.exec_stmts(&program.stmts, &mut env)?;
            report.profile = profile;
            report.wall_ns = wall.elapsed().as_nanos() as u64;
            return Ok((env.buffers, report));
        };

        // Prelude.
        {
            let mut interp = Interpreter::new(self.config.chunk_size, &mut profile, policy);
            interp.exec_stmts(&program.stmts[..loop_pos], &mut env)?;
        }

        let body = match &program.stmts[loop_pos] {
            Stmt::Loop(body) => body,
            _ => unreachable!("position() found a loop"),
        };

        // Flatten the body; complex bodies (nested loops, skeletons under
        // `if`) fall back to whole-program interpretation.
        let flat = match flatten_body(body) {
            Some(f) => f,
            None => {
                let mut interp = Interpreter::new(self.config.chunk_size, &mut profile, policy);
                interp.exec_stmts(&program.stmts[loop_pos..], &mut env)?;
                report.profile = profile;
                report.wall_ns = wall.elapsed().as_nanos() as u64;
                return Ok((env.buffers, report));
            }
        };

        let graph = DepGraph::from_stmts(body);
        let uses = scalar_uses(body);
        let mut injections: Vec<Injection> = Vec::new();
        let mut plan = build_plan(&flat, &injections);
        let mut placement = if self.config.devices.is_empty() {
            None
        } else {
            Some(PlacementPolicy::new(self.config.devices.clone()))
        };
        let mut device_clocks: Vec<u64> = vec![0; self.config.devices.len()];
        let mut server: Option<CompileServer> = None;
        let mut pending: HashMap<u64, (NodeId, Vec<NodeId>)> = HashMap::new();
        // The shared background path: fragments submitted to a *publishing*
        // compile server, picked up from its cache when they land. Each
        // entry is (publish key, covered nodes, whether this run enqueued
        // the compile) — the key is built once, from the server's own
        // situation string, so server and engine can never disagree and
        // the per-iteration poll allocates nothing.
        let shared_server: Option<Arc<CompileServer>> = self
            .config
            .compile_server
            .as_ref()
            .filter(|s| s.cache().is_some())
            .cloned();
        let shared_situation: Option<String> = shared_server
            .as_ref()
            .and_then(|s| s.situation())
            .map(str::to_string);
        let mut shared_pending: Vec<(TraceKey, Vec<NodeId>, bool)> = Vec::new();
        let mut optimized = false;

        // Strategy::CompiledPipeline compiles everything before iterating.
        if self.config.strategy == Strategy::CompiledPipeline {
            let region = adaptvm_dsl::partition::Region {
                nodes: (0..graph.len()).collect(),
                seed: 0,
                cost: 0.0,
            };
            match build_fragment(&graph, &region, &uses, &hints) {
                Ok(frag) => {
                    let trace = self.compile_cached(frag, &mut report);
                    inject(
                        &mut injections,
                        &graph,
                        &flat,
                        region.nodes.clone(),
                        trace,
                        self.config.native,
                    );
                    report.injected_traces += 1;
                    plan = build_plan(&flat, &injections);
                    report.transitions.push(StateTransition {
                        iteration: 0,
                        state: VmState::InjectFunctions,
                    });
                }
                Err(_) => {
                    report.fallbacks += 1;
                    crate::obs::jit_event(crate::obs::JitEvent::Deopt);
                }
            }
        }

        // The chunk loop. One interpreter serves every iteration; the
        // profile is reached through it while it holds the borrow.
        let mut interp = Interpreter::new(self.config.chunk_size, &mut profile, &mut *policy);
        let mut iterations: u64 = 0;
        'outer: loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(VmError::IterationLimit(MAX_ITERATIONS));
            }
            interp.profile.iterations += 1;

            // Adaptive: hot-path detection (the Interpret → Optimize edge).
            if self.config.strategy == Strategy::Adaptive
                && !optimized
                && iterations == self.config.hot_threshold.max(1)
            {
                optimized = true;
                report.transitions.push(StateTransition {
                    iteration: iterations,
                    state: VmState::Optimize,
                });
                let mut costed = graph.clone();
                costed.apply_costs(&interp.profile.costs());
                let parts = partition(&costed, &self.config.partition);
                report.transitions.push(StateTransition {
                    iteration: iterations,
                    state: VmState::GenerateCode,
                });
                let injected_before = report.injected_traces;
                for region in &parts.regions {
                    match build_fragment(&graph, region, &uses, &hints) {
                        Ok(frag) => {
                            if self.config.async_compile {
                                // A cached trace needs no compile round-trip
                                // even on the background path: inject now.
                                // Key lookups by the server's own publish
                                // situation when one is shared, else the
                                // generic situation.
                                let key = TraceKey {
                                    fingerprint: frag.ir.fingerprint(),
                                    situation: shared_situation
                                        .clone()
                                        .unwrap_or_else(|| GENERIC_SITUATION.to_string()),
                                };
                                let cached =
                                    self.config.code_cache.as_ref().and_then(|c| c.get(&key));
                                if let Some(trace) = cached {
                                    report.trace_cache_hits += 1;
                                    crate::obs::jit_event(crate::obs::JitEvent::CacheHit);
                                    inject(
                                        &mut injections,
                                        &graph,
                                        &flat,
                                        region.nodes.clone(),
                                        trace,
                                        self.config.native,
                                    );
                                    report.injected_traces += 1;
                                    continue;
                                }
                                if let Some(shared) = &shared_server {
                                    // Shared publishing server: dedup by
                                    // fingerprint, pick the trace up from
                                    // the publish cache once it lands.
                                    match shared.submit_unique(frag) {
                                        Ok(ours) => {
                                            crate::obs::jit_event(
                                                crate::obs::JitEvent::AsyncSubmit,
                                            );
                                            shared_pending.push((
                                                key,
                                                region.nodes.clone(),
                                                ours.is_some(),
                                            ))
                                        }
                                        Err(_) => {
                                            report.fallbacks += 1;
                                            crate::obs::jit_event(crate::obs::JitEvent::Deopt);
                                        }
                                    }
                                    continue;
                                }
                                let srv = server.get_or_insert_with(|| {
                                    CompileServer::start(self.config.cost_model)
                                });
                                if let Ok(ticket) = srv.submit(frag) {
                                    crate::obs::jit_event(crate::obs::JitEvent::AsyncSubmit);
                                    pending.insert(ticket, (region.seed, region.nodes.clone()));
                                }
                            } else {
                                let trace = self.compile_cached(frag, &mut report);
                                inject(
                                    &mut injections,
                                    &graph,
                                    &flat,
                                    region.nodes.clone(),
                                    trace,
                                    self.config.native,
                                );
                                report.injected_traces += 1;
                            }
                        }
                        Err(_) => {
                            report.fallbacks += 1;
                            crate::obs::jit_event(crate::obs::JitEvent::Deopt);
                        }
                    }
                }
                if !self.config.async_compile || report.injected_traces > injected_before {
                    plan = build_plan(&flat, &injections);
                    report.transitions.push(StateTransition {
                        iteration: iterations,
                        state: VmState::InjectFunctions,
                    });
                }
            }

            // Pick up shared-server compiles from the publish cache: the
            // submitting run counts the compile cost, runs that found the
            // fragment already in flight count a cache hit.
            if !shared_pending.is_empty() {
                let cache = shared_server
                    .as_ref()
                    .and_then(|s| s.cache())
                    .expect("shared_pending implies a publishing server");
                let mut landed_any = false;
                let mut i = 0;
                while i < shared_pending.len() {
                    match cache.peek(&shared_pending[i].0) {
                        Some(trace) => {
                            let (_, nodes, ours) = shared_pending.remove(i);
                            if ours {
                                report.compile_ns_total += trace.cost_ns;
                                crate::obs::jit_event(crate::obs::JitEvent::Publish {
                                    cost_ns: trace.cost_ns,
                                });
                            } else {
                                report.trace_cache_hits += 1;
                                crate::obs::jit_event(crate::obs::JitEvent::CacheHit);
                            }
                            inject(
                                &mut injections,
                                &graph,
                                &flat,
                                nodes,
                                trace,
                                self.config.native,
                            );
                            report.injected_traces += 1;
                            landed_any = true;
                        }
                        None => i += 1,
                    }
                }
                if landed_any {
                    plan = build_plan(&flat, &injections);
                    report.transitions.push(StateTransition {
                        iteration: iterations,
                        state: VmState::InjectFunctions,
                    });
                }
            }

            // Poll background compiles; inject anything finished.
            if let Some(srv) = &server {
                let finished = srv.poll();
                if !finished.is_empty() {
                    for f in finished {
                        if let Some((_, nodes)) = pending.remove(&f.ticket) {
                            report.compile_ns_total += f.trace.cost_ns;
                            crate::obs::jit_event(crate::obs::JitEvent::Publish {
                                cost_ns: f.trace.cost_ns,
                            });
                            if let Some(cache) = &self.config.code_cache {
                                cache.insert(
                                    TraceKey {
                                        fingerprint: f.trace.fingerprint,
                                        situation: GENERIC_SITUATION.to_string(),
                                    },
                                    f.trace.clone(),
                                );
                            }
                            inject(
                                &mut injections,
                                &graph,
                                &flat,
                                nodes,
                                f.trace,
                                self.config.native,
                            );
                            report.injected_traces += 1;
                        }
                    }
                    plan = build_plan(&flat, &injections);
                    report.transitions.push(StateTransition {
                        iteration: iterations,
                        state: VmState::InjectFunctions,
                    });
                }
            }

            // Execute one iteration of the plan.
            let mut idx = 0;
            while idx < plan.len() {
                match &plan[idx] {
                    Step::Node { stmt, site } => {
                        report.interpreted_nodes += 1;
                        if interp.exec_stmt_at(stmt, site.as_deref(), &mut env)? == Flow::Broke {
                            break 'outer;
                        }
                    }
                    Step::Scalar(stmt) => {
                        if interp.exec_stmt(stmt, &mut env)? == Flow::Broke {
                            break 'outer;
                        }
                    }
                    Step::Trace(k) => {
                        let inj = &injections[*k];
                        match exec_trace(
                            inj,
                            &mut interp,
                            &mut env,
                            self.config.chunk_size,
                            placement.as_mut(),
                            &mut device_clocks,
                            self.config.native,
                        ) {
                            Ok(tier) => {
                                report.trace_executions += 1;
                                if tier.tier == TraceTier::Native {
                                    report.native_trace_executions += 1;
                                }
                                if tier.native_deopt {
                                    report.native_deopts += 1;
                                    crate::obs::jit_event(crate::obs::JitEvent::NativeDeopt);
                                }
                            }
                            Err(TraceFailure::Recoverable(_)) => {
                                // Drop the injection for good and resume at
                                // the same plan position. The rebuilt plan
                                // agrees with the old one before `idx` (the
                                // anchor is the region's first covered node,
                                // so nothing covered precedes it), and at
                                // `idx` the trace step expands back into the
                                // anchor's node step — execution continues
                                // in document order, interleaved scalar
                                // statements (e.g. aliases between covered
                                // nodes) included. Manually interpreting the
                                // covered nodes back-to-back instead would
                                // skip those scalars and feed stale values
                                // to the nodes after them.
                                report.fallbacks += 1;
                                crate::obs::jit_event(crate::obs::JitEvent::Deopt);
                                injections.remove(*k);
                                plan = build_plan(&flat, &injections);
                                continue;
                            }
                            Err(TraceFailure::Fatal(e)) => return Err(e),
                        }
                    }
                }
                idx += 1;
            }
        }

        // Trailing statements after the loop.
        {
            let mut interp = Interpreter::new(self.config.chunk_size, &mut profile, policy);
            interp.exec_stmts(&program.stmts[loop_pos + 1..], &mut env)?;
        }

        report.iterations = iterations;
        report.profile = profile;
        if let Some(p) = &placement {
            report.device_decisions = p
                .devices()
                .iter()
                .zip(p.decisions())
                .map(|(d, &c)| (d.name.clone(), c))
                .collect();
            report.device_ns = p
                .devices()
                .iter()
                .zip(&device_clocks)
                .map(|(d, &ns)| (d.name.clone(), ns))
                .collect();
        }
        report.wall_ns = wall.elapsed().as_nanos() as u64;
        Ok((env.buffers, report))
    }
}

enum TraceFailure {
    /// Fall back to interpretation of the covered region. The error is
    /// retained for debugging (visible via `{:?}` in engine logs).
    #[allow(dead_code)]
    Recoverable(JitError),
    /// A genuine runtime error (bad buffer, storage failure).
    Fatal(VmError),
}

/// Execute one injected trace step. All fallible work happens before any
/// side effect, so a failure is recoverable by interpreting the region.
fn exec_trace(
    inj: &Injection,
    interp: &mut Interpreter<'_>,
    env: &mut Env,
    chunk_size: usize,
    placement: Option<&mut PlacementPolicy>,
    device_clocks: &mut [u64],
    allow_native: bool,
) -> Result<TierRun, TraceFailure> {
    let trace = &inj.trace;
    let t0 = Instant::now();

    // 1. Perform the region's buffer reads.
    let mut local: HashMap<&str, Array> = HashMap::with_capacity(trace.reads.len());
    for spec in &trace.reads {
        let pos = interp
            .eval_scalar_index(&spec.pos, env, "read position")
            .map_err(TraceFailure::Fatal)?;
        let len = match &spec.len {
            Some(l) => interp
                .eval_scalar_index(l, env, "read length")
                .map_err(TraceFailure::Fatal)?,
            None => chunk_size,
        };
        let chunk = env
            .buffers
            .read(&spec.buffer, pos, len)
            .map_err(TraceFailure::Fatal)?;
        local.insert(&spec.var, chunk);
    }

    let mut tier = TierRun {
        tier: TraceTier::Interpreted,
        native_deopt: false,
    };
    let (result, lanes, condensed) = {
        // 2. Gather trace inputs: read chunks from `local`, everything else
        // borrowed from the environment (condensing pending selections).
        let mut from_env: Vec<Option<Cow<'_, Array>>> = Vec::with_capacity(trace.ir.inputs.len());
        for name in &trace.ir.inputs {
            if local.contains_key(name.as_str()) {
                from_env.push(None);
                continue;
            }
            match env.get(name).map_err(TraceFailure::Fatal)? {
                Value::Vector(v) => from_env.push(Some(match &v.sel {
                    None => Cow::Borrowed(&v.data),
                    Some(sel) => Cow::Owned(
                        v.data
                            .take(sel.indices())
                            .map_err(|e| TraceFailure::Fatal(e.into()))?,
                    ),
                })),
                Value::Scalar(_) => {
                    return Err(TraceFailure::Recoverable(JitError::Unsupported(format!(
                        "trace input {name} is a scalar"
                    ))))
                }
            }
        }
        let inputs: Vec<&Array> = trace
            .ir
            .inputs
            .iter()
            .zip(&from_env)
            .map(|(name, gathered)| match gathered {
                Some(a) => &**a,
                None => &local[name.as_str()],
            })
            .collect();

        // 3. Run (with placement when devices are registered). Placement
        // runs stay on the interpreted tier — the device cost model meters
        // that path; only the plain host dispatch goes native.
        let lanes = inputs.first().map_or(0, |a| a.len());
        let result = match placement {
            Some(policy) => {
                let bytes_in: usize = inputs.iter().map(|a| a.byte_size()).sum();
                let d = policy.choose(lanes, trace.ir.op_count(), bytes_in, bytes_in);
                let run = run_trace_on(&policy.devices()[d].clone(), trace, &inputs, None)
                    .map_err(TraceFailure::Recoverable)?;
                device_clocks[d] += run.cost.total_ns();
                policy.feedback(
                    d,
                    lanes,
                    trace.ir.op_count(),
                    bytes_in,
                    bytes_in,
                    run.cost.total_ns(),
                );
                run.result
            }
            None => {
                let (r, t) = trace
                    .run_tiered(&inputs, None, allow_native)
                    .map_err(TraceFailure::Recoverable)?;
                tier = t;
                r
            }
        };
        // A condensed input is what a selection output of this trace
        // indexes: keep it beside the read chunks for step 4.
        let condensed: Vec<(&str, Array)> = trace
            .ir
            .inputs
            .iter()
            .zip(from_env)
            .filter_map(|(name, gathered)| match gathered {
                Some(Cow::Owned(a)) => Some((name.as_str(), a)),
                _ => None,
            })
            .collect();
        (result, lanes, condensed)
    };
    local.extend(condensed);

    // 4. Bind outputs (arrays first — selections may reference them).
    for (name, data) in result.arrays {
        env.set(&name, Value::dense(data));
    }
    for ((name, flow, sel), site) in result.sels.into_iter().zip(&inj.sel_sites) {
        let data = match local.get(flow.as_str()) {
            Some(a) => a.clone(),
            None => match env.get(&flow).map_err(TraceFailure::Fatal)? {
                Value::Vector(v) => v.data.clone(),
                Value::Scalar(_) => {
                    return Err(TraceFailure::Fatal(VmError::Shape(format!(
                        "selection flow {flow} is a scalar"
                    ))))
                }
            },
        };
        interp.profile.record_selectivity(
            site,
            if data.is_empty() {
                0.0
            } else {
                sel.len() as f64 / data.len() as f64
            },
        );
        env.set(&name, Value::Vector(Vector::selected(data, sel)));
    }
    for (name, scalar) in result.scalars {
        env.set(&name, Value::Scalar(scalar));
    }
    // Bind read results too (the loop's counter updates use len(input)):
    // each chunk moves into the environment, it is not copied again.
    for spec in &trace.reads {
        if let Some(data) = local.remove(spec.var.as_str()) {
            env.set(&spec.var, Value::dense(data));
        }
    }

    // 5. Perform the region's buffer writes.
    for spec in &trace.writes {
        let pos = interp
            .eval_scalar_index(&spec.pos, env, "write position")
            .map_err(TraceFailure::Fatal)?;
        let value = env.get(&spec.value_var).map_err(TraceFailure::Fatal)?;
        let data = match value {
            Value::Vector(v) => {
                v.condense()
                    .map_err(|e| TraceFailure::Fatal(e.into()))?
                    .data
            }
            Value::Scalar(s) => Array::splat(s, 1),
        };
        env.buffers
            .write(&spec.buffer, pos, &data)
            .map_err(TraceFailure::Fatal)?;
    }

    interp
        .profile
        .record(&inj.site, t0.elapsed().as_nanos() as u64, lanes);
    Ok(tier)
}

/// A flattened loop body: document-ordered items.
struct FlatBody {
    items: Vec<FlatItem>,
}

enum FlatItem {
    Node { id: NodeId, stmt: Stmt },
    Scalar(Stmt),
}

/// Flatten a loop body into document-ordered items; `None` when the body
/// has shapes the flat executor cannot honor (nested loops, skeletons
/// inside `if` branches).
fn flatten_body(stmts: &[Stmt]) -> Option<FlatBody> {
    let mut items = Vec::new();
    let mut next_id = 0usize;
    if !flatten_into(stmts, &mut items, &mut next_id) {
        return None;
    }
    Some(FlatBody { items })
}

fn stmt_has_nodes(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Let { expr, body, .. } => expr.op_class() != OpClass::Scalar || stmt_has_nodes(body),
        Stmt::Write { .. } | Stmt::Scatter { .. } => true,
        Stmt::Loop(b) => stmt_has_nodes(b),
        Stmt::If { then, els, .. } => stmt_has_nodes(then) || stmt_has_nodes(els),
        _ => false,
    })
}

fn flatten_into(stmts: &[Stmt], items: &mut Vec<FlatItem>, next_id: &mut usize) -> bool {
    for s in stmts {
        match s {
            Stmt::Let { name, expr, body } => {
                if expr.op_class() != OpClass::Scalar {
                    let id = *next_id;
                    *next_id += 1;
                    items.push(FlatItem::Node {
                        id,
                        stmt: Stmt::Let {
                            name: name.clone(),
                            expr: expr.clone(),
                            body: Vec::new(),
                        },
                    });
                } else {
                    // Scalar binding becomes a flat assignment.
                    items.push(FlatItem::Scalar(Stmt::Assign {
                        name: name.clone(),
                        expr: expr.clone(),
                    }));
                }
                if !flatten_into(body, items, next_id) {
                    return false;
                }
            }
            Stmt::Write { .. } | Stmt::Scatter { .. } => {
                let id = *next_id;
                *next_id += 1;
                items.push(FlatItem::Node {
                    id,
                    stmt: s.clone(),
                });
            }
            Stmt::Loop(_) => return false, // nested loops stay interpreted
            Stmt::If { then, els, .. } => {
                if stmt_has_nodes(then) || stmt_has_nodes(els) {
                    return false;
                }
                items.push(FlatItem::Scalar(s.clone()));
            }
            other => items.push(FlatItem::Scalar(other.clone())),
        }
    }
    true
}

/// Build the executable plan from the flat body and current injections.
fn build_plan(flat: &FlatBody, injections: &[Injection]) -> Vec<Step> {
    let mut plan = Vec::with_capacity(flat.items.len());
    for item in &flat.items {
        match item {
            FlatItem::Scalar(s) => plan.push(Step::Scalar(s.clone())),
            FlatItem::Node { id, stmt } => {
                match injections.iter().position(|inj| inj.covered.contains(id)) {
                    Some(k) if injections[k].anchor == *id => plan.push(Step::Trace(k)),
                    Some(_) => {} // covered, non-anchor: skipped
                    None => plan.push(Step::Node {
                        stmt: stmt.clone(),
                        site: match stmt {
                            Stmt::Let {
                                expr: Expr::Filter { p, .. },
                                ..
                            } => Some(filter_site(p)),
                            _ => None,
                        },
                    }),
                }
            }
        }
    }
    plan
}

/// Register an injection: the anchor is the *first* covered node in
/// document order, so the trace runs at the region's original position.
fn inject(
    injections: &mut Vec<Injection>,
    _graph: &DepGraph,
    flat: &FlatBody,
    nodes: Vec<NodeId>,
    trace: Arc<CompiledTrace>,
    native: bool,
) {
    let covered: HashSet<NodeId> = nodes.iter().copied().collect();
    let mut anchor = None;
    for item in &flat.items {
        if let FlatItem::Node { id, .. } = item {
            if covered.contains(id) && anchor.is_none() {
                anchor = Some(*id);
            }
        }
    }
    let Some(anchor) = anchor else { return };
    if native && trace.has_native() && trace.tier_verdict() != Some(TraceTier::Interpreted) {
        // The injected trace carries an executable machine-code body the
        // engine will dispatch to (unless its own measurements already
        // found the packed tier faster).
        crate::obs::jit_event(crate::obs::JitEvent::NativeInstall);
    }
    injections.push(Injection {
        site: format!("trace@{anchor}"),
        sel_sites: trace
            .ir
            .outputs
            .iter()
            .filter_map(|o| match o {
                OutputSpec::Sel { name, .. } => Some(format!("trace-sel@{name}")),
                _ => None,
            })
            .collect(),
        anchor,
        covered,
        trace,
    });
}

/// Infer element types of `let` bindings (best effort) — the JIT's
/// type hints for output narrowing and lane selection.
fn binding_types(program: &Program, buffers: &Buffers) -> HashMap<String, ScalarType> {
    let mut env = TypeEnv::new();
    for (name, ty) in buffers.input_types() {
        env = env.with_buffer(name, ty);
    }
    let mut hints = HashMap::new();
    collect_binding_types(&program.stmts, &mut env, &mut hints);
    hints
}

fn collect_binding_types(
    stmts: &[Stmt],
    env: &mut TypeEnv,
    hints: &mut HashMap<String, ScalarType>,
) {
    for s in stmts {
        match s {
            Stmt::Let { name, expr, body } => {
                if let Ok(t) = infer_expr(expr, env) {
                    if let Type::Array(elem) = t {
                        hints.insert(name.clone(), elem);
                    }
                    *env = std::mem::take(env).with_var(name, t);
                }
                collect_binding_types(body, env, hints);
            }
            Stmt::Assign { name, expr } => {
                if let Ok(t) = infer_expr(expr, env) {
                    *env = std::mem::take(env).with_var(name, t);
                }
            }
            Stmt::Loop(body) => collect_binding_types(body, env, hints),
            Stmt::If { then, els, .. } => {
                collect_binding_types(then, env, hints);
                collect_binding_types(els, env, hints);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_dsl::programs;
    use adaptvm_hetsim::device::DeviceSpec;

    fn fig2_data(n: usize) -> Vec<i64> {
        (0..n as i64).map(|i| (i % 7) - 3).collect()
    }

    fn run_fig2(config: VmConfig, n: usize, limit: i64) -> (Buffers, RunReport) {
        let data = fig2_data(n);
        let buffers = Buffers::new().with_input("some_data", Array::from(data));
        let vm = Vm::new(config);
        vm.run(&programs::fig2_with_limit(limit), buffers).unwrap()
    }

    /// Elements the Fig. 2 loop processes at this chunk size (whole chunks
    /// until the limit check fires).
    fn fig2_processed(n: usize, chunk: usize, limit: usize) -> usize {
        let mut i = 0;
        while i < limit {
            let take = chunk.min(n - i);
            if take == 0 {
                break;
            }
            i += take;
        }
        i
    }

    fn check_fig2_chunked(out: &Buffers, n: usize, chunk: usize, limit: usize) {
        let data = fig2_data(n);
        let processed = fig2_processed(n, chunk, limit);
        let (v, w) = programs::fig2_reference(&data, processed);
        assert_eq!(out.output("v").unwrap().to_i64_vec().unwrap(), v);
        assert_eq!(out.output("w").unwrap().to_i64_vec().unwrap(), w);
    }

    fn check_fig2(out: &Buffers, n: usize, limit: usize) {
        check_fig2_chunked(out, n, DEFAULT_CHUNK, limit)
    }

    #[test]
    fn fig1_state_machine_sequence() {
        let config = VmConfig {
            hot_threshold: 4,
            ..VmConfig::default()
        };
        let (out, report) = run_fig2(config, 40_000, 32_768);
        check_fig2(&out, 40_000, 32_768);
        // Interpret → Optimize → GenerateCode → InjectFunctions.
        assert_eq!(
            report.state_names(),
            vec!["interpret", "optimize", "generate_code", "inject_functions"]
        );
        assert!(report.injected_traces >= 2, "{report:?}");
        assert!(report.trace_executions > 0);
        // The first iterations were interpreted.
        assert!(report.interpreted_nodes > 0);
        assert_eq!(report.iterations, 32);
    }

    #[test]
    fn all_strategies_agree_on_fig2() {
        let n = 20_000;
        let limit = 16_384;
        let mut reference: Option<Vec<i64>> = None;
        for strategy in [
            Strategy::Interpret,
            Strategy::CompiledPipeline,
            Strategy::Adaptive,
        ] {
            let config = VmConfig {
                strategy,
                hot_threshold: 3,
                ..VmConfig::default()
            };
            let (out, _) = run_fig2(config, n, limit as i64);
            check_fig2(&out, n, limit);
            let w = out.output("w").unwrap().to_i64_vec().unwrap();
            match &reference {
                None => reference = Some(w),
                Some(r) => assert_eq!(*r, w, "{strategy:?} diverged"),
            }
        }
    }

    #[test]
    fn chunk_sizes_agree() {
        // Vectorized (1024), tuple-at-a-time (1), column-at-a-time (whole
        // input) — footnote 1's strategy axis.
        for chunk in [1usize, 7, 1024, 1 << 20] {
            let config = VmConfig {
                chunk_size: chunk,
                strategy: Strategy::CompiledPipeline,
                ..VmConfig::default()
            };
            let (out, _) = run_fig2(config, 5000, 4096);
            check_fig2_chunked(&out, 5000, chunk, 4096);
        }
    }

    #[test]
    fn async_compile_injects_mid_run() {
        // The background worker races the loop; retry with growing inputs
        // so the test is robust on fast machines (injection timing is
        // inherently nondeterministic — that is the point of Fig. 1's
        // background code generation).
        let mut injected = None;
        for scale in [1usize, 8, 32] {
            let n = 200_000 * scale;
            let limit = (n - 50_000) as i64;
            let config = VmConfig {
                hot_threshold: 2,
                async_compile: true,
                ..VmConfig::default()
            };
            let (out, report) = run_fig2(config, n, limit);
            check_fig2(&out, n, limit as usize);
            if report.injected_traces > 0 {
                injected = Some(report);
                break;
            }
        }
        let report = injected.expect("background compile should land within the largest run");
        let names = report.state_names();
        assert!(names.contains(&"inject_functions"), "{names:?}");
        let inject_iter = report
            .transitions
            .iter()
            .find(|t| t.state == VmState::InjectFunctions)
            .unwrap()
            .iteration;
        assert!(
            inject_iter >= 2,
            "background injection should land at/after the optimize point"
        );
    }

    #[test]
    fn interpret_strategy_never_compiles() {
        let config = VmConfig {
            strategy: Strategy::Interpret,
            ..VmConfig::default()
        };
        let (out, report) = run_fig2(config, 10_000, 8192);
        check_fig2(&out, 10_000, 8192);
        assert_eq!(report.injected_traces, 0);
        assert_eq!(report.trace_executions, 0);
        assert_eq!(report.compile_ns_total, 0);
    }

    #[test]
    fn compiled_pipeline_compiles_upfront() {
        let config = VmConfig {
            strategy: Strategy::CompiledPipeline,
            ..VmConfig::default()
        };
        let (out, report) = run_fig2(config, 10_000, 8192);
        check_fig2(&out, 10_000, 8192);
        assert_eq!(report.injected_traces, 1);
        assert!(report.compile_ns_total > 0);
        assert_eq!(report.interpreted_nodes, 0, "everything runs in the trace");
    }

    #[test]
    fn programs_without_loops_run() {
        let vm = Vm::adaptive();
        let b = Buffers::new()
            .with_input("xs", Array::from(vec![3.0, 4.0]))
            .with_input("ys", Array::from(vec![4.0, 3.0]));
        let (out, report) = vm.run(&programs::hypot_whole_array(), b).unwrap();
        assert_eq!(out.output("out").unwrap(), &Array::from(vec![5.0, 5.0]));
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn placement_chooses_cpu_for_small_chunks() {
        let config = VmConfig {
            strategy: Strategy::CompiledPipeline,
            devices: vec![DeviceSpec::cpu(), DeviceSpec::discrete_gpu()],
            ..VmConfig::default()
        };
        let (out, report) = run_fig2(config, 10_000, 8192);
        check_fig2(&out, 10_000, 8192);
        let cpu = report
            .device_decisions
            .iter()
            .find(|(n, _)| n == "cpu")
            .unwrap()
            .1;
        let gpu = report
            .device_decisions
            .iter()
            .find(|(n, _)| n == "dgpu")
            .unwrap()
            .1;
        assert!(
            cpu > 0 && gpu == 0,
            "small chunks belong on the CPU: {report:?}"
        );
        assert!(report.device_ns.iter().any(|(_, ns)| *ns > 0));
    }

    #[test]
    fn filter_sum_adaptive_matches_reference() {
        let data: Vec<i64> = (0..50_000).map(|i| (i * 31) % 200 - 100).collect();
        let buffers = Buffers::new().with_input("xs", Array::from(data.clone()));
        let config = VmConfig {
            hot_threshold: 3,
            ..VmConfig::default()
        };
        let vm = Vm::new(config);
        let p = programs::filter_sum(0, 40_000);
        let (_, report) = vm.run(&p, buffers).unwrap();
        assert!(report.injected_traces > 0);
        // acc lives in the env — surface it via a write program instead:
        // simpler: rerun interpreted and compare profiles' iteration count.
        assert_eq!(report.iterations, 40);
    }

    #[test]
    fn shared_code_cache_compiles_once_across_runs() {
        let cache = Arc::new(CodeCache::new(8));
        let config = VmConfig {
            strategy: Strategy::CompiledPipeline,
            code_cache: Some(cache.clone()),
            ..VmConfig::default()
        };
        // First run: compiles and publishes the pipeline trace.
        let (out1, r1) = run_fig2(config.clone(), 10_000, 8192);
        check_fig2(&out1, 10_000, 8192);
        assert_eq!(r1.injected_traces, 1);
        assert_eq!(r1.trace_cache_hits, 0);
        assert!(r1.compile_ns_total > 0);
        assert_eq!(cache.stats().entries, 1);
        // Second run over the same program: injects from the cache, pays
        // no compile cost, computes the same result.
        let (out2, r2) = run_fig2(config, 10_000, 8192);
        check_fig2(&out2, 10_000, 8192);
        assert_eq!(r2.trace_cache_hits, 1);
        assert_eq!(r2.compile_ns_total, 0);
        assert_eq!(out1.output("v"), out2.output("v"));
        // Adaptive runs share the same cache entries.
        let adaptive = VmConfig {
            strategy: Strategy::Adaptive,
            hot_threshold: 2,
            code_cache: Some(cache.clone()),
            ..VmConfig::default()
        };
        let (out3, r3) = run_fig2(adaptive, 10_000, 8192);
        check_fig2(&out3, 10_000, 8192);
        assert!(
            r3.trace_cache_hits + (r3.injected_traces as u64) > 0,
            "{r3:?}"
        );
    }

    #[test]
    fn shared_compile_server_publishes_across_runs() {
        // A publishing server over a shared cache: the first async run
        // submits the hot fragments; once the compiles land in the cache,
        // later runs over the same program hit without compiling. Retry
        // with growing inputs — background landing time is nondeterministic
        // (that is the point) but the *cache* outlives each run, so the
        // second run observes whatever the first one seeded.
        let cache = Arc::new(CodeCache::new(16));
        let server = Arc::new(CompileServer::with_cache(
            CostModel::untimed(),
            cache.clone(),
            GENERIC_SITUATION,
        ));
        let config = VmConfig {
            strategy: Strategy::Adaptive,
            hot_threshold: 2,
            async_compile: true,
            code_cache: Some(cache.clone()),
            compile_server: Some(server.clone()),
            ..VmConfig::default()
        };
        let (out1, _) = run_fig2(config.clone(), 200_000, 150_000);
        check_fig2(&out1, 200_000, 150_000);
        // Give the background compiles time to publish.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while cache.stats().entries == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(cache.stats().entries > 0, "server must publish to cache");
        let (out2, r2) = run_fig2(config, 200_000, 150_000);
        check_fig2(&out2, 200_000, 150_000);
        assert_eq!(out1.output("v"), out2.output("v"));
        assert!(
            r2.trace_cache_hits > 0,
            "second run must hit the published traces: {r2:?}"
        );
        assert_eq!(r2.compile_ns_total, 0, "{r2:?}");
    }

    #[test]
    fn non_publishing_shared_server_is_ignored() {
        // A plain `start()` server cannot be shared safely (unclaimed
        // finishes would be lost), so the engine falls back to its private
        // background path and still completes correctly.
        let server = Arc::new(CompileServer::start(CostModel::untimed()));
        let config = VmConfig {
            strategy: Strategy::Adaptive,
            hot_threshold: 2,
            async_compile: true,
            compile_server: Some(server),
            ..VmConfig::default()
        };
        let (out, _) = run_fig2(config, 50_000, 40_000);
        check_fig2(&out, 50_000, 40_000);
    }

    #[test]
    fn trace_selection_over_a_selected_input_indexes_the_condensed_lanes() {
        // A trace whose flow input arrives from the environment with a
        // pending selection runs over the condensed lanes, so the
        // selection it outputs indexes those — it must be attached to the
        // condensed data, not to the physical chunk.
        use adaptvm_dsl::ast::ScalarOp;
        use adaptvm_jit::ir::{FilterCheck, LaneType, Src, TraceIr};
        use adaptvm_storage::sel::SelVec;
        let ir = TraceIr {
            lane: LaneType::I64,
            inputs: vec!["t".into()],
            n_regs: 0,
            pre_ops: vec![],
            filter: Some(FilterCheck {
                op: ScalarOp::Lt,
                lhs: Src::Input(0),
                rhs: Src::ConstI(9),
            }),
            post_ops: vec![],
            outputs: vec![OutputSpec::Sel {
                name: "u".into(),
                flow: "t".into(),
            }],
        };
        let fragment = Fragment {
            ir,
            reads: vec![],
            writes: vec![],
            node_ids: vec![0],
        };
        let mut injections = Vec::new();
        let flat = FlatBody {
            items: vec![FlatItem::Node {
                id: 0,
                stmt: Stmt::Break,
            }],
        };
        inject(
            &mut injections,
            &DepGraph::from_stmts(&[]),
            &flat,
            vec![0],
            Arc::new(compile(fragment, &CostModel::untimed())),
            false,
        );
        let mut env = Env::new(Buffers::new());
        // Physical chunk [1, 20, 3, 30, 5]; lanes 1, 2, 4 selected.
        env.set(
            "t",
            Value::Vector(Vector::selected(
                Array::from(vec![1i64, 20, 3, 30, 5]),
                SelVec::new(vec![1, 2, 4]),
            )),
        );
        let mut profile = Profile::new();
        let mut policy = FixedPolicy::default();
        let mut interp = Interpreter::new(1024, &mut profile, &mut policy);
        exec_trace(
            &injections[0],
            &mut interp,
            &mut env,
            1024,
            None,
            &mut [],
            false,
        )
        .unwrap_or_else(|_| panic!("trace step failed"));
        let u = env
            .get("u")
            .unwrap()
            .as_vector()
            .unwrap()
            .condense()
            .unwrap();
        assert_eq!(u.data, Array::from(vec![3i64, 5]));
    }

    #[test]
    fn trace_and_interpreter_outputs_byte_identical() {
        // Larger soak: every chunk boundary shape (full, partial, empty).
        for n in [1usize, 1023, 1024, 1025, 4096, 10_000] {
            let limit = n.min(8192) as i64;
            let ci = VmConfig {
                strategy: Strategy::Interpret,
                ..VmConfig::default()
            };
            let ca = VmConfig {
                strategy: Strategy::Adaptive,
                hot_threshold: 1,
                ..VmConfig::default()
            };
            let (a, _) = run_fig2(ci, n, limit);
            let (b, _) = run_fig2(ca, n, limit);
            assert_eq!(a.output("v"), b.output("v"), "n={n}");
            assert_eq!(a.output("w"), b.output("w"), "n={n}");
        }
    }
}
