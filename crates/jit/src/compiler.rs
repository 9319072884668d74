//! The compiler: optimization + calibrated compile-cost model + background
//! compile server.
//!
//! §III-B: "The purpose of our partial compilation is to minimize
//! compilation effort (optimizer passes tend to take longer with an
//! increasing amount of code)". The [`CostModel`] reproduces that
//! superlinear behaviour — `base + per_op·n + per_op²·n²` — so the VM's
//! compile-or-interpret decisions face the same trade-off an LLVM backend
//! would impose. The model's time is *real* (the compiler works, then pads
//! to the modeled duration), which keeps wall-clock benchmarks honest, and
//! is also recorded as `cost_ns` for deterministic policy decisions.
//!
//! [`CompileServer`] is the Fig. 1 background path: the interpreter keeps
//! running while a worker thread generates code; finished traces are
//! *injected* on the next poll.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::builder::{Fragment, ReadSpec, WriteSpec};
use crate::cache::{CodeCache, TraceKey};
use crate::error::JitError;
use crate::exec::{self, NativeTrace};
use crate::ir::{self, PackedProgram, TraceIr, TraceResult};
use crate::passes::{optimize, PassStats};

use adaptvm_storage::array::Array;
use adaptvm_storage::sel::SelVec;

/// Compile-cost model (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed overhead per compilation.
    pub base_ns: u64,
    /// Linear component per trace operation.
    pub per_op_ns: u64,
    /// Quadratic component per (operation)² — the "optimizer passes take
    /// longer with more code" term.
    pub per_op2_ns: u64,
    /// When false, no padding is performed (unit tests use this); the
    /// modeled cost is still reported.
    pub enforce: bool,
}

impl Default for CostModel {
    fn default() -> CostModel {
        // Calibrated to LLVM-ish magnitudes for small fragments: a 4-op
        // fragment costs ~0.4 ms, a 20-op pipeline ~3.2 ms.
        CostModel {
            base_ns: 100_000,
            per_op_ns: 50_000,
            per_op2_ns: 5_000,
            enforce: true,
        }
    }
}

impl CostModel {
    /// A model that reports costs but never sleeps (for tests).
    pub fn untimed() -> CostModel {
        CostModel {
            enforce: false,
            ..CostModel::default()
        }
    }

    /// Modeled cost for a fragment of `n_ops` operations.
    pub fn cost_ns(&self, n_ops: usize) -> u64 {
        let n = n_ops as u64;
        self.base_ns + self.per_op_ns * n + self.per_op2_ns * n * n
    }
}

/// A compiled, optimized, executable trace.
#[derive(Debug)]
pub struct CompiledTrace {
    /// The optimized trace IR.
    pub ir: TraceIr,
    /// Buffer reads the VM performs before invoking the trace.
    pub reads: Vec<ReadSpec>,
    /// Buffer writes the VM performs afterwards.
    pub writes: Vec<WriteSpec>,
    /// Optimization statistics.
    pub stats: PassStats,
    /// Modeled compilation cost in nanoseconds.
    pub cost_ns: u64,
    /// The fragment's fingerprint ([`Fragment::fingerprint`],
    /// pre-optimization).
    pub fingerprint: u64,
    /// The packed (validated, operand-resolved) program — built once here
    /// so execution never re-validates. A pack error is surfaced on the
    /// first run and triggers the VM's interpretation fallback.
    packed: Result<PackedProgram, JitError>,
    /// Native machine code for the trace, when the host supports it and
    /// the trace is eligible (see [`exec::compile_native`]). `None` means
    /// the interpreted-trace tier serves every run — never an error.
    native: Option<Arc<NativeTrace>>,
    /// Measured cost of each tier, shared by every run of this trace.
    tiers: TierStats,
}

/// Which tier produced a trace result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTier {
    /// Generated x86-64 machine code.
    Native,
    /// The packed trace interpreter.
    Interpreted,
}

/// How one tiered trace execution went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierRun {
    /// The tier whose result was returned.
    pub tier: TraceTier,
    /// True when native code started the chunk but deopted, so the result
    /// came from the interpreter re-run.
    pub native_deopt: bool,
}

/// Executions each tier is timed for before the verdict.
const TIER_SAMPLES: u32 = 3;
/// Chunks shorter than this are not timed: their cost is the per-call
/// set-up, not the loop the tiers differ in.
const SAMPLE_MIN_LANES: usize = 256;

/// Per-tier timing of one trace: how many executions were sampled and the
/// best nanoseconds per 1024 lanes among them (the minimum — a neighbour
/// on the box only ever slows a sample down). Relaxed atomics: these are
/// statistics, they publish no other data, and a lost race costs at most
/// one extra sample.
#[derive(Debug)]
struct TierStats {
    samples: [AtomicU32; 2],
    best: [AtomicU64; 2],
}

impl TierStats {
    fn new() -> TierStats {
        TierStats {
            samples: [AtomicU32::new(0), AtomicU32::new(0)],
            best: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
        }
    }

    fn slot(tier: TraceTier) -> usize {
        match tier {
            TraceTier::Native => 0,
            TraceTier::Interpreted => 1,
        }
    }

    /// The measured-faster tier once both have their samples (ties go to
    /// native), `None` while sampling.
    fn verdict(&self) -> Option<TraceTier> {
        let done = |t: usize| self.samples[t].load(Ordering::Relaxed) >= TIER_SAMPLES;
        if !(done(0) && done(1)) {
            return None;
        }
        let (native, packed) = (
            self.best[0].load(Ordering::Relaxed),
            self.best[1].load(Ordering::Relaxed),
        );
        Some(if native <= packed {
            TraceTier::Native
        } else {
            TraceTier::Interpreted
        })
    }

    /// The tier the next sampled execution should time: the one with fewer
    /// samples, native first.
    fn next_sample(&self) -> TraceTier {
        if self.samples[0].load(Ordering::Relaxed) <= self.samples[1].load(Ordering::Relaxed) {
            TraceTier::Native
        } else {
            TraceTier::Interpreted
        }
    }

    fn record(&self, tier: TraceTier, elapsed: Duration, lanes: usize) {
        let per_1024 = (elapsed.as_nanos() as u64).saturating_mul(1024) / lanes as u64;
        let t = TierStats::slot(tier);
        self.best[t].fetch_min(per_1024, Ordering::Relaxed);
        self.samples[t].fetch_add(1, Ordering::Relaxed);
    }
}

/// Forced verdict for tests: 0 = none, 1 = native, 2 = interpreted.
static FORCED_VERDICT: AtomicU8 = AtomicU8::new(0);

/// Test hook: make every trace behave as if the given tier had won its
/// sampling (process-wide); `None` restores measurement.
#[doc(hidden)]
pub fn force_tier_verdict(tier: Option<TraceTier>) {
    let v = match tier {
        None => 0,
        Some(TraceTier::Native) => 1,
        Some(TraceTier::Interpreted) => 2,
    };
    // Relaxed: the flag publishes no other data.
    FORCED_VERDICT.store(v, Ordering::Relaxed);
}

fn forced_verdict() -> Option<TraceTier> {
    match FORCED_VERDICT.load(Ordering::Relaxed) {
        1 => Some(TraceTier::Native),
        2 => Some(TraceTier::Interpreted),
        _ => None,
    }
}

impl CompiledTrace {
    /// Execute over chunk inputs (see [`ir::execute`]).
    pub fn run(
        &self,
        inputs: &[&Array],
        candidates: Option<&SelVec>,
    ) -> Result<TraceResult, JitError> {
        match &self.packed {
            Ok(p) => ir::run_packed(&self.ir, p, inputs, candidates),
            Err(e) => Err(e.clone()),
        }
    }

    /// Whether native machine code was generated for this trace.
    pub fn has_native(&self) -> bool {
        self.native.is_some()
    }

    /// Emitted native code size in bytes, when a native body exists.
    pub fn native_code_len(&self) -> Option<usize> {
        self.native.as_ref().map(|n| n.code_len())
    }

    /// The tier this trace's own measurements chose, once its first
    /// executions have timed both (`None` before that, and for traces
    /// without a native body).
    pub fn tier_verdict(&self) -> Option<TraceTier> {
        self.native.as_ref().and(self.tiers.verdict())
    }

    /// Execute on the measured-faster tier. A trace with a native body
    /// times its first executions on both tiers — three each,
    /// alternating, native first, full-size chunks only — and afterwards
    /// dispatches every chunk to whichever was faster per lane; the
    /// measurements live on the (shared) trace, so every run and worker
    /// using it contributes to and follows one verdict.
    ///
    /// Native code runs only for the packed (no pending selection) path it
    /// was compiled for; any guard deopt discards the native attempt and
    /// re-runs the interpreter over the same chunk, so the returned result
    /// is always bit-identical to [`CompiledTrace::run`], whichever tier is
    /// chosen. `allow_native: false` pins the interpreted tier (engine
    /// config / non-x86-64 hosts).
    pub fn run_tiered(
        &self,
        inputs: &[&Array],
        candidates: Option<&SelVec>,
        allow_native: bool,
    ) -> Result<(TraceResult, TierRun), JitError> {
        let interpreted = TierRun {
            tier: TraceTier::Interpreted,
            native_deopt: false,
        };
        let native = match &self.native {
            Some(nt) if allow_native && candidates.is_none() && self.packed.is_ok() => nt,
            _ => return Ok((self.run(inputs, candidates)?, interpreted)),
        };
        let lanes = inputs.first().map_or(0, |a| a.len());
        let verdict = forced_verdict().or_else(|| self.tiers.verdict());
        let sampling = verdict.is_none() && lanes >= SAMPLE_MIN_LANES;
        let tier = match verdict {
            Some(t) => t,
            None if sampling => self.tiers.next_sample(),
            None => TraceTier::Native,
        };
        let started = sampling.then(Instant::now);
        let run = match tier {
            TraceTier::Interpreted => (self.run(inputs, candidates)?, interpreted),
            TraceTier::Native => match exec::run_native(&self.ir, native, inputs) {
                Ok(r) => (
                    r,
                    TierRun {
                        tier: TraceTier::Native,
                        native_deopt: false,
                    },
                ),
                Err(_) => (
                    self.run(inputs, candidates)?,
                    TierRun {
                        tier: TraceTier::Interpreted,
                        native_deopt: true,
                    },
                ),
            },
        };
        if let Some(t0) = started {
            // A deopted attempt is charged to native, re-run included:
            // that is what choosing native costs on this input.
            self.tiers.record(tier, t0.elapsed(), lanes);
        }
        Ok(run)
    }
}

/// Compile a fragment synchronously.
pub fn compile(fragment: Fragment, model: &CostModel) -> CompiledTrace {
    let started = Instant::now();
    let fingerprint = fragment.fingerprint();
    let n_ops = fragment.ir.op_count();
    let (ir, stats) = optimize(fragment.ir);
    let cost = Duration::from_nanos(model.cost_ns(n_ops));
    if model.enforce {
        // Pad real elapsed time up to the modeled cost so wall-clock
        // benchmarks see the LLVM-ish compile latency.
        while started.elapsed() < cost {
            std::hint::spin_loop();
        }
    }
    let packed = ir.pack();
    // Lower to machine code only for traces the interpreter validated;
    // ineligible traces (or non-x86-64 hosts) keep `native: None` and are
    // served by the interpreted tier.
    let native = if packed.is_ok() {
        exec::compile_native(&ir).map(Arc::new)
    } else {
        None
    };
    CompiledTrace {
        ir,
        reads: fragment.reads,
        writes: fragment.writes,
        stats,
        cost_ns: model.cost_ns(n_ops),
        fingerprint,
        packed,
        native,
        tiers: TierStats::new(),
    }
}

/// A compile request tagged with an opaque ticket.
struct Job {
    ticket: u64,
    fragment: Fragment,
}

/// A finished compilation.
pub struct Finished {
    /// The ticket the job was submitted under.
    pub ticket: u64,
    /// The compiled trace.
    pub trace: Arc<CompiledTrace>,
}

/// Background compile server (Fig. 1: interpretation continues while code
/// is generated; finished functions are injected on poll).
///
/// The server is shareable across threads: `submit`/`poll`/`wait` take
/// `&self` (the ticket counter is atomic, the channels have interior
/// locking), so a morsel-parallel run can hand one `Arc<CompileServer>`
/// to every worker and let whichever worker polls first inject the trace.
///
/// ## Publishing mode
///
/// A server started with [`CompileServer::with_cache`] additionally
/// **publishes** every finished trace into a shared [`CodeCache`] (keyed by
/// fragment fingerprint + the configured situation) *before* reporting it
/// on the done channel. This decouples producers from consumers: a run can
/// submit a hot fragment, end before the compile lands, and a *later* run
/// over the same fragment — another morsel of the same query, or another
/// query on the same scheduler — picks the trace up from the cache.
/// [`CompileServer::submit_unique`] pairs with this mode: it deduplicates
/// by fingerprint so a fragment resubmitted by every morsel of a parallel
/// run compiles only once.
pub struct CompileServer {
    tx: Option<Sender<Job>>,
    rx_done: Receiver<Finished>,
    worker: Option<std::thread::JoinHandle<()>>,
    next_ticket: AtomicU64,
    /// Finishes drained from the channel but not yet claimed: lets
    /// concurrent `wait` calls complete in any ticket order.
    stash: parking_lot::Mutex<Vec<Finished>>,
    /// The publish target, when started with [`CompileServer::with_cache`].
    publish: Option<(Arc<CodeCache>, String)>,
    /// Fingerprints submitted via `submit_unique` and not yet published.
    inflight: Arc<parking_lot::Mutex<HashSet<u64>>>,
}

impl CompileServer {
    /// Start the worker thread.
    pub fn start(model: CostModel) -> CompileServer {
        CompileServer::spawn(model, None)
    }

    /// Start the worker thread in publishing mode: every finished trace is
    /// inserted into `cache` under `(fingerprint, situation)` before it is
    /// reported on the done channel.
    pub fn with_cache(
        model: CostModel,
        cache: Arc<CodeCache>,
        situation: impl Into<String>,
    ) -> CompileServer {
        CompileServer::spawn(model, Some((cache, situation.into())))
    }

    fn spawn(model: CostModel, publish: Option<(Arc<CodeCache>, String)>) -> CompileServer {
        let (tx, rx) = unbounded::<Job>();
        let (tx_done, rx_done) = unbounded::<Finished>();
        let publish_cache = publish.clone();
        let inflight = Arc::new(parking_lot::Mutex::new(HashSet::new()));
        let worker_inflight = inflight.clone();
        let worker = std::thread::Builder::new()
            .name("adaptvm-jit".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    let trace = Arc::new(compile(job.fragment, &model));
                    if let Some((cache, situation)) = &publish {
                        cache.insert(
                            TraceKey {
                                fingerprint: trace.fingerprint,
                                situation: situation.clone(),
                            },
                            trace.clone(),
                        );
                    }
                    // Publish precedes the in-flight release: a concurrent
                    // `submit_unique` that misses the in-flight set is then
                    // guaranteed to see the trace in the cache.
                    worker_inflight.lock().remove(&trace.fingerprint);
                    if tx_done
                        .send(Finished {
                            ticket: job.ticket,
                            trace,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
            })
            .expect("spawn jit worker");
        CompileServer {
            tx: Some(tx),
            rx_done,
            worker: Some(worker),
            next_ticket: AtomicU64::new(0),
            stash: parking_lot::Mutex::new(Vec::new()),
            publish: publish_cache,
            inflight,
        }
    }

    /// The publish cache, when the server was started with
    /// [`CompileServer::with_cache`].
    pub fn cache(&self) -> Option<&Arc<CodeCache>> {
        self.publish.as_ref().map(|(c, _)| c)
    }

    /// The situation string finished traces are published under (set by
    /// [`CompileServer::with_cache`]). Consumers key their cache lookups
    /// from this, so server and engine can never disagree on the key.
    pub fn situation(&self) -> Option<&str> {
        self.publish.as_ref().map(|(_, s)| s.as_str())
    }

    /// Submit a fragment; returns the ticket to match against
    /// [`CompileServer::poll`] results.
    pub fn submit(&self, fragment: Fragment) -> Result<u64, JitError> {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.tx
            .as_ref()
            .ok_or(JitError::ServerDown)?
            .send(Job { ticket, fragment })
            .map_err(|_| JitError::ServerDown)?;
        Ok(ticket)
    }

    /// Submit a fragment unless one with the same fingerprint is already in
    /// flight. Returns `Ok(Some(ticket))` when this call enqueued the
    /// compile, `Ok(None)` when another submitter beat it there (the trace
    /// will land in the publish cache either way). The in-flight window
    /// closes only after the trace is published, so callers that check the
    /// cache first and `submit_unique` on a miss compile each fragment at
    /// most once per window.
    pub fn submit_unique(&self, fragment: Fragment) -> Result<Option<u64>, JitError> {
        let fingerprint = fragment.fingerprint();
        if !self.inflight.lock().insert(fingerprint) {
            return Ok(None);
        }
        match self.submit(fragment) {
            Ok(ticket) => Ok(Some(ticket)),
            Err(e) => {
                self.inflight.lock().remove(&fingerprint);
                Err(e)
            }
        }
    }

    /// Collect all traces finished since the last poll (non-blocking).
    pub fn poll(&self) -> Vec<Finished> {
        let mut out: Vec<Finished> = {
            let mut stash = self.stash.lock();
            stash.drain(..).collect()
        };
        out.extend(self.rx_done.try_iter());
        out
    }

    /// Block until the given ticket finishes. Finishes for other tickets
    /// seen along the way are stashed, not dropped, so concurrent waiters
    /// can claim their tickets in any order. Waiting blocks on the done
    /// channel (bounded wake-ups, not a spin): the short timeout only
    /// exists so a waiter notices when *another* waiter stashed its
    /// ticket while it was blocked.
    pub fn wait(&self, ticket: u64) -> Result<Arc<CompiledTrace>, JitError> {
        use crossbeam::channel::{RecvTimeoutError, TryRecvError};
        loop {
            let mut disconnected = false;
            {
                let mut stash = self.stash.lock();
                loop {
                    match self.rx_done.try_recv() {
                        Ok(f) => stash.push(f),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            disconnected = true;
                            break;
                        }
                    }
                }
                if let Some(pos) = stash.iter().position(|f| f.ticket == ticket) {
                    return Ok(stash.swap_remove(pos).trace);
                }
            }
            if disconnected {
                return Err(JitError::ServerDown);
            }
            match self.rx_done.recv_timeout(Duration::from_millis(1)) {
                Ok(f) => self.stash.lock().push(f),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Err(JitError::ServerDown),
            }
        }
    }
}

impl std::fmt::Debug for CompileServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileServer")
            .field("publishing", &self.publish.is_some())
            .field("in_flight", &self.inflight.lock().len())
            .field("tickets_issued", &self.next_ticket.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for CompileServer {
    fn drop(&mut self) {
        self.tx.take(); // close the channel so the worker exits
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_dsl::depgraph::{scalar_uses, DepGraph};
    use adaptvm_dsl::partition::Region;
    use adaptvm_dsl::programs;
    use std::collections::HashMap;

    fn fig2_whole_fragment() -> Fragment {
        let p = programs::fig2_example();
        let body = programs::loop_body(&p).unwrap();
        let g = DepGraph::from_stmts(body);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        crate::builder::build_fragment(&g, &region, &scalar_uses(body), &HashMap::new()).unwrap()
    }

    #[test]
    fn cost_model_is_superlinear() {
        let m = CostModel::default();
        let c1 = m.cost_ns(1);
        let c10 = m.cost_ns(10);
        let c100 = m.cost_ns(100);
        assert!(c10 > 10 * (c1 - m.base_ns));
        assert!(c100 - m.base_ns > 10 * (c10 - m.base_ns));
    }

    #[test]
    fn sync_compile_produces_runnable_trace() {
        let trace = compile(fig2_whole_fragment(), &CostModel::untimed());
        assert!(trace.cost_ns > 0);
        let x = Array::from(vec![1i64, -2, 3]);
        let r = trace.run(&[&x], None).unwrap();
        assert!(!r.arrays.is_empty());
    }

    #[test]
    fn enforced_cost_pads_wall_time() {
        let model = CostModel {
            base_ns: 2_000_000, // 2 ms: large enough to measure reliably
            per_op_ns: 0,
            per_op2_ns: 0,
            enforce: true,
        };
        let t0 = Instant::now();
        let _ = compile(fig2_whole_fragment(), &model);
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn server_compiles_in_background() {
        let server = CompileServer::start(CostModel::untimed());
        let t1 = server.submit(fig2_whole_fragment()).unwrap();
        let t2 = server.submit(fig2_whole_fragment()).unwrap();
        assert_ne!(t1, t2);
        let trace = server.wait(t1).unwrap();
        let x = Array::from(vec![4i64]);
        assert!(trace.run(&[&x], None).is_ok());
        // The second finishes too (poll or wait).
        let trace2 = server.wait(t2).unwrap();
        assert_eq!(trace2.fingerprint, trace.fingerprint);
    }

    #[test]
    fn tiered_run_matches_interpreted_run() {
        let _g = crate::exec::test_hook_guard();
        let trace = compile(fig2_whole_fragment(), &CostModel::untimed());
        let x = Array::from(vec![1i64, -2, 3, 40, -5, 6]);
        let reference = trace.run(&[&x], None).unwrap();
        let (tiered, tr) = trace.run_tiered(&[&x], None, true).unwrap();
        assert_eq!(format!("{reference:?}"), format!("{tiered:?}"));
        if crate::exec::native_available() {
            assert!(trace.has_native(), "fig2 fragment should lower natively");
            assert_eq!(tr.tier, TraceTier::Native);
            assert!(!tr.native_deopt);
            assert!(trace.native_code_len().unwrap() > 0);
        } else {
            assert_eq!(tr.tier, TraceTier::Interpreted);
        }
        // Pinning the interpreter always works.
        let (pinned, tr2) = trace.run_tiered(&[&x], None, false).unwrap();
        assert_eq!(format!("{reference:?}"), format!("{pinned:?}"));
        assert_eq!(tr2.tier, TraceTier::Interpreted);
        assert!(!tr2.native_deopt);
    }

    #[test]
    fn server_poll_is_nonblocking() {
        let server = CompileServer::start(CostModel::untimed());
        assert!(server.poll().is_empty());
    }

    #[test]
    fn publishing_server_lands_traces_in_the_cache() {
        let cache = Arc::new(CodeCache::new(8));
        let server = CompileServer::with_cache(CostModel::untimed(), cache.clone(), "generic");
        assert_eq!(server.situation(), Some("generic"));
        assert!(CompileServer::start(CostModel::untimed())
            .situation()
            .is_none());
        let frag = fig2_whole_fragment();
        let fp = frag.fingerprint();
        let ticket = server.submit_unique(frag).unwrap().expect("first submit");
        let trace = server.wait(ticket).unwrap();
        assert_eq!(trace.fingerprint, fp);
        let key = TraceKey {
            fingerprint: fp,
            situation: "generic".to_string(),
        };
        // Published before the done channel reported it.
        assert!(cache.peek(&key).is_some());
        // After publication the fingerprint is no longer in flight; a new
        // unique submit compiles again (the cache check is the caller's).
        assert!(server
            .submit_unique(fig2_whole_fragment())
            .unwrap()
            .is_some());
    }

    #[test]
    fn submit_unique_deduplicates_in_flight_fragments() {
        // A slow-enough model keeps the first compile in flight while the
        // duplicates arrive.
        let model = CostModel {
            base_ns: 50_000_000, // 50 ms
            per_op_ns: 0,
            per_op2_ns: 0,
            enforce: true,
        };
        let cache = Arc::new(CodeCache::new(8));
        let server = CompileServer::with_cache(model, cache, "generic");
        let first = server.submit_unique(fig2_whole_fragment()).unwrap();
        assert!(first.is_some());
        let dup = server.submit_unique(fig2_whole_fragment()).unwrap();
        assert!(dup.is_none(), "same fingerprint must not enqueue twice");
        assert!(server.wait(first.unwrap()).is_ok());
    }

    #[test]
    fn server_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileServer>();
        assert_send_sync::<CompiledTrace>();

        // Concurrent submits from many threads: every ticket is unique and
        // every job finishes.
        let server = std::sync::Arc::new(CompileServer::start(CostModel::untimed()));
        let tickets: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let srv = server.clone();
                    s.spawn(move || {
                        (0..4)
                            .map(|_| srv.submit(fig2_whole_fragment()).unwrap())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let unique: std::collections::HashSet<u64> = tickets.iter().copied().collect();
        assert_eq!(unique.len(), 16, "tickets must be unique: {tickets:?}");
        for t in tickets {
            assert!(server.wait(t).is_ok());
        }
    }
}
