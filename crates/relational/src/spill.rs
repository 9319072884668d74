//! Memory-governed out-of-core operators: **grace-hash spill
//! partitions** for joins and aggregation.
//!
//! The in-memory joins of [`crate::parallel`] materialize the whole build
//! side as one hash table — fine until the build side outgrows memory.
//! This module adds the out-of-core regime on top of the operator-generic
//! [`SpillableOp`] driver (`adaptvm_parallel::spillable`). The input is
//! hash-partitioned into [`SPILL_FANOUT`] partitions; each partition
//! charges a shared [`MemoryBudget`] before building its resident
//! structure, and a partition whose charge fails **spills** its rows to an
//! append-only run file ([`adaptvm_storage::spill`]) instead. A sequential
//! settle phase resolves each spilled partition in deterministic partition
//! order — re-partitioning on the next four hash bits (a rehash per
//! recursion level) when a partition *still* does not fit, and
//! force-building only when a partition cannot be split further (all rows
//! share one hash) or the hash bits run out.
//!
//! Two operators live here:
//!
//! * [`parallel_hash_join_spill`] — the grace-hash join with
//!   **probe-side spill**, one operator generic over the key type
//!   ([`JoinKey`]: `i64`, or Utf8 keys kept arena-backed on disk): probe
//!   rows of a spilled partition are deferred as row indices, and when
//!   even that index list does not fit the budget ([`PROBE_ROW_BYTES`]
//!   per row), the deferred rows themselves spill to `(key, probe index)`
//!   runs that are streamed (never resident whole) through recursion and
//!   the final probe. The key type contributes only its hash, its run
//!   schema, its build charge, and its labels.
//! * [`parallel_hash_aggregate_spill`] — **out-of-core hash aggregation**
//!   (the TPC-H Q1 family): rows partition by group key, resident
//!   partitions aggregate immediately, spilled partitions aggregate
//!   during settle — always observing each group's rows in global row
//!   order, so the result is bit-identical to the sequential fold
//!   ([`crate::agg::aggregate_rows`]).
//!
//! The external merge sort built on the same driver lives in
//! [`crate::sort`].
//!
//! ## Exactness
//!
//! Every operator's output is **bit-identical to its in-memory oracle**
//! for any budget and any worker count: each row's contribution comes
//! from exactly one (resident or spilled) partition with rows in global
//! row order, and final assembly merges streams deterministically
//! (ascending probe index for joins, key order for aggregation). The
//! worker-sweep and proptest suites in `tests/spill_join.rs` and
//! `tests/spill_query.rs` pin this down across budgets forcing zero,
//! some, and all partitions to spill.
//!
//! ## Cancellation
//!
//! The morsel-parallel phases check the [`ParallelOpts::cancel`] token at
//! morsel boundaries as always; the settle phase checks it **between
//! spill runs** (every partition and every recursion level), so serve-
//! layer deadlines keep binding through long out-of-core tails.
//!
//! ```
//! use adaptvm_parallel::MemoryBudget;
//! use adaptvm_relational::parallel::{parallel_hash_join, ParallelOpts};
//! use adaptvm_relational::spill::parallel_hash_join_spill;
//! use adaptvm_storage::Array;
//!
//! let build_keys = Array::from((0..4_000).map(|i| i % 512).collect::<Vec<i64>>());
//! let build_pays = Array::from((0..4_000).collect::<Vec<i64>>());
//! let probe_keys: Vec<i64> = (0..2_000).map(|i| i % 700).collect();
//!
//! // A budget far below the build side's footprint: partitions spill to
//! // disk and are settled out-of-core...
//! let budget = MemoryBudget::bytes(16 * 1024);
//! let opts = ParallelOpts::new(2, 1_000).with_budget(&budget);
//! let (out, spill) =
//!     parallel_hash_join_spill(&build_keys, &build_pays, &probe_keys, false, opts).unwrap();
//! assert!(spill.spilled());
//! assert!(spill.bytes_written > 0);
//!
//! // ...and the result is bit-identical to the in-memory join.
//! let (_, reference) = parallel_hash_join(
//!     &build_keys, &build_pays, &probe_keys, false, ParallelOpts::new(2, 1_000),
//! ).unwrap();
//! assert_eq!(out.indices, reference.indices);
//! assert_eq!(out.payloads, reference.payloads);
//! assert_eq!(budget.used(), 0, "all charges released");
//! ```

use std::borrow::Cow;

use adaptvm_kernels::hash::WordMap;
use adaptvm_kernels::map::hash_i64;
use adaptvm_kernels::KernelError;
use adaptvm_parallel::{
    acquire_scratch, obs, run_spillable, BudgetLease, MemoryBudget, Morsel, MorselPlan, RunError,
    Scratch, SpillCheckpoint, SpillStats, SpillableOp,
};
use adaptvm_storage::spill::{Run, RunBatch, RunSchema, RunWriter, SpillDir};
use adaptvm_storage::{Array, StorageError, Table};

use crate::agg::GroupState;
use crate::join::{run_values, HashTable, JoinKey, JoinPartition};
use crate::ops::OpResult;
use crate::parallel::{bloomed, kernel_run_err, ParallelJoinOutput, ParallelOpts};

/// Grace-hash fan-out: partitions per level, consuming four hash bits.
/// 16 partitions × 4 bits nest up to [`MAX_SPILL_DEPTH`] levels into a
/// 64-bit hash.
pub const SPILL_FANOUT: usize = 16;
const FANOUT_BITS: usize = 4;
/// Deepest recursion level: level `d` consumes hash bits
/// `[60 − 4d, 64 − 4d)` — top bits first, because the multiplicative
/// hash mixes high bits best (structured keys would collapse a low-bit
/// window onto few partitions) — so a 64-bit hash supports levels
/// 0..=15.
pub const MAX_SPILL_DEPTH: usize = 15;
/// Rows per run-file frame: the granularity at which recursion streams a
/// spilled partition (so re-partitioning never holds a partition whole).
pub(crate) const SPILL_FRAME_ROWS: usize = 4096;

/// Estimated resident bytes per build row of an integer hash table
/// (16 data bytes plus map/arena overhead) — what a partition charges
/// against the [`MemoryBudget`] before building.
pub const INT_BUILD_ROW_BYTES: usize = 48;
/// Per-row overhead estimate for a Utf8 hash table; the key bytes are
/// charged on top.
pub const STR_BUILD_ROW_BYTES: usize = 56;
/// Bytes charged per deferred probe-row index a spilled join partition
/// keeps resident; when even this fails, the probe side spills too.
pub const PROBE_ROW_BYTES: usize = 8;
/// Estimated resident bytes per input row of a hash-aggregation
/// partition (16 data bytes plus hash-map overhead for the worst case of
/// all-distinct keys).
pub const AGG_ROW_BYTES: usize = 56;

/// The partition a hash lands in at recursion level `depth` (the 4-bit
/// window at bits `[60 − 4·depth, 64 − 4·depth)`).
#[inline]
fn bucket_of(hash: i64, depth: usize) -> usize {
    debug_assert!(depth <= MAX_SPILL_DEPTH);
    ((hash as u64) >> (u64::BITS as usize - FANOUT_BITS * (depth + 1))) as usize
        & (SPILL_FANOUT - 1)
}

pub(crate) fn storage_err(e: StorageError) -> RunError<KernelError> {
    RunError::Task(KernelError::Storage(e))
}

pub(crate) static UNLIMITED: MemoryBudget = MemoryBudget::unlimited();

/// Merge the ascending resident stream with the (sorted) settled spill
/// pairs into one ascending output. The index sets are disjoint — a probe
/// row is either resident or deferred to exactly one spilled partition —
/// so `<=` never ties across streams and within-row payload order is
/// preserved.
fn merge_output_streams(
    res_idx: Vec<u32>,
    res_pay: Vec<i64>,
    spilled: Vec<(u32, i64)>,
) -> (Vec<u32>, Vec<i64>) {
    if spilled.is_empty() {
        return (res_idx, res_pay);
    }
    let mut idx = Vec::with_capacity(res_idx.len() + spilled.len());
    let mut pay = Vec::with_capacity(res_pay.len() + spilled.len());
    let (mut i, mut j) = (0, 0);
    while i < res_idx.len() || j < spilled.len() {
        let take_resident = match (res_idx.get(i), spilled.get(j)) {
            (Some(&a), Some(&(b, _))) => a <= b,
            (Some(_), None) => true,
            _ => false,
        };
        if take_resident {
            idx.push(res_idx[i]);
            pay.push(res_pay[i]);
            i += 1;
        } else {
            idx.push(spilled[j].0);
            pay.push(spilled[j].1);
            j += 1;
        }
    }
    (idx, pay)
}

// ---------------------------------------------------------------------------
// Shared run plumbing
// ---------------------------------------------------------------------------

/// Count one sealed run of `bytes` encoded bytes.
fn wrote(stats: &mut SpillStats, bytes: u64) {
    stats.runs_written += 1;
    stats.bytes_written += bytes;
}

/// Write `batch` to a fresh run of [`SPILL_FRAME_ROWS`]-row frames.
fn write_run(
    dir: &SpillDir,
    label: &str,
    schema: RunSchema,
    batch: &RunBatch,
) -> Result<Run, StorageError> {
    let mut w = RunWriter::create(dir.run_path(label), schema)?;
    let rows = batch.rows();
    for lo in (0..rows).step_by(SPILL_FRAME_ROWS) {
        w.append_rows(batch, lo..(lo + SPILL_FRAME_ROWS).min(rows))?;
    }
    w.finish()
}

/// Stream every frame of `run` through `f`, then count the bytes read and
/// delete the run.
fn drain_run(
    run: Run,
    stats: &mut SpillStats,
    mut f: impl FnMut(&RunBatch) -> Result<(), RunError<KernelError>>,
) -> Result<(), RunError<KernelError>> {
    let mut reader = run.reader().map_err(storage_err)?;
    while let Some(frame) = reader.next_frame().map_err(storage_err)? {
        f(&frame)?;
    }
    stats.bytes_read += run.bytes();
    run.delete();
    Ok(())
}

/// Re-partition the `(key, value)` rows of `run` on the level-`depth`
/// hash window into sub-runs `"{label}-d{depth}-b{s}"`, streaming frame
/// by frame through the pooled scratch arena (nothing beyond one frame is
/// ever resident). Rows landing in a bucket `keep` rejects are dropped;
/// sub-runs exist only where a row landed. Deletes `run`.
fn split_run<K: JoinKey>(
    run: Run,
    depth: usize,
    label: &str,
    keep: impl Fn(usize) -> bool,
    dir: &SpillDir,
    stats: &mut SpillStats,
    scratch: &mut Scratch,
) -> Result<Vec<Option<Run>>, RunError<KernelError>> {
    let mut writers: Vec<Option<RunWriter>> = (0..SPILL_FANOUT).map(|_| None).collect();
    drain_run(run, stats, |frame| {
        for (row, &value) in run_values(frame).iter().enumerate() {
            let key = K::key_at(frame, row);
            let s = bucket_of(K::partition_hash(key), depth);
            if keep(s) {
                K::push(scratch.bucket_mut(s), key, value);
            }
        }
        for &s in scratch.touched() {
            let s = s as usize;
            if writers[s].is_none() {
                let path = dir.run_path(&format!("{label}-d{depth}-b{s}"));
                writers[s] = Some(RunWriter::create(path, K::RUN_SCHEMA).map_err(storage_err)?);
            }
            let w = writers[s].as_mut().expect("just created");
            w.append(scratch.bucket(s)).map_err(storage_err)?;
        }
        scratch.reset();
        Ok(())
    })?;
    writers
        .into_iter()
        .map(|w| w.map(RunWriter::finish).transpose().map_err(storage_err))
        .collect()
}

// ---------------------------------------------------------------------------
// Grace-hash join, generic over the key type
// ---------------------------------------------------------------------------

/// The shared probe structure of a budgeted join: per partition, either a
/// resident table or a spilled run. Resident charges are held as RAII
/// [`BudgetLease`]s so an aborted probe phase (cancellation, deadline,
/// rejection) returns them on drop; `dir` exists only once a partition
/// actually spilled.
struct SpillSides<'a, K: JoinKey> {
    tables: Vec<Option<HashTable<K>>>,
    runs: Vec<Option<Run>>,
    leases: Vec<BudgetLease<'a>>,
    dir: Option<SpillDir>,
}

/// The deferred probe rows of one spilled join partition: resident as a
/// charged index list when [`PROBE_ROW_BYTES`] per row fits the budget,
/// else spilled to a `(key, probe index)` run that is only ever streamed.
/// Both forms keep rows in ascending probe-index order, so the settled
/// output is identical either way.
enum DeferredProbe<'a> {
    Resident(Vec<u32>, Option<BudgetLease<'a>>),
    Spilled(Run),
}

impl DeferredProbe<'_> {
    fn is_empty(&self) -> bool {
        match self {
            DeferredProbe::Resident(rows, _) => rows.is_empty(),
            DeferredProbe::Spilled(run) => run.rows() == 0,
        }
    }

    fn delete(self) {
        if let DeferredProbe::Spilled(run) = self {
            run.delete();
        }
    }
}

/// The grace-hash join as a [`SpillableOp`]: partition the build rows
/// morsel-parallel, charge-or-spill per partition, probe resident
/// partitions morsel-parallel (deferring the rest), settle spilled
/// partitions sequentially with probe-side spill.
struct JoinSpillOp<'a, K: JoinKey> {
    bk: Cow<'a, [K]>,
    bp: Vec<i64>,
    probe_keys: &'a [K],
    bloom: bool,
    budget: &'a MemoryBudget,
    build_plan: MorselPlan,
    probe_plan: MorselPlan,
}

impl<'a, K: JoinKey> SpillableOp for JoinSpillOp<'a, K> {
    type Partition = Vec<RunBatch>;
    type Shared = SpillSides<'a, K>;
    type Out = (Vec<u32>, Vec<i64>, Vec<Vec<u32>>);
    type Settled = (Vec<u32>, Vec<i64>);
    type Error = KernelError;

    fn input_plan(&self) -> &MorselPlan {
        &self.build_plan
    }

    fn consume_plan(&self) -> Option<&MorselPlan> {
        Some(&self.probe_plan)
    }

    // Build: partition this morsel's rows on the level-0 hash bits.
    fn partition_morsel(&self, _w: usize, m: &Morsel) -> Result<Vec<RunBatch>, KernelError> {
        let mut parts = vec![RunBatch::new(K::RUN_SCHEMA); SPILL_FANOUT];
        for i in m.start..m.end() {
            let key = self.bk[i].borrowed();
            K::push(
                &mut parts[bucket_of(K::partition_hash(key), 0)],
                key,
                self.bp[i],
            );
        }
        Ok(parts)
    }

    // Merge: concatenate per-morsel partitions in morsel order (global
    // build-row order per partition), then charge the budget partition by
    // partition — what fits becomes a resident table, what does not
    // spills to a run file.
    fn charge(
        &mut self,
        parts: Vec<Vec<RunBatch>>,
        _budget: &MemoryBudget,
        stats: &mut SpillStats,
    ) -> Result<SpillSides<'a, K>, KernelError> {
        let mut buckets = vec![RunBatch::new(K::RUN_SCHEMA); SPILL_FANOUT];
        for part in parts {
            for (bucket, batch) in buckets.iter_mut().zip(&part) {
                for (row, &value) in run_values(batch).iter().enumerate() {
                    K::push(bucket, K::key_at(batch, row), value);
                }
            }
        }
        let mut dir: Option<SpillDir> = None;
        let mut tables = Vec::with_capacity(SPILL_FANOUT);
        let mut runs = Vec::with_capacity(SPILL_FANOUT);
        let mut leases = Vec::new();
        for (b, batch) in buckets.into_iter().enumerate() {
            // Utf8 key bytes are charged on top of the per-row estimate
            // (an i64 batch has no arena).
            let cost = batch.arena.len() + batch.rows() * K::BUILD_ROW_BYTES;
            // Leases come from the operator's own budget reference (not
            // the driver parameter, whose lifetime is too short) so the
            // sides can hold them across the probe phase and release on
            // any exit path.
            if let Ok(lease) = self.budget.lease(cost) {
                let mut partition = JoinPartition::default();
                partition.push_batch(&batch);
                tables.push(Some(bloomed(
                    HashTable::from_partitions([partition]),
                    self.bloom,
                )));
                runs.push(None);
                leases.push(lease);
            } else {
                if dir.is_none() {
                    dir = Some(SpillDir::new().map_err(KernelError::Storage)?);
                }
                let d = dir.as_ref().expect("just created");
                let _io = obs::spill_scope(K::BUILD_SPILL_OP, b as u16, 0);
                let label = format!("{}-d0-b{b}", K::RUN_LABEL);
                let run =
                    write_run(d, &label, K::RUN_SCHEMA, &batch).map_err(KernelError::Storage)?;
                stats.partitions_spilled += 1;
                wrote(stats, run.bytes());
                tables.push(None);
                runs.push(Some(run));
            }
        }
        Ok(SpillSides {
            tables,
            runs,
            leases,
            dir,
        })
    }

    // Probe: resident partitions answer immediately; rows of spilled
    // partitions are deferred by (global) probe index.
    fn consume_morsel(
        &self,
        _w: usize,
        m: &Morsel,
        shared: &SpillSides<'a, K>,
    ) -> Result<Self::Out, KernelError> {
        let mut idx = Vec::new();
        let mut pay = Vec::new();
        let mut deferred: Vec<Vec<u32>> = vec![Vec::new(); SPILL_FANOUT];
        for (i, k) in self
            .probe_keys
            .iter()
            .enumerate()
            .take(m.end())
            .skip(m.start)
        {
            let key = k.borrowed();
            let b = bucket_of(K::partition_hash(key), 0);
            match &shared.tables[b] {
                Some(t) => {
                    for &p in t.matches(key) {
                        idx.push(i as u32);
                        pay.push(p);
                    }
                }
                None => deferred[b].push(i as u32),
            }
        }
        Ok((idx, pay, deferred))
    }

    // Settle: drop the resident tables and their leases (returning the
    // charge), then resolve spilled partitions sequentially in partition
    // order — charging each partition's deferred probe rows and spilling
    // them too when they do not fit.
    fn settle(
        &mut self,
        shared: SpillSides<'a, K>,
        outs: Vec<Self::Out>,
        _budget: &MemoryBudget,
        stats: &mut SpillStats,
        checkpoint: &SpillCheckpoint<'_>,
    ) -> Result<Self::Settled, RunError<KernelError>> {
        let SpillSides {
            tables,
            runs,
            leases,
            dir,
        } = shared;
        drop(tables);
        drop(leases);
        let mut res_idx = Vec::new();
        let mut res_pay = Vec::new();
        let mut deferred: Vec<Vec<u32>> = vec![Vec::new(); SPILL_FANOUT];
        for (idx, pay, defs) in outs {
            res_idx.extend(idx);
            res_pay.extend(pay);
            for (b, d) in defs.into_iter().enumerate() {
                deferred[b].extend(d);
            }
        }
        let mut pairs: Vec<(u32, i64)> = Vec::new();
        let mut scratch = acquire_scratch(SPILL_FANOUT, K::RUN_SCHEMA);
        if let Some(dir) = &dir {
            let mut settle = Settle {
                probe_keys: self.probe_keys,
                dir,
                budget: self.budget,
                bloom: self.bloom,
                checkpoint,
                stats,
                scratch: &mut scratch,
                out: &mut pairs,
            };
            for (b, run) in runs.into_iter().enumerate() {
                let Some(run) = run else { continue };
                let _io = obs::spill_scope(K::STAGE, b as u16, 0);
                let probe = settle.defer(std::mem::take(&mut deferred[b]), 0)?;
                settle.run(run, probe, 0, u64::MAX)?;
            }
        }
        // Stable by probe index: payload order within a row is the
        // settled partition's build-row order.
        pairs.sort_by_key(|&(i, _)| i);
        Ok(merge_output_streams(res_idx, res_pay, pairs))
    }
}

/// Memory-governed morsel-parallel hash join over either [`JoinKey`]
/// type (`K` follows the probe keys: `&[i64]`, or Utf8 `&[String]`): the
/// grace-hash sibling of [`crate::parallel::parallel_hash_join`],
/// charging [`ParallelOpts::effective_budget`] — an explicit budget, else
/// the submitting tenant's registered budget, else unlimited — for every
/// resident build partition ([`INT_BUILD_ROW_BYTES`] a row; Utf8:
/// [`STR_BUILD_ROW_BYTES`] a row plus the key bytes), every deferred
/// probe-index list, and spilling whatever does not fit to disk. Spilled
/// Utf8 partitions stay arena-backed end to end. Output is bit-identical
/// to the in-memory join for any budget, worker count, and morsel size;
/// [`SpillStats`] reports what the out-of-core path did.
pub fn parallel_hash_join_spill<K: JoinKey>(
    build_keys: &Array,
    build_payloads: &Array,
    probe_keys: &[K],
    bloom: bool,
    opts: ParallelOpts<'_>,
) -> OpResult<(ParallelJoinOutput, SpillStats)> {
    let _stage = opts.stage(K::SPILL_STAGE);
    let (bk, bp) = crate::parallel::build_rows::<K>(build_keys, build_payloads)?;
    let budget = opts.effective_budget().unwrap_or(&UNLIMITED);
    let mut op = JoinSpillOp {
        build_plan: MorselPlan::new(bk.len(), opts.effective_morsel_rows()),
        probe_plan: MorselPlan::new(probe_keys.len(), opts.effective_morsel_rows()),
        bk,
        bp,
        probe_keys,
        bloom,
        budget,
    };
    let ((indices, payloads), stats, spill) =
        run_spillable(&mut op, opts.runner(), opts.cancel, budget).map_err(kernel_run_err)?;
    Ok((
        ParallelJoinOutput {
            indices,
            payloads,
            stats,
        },
        spill,
    ))
}

/// One spilled join partition's settle recursion: what stays fixed
/// across levels, plus the accumulators every level appends to.
struct Settle<'s, 'a, K> {
    probe_keys: &'s [K],
    dir: &'s SpillDir,
    budget: &'a MemoryBudget,
    bloom: bool,
    checkpoint: &'s SpillCheckpoint<'s>,
    stats: &'s mut SpillStats,
    scratch: &'s mut Scratch,
    /// Matches as `(probe index, payload)` pairs, in build-row order per
    /// probe row.
    out: &'s mut Vec<(u32, i64)>,
}

impl<'a, K: JoinKey> Settle<'_, 'a, K> {
    /// Resolve one spilled partition at level `depth`: rebuild it if it
    /// now fits (or cannot be split further), else re-partition on the
    /// next hash level and recurse — streaming the probe side too when it
    /// spilled.
    fn run(
        &mut self,
        run: Run,
        probe: DeferredProbe<'a>,
        depth: usize,
        parent_rows: u64,
    ) -> Result<(), RunError<KernelError>> {
        self.checkpoint.check()?;
        self.stats.max_recursion_depth = self.stats.max_recursion_depth.max(depth);
        if probe.is_empty() {
            run.delete();
            probe.delete();
            return Ok(());
        }
        let rows = run.rows();
        // A further split must both have hash bits left and be able to
        // make progress (a partition of one repeated hash never shrinks).
        let splittable = depth < MAX_SPILL_DEPTH && rows < parent_rows;
        // The RAII lease releases the charge on every exit path,
        // including an I/O error while re-reading the run.
        let lease = self.budget.lease(K::settle_charge(&run)).ok();
        if lease.is_some() || !splittable {
            if lease.is_none() {
                self.stats.forced_builds += 1;
            }
            return self.build_and_probe(run, probe);
        }
        // Re-partition (grace hash, next 4 bits). The probe side splits
        // first: its occupancy decides which build sub-partitions can
        // match at all (build rows without any probe row are dropped).
        let mut sub_probe: Vec<Option<DeferredProbe>> = (0..SPILL_FANOUT).map(|_| None).collect();
        match probe {
            DeferredProbe::Resident(rows_idx, lease) => {
                let mut subs: Vec<Vec<u32>> = vec![Vec::new(); SPILL_FANOUT];
                for pi in rows_idx {
                    let key = self.probe_keys[pi as usize].borrowed();
                    subs[bucket_of(K::partition_hash(key), depth + 1)].push(pi);
                }
                // The parent's charge returns before the children charge
                // their own shares.
                drop(lease);
                for (s, rows_s) in subs.into_iter().enumerate() {
                    if rows_s.is_empty() {
                        continue;
                    }
                    sub_probe[s] = Some(self.defer(rows_s, depth + 1)?);
                }
            }
            DeferredProbe::Spilled(prun) => {
                // The list did not fit at the parent level, so children
                // stay spilled.
                let label = format!("{}-probe", K::RUN_LABEL);
                let subs = split_run::<K>(
                    prun,
                    depth + 1,
                    &label,
                    |_| true,
                    self.dir,
                    self.stats,
                    self.scratch,
                )?;
                for (s, sub) in subs.into_iter().enumerate() {
                    let Some(sub) = sub else { continue };
                    self.stats.probe_partitions_spilled += 1;
                    wrote(self.stats, sub.bytes());
                    sub_probe[s] = Some(DeferredProbe::Spilled(sub));
                }
            }
        }
        // Build side: only buckets with probe rows.
        let keep = |s: usize| sub_probe[s].is_some();
        let subs = split_run::<K>(
            run,
            depth + 1,
            K::RUN_LABEL,
            keep,
            self.dir,
            self.stats,
            self.scratch,
        )?;
        for (s, sub) in subs.into_iter().enumerate() {
            let Some(probe_s) = sub_probe[s].take() else {
                continue;
            };
            let Some(sub) = sub else {
                // Probe rows but no build rows: nothing can match.
                probe_s.delete();
                continue;
            };
            self.stats.partitions_spilled += 1;
            wrote(self.stats, sub.bytes());
            let _io = obs::spill_scope(K::STAGE, s as u16, (depth + 1) as u16);
            self.run(sub, probe_s, depth + 1, rows)?;
        }
        Ok(())
    }

    /// Rebuild the partition's table from `run` and probe it with every
    /// deferred row.
    fn build_and_probe(
        &mut self,
        run: Run,
        probe: DeferredProbe<'a>,
    ) -> Result<(), RunError<KernelError>> {
        let mut partition = JoinPartition::<K>::default();
        drain_run(run, self.stats, |frame| {
            partition.push_batch(frame);
            Ok(())
        })?;
        let table = bloomed(HashTable::from_partitions([partition]), self.bloom);
        let out = &mut *self.out;
        match probe {
            DeferredProbe::Resident(rows_idx, _lease) => {
                for &pi in &rows_idx {
                    for &p in table.matches(self.probe_keys[pi as usize].borrowed()) {
                        out.push((pi, p));
                    }
                }
                Ok(())
            }
            // Stream the spilled probe rows (ascending probe index)
            // against the rebuilt table — the run carries the keys, so
            // nothing is ever resident beyond one frame.
            DeferredProbe::Spilled(prun) => drain_run(prun, self.stats, |frame| {
                for (row, &pi) in run_values(frame).iter().enumerate() {
                    for &p in table.matches(K::key_at(frame, row)) {
                        out.push((pi as u32, p));
                    }
                }
                Ok(())
            }),
        }
    }

    /// Keep a level-`depth` deferred probe-index list resident under a
    /// [`PROBE_ROW_BYTES`]-per-row lease, or spill it to a
    /// `(key, probe index)` run, one frame at a time, when the charge
    /// fails.
    fn defer(
        &mut self,
        rows: Vec<u32>,
        depth: usize,
    ) -> Result<DeferredProbe<'a>, RunError<KernelError>> {
        if rows.is_empty() {
            return Ok(DeferredProbe::Resident(rows, None));
        }
        if let Ok(lease) = self.budget.lease(rows.len() * PROBE_ROW_BYTES) {
            return Ok(DeferredProbe::Resident(rows, Some(lease)));
        }
        let path = self
            .dir
            .run_path(&format!("{}-probe-d{depth}", K::RUN_LABEL));
        let mut w = RunWriter::create(path, K::RUN_SCHEMA).map_err(storage_err)?;
        let mut frame = RunBatch::new(K::RUN_SCHEMA);
        for chunk in rows.chunks(SPILL_FRAME_ROWS) {
            frame.clear();
            for &pi in chunk {
                K::push(
                    &mut frame,
                    self.probe_keys[pi as usize].borrowed(),
                    pi as i64,
                );
            }
            w.append(&frame).map_err(storage_err)?;
        }
        let run = w.finish().map_err(storage_err)?;
        self.stats.probe_partitions_spilled += 1;
        wrote(self.stats, run.bytes());
        Ok(DeferredProbe::Spilled(run))
    }
}

// ---------------------------------------------------------------------------
// Out-of-core hash aggregation
// ---------------------------------------------------------------------------

/// The shared state of a budgeted aggregation: per partition, either a
/// resident group table (rows already folded in global row order) or a
/// spilled run of raw `(key, f64 bits)` rows.
struct AggSides<'a> {
    groups: Vec<Option<WordMap<i64, GroupState>>>,
    runs: Vec<Option<Run>>,
    leases: Vec<BudgetLease<'a>>,
    dir: Option<SpillDir>,
}

/// One morsel's rows scattered by level-0 partition into two exact-size
/// columns: partition `b` is `[offs[b], offs[b + 1])` of `keys` and
/// `bits` (the value's f64 bits), rows in morsel order.
struct Scattered {
    keys: Vec<i64>,
    bits: Vec<i64>,
    offs: [usize; SPILL_FANOUT + 1],
}

impl Scattered {
    fn rows(&self, b: usize) -> usize {
        self.offs[b + 1] - self.offs[b]
    }

    fn slice(&self, b: usize) -> (&[i64], &[i64]) {
        let r = self.offs[b]..self.offs[b + 1];
        (&self.keys[r.clone()], &self.bits[r])
    }
}

/// Out-of-core hash aggregation as a consume-less [`SpillableOp`]: the
/// input partitions by group key, resident partitions fold immediately,
/// spilled partitions fold during settle — each group's rows always in
/// global row order, which makes the result bit-identical to the
/// sequential fold regardless of what spilled.
struct AggSpillOp<'a> {
    keys: Cow<'a, [i64]>,
    values: &'a [f64],
    budget: &'a MemoryBudget,
    plan: MorselPlan,
}

impl<'a> SpillableOp for AggSpillOp<'a> {
    type Partition = Scattered;
    type Shared = AggSides<'a>;
    type Out = ();
    type Settled = Vec<(i64, GroupState)>;
    type Error = KernelError;

    fn input_plan(&self) -> &MorselPlan {
        &self.plan
    }

    // Counted scatter: one histogram pass over the level-0 partitions,
    // then every row is copied once, to its exact slot.
    fn partition_morsel(&self, _w: usize, m: &Morsel) -> Result<Scattered, KernelError> {
        let keys = &self.keys[m.start..m.end()];
        let values = &self.values[m.start..m.end()];
        let mut offs = [0usize; SPILL_FANOUT + 1];
        for &k in keys {
            offs[bucket_of(hash_i64(k), 0) + 1] += 1;
        }
        for b in 0..SPILL_FANOUT {
            offs[b + 1] += offs[b];
        }
        let mut next = offs;
        let mut out_keys = vec![0i64; keys.len()];
        let mut out_bits = vec![0i64; keys.len()];
        for (&k, &v) in keys.iter().zip(values) {
            let slot = &mut next[bucket_of(hash_i64(k), 0)];
            out_keys[*slot] = k;
            out_bits[*slot] = v.to_bits() as i64;
            *slot += 1;
        }
        Ok(Scattered {
            keys: out_keys,
            bits: out_bits,
            offs,
        })
    }

    // Charge partition by partition from the per-morsel counts (no row
    // touched to size a partition). A resident partition folds its
    // per-morsel slices in morsel order, so every group sees its rows in
    // global row order; a spilled one gathers them into one run.
    fn charge(
        &mut self,
        parts: Vec<Scattered>,
        _budget: &MemoryBudget,
        stats: &mut SpillStats,
    ) -> Result<AggSides<'a>, KernelError> {
        let mut dir: Option<SpillDir> = None;
        let mut groups = Vec::with_capacity(SPILL_FANOUT);
        let mut runs = Vec::with_capacity(SPILL_FANOUT);
        let mut leases = Vec::new();
        for b in 0..SPILL_FANOUT {
            let rows: usize = parts.iter().map(|p| p.rows(b)).sum();
            if let Ok(lease) = self.budget.lease(rows * AGG_ROW_BYTES) {
                let mut map: WordMap<i64, GroupState> = WordMap::default();
                for (keys, bits) in parts.iter().map(|p| p.slice(b)) {
                    for (&k, &v) in keys.iter().zip(bits) {
                        map.entry(k).or_default().observe_bits(v);
                    }
                }
                groups.push(Some(map));
                runs.push(None);
                leases.push(lease);
            } else {
                if dir.is_none() {
                    dir = Some(SpillDir::new().map_err(KernelError::Storage)?);
                }
                let d = dir.as_ref().expect("just created");
                let _io = obs::spill_scope("agg", b as u16, 0);
                let mut keys = Vec::with_capacity(rows);
                let mut bits = Vec::with_capacity(rows);
                for (k, v) in parts.iter().map(|p| p.slice(b)) {
                    keys.extend_from_slice(k);
                    bits.extend_from_slice(v);
                }
                let batch = RunBatch {
                    cols: vec![keys, bits],
                    ..RunBatch::default()
                };
                let run = write_run(d, &format!("agg-d0-b{b}"), i64::RUN_SCHEMA, &batch)
                    .map_err(KernelError::Storage)?;
                stats.partitions_spilled += 1;
                wrote(stats, run.bytes());
                groups.push(None);
                runs.push(Some(run));
            }
        }
        Ok(AggSides {
            groups,
            runs,
            leases,
            dir,
        })
    }

    // Collect every partition's groups, in no particular order: a key
    // lives in exactly one level-0 partition, so the union is disjoint,
    // and each consumer sorts what it keeps.
    fn settle(
        &mut self,
        shared: AggSides<'a>,
        outs: Vec<()>,
        _budget: &MemoryBudget,
        stats: &mut SpillStats,
        checkpoint: &SpillCheckpoint<'_>,
    ) -> Result<Self::Settled, RunError<KernelError>> {
        debug_assert!(outs.is_empty(), "aggregation has no consume phase");
        let AggSides {
            groups,
            runs,
            leases,
            dir,
        } = shared;
        let resident = groups.iter().flatten().map(WordMap::len).sum();
        let mut out: Vec<(i64, GroupState)> = Vec::with_capacity(resident);
        for map in groups.into_iter().flatten() {
            out.extend(map);
        }
        drop(leases);
        let mut scratch = acquire_scratch(SPILL_FANOUT, i64::RUN_SCHEMA);
        for (b, run) in runs.into_iter().enumerate() {
            let Some(run) = run else { continue };
            let _io = obs::spill_scope("agg", b as u16, 0);
            settle_agg_run(
                run,
                0,
                u64::MAX,
                dir.as_ref().expect("spilled partitions imply a spill dir"),
                self.budget,
                stats,
                checkpoint,
                &mut scratch,
                &mut out,
            )?;
        }
        Ok(out)
    }
}

/// Resolve one spilled aggregation partition: fold it if its worst-case
/// group table now fits (or it cannot be split further), else
/// re-partition on the next hash level and recurse. Rows stay in global
/// row order throughout, so every group's fold is bit-identical to the
/// sequential one. Spilled `(i64 key, f64 bits)` rows have the i64 join
/// key's row shape, so they re-partition through the same [`split_run`].
#[allow(clippy::too_many_arguments)]
fn settle_agg_run(
    run: Run,
    depth: usize,
    parent_rows: u64,
    dir: &SpillDir,
    budget: &MemoryBudget,
    stats: &mut SpillStats,
    checkpoint: &SpillCheckpoint<'_>,
    scratch: &mut Scratch,
    out: &mut Vec<(i64, GroupState)>,
) -> Result<(), RunError<KernelError>> {
    checkpoint.check()?;
    stats.max_recursion_depth = stats.max_recursion_depth.max(depth);
    let rows = run.rows();
    let splittable = depth < MAX_SPILL_DEPTH && rows < parent_rows;
    let lease = budget.lease(rows as usize * AGG_ROW_BYTES).ok();
    if lease.is_some() || !splittable {
        if lease.is_none() {
            stats.forced_builds += 1;
        }
        let mut map: WordMap<i64, GroupState> = WordMap::default();
        drain_run(run, stats, |frame| {
            for (&k, &v) in frame.cols[0].iter().zip(&frame.cols[1]) {
                map.entry(k).or_default().observe_bits(v);
            }
            Ok(())
        })?;
        out.extend(map);
        return Ok(());
    }
    let subs = split_run::<i64>(run, depth + 1, "agg", |_| true, dir, stats, scratch)?;
    for (s, sub_run) in subs.into_iter().enumerate() {
        let Some(sub_run) = sub_run else { continue };
        stats.partitions_spilled += 1;
        wrote(stats, sub_run.bytes());
        let _io = obs::spill_scope("agg", s as u16, (depth + 1) as u16);
        settle_agg_run(
            sub_run, // non-empty by construction: sub-runs are lazy
            depth + 1,
            rows,
            dir,
            budget,
            stats,
            checkpoint,
            scratch,
            out,
        )?;
    }
    Ok(())
}

/// Memory-governed morsel-parallel hash aggregation (count/sum/min/max
/// per integer group key over an `f64` value column — the TPC-H Q1
/// family), charging [`ParallelOpts::effective_budget`] per partition
/// ([`AGG_ROW_BYTES`] a row) and spilling raw rows to disk when the
/// charge fails. The result is sorted by key and **bit-identical** to the
/// sequential row-order fold [`crate::agg::aggregate_rows`] for any
/// budget, worker count, and morsel size, because each group's rows are
/// observed in global row order whether its partition spilled or not.
///
/// ```
/// use adaptvm_parallel::MemoryBudget;
/// use adaptvm_relational::agg::aggregate_rows;
/// use adaptvm_relational::parallel::ParallelOpts;
/// use adaptvm_relational::spill::parallel_hash_aggregate_spill;
/// use adaptvm_storage::gen;
///
/// let table = gen::measurements(10_000, 64, 7);
/// let budget = MemoryBudget::bytes(8 * 1024);
/// let opts = ParallelOpts::new(2, 1_000).with_budget(&budget);
/// let (groups, spill) =
///     parallel_hash_aggregate_spill(&table, "group", "value", opts).unwrap();
/// assert!(spill.spilled());
/// let keys = table.column_by_name("group").unwrap().to_i64_vec().unwrap();
/// let values = table.column_by_name("value").unwrap().as_f64().unwrap().to_vec();
/// assert_eq!(groups, aggregate_rows(&keys, &values));
/// assert_eq!(budget.used(), 0, "all charges released");
/// ```
pub fn parallel_hash_aggregate_spill(
    table: &Table,
    key_col: &str,
    value_col: &str,
    opts: ParallelOpts<'_>,
) -> OpResult<(Vec<(i64, GroupState)>, SpillStats)> {
    let (mut groups, spill) = hash_aggregate_spill_unordered(table, key_col, value_col, opts)?;
    // Keys are unique, so the unstable sort is deterministic.
    groups.sort_unstable_by_key(|&(k, _)| k);
    Ok((groups, spill))
}

/// [`parallel_hash_aggregate_spill`] without the final sort: the groups
/// come back in an unspecified order, so a consumer that filters first
/// (Q18's HAVING) sorts only what it keeps.
pub(crate) fn hash_aggregate_spill_unordered(
    table: &Table,
    key_col: &str,
    value_col: &str,
    opts: ParallelOpts<'_>,
) -> OpResult<(Vec<(i64, GroupState)>, SpillStats)> {
    let _stage = opts.stage("agg-spill");
    let keys = crate::ops::int_column(table, key_col)?;
    let values = table
        .column_by_name(value_col)
        .map_err(KernelError::Storage)?
        .as_f64()
        .ok_or_else(|| KernelError::Precondition(format!("{value_col} must be f64")))?;
    let budget = opts.effective_budget().unwrap_or(&UNLIMITED);
    let mut op = AggSpillOp {
        plan: MorselPlan::new(keys.len(), opts.effective_morsel_rows()),
        keys,
        values,
        budget,
    };
    let (groups, _stats, spill) =
        run_spillable(&mut op, opts.runner(), opts.cancel, budget).map_err(kernel_run_err)?;
    Ok((groups, spill))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_uses_disjoint_bit_windows() {
        // Two keys whose hashes differ only above the level-0 window must
        // collide at level 0 and (generically) separate later; the
        // function must never shift past the hash width.
        for depth in 0..=MAX_SPILL_DEPTH {
            let b = bucket_of(i64::MIN, depth);
            assert!(b < SPILL_FANOUT);
        }
        assert_eq!(bucket_of(0, 0), bucket_of(0, MAX_SPILL_DEPTH));
    }

    #[test]
    fn bucket_of_spreads_low_bit_strided_keys() {
        // Keys that share their low bits (all multiples of 16) must still
        // fan out over many level-0 partitions: the window is drawn from
        // the hash's high bits, where multiplicative hashing mixes best.
        let used: std::collections::HashSet<usize> = (0..1000i64)
            .map(|i| bucket_of(hash_i64(i * 16), 0))
            .collect();
        assert!(
            used.len() >= SPILL_FANOUT / 2,
            "structured keys collapsed to {} partitions",
            used.len()
        );
    }

    #[test]
    fn merge_streams_interleaves_by_index() {
        let (idx, pay) =
            merge_output_streams(vec![0, 2, 2], vec![10, 20, 21], vec![(1, 15), (3, 30)]);
        assert_eq!(idx, vec![0, 1, 2, 2, 3]);
        assert_eq!(pay, vec![10, 15, 20, 21, 30]);
        // Either stream alone passes through unchanged.
        assert_eq!(
            merge_output_streams(vec![5], vec![50], vec![]),
            (vec![5], vec![50])
        );
        assert_eq!(
            merge_output_streams(vec![], vec![], vec![(7, 70)]),
            (vec![7], vec![70])
        );
    }
}
