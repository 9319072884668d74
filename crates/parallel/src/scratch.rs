//! Pooled partition scratch arenas: **reset only what you touched**.
//!
//! The out-of-core settle paths re-partition spilled runs frame by
//! frame: for every frame they need [fan-out] bucket buffers, fill a
//! handful of them, flush, and start over. Allocating those buffers per
//! frame (let alone per query) is pure churn in steady-state serving, so
//! this module pools them process-wide:
//!
//! * [`Scratch`] keeps one [`RunBatch`] per bucket plus a *touched
//!   list*; [`Scratch::reset`] clears **only the touched buckets** (the
//!   sfuzz dirty-reset idiom — untouched buckets cost nothing) and every
//!   clear retains capacity, so a warmed arena appends without
//!   allocating. Buckets are shaped by the [`RunSchema`] the arena was
//!   leased for, so the one pool serves the i64- and Utf8-keyed join and
//!   the aggregate alike.
//! * [`acquire_scratch`] hands out pooled arenas as RAII leases that
//!   reset and return themselves on drop. The pool is a mutex-guarded
//!   free list — the settle phases that use it are sequential, so there
//!   is no contention to speak of.
//! * [`scratch_stats`] exposes created-vs-reused counters; the spill
//!   bench prints them next to allocation counts to show steady-state
//!   serving reusing buffers across queries.
//!
//! [fan-out]: https://docs.rs/adaptvm-relational

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use adaptvm_storage::spill::{RunBatch, RunSchema};

/// Fan-out bucket batches with touched-bucket tracking.
#[derive(Debug, Default)]
pub struct Scratch {
    buckets: Vec<RunBatch>,
    touched: Vec<u32>,
    dirty: Vec<bool>,
}

impl Scratch {
    /// Grow to at least `fanout` buckets (never shrinks — capacity is
    /// the point) and give every bucket `schema`'s columns. Buckets are
    /// empty here: a returned arena was reset.
    fn shape(&mut self, fanout: usize, schema: RunSchema) {
        if self.buckets.len() < fanout {
            self.buckets.resize_with(fanout, Default::default);
            self.dirty.resize(fanout, false);
        }
        for bucket in &mut self.buckets {
            bucket.cols.resize_with(schema.int_cols(), Vec::new);
        }
    }

    /// The batch of `bucket`, to push rows into; marks it touched.
    #[inline]
    pub fn bucket_mut(&mut self, bucket: usize) -> &mut RunBatch {
        if !self.dirty[bucket] {
            self.dirty[bucket] = true;
            self.touched.push(bucket as u32);
        }
        &mut self.buckets[bucket]
    }

    /// The batch of `bucket`.
    pub fn bucket(&self, bucket: usize) -> &RunBatch {
        &self.buckets[bucket]
    }

    /// Buckets handed out mutably since the last reset, in first-touch
    /// order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Clear **only the touched buckets** (retaining their capacity) and
    /// the touched list itself.
    pub fn reset(&mut self) {
        for &b in &self.touched {
            let b = b as usize;
            self.buckets[b].clear();
            self.dirty[b] = false;
        }
        self.touched.clear();
    }
}

static POOL: Mutex<Vec<Scratch>> = Mutex::new(Vec::new());
static CREATED: AtomicU64 = AtomicU64::new(0);
static REUSED: AtomicU64 = AtomicU64::new(0);

/// How often the scratch pool created a fresh arena vs reused a warmed
/// one. Counters are process-wide and monotonic; the spill bench prints
/// deltas around runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Arenas allocated fresh because the pool was empty.
    pub created: u64,
    /// Arenas handed out from the pool (buffers already warm).
    pub reused: u64,
}

/// Snapshot the pool counters.
pub fn scratch_stats() -> ScratchStats {
    ScratchStats {
        created: CREATED.load(Ordering::Relaxed),
        reused: REUSED.load(Ordering::Relaxed),
    }
}

/// An RAII lease on a pooled [`Scratch`]; resets and returns the arena
/// to the pool on drop.
#[derive(Debug)]
pub struct ScratchLease {
    inner: Option<Scratch>,
}

impl Deref for ScratchLease {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.inner.as_ref().expect("present until drop")
    }
}

impl DerefMut for ScratchLease {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.inner.as_mut().expect("present until drop")
    }
}

impl Drop for ScratchLease {
    fn drop(&mut self) {
        if let Some(mut scratch) = self.inner.take() {
            scratch.reset();
            POOL.lock().expect("scratch pool poisoned").push(scratch);
        }
    }
}

/// Lease a partition scratch with at least `fanout` buckets of `schema`
/// rows, warmed from the pool when possible.
pub fn acquire_scratch(fanout: usize, schema: RunSchema) -> ScratchLease {
    let pooled = POOL.lock().expect("scratch pool poisoned").pop();
    let reused = pooled.is_some();
    crate::obs::emit(crate::obs::EventKind::ScratchAcquire { reused });
    let mut scratch = match pooled {
        Some(s) => {
            REUSED.fetch_add(1, Ordering::Relaxed);
            s
        }
        None => {
            CREATED.fetch_add(1, Ordering::Relaxed);
            Scratch::default()
        }
    };
    scratch.shape(fanout, schema);
    ScratchLease {
        inner: Some(scratch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears_only_touched_buckets_and_keeps_capacity() {
        // Both key kinds' row shapes, through one arena.
        for (schema, key) in [
            (RunSchema::ints(2), None),
            (RunSchema::utf8_plus_ints(1), Some("k")),
        ] {
            let row = |v: i64| {
                if key.is_some() {
                    vec![v]
                } else {
                    vec![v, v * 10]
                }
            };
            let mut s = Scratch::default();
            s.shape(16, schema);
            s.bucket_mut(3).push(key, &row(1));
            s.bucket_mut(3).push(key, &row(2));
            s.bucket_mut(7).push(key, &row(5));
            assert_eq!(s.touched(), &[3, 7]);
            assert_eq!(s.bucket(3).rows(), 2);
            assert_eq!(s.bucket(7).cols[0], vec![5]);
            if key.is_some() {
                assert_eq!(s.bucket(7).key(0), "k");
            }
            let cap_before = s.buckets[3].cols[0].capacity();
            s.reset();
            assert!(s.touched().is_empty());
            assert_eq!(s.bucket(3).rows(), 0);
            assert!(
                s.buckets[3].cols[0].capacity() >= cap_before,
                "capacity retained"
            );
            // Touch again after reset: tracking restarts cleanly.
            s.bucket_mut(3).push(key, &row(9));
            assert_eq!(s.touched(), &[3]);
            assert_eq!(s.bucket(3).cols[0], vec![9]);
        }
    }

    #[test]
    fn pool_reuses_returned_arenas() {
        let before = scratch_stats();
        {
            let mut lease = acquire_scratch(16, RunSchema::ints(2));
            lease.bucket_mut(0).push(None, &[1, 1]);
        } // drop: reset + return to pool
        let first = scratch_stats();
        assert!(first.created + first.reused > before.created + before.reused);
        // Second acquisition must come from the pool (tests in this
        // process may race on the shared counters, so assert on reuse
        // growth, which returning arenas guarantees) — reshaped for the
        // other key kind.
        {
            let lease = acquire_scratch(16, RunSchema::utf8_plus_ints(1));
            assert!(lease.touched().is_empty(), "arena comes back reset");
            assert_eq!(lease.bucket(0).cols.len(), 1, "reshaped for the schema");
        }
        let second = scratch_stats();
        assert!(second.reused > before.reused, "pooled arena was reused");
    }
}
