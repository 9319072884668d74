//! Hash joins, Bloom pre-filtering, and the §III-C adaptive join chain.
//!
//! "Consider a chain of two HashJoin operators A and B. We could filter the
//! tuples using A first and later B (essentially executing the SemiJoin
//! first), when A eliminates more tuples from the flow." —
//! [`AdaptiveJoinChain`] implements exactly that, driven by
//! [`adaptvm_vm::reorder::ReorderController`].
//!
//! [`HashTable`] is a true multimap: duplicate build keys keep every
//! payload (contiguous, in build-row order, in one arena), and
//! [`HashTable::probe`] emits **one output row per build match** — the
//! inner-join cardinality a nested-loop join would produce. Build sides
//! can also be assembled from per-morsel [`JoinPartition`]s (see
//! [`HashTable::from_partitions`]), which is what the morsel-parallel
//! partitioned build in `crate::parallel` uses.
//!
//! The table, its partitions, and every join built on them exist once,
//! generic over a [`JoinKey`]: `i64` keys ([`HashTable`], the default)
//! keep a direct key → slot map, Utf8 keys ([`StrHashTable`]) a byte
//! arena bucketed by string hash. Every map here hashes through
//! [`adaptvm_kernels::hash::WordState`], one folded multiply per key
//! word, not `std`'s SipHash.

use std::borrow::Cow;
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::Range;
use std::time::Instant;

use adaptvm_kernels::hash::{WordMap, WordState};
use adaptvm_kernels::map::{hash_i64, hash_str};
use adaptvm_storage::spill::{Run, RunBatch, RunSchema};
use adaptvm_storage::Array;
use adaptvm_vm::reorder::ReorderController;

use crate::spill::{INT_BUILD_ROW_BYTES, STR_BUILD_ROW_BYTES};

/// Bloom-style pre-filter: a bitmask sized from build cardinality
/// (~8 bits per distinct key, rounded up to a power of two), with two
/// probe bits per key derived by double hashing. At 8 bits/key and two
/// probes the false-positive rate stays below ~10% at any build size —
/// unlike a fixed-size mask, which saturates once the build outgrows it.
#[derive(Debug, Clone)]
struct Bloom {
    bits: Vec<u64>,
    mask: u64,
}

impl Bloom {
    /// An empty filter sized for `distinct_keys` entries.
    fn sized_for(distinct_keys: usize) -> Bloom {
        let nbits = distinct_keys.saturating_mul(8).next_power_of_two().max(64) as u64;
        Bloom {
            bits: vec![0u64; (nbits / 64) as usize],
            mask: nbits - 1,
        }
    }

    /// The two probe positions for a key's [`JoinKey::word`]
    /// (Kirsch–Mitzenmacher double hashing over the halves of the 64-bit
    /// multiplicative hash; the high half leads because multiplicative
    /// hashing mixes high bits best).
    #[inline]
    fn positions(&self, word: i64) -> (u64, u64) {
        let h = hash_i64(word) as u64;
        let h1 = h >> 32;
        let h2 = (h & 0xffff_ffff) | 1; // odd: never a no-op step
        (h1 & self.mask, h1.wrapping_add(h2) & self.mask)
    }

    fn insert(&mut self, word: i64) {
        let (a, b) = self.positions(word);
        self.bits[(a / 64) as usize] |= 1 << (a % 64);
        self.bits[(b / 64) as usize] |= 1 << (b % 64);
    }

    #[inline]
    fn maybe_contains(&self, word: i64) -> bool {
        let (a, b) = self.positions(word);
        self.bits[(a / 64) as usize] & (1 << (a % 64)) != 0
            && self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
    }
}

/// What the one hash join needs to know about a key type; implemented
/// for `i64` and `String` (Utf8). The table ([`HashTable`]), its
/// morsel-parallel build, and the grace-hash spill operator
/// ([`crate::spill::parallel_hash_join_spill`]) are written once over
/// `K: JoinKey`, and each is monomorphized per key type, so no inner loop
/// dispatches on the kind.
pub trait JoinKey: Clone + Eq + Hash + Debug + Send + Sync + 'static {
    /// A borrowed key as probes pass it: `i64` by value, `&str` for Utf8.
    type Ref<'a>: Copy
    where
        Self: 'a;
    /// The built table's key storage, mapping a key to its `(start, len)`
    /// payload slot.
    type Index: Clone + Debug + Send + Sync;

    /// What the build key column must hold, for precondition errors.
    const COLUMN: &'static str;
    /// Observability label of the in-memory join stage, and of the spill
    /// join's settle scope.
    const STAGE: &'static str;
    /// Observability label of the spilling join's stage.
    const SPILL_STAGE: &'static str;
    /// Observability label of a level-0 build-partition spill.
    const BUILD_SPILL_OP: &'static str;
    /// File-name prefix of this key type's spill runs.
    const RUN_LABEL: &'static str;
    /// Schema of the `(key, value)` rows a spilled partition writes.
    const RUN_SCHEMA: RunSchema;
    /// Estimated resident bytes per build row, charged against the memory
    /// budget before a partition builds (Utf8 key bytes come on top).
    const BUILD_ROW_BYTES: usize;

    /// Borrow the key.
    fn borrowed(&self) -> Self::Ref<'_>;
    /// The build key column of `array`, or `None` for the wrong type.
    fn column(array: &Array) -> Option<Cow<'_, [Self]>>;
    /// The 64-bit hash whose windows pick grace-hash partitions.
    fn partition_hash(key: Self::Ref<'_>) -> i64;
    /// The word the Bloom filter and the index are keyed by.
    fn word(key: Self::Ref<'_>) -> i64;
    /// An empty index sized for `distinct` keys.
    fn index_with_capacity(distinct: usize) -> Self::Index;
    /// Record `key`'s payload slot.
    fn insert(index: &mut Self::Index, key: Self, slot: (u32, u32));
    /// The payload slot of `key` (`word` is `Self::word(key)`).
    fn find(index: &Self::Index, word: i64, key: Self::Ref<'_>) -> Option<(u32, u32)>;
    /// Distinct keys in the index.
    fn distinct(index: &Self::Index) -> usize;
    /// The distinct words of the index (what the Bloom filter holds).
    fn words(index: &Self::Index) -> impl Iterator<Item = i64> + '_;
    /// Append `payload` to `key`'s list, copying the key only when new.
    fn merge(map: &mut WordMap<Self, Vec<i64>>, key: Self::Ref<'_>, payload: i64);
    /// The key of row `row` of a `(key, value)` spill frame.
    fn key_at(batch: &RunBatch, row: usize) -> Self::Ref<'_>;
    /// Append a `(key, value)` row to a spill frame.
    fn push(batch: &mut RunBatch, key: Self::Ref<'_>, value: i64);
    /// Budget charge for rebuilding a spilled partition from `run`.
    fn settle_charge(run: &Run) -> usize;
}

/// The value column of a `(key, value)` spill frame: the last `i64`
/// column under either key type's schema.
pub(crate) fn run_values(batch: &RunBatch) -> &[i64] {
    batch.cols.last().map_or(&[], Vec::as_slice)
}

impl JoinKey for i64 {
    type Ref<'a> = i64;
    /// Direct lookup: key → payload slot.
    type Index = WordMap<i64, (u32, u32)>;

    const COLUMN: &'static str = "integer";
    const STAGE: &'static str = "join";
    const SPILL_STAGE: &'static str = "join-spill";
    const BUILD_SPILL_OP: &'static str = "join-build";
    const RUN_LABEL: &'static str = "int";
    const RUN_SCHEMA: RunSchema = RunSchema::ints(2);
    const BUILD_ROW_BYTES: usize = INT_BUILD_ROW_BYTES;

    fn borrowed(&self) -> i64 {
        *self
    }

    fn column(array: &Array) -> Option<Cow<'_, [i64]>> {
        array.to_i64_cow()
    }

    #[inline]
    fn partition_hash(key: i64) -> i64 {
        hash_i64(key)
    }

    #[inline]
    fn word(key: i64) -> i64 {
        key
    }

    fn index_with_capacity(distinct: usize) -> Self::Index {
        WordMap::with_capacity_and_hasher(distinct, WordState::default())
    }

    fn insert(index: &mut Self::Index, key: i64, slot: (u32, u32)) {
        index.insert(key, slot);
    }

    #[inline]
    fn find(index: &Self::Index, _word: i64, key: i64) -> Option<(u32, u32)> {
        index.get(&key).copied()
    }

    fn distinct(index: &Self::Index) -> usize {
        index.len()
    }

    fn words(index: &Self::Index) -> impl Iterator<Item = i64> + '_ {
        index.keys().copied()
    }

    #[inline]
    fn merge(map: &mut WordMap<i64, Vec<i64>>, key: i64, payload: i64) {
        map.entry(key).or_default().push(payload);
    }

    #[inline]
    fn key_at(batch: &RunBatch, row: usize) -> i64 {
        batch.cols[0][row]
    }

    #[inline]
    fn push(batch: &mut RunBatch, key: i64, value: i64) {
        batch.push(None, &[key, value]);
    }

    fn settle_charge(run: &Run) -> usize {
        run.rows() as usize * INT_BUILD_ROW_BYTES
    }
}

/// The Utf8 [`JoinKey::Index`]: key bytes live contiguously in one
/// **arena** (no per-key allocation in the built table), and the map goes
/// from the 64-bit string hash ([`hash_str`]) to the entries sharing that
/// hash. A probe confirms a candidate by comparing key bytes — hash
/// collisions cost an extra memcmp, never a wrong join result.
#[derive(Debug, Clone)]
pub struct StrIndex {
    map: WordMap<i64, Vec<StrEntry>>,
    keys: Vec<u8>,
}

/// One distinct key: where its bytes and payloads live.
#[derive(Debug, Clone, Copy)]
struct StrEntry {
    key_start: u32,
    key_len: u32,
    slot: (u32, u32),
}

impl JoinKey for String {
    type Ref<'a> = &'a str;
    type Index = StrIndex;

    const COLUMN: &'static str = "strings";
    const STAGE: &'static str = "join-str";
    const SPILL_STAGE: &'static str = "join-str-spill";
    const BUILD_SPILL_OP: &'static str = "join-str-build";
    const RUN_LABEL: &'static str = "str";
    const RUN_SCHEMA: RunSchema = RunSchema::utf8_plus_ints(1);
    const BUILD_ROW_BYTES: usize = STR_BUILD_ROW_BYTES;

    fn borrowed(&self) -> &str {
        self
    }

    fn column(array: &Array) -> Option<Cow<'_, [String]>> {
        array.as_str().map(Cow::Borrowed)
    }

    #[inline]
    fn partition_hash(key: &str) -> i64 {
        hash_str(key)
    }

    #[inline]
    fn word(key: &str) -> i64 {
        hash_str(key)
    }

    fn index_with_capacity(distinct: usize) -> StrIndex {
        StrIndex {
            map: WordMap::with_capacity_and_hasher(distinct, WordState::default()),
            keys: Vec::new(),
        }
    }

    fn insert(index: &mut StrIndex, key: String, slot: (u32, u32)) {
        assert!(
            index.keys.len() + key.len() <= u32::MAX as usize,
            "string hash-table key arena exceeds u32 addressing ({} + {} bytes)",
            index.keys.len(),
            key.len()
        );
        let entry = StrEntry {
            key_start: index.keys.len() as u32,
            key_len: key.len() as u32,
            slot,
        };
        index.keys.extend_from_slice(key.as_bytes());
        index.map.entry(hash_str(&key)).or_default().push(entry);
    }

    #[inline]
    fn find(index: &StrIndex, word: i64, key: &str) -> Option<(u32, u32)> {
        index.map.get(&word)?.iter().find_map(|e| {
            let bytes = &index.keys[e.key_start as usize..(e.key_start + e.key_len) as usize];
            (bytes == key.as_bytes()).then_some(e.slot)
        })
    }

    fn distinct(index: &StrIndex) -> usize {
        index.map.values().map(Vec::len).sum()
    }

    fn words(index: &StrIndex) -> impl Iterator<Item = i64> + '_ {
        index.map.keys().copied()
    }

    #[inline]
    fn merge(map: &mut WordMap<String, Vec<i64>>, key: &str, payload: i64) {
        match map.get_mut(key) {
            Some(payloads) => payloads.push(payload),
            None => {
                map.insert(key.to_owned(), vec![payload]);
            }
        }
    }

    #[inline]
    fn key_at(batch: &RunBatch, row: usize) -> &str {
        batch.key(row)
    }

    #[inline]
    fn push(batch: &mut RunBatch, key: &str, value: i64) {
        batch.push(Some(key), &[value]);
    }

    fn settle_charge(run: &Run) -> usize {
        // Key bytes are inside the frames, so approximate with the
        // encoded size plus per-row overhead.
        run.bytes() as usize + run.rows() as usize * STR_BUILD_ROW_BYTES
    }
}

/// A build-side hash table from join key to payloads (a multimap), over
/// `i64` keys by default or Utf8 keys ([`StrHashTable`]).
#[derive(Debug, Clone)]
pub struct HashTable<K: JoinKey = i64> {
    /// key → `(start, len)` into [`Self::payloads`]: every payload for a
    /// key is contiguous, in build-row order.
    index: K::Index,
    /// The payload arena.
    payloads: Vec<i64>,
    /// Optional Bloom-style pre-filter over the index's words.
    bloom: Option<Bloom>,
}

/// The Utf8-keyed [`HashTable`]: keys in one byte arena, bucketed by
/// string hash (see [`StrIndex`]).
pub type StrHashTable = HashTable<String>;

impl<K: JoinKey> HashTable<K> {
    /// Build from parallel key/payload arrays. Duplicate keys keep every
    /// payload (in build-row order): probing emits one output row per
    /// build match. Returns `None` on a key column of the wrong type,
    /// non-integer payloads, or a length mismatch.
    pub fn build(keys: &Array, payloads: &Array) -> Option<HashTable<K>> {
        let k = K::column(keys)?;
        let p = payloads.to_i64_vec()?;
        if k.len() != p.len() {
            return None;
        }
        Some(HashTable::from_rows(&k, &p))
    }

    /// Build from key/payload slices (infallible form of [`Self::build`]).
    /// Panics if the slices differ in length.
    pub fn from_rows(keys: &[K], payloads: &[i64]) -> HashTable<K> {
        HashTable::from_partitions([JoinPartition::from_rows(keys, payloads)])
    }

    /// Merge per-morsel partitions (in iteration order) into one table.
    ///
    /// Feeding the partitions **in morsel order** concatenates each key's
    /// payload list in global build-row order, so the merged table is
    /// observably identical to a sequential [`Self::build`] over the whole
    /// column — the contract the morsel-parallel partitioned build relies
    /// on.
    pub fn from_partitions<I>(partitions: I) -> HashTable<K>
    where
        I: IntoIterator<Item = JoinPartition<K>>,
    {
        let mut merged: WordMap<K, Vec<i64>> = WordMap::default();
        for partition in partitions {
            for (key, payloads) in partition.map {
                merged.entry(key).or_default().extend(payloads);
            }
        }
        let total: usize = merged.values().map(Vec::len).sum();
        assert!(
            total <= u32::MAX as usize,
            "hash-table payload arena exceeds u32 addressing ({total} rows)"
        );
        let mut index = K::index_with_capacity(merged.len());
        let mut arena = Vec::with_capacity(total);
        for (key, payloads) in merged {
            K::insert(&mut index, key, (arena.len() as u32, payloads.len() as u32));
            arena.extend(payloads);
        }
        HashTable {
            index,
            payloads: arena,
            bloom: None,
        }
    }

    /// Attach a Bloom pre-filter (useful for selective joins, §IV:
    /// "the applicability of Bloom-filters in selective hash-joins").
    /// The bitmask is sized from the build cardinality (~8 bits per
    /// distinct key) and probes two derived bits per key.
    pub fn with_bloom(mut self) -> HashTable<K> {
        let mut bloom = Bloom::sized_for(self.distinct_keys());
        for word in K::words(&self.index) {
            bloom.insert(word);
        }
        self.bloom = Some(bloom);
        self
    }

    /// Number of build-side rows (counting duplicates).
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Number of distinct build-side keys.
    pub fn distinct_keys(&self) -> usize {
        K::distinct(&self.index)
    }

    /// Bits in the attached Bloom filter (0 when none is attached).
    pub fn bloom_bits(&self) -> usize {
        self.bloom.as_ref().map_or(0, |b| (b.mask + 1) as usize)
    }

    /// `key`'s payload slot, behind the Bloom pre-filter.
    #[inline]
    fn slot(&self, key: K::Ref<'_>) -> Option<(u32, u32)> {
        let word = K::word(key);
        if let Some(bloom) = &self.bloom {
            if !bloom.maybe_contains(word) {
                return None;
            }
        }
        K::find(&self.index, word, key)
    }

    /// All build payloads matching `key`, in build-row order (empty when
    /// the key misses).
    #[inline]
    pub fn matches(&self, key: K::Ref<'_>) -> &[i64] {
        match self.slot(key) {
            Some((start, len)) => &self.payloads[start as usize..(start + len) as usize],
            None => &[],
        }
    }

    /// Probe with a key column: one output row **per build match** — the
    /// probe index repeats for duplicate build keys, paired with each
    /// matching payload in build-row order.
    pub fn probe(&self, keys: &[K]) -> (Vec<u32>, Vec<i64>) {
        let mut idx = Vec::new();
        let mut payload = Vec::new();
        for (i, k) in keys.iter().enumerate() {
            for &p in self.matches(k.borrowed()) {
                idx.push(i as u32);
                payload.push(p);
            }
        }
        (idx, payload)
    }

    /// Membership check for one key (Bloom pre-filter + table lookup).
    #[inline]
    pub fn contains(&self, key: K::Ref<'_>) -> bool {
        self.slot(key).is_some()
    }

    /// Semi-join: which probe keys match at all.
    pub fn semi(&self, keys: &[K]) -> Vec<bool> {
        keys.iter().map(|k| self.contains(k.borrowed())).collect()
    }
}

/// A build-side partition over one morsel's rows: a local multimap that
/// [`HashTable::from_partitions`] merges (in morsel order) into the one
/// shared, read-only probe table. Partitions are cheap to build
/// independently — that is the parallel half of "partitioned build,
/// shared probe".
#[derive(Debug, Clone)]
pub struct JoinPartition<K: JoinKey = i64> {
    map: WordMap<K, Vec<i64>>,
    rows: usize,
}

impl<K: JoinKey> Default for JoinPartition<K> {
    fn default() -> Self {
        JoinPartition {
            map: WordMap::default(),
            rows: 0,
        }
    }
}

impl<K: JoinKey> JoinPartition<K> {
    /// Hash one morsel's key/payload rows into a local multimap. Panics if
    /// the slices differ in length.
    pub fn from_rows(keys: &[K], payloads: &[i64]) -> JoinPartition<K> {
        assert_eq!(
            keys.len(),
            payloads.len(),
            "build keys and payloads must have equal lengths"
        );
        let mut partition = JoinPartition::default();
        for (k, &p) in keys.iter().zip(payloads) {
            K::merge(&mut partition.map, k.borrowed(), p);
        }
        partition.rows = keys.len();
        partition
    }

    /// Add every `(key, value)` row of a spill frame (borrowed keys: only
    /// new keys are copied).
    pub(crate) fn push_batch(&mut self, batch: &RunBatch) {
        for (row, &payload) in run_values(batch).iter().enumerate() {
            K::merge(&mut self.map, K::key_at(batch, row), payload);
        }
        self.rows += batch.rows();
    }

    /// Build rows hashed into this partition.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// One per-join observation from probing a chunk/morsel: how many rows the
/// join saw, how many passed, and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinObservation {
    /// Which join in the chain.
    pub join: usize,
    /// Rows flowing into the join.
    pub input: usize,
    /// Rows surviving the join.
    pub output: usize,
    /// Elapsed nanoseconds of the join's lookups *and* of its payload
    /// projection onto the rows that survive it: one lookup per row
    /// serves both, so the time is not split. Every join's sample covers
    /// the same two steps, which keeps the reorder rank
    /// `cost / (1 − pass)` comparing like with like.
    pub ns: u64,
}

/// One build side of a (possibly mixed-key) join chain: integer-keyed or
/// Utf8-keyed. A Q3-style plan can chain an orders⋈lineitem join on
/// `i64 o_orderkey` with a customer⋈orders join on a Utf8 market-segment
/// key — the adaptive reorder controller treats both uniformly.
#[derive(Debug, Clone)]
pub enum JoinSide {
    /// An integer-keyed build side.
    Int(HashTable),
    /// A Utf8-keyed build side.
    Str(StrHashTable),
}

impl JoinSide {
    /// Build-side rows (counting duplicates).
    pub fn len(&self) -> usize {
        match self {
            JoinSide::Int(t) => t.len(),
            JoinSide::Str(t) => t.len(),
        }
    }

    /// True when the build side is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn kind(&self) -> &'static str {
        match self {
            JoinSide::Int(_) => "i64",
            JoinSide::Str(_) => "utf8",
        }
    }
}

/// A borrowed probe key column for one join of a mixed chain; its kind
/// must match the [`JoinSide`] it probes.
#[derive(Debug, Clone, Copy)]
pub enum KeyColumn<'a> {
    /// Integer probe keys.
    Int(&'a [i64]),
    /// Utf8 probe keys.
    Str(&'a [String]),
}

impl KeyColumn<'_> {
    /// Rows in the column.
    pub fn len(&self) -> usize {
        match self {
            KeyColumn::Int(k) => k.len(),
            KeyColumn::Str(k) => k.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn kind(&self) -> &'static str {
        match self {
            KeyColumn::Int(_) => "i64",
            KeyColumn::Str(_) => "utf8",
        }
    }
}

/// Probe rows `range` of the (possibly mixed-key) columns through
/// `sides` in the fixed `order`, with no controller interaction: the
/// morsel-level worker step the parallel join chain runs, and the core
/// of [`AdaptiveJoinChain::probe_chunk_mixed`]. Returns the survivors
/// (indices are **global** row numbers into the columns) with their
/// payload sums, and one [`JoinObservation`] per join, in probe order.
/// Each join looks a live row's key up once: the same lookup filters the
/// row and projects its payloads.
///
/// `keys[j]`'s kind must match `sides[j]` (validated up front, clear
/// panic on mismatch, like unequal column lengths or an out-of-range
/// `order`). The kind dispatch is hoisted out of the row loops — each
/// join's probe runs one monomorphic inner loop per key type.
pub fn probe_chunk_with_order_mixed(
    sides: &[JoinSide],
    order: &[usize],
    keys: &[KeyColumn<'_>],
    range: Range<usize>,
) -> (ChainResult, Vec<JoinObservation>) {
    let n = validate_mixed_columns(sides, keys);
    assert!(
        range.end <= n,
        "probe range {range:?} exceeds the key columns' {n} rows"
    );
    for &j in order {
        assert!(j < sides.len(), "order names join {j} of {}", sides.len());
    }
    let mut alive: Vec<u32> = (range.start as u32..range.end as u32).collect();
    let mut payload_sum = vec![0i64; alive.len()];
    let mut observations = Vec::with_capacity(order.len());
    for &j in order {
        let t0 = Instant::now();
        let input = alive.len();
        match (&sides[j], keys[j]) {
            (JoinSide::Int(t), KeyColumn::Int(k)) => {
                join_step(&mut alive, &mut payload_sum, |i| t.matches(k[i as usize]))
            }
            (JoinSide::Str(t), KeyColumn::Str(k)) => {
                join_step(&mut alive, &mut payload_sum, |i| t.matches(&k[i as usize]))
            }
            _ => unreachable!("kinds validated up front"),
        }
        observations.push(JoinObservation {
            join: j,
            input,
            output: alive.len(),
            ns: t0.elapsed().as_nanos() as u64,
        });
    }
    (
        ChainResult {
            indices: alive,
            payload_sum,
        },
        observations,
    )
}

/// One join of the chain over the live rows, with one lookup per row: a
/// row whose key misses is dropped, a surviving row adds the sum of its
/// matching payloads (every duplicate build match) to its running
/// `payload_sum`. Compacts both vectors in place, keeping row order. The
/// sums are exact `i64` additions, so adding them in probe order instead
/// of side order gives the same result.
#[inline]
fn join_step<'t>(
    alive: &mut Vec<u32>,
    payload_sum: &mut Vec<i64>,
    matches: impl Fn(u32) -> &'t [i64],
) {
    let mut kept = 0;
    for r in 0..alive.len() {
        let row = alive[r];
        let payloads = matches(row);
        if !payloads.is_empty() {
            alive[kept] = row;
            payload_sum[kept] = payload_sum[r] + payloads.iter().sum::<i64>();
            kept += 1;
        }
    }
    alive.truncate(kept);
    payload_sum.truncate(kept);
}

/// Panic with a clear message unless every mixed key column matches its
/// side's kind and all columns have the same length. Returns the row
/// count.
pub(crate) fn validate_mixed_columns(sides: &[JoinSide], keys: &[KeyColumn<'_>]) -> usize {
    assert_eq!(keys.len(), sides.len(), "one key column per join");
    let n = keys.first().map_or(0, KeyColumn::len);
    for (j, (side, column)) in sides.iter().zip(keys).enumerate() {
        assert_eq!(
            column.len(),
            n,
            "join key columns must have equal lengths: column {j} has {} rows, column 0 has {n}",
            column.len(),
        );
        assert_eq!(
            side.kind(),
            column.kind(),
            "join {j} is {}-keyed but its probe column is {}",
            side.kind(),
            column.kind(),
        );
    }
    n
}

/// A chain of hash joins probed in adaptive order: the semi-join of the
/// most selective table runs first, shrinking the flow for the rest.
/// Sides may mix integer and Utf8 keys (see [`JoinSide`]); the historical
/// integer-only constructors and probes still work unchanged.
pub struct AdaptiveJoinChain {
    sides: Vec<JoinSide>,
    controller: ReorderController,
}

/// The result of probing a chunk through the chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResult {
    /// Indices of probe rows surviving every join.
    pub indices: Vec<u32>,
    /// Payload sums per surviving row (a stand-in projection; duplicate
    /// build keys contribute every matching payload).
    pub payload_sum: Vec<i64>,
}

impl AdaptiveJoinChain {
    /// Chain over integer-keyed build sides, re-evaluating order every
    /// `every` chunks.
    pub fn new(tables: Vec<HashTable>, every: u64) -> AdaptiveJoinChain {
        AdaptiveJoinChain::new_mixed(tables.into_iter().map(JoinSide::Int).collect(), every)
    }

    /// Chain over possibly mixed-key build sides (integer and Utf8), re-
    /// evaluating order every `every` chunks.
    pub fn new_mixed(sides: Vec<JoinSide>, every: u64) -> AdaptiveJoinChain {
        let n = sides.len();
        AdaptiveJoinChain {
            sides,
            controller: ReorderController::new(n, every),
        }
    }

    /// The current probe order.
    pub fn order(&self) -> &[usize] {
        self.controller.current_order()
    }

    /// Times the order changed so far.
    pub fn reorders(&self) -> u64 {
        self.controller.reorders()
    }

    /// Probe one chunk of integer key columns (`keys[j]` is the probe key
    /// column for join `j`). All key columns must have equal length
    /// (validated up front, with a clear panic message on mismatch).
    /// Panics if a side is Utf8-keyed — mixed chains probe through
    /// [`Self::probe_chunk_mixed`].
    pub fn probe_chunk(&mut self, keys: &[Vec<i64>]) -> ChainResult {
        let columns: Vec<KeyColumn<'_>> = keys.iter().map(|k| KeyColumn::Int(k)).collect();
        self.probe_chunk_mixed(&columns)
    }

    /// Probe one chunk of mixed key columns: `keys[j]`'s kind must match
    /// side `j` (validated up front). Selectivity observations feed the
    /// same reorder controller whatever the key types, so a selective
    /// string join learns to lead an unselective integer one and vice
    /// versa.
    pub fn probe_chunk_mixed(&mut self, keys: &[KeyColumn<'_>]) -> ChainResult {
        let n = validate_mixed_columns(&self.sides, keys);
        let order = self.controller.current_order().to_vec();
        let (result, observations) = probe_chunk_with_order_mixed(&self.sides, &order, keys, 0..n);
        for o in observations {
            self.controller.record(o.join, o.input, o.output, o.ns);
        }
        self.controller.next_order();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_keys(keys: &[i64]) -> HashTable {
        let k = Array::from(keys.to_vec());
        let p = Array::from(keys.iter().map(|x| x * 100).collect::<Vec<_>>());
        HashTable::build(&k, &p).unwrap()
    }

    #[test]
    fn build_and_probe() {
        let t = table_with_keys(&[1, 2, 3]);
        assert_eq!(t.len(), 3);
        let (idx, pay) = t.probe(&[5, 2, 1, 2]);
        assert_eq!(idx, vec![1, 2, 3]);
        assert_eq!(pay, vec![200, 100, 200]);
        assert_eq!(t.semi(&[3, 9]), vec![true, false]);
    }

    #[test]
    fn duplicate_build_keys_emit_one_row_per_match() {
        // Key 7 appears three times, key 8 once.
        let keys = Array::from(vec![7i64, 8, 7, 7]);
        let pays = Array::from(vec![70i64, 80, 71, 72]);
        let t: HashTable = HashTable::build(&keys, &pays).unwrap();
        assert_eq!(t.len(), 4, "all build rows retained");
        assert_eq!(t.distinct_keys(), 2);
        assert_eq!(t.matches(7), &[70, 71, 72], "build-row order");
        let (idx, pay) = t.probe(&[8, 7, 9]);
        assert_eq!(idx, vec![0, 1, 1, 1]);
        assert_eq!(pay, vec![80, 70, 71, 72]);
    }

    #[test]
    fn partitioned_build_matches_sequential_build() {
        let keys: Vec<i64> = (0..500).map(|i| i % 37).collect();
        let pays: Vec<i64> = (0..500).collect();
        let whole = HashTable::from_rows(&keys, &pays);
        // Split into uneven morsels, merge in morsel order.
        let parts = [0..123, 123..200, 200..500]
            .map(|r: Range<usize>| JoinPartition::from_rows(&keys[r.clone()], &pays[r.clone()]));
        assert_eq!(parts.iter().map(JoinPartition::rows).sum::<usize>(), 500);
        let merged = HashTable::from_partitions(parts);
        let probes: Vec<i64> = (-5..45).collect();
        assert_eq!(whole.probe(&probes), merged.probe(&probes));
        assert_eq!(whole.len(), merged.len());
        assert_eq!(whole.distinct_keys(), merged.distinct_keys());
    }

    #[test]
    fn bloom_filter_never_drops_matches() {
        let keys: Vec<i64> = (0..1000).map(|i| i * 3).collect();
        let plain = table_with_keys(&keys);
        let bloomed = table_with_keys(&keys).with_bloom();
        let probes: Vec<i64> = (0..3000).collect();
        assert_eq!(plain.probe(&probes), bloomed.probe(&probes));
    }

    #[test]
    fn bloom_scales_with_build_cardinality() {
        // ~8 bits/key, power of two, with a floor for tiny builds.
        let small = table_with_keys(&(0..10).collect::<Vec<_>>()).with_bloom();
        assert_eq!(small.bloom_bits(), 128);
        let big_keys: Vec<i64> = (0..100_000).collect();
        let big = table_with_keys(&big_keys).with_bloom();
        assert_eq!(big.bloom_bits(), (100_000usize * 8).next_power_of_two());
        // False-positive rate stays useful beyond the old fixed 2^16 mask:
        // probe 100k keys that are all misses and require <25% to pass.
        let misses: Vec<i64> = (1_000_000..1_100_000).collect();
        let passed = misses.iter().filter(|&&k| big.contains(k)).count();
        assert_eq!(passed, 0, "contains() consults the table after the bloom");
        let bloom = big.bloom.as_ref().expect("attached");
        let fp = misses.iter().filter(|&&k| bloom.maybe_contains(k)).count() as f64
            / misses.len() as f64;
        assert!(fp < 0.25, "false-positive rate collapsed: {fp}");
    }

    #[test]
    fn empty_table() {
        let t = table_with_keys(&[]);
        assert!(t.is_empty());
        let (idx, _) = t.probe(&[1, 2]);
        assert!(idx.is_empty());
    }

    fn str_keys(vals: &[i64]) -> Vec<String> {
        vals.iter().map(|v| format!("key-{v}")).collect()
    }

    #[test]
    fn str_table_matches_int_table_semantics() {
        // Same key structure as the integer duplicate test, via strings.
        let keys = str_keys(&[7, 8, 7, 7]);
        let pays = [70i64, 80, 71, 72];
        let t = StrHashTable::from_rows(&keys, &pays);
        assert_eq!(t.len(), 4);
        assert_eq!(t.distinct_keys(), 2);
        assert_eq!(t.matches("key-7"), &[70, 71, 72], "build-row order");
        assert_eq!(t.matches("key-9"), &[] as &[i64]);
        let probes = str_keys(&[8, 7, 9]);
        let (idx, pay) = t.probe(&probes);
        assert_eq!(idx, vec![0, 1, 1, 1]);
        assert_eq!(pay, vec![80, 70, 71, 72]);
        assert_eq!(t.semi(&probes), vec![true, true, false]);
    }

    #[test]
    fn str_partitioned_build_matches_sequential_build() {
        let key_ids: Vec<i64> = (0..500).map(|i| i % 37).collect();
        let keys = str_keys(&key_ids);
        let pays: Vec<i64> = (0..500).collect();
        let whole = StrHashTable::from_rows(&keys, &pays);
        let parts = [0..123, 123..200, 200..500]
            .map(|r: Range<usize>| JoinPartition::from_rows(&keys[r.clone()], &pays[r.clone()]));
        assert_eq!(parts.iter().map(JoinPartition::rows).sum::<usize>(), 500);
        let merged = StrHashTable::from_partitions(parts);
        let probes = str_keys(&(-5..45).collect::<Vec<_>>());
        assert_eq!(whole.probe(&probes), merged.probe(&probes));
        assert_eq!(whole.len(), merged.len());
        assert_eq!(whole.distinct_keys(), merged.distinct_keys());
    }

    #[test]
    fn str_bloom_never_drops_matches_and_scales() {
        let key_ids: Vec<i64> = (0..2_000).map(|i| i * 3).collect();
        let keys = str_keys(&key_ids);
        let pays: Vec<i64> = (0..2_000).collect();
        let plain = StrHashTable::from_rows(&keys, &pays);
        let bloomed = StrHashTable::from_rows(&keys, &pays).with_bloom();
        assert_eq!(
            bloomed.bloom_bits(),
            (2_000usize * 8).next_power_of_two(),
            "mask sized from build cardinality"
        );
        let probes = str_keys(&(0..6_000).collect::<Vec<_>>());
        assert_eq!(plain.probe(&probes), bloomed.probe(&probes));
    }

    #[test]
    fn str_build_rejects_mismatch() {
        let two_keys = Array::from(vec!["a".to_string(), "b".to_string()]);
        assert!(StrHashTable::build(&two_keys, &Array::from(vec![1i64])).is_none());
        assert!(StrHashTable::build(&Array::from(vec![1i64]), &Array::from(vec![1i64])).is_none());
        let t = StrHashTable::build(&two_keys, &Array::from(vec![10i64, 20])).unwrap();
        assert_eq!(t.matches("b"), &[20]);
        assert!(StrHashTable::from_rows(&[], &[]).is_empty());
    }

    #[test]
    fn build_rejects_mismatch() {
        let mismatch = HashTable::<i64>::build(&Array::from(vec![1i64]), &Array::from(vec![1, 2]));
        assert!(mismatch.is_none());
        assert!(HashTable::<i64>::build(&Array::from(vec![1.5]), &Array::from(vec![1])).is_none());
    }

    #[test]
    #[should_panic(expected = "join key columns must have equal lengths")]
    fn chain_rejects_unequal_key_columns() {
        let mut chain =
            AdaptiveJoinChain::new(vec![table_with_keys(&[1]), table_with_keys(&[2])], 2);
        chain.probe_chunk(&[vec![1, 2, 3], vec![1, 2]]);
    }

    #[test]
    fn chain_learns_selective_join_first() {
        // Join 0 matches almost everything; join 1 matches 10%.
        let t0 = table_with_keys(&(0..1000).collect::<Vec<_>>());
        let t1 = table_with_keys(&(0..100).collect::<Vec<_>>());
        let mut chain = AdaptiveJoinChain::new(vec![t0, t1], 2);
        let keys0: Vec<i64> = (0..1000).collect();
        let keys1: Vec<i64> = (0..1000).collect();
        for _ in 0..20 {
            let r = chain.probe_chunk(&[keys0.clone(), keys1.clone()]);
            // Survivors: keys < 100 in join 1.
            assert_eq!(r.indices.len(), 100);
        }
        assert_eq!(chain.order(), &[1, 0], "selective join should lead");
    }

    #[test]
    fn chain_reorders_after_shift() {
        let t0 = table_with_keys(&(0..100).collect::<Vec<_>>());
        let t1 = table_with_keys(&(0..100).collect::<Vec<_>>());
        let mut chain = AdaptiveJoinChain::new(vec![t0, t1], 2);
        // Phase 1: probe keys make join 0 selective.
        let phase1_k0: Vec<i64> = (0..1000).collect(); // 10% match
        let phase1_k1: Vec<i64> = (0..1000).map(|i| i % 100).collect(); // all match
        for _ in 0..20 {
            chain.probe_chunk(&[phase1_k0.clone(), phase1_k1.clone()]);
        }
        assert_eq!(chain.order(), &[0, 1]);
        // Phase 2: selectivities swap.
        for _ in 0..30 {
            chain.probe_chunk(&[phase1_k1.clone(), phase1_k0.clone()]);
        }
        assert_eq!(chain.order(), &[1, 0]);
        assert!(chain.reorders() >= 1);
    }

    #[test]
    fn chain_results_are_order_independent() {
        let t0 = table_with_keys(&(0..50).collect::<Vec<_>>());
        let t1 = table_with_keys(&(25..75).collect::<Vec<_>>());
        let keys: Vec<i64> = (0..100).collect();
        let mut a = AdaptiveJoinChain::new(
            vec![
                table_with_keys(&(0..50).collect::<Vec<_>>()),
                table_with_keys(&(25..75).collect::<Vec<_>>()),
            ],
            1,
        );
        let mut results = Vec::new();
        for _ in 0..10 {
            results.push(a.probe_chunk(&[keys.clone(), keys.clone()]));
        }
        // Survivors are always 25..50 regardless of probe order.
        for r in &results {
            assert_eq!(
                r.indices,
                (25u32..50).collect::<Vec<_>>(),
                "survivors independent of order"
            );
        }
        let _ = (t0, t1);
    }

    #[test]
    fn spill_frames_build_the_same_table_as_rows() {
        let keys = str_keys(&[7, 8, 7, 7]);
        let pays = [70i64, 80, 71, 72];
        let by_rows = StrHashTable::from_rows(&keys, &pays);
        // The same rows as two arena-backed spill frames.
        let mut partition = JoinPartition::<String>::default();
        for rows in [0..1, 1..4] {
            let mut frame = RunBatch::new(String::RUN_SCHEMA);
            for i in rows {
                <String as JoinKey>::push(&mut frame, &keys[i], pays[i]);
            }
            partition.push_batch(&frame);
        }
        assert_eq!(partition.rows(), 4);
        let by_frames = StrHashTable::from_partitions([partition]);
        let probes = str_keys(&(0..12).collect::<Vec<_>>());
        assert_eq!(by_frames.probe(&probes), by_rows.probe(&probes));
        assert_eq!(by_frames.len(), by_rows.len());
        assert_eq!(by_frames.distinct_keys(), by_rows.distinct_keys());
    }

    #[test]
    fn mixed_chain_learns_selective_string_join_first() {
        // Join 0: integer, matches everything. Join 1: string, matches 10%.
        let t0 = JoinSide::Int(table_with_keys(&(0..1000).collect::<Vec<_>>()));
        let str_build = str_keys(&(0..100).collect::<Vec<_>>());
        let str_pays: Vec<i64> = (0..100).map(|i| i * 7).collect();
        let t1 = JoinSide::Str(StrHashTable::from_rows(&str_build, &str_pays));
        assert_eq!(t1.len(), 100);
        assert!(!t1.is_empty());
        let mut chain = AdaptiveJoinChain::new_mixed(vec![t0, t1], 2);
        let int_probe: Vec<i64> = (0..1000).collect();
        let str_probe = str_keys(&(0..1000).collect::<Vec<_>>());
        for _ in 0..20 {
            let r =
                chain.probe_chunk_mixed(&[KeyColumn::Int(&int_probe), KeyColumn::Str(&str_probe)]);
            assert_eq!(r.indices.len(), 100, "only str keys < 100 survive");
            // Payload projection counts both sides: int side pays key*100,
            // str side pays key*7.
            assert_eq!(r.payload_sum[3], 3 * 100 + 3 * 7);
        }
        assert_eq!(chain.order(), &[1, 0], "selective string join leads");
    }

    #[test]
    #[should_panic(expected = "join 1 is utf8-keyed but its probe column is i64")]
    fn mixed_chain_rejects_kind_mismatch() {
        let t0 = JoinSide::Int(table_with_keys(&[1]));
        let t1 = JoinSide::Str(StrHashTable::from_rows(&str_keys(&[1]), &[1]));
        let mut chain = AdaptiveJoinChain::new_mixed(vec![t0, t1], 2);
        let probe = vec![1i64];
        chain.probe_chunk_mixed(&[KeyColumn::Int(&probe), KeyColumn::Int(&probe)]);
    }

    #[test]
    #[should_panic(expected = "join 0 is utf8-keyed but its probe column is i64")]
    fn int_probe_of_str_side_panics_clearly() {
        // probe_chunk (the integer-only entry) on a chain holding a str
        // side must fail the up-front validation.
        let t1 = JoinSide::Str(StrHashTable::from_rows(&str_keys(&[1]), &[1]));
        let mut chain = AdaptiveJoinChain::new_mixed(vec![t1], 2);
        chain.probe_chunk(&[vec![1i64]]);
    }

    #[test]
    fn chain_payload_counts_every_duplicate_match() {
        // Join 0 has key 1 twice (payloads 10, 11); join 1 once (payload 5).
        let t0 = HashTable::build(
            &Array::from(vec![1i64, 1, 2]),
            &Array::from(vec![10i64, 11, 20]),
        )
        .unwrap();
        let t1 = HashTable::build(&Array::from(vec![1i64]), &Array::from(vec![5i64])).unwrap();
        let mut chain = AdaptiveJoinChain::new(vec![t0, t1], 4);
        let r = chain.probe_chunk(&[vec![1, 2], vec![1, 1]]);
        assert_eq!(r.indices, vec![0, 1]);
        assert_eq!(r.payload_sum, vec![10 + 11 + 5, 20 + 5]);
    }
}
