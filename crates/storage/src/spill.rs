//! Spill runs: append-only on-disk row files for out-of-core operators.
//!
//! When an operator's working set outgrows its [`memory budget`], the
//! out-of-core layer (see `adaptvm_relational::spill` and
//! `adaptvm_relational::sort`) writes the overflowing partition to a
//! **run**: an append-only file of rows in a simple columnar frame codec,
//! read back either whole, frame-by-frame (the streaming path recursion
//! uses to re-partition a run without materializing it), or — for sorted
//! runs feeding a k-way merge — row-by-row through a [`RunCursor`].
//!
//! ## One codec, schema-described
//!
//! Every run is described by a [`RunSchema`]: an optional arena-backed
//! Utf8 key column followed by `int_cols` columnar `i64` columns. One
//! frame is
//!
//! ```text
//! [u32 rows]
//! [u32 key bytes][rows×4 key lengths][key arena]   (only with a Utf8 key)
//! [rows×8 col 0][rows×8 col 1]…                    (int_cols times)
//! ```
//!
//! little-endian throughout. The generic [`RunWriter`]/[`RunReader`] pair
//! owns **all** header, ceiling, and truncation handling — the frame-row
//! and key-byte ceilings are enforced symmetrically on write and on read,
//! so a corrupt header can never trigger an unbounded allocation (readers
//! fail typed instead), and Utf8 key bytes are validated once, on decode.
//!
//! A [`RunBatch`] is both what a reader decodes and what a writer
//! encodes: operators build frames with [`RunBatch::push`] and write them
//! whole or in row ranges ([`RunWriter::append_rows`]). Utf8 keys stay
//! **arena-backed** on both sides of the disk — one contiguous buffer
//! per frame, no per-key allocation. The hash join spills `(i64, i64)`
//! and `(Utf8, i64)` rows through this one path.
//!
//! [`IntRunWriter`]/[`IntRun`] is a thin typed view of
//! `RunSchema::ints(2)` runs (same on-disk format) for the external sort
//! and its row-by-row [`RunCursor`].
//!
//! Runs live in a [`SpillDir`], a process-unique temporary directory
//! removed (best-effort) on drop. All I/O errors surface as
//! [`StorageError::Io`].
//!
//! [`memory budget`]: https://docs.rs/adaptvm-parallel

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::error::StorageError;

/// Process-wide counter making [`SpillDir`] names unique.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Spill I/O observability
// ---------------------------------------------------------------------------

/// One spill I/O event: a frame written to or read from a run file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillIoEvent {
    /// `true` for a frame write, `false` for a frame read.
    pub write: bool,
    /// Encoded frame bytes moved (header included).
    pub bytes: u64,
    /// Rows in the frame.
    pub rows: u64,
}

/// A snapshot of the process-wide spill I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillIoCounters {
    /// Encoded bytes written to run files.
    pub bytes_written: u64,
    /// Encoded bytes read back from run files.
    pub bytes_read: u64,
}

static SPILL_BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);
static SPILL_BYTES_READ: AtomicU64 = AtomicU64::new(0);

type IoHook = Box<dyn Fn(SpillIoEvent) + Send + Sync>;

static IO_HOOK: OnceLock<IoHook> = OnceLock::new();

/// Install the process-wide spill I/O event hook (the tracing subsystem
/// in `adaptvm_parallel` routes events into the current query's trace).
/// The first installation wins; returns `false` if one is installed.
pub fn install_io_hook(hook: IoHook) -> bool {
    IO_HOOK.set(hook).is_ok()
}

/// The process-wide spill I/O byte totals (monotonic since process
/// start). Always on: each frame costs one relaxed `fetch_add`.
pub fn io_counters() -> SpillIoCounters {
    SpillIoCounters {
        bytes_written: SPILL_BYTES_WRITTEN.load(Ordering::Relaxed),
        bytes_read: SPILL_BYTES_READ.load(Ordering::Relaxed),
    }
}

/// Count one frame of spill I/O and forward it to the hook, if any.
fn io_event(ev: SpillIoEvent) {
    if ev.write {
        SPILL_BYTES_WRITTEN.fetch_add(ev.bytes, Ordering::Relaxed);
    } else {
        SPILL_BYTES_READ.fetch_add(ev.bytes, Ordering::Relaxed);
    }
    if let Some(hook) = IO_HOOK.get() {
        hook(ev);
    }
}

/// Sanity ceiling on rows per frame, enforced by the writers and trusted
/// by the readers: a corrupt frame header can then never trigger an
/// unbounded allocation (readers fail typed instead).
pub const MAX_FRAME_ROWS: usize = 1 << 22;
/// Sanity ceiling on one frame's key-arena bytes (same contract).
pub const MAX_FRAME_KEY_BYTES: usize = 1 << 30;

fn io_err(what: &str, path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("{what} {}: {e}", path.display()))
}

/// A temporary directory holding spill runs, removed (best-effort) when
/// dropped.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
    seq: AtomicU64,
}

impl SpillDir {
    /// Create a fresh spill directory under the system temp dir.
    pub fn new() -> Result<SpillDir, StorageError> {
        SpillDir::under(&std::env::temp_dir())
    }

    /// Create a fresh spill directory under `parent`.
    pub fn under(parent: &Path) -> Result<SpillDir, StorageError> {
        let name = format!(
            "adaptvm-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = parent.join(name);
        fs::create_dir_all(&path).map_err(|e| io_err("creating spill dir", &path, e))?;
        Ok(SpillDir {
            path,
            seq: AtomicU64::new(0),
        })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, unique run-file path inside the directory, tagged with
    /// `label` for debuggability.
    pub fn run_path(&self, label: &str) -> PathBuf {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{label}-{n}.run"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Shared low-level helpers
// ---------------------------------------------------------------------------

fn write_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn write_i64s(buf: &mut Vec<u8>, vals: &[i64]) {
    for v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Read exactly `buf.len()` bytes, or report a clean EOF (`Ok(false)`)
/// when the reader is exhausted *before the first byte*.
fn read_exact_or_eof(
    reader: &mut BufReader<File>,
    path: &Path,
    buf: &mut [u8],
) -> Result<bool, StorageError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(StorageError::Io(format!(
                    "truncated spill run {}: unexpected EOF",
                    path.display()
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("reading spill run", path, e)),
        }
    }
    Ok(true)
}

fn read_u32(reader: &mut BufReader<File>, path: &Path) -> Result<u32, StorageError> {
    let mut b = [0u8; 4];
    if !read_exact_or_eof(reader, path, &mut b)? {
        return Err(StorageError::Io(format!(
            "truncated spill run {}: missing frame field",
            path.display()
        )));
    }
    Ok(u32::from_le_bytes(b))
}

fn decode_i64s(bytes: &[u8]) -> Vec<i64> {
    bytes
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect()
}

fn delete_file(path: &Path) {
    let _ = fs::remove_file(path);
}

// ---------------------------------------------------------------------------
// The schema-described generic codec
// ---------------------------------------------------------------------------

/// The row shape of a run: an optional arena-backed Utf8 key column
/// followed by `int_cols` columnar `i64` columns. The schema fixes the
/// frame layout, so a reader opened with the writer's schema decodes the
/// same frames — the typed [`IntRun`] view is nothing but a fixed schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSchema {
    int_cols: usize,
    utf8_key: bool,
}

impl RunSchema {
    /// A schema of `int_cols` columnar `i64` columns, no Utf8 key.
    pub const fn ints(int_cols: usize) -> RunSchema {
        RunSchema {
            int_cols,
            utf8_key: false,
        }
    }

    /// A schema of one arena-backed Utf8 key column plus `int_cols`
    /// columnar `i64` columns.
    pub const fn utf8_plus_ints(int_cols: usize) -> RunSchema {
        RunSchema {
            int_cols,
            utf8_key: true,
        }
    }

    /// Number of `i64` columns.
    pub fn int_cols(&self) -> usize {
        self.int_cols
    }

    /// Whether rows carry a Utf8 key column.
    pub fn utf8_key(&self) -> bool {
        self.utf8_key
    }
}

/// One decoded frame of a generic [`Run`]: the Utf8 key column (when the
/// schema has one) as cumulative offsets into one contiguous arena, plus
/// the `i64` columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunBatch {
    /// `rows + 1` cumulative key-byte offsets into [`RunBatch::arena`]
    /// (empty when the schema has no Utf8 key, or the batch no rows).
    pub offsets: Vec<u32>,
    /// The key-bytes arena.
    pub arena: Vec<u8>,
    /// The `i64` columns, each of `rows` entries.
    pub cols: Vec<Vec<i64>>,
}

impl RunBatch {
    /// An empty batch with `schema`'s columns, ready for [`Self::push`].
    pub fn new(schema: RunSchema) -> RunBatch {
        RunBatch {
            offsets: Vec::new(),
            arena: Vec::new(),
            cols: vec![Vec::new(); schema.int_cols],
        }
    }

    /// Append one row: its Utf8 key (`Some` exactly when the schema has
    /// one) and one value per `i64` column. Panics on a column-count
    /// mismatch, or if the key arena would exceed u32 addressing (the
    /// codec's offset width) — checked here before offsets could silently
    /// wrap.
    pub fn push(&mut self, key: Option<&str>, ints: &[i64]) {
        assert_eq!(ints.len(), self.cols.len(), "one value per i64 column");
        if let Some(key) = key {
            assert!(
                self.arena.len() + key.len() <= u32::MAX as usize,
                "run batch key arena exceeds u32 addressing ({} + {} bytes)",
                self.arena.len(),
                key.len()
            );
            if self.offsets.is_empty() {
                self.offsets.push(0);
            }
            self.arena.extend_from_slice(key.as_bytes());
            self.offsets.push(self.arena.len() as u32);
        }
        for (col, &v) in self.cols.iter_mut().zip(ints) {
            col.push(v);
        }
    }

    /// Reset to the empty batch, retaining every buffer's capacity (the
    /// scratch-arena reuse path).
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.arena.clear();
        self.cols.iter_mut().for_each(Vec::clear);
    }

    /// Rows in the batch.
    pub fn rows(&self) -> usize {
        if self.offsets.is_empty() {
            self.cols.first().map_or(0, Vec::len)
        } else {
            self.offsets.len() - 1
        }
    }

    /// Key `i` as a string slice into the arena (requires a Utf8 schema;
    /// validated on decode).
    pub fn key(&self, i: usize) -> &str {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        std::str::from_utf8(&self.arena[lo..hi]).expect("validated on decode")
    }
}

/// Appends frames of schema-described rows to a run file. All header and
/// ceiling handling lives here, shared by every run type.
#[derive(Debug)]
pub struct RunWriter {
    file: BufWriter<File>,
    path: PathBuf,
    schema: RunSchema,
    rows: u64,
    bytes: u64,
    /// Reusable frame-encoding buffer (no per-append allocation in
    /// steady state).
    frame: Vec<u8>,
}

impl RunWriter {
    /// Create (truncating) the run file at `path`.
    pub fn create(path: PathBuf, schema: RunSchema) -> Result<RunWriter, StorageError> {
        let file = File::create(&path).map_err(|e| io_err("creating spill run", &path, e))?;
        Ok(RunWriter {
            file: BufWriter::new(file),
            path,
            schema,
            rows: 0,
            bytes: 0,
            frame: Vec::new(),
        })
    }

    /// The schema frames are encoded under.
    pub fn schema(&self) -> RunSchema {
        self.schema
    }

    /// Append one frame from borrowed columns: the Utf8 key column as
    /// `(cumulative offsets, arena)` when the schema has one (the offsets
    /// may start anywhere — only their differences are encoded — so a
    /// sub-range of a batch's offsets pairs with the matching arena
    /// slice), plus the `i64` columns in schema order. Empty frames are
    /// skipped; unequal column lengths are a
    /// [`StorageError::LengthMismatch`]; frames over [`MAX_FRAME_ROWS`]
    /// rows or [`MAX_FRAME_KEY_BYTES`] key bytes must be split into
    /// several appends.
    pub fn append_cols(
        &mut self,
        utf8: Option<(&[u32], &[u8])>,
        cols: &[&[i64]],
    ) -> Result<(), StorageError> {
        if cols.len() != self.schema.int_cols || utf8.is_some() != self.schema.utf8_key {
            return Err(StorageError::Io(format!(
                "spill frame shape ({} int cols, utf8 {}) does not match the run schema \
                 ({} int cols, utf8 {})",
                cols.len(),
                utf8.is_some(),
                self.schema.int_cols,
                self.schema.utf8_key
            )));
        }
        let rows = match (utf8, cols.first()) {
            (Some((offsets, _)), _) => offsets.len().saturating_sub(1),
            (None, Some(c)) => c.len(),
            (None, None) => 0,
        };
        for c in cols {
            if c.len() != rows {
                return Err(StorageError::LengthMismatch {
                    left: rows,
                    right: c.len(),
                });
            }
        }
        let key_bytes = utf8.map_or(0, |(_, arena)| arena.len());
        if rows > MAX_FRAME_ROWS || key_bytes > MAX_FRAME_KEY_BYTES {
            return Err(StorageError::Io(format!(
                "spill frame of {rows} rows / {key_bytes} key bytes exceeds the frame \
                 ceilings ({MAX_FRAME_ROWS} rows, {MAX_FRAME_KEY_BYTES} bytes); \
                 split into smaller appends"
            )));
        }
        if rows == 0 {
            return Ok(());
        }
        self.frame.clear();
        write_u32(&mut self.frame, rows as u32);
        if let Some((offsets, arena)) = utf8 {
            if offsets[rows].wrapping_sub(offsets[0]) as usize != arena.len() {
                return Err(StorageError::Io(format!(
                    "spill frame offsets span {}..{}, arena holds {} bytes",
                    offsets[0],
                    offsets[rows],
                    arena.len()
                )));
            }
            write_u32(&mut self.frame, arena.len() as u32);
            for i in 0..rows {
                write_u32(&mut self.frame, offsets[i + 1] - offsets[i]);
            }
            self.frame.extend_from_slice(arena);
        }
        for c in cols {
            write_i64s(&mut self.frame, c);
        }
        self.file
            .write_all(&self.frame)
            .map_err(|e| io_err("writing spill run", &self.path, e))?;
        self.rows += rows as u64;
        self.bytes += self.frame.len() as u64;
        io_event(SpillIoEvent {
            write: true,
            bytes: self.frame.len() as u64,
            rows: rows as u64,
        });
        Ok(())
    }

    /// [`RunWriter::append_cols`] from an owned [`RunBatch`].
    pub fn append(&mut self, batch: &RunBatch) -> Result<(), StorageError> {
        let cols: Vec<&[i64]> = batch.cols.iter().map(Vec::as_slice).collect();
        let utf8 = self
            .schema
            .utf8_key
            .then_some((batch.offsets.as_slice(), batch.arena.as_slice()));
        self.append_cols(utf8, &cols)
    }

    /// Append rows `rows` of `batch` as one frame — how a batch larger
    /// than one frame is written in frame-sized pieces. Panics if `rows`
    /// is out of the batch's bounds.
    pub fn append_rows(
        &mut self,
        batch: &RunBatch,
        rows: Range<usize>,
    ) -> Result<(), StorageError> {
        if rows.is_empty() {
            return Ok(());
        }
        let cols: Vec<&[i64]> = batch.cols.iter().map(|c| &c[rows.clone()]).collect();
        let utf8 = self.schema.utf8_key.then(|| {
            let offsets = &batch.offsets[rows.start..=rows.end];
            let keys = offsets[0] as usize..offsets[offsets.len() - 1] as usize;
            (offsets, &batch.arena[keys])
        });
        self.append_cols(utf8, &cols)
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and seal the run.
    pub fn finish(mut self) -> Result<Run, StorageError> {
        self.file
            .flush()
            .map_err(|e| io_err("flushing spill run", &self.path, e))?;
        Ok(Run {
            path: self.path,
            schema: self.schema,
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

/// A sealed schema-described run on disk.
#[derive(Debug)]
pub struct Run {
    path: PathBuf,
    schema: RunSchema,
    rows: u64,
    bytes: u64,
}

impl Run {
    /// The schema frames were encoded under.
    pub fn schema(&self) -> RunSchema {
        self.schema
    }

    /// Rows in the run.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Encoded bytes on disk.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Open the run for frame-by-frame streaming.
    pub fn reader(&self) -> Result<RunReader, StorageError> {
        let file =
            File::open(&self.path).map_err(|e| io_err("opening spill run", &self.path, e))?;
        Ok(RunReader {
            file: BufReader::new(file),
            path: self.path.clone(),
            schema: self.schema,
            body: Vec::new(),
        })
    }

    /// Delete the file early (the owning [`SpillDir`] would otherwise
    /// clean it up on drop). Best-effort.
    pub fn delete(self) {
        delete_file(&self.path);
    }
}

/// Streams the frames of a [`Run`] in append order. All ceiling,
/// truncation, and Utf8 validation lives here, shared by every run type.
#[derive(Debug)]
pub struct RunReader {
    file: BufReader<File>,
    path: PathBuf,
    schema: RunSchema,
    /// Reusable frame-body buffer.
    body: Vec<u8>,
}

impl RunReader {
    /// The next frame, or `None` at end of run. Key bytes (when the
    /// schema has a Utf8 column) are validated here, so
    /// [`RunBatch::key`] is infallible.
    pub fn next_frame(&mut self) -> Result<Option<RunBatch>, StorageError> {
        let mut header = [0u8; 4];
        if !read_exact_or_eof(&mut self.file, &self.path, &mut header)? {
            return Ok(None);
        }
        let rows = u32::from_le_bytes(header) as usize;
        let key_bytes = if self.schema.utf8_key {
            read_u32(&mut self.file, &self.path)? as usize
        } else {
            0
        };
        if rows > MAX_FRAME_ROWS || key_bytes > MAX_FRAME_KEY_BYTES {
            return Err(StorageError::Io(format!(
                "corrupt spill run {}: frame header claims {rows} rows / {key_bytes} key \
                 bytes (max {MAX_FRAME_ROWS} / {MAX_FRAME_KEY_BYTES})",
                self.path.display()
            )));
        }
        let utf8_bytes = if self.schema.utf8_key {
            rows * 4 + key_bytes
        } else {
            0
        };
        let body_len = utf8_bytes + rows * 8 * self.schema.int_cols;
        self.body.resize(body_len, 0);
        if !read_exact_or_eof(&mut self.file, &self.path, &mut self.body)? && body_len > 0 {
            return Err(StorageError::Io(format!(
                "truncated spill run {}: missing frame body",
                self.path.display()
            )));
        }
        let header_len = if self.schema.utf8_key { 8 } else { 4 };
        io_event(SpillIoEvent {
            write: false,
            bytes: (header_len + body_len) as u64,
            rows: rows as u64,
        });
        let (offsets, arena) = if self.schema.utf8_key {
            let (lens, arena) = self.body[..utf8_bytes].split_at(rows * 4);
            let mut offsets = Vec::with_capacity(rows + 1);
            offsets.push(0u32);
            let mut at = 0u32;
            for len in lens.chunks_exact(4) {
                at += u32::from_le_bytes(len.try_into().expect("chunks_exact(4)"));
                offsets.push(at);
            }
            if at as usize != key_bytes {
                return Err(StorageError::Io(format!(
                    "corrupt spill run {}: key lengths sum to {at}, arena holds {key_bytes}",
                    self.path.display()
                )));
            }
            (offsets, arena.to_vec())
        } else {
            (Vec::new(), Vec::new())
        };
        let mut cols = Vec::with_capacity(self.schema.int_cols);
        for c in 0..self.schema.int_cols {
            let lo = utf8_bytes + c * rows * 8;
            cols.push(decode_i64s(&self.body[lo..lo + rows * 8]));
        }
        if self.schema.utf8_key {
            for i in 0..rows {
                let lo = offsets[i] as usize;
                let hi = offsets[i + 1] as usize;
                std::str::from_utf8(&arena[lo..hi]).map_err(|e| {
                    StorageError::Io(format!(
                        "corrupt spill run {}: key {i} is not Utf8 ({e})",
                        self.path.display()
                    ))
                })?;
            }
        }
        Ok(Some(RunBatch {
            offsets,
            arena,
            cols,
        }))
    }
}

/// Streams the rows of a two-int-column [`Run`] one at a time, refilling
/// frame-by-frame — the cursor a k-way merge over sorted runs holds per
/// run (bounded memory: one frame per open run).
#[derive(Debug)]
pub struct RunCursor {
    reader: RunReader,
    keys: Vec<i64>,
    values: Vec<i64>,
    pos: usize,
}

impl RunCursor {
    /// The next `(col0, col1)` row in append order, or `None` at end of
    /// run.
    pub fn next_row(&mut self) -> Result<Option<(i64, i64)>, StorageError> {
        while self.pos >= self.keys.len() {
            match self.reader.next_frame()? {
                Some(mut batch) => {
                    self.values = batch.cols.pop().expect("ints(2) schema");
                    self.keys = batch.cols.pop().expect("ints(2) schema");
                    self.pos = 0;
                }
                None => return Ok(None),
            }
        }
        let row = (self.keys[self.pos], self.values[self.pos]);
        self.pos += 1;
        Ok(Some(row))
    }
}

// ---------------------------------------------------------------------------
// i64 runs (`RunSchema::ints(2)`)
// ---------------------------------------------------------------------------

/// Appends frames of `(i64 key, i64 value)` rows to a run file. A typed
/// wrapper over the generic codec with `RunSchema::ints(2)`.
#[derive(Debug)]
pub struct IntRunWriter {
    inner: RunWriter,
}

impl IntRunWriter {
    /// Create (truncating) the run file at `path`.
    pub fn create(path: PathBuf) -> Result<IntRunWriter, StorageError> {
        Ok(IntRunWriter {
            inner: RunWriter::create(path, RunSchema::ints(2))?,
        })
    }

    /// Append one frame. Empty frames are skipped; unequal column lengths
    /// are a [`StorageError::LengthMismatch`]; more than
    /// [`MAX_FRAME_ROWS`] rows must be split into several appends.
    pub fn append(&mut self, keys: &[i64], values: &[i64]) -> Result<(), StorageError> {
        self.inner.append_cols(None, &[keys, values])
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.inner.rows()
    }

    /// Flush and seal the run.
    pub fn finish(self) -> Result<IntRun, StorageError> {
        Ok(IntRun {
            inner: self.inner.finish()?,
        })
    }
}

/// A sealed `(i64, i64)` run on disk.
#[derive(Debug)]
pub struct IntRun {
    inner: Run,
}

impl IntRun {
    /// Rows in the run.
    pub fn rows(&self) -> u64 {
        self.inner.rows()
    }

    /// Encoded bytes on disk.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    /// Open the run for frame-by-frame streaming.
    pub fn reader(&self) -> Result<IntRunReader, StorageError> {
        Ok(IntRunReader {
            inner: self.inner.reader()?,
        })
    }

    /// Open the run for row-by-row streaming (one resident frame).
    pub fn cursor(&self) -> Result<RunCursor, StorageError> {
        Ok(RunCursor {
            reader: self.inner.reader()?,
            keys: Vec::new(),
            values: Vec::new(),
            pos: 0,
        })
    }

    /// Read the whole run back as two columns (keys, values), in append
    /// order.
    pub fn read_all(&self) -> Result<(Vec<i64>, Vec<i64>), StorageError> {
        let mut keys = Vec::with_capacity(self.rows() as usize);
        let mut values = Vec::with_capacity(self.rows() as usize);
        let mut reader = self.reader()?;
        while let Some((k, v)) = reader.next_frame()? {
            keys.extend(k);
            values.extend(v);
        }
        Ok((keys, values))
    }

    /// Delete the file early (the owning [`SpillDir`] would otherwise
    /// clean it up on drop). Best-effort.
    pub fn delete(self) {
        self.inner.delete();
    }
}

/// Streams the frames of an [`IntRun`] in append order.
#[derive(Debug)]
pub struct IntRunReader {
    inner: RunReader,
}

impl IntRunReader {
    /// The next frame as (keys, values), or `None` at end of run.
    #[allow(clippy::type_complexity)]
    pub fn next_frame(&mut self) -> Result<Option<(Vec<i64>, Vec<i64>)>, StorageError> {
        Ok(self.inner.next_frame()?.map(|mut batch| {
            let values = batch.cols.pop().expect("ints(2) schema");
            let keys = batch.cols.pop().expect("ints(2) schema");
            (keys, values)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_run_roundtrips_in_append_order() {
        let dir = SpillDir::new().unwrap();
        let mut w = IntRunWriter::create(dir.run_path("t")).unwrap();
        w.append(&[1, 2, 3], &[10, 20, 30]).unwrap();
        w.append(&[], &[]).unwrap(); // skipped
        w.append(&[-4], &[i64::MIN]).unwrap();
        assert_eq!(w.rows(), 4);
        let run = w.finish().unwrap();
        assert_eq!(run.rows(), 4);
        assert!(run.bytes() > 0);
        let (k, v) = run.read_all().unwrap();
        assert_eq!(k, vec![1, 2, 3, -4]);
        assert_eq!(v, vec![10, 20, 30, i64::MIN]);
        // Streaming sees the two non-empty frames.
        let mut r = run.reader().unwrap();
        assert_eq!(r.next_frame().unwrap().unwrap().0, vec![1, 2, 3]);
        assert_eq!(r.next_frame().unwrap().unwrap().0, vec![-4]);
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn int_writer_rejects_unequal_columns() {
        let dir = SpillDir::new().unwrap();
        let mut w = IntRunWriter::create(dir.run_path("t")).unwrap();
        assert_eq!(
            w.append(&[1], &[1, 2]).unwrap_err(),
            StorageError::LengthMismatch { left: 1, right: 2 }
        );
    }

    #[test]
    fn run_cursor_streams_rows_across_frames() {
        let dir = SpillDir::new().unwrap();
        let mut w = IntRunWriter::create(dir.run_path("c")).unwrap();
        w.append(&[1, 2], &[10, 20]).unwrap();
        w.append(&[3], &[30]).unwrap();
        let run = w.finish().unwrap();
        let mut cur = run.cursor().unwrap();
        assert_eq!(cur.next_row().unwrap(), Some((1, 10)));
        assert_eq!(cur.next_row().unwrap(), Some((2, 20)));
        assert_eq!(cur.next_row().unwrap(), Some((3, 30)));
        assert_eq!(cur.next_row().unwrap(), None);
        assert_eq!(cur.next_row().unwrap(), None, "EOF is sticky");
    }

    #[test]
    fn generic_run_roundtrips_wide_schema() {
        // Three int columns plus a Utf8 key: a shape no typed wrapper
        // covers — the generic codec must handle it end to end.
        let dir = SpillDir::new().unwrap();
        let schema = RunSchema::utf8_plus_ints(3);
        let mut w = RunWriter::create(dir.run_path("wide"), schema).unwrap();
        assert_eq!(w.schema(), schema);
        w.append_cols(
            Some((&[0, 2, 2, 5], b"abcde")),
            &[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]],
        )
        .unwrap();
        let run = w.finish().unwrap();
        assert_eq!(run.rows(), 3);
        assert_eq!(run.schema(), schema);
        let mut r = run.reader().unwrap();
        let batch = r.next_frame().unwrap().unwrap();
        assert_eq!(batch.rows(), 3);
        assert_eq!(batch.key(0), "ab");
        assert_eq!(batch.key(1), "");
        assert_eq!(batch.key(2), "cde");
        assert_eq!(
            batch.cols,
            vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]
        );
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn generic_writer_rejects_schema_shape_mismatch() {
        let dir = SpillDir::new().unwrap();
        let mut w = RunWriter::create(dir.run_path("shape"), RunSchema::ints(2)).unwrap();
        // Wrong column count.
        assert!(matches!(
            w.append_cols(None, &[&[1]]).unwrap_err(),
            StorageError::Io(_)
        ));
        // Utf8 column against an ints-only schema.
        assert!(matches!(
            w.append_cols(Some((&[0, 1], b"x")), &[&[1], &[2]])
                .unwrap_err(),
            StorageError::Io(_)
        ));
    }

    #[test]
    fn utf8_run_roundtrips_arena_backed() {
        let dir = SpillDir::new().unwrap();
        let schema = RunSchema::utf8_plus_ints(1);
        let mut batch = RunBatch::new(schema);
        batch.push(Some("alpha"), &[1]);
        batch.push(Some(""), &[2]); // empty key is legal
        batch.push(Some("βeta"), &[3]); // multi-byte Utf8
        let mut w = RunWriter::create(dir.run_path("s"), schema).unwrap();
        w.append_rows(&batch, 0..1).unwrap();
        // A sub-range whose offsets do not start at zero.
        w.append_rows(&batch, 1..3).unwrap();
        w.append(&RunBatch::new(schema)).unwrap(); // skipped
        let mut second = RunBatch::new(schema);
        second.push(Some("tail"), &[-9]);
        w.append(&second).unwrap();
        second.clear();
        assert_eq!(second.rows(), 0, "clear empties every column");
        let run = w.finish().unwrap();
        assert_eq!(run.rows(), 4);
        let mut reader = run.reader().unwrap();
        let mut frames = 0;
        let (mut keys, mut values) = (Vec::new(), Vec::<i64>::new());
        while let Some(frame) = reader.next_frame().unwrap() {
            frames += 1;
            keys.extend((0..frame.rows()).map(|i| frame.key(i).to_string()));
            values.extend(&frame.cols[0]);
        }
        assert_eq!(frames, 3, "the empty frame was skipped");
        assert_eq!(keys, ["alpha", "", "βeta", "tail"]);
        assert_eq!(values, vec![1, 2, 3, -9]);
    }

    #[test]
    fn spill_dir_removes_itself() {
        let path = {
            let dir = SpillDir::new().unwrap();
            let mut w = IntRunWriter::create(dir.run_path("x")).unwrap();
            w.append(&[1], &[1]).unwrap();
            w.finish().unwrap();
            assert!(dir.path().exists());
            dir.path().to_path_buf()
        };
        assert!(!path.exists(), "drop removes the spill dir");
    }

    #[test]
    fn oversized_frame_header_fails_typed_instead_of_allocating() {
        let dir = SpillDir::new().unwrap();
        let path = dir.run_path("bogus");
        let mut w = IntRunWriter::create(path.clone()).unwrap();
        w.append(&[1], &[1]).unwrap();
        let run = w.finish().unwrap();
        // Corrupt the header to claim u32::MAX rows: the reader must fail
        // typed, not attempt a ~64 GiB allocation.
        let mut data = fs::read(&path).unwrap();
        data[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &data).unwrap();
        let err = run.read_all().unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
        // And the writers enforce the same ceiling symmetrically.
        let mut w = IntRunWriter::create(dir.run_path("big")).unwrap();
        let too_many = vec![0i64; MAX_FRAME_ROWS + 1];
        assert!(matches!(
            w.append(&too_many, &too_many).unwrap_err(),
            StorageError::Io(_)
        ));
    }

    #[test]
    fn truncated_run_reports_io_error() {
        let dir = SpillDir::new().unwrap();
        let path = dir.run_path("trunc");
        let mut w = IntRunWriter::create(path.clone()).unwrap();
        w.append(&[1, 2, 3, 4], &[1, 2, 3, 4]).unwrap();
        let run = w.finish().unwrap();
        // Chop the file mid-frame.
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 5]).unwrap();
        let err = run.read_all().unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    }
}
