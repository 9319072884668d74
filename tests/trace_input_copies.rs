//! A traced chunk reads its inputs in place.
//!
//! An injected trace takes each of its region's reads as a window of the
//! input buffer; only a read whose variable escapes the region (here the
//! loop counter's `len(a)`) is copied, to be bound in the environment.
//! This suite counts heap allocations of exactly one chunk of `f64`s
//! (1 000 × 8 B) with its own global allocator: a traced chunk of four
//! reads makes at most one. The trace's block registers are rows of
//! 256 lanes × 8 B, multiples of 2 048 B, so they never have that size.
//!
//! The suite holds a single test: the counter is process-wide, and a
//! second test running beside it would add its allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use adaptvm::dsl::parser::parse_program;
use adaptvm::storage::{Array, ScalarType};
use adaptvm::vm::{Buffers, Strategy, Vm, VmConfig};

const CHUNK: usize = 1_000;
const CHUNK_BYTES: usize = CHUNK * std::mem::size_of::<f64>();

/// The system allocator, counting allocations of `CHUNK_BYTES` while
/// `COUNTING` is set.
struct ChunkCounter;

static COUNTING: AtomicBool = AtomicBool::new(false);
static CHUNK_ALLOCS: AtomicU64 = AtomicU64::new(0);

impl ChunkCounter {
    fn note(size: usize) {
        if size == CHUNK_BYTES && COUNTING.load(Ordering::Relaxed) {
            CHUNK_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the only
// addition is bumping two atomics, which neither allocates nor touches
// the memory being managed.
unsafe impl GlobalAlloc for ChunkCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded as-is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: forwarded as-is; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ChunkCounter = ChunkCounter;

/// Four f64 reads feed one fused map and fold; only `a` escapes, through
/// the counter's `len(a)`.
const SRC: &str = "
mut i
mut acc
i := 0
acc := 0.0
loop {
  let a = read i xa in {
    let b = read i xb in {
      let c = read i xc in {
        let d = read i xd in {
          let m = map (\\a b c d -> a * b + c - d) a b c d in {
            let s = fold sum 0.0 m in {
              acc := acc + s
              i := i + len(a)
            }
          }
        }
      }
    }
  }
  if i >= 32000 then { break }
}
write out 0 acc
";

#[test]
fn a_traced_chunk_copies_at_most_its_escaping_read() {
    let rows = 32_000;
    let column = |k: usize| {
        Array::from(
            (0..rows)
                .map(|i| ((i * (k + 3)) % 101) as f64 * 0.25 - 3.0)
                .collect::<Vec<f64>>(),
        )
    };
    let names = ["xa", "xb", "xc", "xd"];
    let inputs: Vec<Array> = (0..names.len()).map(column).collect();
    let buffers = || {
        names
            .iter()
            .zip(&inputs)
            .fold(Buffers::new(), |b, (name, a)| {
                b.with_window(name, a, 0, rows)
            })
    };
    let program = parse_program(SRC).unwrap();
    let prepared = Vm::prepare(&program, names.map(|n| (n, ScalarType::F64)));
    let vm = Vm::new(VmConfig {
        strategy: Strategy::CompiledPipeline,
        chunk_size: CHUNK,
        ..VmConfig::default()
    });
    // Warm-up: compiles the pipeline and publishes it in `prepared`.
    let (warm, _) = vm.run_prepared(&prepared, buffers()).unwrap();

    let input = buffers();
    COUNTING.store(true, Ordering::Relaxed);
    let (out, report) = vm.run_prepared(&prepared, input).unwrap();
    COUNTING.store(false, Ordering::Relaxed);
    let copies = CHUNK_ALLOCS.load(Ordering::Relaxed);

    let chunks = (rows / CHUNK) as u64;
    assert_eq!(report.trace_executions, chunks, "{report:?}");
    assert_eq!(report.fallbacks, 0, "{report:?}");
    assert_eq!(
        out.output("out")
            .and_then(|a| a.as_f64())
            .map(|v| v[0].to_bits()),
        warm.output("out")
            .and_then(|a| a.as_f64())
            .map(|v| v[0].to_bits()),
    );
    assert!(
        copies <= report.trace_executions,
        "{copies} allocations of {CHUNK_BYTES} B over {} traced chunks",
        report.trace_executions
    );
}
