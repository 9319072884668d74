//! Shape-resolved, multiversioned lane loops — the tight loops every
//! `map` / `filter` kernel bottoms out in.
//!
//! A kernel call resolves, **once**, the element type (the caller's
//! monomorphization) and the operand shape (column × column, column ×
//! constant, constant × column) and then runs a plain slice loop with
//! nothing left to decide per lane, so LLVM vectorizes it. Each full loop
//! is compiled twice from the *same* Rust body: once for the build's
//! baseline target and once under `#[target_feature(enable = "avx2")]`,
//! picked at run time by `is_x86_feature_detected!`. The per-lane
//! arithmetic is element-wise IEEE / wrapping integer arithmetic with no
//! reassociation, so both bodies are bit-identical; [`force_baseline`]
//! lets a test run both in one process and compare.

use std::sync::atomic::{AtomicBool, Ordering};

use adaptvm_storage::sel::SelVec;

use crate::map::MapMode;

/// One operand, resolved to its shape for the whole kernel call.
#[derive(Clone, Copy)]
pub(crate) enum Lanes<'a, T> {
    /// A column (borrowed, or a widened copy the caller owns).
    Col(&'a [T]),
    /// A scalar broadcast to every lane.
    Const(T),
}

static FORCE_BASELINE: AtomicBool = AtomicBool::new(false);

/// Test hook: `true` pins every multiversioned loop to its baseline body
/// (process-wide) so an equivalence test can compare it with the AVX2
/// body in-process; `false` restores run-time detection.
#[doc(hidden)]
pub fn force_baseline(on: bool) {
    // Relaxed: the flag publishes no other data.
    FORCE_BASELINE.store(on, Ordering::Relaxed);
}

/// True when the AVX2 bodies may run on this CPU (and are not pinned
/// off). Shared with the trace executor so one hook covers every
/// multiversioned loop in the engine.
#[doc(hidden)]
#[inline]
pub fn avx2_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !FORCE_BASELINE.load(Ordering::Relaxed) && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline(always)]
fn full1_body<T: Copy, R: Copy>(a: Lanes<'_, T>, n: usize, f: impl Fn(T) -> R) -> Vec<R> {
    match a {
        Lanes::Col(a) => a.iter().map(|&x| f(x)).collect(),
        Lanes::Const(c) => vec![f(c); n],
    }
}

#[inline(always)]
fn full2_body<T: Copy, R: Copy>(
    a: Lanes<'_, T>,
    b: Lanes<'_, T>,
    n: usize,
    f: impl Fn(T, T) -> R,
) -> Vec<R> {
    match (a, b) {
        (Lanes::Col(a), Lanes::Col(b)) => a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect(),
        (Lanes::Col(a), Lanes::Const(c)) => a.iter().map(|&x| f(x, c)).collect(),
        (Lanes::Const(c), Lanes::Col(b)) => b.iter().map(|&y| f(c, y)).collect(),
        (Lanes::Const(c), Lanes::Const(d)) => vec![f(c, d); n],
    }
}

/// The AVX2 copy of [`full1_body`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn full1_avx2<T: Copy, R: Copy>(a: Lanes<'_, T>, n: usize, f: impl Fn(T) -> R) -> Vec<R> {
    full1_body(a, n, f)
}

/// The AVX2 copy of [`full2_body`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn full2_avx2<T: Copy, R: Copy>(
    a: Lanes<'_, T>,
    b: Lanes<'_, T>,
    n: usize,
    f: impl Fn(T, T) -> R,
) -> Vec<R> {
    full2_body(a, b, n, f)
}

/// `out[i] = f(a[i])` over all `n` lanes.
#[inline]
pub(crate) fn full1<T: Copy, R: Copy>(a: Lanes<'_, T>, n: usize, f: impl Fn(T) -> R) -> Vec<R> {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: `avx2_enabled()` just observed AVX2 support on this CPU.
        return unsafe { full1_avx2(a, n, f) };
    }
    full1_body(a, n, f)
}

/// `out[i] = f(a[i], b[i])` over all `n` lanes.
#[inline]
pub(crate) fn full2<T: Copy, R: Copy>(
    a: Lanes<'_, T>,
    b: Lanes<'_, T>,
    n: usize,
    f: impl Fn(T, T) -> R,
) -> Vec<R> {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: `avx2_enabled()` just observed AVX2 support on this CPU.
        return unsafe { full2_avx2(a, b, n, f) };
    }
    full2_body(a, b, n, f)
}

/// `out[i] = f(a[i])` for the selected lanes only; the others hold
/// `R::default()`. A gather/scatter pattern, so one body serves every CPU.
fn selective1<T: Copy, R: Copy + Default>(
    a: Lanes<'_, T>,
    n: usize,
    sel: &SelVec,
    f: impl Fn(T) -> R,
) -> Vec<R> {
    let mut out = vec![R::default(); n];
    match a {
        Lanes::Col(a) => {
            for &i in sel.indices() {
                out[i as usize] = f(a[i as usize]);
            }
        }
        Lanes::Const(c) => {
            let v = f(c);
            for &i in sel.indices() {
                out[i as usize] = v;
            }
        }
    }
    out
}

/// Two-operand [`selective1`].
fn selective2<T: Copy, R: Copy + Default>(
    a: Lanes<'_, T>,
    b: Lanes<'_, T>,
    n: usize,
    sel: &SelVec,
    f: impl Fn(T, T) -> R,
) -> Vec<R> {
    let mut out = vec![R::default(); n];
    match (a, b) {
        (Lanes::Col(a), Lanes::Col(b)) => {
            for &i in sel.indices() {
                out[i as usize] = f(a[i as usize], b[i as usize]);
            }
        }
        (Lanes::Col(a), Lanes::Const(c)) => {
            for &i in sel.indices() {
                out[i as usize] = f(a[i as usize], c);
            }
        }
        (Lanes::Const(c), Lanes::Col(b)) => {
            for &i in sel.indices() {
                out[i as usize] = f(c, b[i as usize]);
            }
        }
        (Lanes::Const(c), Lanes::Const(d)) => {
            let v = f(c, d);
            for &i in sel.indices() {
                out[i as usize] = v;
            }
        }
    }
    out
}

/// One-operand map under a flavor: selective when a selection is pending
/// and the mode asks for it, full otherwise.
#[inline]
pub(crate) fn map1<T: Copy, R: Copy + Default>(
    n: usize,
    sel: Option<&SelVec>,
    mode: MapMode,
    a: Lanes<'_, T>,
    f: impl Fn(T) -> R,
) -> Vec<R> {
    match (sel, mode) {
        (Some(s), MapMode::Selective) => selective1(a, n, s, f),
        _ => full1(a, n, f),
    }
}

/// Two-operand [`map1`].
#[inline]
pub(crate) fn map2<T: Copy, R: Copy + Default>(
    n: usize,
    sel: Option<&SelVec>,
    mode: MapMode,
    a: Lanes<'_, T>,
    b: Lanes<'_, T>,
    f: impl Fn(T, T) -> R,
) -> Vec<R> {
    match (sel, mode) {
        (Some(s), MapMode::Selective) => selective2(a, b, n, s, f),
        _ => full2(a, b, n, f),
    }
}

/// The selection-vector loop: ascending indices of the candidate lanes
/// (all `n`, or the `existing` selection) where `pred` holds. The operand
/// shape is matched once; each arm compares straight off the slices and
/// compacts branch-free ([`compact`]), so the cost does not depend on how
/// predictable the data is.
pub(crate) fn select2<T: Copy>(
    a: Lanes<'_, T>,
    b: Lanes<'_, T>,
    n: usize,
    existing: Option<&SelVec>,
    pred: impl Fn(T, T) -> bool,
) -> Vec<u32> {
    macro_rules! scan {
        (|$i:ident| $hit:expr) => {
            match existing {
                Some(sel) => {
                    let sel = sel.indices();
                    compact(sel.len(), |j| {
                        let $i = sel[j] as usize;
                        (sel[j], $hit)
                    })
                }
                None => compact(n, |$i| ($i as u32, $hit)),
            }
        };
    }
    match (a, b) {
        (Lanes::Col(a), Lanes::Col(b)) => {
            let (a, b) = (&a[..n], &b[..n]);
            scan!(|i| pred(a[i], b[i]))
        }
        (Lanes::Col(a), Lanes::Const(c)) => {
            let a = &a[..n];
            scan!(|i| pred(a[i], c))
        }
        (Lanes::Const(c), Lanes::Col(b)) => {
            let b = &b[..n];
            scan!(|i| pred(c, b[i]))
        }
        (Lanes::Const(c), Lanes::Const(d)) => {
            let hit = pred(c, d);
            scan!(|_i| hit)
        }
    }
}

/// Indices of the `true` lanes, ascending, with no data-dependent branch
/// per lane. Sparse columns (under one hit per eight-lane word) go a word
/// at a time ([`for_each_true`]), so the cost follows the hits. Denser
/// columns write every lane's index and advance the cursor only on a hit.
pub(crate) fn true_lanes(bools: &[bool]) -> Vec<u32> {
    let hits = bools.iter().filter(|&&b| b).count();
    if hits * 8 >= bools.len() {
        return compact(bools.len(), |j| (j as u32, bools[j]));
    }
    let mut out = Vec::with_capacity(hits);
    for_each_true(bools, |j| out.push(j as u32));
    out
}

/// Call `f(j)` for every `true` lane `j`, ascending. Eight booleans are
/// read as one word; all-false words are skipped and set lanes peeled with
/// trailing-zero counts. (Shared with the trace executor's masked folds.)
#[doc(hidden)]
#[inline(always)]
pub fn for_each_true(bools: &[bool], mut f: impl FnMut(usize)) {
    let mut words = bools.chunks_exact(8);
    let mut base = 0;
    for w in &mut words {
        let w: &[bool; 8] = w.try_into().expect("chunks_exact(8)");
        // A `true` byte is 0x01, so bit 8·j of the word is lane j.
        let mut word = u64::from_le_bytes(w.map(u8::from));
        while word != 0 {
            f(base + (word.trailing_zeros() >> 3) as usize);
            word &= word - 1;
        }
        base += 8;
    }
    for (j, &b) in words.remainder().iter().enumerate() {
        if b {
            f(base + j);
        }
    }
}

/// The `candidates` whose lane is `true`, in order, branch-free.
pub(crate) fn true_among(bools: &[bool], candidates: &[u32]) -> Vec<u32> {
    compact(candidates.len(), |j| {
        let i = candidates[j];
        (i, bools[i as usize])
    })
}

/// Branch-free compaction: `lane(j)` yields an index and whether to keep
/// it; every index is written, the cursor only advances on a keep.
#[inline(always)]
fn compact(n: usize, lane: impl Fn(usize) -> (u32, bool)) -> Vec<u32> {
    let mut out = vec![0u32; n];
    let mut k = 0;
    for j in 0..n {
        let (i, keep) = lane(j);
        out[k] = i;
        k += keep as usize;
    }
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_lanes_matches_a_per_lane_scan() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 255, 256, 257] {
            // Dense strides take the per-lane path, sparse ones the
            // word-at-a-time path.
            for stride in [1usize, 2, 3, 7, 9, 64, 1000] {
                let bools: Vec<bool> = (0..n).map(|i| i % stride == 0).collect();
                let expect: Vec<u32> = (0..n as u32).filter(|&i| bools[i as usize]).collect();
                assert_eq!(true_lanes(&bools), expect, "n={n} stride={stride}");
                let candidates: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
                let among: Vec<u32> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| bools[i as usize])
                    .collect();
                assert_eq!(
                    true_among(&bools, &candidates),
                    among,
                    "n={n} stride={stride}"
                );
            }
        }
    }

    #[test]
    fn shapes_and_modes() {
        let a = [1i64, 2, 3, 4];
        let b = [10i64, 20, 30, 40];
        let add = |x: i64, y: i64| x + y;
        assert_eq!(
            full2(Lanes::Col(&a), Lanes::Col(&b), 4, add),
            vec![11, 22, 33, 44]
        );
        assert_eq!(
            full2(Lanes::Col(&a), Lanes::Const(5), 4, add),
            vec![6, 7, 8, 9]
        );
        assert_eq!(
            full2(Lanes::Const(5), Lanes::Col(&b), 4, |x, y| x - y),
            vec![-5, -15, -25, -35]
        );
        assert_eq!(full2(Lanes::Const(1), Lanes::Const(2), 3, add), vec![3; 3]);
        let sel = SelVec::new(vec![1, 3]);
        assert_eq!(
            map2(
                4,
                Some(&sel),
                MapMode::Selective,
                Lanes::Col(&a),
                Lanes::Const(5),
                add
            ),
            vec![0, 7, 0, 9]
        );
        assert_eq!(
            map1(4, Some(&sel), MapMode::Full, Lanes::Col(&a), |x: i64| -x),
            vec![-1, -2, -3, -4]
        );
    }
}
