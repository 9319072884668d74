//! Out-of-core join correctness: the grace-hash spill path must be
//! **bit-identical** to the in-memory join whatever the budget — across
//! worker counts, against a nested-loop oracle, with duplicate keys,
//! empty partitions, budgets so small every partition spills, and
//! recursion at least two levels deep — and budgets must balance to zero
//! afterwards.

use adaptvm::kernels::KernelError;
use adaptvm::parallel::{CancelToken, MemoryBudget, SpillStats};
use adaptvm::relational::join::{HashTable, StrHashTable};
use adaptvm::relational::parallel::{ParallelJoinOutput, ParallelOpts};
use adaptvm::relational::spill::{
    parallel_hash_join_spill, INT_BUILD_ROW_BYTES, STR_BUILD_ROW_BYTES,
};
use adaptvm::storage::Array;
use proptest::prelude::*;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn str_keys(vals: &[i64]) -> Vec<String> {
    vals.iter().map(|v| format!("key-{v}")).collect()
}

/// The key type a test joins on. The spill join is one code path generic
/// over the key type; these tests drive both of its instances.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Str,
}

const KINDS: [Kind; 2] = [Kind::Int, Kind::Str];

/// The spill join over integer key ids, as `kind`: `Int` joins the ids
/// themselves, `Str` their [`str_keys`] names. The mapping is injective,
/// so both kinds must produce the integer join's exact output.
fn spill_join_as(
    kind: Kind,
    build_ids: &[i64],
    payloads: &[i64],
    probe_ids: &[i64],
    bloom: bool,
    opts: ParallelOpts<'_>,
) -> Result<(ParallelJoinOutput, SpillStats), KernelError> {
    let pays = Array::from(payloads.to_vec());
    match kind {
        Kind::Int => {
            let keys = Array::from(build_ids.to_vec());
            parallel_hash_join_spill(&keys, &pays, probe_ids, bloom, opts)
        }
        Kind::Str => {
            let keys = Array::from(str_keys(build_ids));
            parallel_hash_join_spill(&keys, &pays, &str_keys(probe_ids), bloom, opts)
        }
    }
}

/// The in-memory join of the ids: what [`spill_join_as`] must return.
fn reference_join(build_ids: &[i64], payloads: &[i64], probe_ids: &[i64]) -> (Vec<u32>, Vec<i64>) {
    HashTable::from_rows(build_ids, payloads).probe(probe_ids)
}

/// The nested-loop inner-join oracle (one output row per matching build
/// row, probe order then build-row order).
fn nested_loop_join(
    build_keys: &[i64],
    build_payloads: &[i64],
    probe_keys: &[i64],
) -> (Vec<u32>, Vec<i64>) {
    let mut idx = Vec::new();
    let mut pay = Vec::new();
    for (i, &pk) in probe_keys.iter().enumerate() {
        for (j, &bk) in build_keys.iter().enumerate() {
            if bk == pk {
                idx.push(i as u32);
                pay.push(build_payloads[j]);
            }
        }
    }
    (idx, pay)
}

#[test]
fn spill_join_bit_identical_across_workers_and_budgets() {
    // 30k build rows over 2k distinct keys (heavy duplication); probe keys
    // half hit, half miss.
    let bk_rows: Vec<i64> = (0..30_000).map(|i| (i * 7) % 2_000).collect();
    let bp_rows: Vec<i64> = (0..30_000).collect();
    let build_keys = Array::from(bk_rows.clone());
    let build_pays = Array::from(bp_rows.clone());
    let probe_keys: Vec<i64> = (0..20_000).map(|i| (i * 13) % 4_000).collect();
    let reference = HashTable::build(&build_keys, &build_pays).unwrap();
    let (seq_idx, seq_pay) = reference.probe(&probe_keys);

    let footprint = 30_000 * INT_BUILD_ROW_BYTES;
    // Budgets forcing zero, some, and all partitions to spill.
    for (label, limit) in [
        ("fits", usize::MAX),
        ("half", footprint / 2),
        ("tiny", 1_000),
    ] {
        for workers in WORKERS {
            let budget = MemoryBudget::bytes(limit);
            let opts = ParallelOpts::new(workers, 4_096).with_budget(&budget);
            let (out, spill) = parallel_hash_join_spill(
                &build_keys,
                &build_pays,
                &probe_keys,
                workers % 2 == 0, // alternate bloom on/off across the sweep
                opts,
            )
            .unwrap();
            assert_eq!(out.indices, seq_idx, "{label} workers={workers}");
            assert_eq!(out.payloads, seq_pay, "{label} workers={workers}");
            assert_eq!(budget.used(), 0, "{label}: charges must balance");
            match label {
                "fits" => {
                    assert_eq!(spill.partitions_spilled, 0, "workers={workers}");
                    assert_eq!(spill.bytes_written, 0);
                }
                "half" => {
                    assert!(spill.spilled(), "half budget must spill something");
                    assert!(
                        spill.partitions_spilled < 16,
                        "half budget must keep some partitions resident: {spill:?}"
                    );
                    assert!(spill.bytes_read >= spill.bytes_written / 2);
                }
                _ => {
                    assert!(
                        spill.partitions_spilled >= 16,
                        "tiny budget must spill every top-level partition: {spill:?}"
                    );
                    assert!(spill.max_recursion_depth >= 1, "{spill:?}");
                }
            }
        }
    }
}

#[test]
fn str_spill_join_bit_identical_across_workers_and_budgets() {
    let key_ids: Vec<i64> = (0..12_000).map(|i| (i * 11) % 900).collect();
    let keys = str_keys(&key_ids);
    let pays: Vec<i64> = (0..12_000).collect();
    let build_keys = Array::from(keys.clone());
    let build_pays = Array::from(pays.clone());
    let probe_keys = str_keys(&(0..8_000).map(|i| (i * 3) % 1_800).collect::<Vec<_>>());
    let reference = StrHashTable::build(&build_keys, &build_pays).unwrap();
    let (seq_idx, seq_pay) = reference.probe(&probe_keys);

    for limit in [usize::MAX, 200_000, 2_000] {
        for workers in WORKERS {
            let budget = MemoryBudget::bytes(limit);
            let opts = ParallelOpts::new(workers, 3_000).with_budget(&budget);
            let (out, spill) = parallel_hash_join_spill(
                &build_keys,
                &build_pays,
                &probe_keys,
                workers % 2 == 1,
                opts,
            )
            .unwrap();
            assert_eq!(out.indices, seq_idx, "limit={limit} workers={workers}");
            assert_eq!(out.payloads, seq_pay, "limit={limit} workers={workers}");
            assert_eq!(budget.used(), 0);
            if limit == usize::MAX {
                assert!(!spill.spilled());
            } else if limit == 2_000 {
                assert!(spill.partitions_spilled >= 16, "{spill:?}");
            }
        }
    }
}

#[test]
fn tiny_budget_recurses_at_least_two_levels() {
    // 40k distinct keys: a top-level partition holds ~2.5k rows
    // (~120kB), a level-1 sub-partition ~156 rows (~7.5kB) — both above a
    // 600-byte budget, so settling must re-partition at least twice
    // before level-2 sub-partitions (~10 rows) fit.
    let n = 40_000i64;
    let build_ids: Vec<i64> = (0..n).collect();
    let build_pays: Vec<i64> = (0..n).map(|i| i * 2).collect();
    let probe_ids: Vec<i64> = (0..n).step_by(5).collect();
    let (seq_idx, seq_pay) = reference_join(&build_ids, &build_pays, &probe_ids);

    for kind in KINDS {
        let budget = MemoryBudget::bytes(600);
        let (out, spill) = spill_join_as(
            kind,
            &build_ids,
            &build_pays,
            &probe_ids,
            false,
            ParallelOpts::new(4, 8_192).with_budget(&budget),
        )
        .unwrap();
        assert_eq!(out.indices, seq_idx, "{kind:?}");
        assert_eq!(out.payloads, seq_pay, "{kind:?}");
        assert!(
            spill.max_recursion_depth >= 2,
            "{kind:?}: expected ≥2 recursion levels: {spill:?}"
        );
        assert!(spill.bytes_read > 0 && spill.bytes_written > 0);
        assert_eq!(budget.used(), 0);
    }
}

#[test]
fn zero_budget_forces_unsplittable_partitions() {
    // Every build row shares one key (one hash): partitions can never be
    // split, so a zero budget must fall back to forced builds — and still
    // produce the exact join.
    let build_ids = vec![7i64; 500];
    let build_pays: Vec<i64> = (0..500).collect();
    let probe_ids = vec![7i64, 8, 7];
    let expected = reference_join(&build_ids, &build_pays, &probe_ids);

    for kind in KINDS {
        let budget = MemoryBudget::bytes(0);
        let (out, spill) = spill_join_as(
            kind,
            &build_ids,
            &build_pays,
            &probe_ids,
            false,
            ParallelOpts::new(2, 64).with_budget(&budget),
        )
        .unwrap();
        assert_eq!((out.indices, out.payloads), expected, "{kind:?}");
        assert!(spill.forced_builds >= 1, "{kind:?}: {spill:?}");
        assert_eq!(budget.used(), 0);
    }
}

#[test]
fn probe_side_spills_and_stays_exact() {
    // A modest build side but a huge probe side, with a budget that holds
    // neither the build partitions nor the deferred probe-index lists
    // (8 bytes a row): the probe side must spill to (key, index) runs —
    // streamed through recursion and the final probe — and the join must
    // stay bit-identical.
    let build_keys = Array::from((0..4_000).map(|i| i % 1_000).collect::<Vec<i64>>());
    let build_pays = Array::from((0..4_000).collect::<Vec<i64>>());
    let probe_keys: Vec<i64> = (0..80_000).map(|i| (i * 3) % 2_000).collect();
    let reference = HashTable::build(&build_keys, &build_pays).unwrap();
    let expected = reference.probe(&probe_keys);
    let budget = MemoryBudget::bytes(2_000);
    let (out, spill) = parallel_hash_join_spill(
        &build_keys,
        &build_pays,
        &probe_keys,
        false,
        ParallelOpts::new(4, 4_096).with_budget(&budget),
    )
    .unwrap();
    assert_eq!((out.indices, out.payloads), expected);
    assert!(
        spill.probe_partitions_spilled >= 1,
        "a 2kB budget cannot hold 5k deferred probe rows per partition: {spill:?}"
    );
    assert!(spill.spilled());
    assert_eq!(budget.used(), 0);
}

#[test]
fn str_probe_side_spills_and_stays_exact() {
    let key_ids: Vec<i64> = (0..2_000).map(|i| i % 300).collect();
    let keys = str_keys(&key_ids);
    let pays: Vec<i64> = (0..2_000).collect();
    let build_keys = Array::from(keys.clone());
    let build_pays = Array::from(pays);
    let probe_keys = str_keys(&(0..30_000).map(|i| (i * 7) % 600).collect::<Vec<_>>());
    let reference = StrHashTable::build(&build_keys, &build_pays).unwrap();
    let expected = reference.probe(&probe_keys);
    let budget = MemoryBudget::bytes(1_000);
    let (out, spill) = parallel_hash_join_spill(
        &build_keys,
        &build_pays,
        &probe_keys,
        false,
        ParallelOpts::new(2, 4_096).with_budget(&budget),
    )
    .unwrap();
    assert_eq!((out.indices, out.payloads), expected);
    assert!(spill.probe_partitions_spilled >= 1, "{spill:?}");
    assert_eq!(budget.used(), 0);
}

#[test]
fn empty_sides_are_handled() {
    for kind in KINDS {
        let budget = MemoryBudget::bytes(64);
        let opts = ParallelOpts::new(2, 128).with_budget(&budget);
        let (out, spill) = spill_join_as(kind, &[], &[], &[1, 2, 3], false, opts).unwrap();
        assert!(out.indices.is_empty() && out.payloads.is_empty());
        assert!(!spill.spilled(), "{kind:?}");
        let (out, _) = spill_join_as(kind, &[1, 2], &[10, 20], &[], false, opts).unwrap();
        assert!(out.indices.is_empty() && out.payloads.is_empty());
        assert_eq!(budget.used(), 0);
    }
}

#[test]
fn pre_cancelled_spill_join_fails_typed_and_balanced() {
    let ids: Vec<i64> = (0..5_000).collect();
    let token = CancelToken::new();
    token.cancel();
    for kind in KINDS {
        let budget = MemoryBudget::bytes(1_000);
        let err = spill_join_as(
            kind,
            &ids,
            &ids,
            &ids,
            false,
            ParallelOpts::new(2, 512)
                .with_budget(&budget)
                .with_cancel(&token),
        )
        .unwrap_err();
        assert_eq!(err, KernelError::Cancelled, "{kind:?}");
        assert_eq!(budget.used(), 0, "aborted join must not leak charges");
    }
}

#[test]
fn mid_flight_cancel_is_typed_or_complete() {
    // Cancellation racing a spilling join must either complete exactly or
    // fail typed — never panic, never leak budget. (The deterministic
    // between-runs checkpoint is unit-tested; this exercises the race.)
    let ids: Vec<i64> = (0..60_000).collect();
    let expected = reference_join(&ids, &ids, &ids);
    for kind in KINDS {
        let token = CancelToken::new();
        // Below the build footprint: some partitions stay resident
        // (holding budget leases across the probe), the rest spill — an
        // abort at any phase must release both kinds of charge.
        let budget = MemoryBudget::bytes(60_000 * INT_BUILD_ROW_BYTES / 2);
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                token.cancel();
            })
        };
        let result = spill_join_as(
            kind,
            &ids,
            &ids,
            &ids,
            false,
            ParallelOpts::new(4, 4_096)
                .with_budget(&budget)
                .with_cancel(&token),
        );
        canceller.join().unwrap();
        match result {
            Ok((out, _)) => assert_eq!((out.indices, out.payloads), expected, "{kind:?}"),
            Err(e) => assert_eq!(e, KernelError::Cancelled, "{kind:?}"),
        }
        assert_eq!(budget.used(), 0);
    }
}

/// Every [`SpillStats`] field, exactly, for a fixed input of each key
/// kind at three budgets: unlimited, about half the build footprint, and
/// 0 B. The build side mixes 40 keys with a 200-row run of one key, so at
/// 0 B recursion bottoms out in forced builds. The numbers pin the charge
/// formulas (i64: 48 B a row; Utf8: 56 B a row plus key bytes at level 0,
/// encoded run bytes plus 56 B a row at settle), the frame bytes and
/// every recursion decision.
#[test]
fn spill_stats_are_pinned_for_both_key_kinds() {
    let build_ids: Vec<i64> = (0..600)
        .map(|i| i % 40)
        .chain(std::iter::repeat_n(1_000, 200))
        .collect();
    let pays: Vec<i64> = (0..build_ids.len() as i64).collect();
    let probe_ids: Vec<i64> = (0..300).map(|i| i % 60).chain([1_000; 5]).collect();
    let expected = reference_join(&build_ids, &pays, &probe_ids);
    let key_bytes: usize = str_keys(&build_ids).iter().map(String::len).sum();
    let stats = |partitions, probe_partitions, runs, written, read, depth, forced| SpillStats {
        partitions_spilled: partitions,
        probe_partitions_spilled: probe_partitions,
        runs_written: runs,
        bytes_written: written,
        bytes_read: read,
        max_recursion_depth: depth,
        forced_builds: forced,
    };
    for (kind, footprint, half, zero) in [
        (
            Kind::Int,
            build_ids.len() * INT_BUILD_ROW_BYTES,
            stats(12, 0, 12, 6_768, 6_768, 0, 0),
            stats(99, 119, 218, 55_912, 54_232, 3, 41),
        ),
        (
            Kind::Str,
            key_bytes + build_ids.len() * STR_BUILD_ROW_BYTES,
            stats(2, 0, 2, 16_216, 16_216, 1, 1),
            stats(6, 6, 12, 40_296, 40_296, 1, 3),
        ),
    ] {
        for (limit, pinned) in [
            (usize::MAX, SpillStats::default()),
            (footprint / 2, half),
            (0, zero),
        ] {
            let budget = MemoryBudget::bytes(limit);
            let opts = ParallelOpts::new(2, 128).with_budget(&budget);
            let (out, spill) =
                spill_join_as(kind, &build_ids, &pays, &probe_ids, true, opts).unwrap();
            assert_eq!(
                (out.indices, out.payloads),
                expected,
                "{kind:?} limit={limit}"
            );
            assert_eq!(spill, pinned, "{kind:?} limit={limit}");
            assert_eq!(budget.used(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the data (heavy duplicate keys), budget (including zero:
    /// everything spills), morsel size, and worker count: the spilled
    /// join equals the nested-loop oracle and the budget balances.
    #[test]
    fn spilled_join_matches_nested_loop_oracle(
        build_keys in prop::collection::vec(0i64..40, 0..300),
        probe_keys in prop::collection::vec(-5i64..50, 0..300),
        budget_limit in 0usize..20_000,
        morsel_rows in 1usize..200,
        workers in 1usize..5,
    ) {
        let payloads: Vec<i64> = (0..build_keys.len() as i64).map(|i| i * 3 - 7).collect();
        let oracle = nested_loop_join(&build_keys, &payloads, &probe_keys);
        let budget = MemoryBudget::bytes(budget_limit);
        let (out, _) = parallel_hash_join_spill(
            &Array::from(build_keys.clone()),
            &Array::from(payloads),
            &probe_keys,
            budget_limit % 2 == 0,
            ParallelOpts::new(workers, morsel_rows).with_budget(&budget),
        ).unwrap();
        prop_assert_eq!(out.indices, oracle.0);
        prop_assert_eq!(out.payloads, oracle.1);
        prop_assert_eq!(budget.used(), 0);
    }

    /// The string spill join against the in-memory string join, across
    /// budgets and duplicated keys.
    #[test]
    fn spilled_str_join_matches_in_memory(
        key_ids in prop::collection::vec(0i64..30, 0..200),
        probe_ids in prop::collection::vec(-3i64..36, 0..200),
        budget_limit in 0usize..10_000,
        workers in 1usize..5,
    ) {
        let keys = str_keys(&key_ids);
        let payloads: Vec<i64> = (0..keys.len() as i64).collect();
        let probes = str_keys(&probe_ids);
        let reference = StrHashTable::from_rows(&keys, &payloads);
        let expected = reference.probe(&probes);
        let budget = MemoryBudget::bytes(budget_limit);
        let (out, _) = parallel_hash_join_spill(
            &Array::from(keys),
            &Array::from(payloads),
            &probes,
            false,
            ParallelOpts::new(workers, 64).with_budget(&budget),
        ).unwrap();
        prop_assert_eq!((out.indices, out.payloads), expected);
        prop_assert_eq!(budget.used(), 0);
    }
}
