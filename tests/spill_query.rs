//! Out-of-core aggregation and external sort correctness: every operator
//! on the `SpillableOp` protocol must be **bit-identical** to its
//! sequential oracle whatever the budget — across worker counts and
//! morsel sizes, with budgets forcing zero, some, and all partitions to
//! spill, recursion at least two levels deep, zero budgets, mid-flight
//! cancellation, and a per-tenant budget governing the whole query shape
//! — and budgets must balance to zero afterwards.

use std::sync::Arc;

use adaptvm::kernels::KernelError;
use adaptvm::parallel::{
    CancelToken, MemoryBudget, Priority, QueryService, ServeConfig, SpillStats, TenantQuota,
    TenantRegistry,
};
use adaptvm::relational::agg::{aggregate_rows, GroupState};
use adaptvm::relational::parallel::ParallelOpts;
use adaptvm::relational::sort::{external_sort, external_top_k, sort_rows, SORT_ROW_BYTES};
use adaptvm::relational::spill::{parallel_hash_aggregate_spill, AGG_ROW_BYTES};
use adaptvm::storage::{gen, Array, Field, ScalarType, Schema, Table};
use proptest::prelude::*;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn table_of(keys: Vec<i64>, values: Vec<f64>) -> Table {
    Table::new(
        Schema::new(vec![
            Field::new("group", ScalarType::I64),
            Field::new("value", ScalarType::F64),
        ]),
        vec![Array::from(keys), Array::from(values)],
    )
    .unwrap()
}

fn measurement_oracle(table: &Table) -> Vec<(i64, GroupState)> {
    let keys = table.column_by_name("group").unwrap().to_i64_vec().unwrap();
    let values = table
        .column_by_name("value")
        .unwrap()
        .as_f64()
        .unwrap()
        .to_vec();
    aggregate_rows(&keys, &values)
}

#[test]
fn spilled_aggregation_bit_identical_across_workers_and_budgets() {
    // 30k rows over 500 groups of real f64 values: bit-identity means the
    // sums' accumulation order must survive spilling.
    let table = gen::measurements(30_000, 500, 11);
    let oracle = measurement_oracle(&table);

    let footprint = 30_000 * AGG_ROW_BYTES;
    for (label, limit) in [
        ("fits", usize::MAX),
        ("half", footprint / 2),
        ("tiny", 1_000),
        ("zero", 0),
    ] {
        for workers in WORKERS {
            let budget = MemoryBudget::bytes(limit);
            let opts = ParallelOpts::new(workers, 4_096).with_budget(&budget);
            let (groups, spill) =
                parallel_hash_aggregate_spill(&table, "group", "value", opts).unwrap();
            assert_eq!(groups, oracle, "{label} workers={workers}");
            assert_eq!(budget.used(), 0, "{label}: charges must balance");
            match label {
                "fits" => {
                    assert!(!spill.spilled(), "workers={workers}: {spill:?}");
                    assert_eq!(spill.bytes_written, 0);
                }
                "half" => {
                    assert!(spill.spilled(), "half budget must spill something");
                    assert!(
                        spill.partitions_spilled < 16,
                        "half budget must keep some partitions resident: {spill:?}"
                    );
                }
                _ => {
                    assert!(
                        spill.partitions_spilled >= 16,
                        "{label} budget must spill every top-level partition: {spill:?}"
                    );
                    assert!(spill.bytes_read >= spill.bytes_written / 2);
                }
            }
        }
    }
}

#[test]
fn spilled_aggregation_recurses_at_least_two_levels() {
    // 40k distinct keys against a 600-byte budget: a top-level partition
    // holds ~2.5k rows (~140kB), a level-1 sub-partition ~156 rows
    // (~8.7kB) — both above budget, so settling must re-partition at
    // least twice before level-2 sub-partitions (~10 rows) fit.
    let table = gen::measurements(40_000, 40_000, 3);
    let oracle = measurement_oracle(&table);
    let budget = MemoryBudget::bytes(600);
    let (groups, spill) = parallel_hash_aggregate_spill(
        &table,
        "group",
        "value",
        ParallelOpts::new(4, 8_192).with_budget(&budget),
    )
    .unwrap();
    assert_eq!(groups, oracle);
    assert!(
        spill.max_recursion_depth >= 2,
        "expected ≥2 recursion levels: {spill:?}"
    );
    assert!(spill.bytes_read > 0 && spill.bytes_written > 0);
    assert_eq!(budget.used(), 0);
}

#[test]
fn zero_budget_single_group_forces_build() {
    // Every row shares one key (one hash): the partition can never be
    // split, so a zero budget must fall back to a forced build — and
    // still fold the group's rows in exact input order.
    let values: Vec<f64> = (0..500).map(|i| i as f64 * 0.25 - 30.0).collect();
    let table = table_of(vec![7i64; 500], values.clone());
    let budget = MemoryBudget::bytes(0);
    let (groups, spill) = parallel_hash_aggregate_spill(
        &table,
        "group",
        "value",
        ParallelOpts::new(2, 64).with_budget(&budget),
    )
    .unwrap();
    assert_eq!(groups, aggregate_rows(&vec![7i64; 500], &values));
    assert!(spill.forced_builds >= 1, "{spill:?}");
    assert_eq!(budget.used(), 0);
}

/// Every [`SpillStats`] field, exactly, for one fixed table at three
/// budgets: unlimited, half the footprint, and 0 B. The keys mix 97
/// groups with a 300-row run of one key, so at 0 B recursion bottoms out
/// in forced builds. The numbers pin the charge formula (56 B a row per
/// partition), the frame bytes and every recursion decision.
#[test]
fn aggregate_spill_stats_are_pinned() {
    let keys: Vec<i64> = (0..2_000)
        .map(|i| (i * 7) % 97)
        .chain(std::iter::repeat_n(1_000, 300))
        .collect();
    let values: Vec<f64> = (0..keys.len()).map(|i| i as f64 * 0.5 - 300.25).collect();
    let table = table_of(keys.clone(), values.clone());
    let oracle = aggregate_rows(&keys, &values);
    let stats = |partitions, runs, written, read, depth, forced| SpillStats {
        partitions_spilled: partitions,
        probe_partitions_spilled: 0,
        runs_written: runs,
        bytes_written: written,
        bytes_read: read,
        max_recursion_depth: depth,
        forced_builds: forced,
    };
    let footprint = keys.len() * AGG_ROW_BYTES;
    for (limit, pinned) in [
        (usize::MAX, SpillStats::default()),
        (footprint / 2, stats(10, 10, 19_544, 19_544, 0, 0)),
        (0, stats(213, 213, 116_372, 116_372, 3, 98)),
    ] {
        let budget = MemoryBudget::bytes(limit);
        let opts = ParallelOpts::new(2, 128).with_budget(&budget);
        let (groups, spill) =
            parallel_hash_aggregate_spill(&table, "group", "value", opts).unwrap();
        assert_eq!(groups, oracle, "limit={limit}");
        assert_eq!(spill, pinned, "limit={limit}");
        assert_eq!(budget.used(), 0);
    }
}

#[test]
fn spilled_sort_bit_identical_across_workers_and_budgets() {
    // Duplicate-heavy keys so stability is load-bearing: equal keys must
    // keep their input order through run generation and the k-way merge.
    let keys: Vec<i64> = (0..30_000).map(|i| (i * 7) % 2_000).collect();
    let payloads: Vec<i64> = (0..30_000).collect();
    let oracle = sort_rows(&keys, &payloads);

    let footprint = 30_000 * SORT_ROW_BYTES;
    for (label, limit) in [
        ("fits", usize::MAX),
        ("half", footprint / 2),
        ("tiny", 1_000),
        ("zero", 0),
    ] {
        for workers in WORKERS {
            let budget = MemoryBudget::bytes(limit);
            let opts = ParallelOpts::new(workers, 4_096).with_budget(&budget);
            let (got, spill) = external_sort(&keys, &payloads, opts).unwrap();
            assert_eq!(got, oracle, "{label} workers={workers}");
            assert_eq!(budget.used(), 0, "{label}: charges must balance");
            match label {
                "fits" => assert!(!spill.spilled(), "workers={workers}: {spill:?}"),
                "half" => assert!(spill.spilled(), "half budget must spill something"),
                _ => {
                    // Every sorted run spills (morsel_rows = 4096 → 8 runs).
                    assert!(spill.partitions_spilled >= 4, "{label}: {spill:?}");
                    assert!(spill.bytes_written > 0 && spill.bytes_read > 0);
                }
            }
        }
    }
}

#[test]
fn spilled_top_k_is_a_prefix_of_the_oracle() {
    let keys: Vec<i64> = (0..20_000).map(|i| (i * 131) % 3_000).collect();
    let payloads: Vec<i64> = (0..20_000).collect();
    let oracle = sort_rows(&keys, &payloads);
    let budget = MemoryBudget::bytes(1_000);
    let ((tk, tp), spill) = external_top_k(
        &keys,
        &payloads,
        250,
        ParallelOpts::new(4, 2_048).with_budget(&budget),
    )
    .unwrap();
    assert!(spill.spilled(), "{spill:?}");
    assert_eq!(tk.as_slice(), &oracle.0[..250]);
    assert_eq!(tp.as_slice(), &oracle.1[..250]);
    assert_eq!(budget.used(), 0);
}

#[test]
fn pre_cancelled_spill_agg_and_sort_fail_typed_and_balanced() {
    let table = gen::measurements(5_000, 100, 1);
    let keys: Vec<i64> = (0..5_000).collect();
    let token = CancelToken::new();
    token.cancel();
    let budget = MemoryBudget::bytes(1_000);
    let err = parallel_hash_aggregate_spill(
        &table,
        "group",
        "value",
        ParallelOpts::new(2, 512)
            .with_budget(&budget)
            .with_cancel(&token),
    )
    .unwrap_err();
    assert_eq!(err, KernelError::Cancelled);
    assert_eq!(budget.used(), 0, "aborted aggregation must not leak");
    let err = external_sort(
        &keys,
        &keys,
        ParallelOpts::new(2, 512)
            .with_budget(&budget)
            .with_cancel(&token),
    )
    .unwrap_err();
    assert_eq!(err, KernelError::Cancelled);
    assert_eq!(budget.used(), 0, "aborted sort must not leak");
}

#[test]
fn mid_flight_cancel_is_typed_or_complete() {
    // Cancellation racing a spilling aggregation must either complete
    // exactly or fail typed — never panic, never leak budget.
    let table = gen::measurements(60_000, 1_000, 5);
    let oracle = measurement_oracle(&table);
    let token = CancelToken::new();
    let budget = MemoryBudget::bytes(60_000 * AGG_ROW_BYTES / 2);
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            token.cancel();
        })
    };
    let result = parallel_hash_aggregate_spill(
        &table,
        "group",
        "value",
        ParallelOpts::new(4, 4_096)
            .with_budget(&budget)
            .with_cancel(&token),
    );
    canceller.join().unwrap();
    match result {
        Ok((groups, _)) => assert_eq!(groups, oracle),
        Err(e) => assert_eq!(e, KernelError::Cancelled),
    }
    assert_eq!(budget.used(), 0);
}

#[test]
fn tenant_budget_governs_group_by_and_sort() {
    // The acceptance bar of the serve layer: a tenant's registered
    // MemoryBudget must bound *any* query shape — here a group-by and a
    // sort, with no explicit budget passed — while staying exact.
    let shared = Arc::new(MemoryBudget::bytes(8 * 1024));
    let mut reg = TenantRegistry::new();
    let tenant = reg.register("etl", TenantQuota::new().with_budget(shared.clone()));
    let service = QueryService::with_tenants(ServeConfig::default().with_workers(2), reg);

    let table = gen::measurements(20_000, 200, 9);
    let oracle = measurement_oracle(&table);
    let opts = ParallelOpts::served(&service, Priority::Normal).with_tenant(tenant);
    let (groups, spill) = parallel_hash_aggregate_spill(&table, "group", "value", opts).unwrap();
    assert_eq!(groups, oracle);
    assert!(
        spill.spilled(),
        "an 8kB tenant budget must force the group-by out of core: {spill:?}"
    );

    let keys: Vec<i64> = (0..20_000).map(|i| (i * 13) % 1_500).collect();
    let payloads: Vec<i64> = (0..20_000).collect();
    let (got, spill) = external_sort(&keys, &payloads, opts).unwrap();
    assert_eq!(got, sort_rows(&keys, &payloads));
    assert!(
        spill.spilled(),
        "the same tenant budget must force the sort out of core: {spill:?}"
    );
    assert_eq!(shared.used(), 0, "tenant budget balances after both");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the data, budget (including zero: everything spills),
    /// morsel size, and worker count: the spilled aggregation equals the
    /// sequential row-order fold bit for bit and the budget balances.
    #[test]
    fn spilled_aggregation_matches_row_order_oracle(
        keys in prop::collection::vec(-20i64..20, 0..300),
        budget_limit in 0usize..20_000,
        morsel_rows in 1usize..200,
        workers in 1usize..5,
    ) {
        let values: Vec<f64> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| i as f64 * 0.75 - k as f64 * 1.5)
            .collect();
        let table = table_of(keys.clone(), values.clone());
        let budget = MemoryBudget::bytes(budget_limit);
        let (groups, _) = parallel_hash_aggregate_spill(
            &table,
            "group",
            "value",
            ParallelOpts::new(workers, morsel_rows).with_budget(&budget),
        ).unwrap();
        prop_assert_eq!(groups, aggregate_rows(&keys, &values));
        prop_assert_eq!(budget.used(), 0);
    }

    /// The external sort equals the stable in-memory sort, and top-k is
    /// always a prefix of it, across budgets, morsel sizes, and workers.
    #[test]
    fn spilled_sort_matches_stable_oracle(
        keys in prop::collection::vec(-50i64..50, 0..400),
        budget_limit in 0usize..10_000,
        morsel_rows in 1usize..150,
        workers in 1usize..5,
        k in 0usize..64,
    ) {
        let payloads: Vec<i64> = (0..keys.len() as i64).collect();
        let oracle = sort_rows(&keys, &payloads);
        let budget = MemoryBudget::bytes(budget_limit);
        let opts = ParallelOpts::new(workers, morsel_rows).with_budget(&budget);
        let (full, _) = external_sort(&keys, &payloads, opts).unwrap();
        prop_assert_eq!(&full, &oracle);
        let ((tk, tp), _) = external_top_k(&keys, &payloads, k, opts).unwrap();
        let cut = k.min(keys.len());
        prop_assert_eq!(tk.as_slice(), &full.0[..cut]);
        prop_assert_eq!(tp.as_slice(), &full.1[..cut]);
        prop_assert_eq!(budget.used(), 0);
    }
}
