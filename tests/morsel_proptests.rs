//! Property-based tests of the morsel layer: every plan — whatever the
//! table size, chunk size, morsel size, or elasticity history — covers
//! every row exactly once, with no gaps and no overlaps.

use adaptvm::parallel::scheduler::{ElasticityConfig, MorselElasticity, ProfileWindow};
use adaptvm::parallel::{MorselPlan, Runner, Scheduler};
use proptest::prelude::*;

/// Assert the plan tiles `[0, rows)` exactly: contiguous, ordered,
/// dense-indexed, no gaps, no overlaps, nothing past the end.
fn assert_exact_cover(plan: &MorselPlan, rows: usize) {
    let mut next_start = 0usize;
    for (i, m) in plan.morsels().iter().enumerate() {
        assert_eq!(m.index, i, "dense morsel indices");
        assert_eq!(m.start, next_start, "no gap/overlap at morsel {i}");
        assert!(m.len > 0, "empty morsel {i}");
        next_start = m.end();
    }
    assert_eq!(next_start, rows, "plan must end exactly at the table end");
    let covered: usize = plan.morsels().iter().map(|m| m.len).sum();
    assert_eq!(covered, rows, "every row exactly once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary `(rows, morsel_rows)`: exact coverage.
    #[test]
    fn plan_covers_every_row_exactly_once(
        rows in 0usize..50_000,
        morsel_rows in 0usize..5_000,
    ) {
        let plan = MorselPlan::new(rows, morsel_rows);
        assert_exact_cover(&plan, rows);
    }

    /// Chunk-aligned plans: exact coverage plus alignment of every morsel
    /// but the last.
    #[test]
    fn chunk_aligned_plan_covers_and_aligns(
        rows in 0usize..50_000,
        morsel_rows in 0usize..5_000,
        chunk_rows in 1usize..3_000,
    ) {
        let plan = MorselPlan::chunk_aligned(rows, morsel_rows, chunk_rows);
        assert_exact_cover(&plan, rows);
        prop_assert_eq!(plan.morsel_rows() % chunk_rows, 0, "aligned size");
        if plan.len() > 1 {
            for m in &plan.morsels()[..plan.len() - 1] {
                prop_assert_eq!(m.len % chunk_rows, 0, "all but the last aligned");
            }
        }
    }

    /// The elastic resizing path: drive a `MorselElasticity` controller
    /// through an arbitrary window history and re-plan after every step.
    /// Whatever size the controller lands on, it stays inside its bounds,
    /// stays aligned, and the re-sliced plan still covers exactly.
    #[test]
    fn elastic_resizing_never_breaks_coverage(
        rows in 1usize..60_000,
        start_rows in 1usize..20_000,
        events in prop::collection::vec((0u64..40, 0u64..200, 0u64..60), 1..25),
    ) {
        let config = ElasticityConfig::default();
        let elasticity = MorselElasticity::new(config, start_rows);
        for (steals, trace_executions, fallbacks) in events {
            let window = ProfileWindow {
                morsels: 32,
                steals,
                trace_executions,
                fallbacks,
            };
            let new_rows = elasticity.record(&window);
            prop_assert_eq!(new_rows, elasticity.rows());
            prop_assert!(new_rows >= config.min_rows, "below floor: {}", new_rows);
            prop_assert!(new_rows <= config.max_rows, "above ceiling: {}", new_rows);
            prop_assert_eq!(new_rows % config.align_rows, 0, "unaligned: {}", new_rows);
            let plan = MorselPlan::new(rows, new_rows);
            assert_exact_cover(&plan, rows);
            let aligned = MorselPlan::chunk_aligned(rows, new_rows, config.align_rows);
            assert_exact_cover(&aligned, rows);
        }
    }

    /// Scheduler execution over arbitrary plans: every row is processed
    /// exactly once (sum of per-morsel row counts, and a per-row touch
    /// count), matching the scoped-pool contract.
    #[test]
    fn scheduler_processes_every_row_exactly_once(
        rows in 1usize..20_000,
        morsel_rows in 1usize..3_000,
        workers in 1usize..6,
    ) {
        let scheduler = Scheduler::new(workers);
        let plan = MorselPlan::new(rows, morsel_rows);
        let (per_morsel, stats) = Runner::Scheduler(&scheduler)
            .run(&plan, None, |_, m| Ok::<(usize, usize), ()>((m.start, m.len)))
            .unwrap();
        prop_assert_eq!(per_morsel.len(), plan.len());
        let mut touched = vec![0u8; rows];
        for (start, len) in per_morsel {
            for t in &mut touched[start..start + len] {
                *t += 1;
            }
        }
        prop_assert!(touched.iter().all(|&c| c == 1), "row touched != once");
        prop_assert_eq!(stats.executed.iter().sum::<u64>(), plan.len() as u64);
    }
}
