//! Property tests of the hash-join layer: duplicate-key inner-join
//! cardinality against a nested-loop oracle (integer *and* string keys,
//! single joins and the mixed-key chain in every order),
//! Bloom/plain probe equivalence at adaptively-sized bitmasks,
//! parallel-vs-sequential bit-identity of the partitioned build + shared
//! probe on both key types, and structured key families through the
//! engine's hash tables against `std`-`HashMap` oracles.

use std::collections::HashMap;

use adaptvm::parallel::MemoryBudget;
use adaptvm::relational::agg::aggregate_rows;
use adaptvm::relational::join::{
    probe_chunk_with_order_mixed, AdaptiveJoinChain, ChainResult, HashTable, JoinSide, KeyColumn,
    StrHashTable,
};
use adaptvm::relational::parallel::{parallel_hash_join, ParallelJoinChain, ParallelOpts};
use adaptvm::relational::spill::parallel_hash_aggregate_spill;
use adaptvm::storage::{Array, Field, ScalarType, Schema, Table};
use proptest::prelude::*;

/// The nested-loop inner-join oracle: for every probe row, one output row
/// per matching build row, in (probe-row, build-row) order.
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

/// The chain oracle: a row survives when every side has at least one
/// nested-loop match for it, and its payload sum adds every matching
/// payload of every side. Survivors in row order.
fn nested_loop_chain(
    sides: &[(Vec<i64>, Vec<i64>, Vec<i64>)],
    rows: std::ops::Range<usize>,
) -> ChainResult {
    let mut indices = Vec::new();
    let mut payload_sum = Vec::new();
    for i in rows {
        let mut sum = 0;
        let mut alive = true;
        for (build, payloads, probe) in sides {
            let (idx, pay) = nested_loop_join(build, payloads, &probe[i..=i]);
            alive &= !idx.is_empty();
            sum += pay.iter().sum::<i64>();
        }
        if alive {
            indices.push(i as u32);
            payload_sum.push(sum);
        }
    }
    ChainResult {
        indices,
        payload_sum,
    }
}

/// Every order of three joins.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-lookup-per-join chain step (`probe_chunk_with_order_mixed`)
    /// equals the nested-loop chain oracle for every probe order, with
    /// and without Bloom filters: two i64 sides and one Utf8 side with
    /// duplicate build keys, probe keys that miss, and — in three of
    /// four cases — one side emptied.
    #[test]
    fn one_pass_chain_matches_nested_loop_in_every_order(
        int_build in prop::collection::vec((0i64..10, -500i64..500), 0..60),
        str_build in prop::collection::vec((0i64..10, -500i64..500), 0..60),
        tail_build in prop::collection::vec((0i64..10, -500i64..500), 0..60),
        probe in prop::collection::vec((-2i64..12, -2i64..12, -2i64..12), 0..150),
        start in 0usize..40,
        empty_side in 0usize..4,
    ) {
        let mut builds = [int_build, str_build, tail_build];
        if empty_side < 3 {
            builds[empty_side].clear();
        }
        let split = |b: &[(i64, i64)]| -> (Vec<i64>, Vec<i64>) { b.iter().copied().unzip() };
        let name = |id: &i64| format!("brand-{id}");
        let probe_cols = [
            probe.iter().map(|p| p.0).collect::<Vec<i64>>(),
            probe.iter().map(|p| p.1).collect(),
            probe.iter().map(|p| p.2).collect(),
        ];
        let oracle_sides: Vec<(Vec<i64>, Vec<i64>, Vec<i64>)> = builds
            .iter()
            .zip(&probe_cols)
            .map(|(b, p)| {
                let (k, v) = split(b);
                (k, v, p.clone())
            })
            .collect();
        let rows = start.min(probe.len())..probe.len();
        let expected = nested_loop_chain(&oracle_sides, rows.clone());
        let str_probe: Vec<String> = probe_cols[1].iter().map(name).collect();
        let keys = [
            KeyColumn::Int(&probe_cols[0]),
            KeyColumn::Str(&str_probe),
            KeyColumn::Int(&probe_cols[2]),
        ];
        for bloom in [false, true] {
            let bloomed = |t: HashTable| if bloom { t.with_bloom() } else { t };
            let (k0, v0) = split(&builds[0]);
            let (k1, v1) = split(&builds[1]);
            let (k2, v2) = split(&builds[2]);
            let str_keys: Vec<String> = k1.iter().map(name).collect();
            let str_side = StrHashTable::from_rows(&str_keys, &v1);
            let sides = [
                JoinSide::Int(bloomed(HashTable::from_rows(&k0, &v0))),
                JoinSide::Str(if bloom { str_side.with_bloom() } else { str_side }),
                JoinSide::Int(bloomed(HashTable::from_rows(&k2, &v2))),
            ];
            for order in ORDERS {
                let (result, observations) =
                    probe_chunk_with_order_mixed(&sides, &order, &keys, rows.clone());
                prop_assert_eq!(&result, &expected, "order={:?} bloom={}", order, bloom);
                // One observation per join, in probe order, each join
                // seeing exactly the rows the previous one passed.
                let mut flowing = rows.len();
                for (o, &j) in observations.iter().zip(&order) {
                    prop_assert_eq!(o.join, j);
                    prop_assert_eq!(o.input, flowing);
                    flowing = o.output;
                }
                prop_assert_eq!(flowing, expected.indices.len());
            }
        }
    }

    /// Duplicate build keys emit one output row per build match, in
    /// build-row order — exactly the nested-loop join's cardinality and
    /// payloads.
    #[test]
    fn duplicate_key_join_matches_nested_loop_oracle(
        build_keys in prop::collection::vec(0i64..12, 0..120),
        payload_seed in prop::collection::vec(-1000i64..1000, 0..120),
        probe_keys in prop::collection::vec(-2i64..16, 0..200),
    ) {
        // Equal-length build columns (the generators draw independently).
        let n = build_keys.len().min(payload_seed.len());
        let build_keys = &build_keys[..n];
        let payloads = &payload_seed[..n];
        let oracle = nested_loop_join(build_keys, payloads, &probe_keys);
        let table = HashTable::from_rows(build_keys, payloads);
        prop_assert_eq!(table.len(), n);
        prop_assert_eq!(table.probe(&probe_keys), oracle.clone());
        // The Bloom pre-filter never changes the join result.
        let bloomed = HashTable::from_rows(build_keys, payloads).with_bloom();
        prop_assert_eq!(bloomed.probe(&probe_keys), oracle);
    }

    /// Bloom-filtered and plain probes are equivalent at every build
    /// cardinality (the mask is sized from the build side, so this holds
    /// from tiny to large builds).
    #[test]
    fn bloom_probe_equivalent_to_plain(
        distinct in 1i64..3000,
        stride in 1i64..7,
        probe_span in 100i64..4000,
    ) {
        let keys: Vec<i64> = (0..distinct).map(|i| i * stride).collect();
        let pays: Vec<i64> = (0..distinct).collect();
        let plain = HashTable::from_rows(&keys, &pays);
        let bloomed = HashTable::from_rows(&keys, &pays).with_bloom();
        prop_assert!(bloomed.bloom_bits() >= 64);
        let probes: Vec<i64> = (-10..probe_span).collect();
        prop_assert_eq!(plain.probe(&probes), bloomed.probe(&probes));
        for &k in &keys {
            prop_assert!(bloomed.contains(k), "bloom dropped build key {}", k);
        }
    }

    /// The morsel-parallel partitioned build + shared probe is
    /// bit-identical to the sequential build + probe for 1/2/4/8 workers,
    /// whatever the data and morsel size.
    #[test]
    fn parallel_join_bit_identical_to_sequential(
        build_keys in prop::collection::vec(0i64..200, 1..600),
        probe_keys in prop::collection::vec(-50i64..400, 0..900),
        morsel_rows in 1usize..300,
    ) {
        let payloads: Vec<i64> = (0..build_keys.len() as i64).collect();
        let bk = Array::from(build_keys.clone());
        let bp = Array::from(payloads.clone());
        let sequential = HashTable::build(&bk, &bp).unwrap();
        let expected = sequential.probe(&probe_keys);
        for workers in [1usize, 2, 4, 8] {
            let (table, out) = parallel_hash_join(
                &bk,
                &bp,
                &probe_keys,
                false,
                ParallelOpts {
                    workers,
                    morsel_rows,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            prop_assert_eq!(table.len(), sequential.len());
            prop_assert_eq!(
                (out.indices, out.payloads),
                expected.clone(),
                "workers={} morsel_rows={}",
                workers,
                morsel_rows
            );
        }
    }

    /// String-key joins: the arena-backed [`StrHashTable`] reproduces the
    /// nested-loop oracle exactly — one output row per build match, in
    /// build-row order — with and without the Bloom pre-filter. Key ids
    /// are drawn from a small domain so duplicates are common, and every
    /// id maps to a distinct string.
    #[test]
    fn str_join_matches_nested_loop_oracle(
        build_ids in prop::collection::vec(0i64..12, 0..120),
        payload_seed in prop::collection::vec(-1000i64..1000, 0..120),
        probe_ids in prop::collection::vec(-2i64..16, 0..200),
    ) {
        let n = build_ids.len().min(payload_seed.len());
        let build_keys: Vec<String> = build_ids[..n].iter().map(|v| format!("k{v}")).collect();
        let payloads = &payload_seed[..n];
        let probe_keys: Vec<String> = probe_ids.iter().map(|v| format!("k{v}")).collect();
        // Oracle over the ids (string mapping is injective).
        let oracle = nested_loop_join(&build_ids[..n], payloads, &probe_ids);
        let table = StrHashTable::from_rows(&build_keys, payloads);
        prop_assert_eq!(table.len(), n);
        prop_assert_eq!(table.probe(&probe_keys), oracle.clone());
        let bloomed = StrHashTable::from_rows(&build_keys, payloads).with_bloom();
        prop_assert_eq!(bloomed.probe(&probe_keys), oracle);
    }

    /// The morsel-parallel string join (partitioned build over a Utf8
    /// column, shared arena-backed probe table) is bit-identical to the
    /// sequential build + probe for 1/2/4/8 workers.
    #[test]
    fn parallel_str_join_bit_identical_to_sequential(
        build_ids in prop::collection::vec(0i64..150, 1..500),
        probe_ids in prop::collection::vec(-30i64..300, 0..700),
        morsel_rows in 1usize..250,
        bloom_sel in 0usize..2,
    ) {
        let bloom = bloom_sel == 1;
        let build_keys: Vec<String> = build_ids.iter().map(|v| format!("name-{v}")).collect();
        let payloads: Vec<i64> = (0..build_ids.len() as i64).collect();
        let probe_keys: Vec<String> = probe_ids.iter().map(|v| format!("name-{v}")).collect();
        let bk = Array::from(build_keys.clone());
        let bp = Array::from(payloads.clone());
        let sequential = StrHashTable::build(&bk, &bp).unwrap();
        let expected = sequential.probe(&probe_keys);
        for workers in [1usize, 2, 4, 8] {
            let (table, out) = parallel_hash_join(
                &bk,
                &bp,
                &probe_keys,
                bloom,
                ParallelOpts {
                    workers,
                    morsel_rows,
                    ..ParallelOpts::default()
                },
            )
            .unwrap();
            prop_assert_eq!(table.len(), sequential.len());
            prop_assert_eq!(table.distinct_keys(), sequential.distinct_keys());
            prop_assert_eq!(
                (out.indices, out.payloads),
                expected.clone(),
                "workers={} morsel_rows={} bloom={}",
                workers,
                morsel_rows,
                bloom
            );
        }
    }

    /// A **mixed-key** parallel chain (an i64 side and a Utf8 side) is
    /// bit-identical to the sequential mixed chain over the same batches
    /// for 1/2/4/8 workers. (The *learned order* may legitimately differ
    /// between executors — the controller also weighs wall-clock timings
    /// — but survivors of a conjunctive chain are order-independent.)
    #[test]
    fn parallel_mixed_chain_bit_identical_to_sequential(
        int_ids in prop::collection::vec(0i64..2_000, 50..400),
        morsel_rows in 1usize..150,
    ) {
        let n = int_ids.len();
        let str_probe: Vec<String> = (0..n as i64).map(|i| format!("seg-{}", i % 40)).collect();
        let mk_sides = || {
            let int_build: Vec<i64> = (0..1_500).collect();
            let int_pays: Vec<i64> = (0..1_500).map(|k| k + 1).collect();
            let str_build: Vec<String> = (0..10).map(|i| format!("seg-{i}")).collect();
            let str_pays: Vec<i64> = (0..10).map(|i| i * 5).collect();
            vec![
                JoinSide::Int(HashTable::from_rows(&int_build, &int_pays)),
                JoinSide::Str(StrHashTable::from_rows(&str_build, &str_pays)),
            ]
        };
        let mut seq = AdaptiveJoinChain::new_mixed(mk_sides(), 2);
        let columns = [KeyColumn::Int(&int_ids), KeyColumn::Str(&str_probe)];
        let seq_results: Vec<_> = (0..5).map(|_| seq.probe_chunk_mixed(&columns)).collect();
        for workers in [1usize, 2, 4, 8] {
            let mut par = ParallelJoinChain::new_mixed(mk_sides(), 2);
            for (batch, expected) in seq_results.iter().enumerate() {
                let r = par
                    .probe_batch_mixed(
                        &columns,
                        ParallelOpts {
                            workers,
                            morsel_rows,
                            ..ParallelOpts::default()
                        },
                    )
                    .unwrap();
                prop_assert_eq!(&r.indices, &expected.indices, "workers={} batch={}", workers, batch);
                prop_assert_eq!(&r.payload_sum, &expected.payload_sum);
            }
            prop_assert_eq!(par.order().len(), 2, "workers={}", workers);
        }
    }

    /// Chain results (survivors and multimap payload sums) agree with a
    /// direct per-row evaluation, independent of the adaptive order.
    #[test]
    fn chain_survivors_match_direct_evaluation(
        keys0 in prop::collection::vec(0i64..40, 1..250),
        domain1 in 1i64..60,
    ) {
        let n = keys0.len();
        let keys1: Vec<i64> = (0..n as i64).map(|i| i % domain1).collect();
        let t0 = HashTable::from_rows(
            &(0..20).collect::<Vec<i64>>(),
            &(0..20).map(|k| k * 2).collect::<Vec<i64>>(),
        );
        let t1 = HashTable::from_rows(
            &(0..30).collect::<Vec<i64>>(),
            &(0..30).map(|k| k + 7).collect::<Vec<i64>>(),
        );
        let expect_idx: Vec<u32> = (0..n as u32)
            .filter(|&i| keys0[i as usize] < 20 && keys1[i as usize] < 30)
            .collect();
        let expect_pay: Vec<i64> = expect_idx
            .iter()
            .map(|&i| keys0[i as usize] * 2 + (keys1[i as usize] + 7))
            .collect();
        let mut chain = AdaptiveJoinChain::new(vec![t0, t1], 2);
        for _ in 0..4 {
            let r = chain.probe_chunk(&[keys0.clone(), keys1.clone()]);
            prop_assert_eq!(&r.indices, &expect_idx);
            prop_assert_eq!(&r.payload_sum, &expect_pay);
        }
    }
}

/// Key families that put every bit of difference above a hash's low
/// bits (`k · 2^32`) or sit at the `i64` extremes, through the engine's
/// hash tables: the partitioned join's probe and the spilling aggregate
/// (resident and spilled) equal their `std`-`HashMap` oracles at 1 and 4
/// workers.
#[test]
fn structured_key_families_match_std_hashmap_oracles() {
    let families: [(&str, Vec<i64>); 2] = [
        ("k*2^32", (0..2048i64).map(|k| k << 32).collect()),
        (
            "extremes",
            (0..1024i64)
                .flat_map(|k| [i64::MIN + k, i64::MAX - k])
                .collect(),
        ),
    ];
    for (family, keys) in families {
        // Every key twice on the build side; every key plus one miss per
        // key on the probe side.
        let build: Vec<i64> = keys.iter().chain(&keys).copied().collect();
        let payloads: Vec<i64> = (0..build.len() as i64).collect();
        let probe: Vec<i64> = keys
            .iter()
            .flat_map(|&k| [k, k.wrapping_add(1 << 20)])
            .collect();
        let mut by_key: HashMap<i64, Vec<i64>> = HashMap::new();
        for (&k, &p) in build.iter().zip(&payloads) {
            by_key.entry(k).or_default().push(p);
        }
        let mut join_oracle = (Vec::new(), Vec::new());
        for (i, k) in probe.iter().enumerate() {
            for &p in by_key.get(k).map_or(&[][..], Vec::as_slice) {
                join_oracle.0.push(i as u32);
                join_oracle.1.push(p);
            }
        }
        assert_eq!(join_oracle.0.len(), build.len(), "{family}: oracle sanity");

        // Three rows per group, values that make every group distinct.
        let group_keys: Vec<i64> = keys.iter().cycle().take(3 * keys.len()).copied().collect();
        let values: Vec<f64> = (0..group_keys.len()).map(|i| i as f64 * 0.25).collect();
        let agg_oracle = aggregate_rows(&group_keys, &values);
        let table = Table::new(
            Schema::new(vec![
                Field::new("group", ScalarType::I64),
                Field::new("value", ScalarType::F64),
            ]),
            vec![Array::from(group_keys), Array::from(values)],
        )
        .unwrap();

        for workers in [1usize, 4] {
            let opts = ParallelOpts::new(workers, 512);
            let (_, out) = parallel_hash_join(
                &Array::from(build.clone()),
                &Array::from(payloads.clone()),
                &probe,
                false,
                opts,
            )
            .unwrap();
            assert_eq!(
                (out.indices, out.payloads),
                join_oracle,
                "{family}: join, workers={workers}"
            );
            let (groups, spill) =
                parallel_hash_aggregate_spill(&table, "group", "value", opts).unwrap();
            assert!(!spill.spilled());
            assert_eq!(
                groups, agg_oracle,
                "{family}: resident aggregate, workers={workers}"
            );
            let budget = MemoryBudget::bytes(64 * 1024);
            let (groups, spill) =
                parallel_hash_aggregate_spill(&table, "group", "value", opts.with_budget(&budget))
                    .unwrap();
            assert!(spill.spilled(), "{family}: the budget forces a spill");
            assert_eq!(
                groups, agg_oracle,
                "{family}: spilled aggregate, workers={workers}"
            );
            assert_eq!(budget.used(), 0);
        }
    }
}
