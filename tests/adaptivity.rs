//! Integration tests for the adaptive behaviours (experiments B2–B6, B9).

use std::collections::HashMap;

use adaptvm::dsl::programs;
use adaptvm::hetsim::exec::run_trace_on;
use adaptvm::hetsim::placement::PlacementPolicy;
use adaptvm::jit::compiler::compile;
use adaptvm::jit::pipeline::whole_pipeline_fragment;
use adaptvm::prelude::*;
use adaptvm::relational::compressed_exec::{sum_where_gt, ScanStrategy};
use adaptvm::relational::join::{AdaptiveJoinChain, HashTable};
use adaptvm::relational::tpch;
use adaptvm::storage::block::{Block, BlockColumn};
use adaptvm::storage::compress::Scheme;
use adaptvm::storage::gen;

/// B1/B2 — the micro-adaptive bandit run through the VM on a selective
/// program still computes the right answer, and explores flavors.
#[test]
fn bandit_policy_through_vm() {
    let n = 64 * 1024;
    let data: Vec<i64> = (0..n as i64).map(|i| (i % 100) - 50).collect();
    let program = programs::filter_sum(0, (n - 8192) as i64);
    let mut policy = BanditPolicy::epsilon_greedy(0.2, 3);
    let config = VmConfig {
        strategy: Strategy::Interpret, // keep filters in the interpreter
        ..VmConfig::default()
    };
    let vm = Vm::new(config);
    let buffers = Buffers::new().with_input("xs", Array::from(data.clone()));
    let (_, report) = vm.run_with_policy(&program, buffers, &mut policy).unwrap();
    assert!(report.iterations > 10);
    // One filter site observed with plausible selectivity (~0.49).
    let classes = report.profile.sel_classes();
    assert_eq!(classes.len(), 1);
}

/// B4 — adaptive compressed scan: correct under scheme changes, falls
/// back exactly once per new scheme.
#[test]
fn adaptive_compressed_scan() {
    let mut col = BlockColumn::new();
    let mut expected = 0i64;
    for b in 0..40usize {
        let (data, scheme) = match b % 3 {
            0 => (gen::runs_i64(2048, 32, b as u64), Scheme::Rle),
            1 => (gen::categorical_i64(2048, 4, b as u64), Scheme::Dict),
            _ => (gen::uniform_i64(2048, 0, 255, b as u64), Scheme::ForPack),
        };
        expected += data
            .to_i64_vec()
            .unwrap()
            .iter()
            .filter(|&&x| x > 50)
            .sum::<i64>();
        col.push_block(Block::compress(&data, scheme).unwrap());
    }
    let (total, stats) = sum_where_gt(&col, 50, ScanStrategy::Adaptive).unwrap();
    assert_eq!(total, expected);
    assert_eq!(stats.plans_cached, 3);
    assert!(stats.fast_path > stats.decompressed);
}

/// B3 — the join chain converges to the selective join and flips after a
/// shift, never changing results.
#[test]
fn join_chain_adapts_and_stays_correct() {
    let mk = |n: i64| {
        let keys: Vec<i64> = (0..n).collect();
        HashTable::build(
            &Array::from(keys.clone()),
            &Array::from(keys.iter().map(|k| k + 1).collect::<Vec<_>>()),
        )
        .unwrap()
    };
    let mut chain = AdaptiveJoinChain::new(vec![mk(10_000), mk(100)], 4);
    let probes: Vec<i64> = (0..2048).collect();
    let mut survivor_count = None;
    for _ in 0..30 {
        let r = chain.probe_chunk(&[probes.clone(), probes.clone()]);
        match survivor_count {
            None => survivor_count = Some(r.indices.len()),
            Some(c) => assert_eq!(c, r.indices.len(), "results must not depend on order"),
        }
    }
    assert_eq!(chain.order(), &[1, 0], "selective join first");
    assert_eq!(survivor_count, Some(100));
}

/// B6 — placement over the public API: a compute-heavy trace runs in wide
/// chunks under the adaptive placement policy with feedback; wide chunks
/// migrate off the CPU, and every chunk's output is bit-identical to the
/// trace run on the host.
#[test]
fn placement_migrates_large_chunks() {
    let frag = whole_pipeline_fragment(&programs::map_chain(i64::MAX), &HashMap::new())
        .expect("map chain compiles");
    let trace = compile(frag, &CostModel::untimed());
    let ops = trace.ir.op_count();
    let chunk = 1usize << 20; // column-ish chunks: enough work to offload
    let mut policy = PlacementPolicy::new(vec![DeviceSpec::cpu(), DeviceSpec::integrated_gpu()]);
    for c in 0..4 {
        let start = (c * chunk) as i64;
        let x = Array::from((start..start + chunk as i64).collect::<Vec<_>>());
        let bytes = x.byte_size();
        let d = policy.choose(chunk, ops, bytes, bytes);
        let run = run_trace_on(&policy.devices()[d], &trace, &[&x], None).unwrap();
        policy.feedback(d, chunk, ops, bytes, bytes, run.cost.total_ns());
        let host = trace.run(&[&x], None).unwrap();
        assert_eq!(
            run.result,
            host,
            "chunk {c} on {}",
            policy.devices()[d].name
        );
    }
    let igpu = policy.decisions()[1];
    assert!(
        igpu > 0,
        "wide chunks should be placed on the iGPU: {:?}",
        policy.decisions()
    );
}

/// B1 — the full Q1/Q6 stack: all variants agree at a non-trivial scale.
#[test]
fn tpch_stack_agrees() {
    let table = tpch::lineitem(100_000, 77);
    let fused = tpch::q1_fused(&table);
    assert!(tpch::q1_results_match(
        &fused,
        &tpch::q1_vectorized(&table, 2048)
    ));
    let compact = tpch::CompactLineitem::from_table(&table);
    assert!(tpch::q1_results_match(
        &fused,
        &tpch::q1_adaptive(&compact, 2048)
    ));

    let expected = tpch::q6_reference(&table, 1200);
    let vm = Vm::new(VmConfig {
        hot_threshold: 4,
        ..VmConfig::default()
    });
    let program = tpch::q6_program(table.rows() as i64, 1200);
    let (out, report) = vm.run(&program, tpch::q6_buffers(&table)).unwrap();
    let rev = out.output("revenue").unwrap().as_f64().unwrap()[0];
    assert!((rev - expected).abs() / expected.abs().max(1.0) < 1e-9);
    assert!(report.injected_traces > 0, "Q6 loop should get compiled");
}
