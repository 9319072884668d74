//! Heterogeneous placement (§IV target 3): the same compiled trace priced
//! on CPU, integrated GPU, discrete GPU and FPGA profiles, and the adaptive
//! placement policy following the crossover. Asserts the ends of the
//! crossover it prints: 2^8 rows stay on the CPU, 2^26 rows go to a GPU
//! profile.
//!
//! ```sh
//! cargo run --release --example heterogeneous
//! ```

use adaptvm::dsl::programs;
use adaptvm::hetsim::cost::price;
use adaptvm::hetsim::device::{DeviceKind, DeviceSpec};
use adaptvm::hetsim::placement::PlacementPolicy;
use adaptvm::jit::compiler::{compile, CostModel};
use adaptvm::jit::pipeline::whole_pipeline_fragment;
use std::collections::HashMap;

fn main() {
    // A 16-op arithmetic pipeline (heavy enough for devices to matter).
    let frag = whole_pipeline_fragment(&programs::map_chain(i64::MAX), &HashMap::new())
        .expect("map chain compiles");
    let trace = compile(frag, &CostModel::untimed());
    // Price as a compute-heavy 64-op kernel — enough arithmetic intensity
    // for the discrete GPU to amortize its PCIe transfers at the top end.
    let ops = trace.ir.op_count().max(64);

    let devices = vec![
        DeviceSpec::cpu(),
        DeviceSpec::integrated_gpu(),
        DeviceSpec::discrete_gpu(),
        DeviceSpec::fpga(),
    ];

    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "rows", "cpu µs", "igpu µs", "dgpu µs", "fpga µs", "winner"
    );
    let mut policy = PlacementPolicy::new(devices.clone());
    for exp in 8..=26 {
        let n = 1usize << exp;
        let bytes = n * 8;
        let costs: Vec<f64> = devices
            .iter()
            .map(|d| price(d, n, ops, bytes, bytes).total_ns() as f64 / 1e3)
            .collect();
        let chosen = policy.choose(n, ops, bytes, bytes);
        println!(
            "2^{exp:<5} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>10}",
            costs[0], costs[1], costs[2], costs[3], devices[chosen].name
        );
        match exp {
            8 => assert_eq!(devices[chosen].kind, DeviceKind::Cpu, "2^8 rows"),
            26 => assert!(
                matches!(
                    devices[chosen].kind,
                    DeviceKind::IntegratedGpu | DeviceKind::DiscreteGpu
                ),
                "2^26 rows went to {}",
                devices[chosen].name
            ),
            _ => {}
        }
    }
    println!(
        "\ndecisions per device: {:?}",
        policy
            .devices()
            .iter()
            .map(|d| d.name.clone())
            .zip(policy.decisions().iter().copied())
            .collect::<Vec<_>>()
    );
    println!("Small inputs stay on the CPU (kernel launch latency), mid-sized ones go to the\nintegrated GPU (no transfer), large streaming inputs migrate to the discrete GPU\n— the §IV-3 crossover.");
}
