//! Adaptive device placement (§IV target 3).
//!
//! Given the registered devices and the observed shape of a fragment's work
//! (lanes, operations, bytes), the policy picks the device with the lowest
//! *predicted* virtual cost, then corrects its predictions with observed
//! costs (a multiplicative model-error term per device). This closes the
//! loop the paper asks for: "making adaptive decisions which strategy to
//! use … but also on which hardware".

use crate::cost::price;
use crate::device::DeviceSpec;

/// Discount for the per-device model-error correction.
const ALPHA: f64 = 0.2;

/// Device placement policy.
#[derive(Debug)]
pub struct PlacementPolicy {
    devices: Vec<DeviceSpec>,
    /// Multiplicative correction per device (observed / predicted).
    correction: Vec<f64>,
    decisions: Vec<u64>,
}

impl PlacementPolicy {
    /// Policy over a device set (must be non-empty).
    pub fn new(devices: Vec<DeviceSpec>) -> PlacementPolicy {
        assert!(!devices.is_empty(), "placement needs at least one device");
        let n = devices.len();
        PlacementPolicy {
            devices,
            correction: vec![1.0; n],
            decisions: vec![0; n],
        }
    }

    /// The registered devices.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Choose a device for a fragment execution of the given shape.
    /// Returns the device index.
    pub fn choose(&mut self, lanes: usize, ops: usize, bytes_in: usize, bytes_out: usize) -> usize {
        let mut best = 0;
        let mut best_cost = f64::INFINITY;
        for (i, d) in self.devices.iter().enumerate() {
            let predicted =
                price(d, lanes, ops, bytes_in, bytes_out).total_ns() as f64 * self.correction[i];
            if predicted < best_cost {
                best_cost = predicted;
                best = i;
            }
        }
        self.decisions[best] += 1;
        best
    }

    /// Feed back the observed virtual cost of running on `device`.
    pub fn feedback(
        &mut self,
        device: usize,
        lanes: usize,
        ops: usize,
        bytes_in: usize,
        bytes_out: usize,
        observed_ns: u64,
    ) {
        let predicted = price(&self.devices[device], lanes, ops, bytes_in, bytes_out).total_ns();
        if predicted == 0 {
            return;
        }
        let ratio = observed_ns as f64 / predicted as f64;
        self.correction[device] = ALPHA * ratio + (1.0 - ALPHA) * self.correction[device];
    }

    /// How many times each device was chosen.
    pub fn decisions(&self) -> &[u64] {
        &self.decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_dgpu() -> PlacementPolicy {
        PlacementPolicy::new(vec![DeviceSpec::cpu(), DeviceSpec::discrete_gpu()])
    }

    #[test]
    fn small_work_goes_to_cpu() {
        let mut p = cpu_dgpu();
        let d = p.choose(1024, 4, 8192, 8192);
        assert_eq!(p.devices()[d].name, "cpu");
    }

    #[test]
    fn large_work_goes_to_gpu() {
        let mut p = cpu_dgpu();
        let n = 64 * 1024 * 1024;
        let d = p.choose(n, 16, n * 8, n * 8);
        assert_eq!(p.devices()[d].name, "dgpu");
    }

    #[test]
    fn crossover_sweep_is_monotone() {
        let mut p = cpu_dgpu();
        let mut gpu_started = false;
        for exp in 8..=26 {
            let n = 1usize << exp;
            let d = p.choose(n, 16, n * 8, n * 8);
            let is_gpu = p.devices()[d].name == "dgpu";
            if gpu_started {
                assert!(is_gpu, "fell back to CPU at 2^{exp}");
            }
            gpu_started |= is_gpu;
        }
        assert!(gpu_started, "gpu never chosen");
        // Both devices got decisions.
        assert!(p.decisions().iter().all(|&c| c > 0));
    }

    #[test]
    fn feedback_corrects_model_error() {
        let mut p = cpu_dgpu();
        let (lanes, ops, b) = (1 << 20, 16, 8 << 20);
        let before = p.choose(lanes, ops, b, b);
        // Report that the chosen device is consistently 100× slower than
        // predicted; the policy must eventually switch.
        for _ in 0..50 {
            let predicted = price(&p.devices()[before].clone(), lanes, ops, b, b).total_ns();
            p.feedback(before, lanes, ops, b, b, predicted * 100);
        }
        let after = p.choose(lanes, ops, b, b);
        assert_ne!(
            before, after,
            "policy should abandon the mispredicted device"
        );
    }

    #[test]
    fn placement_chooses_cpu_for_small_chunks() {
        // Default-sized 1024-row chunks of a short trace, with feedback at
        // the priced cost: launch and transfer latency keep every chunk on
        // the CPU.
        let mut p = cpu_dgpu();
        let (lanes, ops, b) = (1024, 4, 1024 * 8);
        for _ in 0..16 {
            let d = p.choose(lanes, ops, b, b);
            let observed = price(&p.devices()[d], lanes, ops, b, b).total_ns();
            assert!(observed > 0);
            p.feedback(d, lanes, ops, b, b, observed);
        }
        assert_eq!(p.decisions(), &[16, 0], "small chunks belong on the CPU");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_device_set_panics() {
        let _ = PlacementPolicy::new(vec![]);
    }
}
