//! Native baselines for the paper's Fig. 7 (normalized simulation time).
//! Sweeps over machines run through `simany-serve` specs
//! (`examples/sweeps/`).

use simany_kernels::{DwarfKernel, Scale};
use std::time::Duration;

/// Mean native execution wall time for a kernel over `instances` seeds
/// (the Fig. 7 denominator).
pub fn native_time(kernel: &dyn DwarfKernel, scale: Scale, instances: u64, seed0: u64) -> Duration {
    let mut total = Duration::ZERO;
    for i in 0..instances {
        let (d, _) = kernel.run_native(scale, seed0 + i);
        total += d;
    }
    total / instances as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_kernels::kernel_by_name;

    #[test]
    fn native_time_positive() {
        let kernel = kernel_by_name("Quicksort").unwrap();
        assert!(native_time(kernel.as_ref(), Scale(0.05), 2, 1) > Duration::ZERO);
    }
}
