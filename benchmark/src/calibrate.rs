//! Host-speed calibration.
//!
//! The sandbox this benchmark must be steady on is a small shared VM whose
//! single-thread speed flips between two levels about 25 % apart and stays
//! there for seconds to minutes (a pure ALU loop pinned to one vCPU shows
//! it; nothing in the guest causes it). A raw rate measured for twelve
//! seconds therefore says more about which level the host was on than
//! about the code. So the measurement loop interleaves a fixed,
//! cache-resident integer kernel with the passes, on the same thread and
//! CPU, and every time-based end-to-end metric is reported **at reference
//! speed**: scaled by how fast the host ran the kernel during that very
//! window, relative to [`REFERENCE_UNITS_PER_SEC`].
//!
//! The scaling cancels what is common to the kernel and the workload —
//! core clock, a busy sibling thread — and nothing else: a change to the
//! code under test moves the scaled numbers exactly as it moves the raw
//! ones. The raw numbers and the measured host speed are printed beside
//! the scaled ones.
//!
//! The kernel keeps four independent multiply-add chains in flight. A
//! single dependent chain tracks the two speed levels just as well, but it
//! leaves the core's other execution ports idle, so a neighbour on the
//! sibling hyperthread slows it less than it slows real code: over two
//! busy periods of the host the workloads' rates moved 1.2–1.45 times as
//! much as the single chain's speed and 1.0–1.2 times as much as this
//! kernel's. Kernels that walk or copy 4 MiB tracked worse than either.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel speed that counts as 1.0: about what this class of host reaches
/// on its fast level. A constant, so numbers from different runs compare;
/// on a different machine it merely rescales every metric by the same
/// factor.
pub const REFERENCE_UNITS_PER_SEC: f64 = 2.88e9;

/// Words of kernel state: 32 KiB, resident in L1.
const STATE_WORDS: usize = 4096;
/// Sweeps over the state per burst (about 8.5 µs at reference speed).
const SWEEPS_PER_BURST: u64 = 6;
/// The multiplier of the chains (Knuth's MMIX LCG constant).
const MULTIPLIER: u64 = 6_364_136_223_846_793_005;

/// Bursts one `take` interval is expected to hold (reserved up front, so
/// recording a burst does not allocate).
const EXPECTED_BURSTS: usize = 8192;

/// Runs the kernel in short bursts and keeps their durations.
pub struct Calibrator {
    state: Vec<u64>,
    acc: [u64; 4],
    /// Nanoseconds each burst since the last `take` took.
    bursts: Vec<f64>,
    elapsed: Duration,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            state: vec![1; STATE_WORDS],
            acc: [0, 1, 2, 3],
            bursts: Vec::with_capacity(EXPECTED_BURSTS),
            elapsed: Duration::ZERO,
        }
    }

    /// One burst: four independent multiply-add-xor chains over the state.
    pub fn burst(&mut self) {
        let started = Instant::now();
        let [mut a, mut b, mut c, mut d] = self.acc;
        for _ in 0..SWEEPS_PER_BURST {
            for quad in self.state.chunks_exact_mut(4) {
                quad[0] = quad[0].wrapping_mul(MULTIPLIER).wrapping_add(a);
                a ^= quad[0] >> 7;
                quad[1] = quad[1].wrapping_mul(MULTIPLIER).wrapping_add(b);
                b ^= quad[1] >> 7;
                quad[2] = quad[2].wrapping_mul(MULTIPLIER).wrapping_add(c);
                c ^= quad[2] >> 7;
                quad[3] = quad[3].wrapping_mul(MULTIPLIER).wrapping_add(d);
                d ^= quad[3] >> 7;
            }
        }
        self.acc = black_box([a, b, c, d]);
        let took = started.elapsed();
        self.elapsed += took;
        self.bursts.push(took.as_nanos() as f64);
    }

    /// Bursts for about `time`.
    pub fn run_for(&mut self, time: Duration) {
        let started = Instant::now();
        while started.elapsed() < time {
            self.burst();
        }
    }

    /// Takes what was recorded since the last call: `(time spent, host
    /// speed relative to the reference)`. The speed comes from the median
    /// burst, so a burst that was preempted does not count against the host.
    pub fn take(&mut self) -> (Duration, f64) {
        let elapsed = std::mem::take(&mut self.elapsed);
        let speed = if self.bursts.is_empty() {
            1.0
        } else {
            let units_per_burst = (SWEEPS_PER_BURST * STATE_WORDS as u64) as f64;
            units_per_burst / (median(&self.bursts) * 1e-9) / REFERENCE_UNITS_PER_SEC
        };
        self.bursts.clear();
        (elapsed, speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_accumulate_and_take_resets() {
        let mut calibrator = Calibrator::new();
        calibrator.run_for(Duration::from_millis(2));
        let (elapsed, speed) = calibrator.take();
        assert!(elapsed >= Duration::from_millis(1));
        assert!(speed > 0.01 && speed < 100.0, "speed {speed} is a sane multiple of the reference");
        let (elapsed, speed) = calibrator.take();
        assert!(elapsed.is_zero());
        assert_eq!(speed, 1.0);
    }
}
