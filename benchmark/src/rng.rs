//! The benchmark's seeded generator (splitmix64): the only source of
//! variation in a workload's inputs, so `--seed` fixes them completely.

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` > 0). The modulo bias is irrelevant
    /// at the bounds used here (all far below 2^32).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}
