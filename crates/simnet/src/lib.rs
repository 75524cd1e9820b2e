//! # simnet — a discrete-event simulator for the SRv6 eBPF lab
//!
//! The paper evaluates its kernel extension on two physical setups
//! (Figure 1): a three-server chain with 10 Gbps NICs for the forwarding
//! microbenchmarks, and a hybrid-access topology with a Turris Omnia CPE,
//! an aggregation box and `tc netem`-emulated xDSL/LTE links. Neither is
//! available to this reproduction, so this crate provides the substitute:
//! a deterministic discrete-event simulator whose nodes run the real
//! `seg6-core` datapath (including `End.BPF` programs on the `ebpf-vm`),
//! and whose links model bandwidth, propagation delay, jitter, loss and
//! bounded queues.
//!
//! * [`node`] — nodes: a `Seg6Datapath`, a calibrated CPU cost model
//!   ([`node::CpuProfile`]), UDP sinks and attached applications;
//! * [`link`] — links and the netem-style impairment model;
//! * [`app`] — the [`app::Application`] trait host programs (TCP endpoints,
//!   measurement daemons) implement;
//! * [`sim`] — the event loop itself.
//!
//! ## Example: the paper's setup 1 in five lines per node
//!
//! ```
//! use simnet::{LinkConfig, Simulator};
//! use seg6_core::Nexthop;
//! use netpkt::packet::build_ipv6_udp_packet;
//!
//! let mut sim = Simulator::new(7);
//! let s1 = sim.add_node("S1", "fc00::a1".parse().unwrap());
//! let s2 = sim.add_node("S2", "fc00::a2".parse().unwrap());
//! sim.connect(s1, s2, LinkConfig::lab_10g());
//! sim.node_mut(s1).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
//!
//! let pkt = build_ipv6_udp_packet(
//!     "fc00::a1".parse().unwrap(),
//!     "fc00::a2".parse().unwrap(),
//!     1000, 5001, &[0u8; 64], 64,
//! );
//! sim.inject_at(0, s1, pkt);
//! sim.run_to_completion();
//! assert_eq!(sim.node(s2).sink(5001).packets, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Bound, RangeBounds};

pub mod app;
pub mod link;
pub mod node;
pub mod sim;

pub use app::{AppApi, Application};
pub use link::{Link, LinkConfig, LinkDirectionState, NS_PER_SEC};
pub use node::{CpuProfile, Node, SinkStats};
pub use sim::{SimStats, Simulator};

/// The simulator's seeded generator: SplitMix64, fast, well distributed and
/// stable across versions, so one seed replays a run — netem jitter and
/// loss here, and the seeded fuzzes of the crates that take `simnet` as a
/// dev-dependency — exactly.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `true` with probability `p`, to 53 bits of precision.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// A value drawn from `range`, `a..b` or `a..=b` over an unsigned
    /// integer type: `a` plus the next draw modulo the range's width.
    pub fn gen_range<T: Copy + TryInto<u64> + TryFrom<u64>>(&mut self, range: impl RangeBounds<T>) -> T {
        let wide = |v: &T| (*v).try_into().ok().expect("an unsigned bound");
        let Bound::Included(start) = range.start_bound().map(wide) else { panic!("a range needs a start") };
        let width = match range.end_bound().map(wide) {
            Bound::Excluded(end) => {
                assert!(start < end, "cannot sample empty range");
                Some(end - start)
            }
            Bound::Included(end) => {
                assert!(start <= end, "cannot sample empty range");
                (end - start).checked_add(1)
            }
            Bound::Unbounded => panic!("a range needs an end"),
        };
        let value = match width {
            Some(width) => start + self.next_u64() % width,
            None => self.next_u64(),
        };
        T::try_from(value).ok().expect("inside the range")
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = SplitMix64::new(1);
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits {hits}");
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..1000 {
            let v = rng.gen_range(5u64..=10);
            assert!((5..=10).contains(&v));
            let w = rng.gen_range(0u64..=0);
            assert_eq!(w, 0);
            let x = rng.gen_range(3u32..7);
            assert!((3..7).contains(&x));
            let _full_width: usize = rng.gen_range(0..=usize::MAX);
        }
    }
}
