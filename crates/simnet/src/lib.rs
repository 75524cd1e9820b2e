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

pub mod app;
pub mod link;
pub mod node;
pub mod sim;

pub use app::{AppApi, Application};
pub use link::{Link, LinkConfig, LinkDirectionState, NS_PER_SEC};
pub use node::{CpuProfile, Node, SinkStats};
pub use sim::{SimStats, Simulator};
