//! The ECMP-discovery use case (§4.3), end to end in simulated time.
//!
//! ```text
//!   prober ---- hop ==(two equal-cost links)== target
//!             End.OAMP
//! ```
//!
//! The prober sends one SRv6 probe through the hop's `End.OAMP` SID with a
//! reply-to TLV. `End.OAMP` asks the FIB for every equal-cost next hop of
//! the probe's destination, reports them through a perf event and lets the
//! probe continue to the target. The prober's enhanced traceroute records
//! the hop's report, and the target's ICMP-style answer as the next hop.

use ebpf_vm::maps::{Map, MapHandle, PerfEventArray};
use netpkt::packet::build_srv6_udp_packet;
use netpkt::srh::{SegmentRoutingHeader, SrhTlv};
use netpkt::Ipv6Prefix;
use seg6_core::{Nexthop, Seg6LocalAction};
use simnet::{LinkConfig, Simulator};
use srv6_nf::{end_oamp_program, oam_helper_registry, EcmpTraceroute, OamEvent};
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// The probe's UDP ports, and the reply-to port it carries.
const PORT: u16 = 33434;

/// What the run observed.
#[derive(Debug)]
pub struct EcmpRun {
    /// The `End.OAMP` SID the probe went through.
    pub oamp_sid: Ipv6Addr,
    /// The probe's final destination.
    pub target: Ipv6Addr,
    /// Probes the target received.
    pub delivered: u64,
    /// The hop's `End.OAMP` report, if one reached the perf ring.
    pub report: Option<OamEvent>,
    /// The prober's traceroute: the OAMP hop, then the target.
    pub traceroute: EcmpTraceroute,
}

/// Runs the §4.3 scenario with its one parameter set.
pub fn run() -> EcmpRun {
    let addr = |s: &str| -> Ipv6Addr { s.parse().unwrap() };
    let (prober, oamp_sid, target) = (addr("2001:db8::50"), addr("fc00::21"), addr("2001:db8:9::1"));

    let mut sim = Simulator::new(5);
    let p = sim.add_node("prober", prober);
    let hop = sim.add_node("hop", oamp_sid);
    let t = sim.add_node("target", target);
    sim.connect(p, hop, LinkConfig::gigabit());
    let (_, oif0, _) = sim.connect(hop, t, LinkConfig::gigabit());
    let (_, oif1, _) = sim.connect(hop, t, LinkConfig::gigabit());

    sim.node_mut(p).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
    let perf = PerfEventArray::new(64);
    let maps = HashMap::from([(1u32, perf.clone() as MapHandle)]);
    let dp = &mut sim.node_mut(hop).datapath;
    dp.helpers = oam_helper_registry();
    dp.add_route(
        "2001:db8:9::/48".parse().unwrap(),
        vec![Nexthop::via(addr("fe80::31"), oif0), Nexthop::via(addr("fe80::32"), oif1)],
    );
    let prog = ebpf_vm::program::load(end_oamp_program(1), &maps, &dp.helpers).expect("End.OAMP verifies");
    dp.add_local_sid(Ipv6Prefix::host(oamp_sid), Seg6LocalAction::EndBpf { prog });

    let mut srh = SegmentRoutingHeader::from_path(netpkt::proto::UDP, &[oamp_sid, target]);
    srh.tlvs.push(SrhTlv::OamReplyTo { addr: prober, port: PORT });
    sim.inject_at(0, p, build_srv6_udp_packet(prober, &srh, PORT, PORT, &[0u8; 16], 64));
    sim.run_to_completion();

    // The hop's daemon would relay the report to the prober; the prober
    // reads it off the ring here.
    let report =
        perf.perf_buffer().expect("perf buffer").poll().and_then(|event| OamEvent::parse(&event.data));
    let mut traceroute = EcmpTraceroute::new();
    if let Some(report) = &report {
        traceroute.record_oamp(1, oamp_sid, report);
    }
    traceroute.record_icmp(2, Some(target));
    EcmpRun { oamp_sid, target, delivered: sim.node(t).sink(PORT).packets, report, traceroute }
}
