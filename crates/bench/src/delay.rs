//! The delay-monitoring use case (§4.1), end to end in simulated time.
//!
//! ```text
//!   server ---- ingress ==(20 ms)== egress ---- client
//!            owd_encap at         End.DM
//!            LWT xmit, 1:10
//! ```
//!
//! The ingress samples one datagram in ten towards the client network and
//! encapsulates it with an SRH carrying a Delay-Measurement TLV. The egress
//! binds the DM SID to `End.DM`, which reports the one-way delay through a
//! perf event and decapsulates the probe, so the client still receives
//! every datagram. A [`DelayCollector`] plays the paper's user-space daemon.

use ebpf_vm::maps::{Map, MapHandle, PerfEventArray};
use netpkt::packet::build_ipv6_udp_packet;
use netpkt::Ipv6Prefix;
use seg6_core::{LwtBpfAttachment, LwtHook, Nexthop, Seg6LocalAction};
use simnet::{LinkConfig, Simulator};
use srv6_nf::{end_dm_program, owd_encap_program, DelayCollector, OwdEncapConfig};
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// One-way delay of the monitored ingress → egress link.
pub const LINK_DELAY_MS: u64 = 20;
/// The ingress probes one datagram in this many.
pub const SAMPLING_RATIO: u32 = 10;
/// UDP datagrams the server sends to the client, one every 100 µs.
pub const DATAGRAMS: u64 = 2_000;
/// The client's UDP port.
const PORT: u16 = 5001;

/// What the run measured.
#[derive(Debug, Clone)]
pub struct DelayRun {
    /// Datagrams the client received, probes included.
    pub received: u64,
    /// Delay reports the collector read off the perf ring.
    pub reports: usize,
    /// Mean one-way delay over the reports, in ns.
    pub mean_owd_ns: Option<u64>,
    /// Largest one-way delay reported, in ns.
    pub max_owd_ns: Option<u64>,
}

/// Runs the §4.1 scenario with its one parameter set.
pub fn run() -> DelayRun {
    let addr = |s: &str| -> Ipv6Addr { s.parse().unwrap() };
    let prefix = |s: &str| -> Ipv6Prefix { s.parse().unwrap() };
    let (server, client, dm_sid) = (addr("2001:db8:1::1"), addr("2001:db8:2::9"), addr("fc00::d1"));

    let mut sim = Simulator::new(42);
    let s = sim.add_node("server", server);
    let ingress = sim.add_node("ingress", addr("fc00::a"));
    let egress = sim.add_node("egress", dm_sid);
    let c = sim.add_node("client", client);
    sim.connect(s, ingress, LinkConfig::gigabit());
    sim.connect(ingress, egress, LinkConfig::new(1_000_000_000, LINK_DELAY_MS));
    sim.connect(egress, c, LinkConfig::gigabit());

    sim.node_mut(s).datapath.add_route(prefix("::/0"), vec![Nexthop::direct(1)]);
    sim.node_mut(c).datapath.add_route(prefix("::/0"), vec![Nexthop::direct(1)]);
    let dp = &mut sim.node_mut(ingress).datapath;
    dp.add_route(prefix("2001:db8:1::/48"), vec![Nexthop::direct(1)]);
    dp.add_route(prefix("2001:db8:2::/48"), vec![Nexthop::direct(2)]);
    dp.add_route(Ipv6Prefix::host(dm_sid), vec![Nexthop::direct(2)]);
    let encap = owd_encap_program(OwdEncapConfig {
        dm_sid,
        controller: addr("2001:db8:ffff::c0"),
        controller_port: 9999,
        ratio: SAMPLING_RATIO,
    });
    let prog = ebpf_vm::program::load(encap, &HashMap::new(), &dp.helpers).expect("owd_encap verifies");
    dp.attach_lwt_bpf(prefix("2001:db8:2::/48"), LwtBpfAttachment { hook: LwtHook::Xmit, prog });

    let perf = PerfEventArray::new(1024);
    let maps = HashMap::from([(1u32, perf.clone() as MapHandle)]);
    let dp = &mut sim.node_mut(egress).datapath;
    dp.add_route(prefix("2001:db8:2::/48"), vec![Nexthop::direct(2)]);
    dp.add_route(prefix("2001:db8:1::/48"), vec![Nexthop::direct(1)]);
    let prog = ebpf_vm::program::load(end_dm_program(1), &maps, &dp.helpers).expect("End.DM verifies");
    dp.add_local_sid(Ipv6Prefix::host(dm_sid), Seg6LocalAction::EndBpf { prog });

    for i in 0..DATAGRAMS {
        let packet = build_ipv6_udp_packet(server, client, 1024, PORT, &[0u8; 256], 64);
        sim.inject_at(i * 100_000, s, packet);
    }
    sim.run_to_completion();

    let mut collector = DelayCollector::new(perf.perf_buffer().expect("perf buffer"));
    let reports = collector.poll();
    DelayRun {
        received: sim.node(c).sink(PORT).packets,
        reports,
        mean_owd_ns: collector.mean_owd_ns(),
        max_owd_ns: collector.max_owd_ns(),
    }
}
