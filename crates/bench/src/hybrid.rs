//! The hybrid-access experiments (§4.2): Figure 4's aggregated UDP goodput
//! on the CPE, and the TCP goodput with and without delay compensation.
//!
//! Topology (the paper's setup 2):
//!
//! ```text
//!   S1 ---- A ==(two links)== M ---- S2
//!        aggregation box     CPE (Turris Omnia)
//! ```
//!
//! The aggregation box and the CPE each expose two `End.DT6` SIDs, one
//! reachable over each link; the WRR eBPF program encapsulates traffic
//! towards one of the peer's SIDs, which pins the packet to that link.

use ebpf_vm::maps::MapHandle;
use netpkt::ipv6::proto;
use netpkt::packet::build_ipv6_udp_packet;
use netpkt::srh::SegmentRoutingHeader;
use netpkt::PacketBuf;
use seg6_core::srv6_ops;
use seg6_core::{LwtBpfAttachment, LwtHook, Nexthop, Seg6LocalAction, TransitBehaviour};
use simnet::{CpuProfile, LinkConfig, Simulator, NS_PER_SEC};
use srv6_nf::{compute_compensation, wrr_encap_program, wrr_maps};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use trafficgen::{TcpBulkReceiver, TcpBulkSender, UdpFlowSource};

/// Addresses used by the hybrid topology.
pub mod addrs {
    use std::net::Ipv6Addr;
    /// Server host behind the aggregation box.
    pub fn s1() -> Ipv6Addr {
        "2001:db8:1::1".parse().unwrap()
    }
    /// Client host behind the CPE.
    pub fn s2() -> Ipv6Addr {
        "2001:db8:2::1".parse().unwrap()
    }
    /// Aggregation box.
    pub fn agg() -> Ipv6Addr {
        "fc00::a".parse().unwrap()
    }
    /// CPE.
    pub fn cpe() -> Ipv6Addr {
        "fc00::b".parse().unwrap()
    }
    /// Aggregation-box SID reachable over link 0 / link 1.
    pub fn agg_sid(path: usize) -> Ipv6Addr {
        if path == 0 {
            "fd00::a1".parse().unwrap()
        } else {
            "fd00::a2".parse().unwrap()
        }
    }
    /// CPE SID reachable over link 0 / link 1.
    pub fn cpe_sid(path: usize) -> Ipv6Addr {
        if path == 0 {
            "fd00::b1".parse().unwrap()
        } else {
            "fd00::b2".parse().unwrap()
        }
    }
}

/// How the CPE handles traffic in the Figure 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig4Mode {
    /// Plain IPv6 forwarding through the CPE (the figure's upper curve).
    PlainForwarding,
    /// The aggregation box encapsulates; the CPE performs the native
    /// (static) decapsulation.
    KernelDecap,
    /// The CPE runs the eBPF WRR scheduler (interpreter, as on the ARM32
    /// Turris) and aggregates both links upstream.
    EbpfWrr,
}

impl Fig4Mode {
    /// All modes, in the order of the figure's legend.
    pub fn all() -> [Fig4Mode; 3] {
        [Fig4Mode::PlainForwarding, Fig4Mode::KernelDecap, Fig4Mode::EbpfWrr]
    }

    /// Label used in the figure.
    pub fn label(&self) -> &'static str {
        match self {
            Fig4Mode::PlainForwarding => "IPv6 forward.",
            Fig4Mode::KernelDecap => "Kernel decap.",
            Fig4Mode::EbpfWrr => "eBPF WRR",
        }
    }
}

/// The built topology plus the node/link handles experiments need.
pub struct HybridTopology {
    /// The simulator.
    pub sim: Simulator,
    /// Node ids.
    pub s1: usize,
    /// Aggregation box node id.
    pub agg: usize,
    /// CPE node id.
    pub cpe: usize,
    /// Client node id.
    pub s2: usize,
    /// A↔M link ids (link 0 is the higher-bandwidth/higher-latency one).
    pub links: [usize; 2],
}

/// Builds the hybrid topology with the given per-link configurations and
/// CPE CPU profile. Routing and the four `End.DT6` SIDs are installed; the
/// WRR programs are installed separately by the experiments.
pub fn build_topology(
    link0: LinkConfig,
    link1: LinkConfig,
    cpe_cpu: CpuProfile,
    seed: u64,
) -> HybridTopology {
    let mut sim = Simulator::new(seed);
    let s1 = sim.add_node("S1", addrs::s1());
    let agg = sim.add_node("A", addrs::agg());
    let cpe = sim.add_node("M", addrs::cpe());
    let s2 = sim.add_node("S2", addrs::s2());

    let (_, _, agg_if_s1) = sim.connect(s1, agg, LinkConfig::gigabit());
    let (l0, agg_if_l0, cpe_if_l0) = sim.connect(agg, cpe, link0);
    let (l1, agg_if_l1, cpe_if_l1) = sim.connect(agg, cpe, link1);
    let (_, cpe_if_s2, _) = sim.connect(cpe, s2, LinkConfig::gigabit());

    sim.node_mut(cpe).cpu = cpe_cpu;

    // Hosts: default route towards their gateway.
    sim.node_mut(s1).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
    sim.node_mut(s2).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);

    // Aggregation box routing.
    {
        let dp = &mut sim.node_mut(agg).datapath;
        dp.add_route("2001:db8:1::/48".parse().unwrap(), vec![Nexthop::direct(agg_if_s1)]);
        dp.add_route(netpkt::Ipv6Prefix::host(addrs::cpe_sid(0)), vec![Nexthop::direct(agg_if_l0)]);
        dp.add_route(netpkt::Ipv6Prefix::host(addrs::cpe_sid(1)), vec![Nexthop::direct(agg_if_l1)]);
        // Plain downstream route (used by the non-WRR modes): over link 0.
        dp.add_route("2001:db8:2::/48".parse().unwrap(), vec![Nexthop::direct(agg_if_l0)]);
        dp.add_route(netpkt::Ipv6Prefix::host(addrs::cpe()), vec![Nexthop::direct(agg_if_l0)]);
        // Upstream decapsulation SIDs.
        dp.add_local_sid(
            netpkt::Ipv6Prefix::host(addrs::agg_sid(0)),
            Seg6LocalAction::EndDT6 { table: seg6_core::MAIN_TABLE },
        );
        dp.add_local_sid(
            netpkt::Ipv6Prefix::host(addrs::agg_sid(1)),
            Seg6LocalAction::EndDT6 { table: seg6_core::MAIN_TABLE },
        );
    }

    // CPE routing.
    {
        let dp = &mut sim.node_mut(cpe).datapath;
        dp.add_route("2001:db8:2::/48".parse().unwrap(), vec![Nexthop::direct(cpe_if_s2)]);
        dp.add_route(netpkt::Ipv6Prefix::host(addrs::agg_sid(0)), vec![Nexthop::direct(cpe_if_l0)]);
        dp.add_route(netpkt::Ipv6Prefix::host(addrs::agg_sid(1)), vec![Nexthop::direct(cpe_if_l1)]);
        // Upstream plain route (ACKs and non-WRR traffic): over link 1, the
        // lower-latency path.
        dp.add_route("2001:db8:1::/48".parse().unwrap(), vec![Nexthop::direct(cpe_if_l1)]);
        dp.add_route(netpkt::Ipv6Prefix::host(addrs::agg()), vec![Nexthop::direct(cpe_if_l1)]);
        // Downstream decapsulation SIDs.
        dp.add_local_sid(
            netpkt::Ipv6Prefix::host(addrs::cpe_sid(0)),
            Seg6LocalAction::EndDT6 { table: seg6_core::MAIN_TABLE },
        );
        dp.add_local_sid(
            netpkt::Ipv6Prefix::host(addrs::cpe_sid(1)),
            Seg6LocalAction::EndDT6 { table: seg6_core::MAIN_TABLE },
        );
    }

    HybridTopology { sim, s1, agg, cpe, s2, links: [l0, l1] }
}

/// Installs the WRR eBPF scheduler on `node` for traffic towards `prefix`,
/// encapsulating towards the two SIDs with the given weights.
pub fn install_wrr(
    sim: &mut Simulator,
    node: usize,
    prefix: &str,
    sids: (Ipv6Addr, Ipv6Addr),
    weights: (u32, u32),
    tier: ebpf_vm::ExecTier,
) {
    let (state, config) = wrr_maps(weights.0, weights.1, sids.0, sids.1);
    let mut maps: HashMap<u32, MapHandle> = HashMap::new();
    maps.insert(2, state);
    maps.insert(3, config);
    let dp = &mut sim.node_mut(node).datapath;
    let prog = ebpf_vm::program::load(wrr_encap_program(2, 3), &maps, &dp.helpers).expect("WRR program");
    prog.set_exec_tier(tier);
    dp.attach_lwt_bpf(prefix.parse().unwrap(), LwtBpfAttachment { hook: LwtHook::Xmit, prog });
}

/// One point of the Figure 4 sweep.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// CPE mode.
    pub mode: Fig4Mode,
    /// UDP payload size in bytes.
    pub payload: usize,
    /// Aggregated goodput measured at the receiving host, in Mbps.
    pub goodput_mbps: f64,
}

/// Runs one Figure 4 point: a 1 Gbps UDP flow of `payload`-byte datagrams
/// through the CPE for `duration_ns` of simulated time.
pub fn run_fig4_point(mode: Fig4Mode, payload: usize, duration_ns: u64, seed: u64) -> Fig4Point {
    let mut topo =
        build_topology(LinkConfig::gigabit(), LinkConfig::gigabit(), CpuProfile::turris_omnia(), seed);
    let port = 5001;
    match mode {
        Fig4Mode::PlainForwarding => {}
        Fig4Mode::KernelDecap => {
            // The aggregation box encapsulates all downstream traffic
            // towards the CPE's link-0 SID (static seg6 transit behaviour).
            let dp = &mut topo.sim.node_mut(topo.agg).datapath;
            dp.add_transit(
                "2001:db8:2::/48".parse().unwrap(),
                TransitBehaviour::encap_through(&[addrs::cpe_sid(0)]),
            );
        }
        Fig4Mode::EbpfWrr => {
            // Upstream: the CPE schedules its own traffic over both links
            // towards the aggregation box, which decapsulates. The
            // interpreter tier models the paper's JIT-less ARM32 CPE.
            install_wrr(
                &mut topo.sim,
                topo.cpe,
                "2001:db8:1::/48",
                (addrs::agg_sid(0), addrs::agg_sid(1)),
                (1, 1),
                ebpf_vm::ExecTier::Interp,
            );
        }
    }
    // Source and sink depend on the direction.
    let (src_node, src_addr, dst_addr, sink_node) = match mode {
        Fig4Mode::EbpfWrr => (topo.s2, addrs::s2(), addrs::s1(), topo.s1),
        _ => (topo.s1, addrs::s1(), addrs::s2(), topo.s2),
    };
    let source = UdpFlowSource::new(src_addr, dst_addr, port, payload, 1_000_000_000, duration_ns);
    topo.sim.add_app(src_node, Box::new(source));
    topo.sim.run_until(duration_ns + 200_000_000);
    let sink = topo.sim.node(sink_node).sink(port);
    Fig4Point { mode, payload, goodput_mbps: sink.goodput_bps() / 1e6 }
}

/// Runs the whole Figure 4 sweep.
pub fn run_fig4(payloads: &[usize], duration_ns: u64) -> Vec<Fig4Point> {
    let mut points = Vec::new();
    for mode in Fig4Mode::all() {
        for &payload in payloads {
            points.push(run_fig4_point(mode, payload, duration_ns, 0xf164));
        }
    }
    points
}

/// The hybrid-access link pair of §4.2: 50 Mbps with a 30 ms RTT (±5 ms)
/// and 30 Mbps with a 5 ms RTT (±2 ms). One-way values are half the RTT.
pub fn hybrid_access_links() -> (LinkConfig, LinkConfig) {
    (
        // Queues are sized proportionally to the link rates so both overflow
        // at a similar queueing delay (~20 ms), as BDP-sized buffers would.
        LinkConfig::new(50_000_000, 15).with_jitter_ns(2_500_000).with_queue_bytes(128 * 1024),
        LinkConfig::new(30_000_000, 2).with_jitter_ns(1_000_000).with_queue_bytes(77 * 1024),
    )
}

/// Simulated length of the §4.2 TCP runs `figures tcp` and the
/// `hybrid_access` example report.
pub const TCP_DURATION_NS: u64 = 10 * NS_PER_SEC;
/// Seed of those runs.
pub const TCP_SEED: u64 = 0x7c9;

/// Result of one TCP hybrid-access run.
#[derive(Debug, Clone)]
pub struct TcpRunResult {
    /// Whether the delay compensation was applied.
    pub compensated: bool,
    /// Number of parallel connections.
    pub flows: usize,
    /// Aggregated goodput at the receiver, in Mbps.
    pub goodput_mbps: f64,
    /// Extra delay applied on the fast path (0 when not compensated), ns.
    pub compensation_ns: u64,
    /// Out-of-order segments seen by the receivers.
    pub out_of_order: u64,
}

/// Measures the one-way delay of each A→M path by sending one probe over
/// each link and timing its arrival at the client, reproducing the TWD
/// measurement the paper's daemon performs.
pub fn measure_path_delays(seed: u64) -> (u64, u64) {
    // One probe per path samples the jitter, not the path: with +/- 2.5 ms
    // of jitter a single sample can misestimate the skew by several
    // milliseconds, which is enough residual reordering to defeat the
    // compensation. Like the paper's daemon, probe each path repeatedly
    // (spaced beyond the jitter correlation time) and keep the minimum,
    // which converges on the propagation delay.
    const PROBES: u16 = 5;
    let (link0, link1) = hybrid_access_links();
    let mut topo = build_topology(link0, link1, CpuProfile::turris_omnia(), seed);
    for probe in 0..PROBES {
        let inject_ns = 1_000_000 + u64::from(probe) * 50_000_000;
        for path in 0..2u16 {
            let inner = build_ipv6_udp_packet(
                addrs::agg(),
                addrs::s2(),
                7000,
                7700 + path * 100 + probe,
                &[0u8; 32],
                64,
            );
            let mut packet = inner.data().to_vec();
            let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addrs::cpe_sid(path as usize)]);
            srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addrs::agg())
                .expect("probe encapsulation");
            topo.sim.inject_at(inject_ns, topo.agg, PacketBuf::from_slice(&packet));
        }
    }
    topo.sim.run_until(2 * NS_PER_SEC);
    let owd = |base: u16| {
        (0..PROBES)
            .map(|probe| {
                let inject_ns = 1_000_000 + u64::from(probe) * 50_000_000;
                topo.sim.node(topo.s2).sink(base + probe).first_arrival_ns.saturating_sub(inject_ns)
            })
            .min()
            .unwrap_or(0)
    };
    (owd(7700), owd(7800))
}

/// Runs the §4.2 TCP experiment: `flows` parallel bulk transfers from S1 to
/// S2 through the WRR-scheduled hybrid links, with or without delay
/// compensation. Returns the aggregated goodput.
pub fn run_tcp(compensated: bool, flows: usize, duration_ns: u64, seed: u64) -> TcpRunResult {
    let (link0, link1) = hybrid_access_links();
    let mut topo = build_topology(link0, link1, CpuProfile::turris_omnia(), seed);
    // Downstream WRR on the aggregation box, weights matching the 50/30
    // capacities.
    install_wrr(
        &mut topo.sim,
        topo.agg,
        "2001:db8:2::/48",
        (addrs::cpe_sid(0), addrs::cpe_sid(1)),
        (5, 3),
        ebpf_vm::ExecTier::best_supported(),
    );

    // Delay compensation: measure both paths, then delay the faster one.
    let mut compensation_ns = 0;
    if compensated {
        let (owd0, owd1) = measure_path_delays(seed ^ 0x5a5a);
        let comp = compute_compensation(2 * owd0, 2 * owd1);
        compensation_ns = comp.extra_delay_ns;
        let link = topo.links[comp.delay_path];
        topo.sim.set_link_extra_delay(link, topo.agg, comp.extra_delay_ns);
    }

    let mut sender_handles = Vec::new();
    let mut receiver_handles = Vec::new();
    for flow in 0..flows {
        let port = 5201 + flow as u16;
        // The sender's RACK-style reordering window (srtt/4, as in Linux)
        // is what separates the two runs: the uncompensated path skew keeps
        // gaps open past the window and triggers collapse-inducing fast
        // retransmits, while compensated runs only see short jitter gaps.
        let (sender, sender_stats) = TcpBulkSender::new(
            addrs::s1(),
            addrs::s2(),
            40_000 + flow as u16,
            port,
            u64::MAX / 2,
            duration_ns,
        );
        let (receiver, receiver_stats) = TcpBulkReceiver::new(addrs::s2(), port);
        topo.sim.add_app(topo.s1, Box::new(sender));
        topo.sim.add_app(topo.s2, Box::new(receiver));
        sender_handles.push(sender_stats);
        receiver_handles.push(receiver_stats);
    }
    topo.sim.run_until(duration_ns);

    let mut goodput = 0.0;
    let mut out_of_order = 0;
    for handle in &receiver_handles {
        let stats = handle.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        goodput += stats.delivered_bytes as f64 * 8.0 / (duration_ns as f64 / 1e9);
        out_of_order += stats.out_of_order_segments;
    }
    TcpRunResult { compensated, flows, goodput_mbps: goodput / 1e6, compensation_ns, out_of_order }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_forwards_plain_traffic_end_to_end() {
        let mut topo =
            build_topology(LinkConfig::gigabit(), LinkConfig::gigabit(), CpuProfile::unconstrained(), 1);
        let pkt = build_ipv6_udp_packet(addrs::s1(), addrs::s2(), 1, 5001, &[0u8; 64], 64);
        topo.sim.inject_at(0, topo.s1, pkt);
        topo.sim.run_to_completion();
        assert_eq!(topo.sim.node(topo.s2).sink(5001).packets, 1);
    }

    #[test]
    fn kernel_decap_mode_delivers_decapsulated_packets() {
        let point = run_fig4_point(Fig4Mode::KernelDecap, 600, 20_000_000, 7);
        assert!(point.goodput_mbps > 10.0, "goodput {}", point.goodput_mbps);
    }

    #[test]
    fn wrr_mode_uses_both_links() {
        let mut topo =
            build_topology(LinkConfig::gigabit(), LinkConfig::gigabit(), CpuProfile::unconstrained(), 3);
        install_wrr(
            &mut topo.sim,
            topo.cpe,
            "2001:db8:1::/48",
            (addrs::agg_sid(0), addrs::agg_sid(1)),
            (1, 1),
            ebpf_vm::ExecTier::best_supported(),
        );
        for i in 0..20u64 {
            let pkt = build_ipv6_udp_packet(addrs::s2(), addrs::s1(), 1, 6001, &[0u8; 200], 64);
            topo.sim.inject_at(i * 100_000, topo.s2, pkt);
        }
        topo.sim.run_to_completion();
        assert_eq!(topo.sim.node(topo.s1).sink(6001).packets, 20);
        let tx0 = topo.sim.link(topo.links[0]).state_from(topo.cpe).tx_packets;
        let tx1 = topo.sim.link(topo.links[1]).state_from(topo.cpe).tx_packets;
        assert!(tx0 > 0 && tx1 > 0, "per-link packets {tx0}/{tx1}");
    }

    #[test]
    fn figure4_orders_the_three_curves() {
        // A single payload size is enough to check the ordering; the full
        // sweep runs in the benchmark harness.
        let duration = 30_000_000;
        let plain = run_fig4_point(Fig4Mode::PlainForwarding, 800, duration, 11).goodput_mbps;
        let decap = run_fig4_point(Fig4Mode::KernelDecap, 800, duration, 11).goodput_mbps;
        let wrr = run_fig4_point(Fig4Mode::EbpfWrr, 800, duration, 11).goodput_mbps;
        assert!(plain > decap, "plain {plain} vs decap {decap}");
        assert!(decap > wrr, "decap {decap} vs wrr {wrr}");
        assert!(wrr > 10.0, "wrr {wrr}");
    }

    #[test]
    fn path_delay_measurement_reflects_the_asymmetry() {
        let (owd0, owd1) = measure_path_delays(21);
        // Path 0 has ~15 ms one-way delay, path 1 ~2 ms.
        assert!(owd0 > owd1 + 5_000_000, "owd0 {owd0} owd1 {owd1}");
    }

    #[test]
    fn delay_compensation_restores_tcp_goodput() {
        let duration = 6 * NS_PER_SEC;
        let naive = run_tcp(false, 1, duration, 31);
        let compensated = run_tcp(true, 1, duration, 31);
        assert!(naive.out_of_order > 0);
        assert!(compensated.compensation_ns > 5_000_000);
        assert!(
            compensated.goodput_mbps > naive.goodput_mbps * 2.0,
            "naive {} vs compensated {}",
            naive.goodput_mbps,
            compensated.goodput_mbps
        );
        assert!(naive.goodput_mbps < 20.0, "naive {}", naive.goodput_mbps);
        assert!(compensated.goodput_mbps > 20.0, "compensated {}", compensated.goodput_mbps);
    }
}
