//! Simulated nodes: a CPU model wrapped around a `seg6-core` datapath, host
//! addresses, a UDP sink and attached applications.

use netpkt::ipv6::proto;
use netpkt::{ParsedPacket, UdpHeader};
use seg6_core::{Seg6Datapath, WorkSummary};
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// Per-packet CPU costs of a node, in nanoseconds.
///
/// The paper's two hardware platforms differ enormously: the Xeon X3440
/// routers of setup 1 forward 610 kpps on one core (≈ 1.6 µs per packet),
/// while the Turris Omnia CPE of setup 2 is interpreter-bound. The profile
/// lets experiments calibrate those costs; EXPERIMENTS.md records the values
/// used for each figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuProfile {
    /// Base cost of forwarding one packet (route lookup + header rewrite).
    pub forward_ns: u64,
    /// Additional cost of a static seg6local action.
    pub seg6local_ns: u64,
    /// Additional cost of an SRv6 encapsulation or decapsulation.
    pub encap_ns: u64,
    /// Additional cost of invoking an eBPF program through the JIT.
    pub bpf_jit_ns: u64,
    /// Additional cost of invoking an eBPF program through the interpreter.
    pub bpf_interp_ns: u64,
    /// Per-byte copy cost (dominates for large payloads on slow CPUs).
    pub per_byte_ns_x1000: u64,
    /// Whether this node's eBPF programs run through the JIT (the Turris
    /// Omnia of §4.2 cannot, because of the ARM32 JIT bug the paper hit).
    pub jit_enabled: bool,
}

impl CpuProfile {
    /// A fast x86 server core (≈ 610 kpps of plain forwarding, §3.2).
    pub fn xeon() -> Self {
        CpuProfile {
            forward_ns: 1_500,
            seg6local_ns: 150,
            encap_ns: 250,
            bpf_jit_ns: 120,
            bpf_interp_ns: 600,
            per_byte_ns_x1000: 60, // 0.06 ns per byte
            jit_enabled: true,
        }
    }

    /// The 1.6 GHz ARMv7 Turris Omnia CPE (§4.2), with the JIT disabled as
    /// in the paper (ARM32 JIT bug).
    pub fn turris_omnia() -> Self {
        CpuProfile {
            forward_ns: 6_200,
            seg6local_ns: 900,
            encap_ns: 1_500,
            bpf_jit_ns: 1_200,
            bpf_interp_ns: 5_800,
            per_byte_ns_x1000: 1_800, // 1.8 ns per byte
            jit_enabled: false,
        }
    }

    /// An effectively infinite CPU, for experiments that only study links.
    pub fn unconstrained() -> Self {
        CpuProfile {
            forward_ns: 0,
            seg6local_ns: 0,
            encap_ns: 0,
            bpf_jit_ns: 0,
            bpf_interp_ns: 0,
            per_byte_ns_x1000: 0,
            jit_enabled: true,
        }
    }

    /// Cost of one packet given the work classes the datapath reported
    /// for it (`transit` is the encapsulation / SRH-insertion class).
    pub fn cost_ns(&self, packet_len: usize, work: &WorkSummary) -> u64 {
        let mut cost = self.forward_ns;
        if work.seg6local {
            cost += self.seg6local_ns;
        }
        if work.transit {
            cost += self.encap_ns;
        }
        if work.bpf {
            cost += if self.jit_enabled { self.bpf_jit_ns } else { self.bpf_interp_ns };
        }
        cost + (packet_len as u64 * self.per_byte_ns_x1000) / 1000
    }
}

/// Statistics of a UDP sink (one entry per destination port).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SinkStats {
    /// Datagrams received.
    pub packets: u64,
    /// UDP payload bytes received.
    pub payload_bytes: u64,
    /// Time the last datagram arrived, in nanoseconds.
    pub last_arrival_ns: u64,
    /// Time the first datagram arrived, in nanoseconds.
    pub first_arrival_ns: u64,
}

impl SinkStats {
    /// Goodput in bits per second between the first and last arrival.
    pub fn goodput_bps(&self) -> f64 {
        let span = self.last_arrival_ns.saturating_sub(self.first_arrival_ns);
        if span == 0 {
            return 0.0;
        }
        (self.payload_bytes as f64 * 8.0) / (span as f64 / 1e9)
    }
}

/// A node of the simulated network.
pub struct Node {
    /// Human-readable name (e.g. "S1", "R", "CPE").
    pub name: String,
    /// The SRv6 datapath this node runs.
    pub datapath: Seg6Datapath,
    /// CPU cost model (per core).
    pub cpu: CpuProfile,
    /// Per-receive-queue busy horizon: `rx_queue_busy_ns[q]` is the time
    /// until which queue `q`'s core is occupied by earlier packets. One
    /// entry means a single-core node (the paper's setup); more entries
    /// model an RSS-capable router whose queues are served by independent
    /// cores, as the multi-queue runtime does outside the simulator.
    pub rx_queue_busy_ns: Vec<u64>,
    /// Maximum backlog a CPU input queue may accumulate before dropping,
    /// in nanoseconds of work.
    pub cpu_queue_limit_ns: u64,
    /// Packets dropped because a CPU queue was full.
    pub cpu_drops: u64,
    /// Links attached to this node, by interface index.
    pub interfaces: HashMap<u32, usize>,
    /// Next interface index to allocate.
    pub next_ifindex: u32,
    /// UDP sink statistics, keyed by destination port.
    pub udp_sinks: HashMap<u16, SinkStats>,
    /// Total packets locally delivered (any protocol).
    pub delivered_packets: u64,
}

impl Node {
    /// Creates a node whose datapath answers for `addr`.
    pub fn new(name: impl Into<String>, addr: Ipv6Addr) -> Self {
        Node {
            name: name.into(),
            datapath: Seg6Datapath::new(addr),
            cpu: CpuProfile::unconstrained(),
            rx_queue_busy_ns: vec![0],
            cpu_queue_limit_ns: 5_000_000, // 5 ms of CPU backlog
            cpu_drops: 0,
            interfaces: HashMap::new(),
            next_ifindex: 1,
            udp_sinks: HashMap::new(),
            delivered_packets: 0,
        }
    }

    /// Gives the node `queues` receive queues, each served by its own core
    /// with the node's [`CpuProfile`]. Resets the busy horizons. Clamped to
    /// the slot count per-CPU maps are provisioned for by default, so
    /// queues never alias per-CPU map state.
    pub fn set_rx_queues(&mut self, queues: usize) {
        self.rx_queue_busy_ns = vec![0; queues.clamp(1, ebpf_vm::DEFAULT_NUM_CPUS as usize)];
    }

    /// Number of receive queues (cores) this node processes packets with.
    pub fn rx_queues(&self) -> usize {
        self.rx_queue_busy_ns.len()
    }

    /// The receive queue `packet` steers to, by RSS flow hash — packets of
    /// one flow always take the same queue, preserving per-flow ordering.
    pub fn rx_queue_for(&self, packet: &[u8]) -> usize {
        if self.rx_queue_busy_ns.len() == 1 {
            return 0;
        }
        netpkt::flow::steer(netpkt::flow::rss_hash_packet(packet), self.rx_queue_busy_ns.len())
    }

    /// Registers a link on a fresh interface and returns its index.
    pub fn attach_link(&mut self, link_id: usize) -> u32 {
        let ifindex = self.next_ifindex;
        self.next_ifindex += 1;
        self.interfaces.insert(ifindex, link_id);
        ifindex
    }

    /// The link attached to `ifindex`, if any.
    pub fn link_on(&self, ifindex: u32) -> Option<usize> {
        self.interfaces.get(&ifindex).copied()
    }

    /// Records the local delivery of a packet, updating the UDP sink
    /// statistics when it carries UDP (directly or inside one level of
    /// IPv6-in-IPv6 encapsulation).
    pub fn deliver_locally(&mut self, packet: &[u8], now_ns: u64) {
        self.delivered_packets += 1;
        let Ok(parsed) = ParsedPacket::parse(packet) else { return };
        if parsed.transport_proto != proto::UDP {
            return;
        }
        let Ok(udp) = UdpHeader::parse(&packet[parsed.transport_offset..]) else { return };
        let payload_len = (udp.length as usize).saturating_sub(netpkt::UDP_HEADER_LEN);
        let entry = self
            .udp_sinks
            .entry(udp.dst_port)
            .or_insert_with(|| SinkStats { first_arrival_ns: now_ns, ..Default::default() });
        entry.packets += 1;
        entry.payload_bytes += payload_len as u64;
        entry.last_arrival_ns = now_ns;
    }

    /// UDP sink statistics for `port`.
    pub fn sink(&self, port: u16) -> SinkStats {
        self.udp_sinks.get(&port).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::packet::build_ipv6_udp_packet;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn cpu_profile_costs_accumulate() {
        let cpu = CpuProfile::xeon();
        let plain = cpu.cost_ns(100, &WorkSummary::default());
        let with_bpf = cpu.cost_ns(100, &WorkSummary { bpf: true, ..Default::default() });
        let full = cpu.cost_ns(100, &WorkSummary { bpf: true, seg6local: true, transit: true });
        assert!(plain < with_bpf && with_bpf < full);
        // Disabling the JIT makes BPF work more expensive.
        let mut no_jit = cpu;
        no_jit.jit_enabled = false;
        assert!(no_jit.cost_ns(100, &WorkSummary { bpf: true, ..Default::default() }) > with_bpf);
    }

    #[test]
    fn xeon_profile_is_near_the_papers_baseline_rate() {
        // 610 kpps ≈ 1.64 µs per packet for 64-byte-payload packets.
        let cpu = CpuProfile::xeon();
        let cost = cpu.cost_ns(150, &WorkSummary::default());
        assert!((1_400..1_800).contains(&cost), "cost {cost}");
    }

    #[test]
    fn per_byte_cost_matters_on_the_cpe() {
        let cpu = CpuProfile::turris_omnia();
        let small = cpu.cost_ns(100, &WorkSummary::default());
        let large = cpu.cost_ns(1400, &WorkSummary::default());
        assert!(large > small + 2_000);
    }

    #[test]
    fn node_interfaces_are_allocated_sequentially() {
        let mut node = Node::new("R", addr("fc00::1"));
        assert_eq!(node.attach_link(10), 1);
        assert_eq!(node.attach_link(11), 2);
        assert_eq!(node.link_on(1), Some(10));
        assert_eq!(node.link_on(3), None);
    }

    #[test]
    fn udp_sink_accumulates_goodput() {
        let mut node = Node::new("S2", addr("fc00::2"));
        let pkt = build_ipv6_udp_packet(addr("fc00::1"), addr("fc00::2"), 1000, 5001, &[0u8; 100], 64);
        node.deliver_locally(pkt.data(), 1_000_000_000);
        node.deliver_locally(pkt.data(), 2_000_000_000);
        let sink = node.sink(5001);
        assert_eq!(sink.packets, 2);
        assert_eq!(sink.payload_bytes, 200);
        // 200 payload bytes over the 1-second span = 1600 bps.
        assert!((sink.goodput_bps() - 1600.0).abs() < 1.0);
        assert_eq!(node.sink(9999), SinkStats::default());
        assert_eq!(node.delivered_packets, 2);
    }

    #[test]
    fn non_udp_deliveries_count_but_do_not_touch_sinks() {
        let mut node = Node::new("S2", addr("fc00::2"));
        node.deliver_locally(&[0u8; 20], 0);
        assert_eq!(node.delivered_packets, 1);
        assert!(node.udp_sinks.is_empty());
    }
}
