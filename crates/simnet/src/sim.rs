//! The discrete-event simulator: an event queue over nodes, links and
//! applications.
//!
//! The simulator reproduces the two lab setups of Figure 1: packets
//! injected by traffic generators enter a node's datapath, pay a CPU cost
//! taken from the node's [`crate::node::CpuProfile`], are forwarded over
//! links with finite bandwidth, propagation delay, jitter and loss
//! (the `tc netem` role), and are finally delivered to UDP sinks or
//! [`crate::app::Application`]s.

use crate::app::{AppApi, Application};
use crate::link::{Link, LinkConfig};
use crate::node::Node;
use crate::SplitMix64;
use netpkt::PacketBuf;
use seg6_core::{BatchVerdict, Skb, Verdict};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv6Addr;

/// One scheduled event.
#[derive(Debug)]
enum Event {
    /// A packet arrives at a node from a link.
    Arrive { node: usize, ifindex: u32, packet: Vec<u8> },
    /// A locally generated packet enters a node's datapath.
    Inject { node: usize, packet: Vec<u8> },
    /// An application timer fires.
    Timer { node: usize, app: usize, timer_id: u64 },
}

#[derive(Debug)]
struct Scheduled {
    time_ns: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time_ns == other.time_ns && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_ns, self.seq).cmp(&(other.time_ns, other.seq))
    }
}

/// Global simulation statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimStats {
    /// Events processed.
    pub events: u64,
    /// Packets injected by sources and applications.
    pub injected: u64,
    /// Packets delivered to a local host stack.
    pub delivered: u64,
    /// Packets dropped anywhere (CPU queues, link queues, loss, datapath).
    pub dropped: u64,
}

/// The discrete-event network simulator.
pub struct Simulator {
    nodes: Vec<Node>,
    links: Vec<Link>,
    apps: Vec<Vec<Box<dyn Application>>>,
    /// Reused output buffer of the per-packet datapath call.
    verdicts: Vec<BatchVerdict>,
    queue: BinaryHeap<Reverse<Scheduled>>,
    now_ns: u64,
    seq: u64,
    rng: SplitMix64,
    /// Aggregate statistics.
    pub stats: SimStats,
    started: bool,
}

impl Simulator {
    /// Creates a simulator with a deterministic RNG seed (the seed drives
    /// netem jitter and loss, so runs are reproducible).
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            links: Vec::new(),
            apps: Vec::new(),
            verdicts: Vec::with_capacity(1),
            queue: BinaryHeap::new(),
            now_ns: 0,
            seq: 0,
            rng: SplitMix64::new(seed),
            stats: SimStats::default(),
            started: false,
        }
    }

    /// Current simulation time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: &str, addr: Ipv6Addr) -> usize {
        self.nodes.push(Node::new(name, addr));
        self.apps.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Immutable access to a node.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Mutable access to a node (to configure its datapath, CPU profile or
    /// host addresses).
    pub fn node_mut(&mut self, id: usize) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Immutable access to a link.
    pub fn link(&self, id: usize) -> &Link {
        &self.links[id]
    }

    /// Connects two nodes with a symmetric link; returns
    /// `(link_id, ifindex_on_a, ifindex_on_b)`.
    pub fn connect(&mut self, a: usize, b: usize, config: LinkConfig) -> (usize, u32, u32) {
        self.connect_asymmetric(a, b, config, config)
    }

    /// Connects two nodes with per-direction configurations; returns
    /// `(link_id, ifindex_on_a, ifindex_on_b)`.
    pub fn connect_asymmetric(
        &mut self,
        a: usize,
        b: usize,
        config_ab: LinkConfig,
        config_ba: LinkConfig,
    ) -> (usize, u32, u32) {
        let link_id = self.links.len();
        let if_a = self.nodes[a].attach_link(link_id);
        let if_b = self.nodes[b].attach_link(link_id);
        self.links.push(Link {
            a: (a, if_a),
            b: (b, if_b),
            config_ab,
            config_ba,
            state_ab: Default::default(),
            state_ba: Default::default(),
        });
        (link_id, if_a, if_b)
    }

    /// Adds an extra fixed delay to the direction of `link_id` leaving
    /// `from_node` — the knob the delay-compensation daemon of §4.2 turns
    /// with `tc netem`.
    pub fn set_link_extra_delay(&mut self, link_id: usize, from_node: usize, extra_ns: u64) {
        self.links[link_id].state_from_mut(from_node).extra_delay_ns = extra_ns;
    }

    /// Attaches an application to a node and returns its index.
    pub fn add_app(&mut self, node: usize, app: Box<dyn Application>) -> usize {
        self.apps[node].push(app);
        self.apps[node].len() - 1
    }

    /// Schedules the injection of `packet` at `node` at absolute time
    /// `time_ns` (traffic generators use this).
    pub fn inject_at(&mut self, time_ns: u64, node: usize, packet: PacketBuf) {
        self.stats.injected += 1;
        self.schedule(time_ns, Event::Inject { node, packet: packet.data().to_vec() });
    }

    fn schedule(&mut self, time_ns: u64, event: Event) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { time_ns, seq: self.seq, event }));
    }

    /// Runs until the event queue is empty or the time horizon is reached.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, horizon_ns: u64) -> u64 {
        if !self.started {
            self.started = true;
            self.start_apps();
        }
        let mut processed = 0;
        while let Some(Reverse(next)) = self.queue.peek() {
            if next.time_ns > horizon_ns {
                break;
            }
            let Reverse(scheduled) = self.queue.pop().expect("peeked");
            self.now_ns = scheduled.time_ns;
            self.stats.events += 1;
            processed += 1;
            match scheduled.event {
                Event::Arrive { node, ifindex, packet } => self.handle_packet(node, Some(ifindex), packet),
                Event::Inject { node, packet } => self.handle_packet(node, None, packet),
                Event::Timer { node, app, timer_id } => self.handle_timer(node, app, timer_id),
            }
        }
        self.now_ns = self.now_ns.max(horizon_ns.min(self.now_ns));
        processed
    }

    /// Runs until no events remain (use with care: open-loop sources can
    /// keep the queue non-empty forever).
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(u64::MAX)
    }

    fn start_apps(&mut self) {
        for node_id in 0..self.nodes.len() {
            let mut apps = std::mem::take(&mut self.apps[node_id]);
            for (app_idx, app) in apps.iter_mut().enumerate() {
                let mut outbox = Vec::new();
                let mut timers = Vec::new();
                {
                    let mut api =
                        AppApi { now_ns: self.now_ns, node_id, outbox: &mut outbox, timers: &mut timers };
                    app.on_start(&mut api);
                }
                self.flush_app_effects(node_id, app_idx, outbox, timers);
            }
            self.apps[node_id] = apps;
        }
    }

    fn flush_app_effects(
        &mut self,
        node_id: usize,
        app_idx: usize,
        outbox: Vec<(u64, PacketBuf)>,
        timers: Vec<(u64, u64)>,
    ) {
        for (time_ns, packet) in outbox {
            self.stats.injected += 1;
            self.schedule(time_ns, Event::Inject { node: node_id, packet: packet.data().to_vec() });
        }
        for (time_ns, timer_id) in timers {
            self.schedule(time_ns, Event::Timer { node: node_id, app: app_idx, timer_id });
        }
    }

    fn handle_timer(&mut self, node_id: usize, app_idx: usize, timer_id: u64) {
        let mut apps = std::mem::take(&mut self.apps[node_id]);
        if let Some(app) = apps.get_mut(app_idx) {
            let mut outbox = Vec::new();
            let mut timers = Vec::new();
            {
                let mut api =
                    AppApi { now_ns: self.now_ns, node_id, outbox: &mut outbox, timers: &mut timers };
                app.on_timer(&mut api, timer_id);
            }
            self.apps[node_id] = apps;
            self.flush_app_effects(node_id, app_idx, outbox, timers);
        } else {
            self.apps[node_id] = apps;
        }
    }

    fn handle_packet(&mut self, node_id: usize, _ingress: Option<u32>, packet: Vec<u8>) {
        // CPU admission: the packet's flow steers it to one receive queue
        // (RSS), each queue's core processes serially, and the packet is
        // dropped if that queue's backlog exceeds the node's limit.
        let node = &mut self.nodes[node_id];
        let queue = node.rx_queue_for(&packet);
        let queue_start_ns = node.rx_queue_busy_ns[queue].max(self.now_ns);
        if queue_start_ns - self.now_ns > node.cpu_queue_limit_ns {
            node.cpu_drops += 1;
            self.stats.dropped += 1;
            return;
        }
        let mut skb = Skb::received(PacketBuf::from_slice(&packet), self.now_ns, 0);
        // The datapath instance runs "on" the queue's core: programs
        // observe the queue index as their CPU id, so per-CPU map slots
        // and perf rings shard by queue inside the simulator too.
        node.datapath.cpu_id = queue as u32;
        node.datapath.process_batch_verdicts_into(
            std::slice::from_mut(&mut skb),
            self.now_ns,
            &mut self.verdicts,
        );
        let bv = self.verdicts.pop().expect("one verdict per packet");
        let start_ns = queue_start_ns + node.cpu.cost_ns(packet.len(), &bv.work);
        node.rx_queue_busy_ns[queue] = start_ns;
        let packet_after = skb.packet.data().to_vec();
        match bv.verdict {
            Verdict::Forward { oif, .. } => {
                let Some(link_id) = self.nodes[node_id].link_on(oif) else {
                    self.stats.dropped += 1;
                    return;
                };
                self.transmit(link_id, node_id, packet_after, start_ns);
            }
            Verdict::LocalDeliver => {
                self.stats.delivered += 1;
                self.nodes[node_id].deliver_locally(&packet_after, self.now_ns);
                self.deliver_to_apps(node_id, &packet_after);
            }
            Verdict::Drop(_) => {
                self.stats.dropped += 1;
            }
        }
    }

    fn deliver_to_apps(&mut self, node_id: usize, packet: &[u8]) {
        let mut apps = std::mem::take(&mut self.apps[node_id]);
        let buf = PacketBuf::from_slice(packet);
        let mut effects = Vec::new();
        for (app_idx, app) in apps.iter_mut().enumerate() {
            let mut outbox = Vec::new();
            let mut timers = Vec::new();
            {
                let mut api =
                    AppApi { now_ns: self.now_ns, node_id, outbox: &mut outbox, timers: &mut timers };
                app.on_packet(&mut api, &buf);
            }
            effects.push((app_idx, outbox, timers));
        }
        self.apps[node_id] = apps;
        for (app_idx, outbox, timers) in effects {
            self.flush_app_effects(node_id, app_idx, outbox, timers);
        }
    }

    fn transmit(&mut self, link_id: usize, from_node: usize, packet: Vec<u8>, ready_ns: u64) {
        let (peer, config, arrival_ns, dropped) = {
            let link = &mut self.links[link_id];
            let Some((peer, _)) = link.peer_of(from_node) else {
                return;
            };
            let config = *link.config_from(from_node);
            let state = link.state_from_mut(from_node);
            // Tail-drop when the transmit queue (expressed as waiting time)
            // is full.
            let start_tx = state.busy_until_ns.max(ready_ns);
            if start_tx - ready_ns > config.max_queue_wait_ns() {
                state.queue_drops += 1;
                (peer, config, 0, true)
            } else {
                let tx_done = start_tx + config.serialization_ns(packet.len());
                state.busy_until_ns = tx_done;
                state.tx_packets += 1;
                state.tx_bytes += packet.len() as u64;
                let extra = state.extra_delay_ns;
                // Random loss.
                let lost = config.loss > 0.0 && self.rng.gen_bool(config.loss);
                if lost {
                    state.loss_drops += 1;
                    (peer, config, 0, true)
                } else {
                    let jitter = if config.jitter_ns > 0 {
                        self.rng.gen_range(0..=2 * config.jitter_ns)
                    } else {
                        config.jitter_ns
                    };
                    // jitter is sampled in [0, 2j] around the nominal delay,
                    // i.e. delay - j + sample, floored at the serialisation
                    // end. The link is a FIFO pipe: a packet can never
                    // arrive before one transmitted earlier on the same
                    // direction.
                    let nominal = config.delay_ns + extra;
                    let delay = nominal.saturating_sub(config.jitter_ns) + jitter;
                    let arrival = (tx_done + delay).max(state.last_arrival_ns);
                    state.last_arrival_ns = arrival;
                    (peer, config, arrival, false)
                }
            }
        };
        let _ = config;
        if dropped {
            self.stats.dropped += 1;
            return;
        }
        self.schedule(arrival_ns, Event::Arrive { node: peer.0, ifindex: peer.1, packet });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::node::CpuProfile;
    use netpkt::packet::build_ipv6_udp_packet;
    use seg6_core::Nexthop;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    /// Builds the 3-node chain of the paper's setup 1: S1 — R — S2.
    fn three_node_chain(cpu_r: CpuProfile) -> (Simulator, usize, usize, usize) {
        let mut sim = Simulator::new(1);
        let s1 = sim.add_node("S1", addr("fc00::a1"));
        let r = sim.add_node("R", addr("fc00::11"));
        let s2 = sim.add_node("S2", addr("fc00::a2"));
        let (_, _s1_if, r_if_left) = sim.connect(s1, r, LinkConfig::lab_10g());
        let (_, r_if_right, _s2_if) = sim.connect(r, s2, LinkConfig::lab_10g());
        sim.node_mut(r).cpu = cpu_r;
        // Routing: S1 sends everything to R; R routes S2's address right.
        sim.node_mut(s1).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        sim.node_mut(r)
            .datapath
            .add_route("fc00::a2/128".parse().unwrap(), vec![Nexthop::direct(r_if_right)]);
        sim.node_mut(r).datapath.add_route("fc00::a1/128".parse().unwrap(), vec![Nexthop::direct(r_if_left)]);
        (sim, s1, r, s2)
    }

    #[test]
    fn packets_flow_across_the_chain() {
        let (mut sim, s1, _r, s2) = three_node_chain(CpuProfile::unconstrained());
        for i in 0..10u64 {
            let pkt = build_ipv6_udp_packet(addr("fc00::a1"), addr("fc00::a2"), 1000, 5001, &[0u8; 64], 64);
            sim.inject_at(i * 1_000, s1, pkt);
        }
        sim.run_to_completion();
        assert_eq!(sim.node(s2).sink(5001).packets, 10);
        assert_eq!(sim.stats.delivered, 10);
        assert_eq!(sim.stats.dropped, 0);
        // Arrival time includes both links' propagation delays.
        assert!(sim.node(s2).sink(5001).first_arrival_ns >= 100_000);
    }

    #[test]
    fn cpu_bottleneck_limits_throughput() {
        // R takes 10 µs per packet; sending 1000 packets back-to-back can
        // only drain at 100 kpps, and the CPU queue (5 ms) only holds 500 of
        // them.
        let slow = CpuProfile {
            forward_ns: 10_000,
            seg6local_ns: 0,
            encap_ns: 0,
            bpf_jit_ns: 0,
            bpf_interp_ns: 0,
            per_byte_ns_x1000: 0,
            jit_enabled: true,
        };
        let (mut sim, s1, r, s2) = three_node_chain(slow);
        for i in 0..1000u64 {
            let pkt = build_ipv6_udp_packet(addr("fc00::a1"), addr("fc00::a2"), 1000, 5001, &[0u8; 64], 64);
            sim.inject_at(i * 100, s1, pkt); // 10x faster than R can forward
        }
        sim.run_to_completion();
        let received = sim.node(s2).sink(5001).packets;
        assert!(received < 1000, "received {received}");
        assert!(sim.node(r).cpu_drops > 0);
        assert_eq!(received + sim.node(r).cpu_drops, 1000);
    }

    #[test]
    fn multi_queue_router_scales_with_its_queues() {
        // Same CPU-bound router as above, but packets come from many flows.
        // With Q receive queues the node forwards close to Q times more
        // before its per-queue backlogs fill.
        let slow = CpuProfile {
            forward_ns: 10_000,
            seg6local_ns: 0,
            encap_ns: 0,
            bpf_jit_ns: 0,
            bpf_interp_ns: 0,
            per_byte_ns_x1000: 0,
            jit_enabled: true,
        };
        let mut received = Vec::new();
        for queues in [1usize, 4] {
            let (mut sim, s1, r, s2) = three_node_chain(slow);
            sim.node_mut(r).set_rx_queues(queues);
            assert_eq!(sim.node(r).rx_queues(), queues);
            for i in 0..2000u64 {
                // 2000 packets over 200 distinct flows, 10x faster than one
                // core can forward.
                let pkt = build_ipv6_udp_packet(
                    addr("fc00::a1"),
                    addr("fc00::a2"),
                    1000 + (i % 200) as u16,
                    5001,
                    &[0u8; 64],
                    64,
                );
                sim.inject_at(i * 100, s1, pkt);
            }
            sim.run_to_completion();
            received.push(sim.node(s2).sink(5001).packets);
        }
        let (one, four) = (received[0], received[1]);
        assert!(four > one * 3, "1 queue: {one}, 4 queues: {four}");
    }

    /// Simulated time is deterministic: a 4-queue router under a workload
    /// covering forwarding, seg6local, local delivery and unroutable drops
    /// — with a non-zero cost for every work class, so a wrong work flag
    /// would shift busy horizons — reproduces the arrival timestamps and
    /// counters recorded before the per-packet work summary moved into
    /// `seg6-core`, to the nanosecond.
    #[test]
    fn multi_queue_router_timestamps_are_pinned() {
        use crate::node::SinkStats;
        use netpkt::packet::build_srv6_udp_packet;
        use netpkt::srh::SegmentRoutingHeader;
        use seg6_core::{DropReason, Seg6LocalAction};

        let (mut sim, s1, r, s2) = three_node_chain(CpuProfile::xeon());
        sim.node_mut(r).datapath.add_local_sid("fc00::e1/128".parse().unwrap(), Seg6LocalAction::End);
        sim.node_mut(r).set_rx_queues(4);
        for i in 0..1200u64 {
            let flow = (1000 + i % 100) as u16;
            let pkt = match i % 4 {
                // Plain forwarding through R towards the S2 sink.
                0..=1 => {
                    build_ipv6_udp_packet(addr("fc00::a1"), addr("fc00::a2"), flow, 5001, &[0u8; 64], 64)
                }
                // seg6local End at R, then on to S2.
                2 => {
                    let srh = SegmentRoutingHeader::from_path(
                        netpkt::ipv6::proto::UDP,
                        &[addr("fc00::e1"), addr("fc00::a2")],
                    );
                    build_srv6_udp_packet(addr("fc00::a1"), &srh, flow, 5002, &[0u8; 64], 64)
                }
                // Local delivery at R itself.
                _ => build_ipv6_udp_packet(addr("fc00::a1"), addr("fc00::11"), flow, 7001, &[0u8; 32], 64),
            };
            sim.inject_at(i * 300, s1, pkt);
        }
        // Unroutable packets: dropped at R.
        for i in 0..50u64 {
            let pkt = build_ipv6_udp_packet(addr("fc00::a1"), addr("3001::1"), 9000, 9000, &[0u8; 32], 64);
            sim.inject_at(i * 1_000, s1, pkt);
        }
        sim.run_to_completion();

        let sink = |packets, payload_bytes, first_arrival_ns, last_arrival_ns| SinkStats {
            packets,
            payload_bytes,
            last_arrival_ns,
            first_arrival_ns,
        };
        assert_eq!(sim.node(s2).sink(5001), sink(600, 38_400, 101_684, 658_322));
        assert_eq!(sim.node(s2).sink(5002), sink(300, 19_200, 102_501, 658_443));
        assert_eq!(sim.node(r).sink(7001), sink(300, 9_600, 50_964, 409_764));
        assert_eq!(sim.node(r).delivered_packets, 300);
        assert_eq!(sim.node(r).cpu_drops, 0);
        assert_eq!((sim.stats.events, sim.stats.delivered, sim.stats.dropped), (3400, 1200, 50));
        let stats = &sim.node(r).datapath.stats;
        assert_eq!((stats.received, stats.forwarded, stats.local_delivered), (1250, 900, 300));
        assert_eq!(stats.seg6local_invocations, 300);
        assert_eq!(stats.dropped_for(DropReason::NoRoute), 50);
    }

    /// Two routers each route through their own **VRF** via `End.T` /
    /// `End.DT6`: the main tables would drop or mis-route, so delivery
    /// proves each node's VRF lookup was used.
    #[test]
    fn routers_route_via_their_own_vrf_tables() {
        use netpkt::srh::SegmentRoutingHeader;
        use seg6_core::Seg6LocalAction;

        let mut sim = Simulator::new(3);
        let s1 = sim.add_node("S1", addr("fc00::a1"));
        let r1 = sim.add_node("R1", addr("fc00::11"));
        let r2 = sim.add_node("R2", addr("fc00::12"));
        let s2 = sim.add_node("S2", addr("fc00::a2"));
        sim.connect(s1, r1, LinkConfig::lab_10g());
        let (_, r1_right, _) = sim.connect(r1, r2, LinkConfig::lab_10g());
        let (_, r2_right, _) = sim.connect(r2, s2, LinkConfig::lab_10g());
        sim.node_mut(s1).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);

        // R1: End.T via its own VRF — the *main* table routes the next
        // segment to a dead interface (would be dropped), the VRF routes
        // it onward to R2. Delivery therefore proves the VRF was used.
        {
            let dp = &mut sim.node_mut(r1).datapath;
            dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::direct(99)]);
            let vrf = dp.add_route_in_vrf(
                "r1-tenant",
                "fc00::/16".parse().unwrap(),
                vec![Nexthop::direct(r1_right)],
            );
            dp.add_local_sid("fc00::e1/128".parse().unwrap(), Seg6LocalAction::end_t(vrf));
        }
        // R2: End.DT6 via its own VRF — decapsulates and looks the inner
        // destination up in the VRF (main has no route for it at all).
        {
            let dp = &mut sim.node_mut(r2).datapath;
            let vrf = dp.add_route_in_vrf(
                "r2-tenant",
                "fc00::a2/128".parse().unwrap(),
                vec![Nexthop::direct(r2_right)],
            );
            dp.add_local_sid("fc00::d6/128".parse().unwrap(), Seg6LocalAction::end_dt6(vrf));
        }
        sim.node_mut(r1).set_rx_queues(2);
        sim.node_mut(r2).set_rx_queues(2);

        // IPv6-in-IPv6: outer SRH visits R1's End.T SID then R2's End.DT6
        // SID; the decapsulated inner packet is a UDP datagram to S2.
        for i in 0..32u64 {
            let inner = build_ipv6_udp_packet(
                addr("fc00::a1"),
                addr("fc00::a2"),
                (1000 + i) as u16,
                5003,
                &[0u8; 48],
                64,
            );
            let mut packet = inner.data().to_vec();
            let srh = SegmentRoutingHeader::from_path(
                netpkt::ipv6::proto::IPV6,
                &[addr("fc00::e1"), addr("fc00::d6")],
            );
            seg6_core::srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addr("fc00::a1")).unwrap();
            sim.inject_at(i * 2_000, s1, PacketBuf::from_slice(&packet));
        }
        sim.run_to_completion();

        // Every packet crossed both VRF lookups and was delivered,
        // decapsulated, at the sink.
        assert_eq!(sim.node(s2).sink(5003).packets, 32);
        assert_eq!(sim.stats.dropped, 0);
        assert_eq!(sim.node(r1).datapath.stats.seg6local_invocations, 32);
        assert_eq!(sim.node(r2).datapath.stats.seg6local_invocations, 32);
    }

    #[test]
    fn link_bandwidth_paces_delivery() {
        // 1500-byte packets over a 12 Mbps link take 1 ms each.
        let mut sim = Simulator::new(2);
        let a = sim.add_node("A", addr("fc00::1"));
        let b = sim.add_node("B", addr("fc00::2"));
        sim.connect(a, b, LinkConfig::new(12_000_000, 0));
        sim.node_mut(a).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        for _ in 0..10 {
            let pkt = build_ipv6_udp_packet(addr("fc00::1"), addr("fc00::2"), 1, 5001, &[0u8; 1452], 64);
            sim.inject_at(0, a, pkt);
        }
        sim.run_to_completion();
        let sink = sim.node(b).sink(5001);
        assert_eq!(sink.packets, 10);
        // The last packet cannot arrive before 10 serialisation times.
        assert!(sink.last_arrival_ns >= 9_900_000, "last arrival {}", sink.last_arrival_ns);
    }

    #[test]
    fn loss_drops_packets_deterministically_per_seed() {
        let mut sim = Simulator::new(42);
        let a = sim.add_node("A", addr("fc00::1"));
        let b = sim.add_node("B", addr("fc00::2"));
        sim.connect(a, b, LinkConfig::new(1_000_000_000, 1).with_loss(0.5));
        sim.node_mut(a).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        for i in 0..100u64 {
            let pkt = build_ipv6_udp_packet(addr("fc00::1"), addr("fc00::2"), 1, 5001, &[0u8; 64], 64);
            sim.inject_at(i * 10_000, a, pkt);
        }
        sim.run_to_completion();
        let received = sim.node(b).sink(5001).packets;
        assert!(received > 20 && received < 80, "received {received}");
        assert_eq!(sim.stats.dropped + received, 100);
    }

    #[test]
    fn extra_delay_shifts_arrivals() {
        let mut sim = Simulator::new(3);
        let a = sim.add_node("A", addr("fc00::1"));
        let b = sim.add_node("B", addr("fc00::2"));
        let (link, _, _) = sim.connect(a, b, LinkConfig::new(1_000_000_000, 1));
        sim.node_mut(a).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        sim.set_link_extra_delay(link, a, 5_000_000);
        let pkt = build_ipv6_udp_packet(addr("fc00::1"), addr("fc00::2"), 1, 5001, &[0u8; 64], 64);
        sim.inject_at(0, a, pkt);
        sim.run_to_completion();
        assert!(sim.node(b).sink(5001).first_arrival_ns >= 6_000_000);
    }

    #[test]
    fn timers_and_app_packets_flow() {
        struct Ticker {
            sent: u64,
            dst: Ipv6Addr,
            src: Ipv6Addr,
        }
        impl Application for Ticker {
            fn on_start(&mut self, api: &mut AppApi<'_>) {
                api.schedule_timer(1_000, 1);
            }
            fn on_packet(&mut self, _api: &mut AppApi<'_>, _packet: &PacketBuf) {}
            fn on_timer(&mut self, api: &mut AppApi<'_>, timer_id: u64) {
                assert_eq!(timer_id, 1);
                self.sent += 1;
                api.send(build_ipv6_udp_packet(self.src, self.dst, 1, 7000, &[0u8; 10], 64));
                if self.sent < 5 {
                    api.schedule_timer(1_000, 1);
                }
            }
        }
        let mut sim = Simulator::new(4);
        let a = sim.add_node("A", addr("fc00::1"));
        let b = sim.add_node("B", addr("fc00::2"));
        sim.connect(a, b, LinkConfig::gigabit());
        sim.node_mut(a).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        sim.add_app(a, Box::new(Ticker { sent: 0, dst: addr("fc00::2"), src: addr("fc00::1") }));
        sim.run_until(1_000_000_000);
        assert_eq!(sim.node(b).sink(7000).packets, 5);
        assert!(sim.stats.events > 0);
    }

    #[test]
    fn queue_overflow_tail_drops() {
        // A tiny queue (one packet worth) on a slow link: a burst mostly
        // drops.
        let mut sim = Simulator::new(5);
        let a = sim.add_node("A", addr("fc00::1"));
        let b = sim.add_node("B", addr("fc00::2"));
        sim.connect(a, b, LinkConfig::new(1_000_000, 0).with_queue_bytes(1_500));
        sim.node_mut(a).datapath.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        for _ in 0..20 {
            let pkt = build_ipv6_udp_packet(addr("fc00::1"), addr("fc00::2"), 1, 5001, &[0u8; 1000], 64);
            sim.inject_at(0, a, pkt);
        }
        sim.run_to_completion();
        let link = sim.link(0);
        assert!(link.state_from(a).queue_drops > 0);
        assert!(sim.node(b).sink(5001).packets < 20);
    }
}
