//! A compact Reno-style TCP model (the `nttcp` role in §4.2).
//!
//! The hybrid-access experiment only depends on a few TCP behaviours:
//! cumulative ACKs, duplicate ACKs on out-of-order arrivals, fast
//! retransmit after three duplicates, slow start / congestion avoidance and
//! a retransmission timeout. That is exactly what this module implements —
//! enough for per-packet load balancing over two links with very different
//! delays to collapse the goodput, and for delay compensation to restore
//! it, as the paper reports (3.8 Mbps → ≈ 68 Mbps).
//!
//! Connections are modelled as already established (no handshake) and the
//! receive window is assumed large; both simplifications are documented in
//! DESIGN.md and do not affect the reordering phenomenon under study.

use netpkt::ipv6::proto;
use netpkt::tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
use netpkt::{Ipv6Header, PacketBuf, ParsedPacket};
use simnet::{AppApi, Application};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::{Arc, Mutex, PoisonError};

/// Default maximum segment size (payload bytes per segment).
pub const DEFAULT_MSS: usize = 1400;
/// Initial congestion window, in segments.
pub const INITIAL_WINDOW_SEGMENTS: u64 = 10;
/// Minimum retransmission timeout.
pub const MIN_RTO_NS: u64 = 200_000_000;
/// Maximum retransmission timeout.
pub const MAX_RTO_NS: u64 = 10_000_000_000;
/// Duplicate ACKs that trigger a fast retransmit (plain Reno's 3; the
/// RACK-style reordering window gates it further).
const DUPACK_THRESHOLD: u32 = 3;

#[allow(clippy::too_many_arguments)]
fn build_tcp_packet(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    src_port: u16,
    dst_port: u16,
    seq: u64,
    ack: u64,
    flags: TcpFlags,
    payload_len: usize,
) -> PacketBuf {
    let header = TcpHeader::new(src_port, dst_port, seq as u32, ack as u32, flags, u16::MAX);
    let mut segment = Vec::with_capacity(TCP_HEADER_LEN + payload_len);
    segment.extend_from_slice(&header.to_bytes());
    segment.extend(std::iter::repeat_n(0u8, payload_len));
    let ip = Ipv6Header::new(src, dst, proto::TCP, segment.len() as u16, 64);
    let mut pkt = PacketBuf::with_headroom(128);
    pkt.append(&segment);
    pkt.push_header(&ip.to_bytes());
    pkt
}

/// Extracts the TCP header and payload length from a (possibly delivered)
/// packet. Returns `None` for anything that is not TCP.
fn parse_tcp(packet: &PacketBuf) -> Option<(Ipv6Header, TcpHeader, usize)> {
    let parsed = ParsedPacket::parse(packet.data()).ok()?;
    if parsed.transport_proto != proto::TCP {
        return None;
    }
    let tcp = TcpHeader::parse(&packet.data()[parsed.transport_offset..]).ok()?;
    let payload_len = packet.len().saturating_sub(parsed.transport_offset + TCP_HEADER_LEN);
    let outer = parsed.inner.unwrap_or(parsed.outer);
    Some((outer, tcp, payload_len))
}

/// Statistics exposed by a [`TcpBulkSender`].
#[derive(Debug, Default, Clone)]
pub struct TcpSenderStats {
    /// Bytes acknowledged by the receiver.
    pub acked_bytes: u64,
    /// Segments retransmitted (any reason).
    pub retransmissions: u64,
    /// Fast retransmits triggered by three duplicate ACKs.
    pub fast_retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Time the first segment was sent.
    pub start_ns: u64,
    /// Time the last new byte was acknowledged.
    pub end_ns: u64,
    /// Whether the transfer completed.
    pub finished: bool,
    /// Smoothed RTT estimate at the end of the run, in nanoseconds.
    pub srtt_ns: u64,
}

impl TcpSenderStats {
    /// Goodput of the transfer in bits per second (acknowledged bytes over
    /// the transfer duration).
    pub fn goodput_bps(&self) -> f64 {
        let span = self.end_ns.saturating_sub(self.start_ns);
        if span == 0 {
            return 0.0;
        }
        self.acked_bytes as f64 * 8.0 / (span as f64 / 1e9)
    }
}

/// A bulk TCP sender (the `nttcp` client).
pub struct TcpBulkSender {
    src: Ipv6Addr,
    dst: Ipv6Addr,
    src_port: u16,
    dst_port: u16,
    mss: usize,
    total_bytes: u64,
    deadline_ns: u64,

    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dup_acks: u32,
    dup_ack_since_ns: Option<u64>,
    in_recovery: bool,
    recover: u64,

    srtt_ns: f64,
    rttvar_ns: f64,
    min_rtt_ns: f64,
    rto_ns: u64,
    rtt_probe: Option<(u64, u64)>,
    rto_generation: u64,

    stats: Arc<Mutex<TcpSenderStats>>,
}

impl TcpBulkSender {
    /// Creates a sender transferring `total_bytes` from `src` to
    /// `dst:dst_port`, plus a shared handle to its statistics. The transfer
    /// stops reporting after `deadline_ns` even if unfinished.
    pub fn new(
        src: Ipv6Addr,
        dst: Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        total_bytes: u64,
        deadline_ns: u64,
    ) -> (Self, Arc<Mutex<TcpSenderStats>>) {
        let stats = Arc::new(Mutex::new(TcpSenderStats::default()));
        let sender = TcpBulkSender {
            src,
            dst,
            src_port,
            dst_port,
            mss: DEFAULT_MSS,
            total_bytes,
            deadline_ns,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (INITIAL_WINDOW_SEGMENTS * DEFAULT_MSS as u64) as f64,
            ssthresh: f64::MAX / 4.0,
            dup_acks: 0,
            dup_ack_since_ns: None,
            in_recovery: false,
            recover: 0,
            srtt_ns: 0.0,
            rttvar_ns: 0.0,
            min_rtt_ns: f64::MAX,
            rto_ns: 1_000_000_000,
            rtt_probe: None,
            rto_generation: 0,
            stats: Arc::clone(&stats),
        };
        (sender, stats)
    }

    /// RACK-style reordering tolerance (RFC 8985): duplicate ACKs only
    /// trigger a fast retransmit once the gap has persisted for a quarter
    /// of the minimum RTT (queueing-free, as RACK specifies). Linux uses
    /// the same window, which is what lets a real sender ride out the
    /// small residual reordering left after delay compensation in §4.2
    /// while still collapsing under the uncompensated multi-millisecond
    /// path skew.
    fn reordering_window_ns(&self) -> u64 {
        if self.min_rtt_ns < f64::MAX {
            ((self.min_rtt_ns / 4.0) as u64).clamp(1_000_000, 50_000_000)
        } else {
            0
        }
    }

    fn mss_u64(&self) -> u64 {
        self.mss as u64
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn send_segment(&mut self, api: &mut AppApi<'_>, seq: u64) {
        let remaining = self.total_bytes.saturating_sub(seq);
        let len = remaining.min(self.mss_u64()) as usize;
        if len == 0 {
            return;
        }
        let pkt = build_tcp_packet(
            self.src,
            self.dst,
            self.src_port,
            self.dst_port,
            seq,
            0,
            TcpFlags::default(),
            len,
        );
        api.send(pkt);
        // Karn's algorithm: only time segments that are not retransmissions,
        // otherwise an ACK for the original transmission inflates the sample.
        if self.rtt_probe.is_none() && seq == self.snd_nxt {
            self.rtt_probe = Some((seq + len as u64, api.now_ns));
        }
    }

    fn send_window(&mut self, api: &mut AppApi<'_>) {
        let limit = self.snd_una + self.cwnd as u64;
        while self.snd_nxt < limit && self.snd_nxt < self.total_bytes {
            let seq = self.snd_nxt;
            let remaining = self.total_bytes - seq;
            let len = remaining.min(self.mss_u64());
            self.send_segment(api, seq);
            self.snd_nxt = seq + len;
        }
    }

    fn arm_rto(&mut self, api: &mut AppApi<'_>) {
        self.rto_generation += 1;
        api.schedule_timer(self.rto_ns, self.rto_generation);
    }

    fn update_rtt(&mut self, sample_ns: u64) {
        let sample = sample_ns as f64;
        if self.srtt_ns == 0.0 {
            self.srtt_ns = sample;
            self.rttvar_ns = sample / 2.0;
        } else {
            self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (self.srtt_ns - sample).abs();
            self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * sample;
        }
        self.min_rtt_ns = self.min_rtt_ns.min(sample);
        let rto = (self.srtt_ns + 4.0 * self.rttvar_ns) as u64;
        self.rto_ns = rto.clamp(MIN_RTO_NS, MAX_RTO_NS);
        // HyStart-like delay-based slow-start exit: once queueing delay
        // builds up noticeably beyond the minimum RTT, stop doubling. This
        // mirrors what Linux's slow-start heuristics achieve and avoids the
        // pathological multi-hundred-segment overshoot a plain Reno model
        // would exhibit on deep-buffered links.
        if self.cwnd < self.ssthresh {
            let threshold = self.min_rtt_ns + (self.min_rtt_ns / 4.0).max(4_000_000.0);
            if sample > threshold {
                self.ssthresh = self.cwnd;
            }
        }
    }

    fn on_ack(&mut self, api: &mut AppApi<'_>, ack: u64, now_ns: u64) {
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            if let Some((probe_seq, sent_ns)) = self.rtt_probe {
                if ack >= probe_seq {
                    self.update_rtt(now_ns - sent_ns);
                    self.rtt_probe = None;
                }
            }
            self.dup_acks = 0;
            self.dup_ack_since_ns = None;
            if self.in_recovery {
                if ack >= self.recover {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // Partial ACK: retransmit the next missing segment.
                    self.send_segment(api, self.snd_una);
                    self.stats.lock().unwrap_or_else(PoisonError::into_inner).retransmissions += 1;
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += newly.min(self.mss_u64()) as f64;
            } else {
                self.cwnd += (self.mss_u64() * self.mss_u64()) as f64 / self.cwnd;
            }
            {
                let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
                stats.acked_bytes = self.snd_una;
                stats.end_ns = now_ns;
                stats.srtt_ns = self.srtt_ns as u64;
                if self.snd_una >= self.total_bytes {
                    stats.finished = true;
                }
            }
            if self.snd_una >= self.total_bytes {
                return;
            }
            self.arm_rto(api);
            self.send_window(api);
        } else if ack == self.snd_una && self.flight() > 0 {
            self.dup_acks += 1;
            if self.dup_ack_since_ns.is_none() {
                self.dup_ack_since_ns = Some(now_ns);
            }
            let gap_age_ns = now_ns.saturating_sub(self.dup_ack_since_ns.unwrap_or(now_ns));
            let past_reordering_window = gap_age_ns >= self.reordering_window_ns();
            if self.dup_acks >= DUPACK_THRESHOLD && past_reordering_window && !self.in_recovery {
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * self.mss_u64() as f64);
                self.cwnd = self.ssthresh + 3.0 * self.mss_u64() as f64;
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.cwnd += 3.0 * self.mss_u64() as f64;
                self.send_segment(api, self.snd_una);
                let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
                stats.fast_retransmits += 1;
                stats.retransmissions += 1;
            } else if self.in_recovery {
                self.cwnd += self.mss_u64() as f64;
                self.send_window(api);
            }
        }
    }
}

impl Application for TcpBulkSender {
    fn on_start(&mut self, api: &mut AppApi<'_>) {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner).start_ns = api.now_ns;
        self.send_window(api);
        self.arm_rto(api);
    }

    fn on_packet(&mut self, api: &mut AppApi<'_>, packet: &PacketBuf) {
        if api.now_ns > self.deadline_ns {
            return;
        }
        let Some((ip, tcp, _len)) = parse_tcp(packet) else { return };
        if tcp.dst_port != self.src_port || tcp.src_port != self.dst_port || ip.src != self.dst {
            return;
        }
        if !tcp.flags.ack {
            return;
        }
        self.on_ack(api, u64::from(tcp.ack), api.now_ns);
    }

    fn on_timer(&mut self, api: &mut AppApi<'_>, timer_id: u64) {
        if timer_id != self.rto_generation || api.now_ns > self.deadline_ns {
            return;
        }
        if self.snd_una >= self.total_bytes {
            return;
        }
        if self.flight() == 0 {
            self.send_window(api);
            self.arm_rto(api);
            return;
        }
        // Retransmission timeout.
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * self.mss_u64() as f64);
        self.cwnd = self.mss_u64() as f64;
        self.dup_acks = 0;
        self.dup_ack_since_ns = None;
        self.in_recovery = false;
        self.snd_nxt = self.snd_una;
        self.rto_ns = (self.rto_ns * 2).min(MAX_RTO_NS);
        self.rtt_probe = None;
        {
            let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
            stats.timeouts += 1;
            stats.retransmissions += 1;
        }
        self.send_window(api);
        self.arm_rto(api);
    }
}

/// Statistics exposed by a [`TcpBulkReceiver`].
#[derive(Debug, Default, Clone)]
pub struct TcpReceiverStats {
    /// In-order bytes delivered to the application.
    pub delivered_bytes: u64,
    /// Segments that arrived out of order.
    pub out_of_order_segments: u64,
    /// Duplicate ACKs sent.
    pub dup_acks_sent: u64,
    /// Arrival time of the first data byte.
    pub first_data_ns: u64,
    /// Arrival time of the most recent in-order data byte.
    pub last_data_ns: u64,
}

impl TcpReceiverStats {
    /// Application-level goodput in bits per second.
    pub fn goodput_bps(&self) -> f64 {
        let span = self.last_data_ns.saturating_sub(self.first_data_ns);
        if span == 0 {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / (span as f64 / 1e9)
    }
}

/// A bulk TCP receiver (the `nttcp` server).
pub struct TcpBulkReceiver {
    addr: Ipv6Addr,
    port: u16,
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u64>,
    stats: Arc<Mutex<TcpReceiverStats>>,
}

impl TcpBulkReceiver {
    /// Creates a receiver listening on `addr`:`port`, plus a shared handle
    /// to its statistics.
    pub fn new(addr: Ipv6Addr, port: u16) -> (Self, Arc<Mutex<TcpReceiverStats>>) {
        let stats = Arc::new(Mutex::new(TcpReceiverStats::default()));
        (TcpBulkReceiver { addr, port, rcv_nxt: 0, ooo: BTreeMap::new(), stats: Arc::clone(&stats) }, stats)
    }
}

impl Application for TcpBulkReceiver {
    fn on_start(&mut self, _api: &mut AppApi<'_>) {}

    fn on_packet(&mut self, api: &mut AppApi<'_>, packet: &PacketBuf) {
        let Some((ip, tcp, payload_len)) = parse_tcp(packet) else { return };
        if tcp.dst_port != self.port || payload_len == 0 {
            return;
        }
        let seq = u64::from(tcp.seq);
        let end = seq + payload_len as u64;
        let mut duplicate = false;
        if seq == self.rcv_nxt {
            self.rcv_nxt = end;
            // Merge any buffered segments that are now contiguous.
            while let Some((&s, &e)) = self.ooo.iter().next() {
                if s > self.rcv_nxt {
                    break;
                }
                self.ooo.remove(&s);
                self.rcv_nxt = self.rcv_nxt.max(e);
            }
        } else if seq > self.rcv_nxt {
            self.ooo.insert(seq, end);
            duplicate = true;
        } else {
            duplicate = true;
        }
        {
            let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
            if stats.first_data_ns == 0 {
                stats.first_data_ns = api.now_ns;
            }
            stats.last_data_ns = api.now_ns;
            stats.delivered_bytes = self.rcv_nxt;
            if duplicate {
                if seq > self.rcv_nxt {
                    stats.out_of_order_segments += 1;
                }
                stats.dup_acks_sent += 1;
            }
        }
        // Cumulative ACK (duplicate or not).
        let ack_pkt =
            build_tcp_packet(self.addr, ip.src, self.port, tcp.src_port, 0, self.rcv_nxt, TcpFlags::ACK, 0);
        api.send(ack_pkt);
    }

    fn on_timer(&mut self, _api: &mut AppApi<'_>, _timer_id: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg6_core::Nexthop;
    use simnet::{LinkConfig, Simulator, NS_PER_SEC};

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn two_nodes(config: LinkConfig, seed: u64) -> (Simulator, usize, usize) {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node("A", addr("fc00::1"));
        let b = sim.add_node("B", addr("fc00::2"));
        sim.connect(a, b, config);
        sim.node_mut(a).datapath.add_route("fc00::2/128".parse().unwrap(), vec![Nexthop::direct(1)]);
        sim.node_mut(b).datapath.add_route("fc00::1/128".parse().unwrap(), vec![Nexthop::direct(1)]);
        (sim, a, b)
    }

    #[test]
    fn bulk_transfer_completes_on_a_clean_link() {
        let (mut sim, a, b) = two_nodes(LinkConfig::new(100_000_000, 5), 1);
        let total = 2_000_000u64;
        let (sender, sender_stats) =
            TcpBulkSender::new(addr("fc00::1"), addr("fc00::2"), 40_000, 5201, total, 60 * NS_PER_SEC);
        let (receiver, receiver_stats) = TcpBulkReceiver::new(addr("fc00::2"), 5201);
        sim.add_app(a, Box::new(sender));
        sim.add_app(b, Box::new(receiver));
        sim.run_until(60 * NS_PER_SEC);
        let s = sender_stats.lock().unwrap_or_else(PoisonError::into_inner);
        let r = receiver_stats.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(s.finished, "transfer did not finish: acked {}", s.acked_bytes);
        assert_eq!(s.acked_bytes, total);
        assert_eq!(r.delivered_bytes, total);
        // Goodput should approach (but not exceed) the 100 Mbps link.
        let goodput = r.goodput_bps();
        assert!(goodput > 20_000_000.0 && goodput < 100_000_000.0, "goodput {goodput}");
    }

    #[test]
    fn loss_triggers_retransmissions_but_the_transfer_still_completes() {
        let (mut sim, a, b) = two_nodes(LinkConfig::new(50_000_000, 5).with_loss(0.01), 2);
        let total = 500_000u64;
        let (sender, sender_stats) =
            TcpBulkSender::new(addr("fc00::1"), addr("fc00::2"), 40_001, 5201, total, 120 * NS_PER_SEC);
        let (receiver, receiver_stats) = TcpBulkReceiver::new(addr("fc00::2"), 5201);
        sim.add_app(a, Box::new(sender));
        sim.add_app(b, Box::new(receiver));
        sim.run_until(120 * NS_PER_SEC);
        let s = sender_stats.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(s.finished, "acked only {}", s.acked_bytes);
        assert!(s.retransmissions > 0);
        assert_eq!(receiver_stats.lock().unwrap_or_else(PoisonError::into_inner).delivered_bytes, total);
    }

    #[test]
    fn rtt_estimate_reflects_the_path_delay() {
        let (mut sim, a, b) = two_nodes(LinkConfig::new(100_000_000, 20), 3);
        let (sender, sender_stats) =
            TcpBulkSender::new(addr("fc00::1"), addr("fc00::2"), 40_002, 5201, 400_000, 60 * NS_PER_SEC);
        let (receiver, _) = TcpBulkReceiver::new(addr("fc00::2"), 5201);
        sim.add_app(a, Box::new(sender));
        sim.add_app(b, Box::new(receiver));
        sim.run_until(60 * NS_PER_SEC);
        let srtt = sender_stats.lock().unwrap_or_else(PoisonError::into_inner).srtt_ns;
        // One-way delay 20 ms each way -> RTT around 40 ms.
        assert!((35_000_000..80_000_000).contains(&srtt), "srtt {srtt}");
    }

    #[test]
    fn goodput_tracks_the_bottleneck_bandwidth() {
        // A slower link should yield a proportionally lower goodput.
        let (mut sim, a, b) = two_nodes(LinkConfig::new(10_000_000, 5), 4);
        let total = 2_000_000u64;
        let (sender, sender_stats) =
            TcpBulkSender::new(addr("fc00::1"), addr("fc00::2"), 40_003, 5201, total, 60 * NS_PER_SEC);
        let (receiver, receiver_stats) = TcpBulkReceiver::new(addr("fc00::2"), 5201);
        sim.add_app(a, Box::new(sender));
        sim.add_app(b, Box::new(receiver));
        sim.run_until(60 * NS_PER_SEC);
        assert!(sender_stats.lock().unwrap_or_else(PoisonError::into_inner).finished);
        let goodput = receiver_stats.lock().unwrap_or_else(PoisonError::into_inner).goodput_bps();
        assert!(goodput < 10_000_000.0, "goodput {goodput}");
        assert!(goodput > 3_000_000.0, "goodput {goodput}");
    }

    #[test]
    fn receiver_counts_out_of_order_segments() {
        // Deliver segments directly to the receiver out of order.
        let (receiver, stats) = TcpBulkReceiver::new(addr("fc00::2"), 5201);
        let mut receiver = receiver;
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        let mut api = AppApi::detached(0, 0, &mut outbox, &mut timers);
        let seg = |seq: u64| {
            build_tcp_packet(addr("fc00::1"), addr("fc00::2"), 40_000, 5201, seq, 0, TcpFlags::default(), 100)
        };
        receiver.on_packet(&mut api, &seg(100)); // out of order
        receiver.on_packet(&mut api, &seg(0)); // fills the gap
        let s = stats.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(s.delivered_bytes, 200);
        assert_eq!(s.out_of_order_segments, 1);
        assert_eq!(s.dup_acks_sent, 1);
        // Two ACKs were emitted.
        assert_eq!(outbox.len(), 2);
    }
}
