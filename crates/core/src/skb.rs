//! The socket-buffer analogue carried through the data plane.
//!
//! A [`Skb`] bundles the packet bytes with the metadata the kernel keeps
//! alongside them: receive timestamp, ingress interface, mark, and — central
//! to the paper's `BPF_REDIRECT` semantics — the destination/next-hop
//! override that `bpf_lwt_seg6_action` installs so that the default
//! endpoint lookup is skipped after the program returns. [`SkbPacket`] is
//! how everything that resizes the packet edits it in place, and
//! [`SavedHead`] how a hook undoes a run that failed.

use crate::fib::TableId;
use ebpf_vm::Packet;
use netpkt::ipv6::IPV6_HEADER_LEN;
use netpkt::packet::HeaderChain;
use netpkt::PacketBuf;
use std::net::Ipv6Addr;

/// Routing decision attached to the packet by a helper or by the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteOverride {
    /// Forward to this layer-3 neighbour instead of looking the destination
    /// up in the FIB (set by `End.X`).
    pub nexthop: Option<Ipv6Addr>,
    /// Interface the packet must leave through.
    pub oif: Option<u32>,
    /// Table the destination must be looked up in (set by `End.T` /
    /// `End.DT6`).
    pub table: Option<TableId>,
}

impl RouteOverride {
    /// Whether any field is set.
    pub fn is_set(&self) -> bool {
        self.nexthop.is_some() || self.oif.is_some() || self.table.is_some()
    }
}

/// A packet plus its kernel-side metadata.
#[derive(Debug, Clone)]
pub struct Skb {
    /// The packet bytes, starting at the outermost IPv6 header.
    pub packet: PacketBuf,
    /// Time the packet entered the node, in simulation nanoseconds: the
    /// context's RX software timestamp, and what a worker's clock (the
    /// `bpf_ktime_get_ns` of `End.DM`) advances to.
    pub rx_timestamp_ns: u64,
    /// Interface the packet arrived on.
    pub ingress_ifindex: u32,
    /// Netfilter-style mark, writable by eBPF programs via the context.
    pub mark: u32,
    /// Destination override installed by SRv6 actions.
    pub route_override: RouteOverride,
}

impl Skb {
    /// Wraps a packet with default metadata.
    pub fn new(packet: PacketBuf) -> Self {
        Skb {
            packet,
            rx_timestamp_ns: 0,
            ingress_ifindex: 0,
            mark: 0,
            route_override: RouteOverride::default(),
        }
    }

    /// Wraps a packet received at `rx_timestamp_ns` on `ingress_ifindex`.
    #[inline]
    pub fn received(packet: PacketBuf, rx_timestamp_ns: u64, ingress_ifindex: u32) -> Self {
        Skb { packet, rx_timestamp_ns, ingress_ifindex, mark: 0, route_override: RouteOverride::default() }
    }

    /// Consumes the skb and hands its packet buffer back — the recycle
    /// hand-off of the ingestion loop: after the flush barrier, the
    /// dispatcher returns each processed packet's storage to the
    /// `netpkt::BufPool` arena, so the next packet reuses the allocation.
    /// The metadata (timestamps, overrides) is dropped with the skb.
    #[inline]
    pub fn into_packet(self) -> PacketBuf {
        self.packet
    }

    /// Packet length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.packet.len()
    }

    /// Whether the packet is empty.
    pub fn is_empty(&self) -> bool {
        self.packet.is_empty()
    }
}

/// The skb's packet as programs, helpers and the static behaviours edit
/// it: in place, in its [`PacketBuf`]. A resize moves the bytes in front
/// of the edit through the headroom (`skb_push` / `skb_pull` plus a header
/// memmove) and leaves everything behind it where it is — an encapsulation
/// writes only its headers, a decapsulation is a pull.
#[derive(Debug)]
pub struct SkbPacket<'a>(pub &'a mut PacketBuf);

impl Packet for SkbPacket<'_> {
    fn bytes(&self) -> &[u8] {
        self.0.data()
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        self.0.data_mut()
    }

    fn insert(&mut self, at: usize, n: usize) {
        self.0.insert(at, n);
    }

    fn remove(&mut self, at: usize, n: usize) {
        self.0.remove(at, n);
    }
}

/// A packet's head — its IPv6 header and the routing header behind it, or
/// the IPv6 header alone — saved before a hook's first write, so a run that
/// fails can be undone.
///
/// [`SkbPacket`]'s edits move only the bytes in front of them, and every
/// write lands in the head: the SRH advance, the helpers' SRH edits, pushed
/// and pulled headers. The bytes behind the head are never written and can
/// only move as one block, so the saved head put back in front of them is
/// the packet exactly as it arrived. (One program can reach behind it: one
/// that decapsulates with `bpf_lwt_seg6_action` and then edits the inner
/// packet's SRH. If it then faults, the restored packet keeps that edit.)
/// The buffer is reused across packets: no allocation once it has grown to
/// the largest head seen.
#[derive(Debug, Default)]
pub struct SavedHead {
    head: Vec<u8>,
    /// Length of the whole packet when it was saved.
    len: usize,
}

impl SavedHead {
    /// Saves the head of `packet`.
    pub fn save(&mut self, packet: &[u8]) {
        let head = HeaderChain::walk(packet).routing().map_or(IPV6_HEADER_LEN, |routing| routing.end);
        self.head.clear();
        self.head.extend_from_slice(&packet[..head.min(packet.len())]);
        self.len = packet.len();
    }

    /// Puts the saved head back in front of the untouched tail: the
    /// packet's length and bytes are again those [`SavedHead::save`] saw.
    pub fn restore(&self, packet: &mut PacketBuf) {
        let len = packet.len();
        if len > self.len {
            packet.remove(0, len - self.len);
        } else {
            packet.insert(0, self.len - len);
        }
        packet.data_mut()[..self.head.len()].copy_from_slice(&self.head);
    }

    /// How many bytes the last [`SavedHead::save`] kept.
    #[cfg(test)]
    pub(crate) fn head_len(&self) -> usize {
        self.head.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_has_no_override() {
        let skb = Skb::new(PacketBuf::from_slice(&[1, 2, 3]));
        assert_eq!(skb.len(), 3);
        assert!(!skb.is_empty());
        assert!(!skb.route_override.is_set());
    }

    #[test]
    fn received_records_timestamp_and_ifindex() {
        let skb = Skb::received(PacketBuf::from_slice(&[0u8; 40]), 123_456, 2);
        assert_eq!(skb.rx_timestamp_ns, 123_456);
        assert_eq!(skb.ingress_ifindex, 2);
    }

    #[test]
    fn route_override_is_set_detection() {
        assert!(!RouteOverride::default().is_set());
        let o = RouteOverride { table: Some(254), ..Default::default() };
        assert!(o.is_set());
        let o = RouteOverride { nexthop: Some("fe80::1".parse().unwrap()), ..Default::default() };
        assert!(o.is_set());
    }

    /// Seeded fuzz of in-place editing: random `insert` / `remove` /
    /// `bytes_mut` sequences inside a packet's head give the same bytes
    /// through the skb view, which moves the front, as through a `Vec`,
    /// which moves the tail — after every step, whatever headroom the
    /// buffer starts with (short ones must grow). After every sequence,
    /// restoring the saved head gives back the packet exactly as it
    /// arrived.
    #[test]
    fn in_place_edits_match_a_vec_and_roll_back_exactly() {
        use netpkt::buf::DEFAULT_HEADROOM;
        use netpkt::ipv6::proto;
        use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
        use netpkt::srh::SegmentRoutingHeader;
        use simnet::SplitMix64;

        let mut rng = SplitMix64::new(0x5eed_0028);
        let addr = |rng: &mut SplitMix64| Ipv6Addr::from((u128::from(rng.next_u64()) << 64) | 1);
        let mut saved = SavedHead::default();
        for case in 0..400 {
            let payload: Vec<u8> = (0..rng.gen_range(0usize..160)).map(|_| rng.next_u64() as u8).collect();
            let (src, dst) = (addr(&mut rng), addr(&mut rng));
            let input = if rng.gen_bool(0.25) {
                build_ipv6_udp_packet(src, dst, 1, 2, &payload, 64)
            } else {
                let path: Vec<Ipv6Addr> = (0..rng.gen_range(1usize..=4)).map(|_| addr(&mut rng)).collect();
                let srh = SegmentRoutingHeader::from_path(proto::UDP, &path);
                build_srv6_udp_packet(src, &srh, 1, 2, &payload, 64)
            }
            .data()
            .to_vec();
            let mut buf = PacketBuf::with_headroom(rng.gen_range(0usize..=DEFAULT_HEADROOM));
            buf.append(&input);
            let mut vec = input.clone();
            saved.save(buf.data());
            // The head as the edits so far have reshaped it.
            let mut head = saved.head.len();
            for step in 0..rng.gen_range(1usize..=8) {
                let view = &mut SkbPacket(&mut buf);
                match rng.gen_range(0u32..3) {
                    0 => {
                        let (at, n) = (rng.gen_range(0..=head), rng.gen_range(1usize..=64));
                        view.insert(at, n);
                        Packet::insert(&mut vec, at, n);
                        head += n;
                    }
                    1 if head > 0 => {
                        let at = rng.gen_range(0..head);
                        let n = rng.gen_range(1..=head - at);
                        view.remove(at, n);
                        Packet::remove(&mut vec, at, n);
                        head -= n;
                    }
                    _ if head > 0 => {
                        let at = rng.gen_range(0..head);
                        for i in at..rng.gen_range(at + 1..=head) {
                            let byte = rng.next_u64() as u8;
                            view.bytes_mut()[i] = byte;
                            vec.bytes_mut()[i] = byte;
                        }
                    }
                    _ => {}
                }
                assert_eq!(buf.data(), vec, "case {case}, step {step}");
            }
            saved.restore(&mut buf);
            assert_eq!(buf.data(), input, "case {case}: rollback");
        }
    }
}
