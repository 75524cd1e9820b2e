//! Whole-packet parsing and building helpers.
//!
//! [`HeaderChain`] is the one walk of an IPv6 packet's header chain: it
//! records where the routing headers, the inner IPv6 header and the
//! transport header sit, and every caller that looks past the fixed IPv6
//! header goes through it — the SRv6 data plane to find the SRH it advances,
//! edits or pulls off, RSS steering to find the flow, and [`ParsedPacket`],
//! which parses the headers the walk located into owned form.

use crate::buf::PacketBuf;
use crate::error::{Error, Result};
use crate::ipv6::{proto, Ipv6Header, IPV6_HEADER_LEN};
use crate::srh::{SegmentRoutingHeader, SrhView, SRH_FIXED_LEN, SRH_ROUTING_TYPE};
use crate::udp::UdpHeader;
use std::net::Ipv6Addr;
use std::ops::Range;

/// Where the headers of an IPv6 packet sit, from one walk of its header
/// chain.
///
/// The walk follows what this data plane carries: the outer IPv6 header,
/// at most one routing header behind it, at most one inner IPv6 header
/// (IPv6-in-IPv6 encapsulation) and at most one routing header behind that.
/// It stops at the first other header, which it reports as the transport
/// header, or at the first of those headers the packet does not hold whole.
/// It reads only next-header and length octets: it borrows nothing,
/// allocates nothing and validates nothing. Whether a routing header is an
/// SRH is [`SrhView::parse`]'s to say, through [`HeaderChain::srh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderChain {
    /// Start and end of the routing header behind the outer IPv6 header.
    routing: Option<(usize, usize)>,
    /// Offset of the inner IPv6 header.
    inner: Option<usize>,
    /// Start and end of the routing header behind the inner IPv6 header.
    inner_routing: Option<(usize, usize)>,
    /// The protocol the walk stopped at, and where that header starts.
    next: u8,
    end: usize,
    /// The packet length the walk needed to go on, when it was cut short.
    needed: Option<usize>,
}

impl HeaderChain {
    /// Walks `packet` from its first byte, which must start the outer IPv6
    /// header (its version nibble is not checked). A packet shorter than
    /// that header is cut short at offset 0.
    #[inline]
    pub fn walk(packet: &[u8]) -> HeaderChain {
        let mut chain = HeaderChain {
            routing: None,
            inner: None,
            inner_routing: None,
            next: proto::IPV6,
            end: 0,
            needed: None,
        };
        // Level 0 is the outer IPv6 header, level 1 the inner one.
        for level in 0..2 {
            if chain.next != proto::IPV6 {
                break;
            }
            let ip = chain.end;
            if packet.len() < ip + IPV6_HEADER_LEN {
                chain.needed = Some(ip + IPV6_HEADER_LEN);
                break;
            }
            if level == 1 {
                chain.inner = Some(ip);
            }
            chain.next = packet[ip + 6];
            chain.end = ip + IPV6_HEADER_LEN;
            if chain.next == proto::ROUTING {
                let start = chain.end;
                if packet.len() < start + SRH_FIXED_LEN {
                    chain.needed = Some(start + SRH_FIXED_LEN);
                    break;
                }
                // Every routing header counts its length in 8-octet units
                // past the first 8 (RFC 8200 §4.4).
                let end = start + SRH_FIXED_LEN + usize::from(packet[start + 1]) * 8;
                if packet.len() < end {
                    chain.needed = Some(end);
                    break;
                }
                if level == 0 {
                    chain.routing = Some((start, end));
                } else {
                    chain.inner_routing = Some((start, end));
                }
                chain.next = packet[start];
                chain.end = end;
            }
        }
        chain
    }

    /// The byte range of the routing header behind the outer IPv6 header,
    /// whatever its routing type.
    pub fn routing(&self) -> Option<Range<usize>> {
        self.routing.map(|(start, end)| start..end)
    }

    /// The outer SRH of `packet`, the packet this chain was walked over:
    /// `Ok(None)` when the outer IPv6 header carries no routing header or
    /// one of another routing type (RFC 5095's deprecated type 0, Mobile
    /// IPv6's type 2), `Err` when a type-4 routing header fails
    /// [`SrhView::parse`]. An endpoint acts on the `Ok(Some)` case only.
    #[inline]
    pub fn srh<'a>(&self, packet: &'a [u8]) -> Result<Option<SrhView<'a>>> {
        let Some(header) = self.routing().and_then(|range| packet.get(range)) else { return Ok(None) };
        if header[2] != SRH_ROUTING_TYPE {
            return Ok(None);
        }
        SrhView::parse(header).map(Some)
    }

    /// Offset of the inner IPv6 header of an IPv6-in-IPv6 packet.
    pub fn inner(&self) -> Option<usize> {
        self.inner
    }

    /// The byte range of the routing header behind the inner IPv6 header.
    pub fn inner_routing(&self) -> Option<Range<usize>> {
        self.inner_routing.map(|(start, end)| start..end)
    }

    /// Protocol and offset of the header the walk stopped at: the
    /// upper-layer (UDP/TCP/ICMPv6) header, or, on a packet cut short, the
    /// header it does not hold whole.
    pub fn transport(&self) -> (u8, usize) {
        (self.next, self.end)
    }

    /// The packet length the walk needed to go on, when the packet is cut
    /// short inside an IPv6 or routing header.
    pub fn needed(&self) -> Option<usize> {
        self.needed
    }
}

/// Location and parsed form of the SRH inside a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrhLocation {
    /// Byte offset of the SRH from the start of the packet.
    pub offset: usize,
    /// Length of the SRH in bytes.
    pub len: usize,
    /// Parsed header.
    pub srh: SegmentRoutingHeader,
}

/// A parsed view of an IPv6 packet (outer header, optional SRH, optional
/// inner IPv6 header for encapsulated traffic, transport offset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket {
    /// The outermost IPv6 header.
    pub outer: Ipv6Header,
    /// The SRH attached to the outermost header, if any.
    pub srh: Option<SrhLocation>,
    /// The inner IPv6 header, when the packet is IPv6-in-IPv6 encapsulated.
    pub inner: Option<Ipv6Header>,
    /// Byte offset of the inner IPv6 header, if present.
    pub inner_offset: Option<usize>,
    /// Protocol of the upper-layer header located at `transport_offset`.
    pub transport_proto: u8,
    /// Byte offset of the upper-layer (UDP/TCP/ICMPv6) header.
    pub transport_offset: usize,
}

impl ParsedPacket {
    /// Parses `data` as an IPv6 packet: the headers [`HeaderChain::walk`]
    /// locates, each of which must parse. A routing header must be an SRH;
    /// one behind an inner IPv6 header (e.g. nested B6 encapsulation) is
    /// validated, and only the transport location behind it is recorded.
    pub fn parse(data: &[u8]) -> Result<Self> {
        let outer = Ipv6Header::parse(data)?;
        let chain = HeaderChain::walk(data);
        if let Some(needed) = chain.needed() {
            return Err(Error::Truncated { needed, available: data.len() });
        }
        let srh = match chain.routing() {
            Some(range) => Some(SrhLocation {
                offset: range.start,
                len: range.len(),
                srh: SegmentRoutingHeader::parse(&data[range])?,
            }),
            None => None,
        };
        let inner = chain.inner().map(|offset| Ipv6Header::parse(&data[offset..])).transpose()?;
        if let Some(range) = chain.inner_routing() {
            SrhView::parse(&data[range])?;
        }
        let (transport_proto, transport_offset) = chain.transport();
        Ok(ParsedPacket { outer, srh, inner, inner_offset: chain.inner(), transport_proto, transport_offset })
    }

    /// Parses the packet held by a [`PacketBuf`].
    pub fn parse_buf(buf: &PacketBuf) -> Result<Self> {
        Self::parse(buf.data())
    }

    /// The SRH if present, or an error tailored to seg6local processing.
    pub fn require_srh(&self) -> Result<&SrhLocation> {
        self.srh.as_ref().ok_or(Error::Malformed("packet has no Segment Routing Header"))
    }
}

/// Builds a plain IPv6/UDP packet, as `pktgen` produces in the paper's
/// experiments.
pub fn build_ipv6_udp_packet(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    hop_limit: u8,
) -> PacketBuf {
    let udp = UdpHeader::build_datagram(&src, &dst, src_port, dst_port, payload);
    let ip = Ipv6Header::new(src, dst, proto::UDP, udp.len() as u16, hop_limit);
    let mut pkt = PacketBuf::with_headroom(128);
    pkt.append(&udp);
    pkt.push_header(&ip.to_bytes());
    pkt
}

/// Builds an SRv6 UDP packet: an outer IPv6 header whose destination is the
/// SRH's current segment, the SRH itself, and a UDP datagram, as `trafgen`
/// produces in the paper's experiments (§3.2).
pub fn build_srv6_udp_packet(
    src: Ipv6Addr,
    srh: &SegmentRoutingHeader,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    hop_limit: u8,
) -> PacketBuf {
    let current = srh.current_segment().expect("SRH must have at least one segment");
    let udp = UdpHeader::build_datagram(&src, &current, src_port, dst_port, payload);
    let srh_bytes = srh.to_bytes();
    let ip = Ipv6Header::new(src, current, proto::ROUTING, (srh_bytes.len() + udp.len()) as u16, hop_limit);
    let mut pkt = PacketBuf::with_headroom(128);
    pkt.append(&udp);
    pkt.push_header(&srh_bytes);
    pkt.push_header(&ip.to_bytes());
    pkt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srh::{SrhTlv, TlvKind};

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn parse_plain_udp_packet() {
        let pkt = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 1000, 2000, &[0; 64], 64);
        let parsed = ParsedPacket::parse_buf(&pkt).unwrap();
        assert!(parsed.srh.is_none());
        assert!(parsed.inner.is_none());
        assert_eq!(parsed.transport_proto, proto::UDP);
        assert_eq!(parsed.transport_offset, IPV6_HEADER_LEN);
        assert_eq!(parsed.outer.payload_length as usize, pkt.len() - IPV6_HEADER_LEN);
        assert!(parsed.require_srh().is_err());
    }

    #[test]
    fn parse_srv6_udp_packet() {
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::1"), addr("fc00::2")]);
        let pkt = build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0; 64], 64);
        let parsed = ParsedPacket::parse_buf(&pkt).unwrap();
        let loc = parsed.require_srh().unwrap();
        assert_eq!(loc.offset, IPV6_HEADER_LEN);
        assert_eq!(loc.srh.current_segment(), Some(addr("fc00::1")));
        assert_eq!(parsed.outer.dst, addr("fc00::1"));
        assert_eq!(parsed.transport_proto, proto::UDP);
        assert_eq!(parsed.transport_offset, IPV6_HEADER_LEN + loc.len);
    }

    #[test]
    fn parse_encapsulated_packet() {
        // inner plain packet
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 1, 2, &[0; 16], 64);
        // outer encapsulation with an SRH carrying a DM TLV
        let mut srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::a"), addr("fc00::b")]);
        srh.tlvs.push(SrhTlv::DelayMeasurement { tx_timestamp_ns: 42 });
        let srh_bytes = srh.to_bytes();
        let mut pkt = inner.clone();
        pkt.push_header(&srh_bytes);
        let outer_ip = Ipv6Header::new(
            addr("fc00::99"),
            addr("fc00::a"),
            proto::ROUTING,
            (srh_bytes.len() + inner.len()) as u16,
            64,
        );
        pkt.push_header(&outer_ip.to_bytes());

        let parsed = ParsedPacket::parse_buf(&pkt).unwrap();
        assert_eq!(parsed.outer.dst, addr("fc00::a"));
        let loc = parsed.require_srh().unwrap();
        assert!(loc.srh.find_tlv(TlvKind::DelayMeasurement).is_some());
        let inner_hdr = parsed.inner.clone().unwrap();
        assert_eq!(inner_hdr.dst, addr("2001:db8::2"));
        assert_eq!(parsed.transport_proto, proto::UDP);
        assert_eq!(parsed.inner_offset, Some(IPV6_HEADER_LEN + loc.len));
        assert_eq!(parsed.transport_offset, IPV6_HEADER_LEN + loc.len + IPV6_HEADER_LEN);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ParsedPacket::parse(&[0u8; 10]).is_err());
    }

    // --- the walk against the byte walks it replaced ----------------------

    use crate::flow::{flow_key, FlowKey};
    use crate::srh::tests::{random_srh, Mix};

    /// `ParsedPacket::parse` before it was built on the walk: the oracle.
    fn parent_parse(data: &[u8]) -> Result<ParsedPacket> {
        let outer = Ipv6Header::parse(data)?;
        let mut offset = IPV6_HEADER_LEN;
        let mut next = outer.next_header;
        let mut srh = None;
        if next == proto::ROUTING {
            let parsed = SegmentRoutingHeader::parse(&data[offset..])?;
            let len = 8 + usize::from(parsed.hdr_ext_len()) * 8;
            next = parsed.next_header;
            srh = Some(SrhLocation { offset, len, srh: parsed });
            offset += len;
        }
        let (inner, inner_offset, transport_proto, transport_offset) = if next == proto::IPV6 {
            let inner_hdr = Ipv6Header::parse(&data[offset..])?;
            let inner_off = offset;
            let mut t_off = offset + IPV6_HEADER_LEN;
            let mut t_proto = inner_hdr.next_header;
            if t_proto == proto::ROUTING {
                let inner_srh = SegmentRoutingHeader::parse(&data[t_off..])?;
                t_proto = inner_srh.next_header;
                t_off += 8 + usize::from(inner_srh.hdr_ext_len()) * 8;
            }
            (Some(inner_hdr), Some(inner_off), t_proto, t_off)
        } else {
            (None, None, next, offset)
        };
        Ok(ParsedPacket { outer, srh, inner, inner_offset, transport_proto, transport_offset })
    }

    /// `flow::flow_key` before it was built on the walk: the oracle.
    fn parent_flow_key(packet: &[u8]) -> Option<FlowKey> {
        let addr_at = |offset: usize| {
            let mut octets = [0u8; 16];
            octets.copy_from_slice(&packet[offset..offset + 16]);
            Ipv6Addr::from(octets)
        };
        if packet.len() < IPV6_HEADER_LEN || packet[0] >> 4 != 6 {
            return None;
        }
        let mut offset = IPV6_HEADER_LEN;
        let mut next = packet[6];
        let (mut src_off, mut dst_off) = (8usize, 24usize);
        for _ in 0..2 {
            if next == proto::ROUTING {
                if packet.len() < offset + 8 {
                    break;
                }
                let ext_len = 8 + usize::from(packet[offset + 1]) * 8;
                next = packet[offset];
                offset += ext_len;
            }
            if next == proto::IPV6 {
                if packet.len() < offset + IPV6_HEADER_LEN {
                    break;
                }
                next = packet[offset + 6];
                src_off = offset + 8;
                dst_off = offset + 24;
                offset += IPV6_HEADER_LEN;
            } else {
                break;
            }
        }
        let (src_port, dst_port) = match next {
            proto::UDP | proto::TCP if packet.len() >= offset + 4 => {
                let sp = u16::from_be_bytes([packet[offset], packet[offset + 1]]);
                let dp = u16::from_be_bytes([packet[offset + 2], packet[offset + 3]]);
                (sp, dp)
            }
            _ => (0, 0),
        };
        Some(FlowKey { src: addr_at(src_off), dst: addr_at(dst_off), protocol: next, src_port, dst_port })
    }

    fn random_addr(rng: &mut Mix) -> Ipv6Addr {
        Ipv6Addr::from(u128::from(rng.next()) << 64 | u128::from(rng.next()))
    }

    /// Puts an IPv6 header (and, half the time, an SRH with TLVs) in front
    /// of `payload`, which carries protocol `next`.
    fn wrap(rng: &mut Mix, mut payload: Vec<u8>, mut next: u8) -> Vec<u8> {
        if rng.below(2) == 0 {
            let mut srh = random_srh(rng);
            srh.next_header = next;
            payload.splice(0..0, srh.to_bytes());
            next = proto::ROUTING;
        }
        let ip = Ipv6Header::new(random_addr(rng), random_addr(rng), next, payload.len() as u16, 64);
        payload.splice(0..0, ip.to_bytes());
        payload
    }

    /// A random well-formed packet: UDP, TCP or no-next-header, plain,
    /// SRv6 or IPv6-in-IPv6 encapsulated once, with or without SRHs (and
    /// their TLVs) at either level.
    fn random_packet(rng: &mut Mix) -> Vec<u8> {
        let transport = [proto::UDP, proto::TCP, proto::NONE][rng.below(3) as usize];
        let body = (0..rng.below(48)).map(|_| rng.next() as u8).collect();
        let packet = wrap(rng, body, transport);
        if rng.below(2) == 0 {
            wrap(rng, packet, proto::IPV6)
        } else {
            packet
        }
    }

    /// Hostile bytes derived from a well-formed packet: cut short, a few
    /// header bytes flipped (next-header, length and routing-type octets
    /// most often), or replaced by random bytes behind an IPv6-looking
    /// first header.
    fn hostile_packet(rng: &mut Mix) -> Vec<u8> {
        let mut packet = random_packet(rng);
        match rng.below(3) {
            0 => packet.truncate(rng.below(packet.len() as u64 + 1) as usize),
            1 => {
                for _ in 0..1 + rng.below(3) {
                    let chain = HeaderChain::walk(&packet);
                    let structural = [6, 40, 41, 42, 43, 44, chain.inner().map_or(6, |ip| ip + 6)];
                    let at = match rng.below(2) {
                        0 => structural[rng.below(structural.len() as u64) as usize],
                        _ => rng.below(packet.len().min(160) as u64) as usize,
                    };
                    if let Some(byte) = packet.get_mut(at) {
                        *byte =
                            [proto::ROUTING, proto::IPV6, 0, 2, 4, rng.next() as u8][rng.below(6) as usize];
                    }
                }
            }
            _ => {
                packet.truncate(IPV6_HEADER_LEN.min(packet.len()));
                packet.extend((0..rng.below(160)).map(|_| rng.next() as u8));
            }
        }
        packet
    }

    /// What every caller relies on: the walk never panics, reports the
    /// outer SRH exactly when `SrhView::parse` accepts the routing header,
    /// and `ParsedPacket::parse` gives the parent's answer on every input.
    /// `flow_key` does too, except where the parent byte walk went on past
    /// what this walk follows: through a routing header the packet cuts
    /// short, or into a second inner IPv6 header.
    fn assert_walk_agrees(packet: &[u8]) {
        let chain = HeaderChain::walk(packet);
        let routing_follows = packet.len() >= IPV6_HEADER_LEN && packet[6] == proto::ROUTING;
        let view = if routing_follows { Some(SrhView::parse(&packet[IPV6_HEADER_LEN..])) } else { None };
        let srh = chain.srh(packet);
        assert_eq!(
            matches!(srh, Ok(Some(_))),
            matches!(view, Some(Ok(_))),
            "an SRH exactly where SrhView accepts one: {packet:02x?}"
        );
        if let Ok(Some(srh)) = srh {
            assert_eq!(srh.as_bytes(), view.unwrap().unwrap().as_bytes());
        }
        if srh.is_err() {
            assert_eq!(packet[IPV6_HEADER_LEN + 2], SRH_ROUTING_TYPE, "{packet:02x?}");
        }
        assert_eq!(ParsedPacket::parse(packet).ok(), parent_parse(packet).ok(), "{packet:02x?}");
        if chain.needed().is_none() && chain.transport().0 != proto::IPV6 {
            assert_eq!(flow_key(packet), parent_flow_key(packet), "{packet:02x?}");
        }
    }

    #[test]
    fn the_walk_gives_the_parent_answers_on_well_formed_packets() {
        let mut rng = Mix(0x5eed_0030);
        for _ in 0..2_000 {
            let packet = random_packet(&mut rng);
            let chain = HeaderChain::walk(&packet);
            assert_eq!(chain.needed(), None);
            let parsed = ParsedPacket::parse(&packet).unwrap();
            assert_eq!(parent_parse(&packet).unwrap(), parsed);
            assert_eq!(flow_key(&packet), parent_flow_key(&packet));
            assert_eq!(chain.srh(&packet).unwrap().map(|srh| srh.wire_len()), parsed.srh.map(|loc| loc.len));
            assert_walk_agrees(&packet);
        }
    }

    fn hostile_round(cases: usize) {
        let mut rng = Mix(0x5eed_0031);
        for _ in 0..cases {
            assert_walk_agrees(&hostile_packet(&mut rng));
        }
    }

    #[test]
    fn the_walk_survives_hostile_bytes_and_sees_srhs_only_through_srh_view() {
        hostile_round(10_000);
    }

    /// The same fuzz on 50 times the cases.
    #[test]
    #[ignore = "long fuzz run: cargo test --release -- --ignored"]
    fn the_walk_survives_hostile_bytes_and_sees_srhs_only_through_srh_view_long() {
        hostile_round(500_000);
    }
}
