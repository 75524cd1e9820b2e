//! Low-level SRv6 packet operations shared by the static seg6local actions,
//! the seg6 transit behaviours and the eBPF helpers.
//!
//! Every function works on the packet in place, starting at the outermost
//! IPv6 header: the fixed-size edits on its bytes, the resizing ones
//! ([`push_srh_encap`], [`insert_srh_inline`], [`decap_outer`]) on an
//! [`ebpf_vm::Packet`]. In the datapath that is a view of the skb's buffer
//! ([`crate::skb::SkbPacket`]), so the static behaviours and the helpers
//! running under the VM share one code path, and a resize moves only the
//! headers in front of the edit: an encapsulation is written into the
//! headroom, a decapsulation is a pull. Each validates before its first
//! write and leaves the packet untouched on `Err`. Each finds the headers
//! behind the outer IPv6 one with [`HeaderChain::walk`], and sees an SRH
//! only where [`HeaderChain::srh`] — that is, [`SrhView::parse`] — accepts
//! one, as the kernel acts only on an SRH `seg6_validate_srh` accepts.

use crate::verdict::DropReason;
use ebpf_vm::Packet;
use netpkt::ipv6::{proto, Ipv6Header, IPV6_HEADER_LEN};
use netpkt::packet::HeaderChain;
use netpkt::srh::{SrhView, SRH_FIXED_LEN};
use std::net::Ipv6Addr;

/// Default hop limit of headers pushed by encapsulation.
pub const ENCAP_HOP_LIMIT: u8 = 64;

/// Offset of the destination address within an IPv6 header.
const DST_OFFSET: usize = 24;
/// Offset of the payload-length field within an IPv6 header.
const PAYLOAD_LEN_OFFSET: usize = 4;
/// Offset of the next-header field within an IPv6 header.
const NEXT_HEADER_OFFSET: usize = 6;
/// Offset of the segments-left field within an SRH.
const SRH_SEGMENTS_LEFT_OFFSET: usize = 3;

/// Offset of the outermost SRH in a packet that has one: this data plane
/// only looks for it directly behind the fixed IPv6 header.
pub const SRH_OFFSET: usize = IPV6_HEADER_LEN;

/// Result alias with static reasons, convenient for drop accounting.
pub type OpResult<T> = std::result::Result<T, &'static str>;

/// Reads the outer destination address.
pub fn outer_dst(packet: &[u8]) -> OpResult<Ipv6Addr> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    Ok(header_dst(packet))
}

/// The outer destination of a packet known to hold an IPv6 header, as
/// one 16-byte copy to wherever the caller puts it: inlined, so the
/// address does not pass through a result in memory on the way.
#[inline]
pub fn header_dst(packet: &[u8]) -> Ipv6Addr {
    let octets: [u8; 16] = packet[DST_OFFSET..DST_OFFSET + 16].try_into().expect("a 16-byte range");
    Ipv6Addr::from(octets)
}

/// Reads the outer source address.
pub fn outer_src(packet: &[u8]) -> OpResult<Ipv6Addr> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    let mut octets = [0u8; 16];
    octets.copy_from_slice(&packet[8..24]);
    Ok(Ipv6Addr::from(octets))
}

/// Writes the outer destination address.
pub fn set_outer_dst(packet: &mut [u8], dst: Ipv6Addr) -> OpResult<()> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    packet[DST_OFFSET..DST_OFFSET + 16].copy_from_slice(&dst.octets());
    Ok(())
}

/// Decrements the hop limit, returning the new value (0 means the packet
/// must be dropped and an ICMPv6 time-exceeded generated).
pub fn decrement_hop_limit(packet: &mut [u8]) -> OpResult<u8> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    if packet[7] == 0 {
        return Err("hop limit already zero");
    }
    packet[7] -= 1;
    Ok(packet[7])
}

/// The `End`-style SRH advance: requires an SRH with `segments_left > 0`,
/// decrements it and rewrites the outer destination to the new current
/// segment. Returns the new destination, or the reason an endpoint must
/// drop the packet for: [`DropReason::NoSrh`] when there is no routing
/// header or one of another routing type, [`DropReason::Malformed`] for a
/// type-4 routing header [`SrhView::parse`] rejects, and
/// [`DropReason::SegmentsLeftZero`]. Nothing is written before the SRH is
/// validated. Operates in place — the packet never changes size, so the
/// hot path advances without copying it.
pub fn advance_srh(packet: &mut [u8]) -> Result<Ipv6Addr, DropReason> {
    advance_srh_in_place(packet)?;
    Ok(header_dst(packet))
}

/// [`advance_srh`] without the read-back of the new destination, for a
/// caller that reads it where it needs it ([`header_dst`]). Inlined, so
/// `advance_srh` makes no call between the walk and the read-back.
#[inline]
pub fn advance_srh_in_place(packet: &mut [u8]) -> Result<(), DropReason> {
    let chain = HeaderChain::walk(packet);
    let srh = chain.srh(packet).map_err(|_| DropReason::Malformed)?.ok_or(DropReason::NoSrh)?;
    let left = srh.segments_left().checked_sub(1).ok_or(DropReason::SegmentsLeftZero)?;
    // The walk checked that the segment list holds Segment List[left].
    let seg = SRH_OFFSET + SRH_FIXED_LEN + 16 * usize::from(left);
    let mut octets = [0u8; 16];
    octets.copy_from_slice(&packet[seg..seg + 16]);
    packet[SRH_OFFSET + SRH_SEGMENTS_LEFT_OFFSET] = left;
    packet[DST_OFFSET..DST_OFFSET + 16].copy_from_slice(&octets);
    Ok(())
}

/// Removes the outer IPv6 header (and its routing header, if any), leaving
/// the inner IPv6 packet. Returns the inner destination. This is the
/// decapsulation performed by `End.DT6` / `End.DX6` and natively by the
/// kernel on the hybrid-access CPE (§4.2).
pub fn decap_outer(packet: &mut (impl Packet + ?Sized)) -> OpResult<Ipv6Addr> {
    let inner = HeaderChain::walk(packet.bytes()).inner().ok_or("no inner IPv6 packet to decapsulate")?;
    packet.remove(0, inner);
    outer_dst(packet.bytes())
}

/// What an encapsulation prepends to an `inner_len`-byte packet: the outer
/// IPv6 header (source `src`, destination the SRH's current segment), the
/// SRH's bytes, and that destination. Borrows from `srh_bytes`; fails —
/// before the caller has touched the packet — on an invalid SRH, one not
/// chaining to IPv6, or a payload the 16-bit length field cannot express.
fn encap_headers(
    srh_bytes: &[u8],
    src: Ipv6Addr,
    inner_len: usize,
) -> OpResult<(Ipv6Header, &[u8], Ipv6Addr)> {
    let srh = SrhView::parse(srh_bytes).map_err(|_| "invalid SRH for encapsulation")?;
    if srh.next_header() != proto::IPV6 {
        return Err("encap SRH must carry IPv6 as next header");
    }
    let dst = srh.current_segment();
    let payload_len = u16::try_from(srh.wire_len() + inner_len).map_err(|_| "payload length out of range")?;
    Ok((Ipv6Header::new(src, dst, proto::ROUTING, payload_len, ENCAP_HOP_LIMIT), srh.as_bytes(), dst))
}

/// Pushes an outer IPv6 header and the given SRH in front of the packet
/// (SRv6 "encap" mode). The outer source is `src`, the outer destination is
/// the SRH's current segment. Returns the new outer destination. On a view
/// of the skb the two headers go into its headroom, `skb_push`-style, and
/// the payload does not move.
pub fn push_srh_encap(
    packet: &mut (impl Packet + ?Sized),
    srh_bytes: &[u8],
    src: Ipv6Addr,
) -> OpResult<Ipv6Addr> {
    let (outer, srh, dst) = encap_headers(srh_bytes, src, packet.bytes().len())?;
    let pushed = IPV6_HEADER_LEN + srh.len();
    packet.insert(0, pushed);
    let bytes = packet.bytes_mut();
    outer.write_to(bytes);
    bytes[IPV6_HEADER_LEN..pushed].copy_from_slice(srh);
    Ok(dst)
}

/// Inserts the given SRH between the existing IPv6 header and its payload
/// (SRv6 "inline" mode). The SRH's last segment should be the original
/// destination; the outer destination is rewritten to the SRH's current
/// segment and the inserted SRH chains to whatever the IPv6 header
/// carried. Returns the new destination. On a view of the skb only the
/// IPv6 header moves, into the headroom; the payload stays where it is.
pub fn insert_srh_inline(packet: &mut (impl Packet + ?Sized), srh_bytes: &[u8]) -> OpResult<Ipv6Addr> {
    let srh = SrhView::parse(srh_bytes).map_err(|_| "invalid SRH for inline insertion")?;
    let dst = srh.current_segment();
    let srh = srh.as_bytes();
    // The first write, and the only step that can still fail.
    adjust_payload_length(packet.bytes_mut(), srh.len() as isize)?;
    let srh_end = SRH_OFFSET + srh.len();
    packet.insert(SRH_OFFSET, srh.len());
    let bytes = packet.bytes_mut();
    bytes[SRH_OFFSET..srh_end].copy_from_slice(srh);
    bytes[SRH_OFFSET] = bytes[NEXT_HEADER_OFFSET];
    bytes[NEXT_HEADER_OFFSET] = proto::ROUTING;
    set_outer_dst(bytes, dst)?;
    Ok(dst)
}

/// Re-validates the outermost SRH after an eBPF program edited it, as
/// End.BPF does before handing the packet back to the IPv6 layer. Also
/// checks that the IPv6 payload length is consistent with the actual packet
/// length.
pub fn validate_after_bpf(packet: &[u8]) -> OpResult<()> {
    HeaderChain::walk(packet).srh(packet).map_err(|_| "SRH failed validation")?.ok_or("SRH disappeared")?;
    let payload_len =
        u16::from_be_bytes([packet[PAYLOAD_LEN_OFFSET], packet[PAYLOAD_LEN_OFFSET + 1]]) as usize;
    if payload_len + IPV6_HEADER_LEN != packet.len() {
        return Err("IPv6 payload length inconsistent with packet length");
    }
    Ok(())
}

/// The IPv6 payload length once the packet grows or shrinks by `delta`
/// bytes behind the IPv6 header, or why the field cannot express it. A
/// check only: nothing is written.
pub fn payload_length_after(packet: &[u8], delta: isize) -> OpResult<u16> {
    if packet.len() < IPV6_HEADER_LEN {
        return Err("packet shorter than an IPv6 header");
    }
    let current = u16::from_be_bytes([packet[PAYLOAD_LEN_OFFSET], packet[PAYLOAD_LEN_OFFSET + 1]]) as isize;
    u16::try_from(current + delta).map_err(|_| "payload length out of range")
}

/// Writes the IPv6 payload-length field of a packet at least an IPv6
/// header long.
pub fn set_payload_length(packet: &mut [u8], len: u16) {
    packet[PAYLOAD_LEN_OFFSET..PAYLOAD_LEN_OFFSET + 2].copy_from_slice(&len.to_be_bytes());
}

/// Updates the IPv6 payload-length field after the packet grew or shrank by
/// `delta` bytes behind the IPv6 header; writes nothing on `Err`.
pub fn adjust_payload_length(packet: &mut [u8], delta: isize) -> OpResult<()> {
    let len = payload_length_after(packet, delta)?;
    set_payload_length(packet, len);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skb::SkbPacket;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use netpkt::srh::{SegmentRoutingHeader, SrhTlv};
    use netpkt::PacketBuf;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn srv6_packet() -> Vec<u8> {
        let srh =
            SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::1"), addr("fc00::2"), addr("fc00::3")]);
        build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64).data().to_vec()
    }

    #[test]
    fn the_walk_locates_the_srh_and_rejects_a_cut_one() {
        let pkt = srv6_packet();
        let chain = HeaderChain::walk(&pkt);
        assert_eq!(chain.routing(), Some(SRH_OFFSET..SRH_OFFSET + 8 + 3 * 16));
        assert!(chain.srh(&pkt).unwrap().is_some());
        let plain = build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 64);
        assert!(HeaderChain::walk(plain.data()).routing().is_none());
        assert!(HeaderChain::walk(&pkt[..45]).routing().is_none());
    }

    #[test]
    fn advance_srh_updates_destination_and_segments_left() {
        let mut pkt = srv6_packet();
        assert_eq!(outer_dst(&pkt).unwrap(), addr("fc00::1"));
        let before = pkt.clone();
        let next = advance_srh(&mut pkt).unwrap();
        assert_eq!(next, addr("fc00::2"));
        assert_eq!(outer_dst(&pkt).unwrap(), addr("fc00::2"));
        // Everything the advance wrote lies in the IPv6 header and the SRH:
        // the head a hook saves for its rollback.
        let srh_end = HeaderChain::walk(&before).routing().unwrap().end;
        assert_eq!(pkt[srh_end..], before[srh_end..]);
        let next = advance_srh(&mut pkt).unwrap();
        assert_eq!(next, addr("fc00::3"));
        assert_eq!(advance_srh(&mut pkt).unwrap_err(), DropReason::SegmentsLeftZero);
    }

    #[test]
    fn advance_requires_an_srh() {
        let mut plain = build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 64).data().to_vec();
        assert_eq!(advance_srh(&mut plain).unwrap_err(), DropReason::NoSrh);
    }

    #[test]
    fn encap_then_decap_restores_inner_packet() {
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 5, 6, &[9u8; 16], 64)
            .data()
            .to_vec();
        let mut pkt = inner.clone();
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::a"), addr("fc00::b")]);
        let dst = push_srh_encap(&mut pkt, &srh.to_bytes(), addr("fc00::99")).unwrap();
        assert_eq!(dst, addr("fc00::a"));
        assert_eq!(outer_dst(&pkt).unwrap(), addr("fc00::a"));
        assert_eq!(outer_src(&pkt).unwrap(), addr("fc00::99"));
        assert_eq!(pkt.len(), inner.len() + IPV6_HEADER_LEN + srh.wire_len());
        // The outer payload length must cover SRH + inner packet.
        let parsed = Ipv6Header::parse(&pkt).unwrap();
        assert_eq!(parsed.payload_length as usize, srh.wire_len() + inner.len());

        let inner_dst = decap_outer(&mut pkt).unwrap();
        assert_eq!(inner_dst, addr("2001:db8::2"));
        assert_eq!(pkt, inner);
    }

    #[test]
    fn encap_rejects_srh_not_carrying_ipv6() {
        let mut pkt = build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 64).data().to_vec();
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::a")]);
        assert!(push_srh_encap(&mut pkt, &srh.to_bytes(), addr("fc00::99")).is_err());
    }

    /// A packet of `len` bytes with a consistent payload length (`len` may
    /// exceed what a real link carries; the length field is the limit).
    fn packet_of_len(len: usize) -> Vec<u8> {
        let mut pkt = vec![0u8; len];
        Ipv6Header::new(addr("2001:db8::1"), addr("2001:db8::2"), proto::NONE, (len - 40) as u16, 64)
            .write_to(&mut pkt);
        pkt
    }

    #[test]
    fn encapsulation_past_the_payload_length_field_fails_and_leaves_the_packet_untouched() {
        let encap = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::a")]).to_bytes();
        let inline = SegmentRoutingHeader::from_path(proto::NONE, &[addr("fc00::a")]).to_bytes();
        let src = addr("fc00::99");
        let limit = usize::from(u16::MAX);

        // Encap: the outer payload is SRH + whole inner packet.
        let mut fits = packet_of_len(limit - encap.len());
        push_srh_encap(&mut fits, &encap, src).unwrap();
        assert_eq!(Ipv6Header::parse(&fits).unwrap().payload_length, u16::MAX);
        let mut fits = PacketBuf::from_slice(&packet_of_len(limit - encap.len()));
        push_srh_encap(&mut SkbPacket(&mut fits), &encap, src).unwrap();
        assert_eq!(Ipv6Header::parse(fits.data()).unwrap().payload_length, u16::MAX);
        let too_long = packet_of_len(limit - encap.len() + 1);
        let mut pkt = too_long.clone();
        assert!(push_srh_encap(&mut pkt, &encap, src).is_err());
        assert_eq!(pkt, too_long);
        let mut buf = PacketBuf::from_slice(&too_long);
        assert!(push_srh_encap(&mut SkbPacket(&mut buf), &encap, src).is_err());
        assert_eq!(buf.data(), too_long);

        // Inline: the existing payload grows by the SRH.
        let mut fits = packet_of_len(40 + limit - inline.len());
        insert_srh_inline(&mut fits, &inline).unwrap();
        assert_eq!(Ipv6Header::parse(&fits).unwrap().payload_length, u16::MAX);
        assert_eq!(fits.len(), 40 + limit);
        let too_long = packet_of_len(40 + limit - inline.len() + 1);
        let mut pkt = too_long.clone();
        assert!(insert_srh_inline(&mut pkt, &inline).is_err());
        assert_eq!(pkt, too_long);
        let mut buf = PacketBuf::from_slice(&too_long);
        assert!(insert_srh_inline(&mut SkbPacket(&mut buf), &inline).is_err());
        assert_eq!(buf.data(), too_long);
        // The range check `bpf_lwt_seg6_adjust_srh` relies on is the same one.
        assert!(adjust_payload_length(&mut pkt, inline.len() as isize).is_err());
        assert_eq!(pkt, too_long);
    }

    /// The same edits through the skb view, which moves the packet's
    /// front, and through a `Vec`, which moves its tail: same bytes, and
    /// the view leaves the payload where it was.
    #[test]
    fn headroom_encap_matches_the_in_place_one() {
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 5, 6, &[9u8; 16], 64);
        let srh =
            SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::a"), addr("fc00::b")]).to_bytes();
        let mut shifted = inner.data().to_vec();
        let mut pushed = inner.clone();
        let last_byte = pushed.data().as_ptr_range().end;
        // Twice: the second encapsulation outgrows the default headroom.
        for round in 0..2 {
            let dst = push_srh_encap(&mut shifted, &srh, addr("fc00::99")).unwrap();
            assert_eq!(push_srh_encap(&mut SkbPacket(&mut pushed), &srh, addr("fc00::99")).unwrap(), dst);
            assert_eq!(pushed.data(), shifted);
            if round == 0 {
                assert_eq!(pushed.data().as_ptr_range().end, last_byte, "the payload did not move");
            }
        }
        // An invalid SRH is refused before either touches the packet.
        let mut bad = srh.clone();
        bad[3] = 9;
        assert!(push_srh_encap(&mut shifted.clone(), &bad, addr("fc00::99")).is_err());
        let before = pushed.clone();
        assert!(push_srh_encap(&mut SkbPacket(&mut pushed), &bad, addr("fc00::99")).is_err());
        assert_eq!(pushed, before);
        // Decapsulating through the view is a pull: back to the inner packet.
        let mut view = SkbPacket(&mut pushed);
        decap_outer(&mut view).unwrap();
        decap_outer(&mut view).unwrap();
        assert_eq!(pushed.data(), inner.data());
    }

    #[test]
    fn decap_requires_inner_ipv6() {
        let mut pkt = srv6_packet(); // inner is UDP, not IPv6
        assert!(decap_outer(&mut pkt).is_err());
    }

    #[test]
    fn inline_insertion_preserves_the_original_header_chain() {
        let original = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 7, 8, &[1u8; 24], 64)
            .data()
            .to_vec();
        let mut pkt = original.clone();
        // Path via fc00::a, then back to the original destination.
        let srh = SegmentRoutingHeader::from_path(proto::NONE, &[addr("fc00::a"), addr("2001:db8::2")]);
        let dst = insert_srh_inline(&mut pkt, &srh.to_bytes()).unwrap();
        assert_eq!(dst, addr("fc00::a"));
        let parsed = netpkt::ParsedPacket::parse(&pkt).unwrap();
        assert_eq!(parsed.outer.dst, addr("fc00::a"));
        let loc = parsed.require_srh().unwrap();
        // The inserted SRH chains to UDP, whatever its builder said.
        assert_eq!(loc.srh.next_header, proto::UDP);
        assert_eq!(parsed.transport_proto, proto::UDP);
        assert_eq!(parsed.outer.payload_length as usize, original.len() - IPV6_HEADER_LEN + loc.len);
    }

    #[test]
    fn hop_limit_decrement_and_exhaustion() {
        let mut pkt = build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 2).data().to_vec();
        assert_eq!(decrement_hop_limit(&mut pkt).unwrap(), 1);
        assert_eq!(decrement_hop_limit(&mut pkt).unwrap(), 0);
        assert!(decrement_hop_limit(&mut pkt).is_err());
    }

    #[test]
    fn validate_after_bpf_checks_lengths() {
        let mut pkt = srv6_packet();
        validate_after_bpf(&pkt).unwrap();
        // Corrupt the SRH hdrlen: validation must fail.
        pkt[IPV6_HEADER_LEN + 1] = 200;
        assert!(validate_after_bpf(&pkt).is_err());
    }

    // --- the callers of the walk against the byte walks they replaced -----

    use crate::skb::SavedHead;
    use simnet::SplitMix64;

    /// `find_srh` before the walk replaced it: the oracle.
    fn parent_find_srh(packet: &[u8]) -> Option<(usize, usize)> {
        if packet.len() < IPV6_HEADER_LEN {
            return None;
        }
        if packet[NEXT_HEADER_OFFSET] != proto::ROUTING {
            return None;
        }
        let off = SRH_OFFSET;
        if packet.len() < off + 8 {
            return None;
        }
        let len = 8 + usize::from(packet[off + 1]) * 8;
        if packet.len() < off + len {
            return None;
        }
        Some((off, len))
    }

    /// `decap_offset` before the walk replaced it: the oracle.
    fn parent_decap_offset(packet: &[u8]) -> OpResult<usize> {
        if packet.len() < IPV6_HEADER_LEN {
            return Err("packet shorter than an IPv6 header");
        }
        let mut inner_off = IPV6_HEADER_LEN;
        let mut next = packet[NEXT_HEADER_OFFSET];
        if next == proto::ROUTING {
            let (off, len) = parent_find_srh(packet).ok_or("truncated SRH")?;
            next = packet[off];
            inner_off = off + len;
        }
        if next != proto::IPV6 {
            return Err("no inner IPv6 packet to decapsulate");
        }
        if packet.len() < inner_off + IPV6_HEADER_LEN {
            return Err("inner IPv6 header truncated");
        }
        Ok(inner_off)
    }

    /// The parent's `advance_srh`, on [`parent_find_srh`].
    fn parent_advance_srh(packet: &mut [u8]) -> Result<Ipv6Addr, DropReason> {
        let (off, len) = parent_find_srh(packet).ok_or(DropReason::NoSrh)?;
        let segments_left = packet[off + SRH_SEGMENTS_LEFT_OFFSET];
        if segments_left == 0 {
            return Err(DropReason::SegmentsLeftZero);
        }
        let last_entry = packet[off + 4];
        let new_left = segments_left - 1;
        let seg_off = off + 8 + 16 * usize::from(new_left);
        if new_left > last_entry || seg_off + 16 > off + len {
            return Err(DropReason::Malformed);
        }
        packet[off + SRH_SEGMENTS_LEFT_OFFSET] = new_left;
        let mut octets = [0u8; 16];
        octets.copy_from_slice(&packet[seg_off..seg_off + 16]);
        let next = Ipv6Addr::from(octets);
        set_outer_dst(packet, next).map_err(|_| DropReason::Malformed)?;
        Ok(next)
    }

    /// The parent's `validate_after_bpf`, on [`parent_find_srh`].
    fn parent_validate_after_bpf(packet: &[u8]) -> OpResult<()> {
        let (off, len) = parent_find_srh(packet).ok_or("SRH disappeared")?;
        SrhView::parse(&packet[off..off + len]).map_err(|_| "SRH failed validation")?;
        let payload_len =
            u16::from_be_bytes([packet[PAYLOAD_LEN_OFFSET], packet[PAYLOAD_LEN_OFFSET + 1]]) as usize;
        if payload_len + IPV6_HEADER_LEN != packet.len() {
            return Err("IPv6 payload length inconsistent with packet length");
        }
        Ok(())
    }

    fn random_addr(rng: &mut SplitMix64) -> Ipv6Addr {
        Ipv6Addr::from(u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()))
    }

    /// 1–4 segments, any `segments_left`, and up to three TLVs.
    fn random_srh(rng: &mut SplitMix64, next_header: u8) -> SegmentRoutingHeader {
        let path: Vec<Ipv6Addr> = (0..rng.gen_range(1usize..=4)).map(|_| random_addr(rng)).collect();
        let mut srh = SegmentRoutingHeader::from_path(next_header, &path);
        srh.segments_left = rng.gen_range(0..=u32::from(srh.last_entry)) as u8;
        for _ in 0..rng.gen_range(0usize..=3) {
            srh.tlvs.push(match rng.gen_range(0u32..3) {
                0 => SrhTlv::DelayMeasurement { tx_timestamp_ns: rng.next_u64() },
                1 => SrhTlv::Controller { addr: random_addr(rng), port: rng.next_u64() as u16 },
                _ => SrhTlv::Opaque { kind: 200, value: vec![7; rng.gen_range(0usize..12)] },
            });
        }
        srh
    }

    /// A well-formed plain or SRv6 UDP packet, encapsulated once half the
    /// time — behind an SRH (with TLVs) or directly behind the outer header.
    fn random_packet(rng: &mut SplitMix64) -> Vec<u8> {
        let payload: Vec<u8> = (0..rng.gen_range(0usize..48)).map(|_| rng.next_u64() as u8).collect();
        let (src, dst) = (random_addr(rng), random_addr(rng));
        let mut packet = if rng.gen_bool(0.5) {
            build_ipv6_udp_packet(src, dst, 1, 2, &payload, 64)
        } else {
            build_srv6_udp_packet(src, &random_srh(rng, proto::UDP), 1, 2, &payload, 64)
        }
        .data()
        .to_vec();
        match rng.gen_range(0u32..4) {
            0 => {
                let srh = random_srh(rng, proto::IPV6).to_bytes();
                push_srh_encap(&mut packet, &srh, random_addr(rng)).unwrap();
            }
            1 => {
                let outer = Ipv6Header::new(src, dst, proto::IPV6, packet.len() as u16, 64);
                packet.splice(0..0, outer.to_bytes());
            }
            _ => {}
        }
        packet
    }

    /// A well-formed packet cut short, or with a few header bytes flipped —
    /// the routing type, next-header and length octets most often.
    fn hostile_packet(rng: &mut SplitMix64) -> Vec<u8> {
        let mut packet = random_packet(rng);
        if rng.gen_bool(0.3) {
            packet.truncate(rng.gen_range(0..=packet.len()));
            return packet;
        }
        for _ in 0..rng.gen_range(1u32..=3) {
            let at = match rng.gen_range(0u32..3) {
                0 => [6, 40, 41, 42, 43, 44][rng.gen_range(0usize..6)],
                1 => rng.gen_range(40..packet.len().min(120)),
                _ => rng.gen_range(0..packet.len()),
            };
            packet[at] =
                [proto::ROUTING, proto::IPV6, 0, 2, 4, rng.next_u64() as u8][rng.gen_range(0usize..6)];
        }
        packet
    }

    /// Every caller against its parent: the same answers and bytes, except
    /// where the outer routing header is one `SrhView::parse` rejects. An
    /// endpoint's advance then refuses it — `NoSrh` for another routing
    /// type, `Malformed` for a bad SRH — and writes nothing.
    fn assert_callers_agree(packet: &[u8]) {
        let rejected = parent_find_srh(packet)
            .is_some_and(|(off, len)| SrhView::parse(&packet[off..off + len]).is_err());
        let (mut new, mut old) = (packet.to_vec(), packet.to_vec());
        let (advanced, parent) = (advance_srh(&mut new), parent_advance_srh(&mut old));
        if rejected {
            let reason = if packet[SRH_OFFSET + 2] == 4 { DropReason::Malformed } else { DropReason::NoSrh };
            assert_eq!(advanced, Err(reason), "{packet:02x?}");
            assert_eq!(new, packet, "a refused advance writes nothing");
        } else {
            assert_eq!((advanced, &new), (parent, &old), "{packet:02x?}");
        }

        let mut decapped = packet.to_vec();
        match (decap_outer(&mut decapped), parent_decap_offset(packet)) {
            (Ok(_), Ok(inner)) => assert_eq!(decapped, packet[inner..]),
            (Err(_), Err(_)) => assert_eq!(decapped, packet),
            (new, parent) => panic!("decap {new:?}, parent {parent:?}: {packet:02x?}"),
        }

        assert_eq!(
            validate_after_bpf(packet).is_ok(),
            parent_validate_after_bpf(packet).is_ok(),
            "{packet:02x?}"
        );

        let mut head = SavedHead::default();
        head.save(packet);
        let parent_head = parent_find_srh(packet).map_or(IPV6_HEADER_LEN, |(off, len)| off + len);
        assert_eq!(head.head_len(), parent_head.min(packet.len()), "{packet:02x?}");
    }

    #[test]
    fn callers_of_the_walk_give_the_parent_answers_on_well_formed_packets() {
        let mut rng = SplitMix64::new(0x5eed_0030);
        for _ in 0..2_000 {
            let packet = random_packet(&mut rng);
            let mut advanced = packet.clone();
            assert_eq!(advance_srh(&mut advanced), parent_advance_srh(&mut packet.clone()));
            assert_eq!(
                parent_find_srh(&packet).is_some(),
                HeaderChain::walk(&packet).srh(&packet).unwrap().is_some()
            );
            assert_callers_agree(&packet);
        }
    }

    #[test]
    fn callers_of_the_walk_survive_hostile_bytes() {
        let mut rng = SplitMix64::new(0x5eed_0031);
        for _ in 0..10_000 {
            assert_callers_agree(&hostile_packet(&mut rng));
        }
    }

    #[test]
    fn adjust_payload_length_tracks_growth_and_rejects_underflow() {
        let mut pkt = srv6_packet();
        let before = Ipv6Header::parse(&pkt).unwrap().payload_length;
        adjust_payload_length(&mut pkt, 8).unwrap();
        assert_eq!(Ipv6Header::parse(&pkt).unwrap().payload_length, before + 8);
        adjust_payload_length(&mut pkt, -8).unwrap();
        assert_eq!(Ipv6Header::parse(&pkt).unwrap().payload_length, before);
        assert!(adjust_payload_length(&mut pkt, -100_000).is_err());
    }
}
