//! The `seg6` lightweight tunnel: SRv6 transit behaviours.
//!
//! Transit behaviours apply to packets *without* an SRH that match a route:
//! either the SRH is inserted directly into the IPv6 packet ("inline" mode)
//! or the packet is encapsulated in an outer IPv6 header carrying the SRH
//! ("encap" mode). This is the static counterpart of what a BPF LWT program
//! does with `bpf_lwt_push_encap`; the Linux implementation the paper builds
//! on exposes both through the `seg6` lightweight tunnel.

use crate::skb::{Skb, SkbPacket};
use crate::srv6_ops::{self, SRH_OFFSET};
use crate::table::PrefixTable;
use crate::verdict::{ActionOutcome, DropReason};
use ebpf_vm::Packet;
use netpkt::srh::{SegmentRoutingHeader, SRH_FIXED_LEN};
use std::net::Ipv6Addr;

/// How the SRH is attached to matching traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitMode {
    /// Encapsulate in an outer IPv6 header carrying the SRH.
    Encap,
    /// Insert the SRH into the existing IPv6 header chain.
    Inline,
}

/// A transit behaviour: the SRH to attach and how. The SRH is serialised
/// once, here, not per packet.
#[derive(Debug, Clone)]
pub struct TransitBehaviour {
    mode: TransitMode,
    srh: SegmentRoutingHeader,
    /// `srh` in wire format.
    wire: Vec<u8>,
    /// Inline mode: `srh` with one more (zeroed) `Segment List[0]` — the
    /// slot a packet's original destination is written into.
    wire_via_dst: Vec<u8>,
}

impl TransitBehaviour {
    /// An encap-mode behaviour routing matching traffic through `path`
    /// (given in visiting order).
    pub fn encap_through(path: &[Ipv6Addr]) -> Self {
        let srh = SegmentRoutingHeader::from_path(netpkt::proto::IPV6, path);
        TransitBehaviour { mode: TransitMode::Encap, wire: srh.to_bytes(), wire_via_dst: Vec::new(), srh }
    }

    /// An inline-mode behaviour routing matching traffic through `path`.
    /// A packet whose destination is not already the path's last segment
    /// gets it appended as the final one, so it still reaches it after
    /// the detour, as SRv6 inline insertion requires.
    pub fn inline_through(path: &[Ipv6Addr]) -> Self {
        let srh = SegmentRoutingHeader::from_path(netpkt::proto::NONE, path);
        let mut via_dst = srh.clone();
        via_dst.segments.insert(0, Ipv6Addr::UNSPECIFIED);
        via_dst.last_entry = (via_dst.segments.len() - 1) as u8;
        via_dst.segments_left = via_dst.last_entry;
        TransitBehaviour {
            mode: TransitMode::Inline,
            wire: srh.to_bytes(),
            wire_via_dst: via_dst.to_bytes(),
            srh,
        }
    }

    /// Attachment mode.
    pub fn mode(&self) -> TransitMode {
        self.mode
    }

    /// The SRH to attach (in wire order).
    pub fn srh(&self) -> &SegmentRoutingHeader {
        &self.srh
    }
}

/// The table of transit behaviours installed on a node, keyed by
/// destination prefix (like `ip -6 route add <prefix> encap seg6 ...`);
/// longest prefix wins on lookup.
pub type TransitTable = PrefixTable<TransitBehaviour>;

/// Applies a transit behaviour to a packet, returning the new destination
/// the datapath must forward towards. Both modes edit the skb in place:
/// an encapsulation goes into the packet's headroom, an inline insertion
/// moves only the IPv6 header in front of the new SRH. Neither allocates
/// once the packet's buffer is warm, and a packet that cannot take the SRH
/// is left as it arrived.
pub fn apply_transit(behaviour: &TransitBehaviour, skb: &mut Skb, local_addr: Ipv6Addr) -> ActionOutcome {
    let packet = &mut SkbPacket(&mut skb.packet);
    let result = match behaviour.mode {
        TransitMode::Encap => srv6_ops::push_srh_encap(packet, &behaviour.wire, local_addr),
        TransitMode::Inline => (|| {
            let original_dst = srv6_ops::outer_dst(packet.bytes())?;
            if behaviour.srh.segments.first() == Some(&original_dst) {
                return srv6_ops::insert_srh_inline(packet, &behaviour.wire);
            }
            let dst = srv6_ops::insert_srh_inline(packet, &behaviour.wire_via_dst)?;
            // The insertion succeeded: nothing below can fail.
            let bytes = packet.bytes_mut();
            let slot = SRH_OFFSET + SRH_FIXED_LEN;
            bytes[slot..slot + 16].copy_from_slice(&original_dst.octets());
            if !behaviour.srh.segments.is_empty() {
                return Ok(dst);
            }
            // An empty path: the slot is the whole list, hence current.
            srv6_ops::set_outer_dst(bytes, original_dst)?;
            Ok(original_dst)
        })(),
    };
    match result {
        Ok(dst) => ActionOutcome::Forward { dst, route_override: Default::default() },
        Err(_) => ActionOutcome::Drop(DropReason::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::packet::build_ipv6_udp_packet;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn plain_skb() -> Skb {
        Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 1, 2, &[0u8; 16], 64))
    }

    #[test]
    fn table_lookup_prefers_longest_prefix() {
        let mut table = TransitTable::new();
        table.insert("2001:db8::/32".parse().unwrap(), TransitBehaviour::encap_through(&[addr("fc00::1")]));
        table.insert(
            "2001:db8:0:1::/64".parse().unwrap(),
            TransitBehaviour::encap_through(&[addr("fc00::2")]),
        );
        let (_, b) = table.lookup(addr("2001:db8:0:1::9")).unwrap();
        assert_eq!(b.srh().current_segment(), Some(addr("fc00::2")));
        let (_, b) = table.lookup(addr("2001:db8:9::9")).unwrap();
        assert_eq!(b.srh().current_segment(), Some(addr("fc00::1")));
        assert!(table.lookup(addr("2abc::1")).is_none());
        assert_eq!(table.len(), 2);
        assert!(table.remove(&"2001:db8::/32".parse().unwrap()));
        assert!(!table.remove(&"2001:db8::/32".parse().unwrap()));
    }

    #[test]
    fn encap_mode_wraps_and_targets_first_segment() {
        let mut skb = plain_skb();
        let before = skb.len();
        let behaviour = TransitBehaviour::encap_through(&[addr("fc00::a"), addr("fc00::b")]);
        let outcome = apply_transit(&behaviour, &mut skb, addr("fc00::99"));
        match outcome {
            ActionOutcome::Forward { dst, .. } => assert_eq!(dst, addr("fc00::a")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(skb.len() > before);
        let parsed = netpkt::ParsedPacket::parse(skb.packet.data()).unwrap();
        assert_eq!(parsed.outer.src, addr("fc00::99"));
        assert!(parsed.inner.is_some());
    }

    #[test]
    fn inline_mode_keeps_original_destination_reachable() {
        let mut skb = plain_skb();
        let behaviour = TransitBehaviour::inline_through(&[addr("fc00::a")]);
        let outcome = apply_transit(&behaviour, &mut skb, addr("fc00::99"));
        match outcome {
            ActionOutcome::Forward { dst, .. } => assert_eq!(dst, addr("fc00::a")),
            other => panic!("unexpected {other:?}"),
        }
        let parsed = netpkt::ParsedPacket::parse(skb.packet.data()).unwrap();
        let srh = &parsed.require_srh().unwrap().srh;
        // The original destination is the final segment of the inserted SRH.
        assert_eq!(srh.segments[0], addr("2001:db8::2"));
        assert_eq!(srh.path().last().copied(), Some(addr("2001:db8::2")));
        assert!(parsed.inner.is_none());
    }

    /// The pre-serialised templates must put on the wire exactly what
    /// building the SRH per packet did: the configured SRH as is when the
    /// packet already heads for its last segment, otherwise the SRH with
    /// the original destination as one more final segment.
    #[test]
    fn inline_templates_match_a_per_packet_built_srh() {
        let original = plain_skb();
        let original_dst = addr("2001:db8::2");
        for path in [vec![addr("fc00::a"), addr("fc00::b")], vec![addr("fc00::a"), original_dst], vec![]] {
            let behaviour = TransitBehaviour::inline_through(&path);
            let mut srh = behaviour.srh().clone();
            if srh.segments.first() != Some(&original_dst) {
                srh.segments.insert(0, original_dst);
                srh.last_entry = (srh.segments.len() - 1) as u8;
                srh.segments_left = srh.last_entry;
            }
            let mut expected = original.packet.data().to_vec();
            let expected_dst = srv6_ops::insert_srh_inline(&mut expected, &srh.to_bytes()).unwrap();

            let mut skb = original.clone();
            let outcome = apply_transit(&behaviour, &mut skb, addr("fc00::99"));
            assert_eq!(
                outcome,
                ActionOutcome::Forward { dst: expected_dst, route_override: Default::default() },
                "path {path:?}"
            );
            assert_eq!(skb.packet.data(), expected, "path {path:?}");
        }
    }

    #[test]
    fn a_packet_that_cannot_take_the_srh_is_dropped_untouched() {
        // 65 535 bytes of payload already: no room for any SRH.
        let mut bytes = vec![0u8; 40 + usize::from(u16::MAX)];
        netpkt::Ipv6Header::new(addr("2001:db8::1"), addr("2001:db8::2"), netpkt::proto::NONE, u16::MAX, 64)
            .write_to(&mut bytes);
        for behaviour in [
            TransitBehaviour::encap_through(&[addr("fc00::a")]),
            TransitBehaviour::inline_through(&[addr("fc00::a")]),
        ] {
            let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&bytes));
            let outcome = apply_transit(&behaviour, &mut skb, addr("fc00::99"));
            assert_eq!(outcome, ActionOutcome::Drop(DropReason::Malformed), "{:?}", behaviour.mode());
            assert_eq!(skb.packet.data(), bytes);
        }
    }
}
