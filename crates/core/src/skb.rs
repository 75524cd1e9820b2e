//! The socket-buffer analogue carried through the data plane.
//!
//! A [`Skb`] bundles the packet bytes with the metadata the kernel keeps
//! alongside them: receive timestamp, ingress interface, mark, and — central
//! to the paper's `BPF_REDIRECT` semantics — the destination/next-hop
//! override that `bpf_lwt_seg6_action` installs so that the default
//! endpoint lookup is skipped after the program returns.

use crate::fib::TableId;
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
    /// Time the packet entered the node, in simulation nanoseconds (the "RX
    /// software timestamp" read by `End.DM`).
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
    pub fn received(packet: PacketBuf, rx_timestamp_ns: u64, ingress_ifindex: u32) -> Self {
        Skb { packet, rx_timestamp_ns, ingress_ifindex, mark: 0, route_override: RouteOverride::default() }
    }

    /// Consumes the skb and hands its packet buffer back — the recycle
    /// hand-off of the ingestion loop: after the flush barrier, the
    /// dispatcher returns each processed packet's storage to the
    /// `netpkt::BufPool` arena, so the next packet reuses the allocation.
    /// The metadata (timestamps, overrides) is dropped with the skb.
    pub fn into_packet(self) -> PacketBuf {
        self.packet
    }

    /// Packet length in bytes.
    pub fn len(&self) -> usize {
        self.packet.len()
    }

    /// Whether the packet is empty.
    pub fn is_empty(&self) -> bool {
        self.packet.is_empty()
    }
}

/// The copy-edit-commit step of every static behaviour that may resize
/// the packet: `edit` works on a copy of the packet bytes in the reusable
/// buffer `work`, and only an `Ok` result is committed back into the skb —
/// a packet whose edit failed is left exactly as it arrived. No allocation
/// once `work` and the skb's storage have grown to their steady-state
/// sizes.
pub fn edit_packet<T, E>(
    skb: &mut Skb,
    work: &mut Vec<u8>,
    edit: impl FnOnce(&mut Vec<u8>) -> Result<T, E>,
) -> Result<T, E> {
    work.clear();
    work.extend_from_slice(skb.packet.data());
    let out = edit(work)?;
    skb.packet.set_data(work);
    Ok(out)
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
}
