//! RSS-style flow classification: the 5-tuple flow key, the Toeplitz hash
//! and receive-queue steering.
//!
//! A multi-queue NIC spreads incoming packets over its receive queues by
//! hashing the flow identity (source/destination address, transport
//! protocol and ports) with the Toeplitz hash and indexing an indirection
//! table with the result. The `seg6-runtime` crate reproduces exactly that
//! architecture in software: every packet is classified here, hashed, and
//! steered to a worker shard. Keeping all packets of one flow on one worker
//! preserves ordering and makes per-worker (per-CPU) map state coherent
//! without locks — the same argument the kernel makes for RSS + per-CPU
//! maps in the paper's End.BPF datapath.

use crate::ipv6::{proto, IPV6_HEADER_LEN};
use crate::packet::HeaderChain;
use std::net::Ipv6Addr;

/// The identity of a transport flow: the classic 5-tuple.
///
/// For packets without a parseable transport header (ICMPv6, fragments,
/// unknown extension chains) the ports are zero and the hash degrades to a
/// 3-tuple — flows still steer consistently, they just share buckets more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source address of the innermost parsed IPv6 header.
    pub src: Ipv6Addr,
    /// Destination address of the innermost parsed IPv6 header.
    pub dst: Ipv6Addr,
    /// Transport protocol (`proto::UDP`, `proto::TCP`, ...).
    pub protocol: u8,
    /// Transport source port (0 when not applicable).
    pub src_port: u16,
    /// Transport destination port (0 when not applicable).
    pub dst_port: u16,
}

/// Extracts the [`FlowKey`] from a raw IPv6 packet.
///
/// The key is what NIC parsers read from SRv6 traffic: the addresses of
/// the innermost IPv6 header [`HeaderChain::walk`] reaches (through a
/// routing header and at most one level of IPv6-in-IPv6 encapsulation) and
/// the ports of the transport header behind it. Hashing the *inner*
/// addresses keeps a flow on the same queue before and after encapsulation
/// or decapsulation, which matters when a probe or tunnel traverses several
/// runtime nodes. The walk validates and allocates nothing, as steering
/// runs once per packet before any processing.
///
/// Returns `None` only when the buffer does not even hold an IPv6 header.
pub fn flow_key(packet: &[u8]) -> Option<FlowKey> {
    if packet.len() < IPV6_HEADER_LEN || packet[0] >> 4 != 6 {
        return None;
    }
    let addr_at = |offset: usize| {
        let mut octets = [0u8; 16];
        octets.copy_from_slice(&packet[offset..offset + 16]);
        Ipv6Addr::from(octets)
    };
    let chain = HeaderChain::walk(packet);
    let ip = chain.inner().unwrap_or(0);
    let (protocol, offset) = chain.transport();
    let (src_port, dst_port) = match protocol {
        proto::UDP | proto::TCP if packet.len() >= offset + 4 => {
            let sp = u16::from_be_bytes([packet[offset], packet[offset + 1]]);
            let dp = u16::from_be_bytes([packet[offset + 2], packet[offset + 3]]);
            (sp, dp)
        }
        _ => (0, 0),
    };
    Some(FlowKey { src: addr_at(ip + 8), dst: addr_at(ip + 24), protocol, src_port, dst_port })
}

/// The Microsoft RSS reference hash key, as programmed into NICs by default
/// (40 bytes covers the IPv6 5-tuple input width).
pub const RSS_DEFAULT_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0,
    0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c, 0x6a, 0x42,
    0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// The Toeplitz hash over `input` with `key`, as defined by the RSS
/// specification: for every set bit of the input, XOR in the 32-bit window
/// of the key starting at that bit position.
pub fn toeplitz_hash(key: &[u8; 40], input: &[u8]) -> u32 {
    assert!(input.len() * 8 + 32 <= key.len() * 8, "input too wide for the key");
    let mut hash = 0u32;
    // The sliding 32-bit window of the key, advanced bit by bit.
    let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    let mut next_key_bit = 32;
    for &byte in input {
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                hash ^= window;
            }
            let incoming = key[next_key_bit / 8] >> (7 - next_key_bit % 8) & 1;
            window = window << 1 | u32::from(incoming);
            next_key_bit += 1;
        }
    }
    hash
}

/// Per-(byte-position, byte-value) contribution tables for
/// [`RSS_DEFAULT_KEY`], turning the bit-serial Toeplitz definition into 36
/// table lookups — the same trick NIC drivers and DPDK use in software RSS.
/// ~37 KiB, built once.
fn default_key_tables() -> &'static [[u32; 256]; 36] {
    static TABLES: std::sync::OnceLock<Box<[[u32; 256]; 36]>> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Box::new([[0u32; 256]; 36]);
        for (pos, table) in tables.iter_mut().enumerate() {
            // The 32-bit key window starting at bit `pos * 8 + bit`.
            let window_at = |bitpos: usize| -> u32 {
                let mut window = 0u32;
                for i in 0..32 {
                    let bit = bitpos + i;
                    let key_bit = RSS_DEFAULT_KEY[bit / 8] >> (7 - bit % 8) & 1;
                    window = window << 1 | u32::from(key_bit);
                }
                window
            };
            for (value, slot) in table.iter_mut().enumerate() {
                let mut hash = 0u32;
                for bit in 0..8 {
                    if value >> (7 - bit) & 1 == 1 {
                        hash ^= window_at(pos * 8 + bit);
                    }
                }
                *slot = hash;
            }
        }
        tables
    })
}

/// The RSS hash of a flow key: the Toeplitz hash over the concatenated
/// IPv6 5-tuple (source address, destination address, source port,
/// destination port), the input ordering NICs use for `TCP/UDP over IPv6`.
///
/// The protocol byte is mixed into the final value rather than the Toeplitz
/// input so the function stays bit-compatible with the hardware hash for
/// TCP and UDP.
pub fn rss_hash(key: &FlowKey) -> u32 {
    let mut input = [0u8; 36];
    input[..16].copy_from_slice(&key.src.octets());
    input[16..32].copy_from_slice(&key.dst.octets());
    input[32..34].copy_from_slice(&key.src_port.to_be_bytes());
    input[34..36].copy_from_slice(&key.dst_port.to_be_bytes());
    let tables = default_key_tables();
    let mut hash = 0u32;
    for (pos, &byte) in input.iter().enumerate() {
        hash ^= tables[pos][usize::from(byte)];
    }
    if key.protocol == proto::UDP || key.protocol == proto::TCP {
        hash
    } else {
        hash ^ u32::from(key.protocol).wrapping_mul(0x9e37_79b9)
    }
}

/// The RSS hash computed directly from a packet. Packets too short to carry
/// an IPv6 header all hash to zero (and thus steer to queue zero).
pub fn rss_hash_packet(packet: &[u8]) -> u32 {
    flow_key(packet).map_or(0, |key| rss_hash(&key))
}

/// Maps a flow hash to one of `queues` receive queues, as the RSS
/// indirection table does. `queues` must be non-zero.
pub fn steer(hash: u32, queues: usize) -> usize {
    assert!(queues > 0, "cannot steer to zero queues");
    hash as usize % queues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv6::Ipv6Header;
    use crate::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use crate::srh::SegmentRoutingHeader;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn udp_packet(src: &str, dst: &str, sp: u16, dp: u16) -> Vec<u8> {
        build_ipv6_udp_packet(addr(src), addr(dst), sp, dp, &[0u8; 32], 64).data().to_vec()
    }

    #[test]
    fn flow_key_reads_the_five_tuple() {
        let pkt = udp_packet("2001:db8::1", "2001:db8::2", 1234, 5678);
        let key = flow_key(&pkt).unwrap();
        assert_eq!(key.src, addr("2001:db8::1"));
        assert_eq!(key.dst, addr("2001:db8::2"));
        assert_eq!(key.protocol, proto::UDP);
        assert_eq!(key.src_port, 1234);
        assert_eq!(key.dst_port, 5678);
    }

    #[test]
    fn flow_key_follows_srh_and_encapsulation() {
        // An SRv6 packet: the transport sits behind the SRH.
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::e1"), addr("fc00::e2")]);
        let pkt = build_srv6_udp_packet(addr("2001:db8::1"), &srh, 10, 20, &[0u8; 16], 64);
        let key = flow_key(pkt.data()).unwrap();
        assert_eq!(key.protocol, proto::UDP);
        assert_eq!(key.src_port, 10);
        assert_eq!(key.dst_port, 20);

        // IPv6-in-IPv6: the key uses the inner addresses, so the flow stays
        // on the same queue across encapsulation.
        let inner = udp_packet("2001:db8::1", "2001:db8::2", 7, 8);
        let inner_key = flow_key(&inner).unwrap();
        let mut encapped = inner.clone();
        let outer_srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::a")]);
        seg6_encap_for_test(&mut encapped, &outer_srh);
        let outer_key = flow_key(&encapped).unwrap();
        assert_eq!(inner_key, outer_key);
    }

    /// Minimal encapsulation helper (outer IPv6 + SRH pushed in front),
    /// mirroring what `seg6-core`'s `push_srh_encap` produces.
    fn seg6_encap_for_test(packet: &mut Vec<u8>, srh: &SegmentRoutingHeader) {
        let srh_bytes = srh.to_bytes();
        let payload_len = (packet.len() + srh_bytes.len()) as u16;
        let outer = Ipv6Header::new(
            addr("fc00::99"),
            srh.current_segment().unwrap(),
            proto::ROUTING,
            payload_len,
            64,
        );
        let mut out = outer.to_bytes().to_vec();
        out.extend_from_slice(&srh_bytes);
        out.extend_from_slice(packet);
        *packet = out;
    }

    #[test]
    fn malformed_packets_hash_to_zero() {
        assert!(flow_key(&[0u8; 8]).is_none());
        assert_eq!(rss_hash_packet(&[0u8; 8]), 0);
    }

    #[test]
    fn toeplitz_matches_the_published_ipv6_test_vectors() {
        // Verification suite from the Microsoft RSS specification
        // ("Verifying the RSS Hash Calculation", TCP/IPv6 examples):
        // destination address, source address, then destination/source port
        // concatenated in network order.
        let vectors: [(&str, u16, &str, u16, u32); 3] = [
            ("3ffe:2501:200:3::1", 1766, "3ffe:2501:200:1fff::7", 2794, 0x4020_7d3d),
            ("ff02::1", 4739, "3ffe:501:8::260:97ff:fe40:efab", 14230, 0xdde5_1bbf),
            ("fe80::200:f8ff:fe21:67cf", 38024, "3ffe:1900:4545:3:200:f8ff:fe21:67cf", 44251, 0x02d1_feef),
        ];
        for (dst, dst_port, src, src_port, expected) in vectors {
            let mut input = [0u8; 36];
            input[..16].copy_from_slice(&addr(src).octets());
            input[16..32].copy_from_slice(&addr(dst).octets());
            input[32..34].copy_from_slice(&src_port.to_be_bytes());
            input[34..36].copy_from_slice(&dst_port.to_be_bytes());
            assert_eq!(toeplitz_hash(&RSS_DEFAULT_KEY, &input), expected, "vector for {src}");
            // The table-driven fast path agrees with the bit-serial
            // definition (rss_hash uses it internally).
            let key = FlowKey { src: addr(src), dst: addr(dst), protocol: proto::TCP, src_port, dst_port };
            assert_eq!(rss_hash(&key), expected, "table path for {src}");
        }
    }

    #[test]
    fn hash_is_deterministic() {
        let pkt = udp_packet("2001:db8::1", "2001:db8::2", 1234, 5678);
        let h1 = rss_hash_packet(&pkt);
        let h2 = rss_hash_packet(&pkt);
        assert_eq!(h1, h2);
        // And sensitive to every element of the tuple.
        assert_ne!(h1, rss_hash_packet(&udp_packet("2001:db8::1", "2001:db8::2", 1234, 5679)));
        assert_ne!(h1, rss_hash_packet(&udp_packet("2001:db8::1", "2001:db8::3", 1234, 5678)));
    }

    #[test]
    fn steering_spreads_flows_evenly() {
        // 4096 distinct flows over 8 queues: expect every queue to get
        // within 25% of the fair share (512).
        let queues = 8;
        let mut counts = vec![0usize; queues];
        for i in 0..4096u32 {
            let pkt = udp_packet(
                &format!("2001:db8::{:x}", i + 1),
                "2001:db8:ffff::1",
                1024 + (i % 512) as u16,
                5001,
            );
            counts[steer(rss_hash_packet(&pkt), queues)] += 1;
        }
        let fair = 4096 / queues;
        for (queue, &count) in counts.iter().enumerate() {
            assert!(
                count > fair * 3 / 4 && count < fair * 5 / 4,
                "queue {queue} got {count} of {fair} fair share: {counts:?}"
            );
        }
    }

    #[test]
    fn same_flow_always_steers_to_the_same_queue() {
        let pkt = udp_packet("2001:db8::a", "2001:db8::b", 40000, 443);
        let q = steer(rss_hash_packet(&pkt), 16);
        for _ in 0..10 {
            assert_eq!(steer(rss_hash_packet(&pkt), 16), q);
        }
    }
}
