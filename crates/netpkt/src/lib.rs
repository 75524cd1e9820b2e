//! # netpkt — wire formats for the SRv6 eBPF reproduction
//!
//! This crate provides the packet formats used throughout the workspace:
//! IPv6, the Segment Routing Header (SRH) with its TLVs, UDP and TCP, the
//! one walk of an IPv6 header chain ([`HeaderChain`]) every caller that
//! looks past the fixed header goes through, plus a small `skb`-like packet
//! buffer ([`PacketBuf`]) that supports pushing and pulling headers the way
//! the Linux kernel does when encapsulating and decapsulating SRv6 traffic.
//!
//! Everything here is plain, allocation-friendly Rust: packets are built
//! and parsed in memory and handed to the `seg6-core` data plane or to the
//! `simnet` simulator. The one I/O-touching module is [`sockio`], the
//! batched socket front-end (`recvmmsg`-shaped burst reads behind a small
//! trait seam) that the `srv6d` daemon feeds the worker pool from.
//!
//! ## Quick example
//!
//! ```
//! use netpkt::{Ipv6Header, SegmentRoutingHeader, UdpHeader, PacketBuf, proto};
//! use std::net::Ipv6Addr;
//!
//! // Build an SRv6 packet with two segments and a UDP payload.
//! let segments = vec![
//!     "fc00::2".parse::<Ipv6Addr>().unwrap(),
//!     "fc00::1".parse::<Ipv6Addr>().unwrap(),
//! ];
//! let srh = SegmentRoutingHeader::new(proto::UDP, segments, 1);
//! let udp = UdpHeader::new(5000, 6000, 64);
//! let payload = vec![0u8; 64];
//!
//! let mut pkt = PacketBuf::with_headroom(128);
//! pkt.append(&payload);
//! pkt.push_header(&udp.to_bytes());
//! pkt.push_header(&srh.to_bytes());
//! let ip = Ipv6Header::new(
//!     "2001:db8::1".parse().unwrap(),
//!     "fc00::1".parse().unwrap(),
//!     proto::ROUTING,
//!     pkt.len() as u16,
//!     64,
//! );
//! pkt.push_header(&ip.to_bytes());
//!
//! let parsed = Ipv6Header::parse(pkt.data()).unwrap();
//! assert_eq!(parsed.next_header, proto::ROUTING);
//! ```

// Unsafe is denied crate-wide; the one exception is `sockio::mmsg`, the
// raw `recvmmsg`/`sendmmsg` FFI backend, which carries its own
// `#[allow(unsafe_code)]` and documents every unsafe block — the same
// policy `seg6-runtime` applies to its `ring` module.
#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod buf;
pub mod bufpool;
pub mod checksum;
pub mod error;
pub mod flow;
pub mod ipv6;
pub mod packet;
pub mod prefix;
pub mod sockio;
pub mod srh;
pub mod tcp;
pub mod udp;

pub use buf::PacketBuf;
pub use bufpool::BufPool;
pub use error::{Error, Result};
pub use flow::{flow_key, rss_hash, rss_hash_packet, steer, FlowKey};
pub use ipv6::{proto, Ipv6Header, IPV6_HEADER_LEN};
pub use packet::{HeaderChain, ParsedPacket};
pub use prefix::Ipv6Prefix;
pub use sockio::mmsg::{MmsgRx, MmsgTx};
pub use sockio::{FrameBatch, MemRx, MemTx, PacketRx, PacketTx};
pub use srh::{SegmentRoutingHeader, SrhTlv, SrhView, TlvKind, SRH_FIXED_LEN};
pub use tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
pub use udp::{UdpHeader, UDP_HEADER_LEN};
