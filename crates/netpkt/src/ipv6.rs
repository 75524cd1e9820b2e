//! The fixed IPv6 header (RFC 8200 §3).

use crate::error::{ensure_len, Error, Result};
use std::net::Ipv6Addr;

/// Length in bytes of the fixed IPv6 header.
pub const IPV6_HEADER_LEN: usize = 40;

/// Next-header (protocol) numbers used in this workspace.
pub mod proto {
    /// IPv6 Routing extension header (the SRH uses routing type 4).
    pub const ROUTING: u8 = 43;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// IPv6-in-IPv6 encapsulation, used by SRv6 encap mode.
    pub const IPV6: u8 = 41;
    /// No next header.
    pub const NONE: u8 = 59;
}

/// A parsed or to-be-serialised fixed IPv6 header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Header {
    /// Traffic class (DSCP + ECN).
    pub traffic_class: u8,
    /// 20-bit flow label. SRv6 ECMP hashing uses it as entropy input.
    pub flow_label: u32,
    /// Length of everything after the fixed header, in bytes.
    pub payload_length: u16,
    /// Protocol of the following header.
    pub next_header: u8,
    /// Hop limit, decremented at each forwarding hop.
    pub hop_limit: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
}

impl Ipv6Header {
    /// Creates a header with a zero traffic class and flow label.
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, payload_length: u16, hop_limit: u8) -> Self {
        Ipv6Header { traffic_class: 0, flow_label: 0, payload_length, next_header, hop_limit, src, dst }
    }

    /// Parses the first [`IPV6_HEADER_LEN`] bytes of `buf`.
    #[inline]
    pub fn parse(buf: &[u8]) -> Result<Self> {
        ensure_len(buf, IPV6_HEADER_LEN)?;
        let version = buf[0] >> 4;
        if version != 6 {
            return Err(Error::Malformed("IPv6 version field is not 6"));
        }
        let traffic_class = (buf[0] << 4) | (buf[1] >> 4);
        let flow_label = (u32::from(buf[1] & 0x0f) << 16) | (u32::from(buf[2]) << 8) | u32::from(buf[3]);
        let payload_length = u16::from_be_bytes([buf[4], buf[5]]);
        let next_header = buf[6];
        let hop_limit = buf[7];
        let mut src = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&buf[24..40]);
        Ok(Ipv6Header {
            traffic_class,
            flow_label,
            payload_length,
            next_header,
            hop_limit,
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
        })
    }

    /// Serialises the header to its 40-byte wire representation.
    pub fn to_bytes(&self) -> [u8; IPV6_HEADER_LEN] {
        let mut out = [0u8; IPV6_HEADER_LEN];
        self.write_to(&mut out);
        out
    }

    /// Serialises the header into the first 40 bytes of `buf`.
    ///
    /// # Panics
    /// Panics if `buf` is shorter than [`IPV6_HEADER_LEN`].
    pub fn write_to(&self, buf: &mut [u8]) {
        let flow = self.flow_label & 0x000f_ffff;
        buf[0] = (6 << 4) | (self.traffic_class >> 4);
        buf[1] = ((self.traffic_class & 0x0f) << 4) | ((flow >> 16) as u8);
        buf[2] = (flow >> 8) as u8;
        buf[3] = flow as u8;
        buf[4..6].copy_from_slice(&self.payload_length.to_be_bytes());
        buf[6] = self.next_header;
        buf[7] = self.hop_limit;
        buf[8..24].copy_from_slice(&self.src.octets());
        buf[24..40].copy_from_slice(&self.dst.octets());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv6Header {
        Ipv6Header {
            traffic_class: 0xb8,
            flow_label: 0xabcde,
            payload_length: 1280,
            next_header: proto::UDP,
            hop_limit: 63,
            src: "2001:db8::1".parse().unwrap(),
            dst: "fc00::42".parse().unwrap(),
        }
    }

    #[test]
    fn roundtrip() {
        let hdr = sample();
        let bytes = hdr.to_bytes();
        assert_eq!(Ipv6Header::parse(&bytes).unwrap(), hdr);
    }

    #[test]
    fn version_nibble_is_six() {
        assert_eq!(sample().to_bytes()[0] >> 4, 6);
    }

    #[test]
    fn parse_rejects_wrong_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0x45; // IPv4-looking first byte
        assert_eq!(Ipv6Header::parse(&bytes).unwrap_err(), Error::Malformed("IPv6 version field is not 6"));
    }

    #[test]
    fn parse_rejects_short_buffer() {
        assert!(matches!(Ipv6Header::parse(&[0x60; 39]), Err(Error::Truncated { .. })));
    }

    #[test]
    fn flow_label_is_masked_to_20_bits() {
        let mut hdr = sample();
        hdr.flow_label = 0xfff_ffff;
        let parsed = Ipv6Header::parse(&hdr.to_bytes()).unwrap();
        assert_eq!(parsed.flow_label, 0x000f_ffff);
    }

    #[test]
    fn traffic_class_straddles_bytes() {
        let hdr = sample();
        let bytes = hdr.to_bytes();
        let parsed = Ipv6Header::parse(&bytes).unwrap();
        assert_eq!(parsed.traffic_class, 0xb8);
    }
}
