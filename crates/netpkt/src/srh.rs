//! The IPv6 Segment Routing Header (SRH, RFC 8754 / draft-ietf-6man-segment-routing-header).
//!
//! The SRH is an IPv6 routing extension header (routing type 4). It carries
//! the ordered list of segments — 128-bit IPv6 addresses — that the packet
//! must visit, stored in *reverse* order on the wire (`Segment List[0]` is
//! the final segment), plus optional TLVs. `Segments Left` indexes the
//! current segment.
//!
//! The fields an `End.BPF` program may edit through
//! `bpf_lwt_seg6_store_bytes` are the flags, the tag and the TLV area; the
//! offsets of those fields are exported as constants so the `seg6-core`
//! helpers and the verifier-side checks agree on them.

use crate::error::{ensure_len, Error, Result};
use std::net::Ipv6Addr;

/// Length of the fixed part of the SRH (before the segment list), in bytes.
pub const SRH_FIXED_LEN: usize = 8;
/// Routing type value assigned to Segment Routing (RFC 8754).
pub const SRH_ROUTING_TYPE: u8 = 4;
/// Byte offset of the flags field inside the SRH.
pub const SRH_FLAGS_OFFSET: usize = 5;
/// Byte offset of the 16-bit tag field inside the SRH.
pub const SRH_TAG_OFFSET: usize = 6;

/// TLV type for Pad1 (a single padding byte, no length field).
pub const TLV_TYPE_PAD1: u8 = 0;
/// TLV type for PadN.
pub const TLV_TYPE_PADN: u8 = 4;
/// TLV type used by the delay-measurement use case to carry a TX timestamp.
///
/// draft-ali-spring-srv6-pm does not have an IANA allocation; the paper's
/// artefact used an experimental value and so do we.
pub const TLV_TYPE_DM: u8 = 124;
/// TLV type carrying the IPv6 address and UDP port of the delay controller.
pub const TLV_TYPE_CONTROLLER: u8 = 125;
/// TLV type used by the End.OAMP use case to carry the prober's address.
pub const TLV_TYPE_OAM_REPLY_TO: u8 = 126;

/// A single SRH TLV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SrhTlv {
    /// One byte of padding.
    Pad1,
    /// `n` bytes of padding (including the type and length octets).
    PadN {
        /// Number of zero bytes in the value (total TLV size is `len + 2`).
        len: u8,
    },
    /// Delay-Measurement TLV: a 64-bit transmission timestamp in nanoseconds.
    DelayMeasurement {
        /// TX timestamp, nanoseconds since the simulation epoch.
        tx_timestamp_ns: u64,
    },
    /// Address and UDP port of the controller collecting delay reports.
    Controller {
        /// Controller IPv6 address.
        addr: Ipv6Addr,
        /// Controller UDP port.
        port: u16,
    },
    /// Address the End.OAMP function must send its ECMP report to.
    OamReplyTo {
        /// Prober IPv6 address.
        addr: Ipv6Addr,
        /// Prober UDP port.
        port: u16,
    },
    /// Any other TLV, kept as raw type + value bytes.
    Opaque {
        /// TLV type octet.
        kind: u8,
        /// Raw value bytes.
        value: Vec<u8>,
    },
}

/// Discriminant-only view of a TLV, useful for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlvKind {
    /// Pad1 padding.
    Pad1,
    /// PadN padding.
    PadN,
    /// Delay-Measurement TLV.
    DelayMeasurement,
    /// Controller address TLV.
    Controller,
    /// OAM reply-to TLV.
    OamReplyTo,
    /// Unrecognised TLV.
    Opaque(u8),
}

impl SrhTlv {
    /// The TLV's kind.
    pub fn kind(&self) -> TlvKind {
        match self {
            SrhTlv::Pad1 => TlvKind::Pad1,
            SrhTlv::PadN { .. } => TlvKind::PadN,
            SrhTlv::DelayMeasurement { .. } => TlvKind::DelayMeasurement,
            SrhTlv::Controller { .. } => TlvKind::Controller,
            SrhTlv::OamReplyTo { .. } => TlvKind::OamReplyTo,
            SrhTlv::Opaque { kind, .. } => TlvKind::Opaque(*kind),
        }
    }

    /// Size of the TLV on the wire, in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            SrhTlv::Pad1 => 1,
            SrhTlv::PadN { len } => 2 + usize::from(*len),
            SrhTlv::DelayMeasurement { .. } => 2 + 8,
            SrhTlv::Controller { .. } | SrhTlv::OamReplyTo { .. } => 2 + 18,
            SrhTlv::Opaque { value, .. } => 2 + value.len(),
        }
    }

    /// Serialises the TLV, appending to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            SrhTlv::Pad1 => out.push(TLV_TYPE_PAD1),
            SrhTlv::PadN { len } => {
                out.push(TLV_TYPE_PADN);
                out.push(*len);
                out.extend(std::iter::repeat_n(0u8, usize::from(*len)));
            }
            SrhTlv::DelayMeasurement { tx_timestamp_ns } => {
                out.push(TLV_TYPE_DM);
                out.push(8);
                out.extend_from_slice(&tx_timestamp_ns.to_be_bytes());
            }
            SrhTlv::Controller { addr, port } => {
                out.push(TLV_TYPE_CONTROLLER);
                out.push(18);
                out.extend_from_slice(&addr.octets());
                out.extend_from_slice(&port.to_be_bytes());
            }
            SrhTlv::OamReplyTo { addr, port } => {
                out.push(TLV_TYPE_OAM_REPLY_TO);
                out.push(18);
                out.extend_from_slice(&addr.octets());
                out.extend_from_slice(&port.to_be_bytes());
            }
            SrhTlv::Opaque { kind, value } => {
                out.push(*kind);
                out.push(value.len() as u8);
                out.extend_from_slice(value);
            }
        }
    }

    /// Copies a borrowed TLV the walker has already length-checked.
    fn from_raw(raw: RawTlv<'_>) -> SrhTlv {
        let RawTlv { kind, value } = raw;
        let addr_port = || {
            let mut addr = [0u8; 16];
            addr.copy_from_slice(&value[..16]);
            (Ipv6Addr::from(addr), u16::from_be_bytes([value[16], value[17]]))
        };
        match kind {
            TLV_TYPE_PAD1 => SrhTlv::Pad1,
            TLV_TYPE_PADN => SrhTlv::PadN { len: value.len() as u8 },
            TLV_TYPE_DM => {
                let mut ts = [0u8; 8];
                ts.copy_from_slice(value);
                SrhTlv::DelayMeasurement { tx_timestamp_ns: u64::from_be_bytes(ts) }
            }
            TLV_TYPE_CONTROLLER => {
                let (addr, port) = addr_port();
                SrhTlv::Controller { addr, port }
            }
            TLV_TYPE_OAM_REPLY_TO => {
                let (addr, port) = addr_port();
                SrhTlv::OamReplyTo { addr, port }
            }
            other => SrhTlv::Opaque { kind: other, value: value.to_vec() },
        }
    }
}

/// One TLV borrowed from a raw SRH: the type octet and the value bytes
/// (empty for Pad1, which has no length octet).
#[derive(Debug, Clone, Copy)]
struct RawTlv<'a> {
    kind: u8,
    value: &'a [u8],
}

impl<'a> RawTlv<'a> {
    /// Reads the TLV at the start of `buf`, holding the types this
    /// workspace defines to their fixed value lengths. Returns the TLV and
    /// the bytes it occupies.
    #[inline]
    fn read(buf: &'a [u8]) -> Result<(RawTlv<'a>, usize)> {
        ensure_len(buf, 1)?;
        let kind = buf[0];
        if kind == TLV_TYPE_PAD1 {
            return Ok((RawTlv { kind, value: &[] }, 1));
        }
        ensure_len(buf, 2)?;
        let len = usize::from(buf[1]);
        ensure_len(buf, 2 + len)?;
        match kind {
            TLV_TYPE_DM if len != 8 => Err(Error::BadTlv("DM TLV value must be 8 bytes")),
            TLV_TYPE_CONTROLLER | TLV_TYPE_OAM_REPLY_TO if len != 18 => {
                Err(Error::BadTlv("address TLV value must be 18 bytes"))
            }
            _ => Ok((RawTlv { kind, value: &buf[2..2 + len] }, 2 + len)),
        }
    }
}

/// A raw SRH that passed every check [`SegmentRoutingHeader::parse`]
/// makes, borrowed: the per-packet paths (the endpoint advance,
/// post-program validation, encapsulation) read the few fields they need
/// from it and own nothing.
#[derive(Debug, Clone, Copy)]
pub struct SrhView<'a> {
    /// Exactly the header's declared length.
    bytes: &'a [u8],
}

impl<'a> SrhView<'a> {
    /// Validates the SRH at the start of `buf` (trailing bytes beyond its
    /// declared length are ignored), accepting exactly what
    /// [`SegmentRoutingHeader::parse`] accepts. Allocates nothing.
    #[inline]
    pub fn parse(buf: &'a [u8]) -> Result<Self> {
        Self::walk(buf, |_| {})
    }

    /// The one SRH walker: checks the fixed part and the segment list,
    /// then hands every TLV to `on_tlv`. The owning parser and the
    /// borrowing validator are both this function, so they cannot drift.
    fn walk(buf: &'a [u8], mut on_tlv: impl FnMut(RawTlv<'a>)) -> Result<Self> {
        ensure_len(buf, SRH_FIXED_LEN)?;
        let total_len = 8 + usize::from(buf[1]) * 8;
        ensure_len(buf, total_len)?;
        if buf[2] != SRH_ROUTING_TYPE {
            return Err(Error::Malformed("routing type is not 4 (Segment Routing)"));
        }
        let n_segments = usize::from(buf[4]) + 1;
        let seg_end = SRH_FIXED_LEN + 16 * n_segments;
        if seg_end > total_len {
            return Err(Error::BadLength("segment list exceeds SRH length"));
        }
        if usize::from(buf[3]) >= n_segments {
            return Err(Error::Malformed("segments_left exceeds last_entry"));
        }
        let mut off = seg_end;
        while off < total_len {
            let (tlv, consumed) = RawTlv::read(&buf[off..total_len])?;
            off += consumed;
            on_tlv(tlv);
        }
        Ok(SrhView { bytes: &buf[..total_len] })
    }

    /// The header's bytes, exactly [`SrhView::wire_len`] of them.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Total length of the header in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// Protocol of the header following the SRH.
    pub fn next_header(&self) -> u8 {
        self.bytes[0]
    }

    /// Index of the currently active segment; the walk has checked that
    /// `Segment List[segments_left]` exists.
    #[inline]
    pub fn segments_left(&self) -> u8 {
        self.bytes[3]
    }

    /// Index of the last element of the segment list.
    fn last_entry(&self) -> u8 {
        self.bytes[4]
    }

    /// `Segment List[index]`; `index` must not exceed `last_entry`.
    fn segment(&self, index: u8) -> Ipv6Addr {
        let start = SRH_FIXED_LEN + 16 * usize::from(index);
        let mut octets = [0u8; 16];
        octets.copy_from_slice(&self.bytes[start..start + 16]);
        Ipv6Addr::from(octets)
    }

    /// The currently active segment, `Segment List[segments_left]` — the
    /// walk has checked that it exists.
    pub fn current_segment(&self) -> Ipv6Addr {
        self.segment(self.segments_left())
    }
}

/// A parsed or to-be-serialised Segment Routing Header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRoutingHeader {
    /// Protocol of the header following the SRH.
    pub next_header: u8,
    /// Index of the currently active segment (counts down to zero).
    pub segments_left: u8,
    /// Index of the last element of the segment list (`segments.len() - 1`).
    pub last_entry: u8,
    /// Flags octet. No flag bits are defined by RFC 8754; End.BPF programs
    /// may nevertheless write it through `bpf_lwt_seg6_store_bytes`.
    pub flags: u8,
    /// Operator-defined tag grouping packets (the paper's `Tag++` program
    /// increments it from eBPF).
    pub tag: u16,
    /// The segment list in wire order (`segments[0]` is the *final* segment).
    pub segments: Vec<Ipv6Addr>,
    /// Optional TLVs following the segment list.
    pub tlvs: Vec<SrhTlv>,
}

impl SegmentRoutingHeader {
    /// Creates an SRH from a segment list already in wire order.
    ///
    /// `segments_left` selects the active segment; `last_entry` is derived
    /// from the list length.
    pub fn new(next_header: u8, segments: Vec<Ipv6Addr>, segments_left: u8) -> Self {
        let last = segments.len().saturating_sub(1) as u8;
        SegmentRoutingHeader {
            next_header,
            segments_left,
            last_entry: last,
            flags: 0,
            tag: 0,
            segments,
            tlvs: Vec::new(),
        }
    }

    /// Creates an SRH from segments given in *path order* (first segment to
    /// visit first). The list is reversed into wire order and
    /// `segments_left` is initialised to point at the first segment of the
    /// path, which matches what an SRv6 source node emits.
    pub fn from_path(next_header: u8, path: &[Ipv6Addr]) -> Self {
        let mut segments: Vec<Ipv6Addr> = path.to_vec();
        segments.reverse();
        let left = segments.len().saturating_sub(1) as u8;
        Self::new(next_header, segments, left)
    }

    /// The currently active segment, i.e. `segments[segments_left]`.
    pub fn current_segment(&self) -> Option<Ipv6Addr> {
        self.segments.get(usize::from(self.segments_left)).copied()
    }

    /// The full path in visiting order (reverse of wire order).
    pub fn path(&self) -> Vec<Ipv6Addr> {
        let mut p = self.segments.clone();
        p.reverse();
        p
    }

    /// Decrements `segments_left` and returns the new active segment, as the
    /// `End` behaviour does. Returns an error if `segments_left` is already
    /// zero (the packet reached its last segment).
    pub fn advance(&mut self) -> Result<Ipv6Addr> {
        if self.segments_left == 0 {
            return Err(Error::Malformed("cannot advance SRH: segments_left is zero"));
        }
        self.segments_left -= 1;
        self.current_segment().ok_or(Error::Malformed("segments_left out of range"))
    }

    /// Total size of the serialised header in bytes, including TLV padding.
    pub fn wire_len(&self) -> usize {
        let tlv_len: usize = self.tlvs.iter().map(SrhTlv::wire_len).sum();
        let unpadded = SRH_FIXED_LEN + 16 * self.segments.len() + tlv_len;
        // The whole extension header must be a multiple of 8 bytes; the
        // serialiser pads the TLV area accordingly.
        unpadded.div_ceil(8) * 8
    }

    /// Byte offset (from the start of the SRH) where the TLV area begins.
    pub fn tlv_offset(&self) -> usize {
        SRH_FIXED_LEN + 16 * self.segments.len()
    }

    /// The value the Hdr Ext Len field will carry: SRH length in 8-octet
    /// units, not counting the first 8 octets.
    pub fn hdr_ext_len(&self) -> u8 {
        ((self.wire_len() - 8) / 8) as u8
    }

    /// Serialises the SRH, padding the TLV area to an 8-byte multiple with
    /// Pad1/PadN TLVs as required by RFC 8754.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.push(self.next_header);
        out.push(self.hdr_ext_len());
        out.push(SRH_ROUTING_TYPE);
        out.push(self.segments_left);
        out.push(self.last_entry);
        out.push(self.flags);
        out.extend_from_slice(&self.tag.to_be_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.octets());
        }
        for tlv in &self.tlvs {
            tlv.write_to(&mut out);
        }
        let target = self.wire_len();
        let missing = target - out.len();
        match missing {
            0 => {}
            1 => out.push(TLV_TYPE_PAD1),
            n => {
                out.push(TLV_TYPE_PADN);
                out.push((n - 2) as u8);
                out.extend(std::iter::repeat_n(0u8, n - 2));
            }
        }
        debug_assert_eq!(out.len(), target);
        out
    }

    /// Parses an SRH from the start of `buf`. Trailing bytes beyond the
    /// header's declared length are ignored. This is [`SrhView::parse`]'s
    /// walk, collecting what it visits.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let mut tlvs = Vec::new();
        let view = SrhView::walk(buf, |tlv| tlvs.push(SrhTlv::from_raw(tlv)))?;
        Ok(SegmentRoutingHeader {
            next_header: view.next_header(),
            segments_left: view.segments_left(),
            last_entry: view.last_entry(),
            flags: view.bytes[SRH_FLAGS_OFFSET],
            tag: u16::from_be_bytes([view.bytes[SRH_TAG_OFFSET], view.bytes[SRH_TAG_OFFSET + 1]]),
            segments: (0..=view.last_entry()).map(|i| view.segment(i)).collect(),
            tlvs,
        })
    }

    /// Finds the first TLV of the given kind.
    pub fn find_tlv(&self, kind: TlvKind) -> Option<&SrhTlv> {
        self.tlvs.iter().find(|t| t.kind() == kind)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn sample() -> SegmentRoutingHeader {
        SegmentRoutingHeader::from_path(17, &[addr("fc00::1"), addr("fc00::2"), addr("fc00::3")])
    }

    /// The borrowing validator's verdict on a raw SRH: its length.
    fn validate_raw(buf: &[u8]) -> Result<usize> {
        SrhView::parse(buf).map(|view| view.wire_len())
    }

    #[test]
    fn from_path_reverses_and_sets_segments_left() {
        let srh = sample();
        assert_eq!(srh.segments_left, 2);
        assert_eq!(srh.last_entry, 2);
        assert_eq!(srh.current_segment(), Some(addr("fc00::1")));
        assert_eq!(srh.segments[0], addr("fc00::3"));
        assert_eq!(srh.path(), vec![addr("fc00::1"), addr("fc00::2"), addr("fc00::3")]);
    }

    #[test]
    fn advance_walks_the_path() {
        let mut srh = sample();
        assert_eq!(srh.advance().unwrap(), addr("fc00::2"));
        assert_eq!(srh.advance().unwrap(), addr("fc00::3"));
        assert!(srh.advance().is_err());
    }

    #[test]
    fn roundtrip_without_tlvs() {
        let srh = sample();
        let bytes = srh.to_bytes();
        assert_eq!(bytes.len() % 8, 0);
        let parsed = SegmentRoutingHeader::parse(&bytes).unwrap();
        assert_eq!(parsed, srh);
    }

    #[test]
    fn roundtrip_with_dm_and_controller_tlvs() {
        let mut srh = sample();
        srh.tag = 0xbeef;
        srh.tlvs.push(SrhTlv::DelayMeasurement { tx_timestamp_ns: 123_456_789 });
        srh.tlvs.push(SrhTlv::Controller { addr: addr("2001:db8::99"), port: 9999 });
        let bytes = srh.to_bytes();
        assert_eq!(bytes.len() % 8, 0);
        let parsed = SegmentRoutingHeader::parse(&bytes).unwrap();
        assert_eq!(parsed.tag, 0xbeef);
        assert_eq!(
            parsed.find_tlv(TlvKind::DelayMeasurement),
            Some(&SrhTlv::DelayMeasurement { tx_timestamp_ns: 123_456_789 })
        );
        assert_eq!(
            parsed.find_tlv(TlvKind::Controller),
            Some(&SrhTlv::Controller { addr: addr("2001:db8::99"), port: 9999 })
        );
    }

    #[test]
    fn serialiser_pads_odd_tlv_area() {
        let mut srh = sample();
        // A 3-byte opaque TLV leaves the TLV area misaligned; the serialiser
        // must pad to an 8-byte boundary and the result must still parse.
        srh.tlvs.push(SrhTlv::Opaque { kind: 200, value: vec![1, 2, 3] });
        let bytes = srh.to_bytes();
        assert_eq!(bytes.len() % 8, 0);
        let parsed = SegmentRoutingHeader::parse(&bytes).unwrap();
        assert_eq!(
            parsed.find_tlv(TlvKind::Opaque(200)),
            Some(&SrhTlv::Opaque { kind: 200, value: vec![1, 2, 3] })
        );
    }

    #[test]
    fn parse_rejects_wrong_routing_type() {
        let mut bytes = sample().to_bytes();
        bytes[2] = 3;
        assert!(SegmentRoutingHeader::parse(&bytes).is_err());
    }

    #[test]
    fn parse_rejects_segments_left_out_of_range() {
        let mut bytes = sample().to_bytes();
        bytes[3] = 7;
        assert!(SegmentRoutingHeader::parse(&bytes).is_err());
    }

    #[test]
    fn parse_rejects_truncated_segment_list() {
        let bytes = sample().to_bytes();
        assert!(SegmentRoutingHeader::parse(&bytes[..16]).is_err());
    }

    #[test]
    fn validate_raw_catches_corrupted_tlv_area() {
        let mut srh = sample();
        srh.tlvs.push(SrhTlv::DelayMeasurement { tx_timestamp_ns: 1 });
        let mut bytes = srh.to_bytes();
        assert!(validate_raw(&bytes).is_ok());
        // Corrupt the DM TLV length so the walk overruns.
        let tlv_off = srh.tlv_offset();
        bytes[tlv_off + 1] = 200;
        assert!(validate_raw(&bytes).is_err());
    }

    /// SplitMix64: the differential tests' only source of randomness.
    pub(crate) struct Mix(pub(crate) u64);

    impl Mix {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random well-formed SRH: 1–6 segments, any `segments_left` in
    /// range, up to four TLVs of every kind (the serialiser adds the
    /// Pad1/PadN tail).
    pub(crate) fn random_srh(rng: &mut Mix) -> SegmentRoutingHeader {
        let n = 1 + rng.below(6) as usize;
        let segments = (0..n).map(|_| Ipv6Addr::from(u128::from(rng.next()) << 64 | 1)).collect();
        let mut srh = SegmentRoutingHeader::new(rng.next() as u8, segments, rng.below(n as u64) as u8);
        srh.flags = rng.next() as u8;
        srh.tag = rng.next() as u16;
        for _ in 0..rng.below(5) {
            srh.tlvs.push(match rng.below(6) {
                0 => SrhTlv::Pad1,
                1 => SrhTlv::PadN { len: rng.below(6) as u8 },
                2 => SrhTlv::DelayMeasurement { tx_timestamp_ns: rng.next() },
                3 => SrhTlv::Controller { addr: addr("2001:db8::c0"), port: rng.next() as u16 },
                4 => SrhTlv::OamReplyTo { addr: addr("2001:db8::0a"), port: rng.next() as u16 },
                _ => SrhTlv::Opaque {
                    kind: 130 + rng.below(100) as u8,
                    value: (0..rng.below(12)).map(|i| i as u8).collect(),
                },
            });
        }
        srh
    }

    /// The accept set written out once more, independently of the walker
    /// (this is the owning parser as it stood before it was rebuilt on
    /// [`SrhView`], reduced to its checks): the declared length if the
    /// bytes are an acceptable SRH.
    fn oracle(buf: &[u8]) -> Option<usize> {
        let total = 8 + usize::from(*buf.get(1)?) * 8;
        let n_segments = usize::from(*buf.get(4)?) + 1;
        if buf.len() < total
            || buf[2] != 4
            || 8 + 16 * n_segments > total
            || usize::from(buf[3]) >= n_segments
        {
            return None;
        }
        let mut off = 8 + 16 * n_segments;
        while off < total {
            if buf[off] == TLV_TYPE_PAD1 {
                off += 1;
                continue;
            }
            let len = usize::from(*buf[..total].get(off + 1)?);
            let fixed = match buf[off] {
                TLV_TYPE_DM => Some(8),
                TLV_TYPE_CONTROLLER | TLV_TYPE_OAM_REPLY_TO => Some(18),
                _ => None,
            };
            if off + 2 + len > total || fixed.is_some_and(|f| f != len) {
                return None;
            }
            off += 2 + len;
        }
        Some(total)
    }

    /// The borrowing validator and the owning parser must accept and
    /// reject the same bytes — the set the oracle spells out — and agree
    /// on the length.
    fn assert_same_verdict(bytes: &[u8]) {
        assert_eq!(validate_raw(bytes).ok(), oracle(bytes), "{bytes:02x?}");
        let owned = SegmentRoutingHeader::parse(bytes);
        match (validate_raw(bytes), &owned) {
            (Ok(len), Ok(parsed)) => {
                assert_eq!(len, 8 + usize::from(bytes[1]) * 8);
                assert_eq!(len, parsed.wire_len(), "{bytes:02x?}");
                let view = SrhView::parse(bytes).unwrap();
                assert_eq!(view.as_bytes(), &bytes[..len]);
                assert_eq!(Some(view.current_segment()), parsed.current_segment());
                assert_eq!(view.next_header(), parsed.next_header);
            }
            (Err(borrowed), Err(owned)) => assert_eq!(&borrowed, owned, "{bytes:02x?}"),
            (borrowed, owned) => panic!("validate_raw {borrowed:?} but parse {owned:?} on {bytes:02x?}"),
        }
    }

    /// An accepted header serialises to its own length and re-parses equal
    /// (PadN values come back zeroed, which the owned form does not record).
    fn assert_reparses_equal(bytes: &[u8]) {
        if let Ok(parsed) = SegmentRoutingHeader::parse(bytes) {
            let reserialised = parsed.to_bytes();
            assert_eq!(reserialised.len(), 8 + usize::from(bytes[1]) * 8, "{bytes:02x?}");
            assert_eq!(SegmentRoutingHeader::parse(&reserialised).unwrap(), parsed, "{bytes:02x?}");
        }
    }

    #[test]
    fn borrowing_validator_agrees_with_the_owning_parser() {
        let mut rng = Mix(0x5eed_0016);
        for _ in 0..400 {
            let srh = random_srh(&mut rng);
            let bytes = srh.to_bytes();
            assert_eq!(validate_raw(&bytes).unwrap(), bytes.len());
            assert_same_verdict(&bytes);
            // Every truncation, and trailing bytes past the declared length.
            for cut in 0..bytes.len() {
                assert_same_verdict(&bytes[..cut]);
            }
            let mut longer = bytes.clone();
            longer.extend_from_slice(&[0xee; 5]);
            assert_same_verdict(&longer);
            // Single-byte mutations: the four structural octets get every
            // interesting value, every other byte (segment, TLV type, TLV
            // length, padding) a few random ones.
            for at in 0..bytes.len() {
                let values: Vec<u8> = match at {
                    1 | 3 | 4 => {
                        let near = bytes[at];
                        vec![0, 1, near.wrapping_sub(1), near.wrapping_add(1), near.wrapping_add(2), 127, 255]
                    }
                    2 => vec![0, 3, 5],
                    _ => (0..3).map(|_| rng.next() as u8).chain([0, 4, 124, 125, 126]).collect(),
                };
                for value in values {
                    let mut mutated = bytes.clone();
                    mutated[at] = value;
                    assert_same_verdict(&mutated);
                    if !(SRH_FIXED_LEN..srh.tlv_offset()).contains(&at) {
                        assert_reparses_equal(&mutated);
                    }
                }
            }
        }
    }

    /// Hostile bytes: random buffers, half of them shaped to get past the
    /// routing-type and length checks so the segment and TLV walks see
    /// garbage too. Neither parser may panic, both give one verdict, and
    /// what they accept re-parses equal.
    #[test]
    fn random_bytes_get_one_verdict_from_both_parsers() {
        random_bytes_round(20_000);
    }

    /// The same fuzz on 50 times the cases.
    #[test]
    #[ignore = "long fuzz run: cargo test --release -- --ignored"]
    fn random_bytes_get_one_verdict_from_both_parsers_long() {
        random_bytes_round(1_000_000);
    }

    fn random_bytes_round(cases: usize) {
        let mut rng = Mix(0x5eed_0029);
        for _ in 0..cases {
            let mut bytes: Vec<u8> = (0..rng.below(120)).map(|_| rng.next() as u8).collect();
            if bytes.len() >= SRH_FIXED_LEN && rng.below(2) == 0 {
                bytes[1] = rng.below(bytes.len() as u64 / 8 + 1) as u8;
                bytes[2] = SRH_ROUTING_TYPE;
                bytes[4] = rng.below(4) as u8;
                bytes[3] = rng.below(u64::from(bytes[4]) + 2) as u8;
            }
            assert_same_verdict(&bytes);
            assert_reparses_equal(&bytes);
        }
    }

    #[test]
    fn wire_len_matches_serialised_length() {
        let mut srh = sample();
        srh.tlvs.push(SrhTlv::OamReplyTo { addr: addr("fc00::aa"), port: 4242 });
        assert_eq!(srh.wire_len(), srh.to_bytes().len());
    }

    #[test]
    fn field_offsets_match_wire_layout() {
        let mut srh = sample();
        srh.flags = 0xa5;
        srh.tag = 0x1234;
        let bytes = srh.to_bytes();
        assert_eq!(bytes[SRH_FLAGS_OFFSET], 0xa5);
        assert_eq!(&bytes[SRH_TAG_OFFSET..SRH_TAG_OFFSET + 2], &[0x12, 0x34]);
    }

    #[test]
    fn single_segment_srh() {
        let srh = SegmentRoutingHeader::from_path(41, &[addr("fc00::9")]);
        assert_eq!(srh.segments_left, 0);
        assert_eq!(srh.last_entry, 0);
        assert_eq!(srh.current_segment(), Some(addr("fc00::9")));
        let parsed = SegmentRoutingHeader::parse(&srh.to_bytes()).unwrap();
        assert_eq!(parsed, srh);
    }
}
