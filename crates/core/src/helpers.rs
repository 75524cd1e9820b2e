//! The four SRv6 eBPF helpers the paper adds to the kernel (§3.1).
//!
//! * [`bpf_lwt_seg6_store_bytes`](helper_seg6_store_bytes) — indirect write
//!   access to the *editable* fields of the SRH (flags, tag, TLVs);
//! * [`bpf_lwt_seg6_adjust_srh`](helper_seg6_adjust_srh) — grow or shrink
//!   the space reserved to TLVs;
//! * [`bpf_lwt_seg6_action`](helper_seg6_action) — apply a basic SRv6
//!   behaviour (End.X, End.T, End.B6, End.B6.Encaps, End.DT6, End.DX6);
//! * [`bpf_lwt_push_encap`](helper_lwt_push_encap) — attach an SRH to plain
//!   IPv6 traffic from a BPF LWT program (inline or encap mode).
//!
//! The first three are restricted to `End.BPF` (`lwt_seg6local`) programs;
//! the last one to the LWT hooks' types, mirroring the kernel's gating. The
//! datapath attaches each type at its own hook only, so the gate is also a
//! statement about where a helper runs.

use crate::ctx;
use crate::env::Seg6Env;
use crate::fib::MAIN_TABLE;
use crate::skb::RouteOverride;
use crate::srv6_ops;
use ebpf_vm::helpers::{ids, HelperRegistry};
use ebpf_vm::program::ProgramType;
use ebpf_vm::vm::HelperApi;
use std::borrow::Cow;
use std::net::Ipv6Addr;

/// Action codes accepted by `bpf_lwt_seg6_action`, mirroring the kernel's
/// `SEG6_LOCAL_ACTION_*` values.
pub mod action_codes {
    /// `End.X`: forward to a specific IPv6 next hop (parameter: 16-byte
    /// address).
    pub const END_X: u32 = 2;
    /// `End.T`: look the new destination up in a specific table (parameter:
    /// 4-byte table id).
    pub const END_T: u32 = 3;
    /// `End.DX6`: decapsulate and forward to a specific next hop
    /// (parameter: 16-byte address).
    pub const END_DX6: u32 = 5;
    /// `End.DT6`: decapsulate and look the inner destination up in a table
    /// (parameter: 4-byte table id).
    pub const END_DT6: u32 = 7;
    /// `End.B6`: insert a new SRH on top of the existing one (parameter:
    /// the SRH bytes).
    pub const END_B6: u32 = 9;
    /// `End.B6.Encaps`: encapsulate in an outer IPv6 header with a new SRH
    /// (parameter: the SRH bytes).
    pub const END_B6_ENCAP: u32 = 10;
}

/// Encapsulation modes accepted by `bpf_lwt_push_encap`, mirroring
/// `enum bpf_lwt_encap_mode`.
pub mod encap_modes {
    /// Encapsulate the packet in an outer IPv6 header carrying the SRH.
    pub const SEG6: u64 = 0;
    /// Insert the SRH directly into the existing IPv6 packet.
    pub const SEG6_INLINE: u64 = 1;
}

static SEG6LOCAL_ONLY: &[ProgramType] = &[ProgramType::LwtSeg6Local];
static LWT_HOOKS: &[ProgramType] = &[ProgramType::LwtIn, ProgramType::LwtXmit];

/// Builds a helper registry with the base kernel helpers plus the four SRv6
/// helpers, gated by program type exactly as the paper's kernel patch does.
/// All four may change the packet, so the verifier invalidates packet
/// pointers across them, as the kernel's `bpf_helper_changes_pkt_data` does.
pub fn seg6_helper_registry() -> HelperRegistry {
    let mut registry = HelperRegistry::with_base_helpers();
    registry.register_packet_changing(
        ids::LWT_SEG6_STORE_BYTES,
        "bpf_lwt_seg6_store_bytes",
        helper_seg6_store_bytes,
        Some(SEG6LOCAL_ONLY),
    );
    registry.register_packet_changing(
        ids::LWT_SEG6_ADJUST_SRH,
        "bpf_lwt_seg6_adjust_srh",
        helper_seg6_adjust_srh,
        Some(SEG6LOCAL_ONLY),
    );
    registry.register_packet_changing(
        ids::LWT_SEG6_ACTION,
        "bpf_lwt_seg6_action",
        helper_seg6_action,
        Some(SEG6LOCAL_ONLY),
    );
    registry.register_packet_changing(
        ids::LWT_PUSH_ENCAP,
        "bpf_lwt_push_encap",
        helper_lwt_push_encap,
        Some(LWT_HOOKS),
    );
    registry
}

/// Stack-buffer size for variable-size parameter reads — re-exported from
/// the shared `ebpf_vm` implementation so the two layers cannot drift.
const PARAM_STACK: usize = ebpf_vm::helpers::MAX_STACK_PARAM;

/// Reads a variable-size helper parameter without allocating when it fits
/// the caller's stack buffer: the SRv6 helpers' length policy (non-empty,
/// at most 4096 bytes, as the kernel enforces) on top of the shared
/// [`ebpf_vm::helpers::read_param`] read.
fn read_param<'b>(
    api: &HelperApi<'_, '_>,
    ptr: u64,
    len: usize,
    buf: &'b mut [u8; PARAM_STACK],
) -> Option<Cow<'b, [u8]>> {
    if len == 0 || len > 4096 {
        return None;
    }
    ebpf_vm::helpers::read_param(api, ptr, len, buf)
}

/// Reads a fixed-size 16-byte IPv6 address parameter into a stack array —
/// the borrow API means no `Vec` for scalar parameters.
fn read_addr_param(api: &HelperApi<'_, '_>, ptr: u64) -> Option<Ipv6Addr> {
    let mut octets = [0u8; 16];
    api.read_into(ptr, &mut octets).ok()?;
    Some(Ipv6Addr::from(octets))
}

/// Reads a fixed-size 4-byte little-endian parameter (table ids).
fn read_u32_param(api: &HelperApi<'_, '_>, ptr: u64) -> Option<u32> {
    let mut bytes = [0u8; 4];
    api.read_into(ptr, &mut bytes).ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// `long bpf_lwt_seg6_store_bytes(skb, offset, from, len)`
///
/// Writes `len` bytes taken from program memory at `from` into the SRH at
/// `offset` (relative to the start of the SRH; the kernel's is relative to
/// the packet). As in the kernel, a write must lie inside the TLV area or
/// inside the flags and tag, `[5, 8)`, in one call or several; anything
/// else — the segment list, the header length, segments_left — is refused
/// so that the program cannot "jeopardise the integrity of the SRH" (§3).
/// Only a TLV-area write leaves the SRH to be re-validated after the
/// program (the kernel's `srh_state->valid = false`): flags and tag cannot
/// break it.
pub fn helper_seg6_store_bytes(api: &mut HelperApi<'_, '_>, args: [u64; 5]) -> i64 {
    let offset = args[1] as usize;
    let len = args[3] as usize;
    let mut pbuf = [0u8; PARAM_STACK];
    let Some(bytes) = read_param(api, args[2], len, &mut pbuf) else { return -1 };
    let Some(mut parts) = api.parts::<Seg6Env>() else { return -1 };
    let Some(srh_off) = parts.env.srh_offset else { return -1 };
    let in_tlv_area = {
        // Parse enough of the SRH to know which byte ranges are editable.
        let packet = parts.packet();
        if packet.len() < srh_off + 8 {
            return -1;
        }
        let srh_len = 8 + usize::from(packet[srh_off + 1]) * 8;
        let last_entry = usize::from(packet[srh_off + 4]);
        let tlv_start = 8 + 16 * (last_entry + 1);
        let end = offset.saturating_add(len);
        let in_tlv_area = offset >= tlv_start && end <= srh_len;
        let in_flags_and_tag = offset >= 5 && end <= 8;
        if !(in_tlv_area || in_flags_and_tag) || srh_off + end > packet.len() {
            return -1;
        }
        in_tlv_area
    };
    parts.packet_mut().bytes_mut()[srh_off + offset..srh_off + offset + len].copy_from_slice(&bytes);
    parts.env.out.revalidate_srh |= in_tlv_area;
    0
}

/// `long bpf_lwt_seg6_adjust_srh(skb, offset, delta)`
///
/// Grows (`delta > 0`) or shrinks (`delta < 0`) the TLV area of the SRH at
/// `offset` bytes from the start of the SRH (the kernel's offset is
/// relative to the packet). `delta` must be a multiple of eight so the
/// header length stays expressible; the IPv6 payload length, the SRH
/// header length and the program's view of the packet (`data_end`, `len`)
/// are all updated. The newly allocated space is zero-filled and must be
/// turned into valid TLVs by the program before it returns, otherwise the
/// End.BPF post-validation drops the packet. Every check comes before the
/// first write: a call that fails leaves the packet and the context as they
/// were.
pub fn helper_seg6_adjust_srh(api: &mut HelperApi<'_, '_>, args: [u64; 5]) -> i64 {
    let offset = args[1] as usize;
    let delta = args[2] as i64 as i32 as isize; // sign-extend the 32-bit argument
    if delta == 0 {
        return 0;
    }
    if delta % 8 != 0 || delta.unsigned_abs() > 4096 {
        return -1;
    }
    let Some(mut parts) = api.parts::<Seg6Env>() else { return -1 };
    let Some(srh_off) = parts.env.srh_offset else { return -1 };
    let (new_hdrlen, payload_len) = {
        let packet = parts.packet();
        if packet.len() < srh_off + 8 {
            return -1;
        }
        let srh_len = 8 + usize::from(packet[srh_off + 1]) * 8;
        let last_entry = usize::from(packet[srh_off + 4]);
        let tlv_start = 8 + 16 * (last_entry + 1);
        // Only offsets after the segment list are accepted, inside an SRH
        // the packet holds whole.
        if offset < tlv_start || offset > srh_len || srh_off + srh_len > packet.len() {
            return -1;
        }
        if delta < 0 && offset.saturating_add(delta.unsigned_abs()) > srh_len {
            return -1;
        }
        // The SRH header length counts 8-octet units past the first 8.
        let Ok(new_hdrlen) = u8::try_from((srh_len as isize + delta - 8) / 8) else { return -1 };
        let Ok(payload_len) = srv6_ops::payload_length_after(packet, delta) else { return -1 };
        (new_hdrlen, payload_len)
    };
    // The header fields sit in front of the edit and move with the front.
    let abs_off = srh_off + offset;
    let packet = parts.packet_mut();
    let bytes = packet.bytes_mut();
    bytes[srh_off + 1] = new_hdrlen;
    srv6_ops::set_payload_length(bytes, payload_len);
    if delta > 0 {
        packet.insert(abs_off, delta as usize);
    } else {
        packet.remove(abs_off, delta.unsigned_abs());
    }
    let new_len = parts.packet().len();
    ctx::refresh_packet_len(parts.ctx, new_len);
    parts.env.out.revalidate_srh = true;
    0
}

/// What a `bpf_lwt_seg6_action` call reads from program memory before it
/// touches the packet: the next hop, the table id or the SRH to push.
enum ActionParam<'b> {
    Nexthop(Ipv6Addr),
    Table(u32),
    Srh(Cow<'b, [u8]>),
}

/// `long bpf_lwt_seg6_action(skb, action, param, param_len)`
///
/// Applies one of the static SRv6 behaviours from inside an `End.BPF`
/// program. Actions that need a FIB lookup perform it immediately and store
/// the result in the packet metadata, which is what makes the program's
/// `BPF_REDIRECT` return value meaningful (§3.1).
pub fn helper_seg6_action(api: &mut HelperApi<'_, '_>, args: [u64; 5]) -> i64 {
    let action = args[1] as u32;
    let param_len = args[3] as usize;
    let mut pbuf = [0u8; PARAM_STACK];
    let param = match action {
        action_codes::END_X | action_codes::END_DX6 if param_len == 16 => {
            read_addr_param(api, args[2]).map(ActionParam::Nexthop)
        }
        action_codes::END_T | action_codes::END_DT6 if param_len == 4 => {
            read_u32_param(api, args[2]).map(ActionParam::Table)
        }
        action_codes::END_B6 | action_codes::END_B6_ENCAP => {
            read_param(api, args[2], param_len, &mut pbuf).map(ActionParam::Srh)
        }
        _ => None,
    };
    let Some(param) = param else { return -1 };
    let Some(mut parts) = api.parts::<Seg6Env>() else { return -1 };

    // Decisions are written back to the environment at the end; FIB
    // lookups go through its own snapshot of the tables.
    let mut decapped = false;
    let mut over = RouteOverride::default();
    let applied: Result<(), ()> = (|| {
        match param {
            ActionParam::Nexthop(nexthop) => {
                if action == action_codes::END_DX6 {
                    srv6_ops::decap_outer(parts.packet_mut()).map_err(|_| ())?;
                    decapped = true;
                }
                over.nexthop = Some(nexthop);
            }
            ActionParam::Table(table) => {
                let table = if table == 0 { MAIN_TABLE } else { table };
                if action == action_codes::END_DT6 {
                    srv6_ops::decap_outer(parts.packet_mut()).map_err(|_| ())?;
                    decapped = true;
                }
                let dst = srv6_ops::outer_dst(parts.packet()).map_err(|_| ())?;
                let route = parts.env.lookup(table, dst).ok_or(())?;
                over.table = Some(table);
                over.nexthop = Some(route.neighbour(dst));
                over.oif = Some(route.oif);
            }
            ActionParam::Srh(srh) => {
                let local_addr = parts.env.local_addr;
                let dst = if action == action_codes::END_B6 {
                    srv6_ops::insert_srh_inline(parts.packet_mut(), &srh)
                } else {
                    srv6_ops::push_srh_encap(parts.packet_mut(), &srh, local_addr)
                }
                .map_err(|_| ())?;
                if let Some(route) = parts.env.lookup(MAIN_TABLE, dst) {
                    over.nexthop = Some(route.neighbour(dst));
                    over.oif = Some(route.oif);
                }
            }
        }
        Ok(())
    })();

    if applied.is_err() {
        return -1;
    }
    let new_len = parts.packet().len();
    ctx::refresh_packet_len(parts.ctx, new_len);
    parts.env.out.route_override = over;
    parts.env.out.decapped = decapped;
    0
}

/// `long bpf_lwt_push_encap(skb, type, hdr, len)`
///
/// From a BPF LWT program (not an `End.BPF` one): encapsulates the packet
/// with an outer IPv6 header and the SRH built by the program
/// ([`encap_modes::SEG6`]) or inserts the SRH into the existing IPv6 header
/// ([`encap_modes::SEG6_INLINE`]). This is the helper the delay-monitoring
/// ingress program and the hybrid-access WRR scheduler rely on (§4.1, §4.2).
pub fn helper_lwt_push_encap(api: &mut HelperApi<'_, '_>, args: [u64; 5]) -> i64 {
    let mode = args[1];
    let len = args[3] as usize;
    let mut pbuf = [0u8; PARAM_STACK];
    let Some(srh_bytes) = read_param(api, args[2], len, &mut pbuf) else { return -1 };
    let Some(mut parts) = api.parts::<Seg6Env>() else { return -1 };
    let local_addr = parts.env.local_addr;
    let result = match mode {
        encap_modes::SEG6 => srv6_ops::push_srh_encap(parts.packet_mut(), &srh_bytes, local_addr),
        encap_modes::SEG6_INLINE => srv6_ops::insert_srh_inline(parts.packet_mut(), &srh_bytes),
        _ => return -1,
    };
    if result.is_err() {
        return -1;
    }
    let new_len = parts.packet().len();
    ctx::refresh_packet_len(parts.ctx, new_len);
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::build_context;
    use crate::fib::{Nexthop, RouterTables};
    use crate::skb::Skb;
    use ebpf_vm::program::Program;
    use ebpf_vm::vm::{RunContext, RunState, STACK_BASE};
    use netpkt::ipv6::proto;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use netpkt::srh::{SegmentRoutingHeader, SrhTlv};
    use netpkt::PacketBuf;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn srv6_packet_with_tlv() -> Vec<u8> {
        let mut srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::1"), addr("fc00::2")]);
        srh.tlvs.push(SrhTlv::DelayMeasurement { tx_timestamp_ns: 7 });
        build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 16], 64).data().to_vec()
    }

    struct Harness {
        env: Seg6Env,
        ctx: Vec<u8>,
        packet: Vec<u8>,
        state: RunState,
        maps: ebpf_vm::maps::ProgramMaps,
    }

    impl Harness {
        fn new(packet: Vec<u8>, tables: Arc<RouterTables>) -> Self {
            let skb = Skb::new(PacketBuf::from_slice(&packet));
            let ctx = build_context(&skb);
            let env = Seg6Env::new(addr("fc00::1"), tables, 1000).with_srh_offset(40);
            Harness { env, ctx, packet, state: RunState::new(64), maps: Default::default() }
        }

        fn call(&mut self, f: ebpf_vm::helpers::HelperFn, args: [u64; 5]) -> i64 {
            let mut rc = RunContext::new(&mut self.ctx, &mut self.packet, &mut self.env);
            let mut api = HelperApi { state: &mut self.state, rc: &mut rc, maps: &self.maps };
            f(&mut api, args)
        }

        fn stage(&mut self, bytes: &[u8]) -> u64 {
            let addr = STACK_BASE + 64;
            let mut rc = RunContext::new(&mut self.ctx, &mut self.packet, &mut self.env);
            let mut api = HelperApi { state: &mut self.state, rc: &mut rc, maps: &self.maps };
            api.write_bytes(addr, bytes).unwrap();
            addr
        }
    }

    #[test]
    fn registry_gates_helpers_by_hook() {
        let reg = seg6_helper_registry();
        assert!(reg.allowed_for(ids::LWT_SEG6_ACTION, ProgramType::LwtSeg6Local));
        assert!(!reg.allowed_for(ids::LWT_SEG6_ACTION, ProgramType::LwtXmit));
        assert!(reg.allowed_for(ids::LWT_PUSH_ENCAP, ProgramType::LwtXmit));
        assert!(!reg.allowed_for(ids::LWT_PUSH_ENCAP, ProgramType::LwtSeg6Local));
    }

    #[test]
    fn store_bytes_edits_tag_and_tlv_but_not_segments() {
        let tables = Arc::new(RouterTables::new());
        let mut h = Harness::new(srv6_packet_with_tlv(), tables);
        // Write the tag (offset 6, 2 bytes).
        let from = h.stage(&[0xbe, 0xef]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 6, from, 2, 0]), 0);
        assert_eq!(&h.packet[40 + 6..40 + 8], &[0xbe, 0xef]);
        // Write the flags byte.
        let from = h.stage(&[0xa5]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 5, from, 1, 0]), 0);
        assert_eq!(h.packet[40 + 5], 0xa5);
        // Writing into the segment list is refused.
        let from = h.stage(&[0u8; 16]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 8, from, 16, 0]), -1);
        // Writing into the TLV area is allowed (TLVs start after 2 segments).
        let tlv_start = 8 + 2 * 16;
        let from = h.stage(&[124, 8, 0, 0, 0, 0, 0, 0]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, tlv_start as u64, from, 8, 0]), 0);
        // Out-of-range offsets are refused.
        let from = h.stage(&[0u8; 4]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 4000, from, 4, 0]), -1);
    }

    /// The kernel's rule: one call may write anywhere inside the flags
    /// and tag, `[5, 8)` of the SRH, not only the flags byte or the tag
    /// alone; a write that reaches outside them is refused.
    #[test]
    fn store_bytes_accepts_any_write_inside_flags_and_tag() {
        let mut h = Harness::new(srv6_packet_with_tlv(), Arc::new(RouterTables::new()));
        let from = h.stage(&[0x11, 0x22, 0x33]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 5, from, 2, 0]), 0);
        assert_eq!(&h.packet[40 + 5..40 + 7], &[0x11, 0x22]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 5, from, 3, 0]), 0);
        assert_eq!(&h.packet[40 + 5..40 + 8], &[0x11, 0x22, 0x33]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 7, from, 1, 0]), 0);
        // One byte before the flags (last_entry) or past the tag is refused.
        let before = h.packet.clone();
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 4, from, 2, 0]), -1);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 7, from, 2, 0]), -1);
        assert_eq!(h.packet, before);
    }

    /// Post-program validation follows the kernel's `srh_state->valid`: a
    /// flags or tag write cannot break the SRH and leaves it valid; a
    /// TLV-area write or an `adjust_srh` leaves it to be re-validated.
    #[test]
    fn only_a_tlv_write_or_an_adjust_leaves_the_srh_to_revalidate() {
        let tables = Arc::new(RouterTables::new());
        let mut h = Harness::new(srv6_packet_with_tlv(), Arc::clone(&tables));
        let from = h.stage(&[0xbe, 0xef, 0x01]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 6, from, 2, 0]), 0);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, 5, from, 3, 0]), 0);
        assert!(!h.env.out.revalidate_srh, "flags and tag writes");
        let tlv_start = 8 + 2 * 16;
        let from = h.stage(&[124, 8, 0, 0, 0, 0, 0, 0]);
        assert_eq!(h.call(helper_seg6_store_bytes, [0, tlv_start as u64, from, 8, 0]), 0);
        assert!(h.env.out.revalidate_srh, "a TLV write");

        let mut h = Harness::new(srv6_packet_with_tlv(), tables);
        let srh_len = 8 + usize::from(h.packet[41]) * 8;
        assert_eq!(h.call(helper_seg6_adjust_srh, [0, srh_len as u64, 8, 0, 0]), 0);
        assert!(h.env.out.revalidate_srh, "adjust_srh");
    }

    #[test]
    fn adjust_srh_grows_and_shrinks_the_tlv_area() {
        let tables = Arc::new(RouterTables::new());
        let packet = srv6_packet_with_tlv();
        let original_len = packet.len();
        let mut h = Harness::new(packet, tables);
        let srh_len = 8 + usize::from(h.packet[41]) * 8;
        // Grow by 8 bytes at the end of the SRH.
        assert_eq!(h.call(helper_seg6_adjust_srh, [0, srh_len as u64, 8, 0, 0]), 0);
        assert_eq!(h.packet.len(), original_len + 8);
        let new_srh_len = 8 + usize::from(h.packet[41]) * 8;
        assert_eq!(new_srh_len, srh_len + 8);
        // The context was refreshed.
        assert_eq!(u32::from_le_bytes(h.ctx[16..20].try_into().unwrap()) as usize, original_len + 8);
        // IPv6 payload length was adjusted.
        let payload = u16::from_be_bytes([h.packet[4], h.packet[5]]) as usize;
        assert_eq!(payload, h.packet.len() - 40);
        // Shrink it back.
        assert_eq!(h.call(helper_seg6_adjust_srh, [0, srh_len as u64, (-8i64) as u64, 0, 0]), 0);
        assert_eq!(h.packet.len(), original_len);
        // Misaligned deltas and offsets inside the segment list are refused.
        assert_eq!(h.call(helper_seg6_adjust_srh, [0, srh_len as u64, 4, 0, 0]), -1);
        assert_eq!(h.call(helper_seg6_adjust_srh, [0, 8, 8, 0, 0]), -1);
    }

    /// A near-64 KiB packet whose IPv6 payload length cannot take eight
    /// more bytes: the helper fails having written nothing — not the
    /// packet, not the context, not even the write-access flag.
    #[test]
    fn adjust_srh_past_the_payload_length_field_writes_nothing() {
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::1")]).to_bytes();
        let payload_len = u16::MAX - 7;
        let mut packet = vec![0u8; 40 + usize::from(payload_len)];
        netpkt::Ipv6Header::new(addr("2001:db8::1"), addr("fc00::1"), proto::ROUTING, payload_len, 64)
            .write_to(&mut packet);
        packet[40..40 + srh.len()].copy_from_slice(&srh);
        let mut h = Harness::new(packet.clone(), Arc::new(RouterTables::new()));
        let ctx = h.ctx.clone();
        assert_eq!(h.call(helper_seg6_adjust_srh, [0, srh.len() as u64, 8, 0, 0]), -1);
        assert!(h.packet == packet, "the packet is unchanged");
        assert_eq!(h.ctx, ctx);
        assert!(!h.state.packet_written());
        assert!(!h.env.out.revalidate_srh);
    }

    /// An SRH header length claiming more bytes than the packet holds (what
    /// `srh_offset` points at after a decapsulation may be anything) is
    /// refused, not edited past the packet's end.
    #[test]
    fn adjust_srh_refuses_an_srh_longer_than_the_packet() {
        let mut packet = srv6_packet_with_tlv();
        packet[41] = 200;
        let mut h = Harness::new(packet.clone(), Arc::new(RouterTables::new()));
        let claimed = 8 + 200 * 8;
        assert_eq!(h.call(helper_seg6_adjust_srh, [0, claimed, 8, 0, 0]), -1);
        assert_eq!(h.call(helper_seg6_adjust_srh, [0, claimed - 8, (-8i64) as u64, 0, 0]), -1);
        assert!(h.packet == packet && !h.state.packet_written());
    }

    /// All four SRv6 helpers may move the packet, so the verifier holds a
    /// packet pointer stale across a call to any of them, as the kernel
    /// does: reading through it is rejected, re-deriving `data` from the
    /// context is the way.
    #[test]
    fn packet_pointers_do_not_survive_a_packet_changing_helper() {
        let helpers = seg6_helper_registry();
        for id in
            [ids::LWT_SEG6_STORE_BYTES, ids::LWT_SEG6_ADJUST_SRH, ids::LWT_SEG6_ACTION, ids::LWT_PUSH_ENCAP]
        {
            assert!(helpers.changes_packet(id), "{:?}", helpers.name_of(id));
        }
        assert!(!helpers.changes_packet(ids::SKB_LOAD_BYTES));
        let program = |after_the_call: &str| {
            let source = format!(
                "mov64 r9, r1\n\
                 ldxdw r6, [r1]\n\
                 mov64 r2, {}\n\
                 mov64 r3, r10\n\
                 add64 r3, -24\n\
                 mov64 r4, 24\n\
                 call {}\n\
                 {after_the_call}\n\
                 ldxb r0, [r6]\n\
                 exit",
                encap_modes::SEG6,
                ids::LWT_PUSH_ENCAP
            );
            let insns = ebpf_vm::asm::assemble(&source).unwrap();
            ebpf_vm::program::load(
                Program::new("stale", ProgramType::LwtXmit, insns),
                &HashMap::new(),
                &helpers,
            )
        };
        let stale = program("mov64 r0, 0").unwrap_err();
        assert!(stale.to_string().contains("non-pointer"), "{stale}");
        program("ldxdw r6, [r9]").expect("data re-derived from the context");
    }

    #[test]
    fn action_end_x_sets_nexthop_override() {
        let tables = Arc::new(RouterTables::new());
        let mut h = Harness::new(srv6_packet_with_tlv(), tables);
        let nh = addr("fe80::42");
        let from = h.stage(&nh.octets());
        assert_eq!(h.call(helper_seg6_action, [0, action_codes::END_X as u64, from, 16, 0]), 0);
        let over = crate::skb::RouteOverride { nexthop: Some(nh), ..Default::default() };
        assert_eq!(h.env.out.route_override, over, "End.X sets the next hop alone");
        assert!(!h.env.out.decapped);
    }

    #[test]
    fn action_end_t_looks_up_in_the_requested_table() {
        let tables = Arc::new(RouterTables::new());
        tables.insert(100, "fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::9"), 7)]);
        let mut h = Harness::new(srv6_packet_with_tlv(), tables);
        let from = h.stage(&100u32.to_le_bytes());
        assert_eq!(h.call(helper_seg6_action, [0, action_codes::END_T as u64, from, 4, 0]), 0);
        assert_eq!(h.env.out.route_override.table, Some(100));
        assert_eq!(h.env.out.route_override.oif, Some(7));
        assert_eq!(h.env.out.route_override.nexthop, Some(addr("fe80::9")));
        // A lookup miss makes the helper fail.
        let tables = Arc::new(RouterTables::new());
        let mut h = Harness::new(srv6_packet_with_tlv(), tables);
        let from = h.stage(&100u32.to_le_bytes());
        assert_eq!(h.call(helper_seg6_action, [0, action_codes::END_T as u64, from, 4, 0]), -1);
    }

    #[test]
    fn action_end_dt6_decapsulates_and_looks_up_inner_destination() {
        // Build an encapsulated packet: outer IPv6 + SRH + inner IPv6/UDP.
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 5, 6, &[0u8; 8], 64)
            .data()
            .to_vec();
        let mut packet = inner.clone();
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::1")]);
        srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addr("fc00::99")).unwrap();

        let tables = Arc::new(RouterTables::new());
        tables.insert_main("2001:db8::/32".parse().unwrap(), vec![Nexthop::via(addr("fe80::d"), 3)]);
        let mut h = Harness::new(packet, tables);
        let from = h.stage(&0u32.to_le_bytes());
        assert_eq!(h.call(helper_seg6_action, [0, action_codes::END_DT6 as u64, from, 4, 0]), 0);
        assert!(h.env.out.decapped);
        assert_eq!(h.packet, inner);
        assert_eq!(h.env.out.route_override.oif, Some(3));
        // The context length was refreshed to the inner packet length.
        assert_eq!(u32::from_le_bytes(h.ctx[16..20].try_into().unwrap()) as usize, inner.len());
    }

    #[test]
    fn action_end_b6_encap_pushes_a_new_outer_header() {
        let tables = Arc::new(RouterTables::new());
        tables.insert_main("fd00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::b"), 9)]);
        let packet = srv6_packet_with_tlv();
        let original_len = packet.len();
        let mut h = Harness::new(packet.clone(), tables);
        let new_srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fd00::1"), addr("fd00::2")]);
        let from = h.stage(&new_srh.to_bytes());
        assert_eq!(
            h.call(
                helper_seg6_action,
                [0, action_codes::END_B6_ENCAP as u64, from, new_srh.wire_len() as u64, 0]
            ),
            0
        );
        assert_eq!(h.packet.len(), original_len + 40 + new_srh.wire_len());
        assert_eq!(srv6_ops::outer_dst(&h.packet).unwrap(), addr("fd00::1"));
        assert_eq!(srv6_ops::outer_src(&h.packet).unwrap(), addr("fc00::1"));
        assert_eq!(h.packet[40 + new_srh.wire_len()..], packet[..], "the packet follows the pushed headers");
        assert_eq!(h.env.out.route_override.oif, Some(9));
    }

    #[test]
    fn action_rejects_unknown_codes_and_bad_params() {
        let tables = Arc::new(RouterTables::new());
        let mut h = Harness::new(srv6_packet_with_tlv(), tables);
        let from = h.stage(&[0u8; 16]);
        assert_eq!(h.call(helper_seg6_action, [0, 42, from, 16, 0]), -1);
        // END_X with a wrong parameter size.
        assert_eq!(h.call(helper_seg6_action, [0, action_codes::END_X as u64, from, 4, 0]), -1);
    }

    #[test]
    fn push_encap_wraps_plain_ipv6_traffic() {
        let plain = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 1, 2, &[0u8; 32], 64)
            .data()
            .to_vec();
        let tables = Arc::new(RouterTables::new());
        let mut h = Harness::new(plain.clone(), tables);
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::a"), addr("2001:db8::2")]);
        let from = h.stage(&srh.to_bytes());
        assert_eq!(h.call(helper_lwt_push_encap, [0, encap_modes::SEG6, from, srh.wire_len() as u64, 0]), 0);
        assert_eq!(srv6_ops::outer_dst(&h.packet).unwrap(), addr("fc00::a"));
        assert_eq!(srv6_ops::outer_src(&h.packet).unwrap(), addr("fc00::1"));
        assert_eq!(h.packet.len(), plain.len() + 40 + srh.wire_len());
        // Unknown modes are refused.
        let from = h.stage(&srh.to_bytes());
        assert_eq!(h.call(helper_lwt_push_encap, [0, 9, from, srh.wire_len() as u64, 0]), -1);
    }

    #[test]
    fn push_encap_inline_mode_inserts_srh() {
        let plain = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 1, 2, &[0u8; 8], 64)
            .data()
            .to_vec();
        let tables = Arc::new(RouterTables::new());
        let mut h = Harness::new(plain.clone(), tables);
        let srh = SegmentRoutingHeader::from_path(proto::NONE, &[addr("fc00::a"), addr("2001:db8::2")]);
        let from = h.stage(&srh.to_bytes());
        assert_eq!(
            h.call(helper_lwt_push_encap, [0, encap_modes::SEG6_INLINE, from, srh.wire_len() as u64, 0]),
            0
        );
        let parsed = netpkt::ParsedPacket::parse(&h.packet).unwrap();
        assert_eq!(parsed.outer.dst, addr("fc00::a"));
        assert!(parsed.srh.is_some());
        assert_eq!(parsed.transport_proto, proto::UDP);
    }
}
