//! The paper's use-case network functions, written as eBPF bytecode.
//!
//! Every function here builds a [`Program`] with the [`ProgramBuilder`],
//! loads nothing by itself (loading — i.e. verification — happens through
//! [`ebpf_vm::program::load`] with the SRv6 helper registry), and mirrors a
//! program the paper describes:
//!
//! | paper program | builder | SLOC in the paper |
//! |---|---|---|
//! | `End` in BPF (Figure 2) | [`end_program`] | 1 |
//! | `End.T` in BPF (Figure 2) | [`end_t_program`] | 4 |
//! | `Tag++` (Figure 2) | [`tag_increment_program`] | 50 |
//! | `Add TLV` (Figure 2) | [`add_tlv_program`] | 60 |
//! | OWD encapsulation (§4.1, Figure 3) | [`owd_encap_program`] | 130 |
//! | `End.DM` (§4.1, Figure 3) | [`end_dm_program`] | — |
//! | WRR hybrid-access scheduler (§4.2, Figure 4) | [`wrr_encap_program`] | 120 |
//! | `End.OAMP` (§4.3) | [`end_oamp_program`] | 60 |

use crate::oam::HELPER_FIB_ECMP_NEXTHOPS;
use ebpf_vm::builder::ProgramBuilder;
use ebpf_vm::helpers::ids;
use ebpf_vm::insn::{alu, jmp, AccessSize};
use ebpf_vm::maps::{ArrayMap, Map, MapHandle, UpdateFlags};
use ebpf_vm::program::{retcode, Program, ProgramType};
use netpkt::srh::SegmentRoutingHeader;
use seg6_core::action_codes;
use std::net::Ipv6Addr;

/// Register conventions shared by the programs below.
const R_CTX_SAVED: u8 = 9;
const R_DATA: u8 = 6;

/// Offset of the SRH inside the packets these endpoint programs see (the
/// fixed IPv6 header always precedes it).
const SRH_PKT_OFFSET: i16 = 40;

fn addr_halves(addr: Ipv6Addr) -> (u64, u64) {
    let octets = addr.octets();
    (
        u64::from_le_bytes(octets[0..8].try_into().unwrap()),
        u64::from_le_bytes(octets[8..16].try_into().unwrap()),
    )
}

/// The simplest `End.BPF` program: do nothing and let the datapath forward
/// to the next segment (the paper's 1-SLOC baseline in Figure 2).
pub fn end_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.ret(retcode::BPF_OK as i32);
    Program::new("nf_end", ProgramType::LwtSeg6Local, b.build().expect("static program"))
}

/// The BPF counterpart of `End.T`: ask `bpf_lwt_seg6_action` to look the new
/// destination up in `table`, then return `BPF_REDIRECT` (4 SLOC in the
/// paper).
pub fn end_t_program(table: u32) -> Program {
    let mut b = ProgramBuilder::new();
    // *(u32 *)(r10 - 8) = table; seg6_action(skb, END_T, &table, 4)
    b.store_imm(AccessSize::Word, 10, -8, table as i32);
    b.mov_imm(2, action_codes::END_T as i32);
    b.mov_reg(3, 10);
    b.add_imm(3, -8);
    b.mov_imm(4, 4);
    b.call(ids::LWT_SEG6_ACTION);
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    b.ret(retcode::BPF_REDIRECT as i32);
    b.label("drop");
    b.ret(retcode::BPF_DROP as i32);
    Program::new("nf_end_t", ProgramType::LwtSeg6Local, b.build().expect("static program"))
}

/// The BPF counterpart of `End.X`: ask `bpf_lwt_seg6_action` to
/// cross-connect to a specific layer-3 nexthop (`END_X` with the 16-byte
/// address parameter), then return `BPF_REDIRECT`.
pub fn end_x_program(nexthop: Ipv6Addr) -> Program {
    let (lo, hi) = addr_halves(nexthop);
    let mut b = ProgramBuilder::new();
    // Spill the nexthop to fp[-16..0]; seg6_action(skb, END_X, &nexthop, 16)
    b.load_imm64(6, lo);
    b.store_mem(AccessSize::Double, 10, 6, -16);
    b.load_imm64(6, hi);
    b.store_mem(AccessSize::Double, 10, 6, -8);
    b.mov_imm(2, action_codes::END_X as i32);
    b.mov_reg(3, 10);
    b.add_imm(3, -16);
    b.mov_imm(4, 16);
    b.call(ids::LWT_SEG6_ACTION);
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    b.ret(retcode::BPF_REDIRECT as i32);
    b.label("drop");
    b.ret(retcode::BPF_DROP as i32);
    Program::new("nf_end_x", ProgramType::LwtSeg6Local, b.build().expect("static program"))
}

/// `Tag++`: fetch the SRH tag, increment it and write it back through
/// `bpf_lwt_seg6_store_bytes` (the paper's 50-SLOC example).
pub fn tag_increment_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_reg(R_CTX_SAVED, 1);
    b.load_mem(AccessSize::Double, R_DATA, 1, 0);
    // Read the 16-bit tag (network order) at SRH offset 6.
    b.load_mem(AccessSize::Half, 2, R_DATA, SRH_PKT_OFFSET + 6);
    b.to_be(2, 16);
    b.add_imm(2, 1);
    b.alu_imm(alu::AND, 2, 0xffff);
    b.to_be(2, 16);
    b.store_mem(AccessSize::Half, 10, 2, -8);
    // store_bytes(skb, offset = 6, from = r10-8, len = 2)
    b.mov_reg(1, R_CTX_SAVED);
    b.mov_imm(2, 6);
    b.mov_reg(3, 10);
    b.add_imm(3, -8);
    b.mov_imm(4, 2);
    b.call(ids::LWT_SEG6_STORE_BYTES);
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    b.ret(retcode::BPF_OK as i32);
    b.label("drop");
    b.ret(retcode::BPF_DROP as i32);
    Program::new("nf_tag_increment", ProgramType::LwtSeg6Local, b.build().expect("static program"))
}

/// TLV type written by [`add_tlv_program`].
pub const ADD_TLV_TYPE: u8 = 200;

/// `Add TLV`: grow the SRH by eight bytes with `bpf_lwt_seg6_adjust_srh`
/// and fill the new space with an 8-byte TLV through
/// `bpf_lwt_seg6_store_bytes` (the paper's 60-SLOC example).
pub fn add_tlv_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_reg(R_CTX_SAVED, 1);
    b.load_mem(AccessSize::Double, R_DATA, 1, 0);
    // r7 = current SRH length = 8 + 8 * hdr_ext_len (append position).
    b.load_mem(AccessSize::Byte, 7, R_DATA, SRH_PKT_OFFSET + 1);
    b.alu_imm(alu::LSH, 7, 3);
    b.add_imm(7, 8);
    // adjust_srh(skb, offset = r7, delta = 8)
    b.mov_reg(1, R_CTX_SAVED);
    b.mov_reg(2, 7);
    b.mov_imm(3, 8);
    b.call(ids::LWT_SEG6_ADJUST_SRH);
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    // Stage the TLV bytes on the stack: type, len = 6, six bytes of payload.
    // r5 is free here (the upcoming call clobbers it anyway), and staying
    // within nine live registers keeps the program spill-free under the
    // native tier's register allocator.
    let tlv_bytes = [ADD_TLV_TYPE, 6, 0xab, 0xab, 0xab, 0xab, 0xab, 0xab];
    b.load_imm64(5, u64::from_le_bytes(tlv_bytes));
    b.store_mem(AccessSize::Double, 10, 5, -8);
    // store_bytes(skb, offset = r7, from = r10-8, len = 8)
    b.mov_reg(1, R_CTX_SAVED);
    b.mov_reg(2, 7);
    b.mov_reg(3, 10);
    b.add_imm(3, -8);
    b.mov_imm(4, 8);
    b.call(ids::LWT_SEG6_STORE_BYTES);
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    b.ret(retcode::BPF_OK as i32);
    b.label("drop");
    b.ret(retcode::BPF_DROP as i32);
    Program::new("nf_add_tlv", ProgramType::LwtSeg6Local, b.build().expect("static program"))
}

/// Parameters of the one-way-delay monitoring ingress program (§4.1).
#[derive(Debug, Clone, Copy)]
pub struct OwdEncapConfig {
    /// SID of the router running `End.DM` (the end of the monitored path).
    pub dm_sid: Ipv6Addr,
    /// Controller collecting the measurements.
    pub controller: Ipv6Addr,
    /// Controller UDP port.
    pub controller_port: u16,
    /// Probing ratio: one packet in `ratio` is encapsulated (1 = every
    /// packet, 100 = "1:100" in Figure 3).
    pub ratio: u32,
}

/// Total size of the SRH built by [`owd_encap_program`].
pub const OWD_SRH_LEN: usize = 72;
/// Offset of the DM TLV inside that SRH.
pub const OWD_DM_TLV_OFFSET: usize = 40;
/// Offset of the controller TLV inside that SRH.
pub const OWD_CTRL_TLV_OFFSET: usize = 50;

/// The transit (LWT-BPF) program of the delay-monitoring use case: for one
/// packet in `ratio`, encapsulate it with an SRH carrying a DM TLV (TX
/// timestamp) and a controller TLV, the last segment pointing at the
/// `End.DM` SID (130 SLOC in the paper).
pub fn owd_encap_program(config: OwdEncapConfig) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_reg(R_CTX_SAVED, 1);
    // Sampling: encapsulate only when prandom % ratio == 0.
    b.call(ids::GET_PRANDOM_U32);
    b.alu_imm(alu::MOD, 0, config.ratio.max(1) as i32);
    b.jmp_imm(jmp::JNE, 0, 0, "pass");
    b.load_mem(AccessSize::Double, R_DATA, R_CTX_SAVED, 0);
    // r8 = &srh[0] on the stack (72 bytes at r10-80).
    b.mov_reg(8, 10);
    b.add_imm(8, -80);
    // Fixed part: next_header = 41 (IPv6), hdr_ext_len = 8, routing type 4,
    // segments_left = 1, last_entry = 1, flags = 0, tag = 0.
    let header = u64::from_le_bytes([41, 8, 4, 1, 1, 0, 0, 0]);
    b.load_imm64(2, header);
    b.store_mem(AccessSize::Double, 8, 2, 0);
    // Segment[0] (wire order = final segment) = the packet's original
    // destination, copied from the IPv6 header.
    b.load_mem(AccessSize::Double, 2, R_DATA, 24);
    b.store_mem(AccessSize::Double, 8, 2, 8);
    b.load_mem(AccessSize::Double, 2, R_DATA, 32);
    b.store_mem(AccessSize::Double, 8, 2, 16);
    // Segment[1] (current segment) = the End.DM SID.
    let (sid_lo, sid_hi) = addr_halves(config.dm_sid);
    b.load_imm64(2, sid_lo);
    b.store_mem(AccessSize::Double, 8, 2, 24);
    b.load_imm64(2, sid_hi);
    b.store_mem(AccessSize::Double, 8, 2, 32);
    // DM TLV: type 124, length 8, then the TX timestamp in network order.
    b.store_imm(AccessSize::Half, 8, OWD_DM_TLV_OFFSET as i16, i32::from(u16::from_le_bytes([124, 8])));
    b.call(ids::KTIME_GET_NS);
    b.to_be(0, 64);
    b.store_mem(AccessSize::Double, 8, 0, (OWD_DM_TLV_OFFSET + 2) as i16);
    // Controller TLV: type 125, length 18, address and UDP port.
    b.store_imm(AccessSize::Half, 8, OWD_CTRL_TLV_OFFSET as i16, i32::from(u16::from_le_bytes([125, 18])));
    let (ctrl_lo, ctrl_hi) = addr_halves(config.controller);
    b.load_imm64(2, ctrl_lo);
    b.store_mem(AccessSize::Double, 8, 2, (OWD_CTRL_TLV_OFFSET + 2) as i16);
    b.load_imm64(2, ctrl_hi);
    b.store_mem(AccessSize::Double, 8, 2, (OWD_CTRL_TLV_OFFSET + 10) as i16);
    b.store_imm(
        AccessSize::Half,
        8,
        (OWD_CTRL_TLV_OFFSET + 18) as i16,
        i32::from(config.controller_port.swap_bytes()),
    );
    // PadN (type 4, length 0) to keep the SRH 8-byte aligned.
    b.store_imm(AccessSize::Half, 8, 70, i32::from(u16::from_le_bytes([4, 0])));
    // push_encap(skb, BPF_LWT_ENCAP_SEG6, &srh, 72)
    b.mov_reg(1, R_CTX_SAVED);
    b.mov_imm(2, seg6_core::encap_modes::SEG6 as i32);
    b.mov_reg(3, 8);
    b.mov_imm(4, OWD_SRH_LEN as i32);
    b.call(ids::LWT_PUSH_ENCAP);
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    b.label("pass");
    b.ret(retcode::BPF_OK as i32);
    b.label("drop");
    b.ret(retcode::BPF_DROP as i32);
    Program::new("nf_owd_encap", ProgramType::LwtXmit, b.build().expect("static program"))
}

/// The `End.DM` program (§4.1): read the TX timestamp from the DM TLV and
/// the controller address from its TLV, take the RX time from
/// `bpf_ktime_get_ns`, push everything to user space as a perf event, then
/// decapsulate with `End.DT6` and return `BPF_REDIRECT`.
///
/// `perf_fd` is the map file descriptor of the perf-event array the report
/// is pushed to. The packet layout is the one produced by
/// [`owd_encap_program`].
pub fn end_dm_program(perf_fd: u32) -> Program {
    // Offsets inside the received packet (outer IPv6 at 0, SRH at 40).
    let tlv_area = SRH_PKT_OFFSET + 8 + 32;
    let dm_value = tlv_area + 2;
    let ctrl_addr = tlv_area + 10 + 2;
    let ctrl_port = ctrl_addr + 16;
    let mut b = ProgramBuilder::new();
    b.mov_reg(R_CTX_SAVED, 1);
    b.load_mem(AccessSize::Double, R_DATA, 1, 0);
    // r7 = &event[0] (40 bytes at r10-48).
    b.mov_reg(7, 10);
    b.add_imm(7, -48);
    // event.tx_timestamp (convert from network order).
    b.load_mem(AccessSize::Double, 2, R_DATA, dm_value);
    b.to_be(2, 64);
    b.store_mem(AccessSize::Double, 7, 2, 0);
    // event.rx_timestamp: the time the probe is processed. The kernel
    // gives LWT programs no access to the skb's `tstamp`
    // (`lwt_is_valid_access`), so End.DM asks `bpf_ktime_get_ns`.
    b.call(ids::KTIME_GET_NS);
    b.store_mem(AccessSize::Double, 7, 0, 8);
    // event.controller address + port (kept in network order).
    b.load_mem(AccessSize::Double, 2, R_DATA, ctrl_addr);
    b.store_mem(AccessSize::Double, 7, 2, 16);
    b.load_mem(AccessSize::Double, 2, R_DATA, ctrl_addr + 8);
    b.store_mem(AccessSize::Double, 7, 2, 24);
    b.load_mem(AccessSize::Half, 2, R_DATA, ctrl_port);
    b.store_mem(AccessSize::Half, 7, 2, 32);
    // perf_event_output(skb, perf_map, BPF_F_CURRENT_CPU, &event, 40):
    // report on the ring of the worker that saw the probe. The constant
    // must be the zero-extended 0xffffffff — the kernel rejects flags with
    // non-zero upper bits, so a sign-extended -1 would fail there.
    b.mov_reg(1, R_CTX_SAVED);
    b.load_map_fd(2, perf_fd);
    b.load_imm64(3, 0xffff_ffff);
    b.mov_reg(4, 7);
    b.mov_imm(5, crate::events::DELAY_EVENT_SIZE as i32);
    b.call(ids::PERF_EVENT_OUTPUT);
    // seg6_action(skb, END_DT6, &table(main), 4): decapsulate and route the
    // inner packet.
    b.store_imm(AccessSize::Word, 10, -56, 0);
    b.mov_reg(1, R_CTX_SAVED);
    b.mov_imm(2, action_codes::END_DT6 as i32);
    b.mov_reg(3, 10);
    b.add_imm(3, -56);
    b.mov_imm(4, 4);
    b.call(ids::LWT_SEG6_ACTION);
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    b.ret(retcode::BPF_REDIRECT as i32);
    b.label("drop");
    b.ret(retcode::BPF_DROP as i32);
    Program::new("nf_end_dm", ProgramType::LwtSeg6Local, b.build().expect("static program"))
}

/// Layout of the WRR scheduler's state map value (16 bytes):
/// `[current_path: u32, remaining_credit: u32, weight0: u32, weight1: u32]`.
pub const WRR_STATE_VALUE_SIZE: usize = 16;
/// Size of one SRH template stored in the WRR configuration map (a single
/// segment SRH: 8 + 16 bytes).
pub const WRR_TEMPLATE_SIZE: usize = 24;

/// Creates and populates the two maps the WRR scheduler uses: the state map
/// (weights + deficit counters) and the configuration map holding one SRH
/// template per path (the SID of the aggregation box / CPE reachable over
/// that path).
pub fn wrr_maps(weight0: u32, weight1: u32, sid0: Ipv6Addr, sid1: Ipv6Addr) -> (MapHandle, MapHandle) {
    let state = ArrayMap::new(WRR_STATE_VALUE_SIZE, 1);
    let mut value = Vec::with_capacity(WRR_STATE_VALUE_SIZE);
    value.extend_from_slice(&0u32.to_le_bytes());
    value.extend_from_slice(&weight0.max(1).to_le_bytes());
    value.extend_from_slice(&weight0.max(1).to_le_bytes());
    value.extend_from_slice(&weight1.max(1).to_le_bytes());
    state.update(&0u32.to_ne_bytes(), &value, UpdateFlags::Any).expect("state map sized for one entry");

    let config = ArrayMap::new(WRR_TEMPLATE_SIZE, 2);
    for (key, sid) in [(0u32, sid0), (1u32, sid1)] {
        let srh = SegmentRoutingHeader::new(netpkt::proto::IPV6, vec![sid], 0);
        let bytes = srh.to_bytes();
        assert_eq!(bytes.len(), WRR_TEMPLATE_SIZE);
        config
            .update(&key.to_ne_bytes(), &bytes, UpdateFlags::Any)
            .expect("config map sized for two entries");
    }
    (state, config)
}

/// The hybrid-access per-packet Weighted-Round-Robin scheduler (§4.2,
/// 120 SLOC in the paper): pick one of two paths according to the
/// configured weights (kept in the state map), then encapsulate the packet
/// towards the SID of that path with `bpf_lwt_push_encap`.
pub fn wrr_encap_program(state_fd: u32, config_fd: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_reg(R_CTX_SAVED, 1);
    // state = bpf_map_lookup_elem(state_map, &0)
    b.store_imm(AccessSize::Word, 10, -4, 0);
    b.load_map_fd(1, state_fd);
    b.mov_reg(2, 10);
    b.add_imm(2, -4);
    b.call(ids::MAP_LOOKUP_ELEM);
    b.jmp_imm(jmp::JEQ, 0, 0, "pass");
    b.mov_reg(8, 0);
    // r2 = current path, r3 = remaining credit.
    b.load_mem(AccessSize::Word, 2, 8, 0);
    b.load_mem(AccessSize::Word, 3, 8, 4);
    b.jmp_imm(jmp::JNE, 3, 0, "have_credit");
    // Credit exhausted: switch path and reload its weight.
    b.alu_imm(alu::XOR, 2, 1);
    b.mov_reg(4, 2);
    b.alu_imm(alu::LSH, 4, 2);
    b.add_imm(4, 8);
    b.mov_reg(5, 8);
    b.alu_reg(alu::ADD, 5, 4);
    b.load_mem(AccessSize::Word, 3, 5, 0);
    b.label("have_credit");
    b.alu_imm(alu::SUB, 3, 1);
    b.store_mem(AccessSize::Word, 8, 2, 0);
    b.store_mem(AccessSize::Word, 8, 3, 4);
    // template = bpf_map_lookup_elem(config_map, &current_path)
    b.store_mem(AccessSize::Word, 10, 2, -8);
    b.load_map_fd(1, config_fd);
    b.mov_reg(2, 10);
    b.add_imm(2, -8);
    b.call(ids::MAP_LOOKUP_ELEM);
    b.jmp_imm(jmp::JEQ, 0, 0, "pass");
    b.mov_reg(7, 0);
    // push_encap(skb, BPF_LWT_ENCAP_SEG6, template, 24)
    b.mov_reg(1, R_CTX_SAVED);
    b.mov_imm(2, seg6_core::encap_modes::SEG6 as i32);
    b.mov_reg(3, 7);
    b.mov_imm(4, WRR_TEMPLATE_SIZE as i32);
    b.call(ids::LWT_PUSH_ENCAP);
    b.label("pass");
    b.ret(retcode::BPF_OK as i32);
    Program::new("nf_wrr_encap", ProgramType::LwtXmit, b.build().expect("static program"))
}

/// The `End.OAMP` program (§4.3, 60 SLOC in the paper): when a probe
/// carrying an OAM reply-to TLV hits the SID, query the ECMP next hops of
/// the probe's destination through the custom
/// [`crate::oam::helper_fib_ecmp_nexthops`] helper and push a report to
/// user space; the probe then continues towards its destination.
pub fn end_oamp_program(perf_fd: u32) -> Program {
    let mut b = ProgramBuilder::new();
    b.mov_reg(R_CTX_SAVED, 1);
    b.load_mem(AccessSize::Double, R_DATA, 1, 0);
    // r3 = offset of the TLV area: 40 + 8 + 16 * (last_entry + 1).
    b.load_mem(AccessSize::Byte, 3, R_DATA, SRH_PKT_OFFSET + 4);
    b.add_imm(3, 1);
    b.alu_imm(alu::LSH, 3, 4);
    b.add_imm(3, i32::from(SRH_PKT_OFFSET) + 8);
    // r4 = pointer to the first TLV.
    b.mov_reg(4, R_DATA);
    b.alu_reg(alu::ADD, 4, 3);
    b.load_mem(AccessSize::Byte, 5, 4, 0);
    b.jmp_imm(jmp::JNE, 5, i32::from(netpkt::srh::TLV_TYPE_OAM_REPLY_TO), "pass");
    // r7 = &event[0] (104 bytes at r10-104).
    b.mov_reg(7, 10);
    b.add_imm(7, -104);
    // event.queried_dst = the packet's destination after the SRH advance.
    b.load_mem(AccessSize::Double, 2, R_DATA, 24);
    b.store_mem(AccessSize::Double, 7, 2, 0);
    b.load_mem(AccessSize::Double, 2, R_DATA, 32);
    b.store_mem(AccessSize::Double, 7, 2, 8);
    // event.reply_to / reply_port, copied from the TLV.
    b.load_mem(AccessSize::Double, 2, 4, 2);
    b.store_mem(AccessSize::Double, 7, 2, 16);
    b.load_mem(AccessSize::Double, 2, 4, 10);
    b.store_mem(AccessSize::Double, 7, 2, 24);
    b.load_mem(AccessSize::Half, 2, 4, 18);
    b.store_mem(AccessSize::Half, 7, 2, 32);
    // count = bpf_fib_ecmp_nexthops(&event.queried_dst, &event.nexthops, 4)
    b.mov_reg(1, 7);
    b.mov_reg(2, 7);
    b.add_imm(2, 40);
    b.mov_imm(3, crate::events::OAM_MAX_NEXTHOPS as i32);
    b.call(HELPER_FIB_ECMP_NEXTHOPS);
    b.store_mem(AccessSize::Byte, 7, 0, 34);
    // perf_event_output(skb, perf_map, BPF_F_CURRENT_CPU, &event,
    // OAM_EVENT_SIZE) — zero-extended, as above.
    b.mov_reg(1, R_CTX_SAVED);
    b.load_map_fd(2, perf_fd);
    b.load_imm64(3, 0xffff_ffff);
    b.mov_reg(4, 7);
    b.mov_imm(5, crate::events::OAM_EVENT_SIZE as i32);
    b.call(ids::PERF_EVENT_OUTPUT);
    b.label("pass");
    b.ret(retcode::BPF_OK as i32);
    Program::new("nf_end_oamp", ProgramType::LwtSeg6Local, b.build().expect("static program"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{DelayEvent, OamEvent};
    use crate::oam::oam_helper_registry;
    use ebpf_vm::maps::PerfEventArray;
    use ebpf_vm::program::load;
    use netpkt::ipv6::proto;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use netpkt::srh::{SrhTlv, TlvKind};
    use netpkt::ParsedPacket;
    use seg6_core::seg6local::Seg6LocalAction;
    use seg6_core::{LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Skb, Verdict};
    use std::collections::HashMap;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn router() -> Seg6Datapath {
        let mut dp = Seg6Datapath::new(addr("fc00::11"));
        dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
        dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via(addr("fe80::3"), 3)]);
        dp
    }

    fn srv6_skb(path: &[&str]) -> Skb {
        let segments: Vec<Ipv6Addr> = path.iter().map(|s| addr(s)).collect();
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &segments);
        Skb::new(build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64))
    }

    #[test]
    fn all_programs_pass_the_verifier() {
        let registry = oam_helper_registry();
        let perf: MapHandle = PerfEventArray::new(16);
        let mut maps = HashMap::new();
        maps.insert(1u32, perf);
        let (state, config) = wrr_maps(5, 3, addr("fd00::a1"), addr("fd00::a2"));
        maps.insert(2u32, state);
        maps.insert(3u32, config);
        for prog in [
            end_program(),
            end_t_program(254),
            end_x_program(addr("fe80::42")),
            tag_increment_program(),
            add_tlv_program(),
            owd_encap_program(OwdEncapConfig {
                dm_sid: addr("fc00::d1"),
                controller: addr("2001:db8::c0"),
                controller_port: 9999,
                ratio: 100,
            }),
            end_dm_program(1),
            wrr_encap_program(2, 3),
            end_oamp_program(1),
        ] {
            let name = prog.name.clone();
            load(prog, &maps, &registry).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
        }
    }

    #[test]
    fn shipped_programs_compile_with_zero_spills_and_inline_the_hot_helpers() {
        if !ebpf_vm::codegen::supported() {
            return;
        }
        let registry = oam_helper_registry();
        let perf: MapHandle = PerfEventArray::new(16);
        let mut maps = HashMap::new();
        maps.insert(1u32, perf);
        let (state, config) = wrr_maps(5, 3, addr("fd00::a1"), addr("fd00::a2"));
        maps.insert(2u32, state);
        maps.insert(3u32, config);
        // The exact native facts of each shipped program: `(instructions,
        // code bytes, spills, elided checks, inlined helper sites)`. None
        // spills; `owd_encap` and `end_dm` inline `bpf_ktime_get_ns`, and
        // `wrr_encap`'s two array-map lookups are each inlined as the
        // bounds compare and multiply of the kernel's
        // `array_map_gen_lookup`. A change to the emitter or the verifier's
        // facts shows here as a diff of numbers; update the table only with
        // the reason.
        let cases = [
            (end_program(), (2, 43, 0, 0, 0)),
            (end_t_program(254), (11, 245, 0, 1, 0)),
            (end_x_program(addr("fe80::42")), (16, 284, 0, 2, 0)),
            (tag_increment_program(), (19, 489, 0, 3, 0)),
            (add_tlv_program(), (24, 593, 0, 3, 0)),
            (
                owd_encap_program(OwdEncapConfig {
                    dm_sid: addr("fc00::d1"),
                    controller: addr("2001:db8::c0"),
                    controller_port: 9999,
                    ratio: 100,
                }),
                (43, 1135, 0, 15, 1),
            ),
            (end_dm_program(1), (35, 1291, 0, 11, 1)),
            (wrr_encap_program(2, 3), (37, 911, 0, 6, 2)),
            (end_oamp_program(1), (38, 1665, 0, 14, 0)),
        ];
        for (prog, expected) in cases {
            let name = prog.name.clone();
            let loaded = load(prog, &maps, &registry).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
            let insns = loaded.program.insns.len();
            let native = loaded.native().expect("native backend available");
            let debug = native.debug_info();
            let facts = (insns, native.code_len(), debug.spills, debug.elided_checks, debug.inlined_helpers);
            assert_eq!(facts, expected, "{name}: native facts moved (homes {:?})", debug.assignments);
            let report = ebpf_vm::disasm::native_report(&name, debug);
            assert!(report.contains("spills=0"), "unexpected debug report: {report}");
        }
    }

    #[test]
    fn shipped_programs_execute_pinned_instruction_counts_under_the_interpreter() {
        use ebpf_vm::ExecTier;
        use seg6_core::seg6local::{run_bpf, ActionCtx};
        use seg6_core::{ActionOutcome, EcmpKey, RunScratch};

        let perf: MapHandle = PerfEventArray::new(16);
        let mut maps = HashMap::new();
        maps.insert(1u32, perf);
        let (state, config) = wrr_maps(5, 3, addr("fd00::a1"), addr("fd00::a2"));
        maps.insert(2u32, state);
        maps.insert(3u32, config);
        let mut dp = router();
        dp.helpers = oam_helper_registry();
        dp.add_route("fe80::/10".parse().unwrap(), vec![Nexthop::direct(7)]);
        let actx = ActionCtx {
            local_sid: addr("fc00::11"),
            tables: &dp.tables,
            helpers: &dp.helpers,
            now_ns: 1_000,
            cpu: 0,
            flow: EcmpKey::default(),
        };
        let plain = || {
            Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8:2::9"), 1, 2, &[0u8; 32], 64))
        };
        let probe = || {
            let mut srh =
                SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::21"), addr("2001:db8::99")]);
            srh.tlvs.push(SrhTlv::OamReplyTo { addr: addr("2001:db8::50"), port: 33434 });
            Skb::new(build_srv6_udp_packet(addr("2001:db8::50"), &srh, 33434, 33434, &[0u8; 16], 64))
        };
        let owd = OwdEncapConfig {
            dm_sid: addr("fc00::d1"),
            controller: addr("2001:db8::c0"),
            controller_port: 9999,
            ratio: 1,
        };
        // Instructions the interpreter executes for each shipped program
        // on one canonical packet: an SRv6 packet with two segments left
        // for the End.BPF programs, a plain IPv6 packet for the LWT ones,
        // `owd_encap`'s own output for `End.DM` (the packet runs both, in
        // that order, as in §4.1) and a reply-to probe for `End.OAMP`.
        // A change to a program, a helper's calling convention or the
        // interpreter's counting shows here; update the table only with
        // the reason.
        let cases = [
            (end_program(), true, Some(srv6_skb(&["fc00::e1", "fc00::22"])), 2),
            (end_t_program(254), true, Some(srv6_skb(&["fc00::e2", "fc00::22"])), 9),
            (end_x_program(addr("fe80::42")), true, Some(srv6_skb(&["fc00::e3", "fc00::22"])), 12),
            (tag_increment_program(), true, Some(srv6_skb(&["fc00::e3", "fc00::22"])), 17),
            (add_tlv_program(), true, Some(srv6_skb(&["fc00::e4", "fc00::22"])), 21),
            (owd_encap_program(owd), false, Some(plain()), 36),
            // `None`: the packet the previous program left.
            (end_dm_program(1), true, None, 31),
            (wrr_encap_program(2, 3), false, Some(plain()), 28),
            (end_oamp_program(1), true, Some(probe()), 36),
        ];
        let mut skb = plain();
        for (prog, end_bpf, canonical, expected) in cases {
            let name = prog.name.clone();
            let loaded = load(prog, &maps, &dp.helpers).unwrap_or_else(|e| panic!("{name} rejected: {e}"));
            loaded.set_exec_tier(ExecTier::Interp);
            if let Some(canonical) = canonical {
                skb = canonical;
            }
            let mut scratch = RunScratch::new();
            let outcome = run_bpf(&loaded, end_bpf, &mut skb, &actx, &mut scratch);
            assert!(matches!(outcome, ActionOutcome::Forward { .. }), "{name}: {outcome:?}");
            assert_eq!(scratch.state.insn_executed, expected, "{name}: executed instructions moved");
        }
    }

    #[test]
    fn end_bpf_forwards_like_static_end() {
        let mut dp = router();
        let prog = load(end_program(), &HashMap::new(), &dp.helpers).unwrap();
        dp.add_local_sid("fc00::e1".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
        let mut skb = srv6_skb(&["fc00::e1", "fc00::22"]);
        let verdict = dp.process(&mut skb, 0);
        assert_eq!(verdict, Verdict::Forward { oif: 2, neighbour: addr("fe80::2") });
    }

    #[test]
    fn end_t_bpf_uses_the_requested_table() {
        let mut dp = router();
        dp.add_route_in_table(100, "fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::9"), 9)]);
        let prog = load(end_t_program(100), &HashMap::new(), &dp.helpers).unwrap();
        dp.add_local_sid("fc00::e2".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
        let mut skb = srv6_skb(&["fc00::e2", "fc00::22"]);
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 9, neighbour: addr("fe80::9") });
    }

    #[test]
    fn end_x_bpf_redirects_through_the_configured_nexthop() {
        for tier in ebpf_vm::ExecTier::ALL {
            let mut dp = router();
            // The override carries the nexthop only; the datapath finds
            // the interface by looking the nexthop itself up.
            dp.add_route("fe80::/10".parse().unwrap(), vec![Nexthop::direct(7)]);
            let prog = load(end_x_program(addr("fe80::42")), &HashMap::new(), &dp.helpers).unwrap();
            prog.set_exec_tier(tier);
            dp.add_local_sid("fc00::e3".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
            let mut skb = srv6_skb(&["fc00::e3", "fc00::22"]);
            assert_eq!(
                dp.process(&mut skb, 0),
                Verdict::Forward { oif: 7, neighbour: addr("fe80::42") },
                "tier {tier:?}"
            );
        }
    }

    #[test]
    fn tag_increment_updates_the_srh_tag() {
        let mut dp = router();
        let prog = load(tag_increment_program(), &HashMap::new(), &dp.helpers).unwrap();
        dp.add_local_sid("fc00::e3".parse().unwrap(), Seg6LocalAction::EndBpf { prog: prog.clone() });
        for tier in ebpf_vm::ExecTier::ALL {
            prog.set_exec_tier(tier);
            let mut skb = srv6_skb(&["fc00::e3", "fc00::22"]);
            assert!(dp.process(&mut skb, 0).is_forward());
            let parsed = ParsedPacket::parse(skb.packet.data()).unwrap();
            assert_eq!(parsed.require_srh().unwrap().srh.tag, 1, "tier {}", tier.name());
        }
    }

    #[test]
    fn add_tlv_grows_the_srh() {
        let mut dp = router();
        let prog = load(add_tlv_program(), &HashMap::new(), &dp.helpers).unwrap();
        dp.add_local_sid("fc00::e4".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
        let mut skb = srv6_skb(&["fc00::e4", "fc00::22"]);
        let before = skb.len();
        assert!(dp.process(&mut skb, 0).is_forward());
        assert_eq!(skb.len(), before + 8);
        let parsed = ParsedPacket::parse(skb.packet.data()).unwrap();
        let srh = &parsed.require_srh().unwrap().srh;
        assert!(srh.find_tlv(TlvKind::Opaque(ADD_TLV_TYPE)).is_some());
    }

    #[test]
    fn owd_encap_and_end_dm_round_trip() {
        // Ingress router: encapsulate every packet towards the DM SID.
        let mut ingress = Seg6Datapath::new(addr("fc00::a0"));
        ingress.add_route("::/0".parse().unwrap(), vec![Nexthop::via(addr("fe80::1"), 1)]);
        let encap = load(
            owd_encap_program(OwdEncapConfig {
                dm_sid: addr("fc00::d1"),
                controller: addr("2001:db8::c0"),
                controller_port: 9999,
                ratio: 1,
            }),
            &HashMap::new(),
            &ingress.helpers,
        )
        .unwrap();
        ingress.attach_lwt_bpf(
            "2001:db8:2::/48".parse().unwrap(),
            LwtBpfAttachment { hook: LwtHook::Xmit, prog: encap },
        );
        let mut skb =
            Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8:2::9"), 1, 2, &[0u8; 32], 64));
        assert!(ingress.process(&mut skb, 1_000).is_forward());
        let parsed = ParsedPacket::parse(skb.packet.data()).unwrap();
        assert_eq!(parsed.outer.dst, addr("fc00::d1"));
        let srh = &parsed.require_srh().unwrap().srh;
        assert_eq!(srh.segments_left, 1);
        match srh.find_tlv(TlvKind::DelayMeasurement) {
            Some(SrhTlv::DelayMeasurement { tx_timestamp_ns }) => assert_eq!(*tx_timestamp_ns, 1_000),
            other => panic!("missing DM TLV: {other:?}"),
        }
        match srh.find_tlv(TlvKind::Controller) {
            Some(SrhTlv::Controller { addr: a, port }) => {
                assert_eq!(*a, addr("2001:db8::c0"));
                assert_eq!(*port, 9999);
            }
            other => panic!("missing controller TLV: {other:?}"),
        }

        // End.DM router: decapsulate, emit the perf event, forward the inner
        // packet.
        let mut dm_router = Seg6Datapath::new(addr("fc00::d1"));
        dm_router.add_route("2001:db8:2::/48".parse().unwrap(), vec![Nexthop::via(addr("fe80::5"), 5)]);
        let perf = PerfEventArray::new(16);
        let perf_handle: MapHandle = perf.clone();
        let mut maps = HashMap::new();
        maps.insert(1u32, perf_handle);
        let dm_prog = load(end_dm_program(1), &maps, &dm_router.helpers).unwrap();
        dm_router.add_local_sid("fc00::d1".parse().unwrap(), Seg6LocalAction::EndBpf { prog: dm_prog });

        // The packet must first be advanced to the DM SID: simulate the
        // in-between forwarding by handing it straight to the DM router (the
        // outer destination is already the DM SID because it was the only
        // other segment).
        let mut skb = Skb { rx_timestamp_ns: 5_000, ..skb };
        let verdict = dm_router.process(&mut skb, 5_000);
        assert_eq!(verdict, Verdict::Forward { oif: 5, neighbour: addr("fe80::5") });
        // The packet was decapsulated back to the original one.
        let parsed = ParsedPacket::parse(skb.packet.data()).unwrap();
        assert!(parsed.srh.is_none());
        assert_eq!(parsed.outer.dst, addr("2001:db8:2::9"));
        // And the delay report reached the ring buffer.
        let event = perf.perf_buffer().unwrap().poll().expect("perf event");
        let report = DelayEvent::parse(&event.data).unwrap();
        assert_eq!(report.tx_timestamp_ns, 1_000);
        assert_eq!(report.rx_timestamp_ns, 5_000);
        assert_eq!(report.controller, addr("2001:db8::c0"));
        assert_eq!(report.controller_port, 9999);
        assert_eq!(report.one_way_delay_ns(), 4_000);
    }

    #[test]
    fn owd_encap_sampling_respects_the_ratio() {
        let mut ingress = Seg6Datapath::new(addr("fc00::a0"));
        ingress.add_route("::/0".parse().unwrap(), vec![Nexthop::via(addr("fe80::1"), 1)]);
        let encap = load(
            owd_encap_program(OwdEncapConfig {
                dm_sid: addr("fc00::d1"),
                controller: addr("2001:db8::c0"),
                controller_port: 9999,
                ratio: 10,
            }),
            &HashMap::new(),
            &ingress.helpers,
        )
        .unwrap();
        ingress.attach_lwt_bpf(
            "2001:db8:2::/48".parse().unwrap(),
            LwtBpfAttachment { hook: LwtHook::Xmit, prog: encap },
        );
        let mut encapsulated = 0;
        let total = 200;
        for i in 0..total {
            let mut skb = Skb::new(build_ipv6_udp_packet(
                addr("2001:db8::1"),
                addr("2001:db8:2::9"),
                1,
                2,
                &[0u8; 32],
                64,
            ));
            assert!(ingress.process(&mut skb, i).is_forward());
            if ParsedPacket::parse(skb.packet.data()).unwrap().srh.is_some() {
                encapsulated += 1;
            }
        }
        // Sampling is pseudo-random; with ratio 10 over 200 packets we
        // expect around 20 encapsulations, certainly not 0 or all.
        assert!(encapsulated > 3 && encapsulated < 60, "encapsulated {encapsulated}");
    }

    #[test]
    fn wrr_encap_balances_according_to_weights() {
        let mut cpe = Seg6Datapath::new(addr("fc00::c0"));
        cpe.add_route("::/0".parse().unwrap(), vec![Nexthop::via(addr("fe80::1"), 1)]);
        let (state, config) = wrr_maps(5, 3, addr("fd00::a1"), addr("fd00::a2"));
        let mut maps = HashMap::new();
        maps.insert(2u32, state);
        maps.insert(3u32, config);
        let prog = load(wrr_encap_program(2, 3), &maps, &cpe.helpers).unwrap();
        cpe.attach_lwt_bpf("2001:db8::/32".parse().unwrap(), LwtBpfAttachment { hook: LwtHook::Xmit, prog });
        let mut per_path = [0u32; 2];
        for _ in 0..160 {
            let mut skb =
                Skb::new(build_ipv6_udp_packet(addr("fc00::c0"), addr("2001:db8::9"), 1, 2, &[0u8; 64], 64));
            assert!(cpe.process(&mut skb, 0).is_forward());
            let parsed = ParsedPacket::parse(skb.packet.data()).unwrap();
            match parsed.outer.dst {
                d if d == addr("fd00::a1") => per_path[0] += 1,
                d if d == addr("fd00::a2") => per_path[1] += 1,
                other => panic!("unexpected outer destination {other}"),
            }
        }
        // Weights 5:3 over 160 packets → exactly 100 / 60.
        assert_eq!(per_path[0] + per_path[1], 160);
        assert_eq!(per_path[0], 100, "distribution {per_path:?}");
        assert_eq!(per_path[1], 60, "distribution {per_path:?}");
    }

    #[test]
    fn end_oamp_reports_ecmp_nexthops() {
        let mut hop = Seg6Datapath::new(addr("fc00::21"));
        hop.helpers = oam_helper_registry();
        hop.add_route(
            "2001:db8::/32".parse().unwrap(),
            vec![Nexthop::via(addr("fe80::1"), 1), Nexthop::via(addr("fe80::2"), 2)],
        );
        let perf = PerfEventArray::new(16);
        let perf_handle: MapHandle = perf.clone();
        let mut maps = HashMap::new();
        maps.insert(1u32, perf_handle);
        let prog = load(end_oamp_program(1), &maps, &hop.helpers).unwrap();
        hop.add_local_sid("fc00::21".parse().unwrap(), Seg6LocalAction::EndBpf { prog });

        // The prober sends an SRv6 probe whose first segment is this hop's
        // OAMP SID and whose final destination is the traceroute target,
        // with a reply-to TLV.
        let mut srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::21"), addr("2001:db8::99")]);
        srh.tlvs.push(SrhTlv::OamReplyTo { addr: addr("2001:db8::50"), port: 33434 });
        let pkt = build_srv6_udp_packet(addr("2001:db8::50"), &srh, 33434, 33434, &[0u8; 16], 64);
        let mut skb = Skb::new(pkt);
        let verdict = hop.process(&mut skb, 0);
        assert!(verdict.is_forward());
        let event = perf.perf_buffer().unwrap().poll().expect("perf event");
        let report = OamEvent::parse(&event.data).unwrap();
        assert_eq!(report.queried_dst, addr("2001:db8::99"));
        assert_eq!(report.reply_to, addr("2001:db8::50"));
        assert_eq!(report.reply_port, 33434);
        assert_eq!(report.nexthops, vec![addr("fe80::1"), addr("fe80::2")]);
    }

    #[test]
    fn end_oamp_ignores_probes_without_the_tlv() {
        let mut hop = Seg6Datapath::new(addr("fc00::21"));
        hop.helpers = oam_helper_registry();
        hop.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via(addr("fe80::1"), 1)]);
        let perf = PerfEventArray::new(16);
        let mut maps = HashMap::new();
        let perf_handle: MapHandle = perf.clone();
        maps.insert(1u32, perf_handle);
        let prog = load(end_oamp_program(1), &maps, &hop.helpers).unwrap();
        hop.add_local_sid("fc00::21".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
        let mut skb = srv6_skb(&["fc00::21", "2001:db8::99"]);
        assert!(hop.process(&mut skb, 0).is_forward());
        assert!(perf.perf_buffer().unwrap().is_empty());
    }
}
