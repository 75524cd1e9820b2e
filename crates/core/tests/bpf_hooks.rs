//! The three BPF hooks of the datapath — `End.BPF`, `lwt_in`, `lwt_xmit` —
//! driven through [`Seg6Datapath::process`]: what each hook makes of
//! `BPF_OK`, `BPF_DROP`, `BPF_REDIRECT`, an unknown return code and a
//! runtime fault, what `End.BPF` makes of a redirect by
//! `bpf_lwt_seg6_action` and of an SRH edit that fails validation, how each
//! is accounted and which bytes leave — plus `End.BPF` keeping a helper's
//! edit although the helper failed. Each hook takes programs of its own
//! type only. Also pins the LWT attachment-table semantics the hooks are
//! looked up with, the drop reason of every way an SRH advance can fail,
//! and what running in place means: every tier reads the same bytes after
//! a helper moved the packet's front, and no path moves the packet's
//! payload.

#[path = "common/nf_paths.rs"]
#[allow(dead_code)]
mod nf_paths;

use ebpf_vm::helpers::ids;
use ebpf_vm::insn::{alu, jmp, AccessSize};
use ebpf_vm::program::{load, retcode, ExecTier, LoadedProgram, ProgramType};
use ebpf_vm::ProgramBuilder;
use netpkt::ipv6::proto;
use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::{SegmentRoutingHeader, SrhTlv};
use netpkt::PacketBuf;
use seg6_core::{
    action_codes, ctx, encap_modes, srv6_ops, DropReason, LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath,
    Seg6LocalAction, Skb, Verdict,
};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

const SID: &str = "fc00::e1";
const NEXT_SEGMENT: &str = "fc00::22";
const LOCAL: &str = "fc00::11";
const XMIT_DST: &str = "2001:db8:2::9";
/// Inner destination of the encapsulated packet: routed in the main table.
const INNER_DST: &str = "2001:db8::2";
/// A table with no routes at all.
const EMPTY_TABLE: i32 = 100;

/// What a program does before it returns.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Body {
    /// Nothing: return `code`.
    Return(u64),
    /// `bpf_lwt_seg6_action(End.X, fe80::42)`, then `BPF_REDIRECT`.
    Redirect,
    /// Read the context past its 64 bytes (inside the verifier's static
    /// bound): a runtime fault on every tier.
    Fault,
    /// Overwrite the first TLV's header with a Delay-Measurement TLV of
    /// length 3 through `bpf_lwt_seg6_store_bytes`, then `BPF_OK`.
    CorruptSrh,
    /// `bpf_lwt_seg6_action(End.DT6, table 100)` on an encapsulated packet:
    /// the helper decapsulates, misses its lookup in the empty table and
    /// fails — the packet already decapsulated — then `BPF_OK`.
    DecapMiss,
}

/// Loads `body` as a program of the type `hook` runs. The bodies that call
/// the `End.BPF`-only helpers load only as `lwt_seg6local` programs.
fn program(dp: &Seg6Datapath, hook: Hook, body: Body) -> Arc<LoadedProgram> {
    let mut b = ProgramBuilder::new();
    b.mov_reg(6, 1);
    match body {
        Body::Return(code) => {
            b.ret(code as i32);
        }
        Body::Redirect => {
            // fe80::42 on the stack, little-endian words.
            b.store_imm(AccessSize::Word, 10, -16, 0x0000_80fe);
            b.store_imm(AccessSize::Word, 10, -12, 0);
            b.store_imm(AccessSize::Word, 10, -8, 0);
            b.store_imm(AccessSize::Word, 10, -4, 0x4200_0000);
            b.mov_reg(1, 6);
            b.mov_imm(2, action_codes::END_X as i32);
            b.mov_reg(3, 10);
            b.add_imm(3, -16);
            b.mov_imm(4, 16);
            b.call(ids::LWT_SEG6_ACTION);
            b.ret(retcode::BPF_REDIRECT as i32);
        }
        Body::Fault => {
            b.load_mem(AccessSize::Double, 0, 1, 128);
            b.ret(retcode::BPF_OK as i32);
        }
        Body::CorruptSrh => {
            b.store_imm(AccessSize::Half, 10, -8, 0x037c); // bytes 124, 3
            b.mov_reg(1, 6);
            b.mov_imm(2, 8 + 2 * 16); // first TLV of a two-segment SRH
            b.mov_reg(3, 10);
            b.add_imm(3, -8);
            b.mov_imm(4, 2);
            b.call(ids::LWT_SEG6_STORE_BYTES);
            b.ret(retcode::BPF_OK as i32);
        }
        Body::DecapMiss => {
            b.store_imm(AccessSize::Word, 10, -4, EMPTY_TABLE);
            b.mov_reg(1, 6);
            b.mov_imm(2, action_codes::END_DT6 as i32);
            b.mov_reg(3, 10);
            b.add_imm(3, -4);
            b.mov_imm(4, 4);
            b.call(ids::LWT_SEG6_ACTION);
            b.ret(retcode::BPF_OK as i32);
        }
    }
    let prog_type = match hook {
        Hook::EndBpf => ProgramType::LwtSeg6Local,
        Hook::In => LwtHook::In.program_type(),
        Hook::Xmit => LwtHook::Xmit.program_type(),
    };
    let prog = b.build_program("hook-test", prog_type).expect("static program");
    load(prog, &HashMap::new(), &dp.helpers).expect("verified program")
}

fn router() -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr(LOCAL));
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
    dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via(addr("fe80::3"), 3)]);
    dp.add_route("fe80::/64".parse().unwrap(), vec![Nexthop::direct(7)]);
    dp
}

/// SRv6 towards `first`, one more segment, and a TLV for programs to edit.
fn srv6_skb(first: &str) -> Skb {
    let mut srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr(first), addr(NEXT_SEGMENT)]);
    srh.tlvs.push(SrhTlv::DelayMeasurement { tx_timestamp_ns: 7 });
    Skb::new(build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64))
}

fn plain_skb(dst: &str) -> Skb {
    Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr(dst), 1, 2, &[0u8; 16], 64))
}

/// The IPv6/UDP packet [`encapsulated_skb`] carries.
fn inner_packet() -> Vec<u8> {
    plain_skb(INNER_DST).packet.data().to_vec()
}

/// [`inner_packet`] encapsulated towards `first`, then one more segment.
fn encapsulated_skb(first: &str) -> Skb {
    let mut packet = inner_packet();
    let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr(first), addr(NEXT_SEGMENT)]);
    srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addr("fc00::99")).unwrap();
    Skb::new(PacketBuf::from_slice(&packet))
}

/// The bytes `input` must leave with: End.BPF's SRH advance on every packet
/// it let through (segments_left 1 → 0 at byte 43, the next segment as
/// destination), the program's own edits, and the hop-limit decrement of
/// a forwarded packet. A packet dropped before the program's verdict
/// keeps its bytes.
fn expected_bytes(hook: Hook, body: Body, input: &[u8], verdict: Verdict) -> Vec<u8> {
    let mut want = input.to_vec();
    match (hook, body) {
        (Hook::EndBpf, Body::Fault | Body::CorruptSrh) => {}
        (Hook::EndBpf, Body::DecapMiss) => want = inner_packet(),
        (Hook::EndBpf, _) => {
            want[43] = 0;
            want[24..40].copy_from_slice(&addr(NEXT_SEGMENT).octets());
        }
        _ => {}
    }
    if verdict.is_forward() {
        want[7] -= 1;
    }
    want
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Hook {
    EndBpf,
    In,
    Xmit,
}

/// Runs one packet through a fresh router with `body` attached at `hook`
/// and returns the verdict, the datapath (for its statistics), the packet
/// and the bytes it arrived with.
fn run(hook: Hook, body: Body) -> (Verdict, Seg6Datapath, Skb, Vec<u8>) {
    let mut dp = router();
    let prog = program(&dp, hook, body);
    let attach = |hook, prog| LwtBpfAttachment { hook, prog };
    let mut skb = match hook {
        Hook::EndBpf => {
            dp.add_local_sid(format!("{SID}/128").parse().unwrap(), Seg6LocalAction::EndBpf { prog });
            match body {
                Body::DecapMiss => encapsulated_skb(SID),
                _ => srv6_skb(SID),
            }
        }
        Hook::In => {
            dp.attach_lwt_bpf(format!("{LOCAL}/128").parse().unwrap(), attach(LwtHook::In, prog));
            srv6_skb(LOCAL)
        }
        Hook::Xmit => {
            dp.attach_lwt_bpf("2001:db8:2::/48".parse().unwrap(), attach(LwtHook::Xmit, prog));
            plain_skb(XMIT_DST)
        }
    };
    let input = skb.packet.data().to_vec();
    let verdict = dp.process(&mut skb, 0);
    (verdict, dp, skb, input)
}

#[test]
fn every_hook_honours_every_program_outcome() {
    let drop = |reason| Verdict::Drop(reason);
    let via = |oif, neighbour: &str| Verdict::Forward { oif, neighbour: addr(neighbour) };
    // (hook, program, verdict, transit_applied)
    let table = [
        // End.BPF: advance, run, validate, honour the code.
        (Hook::EndBpf, Body::Return(retcode::BPF_OK), via(2, "fe80::2"), 0),
        (Hook::EndBpf, Body::Return(retcode::BPF_DROP), drop(DropReason::BpfDrop), 0),
        (Hook::EndBpf, Body::Redirect, via(7, "fe80::42"), 0),
        (Hook::EndBpf, Body::Return(99), drop(DropReason::BpfError), 0),
        (Hook::EndBpf, Body::Fault, drop(DropReason::BpfError), 0),
        (Hook::EndBpf, Body::CorruptSrh, drop(DropReason::SrhValidationFailed), 0),
        // The helper failed after it decapsulated: what it wrote stands,
        // and the inner packet is forwarded on its own destination.
        (Hook::EndBpf, Body::DecapMiss, via(3, "fe80::3"), 0),
        // lwt_in: the program may drop, never forward.
        (Hook::In, Body::Return(retcode::BPF_OK), Verdict::LocalDeliver, 0),
        (Hook::In, Body::Return(retcode::BPF_DROP), drop(DropReason::BpfDrop), 0),
        (Hook::In, Body::Return(retcode::BPF_REDIRECT), Verdict::LocalDeliver, 0),
        (Hook::In, Body::Return(99), drop(DropReason::BpfError), 0),
        (Hook::In, Body::Fault, drop(DropReason::BpfError), 0),
        // lwt_xmit: forwards like End.BPF, and counts as a transit
        // behaviour whenever it forwards. No helper an lwt_xmit program may
        // call sets a route, so a redirect forwards on the FIB too.
        (Hook::Xmit, Body::Return(retcode::BPF_OK), via(3, "fe80::3"), 1),
        (Hook::Xmit, Body::Return(retcode::BPF_DROP), drop(DropReason::BpfDrop), 0),
        (Hook::Xmit, Body::Return(retcode::BPF_REDIRECT), via(3, "fe80::3"), 1),
        (Hook::Xmit, Body::Return(99), drop(DropReason::BpfError), 0),
        (Hook::Xmit, Body::Fault, drop(DropReason::BpfError), 0),
    ];
    for (hook, body, verdict, transit) in table {
        let (got, dp, skb, input) = run(hook, body);
        let case = format!("{hook:?} / {body:?}");
        assert_eq!(got, verdict, "{case}");
        assert_eq!(dp.stats.received, 1, "{case}");
        assert_eq!(dp.stats.bpf_invocations, 1, "{case}");
        assert_eq!(dp.stats.seg6local_invocations, u64::from(hook == Hook::EndBpf), "{case}");
        assert_eq!(dp.stats.transit_applied, transit, "{case}");
        assert_eq!(dp.stats.forwarded, u64::from(verdict.is_forward()), "{case}");
        assert_eq!(dp.stats.local_delivered, u64::from(verdict == Verdict::LocalDeliver), "{case}");
        assert_eq!(dp.stats.total_dropped(), u64::from(verdict.drop_reason().is_some()), "{case}");
        if let Some(reason) = verdict.drop_reason() {
            assert_eq!(dp.stats.dropped_for(reason), 1, "{case}");
        }
        assert_eq!(skb.packet.data(), expected_bytes(hook, body, &input, verdict), "{case}");
    }
}

/// One prefix holds one attachment whatever its hook, and a hook's lookup
/// filters by hook *before* choosing the longest prefix.
#[test]
fn lwt_attachments_replace_by_prefix_and_match_by_hook_first() {
    let mut dp = router();
    let dropper = program(&dp, Hook::Xmit, Body::Return(retcode::BPF_DROP));
    let pass = program(&dp, Hook::Xmit, Body::Return(retcode::BPF_OK));
    let pass_in = program(&dp, Hook::In, Body::Return(retcode::BPF_OK));
    let attach = |dp: &mut Seg6Datapath, prefix: &str, hook, prog: &Arc<LoadedProgram>| {
        dp.attach_lwt_bpf(prefix.parse().unwrap(), LwtBpfAttachment { hook, prog: prog.clone() });
    };

    // A longer prefix attached at another hook does not shadow the xmit
    // program on the shorter one.
    attach(&mut dp, "2001:db8:2::/48", LwtHook::Xmit, &dropper);
    attach(&mut dp, "2001:db8:2::/64", LwtHook::In, &pass_in);
    assert_eq!(dp.process(&mut plain_skb(XMIT_DST), 0), Verdict::Drop(DropReason::BpfDrop));
    // Among attachments of the hook, the longest prefix wins.
    attach(&mut dp, "2001:db8:2::/56", LwtHook::Xmit, &pass);
    assert!(dp.process(&mut plain_skb(XMIT_DST), 0).is_forward());
    assert_eq!(dp.lwt_bpf.len(), 3);

    // Attaching at a prefix that already holds an attachment replaces it,
    // even when the hooks differ: the /56 xmit program is gone, the /48
    // dropper is the match again.
    attach(&mut dp, "2001:db8:2::/56", LwtHook::In, &pass_in);
    assert_eq!(dp.lwt_bpf.len(), 3);
    assert_eq!(dp.process(&mut plain_skb(XMIT_DST), 0), Verdict::Drop(DropReason::BpfDrop));
    assert_eq!(dp.stats.bpf_invocations, 3);
}

/// Attaches `prog` at `hook` on a fresh router and reports whether the
/// datapath refused it with a panic.
fn refused(hook: Hook, prog: Arc<LoadedProgram>) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut dp = router();
        match hook {
            Hook::EndBpf => {
                dp.add_local_sid(format!("{SID}/128").parse().unwrap(), Seg6LocalAction::EndBpf { prog })
            }
            Hook::In => {
                dp.attach_lwt_bpf(LOCAL.parse().unwrap(), LwtBpfAttachment { hook: LwtHook::In, prog })
            }
            Hook::Xmit => {
                dp.attach_lwt_bpf(XMIT_DST.parse().unwrap(), LwtBpfAttachment { hook: LwtHook::Xmit, prog })
            }
        }
    }))
    .is_err()
}

/// As the kernel's attach requires, an LWT hook refuses an `End.BPF`
/// (`lwt_seg6local`) program, which could call the SRH helpers there, and
/// a program of the other LWT hook's type.
#[test]
fn an_lwt_hook_refuses_a_program_of_another_type() {
    let dp = router();
    for hook in [Hook::In, Hook::Xmit] {
        for from in [Hook::EndBpf, Hook::In, Hook::Xmit] {
            let prog = program(&dp, from, Body::Return(retcode::BPF_OK));
            assert_eq!(refused(hook, prog), from != hook, "{from:?} program at {hook:?}");
        }
    }
    let redirect = program(&dp, Hook::EndBpf, Body::Redirect);
    assert!(refused(Hook::Xmit, redirect));
}

/// `End.BPF` refuses a program of either LWT type: it would run without
/// the SRH helpers its hook exists for, and with `bpf_lwt_push_encap`.
#[test]
fn end_bpf_refuses_an_lwt_program() {
    let dp = router();
    for from in [Hook::EndBpf, Hook::In, Hook::Xmit] {
        let prog = program(&dp, from, Body::Return(retcode::BPF_OK));
        assert_eq!(refused(Hook::EndBpf, prog), from != Hook::EndBpf, "{from:?} program as End.BPF");
    }
    let push = in_place_program(&dp, false);
    assert!(refused(Hook::EndBpf, push));
}

/// Every way the endpoint SRH advance can fail, by the reason it is
/// dropped for — through a static `End` SID and through `End.BPF`, which
/// advance with the same operation.
#[test]
fn srh_advance_failures_map_to_their_drop_reasons() {
    let mut dp = router();
    let prog = program(&dp, Hook::EndBpf, Body::Return(retcode::BPF_OK));
    dp.add_local_sid(format!("{SID}/128").parse().unwrap(), Seg6LocalAction::EndBpf { prog });
    dp.add_local_sid("fc00::e2/128".parse().unwrap(), Seg6LocalAction::End);

    for sid in [SID, "fc00::e2"] {
        let good = srv6_skb(sid).packet.data().to_vec();
        let mutated = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            edit(&mut bytes);
            Skb::new(PacketBuf::from_slice(&bytes))
        };
        // SRH fields sit behind the 40-byte IPv6 header: hdr_ext_len at
        // +1, segments_left at +3, last_entry at +4.
        let cases = [
            ("plain IPv6, no SRH", plain_skb(sid), DropReason::NoSrh),
            ("segments_left = 0", mutated(&|b| b[43] = 0), DropReason::SegmentsLeftZero),
            ("segments_left > last_entry", mutated(&|b| b[43] = 3), DropReason::Malformed),
            (
                "segment list cut short of the next segment",
                // hdr_ext_len says one segment; segments_left = 2 points at
                // the second, last_entry still admits it.
                mutated(&|b| {
                    b[41] = 2;
                    b[43] = 2;
                    b[44] = 5;
                }),
                DropReason::Malformed,
            ),
        ];
        for (what, mut skb, reason) in cases {
            assert_eq!(dp.process(&mut skb, 0), Verdict::Drop(reason), "{sid}: {what}");
        }
        assert!(dp.process(&mut srv6_skb(sid), 0).is_forward(), "{sid}: the unmodified packet forwards");
    }
}

/// The SRH the in-place parity programs push: one segment, `fc00::a1`,
/// carrying IPv6.
fn encap_srh() -> Vec<u8> {
    SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::a1")]).to_bytes()
}

/// A PadN TLV filling the eight bytes `adjust_srh` opens.
const PAD_TLV: [u8; 8] = [4, 6, 0, 0, 0, 0, 0, 0];

/// What [`in_place_program`] leaves in the mark, computed from the bytes it
/// saw: the first destination word and the SRH's `hdr_ext_len` — at the new
/// front — and the payload's last word.
fn fold(packet: &[u8]) -> u32 {
    let word = |at: usize| u64::from(u32::from_le_bytes(packet[at..at + 4].try_into().unwrap()));
    (((word(24) ^ u64::from(packet[41])).wrapping_mul(31)) ^ word(packet.len() - 4)) as u32
}

/// An `lwt_xmit` program that pushes [`encap_srh`] with `bpf_lwt_push_encap`,
/// or an `End.BPF` one that grows the SRH by a [`PAD_TLV`] with
/// `bpf_lwt_seg6_adjust_srh` + `bpf_lwt_seg6_store_bytes`; then each
/// re-derives `data` from its context and stores [`fold`] of what it reads
/// in the mark.
fn in_place_program(dp: &Seg6Datapath, end_bpf: bool) -> Arc<LoadedProgram> {
    let mut b = ProgramBuilder::new();
    b.mov_reg(9, 1);
    if end_bpf {
        // r7 = SRH length = 8 + 8 * hdr_ext_len: append the TLV there.
        b.load_mem(AccessSize::Double, 6, 1, 0);
        b.load_mem(AccessSize::Byte, 7, 6, 41);
        b.alu_imm(alu::LSH, 7, 3);
        b.add_imm(7, 8);
        b.mov_reg(2, 7);
        b.mov_imm(3, 8);
        b.call(ids::LWT_SEG6_ADJUST_SRH);
        b.jmp_imm(jmp::JNE, 0, 0, "drop");
        b.load_imm64(2, u64::from_le_bytes(PAD_TLV));
        b.store_mem(AccessSize::Double, 10, 2, -8);
        b.mov_reg(1, 9);
        b.mov_reg(2, 7);
        b.mov_reg(3, 10);
        b.add_imm(3, -8);
        b.mov_imm(4, 8);
        b.call(ids::LWT_SEG6_STORE_BYTES);
    } else {
        let srh = encap_srh();
        for (i, word) in srh.chunks(8).enumerate() {
            b.load_imm64(2, u64::from_le_bytes(word.try_into().unwrap()));
            b.store_mem(AccessSize::Double, 10, 2, -24 + 8 * i as i16);
        }
        b.mov_imm(2, encap_modes::SEG6 as i32);
        b.mov_reg(3, 10);
        b.add_imm(3, -24);
        b.mov_imm(4, srh.len() as i32);
        b.call(ids::LWT_PUSH_ENCAP);
    }
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    // Re-derive the packet pointer: the helper moved the packet's front.
    b.load_mem(AccessSize::Double, 6, 9, ctx::offsets::DATA);
    b.load_mem(AccessSize::Word, 0, 6, 24);
    b.load_mem(AccessSize::Byte, 2, 6, 41);
    b.alu_reg(alu::XOR, 0, 2);
    b.alu_imm(alu::MUL, 0, 31);
    b.load_mem(AccessSize::Word, 7, 9, ctx::offsets::LEN);
    b.alu_reg(alu::ADD, 6, 7);
    b.load_mem(AccessSize::Word, 2, 6, -4);
    b.alu_reg(alu::XOR, 0, 2);
    b.store_mem(AccessSize::Word, 9, 0, ctx::offsets::MARK);
    b.ret(retcode::BPF_OK as i32);
    b.label("drop");
    b.ret(retcode::BPF_DROP as i32);
    let prog_type = if end_bpf { ProgramType::LwtSeg6Local } else { ProgramType::LwtXmit };
    let prog = b.build_program("in-place", prog_type).expect("static program");
    load(prog, &HashMap::new(), &dp.helpers).expect("verified program")
}

/// The bytes [`in_place_program`] must leave: the input with End.BPF's SRH
/// advance and the grown SRH, or the pushed encapsulation, then the
/// forwarding hop-limit decrement.
fn in_place_expected(end_bpf: bool, input: &[u8]) -> Vec<u8> {
    let mut want = input.to_vec();
    if end_bpf {
        srv6_ops::advance_srh(&mut want).unwrap();
        let srh_end = 40 + 8 + 8 * usize::from(want[41]);
        want.splice(srh_end..srh_end, PAD_TLV);
        want[41] += 1;
        srv6_ops::adjust_payload_length(&mut want, 8).unwrap();
    } else {
        srv6_ops::push_srh_encap(&mut want, &encap_srh(), addr(LOCAL)).unwrap();
    }
    want[7] -= 1;
    want
}

/// The native tier rebases its packet pointer after every helper; the
/// other tiers resolve each access afresh. A program that reads the packet
/// right after a helper moved its front — into just enough headroom, or
/// into too little, which moves (and may reallocate) the whole buffer —
/// must see the same bytes, and leave the same ones, on every tier.
#[test]
fn every_tier_reads_the_moved_packet_after_a_resizing_helper() {
    for end_bpf in [false, true] {
        let input = if end_bpf { srv6_skb(SID) } else { plain_skb(XMIT_DST) }.packet.data().to_vec();
        let want = in_place_expected(end_bpf, &input);
        let moved_front = want.len() - input.len();
        for headroom in [moved_front, moved_front - 1] {
            for tier in ExecTier::ALL {
                let mut dp = router();
                let prog = in_place_program(&dp, end_bpf);
                prog.set_exec_tier(tier);
                if end_bpf {
                    dp.add_local_sid(format!("{SID}/128").parse().unwrap(), Seg6LocalAction::EndBpf { prog });
                } else {
                    let attachment = LwtBpfAttachment { hook: LwtHook::Xmit, prog };
                    dp.attach_lwt_bpf("2001:db8:2::/48".parse().unwrap(), attachment);
                }
                let mut packet = PacketBuf::with_headroom(headroom);
                packet.append(&input);
                let mut skb = Skb::new(packet);
                let case = format!("End.BPF {end_bpf}, headroom {headroom}, tier {}", tier.name());
                assert!(dp.process(&mut skb, 0).is_forward(), "{case}");
                assert_eq!(skb.packet.data(), want, "{case}");
                assert_eq!(skb.mark, fold(&want), "{case}");
            }
        }
    }
}

/// Every path of the allocation gates — the shipped programs that store,
/// grow an SRH or push an encapsulation, the static encap and inline
/// transits, `End.B6` and `End.B6.Encaps` — edits the packet in place by
/// moving its front: the payload, and so the packet's last byte, stays at
/// its address. (A working copy of the packet would move it.)
#[test]
fn no_path_moves_the_payload() {
    for tier in ExecTier::ALL {
        let (mut dp, _perf) = nf_paths::router(0, Some(tier));
        for (path, frame) in nf_paths::steady_frames(1).iter().enumerate() {
            let mut skb = Skb::new(PacketBuf::from_slice(frame));
            let last_byte = skb.packet.data().as_ptr_range().end;
            assert!(dp.process(&mut skb, 0).is_forward(), "path {path}, tier {}", tier.name());
            assert_eq!(skb.packet.data().as_ptr_range().end, last_byte, "path {path}, tier {}", tier.name());
        }
    }
}
