//! The datapath hashes a flow only when a lookup lands on a multipath
//! route, and keeps one helper environment per router instead of building
//! one per packet. Neither may move a packet: over 1 000 flows and 2- and
//! 3-way weighted routes, every lookup must pick the next hop that hashing
//! the flow eagerly and calling [`Fib::lookup`] picks — for plain
//! forwarding and static `End.T` over the header as it arrived, for an
//! `End.BPF` program's `bpf_lwt_seg6_action(End.T)` over the header as the
//! program sees it, after the SRH advance. And a program must draw the
//! same `bpf_get_prandom_u32` values from the kept environment as from a
//! fresh [`Seg6Env::new`].

use ebpf_vm::helpers::ids;
use ebpf_vm::insn::{jmp, AccessSize};
use ebpf_vm::program::{load, retcode, ProgramType};
use ebpf_vm::vm::VmEnv;
use ebpf_vm::ProgramBuilder;
use netpkt::ipv6::proto;
use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::{Ipv6Prefix, PacketBuf};
use seg6_core::{
    action_codes, ctx, EcmpKey, Fib, Nexthop, Seg6Datapath, Seg6Env, Seg6LocalAction, Skb, Verdict,
};
use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;

const FLOWS: usize = 1_000;
const VRF: u32 = 100;
const SID_END_T: &str = "fc00::e1";
const SID_END_BPF: &str = "fc00::e2";

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// SplitMix64, seeded: the flows are the same on every run.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A 2-way and a 3-way weighted route.
fn multipath_routes() -> Vec<(Ipv6Prefix, Vec<Nexthop>)> {
    vec![
        (
            "fd00::/16".parse().unwrap(),
            vec![Nexthop::via(addr("fe80::a"), 4), Nexthop::via(addr("fe80::b"), 5).with_weight(2)],
        ),
        (
            "fd01::/16".parse().unwrap(),
            vec![
                Nexthop::via(addr("fe80::c"), 6).with_weight(3),
                Nexthop::direct(7),
                Nexthop::via(addr("fe80::e"), 8).with_weight(2),
            ],
        ),
    ]
}

/// `bpf_lwt_seg6_action(End.T, VRF)` then `BPF_REDIRECT` — the paper's
/// End.T written in BPF.
fn end_t_in_bpf() -> ebpf_vm::Program {
    let mut b = ProgramBuilder::new();
    b.store_imm(AccessSize::Word, 10, -8, VRF as i32);
    b.mov_imm(2, action_codes::END_T as i32);
    b.mov_reg(3, 10);
    b.add_imm(3, -8);
    b.mov_imm(4, 4);
    b.call(ids::LWT_SEG6_ACTION);
    b.jmp_imm(jmp::JNE, 0, 0, "drop");
    b.ret(retcode::BPF_REDIRECT as i32);
    b.label("drop");
    b.ret(retcode::BPF_DROP as i32);
    b.build_program("end-t-in-bpf", ProgramType::LwtSeg6Local).expect("static program")
}

/// The router under test, and the same routes in a bare [`Fib`] to ask
/// the eager way.
fn router() -> (Seg6Datapath, Fib) {
    let mut dp = Seg6Datapath::new(addr("fc00::1"));
    let mut reference = Fib::new();
    for (prefix, nexthops) in multipath_routes() {
        dp.add_route(prefix, nexthops.clone());
        dp.add_route_in_table(VRF, prefix, nexthops.clone());
        reference.insert(prefix, nexthops);
    }
    dp.add_local_sid(Ipv6Prefix::host(addr(SID_END_T)), Seg6LocalAction::end_t(VRF));
    let prog = load(end_t_in_bpf(), &HashMap::new(), &dp.helpers).expect("verified program");
    dp.add_local_sid(Ipv6Prefix::host(addr(SID_END_BPF)), Seg6LocalAction::EndBpf { prog });
    (dp, reference)
}

/// One flow: a source, a destination behind one of the multipath routes,
/// and a flow label.
struct Flow {
    src: Ipv6Addr,
    dst: Ipv6Addr,
    flow_label: u32,
}

fn flows() -> Vec<Flow> {
    let mut rng = Mix(0x0ec3_b16f);
    (0..FLOWS)
        .map(|i| {
            let route: u128 = if i % 2 == 0 { 0xfd00 } else { 0xfd01 };
            Flow {
                src: Ipv6Addr::from(0x2001_0db8u128 << 96 | u128::from(rng.next())),
                dst: Ipv6Addr::from(route << 112 | u128::from(rng.next() >> 16)),
                flow_label: (rng.next() & 0xf_ffff) as u32,
            }
        })
        .collect()
}

fn with_flow_label(mut packet: PacketBuf, flow_label: u32) -> Skb {
    let data = packet.data_mut();
    data[1] = (data[1] & 0xf0) | (flow_label >> 16) as u8;
    data[2] = (flow_label >> 8) as u8;
    data[3] = flow_label as u8;
    Skb::new(packet)
}

fn plain(flow: &Flow) -> Skb {
    with_flow_label(build_ipv6_udp_packet(flow.src, flow.dst, 1, 2, &[0u8; 16], 64), flow.flow_label)
}

fn through_sid(flow: &Flow, sid: &str) -> Skb {
    let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr(sid), flow.dst]);
    with_flow_label(build_srv6_udp_packet(flow.src, &srh, 1, 2, &[0u8; 16], 64), flow.flow_label)
}

/// What hashing `key` up front and calling [`Fib::lookup`] forwards
/// `dst` to.
fn eager(reference: &Fib, dst: Ipv6Addr, key: EcmpKey) -> Verdict {
    let hit = reference.lookup(dst, key.hash()).expect("destination is routed");
    assert!(hit.ecmp_width > 1, "the reference route is multipath");
    Verdict::Forward { oif: hit.nexthop.oif, neighbour: hit.nexthop.neighbour(dst) }
}

#[test]
fn lazily_hashed_lookups_pick_the_eagerly_hashed_next_hop() {
    let (mut dp, reference) = router();
    let mut used = HashSet::new();
    let mut advance_mattered = 0;
    for flow in flows() {
        let Flow { src, dst, flow_label } = flow;
        // Plain forwarding: the header as it arrived.
        let arrived = EcmpKey { src, dst, flow_label };
        let verdict = dp.process(&mut plain(&flow), 0);
        assert_eq!(verdict, eager(&reference, dst, arrived), "plain {src} -> {dst} label {flow_label:#x}");
        if let Verdict::Forward { oif, .. } = verdict {
            used.insert(oif);
        }

        // Static End.T: the datapath's own lookup, still over the header
        // as it arrived — destination the SID, not the next segment.
        let at_sid = EcmpKey { src, dst: addr(SID_END_T), flow_label };
        let verdict = dp.process(&mut through_sid(&flow, SID_END_T), 0);
        assert_eq!(verdict, eager(&reference, dst, at_sid), "End.T {src} -> {dst} label {flow_label:#x}");

        // End.BPF + bpf_lwt_seg6_action(End.T): the helper's lookup, over
        // the header the program sees — after the advance.
        let advanced = EcmpKey { src, dst, flow_label };
        let verdict = dp.process(&mut through_sid(&flow, SID_END_BPF), 0);
        assert_eq!(verdict, eager(&reference, dst, advanced), "End.BPF {src} -> {dst} label {flow_label:#x}");
        let before_advance = EcmpKey { src, dst: addr(SID_END_BPF), flow_label };
        advance_mattered += usize::from(eager(&reference, dst, before_advance) != verdict);
    }
    assert_eq!(used, HashSet::from([4, 5, 6, 7, 8]), "every next hop of both routes carries some flow");
    assert!(advance_mattered > FLOWS / 4, "pre- and post-advance hashes must be told apart by this test");
    assert_eq!(dp.stats.forwarded as usize, 3 * FLOWS);
}

/// `bpf_get_prandom_u32()` into the mark, `BPF_OK`.
fn mark_with_prandom() -> ebpf_vm::Program {
    let mut b = ProgramBuilder::new();
    b.mov_reg(6, 1);
    b.call(ids::GET_PRANDOM_U32);
    b.store_mem(AccessSize::Word, 6, 0, ctx::offsets::MARK);
    b.ret(retcode::BPF_OK as i32);
    b.build_program("mark-with-prandom", ProgramType::LwtSeg6Local).expect("static program")
}

#[test]
fn kept_environment_replays_a_fresh_environments_prandom_sequence() {
    let mut dp = Seg6Datapath::new(addr("fc00::1"));
    dp.add_route("fd00::/16".parse().unwrap(), vec![Nexthop::direct(1)]);
    let prog = load(mark_with_prandom(), &HashMap::new(), &dp.helpers).expect("verified program");
    dp.add_local_sid(Ipv6Prefix::host(addr(SID_END_BPF)), Seg6LocalAction::EndBpf { prog });
    let flow = Flow { src: addr("2001:db8::1"), dst: addr("fd00::9"), flow_label: 0 };
    // One datapath, hence one kept environment, across every packet; the
    // repeated timestamps must repeat their draw.
    for now_ns in [0u64, 1, 7, 7, 1_000_000, 42, 7, u64::MAX] {
        let mut skb = through_sid(&flow, SID_END_BPF);
        assert!(dp.process(&mut skb, now_ns).is_forward());
        let mut fresh = Seg6Env::new(addr(SID_END_BPF), dp.tables.clone(), now_ns);
        assert_eq!(skb.mark, fresh.prandom_u32(), "now_ns {now_ns}");
    }
}
