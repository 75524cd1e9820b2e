//! The router and frames of the program- and encapsulation-path
//! allocation gates: every shipped `End.BPF` / LWT program and every
//! static behaviour that resizes a packet. Shared by `zero_alloc.rs` here
//! and by `seg6-runtime`'s `pool_zero_alloc.rs` (which `#[path]`-includes
//! this file), so both gates cover the same paths.

use ebpf_vm::maps::{Map, MapHandle, PerfEventArray};
use ebpf_vm::perf::PerfEventBuffer;
use ebpf_vm::program::{load, ExecTier, Program};
use netpkt::ipv6::proto;
use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::Ipv6Prefix;
use seg6_core::{
    LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Seg6LocalAction, Skb, TransitBehaviour, Verdict,
};
use srv6_nf::{
    add_tlv_program, end_dm_program, end_t_program, owd_encap_program, tag_increment_program,
    wrr_encap_program, wrr_maps, OwdEncapConfig,
};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

const VRF: u32 = 100;
const SID_TAG_INC: &str = "fc00::f1";
const SID_ADD_TLV: &str = "fc00::f2";
const SID_END_T: &str = "fc00::f3";
const SID_END_DM: &str = "fc00::f4";
const SID_B6_ENCAPS: &str = "fc00::f5";
const SID_B6: &str = "fc00::f6";

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn prefix(s: &str) -> Ipv6Prefix {
    s.parse().unwrap()
}

/// A router running every path of the gate, its programs pinned to
/// `tier` (`None`: the loader's pick), and the perf
/// ring its `End.DM` reports to.
pub fn router(tier: Option<ExecTier>) -> (Seg6Datapath, Arc<PerfEventBuffer>) {
    let mut dp = Seg6Datapath::new(addr("fc00::1"));
    dp.add_route(prefix("fc00::/16"), vec![Nexthop::via(addr("fe80::2"), 2)]);
    dp.add_route(prefix("fd00::/16"), vec![Nexthop::via(addr("fe80::2"), 2)]);
    dp.add_route(prefix("2001:db8::/32"), vec![Nexthop::via(addr("fe80::3"), 3)]);
    dp.add_route_in_table(VRF, prefix("fc00::/16"), vec![Nexthop::via(addr("fe80::9"), 9)]);

    let perf_array = PerfEventArray::per_cpu(4096, 1);
    let perf = perf_array.perf_buffer().expect("a perf-event array has a buffer");
    let (wrr_state, wrr_config) = wrr_maps(2, 1, addr("fc00::a1"), addr("fc00::a2"));
    let maps: HashMap<u32, MapHandle> =
        HashMap::from([(1, perf_array as MapHandle), (2, wrr_state), (3, wrr_config)]);
    let helpers = dp.helpers.clone();
    let program = |program: Program| {
        let loaded = load(program, &maps, &helpers).expect("shipped program verifies");
        if let Some(tier) = tier {
            loaded.set_exec_tier(tier);
        }
        loaded
    };
    let mut end_bpf = |sid: &str, prog: Program| {
        dp.add_local_sid(Ipv6Prefix::host(addr(sid)), Seg6LocalAction::EndBpf { prog: program(prog) });
    };
    end_bpf(SID_TAG_INC, tag_increment_program());
    end_bpf(SID_ADD_TLV, add_tlv_program());
    end_bpf(SID_END_T, end_t_program(VRF));
    end_bpf(SID_END_DM, end_dm_program(1));
    dp.attach_lwt_bpf(
        prefix("2001:db8:2::/48"),
        LwtBpfAttachment { hook: LwtHook::Xmit, prog: program(wrr_encap_program(2, 3)) },
    );

    let detour = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fd00::1"), addr("fd00::2")]);
    dp.add_local_sid(Ipv6Prefix::host(addr(SID_B6_ENCAPS)), Seg6LocalAction::end_b6_encaps(&detour));
    dp.add_local_sid(Ipv6Prefix::host(addr(SID_B6)), Seg6LocalAction::end_b6(&detour));
    dp.add_transit(
        prefix("2001:db8:3::/48"),
        TransitBehaviour::encap_through(&[addr("fc00::c1"), addr("fc00::c2")]),
    );
    dp.add_transit(prefix("2001:db8:4::/48"), TransitBehaviour::inline_through(&[addr("fc00::c1")]));
    (dp, perf)
}

fn through_sid(sid: &str, flow: u16) -> Vec<u8> {
    let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr(sid), addr("fc00::99")]);
    build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000 + flow, 2000, &[0u8; 32], 64).data().to_vec()
}

fn plain_to(dst: &str, flow: u16) -> Vec<u8> {
    build_ipv6_udp_packet(addr("2001:db8::1"), addr(dst), 1000 + flow, 2000, &[0u8; 32], 64).data().to_vec()
}

/// `flows` frames for each path that must not allocate at all:
/// `tag_increment`, `add_tlv`, `end_t`, `wrr_encap`, the static
/// `encap_through` / `inline_through` transits, `End.B6.Encaps`, `End.B6`.
pub fn steady_frames(flows: u16) -> Vec<Vec<u8>> {
    (0..flows)
        .flat_map(|flow| {
            [
                through_sid(SID_TAG_INC, flow),
                through_sid(SID_ADD_TLV, flow),
                through_sid(SID_END_T, flow),
                plain_to("2001:db8:2::9", flow),
                plain_to("2001:db8:3::9", flow),
                plain_to("2001:db8:4::9", flow),
                through_sid(SID_B6_ENCAPS, flow),
                through_sid(SID_B6, flow),
            ]
        })
        .collect()
}

/// `count` `End.DM` probes, built the way the paper does: by the shipped
/// `owd_encap` program (ratio 1) on an ingress router.
pub fn probe_frames(count: u16) -> Vec<Vec<u8>> {
    let mut ingress = Seg6Datapath::new(addr("fc00:0::1"));
    ingress.add_route(prefix("::/0"), vec![Nexthop::direct(1)]);
    let encap = owd_encap_program(OwdEncapConfig {
        dm_sid: addr(SID_END_DM),
        controller: addr("2001:db8:ffff::c0"),
        controller_port: 9999,
        ratio: 1,
    });
    let prog = load(encap, &HashMap::new(), &ingress.helpers).expect("owd_encap verifies");
    ingress.attach_lwt_bpf(prefix("2001:db8:5::/48"), LwtBpfAttachment { hook: LwtHook::Xmit, prog });
    (0..count)
        .map(|flow| {
            let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&plain_to("2001:db8:5::9", flow)));
            assert!(matches!(ingress.process(&mut skb, 42_000), Verdict::Forward { .. }));
            skb.packet.data().to_vec()
        })
        .collect()
}
