//! The five workloads: which frames each offers and which system serves
//! them.
//!
//! A workload is fully described by its seed-generated frames (the program
//! under test sees nothing else) and by how its datapaths are configured.
//! Datapaths are built here through the crates' public constructors only;
//! the `srv6d_loopback_64` tenants exist twice — as the config text the
//! daemon parses and as a hand-built [`Seg6Datapath`] the reference path
//! runs — so the config grammar itself is covered by the comparison.

use crate::rng::Rng;
use ebpf_vm::maps::{Map, MapHandle, PerfEventArray};
use ebpf_vm::perf::PerfEventBuffer;
use ebpf_vm::program::{load, retcode, ExecTier, LoadedProgram, Program, ProgramType};
use ebpf_vm::ProgramBuilder;
use netpkt::ipv6::proto;
use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::Ipv6Prefix;
use seg6_core::{
    srv6_ops, LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Seg6LocalAction, Skb, TransitBehaviour,
};
use srv6_nf::{
    add_tlv_program, end_dm_program, end_program, end_t_program, owd_encap_program, tag_increment_program,
    wrr_encap_program, wrr_maps, OwdEncapConfig,
};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Distinct frames pre-built per workload.
pub const FRAMES: usize = 4096;
/// Frames enqueued per `flush()` — the deep window (see the README for why
/// it is this deep).
pub const WINDOW: usize = 1024;
/// Frames per `enqueue_bytes_all` call (16 bursts make one window).
pub const BURST: usize = 64;
/// Frames kept in flight per socket on the loopback workload.
pub const SOCKET_WINDOW: usize = 128;
/// Seed used when `--seed` is not given; the golden digests are for it.
pub const DEFAULT_SEED: u64 = 1;

/// The WRR scheduler's weights: five packets on path 0, then three on
/// path 1, repeating.
pub const WRR_WEIGHTS: (u32, u32) = (5, 3);

/// Workload names, in the order `run.sh` runs them. Later issues refer to
/// these names; do not rename.
pub const NAMES: [&str; 5] =
    ["nf_mix_64", "static_mix_64", "encap_decap_1400", "hostile_mix_64", "srv6d_loopback_64"];

/// One line per workload on why it exists (mirrored in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "nf_mix_64" => "End.BPF programs on 64 B packets: VM, helpers and context build dominate",
        "static_mix_64" => "static End/End.T/End.X/forwarding: no VM, fixed datapath and ring cost only",
        "encap_decap_1400" => "1400 B packets that grow and shrink: bytes moved per packet dominate",
        "hostile_mix_64" => "half the frames leave the fast path through every drop reason",
        "srv6d_loopback_64" => "the full daemon over loopback sockets: kernel I/O dominates",
        _ => "",
    }
}

/// An eBPF program a workload runs. The first six are the shipped network
/// functions the per-layer `srv6-nf.*.run_ns` metrics are named after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prog {
    End,
    EndT,
    TagInc,
    AddTlv,
    EndDm,
    WrrEncap,
    /// The benchmark's own two-instruction `return BPF_DROP` program.
    Drop,
}

impl Prog {
    /// The shipped programs, in per-layer metric order.
    pub const SHIPPED: [Prog; 6] =
        [Prog::End, Prog::EndT, Prog::TagInc, Prog::AddTlv, Prog::EndDm, Prog::WrrEncap];

    /// Metric-name fragment (`srv6-nf.<this>.run_ns`).
    pub fn metric_name(self) -> &'static str {
        match self {
            Prog::End => "end",
            Prog::EndT => "end_t",
            Prog::TagInc => "tag_inc",
            Prog::AddTlv => "add_tlv",
            Prog::EndDm => "end_dm",
            Prog::WrrEncap => "wrr_encap",
            Prog::Drop => "drop",
        }
    }

    /// Whether the program runs on the LWT xmit hook (no SRH advance
    /// before it) rather than as an `End.BPF` endpoint.
    pub fn is_lwt(self) -> bool {
        self == Prog::WrrEncap
    }
}

/// What a frame is meant to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// SRv6 to an `End.BPF` SID running the given program.
    Bpf(Prog),
    /// SRv6 to a static `End` SID.
    StaticEnd,
    /// SRv6 to a static `End.T` SID.
    StaticEndT,
    /// SRv6 to a static `End.X` SID.
    StaticEndX,
    /// Plain IPv6, forwarded by the FIB.
    PlainForward,
    /// Plain IPv6 hitting the WRR LWT-BPF xmit program.
    WrrEncap,
    /// Plain IPv6 hitting a static `encap_through` transit behaviour.
    TransitEncap,
    /// IPv6-in-SRv6 to an `End.DT6` SID.
    Dt6Decap,
    /// Fewer than 40 bytes.
    Truncated,
    /// Plain IPv6 addressed to an `End` SID.
    SidNoSrh,
    /// `segments_left = 0` at an `End` SID.
    SegLeftZero,
    /// SRv6 carrying UDP (no inner IPv6) to an `End.DT6` SID.
    Dt6NoInner,
    /// No route for the destination.
    NoRoute,
    /// Hop limit 1 on a forwarded packet.
    HopLimitOne,
    /// SRH whose `last_entry` points past what `hdr_ext_len` holds.
    BadSrhLen,
    /// SRv6 to an `End.BPF` SID whose program returns `BPF_DROP`.
    BpfDrop,
}

impl Kind {
    /// The program this frame runs, if any.
    pub fn prog(self) -> Option<Prog> {
        match self {
            Kind::Bpf(prog) => Some(prog),
            Kind::WrrEncap => Some(Prog::WrrEncap),
            Kind::BpfDrop => Some(Prog::Drop),
            _ => None,
        }
    }

    /// The eight hostile kinds, spread evenly over half of
    /// `hostile_mix_64`.
    pub const HOSTILE: [Kind; 8] = [
        Kind::Truncated,
        Kind::SidNoSrh,
        Kind::SegLeftZero,
        Kind::Dt6NoInner,
        Kind::NoRoute,
        Kind::HopLimitOne,
        Kind::BadSrhLen,
        Kind::BpfDrop,
    ];
}

/// One generated frame.
#[derive(Debug, Clone)]
pub struct Frame {
    pub bytes: Vec<u8>,
    pub kind: Kind,
    /// Index of the tenant that receives it (always 0 on pool workloads).
    pub tenant: usize,
}

/// A workload's generated input.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub frames: Vec<Frame>,
    /// Routing contexts: 1 for the pool workloads, 2 for the daemon.
    pub tenants: usize,
}

impl Workload {
    /// Whether this is the daemon-over-sockets workload.
    pub fn is_daemon(&self) -> bool {
        self.name == "srv6d_loopback_64"
    }

    /// The programs this workload loads, in a fixed order.
    pub fn programs(&self) -> Vec<Prog> {
        let mut progs = Vec::new();
        for frame in &self.frames {
            if let Some(prog) = frame.kind.prog() {
                if !progs.contains(&prog) {
                    progs.push(prog);
                }
            }
        }
        progs.sort_by_key(|p| Prog::SHIPPED.iter().position(|s| s == p).unwrap_or(usize::MAX));
        progs
    }
}

fn addr(s: &str) -> Ipv6Addr {
    s.parse().expect("static address literal")
}

fn prefix(s: &str) -> Ipv6Prefix {
    s.parse().expect("static prefix literal")
}

// --- addressing plan of the pool workloads' router ------------------------

fn router_addr() -> Ipv6Addr {
    addr("fc00:1::1")
}
/// Where every SRv6 frame goes after the SID under test.
fn next_segment() -> Ipv6Addr {
    addr("fc00:2::d2")
}
fn sid_of(kind: Kind) -> Ipv6Addr {
    match kind {
        Kind::Bpf(Prog::End) => addr("fc00:1::b0"),
        Kind::Bpf(Prog::EndT) => addr("fc00:1::b1"),
        Kind::Bpf(Prog::TagInc) => addr("fc00:1::b2"),
        Kind::Bpf(Prog::AddTlv) => addr("fc00:1::b3"),
        Kind::Bpf(Prog::EndDm) => addr("fc00:1::bd"),
        Kind::BpfDrop => addr("fc00:1::bf"),
        Kind::StaticEnd | Kind::SidNoSrh | Kind::SegLeftZero | Kind::BadSrhLen => addr("fc00:1::e0"),
        Kind::StaticEndT => addr("fc00:1::e1"),
        Kind::StaticEndX => addr("fc00:1::e4"),
        Kind::Dt6Decap | Kind::Dt6NoInner => addr("fc00:1::d6"),
        other => panic!("{other:?} frames are not addressed to a SID"),
    }
}
/// The two hybrid-access paths the WRR scheduler alternates between
/// (`fc00:a::1`, `fc00:b::1`). A constant: the verifier looks them up for
/// every WRR packet inside the measured loop.
pub const WRR_SIDS: [Ipv6Addr; 2] =
    [Ipv6Addr::new(0xfc00, 0xa, 0, 0, 0, 0, 0, 1), Ipv6Addr::new(0xfc00, 0xb, 0, 0, 0, 0, 0, 1)];
const END_T_TABLE: u32 = 100;
const VRF: &str = "cust";

// --- frame generation ------------------------------------------------------

/// Per-frame flow identity: source address, ports and flow label all vary.
struct Flow {
    src: Ipv6Addr,
    sport: u16,
    dport: u16,
    label: u32,
    host: u16,
}

fn flow(rng: &mut Rng) -> Flow {
    let site = rng.below(0x1000) as u16;
    let host = 1 + rng.below(0xfffe) as u16;
    Flow {
        src: Ipv6Addr::new(0x2001, 0xdb8, 0x100 + site, 0, 0, 0, rng.below(0x1_0000) as u16, host),
        sport: 1024 + rng.below(60_000) as u16,
        dport: 5001 + rng.below(16) as u16,
        label: rng.below(1 << 20) as u32,
        host,
    }
}

fn payload(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.below(256) as u8).collect()
}

fn set_flow_label(frame: &mut [u8], label: u32) {
    frame[1] = (frame[1] & 0xf0) | ((label >> 16) & 0x0f) as u8;
    frame[2] = (label >> 8) as u8;
    frame[3] = label as u8;
}

fn finish(mut packet: Vec<u8>, label: u32) -> Vec<u8> {
    if packet.len() >= 4 {
        set_flow_label(&mut packet, label);
    }
    packet
}

fn srv6_frame(f: &Flow, sid: Ipv6Addr, next: Ipv6Addr, body: &[u8], hop_limit: u8) -> Vec<u8> {
    let srh = SegmentRoutingHeader::from_path(proto::UDP, &[sid, next]);
    finish(build_srv6_udp_packet(f.src, &srh, f.sport, f.dport, body, hop_limit).data().to_vec(), f.label)
}

fn plain_frame(f: &Flow, dst: Ipv6Addr, body: &[u8], hop_limit: u8) -> Vec<u8> {
    finish(build_ipv6_udp_packet(f.src, dst, f.sport, f.dport, body, hop_limit).data().to_vec(), f.label)
}

/// An inner IPv6/UDP packet encapsulated towards `sid` (what an ingress
/// `T.Encaps` emits and `End.DT6` undoes).
fn encapsulated_frame(f: &Flow, sid: Ipv6Addr, inner_dst: Ipv6Addr, body: &[u8]) -> Vec<u8> {
    let mut packet = build_ipv6_udp_packet(f.src, inner_dst, f.sport, f.dport, body, 64).data().to_vec();
    let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[sid]);
    srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addr("fc00:99::1")).expect("valid encap SRH");
    finish(packet, f.label)
}

fn customer(f: &Flow, net: u16) -> Ipv6Addr {
    Ipv6Addr::new(0x2001, 0xdb8, net, 0, 0, 0, 0, f.host)
}

/// Builds `End.DM` probes the way the paper does: by running the shipped
/// `owd_encap` LWT program (ratio 1) on an ingress router.
struct ProbeFactory {
    ingress: Seg6Datapath,
}

impl ProbeFactory {
    fn new() -> Self {
        let mut ingress = Seg6Datapath::new(addr("fc00:0::1"));
        ingress.add_route(prefix("::/0"), vec![Nexthop::direct(1)]);
        let encap = owd_encap_program(OwdEncapConfig {
            dm_sid: sid_of(Kind::Bpf(Prog::EndDm)),
            controller: addr("2001:db8:ffff::c0"),
            controller_port: 9999,
            ratio: 1,
        });
        let prog = load(encap, &HashMap::new(), &ingress.helpers).expect("owd_encap verifies");
        ingress.attach_lwt_bpf(prefix("2001:db8:2::/48"), LwtBpfAttachment { hook: LwtHook::Xmit, prog });
        ProbeFactory { ingress }
    }

    fn probe(&mut self, f: &Flow, body: &[u8]) -> Vec<u8> {
        let plain = build_ipv6_udp_packet(f.src, customer(f, 2), f.sport, f.dport, body, 64);
        let mut skb = Skb::new(plain);
        // A fixed clock: the TX timestamp in the DM TLV must not depend on
        // when the benchmark runs.
        assert!(self.ingress.process(&mut skb, 42_000).is_forward(), "owd_encap forwards its probe");
        finish(skb.packet.data().to_vec(), f.label)
    }
}

fn build_frame(kind: Kind, rng: &mut Rng, body_len: usize, probes: &mut ProbeFactory) -> Vec<u8> {
    let f = flow(rng);
    let body = payload(rng, body_len);
    match kind {
        Kind::Bpf(Prog::EndDm) => probes.probe(&f, &body),
        Kind::Bpf(_) | Kind::StaticEnd | Kind::StaticEndT | Kind::StaticEndX | Kind::BpfDrop => {
            srv6_frame(&f, sid_of(kind), next_segment(), &body, 64)
        }
        Kind::PlainForward => plain_frame(&f, customer(&f, 2), &body, 64),
        Kind::WrrEncap => plain_frame(&f, customer(&f, 0xa), &body, 64),
        Kind::TransitEncap => plain_frame(&f, customer(&f, 0xb), &body, 64),
        Kind::Dt6Decap => encapsulated_frame(&f, sid_of(kind), customer(&f, 2), &body),
        Kind::Truncated => {
            let mut frame = plain_frame(&f, customer(&f, 2), &body, 64);
            frame.truncate(8 + rng.below(32) as usize);
            frame
        }
        Kind::SidNoSrh => plain_frame(&f, sid_of(kind), &body, 64),
        Kind::SegLeftZero => {
            let mut frame = srv6_frame(&f, sid_of(kind), next_segment(), &body, 64);
            frame[40 + 3] = 0; // segments_left
            frame
        }
        Kind::Dt6NoInner => srv6_frame(&f, sid_of(kind), next_segment(), &body, 64),
        Kind::NoRoute => plain_frame(&f, Ipv6Addr::new(0x3001, 0, 0, 0, 0, 0, 0, f.host), &body, 64),
        Kind::HopLimitOne => plain_frame(&f, customer(&f, 2), &body, 1),
        Kind::BadSrhLen => {
            let mut frame = srv6_frame(&f, sid_of(kind), next_segment(), &body, 64);
            frame[40 + 3] = 6; // segments_left
            frame[40 + 4] = 7; // last_entry, though hdr_ext_len holds two segments
            frame
        }
    }
}

/// Splits `total` over `shares` (relative weights) by largest remainder,
/// so the counts are exact and sum to `total`.
fn apportion(total: usize, shares: &[(Kind, u32)]) -> Vec<(Kind, usize)> {
    let sum: u64 = shares.iter().map(|(_, s)| u64::from(*s)).sum();
    let mut counts: Vec<(Kind, usize, u64)> = shares
        .iter()
        .map(|(kind, share)| {
            let exact = total as u64 * u64::from(*share);
            (*kind, (exact / sum) as usize, exact % sum)
        })
        .collect();
    let mut missing = total - counts.iter().map(|(_, n, _)| n).sum::<usize>();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by(|a, b| counts[*b].2.cmp(&counts[*a].2).then(a.cmp(b)));
    for idx in order {
        if missing == 0 {
            break;
        }
        counts[idx].1 += 1;
        missing -= 1;
    }
    counts.into_iter().map(|(kind, n, _)| (kind, n)).collect()
}

/// Lays the kinds out in a fixed, evenly spread order (smooth weighted
/// round-robin): each kind recurs at its own regular interval. The order
/// does not depend on the seed — a seed varies the flows, not the shape of
/// the traffic — so how often consecutive packets share a destination (and
/// the datapath's per-batch classification cache hits) is the same in every
/// run.
fn interleave(counts: &[(Kind, usize)]) -> Vec<Kind> {
    let total: i64 = counts.iter().map(|(_, n)| *n as i64).sum();
    let mut credit = vec![0i64; counts.len()];
    (0..total)
        .map(|_| {
            for (slot, (_, n)) in credit.iter_mut().zip(counts) {
                *slot += *n as i64;
            }
            let pick =
                (0..counts.len()).max_by_key(|i| (credit[*i], std::cmp::Reverse(*i))).expect("non-empty mix");
            credit[pick] -= total;
            counts[pick].0
        })
        .collect()
}

fn static_mix() -> Vec<(Kind, u32)> {
    vec![(Kind::StaticEnd, 400), (Kind::StaticEndT, 200), (Kind::StaticEndX, 200), (Kind::PlainForward, 200)]
}

/// The traffic mix of a workload, as relative weights.
pub fn mix(name: &str) -> Vec<(Kind, u32)> {
    match name {
        "nf_mix_64" => vec![
            (Kind::Bpf(Prog::End), 300),
            (Kind::Bpf(Prog::EndT), 200),
            (Kind::Bpf(Prog::TagInc), 200),
            (Kind::Bpf(Prog::AddTlv), 200),
            (Kind::Bpf(Prog::EndDm), 100),
        ],
        "static_mix_64" => static_mix(),
        "encap_decap_1400" => {
            vec![(Kind::WrrEncap, 500), (Kind::TransitEncap, 250), (Kind::Dt6Decap, 250)]
        }
        "hostile_mix_64" => {
            let mut mix: Vec<(Kind, u32)> = static_mix().into_iter().map(|(k, s)| (k, s * 4)).collect();
            mix.extend(Kind::HOSTILE.iter().map(|k| (*k, 500)));
            mix
        }
        "srv6d_loopback_64" => {
            vec![
                (Kind::StaticEnd, 250),
                (Kind::StaticEndT, 250),
                (Kind::Dt6Decap, 250),
                (Kind::PlainForward, 250),
            ]
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Generates a workload's frames. Same `(name, seed)` ⇒ same frames.
pub fn generate(name: &str, seed: u64) -> Workload {
    let name = *NAMES.iter().find(|n| **n == name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let mut rng = Rng::new(seed ^ crate::reference::fnv1a(name.as_bytes()));
    let body_len = if name == "encap_decap_1400" { 1400 } else { 64 };
    let tenants = if name == "srv6d_loopback_64" { 2 } else { 1 };
    let mut probes = ProbeFactory::new();

    let kinds = interleave(&apportion(FRAMES, &mix(name)));

    let frames = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            if tenants == 1 {
                Frame { bytes: build_frame(kind, &mut rng, body_len, &mut probes), kind, tenant: 0 }
            } else {
                // Tenants alternate per socket window, so each owns half.
                let tenant = (i / SOCKET_WINDOW) % tenants;
                Frame { bytes: build_daemon_frame(kind, tenant, &mut rng, body_len), kind, tenant }
            }
        })
        .collect();
    Workload { name, seed, frames, tenants }
}

// --- pool workload datapaths ----------------------------------------------

/// A freshly built system under test (or reference): the datapath plus
/// handles to what the benchmark observes from outside.
pub struct Built {
    pub datapath: Seg6Datapath,
    /// Every program loaded, for tier pinning and the isolated VM stages.
    pub programs: Vec<(Prog, Arc<LoadedProgram>)>,
    /// The perf ring `End.DM` reports to, when the workload has one.
    pub perf: Option<Arc<PerfEventBuffer>>,
}

impl Built {
    /// The loaded instance of `prog`.
    pub fn program(&self, prog: Prog) -> &Arc<LoadedProgram> {
        &self.programs.iter().find(|(p, _)| *p == prog).expect("program loaded by this workload").1
    }
}

fn drop_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.ret(retcode::BPF_DROP as i32);
    Program::new("bench_drop", ProgramType::LwtSeg6Local, b.build().expect("static program"))
}

/// The bytecode and maps of `prog`, ready for [`load`]. Returned
/// separately from loading so the isolated `ebpf-vm.load_us` stage can time
/// exactly the `load` call.
pub fn program_source(prog: Prog) -> (Program, HashMap<u32, MapHandle>, Option<Arc<PerfEventBuffer>>) {
    let mut maps: HashMap<u32, MapHandle> = HashMap::new();
    let mut perf = None;
    let program = match prog {
        Prog::End => end_program(),
        Prog::EndT => end_t_program(END_T_TABLE),
        Prog::TagInc => tag_increment_program(),
        Prog::AddTlv => add_tlv_program(),
        Prog::EndDm => {
            let array = PerfEventArray::per_cpu(4096, 1);
            perf = array.perf_buffer();
            maps.insert(1, array);
            end_dm_program(1)
        }
        Prog::WrrEncap => {
            let [sid0, sid1] = WRR_SIDS;
            let (state, config) = wrr_maps(WRR_WEIGHTS.0, WRR_WEIGHTS.1, sid0, sid1);
            maps.insert(2, state);
            maps.insert(3, config);
            wrr_encap_program(2, 3)
        }
        Prog::Drop => drop_program(),
    };
    (program, maps, perf)
}

/// Builds the datapath of a pool workload. `tier` pins every program to
/// one execution tier (the reference path passes `Interp`); `None` leaves
/// the loader's default, which is what the system under test runs.
pub fn build_pool_datapath(workload: &Workload, tier: Option<ExecTier>) -> Built {
    assert!(!workload.is_daemon(), "the daemon workload builds its datapaths from config");
    let mut dp = Seg6Datapath::new(router_addr());
    dp.add_route(prefix("fc00::/16"), vec![Nexthop::via(addr("fe80::2"), 2)]);
    dp.add_route(prefix("2001:db8::/32"), vec![Nexthop::via(addr("fe80::3"), 3)]);
    dp.add_route(prefix("fe80::/10"), vec![Nexthop::direct(7)]);
    dp.add_route_in_table(END_T_TABLE, prefix("fc00::/16"), vec![Nexthop::via(addr("fe80::9"), 9)]);

    let mut built_programs = Vec::new();
    let mut perf = None;
    for prog in workload.programs() {
        let (program, maps, prog_perf) = program_source(prog);
        let loaded = load(program, &maps, &dp.helpers).expect("shipped program verifies");
        if let Some(tier) = tier {
            loaded.set_exec_tier(tier);
        }
        perf = perf.or(prog_perf);
        built_programs.push((prog, loaded));
    }
    let program =
        |prog: Prog| Arc::clone(&built_programs.iter().find(|(p, _)| *p == prog).expect("loaded above").1);

    let kinds: Vec<Kind> = mix(workload.name).into_iter().map(|(kind, _)| kind).collect();
    for kind in &kinds {
        match *kind {
            Kind::Bpf(_) | Kind::BpfDrop => {
                let prog = kind.prog().expect("these kinds run a program");
                dp.add_local_sid(
                    Ipv6Prefix::host(sid_of(*kind)),
                    Seg6LocalAction::EndBpf { prog: program(prog) },
                );
            }
            Kind::StaticEnd => dp.add_local_sid(Ipv6Prefix::host(sid_of(*kind)), Seg6LocalAction::End),
            Kind::StaticEndT => {
                dp.add_local_sid(
                    Ipv6Prefix::host(sid_of(*kind)),
                    Seg6LocalAction::EndT { table: END_T_TABLE },
                );
            }
            Kind::StaticEndX => dp.add_local_sid(
                Ipv6Prefix::host(sid_of(*kind)),
                Seg6LocalAction::EndX { nexthop: addr("fe80::42") },
            ),
            Kind::Dt6Decap | Kind::Dt6NoInner => {
                let vrf = dp.add_route_in_vrf(
                    VRF,
                    prefix("2001:db8::/32"),
                    vec![Nexthop::via(addr("fe80::b"), 11)],
                );
                dp.add_local_sid(Ipv6Prefix::host(sid_of(*kind)), Seg6LocalAction::end_dt6(vrf));
            }
            Kind::WrrEncap => {
                let [sid0, sid1] = WRR_SIDS;
                dp.add_route(Ipv6Prefix::host(sid0), vec![Nexthop::direct(2)]);
                dp.add_route(Ipv6Prefix::host(sid1), vec![Nexthop::direct(3)]);
                dp.attach_lwt_bpf(
                    prefix("2001:db8:a::/48"),
                    LwtBpfAttachment { hook: LwtHook::Xmit, prog: program(Prog::WrrEncap) },
                );
            }
            Kind::TransitEncap => dp.add_transit(
                prefix("2001:db8:b::/48"),
                TransitBehaviour::encap_through(&[addr("fc00:c::1"), addr("fc00:c::2")]),
            ),
            // Forwarding and the remaining hostile kinds need no binding of
            // their own: they use the routes and the `End` SID above.
            _ => {}
        }
    }
    Built { datapath: dp, programs: built_programs, perf }
}

// --- the daemon workload's two tenants -------------------------------------

/// Tenant names of `srv6d_loopback_64`.
pub const TENANT_NAMES: [&str; 2] = ["a", "b"];

fn tenant_net(tenant: usize) -> u16 {
    [0xa, 0xb][tenant]
}

fn tenant_addr(tenant: usize, tail: u16) -> Ipv6Addr {
    Ipv6Addr::new(0xfc00, tenant_net(tenant), 0, 0, 0, 0, 0, tail)
}

fn build_daemon_frame(kind: Kind, tenant: usize, rng: &mut Rng, body_len: usize) -> Vec<u8> {
    let f = flow(rng);
    let body = payload(rng, body_len);
    let next = tenant_addr(tenant, 0xd2);
    match kind {
        Kind::StaticEnd => srv6_frame(&f, tenant_addr(tenant, 0xe0), next, &body, 64),
        Kind::StaticEndT => srv6_frame(&f, tenant_addr(tenant, 0xe1), next, &body, 64),
        Kind::Dt6Decap => encapsulated_frame(&f, tenant_addr(tenant, 0xd6), customer(&f, 2), &body),
        Kind::PlainForward => plain_frame(&f, customer(&f, 2), &body, 64),
        other => panic!("{other:?} is not part of the daemon workload"),
    }
}

/// The daemon's config text: everything the grammar can attach to a tenant
/// (listen socket, peer, VRF, `end` / `end.t` / `end.dt6` SIDs, routes).
/// `ports[t]` is tenant `t`'s `(listen, peer)` port pair on `[::1]`.
pub fn daemon_config_text(ports: &[(u16, u16)]) -> String {
    let mut text = format!(
        "[daemon]\nworkers = 1\nbatch-size = 32\nqueue-depth = 2048\nrx-burst = {SOCKET_WINDOW}\n\
         io-backend = mmsg\n"
    );
    for (tenant, (listen, peer)) in ports.iter().enumerate() {
        let name = TENANT_NAMES[tenant];
        text.push_str(&format!(
            "\n[tenant {name}]\nlocal = {local}\nlisten = [::1]:{listen}\npeer = 1 [::1]:{peer}\nvrf = {VRF}\n\
             route = ::/0 dev 1\nroute = @{VRF} ::/0 via fe80::c dev 1\n\
             sid = {end} end\nsid = {end_t} end.t {VRF}\nsid = {dt6} end.dt6 {VRF}\n",
            local = tenant_addr(tenant, 1),
            end = tenant_addr(tenant, 0xe0),
            end_t = tenant_addr(tenant, 0xe1),
            dt6 = tenant_addr(tenant, 0xd6),
        ));
    }
    text
}

/// The hand-built equivalent of tenant `tenant`'s config section, for the
/// reference path and the isolated stages.
pub fn build_tenant_datapath(tenant: usize) -> Built {
    let mut dp = Seg6Datapath::new(tenant_addr(tenant, 1));
    let vrf = dp.register_vrf(VRF);
    dp.add_route(prefix("::/0"), vec![Nexthop::direct(1)]);
    dp.add_route_in_vrf(VRF, prefix("::/0"), vec![Nexthop::via(addr("fe80::c"), 1)]);
    dp.add_local_sid(Ipv6Prefix::host(tenant_addr(tenant, 0xe0)), Seg6LocalAction::End);
    dp.add_local_sid(Ipv6Prefix::host(tenant_addr(tenant, 0xe1)), Seg6LocalAction::end_t(vrf));
    dp.add_local_sid(Ipv6Prefix::host(tenant_addr(tenant, 0xd6)), Seg6LocalAction::end_dt6(vrf));
    Built { datapath: dp, programs: Vec::new(), perf: None }
}

/// Builds the datapath serving `tenant` of `workload`, whichever kind of
/// workload it is.
pub fn build_datapath(workload: &Workload, tenant: usize, tier: Option<ExecTier>) -> Built {
    if workload.is_daemon() {
        build_tenant_datapath(tenant)
    } else {
        build_pool_datapath(workload, tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::digest_frames;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for name in NAMES {
            let a = generate(name, 7);
            let b = generate(name, 7);
            let c = generate(name, 8);
            assert_eq!(a.frames.len(), FRAMES);
            assert_eq!(digest_frames(&a), digest_frames(&b), "{name}: same seed, same frames");
            assert_ne!(digest_frames(&a), digest_frames(&c), "{name}: another seed, other frames");
        }
    }

    #[test]
    fn mixes_are_exact() {
        let w = generate("nf_mix_64", 3);
        let count = |k: Kind| w.frames.iter().filter(|f| f.kind == k).count();
        // 30/20/20/20/10 % of 4096 by largest remainder.
        assert_eq!(count(Kind::Bpf(Prog::End)), 1229);
        assert_eq!(count(Kind::Bpf(Prog::EndT)), 819);
        assert_eq!(count(Kind::Bpf(Prog::TagInc)), 819);
        assert_eq!(count(Kind::Bpf(Prog::AddTlv)), 819);
        assert_eq!(count(Kind::Bpf(Prog::EndDm)), 410);

        let h = generate("hostile_mix_64", 3);
        let hostile = h.frames.iter().filter(|f| Kind::HOSTILE.contains(&f.kind)).count();
        assert_eq!(hostile, FRAMES / 2);
        for kind in Kind::HOSTILE {
            assert_eq!(h.frames.iter().filter(|f| f.kind == kind).count(), FRAMES / 16, "{kind:?}");
        }

        let d = generate("srv6d_loopback_64", 3);
        for tenant in 0..2 {
            assert_eq!(d.frames.iter().filter(|f| f.tenant == tenant).count(), FRAMES / 2);
        }
    }

    #[test]
    fn payload_sizes_are_as_named() {
        let small = generate("static_mix_64", 1);
        assert!(small.frames.iter().all(|f| f.bytes.len() <= 40 + 40 + 8 + 64));
        let large = generate("encap_decap_1400", 1);
        assert!(large.frames.iter().all(|f| f.bytes.len() >= 1448));
    }

    #[test]
    fn daemon_config_parses_and_lists_both_tenants() {
        let text = daemon_config_text(&[(40000, 40100), (40001, 40101)]);
        let config = srv6d::Config::parse(&text).expect("generated config is valid");
        assert_eq!(config.tenants.len(), 2);
        assert_eq!(config.daemon.rx_burst, SOCKET_WINDOW);
        assert_eq!(config.tenants[0].sids.len(), 3);
    }
}
