//! The `seg6local` lightweight tunnel: SRv6 endpoint behaviours bound to
//! local SIDs, including the paper's contribution — the `End.BPF` action.
//!
//! A router advertises segments (IPv6 addresses) and installs, for each of
//! them, the behaviour to execute when a packet's current segment matches:
//! the static behaviours (`End`, `End.X`, `End.T`, `End.DX6`, `End.DT6`,
//! `End.B6`, `End.B6.Encaps`) are re-implemented here from their SRv6
//! network-programming definitions, and `End.BPF` advances the SRH and then
//! hands the packet to an eBPF program exactly as §3 of the paper
//! describes. [`run_bpf`] is that sequence — and, without the advance, the
//! sequence of the BPF LWT hooks ([`crate::lwt_bpf`]): every program the
//! datapath runs goes through it. `End.BPF` runs `lwt_seg6local` programs
//! only, the type the three SRH helpers and `bpf_lwt_seg6_action` are
//! gated to; [`crate::Seg6Datapath::add_local_sid`] refuses any other.

use crate::ctx;
use crate::env::Seg6Env;
use crate::fib::{EcmpKey, RouterTables, TableId};
use crate::scratch::RunScratch;
use crate::skb::{RouteOverride, Skb, SkbPacket};
use crate::srv6_ops::{self, SRH_OFFSET};
use crate::table::PrefixTable;
use crate::verdict::{ActionOutcome, DropReason};
use ebpf_vm::helpers::HelperRegistry;
use ebpf_vm::program::{retcode, LoadedProgram};
use ebpf_vm::vm::RunContext;
use netpkt::ipv6::IPV6_HEADER_LEN;
use netpkt::srh::SegmentRoutingHeader;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// A seg6local behaviour bound to a SID.
#[derive(Debug, Clone)]
pub enum Seg6LocalAction {
    /// `End`: advance to the next segment and forward.
    End,
    /// `End.X`: advance and forward to a specific layer-3 next hop.
    EndX {
        /// The next hop to forward to.
        nexthop: Ipv6Addr,
    },
    /// `End.T`: advance and look the next segment up in a specific table
    /// (a numeric id or a VRF registered with
    /// [`RouterTables::register_vrf`]).
    EndT {
        /// Routing table id.
        table: TableId,
    },
    /// `End.DX6`: decapsulate and forward the inner packet to a next hop.
    EndDX6 {
        /// The next hop to forward the inner packet to.
        nexthop: Ipv6Addr,
    },
    /// `End.DT6`: decapsulate and look the inner destination up in a table
    /// (a numeric id or a VRF registered with
    /// [`RouterTables::register_vrf`]).
    EndDT6 {
        /// Routing table id.
        table: TableId,
    },
    /// `End.B6`: insert a new SRH on top of the existing one; build it
    /// with [`Seg6LocalAction::end_b6`].
    EndB6 {
        /// The SRH to insert, in wire format — serialised once, when the
        /// behaviour is bound, as the kernel keeps it.
        srh: Vec<u8>,
    },
    /// `End.B6.Encaps`: encapsulate in an outer IPv6 header with a new
    /// SRH; build it with [`Seg6LocalAction::end_b6_encaps`].
    EndB6Encaps {
        /// The SRH of the outer encapsulation, in wire format.
        srh: Vec<u8>,
    },
    /// `End.BPF`: advance to the next segment, then run the attached eBPF
    /// program (the paper's new action). The execution tier comes from the
    /// program itself ([`LoadedProgram::exec_tier`], native where the host
    /// supports it); use [`LoadedProgram::set_exec_tier`] to pin one.
    EndBpf {
        /// The verified program to execute.
        prog: Arc<LoadedProgram>,
    },
}

impl Seg6LocalAction {
    /// An `End.T` behaviour forwarding via `table` — pass the id returned
    /// by [`RouterTables::register_vrf`] to route through a named VRF.
    pub fn end_t(table: TableId) -> Self {
        Seg6LocalAction::EndT { table }
    }

    /// An `End.DT6` behaviour decapsulating and looking the inner
    /// destination up in `table` (numeric or VRF-registered).
    pub fn end_dt6(table: TableId) -> Self {
        Seg6LocalAction::EndDT6 { table }
    }

    /// An `End.B6` behaviour inserting `srh` (segments in wire order).
    pub fn end_b6(srh: &SegmentRoutingHeader) -> Self {
        Seg6LocalAction::EndB6 { srh: srh.to_bytes() }
    }

    /// An `End.B6.Encaps` behaviour encapsulating with `srh`.
    pub fn end_b6_encaps(srh: &SegmentRoutingHeader) -> Self {
        Seg6LocalAction::EndB6Encaps { srh: srh.to_bytes() }
    }

    /// Short name, as `ip -6 route` would print it.
    pub fn name(&self) -> &'static str {
        match self {
            Seg6LocalAction::End => "End",
            Seg6LocalAction::EndX { .. } => "End.X",
            Seg6LocalAction::EndT { .. } => "End.T",
            Seg6LocalAction::EndDX6 { .. } => "End.DX6",
            Seg6LocalAction::EndDT6 { .. } => "End.DT6",
            Seg6LocalAction::EndB6 { .. } => "End.B6",
            Seg6LocalAction::EndB6Encaps { .. } => "End.B6.Encaps",
            Seg6LocalAction::EndBpf { .. } => "End.BPF",
        }
    }
}

/// The "My SID" table: local SIDs and their behaviours (longest prefix
/// wins on lookup; SIDs are usually /128).
pub type LocalSidTable = PrefixTable<Seg6LocalAction>;

/// Everything an action or a BPF hook needs from the router it runs on.
pub struct ActionCtx<'a> {
    /// The SID that matched — or, at the LWT hooks, the router's own
    /// address. Used as the source of pushed encapsulations.
    pub local_sid: Ipv6Addr,
    /// The router's FIB tables.
    pub tables: &'a Arc<RouterTables>,
    /// Helper registry used to run End.BPF programs.
    pub helpers: &'a HelperRegistry,
    /// Current time in nanoseconds.
    pub now_ns: u64,
    /// Logical CPU (worker shard) executing the action; End.BPF programs
    /// see it as their processor id and per-CPU map slot.
    pub cpu: u32,
    /// The packet's flow, from the header the datapath parsed on arrival;
    /// a program's helpers hash it if their FIB lookups need to.
    pub flow: EcmpKey,
}

/// Applies a seg6local action to `skb`, in place. `scratch` supplies
/// `End.BPF`'s reusable VM state, context buffer and saved head; no
/// per-packet allocation happens here once the buffers are warm.
pub fn apply_action(
    action: &Seg6LocalAction,
    skb: &mut Skb,
    actx: &ActionCtx<'_>,
    scratch: &mut RunScratch,
) -> ActionOutcome {
    match action {
        Seg6LocalAction::End => {
            with_advance(skb, |dst| ActionOutcome::Forward { dst, route_override: RouteOverride::default() })
        }
        Seg6LocalAction::EndX { nexthop } => with_advance(skb, |dst| ActionOutcome::Forward {
            dst,
            route_override: RouteOverride { nexthop: Some(*nexthop), ..Default::default() },
        }),
        Seg6LocalAction::EndT { table } => with_advance(skb, |dst| ActionOutcome::Forward {
            dst,
            route_override: RouteOverride { table: Some(*table), ..Default::default() },
        }),
        Seg6LocalAction::EndDX6 { nexthop } => match srv6_ops::decap_outer(&mut SkbPacket(&mut skb.packet)) {
            Ok(inner_dst) => ActionOutcome::Forward {
                dst: inner_dst,
                route_override: RouteOverride { nexthop: Some(*nexthop), ..Default::default() },
            },
            Err(_) => ActionOutcome::Drop(DropReason::DecapFailed),
        },
        Seg6LocalAction::EndDT6 { table } => match srv6_ops::decap_outer(&mut SkbPacket(&mut skb.packet)) {
            Ok(inner_dst) => ActionOutcome::Forward {
                dst: inner_dst,
                route_override: RouteOverride { table: Some(*table), ..Default::default() },
            },
            Err(_) => ActionOutcome::Drop(DropReason::DecapFailed),
        },
        Seg6LocalAction::EndB6 { srh } => {
            forward_to(srv6_ops::insert_srh_inline(&mut SkbPacket(&mut skb.packet), srh))
        }
        Seg6LocalAction::EndB6Encaps { srh } => {
            forward_to(srv6_ops::push_srh_encap(&mut SkbPacket(&mut skb.packet), srh, actx.local_sid))
        }
        Seg6LocalAction::EndBpf { prog } => run_bpf(prog, true, skb, actx, scratch),
    }
}

/// The outcome of `End.B6` / `End.B6.Encaps`: forward towards the pushed
/// SRH's first segment, or drop a packet that could not take it.
fn forward_to(pushed: srv6_ops::OpResult<Ipv6Addr>) -> ActionOutcome {
    match pushed {
        Ok(dst) => ActionOutcome::Forward { dst, route_override: RouteOverride::default() },
        Err(_) => ActionOutcome::Drop(DropReason::Malformed),
    }
}

/// Shared "endpoint" precondition handling: the packet must carry an SRH
/// that [`netpkt::SrhView::parse`] accepts, with `segments_left > 0`; the
/// SRH is advanced **in place** (it never changes size) and `then` builds
/// the outcome from the new destination. A packet that fails is dropped
/// unwritten.
fn with_advance(skb: &mut Skb, then: impl FnOnce(Ipv6Addr) -> ActionOutcome) -> ActionOutcome {
    match srv6_ops::advance_srh(skb.packet.data_mut()) {
        Ok(dst) => then(dst),
        Err(reason) => ActionOutcome::Drop(reason),
    }
}

/// Runs `prog` on `skb` at one of the datapath's BPF hooks — the one
/// sequence §3 of the paper describes: run the program on the packet, then
/// honour its return code (`BPF_OK` / `BPF_DROP` / `BPF_REDIRECT`).
/// `end_bpf` selects what the `End.BPF` action adds to the plain LWT hooks
/// (`lwt_in` / `lwt_xmit`, §2.1): the endpoint precondition and SRH advance
/// before the program — so its SRH offset is always set — and the SRH
/// re-validation after it, if a helper edited the SRH. At the LWT hooks the
/// SRH offset is never set: the datapath attaches only `lwt_in` / `lwt_xmit`
/// programs there, and no helper those types may call reads it, as in the
/// kernel, where only `End.BPF` fills `seg6_bpf_srh_state`.
///
/// The program runs on the skb itself: helpers edit its buffer in place
/// through [`SkbPacket`], as the kernel's do. Before the first write — the
/// SRH advance, or a helper's — the packet's head is saved in the scratch,
/// and a fault or a failed SRH re-validation puts it back, which leaves
/// the packet exactly as it arrived. A helper's edit otherwise stands,
/// whatever the helper returned (an End.DT6 whose inner lookup misses has
/// already decapsulated). The environment is the scratch's too, re-armed
/// per packet with what the caller and the SRH advance already know; no
/// allocation once the scratch is warm.
pub fn run_bpf(
    prog: &LoadedProgram,
    end_bpf: bool,
    skb: &mut Skb,
    actx: &ActionCtx<'_>,
    scratch: &mut RunScratch,
) -> ActionOutcome {
    let RunScratch { state, ctx: context, head, env } = scratch;
    let env = match env {
        Some(env) if Arc::ptr_eq(env.tables(), actx.tables) => env,
        _ => env.insert(Seg6Env::new(actx.local_sid, Arc::clone(actx.tables), actx.now_ns)),
    };
    head.save(skb.packet.data());
    let ran = (|| {
        if end_bpf {
            srv6_ops::advance_srh_in_place(skb.packet.data_mut())?;
            env.rearm(actx.local_sid, actx.now_ns, actx.cpu, Some(SRH_OFFSET), &actx.flow);
            // Helpers look routes up for the flow as the program sees it:
            // the advance has moved the destination on, and it is copied
            // from the header it was just written to.
            env.flow.dst = srv6_ops::header_dst(skb.packet.data());
        } else {
            env.rearm(actx.local_sid, actx.now_ns, actx.cpu, None, &actx.flow);
        }
        ctx::write_context(skb, context);
        let code = {
            let packet = &mut SkbPacket(&mut skb.packet);
            let mut rc = RunContext::new(context, packet, &mut *env);
            ebpf_vm::vm::run_program_with_state(prog, actx.helpers, &mut rc, prog.exec_tier(), state)
                .map_err(|_| DropReason::BpfError)?
        };
        // Post-program SRH validation, as the kernel performs it.
        if end_bpf
            && env.out.revalidate_srh
            && !env.out.decapped
            && srv6_ops::validate_after_bpf(skb.packet.data()).is_err()
        {
            return Err(DropReason::SrhValidationFailed);
        }
        if skb.packet.len() < IPV6_HEADER_LEN {
            return Err(DropReason::Malformed);
        }
        Ok(code)
    })();
    let code = match ran {
        Ok(code) => code,
        Err(reason) => {
            head.restore(&mut skb.packet);
            return ActionOutcome::Drop(reason);
        }
    };
    ctx::read_back(context, skb);
    // The destination goes from the header straight into the outcome.
    let dst = || srv6_ops::header_dst(skb.packet.data());
    match code {
        retcode::BPF_OK => ActionOutcome::Forward { dst: dst(), route_override: RouteOverride::default() },
        retcode::BPF_REDIRECT => {
            ActionOutcome::Forward { dst: dst(), route_override: env.out.route_override }
        }
        retcode::BPF_DROP => ActionOutcome::Drop(DropReason::BpfDrop),
        _ => ActionOutcome::Drop(DropReason::BpfError),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::MAIN_TABLE;
    use crate::helpers::seg6_helper_registry;
    use ebpf_vm::asm::assemble;
    use ebpf_vm::program::{load, Program, ProgramType};
    use netpkt::ipv6::proto;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use std::collections::HashMap;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn srv6_skb(path: &[&str]) -> Skb {
        let segments: Vec<Ipv6Addr> = path.iter().map(|s| addr(s)).collect();
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &segments);
        Skb::new(build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64))
    }

    fn encapsulated_skb() -> Skb {
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 5, 6, &[0u8; 8], 64)
            .data()
            .to_vec();
        let mut packet = inner;
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::11")]);
        srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addr("fc00::99")).unwrap();
        Skb::new(netpkt::PacketBuf::from_slice(&packet))
    }

    fn actx<'a>(tables: &'a Arc<RouterTables>, helpers: &'a HelperRegistry) -> ActionCtx<'a> {
        let flow = EcmpKey::default();
        ActionCtx { local_sid: addr("fc00::11"), tables, helpers, now_ns: 1_000, cpu: 0, flow }
    }

    fn load_seg6_prog(source: &str, helpers: &HelperRegistry) -> Arc<LoadedProgram> {
        let insns = assemble(source).unwrap();
        let prog = Program::new("test", ProgramType::LwtSeg6Local, insns);
        load(prog, &HashMap::new(), helpers).unwrap()
    }

    #[test]
    fn local_sid_table_longest_prefix_lookup() {
        let mut table = LocalSidTable::new();
        table.insert("fc00::/64".parse().unwrap(), Seg6LocalAction::End);
        table.insert("fc00::1".parse().unwrap(), Seg6LocalAction::EndT { table: 7 });
        assert_eq!(table.len(), 2);
        let (_, action) = table.lookup(addr("fc00::1")).unwrap();
        assert_eq!(action.name(), "End.T");
        let (_, action) = table.lookup(addr("fc00::2")).unwrap();
        assert_eq!(action.name(), "End");
        assert!(table.lookup(addr("2001::1")).is_none());
        assert!(table.remove(&"fc00::1".parse().unwrap()));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn end_advances_and_requests_default_lookup() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let outcome =
            apply_action(&Seg6LocalAction::End, &mut skb, &actx(&tables, &helpers), &mut RunScratch::new());
        match outcome {
            ActionOutcome::Forward { dst, route_override } => {
                assert_eq!(dst, addr("fc00::22"));
                assert!(!route_override.is_set());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        // The packet's destination was rewritten.
        assert_eq!(srv6_ops::outer_dst(skb.packet.data()).unwrap(), addr("fc00::22"));
    }

    #[test]
    fn end_requires_srh_and_remaining_segments() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut plain = Skb::new(build_ipv6_udp_packet(addr("::1"), addr("::2"), 1, 2, &[0; 8], 64));
        assert_eq!(
            apply_action(&Seg6LocalAction::End, &mut plain, &actx(&tables, &helpers), &mut RunScratch::new()),
            ActionOutcome::Drop(DropReason::NoSrh)
        );
        let mut last = srv6_skb(&["fc00::11"]);
        assert_eq!(
            apply_action(&Seg6LocalAction::End, &mut last, &actx(&tables, &helpers), &mut RunScratch::new()),
            ActionOutcome::Drop(DropReason::SegmentsLeftZero)
        );
    }

    #[test]
    fn end_x_and_end_t_install_overrides() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let outcome = apply_action(
            &Seg6LocalAction::EndX { nexthop: addr("fe80::1") },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { route_override, .. } => {
                assert_eq!(route_override.nexthop, Some(addr("fe80::1")))
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let outcome = apply_action(
            &Seg6LocalAction::EndT { table: 9 },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { route_override, .. } => assert_eq!(route_override.table, Some(9)),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn end_dt6_decapsulates() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut skb = encapsulated_skb();
        let before = skb.len();
        let outcome = apply_action(
            &Seg6LocalAction::EndDT6 { table: MAIN_TABLE },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { dst, route_override } => {
                assert_eq!(dst, addr("2001:db8::2"));
                assert_eq!(route_override.table, Some(MAIN_TABLE));
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(skb.len() < before);
        // Decapsulating a non-encapsulated packet fails.
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        assert_eq!(
            apply_action(
                &Seg6LocalAction::EndDT6 { table: MAIN_TABLE },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new()
            ),
            ActionOutcome::Drop(DropReason::DecapFailed)
        );
    }

    #[test]
    fn end_b6_encaps_wraps_the_packet() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let before = skb.len();
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fd00::1"), addr("fd00::2")]);
        let outcome = apply_action(
            &Seg6LocalAction::end_b6_encaps(&srh),
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { dst, .. } => assert_eq!(dst, addr("fd00::1")),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(skb.len(), before + 40 + srh.wire_len());
    }

    #[test]
    fn end_bpf_ok_performs_default_forwarding() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        // The simplest possible program: return BPF_OK (the paper's "End"
        // written in BPF, 1 SLOC).
        let prog = load_seg6_prog("mov64 r0, 0\nexit", &helpers);
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        let outcome = apply_action(
            &Seg6LocalAction::EndBpf { prog },
            &mut skb,
            &actx(&tables, &helpers),
            &mut RunScratch::new(),
        );
        match outcome {
            ActionOutcome::Forward { dst, route_override } => {
                assert_eq!(dst, addr("fc00::22"));
                assert!(!route_override.is_set());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn end_bpf_drop_is_honoured() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 2\nexit", &helpers);
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        assert_eq!(
            apply_action(
                &Seg6LocalAction::EndBpf { prog },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new(),
            ),
            ActionOutcome::Drop(DropReason::BpfDrop)
        );
    }

    #[test]
    fn end_bpf_requires_remaining_segments() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 0\nexit", &helpers);
        let mut skb = srv6_skb(&["fc00::11"]);
        assert_eq!(
            apply_action(
                &Seg6LocalAction::EndBpf { prog },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new(),
            ),
            ActionOutcome::Drop(DropReason::SegmentsLeftZero)
        );
    }

    #[test]
    fn end_bpf_unknown_return_code_drops() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 99\nexit", &helpers);
        let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
        assert_eq!(
            apply_action(
                &Seg6LocalAction::EndBpf { prog },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new(),
            ),
            ActionOutcome::Drop(DropReason::BpfError)
        );
    }

    #[test]
    fn end_bpf_all_exec_tiers_agree() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 0\nexit", &helpers);
        for tier in ebpf_vm::ExecTier::ALL {
            prog.set_exec_tier(tier);
            let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
            let outcome = apply_action(
                &Seg6LocalAction::EndBpf { prog: prog.clone() },
                &mut skb,
                &actx(&tables, &helpers),
                &mut RunScratch::new(),
            );
            assert!(matches!(outcome, ActionOutcome::Forward { .. }), "tier {}", tier.name());
        }
    }

    /// As in the kernel, whose endpoints act only on an SRH
    /// `seg6_validate_srh` accepts: every advancing endpoint drops a routing
    /// header of another type (RFC 5095's type 0, Mobile IPv6's type 2) as
    /// `NoSrh`, and an SRH whose TLV area does not parse as `Malformed`,
    /// before writing a byte.
    #[test]
    fn endpoints_act_only_on_an_srh_srh_view_accepts() {
        let tables = Arc::new(RouterTables::new());
        let helpers = seg6_helper_registry();
        let prog = load_seg6_prog("mov64 r0, 0\nexit", &helpers);
        let actions = [
            Seg6LocalAction::End,
            Seg6LocalAction::EndX { nexthop: addr("fe80::1") },
            Seg6LocalAction::EndT { table: 9 },
            Seg6LocalAction::EndBpf { prog },
        ];
        let mut srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::11"), addr("fc00::22")]);
        srh.tlvs.push(netpkt::SrhTlv::DelayMeasurement { tx_timestamp_ns: 7 });
        let with_tlv = build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64);
        let mut cases = Vec::new();
        for routing_type in [0, 2] {
            let mut skb = srv6_skb(&["fc00::11", "fc00::22"]);
            skb.packet.data_mut()[SRH_OFFSET + 2] = routing_type;
            cases.push((skb, DropReason::NoSrh));
        }
        let mut bad_tlv = Skb::new(with_tlv);
        bad_tlv.packet.data_mut()[SRH_OFFSET + srh.tlv_offset() + 1] = 7; // the DM value is 8 bytes
        cases.push((bad_tlv, DropReason::Malformed));
        for (mut skb, reason) in cases {
            let before = skb.packet.data().to_vec();
            for action in &actions {
                let outcome =
                    apply_action(action, &mut skb, &actx(&tables, &helpers), &mut RunScratch::new());
                assert_eq!(outcome, ActionOutcome::Drop(reason), "{}", action.name());
                assert_eq!(skb.packet.data(), before, "{} wrote to a packet it dropped", action.name());
            }
        }
    }

    #[test]
    fn action_names() {
        assert_eq!(Seg6LocalAction::End.name(), "End");
        assert_eq!(Seg6LocalAction::EndDT6 { table: 1 }.name(), "End.DT6");
    }
}
