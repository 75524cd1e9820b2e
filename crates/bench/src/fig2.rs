//! Figure 2: forwarding rate of simple endpoint functions, normalised to
//! plain IPv6 forwarding, plus the §3.2 JIT/interpreter factor.
//!
//! The paper's setup 1 streams 64-byte-payload UDP packets with a
//! two-segment SRH through router R, which executes one endpoint function
//! per packet on a single core. Here the same single-router datapath is
//! driven in a tight loop and the per-packet cost is measured directly.

use netpkt::ipv6::proto;
use netpkt::packet::build_srv6_udp_packet;
use netpkt::srh::SegmentRoutingHeader;
use seg6_core::{Nexthop, Seg6Datapath, Seg6LocalAction, Skb, Verdict};
use srv6_nf::{add_tlv_program, end_program, end_t_program, tag_increment_program};
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// The endpoint-function variants of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig2Variant {
    /// Plain IPv6 forwarding (no seg6local action) — the 100 % reference.
    PlainForwarding,
    /// The static, in-kernel `End` behaviour.
    EndStatic,
    /// `End` written in BPF.
    EndBpf,
    /// The static `End.T` behaviour.
    EndTStatic,
    /// `End.T` written in BPF.
    EndTBpf,
    /// The `Tag++` BPF program.
    TagIncrementBpf,
    /// The `Add TLV` BPF program (JIT enabled).
    AddTlvBpf,
    /// The `Add TLV` BPF program with the JIT disabled (interpreter).
    AddTlvBpfNoJit,
}

impl Fig2Variant {
    /// Every variant, in the order Figure 2 presents them.
    pub fn all() -> [Fig2Variant; 8] {
        [
            Fig2Variant::PlainForwarding,
            Fig2Variant::EndStatic,
            Fig2Variant::EndBpf,
            Fig2Variant::EndTStatic,
            Fig2Variant::EndTBpf,
            Fig2Variant::TagIncrementBpf,
            Fig2Variant::AddTlvBpf,
            Fig2Variant::AddTlvBpfNoJit,
        ]
    }

    /// The label used in the paper's figure.
    pub fn label(&self) -> &'static str {
        match self {
            Fig2Variant::PlainForwarding => "IPv6 forwarding (reference)",
            Fig2Variant::EndStatic => "End static",
            Fig2Variant::EndBpf => "End BPF",
            Fig2Variant::EndTStatic => "End.T static",
            Fig2Variant::EndTBpf => "End.T BPF",
            Fig2Variant::TagIncrementBpf => "Tag++ BPF",
            Fig2Variant::AddTlvBpf => "Add TLV BPF",
            Fig2Variant::AddTlvBpfNoJit => "Add TLV no JIT",
        }
    }
}

/// A ready-to-run Figure 2 scenario: a router datapath with the right SID
/// installed and the template packet `trafgen` would send.
pub struct Fig2Scenario {
    /// The router under test.
    pub datapath: Seg6Datapath,
    /// The packet template (64-byte UDP payload, two-segment SRH, the first
    /// segment owned by the router).
    pub template: Vec<u8>,
    /// Which variant this scenario exercises.
    pub variant: Fig2Variant,
}

/// SID used by the endpoint variants.
pub fn endpoint_sid() -> Ipv6Addr {
    "fc00:1::e".parse().unwrap()
}

/// Builds the scenario for one Figure 2 variant.
pub fn build_scenario(variant: Fig2Variant) -> Fig2Scenario {
    let sid = endpoint_sid();
    let next_segment: Ipv6Addr = "fc00:2::d2".parse().unwrap();
    let mut dp = Seg6Datapath::new("fc00:1::1".parse().unwrap());
    // Routes: everything SRv6 goes out of interface 2; the End.T table 100
    // holds the same route so static and BPF End.T behave identically.
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via("fe80::2".parse().unwrap(), 2)]);
    dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via("fe80::3".parse().unwrap(), 3)]);
    dp.add_route_in_table(
        100,
        "fc00::/16".parse().unwrap(),
        vec![Nexthop::via("fe80::2".parse().unwrap(), 2)],
    );

    let action = match variant {
        Fig2Variant::PlainForwarding => None,
        Fig2Variant::EndStatic => Some(Seg6LocalAction::End),
        Fig2Variant::EndTStatic => Some(Seg6LocalAction::EndT { table: 100 }),
        Fig2Variant::EndBpf => Some(load_bpf(&dp, end_program(), ebpf_vm::ExecTier::best_supported())),
        Fig2Variant::EndTBpf => Some(load_bpf(&dp, end_t_program(100), ebpf_vm::ExecTier::best_supported())),
        Fig2Variant::TagIncrementBpf => {
            Some(load_bpf(&dp, tag_increment_program(), ebpf_vm::ExecTier::best_supported()))
        }
        Fig2Variant::AddTlvBpf => Some(load_bpf(&dp, add_tlv_program(), ebpf_vm::ExecTier::best_supported())),
        Fig2Variant::AddTlvBpfNoJit => Some(load_bpf(&dp, add_tlv_program(), ebpf_vm::ExecTier::Interp)),
    };
    if let Some(action) = action {
        dp.add_local_sid(netpkt::Ipv6Prefix::host(sid), action);
    }

    // The packet: for endpoint variants the first segment is the SID; for
    // the plain-forwarding reference the destination is simply routed.
    let path = match variant {
        Fig2Variant::PlainForwarding => vec!["fc00:2::99".parse().unwrap(), next_segment],
        _ => vec![sid, next_segment],
    };
    let srh = SegmentRoutingHeader::from_path(proto::UDP, &path);
    let template = build_srv6_udp_packet("2001:db8::1".parse().unwrap(), &srh, 1024, 5001, &[0u8; 64], 64)
        .data()
        .to_vec();
    Fig2Scenario { datapath: dp, template, variant }
}

fn load_bpf(dp: &Seg6Datapath, prog: ebpf_vm::Program, tier: ebpf_vm::ExecTier) -> Seg6LocalAction {
    let loaded =
        ebpf_vm::program::load(prog, &HashMap::new(), &dp.helpers).expect("figure-2 program must verify");
    loaded.set_exec_tier(tier);
    Seg6LocalAction::EndBpf { prog: loaded }
}

impl Fig2Scenario {
    /// Processes one packet built from the template; panics if the datapath
    /// does not forward it (a mis-configured benchmark would otherwise
    /// silently measure the drop path).
    pub fn forward_one(&mut self) {
        let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&self.template));
        let now = self.datapath.stats.received;
        match self.datapath.process(&mut skb, now) {
            Verdict::Forward { .. } => {}
            other => panic!("{:?}: packet was not forwarded: {other:?}", self.variant),
        }
    }

    /// Measures the forwarding rate in packets per second over `count`
    /// packets.
    pub fn measure_pps(&mut self, count: usize) -> f64 {
        crate::measure_rate(count, || self.forward_one()).0
    }
}

/// One row of the Figure 2 result table.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Variant measured.
    pub variant: Fig2Variant,
    /// Absolute forwarding rate measured on this host.
    pub pps: f64,
    /// Rate normalised to the plain-IPv6-forwarding reference.
    pub normalized: f64,
    /// The value the paper reports (fraction of the reference), for
    /// comparison in EXPERIMENTS.md.
    pub paper_normalized: f64,
}

/// The normalised values read off the paper's Figure 2 bars.
pub fn paper_reference(variant: Fig2Variant) -> f64 {
    match variant {
        Fig2Variant::PlainForwarding => 1.0,
        Fig2Variant::EndStatic => 0.78,
        Fig2Variant::EndBpf => 0.75,
        Fig2Variant::EndTStatic => 0.77,
        Fig2Variant::EndTBpf => 0.72,
        Fig2Variant::TagIncrementBpf => 0.72,
        Fig2Variant::AddTlvBpf => 0.70,
        Fig2Variant::AddTlvBpfNoJit => 0.39,
    }
}

/// Runs the whole Figure 2 experiment with `count` packets per variant.
pub fn run(count: usize) -> Vec<Fig2Row> {
    let baseline = build_scenario(Fig2Variant::PlainForwarding).measure_pps(count);
    Fig2Variant::all()
        .into_iter()
        .map(|variant| {
            let pps = if variant == Fig2Variant::PlainForwarding {
                baseline
            } else {
                build_scenario(variant).measure_pps(count)
            };
            Fig2Row { variant, pps, normalized: pps / baseline, paper_normalized: paper_reference(variant) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_forwards_packets() {
        for variant in Fig2Variant::all() {
            let mut scenario = build_scenario(variant);
            scenario.forward_one();
            scenario.forward_one();
            assert_eq!(scenario.datapath.stats.forwarded, 2, "{variant:?}");
        }
    }

    #[test]
    fn bpf_variants_invoke_programs() {
        let mut scenario = build_scenario(Fig2Variant::AddTlvBpf);
        scenario.forward_one();
        assert_eq!(scenario.datapath.stats.bpf_invocations, 1);
        let mut scenario = build_scenario(Fig2Variant::EndStatic);
        scenario.forward_one();
        assert_eq!(scenario.datapath.stats.bpf_invocations, 0);
        assert_eq!(scenario.datapath.stats.seg6local_invocations, 1);
    }

    #[test]
    fn run_produces_one_normalised_row_per_variant() {
        let rows = run(200);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows.iter().map(|r| r.variant).collect::<Vec<_>>(), Fig2Variant::all());
        // The reference is 1.0 by construction.
        assert_eq!(rows[0].variant, Fig2Variant::PlainForwarding);
        assert_eq!(rows[0].normalized, 1.0);
        for row in &rows {
            assert!(row.pps > 0.0, "{row:?}");
            assert_eq!(row.paper_normalized, paper_reference(row.variant));
        }
    }

    /// The wall-clock half: ratios and orderings between variants. Not part
    /// of `cargo test` — the bench-examples CI leg runs it in release mode
    /// (`cargo test --release -p bench -- --ignored`), next to the other
    /// ratio gates.
    #[test]
    #[ignore = "wall-clock ratios; run in release mode by the bench gate"]
    fn run_orders_variants_sanely() {
        crate::assert_eventually(5, || {
            let rows = run(2_000);
            let get = |v: Fig2Variant| rows.iter().find(|r| r.variant == v).unwrap().normalized;
            // BPF End cannot be faster than static End; no-JIT cannot be
            // faster than JIT (allow a small tolerance for measurement
            // noise; a scheduling hiccup retries the whole measurement).
            if get(Fig2Variant::EndBpf) > get(Fig2Variant::EndStatic) * 1.05 {
                return Err(format!("EndBpf outpaced EndStatic: {rows:?}"));
            }
            if get(Fig2Variant::AddTlvBpfNoJit) > get(Fig2Variant::AddTlvBpf) * 1.05 {
                return Err(format!("no-JIT outpaced JIT: {rows:?}"));
            }
            // Every normalised value is positive and below ~1.1.
            for row in &rows {
                if !(row.normalized > 0.0 && row.normalized < 1.2) {
                    return Err(format!("normalised rate out of range: {row:?}"));
                }
            }
            Ok(())
        });
    }

    /// The unrolled SRH + payload byte walk (one load plus two ALU ops per
    /// byte, packet pointer in `r8`, accumulators in `r0`/`r3`): a program
    /// whose cost is almost all execution, so the tier ratio shows.
    fn srh_walk_body(packet_len: usize) -> String {
        (40..packet_len - 8).map(|off| format!("ldxb r2, [r8+{off}]\nadd64 r0, r2\nxor64 r3, r0\n")).collect()
    }

    fn assemble(name: &str, source: &str) -> ebpf_vm::Program {
        let insns = ebpf_vm::asm::assemble(source).expect("gate program assembles");
        ebpf_vm::Program::new(name, ebpf_vm::ProgramType::LwtSeg6Local, insns)
    }

    /// `srh_walk`: the byte walk over a `packet_len`-byte packet, run
    /// alone; the context's `data` pointer in `r8`.
    fn srh_walk_program(packet_len: usize) -> ebpf_vm::Program {
        let walk = srh_walk_body(packet_len);
        let source =
            format!("mov64 r9, r1\nldxdw r8, [r9+0]\nmov64 r0, 0\nmov64 r3, 0\n{walk}xor64 r0, r3\nexit\n");
        assemble("srh_walk", &source)
    }

    /// `srh_walk`'s exact native facts on the Figure 2 packet: `(micro-ops,
    /// code bytes, spills, elided checks, inlined helper sites)`, as the
    /// shipped programs' are pinned in
    /// `srv6_nf::progs`. A change to the lowering, the emitter or the
    /// verifier's facts shows here as a diff of numbers; update the tuple
    /// only with the reason.
    #[test]
    fn srh_walk_compiles_to_its_pinned_native_facts() {
        if !ebpf_vm::codegen::supported() {
            return;
        }
        let template = build_scenario(Fig2Variant::EndStatic).template;
        let helpers = ebpf_vm::HelperRegistry::new();
        let loaded = ebpf_vm::program::load(srh_walk_program(template.len()), &HashMap::new(), &helpers)
            .expect("verifies");
        let micro_ops = ebpf_vm::jit::compile(&loaded).unwrap().len();
        let native = loaded.native().expect("native backend available");
        let debug = native.debug_info();
        let facts = (micro_ops, native.code_len(), debug.spills, debug.elided_checks, debug.inlined_helpers);
        assert_eq!(
            facts,
            (318, 15538, 0, 105, 0),
            "srh_walk: native facts moved (homes {:?})",
            debug.assignments
        );
    }

    /// The Figure 2 router with `prog` as its End.BPF action, run on `tier`.
    fn end_bpf_scenario(prog: ebpf_vm::Program, tier: ebpf_vm::ExecTier) -> Fig2Scenario {
        let mut scenario = build_scenario(Fig2Variant::EndStatic);
        let dp = &mut scenario.datapath;
        dp.add_route("fe80::/10".parse().unwrap(), vec![Nexthop::direct(7)]);
        let action = load_bpf(dp, prog, tier);
        dp.add_local_sid(netpkt::Ipv6Prefix::host(endpoint_sid()), action);
        scenario
    }

    /// The execution-tier ratio gates, native against the interpreter:
    /// ≥ 3× on `srh_walk` run alone through `run_program_with_state`;
    /// ≥ 1.15× on `end_scan`, the same walk as an End.BPF action through the
    /// datapath; and a 0.80× non-regression floor on the shipped `End`,
    /// `End.X` and `End.T` programs, a dozen instructions each, whose
    /// per-packet datapath work dominates both tiers.
    #[test]
    #[ignore = "wall-clock ratios; run in release mode by the bench gate"]
    fn native_tier_outpaces_the_interpreter() {
        use ebpf_vm::vm::{run_program_with_state, NullEnv, RunContext, RunState, PKT_BASE};
        use ebpf_vm::ExecTier;

        if ExecTier::best_supported() != ExecTier::Native {
            println!("no native backend on this host: native runs as the interpreter, tier gates skipped");
            return;
        }
        let template = build_scenario(Fig2Variant::EndStatic).template;
        let walk = srh_walk_body(template.len());
        let helpers = ebpf_vm::HelperRegistry::new();
        let srh_walk = ebpf_vm::program::load(srh_walk_program(template.len()), &HashMap::new(), &helpers)
            .expect("verifies");
        let mut ctx = vec![0u8; 64];
        ctx[0..8].copy_from_slice(&PKT_BASE.to_le_bytes());
        ctx[8..16].copy_from_slice(&(PKT_BASE + template.len() as u64).to_le_bytes());
        let walk_ns = |tier: ExecTier| {
            let (mut ctx, mut packet, mut state) = (ctx.clone(), template.clone(), RunState::new(ctx.len()));
            let mut env = NullEnv;
            crate::measure_rate(2_000, || {
                let mut rc = RunContext::new(&mut ctx, &mut packet, &mut env);
                run_program_with_state(&srh_walk, &helpers, &mut rc, tier, &mut state)
                    .expect("srh_walk runs");
            })
            .1
        };

        // `end_scan` guards the walk with the context `len` field and
        // returns `BPF_OK`.
        let end_scan = format!(
            "mov64 r9, r1\nldxdw r8, [r9+0]\nldxw r7, [r9+16]\nmov64 r0, 0\nmov64 r3, 0\n\
             jlt r7, {}, short\n{walk}short:\nmov64 r0, 0\nexit\n",
            template.len()
        );
        let datapath_rows = [
            ("end_scan", assemble("end_scan", &end_scan), 2_000, 1.15),
            ("end", end_program(), 20_000, 0.80),
            ("end_x", srv6_nf::end_x_program("fe80::42".parse().unwrap()), 20_000, 0.80),
            ("end_t", end_t_program(100), 20_000, 0.80),
        ];
        let datapath_ns = |prog: &ebpf_vm::Program, count: usize, tier: ExecTier| {
            let mut scenario = end_bpf_scenario(prog.clone(), tier);
            crate::measure_rate(count, || scenario.forward_one()).1
        };

        crate::assert_eventually(5, || {
            let ratio = walk_ns(ExecTier::Interp) / walk_ns(ExecTier::Native);
            println!("srh_walk: native {ratio:.2}x interpreter (minimum 3x)");
            if ratio < 3.0 {
                return Err(format!("srh_walk: native only {ratio:.2}x the interpreter"));
            }
            for (name, prog, count, min) in &datapath_rows {
                let ratio =
                    datapath_ns(prog, *count, ExecTier::Interp) / datapath_ns(prog, *count, ExecTier::Native);
                println!("{name}: native {ratio:.2}x interpreter (minimum {min}x)");
                if ratio < *min {
                    return Err(format!("{name}: native only {ratio:.2}x the interpreter (minimum {min}x)"));
                }
            }
            Ok(())
        });
    }
}
