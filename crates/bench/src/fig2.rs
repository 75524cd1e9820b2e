//! Figure 2: the cost of simple endpoint functions over their static
//! counterparts, plus the §3.2 JIT/interpreter factor.
//!
//! The paper's setup 1 streams 64-byte-payload UDP packets with a
//! two-segment SRH through router R, which executes one endpoint function
//! per packet on a single core. Here the same single-router datapath is fed
//! that template, and [`crate::fidelity`] times it.

use crate::fidelity::{Row, Scenario, Side};
use ebpf_vm::ExecTier;
use netpkt::ipv6::proto;
use netpkt::packet::build_srv6_udp_packet;
use netpkt::srh::SegmentRoutingHeader;
use seg6_core::{Nexthop, Seg6Datapath, Seg6LocalAction};
use srv6_nf::{add_tlv_program, end_program, end_t_program, tag_increment_program};
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// SID used by the endpoint variants.
pub fn endpoint_sid() -> Ipv6Addr {
    "fc00:1::e".parse().unwrap()
}

/// The packet `trafgen` sends: a 64-byte UDP payload behind a two-segment
/// SRH whose first segment is the router's [`endpoint_sid`].
fn template() -> Vec<u8> {
    let path = [endpoint_sid(), "fc00:2::d2".parse().unwrap()];
    let srh = SegmentRoutingHeader::from_path(proto::UDP, &path);
    build_srv6_udp_packet("2001:db8::1".parse().unwrap(), &srh, 1024, 5001, &[0u8; 64], 64).data().to_vec()
}

/// The Figure 2 router with `action(&datapath)` installed at
/// [`endpoint_sid`], fed the packet `trafgen` sends.
pub fn scenario(action: impl FnOnce(&Seg6Datapath) -> Seg6LocalAction) -> Scenario {
    let mut dp = Seg6Datapath::new("fc00:1::1".parse().unwrap());
    // Routes: everything SRv6 goes out of interface 2; the End.T table 100
    // holds the same route so static and BPF End.T behave identically.
    let via = |addr: &str, oif| vec![Nexthop::via(addr.parse().unwrap(), oif)];
    dp.add_route("fc00::/16".parse().unwrap(), via("fe80::2", 2));
    dp.add_route("2001:db8::/32".parse().unwrap(), via("fe80::3", 3));
    dp.add_route_in_table(100, "fc00::/16".parse().unwrap(), via("fe80::2", 2));
    let action = action(&dp);
    dp.add_local_sid(netpkt::Ipv6Prefix::host(endpoint_sid()), action);
    Scenario::new(dp, template())
}

/// [`scenario`] with `End.BPF` running `prog` on `tier`.
pub fn end_bpf(prog: ebpf_vm::Program, tier: ExecTier) -> Scenario {
    scenario(|dp| {
        let loaded =
            ebpf_vm::program::load(prog, &HashMap::new(), &dp.helpers).expect("figure-2 program must verify");
        loaded.set_exec_tier(tier);
        Seg6LocalAction::EndBpf { prog: loaded }
    })
}

/// Static `End`: its label, its bar in the paper and its scenario here.
fn end_static() -> Side {
    ("End static", 0.78, scenario(|_| Seg6LocalAction::End))
}

/// `Add TLV` compiled (`jit`) or on the interpreter.
fn add_tlv(jit: bool) -> Side {
    if jit {
        ("Add TLV BPF", 0.70, end_bpf(add_tlv_program(), ExecTier::best_supported()))
    } else {
        ("Add TLV no JIT", 0.39, end_bpf(add_tlv_program(), ExecTier::Interp))
    }
}

/// Figure 2's rows: each BPF endpoint function over its static
/// counterpart.
pub fn rows() -> Vec<Row> {
    let best = ExecTier::best_supported();
    let end_t_static = ("End.T static", 0.77, scenario(|_| Seg6LocalAction::EndT { table: 100 }));
    vec![
        Row::new(("End BPF", 0.75, end_bpf(end_program(), best)), end_static()),
        Row::new(("End.T BPF", 0.72, end_bpf(end_t_program(100), best)), end_t_static),
        Row::new(("Tag++ BPF", 0.72, end_bpf(tag_increment_program(), best)), end_static()),
        Row::new(add_tlv(true), end_static()),
        Row::new(add_tlv(false), end_static()),
    ]
}

/// The §3.2 JIT row: `Add TLV` on the interpreter over `Add TLV` compiled.
pub fn jit_row() -> Row {
    Row::new(add_tlv(false), add_tlv(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::{added_ns, BATCH};
    use crate::fig3;

    #[test]
    fn every_variant_forwards_packets() {
        for mut row in rows().into_iter().chain(fig3::rows()) {
            for scenario in [&mut row.variant, &mut row.counterpart] {
                scenario.run_batches(2);
                let forwarded = scenario.datapath.stats.forwarded;
                assert_eq!(forwarded, 2 * BATCH as u64, "{} over {}", row.name, row.over);
            }
        }
    }

    #[test]
    fn bpf_variants_invoke_programs() {
        let mut bpf = end_bpf(add_tlv_program(), ExecTier::best_supported());
        bpf.run_batches(1);
        assert_eq!(bpf.datapath.stats.bpf_invocations, BATCH as u64);
        let mut end = scenario(|_| Seg6LocalAction::End);
        end.run_batches(1);
        assert_eq!(end.datapath.stats.bpf_invocations, 0);
        assert_eq!(end.datapath.stats.seg6local_invocations, BATCH as u64);
    }

    #[test]
    fn run_produces_one_normalised_row_per_variant() {
        let rows = rows();
        let table: Vec<_> = rows.iter().map(|row| (row.name, row.over, row.paper)).collect();
        assert_eq!(
            table,
            [
                ("End BPF", "End static", (0.75, 0.78)),
                ("End.T BPF", "End.T static", (0.72, 0.77)),
                ("Tag++ BPF", "End static", (0.72, 0.78)),
                ("Add TLV BPF", "End static", (0.70, 0.78)),
                ("Add TLV no JIT", "End static", (0.39, 0.78)),
            ]
        );
        let jit = jit_row();
        assert_eq!((jit.name, jit.over, jit.paper), ("Add TLV no JIT", "Add TLV BPF", (0.39, 0.70)));
        for row in rows.iter().chain([&jit]) {
            assert!(row.paper_added_ns() > 0.0, "{} over {}", row.name, row.over);
        }
    }

    /// The wall-clock half: orderings between variants. Not part of `cargo
    /// test` — the bench-examples CI leg runs it in release mode (`cargo
    /// test --release -p bench -- --ignored`), next to the other ratio
    /// gates.
    #[test]
    #[ignore = "wall-clock ratios; run in release mode by the bench gate"]
    fn run_orders_variants_sanely() {
        crate::assert_eventually(5, || {
            let mut measured = Vec::new();
            for mut row in rows().into_iter().chain([jit_row()]) {
                let added = row.measure();
                // Every read-out is positive and below ~1.1.
                if !(added.ratio() > 0.0 && added.ratio() < 1.2) {
                    return Err(format!("{} over {}: ratio out of range: {added:?}", row.name, row.over));
                }
                measured.push((row.name, row.over, added));
            }
            // BPF End cannot be faster than static End; no-JIT cannot be
            // faster than JIT (allow a small tolerance for measurement
            // noise; a scheduling hiccup retries the whole measurement).
            let ordered = [("End BPF", "End static"), ("Add TLV no JIT", "Add TLV BPF")];
            for (name, over, added) in measured {
                if ordered.contains(&(name, over))
                    && !(added.counterpart_ns > 0.0 && added.variant_ns >= added.counterpart_ns * 0.95)
                {
                    return Err(format!("{name} outpaced {over}: {added:?}"));
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

    /// `srh_walk`'s exact native facts on the Figure 2 packet:
    /// `(instructions, code bytes, spills, elided checks, inlined helper
    /// sites)`, as the shipped programs' are pinned in `srv6_nf::progs`. A
    /// change to the emitter or the verifier's facts shows here as a diff
    /// of numbers; update the tuple only with the reason.
    #[test]
    fn srh_walk_compiles_to_its_pinned_native_facts() {
        if !ebpf_vm::codegen::supported() {
            return;
        }
        let template = template();
        let helpers = ebpf_vm::HelperRegistry::new();
        let loaded = ebpf_vm::program::load(srh_walk_program(template.len()), &HashMap::new(), &helpers)
            .expect("verifies");
        let insns = loaded.program.insns.len();
        let native = loaded.native().expect("native backend available");
        let debug = native.debug_info();
        let facts = (insns, native.code_len(), debug.spills, debug.elided_checks, debug.inlined_helpers);
        assert_eq!(
            facts,
            (318, 15546, 0, 105, 0),
            "srh_walk: native facts moved (homes {:?})",
            debug.assignments
        );
    }

    /// [`end_bpf`] with a route to the `End.X` program's next hop.
    fn end_bpf_scenario(prog: ebpf_vm::Program, tier: ExecTier) -> Scenario {
        let mut scenario = end_bpf(prog, tier);
        scenario.datapath.add_route("fe80::/10".parse().unwrap(), vec![Nexthop::direct(7)]);
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

        if ExecTier::best_supported() != ExecTier::Native {
            println!("no native backend on this host: native runs as the interpreter, tier gates skipped");
            return;
        }
        let template = template();
        let walk = srh_walk_body(template.len());
        let helpers = ebpf_vm::HelperRegistry::new();
        let srh_walk = ebpf_vm::program::load(srh_walk_program(template.len()), &HashMap::new(), &helpers)
            .expect("verifies");
        let mut ctx = vec![0u8; 64];
        ctx[0..8].copy_from_slice(&PKT_BASE.to_le_bytes());
        ctx[8..16].copy_from_slice(&(PKT_BASE + template.len() as u64).to_le_bytes());
        // `srh_walk` alone, one run per call, on `tier`.
        let walker = |tier: ExecTier| {
            let (mut ctx, mut packet, mut state) = (ctx.clone(), template.clone(), RunState::new(ctx.len()));
            let (srh_walk, helpers, mut env) = (&srh_walk, &helpers, NullEnv);
            move || {
                let mut rc = RunContext::new(&mut ctx, &mut packet, &mut env);
                run_program_with_state(srh_walk, helpers, &mut rc, tier, &mut state).expect("srh_walk runs");
            }
        };

        // `end_scan` guards the walk with the context `len` field and
        // returns `BPF_OK`.
        let end_scan = format!(
            "mov64 r9, r1\nldxdw r8, [r9+0]\nldxw r7, [r9+16]\nmov64 r0, 0\nmov64 r3, 0\n\
             jlt r7, {}, short\n{walk}short:\nmov64 r0, 0\nexit\n",
            template.len()
        );
        let datapath_rows = [
            ("end_scan", assemble("end_scan", &end_scan), 1.15),
            ("end", end_program(), 0.80),
            ("end_x", srv6_nf::end_x_program("fe80::42".parse().unwrap()), 0.80),
            ("end_t", end_t_program(100), 0.80),
        ];

        crate::assert_eventually(5, || {
            // Native is the variant: the ratio is its rate over the
            // interpreter's.
            let ratio = added_ns(&mut walker(ExecTier::Native), &mut walker(ExecTier::Interp)).ratio();
            println!("srh_walk: native {ratio:.2}x interpreter (minimum 3x)");
            if ratio < 3.0 {
                return Err(format!("srh_walk: native only {ratio:.2}x the interpreter"));
            }
            for (name, prog, min) in &datapath_rows {
                let native = &mut end_bpf_scenario(prog.clone(), ExecTier::Native);
                let ratio = added_ns(native, &mut end_bpf_scenario(prog.clone(), ExecTier::Interp)).ratio();
                println!("{name}: native {ratio:.2}x interpreter (minimum {min}x)");
                if ratio < *min {
                    return Err(format!("{name}: native only {ratio:.2}x the interpreter (minimum {min}x)"));
                }
            }
            Ok(())
        });
    }
}
