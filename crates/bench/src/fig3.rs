//! Figure 3: forwarding impact of the passive delay-monitoring programs,
//! for probing ratios 1:10000 and 1:100.
//!
//! Two datapaths are measured, as in the paper: the ingress router running
//! the encapsulation LWT-BPF program over a `pktgen` stream of plain IPv6
//! packets, and the egress router running `End.DM` over a stream in which
//! one packet in `ratio` is a probe carrying the DM TLV. Each is measured
//! against plain IPv6 forwarding of the same stream.

use crate::fidelity::{Row, Scenario};
use ebpf_vm::maps::{Map, MapHandle, PerfEventArray};
use netpkt::packet::build_ipv6_udp_packet;
use seg6_core::{LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Seg6LocalAction, Skb};
use srv6_nf::{end_dm_program, owd_encap_program, DelayCollector, OwdEncapConfig};
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// The controller address used by the monitoring programs.
pub fn controller_addr() -> Ipv6Addr {
    "2001:db8:ffff::c0".parse().unwrap()
}

/// SID of the router running `End.DM`.
pub fn dm_sid() -> Ipv6Addr {
    "fc00:1::d".parse().unwrap()
}

/// The encapsulation program sampling one packet in `ratio` towards the
/// monitored client.
fn owd_encap(ratio: u32, dp: &Seg6Datapath) -> LwtBpfAttachment {
    let config =
        OwdEncapConfig { dm_sid: dm_sid(), controller: controller_addr(), controller_port: 9999, ratio };
    let prog = ebpf_vm::program::load(owd_encap_program(config), &HashMap::new(), &dp.helpers);
    LwtBpfAttachment { hook: LwtHook::Xmit, prog: prog.expect("encap program") }
}

/// The router under test, with its routes, and the plain packet `pktgen`
/// sends to the monitored client.
fn router() -> (Seg6Datapath, Vec<u8>) {
    let mut dp = Seg6Datapath::new("fc00:1::1".parse().unwrap());
    dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via("fe80::3".parse().unwrap(), 3)]);
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via("fe80::2".parse().unwrap(), 2)]);
    let (src, client) = ("2001:db8::1".parse().unwrap(), "2001:db8:2::9".parse().unwrap());
    (dp, build_ipv6_udp_packet(src, client, 1024, 5001, &[0u8; 64], 64).data().to_vec())
}

/// The ingress router fed plain packets; `attached`, it runs the
/// encapsulation program at LWT `xmit`, sampling one packet in `ratio`.
pub fn encap(ratio: u32, attached: bool) -> Scenario {
    let (mut dp, plain) = router();
    if attached {
        let attachment = owd_encap(ratio, &dp);
        dp.attach_lwt_bpf("2001:db8:2::/48".parse().unwrap(), attachment);
    }
    Scenario::new(dp, plain)
}

/// The egress router fed a stream in which one packet in `ratio` is a
/// probe carrying the DM TLV; `attached`, it runs `End.DM` at [`dm_sid`]
/// and reads its reports through the scenario's collector.
pub fn end_dm(ratio: u32, attached: bool) -> Scenario {
    let (mut dp, plain) = router();
    let mut collector = None;
    if attached {
        let perf = PerfEventArray::new(4096);
        let perf_handle: MapHandle = perf.clone();
        let maps = HashMap::from([(1u32, perf_handle)]);
        let loaded = ebpf_vm::program::load(end_dm_program(1), &maps, &dp.helpers).expect("End.DM program");
        dp.add_local_sid(netpkt::Ipv6Prefix::host(dm_sid()), Seg6LocalAction::EndBpf { prog: loaded });
        collector = Some(DelayCollector::new(perf.perf_buffer().expect("perf buffer")));
    }

    // The probe: the plain packet through an ingress datapath whose
    // encapsulation program samples every packet.
    let mut ingress = Seg6Datapath::new("fc00:0::1".parse().unwrap());
    ingress.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
    let attachment = owd_encap(1, &ingress);
    ingress.attach_lwt_bpf("2001:db8:2::/48".parse().unwrap(), attachment);
    let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&plain));
    assert!(ingress.process(&mut skb, 42).is_forward());

    let mut scenario = Scenario::new(dp, plain).with_probe(skb.packet.data().to_vec(), ratio as usize);
    scenario.collector = collector;
    scenario
}

/// Figure 3's rows: each program over plain forwarding of the same stream,
/// with the paper's normalised rates.
pub fn rows() -> Vec<Row> {
    let row = |name, paper, build: fn(u32, bool) -> Scenario, ratio| {
        Row::new((name, paper, build(ratio, true)), ("IPv6 forwarding", 1.0, build(ratio, false)))
    };
    vec![
        row("Encap. 1:10000", 0.955, encap, 10_000),
        row("End.DM 1:10000", 0.995, end_dm, 10_000),
        row("Encap. 1:100", 0.95, encap, 100),
        row("End.DM 1:100", 0.99, end_dm, 100),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_and_encap_scenarios_forward() {
        for mut scenario in [encap(100, false), encap(100, true)] {
            scenario.run_batches(2);
            assert_eq!(scenario.datapath.stats.forwarded, 64);
        }
    }

    #[test]
    fn end_dm_scenario_decapsulates_probes_and_reports() {
        let mut scenario = end_dm(100, true);
        // 96 packets: the probe at index 0, the next one only at 100.
        scenario.run_batches(3);
        assert_eq!(scenario.datapath.stats.bpf_invocations, 1);
        let collector = scenario.collector.as_mut().unwrap();
        assert_eq!(collector.poll(), 1);
        assert_eq!(collector.reports().len(), 1);
        assert_eq!(collector.reports()[0].controller, controller_addr());
    }

    #[test]
    fn end_dm_1_in_10000_sends_one_probe_in_10000() {
        let mut scenario = end_dm(10_000, true);
        for index in 0..10_000 {
            let mut skb = Skb::new(netpkt::PacketBuf::from_slice(scenario.packet(index)));
            assert!(scenario.datapath.process(&mut skb, 0).is_forward(), "packet {index}");
        }
        assert_eq!(scenario.datapath.stats.bpf_invocations, 1);
        assert_eq!(scenario.collector.as_mut().unwrap().poll(), 1);
    }

    #[test]
    fn run_produces_one_normalised_row_per_variant() {
        let rows = rows();
        let table: Vec<_> = rows.iter().map(|row| (row.name, row.over, row.paper)).collect();
        assert_eq!(
            table,
            [
                ("Encap. 1:10000", "IPv6 forwarding", (0.955, 1.0)),
                ("End.DM 1:10000", "IPv6 forwarding", (0.995, 1.0)),
                ("Encap. 1:100", "IPv6 forwarding", (0.95, 1.0)),
                ("End.DM 1:100", "IPv6 forwarding", (0.99, 1.0)),
            ]
        );
        // Only the variants run the program under test; the first batch
        // carries End.DM's probe.
        for mut row in rows {
            row.variant.run_batches(1);
            row.counterpart.run_batches(1);
            assert!(row.variant.datapath.stats.bpf_invocations > 0, "{}", row.name);
            assert_eq!(row.counterpart.datapath.stats.bpf_invocations, 0, "{}", row.name);
        }
    }

    /// The wall-clock half: overheads between variants. Not part of `cargo
    /// test` — the bench-examples CI leg runs it in release mode (`cargo
    /// test --release -p bench -- --ignored`), next to the other ratio
    /// gates.
    #[test]
    #[ignore = "wall-clock ratios; run in release mode by the bench gate"]
    fn run_reports_small_overheads() {
        crate::assert_eventually(5, || {
            for mut row in rows() {
                let added = row.measure();
                if !(added.ratio() > 0.05 && added.ratio() < 1.2) {
                    return Err(format!("{}: ratio out of range: {added:?}", row.name));
                }
            }
            // The 1:10000 encapsulation cannot cost more than the 1:100 one
            // (modulo 10% measurement noise; a scheduling hiccup retries
            // the whole measurement).
            let added = crate::fidelity::added_ns(&mut encap(10_000, true), &mut encap(100, true));
            if !(added.counterpart_ns > 0.0 && added.variant_ns <= added.counterpart_ns / 0.9) {
                return Err(format!("sparser probing measured slower: {added:?}"));
            }
            Ok(())
        });
    }
}
