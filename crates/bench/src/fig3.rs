//! Figure 3: forwarding impact of the passive delay-monitoring programs,
//! for probing ratios 1:10000 and 1:100.
//!
//! Two datapaths are measured, as in the paper: the ingress router running
//! the encapsulation LWT-BPF program over a `pktgen` stream of plain IPv6
//! packets, and the egress router running `End.DM` over a `trafgen` stream
//! of probes that all carry the DM TLV.

use ebpf_vm::maps::{Map, MapHandle, PerfEventArray};
use netpkt::packet::build_ipv6_udp_packet;
use seg6_core::{LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Seg6LocalAction, Skb, Verdict};
use srv6_nf::{end_dm_program, owd_encap_program, DelayCollector, OwdEncapConfig};
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// The four measured configurations of Figure 3, plus the pure-IPv6
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig3Variant {
    /// Plain IPv6 forwarding (the 100 % reference, 610 kpps in the paper).
    PlainForwarding,
    /// The encapsulation program with a 1:10000 probing ratio.
    Encap1In10000,
    /// `End.DM` receiving probes at a 1:10000 ratio (probes are 1 in 10⁴ of
    /// the stream; the rest is plain traffic).
    EndDm1In10000,
    /// The encapsulation program with a 1:100 probing ratio.
    Encap1In100,
    /// `End.DM` receiving probes at a 1:100 ratio.
    EndDm1In100,
}

impl Fig3Variant {
    /// All variants in figure order.
    pub fn all() -> [Fig3Variant; 5] {
        [
            Fig3Variant::PlainForwarding,
            Fig3Variant::Encap1In10000,
            Fig3Variant::EndDm1In10000,
            Fig3Variant::Encap1In100,
            Fig3Variant::EndDm1In100,
        ]
    }

    /// Label used by the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Fig3Variant::PlainForwarding => "IPv6 forwarding (reference)",
            Fig3Variant::Encap1In10000 => "Encap. 1:10000",
            Fig3Variant::EndDm1In10000 => "End.DM 1:10000",
            Fig3Variant::Encap1In100 => "Encap. 1:100",
            Fig3Variant::EndDm1In100 => "End.DM 1:100",
        }
    }

    /// The probing ratio of the variant.
    pub fn ratio(&self) -> u32 {
        match self {
            Fig3Variant::PlainForwarding => 0,
            Fig3Variant::Encap1In10000 | Fig3Variant::EndDm1In10000 => 10_000,
            Fig3Variant::Encap1In100 | Fig3Variant::EndDm1In100 => 100,
        }
    }

    /// Normalised forwarding rate read off the paper's Figure 3.
    pub fn paper_normalized(&self) -> f64 {
        match self {
            Fig3Variant::PlainForwarding => 1.0,
            Fig3Variant::Encap1In10000 => 0.955,
            Fig3Variant::EndDm1In10000 => 0.995,
            Fig3Variant::Encap1In100 => 0.95,
            Fig3Variant::EndDm1In100 => 0.99,
        }
    }
}

/// The controller address used by the monitoring programs.
pub fn controller_addr() -> Ipv6Addr {
    "2001:db8:ffff::c0".parse().unwrap()
}

/// SID of the router running `End.DM`.
pub fn dm_sid() -> Ipv6Addr {
    "fc00:1::d".parse().unwrap()
}

/// A Figure 3 scenario: the router under test plus the packet mix it
/// receives.
pub struct Fig3Scenario {
    /// The router under test.
    pub datapath: Seg6Datapath,
    /// Pre-built packets cycled through by the generator (probes are mixed
    /// with plain packets at the configured ratio).
    pub packets: Vec<Vec<u8>>,
    next: usize,
    /// Collector attached to the End.DM perf buffer (empty for the other
    /// variants); lets experiments verify that reports were produced.
    pub collector: Option<DelayCollector>,
    /// Which variant this is.
    pub variant: Fig3Variant,
}

/// Builds a Figure 3 scenario.
pub fn build_scenario(variant: Fig3Variant) -> Fig3Scenario {
    let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
    let client_dst: Ipv6Addr = "2001:db8:2::9".parse().unwrap();
    let mut dp = Seg6Datapath::new("fc00:1::1".parse().unwrap());
    dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via("fe80::3".parse().unwrap(), 3)]);
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via("fe80::2".parse().unwrap(), 2)]);

    let plain = build_ipv6_udp_packet(src, client_dst, 1024, 5001, &[0u8; 64], 64).data().to_vec();
    let mut collector = None;

    let packets = match variant {
        Fig3Variant::PlainForwarding => vec![plain],
        Fig3Variant::Encap1In10000 | Fig3Variant::Encap1In100 => {
            // The ingress router runs the sampling encapsulation program for
            // every packet towards the monitored destination.
            let prog = owd_encap_program(OwdEncapConfig {
                dm_sid: dm_sid(),
                controller: controller_addr(),
                controller_port: 9999,
                ratio: variant.ratio(),
            });
            let loaded = ebpf_vm::program::load(prog, &HashMap::new(), &dp.helpers).expect("encap program");
            dp.attach_lwt_bpf(
                "2001:db8:2::/48".parse().unwrap(),
                LwtBpfAttachment { hook: LwtHook::Xmit, prog: loaded },
            );
            vec![plain]
        }
        Fig3Variant::EndDm1In10000 | Fig3Variant::EndDm1In100 => {
            // The egress router runs End.DM; one packet in `ratio` is a
            // probe carrying the DM TLV, the rest is plain traffic.
            let perf = PerfEventArray::new(4096);
            let perf_handle: MapHandle = perf.clone();
            let mut maps = HashMap::new();
            maps.insert(1u32, perf_handle);
            let loaded =
                ebpf_vm::program::load(end_dm_program(1), &maps, &dp.helpers).expect("End.DM program");
            dp.add_local_sid(netpkt::Ipv6Prefix::host(dm_sid()), Seg6LocalAction::EndBpf { prog: loaded });
            collector = Some(DelayCollector::new(perf.perf_buffer().expect("perf buffer")));

            // Build the probe by running the encapsulation program once on
            // an ingress datapath (ratio 1 = always encapsulate).
            let mut ingress = Seg6Datapath::new("fc00:0::1".parse().unwrap());
            ingress.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
            let encap = owd_encap_program(OwdEncapConfig {
                dm_sid: dm_sid(),
                controller: controller_addr(),
                controller_port: 9999,
                ratio: 1,
            });
            let encap =
                ebpf_vm::program::load(encap, &HashMap::new(), &ingress.helpers).expect("encap program");
            ingress.attach_lwt_bpf(
                "2001:db8:2::/48".parse().unwrap(),
                LwtBpfAttachment { hook: LwtHook::Xmit, prog: encap },
            );
            let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&plain));
            assert!(ingress.process(&mut skb, 42).is_forward());
            let probe = skb.packet.data().to_vec();

            // The packet mix: one probe every `ratio` packets.
            let ratio = variant.ratio() as usize;
            let mix_len = ratio.min(1_000);
            let mut packets = vec![plain; mix_len];
            packets[0] = probe;
            packets
        }
    };
    Fig3Scenario { datapath: dp, packets, next: 0, collector, variant }
}

impl Fig3Scenario {
    /// Processes the next packet of the generator mix.
    pub fn forward_one(&mut self) {
        let template = &self.packets[self.next];
        self.next = (self.next + 1) % self.packets.len();
        let mut skb = Skb::new(netpkt::PacketBuf::from_slice(template));
        let now = self.datapath.stats.received;
        match self.datapath.process(&mut skb, now) {
            Verdict::Forward { .. } => {}
            other => panic!("{:?}: packet was not forwarded: {other:?}", self.variant),
        }
    }

    /// Measures the forwarding rate in packets per second.
    pub fn measure_pps(&mut self, count: usize) -> f64 {
        crate::measure_rate(count, || self.forward_one()).0
    }
}

/// One row of the Figure 3 table.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Variant measured.
    pub variant: Fig3Variant,
    /// Absolute forwarding rate on this host.
    pub pps: f64,
    /// Rate normalised to plain IPv6 forwarding.
    pub normalized: f64,
    /// Value reported by the paper.
    pub paper_normalized: f64,
}

/// Runs the whole Figure 3 experiment.
pub fn run(count: usize) -> Vec<Fig3Row> {
    // The process warms up measurably over the first measurement (allocator
    // pools, branch predictors, frequency scaling), so a single up-front
    // reference skews every later ratio. Discard one warm-up run, then
    // re-measure the reference right next to each variant and normalise to
    // the adjacent measurement.
    build_scenario(Fig3Variant::PlainForwarding).measure_pps(count);
    Fig3Variant::all()
        .into_iter()
        .map(|variant| {
            let pps = build_scenario(variant).measure_pps(count);
            let baseline = if variant == Fig3Variant::PlainForwarding {
                pps
            } else {
                build_scenario(Fig3Variant::PlainForwarding).measure_pps(count)
            };
            Fig3Row { variant, pps, normalized: pps / baseline, paper_normalized: variant.paper_normalized() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_and_encap_scenarios_forward() {
        for variant in [Fig3Variant::PlainForwarding, Fig3Variant::Encap1In100] {
            let mut scenario = build_scenario(variant);
            for _ in 0..50 {
                scenario.forward_one();
            }
            assert_eq!(scenario.datapath.stats.forwarded, 50, "{variant:?}");
        }
    }

    #[test]
    fn end_dm_scenario_decapsulates_probes_and_reports() {
        let mut scenario = build_scenario(Fig3Variant::EndDm1In100);
        // Process one full mix cycle: exactly one probe among `ratio` packets.
        let cycle = scenario.packets.len();
        for _ in 0..cycle {
            scenario.forward_one();
        }
        assert_eq!(scenario.datapath.stats.bpf_invocations, 1);
        let collector = scenario.collector.as_mut().unwrap();
        assert_eq!(collector.poll(), 1);
        assert_eq!(collector.reports().len(), 1);
        assert_eq!(collector.reports()[0].controller, controller_addr());
    }

    #[test]
    fn run_produces_one_normalised_row_per_variant() {
        let rows = run(200);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.iter().map(|r| r.variant).collect::<Vec<_>>(), Fig3Variant::all());
        // The reference is 1.0 by construction.
        assert_eq!(rows[0].variant, Fig3Variant::PlainForwarding);
        assert_eq!(rows[0].normalized, 1.0);
        for row in &rows {
            assert!(row.pps > 0.0, "{row:?}");
            assert_eq!(row.paper_normalized, row.variant.paper_normalized());
        }
    }

    /// The wall-clock half: overhead ratios between variants. Not part of
    /// `cargo test` — the bench-examples CI leg runs it in release mode
    /// (`cargo test --release -p bench -- --ignored`), next to the other
    /// ratio gates.
    #[test]
    #[ignore = "wall-clock ratios; run in release mode by the bench gate"]
    fn run_reports_small_overheads() {
        crate::assert_eventually(5, || {
            let rows = run(1_500);
            for row in &rows {
                // A scheduling hiccup inside one measurement window retries
                // the whole experiment.
                if !(row.normalized > 0.05 && row.normalized < 1.2) {
                    return Err(format!("normalised rate out of range: {row:?}"));
                }
            }
            // The 1:10000 encapsulation cannot be slower than the 1:100
            // one (modulo 10% measurement noise).
            let get = |v: Fig3Variant| rows.iter().find(|r| r.variant == v).unwrap().normalized;
            if get(Fig3Variant::Encap1In10000) < get(Fig3Variant::Encap1In100) * 0.9 {
                return Err(format!("sparser probing measured slower: {rows:?}"));
            }
            Ok(())
        });
    }
}
