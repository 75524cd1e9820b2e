//! User-space daemons accompanying the network functions.
//!
//! The paper pairs each in-kernel program with a small user-space component:
//! a Python/bcc daemon that forwards delay reports to a controller (§4.1,
//! 100 SLOC), a daemon on the aggregation box that measures the two-way
//! delay of each hybrid link and compensates the difference with `tc netem`
//! (§4.2), and a modified traceroute that consumes the `End.OAMP` reports
//! (§4.3). These are their Rust equivalents; they consume the same
//! perf-event ring buffers the programs write to.

use crate::events::{DelayEvent, OamEvent};
use ebpf_vm::perf::PerfEventBuffer;
use parking_lot::Mutex;
use seg6_runtime::BatchDrain;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// The delay-collector daemon of §4.1: drains the perf ring buffer fed by
/// `End.DM` and aggregates one-way-delay statistics per controller (the
/// paper's daemon forwards each report to the controller over UDP; here the
/// aggregation is local, which is equivalent for the experiments).
#[derive(Debug)]
pub struct DelayCollector {
    buffer: Arc<PerfEventBuffer>,
    reports: Vec<DelayEvent>,
    malformed: u64,
}

impl DelayCollector {
    /// Creates a collector reading from `buffer`.
    pub fn new(buffer: Arc<PerfEventBuffer>) -> Self {
        DelayCollector { buffer, reports: Vec::new(), malformed: 0 }
    }

    /// Drains every pending perf event (all rings), returning how many
    /// reports were parsed.
    pub fn poll(&mut self) -> usize {
        let DelayCollector { buffer, reports, malformed } = self;
        let before = reports.len();
        buffer.drain_with(|_, data| ingest(reports, malformed, data));
        reports.len() - before
    }

    /// Drains only logical CPU `cpu`'s ring — the per-worker flavour a
    /// shard's drain daemon calls after each batch. Each record is parsed
    /// where it lies in the ring, so the steady state allocates nothing
    /// beyond the growth of the report list.
    pub fn poll_cpu(&mut self, cpu: u32) -> usize {
        let DelayCollector { buffer, reports, malformed } = self;
        let before = reports.len();
        buffer.drain_cpu_with(cpu, |data| ingest(reports, malformed, data));
        reports.len() - before
    }

    /// Builds the worker-pool drain daemon for `collector`: attached to a
    /// shard via `ShardSetup::with_drain`, it runs on the worker after
    /// every processed batch and pulls that shard's per-CPU perf ring into
    /// the shared collector. Every shard of a pool gets its own daemon
    /// instance draining only its own ring, so daemons never contend on
    /// ring locks — only briefly on the collector when a batch actually
    /// produced events.
    pub fn shard_drain(collector: Arc<Mutex<DelayCollector>>) -> BatchDrain {
        Box::new(move |cpu| {
            collector.lock().poll_cpu(cpu);
        })
    }

    /// All reports collected so far.
    pub fn reports(&self) -> &[DelayEvent] {
        &self.reports
    }

    /// Number of perf events that failed to parse.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Mean one-way delay over all collected reports, in nanoseconds.
    pub fn mean_owd_ns(&self) -> Option<u64> {
        if self.reports.is_empty() {
            return None;
        }
        let sum: u128 = self.reports.iter().map(|r| u128::from(r.one_way_delay_ns())).sum();
        Some((sum / self.reports.len() as u128) as u64)
    }

    /// Maximum one-way delay observed, in nanoseconds.
    pub fn max_owd_ns(&self) -> Option<u64> {
        self.reports.iter().map(DelayEvent::one_way_delay_ns).max()
    }
}

/// Parses one perf record into `reports`, or counts it `malformed`.
fn ingest(reports: &mut Vec<DelayEvent>, malformed: &mut u64, data: &[u8]) {
    match DelayEvent::parse(data) {
        Some(report) => reports.push(report),
        None => *malformed += 1,
    }
}

/// The delay-compensation logic of the hybrid-access use case (§4.2): given
/// the two-way delays measured on the two links, compute the extra one-way
/// delay to apply (with `tc netem`) on the *fastest* path so both paths have
/// comparable latency and per-packet load balancing stops reordering TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayCompensation {
    /// Index (0 or 1) of the path the extra delay must be applied to.
    pub delay_path: usize,
    /// Extra one-way delay to apply, in nanoseconds.
    pub extra_delay_ns: u64,
}

/// Computes the compensation from the measured two-way delays of both paths.
pub fn compute_compensation(twd_path0_ns: u64, twd_path1_ns: u64) -> DelayCompensation {
    if twd_path0_ns >= twd_path1_ns {
        DelayCompensation { delay_path: 1, extra_delay_ns: (twd_path0_ns - twd_path1_ns) / 2 }
    } else {
        DelayCompensation { delay_path: 0, extra_delay_ns: (twd_path1_ns - twd_path0_ns) / 2 }
    }
}

/// One hop of an [`EcmpTraceroute`] result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracerouteHop {
    /// Hop index (1-based, as traceroute prints it).
    pub ttl: u8,
    /// Address of the reporting hop, when known.
    pub hop: Option<Ipv6Addr>,
    /// ECMP next hops reported by `End.OAMP`, empty when the hop fell back
    /// to the legacy ICMP mechanism.
    pub ecmp_nexthops: Vec<Ipv6Addr>,
    /// Whether the information came from `End.OAMP` (`true`) or from the
    /// ICMP fallback (`false`).
    pub via_oamp: bool,
}

/// The multipath-aware traceroute client of §4.3: it accumulates `End.OAMP`
/// reports (drained from the hops' perf buffers by the experiment harness)
/// and falls back to plain ICMP knowledge for hops that do not expose the
/// function.
#[derive(Debug, Default)]
pub struct EcmpTraceroute {
    hops: BTreeMap<u8, TracerouteHop>,
}

impl EcmpTraceroute {
    /// Creates an empty result set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an `End.OAMP` report for hop `ttl`.
    pub fn record_oamp(&mut self, ttl: u8, hop: Ipv6Addr, event: &OamEvent) {
        self.hops.insert(
            ttl,
            TracerouteHop { ttl, hop: Some(hop), ecmp_nexthops: event.nexthops.clone(), via_oamp: true },
        );
    }

    /// Records a legacy ICMP time-exceeded style answer for hop `ttl`.
    pub fn record_icmp(&mut self, ttl: u8, hop: Option<Ipv6Addr>) {
        self.hops.entry(ttl).or_insert(TracerouteHop {
            ttl,
            hop,
            ecmp_nexthops: Vec::new(),
            via_oamp: false,
        });
    }

    /// The hops discovered so far, in TTL order.
    pub fn hops(&self) -> Vec<&TracerouteHop> {
        self.hops.values().collect()
    }

    /// Renders the result like the paper's enhanced traceroute would.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for hop in self.hops.values() {
            let name = hop.hop.map(|a| a.to_string()).unwrap_or_else(|| "*".to_string());
            if hop.via_oamp {
                let nexthops: Vec<String> = hop.ecmp_nexthops.iter().map(|a| a.to_string()).collect();
                out.push_str(&format!("{:2}  {}  [OAMP ecmp: {}]\n", hop.ttl, name, nexthops.join(", ")));
            } else {
                out.push_str(&format!("{:2}  {}  [icmp]\n", hop.ttl, name));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_collector_aggregates_reports() {
        let buffer = Arc::new(PerfEventBuffer::new(16));
        let event = DelayEvent {
            tx_timestamp_ns: 100,
            rx_timestamp_ns: 400,
            controller: "2001:db8::c0".parse().unwrap(),
            controller_port: 9,
        };
        buffer.push_bytes(0, &event.to_bytes());
        let slow = DelayEvent { rx_timestamp_ns: 1_100, ..event };
        buffer.push_bytes(0, &slow.to_bytes());
        buffer.push_bytes(0, &[1, 2, 3]);
        let mut collector = DelayCollector::new(buffer);
        assert_eq!(collector.poll(), 2);
        assert_eq!(collector.reports().len(), 2);
        assert_eq!(collector.malformed(), 1);
        assert_eq!(collector.mean_owd_ns(), Some((300 + 1_000) / 2));
        assert_eq!(collector.max_owd_ns(), Some(1_000));
        // Nothing left to poll.
        assert_eq!(collector.poll(), 0);
    }

    #[test]
    fn poll_cpu_drains_only_that_ring() {
        let buffer = Arc::new(PerfEventBuffer::with_rings(16, 2));
        let event = DelayEvent {
            tx_timestamp_ns: 1,
            rx_timestamp_ns: 2,
            controller: "2001:db8::c0".parse().unwrap(),
            controller_port: 9,
        };
        buffer.push_bytes(0, &event.to_bytes());
        buffer.push_bytes(1, &event.to_bytes());
        let mut collector = DelayCollector::new(Arc::clone(&buffer));
        assert_eq!(collector.poll_cpu(1), 1);
        assert_eq!(buffer.len_cpu(0), 1, "cpu 0's ring is untouched");
        assert_eq!(collector.poll_cpu(0), 1);
        assert_eq!(collector.reports().len(), 2);
        assert_eq!(collector.poll_cpu(0), 0);
    }

    /// Satellite coverage for §4.1 under multi-worker load: `End.DM`
    /// probes spread over a pool's shards, every report emitted with
    /// `BPF_F_CURRENT_CPU`, per-shard `DelayCollector` drain daemons
    /// flushing after each batch — all reports collected exactly once,
    /// including those of the final partial batches drained at shutdown.
    #[test]
    fn pool_delay_daemons_collect_every_report_once() {
        use crate::progs::{end_dm_program, owd_encap_program, OwdEncapConfig};
        use ebpf_vm::maps::PerfEventArray;
        use ebpf_vm::program::load;
        use ebpf_vm::{Map, MapHandle};
        use netpkt::packet::build_ipv6_udp_packet;
        use netpkt::PacketBuf;
        use seg6_core::{LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Seg6LocalAction, Skb};
        use seg6_runtime::{Ingress, PoolConfig, ShardSetup, WorkerPool};
        use std::collections::HashMap;

        const WORKERS: u32 = 4;
        const PROBES: u32 = 203; // not a batch multiple: exercises shutdown drain
        let addr = |s: &str| s.parse::<std::net::Ipv6Addr>().unwrap();
        let dm_sid = addr("fc00::d1");

        // Ingress router: encapsulate every downstream packet through the
        // DM SID, stamping the TX timestamp (sampling ratio 1).
        let mut ingress = Seg6Datapath::new(addr("fc00::a0"));
        ingress.add_route("::/0".parse().unwrap(), vec![Nexthop::via(addr("fe80::1"), 1)]);
        let encap = load(
            owd_encap_program(OwdEncapConfig {
                dm_sid,
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

        // Probe packets: unique TX timestamp per probe, many flows so RSS
        // spreads them over the shards.
        let probes: Vec<(u64, PacketBuf)> = (0..PROBES)
            .map(|i| {
                let mut skb = Skb::new(build_ipv6_udp_packet(
                    addr(&format!("2001:db8::{:x}", i + 1)),
                    addr("2001:db8:2::9"),
                    (1024 + i) as u16,
                    5001,
                    &[0u8; 16],
                    64,
                ));
                let tx_ns = u64::from(i) * 1_000;
                assert!(ingress.process(&mut skb, tx_ns).is_forward());
                (tx_ns, skb.packet)
            })
            .collect();

        // The DM router runs as a pool: each shard loads its own End.DM
        // program instance against the shared per-CPU perf array, with a
        // DelayCollector drain daemon attached.
        let perf = PerfEventArray::per_cpu(64, WORKERS);
        let ring = perf.perf_buffer().unwrap();
        let collector = Arc::new(Mutex::new(DelayCollector::new(Arc::clone(&ring))));
        let config = PoolConfig { workers: WORKERS, batch_size: 8, ..Default::default() };
        let mut pool = WorkerPool::new(config, |_| {
            let mut dp = Seg6Datapath::new(addr("fc00::1"));
            dp.add_route("2001:db8:2::/48".parse().unwrap(), vec![Nexthop::via(addr("fe80::5"), 5)]);
            let mut maps: HashMap<u32, MapHandle> = HashMap::new();
            maps.insert(1, perf.clone());
            let prog = load(end_dm_program(1), &maps, &dp.helpers).unwrap();
            dp.add_local_sid(netpkt::Ipv6Prefix::host(dm_sid), Seg6LocalAction::EndBpf { prog });
            ShardSetup::new(dp).with_drain(DelayCollector::shard_drain(Arc::clone(&collector)))
        });

        // Every probe arrives at the same instant, 40 µs after the last
        // one was stamped. End.DM reads its RX time with
        // `bpf_ktime_get_ns`, the shard's clock, which a run sets to its
        // newest arrival: with one arrival time, each report's delay is
        // exact.
        let arrival_ns = u64::from(PROBES - 1) * 1_000 + 40_000;
        for (_, packet) in probes {
            assert!(pool.enqueue_bytes_at(arrival_ns, packet.data()));
        }
        let per_shard: Vec<u64> = pool.counters().snapshot().shards.iter().map(|s| s.enqueued).collect();
        assert!(per_shard.iter().all(|&n| n > 0), "steering collapsed: {per_shard:?}");
        let totals = pool.shutdown();
        assert_eq!(totals.iter().map(|s| s.forwarded).sum::<u64>(), u64::from(PROBES));

        // The daemons drained everything on the workers: nothing stranded,
        // nothing dropped, nothing duplicated.
        assert!(ring.is_empty(), "reports stranded in a per-CPU ring");
        assert_eq!(ring.dropped(), 0);
        let collector = collector.lock();
        assert_eq!(collector.malformed(), 0);
        assert_eq!(collector.reports().len(), PROBES as usize);
        let mut tx_seen: Vec<u64> = collector.reports().iter().map(|r| r.tx_timestamp_ns).collect();
        tx_seen.sort_unstable();
        let expected: Vec<u64> = (0..u64::from(PROBES)).map(|i| i * 1_000).collect();
        assert_eq!(tx_seen, expected, "reports lost or duplicated");
        for report in collector.reports() {
            assert_eq!(report.rx_timestamp_ns, arrival_ns);
            assert_eq!(report.one_way_delay_ns(), arrival_ns - report.tx_timestamp_ns);
            assert_eq!(report.controller, addr("2001:db8::c0"));
        }
    }

    #[test]
    fn empty_collector_has_no_statistics() {
        let collector = DelayCollector::new(Arc::new(PerfEventBuffer::new(4)));
        assert_eq!(collector.mean_owd_ns(), None);
        assert_eq!(collector.max_owd_ns(), None);
    }

    #[test]
    fn compensation_targets_the_faster_path() {
        // Path 0 has a 60 ms RTT, path 1 a 10 ms RTT: delay path 1 by 25 ms.
        let comp = compute_compensation(60_000_000, 10_000_000);
        assert_eq!(comp, DelayCompensation { delay_path: 1, extra_delay_ns: 25_000_000 });
        let comp = compute_compensation(10_000_000, 60_000_000);
        assert_eq!(comp, DelayCompensation { delay_path: 0, extra_delay_ns: 25_000_000 });
        assert_eq!(compute_compensation(5, 5).extra_delay_ns, 0);
    }

    #[test]
    fn traceroute_records_and_renders_hops() {
        let mut tr = EcmpTraceroute::new();
        let event = OamEvent {
            queried_dst: "2001:db8::9".parse().unwrap(),
            reply_to: "2001:db8::50".parse().unwrap(),
            reply_port: 33434,
            nexthops: vec!["fe80::1".parse().unwrap(), "fe80::2".parse().unwrap()],
        };
        tr.record_oamp(2, "fc00::21".parse().unwrap(), &event);
        tr.record_icmp(1, Some("fc00::11".parse().unwrap()));
        tr.record_icmp(3, None);
        let hops = tr.hops();
        assert_eq!(hops.len(), 3);
        assert_eq!(hops[0].ttl, 1);
        assert!(!hops[0].via_oamp);
        assert!(hops[1].via_oamp);
        assert_eq!(hops[1].ecmp_nexthops.len(), 2);
        let rendered = tr.render();
        assert!(rendered.contains("OAMP"));
        assert!(rendered.contains("fe80::1"));
        assert!(rendered.contains('*'));
    }
}
