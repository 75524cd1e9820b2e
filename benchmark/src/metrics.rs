//! The metric names, units and bounds — the same lists `BENCHMARK.json`
//! declares (a unit test holds the two together).

use std::collections::BTreeMap;

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported per workload by the untraced run.
///
/// `fail_share` — (rejected + missing + wrong verdict + wrong bytes) ÷
/// frames offered — must be 0, so it cannot carry a relative bound and is
/// reported through the result line's `failed` ÷ `attempted` instead.
///
/// The two rate bounds are twice the issue's 10 %: that is what this host
/// allows. Ten-run spreads are 0.5–2.6 % while its other tenants are quiet
/// and reached 15 % while they were busy, and two ten-run medians taken an
/// hour apart differed by 11 % (the README has the measurements).
pub const END_TO_END: [EndToEndMetric; 4] = [
    EndToEndMetric { name: "pps", unit: "1/s", better: "higher", bound: 0.20 },
    EndToEndMetric { name: "cpu_ns_per_pkt", unit: "ns", better: "lower", bound: 0.20 },
    EndToEndMetric { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEndMetric { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.10 },
];

/// `setup_s` differences below this are never a regression (the issue's
/// max(20 %, 5 ms) rule; `--selfcheck` applies it, `BENCHMARK.json` can
/// only hold the relative part).
pub const SETUP_FLOOR_S: f64 = 0.005;

/// The per-layer metrics, in ledger order: `(name, unit, better)`. Layers
/// are the crate names. A metric whose layer is not on a workload's path
/// reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 50] = [
    ("netpkt.parse_ns", "ns", "lower"),
    ("netpkt.rss_ns", "ns", "lower"),
    ("netpkt.copy_in_ns", "ns", "lower"),
    ("netpkt.bytes_copied_per_pkt", "count", "lower"),
    ("netpkt.sock_rx_ns", "ns", "lower"),
    ("netpkt.sock_tx_ns", "ns", "lower"),
    ("netpkt.syscalls_per_kframe", "count", "lower"),
    ("ebpf-vm.run_ns.interp", "ns", "lower"),
    ("ebpf-vm.run_ns.microop", "ns", "lower"),
    ("ebpf-vm.run_ns.fused", "ns", "lower"),
    ("ebpf-vm.run_ns.native", "ns", "lower"),
    ("ebpf-vm.insns_per_pkt", "count", "lower"),
    ("ebpf-vm.load_us", "us", "lower"),
    ("srv6-nf.end.run_ns", "ns", "lower"),
    ("srv6-nf.end_t.run_ns", "ns", "lower"),
    ("srv6-nf.tag_inc.run_ns", "ns", "lower"),
    ("srv6-nf.add_tlv.run_ns", "ns", "lower"),
    ("srv6-nf.end_dm.run_ns", "ns", "lower"),
    ("srv6-nf.wrr_encap.run_ns", "ns", "lower"),
    ("srv6-nf.perf_drain_ns", "ns", "lower"),
    ("seg6-core.classify_ns", "ns", "lower"),
    ("seg6-core.srh_advance_ns", "ns", "lower"),
    ("seg6-core.fib_lookup_ns", "ns", "lower"),
    ("seg6-core.batch_ns", "ns", "lower"),
    ("seg6-core.ctx_build_ns", "ns", "lower"),
    ("seg6-core.drop_ns", "ns", "lower"),
    ("seg6-core.allocs_per_pkt", "count", "lower"),
    ("seg6-runtime.ring_ns", "ns", "lower"),
    ("seg6-runtime.enqueue_ns", "ns", "lower"),
    ("seg6-runtime.flush_wait_ns", "ns", "lower"),
    ("seg6-runtime.recycle_ns", "ns", "lower"),
    ("seg6-runtime.worker_cpu_ns", "ns", "lower"),
    ("seg6-runtime.dispatcher_cpu_ns", "ns", "lower"),
    ("seg6-runtime.allocs_per_pkt", "count", "lower"),
    ("seg6-runtime.rejected_share", "share", "lower"),
    ("seg6-runtime.idle_roundtrip_us", "us", "lower"),
    ("seg6-runtime.idle_roundtrip_us.p99", "us", "lower"),
    ("srv6d.service_ns", "ns", "lower"),
    ("srv6d.service_mem_ns", "ns", "lower"),
    ("srv6d.allocs_per_pkt", "count", "lower"),
    ("srv6d.config_parse_us", "us", "lower"),
    ("srv6d.start_ms", "ms", "lower"),
    ("srv6d.drain_ms", "ms", "lower"),
    ("srv6d.metrics_render_us", "us", "lower"),
    ("srv6d.reload_us", "us", "lower"),
    ("bench.gen_ns", "ns", "lower"),
    ("bench.verify_ns", "ns", "lower"),
    ("ledger.sum_ns", "ns", "lower"),
    ("ledger.gap_share", "share", "lower"),
    ("trace.overhead_share", "share", "lower"),
];

/// Measured per-layer values by name.
#[derive(Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"))
            .0;
        self.0.insert(declared, value);
    }

    /// The value of `name`; 0 when the layer is not on this workload's path.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{why, NAMES};

    /// The value of `"key": "..."` or `"key": number` fields, in file order.
    fn fields(json: &str, key: &str) -> Vec<String> {
        let needle = format!("\"{key}\":");
        json.match_indices(&needle)
            .map(|(at, _)| {
                let rest = json[at + needle.len()..].trim_start();
                match rest.strip_prefix('"') {
                    Some(text) => text[..text.find('"').expect("closed string")].to_string(),
                    None => rest[..rest.find([',', '}', '\n']).expect("terminated value")].trim().to_string(),
                }
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let names = fields(json, "name");
        let mut want: Vec<String> = NAMES.iter().map(|n| n.to_string()).collect();
        want.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        want.extend(PER_LAYER.iter().map(|(n, _, _)| n.to_string()));
        assert_eq!(names, want);

        let mut units: Vec<String> = END_TO_END.iter().map(|m| m.unit.to_string()).collect();
        units.extend(PER_LAYER.iter().map(|(_, u, _)| u.to_string()));
        assert_eq!(fields(json, "unit"), units);

        let mut better: Vec<String> = END_TO_END.iter().map(|m| m.better.to_string()).collect();
        better.extend(PER_LAYER.iter().map(|(_, _, b)| b.to_string()));
        assert_eq!(fields(json, "better"), better);

        let bounds: Vec<f64> =
            fields(json, "bound").iter().map(|b| b.parse().expect("numeric bound")).collect();
        assert_eq!(bounds, END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>());

        assert_eq!(fields(json, "why"), NAMES.iter().map(|n| why(n).to_string()).collect::<Vec<_>>());
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        for (i, (name, unit, _)) in PER_LAYER.iter().enumerate() {
            assert!(PER_LAYER[..i].iter().all(|(n, _, _)| n != name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
    }
}
