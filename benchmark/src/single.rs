//! One workload, one process: generate, compute the reference, measure,
//! (with `--trace 1`) take the per-layer ledger, print, and end with the
//! one-line JSON result the driver reads.

use crate::alloc::allocations;
use crate::layers;
use crate::metrics::{LayerValues, END_TO_END, PER_LAYER};
use crate::reference::{self, Reference};
use crate::run::{measure, Measured, Plan, FULL_CHECK_EVERY, SETUP_ROUNDS};
use crate::stats::{median, peak_rss_mb, quartiles};
use crate::system::System;
use crate::system_daemon::DaemonSystem;
use crate::system_pool::{pool_config, PoolSystem, COLLECTOR_RESET_PASSES};
use crate::trace::{SpanName, Tracer};
use crate::workloads::{self, Kind, Prog, Workload, DEFAULT_SEED, FRAMES, WINDOW};
use seg6_runtime::WorkerPool;
use std::fmt::Write as _;
use std::time::Instant;

/// Passes per allocation count: two collector reset periods, so both
/// counts see the collector grow from empty the same way.
const ALLOC_COUNT_PASSES: u64 = 2 * COLLECTOR_RESET_PASSES;

/// Steal above this share of the measured time gets a note in the output.
const STEAL_WARN_SHARE: f64 = 0.01;

/// What `--workload` runs need to know.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub plan: Plan,
}

/// Runs one workload and prints its results. Returns whether the run was
/// correct (every output verified, digests and exact counts as expected).
pub fn run(options: &Options) -> bool {
    let workload = workloads::generate(&options.workload, options.seed);
    let reference = reference::compute(&workload);
    println!(
        "workload {} seed {} seconds {} trace {} windows {} frames {} digest {:016x}",
        workload.name,
        workload.seed,
        options.plan.seconds,
        u8::from(options.plan.trace),
        options.plan.windows(),
        FRAMES,
        reference.digest
    );
    println!("why: {}", workloads::why(workload.name));
    if workload.is_daemon() {
        println!("note: traffic crosses the host loopback interface, not a real link");
    }
    for (reason, count) in reference.drop_counts() {
        println!("expected drops: {count} x {reason}");
    }

    // The golden digest pins the reference itself (a drift in both the
    // reference and the fast path would otherwise go unseen). It exists
    // for the default seed; any other seed self-verifies only.
    let mut correct = true;
    if workload.seed == DEFAULT_SEED {
        let golden = reference::golden_digest(workload.name);
        if golden != Some(reference.digest) {
            println!(
                "FAIL golden digest: expected {} got {:016x}",
                golden.map_or("none".to_string(), |g| format!("{g:016x}")),
                reference.digest
            );
            correct = false;
        }
    }

    let mut layer_values = LayerValues::default();
    let measured = if workload.is_daemon() {
        let (measured, mut system) = measure::<DaemonSystem>(&workload, &reference, options.plan);
        if options.plan.trace {
            daemon_layers(&workload, &reference, &measured, &mut system, &mut layer_values);
        }
        system.drain();
        measured
    } else {
        let (measured, mut system) = measure::<PoolSystem>(&workload, &reference, options.plan);
        if options.plan.trace {
            pool_layers(&workload, &reference, &measured, &mut system, &mut layer_values);
        }
        system.drain();
        measured
    };
    let failed = measured.failures.total();
    correct &= failed == 0;

    let metrics: Vec<(&str, f64, &str)> = if options.plan.trace {
        let path = std::path::PathBuf::from(format!("target/benchmark/spans-{}.csv", workload.name));
        match measured.tracer.write_csv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written ({e})"),
        }
        PER_LAYER.iter().map(|(name, unit, _)| (*name, layer_values.get(name), *unit)).collect()
    } else {
        let values = [
            median(&measured.samples(false, |w| w.pps())),
            median(&measured.samples(false, |w| w.cpu_ns_per_pkt())),
            median(&measured.setup_s),
            peak_rss_mb(),
        ];
        END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)).collect()
    };

    for (name, value, unit) in &metrics {
        println!("metric {name} {} {unit}", number(*value));
    }
    println!(
        "as the clock saw it: host speed {:.3} of reference, pps {:.0}, cpu_ns_per_pkt {:.1}, setup_s {:.6}",
        median(&measured.samples(false, |w| w.speed)),
        median(&measured.samples(false, |w| w.raw_pps())),
        median(&measured.samples(false, |w| w.raw_cpu_ns_per_pkt())),
        median(&measured.raw_setup_s)
    );
    println!("host steal during the windows: {:.2} % of wall time", measured.steal_share * 100.0);
    if measured.steal_share > STEAL_WARN_SHARE {
        println!(
            "note: the hypervisor ran other guests on this one's CPUs; expect every rate here to read low"
        );
    }
    let f = &measured.failures;
    println!(
        "metric fail_share {} share  ({} rejected + {} missing + {} wrong verdict + {} wrong bytes of {} offered)",
        number(failed as f64 / measured.attempted as f64),
        f.rejected,
        f.missing,
        f.wrong_verdict,
        f.wrong_bytes,
        measured.attempted
    );
    println!("detail {}", detail_json(&workload, options, &measured));

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        measured.attempted
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(line, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
            .expect("string write");
    }
    line.push_str("}}");
    println!("{line}");
    correct
}

/// A JSON-safe rendering with every digit the measurement has.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn json_list(values: &[f64]) -> String {
    format!("[{}]", values.iter().map(|v| number(*v)).collect::<Vec<_>>().join(", "))
}

/// Per-window samples and their quartiles, for the result document.
fn detail_json(workload: &Workload, options: &Options, measured: &Measured) -> String {
    let pps = measured.samples(false, |w| w.pps());
    let cpu = measured.samples(false, |w| w.cpu_ns_per_pkt());
    let quart = |v: &[f64]| if v.len() >= 2 { json_list(&quartiles(v)) } else { "[]".to_string() };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"windows\": {}, \"window_seconds\": 0.5, \
         \"pps_samples\": {}, \"pps_quartiles\": {}, \"cpu_ns_per_pkt_samples\": {}, \
         \"cpu_ns_per_pkt_quartiles\": {}, \"host_speed_samples\": {}, \"raw_pps_samples\": {}, \
         \"raw_cpu_ns_per_pkt_samples\": {}, \"setup_s_samples\": {}, \"raw_setup_s_samples\": {}, \
         \"steal_share\": {}, \"full_check_every\": {}, \"setup_rounds\": {}}}",
        workload.name,
        workload.seed,
        options.plan.trace,
        measured.windows.len(),
        json_list(&pps),
        quart(&pps),
        json_list(&cpu),
        quart(&cpu),
        json_list(&measured.samples(false, |w| w.speed)),
        json_list(&measured.samples(false, |w| w.raw_pps())),
        json_list(&measured.samples(false, |w| w.raw_cpu_ns_per_pkt())),
        json_list(&measured.setup_s),
        json_list(&measured.raw_setup_s),
        number(measured.steal_share),
        FULL_CHECK_EVERY,
        SETUP_ROUNDS
    )
}

/// Nanoseconds per packet recorded under `name` in the traced windows, at
/// reference host speed.
fn span_ns_per_pkt(measured: &Measured, name: SpanName) -> f64 {
    let speeds = measured.samples(true, |w| w.speed);
    let speed = if speeds.is_empty() { 1.0 } else { speeds.iter().sum::<f64>() / speeds.len() as f64 };
    measured.tracer.total_ns(name) as f64 / measured.traced_packets().max(1) as f64 * speed
}

/// What both kinds of workload derive from the traced windows.
fn common_layers(workload: &Workload, reference: &Reference, measured: &Measured, out: &mut LayerValues) {
    layers::isolated(workload, reference, out);
    out.set("bench.verify_ns", span_ns_per_pkt(measured, SpanName::Verify));
    out.set("seg6-runtime.worker_cpu_ns", median(&measured.samples(false, |w| w.worker_cpu_ns_per_pkt())));
    out.set(
        "seg6-runtime.dispatcher_cpu_ns",
        median(&measured.samples(false, |w| w.dispatcher_cpu_ns_per_pkt())),
    );
    let untraced = median(&measured.samples(false, |w| w.pps()));
    let traced = median(&measured.samples(true, |w| w.pps()));
    out.set("trace.overhead_share", 1.0 - traced / untraced);
}

/// Closes the ledger: the isolated stages on one packet's path against the
/// CPU time the untraced windows actually spent per packet.
fn close_ledger(sum_ns: f64, measured: &Measured, out: &mut LayerValues) {
    let end_to_end = median(&measured.samples(false, |w| w.cpu_ns_per_pkt()));
    out.set("ledger.sum_ns", sum_ns);
    out.set("ledger.gap_share", (end_to_end - sum_ns) / end_to_end);
}

fn rejected_share(pool: &WorkerPool) -> f64 {
    let snapshot = pool.counters().snapshot();
    let offered = snapshot.enqueued() + snapshot.rejected();
    snapshot.rejected() as f64 / offered.max(1) as f64
}

fn pool_layers(
    workload: &Workload,
    reference: &Reference,
    measured: &Measured,
    system: &mut PoolSystem,
    out: &mut LayerValues,
) {
    common_layers(workload, reference, measured, out);
    out.set("seg6-runtime.enqueue_ns", span_ns_per_pkt(measured, SpanName::Enqueue));
    out.set("seg6-runtime.flush_wait_ns", span_ns_per_pkt(measured, SpanName::Flush));
    out.set("seg6-runtime.recycle_ns", span_ns_per_pkt(measured, SpanName::Recycle));
    out.set("seg6-runtime.rejected_share", rejected_share(system.pool()));

    // Exact allocation count over steady-state passes, taken twice: every
    // thread's allocations but the dispatcher's own inside `flush()` — a
    // handful per barrier, and how many is a race (see `alloc`).
    let mut tracer = Tracer::new();
    let mut count = |system: &mut PoolSystem| {
        system.reset_collector();
        let (before, flush_before) = (allocations(), system.flush_allocs());
        for _ in 0..ALLOC_COUNT_PASSES {
            let failures = system.pass(workload, reference, false, &mut tracer);
            assert_eq!(failures.total(), 0, "allocation-count passes verify like any other");
        }
        (allocations() - before) - (system.flush_allocs() - flush_before)
    };
    let (first, second) = (count(system), count(system));
    assert_eq!(first, second, "seg6-runtime allocation count does not repeat");
    out.set("seg6-runtime.allocs_per_pkt", first as f64 / (ALLOC_COUNT_PASSES * WINDOW as u64) as f64);

    let (p50, p99) =
        layers::idle_roundtrip_us(system.pool_mut(), layers::stateless_frame(workload, reference));
    out.set("seg6-runtime.idle_roundtrip_us", p50);
    out.set("seg6-runtime.idle_roundtrip_us.p99", p99);

    let probe_share =
        workload.frames.iter().filter(|f| f.kind == Kind::Bpf(Prog::EndDm)).count() as f64 / FRAMES as f64;
    let sum = out.get("bench.gen_ns")
        + out.get("netpkt.copy_in_ns")
        + out.get("netpkt.rss_ns")
        + out.get("seg6-runtime.ring_ns")
        + out.get("seg6-core.batch_ns")
        + out.get("srv6-nf.perf_drain_ns") * probe_share
        + out.get("bench.verify_ns");
    close_ledger(sum, measured, out);
}

fn daemon_layers(
    workload: &Workload,
    reference: &Reference,
    measured: &Measured,
    system: &mut DaemonSystem,
    out: &mut LayerValues,
) {
    common_layers(workload, reference, measured, out);
    out.set("srv6d.service_ns", span_ns_per_pkt(measured, SpanName::Service));
    out.set("seg6-runtime.rejected_share", rejected_share(system.daemon().pool()));
    out.set(
        "srv6d.config_parse_us",
        median(&measured.setup_times.iter().map(|t| t.config_parse_us).collect::<Vec<_>>()),
    );
    out.set("srv6d.start_ms", median(&measured.setup_times.iter().map(|t| t.start_ms).collect::<Vec<_>>()));
    out.set("srv6d.drain_ms", median(&measured.drain_ms));

    let shared = system.daemon().shared();
    let (render, speed) = layers::with_host_speed(|| {
        (0..200)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(shared.render_metrics());
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    out.set("srv6d.metrics_render_us", median(&render) * speed);

    // A route-only reload, there and back: the live-patch path.
    let base = system.config_text().to_string();
    let extra =
        base.replacen("route = ::/0 dev 1\n", "route = ::/0 dev 1\nroute = 2001:db8:77::/48 dev 1\n", 1);
    let (reloads, speed) = layers::with_host_speed(|| {
        (0..40)
            .map(|i| {
                let text = if i % 2 == 0 { &extra } else { &base };
                let config = srv6d::Config::parse(text).expect("generated config is valid");
                let started = Instant::now();
                let report = system.daemon().reload(config).expect("route-only reload applies");
                let elapsed = started.elapsed().as_secs_f64() * 1e6;
                assert_eq!(report.routes_changed.len(), 1, "exactly one tenant's routes change");
                elapsed
            })
            .collect::<Vec<f64>>()
    });
    out.set("srv6d.reload_us", median(&reloads) * speed);

    layers::socket_stages(workload, out);
    layers::service_mem_stages(workload, out);
    let mut idle_pool =
        WorkerPool::from_datapath(pool_config(), &workloads::build_tenant_datapath(0).datapath);
    let (p50, p99) = layers::idle_roundtrip_us(&mut idle_pool, layers::stateless_frame(workload, reference));
    idle_pool.shutdown();
    out.set("seg6-runtime.idle_roundtrip_us", p50);
    out.set("seg6-runtime.idle_roundtrip_us.p99", p99);

    // Each frame crosses a socket pair twice: generator → daemon, daemon →
    // capture.
    let sum = out.get("bench.gen_ns")
        + 2.0 * (out.get("netpkt.sock_tx_ns") + out.get("netpkt.sock_rx_ns"))
        + out.get("srv6d.service_mem_ns")
        + out.get("bench.verify_ns");
    close_ledger(sum, measured, out);
}
