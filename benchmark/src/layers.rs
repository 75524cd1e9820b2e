//! The per-layer half of the `--trace 1` run: each layer's public function
//! driven alone, single-threaded, over the workload's own 4096 frames.
//!
//! Every stage restores its inputs outside the timed region and times one
//! sweep over all the frames it applies to; the median sweep is reported
//! as nanoseconds per packet (per program run for the VM stages). Nothing
//! here feeds an end-to-end metric.

use crate::alloc::{allocations, thread_allocations};
use crate::calibrate::Calibrator;
use crate::metrics::LayerValues;
use crate::reference::Reference;
use crate::stats::{median, percentile};
use crate::workloads::{
    build_datapath, daemon_config_text, program_source, Built, Kind, Prog, Workload, BURST, SOCKET_WINDOW,
    TENANT_NAMES,
};
use ebpf_vm::perf::{PerfEvent, PerfEventBuffer};
use ebpf_vm::program::{load, ExecTier};
use ebpf_vm::vm::{run_program_with_state, RunContext, RunState};
use netpkt::flow::{rss_hash_packet, steer};
use netpkt::sockio::{FrameBatch, PacketRx, PacketTx, DEFAULT_FRAME_CAP};
use netpkt::{BufPool, Ipv6Header, MmsgRx, MmsgTx, PacketBuf};
use seg6_core::{ctx, srv6_ops, BatchVerdict, EnvOutcome, FibCache, Seg6Env, Skb, MAIN_TABLE};
use seg6_runtime::ring::spsc_ring;
use seg6_runtime::{Ingress, WorkerPool};
use srv6_nf::{DelayCollector, DelayEvent};
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed sweeps per stage are chosen so a stage runs about this long.
const STAGE_TIME: Duration = Duration::from_millis(40);
/// Samples of the idle round trip.
const IDLE_SAMPLES: usize = 20_000;
/// Clock handed to every isolated datapath call.
const NOW_NS: u64 = 1_000_000;

/// Calibration before and after each stage.
const STAGE_CALIBRATION: Duration = Duration::from_micros(500);

/// Runs `work` between two calibration bursts and returns its result with
/// the host speed (relative to the reference) it ran at. Every time this
/// module reports is multiplied by that speed — see `calibrate`.
pub fn with_host_speed<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let mut calibrator = Calibrator::new();
    calibrator.run_for(STAGE_CALIBRATION);
    let result = work();
    calibrator.run_for(STAGE_CALIBRATION);
    (result, calibrator.take().1)
}

/// Median seconds (at reference host speed) of `sweep` over a number of
/// runs sized to `STAGE_TIME`, with `restore` run (untimed) on the same
/// state before each.
fn median_sweep<T>(state: &mut T, restore: impl Fn(&mut T), sweep: impl Fn(&mut T)) -> f64 {
    restore(state);
    let started = Instant::now();
    sweep(state);
    let first = started.elapsed().max(Duration::from_nanos(100));
    let runs = ((STAGE_TIME.as_secs_f64() / first.as_secs_f64()) as usize).clamp(9, 301);
    let (samples, speed) = with_host_speed(|| {
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            restore(state);
            let started = Instant::now();
            sweep(state);
            samples.push(started.elapsed().as_secs_f64());
        }
        samples
    });
    median(&samples) * speed
}

/// [`median_sweep`] for a stage with nothing to restore.
fn median_of(sweep: impl Fn()) -> f64 {
    median_sweep(&mut (), |_| {}, |_| sweep())
}

fn ns_per(items: usize, seconds: f64) -> f64 {
    if items == 0 {
        0.0
    } else {
        seconds * 1e9 / items as f64
    }
}

fn dst_of(frame: &[u8]) -> Option<Ipv6Addr> {
    srv6_ops::outer_dst(frame).ok()
}

/// The isolated stages every workload has.
pub fn isolated(workload: &Workload, reference: &Reference, out: &mut LayerValues) {
    let frames: Vec<&[u8]> = workload.frames.iter().map(|f| f.bytes.as_slice()).collect();
    let n = frames.len();
    let built: Vec<Built> = (0..workload.tenants).map(|t| build_datapath(workload, t, None)).collect();

    // netpkt: header parse, RSS hash + steer, copy-in.
    let secs = median_of(|| {
        for frame in &frames {
            let _ = black_box(Ipv6Header::parse(black_box(frame)));
        }
    });
    out.set("netpkt.parse_ns", ns_per(n, secs));
    let secs = median_of(|| {
        for frame in &frames {
            black_box(steer(rss_hash_packet(black_box(frame)), 1));
        }
    });
    out.set("netpkt.rss_ns", ns_per(n, secs));
    out.set("netpkt.copy_in_ns", copy_in_ns(&frames));
    out.set("netpkt.bytes_copied_per_pkt", frames.iter().map(|f| f.len()).sum::<usize>() as f64 / n as f64);

    // seg6-core: SID classification, SRH advance, FIB lookup.
    let dsts: Vec<(usize, Ipv6Addr)> =
        workload.frames.iter().filter_map(|f| Some((f.tenant, dst_of(&f.bytes)?))).collect();
    let secs = median_of(|| {
        for (tenant, dst) in &dsts {
            black_box(built[*tenant].datapath.local_sids.lookup(black_box(*dst)));
        }
    });
    out.set("seg6-core.classify_ns", ns_per(dsts.len(), secs));
    out.set("seg6-core.srh_advance_ns", srh_advance_ns(&frames));
    let routed: Vec<(usize, Ipv6Addr)> = workload
        .frames
        .iter()
        .zip(&reference.expected)
        .filter(|(_, e)| e.verdict.is_forward())
        .filter_map(|(f, e)| Some((f.tenant, dst_of(&e.bytes)?)))
        .collect();
    let fibs: Vec<FibCache> = built
        .iter()
        .map(|b| {
            let mut fib = FibCache::new();
            fib.refresh(&b.datapath.tables);
            fib
        })
        .collect();
    let secs = median_of(|| {
        for (tenant, dst) in &routed {
            black_box(fibs[*tenant].lookup(MAIN_TABLE, black_box(*dst), 7));
        }
    });
    out.set("seg6-core.fib_lookup_ns", ns_per(routed.len(), secs));

    // seg6-core: the whole datapath, batches of 32, no pool.
    let all: Vec<usize> = (0..n).collect();
    let mut batches = BatchStage::new(workload, &all);
    out.set("seg6-core.batch_ns", batches.ns_per_pkt());
    out.set("seg6-core.allocs_per_pkt", batches.allocs_per_pkt());
    let dropped: Vec<usize> =
        (0..n).filter(|i| reference.expected[*i].verdict.drop_reason().is_some()).collect();
    if !dropped.is_empty() {
        out.set("seg6-core.drop_ns", BatchStage::new(workload, &dropped).ns_per_pkt());
    }

    // ebpf-vm and srv6-nf: program runs per tier, load time, perf drain.
    let progs = workload.programs();
    if !progs.is_empty() {
        vm_stages(workload, &built[0], &progs, out);
    }
    if progs.contains(&Prog::EndDm) {
        out.set("srv6-nf.perf_drain_ns", perf_drain_ns());
    }

    // seg6-runtime: the descriptor ring alone.
    out.set("seg6-runtime.ring_ns", ring_ns(&frames));

    // The benchmark's own cost of producing the frame slices.
    let secs = median_of(|| {
        for burst in workload.frames.chunks(BURST) {
            black_box(
                burst.iter().map(|f| f.bytes.as_slice()).fold(0usize, |acc, f| acc + black_box(f).len()),
            );
        }
    });
    out.set("bench.gen_ns", ns_per(n, secs));
}

/// `BufPool::take_filled` + `put`, a window at a time, as ingest does.
fn copy_in_ns(frames: &[&[u8]]) -> f64 {
    const HELD: usize = 1024;
    let mut state = (BufPool::new(HELD), Vec::<PacketBuf>::with_capacity(HELD));
    let secs = median_sweep(
        &mut state,
        |_| {},
        |(pool, held)| {
            for window in frames.chunks(HELD) {
                for frame in window {
                    held.push(pool.take_filled(frame));
                }
                for buf in held.drain(..) {
                    pool.put(buf);
                }
            }
        },
    );
    ns_per(frames.len(), secs)
}

/// `advance_srh` + `decrement_hop_limit`, in place, on every frame that
/// can be advanced.
fn srh_advance_ns(frames: &[&[u8]]) -> f64 {
    let advancable: Vec<&[u8]> =
        frames.iter().copied().filter(|f| srv6_ops::advance_srh(&mut f.to_vec()).is_ok()).collect();
    let mut scratch: Vec<Vec<u8>> = advancable.iter().map(|f| f.to_vec()).collect();
    let secs = median_sweep(
        &mut scratch,
        |scratch| {
            for (copy, original) in scratch.iter_mut().zip(&advancable) {
                copy.copy_from_slice(original);
            }
        },
        |scratch| {
            for packet in scratch.iter_mut() {
                black_box(srv6_ops::advance_srh(packet)).ok();
                black_box(srv6_ops::decrement_hop_limit(packet)).ok();
            }
        },
    );
    ns_per(advancable.len(), secs)
}

/// `process_batch_verdicts_into` over a subset of the frames, 32 at a time.
struct BatchStage {
    datapaths: Vec<Built>,
    /// `(tenant, frame)` of every selected frame, grouped so no batch of 32
    /// straddles two tenants.
    selected: Vec<(usize, Vec<u8>)>,
    skbs: Vec<Skb>,
    verdicts: Vec<BatchVerdict>,
}

impl BatchStage {
    const BATCH: usize = 32;

    fn new(workload: &Workload, indices: &[usize]) -> Self {
        let mut selected: Vec<(usize, Vec<u8>)> =
            indices.iter().map(|i| (workload.frames[*i].tenant, workload.frames[*i].bytes.clone())).collect();
        selected.sort_by_key(|(tenant, _)| *tenant);
        let skbs = selected.iter().map(|(_, f)| Skb::new(PacketBuf::from_slice(f))).collect();
        BatchStage {
            datapaths: (0..workload.tenants).map(|t| build_datapath(workload, t, None)).collect(),
            selected,
            skbs,
            verdicts: Vec::with_capacity(Self::BATCH),
        }
    }

    fn restore(&mut self) {
        for (skb, (_, frame)) in self.skbs.iter_mut().zip(&self.selected) {
            skb.packet.reset(netpkt::buf::DEFAULT_HEADROOM);
            skb.packet.append(frame);
            skb.mark = 0;
            skb.rx_timestamp_ns = NOW_NS;
            skb.route_override = Default::default();
        }
        for built in &self.datapaths {
            if let Some(perf) = &built.perf {
                perf.drain();
            }
        }
    }

    fn sweep(&mut self) {
        let mut start = 0;
        while start < self.skbs.len() {
            let tenant = self.selected[start].0;
            let mut end = (start + Self::BATCH).min(self.skbs.len());
            while self.selected[end - 1].0 != tenant {
                end -= 1;
            }
            self.verdicts.clear();
            self.datapaths[tenant].datapath.process_batch_verdicts_into(
                &mut self.skbs[start..end],
                NOW_NS,
                &mut self.verdicts,
            );
            black_box(&self.verdicts);
            start = end;
        }
    }

    fn ns_per_pkt(&mut self) -> f64 {
        let secs = median_sweep(self, BatchStage::restore, BatchStage::sweep);
        ns_per(self.skbs.len(), secs)
    }

    /// Heap allocations per packet over one warm sweep — an exact count,
    /// taken twice; the two must agree.
    fn allocs_per_pkt(&mut self) -> f64 {
        let mut count = || {
            self.restore();
            let before = allocations();
            self.sweep();
            allocations() - before
        };
        count();
        let (first, second) = (count(), count());
        assert_eq!(first, second, "seg6-core allocation count does not repeat");
        first as f64 / self.skbs.len() as f64
    }
}

/// The mutable half of one program's isolated runs.
struct VmRun {
    packets: Vec<Vec<u8>>,
    ctxs: Vec<Vec<u8>>,
    env: Seg6Env,
    state: RunState,
    /// Instructions executed by the last sweep.
    insns: u64,
}

/// Every program of the workload, run alone under a `Seg6Env` on each tier.
fn vm_stages(workload: &Workload, built: &Built, progs: &[Prog], out: &mut LayerValues) {
    let helpers = &built.datapath.helpers;
    let mut runs = 0usize;
    let mut insns = 0u64;
    let mut tier_secs = [0.0f64; ExecTier::ALL.len()];

    for prog in progs {
        let loaded = built.program(*prog);
        let inputs: Vec<&[u8]> = workload
            .frames
            .iter()
            .filter(|f| f.kind.prog() == Some(*prog))
            .map(|f| f.bytes.as_slice())
            .collect();
        // What the hook hands the program: the packet with its SRH already
        // advanced (End.BPF) or untouched (LWT), and the context for it.
        let packets0: Vec<Vec<u8>> = inputs
            .iter()
            .map(|f| {
                let mut packet = f.to_vec();
                if !prog.is_lwt() {
                    srv6_ops::advance_srh(&mut packet).expect("End.BPF frames carry a live SRH");
                }
                packet
            })
            .collect();
        let ctxs0: Vec<Vec<u8>> = inputs
            .iter()
            .zip(&packets0)
            .map(|(f, packet)| {
                let mut bytes = Vec::new();
                ctx::build_context_into(&Skb::received(PacketBuf::from_slice(f), NOW_NS, 0), &mut bytes);
                ctx::refresh_packet_len(&mut bytes, packet.len());
                bytes
            })
            .collect();
        let mut env = Seg6Env::new(built.datapath.local_addr, Arc::clone(&built.datapath.tables), NOW_NS);
        if !prog.is_lwt() {
            env = env.with_srh_offset(netpkt::IPV6_HEADER_LEN);
        }
        let mut run = VmRun {
            packets: packets0.clone(),
            ctxs: ctxs0.clone(),
            env,
            state: RunState::new(ctx::offsets::SIZE),
            insns: 0,
        };
        let restore = |run: &mut VmRun| {
            for (packet, original) in run.packets.iter_mut().zip(&packets0) {
                packet.clear();
                packet.extend_from_slice(original);
            }
            for (bytes, original) in run.ctxs.iter_mut().zip(&ctxs0) {
                bytes.copy_from_slice(original);
            }
            if let Some(perf) = &built.perf {
                perf.drain();
            }
            run.insns = 0;
        };
        let sweep = |run: &mut VmRun, tier: ExecTier| {
            for (packet, bytes) in run.packets.iter_mut().zip(run.ctxs.iter_mut()) {
                run.env.out = EnvOutcome::default();
                let mut rc = RunContext { ctx: bytes.as_mut_slice(), packet, env: &mut run.env };
                black_box(run_program_with_state(loaded, helpers, &mut rc, tier, &mut run.state)).ok();
                run.insns += run.state.insn_executed;
            }
        };

        for (slot, tier) in ExecTier::ALL.iter().enumerate() {
            let secs = median_sweep(&mut run, restore, |run| sweep(run, *tier));
            tier_secs[slot] += secs;
            if *tier == loaded.exec_tier() && Prog::SHIPPED.contains(prog) {
                out.set(&format!("srv6-nf.{}.run_ns", prog.metric_name()), ns_per(inputs.len(), secs));
            }
        }
        restore(&mut run);
        sweep(&mut run, ExecTier::Interp);
        insns += run.insns;
        runs += inputs.len();
    }

    for (slot, tier) in ExecTier::ALL.iter().enumerate() {
        out.set(&format!("ebpf-vm.run_ns.{}", tier.name()), ns_per(runs, tier_secs[slot]));
    }
    out.set("ebpf-vm.insns_per_pkt", insns as f64 / runs.max(1) as f64);

    // Context build for the frames that run a program.
    let skbs: Vec<Skb> = workload
        .frames
        .iter()
        .filter(|f| f.kind.prog().is_some())
        .map(|f| Skb::received(PacketBuf::from_slice(&f.bytes), NOW_NS, 0))
        .collect();
    let secs = median_sweep(
        &mut Vec::new(),
        |_| {},
        |bytes| {
            for skb in &skbs {
                ctx::build_context_into(black_box(skb), bytes);
                black_box(&bytes);
            }
        },
    );
    out.set("seg6-core.ctx_build_ns", ns_per(skbs.len(), secs));

    // Verify + compile every tier, summed over the workload's programs.
    let mut load_us = 0.0;
    for prog in progs {
        let (samples, speed) = with_host_speed(|| {
            (0..5)
                .map(|_| {
                    let (program, maps, _) = program_source(*prog);
                    let started = Instant::now();
                    black_box(load(program, &maps, helpers).expect("shipped program verifies"));
                    started.elapsed().as_secs_f64() * 1e6
                })
                .collect::<Vec<f64>>()
        });
        load_us += median(&samples) * speed;
    }
    out.set("ebpf-vm.load_us", load_us);
}

/// `DelayCollector::poll` per queued event.
fn perf_drain_ns() -> f64 {
    const EVENTS: usize = 1024;
    let buffer = Arc::new(PerfEventBuffer::new(EVENTS));
    let event = DelayEvent {
        tx_timestamp_ns: 42_000,
        rx_timestamp_ns: NOW_NS,
        controller: "2001:db8:ffff::c0".parse().expect("static address"),
        controller_port: 9999,
    };
    let secs = median_sweep(
        &mut DelayCollector::new(Arc::clone(&buffer)),
        |collector| {
            *collector = DelayCollector::new(Arc::clone(&buffer));
            for _ in 0..EVENTS {
                buffer.push(PerfEvent { cpu: 0, data: event.to_bytes().to_vec() });
            }
        },
        |collector| {
            black_box(collector.poll());
        },
    );
    ns_per(EVENTS, secs)
}

/// `spsc_ring` `enqueue_burst` + `dequeue_burst` of packet descriptors,
/// producer and consumer on one thread (so no cross-core traffic: that
/// part of the pool's hand-off shows up in the ledger gap instead).
fn ring_ns(frames: &[&[u8]]) -> f64 {
    const LIVE: usize = 1024;
    let (producer, consumer) = spsc_ring::<Skb>(2048);
    let idle: Vec<Skb> = frames.iter().take(LIVE).map(|f| Skb::new(PacketBuf::from_slice(f))).collect();
    let live = idle.len();
    let mut state = (producer, consumer, idle, Vec::<Skb>::with_capacity(32), Vec::<Skb>::with_capacity(256));
    let secs = median_sweep(
        &mut state,
        |_| {},
        |(producer, consumer, idle, staging, polled)| {
            while let Some(skb) = idle.pop() {
                staging.push(skb);
                if staging.len() == 32 || idle.is_empty() {
                    producer.enqueue_burst(staging);
                }
            }
            while consumer.dequeue_burst(polled, 256) > 0 {
                idle.append(polled);
            }
        },
    );
    ns_per(live, secs)
}

/// p50 and p99 of one frame → `flush` → one output, on an idle pool, in
/// microseconds. This is mostly the host's thread wake-up cost; it is
/// reported so a reader can tell a host-idle change from a code change.
pub fn idle_roundtrip_us(pool: &mut WorkerPool, frame: &[u8]) -> (f64, f64) {
    let mut samples = Vec::with_capacity(IDLE_SAMPLES);
    for _ in 0..IDLE_SAMPLES {
        let started = Instant::now();
        pool.enqueue_bytes_at(0, frame);
        let report = pool.flush();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
        for (_, skb, _) in report.outputs.into_iter().flatten() {
            pool.recycle(skb.into_packet());
        }
    }
    (percentile(&samples, 50.0), percentile(&samples, 99.0))
}

/// A frame the idle round trip may send: forwarded, and stateless (no WRR
/// packet, no `End.DM` probe).
pub fn stateless_frame<'a>(workload: &'a Workload, reference: &Reference) -> &'a [u8] {
    workload
        .frames
        .iter()
        .zip(&reference.expected)
        .find(|(f, e)| {
            f.tenant == 0
                && e.verdict.is_forward()
                && !matches!(f.kind, Kind::WrrEncap | Kind::Bpf(Prog::EndDm))
        })
        .map(|(f, _)| f.bytes.as_slice())
        .expect("every workload forwards some stateless frame")
}

// --- stages only the daemon workload has ------------------------------------

/// `MmsgTx::send_frames` / `MmsgRx::fill` over a loopback socket pair, one
/// socket window at a time.
pub fn socket_stages(workload: &Workload, out: &mut LayerValues) {
    let mut rx = MmsgRx::bind("[::1]:0").expect("bind loopback socket");
    let mut tx = MmsgTx::connect(rx.local_addr().expect("bound address")).expect("connect loopback socket");
    let mut batch = FrameBatch::new(SOCKET_WINDOW, DEFAULT_FRAME_CAP);
    let (mut tx_secs, mut rx_secs) = (Vec::new(), Vec::new());
    let mut moved = 0usize;
    for _ in 0..5 {
        let (mut tx_total, mut rx_total) = (Duration::ZERO, Duration::ZERO);
        let ((), speed) = with_host_speed(|| {
            for block in workload.frames.chunks(SOCKET_WINDOW) {
                let refs: Vec<&[u8]> = block.iter().map(|f| f.bytes.as_slice()).collect();
                let started = Instant::now();
                let sent = tx.send_frames(&refs).expect("loopback send");
                tx_total += started.elapsed();
                let mut got = 0;
                let deadline = Instant::now() + Duration::from_millis(250);
                while got < sent && Instant::now() < deadline {
                    batch.clear();
                    let started = Instant::now();
                    got += rx.fill(&mut batch).expect("loopback receive");
                    rx_total += started.elapsed();
                }
                moved += got;
            }
        });
        tx_secs.push(tx_total.as_secs_f64() * speed);
        rx_secs.push(rx_total.as_secs_f64() * speed);
    }
    let n = workload.frames.len();
    out.set("netpkt.sock_tx_ns", ns_per(n, median(&tx_secs)));
    out.set("netpkt.sock_rx_ns", ns_per(n, median(&rx_secs)));
    out.set(
        "netpkt.syscalls_per_kframe",
        (tx.syscalls() + rx.syscalls()) as f64 * 1000.0 / moved.max(1) as f64,
    );
}

/// `service()` over `MemBackend`: the daemon path without the kernel.
/// Reports ns per packet and the exact allocation count per packet (taken
/// twice; the two must agree).
pub fn service_mem_stages(workload: &Workload, out: &mut LayerValues) {
    use srv6d::{Config, MemBackend, Srv6Daemon};
    /// Sweeps per half of the allocation count: enough `service()` calls
    /// (16 a sweep) for some to find their barrier already answered.
    const HALF: usize = 12;
    let ports: Vec<(u16, u16)> = (0..workload.tenants as u16).map(|t| (47_000 + t, 47_100 + t)).collect();
    let config = Config::parse(&daemon_config_text(&ports)).expect("generated config is valid");
    let mem = MemBackend::new(4 * SOCKET_WINDOW);
    let mut daemon = Srv6Daemon::start(config, Box::new(mem.clone())).expect("daemon starts in memory");
    let mut sink = FrameBatch::new(SOCKET_WINDOW, DEFAULT_FRAME_CAP);

    // One sweep: every frame through the daemon, a socket window per tenant
    // per `service()` call.
    struct Sweep {
        /// Seconds inside `service()`, at reference host speed.
        seconds: f64,
        /// Allocations inside `service()` by threads other than this one.
        worker_allocs: u64,
        /// The fewest allocations this thread made inside one `service()`.
        caller_allocs_min: u64,
        calls: u64,
    }
    let mut sweep = || {
        let mut result = Sweep { seconds: 0.0, worker_allocs: 0, caller_allocs_min: u64::MAX, calls: 0 };
        let (in_service, speed) = with_host_speed(|| {
            let mut in_service = Duration::ZERO;
            for round in workload.frames.chunks(SOCKET_WINDOW * workload.tenants) {
                for frame in round {
                    assert!(mem.inject(TENANT_NAMES[frame.tenant], 0, &frame.bytes), "mem link has room");
                }
                let (all_before, caller_before) = (allocations(), thread_allocations());
                let started = Instant::now();
                let pass = daemon.service();
                in_service += started.elapsed();
                let caller = thread_allocations() - caller_before;
                result.worker_allocs += allocations() - all_before - caller;
                result.caller_allocs_min = result.caller_allocs_min.min(caller);
                result.calls += 1;
                assert_eq!(pass.tx_frames, round.len(), "every frame is forwarded");
                for name in &TENANT_NAMES[..workload.tenants] {
                    sink.clear();
                    mem.drain_egress(name, 1, &mut sink);
                }
            }
            in_service
        });
        result.seconds = in_service.as_secs_f64() * speed;
        result
    };
    sweep();
    let sweeps: Vec<Sweep> = (0..2 * HALF).map(|_| sweep()).collect();
    // The exact count, taken twice (first and second half of the sweeps):
    // what the workers allocate inside `service()` must repeat. The caller's
    // own allocations are charged at the fewest any one call made — the call
    // ends in the pool's flush barrier, which allocates once more when it
    // has to park and once more at every 31st barrier (see `alloc`).
    let workers = |half: &[Sweep]| {
        assert!(
            half.windows(2).all(|w| w[0].worker_allocs == w[1].worker_allocs),
            "worker allocations repeat"
        );
        half[0].worker_allocs
    };
    let (first, second) = (workers(&sweeps[..HALF]), workers(&sweeps[HALF..]));
    assert_eq!(first, second, "srv6d allocation count does not repeat");
    let caller = sweeps[0].calls * sweeps.iter().map(|s| s.caller_allocs_min).min().expect("sweeps");
    let n = workload.frames.len();
    out.set("srv6d.service_mem_ns", ns_per(n, median(&sweeps.iter().map(|s| s.seconds).collect::<Vec<_>>())));
    out.set("srv6d.allocs_per_pkt", (first + caller) as f64 / n as f64);
    daemon.drain();
}
