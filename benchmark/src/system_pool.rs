//! The system under test for the four pool workloads: one datapath, forked
//! onto a one-shard [`WorkerPool`], fed and drained by the benchmark thread.

use crate::alloc::thread_allocations;
use crate::reference::{output_matches, wrr_path, Reference};
use crate::system::{Failures, SetupTimes, System};
use crate::trace::{SpanName, Tracer};
use crate::workloads::{build_pool_datapath, Kind, Prog, Workload, BURST, FRAMES, WINDOW};
use ebpf_vm::perf::PerfEventBuffer;
use parking_lot::Mutex;
use seg6_runtime::{Ingress, PoolConfig, ShardSetup, WorkerPool};
use srv6_nf::DelayCollector;
use std::sync::Arc;
use std::time::Instant;

/// Simulated clock step between passes. Every frame of a pass is stamped
/// `pass index × this`, so `End.DM` reports are reproducible.
const CLOCK_STEP_NS: u64 = 1_000_000;

/// Passes between collector resets. `DelayCollector` keeps every report it
/// ever parsed; starting a fresh one this often keeps memory flat without
/// the reset showing in the rate.
pub const COLLECTOR_RESET_PASSES: u64 = 64;

/// The pool sizing every workload uses (the defaults but for the ring,
/// which must hold a whole window).
pub fn pool_config() -> PoolConfig {
    PoolConfig { workers: 1, batch_size: 32, queue_depth: 2048, collect_outputs: true, ..Default::default() }
}

/// The user-space side of `End.DM`: the collector the shard's drain daemon
/// feeds, and the ring it reads.
struct DelayMonitor {
    collector: Arc<Mutex<DelayCollector>>,
    buffer: Arc<PerfEventBuffer>,
    /// Reports already accounted for in the current collector.
    seen: usize,
}

pub struct PoolSystem {
    pool: WorkerPool,
    monitor: Option<DelayMonitor>,
    passes: u64,
    passes_since_reset: u64,
    wrr_seen: u64,
    /// Allocations this (the dispatcher) thread has made inside `flush()`.
    flush_allocs: u64,
}

impl PoolSystem {
    /// Read access for the per-layer counters (`PoolCounters::snapshot`).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Starts a fresh collector (and a fresh reset period), so two counted
    /// intervals begin from the same collector state.
    pub fn reset_collector(&mut self) {
        self.passes_since_reset = 0;
        if let Some(monitor) = &mut self.monitor {
            *monitor.collector.lock() = DelayCollector::new(Arc::clone(&monitor.buffer));
            monitor.seen = 0;
        }
    }

    /// Allocations the dispatcher thread has made inside `flush()` so far.
    /// They are a handful per barrier, not per packet, and not repeatable
    /// (see `alloc`), so the exact count leaves them out.
    pub fn flush_allocs(&self) -> u64 {
        self.flush_allocs
    }

    /// The pool itself, for probes that drive it directly (the idle
    /// round trip). Callers must offer only stateless frames: no WRR
    /// packet, no `End.DM` probe.
    pub fn pool_mut(&mut self) -> &mut WorkerPool {
        &mut self.pool
    }
}

impl System for PoolSystem {
    fn build(workload: &Workload) -> (Self, SetupTimes) {
        let started = Instant::now();
        let built = build_pool_datapath(workload, None);
        let monitor = built.perf.as_ref().map(|buffer| DelayMonitor {
            collector: Arc::new(Mutex::new(DelayCollector::new(Arc::clone(buffer)))),
            buffer: Arc::clone(buffer),
            seen: 0,
        });
        let pool = WorkerPool::new(pool_config(), |cpu| {
            let setup = ShardSetup::new(built.datapath.fork_for_cpu(cpu));
            match &monitor {
                Some(monitor) => {
                    setup.with_drain(DelayCollector::shard_drain(Arc::clone(&monitor.collector)))
                }
                None => setup,
            }
        });
        let times = SetupTimes { start_ms: started.elapsed().as_secs_f64() * 1e3, ..Default::default() };
        (PoolSystem { pool, monitor, passes: 0, passes_since_reset: 0, wrr_seen: 0, flush_allocs: 0 }, times)
    }

    fn pass(
        &mut self,
        workload: &Workload,
        reference: &Reference,
        full: bool,
        tracer: &mut Tracer,
    ) -> Failures {
        let base = (self.passes as usize % (FRAMES / WINDOW)) * WINDOW;
        let now_ns = self.passes * CLOCK_STEP_NS;
        self.passes += 1;
        let frames = &workload.frames[base..base + WINDOW];
        let expected = &reference.expected[base..base + WINDOW];
        let pool = &mut self.pool;

        tracer.begin_pass();
        let mut accepted = 0;
        for burst in frames.chunks(BURST) {
            accepted += tracer.span(SpanName::Enqueue, || {
                pool.enqueue_bytes_all(now_ns, burst.iter().map(|f| f.bytes.as_slice()))
            });
        }
        let allocs_before = thread_allocations();
        let report = tracer.span(SpanName::Flush, || pool.flush());
        self.flush_allocs += thread_allocations() - allocs_before;
        let produced: usize = report.outputs.iter().map(Vec::len).sum();

        let mut failures = Failures { rejected: (WINDOW - accepted) as u64, ..Default::default() };
        failures.missing = (accepted - produced.min(accepted)) as u64;
        let mut probes = 0;
        if produced == WINDOW {
            // One shard, one tenant: outputs come back in enqueue order.
            let wrr_seen = &mut self.wrr_seen;
            tracer.span(SpanName::Verify, || {
                for ((frame, want), (_, skb, got)) in
                    frames.iter().zip(expected).zip(report.outputs.iter().flatten())
                {
                    let path = if frame.kind == Kind::WrrEncap {
                        *wrr_seen += 1;
                        wrr_path(*wrr_seen - 1)
                    } else {
                        0
                    };
                    probes += usize::from(frame.kind == Kind::Bpf(Prog::EndDm));
                    if !output_matches(want, frame.kind, &got.verdict, skb.packet.data(), full, path) {
                        if got.verdict != want.verdict && frame.kind != Kind::WrrEncap {
                            failures.wrong_verdict += 1;
                        } else {
                            failures.wrong_bytes += 1;
                        }
                    }
                }
            });
        } else {
            // The window is misaligned with its expectations; everything
            // not already counted as rejected or missing counts as wrong.
            failures.wrong_verdict += produced.min(accepted) as u64;
        }
        tracer.span(SpanName::Recycle, || {
            for (_, skb, _) in report.outputs.into_iter().flatten() {
                pool.recycle(skb.into_packet());
            }
        });

        if let Some(monitor) = &mut self.monitor {
            // `end_dm` is checked by event count: one report per probe of
            // this window, each stamped with this window's clock.
            let mut collector = monitor.collector.lock();
            let fresh = &collector.reports()[monitor.seen.min(collector.reports().len())..];
            let stamped = fresh.iter().filter(|r| r.rx_timestamp_ns == now_ns).count();
            if produced == WINDOW && (fresh.len() != probes || stamped != probes) {
                failures.wrong_bytes += (probes.abs_diff(stamped)).max(1) as u64;
            }
            monitor.seen = collector.reports().len();
            self.passes_since_reset += 1;
            if self.passes_since_reset == COLLECTOR_RESET_PASSES {
                *collector = DelayCollector::new(Arc::clone(&monitor.buffer));
                monitor.seen = 0;
                self.passes_since_reset = 0;
            }
        }
        tracer.end_pass();
        failures
    }

    fn drain(self) -> f64 {
        let started = Instant::now();
        let report = self.pool.drain();
        assert_eq!(report.counters.in_flight(), 0, "a drained pool holds no packet");
        started.elapsed().as_secs_f64() * 1e3
    }
}
