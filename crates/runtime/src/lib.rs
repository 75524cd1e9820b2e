//! # seg6-runtime — the multi-queue batched packet runtime
//!
//! The paper's End.BPF datapath scales the way every kernel datapath does:
//! the NIC spreads flows over hardware queues with RSS, each queue is
//! served by one CPU, programs run on every CPU concurrently, and per-CPU
//! maps plus per-CPU perf rings keep the hot path free of shared writable
//! state. This crate reproduces that architecture in user space with one
//! engine, the persistent [`WorkerPool`]:
//!
//! * packets are classified and hashed by [`netpkt::flow`] (Toeplitz RSS
//!   over the 5-tuple) and steered to one of N **worker shards**;
//! * every shard owns a full [`Seg6Datapath`](seg6_core::Seg6Datapath)
//!   instance per tenant — its own program instances, its own FIB handle,
//!   its own `cpu_id` — so per-CPU maps and `BPF_F_CURRENT_CPU` perf output
//!   resolve to genuinely private slots;
//! * shard threads are spawned once, at construction, and fed over bounded
//!   lock-free descriptor rings through the [`Ingress`] trait, with
//!   backpressure accounting, per-batch perf-drain daemons and graceful
//!   shutdown;
//! * workers take their rings' descriptors in **batches**, each packet
//!   moved once from its ring slot into its output record, and run
//!   [`Seg6Datapath::process_batch_in_place`](seg6_core::Seg6Datapath::process_batch_in_place)
//!   over those records, amortising the batch's FIB snapshot and route
//!   cache;
//! * one counter record: per-tenant × per-shard relaxed-atomic cells
//!   ([`PoolCounters`]) written by the dispatcher (admission) and the
//!   workers (each tenant run's datapath-statistics delta), readable at any
//!   time; [`WorkerPool::flush`] is the barrier after which they balance,
//!   and its report is the window's difference of those same cells.
//!
//! ```
//! use seg6_runtime::{Ingress, PoolConfig, WorkerPool};
//! use seg6_core::{Nexthop, Seg6Datapath};
//! use netpkt::packet::build_ipv6_udp_packet;
//!
//! let mut pool = WorkerPool::new(PoolConfig { workers: 4, ..Default::default() }, |_| {
//!     let mut dp = Seg6Datapath::new("fc00::1".parse().unwrap());
//!     dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
//!     dp
//! });
//! for flow in 0..64u16 {
//!     let pkt = build_ipv6_udp_packet(
//!         "2001:db8::1".parse().unwrap(),
//!         "2001:db8::2".parse().unwrap(),
//!         1000 + flow,
//!         5001,
//!         &[0u8; 64],
//!         64,
//!     );
//!     assert!(pool.enqueue_bytes_at(0, pkt.data()));
//! }
//! let report = pool.flush();
//! assert_eq!(report.run.processed, 64);
//! assert_eq!(report.run.forwarded, 64);
//! ```

#![warn(missing_docs)]
// Unsafe is denied crate-wide and allowed in exactly two modules: the
// lock-free SPSC ring (`ring`), whose slot accesses cannot be expressed in
// safe Rust (its safety argument is documented there and hammered by the
// two-thread stress test, `tests/ring_stress.rs`), and the
// `sched_setaffinity(2)` FFI in `affinity`.
#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod affinity;
pub mod pool;
#[allow(unsafe_code)]
pub mod ring;
pub mod telemetry;

pub use affinity::PinPolicy;
pub use pool::{
    work_cost, BatchDrain, DrainReport, Ingress, PoolConfig, PoolReport, ShardSetup, Tenant, TenantId,
    TenantQos, WorkerPool, COST_BASE, COST_BPF, COST_SEG6LOCAL, COST_TRANSIT, NAPI_BUDGET,
};
pub use telemetry::{PoolCounters, PoolSnapshot, ShardSnapshot, TenantCounters, TenantSnapshot};

/// Hard ceiling on the worker count, matching the CPU slots per-CPU maps
/// are provisioned for by default.
pub const MAX_WORKERS: u32 = ebpf_vm::DEFAULT_NUM_CPUS;
