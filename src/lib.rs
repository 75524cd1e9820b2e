//! # srv6-ebpf-lab
//!
//! Umbrella crate of the reproduction of *Leveraging eBPF for programmable
//! network functions with IPv6 Segment Routing* (CoNEXT 2018). It re-exports
//! the workspace crates so examples and downstream users can depend on a
//! single crate:
//!
//! * [`netpkt`] — IPv6 / SRH / UDP / TCP wire formats and the one walk of
//!   an IPv6 header chain;
//! * [`ebpf_vm`] — the eBPF virtual machine (ISA, verifier, interpreter,
//!   JIT, maps, helpers, perf events);
//! * [`seg6_core`] — the SRv6 data plane with the `End.BPF` action and the
//!   four SRv6 helpers (the paper's contribution);
//! * [`seg6_runtime`] — the multi-queue batched packet runtime (RSS flow
//!   steering, worker shards with per-CPU map slots, batch execution);
//! * [`simnet`] — the discrete-event network simulator standing in for the
//!   paper's physical lab;
//! * [`srv6_nf`] — the use-case network functions (delay monitoring, hybrid
//!   access WRR, ECMP discovery) written as eBPF bytecode;
//! * [`trafficgen`] — workload generators and the Reno TCP model;
//! * [`srv6d`] — the deployable daemon: batched socket I/O feeding the
//!   multi-tenant worker pool, with config reload and graceful drain.
//!
//! See the `examples/` directory for runnable walkthroughs of each use case
//! and the `bench` crate for the harness regenerating every figure of the
//! paper's evaluation. The §4 use cases are built once, as `bench`'s
//! `delay`, `hybrid` and `ecmp` scenarios: the examples print their results
//! and `tests/use_cases.rs` checks them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ebpf_vm;
pub use netpkt;
pub use seg6_core;
pub use seg6_runtime;
pub use simnet;
pub use srv6_nf;
pub use srv6d;
pub use trafficgen;
