//! # srv6d — a deployable SRv6 daemon over the reproduction's datapath
//!
//! Everything the workspace built so far processed packets it was handed
//! in memory; the paper's point is programmable SRv6 endpoint functions
//! on a *real* datapath. This crate is the missing edge binary: a
//! long-running daemon that
//!
//! * binds one UDP/IPv6 socket per (tenant, RX queue) and ingests with
//!   one `recvmmsg(2)` per burst ([`netpkt::sockio::mmsg`], Linux only)
//!   straight into recycled `BufPool` storage via the
//!   pool's `enqueue_bytes_all` — one copy in, zero allocations after
//!   warmup;
//! * runs the multi-tenant [`seg6_runtime::WorkerPool`] datapath and
//!   emits every `Forward` verdict back out of a per-interface TX socket,
//!   one `sendmmsg(2)` per (tenant, interface) group;
//! * reads a declarative config ([`config`]) — tenants, VRFs, routes,
//!   local SIDs, queue/shard counts — with strict load-time validation;
//! * applies live reloads as diffs ([`Srv6Daemon::reload`]): route
//!   changes patch the shared tables lock-free, tenant additions
//!   register on the running pool, removals retire slots — untouched
//!   tenants never lose a packet;
//! * drains gracefully ([`Srv6Daemon::drain`]): intake stops, a flush
//!   barrier runs, final per-tenant counters are exact;
//! * serves Prometheus text metrics and reload/drain commands on a unix
//!   socket ([`stats`]).
//!
//! The binary (`src/main.rs`) adds signal handling (SIGHUP → reload,
//! SIGTERM/SIGINT → drain), a `check` mode and a `ctl` client. The
//! library is the daemon minus the process shell, so integration tests
//! drive the identical code over loopback UDP (through the same
//! [`resolve_backend`] call the binary makes) or the in-memory
//! [`io::MemBackend`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod daemon;
pub mod io;
pub mod stats;

pub use config::{
    Config, ConfigError, DaemonConfig, IoBackendChoice, RouteSpec, SidBehaviour, SidSpec, TenantConfig,
};
pub use daemon::{DaemonDrainReport, DaemonError, ReloadReport, ServicePass, Srv6Daemon, TenantFinal};
pub use io::{resolve_backend, IoBackend, MemBackend};
pub use stats::{control, ControlFlags, DaemonShared, StatsServer, TenantIo, TenantMeta};
