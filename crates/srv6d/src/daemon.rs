//! The daemon proper: config → datapaths → worker pool → socket loop.
//!
//! [`Srv6Daemon::start`] builds one [`Seg6Datapath`] template per tenant
//! from the config, registers each as a pool tenant (the pool forks the
//! template per worker shard, sharing the `RouterTables` `Arc` so route
//! edits propagate lock-free), and opens one RX socket per (tenant,
//! queue) plus one TX socket per (tenant, egress interface) through the
//! [`IoBackend`] seam. [`Srv6Daemon::service`] is one poll-loop pass:
//! burst-read every RX socket into the reused [`FrameBatch`], feed the
//! frames to `enqueue_bytes_all` (one copy into recycled `BufPool`
//! storage — the zero-allocation ingest path), then run a flush barrier
//! and emit every `Forward` verdict out of its interface's TX socket,
//! recycling each output buffer back into the arena.
//!
//! [`Srv6Daemon::reload`] applies a validated new config as a diff:
//! route-only changes go straight into the live tables; added tenants are
//! registered on the running pool; removed or structurally changed
//! tenants are *retired* (sockets closed, slot deactivated — the pool
//! keeps their counters; it has no tenant deregistration, by design).
//! [`Srv6Daemon::drain`] is the graceful exit: intake stops, a final
//! flush barrier runs, the last window's forwarded packets are emitted,
//! and the terminal per-tenant counters are reported.

use crate::config::{Config, ConfigError, RouteSpec, SidBehaviour, TenantConfig, TenantDiff};
use crate::io::IoBackend;
use crate::stats::{DaemonShared, StatsServer, TenantIo, TenantMeta};
use netpkt::sockio::{FrameBatch, PacketRx, PacketTx};
use netpkt::Ipv6Prefix;
use seg6_core::{BatchVerdict, Nexthop, Seg6Datapath, Seg6LocalAction, Verdict, MAIN_TABLE};
use seg6_runtime::{DrainReport, Ingress, PoolConfig, ShardSnapshot, TenantId, WorkerPool};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A daemon start/reload failure.
#[derive(Debug)]
pub enum DaemonError {
    /// The configuration was rejected.
    Config(ConfigError),
    /// A socket could not be opened.
    Io(std::io::Error),
}

impl fmt::Display for DaemonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonError::Config(e) => write!(f, "{e}"),
            DaemonError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<ConfigError> for DaemonError {
    fn from(e: ConfigError) -> Self {
        DaemonError::Config(e)
    }
}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}

/// What one [`Srv6Daemon::service`] pass moved.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServicePass {
    /// Frames read off RX sockets this pass.
    pub rx_frames: usize,
    /// Frames emitted out of TX sockets this pass.
    pub tx_frames: usize,
    /// Forwarded packets not emitted (backpressure or no peer).
    pub tx_drops: usize,
}

/// What a [`Srv6Daemon::reload`] changed, by tenant name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReloadReport {
    /// Tenants newly registered on the running pool.
    pub added: Vec<String>,
    /// Tenants retired because the new config no longer lists them.
    pub removed: Vec<String>,
    /// Tenants retired and re-registered because a non-route setting
    /// changed (SIDs, VRFs, sockets — per-fork state the pool cannot
    /// patch in place).
    pub rebuilt: Vec<String>,
    /// Tenants whose route set was patched live through the shared
    /// tables, without touching their sockets or pool slot.
    pub routes_changed: Vec<String>,
    /// Tenants whose QoS keys (weight/quota/budget) were retuned live
    /// through the dispatcher, without touching their sockets or pool
    /// slot. A tenant changing both routes and QoS appears in both lists.
    pub retuned: Vec<String>,
    /// Tenants whose config is byte-identical — untouched.
    pub unchanged: usize,
}

impl fmt::Display for ReloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reload: {} added, {} removed, {} rebuilt, {} route-patched, {} retuned, {} unchanged",
            self.added.len(),
            self.removed.len(),
            self.rebuilt.len(),
            self.routes_changed.len(),
            self.retuned.len(),
            self.unchanged
        )
    }
}

/// One tenant slot's terminal accounting, from [`Srv6Daemon::drain`].
#[derive(Debug, Clone)]
pub struct TenantFinal {
    /// Tenant name.
    pub name: String,
    /// Whether the slot was still serving when the drain started.
    pub active: bool,
    /// The slot's pool counters summed over shards, at quiescence.
    pub totals: ShardSnapshot,
    /// Frames read off the slot's RX sockets, lifetime.
    pub rx_frames: u64,
    /// Frames emitted out of the slot's TX sockets, lifetime.
    pub tx_frames: u64,
    /// Forwarded packets never emitted, lifetime.
    pub tx_drops: u64,
}

/// Result of a graceful [`Srv6Daemon::drain`].
pub struct DaemonDrainReport {
    /// Per-tenant-slot terminal accounting, in slot order.
    pub tenants: Vec<TenantFinal>,
    /// The pool's drain report (final flush stats, quiesced counter
    /// snapshot, per-shard lifetime totals).
    pub drain: DrainReport,
}

/// One tenant slot: its config, its datapath template (kept alive for
/// live route edits — the pool's per-shard forks share its
/// `RouterTables` `Arc`), its sockets and its pool identity.
struct TenantRuntime {
    cfg: TenantConfig,
    id: TenantId,
    template: Seg6Datapath,
    rx: Vec<Box<dyn PacketRx>>,
    tx: Vec<(u32, Box<dyn PacketTx>)>,
    io: Arc<TenantIo>,
    active: bool,
}

/// Builds a tenant's datapath template from its config section.
fn build_datapath(cfg: &TenantConfig) -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(cfg.local);
    for vrf in &cfg.vrfs {
        dp.register_vrf(vrf);
    }
    for route in &cfg.routes {
        apply_route(&mut dp, route);
    }
    for sid in &cfg.sids {
        let action = match &sid.behaviour {
            SidBehaviour::End => Seg6LocalAction::End,
            SidBehaviour::EndT(vrf) => Seg6LocalAction::end_t(dp.register_vrf(vrf)),
            SidBehaviour::EndDt6(vrf) => Seg6LocalAction::end_dt6(dp.register_vrf(vrf)),
        };
        dp.add_local_sid(Ipv6Prefix::host(sid.addr), action);
    }
    dp
}

fn nexthop_of(route: &RouteSpec) -> Nexthop {
    match route.gateway {
        Some(gateway) => Nexthop::via(gateway, route.oif),
        None => Nexthop::direct(route.oif),
    }
}

fn apply_route(dp: &mut Seg6Datapath, route: &RouteSpec) {
    let nexthops = vec![nexthop_of(route)];
    match &route.vrf {
        Some(vrf) => {
            dp.add_route_in_vrf(vrf, route.prefix, nexthops);
        }
        None => dp.add_route(route.prefix, nexthops),
    }
}

fn remove_route(dp: &Seg6Datapath, route: &RouteSpec) -> bool {
    let table = match &route.vrf {
        // The VRF is declared in the config, so it is registered; an
        // unknown name here would be a validation bug, not a user error.
        Some(vrf) => match dp.tables.vrf(vrf) {
            Some(table) => table,
            None => return false,
        },
        None => MAIN_TABLE,
    };
    dp.tables.remove(table, &route.prefix)
}

/// The running daemon: pool, tenant slots, sockets, stats endpoint.
pub struct Srv6Daemon {
    cfg: Config,
    pool: WorkerPool,
    tenants: Vec<TenantRuntime>,
    backend: Box<dyn IoBackend>,
    shared: Arc<DaemonShared>,
    batch: FrameBatch,
    /// The TX emit's grouping storage, reused across passes.
    pending: Vec<Pending>,
    epoch: Instant,
    stats: Option<StatsServer>,
}

impl Srv6Daemon {
    /// Brings the daemon up on a validated config: builds the pool (first
    /// tenant is the pool's default tenant, the rest are registered over
    /// the control channel), opens every socket through `backend`, and
    /// starts the stats server when the config names a socket path.
    pub fn start(cfg: Config, mut backend: Box<dyn IoBackend>) -> Result<Srv6Daemon, DaemonError> {
        let first =
            cfg.tenants.first().ok_or_else(|| ConfigError { line: None, message: "no tenants".into() })?;
        let pool_config = PoolConfig {
            workers: cfg.daemon.workers,
            batch_size: cfg.daemon.batch_size,
            queue_depth: cfg.daemon.queue_depth,
            pinning: cfg.daemon.pinning.clone(),
            pin_dispatcher: cfg.daemon.pin_dispatcher,
            ..PoolConfig::default()
        };
        let template = build_datapath(first);
        let mut pool = WorkerPool::from_datapath(pool_config, &template);
        pool.update_tenant_qos(TenantId::DEFAULT, first.qos.runtime());

        let mut tenants = Vec::with_capacity(cfg.tenants.len());
        tenants.push(open_tenant(&mut *backend, &cfg, first.clone(), TenantId::DEFAULT, template)?);
        for tenant_cfg in &cfg.tenants[1..] {
            let template = build_datapath(tenant_cfg);
            let id = pool.add_tenant(&template, tenant_cfg.qos.runtime());
            tenants.push(open_tenant(&mut *backend, &cfg, tenant_cfg.clone(), id, template)?);
        }

        let shared = DaemonShared::new(pool.counters());
        let stats = match &cfg.daemon.stats_socket {
            Some(path) => Some(StatsServer::spawn(path, Arc::clone(&shared))?),
            None => None,
        };
        let batch = FrameBatch::with_capacity(cfg.daemon.rx_burst);
        let daemon = Srv6Daemon {
            cfg,
            pool,
            tenants,
            backend,
            shared,
            batch,
            pending: Vec::new(),
            epoch: Instant::now(),
            stats,
        };
        daemon.sync_shared();
        Ok(daemon)
    }

    /// The state shared with signal handlers and the stats server —
    /// wire `shared().flags` to SIGHUP/SIGTERM to drive reload and drain.
    pub fn shared(&self) -> Arc<DaemonShared> {
        Arc::clone(&self.shared)
    }

    /// The daemon's current (last successfully applied) config.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Read access to the worker pool (counters, buffer-arena telemetry —
    /// the mint-flat assertions of the zero-allocation tests).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Monotonic nanoseconds since daemon start — the RX timestamp clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One poll-loop pass: burst-read every active tenant's RX queues
    /// into the pool, and — when anything arrived — run a flush barrier
    /// and emit the forwarded outputs. Returns what moved, so the caller
    /// can sleep when the daemon is idle.
    pub fn service(&mut self) -> ServicePass {
        let mut pass = ServicePass::default();
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        for tenant in &mut self.tenants {
            if !tenant.active {
                continue;
            }
            for rx in &mut tenant.rx {
                self.batch.clear();
                let (truncated, datagrams) = (rx.truncated(), rx.datagrams());
                let filled = rx.fill(&mut self.batch);
                let cut = rx.truncated() - truncated;
                if cut > 0 {
                    tenant.io.rx_truncated.fetch_add(cut, Ordering::Relaxed);
                }
                let read = rx.datagrams() - datagrams;
                if read > 0 {
                    tenant.io.rx_datagrams.fetch_add(read, Ordering::Relaxed);
                }
                let got = match filled {
                    Ok(got) => got,
                    Err(_) => continue,
                };
                if got == 0 {
                    continue;
                }
                // One copy: socket bytes → recycled BufPool storage →
                // descriptor ring. Rejected frames (full ring, quota or
                // budget sheds) are counted by the pool's per-tenant
                // counters.
                self.pool.tenant(tenant.id).enqueue_bytes_all(now_ns, self.batch.frames());
                tenant.io.rx_frames.fetch_add(got as u64, Ordering::Relaxed);
                pass.rx_frames += got;
            }
        }
        if pass.rx_frames > 0 {
            let report = self.pool.flush();
            let pool = &mut self.pool;
            let (sent, drops) =
                emit_outputs(&mut self.tenants, &mut self.pending, report.outputs, |packet| {
                    pool.recycle(packet)
                });
            pass.tx_frames += sent;
            pass.tx_drops += drops;
        }
        pass
    }

    /// Lifetime socket syscalls issued by the daemon's RX/TX endpoints —
    /// zero on [`crate::MemBackend`]; on `mmsg`, one `recvmmsg` per RX
    /// queue per [`Srv6Daemon::service`] pass plus one `sendmmsg` per
    /// (tenant, interface) group emitted and per partial-send resume, and
    /// one `send` per frame of a GSO datagram the path refuses.
    /// `backend_differential` holds the kernel run to that bound.
    pub fn io_syscalls(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| {
                t.rx.iter().map(|rx| rx.syscalls()).sum::<u64>()
                    + t.tx.iter().map(|(_, tx)| tx.syscalls()).sum::<u64>()
            })
            .sum()
    }

    /// Applies a validated new config to the running daemon as a diff.
    /// Route-only tenant changes are patched into the live tables (the
    /// per-shard forks observe them lock-free); new tenants are
    /// registered; removed or structurally changed tenants are retired
    /// (their pool slots and counters remain, inactive). The `[daemon]`
    /// section must be unchanged. On error nothing is applied for the
    /// failing tenant onward; earlier diff steps may already be live —
    /// callers should treat a reload error as a reason to drain.
    pub fn reload(&mut self, new: Config) -> Result<ReloadReport, DaemonError> {
        self.cfg.reloadable_from(&new)?;
        let mut report = ReloadReport::default();

        // Retire active tenants the new config no longer lists.
        for tenant in &mut self.tenants {
            if tenant.active && new.tenant(&tenant.cfg.name).is_none() {
                tenant.active = false;
                tenant.rx.clear();
                tenant.tx.clear();
                report.removed.push(tenant.cfg.name.clone());
            }
        }

        for tenant_cfg in &new.tenants {
            let slot = self.tenants.iter().position(|t| t.active && t.cfg.name == tenant_cfg.name);
            match slot {
                Some(slot) => match self.tenants[slot].cfg.diff(tenant_cfg) {
                    TenantDiff::Identical => report.unchanged += 1,
                    TenantDiff::Tunable { routes_changed, qos_changed } => {
                        let tenant = &mut self.tenants[slot];
                        if routes_changed {
                            // Removals first, then inserts: a changed next
                            // hop is remove+insert of the same prefix.
                            for route in &tenant.cfg.routes {
                                if !tenant_cfg.routes.contains(route) {
                                    remove_route(&tenant.template, route);
                                }
                            }
                            for route in &tenant_cfg.routes {
                                if !tenant.cfg.routes.contains(route) {
                                    apply_route(&mut tenant.template, route);
                                }
                            }
                            report.routes_changed.push(tenant_cfg.name.clone());
                        }
                        if qos_changed {
                            // Weight/quota/budget land through the
                            // dispatcher's lock-free QoS cells — the slot,
                            // its sockets and its per-shard forks are
                            // untouched.
                            self.pool.update_tenant_qos(tenant.id, tenant_cfg.qos.runtime());
                            report.retuned.push(tenant_cfg.name.clone());
                        }
                        tenant.cfg = tenant_cfg.clone();
                    }
                    TenantDiff::Structural => {
                        // Structural change: SIDs/VRFs/sockets live in
                        // per-fork snapshots the pool cannot patch — retire
                        // the slot and bring the tenant up fresh under a
                        // new pool id.
                        let tenant = &mut self.tenants[slot];
                        tenant.active = false;
                        tenant.rx.clear();
                        tenant.tx.clear();
                        self.spawn_tenant(&new, tenant_cfg)?;
                        report.rebuilt.push(tenant_cfg.name.clone());
                    }
                },
                None => {
                    self.spawn_tenant(&new, tenant_cfg)?;
                    report.added.push(tenant_cfg.name.clone());
                }
            }
        }
        self.cfg = new;
        self.sync_shared();
        Ok(report)
    }

    /// Graceful shutdown: stop intake (RX sockets closed), run the
    /// pool's drain barrier, emit the final window's forwarded packets,
    /// stop the stats server, and report the terminal per-tenant
    /// counters.
    pub fn drain(mut self) -> DaemonDrainReport {
        for tenant in &mut self.tenants {
            tenant.rx.clear();
        }
        let Srv6Daemon { pool, mut tenants, mut pending, stats, .. } = self;
        let mut drain = pool.drain();
        // The pool is quiesced — the final window's buffers just drop.
        let outputs = std::mem::take(&mut drain.last_flush.outputs);
        emit_outputs(&mut tenants, &mut pending, outputs, |_packet| {});
        if let Some(stats) = stats {
            stats.stop();
        }
        let finals = tenants
            .iter()
            .enumerate()
            .map(|(slot, tenant)| TenantFinal {
                name: tenant.cfg.name.clone(),
                active: tenant.active,
                totals: drain.counters.tenants.get(slot).map(|t| t.totals()).unwrap_or_default(),
                rx_frames: tenant.io.rx_frames.load(Ordering::Relaxed),
                tx_frames: tenant.io.tx_frames.load(Ordering::Relaxed),
                tx_drops: tenant.io.tx_drops.load(Ordering::Relaxed),
            })
            .collect();
        DaemonDrainReport { tenants: finals, drain }
    }

    /// Registers `tenant_cfg` as a fresh pool tenant and opens its
    /// sockets; the new slot is appended (slot index = pool tenant
    /// index, an invariant reloads preserve by never removing slots).
    fn spawn_tenant(&mut self, cfg: &Config, tenant_cfg: &TenantConfig) -> Result<(), DaemonError> {
        let template = build_datapath(tenant_cfg);
        let id = self.pool.add_tenant(&template, tenant_cfg.qos.runtime());
        debug_assert_eq!(id.index(), self.tenants.len(), "slot/tenant index alignment");
        let runtime = open_tenant(&mut *self.backend, cfg, tenant_cfg.clone(), id, template)?;
        self.tenants.push(runtime);
        Ok(())
    }

    fn sync_shared(&self) {
        self.shared.set_tenants(
            self.tenants
                .iter()
                .map(|t| TenantMeta {
                    name: t.cfg.name.clone(),
                    active: t.active,
                    io: Arc::clone(&t.io),
                    budget: t.cfg.qos.budget,
                })
                .collect(),
        );
    }
}

/// A forwarded packet awaiting TX: (tenant slot, egress interface, its
/// position in the flush window, the packet).
type Pending = (usize, u32, usize, seg6_core::Skb);

/// Emits a flush window's `Forward` verdicts, batched: outputs are
/// grouped by (tenant slot, egress interface) and each group moves
/// through one [`PacketTx::send_frames`] call — a single `sendmmsg(2)`
/// on the mmsg backend, a per-frame loop elsewhere. Frames a group's
/// socket could not take (backpressure, transient errors, no socket for
/// the interface) count as TX drops, exactly as the per-frame path did.
/// Every skb is handed to `recycle` afterwards; returns (sent, dropped).
/// `pending` is the caller's grouping storage, empty on entry and on
/// return; the one vector built per call holds a group's frame slices,
/// which borrow the packets they send.
fn emit_outputs(
    tenants: &mut [TenantRuntime],
    pending: &mut Vec<Pending>,
    outputs: Vec<Vec<(TenantId, seg6_core::Skb, BatchVerdict)>>,
    mut recycle: impl FnMut(netpkt::PacketBuf),
) -> (usize, usize) {
    let mut sent_total = 0;
    let mut drops = 0;
    // Split the window: forwards keep their skbs alive (the TX iovecs
    // borrow the packet bytes in place — no copy), everything else is
    // recycled straight away.
    for (tenant_id, skb, batch_verdict) in outputs.into_iter().flatten() {
        match batch_verdict.verdict {
            Verdict::Forward { oif, .. } => pending.push((tenant_id.index(), oif, pending.len(), skb)),
            _ => recycle(skb.into_packet()),
        }
    }
    // Sorting on the window position too gathers each (slot, oif) group
    // with its frames in emission order, without a stable sort's scratch.
    pending.sort_unstable_by_key(|&(slot, oif, seq, _)| (slot, oif, seq));
    let mut frames: Vec<&[u8]> = Vec::with_capacity(pending.len());
    for group in pending.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (slot, oif) = (group[0].0, group[0].1);
        frames.clear();
        frames.extend(group.iter().map(|(_, _, _, skb)| skb.packet.data()));
        match tenants.get_mut(slot) {
            Some(tenant) => {
                let sent = match tenant.tx.iter_mut().find(|(i, _)| *i == oif) {
                    Some((_, tx)) => tx.send_frames(&frames).unwrap_or(0),
                    None => 0,
                };
                tenant.io.tx_frames.fetch_add(sent as u64, Ordering::Relaxed);
                tenant.io.tx_drops.fetch_add((frames.len() - sent) as u64, Ordering::Relaxed);
                sent_total += sent;
                drops += frames.len() - sent;
            }
            None => drops += frames.len(),
        }
    }
    for (_, _, _, skb) in pending.drain(..) {
        recycle(skb.into_packet());
    }
    (sent_total, drops)
}

/// Opens a tenant's sockets (one RX per queue, one TX per peer) and
/// assembles its runtime slot.
fn open_tenant(
    backend: &mut dyn IoBackend,
    cfg: &Config,
    tenant_cfg: TenantConfig,
    id: TenantId,
    template: Seg6Datapath,
) -> Result<TenantRuntime, DaemonError> {
    let mut rx = Vec::with_capacity(cfg.daemon.workers as usize);
    for queue in 0..cfg.daemon.workers {
        rx.push(backend.open_rx(&tenant_cfg.name, queue, tenant_cfg.listen_addr(queue))?);
    }
    let mut tx = Vec::with_capacity(tenant_cfg.peers.len());
    for (oif, peer) in &tenant_cfg.peers {
        tx.push((*oif, backend.open_tx(&tenant_cfg.name, *oif, *peer)?));
    }
    Ok(TenantRuntime {
        cfg: tenant_cfg,
        id,
        template,
        rx,
        tx,
        io: Arc::new(TenantIo::default()),
        active: true,
    })
}
