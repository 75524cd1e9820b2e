//! Pool-wide live counters: barrier-free, per-tenant × per-shard metrics
//! for a running pool.
//!
//! [`WorkerPool::flush`](crate::WorkerPool::flush) is a barrier — it
//! reports exact deltas, but only by making every shard stop and answer.
//! A metrics endpoint scraping a production datapath cannot afford that;
//! it wants the kernel model instead, where `ethtool -S`-style counters
//! are per-queue cells the datapath updates locally and readers sample at
//! any time without synchronising with the hot path.
//!
//! [`PoolCounters`] reproduces that, with **tenancy** as the outer
//! dimension: one [`TenantCounters`] block per registered tenant, each a
//! row of [`ShardCounters`] cells (one per shard), each cell a set of
//! relaxed atomics. These cells are the pool's **only** accounting — every
//! number [`WorkerPool`](crate::WorkerPool) reports (`flush().run`,
//! `shutdown()`, `drain().counters`) is read back from them, and callers
//! read them through [`PoolCounters::snapshot`]. Each field has one
//! writer: the dispatcher adds
//! `enqueued` / `rejected` / `rejected_over_budget` at publish time; the
//! shard's worker adds `processed` / `forwarded` / `local_delivered` /
//! `dropped` (one cell per [`DropReason`]) / `batches` / `cost` once per
//! tenant run — the run's delta of
//! the tenant datapath's own [`DatapathStats`], one plain load + store per
//! counter per run (a single writer needs no locked read-modify-write),
//! nothing per packet; the two writers' fields sit on separate cache
//! lines. The hot path never touches a lock:
//! the dispatcher and every worker hold direct `Arc`s to their
//! tenants' cell blocks (handed over on the control channel when a tenant
//! registers); only registration and [`PoolCounters::snapshot`] take the
//! tenant-list lock.
//!
//! Consistency: each individual counter is exact (updated by exactly one
//! thread); a snapshot taken *while traffic is moving* may straddle a
//! batch (e.g. `enqueued` already includes packets whose `processed`
//! increment has not landed yet). At any quiet point — after a
//! [`flush`](crate::WorkerPool::flush) barrier returns — every cell
//! balances, per tenant and per shard: `enqueued = processed = forwarded +
//! local_delivered + Σ dropped` (regression-tested in the pool and
//! tenant-isolation tests). The per-tenant rows sum to the aggregated
//! per-shard view by construction.

use crate::pool::TenantId;
use crate::ring::CachePadded;
use seg6_core::{DatapathStats, DropReason};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Live counters of one (tenant, shard) cell. All cells are relaxed
/// atomics: written by exactly one thread each (dispatcher or the shard's
/// worker), readable by anyone at any time. Because each field has one
/// writer, an update is a plain load + store — no locked read-modify-write
/// — and the two writers' fields live on separate cache lines, so a
/// publish never takes the line a tenant run is counting on.
#[derive(Debug, Default)]
pub struct ShardCounters {
    ingress: CachePadded<IngressCounters>,
    work: CachePadded<WorkCounters>,
}

/// The fields the dispatcher writes, at publish time.
#[derive(Debug, Default)]
struct IngressCounters {
    /// Packets accepted into the shard's descriptor ring.
    enqueued: AtomicU64,
    /// Packets rejected because the ring was full.
    rejected: AtomicU64,
    /// Packets shed at admission because the tenant's cost budget was
    /// exhausted. Not included in `rejected`.
    rejected_over_budget: AtomicU64,
}

/// The fields the shard's worker writes.
#[derive(Debug, Default)]
struct WorkCounters {
    /// Packets processed by the worker.
    processed: AtomicU64,
    /// Forward verdicts.
    forwarded: AtomicU64,
    /// Local-delivery verdicts.
    local_delivered: AtomicU64,
    /// Drop verdicts, indexed by reason as [`DatapathStats::dropped`] is.
    /// The drop total is their sum; there is no second counter.
    dropped: [AtomicU64; DropReason::ALL.len()],
    /// Batches (tenant runs) executed by the worker.
    batches: AtomicU64,
    /// Cost-model units charged for processed work, priced by
    /// [`work_cost`](crate::work_cost) from the emitted `WorkSummary`s.
    cost: AtomicU64,
}

/// Adds `n` to a counter only the calling thread writes.
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl ShardCounters {
    /// Dispatcher-side accounting: one call per published burst.
    pub(crate) fn add_ingress(&self, enqueued: u64, rejected: u64) {
        if enqueued > 0 {
            bump(&self.ingress.0.enqueued, enqueued);
        }
        if rejected > 0 {
            bump(&self.ingress.0.rejected, rejected);
        }
    }

    /// Worker-side accounting: one call per processed tenant run, with
    /// the tenant datapath's counters before and after the run and the
    /// run's priced cost.
    pub(crate) fn add_run(&self, before: &DatapathStats, after: &DatapathStats, cost: u64) {
        let work = &self.work.0;
        bump(&work.processed, after.received - before.received);
        bump(&work.forwarded, after.forwarded - before.forwarded);
        bump(&work.local_delivered, after.local_delivered - before.local_delivered);
        for ((cell, after), before) in work.dropped.iter().zip(after.dropped).zip(before.dropped) {
            let delta = after - before;
            if delta > 0 {
                bump(cell, delta);
            }
        }
        bump(&work.batches, 1);
        bump(&work.cost, cost);
    }

    /// Dispatcher-side accounting: packets shed because the tenant's cost
    /// budget was exhausted.
    pub(crate) fn add_over_budget(&self, shed: u64) {
        if shed > 0 {
            bump(&self.ingress.0.rejected_over_budget, shed);
        }
    }

    /// Relaxed read of the enqueued counter, by its only writer (the
    /// dispatcher): what it has admitted into this shard's ring so far.
    pub(crate) fn enqueued_relaxed(&self) -> u64 {
        self.ingress.0.enqueued.load(Ordering::Relaxed)
    }

    /// Relaxed read of the processed counter — the dispatcher's ring
    /// occupancy estimate subtracts this from what it has admitted.
    pub(crate) fn processed_relaxed(&self) -> u64 {
        self.work.0.processed.load(Ordering::Relaxed)
    }

    /// Relaxed read of the charged cost — the dispatcher's budget true-up
    /// debits the surcharge (cost beyond the base already charged at
    /// admission) against the tenant's token bucket.
    pub(crate) fn cost_relaxed(&self) -> u64 {
        self.work.0.cost.load(Ordering::Relaxed)
    }

    /// Samples this cell's counters.
    pub fn sample(&self) -> ShardSnapshot {
        let (ingress, work) = (&self.ingress.0, &self.work.0);
        ShardSnapshot {
            enqueued: ingress.enqueued.load(Ordering::Relaxed),
            rejected: ingress.rejected.load(Ordering::Relaxed),
            processed: work.processed.load(Ordering::Relaxed),
            forwarded: work.forwarded.load(Ordering::Relaxed),
            local_delivered: work.local_delivered.load(Ordering::Relaxed),
            dropped: work.dropped.each_ref().map(|cell| cell.load(Ordering::Relaxed)),
            batches: work.batches.load(Ordering::Relaxed),
            rejected_over_budget: ingress.rejected_over_budget.load(Ordering::Relaxed),
            cost: work.cost.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time sample of one counter cell (or a sum of cells).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Packets accepted into the shard's descriptor ring since pool start.
    pub enqueued: u64,
    /// Packets rejected by a full ring (backpressure) since pool start.
    pub rejected: u64,
    /// Packets processed by the worker.
    pub processed: u64,
    /// Forward verdicts.
    pub forwarded: u64,
    /// Local-delivery verdicts.
    pub local_delivered: u64,
    /// Drop verdicts, indexed by reason (`reason as usize`, the order of
    /// [`DropReason::ALL`]).
    pub dropped: [u64; DropReason::ALL.len()],
    /// Batches (tenant runs) executed.
    pub batches: u64,
    /// Packets shed at admission by an exhausted cost budget (distinct
    /// from `rejected`, which counts ring-full and quota sheds).
    pub rejected_over_budget: u64,
    /// Cost-model units charged for processed work.
    pub cost: u64,
}

impl ShardSnapshot {
    /// Drop verdicts, every reason summed.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Drop verdicts for `reason`.
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        self.dropped[reason as usize]
    }

    /// What was counted between the `earlier` sample of the same cells and
    /// this one — a flush window's counters.
    pub fn since(&self, earlier: &ShardSnapshot) -> ShardSnapshot {
        ShardSnapshot {
            enqueued: self.enqueued - earlier.enqueued,
            rejected: self.rejected - earlier.rejected,
            processed: self.processed - earlier.processed,
            forwarded: self.forwarded - earlier.forwarded,
            local_delivered: self.local_delivered - earlier.local_delivered,
            dropped: std::array::from_fn(|i| self.dropped[i] - earlier.dropped[i]),
            batches: self.batches - earlier.batches,
            rejected_over_budget: self.rejected_over_budget - earlier.rejected_over_budget,
            cost: self.cost - earlier.cost,
        }
    }

    /// Adds another sample cell-by-cell (summing tenants into the global
    /// per-shard view, or shards into a tenant total).
    pub fn accumulate(&mut self, other: &ShardSnapshot) {
        self.enqueued += other.enqueued;
        self.rejected += other.rejected;
        self.processed += other.processed;
        self.forwarded += other.forwarded;
        self.local_delivered += other.local_delivered;
        for (total, add) in self.dropped.iter_mut().zip(other.dropped) {
            *total += add;
        }
        self.batches += other.batches;
        self.rejected_over_budget += other.rejected_over_budget;
        self.cost += other.cost;
    }
}

/// The live counter row of one tenant: one [`ShardCounters`] cell per
/// shard. The dispatcher and the workers hold direct `Arc`s to the rows of
/// the tenants they serve — updating a cell never takes a lock.
#[derive(Debug)]
pub struct TenantCounters {
    shards: Box<[ShardCounters]>,
}

impl TenantCounters {
    fn new(workers: u32) -> Self {
        TenantCounters { shards: (0..workers).map(|_| ShardCounters::default()).collect() }
    }

    /// This tenant's cell on `shard`.
    pub fn shard(&self, shard: u32) -> &ShardCounters {
        &self.shards[shard as usize]
    }

    /// Samples every shard cell of this tenant, in shard index order.
    pub fn sample(&self) -> TenantSnapshot {
        TenantSnapshot { shards: self.shards.iter().map(ShardCounters::sample).collect() }
    }
}

/// A point-in-time sample of one tenant's row, in shard index order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Per-shard samples, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
}

impl TenantSnapshot {
    /// This tenant's totals across all shards.
    pub fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for shard in &self.shards {
            total.accumulate(shard);
        }
        total
    }
}

/// A consistent-at-quiescence sample of the whole pool: the per-tenant
/// rows plus the aggregated per-shard view (each `shards[q]` is the sum of
/// every tenant's cell on shard `q`, so the tenant rows always sum exactly
/// to the global view by construction). See the [module docs](self) for
/// what "consistent" means while traffic moves.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Per-tenant rows, indexed by tenant id.
    pub tenants: Vec<TenantSnapshot>,
    /// Aggregated per-shard samples (summed over tenants), indexed by
    /// shard id.
    pub shards: Vec<ShardSnapshot>,
    /// Where each shard thread landed, indexed by shard id: the core it
    /// pinned to, if [`PoolConfig::pinning`](crate::PoolConfig::pinning)
    /// asked for one and `sched_setaffinity` succeeded. srv6d exports it
    /// as `srv6d_shard_pinned_core`.
    pub placement: Vec<PlacementSnapshot>,
    /// OS threads this pool has spawned over its whole life: exactly one
    /// per shard, all at construction. Tenant registration, traffic and
    /// shutdown never add to it.
    pub threads_spawned: u64,
}

/// One shard thread's observed placement (see [`PoolSnapshot::placement`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlacementSnapshot {
    /// The core the shard thread successfully pinned itself to, `None`
    /// when unpinned (policy `None`, or the pin failed).
    pub pinned_core: Option<u32>,
}

impl PoolSnapshot {
    /// Sums a counter over every shard.
    fn total(&self, field: impl Fn(&ShardSnapshot) -> u64) -> u64 {
        self.shards.iter().map(field).sum()
    }

    /// Pool-wide totals as one cell.
    pub fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for shard in &self.shards {
            total.accumulate(shard);
        }
        total
    }

    /// Total packets accepted across all shards and tenants.
    pub fn enqueued(&self) -> u64 {
        self.total(|s| s.enqueued)
    }

    /// Total packets rejected (backpressure) across all shards.
    pub fn rejected(&self) -> u64 {
        self.total(|s| s.rejected)
    }

    /// Total packets processed across all shards.
    pub fn processed(&self) -> u64 {
        self.total(|s| s.processed)
    }

    /// Total forward verdicts across all shards.
    pub fn forwarded(&self) -> u64 {
        self.total(|s| s.forwarded)
    }

    /// Total local deliveries across all shards.
    pub fn local_delivered(&self) -> u64 {
        self.total(|s| s.local_delivered)
    }

    /// Total drop verdicts across all shards.
    pub fn dropped(&self) -> u64 {
        self.total(ShardSnapshot::total_dropped)
    }

    /// Total packets shed at admission by exhausted cost budgets.
    pub fn rejected_over_budget(&self) -> u64 {
        self.total(|s| s.rejected_over_budget)
    }

    /// Total cost-model units charged across all shards.
    pub fn cost(&self) -> u64 {
        self.total(|s| s.cost)
    }

    /// Packets accepted but not yet processed at sample time — the live
    /// backlog estimate a load-shedding controller would watch.
    pub fn in_flight(&self) -> u64 {
        self.enqueued().saturating_sub(self.processed())
    }
}

/// The pool's live counter block: one [`TenantCounters`] row per tenant.
/// Held behind an `Arc` by the pool, its workers, and any number of metric
/// readers ([`WorkerPool::counters`](crate::WorkerPool::counters) hands
/// out clones). The lock guards only the row *list* (taken on tenant
/// registration and on snapshot); the rows themselves are lock-free.
#[derive(Debug)]
pub struct PoolCounters {
    workers: u32,
    tenants: RwLock<Vec<Arc<TenantCounters>>>,
    /// Per-shard pinned cores, written once by each worker thread at
    /// spawn (after its pin attempt) and sampled into
    /// [`PoolSnapshot::placement`]. `UNPINNED` encodes "none".
    pinned_cores: Box<[AtomicU64]>,
    /// Bumped by the pool at its one `thread::Builder::spawn` site.
    threads_spawned: AtomicU64,
}

/// Sentinel for "no core" in the pinned-core cells.
const UNPINNED: u64 = u64::MAX;

impl PoolCounters {
    /// A counter block with one (default) tenant row.
    pub(crate) fn new(workers: u32) -> Self {
        PoolCounters {
            workers,
            tenants: RwLock::new(vec![Arc::new(TenantCounters::new(workers))]),
            pinned_cores: (0..workers).map(|_| AtomicU64::new(UNPINNED)).collect(),
            threads_spawned: AtomicU64::new(0),
        }
    }

    /// Records one shard-thread spawn.
    pub(crate) fn count_thread_spawn(&self) {
        self.threads_spawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records shard `shard`'s observed placement — called once by the
    /// worker thread itself, right after its pin attempt.
    pub(crate) fn record_placement(&self, shard: u32, core: Option<u32>) {
        self.pinned_cores[shard as usize].store(core.map_or(UNPINNED, u64::from), Ordering::Relaxed);
    }

    /// Appends a fresh tenant row and returns it (the pool hands the `Arc`
    /// to the dispatcher and, over the control channel, to every worker).
    pub(crate) fn add_tenant(&self) -> Arc<TenantCounters> {
        let row = Arc::new(TenantCounters::new(self.workers));
        self.tenants.write().expect("counter registry lock").push(Arc::clone(&row));
        row
    }

    /// Number of shards each tenant row covers.
    pub fn workers(&self) -> usize {
        self.workers as usize
    }

    /// Number of registered tenant rows.
    pub fn tenants(&self) -> usize {
        self.tenants.read().expect("counter registry lock").len()
    }

    /// One tenant's live counter row.
    pub fn tenant(&self, tenant: TenantId) -> Arc<TenantCounters> {
        Arc::clone(&self.tenants.read().expect("counter registry lock")[tenant.index()])
    }

    /// Samples every tenant row, barrier-free, and aggregates the global
    /// per-shard view. Tenant and shard indices match registration order.
    pub fn snapshot(&self) -> PoolSnapshot {
        let rows = self.tenants.read().expect("counter registry lock");
        let tenants: Vec<TenantSnapshot> = rows.iter().map(|row| row.sample()).collect();
        drop(rows);
        let mut shards = vec![ShardSnapshot::default(); self.workers as usize];
        for tenant in &tenants {
            for (aggregate, cell) in shards.iter_mut().zip(&tenant.shards) {
                aggregate.accumulate(cell);
            }
        }
        let placement = self
            .pinned_cores
            .iter()
            .map(|cell| {
                let core = cell.load(Ordering::Relaxed);
                PlacementSnapshot { pinned_core: (core != UNPINNED).then_some(core as u32) }
            })
            .collect();
        let threads_spawned = self.threads_spawned.load(Ordering::Relaxed);
        PoolSnapshot { tenants, shards, placement, threads_spawned }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_both_sides() {
        let counters = PoolCounters::new(2);
        let row = counters.tenant(TenantId::DEFAULT);
        row.shard(0).add_ingress(10, 2);
        row.shard(1).add_ingress(5, 0);
        let mut after =
            DatapathStats { received: 10, forwarded: 8, local_delivered: 1, ..Default::default() };
        after.dropped[DropReason::NoRoute as usize] = 1;
        row.shard(0).add_run(&DatapathStats::default(), &after, 12);
        let snap = counters.snapshot();
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.tenants.len(), 1);
        assert_eq!(snap.shards[0].enqueued, 10);
        assert_eq!(snap.shards[0].rejected, 2);
        assert_eq!(snap.shards[0].processed, 10);
        assert_eq!(snap.shards[0].forwarded, 8);
        assert_eq!(snap.shards[0].local_delivered, 1);
        assert_eq!(snap.shards[0].dropped_for(DropReason::NoRoute), 1);
        assert_eq!(snap.shards[0].total_dropped(), 1);
        assert_eq!(snap.dropped(), 1);
        let cell = &snap.shards[0];
        assert_eq!(cell.processed, cell.forwarded + cell.local_delivered + cell.total_dropped());
        assert_eq!((snap.shards[0].batches, snap.shards[0].cost), (1, 12));
        assert_eq!(snap.shards[1].enqueued, 5);
        assert_eq!(snap.enqueued(), 15);
        assert_eq!(snap.rejected(), 2);
        assert_eq!(snap.processed(), 10);
        assert_eq!(snap.in_flight(), 5);
        assert_eq!(snap.tenants[0].totals().enqueued, 15);
        // A window is the difference of two samples of the same cells.
        row.shard(0).add_ingress(4, 1);
        let window = counters.snapshot().shards[0].since(&snap.shards[0]);
        assert_eq!(window, ShardSnapshot { enqueued: 4, rejected: 1, ..Default::default() });
    }

    #[test]
    fn tenant_rows_sum_to_the_aggregated_shards() {
        let counters = PoolCounters::new(2);
        let second = counters.add_tenant();
        assert_eq!(counters.tenants(), 2);
        counters.tenant(TenantId::DEFAULT).shard(0).add_ingress(7, 1);
        second.shard(0).add_ingress(3, 0);
        second.shard(1).add_ingress(2, 2);
        let snap = counters.snapshot();
        for shard in 0..2 {
            let mut summed = ShardSnapshot::default();
            for tenant in &snap.tenants {
                summed.accumulate(&tenant.shards[shard]);
            }
            assert_eq!(summed, snap.shards[shard], "shard {shard}");
        }
        assert_eq!(snap.enqueued(), 12);
        assert_eq!(snap.rejected(), 3);
        assert_eq!(snap.tenants[1].totals().enqueued, 5);
    }

    #[test]
    fn in_flight_saturates() {
        let counters = PoolCounters::new(1);
        let after = DatapathStats { received: 3, ..Default::default() };
        counters.tenant(TenantId::DEFAULT).shard(0).add_run(&DatapathStats::default(), &after, 3);
        // Processed can transiently exceed enqueued in a torn mid-traffic
        // sample; the backlog estimate must not wrap.
        assert_eq!(counters.snapshot().in_flight(), 0);
    }
}
