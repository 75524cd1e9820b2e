//! The persistent worker pool: long-lived shard threads fed over
//! lock-free SPSC descriptor rings, shared by any number of **tenants**.
//!
//! Kernel datapaths (and the paper's End.BPF deployment) keep one
//! long-lived worker per receive queue: the NIC steers flows to queues
//! with RSS, each queue's CPU runs forever, and user space only observes
//! counters. One such host, though,
//! rarely serves a single routing context: seg6local behaviours like
//! `End.T` and `End.DT6` forward via *specific* tables (VRFs), and one
//! Linux box runs many VRFs on the same set of CPUs. This module
//! reproduces that lifecycle, with a DPDK-style descriptor plane
//! underneath and tenancy as a first-class concept. It is split along its
//! seams: this file is the lifecycle and the [`Ingress`] surface,
//! `admission` prices work and decides what a tenant may publish, and
//! `shard` is the worker thread.
//!
//! * [`WorkerPool::new`] spawns N shard threads **once**; each thread owns
//!   one record per registered **tenant** — its datapath, pinned to the
//!   shard's CPU id, its run queue and its scheduler state — for the
//!   pool's whole life. The pool counts its own spawns
//!   ([`PoolSnapshot::threads_spawned`](crate::PoolSnapshot::threads_spawned)),
//!   so tests assert that the steady state (including tenant
//!   registration) spawns nothing.
//! * [`WorkerPool::add_tenant`] adds a routing context at runtime from a
//!   configured template datapath, which the pool
//!   [`Seg6Datapath::fork_for_cpu`]s per shard, plus the tenant's QoS knobs
//!   ([`TenantQos`]). Each shard's record is built on the calling thread,
//!   shipped to its worker over the sideband control channel and
//!   acknowledged before `add_tenant` returns — so by the time a tenant's
//!   first descriptor can be published, every worker has it installed.
//!   The returned [`TenantId`] stamps descriptors:
//!   [`WorkerPool::tenant`] hands out a [`Tenant`] guard whose [`Ingress`]
//!   methods tag every packet with the tenant, and workers execute each
//!   descriptor on that tenant's datapath. The pool itself implements
//!   [`Ingress`] as the single-tenant shorthand (tenant 0,
//!   [`TenantId::DEFAULT`]).
//! * **Per-tenant QoS** rides the same descriptor plane with no extra
//!   locks, and costs only the tenants that asked for it: a tenant with
//!   neither a quota nor a budget is admitted on ring capacity alone (one
//!   burst enqueue and one counter update per publish), whatever its
//!   neighbours configured. At admission, a tenant with a [`TenantQos::ring_quota`] can
//!   never hold more than its share of a shard's descriptor ring in
//!   flight (the dispatcher compares its cumulative admitted count with
//!   the worker's relaxed-atomic processed counter — an estimate that only
//!   ever errs towards admitting *less*), and a tenant with a
//!   [`TenantQos::cost_budget`] spends from a token bucket (tokens/sec,
//!   refilled on the shard clock carried by the packets' RX timestamps)
//!   priced by the [`work_cost`] model; over-budget packets are shed at
//!   admission and counted exactly as `rejected_over_budget`. Inside a
//!   worker's poll, tenant runs are selected by **deficit round-robin**
//!   (quantum ∝ [`TenantQos::weight`]), each run charged its actual
//!   [`WorkSummary`](seg6_core::WorkSummary)-priced cost — a flooding
//!   tenant burns its own deficit, not its neighbours' latency.
//! * Packets enter as **byte slices** ([`Ingress::enqueue_bytes_all`], and
//!   [`Ingress::enqueue_bytes_at`] for one frame): each frame is copied
//!   into a buffer from the dispatcher's arena, steered by RSS flow hash —
//!   computed only when there is more than one shard to choose from; a
//!   one-shard pool never reads the frame to steer it — and staged per
//!   shard. Each shard's burst is published into its **lock-free SPSC
//!   ring** ([`crate::ring`]) of `(tenant, packet)` descriptors with a
//!   *single* atomic release — no per-descriptor rendezvous with shared
//!   channel state, no blocking paths, wait-free on both sides. A full
//!   ring rejects the packet and counts it in the (tenant, shard) cell of
//!   [`WorkerPool::counters`] — backpressure behaves like a NIC dropping
//!   on a full RX ring, it never blocks the dispatcher.
//!   [`PoolConfig::queue_depth`] rounds **up** to the next power of two
//!   ([`WorkerPool::queue_capacity`]) and the boundary is exact.
//! * Workers drain their rings **adaptively**, NAPI-style: each poll takes
//!   one burst sized by the observed ring occupancy, capped at
//!   [`NAPI_BUDGET`] (the budget a kernel NAPI poll gets before it must
//!   yield), and processes it immediately — a lull's
//!   packets are never delayed, a burst is amortised, and a saturated
//!   ring cannot starve the control channel for more than one budget's
//!   worth of work. Processing stays bounded by
//!   [`PoolConfig::batch_size`] and split into **tenant runs** selected
//!   by deficit round-robin (see above): up to `batch_size` of one
//!   tenant's queued packets execute as one
//!   [`Seg6Datapath::process_batch_in_place`] call on that tenant's
//!   datapath, in place in their output records (each packet moved once,
//!   from its ring slot: see `shard`), with the drain daemon run after
//!   every run — the
//!   pre-tenancy perf-drain cadence is preserved exactly.
//! * Packet storage is **recycled** across tenants through one loop:
//!   workers hand every processed packet over at the flush barrier,
//!   [`WorkerPool::flush`] returns them, and the caller hands each buffer
//!   back into the dispatcher's [`BufPool`] arena with
//!   [`WorkerPool::recycle`]. The arena sizes each buffer
//!   to its frame, in two size classes (small frames, and anything up to a
//!   full socket frame); it mints only when no free buffer of the frame's
//!   class or a larger one is left, and it retains per class up to an
//!   in-flight bound sized for the worker count *and* the tenant count.
//!   Since buffers come back at one point only, a window needs exactly the
//!   buffers it enqueued, so after the first window steady-state ingestion
//!   of a stationary mix performs **zero heap allocations end-to-end**
//!   however many tenants share the pool (proven by the `alloc-counter`
//!   gate, `tests/pool_zero_alloc.rs`).
//! * Control traffic (tenant registration, shutdown)
//!   moves on a **sideband channel** checked between bursts, so the
//!   descriptor plane stays pure data. Idle workers **park** (and a
//!   publish to a sleeping shard's ring unparks it).
//! * The counters are **per tenant × per shard** cells ([`PoolCounters`],
//!   via [`WorkerPool::counters`]): relaxed atomics readable at any time
//!   without a flush barrier, and the pool's only accounting — the
//!   dispatcher writes the admission fields at publish time, each worker
//!   adds a tenant run's [`DatapathStats`](seg6_core::DatapathStats) delta
//!   after the run, and every number the pool reports is read back from
//!   them.
//! * [`WorkerPool::flush`] is a barrier: every shard finishes what it was
//!   handed before the barrier was requested and answers. The barrier
//!   builds nothing per call: each shard shares a request/done **sequence
//!   pair** and an outputs slot with the dispatcher, the request wakes the
//!   worker exactly as a ring publish does, and the dispatcher parks until
//!   `done` catches up (checking that the worker is still alive, so a dead
//!   shard fails the flush loudly instead of hanging it). The report is
//!   the window's difference of the counter cells plus the outputs **in
//!   shard index order**, each carrying its [`TenantId`]; a
//!   shard hands its window's vector over and starts the next window at
//!   the same capacity, so a steady window never regrows it.
//! * Dropping or [`WorkerPool::shutdown`]ting the pool delivers a shutdown
//!   message, lets every worker finish its backlog, runs the final drain,
//!   and joins the threads. No packet or perf event is stranded.

mod admission;
mod shard;
#[cfg(test)]
mod tests;

pub use admission::{work_cost, TenantQos, COST_BASE, COST_BPF, COST_SEG6LOCAL, COST_TRANSIT};
pub use shard::NAPI_BUDGET;

use crate::affinity::PinPolicy;
use crate::telemetry::{PoolCounters, PoolSnapshot, ShardSnapshot, TenantCounters};
use crate::MAX_WORKERS;
use admission::{QosCell, TenantAdmission};
use netpkt::flow::{rss_hash_packet, steer};
use netpkt::{BufPool, PacketBuf};
use seg6_core::{Seg6Datapath, Skb};
use shard::{Ctrl, ShardOutputs, ShardTenant, ShardTx};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Identifier of one tenant (routing context) of a [`WorkerPool`]: a dense
/// index into every shard's tenant records and into the per-tenant
/// counter rows. Obtained from [`WorkerPool::add_tenant`];
/// [`TenantId::DEFAULT`] is the tenant the pool's construction builder
/// created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u16);

impl TenantId {
    /// The tenant created by [`WorkerPool::new`]'s builder — what the
    /// pool's own [`Ingress`] methods stamp.
    pub const DEFAULT: TenantId = TenantId(0);

    /// The dense index of this tenant (registration order).
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    pub(crate) fn from_index(index: usize) -> TenantId {
        TenantId(u16::try_from(index).expect("tenant count fits a u16"))
    }
}

/// A per-shard drain daemon: called on the worker thread after every
/// processed batch (and one final time at shutdown) with the shard's CPU
/// id. The canonical implementation drains the shard's per-CPU perf ring
/// into a collector — see `srv6_nf::daemons::DelayCollector::shard_drain`.
pub type BatchDrain = Box<dyn FnMut(u32) + Send>;

/// What one worker shard is built from: its default tenant's datapath and
/// an optional per-batch drain daemon (the daemon is per *shard* — it runs
/// after every batch whatever mix of tenants the batch carried).
pub struct ShardSetup {
    /// The shard's default-tenant datapath (the pool pins it to the
    /// shard's CPU id).
    pub datapath: Seg6Datapath,
    /// Drain daemon run after every batch on this shard, if any.
    pub drain: Option<BatchDrain>,
}

impl ShardSetup {
    /// A shard with a datapath and no drain daemon.
    pub fn new(datapath: Seg6Datapath) -> Self {
        ShardSetup { datapath, drain: None }
    }

    /// Attaches a per-batch drain daemon (builder form).
    pub fn with_drain(mut self, drain: BatchDrain) -> Self {
        self.drain = Some(drain);
        self
    }
}

impl From<Seg6Datapath> for ShardSetup {
    fn from(datapath: Seg6Datapath) -> Self {
        ShardSetup::new(datapath)
    }
}

/// Configuration of a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker shards (receive queues). Clamped to
    /// `1..=`[`MAX_WORKERS`].
    pub workers: u32,
    /// The dispatcher's staging burst: [`Ingress::enqueue_bytes_all`]
    /// publishes a shard's ring once per this many staged packets — the
    /// ingress-side amortisation knob.
    pub batch_size: usize,
    /// Capacity of each shard's descriptor ring, in packets, **rounded up
    /// to the next power of two** (see [`WorkerPool::queue_capacity`] for
    /// the effective value). An enqueue onto a full ring is rejected and
    /// counted — the pool's backpressure signal.
    pub queue_depth: usize,
    /// Ignored: [`WorkerPool::flush`] always returns the outputs. The
    /// field stays only while the benchmark harness names it in a struct
    /// literal, and goes when that harness stops naming it.
    pub collect_outputs: bool,
    /// How shard threads pin themselves to CPU cores
    /// (`sched_setaffinity(2)` at spawn, inside the worker thread). The
    /// observed placement — the pinned core — is reported per shard in
    /// [`PoolSnapshot::placement`](crate::PoolSnapshot).
    /// Pins that fail (non-Linux, forbidden cpuset) leave the shard
    /// unpinned and running; pinning is a placement hint, never a
    /// correctness requirement.
    pub pinning: PinPolicy,
    /// Pin the dispatcher — the thread that calls [`WorkerPool::new`] and
    /// later drives ingestion — to this core. Applied best-effort during
    /// construction.
    pub pin_dispatcher: Option<u32>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 1,
            batch_size: 32,
            queue_depth: 1024,
            collect_outputs: false,
            pinning: PinPolicy::None,
            pin_dispatcher: None,
        }
    }
}

/// Result of one [`WorkerPool::flush`] barrier.
pub struct PoolReport {
    /// The pool-wide counters of this flush window: what the live cells
    /// ([`WorkerPool::counters`]) counted since the previous flush.
    pub run: ShardSnapshot,
    /// Per-shard outputs, indexed by shard id: each packet processed in
    /// the window with its [`BatchVerdict`](seg6_core::BatchVerdict),
    /// tagged with its [`TenantId`]. Hand each buffer back with
    /// [`WorkerPool::recycle`] after reading it.
    pub outputs: Vec<ShardOutputs>,
}

/// Result of a [`WorkerPool::drain`]: the pool's terminal state, produced
/// after the final flush barrier and before the worker threads exit.
pub struct DrainReport {
    /// The final [`WorkerPool::flush`] barrier's report — the last window
    /// of verdicts and outputs before shutdown.
    pub last_flush: PoolReport,
    /// The per-tenant × per-shard counters at quiescence. Final by
    /// construction: the drain consumed the pool, so no enqueue can
    /// follow the snapshot.
    pub counters: PoolSnapshot,
}

/// What the dispatcher keeps per tenant.
struct TenantRecord {
    /// The tenant's live-counter row (shared with every shard).
    cells: Arc<TenantCounters>,
    /// Ring-quota slot cap and cost-budget bucket.
    admission: TenantAdmission,
    /// The DRR weight cell shared with every shard.
    qos: Arc<QosCell>,
}

/// The persistent, multi-tenant worker pool. See the [module docs](self)
/// for the lifecycle.
pub struct WorkerPool {
    config: PoolConfig,
    shards: Vec<ShardTx>,
    handles: Vec<JoinHandle<()>>,
    counters: Arc<PoolCounters>,
    /// The pool-wide totals of the counter cells at the previous flush
    /// barrier — what the next [`PoolReport::run`] window starts from.
    flushed: ShardSnapshot,
    /// Flush barriers asked for so far: the sequence the shards answer.
    barriers: u64,
    /// One record per tenant, indexed by [`TenantId::index`].
    tenants: Vec<TenantRecord>,
    /// The dispatcher's recycling arena, refilled at the flush barrier.
    bufs: BufPool,
    queue_capacity: usize,
}

impl WorkerPool {
    /// Spawns the pool. `builder` runs once per shard, on the calling
    /// thread, with the shard's CPU id; the [`ShardSetup`] it returns (a
    /// bare [`Seg6Datapath`] converts) becomes the **default tenant**
    /// ([`TenantId::DEFAULT`]) on that shard's thread, where it lives
    /// until shutdown. These construction-time spawns are the only ones
    /// the pool ever performs — registering more tenants later reuses the
    /// same threads.
    pub fn new<S: Into<ShardSetup>>(config: PoolConfig, mut builder: impl FnMut(u32) -> S) -> Self {
        let workers = config.workers.clamp(1, MAX_WORKERS);
        let config = PoolConfig { workers, ..config };
        let queue_capacity = config.queue_depth.max(1).next_power_of_two();
        let counters = Arc::new(PoolCounters::new(workers));
        // Resolve the pin policy against the cores this process may
        // actually use (cgroup cpusets included); each worker applies its
        // own pin on its own thread and records what it got.
        let pin_plan = config.pinning.plan(workers, &crate::affinity::available_cores());
        if let Some(core) = config.pin_dispatcher {
            let _ = crate::affinity::pin_current_thread(core);
        }
        let default = TenantRecord {
            cells: counters.tenant(TenantId::DEFAULT),
            admission: TenantAdmission::from_qos(&TenantQos::default(), queue_capacity),
            qos: Arc::new(QosCell::new(1)),
        };
        let mut shards = Vec::with_capacity(workers as usize);
        let mut handles = Vec::with_capacity(workers as usize);
        for id in 0..workers {
            let setup: ShardSetup = builder(id).into();
            let mut datapath = setup.datapath;
            datapath.cpu_id = id;
            let tenant = ShardTenant::new(datapath, Arc::clone(&default.qos), Arc::clone(&default.cells));
            let (tx, handle) = shard::spawn(
                id,
                &config,
                queue_capacity,
                tenant,
                setup.drain,
                pin_plan[id as usize],
                &counters,
            );
            shards.push(tx);
            handles.push(handle);
        }
        let bufs = BufPool::new(Self::in_flight_bound(&config, queue_capacity, 1));
        WorkerPool {
            config,
            shards,
            handles,
            counters,
            flushed: ShardSnapshot::default(),
            barriers: 0,
            tenants: vec![default],
            bufs,
            queue_capacity,
        }
    }

    /// The arena's retention cap, per size class: per shard a full
    /// descriptor ring, the worker's current poll and the dispatcher's
    /// staging, plus one slack buffer **per tenant** (each tenant's
    /// ingestion path can hold one buffer in hand mid-enqueue). Buffers
    /// come back only at the flush barrier, so the invariant is: a caller
    /// that flushes (and recycles the outputs) at least once per
    /// [`WorkerPool::queue_capacity`] packets per shard never has more
    /// buffers out than this, so the arena never drops one it will need
    /// again — once it has served a window of a stationary mix it mints
    /// nothing, whatever the worker scheduling and however the tenants
    /// interleave.
    fn in_flight_bound(config: &PoolConfig, queue_capacity: usize, tenants: usize) -> usize {
        // A worker holds at most one dequeued poll at a time, and a poll
        // can never exceed the ring's own capacity however large the NAPI
        // budget is — without the cap, small-ring pools would
        // over-provision the arena several-fold.
        let poll = NAPI_BUDGET.min(queue_capacity);
        config.workers as usize * (queue_capacity + poll + config.batch_size.max(1)) + tenants
    }

    /// Builds a pool whose shard `q` runs [`Seg6Datapath::fork_for_cpu`]
    /// of `datapath` as the default tenant — one configured datapath on
    /// every receive queue. Further routing contexts join the same pool
    /// through [`WorkerPool::add_tenant`].
    pub fn from_datapath(config: PoolConfig, datapath: &Seg6Datapath) -> Self {
        WorkerPool::new(config, |cpu| datapath.fork_for_cpu(cpu))
    }

    /// Registers a new tenant — the "one host, many VRFs" shape: `template`
    /// is [`Seg6Datapath::fork_for_cpu`]'d once per shard on the calling
    /// thread (shared-`Arc` FIB/VRF tables, snapshot SID/transit/LWT
    /// tables with shared program and map handles, fresh statistics);
    /// each shard's record is shipped to its worker over the control
    /// channel and **acknowledged** before this returns, so the returned
    /// [`TenantId`] is immediately safe to enqueue with. No threads are
    /// spawned; the live-counter block grows a per-shard row for the
    /// tenant, the dispatcher installs `qos`, and the arena's retention
    /// cap grows to the in-flight bound of the new tenant count. Panics on
    /// a [`TenantQos::ring_quota`] outside `(0, 1]`.
    pub fn add_tenant(&mut self, template: &Seg6Datapath, qos: TenantQos) -> TenantId {
        let admission = TenantAdmission::from_qos(&qos, self.queue_capacity);
        let id = TenantId::from_index(self.tenants.len());
        let cells = self.counters.add_tenant();
        let qos = Arc::new(QosCell::new(qos.weight));
        let acks: Vec<Receiver<()>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(cpu, tx)| {
                let tenant =
                    ShardTenant::new(template.fork_for_cpu(cpu as u32), Arc::clone(&qos), Arc::clone(&cells));
                let (done_tx, done_rx) = channel();
                tx.ctrl
                    .send(Ctrl::AddTenant { tenant: Box::new(tenant), done: done_tx })
                    .expect("worker alive");
                tx.wake();
                done_rx
            })
            .collect();
        for ack in acks {
            ack.recv().expect("worker installed the tenant");
        }
        self.tenants.push(TenantRecord { cells, admission, qos });
        self.bufs.set_max_retained(Self::in_flight_bound(
            &self.config,
            self.queue_capacity,
            self.tenants.len(),
        ));
        id
    }

    /// Re-tunes a registered tenant's QoS in place — no control-channel
    /// round-trip, no slot rebuild, safe while traffic flows. The weight
    /// lands in the shared atomic cell the workers' DRR reads; the ring
    /// quota and cost budget are dispatcher state swapped directly (a
    /// budget rate change keeps the bucket's current level, capped at the
    /// new rate, and its refill clock). This is what srv6d's live reload
    /// uses for weight-/quota-/budget-only config diffs. Panics on a
    /// [`TenantQos::ring_quota`] outside `(0, 1]`, before changing anything.
    pub fn update_tenant_qos(&mut self, tenant: TenantId, qos: TenantQos) {
        assert!(tenant.index() < self.tenants.len(), "unregistered tenant {tenant:?}");
        let record = &mut self.tenants[tenant.index()];
        record.admission.retune(&qos, self.queue_capacity);
        record.qos.set_weight(qos.weight);
    }

    /// Number of registered tenants (including the default one).
    pub fn tenants(&self) -> u32 {
        self.tenants.len() as u32
    }

    /// A guard for enqueueing as `tenant`: its [`Ingress`] methods stamp
    /// every descriptor with the tenant id. Panics on an unregistered id.
    pub fn tenant(&mut self, tenant: TenantId) -> Tenant<'_> {
        assert!(tenant.index() < self.tenants.len(), "unregistered tenant {tenant:?}");
        Tenant { pool: self, id: tenant }
    }

    /// The pool's configuration (with the worker count clamped).
    pub fn config(&self) -> PoolConfig {
        self.config.clone()
    }

    /// Number of worker shards.
    pub fn workers(&self) -> u32 {
        self.config.workers
    }

    /// Effective per-shard descriptor-ring capacity:
    /// [`PoolConfig::queue_depth`] rounded up to the next power of two.
    /// Exactly this many packets fit an idle shard's ring before the first
    /// rejection.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The pool-wide totals of the live counter cells.
    fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for tenant in &self.tenants {
            for shard in 0..self.config.workers {
                total.accumulate(&tenant.cells.shard(shard).sample());
            }
        }
        total
    }

    /// The pool's counters: per-tenant × per-shard relaxed-atomic cells
    /// holding the enqueue/reject/verdict counts, readable from any
    /// thread at any time **without** a flush barrier. The `Arc` stays
    /// valid after shutdown. Every other number the pool reports is read
    /// back from these cells; the admission fields (`enqueued`,
    /// `rejected`, `rejected_over_budget`) are exact at any time on the
    /// dispatcher thread, which writes them.
    pub fn counters(&self) -> Arc<PoolCounters> {
        Arc::clone(&self.counters)
    }

    /// The dispatcher's buffer-recycling arena (telemetry: allocation vs
    /// recycle-hit counts). Buffers flow back into it at the flush barrier
    /// and from [`WorkerPool::recycle`]; every tenant's ingestion draws
    /// from the same arena.
    pub fn buf_pool(&self) -> &BufPool {
        &self.bufs
    }

    /// Hands an output's buffer back to the recycling arena — the way to
    /// return [`PoolReport::outputs`] buffers after reading them, closing
    /// the zero-allocation loop. The pool's own outputs belong here: each
    /// goes back to the size class its storage holds. Any other buffer is
    /// accepted, and one too small for either class is grown into the
    /// small one on the way in ([`BufPool::put`]).
    #[inline]
    pub fn recycle(&mut self, buf: PacketBuf) {
        self.bufs.put(buf);
    }

    /// The shard a packet steers to: the Toeplitz hash of the 5-tuple,
    /// modulo the shard count. Steering is tenant-independent — tenants
    /// share the shards, like VRFs share a host's CPUs. A one-shard pool
    /// has no choice to make and does not read the frame.
    fn steer_to(&self, packet: &[u8]) -> u32 {
        if self.shards.len() == 1 {
            return 0;
        }
        steer(rss_hash_packet(packet), self.shards.len()) as u32
    }

    /// The one staging loop: copies each frame into an arena buffer,
    /// stages it on its shard, publishes every full burst and then every
    /// remainder. Returns how many frames were admitted.
    fn enqueue_as<'a>(
        &mut self,
        tenant: TenantId,
        now_ns: u64,
        frames: impl IntoIterator<Item = &'a [u8]>,
    ) -> usize {
        let burst = self.config.batch_size.max(1);
        let mut accepted = 0;
        for frame in frames {
            let packet = self.bufs.take_filled(frame);
            let shard = self.steer_to(packet.data()) as usize;
            self.shards[shard].staging.push(shard::staged(tenant, Skb::received(packet, now_ns, 0)));
            if self.shards[shard].staging.len() >= burst {
                accepted += self.publish_shard(shard, tenant);
            }
        }
        accepted + self.publish_all(tenant)
    }

    /// Publishes shard `shard`'s staged descriptors — all `tenant`'s, since
    /// every ingestion call stages for one tenant and publishes before it
    /// returns — with one atomic release. A tenant with no
    /// [`TenantQos::ring_quota`] and no [`TenantQos::cost_budget`] is
    /// admitted on ring capacity alone: one burst enqueue, one counter
    /// update. Only a tenant that asked for QoS pays the admission pass
    /// first (`TenantAdmission::filter`). Everything shed or
    /// ring-rejected is accounted exactly in the (tenant, shard) counter
    /// cell — budget sheds on their own counter — and its buffer goes back
    /// to the arena. Wakes the worker when anything was published; returns
    /// the accepted count. No locks, no allocation.
    fn publish_shard(&mut self, shard: usize, tenant: TenantId) -> usize {
        let tx = &mut self.shards[shard];
        if tx.staging.is_empty() {
            return 0;
        }
        debug_assert!(tx.staging.iter().all(|desc| desc.0 == tenant), "staging holds one tenant");
        let record = &mut self.tenants[tenant.index()];
        let cell = record.cells.shard(shard as u32);
        let (mut shed_quota, mut shed_budget) = (0u64, 0u64);
        if record.admission.is_metered() {
            let kept;
            (kept, shed_quota, shed_budget) =
                record.admission.filter(&mut tx.staging, &record.cells, shard as u32, self.config.workers);
            for (_, skb, _) in tx.staging.drain(kept..) {
                self.bufs.put(skb.into_packet());
            }
        }
        let accepted = tx.ring.enqueue_burst(&mut tx.staging);
        let ring_rejected = tx.staging.len() as u64;
        for (_, skb, _) in tx.staging.drain(..) {
            self.bufs.put(skb.into_packet());
        }
        cell.add_ingress(accepted as u64, shed_quota + ring_rejected);
        cell.add_over_budget(shed_budget);
        if accepted > 0 {
            tx.wake();
        }
        accepted
    }

    /// Publishes every shard's remaining staged descriptors (all
    /// `tenant`'s; see [`WorkerPool::publish_shard`]).
    fn publish_all(&mut self, tenant: TenantId) -> usize {
        (0..self.shards.len()).map(|shard| self.publish_shard(shard, tenant)).sum()
    }

    /// Barrier: waits until every shard has processed everything enqueued
    /// before this call, and returns what the counter cells counted since
    /// the previous flush, plus the outputs — always in shard index order,
    /// regardless of which shard finished first. This is where packet
    /// buffers come back: the caller [`WorkerPool::recycle`]s each one.
    pub fn flush(&mut self) -> PoolReport {
        // Hand every shard its barrier first, then collect in index order:
        // the shards drain concurrently, the ordering is imposed only on
        // the collection side.
        self.barriers += 1;
        for tx in &self.shards {
            tx.barrier.request(self.barriers);
            tx.wake();
        }
        let outputs: Vec<ShardOutputs> = self
            .shards
            .iter()
            .zip(&self.handles)
            .map(|(tx, worker)| tx.barrier.wait(self.barriers, worker))
            .collect();
        // Every worker added its runs to the cells before it answered, and
        // its `done` store orders those writes before these reads.
        let totals = self.totals();
        let run = totals.since(&self.flushed);
        self.flushed = totals;
        PoolReport { run, outputs }
    }

    /// Graceful shutdown: every worker finishes its backlog, runs its
    /// final drain, and exits; the threads are joined. Returns each
    /// shard's lifetime totals (the counter cells summed over tenants), in
    /// shard index order. Dropping the pool does the same, minus the
    /// report.
    pub fn shutdown(mut self) -> Vec<ShardSnapshot> {
        self.stop();
        for handle in self.handles.drain(..) {
            handle.join().expect("worker thread panicked");
        }
        self.counters.snapshot().shards
    }

    /// Graceful drain, the daemon's shutdown sequence in one call: run a
    /// [`WorkerPool::flush`] barrier so every packet enqueued before this
    /// point is processed (and its outputs collected), snapshot the live
    /// counters at that quiesced moment — the **final** per-tenant
    /// accounting, since intake has stopped by construction (`self` is
    /// consumed) — then shut the workers down and join them.
    pub fn drain(mut self) -> DrainReport {
        let last_flush = self.flush();
        let counters = self.counters.snapshot();
        self.shutdown();
        DrainReport { last_flush, counters }
    }

    fn stop(&mut self) {
        for tx in self.shards.drain(..) {
            let _ = tx.ctrl.send(Ctrl::Shutdown);
            tx.wake();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// An enqueue guard for one tenant of a [`WorkerPool`] (from
/// [`WorkerPool::tenant`]): its [`Ingress`] methods stamp every
/// descriptor with the tenant's id, so the worker executes them on that
/// tenant's datapath and the admission/verdict counters land in the
/// tenant's row of [`WorkerPool::counters`].
pub struct Tenant<'p> {
    pool: &'p mut WorkerPool,
    id: TenantId,
}

impl Tenant<'_> {
    /// The tenant this guard enqueues as.
    pub fn id(&self) -> TenantId {
        self.id
    }
}

/// The pool's ingress surface: everything that feeds packets into a
/// [`WorkerPool`] on behalf of some tenant. Implemented by the pool
/// itself (as [`TenantId::DEFAULT`] — the single-tenant shorthand) and by
/// the [`Tenant`] guard; every method body lives here, as a provided
/// method over [`Ingress::target`], so the two implementations cannot
/// drift apart. Packets enter as byte slices copied into the pool's own
/// recycled storage. Consumers that only feed packets (srv6d's service
/// loop, capture replay) take `impl Ingress` and work identically against
/// either.
///
/// The trait has generic methods, so it is deliberately not object-safe —
/// take `&mut impl Ingress` (static dispatch on the hot path), not
/// `&mut dyn Ingress`.
pub trait Ingress {
    /// The pool this handle feeds and the tenant its packets are stamped
    /// with.
    fn target(&mut self) -> (&mut WorkerPool, TenantId);

    /// [`Ingress::enqueue_bytes_all`] of one frame. Returns `false` —
    /// counting the rejection or QoS shed — when the frame was not
    /// admitted.
    fn enqueue_bytes_at(&mut self, now_ns: u64, frame: &[u8]) -> bool {
        self.enqueue_bytes_all(now_ns, std::iter::once(frame)) == 1
    }

    /// Copies every frame into a **recycled** packet buffer, steers it to
    /// its shard and enqueues it with clock `now_ns` (the packets' RX
    /// timestamp, and the time their batch will be processed at) — the
    /// zero-allocation ingestion front-end for sources that own their
    /// bytes (capture replay, srv6d's socket reads). Descriptors are
    /// staged per shard and published in bursts of
    /// [`PoolConfig::batch_size`], one atomic ring publish per burst.
    /// Returns how many frames were admitted.
    fn enqueue_bytes_all<'a>(&mut self, now_ns: u64, frames: impl IntoIterator<Item = &'a [u8]>) -> usize {
        let (pool, tenant) = self.target();
        pool.enqueue_as(tenant, now_ns, frames)
    }
}

impl Ingress for WorkerPool {
    fn target(&mut self) -> (&mut WorkerPool, TenantId) {
        (self, TenantId::DEFAULT)
    }
}

impl Ingress for Tenant<'_> {
    fn target(&mut self) -> (&mut WorkerPool, TenantId) {
        (self.pool, self.id)
    }
}
