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
//! underneath and tenancy as a first-class concept:
//!
//! * [`WorkerPool::new`] spawns N shard threads **once**; each thread owns
//!   a dense `Vec<Seg6Datapath>` — one datapath per registered **tenant**,
//!   each pinned to the shard's CPU id — for the pool's whole life. The
//!   pool counts its own spawns
//!   ([`PoolSnapshot::threads_spawned`](crate::PoolSnapshot::threads_spawned)),
//!   so tests assert that the steady state (including tenant
//!   registration) spawns nothing.
//! * [`WorkerPool::add_tenant`] adds a routing context at runtime from a
//!   configured template datapath, which the pool
//!   [`Seg6Datapath::fork_for_cpu`]s per shard, plus the tenant's QoS knobs
//!   ([`TenantQos`]). Each fork is
//!   shipped to its worker over the sideband control channel and
//!   acknowledged before `add_tenant` returns — so by the time a tenant's
//!   first descriptor can be published, every worker has its datapath
//!   installed. The returned [`TenantId`] stamps descriptors:
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
//!   [`WorkSummary`]-priced cost — a flooding
//!   tenant burns its own deficit, not its neighbours' latency.
//! * The dispatcher steers packets by RSS flow hash — computed only when
//!   there is more than one shard to choose from; a one-shard pool never
//!   reads the frame to steer it — into per-shard
//!   **lock-free SPSC rings** ([`crate::ring`]) carrying
//!   `(tenant, packet)` descriptors — no per-descriptor rendezvous with
//!   shared channel state, no blocking paths, wait-free on both sides.
//!   Batch ingestion APIs ([`WorkerPool::enqueue_all`],
//!   [`WorkerPool::enqueue_bytes_all`] and their [`Tenant`] twins) stage
//!   descriptors per shard and publish each shard's burst with a *single*
//!   atomic release. A full ring rejects the packet and counts it in the
//!   (tenant, shard) cell — readable per shard
//!   ([`WorkerPool::shard_stats`]) *and* per tenant
//!   ([`WorkerPool::tenant_stats`]) — backpressure behaves like a NIC
//!   dropping on a full RX ring, it never blocks the dispatcher.
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
//!   [`Seg6Datapath::process_batch_verdicts_into`] call on that tenant's
//!   datapath, with the drain daemon run after every run — the
//!   pre-tenancy perf-drain cadence is preserved exactly.
//! * Packet storage is **recycled** across tenants through one loop:
//!   workers hand every processed packet over at the flush barrier, and
//!   [`WorkerPool::flush`] either returns them
//!   ([`PoolConfig::collect_outputs`]; the caller hands each buffer back
//!   with [`WorkerPool::recycle`]) or puts every buffer back into the
//!   dispatcher's [`BufPool`] arena itself. The dispatcher mints a
//!   full-frame buffer only when the arena is empty, and the arena retains
//!   up to an in-flight bound sized for the worker count *and* the tenant
//!   count; since buffers come back at one point only, a window needs
//!   exactly the buffers it enqueued, so after the first window
//!   steady-state byte-slice ingestion performs **zero heap allocations
//!   end-to-end** however many tenants share the pool (proven by the
//!   `alloc-counter` gate, `tests/pool_zero_alloc.rs`).
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
//!   the window's difference of the counter cells plus the collected
//!   outputs **in shard index order**, each carrying its [`TenantId`]; a
//!   shard hands its window's vector over and starts the next window at
//!   the same capacity, so a steady window never regrows it.
//! * Dropping or [`WorkerPool::shutdown`]ting the pool delivers a shutdown
//!   message, lets every worker finish its backlog, runs the final drain,
//!   and joins the threads. No packet or perf event is stranded.

use crate::affinity::PinPolicy;
use crate::ring::{self, Consumer, Producer};
use crate::telemetry::{PoolCounters, PoolSnapshot, ShardSnapshot, TenantCounters, TenantSnapshot};
use crate::MAX_WORKERS;
use netpkt::flow::{rss_hash_packet, steer};
use netpkt::{BufPool, PacketBuf};
use seg6_core::{BatchVerdict, Seg6Datapath, Skb, WorkSummary};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Identifier of one tenant (routing context) of a [`WorkerPool`]: a dense
/// index into every shard's datapath vector and into the per-tenant
/// counter rows. Obtained from [`WorkerPool::add_tenant`];
/// [`TenantId::DEFAULT`] is the tenant the pool's construction builder
/// created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u16);

impl TenantId {
    /// The tenant created by [`WorkerPool::new`]'s builder — what the
    /// pool's plain (tenant-less) `enqueue*` methods stamp.
    pub const DEFAULT: TenantId = TenantId(0);

    /// The dense index of this tenant (registration order).
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    pub(crate) fn from_index(index: usize) -> TenantId {
        TenantId(u16::try_from(index).expect("tenant count fits a u16"))
    }
}

/// Cost-model token every packet is charged, whatever work it ends up
/// doing — the admission estimate a [`TenantQos::cost_budget`] spends per
/// packet (the work surcharges below are unknown before execution and are
/// debited from the bucket afterwards, from the worker's live counters).
pub const COST_BASE: u64 = 1;
/// Cost-model surcharge for a packet whose seg6local behaviour ran.
pub const COST_SEG6LOCAL: u64 = 2;
/// Cost-model surcharge for a packet that executed an eBPF program
/// (End.BPF or an LWT hook) — the expensive work class.
pub const COST_BPF: u64 = 4;
/// Cost-model surcharge for a packet a transit behaviour (SRH
/// insertion/encapsulation) was applied to.
pub const COST_TRANSIT: u64 = 2;

/// Prices one processed packet from the work classes the datapath already
/// emits ([`seg6_core::WorkSummary`]): the base token plus a surcharge per
/// exercised class. This is the unit [`TenantQos::cost_budget`] buckets
/// are denominated in and the charge deficit round-robin subtracts from a
/// tenant's deficit after every run.
pub fn work_cost(work: &WorkSummary) -> u64 {
    COST_BASE
        + if work.seg6local { COST_SEG6LOCAL } else { 0 }
        + if work.bpf { COST_BPF } else { 0 }
        + if work.transit { COST_TRANSIT } else { 0 }
}

/// A tenant's QoS knobs. The default is exactly the pre-QoS behaviour:
/// weight 1, no ring quota, no cost budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQos {
    /// Deficit-round-robin weight: each scheduling round credits the
    /// tenant `weight × batch_size ×` [`COST_BASE`] deficit tokens, so a
    /// weight-4 tenant's backlog gets four times the worker time of a
    /// weight-1 tenant's. Clamped to at least 1.
    pub weight: u32,
    /// Share of each shard's descriptor ring this tenant may hold in
    /// flight, as a fraction in `(0, 1]`. `None` (default) means the
    /// tenant competes for the whole ring, exactly as before QoS existed.
    pub ring_quota: Option<f64>,
    /// Cost-budget rate in [`work_cost`] tokens per second, refilled on
    /// the shard clock (the RX timestamps packets are enqueued with) with
    /// a one-second burst allowance. Packets arriving with the bucket
    /// empty are shed at admission and counted as `rejected_over_budget`.
    /// `None` (default) means unmetered.
    pub cost_budget: Option<u64>,
}

impl Default for TenantQos {
    fn default() -> Self {
        TenantQos { weight: 1, ring_quota: None, cost_budget: None }
    }
}

/// Live QoS state shared between the dispatcher and every shard: the DRR
/// weight, read (relaxed) by workers each scheduling round and written in
/// place by [`WorkerPool::update_tenant_qos`] — a weight change needs no
/// control-channel round-trip, which is what lets srv6d's reload treat it
/// as a live patch rather than a slot rebuild.
struct QosCell {
    weight: AtomicU32,
}

impl QosCell {
    fn new(weight: u32) -> Self {
        QosCell { weight: AtomicU32::new(weight.max(1)) }
    }
}

/// A tenant's cost-budget bucket, owned by the dispatcher and refilled on
/// the shard clock the packets themselves carry (their RX timestamps). The
/// capacity is one second's rate — a tenant idle for longer than a second
/// gets at most one second of burst. Admission charges [`COST_BASE`] per
/// packet (the work is unknown before execution); the surcharge the
/// workers actually measured is debited afterwards from their live `cost`
/// counters, so the budget genuinely meters [`work_cost`] tokens.
struct TokenBucket {
    /// Tokens per second, and the bucket capacity.
    rate: u64,
    /// Current level.
    tokens: u64,
    /// Shard-clock instant `tokens` was computed at.
    clock_ns: u64,
    /// Worker-measured surcharge (actual cost minus the per-packet base)
    /// already debited from the bucket.
    surcharge_seen: u64,
}

impl TokenBucket {
    fn new(rate: u64) -> Self {
        TokenBucket { rate, tokens: rate, clock_ns: 0, surcharge_seen: 0 }
    }

    /// Advances the bucket to shard-clock `now_ns`, granting whole tokens
    /// and keeping the fractional remainder as un-advanced clock.
    fn refill(&mut self, now_ns: u64) {
        if self.rate == 0 || now_ns <= self.clock_ns {
            return;
        }
        let dt = now_ns - self.clock_ns;
        let add = ((u128::from(self.rate) * u128::from(dt)) / 1_000_000_000) as u64;
        if add == 0 {
            return;
        }
        self.tokens = self.tokens.saturating_add(add).min(self.rate);
        if self.tokens == self.rate {
            self.clock_ns = now_ns;
        } else {
            self.clock_ns += ((u128::from(add) * 1_000_000_000) / u128::from(self.rate)) as u64;
        }
    }

    fn try_spend(&mut self, cost: u64) -> bool {
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Debits the work surcharge the workers measured since the last
    /// true-up: total actual cost minus `COST_BASE ×` processed, read from
    /// the tenant's relaxed live counters. Monotone by construction
    /// (`surcharge_seen` only grows), so a racy read can at worst debit a
    /// batch early — never twice.
    fn debit_surcharge(&mut self, cells: &TenantCounters, workers: u32) {
        let mut cost = 0u64;
        let mut processed = 0u64;
        for shard in 0..workers {
            let row = cells.shard(shard);
            cost += row.cost_relaxed();
            processed += row.processed_relaxed();
        }
        let surcharge = cost.saturating_sub(processed.saturating_mul(COST_BASE));
        let delta = surcharge.saturating_sub(self.surcharge_seen);
        self.surcharge_seen = self.surcharge_seen.max(surcharge);
        self.tokens = self.tokens.saturating_sub(delta);
    }
}

/// Dispatcher-side admission state of one tenant.
struct TenantAdmission {
    /// Per-shard descriptor-ring slot cap derived from
    /// [`TenantQos::ring_quota`]; `None` means uncapped (the tenant is
    /// admitted on ring capacity alone, the pre-QoS behaviour, with no
    /// occupancy estimation on its hot path).
    quota_slots: Option<u64>,
    /// The cost-budget bucket, if the tenant is metered.
    bucket: Option<TokenBucket>,
}

impl TenantAdmission {
    fn from_qos(qos: &TenantQos, queue_capacity: usize) -> Self {
        TenantAdmission {
            quota_slots: qos.ring_quota.map(|share| quota_slots(queue_capacity, share)),
            bucket: qos.cost_budget.map(TokenBucket::new),
        }
    }
}

/// Converts a ring-share fraction into a per-shard slot cap: at least one
/// slot (a quota'd tenant can always make progress), at most the ring.
/// Both [`WorkerPool::add_tenant`] and [`WorkerPool::update_tenant_qos`]
/// read the quota here, so a share outside `(0, 1]` panics on either.
fn quota_slots(queue_capacity: usize, share: f64) -> u64 {
    assert!(share > 0.0 && share <= 1.0, "ring quota must be a fraction in (0, 1], got {share}");
    let cap = queue_capacity as u64;
    ((queue_capacity as f64 * share) as u64).clamp(1, cap)
}

/// One ring descriptor: the packet plus the tenant whose datapath must
/// execute it.
struct Desc {
    tenant: TenantId,
    skb: Skb,
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
    /// The dispatcher's staging burst: batch ingestion
    /// ([`WorkerPool::enqueue_all`] / [`WorkerPool::enqueue_bytes_all`])
    /// publishes a shard's ring once per this many staged packets — the
    /// ingress-side amortisation knob.
    pub batch_size: usize,
    /// Capacity of each shard's descriptor ring, in packets, **rounded up
    /// to the next power of two** (see [`WorkerPool::queue_capacity`] for
    /// the effective value). An enqueue onto a full ring is rejected and
    /// counted — the pool's backpressure signal.
    pub queue_depth: usize,
    /// Have [`WorkerPool::flush`] return each processed packet and its
    /// [`BatchVerdict`] (tagged with their [`TenantId`]); hand the buffers
    /// back with [`WorkerPool::recycle`] after reading them. Off, the
    /// flush puts every buffer back into the arena itself — the setting
    /// for counter-only workloads.
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

/// Cap on one worker poll, NAPI-style: a worker *dequeues* bursts sized by
/// the observed ring occupancy, up to this budget — a lull's packets are
/// processed immediately, a backlog is consumed `NAPI_BUDGET` descriptors
/// at a time so flush barriers and control messages (tenant registration,
/// shutdown) are serviced at least once per budget's worth of work. Mirrors the kernel's
/// NAPI `budget` (64 there; 256 here, sized for the userspace batch emit
/// surface). *Processing* stays bounded by [`PoolConfig::batch_size`]: a
/// poll's packets execute in `batch_size`-capped batches with the drain
/// daemon run after each, so per-CPU perf rings provisioned against
/// `batch_size` keep their guarantee whatever the budget.
pub const NAPI_BUDGET: usize = 256;

/// What one shard answers a flush barrier with: the packets it processed
/// since the previous one, with the tenant that executed them and their
/// verdicts, in processing order.
type ShardOutputs = Vec<(TenantId, Skb, BatchVerdict)>;

/// Result of one [`WorkerPool::flush`] barrier.
pub struct PoolReport {
    /// The pool-wide counters of this flush window: what the live cells
    /// ([`WorkerPool::counters`]) counted since the previous flush.
    pub run: ShardSnapshot,
    /// Per-shard outputs, indexed by shard id. Inner vectors are empty
    /// unless [`PoolConfig::collect_outputs`] is set.
    pub outputs: Vec<ShardOutputs>,
}

/// Result of a [`WorkerPool::drain`]: the pool's terminal state, produced
/// after the final flush barrier and before the worker threads exit.
pub struct DrainReport {
    /// The final [`WorkerPool::flush`] barrier's report — the last window
    /// of verdicts (and collected outputs) before shutdown.
    pub last_flush: PoolReport,
    /// The per-tenant × per-shard counters at quiescence. Final by
    /// construction: the drain consumed the pool, so no enqueue can
    /// follow the snapshot.
    pub counters: PoolSnapshot,
}

/// One shard's flush barrier, shared by the dispatcher and the shard's
/// worker: a request/done sequence pair and a slot for the window's
/// outputs. The dispatcher bumps `requested` (after everything it published)
/// and wakes the worker the way a ring publish does; the worker, between
/// bursts, sees the new sequence, consumes its ring dry, moves its outputs
/// into the slot, stores the sequence into `done` and unparks the
/// dispatcher. Nothing is built per barrier — no channel, no message.
#[derive(Default)]
struct Barrier {
    /// Barriers asked for so far. Written by the dispatcher only.
    requested: AtomicU64,
    /// The last barrier the worker answered. Written by the worker only,
    /// after the slot holds that barrier's outputs.
    done: AtomicU64,
    slot: Mutex<BarrierSlot>,
}

#[derive(Default)]
struct BarrierSlot {
    /// The answered window's outputs, until the dispatcher takes them.
    outputs: ShardOutputs,
    /// The dispatcher thread waiting on this barrier, for the unpark.
    waiter: Option<std::thread::Thread>,
}

impl Barrier {
    /// Dispatcher side: asks for barrier `seq`. Everything published
    /// before this call is covered by the answer.
    fn request(&self, seq: u64) {
        self.slot.lock().expect("worker answers the barrier").waiter = Some(std::thread::current());
        self.requested.store(seq, Ordering::Release);
    }

    /// Dispatcher side: waits for the answer to barrier `seq` and takes
    /// its outputs. A worker that died instead of answering panics here.
    fn wait(&self, seq: u64, worker: &JoinHandle<()>) -> ShardOutputs {
        while self.done.load(Ordering::Acquire) != seq {
            assert!(!worker.is_finished(), "worker answers the barrier");
            std::thread::park_timeout(PARK_TIMEOUT);
        }
        std::mem::take(&mut self.slot.lock().expect("worker answers the barrier").outputs)
    }

    /// Worker side: answers barrier `seq` with the window's `outputs`.
    fn answer(&self, seq: u64, outputs: ShardOutputs) {
        let waiter = {
            let mut slot = self.slot.lock().expect("dispatcher holds no lock across a panic");
            slot.outputs = outputs;
            slot.waiter.take()
        };
        self.done.store(seq, Ordering::Release);
        if let Some(waiter) = waiter {
            waiter.unpark();
        }
    }
}

/// Sideband control messages, delivered outside the descriptor ring and
/// checked by the worker between bursts.
enum Ctrl {
    /// Install a new tenant's datapath (plus its live-counter row and its
    /// shared QoS cell) on this shard, then acknowledge. The dispatcher
    /// waits for every shard's acknowledgement before `add_tenant`
    /// returns, so no descriptor stamped with the new tenant can reach a
    /// worker that has not installed it.
    AddTenant { datapath: Box<Seg6Datapath>, cells: Arc<TenantCounters>, qos: Arc<QosCell>, done: Sender<()> },
    /// Finish the backlog, run the final drain, exit.
    Shutdown,
}

/// Dispatcher-side handle of one shard: the descriptor-ring producer, the
/// staging buffer, and the wakeup state.
struct ShardTx {
    /// Descriptor ring into the worker.
    ring: Producer<Desc>,
    /// Sideband control channel.
    ctrl: Sender<Ctrl>,
    /// The flush barrier shared with the worker.
    barrier: Arc<Barrier>,
    /// Staged descriptors not yet published: batch ingestion fills it up
    /// to one burst, for one tenant, and publishes the remainder before it
    /// returns — always empty between public API calls.
    staging: Vec<Desc>,
    /// The worker thread, for unparking.
    thread: std::thread::Thread,
    /// Set by the worker just before it parks; cleared (by whoever acts
    /// on it) before unparking. The dispatcher's publish/control paths
    /// check it so a sleeping shard always wakes.
    sleeping: Arc<AtomicBool>,
}

impl ShardTx {
    /// Wakes the worker if it is parked (or about to park). Callers must
    /// make their work visible (ring publish, control send) *before*
    /// calling this; the SeqCst fence pairs with the worker's pre-park
    /// fence so either the worker sees the work, or this sees the worker
    /// sleeping.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.swap(false, Ordering::SeqCst) {
            self.thread.unpark();
        }
    }
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
    /// Dispatcher-held per-tenant counter rows, indexed by tenant.
    tenant_cells: Vec<Arc<TenantCounters>>,
    /// The dispatcher's recycling arena, refilled at the flush barrier.
    bufs: BufPool,
    /// Per-tenant admission state: ring-quota slot caps and cost-budget
    /// buckets, indexed by tenant.
    admission: Vec<TenantAdmission>,
    /// Per-tenant QoS cells shared with every shard (DRR weights),
    /// indexed by tenant.
    qos_cells: Vec<Arc<QosCell>>,
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
        let default_cells = counters.tenant(TenantId::DEFAULT);
        let default_qos = Arc::new(QosCell::new(1));
        let mut shards = Vec::with_capacity(workers as usize);
        let mut handles = Vec::with_capacity(workers as usize);
        for id in 0..workers {
            let setup: ShardSetup = builder(id).into();
            let mut datapath = setup.datapath;
            datapath.cpu_id = id;
            let (ring_tx, ring_rx) = ring::spsc_ring::<Desc>(queue_capacity);
            let (ctrl_tx, ctrl_rx) = channel();
            let sleeping = Arc::new(AtomicBool::new(false));
            let barrier = Arc::new(Barrier::default());
            let state = ShardState {
                id,
                datapaths: vec![datapath],
                queues: vec![VecDeque::with_capacity(NAPI_BUDGET)],
                deficit: vec![0],
                qos: vec![Arc::clone(&default_qos)],
                drr_next: 0,
                outputs: Vec::new(),
                verdicts: Vec::with_capacity(NAPI_BUDGET),
                drain: setup.drain,
                tenant_cells: vec![Arc::clone(&default_cells)],
                sleeping: Arc::clone(&sleeping),
                barrier: Arc::clone(&barrier),
                barriers_answered: 0,
            };
            counters.count_thread_spawn();
            let worker_config = config.clone();
            let pin = pin_plan[id as usize];
            let placement = Arc::clone(&counters);
            let handle = std::thread::Builder::new()
                .name(format!("seg6-worker-{id}"))
                .spawn(move || {
                    let pinned = pin.filter(|&core| crate::affinity::pin_current_thread(core).is_ok());
                    placement.record_placement(id, pinned);
                    worker_loop(worker_config, state, ctrl_rx, ring_rx)
                })
                .expect("spawn worker thread");
            shards.push(ShardTx {
                ring: ring_tx,
                ctrl: ctrl_tx,
                barrier,
                staging: Vec::with_capacity(config.batch_size.max(1)),
                thread: handle.thread().clone(),
                sleeping,
            });
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
            tenant_cells: vec![default_cells],
            bufs,
            admission: vec![TenantAdmission::from_qos(&TenantQos::default(), queue_capacity)],
            qos_cells: vec![default_qos],
            queue_capacity,
        }
    }

    /// The arena's retention cap: per shard a full descriptor ring, the
    /// worker's current poll and the dispatcher's staging, plus one slack
    /// buffer **per tenant** (each tenant's ingestion path can hold one
    /// buffer in hand mid-enqueue). Buffers come back only at the flush
    /// barrier, so the invariant is: a caller that flushes (and recycles
    /// collected outputs) at least once per [`WorkerPool::queue_capacity`]
    /// packets per shard never has more buffers out than this, so the
    /// arena never drops one it will need again — once it has served a
    /// window of each size it mints nothing, whatever the worker
    /// scheduling and however the tenants interleave.
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
    /// each fork is shipped to its worker over the control channel
    /// and **acknowledged** before this returns, so the returned
    /// [`TenantId`] is immediately safe to enqueue with. No threads are
    /// spawned; the live-counter block grows a per-shard row for the
    /// tenant, the dispatcher installs `qos`, and the arena's retention
    /// cap grows to the in-flight bound of the new tenant count. Panics on
    /// a [`TenantQos::ring_quota`] outside `(0, 1]`.
    pub fn add_tenant(&mut self, template: &Seg6Datapath, qos: TenantQos) -> TenantId {
        let admission = TenantAdmission::from_qos(&qos, self.queue_capacity);
        let id = TenantId::from_index(self.tenant_cells.len());
        let cells = self.counters.add_tenant();
        let qos_cell = Arc::new(QosCell::new(qos.weight));
        let acks: Vec<Receiver<()>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(cpu, tx)| {
                let datapath = template.fork_for_cpu(cpu as u32);
                let (done_tx, done_rx) = channel();
                tx.ctrl
                    .send(Ctrl::AddTenant {
                        datapath: Box::new(datapath),
                        cells: Arc::clone(&cells),
                        qos: Arc::clone(&qos_cell),
                        done: done_tx,
                    })
                    .expect("worker alive");
                tx.wake();
                done_rx
            })
            .collect();
        for ack in acks {
            ack.recv().expect("worker installed the tenant");
        }
        self.tenant_cells.push(cells);
        self.admission.push(admission);
        self.qos_cells.push(qos_cell);
        self.bufs.set_max_retained(Self::in_flight_bound(
            &self.config,
            self.queue_capacity,
            self.tenant_cells.len(),
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
        let t = tenant.index();
        assert!(t < self.tenant_cells.len(), "unregistered tenant {tenant:?}");
        let quota = qos.ring_quota.map(|share| quota_slots(self.queue_capacity, share));
        self.qos_cells[t].weight.store(qos.weight.max(1), Ordering::Relaxed);
        let admission = &mut self.admission[t];
        admission.quota_slots = quota;
        admission.bucket = match (admission.bucket.take(), qos.cost_budget) {
            (Some(mut bucket), Some(rate)) => {
                bucket.rate = rate;
                bucket.tokens = bucket.tokens.min(rate);
                Some(bucket)
            }
            (None, Some(rate)) => Some(TokenBucket::new(rate)),
            (_, None) => None,
        };
    }

    /// Number of registered tenants (including the default one).
    pub fn tenants(&self) -> u32 {
        self.tenant_cells.len() as u32
    }

    /// A guard for enqueueing as `tenant`: its `enqueue*` methods stamp
    /// every descriptor with the tenant id. Panics on an unregistered id.
    pub fn tenant(&mut self, tenant: TenantId) -> Tenant<'_> {
        assert!(tenant.index() < self.tenant_cells.len(), "unregistered tenant {tenant:?}");
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
        for cells in &self.tenant_cells {
            for shard in 0..self.config.workers {
                total.accumulate(&cells.shard(shard).sample());
            }
        }
        total
    }

    /// The live counters summed over tenants, indexed by shard id —
    /// `counters().snapshot().shards`. Readable without a barrier; the
    /// admission fields (`enqueued`, `rejected`, `rejected_over_budget`)
    /// are exact at any time on the dispatcher thread, which writes them.
    pub fn shard_stats(&self) -> Vec<ShardSnapshot> {
        self.counters.snapshot().shards
    }

    /// The live counters summed over shards, indexed by tenant id. The
    /// per-tenant backpressure view: a noisy tenant's rejections are
    /// visible without a barrier and without decoding the per-shard split.
    pub fn tenant_stats(&self) -> Vec<ShardSnapshot> {
        self.counters.snapshot().tenants.iter().map(TenantSnapshot::totals).collect()
    }

    /// Total packets rejected by full shard rings (backpressure),
    /// including ring-quota sheds — a quota'd tenant hitting its share of
    /// a ring is backpressure scoped to that tenant. Cost-budget sheds
    /// are counted separately ([`WorkerPool::rejected_over_budget`]).
    pub fn rejected(&self) -> u64 {
        self.totals().rejected
    }

    /// Total packets shed at admission by tenants' cost budgets.
    pub fn rejected_over_budget(&self) -> u64 {
        self.totals().rejected_over_budget
    }

    /// The pool's counters: per-tenant × per-shard relaxed-atomic cells
    /// holding the enqueue/reject/verdict counts, readable from any
    /// thread at any time **without** a flush barrier. The `Arc` stays
    /// valid after shutdown.
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

    /// Hands a packet buffer back to the recycling arena — the way to
    /// return [`PoolConfig::collect_outputs`] buffers after reading them,
    /// closing the zero-allocation loop for output-collecting callers.
    pub fn recycle(&mut self, buf: PacketBuf) {
        self.bufs.put(buf);
    }

    /// The shard a packet steers to, without enqueueing it. Identical
    /// steering to simnet's per-node RSS model: the Toeplitz hash of the
    /// 5-tuple, modulo the shard count. Steering is tenant-independent —
    /// tenants share the shards, like VRFs share a host's CPUs. A
    /// one-shard pool has no choice to make and does not read the frame.
    pub fn steer_to(&self, packet: &[u8]) -> u32 {
        if self.shards.len() == 1 {
            return 0;
        }
        steer(rss_hash_packet(packet), self.shards.len()) as u32
    }

    fn enqueue_at_as(&mut self, tenant: TenantId, now_ns: u64, packet: PacketBuf) -> bool {
        let shard = self.steer_to(packet.data()) as usize;
        self.shards[shard].staging.push(Desc { tenant, skb: Skb::received(packet, now_ns, 0) });
        self.publish_shard(shard, tenant) == 1
    }

    fn enqueue_all_as(&mut self, tenant: TenantId, packets: impl IntoIterator<Item = PacketBuf>) -> usize {
        let burst = self.config.batch_size.max(1);
        let mut accepted = 0;
        for packet in packets {
            let shard = self.steer_to(packet.data()) as usize;
            self.shards[shard].staging.push(Desc { tenant, skb: Skb::received(packet, 0, 0) });
            if self.shards[shard].staging.len() >= burst {
                accepted += self.publish_shard(shard, tenant);
            }
        }
        accepted + self.publish_all(tenant)
    }

    fn enqueue_bytes_at_as(&mut self, tenant: TenantId, now_ns: u64, frame: &[u8]) -> bool {
        let packet = self.bufs.take_filled(frame);
        self.enqueue_at_as(tenant, now_ns, packet)
    }

    fn enqueue_bytes_all_as<'a>(
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
            self.shards[shard].staging.push(Desc { tenant, skb: Skb::received(packet, now_ns, 0) });
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
    /// first: a ring-quota'd tenant is capped at its slot share of this
    /// shard's ring (occupancy estimated lock-free from the cell's
    /// `enqueued` count — which only the dispatcher writes — minus the
    /// worker's relaxed processed counter; the estimate lags towards
    /// *under*-admission, never over), a budgeted tenant spends
    /// [`COST_BASE`] per packet from its token bucket (refilled on the
    /// packets' own RX clocks, trued-up with the workers' measured
    /// surcharges). Everything shed or ring-rejected is accounted exactly
    /// in the (tenant, shard) counter cell — budget sheds on their own
    /// counter — and its buffer goes back to the arena. Wakes the worker
    /// when anything was published; returns the accepted count. No locks,
    /// no allocation.
    fn publish_shard(&mut self, shard: usize, tenant: TenantId) -> usize {
        let tx = &mut self.shards[shard];
        if tx.staging.is_empty() {
            return 0;
        }
        debug_assert!(tx.staging.iter().all(|desc| desc.tenant == tenant), "staging holds one tenant");
        let cells = &self.tenant_cells[tenant.index()];
        let cell = cells.shard(shard as u32);
        let admission = &mut self.admission[tenant.index()];
        let (mut shed_quota, mut shed_budget) = (0u64, 0u64);
        if admission.quota_slots.is_some() || admission.bucket.is_some() {
            // This publish's allowance: the remaining quota slots, and the
            // budget true-up of worker-measured work surcharges.
            let mut allowance = admission.quota_slots.map_or(u64::MAX, |slots| {
                slots.saturating_sub(cell.enqueued_relaxed().saturating_sub(cell.processed_relaxed()))
            });
            if let Some(bucket) = &mut admission.bucket {
                bucket.debit_surcharge(cells, self.config.workers);
            }
            // In-place admission filter: admitted descriptors compact to
            // the front in FIFO order; only shed descriptors scramble in
            // the tail.
            let mut kept = 0;
            for i in 0..tx.staging.len() {
                let admit = if allowance == 0 {
                    shed_quota += 1;
                    false
                } else {
                    match &mut admission.bucket {
                        None => true,
                        Some(bucket) => {
                            bucket.refill(tx.staging[i].skb.rx_timestamp_ns);
                            let paid = bucket.try_spend(COST_BASE);
                            shed_budget += u64::from(!paid);
                            paid
                        }
                    }
                };
                if admit {
                    if allowance != u64::MAX {
                        allowance -= 1;
                    }
                    if kept != i {
                        tx.staging.swap(kept, i);
                    }
                    kept += 1;
                }
            }
            for desc in tx.staging.drain(kept..) {
                self.bufs.put(desc.skb.into_packet());
            }
        }
        let accepted = tx.ring.enqueue_burst(&mut tx.staging);
        let ring_rejected = tx.staging.len() as u64;
        for desc in tx.staging.drain(..) {
            self.bufs.put(desc.skb.into_packet());
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
    /// the previous flush, plus the outputs (when collected) — always in
    /// shard index order, regardless of which shard finished first. This is
    /// where packet buffers come back: without
    /// [`PoolConfig::collect_outputs`], every one goes straight into the
    /// arena; with it, the caller [`WorkerPool::recycle`]s them.
    pub fn flush(&mut self) -> PoolReport {
        // Hand every shard its barrier first, then collect in index order:
        // the shards drain concurrently, the ordering is imposed only on
        // the collection side.
        self.barriers += 1;
        for tx in &self.shards {
            tx.barrier.request(self.barriers);
            tx.wake();
        }
        let mut outputs: Vec<ShardOutputs> = self
            .shards
            .iter()
            .zip(&self.handles)
            .map(|(tx, worker)| tx.barrier.wait(self.barriers, worker))
            .collect();
        if !self.config.collect_outputs {
            for (_, skb, _) in outputs.iter_mut().flat_map(|shard| shard.drain(..)) {
                self.bufs.put(skb.into_packet());
            }
        }
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
        self.shard_stats()
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
/// tenant's rows ([`WorkerPool::tenant_stats`]).
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
/// drift apart. Consumers that only feed packets (srv6d's service loop,
/// capture replay) take `impl Ingress` and work identically against
/// either.
///
/// The trait has generic methods, so it is deliberately not object-safe —
/// take `&mut impl Ingress` (static dispatch on the hot path), not
/// `&mut dyn Ingress`.
pub trait Ingress {
    /// The pool this handle feeds and the tenant its packets are stamped
    /// with.
    fn target(&mut self) -> (&mut WorkerPool, TenantId);

    /// Steers `packet` to its shard and enqueues it with clock `now_ns`
    /// (the packet's RX timestamp, and the time its batch will be
    /// processed at). Returns `false` — counting the rejection or QoS
    /// shed — when the packet was not admitted.
    fn enqueue_at(&mut self, now_ns: u64, packet: PacketBuf) -> bool {
        let (pool, tenant) = self.target();
        pool.enqueue_at_as(tenant, now_ns, packet)
    }

    /// [`Ingress::enqueue_at`] with clock 0 (benchmarks and tests that do
    /// not model time).
    fn enqueue(&mut self, packet: PacketBuf) -> bool {
        self.enqueue_at(0, packet)
    }

    /// Enqueues a collection of packets, returning how many were
    /// admitted. Descriptors are staged per shard and published in bursts
    /// of [`PoolConfig::batch_size`] — one atomic ring publish per burst,
    /// the amortisation the per-packet [`Ingress::enqueue`] cannot have.
    fn enqueue_all(&mut self, packets: impl IntoIterator<Item = PacketBuf>) -> usize {
        let (pool, tenant) = self.target();
        pool.enqueue_all_as(tenant, packets)
    }

    /// Copies one external frame into a **recycled** packet buffer and
    /// enqueues it with clock `now_ns` — the zero-allocation ingestion
    /// front-end for sources that own their bytes (capture replay,
    /// srv6d's socket reads).
    fn enqueue_bytes_at(&mut self, now_ns: u64, frame: &[u8]) -> bool {
        let (pool, tenant) = self.target();
        pool.enqueue_bytes_at_as(tenant, now_ns, frame)
    }

    /// Burst form of [`Ingress::enqueue_bytes_at`]: every frame is copied
    /// into recycled storage, staged per shard, and published in
    /// single-release bursts. Returns how many frames were admitted.
    fn enqueue_bytes_all<'a>(&mut self, now_ns: u64, frames: impl IntoIterator<Item = &'a [u8]>) -> usize {
        let (pool, tenant) = self.target();
        pool.enqueue_bytes_all_as(tenant, now_ns, frames)
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

/// How long a parked worker sleeps before re-checking its inputs on its
/// own, and a dispatcher waiting on a flush barrier before re-checking
/// that the worker is alive. Wakeups are explicit (publish/control/answer
/// unpark the thread); the timeout only bounds the damage if the other
/// side vanishes without a word.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

/// The state one shard thread owns for its whole life. The batch, verdict
/// and output buffers are reused across batches: after the first batch
/// warms them up, the shard's steady state performs zero heap allocations
/// per packet (the `alloc-counter` test feature proves it). `datapaths`
/// is the shard's tenant vector — index = [`TenantId::index`].
struct ShardState {
    id: u32,
    /// One datapath per tenant, indexed by tenant id. Grown by
    /// [`Ctrl::AddTenant`]; never shrinks.
    datapaths: Vec<Seg6Datapath>,
    /// Per-tenant run queues the current poll's packets are sorted into
    /// (arrival order preserved within a tenant), indexed by tenant id.
    /// Ring buffers reused across polls — pre-sized to the poll burst at
    /// tenant install, so the steady state never grows them. The DRR
    /// scheduler takes `batch_size`-capped runs off their fronts.
    queues: Vec<VecDeque<Skb>>,
    /// Per-tenant DRR deficit, in [`work_cost`] tokens. Signed: a run's
    /// actual cost is only known after it executed, so a tenant may
    /// overdraw by at most one run and pays the debt out of its next
    /// quantum. Reset to (at most) zero when the tenant's queue empties —
    /// an idle tenant hoards no credit.
    deficit: Vec<i64>,
    /// Per-tenant shared QoS cells (DRR weights), indexed by tenant id.
    qos: Vec<Arc<QosCell>>,
    /// Round-robin cursor of the DRR scheduler: the next tenant to
    /// credit. Persists across polls so the rotation is fair over time.
    drr_next: usize,
    /// The window's processed packets, handed over at the next barrier.
    outputs: ShardOutputs,
    verdicts: Vec<BatchVerdict>,
    drain: Option<BatchDrain>,
    /// Live-counter rows, one per tenant, updated once per tenant run.
    tenant_cells: Vec<Arc<TenantCounters>>,
    /// Park handshake; see [`ShardTx::sleeping`].
    sleeping: Arc<AtomicBool>,
    /// The flush barrier shared with the dispatcher, and the last sequence
    /// this shard answered.
    barrier: Arc<Barrier>,
    barriers_answered: u64,
}

/// One shard's thread body: NAPI-style occupancy-sized burst dequeue,
/// then `batch_size`-bounded batches per tenant run, drain, report.
/// Control messages (tenant registration, shutdown) ride the sideband
/// channel and the flush barrier its sequence pair; both are checked
/// between bursts. An idle shard parks.
fn worker_loop(config: PoolConfig, mut shard: ShardState, ctrl: Receiver<Ctrl>, mut ring: Consumer<Desc>) {
    let mut clock: u64 = 0;
    // Disconnection without a shutdown message means the dispatcher
    // vanished mid-panic — same exit path.
    let next_ctrl = || match ctrl.try_recv() {
        Ok(msg) => Some(msg),
        Err(TryRecvError::Disconnected) => Some(Ctrl::Shutdown),
        Err(TryRecvError::Empty) => None,
    };
    loop {
        // Sideband control, between bursts: the descriptor plane never
        // carries anything but packets.
        if let Some(msg) = next_ctrl() {
            if !serve_ctrl(msg, &mut shard, &mut ring, &mut clock, &config) {
                return;
            }
            continue;
        }
        if answer_barrier(&mut shard, &mut ring, &mut clock, &config) {
            continue;
        }
        // One adaptive poll: a burst sized by the ring's occupancy, capped
        // at the NAPI budget, processed immediately. Batching amortises
        // bursts, it never delays a lull's packets; the budget bounds how
        // long a saturated ring can keep control waiting.
        if poll_once(&mut shard, &mut ring, &mut clock, &config) {
            continue;
        }
        // Idle: park. The pre-park protocol pairs with `ShardTx::wake` —
        // set the flag, fence, then re-check every input; the dispatcher
        // publishes/sends/requests first, fences, then checks the flag.
        // Whatever the interleaving, either this sees the work or the
        // dispatcher sees the flag and unparks.
        shard.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !ring.is_empty() || shard.barrier.requested.load(Ordering::Acquire) != shard.barriers_answered {
            shard.sleeping.store(false, Ordering::SeqCst);
            continue;
        }
        match next_ctrl() {
            Some(msg) => {
                shard.sleeping.store(false, Ordering::SeqCst);
                if !serve_ctrl(msg, &mut shard, &mut ring, &mut clock, &config) {
                    return;
                }
            }
            None => {
                std::thread::park_timeout(PARK_TIMEOUT);
                shard.sleeping.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// Serves one control message on the shard's thread. Returns `false` when
/// the message was the shutdown: the backlog is finished and the final
/// drain has run — no packet or perf event is stranded — and the worker
/// must exit.
fn serve_ctrl(
    msg: Ctrl,
    shard: &mut ShardState,
    ring: &mut Consumer<Desc>,
    clock: &mut u64,
    config: &PoolConfig,
) -> bool {
    match msg {
        Ctrl::AddTenant { datapath, cells, qos, done } => install_tenant(shard, *datapath, cells, qos, done),
        Ctrl::Shutdown => {
            drain_ring(shard, ring, clock, config);
            return false;
        }
    }
    true
}

/// Answers the dispatcher's flush barrier, if it asked for one since the
/// last answer: drains everything published before the request, then
/// hands over the window's outputs (the run counters are already in the
/// live cells). Returns whether a barrier was answered. Kept out of line:
/// the loop that calls it runs once per poll, this body once per barrier.
#[inline(never)]
fn answer_barrier(
    shard: &mut ShardState,
    ring: &mut Consumer<Desc>,
    clock: &mut u64,
    config: &PoolConfig,
) -> bool {
    let requested = shard.barrier.requested.load(Ordering::Acquire);
    if requested == shard.barriers_answered {
        return false;
    }
    drain_ring(shard, ring, clock, config);
    // The next window usually collects as many as this one did: start it
    // at that size rather than regrowing from empty.
    let next = Vec::with_capacity(shard.outputs.len());
    shard.barrier.answer(requested, std::mem::replace(&mut shard.outputs, next));
    shard.barriers_answered = requested;
    true
}

/// Installs a tenant's datapath, counter row, QoS cell and scheduler
/// state on this shard, then acknowledges to the dispatcher (which blocks
/// until every shard has). The run queue is pre-sized to the poll burst
/// here, at install time, so the data plane never grows it.
fn install_tenant(
    shard: &mut ShardState,
    datapath: Seg6Datapath,
    cells: Arc<TenantCounters>,
    qos: Arc<QosCell>,
    done: Sender<()>,
) {
    shard.datapaths.push(datapath);
    shard.tenant_cells.push(cells);
    shard.queues.push(VecDeque::with_capacity(NAPI_BUDGET));
    shard.deficit.push(0);
    shard.qos.push(qos);
    let _ = done.send(());
}

/// One NAPI-style poll: dequeues a burst sized by the observed ring
/// occupancy (capped at the budget) and processes it. Returns whether any
/// descriptor moved.
fn poll_once(
    shard: &mut ShardState,
    ring: &mut Consumer<Desc>,
    clock: &mut u64,
    config: &PoolConfig,
) -> bool {
    // Descriptors go straight off the ring into the per-tenant run queues
    // (arrival order preserved within a tenant); the shard clock advances
    // per run inside `run_scheduler`, not per poll, so a large NAPI burst
    // does not time-stamp its first run with its last packet's arrival.
    let queues = &mut shard.queues;
    if ring.dequeue_with(NAPI_BUDGET, |desc| queues[desc.tenant.index()].push_back(desc.skb)) == 0 {
        return false;
    }
    run_scheduler(shard, clock, config);
    true
}

/// Consumes the descriptor ring dry (everything published so far) in
/// budget-capped bursts, then runs one final drain pass so per-CPU perf
/// consumers see the last batch's events.
fn drain_ring(shard: &mut ShardState, ring: &mut Consumer<Desc>, clock: &mut u64, config: &PoolConfig) {
    while poll_once(shard, ring, clock, config) {}
    run_drain(shard);
}

/// Runs the shard's drain daemon, if any.
fn run_drain(shard: &mut ShardState) {
    if let Some(drain) = &mut shard.drain {
        drain(shard.id);
    }
}

/// Schedules the accumulated poll's packets as **deficit-round-robin
/// tenant runs**, replacing strict arrival order: each round the cursor
/// visits a backlogged tenant and credits its deficit with `weight ×
/// batch_size ×` [`COST_BASE`] tokens; while the deficit is positive the
/// tenant executes runs — up to [`PoolConfig::batch_size`] of its queued
/// packets as one batch call on its datapath — and each run's **actual**
/// [`work_cost`] (priced from the emitted
/// [`WorkSummary`](seg6_core::WorkSummary) flags) is subtracted. A tenant
/// whose packets run expensive behaviours exhausts its deficit in fewer
/// packets; a higher weight buys proportionally more of the worker. The
/// drain daemon keeps its pre-tenancy cadence (after every run, and a run
/// never exceeds `batch_size` packets — per-CPU perf rings sized against
/// `batch_size` cannot overflow however large the NAPI dequeue burst
/// was).
fn run_scheduler(shard: &mut ShardState, clock: &mut u64, config: &PoolConfig) {
    let limit = config.batch_size.max(1);
    let tenants = shard.queues.len();
    let quantum_unit = limit as i64 * COST_BASE as i64;
    let mut remaining: usize = shard.queues.iter().map(VecDeque::len).sum();
    while remaining > 0 {
        let tenant = shard.drr_next;
        shard.drr_next = (shard.drr_next + 1) % tenants;
        if shard.queues[tenant].is_empty() {
            continue;
        }
        let weight = i64::from(shard.qos[tenant].weight.load(Ordering::Relaxed).max(1));
        shard.deficit[tenant] += weight * quantum_unit;
        while shard.deficit[tenant] > 0 && !shard.queues[tenant].is_empty() {
            let run = limit.min(shard.queues[tenant].len());
            let cost = process_run(shard, TenantId::from_index(tenant), run, clock);
            shard.deficit[tenant] -= cost as i64;
            remaining -= run;
        }
        if shard.queues[tenant].is_empty() {
            // The queue drained: surrender leftover credit (an idle tenant
            // hoards nothing) but keep any debt for the next quantum.
            shard.deficit[tenant] = shard.deficit[tenant].min(0);
        }
    }
}

/// Executes one tenant run: the next `run` packets off the tenant's queue
/// as a single batch call on its datapath, with the shard clock advanced
/// to the run's newest RX timestamp first (the clock a kernel softirq
/// batch would run under — bounded by `batch_size`, like the run itself,
/// so `bpf_ktime_get_ns`/End.DM never see the timestamp spread of a whole
/// NAPI burst). Adds the run — the delta of the datapath's own statistics —
/// and its priced cost to the tenant's counter cell, runs the drain daemon,
/// and appends the processed packets to the window's outputs (processing
/// order, tagged with the tenant). Returns the run's total [`work_cost`],
/// which the DRR loop charges against the tenant's deficit.
fn process_run(shard: &mut ShardState, tenant: TenantId, run: usize, clock: &mut u64) -> u64 {
    let t = tenant.index();
    let queue = &mut shard.queues[t];
    if queue.as_slices().0.len() < run {
        queue.make_contiguous();
    }
    let batch = &mut queue.as_mut_slices().0[..run];
    for skb in batch.iter() {
        *clock = (*clock).max(skb.rx_timestamp_ns);
    }
    let datapath = &mut shard.datapaths[t];
    let before = datapath.stats;
    // The verdict buffer is shard-owned and reused, index-aligned with
    // the run: no allocation per run, no allocation per packet.
    shard.verdicts.clear();
    datapath.process_batch_verdicts_into(batch, *clock, &mut shard.verdicts);
    let cost: u64 = shard.verdicts.iter().map(|bv| work_cost(&bv.work)).sum();
    // The datapath counted every packet of the run; its delta is the run.
    shard.tenant_cells[t].shard(shard.id).add_run(&before, &datapath.stats, cost);
    // The drain daemon runs batch-aware: after every `batch_size`-bounded
    // run's events are in the perf ring, on the worker that produced
    // them.
    run_drain(shard);
    let packets = shard.queues[t].drain(..run).zip(shard.verdicts.drain(..));
    shard.outputs.extend(packets.map(|(skb, bv)| (tenant, skb, bv)));
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf_vm::helpers::ids;
    use ebpf_vm::insn::{jmp, AccessSize};
    use ebpf_vm::maps::{PerCpuArrayMap, PerfEventArray};
    use ebpf_vm::perf::PerfEvent;
    use ebpf_vm::program::{load, retcode, ProgramType};
    use ebpf_vm::{Map, MapHandle, ProgramBuilder};
    use netpkt::ipv6::proto;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use netpkt::srh::SegmentRoutingHeader;
    use seg6_core::{Nexthop, Seg6LocalAction, Verdict};
    use std::collections::HashMap;
    use std::net::Ipv6Addr;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn pinned_shards_report_their_placement() {
        let config = PoolConfig { workers: 2, pinning: PinPolicy::Compact, ..PoolConfig::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        // A flush barrier round-trips every worker, and each records its
        // placement at thread start, before its first control receive —
        // so the snapshot after the barrier is deterministic.
        let _ = pool.flush();
        let snap = pool.counters().snapshot();
        assert_eq!(snap.placement.len(), 2);
        if cfg!(target_os = "linux") {
            let cores = crate::affinity::available_cores();
            for (i, p) in snap.placement.iter().enumerate() {
                assert_eq!(p.pinned_core, Some(cores[i % cores.len()]), "shard {i} pinned compactly");
            }
        } else {
            assert!(snap.placement.iter().all(|p| p.pinned_core.is_none()));
        }

        // Unpinned pools report no placement, and the default config
        // still pins nothing.
        let mut pool = WorkerPool::new(PoolConfig::default(), forwarding_datapath);
        let _ = pool.flush();
        let snap = pool.counters().snapshot();
        assert!(snap.placement.iter().all(|p| p.pinned_core.is_none()));
    }

    fn forwarding_datapath(cpu: u32) -> Seg6Datapath {
        let mut dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(cpu);
        dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        dp
    }

    /// A datapath routing everything out of `oif` — tenants built from it
    /// are distinguishable by their verdicts.
    fn oif_datapath(oif: u32) -> Seg6Datapath {
        let mut dp = Seg6Datapath::new(addr("fc00::1"));
        dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(oif)]);
        dp
    }

    fn flow_packet(flow: u32) -> PacketBuf {
        build_ipv6_udp_packet(
            addr(&format!("2001:db8::{:x}", flow + 1)),
            addr("2001:db8:f::1"),
            (1024 + flow % 40_000) as u16,
            5001,
            &[0u8; 32],
            64,
        )
    }

    /// The verdict counters of a cell or window:
    /// `[processed, forwarded, local_delivered, dropped]`.
    fn verdict_counts(s: &ShardSnapshot) -> [u64; 4] {
        [s.processed, s.forwarded, s.local_delivered, s.dropped]
    }

    /// The admission counters of a cell: `(enqueued, rejected)`.
    fn admission(s: &ShardSnapshot) -> (u64, u64) {
        (s.enqueued, s.rejected)
    }

    /// The oracle the pool is held to: one datapath per shard from
    /// `builder`, every packet steered by RSS hash and run through
    /// per-packet [`Seg6Datapath::process`] on its shard's datapath, in
    /// arrival order. Returns each shard's [`verdict_counts`].
    fn reference_counts(
        workers: u32,
        packets: &[PacketBuf],
        builder: impl Fn(u32) -> Seg6Datapath,
    ) -> Vec<[u64; 4]> {
        let mut shards: Vec<Seg6Datapath> = (0..workers).map(builder).collect();
        let mut counts = vec![[0u64; 4]; shards.len()];
        for packet in packets {
            let shard = steer(rss_hash_packet(packet.data()), shards.len());
            counts[shard][0] += 1;
            match shards[shard].process(&mut Skb::new(packet.clone()), 0) {
                Verdict::Forward { .. } => counts[shard][1] += 1,
                Verdict::LocalDeliver => counts[shard][2] += 1,
                Verdict::Drop(_) => counts[shard][3] += 1,
            }
        }
        counts
    }

    /// Runs `packets` through one enqueue/flush window of `pool` (which
    /// must be quiet) and returns each shard's [`verdict_counts`] for the
    /// window, after checking that the report's pool-wide window is their
    /// sum.
    fn window_counts(pool: &mut WorkerPool, enqueue: impl FnOnce(&mut WorkerPool)) -> Vec<[u64; 4]> {
        let before = pool.shard_stats();
        enqueue(pool);
        let report = pool.flush();
        let shards: Vec<[u64; 4]> = pool
            .shard_stats()
            .iter()
            .zip(&before)
            .map(|(now, then)| verdict_counts(&now.since(then)))
            .collect();
        let mut total = [0u64; 4];
        for shard in &shards {
            for (sum, count) in total.iter_mut().zip(shard) {
                *sum += count;
            }
        }
        assert_eq!(verdict_counts(&report.run), total, "the report is the sum of the shards' windows");
        shards
    }

    /// Satellite regression: the pool must agree with per-packet
    /// processing in steering order — same verdicts, and per-shard results
    /// reported in shard index order no matter which shard finishes first.
    /// With one shard (where the pool never hashes a frame) the oracle's
    /// `steer(hash, 1)` and the pool's short-circuit must still agree.
    #[test]
    fn pool_flush_matches_per_packet_processing_in_shard_index_order() {
        let packets: Vec<PacketBuf> = (0..512).map(flow_packet).collect();
        for workers in [1, 4] {
            let expected = reference_counts(workers, &packets, forwarding_datapath);
            assert_eq!(expected.iter().map(|c| c[0]).sum::<u64>(), 512);
            assert_eq!(expected.iter().map(|c| c[1]).sum::<u64>(), 512);

            let config = PoolConfig { workers, batch_size: 16, ..Default::default() };
            let mut pool = WorkerPool::new(config, forwarding_datapath);
            for _ in 0..5 {
                // Repeat to give out-of-order shard completions a chance
                // to show up; the windows must stay identical every time.
                let window = window_counts(&mut pool, |pool| {
                    assert_eq!(pool.enqueue_all(packets.iter().cloned()), 512);
                });
                assert_eq!(window, expected, "{workers} workers");
            }
        }
    }

    /// Steering reads the frame only when there is a shard to choose: a
    /// one-shard pool answers 0 for anything, a four-shard pool answers
    /// exactly the RSS hash's shard.
    #[test]
    fn steering_hashes_only_when_there_is_a_choice() {
        let one = WorkerPool::new(PoolConfig::default(), forwarding_datapath);
        let well_formed = flow_packet(7);
        for frame in [&[][..], &[0x60][..], well_formed.data()] {
            assert_eq!(one.steer_to(frame), 0);
        }
        let four = WorkerPool::new(PoolConfig { workers: 4, ..Default::default() }, forwarding_datapath);
        for flow in 0..1000 {
            let packet = flow_packet(flow);
            assert_eq!(four.steer_to(packet.data()), steer(rss_hash_packet(packet.data()), 4) as u32);
        }
    }

    /// The acceptance-criteria test: the pool spawns one thread per shard
    /// at construction and none afterwards — tenant registration, a
    /// steady-state run and shutdown all reuse the existing shards. The
    /// count is the pool's own, so sibling tests building pools in
    /// parallel cannot disturb it.
    #[test]
    fn pool_spawns_no_threads_after_construction() {
        let config = PoolConfig { workers: 4, batch_size: 32, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let counters = pool.counters();
        assert_eq!(counters.snapshot().threads_spawned, 4, "one spawn per shard at construction");

        let tenant = pool.add_tenant(&oif_datapath(9), TenantQos::default());
        assert_eq!(counters.snapshot().threads_spawned, 4, "add_tenant must not spawn");

        // The scaling workload: many enqueue/flush rounds across tenants.
        for round in 0..10 {
            if round % 2 == 0 {
                pool.enqueue_all((0..256).map(flow_packet));
            } else {
                pool.tenant(tenant).enqueue_all((0..256).map(flow_packet));
            }
            let report = pool.flush();
            assert_eq!(report.run.processed, 256);
        }
        assert_eq!(counters.snapshot().threads_spawned, 4, "steady state must not spawn");
        pool.shutdown();
        assert_eq!(counters.snapshot().threads_spawned, 4, "shutdown must not spawn");
    }

    /// Steering is a pure function of the packet and spreads distinct
    /// flows over every shard; the flush reports shards in index order.
    #[test]
    fn steering_is_consistent_and_spread() {
        let config = PoolConfig { workers: 4, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        for flow in 0..256 {
            let pkt = flow_packet(flow);
            assert_eq!(pool.steer_to(pkt.data()), pool.steer_to(pkt.data()));
            assert!(pool.enqueue(pkt));
        }
        for (shard, stats) in pool.shard_stats().iter().enumerate() {
            assert!(stats.enqueued > 16, "shard {shard} imbalanced: {}", stats.enqueued);
        }
        let expected: Vec<u64> = pool.shard_stats().iter().map(|s| s.enqueued).collect();
        let report = pool.flush();
        assert_eq!(report.run.processed, 256);
        assert_eq!(report.run.forwarded, 256);
        let processed: Vec<u64> = pool.shard_stats().iter().map(|s| s.processed).collect();
        assert_eq!(processed, expected, "each shard processed exactly what was steered to it");
    }

    /// The worker count is clamped to `1..=MAX_WORKERS`, and the builder
    /// runs once per shard with the shard's index as CPU id.
    #[test]
    fn worker_count_is_clamped() {
        let pool = WorkerPool::new(PoolConfig { workers: 0, ..Default::default() }, forwarding_datapath);
        assert_eq!(pool.workers(), 1);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pool = WorkerPool::new(PoolConfig { workers: 10_000, ..Default::default() }, |cpu| {
            seen.lock().unwrap().push(cpu);
            forwarding_datapath(cpu)
        });
        assert_eq!(pool.workers(), MAX_WORKERS);
        assert_eq!(*seen.lock().unwrap(), (0..MAX_WORKERS).collect::<Vec<_>>());
    }

    /// Processing is bounded by `batch_size` but its results are not a
    /// function of it.
    #[test]
    fn batch_size_does_not_change_results() {
        let packets: Vec<PacketBuf> = (0..100).map(flow_packet).collect();
        let expected = reference_counts(2, &packets, forwarding_datapath);
        for batch_size in [1, 7, 32, 1024] {
            let config = PoolConfig { workers: 2, batch_size, ..Default::default() };
            let mut pool = WorkerPool::new(config, forwarding_datapath);
            let window = window_counts(&mut pool, |pool| {
                assert_eq!(pool.enqueue_all(packets.iter().cloned()), 100);
            });
            assert_eq!(window, expected, "batch_size {batch_size}");
        }
    }

    /// An `End.BPF` program that counts invocations in entry 0 of a
    /// per-CPU array attached as fd 1, then forwards.
    fn counting_program() -> ebpf_vm::Program {
        let mut b = ProgramBuilder::new();
        b.store_imm(AccessSize::Word, 10, -4, 0);
        b.load_map_fd(1, 1);
        b.mov_reg(2, 10);
        b.add_imm(2, -4);
        b.call(ids::MAP_LOOKUP_ELEM);
        b.jmp_imm(jmp::JEQ, 0, 0, "out");
        b.load_mem(AccessSize::Double, 1, 0, 0);
        b.add_imm(1, 1);
        b.store_mem(AccessSize::Double, 0, 1, 0);
        b.label("out");
        b.ret(retcode::BPF_OK as i32);
        b.build_program("count", ProgramType::LwtSeg6Local).expect("static program")
    }

    /// The acceptance-criteria test: N shards share one per-CPU map; after
    /// a run on N concurrent shard threads, every shard's slot holds
    /// exactly the packets that shard processed — the slots are disjoint,
    /// with no lost or double-counted updates.
    #[test]
    fn per_worker_map_state_is_disjoint() {
        const WORKERS: u32 = 4;
        let sid = addr("fc00::e1");
        let counter: Arc<PerCpuArrayMap> = PerCpuArrayMap::new(8, 1, WORKERS);
        let shared: MapHandle = counter.clone();

        let config = PoolConfig { workers: WORKERS, batch_size: 8, ..Default::default() };
        let mut pool = WorkerPool::new(config, |cpu| {
            let mut dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(cpu);
            dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::direct(1)]);
            // Each shard loads its own program instance against the shared
            // per-CPU map, as each kernel CPU would.
            let mut maps: HashMap<u32, MapHandle> = HashMap::new();
            maps.insert(1, Arc::clone(&shared));
            let prog = load(counting_program(), &maps, &dp.helpers).expect("verified program");
            dp.add_local_sid(netpkt::Ipv6Prefix::host(sid), Seg6LocalAction::EndBpf { prog });
            dp
        });

        // 400 packets over many flows; vary the source port so flows spread.
        for flow in 0..400u32 {
            let srh = SegmentRoutingHeader::from_path(proto::UDP, &[sid, addr("fc00::99")]);
            let pkt = build_srv6_udp_packet(
                addr(&format!("2001:db8::{:x}", flow + 1)),
                &srh,
                (1000 + flow) as u16,
                5001,
                &[0u8; 16],
                64,
            );
            assert!(pool.enqueue(pkt));
        }
        let steered: Vec<u64> = pool.shard_stats().iter().map(|s| s.enqueued).collect();
        let report = pool.flush();
        assert_eq!(report.run.processed, 400);
        assert_eq!(report.run.forwarded, 400);

        // Each shard's per-CPU slot counted exactly its own packets.
        let key = 0u32.to_ne_bytes();
        let mut total = 0;
        for cpu in 0..WORKERS {
            let slot = counter.lookup_cpu(&key, cpu).unwrap();
            let count = u64::from_le_bytes(slot.try_into().unwrap());
            assert_eq!(count, steered[cpu as usize], "shard {cpu} slot mismatch");
            assert!(count > 0, "shard {cpu} processed nothing — steering collapsed");
            total += count;
        }
        assert_eq!(total, 400);
    }

    /// Backpressure: a full shard ring rejects deterministically. The
    /// drain daemon doubles as a worker-stall handshake so the test
    /// controls exactly when the worker consumes its ring.
    #[test]
    fn full_shard_ring_rejects_and_counts() {
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let config = PoolConfig { workers: 1, batch_size: 1, queue_depth: 4, ..Default::default() };
        let mut pool = WorkerPool::new(config, move |cpu| {
            let entered_tx = entered_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            ShardSetup::new(forwarding_datapath(cpu)).with_drain(Box::new(move |_| {
                let _ = entered_tx.send(());
                let _ = release_rx.lock().unwrap().recv();
            }))
        });

        // First packet: the worker takes it off the ring, processes it
        // and blocks inside the drain.
        assert!(pool.enqueue(flow_packet(0)));
        entered_rx.recv().expect("worker entered the drain");

        // The ring now holds 0 descriptors and the worker consumes
        // nothing: the next `queue_capacity` packets fit, everything after
        // that is backpressure.
        assert_eq!(pool.queue_capacity(), 4);
        for flow in 1..=4 {
            assert!(pool.enqueue(flow_packet(flow)), "packet {flow} fits the ring");
        }
        assert!(!pool.enqueue(flow_packet(5)));
        assert!(!pool.enqueue(flow_packet(6)));
        assert_eq!(pool.rejected(), 2);
        // Exact mid-run and without any barrier: the dispatcher wrote
        // these cells itself.
        assert_eq!(admission(&pool.shard_stats()[0]), (5, 2));
        // The default tenant carries all of it — the per-tenant view of
        // the same cells.
        assert_eq!(admission(&pool.tenant_stats()[0]), (5, 2));

        // Unblock every future drain call and let the barrier confirm that
        // accepted packets — and only those — were processed.
        drop(release_tx);
        let report = pool.flush();
        assert_eq!(report.run.processed, 5);
        assert_eq!(report.run.forwarded, 5);
    }

    /// The queue-depth satellite: a non-power-of-two depth rounds **up**,
    /// the effective capacity is exactly reachable, and the
    /// enqueued/rejected split stays exact at the boundary.
    #[test]
    fn queue_depth_rounds_up_and_boundary_accounting_is_exact() {
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let config = PoolConfig { workers: 1, batch_size: 1, queue_depth: 5, ..Default::default() };
        let mut pool = WorkerPool::new(config, move |cpu| {
            let entered_tx = entered_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            ShardSetup::new(forwarding_datapath(cpu)).with_drain(Box::new(move |_| {
                let _ = entered_tx.send(());
                let _ = release_rx.lock().unwrap().recv();
            }))
        });
        assert_eq!(pool.queue_capacity(), 8, "queue_depth 5 rounds up to 8");

        // Stall the worker after packet 0, then fill the ring to *exactly*
        // its capacity: every one of the 8 must fit, the 9th must not.
        assert!(pool.enqueue(flow_packet(0)));
        entered_rx.recv().expect("worker entered the drain");
        for flow in 1..=8 {
            assert!(pool.enqueue(flow_packet(flow)), "packet {flow} of exactly capacity fits");
        }
        assert!(!pool.enqueue(flow_packet(9)), "capacity + 1 is rejected");
        assert_eq!(admission(&pool.shard_stats()[0]), (9, 1));

        drop(release_tx);
        let report = pool.flush();
        assert_eq!(report.run.processed, 9, "every accepted packet, none of the rejected");
        pool.shutdown();
    }

    /// An enqueue-only caller must not strand work: when a shard's ring
    /// goes idle, whatever was dequeued is processed (and the drain daemon
    /// runs) without waiting for a flush barrier.
    #[test]
    fn idle_worker_processes_partial_batches_without_a_barrier() {
        let (drained_tx, drained_rx) = mpsc::channel::<()>();
        let config = PoolConfig { workers: 1, batch_size: 32, ..Default::default() };
        let mut pool = WorkerPool::new(config, move |cpu| {
            let drained_tx = drained_tx.clone();
            ShardSetup::new(forwarding_datapath(cpu)).with_drain(Box::new(move |_| {
                let _ = drained_tx.send(());
            }))
        });
        // 5 packets — far below the staging burst — and no flush call.
        for flow in 0..5 {
            assert!(pool.enqueue(flow_packet(flow)));
        }
        // The drain daemon only runs after a processed batch; its signal
        // proves the packets did not wait for a barrier.
        drained_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("idle worker processed its partial batch");
        let report = pool.flush();
        assert_eq!(report.run.processed, 5);
    }

    /// The adaptive-batching satellite: the worker consumes a backlog in
    /// occupancy-sized dequeue bursts capped at the NAPI budget, while
    /// *processing* (and the drain-daemon cadence) stays bounded by
    /// `batch_size` — so the batch count is exactly
    /// `ceil(backlog / min(batch_size, NAPI_BUDGET))`, flush semantics and
    /// verdict totals are unchanged, and perf rings provisioned against
    /// `batch_size` can never overflow between drains.
    #[test]
    fn adaptive_bursts_respect_the_napi_budget_and_batch_bound() {
        const BACKLOG: u32 = 2 * NAPI_BUDGET as u32;
        // batch_size → expected batch bound min(batch_size, NAPI_BUDGET):
        // the budget caps a poll's dequeue, the batch size caps each
        // processed (and drained) batch within it.
        for (batch_size, bound) in [(32usize, 32u64), (4 * NAPI_BUDGET, NAPI_BUDGET as u64)] {
            let (entered_tx, entered_rx) = mpsc::channel::<()>();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
            let config = PoolConfig {
                workers: 1,
                batch_size,
                queue_depth: 2 * BACKLOG as usize,
                ..Default::default()
            };
            let mut pool = WorkerPool::new(config, move |cpu| {
                let entered_tx = entered_tx.clone();
                let release_rx = Arc::clone(&release_rx);
                ShardSetup::new(forwarding_datapath(cpu)).with_drain(Box::new(move |_| {
                    let _ = entered_tx.send(());
                    let _ = release_rx.lock().unwrap().recv();
                }))
            });

            // One packet puts the worker to work; it blocks in the drain
            // after that first (1-packet) batch.
            assert!(pool.enqueue(flow_packet(0)));
            entered_rx.recv().expect("worker entered the drain");
            // Build the whole backlog while the worker is stalled, so
            // every later poll observes full occupancy deterministically.
            assert_eq!(pool.enqueue_all((1..=BACKLOG).map(flow_packet)), BACKLOG as usize);
            // Release the worker batch by batch, counting drain entries —
            // one per processed batch, so the backlog must take exactly
            // BACKLOG / bound of them.
            for _ in 0..BACKLOG as u64 / bound {
                release_tx.send(()).expect("worker waits in the drain");
                entered_rx.recv_timeout(std::time::Duration::from_secs(10)).expect("one drain per batch");
            }
            drop(release_tx);
            let report = pool.flush();
            assert_eq!(report.run.processed, u64::from(BACKLOG) + 1, "flush semantics kept");
            let totals = pool.shutdown();
            assert_eq!(totals[0].processed, u64::from(BACKLOG) + 1);
            assert_eq!(
                totals[0].batches,
                1 + u64::from(BACKLOG) / bound,
                "batch_size {batch_size}: batches must be {bound}-bounded"
            );
        }
    }

    /// Tenant plumbing: descriptors stamped by a tenant handle execute on
    /// that tenant's datapath (distinguishable verdicts), outputs carry
    /// the tenant id, and the per-tenant counter rows sum to the global
    /// per-shard view.
    #[test]
    fn tenants_route_through_their_own_datapaths() {
        let config = PoolConfig { workers: 2, batch_size: 8, collect_outputs: true, ..Default::default() };
        let mut pool = WorkerPool::from_datapath(config, &oif_datapath(10));
        let tenant_b = pool.add_tenant(&oif_datapath(20), TenantQos::default());
        assert_eq!(pool.tenants(), 2);

        let packets: Vec<PacketBuf> = (0..64).map(flow_packet).collect();
        assert_eq!(pool.enqueue_all(packets.iter().cloned()), 64);
        assert_eq!(pool.tenant(tenant_b).enqueue_all(packets.iter().cloned()), 64);
        let mut report = pool.flush();
        let mut seen = [0u64; 2];
        for outputs in report.outputs.iter_mut() {
            for (tenant, skb, bv) in outputs.drain(..) {
                let expected_oif = if tenant == TenantId::DEFAULT { 10 } else { 20 };
                assert!(
                    matches!(bv.verdict, Verdict::Forward { oif, .. } if oif == expected_oif),
                    "tenant {tenant:?} cross-routed: {:?}",
                    bv.verdict
                );
                seen[tenant.index()] += 1;
                pool.recycle(skb.into_packet());
            }
        }
        assert_eq!(seen, [64, 64]);

        // Admission accounting: per-tenant and per-shard views agree.
        assert_eq!(admission(&pool.tenant_stats()[0]), (64, 0));
        assert_eq!(admission(&pool.tenant_stats()[1]), (64, 0));
        let total_enqueued: u64 = pool.shard_stats().iter().map(|s| s.enqueued).sum();
        assert_eq!(total_enqueued, 128);

        // Live counters: tenant rows sum to the aggregated shard view.
        let snap = pool.counters().snapshot();
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].totals().processed, 64);
        assert_eq!(snap.tenants[1].totals().processed, 64);
        assert_eq!(snap.processed(), 128);
        for shard in 0..2 {
            let mut summed = crate::telemetry::ShardSnapshot::default();
            for tenant in &snap.tenants {
                summed.accumulate(&tenant.shards[shard]);
            }
            assert_eq!(summed, snap.shards[shard], "shard {shard}");
        }
        pool.shutdown();
    }

    #[test]
    fn outputs_carry_verdicts_and_rewritten_packets() {
        let config = PoolConfig { workers: 2, batch_size: 4, collect_outputs: true, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let packets: Vec<PacketBuf> = (0..32).map(flow_packet).collect();
        pool.enqueue_all(packets.iter().cloned());
        let mut report = pool.flush();
        assert_eq!(report.outputs.len(), 2);
        let total: usize = report.outputs.iter().map(Vec::len).sum();
        assert_eq!(total, 32);
        for (shard, outputs) in report.outputs.iter_mut().enumerate() {
            for (tenant, skb, bv) in outputs.drain(..) {
                assert_eq!(tenant, TenantId::DEFAULT);
                assert_eq!(pool.steer_to(skb.packet.data()) as usize, shard);
                assert!(matches!(bv.verdict, Verdict::Forward { oif: 1, .. }));
                assert_eq!(bv.work, seg6_core::WorkSummary::default());
                // The hop limit was decremented in place.
                let header = netpkt::Ipv6Header::parse(skb.packet.data()).unwrap();
                assert_eq!(header.hop_limit, 63);
                // Output buffers can be handed back to the arena.
                pool.recycle(skb.into_packet());
            }
        }
        assert_eq!(pool.buf_pool().available(), 32);
        // The next flush starts from a clean output buffer.
        pool.enqueue(flow_packet(0));
        let report = pool.flush();
        assert_eq!(report.outputs.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn shutdown_processes_the_backlog_and_reports_in_shard_order() {
        let config = PoolConfig { workers: 4, batch_size: 32, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        // 100 packets is not a multiple of the staging burst, so shards
        // hold partial bursts when the shutdown message lands.
        pool.enqueue_all((0..100).map(flow_packet));
        let enqueued: Vec<u64> = pool.shard_stats().iter().map(|s| s.enqueued).collect();
        let totals = pool.shutdown();
        assert_eq!(totals.len(), 4);
        for (shard, (stats, expected)) in totals.iter().zip(enqueued).enumerate() {
            assert_eq!(stats.processed, expected, "shard {shard} processed its backlog");
        }
        assert_eq!(totals.iter().map(|s| s.processed).sum::<u64>(), 100);
    }

    /// Live telemetry satellite: the counter cells are readable mid-run
    /// without a barrier, and at every quiet point (after a flush barrier)
    /// every cell balances — `enqueued = processed = forwarded +
    /// local_delivered + dropped` — and the flush windows add up to it.
    #[test]
    fn live_counters_balance_at_every_flush() {
        let config = PoolConfig { workers: 4, batch_size: 16, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let counters = pool.counters();
        let mut flushed = ShardSnapshot::default();
        for round in 1..=3u64 {
            pool.enqueue_all((0..256).map(flow_packet));
            // A mid-traffic sample must be readable without a barrier and
            // never exceed what was enqueued.
            let live = counters.snapshot();
            assert!(live.processed() <= live.enqueued());
            flushed.accumulate(&pool.flush().run);

            let quiet = counters.snapshot();
            assert_eq!(quiet.enqueued(), 256 * round);
            assert_eq!(quiet.totals(), flushed, "the windows add up to the cells");
            assert_eq!(quiet.in_flight(), 0);
            for (shard, cell) in quiet.shards.iter().enumerate() {
                assert_eq!(cell.enqueued, cell.processed, "shard {shard}");
                assert_eq!(cell.processed, cell.forwarded + cell.local_delivered + cell.dropped);
            }
        }
        // Counters survive (and stay exact across) shutdown.
        let totals = pool.shutdown();
        assert_eq!(counters.snapshot().shards, totals);
    }

    /// Recycling satellite: byte-slice ingestion reuses the buffers the
    /// flush barrier returned — after warm-up, whole rounds run without the
    /// arena allocating a single fresh buffer.
    #[test]
    fn bytes_ingestion_recycles_buffers_between_rounds() {
        let config = PoolConfig { workers: 2, batch_size: 8, queue_depth: 512, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let frames: Vec<PacketBuf> = (0..128).map(flow_packet).collect();
        let frames: Vec<&[u8]> = frames.iter().map(|p| p.data()).collect();

        // Warm-up: the first round mints fresh buffers.
        for _ in 0..2 {
            assert_eq!(pool.enqueue_bytes_all(0, frames.iter().copied()), 128);
            assert_eq!(pool.flush().run.processed, 128);
        }
        // Buffers come back only at the barrier, so a window needs exactly
        // the buffers it enqueued: the first round minted one per frame,
        // and staying flat is deterministic, not scheduling-dependent.
        let minted = pool.buf_pool().allocations();
        assert_eq!(minted, 128, "one buffer per frame of the first window");

        // Steady state: every round is served from recycled storage.
        for round in 0..4 {
            assert_eq!(pool.enqueue_bytes_all(0, frames.iter().copied()), 128);
            assert_eq!(pool.flush().run.processed, 128);
            assert_eq!(
                pool.buf_pool().allocations(),
                minted,
                "round {round} minted fresh buffers instead of recycling"
            );
        }
        assert!(pool.buf_pool().recycle_hits() >= 4 * 128);
        // Verdicts are identical to per-packet processing of the same
        // packets in steering order.
        let packets: Vec<PacketBuf> = (0..128).map(flow_packet).collect();
        let window = window_counts(&mut pool, |pool| {
            pool.enqueue_bytes_all(0, frames.iter().copied());
        });
        assert_eq!(window, reference_counts(2, &packets, forwarding_datapath));
    }

    /// Without collected outputs the flush barrier itself puts every
    /// buffer back into the arena: when `flush()` returns, `available()`
    /// is whole again, with no later ingestion call needed to reclaim
    /// anything.
    #[test]
    fn flush_returns_every_buffer_to_the_arena() {
        let config = PoolConfig { workers: 2, batch_size: 8, queue_depth: 512, ..Default::default() };
        let mut pool = WorkerPool::new(config, forwarding_datapath);
        let packets: Vec<PacketBuf> = (0..128).map(flow_packet).collect();
        let frames: Vec<&[u8]> = packets.iter().map(|p| p.data()).collect();

        // The first window mints its buffers.
        assert_eq!(pool.enqueue_bytes_all(0, frames.iter().copied()), 128);
        pool.flush();
        let available = pool.buf_pool().available();
        assert_eq!(available as u64, pool.buf_pool().allocations(), "every minted buffer is back");

        for round in 0..3 {
            for frame in &frames {
                assert!(pool.enqueue_bytes_at(0, frame));
            }
            assert_eq!(pool.buf_pool().available(), available - 128);
            let report = pool.flush();
            assert!(report.outputs.iter().all(Vec::is_empty), "nothing is collected");
            assert_eq!(pool.buf_pool().available(), available, "round {round}: buffers stayed out");
        }
    }

    /// `update_tenant_qos` reads the ring quota where `add_tenant` does, so
    /// a share above the whole ring is refused rather than clamped.
    #[test]
    #[should_panic(expected = "ring quota must be a fraction in (0, 1]")]
    fn a_ring_quota_above_one_is_refused() {
        let mut pool = WorkerPool::new(PoolConfig::default(), forwarding_datapath);
        pool.update_tenant_qos(TenantId::DEFAULT, TenantQos { ring_quota: Some(1.5), ..Default::default() });
    }

    /// An `End.BPF` program that bumps this CPU's slot of the per-CPU
    /// array at fd 1, then emits the new count through
    /// `bpf_perf_event_output(..., BPF_F_CURRENT_CPU, ...)` into the perf
    /// array at fd 2, then forwards.
    fn emitting_program() -> ebpf_vm::Program {
        let mut b = ProgramBuilder::new();
        b.mov_reg(9, 1); // save ctx
        b.store_imm(AccessSize::Word, 10, -4, 0);
        b.load_map_fd(1, 1);
        b.mov_reg(2, 10);
        b.add_imm(2, -4);
        b.call(ids::MAP_LOOKUP_ELEM);
        b.jmp_imm(jmp::JEQ, 0, 0, "out");
        b.load_mem(AccessSize::Double, 1, 0, 0);
        b.add_imm(1, 1);
        b.store_mem(AccessSize::Double, 0, 1, 0);
        // Stash the fresh per-CPU sequence number and emit it.
        b.store_mem(AccessSize::Double, 10, 1, -16);
        b.mov_reg(1, 9);
        b.load_map_fd(2, 2);
        b.load_imm64(3, 0xffff_ffff); // BPF_F_CURRENT_CPU, zero-extended
        b.mov_reg(4, 10);
        b.add_imm(4, -16);
        b.mov_imm(5, 8);
        b.call(ids::PERF_EVENT_OUTPUT);
        b.label("out");
        b.ret(retcode::BPF_OK as i32);
        b.build_program("emit-seq", ProgramType::LwtSeg6Local).expect("static program")
    }

    /// Satellite coverage: perf events emitted with `BPF_F_CURRENT_CPU`
    /// from every shard are all collected by the per-worker drain daemons
    /// — none lost (including events of the final partial batch, drained
    /// at shutdown), none duplicated.
    #[test]
    fn per_cpu_perf_events_survive_pool_shutdown_exactly_once() {
        const WORKERS: u32 = 4;
        const PACKETS: u32 = 403; // deliberately not a batch multiple
        let sid = addr("fc00::e1");
        let counter: MapHandle = PerCpuArrayMap::new(8, 1, WORKERS);
        let perf = PerfEventArray::per_cpu(PACKETS as usize, WORKERS);
        let ring = perf.perf_buffer().expect("perf array has a buffer");
        let collected: Arc<std::sync::Mutex<Vec<PerfEvent>>> = Arc::new(std::sync::Mutex::new(Vec::new()));

        let config = PoolConfig { workers: WORKERS, batch_size: 8, ..Default::default() };
        let mut pool = WorkerPool::new(config, |cpu| {
            let mut dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(cpu);
            dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::direct(1)]);
            let mut maps: HashMap<u32, MapHandle> = HashMap::new();
            maps.insert(1, Arc::clone(&counter));
            maps.insert(2, perf.clone());
            let prog = load(emitting_program(), &maps, &dp.helpers).expect("verified program");
            dp.add_local_sid(netpkt::Ipv6Prefix::host(sid), Seg6LocalAction::EndBpf { prog });
            let ring = Arc::clone(&ring);
            let collected = Arc::clone(&collected);
            ShardSetup::new(dp).with_drain(Box::new(move |cpu| {
                // Each shard's daemon drains only its own ring.
                ring.take_cpu(cpu, &mut collected.lock().unwrap());
            }))
        });

        for flow in 0..PACKETS {
            let srh = SegmentRoutingHeader::from_path(proto::UDP, &[sid, addr("fc00::99")]);
            let pkt = build_srv6_udp_packet(
                addr(&format!("2001:db8::{:x}", flow + 1)),
                &srh,
                (1000 + flow) as u16,
                5001,
                &[0u8; 16],
                64,
            );
            assert!(pool.enqueue(pkt));
        }
        let per_shard: Vec<u64> = pool.shard_stats().iter().map(|s| s.enqueued).collect();
        let totals = pool.shutdown();
        assert_eq!(totals.iter().map(|s| s.processed).sum::<u64>(), u64::from(PACKETS));

        // Every ring is empty — the daemons took everything before exit.
        assert!(ring.is_empty(), "events stranded in a ring");
        assert_eq!(ring.dropped(), 0);

        // All events collected, exactly once: per shard, the sequence
        // numbers are 1..=n with no gap or repeat.
        let collected = collected.lock().unwrap();
        assert_eq!(collected.len(), PACKETS as usize);
        let mut seqs: Vec<Vec<u64>> = vec![Vec::new(); WORKERS as usize];
        for event in collected.iter() {
            let seq = u64::from_le_bytes(event.data.as_slice().try_into().expect("8-byte event"));
            seqs[event.cpu as usize].push(seq);
        }
        for (cpu, mut shard_seqs) in seqs.into_iter().enumerate() {
            shard_seqs.sort_unstable();
            let expected: Vec<u64> = (1..=per_shard[cpu]).collect();
            assert_eq!(shard_seqs, expected, "shard {cpu} events lost or duplicated");
            assert!(!expected.is_empty(), "shard {cpu} saw no traffic — steering collapsed");
        }
    }
}
