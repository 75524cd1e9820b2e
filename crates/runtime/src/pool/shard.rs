//! The shard thread: what one worker owns, how it is fed and woken, and
//! how it schedules its tenants.
//!
//! The dispatcher holds a [`ShardTx`] per shard: the producer end of the
//! descriptor ring, the sideband control channel ([`Ctrl`]), the flush
//! [`Barrier`] and the park/wake handshake. The worker thread owns a
//! [`ShardState`] — one [`ShardTenant`] record per registered tenant — and
//! runs [`worker_loop`]: NAPI-style ring windows, deficit-round-robin
//! tenant runs, drain daemon, barrier answers, park when idle.

use super::admission::{work_cost, QosCell, COST_BASE};
use super::{BatchDrain, PoolConfig, TenantId};
use crate::ring::{self, Consumer, Producer, Window};
use crate::telemetry::{PoolCounters, TenantCounters};
use seg6_core::{BatchVerdict, DropReason, Seg6Datapath, Skb, Verdict, WorkSummary};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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

// A tenant's run queue holds offsets into a poll's window as `u16`s.
const _: () = assert!(NAPI_BUDGET <= 1 << 16);

/// How long a parked worker sleeps before re-checking its inputs on its
/// own, and a dispatcher waiting on a flush barrier before re-checking
/// that the worker is alive. Wakeups are explicit (publish/control/answer
/// unpark the thread); the timeout only bounds the damage if the other
/// side vanishes without a word.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

/// One ring descriptor, which is also the packet's output record: the
/// tenant whose datapath must execute the packet, the packet, and its
/// verdict slot ([`BatchVerdict::UNSET`] until the run writes it). The
/// dispatcher stages it whole, so the worker moves it from its ring slot
/// onto its outputs with one copy ([`Window::take_onto`]).
pub(super) type Desc = (TenantId, Skb, BatchVerdict);

/// The descriptor the dispatcher stages for `tenant`'s `skb`: its verdict
/// slot holds [`BatchVerdict::UNSET`], spelled out field by field so each
/// field is stored straight into the staging slot. A copy of the constant
/// itself goes through a stack temporary as one 28-byte block, and a
/// sampling profile showed its reload stalling on the overlapping stores
/// that wrote it (12 % of `static_mix_64`'s samples).
#[inline]
pub(super) fn staged(tenant: TenantId, skb: Skb) -> Desc {
    let unset = BatchVerdict { verdict: Verdict::Drop(DropReason::Malformed), work: WorkSummary::default() };
    (tenant, skb, unset)
}

/// What one shard answers a flush barrier with: the packets it processed
/// since the previous one, with the tenant that executed them and their
/// verdicts, in processing order. A packet's record is where the worker
/// moves its descriptor out of the ring slot, and where the datapath then
/// processes it and writes its verdict: the one move of the packet between
/// the ring and the dispatcher.
pub(super) type ShardOutputs = Vec<Desc>;

/// Everything one shard keeps for one tenant. Built by the dispatcher and
/// shipped whole in [`Ctrl::AddTenant`]; the run queue is pre-sized to the
/// poll burst there, so the data plane never grows it.
pub(super) struct ShardTenant {
    /// The tenant's datapath, forked for this shard's CPU id.
    datapath: Seg6Datapath,
    /// The current poll's packets of this tenant, as offsets into the
    /// poll's ring [`Window`] (arrival order preserved): the packets stay
    /// in their ring slots until a run takes them. The DRR scheduler takes
    /// `batch_size`-capped runs off its front.
    queue: VecDeque<u16>,
    /// DRR deficit, in [`work_cost`] tokens. Signed: a run's actual cost is
    /// only known after it executed, so a tenant may overdraw by at most
    /// one run and pays the debt out of its next quantum. Reset to (at
    /// most) zero when the queue empties — an idle tenant hoards no credit.
    deficit: i64,
    /// The DRR weight, shared with the dispatcher.
    qos: Arc<QosCell>,
    /// The tenant's live-counter row, updated once per run.
    cells: Arc<TenantCounters>,
}

impl ShardTenant {
    pub(super) fn new(datapath: Seg6Datapath, qos: Arc<QosCell>, cells: Arc<TenantCounters>) -> Self {
        ShardTenant { datapath, queue: VecDeque::with_capacity(NAPI_BUDGET), deficit: 0, qos, cells }
    }
}

/// One shard's flush barrier, shared by the dispatcher and the shard's
/// worker: a request/done sequence pair and a slot for the window's
/// outputs. The dispatcher bumps `requested` (after everything it published)
/// and wakes the worker the way a ring publish does; the worker, between
/// bursts, sees the new sequence, consumes its ring dry, moves its outputs
/// into the slot, stores the sequence into `done` and unparks the
/// dispatcher. Nothing is built per barrier — no channel, no message.
#[derive(Default)]
pub(super) struct Barrier {
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
    pub(super) fn request(&self, seq: u64) {
        self.slot.lock().expect("worker answers the barrier").waiter = Some(std::thread::current());
        self.requested.store(seq, Ordering::Release);
    }

    /// Dispatcher side: waits for the answer to barrier `seq` and takes
    /// its outputs. A worker that died instead of answering panics here.
    pub(super) fn wait(&self, seq: u64, worker: &JoinHandle<()>) -> ShardOutputs {
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
pub(super) enum Ctrl {
    /// Install a new tenant's record on this shard, then acknowledge. The
    /// dispatcher waits for every shard's acknowledgement before
    /// `add_tenant` returns, so no descriptor stamped with the new tenant
    /// can reach a worker that has not installed it.
    AddTenant { tenant: Box<ShardTenant>, done: Sender<()> },
    /// Finish the backlog, run the final drain, exit.
    Shutdown,
}

/// Dispatcher-side handle of one shard: the descriptor-ring producer, the
/// staging buffer, and the wakeup state.
pub(super) struct ShardTx {
    /// Descriptor ring into the worker.
    pub(super) ring: Producer<Desc>,
    /// Sideband control channel.
    pub(super) ctrl: Sender<Ctrl>,
    /// The flush barrier shared with the worker.
    pub(super) barrier: Arc<Barrier>,
    /// Staged descriptors not yet published: batch ingestion fills it up
    /// to one burst, for one tenant, and publishes the remainder before it
    /// returns — always empty between public API calls.
    pub(super) staging: Vec<Desc>,
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
    /// sleeping. A plain load reads the flag first, so a publish to a
    /// running worker writes no shared line; only a set flag is swapped
    /// and answered with an unpark.
    pub(super) fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::Relaxed) && self.sleeping.swap(false, Ordering::SeqCst) {
            self.thread.unpark();
        }
    }
}

/// The state one shard thread owns for its whole life. The run queues and
/// the output buffer are reused across batches: after the first flush
/// window warms them up, the shard's steady state performs zero heap allocations
/// per packet (the `alloc-counter` test feature proves it).
struct ShardState {
    id: u32,
    /// One record per tenant, indexed by [`TenantId::index`]. Grown by
    /// [`Ctrl::AddTenant`]; never shrinks.
    tenants: Vec<ShardTenant>,
    /// Round-robin cursor of the DRR scheduler: the next tenant to
    /// credit. Persists across polls so the rotation is fair over time.
    drr_next: usize,
    /// The flush window's processed packets, handed over at the next
    /// barrier.
    outputs: ShardOutputs,
    drain: Option<BatchDrain>,
    /// Park handshake; see [`ShardTx::sleeping`].
    sleeping: Arc<AtomicBool>,
    /// The flush barrier shared with the dispatcher, and the last sequence
    /// this shard answered.
    barrier: Arc<Barrier>,
    barriers_answered: u64,
}

/// Spawns shard `id`'s thread with `default` as its tenant 0, pinned to
/// `pin` when that succeeds (the outcome is recorded in `counters`), and
/// returns the dispatcher's handle plus the thread's.
pub(super) fn spawn(
    id: u32,
    config: &PoolConfig,
    queue_capacity: usize,
    default: ShardTenant,
    drain: Option<BatchDrain>,
    pin: Option<u32>,
    counters: &Arc<PoolCounters>,
) -> (ShardTx, JoinHandle<()>) {
    let (ring_tx, ring_rx) = ring::spsc_ring::<Desc>(queue_capacity);
    let (ctrl_tx, ctrl_rx) = channel();
    let sleeping = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::default());
    let state = ShardState {
        id,
        tenants: vec![default],
        drr_next: 0,
        outputs: Vec::new(),
        drain,
        sleeping: Arc::clone(&sleeping),
        barrier: Arc::clone(&barrier),
        barriers_answered: 0,
    };
    counters.count_thread_spawn();
    let worker_config = config.clone();
    let placement = Arc::clone(counters);
    let handle = std::thread::Builder::new()
        .name(format!("seg6-worker-{id}"))
        .spawn(move || {
            let pinned = pin.filter(|&core| crate::affinity::pin_current_thread(core).is_ok());
            placement.record_placement(id, pinned);
            worker_loop(worker_config, state, ctrl_rx, ring_rx)
        })
        .expect("spawn worker thread");
    let tx = ShardTx {
        ring: ring_tx,
        ctrl: ctrl_tx,
        barrier,
        staging: Vec::with_capacity(config.batch_size.max(1)),
        thread: handle.thread().clone(),
        sleeping,
    };
    (tx, handle)
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

/// Serves one control message on the shard's thread. A new tenant's
/// record is pushed and acknowledged to the dispatcher (which blocks until
/// every shard has). Returns `false` when the message was the shutdown:
/// the backlog is finished and the final drain has run — no packet or
/// perf event is stranded — and the worker must exit.
fn serve_ctrl(
    msg: Ctrl,
    shard: &mut ShardState,
    ring: &mut Consumer<Desc>,
    clock: &mut u64,
    config: &PoolConfig,
) -> bool {
    match msg {
        Ctrl::AddTenant { tenant, done } => {
            shard.tenants.push(*tenant);
            let _ = done.send(());
            true
        }
        Ctrl::Shutdown => {
            drain_ring(shard, ring, clock, config);
            false
        }
    }
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

/// One NAPI-style poll: opens a window over a burst sized by the observed
/// ring occupancy (capped at the budget) and processes it. Returns whether
/// any descriptor moved.
fn poll_once(
    shard: &mut ShardState,
    ring: &mut Consumer<Desc>,
    clock: &mut u64,
    config: &PoolConfig,
) -> bool {
    // The descriptors stay in their ring slots; each tenant's run queue
    // gets their offsets (arrival order preserved within a tenant). The
    // shard clock advances per run inside `run_scheduler`, not per poll,
    // so a large NAPI burst does not time-stamp its first run with its
    // last packet's arrival.
    let mut window = ring.window(NAPI_BUDGET);
    if window.is_empty() {
        return false;
    }
    for offset in 0..window.len() {
        let (tenant, ..) = window.get(offset).expect("a fresh window has every offset");
        shard.tenants[tenant.index()].queue.push_back(offset as u16);
    }
    run_scheduler(shard, &mut window, clock, config);
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
fn run_scheduler(
    shard: &mut ShardState,
    window: &mut Window<'_, Desc>,
    clock: &mut u64,
    config: &PoolConfig,
) {
    let limit = config.batch_size.max(1);
    let tenants = shard.tenants.len();
    let quantum_unit = limit as i64 * COST_BASE as i64;
    let mut remaining: usize = shard.tenants.iter().map(|t| t.queue.len()).sum();
    while remaining > 0 {
        let t = shard.drr_next;
        shard.drr_next = (t + 1) % tenants;
        let tenant = &mut shard.tenants[t];
        if tenant.queue.is_empty() {
            continue;
        }
        tenant.deficit += i64::from(tenant.qos.weight()) * quantum_unit;
        while shard.tenants[t].deficit > 0 && !shard.tenants[t].queue.is_empty() {
            let run = limit.min(shard.tenants[t].queue.len());
            let cost = process_run(shard, window, t, run, clock);
            shard.tenants[t].deficit -= cost as i64;
            remaining -= run;
        }
        let tenant = &mut shard.tenants[t];
        if tenant.queue.is_empty() {
            // The queue drained: surrender leftover credit (an idle tenant
            // hoards nothing) but keep any debt for the next quantum.
            tenant.deficit = tenant.deficit.min(0);
        }
    }
}

/// Executes one tenant run: moves the next `run` descriptors of tenant
/// `t`'s queue out of their ring slots onto the tail of the shard's
/// outputs, where each is the packet's output record, hands the taken
/// prefix of the ring window back to the producer, and runs them as a
/// single batch call on the tenant's datapath, in place in their records
/// (processing order, tagged with the tenant). The shard clock is first
/// advanced to the run's newest RX timestamp (the
/// clock a kernel softirq batch would run under — bounded by `batch_size`,
/// like the run itself, so `bpf_ktime_get_ns`/End.DM never see the
/// timestamp spread of a whole NAPI burst). Adds the run — the delta of the
/// datapath's own statistics — and its priced cost to the tenant's counter
/// cell and runs the drain daemon. Returns the run's total [`work_cost`],
/// which the DRR loop charges against the tenant's deficit.
fn process_run(
    shard: &mut ShardState,
    window: &mut Window<'_, Desc>,
    t: usize,
    run: usize,
    clock: &mut u64,
) -> u64 {
    let tenant = &mut shard.tenants[t];
    let start = shard.outputs.len();
    for offset in tenant.queue.drain(..run) {
        window.take_onto(usize::from(offset), &mut shard.outputs);
    }
    // The run's slots are free once its packets left them: released
    // before the run executes, a worker stalled in it (or in the drain
    // after it) holds no ring slot it has already emptied.
    window.release_taken();
    let before = tenant.datapath.stats;
    let records = &mut shard.outputs[start..];
    *clock = records.iter().fold(*clock, |clock, (_, skb, _)| clock.max(skb.rx_timestamp_ns));
    tenant.datapath.process_batch_in_place(records, *clock);
    let cost: u64 = records.iter().map(|(_, _, bv)| work_cost(&bv.work)).sum();
    // The datapath counted every packet of the run; its delta is the run.
    tenant.cells.shard(shard.id).add_run(&before, &tenant.datapath.stats, cost);
    // The drain daemon runs batch-aware: after every `batch_size`-bounded
    // run's events are in the perf ring, on the worker that produced
    // them.
    run_drain(shard);
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// Size of what a tenant's run queue holds, read off the field's type.
    fn queued_size<T>(_queue: fn(&ShardTenant) -> &VecDeque<T>) -> usize {
        size_of::<T>()
    }

    /// What the dispatcher stages is what the worker may rely on: the
    /// tenant, and a verdict slot equal to `BatchVerdict::UNSET`.
    #[test]
    fn a_staged_descriptor_holds_an_unset_verdict() {
        let (tenant, _, verdict) = staged(TenantId::from_index(3), Skb::new(netpkt::PacketBuf::new()));
        assert_eq!((tenant, verdict), (TenantId::from_index(3), BatchVerdict::UNSET));
    }

    /// Bytes the worker moves per packet on the hand-off from its ring slot
    /// to its output record, as element size × moves — a deterministic
    /// unit. A packet is moved once, as one copy: the ring carries the
    /// output record itself (tenant, `Skb`, verdict slot), and
    /// `Window::take_onto` copies it from its slot straight onto the
    /// shard's outputs, where the datapath processes the packet and writes
    /// the verdict in place. The tenant run queues hold 2-byte window
    /// offsets, so no packet passes through them.
    ///
    /// The slot grew from 96 to 120 bytes, and the bytes moved per packet
    /// from 88 to 120, when the ring began carrying the whole record: the
    /// 96-byte descriptor was read out by value, which staged its 88-byte
    /// `Skb` on the stack before it was written into the record, and a
    /// sampling profile showed that reload stalling on its store (the
    /// record's verdict was written separately). Before the ring window,
    /// each `Skb` was moved twice: ring → tenant queue → outputs, 176 bytes
    /// per packet.
    #[test]
    fn the_worker_moves_each_packet_once_from_its_ring_slot_to_its_output() {
        const MOVES_PER_PACKET: usize = 1;
        assert_eq!(size_of::<Desc>(), 120, "a ring slot");
        assert_eq!(size_of::<(TenantId, Skb, BatchVerdict)>(), 120, "an output record");
        let _the_slot_is_the_record: fn(Desc) -> (TenantId, Skb, BatchVerdict) = |desc| desc;
        assert_eq!(queued_size(|tenant| &tenant.queue), size_of::<u16>(), "the run queues hold offsets");
        assert_eq!(size_of::<Desc>() * MOVES_PER_PACKET, 120, "bytes moved per packet");
    }
}
