//! Admission and QoS: what a tenant's packets cost, and whether the
//! dispatcher lets them onto a shard's ring.
//!
//! A tenant's [`TenantQos`] splits into two halves. The DRR weight lives in
//! a [`QosCell`] every shard reads while scheduling; the ring quota and the
//! cost budget are dispatcher state ([`TenantAdmission`]) consulted at
//! publish time by [`TenantAdmission::filter`]. A tenant with neither is
//! admitted on ring capacity alone and never reaches the filter.

use super::shard::Desc;
use crate::telemetry::TenantCounters;
use seg6_core::WorkSummary;
use std::sync::atomic::{AtomicU32, Ordering};

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
/// place by [`WorkerPool::update_tenant_qos`](super::WorkerPool::update_tenant_qos)
/// — a weight change needs no control-channel round-trip, which is what
/// lets srv6d's reload treat it as a live patch rather than a slot rebuild.
pub(super) struct QosCell {
    weight: AtomicU32,
}

impl QosCell {
    pub(super) fn new(weight: u32) -> Self {
        QosCell { weight: AtomicU32::new(weight.max(1)) }
    }

    /// The current DRR weight, at least 1.
    pub(super) fn weight(&self) -> u32 {
        self.weight.load(Ordering::Relaxed)
    }

    pub(super) fn set_weight(&self, weight: u32) {
        self.weight.store(weight.max(1), Ordering::Relaxed);
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
pub(super) struct TenantAdmission {
    /// Per-shard descriptor-ring slot cap derived from
    /// [`TenantQos::ring_quota`]; `None` means uncapped (the tenant is
    /// admitted on ring capacity alone, the pre-QoS behaviour, with no
    /// occupancy estimation on its hot path).
    quota_slots: Option<u64>,
    /// The cost-budget bucket, if the tenant is metered.
    bucket: Option<TokenBucket>,
}

impl TenantAdmission {
    /// Reads `qos` against a ring of `queue_capacity` slots. Panics on a
    /// [`TenantQos::ring_quota`] outside `(0, 1]`.
    pub(super) fn from_qos(qos: &TenantQos, queue_capacity: usize) -> Self {
        TenantAdmission {
            quota_slots: qos.ring_quota.map(|share| quota_slots(queue_capacity, share)),
            bucket: qos.cost_budget.map(TokenBucket::new),
        }
    }

    /// Swaps in `qos`'s quota and budget. A budget rate change keeps the
    /// bucket's current level, capped at the new rate, and its refill
    /// clock. Panics on a [`TenantQos::ring_quota`] outside `(0, 1]`,
    /// before changing anything.
    pub(super) fn retune(&mut self, qos: &TenantQos, queue_capacity: usize) {
        self.quota_slots = qos.ring_quota.map(|share| quota_slots(queue_capacity, share));
        self.bucket = match (self.bucket.take(), qos.cost_budget) {
            (Some(mut bucket), Some(rate)) => {
                bucket.rate = rate;
                bucket.tokens = bucket.tokens.min(rate);
                Some(bucket)
            }
            (None, Some(rate)) => Some(TokenBucket::new(rate)),
            (_, None) => None,
        };
    }

    /// Whether the tenant asked for any admission control. A tenant that
    /// did not is admitted on ring capacity alone and skips
    /// [`TenantAdmission::filter`].
    pub(super) fn is_metered(&self) -> bool {
        self.quota_slots.is_some() || self.bucket.is_some()
    }

    /// The admission pass over one publish's `staging` for shard `shard`.
    /// A ring-quota'd tenant is capped at its slot share of the shard's
    /// ring (occupancy estimated lock-free from the cell's `enqueued`
    /// count — which only the dispatcher writes — minus the worker's
    /// relaxed processed counter; the estimate lags towards
    /// *under*-admission, never over), a budgeted tenant spends
    /// [`COST_BASE`] per packet from its token bucket (refilled on the
    /// packets' own RX clocks, trued-up with the workers' measured
    /// surcharges). Admitted descriptors compact to the front in FIFO
    /// order; only shed descriptors scramble in the tail. Returns how many
    /// were admitted, how many the quota shed (counted as `rejected`) and
    /// how many the budget shed.
    pub(super) fn filter(
        &mut self,
        staging: &mut [Desc],
        cells: &TenantCounters,
        shard: u32,
        workers: u32,
    ) -> (usize, u64, u64) {
        let cell = cells.shard(shard);
        let (mut shed_quota, mut shed_budget) = (0u64, 0u64);
        // This publish's allowance: the remaining quota slots, and the
        // budget true-up of worker-measured work surcharges.
        let mut allowance = self.quota_slots.map_or(u64::MAX, |slots| {
            slots.saturating_sub(cell.enqueued_relaxed().saturating_sub(cell.processed_relaxed()))
        });
        if let Some(bucket) = &mut self.bucket {
            bucket.debit_surcharge(cells, workers);
        }
        let mut kept = 0;
        for i in 0..staging.len() {
            let admit = if allowance == 0 {
                shed_quota += 1;
                false
            } else {
                match &mut self.bucket {
                    None => true,
                    Some(bucket) => {
                        bucket.refill(staging[i].1.rx_timestamp_ns);
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
                    staging.swap(kept, i);
                }
                kept += 1;
            }
        }
        (kept, shed_quota, shed_budget)
    }
}

/// Converts a ring-share fraction into a per-shard slot cap: at least one
/// slot (a quota'd tenant can always make progress), at most the ring.
/// Both [`WorkerPool::add_tenant`](super::WorkerPool::add_tenant) and
/// [`WorkerPool::update_tenant_qos`](super::WorkerPool::update_tenant_qos)
/// read the quota here, so a share outside `(0, 1]` panics on either.
fn quota_slots(queue_capacity: usize, share: f64) -> u64 {
    assert!(share > 0.0 && share <= 1.0, "ring quota must be a fraction in (0, 1], got {share}");
    let cap = queue_capacity as u64;
    ((queue_capacity as f64 * share) as u64).clamp(1, cap)
}
