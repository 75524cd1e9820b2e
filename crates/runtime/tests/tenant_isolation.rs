//! Tenant-isolation regression: a randomized two-tenant run over one
//! shared pool, proving that
//!
//! 1. per-tenant FIBs and SID tables never cross-route — every output's
//!    verdict matches the tenant whose handle enqueued it, for arbitrary
//!    interleavings of the two tenants' traffic;
//! 2. there is one set of books: after every flush, the pool's reports
//!    (`flush().run`, `shutdown()`) are sums over the live counter cells
//!    of [`WorkerPool::counters`], and every (tenant, shard) cell
//!    balances — `enqueued = processed = forwarded + local_delivered +
//!    dropped`.
//!
//! Both tenants see the *same* packets; what distinguishes them is only
//! their routing context: tenant A routes everything out of interfaces
//! 10/11, tenant B out of 20/21, and only tenant B installs a local SID —
//! so a cross-routed packet is visible either as a wrong interface or as a
//! seg6local invocation on the wrong tenant.

use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::PacketBuf;
use seg6_core::{BatchVerdict, Nexthop, Seg6Datapath, Seg6LocalAction, Verdict};
use seg6_runtime::{Ingress, PoolConfig, PoolSnapshot, ShardSnapshot, TenantId, TenantQos, WorkerPool};
use simnet::SplitMix64;
use std::net::Ipv6Addr;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// The admission counters of a cell: `(enqueued, rejected)`.
fn admission(s: &ShardSnapshot) -> (u64, u64) {
    (s.enqueued, s.rejected)
}

/// Enqueues `packets`' bytes through `ingress` in one burst at clock 0;
/// returns how many were admitted.
fn enqueue_packets(ingress: &mut impl Ingress, packets: impl IntoIterator<Item = PacketBuf>) -> usize {
    let packets: Vec<PacketBuf> = packets.into_iter().collect();
    ingress.enqueue_bytes_all(0, packets.iter().map(PacketBuf::data))
}

/// Tenant `t`'s live counters summed over shards.
fn tenant_totals(pool: &WorkerPool, t: usize) -> ShardSnapshot {
    pool.counters().snapshot().tenants[t].totals()
}

const SID: &str = "fc00::e1";

/// Tenant A: plain routes on interfaces 10 (general) and 11 (fc00::/16).
/// No SID — SRv6 packets towards `SID` are *forwarded* like any other
/// fc00:: destination.
fn tenant_a(_: u32) -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr("fd00::a"));
    dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(10)]);
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::direct(11)]);
    dp
}

/// Tenant B: the same prefixes on interfaces 20/21, plus an `End` SID at
/// `SID` — SRv6 packets towards it are seg6local-processed and leave
/// towards the *next* segment.
fn tenant_b() -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr("fd00::b"));
    dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(20)]);
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::direct(21)]);
    dp.add_local_sid(format!("{SID}/128").parse().unwrap(), Seg6LocalAction::End);
    dp
}

/// Two packet kinds, both enqueueable by either tenant.
fn plain_packet(flow: u32) -> PacketBuf {
    build_ipv6_udp_packet(
        addr(&format!("2001:db8::{:x}", flow + 1)),
        addr("2001:db8:f::1"),
        (1024 + flow % 4096) as u16,
        5001,
        &[0u8; 32],
        64,
    )
}

fn srv6_packet(flow: u32) -> PacketBuf {
    let srh = SegmentRoutingHeader::from_path(netpkt::ipv6::proto::UDP, &[addr(SID), addr("fc00::99")]);
    build_srv6_udp_packet(
        addr(&format!("2001:db8::{:x}", flow + 1)),
        &srh,
        (1024 + flow % 4096) as u16,
        5002,
        &[0u8; 24],
        64,
    )
}

/// The verdict one packet kind must produce per tenant.
fn check_output(tenant: TenantId, srv6: bool, verdict: &Verdict, seg6local: bool) {
    let is_b = tenant != TenantId::DEFAULT;
    match (is_b, srv6) {
        // Tenant A never runs seg6local; everything routes on 10/11.
        (false, _) => {
            assert!(!seg6local, "tenant A executed tenant B's SID");
            assert!(
                matches!(verdict, Verdict::Forward { oif: 10 | 11, .. }),
                "tenant A routed through a foreign FIB: {verdict:?}"
            );
        }
        // Tenant B, plain traffic: its own interfaces.
        (true, false) => {
            assert!(!seg6local);
            assert!(
                matches!(verdict, Verdict::Forward { oif: 20 | 21, .. }),
                "tenant B routed through a foreign FIB: {verdict:?}"
            );
        }
        // Tenant B, SRv6 towards the SID: the End behaviour runs, the
        // next segment (fc00::99) leaves via fc00::/16 → oif 21.
        (true, true) => {
            assert!(seg6local, "tenant B's SID did not execute");
            assert!(
                matches!(verdict, Verdict::Forward { oif: 21, .. }),
                "tenant B's End mis-routed: {verdict:?}"
            );
        }
    }
}

#[test]
fn randomized_two_tenant_run_never_cross_routes() {
    const ROUNDS: usize = 40;
    const PACKETS_PER_ROUND: usize = 256;
    let mut rng = SplitMix64::new(0x007e_4a11);

    let config =
        PoolConfig { workers: 4, batch_size: 8, queue_depth: 4 * PACKETS_PER_ROUND, ..Default::default() };
    let mut pool = WorkerPool::new(config, tenant_a);
    let tenant_b_id = pool.add_tenant(&tenant_b(), TenantQos::default());
    let counters = pool.counters();

    let mut enqueued = [0u64; 2]; // per tenant
    let mut processed = [0u64; 2];
    let mut flushed = ShardSnapshot::default();
    for round in 0..ROUNDS {
        // A random interleaving: each packet picks a tenant, a kind, and
        // a flow; singles and bursts mix so tenant runs of every length
        // (and batches mixing both tenants) occur.
        for _ in 0..PACKETS_PER_ROUND {
            let tenant = if rng.gen_bool(0.5) { TenantId::DEFAULT } else { tenant_b_id };
            let srv6 = rng.gen_bool(0.3);
            let flow = rng.gen_range(0u32..512);
            let packet = if srv6 { srv6_packet(flow) } else { plain_packet(flow) };
            let accepted = if rng.gen_bool(0.25) {
                pool.tenant(tenant).enqueue_bytes_at(0, packet.data())
            } else {
                pool.tenant(tenant).enqueue_bytes_all(0, [packet.data()]) == 1
            };
            assert!(accepted, "rings sized for the round never reject");
            enqueued[tenant.index()] += 1;
        }
        let mut report = pool.flush();
        flushed.accumulate(&report.run);
        for outputs in report.outputs.iter_mut() {
            for (tenant, skb, bv) in outputs.drain(..) {
                // Recover the packet kind from the wire bytes (an SRH is
                // still present after End — only segments_left moved).
                let srv6 = skb.packet.data()[6] == netpkt::ipv6::proto::ROUTING;
                check_output(tenant, srv6, &bv.verdict, bv.work.seg6local);
                processed[tenant.index()] += 1;
                pool.recycle(skb.into_packet());
            }
        }

        // Quiet point: one set of books.
        // 1. Everything the pool reports is a sum over the live cells.
        let snap = counters.snapshot();
        assert_eq!(flushed, snap.totals(), "round {round}: the flush windows add up to the cells");
        let tenant_totals: Vec<ShardSnapshot> = snap.tenants.iter().map(|t| t.totals()).collect();
        assert_eq!(admission(&tenant_totals[0]), (enqueued[0], 0));
        assert_eq!(admission(&tenant_totals[1]), (enqueued[1], 0));
        // 2. The per-tenant rows sum to the per-shard view, and every cell
        //    — hence every tenant and every shard — balances.
        for (shard, aggregate) in snap.shards.iter().enumerate() {
            let mut summed = ShardSnapshot::default();
            for tenant_row in &snap.tenants {
                let cell = &tenant_row.shards[shard];
                assert_eq!(cell.enqueued, cell.processed, "round {round} shard {shard}");
                assert_eq!(cell.processed, cell.forwarded + cell.local_delivered + cell.total_dropped());
                summed.accumulate(cell);
            }
            assert_eq!(&summed, aggregate, "round {round} shard {shard}");
        }
        // 3. Per-tenant processed counts match what came back out.
        assert_eq!(snap.tenants[0].totals().processed, processed[0]);
        assert_eq!(snap.tenants[1].totals().processed, processed[1]);
        assert_eq!(snap.processed(), processed[0] + processed[1]);
    }
    assert_eq!(processed[0] + processed[1], (ROUNDS * PACKETS_PER_ROUND) as u64);
    assert!(processed.iter().all(|&n| n > 0), "both tenants saw traffic: {processed:?}");

    // The totals survive shutdown: the shards' lifetime totals equal the
    // sum of both tenants' rows.
    let totals = pool.shutdown();
    let lifetime: u64 = totals.iter().map(|s| s.processed).sum();
    assert_eq!(lifetime, processed[0] + processed[1]);
}

/// A one-worker pool over `tenant_a` whose drain hook parks the worker
/// until released: the first returned channel fires when the worker enters
/// the hook, dropping the returned sender releases it (later entries pass
/// straight through). Priming one packet and waiting for the `entered`
/// signal leaves the worker stalled with the ring *empty* — the primed
/// packet already counted as processed — so subsequent enqueues fill the
/// ring deterministically, with no race against the consumer.
fn stallable_pool(config: PoolConfig) -> (WorkerPool, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let pool = WorkerPool::new(config, move |cpu| {
        let entered_tx = entered_tx.clone();
        let release_rx = Arc::clone(&release_rx);
        seg6_runtime::ShardSetup::new(tenant_a(cpu)).with_drain(Box::new(move |_| {
            let _ = entered_tx.send(());
            let _ = release_rx.lock().unwrap().recv();
        }))
    });
    (pool, entered_rx, release_tx)
}

/// The per-tenant backpressure split is exact: when a ring fills, each
/// tenant's rejected count matches exactly what it failed to enqueue.
#[test]
fn per_tenant_rejection_accounting_is_exact() {
    let config = PoolConfig { workers: 1, batch_size: 1, queue_depth: 8, ..Default::default() };
    let (mut pool, entered_rx, release_tx) = stallable_pool(config);
    let b = pool.add_tenant(&tenant_b(), TenantQos::default());

    // Stall the worker, then alternate tenants into the 8-slot ring: 4 A
    // + 4 B fit, the next 3 A and 2 B are rejected.
    assert!(pool.enqueue_bytes_at(0, plain_packet(0).data()));
    entered_rx.recv().expect("worker stalled in the drain");
    for flow in 0..4 {
        assert!(pool.enqueue_bytes_at(0, plain_packet(flow + 1).data()));
        assert!(pool.tenant(b).enqueue_bytes_at(0, plain_packet(flow + 100).data()));
    }
    for flow in 0..3 {
        assert!(!pool.enqueue_bytes_at(0, plain_packet(flow + 50).data()));
    }
    for flow in 0..2 {
        assert!(!pool.tenant(b).enqueue_bytes_at(0, plain_packet(flow + 150).data()));
    }
    // Exact mid-run, without a barrier: admission is the dispatcher's own
    // half of the cells.
    assert_eq!(admission(&tenant_totals(&pool, 0)), (5, 3));
    assert_eq!(admission(&tenant_totals(&pool, 1)), (4, 2));
    assert_eq!(admission(&pool.counters().snapshot().shards[0]), (9, 5));

    drop(release_tx);
    let report = pool.flush();
    assert_eq!(report.run.processed, 9, "exactly the accepted packets were processed");
}

/// The admission pass runs only for a tenant that asked for QoS, so QoS
/// that never binds must change nothing: the same seeded two-tenant
/// traffic through a pool whose tenants have no QoS and through one whose
/// tenants hold a quota of the whole ring and a budget that cannot run dry
/// yields the same outputs in the same order and the same counter cells.
/// (`batches` is left out: how a window splits into runs depends on when
/// the worker polled, in either pool.)
#[test]
fn qos_that_never_binds_is_equivalent_to_no_qos() {
    const ROUNDS: u64 = 60;
    let config = PoolConfig { workers: 2, batch_size: 8, queue_depth: 256, ..Default::default() };
    let unbinding = TenantQos { weight: 1, ring_quota: Some(1.0), cost_budget: Some(u64::MAX) };
    let mut open = WorkerPool::new(config.clone(), tenant_a);
    let b = open.add_tenant(&tenant_b(), TenantQos::default());
    let mut metered = WorkerPool::new(config, tenant_a);
    metered.update_tenant_qos(TenantId::DEFAULT, unbinding);
    assert_eq!(metered.add_tenant(&tenant_b(), unbinding), b);

    fn without_batches(mut snap: PoolSnapshot) -> PoolSnapshot {
        let rows = snap.tenants.iter_mut().flat_map(|t| t.shards.iter_mut());
        rows.chain(snap.shards.iter_mut()).for_each(|cell| cell.batches = 0);
        snap
    }

    /// One window: `burst` enqueued as `tenant` (both ingestion fronts,
    /// alternating by round) and flushed. Returns the window's counters
    /// and, per shard, each output's tenant, bytes and verdict.
    type Output = (TenantId, Vec<u8>, BatchVerdict);
    fn window(
        pool: &mut WorkerPool,
        tenant: TenantId,
        round: u64,
        burst: &[PacketBuf],
    ) -> (ShardSnapshot, Vec<Vec<Output>>) {
        let now_ns = round * 1_000_000;
        let mut ingress = pool.tenant(tenant);
        let accepted = if round.is_multiple_of(2) {
            ingress.enqueue_bytes_all(now_ns, burst.iter().map(|p| p.data()))
        } else {
            burst.iter().filter(|p| ingress.enqueue_bytes_at(now_ns, p.data())).count()
        };
        assert_eq!(accepted, burst.len(), "round {round}: nothing binds, nothing is shed");
        let report = pool.flush();
        let mut outputs = Vec::new();
        for shard in report.outputs {
            let mut collected = Vec::new();
            for (tenant, skb, bv) in shard {
                collected.push((tenant, skb.packet.data().to_vec(), bv));
                pool.recycle(skb.into_packet());
            }
            outputs.push(collected);
        }
        (ShardSnapshot { batches: 0, ..report.run }, outputs)
    }

    let mut rng = SplitMix64::new(0x0a11_0ca7);
    for round in 0..ROUNDS {
        // One tenant's burst per window, so each shard's outputs are that
        // tenant's packets in arrival order however the worker polled.
        let tenant = if rng.gen_bool(0.5) { TenantId::DEFAULT } else { b };
        let burst: Vec<PacketBuf> = (0..rng.gen_range(1usize..100))
            .map(|_| {
                let flow = rng.gen_range(0u32..512);
                if rng.gen_bool(0.3) {
                    srv6_packet(flow)
                } else {
                    plain_packet(flow)
                }
            })
            .collect();
        assert_eq!(
            window(&mut open, tenant, round, &burst),
            window(&mut metered, tenant, round, &burst),
            "round {round}"
        );
    }
    let (open, metered) = (open.drain().counters, metered.drain().counters);
    assert_eq!(open.processed(), metered.processed());
    assert!(open.tenants.iter().all(|t| t.totals().processed > 0), "both tenants saw traffic");
    assert_eq!(without_batches(open), without_batches(metered));
}

/// QoS is read at every publish: a tenant admitted on ring capacity alone
/// that gains a ring quota through `update_tenant_qos` mid-run is shed
/// from the very next publish on — and admitted again once the quota is
/// lifted — while its neighbour is untouched throughout.
#[test]
fn a_quota_gained_mid_run_binds_from_the_next_publish() {
    let config = PoolConfig { workers: 1, batch_size: 4, queue_depth: 16, ..Default::default() };
    let (mut pool, entered_rx, release_tx) = stallable_pool(config);
    let b = pool.add_tenant(&tenant_b(), TenantQos::default());
    assert!(pool.enqueue_bytes_at(0, plain_packet(0).data()));
    entered_rx.recv().expect("worker stalled in the drain");

    // No QoS: six of B's packets sit in the stalled 16-slot ring.
    assert_eq!(enqueue_packets(&mut pool.tenant(b), (0..6).map(plain_packet)), 6);
    assert_eq!(admission(&tenant_totals(&pool, 1)), (6, 0));
    // A quarter of the ring is four slots; B already holds six.
    pool.update_tenant_qos(b, TenantQos { ring_quota: Some(0.25), ..TenantQos::default() });
    assert_eq!(enqueue_packets(&mut pool.tenant(b), (6..11).map(plain_packet)), 0);
    assert_eq!(admission(&tenant_totals(&pool, 1)), (6, 5));
    assert_eq!(enqueue_packets(&mut pool, (20..23).map(plain_packet)), 3, "tenant A has no quota");
    pool.update_tenant_qos(b, TenantQos::default());
    assert_eq!(enqueue_packets(&mut pool.tenant(b), (11..13).map(plain_packet)), 2);
    assert_eq!(admission(&tenant_totals(&pool, 1)), (8, 5));
    assert_eq!(admission(&tenant_totals(&pool, 0)), (4, 0));

    drop(release_tx);
    let report = pool.flush();
    assert_eq!(report.run.processed, 12, "exactly the accepted packets were processed");
    let snap = pool.counters().snapshot();
    assert_eq!((snap.rejected(), snap.rejected_over_budget()), (5, 0));
}

/// The adversarial noisy-neighbor run the QoS redesign exists for: a
/// flooding tenant held to half the ring by its quota, against a quiet
/// weight-4 tenant, cannot push the quiet tenant's admitted throughput or
/// flush position outside a 2× envelope of its run-alone baseline — even
/// when every quiet packet arrives *behind* the whole admitted flood.
#[test]
fn qos_bounds_the_quiet_tenant_under_a_noisy_neighbor() {
    const RING: usize = 256;
    const FLOOD: u32 = 512;
    const QUIET: usize = 64;
    let config = || PoolConfig { workers: 1, batch_size: 32, queue_depth: RING, ..Default::default() };

    // Run-alone baseline: the quiet tenant with the worker to itself.
    let (baseline_accepted, baseline_last) = {
        let mut pool = WorkerPool::new(config(), tenant_a);
        let quiet = pool.add_tenant(&tenant_b(), TenantQos { weight: 4, ..TenantQos::default() });
        let accepted = enqueue_packets(&mut pool.tenant(quiet), (0..QUIET as u32).map(plain_packet));
        let report = pool.flush();
        let last = report.outputs[0].iter().rposition(|(t, _, _)| *t == quiet).map_or(0, |i| i + 1);
        pool.shutdown();
        (accepted, last)
    };
    assert_eq!(baseline_accepted, QUIET);
    assert_eq!(baseline_last, QUIET);

    // Contended: the default tenant floods 8× the quiet tenant's load
    // into a stalled worker's ring. The flooder is quota'd to half the
    // ring; the quiet tenant is unquota'd (its admission path stays the
    // pre-QoS one) and outweighed 4:1 in the scheduler.
    let (mut pool, entered_rx, release_tx) = stallable_pool(config());
    pool.update_tenant_qos(
        TenantId::DEFAULT,
        TenantQos { weight: 1, ring_quota: Some(0.5), cost_budget: None },
    );
    let quiet = pool.add_tenant(&tenant_b(), TenantQos { weight: 4, ..TenantQos::default() });

    assert!(pool.enqueue_bytes_at(0, plain_packet(0).data()));
    entered_rx.recv().expect("worker stalled in the drain");
    assert_eq!(enqueue_packets(&mut pool, (0..FLOOD).map(plain_packet)), RING / 2, "quota caps the flood");
    let accepted = enqueue_packets(&mut pool.tenant(quiet), (0..QUIET as u32).map(plain_packet));

    // Admission envelope: the flood cannot displace a single quiet
    // packet, and every shed lands on the flooder's `rejected` row — the
    // budget counter is untouched (nobody here is cost-metered).
    assert_eq!(accepted, QUIET, "quota'd flooder cannot displace the quiet tenant");
    assert_eq!(
        admission(&tenant_totals(&pool, 0)),
        (1 + RING as u64 / 2, u64::from(FLOOD) - RING as u64 / 2)
    );
    assert_eq!(admission(&tenant_totals(&pool, 1)), (QUIET as u64, 0));
    assert_eq!(pool.counters().snapshot().rejected_over_budget(), 0);

    drop(release_tx);
    let report = pool.flush();
    assert_eq!(report.run.processed as usize, 1 + RING / 2 + QUIET);

    // Scheduling envelope: deficit-round-robin with weight 4 drains the
    // whole quiet backlog within 2× its run-alone flush position. The
    // pre-QoS arrival-order scheduler would emit the last quiet packet
    // dead last, at position 193 — behind the primed packet and all 128
    // admitted flood packets.
    let outputs = &report.outputs[0];
    assert_eq!(outputs.iter().filter(|(t, _, _)| *t == quiet).count(), QUIET);
    let last = outputs.iter().rposition(|(t, _, _)| *t == quiet).map_or(0, |i| i + 1);
    assert!(
        last <= 2 * baseline_last,
        "quiet tenant's last packet flushed at position {last}, beyond 2×{baseline_last}"
    );
    pool.shutdown();
}

/// The companion failure mode the envelope test above forbids: with the
/// default knobs (no quota, weight 1 — exactly the pre-QoS configuration)
/// the same flood owns the whole ring and the quiet tenant is starved
/// outright. If QoS admission ever regresses to this, the envelope test
/// fails; this test pins the unprotected behaviour so the contrast stays
/// observable.
#[test]
fn default_knobs_let_the_flood_starve_the_quiet_tenant() {
    const RING: usize = 256;
    let config = PoolConfig { workers: 1, batch_size: 32, queue_depth: RING, ..Default::default() };
    let (mut pool, entered_rx, release_tx) = stallable_pool(config);
    let quiet = pool.add_tenant(&tenant_b(), TenantQos::default());

    assert!(pool.enqueue_bytes_at(0, plain_packet(0).data()));
    entered_rx.recv().expect("worker stalled in the drain");
    assert_eq!(enqueue_packets(&mut pool, (0..512u32).map(plain_packet)), RING);
    let accepted = enqueue_packets(&mut pool.tenant(quiet), (0..64u32).map(plain_packet));
    assert_eq!(accepted, 0, "an unquota'd flood owns the whole ring");
    assert_eq!(admission(&tenant_totals(&pool, 1)), (0, 64));

    drop(release_tx);
    let report = pool.flush();
    assert_eq!(report.run.processed as usize, 1 + RING);
    pool.shutdown();
}

/// Cost-budget admission is exact and meters *measured* work: base tokens
/// are spent per packet at admission, the workers' surcharge (here End
/// behaviours at `COST_SEG6LOCAL` over base) is trued up at the next
/// publish, sheds land only on the over-budget counters, and one
/// shard-clock second refills one second's rate.
#[test]
fn cost_budget_sheds_exactly_and_refills_on_the_shard_clock() {
    let config = PoolConfig { workers: 1, batch_size: 32, queue_depth: 1024, ..Default::default() };
    let mut pool = WorkerPool::new(config, tenant_a);
    let b = pool.add_tenant(&tenant_b(), TenantQos { cost_budget: Some(30), ..TenantQos::default() });

    // Shard clock 0: ten End-SID packets spend 10 base tokens at
    // admission, leaving 20 of the 30-token burst.
    assert_eq!(enqueue_packets(&mut pool.tenant(b), (0..10).map(srv6_packet)), 10);
    let report = pool.flush();
    assert_eq!(report.run.processed, 10);

    // Each End packet's measured work_cost is COST_BASE + COST_SEG6LOCAL
    // = 3 tokens: the workers charged 30 for work admission priced at 10.
    // The 20-token surcharge is debited at the next publish, emptying the
    // bucket — all 25 plain packets shed over budget, none as `rejected`.
    assert_eq!(enqueue_packets(&mut pool.tenant(b), (0..25).map(plain_packet)), 0);
    assert_eq!(tenant_totals(&pool, b.index()).rejected_over_budget, 25);
    let snap = pool.counters().snapshot();
    assert_eq!(snap.rejected_over_budget(), 25);
    assert_eq!(snap.rejected(), 0, "budget sheds are not backpressure");
    assert_eq!(admission(&tenant_totals(&pool, 1)), (10, 0));

    // The unmetered default tenant is untouched by b's empty bucket.
    assert!(pool.enqueue_bytes_at(0, plain_packet(7).data()));

    // One shard-clock second later the bucket holds one second's rate
    // again: 25 plain packets admit (spending 25 of the 30 tokens).
    for flow in 0..25 {
        assert!(pool.tenant(b).enqueue_bytes_at(1_000_000_000, plain_packet(flow).data()));
    }
    assert_eq!(pool.counters().snapshot().rejected_over_budget(), 25, "no further sheds after the refill");
    let report = pool.flush();
    assert_eq!(report.run.processed, 26);

    // The live rows carry the same exact split: 25 over-budget sheds, and
    // 3×10 + 1×25 = 55 cost units charged for the processed work.
    let snap = pool.counters().snapshot();
    assert_eq!(snap.tenants[1].totals().rejected_over_budget, 25);
    assert_eq!(snap.tenants[1].totals().cost, 55);
    assert_eq!(snap.rejected_over_budget(), 25);
    pool.shutdown();
}
