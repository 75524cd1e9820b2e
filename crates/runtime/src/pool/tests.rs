//! The pool driven through its public surface: steering, flush order,
//! backpressure, tenancy, recycling and shutdown.

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

fn forwarding_datapath(_: u32) -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr("fc00::1"));
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

/// `packets` as the frames [`Ingress::enqueue_bytes_all`] takes.
fn frames(packets: &[PacketBuf]) -> impl Iterator<Item = &[u8]> {
    packets.iter().map(PacketBuf::data)
}

/// The shards' live counters, `counters().snapshot().shards`.
fn live_shards(pool: &WorkerPool) -> Vec<ShardSnapshot> {
    pool.counters().snapshot().shards
}

/// Tenant `t`'s live counters summed over shards.
fn live_tenant(pool: &WorkerPool, t: usize) -> ShardSnapshot {
    pool.counters().snapshot().tenants[t].totals()
}

/// The verdict counters of a cell or window:
/// `[processed, forwarded, local_delivered, dropped]`.
fn verdict_counts(s: &ShardSnapshot) -> [u64; 4] {
    [s.processed, s.forwarded, s.local_delivered, s.total_dropped()]
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

/// One flush barrier whose outputs all go straight back to the arena;
/// returns the window's counters.
fn flush_recycled(pool: &mut WorkerPool) -> ShardSnapshot {
    let report = pool.flush();
    for (_, skb, _) in report.outputs.into_iter().flatten() {
        pool.recycle(skb.into_packet());
    }
    report.run
}

/// Runs `packets` through one enqueue/flush window of `pool` (which
/// must be quiet) and returns each shard's [`verdict_counts`] for the
/// window, after checking that the report's pool-wide window is their
/// sum.
fn window_counts(pool: &mut WorkerPool, enqueue: impl FnOnce(&mut WorkerPool)) -> Vec<[u64; 4]> {
    let before = live_shards(pool);
    enqueue(pool);
    let report = pool.flush();
    let shards: Vec<[u64; 4]> =
        live_shards(pool).iter().zip(&before).map(|(now, then)| verdict_counts(&now.since(then))).collect();
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
                assert_eq!(pool.enqueue_bytes_all(0, frames(&packets)), 512);
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
    let packets: Vec<PacketBuf> = (0..256).map(flow_packet).collect();
    for round in 0..10 {
        if round % 2 == 0 {
            pool.enqueue_bytes_all(0, frames(&packets));
        } else {
            pool.tenant(tenant).enqueue_bytes_all(0, frames(&packets));
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
        assert!(pool.enqueue_bytes_at(0, pkt.data()));
    }
    for (shard, stats) in live_shards(&pool).iter().enumerate() {
        assert!(stats.enqueued > 16, "shard {shard} imbalanced: {}", stats.enqueued);
    }
    let expected: Vec<u64> = live_shards(&pool).iter().map(|s| s.enqueued).collect();
    let report = pool.flush();
    assert_eq!(report.run.processed, 256);
    assert_eq!(report.run.forwarded, 256);
    let processed: Vec<u64> = live_shards(&pool).iter().map(|s| s.processed).collect();
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
            assert_eq!(pool.enqueue_bytes_all(0, frames(&packets)), 100);
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
    let mut pool = WorkerPool::new(config, |_| {
        let mut dp = Seg6Datapath::new(addr("fc00::1"));
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
        assert!(pool.enqueue_bytes_at(0, pkt.data()));
    }
    let steered: Vec<u64> = live_shards(&pool).iter().map(|s| s.enqueued).collect();
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
    assert!(pool.enqueue_bytes_at(0, flow_packet(0).data()));
    entered_rx.recv().expect("worker entered the drain");

    // The ring now holds 0 descriptors and the worker consumes
    // nothing: the next `queue_capacity` packets fit, everything after
    // that is backpressure.
    assert_eq!(pool.queue_capacity(), 4);
    for flow in 1..=4 {
        assert!(pool.enqueue_bytes_at(0, flow_packet(flow).data()), "packet {flow} fits the ring");
    }
    assert!(!pool.enqueue_bytes_at(0, flow_packet(5).data()));
    assert!(!pool.enqueue_bytes_at(0, flow_packet(6).data()));
    assert_eq!(pool.counters().snapshot().rejected(), 2);
    // Exact mid-run and without any barrier: the dispatcher wrote
    // these cells itself.
    assert_eq!(admission(&live_shards(&pool)[0]), (5, 2));
    // The default tenant carries all of it — the per-tenant view of
    // the same cells.
    assert_eq!(admission(&live_tenant(&pool, 0)), (5, 2));

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
    assert!(pool.enqueue_bytes_at(0, flow_packet(0).data()));
    entered_rx.recv().expect("worker entered the drain");
    for flow in 1..=8 {
        assert!(pool.enqueue_bytes_at(0, flow_packet(flow).data()), "packet {flow} of exactly capacity fits");
    }
    assert!(!pool.enqueue_bytes_at(0, flow_packet(9).data()), "capacity + 1 is rejected");
    assert_eq!(admission(&live_shards(&pool)[0]), (9, 1));

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
        assert!(pool.enqueue_bytes_at(0, flow_packet(flow).data()));
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
    let backlog: Vec<PacketBuf> = (1..=BACKLOG).map(flow_packet).collect();
    // batch_size → expected batch bound min(batch_size, NAPI_BUDGET):
    // the budget caps a poll's dequeue, the batch size caps each
    // processed (and drained) batch within it.
    for (batch_size, bound) in [(32usize, 32u64), (4 * NAPI_BUDGET, NAPI_BUDGET as u64)] {
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
        let config =
            PoolConfig { workers: 1, batch_size, queue_depth: 2 * BACKLOG as usize, ..Default::default() };
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
        assert!(pool.enqueue_bytes_at(0, flow_packet(0).data()));
        entered_rx.recv().expect("worker entered the drain");
        // Build the whole backlog while the worker is stalled, so
        // every later poll observes full occupancy deterministically.
        assert_eq!(pool.enqueue_bytes_all(0, frames(&backlog)), BACKLOG as usize);
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
    let config = PoolConfig { workers: 2, batch_size: 8, ..Default::default() };
    let mut pool = WorkerPool::from_datapath(config, &oif_datapath(10));
    let tenant_b = pool.add_tenant(&oif_datapath(20), TenantQos::default());
    assert_eq!(pool.tenants(), 2);

    let packets: Vec<PacketBuf> = (0..64).map(flow_packet).collect();
    assert_eq!(pool.enqueue_bytes_all(0, frames(&packets)), 64);
    assert_eq!(pool.tenant(tenant_b).enqueue_bytes_all(0, frames(&packets)), 64);
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
    assert_eq!(admission(&live_tenant(&pool, 0)), (64, 0));
    assert_eq!(admission(&live_tenant(&pool, 1)), (64, 0));
    let total_enqueued: u64 = live_shards(&pool).iter().map(|s| s.enqueued).sum();
    assert_eq!(total_enqueued, 128);

    // Live counters: tenant rows sum to the aggregated shard view.
    let snap = pool.counters().snapshot();
    assert_eq!(snap.tenants.len(), 2);
    assert_eq!(snap.tenants[0].totals().processed, 64);
    assert_eq!(snap.tenants[1].totals().processed, 64);
    assert_eq!(snap.processed(), 128);
    for shard in 0..2 {
        let mut summed = ShardSnapshot::default();
        for tenant in &snap.tenants {
            summed.accumulate(&tenant.shards[shard]);
        }
        assert_eq!(summed, snap.shards[shard], "shard {shard}");
    }
    pool.shutdown();
}

#[test]
fn outputs_carry_verdicts_and_rewritten_packets() {
    let config = PoolConfig { workers: 2, batch_size: 4, ..Default::default() };
    let mut pool = WorkerPool::new(config, forwarding_datapath);
    let packets: Vec<PacketBuf> = (0..32).map(flow_packet).collect();
    pool.enqueue_bytes_all(0, frames(&packets));
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
    pool.enqueue_bytes_at(0, flow_packet(0).data());
    let report = pool.flush();
    assert_eq!(report.outputs.iter().map(Vec::len).sum::<usize>(), 1);
}

#[test]
fn shutdown_processes_the_backlog_and_reports_in_shard_order() {
    let config = PoolConfig { workers: 4, batch_size: 32, ..Default::default() };
    let mut pool = WorkerPool::new(config, forwarding_datapath);
    // 100 packets is not a multiple of the staging burst, so shards
    // hold partial bursts when the shutdown message lands.
    let packets: Vec<PacketBuf> = (0..100).map(flow_packet).collect();
    pool.enqueue_bytes_all(0, frames(&packets));
    let enqueued: Vec<u64> = live_shards(&pool).iter().map(|s| s.enqueued).collect();
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
    let packets: Vec<PacketBuf> = (0..256).map(flow_packet).collect();
    let mut flushed = ShardSnapshot::default();
    for round in 1..=3u64 {
        pool.enqueue_bytes_all(0, frames(&packets));
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
            assert_eq!(cell.processed, cell.forwarded + cell.local_delivered + cell.total_dropped());
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
    let packets: Vec<PacketBuf> = (0..128).map(flow_packet).collect();

    // Warm-up: the first round mints fresh buffers.
    for _ in 0..2 {
        assert_eq!(pool.enqueue_bytes_all(0, frames(&packets)), 128);
        assert_eq!(flush_recycled(&mut pool).processed, 128);
    }
    // Buffers come back only at the barrier, so a window needs exactly
    // the buffers it enqueued: the first round minted one per frame,
    // and staying flat is deterministic, not scheduling-dependent.
    let minted = pool.buf_pool().allocations();
    assert_eq!(minted, 128, "one buffer per frame of the first window");

    // Steady state: every round is served from recycled storage.
    for round in 0..4 {
        assert_eq!(pool.enqueue_bytes_all(0, frames(&packets)), 128);
        assert_eq!(flush_recycled(&mut pool).processed, 128);
        assert_eq!(
            pool.buf_pool().allocations(),
            minted,
            "round {round} minted fresh buffers instead of recycling"
        );
    }
    assert!(pool.buf_pool().recycle_hits() >= 4 * 128);
    // Verdicts are identical to per-packet processing of the same
    // packets in steering order.
    let window = window_counts(&mut pool, |pool| {
        pool.enqueue_bytes_all(0, frames(&packets));
    });
    assert_eq!(window, reference_counts(2, &packets, forwarding_datapath));
}

/// The flush barrier hands every buffer of its window back in its
/// report, and keeps none: once the caller recycles them, `available()`
/// is whole again, with no later ingestion call needed to reclaim
/// anything.
#[test]
fn flush_returns_every_buffer_to_the_arena() {
    let config = PoolConfig { workers: 2, batch_size: 8, queue_depth: 512, ..Default::default() };
    let mut pool = WorkerPool::new(config, forwarding_datapath);
    let packets: Vec<PacketBuf> = (0..128).map(flow_packet).collect();

    // The first window mints its buffers.
    assert_eq!(pool.enqueue_bytes_all(0, frames(&packets)), 128);
    flush_recycled(&mut pool);
    let available = pool.buf_pool().available();
    assert_eq!(available as u64, pool.buf_pool().allocations(), "every minted buffer is back");

    for round in 0..3 {
        for frame in frames(&packets) {
            assert!(pool.enqueue_bytes_at(0, frame));
        }
        assert_eq!(pool.buf_pool().available(), available - 128);
        let report = pool.flush();
        assert_eq!(report.outputs.iter().map(Vec::len).sum::<usize>(), 128, "every buffer is in the report");
        assert_eq!(pool.buf_pool().available(), available - 128, "the flush put none back itself");
        for (_, skb, _) in report.outputs.into_iter().flatten() {
            pool.recycle(skb.into_packet());
        }
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
    let mut pool = WorkerPool::new(config, |_| {
        let mut dp = Seg6Datapath::new(addr("fc00::1"));
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
            collected.lock().unwrap().extend(ring.drain_cpu(cpu));
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
        assert!(pool.enqueue_bytes_at(0, pkt.data()));
    }
    let per_shard: Vec<u64> = live_shards(&pool).iter().map(|s| s.enqueued).collect();
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
