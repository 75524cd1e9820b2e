//! Worker-pool steady-state allocation regression test.
//!
//! Run with `cargo test -p seg6-runtime --features alloc-counter`. Five
//! phases share one test (the counter is **process-wide**, so no other
//! test may run concurrently in this binary). Every phase is held to the
//! same **exact** count per round: the flush report's outer vector plus
//! the one pre-sized vector each shard starts its next window with (a
//! shard hands its window's packets over at the barrier whether or not
//! they are collected). The barrier itself — a per-shard sequence pair, no
//! channel — allocates nothing.
//!
//! 1. **Recycled-ingestion rounds** — frames enter as byte slices
//!    through `enqueue_bytes_all`, are copied into buffers from the
//!    arena, staged per shard, published through the SPSC descriptor
//!    rings, processed with the reused batch/verdict buffers, and put
//!    back by the flush barrier (the arena's free lists reserved to the
//!    retention cap), with park/unpark wakeups in between. A whole
//!    steady-state round — dispatch → ring → worker → barrier → arena —
//!    performs **zero** buffer allocations.
//! 2. **Multi-tenant rounds** — a second tenant registers (its one-time
//!    installation cost and the arena's larger retention cap happen
//!    *outside* the measurement), then both tenants'
//!    byte-slice traffic interleaves through the same rings and the same
//!    arena. Per-tenant descriptor stamping, tenant-run splitting and the
//!    per-tenant × per-shard counters must all stay allocation-free, and
//!    the arena must stay mint-flat.
//! 3. **Program and encapsulation rounds** — a third tenant runs the
//!    shipped programs (`tag_increment`, `add_tlv`, `end_t`, `wrr_encap`)
//!    and the static `encap_through` / `inline_through` / `End.B6*`
//!    behaviours (the paths `seg6-core`'s `zero_alloc.rs` holds to zero
//!    on one thread): packets that grow on their way through must not
//!    cost the arena's buffers or the workers' scratch an allocation,
//!    whichever packet lands in which buffer.
//! 4. **Collected-output rounds** — a pool with
//!    [`PoolConfig::collect_outputs`]: the report carries every shard's
//!    window, and the caller's `recycle` closes the buffer loop mint-free.
//! 5. **Mixed-size rounds** — 64-byte and 1400-byte frames interleave in
//!    every window: each lands in a buffer of its own size class, and once
//!    both classes have warmed no round mints a buffer of either.
#![cfg(feature = "alloc-counter")]

#[path = "../../core/tests/common/nf_paths.rs"]
#[allow(dead_code)]
mod nf_paths;

use netpkt::buf::DEFAULT_HEADROOM;
use netpkt::bufpool::SMALL_FRAME;
use netpkt::packet::build_ipv6_udp_packet;
use netpkt::sockio::DEFAULT_FRAME_CAP;
use netpkt::PacketBuf;
use seg6_core::alloc_counter::{global_allocations, CountingAllocator};
use seg6_core::{Nexthop, Seg6Datapath};
use seg6_runtime::{Ingress, PoolConfig, TenantQos, WorkerPool};
use std::net::Ipv6Addr;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn forwarding_datapath(cpu: u32) -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(cpu);
    dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
    dp
}

fn flow_packet(flow: u32) -> PacketBuf {
    sized_flow_packet(flow, 80)
}

/// `flow`'s IPv6/UDP packet, `len` bytes long on the wire.
fn sized_flow_packet(flow: u32, len: usize) -> PacketBuf {
    build_ipv6_udp_packet(
        addr(&format!("2001:db8::{:x}", flow + 1)),
        addr("2001:db8:f::1"),
        (1024 + flow % 40_000) as u16,
        5001,
        &vec![0u8; len - 48],
        64,
    )
}

#[test]
fn pool_steady_state_does_not_allocate_per_packet() {
    const WORKERS: u32 = 4;
    const PACKETS_PER_ROUND: usize = 1024;
    const MEASURED_ROUNDS: usize = 8;
    // What one round may allocate: the flush report's outer vector and one
    // pre-sized window vector per shard. Everything else — rings, staging,
    // batch and verdict buffers, the arena, the barrier — must be reuse.
    const ROUND_ALLOCS: u64 = 1 + WORKERS as u64;

    let config = PoolConfig {
        workers: WORKERS,
        batch_size: 32,
        queue_depth: 2 * PACKETS_PER_ROUND,
        ..Default::default()
    };

    let expected = MEASURED_ROUNDS as u64 * ROUND_ALLOCS;
    let rejected = |pool: &WorkerPool| pool.counters().snapshot().rejected();

    // --- Phase 1: the zero-allocation ingestion loop ---

    // Frames enter as byte slices: every packet buffer must come out of
    // the arena the flush barrier refills. Buffers come back at the
    // barrier only, so the first warm-up round mints exactly one buffer
    // per frame and no later round of the same size mints any: the
    // flat-mint assertion below is deterministic rather than
    // scheduling-dependent. Pre-render the frames outside the measurement.
    let mut pool = WorkerPool::new(config.clone(), forwarding_datapath);
    let frames: Vec<Vec<u8>> =
        (0..PACKETS_PER_ROUND as u32).map(|f| flow_packet(f).data().to_vec()).collect();
    for _ in 0..3 {
        assert_eq!(
            pool.enqueue_bytes_all(0, frames.iter().map(Vec::as_slice)),
            PACKETS_PER_ROUND,
            "warm-up round fits the rings"
        );
        pool.flush();
    }
    let minted_after_warmup = pool.buf_pool().allocations();

    let before = global_allocations();
    let mut processed = 0u64;
    for _ in 0..MEASURED_ROUNDS {
        assert_eq!(pool.enqueue_bytes_all(0, frames.iter().map(Vec::as_slice)), PACKETS_PER_ROUND);
        processed += pool.flush().run.processed;
    }
    let allocations = global_allocations() - before;

    assert_eq!(processed as usize, MEASURED_ROUNDS * PACKETS_PER_ROUND);
    assert_eq!(rejected(&pool), 0);
    assert_eq!(
        pool.buf_pool().allocations(),
        minted_after_warmup,
        "steady-state ingestion minted fresh packet buffers instead of recycling"
    );
    assert_eq!(
        allocations, expected,
        "recycled ingestion allocated {allocations} times over {MEASURED_ROUNDS} rounds \
         ({PACKETS_PER_ROUND} packets each) — the dispatch → ring → worker → barrier → arena loop \
         is allocating"
    );

    // --- Phase 2: the multi-tenant gate ---

    // Registering the tenant allocates (datapath forks, counter row, the
    // arena's free lists reserved to the larger in-flight bound) — all of
    // it one-time cost outside the measurement.
    let mut template_b = Seg6Datapath::new(addr("fc00::2"));
    template_b.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(2)]);
    let tenant_b = pool.add_tenant(&template_b, TenantQos::default());
    let half = PACKETS_PER_ROUND / 2;
    for _ in 0..3 {
        // Warm-up: both tenants' paths touch every reused buffer once.
        assert_eq!(pool.enqueue_bytes_all(0, frames[..half].iter().map(Vec::as_slice)), half);
        assert_eq!(
            pool.tenant(tenant_b).enqueue_bytes_all(0, frames[half..].iter().map(Vec::as_slice)),
            PACKETS_PER_ROUND - half
        );
        pool.flush();
    }
    let minted_after_tenants = pool.buf_pool().allocations();

    let before = global_allocations();
    let mut processed = 0u64;
    for _ in 0..MEASURED_ROUNDS {
        // Interleave the tenants: tenant runs of both kinds in every
        // batch, rings and arena shared.
        assert_eq!(pool.enqueue_bytes_all(0, frames[..half].iter().map(Vec::as_slice)), half);
        assert_eq!(
            pool.tenant(tenant_b).enqueue_bytes_all(0, frames[half..].iter().map(Vec::as_slice)),
            PACKETS_PER_ROUND - half
        );
        processed += pool.flush().run.processed;
    }
    let allocations = global_allocations() - before;

    assert_eq!(processed as usize, MEASURED_ROUNDS * PACKETS_PER_ROUND);
    assert_eq!(rejected(&pool), 0);
    assert_eq!(
        pool.buf_pool().allocations(),
        minted_after_tenants,
        "multi-tenant steady state minted fresh packet buffers instead of recycling"
    );
    assert_eq!(
        allocations, expected,
        "multi-tenant ingestion allocated {allocations} times over {MEASURED_ROUNDS} rounds \
         ({PACKETS_PER_ROUND} packets each, 2 tenants) — tenant stamping, tenant-run splitting or \
         the per-tenant counters are allocating"
    );

    // Both tenants really ran: the per-tenant rows carry the split.
    let snap = pool.counters().snapshot();
    assert!(snap.tenants[0].totals().processed > 0);
    assert!(snap.tenants[1].totals().processed > 0);

    // --- Phase 3: programs and encapsulations through the pool ---

    let nf_tenant = pool.add_tenant(&nf_paths::router(0, None).0, TenantQos::default());
    let nf_frames = nf_paths::steady_frames((PACKETS_PER_ROUND / 8) as u16);
    assert_eq!(nf_frames.len(), PACKETS_PER_ROUND);
    let forwarded_before = pool.counters().snapshot().tenants[nf_tenant.index()].totals().forwarded;
    for _ in 0..3 {
        // Warm-up: every shard's scratch grows to what the longest
        // encapsulation needs (the arena's buffers already hold it).
        assert_eq!(
            pool.tenant(nf_tenant).enqueue_bytes_all(0, nf_frames.iter().map(Vec::as_slice)),
            PACKETS_PER_ROUND
        );
        pool.flush();
    }
    let minted_after_nf = pool.buf_pool().allocations();

    let before = global_allocations();
    let mut processed = 0u64;
    for _ in 0..MEASURED_ROUNDS {
        assert_eq!(
            pool.tenant(nf_tenant).enqueue_bytes_all(0, nf_frames.iter().map(Vec::as_slice)),
            PACKETS_PER_ROUND
        );
        processed += pool.flush().run.processed;
    }
    let allocations = global_allocations() - before;

    assert_eq!(processed as usize, MEASURED_ROUNDS * PACKETS_PER_ROUND);
    assert_eq!(pool.buf_pool().allocations(), minted_after_nf, "program rounds minted fresh packet buffers");
    let forwarded =
        pool.counters().snapshot().tenants[nf_tenant.index()].totals().forwarded - forwarded_before;
    assert_eq!(
        forwarded as usize,
        (3 + MEASURED_ROUNDS) * PACKETS_PER_ROUND,
        "every program-path packet forwards"
    );
    assert_eq!(
        allocations, expected,
        "program and encapsulation rounds allocated {allocations} times over {MEASURED_ROUNDS} rounds \
         ({PACKETS_PER_ROUND} packets each) — an End.BPF, LWT or static encap path is allocating \
         per packet"
    );
    pool.shutdown();

    // --- Phase 4: collected outputs ---

    let mut pool =
        WorkerPool::new(PoolConfig { collect_outputs: true, ..config.clone() }, forwarding_datapath);
    let round = |pool: &mut WorkerPool| {
        assert_eq!(pool.enqueue_bytes_all(0, frames.iter().map(Vec::as_slice)), PACKETS_PER_ROUND);
        let report = pool.flush();
        assert!(report.outputs.iter().all(|shard| !shard.is_empty()), "every shard saw traffic");
        let mut collected = 0;
        for (_, skb, _) in report.outputs.into_iter().flatten() {
            pool.recycle(skb.into_packet());
            collected += 1;
        }
        assert_eq!(collected, PACKETS_PER_ROUND);
    };
    for _ in 0..3 {
        round(&mut pool);
    }
    let minted_after_warmup = pool.buf_pool().allocations();

    let before = global_allocations();
    for _ in 0..MEASURED_ROUNDS {
        round(&mut pool);
    }
    let allocations = global_allocations() - before;

    assert_eq!(pool.buf_pool().allocations(), minted_after_warmup, "collected rounds minted packet buffers");
    assert_eq!(
        allocations, expected,
        "collected-output rounds allocated {allocations} times over {MEASURED_ROUNDS} rounds: more \
         than the report vector plus one pre-sized output vector per shard — a shard is regrowing \
         its outputs, or the barrier is allocating"
    );
    pool.shutdown();

    // --- Phase 5: a stationary mix of both buffer classes ---

    // 64-byte and 1400-byte frames interleave in every window, so the
    // arena's small and full classes warm side by side. Outputs are
    // collected to read each buffer's storage: a 64-byte frame must sit in
    // a small buffer and a 1400-byte one in a full buffer, and once both
    // classes have warmed no round mints either.
    let small = DEFAULT_HEADROOM + SMALL_FRAME;
    let full = DEFAULT_HEADROOM + DEFAULT_FRAME_CAP;
    let mixed: Vec<Vec<u8>> = (0..PACKETS_PER_ROUND as u32)
        .map(|f| sized_flow_packet(f, if f % 2 == 0 { 64 } else { 1400 }).data().to_vec())
        .collect();
    let mut pool = WorkerPool::new(PoolConfig { collect_outputs: true, ..config }, forwarding_datapath);
    let round = |pool: &mut WorkerPool| {
        assert_eq!(pool.enqueue_bytes_all(0, mixed.iter().map(Vec::as_slice)), PACKETS_PER_ROUND);
        let report = pool.flush();
        let mut misfiled = 0;
        for (_, skb, _) in report.outputs.into_iter().flatten() {
            let expected = if skb.packet.len() == 64 { small } else { full };
            misfiled += usize::from(skb.packet.storage_capacity() != expected);
            pool.recycle(skb.into_packet());
        }
        assert_eq!(misfiled, 0, "a frame sat in a buffer of the wrong class");
    };
    for _ in 0..3 {
        round(&mut pool);
    }
    let minted_after_warmup = pool.buf_pool().allocations();
    assert_eq!(minted_after_warmup, PACKETS_PER_ROUND as u64, "the first window minted one buffer per frame");

    let before = global_allocations();
    for _ in 0..MEASURED_ROUNDS {
        round(&mut pool);
    }
    let allocations = global_allocations() - before;

    assert_eq!(pool.buf_pool().allocations(), minted_after_warmup, "mixed-size rounds minted packet buffers");
    assert_eq!(
        allocations, expected,
        "mixed-size rounds allocated {allocations} times over {MEASURED_ROUNDS} rounds: a size class \
         is minting or a buffer is growing"
    );
    pool.shutdown();
}
