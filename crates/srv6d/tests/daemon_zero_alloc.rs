//! Daemon steady-state allocation regression test: the `pool_zero_alloc`
//! harness extended across the socket ingest boundary.
//!
//! Run with `cargo test -p srv6d --features alloc-counter`. The whole
//! service pass — in-memory socket fill → `FrameBatch` slots →
//! `enqueue_bytes_all` (recycled `BufPool` storage) → rings → workers →
//! flush barrier → TX emit → output-buffer recycle — costs an **exact**
//! per-pass constant, never a per-packet allocation. The in-memory backend
//! recycles frame storage on both link directions and its lookups do not
//! allocate, so every allocation the counter sees belongs to the daemon
//! path itself.

#![cfg(feature = "alloc-counter")]

use netpkt::packet::build_ipv6_udp_packet;
use netpkt::sockio::FrameBatch;
use seg6_core::alloc_counter::{global_allocations, CountingAllocator};
use srv6d::{Config, MemBackend, Srv6Daemon};
use std::net::Ipv6Addr;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

#[test]
fn daemon_service_loop_does_not_allocate_per_packet() {
    const WORKERS: u32 = 2;
    const FRAMES_PER_ROUND: usize = 256;
    const MEASURED_ROUNDS: usize = 8;
    // What one `service()` pass that read frames may allocate: the flush
    // report's outer vector and the pre-sized window vector each shard
    // starts its next window with (`1 + WORKERS`, the pool's exact
    // per-barrier count), plus the TX emit's one vector of frame slices
    // for the pass, which borrows the outputs it sends and so cannot
    // outlive them.
    const PASS_ALLOCS: u64 = 1 + WORKERS as u64 + 1;

    let config = Config::parse(
        "[daemon]\nworkers = 2\nbatch-size = 32\nqueue-depth = 1024\nrx-burst = 64\n\
         [tenant edge]\nlocal = fc00::1\nlisten = [::1]:45000\npeer = 1 [::1]:45100\nroute = ::/0 dev 1",
    )
    .expect("valid config");
    assert_eq!(config.daemon.workers, WORKERS);
    let mem = MemBackend::new(4 * FRAMES_PER_ROUND);
    let mut daemon = Srv6Daemon::start(config, Box::new(mem.clone())).expect("daemon starts");

    // Pre-render the frames outside the measurement. A pass reads
    // `rx-burst` frames per queue, so a round is two passes; both carry
    // the same 128 flows, so each shard collects the same window every
    // pass. (A shard whose window outgrows its previous one regrows its
    // window vector once: with a different flow mix per pass, that would
    // be one more allocation on every pass.)
    let frames: Vec<Vec<u8>> = (0..FRAMES_PER_ROUND as u32)
        .map(|i| {
            let flow = i % (FRAMES_PER_ROUND as u32 / 2);
            build_ipv6_udp_packet(
                addr(&format!("2001:db8::{:x}", flow + 1)),
                addr("2001:db8:f::1"),
                (1024 + flow % 40_000) as u16,
                5001,
                &[0u8; 32],
                64,
            )
            .data()
            .to_vec()
        })
        .collect();
    let mut drain_batch = FrameBatch::new(FRAMES_PER_ROUND, 2048);

    // One full round: inject at both queues, service until everything is
    // read, drain the egress link (returning its buffers to the link's
    // free list). Returns the frames read off the sockets and the number
    // of passes that read them.
    let round = |daemon: &mut Srv6Daemon, drain_batch: &mut FrameBatch| -> (usize, u64) {
        for (i, frame) in frames.iter().enumerate() {
            assert!(mem.inject("edge", (i % WORKERS as usize) as u32, frame), "mem link backpressured");
        }
        let (mut read, mut passes) = (0, 0);
        while read < FRAMES_PER_ROUND {
            read += daemon.service().rx_frames;
            passes += 1;
        }
        let mut drained = 0;
        while drained < FRAMES_PER_ROUND {
            drain_batch.clear();
            let got = mem.drain_egress("edge", 1, drain_batch);
            assert!(got > 0, "egress dried up at {drained}/{FRAMES_PER_ROUND}");
            drained += got;
        }
        (read, passes)
    };

    // Warmup: mint the arena, size the batch/verdict/output buffers, and
    // seed both mem links' free lists.
    for _ in 0..3 {
        assert_eq!(round(&mut daemon, &mut drain_batch).0, FRAMES_PER_ROUND);
    }
    let minted_after_warmup = daemon.pool().buf_pool().allocations();

    let before = global_allocations();
    let mut passes = 0;
    for _ in 0..MEASURED_ROUNDS {
        let (read, round_passes) = round(&mut daemon, &mut drain_batch);
        assert_eq!(read, FRAMES_PER_ROUND);
        passes += round_passes;
    }
    let allocations = global_allocations() - before;

    let totals = daemon.pool().counters().snapshot().tenants[0].totals();
    assert_eq!(totals.processed, (3 + MEASURED_ROUNDS as u64) * FRAMES_PER_ROUND as u64);
    assert_eq!(totals.rejected, 0);
    assert_eq!(
        daemon.pool().buf_pool().allocations(),
        minted_after_warmup,
        "steady-state socket ingest minted fresh packet buffers instead of recycling"
    );
    assert_eq!(
        allocations,
        passes * PASS_ALLOCS,
        "daemon service loop allocated {allocations} times over {passes} passes \
         ({MEASURED_ROUNDS} rounds of {FRAMES_PER_ROUND} frames); expected {PASS_ALLOCS} per pass — \
         the socket → ring → worker → TX → recycle path is allocating"
    );

    let report = daemon.drain();
    assert_eq!(report.tenants[0].tx_frames, (3 + MEASURED_ROUNDS as u64) * FRAMES_PER_ROUND as u64);
    assert_eq!(report.drain.counters.in_flight(), 0);
}
