//! Capture replay through the pool's ring front-end: a `tcpreplay`-style
//! external packet source driving `enqueue_bytes_all`.
//!
//! The pipeline: `trafficgen` builds a packet stream and records it into a
//! length-prefixed capture file (`trafficgen::capture`); the replay side
//! streams the file back through one reused frame buffer and feeds the
//! frames — as plain byte slices, the way an AF_PACKET/pcap source would —
//! into the persistent worker pool's recycled-buffer burst path. Two
//! tenants share the pool (alternating replay chunks), so the run also
//! shows per-tenant descriptor stamping and the per-tenant × per-shard
//! live counters.
//!
//! By default the replay is paced by the capture's inter-frame timestamps
//! (`trafficgen::pace::Pacer`), so the rings see the recorded arrival
//! process rather than one giant burst. Pass `--as-fast-as-possible` to
//! replay back-to-back (`tcpreplay --topspeed` style) for throughput runs.
//!
//! ```text
//! cargo run --release --example replay [-- --as-fast-as-possible]
//! ```

use seg6_core::{Nexthop, Seg6Datapath};
use seg6_runtime::{Ingress, PoolConfig, TenantId, TenantQos, WorkerPool};
use std::net::Ipv6Addr;
use std::time::Instant;
use trafficgen::capture::{CaptureReader, CaptureWriter};
use trafficgen::pace::Pacer;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// A datapath routing everything out of `oif` — the two tenants get
/// different interfaces so the replay's per-tenant verdicts are
/// distinguishable in the counters.
fn oif_datapath(oif: u32) -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr("fc00::1"));
    dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(oif)]);
    dp
}

fn main() {
    const FRAMES: usize = 8_192;
    const CHUNK: usize = 256;
    const WORKERS: u32 = 4;

    let topspeed = std::env::args().any(|a| a == "--as-fast-as-possible");
    let mut pacer = if topspeed { Pacer::as_fast_as_possible() } else { Pacer::by_timestamps() };

    // --- Record: trafficgen writes the capture file -----------------------
    let path = std::env::temp_dir().join("srv6_replay_example.cap");
    {
        let packets = trafficgen::pktgen_ipv6_udp(addr("2001:db8::1"), addr("2001:db8:f::1"), 64, FRAMES);
        let mut writer = CaptureWriter::create(&path).expect("create capture file");
        for (i, packet) in packets.iter().enumerate() {
            // 2 Mpps capture clock: one frame every 500 ns.
            writer.write_frame(i as u64 * 500, packet.data()).expect("write frame");
        }
        writer.finish().expect("flush capture");
    }
    let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("recorded {FRAMES} frames to {} ({file_len} bytes)", path.display());

    // --- Replay: stream the file into the pool's ring front-end ----------
    let config = PoolConfig {
        workers: WORKERS,
        batch_size: 32,
        // Each chunk is flushed before the next: a ring must hold one
        // chunk, even one that all steers to a single shard.
        queue_depth: CHUNK,
        ..Default::default()
    };
    let mut pool = WorkerPool::from_datapath(config, &oif_datapath(1));
    let tenant_b = pool.add_tenant(&oif_datapath(2), TenantQos::default());
    println!(
        "replaying into a {WORKERS}-shard pool shared by {} tenants (alternating chunks)",
        pool.tenants()
    );

    let mut reader = CaptureReader::open(&path).expect("open capture file");
    // One reusable read buffer plus a reusable chunk of frame buffers: the
    // whole replay allocates per chunk slot once, then streams.
    let mut frame = Vec::new();
    let mut chunk: Vec<Vec<u8>> = vec![Vec::new(); CHUNK];
    let mut filled = 0usize;
    let mut chunk_index = 0u64;
    let mut chunk_clock_ns = 0u64;
    let mut accepted = 0usize;
    let mut processed = 0u64;
    let mut replay = |pool: &mut WorkerPool, chunk: &[Vec<u8>], index: u64, now_ns: u64| -> usize {
        // Even chunks replay as the default tenant, odd chunks as tenant
        // B — one capture serving two routing contexts.
        let tenant = if index.is_multiple_of(2) { TenantId::DEFAULT } else { tenant_b };
        let accepted = pool.tenant(tenant).enqueue_bytes_all(now_ns, chunk.iter().map(Vec::as_slice));
        // One flush barrier per chunk, as srv6d flushes once per pass: it
        // hands every packet of the chunk back, and each buffer goes back
        // into the arena.
        let report = pool.flush();
        processed += report.run.processed;
        for (_, skb, _) in report.outputs.into_iter().flatten() {
            pool.recycle(skb.into_packet());
        }
        accepted
    };
    let replay_start = Instant::now();
    let mut max_lag = std::time::Duration::ZERO;
    while let Some(timestamp_ns) = reader.next_frame(&mut frame).expect("read frame") {
        // Hold each frame until its capture due time (no-op at topspeed),
        // so the rings see the recorded 2 Mpps arrival process.
        max_lag = max_lag.max(pacer.pace(timestamp_ns));
        chunk[filled].clear();
        chunk[filled].extend_from_slice(&frame);
        chunk_clock_ns = timestamp_ns;
        filled += 1;
        if filled == CHUNK {
            accepted += replay(&mut pool, &chunk, chunk_index, chunk_clock_ns);
            filled = 0;
            chunk_index += 1;
        }
    }
    accepted += replay(&mut pool, &chunk[..filled], chunk_index, chunk_clock_ns);
    let mode = if pacer.is_paced() { "paced by capture timestamps" } else { "as fast as possible" };
    println!(
        "replayed {} frames ({mode}) in {:.3} ms, {} accepted by the rings, max lag {:?}",
        reader.frames(),
        replay_start.elapsed().as_secs_f64() * 1e3,
        accepted,
        max_lag
    );

    // --- Observe: the per-tenant rows the flush barriers balanced ---------
    let counters = pool.counters().snapshot();
    for (tenant, row) in counters.tenants.iter().enumerate() {
        let totals = row.totals();
        println!(
            "  tenant {tenant}: enqueued {:5}, processed {:5}, forwarded {:5}, per shard {:?}",
            totals.enqueued,
            totals.processed,
            totals.forwarded,
            row.shards.iter().map(|s| s.processed).collect::<Vec<_>>()
        );
    }
    println!(
        "flushes: processed {processed} ({} forwarded), per shard {:?}, backpressure drops {}",
        counters.forwarded(),
        counters.shards.iter().map(|s| s.processed).collect::<Vec<_>>(),
        counters.rejected()
    );
    assert_eq!(processed as usize + counters.rejected() as usize, FRAMES);
    // The recycling arena served the replay from a bounded buffer set.
    println!(
        "buffer arena: {} minted, {} recycle hits",
        pool.buf_pool().allocations(),
        pool.buf_pool().recycle_hits()
    );
    pool.shutdown();
    let _ = std::fs::remove_file(&path);
}
