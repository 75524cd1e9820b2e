//! Walkthrough of the multi-queue batched runtime: RSS flow steering,
//! per-shard datapath instances on a persistent worker pool, true per-CPU
//! map slots, barrier-free live counters — the architecture a production
//! End.BPF deployment runs on every core, reproduced in user space.
//!
//! ```text
//! cargo run --release --example multiqueue
//! ```

use ebpf_vm::helpers::ids;
use ebpf_vm::insn::{jmp, AccessSize};
use ebpf_vm::maps::PerCpuArrayMap;
use ebpf_vm::program::{load, retcode, ProgramType};
use ebpf_vm::{MapHandle, ProgramBuilder};
use netpkt::ipv6::proto;
use netpkt::packet::build_srv6_udp_packet;
use netpkt::srh::SegmentRoutingHeader;
use seg6_core::{Nexthop, Seg6Datapath, Seg6LocalAction};
use seg6_runtime::{Ingress, PoolConfig, WorkerPool};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// An End.BPF program that bumps a 64-bit counter in entry 0 of the
/// per-CPU array attached as fd 1, then forwards the packet.
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

fn main() {
    const WORKERS: u32 = 4;
    const PACKETS: u32 = 10_000;
    const ROUNDS: u32 = 3;
    let sid = addr("fc00::e1");

    // One per-CPU map shared by every shard: each shard sees only its own
    // slot, so the counters need no locks.
    let counters: Arc<PerCpuArrayMap> = PerCpuArrayMap::new(8, 1, WORKERS);
    let shared: MapHandle = counters.clone();

    // The persistent worker pool: one long-lived thread per shard, fed
    // over lock-free descriptor rings. The closure runs once per shard and
    // loads that shard's own program instance (compiled once, at load
    // time). Spawn once, then only enqueue + flush.
    println!("persistent worker pool: {ROUNDS} rounds of {PACKETS} packets on {WORKERS} shards");
    let pool_config =
        PoolConfig { workers: WORKERS, batch_size: 32, queue_depth: 16_384, ..Default::default() };
    let mut pool = WorkerPool::new(pool_config, |_| {
        let mut dp = Seg6Datapath::new(addr("fc00::1"));
        dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::direct(1)]);
        let mut maps: HashMap<u32, MapHandle> = HashMap::new();
        maps.insert(1, Arc::clone(&shared));
        let prog = load(counting_program(), &maps, &dp.helpers).expect("verified program");
        dp.add_local_sid(netpkt::Ipv6Prefix::host(sid), Seg6LocalAction::EndBpf { prog });
        dp
    });
    // The live counter block: per-shard relaxed-atomic cells, readable
    // from any thread at any time — no flush barrier, no pause.
    let live = pool.counters();
    for round in 1..=ROUNDS {
        // Quiet since the last flush: the round's window starts here.
        let before = live.snapshot().shards;
        // 10 000 packets over 500 flows: the Toeplitz RSS hash steers each
        // flow to a stable worker shard.
        for i in 0..PACKETS {
            let srh = SegmentRoutingHeader::from_path(proto::UDP, &[sid, addr("fc00::99")]);
            let pkt = build_srv6_udp_packet(
                addr(&format!("2001:db8::{:x}", i % 500 + 1)),
                &srh,
                (1024 + i % 500) as u16,
                5001,
                &[0u8; 64],
                64,
            );
            pool.enqueue_bytes_at(0, pkt.data());
        }
        // Mid-run, before any barrier: the workers are still chewing on
        // this round, yet the snapshot is immediately readable — the
        // barrier-free metrics a scrape endpoint would serve.
        let snap = live.snapshot();
        println!(
            "  round {round} live (no flush): enqueued {:5}, processed {:5}, in flight {:4}, \
             per shard {:?}",
            snap.enqueued(),
            snap.processed(),
            snap.in_flight(),
            snap.shards.iter().map(|s| s.processed).collect::<Vec<_>>()
        );
        let report = pool.flush();
        let snap = live.snapshot();
        let per_shard: Vec<u64> =
            snap.shards.iter().zip(&before).map(|(now, then)| now.since(then).processed).collect();
        println!(
            "  round {round}: processed {} ({} forwarded), per shard {:?}, backpressure drops {}",
            report.run.processed,
            report.run.forwarded,
            per_shard,
            snap.rejected()
        );
        // The flush hands every packet back: return the buffers to the
        // pool's arena, so the next round reuses them.
        for (_, skb, _) in report.outputs.into_iter().flatten() {
            pool.recycle(skb.into_packet());
        }
    }
    // At a quiet point the live counters balance: everything enqueued
    // has been processed.
    let snap = live.snapshot();
    assert_eq!(snap.processed(), u64::from(ROUNDS * PACKETS));
    assert_eq!(snap.in_flight(), 0);
    println!(
        "  after {ROUNDS} rounds, live totals: enqueued {}, processed {}, forwarded {}",
        snap.enqueued(),
        snap.processed(),
        snap.forwarded()
    );
    assert_eq!(snap.threads_spawned, u64::from(WORKERS), "steady state spawned a thread");
    println!("  thread spawns after construction: 0 (pool threads live across rounds)");

    // Every shard counted in its private per-CPU slot — compare the map
    // contents with what each shard processed.
    println!("\nper-CPU counter slots (map shared by all shards):");
    let key = 0u32.to_ne_bytes();
    for (cpu, shard) in snap.shards.iter().enumerate() {
        let slot = counters.lookup_cpu(&key, cpu as u32).unwrap();
        let count = u64::from_le_bytes(slot.try_into().unwrap());
        println!(
            "  cpu {cpu}: counted {count:5}  (processed {:5}, batches {:3})",
            shard.processed, shard.batches
        );
        assert_eq!(count, shard.processed, "per-CPU slots must be disjoint");
    }
    let totals = pool.shutdown();
    println!(
        "  graceful shutdown — lifetime packets per shard: {:?}",
        totals.iter().map(|s| s.processed).collect::<Vec<_>>()
    );
}
