//! Criterion bench for the multi-queue runtime: how much batching buys on
//! one core, and how aggregate packets/sec scale as worker shards are
//! added, for the `End`, `Tag++` and WRR hybrid-access programs.
//!
//! The interesting comparison (the one the paper's deployment story needs)
//! is `runtime_scaling/wrr/single_packet` — one packet at a time on one
//! thread — against `worker_pool/wrr/persistent_pool_Nw`: RSS-steered,
//! batched, with per-worker program instances and private WRR map state.
//! Baselines that earlier PRs measured and retired are tabulated in the
//! README ("Retired baselines").

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ebpf_vm::MapHandle;
use netpkt::ipv6::proto;
use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::{Ipv6Prefix, PacketBuf};
use seg6_core::{Fib, LwtBpfAttachment, LwtHook, Nexthop, Seg6Datapath, Seg6LocalAction, Skb};
use seg6_runtime::{Ingress, PoolConfig, WorkerPool};
use srv6_nf::{end_program, tag_increment_program, wrr_encap_program, wrr_maps};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::time::Duration;

/// Packets per measured iteration (and the element count for throughput).
const POOL: usize = 1024;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn endpoint_sid() -> Ipv6Addr {
    addr("fc00:1::e")
}

/// A pool of SRv6 packets aimed at the endpoint SID, spread over many
/// flows so RSS steering distributes them.
fn srv6_pool() -> Vec<PacketBuf> {
    (0..POOL)
        .map(|i| {
            let srh = SegmentRoutingHeader::from_path(proto::UDP, &[endpoint_sid(), addr("fc00:2::d2")]);
            build_srv6_udp_packet(
                addr(&format!("2001:db8::{:x}", i + 1)),
                &srh,
                (1024 + i % 512) as u16,
                5001,
                &[0u8; 64],
                64,
            )
        })
        .collect()
}

/// A pool of plain IPv6/UDP packets towards the WRR-scheduled prefix.
fn wrr_pool() -> Vec<PacketBuf> {
    (0..POOL)
        .map(|i| {
            build_ipv6_udp_packet(
                addr(&format!("2001:db8:1::{:x}", i + 1)),
                addr(&format!("2001:db8:2::{:x}", i % 64 + 1)),
                (1024 + i % 512) as u16,
                5001,
                &[0u8; 64],
                64,
            )
        })
        .collect()
}

/// A datapath running `action_prog` as an End.BPF SID, pinned to `cpu`.
fn endpoint_datapath(prog: fn() -> ebpf_vm::Program, cpu: u32) -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr("fc00:1::1")).on_cpu(cpu);
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
    let loaded = ebpf_vm::program::load(prog(), &HashMap::new(), &dp.helpers).expect("program");
    dp.add_local_sid(Ipv6Prefix::host(endpoint_sid()), Seg6LocalAction::EndBpf { prog: loaded });
    dp
}

/// A datapath running the WRR hybrid-access scheduler on the downstream
/// prefix, with its own private WRR state (per-worker, as each CPU of a
/// real deployment keeps its own deficit counters).
fn wrr_datapath(cpu: u32) -> Seg6Datapath {
    let (sid0, sid1) = (addr("fc00:a::1"), addr("fc00:b::1"));
    let mut dp = Seg6Datapath::new(addr("fc00::aa")).on_cpu(cpu);
    dp.add_route(Ipv6Prefix::host(sid0), vec![Nexthop::direct(2)]);
    dp.add_route(Ipv6Prefix::host(sid1), vec![Nexthop::direct(3)]);
    dp.add_route("2001:db8:2::/48".parse().unwrap(), vec![Nexthop::direct(2)]);
    let (state, config) = wrr_maps(5, 3, sid0, sid1);
    let mut maps: HashMap<u32, MapHandle> = HashMap::new();
    maps.insert(2, state);
    maps.insert(3, config);
    let prog = ebpf_vm::program::load(wrr_encap_program(2, 3), &maps, &dp.helpers).expect("WRR program");
    dp.attach_lwt_bpf("2001:db8:2::/48".parse().unwrap(), LwtBpfAttachment { hook: LwtHook::Xmit, prog });
    dp
}

/// Single-thread, single-packet reference.
fn run_per_packet(dp: &mut Seg6Datapath, pool: &[PacketBuf]) -> u64 {
    let mut forwarded = 0;
    for packet in pool {
        let mut skb = Skb::new(packet.clone());
        if dp.process(&mut skb, 0).is_forward() {
            forwarded += 1;
        }
    }
    forwarded
}

/// Single-thread batched path (same datapath, batch API).
fn run_batched(dp: &mut Seg6Datapath, pool: &[PacketBuf], batch: usize) -> u64 {
    let mut forwarded = 0;
    let mut verdicts = Vec::with_capacity(batch);
    for chunk in pool.chunks(batch) {
        let mut skbs: Vec<Skb> = chunk.iter().map(|p| Skb::new(p.clone())).collect();
        verdicts.clear();
        dp.process_batch_verdicts_into(&mut skbs, 0, &mut verdicts);
        forwarded += verdicts.iter().filter(|b| b.verdict.is_forward()).count() as u64;
    }
    forwarded
}

fn bench_batch_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_batch");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(POOL as u64));

    let pool = srv6_pool();
    for (name, prog) in [("end_bpf", end_program as fn() -> _), ("tag_inc", tag_increment_program)] {
        let mut dp = endpoint_datapath(prog, 0);
        group.bench_function(format!("{name}/per_packet"), |b| b.iter(|| run_per_packet(&mut dp, &pool)));
        let mut dp = endpoint_datapath(prog, 0);
        group.bench_function(format!("{name}/batched32"), |b| b.iter(|| run_batched(&mut dp, &pool, 32)));
    }
    group.finish();
}

fn bench_worker_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_scaling");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    group.throughput(Throughput::Elements(POOL as u64));

    let pool = wrr_pool();
    println!(
        "host parallelism: {} core(s) — multi-worker rows only scale past one worker on multicore hosts",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    // One thread, one packet at a time, no batching.
    let mut dp = wrr_datapath(0);
    group.bench_function("wrr/single_packet", |b| b.iter(|| run_per_packet(&mut dp, &pool)));
    group.finish();
}

/// The WRR workload through the **persistent** worker pool (threads
/// spawned once at construction, packets fed over the descriptor rings).
/// The pool's own spawn counter proves its steady state performs zero
/// thread spawns.
fn bench_worker_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("worker_pool");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    group.throughput(Throughput::Elements(POOL as u64));

    let pool = wrr_pool();
    for workers in [1u32, 2, 4, 8] {
        // Persistent pool: the threads exist before the first iteration
        // and are still the same ones after the last.
        let pool_config = PoolConfig { workers, batch_size: 32, queue_depth: 2 * POOL, ..Default::default() };
        let mut wp = WorkerPool::new(pool_config, wrr_datapath);
        group.bench_function(format!("wrr/persistent_pool_{workers}w"), |b| {
            b.iter(|| {
                wp.enqueue_all(pool.iter().cloned());
                wp.flush().run.forwarded
            })
        });
        assert_eq!(
            wp.counters().snapshot().threads_spawned,
            u64::from(workers),
            "the persistent pool must not spawn threads after construction"
        );
        assert_eq!(wp.rejected(), 0, "the bench never overflows a shard queue");
        wp.shutdown();
    }
    group.finish();
}

/// Descriptor handoff cost, transport only: the lock-free SPSC ring with
/// burst publish — descriptors staged per shard and released with one
/// atomic store per burst. Rows sweep 1/2/4/8 shards and burst sizes
/// 1/32/256. Consumers are real threads (spawned per row, outside the
/// measured iteration) so the transport pays its genuine cross-thread
/// costs.
fn bench_ring_ingest(c: &mut Criterion) {
    use seg6_runtime::ring::spsc_ring;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let mut group = c.benchmark_group("ring_ingest");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(POOL as u64));

    for shards in [1usize, 2, 4, 8] {
        // Staged descriptors, one publish per burst.
        for burst in [1usize, 32, 256] {
            let processed = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let mut producers = Vec::with_capacity(shards);
            let mut consumers = Vec::with_capacity(shards);
            for _ in 0..shards {
                let (tx, mut rx) = spsc_ring::<u64>(2 * POOL);
                let processed = Arc::clone(&processed);
                let stop = Arc::clone(&stop);
                consumers.push(std::thread::spawn(move || {
                    let mut out: Vec<u64> = Vec::with_capacity(256);
                    let mut idle = 0u32;
                    loop {
                        out.clear();
                        let got = rx.dequeue_burst(&mut out, 256);
                        if got > 0 {
                            idle = 0;
                            processed.fetch_add(got as u64, Ordering::Relaxed);
                        } else if stop.load(Ordering::Relaxed) {
                            break;
                        } else {
                            idle += 1;
                            if idle.is_multiple_of(64) {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                }));
                producers.push(tx);
            }
            let mut staging: Vec<Vec<u64>> = vec![Vec::with_capacity(burst); shards];
            group.bench_function(format!("ring_burst_{shards}w_b{burst}"), |b| {
                b.iter(|| {
                    let target = processed.load(Ordering::Relaxed) + POOL as u64;
                    for i in 0..POOL as u64 {
                        let shard = i as usize % shards;
                        staging[shard].push(i);
                        if staging[shard].len() >= burst {
                            while !staging[shard].is_empty() {
                                if producers[shard].enqueue_burst(&mut staging[shard]) == 0 {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                    for (shard, staged) in staging.iter_mut().enumerate() {
                        while !staged.is_empty() {
                            if producers[shard].enqueue_burst(staged) == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                    while processed.load(Ordering::Relaxed) < target {
                        std::thread::yield_now();
                    }
                })
            });
            stop.store(true, Ordering::Relaxed);
            for consumer in consumers {
                consumer.join().expect("ring consumer");
            }
        }
    }
    group.finish();
}

/// One **shared** pool serving T tenants, at 1/2/4 tenants × 1/2/4 shards.
/// The workload is fixed (1024 packets split evenly across the tenants,
/// enqueue + flush), so the rows isolate the cost of tenancy itself:
/// descriptor stamping, tenant-run splitting and per-tenant counters.
fn bench_tenant_scaling(c: &mut Criterion) {
    use seg6_runtime::{TenantId, TenantQos, TenantSpec};

    let mut group = c.benchmark_group("tenant_scaling");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(POOL as u64));

    /// A minimal forwarding datapath; each tenant routes out of its own
    /// interface so tenancy is observable in the verdicts.
    fn tenant_datapath(oif: u32, cpu: u32) -> Seg6Datapath {
        let mut dp = Seg6Datapath::new(addr("fc00::1")).on_cpu(cpu);
        dp.add_route("::/0".parse().unwrap(), vec![Nexthop::direct(oif)]);
        dp
    }

    let pool_packets = wrr_pool();
    for workers in [1u32, 2, 4] {
        for tenants in [1usize, 2, 4] {
            let per_tenant = POOL / tenants;
            let config = PoolConfig { workers, batch_size: 32, queue_depth: 2 * POOL, ..Default::default() };

            // T tenants on one set of shards.
            let mut shared = WorkerPool::new(config, |cpu| tenant_datapath(1, cpu));
            let mut ids = vec![TenantId::DEFAULT];
            for t in 1..tenants {
                ids.push(shared.add_tenant(TenantSpec::build_with(|cpu| tenant_datapath(1 + t as u32, cpu))));
            }
            group.bench_function(format!("shared_{tenants}t_{workers}w"), |b| {
                b.iter(|| {
                    let mut forwarded = 0u64;
                    for (t, id) in ids.iter().enumerate() {
                        let chunk = &pool_packets[t * per_tenant..(t + 1) * per_tenant];
                        shared.tenant(*id).enqueue_all(chunk.iter().cloned());
                    }
                    forwarded += shared.flush().run.forwarded;
                    forwarded
                })
            });
            assert_eq!(shared.rejected(), 0, "the bench never overflows a shard queue");
            shared.shutdown();
        }
    }

    // Noisy-neighbor rows (PR-7): one flooding tenant (3/4 of the pool's
    // packets) against one quiet tenant (1/4) on a single shard.
    // `noisy_fifo_1w` runs pre-QoS defaults (weight 1, no quota, arrival
    // order = the FIFO baseline); `noisy_qos_1w` caps the flooder at half
    // the ring and gives the quiet tenant a 4× DRR weight — the same
    // packet count flows through both rows, so the delta is the price of
    // quota accounting and deficit-round-robin selection under contention.
    let flood = POOL * 3 / 4;
    for (row, flooder_spec, quiet_weight) in [
        ("noisy_fifo_1w", TenantQos::default(), 1u32),
        ("noisy_qos_1w", TenantQos { weight: 1, ring_quota: Some(0.5), cost_budget: None }, 4),
    ] {
        let config = PoolConfig { workers: 1, batch_size: 32, queue_depth: 2 * POOL, ..Default::default() };
        let mut pool = WorkerPool::new(config, |cpu| tenant_datapath(1, cpu));
        pool.update_tenant_qos(TenantId::DEFAULT, flooder_spec);
        let quiet =
            pool.add_tenant(TenantSpec::build_with(|cpu| tenant_datapath(2, cpu)).weight(quiet_weight));
        group.bench_function(row, |b| {
            b.iter(|| {
                pool.enqueue_all(pool_packets[..flood].iter().cloned());
                pool.tenant(quiet).enqueue_all(pool_packets[flood..].iter().cloned());
                pool.flush().run.forwarded
            })
        });
        // The rings are sized so neither quota nor backpressure sheds in
        // this workload — both rows move the full packet pool.
        assert_eq!(pool.rejected(), 0, "the noisy rows never shed");
        assert_eq!(pool.rejected_over_budget(), 0);
        pool.shutdown();
    }
    group.finish();
}

/// FIB lookup scaling: the LPM trie at 10 / 1k / 100k routes. The rows must
/// stay near-flat as the route count grows (O(prefix bits)).
fn bench_fib_scale(c: &mut Criterion) {
    /// Deterministic xorshift64* so every run builds the same tables.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    const LOOKUPS: usize = 256;

    fn random_prefix(rng: &mut Rng) -> Ipv6Prefix {
        let len = 16 + (rng.next() % 97) as u8; // /16 ..= /112
        let addr = std::net::Ipv6Addr::from(((rng.next() as u128) << 64 | rng.next() as u128).to_be_bytes());
        Ipv6Prefix::new(addr, len).expect("valid length")
    }

    /// Builds a route set into a trie, plus a lookup mix of guaranteed hits
    /// (host-bit noise under installed prefixes) and default-route traffic.
    fn build(routes: usize) -> (Fib, Vec<std::net::Ipv6Addr>) {
        let mut rng = Rng(0xf1b_5ca1e ^ routes as u64);
        let mut trie = Fib::new();
        trie.insert("::/0".parse().unwrap(), vec![Nexthop::direct(1)]);
        let mut prefixes = Vec::with_capacity(routes);
        for i in 0..routes {
            let prefix = random_prefix(&mut rng);
            let oif = 1 + (i % 31) as u32;
            trie.insert(prefix, vec![Nexthop::direct(oif)]);
            prefixes.push(prefix);
        }
        let dsts = (0..LOOKUPS)
            .map(|i| {
                if i % 4 == 0 {
                    std::net::Ipv6Addr::from((rng.next() as u128).to_be_bytes())
                } else {
                    let base = prefixes[(rng.next() % prefixes.len() as u64) as usize].addr();
                    std::net::Ipv6Addr::from(
                        (u128::from_be_bytes(base.octets()) | rng.next() as u128).to_be_bytes(),
                    )
                }
            })
            .collect();
        (trie, dsts)
    }

    let mut group = c.benchmark_group("fib_scale");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(100));
    group.measurement_time(Duration::from_millis(400));
    group.throughput(Throughput::Elements(LOOKUPS as u64));

    for (label, routes) in [("10", 10usize), ("1k", 1_000), ("100k", 100_000)] {
        let (trie, dsts) = build(routes);
        group.bench_function(format!("trie_{label}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for (i, dst) in dsts.iter().enumerate() {
                    if let Some(hit) = trie.lookup(*dst, i as u64) {
                        acc += u64::from(hit.nexthop.oif);
                    }
                }
                acc
            })
        });
    }
    group.finish();
}

/// The srv6d rows: a full daemon service cycle — socket fill →
/// `FrameBatch` → `enqueue_bytes_all` → rings → workers → flush → TX emit
/// → buffer recycle — through the in-memory backend (transport cost
/// excluded: the daemon path itself) and through real UDP sockets over
/// loopback (the deployable configuration, kernel socket costs included).
fn bench_srv6d_io(c: &mut Criterion) {
    use netpkt::sockio::FrameBatch;
    use srv6d::{resolve_backend, Config, IoBackendChoice, MemBackend, Srv6Daemon};

    /// Frames pushed through the daemon per measured iteration.
    const BURST: usize = 256;
    /// Loopback in-flight cap: small UDP datagrams cost ~768 B of socket
    /// buffer each, so keep well under the default rmem (~212 KB).
    const WINDOW: usize = 64;

    let mut group = c.benchmark_group("srv6d_io");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(BURST as u64));

    let frames: Vec<Vec<u8>> = (0..BURST as u32)
        .map(|flow| {
            build_ipv6_udp_packet(
                addr(&format!("2001:db8::{:x}", flow + 1)),
                addr("2001:db8:f::1"),
                (1024 + flow % 40_000) as u16,
                5001,
                &[0u8; 64],
                64,
            )
            .data()
            .to_vec()
        })
        .collect();

    // --- In-memory backend: the daemon path without kernel sockets ------
    {
        let config = Config::parse(
            "[daemon]\nworkers = 1\nbatch-size = 32\nqueue-depth = 1024\nrx-burst = 64\n\
             [tenant edge]\nlocal = fc00::1\nlisten = [::1]:47000\npeer = 1 [::1]:47100\n\
             route = ::/0 dev 1",
        )
        .expect("valid config");
        let mem = MemBackend::new(4 * BURST);
        let mut daemon = Srv6Daemon::start(config, Box::new(mem.clone())).expect("daemon starts");
        let mut drain_batch = FrameBatch::new(BURST, 2048);
        group.bench_function("mem_ingest_1w", |b| {
            b.iter(|| {
                for frame in &frames {
                    assert!(mem.inject("edge", 0, frame), "mem link backpressured");
                }
                let mut read = 0;
                while read < BURST {
                    read += daemon.service().rx_frames;
                }
                let mut drained = 0;
                while drained < BURST {
                    drain_batch.clear();
                    drained += mem.drain_egress("edge", 1, &mut drain_batch);
                }
                read
            })
        });
        let report = daemon.drain();
        assert_eq!(report.drain.counters.in_flight(), 0);
    }

    // --- Kernel sockets over loopback: the deployable configuration -----
    // The backend `io-backend = auto` resolves to (`recvmmsg`/`sendmmsg`
    // on Linux), plus a derived syscalls-per-kiloframe figure: unlike
    // wall-clock, the syscall count is deterministic.
    let mmsg_rate = {
        let (listen_port, peer_port) = (47020, 47120);
        let config = Config::parse(&format!(
            "[daemon]\nworkers = 1\nbatch-size = 32\nqueue-depth = 1024\nrx-burst = 64\n\
             [tenant edge]\nlocal = fc00::1\nlisten = [::1]:{listen_port}\npeer = 1 [::1]:{peer_port}\n\
             route = ::/0 dev 1"
        ))
        .expect("valid config");
        let (backend, _) = resolve_backend(IoBackendChoice::Auto).expect("a kernel backend");
        // The capture socket must exist before the daemon connects its TX.
        let capture = std::net::UdpSocket::bind(format!("[::1]:{peer_port}")).expect("bind capture");
        capture.set_nonblocking(true).expect("nonblocking capture");
        let mut daemon = Srv6Daemon::start(config, backend).expect("daemon starts");
        let sender = std::net::UdpSocket::bind("[::1]:0").expect("bind sender");
        sender.connect(format!("[::1]:{listen_port}")).expect("connect sender");
        let mut buf = vec![0u8; 2048];
        let mut moved = 0u64;
        group.bench_function("mmsg_loopback_1w", |b| {
            b.iter(|| {
                let mut sent = 0usize;
                let mut captured = 0usize;
                while captured < BURST {
                    while sent < BURST && sent - captured < WINDOW {
                        sender.send(&frames[sent]).expect("loopback send");
                        sent += 1;
                    }
                    daemon.service();
                    while capture.recv(&mut buf).is_ok() {
                        captured += 1;
                    }
                }
                moved += 2 * BURST as u64; // BURST in, BURST back out
                captured
            })
        });
        let syscalls = daemon.io_syscalls();
        let report = daemon.drain();
        assert_eq!(report.drain.counters.in_flight(), 0);
        syscalls as f64 * 1000.0 / moved.max(1) as f64
    };
    group.finish();

    // Emit the syscall figure as an extra BENCH_JSON row (same shape as
    // the shim's), so the snapshot keeps the deterministic count.
    if std::env::var_os("CRITERION_JSON").is_some() {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let utc = std::env::var("BENCH_UTC").unwrap_or_default();
        println!(
            "BENCH_JSON {{\"name\":\"srv6d_io/mmsg_loopback_1w_syscalls\",\"ns_per_iter\":{mmsg_rate:.1},\
             \"iters\":1,\"throughput_per_s\":0,\"throughput_unit\":\"syscalls/kframe\",\
             \"host_parallelism\":{parallelism},\"utc\":\"{utc}\"}}"
        );
    }
}

/// The unrolled SRH + payload byte walk (one load plus two ALU ops per
/// offset, packet pointer in `r8`, accumulators in `r0`/`r3`), shared by
/// the VM-level `srh_walk` rows and the `end_scan_dp` datapath rows.
fn srh_walk_body(packet_len: usize) -> String {
    let mut body = String::new();
    for off in 40..(packet_len - 8) {
        body.push_str(&format!("ldxb r2, [r8+{off}]\nadd64 r0, r2\nxor64 r3, r0\n"));
    }
    body
}

/// The execution-tier rows: one verified program, three tiers.
///
/// `srh_walk_*` is a compute-heavy straight-line program (an unrolled walk
/// over the SRH and payload bytes, three ALU ops per byte) measured at the
/// VM level with `run_program_with_state`, so the row isolates pure
/// execution cost: interpreter dispatch vs. pre-decoded micro-ops vs.
/// native x86-64 code with verifier-elided checks.
/// `bench-smoke.sh` gates `srh_walk_native` at `MIN_JIT_SPEEDUP`× (default
/// 3×) over `srh_walk_interp`. The `*_dp_*` rows run endpoint programs
/// through the full datapath: the shipped `End`, `End.X` and `End.T`
/// programs plus `end_scan`, the same byte walk attached as an `End.BPF`
/// policy. `bench-smoke.sh` gates `end_scan_dp` at `MIN_DP_SPEEDUP`×
/// (default 1.15×) and holds `end_dp`/`end_x_dp`/`end_t_dp` — whose
/// programs are a dozen trivial instructions, so per-packet datapath work
/// dominates — to a `MIN_DP_FLOOR` non-regression floor.
fn bench_jit_speedup(c: &mut Criterion) {
    use ebpf_vm::vm::{run_program_with_state, NullEnv, RunContext, RunState, PKT_BASE};
    use ebpf_vm::ExecTier;

    let mut group = c.benchmark_group("jit_speedup");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(500));

    // --- VM-level compute row: the unrolled SRH walk ---
    let srh = SegmentRoutingHeader::from_path(proto::UDP, &[endpoint_sid(), addr("fc00:2::d2")]);
    let template =
        build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1024, 5001, &[0u8; 64], 64).data().to_vec();
    let mut source = String::from("mov64 r9, r1\nldxdw r8, [r9+0]\nmov64 r0, 0\nmov64 r3, 0\n");
    source.push_str(&srh_walk_body(template.len()));
    source.push_str("xor64 r0, r3\nexit\n");
    let insns = ebpf_vm::asm::assemble(&source).expect("srh_walk assembles");
    let prog = ebpf_vm::program::Program::new("srh_walk", ebpf_vm::program::ProgramType::LwtSeg6Local, insns);
    let helpers = ebpf_vm::HelperRegistry::new();
    let walk = ebpf_vm::program::load(prog, &HashMap::new(), &helpers).expect("srh_walk verifies");
    let mut ctx = vec![0u8; 64];
    ctx[0..8].copy_from_slice(&PKT_BASE.to_le_bytes());
    ctx[8..16].copy_from_slice(&(PKT_BASE + template.len() as u64).to_le_bytes());
    let mut state = RunState::new(ctx.len());
    for tier in ExecTier::ALL {
        let mut packet = template.clone();
        let mut ctx = ctx.clone();
        let mut env = NullEnv;
        // One program execution per iteration: the BENCH_JSON rows carry
        // elem/s so the smoke gate can compare tiers by rate, not only ns.
        group.throughput(Throughput::Elements(1));
        group.bench_function(format!("srh_walk_{}", tier.name()), |b| {
            b.iter(|| {
                let mut rc = RunContext { ctx: &mut ctx, packet: &mut packet, env: &mut env };
                run_program_with_state(&walk, &helpers, &mut rc, tier, &mut state).expect("srh_walk runs")
            })
        });
    }

    // --- Datapath rows: endpoint programs end-to-end, interp vs native ---
    // `end_scan` attaches the byte walk as an `End.BPF` policy program (an
    // OAM-style per-packet telemetry scan), so one datapath row exists
    // where program execution is a large share of the per-packet cost and
    // the tier ratio is meaningful end-to-end. The walk is guarded by the
    // context `len` field and returns `BPF_OK`.
    let mut scan =
        String::from("mov64 r9, r1\nldxdw r8, [r9+0]\nldxw r7, [r9+16]\nmov64 r0, 0\nmov64 r3, 0\n");
    scan.push_str(&format!("jlt r7, {}, short\n", template.len()));
    scan.push_str(&srh_walk_body(template.len()));
    scan.push_str("short:\nmov64 r0, 0\nexit\n");
    let scan_insns = ebpf_vm::asm::assemble(&scan).expect("end_scan assembles");
    let scan_prog =
        ebpf_vm::program::Program::new("end_scan", ebpf_vm::program::ProgramType::LwtSeg6Local, scan_insns);
    let nexthop = addr("fe80::42");
    let progs: [(&str, ebpf_vm::Program); 4] = [
        ("end", end_program()),
        ("end_x", srv6_nf::end_x_program(nexthop)),
        ("end_t", srv6_nf::end_t_program(100)),
        ("end_scan", scan_prog),
    ];
    for (name, prog) in progs {
        for tier in [ExecTier::Interp, ExecTier::Native] {
            let mut dp = Seg6Datapath::new(addr("fc00:1::1")).on_cpu(0);
            dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
            dp.add_route("fe80::/10".parse().unwrap(), vec![Nexthop::direct(7)]);
            dp.add_route_in_table(100, "fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
            let loaded =
                ebpf_vm::program::load(prog.clone(), &HashMap::new(), &dp.helpers).expect("endpoint program");
            loaded.set_exec_tier(tier);
            dp.add_local_sid(Ipv6Prefix::host(endpoint_sid()), Seg6LocalAction::EndBpf { prog: loaded });
            let pool = srv6_pool();
            group.throughput(Throughput::Elements(POOL as u64));
            group.bench_function(format!("{name}_dp_{}", tier.name()), |b| {
                b.iter(|| {
                    let forwarded = run_per_packet(&mut dp, &pool);
                    assert_eq!(forwarded, POOL as u64, "{name} dropped packets");
                    forwarded
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_speedup,
    bench_worker_scaling,
    bench_worker_pool,
    bench_ring_ingest,
    bench_tenant_scaling,
    bench_fib_scale,
    bench_srv6d_io,
    bench_jit_speedup
);
criterion_main!(benches);
