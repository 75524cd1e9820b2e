//! Differential backend test: the same traffic profile pushed through
//! the in-memory fabric and through the kernel backend
//! (`recvmmsg`/`sendmmsg`) must leave the
//! daemon in the same state — identical verdict counters, identical
//! socket I/O totals, the identical multiset of emitted frames, and a
//! mint-flat buffer arena after warmup on both. The backends differ only
//! in how bytes cross the kernel boundary; any divergence here is a
//! backend bug, not a datapath one. The kernel run also holds the
//! daemon's syscall count to the bound its code allows per service pass.

use netpkt::packet::build_ipv6_udp_packet;
use netpkt::sockio::{FrameBatch, PacketRx};
use netpkt::MmsgRx;
use srv6d::{resolve_backend, Config, IoBackend, IoBackendChoice, MemBackend, Srv6Daemon};
use std::net::Ipv6Addr;
use std::time::{Duration, Instant};

/// Frames per pass; two passes run (warmup + measured).
const FRAMES: usize = 256;
/// Of each pass, frames minted with hop limit 0 — dropped at forward.
const EXPIRED_PER_PASS: usize = FRAMES / 4;
const FORWARDED_PER_PASS: usize = FRAMES - EXPIRED_PER_PASS;
/// The config's `workers = 1`: one RX queue for the single tenant.
const RX_QUEUES: u64 = 1;
/// One tenant, one `peer`: at most one (tenant, oif) TX group per flush.
const TX_GROUPS: u64 = 1;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// Payload lengths, cycled. The TX side sends each run of equal-length
/// frames (closed by at most one shorter frame) as one GSO datagram, so
/// mixed lengths make runs end, close and restart. Five lengths against
/// the every-fourth expired frame vary which length goes missing.
const PAYLOADS: [usize; 5] = [32, 32, 24, 48, 48];

/// The shared traffic profile: 3 forwardable frames (hop limit 64) to
/// every 1 already-expired frame (hop limit 0, dropped at forward).
fn traffic() -> Vec<Vec<u8>> {
    (0..FRAMES as u32)
        .map(|flow| {
            let hops = if flow % 4 == 3 { 0 } else { 64 };
            build_ipv6_udp_packet(
                addr(&format!("2001:db8::{:x}", flow + 1)),
                addr("2001:db8:f::1"),
                (1024 + flow % 40_000) as u16,
                5001,
                &[0u8; 48][..PAYLOADS[flow as usize % PAYLOADS.len()]],
                hops,
            )
            .data()
            .to_vec()
        })
        .collect()
}

/// Everything one backend run leaves behind, normalised for comparison.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    enqueued: u64,
    rejected: u64,
    processed: u64,
    forwarded: u64,
    local_delivered: u64,
    dropped: u64,
    rx_frames: u64,
    tx_frames: u64,
    tx_drops: u64,
    /// Every frame that came out of the egress, sorted — forwarding is
    /// deterministic, so the emitted bytes must match across backends.
    egress: Vec<Vec<u8>>,
    /// Arena mints during the measured (second) pass — must be zero.
    minted_in_pass_two: u64,
}

fn daemon_config(listen_port: u16, peer_port: u16) -> Config {
    Config::parse(&format!(
        "[daemon]\nworkers = 1\nbatch-size = 32\nqueue-depth = 2048\nrx-burst = 64\n\
         [tenant edge]\nlocal = fc00::1\nlisten = [::1]:{listen_port}\npeer = 1 [::1]:{peer_port}\n\
         route = ::/0 dev 1"
    ))
    .expect("valid config")
}

fn outcome_of(daemon: Srv6Daemon, mut egress: Vec<Vec<u8>>, minted_in_pass_two: u64) -> Outcome {
    let totals = daemon.pool().counters().snapshot().tenants[0].totals();
    let report = daemon.drain();
    let io = &report.tenants[0];
    egress.sort();
    Outcome {
        enqueued: totals.enqueued,
        rejected: totals.rejected,
        processed: totals.processed,
        forwarded: totals.forwarded,
        local_delivered: totals.local_delivered,
        dropped: totals.total_dropped(),
        rx_frames: io.rx_frames,
        tx_frames: io.tx_frames,
        tx_drops: io.tx_drops,
        egress,
        minted_in_pass_two,
    }
}

/// Runs both passes over the in-memory fabric.
fn run_mem(frames: &[Vec<u8>]) -> Outcome {
    let mem = MemBackend::new(4 * FRAMES);
    let mut daemon = Srv6Daemon::start(daemon_config(46000, 46100), Box::new(mem.clone())).expect("starts");
    let mut egress = Vec::new();
    let mut batch = FrameBatch::new(FRAMES, 2048);
    let mut minted_in_pass_two = 0;
    for pass in 0..2 {
        let minted_before = daemon.pool().buf_pool().allocations();
        for frame in frames {
            assert!(mem.inject("edge", 0, frame), "mem link backpressured");
        }
        let target = (pass + 1) as u64 * FRAMES as u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.pool().counters().snapshot().tenants[0].totals().processed < target {
            daemon.service();
            batch.clear();
            let got = mem.drain_egress("edge", 1, &mut batch);
            egress.extend(batch.frames().take(got).map(<[u8]>::to_vec));
            assert!(Instant::now() < deadline, "mem backend stalled");
        }
        loop {
            batch.clear();
            let got = mem.drain_egress("edge", 1, &mut batch);
            if got == 0 {
                break;
            }
            egress.extend(batch.frames().take(got).map(<[u8]>::to_vec));
        }
        if pass == 1 {
            minted_in_pass_two = daemon.pool().buf_pool().allocations() - minted_before;
        }
    }
    outcome_of(daemon, egress, minted_in_pass_two)
}

/// `service()` passes made during a kernel run, and the syscalls they cost.
#[derive(Debug, Default)]
struct SyscallTally {
    passes: u64,
    /// Passes that read at least one frame — the only ones that flush and
    /// emit.
    passes_that_read: u64,
    syscalls: u64,
}

impl SyscallTally {
    fn service(&mut self, daemon: &mut Srv6Daemon) {
        self.passes += 1;
        if daemon.service().rx_frames > 0 {
            self.passes_that_read += 1;
        }
    }

    /// The most syscalls the batched backend may issue for these passes,
    /// read off the code:
    /// * `MmsgRx::fill` makes one `recvmmsg` per RX queue per pass: a
    ///   short read means the queue is drained, a full one fills the
    ///   batch, `EAGAIN` means it was empty — each returns.
    /// * `emit_outputs` runs only on a pass that read something and calls
    ///   `send_frames` once per (tenant, oif) group; `MmsgTx::send_frames`
    ///   is one `sendmmsg` plus one per resume after a partial send. This
    ///   run cannot hit a partial send: loopback UDP orphans each skb at
    ///   transmit, so the send buffer never fills (netpkt's partial-send
    ///   test needs a Unix socketpair for exactly that reason), and the
    ///   resume term is dropped. Nor can loopback's 64 KiB MTU refuse a
    ///   GSO datagram, so no frame-by-frame resend happens either: GSO
    ///   cuts datagrams, not syscalls.
    ///
    /// A per-datagram transport pays one syscall per frame each way plus
    /// an `EAGAIN` per drain, far above this.
    fn bound(&self) -> u64 {
        RX_QUEUES * self.passes + TX_GROUPS * self.passes_that_read
    }
}

/// Runs both passes over the kernel backend: frames go in through a real
/// loopback sender, come back out on a capture socket bound to the
/// tenant's peer address.
fn run_socket(
    backend: Box<dyn IoBackend>,
    listen_port: u16,
    peer_port: u16,
    frames: &[Vec<u8>],
) -> (Outcome, SyscallTally) {
    // The capture socket must exist before the daemon connects to it.
    let mut capture = MmsgRx::bind(format!("[::1]:{peer_port}")).expect("bind capture");
    let mut daemon = Srv6Daemon::start(daemon_config(listen_port, peer_port), backend).expect("starts");
    let sender = std::net::UdpSocket::bind("[::1]:0").expect("bind sender");
    let dest = format!("[::1]:{listen_port}");
    let mut egress = Vec::new();
    let mut batch = FrameBatch::new(FRAMES, 2048);
    let mut minted_in_pass_two = 0;
    let mut tally = SyscallTally::default();
    for pass in 0..2 {
        let minted_before = daemon.pool().buf_pool().allocations();
        // Small chunks keep the kernel socket buffers shallow, so the
        // run is lossless without tuning.
        for chunk in frames.chunks(32) {
            for frame in chunk {
                sender.send_to(frame, &dest).expect("loopback send");
            }
            tally.service(&mut daemon);
            batch.clear();
            let got = capture.fill(&mut batch).unwrap_or(0);
            egress.extend(batch.frames().take(got).map(<[u8]>::to_vec));
        }
        // Service until the whole pass is processed and captured.
        let target_processed = (pass + 1) as u64 * FRAMES as u64;
        let target_egress = (pass + 1) * FORWARDED_PER_PASS;
        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.pool().counters().snapshot().tenants[0].totals().processed < target_processed
            || egress.len() < target_egress
        {
            tally.service(&mut daemon);
            batch.clear();
            let got = capture.fill(&mut batch).unwrap_or(0);
            egress.extend(batch.frames().take(got).map(<[u8]>::to_vec));
            assert!(
                Instant::now() < deadline,
                "socket backend stalled: processed {}, captured {}",
                daemon.pool().counters().snapshot().tenants[0].totals().processed,
                egress.len()
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        if pass == 1 {
            minted_in_pass_two = daemon.pool().buf_pool().allocations() - minted_before;
        }
    }
    tally.syscalls = daemon.io_syscalls();
    (outcome_of(daemon, egress, minted_in_pass_two), tally)
}

#[test]
fn all_backends_reach_the_same_state_on_the_same_traffic() {
    let frames = traffic();
    let mem = run_mem(&frames);

    // Sanity on the reference outcome before differencing against it.
    assert_eq!(mem.processed, 2 * FRAMES as u64);
    assert_eq!(mem.forwarded, 2 * FORWARDED_PER_PASS as u64);
    assert_eq!(mem.dropped, 2 * EXPIRED_PER_PASS as u64);
    assert_eq!(mem.rejected, 0);
    assert_eq!(mem.tx_drops, 0);
    assert_eq!(mem.egress.len(), 2 * FORWARDED_PER_PASS);
    assert_eq!(mem.minted_in_pass_two, 0, "steady-state pass minted arena buffers");

    let (backend, name) = resolve_backend(IoBackendChoice::Mmsg).expect("the kernel backend");
    let (kernel, tally) = run_socket(backend, 46400, 46500, &frames);
    assert_eq!(kernel, mem, "{name} backend diverged from the in-memory reference");
    assert!(
        tally.syscalls <= tally.bound(),
        "{name} exceeded the {} syscalls its code allows: {tally:?}",
        tally.bound()
    );
}
