//! Socket-path steady-state allocation gate: `MmsgTx::send_frames` and
//! `MmsgRx::fill` over a loopback pair allocate nothing once warm.
//!
//! Run with `cargo test -p srv6d --features alloc-counter`.
//! `daemon_zero_alloc` runs the daemon over the in-memory backend, so it
//! never reaches the kernel backend's reused arrays: the `mmsghdr` and
//! `iovec` arrays on both sides, the per-datagram control messages on
//! both sides, and the transmit side's group lengths. Mixed frame lengths
//! make the transmit side group runs into GSO datagrams and send
//! singletons, so every one of those arrays is armed on every burst. The
//! receive side takes each run as one GRO datagram, so the rounds also
//! cover a datagram that runs past its slot into the batch's spill and
//! datagrams that carry more frames than the batch has slots.

#![cfg(all(feature = "alloc-counter", target_os = "linux"))]

use netpkt::sockio::{FrameBatch, PacketRx, PacketTx};
use netpkt::{MmsgRx, MmsgTx};
use seg6_core::alloc_counter::{global_allocations, CountingAllocator};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Sends `frames` as one burst and reads them back through `batch`,
/// clearing it whenever it is full; every frame must arrive intact and
/// in order.
fn echo(tx: &mut MmsgTx, rx: &mut MmsgRx, batch: &mut FrameBatch, frames: &[&[u8]]) {
    assert_eq!(tx.send_frames(frames).expect("loopback send"), frames.len());
    batch.clear();
    let mut seen = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen < frames.len() {
        if rx.fill(batch).expect("loopback receive") == 0 {
            assert!(
                Instant::now() < deadline,
                "loopback lost frames: {}/{}",
                seen + batch.len(),
                frames.len()
            );
            std::thread::yield_now();
        }
        if batch.is_full() || seen + batch.len() >= frames.len() {
            assert!(
                batch.frames().zip(&frames[seen..]).all(|(got, sent)| got == *sent),
                "frames arrive intact"
            );
            seen += batch.len();
            batch.clear();
        }
    }
    assert_eq!(seen, frames.len(), "no frame arrives twice");
}

/// One frame per length, each filled with its index.
fn frames(lens: impl Iterator<Item = usize>) -> Vec<Vec<u8>> {
    lens.enumerate().map(|(i, len)| vec![i as u8; len]).collect()
}

fn refs(frames: &[Vec<u8>]) -> Vec<&[u8]> {
    frames.iter().map(Vec::as_slice).collect()
}

#[test]
fn mmsg_send_and_fill_do_not_allocate_once_warm() {
    const BURST: usize = 128;
    const MEASURED_ROUNDS: usize = 32;
    let mut rx = MmsgRx::bind("[::1]:0").expect("bind loopback");
    let mut tx = MmsgTx::connect(rx.local_addr().expect("bound address")).expect("connect loopback");
    // The daemon's own output lengths per tenant window (152, 152, 112,
    // 112), plus a longer frame that restarts a run.
    let mixed = frames((0..BURST).map(|i| [152, 152, 112, 112, 176][i % 5]));
    // One 56 000 B datagram: it runs past its 2 KiB slot into the spill,
    // and one frame straddles the two.
    let spilling = frames(std::iter::repeat_n(1400, 40));
    // Two datagrams of 64 and 30 frames into a batch of four slots.
    let dense = frames(std::iter::repeat_n(152, 64).chain(std::iter::repeat_n(112, 30)));
    let (mixed, spilling, dense) = (refs(&mixed), refs(&spilling), refs(&dense));
    let mut batch = FrameBatch::new(BURST, 2048);
    let mut small = FrameBatch::new(4, 2048);

    let round = |tx: &mut MmsgTx, rx: &mut MmsgRx, batch: &mut FrameBatch, small: &mut FrameBatch| {
        echo(tx, rx, batch, &mixed);
        echo(tx, rx, small, &spilling);
        echo(tx, rx, small, &dense);
    };

    // Warmup sizes every reused array on both sides.
    for _ in 0..3 {
        round(&mut tx, &mut rx, &mut batch, &mut small);
    }
    let (datagrams, frames_before) = (rx.datagrams(), 3 * (mixed.len() + spilling.len() + dense.len()));
    let before = global_allocations();
    for _ in 0..MEASURED_ROUNDS {
        round(&mut tx, &mut rx, &mut batch, &mut small);
    }
    let allocations = global_allocations() - before;
    assert_eq!(
        allocations, 0,
        "{MEASURED_ROUNDS} rounds of send_frames + fill ({BURST} mixed, 40 spilling, 94 dense frames) \
         allocated {allocations} times"
    );
    assert_eq!(rx.truncated(), 0);
    if rx.gro() {
        assert!(datagrams < frames_before as u64, "runs were coalesced on receive");
    }
}
