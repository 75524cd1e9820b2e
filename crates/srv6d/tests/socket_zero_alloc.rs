//! Socket-path steady-state allocation gate: `MmsgTx::send_frames` and
//! `MmsgRx::fill` over a loopback pair allocate nothing once warm.
//!
//! Run with `cargo test -p srv6d --features alloc-counter`.
//! `daemon_zero_alloc` runs the daemon over the in-memory backend, so it
//! never reaches the kernel backend's reused arrays: the `mmsghdr` and
//! `iovec` arrays on both sides, and the transmit side's per-datagram
//! control messages and group lengths. Mixed frame lengths make the
//! transmit side group runs into GSO datagrams and send singletons, so
//! every one of those arrays is armed on every burst.

#![cfg(feature = "alloc-counter")]

use netpkt::sockio::{FrameBatch, PacketRx, PacketTx};
use netpkt::{MmsgRx, MmsgTx};
use seg6_core::alloc_counter::{global_allocations, CountingAllocator};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn mmsg_send_and_fill_do_not_allocate_once_warm() {
    const BURST: usize = 128;
    const MEASURED_ROUNDS: usize = 32;
    if !netpkt::sockio::mmsg::supported() {
        return;
    }
    let mut rx = MmsgRx::bind("[::1]:0").expect("bind loopback");
    let mut tx = MmsgTx::connect(rx.local_addr().expect("bound address")).expect("connect loopback");
    // The daemon's own output lengths per tenant window (152, 152, 112,
    // 112), plus a longer frame that restarts a run.
    let frames: Vec<Vec<u8>> = (0..BURST).map(|i| vec![i as u8; [152, 152, 112, 112, 176][i % 5]]).collect();
    let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let mut batch = FrameBatch::new(BURST, 2048);

    let round = |tx: &mut MmsgTx, rx: &mut MmsgRx, batch: &mut FrameBatch| {
        assert_eq!(tx.send_frames(&refs).expect("loopback send"), BURST);
        batch.clear();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !batch.is_full() {
            if rx.fill(batch).expect("loopback receive") == 0 {
                assert!(Instant::now() < deadline, "loopback lost frames: {}/{BURST}", batch.len());
                std::thread::yield_now();
            }
        }
    };

    // Warmup sizes every reused array on both sides.
    for _ in 0..3 {
        round(&mut tx, &mut rx, &mut batch);
    }
    let before = global_allocations();
    for _ in 0..MEASURED_ROUNDS {
        round(&mut tx, &mut rx, &mut batch);
    }
    let allocations = global_allocations() - before;
    assert_eq!(
        allocations, 0,
        "{MEASURED_ROUNDS} rounds of {BURST}-frame send_frames + fill allocated {allocations} times"
    );
    assert!(batch.frames().zip(&frames).all(|(got, sent)| got == &sent[..]), "frames arrive intact");
    assert_eq!(rx.truncated(), 0);
}
