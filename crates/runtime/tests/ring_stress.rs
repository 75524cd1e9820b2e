//! Two-thread stress test of the lock-free SPSC ring: a real producer
//! thread and a real consumer thread move millions of descriptors through
//! a small ring with randomized burst sizes, proving no descriptor is
//! lost, duplicated, or reordered — the soundness claim of the `ring`
//! module's unsafe slot accesses, checked empirically under genuine
//! concurrency and constant wrap-around.

use seg6_runtime::ring::spsc_ring;
use std::thread;

/// Deterministic xorshift64* — no external RNG dependency, same schedule
/// every run (the *thread interleaving* provides the nondeterminism the
/// test is after).
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

/// Drives `total` sequence-numbered descriptors through a ring of
/// `capacity` slots, with bursts of up to `max_burst`. The consumer opens a
/// window per burst, takes its descriptors in a random order — handing the
/// taken prefix back to the producer at random points, while the producer
/// keeps refilling — and asserts that, put back at their window offsets,
/// they are exactly `0..total` in order.
fn stress(total: u64, capacity: usize, max_burst: usize, seed: u64) {
    let (mut tx, mut rx) = spsc_ring::<u64>(capacity);
    let producer = thread::spawn(move || {
        let mut rng = Rng(seed | 1);
        let mut staging: Vec<u64> = Vec::with_capacity(max_burst);
        let mut next = 0u64;
        let mut publishes = 0u64;
        while next < total || !staging.is_empty() {
            let burst = 1 + (rng.next() as usize % max_burst);
            while staging.len() < burst && next < total {
                staging.push(next);
                next += 1;
            }
            let sent = tx.enqueue_burst(&mut staging);
            if sent == 0 {
                // Ring full: let the consumer run. (The pool parks here;
                // the stress test just yields to keep the pressure up.)
                thread::yield_now();
            } else {
                publishes += 1;
            }
        }
        publishes
    });
    let consumer = thread::spawn(move || {
        let mut rng = Rng(seed.wrapping_mul(31) | 1);
        let mut out: Vec<u64> = Vec::with_capacity(max_burst);
        let mut order: Vec<usize> = Vec::with_capacity(max_burst);
        let mut expected = 0u64;
        let mut empty_polls = 0u64;
        while expected < total {
            let burst = 1 + (rng.next() as usize % max_burst);
            let mut window = rx.window(burst);
            let moved = window.len();
            // A random order of the window's offsets (Fisher-Yates).
            order.clear();
            order.extend(0..moved);
            for i in (1..moved).rev() {
                order.swap(i, rng.next() as usize % (i + 1));
            }
            out.clear();
            for &offset in &order {
                window.take_onto(offset, &mut out);
                if rng.next().is_multiple_of(4) {
                    window.release_taken();
                }
            }
            drop(window);
            if moved == 0 {
                empty_polls += 1;
                if empty_polls.is_multiple_of(64) {
                    thread::yield_now();
                }
                continue;
            }
            // `out` holds the window in take order: the descriptor taken
            // `k`-th is the one at offset `order[k]`.
            for (&offset, &v) in order.iter().zip(&out) {
                assert_eq!(v, expected + offset as u64, "descriptor lost, duplicated or reordered");
            }
            assert_eq!(out.len(), moved);
            expected += moved as u64;
        }
        assert!(rx.is_empty(), "descriptors left behind after the full sequence");
        expected
    });
    let publishes = producer.join().expect("producer thread");
    let received = consumer.join().expect("consumer thread");
    assert_eq!(received, total);
    assert!(publishes <= total, "each publish moved at least one descriptor");
}

/// The headline run: millions of descriptors through a 256-slot ring —
/// thousands of full wrap-arounds — with bursts up to 64 on both sides.
#[test]
fn two_thread_stress_millions_of_descriptors_fifo_no_loss() {
    stress(3_000_000, 256, 64, 0x5eed_cafe);
}

/// A tiny ring maximises full/empty boundary transitions: every slot
/// handover exercises the capacity check and the cached-index refresh.
#[test]
fn two_thread_stress_tiny_ring() {
    stress(500_000, 2, 8, 0x0dd_ba11);
}

/// Single-descriptor pushes against bursty consumption (and vice versa is
/// covered above): the mixed-mode path the pool's per-packet `enqueue`
/// takes while a worker drains in bursts.
#[test]
fn two_thread_stress_single_push_burst_pop() {
    let (mut tx, mut rx) = spsc_ring::<u64>(64);
    const TOTAL: u64 = 1_000_000;
    let producer = thread::spawn(move || {
        let mut next = 0u64;
        while next < TOTAL {
            match tx.try_push(next) {
                Ok(()) => next += 1,
                Err(_) => thread::yield_now(),
            }
        }
    });
    let consumer = thread::spawn(move || {
        let mut expected = 0u64;
        let mut out: Vec<u64> = Vec::with_capacity(128);
        while expected < TOTAL {
            // Taken in FIFO order, each slot handed back as soon as its
            // descriptor left it.
            let mut window = rx.window(128);
            if window.is_empty() {
                drop(window);
                thread::yield_now();
                continue;
            }
            for offset in 0..window.len() {
                window.take_onto(offset, &mut out);
                window.release_taken();
            }
            for v in out.drain(..) {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
    });
    producer.join().expect("producer thread");
    consumer.join().expect("consumer thread");
}
