//! Two-thread stress of the perf-event rings: one thread writes records
//! the way a worker shard's `bpf_perf_event_output` does; another drains
//! them the way a shard's daemon does, reading each record in place. Per
//! ring, every record written is either drained, once and in order, or
//! refused and counted lost: pushed = drained + refused, exactly.
//!
//! The two race freely, except that every round ends with the drainer
//! held at a barrier while the writer overfills each ring, so refusals
//! happen whatever the scheduler does.
//!
//! CI runs it in release, where reordering bugs are likeliest:
//! `cargo test -q --release -p ebpf-vm --test perf_stress`.

use ebpf_vm::perf::{PerfEventBuffer, PERF_RECORD_MAX};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

const RINGS: u32 = 2;
const CAPACITY: usize = 64;
const ROUNDS: u64 = 200;
/// Records per ring per round written while the drainer runs.
const RACED: u64 = 4_000;
/// Records per ring per round written while the drainer waits: the ring
/// takes at most `CAPACITY` of them.
const FORCED: u64 = CAPACITY as u64 + 16;
const RECORDS_PER_RING: u64 = ROUNDS * (RACED + FORCED);

/// Record `seq`: its sequence number, then `seq`'s low byte up to a length
/// that cycles through every size a slot holds past the number.
fn record(seq: u64, out: &mut [u8]) {
    out[..8].copy_from_slice(&seq.to_le_bytes());
    out[8..].fill(seq as u8);
}

fn record_len(seq: u64) -> usize {
    8 + (seq % (PERF_RECORD_MAX as u64 - 7)) as usize
}

#[test]
fn a_writer_and_a_drainer_account_for_every_record_per_ring() {
    let buffer = PerfEventBuffer::with_rings(CAPACITY, RINGS);
    // The writer raises `hold` and meets the drainer at `barrier` twice:
    // once the drainer has stopped, and once the overfill is done.
    let hold = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(2);

    let (refused, drained) = thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut refused = [0u64; RINGS as usize];
            let mut write = |seq: u64| {
                for cpu in 0..RINGS {
                    let queued = buffer.output(cpu, record_len(seq), |slot| {
                        record(seq, slot);
                        true
                    });
                    refused[cpu as usize] += u64::from(!queued);
                }
            };
            let mut seq = 0;
            for _ in 0..ROUNDS {
                for _ in 0..RACED {
                    write(seq);
                    seq += 1;
                }
                hold.store(true, Ordering::SeqCst);
                barrier.wait();
                for _ in 0..FORCED {
                    write(seq);
                    seq += 1;
                }
                hold.store(false, Ordering::SeqCst);
                barrier.wait();
            }
            done.store(true, Ordering::SeqCst);
            refused
        });

        let drainer = scope.spawn(|| {
            let mut drained = [0u64; RINGS as usize];
            let mut next = [0u64; RINGS as usize];
            loop {
                let finished = done.load(Ordering::SeqCst);
                for cpu in 0..RINGS {
                    let ring = cpu as usize;
                    drained[ring] += buffer.drain_cpu_with(cpu, |data| {
                        let seq = u64::from_le_bytes(data[..8].try_into().expect("an 8-byte header"));
                        assert!(seq >= next[ring], "ring {cpu}: record {seq} after {}", next[ring]);
                        assert_eq!(data.len(), record_len(seq), "ring {cpu}: record {seq}'s length");
                        assert!(data[8..].iter().all(|&b| b == seq as u8), "ring {cpu}: record {seq} torn");
                        next[ring] = seq + 1;
                    }) as u64;
                }
                if finished {
                    // The writer finished before this pass began: the
                    // pass took everything.
                    return drained;
                }
                if hold.load(Ordering::SeqCst) {
                    barrier.wait();
                    barrier.wait();
                }
            }
        });
        (writer.join().expect("writer"), drainer.join().expect("drainer"))
    });

    for cpu in 0..RINGS {
        let ring = cpu as usize;
        assert_eq!(
            RECORDS_PER_RING,
            drained[ring] + refused[ring],
            "ring {cpu}: {} drained + {} refused",
            drained[ring],
            refused[ring]
        );
        assert_eq!(buffer.total_pushed_cpu(cpu), RECORDS_PER_RING);
        assert_eq!(buffer.dropped_cpu(cpu), refused[ring]);
        assert!(refused[ring] >= ROUNDS * (FORCED - CAPACITY as u64), "ring {cpu}: too few refusals");
        assert!(drained[ring] > 0, "ring {cpu}: nothing drained");
    }
    assert!(buffer.is_empty());
}
