//! Lock-free single-producer/single-consumer descriptor rings.
//!
//! The worker pool's ingestion path is one dispatcher thread feeding N
//! worker shards — N independent SPSC channels. `std::sync::mpsc`'s
//! bounded `sync_channel` serves that shape, but generically: every
//! descriptor is its own synchronised rendezvous with the channel's
//! shared slot state (per-send atomic RMWs, blocking-path bookkeeping,
//! MPSC generality the pool never uses — and on the *unbounded* flavour,
//! a heap node per message). This module replaces it with the structure
//! every kernel-bypass datapath (DPDK `rte_ring` in SP/SC mode,
//! io_uring's SQ/CQ pair, virtio vrings) uses instead:
//!
//! * a power-of-two slot array indexed by free-running positions, so
//!   wrap-around is a bit-mask and full/empty are subtractions;
//! * a producer-owned *tail* and a consumer-owned *head*, each on its own
//!   cache line so the two sides never false-share;
//! * **burst** operations: [`Producer::enqueue_burst`] writes a whole
//!   staging buffer of descriptors and publishes them with a *single*
//!   release store of the tail; [`Consumer::dequeue_burst`] mirrors it on
//!   the read side, and [`Consumer::dequeue_with`] hands the burst to a
//!   closure instead of a vector, so a consumer that sorts descriptors as
//!   they arrive moves each one once. Handing off a 32-packet batch costs
//!   one atomic round-trip instead of 32 lock acquisitions;
//! * cached peer positions: the producer re-reads the consumer's head
//!   (and vice versa) only when its cached copy says the ring might be
//!   full (empty), so the steady state touches the shared cache line a
//!   handful of times per burst, not per descriptor.
//!
//! The ring moves owned values and never allocates after construction —
//! it is the transport under the pool's zero-allocation ingestion gate.
//! Capacity rounds **up** to the next power of two ([`Producer::capacity`]
//! reports the effective value) and the boundary is exact: a ring holds
//! exactly `capacity` in-flight descriptors, the `capacity + 1`-th push
//! fails, and one pop makes room for exactly one more.
//!
//! # Safety model
//!
//! The unsafe code is confined to slot reads/writes and is sound because
//! the types enforce the SPSC discipline statically: [`Producer`] and
//! [`Consumer`] are unique (non-`Clone`) handles, every mutating method
//! takes `&mut self`, and slot positions are partitioned by the two
//! indices — the producer only writes slots in `[tail, head + capacity)`
//! (free space), the consumer only reads slots in `[head, tail)`
//! (published), and each side learns the other's index through an
//! acquire/release pair that makes the slot contents visible before the
//! index movement that exposes them. The two-thread stress test
//! (`tests/ring_stress.rs`) hammers this with randomized burst sizes over
//! millions of descriptors.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads-and-aligns a value to a cache line, so the producer's tail and the
/// consumer's head never share one (128 bytes covers the adjacent-line
/// prefetcher on x86 as well).
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// The slot array and indices shared by the two endpoints.
struct Shared<T> {
    /// `capacity` slots, each holding a descriptor between the moment the
    /// producer writes it and the moment the consumer reads it out.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `capacity - 1`; slot of position `p` is `p & mask`.
    mask: usize,
    /// Consumer position: the next slot to read. Slots before it are free.
    head: CachePadded<AtomicUsize>,
    /// Producer position: the next slot to write. Slots before it (back to
    /// `head`) are published.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the `UnsafeCell` slots are the only non-Sync state; they are
// accessed only through the unique `Producer`/`Consumer` endpoints under
// the index discipline described in the module docs, which hands each slot
// to exactly one thread at a time (with acquire/release edges at every
// handover). Descriptors cross threads, hence `T: Send`.
unsafe impl<T: Send> Sync for Shared<T> {}
unsafe impl<T: Send> Send for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both endpoints are gone (`Arc`), so the atomics hold the final
        // positions; everything still in flight must be dropped here.
        let mut head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while head != tail {
            // SAFETY: positions in `[head, tail)` were written by the
            // producer and never consumed.
            unsafe { self.slots[head & self.mask].get_mut().assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// The write endpoint of an SPSC ring. Unique: it cannot be cloned, and
/// every operation takes `&mut self`.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Local copy of the published tail (only this side moves it).
    tail: usize,
    /// Last observed consumer head; refreshed only when the ring looks
    /// full, so the steady state stays off the consumer's cache line.
    head_cache: usize,
}

/// The read endpoint of an SPSC ring. Unique, like [`Producer`].
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Local copy of the published head (only this side moves it).
    head: usize,
    /// Last observed producer tail; refreshed when the ring looks empty.
    tail_cache: usize,
}

/// Creates an SPSC ring holding up to `capacity` descriptors, **rounded up
/// to the next power of two** (minimum 1). The two returned endpoints are
/// the only handles; send one to another thread to form the channel.
pub fn spsc_ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(1).next_power_of_two();
    let slots: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..capacity).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let shared = Arc::new(Shared {
        slots,
        mask: capacity - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer { shared: Arc::clone(&shared), tail: 0, head_cache: 0 },
        Consumer { shared, head: 0, tail_cache: 0 },
    )
}

impl<T> Producer<T> {
    /// Effective ring capacity (the configured one rounded up to a power
    /// of two): the exact number of descriptors that can be in flight.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Free slots right now (refreshes the cached consumer position).
    pub fn free_slots(&mut self) -> usize {
        self.head_cache = self.shared.head.0.load(Ordering::Acquire);
        self.capacity() - self.tail.wrapping_sub(self.head_cache)
    }

    /// Pushes one descriptor and publishes it immediately. Returns the
    /// descriptor back when the ring is full — the caller owns the
    /// rejection (the pool counts it as backpressure).
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        let cap = self.capacity();
        if self.tail.wrapping_sub(self.head_cache) == cap {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) == cap {
                return Err(item);
            }
        }
        // SAFETY: the ring is not full, so slot `tail & mask` is outside
        // `[head, tail)` — the consumer will not touch it until the
        // release store below publishes it.
        unsafe { (*self.shared.slots[self.tail & self.shared.mask].get()).write(item) };
        self.tail = self.tail.wrapping_add(1);
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Moves the longest prefix of `staging` that fits into the ring and
    /// publishes the whole burst with **one** release store. Returns how
    /// many descriptors were accepted; the rejected remainder stays in
    /// `staging` (shifted to the front), owned by the caller.
    pub fn enqueue_burst(&mut self, staging: &mut Vec<T>) -> usize {
        let cap = self.capacity();
        let mut free = cap - self.tail.wrapping_sub(self.head_cache);
        if free < staging.len() {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            free = cap - self.tail.wrapping_sub(self.head_cache);
        }
        let n = free.min(staging.len());
        if n == 0 {
            return 0;
        }
        let mut pos = self.tail;
        for item in staging.drain(..n) {
            // SAFETY: `n` positions starting at `tail` are free (see
            // `try_push`); none is visible to the consumer until the
            // single release store after the loop.
            unsafe { (*self.shared.slots[pos & self.shared.mask].get()).write(item) };
            pos = pos.wrapping_add(1);
        }
        self.tail = pos;
        self.shared.tail.0.store(self.tail, Ordering::Release);
        n
    }
}

impl<T> Consumer<T> {
    /// Effective ring capacity, as on the producer side.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Whether the ring is empty right now (refreshes the cached producer
    /// position).
    pub fn is_empty(&mut self) -> bool {
        self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        self.tail_cache == self.head
    }

    /// Descriptors available right now (refreshes the cached position).
    pub fn len(&mut self) -> usize {
        self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        self.tail_cache.wrapping_sub(self.head)
    }

    /// Pops one descriptor, if any is published.
    pub fn try_pop(&mut self) -> Option<T> {
        if self.tail_cache == self.head {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            if self.tail_cache == self.head {
                return None;
            }
        }
        // SAFETY: `head < tail_cache ≤` the published tail, so this slot
        // holds a descriptor the producer published (acquire-ordered) and
        // will not rewrite until the release store of `head` below.
        let item = unsafe { (*self.shared.slots[self.head & self.shared.mask].get()).assume_init_read() };
        self.head = self.head.wrapping_add(1);
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Appends up to `max` published descriptors to `out`, in FIFO order,
    /// releasing all the consumed slots back to the producer with **one**
    /// store. Returns how many were moved.
    pub fn dequeue_burst(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.dequeue_with(max, |item| out.push(item))
    }

    /// Hands up to `max` published descriptors to `sink`, in FIFO order —
    /// [`Consumer::dequeue_burst`] without the intermediate vector, for a
    /// consumer that sorts descriptors straight into their destination.
    /// The consumed slots are released with **one** store when the burst
    /// ends. Returns how many were moved.
    pub fn dequeue_with(&mut self, max: usize, mut sink: impl FnMut(T)) -> usize {
        let mut avail = self.tail_cache.wrapping_sub(self.head);
        if avail < max {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            avail = self.tail_cache.wrapping_sub(self.head);
        }
        let n = avail.min(max);
        if n == 0 {
            return 0;
        }
        // Releases the consumed slots on the way out — also when `sink`
        // unwinds, so a descriptor already read out is never dropped a
        // second time with the ring.
        struct Release<'a, T>(&'a mut Consumer<T>);
        impl<T> Drop for Release<'_, T> {
            fn drop(&mut self) {
                self.0.shared.head.0.store(self.0.head, Ordering::Release);
            }
        }
        let burst = Release(self);
        for _ in 0..n {
            let ring = &mut *burst.0;
            // SAFETY: as in `try_pop`; each slot in the burst was
            // published by the producer and is released back only by the
            // single head store when `burst` drops, after `head` has
            // moved past every slot read.
            let item = unsafe { (*ring.shared.slots[ring.head & ring.shared.mask].get()).assume_init_read() };
            ring.head = ring.head.wrapping_add(1);
            sink(item);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_the_next_power_of_two() {
        for (requested, effective) in [(1, 1), (2, 2), (3, 4), (5, 8), (1000, 1024), (1024, 1024)] {
            let (tx, rx) = spsc_ring::<u64>(requested);
            assert_eq!(tx.capacity(), effective, "requested {requested}");
            assert_eq!(rx.capacity(), effective);
        }
        let (tx, _rx) = spsc_ring::<u64>(0);
        assert_eq!(tx.capacity(), 1);
    }

    /// The queue-depth boundary satellite: a ring filled to *exactly* its
    /// capacity accepts every descriptor, rejects precisely the next one,
    /// and reopens one slot per pop — accounting at the boundary is exact.
    #[test]
    fn fill_to_exact_capacity_then_reject() {
        let (mut tx, mut rx) = spsc_ring::<u64>(5); // rounds up to 8
        let cap = tx.capacity();
        assert_eq!(cap, 8);
        for i in 0..cap as u64 {
            assert!(tx.try_push(i).is_ok(), "descriptor {i} of exactly capacity must fit");
        }
        assert_eq!(tx.try_push(99), Err(99), "capacity + 1 must be rejected");
        assert_eq!(tx.free_slots(), 0);
        // One pop frees exactly one slot.
        assert_eq!(rx.try_pop(), Some(0));
        assert!(tx.try_push(100).is_ok());
        assert_eq!(tx.try_push(101), Err(101));
        // Burst accounting at the same boundary: nothing fits, nothing is
        // silently dropped.
        let mut staging = vec![7u64, 8, 9];
        assert_eq!(tx.enqueue_burst(&mut staging), 0);
        assert_eq!(staging, vec![7, 8, 9], "rejected burst stays with the caller");
        // Drain everything; FIFO order, nothing lost or duplicated.
        let mut out = Vec::new();
        while rx.try_pop().map(|v| out.push(v)).is_some() {}
        assert_eq!(out, (1..cap as u64).chain([100]).collect::<Vec<_>>());
    }

    #[test]
    fn burst_accepts_the_fitting_prefix_exactly() {
        let (mut tx, mut rx) = spsc_ring::<u64>(4);
        let mut staging: Vec<u64> = (0..7).collect();
        assert_eq!(tx.enqueue_burst(&mut staging), 4);
        assert_eq!(staging, vec![4, 5, 6], "remainder shifted to the front, in order");
        let mut out = Vec::new();
        assert_eq!(rx.dequeue_burst(&mut out, 64), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(tx.enqueue_burst(&mut staging), 3);
        assert!(staging.is_empty());
    }

    #[test]
    fn wrap_around_preserves_fifo_order() {
        let (mut tx, mut rx) = spsc_ring::<u64>(8);
        let mut expected = 0u64;
        let mut next = 0u64;
        let mut out = Vec::new();
        // Many epochs of staggered push/pop force the positions far past
        // the slot count, exercising the mask arithmetic.
        for round in 0..1000 {
            let burst = 1 + (round % 7) as usize;
            let mut staging: Vec<u64> = (next..next + burst as u64).collect();
            next += tx.enqueue_burst(&mut staging) as u64;
            out.clear();
            rx.dequeue_burst(&mut out, burst);
            for v in &out {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        while let Some(v) = rx.try_pop() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, next);
    }

    #[test]
    fn dropping_the_ring_drops_in_flight_descriptors() {
        let counter = Arc::new(());
        let (mut tx, mut rx) = spsc_ring::<Arc<()>>(8);
        for _ in 0..6 {
            tx.try_push(Arc::clone(&counter)).unwrap();
        }
        assert!(rx.try_pop().is_some());
        assert_eq!(Arc::strong_count(&counter), 6); // 1 local + 1 popped + 4 in flight...
        drop(rx.try_pop());
        assert_eq!(Arc::strong_count(&counter), 5);
        drop((tx, rx));
        assert_eq!(Arc::strong_count(&counter), 1, "in-flight descriptors leaked");
    }

    #[test]
    fn len_and_is_empty_track_occupancy() {
        let (mut tx, mut rx) = spsc_ring::<u8>(4);
        assert!(rx.is_empty());
        assert_eq!(rx.len(), 0);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert!(!rx.is_empty());
        assert_eq!(rx.len(), 2);
        rx.try_pop();
        assert_eq!(rx.len(), 1);
        assert_eq!(tx.free_slots(), 3);
    }

    /// The closure dequeue is `dequeue_burst` without the vector: the same
    /// items in the same order, `max` respected, the same slots released
    /// (the producer sees the same free space), across many wrap-arounds.
    #[test]
    fn dequeue_with_matches_dequeue_burst() {
        let (mut tx_a, mut rx_a) = spsc_ring::<u64>(8);
        let (mut tx_b, mut rx_b) = spsc_ring::<u64>(8);
        let mut next = 0u64;
        for round in 0..1000usize {
            let push = 1 + round % 7;
            let mut staging_a: Vec<u64> = (next..next + push as u64).collect();
            let mut staging_b = staging_a.clone();
            let sent = tx_a.enqueue_burst(&mut staging_a);
            assert_eq!(tx_b.enqueue_burst(&mut staging_b), sent);
            next += sent as u64;
            let max = round % 5; // includes 0: nothing may move
            let mut burst = Vec::new();
            let mut with = Vec::new();
            let moved = rx_a.dequeue_burst(&mut burst, max);
            assert_eq!(rx_b.dequeue_with(max, |item| with.push(item)), moved);
            assert!(moved <= max);
            assert_eq!(with, burst);
            assert_eq!(tx_b.free_slots(), tx_a.free_slots(), "round {round}: same slots released");
            assert_eq!(rx_b.len(), rx_a.len());
        }
        assert!(next > 8 * 100, "the positions wrapped the slot array many times");
    }

    /// A sink that unwinds mid-burst has consumed what it was handed: the
    /// slots read so far are released, the rest stay published, and
    /// nothing is dropped twice.
    #[test]
    fn dequeue_with_releases_what_a_panicking_sink_consumed() {
        let counter = Arc::new(());
        let (mut tx, mut rx) = spsc_ring::<Arc<()>>(8);
        for _ in 0..6 {
            tx.try_push(Arc::clone(&counter)).unwrap();
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut seen = 0;
            rx.dequeue_with(6, |item| {
                seen += 1;
                drop(item);
                assert!(seen < 2, "sink fails on its second descriptor");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(Arc::strong_count(&counter), 5, "two consumed and dropped, four in flight");
        assert_eq!(rx.len(), 4);
        assert_eq!(tx.free_slots(), 4);
        drop((tx, rx));
        assert_eq!(Arc::strong_count(&counter), 1);
    }
}
