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
//!   release store of the tail. On the read side, [`Consumer::window`]
//!   opens a burst of published descriptors *in place* (DPDK's zero-copy
//!   dequeue, `rte_ring_dequeue_zc_burst_start`/`_finish`): the consumer
//!   looks at each one where it lies, moves each — in any order — straight
//!   from its slot onto the end of the vector it is going to with
//!   [`Window::take_onto`] (one copy of its bytes, slot to vector, never
//!   through the stack), and hands the slots back with one release store
//!   of the head per [`Window::release_taken`] and one when the window
//!   drops. [`Consumer::dequeue_burst`] is a window taken whole onto a
//!   vector.
//!   Handing off a 32-packet batch costs one atomic round-trip instead of
//!   32 lock acquisitions;
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
//! index movement that exposes them. A [`Window`] borrows the consumer
//! for its life and keeps one flag per offset, so each descriptor is read
//! out (taken) or dropped in place exactly once, and the head only ever
//! moves over slots already emptied — also when the window is dropped
//! during a panic. The two-thread stress test (`tests/ring_stress.rs`)
//! hammers this with randomized burst sizes and out-of-order takes over
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
    /// Ring position of the open [`Window`]'s offset 0. Its offsets below
    /// `head - window_start` are taken and released.
    window_start: usize,
    /// Descriptors in the open window; 0 when none is open.
    window_len: usize,
    /// How many offsets of the open window were taken.
    window_taken: usize,
    /// Which offsets of the open window were taken; one flag per slot, so
    /// a window of any size fits.
    taken: Box<[bool]>,
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
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
            window_start: 0,
            window_len: 0,
            window_taken: 0,
            taken: vec![false; capacity].into_boxed_slice(),
        },
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

    /// Moves the head to `head` and hands every slot before it back to the
    /// producer (one release store).
    fn publish_head(&mut self, head: usize) {
        self.head = head;
        self.shared.head.0.store(head, Ordering::Release);
    }

    /// Opens a window over up to `max` published descriptors: the
    /// consumer's zero-copy burst, after DPDK's
    /// `rte_ring_dequeue_zc_burst_start` / `_finish`. The descriptors stay
    /// in their slots until [`Window::take_onto`] moves each one straight
    /// onto the vector it is going to, in any order; [`Window::release_taken`] hands the
    /// taken prefix back to the producer early, and dropping the window
    /// drops what was not taken and releases the rest.
    pub fn window(&mut self, max: usize) -> Window<'_, T> {
        // A window that was leaked instead of dropped is closed here.
        self.close_window();
        let mut avail = self.tail_cache.wrapping_sub(self.head);
        if avail < max {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            avail = self.tail_cache.wrapping_sub(self.head);
        }
        let len = avail.min(max);
        self.taken[..len].fill(false);
        self.window_start = self.head;
        self.window_len = len;
        self.window_taken = 0;
        Window { ring: self }
    }

    /// Appends up to `max` published descriptors to `out`, in FIFO order,
    /// releasing all the consumed slots back to the producer with **one**
    /// store. Returns how many were moved.
    pub fn dequeue_burst(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut window = self.window(max);
        let len = window.len();
        out.reserve(len);
        for offset in 0..len {
            window.take_onto(offset, out);
        }
        len
    }

    /// The slot of offset `offset` of the open window.
    fn window_slot(&self, offset: usize) -> &UnsafeCell<MaybeUninit<T>> {
        &self.shared.slots[self.window_start.wrapping_add(offset) & self.shared.mask]
    }

    /// Closes the open window, if any: drops each descriptor it holds that
    /// was not taken, then hands all its slots back to the producer. Also
    /// if a descriptor's own drop unwinds: the ones it has not reached yet
    /// then leak, which is safe (the producer overwrites a slot without
    /// dropping it).
    fn close_window(&mut self) {
        let len = std::mem::take(&mut self.window_len);
        if len == 0 {
            return;
        }
        struct Release<'a, T>(&'a mut Consumer<T>, usize);
        impl<T> Drop for Release<'_, T> {
            fn drop(&mut self) {
                self.0.publish_head(self.1);
            }
        }
        let released = self.head.wrapping_sub(self.window_start);
        let release = Release(self, self.window_start.wrapping_add(len));
        let ring = &mut *release.0;
        if ring.window_taken == len {
            return;
        }
        for offset in released..len {
            if !ring.taken[offset] {
                ring.taken[offset] = true;
                // SAFETY: an untaken offset of the open window holds a
                // published descriptor (see `Window::get`); the flag set
                // above makes this its only drop, before `release` hands
                // the slot back.
                unsafe { (*ring.window_slot(offset).get()).assume_init_drop() };
            }
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // A leaked window's taken descriptors must not be dropped again
        // with the ring, which drops everything between head and tail.
        self.close_window();
    }
}

/// Up to a burst of published descriptors, left in their ring slots until
/// each is taken onto a vector ([`Window::take_onto`]); see
/// [`Consumer::window`]. Offset `i` is the `i`-th
/// descriptor of the burst in FIFO order. Each offset can be taken once.
/// Holding the window holds the consumer, and the producer cannot reuse a
/// slot until the window releases it: the taken prefix at
/// [`Window::release_taken`], everything when it drops — also on unwind,
/// after dropping each descriptor not taken exactly once. The bookkeeping
/// lives in the [`Consumer`], so a window leaked with `mem::forget` is
/// closed the same way by the next [`Consumer::window`] or by the
/// consumer's drop.
pub struct Window<'r, T> {
    ring: &'r mut Consumer<T>,
}

impl<T> Window<'_, T> {
    /// Descriptors in the window, taken or not.
    pub fn len(&self) -> usize {
        self.ring.window_len
    }

    /// Whether the window holds no descriptor: the ring was empty.
    pub fn is_empty(&self) -> bool {
        self.ring.window_len == 0
    }

    /// The descriptor at `offset`, unless it was taken (or `offset` is
    /// past the window).
    pub fn get(&self, offset: usize) -> Option<&T> {
        if offset >= self.ring.window_len || self.ring.taken[offset] {
            return None;
        }
        // SAFETY: an offset inside the window that was not taken is a
        // published slot, written by the producer (acquire-ordered by
        // `Consumer::window`) and not handed back yet, so it holds an
        // initialised descriptor nobody else touches.
        Some(unsafe { (*self.ring.window_slot(offset).get()).assume_init_ref() })
    }

    /// Moves the descriptor at `offset` out of its slot onto the end of
    /// `out`: its bytes are copied once, from the slot straight into the
    /// vector's spare capacity, where a by-value move would stage them on
    /// the stack on the way.
    ///
    /// # Panics
    ///
    /// If `offset` is past the window or was taken before; then neither
    /// the window nor `out` changes.
    #[inline]
    pub fn take_onto(&mut self, offset: usize, out: &mut Vec<T>) {
        let len = self.ring.window_len;
        assert!(offset < len, "offset {offset} is past a window of {len}");
        assert!(!self.ring.taken[offset], "offset {offset} of the window was taken before");
        // Grown before the flag is set: a panic here leaves the descriptor
        // in its slot, untaken.
        out.reserve(1);
        self.ring.taken[offset] = true;
        self.ring.window_taken += 1;
        let end = out.len();
        // SAFETY: the slot holds an initialised descriptor (as in `get`),
        // and `out` has room for one more element past `end` (reserved
        // above). The flag set above makes this the slot's only read, and
        // nothing drops it again: closing the window skips taken offsets,
        // and the producer only ever overwrites a slot. The copy cannot
        // unwind, so `out` owns the descriptor from `set_len` on.
        unsafe {
            let slot = self.ring.window_slot(offset).get().cast::<T>();
            std::ptr::copy_nonoverlapping(slot, out.as_mut_ptr().add(end), 1);
            out.set_len(end + 1);
        }
    }

    /// Hands the slots of the taken prefix of the window back to the
    /// producer with one store: every offset from the last release up to
    /// the first one not taken. Offsets taken out of order behind an
    /// untaken one wait for it.
    pub fn release_taken(&mut self) {
        let ring = &mut *self.ring;
        let released = ring.head.wrapping_sub(ring.window_start);
        let mut prefix = released;
        while prefix < ring.window_len && ring.taken[prefix] {
            prefix += 1;
        }
        if prefix != released {
            ring.publish_head(ring.window_start.wrapping_add(prefix));
        }
    }
}

impl<T> Drop for Window<'_, T> {
    fn drop(&mut self) {
        self.ring.close_window();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A descriptor that counts its own drops in a table shared by the
    /// test, one cell per id: a descriptor dropped twice, or never, shows.
    struct Counted {
        id: usize,
        drops: Arc<[AtomicU32]>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drop_table(n: usize) -> Arc<[AtomicU32]> {
        (0..n).map(|_| AtomicU32::new(0)).collect()
    }

    fn drops(table: &[AtomicU32]) -> Vec<u32> {
        table.iter().map(|cell| cell.load(Ordering::Relaxed)).collect()
    }

    /// The descriptor at `offset`, taken onto a vector of its own.
    fn take<T>(window: &mut Window<'_, T>, offset: usize) -> T {
        let mut out = Vec::with_capacity(1);
        window.take_onto(offset, &mut out);
        out.pop().expect("take_onto pushed the descriptor")
    }

    /// Fills `tx` with `n` counted descriptors, ids `0..n`.
    fn push_counted(tx: &mut Producer<Counted>, table: &Arc<[AtomicU32]>, n: usize) {
        for id in 0..n {
            assert!(tx.try_push(Counted { id, drops: Arc::clone(table) }).is_ok());
        }
    }

    /// xorshift64*: a seeded order for the out-of-order takes.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
        }

        /// A random permutation of `0..n`.
        fn permutation(&mut self, n: usize) -> Vec<usize> {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, self.below(i + 1));
            }
            order
        }
    }

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
    /// and reopens one slot per descriptor taken — accounting at the
    /// boundary is exact.
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
        // One descriptor taken frees exactly one slot.
        assert_eq!(take(&mut rx.window(1), 0), 0);
        assert!(tx.try_push(100).is_ok());
        assert_eq!(tx.try_push(101), Err(101));
        // Burst accounting at the same boundary: nothing fits, nothing is
        // silently dropped.
        let mut staging = vec![7u64, 8, 9];
        assert_eq!(tx.enqueue_burst(&mut staging), 0);
        assert_eq!(staging, vec![7, 8, 9], "rejected burst stays with the caller");
        // Drain everything; FIFO order, nothing lost or duplicated.
        let mut out = Vec::new();
        while rx.dequeue_burst(&mut out, 3) > 0 {}
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
        out.clear();
        rx.dequeue_burst(&mut out, 8);
        for v in out {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, next);
    }

    #[test]
    fn dropping_the_ring_drops_in_flight_descriptors() {
        let table = drop_table(6);
        let (mut tx, mut rx) = spsc_ring::<Counted>(8);
        push_counted(&mut tx, &table, 6);
        let first = take(&mut rx.window(1), 0);
        assert_eq!(drops(&table), [0; 6]);
        drop(first);
        drop(take(&mut rx.window(1), 0));
        assert_eq!(drops(&table), [1, 1, 0, 0, 0, 0]);
        drop((tx, rx));
        assert_eq!(drops(&table), [1; 6], "in-flight descriptors leaked or dropped twice");
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
        take(&mut rx.window(1), 0);
        assert_eq!(rx.len(), 1);
        assert_eq!(tx.free_slots(), 3);
    }

    /// Takes in a random order give the descriptors `dequeue_burst` gives,
    /// each at its offset; `max` is respected, the same slots are handed
    /// back (the producer sees the same free space), across many
    /// wrap-arounds, with prefix releases at random points in between.
    #[test]
    fn window_takes_in_any_order_match_dequeue_burst() {
        let (mut tx_a, mut rx_a) = spsc_ring::<u64>(8);
        let (mut tx_b, mut rx_b) = spsc_ring::<u64>(8);
        let mut rng = Rng(0x5eed_0046);
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
            let moved = rx_a.dequeue_burst(&mut burst, max);
            assert!(moved <= max);
            let mut window = rx_b.window(max);
            assert_eq!(window.len(), moved);
            let mut taken = vec![None; moved];
            for offset in rng.permutation(moved) {
                assert_eq!(window.get(offset), Some(&burst[offset]));
                taken[offset] = Some(take(&mut window, offset));
                assert_eq!(window.get(offset), None, "a taken offset is gone");
                if rng.below(3) == 0 {
                    window.release_taken();
                }
            }
            drop(window);
            assert_eq!(taken.into_iter().collect::<Option<Vec<_>>>(), Some(burst));
            assert_eq!(tx_b.free_slots(), tx_a.free_slots(), "round {round}: same slots released");
            assert_eq!(rx_b.len(), rx_a.len());
        }
        assert!(next > 8 * 100, "the positions wrapped the slot array many times");
    }

    /// A window dropped with some descriptors taken out of order and the
    /// rest not taken drops each untaken one exactly once, and hands every
    /// slot back.
    #[test]
    fn window_drops_each_untaken_descriptor_once() {
        let mut rng = Rng(0x0dd_0046);
        for round in 0..200 {
            let table = drop_table(16);
            let (mut tx, mut rx) = spsc_ring::<Counted>(16);
            push_counted(&mut tx, &table, 16);
            let mut window = rx.window(16);
            let takes = rng.below(17);
            let order = rng.permutation(16);
            let mut taken = Vec::new();
            for &offset in &order[..takes] {
                window.take_onto(offset, &mut taken);
            }
            drop(window);
            let untaken: Vec<u32> = (0..16).map(|id| u32::from(!order[..takes].contains(&id))).collect();
            assert_eq!(drops(&table), untaken, "round {round}: only the untaken were dropped, once each");
            assert_eq!(tx.free_slots(), 16);
            drop(taken);
            assert_eq!(drops(&table), [1; 16]);
            drop((tx, rx));
            assert_eq!(drops(&table), [1; 16], "round {round}: the ring drops nothing again");
        }
    }

    /// A panic while a window is open — after takes out of order and a
    /// prefix release — drops each descriptor exactly once on the unwind,
    /// and the ring is left empty and whole.
    #[test]
    fn window_unwinding_mid_way_drops_each_descriptor_once() {
        let table = drop_table(6);
        let (mut tx, mut rx) = spsc_ring::<Counted>(8);
        push_counted(&mut tx, &table, 6);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut window = rx.window(6);
            drop(take(&mut window, 3));
            let first = take(&mut window, 0);
            window.release_taken();
            drop(first);
            panic!("a run fails with four descriptors in its window");
        }));
        assert!(unwound.is_err());
        assert_eq!(drops(&table), [1; 6]);
        assert_eq!(rx.len(), 0);
        assert_eq!(tx.free_slots(), 8);
        // The ring works on: the next descriptors come out where they
        // were put.
        let more = drop_table(2);
        push_counted(&mut tx, &more, 2);
        assert_eq!(take(&mut rx.window(2), 1).id, 1);
        assert_eq!(drops(&more), [1, 1]);
        assert_eq!(tx.free_slots(), 8);
        drop((tx, rx));
        assert_eq!(drops(&table), [1; 6]);
    }

    /// A window leaked with `mem::forget` is closed by the next window, or
    /// by the consumer's drop: a taken descriptor is neither handed out
    /// nor dropped again, and each untaken one is dropped once.
    #[test]
    fn a_leaked_window_is_closed_by_the_next_one_or_the_consumer() {
        let table = drop_table(8);
        let (mut tx, mut rx) = spsc_ring::<Counted>(8);
        push_counted(&mut tx, &table, 8);
        let mut window = rx.window(4);
        let taken = take(&mut window, 1);
        std::mem::forget(window);
        assert_eq!(drops(&table), [0; 8]);
        let mut next = rx.window(8);
        assert_eq!(drops(&table), [1, 0, 1, 1, 0, 0, 0, 0], "the leaked window's untaken, once");
        assert_eq!(next.len(), 4);
        assert_eq!(take(&mut next, 0).id, 4);
        std::mem::forget(next);
        drop(taken);
        assert_eq!(tx.free_slots(), 4);
        drop((tx, rx));
        assert_eq!(drops(&table), [1; 8]);
    }

    /// `take_onto` hands each descriptor to the vector it lands in, and the
    /// three ways a descriptor can leave a window — taken onto a vector,
    /// left untaken, or caught in a window that unwinds — drop it exactly
    /// once between them. A take that panics leaves the vector as it was.
    #[test]
    fn take_onto_drops_each_descriptor_once_taken_untaken_or_unwound() {
        let mut rng = Rng(0x7a6e_0047);
        for round in 0..100 {
            let table = drop_table(8);
            let (mut tx, mut rx) = spsc_ring::<Counted>(8);
            push_counted(&mut tx, &table, 8);
            let order = rng.permutation(8);
            let takes = rng.below(9);
            let unwind = round % 2 == 1;
            let mut onto: Vec<Counted> = Vec::new();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut window = rx.window(8);
                for &offset in &order[..takes] {
                    window.take_onto(offset, &mut onto);
                }
                if let Some(&again) = order[..takes].first() {
                    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        window.take_onto(again, &mut onto);
                    }));
                    assert!(refused.is_err(), "a second take of offset {again} panics");
                }
                assert_eq!(onto.len(), takes, "a refused take pushes nothing");
                if unwind {
                    panic!("a run fails with its window open");
                }
            }));
            assert_eq!(run.is_err(), unwind);
            let ids: Vec<usize> = onto.iter().map(|desc| desc.id).collect();
            assert_eq!(ids, order[..takes], "round {round}: taken onto the vector in take order");
            let untaken: Vec<u32> = (0..8).map(|id| u32::from(!ids.contains(&id))).collect();
            assert_eq!(drops(&table), untaken, "round {round}: only the untaken were dropped, once each");
            drop(onto);
            assert_eq!(drops(&table), [1; 8]);
            assert_eq!(tx.free_slots(), 8);
            drop((tx, rx));
            assert_eq!(drops(&table), [1; 8], "round {round}: the ring drops nothing again");
        }
    }

    #[test]
    #[should_panic(expected = "taken before")]
    fn a_second_take_of_one_offset_panics() {
        let (mut tx, mut rx) = spsc_ring::<u64>(4);
        tx.try_push(7).unwrap();
        let mut window = rx.window(4);
        assert_eq!(take(&mut window, 0), 7);
        take(&mut window, 0);
    }

    /// Releasing the taken prefix lets the producer refill exactly the
    /// released slots: not a taken slot behind an untaken one, not an
    /// untaken one.
    #[test]
    fn prefix_release_frees_exactly_the_released_slots() {
        let (mut tx, mut rx) = spsc_ring::<u64>(8);
        let mut staging: Vec<u64> = (0..8).collect();
        assert_eq!(tx.enqueue_burst(&mut staging), 8);
        let mut window = rx.window(8);
        assert_eq!([take(&mut window, 0), take(&mut window, 1), take(&mut window, 3)], [0, 1, 3]);
        assert_eq!(tx.free_slots(), 0, "nothing is released before `release_taken`");
        window.release_taken();
        assert_eq!(tx.free_slots(), 2, "offsets 0 and 1; offset 3 waits for offset 2");
        assert!(tx.try_push(8).is_ok());
        assert!(tx.try_push(9).is_ok());
        assert_eq!(tx.try_push(10), Err(10));
        window.release_taken();
        assert_eq!(tx.free_slots(), 0, "a release with no new prefix frees nothing");
        assert_eq!(take(&mut window, 2), 2);
        window.release_taken();
        assert_eq!(tx.free_slots(), 2, "offsets 2 and 3");
        assert_eq!(window.get(4), Some(&4));
        drop(window);
        assert_eq!(tx.free_slots(), 6, "the drop releases the rest of the window");
        // The slots refilled while the window was open come out next.
        let mut out = Vec::new();
        rx.dequeue_burst(&mut out, 8);
        assert_eq!(out, vec![8, 9]);
    }
}
