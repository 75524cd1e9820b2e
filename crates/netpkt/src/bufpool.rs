//! A packet-buffer recycling arena with two size classes.
//!
//! Kernel drivers never allocate an `sk_buff` per packet on the hot path:
//! RX descriptors are refilled from a per-queue page pool, and a drained
//! buffer goes back to the pool instead of the allocator. [`BufPool`] is
//! that arena for [`PacketBuf`]: free lists of reset-but-still-allocated
//! buffers, so steady-state ingestion (the same mix of packets round after
//! round) performs **zero** heap allocations — the property the
//! `alloc-counter` gates in `seg6-core` and `seg6-runtime` prove.
//!
//! Like the kernel, which allocates an skb head for the packet it carries
//! (Linux 6.3 gave small heads their own slab cache, `skbuff_small_head`),
//! the arena sizes a buffer to its frame. A frame of at most
//! [`SMALL_FRAME`] bytes takes a *small* buffer, the headroom plus
//! `SMALL_FRAME`; a larger one takes a *full* buffer, the headroom plus a
//! [`DEFAULT_FRAME_CAP`] socket frame. Each class keeps its own free list,
//! and in either class the headers a datapath pushes within the headroom
//! never grow a buffer.
//!
//! The pool itself is single-threaded by design (one per dispatcher); the
//! cross-thread leg of the recycle loop — workers handing processed
//! buffers back — is the runtime crate's flush barrier. The full
//! descriptor lifecycle is: dispatcher [`take_filled`](BufPool::take_filled)
//! → descriptor ring → worker (process, drain) → flush barrier →
//! dispatcher [`put`](BufPool::put) → [`take_filled`](BufPool::take_filled)
//! again.

use crate::buf::{PacketBuf, DEFAULT_HEADROOM};
use crate::sockio::DEFAULT_FRAME_CAP;

/// Frame room of the arena's small size class. 512 bytes hold any
/// minimum-size packet with room to spare — an IPv6 header, an SRH of a
/// dozen segments and a short payload, every frame of a 64-byte workload
/// after its endpoint's edits — while a small buffer (640 bytes with the
/// default headroom) costs under a third of a full one (2 176 bytes), in
/// memory held and in pages the kernel faults in when the arena warms.
pub const SMALL_FRAME: usize = 512;

/// Index of the small class in [`BufPool`]'s free lists.
const SMALL: usize = 0;
/// Index of the full class.
const FULL: usize = 1;
/// Frame room of each class, by index.
const FRAME_ROOM: [usize; 2] = [SMALL_FRAME, DEFAULT_FRAME_CAP];

/// A recycling arena of [`PacketBuf`]s. See the [module docs](self).
#[derive(Debug)]
pub struct BufPool {
    /// Free buffers by size class, `[SMALL]` and `[FULL]`.
    free: [Vec<PacketBuf>; 2],
    headroom: usize,
    max_retained: usize,
    allocated: u64,
    recycled: u64,
}

impl BufPool {
    /// Creates an arena retaining at most `max_retained` free buffers per
    /// size class (excess [`put`](BufPool::put)s fall through to the
    /// allocator), with [`DEFAULT_HEADROOM`] on every buffer it hands out.
    /// Both free lists are reserved to the cap here, so `put` never grows
    /// them.
    pub fn new(max_retained: usize) -> Self {
        Self::with_headroom(max_retained, DEFAULT_HEADROOM)
    }

    /// [`BufPool::new`] with an explicit per-buffer headroom.
    pub fn with_headroom(max_retained: usize, headroom: usize) -> Self {
        BufPool {
            free: [Vec::with_capacity(max_retained), Vec::with_capacity(max_retained)],
            headroom,
            max_retained,
            allocated: 0,
            recycled: 0,
        }
    }

    /// Takes an empty full-size buffer: a free full one when the arena has
    /// any, a fresh one otherwise, with storage for the headroom plus a
    /// [`DEFAULT_FRAME_CAP`] frame, so no frame a socket can deliver grows
    /// it.
    pub fn take(&mut self) -> PacketBuf {
        self.take_class(FULL)
    }

    /// Takes a buffer of the smallest class that holds `frame` and fills it
    /// with a copy of `frame`. A free buffer of that class is used first,
    /// then a free larger one; only when neither is free does the arena
    /// mint one, of the frame's class, as one allocation of exactly the
    /// class's storage with nothing written to it. Allocation-free whenever
    /// a fitting buffer is free. A frame longer than [`DEFAULT_FRAME_CAP`]
    /// takes a full buffer and grows it.
    #[inline]
    pub fn take_filled(&mut self, frame: &[u8]) -> PacketBuf {
        let class = if frame.len() <= SMALL_FRAME { SMALL } else { FULL };
        let mut buf = self.take_class(class);
        buf.append(frame);
        buf
    }

    /// A free buffer of `class` or of a larger one, or a fresh `class` one.
    #[inline]
    fn take_class(&mut self, class: usize) -> PacketBuf {
        if let Some(buf) = self.free[class..].iter_mut().find_map(Vec::pop) {
            self.recycled += 1;
            return buf;
        }
        self.allocated += 1;
        PacketBuf::with_capacity(self.headroom, self.headroom + FRAME_ROOM[class])
    }

    /// Returns a drained buffer to the arena: its storage is kept and its
    /// packet reset (empty, headroom restored). It joins the largest class
    /// whose storage it holds, so a small frame that borrowed a full buffer
    /// gives a full one back. A buffer beyond its class's retention cap is
    /// dropped — the arena never grows without bound. A foreign buffer too
    /// small for either class (`seg6-runtime`'s `WorkerPool::recycle`
    /// accepts any `PacketBuf`) joins the small class, its storage grown to
    /// the class's once on the way in, so that no buffer in the arena grows
    /// when it is taken. The buffer is pushed as it came and reset where it
    /// then lies: resetting it first would write it in pieces just before
    /// the push reads it back whole.
    #[inline]
    pub fn put(&mut self, buf: PacketBuf) {
        let capacity = buf.storage_capacity();
        let class = if capacity >= self.headroom + DEFAULT_FRAME_CAP { FULL } else { SMALL };
        let free = &mut self.free[class];
        if free.len() >= self.max_retained {
            return;
        }
        free.push(buf);
        let buf = free.last_mut().expect("the buffer was just pushed");
        if capacity < self.headroom + SMALL_FRAME {
            buf.reset(self.headroom + SMALL_FRAME);
        }
        buf.reset(self.headroom);
    }

    /// Free buffers currently retained, in both classes.
    pub fn available(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// Buffers handed out that needed a fresh allocation, in both classes.
    pub fn allocations(&self) -> u64 {
        self.allocated
    }

    /// Buffers handed out from a free list (the recycle hit count), in both
    /// classes.
    pub fn recycle_hits(&self) -> u64 {
        self.recycled
    }

    /// Raises (or lowers) the retention cap of each class, reserving both
    /// free lists to it. The worker pool calls this when a tenant
    /// registers: the in-flight bound — and therefore the number of
    /// buffers the arena must be able to retain for the steady state to
    /// stay mint-free — grows with the tenant count. Lowering the cap does
    /// not drop already-retained buffers; they drain naturally as excess
    /// `put`s are refused.
    pub fn set_max_retained(&mut self, max_retained: usize) {
        self.max_retained = max_retained;
        for free in &mut self.free {
            free.reserve(max_retained.saturating_sub(free.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_put_buffers() {
        let mut pool = BufPool::new(8);
        let mut buf = pool.take();
        assert_eq!(pool.allocations(), 1);
        buf.append(&[1, 2, 3]);
        let storage = buf.storage_capacity();
        pool.put(buf);
        assert_eq!(pool.available(), 1);
        let buf = pool.take_filled(&[9, 9]);
        assert_eq!(pool.recycle_hits(), 1);
        assert_eq!(pool.allocations(), 1, "no fresh allocation on recycle");
        assert_eq!(buf.data(), &[9, 9]);
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM, "recycled buffer headroom restored");
        assert!(buf.storage_capacity() >= storage.min(DEFAULT_HEADROOM + 2));
    }

    #[test]
    fn retention_cap_drops_excess_buffers() {
        let mut pool = BufPool::new(2);
        for _ in 0..4 {
            pool.put(PacketBuf::from_slice(&[0; 16]));
        }
        assert_eq!(pool.available(), 2);
    }

    /// A minted buffer is empty, carries the arena's headroom and already
    /// holds a full socket frame, so filling it never reallocates.
    #[test]
    fn minted_buffers_hold_a_full_frame() {
        let mut pool = BufPool::with_headroom(4, 32);
        let buf = pool.take();
        assert_eq!(pool.allocations(), 1);
        assert_eq!(buf.headroom(), 32);
        assert!(buf.is_empty());
        let capacity = buf.storage_capacity();
        assert!(capacity >= 32 + DEFAULT_FRAME_CAP, "room for any socket frame");
        pool.put(buf);
        let buf = pool.take_filled(&[0x5a; DEFAULT_FRAME_CAP]);
        assert_eq!(buf.storage_capacity(), capacity, "a full frame fits without growing");
    }

    /// A buffer that carried a pushed header and a 1.4 kB payload comes
    /// back through `put` → `take_filled` as if new: default headroom, the
    /// new bytes exactly, the old allocation, nothing of the old packet.
    #[test]
    fn put_then_take_filled_shows_only_the_new_packet() {
        let mut pool = BufPool::new(4);
        let mut buf = pool.take_filled(&[0xee; 1400]);
        buf.push_header(&[0xaa; 48]);
        let capacity = buf.storage_capacity();
        pool.put(buf);
        let fresh: Vec<u8> = (0..64).collect();
        let buf = pool.take_filled(&fresh);
        assert_eq!(pool.recycle_hits(), 1);
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM);
        assert_eq!(buf.data(), fresh.as_slice(), "no byte of the previous packet shows");
        assert!(buf.storage_capacity() >= capacity);
    }

    /// A buffer minted with less headroom than the arena hands out is
    /// extended, not truncated, on its way in.
    #[test]
    fn put_restores_the_headroom_of_a_short_buffer() {
        let mut pool = BufPool::new(4);
        let mut short = PacketBuf::with_headroom(16);
        short.append(&[1, 2, 3]);
        short.pull(3).unwrap();
        pool.put(short);
        let buf = pool.take_filled(&[4, 5]);
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM);
        assert_eq!(buf.data(), &[4, 5]);
    }

    const SMALL_CAPACITY: usize = DEFAULT_HEADROOM + SMALL_FRAME;
    const FULL_CAPACITY: usize = DEFAULT_HEADROOM + DEFAULT_FRAME_CAP;

    /// Each class mints exactly its storage, the headroom plus its frame
    /// room, and the boundary is inclusive: a frame of exactly
    /// `SMALL_FRAME` bytes fills a small buffer without growing it; one
    /// byte more takes a full one, as does `take`.
    #[test]
    fn each_class_mints_exactly_its_storage() {
        let mut pool = BufPool::new(4);
        let small = pool.take_filled(&[1; SMALL_FRAME]);
        assert_eq!(small.storage_capacity(), SMALL_CAPACITY);
        assert_eq!(small.data(), &[1; SMALL_FRAME][..]);
        let full = pool.take_filled(&[2; SMALL_FRAME + 1]);
        assert_eq!(full.storage_capacity(), FULL_CAPACITY);
        assert_eq!(full.len(), SMALL_FRAME + 1);
        assert_eq!(pool.take().storage_capacity(), FULL_CAPACITY);
        assert_eq!(pool.allocations(), 3);
    }

    /// Headers pushed up to the whole headroom grow neither class, with
    /// the largest frame each class takes.
    #[test]
    fn a_push_within_the_headroom_grows_neither_class() {
        let mut pool = BufPool::new(4);
        for frame_len in [SMALL_FRAME, DEFAULT_FRAME_CAP] {
            let mut buf = pool.take_filled(&vec![3; frame_len]);
            let capacity = buf.storage_capacity();
            buf.push_header(&[0xaa; 40]);
            buf.push_header(&[0xbb; DEFAULT_HEADROOM - 40]);
            assert_eq!(buf.headroom(), 0);
            assert_eq!(buf.len(), frame_len + DEFAULT_HEADROOM);
            assert_eq!(buf.storage_capacity(), capacity, "a {frame_len}-byte frame's buffer grew");
            pool.put(buf);
        }
        assert_eq!(pool.available(), 2, "both buffers went back to their class");
    }

    /// A small frame takes a free full-size buffer before it mints, and the
    /// buffer goes back to the full class.
    #[test]
    fn a_small_frame_reuses_a_free_full_buffer_before_minting() {
        let mut pool = BufPool::new(4);
        let full = pool.take_filled(&[5; 1400]);
        pool.put(full);
        let buf = pool.take_filled(&[6; 64]);
        assert_eq!((pool.allocations(), pool.recycle_hits()), (1, 1), "no small buffer minted");
        assert_eq!(buf.storage_capacity(), FULL_CAPACITY);
        assert_eq!(buf.data(), &[6; 64][..]);
        pool.put(buf);
        let buf = pool.take_filled(&[7; 1400]);
        assert_eq!((pool.allocations(), pool.recycle_hits()), (1, 2), "the full buffer came back full");
        assert_eq!(buf.storage_capacity(), FULL_CAPACITY);
    }

    /// A full frame never takes a small buffer: it mints a full one.
    #[test]
    fn a_full_frame_never_takes_a_small_buffer() {
        let mut pool = BufPool::new(4);
        let small = pool.take_filled(&[1; 64]);
        pool.put(small);
        let full = pool.take_filled(&[2; 1400]);
        assert_eq!(full.storage_capacity(), FULL_CAPACITY);
        assert_eq!((pool.allocations(), pool.available()), (2, 1));
    }

    /// The retention cap holds per class: the arena keeps up to the cap of
    /// each, and drops what is beyond it.
    #[test]
    fn the_retention_cap_applies_per_class() {
        let mut pool = BufPool::new(2);
        let bufs: Vec<PacketBuf> = (0..3).flat_map(|_| [pool.take_filled(&[0; 64]), pool.take()]).collect();
        for buf in bufs {
            pool.put(buf);
        }
        assert_eq!(pool.available(), 4);
        let capacities: Vec<usize> = (0..4).map(|_| pool.take_filled(&[0; 64]).storage_capacity()).collect();
        assert_eq!(capacities, [SMALL_CAPACITY, SMALL_CAPACITY, FULL_CAPACITY, FULL_CAPACITY]);
        assert_eq!(pool.allocations(), 6, "all four were retained buffers");
    }

    /// A foreign buffer smaller than either class joins the small class,
    /// grown once to hold a small frame, so taking it never grows it.
    #[test]
    fn a_foreign_buffer_is_grown_into_the_small_class() {
        let mut pool = BufPool::new(4);
        pool.put(PacketBuf::from_slice(&[0; 16]));
        let buf = pool.take_filled(&[9; SMALL_FRAME]);
        assert_eq!(pool.allocations(), 0);
        assert!(buf.storage_capacity() >= SMALL_CAPACITY);
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM);
        let capacity = buf.storage_capacity();
        pool.put(buf);
        assert_eq!(pool.take_filled(&[9; SMALL_FRAME]).storage_capacity(), capacity, "grown only once");
    }
}
