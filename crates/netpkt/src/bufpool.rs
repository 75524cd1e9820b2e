//! A packet-buffer recycling arena.
//!
//! Kernel drivers never allocate an `sk_buff` per packet on the hot path:
//! RX descriptors are refilled from a per-queue page pool, and a drained
//! buffer goes back to the pool instead of the allocator. [`BufPool`] is
//! that arena for [`PacketBuf`]: a free list of reset-but-still-allocated
//! buffers, so steady-state ingestion (same-sized packets round after
//! round) performs **zero** heap allocations — the property the
//! `alloc-counter` gates in `seg6-core` and `seg6-runtime` prove.
//!
//! The pool itself is single-threaded by design (one per dispatcher); the
//! cross-thread leg of the recycle loop — workers handing processed
//! buffers back — is the runtime crate's flush barrier. The full
//! descriptor lifecycle is: dispatcher [`take`](BufPool::take) →
//! descriptor ring → worker (process, drain) → flush barrier →
//! dispatcher [`put`](BufPool::put) → [`take`](BufPool::take) again.

use crate::buf::{PacketBuf, DEFAULT_HEADROOM};
use crate::sockio::DEFAULT_FRAME_CAP;

/// A recycling arena of [`PacketBuf`]s. See the [module docs](self).
#[derive(Debug)]
pub struct BufPool {
    free: Vec<PacketBuf>,
    headroom: usize,
    max_retained: usize,
    allocated: u64,
    recycled: u64,
}

impl BufPool {
    /// Creates an arena retaining at most `max_retained` free buffers
    /// (excess [`put`](BufPool::put)s fall through to the allocator), with
    /// [`DEFAULT_HEADROOM`] on every buffer it hands out. The free list is
    /// reserved to the cap here, so `put` never grows it.
    pub fn new(max_retained: usize) -> Self {
        Self::with_headroom(max_retained, DEFAULT_HEADROOM)
    }

    /// [`BufPool::new`] with an explicit per-buffer headroom.
    pub fn with_headroom(max_retained: usize, headroom: usize) -> Self {
        BufPool { free: Vec::with_capacity(max_retained), headroom, max_retained, allocated: 0, recycled: 0 }
    }

    /// Takes an empty buffer: recycled storage when the free list has
    /// any, a fresh allocation otherwise. A fresh buffer owns storage for
    /// the headroom plus a [`DEFAULT_FRAME_CAP`] frame (written once, then
    /// reset), so no frame a socket can deliver — nor the headers a
    /// datapath pushes onto it — grows it later: once warm, the arena's
    /// buffers never reallocate, whichever packet lands in which buffer.
    pub fn take(&mut self) -> PacketBuf {
        match self.free.pop() {
            Some(buf) => {
                self.recycled += 1;
                buf
            }
            None => {
                self.allocated += 1;
                let mut buf = PacketBuf::with_headroom(self.headroom);
                buf.append(&[0; DEFAULT_FRAME_CAP]);
                buf.reset(self.headroom);
                buf
            }
        }
    }

    /// Takes a buffer and fills it with a copy of `frame`. Allocation-free
    /// when a recycled buffer with enough storage is available.
    pub fn take_filled(&mut self, frame: &[u8]) -> PacketBuf {
        let mut buf = self.take();
        buf.append(frame);
        buf
    }

    /// Returns a drained buffer to the arena: its storage is kept and its
    /// packet reset (empty, headroom restored). Buffers beyond the
    /// retention cap are dropped — the arena never grows without bound.
    pub fn put(&mut self, mut buf: PacketBuf) {
        if self.free.len() < self.max_retained {
            buf.reset(self.headroom);
            self.free.push(buf);
        }
    }

    /// Free buffers currently retained.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Buffers handed out that needed a fresh allocation.
    pub fn allocations(&self) -> u64 {
        self.allocated
    }

    /// Buffers handed out from the free list (the recycle hit count).
    pub fn recycle_hits(&self) -> u64 {
        self.recycled
    }

    /// Raises (or lowers) the retention cap, reserving the free list to
    /// it. The worker pool calls this when a tenant registers: the
    /// in-flight bound — and therefore the number of buffers the arena
    /// must be able to retain for the steady state to stay mint-free —
    /// grows with the tenant count. Lowering the cap does not drop
    /// already-retained buffers; they drain naturally as excess `put`s are
    /// refused.
    pub fn set_max_retained(&mut self, max_retained: usize) {
        self.max_retained = max_retained;
        self.free.reserve(max_retained.saturating_sub(self.free.len()));
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
}
