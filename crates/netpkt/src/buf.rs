//! An `sk_buff`-like packet buffer with headroom.
//!
//! SRv6 processing constantly pushes and pulls headers: transit behaviours
//! prepend an outer IPv6 header and an SRH, `End.DT6` removes them again,
//! and `bpf_lwt_seg6_adjust_srh` grows or shrinks the TLV area in the middle
//! of the packet. [`PacketBuf`] mirrors the relevant parts of the kernel's
//! `sk_buff`: a contiguous allocation with spare *headroom* in front of the
//! packet data so that prepending a header usually does not reallocate.
//! Edits in the middle ([`PacketBuf::insert`], [`PacketBuf::remove`]) move
//! the bytes in front of them through the headroom, never the payload
//! behind them — headers are short, payloads are not.

use crate::error::{Error, Result};

/// Default headroom reserved by [`PacketBuf::new`], enough for an outer IPv6
/// header plus an SRH with a handful of segments.
pub const DEFAULT_HEADROOM: usize = 128;

/// A packet buffer with headroom, similar to the kernel's `sk_buff`.
///
/// The packet's bytes live in `storage[offset..]`. Pushing a header moves
/// `offset` towards zero; pulling a header moves it forward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketBuf {
    storage: Vec<u8>,
    offset: usize,
}

impl Default for PacketBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketBuf {
    /// Creates an empty buffer with [`DEFAULT_HEADROOM`] bytes of headroom.
    pub fn new() -> Self {
        Self::with_headroom(DEFAULT_HEADROOM)
    }

    /// Creates an empty buffer with `headroom` bytes reserved in front.
    pub fn with_headroom(headroom: usize) -> Self {
        PacketBuf { storage: vec![0; headroom], offset: headroom }
    }

    /// Creates an empty buffer with `headroom` bytes reserved in front, in
    /// storage of exactly `capacity` bytes (at least the headroom). The
    /// storage is one zeroed allocation and nothing is copied into it, so
    /// memory fresh from the kernel is not touched until a packet lands.
    pub fn with_capacity(headroom: usize, capacity: usize) -> Self {
        let mut storage = vec![0; capacity.max(headroom)];
        storage.truncate(headroom);
        PacketBuf { storage, offset: headroom }
    }

    /// Creates a buffer holding `data`, with [`DEFAULT_HEADROOM`] bytes of
    /// headroom in front of it.
    pub fn from_slice(data: &[u8]) -> Self {
        let mut buf = Self::with_headroom(DEFAULT_HEADROOM);
        buf.append(data);
        buf
    }

    /// Current packet length in bytes (excluding headroom).
    #[inline]
    pub fn len(&self) -> usize {
        self.storage.len() - self.offset
    }

    /// Whether the packet currently holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining headroom in bytes.
    #[inline]
    pub fn headroom(&self) -> usize {
        self.offset
    }

    /// Read-only view of the packet bytes.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.storage[self.offset..]
    }

    /// Mutable view of the packet bytes.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.storage[self.offset..]
    }

    /// Appends `bytes` at the end of the packet (tail).
    #[inline]
    pub fn append(&mut self, bytes: &[u8]) {
        self.storage.extend_from_slice(bytes);
    }

    /// Prepends `header` in front of the packet, like `skb_push`.
    ///
    /// Grows the headroom if the buffer does not have enough of it.
    pub fn push_header(&mut self, header: &[u8]) {
        self.insert(0, header.len());
        self.data_mut()[..header.len()].copy_from_slice(header);
    }

    /// Removes `len` bytes from the front of the packet, like `skb_pull`.
    #[inline]
    pub fn pull(&mut self, len: usize) -> Result<()> {
        if len > self.len() {
            return Err(Error::Truncated { needed: len, available: self.len() });
        }
        self.offset += len;
        Ok(())
    }

    /// Opens `n` zero bytes at offset `at` by moving the `at` bytes in
    /// front of it `n` bytes into the headroom — `skb_push` plus a header
    /// memmove. The bytes from `at` on stay where they are, unless the
    /// headroom is short and has to grow, which moves the whole packet once.
    ///
    /// # Panics
    ///
    /// If `at` is past the end of the packet.
    pub fn insert(&mut self, at: usize, n: usize) {
        assert!(at <= self.len(), "insert at {at} past the end of a {}-byte packet", self.len());
        if n > self.offset {
            self.grow_headroom(n.max(DEFAULT_HEADROOM));
        }
        let front = self.offset;
        self.offset -= n;
        self.storage.copy_within(front..front + at, self.offset);
        self.storage[self.offset + at..front + at].fill(0);
    }

    /// Removes the `n` bytes at offset `at` by moving the `at` bytes in
    /// front of them `n` bytes towards the tail — a header memmove plus
    /// `skb_pull`. The bytes behind the removed ones do not move.
    ///
    /// # Panics
    ///
    /// If the range runs past the end of the packet.
    pub fn remove(&mut self, at: usize, n: usize) {
        assert!(
            at.checked_add(n).is_some_and(|end| end <= self.len()),
            "remove of {n} bytes at {at} past the end of a {}-byte packet",
            self.len()
        );
        self.storage.copy_within(self.offset..self.offset + at, self.offset + n);
        self.offset += n;
    }

    /// Resets the buffer to an empty packet with `headroom` bytes of
    /// headroom, **reusing the existing allocation**. This is the recycle
    /// primitive of [`BufPool`](crate::BufPool): a drained buffer returns
    /// to the arena with its storage intact, so refilling it with a
    /// same-sized packet performs no allocation. Nothing is written: the
    /// storage is cut back to the headroom, whose stale bytes stay behind
    /// `offset` — [`PacketBuf::data`] never reaches them and
    /// [`PacketBuf::push_header`] overwrites every byte it opens. Only a
    /// buffer whose storage is shorter than `headroom` is extended.
    #[inline]
    pub fn reset(&mut self, headroom: usize) {
        if self.storage.len() < headroom {
            self.storage.resize(headroom, 0);
        } else {
            self.storage.truncate(headroom);
        }
        self.offset = headroom;
    }

    /// Bytes of storage this buffer owns (headroom + data + spare
    /// capacity): what a recycled buffer can hold without reallocating.
    pub fn storage_capacity(&self) -> usize {
        self.storage.capacity()
    }

    /// Truncates the packet to `len` bytes (drops the tail).
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.storage.truncate(self.offset + len);
        }
    }

    /// Opens `extra` more bytes of headroom by shifting the packet towards
    /// the tail, in place: a recycled buffer that has grown once has the
    /// capacity and does not allocate again.
    fn grow_headroom(&mut self, extra: usize) {
        let end = self.storage.len();
        self.storage.resize(end + extra, 0);
        self.storage.copy_within(self.offset..end, self.offset + extra);
        self.offset += extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_data_roundtrip() {
        let mut buf = PacketBuf::new();
        buf.append(&[1, 2, 3, 4]);
        assert_eq!(buf.data(), &[1, 2, 3, 4]);
        assert_eq!(buf.len(), 4);
        assert!(!buf.is_empty());
    }

    #[test]
    fn push_header_prepends() {
        let mut buf = PacketBuf::from_slice(&[9, 9]);
        buf.push_header(&[1, 2, 3]);
        assert_eq!(buf.data(), &[1, 2, 3, 9, 9]);
    }

    #[test]
    fn push_header_grows_headroom_when_exhausted() {
        let mut buf = PacketBuf::with_headroom(2);
        buf.append(&[7]);
        buf.push_header(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(buf.data(), &[1, 2, 3, 4, 5, 6, 7, 8, 7]);
    }

    #[test]
    fn pull_removes_front_bytes() {
        let mut buf = PacketBuf::from_slice(&[1, 2, 3, 4]);
        buf.pull(2).unwrap();
        assert_eq!(buf.data(), &[3, 4]);
        assert!(buf.pull(10).is_err());
    }

    #[test]
    fn truncate_drops_tail_only() {
        let mut buf = PacketBuf::from_slice(&[1, 2, 3, 4]);
        buf.truncate(2);
        assert_eq!(buf.data(), &[1, 2]);
        buf.truncate(10);
        assert_eq!(buf.data(), &[1, 2]);
    }

    /// `insert` / `remove` edit the middle of the packet by moving only
    /// the bytes in front of the edit; the tail keeps its address.
    #[test]
    fn insert_and_remove_move_only_the_front() {
        let mut buf = PacketBuf::from_slice(&[1, 2, 3, 4, 5, 6]);
        let tail = buf.data()[3..].as_ptr();
        buf.insert(3, 2);
        assert_eq!(buf.data(), &[1, 2, 3, 0, 0, 4, 5, 6]);
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM - 2);
        assert_eq!(buf.data()[5..].as_ptr(), tail);
        buf.remove(1, 3);
        assert_eq!(buf.data(), &[1, 0, 4, 5, 6]);
        assert_eq!(buf.data()[2..].as_ptr(), tail);
        buf.remove(0, 2);
        assert_eq!(buf.data(), &[4, 5, 6]);
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM + 3);
        // Past the headroom, the packet moves once, into a larger one.
        let mut buf = PacketBuf::with_headroom(2);
        buf.append(&[7, 8, 9]);
        buf.insert(1, 3);
        assert_eq!(buf.data(), &[7, 0, 0, 0, 8, 9]);
        assert!(buf.headroom() >= DEFAULT_HEADROOM - 3);
    }

    #[test]
    fn headroom_tracks_pushes_and_pulls() {
        let mut buf = PacketBuf::with_headroom(16);
        assert_eq!(buf.headroom(), 16);
        buf.push_header(&[0; 10]);
        assert_eq!(buf.headroom(), 6);
        buf.pull(4).unwrap();
        assert_eq!(buf.headroom(), 10);
    }

    /// `reset` keeps the allocation, restores the headroom and leaves no
    /// byte of the previous packet reachable through `data()` — without
    /// writing the headroom.
    #[test]
    fn reset_keeps_the_allocation_and_hides_the_previous_packet() {
        let mut buf = PacketBuf::from_slice(&[0xee; 1400]);
        buf.push_header(&[0xaa; 40]);
        let capacity = buf.storage_capacity();
        buf.reset(DEFAULT_HEADROOM);
        assert!(buf.is_empty());
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM);
        assert_eq!(buf.storage_capacity(), capacity, "the allocation is reused");
        buf.append(&[1, 2, 3]);
        assert_eq!(buf.data(), &[1, 2, 3]);
        // The headroom still holds the old header; a push overwrites
        // exactly what it opens.
        buf.push_header(&[7, 8]);
        assert_eq!(buf.data(), &[7, 8, 1, 2, 3]);
    }

    /// The `resize` arm: storage shorter than the requested headroom (a
    /// buffer built with less, or one whose packet was pulled away).
    #[test]
    fn reset_extends_storage_shorter_than_the_headroom() {
        let mut buf = PacketBuf::with_headroom(8);
        buf.append(&[5; 4]);
        buf.reset(DEFAULT_HEADROOM);
        assert!(buf.is_empty());
        assert_eq!(buf.headroom(), DEFAULT_HEADROOM);
        buf.append(&[9]);
        buf.push_header(&[0xab; DEFAULT_HEADROOM]);
        assert_eq!(buf.headroom(), 0);
        assert_eq!(buf.len(), DEFAULT_HEADROOM + 1);
        assert_eq!(buf.data()[DEFAULT_HEADROOM], 9);
    }
}
