//! Batched socket I/O behind a small trait seam — the daemon's packet
//! front-end.
//!
//! A deployable datapath reads frames from real sockets, and it reads
//! them in **batches**: `recvmmsg` moves a burst of datagrams per
//! syscall, and every serious userspace datapath (DPDK, AF_XDP, the
//! Solana streamer) amortises its syscall cost the same way. This module
//! gives the repository that shape without committing the daemon to one
//! transport:
//!
//! * [`FrameBatch`] is the reusable burst buffer: a fixed set of
//!   fixed-size datagram slots allocated once, filled by a receiver and
//!   drained as `&[u8]` frames, one per slot or several when the kernel
//!   coalesced a run. After construction it never allocates —
//!   the property the pool's zero-allocation byte-ingestion path
//!   ([`enqueue_bytes_all`](https://docs.rs) in `seg6-runtime`) wants
//!   from its feeder.
//! * [`PacketRx`] / [`PacketTx`] are the I/O traits: object-safe, so a
//!   daemon can hold `Box<dyn PacketRx>` per receive queue and swap the
//!   transport per deployment — and so tests can run the whole daemon on
//!   an in-memory link with deterministic delivery.
//! * [`mmsg::MmsgRx`] / [`mmsg::MmsgTx`] are the kernel transport: a
//!   whole burst per `recvmmsg`/`sendmmsg` syscall. Linux only; elsewhere
//!   their constructors report [`io::ErrorKind::Unsupported`].
//! * [`mem_link`] builds the in-memory fake: a bounded SPSC-style frame
//!   queue with buffer recycling, so steady-state traffic through the
//!   fake performs zero allocations too (the daemon's `alloc-counter`
//!   gate runs over it).

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[allow(unsafe_code)]
pub mod mmsg;

/// Default size of one receive slot: enough for any packet this lab
/// builds, far below a jumbo frame.
pub const DEFAULT_FRAME_CAP: usize = 2048;

/// Segments per datagram this module plans for: the kernel's cap for a
/// UDP GSO send (`UDP_MAX_SEGMENTS`, 64 since 4.18; some newer kernels
/// allow more) and for a GRO receive (`UDP_GRO_CNT_MAX`). `MmsgTx` sends
/// at most this many, and a [`FrameBatch`] reserves this many frame
/// entries per slot; a datagram with more still arrives whole.
pub(crate) const MAX_SEGMENTS: usize = 64;

/// A reusable burst of received frames.
///
/// **Slots and frames.** The batch has `capacity` slots of `frame_cap`
/// bytes, allocated once at construction. Each slot takes one received
/// datagram, and a datagram holds one frame or, when the kernel
/// coalesced a run (UDP GRO, see [`mmsg`]), several frames cut at its
/// segment size. The frames stay where the kernel wrote them; the batch
/// keeps an index of `(offset, len)` ranges over them, preallocated for
/// 64 frames per slot (the kernel's segment cap). So
/// [`FrameBatch::capacity`] counts slots, and [`FrameBatch::len`] counts
/// frames and may exceed it.
///
/// A GRO datagram can be longer than its slot; the part past the slot
/// lands in the batch's *spill*, an anonymous mapping that costs no
/// resident memory until such a datagram arrives and is released again
/// by [`FrameBatch::clear`]. Every frame is still a single slice.
///
/// An in-memory receiver copies frames in with [`FrameBatch::push`];
/// consumers iterate [`FrameBatch::frames`] and [`FrameBatch::clear`] for
/// the next burst. No method allocates after construction.
#[derive(Debug)]
pub struct FrameBatch {
    /// Slot storage, `capacity * frame_cap` bytes, slot `i` at
    /// `i * frame_cap`.
    storage: Vec<u8>,
    /// Each committed frame as `(start, len)`. A start below
    /// `storage.len()` is an offset into the slot storage; one at or past
    /// it is `storage.len()` plus an offset into the spill.
    frames: Vec<(usize, usize)>,
    /// Slots holding a committed datagram.
    slots: usize,
    /// Where datagrams longer than their slot continue.
    spill: mmsg::Spill,
    frame_cap: usize,
    capacity: usize,
}

impl FrameBatch {
    /// A batch of `capacity` slots, each holding up to `frame_cap` bytes.
    pub fn new(capacity: usize, frame_cap: usize) -> Self {
        let capacity = capacity.max(1);
        let frame_cap = frame_cap.max(1);
        FrameBatch {
            storage: vec![0; capacity * frame_cap],
            frames: Vec::with_capacity(capacity * MAX_SEGMENTS),
            slots: 0,
            spill: mmsg::Spill::default(),
            frame_cap,
            capacity,
        }
    }

    /// A batch of `capacity` slots of [`DEFAULT_FRAME_CAP`] bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        FrameBatch::new(capacity, DEFAULT_FRAME_CAP)
    }

    /// Number of committed frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frame has been committed.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether every slot is committed (the burst is complete).
    pub fn is_full(&self) -> bool {
        self.slots == self.capacity
    }

    /// Slot count: the most datagrams one burst takes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-slot byte capacity, and the longest frame the batch accepts.
    pub fn frame_cap(&self) -> usize {
        self.frame_cap
    }

    /// Forgets every committed frame (the storage is reused) and hands
    /// back to the kernel any spill pages the last burst touched.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.slots = 0;
        self.spill.release();
    }

    /// Copies one frame into the next slot (truncating at the slot
    /// capacity). Returns `false` when the burst is full.
    pub fn push(&mut self, frame: &[u8]) -> bool {
        if self.is_full() {
            return false;
        }
        let start = self.slots * self.frame_cap;
        let len = frame.len().min(self.frame_cap);
        self.storage[start..start + len].copy_from_slice(&frame[..len]);
        self.frames.push((start, len));
        self.slots += 1;
        true
    }

    /// Commits the datagram a receiver wrote into the next slot and, past
    /// its end, into that slot's span of the spill: `len` bytes cut into
    /// frames of `segment` bytes and a shorter tail, or one frame when
    /// `segment` is 0. A frame longer than `frame_cap` is dropped. A frame
    /// that starts in the slot and ends in the spill has its head copied
    /// in front of its tail, so it reads as one slice. Returns how many
    /// frames were dropped.
    fn commit_datagram(&mut self, len: usize, segment: usize) -> u64 {
        let slot = self.slots;
        debug_assert!(slot < self.capacity, "commit past the last slot");
        self.slots += 1;
        let segment = if segment == 0 { len } else { segment };
        let (slot_at, spill_at) = (slot * self.frame_cap, slot * mmsg::DATAGRAM_SPAN);
        if len > self.frame_cap {
            self.spill.touch();
        }
        let mut dropped = 0;
        let mut at = 0;
        loop {
            let n = segment.min(len - at);
            if n > self.frame_cap {
                dropped += 1;
            } else if at + n <= self.frame_cap {
                self.frames.push((slot_at + at, n));
            } else {
                if at < self.frame_cap {
                    let head = &self.storage[slot_at + at..slot_at + self.frame_cap];
                    self.spill.bytes_mut(spill_at + at, head.len()).copy_from_slice(head);
                }
                self.frames.push((self.storage.len() + spill_at + at, n));
            }
            at += n;
            if at >= len {
                return dropped;
            }
        }
    }

    /// The bytes of one `(start, len)` index entry.
    fn bytes(&self, (start, len): (usize, usize)) -> &[u8] {
        match start.checked_sub(self.storage.len()) {
            None => &self.storage[start..start + len],
            Some(at) => self.spill.bytes(at, len),
        }
    }

    /// The committed frames, in arrival order.
    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        self.frames.iter().map(move |&range| self.bytes(range))
    }

    /// One committed frame by index.
    pub fn frame(&self, index: usize) -> &[u8] {
        self.bytes(self.frames[index])
    }
}

/// A batched, non-blocking frame receiver — one receive queue's intake.
///
/// Object-safe so daemons can hold one boxed receiver per queue and tests
/// can substitute [`mem_link`] fakes for UDP sockets.
pub trait PacketRx: Send {
    /// Appends available frames to `batch` until the batch is full or the
    /// source has nothing more, and returns how many frames were added.
    /// Never blocks: an idle source returns `Ok(0)`.
    fn fill(&mut self, batch: &mut FrameBatch) -> io::Result<usize>;

    /// Receive syscalls issued so far (0 for syscall-free transports).
    /// Lets benches compare per-burst syscall cost across backends.
    fn syscalls(&self) -> u64 {
        0
    }

    /// Datagrams read so far. Equal to the frames read unless the
    /// transport takes a run of frames as one datagram (UDP GRO), so
    /// frames ÷ datagrams is the coalescing.
    fn datagrams(&self) -> u64;

    /// Frames dropped so far because they were longer than a batch slot:
    /// a cut packet is never committed as a frame.
    fn truncated(&self) -> u64;
}

/// A batched frame transmitter — one egress destination.
///
/// [`PacketTx::send_frame`] hands over one frame; callers emit a whole
/// flush window per TX stage through [`PacketTx::send_frames`], which a
/// gathering transport submits with one `sendmmsg`.
pub trait PacketTx: Send {
    /// Sends one frame. `Ok(false)` means the frame was dropped —
    /// backpressure (a full link) or a transient transport condition (see
    /// [`transient_send_error`]); errors are persistent transport failures.
    fn send_frame(&mut self, frame: &[u8]) -> io::Result<bool>;

    /// Sends a whole burst and returns how many frames the transport
    /// accepted; frames it did not accept were dropped. The default loops
    /// [`PacketTx::send_frame`]; gathering transports override this with
    /// one `sendmmsg` per call.
    fn send_frames(&mut self, frames: &[&[u8]]) -> io::Result<usize> {
        let mut sent = 0;
        for frame in frames {
            if self.send_frame(frame)? {
                sent += 1;
            }
        }
        Ok(sent)
    }

    /// Send syscalls issued so far (0 for syscall-free transports).
    fn syscalls(&self) -> u64 {
        0
    }
}

/// Whether a send error is a transient per-datagram condition that a
/// datapath counts as a *drop* and keeps going, rather than a transport
/// failure that should abort the burst.
///
/// Connected UDP surfaces ICMP errors from an earlier datagram on the
/// *next* send: the peer being momentarily gone (`ECONNREFUSED`) or
/// unroutable (`EHOSTUNREACH`/`ENETUNREACH`) is exactly the packet loss a
/// NIC would eat silently, not a reason to stop transmitting.
/// [`mmsg::MmsgTx`] drops on exactly these kinds.
pub fn transient_send_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::HostUnreachable
            | io::ErrorKind::NetworkUnreachable
    )
}

/// Shared state of one in-memory link: a bounded queue of filled frames
/// plus a free list recycling their storage.
#[derive(Debug, Default)]
struct MemLinkState {
    filled: VecDeque<Vec<u8>>,
    free: Vec<Vec<u8>>,
}

/// Locks a link's state. A panic elsewhere cannot leave the queue half
/// edited, so a poisoned lock still guards consistent state.
fn lock(state: &Mutex<MemLinkState>) -> MutexGuard<'_, MemLinkState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One direction of an in-memory link (see [`mem_link`]).
#[derive(Debug)]
pub struct MemTx {
    state: Arc<Mutex<MemLinkState>>,
    capacity: usize,
}

/// The receive end of an in-memory link (see [`mem_link`]).
#[derive(Debug)]
pub struct MemRx {
    state: Arc<Mutex<MemLinkState>>,
    /// Frames taken off the link, delivered or dropped.
    frames: u64,
    truncated: u64,
}

/// Builds an in-memory frame link holding at most `capacity` undelivered
/// frames: the test/bench stand-in for a UDP socket pair. Delivery is
/// FIFO and lossless up to the bound; a send beyond it reports
/// backpressure (`Ok(false)`), like a full ring. Frame storage is
/// recycled through a free list, so steady-state traffic allocates
/// nothing once every buffer has been minted.
pub fn mem_link(capacity: usize) -> (MemTx, MemRx) {
    let state = Arc::new(Mutex::new(MemLinkState::default()));
    (MemTx { state: Arc::clone(&state), capacity: capacity.max(1) }, MemRx { state, frames: 0, truncated: 0 })
}

impl PacketTx for MemTx {
    fn send_frame(&mut self, frame: &[u8]) -> io::Result<bool> {
        let mut state = lock(&self.state);
        if state.filled.len() >= self.capacity {
            return Ok(false);
        }
        let mut buf = state.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(frame);
        state.filled.push_back(buf);
        Ok(true)
    }
}

impl PacketRx for MemRx {
    fn fill(&mut self, batch: &mut FrameBatch) -> io::Result<usize> {
        let mut state = lock(&self.state);
        let mut got = 0;
        while !batch.is_full() {
            match state.filled.pop_front() {
                // Like a socket receiver, never commit a cut frame.
                Some(buf) if buf.len() > batch.frame_cap() => {
                    self.truncated += 1;
                    state.free.push(buf);
                }
                Some(buf) => {
                    batch.push(&buf);
                    state.free.push(buf);
                    got += 1;
                }
                None => break,
            }
            self.frames += 1;
        }
        Ok(got)
    }

    fn datagrams(&self) -> u64 {
        self.frames
    }

    fn truncated(&self) -> u64 {
        self.truncated
    }
}

impl MemRx {
    /// Undelivered frames currently queued on the link.
    pub fn backlog(&self) -> usize {
        lock(&self.state).filled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_batch_fills_and_drains_in_place() {
        let mut batch = FrameBatch::new(3, 8);
        assert!(batch.push(&[1, 2, 3]));
        assert!(batch.push(&[9, 9]));
        assert!(batch.push(&[0xaa; 16]), "oversized frames truncate at the slot cap");
        assert!(batch.is_full());
        assert!(!batch.push(&[7]));
        let frames: Vec<&[u8]> = batch.frames().collect();
        assert_eq!(frames, vec![&[1u8, 2, 3][..], &[9, 9], &[0xaa; 8]]);
        assert_eq!(batch.frame(1), &[9, 9]);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.frames().count(), 0);
    }

    #[test]
    fn mem_link_is_bounded_fifo_with_recycling() {
        let (mut tx, mut rx) = mem_link(4);
        for i in 0..4u8 {
            assert!(tx.send_frame(&[i; 10]).unwrap());
        }
        assert!(!tx.send_frame(&[9; 10]).unwrap(), "full link reports backpressure");
        assert_eq!(rx.backlog(), 4);

        let mut batch = FrameBatch::new(8, 16);
        assert_eq!(rx.fill(&mut batch).unwrap(), 4);
        let frames: Vec<&[u8]> = batch.frames().collect();
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(*frame, &[i as u8; 10][..]);
        }
        assert_eq!(rx.backlog(), 0);
        // Storage went to the free list: the next send reuses it.
        assert!(tx.send_frame(&[7; 10]).unwrap());
        assert_eq!(tx.state.lock().unwrap().free.len(), 3);
    }

    #[test]
    fn transient_send_errors_count_as_drops_not_aborts() {
        use io::ErrorKind as K;
        for kind in [K::ConnectionRefused, K::ConnectionReset, K::HostUnreachable, K::NetworkUnreachable] {
            assert!(transient_send_error(&io::Error::from(kind)), "{kind:?} is a drop");
        }
        for kind in [K::WouldBlock, K::PermissionDenied, K::InvalidInput, K::AddrNotAvailable] {
            assert!(!transient_send_error(&io::Error::from(kind)), "{kind:?} is not a drop");
        }
    }

    #[test]
    fn mem_link_drops_and_counts_frames_larger_than_a_slot() {
        let (mut tx, mut rx) = mem_link(4);
        for frame in [&[1u8; 8][..], &[2; 20], &[3; 16]] {
            assert!(tx.send_frame(frame).unwrap());
        }
        let mut batch = FrameBatch::new(4, 16);
        assert_eq!(rx.fill(&mut batch).unwrap(), 2);
        assert_eq!(batch.frames().collect::<Vec<_>>(), vec![&[1u8; 8][..], &[3; 16]]);
        assert_eq!(rx.truncated(), 1);
    }

    #[test]
    fn batch_respects_partial_room() {
        let (mut tx, mut rx) = mem_link(8);
        for i in 0..8u8 {
            tx.send_frame(&[i]).unwrap();
        }
        let mut batch = FrameBatch::new(3, 16);
        assert_eq!(rx.fill(&mut batch).unwrap(), 3, "burst stops at batch capacity");
        assert_eq!(rx.backlog(), 5);
    }
}
