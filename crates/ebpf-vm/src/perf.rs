//! Perf-event ring buffers.
//!
//! The paper's delay-monitoring use case (§4.1) pushes timestamps from the
//! `End.DM` eBPF program to a user-space daemon through perf events, because
//! "an eBPF program is not capable of sending out-of-band replies". This
//! module reproduces the mechanism with the kernel's actual shape: a
//! `BPF_MAP_TYPE_PERF_EVENT_ARRAY` owns **one ring per CPU**, a program
//! writes through `bpf_perf_event_output` into the ring selected by the
//! helper's CPU-index argument (usually `BPF_F_CURRENT_CPU`, i.e. the
//! worker the program runs on), and user-space daemons drain the rings.
//! Per-CPU rings are what make event output lock-free between worker
//! shards in the multi-queue runtime.
//!
//! Like the kernel's, each ring's storage is allocated once, when the map
//! is created: a record is copied into a fixed slot of
//! [`PERF_RECORD_MAX`] bytes and parsed from there by the daemon
//! ([`PerfEventBuffer::drain_cpu_with`]), so neither the program's output
//! nor the daemon's drain allocates. The slots are zeroed pages the kernel
//! maps on first write, and a ring that a drain empties starts over
//! at its first slot, so a ring touches only the pages its largest
//! backlog needs. A full ring refuses the new record and counts it lost,
//! as the kernel's does.
// The slot storage is a page mapping of its own (`ZeroedPages`).
#![allow(unsafe_code)]

use core::ffi::c_void;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The largest record a ring slot holds, in bytes: room for every report
/// the shipped programs emit (the 104-byte `End.OAMP` report is the
/// largest). A longer record is refused and counted lost.
pub const PERF_RECORD_MAX: usize = 128;

/// A single record pushed by `bpf_perf_event_output`, as user space reads
/// it one at a time ([`PerfEventBuffer::poll`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfEvent {
    /// Logical CPU (worker shard) the event was emitted from.
    pub cpu: u32,
    /// The raw bytes the program emitted.
    pub data: Vec<u8>,
}

/// One CPU's ring: `capacity` slots of [`PERF_RECORD_MAX`] bytes
/// allocated up front, of which `len` records are queued from slot `head`
/// on (wrapping).
#[derive(Debug)]
struct Ring {
    slots: ZeroedPages,
    lens: Box<[u8]>,
    head: usize,
    len: usize,
    lost: u64,
    total: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: ZeroedPages::new(
                capacity.checked_mul(PERF_RECORD_MAX).expect("a ring of addressable size"),
            ),
            lens: vec![0u8; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            lost: 0,
            total: 0,
        }
    }

    /// Reserves the next slot for a `len`-byte record and lets `fill`
    /// write it; the record is queued only if `fill` succeeds. Refused —
    /// and counted lost — when the ring is full or the record does not
    /// fit a slot.
    fn output(&mut self, len: usize, fill: impl FnOnce(&mut [u8]) -> bool) -> bool {
        if self.len == self.lens.len() || len > PERF_RECORD_MAX {
            self.total += 1;
            self.lost += 1;
            return false;
        }
        let slot = (self.head + self.len) % self.lens.len();
        if !fill(&mut self.slots.bytes_mut()[slot * PERF_RECORD_MAX..][..len]) {
            return false;
        }
        self.lens[slot] = len as u8;
        self.len += 1;
        self.total += 1;
        true
    }

    /// Hands the oldest `n` records to `f`, oldest first, and removes
    /// them; an emptied ring starts over at its first slot.
    fn consume(&mut self, n: usize, mut f: impl FnMut(&[u8])) -> usize {
        let n = n.min(self.len);
        for i in 0..n {
            let slot = (self.head + i) % self.lens.len();
            f(&self.slots.bytes()[slot * PERF_RECORD_MAX..][..usize::from(self.lens[slot])]);
        }
        self.len -= n;
        self.head = if self.len == 0 { 0 } else { (self.head + n) % self.lens.len() };
        n
    }
}

/// A ring's slot storage: zero-filled memory whose pages cost nothing
/// until a record is written into them. On Linux it is a private
/// anonymous mapping of its own, not a heap block: once glibc has raised
/// its mmap threshold, a large `calloc` comes out of the heap and is
/// zeroed page by page on every construction.
struct ZeroedPages {
    #[cfg(target_os = "linux")]
    base: *mut c_void,
    #[cfg(target_os = "linux")]
    len: usize,
    #[cfg(not(target_os = "linux"))]
    bytes: Box<[u8]>,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

// SAFETY: the mapping is owned by exactly one `ZeroedPages` and reached
// only through `&self` / `&mut self`, like a `Box<[u8]>`.
#[cfg(target_os = "linux")]
unsafe impl Send for ZeroedPages {}
// SAFETY: see `Send` above.
#[cfg(target_os = "linux")]
unsafe impl Sync for ZeroedPages {}

impl ZeroedPages {
    #[cfg(target_os = "linux")]
    fn new(len: usize) -> Self {
        const PROT_READ_WRITE: i32 = 1 | 2;
        const MAP_PRIVATE_ANONYMOUS_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;
        let len = len.max(1);
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let base = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS_NORESERVE, -1, 0)
        };
        assert!(base as isize != -1, "mmap of {len} bytes of perf ring failed");
        ZeroedPages { base, len }
    }

    #[cfg(not(target_os = "linux"))]
    fn new(len: usize) -> Self {
        ZeroedPages { bytes: vec![0; len].into_boxed_slice() }
    }

    #[cfg(target_os = "linux")]
    fn bytes(&self) -> &[u8] {
        // SAFETY: `base` maps `len` readable bytes for the life of `self`.
        unsafe { std::slice::from_raw_parts(self.base.cast::<u8>(), self.len) }
    }

    #[cfg(target_os = "linux")]
    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `bytes`, and `&mut self` makes the access unique.
        unsafe { std::slice::from_raw_parts_mut(self.base.cast::<u8>(), self.len) }
    }

    #[cfg(not(target_os = "linux"))]
    fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    #[cfg(not(target_os = "linux"))]
    fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

#[cfg(target_os = "linux")]
impl Drop for ZeroedPages {
    fn drop(&mut self) {
        // SAFETY: `base` / `len` are exactly the mapping made in `new`, and
        // nothing borrows it any more.
        unsafe {
            munmap(self.base, self.len);
        }
    }
}

impl std::fmt::Debug for ZeroedPages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZeroedPages").field("len", &self.bytes().len()).finish()
    }
}

/// Locks a ring. A callback that panicked while the ring was held (a
/// drain's, say) left it as it was before the call — its counts move only
/// once the callback has returned — so the guard is taken back rather
/// than the panic passed on.
fn lock(ring: &Mutex<Ring>) -> MutexGuard<'_, Ring> {
    ring.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A set of bounded per-CPU rings of perf events.
///
/// When a ring is full the new record is refused and counted lost, which
/// is the observable behaviour of an overrun kernel ring buffer. The
/// aggregate accessors ([`poll`](Self::poll), [`drain`](Self::drain),
/// [`len`](Self::len), ...) see every ring; the `_cpu` variants address a
/// single worker's ring, which is what a daemon pinned to one shard reads.
#[derive(Debug)]
pub struct PerfEventBuffer {
    rings: Vec<Mutex<Ring>>,
}

impl PerfEventBuffer {
    /// Creates a single-ring buffer holding at most `capacity` events —
    /// the single-CPU shape used outside the multi-queue runtime.
    pub fn new(capacity: usize) -> Self {
        Self::with_rings(capacity, 1)
    }

    /// Creates one ring of `capacity` events per CPU for `num_cpus` CPUs.
    pub fn with_rings(capacity: usize, num_cpus: u32) -> Self {
        PerfEventBuffer {
            rings: (0..num_cpus.max(1)).map(|_| Mutex::new(Ring::new(capacity.max(1)))).collect(),
        }
    }

    /// Number of per-CPU rings.
    pub fn num_rings(&self) -> u32 {
        self.rings.len() as u32
    }

    /// `cpu`'s ring, locked. Like per-CPU maps, out-of-range ids wrap
    /// instead of faulting.
    fn ring(&self, cpu: u32) -> MutexGuard<'_, Ring> {
        lock(&self.rings[cpu as usize % self.rings.len()])
    }

    /// Writes a `len`-byte record into `cpu`'s ring with `fill`, which
    /// copies the bytes straight into the ring's slot and reports whether
    /// it could: the `bpf_perf_event_output` path, which reads them out of
    /// the program's memory. Returns whether the record was queued; a full
    /// ring or an oversized record is refused and counted lost, a failed
    /// `fill` leaves no trace.
    pub fn output(&self, cpu: u32, len: usize, fill: impl FnOnce(&mut [u8]) -> bool) -> bool {
        self.ring(cpu).output(len, fill)
    }

    /// Pushes a copy of `data` into `cpu`'s ring, as
    /// [`output`](Self::output) does.
    pub fn push_bytes(&self, cpu: u32, data: &[u8]) -> bool {
        self.output(cpu, data.len(), |slot| {
            slot.copy_from_slice(data);
            true
        })
    }

    /// Pushes an event into the ring of `event.cpu`, as
    /// [`push_bytes`](Self::push_bytes) does.
    pub fn push(&self, event: PerfEvent) -> bool {
        self.push_bytes(event.cpu, &event.data)
    }

    /// Hands every record queued in `cpu`'s ring to `f`, oldest first, and
    /// removes them; returns how many there were. This is the drain a
    /// worker shard's daemon runs after every batch: `f` reads each record
    /// where it lies, so nothing is copied or allocated, and the ring's
    /// lock is held for the drain alone.
    pub fn drain_cpu_with(&self, cpu: u32, f: impl FnMut(&[u8])) -> usize {
        self.ring(cpu).consume(usize::MAX, f)
    }

    /// Drains every ring, in CPU order, as
    /// [`drain_cpu_with`](Self::drain_cpu_with) does; `f` also gets the
    /// ring's CPU.
    pub fn drain_with(&self, mut f: impl FnMut(u32, &[u8])) -> usize {
        (0..self.num_rings()).map(|cpu| self.drain_cpu_with(cpu, |data| f(cpu, data))).sum()
    }

    /// Removes and returns the oldest event across all rings (scanning in
    /// CPU order), if any.
    pub fn poll(&self) -> Option<PerfEvent> {
        (0..self.num_rings()).find_map(|cpu| self.poll_cpu(cpu))
    }

    /// Removes and returns the oldest event of `cpu`'s ring, if any.
    pub fn poll_cpu(&self, cpu: u32) -> Option<PerfEvent> {
        let mut event = None;
        self.ring(cpu).consume(1, |data| event = Some(PerfEvent { cpu, data: data.to_vec() }));
        event
    }

    /// Drains every pending event from every ring, in CPU order.
    pub fn drain(&self) -> Vec<PerfEvent> {
        let mut events = Vec::new();
        self.drain_with(|cpu, data| events.push(PerfEvent { cpu, data: data.to_vec() }));
        events
    }

    /// Drains every pending event of `cpu`'s ring.
    pub fn drain_cpu(&self, cpu: u32) -> Vec<PerfEvent> {
        let mut events = Vec::new();
        self.drain_cpu_with(cpu, |data| events.push(PerfEvent { cpu, data: data.to_vec() }));
        events
    }

    /// Number of events `cpu`'s ring refused (the kernel's lost count).
    pub fn dropped_cpu(&self, cpu: u32) -> u64 {
        self.ring(cpu).lost
    }

    /// Total number of events ever pushed to `cpu`'s ring (including
    /// refused ones).
    pub fn total_pushed_cpu(&self, cpu: u32) -> u64 {
        self.ring(cpu).total
    }

    /// Number of events currently queued across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|ring| lock(ring).len).sum()
    }

    /// Number of events queued in `cpu`'s ring.
    pub fn len_cpu(&self, cpu: u32) -> usize {
        self.ring(cpu).len
    }

    /// Whether no events are queued in any ring.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events refused because a ring was full, across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|ring| lock(ring).lost).sum()
    }

    /// Total number of events ever pushed (including refused ones).
    pub fn total_pushed(&self) -> u64 {
        self.rings.iter().map(|ring| lock(ring).total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_poll_in_fifo_order() {
        let buf = PerfEventBuffer::new(4);
        buf.push(PerfEvent { cpu: 0, data: vec![1] });
        buf.push(PerfEvent { cpu: 0, data: vec![2] });
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.poll().unwrap().data, vec![1]);
        assert_eq!(buf.poll().unwrap().data, vec![2]);
        assert!(buf.poll().is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn a_full_ring_refuses_the_record_and_counts_it_lost() {
        let buf = PerfEventBuffer::new(2);
        let accepted: Vec<bool> = (0..5u8).map(|i| buf.push(PerfEvent { cpu: 0, data: vec![i] })).collect();
        assert_eq!(accepted, [true, true, false, false, false]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        assert_eq!(buf.total_pushed(), 5);
        let remaining = buf.drain();
        assert_eq!(remaining.iter().map(|e| e.data[0]).collect::<Vec<_>>(), vec![0, 1]);
        // A record longer than a slot is refused the same way.
        assert!(!buf.push_bytes(0, &[0; PERF_RECORD_MAX + 1]));
        assert!(buf.push_bytes(0, &[7; PERF_RECORD_MAX]));
        assert_eq!(buf.dropped(), 4);
        assert_eq!(buf.poll().unwrap().data, vec![7; PERF_RECORD_MAX]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let buf = PerfEventBuffer::new(0);
        buf.push(PerfEvent { cpu: 0, data: vec![1] });
        buf.push(PerfEvent { cpu: 0, data: vec![2] });
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.poll().unwrap().data, vec![1]);
    }

    #[test]
    fn events_route_to_their_cpus_ring() {
        let buf = PerfEventBuffer::with_rings(2, 3);
        assert_eq!(buf.num_rings(), 3);
        buf.push(PerfEvent { cpu: 0, data: vec![0] });
        buf.push(PerfEvent { cpu: 2, data: vec![2] });
        buf.push(PerfEvent { cpu: 2, data: vec![22] });
        assert_eq!(buf.len_cpu(0), 1);
        assert_eq!(buf.len_cpu(1), 0);
        assert_eq!(buf.len_cpu(2), 2);
        assert_eq!(buf.poll_cpu(2).unwrap().data, vec![2]);
        assert_eq!(buf.drain_cpu(2).len(), 1);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn per_cpu_overruns_are_independent() {
        // Filling CPU 1's ring must not cost CPU 0's ring a record.
        let buf = PerfEventBuffer::with_rings(1, 2);
        buf.push(PerfEvent { cpu: 0, data: vec![42] });
        for i in 0..3u8 {
            buf.push(PerfEvent { cpu: 1, data: vec![i] });
        }
        assert_eq!(buf.dropped(), 2);
        assert_eq!(buf.poll_cpu(0).unwrap().data, vec![42]);
        assert_eq!(buf.poll_cpu(1).unwrap().data, vec![0]);
    }

    #[test]
    fn drain_cpu_with_reads_records_in_place_and_restarts_the_ring() {
        let buf = PerfEventBuffer::with_rings(3, 2);
        buf.push_bytes(0, &[1]);
        buf.push_bytes(1, &[2, 2]);
        buf.push_bytes(1, &[3, 3, 3]);
        let mut seen = Vec::new();
        assert_eq!(buf.drain_cpu_with(1, |data| seen.push(data.to_vec())), 2);
        assert_eq!(buf.drain_cpu_with(1, |data| seen.push(data.to_vec())), 0);
        assert_eq!(seen, [vec![2, 2], vec![3, 3, 3]]);
        // Ring 0 is untouched.
        assert_eq!(buf.len_cpu(0), 1);
        // A poll that leaves a record behind keeps the order across the
        // wrap; a drain that empties the ring starts it over at slot 0.
        for i in 4..7u8 {
            assert!(buf.push_bytes(1, &[i]));
        }
        assert_eq!(buf.poll_cpu(1).unwrap().data, vec![4]);
        assert!(buf.push_bytes(1, &[7]));
        let mut order = Vec::new();
        buf.drain_with(|cpu, data| order.push((cpu, data[0])));
        assert_eq!(order, [(0, 1), (1, 5), (1, 6), (1, 7)]);
        assert_eq!(buf.ring(1).head, 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn a_failed_fill_queues_nothing() {
        let buf = PerfEventBuffer::new(2);
        assert!(!buf.output(0, 4, |_| false));
        assert_eq!((buf.len(), buf.total_pushed(), buf.dropped()), (0, 0, 0));
    }

    #[test]
    fn per_ring_counters_are_scoped_to_their_cpu() {
        let buf = PerfEventBuffer::with_rings(1, 2);
        buf.push(PerfEvent { cpu: 0, data: vec![0] });
        buf.push(PerfEvent { cpu: 1, data: vec![1] });
        buf.push(PerfEvent { cpu: 1, data: vec![2] });
        assert_eq!(buf.total_pushed_cpu(0), 1);
        assert_eq!(buf.total_pushed_cpu(1), 2);
        assert_eq!(buf.dropped_cpu(0), 0);
        assert_eq!(buf.dropped_cpu(1), 1);
    }

    #[test]
    fn aggregate_accessors_scan_all_rings() {
        let buf = PerfEventBuffer::with_rings(4, 2);
        buf.push(PerfEvent { cpu: 1, data: vec![1] });
        assert!(!buf.is_empty());
        // poll() finds the event even though ring 0 is empty.
        assert_eq!(buf.poll().unwrap().cpu, 1);
        // Out-of-range CPU ids wrap onto existing rings.
        buf.push(PerfEvent { cpu: 5, data: vec![9] });
        assert_eq!(buf.len_cpu(1), 1);
    }
}
