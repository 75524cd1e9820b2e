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

use parking_lot::Mutex;
use std::collections::VecDeque;

/// A single record pushed by `bpf_perf_event_output`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfEvent {
    /// Logical CPU (worker shard) the event was emitted from.
    pub cpu: u32,
    /// The raw bytes the program emitted.
    pub data: Vec<u8>,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<PerfEvent>,
    dropped: u64,
    total: u64,
}

/// A set of bounded per-CPU rings of perf events.
///
/// When a ring is full its oldest events are dropped and counted, which is
/// the observable behaviour of an overrun kernel ring buffer. The
/// aggregate accessors ([`poll`](Self::poll), [`drain`](Self::drain),
/// [`len`](Self::len), ...) see every ring; the `_cpu` variants address a
/// single worker's ring, which is what a daemon pinned to one shard reads.
#[derive(Debug)]
pub struct PerfEventBuffer {
    rings: Vec<Mutex<Ring>>,
    capacity: usize,
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
            rings: (0..num_cpus.max(1)).map(|_| Mutex::new(Ring::default())).collect(),
            capacity: capacity.max(1),
        }
    }

    /// Number of per-CPU rings.
    pub fn num_rings(&self) -> u32 {
        self.rings.len() as u32
    }

    fn ring(&self, cpu: u32) -> &Mutex<Ring> {
        // Like per-CPU maps, out-of-range ids wrap instead of faulting.
        &self.rings[cpu as usize % self.rings.len()]
    }

    /// Pushes an event into the ring of `event.cpu`, dropping that ring's
    /// oldest event if it is full.
    pub fn push(&self, event: PerfEvent) {
        let mut ring = self.ring(event.cpu).lock();
        ring.total += 1;
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// Pushes a copy of `data` into `cpu`'s ring, as
    /// [`push`](Self::push) does.
    pub fn push_bytes(&self, cpu: u32, data: &[u8]) {
        self.push(PerfEvent { cpu, data: data.to_vec() });
    }

    /// Removes and returns the oldest event across all rings (scanning in
    /// CPU order), if any.
    pub fn poll(&self) -> Option<PerfEvent> {
        self.rings.iter().find_map(|ring| ring.lock().events.pop_front())
    }

    /// Removes and returns the oldest event of `cpu`'s ring, if any.
    pub fn poll_cpu(&self, cpu: u32) -> Option<PerfEvent> {
        self.ring(cpu).lock().events.pop_front()
    }

    /// Drains every pending event from every ring, in CPU order.
    pub fn drain(&self) -> Vec<PerfEvent> {
        self.rings.iter().flat_map(|ring| ring.lock().events.drain(..).collect::<Vec<_>>()).collect()
    }

    /// Drains every pending event of `cpu`'s ring.
    pub fn drain_cpu(&self, cpu: u32) -> Vec<PerfEvent> {
        self.ring(cpu).lock().events.drain(..).collect()
    }

    /// Drains `cpu`'s ring into `out` (appending), returning how many
    /// events were taken. This is the batch-drain entry point worker-shard
    /// daemons call after every processed batch: the caller's buffer is
    /// reused across batches, so the steady state allocates nothing and
    /// the ring's lock is held only for the copy-out.
    pub fn take_cpu(&self, cpu: u32, out: &mut Vec<PerfEvent>) -> usize {
        let mut ring = self.ring(cpu).lock();
        let taken = ring.events.len();
        out.extend(ring.events.drain(..));
        taken
    }

    /// Number of events dropped because `cpu`'s ring was full.
    pub fn dropped_cpu(&self, cpu: u32) -> u64 {
        self.ring(cpu).lock().dropped
    }

    /// Total number of events ever pushed to `cpu`'s ring (including
    /// dropped ones).
    pub fn total_pushed_cpu(&self, cpu: u32) -> u64 {
        self.ring(cpu).lock().total
    }

    /// Number of events currently queued across all rings.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|ring| ring.lock().events.len()).sum()
    }

    /// Number of events queued in `cpu`'s ring.
    pub fn len_cpu(&self, cpu: u32) -> usize {
        self.ring(cpu).lock().events.len()
    }

    /// Whether no events are queued in any ring.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events dropped because a ring was full, across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|ring| ring.lock().dropped).sum()
    }

    /// Total number of events ever pushed (including dropped ones).
    pub fn total_pushed(&self) -> u64 {
        self.rings.iter().map(|ring| ring.lock().total).sum()
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
    fn overrun_drops_oldest_and_counts() {
        let buf = PerfEventBuffer::new(2);
        for i in 0..5u8 {
            buf.push(PerfEvent { cpu: 0, data: vec![i] });
        }
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.dropped(), 3);
        assert_eq!(buf.total_pushed(), 5);
        let remaining = buf.drain();
        assert_eq!(remaining.iter().map(|e| e.data[0]).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let buf = PerfEventBuffer::new(0);
        buf.push(PerfEvent { cpu: 0, data: vec![1] });
        buf.push(PerfEvent { cpu: 0, data: vec![2] });
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.poll().unwrap().data, vec![2]);
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
        // Filling CPU 1's ring must not evict CPU 0's events.
        let buf = PerfEventBuffer::with_rings(1, 2);
        buf.push(PerfEvent { cpu: 0, data: vec![42] });
        for i in 0..3u8 {
            buf.push(PerfEvent { cpu: 1, data: vec![i] });
        }
        assert_eq!(buf.dropped(), 2);
        assert_eq!(buf.poll_cpu(0).unwrap().data, vec![42]);
        assert_eq!(buf.poll_cpu(1).unwrap().data, vec![2]);
    }

    #[test]
    fn take_cpu_appends_into_a_reused_buffer() {
        let buf = PerfEventBuffer::with_rings(8, 2);
        buf.push(PerfEvent { cpu: 0, data: vec![1] });
        buf.push(PerfEvent { cpu: 1, data: vec![2] });
        buf.push(PerfEvent { cpu: 1, data: vec![3] });
        let mut out = Vec::new();
        assert_eq!(buf.take_cpu(1, &mut out), 2);
        assert_eq!(buf.take_cpu(1, &mut out), 0);
        // Ring 0 is untouched; the buffer accumulates across calls.
        assert_eq!(buf.take_cpu(0, &mut out), 1);
        assert_eq!(out.iter().map(|e| e.data[0]).collect::<Vec<_>>(), vec![2, 3, 1]);
        assert!(buf.is_empty());
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
