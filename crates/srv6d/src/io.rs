//! The daemon's transport seam: how tenant queues get their sockets.
//!
//! [`IoBackend`] is the factory the daemon asks for one receiver per
//! (tenant, RX queue) and one transmitter per (tenant, egress interface).
//! [`resolve_backend`] hands out the kernel one — `recvmmsg`/`sendmmsg`
//! bursts over [`netpkt::sockio::mmsg`], which needs Linux — and
//! [`MemBackend`] is the deterministic in-memory fabric lifecycle tests run
//! the whole daemon on: same daemon code, no network, every injected frame
//! observable on the far side.

use crate::config::IoBackendChoice;
use netpkt::sockio::mmsg::{MmsgRx, MmsgTx};
use netpkt::sockio::{mem_link, FrameBatch, MemRx, MemTx, PacketRx, PacketTx};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// Opens the sockets a tenant's datapath plugs into. One call per RX
/// queue and one per egress interface, at tenant bring-up (start or
/// reload).
pub trait IoBackend: Send {
    /// A receiver for `tenant`'s RX queue `queue`, listening on `listen`.
    fn open_rx(&mut self, tenant: &str, queue: u32, listen: SocketAddr) -> io::Result<Box<dyn PacketRx>>;

    /// A transmitter for `tenant`'s egress interface `oif`, emitting to
    /// `peer`.
    fn open_tx(&mut self, tenant: &str, oif: u32, peer: SocketAddr) -> io::Result<Box<dyn PacketTx>>;
}

/// The kernel backend: `recvmmsg(2)`/`sendmmsg(2)` sockets from
/// [`netpkt::sockio::mmsg`], moving a whole burst per syscall. Off Linux
/// every open fails with `Unsupported`.
struct MmsgBackend;

impl IoBackend for MmsgBackend {
    fn open_rx(&mut self, _tenant: &str, _queue: u32, listen: SocketAddr) -> io::Result<Box<dyn PacketRx>> {
        Ok(Box::new(MmsgRx::bind(listen)?))
    }

    fn open_tx(&mut self, _tenant: &str, _oif: u32, peer: SocketAddr) -> io::Result<Box<dyn PacketTx>> {
        Ok(Box::new(MmsgTx::connect(peer)?))
    }
}

/// The kernel backend for the configured `io-backend`, plus the name the
/// startup banner prints. There is one choice, so this never fails; off
/// Linux the daemon's first socket open reports `Unsupported` instead.
pub fn resolve_backend(_choice: IoBackendChoice) -> io::Result<(Box<dyn IoBackend>, &'static str)> {
    Ok((Box::new(MmsgBackend), "mmsg"))
}

/// The far ends of every link a [`MemBackend`] has opened: injectors for
/// the daemon's RX queues, taps on its egress interfaces. Keys are what
/// the daemon asked for — tenant name, then queue or oif — nested so a
/// lookup by `&str` allocates nothing.
#[derive(Default)]
struct MemFabric {
    ingress: HashMap<String, HashMap<u32, MemTx>>,
    egress: HashMap<String, HashMap<u32, MemRx>>,
}

/// In-memory [`IoBackend`]: every `open_rx`/`open_tx` mints a bounded
/// [`mem_link`] and keeps the far end, so a test can push frames at any
/// tenant queue and drain any egress interface deterministically.
/// Clones share one fabric — keep one clone as the test's handle.
#[derive(Clone)]
pub struct MemBackend {
    fabric: Arc<Mutex<MemFabric>>,
    capacity: usize,
}

impl MemBackend {
    /// A backend whose links buffer at most `capacity` undelivered frames.
    pub fn new(capacity: usize) -> Self {
        MemBackend { fabric: Arc::new(Mutex::new(MemFabric::default())), capacity }
    }

    /// Injects one frame at `tenant`'s RX queue `queue`. `false` when the
    /// link is full (backpressure) or the queue was never opened.
    pub fn inject(&self, tenant: &str, queue: u32, frame: &[u8]) -> bool {
        let mut fabric = self.fabric.lock().expect("mem fabric lock");
        match fabric.ingress.get_mut(tenant).and_then(|queues| queues.get_mut(&queue)) {
            Some(tx) => tx.send_frame(frame).unwrap_or(false),
            None => false,
        }
    }

    /// Drains frames the daemon emitted on `tenant`'s interface `oif` into
    /// `batch`, returning how many arrived.
    pub fn drain_egress(&self, tenant: &str, oif: u32, batch: &mut FrameBatch) -> usize {
        let mut fabric = self.fabric.lock().expect("mem fabric lock");
        match fabric.egress.get_mut(tenant).and_then(|oifs| oifs.get_mut(&oif)) {
            Some(rx) => rx.fill(batch).unwrap_or(0),
            None => 0,
        }
    }

    /// Frames emitted on `tenant`'s interface `oif` and not yet drained.
    pub fn egress_backlog(&self, tenant: &str, oif: u32) -> usize {
        let fabric = self.fabric.lock().expect("mem fabric lock");
        fabric.egress.get(tenant).and_then(|oifs| oifs.get(&oif)).map_or(0, MemRx::backlog)
    }

    /// Whether `tenant`'s RX queue `queue` has been opened by the daemon.
    pub fn has_rx(&self, tenant: &str, queue: u32) -> bool {
        let fabric = self.fabric.lock().expect("mem fabric lock");
        fabric.ingress.get(tenant).is_some_and(|queues| queues.contains_key(&queue))
    }
}

impl IoBackend for MemBackend {
    fn open_rx(&mut self, tenant: &str, queue: u32, _listen: SocketAddr) -> io::Result<Box<dyn PacketRx>> {
        let (tx, rx) = mem_link(self.capacity);
        let mut fabric = self.fabric.lock().expect("mem fabric lock");
        fabric.ingress.entry(tenant.to_string()).or_default().insert(queue, tx);
        Ok(Box::new(rx))
    }

    fn open_tx(&mut self, tenant: &str, oif: u32, _peer: SocketAddr) -> io::Result<Box<dyn PacketTx>> {
        let (tx, rx) = mem_link(self.capacity);
        let mut fabric = self.fabric.lock().expect("mem fabric lock");
        fabric.egress.entry(tenant.to_string()).or_default().insert(oif, rx);
        Ok(Box::new(tx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any_addr() -> SocketAddr {
        "[::1]:0".parse().unwrap()
    }

    #[test]
    fn mem_backend_round_trips_through_both_ends() {
        let mut backend = MemBackend::new(8);
        let handle = backend.clone();
        let mut rx = backend.open_rx("edge", 0, any_addr()).unwrap();
        let mut tx = backend.open_tx("edge", 1, any_addr()).unwrap();

        assert!(handle.has_rx("edge", 0));
        assert!(!handle.has_rx("edge", 1));
        assert!(handle.inject("edge", 0, &[1, 2, 3]));
        assert!(!handle.inject("other", 0, &[9]), "unopened queues refuse frames");

        let mut batch = FrameBatch::new(4, 64);
        assert_eq!(rx.fill(&mut batch).unwrap(), 1);
        assert_eq!(batch.frame(0), &[1, 2, 3]);

        assert!(tx.send_frame(&[4, 5]).unwrap());
        assert_eq!(handle.egress_backlog("edge", 1), 1);
        batch.clear();
        assert_eq!(handle.drain_egress("edge", 1, &mut batch), 1);
        assert_eq!(batch.frame(0), &[4, 5]);
    }
}
