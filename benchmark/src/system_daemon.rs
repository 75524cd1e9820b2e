//! The system under test for `srv6d_loopback_64`: the full daemon, started
//! from config text, with the benchmark thread as traffic generator,
//! capture and poll loop.
//!
//! Traffic crosses the host's **loopback interface**, not a real link: the
//! kernel UDP stack, socket buffers and syscalls are real, wire latency
//! and NIC behaviour are not measured. Each tenant has one generator
//! socket (`MmsgTx` → the tenant's listen port) and one capture socket
//! (`MmsgRx` ← the tenant's peer). A round sends one socket window
//! (`SOCKET_WINDOW` frames, inside the default `rmem`) per tenant, then
//! calls `service()` until every frame has been captured.

use crate::reference::{bytes_match, Reference};
use crate::system::{Failures, SetupTimes, System};
use crate::trace::{SpanName, Tracer};
use crate::workloads::{daemon_config_text, Workload, FRAMES, SOCKET_WINDOW, TENANT_NAMES, WINDOW};
use netpkt::sockio::{FrameBatch, PacketRx, PacketTx, DEFAULT_FRAME_CAP};
use netpkt::{MmsgRx, MmsgTx};
use srv6d::{resolve_backend, Config, Srv6Daemon};
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// How long a round waits for its frames before counting them missing.
/// Loopback delivery is synchronous, so this only ever expires on loss.
const ROUND_TIMEOUT: Duration = Duration::from_millis(250);

struct Link {
    sender: MmsgTx,
    capture: MmsgRx,
}

pub struct DaemonSystem {
    daemon: Srv6Daemon,
    links: Vec<Link>,
    batch: FrameBatch,
    rounds: u64,
    config_text: String,
}

const TENANTS: usize = TENANT_NAMES.len();

/// `count` currently free UDP ports on `[::1]`. Found by binding port 0 and
/// letting go again; both sockets are held until both ports are known so
/// they all differ.
fn free_ports(count: usize) -> Vec<u16> {
    let sockets: Vec<UdpSocket> =
        (0..count).map(|_| UdpSocket::bind("[::1]:0").expect("IPv6 loopback is available")).collect();
    sockets.iter().map(|s| s.local_addr().expect("bound socket has an address").port()).collect()
}

impl DaemonSystem {
    /// The running daemon (metrics rendering, reload and counter probes).
    pub fn daemon(&mut self) -> &mut Srv6Daemon {
        &mut self.daemon
    }

    /// The config text the daemon was started from.
    pub fn config_text(&self) -> &str {
        &self.config_text
    }

    /// One round: a socket window per tenant in, the same frames out.
    fn round(
        &mut self,
        workload: &Workload,
        reference: &Reference,
        full: bool,
        tracer: &mut Tracer,
        failures: &mut Failures,
    ) {
        let DaemonSystem { daemon, links, batch, rounds, .. } = self;
        let tenants = links.len();
        let base = (*rounds as usize % (FRAMES / (SOCKET_WINDOW * tenants))) * SOCKET_WINDOW * tenants;
        *rounds += 1;

        let mut sent = [0usize; TENANTS];
        for (tenant, link) in links.iter_mut().enumerate() {
            let block = &workload.frames[base + tenant * SOCKET_WINDOW..][..SOCKET_WINDOW];
            let mut refs: [&[u8]; SOCKET_WINDOW] = [&[]; SOCKET_WINDOW];
            for (slot, frame) in refs.iter_mut().zip(block) {
                *slot = &frame.bytes;
            }
            sent[tenant] = tracer.span(SpanName::SockSend, || link.sender.send_frames(&refs)).unwrap_or(0);
            failures.rejected += (SOCKET_WINDOW - sent[tenant]) as u64;
        }

        let mut captured = [0usize; TENANTS];
        let deadline = Instant::now() + ROUND_TIMEOUT;
        loop {
            tracer.span(SpanName::Service, || daemon.service());
            for (tenant, link) in links.iter_mut().enumerate() {
                batch.clear();
                let got = tracer.span(SpanName::SockCapture, || link.capture.fill(batch)).unwrap_or(0);
                if got == 0 {
                    continue;
                }
                tracer.span(SpanName::Verify, || {
                    for frame in batch.frames() {
                        // One socket pair, one shard: frames come out in
                        // the order they went in.
                        let index = base + tenant * SOCKET_WINDOW + captured[tenant];
                        if captured[tenant] >= sent[tenant]
                            || !bytes_match(&reference.expected[index], frame, full)
                        {
                            failures.wrong_bytes += 1;
                        }
                        captured[tenant] += 1;
                    }
                });
            }
            if captured.iter().zip(&sent).all(|(c, s)| c >= s) {
                return;
            }
            if Instant::now() > deadline {
                break;
            }
        }
        failures.missing += captured.iter().zip(&sent).map(|(c, s)| (s - c.min(s)) as u64).sum::<u64>();
        self.settle();
    }

    /// After a lossy round: lets stragglers arrive and discards them, so the
    /// next round starts aligned with its expectations.
    fn settle(&mut self) {
        let quiet_for = Duration::from_millis(20);
        let mut quiet_since = Instant::now();
        while quiet_since.elapsed() < quiet_for {
            let mut moved = self.daemon.service().rx_frames;
            for link in &mut self.links {
                self.batch.clear();
                moved += link.capture.fill(&mut self.batch).unwrap_or(0);
            }
            if moved > 0 {
                quiet_since = Instant::now();
            }
        }
    }
}

impl System for DaemonSystem {
    fn build(workload: &Workload) -> (Self, SetupTimes) {
        let captures: Vec<MmsgRx> =
            (0..workload.tenants).map(|_| MmsgRx::bind("[::1]:0").expect("bind capture socket")).collect();
        let listen = free_ports(workload.tenants);
        let ports: Vec<(u16, u16)> = listen
            .iter()
            .zip(&captures)
            .map(|(listen, capture)| (*listen, capture.local_addr().expect("capture address").port()))
            .collect();
        let text = daemon_config_text(&ports);

        let started = Instant::now();
        let config = Config::parse(&text).expect("generated config is valid");
        let parsed = Instant::now();
        let (backend, _) = resolve_backend(config.daemon.io_backend).expect("mmsg backend on Linux");
        let daemon = Srv6Daemon::start(config, backend).expect("daemon starts on free loopback ports");
        let links = captures
            .into_iter()
            .zip(&ports)
            .map(|(capture, (listen, _))| Link {
                sender: MmsgTx::connect(("::1", *listen)).expect("connect generator socket"),
                capture,
            })
            .collect();
        let times = SetupTimes {
            config_parse_us: (parsed - started).as_secs_f64() * 1e6,
            start_ms: parsed.elapsed().as_secs_f64() * 1e3,
        };
        let batch = FrameBatch::new(SOCKET_WINDOW, DEFAULT_FRAME_CAP);
        (DaemonSystem { daemon, links, batch, rounds: 0, config_text: text }, times)
    }

    fn pass(
        &mut self,
        workload: &Workload,
        reference: &Reference,
        full: bool,
        tracer: &mut Tracer,
    ) -> Failures {
        let mut failures = Failures::default();
        tracer.begin_pass();
        for _ in 0..WINDOW / (SOCKET_WINDOW * self.links.len()) {
            self.round(workload, reference, full, tracer, &mut failures);
        }
        tracer.end_pass();
        failures
    }

    fn drain(self) -> f64 {
        let started = Instant::now();
        let report = self.daemon.drain();
        assert_eq!(report.drain.counters.in_flight(), 0, "a drained daemon holds no packet");
        started.elapsed().as_secs_f64() * 1e3
    }
}
