//! What the measurement loop needs from a system under test, whichever of
//! the two shapes (bare pool, full daemon) a workload uses.

use crate::reference::Reference;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Frames that did not come out as the reference says, by cause. Their sum
/// over frames offered is `fail_share`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Refused at ingress (full ring, or a socket that would not take it).
    pub rejected: u64,
    /// Accepted but never produced (or never captured).
    pub missing: u64,
    /// Wrong verdict or drop reason.
    pub wrong_verdict: u64,
    /// Right verdict, wrong length or bytes (or a missing `End.DM` report).
    pub wrong_bytes: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.rejected + self.missing + self.wrong_verdict + self.wrong_bytes
    }

    pub fn add(&mut self, other: &Failures) {
        self.rejected += other.rejected;
        self.missing += other.missing;
        self.wrong_verdict += other.wrong_verdict;
        self.wrong_bytes += other.wrong_bytes;
    }
}

/// Where one cold construction spent its time (the parts `setup_s` is made
/// of; the daemon-only parts stay 0 on pool workloads).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `Config::parse` (daemon only).
    pub config_parse_us: f64,
    /// Datapath build, program load, pool spawn — or `Srv6Daemon::start`
    /// plus its sockets.
    pub start_ms: f64,
}

/// A system under test.
pub trait System: Sized {
    /// One cold construction, up to the point where it can take frames.
    fn build(workload: &Workload) -> (Self, SetupTimes);

    /// Offers the next window of `WINDOW` frames, waits for its results and
    /// checks each against the reference (`full`: every byte).
    fn pass(
        &mut self,
        workload: &Workload,
        reference: &Reference,
        full: bool,
        tracer: &mut Tracer,
    ) -> Failures;

    /// Graceful shutdown; returns how long it took, in milliseconds.
    fn drain(self) -> f64;
}
