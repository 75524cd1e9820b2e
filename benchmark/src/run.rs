//! The measurement loop shared by every workload: cold constructions for
//! `setup_s`, warm-up, then fixed-length windows of closed-loop passes.
//!
//! Load shape: closed loop, one generator (this thread, which is also the
//! pool's dispatcher) and one worker shard — two busy threads, which `main`
//! confines to one core. A pass offers one deep window of `WINDOW` frames
//! and waits for all of them; the next pass starts only then.

use crate::calibrate::Calibrator;
use crate::reference::Reference;
use crate::stats::{steal_s, CpuSnapshot};
use crate::system::{Failures, SetupTimes, System};
use crate::trace::Tracer;
use crate::workloads::{Workload, WINDOW};
use std::time::{Duration, Instant};

/// Cold constructions timed for `setup_s` (the median is reported). A
/// construction takes a few milliseconds, most of them page faults of the
/// freshly provisioned buffer arena, and the first five or so run slower
/// while the allocator warms up; with forty-five the median sits well
/// inside the settled ones (ten-run spread 3–4 %, against 7–14 % with
/// fifteen) for a quarter of a second per run.
pub const SETUP_ROUNDS: usize = 45;
/// Warm-up before the first window; every output is byte-compared here.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Length of one measured window.
pub const WINDOW_TIME: Duration = Duration::from_millis(500);
/// Outside warm-up, every this-many-th pass byte-compares its outputs; the
/// others check verdict, drop reason and length.
pub const FULL_CHECK_EVERY: u64 = 256;
/// Share of a window spent in the calibration kernel (interleaved with the
/// passes, excluded from the window's time and CPU).
const CALIBRATION_SHARE: f64 = 0.04;
/// Calibration before and after each cold construction.
const SETUP_CALIBRATION: Duration = Duration::from_millis(1);

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measured seconds (`--seconds`): two windows each.
    pub seconds: u32,
    /// Trace every other window (`--trace 1`).
    pub trace: bool,
}

impl Plan {
    pub fn windows(&self) -> usize {
        self.seconds as usize * 2
    }
}

/// One measured window. Time and CPU exclude the interleaved calibration.
#[derive(Debug, Clone, Copy)]
pub struct WindowSample {
    pub traced: bool,
    pub packets: u64,
    pub seconds: f64,
    /// CPU time of all threads over the window.
    pub cpu: CpuSnapshot,
    /// Host speed during the window, relative to the reference (see
    /// `calibrate`).
    pub speed: f64,
}

impl WindowSample {
    /// Packets per wall second, as the clock saw it.
    pub fn raw_pps(&self) -> f64 {
        self.packets as f64 / self.seconds
    }

    /// Packets per second at reference host speed.
    pub fn pps(&self) -> f64 {
        self.raw_pps() / self.speed
    }

    /// CPU nanoseconds per packet, as the scheduler accounted them.
    pub fn raw_cpu_ns_per_pkt(&self) -> f64 {
        self.cpu.total_ns as f64 / self.packets as f64
    }

    /// CPU nanoseconds per packet at reference host speed.
    pub fn cpu_ns_per_pkt(&self) -> f64 {
        self.raw_cpu_ns_per_pkt() * self.speed
    }

    pub fn worker_cpu_ns_per_pkt(&self) -> f64 {
        self.cpu.worker_ns as f64 / self.packets as f64 * self.speed
    }

    pub fn dispatcher_cpu_ns_per_pkt(&self) -> f64 {
        (self.cpu.total_ns - self.cpu.worker_ns.min(self.cpu.total_ns)) as f64 / self.packets as f64
            * self.speed
    }
}

/// Everything the loop observed.
pub struct Measured {
    pub windows: Vec<WindowSample>,
    /// Seconds from nothing to the first verified window, per cold
    /// construction, at reference host speed.
    pub setup_s: Vec<f64>,
    /// The same as the clock saw them.
    pub raw_setup_s: Vec<f64>,
    /// Parts of each construction, at reference host speed.
    pub setup_times: Vec<SetupTimes>,
    /// Milliseconds each construction's drain took, at reference speed.
    pub drain_ms: Vec<f64>,
    /// Share of the windows' wall time the hypervisor gave to someone else
    /// (`/proc/stat` steal, all vCPUs). Nothing corrects for it: a run with
    /// more than a percent or two of it measured the host's other tenants.
    pub steal_share: f64,
    /// Frames offered, over set-up, warm-up and windows.
    pub attempted: u64,
    pub failures: Failures,
    pub tracer: Tracer,
}

impl Measured {
    /// Samples of `f` over the windows with tracing on or off.
    pub fn samples(&self, traced: bool, f: impl Fn(&WindowSample) -> f64) -> Vec<f64> {
        self.windows.iter().filter(|w| w.traced == traced).map(f).collect()
    }

    /// Packets completed in traced windows (the denominator of every
    /// span-derived metric).
    pub fn traced_packets(&self) -> u64 {
        self.windows.iter().filter(|w| w.traced).map(|w| w.packets).sum()
    }
}

/// Runs the whole measurement and hands back the live system so the
/// caller can probe it further before draining it.
pub fn measure<S: System>(workload: &Workload, reference: &Reference, plan: Plan) -> (Measured, S) {
    let mut measured = Measured {
        windows: Vec::with_capacity(plan.windows()),
        setup_s: Vec::new(),
        raw_setup_s: Vec::new(),
        setup_times: Vec::new(),
        drain_ms: Vec::new(),
        steal_share: 0.0,
        attempted: 0,
        failures: Failures::default(),
        tracer: Tracer::new(),
    };
    let mut idle_tracer = Tracer::new();
    let mut calibrator = Calibrator::new();

    // Cold constructions: build, serve one fully verified window, drain.
    for _ in 0..SETUP_ROUNDS {
        calibrator.run_for(SETUP_CALIBRATION);
        let started = Instant::now();
        let (mut system, times) = S::build(workload);
        let failures = system.pass(workload, reference, true, &mut idle_tracer);
        let setup_s = started.elapsed().as_secs_f64();
        let drain_ms = system.drain();
        calibrator.run_for(SETUP_CALIBRATION);
        let (_, speed) = calibrator.take();
        measured.raw_setup_s.push(setup_s);
        measured.setup_s.push(setup_s * speed);
        measured.setup_times.push(SetupTimes {
            config_parse_us: times.config_parse_us * speed,
            start_ms: times.start_ms * speed,
        });
        measured.drain_ms.push(drain_ms * speed);
        measured.attempted += WINDOW as u64;
        measured.failures.add(&failures);
    }

    let (mut system, _) = S::build(workload);
    let mut passes = 0u64;
    let warmup_started = Instant::now();
    while warmup_started.elapsed() < WARMUP {
        let failures = system.pass(workload, reference, true, &mut idle_tracer);
        measured.attempted += WINDOW as u64;
        measured.failures.add(&failures);
        passes += 1;
    }

    let (windows_started, steal_before) = (Instant::now(), steal_s());
    for window in 0..plan.windows() {
        let traced = plan.trace && window % 2 == 1;
        measured.tracer.set_enabled(traced);
        let cpu_before = CpuSnapshot::read();
        let started = Instant::now();
        let mut packets = 0u64;
        let mut calibration_due = 0.0;
        while started.elapsed() < WINDOW_TIME {
            passes += 1;
            let full = passes.is_multiple_of(FULL_CHECK_EVERY);
            let pass_started = Instant::now();
            let failures = system.pass(workload, reference, full, &mut measured.tracer);
            // Only packets that came out right count as completed.
            packets += WINDOW as u64 - failures.total().min(WINDOW as u64);
            measured.attempted += WINDOW as u64;
            measured.failures.add(&failures);
            // Calibrate between passes, while the pool is idle, for a fixed
            // share of the time the passes take.
            calibration_due += pass_started.elapsed().as_secs_f64() * CALIBRATION_SHARE;
            while calibration_due > 0.0 {
                let before = Instant::now();
                calibrator.burst();
                calibration_due -= before.elapsed().as_secs_f64();
            }
        }
        let elapsed = started.elapsed();
        let mut cpu = CpuSnapshot::read().since(&cpu_before);
        let (calibration, speed) = calibrator.take();
        // The calibration ran on this thread: neither its time nor its CPU
        // belongs to the system under test.
        cpu.total_ns = cpu.total_ns.saturating_sub(calibration.as_nanos() as u64);
        let seconds = (elapsed - calibration.min(elapsed)).as_secs_f64();
        measured.windows.push(WindowSample { traced, packets, seconds, cpu, speed });
    }
    measured.tracer.set_enabled(false);
    measured.steal_share = (steal_s() - steal_before) / windows_started.elapsed().as_secs_f64();
    (measured, system)
}
