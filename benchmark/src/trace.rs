//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded only while the tracer is enabled (the `--trace 1`
//! run turns it on for every other window, so the same process yields the
//! traced and the untraced rate and hence the tracing overhead). Each span
//! has a name, a start, an end and the span that caused it — the pass it
//! belongs to; the spans of one pass share that parent. Totals per name
//! feed the per-layer metrics; the raw spans (up to a cap) are written out
//! when the run ends.

use std::io::Write;
use std::time::Instant;

/// The boundaries spans are recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One window pass (the parent of the others).
    Pass,
    /// `Ingress::enqueue_bytes_all`.
    Enqueue,
    /// `WorkerPool::flush`.
    Flush,
    /// `WorkerPool::recycle` of a window's outputs.
    Recycle,
    /// The benchmark's own output verification.
    Verify,
    /// `Srv6Daemon::service`.
    Service,
    /// The generator side of the loopback sockets (`MmsgTx::send_frames`).
    SockSend,
    /// The capture side of the loopback sockets (`MmsgRx::fill`).
    SockCapture,
}

/// Span labels in the span file, indexed by `SpanName as usize`.
const LABELS: [&str; 8] = [
    "pass",
    "seg6-runtime.enqueue",
    "seg6-runtime.flush",
    "seg6-runtime.recycle",
    "bench.verify",
    "srv6d.service",
    "bench.sock_send",
    "bench.sock_capture",
];

/// Raw spans kept for the span file; totals keep counting beyond it.
const MAX_KEPT_SPANS: usize = 200_000;

struct Span {
    id: u32,
    parent: u32,
    name: SpanName,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans while enabled; free when disabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    totals_ns: [u64; LABELS.len()],
    next_id: u32,
    current_pass: u32,
    pass_start_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            totals_ns: [0; LABELS.len()],
            next_id: 1,
            current_pass: 0,
            pass_start_ns: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled && self.spans.capacity() == 0 {
            // Reserved once, up front, so recording never reallocates (and
            // an untraced run never pays for the buffer at all).
            self.spans.reserve_exact(MAX_KEPT_SPANS);
        }
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn store(&mut self, span: Span) {
        self.totals_ns[span.name as usize] += span.end_ns - span.start_ns;
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(span);
        }
    }

    /// Opens the pass span that the following spans hang off.
    pub fn begin_pass(&mut self) {
        if self.enabled {
            // Reserve the pass's id now, so the children recorded before
            // the pass closes can already point at it.
            self.current_pass = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            self.pass_start_ns = self.now_ns();
        }
    }

    /// Closes the pass span opened by [`Tracer::begin_pass`].
    pub fn end_pass(&mut self) {
        if self.enabled {
            let end = self.now_ns();
            self.store(Span {
                id: self.current_pass,
                parent: 0,
                name: SpanName::Pass,
                start_ns: self.pass_start_ns,
                end_ns: end,
            });
        }
    }

    /// Runs `f`, recording a span around it when enabled.
    pub fn span<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.store(Span { id, parent: self.current_pass, name, start_ns: start, end_ns: end });
        result
    }

    /// Total nanoseconds recorded under `name`.
    pub fn total_ns(&self, name: SpanName) -> u64 {
        self.totals_ns[name as usize]
    }

    /// Writes the kept spans as CSV (`id,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for span in &self.spans {
            let label = LABELS[span.name as usize];
            writeln!(out, "{},{},{},{},{}", span.id, span.parent, label, span.start_ns, span.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new();
        tracer.begin_pass();
        assert_eq!(tracer.span(SpanName::Flush, || 7), 7);
        tracer.end_pass();
        assert_eq!(tracer.total_ns(SpanName::Flush), 0);
        assert!(tracer.spans.is_empty());
    }

    #[test]
    fn children_point_at_their_pass() {
        let mut tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.begin_pass();
        tracer.span(SpanName::Enqueue, || std::hint::black_box(1));
        tracer.span(SpanName::Flush, || std::hint::black_box(2));
        tracer.end_pass();
        let pass = tracer.spans.iter().find(|s| s.name == SpanName::Pass).expect("pass recorded");
        let children: Vec<_> = tracer.spans.iter().filter(|s| s.name != SpanName::Pass).collect();
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|c| c.parent == pass.id && c.id != pass.id));
        assert!(children.iter().all(|c| c.start_ns >= pass.start_ns && c.end_ns <= pass.end_ns));
    }
}
