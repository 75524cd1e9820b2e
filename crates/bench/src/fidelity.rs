//! Fig. 2 and Fig. 3 in added nanoseconds: the one way `bench` times the
//! datapath.
//!
//! The paper normalises both figures to a kernel that forwards 610 kpps on
//! one 2009 core, [`PAPER_PLAIN_NS`] per packet, and its §3.2 claim is that
//! an eBPF endpoint function adds a small, fixed cost to that. Plain
//! forwarding costs a few tens of nanoseconds here, so a ratio would hold
//! this datapath to a far smaller budget than the paper's. Each row is
//! therefore what a function **adds** over its counterpart, in ns, next to
//! what the paper's bars say it added there ([`Row::paper_added_ns`]); the
//! ratio stays as a read-out.
//!
//! [`added_ns`] times [`Seg6Datapath::process_batch_verdicts_into`] on
//! batches of [`BATCH`] skbs. Each batch is refilled from its templates
//! with [`PacketBuf::reset`](netpkt::PacketBuf::reset) + `append`; the
//! refill is timed on its own and subtracted. Variant and counterpart
//! alternate over [`ROUNDS`] rounds on the same template cycle, and the
//! result is the median of the per-round differences.

use netpkt::buf::DEFAULT_HEADROOM;
use netpkt::bufpool::SMALL_FRAME;
use netpkt::PacketBuf;
use seg6_core::{BatchVerdict, Seg6Datapath, Skb};
use srv6_nf::DelayCollector;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per packet of the paper's plain-IPv6 reference: 610 kpps
/// on one Xeon X3440 core.
pub const PAPER_PLAIN_NS: f64 = 1e9 / 610_000.0;

/// Packets per datapath batch, as the worker pool hands them over.
pub const BATCH: usize = 32;

/// Items timed per sample: one probe cycle of the sparsest Fig. 3 variant
/// (1:10000), so every sample carries its probe.
pub const SAMPLE_ITEMS: usize = 10_000;

/// Alternating rounds per row; odd, so the median is one round's value.
pub const ROUNDS: usize = 21;

/// The packets a generator sends: `plain`, except that every `every`-th
/// packet, starting with the first, is `probe`.
struct Cycle {
    plain: Vec<u8>,
    probe: Option<(Vec<u8>, usize)>,
}

impl Cycle {
    fn packet(&self, index: usize) -> &[u8] {
        match &self.probe {
            Some((probe, every)) if index.is_multiple_of(*every) => probe,
            _ => &self.plain,
        }
    }
}

/// A router datapath plus the template cycle it is fed: the one shape of
/// every Fig. 2 and Fig. 3 scenario.
pub struct Scenario {
    /// The router under test.
    pub datapath: Seg6Datapath,
    /// Collector on the End.DM perf buffer, for the scenarios that run it.
    pub collector: Option<DelayCollector>,
    cycle: Cycle,
    /// Index in the cycle of the first packet of the next batch.
    next: usize,
    skbs: Vec<Skb>,
    verdicts: Vec<BatchVerdict>,
}

impl Scenario {
    /// A scenario whose generator sends `plain` only.
    pub fn new(datapath: Seg6Datapath, plain: Vec<u8>) -> Self {
        Scenario {
            datapath,
            collector: None,
            cycle: Cycle { plain, probe: None },
            next: 0,
            // The buffer the worker pool's arena hands a small frame.
            skbs: (0..BATCH)
                .map(|_| Skb::new(PacketBuf::with_capacity(DEFAULT_HEADROOM, DEFAULT_HEADROOM + SMALL_FRAME)))
                .collect(),
            verdicts: Vec::with_capacity(BATCH),
        }
    }

    /// Makes every `every`-th packet, starting with the first, `probe`.
    pub fn with_probe(mut self, probe: Vec<u8>, every: usize) -> Self {
        self.cycle.probe = Some((probe, every));
        self
    }
}

#[cfg(test)]
impl Scenario {
    /// Refills and runs `batches` batches, untimed.
    pub(crate) fn run_batches(&mut self, batches: usize) {
        for _ in 0..batches {
            self.refill();
            self.run();
        }
    }

    /// The packet the generator sends at position `index` of its stream.
    pub(crate) fn packet(&self, index: usize) -> &[u8] {
        self.cycle.packet(index)
    }
}

/// Work [`added_ns`] times, one batch at a time.
pub trait Batch {
    /// Items one [`Batch::run`] handles.
    fn items(&self) -> usize;
    /// Restores what `run` consumes; timed on its own and subtracted.
    fn refill(&mut self);
    /// The work under test.
    fn run(&mut self);
}

/// A scenario's batch: the next [`BATCH`] packets of its cycle through
/// `process_batch_verdicts_into`. Refilling checks that every packet so
/// far was forwarded: a misconfigured scenario must not time the drop
/// path.
impl Batch for Scenario {
    fn items(&self) -> usize {
        BATCH
    }

    fn refill(&mut self) {
        let stats = &self.datapath.stats;
        assert_eq!(stats.forwarded, stats.received, "the scenario dropped or delivered a packet: {stats:?}");
        for (i, skb) in self.skbs.iter_mut().enumerate() {
            skb.packet.reset(DEFAULT_HEADROOM);
            skb.packet.append(self.cycle.packet(self.next + i));
        }
    }

    fn run(&mut self) {
        self.verdicts.clear();
        let now = self.datapath.stats.received;
        self.datapath.process_batch_verdicts_into(&mut self.skbs, now, &mut self.verdicts);
        black_box(&self.verdicts);
        self.next += BATCH;
    }
}

/// A closure is a batch of one call with nothing to refill.
impl<F: FnMut()> Batch for F {
    fn items(&self) -> usize {
        1
    }

    fn refill(&mut self) {}

    fn run(&mut self) {
        self()
    }
}

/// Nanoseconds per item of `work.run` over one sample: refill and run
/// timed together, minus the refill timed alone.
fn sample_ns(work: &mut impl Batch) -> f64 {
    let batches = SAMPLE_ITEMS.div_ceil(work.items());
    let mut elapsed_ns = |run: bool| {
        let start = Instant::now();
        for _ in 0..batches {
            work.refill();
            if run {
                work.run();
            }
        }
        start.elapsed().as_nanos() as f64
    };
    let both = elapsed_ns(true);
    let refill = elapsed_ns(false);
    (both - refill) / (batches * work.items()) as f64
}

/// What a variant costs over its counterpart, from [`added_ns`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Added {
    /// Median over the rounds of the variant's ns per item minus the
    /// counterpart's.
    pub ns: f64,
    /// The variant's median ns per item.
    pub variant_ns: f64,
    /// The counterpart's median ns per item.
    pub counterpart_ns: f64,
}

impl Added {
    /// The variant's rate over the counterpart's, the paper's read-out.
    pub fn ratio(&self) -> f64 {
        self.counterpart_ns / self.variant_ns
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Times `variant` and `counterpart` in alternation over [`ROUNDS`]
/// rounds, after one warm-up sample each, and returns the median of the
/// per-round differences.
pub fn added_ns(variant: &mut impl Batch, counterpart: &mut impl Batch) -> Added {
    sample_ns(variant);
    sample_ns(counterpart);
    let rounds: Vec<(f64, f64)> = (0..ROUNDS)
        .map(|round| {
            // Which side goes first alternates, so a drift in host speed
            // does not always favour the same one.
            if round.is_multiple_of(2) {
                let variant = sample_ns(variant);
                (variant, sample_ns(counterpart))
            } else {
                let counterpart = sample_ns(counterpart);
                (sample_ns(variant), counterpart)
            }
        })
        .collect();
    Added {
        ns: median(rounds.iter().map(|(v, c)| v - c).collect()),
        variant_ns: median(rounds.iter().map(|r| r.0).collect()),
        counterpart_ns: median(rounds.iter().map(|r| r.1).collect()),
    }
}

/// One side of a row: its label, the paper's normalised rate for it (plain
/// IPv6 forwarding is 1) and its scenario here.
pub type Side = (&'static str, f64, Scenario);

/// One row of the added-ns table: a function and the configuration it is
/// measured against.
pub struct Row {
    /// Label of the function under test.
    pub name: &'static str,
    /// Label of its counterpart.
    pub over: &'static str,
    /// The paper's normalised rates of `name` and of `over`.
    pub paper: (f64, f64),
    /// The function's scenario.
    pub variant: Scenario,
    /// The counterpart's scenario: the same template cycle, without the
    /// SID or LWT attachment under test.
    pub counterpart: Scenario,
}

impl Row {
    /// Pairs a function with its counterpart.
    pub fn new((name, paper, variant): Side, (over, paper_over, counterpart): Side) -> Row {
        Row { name, over, paper: (paper, paper_over), variant, counterpart }
    }

    /// What the paper's bars say the function added, in ns per packet.
    pub fn paper_added_ns(&self) -> f64 {
        PAPER_PLAIN_NS / self.paper.0 - PAPER_PLAIN_NS / self.paper.1
    }

    /// Measures the row on this host.
    pub fn measure(&mut self) -> Added {
        added_ns(&mut self.variant, &mut self.counterpart)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fig2, fig3};

    #[test]
    fn the_paper_column_is_the_papers_added_ns() {
        let rows: Vec<Row> = fig2::rows().into_iter().chain(fig3::rows()).collect();
        let paper: Vec<i64> = rows.iter().map(|row| row.paper_added_ns().round() as i64).collect();
        let expected = [84, 148, 175, 240, 2_102, 77, 8, 86, 17];
        assert_eq!(paper.len(), expected.len(), "{:?}", rows.iter().map(|r| r.name).collect::<Vec<_>>());
        for ((row, got), want) in rows.iter().zip(&paper).zip(expected) {
            assert!(
                (got - want).abs() <= 1,
                "{} over {}: paper adds {got} ns, not {want}",
                row.name,
                row.over
            );
        }
        assert_eq!(fig2::jit_row().paper_added_ns().round(), 1_862.0);
    }

    #[test]
    fn added_ns_times_both_sides_alike() {
        let (mut variant_calls, mut counterpart_calls) = (0usize, 0usize);
        let added = added_ns(&mut || variant_calls += 1, &mut || counterpart_calls += 1);
        // One warm-up sample and ROUNDS timed ones, each of SAMPLE_ITEMS calls.
        assert_eq!(variant_calls, (ROUNDS + 1) * SAMPLE_ITEMS);
        assert_eq!(counterpart_calls, variant_calls);
        assert!(added.variant_ns.is_finite() && added.counterpart_ns.is_finite() && added.ns.is_finite());
    }
}
