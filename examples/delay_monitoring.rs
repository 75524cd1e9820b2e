//! Use case §4.1 — passive monitoring of network delays.
//!
//! An ingress router samples traffic towards a client network and
//! encapsulates one packet in N with an SRH carrying a DM (timestamp) TLV;
//! the router at the end of the monitored path runs `End.DM` (an `End.BPF`
//! program) that reports the one-way delay to a user-space daemon through a
//! perf event and decapsulates the probe. The scenario is
//! [`bench::delay`]'s.
//!
//! ```text
//! cargo run --example delay_monitoring
//! ```

use bench::delay;

fn main() {
    let run = delay::run();
    println!("client received {} of {} datagrams", run.received, delay::DATAGRAMS);
    println!("delay reports collected: {}", run.reports);
    if let (Some(mean), Some(max)) = (run.mean_owd_ns, run.max_owd_ns) {
        println!("one-way delay: mean = {:.3} ms, max = {:.3} ms", mean as f64 / 1e6, max as f64 / 1e6);
    }
    assert!(run.reports > 50, "expected a sampled subset of the datagrams to be probed");
    assert!(
        run.mean_owd_ns.unwrap() >= delay::LINK_DELAY_MS * 1_000_000,
        "the monitored link must dominate the measured delay"
    );
    println!("delay_monitoring OK: probes were sampled, measured and decapsulated transparently");
}
