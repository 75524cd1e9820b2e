//! End-to-end checks of the §4.1 and §4.3 use cases, on the scenarios
//! `bench` builds for the examples (§4.2 is checked in `bench::hybrid`).

use bench::{delay, ecmp};

/// §4.1: the ingress samples and timestamps traffic, the egress End.DM
/// reports the one-way delay and transparently decapsulates, and the
/// client still receives every datagram.
#[test]
fn delay_monitoring_use_case_end_to_end() {
    let run = delay::run();
    // Every datagram reaches the client, probes included (End.DM
    // decapsulates them).
    assert_eq!(run.received, delay::DATAGRAMS);
    let expected = delay::DATAGRAMS / u64::from(delay::SAMPLING_RATIO);
    assert!(
        (expected / 2..expected * 2).contains(&(run.reports as u64)),
        "sampling 1:{} over {} datagrams, got {} reports",
        delay::SAMPLING_RATIO,
        delay::DATAGRAMS,
        run.reports
    );
    // The monitored link dominates the measured one-way delay.
    let link_ns = delay::LINK_DELAY_MS * 1_000_000;
    let mean = run.mean_owd_ns.unwrap();
    assert!((link_ns..link_ns + 10_000_000).contains(&mean), "mean OWD {mean}");
    assert!(run.max_owd_ns.unwrap() >= mean);
}

/// §4.3: the probe traverses the OAMP hop and reaches the target, and the
/// report lists both equal-cost next hops of the probe's destination.
#[test]
fn ecmp_discovery_use_case_end_to_end() {
    let run = ecmp::run();
    assert_eq!(run.delivered, 1);
    let report = run.report.expect("End.OAMP reports");
    assert_eq!(report.queried_dst, run.target);
    assert_eq!(
        report.nexthops,
        ["fe80::31".parse::<std::net::Ipv6Addr>().unwrap(), "fe80::32".parse().unwrap()]
    );
    let hops = run.traceroute.hops();
    assert_eq!(hops.len(), 2);
    assert!(hops[0].via_oamp && !hops[1].via_oamp);
    assert_eq!(hops[0].hop, Some(run.oamp_sid));
}
