//! Use case §4.3 — querying ECMP next hops with `End.OAMP`.
//!
//! A prober runs an enhanced traceroute towards a destination reached over
//! ECMP paths. Hops that expose the `End.OAMP` SID answer with the full
//! list of equal-cost next hops (via a perf event consumed by the
//! traceroute client); other hops fall back to the legacy ICMP behaviour.
//! The scenario is [`bench::ecmp`]'s.
//!
//! ```text
//! cargo run --example ecmp_traceroute
//! ```

fn main() {
    let run = bench::ecmp::run();
    println!("target received {} probe(s)", run.delivered);
    println!("\nenhanced traceroute to {}:", run.target);
    print!("{}", run.traceroute.render());

    let hops = run.traceroute.hops();
    assert_eq!(hops.len(), 2);
    assert!(hops[0].via_oamp, "hop 1 must answer through End.OAMP");
    assert_eq!(hops[0].ecmp_nexthops.len(), 2);
    println!(
        "\necmp_traceroute OK: {} reported {} equal-cost next hops via End.OAMP",
        run.oamp_sid,
        hops[0].ecmp_nexthops.len()
    );
}
