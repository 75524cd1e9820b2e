//! Use case §4.2 — hybrid access networks.
//!
//! The aggregation box load-balances traffic towards the client over two
//! access links (xDSL-like and LTE-like) with the per-packet WRR eBPF
//! scheduler; the CPE decapsulates natively. Without delay compensation the
//! different link latencies reorder TCP segments and the goodput collapses;
//! after compensating the measured latency difference on the fast path,
//! TCP uses the aggregated capacity. The runs are [`bench::hybrid`]'s, with
//! the arguments of `figures tcp`.
//!
//! ```text
//! cargo run --release --example hybrid_access
//! ```

use bench::hybrid::{run_tcp, TCP_DURATION_NS, TCP_SEED};

fn main() {
    println!("hybrid access: bulk TCP download over 50 Mbps (30 ms RTT) + 30 Mbps (5 ms RTT)");
    println!("{:34} {:>14} {:>14}", "configuration", "goodput Mbps", "paper Mbps");
    let naive = run_tcp(false, 1, TCP_DURATION_NS, TCP_SEED);
    println!("{:34} {:>14.1} {:>14}", "naive WRR, 1 flow", naive.goodput_mbps, "3.8");
    let compensated = run_tcp(true, 1, TCP_DURATION_NS, TCP_SEED);
    println!("{:34} {:>14.1} {:>14}", "compensated WRR, 1 flow", compensated.goodput_mbps, "68");
    println!("(compensation applied: {:.1} ms on the fast path)", compensated.compensation_ns as f64 / 1e6);
    assert!(compensated.goodput_mbps > naive.goodput_mbps, "compensation must improve goodput");
    println!("hybrid_access OK: delay compensation recovered the aggregated capacity");
}
