//! Regenerates every table and figure of the paper's evaluation and prints
//! them next to the values the paper reports.
//!
//! ```text
//! cargo run --release -p bench --bin figures            # everything
//! cargo run --release -p bench --bin figures -- fig2    # one experiment
//! ```
//!
//! Available experiments: `fig2`, `jit`, `fig3`, `fig4`, `tcp`, `sloc`; any
//! other name prints this list and exits with status 2.

use bench::fidelity::Row;
use bench::{fig2, fig3, hybrid};
use std::process::ExitCode;

/// Every experiment, in the order they print.
const EXPERIMENTS: [&str; 6] = ["fig2", "jit", "fig3", "fig4", "tcp", "sloc"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| !EXPERIMENTS.contains(&a.as_str())) {
        eprintln!("figures: unknown experiment `{unknown}`; available: {}", EXPERIMENTS.join(" "));
        return ExitCode::from(2);
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("fig2") {
        print_rows("Figure 2: ns a BPF endpoint function adds over its static counterpart", fig2::rows());
    }
    if want("jit") {
        print_rows("§3.2: ns the interpreter adds over the JIT (Add TLV)", vec![fig2::jit_row()]);
    }
    if want("fig3") {
        print_rows("Figure 3: ns the delay-monitoring programs add over plain forwarding", fig3::rows());
    }
    if want("fig4") {
        print_fig4();
    }
    if want("tcp") {
        print_tcp();
    }
    if want("sloc") {
        print_sloc();
    }
    ExitCode::SUCCESS
}

/// One line per row: ns added here, the ns the paper's bars imply it
/// added there, and the rate ratio as a read-out.
fn print_rows(title: &str, rows: Vec<Row>) {
    println!("== {title} ==");
    println!("{:16} {:16} {:>10} {:>10} {:>8}", "variant", "over", "ns added", "paper ns", "ratio");
    for mut row in rows {
        let added = row.measure();
        println!(
            "{:16} {:16} {:>10.1} {:>10.0} {:>8.3}",
            row.name,
            row.over,
            added.ns,
            row.paper_added_ns(),
            added.ratio()
        );
    }
    println!();
}

fn print_fig4() {
    println!("== Figure 4: aggregated UDP goodput through the CPE (Mbps) ==");
    let payloads = [200usize, 400, 600, 800, 1000, 1200, 1400];
    let duration_ns = 100_000_000;
    let points = hybrid::run_fig4(&payloads, duration_ns);
    print!("{:>16}", "payload (bytes)");
    for mode in hybrid::Fig4Mode::all() {
        print!(" {:>16}", mode.label());
    }
    println!();
    for &payload in &payloads {
        print!("{payload:>16}");
        for mode in hybrid::Fig4Mode::all() {
            let point = points.iter().find(|p| p.mode == mode && p.payload == payload).unwrap();
            print!(" {:>16.0}", point.goodput_mbps);
        }
        println!();
    }
    println!("(paper: IPv6 forwarding ≈ 300→950 Mbps, kernel decap ≈ 10% lower, eBPF WRR lowest, converging at 1400 B)");
    println!();
}

fn print_tcp() {
    println!("== §4.2: TCP goodput over the hybrid access links ==");
    let (duration, seed) = (hybrid::TCP_DURATION_NS, hybrid::TCP_SEED);
    let (owd0, owd1) = hybrid::measure_path_delays(0x1dea);
    println!(
        "measured one-way delays: path0 = {:.1} ms, path1 = {:.1} ms",
        owd0 as f64 / 1e6,
        owd1 as f64 / 1e6
    );
    println!("{:34} {:>14} {:>14}", "configuration", "goodput Mbps", "paper Mbps");
    let naive = hybrid::run_tcp(false, 1, duration, seed);
    println!("{:34} {:>14.1} {:>14}", "naive WRR, 1 flow", naive.goodput_mbps, "3.8");
    let comp1 = hybrid::run_tcp(true, 1, duration, seed);
    println!("{:34} {:>14.1} {:>14}", "compensated WRR, 1 flow", comp1.goodput_mbps, "68");
    let comp4 = hybrid::run_tcp(true, 4, duration, seed);
    println!("{:34} {:>14.1} {:>14}", "compensated WRR, 4 flows", comp4.goodput_mbps, "70");
    println!(
        "(compensation applied: {:.1} ms on the fast path; naive run saw {} out-of-order segments)",
        comp1.compensation_ns as f64 / 1e6,
        naive.out_of_order
    );
    println!();
}

fn print_sloc() {
    println!("== §4 program sizes: paper SLOC vs this reproduction's instruction counts ==");
    let programs: Vec<(&str, usize, &str)> = vec![
        ("End (BPF)", srv6_nf::end_program().len(), "1 SLOC"),
        ("End.T (BPF)", srv6_nf::end_t_program(254).len(), "4 SLOC"),
        ("Tag++", srv6_nf::tag_increment_program().len(), "50 SLOC"),
        ("Add TLV", srv6_nf::add_tlv_program().len(), "60 SLOC"),
        (
            "OWD encapsulation",
            srv6_nf::owd_encap_program(srv6_nf::OwdEncapConfig {
                dm_sid: "fc00::d1".parse().unwrap(),
                controller: "2001:db8::c0".parse().unwrap(),
                controller_port: 9999,
                ratio: 100,
            })
            .len(),
            "130 SLOC",
        ),
        ("End.DM", srv6_nf::end_dm_program(1).len(), "n/a"),
        ("WRR scheduler", srv6_nf::wrr_encap_program(2, 3).len(), "120 SLOC"),
        ("End.OAMP", srv6_nf::end_oamp_program(1).len(), "60 SLOC"),
    ];
    println!("{:22} {:>22} {:>14}", "program", "eBPF instructions here", "paper");
    for (name, insns, paper) in programs {
        println!("{name:22} {insns:>22} {paper:>14}");
    }
    println!();
}
