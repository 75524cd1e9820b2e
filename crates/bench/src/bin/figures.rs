//! Regenerates every table and figure of the paper's evaluation and prints
//! them next to the values the paper reports.
//!
//! ```text
//! cargo run --release -p bench --bin figures            # everything
//! cargo run --release -p bench --bin figures -- fig2    # one experiment
//! ```
//!
//! Available experiments: `fig2`, `jit`, `fig3`, `fig4`, `tcp`, `sloc`.

use bench::{fig2, fig3, hybrid};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("fig2") {
        print_fig2();
    }
    if want("jit") {
        print_jit();
    }
    if want("fig3") {
        print_fig3();
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
}

fn print_fig2() {
    println!("== Figure 2: forwarding rate of simple endpoint functions (normalised) ==");
    println!("{:30} {:>12} {:>12} {:>12}", "variant", "measured pps", "normalised", "paper");
    let rows = fig2::run(200_000);
    for row in rows {
        println!(
            "{:30} {:>12.0} {:>12.3} {:>12.2}",
            row.variant.label(),
            row.pps,
            row.normalized,
            row.paper_normalized
        );
    }
    println!();
}

fn print_jit() {
    println!("== §3.2: JIT vs interpreter (Add TLV) ==");
    let mut with_jit = fig2::build_scenario(fig2::Fig2Variant::AddTlvBpf);
    let mut no_jit = fig2::build_scenario(fig2::Fig2Variant::AddTlvBpfNoJit);
    let jit_pps = with_jit.measure_pps(200_000);
    let nojit_pps = no_jit.measure_pps(200_000);
    println!("Add TLV with JIT     : {jit_pps:>12.0} pps");
    println!("Add TLV interpreter  : {nojit_pps:>12.0} pps");
    println!("throughput ratio     : {:>12.2}  (paper: 1.8)", jit_pps / nojit_pps);
    println!();
}

fn print_fig3() {
    println!("== Figure 3: impact of the delay-monitoring programs (normalised) ==");
    println!("{:30} {:>12} {:>12} {:>12}", "variant", "measured pps", "normalised", "paper");
    for row in fig3::run(200_000) {
        println!(
            "{:30} {:>12.0} {:>12.3} {:>12.3}",
            row.variant.label(),
            row.pps,
            row.normalized,
            row.paper_normalized
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
