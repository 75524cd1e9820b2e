//! All five workloads in one go: each in a process of its own (so memory
//! and set-up are per workload), results gathered into one table and one
//! JSON document under `target/benchmark/`. `--selfcheck` runs the suite
//! twice back to back and holds the two against the metrics' bounds.

use crate::metrics::{END_TO_END, SETUP_FLOOR_S};
use crate::single::number;
use crate::workloads::NAMES;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// What the suite runs.
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: u32,
    /// Also run the per-layer pass of every workload.
    pub trace: bool,
    /// Smoke mode: the numbers are not comparable with a full run's.
    pub quick: bool,
}

/// One child run's parsed output.
struct ChildRun {
    ok: bool,
    /// `metric <name> <value> <unit>` lines, in print order.
    metrics: Vec<(String, f64, String)>,
    /// The child's `detail {...}` JSON, verbatim.
    detail: String,
    /// The child's final result line, verbatim.
    result: String,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

/// Runs one workload in a child process of this same executable, echoing
/// its output, and waits for it to end.
fn run_child(workload: &str, options: &SuiteOptions, trace: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        ok: output.status.success(),
        metrics: Vec::new(),
        detail: "null".to_string(),
        result: "null".to_string(),
    };
    for line in stdout.lines() {
        println!("  {line}");
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("metric") => {
                if let (Some(name), Some(Ok(value)), Some(unit)) =
                    (fields.next(), fields.next().map(str::parse::<f64>), fields.next())
                {
                    run.metrics.push((name.to_string(), value, unit.to_string()));
                }
            }
            Some("detail") => run.detail = line["detail".len()..].trim().to_string(),
            Some(first) if first.starts_with('{') => run.result = line.to_string(),
            _ => {}
        }
    }
    run
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload once (plus its per-layer pass with `--trace`),
/// prints the summary and writes the result document. Returns whether
/// every run was correct, and the untraced runs by workload.
fn run_suite(options: &SuiteOptions) -> (bool, BTreeMap<&'static str, ChildRun>) {
    let mut all_ok = true;
    let mut untraced = BTreeMap::new();
    let mut entries = Vec::new();
    for workload in NAMES {
        println!("== {workload}");
        let run = run_child(workload, options, false);
        all_ok &= run.ok;
        let traced = options.trace.then(|| {
            println!("== {workload} (per-layer pass)");
            run_child(workload, options, true)
        });
        all_ok &= traced.as_ref().is_none_or(|t| t.ok);
        let mut entry =
            format!("{{\"workload\": \"{workload}\", \"result\": {}, \"detail\": {}", run.result, run.detail);
        if let Some(traced) = &traced {
            write!(
                entry,
                ", \"per_layer_result\": {}, \"per_layer_detail\": {}",
                traced.result, traced.detail
            )
            .expect("string write");
        }
        entry.push('}');
        entries.push(entry);
        untraced.insert(workload, run);
    }

    println!("== summary (seed {}, {} s per workload)", options.seed, options.seconds);
    for metric in END_TO_END.iter().map(|m| m.name).chain(["fail_share"]) {
        let row: Vec<String> = NAMES
            .iter()
            .map(|w| {
                format!("{w}={}", untraced[w].metric(metric).map_or("?".to_string(), |v| format!("{v:.4}")))
            })
            .collect();
        println!("{metric:>16}  {}", row.join("  "));
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let document = format!(
        "{{\"git_rev\": \"{}\", \"nproc\": {nproc}, \"seed\": {}, \"seconds\": {}, \"windows\": {}, \
         \"comparable\": {}, \"unix_time\": {stamp}, \"workloads\": [\n{}\n]}}\n",
        git_rev(),
        options.seed,
        options.seconds,
        options.seconds * 2,
        !options.quick,
        entries.join(",\n")
    );
    let path = format!("target/benchmark/run-seed{}-{stamp}.json", options.seed);
    match std::fs::create_dir_all("target/benchmark").and_then(|()| std::fs::write(&path, document)) {
        Ok(()) => println!("result document: {path}"),
        Err(e) => println!("result document not written ({e})"),
    }
    if options.quick {
        println!("quick mode: these numbers are a smoke test, not comparable with a full run");
    }
    (all_ok, untraced)
}

/// The whole suite once. Returns whether every run was correct.
pub fn run(options: &SuiteOptions) -> bool {
    run_suite(options).0
}

/// The suite twice, back to back; prints every end-to-end metric's
/// relative difference against its bound. Returns whether all runs were
/// correct and no bound was breached.
pub fn selfcheck(options: &SuiteOptions) -> bool {
    println!("#### selfcheck: first set");
    let (ok_a, first) = run_suite(options);
    println!("#### selfcheck: second set");
    let (ok_b, second) = run_suite(options);
    let mut ok = ok_a && ok_b;
    println!("#### selfcheck: second set against first");
    for workload in NAMES {
        for metric in &END_TO_END {
            let (Some(a), Some(b)) =
                (first[workload].metric(metric.name), second[workload].metric(metric.name))
            else {
                println!("{workload:>18} {:>15}  missing", metric.name);
                ok = false;
                continue;
            };
            let difference = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            let within_floor = metric.name == "setup_s" && (b - a).abs() <= SETUP_FLOOR_S;
            let breach = difference > metric.bound && !within_floor;
            ok &= !breach;
            println!(
                "{workload:>18} {:>15} ({} is better)  first {}  second {}  difference {:.2} % of bound {:.0} %{}",
                metric.name,
                metric.better,
                number(a),
                number(b),
                difference * 100.0,
                metric.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
        let fails = first[workload].metric("fail_share").unwrap_or(1.0)
            + second[workload].metric("fail_share").unwrap_or(1.0);
        if fails > 0.0 {
            println!("{workload:>18}      fail_share  is not 0  BREACH");
            ok = false;
        }
    }
    ok
}
