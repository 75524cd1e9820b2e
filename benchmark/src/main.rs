//! The repo benchmark: five packet-path workloads, end-to-end metrics and
//! an outside-in per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! srv6-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload
//! srv6-benchmark [--seed <n>] [--seconds <s>] [--trace] [--quick]           all five
//! srv6-benchmark --selfcheck [--seed <n>] [--seconds <s>]                   all five, twice
//! ```

mod alloc;
mod calibrate;
mod layers;
mod metrics;
mod reference;
mod rng;
mod run;
mod single;
mod stats;
mod suite;
mod system;
mod system_daemon;
mod system_pool;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured seconds per workload when `--seconds` is not given (the value
/// `BENCHMARK.json` passes).
const DEFAULT_SECONDS: u32 = 20;
/// `--quick`: a smoke run, stamped not comparable.
const QUICK_SECONDS: u32 = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u32>,
    trace: bool,
    selfcheck: bool,
    quick: bool,
}

fn usage() -> String {
    format!(
        "usage: srv6-benchmark [--workload <{}>] [--seed <u64>] [--seconds <1..=60>] [--trace [0|1]] \
         [--selfcheck] [--quick]",
        workloads::NAMES.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: None,
        trace: false,
        selfcheck: false,
        quick: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        raw.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value(&mut i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: u32 =
                    value(&mut i, "--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.trace = match raw.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => args.selfcheck = true,
            "--quick" => args.quick = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
        i += 1;
    }
    Ok(args)
}

/// Confines this thread — and so every thread spawned after it: the pool's
/// workers inherit the mask — to one core, best effort.
///
/// Left to itself the scheduler puts dispatcher and worker sometimes on one
/// core and sometimes on two, and on this class of host the two placements
/// differ by almost 2× (the cross-core hand-off costs more than the
/// parallelism gains). On one core the two threads alternate, the rate is
/// the reciprocal of the CPU time per packet, and it repeats; the README
/// has the numbers for both placements.
fn confine_to_one_core() {
    let pinned = seg6_runtime::affinity::available_cores()
        .last()
        .is_some_and(|core| seg6_runtime::affinity::pin_current_thread(*core).is_ok());
    if !pinned {
        println!("note: could not confine the run to one core; expect a noisier rate");
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Execution tier, emitter and debug switches stay at their defaults: a
    // number measured under an override is not this benchmark's number.
    if let Some((name, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("SEG6_")) {
        eprintln!("refusing to run with {} set: unset every SEG6_* variable", name.to_string_lossy());
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or(if args.quick { QUICK_SECONDS } else { DEFAULT_SECONDS });

    let ok = match args.workload {
        Some(workload) => {
            confine_to_one_core();
            single::run(&single::Options {
                workload,
                seed: args.seed,
                plan: run::Plan { seconds, trace: args.trace },
            })
        }
        None => {
            let options =
                suite::SuiteOptions { seed: args.seed, seconds, trace: args.trace, quick: args.quick };
            if args.selfcheck {
                suite::selfcheck(&options)
            } else {
                suite::run(&options)
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
