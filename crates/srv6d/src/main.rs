//! The `srv6d` binary: process shell around [`srv6d::Srv6Daemon`].
//!
//! ```text
//! srv6d --config <path> [--stats <socket>]   run the daemon
//! srv6d check --config <path>                validate a config and exit
//! srv6d ctl <socket> <command>               talk to a running daemon
//!                                            (metrics | reload | drain | ping)
//! ```
//!
//! Signals: SIGHUP schedules a config reload (the file is re-read and
//! applied as a diff), SIGTERM/SIGINT schedule a graceful drain. The
//! same intents are reachable through the stats socket (`srv6d ctl`), so
//! deployments without signal access (and the CI smoke test) drive the
//! identical paths.

use srv6d::{resolve_backend, Config, Srv6Daemon};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Signal → atomic-flag bridge. The one unsafe block in the daemon: the
/// handlers only store to process-wide atomics, which is async-signal
/// safe; `std` already links the C runtime on Linux, so `signal(2)` is
/// declared directly instead of pulling in a libc crate.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RELOAD: AtomicBool = AtomicBool::new(false);
    static STOP: AtomicBool = AtomicBool::new(false);

    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_reload(_: i32) {
        RELOAD.store(true, Ordering::Relaxed);
    }

    extern "C" fn on_stop(_: i32) {
        STOP.store(true, Ordering::Relaxed);
    }

    /// Installs the handlers: SIGHUP → reload, SIGTERM/SIGINT → stop.
    pub fn install() {
        unsafe {
            signal(SIGHUP, on_reload);
            signal(SIGTERM, on_stop);
            signal(SIGINT, on_stop);
        }
    }

    /// Takes (and clears) a pending reload request.
    pub fn take_reload() -> bool {
        RELOAD.swap(false, Ordering::Relaxed)
    }

    /// Whether a stop was requested.
    pub fn stop_requested() -> bool {
        STOP.load(Ordering::Relaxed)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: srv6d --config <path> [--stats <socket>]\n\
         \x20      srv6d check --config <path>\n\
         \x20      srv6d ctl <socket> <metrics|reload|drain|ping>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("ctl") => ctl(&args[1..]),
        Some(_) => run(&args),
        None => usage(),
    }
}

/// Parses `--config <path> [--stats <socket>]` flags.
fn parse_flags(args: &[String]) -> Option<(PathBuf, Option<PathBuf>)> {
    let mut config = None;
    let mut stats = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--config" => config = Some(PathBuf::from(iter.next()?)),
            "--stats" => stats = Some(PathBuf::from(iter.next()?)),
            _ => return None,
        }
    }
    Some((config?, stats))
}

fn check(args: &[String]) -> ExitCode {
    let Some((path, _)) = parse_flags(args) else {
        return usage();
    };
    match Config::load(&path) {
        Ok(config) => {
            println!(
                "ok: {} tenants, {} workers, {} routes, {} sids",
                config.tenants.len(),
                config.daemon.workers,
                config.tenants.iter().map(|t| t.routes.len()).sum::<usize>(),
                config.tenants.iter().map(|t| t.sids.len()).sum::<usize>()
            );
            println!("io-backend: {}", config.daemon.io_backend);
            let cores = seg6_runtime::affinity::available_cores();
            let plan = config.daemon.pinning.plan(config.daemon.workers, &cores);
            println!(
                "pinning: {} ({} cores online){}",
                config.daemon.pinning,
                cores.len(),
                config
                    .daemon
                    .pin_dispatcher
                    .map(|core| format!(", dispatcher -> cpu{core}"))
                    .unwrap_or_default()
            );
            for (shard, core) in plan.iter().enumerate() {
                match core {
                    Some(core) => println!("  shard {shard} -> cpu{core}"),
                    None => println!("  shard {shard} -> unpinned"),
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn ctl(args: &[String]) -> ExitCode {
    let (Some(socket), Some(command)) = (args.first(), args.get(1)) else {
        return usage();
    };
    match srv6d::control(socket, command) {
        Ok(reply) => {
            print!("{reply}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("srv6d ctl: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let Some((path, stats)) = parse_flags(args) else {
        return usage();
    };
    let mut config = match Config::load(&path) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("srv6d: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(stats) = &stats {
        config.daemon.stats_socket = Some(stats.clone());
    }
    let (backend, backend_name) = match resolve_backend(config.daemon.io_backend) {
        Ok(resolved) => resolved,
        Err(e) => {
            eprintln!("srv6d: {e}");
            return ExitCode::from(2);
        }
    };
    let mut daemon = match Srv6Daemon::start(config, backend) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("srv6d: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shared = daemon.shared();
    signals::install();
    println!(
        "srv6d: serving {} tenants on {} queues each, io-backend {backend_name}{}",
        daemon.config().tenants.len(),
        daemon.config().daemon.workers,
        daemon
            .config()
            .daemon
            .stats_socket
            .as_ref()
            .map(|p| format!(", stats on {}", p.display()))
            .unwrap_or_default()
    );

    loop {
        let pass = daemon.service();
        if signals::stop_requested() || shared.flags.stop.load(Ordering::Relaxed) {
            break;
        }
        if signals::take_reload() || shared.flags.reload.swap(false, Ordering::Relaxed) {
            match Config::load(&path) {
                Ok(mut new) => {
                    // The --stats override is part of the running config,
                    // not the file; re-apply it so the [daemon]-unchanged
                    // reload check compares like with like.
                    if let Some(stats) = &stats {
                        new.daemon.stats_socket = Some(stats.clone());
                    }
                    match daemon.reload(new) {
                        Ok(report) => println!("srv6d: {report}"),
                        Err(e) => {
                            eprintln!("srv6d: reload failed, old config (partially) kept: {e}")
                        }
                    }
                }
                Err(e) => eprintln!("srv6d: reload rejected: {e}"),
            }
        }
        if pass.rx_frames == 0 {
            // Idle: back off instead of spinning on empty sockets.
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    println!("srv6d: draining");
    let report = daemon.drain();
    for tenant in &report.tenants {
        println!(
            "srv6d: tenant {} ({}): rx {} enq {} proc {} fwd {} local {} drop {} rej {} tx {} txdrop {}",
            tenant.name,
            if tenant.active { "active" } else { "retired" },
            tenant.rx_frames,
            tenant.totals.enqueued,
            tenant.totals.processed,
            tenant.totals.forwarded,
            tenant.totals.local_delivered,
            tenant.totals.total_dropped(),
            tenant.totals.rejected,
            tenant.tx_frames,
            tenant.tx_drops
        );
    }
    println!(
        "srv6d: drained, {} packets processed lifetime",
        report.drain.counters.tenants.iter().map(|t| t.totals().processed).sum::<u64>()
    );
    ExitCode::SUCCESS
}
