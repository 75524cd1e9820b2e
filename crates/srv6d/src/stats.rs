//! The daemon's operational endpoint: a unix-socket stats/control server
//! rendering Prometheus text from the pool's live counters, plus the
//! shared control flags the main loop, the signal handlers and the
//! control socket all write through.

use seg6_core::DropReason;
use seg6_runtime::PoolCounters;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Asynchronous control intents, settable from a signal handler, the
/// control socket, or a test — the main loop polls them between service
/// passes.
#[derive(Debug, Default)]
pub struct ControlFlags {
    /// Re-read the config file and apply the diff (SIGHUP / `reload`).
    pub reload: AtomicBool,
    /// Stop intake and drain (SIGTERM / SIGINT / `drain`).
    pub stop: AtomicBool,
}

/// Socket-level I/O counters of one tenant, updated by the daemon's
/// service loop and read by the stats server.
#[derive(Debug, Default)]
pub struct TenantIo {
    /// Frames read off the tenant's RX sockets.
    pub rx_frames: AtomicU64,
    /// Datagrams read off the tenant's RX sockets: fewer than the frames
    /// when the kernel coalesced runs (UDP GRO), equal when it did not.
    pub rx_datagrams: AtomicU64,
    /// Frames dropped on receive because they did not fit a frame slot
    /// (never forwarded cut).
    pub rx_truncated: AtomicU64,
    /// Frames emitted out of the tenant's TX sockets.
    pub tx_frames: AtomicU64,
    /// Forwarded packets that could not be emitted (backpressure, no
    /// peer for the verdict's interface, transport error).
    pub tx_drops: AtomicU64,
}

/// One tenant's row in the shared stats state. Slot `i` corresponds to
/// pool tenant index `i`; retired slots (replaced or removed by a reload)
/// stay listed with `active = false` so their counters remain scrapeable.
#[derive(Debug, Clone)]
pub struct TenantMeta {
    /// Tenant name from the config, which admits only `[A-Za-z0-9_.-]+`:
    /// it goes into label values unescaped.
    pub name: String,
    /// Whether the slot is currently serving (false once retired).
    pub active: bool,
    /// The slot's socket I/O counters.
    pub io: Arc<TenantIo>,
    /// The tenant's configured cost budget (tokens/second), when capped —
    /// exported as the `srv6d_cost_budget` gauge.
    pub budget: Option<u64>,
}

/// State shared between the daemon, the stats server thread and signal
/// handlers.
pub struct DaemonShared {
    /// Control intents.
    pub flags: ControlFlags,
    counters: Arc<PoolCounters>,
    tenants: Mutex<Vec<TenantMeta>>,
}

impl DaemonShared {
    /// Builds the shared state over the pool's live counters.
    pub fn new(counters: Arc<PoolCounters>) -> Arc<Self> {
        Arc::new(DaemonShared { flags: ControlFlags::default(), counters, tenants: Mutex::new(Vec::new()) })
    }

    /// Replaces the tenant listing (called by the daemon at start and
    /// after every reload).
    pub fn set_tenants(&self, tenants: Vec<TenantMeta>) {
        *self.tenants.lock().expect("tenant meta lock") = tenants;
    }

    /// A copy of the current tenant listing.
    pub fn tenants(&self) -> Vec<TenantMeta> {
        self.tenants.lock().expect("tenant meta lock").clone()
    }

    /// Renders the Prometheus text exposition of the current state: the
    /// per-tenant × per-shard pool counters, each slot's socket I/O
    /// totals, an `active` gauge and the configured cost budgets. A
    /// render reads state and keeps none: two scrapes with no traffic in
    /// between are byte-identical, so any number of scrapers can share the
    /// endpoint. Rates are the scraper's job — budget headroom is
    /// `srv6d_cost_budget - rate(srv6d_cost_total[1m])`.
    pub fn render_metrics(&self) -> String {
        let snapshot = self.counters.snapshot();
        let metas = self.tenants();
        let mut out = String::with_capacity(2048);
        let counter = |out: &mut String, name: &str, help: &str| {
            let _ = writeln!(out, "# HELP srv6d_{name} {help}");
            let _ = writeln!(out, "# TYPE srv6d_{name} counter");
        };
        let gauge = |out: &mut String, name: &str, help: &str| {
            let _ = writeln!(out, "# HELP srv6d_{name} {help}");
            let _ = writeln!(out, "# TYPE srv6d_{name} gauge");
        };
        gauge(&mut out, "tenant_active", "Whether the tenant slot is currently serving.");
        for (slot, meta) in metas.iter().enumerate() {
            let _ = writeln!(
                out,
                "srv6d_tenant_active{{tenant=\"{}\",slot=\"{slot}\"}} {}",
                meta.name,
                u8::from(meta.active)
            );
        }
        for (name, help, pick) in [
            ("enqueued_total", "Packets admitted to shard rings.", 0usize),
            ("rejected_total", "Packets refused by full shard rings.", 1),
            ("processed_total", "Packets the datapath processed.", 2),
            ("forwarded_total", "Forward verdicts.", 3),
            ("local_delivered_total", "Local-delivery verdicts.", 4),
            ("rejected_over_budget_total", "Packets shed by an exhausted cost budget.", 5),
            ("cost_total", "Cost-model units charged for processed work.", 6),
        ] {
            counter(&mut out, name, help);
            for (slot, tenant) in snapshot.tenants.iter().enumerate() {
                let label = metas.get(slot).map_or("?", |m| m.name.as_str());
                for (shard, row) in tenant.shards.iter().enumerate() {
                    let value = [
                        row.enqueued,
                        row.rejected,
                        row.processed,
                        row.forwarded,
                        row.local_delivered,
                        row.rejected_over_budget,
                        row.cost,
                    ][pick];
                    let _ = writeln!(
                        out,
                        "srv6d_{name}{{tenant=\"{label}\",slot=\"{slot}\",shard=\"{shard}\"}} {value}"
                    );
                }
            }
        }
        counter(&mut out, "dropped_total", "Drop verdicts, by reason.");
        for (slot, tenant) in snapshot.tenants.iter().enumerate() {
            let label = metas.get(slot).map_or("?", |m| m.name.as_str());
            for (shard, row) in tenant.shards.iter().enumerate() {
                for reason in DropReason::ALL {
                    let _ = writeln!(
                        out,
                        "srv6d_dropped_total{{tenant=\"{label}\",slot=\"{slot}\",shard=\"{shard}\",reason=\"{}\"}} {}",
                        reason.name(),
                        row.dropped_for(reason)
                    );
                }
            }
        }
        for (name, help, pick) in [
            ("rx_frames_total", "Frames read off RX sockets.", 0usize),
            (
                "rx_datagrams_total",
                "Datagrams read off RX sockets; frames per datagram above 1 is receive coalescing (GRO).",
                1,
            ),
            ("rx_truncated_total", "Frames dropped on receive for not fitting a frame slot.", 2),
            ("tx_frames_total", "Frames emitted out of TX sockets.", 3),
            ("tx_drops_total", "Forwarded packets not emitted (backpressure or no peer).", 4),
        ] {
            counter(&mut out, name, help);
            for (slot, meta) in metas.iter().enumerate() {
                let io = &meta.io;
                let value = [&io.rx_frames, &io.rx_datagrams, &io.rx_truncated, &io.tx_frames, &io.tx_drops]
                    [pick]
                    .load(Ordering::Relaxed);
                let _ = writeln!(out, "srv6d_{name}{{tenant=\"{}\",slot=\"{slot}\"}} {value}", meta.name);
            }
        }
        gauge(
            &mut out,
            "cost_budget",
            "Configured cost budget in cost-model tokens per second (budgeted tenants only).",
        );
        for (slot, meta) in metas.iter().enumerate() {
            if let Some(budget) = meta.budget {
                let _ =
                    writeln!(out, "srv6d_cost_budget{{tenant=\"{}\",slot=\"{slot}\"}} {budget}", meta.name);
            }
        }
        gauge(&mut out, "shard_pinned_core", "CPU core the shard thread is pinned to (-1 = unpinned).");
        for (shard, placement) in snapshot.placement.iter().enumerate() {
            let core = placement.pinned_core.map_or(-1, i64::from);
            let _ = writeln!(out, "srv6d_shard_pinned_core{{shard=\"{shard}\"}} {core}");
        }
        out
    }
}

/// The stats/control server: a thread accepting connections on a unix
/// socket. Protocol: the client sends one line — `metrics` (or an empty
/// line, or an HTTP `GET`) to scrape, `reload` / `drain` to set the
/// matching control flag, `ping` to probe — and the server replies and
/// closes.
pub struct StatsServer {
    path: PathBuf,
    halt: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatsServer {
    /// Binds `path` (removing a stale socket file first) and spawns the
    /// accept loop.
    pub fn spawn(path: impl AsRef<Path>, shared: Arc<DaemonShared>) -> std::io::Result<StatsServer> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        let halt = Arc::new(AtomicBool::new(false));
        let halt_thread = Arc::clone(&halt);
        let handle = std::thread::Builder::new().name("srv6d-stats".into()).spawn(move || {
            while !halt_thread.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => serve_one(stream, &shared),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        })?;
        Ok(StatsServer { path, halt, handle: Some(handle) })
    }

    /// The socket path the server is listening on.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Stops the accept loop, joins the thread and removes the socket
    /// file.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.halt.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(mut stream: UnixStream, shared: &DaemonShared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 256];
    let mut line = String::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                line.push_str(&String::from_utf8_lossy(&buf[..n]));
                if line.contains('\n') || line.len() > 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let command = line.lines().next().unwrap_or("").trim();
    let http = command.starts_with("GET ");
    let body = match command {
        "" | "metrics" => shared.render_metrics(),
        _ if http => shared.render_metrics(),
        "reload" => {
            shared.flags.reload.store(true, Ordering::Relaxed);
            "ok reload scheduled\n".to_string()
        }
        "drain" => {
            shared.flags.stop.store(true, Ordering::Relaxed);
            "ok draining\n".to_string()
        }
        "ping" => "ok\n".to_string(),
        other => format!("err unknown command `{other}`\n"),
    };
    if http {
        let _ = write!(
            stream,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
    }
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Client side of the control protocol: sends `command` to the server at
/// `path` and returns the reply (what `srv6d ctl` prints).
pub fn control(path: impl AsRef<Path>, command: &str) -> std::io::Result<String> {
    let mut stream = UnixStream::connect(path)?;
    stream.write_all(command.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reply = String::new();
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.read_to_string(&mut reply)?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg6_core::Seg6Datapath;
    use seg6_runtime::{PoolConfig, WorkerPool};
    use std::net::Shutdown;

    /// A hostile control request: random bytes, invalid UTF-8, a command
    /// with no newline, more than 4 KiB, NULs, padding — around the real
    /// command words and `GET` prefixes.
    fn hostile_request(next: &mut impl FnMut(usize) -> usize) -> Vec<u8> {
        const WORDS: [&str; 9] =
            ["reload", "drain", "ping", "metrics", "GET", "GET ", "GET /metrics HTTP/1.1", "", "reloads"];
        const PADS: [&str; 5] = ["", " ", "\t", "  \r", "\r"];
        let word = WORDS[next(WORDS.len())].as_bytes();
        match next(7) {
            0 => (0..next(96)).map(|_| next(256) as u8).collect(),
            1 => [&[0xff, 0xc3][..], word, b"\n"].concat(),
            2 => word.to_vec(),
            3 => {
                let mut long = vec![b'x'; 4097 + next(4096)];
                if next(2) == 0 {
                    long.splice(0..0, [word, b"\n"].concat());
                }
                long
            }
            4 => {
                let mut with_nul = [word, b"\n"].concat();
                with_nul.insert(next(with_nul.len() + 1), 0);
                with_nul
            }
            5 => [PADS[next(PADS.len())].as_bytes(), word, PADS[next(PADS.len())].as_bytes(), b"\n"].concat(),
            _ => [word, b"\n"].concat(),
        }
    }

    /// Sends seeded hostile requests, 32 connections at a time, each client
    /// half-closing its write side so the server never waits on its read
    /// timeout. Every reply is the metrics text (bare or behind an HTTP
    /// header), an `ok …` line or `err unknown command …`, as the request's
    /// first line decides; only exact `reload` / `drain` lines set their
    /// flags; and the server still answers `ping` afterwards.
    fn hostile_ctl_round(requests: usize) {
        let pool =
            WorkerPool::from_datapath(PoolConfig::default(), &Seg6Datapath::new("fc00::1".parse().unwrap()));
        let shared = DaemonShared::new(pool.counters());
        let path =
            std::env::temp_dir().join(format!("srv6d-ctl-fuzz-{}-{requests}.sock", std::process::id()));
        let server = StatsServer::spawn(&path, Arc::clone(&shared)).unwrap();
        let metrics = shared.render_metrics();
        let http = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{metrics}",
            metrics.len()
        );
        let mut state = 0x5eed_0c71_u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n.max(1) as u64) as usize
        };
        let mut sent = 0;
        while sent < requests {
            let batch: Vec<Vec<u8>> =
                (0..32.min(requests - sent)).map(|_| hostile_request(&mut next)).collect();
            sent += batch.len();
            let streams: Vec<UnixStream> = batch
                .iter()
                .map(|request| {
                    // The server may stop reading a long request, and close,
                    // before the client has finished writing it.
                    let mut stream = UnixStream::connect(&path).unwrap();
                    let _ = stream.write_all(request);
                    let _ = stream.shutdown(Shutdown::Write);
                    stream
                })
                .collect();
            let (mut reload, mut drain) = (false, false);
            for (request, mut stream) in batch.iter().zip(streams) {
                let mut reply = Vec::new();
                // A server that stops reading a long request may reset the
                // connection once it has replied; the reply stands.
                let _ = stream.read_to_end(&mut reply);
                let reply = String::from_utf8(reply).unwrap();
                let text = String::from_utf8_lossy(request);
                let want = match text.lines().next().unwrap_or("").trim() {
                    "" | "metrics" => metrics.as_str(),
                    command if command.starts_with("GET ") => http.as_str(),
                    "reload" => {
                        reload = true;
                        "ok reload scheduled\n"
                    }
                    "drain" => {
                        drain = true;
                        "ok draining\n"
                    }
                    "ping" => "ok\n",
                    _ => {
                        assert!(reply.starts_with("err unknown command `"), "{request:02x?}: {reply}");
                        continue;
                    }
                };
                assert_eq!(reply, want, "{request:02x?}");
            }
            assert_eq!(shared.flags.reload.swap(false, Ordering::Relaxed), reload, "{batch:02x?}");
            assert_eq!(shared.flags.stop.swap(false, Ordering::Relaxed), drain, "{batch:02x?}");
        }
        assert_eq!(control(&path, "ping").unwrap(), "ok\n");
        server.stop();
    }

    #[test]
    fn hostile_bytes_on_the_ctl_socket_get_one_of_the_three_replies() {
        hostile_ctl_round(256);
    }

    /// The same fuzz on 50 times the requests.
    #[test]
    #[ignore = "long fuzz run: cargo test --release -- --ignored"]
    fn hostile_bytes_on_the_ctl_socket_get_one_of_the_three_replies_long() {
        hostile_ctl_round(12_800);
    }
}
