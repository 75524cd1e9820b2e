//! The daemon's operational endpoint: a unix-socket stats/control server
//! rendering Prometheus text from the pool's live counters, plus the
//! shared control flags the main loop, the signal handlers and the
//! control socket all write through.

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
    /// Tenant name from the config.
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
            ("dropped_total", "Drop verdicts.", 5),
            ("rejected_over_budget_total", "Packets shed by an exhausted cost budget.", 6),
            ("cost_total", "Cost-model units charged for processed work.", 7),
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
                        row.dropped,
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
        for (name, help, pick) in [
            ("rx_frames_total", "Frames read off RX sockets.", 0usize),
            ("tx_frames_total", "Frames emitted out of TX sockets.", 1),
            ("tx_drops_total", "Forwarded packets not emitted (backpressure or no peer).", 2),
        ] {
            counter(&mut out, name, help);
            for (slot, meta) in metas.iter().enumerate() {
                let value =
                    [&meta.io.rx_frames, &meta.io.tx_frames, &meta.io.tx_drops][pick].load(Ordering::Relaxed);
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
