//! The daemon's declarative configuration: tenants, VRFs, routes, local
//! SIDs, and queue/shard counts, parsed from a small INI-shaped text file
//! with load-time validation.
//!
//! ## Format
//!
//! ```text
//! # srv6d.conf — one [daemon] section, then one [tenant NAME] per tenant.
//! [daemon]
//! workers = 2              # worker shards = RX queues per tenant (1..=MAX_WORKERS)
//! batch-size = 32          # packets per processing batch (≤ MAX_BATCH_SIZE)
//! queue-depth = 1024       # descriptor ring slots per shard (≤ MAX_QUEUE_DEPTH)
//! rx-burst = 64            # datagrams pulled per socket read burst (≤ MAX_RX_BURST)
//! stats-socket = /tmp/srv6d.sock
//! io-backend = mmsg        # recvmmsg/sendmmsg bursts, the one backend (`auto` is read as mmsg)
//! pin = compact            # none | compact | spread | explicit core list (0,2,4)
//! pin-dispatcher = 0       # optionally pin the dispatcher thread too
//!
//! [tenant edge]
//! local = fc00::1          # the node address SIDs hang off
//! listen = [::1]:9000      # RX queue q binds port 9000+q
//! peer = 1 [::1]:9100      # egress: oif 1 emits to this address
//! vrf = customer           # declare a VRF (routes/SIDs may reference it)
//! weight = 4               # DRR scheduling weight (default 1)
//! quota = 50               # max % of each shard ring (default: unlimited)
//! budget = 500000          # cost tokens per second (default: unlimited)
//! route = 2001:db8::/32 dev 1
//! route = @customer ::/0 via fc00::ff dev 1
//! sid = fc00::1:e0 end
//! sid = fc00::1:e1 end.t customer
//! sid = fc00::1:e2 end.dt6 customer
//! ```
//!
//! `key = value` lines, `#` comments, repeatable keys (`peer`, `vrf`,
//! `route`, `sid`). Parsing is strict: unknown keys, malformed values and
//! cross-references to undeclared VRFs or peerless interfaces are
//! load-time errors carrying the offending line number — a daemon must
//! refuse a bad config at start (and at reload) rather than forward with
//! half of it applied.

use netpkt::Ipv6Prefix;
use seg6_runtime::{PinPolicy, MAX_WORKERS};
use std::fmt;
use std::net::{Ipv6Addr, SocketAddr};
use std::path::{Path, PathBuf};

/// Largest `queue-depth`: descriptor ring slots per shard. `start`
/// allocates the ring (rounded up to a power of two) for every shard, so an
/// unbounded value would be an unbounded allocation.
pub const MAX_QUEUE_DEPTH: usize = 65_536;

/// Largest `batch-size`: a batch never holds more than one full ring of
/// descriptors.
pub const MAX_BATCH_SIZE: usize = MAX_QUEUE_DEPTH;

/// Largest `rx-burst`: datagrams per socket read burst, at most
/// `UIO_MAXIOV` (1024), the most messages one `recvmmsg(2)` call takes.
pub const MAX_RX_BURST: usize = 1_024;

/// A configuration error, with the 1-based line it was found on when the
/// problem is attributable to one line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number, when the error points at a specific line.
    pub line: Option<usize>,
    /// What is wrong.
    pub message: String,
}

impl ConfigError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        ConfigError { line: Some(line), message: message.into() }
    }

    fn global(message: impl Into<String>) -> Self {
        ConfigError { line: None, message: message.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "config line {line}: {}", self.message),
            None => write!(f, "config: {}", self.message),
        }
    }
}

impl std::error::Error for ConfigError {}

/// `[daemon]` section: pool sizing and the operational endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Worker shards — and RX queues per tenant (one socket per queue).
    pub workers: u32,
    /// Packets per processing batch inside the pool.
    pub batch_size: usize,
    /// Descriptor ring slots per shard.
    pub queue_depth: usize,
    /// Datagrams pulled from a socket per read burst: the receive
    /// batch's slot count. A coalesced (GRO) datagram carries several
    /// frames, so a burst may hold more frames than this.
    pub rx_burst: usize,
    /// Unix socket path for the stats/control endpoint (optional).
    pub stats_socket: Option<PathBuf>,
    /// Socket backend (`io-backend = mmsg`; `auto` is a synonym kept so
    /// older configs load). Resolved by [`crate::io::resolve_backend`] at
    /// start.
    pub io_backend: IoBackendChoice,
    /// Shard-thread pin policy (`pin = none|compact|spread|<core list>`).
    pub pinning: PinPolicy,
    /// Pin the dispatcher thread too (`pin-dispatcher = <core>`).
    pub pin_dispatcher: Option<u32>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 1,
            batch_size: 32,
            queue_depth: 1024,
            rx_burst: 64,
            stats_socket: None,
            io_backend: IoBackendChoice::default(),
            pinning: PinPolicy::None,
            pin_dispatcher: None,
        }
    }
}

/// The `io-backend =` value. There is one kernel backend, so there is
/// one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackendChoice {
    /// Raw `recvmmsg(2)`/`sendmmsg(2)`, one syscall per burst. Linux
    /// only: elsewhere the daemon fails to start at its first socket.
    #[default]
    Mmsg,
}

impl fmt::Display for IoBackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("mmsg")
    }
}

/// One route statement inside a tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSpec {
    /// Target VRF (`@name` prefix in the statement); main table if absent.
    pub vrf: Option<String>,
    /// Destination prefix.
    pub prefix: Ipv6Prefix,
    /// Gateway (`via` clause); direct attachment if absent.
    pub gateway: Option<Ipv6Addr>,
    /// Egress interface index (`dev` clause).
    pub oif: u32,
}

/// The behaviour bound to a local SID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidBehaviour {
    /// `End`: advance to the next segment.
    End,
    /// `End.T`: advance, then look up in the named VRF.
    EndT(String),
    /// `End.DT6`: decapsulate, then look up in the named VRF.
    EndDt6(String),
}

/// One `sid =` statement inside a tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidSpec {
    /// The SID address (installed as a /128).
    pub addr: Ipv6Addr,
    /// The endpoint behaviour bound to it.
    pub behaviour: SidBehaviour,
}

/// A tenant's QoS keys (`weight =` / `quota =` / `budget =`), applied to
/// its pool slot as a [`seg6_runtime::TenantQos`]. The quota is stored as
/// an integer percentage (1..=100) so tenant configs stay `Eq`-comparable
/// for reload diffing. The default reproduces the pre-QoS behaviour:
/// weight 1, no quota, no budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQosConfig {
    /// Deficit-round-robin scheduling weight (≥ 1).
    pub weight: u32,
    /// Maximum share of each shard's descriptor ring, in percent
    /// (1..=100); `None` = no cap.
    pub quota_percent: Option<u32>,
    /// Cost budget in tokens per second; `None` = unlimited.
    pub budget: Option<u64>,
}

impl Default for TenantQosConfig {
    fn default() -> Self {
        TenantQosConfig { weight: 1, quota_percent: None, budget: None }
    }
}

impl TenantQosConfig {
    /// The runtime QoS parameters these keys translate to.
    pub fn runtime(&self) -> seg6_runtime::TenantQos {
        seg6_runtime::TenantQos {
            weight: self.weight,
            ring_quota: self.quota_percent.map(|p| f64::from(p) / 100.0),
            cost_budget: self.budget,
        }
    }
}

/// How a tenant's new config relates to its running one, deciding the
/// reload path: nothing to do, live-tunable (routes and/or QoS patched
/// without touching the slot), or structural (retire + re-register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantDiff {
    /// Byte-identical — untouched.
    Identical,
    /// Only live-patchable settings changed: the route list (propagates
    /// through the shared tables) and/or the QoS keys (a lock-free
    /// dispatcher update). The slot, its sockets and its per-shard forks
    /// stay as they are.
    Tunable {
        /// The route list changed.
        routes_changed: bool,
        /// The `weight`/`quota`/`budget` keys changed.
        qos_changed: bool,
    },
    /// Something per-fork or socket-shaped changed (local address,
    /// listen/peers, VRFs, SIDs) — the slot must be rebuilt.
    Structural,
}

/// One `[tenant NAME]` section: a routing context with its own sockets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant name (unique across the config).
    pub name: String,
    /// The node's own address (SIDs and local delivery hang off it).
    pub local: Ipv6Addr,
    /// Base RX address: queue `q` binds `listen.port() + q`.
    pub listen: SocketAddr,
    /// Egress map: interface index → peer address frames to it are sent to.
    pub peers: Vec<(u32, SocketAddr)>,
    /// Declared VRF names, in declaration order.
    pub vrfs: Vec<String>,
    /// Route statements, in declaration order.
    pub routes: Vec<RouteSpec>,
    /// Local SID bindings, in declaration order.
    pub sids: Vec<SidSpec>,
    /// The tenant's QoS keys (weight / quota / budget).
    pub qos: TenantQosConfig,
}

impl TenantConfig {
    /// The RX socket address of queue `queue`.
    pub fn listen_addr(&self, queue: u32) -> SocketAddr {
        let mut addr = self.listen;
        addr.set_port(self.listen.port() + queue as u16);
        addr
    }

    /// The peer address of interface `oif`, when one is configured.
    pub fn peer(&self, oif: u32) -> Option<SocketAddr> {
        self.peers.iter().find(|(i, _)| *i == oif).map(|(_, a)| *a)
    }

    /// Classifies how `other` differs from `self` for reload purposes:
    /// routes and QoS keys are live-tunable (routes propagate through the
    /// shared `RouterTables`, QoS through a lock-free dispatcher update);
    /// anything else is structural and forces a slot rebuild.
    pub fn diff(&self, other: &TenantConfig) -> TenantDiff {
        let mut a = self.clone();
        let mut b = other.clone();
        a.routes.clear();
        b.routes.clear();
        a.qos = TenantQosConfig::default();
        b.qos = TenantQosConfig::default();
        if a != b {
            return TenantDiff::Structural;
        }
        let routes_changed = self.routes != other.routes;
        let qos_changed = self.qos != other.qos;
        if routes_changed || qos_changed {
            TenantDiff::Tunable { routes_changed, qos_changed }
        } else {
            TenantDiff::Identical
        }
    }
}

/// A full parsed and validated daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Config {
    /// `[daemon]` settings.
    pub daemon: DaemonConfig,
    /// Tenant sections, in file order.
    pub tenants: Vec<TenantConfig>,
}

impl Config {
    /// Parses and validates a configuration from its text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut parser = Parser::default();
        for (index, raw) in text.lines().enumerate() {
            parser.line(index + 1, raw)?;
        }
        parser.finish()
    }

    /// Loads and validates the configuration file at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Config, ConfigError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError::global(format!("cannot read {}: {e}", path.display())))?;
        Config::parse(&text)
    }

    /// The tenant named `name`, if present.
    pub fn tenant(&self, name: &str) -> Option<&TenantConfig> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Whether `other` can be applied to a daemon running `self` without a
    /// restart: the pool-shaping `[daemon]` settings must be unchanged
    /// (worker threads, ring depths and the stats socket are built once).
    pub fn reloadable_from(&self, other: &Config) -> Result<(), ConfigError> {
        if self.daemon != other.daemon {
            return Err(ConfigError::global(
                "[daemon] settings (workers / batch-size / queue-depth / rx-burst / stats-socket / \
                 pin / pin-dispatcher) cannot change across a live reload — restart \
                 the daemon",
            ));
        }
        Ok(())
    }
}

/// Which section the parser is inside.
enum Section {
    Daemon,
    Tenant(Box<TenantDraft>),
}

/// A `[tenant]` section under construction (validated at section end).
struct TenantDraft {
    line: usize,
    name: String,
    local: Option<Ipv6Addr>,
    listen: Option<SocketAddr>,
    peers: Vec<(u32, SocketAddr)>,
    vrfs: Vec<String>,
    routes: Vec<RouteSpec>,
    sids: Vec<SidSpec>,
    qos: TenantQosConfig,
}

#[derive(Default)]
struct Parser {
    daemon: DaemonConfig,
    seen_daemon: bool,
    tenants: Vec<TenantConfig>,
    section: Option<Section>,
}

impl Parser {
    fn line(&mut self, num: usize, raw: &str) -> Result<(), ConfigError> {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return Ok(());
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| ConfigError::at(num, "unterminated section header"))?
                .trim();
            self.close_section()?;
            self.section = Some(match header {
                "daemon" => {
                    if self.seen_daemon {
                        return Err(ConfigError::at(num, "duplicate [daemon] section"));
                    }
                    self.seen_daemon = true;
                    Section::Daemon
                }
                "tenant" => return Err(ConfigError::at(num, "[tenant] needs a name: [tenant NAME]")),
                other => {
                    let name =
                        other.strip_prefix("tenant").filter(|rest| rest.starts_with(char::is_whitespace));
                    let Some(name) = name.map(str::trim_start) else {
                        return Err(ConfigError::at(num, format!("unknown section [{other}]")));
                    };
                    if !is_tenant_name(name) {
                        let message = format!("tenant name `{name}` must match [A-Za-z0-9_.-]+");
                        return Err(ConfigError::at(num, message));
                    }
                    Section::Tenant(Box::new(TenantDraft {
                        line: num,
                        name: name.to_string(),
                        local: None,
                        listen: None,
                        peers: Vec::new(),
                        vrfs: Vec::new(),
                        routes: Vec::new(),
                        sids: Vec::new(),
                        qos: TenantQosConfig::default(),
                    }))
                }
            });
            return Ok(());
        }
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| ConfigError::at(num, "expected `key = value`"))?;
        if value.is_empty() {
            return Err(ConfigError::at(num, format!("`{key}` has no value")));
        }
        match &mut self.section {
            None => {
                Err(ConfigError::at(num, "settings must live inside a [daemon] or [tenant NAME] section"))
            }
            Some(Section::Daemon) => daemon_key(&mut self.daemon, num, key, value),
            Some(Section::Tenant(draft)) => tenant_key(draft, num, key, value),
        }
    }

    fn close_section(&mut self) -> Result<(), ConfigError> {
        if let Some(Section::Tenant(draft)) = self.section.take() {
            self.tenants.push(validate_tenant(*draft)?);
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Config, ConfigError> {
        self.close_section()?;
        let config = Config { daemon: self.daemon, tenants: self.tenants };
        validate_config(&config)?;
        Ok(config)
    }
}

/// Whether `name` may name a tenant: `/metrics` writes it into label
/// values unescaped, so only `[A-Za-z0-9_.-]+`.
fn is_tenant_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn daemon_key(daemon: &mut DaemonConfig, num: usize, key: &str, value: &str) -> Result<(), ConfigError> {
    // A size of 0 means 1; anything above `max` is refused.
    let parse_size = |what: &str, max: usize| -> Result<usize, ConfigError> {
        let size =
            value.parse::<usize>().map_err(|_| ConfigError::at(num, format!("`{what}` must be a number")))?;
        if size > max {
            return Err(ConfigError::at(num, format!("`{what}` must be at most {max}")));
        }
        Ok(size.max(1))
    };
    match key {
        "workers" => {
            daemon.workers = value
                .parse::<u32>()
                .ok()
                .filter(|workers| (1..=MAX_WORKERS).contains(workers))
                .ok_or_else(|| ConfigError::at(num, format!("`workers` must be 1..={MAX_WORKERS}")))?;
        }
        "batch-size" => daemon.batch_size = parse_size("batch-size", MAX_BATCH_SIZE)?,
        "queue-depth" => daemon.queue_depth = parse_size("queue-depth", MAX_QUEUE_DEPTH)?,
        "rx-burst" => daemon.rx_burst = parse_size("rx-burst", MAX_RX_BURST)?,
        "stats-socket" => daemon.stats_socket = Some(PathBuf::from(value)),
        "io-backend" => {
            daemon.io_backend = match value {
                "mmsg" | "auto" => IoBackendChoice::Mmsg,
                other => {
                    return Err(ConfigError::at(
                        num,
                        format!("`io-backend` must be mmsg or auto (got `{other}`)"),
                    ))
                }
            }
        }
        "pin" => {
            daemon.pinning =
                value.parse::<PinPolicy>().map_err(|e| ConfigError::at(num, format!("`pin`: {e}")))?
        }
        "pin-dispatcher" => {
            daemon.pin_dispatcher = Some(
                value
                    .parse::<u32>()
                    .map_err(|_| ConfigError::at(num, "`pin-dispatcher` must be a core number"))?,
            )
        }
        other => return Err(ConfigError::at(num, format!("unknown [daemon] key `{other}`"))),
    }
    Ok(())
}

fn tenant_key(draft: &mut TenantDraft, num: usize, key: &str, value: &str) -> Result<(), ConfigError> {
    match key {
        "local" => {
            draft.local = Some(
                value
                    .parse::<Ipv6Addr>()
                    .map_err(|_| ConfigError::at(num, "`local` must be an IPv6 address"))?,
            )
        }
        "listen" => {
            draft.listen = Some(parse_sockaddr(value).ok_or_else(|| {
                ConfigError::at(num, "`listen` must be an IPv6 socket address like [::1]:9000")
            })?)
        }
        "peer" => {
            let (oif, addr) = value
                .split_once(char::is_whitespace)
                .ok_or_else(|| ConfigError::at(num, "`peer` is `peer = <oif> <addr>:<port>`"))?;
            let oif = oif
                .trim()
                .parse::<u32>()
                .map_err(|_| ConfigError::at(num, "`peer` interface index must be a number"))?;
            let addr = parse_sockaddr(addr.trim())
                .ok_or_else(|| ConfigError::at(num, "`peer` address must be like [::1]:9100"))?;
            if draft.peers.iter().any(|(i, _)| *i == oif) {
                return Err(ConfigError::at(num, format!("duplicate peer for interface {oif}")));
            }
            draft.peers.push((oif, addr));
        }
        "vrf" => {
            if draft.vrfs.iter().any(|v| v == value) {
                return Err(ConfigError::at(num, format!("duplicate vrf `{value}`")));
            }
            draft.vrfs.push(value.to_string());
        }
        "route" => draft.routes.push(parse_route(draft, num, value)?),
        "sid" => draft.sids.push(parse_sid(draft, num, value)?),
        "weight" => {
            let weight =
                value.parse::<u32>().map_err(|_| ConfigError::at(num, "`weight` must be a number"))?;
            if weight == 0 {
                return Err(ConfigError::at(num, "`weight` must be at least 1"));
            }
            draft.qos.weight = weight;
        }
        "quota" => {
            // `quota = 50` or `quota = 50%`: a share of each shard ring.
            let percent = value
                .trim_end_matches('%')
                .trim()
                .parse::<u32>()
                .map_err(|_| ConfigError::at(num, "`quota` must be a percentage like 50 or 50%"))?;
            if percent == 0 || percent > 100 {
                return Err(ConfigError::at(num, "`quota` must be 1..=100 percent"));
            }
            draft.qos.quota_percent = Some(percent);
        }
        "budget" => {
            let budget = value
                .parse::<u64>()
                .map_err(|_| ConfigError::at(num, "`budget` must be a number of cost tokens/sec"))?;
            if budget == 0 {
                return Err(ConfigError::at(num, "`budget` must be at least 1 token/sec"));
            }
            draft.qos.budget = Some(budget);
        }
        other => return Err(ConfigError::at(num, format!("unknown [tenant] key `{other}`"))),
    }
    Ok(())
}

/// `route = [@vrf] <prefix> [via <gw>] dev <oif>`
fn parse_route(draft: &TenantDraft, num: usize, value: &str) -> Result<RouteSpec, ConfigError> {
    let mut words = value.split_whitespace().peekable();
    let vrf = match words.peek() {
        Some(word) if word.starts_with('@') => {
            let name = words.next().unwrap()[1..].to_string();
            if !draft.vrfs.contains(&name) {
                return Err(ConfigError::at(num, format!("route references undeclared vrf `{name}`")));
            }
            Some(name)
        }
        _ => None,
    };
    let prefix = words
        .next()
        .and_then(|p| p.parse::<Ipv6Prefix>().ok())
        .ok_or_else(|| ConfigError::at(num, "route needs a destination prefix like 2001:db8::/32"))?;
    let mut gateway = None;
    let mut oif = None;
    while let Some(word) = words.next() {
        match word {
            "via" => {
                let gw = words
                    .next()
                    .and_then(|g| g.parse::<Ipv6Addr>().ok())
                    .ok_or_else(|| ConfigError::at(num, "`via` needs an IPv6 gateway address"))?;
                gateway = Some(gw);
            }
            "dev" => {
                let dev = words
                    .next()
                    .and_then(|d| d.parse::<u32>().ok())
                    .ok_or_else(|| ConfigError::at(num, "`dev` needs an interface index"))?;
                oif = Some(dev);
            }
            other => return Err(ConfigError::at(num, format!("unknown route clause `{other}`"))),
        }
    }
    let oif = oif.ok_or_else(|| ConfigError::at(num, "route needs a `dev <oif>` clause"))?;
    Ok(RouteSpec { vrf, prefix, gateway, oif })
}

/// `sid = <addr> end | end.t <vrf> | end.dt6 <vrf>`
fn parse_sid(draft: &TenantDraft, num: usize, value: &str) -> Result<SidSpec, ConfigError> {
    let mut words = value.split_whitespace();
    let addr = words
        .next()
        .and_then(|a| a.parse::<Ipv6Addr>().ok())
        .ok_or_else(|| ConfigError::at(num, "sid needs an IPv6 address"))?;
    let behaviour = words.next().unwrap_or("").to_ascii_lowercase();
    let needs_vrf = |words: &mut std::str::SplitWhitespace<'_>| -> Result<String, ConfigError> {
        let name = words
            .next()
            .ok_or_else(|| ConfigError::at(num, format!("`{behaviour}` needs a vrf name")))?
            .to_string();
        if !draft.vrfs.contains(&name) {
            return Err(ConfigError::at(num, format!("sid references undeclared vrf `{name}`")));
        }
        Ok(name)
    };
    let behaviour = match behaviour.as_str() {
        "end" => SidBehaviour::End,
        "end.t" => SidBehaviour::EndT(needs_vrf(&mut words)?),
        "end.dt6" => SidBehaviour::EndDt6(needs_vrf(&mut words)?),
        "" => return Err(ConfigError::at(num, "sid needs a behaviour: end | end.t <vrf> | end.dt6 <vrf>")),
        other => return Err(ConfigError::at(num, format!("unknown sid behaviour `{other}`"))),
    };
    if let Some(extra) = words.next() {
        return Err(ConfigError::at(num, format!("unexpected `{extra}` after sid behaviour")));
    }
    Ok(SidSpec { addr, behaviour })
}

fn parse_sockaddr(s: &str) -> Option<SocketAddr> {
    let addr: SocketAddr = s.parse().ok()?;
    addr.is_ipv6().then_some(addr)
}

fn validate_tenant(draft: TenantDraft) -> Result<TenantConfig, ConfigError> {
    let line = draft.line;
    let local = draft
        .local
        .ok_or_else(|| ConfigError::at(line, format!("tenant `{}` needs `local = <addr>`", draft.name)))?;
    let listen = draft.listen.ok_or_else(|| {
        ConfigError::at(line, format!("tenant `{}` needs `listen = [addr]:port`", draft.name))
    })?;
    for route in &draft.routes {
        if draft.peers.iter().all(|(oif, _)| *oif != route.oif) {
            return Err(ConfigError::at(
                line,
                format!(
                    "tenant `{}` routes out of interface {} but declares no `peer = {} <addr>`",
                    draft.name, route.oif, route.oif
                ),
            ));
        }
    }
    Ok(TenantConfig {
        name: draft.name,
        local,
        listen,
        peers: draft.peers,
        vrfs: draft.vrfs,
        routes: draft.routes,
        sids: draft.sids,
        qos: draft.qos,
    })
}

/// The checks that need the whole file (`[daemon]` may follow the tenants).
fn validate_config(config: &Config) -> Result<(), ConfigError> {
    if config.tenants.is_empty() {
        return Err(ConfigError::global("at least one [tenant NAME] section is required"));
    }
    let workers = config.daemon.workers;
    for (i, tenant) in config.tenants.iter().enumerate() {
        // Queue q binds port+q: the whole range must stay a valid port.
        if u32::from(tenant.listen.port()) + workers > u32::from(u16::MAX) {
            return Err(ConfigError::global(format!(
                "tenant `{}` listen port range overflows a u16 with {workers} queues",
                tenant.name
            )));
        }
        for other in &config.tenants[i + 1..] {
            if tenant.name == other.name {
                return Err(ConfigError::global(format!("duplicate tenant `{}`", tenant.name)));
            }
            // Each tenant owns the port window [port, port+workers); two
            // tenants on the same IP must not overlap.
            let same_ip = tenant.listen.ip() == other.listen.ip();
            let (a, b) = (u32::from(tenant.listen.port()), u32::from(other.listen.port()));
            if same_ip && a < b + workers && b < a + workers {
                return Err(ConfigError::global(format!(
                    "tenants `{}` and `{}` have overlapping listen port ranges ({workers} queues each)",
                    tenant.name, other.name
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# a two-tenant edge daemon
[daemon]
workers = 2
batch-size = 16
queue-depth = 256
rx-burst = 32
stats-socket = /tmp/srv6d-test.sock

[tenant edge]
local = fc00::1
listen = [::1]:9000
peer = 1 [::1]:9100
vrf = customer
weight = 4
quota = 50%
budget = 500000
route = 2001:db8::/32 dev 1
route = @customer ::/0 via fc00::ff dev 1
sid = fc00::1:e1 end.t customer
sid = fc00::1:e2 end.dt6 customer
sid = fc00::1:e0 end

[tenant lab]
local = fc00::2
listen = [::1]:9010
peer = 7 [::1]:9110
route = ::/0 dev 7
"#;

    #[test]
    fn parses_a_full_config() {
        let config = Config::parse(GOOD).expect("valid config");
        assert_eq!(config.daemon.workers, 2);
        assert_eq!(config.daemon.batch_size, 16);
        assert_eq!(config.daemon.stats_socket.as_deref(), Some(Path::new("/tmp/srv6d-test.sock")));
        assert_eq!(config.tenants.len(), 2);

        let edge = config.tenant("edge").unwrap();
        assert_eq!(edge.local, "fc00::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(edge.listen_addr(0).port(), 9000);
        assert_eq!(edge.listen_addr(1).port(), 9001);
        assert_eq!(edge.peer(1), Some("[::1]:9100".parse().unwrap()));
        assert_eq!(edge.vrfs, vec!["customer".to_string()]);
        assert_eq!(edge.routes.len(), 2);
        assert_eq!(edge.routes[1].vrf.as_deref(), Some("customer"));
        assert_eq!(edge.routes[1].gateway, Some("fc00::ff".parse().unwrap()));
        assert_eq!(edge.sids.len(), 3);
        assert_eq!(edge.sids[0].behaviour, SidBehaviour::EndT("customer".into()));
        assert_eq!(edge.sids[2].behaviour, SidBehaviour::End);

        let lab = config.tenant("lab").unwrap();
        assert_eq!(lab.routes[0].oif, 7);

        // QoS keys: explicit on `edge`, defaults on `lab`.
        assert_eq!(edge.qos, TenantQosConfig { weight: 4, quota_percent: Some(50), budget: Some(500_000) });
        assert_eq!(lab.qos, TenantQosConfig::default());
        let qos = edge.qos.runtime();
        assert_eq!(qos.weight, 4);
        assert_eq!(qos.ring_quota, Some(0.5));
        assert_eq!(qos.cost_budget, Some(500_000));
    }

    fn err_line(text: &str) -> Option<usize> {
        Config::parse(text).expect_err("must be rejected").line
    }

    #[test]
    fn rejects_malformed_configs_with_line_numbers() {
        // Unknown key, bad value, missing section, bad reference — each
        // error names the offending line.
        assert_eq!(err_line("[daemon]\nbogus = 1"), Some(2));
        assert_eq!(err_line("[daemon]\nworkers = many"), Some(2));
        assert_eq!(err_line("workers = 1"), Some(1));
        assert_eq!(err_line("[daemon]\nworkers = 0"), Some(2));
        assert_eq!(
            err_line("[tenant a]\nlocal = fc00::1\nlisten = [::1]:9000\nroute = ::/0 dev 1"),
            Some(1),
            "route without a matching peer points at the tenant header"
        );
        assert_eq!(
            err_line("[tenant a]\nlocal = fc00::1\nlisten = [::1]:9000\nsid = fc00::1 end.t nope"),
            Some(4)
        );
        assert_eq!(
            err_line("[tenant a]\nlocal = fc00::1\nlisten = [::1]:9000\nroute = @nope ::/0 dev 1"),
            Some(4)
        );
        // IPv4 listen addresses are refused: this is an SRv6 daemon.
        assert_eq!(err_line("[tenant a]\nlocal = fc00::1\nlisten = 127.0.0.1:9000"), Some(3));
        // Global validation errors carry no line.
        assert_eq!(err_line("[daemon]\nworkers = 1"), None, "no tenants");
        let dup = "[tenant a]\nlocal = ::1\nlisten = [::1]:1\n[tenant a]\nlocal = ::1\nlisten = [::1]:5";
        assert_eq!(err_line(dup), None);
    }

    /// A tenant's name goes unescaped into `/metrics` labels: `tenant` must
    /// be followed by whitespace, and the name must match
    /// `[A-Za-z0-9_.-]+`.
    #[test]
    fn tenant_names_are_separated_and_label_safe() {
        let tenant =
            |header: &str| format!("[daemon]\nworkers = 1\n{header}\nlocal = ::1\nlisten = [::1]:9000");
        assert_eq!(err_line(&tenant("[tenants]")), Some(3), "`[tenants]` is not a tenant named `s`");
        assert_eq!(err_line(&tenant("[tenant]")), Some(3));
        for hostile in ["x\",evil=\"1", "a b", "a}", "ä", "a\\n"] {
            assert_eq!(err_line(&tenant(&format!("[tenant {hostile}]"))), Some(3), "{hostile}");
        }
        let config = Config::parse(&tenant("[tenant\tEdge-1.a_b]")).expect("a label-safe name");
        assert_eq!(config.tenants[0].name, "Edge-1.a_b");
    }

    #[test]
    fn sizes_are_bounded_and_workers_do_not_wrap() {
        let parse = |line: &str, setting: &str| Config::parse(&GOOD.replace(line, setting));
        // 2^32 + 1 workers used to wrap to 1 worker.
        for workers in ["4294967297", "4294967296", "18446744073709551617"] {
            let err = parse("workers = 2", &format!("workers = {workers}")).expect_err(workers);
            assert_eq!(err.line, Some(4), "{err}");
            assert!(err.message.contains("`workers` must be 1..="), "{err}");
        }
        for (line, num, max) in [
            ("batch-size = 16", 5, MAX_BATCH_SIZE),
            ("queue-depth = 256", 6, MAX_QUEUE_DEPTH),
            ("rx-burst = 32", 7, MAX_RX_BURST),
        ] {
            let key = line.split(" = ").next().unwrap();
            let daemon = parse(line, &format!("{key} = {max}")).expect(key).daemon;
            let size = match key {
                "batch-size" => daemon.batch_size,
                "queue-depth" => daemon.queue_depth,
                _ => daemon.rx_burst,
            };
            assert_eq!(size, max);
            for too_big in [format!("{}", max + 1), "1000000000000".to_string()] {
                let err = parse(line, &format!("{key} = {too_big}")).expect_err(key);
                assert_eq!(err.line, Some(num), "{err}");
                assert_eq!(err.message, format!("`{key}` must be at most {max}"));
            }
        }
        // The largest values the daemon's tests, smoke script and benchmark use.
        let used = GOOD
            .replace("batch-size = 16", "batch-size = 32")
            .replace("queue-depth = 256", "queue-depth = 2048")
            .replace("rx-burst = 32", "rx-burst = 128");
        assert!(Config::parse(&used).is_ok());
    }

    /// A `[daemon]` section may follow the tenants it sizes: their port
    /// ranges are checked against its `workers`, not the default.
    #[test]
    fn a_daemon_section_after_the_tenants_still_bounds_their_ports() {
        let text = "[tenant a]\nlocal = fc00::1\nlisten = [::1]:65534\n[daemon]\nworkers = 4";
        let err = Config::parse(text).expect_err("queues 1..3 would bind ports past 65535");
        assert!(err.message.contains("overflows a u16 with 4 queues"), "{err}");
        let fits = text.replace("65534", "65531");
        let config = Config::parse(&fits).unwrap();
        assert_eq!(config.tenants[0].listen_addr(3).port(), 65534);
    }

    /// Hostile config text: the test config with lines dropped, duplicated
    /// and swapped, values replaced by extreme numerals, bytes flipped, and
    /// sections reordered around extreme `workers` and `listen` values.
    /// Parsing never panics, and whatever it accepts is inside the bounds
    /// `start` relies on.
    #[test]
    fn hostile_config_text_never_panics_and_stays_in_bounds() {
        hostile_config_round(2_000);
    }

    /// The same fuzz on 50 times the cases.
    #[test]
    #[ignore = "long fuzz run: cargo test --release -- --ignored"]
    fn hostile_config_text_never_panics_and_stays_in_bounds_long() {
        hostile_config_round(100_000);
    }

    fn hostile_config_round(cases: usize) {
        const NUMERALS: [&str; 16] = [
            "0",
            "1",
            "-1",
            "+2",
            "1024",
            "1025",
            "65536",
            "65537",
            "4294967295",
            "4294967297",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999999",
            "0x10",
            "1e3",
            "٣",
        ];
        let mut state = 0x5eed_c0f1_u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let check = |text: &str| {
            if let Ok(config) = Config::parse(text) {
                let daemon = &config.daemon;
                assert!((1..=MAX_WORKERS).contains(&daemon.workers), "{text}");
                assert!((1..=MAX_BATCH_SIZE).contains(&daemon.batch_size), "{text}");
                assert!((1..=MAX_QUEUE_DEPTH).contains(&daemon.queue_depth), "{text}");
                assert!((1..=MAX_RX_BURST).contains(&daemon.rx_burst), "{text}");
                for tenant in &config.tenants {
                    assert!(is_tenant_name(&tenant.name), "{text}");
                    for queue in 0..daemon.workers {
                        let port = u32::from(tenant.listen_addr(queue).port());
                        assert_eq!(port, u32::from(tenant.listen.port()) + queue, "{text}");
                    }
                }
            }
        };
        // The `[daemon]` section and the two tenants, in every order.
        let sections: Vec<String> = GOOD.split("\n[").skip(1).map(|s| format!("[{s}")).collect();
        for _ in 0..cases {
            let mut order: Vec<&String> = sections.iter().collect();
            for i in (1..order.len()).rev() {
                order.swap(i, next(i + 1));
            }
            let mut text = order.iter().map(|s| s.as_str()).collect::<Vec<_>>().join("\n");
            let workers = [1, 2, 4, 64, MAX_WORKERS][next(5)];
            text = text.replace("workers = 2", &format!("workers = {workers}"));
            text = text.replace(":9000", &format!(":{}", 65_535 - next(80)));
            check(&text);
        }
        let good: Vec<String> = GOOD.lines().map(str::to_string).collect();
        for _ in 0..cases {
            let mut lines = good.clone();
            for _ in 0..1 + next(3) {
                if lines.is_empty() {
                    break;
                }
                let at = next(lines.len());
                match next(4) {
                    0 => drop(lines.remove(at)),
                    1 => lines.insert(next(lines.len()), lines[at].clone()),
                    2 => {
                        let other = next(lines.len());
                        lines.swap(at, other);
                    }
                    _ => {
                        if let Some((key, _)) = lines[at].split_once('=') {
                            lines[at] = format!("{key}= {}", NUMERALS[next(NUMERALS.len())]);
                        }
                    }
                }
            }
            check(&lines.join("\n"));
        }
        for _ in 0..cases {
            let mut bytes = GOOD.as_bytes().to_vec();
            for _ in 0..1 + next(3) {
                let at = next(bytes.len());
                bytes[at] ^= 1 + next(255) as u8;
            }
            check(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn rejects_overlapping_listen_ranges() {
        let text = "[daemon]\nworkers = 4\n\
                    [tenant a]\nlocal = ::1\nlisten = [::1]:9000\n\
                    [tenant b]\nlocal = ::1\nlisten = [::1]:9003";
        assert!(Config::parse(text).expect_err("overlap").message.contains("overlapping"));
        let ok = "[daemon]\nworkers = 4\n\
                  [tenant a]\nlocal = ::1\nlisten = [::1]:9000\n\
                  [tenant b]\nlocal = ::1\nlisten = [::1]:9004";
        assert!(Config::parse(ok).is_ok());
    }

    #[test]
    fn rejects_bad_qos_values_with_line_numbers() {
        let tenant = "[tenant a]\nlocal = fc00::1\nlisten = [::1]:9000\n";
        assert_eq!(err_line(&format!("{tenant}weight = 0")), Some(4));
        assert_eq!(err_line(&format!("{tenant}weight = heavy")), Some(4));
        assert_eq!(err_line(&format!("{tenant}quota = 0")), Some(4));
        assert_eq!(err_line(&format!("{tenant}quota = 101")), Some(4));
        assert_eq!(err_line(&format!("{tenant}quota = half")), Some(4));
        assert_eq!(err_line(&format!("{tenant}budget = 0")), Some(4));
    }

    #[test]
    fn diff_classifies_reload_paths() {
        let base = Config::parse(GOOD).unwrap();
        let edge = &base.tenants[0];
        assert_eq!(edge.diff(edge), TenantDiff::Identical);

        let mut weight_only = edge.clone();
        weight_only.qos.weight = 9;
        assert_eq!(
            edge.diff(&weight_only),
            TenantDiff::Tunable { routes_changed: false, qos_changed: true },
            "a weight-only change must take the live-tune fast path"
        );

        let mut routes_only = edge.clone();
        routes_only.routes.pop();
        assert_eq!(edge.diff(&routes_only), TenantDiff::Tunable { routes_changed: true, qos_changed: false });

        let mut both = edge.clone();
        both.qos.budget = None;
        both.routes.pop();
        assert_eq!(edge.diff(&both), TenantDiff::Tunable { routes_changed: true, qos_changed: true });

        let mut structural = edge.clone();
        structural.listen.set_port(12_000);
        assert_eq!(edge.diff(&structural), TenantDiff::Structural);
        let mut structural_plus_qos = structural.clone();
        structural_plus_qos.qos.weight = 2;
        assert_eq!(edge.diff(&structural_plus_qos), TenantDiff::Structural);
    }

    #[test]
    fn reload_guard_rejects_daemon_shape_changes() {
        let base = Config::parse(GOOD).unwrap();
        assert!(base.reloadable_from(&base).is_ok());
        let mut reshaped = base.clone();
        reshaped.daemon.workers = 1;
        assert!(base.reloadable_from(&reshaped).is_err());
    }

    #[test]
    fn io_backend_and_pinning_keys_parse() {
        let text = GOOD.replace(
            "stats-socket = /tmp/srv6d-test.sock",
            "stats-socket = /tmp/srv6d-test.sock\nio-backend = auto\npin = 0,2\npin-dispatcher = 1",
        );
        let cfg = Config::parse(&text).unwrap();
        assert_eq!(cfg.daemon.io_backend, IoBackendChoice::Mmsg, "`auto` is read as mmsg");
        assert_eq!(cfg.daemon.pinning, PinPolicy::Explicit(vec![0, 2]));
        assert_eq!(cfg.daemon.pin_dispatcher, Some(1));

        let text = GOOD.replace("rx-burst = 32", "rx-burst = 32\nio-backend = mmsg");
        assert_eq!(Config::parse(&text).unwrap().daemon.io_backend, IoBackendChoice::Mmsg);
        // Spelling it `auto` or `mmsg` is the same config: a live reload
        // between the two is no change.
        let auto = GOOD.replace("rx-burst = 32", "rx-burst = 32\nio-backend = auto");
        assert!(Config::parse(&text).unwrap().reloadable_from(&Config::parse(&auto).unwrap()).is_ok());

        // The defaults hold when the keys are absent.
        let cfg = Config::parse(GOOD).unwrap();
        assert_eq!(cfg.daemon.io_backend, IoBackendChoice::Mmsg);
        assert_eq!(cfg.daemon.pinning, PinPolicy::None);
        assert_eq!(cfg.daemon.pin_dispatcher, None);
    }

    #[test]
    fn io_backend_and_pinning_keys_reject_bad_values() {
        for (bad, needle) in [
            ("io-backend = dpdk", "`io-backend` must be mmsg or auto"),
            ("io-backend = std", "`io-backend` must be mmsg or auto"),
            ("io_backend = mmsg", "unknown [daemon] key `io_backend`"),
            ("pin = diagonal", "`pin`:"),
            ("pin-dispatcher = many", "`pin-dispatcher` must be a core number"),
            ("pin_dispatcher = 1", "unknown [daemon] key `pin_dispatcher`"),
        ] {
            let text = GOOD.replace("rx-burst = 32", &format!("rx-burst = 32\n{bad}"));
            let err = Config::parse(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "{bad}: {err}");
            assert!(err.contains("line 8"), "{bad} should blame its line: {err}");
        }
    }

    #[test]
    fn reload_guard_rejects_pinning_changes() {
        let base = Config::parse(GOOD).unwrap();
        let mut pinned = base.clone();
        pinned.daemon.pinning = PinPolicy::Compact;
        let err = base.reloadable_from(&pinned).unwrap_err().to_string();
        assert!(err.contains("pin"), "{err}");
    }
}
