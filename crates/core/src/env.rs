//! The helper environment handed to eBPF programs by the SRv6 hooks.
//!
//! Helpers run "inside the kernel": they need the router's FIB, the current
//! time, the location of the SRH inside the packet and a place to record
//! the routing decisions they take (the "destination already set in the
//! packet metadata" that `BPF_REDIRECT` refers to in §3.1). [`Seg6Env`]
//! carries all of that; it implements [`ebpf_vm::VmEnv`] so the base
//! helpers (`bpf_ktime_get_ns`, `bpf_get_prandom_u32`, ...) work too, and
//! the SRv6 helpers recover it by downcasting.

use crate::fib::{EcmpKey, FibCache, Nexthop, RouterTables, TableId};
use crate::skb::RouteOverride;
use ebpf_vm::vm::{EnvSnapshot, VmEnv};
use std::any::Any;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Everything the SRv6 helpers record during one program invocation, read
/// back by the hook after the program returns.
#[derive(Debug, Default, Clone)]
pub struct EnvOutcome {
    /// Routing decision installed by `bpf_lwt_seg6_action` (End.X/T/DT6/...).
    pub route_override: RouteOverride,
    /// The outer IPv6 header (and SRH) were removed (End.DT6 / End.DX6).
    pub decapped: bool,
    /// `bpf_lwt_seg6_store_bytes` wrote the TLV area, or
    /// `bpf_lwt_seg6_adjust_srh` resized it: End.BPF re-validates the SRH
    /// before forwarding (the kernel's `srh_state->valid = false`). A flags
    /// or tag write leaves it clear.
    pub revalidate_srh: bool,
}

/// The environment eBPF programs run in on the SRv6 data plane. A hook
/// keeps one per router and [`rearm`](Seg6Env::rearm)s it for every
/// packet; what identifies the router (its tables and their snapshot)
/// stays put.
#[derive(Debug)]
pub struct Seg6Env {
    /// Current time in nanoseconds (drives `bpf_ktime_get_ns`).
    pub now_ns: u64,
    /// Address of the local SID (or of the router, for LWT hooks); used as
    /// the source of encapsulated packets.
    pub local_addr: Ipv6Addr,
    /// The router's FIB tables, shared with the datapath. Private: `fib`
    /// is a snapshot of exactly these.
    tables: Arc<RouterTables>,
    /// Byte offset of the outermost SRH inside the packet, when there is
    /// one. The seg6 helpers refuse to run without it.
    pub srh_offset: Option<usize>,
    /// The flow the packet belongs to, hashed if a helper's FIB lookup
    /// lands on a multipath route. [`EcmpKey::default`] until a hook sets it.
    pub flow: EcmpKey,
    /// Logical CPU (worker shard) the program runs on: selects per-CPU map
    /// slots and the perf ring `BPF_F_CURRENT_CPU` targets.
    pub cpu: u32,
    /// Decisions taken by helpers.
    pub out: EnvOutcome,
    rng_state: u64,
    /// This environment's lock-free snapshot of `tables`, refreshed when
    /// routes change: helper lookups take no lock and clone no `Arc`.
    fib: FibCache,
}

/// The `bpf_get_prandom_u32` state an invocation at `now_ns` starts from.
fn rng_seed(now_ns: u64) -> u64 {
    0x853c_49e6_748f_ea9b ^ now_ns.max(1)
}

impl Seg6Env {
    /// Creates an environment for a program running on the node that owns
    /// `tables`, at time `now_ns`.
    pub fn new(local_addr: Ipv6Addr, tables: Arc<RouterTables>, now_ns: u64) -> Self {
        Seg6Env {
            now_ns,
            local_addr,
            tables,
            srh_offset: None,
            flow: EcmpKey::default(),
            cpu: 0,
            out: EnvOutcome::default(),
            rng_state: rng_seed(now_ns),
            fib: FibCache::new(),
        }
    }

    /// The router's FIB tables, for helpers that need more of them than
    /// [`Seg6Env::lookup`].
    pub fn tables(&self) -> &Arc<RouterTables> {
        &self.tables
    }

    /// Sets the SRH offset (used by the seg6local hook before running the
    /// program).
    pub fn with_srh_offset(mut self, offset: usize) -> Self {
        self.srh_offset = Some(offset);
        self
    }

    /// Makes the environment the next invocation's: everything a program
    /// or helper can observe is what [`Seg6Env::new`] at `now_ns` would
    /// hand it (no decisions, the same `bpf_get_prandom_u32` sequence); the
    /// tables and their snapshot are kept. Each field is written in place
    /// from what the hook holds: the flow by reference, not through a
    /// copy on the way.
    #[inline]
    pub fn rearm(
        &mut self,
        local_addr: Ipv6Addr,
        now_ns: u64,
        cpu: u32,
        srh_offset: Option<usize>,
        flow: &EcmpKey,
    ) {
        self.now_ns = now_ns;
        self.local_addr = local_addr;
        self.srh_offset = srh_offset;
        self.flow = *flow;
        self.cpu = cpu;
        self.out = EnvOutcome::default();
        self.rng_state = rng_seed(now_ns);
    }

    /// The next hop `dst` takes in `table`, for a helper: against this
    /// environment's own snapshot, hashing [`Seg6Env::flow`] only on a
    /// multipath route. The same borrowing lookup the datapath runs
    /// ([`FibCache::nexthop`]), so the result is a pointer, not a copy.
    #[inline]
    pub fn lookup(&mut self, table: TableId, dst: Ipv6Addr) -> Option<&Nexthop> {
        self.fib.refresh(&self.tables);
        let flow = &self.flow;
        self.fib.nexthop(table, dst, || flow.hash())
    }
}

impl VmEnv for Seg6Env {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn ktime_ns(&mut self) -> u64 {
        self.now_ns
    }

    fn cpu_id(&mut self) -> u32 {
        self.cpu
    }

    fn prandom_u32(&mut self) -> u32 {
        // xorshift64*: deterministic per (seed, call sequence), which keeps
        // simulations reproducible while still spreading sampling decisions.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
    }

    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        // `now_ns` and `cpu` are fixed for the lifetime of one invocation,
        // so the native tier may inline them (prandom mutates state and
        // stays a real call).
        Some(EnvSnapshot { ktime_ns: self.now_ns, cpu_id: self.cpu })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Seg6Env {
        Seg6Env::new("fc00::1".parse().unwrap(), Arc::new(RouterTables::new()), 1_000)
    }

    #[test]
    fn ktime_returns_now() {
        let mut e = env();
        assert_eq!(e.ktime_ns(), 1_000);
    }

    #[test]
    fn prandom_is_deterministic_for_a_seed_and_varies_across_calls() {
        let mut a = env();
        let mut b = env();
        let seq_a: Vec<u32> = (0..4).map(|_| a.prandom_u32()).collect();
        let seq_b: Vec<u32> = (0..4).map(|_| b.prandom_u32()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn builder_methods_set_fields() {
        let e = env().with_srh_offset(40);
        assert_eq!(e.srh_offset, Some(40));
        assert_eq!(e.flow, EcmpKey::default());
        assert!(!e.out.route_override.is_set());
    }

    /// The `owd_encap` sampling decision reads `bpf_get_prandom_u32`: a
    /// re-armed environment must replay exactly what a fresh one yields.
    #[test]
    fn rearmed_env_is_indistinguishable_from_a_fresh_one() {
        let tables = Arc::new(RouterTables::new());
        let mut kept = Seg6Env::new("fc00::9".parse().unwrap(), Arc::clone(&tables), 5);
        for now_ns in [0u64, 1, 1_000, 123_456_789, u64::MAX] {
            // Leave residue behind, as a previous packet's program would.
            kept.prandom_u32();
            kept.out.revalidate_srh = true;
            kept.out.decapped = true;
            let flow = EcmpKey { flow_label: 7, ..EcmpKey::default() };
            kept.rearm("fc00::1".parse().unwrap(), now_ns, 2, Some(40), &flow);
            let mut fresh = Seg6Env::new("fc00::1".parse().unwrap(), Arc::clone(&tables), now_ns);
            let draws = |e: &mut Seg6Env| (0..8).map(|_| e.prandom_u32()).collect::<Vec<u32>>();
            assert_eq!(draws(&mut kept), draws(&mut fresh), "now_ns {now_ns}");
            assert_eq!((kept.now_ns, kept.local_addr), (fresh.now_ns, fresh.local_addr));
            assert_eq!((kept.cpu, kept.srh_offset, kept.flow), (2, Some(40), flow));
            assert!(!kept.out.revalidate_srh && !kept.out.decapped);
            assert!(!kept.out.route_override.is_set());
        }
    }

    #[test]
    fn helper_lookups_follow_route_changes_and_hash_only_multipath() {
        use crate::fib::{Nexthop, MAIN_TABLE};
        let tables = Arc::new(RouterTables::new());
        let mut e = Seg6Env::new("fc00::1".parse().unwrap(), Arc::clone(&tables), 0);
        assert!(e.lookup(MAIN_TABLE, "fc00::2".parse().unwrap()).is_none());
        tables.insert_main("fc00::/16".parse().unwrap(), vec![Nexthop::direct(1), Nexthop::direct(2)]);
        for label in 0..32 {
            e.flow = EcmpKey { flow_label: label, ..EcmpKey::default() };
            let dst = "fc00::2".parse().unwrap();
            let want = tables.lookup_main(dst, e.flow.hash()).map(|hit| hit.nexthop);
            assert_eq!(e.lookup(MAIN_TABLE, dst).copied(), want);
        }
    }
}
