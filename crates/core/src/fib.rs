//! The IPv6 forwarding information base (FIB).
//!
//! SRv6 relies on ordinary shortest-path forwarding between segments, so
//! every node needs a routing table. This module provides a
//! longest-prefix-match FIB with Equal-Cost Multi-Path (ECMP) support —
//! needed both for normal forwarding and for the paper's `End.OAMP` use
//! case (§4.3), which queries the ECMP next hops of a destination — plus a
//! set of numbered tables as used by `End.T` and `End.DT6`.
//!
//! ## Hot-path design
//!
//! A [`Fib`] is a [`PrefixTable`]: its prefixes cut the address space into
//! ranges, each answering with the index of its longest matching route,
//! and a lookup is one binary search over the sorted range starts
//! (the crate's `lpm` module). This deliberately departs from the kernel, whose
//! `fib6` tables are radix trees walked bit by bit: the search touches one
//! flat array of addresses instead of chasing a node pointer per level,
//! and an insert or a remove rewrites only the ranges its prefix spans.
//! Lookups return [`LookupHit`] — the chosen next hop is a **borrow**
//! into the table, nothing is cloned per packet.
//!
//! [`RouterTables`] keeps the authoritative tables behind one lock, but the
//! datapath never takes it per packet: each worker shard holds a
//! [`FibCache`] — `Arc` snapshots of the tables, refreshed only when the
//! write-side generation counter moves. Steady-state lookups on N shards
//! touch no shared lock at all.

use crate::table::PrefixTable;
use netpkt::Ipv6Prefix;
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Identifier of one routing table, as `End.T` / `End.DT6` reference it
/// (mirrors the kernel's numeric `rt_table` ids).
pub type TableId = u32;

/// Identifier of the main routing table (mirrors `RT_TABLE_MAIN`).
pub const MAIN_TABLE: TableId = 254;

/// First table id the VRF registry allocates from. Leaves the kernel's
/// well-known ids (`RT_TABLE_MAIN`, `RT_TABLE_LOCAL`, ...) and the low
/// range operators pick numeric table ids from untouched.
pub const VRF_TABLE_BASE: TableId = 0x1000;

/// A single next hop of a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nexthop {
    /// Layer-3 gateway; `None` for directly connected prefixes.
    pub via: Option<Ipv6Addr>,
    /// Outgoing interface index.
    pub oif: u32,
    /// Relative weight used by the ECMP hash (>= 1).
    pub weight: u32,
}

impl Nexthop {
    /// A next hop through `via` on interface `oif` with weight 1.
    pub fn via(via: Ipv6Addr, oif: u32) -> Self {
        Nexthop { via: Some(via), oif, weight: 1 }
    }

    /// A directly connected next hop on interface `oif`.
    pub fn direct(oif: u32) -> Self {
        Nexthop { via: None, oif, weight: 1 }
    }

    /// Sets the ECMP weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// The address packets are actually sent to when using this next hop:
    /// the gateway if there is one, otherwise `dst` itself.
    pub fn neighbour(&self, dst: Ipv6Addr) -> Ipv6Addr {
        self.via.unwrap_or(dst)
    }
}

/// A route: a prefix and its (possibly multiple, for ECMP) next hops, in
/// the inspection/export form [`Fib::routes`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Ipv6Prefix,
    /// One entry per equal-cost path.
    pub nexthops: Vec<Nexthop>,
}

/// The owned result of a FIB lookup (all fields are `Copy` — carrying it
/// around costs nothing on the heap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// The matched prefix.
    pub prefix: Ipv6Prefix,
    /// The next hop selected for this flow.
    pub nexthop: Nexthop,
    /// Number of equal-cost next hops the prefix has.
    pub ecmp_width: usize,
}

/// The borrowing result of a [`Fib::lookup`]: the chosen next hop points
/// into the table, so the per-packet path clones nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupHit<'a> {
    /// The matched prefix.
    pub prefix: Ipv6Prefix,
    /// The next hop selected for this flow (a borrow into the table).
    pub nexthop: &'a Nexthop,
    /// Number of equal-cost next hops the prefix has.
    pub ecmp_width: usize,
}

impl LookupHit<'_> {
    /// Copies the hit out of the table's lifetime.
    pub fn to_result(self) -> LookupResult {
        LookupResult { prefix: self.prefix, nexthop: *self.nexthop, ecmp_width: self.ecmp_width }
    }
}

/// A single routing table: longest-prefix match over address ranges
/// ([`PrefixTable`]), with ECMP next hops.
#[derive(Debug, Default, Clone)]
pub struct Fib {
    routes: PrefixTable<Vec<Nexthop>>,
}

impl Fib {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces the route for `prefix`.
    pub fn insert(&mut self, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) {
        assert!(!nexthops.is_empty(), "a route needs at least one next hop");
        self.routes.insert(prefix, nexthops);
    }

    /// Removes the route for `prefix`, returning whether it existed.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> bool {
        self.routes.remove(prefix)
    }

    /// Number of routes installed.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table has no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Collects all routes, in no particular order, for inspection and
    /// export (not a hot-path call).
    pub fn routes(&self) -> Vec<Route> {
        let routes = self.routes.entries().iter();
        routes.map(|(prefix, nexthops)| Route { prefix: *prefix, nexthops: nexthops.clone() }).collect()
    }

    /// Longest-prefix-match lookup. `flow_hash` selects among equal-cost
    /// next hops (weighted), so packets of one flow stick to one path. The
    /// returned hit borrows from the table — the per-packet path performs
    /// no clone and no allocation.
    pub fn lookup(&self, dst: Ipv6Addr, flow_hash: u64) -> Option<LookupHit<'_>> {
        self.lookup_with(dst, || flow_hash)
    }

    /// [`Fib::lookup`] with the flow hash computed on demand: `flow_hash`
    /// is called only when the matched route has more than one next hop,
    /// which is the only case that reads it.
    pub fn lookup_with(&self, dst: Ipv6Addr, flow_hash: impl FnOnce() -> u64) -> Option<LookupHit<'_>> {
        let (prefix, nexthops) = self.routes.lookup(dst)?;
        // Single-path routes (the overwhelmingly common case) skip the
        // hash and the weighted selection entirely.
        let chosen = if nexthops.len() == 1 {
            &nexthops[0]
        } else {
            let total_weight: u64 = nexthops.iter().map(|n| u64::from(n.weight)).sum();
            let mut slot = flow_hash() % total_weight.max(1);
            let mut chosen = &nexthops[0];
            for nexthop in nexthops {
                if slot < u64::from(nexthop.weight) {
                    chosen = nexthop;
                    break;
                }
                slot -= u64::from(nexthop.weight);
            }
            chosen
        };
        Some(LookupHit { prefix: *prefix, nexthop: chosen, ecmp_width: nexthops.len() })
    }

    /// Every equal-cost next hop for `dst`, as `End.OAMP` reports them —
    /// a borrow into the table, empty on a lookup miss.
    pub fn ecmp_nexthops(&self, dst: Ipv6Addr) -> &[Nexthop] {
        self.routes.lookup(dst).map(|(_, nexthops)| nexthops.as_slice()).unwrap_or(&[])
    }
}

/// What identifies a flow for ECMP next-hop selection, following the
/// 5-tuple-agnostic approach of RFC 6438: source, destination and flow
/// label. The datapath reads the key out of the packet's fixed header
/// once and a lookup hashes it only when it lands on a multipath route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcmpKey {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// The 20-bit flow label.
    pub flow_label: u32,
}

impl Default for EcmpKey {
    /// The all-zero key: what an environment built outside the datapath
    /// hashes until a flow is set.
    fn default() -> Self {
        EcmpKey { src: Ipv6Addr::UNSPECIFIED, dst: Ipv6Addr::UNSPECIFIED, flow_label: 0 }
    }
}

impl EcmpKey {
    /// The key of the flow `header` belongs to.
    pub fn of(header: &netpkt::Ipv6Header) -> Self {
        EcmpKey { src: header.src, dst: header.dst, flow_label: header.flow_label }
    }

    /// The hash selecting among equal-cost next hops. A stable hash keeps
    /// a flow on a single path (avoiding the reordering the paper's §4.2
    /// works around), while Paris-traceroute-style probing can vary the
    /// flow label to explore all paths.
    pub fn hash(&self) -> u64 {
        // FNV-1a over the concatenated fields: cheap, deterministic, good
        // enough dispersion for path selection.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        };
        for byte in self.src.octets() {
            mix(byte);
        }
        for byte in self.dst.octets() {
            mix(byte);
        }
        for byte in self.flow_label.to_be_bytes() {
            mix(byte);
        }
        hash
    }
}

// ---------------------------------------------------------------------------
// RouterTables: authoritative tables + lock-free read snapshots
// ---------------------------------------------------------------------------

/// The name → table-id registry behind [`RouterTables::register_vrf`].
/// `next` remembers where the allocator left off so registering N VRFs
/// stays O(N) even when numeric ids collide with user-chosen tables.
#[derive(Debug, Default)]
struct VrfRegistry {
    names: HashMap<String, TableId>,
    next: TableId,
}

/// The set of numbered routing tables of one router. `End.T` and `End.DT6`
/// look segments up in specific tables; interior mutability lets the tables
/// be shared with helper environments during eBPF execution.
///
/// Writes go through one lock and bump a generation counter; readers that
/// hold a [`FibCache`] (every datapath shard does) only re-enter the lock
/// when the generation moved, so steady-state packet processing on N pool
/// shards contends on nothing.
///
/// Tables can also be **named**: [`RouterTables::register_vrf`] maps a VRF
/// name to a freshly allocated [`TableId`] whose table rides the same
/// generation/snapshot machinery as every numeric table — a registered
/// VRF's routes are visible through [`FibCache`] snapshots exactly like
/// main-table routes, and `End.T { table }` / `End.DT6 { table }` bound to
/// the returned id forward through that VRF.
#[derive(Debug, Default)]
pub struct RouterTables {
    tables: RwLock<HashMap<TableId, Arc<Fib>>>,
    vrfs: RwLock<VrfRegistry>,
    generation: AtomicU64,
}

impl RouterTables {
    /// Creates an empty set of tables (the main table is created lazily).
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a route into table `table`.
    ///
    /// Writes are copy-on-write against live reader snapshots: the first
    /// write after a [`FibCache`] refresh clones the affected table
    /// (`Arc::make_mut`), further writes before the next refresh mutate in
    /// place. Route churn under live traffic therefore costs at most one
    /// table clone per snapshot refresh.
    pub fn insert(&self, table: TableId, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) {
        let mut guard = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        let fib = guard.entry(table).or_default();
        Arc::make_mut(fib).insert(prefix, nexthops);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Inserts a route into the main table.
    pub fn insert_main(&self, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) {
        self.insert(MAIN_TABLE, prefix, nexthops);
    }

    /// Registers (or looks up) the VRF `name`, returning the [`TableId`]
    /// its routes live in. The first registration allocates a fresh id at
    /// or above [`VRF_TABLE_BASE`] (skipping numeric ids already in use)
    /// and creates the — initially empty — table, so it is visible to
    /// [`FibCache`] snapshots immediately; later registrations of the same
    /// name return the same id. This is the tenancy hook: one VRF per
    /// tenant, `End.T` / `End.DT6` bound to the returned id.
    pub fn register_vrf(&self, name: &str) -> TableId {
        if let Some(id) = self.vrfs.read().unwrap_or_else(PoisonError::into_inner).names.get(name) {
            return *id;
        }
        // Lock order: vrfs before tables (the only place both are held).
        let mut vrfs = self.vrfs.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(id) = vrfs.names.get(name) {
            return *id;
        }
        let mut tables = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        let mut id = vrfs.next.max(VRF_TABLE_BASE);
        while tables.contains_key(&id) {
            id += 1;
        }
        vrfs.next = id + 1;
        vrfs.names.insert(name.to_string(), id);
        tables.insert(id, Arc::default());
        drop(tables);
        self.generation.fetch_add(1, Ordering::Release);
        id
    }

    /// The table id of VRF `name`, if it was registered.
    pub fn vrf(&self, name: &str) -> Option<TableId> {
        self.vrfs.read().unwrap_or_else(PoisonError::into_inner).names.get(name).copied()
    }

    /// Inserts a route into the VRF `name` (registering it on first use)
    /// and returns the VRF's table id.
    pub fn insert_vrf(&self, name: &str, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) -> TableId {
        let table = self.register_vrf(name);
        self.insert(table, prefix, nexthops);
        table
    }

    /// Removes a route from table `table`.
    pub fn remove(&self, table: TableId, prefix: &Ipv6Prefix) -> bool {
        let mut guard = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        let removed = guard.get_mut(&table).is_some_and(|fib| Arc::make_mut(fib).remove(prefix));
        if removed {
            self.generation.fetch_add(1, Ordering::Release);
        }
        removed
    }

    /// The write-side generation: moves on every route change. Readers use
    /// it to keep their snapshots fresh without taking the lock.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Snapshots the current tables (cheap `Arc` clones, one per table)
    /// into `out`, returning the generation the snapshot corresponds to.
    pub fn snapshot_into(&self, out: &mut Vec<(TableId, Arc<Fib>)>) -> u64 {
        let guard = self.tables.read().unwrap_or_else(PoisonError::into_inner);
        out.clear();
        out.extend(guard.iter().map(|(id, fib)| (*id, Arc::clone(fib))));
        // Read under the same lock writers bump it under, so the snapshot
        // and the generation always agree.
        self.generation.load(Ordering::Acquire)
    }

    /// ECMP next hops of `dst` in the main table (for `End.OAMP`). Owned,
    /// because the borrow cannot outlive the table lock; per-packet
    /// consumers should use [`RouterTables::with_ecmp_nexthops`] instead.
    pub fn ecmp_nexthops(&self, dst: Ipv6Addr) -> Vec<Nexthop> {
        self.with_ecmp_nexthops(dst, <[Nexthop]>::to_vec)
    }

    /// Runs `f` over the ECMP next hops of `dst` in the main table while
    /// the read lock is held — the allocation-free form of
    /// [`RouterTables::ecmp_nexthops`] for per-packet helpers.
    pub fn with_ecmp_nexthops<R>(&self, dst: Ipv6Addr, f: impl FnOnce(&[Nexthop]) -> R) -> R {
        let guard = self.tables.read().unwrap_or_else(PoisonError::into_inner);
        let nexthops = guard.get(&MAIN_TABLE).map(|fib| fib.ecmp_nexthops(dst)).unwrap_or(&[]);
        f(nexthops)
    }
}

/// A reader-side snapshot of a router's tables, held by each datapath
/// (worker shard) and each helper environment. `refresh` is a single
/// relaxed atomic load in the steady state; lookups then walk the shard's
/// own `Arc` snapshots — no lock, no contention. The per-packet lookup,
/// [`FibCache::nexthop`], returns a borrow of the chosen next hop: a
/// pointer, which comes back in a register where a by-value result would
/// be written to the stack and read back.
#[derive(Debug)]
pub struct FibCache {
    generation: u64,
    tables: Vec<(TableId, Arc<Fib>)>,
}

impl Default for FibCache {
    fn default() -> Self {
        Self::new()
    }
}

impl FibCache {
    /// An empty cache that will load on first refresh.
    pub fn new() -> Self {
        FibCache { generation: u64::MAX, tables: Vec::new() }
    }

    /// Brings the snapshot up to date if routes changed since the last
    /// call. Steady state (no route churn) does one atomic load and
    /// returns.
    pub fn refresh(&mut self, tables: &RouterTables) {
        if tables.generation() != self.generation {
            self.generation = tables.snapshot_into(&mut self.tables);
        }
    }

    /// The cached snapshot of `table`, if the table exists.
    pub fn table(&self, table: TableId) -> Option<&Fib> {
        self.tables.iter().find(|(id, _)| *id == table).map(|(_, fib)| &**fib)
    }

    /// Longest-prefix-match lookup in the cached snapshot of `table`,
    /// copied out: the inspection form. The per-packet paths use
    /// [`FibCache::nexthop`].
    pub fn lookup(&self, table: TableId, dst: Ipv6Addr, flow_hash: u64) -> Option<LookupResult> {
        self.table(table)?.lookup(dst, flow_hash).map(LookupHit::to_result)
    }

    /// The next hop `dst` takes in the cached snapshot of `table`, borrowed
    /// from the snapshot. `flow_hash` is called only when the matched route
    /// has more than one next hop (see [`Fib::lookup_with`]), so a caller
    /// that is not asked for a hash knows the answer holds for every flow.
    /// The one lookup the datapath and the helpers run per packet.
    #[inline]
    pub fn nexthop(
        &self,
        table: TableId,
        dst: Ipv6Addr,
        flow_hash: impl FnOnce() -> u64,
    ) -> Option<&Nexthop> {
        Some(self.table(table)?.lookup_with(dst, flow_hash)?.nexthop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn prefix(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    /// The interface `dst` leaves on in `table`, read through a fresh
    /// snapshot, as every reader of the tables reads them.
    fn oif(tables: &RouterTables, table: TableId, dst: &str) -> Option<u32> {
        let mut cache = FibCache::new();
        cache.refresh(tables);
        cache.lookup(table, addr(dst), 0).map(|hit| hit.nexthop.oif)
    }

    #[test]
    fn longest_prefix_wins() {
        let mut fib = Fib::new();
        fib.insert(prefix("2001:db8::/32"), vec![Nexthop::via(addr("fe80::1"), 1)]);
        fib.insert(prefix("2001:db8:1::/48"), vec![Nexthop::via(addr("fe80::2"), 2)]);
        fib.insert(prefix("::/0"), vec![Nexthop::via(addr("fe80::ff"), 9)]);
        let hit = fib.lookup(addr("2001:db8:1::42"), 0).unwrap();
        assert_eq!(hit.nexthop.oif, 2);
        assert_eq!(hit.prefix, prefix("2001:db8:1::/48"));
        let hit = fib.lookup(addr("2001:db8:2::42"), 0).unwrap();
        assert_eq!(hit.nexthop.oif, 1);
        let hit = fib.lookup(addr("2abc::1"), 0).unwrap();
        assert_eq!(hit.nexthop.oif, 9);
        assert_eq!(fib.len(), 3);
        assert_eq!(fib.routes().len(), 3);
    }

    #[test]
    fn lookup_miss_returns_none() {
        let mut fib = Fib::new();
        fib.insert(prefix("fc00::/64"), vec![Nexthop::direct(1)]);
        assert!(fib.lookup(addr("2001::1"), 0).is_none());
        assert!(fib.ecmp_nexthops(addr("2001::1")).is_empty());
    }

    #[test]
    fn ecmp_selection_is_deterministic_per_hash_and_covers_all_paths() {
        let mut fib = Fib::new();
        fib.insert(
            prefix("fc00::/16"),
            vec![
                Nexthop::via(addr("fe80::1"), 1),
                Nexthop::via(addr("fe80::2"), 2),
                Nexthop::via(addr("fe80::3"), 3),
            ],
        );
        let mut seen = std::collections::HashSet::new();
        for hash in 0..100u64 {
            let a = fib.lookup(addr("fc00::1"), hash).unwrap();
            let b = fib.lookup(addr("fc00::1"), hash).unwrap();
            assert_eq!(a, b);
            seen.insert(a.nexthop.oif);
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(fib.lookup(addr("fc00::1"), 0).unwrap().ecmp_width, 3);
    }

    #[test]
    fn weighted_ecmp_respects_weights() {
        let mut fib = Fib::new();
        fib.insert(
            prefix("fc00::/16"),
            vec![
                Nexthop::via(addr("fe80::1"), 1).with_weight(3),
                Nexthop::via(addr("fe80::2"), 2).with_weight(1),
            ],
        );
        let mut counts = [0u32; 2];
        for hash in 0..400u64 {
            let hit = fib.lookup(addr("fc00::1"), hash).unwrap();
            counts[(hit.nexthop.oif - 1) as usize] += 1;
        }
        // Weight 3:1 → roughly three quarters on interface 1.
        assert_eq!(counts[0] + counts[1], 400);
        assert_eq!(counts[0], 300);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn insert_replaces_and_remove_deletes() {
        let mut fib = Fib::new();
        fib.insert(prefix("fc00::/64"), vec![Nexthop::direct(1)]);
        fib.insert(prefix("fc00::/64"), vec![Nexthop::direct(7)]);
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.lookup(addr("fc00::1"), 0).unwrap().nexthop.oif, 7);
        assert!(fib.remove(&prefix("fc00::/64")));
        assert!(!fib.remove(&prefix("fc00::/64")));
        assert!(fib.is_empty());
    }

    #[test]
    fn intermediate_nodes_do_not_match_and_survive_removal() {
        // fc00:a::/32 and fc00:b::/32 leave a gap between them that no
        // route covers; the gap must never answer a lookup, and removing
        // one route must keep the other reachable.
        let mut fib = Fib::new();
        fib.insert(prefix("fc00:a::/32"), vec![Nexthop::direct(1)]);
        fib.insert(prefix("fc00:b::/32"), vec![Nexthop::direct(2)]);
        assert!(fib.lookup(addr("fc00:c::1"), 0).is_none());
        assert_eq!(fib.lookup(addr("fc00:a::1"), 0).unwrap().nexthop.oif, 1);
        assert!(fib.remove(&prefix("fc00:a::/32")));
        assert_eq!(fib.len(), 1);
        assert!(fib.lookup(addr("fc00:a::1"), 0).is_none());
        assert_eq!(fib.lookup(addr("fc00:b::1"), 0).unwrap().nexthop.oif, 2);
    }

    #[test]
    fn host_routes_and_default_route_coexist() {
        let mut fib = Fib::new();
        fib.insert(prefix("::/0"), vec![Nexthop::direct(1)]);
        fib.insert(prefix("fc00::1"), vec![Nexthop::direct(2)]);
        assert_eq!(fib.lookup(addr("fc00::1"), 0).unwrap().nexthop.oif, 2);
        assert_eq!(fib.lookup(addr("fc00::2"), 0).unwrap().nexthop.oif, 1);
    }

    #[test]
    fn flow_hash_is_stable_and_label_sensitive() {
        let key = EcmpKey { src: addr("2001::1"), dst: addr("2001::2"), flow_label: 5 };
        assert_eq!(key.hash(), key.hash());
        assert_ne!(key.hash(), EcmpKey { flow_label: 6, ..key }.hash());
        // The FNV-1a chain over src ‖ dst ‖ label, pinned: ECMP placement
        // must not move under a refactor.
        assert_eq!(EcmpKey::default().hash(), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for _ in 0..36 {
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            h
        });
    }

    #[test]
    fn lazy_lookup_hashes_only_on_multipath_routes() {
        let mut fib = Fib::new();
        fib.insert(prefix("fc00::/16"), vec![Nexthop::direct(1)]);
        fib.insert(prefix("fd00::/16"), vec![Nexthop::direct(2), Nexthop::direct(3)]);
        let hit = fib.lookup_with(addr("fc00::1"), || panic!("single-path route asked for a hash"));
        assert_eq!(hit.unwrap().nexthop.oif, 1);
        assert!(fib.lookup_with(addr("2001::1"), || panic!("a miss asked for a hash")).is_none());
        for hash in 0..8u64 {
            let mut asked = 0;
            let lazy = fib.lookup_with(addr("fd00::1"), || {
                asked += 1;
                hash
            });
            assert_eq!(lazy, fib.lookup(addr("fd00::1"), hash));
            assert_eq!(asked, 1);
        }
    }

    /// The cache's borrowing lookup finds the next hop its copying one
    /// does, asks for the flow hash only on a multipath route, and borrows
    /// from the snapshot rather than copying out of it.
    #[test]
    fn fib_cache_nexthop_borrows_what_lookup_copies() {
        let tables = RouterTables::new();
        tables.insert_main(prefix("fc00::/16"), vec![Nexthop::direct(1)]);
        tables.insert_main(prefix("fd00::/16"), vec![Nexthop::direct(2), Nexthop::direct(3)]);
        let mut cache = FibCache::new();
        cache.refresh(&tables);
        let single =
            cache.nexthop(MAIN_TABLE, addr("fc00::1"), || panic!("single-path route asked for a hash"));
        assert!(std::ptr::eq(
            single.unwrap(),
            &cache.table(MAIN_TABLE).unwrap().ecmp_nexthops(addr("fc00::1"))[0]
        ));
        assert!(cache.nexthop(MAIN_TABLE, addr("2001::1"), || panic!("a miss asked for a hash")).is_none());
        assert!(cache.nexthop(7, addr("fc00::1"), || panic!("a missing table asked for a hash")).is_none());
        for hash in 0..8u64 {
            let mut asked = 0;
            let hop = cache.nexthop(MAIN_TABLE, addr("fd00::1"), || {
                asked += 1;
                hash
            });
            assert_eq!(hop.copied(), cache.lookup(MAIN_TABLE, addr("fd00::1"), hash).map(|r| r.nexthop));
            assert_eq!(asked, 1);
        }
    }

    #[test]
    fn nexthop_neighbour_prefers_gateway() {
        let via = Nexthop::via(addr("fe80::1"), 1);
        assert_eq!(via.neighbour(addr("2001::9")), addr("fe80::1"));
        let direct = Nexthop::direct(2);
        assert_eq!(direct.neighbour(addr("2001::9")), addr("2001::9"));
    }

    #[test]
    fn router_tables_isolate_table_ids() {
        let tables = RouterTables::new();
        tables.insert_main(prefix("fc00::/16"), vec![Nexthop::direct(1)]);
        tables.insert(100, prefix("fc00::/16"), vec![Nexthop::direct(2)]);
        assert_eq!(oif(&tables, MAIN_TABLE, "fc00::1"), Some(1));
        assert_eq!(oif(&tables, 100, "fc00::1"), Some(2));
        assert_eq!(oif(&tables, 200, "fc00::1"), None);
        assert!(tables.remove(100, &prefix("fc00::/16")));
        assert!(!tables.remove(100, &prefix("fc00::/16")), "a removed route is gone");
        assert_eq!(oif(&tables, 100, "fc00::1"), None);
        assert_eq!(oif(&tables, MAIN_TABLE, "fc00::1"), Some(1));
    }

    #[test]
    fn vrf_registration_is_idempotent_and_allocates_distinct_tables() {
        let tables = RouterTables::new();
        let a = tables.register_vrf("tenant-a");
        let b = tables.register_vrf("tenant-b");
        assert!(a >= VRF_TABLE_BASE);
        assert_ne!(a, b);
        assert_eq!(tables.register_vrf("tenant-a"), a, "re-registration returns the same id");
        assert_eq!(tables.vrf("tenant-a"), Some(a));
        assert_eq!(tables.vrf("tenant-c"), None);
        assert_eq!(tables.vrf("tenant-b"), Some(b));

        // Routes in one VRF are invisible to the other and to main.
        tables.insert_vrf("tenant-a", prefix("fc00::/16"), vec![Nexthop::direct(1)]);
        tables.insert_vrf("tenant-b", prefix("fc00::/16"), vec![Nexthop::direct(2)]);
        assert_eq!(oif(&tables, a, "fc00::1"), Some(1));
        assert_eq!(oif(&tables, b, "fc00::1"), Some(2));
        assert_eq!(oif(&tables, MAIN_TABLE, "fc00::1"), None);
    }

    #[test]
    fn vrf_allocator_skips_numeric_ids_already_in_use() {
        let tables = RouterTables::new();
        // An operator grabbed the first VRF-range ids numerically.
        tables.insert(VRF_TABLE_BASE, prefix("fc00::/16"), vec![Nexthop::direct(7)]);
        tables.insert(VRF_TABLE_BASE + 1, prefix("fc00::/16"), vec![Nexthop::direct(8)]);
        let a = tables.register_vrf("tenant-a");
        assert_eq!(a, VRF_TABLE_BASE + 2, "allocation skips occupied ids");
        assert_eq!(oif(&tables, VRF_TABLE_BASE, "fc00::1"), Some(7));
    }

    #[test]
    fn vrf_tables_ride_the_snapshot_machinery() {
        let tables = RouterTables::new();
        let mut cache = FibCache::new();
        cache.refresh(&tables);

        // Registration alone moves the generation: the empty table shows
        // up in the next snapshot.
        let a = tables.register_vrf("tenant-a");
        cache.refresh(&tables);
        assert!(cache.table(a).is_some(), "registered VRF visible in the snapshot");
        assert!(cache.lookup(a, addr("fc00::1"), 0).is_none());

        // Routes added later reach the cache through the same generation
        // bump numeric tables use.
        tables.insert_vrf("tenant-a", prefix("fc00::/16"), vec![Nexthop::direct(4)]);
        cache.refresh(&tables);
        assert_eq!(cache.lookup(a, addr("fc00::1"), 0).unwrap().nexthop.oif, 4);
    }

    #[test]
    fn fib_cache_tracks_route_changes_through_the_generation() {
        let tables = RouterTables::new();
        let mut cache = FibCache::new();
        cache.refresh(&tables);
        assert!(cache.lookup(MAIN_TABLE, addr("fc00::1"), 0).is_none());

        tables.insert_main(prefix("fc00::/16"), vec![Nexthop::direct(1)]);
        cache.refresh(&tables);
        assert_eq!(cache.lookup(MAIN_TABLE, addr("fc00::1"), 0).unwrap().nexthop.oif, 1);

        // Without a refresh the snapshot intentionally stays stale...
        tables.insert_main(prefix("fc00::/16"), vec![Nexthop::direct(9)]);
        assert_eq!(cache.lookup(MAIN_TABLE, addr("fc00::1"), 0).unwrap().nexthop.oif, 1);
        // ...and one refresh catches up.
        cache.refresh(&tables);
        assert_eq!(cache.lookup(MAIN_TABLE, addr("fc00::1"), 0).unwrap().nexthop.oif, 9);

        // Unchanged generation: refresh must not reload (same Arc).
        let before = cache.table(MAIN_TABLE).unwrap() as *const Fib;
        cache.refresh(&tables);
        let after = cache.table(MAIN_TABLE).unwrap() as *const Fib;
        assert_eq!(before, after);
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let tables = RouterTables::new();
        tables.insert_main(prefix("fc00::/16"), vec![Nexthop::direct(1)]);
        let mut cache = FibCache::new();
        cache.refresh(&tables);
        // A write after the snapshot clones the table (copy-on-write); the
        // snapshot keeps answering with the old state until refreshed.
        tables.insert_main(prefix("fc00::/16"), vec![Nexthop::direct(2)]);
        assert_eq!(cache.lookup(MAIN_TABLE, addr("fc00::1"), 0).unwrap().nexthop.oif, 1);
        assert_eq!(oif(&tables, MAIN_TABLE, "fc00::1"), Some(2), "a fresh snapshot sees the write");
    }
}
