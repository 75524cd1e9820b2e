//! The per-node SRv6 datapath: ties the FIB, the seg6local My-SID table,
//! the seg6 transit behaviours and the BPF LWT hooks together, mirroring
//! the order in which the Linux IPv6 layer consults them.
//!
//! One [`Seg6Datapath`] instance is what a router node in `simnet` runs for
//! every received packet, and what the Figure 2 / Figure 3 benchmarks drive
//! directly (the lab in §3.2 measures exactly this single-router, single
//! core forwarding path).

use crate::fib::{EcmpKey, FibCache, Nexthop, RouterTables, TableId, MAIN_TABLE};
use crate::lwt_bpf::{LwtBpfAttachment, LwtBpfTable, LwtHook};
use crate::scratch::RunScratch;
use crate::seg6local::{apply_action, run_bpf, ActionCtx, LocalSidTable, Seg6LocalAction};
use crate::skb::{RouteOverride, Skb};
use crate::srv6_ops;
use crate::transit::{apply_transit, TransitBehaviour, TransitTable};
use crate::verdict::{ActionOutcome, DropReason, Verdict};
use ebpf_vm::helpers::HelperRegistry;
use ebpf_vm::program::{LoadedProgram, ProgramType};
use netpkt::{Ipv6Prefix, IPV6_HEADER_LEN};
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Counters maintained by the datapath: one plain record, written once
/// per packet from the packet's [`BatchVerdict`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DatapathStats {
    /// Packets handed to [`Seg6Datapath::process`].
    pub received: u64,
    /// Packets that left with a [`Verdict::Forward`].
    pub forwarded: u64,
    /// Packets delivered to the local host stack.
    pub local_delivered: u64,
    /// Packets dropped, indexed by reason (`reason as usize`, the order of
    /// [`DropReason::ALL`]).
    pub dropped: [u64; DropReason::ALL.len()],
    /// seg6local actions executed.
    pub seg6local_invocations: u64,
    /// End.BPF / LWT-BPF programs executed.
    pub bpf_invocations: u64,
    /// Transit behaviours (SRH insertions/encapsulations) applied.
    pub transit_applied: u64,
}

impl DatapathStats {
    /// Total number of dropped packets.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Number of packets dropped for `reason`.
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        self.dropped[reason as usize]
    }

    /// Counts one processed packet: its verdict and the work it cost.
    fn count(&mut self, packet: &BatchVerdict) {
        self.received += 1;
        match packet.verdict {
            Verdict::Forward { .. } => self.forwarded += 1,
            Verdict::LocalDeliver => self.local_delivered += 1,
            Verdict::Drop(reason) => self.dropped[reason as usize] += 1,
        }
        self.seg6local_invocations += u64::from(packet.work.seg6local);
        self.bpf_invocations += u64::from(packet.work.bpf);
        self.transit_applied += u64::from(packet.work.transit);
    }
}

/// What the datapath did to one packet, summarised as the work classes CPU
/// cost models charge for (the simulator's `CpuProfile` and the worker
/// pool's `work_cost` price exactly these). Produced by the execution step
/// itself, alongside the verdict.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkSummary {
    /// A seg6local action ran.
    pub seg6local: bool,
    /// An eBPF program ran (End.BPF or an LWT hook).
    pub bpf: bool,
    /// A transit behaviour (SRH insertion/encapsulation) was applied.
    pub transit: bool,
}

/// The per-packet result of [`Seg6Datapath::process_batch_verdicts_into`]: the
/// forwarding verdict plus the work the packet cost. This is the batch
/// emit surface the worker-pool runtime and the simulator consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchVerdict {
    /// The forwarding verdict, identical to what [`Seg6Datapath::process`]
    /// returns for the same packet.
    pub verdict: Verdict,
    /// The work classes this packet exercised.
    pub work: WorkSummary,
}

impl BatchVerdict {
    /// What a verdict slot of a record holds until
    /// [`Seg6Datapath::process_batch_in_place`] writes its packet's verdict:
    /// a drop with no work, so a slot that was never processed would fail
    /// closed.
    pub const UNSET: BatchVerdict = BatchVerdict {
        verdict: Verdict::Drop(DropReason::Malformed),
        work: WorkSummary { seg6local: false, bpf: false, transit: false },
    };
}

/// Where a batch's packets and their verdict slots live, for
/// [`Seg6Datapath::process_batch_in_place`]: for `i` in `0..len()` in
/// order, packet `i` is processed in place and its verdict and work are
/// written straight into verdict slot `i`, field by field, where the caller
/// reads them — no verdict is built elsewhere and copied in. Every slot of
/// the batch is written.
pub trait BatchSlots {
    /// Packets in the batch.
    fn len(&self) -> usize;

    /// Whether the batch holds no packet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Packet `i` and its verdict slot, handed out together (two pointers,
    /// returned in registers).
    fn slot(&mut self, i: usize) -> (&mut Skb, &mut BatchVerdict);
}

/// Records that carry a packet and its verdict side by side, behind a tag
/// of the caller's (the worker pool's `(tenant, skb, verdict)` outputs).
impl<T> BatchSlots for [(T, Skb, BatchVerdict)] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    #[inline]
    fn slot(&mut self, i: usize) -> (&mut Skb, &mut BatchVerdict) {
        let (_, skb, verdict) = &mut self[i];
        (skb, verdict)
    }
}

/// How a destination address dispatches inside the datapath. Classification
/// depends only on the destination and the (batch-constant) tables, and
/// each packet is classified on its own. Every variant **borrows** from the
/// configuration tables — classifying a packet clones nothing, however
/// large the attached behaviour (program `Arc`s, SRH templates) is.
enum Dispatch<'a> {
    /// A local SID matched: run its seg6local behaviour.
    Seg6Local {
        /// The matched SID (source address of pushed encapsulations).
        local_sid: Option<Ipv6Addr>,
        /// The behaviour to execute.
        action: &'a Seg6LocalAction,
    },
    /// Local delivery, possibly through an lwt_in program.
    LocalIn(Option<&'a LwtBpfAttachment>),
    /// A BPF LWT xmit program is attached to the route.
    Xmit(&'a LwtBpfAttachment),
    /// A static seg6 transit behaviour applies.
    Transit(&'a TransitBehaviour),
    /// Plain FIB forwarding.
    Forward,
}

/// Decides how `dst` dispatches, in the order the IPv6 receive path
/// consults its tables: seg6local SIDs, local delivery, LWT xmit programs,
/// seg6 transit behaviours, then the plain FIB. A free function over the
/// individual tables (rather than a `&self` method) so the returned
/// borrows stay disjoint from the mutable state (`stats`, `scratch`) the
/// execution step needs.
fn classify_dst<'a>(
    local_sids: &'a LocalSidTable,
    lwt_bpf: &'a LwtBpfTable,
    transit: &'a TransitTable,
    local_addr: Ipv6Addr,
    dst: Ipv6Addr,
) -> Dispatch<'a> {
    let lwt_at = |hook| lwt_bpf.lookup_where(dst, |a| a.hook == hook).map(|(_, attachment)| attachment);
    if let Some((sid_prefix, action)) = local_sids.lookup(dst) {
        let local_sid = (sid_prefix.len() == 128).then(|| sid_prefix.addr());
        return Dispatch::Seg6Local { local_sid, action };
    }
    if dst == local_addr {
        return Dispatch::LocalIn(lwt_at(LwtHook::In));
    }
    if let Some(attachment) = lwt_at(LwtHook::Xmit) {
        return Dispatch::Xmit(attachment);
    }
    if let Some((_, behaviour)) = transit.lookup(dst) {
        return Dispatch::Transit(behaviour);
    }
    Dispatch::Forward
}

/// Refuses to bind `prog` where a program of type `want` must run.
fn assert_prog_type(prog: &LoadedProgram, want: ProgramType, hook: &str) {
    let got = prog.program.prog_type;
    assert!(
        got == want,
        "{hook} runs only {} programs, and `{}` is {}",
        want.name(),
        prog.program.name,
        got.name()
    );
}

/// A one-entry cache of the last FIB lookup, scoped to one batch: the
/// `(table, dst)` it answered and the next hop it found, **borrowed** from
/// the FIB snapshot. The borrow is what makes the cache sound: the
/// snapshot cannot be refreshed while a batch holds it, and the borrow
/// checker enforces that. Only flow-hash-invariant results — single-path
/// routes and misses — are cached; ECMP routes are re-selected per packet,
/// keeping multipath spreading intact. This is the batch-scoped analogue
/// of the kernel's dst cache.
#[derive(Default)]
struct RouteCache<'a> {
    entry: Option<(TableId, Ipv6Addr, Option<&'a Nexthop>)>,
}

/// The SRv6 datapath of one node.
pub struct Seg6Datapath {
    /// Address identifying this node: the encapsulation source, and the
    /// one address it delivers locally.
    pub local_addr: Ipv6Addr,
    /// FIB tables (shared with helper environments).
    pub tables: Arc<RouterTables>,
    /// seg6local My-SID table.
    pub local_sids: LocalSidTable,
    /// seg6 transit behaviours.
    pub transit: TransitTable,
    /// BPF LWT attachments.
    pub lwt_bpf: LwtBpfTable,
    /// Helper registry used for every program this node runs.
    pub helpers: HelperRegistry,
    /// Counters.
    pub stats: DatapathStats,
    /// Logical CPU this datapath instance runs on. The multi-queue runtime
    /// gives every worker shard its own instance with its own id, which is
    /// what eBPF programs see in `bpf_get_smp_processor_id` and what
    /// per-CPU maps index.
    pub cpu_id: u32,
    /// Reusable per-packet buffers (VM state, context, saved packet head)
    /// — the reason the steady state allocates nothing.
    scratch: RunScratch,
    /// This instance's lock-free snapshot of the FIB tables, refreshed
    /// from `tables` only when routes change.
    fib: FibCache,
}

impl Seg6Datapath {
    /// Creates a datapath for a node addressed by `local_addr`, with the
    /// SRv6 helper registry installed.
    pub fn new(local_addr: Ipv6Addr) -> Self {
        Seg6Datapath {
            local_addr,
            tables: Arc::new(RouterTables::new()),
            local_sids: LocalSidTable::new(),
            transit: TransitTable::new(),
            lwt_bpf: LwtBpfTable::new(),
            helpers: crate::helpers::seg6_helper_registry(),
            stats: DatapathStats::default(),
            cpu_id: 0,
            scratch: RunScratch::new(),
            fib: FibCache::new(),
        }
    }

    /// Clones this datapath's configuration into a new instance pinned to
    /// logical CPU `cpu` — what the persistent worker pool does once per
    /// shard when a node's single configured datapath must run on N
    /// queues. The FIB tables stay shared (they are behind an `Arc`, and
    /// internally synchronised), so routes installed later reach every
    /// fork. SID, transit and LWT tables are snapshots whose loaded
    /// programs and maps remain shared handles — exactly how kernel CPUs
    /// share map memory while per-CPU maps give each its own slot.
    /// Statistics start at zero.
    pub fn fork_for_cpu(&self, cpu: u32) -> Seg6Datapath {
        Seg6Datapath {
            local_addr: self.local_addr,
            tables: Arc::clone(&self.tables),
            local_sids: self.local_sids.clone(),
            transit: self.transit.clone(),
            lwt_bpf: self.lwt_bpf.clone(),
            helpers: self.helpers.clone(),
            stats: DatapathStats::default(),
            cpu_id: cpu,
            scratch: RunScratch::new(),
            fib: FibCache::new(),
        }
    }

    /// Installs a route in the main table.
    pub fn add_route(&mut self, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) {
        self.tables.insert_main(prefix, nexthops);
    }

    /// Installs a route in a specific table.
    pub fn add_route_in_table(&mut self, table: TableId, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) {
        self.tables.insert(table, prefix, nexthops);
    }

    /// Registers (or looks up) the VRF `name` on this node's tables and
    /// returns its [`TableId`] — the id to bind `End.T` / `End.DT6`
    /// behaviours to. Forks made with [`Seg6Datapath::fork_for_cpu`] share
    /// the tables `Arc`, so a VRF registered on any handle is visible to
    /// every shard.
    pub fn register_vrf(&self, name: &str) -> TableId {
        self.tables.register_vrf(name)
    }

    /// Installs a route in the VRF `name` (registering it on first use)
    /// and returns the VRF's table id.
    pub fn add_route_in_vrf(&mut self, name: &str, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) -> TableId {
        self.tables.insert_vrf(name, prefix, nexthops)
    }

    /// Binds a seg6local action to a SID.
    ///
    /// # Panics
    ///
    /// If the action is `End.BPF` with a program that is not of type
    /// [`ProgramType::LwtSeg6Local`], as the kernel's attach refuses it.
    pub fn add_local_sid(&mut self, sid: Ipv6Prefix, action: Seg6LocalAction) {
        if let Seg6LocalAction::EndBpf { prog } = &action {
            assert_prog_type(prog, ProgramType::LwtSeg6Local, "End.BPF");
        }
        self.local_sids.insert(sid, action);
    }

    /// Installs a seg6 transit behaviour for traffic towards `prefix`.
    pub fn add_transit(&mut self, prefix: Ipv6Prefix, behaviour: TransitBehaviour) {
        self.transit.insert(prefix, behaviour);
    }

    /// Attaches a BPF LWT program to traffic towards `prefix`.
    ///
    /// # Panics
    ///
    /// If the program is not of the type its hook runs
    /// ([`LwtHook::program_type`]: `LwtIn` at `In`, `LwtXmit` at `Xmit`),
    /// as the kernel's attach refuses it.
    pub fn attach_lwt_bpf(&mut self, prefix: Ipv6Prefix, attachment: LwtBpfAttachment) {
        assert_prog_type(&attachment.prog, attachment.hook.program_type(), "an LWT hook");
        self.lwt_bpf.insert(prefix, attachment);
    }

    /// Processes one packet, as the IPv6 receive path would, and returns the
    /// forwarding verdict. `now_ns` is the current time (it drives
    /// `bpf_ktime_get_ns` and the `End.DM` timestamps). A batch of one:
    /// the same per-packet step [`Seg6Datapath::process_batch_verdicts_into`]
    /// runs, without the output buffer.
    pub fn process(&mut self, skb: &mut Skb, now_ns: u64) -> Verdict {
        let mut packet = BatchVerdict::UNSET;
        self.batch().step(skb, &mut packet, now_ns);
        packet.verdict
    }

    /// Processes a batch of packets, amortising the per-packet dispatch,
    /// and appends one [`BatchVerdict`] per packet — the verdict plus a
    /// [`WorkSummary`] of what the packet cost — to a caller-owned buffer.
    ///
    /// The batch refreshes the FIB snapshot once and keeps a one-entry
    /// route cache across its packets; each packet is classified (SID
    /// table, LWT attachment and transit lookups) on its own. The verdicts
    /// come back in input order, and each packet's processing is
    /// byte-identical to what [`Seg6Datapath::process`] produces.
    ///
    /// A caller that reuses `out` performs no heap allocation per packet
    /// **or per batch** once it has grown; the `alloc-counter` test
    /// feature asserts exactly that. It is
    /// [`Seg6Datapath::process_batch_in_place`] over the skbs, with one
    /// [`BatchVerdict::UNSET`] pushed onto `out` per packet first, which
    /// the batch then writes over in place.
    pub fn process_batch_verdicts_into(
        &mut self,
        skbs: &mut [Skb],
        now_ns: u64,
        out: &mut Vec<BatchVerdict>,
    ) {
        /// A slice of skbs and, index for index, their verdict slots.
        struct Paired<'a> {
            skbs: &'a mut [Skb],
            verdicts: &'a mut [BatchVerdict],
        }
        impl BatchSlots for Paired<'_> {
            fn len(&self) -> usize {
                self.skbs.len()
            }
            #[inline]
            fn slot(&mut self, i: usize) -> (&mut Skb, &mut BatchVerdict) {
                (&mut self.skbs[i], &mut self.verdicts[i])
            }
        }
        let start = out.len();
        out.resize(start + skbs.len(), BatchVerdict::UNSET);
        self.process_batch_in_place(&mut Paired { skbs, verdicts: &mut out[start..] }, now_ns);
    }

    /// The one batch loop: processes each packet in turn, as
    /// [`Seg6Datapath::process_batch_verdicts_into`] describes, writing
    /// its verdict and work into its slot. The packets and their slots
    /// stay wherever the caller keeps them — the worker pool runs a batch
    /// over its output records in place, so a packet is not moved to be
    /// processed and its verdict is not copied to be delivered.
    pub fn process_batch_in_place(&mut self, slots: &mut (impl BatchSlots + ?Sized), now_ns: u64) {
        let mut batch = self.batch();
        for i in 0..slots.len() {
            let (skb, verdict) = slots.slot(i);
            batch.step(skb, verdict, now_ns);
        }
    }

    /// Opens a batch: refreshes the FIB snapshot and splits `self` into the
    /// configuration tables a packet's [`Dispatch`] borrows and the
    /// execution state each packet mutates.
    fn batch(&mut self) -> Batch<'_> {
        self.fib.refresh(&self.tables);
        Batch {
            local_sids: &self.local_sids,
            lwt_bpf: &self.lwt_bpf,
            transit: &self.transit,
            stats: &mut self.stats,
            exec: Exec {
                local_addr: self.local_addr,
                tables: &self.tables,
                helpers: &self.helpers,
                fib: &self.fib,
                scratch: &mut self.scratch,
                cpu: self.cpu_id,
            },
            routes: RouteCache::default(),
        }
    }
}

/// One batch in flight over a [`Seg6Datapath`]: the tables cannot change
/// while it holds the datapath's `&mut`, which is what makes the
/// batch-scoped route cache sound.
struct Batch<'a> {
    local_sids: &'a LocalSidTable,
    lwt_bpf: &'a LwtBpfTable,
    transit: &'a TransitTable,
    stats: &'a mut DatapathStats,
    exec: Exec<'a>,
    routes: RouteCache<'a>,
}

impl Batch<'_> {
    /// The per-packet step: parse, classify, execute, count. Writes the
    /// packet's verdict and work into `packet`, whatever it held before.
    #[inline]
    fn step(&mut self, skb: &mut Skb, packet: &mut BatchVerdict, now_ns: u64) {
        match arrived_flow(skb.packet.data()) {
            None => {
                packet.verdict = Verdict::Drop(DropReason::Malformed);
                packet.work = WorkSummary::default();
            }
            Some(flow) => {
                let dispatch =
                    classify_dst(self.local_sids, self.lwt_bpf, self.transit, self.exec.local_addr, flow.dst);
                self.exec.execute(&dispatch, skb, flow, now_ns, &mut self.routes, packet);
            }
        }
        self.stats.count(packet);
    }
}

/// The fields of a packet's fixed IPv6 header that the step reads — the
/// destination it dispatches on and the flow ECMP selection hashes — read
/// straight from the bytes into registers, or `None` where
/// [`Ipv6Header::parse`](netpkt::Ipv6Header::parse) fails: fewer than
/// [`IPV6_HEADER_LEN`] bytes, or a version other than 6.
#[inline]
fn arrived_flow(packet: &[u8]) -> Option<EcmpKey> {
    let header: &[u8; IPV6_HEADER_LEN] = packet.get(..IPV6_HEADER_LEN)?.try_into().ok()?;
    let first = u32::from_be_bytes([header[0], header[1], header[2], header[3]]);
    if first >> 28 != 6 {
        return None;
    }
    let addr = |at: usize| {
        let mut octets = [0u8; 16];
        octets.copy_from_slice(&header[at..at + 16]);
        Ipv6Addr::from(octets)
    };
    Some(EcmpKey { src: addr(8), dst: addr(24), flow_label: first & 0x000f_ffff })
}

/// The mutable execution state of a batch, split off the configuration
/// tables a packet's [`Dispatch`] borrows — disjoint `Seg6Datapath` fields,
/// all by reference.
struct Exec<'e> {
    local_addr: Ipv6Addr,
    tables: &'e Arc<RouterTables>,
    helpers: &'e HelperRegistry,
    fib: &'e FibCache,
    scratch: &'e mut RunScratch,
    cpu: u32,
}

impl<'e> Exec<'e> {
    /// Runs the packet's dispatch and writes what it did into `packet`:
    /// the work classes exercised and the verdict.
    fn execute(
        &mut self,
        dispatch: &Dispatch<'_>,
        skb: &mut Skb,
        flow: EcmpKey,
        now_ns: u64,
        routes: &mut RouteCache<'e>,
        packet: &mut BatchVerdict,
    ) {
        // `flow` is the flow as it arrived: what ECMP selection hashes, if
        // a lookup lands on a multipath route at all. A seg6local action
        // runs as the SID that matched; the LWT hooks run as the router
        // itself.
        let local_sid = match dispatch {
            Dispatch::Seg6Local { local_sid, .. } => local_sid.unwrap_or(flow.dst),
            _ => self.local_addr,
        };
        let actx =
            ActionCtx { local_sid, tables: self.tables, helpers: self.helpers, now_ns, cpu: self.cpu, flow };
        let work = &mut packet.work;
        *work = WorkSummary::default();
        let outcome = match dispatch {
            Dispatch::Seg6Local { action, .. } => {
                work.seg6local = true;
                work.bpf = matches!(action, Seg6LocalAction::EndBpf { .. });
                apply_action(action, skb, &actx, self.scratch)
            }
            Dispatch::LocalIn(None) => ActionOutcome::LocalDeliver,
            Dispatch::LocalIn(Some(attachment)) => {
                // lwt_in sees packets addressed to this node: the program
                // may drop them, never forward them elsewhere.
                work.bpf = true;
                match run_bpf(&attachment.prog, false, skb, &actx, self.scratch) {
                    dropped @ ActionOutcome::Drop(_) => dropped,
                    ActionOutcome::LocalDeliver | ActionOutcome::Forward { .. } => {
                        ActionOutcome::LocalDeliver
                    }
                }
            }
            Dispatch::Xmit(attachment) => {
                work.bpf = true;
                let outcome = run_bpf(&attachment.prog, false, skb, &actx, self.scratch);
                work.transit = matches!(outcome, ActionOutcome::Forward { .. });
                outcome
            }
            Dispatch::Transit(behaviour) => {
                work.transit = true;
                apply_transit(behaviour, skb, self.local_addr)
            }
            Dispatch::Forward => {
                ActionOutcome::Forward { dst: flow.dst, route_override: RouteOverride::default() }
            }
        };
        self.resolve_outcome(outcome, skb, &flow, routes, &mut packet.verdict);
    }

    /// A FIB lookup through the batch-scoped [`RouteCache`], against this
    /// shard's lock-free snapshot: the next hop comes back as a borrow of
    /// the snapshot, in a register. Results that cannot depend on the flow
    /// (single next hop, or no route: the lookup asked for no hash) are
    /// remembered and never hash it; ECMP results always re-select.
    #[inline]
    fn lookup_route(
        &self,
        routes: &mut RouteCache<'e>,
        table: TableId,
        dst: &Ipv6Addr,
        flow: &EcmpKey,
    ) -> Option<&'e Nexthop> {
        if let Some((cached_table, cached_dst, nexthop)) = routes.entry {
            if cached_table == table && cached_dst == *dst {
                return nexthop;
            }
        }
        let fib: &'e FibCache = self.fib;
        let mut multipath = false;
        let nexthop = fib.nexthop(table, *dst, || {
            multipath = true;
            flow.hash()
        });
        if !multipath {
            routes.entry = Some((table, *dst, nexthop));
        }
        nexthop
    }

    /// Resolves an [`ActionOutcome`] into the packet's final verdict,
    /// written into `verdict`: decrements the hop limit and performs
    /// whatever FIB lookup the outcome still needs.
    fn resolve_outcome(
        &mut self,
        outcome: ActionOutcome,
        skb: &mut Skb,
        flow: &EcmpKey,
        routes: &mut RouteCache<'e>,
        verdict: &mut Verdict,
    ) {
        // `dst` and the next hop stay borrowed where the action wrote them:
        // the route lookup reads them through a pointer, and a copy rebuilt
        // from registers would be reloaded before its stores retire.
        let (dst, over) = match &outcome {
            ActionOutcome::Forward { dst, route_override } => (dst, route_override),
            ActionOutcome::Drop(reason) => {
                *verdict = Verdict::Drop(*reason);
                return;
            }
            ActionOutcome::LocalDeliver => {
                *verdict = Verdict::LocalDeliver;
                return;
            }
        };
        // A seg6local action may have re-targeted the packet at this very
        // node (e.g. the next SID is also ours after decapsulation).
        if *dst == self.local_addr && !over.is_set() {
            *verdict = Verdict::LocalDeliver;
            return;
        }
        if let Ok(0) | Err(_) = srv6_ops::decrement_hop_limit(skb.packet.data_mut()) {
            *verdict = Verdict::Drop(DropReason::HopLimitExceeded);
            return;
        }
        *verdict = match (&over.nexthop, over.oif) {
            // Fully resolved override: nothing left to look up.
            (Some(neighbour), Some(oif)) => Verdict::Forward { oif, neighbour: *neighbour },
            // Next hop known but not the interface: find the interface by
            // looking the next hop itself up.
            (Some(neighbour), None) => match self.lookup_route(routes, MAIN_TABLE, neighbour, flow) {
                Some(route) => Verdict::Forward { oif: route.oif, neighbour: *neighbour },
                None => Verdict::Drop(DropReason::NoRoute),
            },
            // Otherwise: ordinary lookup of the destination in the
            // requested table (End.T / End.DT6) or the main one.
            (None, _) => match self.lookup_route(routes, over.table.unwrap_or(MAIN_TABLE), dst, flow) {
                Some(route) => Verdict::Forward { oif: route.oif, neighbour: route.neighbour(*dst) },
                None => Verdict::Drop(DropReason::NoRoute),
            },
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf_vm::asm::assemble;
    use ebpf_vm::program::{load, Program, ProgramType};
    use netpkt::ipv6::proto;
    use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
    use netpkt::srh::SegmentRoutingHeader;
    use netpkt::Ipv6Header;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn router() -> Seg6Datapath {
        let mut dp = Seg6Datapath::new(addr("fc00::11"));
        dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
        dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via(addr("fe80::3"), 3)]);
        dp
    }

    fn srv6_skb(path: &[&str]) -> Skb {
        let segments: Vec<Ipv6Addr> = path.iter().map(|s| addr(s)).collect();
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &segments);
        Skb::new(build_srv6_udp_packet(addr("2001:db8::1"), &srh, 1000, 2000, &[0u8; 32], 64))
    }

    fn plain_skb(dst: &str) -> Skb {
        udp_skb("2001:db8::1", dst)
    }

    fn udp_skb(src: &str, dst: &str) -> Skb {
        Skb::new(build_ipv6_udp_packet(addr(src), addr(dst), 1, 2, &[0u8; 16], 64))
    }

    #[test]
    fn plain_forwarding_uses_the_fib_and_decrements_hop_limit() {
        let mut dp = router();
        let mut skb = plain_skb("fc00::42");
        let verdict = dp.process(&mut skb, 0);
        assert_eq!(verdict, Verdict::Forward { oif: 2, neighbour: addr("fe80::2") });
        let header = Ipv6Header::parse(skb.packet.data()).unwrap();
        assert_eq!(header.hop_limit, 63);
        assert_eq!(dp.stats.forwarded, 1);
    }

    #[test]
    fn unroutable_packets_are_dropped_and_counted() {
        let mut dp = router();
        let mut skb = plain_skb("3001::1");
        assert_eq!(dp.process(&mut skb, 0), Verdict::Drop(DropReason::NoRoute));
        assert_eq!(dp.stats.dropped_for(DropReason::NoRoute), 1);
        assert_eq!(dp.stats.total_dropped(), 1);
    }

    /// Every drop reason owns one slot of the counter array. The `match`
    /// is exhaustive on purpose: a new variant compiles only once it is
    /// given a slot here — its position in `DropReason::ALL`, which sizes
    /// the array.
    #[test]
    fn every_drop_reason_has_its_own_counter_slot() {
        let mut stats = DatapathStats::default();
        for (index, reason) in DropReason::ALL.into_iter().enumerate() {
            let slot = match reason {
                DropReason::Malformed => 0,
                DropReason::NoSrh => 1,
                DropReason::SegmentsLeftZero => 2,
                DropReason::DecapFailed => 3,
                DropReason::BpfDrop => 4,
                DropReason::BpfError => 5,
                DropReason::SrhValidationFailed => 6,
                DropReason::NoRoute => 7,
                DropReason::HopLimitExceeded => 8,
            };
            assert_eq!((slot, reason as usize), (index, index), "{reason:?}");
            for _ in 0..=index {
                stats.count(&BatchVerdict { verdict: Verdict::Drop(reason), work: WorkSummary::default() });
            }
        }
        for (index, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(stats.dropped_for(reason), index as u64 + 1, "{reason:?}");
        }
        assert_eq!(stats.total_dropped(), 45);
        assert_eq!(stats.received, 45);
    }

    #[test]
    fn local_delivery_is_for_the_local_address_alone() {
        let mut dp = router();
        let mut skb = plain_skb("fc00::11");
        assert_eq!(dp.process(&mut skb, 0), Verdict::LocalDeliver);
        // A neighbouring address of the node's own prefix is routed on.
        let mut skb = plain_skb("fc00::12");
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 2, neighbour: addr("fe80::2") });
        assert_eq!(dp.stats.local_delivered, 1);
    }

    #[test]
    fn seg6local_end_is_invoked_for_matching_sids() {
        let mut dp = router();
        dp.add_local_sid("fc00::e1".parse().unwrap(), Seg6LocalAction::End);
        let mut skb = srv6_skb(&["fc00::e1", "fc00::22"]);
        let verdict = dp.process(&mut skb, 0);
        assert_eq!(verdict, Verdict::Forward { oif: 2, neighbour: addr("fe80::2") });
        assert_eq!(dp.stats.seg6local_invocations, 1);
        assert_eq!(dp.stats.bpf_invocations, 0);
        // The SRH was advanced: the packet's destination is now the next SID.
        let header = Ipv6Header::parse(skb.packet.data()).unwrap();
        assert_eq!(header.dst, addr("fc00::22"));
    }

    #[test]
    fn seg6local_end_bpf_counts_bpf_invocations() {
        let mut dp = router();
        let insns = assemble("mov64 r0, 0\nexit").unwrap();
        let prog = load(
            Program::new("end-bpf", ProgramType::LwtSeg6Local, insns),
            &std::collections::HashMap::new(),
            &dp.helpers,
        )
        .unwrap();
        dp.add_local_sid("fc00::e2".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
        let mut skb = srv6_skb(&["fc00::e2", "fc00::22"]);
        assert!(dp.process(&mut skb, 0).is_forward());
        assert_eq!(dp.stats.bpf_invocations, 1);
        assert_eq!(dp.stats.seg6local_invocations, 1);
    }

    #[test]
    fn end_x_resolves_interface_through_the_nexthop_route() {
        let mut dp = router();
        dp.add_route("fe80::/64".parse().unwrap(), vec![Nexthop::direct(7)]);
        dp.add_local_sid("fc00::e3".parse().unwrap(), Seg6LocalAction::EndX { nexthop: addr("fe80::42") });
        let mut skb = srv6_skb(&["fc00::e3", "fc00::22"]);
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 7, neighbour: addr("fe80::42") });
    }

    #[test]
    fn end_t_uses_the_requested_table() {
        let mut dp = router();
        dp.add_route_in_table(100, "fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::9"), 9)]);
        dp.add_local_sid("fc00::e4".parse().unwrap(), Seg6LocalAction::EndT { table: 100 });
        let mut skb = srv6_skb(&["fc00::e4", "fc00::22"]);
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 9, neighbour: addr("fe80::9") });
    }

    #[test]
    fn end_t_routes_via_a_named_vrf_table() {
        let mut dp = router();
        let vrf = dp.add_route_in_vrf(
            "tenant-a",
            "fc00::/16".parse().unwrap(),
            vec![Nexthop::via(addr("fe80::a"), 10)],
        );
        assert_eq!(dp.register_vrf("tenant-a"), vrf, "registration is stable");
        dp.add_local_sid("fc00::e5".parse().unwrap(), Seg6LocalAction::end_t(vrf));
        let mut skb = srv6_skb(&["fc00::e5", "fc00::22"]);
        // The main table routes fc00::/16 via oif 2; the VRF wins because
        // End.T forwards through its table, not "the" FIB.
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 10, neighbour: addr("fe80::a") });
    }

    #[test]
    fn end_dt6_decaps_and_looks_up_in_the_vrf_table() {
        let mut dp = router();
        let vrf = dp.add_route_in_vrf(
            "tenant-b",
            "2001:db8::/32".parse().unwrap(),
            vec![Nexthop::via(addr("fe80::b"), 11)],
        );
        dp.add_local_sid("fc00::d6".parse().unwrap(), Seg6LocalAction::end_dt6(vrf));
        // IPv6-in-IPv6 towards the End.DT6 SID; the inner destination is
        // routed in the VRF after decapsulation.
        let inner = build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::9"), 5, 6, &[0u8; 8], 64)
            .data()
            .to_vec();
        let mut packet = inner;
        let srh = SegmentRoutingHeader::from_path(proto::IPV6, &[addr("fc00::d6")]);
        crate::srv6_ops::push_srh_encap(&mut packet, &srh.to_bytes(), addr("fc00::99")).unwrap();
        let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&packet));
        // Main would route 2001:db8::/32 via oif 3; the VRF must win.
        assert_eq!(dp.process(&mut skb, 0), Verdict::Forward { oif: 11, neighbour: addr("fe80::b") });
        // The packet left decapsulated (inner header on the wire).
        let header = Ipv6Header::parse(skb.packet.data()).unwrap();
        assert_eq!(header.dst, addr("2001:db8::9"));
    }

    #[test]
    fn vrf_registered_on_a_fork_is_visible_to_every_shard() {
        let dp = router();
        let fork_a = dp.fork_for_cpu(1);
        let mut fork_b = dp.fork_for_cpu(2);
        // Register + populate through one fork; route through another.
        let vrf = fork_a.register_vrf("shared-vrf");
        fork_a.tables.insert(vrf, "fc00::/16".parse().unwrap(), vec![Nexthop::direct(9)]);
        fork_b.add_local_sid("fc00::e6".parse().unwrap(), Seg6LocalAction::end_t(vrf));
        let mut skb = srv6_skb(&["fc00::e6", "fc00::22"]);
        assert_eq!(fork_b.process(&mut skb, 0), Verdict::Forward { oif: 9, neighbour: addr("fc00::22") });
    }

    #[test]
    fn transit_encap_applies_to_matching_traffic() {
        let mut dp = router();
        dp.add_transit(
            "2001:db8:1::/48".parse().unwrap(),
            TransitBehaviour::encap_through(&[addr("fc00::a"), addr("2001:db8:1::99")]),
        );
        let mut skb = plain_skb("2001:db8:1::99");
        let before = skb.len();
        let verdict = dp.process(&mut skb, 0);
        // The new destination fc00::a is routed through interface 2.
        assert_eq!(verdict, Verdict::Forward { oif: 2, neighbour: addr("fe80::2") });
        assert!(skb.len() > before);
        assert_eq!(dp.stats.transit_applied, 1);
        let parsed = netpkt::ParsedPacket::parse(skb.packet.data()).unwrap();
        assert_eq!(parsed.outer.dst, addr("fc00::a"));
        assert!(parsed.inner.is_some());
    }

    #[test]
    fn hop_limit_exhaustion_drops() {
        let mut dp = router();
        let mut skb =
            Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr("fc00::42"), 1, 2, &[0u8; 8], 1));
        assert_eq!(dp.process(&mut skb, 0), Verdict::Drop(DropReason::HopLimitExceeded));
    }

    #[test]
    fn malformed_packets_are_dropped() {
        let mut dp = router();
        let mut skb = Skb::new(netpkt::PacketBuf::from_slice(&[0u8; 10]));
        assert_eq!(dp.process(&mut skb, 0), Verdict::Drop(DropReason::Malformed));
    }

    /// A mixed batch covering every dispatch class, for the equivalence
    /// tests below.
    fn mixed_batch() -> Vec<Skb> {
        let mut batch = Vec::new();
        for _ in 0..3 {
            batch.push(srv6_skb(&["fc00::e1", "fc00::22"])); // seg6local End
            batch.push(srv6_skb(&["fc00::e2", "fc00::22"])); // seg6local End.BPF
            batch.push(plain_skb("fc00::42")); // plain forwarding
            batch.push(plain_skb("fc00::11")); // local delivery
            batch.push(plain_skb("3001::1")); // no route
            batch.push(plain_skb("2001:db8:1::9")); // transit encap
            batch.push(Skb::new(netpkt::PacketBuf::from_slice(&[0u8; 6]))); // malformed
        }
        batch
    }

    fn batch_router() -> Seg6Datapath {
        let mut dp = router();
        dp.add_local_sid("fc00::e1".parse().unwrap(), Seg6LocalAction::End);
        let insns = assemble("mov64 r0, 0\nexit").unwrap();
        let prog = load(
            Program::new("end-bpf", ProgramType::LwtSeg6Local, insns),
            &std::collections::HashMap::new(),
            &dp.helpers,
        )
        .unwrap();
        dp.add_local_sid("fc00::e2".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
        dp.add_transit(
            "2001:db8:1::/48".parse().unwrap(),
            TransitBehaviour::encap_through(&[addr("fc00::a")]),
        );
        dp
    }

    #[test]
    fn process_batch_matches_per_packet_processing() {
        let mut dp_single = batch_router();
        let mut dp_batch = batch_router();

        let mut singles = mixed_batch();
        let single_verdicts: Vec<Verdict> = singles.iter_mut().map(|skb| dp_single.process(skb, 7)).collect();

        let mut batched = mixed_batch();
        let mut batch_verdicts = Vec::new();
        dp_batch.process_batch_verdicts_into(&mut batched, 7, &mut batch_verdicts);

        assert_eq!(single_verdicts, batch_verdicts.into_iter().map(|b| b.verdict).collect::<Vec<_>>());
        // The packets were rewritten identically too.
        for (single, batch) in singles.iter().zip(batched.iter()) {
            assert_eq!(single.packet.data(), batch.packet.data());
        }
        // And the statistics agree.
        assert_eq!(dp_single.stats.received, dp_batch.stats.received);
        assert_eq!(dp_single.stats.forwarded, dp_batch.stats.forwarded);
        assert_eq!(dp_single.stats.local_delivered, dp_batch.stats.local_delivered);
        assert_eq!(dp_single.stats.seg6local_invocations, dp_batch.stats.seg6local_invocations);
        assert_eq!(dp_single.stats.bpf_invocations, dp_batch.stats.bpf_invocations);
        assert_eq!(dp_single.stats.transit_applied, dp_batch.stats.transit_applied);
        assert_eq!(dp_single.stats.dropped, dp_batch.stats.dropped);
    }

    #[test]
    fn process_batch_of_one_flow_forwards_every_packet() {
        // Same-destination packets (what RSS steers to one worker) must
        // produce the same verdicts as individual processing.
        let mut dp = batch_router();
        let mut batch: Vec<Skb> = (0..16).map(|_| srv6_skb(&["fc00::e1", "fc00::22"])).collect();
        let mut verdicts = Vec::new();
        dp.process_batch_verdicts_into(&mut batch, 0, &mut verdicts);
        assert_eq!(verdicts.len(), 16);
        assert!(verdicts.iter().all(|b| b.verdict.is_forward()));
        assert_eq!(dp.stats.seg6local_invocations, 16);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut dp = batch_router();
        let mut verdicts = Vec::new();
        dp.process_batch_verdicts_into(&mut [], 0, &mut verdicts);
        assert!(verdicts.is_empty());
        assert_eq!(dp.stats.received, 0);
    }

    #[test]
    fn batch_verdicts_report_per_packet_work() {
        let mut dp = batch_router();
        let mut batch = vec![
            srv6_skb(&["fc00::e1", "fc00::22"]),                // seg6local End
            srv6_skb(&["fc00::e2", "fc00::22"]),                // seg6local End.BPF
            plain_skb("fc00::42"),                              // plain forwarding
            plain_skb("2001:db8:1::9"),                         // transit encap
            Skb::new(netpkt::PacketBuf::from_slice(&[0u8; 6])), // malformed
        ];
        let mut verdicts = Vec::new();
        dp.process_batch_verdicts_into(&mut batch, 0, &mut verdicts);
        let works: Vec<WorkSummary> = verdicts.iter().map(|b| b.work).collect();
        assert_eq!(works[0], WorkSummary { seg6local: true, bpf: false, transit: false });
        assert_eq!(works[1], WorkSummary { seg6local: true, bpf: true, transit: false });
        assert_eq!(works[2], WorkSummary::default());
        assert_eq!(works[3], WorkSummary { seg6local: false, bpf: false, transit: true });
        assert_eq!(works[4], WorkSummary::default());
        assert_eq!(verdicts[4].verdict, Verdict::Drop(DropReason::Malformed));
        // The buffer is appended to, never cleared: a second batch lands
        // after the first.
        dp.process_batch_verdicts_into(&mut [plain_skb("fc00::42")], 0, &mut verdicts);
        assert_eq!(verdicts.len(), 6);
        assert!(verdicts[5].verdict.is_forward());
    }

    #[test]
    fn fork_for_cpu_shares_the_fib_and_snapshots_the_rest() {
        let mut dp = batch_router();
        let mut fork = dp.fork_for_cpu(5);
        assert_eq!(fork.cpu_id, 5);
        assert_eq!(fork.stats.received, 0);

        // A SID configured before the fork works on the fork.
        let mut skb = srv6_skb(&["fc00::e1", "fc00::22"]);
        assert!(fork.process(&mut skb, 0).is_forward());
        assert_eq!(fork.stats.seg6local_invocations, 1);
        assert_eq!(dp.stats.seg6local_invocations, 0, "fork stats are private");

        // Routes installed on the original *after* forking reach the fork —
        // the FIB is shared through the Arc.
        dp.add_route("3001::/16".parse().unwrap(), vec![Nexthop::direct(9)]);
        let mut skb = plain_skb("3001::1");
        assert_eq!(fork.process(&mut skb, 0), Verdict::Forward { oif: 9, neighbour: addr("3001::1") });
    }

    /// A router whose routes reach every path of the batch's route cache:
    /// End.T through its own table, End.X through a lookup of its next hop,
    /// and a two-way ECMP route.
    fn route_cache_router() -> Seg6Datapath {
        let mut dp = router();
        dp.add_route("fe80::/64".parse().unwrap(), vec![Nexthop::direct(7)]);
        dp.add_route(
            "fd00::/16".parse().unwrap(),
            vec![Nexthop::via(addr("fe80::a"), 4), Nexthop::via(addr("fe80::b"), 5)],
        );
        dp.add_route_in_table(100, "fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::9"), 9)]);
        dp.add_local_sid("fc00::e3".parse().unwrap(), Seg6LocalAction::EndX { nexthop: addr("fe80::42") });
        dp.add_local_sid("fc00::e4".parse().unwrap(), Seg6LocalAction::EndT { table: 100 });
        dp
    }

    /// One batch that walks the route cache through every path it has.
    fn route_cache_batch() -> Vec<Skb> {
        let mut batch = Vec::new();
        // 20 flows onto the ECMP route, interleaved with one single-path
        // destination: never cached, re-selected per flow.
        for flow in 0..20 {
            batch.push(udp_skb(&format!("2001:db8::{:x}", flow + 1), "fd00::1"));
            if flow % 5 == 0 {
                batch.push(plain_skb("fc00::42"));
            }
        }
        // Repeats of one destination (hits), then alternating ones (misses).
        batch.extend((0..4).map(|_| plain_skb("fc00::42")));
        batch.extend((0..6).map(|i| plain_skb(if i % 2 == 0 { "fc00::42" } else { "2001:db8::7" })));
        // End.T looks fc00::22 up in table 100, right before and after the
        // same destination in the main table; End.X looks its next hop up.
        for _ in 0..3 {
            batch.push(plain_skb("fc00::22"));
            batch.push(srv6_skb(&["fc00::e4", "fc00::22"]));
            batch.push(plain_skb("fc00::22"));
            batch.push(srv6_skb(&["fc00::e3", "fc00::22"]));
        }
        // Unrouted in the first batch; its route is added before the second.
        batch.push(plain_skb("3001::1"));
        batch
    }

    /// A batch answers exactly what per-packet processing does on a mix
    /// that reaches every route-cache path — table-scoped lookups, next-hop
    /// lookups, ECMP re-selection, hits, misses — and a route added between
    /// two batches reaches the second.
    #[test]
    fn batches_through_the_route_cache_match_per_packet_processing() {
        let mut dp_single = route_cache_router();
        let mut dp_batch = route_cache_router();
        for round in 0..2 {
            if round == 1 {
                for dp in [&mut dp_single, &mut dp_batch] {
                    dp.add_route("3001::/16".parse().unwrap(), vec![Nexthop::direct(6)]);
                }
            }
            let mut singles = route_cache_batch();
            let want: Vec<Verdict> = singles.iter_mut().map(|skb| dp_single.process(skb, 0)).collect();
            let mut batched = route_cache_batch();
            let mut got = Vec::new();
            dp_batch.process_batch_verdicts_into(&mut batched, 0, &mut got);
            assert_eq!(got.into_iter().map(|b| b.verdict).collect::<Vec<_>>(), want, "round {round}");
            for (single, batch) in singles.iter().zip(&batched) {
                assert_eq!(single.packet.data(), batch.packet.data());
            }
            let oifs: std::collections::BTreeSet<u32> = want
                .iter()
                .filter_map(|v| match v {
                    Verdict::Forward { oif, .. } => Some(*oif),
                    _ => None,
                })
                .collect();
            assert!(oifs.is_superset(&[2, 3, 4, 5, 7, 9].into()), "every route was taken: {oifs:?}");
            let added = Verdict::Forward { oif: 6, neighbour: addr("3001::1") };
            let unrouted = if round == 0 { Verdict::Drop(DropReason::NoRoute) } else { added };
            assert_eq!(want.last(), Some(&unrouted));
        }
        assert_eq!(dp_single.stats, dp_batch.stats);
    }

    /// Every slot of a batch is written, whatever it held before: no
    /// sentinel survives, on the worker pool's records or on
    /// `process_batch_verdicts_into`'s appended slots, and the two agree.
    #[test]
    fn every_verdict_slot_is_written() {
        let sentinel = BatchVerdict {
            verdict: Verdict::Forward { oif: u32::MAX, neighbour: addr("ffff::1") },
            work: WorkSummary { seg6local: true, bpf: true, transit: true },
        };
        assert_ne!(sentinel, BatchVerdict::UNSET);
        let mut dp = batch_router();
        let mut records: Vec<((), Skb, BatchVerdict)> =
            mixed_batch().into_iter().map(|skb| ((), skb, sentinel.clone())).collect();
        dp.process_batch_in_place(records.as_mut_slice(), 0);
        assert!(records.iter().all(|(_, _, packet)| *packet != sentinel), "a slot kept the sentinel");
        let mut verdicts = vec![sentinel.clone()];
        dp.process_batch_verdicts_into(&mut mixed_batch(), 0, &mut verdicts);
        assert_eq!(verdicts[0], sentinel, "slots before the batch are left alone");
        let in_place: Vec<&BatchVerdict> = records.iter().map(|(_, _, packet)| packet).collect();
        assert_eq!(verdicts[1..].iter().collect::<Vec<_>>(), in_place);
    }

    /// The route lookup hands back a borrow of the snapshot's next hop: one
    /// pointer, returned in a register, where a copied `LookupResult` is
    /// written to the stack and read back.
    #[test]
    fn the_route_lookup_returns_a_register_sized_borrow() {
        let mut dp = route_cache_router();
        let mut batch = dp.batch();
        let flow = EcmpKey::default();
        for table in [MAIN_TABLE, 100] {
            let nexthop: Option<&Nexthop> =
                batch.exec.lookup_route(&mut batch.routes, table, &addr("fc00::22"), &flow);
            assert_eq!(std::mem::size_of_val(&nexthop), std::mem::size_of::<usize>());
            assert_eq!(nexthop.map(|hop| hop.oif), Some(if table == MAIN_TABLE { 2 } else { 9 }));
        }
        assert_eq!(std::mem::size_of::<Option<&Nexthop>>(), 8);
    }

    /// The step reads the fixed header straight from the bytes: on
    /// well-formed and hostile bytes alike it accepts exactly what
    /// `Ipv6Header::parse` accepts, with the same source, destination and
    /// flow label.
    #[test]
    fn arrived_flow_reads_what_the_header_parse_reads() {
        let mut rng = simnet::SplitMix64::new(0x5eed_0046);
        let mut accepted = 0;
        for case in 0..4000 {
            let mut bytes: Vec<u8> = (0..rng.gen_range(30usize..=56)).map(|_| rng.next_u64() as u8).collect();
            if rng.gen_bool(0.75) && !bytes.is_empty() {
                bytes[0] = (bytes[0] & 0x0f) | 0x60;
            }
            let want = Ipv6Header::parse(&bytes).ok().map(|header| EcmpKey::of(&header));
            accepted += usize::from(want.is_some());
            assert_eq!(arrived_flow(&bytes), want, "case {case}: {bytes:02x?}");
        }
        assert!(accepted > 1500, "the cases reach the accepting path ({accepted})");
    }
}
