//! Zero-allocation regression tests for the per-packet hot path.
//!
//! Run with `cargo test -p seg6-core --features alloc-counter`. The
//! counting global allocator tracks per-thread allocation counts; after one
//! warm-up batch fills every reusable buffer, a steady-state
//! `process_batch_verdicts_into` call must perform **zero** heap
//! allocations, whatever mix of forwarding, seg6local endpoint actions and
//! End.BPF programs the batch exercises. The second half holds the shipped
//! programs and the static behaviours that resize a packet to the same
//! zero, `End.DM` and its perf record included.
#![cfg(feature = "alloc-counter")]

#[path = "common/nf_paths.rs"]
mod nf_paths;

use ebpf_vm::helpers::ids;
use ebpf_vm::insn::{jmp, AccessSize};
use ebpf_vm::maps::PerCpuArrayMap;
use ebpf_vm::program::{load, retcode, ProgramType};
use ebpf_vm::{MapHandle, ProgramBuilder};
use netpkt::ipv6::proto;
use netpkt::packet::{build_ipv6_udp_packet, build_srv6_udp_packet};
use netpkt::srh::SegmentRoutingHeader;
use netpkt::Ipv6Prefix;
use seg6_core::alloc_counter::{thread_allocations, CountingAllocator};
use seg6_core::{BatchVerdict, Nexthop, Seg6Datapath, Seg6LocalAction, Skb, Verdict};
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn addr(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

/// An `End.BPF` program exercising the rewritten helper paths: a per-CPU
/// map lookup (stack-buffer key read), a counter bump through the returned
/// value region, and an `skb_load_bytes` copy (direct packet→stack copy).
fn counting_program() -> ebpf_vm::Program {
    let mut b = ProgramBuilder::new();
    b.mov_reg(9, 1); // save ctx
    b.store_imm(AccessSize::Word, 10, -4, 0);
    b.load_map_fd(1, 1);
    b.mov_reg(2, 10);
    b.add_imm(2, -4);
    b.call(ids::MAP_LOOKUP_ELEM);
    b.jmp_imm(jmp::JEQ, 0, 0, "out");
    b.load_mem(AccessSize::Double, 1, 0, 0);
    b.add_imm(1, 1);
    b.store_mem(AccessSize::Double, 0, 1, 0);
    // skb_load_bytes(ctx, 0, fp-16, 8)
    b.mov_reg(1, 9);
    b.mov_imm(2, 0);
    b.mov_reg(3, 10);
    b.add_imm(3, -16);
    b.mov_imm(4, 8);
    b.call(ids::SKB_LOAD_BYTES);
    b.label("out");
    b.ret(retcode::BPF_OK as i32);
    b.build_program("count-and-peek", ProgramType::LwtSeg6Local).expect("static program")
}

fn router(tier: ebpf_vm::ExecTier) -> Seg6Datapath {
    let mut dp = Seg6Datapath::new(addr("fc00::1"));
    dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via(addr("fe80::2"), 2)]);
    dp.add_route("2001:db8::/32".parse().unwrap(), vec![Nexthop::via(addr("fe80::3"), 3)]);
    // An ECMP route, so the weighted selection runs too.
    dp.add_route(
        "fd00::/16".parse().unwrap(),
        vec![Nexthop::via(addr("fe80::a"), 4), Nexthop::via(addr("fe80::b"), 5).with_weight(2)],
    );
    dp.add_local_sid("fc00::e1".parse().unwrap(), Seg6LocalAction::End);
    let counter: MapHandle = PerCpuArrayMap::new(8, 1, 1);
    let mut maps: HashMap<u32, MapHandle> = HashMap::new();
    maps.insert(1, Arc::clone(&counter));
    let prog = load(counting_program(), &maps, &dp.helpers).expect("verified program");
    prog.set_exec_tier(tier);
    dp.add_local_sid(Ipv6Prefix::host(addr("fc00::e2")), Seg6LocalAction::EndBpf { prog });
    dp
}

/// One batch of the steady-state workload: plain forwarding, ECMP
/// forwarding, local delivery, `End`, and `End.BPF`.
fn mixed_batch() -> Vec<Skb> {
    let mut batch = Vec::new();
    for i in 0..8u16 {
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::e1"), addr("fc00::99")]);
        batch.push(Skb::new(build_srv6_udp_packet(
            addr("2001:db8::1"),
            &srh,
            1000 + i,
            2000,
            &[0u8; 32],
            64,
        )));
        let srh = SegmentRoutingHeader::from_path(proto::UDP, &[addr("fc00::e2"), addr("fc00::99")]);
        batch.push(Skb::new(build_srv6_udp_packet(
            addr("2001:db8::2"),
            &srh,
            1000 + i,
            2000,
            &[0u8; 32],
            64,
        )));
        batch.push(Skb::new(build_ipv6_udp_packet(
            addr("2001:db8::1"),
            addr("fc00::42"),
            i,
            2,
            &[0u8; 16],
            64,
        )));
        batch.push(Skb::new(build_ipv6_udp_packet(
            addr("2001:db8::1"),
            addr("fd00::7"),
            i,
            2,
            &[0u8; 16],
            64,
        )));
        batch.push(Skb::new(build_ipv6_udp_packet(
            addr("2001:db8::1"),
            addr("fc00::1"),
            i,
            2,
            &[0u8; 16],
            64,
        )));
    }
    batch
}

fn assert_zero_alloc_steady_state(tier: ebpf_vm::ExecTier) {
    let mut dp = router(tier);
    let mut verdicts: Vec<BatchVerdict> = Vec::new();

    // Warm-up: fills the scratch buffers, compiles the program image,
    // loads the FIB snapshot, grows the verdict buffer.
    let mut warmup = mixed_batch();
    dp.process_batch_verdicts_into(&mut warmup, 0, &mut verdicts);
    assert!(verdicts.iter().all(|bv| !matches!(bv.verdict, Verdict::Drop(_))), "warm-up workload dropped");

    // Steady state: pre-build the batches, then measure the processing
    // alone. Zero allocations per packet means zero allocations, full stop.
    let mut batches: Vec<Vec<Skb>> = (0..4).map(|_| mixed_batch()).collect();
    verdicts.clear();
    verdicts.reserve(batches.iter().map(Vec::len).sum());

    let before = thread_allocations();
    for batch in &mut batches {
        dp.process_batch_verdicts_into(batch, 7, &mut verdicts);
    }
    let allocations = thread_allocations() - before;

    let packets: usize = batches.iter().map(Vec::len).sum();
    assert!(verdicts.len() == packets);
    assert!(verdicts.iter().all(|bv| !matches!(bv.verdict, Verdict::Drop(_))), "steady workload dropped");
    assert_eq!(
        allocations, 0,
        "steady-state process_batch_verdicts allocated {allocations} times for {packets} packets"
    );
}

#[test]
fn steady_state_is_allocation_free_with_interpreter() {
    assert_zero_alloc_steady_state(ebpf_vm::ExecTier::Interp);
}

#[test]
fn steady_state_is_allocation_free_with_native() {
    // Falls back to the interpreter on hosts without a backend, which must
    // be allocation-free either way.
    assert_zero_alloc_steady_state(ebpf_vm::ExecTier::Native);
}

/// The single-packet entry point shares the same scratch state, so it must
/// be allocation-free in the steady state as well.
#[test]
fn steady_state_process_is_allocation_free() {
    let mut dp = router(ebpf_vm::ExecTier::best_supported());
    let mut warmup = mixed_batch();
    for skb in &mut warmup {
        dp.process(skb, 0);
    }
    let mut batch = mixed_batch();
    let before = thread_allocations();
    for skb in &mut batch {
        dp.process(skb, 7);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(allocations, 0, "steady-state process() allocated {allocations} times");
}

/// Refills `skbs` with `frames` the way the pool's arena recycles a
/// buffer: reset, then copy the frame in. Storage a previous round grew
/// stays grown, which is what "steady state" means for a packet that gets
/// longer on its way through.
fn refill(skbs: &mut [Skb], frames: &[Vec<u8>]) {
    for (skb, frame) in skbs.iter_mut().zip(frames) {
        skb.packet.reset(netpkt::buf::DEFAULT_HEADROOM);
        skb.packet.append(frame);
        skb.mark = 0;
        skb.route_override = Default::default();
    }
}

/// Allocations of one `process_batch_verdicts_into` over `frames`, after
/// two warm-up rounds; every packet must be forwarded.
fn steady_round_allocations(
    dp: &mut Seg6Datapath,
    frames: &[Vec<u8>],
    mut between_rounds: impl FnMut(),
) -> u64 {
    let mut skbs: Vec<Skb> = frames.iter().map(|_| Skb::new(netpkt::PacketBuf::new())).collect();
    let mut verdicts: Vec<BatchVerdict> = Vec::with_capacity(frames.len());
    let mut allocations = 0;
    for round in 0..3 {
        refill(&mut skbs, frames);
        verdicts.clear();
        between_rounds();
        let before = thread_allocations();
        dp.process_batch_verdicts_into(&mut skbs, 7 + round, &mut verdicts);
        allocations = thread_allocations() - before;
        for (index, packet) in verdicts.iter().enumerate() {
            assert!(packet.verdict.is_forward(), "round {round}: packet {index} got {:?}", packet.verdict);
        }
    }
    allocations
}

/// `tag_increment`, `add_tlv`, `end_t`, `wrr_encap`, the static
/// `encap_through` / `inline_through` transits, `End.B6.Encaps` and
/// `End.B6`: nothing on any of these paths may allocate once the scratch
/// buffers and the packets' storage are warm, on any tier.
#[test]
fn programs_and_encapsulations_are_allocation_free_on_every_tier() {
    let frames = nf_paths::steady_frames(4);
    for tier in ebpf_vm::ExecTier::ALL {
        let (mut dp, _perf) = nf_paths::router(0, Some(tier));
        let allocations = steady_round_allocations(&mut dp, &frames, || {});
        assert_eq!(allocations, 0, "tier {}: {} packets", tier.name(), frames.len());
        assert_eq!(dp.stats.bpf_invocations as usize, 3 * frames.len() / 2, "half the paths run a program");
    }
}

/// `End.DM` allocates nothing per probe: `bpf_perf_event_output` copies
/// the 40-byte report straight into a slot of the perf ring, which was
/// allocated whole when the map was made. (The drain between rounds
/// empties the ring, so every round writes the same first slots.)
#[test]
fn end_dm_probes_are_allocation_free() {
    const PROBES: u16 = 16;
    let frames = nf_paths::probe_frames(PROBES);
    for tier in ebpf_vm::ExecTier::ALL {
        let (mut dp, perf) = nf_paths::router(0, Some(tier));
        let allocations = steady_round_allocations(&mut dp, &frames, || drop(perf.drain()));
        assert_eq!(allocations, 0, "tier {}", tier.name());
        assert_eq!(perf.len(), usize::from(PROBES), "every probe of the last round reported");
    }
}
