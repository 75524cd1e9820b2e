//! Helper functions and the helper registry.
//!
//! Helpers are the proxies between eBPF programs and the kernel (§2.1 of
//! the paper). A program calls them by numeric id with the `call`
//! instruction; the verifier only accepts ids that are registered for the
//! program's hook. This module provides the six base helpers every hook
//! gets — `bpf_map_lookup_elem`, `bpf_ktime_get_ns`, `bpf_get_prandom_u32`,
//! `bpf_get_smp_processor_id`, `bpf_perf_event_output` and
//! `bpf_skb_load_bytes`, the ones the paper's use cases (§4) call — and the
//! registry that embedders — the `seg6-core` crate in this workspace —
//! extend with their own helpers, exactly as the paper added four SRv6
//! helpers to the kernel.

use crate::program::ProgramType;
use crate::vm::HelperApi;
use std::borrow::Cow;

/// Numeric ids of the helpers known to this workspace. The values mirror
/// the upstream `enum bpf_func_id` so that anyone familiar with the kernel
/// ABI recognises them.
pub mod ids {
    /// `bpf_map_lookup_elem`
    pub const MAP_LOOKUP_ELEM: u32 = 1;
    /// `bpf_ktime_get_ns`
    pub const KTIME_GET_NS: u32 = 5;
    /// `bpf_get_prandom_u32`
    pub const GET_PRANDOM_U32: u32 = 7;
    /// `bpf_get_smp_processor_id`
    pub const GET_SMP_PROCESSOR_ID: u32 = 8;
    /// `bpf_perf_event_output`
    pub const PERF_EVENT_OUTPUT: u32 = 25;
    /// `bpf_skb_load_bytes`
    pub const SKB_LOAD_BYTES: u32 = 26;
    /// `bpf_lwt_push_encap` — added by the paper for LWT BPF programs.
    pub const LWT_PUSH_ENCAP: u32 = 73;
    /// `bpf_lwt_seg6_store_bytes` — added by the paper for End.BPF.
    pub const LWT_SEG6_STORE_BYTES: u32 = 74;
    /// `bpf_lwt_seg6_adjust_srh` — added by the paper for End.BPF.
    pub const LWT_SEG6_ADJUST_SRH: u32 = 75;
    /// `bpf_lwt_seg6_action` — added by the paper for End.BPF.
    pub const LWT_SEG6_ACTION: u32 = 76;
}

/// Signature of a helper implementation. Arguments are the raw contents of
/// r1–r5; the return value goes to r0.
pub type HelperFn = fn(&mut HelperApi<'_, '_>, [u64; 5]) -> i64;

/// A registered helper.
#[derive(Clone, Copy)]
pub struct HelperDesc {
    /// Helper name, for diagnostics and the disassembler.
    pub name: &'static str,
    /// Implementation.
    pub func: HelperFn,
    /// Hooks allowed to call this helper; `None` means every hook.
    pub allowed: Option<&'static [ProgramType]>,
    /// Whether the helper may move or resize the packet (the kernel's
    /// `bpf_helper_changes_pkt_data`): the verifier invalidates every
    /// packet pointer a program holds across a call to it.
    pub changes_packet: bool,
}

/// The set of helpers available to programs at verification and run time.
///
/// Internally a dense table indexed directly by helper id — helper ids are
/// small (the kernel ABI range plus a handful of local extensions), so a
/// `call` resolves with one bounds-checked array index instead of hashing,
/// and the per-program tables resolved at load time
/// ([`crate::program::LoadedProgram::helper_table`]) copy straight out of
/// it.
#[derive(Clone, Default)]
pub struct HelperRegistry {
    helpers: Vec<Option<HelperDesc>>,
}

impl HelperRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a registry pre-populated with the base helpers.
    pub fn with_base_helpers() -> Self {
        let mut registry = Self::new();
        registry.register(ids::MAP_LOOKUP_ELEM, "bpf_map_lookup_elem", helper_map_lookup_elem, None);
        registry.register(ids::KTIME_GET_NS, "bpf_ktime_get_ns", helper_ktime_get_ns, None);
        registry.register(ids::GET_PRANDOM_U32, "bpf_get_prandom_u32", helper_get_prandom_u32, None);
        registry.register(
            ids::GET_SMP_PROCESSOR_ID,
            "bpf_get_smp_processor_id",
            helper_get_smp_processor_id,
            None,
        );
        registry.register(ids::PERF_EVENT_OUTPUT, "bpf_perf_event_output", helper_perf_event_output, None);
        registry.register(ids::SKB_LOAD_BYTES, "bpf_skb_load_bytes", helper_skb_load_bytes, None);
        registry
    }

    /// Registers (or replaces) a helper.
    pub fn register(
        &mut self,
        id: u32,
        name: &'static str,
        func: HelperFn,
        allowed: Option<&'static [ProgramType]>,
    ) {
        self.insert(id, HelperDesc { name, func, allowed, changes_packet: false });
    }

    /// Registers (or replaces) a helper that may move or resize the
    /// packet, like the paper's four SRv6 helpers: after a call to it the
    /// verifier holds no packet pointer valid, and a program must re-derive
    /// `data` from its context, as kernel programs must.
    pub fn register_packet_changing(
        &mut self,
        id: u32,
        name: &'static str,
        func: HelperFn,
        allowed: Option<&'static [ProgramType]>,
    ) {
        self.insert(id, HelperDesc { name, func, allowed, changes_packet: true });
    }

    fn insert(&mut self, id: u32, desc: HelperDesc) {
        let idx = id as usize;
        if idx >= self.helpers.len() {
            self.helpers.resize(idx + 1, None);
        }
        self.helpers[idx] = Some(desc);
    }

    /// Looks a helper up by id — a direct table index.
    pub fn get(&self, id: u32) -> Option<&HelperDesc> {
        self.helpers.get(id as usize).and_then(Option::as_ref)
    }

    /// Whether `prog_type` may call helper `id`.
    pub fn allowed_for(&self, id: u32, prog_type: ProgramType) -> bool {
        match self.get(id) {
            None => false,
            Some(desc) => desc.allowed.is_none_or(|types| types.contains(&prog_type)),
        }
    }

    /// Whether helper `id` may move or resize the packet.
    pub fn changes_packet(&self, id: u32) -> bool {
        self.get(id).is_some_and(|desc| desc.changes_packet)
    }

    /// Name of a helper, for diagnostics.
    pub fn name_of(&self, id: u32) -> Option<&'static str> {
        self.get(id).map(|d| d.name)
    }

    /// Number of registered helpers.
    pub fn len(&self) -> usize {
        self.helpers.iter().filter(|slot| slot.is_some()).count()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Base helper implementations
// ---------------------------------------------------------------------------

/// Largest parameter read through a stack buffer by [`read_param`]. Every
/// map key in this workspace fits; jumbo parameters fall back to a heap
/// read.
pub const MAX_STACK_PARAM: usize = 64;

/// Reads `len` program-memory bytes through a caller-provided stack buffer
/// when they fit, falling back to a heap allocation only for jumbo
/// parameters — per-packet helper parameter reads stay allocation-free.
/// Shared by the base helpers here and by embedder helpers (the SRv6 set
/// in `seg6-core` layers its own length policy on top).
pub fn read_param<'b>(
    api: &HelperApi<'_, '_>,
    addr: u64,
    len: usize,
    buf: &'b mut [u8; MAX_STACK_PARAM],
) -> Option<Cow<'b, [u8]>> {
    if len <= MAX_STACK_PARAM {
        api.read_into(addr, &mut buf[..len]).ok()?;
        Some(Cow::Borrowed(&buf[..len]))
    } else {
        api.read_bytes(addr, len).ok().map(Cow::Owned)
    }
}

/// `void *bpf_map_lookup_elem(map, key)` — returns a pointer to the value or
/// NULL: arithmetic on the map's region of the program's address space
/// ([`crate::maps::ProgramMaps::lookup`]). Per-CPU maps resolve to the slot
/// of the CPU the program runs on.
fn helper_map_lookup_elem(api: &mut HelperApi<'_, '_>, args: [u64; 5]) -> i64 {
    let mut key = [0u8; 4];
    if api.read_into(args[1], &mut key).is_err() {
        return 0;
    }
    let maps = api.maps;
    maps.lookup(args[0], u32::from_ne_bytes(key), || api.env().cpu_id()) as i64
}

/// `u64 bpf_ktime_get_ns(void)`.
fn helper_ktime_get_ns(api: &mut HelperApi<'_, '_>, _args: [u64; 5]) -> i64 {
    api.env().ktime_ns() as i64
}

/// `u32 bpf_get_prandom_u32(void)`.
fn helper_get_prandom_u32(api: &mut HelperApi<'_, '_>, _args: [u64; 5]) -> i64 {
    i64::from(api.env().prandom_u32())
}

/// `u32 bpf_get_smp_processor_id(void)` — the logical CPU (worker shard)
/// the program runs on.
fn helper_get_smp_processor_id(api: &mut HelperApi<'_, '_>, _args: [u64; 5]) -> i64 {
    i64::from(api.env().cpu_id())
}

/// In `bpf_perf_event_output` flags, the low 32 bits select the target CPU
/// ring; this value means "the CPU the program runs on".
pub const BPF_F_CURRENT_CPU: u64 = 0xffff_ffff;
/// Mask of the CPU-index bits in `bpf_perf_event_output` flags.
pub const BPF_F_INDEX_MASK: u64 = 0xffff_ffff;

/// `-ENOSPC`: what `bpf_perf_event_output` returns when the ring has no
/// room for the record, which the ring counts lost.
pub const ENOSPC: i64 = -28;

/// `long bpf_perf_event_output(ctx, map, flags, data, size)` — copies `size`
/// bytes of the program's memory into one CPU ring of the perf buffer
/// attached to `map`, straight into the ring's slot. The low 32 bits of
/// `flags` select the ring: [`BPF_F_CURRENT_CPU`] (the default every
/// program in this workspace uses) targets the ring of the CPU the program
/// runs on; an explicit index must name an existing ring, as in the
/// kernel. A full ring refuses the record with [`ENOSPC`] and counts it
/// lost.
fn helper_perf_event_output(api: &mut HelperApi<'_, '_>, args: [u64; 5]) -> i64 {
    let Ok(map) = api.map_by_ptr(args[1]) else { return -1 };
    let Some(ring) = map.perf_ring() else { return -1 };
    // The kernel rejects flags with any bit outside the index mask set
    // (e.g. a sign-extended -1); match that so programs stay portable.
    if args[2] & !BPF_F_INDEX_MASK != 0 {
        return -1;
    }
    let index = args[2] & BPF_F_INDEX_MASK;
    let cpu = if index == BPF_F_CURRENT_CPU {
        api.env().cpu_id()
    } else if index < u64::from(ring.num_rings()) {
        index as u32
    } else {
        return -1;
    };
    let mut readable = true;
    let queued = ring.output(cpu, args[4] as usize, |slot| {
        readable = api.read_into(args[3], slot).is_ok();
        readable
    });
    match (queued, readable) {
        (true, _) => 0,
        (false, true) => ENOSPC,
        (false, false) => -1,
    }
}

/// `long bpf_skb_load_bytes(ctx, offset, to, len)` — copies packet bytes to
/// program memory (typically the stack), with no intermediate buffer.
fn helper_skb_load_bytes(api: &mut HelperApi<'_, '_>, args: [u64; 5]) -> i64 {
    let offset = args[1] as usize;
    let len = args[3] as usize;
    if len == 0 || len > 4096 {
        return -1;
    }
    let packet_len = api.packet().len();
    if offset.checked_add(len).is_none_or(|end| end > packet_len) {
        return -1;
    }
    match api.copy_from_packet(offset, len, args[2]) {
        Ok(()) => 0,
        Err(_) => -1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::{ArrayMap, Map, MapHandle, PerfEventArray, ProgramMaps, UpdateFlags};
    use crate::vm::{map_ptr_value, NullEnv, RunContext, RunState, STACK_BASE};

    /// A fresh state, context and packet, and `maps` laid out as one
    /// program's.
    fn setup(maps: &[(u32, MapHandle)]) -> (RunState, Vec<u8>, Vec<u8>, ProgramMaps) {
        let maps = ProgramMaps::new(maps.iter().map(|(fd, map)| (fd, map))).unwrap();
        (RunState::new(16), vec![0u8; 16], (0u8..64).collect(), maps)
    }

    #[test]
    fn registry_contains_base_helpers() {
        let registry = HelperRegistry::with_base_helpers();
        // Exactly the helpers the paper's use cases call, and no others.
        let base = [
            (ids::MAP_LOOKUP_ELEM, "bpf_map_lookup_elem"),
            (ids::KTIME_GET_NS, "bpf_ktime_get_ns"),
            (ids::GET_PRANDOM_U32, "bpf_get_prandom_u32"),
            (ids::GET_SMP_PROCESSOR_ID, "bpf_get_smp_processor_id"),
            (ids::PERF_EVENT_OUTPUT, "bpf_perf_event_output"),
            (ids::SKB_LOAD_BYTES, "bpf_skb_load_bytes"),
        ];
        assert_eq!(registry.len(), base.len());
        for (id, name) in base {
            assert_eq!(registry.name_of(id), Some(name));
        }
        assert!(!registry.is_empty());
        assert!(registry.get(424242).is_none());
        // Unrestricted helpers are allowed everywhere; unknown ids nowhere.
        assert!(registry.allowed_for(ids::KTIME_GET_NS, ProgramType::LwtSeg6Local));
        assert!(!registry.allowed_for(424242, ProgramType::LwtSeg6Local));
    }

    #[test]
    fn restricted_helper_is_gated_by_program_type() {
        static ONLY_SEG6: &[ProgramType] = &[ProgramType::LwtSeg6Local];
        fn noop(_api: &mut HelperApi<'_, '_>, _args: [u64; 5]) -> i64 {
            0
        }
        let mut registry = HelperRegistry::new();
        registry.register(100, "test_helper", noop, Some(ONLY_SEG6));
        assert!(registry.allowed_for(100, ProgramType::LwtSeg6Local));
        assert!(!registry.allowed_for(100, ProgramType::LwtXmit));
    }

    #[test]
    fn map_lookup_and_update_through_helpers() {
        let map: MapHandle = ArrayMap::new(8, 2);
        let (mut state, mut ctx, mut pkt, maps) = setup(&[(3, map.clone())]);
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        // User space fills the array; the program looks it up and updates
        // the value through the returned pointer.
        map.update(&1u32.to_ne_bytes(), &[9u8; 8], UpdateFlags::Any).unwrap();
        let key_addr = STACK_BASE + 8;
        {
            let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
            api.write_bytes(key_addr, &1u32.to_ne_bytes()).unwrap();
            // lookup returns a readable, writable pointer
            let ptr = helper_map_lookup_elem(&mut api, [map_ptr_value(3), key_addr, 0, 0, 0]);
            assert!(ptr > 0);
            assert_eq!(api.read_bytes(ptr as u64, 8).unwrap(), vec![9u8; 8]);
            api.write_bytes(ptr as u64, &[7u8; 8]).unwrap();
            // unknown fd fails cleanly
            assert_eq!(helper_map_lookup_elem(&mut api, [map_ptr_value(9), key_addr, 0, 0, 0]), 0);
        }
        assert_eq!(map.lookup(&1u32.to_ne_bytes()), Some(vec![7u8; 8]));
    }

    #[test]
    fn perf_event_output_pushes_to_ring() {
        let perf = PerfEventArray::new(8);
        let (mut state, mut ctx, mut pkt, maps) = setup(&[(1, perf.clone())]);
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
        api.write_bytes(STACK_BASE, &[1, 2, 3, 4]).unwrap();
        let ret = helper_perf_event_output(&mut api, [0, map_ptr_value(1), 0, STACK_BASE, 4]);
        assert_eq!(ret, 0);
        let event = perf.perf_buffer().unwrap().poll().unwrap();
        assert_eq!(event.data, vec![1, 2, 3, 4]);
    }

    struct CpuEnv(u32);
    impl crate::vm::VmEnv for CpuEnv {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn cpu_id(&mut self) -> u32 {
            self.0
        }
    }

    #[test]
    fn map_lookup_resolves_the_current_cpus_slot() {
        let map: MapHandle = crate::maps::PerCpuArrayMap::new(8, 1, 4);
        let (mut state, mut ctx, mut pkt, maps) = setup(&[(3, map.clone())]);
        let key_addr = STACK_BASE + 8;
        for cpu in [0u32, 2] {
            let mut env = CpuEnv(cpu);
            let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
            let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
            api.write_bytes(key_addr, &0u32.to_ne_bytes()).unwrap();
            let ptr = helper_map_lookup_elem(&mut api, [map_ptr_value(3), key_addr, 0, 0, 0]);
            assert!(ptr > 0);
            // Write the CPU id through the returned pointer.
            api.write_bytes(ptr as u64, &u64::from(cpu).to_le_bytes()).unwrap();
        }
        // Each write landed in its own CPU's slot.
        let per_cpu = map.lookup(&0u32.to_ne_bytes()).unwrap();
        assert_eq!(&per_cpu[0..8], &0u64.to_le_bytes());
        assert_eq!(&per_cpu[8..16], &0u64.to_le_bytes());
        assert_eq!(&per_cpu[16..24], &2u64.to_le_bytes());
    }

    #[test]
    fn smp_processor_id_reads_the_environment() {
        let (mut state, mut ctx, mut pkt, maps) = setup(&[]);
        let mut env = CpuEnv(5);
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
        assert_eq!(helper_get_smp_processor_id(&mut api, [0; 5]), 5);
    }

    #[test]
    fn perf_event_output_honours_the_cpu_index() {
        let perf = PerfEventArray::per_cpu(8, 4);
        let (mut state, mut ctx, mut pkt, maps) = setup(&[(1, perf.clone())]);
        let mut env = CpuEnv(3);
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
        api.write_bytes(STACK_BASE, &[9]).unwrap();
        // BPF_F_CURRENT_CPU routes to the env's CPU ring.
        assert_eq!(
            helper_perf_event_output(&mut api, [0, map_ptr_value(1), BPF_F_CURRENT_CPU, STACK_BASE, 1]),
            0
        );
        // An explicit in-range index is honoured.
        assert_eq!(helper_perf_event_output(&mut api, [0, map_ptr_value(1), 1, STACK_BASE, 1]), 0);
        // An explicit out-of-range index is rejected, as in the kernel.
        assert_eq!(helper_perf_event_output(&mut api, [0, map_ptr_value(1), 7, STACK_BASE, 1]), -1);
        let buffer = perf.perf_buffer().unwrap();
        assert_eq!(buffer.len_cpu(3), 1);
        assert_eq!(buffer.len_cpu(1), 1);
        assert_eq!(buffer.poll_cpu(3).unwrap().cpu, 3);
    }

    #[test]
    fn skb_load_bytes_copies_packet_data() {
        let (mut state, mut ctx, mut pkt, maps) = setup(&[]);
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
        let dst = STACK_BASE + 64;
        assert_eq!(helper_skb_load_bytes(&mut api, [0, 10, dst, 4, 0]), 0);
        assert_eq!(api.read_bytes(dst, 4).unwrap(), vec![10, 11, 12, 13]);
        // Out-of-bounds offsets fail.
        assert_eq!(helper_skb_load_bytes(&mut api, [0, 62, dst, 4, 0]), -1);
        assert_eq!(helper_skb_load_bytes(&mut api, [0, 0, dst, 0, 0]), -1);
    }

    #[test]
    fn ktime_and_prandom_use_the_environment() {
        struct FixedEnv;
        impl crate::vm::VmEnv for FixedEnv {
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn ktime_ns(&mut self) -> u64 {
                424242
            }
            fn prandom_u32(&mut self) -> u32 {
                7
            }
        }
        let maps = ProgramMaps::default();
        let mut state = RunState::new(0);
        let mut ctx = vec![0u8; 4];
        let mut pkt = vec![0u8; 4];
        let mut env = FixedEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
        assert_eq!(helper_ktime_get_ns(&mut api, [0; 5]), 424242);
        assert_eq!(helper_get_prandom_u32(&mut api, [0; 5]), 7);
    }
}
