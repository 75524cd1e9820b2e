//! The virtual-machine execution core.
//!
//! This module defines the synthetic address space programs see, the
//! per-invocation run state (registers and stack), the
//! [`RunContext`] an embedder supplies (context struct, packet bytes and a
//! [`VmEnv`] for kernel-side services), and [`execute_insn`], the
//! interpreter's instruction-execution routine for everything but helper
//! calls.
//!
//! ## Address space
//!
//! eBPF programs manipulate 64-bit values that may be pointers. Instead of
//! exposing host addresses, the VM places every accessible object at a
//! fixed synthetic base:
//!
//! | region      | base              | access |
//! |-------------|-------------------|--------|
//! | context     | [`CTX_BASE`]      | read/write |
//! | packet      | [`PKT_BASE`]      | read-only (writes must go through helpers, as the paper mandates) |
//! | stack       | [`STACK_BASE`]    | read/write |
//! | map values  | [`MAP_VALUE_BASE`]| read/write, the first `value_size` bytes of each element |
//! | map handles | [`MAP_PTR_BASE`]  | opaque (only passed to helpers) |
//!
//! The map-value space holds one region per map the program references,
//! laid out at load ([`ProgramMaps`]): region `i` is the `i`-th map's
//! whole arena, at `MAP_VALUE_BASE + i × MAP_VALUE_STRIDE`. The regions
//! belong to the loaded program, so a run allocates and registers nothing,
//! and `bpf_map_lookup_elem` is arithmetic on them.

use crate::error::{Error, Result};
use crate::helpers::HelperRegistry;
use crate::insn::{alu, class, jmp, src, AccessSize, Insn, NUM_REGS, STACK_SIZE};
use crate::maps::{MapHandle, ProgramMaps};
use crate::program::LoadedProgram;
use std::any::Any;

/// Base address of the context structure.
pub const CTX_BASE: u64 = 0x1000_0000_0000;
/// Base address of the packet bytes.
pub const PKT_BASE: u64 = 0x2000_0000_0000;
/// Base address of the stack; `r10` points at `STACK_BASE + STACK_SIZE`.
pub const STACK_BASE: u64 = 0x3000_0000_0000;
/// Base address of the map-value regions, one per map a program
/// references (see [`ProgramMaps`]).
pub const MAP_VALUE_BASE: u64 = 0x4000_0000_0000;
/// Base of the opaque map-handle pointers loaded by pseudo-map-fd `lddw`.
pub const MAP_PTR_BASE: u64 = 0x5000_0000_0000;
/// Address stride between two map-value regions: the largest arena a map
/// may have.
pub const MAP_VALUE_STRIDE: u64 = 0x1_0000_0000;

/// Default instruction budget per invocation, matching the kernel's
/// complexity limit order of magnitude.
pub const DEFAULT_INSN_BUDGET: u64 = 1_000_000;

/// Byte offset, inside every LWT-style context structure, of the 64-bit
/// `data` pointer to the first packet byte. The verifier gives loads from
/// this offset the packet-pointer type and embedders must place
/// [`PKT_BASE`] there when building the context.
pub const CTX_OFF_DATA: i64 = 0;
/// Byte offset of the 64-bit `data_end` pointer (one past the last packet
/// byte) inside every LWT-style context structure.
pub const CTX_OFF_DATA_END: i64 = 8;

/// The opaque pointer value representing the map with file descriptor `fd`.
pub fn map_ptr_value(fd: u32) -> u64 {
    MAP_PTR_BASE | u64::from(fd)
}

/// Recovers the map file descriptor from an opaque map pointer.
pub fn fd_from_map_ptr(value: u64) -> Option<u32> {
    if value & !0xffff_ffff == MAP_PTR_BASE {
        Some(value as u32)
    } else {
        None
    }
}

/// A per-invocation snapshot of the trivially-pure helper results, used by
/// the native tier to inline `bpf_ktime_get_ns` / `bpf_get_smp_processor_id`
/// as direct loads instead of trampoline calls, and to pick the CPU's block
/// in an inline per-CPU array lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvSnapshot {
    /// The value `ktime_ns()` returns for the whole invocation.
    pub ktime_ns: u64,
    /// The value `cpu_id()` returns for the whole invocation.
    pub cpu_id: u32,
}

/// Kernel-side services available to helpers.
///
/// The base implementation is enough for pure computation; embedders such as
/// `seg6-core` supply an environment that also carries the datapath state
/// (FIB, timestamps, the SRv6 action machinery) and is recovered by the
/// SRv6-specific helpers through [`VmEnv::as_any_mut`].
pub trait VmEnv {
    /// Downcasting hook so embedder-specific helpers can reach their state.
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Monotonic clock in nanoseconds (`bpf_ktime_get_ns`).
    fn ktime_ns(&mut self) -> u64 {
        0
    }
    /// Logical CPU the program runs on (`bpf_get_smp_processor_id`). The
    /// multi-queue runtime sets this to the worker shard id, which is also
    /// the slot per-CPU maps index.
    fn cpu_id(&mut self) -> u32 {
        0
    }
    /// Pseudo-random number (`bpf_get_prandom_u32`).
    fn prandom_u32(&mut self) -> u32 {
        0x9e37_79b9
    }

    /// Environments whose `ktime_ns`/`cpu_id` are stable for the duration of
    /// one program run may return a snapshot of them, which lets the native
    /// tier inline those helpers as direct loads. Environments that log,
    /// count or otherwise observe each helper call (e.g. the differential
    /// fuzz recorder) must keep the default `None` so every call still goes
    /// through the trampoline.
    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        None
    }
}

/// A [`VmEnv`] with no services, for tests and pure programs.
#[derive(Debug, Default)]
pub struct NullEnv;

impl VmEnv for NullEnv {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        Some(EnvSnapshot { ktime_ns: 0, cpu_id: 0 })
    }
}

/// The packet a program runs on: readable by the program, resizable and
/// writable by helpers only.
///
/// Embedders implement it for wherever the packet lives. `Vec<u8>` grows
/// and shrinks at the tail; `seg6-core` implements it for a view of the
/// skb's headroom buffer, which moves the *front* of the packet instead,
/// like the kernel's `skb_push` / `skb_pull`. Either way the bytes
/// [`Packet::bytes`] returns after an edit are the same.
pub trait Packet {
    /// The packet bytes.
    fn bytes(&self) -> &[u8];
    /// The packet bytes, for writing in place.
    fn bytes_mut(&mut self) -> &mut [u8];
    /// Opens `n` zero bytes at offset `at` (`at <= len`); the bytes from
    /// `at` on follow them.
    fn insert(&mut self, at: usize, n: usize);
    /// Removes the `n` bytes at offset `at` (`at + n <= len`).
    fn remove(&mut self, at: usize, n: usize);
}

impl Packet for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        self
    }

    /// Shifts the tail. A buffer too small grows to exactly the new
    /// length, not amortised: packet sizes are bounded, and doubling a
    /// 1.4 kB packet's allocation is memory held for nothing.
    fn insert(&mut self, at: usize, n: usize) {
        let old_len = self.len();
        self.reserve_exact(n);
        self.resize(old_len + n, 0);
        self.copy_within(at..old_len, at + n);
        self[at..at + n].fill(0);
    }

    fn remove(&mut self, at: usize, n: usize) {
        self.drain(at..at + n);
    }
}

/// Everything the embedder passes for one program invocation.
pub struct RunContext<'a> {
    /// The context structure (e.g. the `__sk_buff`-like layout built by the
    /// seg6local hook). `r1` points at its first byte.
    pub ctx: &'a mut [u8],
    /// The packet, readable by the program and editable by helpers.
    pub packet: &'a mut dyn Packet,
    /// Kernel-side services.
    pub env: &'a mut dyn VmEnv,
}

impl<'a> RunContext<'a> {
    /// The invocation's context structure, packet and environment.
    pub fn new(ctx: &'a mut [u8], packet: &'a mut dyn Packet, env: &'a mut dyn VmEnv) -> Self {
        RunContext { ctx, packet, env }
    }
}

/// The registers every run starts from: `r1` at the context, `r10` at the
/// top of the stack, everything else zero.
const INITIAL_REGS: [u64; NUM_REGS] = {
    let mut regs = [0u64; NUM_REGS];
    regs[1] = CTX_BASE;
    regs[10] = STACK_BASE + STACK_SIZE as u64;
    regs
};

/// Per-invocation machine state.
#[derive(Debug)]
pub struct RunState {
    /// General-purpose registers r0–r10.
    pub regs: [u64; NUM_REGS],
    /// The 512-byte stack, all zero after every [`RunState::reset`].
    /// Private so that nothing writes it behind `stack_dirty`: the
    /// interpreter and every helper write it through
    /// [`write_bytes`] / [`copy_from_packet`], and native code only within
    /// the verifier's stack depth, which its run records first.
    stack: Box<[u8; STACK_SIZE]>,
    /// Low-water mark of the stack writes since the last reset: every byte
    /// below it is still zero, so a reset zeroes `stack[stack_dirty..]`
    /// only — nothing at all after a program that never touched its stack.
    stack_dirty: usize,
    /// Whether a helper took mutable access to the packet
    /// ([`HelperApi::packet_mut`]) since the last reset.
    pub(crate) packet_written: bool,
    /// The native tier's frame and trampoline context, bound to this state
    /// by its first native run.
    pub(crate) native: crate::codegen::NativeSlot,
    /// Number of instructions executed so far.
    pub insn_executed: u64,
    /// Maximum number of instructions before aborting.
    pub insn_budget: u64,
}

impl RunState {
    /// Creates a fresh state with `r1` pointing at the context and `r10` at
    /// the top of the stack.
    pub fn new(ctx_len: usize) -> Self {
        let _ = ctx_len;
        RunState {
            regs: INITIAL_REGS,
            stack: Box::new([0u8; STACK_SIZE]),
            stack_dirty: STACK_SIZE,
            packet_written: false,
            native: Default::default(),
            insn_executed: 0,
            insn_budget: DEFAULT_INSN_BUDGET,
        }
    }

    /// Returns the state to its freshly-created condition without releasing
    /// any of its buffers, so one `RunState` can be reused across program
    /// invocations (the per-packet hot path keeps one per datapath instead
    /// of allocating a 512-byte stack per packet).
    pub fn reset(&mut self) {
        self.regs = INITIAL_REGS;
        if self.stack_dirty < STACK_SIZE {
            self.stack[self.stack_dirty..].fill(0);
            self.stack_dirty = STACK_SIZE;
        }
        self.packet_written = false;
        // Nothing about maps lives here: each program's map-value regions
        // are laid out once, at load, and a lookup only computes an
        // address in them.
        self.insn_executed = 0;
        self.insn_budget = DEFAULT_INSN_BUDGET;
    }

    /// The stack image: as the last run left it, or all zero right after a
    /// [`RunState::reset`].
    pub fn stack(&self) -> &[u8] {
        &self.stack[..]
    }

    /// Records that `stack[offset..]` may be written before the next
    /// reset, which must then zero it.
    #[inline]
    pub(crate) fn dirty_stack_from(&mut self, offset: usize) {
        self.stack_dirty = self.stack_dirty.min(offset);
    }

    /// Host address of the first stack byte, for the native tier's stack
    /// bias. Stable for the life of the state.
    pub(crate) fn stack_ptr(&mut self) -> *mut u8 {
        self.stack.as_mut_ptr()
    }

    /// Whether a helper took mutable access to the packet since the last
    /// reset — the conservative signal that the packet bytes may differ
    /// from what the run started with. A hook that handed the program a
    /// working copy needs to commit it only then.
    pub fn packet_written(&self) -> bool {
        self.packet_written
    }
}

/// Control-flow outcome of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to the next instruction.
    Next,
    /// The instruction consumed two slots (`lddw`).
    SkipOne,
    /// Branch by `delta` instructions relative to the *next* instruction.
    Branch(i64),
    /// The program returned; `r0` holds the result.
    Exit,
}

// ---------------------------------------------------------------------------
// Memory access
// ---------------------------------------------------------------------------

enum Target {
    Stack(usize),
    Ctx(usize),
    Packet(usize),
    /// A map-value address, bounds-checked by the copy into or out of it.
    Map,
}

fn fault(addr: u64, len: usize) -> Error {
    Error::Runtime { insn: 0, message: format!("invalid memory access at 0x{addr:x} len {len}") }
}

fn resolve(rc: &RunContext<'_>, addr: u64, len: usize) -> Result<Target> {
    let end_ok = |start: usize, region_len: usize| start.checked_add(len).is_some_and(|e| e <= region_len);
    if (STACK_BASE..STACK_BASE + STACK_SIZE as u64).contains(&addr) {
        let off = (addr - STACK_BASE) as usize;
        if end_ok(off, STACK_SIZE) {
            return Ok(Target::Stack(off));
        }
    } else if addr >= CTX_BASE && addr < CTX_BASE + rc.ctx.len() as u64 {
        let off = (addr - CTX_BASE) as usize;
        if end_ok(off, rc.ctx.len()) {
            return Ok(Target::Ctx(off));
        }
    } else if (PKT_BASE..STACK_BASE).contains(&addr) {
        let (off, packet_len) = ((addr - PKT_BASE) as usize, rc.packet.bytes().len());
        if off < packet_len && end_ok(off, packet_len) {
            return Ok(Target::Packet(off));
        }
    } else if (MAP_VALUE_BASE..MAP_PTR_BASE).contains(&addr) {
        return Ok(Target::Map);
    }
    Err(fault(addr, len))
}

/// Copies `src` to program memory at `addr`, which resolved to `target`.
/// The packet region is rejected: the paper's design forbids direct packet
/// writes from seg6local programs.
fn store(
    state: &mut RunState,
    ctx: &mut [u8],
    maps: &ProgramMaps,
    (target, addr): (Target, u64),
    src: &[u8],
) -> Result<()> {
    match target {
        Target::Stack(off) => {
            state.dirty_stack_from(off);
            state.stack[off..off + src.len()].copy_from_slice(src);
        }
        Target::Ctx(off) => ctx[off..off + src.len()].copy_from_slice(src),
        Target::Packet(_) => {
            return Err(Error::runtime(0, "direct packet writes are not allowed; use a seg6 helper"))
        }
        Target::Map => maps.write(addr, src).ok_or_else(|| fault(addr, src.len()))?,
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Helper API
// ---------------------------------------------------------------------------

/// The view of the machine a helper function receives.
pub struct HelperApi<'r, 'a> {
    /// The run state (registers and stack).
    pub state: &'r mut RunState,
    /// The embedder-provided context, packet and environment.
    pub rc: &'r mut RunContext<'a>,
    /// The program's maps and their map-value regions.
    pub maps: &'r ProgramMaps,
}

impl<'r, 'a> HelperApi<'r, 'a> {
    /// Reads program-visible memory (stack, ctx, packet or map values) into
    /// a fresh allocation. Prefer [`HelperApi::read_into`] for per-packet
    /// reads.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = vec![0; len];
        self.read_into(addr, &mut out)?;
        Ok(out)
    }

    /// Copies program-visible memory into `buf` — the allocation-free read
    /// behind every load and every fixed-size helper parameter (addresses,
    /// table ids, map keys).
    pub fn read_into(&self, addr: u64, buf: &mut [u8]) -> Result<()> {
        let len = buf.len();
        match resolve(self.rc, addr, len)? {
            Target::Stack(off) => buf.copy_from_slice(&self.state.stack[off..off + len]),
            Target::Ctx(off) => buf.copy_from_slice(&self.rc.ctx[off..off + len]),
            Target::Packet(off) => buf.copy_from_slice(&self.rc.packet.bytes()[off..off + len]),
            Target::Map => self.maps.read(addr, buf).ok_or_else(|| fault(addr, len))?,
        }
        Ok(())
    }

    /// Copies `len` packet bytes from `pkt_off` straight into program
    /// memory at `dst` (the `bpf_skb_load_bytes` primitive), with no
    /// intermediate buffer.
    pub fn copy_from_packet(&mut self, pkt_off: usize, len: usize, dst: u64) -> Result<()> {
        if pkt_off.checked_add(len).is_none_or(|end| end > self.rc.packet.bytes().len()) {
            return Err(Error::runtime(0, "packet read out of bounds"));
        }
        let target = resolve(self.rc, dst, len)?;
        let RunContext { ctx, packet, .. } = &mut *self.rc;
        store(self.state, ctx, self.maps, (target, dst), &packet.bytes()[pkt_off..pkt_off + len])
    }

    /// Writes program-visible memory (everything but the packet).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<()> {
        let target = resolve(self.rc, addr, bytes.len())?;
        store(self.state, self.rc.ctx, self.maps, (target, addr), bytes)
    }

    /// Loads an unsigned little-endian value of the given width — the `LDX`
    /// path, which performs no heap allocation.
    pub(crate) fn load_scalar(&self, addr: u64, size: AccessSize) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.read_into(addr, &mut buf[..size.bytes()])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Stores the low bytes of `value` little-endian at `addr`.
    pub(crate) fn store_scalar(&mut self, addr: u64, size: AccessSize, value: u64) -> Result<()> {
        self.write_bytes(addr, &value.to_le_bytes()[..size.bytes()])
    }

    /// The packet bytes.
    pub fn packet(&self) -> &[u8] {
        self.rc.packet.bytes()
    }

    /// The packet, for editing in place — only helpers may modify
    /// packets, and only through this call: taking the access is what
    /// [`RunState::packet_written`] reports, so a helper that validates
    /// before it writes should take it only once it will write.
    pub fn packet_mut(&mut self) -> &mut dyn Packet {
        self.state.packet_written = true;
        &mut *self.rc.packet
    }

    /// The context structure bytes.
    pub fn ctx(&self) -> &[u8] {
        self.rc.ctx
    }

    /// The embedder environment.
    pub fn env(&mut self) -> &mut dyn VmEnv {
        self.rc.env
    }

    /// The embedder environment downcast to `E`, with the packet and the
    /// context beside it: a helper that needs its environment and the
    /// packet together takes them here, with one downcast for the call.
    /// `None` if the environment is not an `E`.
    pub fn parts<E: Any>(&mut self) -> Option<HelperParts<'_, E>> {
        let RunContext { ctx, packet, env } = &mut *self.rc;
        Some(HelperParts {
            env: env.as_any_mut().downcast_mut::<E>()?,
            ctx,
            packet: &mut **packet,
            packet_written: &mut self.state.packet_written,
        })
    }

    /// Resolves an opaque map pointer (produced by a pseudo-map-fd `lddw`)
    /// to the attached map — a borrow of the program's own handle, which
    /// outlives the call, so a helper takes no reference count per call.
    pub fn map_by_ptr(&self, ptr: u64) -> Result<&'r MapHandle> {
        let fd = fd_from_map_ptr(ptr).ok_or_else(|| Error::Helper("argument is not a map pointer".into()))?;
        self.maps.get(fd).ok_or_else(|| Error::Helper(format!("map fd {fd} not attached to this program")))
    }
}

/// What [`HelperApi::parts`] splits off for a helper: its environment,
/// downcast, and the packet and context it may edit.
pub struct HelperParts<'p, E> {
    /// The embedder environment.
    pub env: &'p mut E,
    /// The context structure.
    pub ctx: &'p mut [u8],
    packet: &'p mut dyn Packet,
    packet_written: &'p mut bool,
}

impl<E> HelperParts<'_, E> {
    /// The packet bytes.
    pub fn packet(&self) -> &[u8] {
        self.packet.bytes()
    }

    /// The packet, for editing in place: as [`HelperApi::packet_mut`],
    /// taking the access is what [`RunState::packet_written`] reports.
    pub fn packet_mut(&mut self) -> &mut dyn Packet {
        *self.packet_written = true;
        &mut *self.packet
    }
}

// ---------------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------------

/// One ALU step with the BPF semantics. Inlined: it is the interpreter's
/// per-instruction arithmetic, and the verifier's constant folding is its
/// second caller.
#[inline(always)]
pub(crate) fn alu_compute(op: u8, is64: bool, dst: u64, srcv: u64, pc: usize) -> Result<u64> {
    let value = match op {
        alu::ADD => dst.wrapping_add(srcv),
        alu::SUB => dst.wrapping_sub(srcv),
        alu::MUL => dst.wrapping_mul(srcv),
        alu::DIV => {
            if (is64 && srcv == 0) || (!is64 && srcv as u32 == 0) {
                0
            } else if is64 {
                dst / srcv
            } else {
                u64::from((dst as u32) / (srcv as u32))
            }
        }
        alu::MOD => {
            if (is64 && srcv == 0) || (!is64 && srcv as u32 == 0) {
                dst
            } else if is64 {
                dst % srcv
            } else {
                u64::from((dst as u32) % (srcv as u32))
            }
        }
        alu::OR => dst | srcv,
        alu::AND => dst & srcv,
        alu::XOR => dst ^ srcv,
        alu::LSH => {
            if is64 {
                dst.wrapping_shl(srcv as u32)
            } else {
                u64::from((dst as u32).wrapping_shl(srcv as u32))
            }
        }
        alu::RSH => {
            if is64 {
                dst.wrapping_shr(srcv as u32)
            } else {
                u64::from((dst as u32).wrapping_shr(srcv as u32))
            }
        }
        alu::ARSH => {
            if is64 {
                (dst as i64).wrapping_shr(srcv as u32) as u64
            } else {
                u64::from(((dst as i32).wrapping_shr(srcv as u32)) as u32)
            }
        }
        alu::MOV => srcv,
        _ => return Err(Error::runtime(pc, format!("unsupported ALU op 0x{op:x}"))),
    };
    Ok(if is64 { value } else { u64::from(value as u32) })
}

fn byte_swap(value: u64, bits: i32, to_be: bool, pc: usize) -> Result<u64> {
    // On a little-endian VM, "to big endian" swaps bytes and "to little
    // endian" truncates.
    let swapped = match bits {
        16 => {
            if to_be {
                u64::from((value as u16).swap_bytes())
            } else {
                u64::from(value as u16)
            }
        }
        32 => {
            if to_be {
                u64::from((value as u32).swap_bytes())
            } else {
                u64::from(value as u32)
            }
        }
        64 => {
            if to_be {
                value.swap_bytes()
            } else {
                value
            }
        }
        _ => return Err(Error::runtime(pc, format!("unsupported byte swap width {bits}"))),
    };
    Ok(swapped)
}

/// Evaluates a jump condition.
pub fn jump_taken(op: u8, is64: bool, dst: u64, srcv: u64) -> bool {
    let (d, s, ds, ss) = if is64 {
        (dst, srcv, dst as i64, srcv as i64)
    } else {
        (u64::from(dst as u32), u64::from(srcv as u32), i64::from(dst as i32), i64::from(srcv as i32))
    };
    match op {
        jmp::JA => true,
        jmp::JEQ => d == s,
        jmp::JNE => d != s,
        jmp::JGT => d > s,
        jmp::JGE => d >= s,
        jmp::JLT => d < s,
        jmp::JLE => d <= s,
        jmp::JSET => d & s != 0,
        jmp::JSGT => ds > ss,
        jmp::JSGE => ds >= ss,
        jmp::JSLT => ds < ss,
        jmp::JSLE => ds <= ss,
        _ => false,
    }
}

/// Executes one instruction. `next` is the instruction that would follow in
/// program order (needed only by `lddw` to fetch its second slot). Helper
/// calls are not executed here: the interpreter dispatches every `CALL`
/// itself, through the program's load-time helper table.
pub fn execute_insn(
    state: &mut RunState,
    rc: &mut RunContext<'_>,
    maps: &ProgramMaps,
    insn: &Insn,
    next: Option<&Insn>,
    pc: usize,
) -> Result<Flow> {
    state.insn_executed += 1;
    if state.insn_executed > state.insn_budget {
        return Err(Error::runtime(pc, "instruction budget exceeded"));
    }
    let dst = usize::from(insn.dst);
    let srcr = usize::from(insn.src);
    if dst >= NUM_REGS || srcr >= NUM_REGS {
        return Err(Error::runtime(pc, "register index out of range"));
    }
    match insn.class() {
        class::ALU | class::ALU64 => {
            let is64 = insn.class() == class::ALU64;
            let op = insn.opcode & 0xf0;
            if op == alu::NEG {
                let value = if is64 {
                    (state.regs[dst] as i64).wrapping_neg() as u64
                } else {
                    u64::from((state.regs[dst] as i32).wrapping_neg() as u32)
                };
                state.regs[dst] = value;
            } else if op == alu::END {
                state.regs[dst] = byte_swap(state.regs[dst], insn.imm, insn.opcode & src::X != 0, pc)?;
            } else {
                let operand =
                    if insn.opcode & src::X != 0 { state.regs[srcr] } else { insn.imm as i64 as u64 };
                state.regs[dst] = alu_compute(op, is64, state.regs[dst], operand, pc)?;
            }
            Ok(Flow::Next)
        }
        class::LD => {
            if !insn.is_lddw() {
                return Err(Error::runtime(pc, "unsupported LD mode (only lddw is implemented)"));
            }
            let hi = next.ok_or_else(|| Error::runtime(pc, "lddw missing second slot"))?;
            let value = (u64::from(hi.imm as u32) << 32) | u64::from(insn.imm as u32);
            state.regs[dst] = value;
            Ok(Flow::SkipOne)
        }
        class::LDX => {
            let size = AccessSize::from_opcode(insn.opcode);
            let addr = state.regs[srcr].wrapping_add(insn.off as i64 as u64);
            let api = HelperApi { state: &mut *state, rc, maps };
            state.regs[dst] = api.load_scalar(addr, size).map_err(|e| relocate(e, pc))?;
            Ok(Flow::Next)
        }
        class::ST | class::STX => {
            let size = AccessSize::from_opcode(insn.opcode);
            let addr = state.regs[dst].wrapping_add(insn.off as i64 as u64);
            let value = if insn.class() == class::STX { state.regs[srcr] } else { insn.imm as i64 as u64 };
            HelperApi { state, rc, maps }.store_scalar(addr, size, value).map_err(|e| relocate(e, pc))?;
            Ok(Flow::Next)
        }
        class::JMP | class::JMP32 => {
            let is64 = insn.class() == class::JMP;
            let op = insn.opcode & 0xf0;
            match op {
                jmp::CALL => Err(Error::runtime(pc, "helper calls dispatch through the load-time table")),
                jmp::EXIT => Ok(Flow::Exit),
                jmp::JA => Ok(Flow::Branch(i64::from(insn.off))),
                _ => {
                    let operand =
                        if insn.opcode & src::X != 0 { state.regs[srcr] } else { insn.imm as i64 as u64 };
                    if jump_taken(op, is64, state.regs[dst], operand) {
                        Ok(Flow::Branch(i64::from(insn.off)))
                    } else {
                        Ok(Flow::Next)
                    }
                }
            }
        }
        other => Err(Error::runtime(pc, format!("unknown instruction class {other}"))),
    }
}

fn relocate(err: Error, pc: usize) -> Error {
    match err {
        Error::Runtime { message, .. } => Error::Runtime { insn: pc, message },
        other => other,
    }
}

/// Executes a loaded program on its selected execution tier
/// ([`LoadedProgram::exec_tier`]). This is the highest-level convenience
/// entry point; the dedicated [`crate::interp`] and [`crate::codegen`]
/// modules expose the engines separately. `helpers` is not consulted at run
/// time: every tier calls through the table the program was bound to at
/// load.
pub fn run_program(loaded: &LoadedProgram, helpers: &HelperRegistry, rc: &mut RunContext<'_>) -> Result<u64> {
    let mut state = RunState::new(rc.ctx.len());
    run_program_with_state(loaded, helpers, rc, loaded.exec_tier(), &mut state)
}

/// Like [`run_program`], but reuses a caller-owned [`RunState`] (resetting
/// it first) instead of allocating a fresh one, and takes the tier
/// explicitly — the per-packet entry point of the zero-allocation datapath.
/// As there, `helpers` is not consulted at run time.
/// Every tier's artifact was built at load time, so no branch of this
/// dispatch allocates. [`crate::program::ExecTier::Native`] falls back to
/// the interpreter on hosts without a native backend.
pub fn run_program_with_state(
    loaded: &LoadedProgram,
    _helpers: &HelperRegistry,
    rc: &mut RunContext<'_>,
    tier: crate::program::ExecTier,
    state: &mut RunState,
) -> Result<u64> {
    use crate::program::ExecTier;
    state.reset();
    match (tier, loaded.native()) {
        (ExecTier::Native, Some(native)) => crate::codegen::run(native, loaded, rc, state),
        _ => crate::interp::run_with_state(loaded, rc, state),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;

    fn state_and_ctx() -> (RunState, Vec<u8>, Vec<u8>) {
        (RunState::new(16), vec![0u8; 16], vec![0xaa; 32])
    }

    #[test]
    fn map_ptr_roundtrip() {
        assert_eq!(fd_from_map_ptr(map_ptr_value(7)), Some(7));
        assert_eq!(fd_from_map_ptr(0x1234), None);
        assert_eq!(fd_from_map_ptr(PKT_BASE), None);
    }

    #[test]
    fn stack_read_write_roundtrip() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &ProgramMaps::default() };
        let addr = STACK_BASE + 100;
        api.store_scalar(addr, AccessSize::Double, 0xdead_beef_1234_5678).unwrap();
        assert_eq!(api.load_scalar(addr, AccessSize::Double).unwrap(), 0xdead_beef_1234_5678);
        assert_eq!(api.load_scalar(addr, AccessSize::Byte).unwrap(), 0x78);
    }

    #[test]
    fn packet_is_read_only() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &ProgramMaps::default() };
        assert_eq!(api.load_scalar(PKT_BASE, AccessSize::Byte).unwrap(), 0xaa);
        assert!(api.store_scalar(PKT_BASE, AccessSize::Byte, 1).is_err());
    }

    #[test]
    fn out_of_bounds_accesses_fault() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &ProgramMaps::default() };
        assert!(api.load_scalar(PKT_BASE + 31, AccessSize::Word).is_err());
        assert!(api.load_scalar(STACK_BASE + STACK_SIZE as u64, AccessSize::Byte).is_err());
        assert!(api.load_scalar(0x42, AccessSize::Byte).is_err());
        assert!(api.store_scalar(CTX_BASE + 15, AccessSize::Word, 0).is_err());
    }

    #[test]
    fn map_value_regions_are_shared_with_the_map() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let map: MapHandle = crate::maps::ArrayMap::new(12, 2);
        let maps = ProgramMaps::new([(&4u32, &map)]).unwrap();
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
        let addr = maps.lookup(map_ptr_value(4), 1, || 0);
        assert_eq!(addr, MAP_VALUE_BASE + 16, "elements are 12 bytes rounded up to 16");
        api.store_scalar(addr, AccessSize::Word, 0x0102_0304).unwrap();
        assert_eq!(map.lookup(&1u32.to_ne_bytes()).unwrap()[..4], [4, 3, 2, 1]);
        assert_eq!(api.load_scalar(addr + 8, AccessSize::Word).unwrap(), 0);
        // The padding between two values, and the memory past the arena,
        // fault like any unmapped address.
        assert!(api.load_scalar(addr + 12, AccessSize::Byte).is_err());
        assert!(api.store_scalar(addr + 10, AccessSize::Word, 0).is_err());
        assert!(api.load_scalar(addr + 16, AccessSize::Byte).is_err());
        assert!(api.load_scalar(MAP_VALUE_BASE + MAP_VALUE_STRIDE, AccessSize::Byte).is_err());
    }

    #[test]
    fn alu_compute_basics() {
        assert_eq!(alu_compute(alu::ADD, true, 5, 7, 0).unwrap(), 12);
        assert_eq!(alu_compute(alu::SUB, true, 5, 7, 0).unwrap(), (5u64).wrapping_sub(7));
        assert_eq!(alu_compute(alu::SUB, false, 5, 7, 0).unwrap(), u64::from(5u32.wrapping_sub(7)));
        assert_eq!(alu_compute(alu::MUL, true, 3, 4, 0).unwrap(), 12);
        assert_eq!(alu_compute(alu::DIV, true, 10, 3, 0).unwrap(), 3);
        assert_eq!(alu_compute(alu::DIV, true, 10, 0, 0).unwrap(), 0);
        assert_eq!(alu_compute(alu::MOD, true, 10, 0, 0).unwrap(), 10);
        assert_eq!(alu_compute(alu::MOD, true, 10, 3, 0).unwrap(), 1);
        assert_eq!(alu_compute(alu::ARSH, true, (-8i64) as u64, 1, 0).unwrap(), (-4i64) as u64);
        assert_eq!(alu_compute(alu::MOV, false, 0, 0xffff_ffff_ffff_ffff, 0).unwrap(), 0xffff_ffff);
    }

    #[test]
    fn byte_swap_be16() {
        assert_eq!(byte_swap(0x1234, 16, true, 0).unwrap(), 0x3412);
        assert_eq!(byte_swap(0xaabb_ccdd, 32, true, 0).unwrap(), 0xddcc_bbaa);
        assert_eq!(byte_swap(0x1234_5678, 64, false, 0).unwrap(), 0x1234_5678);
        assert!(byte_swap(0, 8, true, 0).is_err());
    }

    #[test]
    fn jump_conditions() {
        assert!(jump_taken(jmp::JEQ, true, 5, 5));
        assert!(!jump_taken(jmp::JEQ, true, 5, 6));
        assert!(jump_taken(jmp::JNE, true, 5, 6));
        assert!(jump_taken(jmp::JGT, true, 6, 5));
        assert!(jump_taken(jmp::JSGT, true, 1, (-1i64) as u64));
        assert!(!jump_taken(jmp::JGT, true, 1, (-1i64) as u64));
        assert!(jump_taken(jmp::JSET, true, 0b1010, 0b0010));
        assert!(jump_taken(jmp::JSLT, true, (-5i64) as u64, 3));
        // 32-bit comparison ignores the upper half.
        assert!(jump_taken(jmp::JEQ, false, 0xffff_ffff_0000_0001, 1));
    }

    #[test]
    fn execute_simple_alu_and_exit() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let insn = Insn::mov64_imm(0, 41);
        assert_eq!(
            execute_insn(&mut state, &mut rc, &ProgramMaps::default(), &insn, None, 0).unwrap(),
            Flow::Next
        );
        let insn = Insn::alu64_imm(alu::ADD, 0, 1);
        execute_insn(&mut state, &mut rc, &ProgramMaps::default(), &insn, None, 1).unwrap();
        assert_eq!(state.regs[0], 42);
        let insn = Insn::exit();
        assert_eq!(
            execute_insn(&mut state, &mut rc, &ProgramMaps::default(), &insn, None, 2).unwrap(),
            Flow::Exit
        );
    }

    #[test]
    fn insn_budget_is_enforced() {
        let (mut state, mut ctx, mut pkt) = state_and_ctx();
        state.insn_budget = 2;
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let insn = Insn::mov64_imm(0, 0);
        assert!(execute_insn(&mut state, &mut rc, &ProgramMaps::default(), &insn, None, 0).is_ok());
        assert!(execute_insn(&mut state, &mut rc, &ProgramMaps::default(), &insn, None, 0).is_ok());
        assert!(execute_insn(&mut state, &mut rc, &ProgramMaps::default(), &insn, None, 0).is_err());
    }
}
