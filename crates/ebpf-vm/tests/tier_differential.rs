//! Differential fuzzing across the two execution tiers.
//!
//! A deterministic xorshift generator builds randomized, verifier-accepted
//! LWT seg6local programs and runs each through the interpreter and the
//! native x86-64 tier (where the host has one; elsewhere `Native`
//! transparently falls back to the interpreter, so the check is trivially
//! met). The native tier must produce the interpreter's exit value,
//! register file, stack image, context bytes, packet bytes and helper-call
//! sequence — including on the fault paths the out-of-bounds accesses
//! deliberately provoke.
//!
//! Three generators feed the harness:
//!
//! * [`generate`] — the general mix of ALU, stack, context, packet, helper
//!   and branch snippets.
//! * [`generate_pressure`] — register-pressure-heavy programs: all ten
//!   allocatable BPF registers carry long live chains, so one register
//!   always outlives the allocator's nine homes and stays frame-resident;
//!   the spill load/store paths run on nearly every instruction. A no-call
//!   variant exercises the caller-saved home pool, a call-heavy variant
//!   the callee-saved pool and the flush/reload protocol around
//!   trampolines.
//! * [`generate_map_dense`] — helper- and map-dense programs with real
//!   array maps attached, driving the verifier's `MapValue`/`MapLookup`
//!   facts, the direct map-value access path and the inline array-map
//!   lookup. One array's 12-byte values sit 16 bytes apart, so accesses
//!   land in the padding between values too; the per-CPU array has fewer
//!   CPUs than one environment's CPU id, which wraps. These run twice
//!   against one `RunState`, with the map state the first run left, and
//!   under both a plain recording environment and one that opts into the
//!   inline `ktime`/`cpu` fast paths via [`EnvSnapshot`].
//!
//! The generators keep the invariants the verifier cares about at every
//! snippet boundary: `r0`–`r7` hold scalars, `r8` holds the packet pointer,
//! `r9` holds the context pointer, and `r1`–`r5` are re-initialised after
//! each helper call. Branches only jump forward, and every join point sees
//! the same register typing — except one, on purpose:
//! [`emit_joined_lookup`] (map-dense only) reaches one `call
//! bpf_map_lookup_elem` from two paths, one with a map handle and a stack
//! key, the other with a scalar or another map's handle in `r1` and a
//! non-stack value in `r2`. The context byte [`RUN_BYTE`] picks the path
//! and differs between the two runs of a leg, so each path runs after the
//! other one has.
//!
//! Two of them also attack the verifier's 32-bit rules, each in about
//! one program in twelve: [`generate`] with a 32-bit ALU op on a pointer
//! or a "negative" 32-bit constant as a stack offset, and
//! [`generate_map_dense`] with a `jeq32` null check of a lookup's value.
//! Such a program is marked [`MUST_REJECT`]: it must fail verification,
//! and the harness fails if one verifies. Beside them, [`generate`] uses
//! 32-bit constants as packet offsets, which verify and run.
//!
//! Each test has an `#[ignore]`d `…_long` twin on 50 times the programs:
//! `cargo test --release -p ebpf-vm -- --ignored`.

use ebpf_vm::codegen;
use ebpf_vm::insn::{class, jmp, Insn};
use ebpf_vm::maps::{ArrayMap, Map, MapHandle, PerCpuArrayMap, UpdateFlags};
use ebpf_vm::program::{load, LoadedProgram, Program, ProgramType, PSEUDO_MAP_FD};
use ebpf_vm::vm::{
    map_ptr_value, run_program_with_state, EnvSnapshot, RunContext, RunState, VmEnv, MAP_VALUE_BASE,
    MAP_VALUE_STRIDE, PKT_BASE,
};
use ebpf_vm::{AccessFact, Error, ExecTier, HelperRegistry};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Number of verifier-accepted programs the general generator pushes
/// through all legs.
const PROGRAMS: usize = 1000;
/// Programs per specialised generator (pressure, map-dense).
const SPECIAL_PROGRAMS: usize = 120;
/// How many times the programs each `…_long` twin runs.
const LONG_FACTOR: usize = 50;
/// Generation attempts before giving up (the generators are tuned so nearly
/// every program verifies; this is a backstop, not a budget).
const MAX_ATTEMPTS_FACTOR: usize = 3;

const PACKET_LEN: usize = 150;
const CTX_LEN: usize = 64;
/// Context byte set to the run's index within a leg (0, then 1). No
/// generated store reaches it, so a branch on it takes one side on the
/// first run and the other side on the second.
const RUN_BYTE: usize = 60;

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

// ---------------------------------------------------------------------------
// Observable environments
// ---------------------------------------------------------------------------

/// An environment whose service calls the harness can compare across legs.
trait FuzzEnv: VmEnv + Default {
    fn log(&self) -> &[(u8, u64)];
}

/// Records every env service call. Does not implement
/// [`VmEnv::snapshot`], so the native tier keeps calling through the
/// trampoline and the full call sequence stays observable.
#[derive(Default)]
struct RecordingEnv {
    /// `(which, value)` per env service call, in order.
    log: Vec<(u8, u64)>,
    tick: u64,
}

impl VmEnv for RecordingEnv {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn ktime_ns(&mut self) -> u64 {
        self.tick += 1;
        let v = 0x4000 + self.tick * 7;
        self.log.push((0, v));
        v
    }

    fn cpu_id(&mut self) -> u32 {
        self.log.push((1, 3));
        3
    }

    fn prandom_u32(&mut self) -> u32 {
        self.tick += 1;
        let v = (self.tick as u32).wrapping_mul(0x9e37_79b9);
        self.log.push((2, u64::from(v)));
        v
    }
}

impl FuzzEnv for RecordingEnv {
    fn log(&self) -> &[(u8, u64)] {
        &self.log
    }
}

/// Opts into the native tier's inline fast paths: `ktime`/`cpu` are
/// invocation constants published through [`VmEnv::snapshot`] and are *not*
/// logged (the inlined code never calls the env, so logging them would make
/// the comparison diverge by design), while `prandom` mutates state and
/// stays an observable real call on every leg. A `Some` snapshot also lets
/// native code inline per-CPU array lookups.
#[derive(Default)]
struct InlineEnv {
    log: Vec<(u8, u64)>,
    tick: u64,
}

const INLINE_KTIME: u64 = 0x7000_1234;
const INLINE_CPU: u32 = 5;

impl VmEnv for InlineEnv {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn ktime_ns(&mut self) -> u64 {
        INLINE_KTIME
    }

    fn cpu_id(&mut self) -> u32 {
        INLINE_CPU
    }

    fn prandom_u32(&mut self) -> u32 {
        self.tick += 1;
        let v = (self.tick as u32).wrapping_mul(0x8541_7717);
        self.log.push((2, u64::from(v)));
        v
    }

    fn snapshot(&mut self) -> Option<EnvSnapshot> {
        Some(EnvSnapshot { ktime_ns: INLINE_KTIME, cpu_id: INLINE_CPU })
    }
}

impl FuzzEnv for InlineEnv {
    fn log(&self) -> &[(u8, u64)] {
        &self.log
    }
}

// ---------------------------------------------------------------------------
// Program generators
// ---------------------------------------------------------------------------

/// Stack slots the prologue initialises; loads are restricted to these so
/// every verifier path sees them written.
const WARM_SLOTS: [i32; 4] = [-8, -16, -24, -32];

fn emit_scalar_alu(out: &mut String, rng: &mut Rng) {
    let dst = rng.below(8);
    let wide = if rng.chance(70) { "64" } else { "32" };
    let ops = ["add", "sub", "mul", "div", "mod", "or", "and", "xor", "lsh", "rsh", "arsh", "mov"];
    let op = ops[rng.below(ops.len() as u64) as usize];
    if rng.chance(50) {
        let imm: i64 = match op {
            "lsh" | "rsh" | "arsh" => {
                if wide == "64" {
                    rng.below(64) as i64
                } else {
                    rng.below(32) as i64
                }
            }
            "div" | "mod" => 1 + rng.below(254) as i64,
            _ => (rng.next() as u32 as i64) - (i64::from(u32::MAX) / 2),
        };
        out.push_str(&format!("{op}{wide} r{dst}, {imm}\n"));
    } else {
        let src = rng.below(8);
        out.push_str(&format!("{op}{wide} r{dst}, r{src}\n"));
    }
}

fn emit_unary(out: &mut String, rng: &mut Rng) {
    let dst = rng.below(8);
    match rng.below(4) {
        0 => out.push_str(&format!("neg64 r{dst}\n")),
        1 => out.push_str(&format!("neg32 r{dst}\n")),
        2 => {
            let bits = [16, 32, 64][rng.below(3) as usize];
            out.push_str(&format!("be{bits} r{dst}\n"));
        }
        _ => {
            let bits = [16, 32, 64][rng.below(3) as usize];
            out.push_str(&format!("le{bits} r{dst}\n"));
        }
    }
}

fn emit_stack_op(out: &mut String, rng: &mut Rng) {
    let (sz, bytes) = [("b", 1), ("h", 2), ("w", 4), ("dw", 8)][rng.below(4) as usize];
    if rng.chance(50) {
        // Store anywhere in the first 64 bytes of the frame.
        let slot = -8 * (1 + rng.below(8) as i32);
        let off = slot + (rng.below((8 / bytes) as u64) as i32) * bytes;
        if rng.chance(70) {
            let src = rng.below(8);
            out.push_str(&format!("stx{sz} [r10{off}], r{src}\n"));
        } else {
            let imm = rng.next() as u32 as i64 % 1000;
            out.push_str(&format!("st{sz} [r10{off}], {imm}\n"));
        }
    } else {
        // Load only from the prologue-warmed slots.
        let slot = WARM_SLOTS[rng.below(WARM_SLOTS.len() as u64) as usize];
        let off = slot + (rng.below((8 / bytes) as u64) as i32) * bytes;
        let dst = rng.below(8);
        out.push_str(&format!("ldx{sz} r{dst}, [r10{off}]\n"));
    }
}

fn emit_ctx_op(out: &mut String, rng: &mut Rng, oob: bool) {
    if rng.chance(60) {
        // Scalar read of a metadata field (past the two pointer fields).
        let (sz, step) = if rng.chance(50) { ("w", 4u64) } else { ("dw", 8u64) };
        let off = if oob {
            // Past the 64-byte runtime context but inside the verifier's
            // static MAX_CTX_SIZE — faults at run time on every tier.
            CTX_LEN as u64 + rng.below(16) * step
        } else {
            16 + rng.below((CTX_LEN as u64 - 16) / step) * step
        };
        let dst = rng.below(8);
        out.push_str(&format!("ldx{sz} r{dst}, [r9+{off}]\n"));
    } else {
        // Write to mark / the cb scratch area.
        let offs = [24u64, 40, 44, 48, 52, 56];
        let off = offs[rng.below(offs.len() as u64) as usize];
        if rng.chance(60) {
            let src = rng.below(8);
            out.push_str(&format!("stxw [r9+{off}], r{src}\n"));
        } else {
            out.push_str(&format!("stw [r9+{off}], {}\n", rng.below(0xffff)));
        }
    }
}

fn emit_packet_load(out: &mut String, rng: &mut Rng, oob: bool) {
    let (sz, bytes) = [("b", 1u64), ("h", 2), ("w", 4), ("dw", 8)][rng.below(4) as usize];
    let dst = rng.below(8);
    if rng.chance(70) {
        let off = if oob { PACKET_LEN as u64 + rng.below(60) } else { rng.below(PACKET_LEN as u64 - bytes) };
        out.push_str(&format!("ldx{sz} r{dst}, [r8+{off}]\n"));
    } else {
        // Variable offset: mask a scalar, add it to a packet-pointer copy,
        // load through it, then re-scalarise the temporary.
        let idx = rng.below(8);
        out.push_str(&format!("and64 r{idx}, 63\n"));
        out.push_str("mov64 r3, r8\n");
        out.push_str(&format!("add64 r3, r{idx}\n"));
        out.push_str(&format!("ldx{sz} r{dst}, [r3+0]\n"));
        out.push_str(&format!("mov64 r3, {}\n", rng.below(256)));
    }
}

fn emit_helper_call(out: &mut String, rng: &mut Rng) {
    match rng.below(4) {
        0 => out.push_str("call 5\n"), // bpf_ktime_get_ns
        1 => out.push_str("call 7\n"), // bpf_get_prandom_u32
        2 => out.push_str("call 8\n"), // bpf_get_smp_processor_id
        _ => {
            // bpf_skb_load_bytes(ctx, off, fp-16, 8): copies packet bytes
            // into the stack through the helper path.
            out.push_str("mov64 r1, r9\n");
            out.push_str(&format!("mov64 r2, {}\n", rng.below(PACKET_LEN as u64 + 16)));
            out.push_str("mov64 r3, r10\n");
            out.push_str("add64 r3, -16\n");
            out.push_str("mov64 r4, 8\n");
            out.push_str("call 26\n");
        }
    }
    // Calls clobber r1-r5; restore the all-scalars invariant.
    for r in 1..=5 {
        out.push_str(&format!("mov64 r{r}, {}\n", rng.below(512)));
    }
}

fn emit_branch(out: &mut String, rng: &mut Rng, target: u64) {
    let ops = ["jeq", "jne", "jgt", "jge", "jlt", "jle", "jsgt", "jsge", "jslt", "jsle", "jset"];
    let op = ops[rng.below(ops.len() as u64) as usize];
    let wide = if rng.chance(75) { "" } else { "32" };
    let dst = rng.below(8);
    if rng.chance(50) {
        let imm = rng.below(1024) as i64 - 512;
        out.push_str(&format!("{op}{wide} r{dst}, {imm}, s{target}\n"));
    } else {
        let src = rng.below(8);
        out.push_str(&format!("{op}{wide} r{dst}, r{src}, s{target}\n"));
    }
}

/// Marks a snippet no sound verifier accepts: its program must be
/// refused, never run. The assembler strips it as a comment.
const MUST_REJECT: &str = "; must reject:";

/// The 32-bit widths the verifier must follow exactly, which the fuzz
/// did not reach before: a truncated pointer is no pointer, and a 32-bit
/// result is zero-extended. `reject` picks a snippet no sound verifier
/// accepts:
///
/// * 32-bit ALU on a pointer, then an access through the result;
/// * a "negative" 32-bit constant (`mov32`, or an `add32` result) as a
///   stack offset: zero-extended, it lies far past the stack.
///
/// Otherwise the snippet uses a 32-bit constant as a packet offset, which
/// is accepted and range-checked on every tier. (The third width rule,
/// the 32-bit null check, is in [`emit_map_lookup`].)
fn emit_width_snippet(out: &mut String, rng: &mut Rng, reject: bool) {
    let dst = rng.below(8);
    if reject && rng.chance(50) {
        let base = ["r8", "r9", "r10"][rng.below(3) as usize];
        out.push_str(&format!("{MUST_REJECT} 32-bit ALU on a pointer\n"));
        out.push_str(&format!("mov64 r3, {base}\n"));
        match rng.below(3) {
            0 => out.push_str("mov32 r3, r3\n"),
            1 => out.push_str(&format!("add32 r3, {}\n", rng.below(8))),
            _ => out.push_str(&format!("sub32 r3, {}\n", rng.below(8))),
        }
        out.push_str(&format!("ldxb r{dst}, [r3+0]\n"));
    } else if reject {
        out.push_str(&format!("{MUST_REJECT} zero-extended 32-bit offset past the stack\n"));
        if rng.chance(50) {
            out.push_str(&format!("mov32 r4, -{}\n", 8 * (1 + rng.below(4))));
        } else {
            out.push_str(&format!("mov64 r4, -{}\nadd32 r4, 8\n", 16 + 8 * rng.below(4)));
        }
        out.push_str("mov64 r3, r10\n");
        out.push_str("add64 r3, r4\n");
        out.push_str(&format!("ldxdw r{dst}, [r3+0]\n"));
    } else {
        out.push_str(&format!("mov32 r4, {}\n", rng.below(PACKET_LEN as u64 + 8)));
        out.push_str("mov64 r3, r8\n");
        out.push_str("add64 r3, r4\n");
        out.push_str(&format!("ldxb r{dst}, [r3+0]\n"));
    }
    out.push_str(&format!("mov64 r3, {}\n", rng.below(256)));
    out.push_str(&format!("mov64 r4, {}\n", rng.below(256)));
}

/// Shared prologue: pin the pointer registers, scalarise everything else,
/// warm the stack slots loads are allowed to touch.
fn emit_prologue(s: &mut String, rng: &mut Rng) {
    s.push_str("mov64 r9, r1\n");
    s.push_str("ldxdw r8, [r9+0]\n");
    for r in 0..8 {
        s.push_str(&format!("mov64 r{r}, {}\n", rng.below(0xffff)));
    }
    for slot in WARM_SLOTS {
        s.push_str(&format!("stxdw [r10{slot}], r{}\n", rng.below(8)));
    }
}

/// Generates one program as assembler text. `oob` sprinkles out-of-bounds
/// context/packet accesses so the fault paths get differential coverage.
fn generate(rng: &mut Rng) -> String {
    let oob = rng.chance(4);
    // One program in twelve carries one snippet no verifier may accept.
    let reject_at = if rng.chance(8) { Some(rng.below(6)) } else { None };
    let mut s = String::new();
    emit_prologue(&mut s, rng);
    let snippets = 6 + rng.below(6);
    for i in 0..snippets {
        s.push_str(&format!("s{i}:\n"));
        if reject_at == Some(i) || rng.chance(10) {
            emit_width_snippet(&mut s, rng, reject_at == Some(i));
        }
        for _ in 0..(2 + rng.below(5)) {
            let kind = rng.below(100);
            let oob_here = oob && rng.chance(30);
            match kind {
                0..=34 => emit_scalar_alu(&mut s, rng),
                35..=44 => emit_unary(&mut s, rng),
                45..=59 => emit_stack_op(&mut s, rng),
                60..=71 => emit_ctx_op(&mut s, rng, oob_here),
                72..=84 => emit_packet_load(&mut s, rng, oob_here),
                85..=92 => emit_helper_call(&mut s, rng),
                _ => s.push_str(&format!("lddw r{}, 0x{:x}\n", rng.below(8), rng.next())),
            }
        }
        if i + 1 < snippets && rng.chance(60) {
            let target = i + 1 + rng.below(snippets - i - 1);
            emit_branch(&mut s, rng, target);
        }
    }
    s.push_str(&format!("s{snippets}:\n"));
    // Fold a couple of registers into the exit value so divergence in any
    // of them shows up even without the register-file comparison.
    s.push_str("mov64 r0, r6\n");
    s.push_str("xor64 r0, r7\n");
    s.push_str("exit\n");
    s
}

/// Register-pressure-heavy generator. Every snippet chains all eight
/// scalar registers through each other, so — together with the two pinned
/// pointer registers — ten values stay live from the prologue to the exit
/// fold and the allocator must leave one of them frame-resident.
/// `with_calls` selects the call-heavy variant (callee-saved home pool,
/// flush/reload around trampolines, fault sites with register-resident
/// state) versus the pure ALU/stack/ctx variant (caller-saved pool, no
/// trampolines at all).
fn generate_pressure(rng: &mut Rng, with_calls: bool) -> String {
    let oob = with_calls && rng.chance(15);
    let mut s = String::new();
    emit_prologue(&mut s, rng);
    let snippets = 4 + rng.below(4);
    for i in 0..snippets {
        s.push_str(&format!("s{i}:\n"));
        // The live chains: touch every scalar register, reading another.
        for r in 0..8u64 {
            let other = (r + 1 + rng.below(7)) % 8;
            let ops = ["add", "xor", "sub", "or"];
            let op = ops[rng.below(ops.len() as u64) as usize];
            let wide = if rng.chance(70) { "64" } else { "32" };
            s.push_str(&format!("{op}{wide} r{r}, r{other}\n"));
        }
        for _ in 0..(1 + rng.below(3)) {
            let kind = rng.below(100);
            let oob_here = oob && rng.chance(30);
            if with_calls {
                match kind {
                    0..=29 => emit_scalar_alu(&mut s, rng),
                    30..=49 => emit_stack_op(&mut s, rng),
                    50..=64 => emit_ctx_op(&mut s, rng, oob_here),
                    65..=79 => emit_packet_load(&mut s, rng, oob_here),
                    _ => emit_helper_call(&mut s, rng),
                }
            } else {
                match kind {
                    0..=39 => emit_scalar_alu(&mut s, rng),
                    40..=69 => emit_stack_op(&mut s, rng),
                    70..=84 => emit_ctx_op(&mut s, rng, false),
                    _ => emit_unary(&mut s, rng),
                }
            }
        }
        if i + 1 < snippets && rng.chance(50) {
            let target = i + 1 + rng.below(snippets - i - 1);
            emit_branch(&mut s, rng, target);
        }
    }
    s.push_str(&format!("s{snippets}:\n"));
    // Fold every chained register into the exit value: a wrong spill slot
    // or a stale home shows up in r0 even before the register comparison.
    s.push_str("mov64 r0, r1\n");
    for r in 2..8 {
        s.push_str(&format!("xor64 r0, r{r}\n"));
    }
    s.push_str("exit\n");
    s
}

/// Map fds the dense generator references, with their value sizes;
/// attached by [`fuzz_maps`]. Fd 3 is the per-CPU array; fd 4's values are
/// not a multiple of 8 bytes, so 4 bytes of padding follow each.
const MAP_FDS: [u32; 4] = [1, 2, 3, 4];
const MAP_VALUE_SIZES: [i64; 4] = [64, 64, 64, 12];
const MAP_ENTRIES: u64 = 4;
/// CPUs of the per-CPU array: [`RecordingEnv`]'s CPU id is in range,
/// [`InlineEnv`]'s wraps.
const MAP_CPUS: u32 = 4;

/// `lddw` immediates with this pattern in the upper half are rewritten into
/// pseudo-map-fd loads after assembly (the assembler has no map syntax).
const MAP_SENTINEL: u64 = 0x6d70_c0de_0000_0000;

fn patch_map_loads(insns: &mut [Insn]) {
    let mut i = 0;
    while i < insns.len() {
        if insns[i].is_lddw() {
            if i + 1 < insns.len() {
                let value = (insns[i].imm as u32 as u64) | ((insns[i + 1].imm as u32 as u64) << 32);
                if value & 0xffff_ffff_0000_0000 == MAP_SENTINEL {
                    let fd = (value & 0xffff) as u32;
                    insns[i].src = PSEUDO_MAP_FD;
                    insns[i].imm = fd as i32;
                    insns[i + 1].imm = (map_ptr_value(fd) >> 32) as i32;
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
}

/// One `bpf_map_lookup_elem` sequence: store a key on the stack, load the
/// map pointer, call, null-check, and hammer the value with loads and
/// stores on the hit path. Keys sometimes exceed `max_entries` so the null
/// path runs too. `label` disambiguates the inner join labels.
fn emit_map_lookup(out: &mut String, rng: &mut Rng, label: usize, null_check32: bool) {
    let which = rng.below(MAP_FDS.len() as u64) as usize;
    let (fd, value_size) = (MAP_FDS[which], MAP_VALUE_SIZES[which]);
    let slot = -8 * (1 + rng.below(4) as i32);
    let key = rng.below(MAP_ENTRIES + 2);
    out.push_str(&format!("stw [r10{slot}], {key}\n"));
    out.push_str(&format!("lddw r1, 0x{:x}\n", MAP_SENTINEL | u64::from(fd)));
    out.push_str("mov64 r2, r10\n");
    out.push_str(&format!("add64 r2, {slot}\n"));
    out.push_str("call 1\n");
    if null_check32 {
        // A value pointer may have zero low 32 bits: `jeq32` proves
        // nothing about NULL, so the loads below are unchecked.
        out.push_str(&format!("{MUST_REJECT} 32-bit null check\n"));
        out.push_str(&format!("jeq32 r0, 0, m{label}\n"));
    } else {
        out.push_str(&format!("jeq r0, 0, m{label}\n"));
    }
    for _ in 0..(1 + rng.below(3)) {
        let (sz, bytes) = [("b", 1i64), ("h", 2), ("w", 4), ("dw", 8)][rng.below(4) as usize];
        // Now and then reach into the padding behind a value: every tier
        // must fault there.
        let span = if value_size % 8 != 0 && rng.chance(15) { (value_size + 7) / 8 * 8 } else { value_size };
        let off = rng.below(((span - bytes) / bytes + 1) as u64) as i64 * bytes;
        if rng.chance(60) {
            // Not into r0 (it is the value pointer) or r1-r5 reads later —
            // loads may target r1-r7, they only write.
            let dst = 1 + rng.below(7);
            out.push_str(&format!("ldx{sz} r{dst}, [r0+{off}]\n"));
        } else {
            // Store sources must have survived the call: only r6/r7 are
            // still initialised here (the call clobbered r1-r5).
            let src = 6 + rng.below(2);
            out.push_str(&format!("stx{sz} [r0+{off}], r{src}\n"));
        }
    }
    out.push_str(&format!("m{label}:\n"));
    rescalarise_after_lookup(out, rng);
}

/// Both paths out of a lookup reach its null-check join with different r0
/// types (value pointer vs the null scalar); re-scalarise it, and restore
/// the r1-r5 invariant the call clobbered.
fn rescalarise_after_lookup(out: &mut String, rng: &mut Rng) {
    out.push_str(&format!("mov64 r0, {}\n", rng.below(512)));
    for r in 1..=5 {
        out.push_str(&format!("mov64 r{r}, {}\n", rng.below(512)));
    }
}

/// One `call bpf_map_lookup_elem` that two forward paths reach, picked by
/// [`RUN_BYTE`]. One path carries a map handle and a stack key; the other
/// carries a scalar or another map's handle in `r1`, and a constant, a
/// context pointer or a packet pointer in `r2`. The verifier must not hand
/// the native tier a lookup fact that only the first path earned: the
/// cache one run fills is then read on the other path's run.
fn emit_joined_lookup(out: &mut String, rng: &mut Rng, label: usize) {
    let fd = rng.below(MAP_FDS.len() as u64) as usize;
    let slot = -8 * (1 + rng.below(4) as i32);
    let branch = if rng.chance(50) { "jne" } else { "jeq" };
    out.push_str(&format!("ldxb r1, [r9+{RUN_BYTE}]\n"));
    out.push_str(&format!("{branch} r1, 0, pb{label}\n"));
    out.push_str(&format!("stw [r10{slot}], {}\n", rng.below(MAP_ENTRIES + 2)));
    out.push_str(&format!("lddw r1, 0x{:x}\n", MAP_SENTINEL | u64::from(MAP_FDS[fd])));
    out.push_str("mov64 r2, r10\n");
    out.push_str(&format!("add64 r2, {slot}\n"));
    out.push_str(&format!("ja pj{label}\n"));
    out.push_str(&format!("pb{label}:\n"));
    if rng.chance(50) {
        out.push_str(&format!("mov64 r1, {}\n", rng.below(512)));
    } else {
        let other = MAP_FDS[(fd + 1 + rng.below(MAP_FDS.len() as u64 - 1) as usize) % MAP_FDS.len()];
        out.push_str(&format!("lddw r1, 0x{:x}\n", MAP_SENTINEL | u64::from(other)));
    }
    match rng.below(3) {
        0 => out.push_str(&format!("lddw r2, 0x{:x}\n", rng.next())),
        1 => out.push_str(&format!("mov64 r2, r9\nadd64 r2, {RUN_BYTE}\n")),
        _ => out.push_str(&format!("mov64 r2, r8\nadd64 r2, {}\n", rng.below(PACKET_LEN as u64 - 4))),
    }
    out.push_str(&format!("pj{label}:\n"));
    out.push_str("call 1\n");
    // The value may belong to either map (or to none): count hits only.
    out.push_str(&format!("jeq r0, 0, m{label}\n"));
    out.push_str("add64 r6, 1\n");
    out.push_str(&format!("m{label}:\n"));
    rescalarise_after_lookup(out, rng);
}

/// Helper- and map-dense generator: roughly a third of the instruction
/// budget goes to `bpf_map_lookup_elem` sequences against attached array /
/// per-CPU array maps, and another chunk to the plain helpers, so the
/// trampoline, inline-helper, direct map-value and lookup-cache paths all
/// run hot.
fn generate_map_dense(rng: &mut Rng) -> String {
    let mut s = String::new();
    let mut label = 0usize;
    // One program in twelve checks one lookup for NULL with `jeq32`.
    let mut null_check32 = rng.chance(8);
    emit_prologue(&mut s, rng);
    let snippets = 4 + rng.below(4);
    for i in 0..snippets {
        s.push_str(&format!("s{i}:\n"));
        for _ in 0..(2 + rng.below(3)) {
            match rng.below(100) {
                0..=27 => {
                    emit_map_lookup(&mut s, rng, label, std::mem::take(&mut null_check32));
                    label += 1;
                }
                28..=34 => {
                    emit_joined_lookup(&mut s, rng, label);
                    label += 1;
                }
                35..=54 => emit_helper_call(&mut s, rng),
                55..=69 => emit_scalar_alu(&mut s, rng),
                70..=79 => emit_stack_op(&mut s, rng),
                80..=89 => emit_ctx_op(&mut s, rng, false),
                _ => emit_packet_load(&mut s, rng, false),
            }
        }
        if i + 1 < snippets && rng.chance(40) {
            let target = i + 1 + rng.below(snippets - i - 1);
            emit_branch(&mut s, rng, target);
        }
    }
    s.push_str(&format!("s{snippets}:\n"));
    s.push_str("mov64 r0, r6\n");
    s.push_str("xor64 r0, r7\n");
    s.push_str("exit\n");
    s
}

// ---------------------------------------------------------------------------
// Differential harness
// ---------------------------------------------------------------------------

fn fresh_ctx(run: usize) -> Vec<u8> {
    let mut ctx = vec![0u8; CTX_LEN];
    ctx[RUN_BYTE] = run as u8;
    ctx[0..8].copy_from_slice(&PKT_BASE.to_le_bytes());
    ctx[8..16].copy_from_slice(&(PKT_BASE + PACKET_LEN as u64).to_le_bytes());
    ctx[16..20].copy_from_slice(&(PACKET_LEN as u32).to_le_bytes());
    ctx[20..24].copy_from_slice(&0x86ddu32.to_le_bytes());
    ctx
}

fn fresh_packet() -> Vec<u8> {
    (0..PACKET_LEN).map(|i| (i as u8).wrapping_mul(7).wrapping_add(13)).collect()
}

/// Everything one run produced, in comparable form.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    /// `Ok(exit)` or the faulting instruction index. Fast-path native
    /// faults synthesise their own message, so errors compare by location
    /// and variant, not text.
    result: Result<u64, (u8, usize)>,
    regs: [u64; 11],
    stack: Vec<u8>,
    ctx: Vec<u8>,
    packet: Vec<u8>,
    helper_log: Vec<(u8, u64)>,
    /// Concatenated contents of every attached map (fd order, key order,
    /// every CPU slot) — map stores must land identically on every leg.
    maps: Vec<u8>,
}

/// The maps a generated program may reference: every handle by fd, and
/// the per-CPU arrays again by type, so that each CPU's slot can be seeded
/// on its own.
#[derive(Default)]
struct FuzzMaps {
    by_fd: HashMap<u32, MapHandle>,
    per_cpu: Vec<(u32, Arc<PerCpuArrayMap>)>,
}

/// The dense generator's maps: [`MAP_FDS`], fd 3 per-CPU.
fn fuzz_maps() -> FuzzMaps {
    let mut maps = FuzzMaps::default();
    for (&fd, &value_size) in MAP_FDS.iter().zip(&MAP_VALUE_SIZES) {
        let map: MapHandle = if fd == 3 {
            let per_cpu = PerCpuArrayMap::new(value_size as usize, MAP_ENTRIES as usize, MAP_CPUS);
            maps.per_cpu.push((fd, Arc::clone(&per_cpu)));
            per_cpu
        } else {
            ArrayMap::new(value_size as usize, MAP_ENTRIES as usize)
        };
        maps.by_fd.insert(fd, map);
    }
    maps
}

/// The deterministic pattern [`reset_maps`] seeds `fd`'s value for `key`
/// on `cpu` with.
fn seed_value(fd: u32, key: &[u8], cpu: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (fd as u8)
                .wrapping_mul(37)
                .wrapping_add(key[0].wrapping_mul(11))
                .wrapping_add(cpu as u8)
                .wrapping_add(i as u8)
        })
        .collect()
}

/// Re-seeds every map value to a deterministic per-entry pattern, so each
/// leg starts from identical map state no matter what the previous leg
/// stored. Values persist *within* one leg's repeated runs, like
/// consecutive packets sharing a datapath map.
fn reset_maps(maps: &FuzzMaps) {
    for (&fd, map) in &maps.by_fd {
        for key in map.keys() {
            let value = seed_value(fd, &key, 0, map.value_size());
            map.update(&key, &value, UpdateFlags::Any).expect("array entries always exist");
        }
    }
    for (fd, map) in &maps.per_cpu {
        for key in map.keys() {
            for cpu in 0..map.num_cpus() {
                let value = seed_value(*fd, &key, cpu, map.value_size());
                map.update_cpu(&key, cpu, &value).expect("array entries always exist");
            }
        }
    }
}

/// Snapshot of every attached map's contents, in a stable order.
fn map_image(maps: &FuzzMaps) -> Vec<u8> {
    let mut fds: Vec<u32> = maps.by_fd.keys().copied().collect();
    fds.sort_unstable();
    let mut out = Vec::new();
    for fd in fds {
        let map = &maps.by_fd[&fd];
        let mut keys = map.keys();
        keys.sort();
        for key in keys {
            if let Some(value) = map.lookup(&key) {
                out.extend_from_slice(&value);
            }
        }
    }
    out
}

fn error_key(e: &Error) -> (u8, usize) {
    match e {
        Error::Runtime { insn, .. } => (0, *insn),
        Error::Helper(_) => (1, 0),
        Error::Map(_) => (2, 0),
        other => panic!("unexpected error class from a verified program: {other:?}"),
    }
}

fn snapshot_run<E: FuzzEnv>(
    state: &RunState,
    env: &E,
    result: Result<u64, Error>,
    ctx: Vec<u8>,
    packet: Vec<u8>,
    maps: &FuzzMaps,
) -> Observation {
    Observation {
        result: result.map_err(|e| error_key(&e)),
        regs: state.regs,
        stack: state.stack().to_vec(),
        ctx,
        packet,
        helper_log: env.log().to_vec(),
        maps: map_image(maps),
    }
}

/// Runs a program `runs` times through one tier against a single
/// [`RunState`] (fresh ctx/packet/env per run), exactly like consecutive
/// packets on the datapath.
fn observe_tier<E: FuzzEnv>(
    prog: &Arc<LoadedProgram>,
    helpers: &HelperRegistry,
    maps: &FuzzMaps,
    tier: ExecTier,
    runs: usize,
) -> Vec<Observation> {
    reset_maps(maps);
    let mut state = RunState::new(CTX_LEN);
    (0..runs)
        .map(|run| {
            let mut ctx = fresh_ctx(run);
            let mut packet = fresh_packet();
            let mut env = E::default();
            let result = {
                let mut rc = RunContext::new(&mut ctx, &mut packet, &mut env);
                run_program_with_state(prog, helpers, &mut rc, tier, &mut state)
            };
            snapshot_run(&state, &env, result, ctx, packet, maps)
        })
        .collect()
}

/// Runs one program through both tiers under environment `E` and asserts
/// the native tier matches the interpreter. Returns whether the reference
/// run faulted.
fn check_parity<E: FuzzEnv>(
    prog: &Arc<LoadedProgram>,
    helpers: &HelperRegistry,
    maps: &FuzzMaps,
    source: &str,
    runs: usize,
) -> bool {
    let reference = observe_tier::<E>(prog, helpers, maps, ExecTier::Interp, runs);
    let native = observe_tier::<E>(prog, helpers, maps, ExecTier::Native, runs);
    assert_eq!(native, reference, "the native tier diverged from the interpreter on:\n{source}");
    reference[0].result.is_err()
}

fn load_generated(
    source: &str,
    maps: &HashMap<u32, MapHandle>,
    helpers: &HelperRegistry,
) -> Option<Arc<LoadedProgram>> {
    let mut insns = match ebpf_vm::asm::assemble(source) {
        Ok(insns) => insns,
        Err(e) => panic!("generator produced unassemblable source: {e}\n{source}"),
    };
    patch_map_loads(&mut insns);
    let prog = Program::new("fuzz", ProgramType::LwtSeg6Local, insns);
    // A rare reject (e.g. a shift chain the tracker widens into a
    // pointer-looking value) just costs one attempt.
    match load(prog, maps, helpers) {
        Ok(_) if source.contains(MUST_REJECT) => {
            panic!("the verifier accepted a program it must refuse:\n{source}")
        }
        Ok(l) => Some(l),
        Err(e) => {
            if std::env::var("FUZZ_DEBUG_REJECTS").is_ok() {
                eprintln!("REJECT: {e}");
            }
            None
        }
    }
}

#[test]
fn all_tiers_agree_on_randomized_programs() {
    randomized_round(PROGRAMS);
}

/// The same fuzz on 50 times the programs.
#[test]
#[ignore = "long fuzz run: cargo test --release -- --ignored"]
fn all_tiers_agree_on_randomized_programs_long() {
    randomized_round(LONG_FACTOR * PROGRAMS);
}

fn randomized_round(programs: usize) {
    let helpers = HelperRegistry::with_base_helpers();
    let maps = FuzzMaps::default();
    let mut accepted = 0usize;
    let mut faulted = 0usize;
    let mut attempts = 0usize;
    let (mut refused, mut packet_offsets32) = (0usize, 0usize);
    let mut rng = Rng::new(0x5eed_cafe);
    while accepted < programs {
        attempts += 1;
        assert!(
            attempts <= MAX_ATTEMPTS_FACTOR * programs,
            "generator accept rate collapsed: {accepted}/{attempts} verified"
        );
        let source = generate(&mut rng);
        let Some(loaded) = load_generated(&source, &maps.by_fd, &helpers) else {
            refused += usize::from(source.contains(MUST_REJECT));
            continue;
        };
        accepted += 1;
        packet_offsets32 += usize::from(source.contains("mov32 r4,"));
        if check_parity::<RecordingEnv>(&loaded, &helpers, &maps, &source, 1) {
            faulted += 1;
        }
    }
    // The OOB sprinkling must actually exercise the fault paths, and the
    // 32-bit width snippets must reach the verifier both ways.
    assert!(faulted > 0, "no generated program faulted; fault-path parity went untested");
    assert!(
        refused > 0 && packet_offsets32 > 0,
        "32-bit width snippets: {refused} refused, {packet_offsets32} run"
    );
    eprintln!(
        "tier differential: {accepted} programs ({attempts} attempts, {faulted} faulting, \
         {packet_offsets32} with 32-bit packet offsets; {refused} width attacks refused) agreed \
         across {:?}",
        ExecTier::ALL
    );
}

#[test]
fn register_pressure_programs_agree_and_spill() {
    pressure_round(SPECIAL_PROGRAMS);
}

/// The same fuzz on 50 times the programs.
#[test]
#[ignore = "long fuzz run: cargo test --release -- --ignored"]
fn register_pressure_programs_agree_and_spill_long() {
    pressure_round(LONG_FACTOR * SPECIAL_PROGRAMS);
}

fn pressure_round(programs: usize) {
    let helpers = HelperRegistry::with_base_helpers();
    let maps = FuzzMaps::default();
    let mut accepted = 0usize;
    let mut faulted = 0usize;
    let mut attempts = 0usize;
    let mut rng = Rng::new(0x1337_5b11);
    while accepted < programs {
        attempts += 1;
        assert!(
            attempts <= MAX_ATTEMPTS_FACTOR * programs,
            "pressure generator accept rate collapsed: {accepted}/{attempts} verified"
        );
        let with_calls = accepted.is_multiple_of(2);
        let source = generate_pressure(&mut rng, with_calls);
        let Some(loaded) = load_generated(&source, &maps.by_fd, &helpers) else { continue };
        accepted += 1;
        if let Some(native) = loaded.native() {
            // Ten live registers against nine homes: exactly one register
            // must have stayed frame-resident, so the parity runs below
            // exercise the spill paths on every program.
            let debug = native.debug_info();
            assert_eq!(
                debug.spills, 1,
                "pressure program did not spill (homes {:?}):\n{source}",
                debug.assignments
            );
        }
        if check_parity::<RecordingEnv>(&loaded, &helpers, &maps, &source, 1) {
            faulted += 1;
        }
    }
    assert!(faulted > 0, "no pressure program faulted; spilled fault paths went untested");
    eprintln!(
        "pressure differential: {accepted} programs ({attempts} attempts, {faulted} faulting) \
         agreed, all with one spilled register"
    );
}

#[test]
fn helper_and_map_dense_programs_agree() {
    map_dense_round(SPECIAL_PROGRAMS);
}

/// The same fuzz on 50 times the programs.
#[test]
#[ignore = "long fuzz run: cargo test --release -- --ignored"]
fn helper_and_map_dense_programs_agree_long() {
    map_dense_round(LONG_FACTOR * SPECIAL_PROGRAMS);
}

fn map_dense_round(programs: usize) {
    let helpers = HelperRegistry::with_base_helpers();
    let maps = fuzz_maps();
    let mut accepted = 0usize;
    let mut attempts = 0usize;
    let mut with_lookups = 0usize;
    let mut refused = 0usize;
    let mut rng = Rng::new(0xdeed_beef);
    while accepted < programs {
        attempts += 1;
        assert!(
            attempts <= MAX_ATTEMPTS_FACTOR * programs,
            "map-dense generator accept rate collapsed: {accepted}/{attempts} verified"
        );
        let source = generate_map_dense(&mut rng);
        let Some(loaded) = load_generated(&source, &maps.by_fd, &helpers) else {
            refused += usize::from(source.contains(MUST_REJECT));
            continue;
        };
        accepted += 1;
        if let Some(native) = loaded.native() {
            // Every inlined helper site past the ktime/cpu ones is an
            // inlined lookup.
            let environment_reads = loaded
                .program
                .insns
                .iter()
                .filter(|insn| insn.opcode == class::JMP | jmp::CALL && matches!(insn.imm, 5 | 8))
                .count();
            if native.debug_info().inlined_helpers as usize > environment_reads {
                with_lookups += 1;
            }
        }
        // Two runs per leg against one state, the second on the map state
        // the first left. The inline environment arms the per-CPU lookup
        // and the ktime/cpu fast paths; the recording environment keeps
        // every environment read an observable trampoline call.
        check_parity::<RecordingEnv>(&loaded, &helpers, &maps, &source, 2);
        check_parity::<InlineEnv>(&loaded, &helpers, &maps, &source, 2);
    }
    if codegen::supported() {
        assert!(
            with_lookups > programs / 2,
            "only {with_lookups}/{accepted} programs compiled inlined lookup sites"
        );
    }
    assert!(refused > 0, "no 32-bit null check reached the verifier");
    eprintln!(
        "map-dense differential: {accepted} programs ({attempts} attempts, {with_lookups} with \
         inlined lookup sites; {refused} 32-bit null checks refused) agreed across all tiers and \
         both environments"
    );
}

/// Pinned regression: one `call bpf_map_lookup_elem` reached from a path
/// with a map handle and a stack key in `r1`/`r2` (context byte 0 clear)
/// and from a path with scalars there (byte 0 set). The native tier
/// inlines a lookup as arithmetic on the map the `MapLookup` fact names,
/// so this site must get no fact: with one, the scalar path would look up
/// a map it does not hold.
#[test]
fn a_lookup_reached_without_a_map_handle_gets_no_lookup_fact() {
    let source = format!(
        "ldxb r3, [r1+0]\n\
         jne r3, 0, scalars\n\
         stw [r10-4], 0\n\
         lddw r1, 0x{:x}\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         ja join\n\
         scalars:\n\
         mov64 r1, 7\n\
         lddw r2, 0x414141414141\n\
         join:\n\
         call 1\n\
         jeq r0, 0, out\n\
         mov64 r0, 1\n\
         out:\n\
         exit\n",
        MAP_SENTINEL | 1
    );
    let helpers = HelperRegistry::with_base_helpers();
    let mut maps: HashMap<u32, MapHandle> = HashMap::new();
    maps.insert(1, ArrayMap::new(8, 4));
    let loaded = load_generated(&source, &maps, &helpers).expect("the probe verifies");
    let call =
        loaded.program.insns.iter().position(|insn| insn.opcode == class::JMP | jmp::CALL).expect("one call");
    assert_eq!(loaded.access_facts().get(call), AccessFact::Other);

    // Each path runs after the other.
    let results = |tier| {
        let mut state = RunState::new(CTX_LEN);
        [0u8, 1, 0, 1].map(|path| {
            let mut ctx = vec![0u8; CTX_LEN];
            ctx[0] = path;
            let mut packet = fresh_packet();
            let mut env = InlineEnv::default();
            let mut rc = RunContext::new(&mut ctx, &mut packet, &mut env);
            run_program_with_state(&loaded, &helpers, &mut rc, tier, &mut state).map_err(|e| error_key(&e))
        })
    };
    let reference = results(ExecTier::Interp);
    assert_eq!(reference, [Ok(1), Ok(0), Ok(1), Ok(0)]);
    assert_eq!(results(ExecTier::Native), reference);
}

/// Runs `source` on `tier` once per context in `runs`, all against one
/// [`RunState`], with `maps` attached: the results, faults by instruction.
fn run_pinned<E: FuzzEnv>(
    source: &str,
    maps: &HashMap<u32, MapHandle>,
    tier: ExecTier,
    runs: impl IntoIterator<Item = Vec<u8>>,
) -> Vec<Result<u64, (u8, usize)>> {
    let helpers = HelperRegistry::with_base_helpers();
    let loaded = load_generated(source, maps, &helpers).expect("the pinned program verifies");
    let mut state = RunState::new(CTX_LEN);
    runs.into_iter()
        .map(|mut ctx| {
            let mut packet = fresh_packet();
            let mut env = E::default();
            let mut rc = RunContext::new(&mut ctx, &mut packet, &mut env);
            run_program_with_state(&loaded, &helpers, &mut rc, tier, &mut state).map_err(|e| error_key(&e))
        })
        .collect()
}

/// A context whose u32 at offset 24 is `key`.
fn key_ctx(key: u32) -> Vec<u8> {
    let mut ctx = vec![0u8; CTX_LEN];
    ctx[24..28].copy_from_slice(&key.to_le_bytes());
    ctx
}

/// Looks up the key at context offset 24 in map `fd`, leaving the value
/// pointer in `r0` and the key on the stack at `r10 - 4`.
fn lookup_ctx_key(fd: u32) -> String {
    format!(
        "ldxw r3, [r1+24]\n\
         stxw [r10-4], r3\n\
         lddw r1, 0x{:x}\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call 1\n",
        MAP_SENTINEL | u64::from(fd)
    )
}

/// Pinned regression: 5 000 distinct keys of an 8 192-entry array looked
/// up through one `RunState`, each run bumping its key's value and
/// returning 1. When every distinct value a state had looked up was a
/// region of that state, the 4 097th value's address was the map handles'
/// base, and the interpreter faulted from key 4 096 on while the native
/// tier went on.
#[test]
fn five_thousand_distinct_keys_look_up_through_one_state_on_every_tier() {
    const KEYS: u32 = 5_000;
    let map = ArrayMap::new(8, 8_192);
    let maps: HashMap<u32, MapHandle> = [(1, map.clone() as MapHandle)].into();
    let source = format!(
        "{}mov64 r6, 0\n\
         jeq r0, 0, out\n\
         ldxdw r3, [r0+0]\n\
         add64 r3, 1\n\
         stxdw [r0+0], r3\n\
         mov64 r6, 1\n\
         out:\n\
         mov64 r0, r6\n\
         exit\n",
        lookup_ctx_key(1)
    );
    for tier in ExecTier::ALL {
        let results = run_pinned::<InlineEnv>(&source, &maps, tier, (0..KEYS).map(key_ctx));
        for (key, result) in results.into_iter().enumerate() {
            assert_eq!(result, Ok(1), "{tier:?}, key {key}");
        }
    }
    for key in 0..KEYS {
        let value = map.lookup(&key.to_ne_bytes()).unwrap();
        assert_eq!(value, 2u64.to_le_bytes(), "key {key}: one bump per tier");
    }
}

/// The edges of the array layout, pinned on both tiers and both
/// environments: a 12-byte value reaches bytes 0..12 and faults on the
/// padding at 12..16; keys `max_entries` and `u32::MAX` look up NULL; two
/// lookups of one key return one address, `base + key × 16`; and a per-CPU
/// array with fewer CPUs than the environment's id wraps the id.
#[test]
fn array_layout_edges_agree_across_tiers() {
    fn both_envs(
        source: &str,
        maps: &HashMap<u32, MapHandle>,
        ctxs: &[Vec<u8>],
    ) -> Vec<Result<u64, (u8, usize)>> {
        let reference = run_pinned::<InlineEnv>(source, maps, ExecTier::Interp, ctxs.to_vec());
        for tier in ExecTier::ALL {
            assert_eq!(
                run_pinned::<InlineEnv>(source, maps, tier, ctxs.to_vec()),
                reference,
                "{tier:?}\n{source}"
            );
            assert_eq!(
                run_pinned::<RecordingEnv>(source, maps, tier, ctxs.to_vec()),
                reference,
                "{tier:?}\n{source}"
            );
        }
        reference
    }
    let padded = ArrayMap::new(12, 4);
    let per_cpu = PerCpuArrayMap::new(8, 2, 2);
    let maps: HashMap<u32, MapHandle> =
        [(1, padded.clone() as MapHandle), (2, per_cpu.clone() as MapHandle)].into();
    // Each program below references one map, which is therefore its
    // region 0.

    // Accesses at value offsets: in the value, or (partly) in the padding.
    // The access is the ninth instruction (the `lddw` takes two slots).
    for (access, faults) in [
        ("ldxw r0, [r0+8]", false),
        ("ldxb r0, [r0+12]", true),
        ("ldxdw r0, [r0+8]", true),
        ("sth [r0+14], 7", true),
        ("stxw [r0+10], r6", true),
    ] {
        let source =
            format!("mov64 r6, 0\n{}jeq r0, 0, out\n{access}\nmov64 r0, 1\nout:\nexit\n", lookup_ctx_key(1));
        let expected = if faults { Err((0, 9)) } else { Ok(1) };
        assert_eq!(both_envs(&source, &maps, &[key_ctx(1)]), [expected], "{access}");
    }

    // NULL past max_entries; otherwise one address per key, every time.
    let twice = format!(
        "{}mov64 r6, r0\n\
         lddw r1, 0x{:x}\n\
         mov64 r2, r10\n\
         add64 r2, -4\n\
         call 1\n\
         jeq r0, r6, same\n\
         mov64 r0, 1\n\
         same:\n\
         exit\n",
        lookup_ctx_key(1),
        MAP_SENTINEL | 1
    );
    let ctxs = [3, 4, u32::MAX, 0].map(key_ctx);
    assert_eq!(both_envs(&twice, &maps, &ctxs), [Ok(MAP_VALUE_BASE + 48), Ok(0), Ok(0), Ok(MAP_VALUE_BASE)]);

    // Both environments' CPU ids (3 and 5) wrap to the per-CPU map's CPU
    // 1: the value lands in that CPU's slot, whose address is one block
    // (two 8-byte values) past the region's base. A second map referenced
    // by the same program is its region 1.
    let store = format!("{}jeq r0, 0, out\nstdw [r0+0], 77\nout:\nexit\n", lookup_ctx_key(2));
    assert_eq!(both_envs(&store, &maps, &[key_ctx(1)]), [Ok(MAP_VALUE_BASE + 16 + 8)]);
    let both_maps = format!("lddw r7, 0x{:x}\n{store}", MAP_SENTINEL | 1);
    assert_eq!(both_envs(&both_maps, &maps, &[key_ctx(1)]), [Ok(MAP_VALUE_BASE + MAP_VALUE_STRIDE + 16 + 8)]);
    assert_eq!(per_cpu.lookup_cpu(&1u32.to_ne_bytes(), 1), Some(77u64.to_le_bytes().to_vec()));
    assert_eq!(per_cpu.lookup_cpu(&1u32.to_ne_bytes(), 0), Some(vec![0; 8]));
    assert_eq!(padded.lookup(&1u32.to_ne_bytes()), Some(vec![0; 12]), "no faulting store landed");
}
