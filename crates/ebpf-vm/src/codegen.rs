//! Native x86-64 code generation — the `Native` execution tier.
//!
//! This module lowers a verified program's instructions
//! ([`crate::program::Program::insns`]) to x86-64 machine code in an
//! executable page region, one instruction at a time, as the kernel's
//! `do_jit` walks its `struct bpf_insn` array. The pages are obtained with
//! `mmap(PROT_READ|PROT_WRITE)`, the code is copied in, and the region is
//! sealed with `mprotect(PROT_READ|PROT_EXEC)` before the first execution —
//! W^X throughout, declared against raw libc entry points exactly like the
//! `signal(2)` declaration `srv6d` already ships.
//!
//! ## Execution model
//!
//! The generated function has the C signature `fn(*mut NativeFrame)`. The
//! frame is a flat `repr(C)` block holding the eleven BPF registers plus
//! region *biases*: for each directly-accessible region the emitter knows
//! about (stack, context, packet) the frame stores
//! `host_pointer.wrapping_sub(synthetic_base)`, so the host address of a
//! synthetic address `a` is the two-instruction `bias + a` — no compare
//! chain on the fast path. `rbx` (callee-saved) holds the frame pointer for
//! the whole program. BPF registers are ranked by use count and homed in
//! host registers for the whole program (`RegPlan`); the frame is the
//! spill area and the coherence point around trampoline calls. The code
//! sets every register it mentions to its initial value on entry and
//! writes them into the [`RunState`]'s register file on exit: a run
//! copies no register in or out.
//!
//! ## Verifier-derived check elision
//!
//! The verifier exports one [`crate::verifier::AccessFact`] per memory
//! instruction ([`crate::verifier::AccessFacts`]):
//!
//! * **Stack** — the access was proven in-bounds against the (fixed-size)
//!   stack on every path. No runtime check is emitted at all.
//! * **Ctx** — the access is at a statically-known context offset, but the
//!   verifier checks against the maximum context size while the embedder
//!   may pass a shorter context at run time; a single
//!   `cmp ctx_len, end; jb fault` guards the unchecked access.
//! * **Packet** — the offset is dynamic; the emitter inlines the bounds
//!   compare against `pkt_len` (with a carry check for wrap-around) and
//!   falls back to the generic resolver on failure so out-of-range
//!   addresses fault exactly like the interpreter.
//! * **MapValue** — the access is inside one value of the map its pointer
//!   came from; the host address is the synthetic one plus a constant,
//!   the map's arena address minus its region's base.
//! * **Other** — the access goes through a trampoline back into the
//!   interpreter's resolver, byte-for-byte its path (unbounded map-value
//!   offsets, merged pointer states).
//!
//! Helper calls go through a trampoline that rebuilds a [`crate::vm::HelperApi`] and
//! dispatches through the load-time dense helper table by index — no id
//! lookup at run time. A helper's arguments are `r1`–`r5` as the call
//! site stored them in the frame; a helper sees no other register and
//! writes only `r0`, so a call site stores the arguments and the
//! caller-saved homes and reloads only the latter. Because helpers edit
//! the packet where it lives — moving its front through the headroom, or
//! reallocating it — the trampoline rebases the packet bias/length after
//! a helper that took the packet for writing. Three
//! helpers are inlined instead: `bpf_ktime_get_ns` and
//! `bpf_get_smp_processor_id` read the environment snapshot, and
//! `bpf_map_lookup_elem` on an array-family map the verifier pinned to the
//! call site ([`crate::verifier::AccessFact::MapLookup`]) is the bounds
//! compare plus multiply of the kernel's `array_map_gen_lookup`.
//!
//! ## Safety argument
//!
//! Only verifier-accepted programs reach the emitter, and every memory
//! access is either (a) proven in-bounds by the verifier (stack, map
//! values, whose arenas the program's maps keep alive), (b) guarded by an
//! emitted bounds check (ctx, packet, a lookup's key and index), or (c)
//! routed through the same safe Rust resolver the interpreter uses. The
//! verifier also guarantees termination (no back-edges, ≤
//! [`crate::insn::MAX_INSNS`] instructions), which is why native code does
//! not maintain the instruction budget counter: the budget exists to
//! bound runaway loops the verifier already rejects.
//!
//! On non-x86-64 (or non-Linux) hosts the module compiles to a stub whose
//! [`compile`] returns `Ok(None)`; callers fall back to the interpreter
//! with no `cfg` of their own.
#![allow(unsafe_code)]

use crate::error::Result;
use crate::program::LoadedProgram;
use crate::vm::{RunContext, RunState};

/// Whether this build can emit and execute native code.
pub const fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

/// Compile-time facts about one emitted program, for
/// [`crate::disasm::native_report`] and the zero-spill assertions in tests.
#[derive(Debug, Clone, Default)]
pub struct NativeDebug {
    /// `(bpf_reg, host_reg_name)` pairs for every register-resident value.
    pub assignments: Vec<(u8, &'static str)>,
    /// BPF registers that stayed frame-resident under register pressure.
    pub spills: u32,
    /// Memory accesses emitted without a trampoline (stack, guarded ctx,
    /// packet fast path, direct map values).
    pub elided_checks: u32,
    /// Helper call sites emitted with an inline fast path (environment
    /// reads and array-map lookups).
    pub inlined_helpers: u32,
}

/// A program lowered to executable machine code.
///
/// On unsupported targets the type still exists (so callers need no `cfg`)
/// but can never be constructed: [`compile`] returns `Ok(None)` there.
pub struct NativeProgram {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    buf: x86_64::ExecBuf,
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    debug: NativeDebug,
    /// The registers the code mentions (bit `i` = `r_i`), `r10` aside: it
    /// sets each of them to its initial value on entry and writes them
    /// into the run state's register file on exit. The rest keep the
    /// state's.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    live_regs: u16,
    /// Whether the code reads the environment snapshot (an inline
    /// `bpf_ktime_get_ns` / `bpf_get_smp_processor_id` or per-CPU lookup):
    /// only then does a run ask the environment for it.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    reads_snapshot: bool,
    /// Whether the code reads the packet directly: only then does a run
    /// point the frame at the packet before the first instruction.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    reads_packet: bool,
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    _unconstructable: std::convert::Infallible,
}

impl NativeProgram {
    /// Size of the emitted machine code in bytes.
    pub fn code_len(&self) -> usize {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            self.buf.code_len
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            match self._unconstructable {}
        }
    }

    /// Compile-time facts about the emitted code (register assignment,
    /// spill and inline counts).
    pub fn debug_info(&self) -> &NativeDebug {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            &self.debug
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            match self._unconstructable {}
        }
    }
}

impl std::fmt::Debug for NativeProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeProgram").field("code_len", &self.code_len()).finish()
    }
}

/// Lowers a loaded program's instructions, with the verifier's
/// [`LoadedProgram::access_facts`], to native code. Returns `Ok(None)` when
/// the target has no native backend; callers then run the interpreter.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn compile(loaded: &LoadedProgram) -> Result<Option<NativeProgram>> {
    x86_64::compile(loaded).map(Some)
}

/// Compiles a loaded program to native code. Returns `Ok(None)`: this
/// target has no native backend, so callers run the interpreter.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn compile(_loaded: &LoadedProgram) -> Result<Option<NativeProgram>> {
    Ok(None)
}

/// What a [`RunState`] keeps for the native tier between runs: the frame
/// the generated code runs on and the trampoline context, in one heap
/// block allocated by the state's first native run. Its address never
/// changes, so the links between the two and the stack bias are written
/// once; a run writes only what changes per run (ctx / packet bias and
/// length, the environment snapshot, for the code that reads them).
#[derive(Debug)]
pub(crate) struct NativeSlot {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    bound: *mut x86_64::Bound,
}

impl Default for NativeSlot {
    fn default() -> Self {
        NativeSlot {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            bound: std::ptr::null_mut(),
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl Drop for NativeSlot {
    fn drop(&mut self) {
        if !self.bound.is_null() {
            // SAFETY: a non-null `bound` came from `Box::into_raw` in
            // `x86_64::bind` and is owned by this slot alone.
            drop(unsafe { Box::from_raw(self.bound) });
        }
    }
}

// SAFETY: the slot exclusively owns its block (freed in `Drop`, never
// shared or cloned). The block holds plain words and raw pointers: those
// into the block itself stay valid wherever the state moves, and those
// out of it (state, run context, program) are rewritten at the start of
// every run before the generated code or a trampoline dereferences them.
// `&NativeSlot` exposes nothing, so sharing it is harmless too.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
unsafe impl Send for NativeSlot {}
// SAFETY: see `Send` above.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
unsafe impl Sync for NativeSlot {}

/// Executes a native program against a caller-owned state (not reset here;
/// [`crate::vm::run_program_with_state`] resets it first, like the other
/// tiers).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn run(
    native: &NativeProgram,
    loaded: &LoadedProgram,
    rc: &mut RunContext<'_>,
    state: &mut RunState,
) -> Result<u64> {
    x86_64::run(native, loaded, rc, state)
}

/// Executes a native program. Unreachable on targets without a backend —
/// [`compile`] never produces a [`NativeProgram`] there.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn run(
    native: &NativeProgram,
    _loaded: &LoadedProgram,
    _rc: &mut RunContext<'_>,
    _state: &mut RunState,
) -> Result<u64> {
    match native._unconstructable {}
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod x86_64 {
    use crate::error::{Error, Result};
    use crate::helpers::ids;
    use crate::insn::{alu, class, jmp, src, AccessSize, Insn, NUM_REGS, STACK_SIZE};
    use crate::maps::ArenaLayout;
    use crate::program::LoadedProgram;
    use crate::verifier::{AccessFact, AccessFacts};
    use crate::vm::{HelperApi, RunContext, RunState, CTX_BASE, PKT_BASE, STACK_BASE};
    use core::ffi::c_void;

    // -----------------------------------------------------------------
    // Executable memory
    // -----------------------------------------------------------------

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const PROT_EXEC: i32 = 4;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;

    // Raw libc entry points, declared the same way srv6d declares
    // `signal(2)` — no libc crate in the workspace.
    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An `mmap`ed region sealed read+execute after the code is copied in.
    pub(super) struct ExecBuf {
        ptr: *mut u8,
        len: usize,
        pub(super) code_len: usize,
    }

    // The region is immutable (RX) after construction; sharing raw code
    // pages between threads is safe.
    unsafe impl Send for ExecBuf {}
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        fn new(code: &[u8]) -> Result<ExecBuf> {
            let len = code.len().max(1);
            unsafe {
                let ptr = mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                );
                if ptr.is_null() || ptr as isize == -1 {
                    return Err(Error::runtime(0, "mmap of code region failed"));
                }
                std::ptr::copy_nonoverlapping(code.as_ptr(), ptr as *mut u8, code.len());
                if mprotect(ptr, len, PROT_READ | PROT_EXEC) != 0 {
                    munmap(ptr, len);
                    return Err(Error::runtime(0, "mprotect(PROT_EXEC) on code region failed"));
                }
                Ok(ExecBuf { ptr: ptr as *mut u8, len, code_len: code.len() })
            }
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr as *mut c_void, self.len);
            }
        }
    }

    // -----------------------------------------------------------------
    // The native frame and trampolines
    // -----------------------------------------------------------------

    /// The flat machine-visible state block; `rbx` points here for the
    /// whole program. `bias` fields hold `host_ptr - synthetic_base`
    /// (wrapping), so `bias + synthetic_addr` is the host address.
    #[repr(C)]
    struct NativeFrame {
        regs: [u64; NUM_REGS], // offsets 0..88
        stack_bias: u64,       // 88
        ctx_bias: u64,         // 96
        ctx_len: u64,          // 104
        pkt_bias: u64,         // 112
        pkt_len: u64,          // 120
        tramp_ctx: u64,        // 128
        fault: u64,            // 136: 0 = ok, otherwise faulting slot + 1
        inline_flags: u64,     // 144: bit 0 = env snapshot valid
        inline_ktime: u64,     // 152: snapshot ktime_ns
        inline_cpu: u64,       // 160: snapshot cpu_id
        out_regs: u64,         // 168: the run state's register file
    }

    const OFF_STACK_BIAS: i32 = 8 * NUM_REGS as i32;
    const OFF_CTX_BIAS: i32 = OFF_STACK_BIAS + 8;
    const OFF_CTX_LEN: i32 = OFF_STACK_BIAS + 16;
    const OFF_PKT_BIAS: i32 = OFF_STACK_BIAS + 24;
    const OFF_PKT_LEN: i32 = OFF_STACK_BIAS + 32;
    const OFF_TRAMP: i32 = OFF_STACK_BIAS + 40;
    const OFF_FAULT: i32 = OFF_STACK_BIAS + 48;
    const OFF_INLINE_FLAGS: i32 = OFF_STACK_BIAS + 56;
    const OFF_INLINE_KTIME: i32 = OFF_STACK_BIAS + 64;
    const OFF_INLINE_CPU: i32 = OFF_STACK_BIAS + 72;
    const OFF_OUT_REGS: i32 = OFF_STACK_BIAS + 80;

    /// Everything the slow-path trampolines need to re-enter safe Rust.
    /// Lives in the state's [`Bound`] block beside the frame; the generated
    /// code only ever passes its address back to the trampolines below.
    struct TrampCtx {
        frame: *mut NativeFrame,
        state: *mut RunState,
        rc: *mut RunContext<'static>,
        loaded: *const LoadedProgram,
        error: Option<Error>,
    }

    impl TrampCtx {
        /// The helper view of the run the context is bound to.
        ///
        /// # Safety
        /// Only during that run: [`run`] writes the pointers for it.
        unsafe fn api(&mut self) -> HelperApi<'_, 'static> {
            HelperApi { state: &mut *self.state, rc: &mut *self.rc, maps: &(*self.loaded).maps }
        }
    }

    /// The block behind [`super::NativeSlot`]: frame and trampoline
    /// context, linked to each other once.
    pub(super) struct Bound {
        frame: NativeFrame,
        tc: TrampCtx,
    }

    /// The state's [`Bound`] block, allocated and linked on its first
    /// native run.
    fn bind(state: &mut RunState) -> *mut Bound {
        if state.native.bound.is_null() {
            let stack_bias = (state.stack_ptr() as u64).wrapping_sub(STACK_BASE);
            let bound = Box::into_raw(Box::new(Bound {
                frame: NativeFrame {
                    regs: [0; NUM_REGS],
                    stack_bias,
                    ctx_bias: 0,
                    ctx_len: 0,
                    pkt_bias: 0,
                    pkt_len: 0,
                    tramp_ctx: 0,
                    fault: 0,
                    inline_flags: 0,
                    inline_ktime: 0,
                    inline_cpu: 0,
                    out_regs: 0,
                },
                tc: TrampCtx {
                    frame: std::ptr::null_mut(),
                    state: std::ptr::null_mut(),
                    rc: std::ptr::null_mut(),
                    loaded: std::ptr::null(),
                    error: None,
                },
            }));
            // SAFETY: `bound` is the fresh, uniquely owned allocation made
            // above; the two fields link to each other by address, which
            // the heap block keeps for its whole life.
            unsafe {
                (*bound).frame.tramp_ctx = std::ptr::addr_of_mut!((*bound).tc) as u64;
                (*bound).tc.frame = std::ptr::addr_of_mut!((*bound).frame);
            }
            state.native.bound = bound;
        }
        state.native.bound
    }

    fn decode_size(size: u32) -> AccessSize {
        match size {
            1 => AccessSize::Byte,
            2 => AccessSize::Half,
            4 => AccessSize::Word,
            _ => AccessSize::Double,
        }
    }

    fn at_slot(err: Error, slot: u32) -> Error {
        match err {
            Error::Runtime { message, .. } => Error::Runtime { insn: slot as usize, message },
            other => other,
        }
    }

    /// Generic load slow path: exact interpreter semantics via the
    /// interpreter's resolver. On error, records the faulting slot in the
    /// frame so the generated code exits, and parks the error for [`run`]
    /// to return.
    unsafe extern "C" fn tramp_load(tc: *mut TrampCtx, addr: u64, size: u32, slot: u32) -> u64 {
        let tc = &mut *tc;
        match tc.api().load_scalar(addr, decode_size(size)) {
            Ok(value) => value,
            Err(err) => {
                (*tc.frame).fault = u64::from(slot) + 1;
                tc.error = Some(at_slot(err, slot));
                0
            }
        }
    }

    /// Generic store slow path, mirroring [`tramp_load`].
    unsafe extern "C" fn tramp_store(tc: *mut TrampCtx, addr: u64, value: u64, size: u32, slot: u32) {
        let tc = &mut *tc;
        if let Err(err) = tc.api().store_scalar(addr, decode_size(size), value) {
            (*tc.frame).fault = u64::from(slot) + 1;
            tc.error = Some(at_slot(err, slot));
        }
    }

    /// Copies the registers in `mask` (bit `i` = `r_i`) one word at a
    /// time. The generated code stores frame registers as single words,
    /// so a vectorised copy right after it reads 16 bytes across two of
    /// its 8-byte stores, which defeats store-to-load forwarding. Volatile
    /// keeps the compiler from merging the words into vector moves.
    fn copy_regs(dst: &mut [u64; NUM_REGS], src: &[u64; NUM_REGS], mut mask: u16) {
        while mask != 0 {
            let r = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // SAFETY: both are references, hence valid and aligned.
            unsafe { std::ptr::write_volatile(&mut dst[r], std::ptr::read_volatile(&src[r])) };
        }
    }

    /// Points the frame's packet bias and length at where the packet's
    /// bytes are now: at entry, for code that reads the packet, and after
    /// a helper that wrote it, which may have moved the packet's front
    /// through its headroom or reallocated it.
    fn rebase_packet(frame: &mut NativeFrame, rc: &mut RunContext<'_>) {
        let bytes = rc.packet.bytes_mut();
        frame.pkt_bias = (bytes.as_mut_ptr() as u64).wrapping_sub(PKT_BASE);
        frame.pkt_len = bytes.len() as u64;
    }

    /// Helper-call trampoline: the arguments `r1`–`r5` come from the
    /// frame, where the generated code stored them just before the call,
    /// and the helper runs with the same [`HelperApi`] every other tier
    /// uses. A helper sees and writes no register but `r0`, its return
    /// value. The packet is rebased only after a helper that took it
    /// for writing, the only kind that can move it.
    unsafe extern "C" fn tramp_helper(tc: *mut TrampCtx, idx: u32) -> i64 {
        let tc = &mut *tc;
        let frame = &mut *tc.frame;
        let state = &mut *tc.state;
        let rc = &mut *tc.rc;
        let loaded = &*tc.loaded;
        // One word each, as they were stored (see `copy_regs`).
        // SAFETY: a reference, hence valid and aligned.
        let arg = |r: usize| std::ptr::read_volatile(&frame.regs[r]);
        let args = [arg(1), arg(2), arg(3), arg(4), arg(5)];
        let func = loaded.helper_table()[idx as usize].func;
        let written_before = std::mem::take(&mut state.packet_written);
        let ret = func(&mut HelperApi { state, rc, maps: &loaded.maps }, args);
        if state.packet_written {
            rebase_packet(frame, rc);
        }
        state.packet_written |= written_before;
        ret
    }

    // -----------------------------------------------------------------
    // The assembler
    // -----------------------------------------------------------------

    const RAX: u8 = 0;
    const RCX: u8 = 1;
    const RDX: u8 = 2;
    const RBX: u8 = 3;
    const RBP: u8 = 5;
    const RSI: u8 = 6;
    const RDI: u8 = 7;
    const R8: u8 = 8;
    const R9: u8 = 9;
    const R10: u8 = 10;
    const R11: u8 = 11;
    const R12: u8 = 12;
    const R13: u8 = 13;
    const R14: u8 = 14;
    const R15: u8 = 15;

    /// Display name of a host register used as a BPF-register home.
    fn host_reg_name(reg: u8) -> &'static str {
        match reg {
            RBP => "rbp",
            R8 => "r8",
            R9 => "r9",
            R10 => "r10",
            R11 => "r11",
            R12 => "r12",
            R13 => "r13",
            R14 => "r14",
            R15 => "r15",
            _ => "?",
        }
    }

    // x86 condition codes (the low nibble of Jcc).
    const CC_B: u8 = 0x2;
    const CC_AE: u8 = 0x3;
    const CC_E: u8 = 0x4;
    const CC_NE: u8 = 0x5;
    const CC_BE: u8 = 0x6;
    const CC_A: u8 = 0x7;
    const CC_L: u8 = 0xc;
    const CC_GE: u8 = 0xd;
    const CC_LE: u8 = 0xe;
    const CC_G: u8 = 0xf;

    #[derive(Default)]
    struct Asm {
        code: Vec<u8>,
    }

    impl Asm {
        fn b(&mut self, byte: u8) {
            self.code.push(byte);
        }
        fn bytes(&mut self, bytes: &[u8]) {
            self.code.extend_from_slice(bytes);
        }
        fn i32v(&mut self, value: i32) {
            self.bytes(&value.to_le_bytes());
        }
        fn u64v(&mut self, value: u64) {
            self.bytes(&value.to_le_bytes());
        }
        fn here(&self) -> usize {
            self.code.len()
        }
        /// ModRM (+ optional disp) for `[base + disp]`. `base` must not be
        /// rsp/rbp (the encodings alias SIB/RIP) — the emitter only uses
        /// rbx, rdx and rsi bases.
        fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
            debug_assert!(base != 4 && base != 5);
            if disp == 0 {
                self.b((reg << 3) | base);
            } else if (-128..=127).contains(&disp) {
                self.b(0x40 | (reg << 3) | base);
                self.b(disp as i8 as u8);
            } else {
                self.b(0x80 | (reg << 3) | base);
                self.i32v(disp);
            }
        }
        /// ModRM+SIB for `[base + index]` (scale 1, no displacement).
        fn modrm_sib(&mut self, reg: u8, base: u8, index: u8) {
            debug_assert!(base != 5 && index != 4);
            self.b((reg << 3) | 0b100);
            self.b((index << 3) | base);
        }

        // --- REX-aware forms (r8–r15 capable) --------------------------
        //
        // The emitter homes BPF registers in rbp/r8–r15 and goes through
        // these helpers, which emit a REX prefix exactly when the operands
        // (or the 64-bit width) need one. Memory bases stay below r8 — and
        // never rsp/rbp — so only REX.R/REX.B for the reg/rm fields and
        // REX.W for width are ever required.

        /// REX prefix for (`w`, reg extension, rm/base extension); emits
        /// nothing when empty.
        fn rex(&mut self, w: bool, reg: u8, rm: u8) {
            let mut b = 0x40u8;
            if w {
                b |= 8;
            }
            if reg >= 8 {
                b |= 4;
            }
            if rm >= 8 {
                b |= 1;
            }
            if b != 0x40 {
                self.b(b);
            }
        }
        /// `opcodes reg, rm` in register-direct form.
        fn op_rr(&mut self, opcodes: &[u8], w: bool, reg: u8, rm: u8) {
            self.rex(w, reg, rm);
            self.bytes(opcodes);
            self.b(0xC0 | ((reg & 7) << 3) | (rm & 7));
        }
        /// `opcodes reg, [base + disp]` (or the store direction, per
        /// opcode). `base` must be one of the low non-rsp/rbp registers.
        fn op_rm(&mut self, opcodes: &[u8], w: bool, reg: u8, base: u8, disp: i32) {
            debug_assert!(base < 8);
            self.rex(w, reg, base);
            self.bytes(opcodes);
            self.modrm_mem(reg & 7, base, disp);
        }
        /// `opcodes reg, [base + index]` (scale 1).
        fn op_sib(&mut self, opcodes: &[u8], w: bool, reg: u8, base: u8, index: u8) {
            debug_assert!(base < 8 && index < 8);
            self.rex(w, reg, base);
            self.bytes(opcodes);
            self.modrm_sib(reg & 7, base, index);
        }
        /// Immediate-group `0x81 /ext rm, imm32` (add/or/and/sub/xor/cmp).
        fn grp81(&mut self, w: bool, ext: u8, rm: u8, imm: i32) {
            self.rex(w, 0, rm);
            self.b(0x81);
            self.b(0xC0 | (ext << 3) | (rm & 7));
            self.i32v(imm);
        }
        /// Unary-group `0xF7 /ext rm` (test=0 needs an imm the caller adds,
        /// not=2, neg=3, mul=4, div=6).
        fn grp_f7(&mut self, w: bool, ext: u8, rm: u8) {
            self.rex(w, 0, rm);
            self.b(0xF7);
            self.b(0xC0 | (ext << 3) | (rm & 7));
        }
        /// Shift-group `0xC1 /ext rm, imm8`.
        fn shift_imm(&mut self, w: bool, ext: u8, rm: u8, amount: u8) {
            self.rex(w, 0, rm);
            self.b(0xC1);
            self.b(0xC0 | (ext << 3) | (rm & 7));
            self.b(amount);
        }
        /// Shift-group `0xD3 /ext rm, cl`.
        fn shift_cl(&mut self, w: bool, ext: u8, rm: u8) {
            self.rex(w, 0, rm);
            self.b(0xD3);
            self.b(0xC0 | (ext << 3) | (rm & 7));
        }
        /// `mov rm, imm32` (sign-extending when `w`).
        fn mov_ri32(&mut self, w: bool, rm: u8, imm: i32) {
            self.rex(w, 0, rm);
            self.b(0xC7);
            self.b(0xC0 | (rm & 7));
            self.i32v(imm);
        }
        /// `movabs reg, imm64` for any register.
        fn movabs_r(&mut self, reg: u8, imm: u64) {
            self.rex(true, 0, reg);
            self.b(0xB8 + (reg & 7));
            self.u64v(imm);
        }
        /// `bswap reg` (32- or 64-bit).
        fn bswap(&mut self, w: bool, reg: u8) {
            self.rex(w, 0, reg);
            self.b(0x0F);
            self.b(0xC8 + (reg & 7));
        }

        // --- control flow ---------------------------------------------

        /// Long `jcc rel32` with the target patched later.
        fn jcc32(&mut self, cc: u8) -> usize {
            self.b(0x0F);
            self.b(0x80 | cc);
            let pos = self.here();
            self.i32v(0);
            pos
        }
        /// Long `jmp rel32` with the target patched later.
        fn jmp32(&mut self) -> usize {
            self.b(0xE9);
            let pos = self.here();
            self.i32v(0);
            pos
        }
        /// Resolves a local forward rel32 to the current position.
        fn bind(&mut self, pos: usize) {
            let rel = (self.here() as i64 - (pos as i64 + 4)) as i32;
            self.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        /// Short `jcc rel8` with the target patched later.
        fn jcc8(&mut self, cc: u8) -> usize {
            self.b(0x70 | cc);
            let pos = self.here();
            self.b(0);
            pos
        }
        /// Short `jmp rel8` with the target patched later.
        fn jmp8(&mut self) -> usize {
            self.b(0xEB);
            let pos = self.here();
            self.b(0);
            pos
        }
        fn bind8(&mut self, pos: usize) {
            let rel = self.here() as i64 - (pos as i64 + 1);
            debug_assert!((-128..=127).contains(&rel));
            self.code[pos] = rel as i8 as u8;
        }
    }

    /// One pending rel32 fixup.
    enum Fixup {
        /// Branch to an instruction slot.
        Slot(usize, u32),
        /// Branch to the shared epilogue (normal exit or already-recorded
        /// fault). In the register-allocating emitter this is the *raw*
        /// epilogue — used after trampoline faults, where the frame was
        /// already flushed before the call.
        Epilogue(usize),
        /// Branch to the fault label (`rax` holds slot + 1).
        Fault(usize),
        /// Branch to the flush-then-return label (`Exit` in the
        /// register-allocating emitter).
        FlushExit(usize),
    }

    // -----------------------------------------------------------------
    // The register-allocating emitter
    // -----------------------------------------------------------------

    /// `r10`'s constant value; the register-allocating emitter folds it
    /// instead of giving the frame pointer a home.
    const STACK_TOP: u64 = STACK_BASE + STACK_SIZE as u64;

    /// Callee-saved candidate homes (preserved across the Rust trampoline
    /// calls, so they only need reloading after a helper — which may write
    /// any BPF register — not after a load/store trampoline).
    const CALLEE_HOMES: [u8; 5] = [R12, R13, R14, R15, RBP];
    /// Caller-saved candidate homes; free to use (no push/pop) but
    /// clobbered by every trampoline call.
    const CALLER_HOMES: [u8; 4] = [R8, R9, R10, R11];

    /// The per-program register assignment: which BPF registers live in
    /// which host registers for the whole program.
    ///
    /// Live intervals are computed over the instruction stream, but
    /// homes are fixed for the program rather than time-shared between
    /// values: the verifier only accepts forward jumps, so an interval
    /// hand-off point could be jumped over, leaving a home stale. With ten
    /// allocatable BPF registers (`r10` folds to the constant
    /// [`STACK_TOP`]) and nine candidate homes, at most one value stays
    /// frame-resident — the one with the fewest uses.
    struct RegPlan {
        /// Host home per BPF register (`None` = frame-resident).
        home: [Option<u8>; NUM_REGS],
        /// `(bpf_reg, host_reg)` pairs, in assignment order.
        homed: Vec<(u8, u8)>,
        /// Callee-saved homes actually assigned (these get pushed).
        callee_used: Vec<u8>,
        /// The caller-saved subset of `homed`.
        caller_homed: Vec<(u8, u8)>,
        /// Whether any op can call a trampoline (helper call, packet load,
        /// generic access): decides candidate ordering and rsp alignment.
        has_calls: bool,
        /// BPF registers left frame-resident under register pressure.
        spills: u32,
    }

    /// The instructions the emitter lowers, with their slots: every one but
    /// the second slot of an `lddw`, which emits no code.
    fn lowered(insns: &[Insn]) -> impl Iterator<Item = (usize, &Insn)> {
        let mut second_slot = false;
        insns.iter().enumerate().filter(move |(_, insn)| {
            let lowered = !second_slot;
            second_slot = lowered && insn.is_lddw();
            lowered
        })
    }

    /// Calls `f` with every BPF register `insn` reads or writes — the
    /// liveness the register plan ranks by. A helper call mentions
    /// `r0`–`r5` (arguments and return value), `exit` mentions `r0`.
    fn for_each_reg(insn: &Insn, mut f: impl FnMut(u8)) {
        let reads_src = insn.opcode & src::X != 0;
        match insn.class() {
            class::ALU | class::ALU64 => {
                f(insn.dst);
                if reads_src && !matches!(insn.opcode & 0xf0, alu::NEG | alu::END) {
                    f(insn.src);
                }
            }
            class::LD | class::ST => f(insn.dst),
            class::LDX | class::STX => {
                f(insn.dst);
                f(insn.src);
            }
            _ => match insn.opcode & 0xf0 {
                jmp::CALL => (0..6).for_each(f),
                jmp::EXIT => f(0),
                jmp::JA => {}
                _ => {
                    f(insn.dst);
                    if reads_src {
                        f(insn.src);
                    }
                }
            },
        }
    }

    fn plan_registers(insns: &[Insn], facts: &AccessFacts) -> RegPlan {
        let mut uses = [0u32; NUM_REGS];
        let mut first = [usize::MAX; NUM_REGS];
        let mut has_calls = false;
        for (slot, insn) in lowered(insns) {
            for_each_reg(insn, |r| {
                let r = usize::from(r);
                uses[r] += 1;
                if first[r] == usize::MAX {
                    first[r] = slot;
                }
            });
            has_calls |= match insn.class() {
                class::LDX | class::STX | class::ST => {
                    matches!(facts.get(slot), AccessFact::Packet | AccessFact::Other)
                }
                _ => insn.is_call(),
            };
        }
        // Rank r0–r9 by use count (ties: earlier live-interval start
        // first); r10 is excluded — it is a read-only compile-time
        // constant, and its frame slot stays valid because nothing ever
        // writes it.
        let mut ranked: Vec<u8> = (0..10u8).filter(|&r| uses[usize::from(r)] > 0).collect();
        ranked.sort_by_key(|&r| (std::cmp::Reverse(uses[usize::from(r)]), first[usize::from(r)]));
        // Call-free programs prefer caller-saved homes (no pushes at all);
        // programs with trampoline call sites prefer callee-saved homes
        // (fewer reloads around each call).
        let pool: Vec<u8> = if has_calls {
            CALLEE_HOMES.iter().chain(CALLER_HOMES.iter()).copied().collect()
        } else {
            CALLER_HOMES.iter().chain(CALLEE_HOMES.iter()).copied().collect()
        };
        let mut home = [None; NUM_REGS];
        let mut homed = Vec::new();
        for (&bpf, &host) in ranked.iter().zip(pool.iter()) {
            home[usize::from(bpf)] = Some(host);
            homed.push((bpf, host));
        }
        let spills = ranked.len().saturating_sub(pool.len()) as u32;
        let callee_used = homed.iter().map(|&(_, h)| h).filter(|h| CALLEE_HOMES.contains(h)).collect();
        let caller_homed = homed.iter().copied().filter(|(_, h)| CALLER_HOMES.contains(h)).collect();
        RegPlan { home, homed, callee_used, caller_homed, has_calls, spills }
    }

    /// The register-resident emitter. BPF registers live in their homes for
    /// the whole program; the frame doubles as the spill area and as the
    /// coherence point around trampolines — every home is written back
    /// before a call and at the fault/exit edges, so trampolines, helpers
    /// and the fault path see the architectural BPF register file there.
    struct RegEmitter<'a> {
        asm: Asm,
        facts: &'a AccessFacts,
        loaded: &'a LoadedProgram,
        offsets: Vec<usize>,
        fixups: Vec<Fixup>,
        home: [Option<u8>; NUM_REGS],
        homed: Vec<(u8, u8)>,
        caller_homed: Vec<(u8, u8)>,
        elided_checks: u32,
        inlined_helpers: u32,
        reads_snapshot: bool,
        reads_packet: bool,
    }

    impl<'a> RegEmitter<'a> {
        fn home_of(&self, r: u8) -> Option<u8> {
            self.home[usize::from(r)]
        }

        // --- frame traffic (REX-aware: any host register) --------------

        fn load_frame(&mut self, host: u8, bpf_reg: u8, is64: bool) {
            self.asm.op_rm(&[0x8B], is64, host, RBX, 8 * i32::from(bpf_reg));
        }
        fn store_frame(&mut self, bpf_reg: u8, host: u8) {
            self.asm.op_rm(&[0x89], true, host, RBX, 8 * i32::from(bpf_reg));
        }
        fn load_field(&mut self, host: u8, disp: i32) {
            self.asm.op_rm(&[0x8B], true, host, RBX, disp);
        }

        /// Copies BPF register `r` into `host` (zero-extending when 32-bit).
        fn read_reg(&mut self, host: u8, r: u8, is64: bool) {
            if r == 10 {
                self.asm.movabs_r(host, STACK_TOP);
                if !is64 {
                    self.asm.op_rr(&[0x8B], false, host, host); // truncate
                }
            } else if let Some(h) = self.home_of(r) {
                self.asm.op_rr(&[0x8B], is64, host, h);
            } else {
                self.load_frame(host, r, is64);
            }
        }
        /// Writes the full 64-bit value in `host` into BPF register `r`.
        fn write_reg(&mut self, r: u8, host: u8) {
            if let Some(h) = self.home_of(r) {
                if h != host {
                    self.asm.op_rr(&[0x8B], true, h, host);
                }
            } else {
                self.store_frame(r, host);
            }
        }
        /// The host register currently holding `r`'s full value,
        /// materializing frame-resident (or constant-`r10`) values in rax.
        fn reg_to_host(&mut self, r: u8) -> u8 {
            if r != 10 {
                if let Some(h) = self.home_of(r) {
                    return h;
                }
            }
            self.read_reg(RAX, r, true);
            RAX
        }
        /// A host register `dst` can be updated in place: its home, or rax
        /// holding the frame value (loaded when `read`). Pair with
        /// [`Self::release`].
        fn acquire(&mut self, dst: u8, is64: bool, read: bool) -> u8 {
            if let Some(h) = self.home_of(dst) {
                h
            } else {
                if read {
                    self.load_frame(RAX, dst, is64);
                }
                RAX
            }
        }
        fn release(&mut self, dst: u8, work: u8) {
            if self.home_of(dst).is_none() {
                self.store_frame(dst, work);
            }
        }

        // --- home <-> frame coherence ----------------------------------

        /// Writes every register-resident value back to the frame, which
        /// trampolines, helpers and the fault path read.
        fn flush_homes(&mut self) {
            for i in 0..self.homed.len() {
                let (r, h) = self.homed[i];
                self.store_frame(r, h);
            }
        }
        /// Writes back what a helper call needs in the frame: the
        /// arguments `r1`–`r5`, which the trampoline reads there, and the
        /// caller-saved homes, which the call clobbers. The callee-saved
        /// homes of other registers stay put: the call preserves them and
        /// nothing reads their frame words before the next flush.
        fn flush_for_helper(&mut self) {
            for i in 0..self.homed.len() {
                let (r, h) = self.homed[i];
                if (1..=5).contains(&r) || CALLER_HOMES.contains(&h) {
                    self.store_frame(r, h);
                }
            }
        }
        /// Reloads only the caller-saved homes — enough after any
        /// trampoline, since none writes a BPF register (the callee-saved
        /// homes survive the call untouched).
        fn reload_caller_homes(&mut self) {
            for i in 0..self.caller_homed.len() {
                let (r, h) = self.caller_homed[i];
                self.load_frame(h, r, true);
            }
        }

        // --- guards and slow-path calls --------------------------------

        /// `jcc fault` taking the branch when `cc` holds (see
        /// [`Emitter::fault_if`]).
        fn fault_if(&mut self, cc: u8, slot: usize) {
            self.asm.b(0x70 | (cc ^ 1));
            self.asm.b(10);
            self.asm.b(0xB8);
            self.asm.i32v(slot as i32 + 1);
            self.asm.b(0xE9);
            let pos = self.asm.here();
            self.asm.i32v(0);
            self.fixups.push(Fixup::Fault(pos));
        }
        fn emit_ctx_guard(&mut self, slot: usize, end: u16) {
            self.asm.bytes(&[0x48, 0x81]);
            self.asm.modrm_mem(7, RBX, OFF_CTX_LEN); // cmp /7
            self.asm.i32v(i32::from(end));
            self.fault_if(CC_B, slot);
        }
        /// `cmp qword [rbx+fault], 0; jne epilogue` — the raw epilogue:
        /// the frame was flushed before the trampoline call, and the
        /// trampoline never writes BPF registers on the fault path.
        fn emit_fault_check(&mut self) {
            self.asm.bytes(&[0x48, 0x83]);
            self.asm.modrm_mem(7, RBX, OFF_FAULT); // cmp /7, imm8
            self.asm.b(0);
            let pos = self.asm.jcc32(CC_NE);
            self.fixups.push(Fixup::Epilogue(pos));
        }
        /// `cmp qword [rbx+inline_flags], 0; je <returned pos>` — guards
        /// every inline helper fast path on the per-invocation environment
        /// snapshot being valid.
        fn flag_check(&mut self) -> usize {
            self.reads_snapshot = true;
            self.asm.bytes(&[0x48, 0x83]);
            self.asm.modrm_mem(7, RBX, OFF_INLINE_FLAGS);
            self.asm.b(0);
            self.asm.jcc32(CC_E)
        }
        fn emit_tramp_load(&mut self, slot: usize, size: AccessSize) {
            self.flush_homes();
            self.load_field(RDI, OFF_TRAMP);
            self.asm.op_rr(&[0x8B], true, RSI, RCX); // mov rsi, rcx (addr)
            self.asm.b(0xBA); // mov edx, size
            self.asm.i32v(size.bytes() as i32);
            self.asm.b(0xB9); // mov ecx, slot
            self.asm.i32v(slot as i32);
            let f: unsafe extern "C" fn(*mut TrampCtx, u64, u32, u32) -> u64 = tramp_load;
            self.asm.movabs_r(RAX, f as usize as u64);
            self.asm.bytes(&[0xFF, 0xD0]); // call rax
            self.emit_fault_check();
            self.reload_caller_homes();
        }
        /// Calls [`tramp_store`] with the value already in `rax`.
        fn emit_tramp_store(&mut self, slot: usize, size: AccessSize) {
            self.flush_homes();
            self.load_field(RDI, OFF_TRAMP);
            self.asm.op_rr(&[0x8B], true, RSI, RCX); // mov rsi, rcx (addr)
            self.asm.op_rr(&[0x8B], true, RDX, RAX); // mov rdx, rax (value)
            self.asm.b(0xB9); // mov ecx, size
            self.asm.i32v(size.bytes() as i32);
            self.asm.bytes(&[0x41, 0xB8]); // mov r8d, slot
            self.asm.i32v(slot as i32);
            let f: unsafe extern "C" fn(*mut TrampCtx, u64, u64, u32, u32) = tramp_store;
            self.asm.movabs_r(RAX, f as usize as u64);
            self.asm.bytes(&[0xFF, 0xD0]); // call rax
            self.emit_fault_check();
            self.reload_caller_homes();
        }

        // --- memory access ---------------------------------------------

        /// Computes the synthetic address `regs[base] + off` into `rcx`;
        /// the constant `r10` folds to an immediate.
        fn addr_to_rcx(&mut self, base: u8, off: i16) {
            if base == 10 {
                self.asm.movabs_r(RCX, STACK_TOP.wrapping_add(i64::from(off) as u64));
                return;
            }
            self.read_reg(RCX, base, true);
            if off != 0 {
                self.asm.grp81(true, 0, RCX, i32::from(off)); // add rcx, imm32
            }
        }
        /// Width-correct zero-extending load from `[base + rcx]` into
        /// `dest`.
        fn load_mem(&mut self, size: AccessSize, base: u8, dest: u8) {
            match size {
                AccessSize::Byte => self.asm.op_sib(&[0x0F, 0xB6], false, dest, base, RCX),
                AccessSize::Half => self.asm.op_sib(&[0x0F, 0xB7], false, dest, base, RCX),
                AccessSize::Word => self.asm.op_sib(&[0x8B], false, dest, base, RCX),
                AccessSize::Double => self.asm.op_sib(&[0x8B], true, dest, base, RCX),
            }
        }
        /// Width-correct store of `value`'s low bytes to `[base + rcx]`.
        fn store_mem(&mut self, size: AccessSize, base: u8, mut value: u8) {
            if size == AccessSize::Byte && (4..8).contains(&value) {
                // rbp as a byte source would encode `ch` without a REX
                // prefix; route it through rax instead.
                self.asm.op_rr(&[0x8B], true, RAX, value);
                value = RAX;
            }
            match size {
                AccessSize::Byte => self.asm.op_sib(&[0x88], false, value, base, RCX),
                AccessSize::Half => {
                    self.asm.b(0x66);
                    self.asm.op_sib(&[0x89], false, value, base, RCX);
                }
                AccessSize::Word => self.asm.op_sib(&[0x89], false, value, base, RCX),
                AccessSize::Double => self.asm.op_sib(&[0x89], true, value, base, RCX),
            }
        }
        /// The verifier's fact for the access at `slot`. A map-value fact
        /// needs the map's arena, whose bias `host − synthetic` is a
        /// constant for the program's life and needs no bounds check: the
        /// fact proves offset and size against the map's value. A map
        /// without one looks up only NULL, so its accesses never run, and
        /// stay on the generic path.
        fn access_fact(&self, slot: usize) -> AccessFact {
            match self.facts.get(slot) {
                AccessFact::MapValue { fd } if self.loaded.maps.bias(fd).is_none() => AccessFact::Other,
                fact => fact,
            }
        }
        /// Region dispatch for a load at `slot`; `rcx` holds the synthetic
        /// address, and the result lands directly in `dst`'s home (or its
        /// frame slot).
        fn emit_load_access(&mut self, slot: usize, size: AccessSize, dst: u8) {
            let dest = self.home_of(dst).unwrap_or(RAX);
            match self.access_fact(slot) {
                AccessFact::Stack => {
                    self.load_field(RDX, OFF_STACK_BIAS);
                    self.load_mem(size, RDX, dest);
                    self.write_reg(dst, dest);
                    self.elided_checks += 1;
                }
                AccessFact::Ctx { end } => {
                    self.emit_ctx_guard(slot, end);
                    self.load_field(RDX, OFF_CTX_BIAS);
                    self.load_mem(size, RDX, dest);
                    self.write_reg(dst, dest);
                    self.elided_checks += 1;
                }
                AccessFact::MapValue { fd } => {
                    self.asm.movabs_r(RDX, self.loaded.maps.bias(fd).expect("an arena"));
                    self.load_mem(size, RDX, dest);
                    self.write_reg(dst, dest);
                    self.elided_checks += 1;
                }
                AccessFact::Packet => {
                    // Carry + length check, falling back to the generic
                    // resolver so faults match the interpreter exactly.
                    self.reads_packet = true;
                    self.asm.movabs_r(RSI, PKT_BASE);
                    self.asm.op_rr(&[0x8B], true, RDX, RCX); // mov rdx, rcx
                    self.asm.op_rr(&[0x2B], true, RDX, RSI); // sub rdx, rsi
                    self.asm.op_rr(&[0x8B], true, RSI, RDX); // mov rsi, rdx
                    self.asm.grp81(true, 0, RSI, size.bytes() as i32); // add
                    let slow_carry = self.asm.jcc32(CC_B);
                    self.asm.op_rm(&[0x3B], true, RSI, RBX, OFF_PKT_LEN);
                    let slow_len = self.asm.jcc32(CC_A);
                    self.load_field(RSI, OFF_PKT_BIAS);
                    self.load_mem(size, RSI, dest);
                    self.write_reg(dst, dest);
                    let done = self.asm.jmp32();
                    self.asm.bind(slow_carry);
                    self.asm.bind(slow_len);
                    self.emit_tramp_load(slot, size);
                    self.write_reg(dst, RAX);
                    self.asm.bind(done);
                    self.elided_checks += 1;
                }
                AccessFact::Other | AccessFact::MapLookup { .. } => {
                    self.emit_tramp_load(slot, size);
                    self.write_reg(dst, RAX);
                }
            }
        }
        /// Region dispatch for a store at `slot`; `rcx` holds the
        /// synthetic address and `value` the host register with the value.
        fn emit_store_access(&mut self, slot: usize, size: AccessSize, value: u8) {
            match self.access_fact(slot) {
                AccessFact::Stack => {
                    self.load_field(RDX, OFF_STACK_BIAS);
                    self.store_mem(size, RDX, value);
                    self.elided_checks += 1;
                }
                AccessFact::Ctx { end } => {
                    self.emit_ctx_guard(slot, end);
                    self.load_field(RDX, OFF_CTX_BIAS);
                    self.store_mem(size, RDX, value);
                    self.elided_checks += 1;
                }
                AccessFact::MapValue { fd } => {
                    self.asm.movabs_r(RDX, self.loaded.maps.bias(fd).expect("an arena"));
                    self.store_mem(size, RDX, value);
                    self.elided_checks += 1;
                }
                AccessFact::Packet | AccessFact::Other | AccessFact::MapLookup { .. } => {
                    if value != RAX {
                        self.asm.op_rr(&[0x8B], true, RAX, value);
                    }
                    self.emit_tramp_store(slot, size);
                }
            }
        }

        // --- helper calls ----------------------------------------------

        /// The generic helper path: store the arguments and the
        /// caller-saved homes, call [`tramp_helper`], reload the
        /// caller-saved homes, set r0.
        fn emit_helper_tramp(&mut self, idx: u32) {
            self.flush_for_helper();
            self.load_field(RDI, OFF_TRAMP);
            self.asm.b(0xBE); // mov esi, idx
            self.asm.i32v(idx as i32);
            let f: unsafe extern "C" fn(*mut TrampCtx, u32) -> i64 = tramp_helper;
            self.asm.movabs_r(RAX, f as usize as u64);
            self.asm.bytes(&[0xFF, 0xD0]); // call rax
            self.reload_caller_homes();
            self.write_reg(0, RAX);
        }
        /// `bpf_map_lookup_elem` on an array-family map, inlined as the
        /// kernel's `array_map_gen_lookup` does: `r0 = key < max_entries ?
        /// base + (cpu % cpus) × block + key × elem : 0`, with `base` the
        /// map's region and `cpu` the environment snapshot's. The key read
        /// is a checked stack access; a key outside the stack, or a per-CPU
        /// map without a snapshot, takes the helper call.
        fn emit_inline_lookup(&mut self, idx: u32, base: u64, layout: ArenaLayout) {
            self.inlined_helpers += 1;
            let mut slow = Vec::new();
            if layout.cpus > 1 {
                slow.push(self.flag_check());
            }
            // rcx = the key's address; its four bytes must lie in the stack.
            self.read_reg(RCX, 2, true);
            self.asm.movabs_r(RSI, STACK_BASE);
            self.asm.op_rr(&[0x8B], true, RDX, RCX); // mov rdx, rcx
            self.asm.op_rr(&[0x2B], true, RDX, RSI); // sub rdx, rsi
            self.asm.grp81(true, 7, RDX, STACK_SIZE as i32 - 4); // cmp
            slow.push(self.asm.jcc32(CC_A));
            self.asm.op_rm(&[0x03], true, RCX, RBX, OFF_STACK_BIAS); // add
            self.asm.op_rm(&[0x8B], false, RCX, RCX, 0); // mov ecx, [rcx]
            self.asm.grp81(false, 7, RCX, layout.max_entries as i32); // cmp
            let null = self.asm.jcc32(CC_AE);
            self.asm.b(0xBA); // mov edx, elem
            self.asm.i32v(layout.elem as i32);
            self.asm.op_rr(&[0x0F, 0xAF], true, RCX, RDX); // imul rcx, rdx
            if layout.cpus > 1 {
                // rcx += (cpu % cpus) * block
                self.load_field(RAX, OFF_INLINE_CPU);
                self.asm.bytes(&[0x33, 0xD2]); // xor edx, edx
                self.asm.b(0xBE); // mov esi, cpus
                self.asm.i32v(layout.cpus as i32);
                self.asm.bytes(&[0xF7, 0xF6]); // div esi
                self.asm.movabs_r(RSI, layout.block());
                self.asm.op_rr(&[0x0F, 0xAF], true, RDX, RSI); // imul rdx, rsi
                self.asm.op_rr(&[0x03], true, RCX, RDX); // add rcx, rdx
            }
            self.asm.movabs_r(RAX, base);
            self.asm.op_rr(&[0x03], true, RAX, RCX); // add rax, rcx
            let hit = self.asm.jmp8();
            self.asm.bind(null);
            self.asm.bytes(&[0x33, 0xC0]); // xor eax, eax
            self.asm.bind8(hit);
            self.write_reg(0, RAX);
            let done = self.asm.jmp32();
            for pos in slow {
                self.asm.bind(pos);
            }
            self.emit_helper_tramp(idx);
            self.asm.bind(done);
        }
        fn emit_call(&mut self, slot: usize, idx: u32, id: u32) {
            // Trivially-pure helpers: one load off the frame's environment
            // snapshot when it is valid, trampoline otherwise (recording
            // environments never publish a snapshot, so their observable
            // call sequence is unchanged).
            if id == ids::KTIME_GET_NS || id == ids::GET_SMP_PROCESSOR_ID {
                let field = if id == ids::KTIME_GET_NS { OFF_INLINE_KTIME } else { OFF_INLINE_CPU };
                let slow = self.flag_check();
                self.load_field(RAX, field);
                self.write_reg(0, RAX);
                let done = self.asm.jmp32();
                self.asm.bind(slow);
                self.emit_helper_tramp(idx);
                self.asm.bind(done);
                self.inlined_helpers += 1;
                return;
            }
            // A lookup whose map the verifier pinned is arithmetic on that
            // map's region, if it has one.
            if let AccessFact::MapLookup { fd } = self.facts.get(slot) {
                if let Some((base, layout)) = self.loaded.maps.region(fd) {
                    self.emit_inline_lookup(idx, base, layout);
                    return;
                }
            }
            self.emit_helper_tramp(idx);
        }

        // --- operations ------------------------------------------------

        fn emit_alu_imm(&mut self, op: u8, is64: bool, dst: u8, imm: i32, slot: usize) -> Result<()> {
            if op == alu::MOV {
                if let Some(h) = self.home_of(dst) {
                    // 64-bit form sign-extends, 32-bit zero-extends — both
                    // the BPF semantics.
                    self.asm.mov_ri32(is64, h, imm);
                } else if is64 {
                    self.asm.bytes(&[0x48, 0xC7]); // mov qword [..], imm32
                    self.asm.modrm_mem(0, RBX, 8 * i32::from(dst));
                    self.asm.i32v(imm);
                } else {
                    self.asm.b(0xB8); // mov eax, imm32
                    self.asm.i32v(imm);
                    self.store_frame(dst, RAX);
                }
                return Ok(());
            }
            match op {
                alu::ADD | alu::OR | alu::AND | alu::SUB | alu::XOR => {
                    let ext = match op {
                        alu::ADD => 0,
                        alu::OR => 1,
                        alu::AND => 4,
                        alu::SUB => 5,
                        _ => 6, // XOR
                    };
                    let work = self.acquire(dst, is64, true);
                    self.asm.grp81(is64, ext, work, imm);
                    self.release(dst, work);
                }
                alu::MUL => {
                    let work = self.acquire(dst, is64, true);
                    self.asm.op_rr(&[0x69], is64, work, work); // imul r, r, imm
                    self.asm.i32v(imm);
                    self.release(dst, work);
                }
                alu::DIV | alu::MOD => {
                    // The verifier rejects DIV/MOD by immediate zero.
                    self.read_reg(RAX, dst, is64);
                    if is64 {
                        self.asm.bytes(&[0x48, 0xC7, 0xC1]); // mov rcx, imm32
                    } else {
                        self.asm.b(0xB9); // mov ecx, imm32
                    }
                    self.asm.i32v(imm);
                    self.emit_divmod(op, is64, false);
                    self.write_reg(dst, RAX);
                }
                alu::LSH | alu::RSH | alu::ARSH => {
                    let ext = match op {
                        alu::LSH => 4,
                        alu::RSH => 5,
                        _ => 7, // ARSH
                    };
                    let amount = (imm as u32) & if is64 { 63 } else { 31 };
                    let work = self.acquire(dst, is64, true);
                    self.asm.shift_imm(is64, ext, work, amount as u8);
                    self.release(dst, work);
                }
                other => {
                    return Err(Error::runtime(slot, format!("codegen: unsupported ALU op 0x{other:x}")))
                }
            }
            Ok(())
        }

        fn emit_alu_reg(&mut self, op: u8, is64: bool, dst: u8, src: u8, slot: usize) -> Result<()> {
            if op == alu::MOV {
                if let Some(h) = self.home_of(dst) {
                    self.read_reg(h, src, is64);
                } else {
                    self.read_reg(RAX, src, is64);
                    self.store_frame(dst, RAX);
                }
                return Ok(());
            }
            match op {
                alu::ADD | alu::OR | alu::AND | alu::SUB | alu::XOR | alu::MUL => {
                    let opcodes: &[u8] = match op {
                        alu::ADD => &[0x03],
                        alu::OR => &[0x0B],
                        alu::AND => &[0x23],
                        alu::SUB => &[0x2B],
                        alu::XOR => &[0x33],
                        _ => &[0x0F, 0xAF], // imul
                    };
                    let work = self.acquire(dst, is64, true);
                    if src == 10 {
                        self.asm.movabs_r(RDX, STACK_TOP);
                        self.asm.op_rr(opcodes, is64, work, RDX);
                    } else if let Some(hs) = self.home_of(src) {
                        self.asm.op_rr(opcodes, is64, work, hs);
                    } else {
                        self.asm.op_rm(opcodes, is64, work, RBX, 8 * i32::from(src));
                    }
                    self.release(dst, work);
                }
                alu::DIV | alu::MOD => {
                    self.read_reg(RCX, src, is64);
                    self.read_reg(RAX, dst, is64);
                    self.emit_divmod(op, is64, true);
                    self.write_reg(dst, RAX);
                }
                alu::LSH | alu::RSH | alu::ARSH => {
                    let ext = match op {
                        alu::LSH => 4,
                        alu::RSH => 5,
                        _ => 7, // ARSH
                    };
                    self.read_reg(RCX, src, is64);
                    let work = self.acquire(dst, is64, true);
                    self.asm.shift_cl(is64, ext, work);
                    self.release(dst, work);
                }
                other => {
                    return Err(Error::runtime(slot, format!("codegen: unsupported ALU op 0x{other:x}")))
                }
            }
            Ok(())
        }

        /// Identical to [`Emitter::emit_divmod`]: unsigned rax / rcx with
        /// the BPF division-by-zero semantics.
        fn emit_divmod(&mut self, op: u8, is64: bool, guard_zero: bool) {
            let mut zero_jump = None;
            if guard_zero {
                if is64 {
                    self.asm.bytes(&[0x48, 0x85, 0xC9]); // test rcx, rcx
                } else {
                    self.asm.bytes(&[0x85, 0xC9]); // test ecx, ecx
                }
                zero_jump = Some(self.asm.jcc8(CC_E));
            }
            self.asm.bytes(&[0x33, 0xD2]); // xor edx, edx
            if is64 {
                self.asm.bytes(&[0x48, 0xF7, 0xF1]); // div rcx
            } else {
                self.asm.bytes(&[0xF7, 0xF1]); // div ecx
            }
            if op == alu::MOD {
                if is64 {
                    self.asm.bytes(&[0x48, 0x8B, 0xC2]); // mov rax, rdx
                } else {
                    self.asm.bytes(&[0x8B, 0xC2]); // mov eax, edx
                }
            }
            if let Some(pos) = zero_jump {
                let done = self.asm.jmp8();
                self.asm.bind8(pos);
                if op == alu::DIV {
                    self.asm.bytes(&[0x33, 0xC0]); // xor eax, eax
                }
                self.asm.bind8(done);
            }
        }

        fn emit_byteswap(&mut self, dst: u8, bits: u8, to_be: bool, slot: usize) -> Result<()> {
            if bits == 64 && !to_be {
                return Ok(()); // identity
            }
            let work = self.acquire(dst, true, true);
            match (bits, to_be) {
                (16, true) => {
                    self.asm.b(0x66);
                    self.asm.shift_imm(false, 1, work, 8); // ror work16, 8
                    self.asm.op_rr(&[0x0F, 0xB7], false, work, work); // movzx
                }
                (16, false) => {
                    self.asm.op_rr(&[0x0F, 0xB7], false, work, work); // movzx
                }
                (32, true) => self.asm.bswap(false, work),
                (32, false) => {
                    self.asm.op_rr(&[0x8B], false, work, work); // truncate
                }
                (64, true) => self.asm.bswap(true, work),
                _ => return Err(Error::runtime(slot, format!("codegen: unsupported swap width {bits}"))),
            }
            self.release(dst, work);
            Ok(())
        }

        fn emit_jump_if(&mut self, insn: &Insn, target: u32, slot: usize) -> Result<()> {
            let (op, is64, dst) = (insn.opcode & 0xf0, insn.class() == class::JMP, insn.dst);
            let lhs = if dst == 10 {
                self.read_reg(RAX, dst, is64);
                RAX
            } else {
                self.acquire(dst, is64, true)
            };
            let is_set = op == jmp::JSET;
            if insn.opcode & src::X == 0 {
                if is_set {
                    self.asm.grp_f7(is64, 0, lhs); // test lhs, imm32
                    self.asm.i32v(insn.imm);
                } else {
                    self.asm.grp81(is64, 7, lhs, insn.imm); // cmp
                }
            } else {
                let src = insn.src;
                let rhs_host = if src == 10 {
                    self.asm.movabs_r(RDX, STACK_TOP);
                    RDX
                } else if let Some(hs) = self.home_of(src) {
                    hs
                } else {
                    self.load_frame(RDX, src, is64);
                    RDX
                };
                if is_set {
                    self.asm.op_rr(&[0x85], is64, rhs_host, lhs); // test
                } else {
                    self.asm.op_rr(&[0x3B], is64, lhs, rhs_host); // cmp
                }
            }
            let cc = match op {
                jmp::JEQ => CC_E,
                jmp::JNE | jmp::JSET => CC_NE,
                jmp::JGT => CC_A,
                jmp::JGE => CC_AE,
                jmp::JLT => CC_B,
                jmp::JLE => CC_BE,
                jmp::JSGT => CC_G,
                jmp::JSGE => CC_GE,
                jmp::JSLT => CC_L,
                jmp::JSLE => CC_LE,
                other => {
                    return Err(Error::runtime(slot, format!("codegen: unsupported jump op 0x{other:x}")))
                }
            };
            let pos = self.asm.jcc32(cc);
            self.fixups.push(Fixup::Slot(pos, target));
            Ok(())
        }

        /// Branch target of the jump at `slot`: `slot + 1 + off`.
        fn branch_target(&self, slot: usize, off: i16) -> Result<u32> {
            let target = slot as i64 + 1 + i64::from(off);
            if target < 0 || target as usize >= self.offsets.len() {
                return Err(Error::verifier(slot, "jump target out of bounds"));
            }
            Ok(target as u32)
        }

        fn emit_insn(&mut self, slot: usize, insn: &Insn) -> Result<()> {
            let (dst, src, off) = (insn.dst, insn.src, insn.off);
            let size = AccessSize::from_opcode(insn.opcode);
            match insn.class() {
                class::ALU | class::ALU64 => {
                    let is64 = insn.class() == class::ALU64;
                    match insn.opcode & 0xf0 {
                        alu::NEG => {
                            let work = self.acquire(dst, is64, true);
                            self.asm.grp_f7(is64, 3, work); // neg
                            self.release(dst, work);
                        }
                        alu::END => {
                            self.emit_byteswap(dst, insn.imm as u8, insn.opcode & src::X != 0, slot)?
                        }
                        op if insn.opcode & src::X != 0 => self.emit_alu_reg(op, is64, dst, src, slot)?,
                        op => self.emit_alu_imm(op, is64, dst, insn.imm, slot)?,
                    }
                }
                class::LD if insn.is_lddw() => {
                    let hi = self
                        .loaded
                        .program
                        .insns
                        .get(slot + 1)
                        .ok_or_else(|| Error::verifier(slot, "lddw missing second slot"))?;
                    let imm = (u64::from(hi.imm as u32) << 32) | u64::from(insn.imm as u32);
                    if let Some(h) = self.home_of(dst) {
                        self.asm.movabs_r(h, imm);
                    } else {
                        self.asm.movabs_r(RAX, imm);
                        self.store_frame(dst, RAX);
                    }
                }
                class::LDX => {
                    self.addr_to_rcx(src, off);
                    self.emit_load_access(slot, size, dst);
                }
                class::STX => {
                    self.addr_to_rcx(dst, off);
                    let value = self.reg_to_host(src);
                    self.emit_store_access(slot, size, value);
                }
                class::ST => {
                    self.addr_to_rcx(dst, off);
                    self.asm.movabs_r(RAX, insn.imm as i64 as u64);
                    self.emit_store_access(slot, size, RAX);
                }
                class::JMP | class::JMP32 => match insn.opcode & 0xf0 {
                    jmp::CALL => {
                        let id = insn.imm as u32;
                        let idx = self
                            .loaded
                            .helper_index(id)
                            .ok_or_else(|| Error::verifier(slot, format!("unknown helper {id}")))?;
                        self.emit_call(slot, idx, id);
                    }
                    jmp::EXIT => {
                        let pos = self.asm.jmp32();
                        self.fixups.push(Fixup::FlushExit(pos));
                    }
                    jmp::JA => {
                        let target = self.branch_target(slot, off)?;
                        let pos = self.asm.jmp32();
                        self.fixups.push(Fixup::Slot(pos, target));
                    }
                    _ => self.emit_jump_if(insn, self.branch_target(slot, off)?, slot)?,
                },
                _ => return Err(Error::verifier(slot, "unsupported instruction")),
            }
            Ok(())
        }
    }

    pub(super) fn compile(loaded: &LoadedProgram) -> Result<super::NativeProgram> {
        let insns = &loaded.program.insns;
        let facts = loaded.access_facts();
        let plan = plan_registers(insns, facts);
        let mut e = RegEmitter {
            asm: Asm::default(),
            facts,
            loaded,
            offsets: vec![0usize; insns.len()],
            fixups: Vec::new(),
            home: plan.home,
            homed: plan.homed.clone(),
            caller_homed: plan.caller_homed.clone(),
            elided_checks: 0,
            inlined_helpers: 0,
            reads_snapshot: false,
            reads_packet: false,
        };
        // The registers the code mentions: set on entry, written out on exit.
        let mut live_regs = 0u16;
        for (_, insn) in lowered(insns) {
            for_each_reg(insn, |r| live_regs |= 1 << r);
        }
        live_regs &= !(1 << 10);
        // Prologue: push rbx + the callee-saved homes. Entry rsp is at
        // 8 mod 16, so an odd push count re-aligns it for the trampoline
        // call sites; pad when the count comes out even.
        e.asm.b(0x53); // push rbx
        for &h in &plan.callee_used {
            if h >= 8 {
                e.asm.b(0x41);
            }
            e.asm.b(0x50 + (h & 7));
        }
        let pad = plan.has_calls && (1 + plan.callee_used.len()).is_multiple_of(2);
        if pad {
            e.asm.bytes(&[0x48, 0x83, 0xEC, 0x08]); // sub rsp, 8
        }
        e.asm.bytes(&[0x48, 0x89, 0xFB]); // mov rbx, rdi

        // Every register the code mentions starts where a reset state's
        // does — r1 at the context, the rest zero — written in its home or
        // frame word: nothing is copied in, and a register the run never
        // writes goes back out as the interpreter leaves it.
        for r in (0..10u8).filter(|r| live_regs & (1 << r) != 0) {
            let host = e.home_of(r).unwrap_or(RAX);
            if r == 1 {
                e.asm.movabs_r(host, CTX_BASE);
            } else {
                e.asm.op_rr(&[0x33], false, host, host); // xor r32, r32
            }
            e.write_reg(r, host);
        }
        for (slot, insn) in lowered(insns) {
            e.offsets[slot] = e.asm.here();
            e.emit_insn(slot, insn)?;
            if insn.is_lddw() {
                // The second slot emits nothing but keeps its own offset.
                e.offsets[slot + 1] = e.asm.here();
            }
        }
        // Fell-off-the-end guard (verifier-unreachable), as a recorded
        // fault.
        e.asm.b(0xB8);
        e.asm.i32v(insns.len() as i32 + 1);
        // Fault label: rax holds slot + 1; record it, then fall into the
        // flush (homes are current at every guard-fault site).
        let fault_label = e.asm.here();
        e.asm.bytes(&[0x48, 0x89]);
        e.asm.modrm_mem(RAX, RBX, OFF_FAULT);
        // Exit label: write every register the code mentions straight into
        // the run state's register file — a home from its register, a
        // frame-resident value through rax.
        let flush_label = e.asm.here();
        e.load_field(RDX, OFF_OUT_REGS);
        for r in (0..10u8).filter(|r| live_regs & (1 << r) != 0) {
            let value = e.home_of(r).unwrap_or_else(|| {
                e.load_frame(RAX, r, true);
                RAX
            });
            e.asm.op_rm(&[0x89], true, value, RDX, 8 * i32::from(r));
        }
        // Raw epilogue — also the trampoline-fault target (those flushed
        // to the frame before the call, which [`run`] copies out; their
        // caller-saved homes are clobbered and must not be written back).
        let epilogue_label = e.asm.here();
        if pad {
            e.asm.bytes(&[0x48, 0x83, 0xC4, 0x08]); // add rsp, 8
        }
        for &h in plan.callee_used.iter().rev() {
            if h >= 8 {
                e.asm.b(0x41);
            }
            e.asm.b(0x58 + (h & 7));
        }
        e.asm.bytes(&[0x5B, 0xC3]); // pop rbx; ret
        for fixup in std::mem::take(&mut e.fixups) {
            let (pos, target) = match fixup {
                Fixup::Slot(pos, slot) => (pos, e.offsets[slot as usize]),
                Fixup::Epilogue(pos) => (pos, epilogue_label),
                Fixup::Fault(pos) => (pos, fault_label),
                Fixup::FlushExit(pos) => (pos, flush_label),
            };
            let rel = (target as i64 - (pos as i64 + 4)) as i32;
            e.asm.code[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        let debug = super::NativeDebug {
            assignments: e.homed.iter().map(|&(r, h)| (r, host_reg_name(h))).collect(),
            spills: plan.spills,
            elided_checks: e.elided_checks,
            inlined_helpers: e.inlined_helpers,
        };
        let buf = ExecBuf::new(&e.asm.code)?;
        Ok(super::NativeProgram {
            buf,
            debug,
            live_regs,
            reads_snapshot: e.reads_snapshot,
            reads_packet: e.reads_packet,
        })
    }

    pub(super) fn run(
        native: &super::NativeProgram,
        loaded: &LoadedProgram,
        rc: &mut RunContext<'_>,
        state: &mut RunState,
    ) -> Result<u64> {
        // The code below writes the stack directly, never below the depth
        // the verifier proved; everything else goes through `write_bytes`.
        state.dirty_stack_from(STACK_SIZE.saturating_sub(loaded.verifier_stats.stack_depth));
        let bound = bind(state);
        // SAFETY: `bound` is the state's own block (see `bind`), not
        // aliased by any live reference: the state reaches it only through
        // its raw pointer, and the trampolines only through the frame's.
        unsafe {
            let frame = &mut (*bound).frame;
            // Per-invocation environment snapshot, for code that reads it
            // only — the sole readers of these fields. When the environment
            // opts in, they read the snapshot instead of calling back into
            // Rust; recording environments return `None`, which zeroes
            // `inline_flags` and sends every environment read (and per-CPU
            // lookup) through the trampoline, so their observable call
            // sequence is unchanged.
            if native.reads_snapshot {
                let (flags, ktime, cpu) = match rc.env.snapshot() {
                    Some(s) => (1u64, s.ktime_ns, u64::from(s.cpu_id)),
                    None => (0, 0, 0),
                };
                frame.inline_flags = flags;
                frame.inline_ktime = ktime;
                frame.inline_cpu = cpu;
            }
            frame.ctx_bias = (rc.ctx.as_mut_ptr() as u64).wrapping_sub(CTX_BASE);
            frame.ctx_len = rc.ctx.len() as u64;
            // Code with no direct packet access never reads the packet's
            // bias or length; a helper that moves the packet rebases it.
            if native.reads_packet {
                rebase_packet(frame, rc);
            }
            frame.fault = 0;
            let tc = &mut (*bound).tc;
            tc.state = state as *mut RunState;
            frame.out_regs = std::ptr::addr_of_mut!((*tc.state).regs) as u64;
            // The lifetime is erased for storage only; the trampolines
            // dereference it during this call alone.
            tc.rc = (rc as *mut RunContext<'_>).cast();
            tc.loaded = loaded;
        }
        // SAFETY: the buffer holds code emitted by `compile` for this
        // program, sealed RX; the entry point has the declared signature.
        // Every pointer in the frame and trampoline context was written
        // above for this call, and the generated code only dereferences
        // memory the verifier proved (or the emitted guards / trampolines
        // check) to be inside the frame, stack, ctx or packet buffers, and
        // on exit the state's register file `out_regs` points at, which
        // no reference touches during the call.
        unsafe {
            let entry: unsafe extern "C" fn(*mut NativeFrame) =
                std::mem::transmute::<*mut u8, unsafe extern "C" fn(*mut NativeFrame)>(native.buf.ptr);
            entry(std::ptr::addr_of_mut!((*bound).frame));
        }
        // SAFETY: the call returned; nothing else refers to the block.
        let (frame, tc) = unsafe { (&(*bound).frame, &mut (*bound).tc) };
        if frame.fault != 0 {
            if let Some(error) = tc.error.take() {
                // A trampoline fault left through the raw epilogue, with
                // the registers in the frame.
                copy_regs(&mut state.regs, &frame.regs, native.live_regs);
                return Err(error);
            }
            let insn = (frame.fault - 1) as usize;
            return Err(Error::runtime(insn, format!("invalid memory access at insn {insn}")));
        }
        Ok(state.regs[0])
    }
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::{alu, jmp, AccessSize, Insn};
    use crate::program::{load, Program, ProgramType};
    use crate::vm::{NullEnv, RunState, CTX_BASE, STACK_BASE};
    use std::collections::HashMap;

    fn run_native(prog: Program, ctx: &mut [u8], pkt: &mut Vec<u8>) -> Result<u64> {
        let helpers = HelperRegistry::with_base_helpers();
        let loaded = load(prog, &HashMap::new(), &helpers).unwrap();
        let native = compile(&loaded).unwrap().expect("x86-64 backend");
        let mut env = NullEnv;
        let mut rc = crate::vm::RunContext::new(ctx, pkt, &mut env);
        let mut state = RunState::new(rc.ctx.len());
        run(&native, &loaded, &mut rc, &mut state)
    }

    #[test]
    fn native_arithmetic_matches_interpreter() {
        let insns = vec![
            Insn::mov64_imm(0, 5),
            Insn::alu64_imm(alu::MUL, 0, 7),
            Insn::alu64_imm(alu::SUB, 0, 1),
            Insn::mov64_imm(1, 0),
            Insn::alu64_reg(alu::ADD, 0, 1),
            Insn::alu64_imm(alu::RSH, 0, 1),
            Insn::exit(),
        ];
        let prog = Program::new("arith", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 0];
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), 17);
    }

    /// A branch lands on `slot + 1 + off`, counting an `lddw`'s second
    /// slot: the jump at slot 1 skips the pair and lands on `exit`.
    #[test]
    fn native_branch_targets_resolve_to_slot_plus_one_plus_off() {
        for (r0, expected) in [(0, 0), (1, 0x1234_5678_9abc_def0)] {
            let insns = vec![
                Insn::mov64_imm(0, r0),
                Insn::jmp_imm(jmp::JEQ, 0, 0, 2),
                Insn::lddw_lo(0, 0x1234_5678_9abc_def0),
                Insn::lddw_hi(0x1234_5678_9abc_def0),
                Insn::exit(),
            ];
            let prog = Program::new("branch", ProgramType::SocketFilter, insns);
            let (mut ctx, mut pkt) = (vec![0u8; 16], vec![]);
            assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), expected, "r0 = {r0}");
        }
    }

    /// An `lddw` pair lowers to one `movabs`: its second slot adds no code.
    #[test]
    fn native_lddw_second_slot_emits_nothing() {
        let code_len = |pairs: usize| {
            let mut insns = Vec::new();
            for value in (0..pairs as u64).map(|i| 0x1111_2222_3333_4444 * (i + 1)) {
                insns.extend([Insn::lddw_lo(0, value), Insn::lddw_hi(value)]);
            }
            insns.push(Insn::exit());
            let prog = Program::new("lddw", ProgramType::SocketFilter, insns);
            let loaded = load(prog, &HashMap::new(), &HelperRegistry::with_base_helpers()).unwrap();
            compile(&loaded).unwrap().expect("x86-64 backend").code_len()
        };
        assert_eq!(code_len(2) - code_len(1), 10, "movabs r64, imm64");
        let prog = Program::new(
            "lddw",
            ProgramType::SocketFilter,
            vec![Insn::lddw_lo(0, u64::MAX - 1), Insn::lddw_hi(u64::MAX - 1), Insn::exit()],
        );
        let (mut ctx, mut pkt) = (vec![0u8; 16], vec![]);
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn native_divide_by_zero_register_semantics() {
        let insns = vec![
            Insn::mov64_imm(0, 100),
            Insn::mov64_imm(1, 0),
            Insn::alu64_reg(alu::DIV, 0, 1),
            Insn::exit(),
        ];
        let prog = Program::new("divzero", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 0];
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), 0);
    }

    #[test]
    fn native_stack_roundtrip_and_branch() {
        let insns = vec![
            Insn::mov64_imm(1, 0x1234),
            Insn::store_reg(AccessSize::Double, 10, 1, -8),
            Insn::load(AccessSize::Half, 0, 10, -8),
            Insn::jmp_imm(jmp::JEQ, 0, 0x1234, 1),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        let prog = Program::new("stack", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 0];
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), 0x1234);
    }

    #[test]
    fn native_ctx_guard_faults_on_short_context() {
        // Load past the runtime context length: the verifier allows it (the
        // maximum layout is larger) but the emitted guard must fault with
        // the interpreter's error position.
        let insns = vec![Insn::load(AccessSize::Double, 0, 1, 64), Insn::exit()];
        let prog = Program::new("shortctx", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 0];
        let err = run_native(prog, &mut ctx, &mut pkt).unwrap_err();
        match err {
            crate::error::Error::Runtime { insn, .. } => assert_eq!(insn, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn native_reads_context_bytes() {
        let insns = vec![Insn::load(AccessSize::Word, 0, 1, 4), Insn::exit()];
        let prog = Program::new("ctxread", ProgramType::SocketFilter, insns);
        let mut ctx = vec![0u8; 16];
        ctx[4..8].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        let mut pkt = vec![0u8; 0];
        assert_eq!(run_native(prog, &mut ctx, &mut pkt).unwrap(), 0xdead_beef);
    }

    #[test]
    fn supported_reports_this_target() {
        assert!(supported());
        let _ = (STACK_BASE, CTX_BASE); // silence unused imports on cfg skew
    }
}
