//! The pre-decoded micro-op engine — the portable execution tier, and the
//! stream the native emitter ([`crate::codegen`]) lowers.
//!
//! This module does what the kernel JIT does conceptually without emitting
//! machine code: it removes the per-instruction fetch/decode/validate
//! work from the hot path. A verified program is compiled once into a
//! vector of [`MicroOp`]s with
//!
//! * operand fields already extracted and sign-extended,
//! * branch targets resolved to absolute instruction indices,
//! * `lddw` pairs fused into a single operation,
//! * no per-step register-index or budget checks (the verifier already
//!   guarantees termination and register validity).
//!
//! The speed difference between [`run`] and the interpreter is what the
//! workspace reports wherever the paper compares JIT and non-JIT numbers
//! (Figure 2's "Add TLV no JIT" bar, §3.2's ÷1.8 factor, §4.2's ARM32
//! discussion).

use crate::error::{Error, Result};
use crate::helpers::HelperFn;
use crate::insn::{alu, class, jmp, src, AccessSize, Insn};
use crate::program::LoadedProgram;
use crate::vm::{jump_taken, load_scalar, store_scalar, HelperApi, RunContext, RunState};

/// Comparison operand of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Immediate operand (already sign-extended to 64 bits).
    Imm(u64),
    /// Register operand.
    Reg(u8),
}

/// A single pre-decoded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// ALU operation with an immediate operand.
    AluImm {
        /// Operation code (the `alu::*` constants).
        op: u8,
        /// 64-bit (`true`) or 32-bit (`false`) semantics.
        is64: bool,
        /// Destination register.
        dst: u8,
        /// Sign-extended immediate.
        imm: u64,
    },
    /// ALU operation with a register operand.
    AluReg {
        /// Operation code (the `alu::*` constants).
        op: u8,
        /// 64-bit (`true`) or 32-bit (`false`) semantics.
        is64: bool,
        /// Destination register.
        dst: u8,
        /// Source register.
        src: u8,
    },
    /// Arithmetic negation.
    Neg {
        /// 64-bit (`true`) or 32-bit (`false`) semantics.
        is64: bool,
        /// Destination register.
        dst: u8,
    },
    /// Byte-swap.
    ByteSwap {
        /// Destination register.
        dst: u8,
        /// Width in bits (16, 32 or 64).
        bits: u8,
        /// Swap to big-endian (`true`) or little-endian (`false`).
        to_be: bool,
    },
    /// Load a 64-bit immediate (fused `lddw`).
    LoadImm64 {
        /// Destination register.
        dst: u8,
        /// The immediate.
        imm: u64,
    },
    /// Memory load.
    Load {
        /// Access width.
        size: AccessSize,
        /// Destination register.
        dst: u8,
        /// Base-address register.
        src: u8,
        /// Displacement.
        off: i16,
    },
    /// Memory store of a register.
    StoreReg {
        /// Access width.
        size: AccessSize,
        /// Base-address register.
        dst: u8,
        /// Value register.
        src: u8,
        /// Displacement.
        off: i16,
    },
    /// Memory store of an immediate.
    StoreImm {
        /// Access width.
        size: AccessSize,
        /// Base-address register.
        dst: u8,
        /// Displacement.
        off: i16,
        /// Value.
        imm: u64,
    },
    /// Unconditional jump to an absolute micro-op index.
    Jump {
        /// Target index.
        target: u32,
    },
    /// Conditional jump to an absolute micro-op index.
    JumpIf {
        /// Comparison code (the `jmp::*` constants).
        op: u8,
        /// 64-bit (`true`) or 32-bit (`false`) comparison.
        is64: bool,
        /// Left-hand register.
        dst: u8,
        /// Right-hand operand.
        rhs: Operand,
        /// Target index when the condition holds.
        target: u32,
    },
    /// Helper call, pre-resolved at compile time to an index into the
    /// program's dense helper table
    /// ([`LoadedProgram::helper_table`]) — the hot path never looks a
    /// helper id up again.
    Call {
        /// Index into the loaded program's helper table.
        idx: u32,
        /// Helper id, kept for diagnostics.
        id: u32,
    },
    /// Program exit.
    Exit,
    /// Placeholder for the second slot of an `lddw`; never executed.
    Nop,
}

impl MicroOp {
    /// Calls `f` with every BPF register this op reads or writes — the
    /// liveness metadata the native tier's register allocator consumes. A
    /// helper call mentions `r0`–`r5` (arguments and return value), `Exit`
    /// mentions `r0`.
    pub fn for_each_reg(&self, mut f: impl FnMut(u8)) {
        match *self {
            MicroOp::AluImm { dst, .. }
            | MicroOp::Neg { dst, .. }
            | MicroOp::ByteSwap { dst, .. }
            | MicroOp::LoadImm64 { dst, .. }
            | MicroOp::StoreImm { dst, .. } => f(dst),
            MicroOp::AluReg { dst, src, .. }
            | MicroOp::Load { dst, src, .. }
            | MicroOp::StoreReg { dst, src, .. } => {
                f(dst);
                f(src);
            }
            MicroOp::JumpIf { dst, rhs, .. } => {
                f(dst);
                if let Operand::Reg(src) = rhs {
                    f(src);
                }
            }
            MicroOp::Call { .. } => {
                for reg in 0..6 {
                    f(reg);
                }
            }
            MicroOp::Exit => f(0),
            MicroOp::Jump { .. } | MicroOp::Nop => {}
        }
    }
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct JitProgram {
    ops: Vec<MicroOp>,
}

impl JitProgram {
    /// Number of micro-ops (equal to the instruction count; `lddw` second
    /// slots become [`MicroOp::Nop`]).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The micro-ops: what [`run_with_state`] steps through and the native
    /// emitter lowers.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }
}

/// Compiles a verified program into micro-ops.
pub fn compile(loaded: &LoadedProgram) -> Result<JitProgram> {
    let insns = &loaded.program.insns;
    let mut ops = Vec::with_capacity(insns.len());
    let mut skip_next = false;
    for (pc, insn) in insns.iter().enumerate() {
        if skip_next {
            ops.push(MicroOp::Nop);
            skip_next = false;
            continue;
        }
        let op = compile_insn(loaded, insn, insns.get(pc + 1), pc, insns.len())?;
        if matches!(op, MicroOp::LoadImm64 { .. }) {
            skip_next = true;
        }
        ops.push(op);
    }
    Ok(JitProgram { ops })
}

fn compile_insn(
    loaded: &LoadedProgram,
    insn: &Insn,
    next: Option<&Insn>,
    pc: usize,
    len: usize,
) -> Result<MicroOp> {
    let branch_target = |off: i16| -> Result<u32> {
        let target = pc as i64 + 1 + i64::from(off);
        if target < 0 || target as usize >= len {
            return Err(Error::verifier(pc, "jump target out of bounds"));
        }
        Ok(target as u32)
    };
    let op = match insn.class() {
        class::ALU | class::ALU64 => {
            let is64 = insn.class() == class::ALU64;
            let aluop = insn.opcode & 0xf0;
            if aluop == alu::NEG {
                MicroOp::Neg { is64, dst: insn.dst }
            } else if aluop == alu::END {
                MicroOp::ByteSwap { dst: insn.dst, bits: insn.imm as u8, to_be: insn.opcode & src::X != 0 }
            } else if insn.opcode & src::X != 0 {
                MicroOp::AluReg { op: aluop, is64, dst: insn.dst, src: insn.src }
            } else {
                MicroOp::AluImm { op: aluop, is64, dst: insn.dst, imm: insn.imm as i64 as u64 }
            }
        }
        class::LD => {
            if !insn.is_lddw() {
                return Err(Error::verifier(pc, "unsupported LD mode"));
            }
            let hi = next.ok_or_else(|| Error::verifier(pc, "lddw missing second slot"))?;
            let imm = (u64::from(hi.imm as u32) << 32) | u64::from(insn.imm as u32);
            MicroOp::LoadImm64 { dst: insn.dst, imm }
        }
        class::LDX => MicroOp::Load {
            size: AccessSize::from_opcode(insn.opcode),
            dst: insn.dst,
            src: insn.src,
            off: insn.off,
        },
        class::STX => MicroOp::StoreReg {
            size: AccessSize::from_opcode(insn.opcode),
            dst: insn.dst,
            src: insn.src,
            off: insn.off,
        },
        class::ST => MicroOp::StoreImm {
            size: AccessSize::from_opcode(insn.opcode),
            dst: insn.dst,
            off: insn.off,
            imm: insn.imm as i64 as u64,
        },
        class::JMP | class::JMP32 => {
            let is64 = insn.class() == class::JMP;
            match insn.opcode & 0xf0 {
                jmp::CALL => {
                    let id = insn.imm as u32;
                    let idx = loaded
                        .helper_index(id)
                        .ok_or_else(|| Error::verifier(pc, format!("unknown helper {id}")))?;
                    MicroOp::Call { idx, id }
                }
                jmp::EXIT => MicroOp::Exit,
                jmp::JA => MicroOp::Jump { target: branch_target(insn.off)? },
                cond => {
                    let rhs = if insn.opcode & src::X != 0 {
                        Operand::Reg(insn.src)
                    } else {
                        Operand::Imm(insn.imm as i64 as u64)
                    };
                    MicroOp::JumpIf { op: cond, is64, dst: insn.dst, rhs, target: branch_target(insn.off)? }
                }
            }
        }
        other => return Err(Error::verifier(pc, format!("unknown instruction class {other}"))),
    };
    Ok(op)
}

fn alu_apply(op: u8, is64: bool, dst: u64, rhs: u64) -> u64 {
    let value = match op {
        alu::ADD => dst.wrapping_add(rhs),
        alu::SUB => dst.wrapping_sub(rhs),
        alu::MUL => dst.wrapping_mul(rhs),
        alu::DIV => {
            if is64 {
                dst.checked_div(rhs).unwrap_or(0)
            } else {
                (dst as u32).checked_div(rhs as u32).map_or(0, u64::from)
            }
        }
        alu::MOD => {
            if is64 {
                if rhs == 0 {
                    dst
                } else {
                    dst % rhs
                }
            } else if rhs as u32 == 0 {
                dst
            } else {
                u64::from(dst as u32 % rhs as u32)
            }
        }
        alu::OR => dst | rhs,
        alu::AND => dst & rhs,
        alu::XOR => dst ^ rhs,
        alu::LSH => {
            if is64 {
                dst.wrapping_shl(rhs as u32)
            } else {
                u64::from((dst as u32).wrapping_shl(rhs as u32))
            }
        }
        alu::RSH => {
            if is64 {
                dst.wrapping_shr(rhs as u32)
            } else {
                u64::from((dst as u32).wrapping_shr(rhs as u32))
            }
        }
        alu::ARSH => {
            if is64 {
                (dst as i64).wrapping_shr(rhs as u32) as u64
            } else {
                u64::from((dst as i32).wrapping_shr(rhs as u32) as u32)
            }
        }
        alu::MOV => rhs,
        _ => dst,
    };
    if is64 {
        value
    } else {
        u64::from(value as u32)
    }
}

/// Runs a compiled program and returns r0.
pub fn run(compiled: &JitProgram, loaded: &LoadedProgram, rc: &mut RunContext<'_>) -> Result<u64> {
    let mut state = RunState::new(rc.ctx.len());
    run_with_state(compiled, loaded, rc, &mut state)
}

/// Runs a compiled program with a caller-provided state. Helper calls
/// dispatch through the program's load-time table.
pub fn run_with_state(
    compiled: &JitProgram,
    loaded: &LoadedProgram,
    rc: &mut RunContext<'_>,
    state: &mut RunState,
) -> Result<u64> {
    let ops = &compiled.ops;
    let mut pc = 0usize;
    loop {
        let op = ops.get(pc).ok_or_else(|| Error::runtime(pc, "program counter out of bounds"))?;
        match step(op, pc, loaded, rc, state)? {
            Some(next) => pc = next,
            None => return Ok(state.regs[0]),
        }
    }
}

/// Executes the micro-op at `pc` and returns the next program counter, or
/// `None` when the program exits (r0 holds the result). The one portable
/// definition of what each [`MicroOp`] does; the x86-64 emitter
/// ([`crate::codegen`]) lowers the same stream. Every op but `Exit` counts
/// as one executed instruction.
#[inline(always)]
fn step(
    op: &MicroOp,
    pc: usize,
    loaded: &LoadedProgram,
    rc: &mut RunContext<'_>,
    state: &mut RunState,
) -> Result<Option<usize>> {
    let mut next = pc + 1;
    match op {
        MicroOp::AluImm { op, is64, dst, imm } => {
            let d = usize::from(*dst);
            state.regs[d] = alu_apply(*op, *is64, state.regs[d], *imm);
        }
        MicroOp::AluReg { op, is64, dst, src } => {
            let d = usize::from(*dst);
            let rhs = state.regs[usize::from(*src)];
            state.regs[d] = alu_apply(*op, *is64, state.regs[d], rhs);
        }
        MicroOp::Neg { is64, dst } => {
            let d = usize::from(*dst);
            state.regs[d] = if *is64 {
                (state.regs[d] as i64).wrapping_neg() as u64
            } else {
                u64::from((state.regs[d] as i32).wrapping_neg() as u32)
            };
        }
        MicroOp::ByteSwap { dst, bits, to_be } => {
            let d = usize::from(*dst);
            let value = state.regs[d];
            state.regs[d] = match (bits, to_be) {
                (16, true) => u64::from((value as u16).swap_bytes()),
                (16, false) => u64::from(value as u16),
                (32, true) => u64::from((value as u32).swap_bytes()),
                (32, false) => u64::from(value as u32),
                (64, true) => value.swap_bytes(),
                _ => value,
            };
        }
        MicroOp::LoadImm64 { dst, imm } => {
            state.regs[usize::from(*dst)] = *imm;
            next = pc + 2;
        }
        MicroOp::Load { size, dst, src, off } => {
            let addr = state.regs[usize::from(*src)].wrapping_add(*off as i64 as u64);
            state.regs[usize::from(*dst)] = load_scalar(state, rc, addr, *size).map_err(|e| at(e, pc))?;
        }
        MicroOp::StoreReg { size, dst, src, off } => {
            let addr = state.regs[usize::from(*dst)].wrapping_add(*off as i64 as u64);
            let value = state.regs[usize::from(*src)];
            store_scalar(state, rc, addr, *size, value).map_err(|e| at(e, pc))?;
        }
        MicroOp::StoreImm { size, dst, off, imm } => {
            let addr = state.regs[usize::from(*dst)].wrapping_add(*off as i64 as u64);
            store_scalar(state, rc, addr, *size, *imm).map_err(|e| at(e, pc))?;
        }
        MicroOp::Jump { target } => next = *target as usize,
        MicroOp::JumpIf { op, is64, dst, rhs, target } => {
            let lhs = state.regs[usize::from(*dst)];
            let rhs = match rhs {
                Operand::Imm(v) => *v,
                Operand::Reg(r) => state.regs[usize::from(*r)],
            };
            if jump_taken(*op, *is64, lhs, rhs) {
                next = *target as usize;
            }
        }
        MicroOp::Call { idx, id } => {
            let desc = loaded
                .helper_table()
                .get(*idx as usize)
                .ok_or_else(|| Error::runtime(pc, format!("unknown helper {id}")))?;
            let func: HelperFn = desc.func;
            let args = [state.regs[1], state.regs[2], state.regs[3], state.regs[4], state.regs[5]];
            let ret = {
                let mut api = HelperApi { state, rc, maps: &loaded.maps };
                (func)(&mut api, args)
            };
            state.regs[0] = ret as u64;
        }
        MicroOp::Exit => return Ok(None),
        // The second slot of an `lddw`: never a jump target.
        MicroOp::Nop => {}
    }
    state.insn_executed += 1;
    Ok(Some(next))
}

fn at(err: Error, pc: usize) -> Error {
    match err {
        Error::Runtime { message, .. } => Error::Runtime { insn: pc, message },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::{alu, jmp, AccessSize, Insn};
    use crate::interp;
    use crate::program::{load, Program, ProgramType};
    use crate::vm::{NullEnv, RunContext, PKT_BASE};
    use std::collections::HashMap;

    fn load_prog(insns: Vec<Insn>) -> std::sync::Arc<LoadedProgram> {
        let prog = Program::new("jit-test", ProgramType::LwtXmit, insns);
        load(prog, &HashMap::new(), &HelperRegistry::with_base_helpers()).unwrap()
    }

    fn lwt_ctx(packet_len: usize) -> Vec<u8> {
        let mut ctx = vec![0u8; 32];
        ctx[0..8].copy_from_slice(&PKT_BASE.to_le_bytes());
        ctx[8..16].copy_from_slice(&(PKT_BASE + packet_len as u64).to_le_bytes());
        ctx
    }

    fn run_both(insns: Vec<Insn>, packet: Vec<u8>) -> (u64, u64) {
        let loaded = load_prog(insns);
        let compiled = compile(&loaded).unwrap();
        let image = interp::InterpreterImage::new(&loaded);

        let mut env = NullEnv;
        let mut ctx = lwt_ctx(packet.len());
        let mut pkt1 = packet.clone();
        let jit_result = {
            let mut rc = RunContext { ctx: &mut ctx, packet: &mut pkt1, env: &mut env };
            run(&compiled, &loaded, &mut rc).unwrap()
        };
        let mut ctx2 = lwt_ctx(packet.len());
        let mut pkt2 = packet;
        let interp_result = {
            let mut rc = RunContext { ctx: &mut ctx2, packet: &mut pkt2, env: &mut env };
            interp::run(&image, &loaded, &mut rc).unwrap()
        };
        (jit_result, interp_result)
    }

    #[test]
    fn jit_matches_interpreter_on_arithmetic() {
        let insns = vec![
            Insn::mov64_imm(1, 100),
            Insn::alu64_imm(alu::MUL, 1, 3),
            Insn::alu64_imm(alu::SUB, 1, 58),
            Insn::mov64_reg(0, 1),
            Insn::alu32_imm(alu::ADD, 0, 1),
            Insn::exit(),
        ];
        let (a, b) = run_both(insns, vec![0u8; 8]);
        assert_eq!(a, b);
        assert_eq!(a, 243);
    }

    #[test]
    fn jit_matches_interpreter_on_branches_and_memory() {
        let insns = vec![
            Insn::load(AccessSize::Double, 2, 1, 0),
            Insn::load(AccessSize::Half, 3, 2, 0),
            Insn::to_be(3, 16),
            Insn::store_reg(AccessSize::Double, 10, 3, -8),
            Insn::load(AccessSize::Double, 0, 10, -8),
            Insn::jmp_imm(jmp::JGT, 0, 0x1000, 1),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        let (a, b) = run_both(insns.clone(), vec![0x12, 0x34, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a, b);
        assert_eq!(a, 0x1234);
        let (a, b) = run_both(insns, vec![0x00, 0x34, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a, b);
        assert_eq!(a, 0);
    }

    #[test]
    fn compile_resolves_branch_targets() {
        let insns = vec![
            Insn::mov64_imm(0, 0),
            Insn::jmp_imm(jmp::JEQ, 0, 0, 1),
            Insn::mov64_imm(0, 1),
            Insn::exit(),
        ];
        let loaded = load_prog(insns);
        let compiled = compile(&loaded).unwrap();
        match compiled.ops()[1] {
            MicroOp::JumpIf { target, .. } => assert_eq!(target, 3),
            ref other => panic!("unexpected op {other:?}"),
        }
        assert_eq!(compiled.len(), 4);
        assert!(!compiled.is_empty());
    }

    #[test]
    fn lddw_second_slot_becomes_nop() {
        let insns = vec![Insn::lddw_lo(0, 5), Insn::lddw_hi(5), Insn::exit()];
        let loaded = load_prog(insns);
        let compiled = compile(&loaded).unwrap();
        assert_eq!(compiled.ops()[1], MicroOp::Nop);
    }

    #[test]
    fn helper_call_through_jit() {
        let insns = vec![Insn::call(crate::helpers::ids::GET_PRANDOM_U32), Insn::exit()];
        let (a, b) = run_both(insns, vec![0u8; 8]);
        assert_eq!(a, b); // NullEnv's deterministic value
    }
}
