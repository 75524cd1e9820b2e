//! The micro-op lowering: the stream the native emitter
//! ([`crate::codegen`]) consumes.
//!
//! A verified program is lowered once, at load time, into a vector of
//! [`MicroOp`]s with
//!
//! * operand fields already extracted and sign-extended,
//! * branch targets resolved to absolute instruction indices,
//! * `lddw` pairs fused into a single operation,
//! * helper ids resolved to indices into the program's load-time helper
//!   table.
//!
//! Micro-ops are not executed: a program runs on the interpreter
//! ([`crate::interp`]) or as native code, as the kernel runs eBPF either
//! interpreted or JIT-compiled.

use crate::error::{Error, Result};
use crate::insn::{alu, class, jmp, src, AccessSize, Insn};
use crate::program::LoadedProgram;

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
    /// Placeholder for the second slot of an `lddw`; lowers to no code.
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

    /// The micro-ops, in instruction-slot order.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::{jmp, Insn};
    use crate::program::{load, Program, ProgramType};
    use std::collections::HashMap;

    fn load_prog(insns: Vec<Insn>) -> std::sync::Arc<LoadedProgram> {
        let prog = Program::new("jit-test", ProgramType::LwtXmit, insns);
        load(prog, &HashMap::new(), &HelperRegistry::with_base_helpers()).unwrap()
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
}
