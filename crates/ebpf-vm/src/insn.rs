//! The eBPF instruction set.
//!
//! eBPF instructions are 64 bits wide: an 8-bit opcode, two 4-bit register
//! numbers, a 16-bit signed offset and a 32-bit signed immediate. The opcode
//! is split into a 3-bit *class* plus class-specific fields, exactly as in
//! the kernel's `Documentation/networking/filter.txt` (referenced by the
//! paper as \[3\]). The 64-bit-immediate load (`lddw`) occupies two
//! consecutive instruction slots.

use std::fmt;

/// Number of general-purpose registers (r0–r10).
pub const NUM_REGS: usize = 11;
/// The read-only frame pointer register.
pub const REG_FP: u8 = 10;
/// Size of the per-invocation stack, in bytes.
pub const STACK_SIZE: usize = 512;
/// Maximum number of instructions accepted by the verifier.
pub const MAX_INSNS: usize = 4096;

/// Instruction classes (lowest 3 bits of the opcode).
pub mod class {
    /// Load from immediate / legacy packet access.
    pub const LD: u8 = 0x00;
    /// Load from memory into a register.
    pub const LDX: u8 = 0x01;
    /// Store an immediate to memory.
    pub const ST: u8 = 0x02;
    /// Store a register to memory.
    pub const STX: u8 = 0x03;
    /// 32-bit arithmetic.
    pub const ALU: u8 = 0x04;
    /// 64-bit jumps.
    pub const JMP: u8 = 0x05;
    /// 32-bit jumps.
    pub const JMP32: u8 = 0x06;
    /// 64-bit arithmetic.
    pub const ALU64: u8 = 0x07;
}

/// ALU / ALU64 operation codes (bits 4–7 of the opcode).
pub mod alu {
    /// dst += src
    pub const ADD: u8 = 0x00;
    /// dst -= src
    pub const SUB: u8 = 0x10;
    /// dst *= src
    pub const MUL: u8 = 0x20;
    /// dst /= src (unsigned)
    pub const DIV: u8 = 0x30;
    /// dst |= src
    pub const OR: u8 = 0x40;
    /// dst &= src
    pub const AND: u8 = 0x50;
    /// dst <<= src
    pub const LSH: u8 = 0x60;
    /// dst >>= src (logical)
    pub const RSH: u8 = 0x70;
    /// dst = -dst
    pub const NEG: u8 = 0x80;
    /// dst %= src (unsigned)
    pub const MOD: u8 = 0x90;
    /// dst ^= src
    pub const XOR: u8 = 0xa0;
    /// dst = src
    pub const MOV: u8 = 0xb0;
    /// dst >>= src (arithmetic)
    pub const ARSH: u8 = 0xc0;
    /// Byte-swap (endianness conversion).
    pub const END: u8 = 0xd0;
}

/// JMP / JMP32 operation codes (bits 4–7 of the opcode).
pub mod jmp {
    /// Unconditional jump.
    pub const JA: u8 = 0x00;
    /// Jump if equal.
    pub const JEQ: u8 = 0x10;
    /// Jump if greater (unsigned).
    pub const JGT: u8 = 0x20;
    /// Jump if greater or equal (unsigned).
    pub const JGE: u8 = 0x30;
    /// Jump if `dst & src` is non-zero.
    pub const JSET: u8 = 0x40;
    /// Jump if not equal.
    pub const JNE: u8 = 0x50;
    /// Jump if greater (signed).
    pub const JSGT: u8 = 0x60;
    /// Jump if greater or equal (signed).
    pub const JSGE: u8 = 0x70;
    /// Call a helper function.
    pub const CALL: u8 = 0x80;
    /// Return from the program.
    pub const EXIT: u8 = 0x90;
    /// Jump if lower (unsigned).
    pub const JLT: u8 = 0xa0;
    /// Jump if lower or equal (unsigned).
    pub const JLE: u8 = 0xb0;
    /// Jump if lower (signed).
    pub const JSLT: u8 = 0xc0;
    /// Jump if lower or equal (signed).
    pub const JSLE: u8 = 0xd0;
}

/// Source-operand selector (bit 3 of ALU/JMP opcodes).
pub mod src {
    /// Use the 32-bit immediate.
    pub const K: u8 = 0x00;
    /// Use the source register.
    pub const X: u8 = 0x08;
}

/// Memory access sizes (bits 3–4 of LD/LDX/ST/STX opcodes).
pub mod size {
    /// 32-bit word.
    pub const W: u8 = 0x00;
    /// 16-bit half word.
    pub const H: u8 = 0x08;
    /// Byte.
    pub const B: u8 = 0x10;
    /// 64-bit double word.
    pub const DW: u8 = 0x18;
}

/// Memory access modes (bits 5–7 of LD/LDX/ST/STX opcodes).
pub mod mode {
    /// Immediate (only used by `lddw`).
    pub const IMM: u8 = 0x00;
    /// Register + offset addressing.
    pub const MEM: u8 = 0x60;
}

/// Width of a memory access, decoded from the opcode size bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessSize {
    /// One byte.
    Byte,
    /// Two bytes.
    Half,
    /// Four bytes.
    Word,
    /// Eight bytes.
    Double,
}

impl AccessSize {
    /// Number of bytes accessed.
    pub fn bytes(self) -> usize {
        match self {
            AccessSize::Byte => 1,
            AccessSize::Half => 2,
            AccessSize::Word => 4,
            AccessSize::Double => 8,
        }
    }

    /// Decodes the opcode size bits.
    pub fn from_opcode(op: u8) -> AccessSize {
        match op & 0x18 {
            size::B => AccessSize::Byte,
            size::H => AccessSize::Half,
            size::W => AccessSize::Word,
            _ => AccessSize::Double,
        }
    }

    /// Opcode size bits for this width.
    pub fn to_bits(self) -> u8 {
        match self {
            AccessSize::Byte => size::B,
            AccessSize::Half => size::H,
            AccessSize::Word => size::W,
            AccessSize::Double => size::DW,
        }
    }
}

/// A single eBPF instruction in its canonical (unpacked) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    /// Opcode byte.
    pub opcode: u8,
    /// Destination register (0–10).
    pub dst: u8,
    /// Source register (0–10).
    pub src: u8,
    /// Signed 16-bit offset (jump target delta or memory displacement).
    pub off: i16,
    /// Signed 32-bit immediate.
    pub imm: i32,
}

impl Insn {
    /// The instruction class (lowest 3 bits of the opcode).
    pub fn class(&self) -> u8 {
        self.opcode & 0x07
    }

    /// Whether this is the first slot of a two-slot `lddw` instruction.
    pub fn is_lddw(&self) -> bool {
        self.opcode == (class::LD | mode::IMM | size::DW)
    }

    /// Whether this is a helper call (`JMP` or `JMP32` class, `CALL` op).
    /// An `lddw` second slot carries opcode 0, so it is never one.
    pub fn is_call(&self) -> bool {
        matches!(self.class(), class::JMP | class::JMP32) && self.opcode & 0xf0 == jmp::CALL
    }

    // ---- constructors -----------------------------------------------------

    /// `dst = imm` (64-bit move of a 32-bit sign-extended immediate).
    pub fn mov64_imm(dst: u8, imm: i32) -> Insn {
        Insn { opcode: class::ALU64 | src::K | alu::MOV, dst, src: 0, off: 0, imm }
    }

    /// `dst = src` (64-bit register move).
    pub fn mov64_reg(dst: u8, src_reg: u8) -> Insn {
        Insn { opcode: class::ALU64 | src::X | alu::MOV, dst, src: src_reg, off: 0, imm: 0 }
    }

    /// `w(dst) = imm` (32-bit move, upper half zeroed).
    pub fn mov32_imm(dst: u8, imm: i32) -> Insn {
        Insn { opcode: class::ALU | src::K | alu::MOV, dst, src: 0, off: 0, imm }
    }

    /// `w(dst) = w(src)` (32-bit register move, upper half zeroed).
    pub fn mov32_reg(dst: u8, src_reg: u8) -> Insn {
        Insn { opcode: class::ALU | src::X | alu::MOV, dst, src: src_reg, off: 0, imm: 0 }
    }

    /// 64-bit ALU operation with an immediate operand.
    pub fn alu64_imm(op: u8, dst: u8, imm: i32) -> Insn {
        Insn { opcode: class::ALU64 | src::K | op, dst, src: 0, off: 0, imm }
    }

    /// 64-bit ALU operation with a register operand.
    pub fn alu64_reg(op: u8, dst: u8, src_reg: u8) -> Insn {
        Insn { opcode: class::ALU64 | src::X | op, dst, src: src_reg, off: 0, imm: 0 }
    }

    /// 32-bit ALU operation with an immediate operand.
    pub fn alu32_imm(op: u8, dst: u8, imm: i32) -> Insn {
        Insn { opcode: class::ALU | src::K | op, dst, src: 0, off: 0, imm }
    }

    /// 32-bit ALU operation with a register operand.
    pub fn alu32_reg(op: u8, dst: u8, src_reg: u8) -> Insn {
        Insn { opcode: class::ALU | src::X | op, dst, src: src_reg, off: 0, imm: 0 }
    }

    /// `dst = *(size *)(src + off)`.
    pub fn load(sz: AccessSize, dst: u8, src_reg: u8, off: i16) -> Insn {
        Insn { opcode: class::LDX | mode::MEM | sz.to_bits(), dst, src: src_reg, off, imm: 0 }
    }

    /// `*(size *)(dst + off) = src`.
    pub fn store_reg(sz: AccessSize, dst: u8, src_reg: u8, off: i16) -> Insn {
        Insn { opcode: class::STX | mode::MEM | sz.to_bits(), dst, src: src_reg, off, imm: 0 }
    }

    /// `*(size *)(dst + off) = imm`.
    pub fn store_imm(sz: AccessSize, dst: u8, off: i16, imm: i32) -> Insn {
        Insn { opcode: class::ST | mode::MEM | sz.to_bits(), dst, src: 0, off, imm }
    }

    /// First slot of `dst = imm64`; must be followed by [`Insn::lddw_hi`].
    pub fn lddw_lo(dst: u8, imm64: u64) -> Insn {
        Insn { opcode: class::LD | mode::IMM | size::DW, dst, src: 0, off: 0, imm: imm64 as u32 as i32 }
    }

    /// Second slot of `dst = imm64`.
    pub fn lddw_hi(imm64: u64) -> Insn {
        Insn { opcode: 0, dst: 0, src: 0, off: 0, imm: (imm64 >> 32) as u32 as i32 }
    }

    /// Conditional or unconditional 64-bit jump with an immediate operand.
    pub fn jmp_imm(op: u8, dst: u8, imm: i32, off: i16) -> Insn {
        Insn { opcode: class::JMP | src::K | op, dst, src: 0, off, imm }
    }

    /// Conditional 64-bit jump comparing two registers.
    pub fn jmp_reg(op: u8, dst: u8, src_reg: u8, off: i16) -> Insn {
        Insn { opcode: class::JMP | src::X | op, dst, src: src_reg, off, imm: 0 }
    }

    /// Conditional 32-bit jump with an immediate operand.
    pub fn jmp32_imm(op: u8, dst: u8, imm: i32, off: i16) -> Insn {
        Insn { opcode: class::JMP32 | src::K | op, dst, src: 0, off, imm }
    }

    /// Unconditional jump by `off` instructions.
    pub fn ja(off: i16) -> Insn {
        Insn { opcode: class::JMP | jmp::JA, dst: 0, src: 0, off, imm: 0 }
    }

    /// Call the helper with the given numeric id.
    pub fn call(helper_id: u32) -> Insn {
        Insn { opcode: class::JMP | jmp::CALL, dst: 0, src: 0, off: 0, imm: helper_id as i32 }
    }

    /// Return from the program; r0 holds the return value.
    pub fn exit() -> Insn {
        Insn { opcode: class::JMP | jmp::EXIT, dst: 0, src: 0, off: 0, imm: 0 }
    }

    /// Byte-swap the low `bits` bits of `dst` to big-endian (`be16`/`be32`/`be64`).
    pub fn to_be(dst: u8, bits: i32) -> Insn {
        Insn { opcode: class::ALU | src::X | alu::END, dst, src: 0, off: 0, imm: bits }
    }

    /// Byte-swap the low `bits` bits of `dst` to little-endian.
    pub fn to_le(dst: u8, bits: i32) -> Insn {
        Insn { opcode: class::ALU | src::K | alu::END, dst, src: 0, off: 0, imm: bits }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::disasm::disassemble_insn(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lddw_occupies_two_slots() {
        let value = 0xdead_beef_cafe_f00du64;
        let lo = Insn::lddw_lo(3, value);
        let hi = Insn::lddw_hi(value);
        assert!(lo.is_lddw());
        assert_eq!(lo.imm as u32, 0xcafe_f00d);
        assert_eq!(hi.imm as u32, 0xdead_beef);
    }

    #[test]
    fn class_extraction() {
        assert_eq!(Insn::mov64_imm(0, 1).class(), class::ALU64);
        assert_eq!(Insn::mov32_imm(0, 1).class(), class::ALU);
        assert_eq!(Insn::exit().class(), class::JMP);
        assert_eq!(Insn::load(AccessSize::Byte, 0, 1, 0).class(), class::LDX);
    }

    #[test]
    fn access_size_bits_roundtrip() {
        for sz in [AccessSize::Byte, AccessSize::Half, AccessSize::Word, AccessSize::Double] {
            assert_eq!(AccessSize::from_opcode(sz.to_bits()), sz);
        }
        assert_eq!(AccessSize::Byte.bytes(), 1);
        assert_eq!(AccessSize::Double.bytes(), 8);
    }
}
