//! A disassembler producing the same mnemonics the [`crate::asm`] assembler
//! accepts, so `assemble(disassemble(p)) == p` for every supported
//! instruction.

use crate::insn::{alu, class, jmp, src, AccessSize, Insn};

fn alu_name(op: u8) -> &'static str {
    match op {
        alu::ADD => "add",
        alu::SUB => "sub",
        alu::MUL => "mul",
        alu::DIV => "div",
        alu::OR => "or",
        alu::AND => "and",
        alu::LSH => "lsh",
        alu::RSH => "rsh",
        alu::NEG => "neg",
        alu::MOD => "mod",
        alu::XOR => "xor",
        alu::MOV => "mov",
        alu::ARSH => "arsh",
        alu::END => "end",
        _ => "alu?",
    }
}

fn jmp_name(op: u8) -> &'static str {
    match op {
        jmp::JA => "ja",
        jmp::JEQ => "jeq",
        jmp::JGT => "jgt",
        jmp::JGE => "jge",
        jmp::JSET => "jset",
        jmp::JNE => "jne",
        jmp::JSGT => "jsgt",
        jmp::JSGE => "jsge",
        jmp::CALL => "call",
        jmp::EXIT => "exit",
        jmp::JLT => "jlt",
        jmp::JLE => "jle",
        jmp::JSLT => "jslt",
        jmp::JSLE => "jsle",
        _ => "jmp?",
    }
}

fn size_suffix(size: AccessSize) -> &'static str {
    match size {
        AccessSize::Byte => "b",
        AccessSize::Half => "h",
        AccessSize::Word => "w",
        AccessSize::Double => "dw",
    }
}

/// Disassembles a single instruction. The second slot of an `lddw` is
/// rendered as a comment-like placeholder; use [`disassemble`] for whole
/// programs, which fuses the two slots.
pub fn disassemble_insn(insn: &Insn) -> String {
    match insn.class() {
        class::ALU | class::ALU64 => {
            let wide = if insn.class() == class::ALU64 { "64" } else { "32" };
            let op = insn.opcode & 0xf0;
            match op {
                alu::NEG => format!("neg{wide} r{}", insn.dst),
                alu::END => {
                    let dir = if insn.opcode & src::X != 0 { "be" } else { "le" };
                    format!("{dir}{} r{}", insn.imm, insn.dst)
                }
                _ if insn.opcode & src::X != 0 => {
                    format!("{}{wide} r{}, r{}", alu_name(op), insn.dst, insn.src)
                }
                _ => format!("{}{wide} r{}, {}", alu_name(op), insn.dst, insn.imm),
            }
        }
        class::LD => {
            if insn.is_lddw() {
                format!("lddw r{}, {}", insn.dst, insn.imm as u32)
            } else {
                format!(".raw 0x{:02x}", insn.opcode)
            }
        }
        class::LDX => {
            let size = AccessSize::from_opcode(insn.opcode);
            format!("ldx{} r{}, [r{}{:+}]", size_suffix(size), insn.dst, insn.src, insn.off)
        }
        class::STX => {
            let size = AccessSize::from_opcode(insn.opcode);
            format!("stx{} [r{}{:+}], r{}", size_suffix(size), insn.dst, insn.off, insn.src)
        }
        class::ST => {
            let size = AccessSize::from_opcode(insn.opcode);
            format!("st{} [r{}{:+}], {}", size_suffix(size), insn.dst, insn.off, insn.imm)
        }
        class::JMP | class::JMP32 => {
            let op = insn.opcode & 0xf0;
            let wide = if insn.class() == class::JMP32 { "32" } else { "" };
            match op {
                jmp::EXIT => "exit".to_string(),
                jmp::CALL => format!("call {}", insn.imm),
                jmp::JA => format!("ja {:+}", insn.off),
                _ if insn.opcode & src::X != 0 => {
                    format!("{}{wide} r{}, r{}, {:+}", jmp_name(op), insn.dst, insn.src, insn.off)
                }
                _ => format!("{}{wide} r{}, {}, {:+}", jmp_name(op), insn.dst, insn.imm, insn.off),
            }
        }
        _ => format!(".raw 0x{:02x}", insn.opcode),
    }
}

/// Disassembles a whole program, one instruction per line, fusing `lddw`
/// pairs into a single `lddw rX, imm64` line.
pub fn disassemble(insns: &[Insn]) -> String {
    let mut out = String::new();
    let mut idx = 0;
    while idx < insns.len() {
        let insn = &insns[idx];
        if insn.is_lddw() && idx + 1 < insns.len() {
            let hi = &insns[idx + 1];
            let value = (u64::from(hi.imm as u32) << 32) | u64::from(insn.imm as u32);
            out.push_str(&format!("lddw r{}, 0x{:x}\n", insn.dst, value));
            idx += 2;
            continue;
        }
        out.push_str(&disassemble_insn(insn));
        out.push('\n');
        idx += 1;
    }
    out
}

/// Renders the native code generator's per-program compile facts: register
/// assignment, spill count, and the elided-check / inlined-helper counters
/// (inlined helpers count array-map lookups, which keep no cache).
pub fn native_report(name: &str, debug: &crate::codegen::NativeDebug) -> String {
    let homes =
        debug.assignments.iter().map(|&(bpf, host)| format!("r{bpf}={host}")).collect::<Vec<_>>().join(" ");
    format!(
        "jit[{name}]: homes=[{homes}] spills={} elided_checks={} inlined_helpers={}",
        debug.spills, debug.elided_checks, debug.inlined_helpers
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{alu, jmp, AccessSize, Insn};

    #[test]
    fn renders_common_instructions() {
        assert_eq!(disassemble_insn(&Insn::mov64_imm(1, 7)), "mov64 r1, 7");
        assert_eq!(disassemble_insn(&Insn::mov32_reg(2, 3)), "mov32 r2, r3");
        assert_eq!(disassemble_insn(&Insn::alu64_imm(alu::ADD, 4, -1)), "add64 r4, -1");
        assert_eq!(disassemble_insn(&Insn::load(AccessSize::Word, 0, 1, 16)), "ldxw r0, [r1+16]");
        assert_eq!(disassemble_insn(&Insn::store_reg(AccessSize::Byte, 10, 2, -8)), "stxb [r10-8], r2");
        assert_eq!(disassemble_insn(&Insn::store_imm(AccessSize::Double, 10, -16, 3)), "stdw [r10-16], 3");
        assert_eq!(disassemble_insn(&Insn::jmp_imm(jmp::JEQ, 1, 0, 4)), "jeq r1, 0, +4");
        assert_eq!(disassemble_insn(&Insn::jmp_reg(jmp::JGT, 1, 2, -3)), "jgt r1, r2, -3");
        assert_eq!(disassemble_insn(&Insn::call(74)), "call 74");
        assert_eq!(disassemble_insn(&Insn::exit()), "exit");
        assert_eq!(disassemble_insn(&Insn::to_be(3, 16)), "be16 r3");
        assert_eq!(disassemble_insn(&Insn::ja(2)), "ja +2");
    }

    #[test]
    fn fuses_lddw_pairs() {
        let insns =
            vec![Insn::lddw_lo(1, 0xdead_beef_0000_0001), Insn::lddw_hi(0xdead_beef_0000_0001), Insn::exit()];
        let text = disassemble(&insns);
        assert!(text.contains("lddw r1, 0xdeadbeef00000001"));
        assert_eq!(text.lines().count(), 2);
    }
}
