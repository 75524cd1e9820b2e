//! A programmatic builder for eBPF programs.
//!
//! The use-case network functions in `srv6-nf` need to embed run-time
//! values — map file descriptors, synthetic base addresses, helper ids —
//! which is awkward in assembler text. [`ProgramBuilder`] offers a typed
//! API with named labels and emits the same [`Insn`] stream the assembler
//! would.

use crate::error::{Error, Result};
use crate::insn::{alu, AccessSize, Insn};
use crate::program::{Program, ProgramType, PSEUDO_MAP_FD};
use std::collections::HashMap;

/// Incrementally builds an instruction stream with label-based branches.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insns: Vec<Insn>,
    labels: HashMap<String, usize>,
    /// (instruction index, label) pairs whose offsets still need patching.
    fixups: Vec<(usize, String)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, insn: Insn) -> &mut Self {
        self.insns.push(insn);
        self
    }

    /// Defines `label` at the current position.
    pub fn label(&mut self, label: &str) -> &mut Self {
        self.labels.insert(label.to_string(), self.insns.len());
        self
    }

    /// `dst = imm` (64-bit).
    pub fn mov_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::mov64_imm(dst, imm))
    }

    /// `dst = src` (64-bit).
    pub fn mov_reg(&mut self, dst: u8, src: u8) -> &mut Self {
        self.push(Insn::mov64_reg(dst, src))
    }

    /// 64-bit ALU op with immediate.
    pub fn alu_imm(&mut self, op: u8, dst: u8, imm: i32) -> &mut Self {
        self.push(Insn::alu64_imm(op, dst, imm))
    }

    /// 64-bit ALU op with register.
    pub fn alu_reg(&mut self, op: u8, dst: u8, src: u8) -> &mut Self {
        self.push(Insn::alu64_reg(op, dst, src))
    }

    /// `dst += imm`.
    pub fn add_imm(&mut self, dst: u8, imm: i32) -> &mut Self {
        self.alu_imm(alu::ADD, dst, imm)
    }

    /// Loads a 64-bit immediate (emits the two `lddw` slots).
    pub fn load_imm64(&mut self, dst: u8, value: u64) -> &mut Self {
        self.push(Insn::lddw_lo(dst, value));
        self.push(Insn::lddw_hi(value))
    }

    /// Loads a map pointer for map file descriptor `fd`.
    pub fn load_map_fd(&mut self, dst: u8, fd: u32) -> &mut Self {
        let mut lo = Insn::lddw_lo(dst, crate::vm::map_ptr_value(fd));
        lo.src = PSEUDO_MAP_FD;
        lo.imm = fd as i32;
        self.push(lo);
        self.push(Insn::lddw_hi(crate::vm::map_ptr_value(fd)))
    }

    /// `dst = *(size *)(src + off)`.
    pub fn load_mem(&mut self, size: AccessSize, dst: u8, src: u8, off: i16) -> &mut Self {
        self.push(Insn::load(size, dst, src, off))
    }

    /// `*(size *)(dst + off) = src`.
    pub fn store_mem(&mut self, size: AccessSize, dst: u8, src: u8, off: i16) -> &mut Self {
        self.push(Insn::store_reg(size, dst, src, off))
    }

    /// `*(size *)(dst + off) = imm`.
    pub fn store_imm(&mut self, size: AccessSize, dst: u8, off: i16, imm: i32) -> &mut Self {
        self.push(Insn::store_imm(size, dst, off, imm))
    }

    /// Byte-swaps the low `bits` bits of `dst` to big-endian.
    pub fn to_be(&mut self, dst: u8, bits: i32) -> &mut Self {
        self.push(Insn::to_be(dst, bits))
    }

    /// Conditional jump (immediate operand) to `label`.
    pub fn jmp_imm(&mut self, op: u8, dst: u8, imm: i32, label: &str) -> &mut Self {
        self.fixups.push((self.insns.len(), label.to_string()));
        self.push(Insn::jmp_imm(op, dst, imm, 0))
    }

    /// Conditional jump (register operand) to `label`.
    pub fn jmp_reg(&mut self, op: u8, dst: u8, src: u8, label: &str) -> &mut Self {
        self.fixups.push((self.insns.len(), label.to_string()));
        self.push(Insn::jmp_reg(op, dst, src, 0))
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: &str) -> &mut Self {
        self.fixups.push((self.insns.len(), label.to_string()));
        self.push(Insn::ja(0))
    }

    /// Calls helper `id`.
    pub fn call(&mut self, id: u32) -> &mut Self {
        self.push(Insn::call(id))
    }

    /// Emits `exit`.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Insn::exit())
    }

    /// Emits `mov r0, code; exit`.
    pub fn ret(&mut self, code: i32) -> &mut Self {
        self.mov_imm(0, code);
        self.exit()
    }

    /// Resolves labels and returns the instruction stream.
    pub fn build(&self) -> Result<Vec<Insn>> {
        let mut insns = self.insns.clone();
        for (idx, label) in &self.fixups {
            let target = self.labels.get(label).ok_or_else(|| Error::Assembler {
                line: *idx,
                message: format!("undefined label '{label}'"),
            })?;
            let delta = *target as i64 - *idx as i64 - 1;
            insns[*idx].off = i16::try_from(delta)
                .map_err(|_| Error::Assembler { line: *idx, message: "branch target too far".into() })?;
        }
        Ok(insns)
    }

    /// Resolves labels and wraps the instructions in a [`Program`].
    pub fn build_program(&self, name: &str, prog_type: ProgramType) -> Result<Program> {
        Ok(Program::new(name, prog_type, self.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::jmp;
    use crate::maps::ArrayMap;
    use crate::program::load;
    use crate::vm::{run_program, NullEnv, RunContext};
    use std::collections::HashMap as StdHashMap;

    #[test]
    fn builds_and_resolves_labels() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(0, 1);
        b.jmp_imm(jmp::JEQ, 0, 1, "yes");
        b.ret(0);
        b.label("yes");
        b.ret(7);
        let insns = b.build().unwrap();
        // jeq at index 1 must skip the two-ret instructions (indices 2,3).
        assert_eq!(insns[1].off, 2);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.jump("nowhere");
        b.ret(0);
        assert!(b.build().is_err());
    }

    #[test]
    fn built_program_runs() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(6, 20);
        b.add_imm(6, 22);
        b.mov_reg(0, 6);
        b.exit();
        let prog = b.build_program("sum", ProgramType::SocketFilter).unwrap();
        let helpers = HelperRegistry::with_base_helpers();
        let loaded = load(prog, &StdHashMap::new(), &helpers).unwrap();
        let mut ctx = vec![0u8; 16];
        let mut pkt = vec![0u8; 16];
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        assert_eq!(run_program(&loaded, &helpers, &mut rc).unwrap(), 42);
    }

    #[test]
    fn load_map_fd_emits_pseudo_map_load() {
        let mut b = ProgramBuilder::new();
        b.load_map_fd(1, 5);
        b.ret(0);
        let insns = b.build().unwrap();
        assert!(insns[0].is_lddw());
        assert_eq!(insns[0].src, PSEUDO_MAP_FD);
        assert_eq!(insns[0].imm, 5);
        // And it passes the loader when the map exists.
        let mut maps: StdHashMap<u32, crate::maps::MapHandle> = StdHashMap::new();
        maps.insert(5, ArrayMap::new(8, 1));
        let prog = Program::new("m", ProgramType::SocketFilter, insns);
        load(prog, &maps, &HelperRegistry::with_base_helpers()).unwrap();
    }
}
