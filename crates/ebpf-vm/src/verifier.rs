//! The static verifier.
//!
//! Loading an eBPF program into the kernel first runs a verifier that
//! guarantees the program "cannot threaten the stability and security of
//! the kernel (no invalid memory accesses, possible infinite loops, ...)"
//! (§2.1 of the paper). This module reproduces the checks that matter for
//! the paper's era (Linux 4.18, i.e. before bounded loops were allowed):
//!
//! * structural validity: known opcodes, register numbers in range, `lddw`
//!   pairs complete, jump targets inside the program and not into the
//!   middle of an `lddw`;
//! * termination: the control-flow graph must be acyclic;
//! * register safety: reads of uninitialised registers are rejected, `r10`
//!   is read-only, `r1`–`r5` are clobbered by helper calls, `r0` must be
//!   initialised at `exit`;
//! * memory safety: stack and context accesses must fall inside their
//!   objects with statically-known offsets, packet memory is read-only,
//!   map-value pointers must be null-checked (by a 64-bit compare) before
//!   being dereferenced, pointer arithmetic is a 64-bit add or subtract of
//!   a scalar, and no 32-bit ALU op may read a pointer;
//! * helper gating: only helpers registered for the program's hook may be
//!   called, and map file descriptors must resolve;
//! * packet-pointer invalidation: a call to a helper registered as
//!   changing the packet turns every packet pointer into a scalar, so a
//!   program must re-derive `data` from its context after it.
//!
//! Compared to the kernel the main simplification is bounds tracking for
//! variable packet offsets: packet reads at offsets that are not statically
//! known are accepted here and bounds-checked at run time (the run-time
//! check drops the packet, which is also what a malformed-SRH packet would
//! experience in the kernel datapath).

use crate::error::{Error, Result};
use crate::helpers::{ids, HelperRegistry};
use crate::insn::{alu, class, jmp, src, AccessSize, Insn, MAX_INSNS, NUM_REGS, REG_FP, STACK_SIZE};
use crate::maps::MapHandle;
use crate::program::{Program, PSEUDO_MAP_FD};
use std::collections::HashMap;

/// Upper bound used for context accesses; embedder context structures are
/// smaller than this.
pub const MAX_CTX_SIZE: i64 = 256;

/// Cap on the total number of (instruction, state) pairs explored, mirroring
/// the kernel's complexity limit.
const MAX_PROCESSED: usize = 131_072;

/// Statistics reported by a successful verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifierStats {
    /// Number of instructions symbolically executed (over all paths).
    pub insns_processed: usize,
    /// Number of conditional branches explored.
    pub branches: usize,
    /// Deepest stack offset the program touches, in bytes from the frame
    /// pointer.
    pub stack_depth: usize,
}

/// What the verifier proved about one load/store instruction, over every
/// path that reaches it. The native code generator uses these facts to
/// elide the per-access region dispatch: an access proven [`AccessFact::Stack`]
/// needs no run-time check at all (the verifier bounds-checked the exact
/// offset against the same 512-byte stack the VM uses), a
/// [`AccessFact::Ctx`] access needs only a single length compare (the
/// verifier checked against [`MAX_CTX_SIZE`], but the embedder's context
/// may be smaller), and a [`AccessFact::Packet`] access needs only the
/// bounds compare the kernel's direct-packet-access contract requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessFact {
    /// Nothing uniform was proven (paths disagreeing on the region, or a
    /// map-value access whose offset could not be bounded statically):
    /// resolve the access generically at run time.
    #[default]
    Other,
    /// Every path reaches the insn with an in-bounds stack pointer at a
    /// statically known offset.
    Stack,
    /// Every path reaches the insn with a context pointer at the same
    /// static offset; `end` is `offset + access size`, the bound to compare
    /// against the embedder's actual context length.
    Ctx {
        /// One past the last context byte the access touches.
        end: u16,
    },
    /// Every path reaches the insn with a packet pointer (loads only —
    /// packet stores are rejected outright).
    Packet,
    /// Every path reaches the insn with a null-checked pointer into a value
    /// of the same map, at a statically-known offset that, plus the access
    /// size, fits inside the value: the native tier accesses the value
    /// bytes directly at the map's host address, no trampoline needed.
    MapValue {
        /// The map the pointer points into on every path.
        fd: u32,
    },
    /// Recorded at the `call bpf_map_lookup_elem` instruction itself (not a
    /// load/store): every path reaches the call with the same map handle in
    /// `r1` — what the kernel keeps as the call's `map_ptr_state`. The
    /// native tier inlines the lookup as arithmetic on that map's region.
    MapLookup {
        /// The map file descriptor `r1` holds on every path.
        fd: u32,
    },
}

/// Per-instruction memory-access facts for a verified program, indexed by
/// instruction position.
#[derive(Debug, Clone, Default)]
pub struct AccessFacts {
    facts: Vec<Option<AccessFact>>,
}

impl AccessFacts {
    /// The fact proven for the load/store at `pc` ([`AccessFact::Other`]
    /// for instructions that are not memory accesses).
    pub fn get(&self, pc: usize) -> AccessFact {
        self.facts.get(pc).copied().flatten().unwrap_or(AccessFact::Other)
    }

    /// Merges `fact` into position `pc`: the first path to reach an insn
    /// seeds the fact, later paths must agree exactly or the fact degrades
    /// to [`AccessFact::Other`] (generic run-time resolution is always
    /// sound).
    fn record(&mut self, pc: usize, fact: AccessFact) {
        if self.facts.len() <= pc {
            self.facts.resize(pc + 1, None);
        }
        self.facts[pc] = match self.facts[pc] {
            None => Some(fact),
            Some(prev) if prev == fact => Some(fact),
            Some(_) => Some(AccessFact::Other),
        };
    }
}

/// Abstract value tracked for each register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegType {
    /// Never written on this path.
    Uninit,
    /// A number; `Some` when the exact value is statically known.
    Scalar(Option<i64>),
    /// Pointer into the context structure at a known offset.
    PtrToCtx(i64),
    /// Pointer into the stack; offset is relative to the stack base
    /// (`r10` starts at `STACK_SIZE`).
    PtrToStack(i64),
    /// Pointer into the packet. Offset is `None` once the program added a
    /// non-constant value to it.
    PtrToPacket(Option<i64>),
    /// Pointer to a map value returned by `bpf_map_lookup_elem`;
    /// `maybe_null` is cleared by a null check.
    PtrToMapValue {
        /// Whether the pointer may still be NULL on this path.
        maybe_null: bool,
        /// Byte offset from the start of the value; `None` once the program
        /// added a non-constant amount to the pointer.
        offset: Option<i64>,
        /// The map the lookup call site had in `r1` (`None` when it was
        /// not a map handle), as the kernel's register state keeps it.
        map: Option<u32>,
    },
    /// Opaque map handle loaded by a pseudo-map-fd `lddw`.
    MapPtr(u32),
}

impl RegType {
    fn is_pointer(&self) -> bool {
        matches!(
            self,
            RegType::PtrToCtx(_)
                | RegType::PtrToStack(_)
                | RegType::PtrToPacket(_)
                | RegType::PtrToMapValue { .. }
                | RegType::MapPtr(_)
        )
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RegFile {
    regs: [RegType; NUM_REGS],
}

impl RegFile {
    fn entry() -> Self {
        let mut regs = [RegType::Uninit; NUM_REGS];
        regs[1] = RegType::PtrToCtx(0);
        regs[10] = RegType::PtrToStack(STACK_SIZE as i64);
        RegFile { regs }
    }
}

struct Verifier<'a> {
    program: &'a Program,
    helpers: &'a HelperRegistry,
    maps: &'a HashMap<u32, MapHandle>,
    /// Marks the second slot of every `lddw`.
    is_lddw_hi: Vec<bool>,
    stats: VerifierStats,
    facts: AccessFacts,
}

/// Verifies `program`, returning statistics on success.
pub fn verify(
    program: &Program,
    helpers: &HelperRegistry,
    maps: &HashMap<u32, MapHandle>,
) -> Result<VerifierStats> {
    verify_with_facts(program, helpers, maps).map(|(stats, _)| stats)
}

/// Verifies `program`, additionally returning the per-instruction memory
/// facts the symbolic execution proved — the input the native code
/// generator uses to elide per-access checks.
pub fn verify_with_facts(
    program: &Program,
    helpers: &HelperRegistry,
    maps: &HashMap<u32, MapHandle>,
) -> Result<(VerifierStats, AccessFacts)> {
    let mut verifier = Verifier {
        program,
        helpers,
        maps,
        is_lddw_hi: Vec::new(),
        stats: VerifierStats::default(),
        facts: AccessFacts::default(),
    };
    verifier.check_structure()?;
    verifier.check_no_loops()?;
    verifier.symbolic_execution()?;
    Ok((verifier.stats, verifier.facts))
}

impl<'a> Verifier<'a> {
    fn insns(&self) -> &[Insn] {
        &self.program.insns
    }

    // -- structural checks ---------------------------------------------------

    fn check_structure(&mut self) -> Result<()> {
        let insns: Vec<Insn> = self.program.insns.clone();
        if insns.is_empty() {
            return Err(Error::verifier(0, "program has no instructions"));
        }
        if insns.len() > MAX_INSNS {
            return Err(Error::verifier(0, format!("program exceeds {MAX_INSNS} instructions")));
        }
        self.is_lddw_hi = vec![false; insns.len()];
        let mut idx = 0;
        while idx < insns.len() {
            let insn = &insns[idx];
            if usize::from(insn.dst) >= NUM_REGS || usize::from(insn.src) >= NUM_REGS {
                return Err(Error::verifier(idx, "register number out of range"));
            }
            if insn.is_lddw() {
                if idx + 1 >= insns.len() {
                    return Err(Error::verifier(idx, "lddw is missing its second slot"));
                }
                let hi = &insns[idx + 1];
                if hi.opcode != 0 || hi.dst != 0 || hi.off != 0 {
                    return Err(Error::verifier(idx + 1, "malformed lddw second slot"));
                }
                if insn.src == PSEUDO_MAP_FD && !self.maps.contains_key(&(insn.imm as u32)) {
                    return Err(Error::verifier(idx, format!("unknown map fd {}", insn.imm)));
                }
                self.is_lddw_hi[idx + 1] = true;
                idx += 2;
                continue;
            }
            self.check_opcode(idx, insn)?;
            idx += 1;
        }
        // The last instruction must not fall through past the end.
        let last = &insns[insns.len() - 1];
        let last_is_terminal = matches!(last.class(), class::JMP | class::JMP32)
            && matches!(last.opcode & 0xf0, jmp::EXIT | jmp::JA);
        if !last_is_terminal && !self.is_lddw_hi[insns.len() - 1] {
            return Err(Error::verifier(
                insns.len() - 1,
                "program may fall through past the last instruction",
            ));
        }
        // Jump targets must land on real instructions.
        for (idx, insn) in insns.iter().enumerate() {
            if self.is_lddw_hi[idx] {
                continue;
            }
            if matches!(insn.class(), class::JMP | class::JMP32) {
                let op = insn.opcode & 0xf0;
                if op == jmp::EXIT || op == jmp::CALL {
                    continue;
                }
                let target = idx as i64 + 1 + i64::from(insn.off);
                if target < 0 || target as usize >= insns.len() {
                    return Err(Error::verifier(idx, "jump target out of bounds"));
                }
                if self.is_lddw_hi[target as usize] {
                    return Err(Error::verifier(idx, "jump target lands inside an lddw"));
                }
            }
        }
        Ok(())
    }

    fn check_opcode(&self, idx: usize, insn: &Insn) -> Result<()> {
        match insn.class() {
            class::ALU | class::ALU64 => {
                let op = insn.opcode & 0xf0;
                let known = [
                    alu::ADD,
                    alu::SUB,
                    alu::MUL,
                    alu::DIV,
                    alu::OR,
                    alu::AND,
                    alu::LSH,
                    alu::RSH,
                    alu::NEG,
                    alu::MOD,
                    alu::XOR,
                    alu::MOV,
                    alu::ARSH,
                    alu::END,
                ];
                if !known.contains(&op) {
                    return Err(Error::verifier(idx, format!("unknown ALU op 0x{op:x}")));
                }
                if (op == alu::DIV || op == alu::MOD) && insn.opcode & src::X == 0 && insn.imm == 0 {
                    return Err(Error::verifier(idx, "division by constant zero"));
                }
                if op == alu::END && ![16, 32, 64].contains(&insn.imm) {
                    return Err(Error::verifier(idx, "byte swap width must be 16, 32 or 64"));
                }
                Ok(())
            }
            class::LD => Err(Error::verifier(idx, "only lddw is supported in the LD class")),
            class::LDX | class::ST | class::STX => Ok(()),
            class::JMP | class::JMP32 => {
                let op = insn.opcode & 0xf0;
                let known = [
                    jmp::JA,
                    jmp::JEQ,
                    jmp::JGT,
                    jmp::JGE,
                    jmp::JSET,
                    jmp::JNE,
                    jmp::JSGT,
                    jmp::JSGE,
                    jmp::CALL,
                    jmp::EXIT,
                    jmp::JLT,
                    jmp::JLE,
                    jmp::JSLT,
                    jmp::JSLE,
                ];
                if !known.contains(&op) {
                    return Err(Error::verifier(idx, format!("unknown JMP op 0x{op:x}")));
                }
                if insn.class() == class::JMP32 && (op == jmp::CALL || op == jmp::EXIT) {
                    return Err(Error::verifier(idx, "call/exit must use the 64-bit JMP class"));
                }
                Ok(())
            }
            other => Err(Error::verifier(idx, format!("unknown instruction class {other}"))),
        }
    }

    // -- loop detection -------------------------------------------------------

    fn successors(&self, idx: usize) -> Vec<usize> {
        let insn = &self.insns()[idx];
        if self.is_lddw_hi[idx] {
            return vec![idx + 1].into_iter().filter(|&t| t < self.insns().len()).collect();
        }
        if insn.is_lddw() {
            return vec![idx + 2].into_iter().filter(|&t| t < self.insns().len()).collect();
        }
        match insn.class() {
            class::JMP | class::JMP32 => {
                let op = insn.opcode & 0xf0;
                match op {
                    jmp::EXIT => vec![],
                    jmp::CALL => vec![idx + 1],
                    jmp::JA => vec![(idx as i64 + 1 + i64::from(insn.off)) as usize],
                    _ => {
                        let target = (idx as i64 + 1 + i64::from(insn.off)) as usize;
                        vec![idx + 1, target]
                    }
                }
            }
            _ => vec![idx + 1],
        }
        .into_iter()
        .filter(|&t| t < self.insns().len())
        .collect()
    }

    fn check_no_loops(&mut self) -> Result<()> {
        // Iterative DFS with colours: 0 = white, 1 = on stack, 2 = done.
        let n = self.insns().len();
        let mut colour = vec![0u8; n];
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        colour[0] = 1;
        let mut order: Vec<usize> = vec![0];
        while let Some((node, child_idx)) = stack.pop() {
            let succs = self.successors(node);
            if child_idx < succs.len() {
                stack.push((node, child_idx + 1));
                let next = succs[child_idx];
                match colour[next] {
                    0 => {
                        colour[next] = 1;
                        order.push(next);
                        stack.push((next, 0));
                    }
                    1 => {
                        return Err(Error::verifier(node, "back-edge detected: loops are not allowed"));
                    }
                    _ => {}
                }
            } else {
                colour[node] = 2;
            }
        }
        Ok(())
    }

    // -- symbolic execution ---------------------------------------------------

    fn symbolic_execution(&mut self) -> Result<()> {
        let mut worklist: Vec<(usize, RegFile)> = vec![(0, RegFile::entry())];
        while let Some((pc, mut regs)) = worklist.pop() {
            let mut pc = pc;
            loop {
                if self.stats.insns_processed >= MAX_PROCESSED {
                    return Err(Error::verifier(pc, "program is too complex to verify"));
                }
                self.stats.insns_processed += 1;
                if pc >= self.insns().len() {
                    return Err(Error::verifier(pc, "execution fell past the end of the program"));
                }
                let insn = self.insns()[pc];
                match self.step(pc, &insn, &mut regs)? {
                    Step::Next => pc += 1,
                    Step::SkipOne => pc += 2,
                    Step::Jump(target) => pc = target,
                    Step::BranchBoth { taken, fallthrough, taken_regs } => {
                        self.stats.branches += 1;
                        worklist.push((taken, taken_regs));
                        pc = fallthrough;
                    }
                    Step::Exit => break,
                }
            }
        }
        Ok(())
    }

    fn read_reg(&self, pc: usize, regs: &RegFile, r: u8) -> Result<RegType> {
        let value = regs.regs[usize::from(r)];
        if value == RegType::Uninit {
            return Err(Error::verifier(pc, format!("read of uninitialised register r{r}")));
        }
        Ok(value)
    }

    fn write_reg(&self, pc: usize, regs: &mut RegFile, r: u8, value: RegType) -> Result<()> {
        if r == REG_FP {
            return Err(Error::verifier(pc, "r10 (frame pointer) is read-only"));
        }
        regs.regs[usize::from(r)] = value;
        Ok(())
    }

    /// Whether the program runs on an LWT-style context, whose first two
    /// fields are the packet's `data` / `data_end` pointers.
    fn is_lwt(&self) -> bool {
        matches!(
            self.program.prog_type,
            crate::program::ProgramType::LwtSeg6Local
                | crate::program::ProgramType::LwtIn
                | crate::program::ProgramType::LwtXmit
        )
    }

    fn check_mem_access(
        &mut self,
        pc: usize,
        base: RegType,
        off: i64,
        size: AccessSize,
        is_store: bool,
    ) -> Result<()> {
        let len = size.bytes() as i64;
        match base {
            RegType::PtrToStack(stack_off) => {
                let start = stack_off + off;
                if start < 0 || start + len > STACK_SIZE as i64 {
                    return Err(Error::verifier(pc, format!("stack access out of bounds at offset {start}")));
                }
                let depth = STACK_SIZE as i64 - start;
                self.stats.stack_depth = self.stats.stack_depth.max(depth as usize);
                self.facts.record(pc, AccessFact::Stack);
                Ok(())
            }
            RegType::PtrToCtx(ctx_off) => {
                let start = ctx_off + off;
                if start < 0 || start + len > MAX_CTX_SIZE {
                    return Err(Error::verifier(
                        pc,
                        format!("context access out of bounds at offset {start}"),
                    ));
                }
                // An LWT context's `data` / `data_end` pointers are the
                // packet's bounds: a reload of `data` is typed as a packet
                // pointer, so no program may store its own value there.
                if is_store
                    && self.is_lwt()
                    && start < crate::vm::CTX_OFF_DATA_END + 8
                    && start + len > crate::vm::CTX_OFF_DATA
                {
                    return Err(Error::verifier(
                        pc,
                        format!("store to the read-only packet pointers of the context at offset {start}"),
                    ));
                }
                self.facts.record(pc, AccessFact::Ctx { end: (start + len) as u16 });
                Ok(())
            }
            RegType::PtrToPacket(_) => {
                if is_store {
                    return Err(Error::verifier(pc, "packet memory is read-only; use a helper to modify it"));
                }
                // Offsets may be data-dependent (e.g. a TLV walk); bounds are
                // enforced at run time.
                self.facts.record(pc, AccessFact::Packet);
                Ok(())
            }
            RegType::PtrToMapValue { maybe_null, offset, map } => {
                if maybe_null {
                    return Err(Error::verifier(pc, "possible NULL map-value dereference; add a null check"));
                }
                // A statically-bounded access inside the value earns the
                // direct-access fact; anything the symbolic execution could
                // not bound stays on the generic run-time path (which
                // faults out-of-bounds accesses exactly as before).
                let value_size = |fd| self.maps.get(&fd).map_or(0, |map| map.value_size() as i64);
                let fact = match (offset, map) {
                    (Some(o), Some(fd)) if o + off >= 0 && o + off + len <= value_size(fd) => {
                        AccessFact::MapValue { fd }
                    }
                    _ => AccessFact::Other,
                };
                self.facts.record(pc, fact);
                Ok(())
            }
            RegType::MapPtr(_) => Err(Error::verifier(pc, "map handles cannot be dereferenced directly")),
            RegType::Scalar(_) | RegType::Uninit => {
                Err(Error::verifier(pc, "memory access through a non-pointer register"))
            }
        }
    }

    fn step(&mut self, pc: usize, insn: &Insn, regs: &mut RegFile) -> Result<Step> {
        match insn.class() {
            class::ALU | class::ALU64 => {
                self.step_alu(pc, insn, regs)?;
                Ok(Step::Next)
            }
            class::LD => {
                // Structure pass guarantees this is a well-formed lddw.
                let value = if insn.src == PSEUDO_MAP_FD {
                    RegType::MapPtr(insn.imm as u32)
                } else {
                    let hi = self.insns()[pc + 1];
                    let imm = (u64::from(hi.imm as u32) << 32) | u64::from(insn.imm as u32);
                    RegType::Scalar(Some(imm as i64))
                };
                self.write_reg(pc, regs, insn.dst, value)?;
                Ok(Step::SkipOne)
            }
            class::LDX => {
                let base = self.read_reg(pc, regs, insn.src)?;
                let size = AccessSize::from_opcode(insn.opcode);
                self.check_mem_access(pc, base, i64::from(insn.off), size, false)?;
                // Loading the `data` field of an LWT context yields a packet
                // pointer (the run-time value is PKT_BASE); everything else
                // is a scalar.
                let result = match base {
                    RegType::PtrToCtx(ctx_off)
                        if self.is_lwt()
                            && size == AccessSize::Double
                            && ctx_off + i64::from(insn.off) == crate::vm::CTX_OFF_DATA =>
                    {
                        RegType::PtrToPacket(Some(0))
                    }
                    _ => RegType::Scalar(None),
                };
                self.write_reg(pc, regs, insn.dst, result)?;
                Ok(Step::Next)
            }
            class::ST | class::STX => {
                let base = self.read_reg(pc, regs, insn.dst)?;
                if insn.class() == class::STX {
                    self.read_reg(pc, regs, insn.src)?;
                }
                self.check_mem_access(
                    pc,
                    base,
                    i64::from(insn.off),
                    AccessSize::from_opcode(insn.opcode),
                    true,
                )?;
                Ok(Step::Next)
            }
            class::JMP | class::JMP32 => self.step_jmp(pc, insn, regs),
            _ => Err(Error::verifier(pc, "unknown instruction class")),
        }
    }

    fn step_alu(&mut self, pc: usize, insn: &Insn, regs: &mut RegFile) -> Result<()> {
        let op = insn.opcode & 0xf0;
        let is_imm = insn.opcode & src::X == 0;
        // A 32-bit op keeps the low half of its operands: no pointer may
        // pass through one, as in the kernel.
        let is32 = insn.class() == class::ALU;
        if op == alu::MOV {
            let value = if is_imm {
                RegType::Scalar(Some(i64::from(insn.imm)))
            } else {
                self.read_reg(pc, regs, insn.src)?
            };
            if is32 && value.is_pointer() {
                return Err(Error::verifier(pc, "partial copy of pointer"));
            }
            let value = match value {
                RegType::Scalar(Some(v)) if is32 => RegType::Scalar(Some(i64::from(v as u32))),
                value => value,
            };
            return self.write_reg(pc, regs, insn.dst, value);
        }
        if op == alu::NEG || op == alu::END {
            let current = self.read_reg(pc, regs, insn.dst)?;
            if current.is_pointer() {
                return Err(Error::verifier(pc, "arithmetic on pointers is limited to add/sub"));
            }
            return self.write_reg(pc, regs, insn.dst, RegType::Scalar(None));
        }
        let dst_type = self.read_reg(pc, regs, insn.dst)?;
        let rhs = if is_imm {
            RegType::Scalar(Some(i64::from(insn.imm)))
        } else {
            self.read_reg(pc, regs, insn.src)?
        };
        if is32 && (dst_type.is_pointer() || rhs.is_pointer()) {
            return Err(Error::verifier(pc, "32-bit pointer arithmetic prohibited"));
        }
        if rhs.is_pointer() && dst_type.is_pointer() {
            return Err(Error::verifier(pc, "pointer-pointer arithmetic is not allowed"));
        }
        let result = if dst_type.is_pointer() {
            if op != alu::ADD && op != alu::SUB {
                return Err(Error::verifier(pc, "arithmetic on pointers is limited to add/sub"));
            }
            let delta = match rhs {
                RegType::Scalar(Some(v)) => Some(if op == alu::ADD { v } else { -v }),
                RegType::Scalar(None) => None,
                _ => unreachable!("checked above"),
            };
            match (dst_type, delta) {
                (RegType::PtrToStack(off), Some(d)) => RegType::PtrToStack(off + d),
                (RegType::PtrToCtx(off), Some(d)) => RegType::PtrToCtx(off + d),
                (RegType::PtrToPacket(Some(off)), Some(d)) => RegType::PtrToPacket(Some(off + d)),
                (RegType::PtrToPacket(_), None) => RegType::PtrToPacket(None),
                (RegType::PtrToStack(_) | RegType::PtrToCtx(_), None) => {
                    return Err(Error::verifier(pc, "variable offset into stack or context is not allowed"));
                }
                (RegType::PtrToMapValue { maybe_null, offset, map }, delta) => {
                    if maybe_null {
                        return Err(Error::verifier(pc, "arithmetic on a possibly-NULL map value pointer"));
                    }
                    let offset = match (offset, delta) {
                        (Some(o), Some(d)) => Some(o + d),
                        _ => None,
                    };
                    RegType::PtrToMapValue { maybe_null: false, offset, map }
                }
                (RegType::MapPtr(_), _) => {
                    return Err(Error::verifier(pc, "arithmetic on map handles is not allowed"));
                }
                (RegType::PtrToPacket(None), Some(_)) => RegType::PtrToPacket(None),
                _ => unreachable!(),
            }
        } else if rhs.is_pointer() {
            // scalar += pointer : the result is a pointer only for ADD.
            if op == alu::ADD {
                rhs
            } else {
                return Err(Error::verifier(pc, "pointer used as a scalar operand"));
            }
        } else {
            // scalar op scalar: fold constants for the cases that matter to
            // downstream pointer arithmetic.
            let known = match (dst_type, rhs) {
                // A 32-bit op folds as every tier computes it: on the low
                // halves, zero-extended.
                (RegType::Scalar(Some(a)), RegType::Scalar(Some(b))) if is32 => match op {
                    alu::ADD | alu::SUB | alu::MUL | alu::AND | alu::OR | alu::XOR | alu::LSH | alu::RSH => {
                        crate::vm::alu_compute(op, false, a as u64, b as u64, pc).ok().map(|v| v as i64)
                    }
                    _ => None,
                },
                (RegType::Scalar(Some(a)), RegType::Scalar(Some(b))) => match op {
                    alu::ADD => a.checked_add(b),
                    alu::SUB => a.checked_sub(b),
                    alu::MUL => a.checked_mul(b),
                    alu::AND => Some(a & b),
                    alu::OR => Some(a | b),
                    alu::XOR => Some(a ^ b),
                    alu::LSH => a.checked_shl(b as u32),
                    alu::RSH => Some(((a as u64) >> (b as u32 & 63)) as i64),
                    _ => None,
                },
                _ => None,
            };
            RegType::Scalar(known)
        };
        self.write_reg(pc, regs, insn.dst, result)
    }

    fn step_jmp(&mut self, pc: usize, insn: &Insn, regs: &mut RegFile) -> Result<Step> {
        let op = insn.opcode & 0xf0;
        match op {
            jmp::EXIT => {
                if regs.regs[0] == RegType::Uninit {
                    return Err(Error::verifier(pc, "r0 is not initialised at exit"));
                }
                Ok(Step::Exit)
            }
            jmp::CALL => {
                let id = insn.imm as u32;
                if self.helpers.get(id).is_none() {
                    return Err(Error::verifier(pc, format!("call to unknown helper {id}")));
                }
                if !self.helpers.allowed_for(id, self.program.prog_type) {
                    return Err(Error::verifier(
                        pc,
                        format!(
                            "helper {} is not allowed for {} programs",
                            self.helpers.name_of(id).unwrap_or("?"),
                            self.program.prog_type.name()
                        ),
                    ));
                }
                // For map lookups, capture the map handle r1 holds *before*
                // the call clobbers it: the native tier inlines the lookup
                // for that map, and the returned pointer remembers it, so
                // its value size bounds later dereferences. A path without
                // a map handle in r1 records `Other`, so the merge degrades
                // the site to the helper call.
                let map = match regs.regs[1] {
                    RegType::MapPtr(fd) => Some(fd),
                    _ => None,
                };
                if id == ids::MAP_LOOKUP_ELEM {
                    self.facts.record(pc, map.map_or(AccessFact::Other, |fd| AccessFact::MapLookup { fd }));
                }
                // r1-r5 are clobbered, r0 carries the result.
                for r in 1..=5 {
                    regs.regs[r] = RegType::Uninit;
                }
                // A helper that may move the packet leaves every packet
                // pointer stale: like the kernel's `clear_all_pkt_pointers`,
                // they become unknown scalars, and the program re-derives
                // `data` from its context.
                if self.helpers.changes_packet(id) {
                    for reg in regs.regs.iter_mut().filter(|reg| matches!(reg, RegType::PtrToPacket(_))) {
                        *reg = RegType::Scalar(None);
                    }
                }
                regs.regs[0] = if id == ids::MAP_LOOKUP_ELEM {
                    RegType::PtrToMapValue { maybe_null: true, offset: Some(0), map }
                } else {
                    RegType::Scalar(None)
                };
                Ok(Step::Next)
            }
            jmp::JA => Ok(Step::Jump((pc as i64 + 1 + i64::from(insn.off)) as usize)),
            _ => {
                let dst_type = self.read_reg(pc, regs, insn.dst)?;
                // Only a 64-bit compare with 0 is a null check: a map-value
                // pointer's low 32 bits can be zero, so `jeq32` / `jne32`
                // refine nothing (the kernel's `!is_jmp32`).
                let compares_to_zero_imm =
                    insn.class() == class::JMP && insn.opcode & src::X == 0 && insn.imm == 0;
                if insn.opcode & src::X != 0 {
                    self.read_reg(pc, regs, insn.src)?;
                }
                let target = (pc as i64 + 1 + i64::from(insn.off)) as usize;
                let mut taken_regs = regs.clone();
                // Null-check refinement: `if (ptr == 0)` / `if (ptr != 0)`
                // clears `maybe_null` on the branch where the pointer is
                // known to be non-NULL.
                if let RegType::PtrToMapValue { maybe_null: true, offset, map } = dst_type {
                    let non_null = RegType::PtrToMapValue { maybe_null: false, offset, map };
                    if compares_to_zero_imm && op == jmp::JEQ {
                        // taken: ptr is NULL; fallthrough: non-NULL.
                        taken_regs.regs[usize::from(insn.dst)] = RegType::Scalar(Some(0));
                        regs.regs[usize::from(insn.dst)] = non_null;
                    } else if compares_to_zero_imm && op == jmp::JNE {
                        taken_regs.regs[usize::from(insn.dst)] = non_null;
                        regs.regs[usize::from(insn.dst)] = RegType::Scalar(Some(0));
                    }
                }
                Ok(Step::BranchBoth { taken: target, fallthrough: pc + 1, taken_regs })
            }
        }
    }
}

#[allow(clippy::large_enum_variant)]
enum Step {
    Next,
    SkipOne,
    Jump(usize),
    BranchBoth { taken: usize, fallthrough: usize, taken_regs: RegFile },
    Exit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::{alu, jmp, AccessSize, Insn};
    use crate::maps::ArrayMap;
    use crate::program::{Program, ProgramType};
    use crate::vm::map_ptr_value;

    fn verify_insns(insns: Vec<Insn>) -> Result<VerifierStats> {
        let prog = Program::new("t", ProgramType::SocketFilter, insns);
        verify(&prog, &HelperRegistry::with_base_helpers(), &HashMap::new())
    }

    fn verify_with_map(insns: Vec<Insn>) -> Result<VerifierStats> {
        let prog = Program::new("t", ProgramType::SocketFilter, insns);
        let mut maps: HashMap<u32, MapHandle> = HashMap::new();
        maps.insert(1, ArrayMap::new(8, 4));
        verify(&prog, &HelperRegistry::with_base_helpers(), &maps)
    }

    #[test]
    fn accepts_minimal_program() {
        let stats = verify_insns(vec![Insn::mov64_imm(0, 0), Insn::exit()]).unwrap();
        assert!(stats.insns_processed >= 2);
    }

    #[test]
    fn rejects_empty_program() {
        assert!(verify_insns(vec![]).is_err());
    }

    #[test]
    fn rejects_uninitialised_register_read() {
        let err = verify_insns(vec![Insn::mov64_reg(0, 3), Insn::exit()]).unwrap_err();
        assert!(err.to_string().contains("uninitialised"));
    }

    #[test]
    fn rejects_uninitialised_r0_at_exit() {
        assert!(verify_insns(vec![Insn::exit()]).is_err());
    }

    #[test]
    fn rejects_write_to_frame_pointer() {
        assert!(verify_insns(vec![Insn::mov64_imm(10, 0), Insn::mov64_imm(0, 0), Insn::exit()]).is_err());
    }

    #[test]
    fn rejects_fallthrough_past_end() {
        assert!(verify_insns(vec![Insn::mov64_imm(0, 0)]).is_err());
    }

    #[test]
    fn rejects_loops() {
        let insns = vec![Insn::mov64_imm(0, 0), Insn::alu64_imm(alu::ADD, 0, 1), Insn::ja(-2)];
        let err = verify_insns(insns).unwrap_err();
        assert!(err.to_string().contains("back-edge") || err.to_string().contains("loop"));
    }

    #[test]
    fn rejects_out_of_range_jump() {
        assert!(verify_insns(vec![Insn::mov64_imm(0, 0), Insn::ja(5), Insn::exit()]).is_err());
        assert!(verify_insns(vec![Insn::jmp_imm(jmp::JEQ, 1, 0, -5), Insn::mov64_imm(0, 0), Insn::exit()])
            .is_err());
    }

    #[test]
    fn rejects_jump_into_lddw() {
        let insns = vec![
            Insn::ja(1),
            Insn::lddw_lo(2, 0x1234),
            Insn::lddw_hi(0x1234),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        assert!(verify_insns(insns).is_err());
    }

    #[test]
    fn rejects_truncated_lddw() {
        assert!(verify_insns(vec![Insn::lddw_lo(2, 1)]).is_err());
    }

    #[test]
    fn rejects_stack_out_of_bounds() {
        // Below the frame.
        assert!(verify_insns(vec![
            Insn::store_imm(AccessSize::Double, 10, -520, 1),
            Insn::mov64_imm(0, 0),
            Insn::exit()
        ])
        .is_err());
        // Above the frame pointer.
        assert!(verify_insns(vec![
            Insn::store_imm(AccessSize::Double, 10, 8, 1),
            Insn::mov64_imm(0, 0),
            Insn::exit()
        ])
        .is_err());
    }

    #[test]
    fn accepts_stack_access_and_reports_depth() {
        let stats = verify_insns(vec![
            Insn::store_imm(AccessSize::Double, 10, -64, 1),
            Insn::load(AccessSize::Double, 0, 10, -64),
            Insn::exit(),
        ])
        .unwrap();
        assert_eq!(stats.stack_depth, 64);
    }

    #[test]
    fn rejects_memory_access_through_scalar() {
        let insns = vec![Insn::mov64_imm(2, 1000), Insn::load(AccessSize::Word, 0, 2, 0), Insn::exit()];
        assert!(verify_insns(insns).is_err());
    }

    #[test]
    fn rejects_store_to_packet_pointer() {
        // r1 is the ctx pointer; a load from ctx yields a scalar, so build a
        // packet pointer the honest way is impossible here — instead check
        // the ctx path: stores inside the ctx bound are allowed, outside are
        // rejected.
        assert!(verify_insns(vec![
            Insn::store_imm(AccessSize::Word, 1, 300, 0),
            Insn::mov64_imm(0, 0),
            Insn::exit()
        ])
        .is_err());
        assert!(verify_insns(vec![
            Insn::store_imm(AccessSize::Word, 1, 16, 0),
            Insn::mov64_imm(0, 0),
            Insn::exit()
        ])
        .is_ok());
    }

    /// An LWT program may not overwrite its context's `data` / `data_end`
    /// pointers: a reload of `data` is typed as a packet pointer, so a
    /// stored address would be trusted as one. The pinned probe stores an
    /// arbitrary address into `data`, reloads it and reads through it; it
    /// is refused at load, on every LWT type. Stores past the two pointers
    /// (`len` at 16, `mark` at 24) still load, and a socket filter's
    /// context has no packet pointers to protect.
    #[test]
    fn lwt_programs_cannot_store_to_the_context_packet_pointers() {
        let probe = |x: u64| {
            vec![
                Insn::lddw_lo(2, x),
                Insn::lddw_hi(x),
                Insn::store_reg(AccessSize::Double, 1, 2, 0),
                Insn::load(AccessSize::Double, 3, 1, 0),
                Insn::load(AccessSize::Byte, 0, 3, 0),
                Insn::exit(),
            ]
        };
        let store_at = |size: AccessSize, off: i16| {
            vec![Insn::store_imm(size, 1, off, 0), Insn::mov64_imm(0, 0), Insn::exit()]
        };
        let helpers = HelperRegistry::with_base_helpers();
        let load = |prog_type: ProgramType, insns: Vec<Insn>| {
            crate::program::load(Program::new("t", prog_type, insns), &HashMap::new(), &helpers)
        };
        for prog_type in [ProgramType::LwtSeg6Local, ProgramType::LwtIn, ProgramType::LwtXmit] {
            for x in [crate::vm::PKT_BASE - 8, 0x7fff_0000_0000] {
                let err = load(prog_type, probe(x)).expect_err("the ctx.data probe must not load");
                assert!(err.to_string().contains("read-only packet pointers"), "{err}");
            }
            for (size, off) in [(AccessSize::Word, 4), (AccessSize::Double, 8), (AccessSize::Byte, 15)] {
                assert!(load(prog_type, store_at(size, off)).is_err(), "{prog_type:?} store at {off}");
            }
            for off in [16, 24] {
                load(prog_type, store_at(AccessSize::Word, off))
                    .unwrap_or_else(|e| panic!("{prog_type:?} store at {off}: {e}"));
            }
        }
        load(ProgramType::SocketFilter, store_at(AccessSize::Double, 0))
            .expect("no packet pointers to protect");
    }

    #[test]
    fn rejects_unknown_helper_and_division_by_zero() {
        assert!(verify_insns(vec![Insn::call(9999), Insn::exit()]).is_err());
        assert!(
            verify_insns(vec![Insn::mov64_imm(0, 1), Insn::alu64_imm(alu::DIV, 0, 0), Insn::exit()]).is_err()
        );
    }

    #[test]
    fn helper_call_clobbers_caller_saved_registers() {
        // r1 must not be readable after a call without re-initialisation.
        let insns = vec![
            Insn::call(crate::helpers::ids::KTIME_GET_NS),
            Insn::mov64_reg(2, 1),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        assert!(verify_insns(insns).is_err());
    }

    #[test]
    fn map_lookup_requires_null_check() {
        let fd = 1u32;
        let mut lddw = Insn::lddw_lo(1, map_ptr_value(fd));
        lddw.src = PSEUDO_MAP_FD;
        lddw.imm = fd as i32;
        // Without a null check the dereference must be rejected.
        let without_check = vec![
            lddw,
            Insn::lddw_hi(0),
            Insn::mov64_reg(2, 10),
            Insn::alu64_imm(alu::ADD, 2, -8),
            Insn::store_imm(AccessSize::Word, 10, -8, 0),
            Insn::call(ids::MAP_LOOKUP_ELEM),
            Insn::load(AccessSize::Double, 3, 0, 0),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        assert!(verify_with_map(without_check).is_err());

        // With a null check the same access is accepted.
        let with_check = vec![
            lddw,
            Insn::lddw_hi(0),
            Insn::mov64_reg(2, 10),
            Insn::alu64_imm(alu::ADD, 2, -8),
            Insn::store_imm(AccessSize::Word, 10, -8, 0),
            Insn::call(ids::MAP_LOOKUP_ELEM),
            Insn::jmp_imm(jmp::JEQ, 0, 0, 2),
            Insn::load(AccessSize::Double, 3, 0, 0),
            Insn::mov64_imm(0, 0),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        verify_with_map(with_check).unwrap();
    }

    #[test]
    fn map_value_accesses_earn_direct_facts() {
        let fd = 1u32;
        let mut lddw = Insn::lddw_lo(1, map_ptr_value(fd));
        lddw.src = PSEUDO_MAP_FD;
        lddw.imm = fd as i32;
        // lookup; null check; 4-byte loads at offsets 0 and 4 (value is 8
        // bytes, so both are statically in bounds); then a load through the
        // pointer after adding an unknown scalar (degrades to Other).
        let insns = vec![
            lddw,
            Insn::lddw_hi(0),
            Insn::mov64_reg(2, 10),
            Insn::alu64_imm(alu::ADD, 2, -8),
            Insn::store_imm(AccessSize::Word, 10, -8, 0),
            Insn::call(ids::MAP_LOOKUP_ELEM),
            Insn::jmp_imm(jmp::JEQ, 0, 0, 5),
            Insn::load(AccessSize::Word, 3, 0, 0),
            Insn::load(AccessSize::Word, 4, 0, 4),
            Insn::alu64_reg(alu::ADD, 0, 3),
            Insn::load(AccessSize::Byte, 5, 0, 0),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        let prog = Program::new("t", ProgramType::SocketFilter, insns);
        let mut maps: HashMap<u32, MapHandle> = HashMap::new();
        maps.insert(1, ArrayMap::new(8, 4));
        let (_, facts) = verify_with_facts(&prog, &HelperRegistry::with_base_helpers(), &maps).unwrap();
        assert_eq!(facts.get(5), AccessFact::MapLookup { fd: 1 });
        assert_eq!(facts.get(7), AccessFact::MapValue { fd: 1 });
        assert_eq!(facts.get(8), AccessFact::MapValue { fd: 1 });
        assert_eq!(facts.get(10), AccessFact::Other, "unknown offset must stay generic");
    }

    #[test]
    fn map_value_facts_degrade_past_the_value_bound() {
        let fd = 1u32;
        let mut lddw = Insn::lddw_lo(1, map_ptr_value(fd));
        lddw.src = PSEUDO_MAP_FD;
        lddw.imm = fd as i32;
        // An 8-byte load at offset 4 of an 8-byte value crosses the bound:
        // still accepted (the run-time path faults it, as before), but it
        // must not earn the direct-access fact.
        let insns = vec![
            lddw,
            Insn::lddw_hi(0),
            Insn::mov64_reg(2, 10),
            Insn::alu64_imm(alu::ADD, 2, -8),
            Insn::store_imm(AccessSize::Word, 10, -8, 0),
            Insn::call(ids::MAP_LOOKUP_ELEM),
            Insn::jmp_imm(jmp::JEQ, 0, 0, 2),
            Insn::load(AccessSize::Double, 3, 0, 4),
            Insn::mov64_imm(0, 0),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        let prog = Program::new("t", ProgramType::SocketFilter, insns);
        let mut maps: HashMap<u32, MapHandle> = HashMap::new();
        maps.insert(1, ArrayMap::new(8, 4));
        let (_, facts) = verify_with_facts(&prog, &HelperRegistry::with_base_helpers(), &maps).unwrap();
        assert_eq!(facts.get(7), AccessFact::Other);
    }

    #[test]
    fn rejects_pointer_multiplication() {
        let insns = vec![
            Insn::mov64_reg(2, 10),
            Insn::alu64_imm(alu::MUL, 2, 8),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        assert!(verify_insns(insns).is_err());
    }

    #[test]
    fn rejects_pointer_pointer_arithmetic() {
        let insns = vec![
            Insn::mov64_reg(2, 10),
            Insn::alu64_reg(alu::ADD, 2, 1),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        assert!(verify_insns(insns).is_err());
    }

    /// A 32-bit ALU op keeps the low half of a pointer: at run time
    /// `add32 r2, -8` on the frame pointer leaves `0x1f8` in `r2`, and a
    /// `mov32` copy of it does the same. Both are refused, as the kernel
    /// refuses 32-bit pointer arithmetic and (unprivileged) partial copies.
    #[test]
    fn rejects_32_bit_alu_on_pointers() {
        let add32 = vec![
            Insn::mov64_imm(3, 7),
            Insn::mov64_reg(2, 10),
            Insn::alu32_imm(alu::ADD, 2, -8),
            Insn::load(AccessSize::Double, 0, 2, 0),
            Insn::exit(),
        ];
        let err = verify_insns(add32).unwrap_err();
        assert!(err.to_string().contains("32-bit pointer arithmetic"), "{err}");
        let mov32 = vec![
            Insn::mov64_imm(3, 7),
            Insn::mov32_reg(2, 10),
            Insn::store_reg(AccessSize::Double, 2, 3, -8),
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        let err = verify_insns(mov32).unwrap_err();
        assert!(err.to_string().contains("partial copy of pointer"), "{err}");
        // A scalar operand of a 64-bit pointer op may come from a 32-bit op.
        let scalar = vec![
            Insn::mov32_imm(3, 8),
            Insn::mov64_reg(2, 10),
            Insn::alu64_reg(alu::SUB, 2, 3),
            Insn::load(AccessSize::Double, 0, 2, 0),
            Insn::exit(),
        ];
        verify_insns(scalar).unwrap();
    }

    /// A 32-bit result is zero-extended on every tier: `mov32 r1, -8` leaves
    /// `0xfffffff8`, not `-8`, so `fp + r1` is far outside the stack, and
    /// so is the result of `add32` wrapping below zero.
    #[test]
    fn a_32_bit_constant_is_zero_extended() {
        let through = |setup: Vec<Insn>| {
            let mut insns = setup;
            insns.extend([
                Insn::mov64_reg(2, 10),
                Insn::alu64_reg(alu::ADD, 2, 1),
                Insn::load(AccessSize::Double, 0, 2, 0),
                Insn::exit(),
            ]);
            verify_insns(insns)
        };
        assert!(through(vec![Insn::mov32_imm(1, -8)]).is_err());
        assert!(through(vec![Insn::mov64_imm(1, -16), Insn::alu32_imm(alu::ADD, 1, 8)]).is_err());
        assert!(through(vec![Insn::mov64_imm(1, -8), Insn::mov32_reg(1, 1)]).is_err());
        // 64-bit ops keep the sign, and a 32-bit shift amount is taken mod 32.
        through(vec![Insn::mov64_imm(1, -8)]).unwrap();
        through(vec![
            Insn::mov32_imm(1, 1),
            Insn::alu32_imm(alu::LSH, 1, 35),
            Insn::alu64_imm(alu::SUB, 1, 16),
        ])
        .unwrap();
    }

    /// A map-value pointer may have zero low 32 bits, so `jne32 r0, 0`
    /// proves nothing about NULL: the fall-through must not type `r0` as
    /// the constant 0 (which would let `fp + r0` pass as a stack pointer).
    #[test]
    fn a_32_bit_null_check_does_not_refine_a_map_value_pointer() {
        let fd = 1u32;
        let mut lddw = Insn::lddw_lo(1, map_ptr_value(fd));
        lddw.src = PSEUDO_MAP_FD;
        lddw.imm = fd as i32;
        let insns = |check: Insn| {
            vec![
                lddw,
                Insn::lddw_hi(map_ptr_value(fd)),
                Insn::store_imm(AccessSize::Word, 10, -8, 0),
                Insn::mov64_reg(2, 10),
                Insn::alu64_imm(alu::ADD, 2, -8),
                Insn::call(ids::MAP_LOOKUP_ELEM),
                check,
                Insn::mov64_reg(2, 10),
                Insn::alu64_reg(alu::ADD, 2, 0),
                Insn::load(AccessSize::Double, 0, 2, -8),
                Insn::exit(),
                Insn::mov64_imm(0, 0),
                Insn::exit(),
            ]
        };
        let err = verify_with_map(insns(Insn::jmp32_imm(jmp::JNE, 0, 0, 4))).unwrap_err();
        assert!(err.to_string().contains("pointer-pointer arithmetic"), "{err}");
        // The 64-bit check refines, and `fp + 0` is then a stack pointer.
        verify_with_map(insns(Insn::jmp_imm(jmp::JNE, 0, 0, 4))).unwrap();
    }

    #[test]
    fn gates_helpers_by_program_type() {
        static ONLY_XMIT: &[ProgramType] = &[ProgramType::LwtXmit];
        fn noop(_api: &mut crate::vm::HelperApi<'_, '_>, _args: [u64; 5]) -> i64 {
            0
        }
        let mut helpers = HelperRegistry::with_base_helpers();
        helpers.register(200, "xmit_only", noop, Some(ONLY_XMIT));
        let insns = vec![Insn::call(200), Insn::exit()];
        let seg6 = Program::new("t", ProgramType::LwtSeg6Local, insns.clone());
        assert!(verify(&seg6, &helpers, &HashMap::new()).is_err());
        let xmit = Program::new("t", ProgramType::LwtXmit, insns);
        verify(&xmit, &helpers, &HashMap::new()).unwrap();
    }

    #[test]
    fn access_facts_classify_regions() {
        let insns = vec![
            Insn::store_imm(AccessSize::Double, 10, -8, 7), // stack store
            Insn::load(AccessSize::Word, 0, 1, 16),         // ctx load
            Insn::exit(),
        ];
        let prog = Program::new("t", ProgramType::SocketFilter, insns);
        let (_, facts) =
            verify_with_facts(&prog, &HelperRegistry::with_base_helpers(), &HashMap::new()).unwrap();
        assert_eq!(facts.get(0), AccessFact::Stack);
        assert_eq!(facts.get(1), AccessFact::Ctx { end: 20 });
        assert_eq!(facts.get(2), AccessFact::Other);
    }

    #[test]
    fn access_facts_mark_packet_loads() {
        // LWT programs get a packet pointer from ctx[0].
        let insns = vec![
            Insn::load(AccessSize::Double, 2, 1, 0), // r2 = packet ptr
            Insn::load(AccessSize::Byte, 0, 2, 3),   // packet load
            Insn::exit(),
        ];
        let prog = Program::new("t", ProgramType::LwtXmit, insns);
        let (_, facts) =
            verify_with_facts(&prog, &HelperRegistry::with_base_helpers(), &HashMap::new()).unwrap();
        assert_eq!(facts.get(0), AccessFact::Ctx { end: 8 });
        assert_eq!(facts.get(1), AccessFact::Packet);
    }

    #[test]
    fn access_facts_degrade_on_conflicting_paths() {
        // One path loads through a ctx pointer, the other through a stack
        // pointer, both via r2 at the same insn — the fact must degrade to
        // Other so the native tier falls back to generic resolution.
        let insns = vec![
            Insn::mov64_reg(2, 1), // r2 = ctx ptr
            Insn::load(AccessSize::Byte, 0, 1, 0),
            Insn::jmp_imm(jmp::JEQ, 0, 0, 2),
            Insn::mov64_reg(2, 10), // fallthrough: r2 = fp
            Insn::alu64_imm(alu::ADD, 2, -16),
            Insn::load(AccessSize::Byte, 3, 2, 4), // ctx+4 on one path, stack-12 on the other
            Insn::mov64_imm(0, 0),
            Insn::exit(),
        ];
        let prog = Program::new("t", ProgramType::SocketFilter, insns);
        let (_, facts) =
            verify_with_facts(&prog, &HelperRegistry::with_base_helpers(), &HashMap::new()).unwrap();
        assert_eq!(facts.get(5), AccessFact::Other);
    }

    #[test]
    fn counts_branches() {
        let insns = vec![
            Insn::mov64_imm(0, 1),
            Insn::jmp_imm(jmp::JEQ, 0, 1, 1),
            Insn::mov64_imm(0, 2),
            Insn::exit(),
        ];
        let stats = verify_insns(insns).unwrap();
        assert_eq!(stats.branches, 1);
    }
}
