//! The bytecode interpreter.
//!
//! This engine mirrors the kernel's `___bpf_prog_run` interpreter loop: it
//! walks the program's verified instruction array
//! ([`crate::program::Program::insns`]), the same array the native emitter
//! lowers, and every step fetches, validates and executes one instruction,
//! checking the instruction budget as it goes. It is the execution mode the
//! paper benchmarks when the JIT compiler is disabled (the "Add TLV no JIT"
//! bar of Figure 2 and the Turris Omnia ARM32 case of §4.2).

use crate::error::{Error, Result};
use crate::insn::Insn;
use crate::program::LoadedProgram;
use crate::vm::{execute_insn, Flow, HelperApi, RunContext, RunState};

/// Runs `loaded` to completion and returns r0.
pub fn run(loaded: &LoadedProgram, rc: &mut RunContext<'_>) -> Result<u64> {
    let mut state = RunState::new(rc.ctx.len());
    run_with_state(loaded, rc, &mut state)
}

/// Runs `loaded` with a caller-provided state (so callers can inspect the
/// registers or set a custom instruction budget).
///
/// Helper calls dispatch through the program's **load-time** helper table
/// ([`LoadedProgram::helper_table`]), exactly like the native tier —
/// helpers are fixed at verification, as in the kernel, so no engine can
/// run a program under a different registry than it was loaded with.
pub fn run_with_state(loaded: &LoadedProgram, rc: &mut RunContext<'_>, state: &mut RunState) -> Result<u64> {
    let insns = &loaded.program.insns;
    let fetch = |pc: usize| -> Result<&Insn> {
        insns.get(pc).ok_or_else(|| Error::runtime(pc, "program counter out of bounds"))
    };
    let mut pc = 0usize;
    loop {
        let insn = fetch(pc)?;
        if insn.is_call() {
            state.insn_executed += 1;
            if state.insn_executed > state.insn_budget {
                return Err(Error::runtime(pc, "instruction budget exceeded"));
            }
            let id = insn.imm as u32;
            let desc = loaded
                .helper_index(id)
                .and_then(|idx| loaded.helper_table().get(idx as usize))
                .ok_or_else(|| Error::runtime(pc, format!("unknown helper {id}")))?;
            let args = [state.regs[1], state.regs[2], state.regs[3], state.regs[4], state.regs[5]];
            let ret = {
                let mut api = HelperApi { state, rc, maps: &loaded.maps };
                (desc.func)(&mut api, args)
            };
            state.regs[0] = ret as u64;
            pc += 1;
            continue;
        }
        let next = if insn.is_lddw() { Some(fetch(pc + 1)?) } else { None };
        match execute_insn(state, rc, &loaded.maps, insn, next, pc)? {
            Flow::Next => pc += 1,
            Flow::SkipOne => pc += 2,
            Flow::Branch(delta) => {
                let target = pc as i64 + 1 + delta;
                if target < 0 || target as usize >= insns.len() {
                    return Err(Error::runtime(pc, "jump target out of bounds"));
                }
                pc = target as usize;
            }
            Flow::Exit => return Ok(state.regs[0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::{alu, jmp, AccessSize, Insn};
    use crate::program::{load, Program, ProgramType};
    use crate::vm::{NullEnv, PKT_BASE};
    use std::collections::HashMap;

    fn run_insns(insns: Vec<Insn>, packet: &mut Vec<u8>) -> Result<u64> {
        let prog = Program::new("test", ProgramType::SocketFilter, insns);
        let helpers = HelperRegistry::with_base_helpers();
        let loaded = load(prog, &HashMap::new(), &helpers).expect("verifier");
        let mut ctx = vec![0u8; 32];
        let mut env = NullEnv;
        let mut rc = RunContext::new(&mut ctx, packet, &mut env);
        run(&loaded, &mut rc)
    }

    #[test]
    fn returns_immediate() {
        let mut pkt = vec![0u8; 8];
        let r = run_insns(vec![Insn::mov64_imm(0, 1234), Insn::exit()], &mut pkt).unwrap();
        assert_eq!(r, 1234);
    }

    #[test]
    fn arithmetic_loopless_program() {
        // r0 = (7 * 6) - 2 = 40; r0 += 2 -> 42
        let mut pkt = vec![0u8; 8];
        let insns = vec![
            Insn::mov64_imm(1, 7),
            Insn::mov64_imm(2, 6),
            Insn::alu64_reg(alu::MUL, 1, 2),
            Insn::mov64_reg(0, 1),
            Insn::alu64_imm(alu::SUB, 0, 2),
            Insn::alu64_imm(alu::ADD, 0, 2),
            Insn::exit(),
        ];
        assert_eq!(run_insns(insns, &mut pkt).unwrap(), 42);
    }

    #[test]
    fn conditional_branch_and_packet_read() {
        // Return the first packet byte if it equals 0x60, else 0. The packet
        // pointer is loaded from the LWT context's `data` field, as real
        // programs do.
        let insns = vec![
            Insn::load(AccessSize::Double, 2, 1, 0),
            Insn::load(AccessSize::Byte, 3, 2, 0),
            Insn::mov64_imm(0, 0),
            Insn::jmp_imm(jmp::JNE, 3, 0x60, 1),
            Insn::mov64_reg(0, 3),
            Insn::exit(),
        ];
        let run_lwt = |insns: Vec<Insn>, pkt: &mut Vec<u8>| -> u64 {
            let prog = Program::new("pkt", ProgramType::LwtXmit, insns);
            let helpers = HelperRegistry::with_base_helpers();
            let loaded = load(prog, &HashMap::new(), &helpers).expect("verifier");
            let mut ctx = vec![0u8; 32];
            ctx[0..8].copy_from_slice(&PKT_BASE.to_le_bytes());
            ctx[8..16].copy_from_slice(&(PKT_BASE + pkt.len() as u64).to_le_bytes());
            let mut env = NullEnv;
            let mut rc = RunContext::new(&mut ctx, pkt, &mut env);
            run(&loaded, &mut rc).unwrap()
        };
        let mut pkt = vec![0x60u8, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(run_lwt(insns.clone(), &mut pkt), 0x60);
        let mut pkt2 = vec![0x45u8, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(run_lwt(insns, &mut pkt2), 0);
    }

    #[test]
    fn stack_store_and_load() {
        let mut pkt = vec![0u8; 8];
        let insns = vec![
            Insn::store_imm(AccessSize::Double, 10, -8, 0x1122),
            Insn::load(AccessSize::Double, 0, 10, -8),
            Insn::exit(),
        ];
        assert_eq!(run_insns(insns, &mut pkt).unwrap(), 0x1122);
    }

    #[test]
    fn lddw_loads_64_bit_immediates() {
        let mut pkt = vec![0u8; 8];
        let value = 0x1234_5678_9abc_def0u64;
        let insns = vec![Insn::lddw_lo(0, value), Insn::lddw_hi(value), Insn::exit()];
        assert_eq!(run_insns(insns, &mut pkt).unwrap(), value);
    }

    #[test]
    fn byte_swap_to_network_order() {
        let mut pkt = vec![0u8; 8];
        let insns = vec![Insn::mov64_imm(0, 0x1234), Insn::to_be(0, 16), Insn::exit()];
        assert_eq!(run_insns(insns, &mut pkt).unwrap(), 0x3412);
    }

    #[test]
    fn helper_call_ktime() {
        let mut pkt = vec![0u8; 8];
        let insns = vec![Insn::call(crate::helpers::ids::KTIME_GET_NS), Insn::exit()];
        // NullEnv returns 0 for ktime.
        assert_eq!(run_insns(insns, &mut pkt).unwrap(), 0);
    }
}
