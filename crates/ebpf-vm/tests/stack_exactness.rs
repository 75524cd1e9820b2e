//! A reused `RunState` hands every run an all-zero stack, on every tier.
//!
//! One state runs a program that dirties the stack, then a program that
//! reads all 512 bytes of it. The stack is dirtied three ways, each alone
//! and all together: a direct store at `r10 - 512` (inside the verifier's
//! stack depth), `bpf_skb_load_bytes` into `r10 - 256` (a helper write
//! through a stack pointer the verifier never sees dereferenced), and the
//! same helper writing through a *scalar* address built with `lddw
//! STACK_BASE + off` (which the verifier does not know is the stack at
//! all). Whatever a reset skips, the reader — or the whole-image check
//! after an explicit reset — sees.

use ebpf_vm::helpers::ids;
use ebpf_vm::insn::{alu, AccessSize, STACK_SIZE};
use ebpf_vm::program::{load, ExecTier, LoadedProgram, ProgramType};
use ebpf_vm::vm::{run_program_with_state, NullEnv, RunContext, RunState, STACK_BASE};
use ebpf_vm::{HelperRegistry, ProgramBuilder};
use std::collections::HashMap;
use std::sync::Arc;

/// Where the scalar-address helper write lands.
const SCALAR_OFFSET: u64 = 100;

#[derive(Debug, Clone, Copy)]
enum Dirt {
    DirectStore,
    LoadBytes,
    ScalarAddress,
}

const ALL_DIRT: [Dirt; 3] = [Dirt::DirectStore, Dirt::LoadBytes, Dirt::ScalarAddress];

fn load_prog(b: &ProgramBuilder, helpers: &HelperRegistry) -> Arc<LoadedProgram> {
    let prog = b.build_program("stack-exactness", ProgramType::LwtXmit).expect("static program");
    load(prog, &HashMap::new(), helpers).expect("verified program")
}

/// A program that dirties the stack in each of `ways`, then returns 0.
fn dirtier(ways: &[Dirt], helpers: &HelperRegistry) -> Arc<LoadedProgram> {
    let mut b = ProgramBuilder::new();
    b.mov_reg(6, 1);
    for way in ways {
        match way {
            Dirt::DirectStore => {
                b.store_imm(AccessSize::Double, 10, -(STACK_SIZE as i16), -1);
            }
            Dirt::LoadBytes => {
                b.mov_reg(1, 6);
                b.mov_imm(2, 0);
                b.mov_reg(3, 10);
                b.add_imm(3, -256);
                b.mov_imm(4, 16);
                b.call(ids::SKB_LOAD_BYTES);
            }
            Dirt::ScalarAddress => {
                b.mov_reg(1, 6);
                b.mov_imm(2, 0);
                b.load_imm64(3, STACK_BASE + SCALAR_OFFSET);
                b.mov_imm(4, 8);
                b.call(ids::SKB_LOAD_BYTES);
            }
        }
    }
    b.ret(0);
    load_prog(&b, helpers)
}

/// A program returning the OR of every stack word.
fn reader(helpers: &HelperRegistry) -> Arc<LoadedProgram> {
    let mut b = ProgramBuilder::new();
    b.mov_imm(0, 0);
    for word in 1..=(STACK_SIZE / 8) as i16 {
        b.load_mem(AccessSize::Double, 1, 10, -8 * word);
        b.alu_reg(alu::OR, 0, 1);
    }
    b.exit();
    load_prog(&b, helpers)
}

/// Offsets (from `STACK_BASE`) each way of dirtying writes.
fn dirtied_offset(way: Dirt) -> usize {
    match way {
        Dirt::DirectStore => 0,
        Dirt::LoadBytes => STACK_SIZE - 256,
        Dirt::ScalarAddress => SCALAR_OFFSET as usize,
    }
}

fn stack_byte(state: &RunState, offset: usize) -> u8 {
    state.stack()[offset]
}

fn stack_is_zero(state: &RunState) -> bool {
    state.stack().iter().all(|&x| x == 0)
}

#[test]
fn every_run_starts_from_an_all_zero_stack_on_every_tier() {
    let helpers = HelperRegistry::with_base_helpers();
    let read = reader(&helpers);
    let mut cases: Vec<Vec<Dirt>> = ALL_DIRT.iter().map(|&d| vec![d]).collect();
    cases.push(ALL_DIRT.to_vec());
    for tier in ExecTier::ALL {
        for ways in &cases {
            let dirty = dirtier(ways, &helpers);
            let case = format!("{} / {ways:?}", tier.name());
            let mut ctx = vec![0u8; 64];
            let mut packet = vec![0xa5u8; 64];
            let mut env = NullEnv;
            let mut rc = RunContext::new(&mut ctx, &mut packet, &mut env);
            // One state for both programs, as a datapath shares one across
            // every program it runs.
            let mut state = RunState::new(64);
            for round in 0..3 {
                let ret = run_program_with_state(&dirty, &helpers, &mut rc, tier, &mut state);
                assert_eq!(ret.expect("dirtier runs"), 0, "{case}, round {round}");
                for &way in ways {
                    let offset = dirtied_offset(way);
                    assert_ne!(stack_byte(&state, offset), 0, "{case}: {way:?} wrote nothing");
                }
                let seen = run_program_with_state(&read, &helpers, &mut rc, tier, &mut state);
                assert_eq!(seen.expect("reader runs"), 0, "{case}, round {round}: stale stack bytes");

                run_program_with_state(&dirty, &helpers, &mut rc, tier, &mut state).expect("dirtier runs");
                state.reset();
                assert!(stack_is_zero(&state), "{case}, round {round}: reset left stack bytes");
            }
        }
    }
}
