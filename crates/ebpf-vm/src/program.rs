//! Program containers and the loader.
//!
//! A [`Program`] is the unverified unit an operator writes (by hand, with
//! the [`crate::asm`] assembler or the [`crate::builder::ProgramBuilder`]).
//! Loading it — as `bpf(BPF_PROG_LOAD)` does in the kernel — resolves the
//! map file descriptors referenced by `lddw`-with-pseudo-map-fd
//! instructions, laying each map out as one region of the program's
//! address space ([`crate::maps::ProgramMaps`]), runs the verifier and
//! emits native code, producing a [`LoadedProgram`] whose one instruction
//! array both the interpreter and the native code were built from.

use crate::error::{Error, Result};
use crate::helpers::{HelperDesc, HelperRegistry};
use crate::insn::Insn;
use crate::maps::{MapHandle, ProgramMaps};
use crate::verifier::{self, AccessFacts, VerifierStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// The source-register value marking an `lddw` as a pseudo map-fd load,
/// mirroring the kernel's `BPF_PSEUDO_MAP_FD`.
pub const PSEUDO_MAP_FD: u8 = 1;

/// Hook a program is written for. The hook determines which helpers the
/// verifier lets the program call and what its context looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgramType {
    /// The paper's new hook: `seg6local` `End.BPF` endpoint programs.
    LwtSeg6Local,
    /// Lightweight-tunnel input hook.
    LwtIn,
    /// Lightweight-tunnel transmit hook (where `bpf_lwt_push_encap` lives).
    LwtXmit,
    /// Classic socket filter (used in tests).
    SocketFilter,
}

impl ProgramType {
    /// Human-readable name, as `bpftool` would print it.
    pub fn name(&self) -> &'static str {
        match self {
            ProgramType::LwtSeg6Local => "lwt_seg6local",
            ProgramType::LwtIn => "lwt_in",
            ProgramType::LwtXmit => "lwt_xmit",
            ProgramType::SocketFilter => "socket_filter",
        }
    }
}

/// Return codes understood by the seg6local and LWT hooks, as defined in the
/// paper (§3.1).
pub mod retcode {
    /// Continue with the default processing (FIB lookup on the new
    /// destination for `End.BPF`).
    pub const BPF_OK: u64 = 0;
    /// Drop the packet.
    pub const BPF_DROP: u64 = 2;
    /// Skip the default lookup; the destination was already set through a
    /// helper (`bpf_lwt_seg6_action` with a lookup-performing action).
    pub const BPF_REDIRECT: u64 = 7;
}

/// An unverified eBPF program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Name used in diagnostics (mirrors the kernel's 16-byte prog name).
    pub name: String,
    /// Hook the program targets.
    pub prog_type: ProgramType,
    /// The instruction stream.
    pub insns: Vec<Insn>,
    /// License string; GPL-compatible licenses unlock all helpers, as in the
    /// kernel.
    pub license: String,
}

impl Program {
    /// Creates a program with the GPL license.
    pub fn new(name: impl Into<String>, prog_type: ProgramType, insns: Vec<Insn>) -> Self {
        Program { name: name.into(), prog_type, insns, license: "GPL".to_string() }
    }

    /// Number of instructions (two-slot `lddw` counts as two).
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// How a loaded program is executed.
///
/// The loader auto-selects the best tier the host supports —
/// [`ExecTier::Native`] on x86-64 Linux, [`ExecTier::Interp`] elsewhere, as
/// the kernel runs its interpreter without `CONFIG_BPF_JIT` — and every
/// tier's artifact is built eagerly at load time, so switching tiers later
/// (tests, benchmarks, the `SEG6_EXEC_TIER` override) never allocates on
/// the packet path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// The faithful per-instruction interpreter ([`crate::interp`]) — the
    /// oracle the native tier is differential-tested against.
    Interp,
    /// Native x86-64 machine code lowered from the instructions
    /// ([`crate::codegen`]); execution falls back to [`ExecTier::Interp`]
    /// when the host has no backend.
    Native,
}

impl ExecTier {
    /// All tiers, in increasing order of sophistication.
    pub const ALL: [ExecTier; 2] = [ExecTier::Interp, ExecTier::Native];

    /// Short lowercase name, as accepted by the `SEG6_EXEC_TIER`
    /// environment override.
    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::Native => "native",
        }
    }

    /// Parses a tier name (the `SEG6_EXEC_TIER` values).
    pub fn parse(name: &str) -> Option<ExecTier> {
        ExecTier::ALL.into_iter().find(|tier| tier.name() == name)
    }

    /// The tier the loader picks on this host absent any override: native
    /// where a backend exists, the interpreter elsewhere.
    pub fn best_supported() -> ExecTier {
        if crate::codegen::supported() {
            ExecTier::Native
        } else {
            ExecTier::Interp
        }
    }
}

/// The program's current tier selection — atomic so tests and benchmarks
/// can flip a shared `Arc<LoadedProgram>` without synchronisation.
struct TierCell(AtomicBool);

impl TierCell {
    fn new(tier: ExecTier) -> Self {
        TierCell(AtomicBool::new(tier == ExecTier::Native))
    }
    fn get(&self) -> ExecTier {
        if self.0.load(Ordering::Relaxed) {
            ExecTier::Native
        } else {
            ExecTier::Interp
        }
    }
    fn set(&self, tier: ExecTier) {
        self.0.store(tier == ExecTier::Native, Ordering::Relaxed);
    }
}

impl Clone for TierCell {
    fn clone(&self) -> Self {
        TierCell(AtomicBool::new(self.0.load(Ordering::Relaxed)))
    }
}

/// A verified program with its maps resolved, ready for execution.
#[derive(Clone)]
pub struct LoadedProgram {
    /// The original program.
    pub program: Program,
    /// Maps referenced by the program, keyed by the fd used in the bytecode
    /// and laid out as the program's map-value regions.
    pub maps: ProgramMaps,
    /// Statistics reported by the verifier.
    pub verifier_stats: VerifierStats,
    /// The helpers this program calls, resolved from the registry once at
    /// load time. Native code calls a helper by its index into this table,
    /// resolved at emission, so the per-packet dispatch is a
    /// bounds-checked array read of a pre-resolved function pointer — no
    /// id lookup at all.
    helper_table: Vec<HelperDesc>,
    /// Helper ids parallel to `helper_table`, for diagnostics and the
    /// compile-time id → index resolution.
    helper_ids: Vec<u32>,
    /// Per-memory-instruction bounds facts exported by the verifier; the
    /// native code generator uses them to elide per-access checks.
    access_facts: AccessFacts,
    /// The selected execution tier.
    tier: TierCell,
    /// The native code, built at load time as the kernel JIT compiles at
    /// `BPF_PROG_LOAD`; `None` on hosts without a backend. Shared behind an
    /// `Arc` so cloning a program shares the executable pages instead of
    /// re-emitting them.
    native: Option<Arc<crate::codegen::NativeProgram>>,
}

impl LoadedProgram {
    /// The helpers this program calls, resolved at load time.
    pub fn helper_table(&self) -> &[HelperDesc] {
        &self.helper_table
    }

    /// The table index of helper `id`, if the program calls it.
    pub fn helper_index(&self, id: u32) -> Option<u32> {
        self.helper_ids.iter().position(|&h| h == id).map(|idx| idx as u32)
    }

    /// The verifier's per-memory-instruction bounds facts.
    pub fn access_facts(&self) -> &AccessFacts {
        &self.access_facts
    }

    /// The native code for this program, or `None` when the host has no
    /// backend. Each `LoadedProgram` owns its own code, so a worker shard
    /// that loads its own program instance also owns its own code, as each
    /// CPU's JIT output is private in the kernel.
    pub fn native(&self) -> Option<&crate::codegen::NativeProgram> {
        self.native.as_deref()
    }

    /// The execution tier [`crate::vm::run_program`] will use.
    pub fn exec_tier(&self) -> ExecTier {
        self.tier.get()
    }

    /// Overrides the execution tier (tests, benchmarks, the CI matrix).
    /// Selecting [`ExecTier::Native`] on a host without a backend is
    /// allowed; execution falls back to the interpreter.
    pub fn set_exec_tier(&self, tier: ExecTier) {
        self.tier.set(tier);
    }
}

impl std::fmt::Debug for LoadedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedProgram")
            .field("name", &self.program.name)
            .field("type", &self.program.prog_type)
            .field("insns", &self.program.insns.len())
            .field("maps", &self.maps.fds().collect::<Vec<_>>())
            .finish()
    }
}

/// Loads (verifies) a program, resolving the map fds it references against
/// `maps`. Fails if the program references an fd that is not provided, or if
/// the verifier rejects it.
pub fn load(
    mut program: Program,
    maps: &HashMap<u32, MapHandle>,
    helpers: &HelperRegistry,
) -> Result<Arc<LoadedProgram>> {
    let tier = *env_tier().as_ref().map_err(|message| Error::Config(message.clone()))?;
    // Every pseudo-map-fd lddw must resolve to a provided map. Its second
    // slot is rewritten to the high half of the map's handle, as the
    // kernel's `resolve_pseudo_ldimm64` writes the map's address into the
    // pair: the pair then loads the handle the verifier types it as, on
    // every tier.
    let mut used = HashMap::new();
    for idx in 0..program.insns.len() {
        let insn = program.insns[idx];
        if insn.is_lddw() && insn.src == PSEUDO_MAP_FD {
            let fd = insn.imm as u32;
            let handle = maps.get(&fd).ok_or_else(|| Error::verifier(idx, format!("unknown map fd {fd}")))?;
            used.insert(fd, Arc::clone(handle));
            if let Some(hi) = program.insns.get_mut(idx + 1) {
                hi.imm = (crate::vm::map_ptr_value(fd) >> 32) as i32;
            }
        }
    }
    let (verifier_stats, access_facts) = verifier::verify_with_facts(&program, helpers, maps)?;
    // Resolve every helper the program calls into a dense per-program
    // table; the verifier has already guaranteed the ids exist and are
    // allowed for this hook. (`lddw` second slots carry opcode 0, so a
    // plain scan cannot mistake one for a call.)
    let mut helper_table = Vec::new();
    let mut helper_ids: Vec<u32> = Vec::new();
    for (idx, insn) in program.insns.iter().enumerate() {
        if !insn.is_call() {
            continue;
        }
        let id = insn.imm as u32;
        if helper_ids.contains(&id) {
            continue;
        }
        let desc = helpers.get(id).ok_or_else(|| Error::verifier(idx, format!("unknown helper {id}")))?;
        helper_ids.push(id);
        helper_table.push(*desc);
    }
    let mut loaded = LoadedProgram {
        program,
        maps: ProgramMaps::new(&used)?,
        verifier_stats,
        helper_table,
        helper_ids,
        access_facts,
        tier: TierCell::new(tier),
        native: None,
    };
    // Build every tier's artifact now, as the kernel JIT compiles at
    // BPF_PROG_LOAD time: the per-packet path only reads them, and a later
    // tier switch (tests, the CI matrix) allocates nothing.
    loaded.native = crate::codegen::compile(&loaded)?.map(Arc::new);
    Ok(Arc::new(loaded))
}

/// The one process-wide switch [`load`] honours, read from the environment
/// once per process, by the first `load()`, and nowhere else:
/// `SEG6_EXEC_TIER` = `interp` | `native` — the tier every new program
/// starts on; the CI matrix uses it to force each tier through the full
/// test suites. Unset, programs start on [`ExecTier::best_supported`]. Any
/// other value fails every `load()`: a mistyped or retired name must not
/// quietly test the default. A forced `native` on a host without a backend
/// falls back to `interp` at dispatch, so the override is portable.
fn env_tier() -> &'static std::result::Result<ExecTier, String> {
    static TIER: OnceLock<std::result::Result<ExecTier, String>> = OnceLock::new();
    TIER.get_or_init(|| {
        let tier = std::env::var_os("SEG6_EXEC_TIER");
        starting_tier(tier.as_ref().map(|v| v.to_string_lossy()).as_deref())
    })
}

/// The tier new programs start on, given the value of `SEG6_EXEC_TIER`
/// (`None` when unset).
fn starting_tier(value: Option<&str>) -> std::result::Result<ExecTier, String> {
    let Some(name) = value else { return Ok(ExecTier::best_supported()) };
    ExecTier::parse(name.trim()).ok_or_else(|| {
        let valid = ExecTier::ALL.map(ExecTier::name).join(", ");
        format!("SEG6_EXEC_TIER={name:?} is not an execution tier (valid values: {valid})")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::HelperRegistry;
    use crate::insn::Insn;

    #[test]
    fn program_type_names() {
        assert_eq!(ProgramType::LwtSeg6Local.name(), "lwt_seg6local");
        assert_eq!(ProgramType::LwtXmit.name(), "lwt_xmit");
    }

    #[test]
    fn tier_names_round_trip_and_retired_names_do_not_parse() {
        assert_eq!(ExecTier::ALL, [ExecTier::Interp, ExecTier::Native]);
        for tier in ExecTier::ALL {
            assert_eq!(ExecTier::parse(tier.name()), Some(tier));
            let cell = TierCell::new(ExecTier::Interp);
            cell.set(tier);
            assert_eq!(cell.get(), tier);
        }
        assert_eq!(ExecTier::parse("fused"), None);
        assert_eq!(ExecTier::parse("microop"), None);
    }

    #[test]
    fn exec_tier_override_accepts_the_two_names_and_rejects_the_rest() {
        assert_eq!(starting_tier(None), Ok(ExecTier::best_supported()));
        for (value, tier) in
            [("interp", ExecTier::Interp), ("native", ExecTier::Native), (" native\n", ExecTier::Native)]
        {
            assert_eq!(starting_tier(Some(value)), Ok(tier), "{value:?}");
        }
        for value in ["fused", "microop", "", "Native", "jit", "interp,native", "2"] {
            let message = starting_tier(Some(value)).expect_err(value);
            assert!(message.contains(&format!("{value:?}")), "{message}");
            for valid in ["interp", "native"] {
                assert!(message.contains(valid), "{message}");
            }
        }
    }

    #[test]
    fn load_trivial_program() {
        let prog = Program::new("noop", ProgramType::SocketFilter, vec![Insn::mov64_imm(0, 0), Insn::exit()]);
        assert_eq!(prog.len(), 2);
        assert!(!prog.is_empty());
        let loaded = load(prog, &HashMap::new(), &HelperRegistry::with_base_helpers()).unwrap();
        assert_eq!(loaded.maps.fds().count(), 0);
        assert!(loaded.verifier_stats.insns_processed >= 2);
    }

    /// A pseudo-map-fd `lddw` loads the map's handle whatever its second
    /// slot held: `load` rewrites the slot, so the interpreter's helper
    /// call and the native tier's inlined lookup see the same map and
    /// return the same value pointer.
    #[test]
    fn pseudo_map_fd_lddw_loads_the_map_handle_on_every_tier() {
        use crate::maps::ArrayMap;
        use crate::vm::{map_ptr_value, run_program_with_state, NullEnv, RunContext, RunState};
        let mut lo = Insn::lddw_lo(1, 0);
        lo.src = PSEUDO_MAP_FD;
        lo.imm = 1;
        let insns = vec![
            lo,
            Insn::lddw_hi(0),
            Insn::store_imm(crate::insn::AccessSize::Word, 10, -8, 0),
            Insn::mov64_reg(2, 10),
            Insn::alu64_imm(crate::insn::alu::ADD, 2, -8),
            Insn::call(crate::helpers::ids::MAP_LOOKUP_ELEM),
            Insn::exit(),
        ];
        let mut maps: HashMap<u32, MapHandle> = HashMap::new();
        maps.insert(1, ArrayMap::new(8, 4));
        let helpers = HelperRegistry::with_base_helpers();
        let loaded = load(Program::new("lookup", ProgramType::SocketFilter, insns), &maps, &helpers).unwrap();
        assert_eq!(loaded.program.insns[1].imm, (map_ptr_value(1) >> 32) as i32);
        let mut results = Vec::new();
        for tier in ExecTier::ALL {
            let (mut ctx, mut pkt, mut env) = (vec![0u8; 32], vec![0u8; 8], NullEnv);
            let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
            let mut state = RunState::new(32);
            results.push(run_program_with_state(&loaded, &helpers, &mut rc, tier, &mut state).unwrap());
        }
        assert_ne!(results[0], 0, "the lookup of key 0 hits");
        assert_eq!(results[0], results[1], "interp and native return the same value pointer");
    }

    #[test]
    fn load_rejects_unknown_map_fd() {
        let value = crate::vm::map_ptr_value(9);
        let mut lo = Insn::lddw_lo(1, value);
        lo.src = PSEUDO_MAP_FD;
        lo.imm = 9;
        let prog = Program::new(
            "bad-map",
            ProgramType::SocketFilter,
            vec![lo, Insn::lddw_hi(0), Insn::mov64_imm(0, 0), Insn::exit()],
        );
        let err = load(prog, &HashMap::new(), &HelperRegistry::with_base_helpers()).unwrap_err();
        assert!(matches!(err, Error::Verifier { .. }));
    }
}
