//! The BPF lightweight-tunnel hooks the datapath runs (`lwt_in` /
//! `lwt_xmit`).
//!
//! These hooks pre-date the paper (§2.1 calls them "BPF LWT"); they run an
//! eBPF program for traffic matching a route, at the ingress or egress of
//! the IPv6 routing process. The kernel's third hook, `lwt_out`, runs on
//! locally generated packets, which this datapath does not originate, so
//! it is not offered. The paper uses the xmit hook together with its
//! new `bpf_lwt_push_encap` helper for the delay-monitoring ingress program
//! (§4.1) and the hybrid-access WRR scheduler (§4.2).
//!
//! A hook runs its program through [`crate::seg6local::run_bpf`] — the
//! `End.BPF` sequence without the SRH advance and re-validation — with the
//! router's own address where `End.BPF` passes the matched SID.
//!
//! Each hook runs programs of its own type only ([`LwtHook::program_type`]):
//! [`crate::Seg6Datapath::attach_lwt_bpf`] refuses any other, as the
//! kernel's attach does. So a program at these hooks may call
//! `bpf_lwt_push_encap` but none of the `End.BPF`-only SRv6 helpers, and it
//! runs with no SRH offset in its environment: that offset is the kernel's
//! `seg6_bpf_srh_state`, which only `End.BPF` sets.

use crate::table::PrefixTable;
use ebpf_vm::program::{LoadedProgram, ProgramType};
use netpkt::Ipv6Prefix;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Which point of the routing process the program is attached to: the
/// two hooks the datapath dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LwtHook {
    /// After the route lookup, for packets addressed to the local host.
    In,
    /// Just before transmission of forwarded packets.
    Xmit,
}

impl LwtHook {
    /// The one program type the hook runs, as the kernel's attach requires:
    /// [`ProgramType::LwtIn`] at `In`, [`ProgramType::LwtXmit`] at `Xmit`.
    pub fn program_type(self) -> ProgramType {
        match self {
            LwtHook::In => ProgramType::LwtIn,
            LwtHook::Xmit => ProgramType::LwtXmit,
        }
    }
}

/// A BPF program attached to a route.
#[derive(Debug, Clone)]
pub struct LwtBpfAttachment {
    /// Hook point.
    pub hook: LwtHook,
    /// The verified program. Its execution tier
    /// ([`LoadedProgram::exec_tier`]) decides how it runs; use
    /// [`LoadedProgram::set_exec_tier`] to pin one.
    pub prog: Arc<LoadedProgram>,
}

/// Routes with BPF programs attached, keyed by destination prefix: one
/// [`PrefixTable`] per hook, so a hook's lookup finds the longest prefix
/// *attached at that hook*, and a longer prefix attached at the other hook
/// does not shadow it. One prefix holds one attachment: attaching a prefix
/// at one hook detaches it from the other.
#[derive(Debug, Clone, Default)]
pub struct LwtBpfTable {
    /// The attachments at [`LwtHook::In`], then at [`LwtHook::Xmit`].
    hooks: [PrefixTable<LwtBpfAttachment>; 2],
}

impl LwtBpfTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches `attachment` to `prefix` at its hook, replacing whatever
    /// was attached to exactly that prefix at either hook.
    pub fn insert(&mut self, prefix: Ipv6Prefix, attachment: LwtBpfAttachment) {
        let [at_in, at_xmit] = &mut self.hooks;
        let (hook, other) = match attachment.hook {
            LwtHook::In => (at_in, at_xmit),
            LwtHook::Xmit => (at_xmit, at_in),
        };
        other.remove(&prefix);
        hook.insert(prefix, attachment);
    }

    /// Detaches exactly `prefix`; whether it was attached.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> bool {
        let [at_in, at_xmit] = &mut self.hooks;
        at_in.remove(prefix) | at_xmit.remove(prefix)
    }

    /// The longest prefix holding `dst` with a program attached at `hook`.
    pub fn lookup(&self, dst: Ipv6Addr, hook: LwtHook) -> Option<(&Ipv6Prefix, &LwtBpfAttachment)> {
        self.at(hook).lookup(dst)
    }

    /// The attachments at `hook`.
    pub(crate) fn at(&self, hook: LwtHook) -> &PrefixTable<LwtBpfAttachment> {
        match hook {
            LwtHook::In => &self.hooks[0],
            LwtHook::Xmit => &self.hooks[1],
        }
    }

    /// Number of attached prefixes.
    pub fn len(&self) -> usize {
        self.hooks.iter().map(PrefixTable::len).sum()
    }

    /// Whether no prefix is attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::RouterTables;
    use crate::helpers::seg6_helper_registry;
    use crate::scratch::RunScratch;
    use crate::seg6local::{run_bpf, ActionCtx};
    use crate::skb::Skb;
    use crate::verdict::{ActionOutcome, DropReason};
    use ebpf_vm::asm::assemble;
    use ebpf_vm::helpers::HelperRegistry;
    use ebpf_vm::program::{load, Program};
    use netpkt::packet::build_ipv6_udp_packet;
    use std::collections::HashMap;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn load_xmit(source: &str, helpers: &HelperRegistry) -> Arc<LoadedProgram> {
        let prog = Program::new("lwt", ProgramType::LwtXmit, assemble(source).unwrap());
        load(prog, &HashMap::new(), helpers).unwrap()
    }

    fn run_xmit(prog: &LoadedProgram, skb: &mut Skb, helpers: &HelperRegistry) -> ActionOutcome {
        let tables = Arc::new(RouterTables::new());
        let actx = ActionCtx {
            local_sid: addr("fc00::99"),
            tables: &tables,
            helpers,
            now_ns: 0,
            cpu: 0,
            flow: Default::default(),
        };
        run_bpf(prog, false, skb, &actx, &mut RunScratch::new())
    }

    fn plain_skb() -> Skb {
        Skb::new(build_ipv6_udp_packet(addr("2001:db8::1"), addr("2001:db8::2"), 1, 2, &[0u8; 16], 64))
    }

    #[test]
    fn table_lookup_filters_by_hook() {
        let helpers = seg6_helper_registry();
        let xmit = LwtBpfAttachment { hook: LwtHook::Xmit, prog: load_xmit("mov64 r0, 0\nexit", &helpers) };
        let lwt_in = LwtBpfAttachment { hook: LwtHook::In, ..xmit.clone() };
        let mut table = LwtBpfTable::new();
        table.insert("2001:db8::/32".parse().unwrap(), xmit.clone());
        let at = |table: &LwtBpfTable, dst, hook| table.lookup(addr(dst), hook).map(|(p, _)| p.len());
        assert_eq!(at(&table, "2001:db8::5", LwtHook::Xmit), Some(32));
        assert!(at(&table, "2001:db8::5", LwtHook::In).is_none());
        assert!(at(&table, "2abc::1", LwtHook::Xmit).is_none());
        // A longer prefix at the other hook does not shadow the shorter one.
        table.insert("2001:db8:1::/48".parse().unwrap(), lwt_in.clone());
        assert_eq!(at(&table, "2001:db8:1::5", LwtHook::Xmit), Some(32));
        assert_eq!(at(&table, "2001:db8:1::5", LwtHook::In), Some(48));
        // One prefix holds one attachment: moving it to the other hook
        // detaches it from the first.
        table.insert("2001:db8::/32".parse().unwrap(), lwt_in);
        assert!(at(&table, "2001:db8::5", LwtHook::Xmit).is_none());
        assert_eq!(at(&table, "2001:db8::5", LwtHook::In), Some(32));
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
        assert!(table.remove(&"2001:db8::/32".parse().unwrap()));
        assert!(!table.remove(&"2001:db8::/32".parse().unwrap()));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn bpf_ok_lets_the_packet_continue() {
        let helpers = seg6_helper_registry();
        let prog = load_xmit("mov64 r0, 0\nexit", &helpers);
        match run_xmit(&prog, &mut plain_skb(), &helpers) {
            ActionOutcome::Forward { dst, .. } => assert_eq!(dst, addr("2001:db8::2")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bpf_drop_is_honoured() {
        let helpers = seg6_helper_registry();
        let prog = load_xmit("mov64 r0, 2\nexit", &helpers);
        assert_eq!(run_xmit(&prog, &mut plain_skb(), &helpers), ActionOutcome::Drop(DropReason::BpfDrop));
    }

    #[test]
    fn seg6local_only_helpers_are_rejected_at_load_time() {
        // An lwt_xmit program calling bpf_lwt_seg6_adjust_srh must not load.
        let helpers = seg6_helper_registry();
        let insns = assemble("mov64 r2, 8\nmov64 r3, 8\ncall 75\nexit").unwrap();
        let prog = Program::new("bad", ProgramType::LwtXmit, insns);
        assert!(load(prog, &HashMap::new(), &helpers).is_err());
    }
}
