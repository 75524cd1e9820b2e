//! The custom kernel helper behind `End.OAMP` (§4.3).
//!
//! The paper notes that extending the helper set is easy: their ECMP
//! next-hop query helper "required only 50 SLOC in the kernel". This module
//! is the reproduction of that extension: a helper registered on top of the
//! standard SRv6 registry that looks a destination up in the FIB and
//! returns every equal-cost next hop.

use ebpf_vm::helpers::HelperRegistry;
use ebpf_vm::program::ProgramType;
use ebpf_vm::vm::HelperApi;
use seg6_core::Seg6Env;
use std::net::Ipv6Addr;

/// Helper id of `bpf_fib_ecmp_nexthops` (outside the upstream range, as a
/// local extension would be).
pub const HELPER_FIB_ECMP_NEXTHOPS: u32 = 100;

static SEG6LOCAL_ONLY: &[ProgramType] = &[ProgramType::LwtSeg6Local];

/// `long bpf_fib_ecmp_nexthops(dst, out, max)`
///
/// Reads a 16-byte IPv6 destination at `dst`, looks it up in the node's
/// main table and writes up to `max` equal-cost next-hop addresses (16
/// bytes each) at `out`. Returns the number written, or a negative value on
/// error.
pub fn helper_fib_ecmp_nexthops(api: &mut HelperApi<'_, '_>, args: [u64; 5]) -> i64 {
    let mut octets = [0u8; 16];
    if api.read_into(args[0], &mut octets).is_err() {
        return -1;
    }
    let dst = Ipv6Addr::from(octets);
    let max = (args[2] as usize).min(16);
    let Some(parts) = api.parts::<Seg6Env>() else { return -1 };
    // At most 16 next hops of 16 bytes each: a stack buffer filled while
    // the FIB read lock is held — no allocation per call.
    let mut out = [0u8; 16 * 16];
    let written = parts.env.tables().with_ecmp_nexthops(dst, |nexthops| {
        let mut written = 0usize;
        for nexthop in nexthops.iter().take(max) {
            // Report the gateway when there is one, the destination itself
            // for connected routes (what traceroute would display).
            out[written * 16..(written + 1) * 16].copy_from_slice(&nexthop.neighbour(dst).octets());
            written += 1;
        }
        written
    });
    if written > 0 && api.write_bytes(args[1], &out[..written * 16]).is_err() {
        return -1;
    }
    written as i64
}

/// Returns the SRv6 helper registry extended with the OAM helper, gated to
/// `End.BPF` programs like the other seg6local helpers.
pub fn oam_helper_registry() -> HelperRegistry {
    let mut registry = seg6_core::seg6_helper_registry();
    registry.register(
        HELPER_FIB_ECMP_NEXTHOPS,
        "bpf_fib_ecmp_nexthops",
        helper_fib_ecmp_nexthops,
        Some(SEG6LOCAL_ONLY),
    );
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf_vm::vm::{RunContext, RunState, STACK_BASE};
    use seg6_core::{Nexthop, RouterTables};
    use std::sync::Arc;

    #[test]
    fn registry_contains_the_custom_helper() {
        let registry = oam_helper_registry();
        assert!(registry.get(HELPER_FIB_ECMP_NEXTHOPS).is_some());
        assert!(registry.allowed_for(HELPER_FIB_ECMP_NEXTHOPS, ProgramType::LwtSeg6Local));
        assert!(!registry.allowed_for(HELPER_FIB_ECMP_NEXTHOPS, ProgramType::LwtXmit));
    }

    #[test]
    fn helper_reports_ecmp_nexthops() {
        let tables = Arc::new(RouterTables::new());
        tables.insert_main(
            "2001:db8::/32".parse().unwrap(),
            vec![Nexthop::via("fe80::1".parse().unwrap(), 1), Nexthop::via("fe80::2".parse().unwrap(), 2)],
        );
        let mut env = Seg6Env::new("fc00::1".parse().unwrap(), tables, 0);
        let mut state = RunState::new(0);
        let mut ctx = vec![0u8; 64];
        let mut pkt = vec![0u8; 64];
        let maps = ebpf_vm::maps::ProgramMaps::default();
        let mut rc = RunContext::new(&mut ctx, &mut pkt, &mut env);
        let mut api = HelperApi { state: &mut state, rc: &mut rc, maps: &maps };
        let dst: Ipv6Addr = "2001:db8::42".parse().unwrap();
        api.write_bytes(STACK_BASE, &dst.octets()).unwrap();
        let count = helper_fib_ecmp_nexthops(&mut api, [STACK_BASE, STACK_BASE + 32, 4, 0, 0]);
        assert_eq!(count, 2);
        let out = api.read_bytes(STACK_BASE + 32, 32).unwrap();
        assert_eq!(&out[0..16], &"fe80::1".parse::<Ipv6Addr>().unwrap().octets());
        assert_eq!(&out[16..32], &"fe80::2".parse::<Ipv6Addr>().unwrap().octets());
        // Unknown destinations report zero next hops.
        let other: Ipv6Addr = "3001::1".parse().unwrap();
        api.write_bytes(STACK_BASE, &other.octets()).unwrap();
        assert_eq!(helper_fib_ecmp_nexthops(&mut api, [STACK_BASE, STACK_BASE + 32, 4, 0, 0]), 0);
    }
}
