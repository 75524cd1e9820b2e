//! The compiled dispatch against the priority-order scan it replaced.
//!
//! The oracle keeps each configuration table as a plain list and classifies
//! a destination the way the datapath did before the tables were compiled
//! into one range table: the longest SID (a filter and a `max_by_key` over
//! every entry), then the local address with the longest prefix attached
//! at `In`, then the longest prefix attached at `Xmit`, then the longest
//! transit prefix, then the FIB. The seeded random tables hold overlapping
//! SID, `In`, `Xmit` and transit prefixes, `::/0` and `/128`s among them,
//! edited through the datapath's methods and straight through its fields,
//! with a local address that moves inside and outside them.

use super::*;
use crate::table::PrefixTable;
use ebpf_vm::asm::assemble;
use ebpf_vm::program::{load, Program};
use simnet::SplitMix64;

/// What a destination dispatches to, named by the prefix of the entry that
/// won (and, for a SID, the SID the action runs as).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Seg6Local(Ipv6Prefix, Option<Ipv6Addr>),
    LocalIn(Option<Ipv6Prefix>),
    Xmit(Ipv6Prefix),
    Transit(Ipv6Prefix),
    Forward,
}

/// The tables as lists, scanned in priority order.
#[derive(Default)]
struct Oracle {
    sids: Vec<Ipv6Prefix>,
    lwt: Vec<(Ipv6Prefix, LwtHook)>,
    transit: Vec<Ipv6Prefix>,
}

fn longest<'a>(prefixes: impl Iterator<Item = &'a Ipv6Prefix>, dst: Ipv6Addr) -> Option<Ipv6Prefix> {
    prefixes.filter(|p| p.contains(dst)).max_by_key(|p| p.len()).copied()
}

/// Adds `prefix` to `list` unless it is there already.
fn add(list: &mut Vec<Ipv6Prefix>, prefix: Ipv6Prefix) {
    if !list.contains(&prefix) {
        list.push(prefix);
    }
}

/// Takes `prefix` out of `list`; whether it was there.
fn take(list: &mut Vec<Ipv6Prefix>, prefix: &Ipv6Prefix) -> bool {
    let before = list.len();
    list.retain(|p| p != prefix);
    list.len() != before
}

impl Oracle {
    fn classify(&self, local_addr: Ipv6Addr, dst: Ipv6Addr) -> Seen {
        // The hook filter applies before the longest match.
        let lwt_at = |hook| longest(self.lwt.iter().filter(|(_, h)| *h == hook).map(|(p, _)| p), dst);
        if let Some(sid) = longest(self.sids.iter(), dst) {
            return Seen::Seg6Local(sid, (sid.len() == 128).then(|| sid.addr()));
        }
        if dst == local_addr {
            return Seen::LocalIn(lwt_at(LwtHook::In));
        }
        if let Some(prefix) = lwt_at(LwtHook::Xmit) {
            return Seen::Xmit(prefix);
        }
        if let Some(prefix) = longest(self.transit.iter(), dst) {
            return Seen::Transit(prefix);
        }
        Seen::Forward
    }

    /// Every prefix of every table.
    fn prefixes(&self) -> Vec<Ipv6Prefix> {
        let lwt = self.lwt.iter().map(|(p, _)| *p);
        self.sids.iter().copied().chain(lwt).chain(self.transit.iter().copied()).collect()
    }
}

/// The prefix of the entry `value` borrows.
fn prefix_of<T>(table: &PrefixTable<T>, value: &T) -> Ipv6Prefix {
    table.entries().iter().find(|(_, v)| std::ptr::eq(v, value)).expect("a borrow of an entry").0
}

/// How the datapath classifies `dst`: a batch opens (compiling the
/// dispatch if a table moved) and runs the per-packet classification.
fn compiled(dp: &mut Seg6Datapath, dst: Ipv6Addr) -> Seen {
    let batch = dp.batch();
    match classify_dst(batch.dispatch, batch.local_sids, batch.lwt_bpf, batch.transit, dst) {
        Dispatch::Seg6Local { local_sid, action } => {
            Seen::Seg6Local(prefix_of(batch.local_sids, action), local_sid)
        }
        Dispatch::LocalIn(attachment) => {
            Seen::LocalIn(attachment.map(|a| prefix_of(batch.lwt_bpf.at(LwtHook::In), a)))
        }
        Dispatch::Xmit(attachment) => Seen::Xmit(prefix_of(batch.lwt_bpf.at(LwtHook::Xmit), attachment)),
        Dispatch::Transit(behaviour) => Seen::Transit(prefix_of(batch.transit, behaviour)),
        Dispatch::Forward => Seen::Forward,
    }
}

/// An address near one of four clusters — the bottom and the top of the
/// space and two neighbouring /64s — so random prefixes nest and overlap.
fn random_addr(rng: &mut SplitMix64) -> Ipv6Addr {
    let base: u128 = match rng.gen_range(0u64..4) {
        0 => 0,
        1 => 0xfc00 << 112,
        2 => (0xfc00 << 112) | (1 << 64),
        _ => u128::MAX,
    };
    // A shift by 128 leaves the cluster's own end.
    let bits = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
    let low = bits.checked_shr(rng.gen_range(60u32..=128)).unwrap_or(0);
    let key = if base == u128::MAX { base - low } else { base | low };
    Ipv6Addr::from(key.to_be_bytes())
}

fn random_prefix(rng: &mut SplitMix64) -> Ipv6Prefix {
    let len = match rng.gen_range(0u64..20) {
        0 => 0,
        1..=5 => 128,
        _ => rng.gen_range(40u64..=127) as u8,
    };
    Ipv6Prefix::new(random_addr(rng), len).unwrap()
}

/// The addresses worth asking about: both ends of every prefix and their
/// outer neighbours, one address inside each, the local address and its
/// neighbours, and a few random ones.
fn probes(rng: &mut SplitMix64, oracle: &Oracle, local_addr: Ipv6Addr) -> Vec<Ipv6Addr> {
    let mut keys = vec![0, u128::MAX];
    for prefix in oracle.prefixes() {
        let (lo, hi) = lpm::span(&prefix);
        keys.extend([Some(lo), Some(hi), lo.checked_sub(1), hi.checked_add(1)].into_iter().flatten());
        keys.push(lo + (u128::from(rng.next_u64()) % (hi - lo).saturating_add(1)));
    }
    let local = lpm::key(local_addr);
    keys.extend([Some(local), local.checked_sub(1), local.checked_add(1)].into_iter().flatten());
    keys.extend((0..4).map(|_| lpm::key(random_addr(rng))));
    keys.into_iter().map(|key| Ipv6Addr::from(key.to_be_bytes())).collect()
}

/// `rounds` seeded tables, each edited `edits` times, every edit followed
/// by a comparison of the compiled dispatch with the oracle on every probe.
fn dispatch_rounds(rounds: u64, edits: usize) {
    let helpers = crate::helpers::seg6_helper_registry();
    let prog = |name, prog_type| {
        let insns = assemble("mov64 r0, 0\nexit").unwrap();
        load(Program::new(name, prog_type, insns), &std::collections::HashMap::new(), &helpers).unwrap()
    };
    let lwt_in = LwtBpfAttachment { hook: LwtHook::In, prog: prog("in", ProgramType::LwtIn) };
    let lwt_xmit = LwtBpfAttachment { hook: LwtHook::Xmit, prog: prog("xmit", ProgramType::LwtXmit) };
    let behaviour = TransitBehaviour::encap_through(&["fc00::a".parse().unwrap()]);
    let mut compared = 0usize;
    for round in 0..rounds {
        let mut rng = SplitMix64::new(0x5eed_0050 ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut dp = Seg6Datapath::new(random_addr(&mut rng));
        let mut oracle = Oracle::default();
        for edit in 0..edits {
            let prefix = random_prefix(&mut rng);
            // Removals aim at an installed prefix three times in four.
            let installed = oracle.prefixes();
            let victim = match installed.len() {
                0 => prefix,
                n if rng.gen_bool(0.75) => installed[rng.gen_range(0..n)],
                _ => prefix,
            };
            match rng.gen_range(0u64..10) {
                0 => {
                    dp.add_local_sid(prefix, Seg6LocalAction::End);
                    add(&mut oracle.sids, prefix);
                }
                1 => {
                    dp.local_sids.insert(prefix, Seg6LocalAction::EndT { table: 7 });
                    add(&mut oracle.sids, prefix);
                }
                2 => assert_eq!(dp.local_sids.remove(&victim), take(&mut oracle.sids, &victim)),
                3 | 4 => {
                    let attachment = if rng.gen_bool(0.5) { &lwt_in } else { &lwt_xmit };
                    dp.attach_lwt_bpf(prefix, attachment.clone());
                    oracle.lwt.retain(|(p, _)| *p != prefix);
                    oracle.lwt.push((prefix, attachment.hook));
                }
                5 => {
                    let had = oracle.lwt.iter().any(|(p, _)| *p == victim);
                    oracle.lwt.retain(|(p, _)| *p != victim);
                    assert_eq!(dp.lwt_bpf.remove(&victim), had);
                }
                6 => {
                    dp.add_transit(prefix, behaviour.clone());
                    add(&mut oracle.transit, prefix);
                }
                7 => assert_eq!(dp.transit.remove(&victim), take(&mut oracle.transit, &victim)),
                // The local address moves: into a prefix, to its edge, or anywhere.
                8 => dp.local_addr = victim.addr(),
                _ => dp.local_addr = random_addr(&mut rng),
            }
            for dst in probes(&mut rng, &oracle, dp.local_addr) {
                let want = oracle.classify(dp.local_addr, dst);
                assert_eq!(compiled(&mut dp, dst), want, "round {round}, edit {edit}: {dst}");
                compared += 1;
            }
        }
        assert_eq!(
            (dp.local_sids.len(), dp.lwt_bpf.len(), dp.transit.len()),
            (oracle.sids.len(), oracle.lwt.len(), oracle.transit.len())
        );
    }
    assert!(compared as u64 > rounds * edits as u64 * 8, "the probes reach the tables ({compared})");
}

#[test]
fn compiled_dispatch_matches_the_priority_scan() {
    dispatch_rounds(20, 40);
}

/// The same fuzz on 50 times the tables.
#[test]
#[ignore = "long fuzz run: cargo test --release -- --ignored"]
fn compiled_dispatch_matches_the_priority_scan_long() {
    dispatch_rounds(1_000, 40);
}
