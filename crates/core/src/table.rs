//! The one prefix-keyed table.
//!
//! A node's My-SID table ([`LocalSidTable`](crate::LocalSidTable)), its
//! seg6 transit routes ([`TransitTable`](crate::TransitTable)), each hook
//! of its BPF LWT attachments ([`LwtBpfTable`](crate::LwtBpfTable)) and
//! each of its routing tables ([`Fib`](crate::Fib)) are the same
//! structure — `ip -6 route`-style entries keyed by destination prefix —
//! holding different values. A lookup is one search over the address
//! ranges the prefixes cut (the crate's `lpm` module), and an insert or a remove
//! rewrites only the ranges its prefix spans.

use crate::lpm::{self, Ranges};
use netpkt::Ipv6Prefix;
use std::collections::HashMap;
use std::net::Ipv6Addr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The answer of a range no prefix covers: never an entry's index.
pub(crate) const NONE: u32 = u32::MAX;

/// A version no table has had yet: the count of table writes in this
/// process.
fn next_version() -> u64 {
    static WRITES: AtomicU64 = AtomicU64::new(1);
    WRITES.fetch_add(1, Ordering::Relaxed)
}

/// Values keyed by destination prefix; lookups return the longest match.
#[derive(Debug, Clone)]
pub struct PrefixTable<T> {
    /// The entries, in no particular order: a range's answer is an index
    /// into it.
    entries: Vec<(Ipv6Prefix, T)>,
    /// The index of each prefix's entry.
    slots: HashMap<Ipv6Prefix, u32>,
    /// Per range, the index of the longest prefix covering it, or
    /// [`NONE`]. No two neighbouring ranges answer alike, so every
    /// prefix's first address and the address after its last start a
    /// range.
    ranges: Ranges<u32>,
    /// Taken from the process-wide write count by every insert and
    /// remove: two tables of one version hold the same entries.
    version: u64,
}

impl<T> Default for PrefixTable<T> {
    fn default() -> Self {
        PrefixTable { entries: Vec::new(), slots: HashMap::new(), ranges: Ranges::new(NONE), version: 0 }
    }
}

impl<T> PrefixTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `value` to `prefix`, replacing whatever was bound to exactly
    /// that prefix.
    pub fn insert(&mut self, prefix: Ipv6Prefix, value: T) {
        self.version = next_version();
        if let Some(&slot) = self.slots.get(&prefix) {
            self.entries[slot as usize].1 = value;
            return;
        }
        let slot = u32::try_from(self.entries.len()).ok().filter(|&slot| slot != NONE).expect("table full");
        let (lo, hi) = lpm::span(&prefix);
        let at = self.ranges.cover(lo, hi);
        let entries = &self.entries;
        // Inside the prefix, ranges answered by a shorter prefix (one that
        // covers this one) or by none now answer with it; ranges of longer
        // prefixes nested in it keep theirs.
        for answer in self.ranges.answers_mut(at) {
            if *answer == NONE || entries[*answer as usize].0.len() < prefix.len() {
                *answer = slot;
            }
        }
        self.entries.push((prefix, value));
        self.slots.insert(prefix, slot);
    }

    /// Removes the binding for exactly `prefix`; whether there was one.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> bool {
        let Some(slot) = self.slots.remove(prefix) else {
            return false;
        };
        self.version = next_version();
        // What the prefix answered falls to the longest prefix covering it.
        let parent = (0..prefix.len())
            .rev()
            .find_map(|len| {
                let shorter = Ipv6Prefix::new(prefix.addr(), len).expect("a shorter length is valid");
                self.slots.get(&shorter).copied()
            })
            .unwrap_or(NONE);
        let at = self.relabel(prefix, slot, parent);
        self.ranges.join(at.end);
        self.ranges.join(at.start);
        // The last entry moves into the freed index.
        let last = (self.entries.len() - 1) as u32;
        self.entries.swap_remove(slot as usize);
        if slot != last {
            let moved = self.entries[slot as usize].0;
            self.slots.insert(moved, slot);
            self.relabel(&moved, last, slot);
        }
        true
    }

    /// Rewrites the answer `from` to `to` over the ranges `prefix` spans,
    /// and returns their indices.
    fn relabel(&mut self, prefix: &Ipv6Prefix, from: u32, to: u32) -> Range<usize> {
        let (lo, hi) = lpm::span(prefix);
        let at = self.ranges.cover(lo, hi);
        for answer in self.ranges.answers_mut(at.clone()) {
            if *answer == from {
                *answer = to;
            }
        }
        at
    }

    /// The longest-prefix match for `dst`.
    #[inline]
    pub fn lookup(&self, dst: Ipv6Addr) -> Option<(&Ipv6Prefix, &T)> {
        self.get(self.slot_at(lpm::key(dst)))
    }

    /// The index of the entry of the longest prefix holding `key`, or
    /// [`NONE`].
    #[inline]
    pub(crate) fn slot_at(&self, key: u128) -> u32 {
        self.ranges.lookup(key)
    }

    /// The entry at index `slot`; `None` for [`NONE`].
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> Option<(&Ipv6Prefix, &T)> {
        self.entries.get(slot as usize).map(|(prefix, value)| (prefix, value))
    }

    /// The entry at index `slot`, which must hold one.
    #[inline]
    pub(crate) fn entry(&self, slot: u32) -> (&Ipv6Prefix, &T) {
        let (prefix, value) = &self.entries[slot as usize];
        (prefix, value)
    }

    /// Every entry, in no particular order.
    pub(crate) fn entries(&self) -> &[(Ipv6Prefix, T)] {
        &self.entries
    }

    /// Where each of the table's ranges but the first starts.
    pub(crate) fn bounds(&self) -> &[u128] {
        self.ranges.bounds()
    }

    /// The table's version: it moves on every insert and remove, and no
    /// other table with different entries has it.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn prefix(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    const TOP: &str = "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff";

    /// The value matched for each address.
    fn at<'a>(table: &'a PrefixTable<&'static str>, dsts: &[&str]) -> Vec<Option<&'a str>> {
        dsts.iter().map(|dst| table.lookup(addr(dst)).map(|(_, value)| *value)).collect()
    }

    #[test]
    fn the_default_route_and_the_ends_of_the_space() {
        let mut table = PrefixTable::new();
        table.insert(prefix("::/0"), "default");
        assert!(table.bounds().is_empty(), "::/0 is one range");
        table.insert(prefix("::/128"), "bottom");
        table.insert(prefix(&format!("{TOP}/128")), "top");
        assert_eq!(table.bounds(), [1, u128::MAX]);
        assert_eq!(
            at(&table, &["::", "::1", "8000::", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe", TOP]),
            [Some("bottom"), Some("default"), Some("default"), Some("default"), Some("top")]
        );
        assert_eq!(table.lookup(addr(TOP)).unwrap().0, &prefix(&format!("{TOP}/128")));
        assert!(table.remove(&prefix("::/0")));
        assert_eq!(at(&table, &["::", "::1", TOP]), [Some("bottom"), None, Some("top")]);
        assert!(table.remove(&prefix("::/128")));
        assert!(table.remove(&prefix(&format!("{TOP}/128"))));
        assert!(table.is_empty());
        assert!(table.bounds().is_empty(), "an empty table is one range again");
        assert_eq!(at(&table, &["::", TOP]), [None, None]);
    }

    /// Nested prefixes come out in either order, each removal handing its
    /// ranges to the next longest prefix and leaving no range behind.
    #[test]
    fn nested_prefixes_removed_inner_first_and_outer_first() {
        let nested = ["fc00::/16", "fc00:1::/32", "fc00:1:2::/48", "fc00:1:2::5/128"];
        let probes = ["fc00:1:2::5", "fc00:1:2::6", "fc00:1:3::", "fc00:2::", "fd00::"];
        for outer_first in [false, true] {
            let mut table = PrefixTable::new();
            for p in nested {
                table.insert(prefix(p), p);
            }
            assert_eq!(
                at(&table, &probes),
                [Some(nested[3]), Some(nested[2]), Some(nested[1]), Some(nested[0]), None]
            );
            let mut order = nested.to_vec();
            if !outer_first {
                order.reverse();
            }
            for (gone, p) in order.iter().enumerate() {
                assert!(table.remove(&prefix(p)));
                assert!(!table.remove(&prefix(p)), "{p} is gone");
                let left = &order[gone + 1..];
                for dst in probes {
                    let want = left
                        .iter()
                        .filter(|q| prefix(q).contains(addr(dst)))
                        .max_by_key(|q| prefix(q).len())
                        .copied();
                    assert_eq!(at(&table, &[dst]), [want], "{dst} after removing {:?}", &order[..=gone]);
                }
                // Two bounds per prefix left at most: none is left behind.
                assert!(table.bounds().len() <= 2 * left.len(), "{:?}", table.bounds());
            }
            assert!(table.bounds().is_empty());
        }
    }

    #[test]
    fn a_removed_prefix_can_be_inserted_again() {
        let mut table = PrefixTable::new();
        table.insert(prefix("fc00::/16"), "outer");
        table.insert(prefix("fc00:1::/32"), "inner");
        table.insert(prefix("fd00::/16"), "other");
        let bounds = table.bounds().to_vec();
        for round in 0..3 {
            assert!(table.remove(&prefix("fc00:1::/32")));
            assert_eq!(at(&table, &["fc00:1::1"]), [Some("outer")], "round {round}");
            table.insert(prefix("fc00:1::/32"), "inner");
            assert_eq!(
                at(&table, &["fc00:1::1", "fc00:2::1", "fd00::1"]),
                [Some("inner"), Some("outer"), Some("other")]
            );
            assert_eq!(table.bounds(), bounds, "round {round}");
        }
        // The outer prefix leaves and comes back around the inner one.
        assert!(table.remove(&prefix("fc00::/16")));
        assert_eq!(at(&table, &["fc00:1::1", "fc00:2::1"]), [Some("inner"), None]);
        table.insert(prefix("fc00::/16"), "outer again");
        assert_eq!(at(&table, &["fc00:1::1", "fc00:2::1"]), [Some("inner"), Some("outer again")]);
        assert_eq!(table.bounds(), bounds);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn replacing_a_value_keeps_the_ranges_and_moves_the_version() {
        let mut table = PrefixTable::new();
        assert_eq!(table.version(), 0);
        table.insert(prefix("fc00::/16"), "first");
        let (bounds, version) = (table.bounds().to_vec(), table.version());
        table.insert(prefix("fc00::/16"), "second");
        assert_eq!(at(&table, &["fc00::1"]), [Some("second")]);
        assert_eq!((table.bounds(), table.len()), (&bounds[..], 1));
        assert!(table.version() > version);
        let copy = table.clone();
        assert_eq!(copy.version(), table.version(), "a copy holds the same entries");
        let version = table.version();
        assert!(!table.remove(&prefix("fd00::/16")));
        assert_eq!(table.version(), version, "a remove that finds nothing writes nothing");
    }
}
