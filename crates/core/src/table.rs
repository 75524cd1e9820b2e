//! The one prefix-keyed configuration table.
//!
//! A node's My-SID table ([`LocalSidTable`](crate::LocalSidTable)), its
//! seg6 transit routes ([`TransitTable`](crate::TransitTable)) and its BPF
//! LWT attachments ([`LwtBpfTable`](crate::LwtBpfTable)) are the same
//! structure — a handful of `ip -6 route`-style entries keyed by
//! destination prefix, scanned linearly for the longest match — holding
//! different values. They are three aliases of [`PrefixTable`].

use netpkt::Ipv6Prefix;
use std::net::Ipv6Addr;

/// Values keyed by destination prefix; lookups return the longest match.
#[derive(Debug, Clone)]
pub struct PrefixTable<T> {
    entries: Vec<(Ipv6Prefix, T)>,
}

impl<T> Default for PrefixTable<T> {
    fn default() -> Self {
        PrefixTable { entries: Vec::new() }
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
        match self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            Some(slot) => slot.1 = value,
            None => self.entries.push((prefix, value)),
        }
    }

    /// Removes the binding for exactly `prefix`; whether there was one.
    pub fn remove(&mut self, prefix: &Ipv6Prefix) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(p, _)| p != prefix);
        self.entries.len() != before
    }

    /// The longest-prefix match for `dst`.
    pub fn lookup(&self, dst: Ipv6Addr) -> Option<(&Ipv6Prefix, &T)> {
        self.lookup_where(dst, |_| true)
    }

    /// The longest-prefix match for `dst` among the entries `keep` accepts.
    /// Filtering happens *before* the longest-prefix choice, so a longer
    /// prefix holding a rejected value does not shadow a shorter accepted
    /// one.
    pub fn lookup_where(&self, dst: Ipv6Addr, keep: impl Fn(&T) -> bool) -> Option<(&Ipv6Prefix, &T)> {
        self.entries
            .iter()
            .filter(|(p, v)| p.contains(dst) && keep(v))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, v)| (p, v))
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
