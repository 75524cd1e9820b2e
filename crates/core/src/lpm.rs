//! Longest-prefix match as one search over sorted address ranges.
//!
//! The first and last addresses of a set of prefixes cut the IPv6 address
//! space into ranges, and on each range the longest matching prefix is the
//! same. A lookup is then one binary search for the range holding the
//! address ([`slice::partition_point`] over the ascending range starts)
//! and one read of that range's answer — the range search of Lampson,
//! Srinivasan and Varghese, "IP lookups using multiway and multicolumn
//! search" (IEEE/ACM ToN, 1999). Answers are small `Copy` values, indices
//! into whatever the caller keeps the entries in.
//!
//! [`Ranges`] is the search structure. [`PrefixTable`](crate::PrefixTable)
//! keeps one up to date across inserts and removes, touching only the
//! ranges the prefix spans, and the datapath compiles its configuration
//! tables into one with [`Ranges::build`].

use netpkt::Ipv6Prefix;
use std::net::Ipv6Addr;
use std::ops::Range;

/// An address as the number the ranges are cut from.
#[inline]
pub(crate) fn key(addr: Ipv6Addr) -> u128 {
    u128::from_be_bytes(addr.octets())
}

/// The first and the last address of `prefix`.
pub(crate) fn span(prefix: &Ipv6Prefix) -> (u128, u128) {
    let lo = key(prefix.addr());
    // A /128 has no host bits, and a shift by 128 does not exist.
    let host_bits = u128::MAX.checked_shr(u32::from(prefix.len())).unwrap_or(0);
    (lo, lo | host_bits)
}

/// The address space cut into ranges, each with one answer.
#[derive(Debug, Clone)]
pub(crate) struct Ranges<A> {
    /// Where each range but the first starts, ascending. The first range
    /// starts at `::`; the last ends at `ffff:…:ffff`.
    bounds: Vec<u128>,
    /// One answer per range: `answers[i]` holds from `bounds[i - 1]` (or
    /// `::`) up to the address before `bounds[i]` (or `ffff:…:ffff`).
    answers: Vec<A>,
}

impl<A: Copy + PartialEq> Ranges<A> {
    /// One range, the whole address space, answering `everywhere`.
    pub(crate) fn new(everywhere: A) -> Self {
        Ranges { bounds: Vec::new(), answers: vec![everywhere] }
    }

    /// The ranges that start at each of `starts` (ascending, without
    /// repeats), each answering `answer(start)`. A range answering what
    /// the one before it answers joins it.
    pub(crate) fn build(starts: &[u128], mut answer: impl FnMut(u128) -> A) -> Self {
        let mut ranges = Ranges::new(answer(0));
        for &start in starts.iter().filter(|&&start| start != 0) {
            let here = answer(start);
            if ranges.answers.last() != Some(&here) {
                ranges.bounds.push(start);
                ranges.answers.push(here);
            }
        }
        ranges
    }

    /// The answer of the range holding `key`.
    #[inline]
    pub(crate) fn lookup(&self, key: u128) -> A {
        self.answers[self.bounds.partition_point(|&bound| bound <= key)]
    }

    /// Where each range but the first starts.
    pub(crate) fn bounds(&self) -> &[u128] {
        &self.bounds
    }

    /// The indices of the ranges that tile `lo..=hi`, after splitting the
    /// ranges that straddle either end.
    pub(crate) fn cover(&mut self, lo: u128, hi: u128) -> Range<usize> {
        let first = self.split_at(lo);
        let end = match hi.checked_add(1) {
            Some(next) => self.split_at(next),
            None => self.answers.len(),
        };
        first..end
    }

    /// The answers of the ranges at `at`, to rewrite.
    pub(crate) fn answers_mut(&mut self, at: Range<usize>) -> &mut [A] {
        &mut self.answers[at]
    }

    /// Joins the range at index `i` to the one before it if both answer
    /// the same.
    pub(crate) fn join(&mut self, i: usize) {
        if i > 0 && i < self.answers.len() && self.answers[i] == self.answers[i - 1] {
            self.bounds.remove(i - 1);
            self.answers.remove(i);
        }
    }

    /// The index of the range that starts at `at`, splitting the range
    /// holding `at` in two if none starts there.
    fn split_at(&mut self, at: u128) -> usize {
        if at == 0 {
            return 0;
        }
        let i = self.bounds.partition_point(|&bound| bound < at);
        if self.bounds.get(i) != Some(&at) {
            self.bounds.insert(i, at);
            self.answers.insert(i + 1, self.answers[i]);
        }
        i + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(s: &str) -> Ipv6Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn spans_reach_both_ends_of_the_address_space() {
        assert_eq!(span(&prefix("::/0")), (0, u128::MAX));
        assert_eq!(span(&prefix("::/128")), (0, 0));
        assert_eq!(span(&prefix("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128")), (u128::MAX, u128::MAX));
        assert_eq!(span(&prefix("8000::/1")), (1 << 127, u128::MAX));
        assert_eq!(span(&prefix("fc00::/64")), (0xfc00 << 112, (0xfc00 << 112) | u128::from(u64::MAX)));
    }

    #[test]
    fn cover_splits_at_both_ends_and_join_undoes_it() {
        let mut ranges = Ranges::new(0u8);
        let at = ranges.cover(10, 19);
        assert_eq!(at, 1..2);
        ranges.answers_mut(at).fill(1);
        assert_eq!(ranges.bounds(), [10, 20]);
        assert_eq!([9, 10, 19, 20].map(|key| ranges.lookup(key)), [0, 1, 1, 0]);
        // Covering what is already cut splits nothing.
        assert_eq!(ranges.cover(10, 19), 1..2);
        assert_eq!(ranges.bounds(), [10, 20]);
        // The last range runs to the top of the space: no bound past it.
        let at = ranges.cover(u128::MAX, u128::MAX);
        assert_eq!(at, 3..4);
        ranges.answers_mut(at).fill(2);
        assert_eq!((ranges.lookup(u128::MAX - 1), ranges.lookup(u128::MAX)), (0, 2));
        // A range at `::` needs no bound either.
        let at = ranges.cover(0, 0);
        assert_eq!(at, 0..1);
        ranges.answers_mut(at).fill(3);
        assert_eq!(ranges.bounds(), [1, 10, 20, u128::MAX]);
        assert_eq!((ranges.lookup(0), ranges.lookup(1)), (3, 0));
        ranges.answers_mut(0..5).fill(0);
        for i in (1..5).rev() {
            ranges.join(i);
        }
        assert!(ranges.bounds().is_empty());
        assert_eq!(ranges.lookup(u128::MAX), 0);
    }

    #[test]
    fn build_joins_neighbours_that_answer_alike() {
        let ranges = Ranges::build(&[0, 5, 10, 15, 20], |start| u8::from((5..15).contains(&start)));
        assert_eq!(ranges.bounds(), [5, 15]);
        assert_eq!([0, 4, 5, 14, 15, u128::MAX].map(|key| ranges.lookup(key)), [0, 0, 1, 1, 0, 0]);
        assert_eq!(Ranges::build(&[], |_| 7u8).lookup(u128::MAX), 7);
    }
}
