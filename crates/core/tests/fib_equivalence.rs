//! Randomized equivalence test: the range-search [`seg6_core::Fib`] must
//! agree with a straightforward reference implementation (linear scan +
//! max-by-prefix-length) on every lookup — including the default route,
//! host routes, weighted ECMP selection and post-removal state — over
//! thousands of random prefixes and lookups.

use netpkt::Ipv6Prefix;
use seg6_core::{Fib, Nexthop};
use std::net::Ipv6Addr;

/// Deterministic xorshift64* generator so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The reference: a linear-scan FIB, with the exact same weighted ECMP
/// selection.
#[derive(Default)]
struct ReferenceFib {
    routes: Vec<(Ipv6Prefix, Vec<Nexthop>)>,
}

impl ReferenceFib {
    fn insert(&mut self, prefix: Ipv6Prefix, nexthops: Vec<Nexthop>) {
        match self.routes.iter_mut().find(|(p, _)| *p == prefix) {
            Some(slot) => slot.1 = nexthops,
            None => self.routes.push((prefix, nexthops)),
        }
    }

    fn remove(&mut self, prefix: &Ipv6Prefix) -> bool {
        let before = self.routes.len();
        self.routes.retain(|(p, _)| p != prefix);
        self.routes.len() != before
    }

    fn best_match(&self, dst: Ipv6Addr) -> Option<&(Ipv6Prefix, Vec<Nexthop>)> {
        self.routes.iter().filter(|(p, _)| p.contains(dst)).max_by_key(|(p, _)| p.len())
    }

    fn lookup(&self, dst: Ipv6Addr, flow_hash: u64) -> Option<(Ipv6Prefix, Nexthop, usize)> {
        let (prefix, nexthops) = self.best_match(dst)?;
        let total: u64 = nexthops.iter().map(|n| u64::from(n.weight)).sum();
        let mut slot = flow_hash % total.max(1);
        let mut chosen = &nexthops[0];
        for nexthop in nexthops {
            if slot < u64::from(nexthop.weight) {
                chosen = nexthop;
                break;
            }
            slot -= u64::from(nexthop.weight);
        }
        Some((*prefix, *chosen, nexthops.len()))
    }

    fn ecmp_nexthops(&self, dst: Ipv6Addr) -> &[Nexthop] {
        self.best_match(dst).map(|(_, n)| n.as_slice()).unwrap_or(&[])
    }
}

fn random_addr(rng: &mut Rng) -> Ipv6Addr {
    // Cluster addresses into a few /16 pools so random prefixes actually
    // nest and overlap instead of diverging at bit 0.
    let pool: u128 = match rng.below(4) {
        0 => 0xfc00,
        1 => 0x2001,
        2 => 0xfd12,
        _ => 0x2a00,
    } << 112;
    let host = (rng.next() as u128) << 64 | rng.next() as u128;
    Ipv6Addr::from((pool | (host >> 16)).to_be_bytes())
}

fn random_prefix(rng: &mut Rng) -> Ipv6Prefix {
    // Mix of realistic lengths, plus host routes and the default route.
    let len = match rng.below(20) {
        0 => 0,
        1 => 128,
        2..=5 => 16 + rng.below(16) as u8,
        6..=12 => 32 + rng.below(33) as u8,
        _ => 64 + rng.below(65).min(64) as u8,
    };
    Ipv6Prefix::new(random_addr(rng), len).unwrap()
}

fn random_nexthops(rng: &mut Rng) -> Vec<Nexthop> {
    let n = 1 + rng.below(4) as usize;
    (0..n)
        .map(|i| {
            let nh = Nexthop::via(random_addr(rng), 1 + (rng.below(16) as u32));
            if i > 0 || rng.below(2) == 0 {
                nh.with_weight(1 + rng.below(4) as u32)
            } else {
                nh
            }
        })
        .collect()
}

#[test]
fn ranges_match_linear_reference_over_random_workload() {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    let mut fib = Fib::new();
    let mut reference = ReferenceFib::default();

    // ~5k random prefixes (with deliberate replacements when a prefix
    // repeats), including an explicit default route and ECMP weights.
    fib.insert("::/0".parse().unwrap(), vec![Nexthop::direct(999)]);
    reference.insert("::/0".parse().unwrap(), vec![Nexthop::direct(999)]);
    let mut inserted: Vec<Ipv6Prefix> = Vec::new();
    for _ in 0..5_000 {
        let prefix = random_prefix(&mut rng);
        let nexthops = random_nexthops(&mut rng);
        fib.insert(prefix, nexthops.clone());
        reference.insert(prefix, nexthops);
        inserted.push(prefix);
    }
    assert_eq!(fib.len(), reference.routes.len());

    // 10k lookups: half aimed near installed prefixes (hits), half fully
    // random (mostly default-route), each with a random flow hash so the
    // weighted ECMP selection is compared too.
    let check = |fib: &Fib, reference: &ReferenceFib, rng: &mut Rng, rounds: usize| {
        for i in 0..rounds {
            let dst = if i % 2 == 0 {
                let base = inserted[rng.below(inserted.len() as u64) as usize].addr();
                let noise = rng.next() as u128;
                Ipv6Addr::from((u128::from_be_bytes(base.octets()) ^ noise).to_be_bytes())
            } else {
                random_addr(rng)
            };
            let hash = rng.next();
            let got = fib.lookup(dst, hash).map(|h| (h.prefix, *h.nexthop, h.ecmp_width));
            let want = reference.lookup(dst, hash);
            assert_eq!(got, want, "lookup({dst}, {hash}) diverged");
            assert_eq!(fib.ecmp_nexthops(dst), reference.ecmp_nexthops(dst), "ecmp_nexthops({dst}) diverged");
        }
    };
    check(&fib, &reference, &mut rng, 10_000);

    // Remove a random third of the routes and re-verify: removal must
    // hand each route's ranges back without disturbing surviving routes.
    for _ in 0..inserted.len() / 3 {
        let prefix = inserted[rng.below(inserted.len() as u64) as usize];
        assert_eq!(fib.remove(&prefix), reference.remove(&prefix), "remove({prefix}) diverged");
    }
    assert_eq!(fib.len(), reference.routes.len());
    check(&fib, &reference, &mut rng, 10_000);
}
