//! The independent reference path and the checks built on it.
//!
//! Expected results are computed before any timing by a fresh
//! [`Seg6Datapath`] driven one packet at a time through `process`, with
//! every program pinned to the interpreter — no pool, no batching, no
//! compiled tier. The system under test must reproduce the verdict, the
//! length and the bytes of every packet.
//!
//! `wrr_encap` is stateful (which path a packet takes depends on how many
//! came before), so its expected bytes are stored normalised to path 0 and
//! checked by invariant: the k-th scheduled packet must carry the SID the
//! 5:3 cycle assigns to k, everywhere the SID appears, and match the
//! reference everywhere else.

use crate::workloads::{build_datapath, Kind, Workload, WRR_SIDS, WRR_WEIGHTS};
use ebpf_vm::program::ExecTier;
use netpkt::PacketBuf;
use seg6_core::{DropReason, Skb, Verdict};
use std::net::Ipv6Addr;

/// Where the chosen path's SID sits in a WRR-encapsulated packet: the
/// outer destination, and the single segment of the pushed SRH.
const WRR_SID_FIELDS: [std::ops::Range<usize>; 2] = [24..40, 48..64];

/// The path the WRR scheduler gives its `k`-th packet (0-based).
pub fn wrr_path(k: u64) -> usize {
    let (w0, w1) = (u64::from(WRR_WEIGHTS.0), u64::from(WRR_WEIGHTS.1));
    usize::from(k % (w0 + w1) >= w0)
}

/// What one frame must come out as.
#[derive(Debug, Clone)]
pub struct Expected {
    pub verdict: Verdict,
    /// WRR frames only: the verdict when the scheduler picks path 1.
    pub alt_verdict: Option<Verdict>,
    /// Output bytes (WRR frames: as if path 0 had been picked).
    pub bytes: Vec<u8>,
}

/// The reference results of a whole workload.
pub struct Reference {
    /// Index-aligned with `Workload::frames`.
    pub expected: Vec<Expected>,
    /// FNV-1a over every expected verdict and byte: the golden digest.
    pub digest: u64,
}

impl Reference {
    /// Expected drops by reason, in a fixed order (for printing).
    pub fn drop_counts(&self) -> Vec<(DropReason, usize)> {
        DROP_REASONS
            .iter()
            .map(|reason| {
                (*reason, self.expected.iter().filter(|e| e.verdict == Verdict::Drop(*reason)).count())
            })
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

const DROP_REASONS: [DropReason; 9] = [
    DropReason::Malformed,
    DropReason::NoSrh,
    DropReason::SegmentsLeftZero,
    DropReason::DecapFailed,
    DropReason::BpfDrop,
    DropReason::BpfError,
    DropReason::SrhValidationFailed,
    DropReason::NoRoute,
    DropReason::HopLimitExceeded,
];

fn replace_sid(bytes: &mut [u8], from: Ipv6Addr, to: Ipv6Addr) {
    for field in WRR_SID_FIELDS {
        assert_eq!(&bytes[field.clone()], &from.octets(), "WRR output carries its SID where expected");
        bytes[field].copy_from_slice(&to.octets());
    }
}

/// Runs the reference path over every frame of `workload`.
pub fn compute(workload: &Workload) -> Reference {
    let mut datapaths: Vec<_> = (0..workload.tenants)
        .map(|tenant| build_datapath(workload, tenant, Some(ExecTier::Interp)).datapath)
        .collect();
    let [sid0, sid1] = WRR_SIDS;
    let mut wrr_seen = 0u64;
    let mut expected = Vec::with_capacity(workload.frames.len());
    for frame in &workload.frames {
        let dp = &mut datapaths[frame.tenant];
        let mut skb = Skb::new(PacketBuf::from_slice(&frame.bytes));
        let verdict = dp.process(&mut skb, 0);
        let mut bytes = skb.packet.data().to_vec();
        if frame.kind == Kind::WrrEncap {
            if wrr_path(wrr_seen) == 1 {
                replace_sid(&mut bytes, sid1, sid0);
            }
            wrr_seen += 1;
        }
        expected.push(Expected { verdict, alt_verdict: None, bytes });
    }
    // A WRR frame's verdict depends on the path it was given, never on the
    // frame, so the reference's own run (which covers both paths within
    // one cycle) yields the expected verdict of either path.
    let mut by_path: [Option<Verdict>; 2] = [None, None];
    let mut k = 0u64;
    for (frame, entry) in workload.frames.iter().zip(&expected) {
        if frame.kind == Kind::WrrEncap {
            by_path[wrr_path(k)].get_or_insert_with(|| entry.verdict.clone());
            k += 1;
        }
    }
    if k > 0 {
        let path0 = by_path[0].clone().expect("a WRR cycle covers path 0");
        let path1 = by_path[1].clone().expect("a WRR cycle covers path 1");
        for (frame, entry) in workload.frames.iter().zip(expected.iter_mut()) {
            if frame.kind == Kind::WrrEncap {
                entry.verdict = path0.clone();
                entry.alt_verdict = Some(path1.clone());
            }
        }
    }
    let digest = digest_expected(&expected);
    Reference { expected, digest }
}

/// Whether a pool output (verdict and bytes) is what the reference says.
/// `full` compares every byte; otherwise the verdict, the length and (for
/// WRR frames) the chosen SID are checked. `wrr_path` is the path the
/// cycle assigns to this packet and is ignored for other kinds.
pub fn output_matches(
    expected: &Expected,
    kind: Kind,
    verdict: &Verdict,
    bytes: &[u8],
    full: bool,
    wrr_path: usize,
) -> bool {
    if kind == Kind::WrrEncap {
        let want_verdict = if wrr_path == 0 {
            &expected.verdict
        } else {
            expected.alt_verdict.as_ref().unwrap_or(&expected.verdict)
        };
        if verdict != want_verdict || bytes.len() != expected.bytes.len() || bytes.len() < 64 {
            return false;
        }
        let sid = WRR_SIDS[wrr_path].octets();
        if WRR_SID_FIELDS.iter().any(|field| bytes[field.clone()] != sid) {
            return false;
        }
        return !full
            || (bytes[..24] == expected.bytes[..24]
                && bytes[40..48] == expected.bytes[40..48]
                && bytes[64..] == expected.bytes[64..]);
    }
    verdict == &expected.verdict && bytes_match(expected, bytes, full)
}

/// Whether a frame captured off a socket is what the reference says (the
/// verdict is not visible there: the frame arrived, so it was forwarded).
pub fn bytes_match(expected: &Expected, bytes: &[u8], full: bool) -> bool {
    bytes.len() == expected.bytes.len() && (!full || bytes == expected.bytes)
}

// --- digests ---------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *hash = (*hash ^ u64::from(*byte)).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a of `bytes` alone.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv(&mut hash, bytes);
    hash
}

fn fnv_verdict(hash: &mut u64, verdict: &Verdict) {
    match verdict {
        Verdict::Forward { oif, neighbour } => {
            fnv(hash, &[1]);
            fnv(hash, &oif.to_le_bytes());
            fnv(hash, &neighbour.octets());
        }
        Verdict::LocalDeliver => fnv(hash, &[2]),
        Verdict::Drop(reason) => {
            let code = DROP_REASONS.iter().position(|r| r == reason).expect("every reason is listed") as u8;
            fnv(hash, &[3, code]);
        }
    }
}

fn digest_expected(expected: &[Expected]) -> u64 {
    let mut hash = FNV_OFFSET;
    for entry in expected {
        fnv_verdict(&mut hash, &entry.verdict);
        if let Some(alt) = &entry.alt_verdict {
            fnv_verdict(&mut hash, alt);
        }
        fnv(&mut hash, &(entry.bytes.len() as u32).to_le_bytes());
        fnv(&mut hash, &entry.bytes);
    }
    hash
}

/// FNV-1a over a workload's generated frames (generator determinism).
#[cfg(test)]
pub fn digest_frames(workload: &Workload) -> u64 {
    let mut hash = FNV_OFFSET;
    for frame in &workload.frames {
        fnv(&mut hash, &[frame.tenant as u8]);
        fnv(&mut hash, &(frame.bytes.len() as u32).to_le_bytes());
        fnv(&mut hash, &frame.bytes);
    }
    hash
}

/// The checked-in digest of `workload`'s reference results at the default
/// seed (`golden_digests.txt`, one `name hex` pair per line).
pub fn golden_digest(workload: &str) -> Option<u64> {
    include_str!("../golden_digests.txt").lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next()? == workload).then(|| u64::from_str_radix(fields.next()?, 16).ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, DEFAULT_SEED, NAMES};

    #[test]
    fn wrr_cycle_is_five_then_three() {
        let paths: Vec<usize> = (0..16).map(wrr_path).collect();
        assert_eq!(paths, [0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn each_hostile_kind_yields_its_intended_drop_reason() {
        let workload = generate("hostile_mix_64", 5);
        let reference = compute(&workload);
        let intended = |kind: Kind| match kind {
            Kind::Truncated | Kind::BadSrhLen => DropReason::Malformed,
            Kind::SidNoSrh => DropReason::NoSrh,
            Kind::SegLeftZero => DropReason::SegmentsLeftZero,
            Kind::Dt6NoInner => DropReason::DecapFailed,
            Kind::NoRoute => DropReason::NoRoute,
            Kind::HopLimitOne => DropReason::HopLimitExceeded,
            Kind::BpfDrop => DropReason::BpfDrop,
            other => panic!("{other:?} is not hostile"),
        };
        for (frame, entry) in workload.frames.iter().zip(&reference.expected) {
            if Kind::HOSTILE.contains(&frame.kind) {
                assert_eq!(entry.verdict, Verdict::Drop(intended(frame.kind)), "{:?}", frame.kind);
            } else {
                assert!(entry.verdict.is_forward(), "{:?} forwards", frame.kind);
            }
        }
        let dropped: usize = reference.drop_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(dropped, workload.frames.len() / 2);
    }

    #[test]
    fn no_operation_fails_on_the_forwarding_workloads() {
        for name in ["nf_mix_64", "static_mix_64", "encap_decap_1400", "srv6d_loopback_64"] {
            let workload = generate(name, 9);
            let reference = compute(&workload);
            assert!(reference.expected.iter().all(|e| e.verdict.is_forward()), "{name}");
        }
    }

    #[test]
    fn wrr_expectations_are_path_independent() {
        let workload = generate("encap_decap_1400", 2);
        let reference = compute(&workload);
        let [sid0, _] = WRR_SIDS;
        for (frame, entry) in workload.frames.iter().zip(&reference.expected) {
            if frame.kind == Kind::WrrEncap {
                assert_eq!(&entry.bytes[24..40], &sid0.octets());
                assert_eq!(entry.bytes.len(), frame.bytes.len() + 40 + 24);
                assert_ne!(entry.alt_verdict.as_ref(), Some(&entry.verdict));
            }
        }
    }

    #[test]
    fn golden_digests_match_the_default_seed() {
        for name in NAMES {
            let reference = compute(&generate(name, DEFAULT_SEED));
            assert_eq!(golden_digest(name), Some(reference.digest), "{name}: {:016x}", reference.digest);
        }
    }
}
