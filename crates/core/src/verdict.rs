//! Datapath verdicts and drop accounting.

use crate::skb::RouteOverride;
use std::fmt;
use std::net::Ipv6Addr;

/// Why a packet was dropped. Mirrors the per-reason counters a kernel
/// datapath would expose, so experiments can tell configuration errors from
/// program decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The packet could not be parsed as IPv6.
    Malformed,
    /// A seg6local SID was hit by a packet without an SRH.
    NoSrh,
    /// A seg6local endpoint needed a next segment but `segments_left` was 0.
    SegmentsLeftZero,
    /// Decapsulation was requested but there is no inner IPv6 packet.
    DecapFailed,
    /// An End.BPF program returned `BPF_DROP`.
    BpfDrop,
    /// An End.BPF program faulted or returned an unknown code.
    BpfError,
    /// The SRH did not survive the post-program validation.
    SrhValidationFailed,
    /// No route matched the destination.
    NoRoute,
    /// The hop limit reached zero.
    HopLimitExceeded,
}

impl DropReason {
    /// Every reason, in declaration order: `ALL[i] as usize == i`, which is
    /// what lets drop counters be a plain array indexed by reason
    /// ([`DatapathStats::dropped`](crate::DatapathStats::dropped)).
    pub const ALL: [DropReason; 9] = [
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

    /// The reason's snake_case name, as metric labels carry it.
    pub fn name(&self) -> &'static str {
        match self {
            DropReason::Malformed => "malformed",
            DropReason::NoSrh => "no_srh",
            DropReason::SegmentsLeftZero => "segments_left_zero",
            DropReason::DecapFailed => "decap_failed",
            DropReason::BpfDrop => "bpf_drop",
            DropReason::BpfError => "bpf_error",
            DropReason::SrhValidationFailed => "srh_validation_failed",
            DropReason::NoRoute => "no_route",
            DropReason::HopLimitExceeded => "hop_limit_exceeded",
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            DropReason::Malformed => "malformed packet",
            DropReason::NoSrh => "no SRH on an SRv6 endpoint",
            DropReason::SegmentsLeftZero => "segments_left is zero",
            DropReason::DecapFailed => "decapsulation failed",
            DropReason::BpfDrop => "dropped by BPF program",
            DropReason::BpfError => "BPF program error",
            DropReason::SrhValidationFailed => "SRH validation failed",
            DropReason::NoRoute => "no route to destination",
            DropReason::HopLimitExceeded => "hop limit exceeded",
        };
        f.write_str(text)
    }
}

/// Result of applying a seg6local action (or a transit behaviour) to a
/// packet: either keep forwarding towards `dst` under the given constraints,
/// or drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionOutcome {
    /// Continue forwarding.
    Forward {
        /// Destination the datapath must route towards (usually the outer
        /// destination after the action ran).
        dst: Ipv6Addr,
        /// Constraints installed by the action (specific next hop, interface
        /// or table); empty means "default FIB lookup".
        route_override: RouteOverride,
    },
    /// Deliver the packet to the local host stack.
    LocalDeliver,
    /// Drop the packet.
    Drop(DropReason),
}

/// Final decision of the datapath for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Send the packet out of interface `oif` towards `neighbour`.
    Forward {
        /// Outgoing interface index.
        oif: u32,
        /// Link-level next hop (the FIB gateway, or the destination itself
        /// when directly connected).
        neighbour: Ipv6Addr,
    },
    /// The packet is addressed to this node; hand it to the host stack.
    LocalDeliver,
    /// Drop the packet.
    Drop(DropReason),
}

impl Verdict {
    /// Whether the verdict forwards the packet.
    pub fn is_forward(&self) -> bool {
        matches!(self, Verdict::Forward { .. })
    }

    /// The drop reason, if the packet was dropped.
    pub fn drop_reason(&self) -> Option<DropReason> {
        match self {
            Verdict::Drop(reason) => Some(*reason),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_helpers() {
        let v = Verdict::Forward { oif: 1, neighbour: "fe80::1".parse().unwrap() };
        assert!(v.is_forward());
        assert_eq!(v.drop_reason(), None);
        let v = Verdict::Drop(DropReason::NoRoute);
        assert!(!v.is_forward());
        assert_eq!(v.drop_reason(), Some(DropReason::NoRoute));
        assert!(!Verdict::LocalDeliver.is_forward());
    }

    #[test]
    fn drop_reasons_have_readable_names() {
        assert!(DropReason::BpfDrop.to_string().contains("BPF"));
        assert!(DropReason::HopLimitExceeded.to_string().contains("hop limit"));
    }
}
