//! # seg6-core — the SRv6 data plane with `End.BPF`
//!
//! This crate is the Rust reproduction of the paper's primary contribution
//! (*Leveraging eBPF for programmable network functions with IPv6 Segment
//! Routing*, CoNEXT 2018): an SRv6 data plane whose endpoint behaviours can
//! be extended with operator-written eBPF programs.
//!
//! It provides:
//!
//! * a per-node [`datapath::Seg6Datapath`] combining an ECMP-capable
//!   [`fib`], the `seg6local` My-SID table ([`seg6local`]), the `seg6`
//!   transit behaviours ([`transit`]) and the BPF LWT hooks ([`lwt_bpf`]);
//! * the full set of static seg6local behaviours (`End`, `End.X`, `End.T`,
//!   `End.DX6`, `End.DT6`, `End.B6`, `End.B6.Encaps`) plus the paper's
//!   **`End.BPF`** action;
//! * the four SRv6 eBPF helpers of §3.1 ([`helpers`]):
//!   `bpf_lwt_seg6_store_bytes`, `bpf_lwt_seg6_adjust_srh`,
//!   `bpf_lwt_seg6_action` and `bpf_lwt_push_encap`, gated by program type
//!   exactly as in the kernel, whose attach pairs each hook with one type
//!   (`End.BPF` ↔ `lwt_seg6local`, `lwt_in`, `lwt_xmit`) as
//!   [`datapath::Seg6Datapath`] does;
//! * the program [`ctx`] layout (the `__sk_buff` analogue) and the helper
//!   [`mod@env`]ironment through which programs reach the FIB, the clock and the
//!   perf-event machinery.
//!
//! ## Quick example: an `End.BPF` SID running a trivial program
//!
//! ```
//! use ebpf_vm::asm::assemble;
//! use ebpf_vm::program::{load, Program, ProgramType};
//! use netpkt::packet::build_srv6_udp_packet;
//! use netpkt::srh::SegmentRoutingHeader;
//! use seg6_core::datapath::Seg6Datapath;
//! use seg6_core::fib::Nexthop;
//! use seg6_core::seg6local::Seg6LocalAction;
//! use seg6_core::skb::Skb;
//! use std::collections::HashMap;
//!
//! let mut dp = Seg6Datapath::new("fc00::1".parse().unwrap());
//! dp.add_route("fc00::/16".parse().unwrap(), vec![Nexthop::via("fe80::2".parse().unwrap(), 2)]);
//!
//! // The "End written in BPF" program from the paper's Figure 2: return
//! // BPF_OK and let the datapath forward to the next segment.
//! let insns = assemble("mov64 r0, 0\nexit").unwrap();
//! let prog = load(
//!     Program::new("end", ProgramType::LwtSeg6Local, insns),
//!     &HashMap::new(),
//!     &dp.helpers,
//! ).unwrap();
//! dp.add_local_sid("fc00::1:0".parse().unwrap(), Seg6LocalAction::EndBpf { prog });
//!
//! // An SRv6 packet whose first segment is that SID.
//! let srh = SegmentRoutingHeader::from_path(
//!     netpkt::proto::UDP,
//!     &["fc00::1:0".parse().unwrap(), "fc00::2:0".parse().unwrap()],
//! );
//! let pkt = build_srv6_udp_packet("2001:db8::1".parse().unwrap(), &srh, 1000, 2000, &[0; 64], 64);
//! let mut skb = Skb::new(pkt);
//! let verdict = dp.process(&mut skb, 0);
//! assert!(verdict.is_forward());
//! ```

#![warn(missing_docs)]
// The test-only `alloc-counter` feature needs one `unsafe impl GlobalAlloc`
// (and nothing else); every production build keeps the blanket ban.
#![cfg_attr(not(feature = "alloc-counter"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-counter", deny(unsafe_code))]

pub mod ctx;
pub mod datapath;
pub mod env;
pub mod error;
pub mod fib;
pub mod helpers;
mod lpm;
pub mod lwt_bpf;
pub mod scratch;
pub mod seg6local;
pub mod skb;
pub mod srv6_ops;
pub mod table;
pub mod transit;
pub mod verdict;

#[cfg(feature = "alloc-counter")]
pub mod alloc_counter;

pub use datapath::{BatchSlots, BatchVerdict, DatapathStats, Seg6Datapath, WorkSummary};
pub use env::{EnvOutcome, Seg6Env};
pub use error::{Error, Result};
pub use fib::{
    EcmpKey, Fib, FibCache, LookupHit, LookupResult, Nexthop, Route, RouterTables, TableId, MAIN_TABLE,
    VRF_TABLE_BASE,
};
pub use helpers::{action_codes, encap_modes, seg6_helper_registry};
pub use lwt_bpf::{LwtBpfAttachment, LwtBpfTable, LwtHook};
pub use scratch::RunScratch;
pub use seg6local::{LocalSidTable, Seg6LocalAction};
pub use skb::{RouteOverride, Skb};
pub use table::PrefixTable;
pub use transit::{TransitBehaviour, TransitMode, TransitTable};
pub use verdict::{ActionOutcome, DropReason, Verdict};
