//! Reusable per-datapath scratch state.
//!
//! Everything a packet's journey through the datapath used to allocate —
//! the VM register/stack state, the program context, the saved
//! packet head a failed run is undone with, the helper environment — lives
//! here once per datapath instance (one per worker shard) and is reused for
//! every packet. Programs and helpers edit the skb itself, so no working
//! copy of the packet exists. After the first packet warms the buffers up,
//! the steady-state hot path performs no heap allocation; the
//! `alloc-counter` test feature proves it.

use crate::ctx::{offsets, Context};
use crate::env::Seg6Env;
use crate::skb::SavedHead;
use ebpf_vm::vm::RunState;

/// Scratch buffers reused across packets by one datapath instance.
#[derive(Debug)]
pub struct RunScratch {
    /// VM state (registers, 512-byte stack, map-value regions); reset —
    /// not reallocated — before every program run.
    pub state: RunState,
    /// The program context (the `__sk_buff` analogue), rewritten in place
    /// for every run.
    pub ctx: Context,
    /// The head of the packet a program runs on, saved before the hook's
    /// first write and put back if the run fails.
    pub head: SavedHead,
    /// The helper environment of the router this scratch serves, built by
    /// the first program run and re-armed for every one after it.
    pub env: Option<Seg6Env>,
}

impl RunScratch {
    /// Fresh scratch state; buffers grow to their steady-state sizes on
    /// first use and stay there.
    pub fn new() -> Self {
        RunScratch {
            state: RunState::new(offsets::SIZE),
            ctx: [0; offsets::SIZE],
            head: SavedHead::default(),
            env: None,
        }
    }
}

impl Default for RunScratch {
    fn default() -> Self {
        Self::new()
    }
}
