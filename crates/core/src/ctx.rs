//! The context structure exposed to LWT and seg6local eBPF programs.
//!
//! Kernel LWT-BPF programs receive a `struct __sk_buff *`; this module
//! defines the equivalent fixed layout our programs see. The first two
//! fields are the packet `data` / `data_end` pointers (at the offsets the
//! `ebpf-vm` verifier expects), followed by the scalar metadata: packet
//! length, protocol, mark, ingress interface and the RX software
//! timestamp. (The kernel gives LWT programs no access to the timestamp;
//! `End.DM` takes its time from `bpf_ktime_get_ns`.)

use crate::skb::Skb;
use ebpf_vm::vm::PKT_BASE;

/// EtherType of IPv6, the only protocol the LWT hooks see here.
pub const ETH_P_IPV6: u32 = 0x86dd;

/// Byte offsets of the context fields, usable from eBPF programs.
pub mod offsets {
    /// `data` pointer (u64).
    pub const DATA: i16 = 0;
    /// `data_end` pointer (u64).
    pub const DATA_END: i16 = 8;
    /// Packet length in bytes (u32).
    pub const LEN: i16 = 16;
    /// Protocol / EtherType (u32).
    pub const PROTOCOL: i16 = 20;
    /// Mark (u32), writable by programs.
    pub const MARK: i16 = 24;
    /// Ingress interface index (u32).
    pub const INGRESS_IFINDEX: i16 = 28;
    /// RX software timestamp in nanoseconds (u64).
    pub const TSTAMP: i16 = 32;
    /// Scratch area `cb[0..20]`, preserved across the invocation (20 bytes).
    pub const CB: i16 = 40;
    /// Total size of the context structure.
    pub const SIZE: usize = 64;
}

/// The context structure of one invocation, as the hooks keep it: a fixed
/// array, rewritten in place for every packet.
pub type Context = [u8; offsets::SIZE];

/// Builds the context byte buffer for one program invocation, in a fresh
/// allocation (tests only; the hooks reuse a [`Context`]).
#[cfg(test)]
pub fn build_context(skb: &Skb) -> Vec<u8> {
    let mut ctx = Vec::new();
    build_context_into(skb, &mut ctx);
    ctx
}

/// Writes the context of `skb`'s invocation over `ctx`, every byte of it,
/// one 8-byte word at a time: nothing of the previous invocation's
/// context (a mark or `cb` the program wrote) survives.
pub fn write_context(skb: &Skb, ctx: &mut Context) {
    const _: () = assert!(offsets::SIZE == 8 * 8, "one word per 8 bytes of context");
    let len = skb.len() as u64;
    let words = [
        PKT_BASE,                                                   // DATA
        PKT_BASE + len,                                             // DATA_END
        len | u64::from(ETH_P_IPV6) << 32,                          // LEN, PROTOCOL
        u64::from(skb.mark) | u64::from(skb.ingress_ifindex) << 32, // MARK, INGRESS_IFINDEX
        skb.rx_timestamp_ns,                                        // TSTAMP
        0,                                                          // CB ...
        0,
        0,
    ];
    for (field, word) in ctx.chunks_exact_mut(8).zip(words) {
        field.copy_from_slice(&word.to_le_bytes());
    }
}

/// Builds the context into a byte vector, resized to [`offsets::SIZE`],
/// as [`write_context`] does.
pub fn build_context_into(skb: &Skb, ctx: &mut Vec<u8>) {
    ctx.resize(offsets::SIZE, 0);
    let ctx: &mut Context = ctx.as_mut_slice().try_into().expect("resized to the context size");
    write_context(skb, ctx);
}

/// Re-synchronises the `data_end` and `len` fields after a helper changed
/// the packet size (SRH growth/shrink, encapsulation, decapsulation).
pub fn refresh_packet_len(ctx: &mut [u8], new_len: usize) {
    write_u64(ctx, offsets::DATA_END, PKT_BASE + new_len as u64);
    write_u32(ctx, offsets::LEN, new_len as u32);
}

/// Copies back the fields a program may legitimately modify (the mark and
/// the cb scratch area are the only ones we honour).
pub fn read_back(ctx: &[u8], skb: &mut Skb) {
    skb.mark = read_u32(ctx, offsets::MARK);
}

/// Reads the mark field from a context buffer.
pub fn read_mark(ctx: &[u8]) -> u32 {
    read_u32(ctx, offsets::MARK)
}

fn write_u64(ctx: &mut [u8], off: i16, value: u64) {
    let off = off as usize;
    ctx[off..off + 8].copy_from_slice(&value.to_le_bytes());
}

fn write_u32(ctx: &mut [u8], off: i16, value: u32) {
    let off = off as usize;
    ctx[off..off + 4].copy_from_slice(&value.to_le_bytes());
}

fn read_u32(ctx: &[u8], off: i16) -> u32 {
    let off = off as usize;
    u32::from_le_bytes([ctx[off], ctx[off + 1], ctx[off + 2], ctx[off + 3]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::PacketBuf;

    #[test]
    fn context_layout_matches_offsets() {
        let mut skb = Skb::received(PacketBuf::from_slice(&[0u8; 100]), 42_000, 3);
        skb.mark = 7;
        let ctx = build_context(&skb);
        assert_eq!(ctx.len(), offsets::SIZE);
        assert_eq!(u64::from_le_bytes(ctx[0..8].try_into().unwrap()), PKT_BASE);
        assert_eq!(u64::from_le_bytes(ctx[8..16].try_into().unwrap()), PKT_BASE + 100);
        assert_eq!(u32::from_le_bytes(ctx[16..20].try_into().unwrap()), 100);
        assert_eq!(u32::from_le_bytes(ctx[20..24].try_into().unwrap()), ETH_P_IPV6);
        assert_eq!(read_mark(&ctx), 7);
        assert_eq!(u32::from_le_bytes(ctx[28..32].try_into().unwrap()), 3);
        assert_eq!(u64::from_le_bytes(ctx[32..40].try_into().unwrap()), 42_000);
    }

    #[test]
    fn refresh_packet_len_updates_bounds() {
        let skb = Skb::new(PacketBuf::from_slice(&[0u8; 10]));
        let mut ctx = build_context(&skb);
        refresh_packet_len(&mut ctx, 50);
        assert_eq!(u64::from_le_bytes(ctx[8..16].try_into().unwrap()), PKT_BASE + 50);
        assert_eq!(u32::from_le_bytes(ctx[16..20].try_into().unwrap()), 50);
    }

    #[test]
    fn read_back_honours_mark_changes() {
        let mut skb = Skb::new(PacketBuf::from_slice(&[0u8; 10]));
        let mut ctx = build_context(&skb);
        ctx[offsets::MARK as usize..offsets::MARK as usize + 4].copy_from_slice(&99u32.to_le_bytes());
        read_back(&ctx, &mut skb);
        assert_eq!(skb.mark, 99);
    }

    #[test]
    fn data_offsets_agree_with_the_vm_convention() {
        assert_eq!(i64::from(offsets::DATA), ebpf_vm::vm::CTX_OFF_DATA);
        assert_eq!(i64::from(offsets::DATA_END), ebpf_vm::vm::CTX_OFF_DATA_END);
        assert!(offsets::SIZE as i64 <= ebpf_vm::verifier::MAX_CTX_SIZE);
    }
}
