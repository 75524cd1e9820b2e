//! Raw `recvmmsg(2)`/`sendmmsg(2)` socket backend: one syscall per burst,
//! one datagram per run of equal-length frames, each way.
//!
//! This module implements the [`PacketRx`](super::PacketRx)/[`PacketTx`](super::PacketTx)
//! seam with the kernel's multi-message calls: a whole
//! [`FrameBatch`](super::FrameBatch) is filled by a single `recvmmsg`, and
//! a whole flush window leaves through a single `sendmmsg`. The `mmsghdr`/`iovec`
//! arrays are built once and reused; receive iovecs point directly into
//! the batch's slot storage and transmit iovecs borrow the caller's
//! frames in place, so batching adds zero copies and zero steady-state
//! allocations.
//!
//! **Transmit: one datagram per run (UDP GSO).** With batching, the
//! syscall is paid per burst but the kernel's transmit path still runs
//! once per datagram. So [`MmsgTx`]'s `send_frames` gives each run of
//! consecutive frames one `sendmmsg` message with a `UDP_SEGMENT` control
//! message, and the kernel sends the run as one GSO skb, cut into
//! datagrams only where it leaves the host (or, on loopback, where a
//! socket without `UDP_GRO` receives it). A run is frames of exactly the
//! first frame's length, optionally closed by one shorter non-empty frame
//! (the kernel's segment rule), with at most 64 segments and a 16-bit
//! UDP length; a lone frame carries no control message. Receivers see
//! the same datagrams in the same order as without grouping.
//!
//! - A socket groups only if it accepts `setsockopt(SOL_UDP,
//!   UDP_SEGMENT, 0)` at construction. A Unix datagram socket or a
//!   pre-4.18 kernel does not, and sends one datagram per frame.
//! - A grouped message that fails with `EMSGSIZE`/`EINVAL` (a segment
//!   plus headers over the path MTU, where a plain send would fragment)
//!   is re-sent frame by frame; grouping never drops a frame.
//! - `EIO` (egress without checksum offload) does the same and turns
//!   grouping off for that socket.
//! - Backpressure and transient errors drop frames exactly as they do
//!   ungrouped: a whole group at a time.
//!
//! **Receive: one datagram per run (UDP GRO).** A socket without
//! `UDP_GRO` makes the kernel cut every GSO run back into one skb per
//! frame before it is queued. So [`MmsgRx`] turns `UDP_GRO` on, the
//! kernel queues a run as one datagram, and one `recvmmsg` message takes
//! it whole; `fill` reads the segment size from the `UDP_GRO` control
//! message and cuts the datagram into its frames in user space, where
//! they stay (the batch indexes them, see
//! [`FrameBatch`](super::FrameBatch)). A batch of N slots still takes N
//! datagrams per call.
//!
//! - A socket coalesces only if it accepts `setsockopt(SOL_UDP,
//!   UDP_GRO, 1)` at construction (Linux ≥ 5.0). A Unix datagram socket
//!   or an older kernel does not, and reads one frame per message.
//! - A GRO datagram can reach 64 KiB. Each message gets a second iovec
//!   into its slot's span of the batch's spill: an anonymous
//!   `MAP_NORESERVE` mapping that costs no resident memory until a
//!   datagram runs past its slot, and is `madvise(MADV_DONTNEED)`d when
//!   the batch is cleared after such a burst. A frame that straddles the
//!   slot and the spill has its head copied in front of its tail; that is
//!   the only copy, and this traffic never takes it.
//! - A message without the control message is one frame. A frame longer
//!   than the slot is never committed: [`MmsgRx`] drops it and counts it
//!   in [`PacketRx::truncated`](super::PacketRx::truncated), per frame,
//!   and the frames around it are delivered in order.
//!
//! The FFI is libc-free in the repository's sense — no `libc` crate, just
//! `extern "C"` declarations of the wrappers std already links, the same
//! pattern as srv6d's `signal(2)` handler and `ebpf-vm::codegen`'s
//! `mmap`/`mprotect`. Non-Linux hosts compile clean: the types exist
//! everywhere and their constructors report
//! [`std::io::ErrorKind::Unsupported`], so a daemon started there fails
//! at its first bind.

/// Bytes one received datagram may occupy: its slot, then the rest of
/// its span in the spill. A UDP payload's length fits in 16 bits, so a
/// GRO datagram always fits; slot `i`'s span starts at `i * DATAGRAM_SPAN`
/// in the spill.
pub(crate) const DATAGRAM_SPAN: usize = 1 << 16;

#[cfg(target_os = "linux")]
mod imp {
    use super::DATAGRAM_SPAN;
    pub(super) use crate::sockio::MAX_SEGMENTS;
    use crate::sockio::{transient_send_error, FrameBatch, PacketRx, PacketTx};
    use std::io;
    use std::mem::{offset_of, size_of};
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, ToSocketAddrs, UdpSocket};
    use std::os::fd::{AsRawFd, RawFd};
    use std::ptr;

    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_TRUNC: i32 = 0x20;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    const EIO: i32 = 5;
    const EINVAL: i32 = 22;
    const EMSGSIZE: i32 = 90;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MADV_DONTNEED: i32 = 4;

    /// Most payload bytes one GSO datagram may carry: the 16-bit IP length
    /// less the IPv4 and UDP headers, which also fits IPv6's UDP length.
    pub(super) const MAX_GSO_BYTES: usize = u16::MAX as usize - 20 - 8;

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct msghdr` (x86-64 layout; `repr(C)` inserts the padding after
    /// `namelen` exactly like the C compiler does).
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    /// `struct mmsghdr`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    struct Mmsghdr {
        hdr: MsgHdr,
        len: u32,
    }

    /// One `SOL_UDP` control message: a `struct cmsghdr` followed by
    /// its data, padded to `CMSG_SPACE(4)`. A sent `UDP_SEGMENT` carries
    /// a `u16` segment size, a received `UDP_GRO` an `int`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    struct UdpCmsg {
        len: usize,
        level: i32,
        kind: i32,
        data: [u8; 8],
    }

    impl UdpCmsg {
        /// A `UDP_SEGMENT` message for a GSO send.
        fn segment(segment: u16) -> Self {
            // `cmsg_len` is `CMSG_LEN(2)`: the header plus the bare u16.
            let len = offset_of!(UdpCmsg, data) + size_of::<u16>();
            let mut data = [0; 8];
            data[..2].copy_from_slice(&segment.to_ne_bytes());
            UdpCmsg { len, level: SOL_UDP, kind: UDP_SEGMENT, data }
        }

        /// The segment size a sent `UDP_SEGMENT` message carries.
        #[cfg(test)]
        fn sent_segment(&self) -> u16 {
            u16::from_ne_bytes([self.data[0], self.data[1]])
        }

        /// The segment size of a received GRO datagram, or 0 if the
        /// kernel wrote no `UDP_GRO` message (`controllen` is the control
        /// length it reported).
        fn gro_segment(&self, controllen: usize) -> usize {
            let len = offset_of!(UdpCmsg, data) + size_of::<i32>();
            if controllen < len || self.len < len || self.level != SOL_UDP || self.kind != UDP_GRO {
                return 0;
            }
            let segment = i32::from_ne_bytes([self.data[0], self.data[1], self.data[2], self.data[3]]);
            usize::try_from(segment).unwrap_or(0)
        }
    }

    extern "C" {
        fn recvmmsg(fd: RawFd, msgvec: *mut Mmsghdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn sendmmsg(fd: RawFd, msgvec: *mut Mmsghdr, vlen: u32, flags: i32) -> i32;
        fn setsockopt(fd: RawFd, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    /// A [`FrameBatch`]'s spill: [`DATAGRAM_SPAN`] bytes per slot in one
    /// private anonymous mapping, reserved with `MAP_NORESERVE` by the
    /// first GRO receive into the batch. Untouched pages cost no resident
    /// memory; after a burst that wrote into it, its pages are handed back
    /// with `MADV_DONTNEED` when the batch is cleared, and the mapping is
    /// unmapped on drop. Not a `Vec`: a large heap chunk would be zeroed
    /// on every construction once glibc has raised its mmap threshold.
    #[derive(Debug)]
    pub(crate) struct Spill {
        base: *mut u8,
        len: usize,
        /// Whether a datagram wrote into the spill since the last release.
        touched: bool,
    }

    // SAFETY: the mapping is owned by exactly one `Spill` and reached only
    // through `&self`/`&mut self`, like a `Box<[u8]>`; the kernel writes
    // into it only inside `MmsgRx::fill`, which holds the batch `&mut`.
    unsafe impl Send for Spill {}
    unsafe impl Sync for Spill {}

    impl Default for Spill {
        fn default() -> Self {
            Spill { base: ptr::null_mut(), len: 0, touched: false }
        }
    }

    impl Spill {
        /// The spill's base for `slots` spans, mapped on first use; `None`
        /// if the mapping fails (datagrams then end at their slot).
        fn map(&mut self, slots: usize) -> Option<*mut u8> {
            if self.base.is_null() {
                let len = slots * DATAGRAM_SPAN;
                // SAFETY: a fresh private anonymous mapping aliases nothing.
                let base = unsafe {
                    mmap(
                        ptr::null_mut(),
                        len,
                        PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                        -1,
                        0,
                    )
                };
                if base as isize == -1 {
                    return None;
                }
                (self.base, self.len) = (base, len);
            }
            Some(self.base)
        }

        /// Records that a datagram ran past its slot into its span.
        pub(crate) fn touch(&mut self) {
            self.touched = true;
        }

        /// `len` bytes at offset `at`.
        pub(crate) fn bytes(&self, at: usize, len: usize) -> &[u8] {
            assert!(at + len <= self.len, "spill range out of the mapping");
            // SAFETY: the range lies inside the live mapping (checked
            // above), and `&self` excludes every writer.
            unsafe { std::slice::from_raw_parts(self.base.add(at), len) }
        }

        /// `len` writable bytes at offset `at`.
        pub(crate) fn bytes_mut(&mut self, at: usize, len: usize) -> &mut [u8] {
            assert!(at + len <= self.len, "spill range out of the mapping");
            // SAFETY: as for `bytes`, with `&mut self` excluding readers.
            unsafe { std::slice::from_raw_parts_mut(self.base.add(at), len) }
        }

        /// Hands the spill's pages back to the kernel if a datagram wrote
        /// into them; they read as zero and cost nothing until written
        /// again.
        pub(crate) fn release(&mut self) {
            if !self.touched || self.base.is_null() {
                return;
            }
            // SAFETY: `base`/`len` are exactly the (page-aligned) mapping,
            // and no slice into it is alive while the batch is borrowed
            // `&mut` for `clear`.
            unsafe {
                madvise(self.base, self.len, MADV_DONTNEED);
            }
            self.touched = false;
        }
    }

    impl Drop for Spill {
        fn drop(&mut self) {
            if !self.base.is_null() {
                // SAFETY: `base`/`len` are exactly the mapping made in
                // `map`, and nothing borrows the spill any more.
                unsafe {
                    munmap(self.base, self.len);
                }
            }
        }
    }

    fn set_int_option(fd: RawFd, level: i32, name: i32, value: i32) -> io::Result<()> {
        // SAFETY: optval points at 4 valid bytes and optlen says so.
        let rc = unsafe { setsockopt(fd, level, name, &value as *const i32 as *const u8, 4) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn null_mmsghdr() -> Mmsghdr {
        Mmsghdr {
            hdr: MsgHdr {
                name: ptr::null_mut(),
                namelen: 0,
                iov: ptr::null_mut(),
                iovlen: 0,
                control: ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        }
    }

    /// Grows a reused array to at least `want` entries. Only ever
    /// allocates on growth, so steady-state bursts of a stable size never
    /// touch the allocator.
    fn ensure<T: Copy>(v: &mut Vec<T>, want: usize, fill: T) {
        if v.len() < want {
            v.resize(want, fill);
        }
    }

    /// How many of `frames` the first datagram carries: a run of frames of
    /// exactly the first frame's length, optionally closed by one shorter
    /// non-empty frame, at most [`MAX_SEGMENTS`] frames and
    /// [`MAX_GSO_BYTES`] bytes. The kernel cuts a GSO datagram into
    /// segments of the first length and a shorter tail, so these frames
    /// come out as the same datagrams they went in as. An empty frame is
    /// never grouped; `0` only for no frames at all.
    pub(super) fn group_len(frames: &[&[u8]]) -> usize {
        let Some(first) = frames.first() else { return 0 };
        let segment = first.len();
        let mut bytes = segment;
        let mut n = 1;
        for frame in frames.iter().skip(1) {
            let len = frame.len();
            if segment == 0 || len == 0 || len > segment || n == MAX_SEGMENTS || bytes + len > MAX_GSO_BYTES {
                break;
            }
            n += 1;
            bytes += len;
            if len < segment {
                break;
            }
        }
        n
    }

    /// Batched receive via `recvmmsg(2)`: one syscall fills a whole
    /// [`FrameBatch`], with the kernel scattering each datagram straight
    /// into its slot (and, for a long GRO datagram, on into the spill).
    #[derive(Debug)]
    pub struct MmsgRx {
        socket: UdpSocket,
        /// Whether the socket accepted `UDP_GRO` at construction, so the
        /// kernel queues a GSO run as one datagram.
        gro: bool,
        /// Two iovecs per message: its slot, then its span of the spill.
        iovs: Vec<IoVec>,
        hdrs: Vec<Mmsghdr>,
        /// One control buffer per message, for its `UDP_GRO` segment size.
        cmsgs: Vec<UdpCmsg>,
        syscalls: u64,
        datagrams: u64,
        truncated: u64,
    }

    // SAFETY: the raw pointers in `iovs`/`hdrs` are only ever written and
    // handed to the kernel inside one `fill` call, against a `FrameBatch`
    // borrowed for that call and this struct's own `iovs`/`cmsgs`; between
    // calls they are stale and never dereferenced. The socket itself is
    // `Send`.
    unsafe impl Send for MmsgRx {}

    impl MmsgRx {
        /// Binds `addr` and puts the socket in non-blocking mode.
        pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
            let socket = UdpSocket::bind(addr)?;
            Self::from_socket(socket)
        }

        /// Wraps an already-bound socket (switched to non-blocking), with
        /// `UDP_GRO` on if the socket accepts it.
        pub fn from_socket(socket: UdpSocket) -> io::Result<Self> {
            socket.set_nonblocking(true)?;
            let gro = set_int_option(socket.as_raw_fd(), SOL_UDP, UDP_GRO, 1).is_ok();
            Ok(MmsgRx {
                socket,
                gro,
                iovs: Vec::new(),
                hdrs: Vec::new(),
                cmsgs: Vec::new(),
                syscalls: 0,
                datagrams: 0,
                truncated: 0,
            })
        }

        /// The bound local address (useful after binding port 0).
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.socket.local_addr()
        }

        /// Whether the kernel hands this socket GSO runs as one datagram
        /// (`UDP_GRO` accepted at construction).
        pub fn gro(&self) -> bool {
            self.gro
        }

        /// Points one header per free slot of `batch` at that slot and,
        /// with a spill, at the slot's span past it; returns the count.
        fn arm(&mut self, batch: &mut FrameBatch) -> usize {
            let (first, free, frame_cap) = (batch.slots, batch.capacity - batch.slots, batch.frame_cap);
            let spill =
                if self.gro && frame_cap < DATAGRAM_SPAN { batch.spill.map(batch.capacity) } else { None };
            // Sized before any pointer is taken, so no array moves while
            // the headers point into it.
            ensure(&mut self.iovs, 2 * free, IoVec { base: ptr::null_mut(), len: 0 });
            ensure(&mut self.hdrs, free, null_mmsghdr());
            ensure(&mut self.cmsgs, free, UdpCmsg::segment(0));
            let storage = batch.storage.as_mut_ptr();
            let (iov_base, cmsg_base) = (self.iovs.as_mut_ptr(), self.cmsgs.as_mut_ptr());
            for i in 0..free {
                let slot = first + i;
                // SAFETY: `slot < capacity`, so the slot lies inside the
                // batch's `capacity * frame_cap` storage and its span
                // inside the `capacity * DATAGRAM_SPAN` spill; the span's
                // first `frame_cap` bytes are left for a straddling
                // frame's head. `2 * i + 1 < iovs.len()` and
                // `i < cmsgs.len()`: both arrays are reused, unmoved, and
                // outlive the syscall they are handed to.
                unsafe {
                    iov_base.add(2 * i).write(IoVec { base: storage.add(slot * frame_cap), len: frame_cap });
                    if let Some(spill) = spill {
                        iov_base.add(2 * i + 1).write(IoVec {
                            base: spill.add(slot * DATAGRAM_SPAN + frame_cap),
                            len: DATAGRAM_SPAN - frame_cap,
                        });
                    }
                    let mut hdr = null_mmsghdr();
                    hdr.hdr.iov = iov_base.add(2 * i);
                    hdr.hdr.iovlen = if spill.is_some() { 2 } else { 1 };
                    if self.gro {
                        hdr.hdr.control = cmsg_base.add(i) as *mut u8;
                        hdr.hdr.controllen = size_of::<UdpCmsg>();
                    }
                    self.hdrs[i] = hdr;
                }
            }
            free
        }
    }

    impl PacketRx for MmsgRx {
        fn fill(&mut self, batch: &mut FrameBatch) -> io::Result<usize> {
            let before = batch.len();
            while !batch.is_full() {
                let free = self.arm(batch);
                self.syscalls += 1;
                // SAFETY: every header points at one in-bounds batch slot
                // (and spill span) and its own control buffer, armed
                // above; the null timeout means "don't wait", and
                // MSG_DONTWAIT keeps even the first message non-blocking.
                let n = unsafe {
                    recvmmsg(
                        self.socket.as_raw_fd(),
                        self.hdrs.as_mut_ptr(),
                        free as u32,
                        MSG_DONTWAIT,
                        ptr::null_mut(),
                    )
                };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    match e.kind() {
                        io::ErrorKind::WouldBlock => break,
                        io::ErrorKind::Interrupted => continue,
                        _ => return Err(e),
                    }
                }
                let n = (n as usize).min(free);
                for (hdr, cmsg) in self.hdrs[..n].iter().zip(&self.cmsgs) {
                    let (len, segment) = (hdr.len as usize, cmsg.gro_segment(hdr.hdr.controllen));
                    self.datagrams += 1;
                    if hdr.hdr.flags & MSG_TRUNC != 0 {
                        // Longer than everything armed for it: the kernel
                        // cut it, and a cut packet must not be forwarded.
                        batch.slots += 1;
                        self.truncated += if segment == 0 { 1 } else { len.div_ceil(segment) as u64 };
                        continue;
                    }
                    self.truncated += batch.commit_datagram(len, segment);
                }
                if n < free {
                    // The kernel returned fewer than it had room for: the
                    // queue is drained, no second syscall needed.
                    break;
                }
            }
            Ok(batch.len() - before)
        }

        fn syscalls(&self) -> u64 {
            self.syscalls
        }

        fn datagrams(&self) -> u64 {
            self.datagrams
        }

        fn truncated(&self) -> u64 {
            self.truncated
        }
    }

    /// Batched transmit via `sendmmsg(2)` over a connected, non-blocking
    /// UDP socket: one syscall drains a whole flush window, each run of
    /// equal-length frames leaving as one GSO datagram, with partial
    /// sends resumed where the kernel stopped.
    #[derive(Debug)]
    pub struct MmsgTx {
        socket: UdpSocket,
        /// Whether runs go out as GSO datagrams: the socket accepted
        /// `UDP_SEGMENT` at construction and no send has failed with `EIO`.
        gso: bool,
        /// One iovec per frame.
        iovs: Vec<IoVec>,
        /// One header, control message and frame count per datagram.
        hdrs: Vec<Mmsghdr>,
        cmsgs: Vec<UdpCmsg>,
        groups: Vec<usize>,
        syscalls: u64,
    }

    // SAFETY: as for `MmsgRx` — the pointers in `iovs`/`hdrs` borrow the
    // frames passed to one `send_frames` call and this struct's own
    // `iovs`/`cmsgs`, and are stale between calls. `cmsgs` and `groups`
    // hold plain values.
    unsafe impl Send for MmsgTx {}

    impl MmsgTx {
        /// Binds an ephemeral local socket and connects it to `peer`.
        pub fn connect(peer: impl ToSocketAddrs) -> io::Result<Self> {
            let mut last = None;
            for peer in peer.to_socket_addrs()? {
                let bind_addr = if peer.is_ipv6() {
                    SocketAddr::from((Ipv6Addr::UNSPECIFIED, 0))
                } else {
                    SocketAddr::from((Ipv4Addr::UNSPECIFIED, 0))
                };
                match UdpSocket::bind(bind_addr).and_then(|s| {
                    s.connect(peer)?;
                    Self::from_socket(s)
                }) {
                    Ok(tx) => return Ok(tx),
                    Err(e) => last = Some(e),
                }
            }
            Err(last
                .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")))
        }

        /// Wraps an already-connected datagram socket (switched to
        /// non-blocking). `sendmmsg` is family-agnostic, so this also
        /// accepts a Unix datagram socket smuggled in as a `UdpSocket` —
        /// the fault-injection tests use that for real backpressure. Only
        /// a socket that accepts `UDP_SEGMENT` groups runs of frames.
        pub fn from_socket(socket: UdpSocket) -> io::Result<Self> {
            socket.set_nonblocking(true)?;
            // A zero segment size sends nothing as GSO by itself; the call
            // only asks whether this socket and kernel (≥ 4.18) have it.
            let gso = set_int_option(socket.as_raw_fd(), SOL_UDP, UDP_SEGMENT, 0).is_ok();
            Ok(MmsgTx {
                socket,
                gso,
                iovs: Vec::new(),
                hdrs: Vec::new(),
                cmsgs: Vec::new(),
                groups: Vec::new(),
                syscalls: 0,
            })
        }

        /// The connected local address.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.socket.local_addr()
        }

        /// Shrinks the kernel send buffer to roughly `bytes` — a fault
        /// injector for tests: a tiny `SO_SNDBUF` makes `sendmmsg` stop
        /// mid-burst with a partial send or `EAGAIN` on loopback.
        pub fn set_send_buffer(&self, bytes: usize) -> io::Result<()> {
            let val = i32::try_from(bytes).unwrap_or(i32::MAX);
            set_int_option(self.socket.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, val)
        }

        /// Points one header per datagram at `frames`, grouped by
        /// [`group_len`] while grouping is on, and returns the datagram
        /// count. Nothing is copied: the iovecs borrow the frames.
        fn arm(&mut self, frames: &[&[u8]]) -> usize {
            // At most one datagram per frame; sized before any pointer is
            // taken, so no array moves while the headers point into it.
            ensure(&mut self.iovs, frames.len(), IoVec { base: ptr::null_mut(), len: 0 });
            ensure(&mut self.hdrs, frames.len(), null_mmsghdr());
            ensure(&mut self.cmsgs, frames.len(), UdpCmsg::segment(0));
            ensure(&mut self.groups, frames.len(), 0);
            for (iov, frame) in self.iovs.iter_mut().zip(frames) {
                // The kernel never writes through a send iovec; the cast
                // to *mut is the C API's, not a mutation.
                *iov = IoVec { base: frame.as_ptr() as *mut u8, len: frame.len() };
            }
            let (iov_base, cmsg_base) = (self.iovs.as_mut_ptr(), self.cmsgs.as_mut_ptr());
            let (mut at, mut m) = (0, 0);
            while at < frames.len() {
                let n = if self.gso { group_len(&frames[at..]) } else { 1 };
                let mut hdr = null_mmsghdr();
                // SAFETY: `at + n <= frames.len() <= iovs.len()`, so the
                // datagram's iovecs lie inside the reused array, which
                // outlives the syscall it is handed to.
                hdr.hdr.iov = unsafe { iov_base.add(at) };
                hdr.hdr.iovlen = n;
                if n > 1 {
                    // SAFETY: `m < frames.len() <= cmsgs.len()`; the
                    // control message lives in the reused array beside
                    // the header that points at it. `group_len` keeps a
                    // grouped segment inside 16 bits.
                    unsafe {
                        let cmsg = cmsg_base.add(m);
                        cmsg.write(UdpCmsg::segment(frames[at].len() as u16));
                        hdr.hdr.control = cmsg as *mut u8;
                    }
                    hdr.hdr.controllen = size_of::<UdpCmsg>();
                }
                self.hdrs[m] = hdr;
                self.groups[m] = n;
                at += n;
                m += 1;
            }
            m
        }

        /// Arms `frames` and reads back each datagram as (frames it
        /// carries, its `UDP_SEGMENT` size if it has a control message).
        #[cfg(test)]
        pub(super) fn armed(&mut self, frames: &[&[u8]]) -> Vec<(usize, Option<u16>)> {
            let datagrams = self.arm(frames);
            self.hdrs[..datagrams]
                .iter()
                .zip(&self.cmsgs)
                .map(|(hdr, cmsg)| (hdr.hdr.iovlen, (hdr.hdr.controllen > 0).then_some(cmsg.sent_segment())))
                .collect()
        }

        /// Sends `frames` one `send(2)` each; returns how many were
        /// accepted.
        fn send_each(&mut self, frames: &[&[u8]]) -> io::Result<usize> {
            let mut sent = 0;
            for frame in frames {
                sent += usize::from(self.send_frame(frame)?);
            }
            Ok(sent)
        }
    }

    impl PacketTx for MmsgTx {
        fn send_frame(&mut self, frame: &[u8]) -> io::Result<bool> {
            // Single frames go through the plain send path: the same
            // drops as `send_frames`, still one syscall.
            self.syscalls += 1;
            match self.socket.send(frame) {
                Ok(_) => Ok(true),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
                Err(e) if transient_send_error(&e) => Ok(false),
                Err(e) => Err(e),
            }
        }

        fn send_frames(&mut self, frames: &[&[u8]]) -> io::Result<usize> {
            let datagrams = self.arm(frames);
            // `off` is the first unsent datagram, `first` its first frame.
            let (mut sent, mut off, mut first) = (0, 0, 0);
            while off < datagrams {
                self.syscalls += 1;
                // SAFETY: headers `off..datagrams` were armed above; their
                // iovecs borrow `frames` and their control messages sit in
                // `cmsgs`, both alive and unmoved for this whole call.
                let n = unsafe {
                    sendmmsg(
                        self.socket.as_raw_fd(),
                        self.hdrs.as_mut_ptr().add(off),
                        (datagrams - off) as u32,
                        MSG_DONTWAIT,
                    )
                };
                if n >= 0 {
                    // Partial send: the kernel took the first `n`, resume
                    // at the first unsent datagram.
                    let n = (n as usize).min(datagrams - off);
                    let frames_sent: usize = self.groups[off..off + n].iter().sum();
                    sent += frames_sent;
                    first += frames_sent;
                    off += n;
                    continue;
                }
                let e = io::Error::last_os_error();
                // sendmmsg only errors when the *first* datagram fails.
                let group = self.groups[off];
                match (e.kind(), e.raw_os_error()) {
                    (io::ErrorKind::Interrupted, _) => continue,
                    // Backpressure: the rest of the burst is dropped,
                    // exactly what a per-frame `send_frame` loop would
                    // report.
                    (io::ErrorKind::WouldBlock, _) => break,
                    // A grouped datagram the path cannot take whole (a
                    // segment over the MTU, or egress without checksum
                    // offload: `EIO`, which also ends grouping here) goes
                    // out frame by frame, never dropped for its grouping.
                    (_, Some(code @ (EMSGSIZE | EINVAL | EIO))) if group > 1 => {
                        if code == EIO {
                            self.gso = false;
                        }
                        sent += self.send_each(&frames[first..first + group])?;
                    }
                    // A transient error drops that datagram's frames; the
                    // rest of the burst goes on.
                    _ if transient_send_error(&e) => {}
                    _ => return Err(e),
                }
                off += 1;
                first += group;
            }
            Ok(sent)
        }

        fn syscalls(&self) -> u64 {
            self.syscalls
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use crate::sockio::{FrameBatch, PacketRx, PacketTx};
    use std::io;
    use std::net::{SocketAddr, ToSocketAddrs};

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "mmsg backend requires Linux")
    }

    /// Stub on non-Linux hosts: no receiver writes past a slot, so the
    /// spill is never mapped and no frame points into it.
    #[derive(Debug, Default)]
    pub(crate) struct Spill {}

    impl Spill {
        pub(crate) fn touch(&mut self) {}

        pub(crate) fn bytes(&self, _at: usize, _len: usize) -> &[u8] {
            unreachable!("no frame lies in the spill off Linux")
        }

        pub(crate) fn bytes_mut(&mut self, _at: usize, _len: usize) -> &mut [u8] {
            unreachable!("no frame lies in the spill off Linux")
        }

        pub(crate) fn release(&mut self) {}
    }

    /// Stub on non-Linux hosts: constructors report `Unsupported`.
    #[derive(Debug)]
    pub struct MmsgRx {}

    impl MmsgRx {
        /// Always fails off Linux.
        pub fn bind(_addr: impl ToSocketAddrs) -> io::Result<Self> {
            Err(unsupported())
        }

        /// Always fails off Linux.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            Err(unsupported())
        }

        /// Never on off Linux.
        pub fn gro(&self) -> bool {
            false
        }
    }

    impl PacketRx for MmsgRx {
        fn fill(&mut self, _batch: &mut FrameBatch) -> io::Result<usize> {
            Err(unsupported())
        }

        fn datagrams(&self) -> u64 {
            0
        }

        fn truncated(&self) -> u64 {
            0
        }
    }

    /// Stub on non-Linux hosts: constructors report `Unsupported`.
    #[derive(Debug)]
    pub struct MmsgTx {}

    impl MmsgTx {
        /// Always fails off Linux.
        pub fn connect(_peer: impl ToSocketAddrs) -> io::Result<Self> {
            Err(unsupported())
        }

        /// Always fails off Linux.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            Err(unsupported())
        }

        /// Always fails off Linux.
        pub fn set_send_buffer(&self, _bytes: usize) -> io::Result<()> {
            Err(unsupported())
        }
    }

    impl PacketTx for MmsgTx {
        fn send_frame(&mut self, _frame: &[u8]) -> io::Result<bool> {
            Err(unsupported())
        }
    }
}

pub(crate) use imp::Spill;
pub use imp::{MmsgRx, MmsgTx};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::sockio::{FrameBatch, PacketRx, PacketTx};

    fn wait_fill(rx: &mut MmsgRx, batch: &mut FrameBatch, want: usize) -> usize {
        let mut got = 0;
        for _ in 0..500 {
            got += rx.fill(batch).expect("recvmmsg burst");
            if got >= want {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn mmsg_pair_moves_bursts_over_loopback() {
        let mut rx = MmsgRx::bind("[::1]:0").expect("bind loopback");
        let addr = rx.local_addr().unwrap();
        let mut tx = MmsgTx::connect(addr).expect("connect loopback");

        let frames: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 32]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(tx.send_frames(&refs).unwrap(), 16, "one burst accepted whole");
        let tx_syscalls = tx.syscalls();
        assert!(tx_syscalls <= 2, "a burst is 1 sendmmsg (saw {tx_syscalls})");

        let mut batch = FrameBatch::new(32, 64);
        assert_eq!(wait_fill(&mut rx, &mut batch, 16), 16, "all frames arrive");
        let received: Vec<&[u8]> = batch.frames().collect();
        for (i, frame) in received.iter().enumerate() {
            assert_eq!(*frame, &frames[i][..], "frame {i} intact and in order");
        }
        // A drained socket reports an empty burst, never a block, and the
        // whole 16-frame burst cost far fewer syscalls than 16.
        batch.clear();
        assert_eq!(rx.fill(&mut batch).unwrap(), 0);
        assert!(rx.syscalls() < 16, "recvmmsg batches ({} syscalls)", rx.syscalls());
    }

    #[test]
    fn mmsg_interops_with_std_sockets() {
        // mmsg TX → a plain std socket and a plain std socket → mmsg RX:
        // it is the same wire format, only the syscall shape differs. The
        // std socket has no `UDP_GRO`, so it reads one frame per datagram.
        let std_rx = std::net::UdpSocket::bind("[::1]:0").unwrap();
        std_rx.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        let mut tx = MmsgTx::connect(std_rx.local_addr().unwrap()).unwrap();
        let frames: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i ^ 0x5a; 24]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(tx.send_frames(&refs).unwrap(), 8);
        let mut buf = [0u8; 64];
        for (i, frame) in frames.iter().enumerate() {
            let len = std_rx.recv(&mut buf).expect("datagram from mmsg");
            assert_eq!(&buf[..len], &frame[..], "frame {i} intact and in order");
        }

        let mut mmsg_rx = MmsgRx::bind("[::1]:0").unwrap();
        let std_tx = std::net::UdpSocket::bind("[::1]:0").unwrap();
        std_tx.connect(mmsg_rx.local_addr().unwrap()).unwrap();
        for frame in &frames {
            assert_eq!(std_tx.send(frame).unwrap(), frame.len());
        }
        let mut batch = FrameBatch::new(16, 64);
        assert_eq!(wait_fill(&mut mmsg_rx, &mut batch, 8), 8);
        let received: Vec<&[u8]> = batch.frames().collect();
        for (i, frame) in received.iter().enumerate() {
            assert_eq!(*frame, &frames[i][..]);
        }
    }

    #[test]
    fn refused_sends_are_drops_not_errors() {
        // A vanished peer surfaces ICMP port-unreachable as
        // ConnectionRefused on a *later* send. The burst must keep going
        // with the refused frames counted as drops (`Ok(n < len)`), never
        // abort the flush mid-batch with an `Err`: not from the grouped
        // `sendmmsg` path, nor from the single-frame path.
        let victim = std::net::UdpSocket::bind("[::1]:0").unwrap();
        let addr = victim.local_addr().unwrap();
        drop(victim);
        let mut tx = MmsgTx::connect(addr).unwrap();
        // Two GSO groups: a run of 24 B closed by a shorter frame, then a
        // run of 32 B.
        let frames: Vec<Vec<u8>> =
            [24, 24, 24, 16, 32, 32, 32, 32].iter().enumerate().map(|(i, &len)| vec![i as u8; len]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let mut saw_drop = false;
        for _ in 0..50 {
            let sent = tx.send_frames(&refs).expect("refused sends are drops, not batch-aborting errors");
            if sent < frames.len() {
                saw_drop = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(saw_drop, "ICMP refusal on loopback reported as drops");
        let mut refused_single = false;
        for _ in 0..50 {
            if !tx.send_frame(&frames[0]).expect("a refused frame is a drop, not an error") {
                refused_single = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(refused_single, "ICMP refusal on the single-frame path reported as a drop");
    }

    #[test]
    fn tiny_sndbuf_forces_partial_send_reported_as_drops() {
        // UDP loopback orphans skbs at xmit, so SO_SNDBUF never back-
        // pressures there. A Unix datagram socketpair charges in-flight
        // skbs to the *sender's* send buffer until the peer reads them —
        // real EAGAIN, deterministic, and lossless for everything the
        // kernel did accept. `sendmmsg`/`recvmmsg` are family-agnostic.
        use std::os::fd::{FromRawFd, IntoRawFd};
        use std::os::unix::net::UnixDatagram;

        let (a, b) = UnixDatagram::pair().expect("socketpair");
        // SAFETY: each raw fd is a valid, owned datagram socket whose
        // ownership moves into exactly one UdpSocket.
        let tx_sock = unsafe { std::net::UdpSocket::from_raw_fd(a.into_raw_fd()) };
        let rx_sock = unsafe { std::net::UdpSocket::from_raw_fd(b.into_raw_fd()) };
        let mut tx = MmsgTx::from_socket(tx_sock).unwrap();
        let mut rx = MmsgRx::from_socket(rx_sock).unwrap();

        // SO_SNDBUF floors at SOCK_MIN_SNDBUF (~4.5 KiB), so a burst of
        // 256 × 1500 B cannot possibly be in flight at once: the kernel
        // must stop mid-burst with a partial send or EAGAIN.
        tx.set_send_buffer(1).expect("shrink send buffer");
        let frames: Vec<Vec<u8>> = (0..=255u8).map(|i| vec![i; 1500]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let sent = tx.send_frames(&refs).expect("partial send is not an error");
        assert!(sent >= 1, "at least the first frame fits the send buffer");
        assert!(sent < 256, "tiny SO_SNDBUF must truncate the burst (sent {sent})");

        // The accepted prefix is exactly frames[..sent], in order.
        let mut batch = FrameBatch::new(256, 2048);
        assert_eq!(rx.fill(&mut batch).unwrap(), sent, "unix dgram is lossless");
        for (i, frame) in batch.frames().enumerate() {
            assert_eq!(frame, &frames[i][..], "partial send resumed in order");
        }

        // Once the peer drained the queue, the suffix goes through: the
        // transport recovered, nothing was poisoned by the EAGAIN.
        let resent = tx.send_frames(&refs[sent..sent + 1]).unwrap();
        assert_eq!(resent, 1);
    }

    /// Sends `frames` through `tx` and checks `rx` gets each one back,
    /// byte-identical and in order.
    fn assert_delivered_in_order(tx: &mut MmsgTx, rx: &mut MmsgRx, frames: &[Vec<u8>]) {
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(tx.send_frames(&refs).unwrap(), frames.len(), "the burst is accepted whole");
        let mut batch = FrameBatch::new(frames.len(), 2048);
        assert_eq!(wait_fill(rx, &mut batch, frames.len()), frames.len(), "every frame arrives");
        for (i, frame) in batch.frames().enumerate() {
            assert_eq!(frame, &frames[i][..], "frame {i} intact and in order");
        }
    }

    #[test]
    fn runs_group_by_the_kernel_segment_rule() {
        use super::imp::{group_len, MAX_GSO_BYTES, MAX_SEGMENTS};
        let frames = |lens: &[usize]| -> Vec<Vec<u8>> { lens.iter().map(|&n| vec![7; n]).collect() };
        let group = |lens: &[usize]| {
            let frames = frames(lens);
            let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
            group_len(&refs)
        };
        assert_eq!(group(&[]), 0);
        assert_eq!(group(&[32]), 1);
        assert_eq!(group(&[32, 32, 32]), 3, "an equal run is one datagram");
        assert_eq!(group(&[32, 32, 24, 24]), 3, "a shorter frame closes the run");
        assert_eq!(group(&[32, 48]), 1, "a longer frame starts a new run");
        assert_eq!(group(&[0, 0]), 1, "empty frames are never grouped");
        assert_eq!(group(&[32, 0]), 1, "an empty frame does not close a run");
        assert_eq!(group(&vec![8; MAX_SEGMENTS + 5]), MAX_SEGMENTS, "segment cap");
        let per_run = MAX_GSO_BYTES / 1400;
        assert_eq!(group(&vec![1400; per_run + 5]), per_run, "byte cap");
        let room = MAX_GSO_BYTES - 1400 * per_run;
        let closed = |closer: usize| [vec![1400; per_run], vec![closer]].concat();
        assert_eq!(group(&closed(room)), per_run + 1, "a shorter closer that fits joins the run");
        assert_eq!(group(&closed(room + 1)), per_run, "one past the byte cap starts the next run");

        // Only grouped datagrams carry a control message, sized by the
        // run's first frame; singletons go out as plain datagrams.
        let mut tx = MmsgTx::connect("[::1]:9").unwrap();
        let frames = frames(&[152, 152, 176, 112, 40, 0, 0, 64, 64]);
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(
            tx.armed(&refs),
            vec![(2, Some(152)), (2, Some(176)), (1, None), (1, None), (1, None), (2, Some(64))]
        );
    }

    #[test]
    fn mixed_length_bursts_arrive_as_the_frames_sent() {
        let mut rx = MmsgRx::bind("[::1]:0").unwrap();
        let mut tx = MmsgTx::connect(rx.local_addr().unwrap()).unwrap();
        // Every rule: equal runs, shorter closers, longer restarts, empty
        // frames, and a run past the segment cap.
        let mut lens = vec![152, 152, 176, 112, 152, 152, 112, 112, 0, 64, 0, 0, 1200, 1200, 64];
        lens.extend([96; 70]);
        lens.extend([32, 2000, 2000, 1999, 1]);
        let frames: Vec<Vec<u8>> =
            lens.iter().enumerate().map(|(i, &n)| (0..n).map(|b| (i * 31 + b) as u8).collect()).collect();
        assert_delivered_in_order(&mut tx, &mut rx, &frames);
        assert!(tx.syscalls() <= 2, "still one sendmmsg per burst (saw {})", tx.syscalls());
    }

    #[test]
    fn runs_over_the_path_mtu_fall_back_to_one_datagram_per_frame() {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
        }
        const IPPROTO_IPV6: i32 = 41;
        const IPV6_MTU: i32 = 24;

        let mut rx = MmsgRx::bind("[::1]:0").unwrap();
        let socket = std::net::UdpSocket::bind("[::1]:0").unwrap();
        socket.connect(rx.local_addr().unwrap()).unwrap();
        let mtu: i32 = 1280;
        // SAFETY: the option value is 4 valid bytes and the length says so.
        let rc =
            unsafe { setsockopt(socket.as_raw_fd(), IPPROTO_IPV6, IPV6_MTU, &mtu as *const i32 as _, 4) };
        assert_eq!(rc, 0, "set IPV6_MTU");
        let mut tx = MmsgTx::from_socket(socket).unwrap();

        // A 1300 B segment plus headers exceeds the 1280 B path MTU: the
        // kernel refuses the GSO datagram, while a plain send fragments.
        let frames: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 1300]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let grouped = tx.armed(&refs) == vec![(8, Some(1300))];
        assert_delivered_in_order(&mut tx, &mut rx, &frames);
        if grouped {
            assert_eq!(tx.syscalls(), 1 + 8, "the refused datagram was re-sent frame by frame");
        }
    }

    /// Frames of the given lengths, each with its own byte pattern.
    fn patterned(lens: &[usize]) -> Vec<Vec<u8>> {
        lens.iter().enumerate().map(|(i, &n)| (0..n).map(|b| (i * 37 + b * 7) as u8).collect()).collect()
    }

    /// Fills `batch` from `rx`, clearing it whenever it is full, until
    /// `want` frames or the deadline; returns every frame read, in order.
    fn drain_frames(rx: &mut MmsgRx, batch: &mut FrameBatch, want: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        for _ in 0..500 {
            if rx.fill(batch).expect("recvmmsg burst") == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            if batch.is_full() || got.len() + batch.len() >= want {
                got.extend(batch.frames().map(<[u8]>::to_vec));
                batch.clear();
            }
            if got.len() >= want {
                break;
            }
        }
        got
    }

    #[test]
    fn gro_is_on_wherever_the_kernel_has_it() {
        let release = std::fs::read_to_string("/proc/sys/kernel/osrelease").expect("kernel release");
        let mut parts = release.trim().split(['.', '-']).map(|p| p.parse::<u32>().unwrap_or(0));
        let (major, minor) = (parts.next().unwrap_or(0), parts.next().unwrap_or(0));
        let rx = MmsgRx::bind("[::1]:0").unwrap();
        if (major, minor) >= (5, 0) {
            assert!(rx.gro(), "Linux {major}.{minor} has UDP_GRO, and the probe must find it");
        }
        // A Unix datagram socket refuses the option and reads one frame
        // per message.
        use std::os::fd::{FromRawFd, IntoRawFd};
        let (a, _b) = std::os::unix::net::UnixDatagram::pair().expect("socketpair");
        // SAFETY: the raw fd is a valid, owned datagram socket whose
        // ownership moves into exactly one UdpSocket.
        let unix = unsafe { std::net::UdpSocket::from_raw_fd(a.into_raw_fd()) };
        assert!(!MmsgRx::from_socket(unix).unwrap().gro());
    }

    #[test]
    fn a_run_of_forty_frames_arrives_as_forty_frames() {
        let mut rx = MmsgRx::bind("[::1]:0").unwrap();
        let mut tx = MmsgTx::connect(rx.local_addr().unwrap()).unwrap();
        let frames = patterned(&[1400; 40]);
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(tx.send_frames(&refs).unwrap(), 40);
        // 56 000 B in one datagram: one frame in the 2 KiB slot, one
        // straddling it and the spill, the rest in the spill. Without
        // GRO (Linux < 5.0) it is 40 datagrams, one per slot.
        let mut batch = FrameBatch::new(if rx.gro() { 4 } else { 40 }, 2048);
        assert_eq!(wait_fill(&mut rx, &mut batch, 40), 40, "every frame arrives");
        assert_eq!(batch.frames().collect::<Vec<_>>(), refs, "intact and in order");
        assert_eq!(rx.truncated(), 0);
        if rx.gro() {
            assert_eq!(rx.datagrams(), 1, "the run crossed the receive path once");
            assert!(batch.len() > batch.capacity(), "one slot held many frames");
        }
        // Clearing hands the spill back; the next burst lands the same.
        batch.clear();
        assert_eq!(tx.send_frames(&refs[..3]).unwrap(), 3);
        assert_eq!(wait_fill(&mut rx, &mut batch, 3), 3);
        assert_eq!(batch.frames().collect::<Vec<_>>(), refs[..3]);
    }

    #[test]
    fn segments_longer_than_a_slot_are_counted_and_their_neighbours_delivered() {
        let mut rx = MmsgRx::bind("[::1]:0").unwrap();
        let mut tx = MmsgTx::connect(rx.local_addr().unwrap()).unwrap();
        // Datagrams [100] [1500, 1500, 1000] [200, 200] into 1 KiB slots:
        // the two 1500 B segments cannot be committed, the 1000 B tail of
        // their datagram and everything around it can.
        let frames = patterned(&[100, 1500, 1500, 1000, 200, 200]);
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(tx.send_frames(&refs).unwrap(), 6);
        let mut batch = FrameBatch::new(8, 1024);
        assert_eq!(wait_fill(&mut rx, &mut batch, 4), 4);
        let kept = [refs[0], refs[3], refs[4], refs[5]];
        assert_eq!(batch.frames().collect::<Vec<_>>(), kept, "the frames around the long ones, in order");
        assert_eq!(rx.truncated(), 2, "counted per frame");
    }

    #[test]
    fn datagrams_with_more_frames_than_slots_all_arrive_in_order() {
        let mut rx = MmsgRx::bind("[::1]:0").unwrap();
        let mut tx = MmsgTx::connect(rx.local_addr().unwrap()).unwrap();
        let mut lens = vec![100; 10];
        lens.extend([300; 5]);
        lens.extend([64, 900, 50]);
        lens.extend([50; 7]);
        lens.extend([1800; 33]);
        let frames = patterned(&lens);
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(tx.send_frames(&refs).unwrap(), frames.len());
        let mut batch = FrameBatch::new(2, 2048);
        let got = drain_frames(&mut rx, &mut batch, frames.len());
        assert_eq!(got, frames, "every frame, in order, through a two-slot batch");
        assert_eq!(rx.truncated(), 0);
        if rx.gro() {
            assert!(rx.datagrams() < frames.len() as u64 / 4, "{} datagrams", rx.datagrams());
        }
    }

    #[test]
    fn datagrams_larger_than_a_slot_are_counted_not_forwarded() {
        let mut rx = MmsgRx::bind("[::1]:0").unwrap();
        let tx = std::net::UdpSocket::bind("[::1]:0").unwrap();
        tx.connect(rx.local_addr().unwrap()).unwrap();
        for frame in [&[1u8; 40][..], &[2; 3000], &[3; 60]] {
            tx.send(frame).unwrap();
        }
        let mut batch = FrameBatch::new(8, 2048);
        assert_eq!(wait_fill(&mut rx, &mut batch, 2), 2, "both small frames arrive");
        assert_eq!(batch.frame(0), &[1; 40]);
        assert_eq!(batch.frame(1), &[3; 60], "the frame after the cut one moved into its slot");
        assert_eq!(rx.truncated(), 1, "the 3000 B datagram is counted");
        batch.clear();
        assert_eq!(rx.fill(&mut batch).unwrap(), 0, "and never delivered");
    }
}
