//! Raw `recvmmsg(2)`/`sendmmsg(2)` socket backend: one syscall per burst.
//!
//! The portable fallback ([`UdpRx`](super::UdpRx)/[`UdpTx`](super::UdpTx))
//! pays one syscall per datagram. This module implements the same
//! [`PacketRx`](super::PacketRx)/[`PacketTx`](super::PacketTx) seam with the kernel's multi-message calls:
//! a whole [`FrameBatch`](super::FrameBatch) is filled by a single `recvmmsg`, and a whole
//! flush window leaves through a single `sendmmsg`. The `mmsghdr`/`iovec`
//! arrays are built once and reused; receive iovecs point directly into
//! the batch's slot storage and transmit iovecs borrow the caller's
//! frames in place, so batching adds zero copies and zero steady-state
//! allocations.
//!
//! The FFI is libc-free in the repository's sense — no `libc` crate, just
//! `extern "C"` declarations of the wrappers std already links, the same
//! pattern as srv6d's `signal(2)` handler and `ebpf-vm::codegen`'s
//! `mmap`/`mprotect`. Non-Linux hosts compile clean: the types exist
//! everywhere, constructors report [`std::io::ErrorKind::Unsupported`], and
//! [`supported`] lets callers fall back without any `cfg` of their own.

/// Whether this host has the mmsg backend (Linux only).
pub fn supported() -> bool {
    cfg!(target_os = "linux")
}

#[cfg(target_os = "linux")]
mod imp {
    use crate::sockio::{transient_send_error, FrameBatch, PacketRx, PacketTx};
    use std::io;
    use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
    use std::os::fd::{AsRawFd, RawFd};
    use std::ptr;

    const MSG_DONTWAIT: i32 = 0x40;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;

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

    extern "C" {
        fn recvmmsg(fd: RawFd, msgvec: *mut Mmsghdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
        fn sendmmsg(fd: RawFd, msgvec: *mut Mmsghdr, vlen: u32, flags: i32) -> i32;
        fn setsockopt(fd: RawFd, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
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

    /// Grows the reused header arrays to hold at least `want` messages.
    /// Only ever allocates on growth, so steady-state bursts of a stable
    /// size never touch the allocator.
    fn ensure_slots(iovs: &mut Vec<IoVec>, hdrs: &mut Vec<Mmsghdr>, want: usize) {
        if iovs.len() < want {
            iovs.resize(want, IoVec { base: ptr::null_mut(), len: 0 });
            hdrs.resize(want, null_mmsghdr());
        }
    }

    /// Points `iovs[..n]`/`hdrs[..n]` at `n` single-iovec messages whose
    /// bases are produced by `base(i)`.
    fn arm_headers(
        iovs: &mut [IoVec],
        hdrs: &mut [Mmsghdr],
        n: usize,
        mut slot: impl FnMut(usize) -> (*mut u8, usize),
    ) {
        let iov_base = iovs.as_mut_ptr();
        for i in 0..n {
            let (base, len) = slot(i);
            iovs[i] = IoVec { base, len };
            let mut hdr = null_mmsghdr();
            // SAFETY: `i < n <= iovs.len()`, so the pointer stays inside
            // the reused iovec array, which outlives the syscall it is
            // handed to (both live in the same Rx/Tx struct).
            hdr.hdr.iov = unsafe { iov_base.add(i) };
            hdr.hdr.iovlen = 1;
            hdrs[i] = hdr;
        }
    }

    /// Batched receive via `recvmmsg(2)`: one syscall fills a whole
    /// [`FrameBatch`], with the kernel scattering each datagram straight
    /// into its slot storage.
    #[derive(Debug)]
    pub struct MmsgRx {
        socket: UdpSocket,
        iovs: Vec<IoVec>,
        hdrs: Vec<Mmsghdr>,
        syscalls: u64,
    }

    // SAFETY: the raw pointers in `iovs`/`hdrs` are only ever written and
    // handed to the kernel inside one `fill` call, against a `FrameBatch`
    // borrowed for that call; between calls they are stale and never
    // dereferenced. The socket itself is `Send`.
    unsafe impl Send for MmsgRx {}

    impl MmsgRx {
        /// Binds `addr` and puts the socket in non-blocking mode.
        pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
            let socket = UdpSocket::bind(addr)?;
            Self::from_socket(socket)
        }

        /// Wraps an already-bound socket (switched to non-blocking).
        pub fn from_socket(socket: UdpSocket) -> io::Result<Self> {
            socket.set_nonblocking(true)?;
            Ok(MmsgRx { socket, iovs: Vec::new(), hdrs: Vec::new(), syscalls: 0 })
        }

        /// The bound local address (useful after binding port 0).
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.socket.local_addr()
        }
    }

    impl PacketRx for MmsgRx {
        fn fill(&mut self, batch: &mut FrameBatch) -> io::Result<usize> {
            let mut got = 0;
            loop {
                let free = batch.capacity() - batch.len();
                if free == 0 {
                    return Ok(got);
                }
                ensure_slots(&mut self.iovs, &mut self.hdrs, free);
                let frame_cap = batch.frame_cap();
                let first = batch.len();
                let storage = batch.storage.as_mut_ptr();
                arm_headers(&mut self.iovs, &mut self.hdrs, free, |i| {
                    // SAFETY: slot `first + i` lies inside the batch's
                    // `capacity * frame_cap` storage because
                    // `first + free == capacity`.
                    (unsafe { storage.add((first + i) * frame_cap) }, frame_cap)
                });
                self.syscalls += 1;
                // SAFETY: every header points at one in-bounds batch slot
                // armed above; the null timeout means "don't wait", and
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
                        io::ErrorKind::WouldBlock => return Ok(got),
                        io::ErrorKind::Interrupted => continue,
                        _ => return Err(e),
                    }
                }
                let n = n as usize;
                for hdr in &self.hdrs[..n] {
                    batch.commit_frame(hdr.len as usize);
                }
                got += n;
                if n < free {
                    // The kernel returned fewer than it had room for: the
                    // queue is drained, no second syscall needed.
                    return Ok(got);
                }
            }
        }

        fn syscalls(&self) -> u64 {
            self.syscalls
        }
    }

    /// Batched transmit via `sendmmsg(2)` over a connected, non-blocking
    /// UDP socket: one syscall drains a whole flush window, with partial
    /// sends resumed where the kernel stopped.
    #[derive(Debug)]
    pub struct MmsgTx {
        socket: UdpSocket,
        iovs: Vec<IoVec>,
        hdrs: Vec<Mmsghdr>,
        syscalls: u64,
    }

    // SAFETY: as for `MmsgRx` — the header pointers borrow the frames
    // passed to one `send_frames` call and are stale between calls.
    unsafe impl Send for MmsgTx {}

    impl MmsgTx {
        /// Binds an ephemeral local socket and connects it to `peer`.
        pub fn connect(peer: impl ToSocketAddrs) -> io::Result<Self> {
            let mut last = None;
            for peer in peer.to_socket_addrs()? {
                let bind_addr: SocketAddr =
                    if peer.is_ipv6() { "[::]:0".parse().unwrap() } else { "0.0.0.0:0".parse().unwrap() };
                match UdpSocket::bind(bind_addr).and_then(|s| {
                    s.connect(peer)?;
                    s.set_nonblocking(true)?;
                    Ok(s)
                }) {
                    Ok(socket) => {
                        return Ok(MmsgTx { socket, iovs: Vec::new(), hdrs: Vec::new(), syscalls: 0 })
                    }
                    Err(e) => last = Some(e),
                }
            }
            Err(last
                .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address to connect to")))
        }

        /// Wraps an already-connected datagram socket (switched to
        /// non-blocking). `sendmmsg` is family-agnostic, so this also
        /// accepts a Unix datagram socket smuggled in as a `UdpSocket` —
        /// the fault-injection tests use that for real backpressure.
        pub fn from_socket(socket: UdpSocket) -> io::Result<Self> {
            socket.set_nonblocking(true)?;
            Ok(MmsgTx { socket, iovs: Vec::new(), hdrs: Vec::new(), syscalls: 0 })
        }

        /// The connected local address.
        pub fn local_addr(&self) -> io::Result<SocketAddr> {
            self.socket.local_addr()
        }

        /// Shrinks the kernel send buffer to roughly `bytes` — a fault
        /// injector for tests: a tiny `SO_SNDBUF` makes `sendmmsg` stop
        /// mid-burst with a partial send or `EAGAIN` on loopback.
        pub fn set_send_buffer(&self, bytes: usize) -> io::Result<()> {
            let val = bytes as i32;
            // SAFETY: optval points at 4 valid bytes and optlen says so.
            let rc = unsafe {
                setsockopt(self.socket.as_raw_fd(), SOL_SOCKET, SO_SNDBUF, &val as *const i32 as *const u8, 4)
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl PacketTx for MmsgTx {
        fn send_frame(&mut self, frame: &[u8]) -> io::Result<bool> {
            // Single frames go through the plain send path — identical
            // drop semantics to `UdpTx`, still one syscall.
            self.syscalls += 1;
            match self.socket.send(frame) {
                Ok(_) => Ok(true),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(false),
                Err(e) if transient_send_error(&e) => Ok(false),
                Err(e) => Err(e),
            }
        }

        fn send_frames(&mut self, frames: &[&[u8]]) -> io::Result<usize> {
            if frames.is_empty() {
                return Ok(0);
            }
            ensure_slots(&mut self.iovs, &mut self.hdrs, frames.len());
            arm_headers(&mut self.iovs, &mut self.hdrs, frames.len(), |i| {
                // The kernel never writes through a send iovec; the cast
                // to *mut is the C API's, not a mutation.
                (frames[i].as_ptr() as *mut u8, frames[i].len())
            });
            let mut sent = 0;
            let mut off = 0;
            while off < frames.len() {
                self.syscalls += 1;
                // SAFETY: headers `off..frames.len()` were armed above and
                // their iovecs borrow `frames`, alive for this whole call.
                let n = unsafe {
                    sendmmsg(
                        self.socket.as_raw_fd(),
                        self.hdrs.as_mut_ptr().add(off),
                        (frames.len() - off) as u32,
                        MSG_DONTWAIT,
                    )
                };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    if e.kind() == io::ErrorKind::WouldBlock {
                        // Backpressure: the rest of the burst is dropped,
                        // exactly what `UdpTx`'s per-frame `Ok(false)`
                        // loop would report.
                        break;
                    }
                    if transient_send_error(&e) {
                        // sendmmsg only errors when the *first* datagram
                        // fails: drop that one and resume with the rest.
                        off += 1;
                        continue;
                    }
                    return Err(e);
                }
                // Partial send: the kernel took the first `n`, resume at
                // the first unsent frame.
                sent += n as usize;
                off += n as usize;
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
    }

    impl PacketRx for MmsgRx {
        fn fill(&mut self, _batch: &mut FrameBatch) -> io::Result<usize> {
            Err(unsupported())
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
        assert!(supported());
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
    fn mmsg_interops_with_std_backend() {
        // mmsg TX → std RX and std TX → mmsg RX: it is the same wire
        // format, only the syscall shape differs.
        let mut std_rx = crate::sockio::UdpRx::bind("[::1]:0").unwrap();
        let mut tx = MmsgTx::connect(std_rx.local_addr().unwrap()).unwrap();
        let frames: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i ^ 0x5a; 24]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        assert_eq!(tx.send_frames(&refs).unwrap(), 8);
        let mut batch = FrameBatch::new(16, 64);
        let mut got = 0;
        for _ in 0..500 {
            got += std_rx.fill(&mut batch).unwrap();
            if got >= 8 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, 8);

        let mut mmsg_rx = MmsgRx::bind("[::1]:0").unwrap();
        let mut std_tx = crate::sockio::UdpTx::connect(mmsg_rx.local_addr().unwrap()).unwrap();
        assert_eq!(std_tx.send_frames(&refs).unwrap(), 8);
        let mut batch = FrameBatch::new(16, 64);
        assert_eq!(wait_fill(&mut mmsg_rx, &mut batch, 8), 8);
        let received: Vec<&[u8]> = batch.frames().collect();
        for (i, frame) in received.iter().enumerate() {
            assert_eq!(*frame, &frames[i][..]);
        }
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
}
