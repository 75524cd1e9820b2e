//! Length-prefixed frame capture files — the external packet source for
//! the runtime's ring front-end.
//!
//! The paper's lab replays captures with `trafgen`/`tcpreplay`; this
//! module is the equivalent for the reproduction: a trivial binary format
//! any generator in this crate can write and the worker pool's
//! `enqueue_bytes_all` can replay (see `examples/replay.rs`).
//!
//! ## Format
//!
//! A capture is the 8-byte magic `SRV6CAP1`, then one record per frame:
//!
//! ```text
//! u64 LE  timestamp_ns   (capture clock of the frame)
//! u32 LE  frame length   (bytes, ≤ MAX_FRAME_LEN)
//! [u8]    frame bytes
//! ```
//!
//! Readers hand frames out through a caller-owned reusable buffer
//! ([`CaptureReader::next_frame`]), so replaying a long capture performs
//! one allocation per *capture*, not per frame — the shape the pool's
//! zero-allocation byte-ingestion path wants to be fed with.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// File magic identifying a frame capture.
pub const CAPTURE_MAGIC: &[u8; 8] = b"SRV6CAP1";

/// Upper bound on a single frame's length — anything larger than a jumbo
/// frame is a corrupt record, not a packet.
pub const MAX_FRAME_LEN: usize = 64 * 1024;

/// Writes a frame capture to any `io::Write` sink.
pub struct CaptureWriter<W: Write> {
    sink: W,
    frames: u64,
}

impl CaptureWriter<BufWriter<File>> {
    /// Creates a capture file at `path` (buffered).
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        CaptureWriter::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> CaptureWriter<W> {
    /// Starts a capture on `sink` by writing the magic.
    pub fn new(mut sink: W) -> io::Result<Self> {
        sink.write_all(CAPTURE_MAGIC)?;
        Ok(CaptureWriter { sink, frames: 0 })
    }

    /// Appends one frame observed at `timestamp_ns`.
    pub fn write_frame(&mut self, timestamp_ns: u64, frame: &[u8]) -> io::Result<()> {
        if frame.len() > MAX_FRAME_LEN {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME_LEN"));
        }
        self.sink.write_all(&timestamp_ns.to_le_bytes())?;
        self.sink.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.sink.write_all(frame)?;
        self.frames += 1;
        Ok(())
    }

    /// Frames written so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Flushes and returns the sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Reads a frame capture from any `io::Read` source.
pub struct CaptureReader<R: Read> {
    source: R,
    frames: u64,
}

impl CaptureReader<BufReader<File>> {
    /// Opens the capture file at `path` (buffered).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        CaptureReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> CaptureReader<R> {
    /// Starts reading from `source`, validating the magic.
    pub fn new(mut source: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic)?;
        if &magic != CAPTURE_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not an SRV6CAP1 capture"));
        }
        Ok(CaptureReader { source, frames: 0 })
    }

    /// Reads the next frame into `frame` (cleared and refilled — reuse one
    /// buffer across the whole replay) and returns its capture timestamp;
    /// `None` at a clean end of file, i.e. only when no byte of a next
    /// record is left. A truncated or oversized record is an error, never a
    /// silent partial frame.
    pub fn next_frame(&mut self, frame: &mut Vec<u8>) -> io::Result<Option<u64>> {
        let mut timestamp = [0u8; 8];
        let mut filled = 0;
        while filled < timestamp.len() {
            match self.source.read(&mut timestamp[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "capture record truncated inside its timestamp",
                    ))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut len = [0u8; 4];
        self.source.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME_LEN"));
        }
        frame.clear();
        frame.resize(len, 0);
        self.source.read_exact(frame)?;
        self.frames += 1;
        Ok(Some(u64::from_le_bytes(timestamp)))
    }

    /// Frames read so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

/// Convenience: writes `frames` (timestamp, bytes) to a capture file.
pub fn write_capture<'a>(
    path: impl AsRef<Path>,
    frames: impl IntoIterator<Item = (u64, &'a [u8])>,
) -> io::Result<u64> {
    let mut writer = CaptureWriter::create(path)?;
    for (timestamp_ns, frame) in frames {
        writer.write_frame(timestamp_ns, frame)?;
    }
    let written = writer.frames();
    writer.finish()?;
    Ok(written)
}

/// Convenience: reads a whole capture file into owned frames (tests and
/// small captures; replay loops should use [`CaptureReader::next_frame`]
/// with a reused buffer instead).
pub fn read_capture(path: impl AsRef<Path>) -> io::Result<Vec<(u64, Vec<u8>)>> {
    let mut reader = CaptureReader::open(path)?;
    let mut out = Vec::new();
    let mut frame = Vec::new();
    while let Some(timestamp_ns) = reader.next_frame(&mut frame)? {
        out.push((timestamp_ns, frame.clone()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_frames_and_timestamps() {
        let frames: Vec<(u64, Vec<u8>)> =
            (0..100u64).map(|i| (i * 1_000, vec![i as u8; 40 + (i as usize % 60)])).collect();
        let mut writer = CaptureWriter::new(Vec::new()).unwrap();
        for (ts, frame) in &frames {
            writer.write_frame(*ts, frame).unwrap();
        }
        assert_eq!(writer.frames(), 100);
        let bytes = writer.finish().unwrap();

        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        for (ts, frame) in &frames {
            assert_eq!(reader.next_frame(&mut buf).unwrap(), Some(*ts));
            assert_eq!(&buf, frame);
        }
        assert_eq!(reader.next_frame(&mut buf).unwrap(), None);
        assert_eq!(reader.frames(), 100);
    }

    #[test]
    fn bad_magic_and_truncated_records_error() {
        assert!(CaptureReader::new(&b"NOTACAP1rest"[..]).is_err());
        // A record cut off mid-frame is an error, not a silent None.
        let mut writer = CaptureWriter::new(Vec::new()).unwrap();
        writer.write_frame(7, &[1, 2, 3, 4]).unwrap();
        let bytes = writer.finish().unwrap();
        let truncated = &bytes[..bytes.len() - 2];
        let mut reader = CaptureReader::new(truncated).unwrap();
        let mut buf = Vec::new();
        assert!(reader.next_frame(&mut buf).is_err());
    }

    #[test]
    fn a_record_cut_inside_its_timestamp_is_an_error_not_eof() {
        let mut bytes = CAPTURE_MAGIC.to_vec();
        bytes.extend_from_slice(&[0x11, 0x22, 0x33]);
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        let err = reader.next_frame(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The magic alone is an empty capture.
        let mut reader = CaptureReader::new(&CAPTURE_MAGIC[..]).unwrap();
        assert_eq!(reader.next_frame(&mut Vec::new()).unwrap(), None);
    }

    /// A valid capture cut at every length: the read ends `Ok(None)` exactly
    /// when the cut falls on a record boundary, and with an error
    /// everywhere else — never a panic, never a partial frame.
    #[test]
    fn every_truncation_ends_cleanly_only_at_a_record_boundary() {
        let frames: Vec<(u64, Vec<u8>)> =
            (0..6u64).map(|i| (i << 40 | i, vec![i as u8; i as usize * 7])).collect();
        assert_every_truncation_ends_cleanly(&frames);
    }

    /// The same check on 64 seeded captures of random frames.
    #[test]
    #[ignore = "long fuzz run: cargo test --release -- --ignored"]
    fn every_truncation_ends_cleanly_only_at_a_record_boundary_long() {
        let mut state = 0x5eed_ca97_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..64 {
            let frames: Vec<(u64, Vec<u8>)> = (0..1 + next() % 8)
                .map(|_| (next(), (0..next() % 64).map(|_| next() as u8).collect()))
                .collect();
            assert_every_truncation_ends_cleanly(&frames);
        }
    }

    fn assert_every_truncation_ends_cleanly(frames: &[(u64, Vec<u8>)]) {
        let mut writer = CaptureWriter::new(Vec::new()).unwrap();
        let mut boundaries = vec![CAPTURE_MAGIC.len()];
        for (ts, frame) in frames {
            writer.write_frame(*ts, frame).unwrap();
            boundaries.push(boundaries.last().unwrap() + 12 + frame.len());
        }
        let bytes = writer.finish().unwrap();
        assert_eq!(*boundaries.last().unwrap(), bytes.len());
        let mut buf = Vec::new();
        for cut in 0..=bytes.len() {
            let Ok(mut reader) = CaptureReader::new(&bytes[..cut]) else {
                assert!(cut < CAPTURE_MAGIC.len(), "cut {cut}: the magic was refused");
                continue;
            };
            let mut read = 0;
            let end = loop {
                match reader.next_frame(&mut buf) {
                    Ok(Some(ts)) => {
                        assert_eq!((ts, &buf), (frames[read].0, &frames[read].1), "cut {cut}");
                        read += 1;
                    }
                    other => break other,
                }
            };
            match boundaries.iter().position(|&b| b == cut) {
                Some(records) => {
                    assert_eq!(end.unwrap(), None, "cut {cut}");
                    assert_eq!(read, records, "cut {cut}");
                }
                None => assert!(end.is_err(), "cut {cut} inside a record read as {end:?}"),
            }
        }
    }

    #[test]
    fn oversized_frames_are_refused() {
        let mut writer = CaptureWriter::new(Vec::new()).unwrap();
        assert!(writer.write_frame(0, &vec![0u8; MAX_FRAME_LEN + 1]).is_err());
        // And a forged oversized length on the read side too.
        let mut bytes = CAPTURE_MAGIC.to_vec();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = CaptureReader::new(bytes.as_slice()).unwrap();
        assert!(reader.next_frame(&mut Vec::new()).is_err());
    }

    #[test]
    fn file_helpers_roundtrip() {
        let path = std::env::temp_dir().join("srv6cap_test_roundtrip.cap");
        let frames: Vec<(u64, Vec<u8>)> = (0..10u64).map(|i| (i, vec![0xab; 64])).collect();
        let borrowed: Vec<(u64, &[u8])> = frames.iter().map(|(t, f)| (*t, f.as_slice())).collect();
        assert_eq!(write_capture(&path, borrowed).unwrap(), 10);
        assert_eq!(read_capture(&path).unwrap(), frames);
        let _ = std::fs::remove_file(&path);
    }
}
