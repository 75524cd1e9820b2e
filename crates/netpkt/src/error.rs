//! Error type shared by all parsers and builders in this crate.

use std::fmt;

/// Errors returned by packet parsing and construction routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The buffer is shorter than the header that was expected at its start.
    Truncated {
        /// Number of bytes that were required.
        needed: usize,
        /// Number of bytes actually available.
        available: usize,
    },
    /// A header field holds a value that the parser cannot accept.
    Malformed(&'static str),
    /// A length field is inconsistent with the rest of the packet.
    BadLength(&'static str),
    /// An SRH TLV walk failed validation.
    BadTlv(&'static str),
    /// A field value was out of the range representable on the wire.
    ValueOutOfRange(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { needed, available } => {
                write!(f, "truncated packet: needed {needed} bytes, have {available}")
            }
            Error::Malformed(what) => write!(f, "malformed header: {what}"),
            Error::BadLength(what) => write!(f, "inconsistent length: {what}"),
            Error::BadTlv(what) => write!(f, "invalid SRH TLV: {what}"),
            Error::ValueOutOfRange(what) => write!(f, "value out of range: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Checks that `buf` holds at least `needed` bytes, returning
/// [`Error::Truncated`] otherwise.
pub fn ensure_len(buf: &[u8], needed: usize) -> Result<()> {
    if buf.len() < needed {
        Err(Error::Truncated { needed, available: buf.len() })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_len_accepts_exact_and_longer() {
        assert!(ensure_len(&[0; 4], 4).is_ok());
        assert!(ensure_len(&[0; 8], 4).is_ok());
    }

    #[test]
    fn ensure_len_rejects_short() {
        let err = ensure_len(&[0; 3], 4).unwrap_err();
        assert_eq!(err, Error::Truncated { needed: 4, available: 3 });
    }

    #[test]
    fn display_is_human_readable() {
        let err = Error::Malformed("bad version");
        assert!(err.to_string().contains("bad version"));
        let err = Error::Truncated { needed: 40, available: 2 };
        assert!(err.to_string().contains("40"));
    }
}
