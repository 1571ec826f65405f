//! Length-prefixed binary framing.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! +----------------+--------+------------------+
//! | len: u32 BE    | opcode | body (len-1 B)   |
//! +----------------+--------+------------------+
//! ```
//!
//! `len` counts the opcode byte plus the body, so a body-less frame has
//! `len == 1`. Bodies are UTF-8 JSON (see [`crate::protocol`]); the frame
//! layer itself treats them as opaque bytes. The decoder is incremental —
//! feed it a partially received buffer and it answers "need more bytes"
//! — and defensive: a length prefix past [`MAX_FRAME_BODY`] is rejected
//! before any allocation, so a hostile 4-byte header cannot reserve
//! gigabytes.

use std::fmt;

/// Upper bound on a frame body. Large result sets should flow through a
/// cursor (`Fetch`), not one giant frame.
pub const MAX_FRAME_BODY: usize = 8 * 1024 * 1024;

/// Bytes of frame header preceding the opcode.
pub const HEADER_LEN: usize = 4;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub opcode: u8,
    pub body: Vec<u8>,
}

impl Frame {
    pub fn new(opcode: u8, body: impl Into<Vec<u8>>) -> Frame {
        Frame {
            opcode,
            body: body.into(),
        }
    }

    /// Serialize to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let len = 1 + self.body.len();
        let mut out = Vec::with_capacity(HEADER_LEN + len);
        out.extend_from_slice(&(len as u32).to_be_bytes());
        out.push(self.opcode);
        out.extend_from_slice(&self.body);
        out
    }
}

/// Framing violations. These are fatal for a connection: once the stream
/// position is suspect there is no way to resynchronize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// `len == 0`: a frame must at least carry its opcode.
    EmptyFrame,
    /// Declared body length exceeds [`MAX_FRAME_BODY`].
    TooLarge { declared: usize },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::EmptyFrame => write!(f, "empty frame (length prefix 0)"),
            FrameError::TooLarge { declared } => write!(
                f,
                "frame body of {declared} bytes exceeds the {MAX_FRAME_BODY}-byte limit"
            ),
        }
    }
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a complete frame; the caller drains
///   `consumed` bytes and calls again (frames may be pipelined).
/// * `Ok(None)` — the buffer holds a valid prefix of a frame; read more.
/// * `Err(_)` — the stream is malformed; close the connection.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*header) as usize;
    if len == 0 {
        return Err(FrameError::EmptyFrame);
    }
    let body_len = len - 1;
    if body_len > MAX_FRAME_BODY {
        return Err(FrameError::TooLarge { declared: body_len });
    }
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    let frame = Frame {
        opcode: buf[4],
        body: buf[5..total].to_vec(),
    };
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = Frame::new(7, b"{\"x\":1}".to_vec());
        let wire = frame.encode();
        let (decoded, consumed) = decode(&wire).unwrap().unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn empty_body_frame() {
        let frame = Frame::new(1, Vec::new());
        let wire = frame.encode();
        assert_eq!(wire, vec![0, 0, 0, 1, 1]);
        let (decoded, consumed) = decode(&wire).unwrap().unwrap();
        assert_eq!(decoded, frame);
        assert_eq!(consumed, 5);
    }

    #[test]
    fn partial_frames_ask_for_more() {
        let wire = Frame::new(3, b"abcdef".to_vec()).encode();
        for cut in 0..wire.len() {
            assert_eq!(decode(&wire[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn pipelined_frames_decode_one_at_a_time() {
        let mut wire = Frame::new(1, b"a".to_vec()).encode();
        wire.extend(Frame::new(2, b"bb".to_vec()).encode());
        let (first, used) = decode(&wire).unwrap().unwrap();
        assert_eq!(first.opcode, 1);
        let (second, _) = decode(&wire[used..]).unwrap().unwrap();
        assert_eq!(second.opcode, 2);
    }

    #[test]
    fn zero_length_is_an_error() {
        assert_eq!(decode(&[0, 0, 0, 0, 9]), Err(FrameError::EmptyFrame));
    }

    #[test]
    fn oversized_length_rejected_before_buffering() {
        let mut wire = (u32::MAX).to_be_bytes().to_vec();
        wire.push(1);
        assert!(matches!(decode(&wire), Err(FrameError::TooLarge { .. })));
    }
}
