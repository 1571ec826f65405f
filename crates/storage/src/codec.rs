//! Order-preserving key encodings and varint coding.
//!
//! All B+-tree keys in the system are byte strings compared
//! lexicographically. The composite keys used by the SVR index methods
//! (e.g. the Chunk method's short-list key `(term, chunk desc, doc asc)`)
//! are built from these primitives so that the tree's natural ordering *is*
//! the query algorithm's merge ordering.

/// Append a `u32` in big-endian (ascending order-preserving).
#[inline]
pub fn push_u32_be(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Append a `u32` so that byte order is *descending* in the value.
#[inline]
pub fn push_u32_desc(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&(!v).to_be_bytes());
}

/// Total-order bit pattern for an `f64`: ascending byte order matches
/// ascending numeric order (IEEE-754 total order; -0.0 < +0.0, NaNs sort to
/// the extremes and are rejected by callers in this system).
#[inline]
pub fn f64_order_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`f64_order_bits`].
#[inline]
pub fn f64_from_order_bits(bits: u64) -> f64 {
    let raw = if bits & (1 << 63) != 0 {
        bits & !(1 << 63)
    } else {
        !bits
    };
    f64::from_bits(raw)
}

/// Append an `f64` in descending key order (the order inverted-list postings
/// are merged in for the Score and Score-Threshold methods).
#[inline]
pub fn push_f64_desc(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&(!f64_order_bits(v)).to_be_bytes());
}

/// The `N` bytes of `buf` at `offset`, as an array: the fixed-width read
/// every caller whose slice is sized by construction goes through. Like
/// slice indexing, panics if `buf` holds fewer than `offset + N` bytes;
/// callers that read untrusted lengths use `first_chunk` instead.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "a slice of length N always converts to [u8; N]"
)]
pub fn read_array<const N: usize>(buf: &[u8], offset: usize) -> [u8; N] {
    buf[offset..offset + N]
        .try_into()
        .expect("slice of length N")
}

/// Read a big-endian `u32` at `offset`.
#[inline]
pub fn read_u32_be(buf: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes(read_array(buf, offset))
}

/// Read a big-endian `u64` at `offset`.
#[inline]
pub fn read_u64_be(buf: &[u8], offset: usize) -> u64 {
    u64::from_be_bytes(read_array(buf, offset))
}

/// Read a descending-encoded `u32` at `offset`.
#[inline]
pub fn read_u32_desc(buf: &[u8], offset: usize) -> u32 {
    !read_u32_be(buf, offset)
}

/// Read a descending-encoded `f64` at `offset`.
#[inline]
pub fn read_f64_desc(buf: &[u8], offset: usize) -> f64 {
    f64_from_order_bits(!read_u64_be(buf, offset))
}

/// Smallest byte string strictly greater than every string with the given
/// prefix, or `None` if the prefix is all `0xff` (no upper bound exists).
/// Used to turn "scan all keys with prefix P" into a half-open key range.
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut out = prefix.to_vec();
    while let Some(last) = out.last_mut() {
        if *last != 0xff {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

// ---------------------------------------------------------------------------
// Varints (LEB128): used by posting-list compression and blob framing.
// ---------------------------------------------------------------------------

/// Append an LEB128-encoded `u64`.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode an LEB128 `u64` at `*pos`, advancing `*pos`. Returns `None` on
/// truncated input.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Number of bytes [`write_varint`] produces for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Append a length-prefixed UTF-8 string (varint length + bytes) — the
/// building block of the versioned catalog records.
pub fn write_string(buf: &mut Vec<u8>, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Read a [`write_string`] value. `None` on truncation or invalid UTF-8.
pub fn read_string(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos.checked_add(len)?;
    let bytes = buf.get(*pos..end)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).ok()
}

/// Append an f64 by bit pattern (exact round-trip).
pub fn write_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a [`write_f64`] value.
pub fn read_f64(buf: &[u8], pos: &mut usize) -> Option<f64> {
    let end = pos.checked_add(8)?;
    let bytes = buf.get(*pos..end)?;
    *pos = end;
    Some(f64::from_le_bytes(bytes.try_into().ok()?))
}

/// Start a versioned record: one leading version byte. Readers dispatch on
/// it ([`record_version`]), so record layouts can evolve without breaking
/// catalogs written by earlier sessions.
pub fn begin_record(buf: &mut Vec<u8>, version: u8) {
    buf.push(version);
}

/// The version byte of a record, advancing `pos` past it.
pub fn record_version(buf: &[u8], pos: &mut usize) -> Option<u8> {
    let v = buf.get(*pos).copied()?;
    *pos += 1;
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_be_preserves_order() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        push_u32_be(&mut a, 5);
        push_u32_be(&mut b, 1000);
        assert!(a < b);
    }

    #[test]
    fn u32_desc_reverses_order() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        push_u32_desc(&mut a, 5);
        push_u32_desc(&mut b, 1000);
        assert!(a > b);
        assert_eq!(read_u32_desc(&a, 0), 5);
    }

    #[test]
    fn f64_order_bits_total_order() {
        let values = [-1e300, -3.5, -0.0, 0.0, 1e-9, 3.5, 87.13, 1e300];
        for w in values.windows(2) {
            assert!(
                f64_order_bits(w[0]) <= f64_order_bits(w[1]),
                "{} !<= {}",
                w[0],
                w[1]
            );
            assert_eq!(f64_from_order_bits(f64_order_bits(w[0])), w[0]);
        }
    }

    #[test]
    fn f64_desc_encoding_reverses() {
        let mut low = Vec::new();
        let mut high = Vec::new();
        push_f64_desc(&mut low, 87.13);
        push_f64_desc(&mut high, 124.2);
        assert!(high < low, "higher scores must sort first");
        assert_eq!(read_f64_desc(&high, 0), 124.2);
    }

    #[test]
    fn prefix_successor_basics() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(&[0x01, 0xff]), Some(vec![0x02]));
        assert_eq!(prefix_successor(&[0xff, 0xff]), None);
        // Successor really is an exclusive bound for the prefix range.
        let succ = prefix_successor(b"ab").unwrap();
        assert!(b"ab".to_vec() < succ);
        assert!(b"ab\xff\xff\xff".to_vec() < succ);
    }

    #[test]
    fn varint_roundtrip_and_len() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len mismatch for {v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncated_returns_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 40);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), None);
    }
}
