//! Typed values and their binary codec.

use crate::error::{RelationError, Result};

/// A column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
}

impl Value {
    /// Type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
        }
    }

    /// Numeric view (ints widen to floats); `None` for null/text.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Text view.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Append the binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Decode one value at `*pos`, advancing it.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Value> {
        let corrupt = || RelationError::Storage(svr_storage::StorageError::Corrupt("value"));
        let tag = *buf.get(*pos).ok_or_else(corrupt)?;
        *pos += 1;
        match tag {
            0 => Ok(Value::Null),
            1 => {
                let bytes = buf
                    .get(*pos..)
                    .and_then(<[u8]>::first_chunk)
                    .ok_or_else(corrupt)?;
                *pos += 8;
                Ok(Value::Int(i64::from_le_bytes(*bytes)))
            }
            2 => {
                let bytes = buf
                    .get(*pos..)
                    .and_then(<[u8]>::first_chunk)
                    .ok_or_else(corrupt)?;
                *pos += 8;
                Ok(Value::Float(f64::from_le_bytes(*bytes)))
            }
            3 => {
                let len_bytes = buf
                    .get(*pos..)
                    .and_then(<[u8]>::first_chunk)
                    .ok_or_else(corrupt)?;
                *pos += 4;
                let len = u32::from_le_bytes(*len_bytes) as usize;
                let text = buf.get(*pos..*pos + len).ok_or_else(corrupt)?;
                *pos += len;
                Ok(Value::Text(
                    String::from_utf8(text.to_vec()).map_err(|_| corrupt())?,
                ))
            }
            _ => Err(corrupt()),
        }
    }

    /// Order-preserving key encoding (for primary-key B+-tree keys).
    pub fn encode_key(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_key_into(&mut out);
        out
    }

    /// [`Value::encode_key`] into a caller-provided buffer, so hot loops
    /// (ranked-search row fetches) can reuse one allocation.
    pub fn encode_key_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                // Flip the sign bit so two's-complement sorts correctly.
                out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&svr_storage::codec::f64_order_bits(*f).to_be_bytes());
            }
            Value::Text(s) => {
                out.push(3);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
        }
    }
}

/// Encode a full row.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        v.encode(&mut out);
    }
    out
}

/// Decode a full row.
pub fn decode_row(buf: &[u8]) -> Result<Vec<Value>> {
    let corrupt = || RelationError::Storage(svr_storage::StorageError::Corrupt("row"));
    let n = u16::from_le_bytes(*buf.first_chunk().ok_or_else(corrupt)?) as usize;
    let mut pos = 2;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(Value::decode(buf, &mut pos)?);
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_roundtrip() {
        let row = vec![
            Value::Int(-42),
            Value::Float(3.25),
            Value::Text("golden gate".into()),
            Value::Null,
        ];
        assert_eq!(decode_row(&encode_row(&row)).unwrap(), row);
    }

    #[test]
    fn decode_rejects_truncation() {
        let row = vec![Value::Text("hello".into())];
        let mut bytes = encode_row(&row);
        bytes.truncate(bytes.len() - 2);
        assert!(decode_row(&bytes).is_err());
    }

    #[test]
    fn int_keys_order_correctly() {
        let vals = [-100i64, -1, 0, 1, 500];
        for w in vals.windows(2) {
            assert!(
                Value::Int(w[0]).encode_key() < Value::Int(w[1]).encode_key(),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_i64(), None);
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Text("a".into()).to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
