//! On-page B+-tree node layout.
//!
//! Nodes are (de)serialized to fixed-size pages:
//!
//! ```text
//! leaf:     [tag=1][n: u16][next: u64][ (klen u16)(vlen u16)(key)(val) ]*n
//! internal: [tag=2][n: u16][child: u64]*(n+1) [ (klen u16)(key) ]*n
//! ```
//!
//! `next` is the right-sibling leaf link (encoded via
//! [`crate::page::encode_page_link`]), which gives the sequential leaf scans
//! that posting-list merges rely on.

use bytes::Bytes;

use crate::error::{Result, StorageError};
use crate::page::{decode_page_link, encode_page_link, PageId};

const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

/// Per-entry byte overhead in a leaf (klen + vlen).
pub const LEAF_ENTRY_OVERHEAD: usize = 4;
/// Per-key byte overhead in an internal node (klen).
pub const INTERNAL_KEY_OVERHEAD: usize = 2;
/// Fixed header bytes (tag + count + link field).
pub const NODE_HEADER: usize = 1 + 2 + 8;

/// A decoded B+-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Leaf {
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        next: Option<PageId>,
    },
    Internal {
        /// Separator keys; `keys[i]` is the minimum key reachable via
        /// `children[i + 1]`.
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

impl Node {
    /// A fresh empty leaf.
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
            next: None,
        }
    }

    /// Serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                NODE_HEADER
                    + entries
                        .iter()
                        .map(|(k, v)| LEAF_ENTRY_OVERHEAD + k.len() + v.len())
                        .sum::<usize>()
            }
            Node::Internal { keys, children } => {
                NODE_HEADER
                    + 8 * children.len()
                    + keys
                        .iter()
                        .map(|k| INTERNAL_KEY_OVERHEAD + k.len())
                        .sum::<usize>()
            }
        }
    }

    /// True if this node holds no separator keys / entries.
    pub fn is_underfull(&self, page_size: usize) -> bool {
        self.byte_size() < page_size / 4
    }

    /// Encode into a page-sized buffer.
    pub fn encode(&self, page_size: usize) -> Bytes {
        let mut buf = Vec::with_capacity(page_size.min(self.byte_size()));
        match self {
            Node::Leaf { entries, next } => {
                buf.push(TAG_LEAF);
                buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                buf.extend_from_slice(&encode_page_link(*next).to_le_bytes());
                for (k, v) in entries {
                    buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    buf.extend_from_slice(&(v.len() as u16).to_le_bytes());
                    buf.extend_from_slice(k);
                    buf.extend_from_slice(v);
                }
            }
            Node::Internal { keys, children } => {
                buf.push(TAG_INTERNAL);
                buf.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                // The link field is unused for internal nodes; keep the
                // header layout uniform.
                buf.extend_from_slice(&0u64.to_le_bytes());
                for child in children {
                    buf.extend_from_slice(&child.to_le_bytes());
                }
                for k in keys {
                    buf.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    buf.extend_from_slice(k);
                }
            }
        }
        debug_assert!(buf.len() <= page_size, "node exceeds page: {}", buf.len());
        Bytes::from(buf)
    }

    /// Decode from a page buffer.
    pub fn decode(page: &[u8]) -> Result<Node> {
        let tag = *page.first().ok_or(StorageError::Corrupt("empty page"))?;
        let read_u16 = |pos: usize| -> Result<u16> {
            page.get(pos..)
                .and_then(<[u8]>::first_chunk)
                .map(|b| u16::from_le_bytes(*b))
                .ok_or(StorageError::Corrupt("truncated u16"))
        };
        let read_u64 = |pos: usize| -> Result<u64> {
            page.get(pos..)
                .and_then(<[u8]>::first_chunk)
                .map(|b| u64::from_le_bytes(*b))
                .ok_or(StorageError::Corrupt("truncated u64"))
        };
        let n = read_u16(1)? as usize;
        match tag {
            TAG_LEAF => {
                let next = decode_page_link(read_u64(3)?);
                let mut pos = NODE_HEADER;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let klen = read_u16(pos)? as usize;
                    let vlen = read_u16(pos + 2)? as usize;
                    pos += LEAF_ENTRY_OVERHEAD;
                    let key = page
                        .get(pos..pos + klen)
                        .ok_or(StorageError::Corrupt("truncated key"))?
                        .to_vec();
                    pos += klen;
                    let val = page
                        .get(pos..pos + vlen)
                        .ok_or(StorageError::Corrupt("truncated value"))?
                        .to_vec();
                    pos += vlen;
                    entries.push((key, val));
                }
                Ok(Node::Leaf { entries, next })
            }
            TAG_INTERNAL => {
                let mut pos = NODE_HEADER;
                let mut children = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    children.push(read_u64(pos)?);
                    pos += 8;
                }
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    let klen = read_u16(pos)? as usize;
                    pos += INTERNAL_KEY_OVERHEAD;
                    keys.push(
                        page.get(pos..pos + klen)
                            .ok_or(StorageError::Corrupt("truncated separator"))?
                            .to_vec(),
                    );
                    pos += klen;
                }
                Ok(Node::Internal { keys, children })
            }
            _ => Err(StorageError::Corrupt("unknown node tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let node = Node::Leaf {
            entries: vec![
                (b"alpha".to_vec(), b"1".to_vec()),
                (b"beta".to_vec(), vec![]),
            ],
            next: Some(42),
        };
        let encoded = node.encode(4096);
        assert_eq!(Node::decode(&encoded).unwrap(), node);
        assert_eq!(encoded.len(), node.byte_size());
    }

    #[test]
    fn internal_roundtrip() {
        let node = Node::Internal {
            keys: vec![b"m".to_vec(), b"t".to_vec()],
            children: vec![1, 2, 3],
        };
        let encoded = node.encode(4096);
        assert_eq!(Node::decode(&encoded).unwrap(), node);
        assert_eq!(encoded.len(), node.byte_size());
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node = Node::empty_leaf();
        assert_eq!(Node::decode(&node.encode(4096)).unwrap(), node);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Node::decode(&[]).is_err());
        assert!(Node::decode(&[9, 0, 0]).is_err());
        // Truncated leaf: claims one entry but has no entry bytes.
        let mut buf = vec![TAG_LEAF];
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(Node::decode(&buf).is_err());
    }

    #[test]
    fn underfull_threshold() {
        let node = Node::empty_leaf();
        assert!(node.is_underfull(4096));
        let big = Node::Leaf {
            entries: (0..64).map(|i| (vec![i as u8; 8], vec![0u8; 16])).collect(),
            next: None,
        };
        assert!(!big.is_underfull(4096));
    }
}
