//! Posting-list formats.
//!
//! Three long-list layouts, matching §4 and §5.2 of the paper:
//!
//! * **ID lists** (ID / ID-TermScore methods): doc ids ascending, delta +
//!   varint encoded ("the ID method also gets additional compression due to
//!   differential encoding of IDs"). TermScore variants append a 16-bit
//!   quantized term score to each posting.
//! * **Chunked lists** (Chunk / Chunk-TermScore): groups in *descending*
//!   chunk-id order; each group is `[varint cid][varint count]` followed by
//!   `count` delta-varint doc ids (ascending within the chunk). "We only
//!   have to store the CID at the beginning of a chunk, and not with each
//!   posting."
//! * **Score lists** (Score / Score-Threshold): `(f64 score, u32 doc)`
//!   pairs in (score desc, doc asc) order, fixed width — scores must live in
//!   the posting, which is exactly the space overhead Table 1 shows.
//!
//! Encoders live here together with slice decoders; `svr-core` implements
//! page-streaming decoders over the same formats (validated against these).

use svr_storage::codec::{read_array, read_varint, write_varint};

use crate::document::DocId;

/// A posting that carries a quantized term score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermScoredPosting {
    pub doc: DocId,
    pub tscore: u16,
}

/// One chunk group in a chunked list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkGroup {
    pub cid: u32,
    /// `(doc, tscore)` pairs ascending by doc; `tscore` is 0 when the list
    /// does not store term scores.
    pub postings: Vec<TermScoredPosting>,
}

/// Encoders for every long-list format.
pub struct PostingsBuilder;

impl PostingsBuilder {
    /// Encode doc ids (must be strictly ascending) as a delta-varint ID list.
    pub fn encode_id_list(docs: &[DocId], out: &mut Vec<u8>) {
        debug_assert!(
            docs.windows(2).all(|w| w[0] < w[1]),
            "ids must be ascending"
        );
        let mut prev = 0u32;
        for (i, d) in docs.iter().enumerate() {
            let delta = if i == 0 { d.0 } else { d.0 - prev - 1 };
            write_varint(out, u64::from(delta));
            prev = d.0;
        }
    }

    /// Encode `(doc, term score)` postings (ascending by doc) as an ID list
    /// with 16-bit term scores.
    pub fn encode_id_term_list(postings: &[TermScoredPosting], out: &mut Vec<u8>) {
        let mut prev = 0u32;
        for (i, p) in postings.iter().enumerate() {
            let delta = if i == 0 { p.doc.0 } else { p.doc.0 - prev - 1 };
            write_varint(out, u64::from(delta));
            out.extend_from_slice(&p.tscore.to_le_bytes());
            prev = p.doc.0;
        }
    }

    /// Encode chunk groups. Groups must be in descending `cid` order and each
    /// group's postings ascending by doc. `with_scores` selects the
    /// Chunk-TermScore layout.
    pub fn encode_chunked_list(groups: &[ChunkGroup], with_scores: bool, out: &mut Vec<u8>) {
        debug_assert!(groups.windows(2).all(|w| w[0].cid > w[1].cid));
        for group in groups {
            write_varint(out, u64::from(group.cid));
            write_varint(out, group.postings.len() as u64);
            let mut prev = 0u32;
            for (i, p) in group.postings.iter().enumerate() {
                let delta = if i == 0 { p.doc.0 } else { p.doc.0 - prev - 1 };
                write_varint(out, u64::from(delta));
                if with_scores {
                    out.extend_from_slice(&p.tscore.to_le_bytes());
                }
                prev = p.doc.0;
            }
        }
    }

    /// Encode `(score, doc)` postings in (score desc, doc asc) order as a
    /// fixed-width score list. `tscore` is appended when `with_scores`.
    pub fn encode_score_list(postings: &[(f64, DocId, u16)], with_scores: bool, out: &mut Vec<u8>) {
        debug_assert!(postings
            .windows(2)
            .all(|w| w[0].0 > w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1)));
        for (score, doc, tscore) in postings {
            out.extend_from_slice(&score.to_le_bytes());
            out.extend_from_slice(&doc.0.to_le_bytes());
            if with_scores {
                out.extend_from_slice(&tscore.to_le_bytes());
            }
        }
    }

    /// Bytes per posting in a score list.
    pub fn score_posting_width(with_scores: bool) -> usize {
        8 + 4 + if with_scores { 2 } else { 0 }
    }
}

/// Slice decoder for ID lists (with or without term scores).
pub struct IdPostingsIter<'a> {
    buf: &'a [u8],
    pos: usize,
    prev: Option<u32>,
    with_scores: bool,
}

impl<'a> IdPostingsIter<'a> {
    /// Decode `buf` as produced by [`PostingsBuilder::encode_id_list`] /
    /// [`PostingsBuilder::encode_id_term_list`].
    pub fn new(buf: &'a [u8], with_scores: bool) -> Self {
        IdPostingsIter {
            buf,
            pos: 0,
            prev: None,
            with_scores,
        }
    }
}

impl Iterator for IdPostingsIter<'_> {
    type Item = TermScoredPosting;

    fn next(&mut self) -> Option<TermScoredPosting> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let delta = read_varint(self.buf, &mut self.pos)? as u32;
        let doc = match self.prev {
            None => delta,
            Some(prev) => prev + delta + 1,
        };
        self.prev = Some(doc);
        let tscore = if self.with_scores {
            let b = self.buf.get(self.pos..)?.first_chunk()?;
            self.pos += 2;
            u16::from_le_bytes(*b)
        } else {
            0
        };
        Some(TermScoredPosting {
            doc: DocId(doc),
            tscore,
        })
    }
}

/// Slice decoder for chunked lists; yields `(cid, posting)` pairs in stored
/// order (cid descending, doc ascending within a chunk).
pub struct ChunkedPostingsIter<'a> {
    buf: &'a [u8],
    pos: usize,
    with_scores: bool,
    current_cid: u32,
    remaining_in_chunk: u64,
    prev: Option<u32>,
}

impl<'a> ChunkedPostingsIter<'a> {
    /// Decode `buf` as produced by [`PostingsBuilder::encode_chunked_list`].
    pub fn new(buf: &'a [u8], with_scores: bool) -> Self {
        ChunkedPostingsIter {
            buf,
            pos: 0,
            with_scores,
            current_cid: 0,
            remaining_in_chunk: 0,
            prev: None,
        }
    }
}

impl Iterator for ChunkedPostingsIter<'_> {
    type Item = (u32, TermScoredPosting);

    fn next(&mut self) -> Option<(u32, TermScoredPosting)> {
        while self.remaining_in_chunk == 0 {
            if self.pos >= self.buf.len() {
                return None;
            }
            self.current_cid = read_varint(self.buf, &mut self.pos)? as u32;
            self.remaining_in_chunk = read_varint(self.buf, &mut self.pos)?;
            self.prev = None;
        }
        self.remaining_in_chunk -= 1;
        let delta = read_varint(self.buf, &mut self.pos)? as u32;
        let doc = match self.prev {
            None => delta,
            Some(prev) => prev + delta + 1,
        };
        self.prev = Some(doc);
        let tscore = if self.with_scores {
            let b = self.buf.get(self.pos..)?.first_chunk()?;
            self.pos += 2;
            u16::from_le_bytes(*b)
        } else {
            0
        };
        Some((
            self.current_cid,
            TermScoredPosting {
                doc: DocId(doc),
                tscore,
            },
        ))
    }
}

/// Slice decoder for fixed-width score lists; yields `(score, doc, tscore)`.
pub struct ScorePostingsIter<'a> {
    buf: &'a [u8],
    pos: usize,
    with_scores: bool,
}

impl<'a> ScorePostingsIter<'a> {
    /// Decode `buf` as produced by [`PostingsBuilder::encode_score_list`].
    pub fn new(buf: &'a [u8], with_scores: bool) -> Self {
        ScorePostingsIter {
            buf,
            pos: 0,
            with_scores,
        }
    }
}

impl Iterator for ScorePostingsIter<'_> {
    type Item = (f64, DocId, u16);

    fn next(&mut self) -> Option<(f64, DocId, u16)> {
        let width = PostingsBuilder::score_posting_width(self.with_scores);
        let bytes = self.buf.get(self.pos..self.pos + width)?;
        self.pos += width;
        let score = f64::from_le_bytes(read_array(bytes, 0));
        let doc = u32::from_le_bytes(read_array(bytes, 8));
        let tscore = if self.with_scores {
            u16::from_le_bytes(read_array(bytes, 12))
        } else {
            0
        };
        Some((score, DocId(doc), tscore))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_list_roundtrip() {
        let docs: Vec<DocId> = [0u32, 1, 5, 6, 1000, 70_000]
            .iter()
            .map(|&d| DocId(d))
            .collect();
        let mut buf = Vec::new();
        PostingsBuilder::encode_id_list(&docs, &mut buf);
        let decoded: Vec<DocId> = IdPostingsIter::new(&buf, false).map(|p| p.doc).collect();
        assert_eq!(decoded, docs);
        // Dense runs compress to ~1 byte per posting.
        let dense: Vec<DocId> = (0..1000u32).map(DocId).collect();
        let mut dense_buf = Vec::new();
        PostingsBuilder::encode_id_list(&dense, &mut dense_buf);
        assert!(
            dense_buf.len() < 1100,
            "dense ids must compress: {}",
            dense_buf.len()
        );
    }

    #[test]
    fn id_term_list_roundtrip() {
        let postings = vec![
            TermScoredPosting {
                doc: DocId(3),
                tscore: 100,
            },
            TermScoredPosting {
                doc: DocId(4),
                tscore: 65535,
            },
            TermScoredPosting {
                doc: DocId(90),
                tscore: 0,
            },
        ];
        let mut buf = Vec::new();
        PostingsBuilder::encode_id_term_list(&postings, &mut buf);
        let decoded: Vec<_> = IdPostingsIter::new(&buf, true).collect();
        assert_eq!(decoded, postings);
    }

    #[test]
    fn chunked_list_roundtrip() {
        let groups = vec![
            ChunkGroup {
                cid: 9,
                postings: vec![
                    TermScoredPosting {
                        doc: DocId(4),
                        tscore: 7,
                    },
                    TermScoredPosting {
                        doc: DocId(10),
                        tscore: 8,
                    },
                ],
            },
            ChunkGroup {
                cid: 3,
                postings: vec![TermScoredPosting {
                    doc: DocId(1),
                    tscore: 9,
                }],
            },
        ];
        for with_scores in [false, true] {
            let mut buf = Vec::new();
            PostingsBuilder::encode_chunked_list(&groups, with_scores, &mut buf);
            let decoded: Vec<_> = ChunkedPostingsIter::new(&buf, with_scores).collect();
            let want: Vec<(u32, TermScoredPosting)> = groups
                .iter()
                .flat_map(|g| {
                    g.postings.iter().map(move |p| {
                        (
                            g.cid,
                            TermScoredPosting {
                                doc: p.doc,
                                tscore: if with_scores { p.tscore } else { 0 },
                            },
                        )
                    })
                })
                .collect();
            assert_eq!(decoded, want, "with_scores={with_scores}");
        }
    }

    #[test]
    fn score_list_roundtrip() {
        let postings = vec![
            (124.2, DocId(15), 3u16),
            (87.13, DocId(2), 4),
            (87.13, DocId(9), 5),
            (0.5, DocId(1), 6),
        ];
        for with_scores in [false, true] {
            let mut buf = Vec::new();
            PostingsBuilder::encode_score_list(&postings, with_scores, &mut buf);
            assert_eq!(
                buf.len(),
                postings.len() * PostingsBuilder::score_posting_width(with_scores)
            );
            let decoded: Vec<_> = ScorePostingsIter::new(&buf, with_scores).collect();
            for (got, want) in decoded.iter().zip(&postings) {
                assert_eq!(got.0, want.0);
                assert_eq!(got.1, want.1);
                assert_eq!(got.2, if with_scores { want.2 } else { 0 });
            }
        }
    }

    #[test]
    fn empty_lists_decode_empty() {
        assert_eq!(IdPostingsIter::new(&[], false).count(), 0);
        assert_eq!(ChunkedPostingsIter::new(&[], true).count(), 0);
        assert_eq!(ScorePostingsIter::new(&[], false).count(), 0);
    }

    #[test]
    fn chunked_list_with_empty_group_is_skipped() {
        let groups = vec![
            ChunkGroup {
                cid: 5,
                postings: vec![],
            },
            ChunkGroup {
                cid: 2,
                postings: vec![TermScoredPosting {
                    doc: DocId(0),
                    tscore: 0,
                }],
            },
        ];
        let mut buf = Vec::new();
        PostingsBuilder::encode_chunked_list(&groups, false, &mut buf);
        let decoded: Vec<_> = ChunkedPostingsIter::new(&buf, false).collect();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].0, 2);
    }
}
