//! Merge machinery for query processing.
//!
//! [`UnionCursor`] implements the paper's `SL(ti) ∪ LL(ti)` — the logical
//! union of a term's short and long lists in list order — including the
//! Appendix-A cancellation of `REM` tombstones against the long posting they
//! are co-located with.
//!
//! [`MultiMerge`] merges the m per-term unions and yields *candidates*: each
//! distinct `(list position, doc)` with the set of query terms that matched
//! there. Conjunctive queries keep candidates matched by every term;
//! disjunctive queries keep them all. Candidates are produced in global list
//! order (score/chunk descending, then doc ascending), which is what the
//! stopping rules of Algorithms 2 and 3 rely on.

use crate::codec::BlockMeta;
use crate::error::Result;
use crate::long_list::{LongCursor, LongPosting, LongResume};
use crate::multiterm::SeekStats;
use crate::short_list::{Op, PostingPos, ShortCursor, ShortPosting};
use crate::types::DocId;

/// Where a matched posting came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Long,
    ShortAdd,
}

/// A term's posting match within a candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermMatch {
    pub source: Source,
    pub tscore: u16,
}

/// Merge-order key: `(position rank, doc id)`, ascending.
pub type MergeKey = (u64, u32);

/// One posting event from a term's union cursor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnionEvent {
    pub pos: PostingPos,
    pub doc: DocId,
    pub m: TermMatch,
}

impl UnionEvent {
    #[inline]
    pub fn key(&self) -> MergeKey {
        (self.pos.rank(), self.doc.0)
    }
}

/// Owned suspension state of a [`UnionCursor`]: the buffered heads plus the
/// two underlying cursor positions, with no borrow of any store. Captured
/// by `UnionCursor::suspend`; a method's cursor backend turns it back
/// into a live [`UnionCursor`] (see `methods::cursor`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnionResume {
    pub(crate) primed: bool,
    pub(crate) long_head: Option<LongPosting>,
    pub(crate) short_head: Option<ShortPosting>,
    /// Long-cursor position *after* `long_head`.
    pub(crate) long: LongResume,
    /// Key of the last posting pulled from the short cursor (`short_head`'s
    /// key while a head is buffered): resume seeks its successor.
    pub(crate) short_after: Option<(PostingPos, DocId)>,
}

impl UnionResume {
    /// State for a stream that has not been opened yet.
    pub fn fresh() -> UnionResume {
        UnionResume {
            primed: false,
            long_head: None,
            short_head: None,
            long: LongResume::Fresh,
            short_after: None,
        }
    }

    /// The short-side resume key (for rebuilding the short cursor).
    pub fn short_resume_key(&self) -> Option<(PostingPos, DocId)> {
        self.short_after
    }

    /// The long-side resume state (for rebuilding the long cursor).
    pub(crate) fn long_resume(&self) -> &LongResume {
        &self.long
    }
}

/// Union of one term's short and long lists in list order.
pub struct UnionCursor<'a> {
    long: LongCursor<'a>,
    short: ShortCursor<'a>,
    long_head: Option<LongPosting>,
    short_head: Option<ShortPosting>,
    primed: bool,
    /// Key of the last posting pulled from the short cursor.
    short_after: Option<(PostingPos, DocId)>,
}

impl<'a> UnionCursor<'a> {
    /// Combine a long-list cursor and a short-list cursor for one term.
    pub fn new(long: LongCursor<'a>, short: ShortCursor<'a>) -> UnionCursor<'a> {
        UnionCursor {
            long,
            short,
            long_head: None,
            short_head: None,
            primed: false,
            short_after: None,
        }
    }

    /// Rebuild a previously suspended union stream. `long` and `short` must
    /// be cursors positioned according to `resume` (via
    /// `LongListStore::resume_cursor` and
    /// [`crate::short_list::ShortLists::cursor_after`]); the buffered heads
    /// are restored verbatim.
    pub fn resume(
        long: LongCursor<'a>,
        short: ShortCursor<'a>,
        resume: &UnionResume,
    ) -> UnionCursor<'a> {
        UnionCursor {
            long,
            short,
            long_head: resume.long_head,
            short_head: resume.short_head,
            primed: resume.primed,
            short_after: resume.short_after,
        }
    }

    /// Capture this stream's suspension state.
    pub(crate) fn suspend(&self) -> UnionResume {
        UnionResume {
            primed: self.primed,
            long_head: self.long_head,
            short_head: self.short_head,
            long: self.long.suspend(),
            short_after: self.short_after,
        }
    }

    fn prime(&mut self) -> Result<()> {
        if !self.primed {
            self.advance_long()?;
            self.advance_short()?;
            self.primed = true;
        }
        Ok(())
    }

    /// The buffered long-list head, if any (`None` once the long side is
    /// exhausted). Only meaningful after the first event was pulled.
    pub fn long_head(&self) -> Option<LongPosting> {
        self.long_head
    }

    /// Skip metadata of the long cursor's current block (block codec only)
    /// — the per-term upper-bound hook for block-max WAND pruning.
    pub fn long_block_meta(&self) -> Option<BlockMeta> {
        self.long.block_meta()
    }

    /// Blocks the long side skipped undecoded / decoded so far.
    pub fn list_stats(&self) -> SeekStats {
        SeekStats {
            blocks_skipped: self.long.blocks_skipped(),
            blocks_decoded: self.long.blocks_decoded(),
        }
    }

    fn advance_long(&mut self) -> Result<()> {
        self.long_head = self.long.next_posting()?;
        Ok(())
    }

    fn advance_short(&mut self) -> Result<()> {
        self.short_head = self.short.next_posting()?;
        if let Some(p) = self.short_head {
            self.short_after = Some((p.pos, p.doc));
        }
        Ok(())
    }

    /// Next union event in list order. `REM` tombstones cancel the long
    /// posting at the same position and produce no event.
    pub fn next_event(&mut self) -> Result<Option<UnionEvent>> {
        self.prime()?;
        loop {
            match (self.long_head, self.short_head) {
                (None, None) => return Ok(None),
                (Some(l), None) => {
                    let event = UnionEvent {
                        pos: l.pos,
                        doc: l.doc,
                        m: TermMatch {
                            source: Source::Long,
                            tscore: l.tscore,
                        },
                    };
                    self.advance_long()?;
                    return Ok(Some(event));
                }
                (None, Some(s)) => {
                    self.advance_short()?;
                    if s.op == Op::Rem {
                        // Orphan tombstone (its long posting was already
                        // consumed or never existed): emit nothing.
                        continue;
                    }
                    return Ok(Some(UnionEvent {
                        pos: s.pos,
                        doc: s.doc,
                        m: TermMatch {
                            source: Source::ShortAdd,
                            tscore: s.tscore,
                        },
                    }));
                }
                (Some(l), Some(s)) => {
                    let lk = (l.pos.rank(), l.doc.0);
                    let sk = (s.pos.rank(), s.doc.0);
                    if lk < sk {
                        let event = UnionEvent {
                            pos: l.pos,
                            doc: l.doc,
                            m: TermMatch {
                                source: Source::Long,
                                tscore: l.tscore,
                            },
                        };
                        self.advance_long()?;
                        return Ok(Some(event));
                    }
                    if sk < lk {
                        self.advance_short()?;
                        if s.op == Op::Rem {
                            continue;
                        }
                        return Ok(Some(UnionEvent {
                            pos: s.pos,
                            doc: s.doc,
                            m: TermMatch {
                                source: Source::ShortAdd,
                                tscore: s.tscore,
                            },
                        }));
                    }
                    // Same position and doc: the short posting governs.
                    self.advance_long()?;
                    self.advance_short()?;
                    if s.op == Op::Rem {
                        // Content removal: the pair annihilates (App. A.1).
                        continue;
                    }
                    return Ok(Some(UnionEvent {
                        pos: s.pos,
                        doc: s.doc,
                        m: TermMatch {
                            source: Source::ShortAdd,
                            tscore: s.tscore,
                        },
                    }));
                }
            }
        }
    }

    /// Next union event with `doc >= target`, skipping everything before it
    /// — the seeking counterpart of [`UnionCursor::next_event`], sound only
    /// on doc-ordered (Id-position) streams.
    ///
    /// The long side skips whole undecoded blocks via
    /// [`LongCursor::skip_to_doc`]; the short side advances linearly (short
    /// lists are bounded small between merges by design). Skipping is
    /// union-safe: `REM` tombstones are co-located with the long posting
    /// they cancel, so a doc range skipped on both sides drops matched
    /// pairs together, and orphan tombstones are silent anyway.
    pub fn next_event_seek(&mut self, target: DocId) -> Result<Option<UnionEvent>> {
        self.prime()?;
        if self.long_head.is_some_and(|p| p.doc < target) {
            self.long_head = self.long.skip_to_doc(target)?;
        }
        while self.short_head.is_some_and(|p| p.doc < target) {
            self.advance_short()?;
        }
        self.next_event()
    }
}

/// A candidate produced by the m-way merge.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub pos: PostingPos,
    pub doc: DocId,
    /// Per query term (by index): the match at this position, if any.
    pub matches: Vec<Option<TermMatch>>,
}

impl Candidate {
    /// Number of query terms matched here.
    pub fn match_count(&self) -> usize {
        self.matches.iter().filter(|m| m.is_some()).count()
    }

    /// True if every event came from the short lists. Score-update postings
    /// are written to the short lists of *all* of a document's terms, so a
    /// relocated document matches entirely from the short side; mixed
    /// matches mean the document sits at its long-list position.
    pub fn all_short(&self) -> bool {
        self.matches
            .iter()
            .flatten()
            .all(|m| m.source == Source::ShortAdd)
            && self.match_count() > 0
    }
}

/// m-way merge over per-term union cursors, yielding candidates in global
/// list order.
pub struct MultiMerge<'a> {
    streams: Vec<UnionCursor<'a>>,
    heads: Vec<Option<UnionEvent>>,
    primed: bool,
}

impl<'a> MultiMerge<'a> {
    /// Merge the given per-term cursors (one per query term, in query order).
    pub fn new(streams: Vec<UnionCursor<'a>>) -> MultiMerge<'a> {
        let n = streams.len();
        MultiMerge {
            streams,
            heads: vec![None; n],
            primed: false,
        }
    }

    /// Rebuild a suspended merge: `streams` resumed per term, plus the
    /// buffered merge heads captured by `MultiMerge::suspend`.
    pub fn resume(
        streams: Vec<UnionCursor<'a>>,
        heads: Vec<Option<UnionEvent>>,
        primed: bool,
    ) -> MultiMerge<'a> {
        debug_assert_eq!(streams.len(), heads.len());
        MultiMerge {
            streams,
            heads,
            primed,
        }
    }

    /// Capture the merge-level suspension state: per-stream union resumes
    /// plus the buffered heads.
    pub(crate) fn suspend(&self) -> (Vec<UnionResume>, Vec<Option<UnionEvent>>, bool) {
        (
            self.streams.iter().map(UnionCursor::suspend).collect(),
            self.heads.clone(),
            self.primed,
        )
    }

    /// Merge position of the next candidate (its [`PostingPos`]), or `None`
    /// when every stream is exhausted. This is what the query algorithms'
    /// stopping bounds are computed from.
    pub fn peek_pos(&mut self) -> Result<Option<PostingPos>> {
        self.prime()?;
        Ok(self
            .heads
            .iter()
            .flatten()
            .min_by_key(|e| e.key())
            .map(|e| e.pos))
    }

    fn prime(&mut self) -> Result<()> {
        if !self.primed {
            for (i, stream) in self.streams.iter_mut().enumerate() {
                self.heads[i] = stream.next_event()?;
            }
            self.primed = true;
        }
        Ok(())
    }

    /// Next candidate (any match count), or `None` when all lists are
    /// exhausted.
    pub fn next_candidate(&mut self) -> Result<Option<Candidate>> {
        self.prime()?;
        let min_key = self.heads.iter().flatten().map(|e| e.key()).min();
        let Some(min_key) = min_key else {
            return Ok(None);
        };
        let mut matches = vec![None; self.streams.len()];
        let mut pos = PostingPos::Id;
        let mut doc = DocId(0);
        for (i, slot) in matches.iter_mut().enumerate() {
            if let Some(event) = self.heads[i] {
                if event.key() == min_key {
                    *slot = Some(event.m);
                    pos = event.pos;
                    doc = event.doc;
                    self.heads[i] = self.streams[i].next_event()?;
                }
            }
        }
        Ok(Some(Candidate { pos, doc, matches }))
    }

    /// Next candidate matched by **every** stream, leapfrogging over docs
    /// that provably cannot be full matches. Sound only on doc-ordered
    /// (Id-position) streams of a conjunctive query: lagging streams are
    /// seeked with [`UnionCursor::next_event_seek`] to the largest buffered
    /// head doc, so whole undecoded blocks of the long lists are skipped.
    ///
    /// Returns `None` — and drains the buffered heads so
    /// [`MultiMerge::peek_pos`] agrees — as soon as any stream exhausts:
    /// once one term has no postings left, no further full match exists.
    pub fn next_conjunctive_candidate(&mut self) -> Result<Option<Candidate>> {
        self.prime()?;
        loop {
            if self.heads.iter().any(|h| h.is_none()) {
                // Remaining buffered events cannot participate in a full
                // match; drop them so exhaustion is visible to peek_pos.
                self.heads.iter_mut().for_each(|h| *h = None);
                return Ok(None);
            }
            let Some(target) = self.heads.iter().flatten().map(|e| e.doc).max() else {
                // No streams at all (empty conjunction): nothing to match.
                return Ok(None);
            };
            let mut aligned = true;
            for (stream, head) in self.streams.iter_mut().zip(self.heads.iter_mut()) {
                if head.is_some_and(|e| e.doc < target) {
                    *head = stream.next_event_seek(target)?;
                    aligned = false;
                }
            }
            if aligned {
                // Every head sits at `target`: the regular merge pulls them
                // all into one full-match candidate.
                return self.next_candidate();
            }
        }
    }

    /// Aggregated long-list block skip/decode counters across every stream.
    pub fn list_stats(&self) -> SeekStats {
        self.streams
            .iter()
            .map(|s| s.list_stats())
            .fold(SeekStats::default(), |acc, s| acc + s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::long_list::{ListFormat, LongListStore};
    use crate::short_list::{ShortLists, ShortOrder};
    use crate::types::TermId;
    use std::sync::Arc;
    use svr_storage::{MemDisk, Store};
    use svr_text::postings::{ChunkGroup, TermScoredPosting};

    fn fixtures() -> (LongListStore, ShortLists) {
        let store = Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 64));
        let store2 = Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 64));
        (
            LongListStore::new(
                store,
                ListFormat::Chunked { with_scores: false },
                crate::codec::CodecKind::Legacy,
            ),
            ShortLists::create(store2, ShortOrder::ByChunkDesc).unwrap(),
        )
    }

    fn set_chunked(lls: &LongListStore, term: u32, groups: &[(u32, &[u32])]) {
        let groups: Vec<ChunkGroup> = groups
            .iter()
            .map(|&(cid, docs)| ChunkGroup {
                cid,
                postings: docs
                    .iter()
                    .map(|&d| TermScoredPosting {
                        doc: DocId(d),
                        tscore: 0,
                    })
                    .collect(),
            })
            .collect();
        lls.put_chunked_list(TermId(term), &groups).unwrap();
    }

    fn drain(mut u: UnionCursor<'_>) -> Vec<(PostingPos, u32, Source)> {
        let mut out = Vec::new();
        while let Some(e) = u.next_event().unwrap() {
            out.push((e.pos, e.doc.0, e.m.source));
        }
        out
    }

    #[test]
    fn union_interleaves_short_and_long() {
        let (lls, sls) = fixtures();
        set_chunked(&lls, 1, &[(3, &[10, 20]), (1, &[5])]);
        sls.put(TermId(1), PostingPos::ByChunk(5), DocId(20), Op::Add, 0)
            .unwrap();
        let events = drain(UnionCursor::new(
            lls.cursor(TermId(1)),
            sls.cursor(TermId(1)).unwrap(),
        ));
        assert_eq!(
            events,
            vec![
                (PostingPos::ByChunk(5), 20, Source::ShortAdd),
                (PostingPos::ByChunk(3), 10, Source::Long),
                (PostingPos::ByChunk(3), 20, Source::Long),
                (PostingPos::ByChunk(1), 5, Source::Long),
            ]
        );
    }

    #[test]
    fn rem_cancels_colocated_long_posting() {
        let (lls, sls) = fixtures();
        set_chunked(&lls, 1, &[(3, &[10, 20, 30])]);
        sls.put(TermId(1), PostingPos::ByChunk(3), DocId(20), Op::Rem, 0)
            .unwrap();
        let events = drain(UnionCursor::new(
            lls.cursor(TermId(1)),
            sls.cursor(TermId(1)).unwrap(),
        ));
        assert_eq!(
            events.iter().map(|e| e.1).collect::<Vec<_>>(),
            vec![10, 30],
            "doc 20 must be cancelled"
        );
    }

    #[test]
    fn add_at_same_position_overrides_long() {
        let (lls, sls) = fixtures();
        set_chunked(&lls, 1, &[(3, &[10])]);
        sls.put(TermId(1), PostingPos::ByChunk(3), DocId(10), Op::Add, 42)
            .unwrap();
        let mut u = UnionCursor::new(lls.cursor(TermId(1)), sls.cursor(TermId(1)).unwrap());
        let e = u.next_event().unwrap().unwrap();
        assert_eq!(e.m.source, Source::ShortAdd);
        assert_eq!(e.m.tscore, 42);
        assert!(u.next_event().unwrap().is_none(), "no duplicate event");
    }

    #[test]
    fn orphan_rem_is_silent() {
        let (lls, sls) = fixtures();
        set_chunked(&lls, 1, &[(3, &[10])]);
        sls.put(TermId(1), PostingPos::ByChunk(9), DocId(99), Op::Rem, 0)
            .unwrap();
        let events = drain(UnionCursor::new(
            lls.cursor(TermId(1)),
            sls.cursor(TermId(1)).unwrap(),
        ));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1, 10);
    }

    #[test]
    fn multi_merge_conjunctive_alignment() {
        let (lls, sls) = fixtures();
        // Term 1: docs 10, 20 in chunk 3. Term 2: docs 20, 30 in chunk 3.
        set_chunked(&lls, 1, &[(3, &[10, 20])]);
        set_chunked(&lls, 2, &[(3, &[20, 30])]);
        let streams = vec![
            UnionCursor::new(lls.cursor(TermId(1)), sls.cursor(TermId(1)).unwrap()),
            UnionCursor::new(lls.cursor(TermId(2)), sls.cursor(TermId(2)).unwrap()),
        ];
        let mut merge = MultiMerge::new(streams);
        let mut full_matches = Vec::new();
        let mut all = Vec::new();
        while let Some(c) = merge.next_candidate().unwrap() {
            if c.match_count() == 2 {
                full_matches.push(c.doc.0);
            }
            all.push(c.doc.0);
        }
        assert_eq!(full_matches, vec![20]);
        assert_eq!(all, vec![10, 20, 30], "union in doc order within the chunk");
    }

    #[test]
    fn multi_merge_orders_across_chunks() {
        let (lls, sls) = fixtures();
        set_chunked(&lls, 1, &[(5, &[50]), (2, &[1])]);
        set_chunked(&lls, 2, &[(4, &[7])]);
        let streams = vec![
            UnionCursor::new(lls.cursor(TermId(1)), sls.cursor(TermId(1)).unwrap()),
            UnionCursor::new(lls.cursor(TermId(2)), sls.cursor(TermId(2)).unwrap()),
        ];
        let mut merge = MultiMerge::new(streams);
        let mut order = Vec::new();
        while let Some(c) = merge.next_candidate().unwrap() {
            match c.pos {
                PostingPos::ByChunk(cid) => order.push((cid, c.doc.0)),
                _ => unreachable!(),
            }
        }
        assert_eq!(order, vec![(5, 50), (4, 7), (2, 1)]);
    }

    #[test]
    fn candidate_all_short_classification() {
        let c = Candidate {
            pos: PostingPos::ByChunk(3),
            doc: DocId(1),
            matches: vec![
                Some(TermMatch {
                    source: Source::ShortAdd,
                    tscore: 0,
                }),
                Some(TermMatch {
                    source: Source::ShortAdd,
                    tscore: 0,
                }),
            ],
        };
        assert!(c.all_short());
        let mixed = Candidate {
            matches: vec![
                Some(TermMatch {
                    source: Source::ShortAdd,
                    tscore: 0,
                }),
                Some(TermMatch {
                    source: Source::Long,
                    tscore: 0,
                }),
            ],
            ..c.clone()
        };
        assert!(!mixed.all_short());
        let none = Candidate {
            matches: vec![None, None],
            ..c
        };
        assert!(!none.all_short());
    }
}
