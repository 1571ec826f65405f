//! Multi-term query engine: seeking and block-max WAND top-k.
//!
//! The merge executor of [`crate::cursor`] evaluates multi-term queries by
//! *exhaustively* unioning every term's posting stream. That is the only
//! sound strategy for the score- and chunk-ordered methods (their lists are
//! not doc-ordered, so there is nothing to seek on), but the doc-ordered
//! methods — ID and ID-TermScore, whose long lists are `Id`-format and
//! ascend strictly by doc id — admit the classic skipping optimizations
//! from the inverted-index literature (Pibiri & Venturini, *Techniques for
//! Inverted Index Compression*):
//!
//! * **Seeking**: [`UnionCursor::next_event_seek`] delivers a term's next
//!   `SL ∪ LL` event with `doc >= target` without delivering (for the
//!   block codec: without even *decoding*) what lies in between, preserving
//!   `REM`-tombstone cancellation. The long side seeks with
//!   [`LongCursor::skip_to_doc`](crate::long_list::LongCursor::skip_to_doc)
//!   via the per-block `max_doc` skip metadata
//!   ([`crate::codec::BlockMeta`]); the short side advances linearly
//!   (short lists are bounded small between merges by design).
//! * **Leapfrog intersection** (AND): repeatedly seek every stream to the
//!   largest buffered head doc; a doc survives iff all streams land on it.
//!   Docs skipped in between are absent from at least one stream, so they
//!   could never satisfy the conjunction — skipping them is exact, not an
//!   approximation.
//! * **Score-accumulating union** (OR): doc-at-a-time merge of the live
//!   heads, summing the matched terms' `idf·ts` contributions per doc.
//! * **Block-max WAND pruning** (`wand_topk`): a [`TopKHeap`] maintains
//!   the running threshold θ = score of the current k-th result. Before
//!   resolving a pivot doc, the executor computes an upper bound on the
//!   combined score of *any* document in the current block window and, when
//!   that bound falls strictly below θ, seeks every stream past the window
//!   — whole blocks are skipped without decoding their payloads.
//!
//! ## Bound safety (why results are bit-identical to exhaustive)
//!
//! A document `d` is only skipped when `ub < θ` strictly, where
//!
//! ```text
//! ub = combine(svr_ub, Σᵢ idfᵢ · tsᵢ_ub)
//! ```
//!
//! * `svr_ub` is a **monotone** upper bound on every Score-table entry
//!   (maintained with `fetch_max` on each write, recomputed at reopen), so
//!   `d`'s SVR component is ≤ `svr_ub` even after arbitrary score churn;
//! * `tsᵢ_ub` bounds term `i`'s quantized term score over the window: the
//!   current block's `max_tscore` (valid through its `max_doc`, because Id
//!   lists ascend — every later block holds strictly larger doc ids) maxed
//!   with the term's short-list bound (valid globally) and with the
//!   already-delivered head event's exact term score — the stream's
//!   internal buffers sit one posting *past* the delivered head, so the
//!   block/short bounds alone would not cover it. Streams without block
//!   metadata (legacy codec) contribute the loose bound 1.0, which simply
//!   disables score-based skipping for them;
//! * `combine(svr, ts) = svr + w·ts` is monotone in both arguments
//!   (`w = term_weight ≥ 0`).
//!
//! Hence `score(d) ≤ ub < θ`. The heap's tie-break prefers *lower* doc ids,
//! but a skipped doc loses against every retained hit on score alone
//! (strictly below θ = the k-th score), so the final top-k set — and with
//! it [`TopKHeap::into_ranked`]'s deterministic order — is exactly what an
//! exhaustive evaluation produces. θ only grows during the scan, so a
//! skip decision never invalidates retroactively.
//!
//! The window end is `min` over streams of how far each per-stream bound is
//! valid (`block max_doc`, or unbounded for exhausted/metadata-less
//! streams); when every bound is global and still below θ, no remaining doc
//! can qualify and the scan stops outright.
//!
//! ## Cursors and pagination
//!
//! The one-shot `wand_topk` path requires `k` up front (θ needs a full
//! heap). The any-k cursor executor cannot use score pruning — a cursor may
//! be drained past any k — but conjunctive cursors on doc-ordered methods
//! still leapfrog ([`crate::merge::MultiMerge::next_conjunctive_candidate`])
//! through the same [`UnionCursor::next_event_seek`], so block skipping and
//! exact suspend/resume (`open_cursor`/`next_batch`) compose: any batch
//! schedule reproduces the one-shot ranking bit-for-bit.

use std::ops::Add;
use std::sync::atomic::{AtomicU64, Ordering};

use svr_text::unquantize_term_score;

use crate::cursor::CursorBackend;
use crate::error::Result;
use crate::heap::TopKHeap;
use crate::merge::{Candidate, UnionCursor, UnionEvent};
use crate::short_list::PostingPos;
use crate::types::{DocId, Query, QueryMode, SearchHit};

/// Per-query block skip/decode counters, surfaced through EXPLAIN and the
/// server's `Info` payload so WAND pruning effectiveness is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeekStats {
    /// Blocks skipped without decoding their payload.
    pub blocks_skipped: u64,
    /// Blocks whose payload was decoded.
    pub blocks_decoded: u64,
}

impl Add for SeekStats {
    type Output = SeekStats;

    fn add(self, rhs: SeekStats) -> SeekStats {
        SeekStats {
            blocks_skipped: self.blocks_skipped + rhs.blocks_skipped,
            blocks_decoded: self.blocks_decoded + rhs.blocks_decoded,
        }
    }
}

/// Cumulative, internally synchronized [`SeekStats`] accumulator — one per
/// method instance, summed across shards by
/// [`SearchIndex::seek_stats`](crate::SearchIndex::seek_stats).
#[derive(Debug, Default)]
pub struct SeekCounters {
    blocks_skipped: AtomicU64,
    blocks_decoded: AtomicU64,
}

impl SeekCounters {
    /// Fold one query's counters in.
    pub fn record(&self, stats: SeekStats) {
        self.blocks_skipped
            .fetch_add(stats.blocks_skipped, Ordering::Relaxed);
        self.blocks_decoded
            .fetch_add(stats.blocks_decoded, Ordering::Relaxed);
    }

    /// Snapshot of the totals since creation.
    pub fn snapshot(&self) -> SeekStats {
        SeekStats {
            blocks_skipped: self.blocks_skipped.load(Ordering::Relaxed),
            blocks_decoded: self.blocks_decoded.load(Ordering::Relaxed),
        }
    }
}

/// Upper bound on a stream's unquantized term score, and the last doc id
/// the bound is valid through (`u32::MAX` = valid for the whole remainder).
fn stream_bound(stream: &UnionCursor<'_>, short_bound: f64) -> (f64, u32) {
    match (stream.long_head(), stream.long_block_meta()) {
        // Long side exhausted: only short postings remain, bounded by the
        // term's short-list maximum for the rest of the scan.
        (None, _) => (short_bound, u32::MAX),
        // Inside a block whose metadata still covers the buffered head:
        // every long posting through `max_doc` scores at most `max_tscore`
        // (later blocks hold strictly larger doc ids).
        (Some(head), Some(meta)) if head.doc.0 <= meta.max_doc => (
            short_bound.max(unquantize_term_score(meta.max_tscore)),
            meta.max_doc,
        ),
        // No usable metadata (legacy codec): the loose bound 1.0 disables
        // score-based skipping for this stream.
        (Some(_), _) => (1.0, u32::MAX),
    }
}

/// One-shot block-max WAND top-k over per-term union streams.
///
/// Evaluates `query` doc-at-a-time — leapfrog intersection for conjunctive
/// mode, score-accumulating union for disjunctive — maintaining a
/// [`TopKHeap`] threshold and skipping block windows whose score upper
/// bound falls strictly below it (see the module docs for the safety
/// argument). `idfs` and `short_bounds` are per-term, aligned with
/// `query.terms`; `svr_ub` is a monotone upper bound on every Score-table
/// entry. Returns the ranked hits plus the aggregated block counters.
pub(crate) fn wand_topk<B: CursorBackend>(
    backend: &B,
    mut streams: Vec<UnionCursor<'_>>,
    query: &Query,
    idfs: &[f64],
    short_bounds: &[f64],
    svr_ub: f64,
) -> Result<(Vec<SearchHit>, SeekStats)> {
    let n = streams.len();
    debug_assert_eq!(n, query.terms.len());
    let conjunctive = query.mode == QueryMode::Conjunctive;
    let mut heap = TopKHeap::new(query.k);
    let mut heads: Vec<Option<UnionEvent>> = Vec::with_capacity(n);
    for s in &mut streams {
        heads.push(s.next_event()?);
    }
    'scan: loop {
        // Pivot: the next doc that could qualify.
        let target = if conjunctive {
            let mut max: Option<DocId> = None;
            for head in &heads {
                match head {
                    None => break 'scan, // a term ran out: no more matches
                    Some(e) => max = Some(max.map_or(e.doc, |m: DocId| m.max(e.doc))),
                }
            }
            match max {
                Some(d) => d,
                None => break,
            }
        } else {
            match heads.iter().flatten().map(|e| e.doc).min() {
                Some(d) => d,
                None => break,
            }
        };

        // Leapfrog: align lagging streams on the pivot.
        if conjunctive {
            let mut aligned = true;
            for (stream, head) in streams.iter_mut().zip(heads.iter_mut()) {
                if head.is_some_and(|e| e.doc < target) {
                    *head = stream.next_event_seek(target)?;
                    aligned = false;
                }
            }
            if !aligned {
                continue; // re-derive the pivot from the new heads
            }
        }

        // Block-max pruning: with a full heap, skip the whole current block
        // window when nothing in it can beat the k-th score.
        if let Some(theta) = heap.min_score() {
            let mut ts_ub = 0.0;
            let mut window_end = u32::MAX;
            for (i, head) in heads.iter().enumerate() {
                let Some(e) = head else {
                    continue; // disjunctive: exhausted stream contributes 0
                };
                // The stream's internal buffers sit one posting *past* the
                // delivered head event, so `stream_bound` alone does not
                // cover `e` — max in its exact term score explicitly.
                let (bound, end) = stream_bound(&streams[i], short_bounds[i]);
                let bound = bound.max(unquantize_term_score(e.m.tscore));
                ts_ub += idfs.get(i).copied().unwrap_or(0.0) * bound;
                window_end = window_end.min(end);
            }
            if backend.combine(svr_ub, ts_ub) < theta {
                if window_end == u32::MAX {
                    // Every per-stream bound is global: nothing left can
                    // enter the heap.
                    break;
                }
                if window_end >= target.0 {
                    let beyond = DocId(window_end + 1);
                    for (stream, head) in streams.iter_mut().zip(heads.iter_mut()) {
                        if head.is_some_and(|e| e.doc < beyond) {
                            *head = stream.next_event_seek(beyond)?;
                        }
                    }
                    continue;
                }
            }
        }

        // Resolve the pivot exactly, mirroring the cursor executor.
        let mut matches = vec![None; n];
        for (slot, head) in matches.iter_mut().zip(heads.iter()) {
            if let Some(e) = head {
                if e.doc == target {
                    *slot = Some(e.m);
                }
            }
        }
        let candidate = Candidate {
            pos: PostingPos::Id,
            doc: target,
            matches,
        };
        let required = if conjunctive { n } else { 1 };
        if candidate.match_count() >= required && !backend.is_deleted(target) {
            if let Some(score) = backend.resolve(&candidate, idfs)? {
                heap.add(target, score);
            }
        }

        // Advance every stream positioned at the pivot.
        for (stream, head) in streams.iter_mut().zip(heads.iter_mut()) {
            if head.is_some_and(|e| e.doc == target) {
                *head = stream.next_event()?;
            }
        }
    }
    let stats = streams
        .iter()
        .map(|s| s.list_stats())
        .fold(SeekStats::default(), |acc, s| acc + s);
    backend.record_stats(stats);
    Ok((heap.into_ranked(), stats))
}
