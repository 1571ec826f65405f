//! Resumable ranked enumeration — the any-k cursor behind every method.
//!
//! The paper's query procedures (Algorithms 2 and 3) are one-shot top-k
//! algorithms: they scan the merged lists until the heap of k results is
//! secure, then discard all traversal state. This module suspends that
//! state instead, turning each method into a *ranked enumerator* in the
//! style of Tziavelis et al. ("Ranked Enumeration for Database Queries"):
//! [`SearchIndex::open_cursor`](crate::SearchIndex::open_cursor) returns a
//! [`MethodCursor`] and
//! [`SearchIndex::next_batch`](crate::SearchIndex::next_batch) emits the
//! next `n` results in exact rank order, resuming the merge where the
//! previous batch stopped — fetching ranks `k+1..k+n` costs only the
//! incremental list traversal, not a re-run of the whole query.
//!
//! ## How it works
//!
//! A suspended cursor owns, with no borrow of the index:
//!
//! * **per-term stream positions** ([`UnionResume`]): the long-list blob
//!   page + byte offset + decoder state, the short-list B+-tree key, and
//!   the buffered union/merge heads;
//! * a **candidate pool**: every document already resolved to its exact
//!   ranking score but not yet emitted, ordered best-first;
//! * the method's **threshold state**: for the fancy-list methods, the
//!   `remainList` and phase-1 results of Algorithm 3.
//!
//! Each `next_batch` call rebuilds live cursors from the saved positions,
//! then alternates between *emitting* and *scanning*: a pooled candidate is
//! emitted once its score strictly beats the method's upper bound on every
//! not-yet-resolved document (the same bound that drives the paper's
//! stopping rules — `thresholdValueOf(listScore)`, the chunk boundary, or
//! the fancy-list term-score bound); otherwise the merge advances one
//! candidate. Emission therefore never needs to know `k` in advance, and
//! the emitted sequence is exactly the ranking a one-shot query of any
//! depth would produce — a method's default one-shot query is nothing but
//! `open_cursor` + one drain.
//!
//! ## Consistency and staleness
//!
//! Within one `next_batch` call each shard is read under its read lock
//! (see `methods/index.rs`), so each shard's slice of a batch is consistent
//! with a single snapshot. *Between* batches writers may update scores,
//! insert, delete, or merge short lists; the cursor then degrades
//! gracefully rather than failing:
//!
//! * score churn: candidates already pooled keep the score observed when
//!   they were resolved; later batches observe current scores. The emitted
//!   sequence remains duplicate-free, but may interleave old and new
//!   rankings — callers can detect this through the engine's staleness
//!   epoch and re-open.
//! * structural churn (offline merge): long-list page chains are rebuilt,
//!   so a positional resume would chase freed pages. Each shard's slice of
//!   a cursor records the
//!   [`LongListStore::epoch`](crate::long_list::LongListStore::epoch) its
//!   positions belong to; when the next batch finds the epoch moved, the
//!   shard restarts its slice: it re-opens the enumeration on the rebuilt
//!   lists (phase 1 of Algorithm 3 included) and keeps the seen-set, the
//!   unemitted pool and the block counters, so documents already resolved
//!   are neither re-scored nor emitted again. The cost is one re-scan of
//!   the lists' prefix down to where the enumeration stood; in return, if
//!   no score changed in between, the cursor emits exactly what a cursor
//!   that never suspended would.
//!
//! Memory: the pool holds resolved-but-unemitted candidates. For the
//! early-terminating methods that is a small working set proportional to
//! how far the bound forced the scan ahead of the emission point; for the
//! full-scan ID methods the first batch resolves every match (as a
//! one-shot query always did) and later batches emit from the pool for
//! free.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use crate::error::{CoreError, Result};
use crate::heap::ranks_above;
use crate::merge::{Candidate, MultiMerge, UnionCursor, UnionEvent, UnionResume};
use crate::methods::base::MethodBase;
use crate::methods::MethodKind;
use crate::multiterm::SeekStats;
use crate::short_list::PostingPos;
use crate::types::{DocId, Query, QueryMode, Score, SearchHit, TermId};

/// Pool element ordered *best-first* (max-heap): higher score, then lower
/// doc id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Best(SearchHit);

impl Eq for Best {}

impl Ord for Best {
    fn cmp(&self, other: &Self) -> Ordering {
        if ranks_above(&self.0, &other.0) {
            Ordering::Greater
        } else if ranks_above(&other.0, &self.0) {
            Ordering::Less
        } else {
            Ordering::Equal
        }
    }
}

impl PartialOrd for Best {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A suspended ranked enumeration over one index. Create with
/// [`SearchIndex::open_cursor`](crate::SearchIndex::open_cursor), advance
/// with [`SearchIndex::next_batch`](crate::SearchIndex::next_batch) *on the
/// same index* — a cursor is bound to the index that opened it and fails on
/// any other.
pub struct MethodCursor {
    pub(crate) kind: MethodKind,
    /// Process-unique id of the opening index (see `Index::attach`).
    pub(crate) index: u64,
    pub(crate) query: Query,
    /// One suspended enumeration per shard of the opening index (exactly
    /// one for an unsharded index), k-way merged by `next_batch`.
    pub(crate) slots: Vec<ShardSlot>,
}

impl MethodCursor {
    /// The query this cursor enumerates.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The method that opened this cursor.
    pub fn kind(&self) -> MethodKind {
        self.kind
    }

    /// True once every result has been emitted: further batches are empty.
    pub fn is_exhausted(&self) -> bool {
        self.slots
            .iter()
            .all(|s| s.buf.is_empty() && s.state.is_drained())
    }

    /// Cumulative long-list block counters over every batch this cursor has
    /// run, summed across shards.
    pub fn stats(&self) -> SeekStats {
        self.slots
            .iter()
            .fold(SeekStats::default(), |acc, s| acc + s.state.stats)
    }
}

/// One shard's slice of a cursor: the shard's suspended merge plus a buffer
/// of pulled-but-unemitted hits.
pub(crate) struct ShardSlot {
    pub(crate) state: MergeState,
    pub(crate) buf: VecDeque<SearchHit>,
}

/// The owned state of one method instance's suspended enumeration.
pub(crate) struct MergeState {
    /// The long-list store epoch the stream positions belong to.
    pub(crate) epoch: u64,
    /// Per-term stream suspension (aligned with `query.terms`).
    streams: Vec<UnionResume>,
    /// Buffered m-way merge heads.
    heads: Vec<Option<UnionEvent>>,
    primed: bool,
    /// Resolved candidates awaiting emission, best-first.
    pool: BinaryHeap<Best>,
    /// Documents already resolved (pooled or emitted) — never re-scored.
    seen: HashSet<DocId>,
    /// All streams exhausted; only the pool remains.
    exhausted: bool,
    /// Per-term IDF weights (empty for the SVR-only methods).
    pub(crate) idfs: Vec<f64>,
    /// Algorithm 3 `remainList`: docs found in *some* fancy lists with
    /// their known `idf·ts` contributions, not yet met in phase 2.
    pub(crate) remain: HashMap<DocId, Vec<Option<f64>>>,
    /// Cumulative block skip/decode counters across this cursor's batches.
    pub(crate) stats: SeekStats,
}

impl MergeState {
    pub(crate) fn new(num_terms: usize, idfs: Vec<f64>) -> MergeState {
        MergeState {
            epoch: 0,
            streams: vec![UnionResume::fresh(); num_terms],
            heads: vec![None; num_terms],
            primed: false,
            pool: BinaryHeap::new(),
            seen: HashSet::new(),
            exhausted: false,
            idfs,
            remain: HashMap::new(),
            stats: SeekStats::default(),
        }
    }

    /// True once the streams are exhausted and the pool is empty: every
    /// further batch is empty.
    pub(crate) fn is_drained(&self) -> bool {
        self.exhausted && self.pool.is_empty()
    }

    /// Admit an exactly-scored result (phase 1 of Algorithm 3).
    pub(crate) fn admit(&mut self, doc: DocId, score: Score) {
        if self.seen.insert(doc) {
            self.pool.push(Best(SearchHit { doc, score }));
        }
    }

    /// Continue this enumeration from `fresh`, the same query re-opened on
    /// rebuilt lists: its streams, threshold state and epoch replace ours,
    /// while the documents already resolved stay resolved — the seen-set,
    /// the unemitted pool and the block counters carry over, and `fresh`
    /// forgets what phase 1 found again among them.
    pub(crate) fn restart(&mut self, fresh: MergeState) {
        let old = std::mem::replace(self, fresh);
        self.pool.retain(|hit| !old.seen.contains(&hit.0.doc));
        self.remain.retain(|doc, _| !old.seen.contains(doc));
        self.pool.extend(old.pool);
        self.seen.extend(old.seen);
        self.stats = old.stats;
    }
}

/// What a method must provide for the generic enumeration executor. The
/// seven methods implement this; everything position- and pool-related is
/// shared in [`run`].
pub(crate) trait CursorBackend {
    /// The shard's shared bookkeeping (tombstones, pool cap).
    fn base(&self) -> &MethodBase;

    /// Build (fresh `UnionResume`) or resume one term's union stream.
    fn stream(&self, term: TermId, resume: &UnionResume) -> Result<UnionCursor<'_>>;

    /// Tombstone check.
    fn is_deleted(&self, doc: DocId) -> bool {
        self.base().is_deleted(doc)
    }

    /// Exact current ranking score of a candidate, or `None` when this
    /// occurrence must be skipped (superseded by a short-list posting, or
    /// the document vanished). Mirrors the per-candidate resolution of the
    /// one-shot algorithms.
    fn resolve(&self, candidate: &Candidate, idfs: &[f64]) -> Result<Option<Score>>;

    /// Upper bound on the *SVR part* of any not-yet-resolved document when
    /// the merge's next event sits at `pos` (`None` = streams exhausted).
    /// This is the method's stopping bound: `+inf` for the full-scan ID
    /// methods, the list score for Score, `thresholdValueOf(listScore)` for
    /// the threshold methods, the chunk drift bound for the chunk methods.
    fn svr_bound(&self, pos: Option<PostingPos>) -> Score;

    /// Upper bound on the raw (un-weighted, un-IDF'd) term score of any
    /// unresolved document for `term` — the fancy-list bound; 0 for
    /// methods without term scores.
    fn term_fancy_bound(&self, term: TermId) -> f64 {
        let _ = term;
        0.0
    }

    /// The combination function `f(svr, Σ idf·ts)`; identity in the second
    /// argument for SVR-only methods.
    fn combine(&self, svr: Score, ts_sum: f64) -> Score {
        let _ = ts_sum;
        svr
    }

    /// Candidate-pool cap (`IndexConfig::cursor_pool_cap`): scanning a
    /// candidate into a pool already holding this many entries evicts the
    /// cursor with [`CoreError::CursorEvicted`]. `0` = unbounded.
    fn pool_cap(&self) -> usize {
        self.base().pool_cap
    }

    /// True when this method's streams are doc-ordered (Id-format long
    /// lists, `ById` short lists) — the precondition for seeking. Enables
    /// leapfrog intersection in the cursor executor and the block-max WAND
    /// one-shot path ([`crate::multiterm::wand_topk`]).
    fn doc_ordered(&self) -> bool {
        false
    }

    /// Fold one query/batch's block counters into the method's cumulative
    /// [`crate::multiterm::SeekCounters`] (no-op for methods without
    /// block-structured long lists).
    fn record_stats(&self, stats: SeekStats) {
        let _ = stats;
    }

    /// Snapshot of the counters [`CursorBackend::record_stats`] folds into
    /// (all zeros for methods that keep none).
    fn seek_stats(&self) -> SeekStats {
        SeekStats::default()
    }
}

/// The enumeration loop: emit pooled candidates while they provably beat
/// everything unresolved; otherwise advance the merge by one candidate.
pub(crate) fn run<B: CursorBackend>(
    backend: &B,
    query: &Query,
    state: &mut MergeState,
    n: usize,
) -> Result<Vec<SearchHit>> {
    let mut out = Vec::with_capacity(n.min(64));
    if n == 0 || (state.exhausted && state.pool.is_empty()) {
        return Ok(out);
    }
    let required = match query.mode {
        QueryMode::Conjunctive => query.terms.len(),
        QueryMode::Disjunctive => 1,
    };
    // Doc-ordered conjunctions leapfrog: seek every stream to the largest
    // buffered head doc instead of delivering the union event-by-event.
    // Docs skipped over are missing from at least one stream, so they can
    // never reach `required` matches — exact for any-k enumeration (score
    // pruning, by contrast, is only sound with a fixed k; see
    // `multiterm::wand_topk`).
    let leapfrog =
        backend.doc_ordered() && query.mode == QueryMode::Conjunctive && query.terms.len() > 1;

    // Rebuild live streams from the suspended positions.
    let streams: Vec<UnionCursor<'_>> = query
        .terms
        .iter()
        .zip(&state.streams)
        .map(|(&t, r)| backend.stream(t, r))
        .collect::<Result<_>>()?;
    let mut merge = MultiMerge::resume(streams, std::mem::take(&mut state.heads), state.primed);

    // Per-term `idf·fancy_bound` contributions, re-read each batch so
    // bounds widened by concurrent insertions are honored.
    let term_bounds: Vec<f64> = query
        .terms
        .iter()
        .enumerate()
        .map(|(i, &t)| state.idfs.get(i).copied().unwrap_or(0.0) * backend.term_fancy_bound(t))
        .collect();
    let global_ts_bound: f64 = term_bounds.iter().sum();

    let result: Result<()> = (|| {
        while out.len() < n {
            let head = if state.exhausted {
                None
            } else {
                merge.peek_pos()?
            };
            if head.is_none() {
                state.exhausted = true;
                // Unmet remainList docs can no longer be resolved: their
                // live postings were consumed (or cancelled) — they do not
                // constrain emission.
                state.remain.clear();
            }

            // Upper bound on anything not yet resolved: unseen docs plus
            // the partially-known remainList entries.
            let svr_ub = backend.svr_bound(head);
            let mut bound = backend.combine(svr_ub, global_ts_bound);
            for known in state.remain.values() {
                let ts_ub: f64 = known
                    .iter()
                    .enumerate()
                    .map(|(i, k)| k.unwrap_or(term_bounds[i]))
                    .sum();
                bound = bound.max(backend.combine(svr_ub, ts_ub));
            }

            if let Some(best) = state.pool.peek() {
                // Strict comparison: on a tie an unresolved doc with a
                // smaller id could still outrank the pooled one.
                if best.0.score > bound {
                    let resolved = best.0;
                    let _ = state.pool.pop();
                    out.push(resolved);
                    continue;
                }
            } else if state.exhausted {
                break;
            }

            // The pool cannot be emitted from yet: scan one candidate.
            let next = if leapfrog {
                merge.next_conjunctive_candidate()?
            } else {
                merge.next_candidate()?
            };
            let Some(candidate) = next else {
                continue; // exhaustion handled at the top of the loop
            };
            state.remain.remove(&candidate.doc);
            if candidate.match_count() < required
                || backend.is_deleted(candidate.doc)
                || state.seen.contains(&candidate.doc)
            {
                continue;
            }
            if let Some(score) = backend.resolve(&candidate, &state.idfs)? {
                let cap = backend.pool_cap();
                if cap > 0 && state.pool.len() >= cap {
                    return Err(CoreError::CursorEvicted { cap });
                }
                state.seen.insert(candidate.doc);
                state.pool.push(Best(SearchHit {
                    doc: candidate.doc,
                    score,
                }));
            }
        }
        Ok(())
    })();

    // Suspend the merge back into the owned state even on error, so a
    // failed batch does not corrupt the cursor. Block counters are
    // per-batch (live cursors start at zero each rebuild), so the delta is
    // simply this batch's totals.
    let delta = merge.list_stats();
    let (streams, heads, primed) = merge.suspend();
    state.streams = streams;
    state.heads = heads;
    state.primed = primed;
    state.stats = state.stats + delta;
    backend.record_stats(delta);
    result?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_orders_by_score_then_doc() {
        let mut pool = BinaryHeap::new();
        for (doc, score) in [(5u32, 10.0), (1, 10.0), (2, 30.0)] {
            pool.push(Best(SearchHit {
                doc: DocId(doc),
                score,
            }));
        }
        assert_eq!(pool.pop().unwrap().0.doc, DocId(2));
        assert_eq!(pool.pop().unwrap().0.doc, DocId(1), "ties: lower doc first");
        assert_eq!(pool.pop().unwrap().0.doc, DocId(5));
    }
}
