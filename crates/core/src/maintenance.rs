//! Offline maintenance: merging short lists back into the long lists.
//!
//! "Note also that the short lists will be periodically merged with the
//! long lists bringing down document insertion cost again" (App. A.3). The
//! paper performs this offline and excludes it from the measured operations
//! (§5.1); here it is implemented as a full regeneration of the long lists
//! from the live forward index and Score table — the simplest correct
//! policy, and the natural point to recompute chunk boundaries for the
//! Chunk methods. Lists are re-encoded with the store's **own** codec
//! ([`LongListStore::codec`]): a merge never migrates an index between
//! codecs, so a legacy-format index stays byte-compatible after upgrades.
//!
//! A shard's merge runs inside one [`svr_storage::WalBatch`] over its
//! logged stores (opened by the index body, under the shard's write lock),
//! so it commits once per store: one commit marker, and at the default
//! sync interval one fsync. The short-list and ListScore/ListChunk trees
//! are emptied with [`svr_storage::BTree::clear`], which frees their pages
//! instead of deleting key by key. A crash before the batch seals recovers
//! the whole pre-merge shard.
//!
//! Where the time goes, on the `score_update` benchmark workload (6 000
//! documents, fsync on every commit): with a commit per rewritten list
//! (three: blob, directory row, freed blob) and per cleared key, a merge
//! took ~830 ms; batched, ~80 ms. What remains is inverting the forward
//! index, regrouping and re-encoding every list, and logging a page image
//! per written page — all linear in the corpus, not in the short-list
//! debt.

use std::collections::{HashMap, HashSet};

use svr_text::postings::TermScoredPosting;

use crate::chunk_map::ChunkMap;
use crate::error::Result;
use crate::long_list::{posting_term_score, LongListStore};
use crate::methods::base::MethodBase;
use crate::methods::chunk::group_by_chunk;
use crate::types::{DocId, Score, TermId};

/// Invert the live collection from the forward index, producing per-term
/// postings in doc-id order plus each doc's current score.
#[allow(clippy::type_complexity)]
fn invert_live(
    base: &MethodBase,
) -> Result<(
    HashMap<TermId, Vec<TermScoredPosting>>,
    HashMap<DocId, Score>,
)> {
    let live = base.score_table.live_scores()?;
    let mut inverted: HashMap<TermId, Vec<TermScoredPosting>> = HashMap::new();
    let mut scores = HashMap::with_capacity(live.len());
    for (doc, score) in live {
        scores.insert(doc, score);
        let Some(terms) = base.doc_store.get(doc)? else {
            continue;
        };
        let max_tf = terms.iter().map(|&(_, tf)| tf).max().unwrap_or(0);
        for (term, tf) in terms {
            inverted.entry(term).or_default().push(TermScoredPosting {
                doc,
                tscore: posting_term_score(tf, max_tf),
            });
        }
    }
    // live_scores is doc-ordered, so each term's postings already are too.
    Ok((inverted, scores))
}

/// Clear lists for terms no longer present in the fresh inversion.
fn clear_vanished<'a>(long: &LongListStore, fresh: impl Iterator<Item = &'a TermId>) -> Result<()> {
    let fresh: HashSet<TermId> = fresh.copied().collect();
    for term in long.terms() {
        if !fresh.contains(&term) {
            long.clear_list(term)?;
        }
    }
    Ok(())
}

/// Rebuild ID-ordered long lists (ID / ID-TermScore methods).
pub(crate) fn rebuild_id_lists(base: &MethodBase, long: &LongListStore) -> Result<()> {
    let (inverted, _) = invert_live(base)?;
    clear_vanished(long, inverted.keys())?;
    for (term, postings) in inverted {
        long.put_id_list(term, &postings)?;
    }
    Ok(())
}

/// Rebuild score-ordered long lists (Score-Threshold method) using the
/// *current* scores — after the merge, list scores are exact again.
pub(crate) fn rebuild_score_lists(base: &MethodBase, long: &LongListStore) -> Result<()> {
    let (inverted, scores) = invert_live(base)?;
    clear_vanished(long, inverted.keys())?;
    for (term, postings) in inverted {
        let mut rows: Vec<(f64, DocId, u16)> = postings
            .iter()
            .map(|p| (scores.get(&p.doc).copied().unwrap_or(0.0), p.doc, p.tscore))
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        long.put_score_list(term, &rows)?;
    }
    Ok(())
}

/// Rebuild chunked long lists (Chunk method); returns the new chunk map
/// computed from the live score distribution with the caller's parameters.
pub(crate) fn rebuild_chunked_lists(
    base: &MethodBase,
    long: &LongListStore,
    chunk_ratio: f64,
    min_chunk_docs: usize,
    old_map: ChunkMap,
) -> Result<ChunkMap> {
    let (inverted, scores) = invert_live(base)?;
    let all_scores: Vec<Score> = scores.values().copied().collect();
    let new_map = if all_scores.is_empty() {
        old_map
    } else {
        ChunkMap::from_scores(&all_scores, chunk_ratio, min_chunk_docs)
    };
    clear_vanished(long, inverted.keys())?;
    for (term, postings) in inverted {
        let groups = group_by_chunk(&postings, |doc| {
            new_map.chunk_of(scores.get(&doc).copied().unwrap_or(0.0))
        });
        long.put_chunked_list(term, &groups)?;
    }
    Ok(new_map)
}

/// Rebuild score-ordered long lists with term scores *and* fancy lists
/// (Score-Threshold-TermScore); returns per-term `(minF, complete)` fancy
/// metadata. After the merge, list scores are exact again.
pub(crate) fn rebuild_score_term_lists(
    base: &MethodBase,
    long: &LongListStore,
    fancy: &LongListStore,
    fancy_size: usize,
) -> Result<HashMap<TermId, (u16, bool)>> {
    let (inverted, scores) = invert_live(base)?;
    let mut meta = HashMap::with_capacity(inverted.len());
    clear_vanished(long, inverted.keys())?;
    clear_vanished(fancy, inverted.keys())?;
    for (term, postings) in inverted {
        let mut rows: Vec<(f64, DocId, u16)> = postings
            .iter()
            .map(|p| (scores.get(&p.doc).copied().unwrap_or(0.0), p.doc, p.tscore))
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        long.put_score_list(term, &rows)?;

        let mut ranked = postings.clone();
        ranked.sort_by(|a, b| b.tscore.cmp(&a.tscore).then_with(|| a.doc.cmp(&b.doc)));
        ranked.truncate(fancy_size);
        let complete = ranked.len() == postings.len();
        let min_ts = ranked.iter().map(|p| p.tscore).min().unwrap_or(0);
        ranked.sort_by_key(|p| p.doc);
        fancy.put_id_list(term, &ranked)?;
        meta.insert(term, (min_ts, complete));
    }
    Ok(meta)
}

/// Rebuild chunked long lists *and* fancy lists (Chunk-TermScore); returns
/// the new chunk map and per-term `(minF, complete)` fancy metadata.
#[allow(clippy::type_complexity)]
pub(crate) fn rebuild_chunk_term_lists(
    base: &MethodBase,
    long: &LongListStore,
    fancy: &LongListStore,
    fancy_size: usize,
    chunk_ratio: f64,
    min_chunk_docs: usize,
    old_map: ChunkMap,
) -> Result<(ChunkMap, HashMap<TermId, (u16, bool)>)> {
    let (inverted, scores) = invert_live(base)?;
    let all_scores: Vec<Score> = scores.values().copied().collect();
    let new_map = if all_scores.is_empty() {
        old_map
    } else {
        ChunkMap::from_scores(&all_scores, chunk_ratio, min_chunk_docs)
    };
    let mut meta = HashMap::with_capacity(inverted.len());
    clear_vanished(long, inverted.keys())?;
    clear_vanished(fancy, inverted.keys())?;
    for (term, postings) in inverted {
        let groups = group_by_chunk(&postings, |doc| {
            new_map.chunk_of(scores.get(&doc).copied().unwrap_or(0.0))
        });
        long.put_chunked_list(term, &groups)?;

        let mut ranked = postings.clone();
        ranked.sort_by(|a, b| b.tscore.cmp(&a.tscore).then_with(|| a.doc.cmp(&b.doc)));
        ranked.truncate(fancy_size);
        let complete = ranked.len() == postings.len();
        let min_ts = ranked.iter().map(|p| p.tscore).min().unwrap_or(0);
        ranked.sort_by_key(|p| p.doc);
        fancy.put_id_list(term, &ranked)?;
        meta.insert(term, (min_ts, complete));
    }
    Ok((new_map, meta))
}
