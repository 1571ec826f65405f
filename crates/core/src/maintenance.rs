//! Writing long lists: the build and the offline merge share one inversion
//! and one list writer per layout.
//!
//! "Note also that the short lists will be periodically merged with the
//! long lists bringing down document insertion cost again" (App. A.3). The
//! paper performs this offline and excludes it from the measured operations
//! (§5.1); here it is implemented as a full regeneration of the long lists
//! from the live forward index and Score table — the simplest correct
//! policy, and the natural point to recompute chunk boundaries for the
//! Chunk methods.
//!
//! Build and merge differ only in what they invert: the build inverts the
//! corpus under its initial scores (`Inversion::of_corpus`), the merge the
//! live forward index under the current Score table
//! (`Inversion::of_live`). Both then call the same writers, one per
//! long-list layout — `write_id_lists`, `write_score_lists`,
//! `write_chunked_lists` — plus `write_fancy_lists` for the term-scored
//! threshold methods. An `Inversion` yields terms in ascending order, so a
//! build from the same corpus writes the same lists in the same order every
//! time. Lists are encoded with the store's **own** codec
//! ([`LongListStore::codec`]): a merge never migrates an index between
//! codecs, so a legacy-format index stays byte-compatible after upgrades.
//!
//! A shard's merge is one index write: it runs inside one
//! [`svr_storage::WalBatch`] over its logged stores (opened by the index
//! body, under the shard's write lock, like every other index write), so
//! it commits once per store: the last image of each page it wrote, one
//! commit marker, and at the default sync interval one fsync. The short-list and ListScore/ListChunk trees
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

use std::borrow::Cow;
use std::collections::HashMap;

use svr_text::postings::{ChunkGroup, TermScoredPosting};

use crate::chunk_map::ChunkMap;
use crate::config::IndexConfig;
use crate::error::Result;
use crate::long_list::{posting_term_score, LongListStore};
use crate::methods::base::MethodBase;
use crate::methods::fancy::{build_fancy, FancyMeta};
use crate::methods::ScoreMap;
use crate::types::{ChunkId, DocId, Document, Score, TermId};

/// A collection inverted for list writing.
pub(crate) struct Inversion {
    /// Per-term postings in doc-id order, terms ascending. Term scores are
    /// the quantized normalized TF of each (doc, term) pair.
    pub lists: Vec<(TermId, Vec<TermScoredPosting>)>,
    /// Every inverted document's score.
    pub scores: ScoreMap,
}

impl Inversion {
    /// The build's inversion: `docs` under their initial `scores`.
    pub fn of_corpus(docs: &[Document], scores: &ScoreMap) -> Result<Inversion> {
        let mut sorted: Vec<&Document> = docs.iter().collect();
        sorted.sort_by_key(|d| d.id);
        invert(sorted.into_iter().map(|d| {
            let score = MethodBase::initial_score(scores, d.id);
            Ok((d.id, score, Cow::Borrowed(d.terms.as_slice())))
        }))
    }

    /// The merge's inversion: the live documents of the forward index under
    /// their current scores.
    pub fn of_live(base: &MethodBase) -> Result<Inversion> {
        let live = base.score_table.live_scores();
        // live_scores is doc-ordered, so each term's postings are too.
        invert(live.into_iter().map(|(doc, score)| {
            let terms = base.doc_store.get(doc)?.unwrap_or_default();
            Ok((doc, score, Cow::Owned(terms)))
        }))
    }

    fn score(&self, doc: DocId) -> Score {
        self.scores.get(&doc).copied().unwrap_or(0.0)
    }

    /// The chunk map of the inverted score distribution.
    pub fn chunk_map(&self, config: &IndexConfig) -> ChunkMap {
        let all: Vec<Score> = self.scores.values().copied().collect();
        ChunkMap::from_scores(&all, config.chunk_ratio, config.min_chunk_docs)
    }
}

/// The inversion build and merge share: `(doc, score, (term, tf) rows)` in
/// doc-id order in, term-ascending doc-ordered lists out.
fn invert<'a>(
    rows: impl Iterator<Item = Result<(DocId, Score, Cow<'a, [(TermId, u32)]>)>>,
) -> Result<Inversion> {
    let mut lists: HashMap<TermId, Vec<TermScoredPosting>> = HashMap::new();
    let mut scores = ScoreMap::new();
    for row in rows {
        let (doc, score, terms) = row?;
        scores.insert(doc, score);
        let max_tf = terms.iter().map(|&(_, tf)| tf).max().unwrap_or(0);
        for &(term, tf) in terms.iter() {
            lists.entry(term).or_default().push(TermScoredPosting {
                doc,
                tscore: posting_term_score(tf, max_tf),
            });
        }
    }
    let mut lists: Vec<_> = lists.into_iter().collect();
    lists.sort_unstable_by_key(|&(term, _)| term);
    Ok(Inversion { lists, scores })
}

/// Clear the lists of terms absent from `inv` (a fresh store has none).
fn clear_vanished(store: &LongListStore, inv: &Inversion) -> Result<()> {
    for term in store.terms() {
        if inv.lists.binary_search_by_key(&term, |&(t, _)| t).is_err() {
            store.clear_list(term)?;
        }
    }
    Ok(())
}

/// Write doc-id-ordered long lists (ID / ID-TermScore).
pub(crate) fn write_id_lists(long: &LongListStore, inv: &Inversion) -> Result<()> {
    clear_vanished(long, inv)?;
    for (term, postings) in &inv.lists {
        long.put_id_list(*term, postings)?;
    }
    Ok(())
}

/// Write (score desc, doc asc) long lists (Score-Threshold[-TermScore]).
/// After a merge the list scores are exact again.
pub(crate) fn write_score_lists(long: &LongListStore, inv: &Inversion) -> Result<()> {
    clear_vanished(long, inv)?;
    for (term, postings) in &inv.lists {
        let mut rows: Vec<(f64, DocId, u16)> = postings
            .iter()
            .map(|p| (inv.score(p.doc), p.doc, p.tscore))
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        long.put_score_list(*term, &rows)?;
    }
    Ok(())
}

/// Write (chunk desc, doc asc) long lists laid out by `map`
/// (Chunk[-TermScore]).
pub(crate) fn write_chunked_lists(
    long: &LongListStore,
    inv: &Inversion,
    map: &ChunkMap,
) -> Result<()> {
    clear_vanished(long, inv)?;
    for (term, postings) in &inv.lists {
        let groups = group_by_chunk(postings, |doc| map.chunk_of(inv.score(doc)));
        long.put_chunked_list(*term, &groups)?;
    }
    Ok(())
}

/// Write every term's fancy list; returns the per-term fancy metadata.
pub(crate) fn write_fancy_lists(
    fancy: &LongListStore,
    inv: &Inversion,
    fancy_size: usize,
) -> Result<HashMap<TermId, FancyMeta>> {
    clear_vanished(fancy, inv)?;
    let mut meta = HashMap::with_capacity(inv.lists.len());
    for (term, postings) in &inv.lists {
        let (list, m) = build_fancy(postings, fancy_size);
        fancy.put_id_list(*term, &list)?;
        meta.insert(*term, m);
    }
    Ok(meta)
}

/// Group per-term postings by a chunk map, descending chunk, ascending doc.
fn group_by_chunk(
    postings: &[TermScoredPosting],
    chunk_of: impl Fn(DocId) -> ChunkId,
) -> Vec<ChunkGroup> {
    let mut by_chunk: HashMap<ChunkId, Vec<TermScoredPosting>> = HashMap::new();
    for p in postings {
        by_chunk.entry(chunk_of(p.doc)).or_default().push(*p);
    }
    let mut groups: Vec<ChunkGroup> = by_chunk
        .into_iter()
        .map(|(cid, mut postings)| {
            postings.sort_by_key(|p| p.doc);
            ChunkGroup { cid, postings }
        })
        .collect();
    groups.sort_by_key(|g| std::cmp::Reverse(g.cid));
    groups
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;

    use svr_storage::StorageEnv;

    use crate::codec::CodecKind;
    use crate::config::IndexConfig;
    use crate::long_list::{ListFormat, LongListStore};
    use crate::methods::{build_index_at, store_names, IndexLocation, MethodKind, SearchIndex};
    use crate::types::{DocId, Document, TermId};

    /// Deterministic 64-bit LCG (no RNG dependency: the corpus must be the
    /// same in every build of the crate).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Log-uniform score in `[0.1, 10 000)`, so the chunk map has many
        /// chunks.
        fn score(&mut self) -> f64 {
            10f64.powf(-1.0 + 5.0 * self.below(1 << 20) as f64 / (1u64 << 20) as f64)
        }
    }

    fn document(rng: &mut Lcg, id: u32) -> Document {
        let n = 3 + rng.below(12);
        // Skewed term choice: low ids are frequent, so some lists are long.
        let terms = (0..n).map(|_| {
            let t = rng.below(60).min(rng.below(60));
            (TermId(t as u32), 1 + rng.below(4) as u32)
        });
        Document::from_term_freqs(DocId(id), terms)
    }

    /// FNV-1a over every term's raw list bytes, in ascending term order.
    fn hash_lists(env: &Arc<StorageEnv>, name: &str, format: ListFormat, codec: CodecKind) -> u64 {
        let store = env.store(name).expect("list store exists");
        let lists = LongListStore::open(store, format, codec).expect("reopen list store");
        let mut terms = lists.terms();
        terms.sort();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for term in terms {
            let raw = lists.raw_list(term).expect("read list").unwrap_or_default();
            eat(&term.0.to_le_bytes());
            eat(&(raw.len() as u64).to_le_bytes());
            eat(&raw);
        }
        h
    }

    /// `(long, fancy)` list hashes of a one-shard index in `env`.
    fn hash_index(env: &Arc<StorageEnv>, kind: MethodKind, codec: CodecKind) -> (u64, u64) {
        let ts = kind.uses_term_scores();
        let format = match kind {
            MethodKind::Id | MethodKind::IdTermScore => ListFormat::Id { with_scores: ts },
            MethodKind::Chunk | MethodKind::ChunkTermScore => {
                ListFormat::Chunked { with_scores: ts }
            }
            _ => ListFormat::Score { with_scores: ts },
        };
        let long = hash_lists(env, store_names::LONG, format, codec);
        let fancy = match kind {
            MethodKind::ChunkTermScore | MethodKind::ScoreThresholdTermScore => hash_lists(
                env,
                store_names::FANCY,
                ListFormat::Id { with_scores: true },
                codec,
            ),
            _ => 0,
        };
        (long, fancy)
    }

    /// Build, then inserts, score updates (some relocating postings to the
    /// short lists), one content update and an offline merge; returns the
    /// list hashes after the build and after the merge.
    fn run(kind: MethodKind, codec: CodecKind) -> Hashes {
        let config = IndexConfig {
            min_chunk_docs: 10,
            fancy_size: 8,
            codec,
            ..IndexConfig::default()
        };
        let mut rng = Lcg(0x5eed);
        let docs: Vec<Document> = (0..300).map(|i| document(&mut rng, i)).collect();
        let scores: HashMap<DocId, f64> = docs.iter().map(|d| (d.id, rng.score())).collect();
        let env = Arc::new(StorageEnv::new_durable(config.page_size));
        let loc = IndexLocation::new(env.clone(), "");
        let index: Box<dyn SearchIndex> =
            build_index_at(&loc, kind, &docs, &scores, &config).expect("build");
        let built = hash_index(&env, kind, codec);

        for id in 300..310 {
            let doc = document(&mut rng, id);
            index.insert_document(&doc, rng.score()).expect("insert");
        }
        for _ in 0..80 {
            let doc = DocId(rng.below(300) as u32);
            let score = rng.score() * if rng.below(3) == 0 { 1000.0 } else { 1.0 };
            index.update_score(doc, score).expect("update");
        }
        index
            .update_content(&document(&mut rng, 7))
            .expect("content update");
        index.merge_short_lists().expect("merge");
        [built, hash_index(&env, kind, codec)]
    }

    /// `[(long, fancy) after build, (long, fancy) after merge]` list hashes.
    type Hashes = [(u64, u64); 2];

    /// `(kind, codec, hashes)`. A change here is a change of on-disk list
    /// bytes, which existing indexes would not match.
    #[rustfmt::skip]
    const GOLDEN: [(MethodKind, CodecKind, Hashes); 12] = [
        (MethodKind::Id, CodecKind::Legacy, [(0x7b1df24b87e29cd5, 0), (0x70c5586e34da65ea, 0)]),
        (MethodKind::ScoreThreshold, CodecKind::Legacy, [(0x4ebd395183e09b25, 0), (0xd1899d34d8ee87eb, 0)]),
        (MethodKind::Chunk, CodecKind::Legacy, [(0x43104522425f2367, 0), (0x5fbe15b14cbf2c04, 0)]),
        (MethodKind::IdTermScore, CodecKind::Legacy, [(0xd3e3b38c4c22e732, 0), (0x8fec19d1ee4ca3d6, 0)]),
        (MethodKind::ChunkTermScore, CodecKind::Legacy, [(0xce49ff69228612b0, 0xd4acfb4998d96e5a), (0x33329064b16ebc0a, 0xa16c665102117af7)]),
        (MethodKind::ScoreThresholdTermScore, CodecKind::Legacy, [(0x0610d47bb7f4616a, 0xd4acfb4998d96e5a), (0x43db7591ad3f71eb, 0xa16c665102117af7)]),
        (MethodKind::Id, CodecKind::Bitpacked, [(0xaa0fec21c10de09e, 0), (0x9bfe7ee7ba7ae4a1, 0)]),
        (MethodKind::ScoreThreshold, CodecKind::Bitpacked, [(0x4035123dc78384d6, 0), (0x80671ffb32156f6a, 0)]),
        (MethodKind::Chunk, CodecKind::Bitpacked, [(0xb004dfd3117eab57, 0), (0x06738f49bd0ebf11, 0)]),
        (MethodKind::IdTermScore, CodecKind::Bitpacked, [(0xd16d80640eb214b1, 0), (0x45c81f2350c440ff, 0)]),
        (MethodKind::ChunkTermScore, CodecKind::Bitpacked, [(0xeae5f735a039b264, 0xe83f6b3c183a78c0), (0x137726872664017d, 0xb60e1b0d00dfc5e6)]),
        (MethodKind::ScoreThresholdTermScore, CodecKind::Bitpacked, [(0xfff01f1f8b63ab5d, 0xe83f6b3c183a78c0), (0xa61b785f670af8eb, 0xb60e1b0d00dfc5e6)]),
    ];

    #[test]
    fn corpus_inversion_sorts_terms_and_docs() {
        let docs = vec![
            Document::from_term_freqs(DocId(5), [(TermId(3), 2), (TermId(1), 1)]),
            Document::from_term_freqs(DocId(1), [(TermId(1), 4)]),
        ];
        let inv = super::Inversion::of_corpus(&docs, &HashMap::new()).unwrap();
        let terms: Vec<TermId> = inv.lists.iter().map(|&(t, _)| t).collect();
        assert_eq!(terms, [TermId(1), TermId(3)]);
        let t1 = &inv.lists[0].1;
        assert_eq!(t1.len(), 2);
        assert_eq!(t1[0].doc, DocId(1));
        assert_eq!(t1[1].doc, DocId(5));
        // Doc 1's term 1 is its max-tf term: normalized score is 1.0.
        assert_eq!(t1[0].tscore, u16::MAX);
        assert_eq!(inv.scores[&DocId(5)], 0.0);
    }

    /// Every blob-list method's encoded long and fancy lists, per term,
    /// after a build and after a merge, are byte-for-byte the pinned ones.
    #[test]
    fn list_bytes_are_pinned() {
        for (kind, codec, want) in GOLDEN {
            assert_eq!(run(kind, codec), want, "{kind:?} / {codec:?}");
        }
    }
}
