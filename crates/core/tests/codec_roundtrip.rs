//! Codec round-trip properties: the block codec must decode exactly what it
//! encoded for arbitrary lists in all three list formats — at the slice
//! level ([`codec::decode_list`]) and through a [`LongListStore`] cursor —
//! and hostile inputs (truncations, random garbage) must come back as clean
//! errors, never panics or bogus postings. Its bytes are pinned too.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use svr_core::codec::{self, CodecKind};
use svr_core::long_list::{ListFormat, LongListStore, LongPosting};
use svr_core::short_list::PostingPos;
use svr_core::types::{DocId, TermId};
use svr_storage::{MemDisk, Store};
use svr_text::postings::{ChunkGroup, TermScoredPosting};

/// The block codec the properties exercise.
const CODEC: CodecKind = CodecKind::Bitpacked;

fn store() -> Arc<Store> {
    Arc::new(Store::new(Arc::new(MemDisk::new(512)), 64))
}

/// Ascending unique doc ids with arbitrary gaps, each with a term score.
fn id_list_strategy() -> impl Strategy<Value = Vec<TermScoredPosting>> {
    (
        prop::collection::btree_set(0u32..2_000_000, 0..120),
        any::<u16>(),
    )
        .prop_map(|(docs, seed)| {
            docs.into_iter()
                .enumerate()
                .map(|(i, doc)| TermScoredPosting {
                    doc: DocId(doc),
                    tscore: seed.wrapping_mul(i as u16 + 1),
                })
                .collect()
        })
}

/// Chunk groups in descending cid order, docs ascending within each group.
fn chunked_strategy() -> impl Strategy<Value = Vec<ChunkGroup>> {
    prop::collection::btree_map(
        0u32..50,
        prop::collection::btree_set(0u32..100_000, 1..40),
        0..6,
    )
    .prop_map(|m: BTreeMap<u32, BTreeSet<u32>>| {
        m.into_iter()
            .rev()
            .map(|(cid, docs)| ChunkGroup {
                cid,
                postings: docs
                    .into_iter()
                    .map(|doc| TermScoredPosting {
                        doc: DocId(doc),
                        tscore: (doc % 700) as u16,
                    })
                    .collect(),
            })
            .collect()
    })
}

/// `(score, doc, tscore)` rows in (score desc, doc asc) order.
fn score_rows_strategy() -> impl Strategy<Value = Vec<(f64, DocId, u16)>> {
    prop::collection::vec((0u32..1_000_000, 0u32..100_000, any::<u16>()), 0..120).prop_map(
        |mut rows| {
            rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            rows.dedup_by_key(|r| (r.0, r.1));
            rows.into_iter()
                .map(|(s, d, ts)| (f64::from(s) / 16.0, DocId(d), ts))
                .collect()
        },
    )
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tsp(doc: u32, tscore: u16) -> TermScoredPosting {
    TermScoredPosting {
        doc: DocId(doc),
        tscore,
    }
}

/// The bitpacked on-disk format, byte for byte: one small fixed list per
/// format, with and without term scores. Round-trip tests cannot catch a
/// format drift (encoder and decoder would drift together); these bytes
/// were captured from the encoder and must never change.
#[test]
fn bitpacked_bytes_are_pinned() {
    let ids = vec![
        tsp(3, 1),
        tsp(4, 2),
        tsp(5, 300),
        tsp(9, 65535),
        tsp(1000, 0),
        tsp(70_000, 7),
    ];
    // Group 7 holds 130 postings, so it crosses the 128-posting block
    // boundary and the second block re-emits its group header.
    let groups = vec![
        ChunkGroup {
            cid: 7,
            postings: (0..130u32).map(|i| tsp(i * 3, (i % 5) as u16)).collect(),
        },
        ChunkGroup {
            cid: 2,
            postings: vec![tsp(1, 9), tsp(40, 0), tsp(41, 1000)],
        },
    ];
    let rows = vec![
        (9.5, DocId(12), 3),
        (9.5, DocId(40), 0),
        (2.25, DocId(7), 65535),
        (-1.0, DocId(100_000), 12),
    ];
    let mut got = Vec::new();
    for with_scores in [false, true] {
        let mut buf = Vec::new();
        codec::encode_id_list(CodecKind::Bitpacked, &ids, with_scores, &mut buf);
        got.push((format!("id ts={with_scores}"), hex(&buf)));
        buf.clear();
        codec::encode_chunked_list(CodecKind::Bitpacked, &groups, with_scores, &mut buf);
        got.push((format!("chunked ts={with_scores}"), hex(&buf)));
        buf.clear();
        codec::encode_score_list(CodecKind::Bitpacked, &rows, with_scores, &mut buf);
        got.push((format!("score ts={with_scores}"), hex(&buf)));
    }
    let want = [
        ("id ts=false", "b7030006060df0a204000311000000000c00f01e70d810"),
        ("chunked ts=false", "b703028501800125fd02000780010002aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa2a050c830300070280030202020301062600"),
        ("score ts=false", "b7030404042aa08d06000000000000002340000000000000234000000000000023400000000000000240000000000000f0bf110c0050001c0000350c"),
        ("id ts=true", "b7030106061af0a204ffff030311000000000c00f01e70d81010010002002c01ffff00000700"),
        ("chunked ts=true", "b703038501800156fd02040780010002aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa2a0388464423a211d188684434221a118d88464423a211d188684434221a118d88464423a211d188684434221a118d88464405138303e80707028003020203230203010626000a0900803e"),
        ("score ts=true", "b70305040433a08d06ffff030000000000002340000000000000234000000000000023400000000000000240000000000000f0bf110c0050001c0000350c1003000000ffff0c00"),
    ];
    for ((name, bytes), (want_name, want_bytes)) in got.iter().zip(want) {
        assert_eq!(name, want_name);
        assert_eq!(bytes, want_bytes, "{name}");
    }
}

fn drain(lls: &LongListStore, term: TermId) -> Vec<LongPosting> {
    let mut cursor = lls.cursor(term);
    let mut out = Vec::new();
    while let Some(p) = cursor.next_posting().unwrap() {
        out.push(p);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn id_lists_roundtrip(
        postings in id_list_strategy(),
        with_scores in any::<bool>(),
    ) {
        let format = ListFormat::Id { with_scores };
        let mut buf = Vec::new();
        codec::encode_id_list(CODEC, &postings, with_scores, &mut buf);
        let decoded = codec::decode_list(CODEC, format, &buf).unwrap();
        prop_assert_eq!(decoded.len(), postings.len());
        for (got, want) in decoded.iter().zip(&postings) {
            prop_assert_eq!(got.doc, want.doc);
            prop_assert_eq!(got.tscore, if with_scores { want.tscore } else { 0 });
            prop_assert_eq!(got.pos, PostingPos::Id);
        }
        // The same list through a store cursor (paged ByteStream decode).
        let lls = LongListStore::new(store(), format, CODEC);
        lls.put_id_list(TermId(9), &postings).unwrap();
        prop_assert_eq!(drain(&lls, TermId(9)), decoded);
    }

    #[test]
    fn chunked_lists_roundtrip(
        groups in chunked_strategy(),
        with_scores in any::<bool>(),
    ) {
        let format = ListFormat::Chunked { with_scores };
        let mut buf = Vec::new();
        codec::encode_chunked_list(CODEC, &groups, with_scores, &mut buf);
        let decoded = codec::decode_list(CODEC, format, &buf).unwrap();
        let want: Vec<(u32, DocId, u16)> = groups
            .iter()
            .flat_map(|g| {
                g.postings.iter().map(|p| {
                    (g.cid, p.doc, if with_scores { p.tscore } else { 0 })
                })
            })
            .collect();
        prop_assert_eq!(decoded.len(), want.len());
        for (got, (cid, doc, ts)) in decoded.iter().zip(&want) {
            prop_assert_eq!(got.pos, PostingPos::ByChunk(*cid));
            prop_assert_eq!(got.doc, *doc);
            prop_assert_eq!(got.tscore, *ts);
        }
        let lls = LongListStore::new(store(), format, CODEC);
        lls.put_chunked_list(TermId(9), &groups).unwrap();
        prop_assert_eq!(drain(&lls, TermId(9)), decoded);
    }

    #[test]
    fn score_lists_roundtrip(
        rows in score_rows_strategy(),
        with_scores in any::<bool>(),
    ) {
        let format = ListFormat::Score { with_scores };
        let mut buf = Vec::new();
        codec::encode_score_list(CODEC, &rows, with_scores, &mut buf);
        let decoded = codec::decode_list(CODEC, format, &buf).unwrap();
        prop_assert_eq!(decoded.len(), rows.len());
        for (got, (score, doc, ts)) in decoded.iter().zip(&rows) {
            prop_assert_eq!(got.pos, PostingPos::ByScore(*score));
            prop_assert_eq!(got.doc, *doc);
            prop_assert_eq!(got.tscore, if with_scores { *ts } else { 0 });
        }
        let lls = LongListStore::new(store(), format, CODEC);
        lls.put_score_list(TermId(9), &rows).unwrap();
        prop_assert_eq!(drain(&lls, TermId(9)), decoded);
    }

    /// Every proper non-empty prefix of a valid encoding must surface a
    /// clean error: the header's posting total makes truncation — even at a
    /// block boundary, where the byte stream ends "cleanly" — detectable.
    #[test]
    fn truncated_encodings_error_cleanly(
        postings in id_list_strategy().prop_filter("need a non-trivial list", |p| p.len() >= 3),
    ) {
        let format = ListFormat::Id { with_scores: true };
        let mut buf = Vec::new();
        codec::encode_id_list(CODEC, &postings, true, &mut buf);
        for cut in 1..buf.len() {
            prop_assert!(
                codec::decode_list(CODEC, format, &buf[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                buf.len(),
            );
        }
    }

    /// Arbitrary garbage must never panic the decoder (errors are fine,
    /// and the header caps keep allocations bounded).
    #[test]
    fn garbage_never_panics(
        garbage in prop::collection::vec(any::<u8>(), 0..600),
        with_scores in any::<bool>(),
    ) {
        for format in [
            ListFormat::Id { with_scores },
            ListFormat::Chunked { with_scores },
            ListFormat::Score { with_scores },
        ] {
            let _ = codec::decode_list(CODEC, format, &garbage);
        }
    }

    /// Bit-flips inside a valid encoding must never panic either — they
    /// either error or decode to *some* postings, but always terminate.
    #[test]
    fn bitflips_never_panic(
        postings in id_list_strategy().prop_filter("need postings", |p| !p.is_empty()),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut buf = Vec::new();
        codec::encode_id_list(CODEC, &postings, false, &mut buf);
        let i = flip_byte % buf.len();
        buf[i] ^= 1 << flip_bit;
        let _ = codec::decode_list(CODEC, ListFormat::Id { with_scores: false }, &buf);
    }
}
