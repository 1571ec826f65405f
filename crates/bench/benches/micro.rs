//! Criterion microbenchmarks for the hot paths underlying the experiments:
//! B+-tree point operations, posting codecs, merge cursors, and the
//! per-method single-operation costs, the log, and the offline merge —
//! plus the DESIGN.md §5 ablations (chunk ratio, minimum chunk size,
//! fancy-list size).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use svr_core::types::{DocId, Document, QueryMode};
use svr_core::{build_index, IndexConfig, MethodKind, SearchIndex};
use svr_storage::{BTree, MemDisk, Store};
use svr_text::postings::{IdPostingsIter, PostingsBuilder};
use svr_workload::{QueryClass, QueryWorkload, SynthConfig, UpdateConfig, UpdateWorkload};

fn btree_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("btree");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    group.bench_function("put_sequential_10k", |b| {
        b.iter(|| {
            let store = Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 4096));
            let tree = BTree::create(store).unwrap();
            for i in 0..10_000u32 {
                tree.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            }
            tree.len()
        })
    });

    let store = Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 4096));
    let tree = BTree::create(store).unwrap();
    for i in 0..50_000u32 {
        tree.put(
            &(i.wrapping_mul(2654435761)).to_be_bytes(),
            &i.to_le_bytes(),
        )
        .unwrap();
    }
    group.throughput(Throughput::Elements(1));
    group.bench_function("get_random_50k_tree", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(7919);
            tree.get(&((i % 50_000).wrapping_mul(2654435761)).to_be_bytes())
                .unwrap()
        })
    });
    group.bench_function("scan_prefix_1k", |b| {
        b.iter(|| tree.cursor(&[]).unwrap().next_entry().unwrap())
    });
    group.finish();
}

fn codec_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("postings_codec");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let docs: Vec<DocId> = (0..100_000u32).step_by(3).map(DocId).collect();
    group.throughput(Throughput::Elements(docs.len() as u64));
    group.bench_function("encode_id_list_33k", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            PostingsBuilder::encode_id_list(&docs, &mut buf);
            buf.len()
        })
    });
    let mut encoded = Vec::new();
    PostingsBuilder::encode_id_list(&docs, &mut encoded);
    group.bench_function("decode_id_list_33k", |b| {
        b.iter(|| IdPostingsIter::new(&encoded, false).count())
    });
    group.finish();
}

/// Shared scaled-down corpus for the per-method op benchmarks.
fn corpus() -> (Vec<Document>, HashMap<DocId, f64>) {
    let ds = SynthConfig {
        num_docs: 800,
        vocab_size: 4_000,
        tokens_per_doc: 80,
        ..SynthConfig::default()
    }
    .generate();
    (ds.docs, ds.scores)
}

fn method_op_benches(c: &mut Criterion) {
    let (docs, scores) = corpus();
    let ds = SynthConfig {
        num_docs: 800,
        vocab_size: 4_000,
        tokens_per_doc: 80,
        ..SynthConfig::default()
    }
    .generate();
    let ranked_terms = ds.terms_by_frequency();
    let ranked_docs = ds.docs_by_score();

    let mut group = c.benchmark_group("method_ops");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    for kind in [
        MethodKind::Id,
        MethodKind::Score,
        MethodKind::ScoreThreshold,
        MethodKind::Chunk,
    ] {
        let config = IndexConfig {
            min_chunk_docs: 16,
            ..IndexConfig::default()
        };
        let index: Box<dyn SearchIndex> = build_index(kind, &docs, &scores, &config).unwrap();
        let mut updates =
            UpdateWorkload::new(ranked_docs.clone(), scores.clone(), UpdateConfig::default());
        group.bench_with_input(
            BenchmarkId::new("update_score", kind.name()),
            &kind,
            |b, _| {
                b.iter(|| {
                    let (doc, score) = updates.next_update();
                    index.update_score(doc, score).unwrap()
                })
            },
        );
        let mut queries = QueryWorkload::new(
            ranked_terms.clone(),
            QueryClass::Medium,
            2,
            QueryMode::Conjunctive,
            3,
        );
        group.bench_with_input(
            BenchmarkId::new("query_top10_warm", kind.name()),
            &kind,
            |b, _| b.iter(|| index.query(&queries.next_query(10)).unwrap()),
        );
    }
    // Two-term OR top-10: the WAND path of ID-TermScore, which resolves
    // every pivot's score, and Chunk's union of chunked lists.
    for kind in [MethodKind::IdTermScore, MethodKind::Chunk] {
        let config = IndexConfig {
            min_chunk_docs: 16,
            ..IndexConfig::default()
        };
        let index = build_index(kind, &docs, &scores, &config).unwrap();
        let mut queries = QueryWorkload::new(
            ranked_terms.clone(),
            QueryClass::Medium,
            2,
            QueryMode::Disjunctive,
            4,
        );
        group.bench_with_input(
            BenchmarkId::new("query_or_top10_warm", kind.name()),
            &kind,
            |b, _| b.iter(|| index.query(&queries.next_query(10)).unwrap()),
        );
    }
    group.finish();
}

fn ablation_benches(c: &mut Criterion) {
    let (docs, scores) = corpus();
    let ds = SynthConfig {
        num_docs: 800,
        vocab_size: 4_000,
        tokens_per_doc: 80,
        ..SynthConfig::default()
    }
    .generate();
    let ranked_terms = ds.terms_by_frequency();

    let mut group = c.benchmark_group("ablations");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));

    // Chunk-ratio ablation (DESIGN.md §5): query cost vs ratio.
    for ratio in [2.0, 6.12, 41.96] {
        let config = IndexConfig {
            chunk_ratio: ratio,
            min_chunk_docs: 16,
            ..IndexConfig::default()
        };
        let index = build_index(MethodKind::Chunk, &docs, &scores, &config).unwrap();
        let mut queries = QueryWorkload::new(
            ranked_terms.clone(),
            QueryClass::Medium,
            2,
            QueryMode::Conjunctive,
            5,
        );
        group.bench_with_input(
            BenchmarkId::new("chunk_ratio_query", format!("{ratio}")),
            &ratio,
            |b, _| b.iter(|| index.query(&queries.next_query(10)).unwrap()),
        );
    }

    // Minimum-chunk-size ablation under the skewed score distribution.
    for min_docs in [1usize, 100] {
        let config = IndexConfig {
            min_chunk_docs: min_docs,
            ..IndexConfig::default()
        };
        let index = build_index(MethodKind::Chunk, &docs, &scores, &config).unwrap();
        let mut queries = QueryWorkload::new(
            ranked_terms.clone(),
            QueryClass::Medium,
            2,
            QueryMode::Conjunctive,
            6,
        );
        group.bench_with_input(
            BenchmarkId::new("chunk_min_size_query", format!("{min_docs}")),
            &min_docs,
            |b, _| b.iter(|| index.query(&queries.next_query(10)).unwrap()),
        );
    }

    // Fancy-list size ablation for Chunk-TermScore.
    for fancy in [8usize, 64, 512] {
        let config = IndexConfig {
            fancy_size: fancy,
            term_weight: 50_000.0,
            min_chunk_docs: 16,
            ..IndexConfig::default()
        };
        let index = build_index(MethodKind::ChunkTermScore, &docs, &scores, &config).unwrap();
        let mut queries = QueryWorkload::new(
            ranked_terms.clone(),
            QueryClass::Medium,
            2,
            QueryMode::Disjunctive,
            8,
        );
        group.bench_with_input(
            BenchmarkId::new("fancy_size_query", format!("{fancy}")),
            &fancy,
            |b, _| b.iter(|| index.query(&queries.next_query(10)).unwrap()),
        );
    }
    group.finish();
}

/// Write-ahead-logging ablation: what durability costs per B+-tree write,
/// and what a checkpoint costs to reclaim the log.
fn wal_benches(c: &mut Criterion) {
    use svr_storage::Wal;

    let mut group = c.benchmark_group("wal");
    group
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    group.throughput(Throughput::Elements(1));

    let plain = BTree::create(Arc::new(Store::new(Arc::new(MemDisk::new(4096)), 4096))).unwrap();
    group.bench_function("put_unlogged", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            plain.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap()
        })
    });

    let logged_store = Arc::new(Store::new_logged(
        Arc::new(MemDisk::new(4096)),
        4096,
        Arc::new(Wal::new()),
    ));
    let logged = BTree::create_durable(logged_store.clone()).unwrap();
    group.bench_function("put_logged", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let prev = logged.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            // Keep the log bounded so the bench measures steady state, not
            // an ever-growing allocation.
            if logged_store.wal().unwrap().stats().bytes > 8 << 20 {
                logged_store.checkpoint().unwrap();
            }
            prev
        })
    });

    group.bench_function("checkpoint_after_1k_puts", |b| {
        let store = Arc::new(Store::new_logged(
            Arc::new(MemDisk::new(4096)),
            4096,
            Arc::new(Wal::new()),
        ));
        let tree = BTree::create_durable(store.clone()).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            for _ in 0..1_000 {
                i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
                tree.put(&i.to_be_bytes(), &i.to_le_bytes()).unwrap();
            }
            store.checkpoint().unwrap()
        })
    });

    // The log's per-byte costs: the record checksum alone, and sealing a
    // page image into a file log (checksum + positional write; the long
    // group-sync interval keeps fsync out of the loop).
    group.throughput(Throughput::Bytes(4096));
    let page = bytes::Bytes::from(vec![0xA5u8; 4096]);
    group.bench_function("crc32_4k", |b| {
        b.iter(|| svr_storage::wal::crc32(criterion::black_box(&page)))
    });
    let dir = std::env::temp_dir().join(format!("svr-micro-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file_wal = Wal::open_file(&dir.join("append.wal")).unwrap();
    file_wal.set_sync_interval_ms(60_000);
    // One commit, keeping the file bounded as a checkpoint would.
    let seal = || {
        let lsn = file_wal.commit().unwrap();
        if file_wal.stats().bytes > 8 << 20 {
            file_wal.truncate().unwrap();
        }
        lsn
    };
    group.bench_function("append_file_4k", |b| {
        b.iter(|| {
            file_wal.append_page(7, page.clone());
            seal()
        })
    });
    // Sixty-four writes of one page between two commits log one image.
    group.bench_function("rewrite_page_x64_commit", |b| {
        b.iter(|| {
            for _ in 0..64 {
                file_wal.append_page(7, page.clone());
            }
            seal()
        })
    });
    group.finish();
    drop(file_wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The offline merge where it is most expensive: a file-backed environment
/// that fsyncs every commit. Each iteration parks postings on the short
/// lists with 200 score updates, merges them back, and checkpoints the
/// grown logs as `run_maintenance` does.
fn maintenance_benches(c: &mut Criterion) {
    use svr_core::{build_index_at, IndexLocation};
    use svr_storage::StorageEnv;

    let ds = SynthConfig {
        num_docs: 2_000,
        vocab_size: 4_000,
        tokens_per_doc: 80,
        ..SynthConfig::default()
    }
    .generate();
    let dir = std::env::temp_dir().join(format!("svr-micro-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let env = Arc::new(StorageEnv::open_dir(&dir, 4096).unwrap());
    // Build under group sync (nothing is acknowledged before the
    // checkpoint), then measure at fsync-every-commit.
    env.set_wal_sync_interval_ms(60_000);
    let config = IndexConfig {
        min_chunk_docs: 16,
        ..IndexConfig::default()
    };
    let index = build_index_at(
        &IndexLocation::new(env.clone(), "idx/m/"),
        MethodKind::Chunk,
        &ds.docs,
        &ds.scores,
        &config,
    )
    .unwrap();
    env.checkpoint_all().unwrap();
    env.set_wal_sync_interval_ms(0);
    let mut updates = UpdateWorkload::new(
        ds.docs_by_score(),
        ds.scores.clone(),
        UpdateConfig::default(),
    );

    let mut group = c.benchmark_group("maintenance");
    group
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function("merge_chunk_file", |b| {
        b.iter(|| {
            for _ in 0..200 {
                let (doc, score) = updates.next_update();
                index.update_score(doc, score).unwrap();
            }
            index.merge_short_lists().unwrap();
        })
    });
    group.finish();
    drop(index);
    drop(env);
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    btree_benches,
    codec_benches,
    method_op_benches,
    ablation_benches,
    wal_benches,
    maintenance_benches
);
criterion_main!(benches);
