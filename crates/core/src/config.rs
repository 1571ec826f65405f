//! Configuration knobs for the index methods.

use crate::codec::CodecKind;
use crate::error::{CoreError, Result};

/// Tunable parameters shared by the index builders.
///
/// The two knobs the paper's evaluation revolves around are
/// [`threshold_ratio`](IndexConfig::threshold_ratio) (Score-Threshold) and
/// [`chunk_ratio`](IndexConfig::chunk_ratio) (Chunk): both trade update time
/// for query time. Defaults are the paper's chosen operating points (§5.3.1:
/// "we fix chunk ratio at 6.12 and the threshold ratio at 11.24").
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// `thresholdValueOf(score) = threshold_ratio * score` for the
    /// Score-Threshold method. Must be > 1.
    pub threshold_ratio: f64,
    /// Ratio between the lowest scores of adjacent chunks for the Chunk
    /// methods. Must be > 1.
    pub chunk_ratio: f64,
    /// Minimum number of documents per chunk ("we also set a minimum size of
    /// a chunk so that each chunk has at least 100 documents").
    pub min_chunk_docs: usize,
    /// Number of postings in each term's fancy list (Chunk-TermScore).
    pub fancy_size: usize,
    /// Weight of the term-score component in the combined scoring function
    /// `f(svr, ts) = svr + term_weight * ts` (§4.3.3). The paper's `f` is a
    /// plain sum; the weight lets workloads put the two components on
    /// comparable scales.
    pub term_weight: f64,
    /// Storage page size in bytes. The paper's BerkeleyDB deployment uses
    /// 4 KiB pages; scaled-down experiments use smaller pages so that page
    /// counts (the unit of the cost model) stay discriminating on short
    /// posting lists.
    pub page_size: usize,
    /// Buffer-pool pages for the long-inverted-list store.
    pub long_cache_pages: usize,
    /// Buffer-pool pages for each small structure (Score table, short lists,
    /// ListScore/ListChunk, doc store). These are "easily maintained in the
    /// database cache" (§5.3.1), so the default is generous.
    pub small_cache_pages: usize,
    /// Cap on a suspended cursor's candidate pool (resolved-but-unemitted
    /// results). `0` = unbounded (the library default). Long-lived network
    /// cursors should set a cap: a full-scan method's first batch resolves
    /// every match into the pool, and an abandoned cursor would pin that
    /// memory until swept. Exceeding the cap evicts the cursor with
    /// [`CoreError::CursorEvicted`].
    pub cursor_pool_cap: usize,
    /// Number of write shards the index is partitioned into (beyond the
    /// paper, which is single-writer). Documents are hash-partitioned by
    /// doc id; each shard owns its own Score-table region, short/long list
    /// stores, chunk map and maintenance state behind an independent writer
    /// lock, so score updates to documents in different shards proceed in
    /// parallel. `1` (the default) keeps the paper's single-partition
    /// layout. Queries stay exact at any shard count: every shard holds the
    /// complete postings of its documents and answers the query locally,
    /// and the per-shard top-k results are merged.
    pub num_shards: usize,
    /// On-disk codec of the long posting lists (SQL `OPTIONS (codec =
    /// ...)`). `Legacy` — the flat pre-block formats — is the default and
    /// keeps the paper's Table 1 byte counts; the `bitpacked` block codec
    /// adds per-block skip metadata and shrinks the lists. Fixed at build
    /// time and persisted in the index catalog. See [`crate::codec`].
    pub codec: CodecKind,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            threshold_ratio: 11.24,
            chunk_ratio: 6.12,
            min_chunk_docs: 100,
            fancy_size: 64,
            term_weight: 1.0,
            page_size: svr_storage::DEFAULT_PAGE_SIZE,
            long_cache_pages: 4096,
            small_cache_pages: 16384,
            cursor_pool_cap: 0,
            num_shards: 1,
            codec: CodecKind::Legacy,
        }
    }
}

impl IndexConfig {
    /// Check the invariants the index methods rely on. Values arrive from
    /// SQL `OPTIONS (...)` and persisted catalogs, so a violation is an
    /// error for the caller, not a panic.
    pub fn validate(&self) -> Result<()> {
        let check = |ok: bool, what: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(CoreError::InvalidConfig(what))
            }
        };
        check(
            self.page_size >= 256,
            "page size must be at least 256 bytes",
        )?;
        // An infinite ratio or weight makes a stopping bound NaN (`-inf +
        // inf`), and a cursor never emits.
        let ratio = |r: f64| r > 1.0 && r.is_finite();
        check(
            ratio(self.threshold_ratio),
            "threshold ratio must be > 1 and finite",
        )?;
        check(
            ratio(self.chunk_ratio),
            "chunk ratio must be > 1 and finite",
        )?;
        check(self.fancy_size > 0, "fancy list size must be positive")?;
        check(
            (0.0..f64::INFINITY).contains(&self.term_weight),
            "term weight must be non-negative and finite",
        )?;
        check(self.num_shards >= 1, "shard count must be at least 1")
    }

    /// `thresholdValueOf` for the Score-Threshold method.
    #[inline]
    pub fn threshold_value_of(&self, score: f64) -> f64 {
        self.threshold_ratio * score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_operating_points() {
        let c = IndexConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.threshold_ratio, 11.24);
        assert_eq!(c.chunk_ratio, 6.12);
        assert_eq!(c.min_chunk_docs, 100);
    }

    #[test]
    fn threshold_value_of_scales() {
        let c = IndexConfig {
            threshold_ratio: 2.0,
            ..IndexConfig::default()
        };
        assert_eq!(c.threshold_value_of(50.0), 100.0);
        // thresholdValueOf(score) >= score is required for correctness.
        for s in [0.0, 1.0, 87.13, 1e6] {
            assert!(c.threshold_value_of(s) >= s);
        }
    }

    #[test]
    fn bad_settings_are_errors_not_panics() {
        let bad = [
            IndexConfig {
                chunk_ratio: 0.9,
                ..IndexConfig::default()
            },
            IndexConfig {
                threshold_ratio: 1.0,
                ..IndexConfig::default()
            },
            IndexConfig {
                page_size: 16,
                ..IndexConfig::default()
            },
            IndexConfig {
                fancy_size: 0,
                ..IndexConfig::default()
            },
            IndexConfig {
                term_weight: f64::NAN,
                ..IndexConfig::default()
            },
            IndexConfig {
                num_shards: 0,
                ..IndexConfig::default()
            },
            IndexConfig {
                threshold_ratio: f64::INFINITY,
                ..IndexConfig::default()
            },
            IndexConfig {
                chunk_ratio: f64::INFINITY,
                ..IndexConfig::default()
            },
            IndexConfig {
                term_weight: f64::INFINITY,
                ..IndexConfig::default()
            },
        ];
        for config in bad {
            assert!(
                matches!(config.validate(), Err(CoreError::InvalidConfig(_))),
                "{config:?} must be rejected"
            );
        }
    }
}
