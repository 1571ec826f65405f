//! Measurement utilities: wall time + page I/O → modeled time.

use std::time::Instant;

use svr_core::{store_names, SearchIndex};

/// Converts page transfers into modeled milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Cost of one (mostly sequential) cold page read, in microseconds.
    pub read_us: f64,
    /// Cost of one page write-back, in microseconds.
    pub write_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // A 2005 commodity disk reading 1 KiB pages with imperfect
        // sequentiality (track-to-track seeks amortized in): ~300 us per
        // page. Writes are buffered/deferred and charged less.
        CostModel {
            read_us: 300.0,
            write_us: 50.0,
        }
    }
}

/// Measured cost of a batch of operations.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCost {
    pub ops: u64,
    pub wall_ms: f64,
    pub pages_read: u64,
    pub pages_written: u64,
}

impl OpCost {
    /// Modeled total milliseconds under `model`.
    pub fn modeled_ms(&self, model: &CostModel) -> f64 {
        self.wall_ms
            + self.pages_read as f64 * model.read_us / 1e3
            + self.pages_written as f64 * model.write_us / 1e3
    }

    /// Modeled per-operation milliseconds.
    pub fn modeled_ms_per_op(&self, model: &CostModel) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.modeled_ms(model) / self.ops as f64
        }
    }

    /// Wall-clock per-operation milliseconds.
    pub fn wall_ms_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.wall_ms / self.ops as f64
        }
    }

    /// Long-list pages read per operation.
    pub fn pages_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.pages_read as f64 / self.ops as f64
        }
    }
}

/// Run `ops` operations against `index`, counting wall time and the page
/// traffic of every store in the index's environment.
pub fn measure<F>(index: &dyn SearchIndex, ops: u64, mut f: F) -> svr_core::Result<OpCost>
where
    F: FnMut() -> svr_core::Result<()>,
{
    let before = index.env().total_io();
    let t0 = Instant::now();
    f()?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let delta = index.env().total_io().since(&before);
    Ok(OpCost {
        ops,
        wall_ms,
        pages_read: delta.pages_read,
        pages_written: delta.pages_written,
    })
}

/// Measure a batch of cold-cache queries: the long-list (and fancy-list)
/// caches are cleared before every query, exactly as in §5.2 ("queries were
/// run ... using a cold cache for the long inverted lists").
pub fn measure_queries(
    index: &dyn SearchIndex,
    queries: &[svr_core::Query],
) -> svr_core::Result<OpCost> {
    let mut total = OpCost {
        ops: queries.len() as u64,
        ..OpCost::default()
    };
    for q in queries {
        index.clear_long_cache()?;
        // Only long-list traffic is charged: the short lists stay in cache
        // (they are orders of magnitude smaller), and the Score, ListScore
        // and ListChunk tables are memory-resident — a candidate's score
        // lookup reads no page at all.
        let long_before = long_io(index);
        let t0 = Instant::now();
        index.query(q)?;
        total.wall_ms += t0.elapsed().as_secs_f64() * 1e3;
        let after = long_io(index);
        total.pages_read += after.0 - long_before.0;
        total.pages_written += after.1 - long_before.1;
    }
    Ok(total)
}

fn long_io(index: &dyn SearchIndex) -> (u64, u64) {
    let mut reads = 0;
    let mut writes = 0;
    for name in [store_names::LONG, store_names::FANCY] {
        if let Some(store) = index.env().store(name) {
            let s = store.io_stats();
            reads += s.pages_read;
            writes += s.pages_written;
        }
    }
    (reads, writes)
}

/// Measure a batch of score updates (warm caches, as in the paper: "for
/// updates, we report the total update time divided by the number of
/// updates"). All page traffic is charged — the Score method's long-list
/// rewrites are exactly what this must expose.
pub fn measure_updates(
    index: &dyn SearchIndex,
    updates: &[(svr_core::types::DocId, f64)],
) -> svr_core::Result<OpCost> {
    measure(index, updates.len() as u64, || {
        for &(doc, score) in updates {
            index.update_score(doc, score)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_time_adds_io() {
        let cost = OpCost {
            ops: 10,
            wall_ms: 5.0,
            pages_read: 100,
            pages_written: 40,
        };
        let model = CostModel {
            read_us: 100.0,
            write_us: 25.0,
        };
        // 5ms + 100*0.1ms + 40*0.025ms = 16ms
        assert!((cost.modeled_ms(&model) - 16.0).abs() < 1e-9);
        assert!((cost.modeled_ms_per_op(&model) - 1.6).abs() < 1e-9);
        assert!((cost.pages_per_op() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_ops_safe() {
        let cost = OpCost::default();
        assert_eq!(cost.modeled_ms_per_op(&CostModel::default()), 0.0);
        assert_eq!(cost.wall_ms_per_op(), 0.0);
    }
}
