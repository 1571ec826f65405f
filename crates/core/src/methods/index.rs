//! The one index body: `N >= 1` document-partitioned shards of a method.
//!
//! The paper's deployment is single-writer — one update stream from the
//! materialized Score view — so every structure in §4 assumes at most one
//! mutator, and the method implementations use streaming B+-tree cursors
//! that assume no concurrent structural mutation (the same discipline
//! BerkeleyDB enforces with page latches and cursor stability). [`Index`]
//! provides that discipline and lifts the single-writer limit: the
//! collection is hash-partitioned by **document id** into `N` shards, and
//! each shard is a complete method instance (its own Score-table region,
//! short-list store, long-list store, chunk map and maintenance state)
//! behind an independent reader/writer lock. Score updates, insertions,
//! deletions and content updates touch exactly one shard, so writers of
//! documents in different shards run in parallel; batch refreshes group
//! their documents by shard and apply the groups concurrently. `N = 1` is
//! the paper's layout: one shard, one writer at a time, queries sharing
//! the read lock.
//!
//! Partitioning by document (not by term) is what keeps rankings exact:
//!
//! * every shard holds the *complete* postings of its documents, so the
//!   conjunctive merge alignment of [`crate::merge::MultiMerge`] — which
//!   matches a document across per-term streams at one list position —
//!   never spans shards;
//! * a top-k query runs the method's own early-terminating algorithm
//!   inside each shard and the per-shard top-k results are merged: the
//!   global top-k is a subset of the union of the shard top-k sets, so the
//!   merged answer equals the unsharded one;
//! * document frequencies and the live document count are shared across
//!   shards ([`CorpusStats`]), so the term-score methods compute the same
//!   collection-wide IDF at any shard count.
//!
//! All shards live in one [`StorageEnv`] — a single shard directly under
//! the index's prefix, several under per-shard `shard-<s>/` prefixes — so
//! I/O accounting and the cold-cache query protocol work at any `N`.
//!
//! Every mutating entry point — score updates and refreshes, inserts,
//! deletes and their undo forms, content updates, the offline merge — runs
//! through one helper, `Shard::write`: the shard's write lock, then one
//! [`WalBatch`] over the shard's logged stores, sealed before the lock is
//! released. However many structure-level mutations a write makes (a Chunk
//! move rewrites the Score row, up to 2T short-list postings and the
//! ListChunk row), each store it changed seals once — one image per page it
//! touched, one commit marker, and at the default sync interval one fsync —
//! and a store it left alone appends nothing. A crash before a store's seal
//! recovers that store to its state before the write; the stores seal one
//! after another, so a write is atomic per store, not across stores. A
//! store whose log outgrew the environment's threshold checkpoints right
//! after its seal, still under the write lock, so no other writer's pages
//! are in flight.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex};

use svr_storage::sync::{LockClass, OrderedRwLock};
use svr_storage::{StorageEnv, Store, WalBatch};

use crate::config::IndexConfig;
use crate::cursor::{self, MergeState, MethodCursor, ShardSlot};
use crate::error::{CoreError, Result};
use crate::heap::{ranks_above, TopKHeap};
use crate::methods::base::{CorpusStats, ShardContext};
use crate::methods::{
    IndexLocation, Method, MethodKind, RefreshGroupStats, ScoreMap, SearchIndex, Seq, ShardStats,
};
use crate::multiterm::SeekStats;
use crate::types::{DocId, Document, Query, Score, SearchHit, TermId};

/// The shard owning `doc` among `num_shards` partitions. Fibonacci hashing
/// spreads sequential primary keys evenly instead of striping them.
#[inline]
pub fn shard_of_doc(doc: DocId, num_shards: usize) -> usize {
    if num_shards <= 1 {
        return 0;
    }
    (doc.0.wrapping_mul(0x9E37_79B1) >> 16) as usize % num_shards
}

/// Where [`Index`] ids come from: each attach draws the next one.
static NEXT_INDEX_ID: AtomicU64 = AtomicU64::new(0);

/// An index of method `M`: `N >= 1` complete method instances, each behind
/// its own lock. Built through [`crate::build_index`] /
/// [`crate::build_index_at`], reattached through [`crate::open_index_at`].
pub(crate) struct Index<M> {
    /// Unique within the process: binds the cursors this index opens.
    id: u64,
    env: Arc<StorageEnv>,
    stats: Arc<CorpusStats>,
    shards: Vec<Shard<M>>,
    /// Group-commit draining of deferred refreshes (see
    /// [`SearchIndex::set_group_refresh`]).
    group_refresh: AtomicBool,
}

/// One write shard: a method instance, its logged stores, the lock that
/// serializes its mutations against each other and against its readers,
/// and the refresh batches queued on that lock.
struct Shard<M> {
    method: M,
    /// The logged stores among `M::STORES`, resolved once: what every
    /// write's WAL batch brackets and what checkpoint gating polls.
    stores: Vec<Arc<Store>>,
    /// Guards the shard; holds the last refresh [`Seq`] applied per
    /// document (in memory only, empty at open).
    lock: OrderedRwLock<HashMap<DocId, Seq>>,
    group: GroupQueue,
}

/// One queued refresh batch: the score changes plus a slot its owner
/// blocks on until some lock holder (the owner itself, or a peer draining
/// the queue) deposits the batch's result.
struct RefreshTicket {
    refreshes: Vec<(DocId, Score, Seq)>,
    result: Mutex<Option<Result<()>>>,
    done: Condvar,
}

/// The group-commit refresh queue of one shard.
#[derive(Default)]
struct GroupQueue {
    queue: Mutex<VecDeque<Arc<RefreshTicket>>>,
    enqueued: AtomicU64,
    applied: AtomicU64,
    drain_holds: AtomicU64,
    max_depth: AtomicU64,
}

/// Cap on batches one lock hold may drain, so a single writer cannot be
/// conscripted into applying the whole fleet's refreshes indefinitely
/// under sustained load.
const MAX_DRAIN_PER_HOLD: usize = 128;

/// Unwrap a refresh-queue lock result.
#[expect(
    clippy::expect_used,
    reason = "poisoned = a peer panicked mid-update; dying is the safe response"
)]
fn unpoisoned<T>(result: LockResult<T>) -> T {
    result.expect("refresh queue poisoned")
}

/// Split the corpus into one `(docs, scores)` partition per shard — one
/// pass over the corpus, and no copy at all when there is a single shard.
#[allow(clippy::type_complexity)]
fn partition<'a>(
    docs: &'a [Document],
    scores: &'a ScoreMap,
    n: usize,
) -> Vec<(Cow<'a, [Document]>, Cow<'a, ScoreMap>)> {
    if n == 1 {
        return vec![(Cow::Borrowed(docs), Cow::Borrowed(scores))];
    }
    let mut parts: Vec<(Vec<Document>, ScoreMap)> = (0..n).map(|_| Default::default()).collect();
    for doc in docs {
        let (shard_docs, shard_scores) = &mut parts[shard_of_doc(doc.id, n)];
        if let Some(&score) = scores.get(&doc.id) {
            shard_scores.insert(doc.id, score);
        }
        shard_docs.push(doc.clone());
    }
    parts
        .into_iter()
        .map(|(d, s)| (Cow::Owned(d), Cow::Owned(s)))
        .collect()
}

impl<M: Method> Index<M> {
    /// Build every shard over its partition of `corpus`, or — `None` —
    /// reattach every shard from its recovered stores, in the environment
    /// and under the prefix `loc` names, sharing one [`CorpusStats`]. The
    /// shard count comes from `config` (the engine persists the build
    /// configuration for reopening).
    pub(crate) fn attach(
        loc: &IndexLocation,
        corpus: Option<(&[Document], &ScoreMap)>,
        config: &IndexConfig,
    ) -> Result<Index<M>> {
        let n = config.num_shards;
        let stats = Arc::new(CorpusStats::default());
        let durable = corpus.is_none() || loc.env.is_durable();
        let ctx = |shard| ShardContext::shard(loc, &stats, shard, n, durable);
        let methods: Vec<M> = match corpus {
            Some((docs, scores)) => partition(docs, scores, n)
                .iter()
                .enumerate()
                .map(|(s, (docs, scores))| M::build_in(ctx(s), docs, scores, config))
                .collect::<Result<_>>()?,
            None => (0..n)
                .map(|s| M::open_in(ctx(s), config))
                .collect::<Result<_>>()?,
        };
        Ok(Index {
            id: NEXT_INDEX_ID.fetch_add(1, Ordering::Relaxed),
            env: loc.env.clone(),
            stats,
            shards: methods
                .into_iter()
                .map(|method| Shard {
                    stores: M::STORES
                        .iter()
                        .filter_map(|name| method.base().store(name))
                        .filter(|store| store.wal().is_some())
                        .collect(),
                    method,
                    lock: OrderedRwLock::new(LockClass::Shard, HashMap::new()),
                    group: GroupQueue::default(),
                })
                .collect(),
            group_refresh: AtomicBool::new(false),
        })
    }

    #[inline]
    fn shard(&self, doc: DocId) -> &Shard<M> {
        &self.shards[shard_of_doc(doc, self.shards.len())]
    }
}

/// Run `f` on every job — inline for at most one, one thread per job
/// otherwise (each job is one shard's work under that shard's own lock).
fn in_parallel<T: Send>(jobs: Vec<T>, f: impl Fn(T) -> Result<()> + Sync) -> Result<()> {
    if jobs.len() <= 1 {
        return jobs.into_iter().try_for_each(f);
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| scope.spawn(move || f(job)))
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(result) => result?,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        Ok(())
    })
}

impl<M: Method> Shard<M> {
    /// One write of this shard: `f` under the write lock, inside one WAL
    /// batch (see the module docs).
    fn write<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let _shard_guard = self.lock.write();
        self.batched(f)
    }

    /// Run `f` inside one WAL batch over the shard's logged stores; the
    /// caller holds the write lock. The batch seals even when `f` fails,
    /// and `f`'s error wins. A seal error fails a write that succeeded:
    /// recovery would roll it back. So does the error of the checkpoint a
    /// store runs after its seal once its log outgrew the threshold,
    /// although the write stays committed.
    fn batched<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let batch = WalBatch::begin(self.stores.iter().cloned());
        let result = f();
        let sealed = batch.finish();
        let value = result?;
        sealed?;
        Ok(value)
    }

    /// Open this shard's slice of an enumeration of `query`, stamped with
    /// the long-list epoch its positions belong to; the caller holds the
    /// read lock.
    fn open_cursor(&self, query: &Query) -> Result<MergeState> {
        let mut state = self.method.open_cursor(query)?;
        state.epoch = self.method.long_epoch();
        Ok(state)
    }

    /// The offline merge, as one write: each store commits once however
    /// many lists it rewrites and keys it clears, and a crash before the
    /// seal recovers the whole pre-merge shard.
    fn merge(&self) -> Result<()> {
        self.write(|| self.method.merge_short_lists())
    }

    /// Apply one refresh batch, skipping each change older than the last
    /// one `applied` to its document; the caller holds the write lock (whose
    /// map `applied` is) and the WAL batch.
    fn apply_refresh(
        &self,
        applied: &mut HashMap<DocId, Seq>,
        refreshes: &[(DocId, Score, Seq)],
    ) -> Result<()> {
        for &(doc, score, seq) in refreshes {
            let last = applied.entry(doc).or_insert(seq);
            if *last > seq {
                continue;
            }
            *last = seq;
            match self.method.update_score(doc, score) {
                Ok(()) | Err(CoreError::UnknownDocument(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The group-commit refresh path: queue the batch, then either win the
    /// writer lock and drain the queue under that one hold, or wait for a
    /// winning peer to deposit this batch's result. One hold is one WAL
    /// batch: the drained tickets get their results only once it sealed,
    /// and a seal error goes to every one of them.
    fn refresh_grouped(&self, refreshes: Vec<(DocId, Score, Seq)>) -> Result<()> {
        let ticket = Arc::new(RefreshTicket {
            refreshes,
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        {
            let mut queue = unpoisoned(self.group.queue.lock());
            queue.push_back(ticket.clone());
            self.group.enqueued.fetch_add(1, Ordering::Relaxed);
            self.group
                .max_depth
                .fetch_max(queue.len() as u64, Ordering::Relaxed);
        }
        loop {
            if let Some(result) = unpoisoned(ticket.result.lock()).take() {
                return result;
            }
            if let Some(mut applied) = self.lock.try_write() {
                let mut drained = Vec::new();
                let sealed = self.batched(|| {
                    while drained.len() < MAX_DRAIN_PER_HOLD {
                        let next = unpoisoned(self.group.queue.lock()).pop_front();
                        let Some(t) = next else { break };
                        let result = self.apply_refresh(&mut applied, &t.refreshes);
                        drained.push((t, result));
                    }
                    Ok(())
                });
                if !drained.is_empty() {
                    self.group.drain_holds.fetch_add(1, Ordering::Relaxed);
                    self.group
                        .applied
                        .fetch_add(drained.len() as u64, Ordering::Relaxed);
                }
                for (t, result) in drained {
                    *unpoisoned(t.result.lock()) = Some(result.and(sealed.clone()));
                    t.done.notify_all();
                }
                // Own ticket was normally among the drained; if a peer beat
                // us to it (or the per-hold cap left it queued), loop.
            } else {
                let slot = unpoisoned(ticket.result.lock());
                if slot.is_none() {
                    // Bounded wait: a racing holder may resolve the ticket
                    // between the check and the wait; the timeout self-heals
                    // a missed notification.
                    let _ = unpoisoned(
                        ticket
                            .done
                            .wait_timeout(slot, std::time::Duration::from_millis(1)),
                    );
                }
            }
        }
    }
}

impl<M: Method> SearchIndex for Index<M> {
    fn kind(&self) -> MethodKind {
        M::KIND
    }

    fn update_score(&self, doc: DocId, new_score: Score) -> Result<()> {
        let shard = self.shard(doc);
        shard.write(|| shard.method.update_score(doc, new_score))
    }

    fn refresh_scores(&self, refreshes: &[(DocId, Score, Seq)]) -> Result<()> {
        let n = self.shards.len();
        let mut groups: Vec<Vec<(DocId, Score, Seq)>> = vec![Vec::new(); n];
        for &refresh in refreshes {
            groups[shard_of_doc(refresh.0, n)].push(refresh);
        }
        let grouped = self.group_refresh.load(Ordering::Relaxed);
        let touched = self
            .shards
            .iter()
            .zip(groups)
            .filter(|(_, group)| !group.is_empty())
            .collect();
        in_parallel(touched, |(shard, group)| {
            if grouped {
                return shard.refresh_grouped(group);
            }
            // One write for the whole batch.
            let mut applied = shard.lock.write();
            shard.batched(|| shard.apply_refresh(&mut applied, &group))
        })
    }

    /// One suspended enumeration per shard; batches k-way-merge them lazily.
    fn open_cursor(&self, query: &Query) -> Result<MethodCursor> {
        let slots = self
            .shards
            .iter()
            .map(|shard| {
                let _shard_guard = shard.lock.read();
                Ok(ShardSlot {
                    state: shard.open_cursor(query)?,
                    buf: VecDeque::new(),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(MethodCursor {
            kind: M::KIND,
            index: self.id,
            query: query.clone(),
            slots,
        })
    }

    /// k-way merge over the per-shard enumerations: each emission takes the
    /// best buffered head across shards, and a shard is pulled (under its
    /// own read lock, in request-sized batches) only when its buffer runs
    /// dry — the merge never pays for ranks a shard is not asked for. Each
    /// pull runs under one read-lock acquisition, so it is individually
    /// snapshot-consistent, and no lock is held while the cursor is
    /// suspended between batches.
    ///
    /// The one restart rule: a pull that finds the shard's long-list epoch
    /// moved (an offline merge rebuilt the lists) re-opens the shard's
    /// slice on the new lists and carries over what it already resolved
    /// (`MergeState::restart`); no stream position is ever resumed across
    /// an epoch.
    fn next_batch(&self, cursor: &mut MethodCursor, n: usize) -> Result<Vec<SearchHit>> {
        if cursor.index != self.id {
            return Err(CoreError::Unsupported(
                "cursor was opened by a different index",
            ));
        }
        let mut out = Vec::with_capacity(n.min(64));
        while out.len() < n {
            for (shard, slot) in self.shards.iter().zip(cursor.slots.iter_mut()) {
                if slot.buf.is_empty() && !slot.state.is_drained() {
                    let _shard_guard = shard.lock.read();
                    if slot.state.epoch != shard.method.long_epoch() {
                        slot.state.restart(shard.open_cursor(&cursor.query)?);
                    }
                    slot.buf.extend(cursor::run(
                        &shard.method,
                        &cursor.query,
                        &mut slot.state,
                        n - out.len(),
                    )?);
                }
            }
            let best = cursor
                .slots
                .iter_mut()
                .filter_map(|slot| slot.buf.front().copied().map(|hit| (hit, slot)))
                .reduce(|a, b| if ranks_above(&b.0, &a.0) { b } else { a });
            match best {
                None => break,
                Some((hit, slot)) => {
                    slot.buf.pop_front();
                    out.push(hit);
                }
            }
        }
        Ok(out)
    }

    /// Fan out to every shard and merge the per-shard top-k sets. Each
    /// shard runs the method's own early-terminating algorithm over its
    /// complete per-document postings (one read-lock acquisition for open +
    /// drain), so the merged ranking equals the unsharded one.
    fn query(&self, query: &Query) -> Result<Vec<SearchHit>> {
        let mut heap = TopKHeap::new(query.k);
        for shard in &self.shards {
            let _shard_guard = shard.lock.read();
            for hit in shard.method.query(query)? {
                heap.add(hit.doc, hit.score);
            }
        }
        Ok(heap.into_ranked())
    }

    fn insert_document(&self, doc: &Document, score: Score) -> Result<()> {
        let shard = self.shard(doc.id);
        shard.write(|| shard.method.insert_document(doc, score))
    }

    fn delete_document(&self, doc: DocId) -> Result<()> {
        let shard = self.shard(doc);
        shard.write(|| shard.method.delete_document(doc))
    }

    fn uninsert_document(&self, doc: DocId) -> Result<()> {
        let shard = self.shard(doc);
        shard.write(|| shard.method.uninsert_document(doc))
    }

    fn undelete_document(&self, doc: DocId) -> Result<()> {
        let shard = self.shard(doc);
        shard.write(|| shard.method.undelete_document(doc))
    }

    fn update_content(&self, doc: &Document) -> Result<()> {
        let shard = self.shard(doc.id);
        shard.write(|| shard.method.update_content(doc))
    }

    /// Shard `s`'s merge only excludes writers of shard `s`, so maintenance
    /// of a busy collection never stalls every writer at once.
    fn merge_short_lists(&self) -> Result<()> {
        in_parallel(self.shards.iter().collect(), Shard::merge)
    }

    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn merge_shard(&self, shard: usize) -> Result<()> {
        let shard = self
            .shards
            .get(shard)
            .ok_or(CoreError::Unsupported("shard index out of range"))?;
        shard.merge()
    }

    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                let _shard_guard = shard.lock.read();
                let (long_list_bytes, long_postings, short_postings) = shard.method.list_sizes();
                ShardStats {
                    shard: s,
                    docs: shard.method.base().live_docs(),
                    long_list_bytes,
                    long_postings,
                    short_postings,
                }
            })
            .collect()
    }

    fn long_list_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.method.list_sizes().0).sum()
    }

    fn clear_long_cache(&self) -> Result<()> {
        for shard in &self.shards {
            let _shard_guard = shard.lock.write();
            shard.method.clear_long_cache()?;
        }
        Ok(())
    }

    fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    fn current_score(&self, doc: DocId) -> Result<Score> {
        let shard = self.shard(doc);
        let _shard_guard = shard.lock.read();
        shard.method.base().current_score(doc)
    }

    fn term_dfs(&self) -> Vec<(TermId, u64)> {
        self.stats.term_dfs()
    }

    fn corpus_num_docs(&self) -> u64 {
        self.stats.num_docs()
    }

    fn set_group_refresh(&self, enabled: bool) {
        self.group_refresh.store(enabled, Ordering::Relaxed);
    }

    fn group_refresh_enabled(&self) -> bool {
        self.group_refresh.load(Ordering::Relaxed)
    }

    fn refresh_group_stats(&self) -> RefreshGroupStats {
        let mut total = RefreshGroupStats::default();
        for shard in &self.shards {
            let group = &shard.group;
            total.merge(&RefreshGroupStats {
                enqueued: group.enqueued.load(Ordering::Relaxed),
                applied: group.applied.load(Ordering::Relaxed),
                drain_holds: group.drain_holds.load(Ordering::Relaxed),
                max_depth: group.max_depth.load(Ordering::Relaxed),
                depth: unpoisoned(group.queue.lock()).len() as u64,
            });
        }
        total
    }

    fn seek_stats(&self) -> SeekStats {
        self.shards
            .iter()
            .fold(SeekStats::default(), |acc, s| acc + s.method.seek_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in [1usize, 2, 3, 8] {
            for id in 0..1_000u32 {
                let s = shard_of_doc(DocId(id), n);
                assert!(s < n);
                assert_eq!(s, shard_of_doc(DocId(id), n), "stable");
            }
        }
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for id in 0..4_000u32 {
            counts[shard_of_doc(DocId(id), n)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > 4_000 / n / 2 && c < 4_000 / n * 2,
                "shard {s} unbalanced: {c}"
            );
        }
    }
}
