//! Write-ahead logging and crash recovery.
//!
//! BerkeleyDB — the substrate the paper builds on — gives its B-trees
//! durability through a redo log; this module plays that role for
//! [`Store`](crate::Store)s created with a [`Wal`].
//!
//! Design (physical redo, logical commit):
//!
//! * a buffered page write hands its image to the log, which keeps only
//!   the **latest** image of each page (the buffer pool's own `Bytes`, not
//!   a copy) until the commit that seals it;
//! * each completed structure-level mutation (a B-tree `put`/`delete`, a
//!   blob `put`/`free`) commits: one *page-image record* per page it wrote,
//!   then a *commit marker*, appended together — recovery replays only
//!   batches closed by a marker, so a crash mid-split never resurrects a
//!   half-restructured tree. A page rewritten k times between two commits
//!   is logged once, with its last bytes; a commit with nothing to seal
//!   appends nothing and syncs nothing;
//! * a [`WalBatch`](crate::WalBatch) holds those commits back on a set of
//!   stores and seals each store once, so a multi-op write (a transaction,
//!   an index write, an offline merge) recovers all-or-nothing per store
//!   and logs each page it touched once;
//! * the buffer pool of a logged store runs **no-steal**: dirty pages are
//!   never evicted to disk between commits, so the disk can only lag the
//!   log, never run ahead of it with uncommitted data. That is also why
//!   holding the images back until their commit is still write-ahead: a
//!   dirty page reaches the disk only through a checkpoint's flush, and
//!   checkpoints run between sealed writes;
//! * `checkpoint` = flush every dirty page, then truncate the log. A
//!   store checkpoints itself right after a seal outside any bracket when
//!   its log outgrew the environment's threshold
//!   ([`StorageEnv::set_wal_checkpoint_bytes`](crate::StorageEnv::set_wal_checkpoint_bytes); see
//!   [`Store::log_commit`](crate::Store::log_commit) and
//!   [`WalBatch::finish`](crate::WalBatch::finish)): the one
//!   auto-checkpoint rule, the way a BerkeleyDB environment rather than
//!   each access method decides when a log is checkpointed;
//! * records carry a CRC-32 and recovery stops at the first torn or
//!   corrupt record, exactly like a log whose tail write was interrupted.
//!
//! The images waiting for their commit are volatile state, like the
//! buffer pool they mirror: a crash ([`Store::crash`](crate::Store::crash))
//! and [`Wal::truncate`] drop them.
//!
//! Each log has exactly **one medium**. A [`Wal::new`] log is an in-memory
//! byte buffer (the crash model of this repository keeps "disk" and "log"
//! as the surviving state and the buffer pool as the volatile state). A
//! [`Wal::open_file`] log *is* its file: appends are positional writes at
//! the log's length, recovery reads the file back, and only that length
//! is held in RAM — which is what makes `FileDisk`-backed storage
//! environments recoverable across real process restarts. The failure
//! injections ([`Wal::simulate_torn_tail`],
//! [`Wal::simulate_crash_unsynced_tail`], [`Wal::simulate_corruption`]) act
//! on the medium too, so a file log keeps exactly the damage a real crash
//! would leave when the process restarts.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::os::unix::fs::FileExt;

use bytes::Bytes;

use crate::codec::read_array;
use crate::error::{Result, StorageError};
use crate::page::PageId;
use crate::sync::{LockClass, OrderedMutex};

/// Log sequence number: index of a record in the log since the last
/// truncation.
pub type Lsn = u64;

const REC_PAGE: u8 = 1;
const REC_COMMIT: u8 = 2;

/// Bytes of a page-image record besides the image itself.
const PAGE_RECORD_OVERHEAD: usize = 1 + 8 + 8 + 4 + 4;
/// Bytes of a commit marker.
const COMMIT_RECORD_LEN: usize = 1 + 8 + 4;
/// Log bytes past which a sealed log is checkpointed, unless
/// [`StorageEnv::set_wal_checkpoint_bytes`](crate::StorageEnv::set_wal_checkpoint_bytes)
/// says otherwise.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 1 << 20;
/// A seal hands the medium at most this many bytes per write, so sealing a
/// large batch (a bulk load, a merge) never copies all of it at once.
const SEAL_WRITE_BYTES: usize = 1 << 18;

/// Lookup table of the reflected IEEE polynomial, one entry per byte value.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE), one table lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

fn io_error(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

/// Where a log's bytes live — exactly one place.
enum Medium {
    /// [`Wal::new`]: the log is this buffer.
    Memory(Vec<u8>),
    /// [`Wal::open_file`]: the log is the file; `len` is its logical end,
    /// where the next record is written.
    File { file: std::fs::File, len: u64 },
}

impl Medium {
    fn len(&self) -> u64 {
        match self {
            Medium::Memory(log) => log.len() as u64,
            Medium::File { len, .. } => *len,
        }
    }

    /// Append records. A failed file write leaves `len` where it was, so
    /// the next append overwrites whatever part of them landed.
    fn append(&mut self, records: &[u8]) -> Result<()> {
        match self {
            Medium::Memory(log) => log.extend_from_slice(records),
            Medium::File { file, len } => {
                file.write_all_at(records, *len).map_err(io_error)?;
                *len += records.len() as u64;
            }
        }
        Ok(())
    }

    /// Move the logical end back to `to` (at most the current end) without
    /// touching the file: the next append overwrites what lies past it, as
    /// after a failed [`Medium::append`].
    fn rewind(&mut self, to: u64) {
        match self {
            Medium::Memory(log) => log.truncate(to as usize),
            Medium::File { len, .. } => *len = to,
        }
    }

    /// The whole log (read back from the file for a file medium).
    fn contents(&self) -> Result<Cow<'_, [u8]>> {
        match self {
            Medium::Memory(log) => Ok(Cow::Borrowed(log)),
            Medium::File { file, len } => {
                let mut log = vec![0u8; *len as usize];
                file.read_exact_at(&mut log, 0).map_err(io_error)?;
                Ok(Cow::Owned(log))
            }
        }
    }

    /// Cut the log to its first `keep` bytes (`keep <= len`).
    fn truncate(&mut self, keep: u64) -> Result<()> {
        match self {
            // An emptied buffer gives its high-water capacity back.
            Medium::Memory(log) if keep == 0 => *log = Vec::new(),
            Medium::Memory(log) => log.truncate(keep as usize),
            Medium::File { file, len } => {
                file.set_len(keep).map_err(io_error)?;
                *len = keep;
            }
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        match self {
            Medium::Memory(_) => Ok(()),
            Medium::File { file, .. } => file.sync_data().map_err(io_error),
        }
    }

    fn flip_byte(&mut self, offset: usize) -> Result<()> {
        let len = self.len() as usize;
        let out_of_bounds = StorageError::WalOffsetOutOfBounds { offset, len };
        match self {
            Medium::Memory(log) => *log.get_mut(offset).ok_or(out_of_bounds)? ^= 0xFF,
            Medium::File { file, .. } => {
                if offset >= len {
                    return Err(out_of_bounds);
                }
                let mut byte = [0u8];
                file.read_exact_at(&mut byte, offset as u64)
                    .map_err(io_error)?;
                file.write_all_at(&[byte[0] ^ 0xFF], offset as u64)
                    .map_err(io_error)?;
            }
        }
        Ok(())
    }
}

struct WalInner {
    medium: Medium,
    /// The medium holds bytes a previous process left behind that no walk
    /// has read yet, so `next_lsn`/`records` describe nothing. The first
    /// walk ([`Wal::committed_pages`], run by
    /// [`Store::recover`](crate::Store::recover)) — or, failing that, the
    /// first seal — rebuilds them.
    unscanned: bool,
    next_lsn: Lsn,
    /// The latest image of every page written since the last seal, in page
    /// order: what the next seal appends. Volatile — it shares the buffer
    /// pool's `Bytes` and dies with the pool.
    pending: BTreeMap<PageId, Bytes>,
    /// Total records in the log since the last truncation.
    records: u64,
    /// Nesting depth of [`Wal::begin_batch`] brackets. While positive,
    /// [`Wal::commit`] calls are suppressed so the whole bracket seals as
    /// one atomically recoverable batch at the final [`Wal::end_batch`].
    batch_depth: u32,
    /// Group-sync interval: `0` = fsync the log file on every commit
    /// marker; `> 0` = fsync at most once per this many milliseconds
    /// (commits in between are acknowledged from the OS page cache).
    sync_interval_ms: u64,
    /// Log bytes past which the owning store checkpoints after a seal
    /// outside any bracket.
    checkpoint_bytes: u64,
    /// When the last commit-path sync ran (interval bookkeeping).
    last_sync: Option<std::time::Instant>,
    /// Commit markers that triggered a sync.
    syncs: u64,
    /// Commit markers whose sync was deferred to the interval.
    sync_skips: u64,
    /// Log length at the last commit-path (or explicit) sync: the bytes
    /// guaranteed to survive a crash under the group-sync durability
    /// model. [`Wal::simulate_crash_unsynced_tail`] truncates here.
    synced_len: u64,
}

impl WalInner {
    /// The one walk over the log: validate every record (CRC, LSN
    /// contiguity), rebuild the counters from the valid prefix so appends
    /// continue its sequence, and return the prefix's sealed batches.
    fn walk(&mut self) -> Result<Vec<Vec<(PageId, Bytes)>>> {
        let scan = parse_log(&self.medium.contents()?);
        self.records = scan.records;
        // An empty log keeps counting from where it was: LSNs are never
        // reused across a truncation, so a stale segment spliced behind a
        // fresh one cannot pass the contiguity check.
        if let Some(next_lsn) = scan.next_lsn {
            self.next_lsn = next_lsn;
        }
        self.unscanned = false;
        Ok(scan.batches)
    }

    /// Append every pending image and one commit marker, then run the sync
    /// policy; returns the marker's LSN. With nothing pending there is
    /// nothing to seal: no record, no sync. The counters move and the
    /// pending set empties only once the medium took the whole group, so a
    /// failed write leaves no gap in the LSN sequence and its images wait
    /// for the next seal.
    fn seal(&mut self) -> Result<Lsn> {
        if self.pending.is_empty() {
            return Ok(self.next_lsn);
        }
        if self.unscanned {
            self.walk()?;
        }
        let start = self.medium.len();
        let marker = match append_group(&mut self.medium, &self.pending, self.next_lsn) {
            Ok(marker) => marker,
            Err(e) => {
                self.medium.rewind(start);
                return Err(e);
            }
        };
        self.records += marker + 1 - self.next_lsn;
        self.next_lsn = marker + 1;
        self.pending.clear();
        self.apply_sync_policy()?;
        Ok(marker)
    }

    /// Commit-path sync policy (see [`Wal::set_sync_interval_ms`]). The log
    /// is append-only, so whatever bytes reach the disk are a sealed-batch
    /// prefix of the markers it acknowledged.
    fn apply_sync_policy(&mut self) -> Result<()> {
        let due = match (self.sync_interval_ms, self.last_sync) {
            (0, _) | (_, None) => true,
            (ms, Some(at)) => at.elapsed() >= std::time::Duration::from_millis(ms),
        };
        if due {
            self.syncs += 1;
            self.last_sync = Some(std::time::Instant::now());
            self.medium.sync()?;
            self.synced_len = self.medium.len();
        } else {
            self.sync_skips += 1;
        }
        Ok(())
    }
}

/// Append one record per image of `pages`, numbered from `first`, then the
/// commit marker sealing them, in writes of at most [`SEAL_WRITE_BYTES`]
/// (or one record). Returns the marker's LSN.
fn append_group(medium: &mut Medium, pages: &BTreeMap<PageId, Bytes>, first: Lsn) -> Result<Lsn> {
    let total: usize = pages
        .values()
        .map(|data| PAGE_RECORD_OVERHEAD + data.len())
        .sum::<usize>()
        + COMMIT_RECORD_LEN;
    let mut buf = Vec::with_capacity(total.min(SEAL_WRITE_BYTES));
    let mut lsn = first;
    for (&page_id, data) in pages {
        if !buf.is_empty() && buf.len() + PAGE_RECORD_OVERHEAD + data.len() > SEAL_WRITE_BYTES {
            medium.append(&buf)?;
            buf.clear();
        }
        put_page_record(&mut buf, lsn, page_id, data);
        lsn += 1;
    }
    put_commit_record(&mut buf, lsn);
    medium.append(&buf)?;
    Ok(lsn)
}

/// Counters describing the current log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Bytes in the log since the last checkpoint.
    pub bytes: u64,
    /// Records (page images + commit markers) in the log.
    pub records: u64,
    /// Pages written since the last seal: their images wait in memory for
    /// the commit (or the outermost batch seal) that logs them.
    pub uncommitted: u64,
    /// Commit markers whose append ran the sync policy's fsync.
    pub syncs: u64,
    /// Commit markers whose fsync was deferred by the group-sync interval.
    pub sync_skips: u64,
}

/// The write-ahead log for one store.
pub struct Wal {
    inner: OrderedMutex<WalInner>,
}

impl Default for Wal {
    fn default() -> Self {
        Wal::new()
    }
}

impl Wal {
    /// Create an empty in-memory log.
    pub fn new() -> Wal {
        Wal::over(Medium::Memory(Vec::new()))
    }

    /// Open the log file at `path`, creating it if needed. Bytes a previous
    /// session left behind stay in the file and replay exactly as if the
    /// process had never exited; the first [`Wal::committed_pages`] walk
    /// (which [`Store::recover`](crate::Store::recover) runs when a store
    /// attaches) validates them and rebuilds the counters.
    pub fn open_file(path: &std::path::Path) -> Result<Wal> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_error)?;
        let len = file.metadata().map_err(io_error)?.len();
        Ok(Wal::over(Medium::File { file, len }))
    }

    fn over(medium: Medium) -> Wal {
        let len = medium.len();
        Wal {
            inner: OrderedMutex::new(
                LockClass::Wal,
                WalInner {
                    medium,
                    unscanned: len > 0,
                    next_lsn: 0,
                    pending: BTreeMap::new(),
                    records: 0,
                    batch_depth: 0,
                    sync_interval_ms: 0,
                    checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
                    last_sync: None,
                    syncs: 0,
                    sync_skips: 0,
                    // Bytes found on open survived the previous process:
                    // a simulated crash must not take them away.
                    synced_len: len,
                },
            ),
        }
    }

    /// Hand the log a page image; the commit that seals it appends it. Only
    /// the latest image of a page is kept — `data` itself, not a copy — so
    /// a page rewritten k times between two commits is logged once, with
    /// its last bytes. Nothing reaches the medium here: the no-steal pool
    /// keeps the page off the disk until then (see the module docs).
    pub fn append_page(&self, page_id: PageId, data: Bytes) {
        self.inner.lock().pending.insert(page_id, data);
    }

    /// Seal the pages written since the previous seal into an atomically
    /// recoverable batch: one image record per page, then a commit marker,
    /// then the sync policy. With nothing to seal it appends and syncs
    /// nothing.
    ///
    /// Inside a [`WalBatch`](crate::WalBatch) the commit is *suppressed*:
    /// the structure-level commits of the bracketed mutations coalesce into
    /// the one seal at the end of the batch, so a crash anywhere inside the
    /// bracket recovers to the pre-bracket state. Returns the LSN of the
    /// marker, or the next LSN when none was appended.
    pub fn commit(&self) -> Result<Lsn> {
        let mut inner = self.inner.lock();
        if inner.batch_depth > 0 {
            return Ok(inner.next_lsn);
        }
        inner.seal()
    }

    /// Set the group-sync interval: `0` (sync-every-commit) fsyncs every
    /// commit marker; a positive interval fsyncs at most one marker per
    /// interval and acknowledges the rest unsynced. This log then loses at
    /// most its tail since its last sync, and recovers to a sealed-batch
    /// prefix of what it acknowledged; the clock is per log and advances
    /// only when this log commits.
    pub fn set_sync_interval_ms(&self, ms: u64) {
        self.inner.lock().sync_interval_ms = ms;
    }

    /// Current group-sync interval in milliseconds (`0` = every commit).
    pub fn sync_interval_ms(&self) -> u64 {
        self.inner.lock().sync_interval_ms
    }

    /// Set the auto-checkpoint threshold: once a seal outside any bracket
    /// leaves more than `bytes` in the log, the owning store checkpoints
    /// (see [`Store::log_commit`](crate::Store::log_commit)). `u64::MAX`
    /// turns automatic checkpoints off.
    pub(crate) fn set_checkpoint_bytes(&self, bytes: u64) {
        self.inner.lock().checkpoint_bytes = bytes;
    }

    /// Current auto-checkpoint threshold in log bytes.
    pub(crate) fn checkpoint_bytes(&self) -> u64 {
        self.inner.lock().checkpoint_bytes
    }

    /// Open a commit bracket: until the matching [`Wal::end_batch`],
    /// [`Wal::commit`] calls append nothing, so every page of the
    /// bracketed mutations belongs to one atomically recoverable batch.
    /// Brackets nest; the one seal runs when the outermost one closes. The
    /// only caller is [`WalBatch`](crate::WalBatch), whose lifetime is the
    /// bracket.
    pub(crate) fn begin_batch(&self) {
        self.inner.lock().batch_depth += 1;
    }

    /// Close a [`Wal::begin_batch`] bracket, sealing the batch when the
    /// outermost bracket closes.
    pub(crate) fn end_batch(&self) -> Result<Lsn> {
        let mut inner = self.inner.lock();
        match inner.batch_depth {
            0 => Ok(inner.next_lsn), // unmatched end: nothing to seal
            1 => {
                inner.batch_depth = 0;
                inner.seal()
            }
            _ => {
                inner.batch_depth -= 1;
                Ok(inner.next_lsn)
            }
        }
    }

    /// True while a [`Wal::begin_batch`] bracket is open (checkpointing
    /// mid-bracket would break the bracket's atomicity).
    pub(crate) fn in_batch(&self) -> bool {
        self.inner.lock().batch_depth > 0
    }

    /// Forget the images waiting for their commit, as a crash does: they
    /// lived in memory, beside the buffer pool that loses the pages.
    pub(crate) fn forget_pending(&self) {
        self.inner.lock().pending.clear();
    }

    /// Drop the whole log (the disk image is the new recovery baseline),
    /// and with it every image still waiting for its commit. Only sound
    /// right after the owning store flushed its dirty pages.
    pub fn truncate(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.medium.truncate(0)?;
        inner.unscanned = false;
        inner.pending.clear();
        inner.records = 0;
        inner.synced_len = 0;
        Ok(())
    }

    /// Flush the log file (if any) to stable storage.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.medium.sync()?;
        inner.synced_len = inner.medium.len();
        Ok(())
    }

    /// Current log statistics (O(1): counters, no log parse). Before the
    /// first walk of a reopened log only `bytes` is known; `records` reads
    /// zero.
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock();
        WalStats {
            bytes: inner.medium.len(),
            records: inner.records,
            uncommitted: inner.pending.len() as u64,
            syncs: inner.syncs,
            sync_skips: inner.sync_skips,
        }
    }

    /// The committed page images, in log order: the redo work of recovery.
    /// Parsing stops at the first torn or corrupt record; unsealed batches
    /// are discarded. This walk also rebuilds the log's counters from the
    /// records it accepted.
    pub fn committed_pages(&self) -> Result<Vec<(PageId, Bytes)>> {
        let batches = self.inner.lock().walk()?;
        Ok(batches.into_iter().flatten().collect())
    }

    /// Failure injection for the group-sync window: lose every log byte
    /// appended since the last commit-path (or explicit) sync, as if the
    /// OS page cache perished with the process. With a zero interval this
    /// is a no-op — every commit synced — and with a positive interval it
    /// chops the acknowledged-but-unsynced tail, which recovery treats
    /// exactly like a torn tail (the surviving prefix of sealed batches
    /// replays). Counters are rebuilt from the surviving bytes so the log
    /// keeps working after recovery. Returns the bytes lost.
    pub fn simulate_crash_unsynced_tail(&self) -> Result<usize> {
        let mut inner = self.inner.lock();
        let len = inner.medium.len();
        let keep = inner.synced_len.min(len);
        if keep < len {
            inner.medium.truncate(keep)?;
            inner.walk()?;
        }
        Ok((len - keep) as usize)
    }

    /// Failure injection: lose the last `bytes` of the log, as if the final
    /// write(s) were interrupted mid-sector.
    pub fn simulate_torn_tail(&self, bytes: usize) -> Result<()> {
        let mut inner = self.inner.lock();
        let keep = inner.medium.len().saturating_sub(bytes as u64);
        inner.medium.truncate(keep)
    }

    /// Failure injection: flip one byte at `offset` (corruption must be
    /// caught by the record CRC).
    pub fn simulate_corruption(&self, offset: usize) -> Result<()> {
        self.inner.lock().medium.flip_byte(offset)
    }
}

/// Append `[REC_PAGE][lsn 8][page 8][len 4][data][crc 4]` to `out`.
fn put_page_record(out: &mut Vec<u8>, lsn: Lsn, page_id: PageId, data: &[u8]) {
    let start = out.len();
    out.push(REC_PAGE);
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&page_id.to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Append `[REC_COMMIT][lsn 8][crc 4]` to `out`.
fn put_commit_record(out: &mut Vec<u8>, lsn: Lsn) {
    let start = out.len();
    out.push(REC_COMMIT);
    out.extend_from_slice(&lsn.to_le_bytes());
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// What one walk over a log found.
#[derive(Default)]
struct LogScan {
    /// Page images of each sealed batch of the valid prefix, in log order.
    batches: Vec<Vec<(PageId, Bytes)>>,
    /// False when a torn, corrupt or non-contiguous tail was skipped.
    clean: bool,
    /// Records in the valid prefix.
    records: u64,
    /// The LSN following the prefix's last record (`None`: empty prefix).
    next_lsn: Option<Lsn>,
}

/// Parse the log into committed batches, stopping at the first torn or
/// corrupt record.
///
/// Besides the per-record CRC, replay accepts only a **contiguous,
/// monotonically increasing LSN sequence**: the first record anchors the
/// expectation and every following record must carry exactly the next LSN.
/// A gap or repeat — the signature of a truncate/append race splicing a
/// stale log segment behind a fresh one — stops replay at the last sealed
/// batch before the break, exactly like a torn tail.
fn parse_log(log: &[u8]) -> LogScan {
    let mut scan = LogScan::default();
    let mut current: Vec<(PageId, Bytes)> = Vec::new();
    let mut pos = 0usize;
    scan.clean = loop {
        let Some(&kind) = log.get(pos) else {
            break true;
        };
        // The record body (everything the CRC covers) ends at `body_end`.
        let body_end = match kind {
            REC_PAGE => match log.get(pos + 17..).and_then(<[u8]>::first_chunk) {
                Some(len) => pos + 21 + u32::from_le_bytes(*len) as usize,
                None => break false,
            },
            REC_COMMIT => pos + 9,
            _ => break false,
        };
        let Some(crc_stored) = log.get(body_end..).and_then(<[u8]>::first_chunk) else {
            break false;
        };
        if crc32(&log[pos..body_end]) != u32::from_le_bytes(*crc_stored) {
            break false;
        }
        let lsn = u64::from_le_bytes(read_array(log, pos + 1));
        if scan.next_lsn.is_some_and(|expected| lsn != expected) {
            break false;
        }
        scan.next_lsn = Some(lsn.wrapping_add(1));
        scan.records += 1;
        if kind == REC_PAGE {
            let page_id = u64::from_le_bytes(read_array(log, pos + 9));
            current.push((page_id, Bytes::copy_from_slice(&log[pos + 21..body_end])));
        } else {
            scan.batches.push(std::mem::take(&mut current));
        }
        pos = body_end + 4;
    };
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32 (IEEE): the reference the table must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn page(data: &'static [u8]) -> Bytes {
        Bytes::from_static(data)
    }

    /// The log's bytes, whatever its medium.
    fn log_bytes(wal: &Wal) -> Vec<u8> {
        wal.inner.lock().medium.contents().unwrap().into_owned()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in [0, 1, 4096, 4096 + 21] {
            for _ in 0..8 {
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        // xorshift64: deterministic pseudo-random bytes.
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                assert_eq!(crc32(&data), crc32_bitwise(&data), "len {len}");
            }
        }
    }

    #[test]
    fn committed_batches_replay_in_order() {
        let wal = Wal::new();
        wal.append_page(3, page(b"aaa"));
        wal.append_page(5, page(b"bbb"));
        wal.commit().unwrap();
        wal.append_page(3, page(b"ccc"));
        wal.commit().unwrap();
        let pages = wal.committed_pages().unwrap();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0], (3, page(b"aaa")));
        assert_eq!(pages[2], (3, page(b"ccc")));
    }

    #[test]
    fn a_page_rewritten_between_commits_is_logged_once_with_its_last_bytes() {
        let wal = Wal::new();
        for data in [b"v1", b"v2", b"v3"] {
            wal.append_page(4, Bytes::copy_from_slice(data));
        }
        wal.append_page(2, page(b"other"));
        assert_eq!(wal.stats().uncommitted, 2, "two distinct pages wait");
        wal.commit().unwrap();
        assert_eq!(
            wal.committed_pages().unwrap(),
            vec![(2, page(b"other")), (4, page(b"v3"))]
        );
        let stats = wal.stats();
        assert_eq!((stats.records, stats.uncommitted), (3, 0));
    }

    #[test]
    fn unsealed_batch_is_discarded() {
        let wal = Wal::new();
        wal.append_page(1, page(b"committed"));
        wal.commit().unwrap();
        wal.append_page(2, page(b"in flight"));
        let pages = wal.committed_pages().unwrap();
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].0, 1);
        assert_eq!(wal.stats().uncommitted, 1);
    }

    #[test]
    fn torn_tail_stops_replay_cleanly() {
        let wal = Wal::new();
        wal.append_page(1, page(b"first"));
        wal.commit().unwrap();
        wal.append_page(2, page(b"second"));
        wal.commit().unwrap();
        // Tear into the middle of the second batch's commit record.
        wal.simulate_torn_tail(3).unwrap();
        let pages = wal.committed_pages().unwrap();
        assert_eq!(pages.len(), 1, "only the first sealed batch survives");
    }

    #[test]
    fn corruption_is_detected_by_crc() {
        let wal = Wal::new();
        wal.append_page(1, page(b"payload-bytes"));
        wal.commit().unwrap();
        wal.append_page(2, page(b"later"));
        wal.commit().unwrap();
        // Corrupt a byte inside the first record's payload.
        wal.simulate_corruption(25).unwrap();
        assert!(
            wal.committed_pages().unwrap().is_empty(),
            "corrupt prefix stops recovery"
        );
    }

    #[test]
    fn truncate_resets() {
        let wal = Wal::new();
        wal.append_page(1, page(b"x"));
        wal.commit().unwrap();
        wal.append_page(2, page(b"pending"));
        wal.truncate().unwrap();
        assert!(wal.committed_pages().unwrap().is_empty());
        let stats = wal.stats();
        assert_eq!((stats.bytes, stats.records, stats.uncommitted), (0, 0, 0));
        // The image that waited went with the log: the next commit has
        // nothing to seal.
        wal.commit().unwrap();
        assert_eq!(wal.stats().bytes, 0);
    }

    #[test]
    fn empty_commit_batches_are_fine() {
        let wal = Wal::new();
        wal.commit().unwrap();
        wal.commit().unwrap();
        assert!(wal.committed_pages().unwrap().is_empty());
        // Nothing to seal: no record, no marker, no sync.
        assert_eq!(wal.stats(), WalStats::default());
    }

    #[test]
    fn a_seal_with_nothing_pending_appends_and_syncs_nothing() {
        let wal = Wal::new();
        wal.append_page(1, page(b"a"));
        wal.commit().unwrap();
        let before = wal.stats();
        let bytes = log_bytes(&wal);
        wal.commit().unwrap();
        wal.begin_batch();
        wal.commit().unwrap();
        wal.end_batch().unwrap();
        assert_eq!(wal.stats(), before, "no record and no sync");
        assert_eq!(log_bytes(&wal), bytes);
    }

    #[test]
    fn an_unsealed_bracket_leaves_the_log_byte_identical() {
        let wal = Wal::new();
        wal.append_page(1, page(b"sealed"));
        wal.commit().unwrap();
        let bytes = log_bytes(&wal);
        let records = wal.stats().records;
        wal.begin_batch();
        wal.append_page(1, page(b"rewritten"));
        wal.commit().unwrap(); // suppressed
        wal.append_page(2, page(b"new"));
        wal.commit().unwrap(); // suppressed
        assert_eq!(log_bytes(&wal), bytes, "nothing reached the log");
        assert_eq!(wal.stats().records, records);
        assert_eq!(wal.stats().uncommitted, 2);
        wal.end_batch().unwrap();
        assert_eq!(wal.stats().records, records + 3);
    }

    #[test]
    fn batch_bracket_coalesces_commit_markers() {
        let wal = Wal::new();
        wal.begin_batch();
        wal.append_page(1, page(b"a"));
        wal.commit().unwrap(); // suppressed
        wal.append_page(2, page(b"b"));
        wal.commit().unwrap(); // suppressed
        wal.append_page(1, page(b"a2"));
        wal.commit().unwrap(); // suppressed
        assert!(wal.in_batch());
        // Nothing is recoverable until the bracket closes.
        assert!(wal.committed_pages().unwrap().is_empty());
        wal.end_batch().unwrap();
        assert!(!wal.in_batch());
        let pages = wal.committed_pages().unwrap();
        assert_eq!(pages, vec![(1, page(b"a2")), (2, page(b"b"))]);
        // One image per page and one marker for the three suppressed ones.
        assert_eq!(wal.stats().records, 3);
    }

    #[test]
    fn nested_batch_brackets_seal_once() {
        let wal = Wal::new();
        wal.begin_batch();
        wal.append_page(1, page(b"outer"));
        wal.begin_batch();
        wal.append_page(2, page(b"inner"));
        wal.end_batch().unwrap();
        assert!(
            wal.committed_pages().unwrap().is_empty(),
            "inner end seals nothing"
        );
        wal.end_batch().unwrap();
        assert_eq!(wal.committed_pages().unwrap().len(), 2);
    }

    #[test]
    fn unmatched_end_batch_is_a_noop() {
        let wal = Wal::new();
        wal.append_page(1, page(b"x"));
        let records_before = wal.stats().records;
        wal.end_batch().unwrap();
        assert_eq!(wal.stats().records, records_before, "no marker appended");
        assert!(wal.committed_pages().unwrap().is_empty());
    }

    #[test]
    fn lsn_gap_stops_replay() {
        // Batch 0 (lsn 0..=2) is intact; a truncate/append race spliced a
        // record with lsn 9 behind it. Replay keeps the sealed batch and
        // reports the log unclean.
        let mut log = Vec::new();
        put_page_record(&mut log, 0, 1, b"good");
        put_page_record(&mut log, 1, 2, b"good");
        put_commit_record(&mut log, 2);
        put_page_record(&mut log, 9, 3, b"stale");
        put_commit_record(&mut log, 10);
        let scan = parse_log(&log);
        assert!(!scan.clean, "an lsn gap must mark the log unclean");
        assert_eq!(scan.batches.len(), 1, "only the contiguous prefix replays");
        assert_eq!(scan.batches[0].len(), 2);
        assert_eq!((scan.records, scan.next_lsn), (3, Some(3)));
    }

    #[test]
    fn lsn_repeat_stops_replay() {
        // A stale segment replaying an already-seen LSN must not replay its
        // (older) page images over the newer committed state.
        let mut log = Vec::new();
        put_page_record(&mut log, 0, 1, b"new");
        put_commit_record(&mut log, 1);
        put_page_record(&mut log, 1, 1, b"stale");
        put_commit_record(&mut log, 2);
        let scan = parse_log(&log);
        assert!(!scan.clean);
        assert_eq!(scan.batches.len(), 1);
        assert_eq!(scan.batches[0][0].1, page(b"new"));
    }

    #[test]
    fn contiguous_lsns_starting_past_zero_replay() {
        // After a checkpoint the log restarts at a nonzero LSN: the first
        // record anchors the sequence, contiguity is all that matters.
        let mut log = Vec::new();
        put_page_record(&mut log, 7, 1, b"a");
        put_page_record(&mut log, 8, 2, b"b");
        put_commit_record(&mut log, 9);
        put_page_record(&mut log, 10, 3, b"open");
        let scan = parse_log(&log);
        assert!(scan.clean);
        assert_eq!(scan.batches.len(), 1);
        assert_eq!(scan.batches[0].len(), 2);
        assert_eq!((scan.records, scan.next_lsn), (4, Some(11)));
    }

    #[test]
    fn sync_policy_counts_syncs_and_skips() {
        let wal = Wal::new();
        wal.append_page(1, page(b"a"));
        wal.commit().unwrap();
        assert_eq!(wal.stats().syncs, 1, "interval 0 syncs every commit");
        assert_eq!(wal.stats().sync_skips, 0);
        // A long interval with a sync just recorded: commits defer.
        wal.set_sync_interval_ms(60_000);
        wal.append_page(2, page(b"b"));
        wal.commit().unwrap();
        assert_eq!(wal.stats().syncs, 1);
        assert_eq!(wal.stats().sync_skips, 1);
        // Back to sync-every-commit.
        wal.set_sync_interval_ms(0);
        wal.append_page(3, page(b"c"));
        wal.commit().unwrap();
        assert_eq!(wal.stats().syncs, 2);
        assert_eq!(wal.sync_interval_ms(), 0);
    }

    #[test]
    fn corruption_offset_out_of_bounds_is_a_wal_error() {
        let wal = Wal::new();
        wal.append_page(1, page(b"xyz"));
        wal.commit().unwrap();
        let len = wal.stats().bytes as usize;
        assert_eq!(
            wal.simulate_corruption(len + 5),
            Err(StorageError::WalOffsetOutOfBounds {
                offset: len + 5,
                len
            })
        );
        // In-bounds flips still work.
        wal.simulate_corruption(len - 1).unwrap();
    }

    /// After a crash and recovery, the next commit logs only what was
    /// written since: the images that waited when the crash hit died with
    /// the buffer pool.
    #[test]
    fn a_crash_forgets_the_images_waiting_for_their_commit() {
        use crate::disk::MemDisk;
        use crate::pool::Store;
        use std::sync::Arc;

        let store = Store::new_logged(Arc::new(MemDisk::new(256)), 8, Arc::new(Wal::new()));
        let ids: Vec<PageId> = (0..3).map(|_| store.allocate().unwrap()).collect();
        store.write_page(ids[0], page(b"sealed")).unwrap();
        store.log_commit().unwrap();
        store.write_page(ids[1], page(b"lost")).unwrap();
        store.crash();
        store.recover().unwrap();
        assert_eq!(store.read_page(ids[0]).unwrap(), page(b"sealed"));
        store.write_page(ids[2], page(b"after")).unwrap();
        store.log_commit().unwrap();
        let wal = store.wal().unwrap();
        assert_eq!(
            wal.committed_pages().unwrap(),
            vec![(ids[2], page(b"after"))]
        );
    }

    fn temp_log(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("svr-wal-test-{}-{name}.wal", std::process::id()));
        if path.exists() {
            std::fs::remove_file(&path).unwrap();
        }
        path
    }

    #[test]
    fn file_log_reopens_into_its_lsn_sequence() {
        let path = temp_log("reopen");
        {
            let wal = Wal::open_file(&path).unwrap();
            wal.append_page(1, page(b"a"));
            wal.commit().unwrap();
            // Never sealed: it dies with the process.
            wal.append_page(2, page(b"open"));
        }
        let file_len = std::fs::metadata(&path).unwrap().len();
        let wal = Wal::open_file(&path).unwrap();
        assert_eq!(wal.stats().bytes, file_len, "the file is the log");
        assert_eq!(wal.committed_pages().unwrap().len(), 1);
        let stats = wal.stats();
        assert_eq!((stats.records, stats.uncommitted), (2, 0));
        // Appends continue the on-disk LSN sequence, so replay reaches them.
        wal.append_page(2, page(b"b"));
        wal.commit().unwrap();
        assert_eq!(wal.committed_pages().unwrap().len(), 2);
        // Failure injection lands in the file: a process restart keeps it.
        wal.simulate_corruption(0).unwrap();
        drop(wal);
        let wal = Wal::open_file(&path).unwrap();
        assert!(wal.committed_pages().unwrap().is_empty());
        wal.truncate().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appending_before_the_first_walk_continues_the_sequence() {
        let path = temp_log("unscanned");
        {
            let wal = Wal::open_file(&path).unwrap();
            wal.append_page(1, page(b"a"));
            wal.commit().unwrap();
        }
        let wal = Wal::open_file(&path).unwrap();
        wal.append_page(2, page(b"b"));
        wal.commit().unwrap();
        assert_eq!(wal.committed_pages().unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    /// `/dev/full` fails every write with `ENOSPC`: the log must say so,
    /// and keep the images for a later seal.
    #[cfg(target_os = "linux")]
    #[test]
    fn full_disk_fails_appends_and_commits() {
        let wal = Wal::open_file(std::path::Path::new("/dev/full")).unwrap();
        wal.append_page(1, page(b"lost"));
        assert!(matches!(wal.commit(), Err(StorageError::Io(_))));
        wal.begin_batch();
        assert!(matches!(wal.end_batch(), Err(StorageError::Io(_))));
        let stats = wal.stats();
        assert_eq!(
            (stats.bytes, stats.records, stats.syncs),
            (0, 0, 0),
            "no record was taken"
        );
        assert_eq!(stats.uncommitted, 1, "the image waits for the next seal");
    }
}
