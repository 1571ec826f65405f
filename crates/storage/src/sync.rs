//! Instrumented, rank-ordered lock wrappers — the workspace's lock layer.
//!
//! Every lock that participates in the engine's tiered locking discipline
//! (see the `svr_engine` module docs for the full rank table) is wrapped in
//! an [`OrderedMutex`] or [`OrderedRwLock`] carrying a [`LockClass`]. The
//! wrappers do two jobs:
//!
//! 1. **Contention telemetry (always on).** Every acquisition counts into a
//!    process-wide per-class counter set: acquisitions, contended
//!    acquisitions (the uncontended `try_lock` fast path failed), cumulative
//!    nanoseconds spent waiting for the lock, and cumulative nanoseconds the
//!    lock was held. [`lock_stats`] snapshots the counters;
//!    [`LockStats::delta_since`] turns two snapshots into a per-window
//!    reading (how the bench experiments report per-point lock columns).
//!
//! 2. **Runtime lock-order validation (`debug_assertions` only).** Each
//!    thread keeps a stack of the classes it currently holds. Acquiring a
//!    lock whose rank is *lower* than the highest rank already held panics
//!    immediately with both class names — turning every debug-build test
//!    (the whole stress/proptest suite) into a deadlock-ordering validator.
//!    Same-rank re-acquisition is permitted: same-class acquisitions follow
//!    a deterministic order by construction (table locks are taken in
//!    sorted name order, shard cursors open shards in ascending index
//!    order), which rules out same-class cycles without needing distinct
//!    ranks per instance.
//!
//! The counters are process-wide, not per-lock-instance: the point is a
//! cheap, always-on view of *which tier* is hot, matching how the paper's
//! update-intensive workloads stress the two-tier write path. Release
//! builds pay two `Instant::now` calls plus a handful of relaxed atomic
//! adds per acquisition; the rank stack compiles out entirely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The lock tiers of the workspace, in acquisition-rank order. A thread may
/// only acquire a lock whose rank is **at least** the highest rank it
/// already holds (see the module docs for the same-rank rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockClass {
    /// Tier 1: a per-table writer lock (`svr_engine`). Held across row +
    /// view mutation and structural index operations; every other tracked
    /// class may be acquired under it, and it may be acquired under none.
    Table = 0,
    /// Tier 2: a per-shard index writer/reader lock (one per shard of
    /// `svr_core`'s index body, `methods::index`). Score refreshes
    /// and maintenance take only this tier; acquiring a table lock while
    /// holding one is the classic two-tier deadlock. The validator rejects
    /// it at run time, and the crate graph rules it out at build time: the
    /// guard is private to `svr_core`, which depends on no crate that has a
    /// table lock.
    Shard = 1,
    /// A store's checkpoint lock (`Store::checkpoint`): serializes
    /// flush+truncate against concurrent checkpointers. Taken under table
    /// or shard locks by the auto-checkpoint paths.
    Checkpoint = 2,
    /// A write-ahead log's internal state lock (`Wal`). The leaf of the
    /// tracked hierarchy: every page append and commit marker passes
    /// through it, under any of the classes above.
    Wal = 3,
}

/// Number of lock classes (size of the counter table).
pub const LOCK_CLASS_COUNT: usize = 4;

impl LockClass {
    /// Every class, in rank order.
    pub const ALL: [LockClass; LOCK_CLASS_COUNT] = [
        LockClass::Table,
        LockClass::Shard,
        LockClass::Checkpoint,
        LockClass::Wal,
    ];

    /// Stable lowercase name (JSON payloads, bench columns).
    pub fn name(self) -> &'static str {
        match self {
            LockClass::Table => "table",
            LockClass::Shard => "shard",
            LockClass::Checkpoint => "checkpoint",
            LockClass::Wal => "wal",
        }
    }

    /// The class's rank in the lock-order table: a thread may only
    /// acquire a lock whose rank is ≥ the highest rank it already holds.
    pub fn rank(self) -> u8 {
        self as u8
    }
}

impl std::fmt::Display for LockClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One class's live counters.
#[derive(Default)]
struct ClassCounters {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_nanos: AtomicU64,
    hold_nanos: AtomicU64,
}

/// Process-wide counter table, indexed by `LockClass as usize`.
static COUNTERS: [ClassCounters; LOCK_CLASS_COUNT] = [
    ClassCounters::new(),
    ClassCounters::new(),
    ClassCounters::new(),
    ClassCounters::new(),
];

impl ClassCounters {
    const fn new() -> ClassCounters {
        ClassCounters {
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait_nanos: AtomicU64::new(0),
            hold_nanos: AtomicU64::new(0),
        }
    }
}

/// Snapshot of one class's counters (see [`lock_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockClassStats {
    /// Total acquisitions (read and write, contended or not).
    pub acquisitions: u64,
    /// Acquisitions whose uncontended fast path failed — somebody else
    /// held (or queued on) the lock.
    pub contended: u64,
    /// Cumulative nanoseconds spent blocked waiting, summed over the
    /// contended acquisitions.
    pub wait_nanos: u64,
    /// Cumulative nanoseconds the lock was held (guard lifetime).
    pub hold_nanos: u64,
}

impl LockClassStats {
    /// Counter-wise `self - earlier` (saturating): the activity between two
    /// snapshots of a monotone counter set.
    pub fn delta_since(&self, earlier: &LockClassStats) -> LockClassStats {
        LockClassStats {
            acquisitions: self.acquisitions.saturating_sub(earlier.acquisitions),
            contended: self.contended.saturating_sub(earlier.contended),
            wait_nanos: self.wait_nanos.saturating_sub(earlier.wait_nanos),
            hold_nanos: self.hold_nanos.saturating_sub(earlier.hold_nanos),
        }
    }
}

/// Snapshot of every class's counters. Counters are process-wide and
/// monotone; diff two snapshots ([`LockStats::delta_since`]) to attribute
/// activity to a measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStats {
    classes: [LockClassStats; LOCK_CLASS_COUNT],
}

impl LockStats {
    /// The counters of one class.
    pub fn class(&self, class: LockClass) -> &LockClassStats {
        &self.classes[class as usize]
    }

    /// `(class, counters)` pairs in rank order.
    pub fn iter(&self) -> impl Iterator<Item = (LockClass, &LockClassStats)> {
        LockClass::ALL.iter().map(move |&c| (c, self.class(c)))
    }

    /// Class-wise [`LockClassStats::delta_since`].
    pub fn delta_since(&self, earlier: &LockStats) -> LockStats {
        let mut out = LockStats::default();
        for class in LockClass::ALL {
            out.classes[class as usize] = self.class(class).delta_since(earlier.class(class));
        }
        out
    }
}

/// Snapshot the process-wide per-class lock counters.
pub fn lock_stats() -> LockStats {
    let mut out = LockStats::default();
    for class in LockClass::ALL {
        let c = &COUNTERS[class as usize];
        out.classes[class as usize] = LockClassStats {
            acquisitions: c.acquisitions.load(Ordering::Relaxed),
            contended: c.contended.load(Ordering::Relaxed),
            wait_nanos: c.wait_nanos.load(Ordering::Relaxed),
            hold_nanos: c.hold_nanos.load(Ordering::Relaxed),
        };
    }
    out
}

#[cfg(debug_assertions)]
mod rank_stack {
    use super::LockClass;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks of the tracked locks this thread currently holds, in
        /// acquisition order (not necessarily sorted: guards may drop out
        /// of order).
        static HELD: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }

    /// Validate and record an acquisition. Panics when `class` ranks below
    /// a lock the thread already holds — the dynamic form of the engine's
    /// `table → shard → checkpoint → wal` ordering invariant.
    pub fn push(class: LockClass) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.iter().max() {
                assert!(
                    class.rank() >= top,
                    "lock-order violation: acquiring {class:?} (rank {}) while holding a \
                     rank-{top} lock — the locking discipline is table → shard → checkpoint \
                     → wal (see svr_engine's module docs); this acquisition could deadlock",
                    class.rank(),
                );
            }
            held.push(class.rank());
        });
    }

    /// Record a release (guards may drop in any order; the last matching
    /// rank entry is removed).
    pub fn pop(class: LockClass) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == class.rank()) {
                held.remove(pos);
            }
        });
    }

    /// Ranks currently held by this thread (tests).
    pub fn held() -> Vec<u8> {
        HELD.with(|held| held.borrow().clone())
    }
}

/// Ranks of the tracked locks the calling thread currently holds (empty in
/// release builds, where the rank stack compiles out). Exposed for the
/// validator's own tests.
pub fn held_ranks() -> Vec<u8> {
    #[cfg(debug_assertions)]
    {
        rank_stack::held()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Book-keeping shared by every guard: counts the acquisition, records the
/// wait, and arms the hold timer. `contended` is whether the fast path
/// failed and `waited` the time spent blocked after it failed.
fn record_acquired(class: LockClass, contended: bool, waited: u64) -> Instant {
    let c = &COUNTERS[class as usize];
    c.acquisitions.fetch_add(1, Ordering::Relaxed);
    if contended {
        c.contended.fetch_add(1, Ordering::Relaxed);
        c.wait_nanos.fetch_add(waited, Ordering::Relaxed);
    }
    #[cfg(debug_assertions)]
    rank_stack::push(class);
    Instant::now()
}

fn record_released(class: LockClass, acquired_at: Instant) {
    let held = acquired_at.elapsed().as_nanos() as u64;
    COUNTERS[class as usize]
        .hold_nanos
        .fetch_add(held, Ordering::Relaxed);
    #[cfg(debug_assertions)]
    rank_stack::pop(class);
}

/// A [`parking_lot::Mutex`] wrapped with a [`LockClass`]: acquisitions are
/// counted, timed, and (debug builds) rank-validated.
pub struct OrderedMutex<T: ?Sized> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Create a mutex of the given class protecting `value`.
    pub const fn new(class: LockClass, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            class,
            inner: Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// The lock's class.
    pub fn class(&self) -> LockClass {
        self.class
    }

    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let (guard, contended, waited) = match self.inner.try_lock() {
            Some(guard) => (guard, false, 0),
            None => {
                let queued = Instant::now();
                let guard = self.inner.lock();
                (guard, true, queued.elapsed().as_nanos() as u64)
            }
        };
        OrderedMutexGuard {
            class: self.class,
            acquired_at: record_acquired(self.class, contended, waited),
            guard,
        }
    }

    /// Try to acquire without blocking. A failed try counts as neither an
    /// acquisition nor a contention (callers use it for opportunistic
    /// drains, not progress).
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        Some(OrderedMutexGuard {
            class: self.class,
            acquired_at: record_acquired(self.class, false, 0),
            guard,
        })
    }
}

/// Guard of [`OrderedMutex::lock`]; releases and records the hold time on
/// drop.
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    class: LockClass,
    acquired_at: Instant,
    guard: MutexGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        record_released(self.class, self.acquired_at);
    }
}

/// A [`parking_lot::RwLock`] wrapped with a [`LockClass`]: read and write
/// acquisitions are counted, timed, and (debug builds) rank-validated.
pub struct OrderedRwLock<T: ?Sized> {
    class: LockClass,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Create a reader-writer lock of the given class protecting `value`.
    pub const fn new(class: LockClass, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            class,
            inner: RwLock::new(value),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// The lock's class.
    pub fn class(&self) -> LockClass {
        self.class
    }

    /// Acquire a shared read lock.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        // `std`'s RwLock has no `try_read` in the vendored stand-in; a
        // write-held lock shows up as wait time with `contended` inferred
        // from a non-trivial wait. Keep it simple: time the acquisition and
        // call it contended past a microsecond of waiting.
        let queued = Instant::now();
        let guard = self.inner.read();
        let waited = queued.elapsed().as_nanos() as u64;
        let contended = waited > 1_000;
        OrderedRwLockReadGuard {
            class: self.class,
            acquired_at: record_acquired(self.class, contended, if contended { waited } else { 0 }),
            guard,
        }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let (guard, contended, waited) = match self.inner.try_write() {
            Some(guard) => (guard, false, 0),
            None => {
                let queued = Instant::now();
                let guard = self.inner.write();
                (guard, true, queued.elapsed().as_nanos() as u64)
            }
        };
        OrderedRwLockWriteGuard {
            class: self.class,
            acquired_at: record_acquired(self.class, contended, waited),
            guard,
        }
    }

    /// Try to acquire the write lock without blocking (see
    /// [`OrderedMutex::try_lock`] for how a failed try is counted).
    pub fn try_write(&self) -> Option<OrderedRwLockWriteGuard<'_, T>> {
        let guard = self.inner.try_write()?;
        Some(OrderedRwLockWriteGuard {
            class: self.class,
            acquired_at: record_acquired(self.class, false, 0),
            guard,
        })
    }
}

/// Guard of [`OrderedRwLock::read`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    class: LockClass,
    acquired_at: Instant,
    guard: RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        record_released(self.class, self.acquired_at);
    }
}

/// Guard of [`OrderedRwLock::write`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    class: LockClass,
    acquired_at: Instant,
    guard: RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        record_released(self.class, self.acquired_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_count_acquisitions_and_holds() {
        let before = lock_stats();
        let m = OrderedMutex::new(LockClass::Checkpoint, 0u64);
        for _ in 0..10 {
            *m.lock() += 1;
        }
        assert_eq!(*m.lock(), 10);
        let delta = lock_stats().delta_since(&before);
        // Parallel tests share the process-wide counters, so assert lower
        // bounds only.
        assert!(delta.class(LockClass::Checkpoint).acquisitions >= 11);
    }

    #[test]
    fn contended_acquisition_records_wait() {
        let before = lock_stats();
        let m = Arc::new(OrderedMutex::new(LockClass::Wal, ()));
        let held = m.lock();
        let m2 = m.clone();
        let waiter = std::thread::spawn(move || {
            let _guard = m2.lock();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(held);
        waiter.join().expect("waiter thread");
        let delta = lock_stats().delta_since(&before);
        let wal = delta.class(LockClass::Wal);
        assert!(wal.contended >= 1, "blocked acquisition must count");
        assert!(
            wal.wait_nanos >= 1_000_000,
            "waited ~10ms, recorded {}ns",
            wal.wait_nanos
        );
        assert!(wal.hold_nanos >= 1_000_000, "first hold spanned the sleep");
    }

    #[test]
    fn in_rank_acquisition_is_fine_and_stack_unwinds() {
        let table = OrderedMutex::new(LockClass::Table, ());
        let shard = OrderedRwLock::new(LockClass::Shard, ());
        let wal = OrderedMutex::new(LockClass::Wal, ());
        {
            let _t = table.lock();
            let _s = shard.write();
            let _w = wal.lock();
            if cfg!(debug_assertions) {
                assert_eq!(held_ranks(), vec![0, 1, 3]);
            }
        }
        assert!(held_ranks().is_empty(), "guards must pop the rank stack");
    }

    #[test]
    fn same_rank_reacquisition_is_allowed() {
        // Table locks are taken in sorted order (with_table_locks); two
        // same-class guards on one thread must not trip the validator.
        let a = OrderedMutex::new(LockClass::Table, ());
        let b = OrderedMutex::new(LockClass::Table, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn out_of_order_guard_drop_unwinds_correctly() {
        let a = OrderedMutex::new(LockClass::Table, ());
        let b = OrderedMutex::new(LockClass::Shard, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // acquisition order, not reverse
        if cfg!(debug_assertions) {
            assert_eq!(held_ranks(), vec![1]);
        }
        drop(gb);
        assert!(held_ranks().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn out_of_rank_acquisition_panics_in_debug() {
        // Run the violation on a dedicated thread: the panic must not
        // poison this thread's rank stack for other tests.
        let result = std::thread::spawn(|| {
            let shard = OrderedRwLock::new(LockClass::Shard, ());
            let table = OrderedMutex::new(LockClass::Table, ());
            let _s = shard.write();
            let _t = table.lock(); // table-under-shard: the forbidden direction
        })
        .join();
        let err = result.expect_err("validator must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("lock-order violation"),
            "panic message should name the violation: {msg}"
        );
    }
}
