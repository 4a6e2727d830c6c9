//! The work-stealing execution pool.
//!
//! A Chase-Lev-shaped deque pool in safe Rust: each worker owns a
//! deque of task indices seeded with a contiguous chunk of the input,
//! pops its own work from the front, and — when its deque runs dry —
//! steals the *back* half of a victim's deque. Owners and thieves
//! therefore touch opposite ends, which keeps lock hold times tiny,
//! and stealing in halves amortizes the migration cost the way the
//! Chase-Lev algorithm's batched steals do.
//!
//! The workspace forbids `unsafe`, so the deques are `Mutex`-guarded
//! `VecDeque`s rather than the lock-free array of the original
//! algorithm. The lock-free *fast path* safe Rust does allow is kept:
//! every deque carries an atomic length that lets thieves skip empty
//! victims without ever taking their locks, so an idle worker scanning
//! a drained pool costs a few relaxed loads, not a lock sweep.
//!
//! Why not the atomic claim cursor this pool replaced? A single shared
//! cursor serializes *claiming* but balances perfectly... one item at a
//! time. When items are wildly heterogeneous (a tiny GSE point next to
//! a SHA-1 monster), cursor dispatch is fine; but it pays one contended
//! atomic RMW per item and cannot batch. Seeded deques give each
//! worker an uncontended run of items (cache-friendly, zero shared
//! traffic while balanced) and fall back to stealing exactly when the
//! load actually skews — the best of both dispatch disciplines. The
//! difference needs many cores to show, so no bench here measures it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What the pool did while mapping one batch: how much work ran from
/// workers' own deques versus arrived by stealing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Workers the batch actually ran on.
    pub workers: usize,
    /// Items executed by the worker whose deque they were seeded into.
    pub executed_local: u64,
    /// Items executed after migrating to a thief's deque.
    pub executed_stolen: u64,
    /// Steal operations (each migrates up to half a victim's deque).
    pub steal_ops: u64,
}

impl StealStats {
    /// Fraction of items that ran on a thief — 0.0 on a perfectly
    /// balanced batch, rising as the load skews.
    pub fn steal_fraction(&self) -> f64 {
        let total = self.executed_local + self.executed_stolen;
        if total == 0 {
            return 0.0;
        }
        self.executed_stolen as f64 / total as f64
    }
}

/// One worker's deque: a mutex-guarded `VecDeque` of task indices plus
/// an atomic length mirror so thieves can skip empty victims without
/// locking (the safe-Rust stand-in for Chase-Lev's lock-free probe).
struct WorkerDeque {
    tasks: Mutex<VecDeque<usize>>,
    /// Mirrors `tasks.len()`; maintained by whoever holds the lock.
    len_hint: AtomicUsize,
}

impl WorkerDeque {
    fn seeded(range: std::ops::Range<usize>) -> Self {
        WorkerDeque {
            len_hint: AtomicUsize::new(range.len()),
            tasks: Mutex::new(range.collect()),
        }
    }

    /// Owner fast path: pop the next seeded index from the front.
    fn pop_own(&self) -> Option<usize> {
        if self.len_hint.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut q = self.tasks.lock().expect("worker deque poisoned");
        let item = q.pop_front();
        self.len_hint.store(q.len(), Ordering::Relaxed);
        item
    }

    /// Thief path: take the back half (at least one) of this deque.
    fn steal_half(&self) -> Vec<usize> {
        if self.len_hint.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let mut q = self.tasks.lock().expect("worker deque poisoned");
        let keep = q.len() / 2;
        let stolen: Vec<usize> = q.split_off(keep).into();
        self.len_hint.store(q.len(), Ordering::Relaxed);
        stolen
    }

    /// Thief deposit: append loot (minus the item it runs immediately).
    fn push_batch(&self, items: &[usize]) {
        if items.is_empty() {
            return;
        }
        let mut q = self.tasks.lock().expect("worker deque poisoned");
        q.extend(items.iter().copied());
        self.len_hint.store(q.len(), Ordering::Relaxed);
    }
}

/// Maps `f` over `items` on a work-stealing pool sized to the machine,
/// preserving input order in the result.
///
/// Drop-in replacement for atomic-cursor dispatch: same signature, same
/// order guarantee, same panic propagation — but heterogeneous item
/// costs no longer convoy, because idle workers steal queued work
/// instead of waiting for the cursor to reach them.
///
/// # Panics
///
/// Propagates the first panic from `f` with its original payload (the
/// remaining workers wind down first; `std::thread::scope`'s own
/// re-panic would replace the payload with a generic message, so the
/// pool catches worker panics and resumes them on the caller).
pub fn steal_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    steal_map_stats(items, f).0
}

/// [`steal_map`] that also reports what the pool did ([`StealStats`]).
pub fn steal_map_stats<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> (Vec<R>, StealStats) {
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(items.len());
    steal_map_workers(items, workers, f)
}

/// [`steal_map_stats`] on an explicit worker count (clamped to the item
/// count; 0 and 1 both run inline).
pub fn steal_map_workers<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> (Vec<R>, StealStats) {
    if items.is_empty() {
        return (Vec::new(), StealStats::default());
    }
    let workers = workers.min(items.len());
    if workers <= 1 {
        let out: Vec<R> = items.iter().map(f).collect();
        let stats = StealStats {
            workers: 1,
            executed_local: items.len() as u64,
            ..Default::default()
        };
        return (out, stats);
    }

    // Seed each worker with a contiguous chunk of the index space; the
    // result slot index — not the executing worker — fixes output
    // order, so migration never reorders results.
    let n = items.len();
    let deques: Vec<WorkerDeque> = (0..workers)
        .map(|w| WorkerDeque::seeded(w * n / workers..(w + 1) * n / workers))
        .collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let local = AtomicU64::new(0);
    let stolen = AtomicU64::new(0);
    let steal_ops = AtomicU64::new(0);
    // A panicking task aborts the whole map: the payload is parked here
    // and re-raised on the caller after every worker winds down, so the
    // caller sees the task's own panic, not the scope's generic one.
    let abort = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let f = &f;
            let (local, stolen, steal_ops) = (&local, &stolen, &steal_ops);
            let (abort, panic_payload) = (&abort, &panic_payload);
            scope.spawn(move || {
                let mut ran_local = 0u64;
                let mut ran_stolen = 0u64;
                let mut ops = 0u64;
                // Runs item `i`; false means it panicked and the map is
                // aborting (first payload wins, the rest are dropped).
                let mut exec = |i: usize, was_stolen: bool| -> bool {
                    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => {
                            *slots[i].lock().expect("result slot poisoned") = Some(r);
                            if was_stolen {
                                ran_stolen += 1;
                            } else {
                                ran_local += 1;
                            }
                            true
                        }
                        Err(payload) => {
                            let mut parked =
                                panic_payload.lock().unwrap_or_else(|p| p.into_inner());
                            if parked.is_none() {
                                *parked = Some(payload);
                            }
                            abort.store(true, Ordering::Relaxed);
                            false
                        }
                    }
                };
                'work: loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    // Fast path: own deque, front end.
                    if let Some(i) = deques[w].pop_own() {
                        if !exec(i, false) {
                            break;
                        }
                        continue;
                    }
                    // Own deque dry: rob victims round-robin, taking the
                    // back half of the first one with visible work.
                    for offset in 1..workers {
                        let victim = (w + offset) % workers;
                        let loot = deques[victim].steal_half();
                        if let Some((&first, rest)) = loot.split_first() {
                            ops += 1;
                            deques[w].push_batch(rest);
                            if !exec(first, true) {
                                break 'work;
                            }
                            continue 'work;
                        }
                    }
                    // Every deque is empty. Tasks never spawn tasks, so
                    // nothing new can appear: this worker is done.
                    break;
                }
                local.fetch_add(ran_local, Ordering::Relaxed);
                stolen.fetch_add(ran_stolen, Ordering::Relaxed);
                steal_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
    });

    if let Some(payload) = panic_payload
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
    {
        resume_unwind(payload);
    }

    let out = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item was claimed")
        })
        .collect();
    let stats = StealStats {
        workers,
        executed_local: local.load(Ordering::Relaxed),
        executed_stolen: stolen.load(Ordering::Relaxed),
        steal_ops: steal_ops.load(Ordering::Relaxed),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_every_item() {
        let items: Vec<u64> = (0..997).collect();
        let (out, stats) = steal_map_stats(&items, |&x| x * 3 + 1);
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
        assert_eq!(
            stats.executed_local + stats.executed_stolen,
            items.len() as u64
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let (out, stats) = steal_map_stats(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
        assert_eq!(stats.workers, 0);
        let (out, stats) = steal_map_stats(&[7u32], |&x| x + 1);
        assert_eq!(out, vec![8]);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn skewed_batch_triggers_stealing() {
        // One monster item seeded into worker 0's chunk, hundreds of
        // trivial ones behind it: without stealing, worker 0's whole
        // chunk waits for the monster.
        let sizes: Vec<u64> = std::iter::once(2_000_000u64)
            .chain(std::iter::repeat_n(50, 511))
            .collect();
        let (out, stats) = steal_map_workers(&sizes, 4, |&n| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(i).rotate_left(7);
            }
            std::hint::black_box(acc);
            n
        });
        assert_eq!(out, sizes);
        assert!(
            stats.executed_stolen > 0,
            "no stealing on a skewed batch: {stats:?}"
        );
    }

    #[test]
    fn explicit_worker_counts_run_inline_or_pooled() {
        let items: Vec<u32> = (0..64).collect();
        for workers in [0, 1, 2, 3, 16, 1000] {
            let (out, stats) = steal_map_workers(&items, workers, |&x| x ^ 0xAB);
            assert_eq!(out.len(), 64);
            assert!(stats.workers <= 64);
        }
    }

    #[test]
    fn steal_fraction_is_zero_without_steals() {
        let stats = StealStats {
            workers: 4,
            executed_local: 10,
            ..Default::default()
        };
        assert_eq!(stats.steal_fraction(), 0.0);
        assert_eq!(StealStats::default().steal_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "deliberate pool panic")]
    fn propagates_task_panics() {
        let items: Vec<u32> = (0..32).collect();
        let _ = steal_map_workers(&items, 4, |&x| {
            assert!(x != 17, "deliberate pool panic");
            x
        });
    }
}
