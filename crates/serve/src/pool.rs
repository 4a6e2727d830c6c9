//! The fan-out: [`parallel_map`].
//!
//! Every item this workspace fans out is a whole schedule (a batch
//! request, a sweep-grid point) that costs milliseconds to seconds, so
//! one shared atomic cursor is all the balancing it needs: a worker
//! that finishes an item claims the next unclaimed index, and no item
//! ever waits behind a busy worker while another worker is free.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on scoped worker threads, one per available
/// core (at most one per item), and returns the results in input order.
///
/// # Panics
///
/// Re-raises a panic from `f` on the caller with the task's own
/// payload, after the other workers have run the remaining items.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(items.len());
    map_on(items, workers, f)
}

/// [`parallel_map`] on exactly `workers` threads.
fn map_on<T: Sync, R: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            // Relaxed suffices: the add alone hands each index to one
            // worker, and results reach the caller through the join.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("the cursor hands out every index once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    #[test]
    fn keeps_input_order_over_every_worker_count() {
        let items: Vec<u64> = (0..997).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(parallel_map(&items, |&x| x * 3 + 1), expected);
        for workers in [1, 2, 3, 16] {
            assert_eq!(map_on(&items, workers, |&x| x * 3 + 1), expected);
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        assert!(parallel_map(&[] as &[u32], |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
        assert_eq!(map_on(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "deliberate pool panic")]
    fn a_task_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..32).collect();
        let _ = map_on(&items, 4, |&x| {
            assert!(x != 17, "deliberate pool panic");
            x
        });
    }

    #[test]
    fn a_busy_worker_strands_no_queued_item() {
        // Item 0 holds its worker until every other item has run, so
        // any item queued behind that worker would never run and the
        // wait would time out.
        let items: Vec<usize> = (0..64).collect();
        let others = items.len() - 1;
        let ran = Mutex::new(0usize);
        let all_ran = Condvar::new();
        let out = map_on(&items, 2, |&i| {
            let mut count = ran.lock().expect("counter poisoned");
            if i == 0 {
                let (count, wait) = all_ran
                    .wait_timeout_while(count, Duration::from_secs(10), |c| *c < others)
                    .expect("counter poisoned");
                assert!(
                    !wait.timed_out(),
                    "only {} of {others} items ran while item 0 held its worker",
                    *count
                );
            } else {
                *count += 1;
                all_ran.notify_all();
            }
            i
        });
        assert_eq!(out, items);
    }
}
