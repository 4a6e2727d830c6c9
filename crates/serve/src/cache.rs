//! The content-addressed schedule cache: LRU-bounded memoization with
//! single-flight deduplication.
//!
//! Keys are the stable 64-bit fingerprints produced by
//! [`scq_core::CacheKeyed`] over (normalized IR + backend config +
//! defect spec + engine version); values are whatever the serving layer
//! memoizes (schedule summaries and placements). Three properties the
//! tests pin down:
//!
//! * **Single-flight**: when N requesters ask for the same absent key
//!   concurrently, exactly one computes; the rest block on the leader's
//!   flight and share its `Arc`'d result (or its cloned error). The
//!   instrumented `computes` counter proves the "exactly one".
//! * **LRU bound**: at most `capacity` completed entries are retained;
//!   inserting past the bound evicts the least-recently-*used* entry
//!   (hits refresh recency). In-flight computations are never evicted —
//!   they are not yet results.
//! * **Failure transparency**: errors are *not* cached. The leader's
//!   error is handed to every waiter of that flight, but the key is
//!   removed, so the next request retries. A leader that panics is
//!   converted by a drop guard into [`ServeError::Internal`] for its
//!   waiters instead of deadlocking them.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::error::ServeError;

/// Where a response's result came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Served from a completed cache entry; no compute ran.
    Hit,
    /// Absent from the cache; this request ran the compute.
    Miss,
    /// Another in-flight request for the same key was already
    /// computing; this request waited and shared its result.
    Deduped,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Provenance::Hit => "hit",
            Provenance::Miss => "miss",
            Provenance::Deduped => "dedup",
        })
    }
}

/// Counter snapshot for reports: `scq batch`'s totals line and
/// `serve_throughput`'s hit-rate check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a completed entry.
    pub hits: u64,
    /// Requests that found no entry and started a compute.
    pub misses: u64,
    /// Requests that piggybacked on an in-flight compute.
    pub inflight_dedups: u64,
    /// Completed entries evicted by the LRU bound.
    pub evictions: u64,
    /// Computations actually executed (`== misses`; kept separate so
    /// the single-flight tests can assert the equality meaningfully).
    pub computes: u64,
}

impl CacheStats {
    /// Requests answered without running a compute, as a fraction of
    /// all requests.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.inflight_dedups;
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.inflight_dedups) as f64 / total as f64
    }
}

/// A computation in progress: waiters block on the condvar until the
/// leader (or its drop guard) publishes a result.
struct Flight<V> {
    result: Mutex<Option<Result<Arc<V>, ServeError>>>,
    done: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, r: Result<Arc<V>, ServeError>) {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(r);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<V>, ServeError> {
        let mut slot = self.result.lock().expect("flight lock poisoned");
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = self.done.wait(slot).expect("flight lock poisoned");
        }
    }
}

enum Slot<V> {
    Ready { value: Arc<V>, last_used: u64 },
    InFlight(Arc<Flight<V>>),
}

struct Inner<V> {
    map: HashMap<u64, Slot<V>>,
    /// Monotonic use clock for LRU recency.
    tick: u64,
    stats: CacheStats,
}

/// The content-addressed, single-flight, LRU-bounded result cache.
///
/// # Examples
///
/// ```
/// use scq_serve::{Provenance, ScheduleCache};
///
/// let cache: ScheduleCache<u64> = ScheduleCache::new(8);
/// let (v, p) = cache.get_or_compute(0xFEED, || Ok(41 + 1));
/// assert_eq!((*v.unwrap(), p), (42, Provenance::Miss));
/// let (v, p) = cache.get_or_compute(0xFEED, || unreachable!("cached"));
/// assert_eq!((*v.unwrap(), p), (42, Provenance::Hit));
/// ```
pub struct ScheduleCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
}

impl<V> ScheduleCache<V> {
    /// A cache retaining at most `capacity` completed entries
    /// (clamped to at least 1 — a zero-capacity cache could evict the
    /// entry it just inserted).
    pub fn new(capacity: usize) -> Self {
        ScheduleCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, running `compute` only if no completed entry
    /// exists and no other request is already computing it.
    ///
    /// Returns the shared value (or the compute's error) and where it
    /// came from. Errors are never cached: the failing key is removed
    /// so a later request retries.
    pub fn get_or_compute(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<V, ServeError>,
    ) -> (Result<Arc<V>, ServeError>, Provenance) {
        let flight = {
            let mut g = self.inner.lock().expect("cache lock poisoned");
            g.tick += 1;
            let now = g.tick;
            match g.map.get_mut(&key) {
                Some(Slot::Ready { value, last_used }) => {
                    *last_used = now;
                    let value = value.clone();
                    g.stats.hits += 1;
                    return (Ok(value), Provenance::Hit);
                }
                Some(Slot::InFlight(fl)) => {
                    let fl = fl.clone();
                    g.stats.inflight_dedups += 1;
                    drop(g);
                    return (fl.wait(), Provenance::Deduped);
                }
                None => {
                    g.stats.misses += 1;
                    g.stats.computes += 1;
                    let fl = Arc::new(Flight::new());
                    g.map.insert(key, Slot::InFlight(fl.clone()));
                    fl
                }
            }
        };

        // Leader path: compute outside the cache lock so concurrent
        // requests for *other* keys proceed. The guard turns a panicking
        // compute into a published Internal error instead of a deadlock.
        let mut guard = FlightGuard {
            cache: self,
            key,
            flight: &flight,
            armed: true,
        };
        let result = compute().map(Arc::new);
        guard.armed = false;
        self.finish_flight(key, &flight, result.clone());
        (result, Provenance::Miss)
    }

    /// Publishes a leader's outcome: installs the value (evicting LRU
    /// entries past capacity) or removes the failed key, then wakes
    /// waiters.
    fn finish_flight(&self, key: u64, flight: &Flight<V>, result: Result<Arc<V>, ServeError>) {
        {
            let mut g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            g.tick += 1;
            let now = g.tick;
            match &result {
                Ok(value) => {
                    g.map.insert(
                        key,
                        Slot::Ready {
                            value: value.clone(),
                            last_used: now,
                        },
                    );
                    self.evict_over_capacity(&mut g);
                }
                Err(_) => {
                    g.map.remove(&key);
                }
            }
        }
        flight.publish(result);
    }

    /// Evicts least-recently-used completed entries until at most
    /// `capacity` remain. In-flight slots don't count and are never
    /// evicted.
    fn evict_over_capacity(&self, g: &mut Inner<V>) {
        loop {
            let ready = g
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count();
            if ready <= self.capacity {
                return;
            }
            let oldest = g
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*last_used, *k)),
                    Slot::InFlight(_) => None,
                })
                .min();
            let Some((_, key)) = oldest else { return };
            g.map.remove(&key);
            g.stats.evictions += 1;
        }
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock poisoned").stats
    }

    /// Completed entries currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// `true` when no completed entry is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Publishes an `Internal` error for a leader that panicked mid-compute
/// so its waiters unblock with a diagnosis instead of hanging forever.
struct FlightGuard<'a, V> {
    cache: &'a ScheduleCache<V>,
    key: u64,
    flight: &'a Flight<V>,
    armed: bool,
}

impl<V> Drop for FlightGuard<'_, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.cache.finish_flight(
            self.key,
            self.flight,
            Err(ServeError::internal("schedule compute panicked")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn miss_then_hit_shares_one_arc() {
        let cache: ScheduleCache<String> = ScheduleCache::new(4);
        let (a, p) = cache.get_or_compute(1, || Ok("result".to_string()));
        assert_eq!(p, Provenance::Miss);
        let a = a.unwrap();
        let (b, p) = cache.get_or_compute(1, || panic!("must not recompute"));
        assert_eq!(p, Provenance::Hit);
        assert!(Arc::ptr_eq(&a, &b.unwrap()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.computes), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn errors_are_returned_but_not_cached() {
        let cache: ScheduleCache<u32> = ScheduleCache::new(4);
        let calls = AtomicU64::new(0);
        let (r, p) = cache.get_or_compute(9, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(ServeError::schedule("transient"))
        });
        assert!(r.is_err());
        assert_eq!(p, Provenance::Miss);
        assert!(cache.is_empty());
        let (r, _) = cache.get_or_compute(9, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(5)
        });
        assert_eq!(*r.unwrap(), 5);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "failed key must retry");
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache: ScheduleCache<u32> = ScheduleCache::new(2);
        let _ = cache.get_or_compute(1, || Ok(10));
        let _ = cache.get_or_compute(2, || Ok(20));
        // Touch 1 so 2 is now the LRU entry.
        let (_, p) = cache.get_or_compute(1, || unreachable!());
        assert_eq!(p, Provenance::Hit);
        let _ = cache.get_or_compute(3, || Ok(30));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // 1 survived (recently used), 2 was evicted and recomputes.
        let (_, p) = cache.get_or_compute(1, || unreachable!());
        assert_eq!(p, Provenance::Hit);
        let (v, p) = cache.get_or_compute(2, || Ok(20));
        assert_eq!((*v.unwrap(), p), (20, Provenance::Miss));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache: ScheduleCache<u32> = ScheduleCache::new(0);
        let _ = cache.get_or_compute(1, || Ok(1));
        assert_eq!(cache.len(), 1);
        let (_, p) = cache.get_or_compute(1, || unreachable!());
        assert_eq!(p, Provenance::Hit);
    }

    #[test]
    fn single_flight_dedups_concurrent_identical_requests() {
        let cache: ScheduleCache<u64> = ScheduleCache::new(4);
        let computes = AtomicU64::new(0);
        let results: Vec<(u64, Provenance)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    s.spawn(|| {
                        let (v, p) = cache.get_or_compute(0xC0FFEE, || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            // Hold the flight open long enough for the
                            // other threads to pile onto it.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(1234)
                        });
                        (*v.unwrap(), p)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1, "exactly one compute");
        assert!(results.iter().all(|(v, _)| *v == 1234));
        assert_eq!(
            results
                .iter()
                .filter(|(_, p)| *p == Provenance::Miss)
                .count(),
            1
        );
        let stats = cache.stats();
        assert_eq!(stats.computes, 1);
        assert_eq!(stats.misses, 1);
        // Every non-leader either deduped in flight or hit afterwards.
        assert_eq!(stats.hits + stats.inflight_dedups, 15);
    }

    #[test]
    fn leader_errors_propagate_to_waiters() {
        let cache = Arc::new(ScheduleCache::<u64>::new(4));
        let outcomes: Vec<Result<Arc<u64>, ServeError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || {
                        let (r, _) = cache.get_or_compute(7, || {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Err(ServeError::schedule("unroutable"))
                        });
                        r
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(outcomes.iter().all(|r| r.is_err()));
        assert!(cache.is_empty(), "errors must not be cached");
    }

    #[test]
    fn panicking_leader_unblocks_waiters_with_internal_error() {
        let cache = Arc::new(ScheduleCache::<u64>::new(4));
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                // Give the leader time to take the flight.
                std::thread::sleep(std::time::Duration::from_millis(15));
                cache.get_or_compute(42, || Ok(7)).0
            })
        };
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute(42, || panic!("compute exploded"));
            })
        };
        assert!(leader.join().is_err(), "leader panic propagates");
        match waiter.join().unwrap() {
            // Waiter either piggybacked on the doomed flight (Internal
            // error from the drop guard) or arrived after cleanup and
            // computed fresh.
            Err(ServeError::Internal(m)) => assert!(m.contains("panicked")),
            Ok(v) => assert_eq!(*v, 7),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}
