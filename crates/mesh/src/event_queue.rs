//! The calendar-queue event core of the braid engine.
//!
//! The braid scheduler's two queues — its release times and its
//! blocked-op index — pop the globally minimum `(time, payload)` pair
//! from a priority queue whose delays are drawn from a narrow,
//! near-uniform band (hold times in multiples of `d + 1`). A binary
//! heap pays O(log n) per event for that access pattern; a bucketed
//! **calendar queue** (Brown, CACM 1988) pays O(1) amortized by
//! hashing each event into a ring of time buckets and walking a
//! cursor through them in time order.
//!
//! The EPR fabric does not use it: its launches are all known before a
//! run, so it sorts them once, and its in-flight events fit a shallow
//! binary heap (see [`Fabric`](crate::Fabric)).
//!
//! # Structure
//!
//! [`CalendarQueue`] keeps a power-of-two ring of buckets, each
//! covering a `width`-cycle window starting at `base` (the cursor
//! bucket's window). An event at time `t` lands in bucket
//! `(t / width) % nbuckets`. Three escape hatches keep it exact (not
//! approximate) for arbitrary inputs:
//!
//! - **Overflow heap**: events at or beyond the ring's horizon
//!   (`base + nbuckets * width`) go to a fallback [`BinaryHeap`] and
//!   migrate into the ring as the cursor advances. The invariant
//!   "every overflow event ≥ horizon > every ring event" means the
//!   ring always holds the global minimum when non-empty.
//! - **Cursor clamp**: an event earlier than `base` (legal — pushes
//!   only have to be ≥ the last *popped* time, and a peek may have
//!   advanced the cursor past quiet windows) is clamped into the
//!   cursor bucket, which is always scanned for its true minimum.
//! - **Activation heap**: a cursor bucket holding a dense burst
//!   (e.g. many same-timestamp releases) is heapified once instead of
//!   being min-scanned per pop, bounding the tie-burst worst case.
//!
//! The ring resizes lazily: it doubles when occupancy exceeds two
//! events per bucket and halves when it drops below one per eight,
//! re-estimating `width` as the mean inter-event gap of the in-horizon
//! population (far-future outliers sit in the overflow heap and cannot
//! skew the estimate).
//!
//! # Ordering contract
//!
//! [`EventQueue::pop`] returns pairs in non-decreasing `(time,
//! payload)` lexicographic order — exactly the order
//! `BinaryHeap<Reverse<(u64, P)>>` yields. Same-`(time, payload)`
//! duplicates are indistinguishable, so the pop *sequence* is
//! bit-identical to the heap's; [`HeapQueue`] is the differential twin
//! the test suites drain in lockstep to prove it.
//!
//! # Monotonicity
//!
//! The engines only ever push events at or after the last popped time
//! (a release schedules `t + hold`; blocked-op indices are pushed in
//! increasing order before the first pop). [`CalendarQueue`]
//! debug-asserts this on every push and pop, so a violated assumption
//! fails loudly in test builds instead of silently reordering a
//! schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Minimum ring size; small queues stay compact and resize churn-free.
const MIN_BUCKETS: usize = 16;
/// Ring growth cap — beyond this, extra events deepen buckets instead.
const MAX_BUCKETS: usize = 1 << 18;
/// Cursor buckets longer than this are heapified before draining.
const ACTIVATE_LEN: usize = 32;

/// A min-priority queue over `(time, payload)` events.
///
/// Implementations must pop in non-decreasing `(time, payload)`
/// lexicographic order — the exact order of
/// `BinaryHeap<Reverse<(u64, P)>>` — so swapping one implementation
/// for another cannot change a schedule.
pub trait EventQueue<P: Copy + Ord> {
    /// Insert an event. Callers must never push earlier than the last
    /// popped time (debug-asserted by [`CalendarQueue`]).
    fn push(&mut self, time: u64, payload: P);

    /// Remove and return the minimum `(time, payload)` event.
    fn pop(&mut self) -> Option<(u64, P)>;

    /// Return the minimum event without removing it. Takes `&mut
    /// self` because a calendar queue advances its cursor (and
    /// migrates overflow events) to locate the minimum.
    fn peek(&mut self) -> Option<(u64, P)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The `BinaryHeap`-backed differential twin of [`CalendarQueue`].
///
/// Byte-for-byte the pre-calendar-queue behavior of the engines; the
/// differential suites drain it in lockstep with the calendar queue,
/// and the event-queue microbenchmark races the two.
#[derive(Clone, Debug)]
pub struct HeapQueue<P: Ord> {
    heap: BinaryHeap<Reverse<(u64, P)>>,
}

impl<P: Ord> HeapQueue<P> {
    /// Create an empty heap-backed queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<P: Ord> Default for HeapQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Copy + Ord> EventQueue<P> for HeapQueue<P> {
    fn push(&mut self, time: u64, payload: P) {
        self.heap.push(Reverse((time, payload)));
    }

    fn pop(&mut self) -> Option<(u64, P)> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    fn peek(&mut self) -> Option<(u64, P)> {
        self.heap.peek().map(|&Reverse(e)| e)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Bucketed calendar queue: O(1) amortized push/pop for the
/// bounded-horizon, near-uniform event times the engines emit.
///
/// See the [module docs](self) for the bucket geometry, the overflow /
/// clamp / activation escape hatches, and the ordering contract.
#[derive(Clone, Debug)]
pub struct CalendarQueue<P: Ord> {
    /// Ring of time buckets; bucket `i` covers windows congruent to
    /// `i` modulo the ring size.
    buckets: Vec<Vec<(u64, P)>>,
    /// `buckets.len() - 1`; the ring size is a power of two.
    mask: usize,
    /// Cycles per bucket window (≥ 1).
    width: u64,
    /// Start of the cursor bucket's window; always `width`-aligned.
    base: u64,
    /// Ring index of the bucket covering `base`.
    cursor: usize,
    /// Heapified cursor bucket, used only while `activated`.
    active: BinaryHeap<Reverse<(u64, P)>>,
    /// Whether the cursor bucket currently lives in `active`.
    activated: bool,
    /// Events at or beyond the ring horizon, migrated back as the
    /// cursor advances. Min overflow time ≥ horizon at all times.
    overflow: BinaryHeap<Reverse<(u64, P)>>,
    /// Events in the ring + `active` (excludes `overflow`).
    cal_len: usize,
    /// Total pending events.
    len: usize,
    /// Largest time popped so far; pushes must not precede it.
    last_pop: u64,
    /// Ring rebuilds performed (grow, shrink, or width re-estimate).
    rebuilds: u64,
    /// Events that ever landed in the overflow heap — the slow path a
    /// well-seeded `width` avoids entirely.
    overflow_events: u64,
}

impl<P: Copy + Ord> CalendarQueue<P> {
    /// Create an empty calendar queue that debug-asserts the engines'
    /// monotone-push contract (see the module docs).
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width: 1,
            base: 0,
            cursor: 0,
            active: BinaryHeap::new(),
            activated: false,
            overflow: BinaryHeap::new(),
            cal_len: 0,
            len: 0,
            last_pop: 0,
            rebuilds: 0,
            overflow_events: 0,
        }
    }

    /// Create an empty queue whose initial bucket width is seeded with
    /// the workload's known event quantum (clamped to at least 1)
    /// instead of the 1-cycle default.
    ///
    /// The braid scheduler knows its inter-event gap up front — its
    /// hold quantum is `code_distance + 1` cycles — and seeding it
    /// means the first fill hashes straight into the ring at the right
    /// granularity: no events detour through the overflow heap and no
    /// early rebuild has to re-estimate the width the caller already
    /// knew. Ordering is unaffected (the queue is exact at any width);
    /// only the constant factor moves.
    pub fn with_width(quantum: u64) -> Self {
        let mut q = Self::new();
        q.width = quantum.max(1);
        q
    }

    /// Current cycles-per-bucket window (≥ 1). Starts at the seeded
    /// quantum (or 1) and is re-estimated on every rebuild.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Ring rebuilds performed so far (growth, shrink, or width
    /// re-estimation). A workload whose width was seeded correctly and
    /// whose pending population fits the initial ring reports 0.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Placements that took the overflow-heap slow path because the
    /// event sat at or beyond the ring horizon (an event re-placed by
    /// a rebuild can count more than once). A width seeded to the
    /// workload quantum keeps this at 0 for quantum-spaced pushes.
    pub fn overflow_event_count(&self) -> u64 {
        self.overflow_events
    }

    fn nbuckets(&self) -> usize {
        self.mask + 1
    }

    /// First time *not* covered by the ring from the cursor onward.
    fn horizon(&self) -> u64 {
        self.base
            .saturating_add(self.width.saturating_mul(self.nbuckets() as u64))
    }

    /// Hash one event into the ring (or the overflow heap). Assumes
    /// `len`/`cal_len` accounting is handled by the caller's caller:
    /// this increments `cal_len` but not `len`.
    fn place(&mut self, t: u64, p: P) {
        if t >= self.horizon() {
            self.overflow_events += 1;
            self.overflow.push(Reverse((t, p)));
            return;
        }
        self.cal_len += 1;
        let idx = if t < self.base {
            // Legal stragglers: pushed ≥ last_pop but behind a cursor
            // that peeks advanced through empty windows. The cursor
            // bucket is always min-scanned, so clamping is exact.
            self.cursor
        } else {
            ((t / self.width) as usize) & self.mask
        };
        if idx == self.cursor && self.activated {
            self.active.push(Reverse((t, p)));
        } else {
            self.buckets[idx].push((t, p));
        }
    }

    /// Migrate overflow events that the ring now covers.
    fn drain_overflow(&mut self) {
        let horizon = self.horizon();
        while let Some(&Reverse((t, _))) = self.overflow.peek() {
            if t >= horizon {
                break;
            }
            let Reverse((t, p)) = self.overflow.pop().expect("peeked");
            self.cal_len += 1;
            let idx = ((t / self.width) as usize) & self.mask;
            if idx == self.cursor && self.activated {
                self.active.push(Reverse((t, p)));
            } else {
                self.buckets[idx].push((t, p));
            }
        }
    }

    /// Advance the cursor until it sits on a non-empty bucket (or the
    /// activated heap), heapifying dense buckets on the way. Returns
    /// `false` iff the queue is empty.
    fn position(&mut self) -> bool {
        loop {
            if self.activated {
                if !self.active.is_empty() {
                    return true;
                }
                self.activated = false;
            }
            if self.cal_len > 0 {
                if !self.buckets[self.cursor].is_empty() {
                    if self.buckets[self.cursor].len() > ACTIVATE_LEN {
                        // Heapify a dense burst once instead of
                        // min-scanning it on every pop. Reuse the
                        // previous activation's allocation.
                        let mut v = std::mem::take(&mut self.active).into_vec();
                        v.clear();
                        v.extend(self.buckets[self.cursor].drain(..).map(Reverse));
                        self.active = BinaryHeap::from(v);
                        self.activated = true;
                    }
                    return true;
                }
                self.cursor = (self.cursor + 1) & self.mask;
                self.base += self.width;
                self.drain_overflow();
            } else if let Some(Reverse((t, p))) = self.overflow.pop() {
                // Ring is empty: jump straight to the overflow
                // minimum's window instead of walking to it. Place the
                // minimum directly — its window *is* the new cursor
                // window, and near u64::MAX a saturated horizon would
                // otherwise refuse to migrate it.
                self.base = (t / self.width) * self.width;
                self.cursor = ((t / self.width) as usize) & self.mask;
                self.cal_len += 1;
                self.buckets[self.cursor].push((t, p));
                self.drain_overflow();
            } else {
                return false;
            }
        }
    }

    /// Index of the minimum element of the (non-empty) cursor bucket.
    fn cursor_min_idx(&self) -> usize {
        let b = &self.buckets[self.cursor];
        let mut mi = 0;
        for i in 1..b.len() {
            if b[i] < b[mi] {
                mi = i;
            }
        }
        mi
    }

    /// Rebuild the ring at `new_n` buckets, re-estimating `width` from
    /// the in-horizon population (overflow outliers excluded unless
    /// they are all that's left).
    fn rebuild(&mut self, new_n: usize) {
        self.rebuilds += 1;
        let new_n = new_n.clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut events: Vec<(u64, P)> = Vec::with_capacity(self.cal_len);
        for b in &mut self.buckets {
            events.append(b);
        }
        events.extend(
            std::mem::take(&mut self.active)
                .into_vec()
                .into_iter()
                .map(|Reverse(e)| e),
        );
        self.activated = false;
        let overflow: Vec<(u64, P)> = std::mem::take(&mut self.overflow)
            .into_vec()
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        let sample: &[(u64, P)] = if events.is_empty() {
            &overflow
        } else {
            &events
        };
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for &(t, _) in sample {
            lo = lo.min(t);
            hi = hi.max(t);
        }
        self.width = if sample.is_empty() {
            1
        } else {
            ((hi - lo) / sample.len() as u64).max(1)
        };
        let start = if sample.is_empty() { self.last_pop } else { lo };
        self.buckets.resize_with(new_n, Vec::new);
        self.mask = new_n - 1;
        self.base = (start / self.width) * self.width;
        self.cursor = ((start / self.width) as usize) & self.mask;
        self.cal_len = 0;
        for (t, p) in events {
            self.place(t, p);
        }
        for (t, p) in overflow {
            self.place(t, p);
        }
    }
}

impl<P: Copy + Ord> Default for CalendarQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Copy + Ord> EventQueue<P> for CalendarQueue<P> {
    fn push(&mut self, time: u64, payload: P) {
        debug_assert!(
            time >= self.last_pop,
            "event pushed at t={time} before last popped t={}",
            self.last_pop
        );
        self.len += 1;
        if self.len > 2 * self.nbuckets() && self.nbuckets() < MAX_BUCKETS {
            let n = self.nbuckets();
            self.rebuild(n * 2);
        }
        self.place(time, payload);
    }

    fn pop(&mut self) -> Option<(u64, P)> {
        if !self.position() {
            return None;
        }
        let (t, p) = if self.activated {
            let Reverse(e) = self.active.pop().expect("positioned");
            e
        } else {
            let mi = self.cursor_min_idx();
            self.buckets[self.cursor].swap_remove(mi)
        };
        self.cal_len -= 1;
        self.len -= 1;
        debug_assert!(
            t >= self.last_pop,
            "event popped at t={t} before last popped t={}",
            self.last_pop
        );
        self.last_pop = self.last_pop.max(t);
        if self.len < self.nbuckets() / 8 && self.nbuckets() > MIN_BUCKETS {
            let n = self.nbuckets();
            self.rebuild(n / 2);
        }
        Some((t, p))
    }

    fn peek(&mut self) -> Option<(u64, P)> {
        if !self.position() {
            return None;
        }
        if self.activated {
            self.active.peek().map(|&Reverse(e)| e)
        } else {
            Some(self.buckets[self.cursor][self.cursor_min_idx()])
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain both queues in lockstep and require identical sequences.
    fn assert_identical(events: &[(u64, u32)]) {
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        for &(t, p) in events {
            cal.push(t, p);
            heap.push(t, p);
        }
        assert_eq!(cal.len(), heap.len());
        loop {
            assert_eq!(cal.peek(), heap.peek());
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert!(cal.is_empty() && heap.is_empty());
    }

    #[test]
    fn empty_queue() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn sorted_pop_order_uniform() {
        let events: Vec<(u64, u32)> = (0..500).map(|i| ((i * 37) % 1000, i as u32)).collect();
        assert_identical(&events);
    }

    #[test]
    fn same_timestamp_ties_pop_in_payload_order() {
        let events: Vec<(u64, u32)> = (0..200).map(|i| (42, (199 - i) as u32)).collect();
        assert_identical(&events);
    }

    #[test]
    fn far_future_outliers_use_overflow() {
        let mut events: Vec<(u64, u32)> = (0..100).map(|i| (i, i as u32)).collect();
        events.push((1_000_000_000, 7));
        events.push((u64::MAX, 8));
        events.push((1 << 40, 9));
        assert_identical(&events);
    }

    #[test]
    fn straggler_behind_advanced_cursor_is_not_lost() {
        // A peek may advance the cursor far past quiet windows; a
        // later push that is ≥ last_pop but < base must still pop
        // before everything later (the cursor-clamp escape hatch).
        let mut q = CalendarQueue::new();
        q.push(0, 0u32);
        q.push(100_000, 1);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.peek(), Some((100_000, 1))); // cursor now far ahead
        q.push(50, 2); // ≥ last_pop (0) but « base
        assert_eq!(q.pop(), Some((50, 2)));
        assert_eq!(q.pop(), Some((100_000, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_monotone_stream() {
        // Simulates the engines: pops at time t push follow-ups at
        // t + small delay, with occasional far-future retries.
        let mut cal = CalendarQueue::new();
        let mut heap = HeapQueue::new();
        let mut seed: u64 = 0x5eed_cafe;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for i in 0..64u32 {
            let t = rng() % 64;
            cal.push(t, i);
            heap.push(t, i);
        }
        let mut next_id = 64u32;
        let mut popped = 0usize;
        while let Some((t, p)) = cal.pop() {
            assert_eq!(heap.pop(), Some((t, p)));
            popped += 1;
            if popped < 5000 {
                let spawn = 1 + (rng() % 2) as usize;
                for _ in 0..spawn {
                    let delay = match rng() % 10 {
                        9 => 10_000 + rng() % 1000, // far-future retry
                        r => 1 + r,
                    };
                    cal.push(t + delay, next_id);
                    heap.push(t + delay, next_id);
                    next_id += 1;
                }
            }
            assert_eq!(cal.len(), heap.len());
        }
        assert_eq!(heap.pop(), None);
        assert!(popped >= 5000);
    }

    #[test]
    fn dense_burst_activates_without_reordering() {
        // > ACTIVATE_LEN events in one window, with pushes landing
        // mid-drain while the bucket is heapified.
        let mut q = CalendarQueue::new();
        for i in 0..100u32 {
            q.push(5, i);
        }
        for i in 0..50u32 {
            assert_eq!(q.pop(), Some((5, i)));
        }
        q.push(5, 200); // lands in the activation heap
        q.push(6, 201);
        for i in 50..100u32 {
            assert_eq!(q.pop(), Some((5, i)));
        }
        assert_eq!(q.pop(), Some((5, 200)));
        assert_eq!(q.pop(), Some((6, 201)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn resize_churn_grow_then_shrink() {
        let mut q = CalendarQueue::new();
        let n = 10_000u32;
        for i in 0..n {
            q.push((i as u64) * 3, i);
        }
        // Growth happened: draining must stay sorted through shrinks.
        let mut last = (0u64, 0u32);
        let mut count = 0;
        while let Some(e) = q.pop() {
            assert!(e >= last, "out of order: {e:?} after {last:?}");
            last = e;
            count += 1;
        }
        assert_eq!(count, n);
    }

    /// The braid engine's fig6 release pattern at code distance 5: a
    /// bounded window of in-flight ops whose releases land exactly one
    /// hold quantum (`d + 1 = 6` cycles) after issue. This is the
    /// trace shape every fig6 app (gse, square-root, sha1, ising)
    /// drives through the `releases` queue.
    fn fig6_release_trace<Q: EventQueue<u32>>(q: &mut Q, quantum: u64, concurrency: u32) {
        let mut id = 0u32;
        // First fill: one release wave, quantum-spaced.
        for i in 0..concurrency {
            q.push(u64::from(i) * quantum, id);
            id += 1;
        }
        // Steady state: each pop at time t issues a successor whose
        // release lands at t + quantum, exactly like op completion
        // unblocking a dependent.
        for _ in 0..2000 {
            let (t, _) = q.pop().expect("steady-state queue never empties");
            q.push(t + quantum, id);
            id += 1;
        }
        while q.pop().is_some() {}
    }

    #[test]
    fn seeded_width_absorbs_the_first_fill_without_resizing() {
        // Satellite: seeding the bucket width with the braid hold
        // quantum (d + 1) keeps the whole fig6-shaped trace in the
        // ring — no rebuild ever re-estimates the width the engine
        // already knew, and no event detours through the overflow
        // heap. The unseeded queue needs the overflow slow path for
        // the same trace (its 16-cycle horizon is narrower than one
        // release wave).
        const QUANTUM: u64 = 6; // d = 5
        let mut seeded = CalendarQueue::with_width(QUANTUM);
        fig6_release_trace(&mut seeded, QUANTUM, 16);
        assert_eq!(seeded.rebuild_count(), 0, "seeded queue resized");
        assert_eq!(seeded.width(), QUANTUM, "seeded width was re-estimated");
        assert_eq!(seeded.overflow_event_count(), 0, "seeded queue overflowed");

        let mut unseeded = CalendarQueue::new();
        fig6_release_trace(&mut unseeded, QUANTUM, 16);
        assert!(
            unseeded.overflow_event_count() > 0,
            "default width should have needed the overflow heap here"
        );
    }

    #[test]
    fn seeded_width_pops_identically_to_the_heap() {
        let events: Vec<(u64, u32)> = (0..500u64)
            .map(|i| ((i % 40) * 6 + i / 40, i as u32))
            .collect();
        let mut cal = CalendarQueue::with_width(6);
        let mut heap = HeapQueue::new();
        for &(t, p) in &events {
            cal.push(t, p);
            heap.push(t, p);
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn zero_width_seed_clamps_to_one() {
        let mut q = CalendarQueue::with_width(0);
        assert_eq!(q.width(), 1);
        q.push(3, 1u32);
        q.push(0, 0u32);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((3, 1)));
    }

    #[test]
    #[should_panic(expected = "before last popped")]
    #[cfg(debug_assertions)]
    fn non_monotone_push_is_caught() {
        let mut q = CalendarQueue::new();
        q.push(10, 0u32);
        assert_eq!(q.pop(), Some((10, 0)));
        q.push(9, 1); // earlier than the last pop: engines never do this
    }
}
