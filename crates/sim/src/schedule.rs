//! The event scheduler of the discrete-event engines.
//!
//! Both engines order pending work by the total order `(time, seq)`:
//! completion time first (`f64::total_cmp`), then submission sequence
//! number as the tie-break. [`HeapQueue`] is that order over one
//! `std::collections::BinaryHeap`; DESIGN.md §12 states the contract.
//!
//! The deterministic engine holds exactly one entry per client at all
//! times, so it reserves the heap once at `num_clients` entries
//! ([`HeapQueue::with_capacity`]) and the heap never reallocates. Since
//! `seq` is unique per push, the order is strict: pop order is a pure
//! function of the pushed keys, whatever the interleaving of pushes and
//! pops, for every `f64` time including ties, `±0.0`, infinities and NaN.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The scheduling key every queued event exposes: the virtual (or wall)
/// time it becomes due, plus a submission sequence number that makes the
/// order total even under time ties.
pub trait EventKey {
    /// When the event becomes due.
    fn time(&self) -> f64;
    /// Tie-break: earlier submissions pop first among equal times.
    fn seq(&self) -> u64;
}

/// `(time, seq)` ascending under `f64::total_cmp` — the scheduler's one
/// total order.
fn key_cmp<T: EventKey>(a: &T, b: &T) -> Ordering {
    a.time()
        .total_cmp(&b.time())
        .then_with(|| a.seq().cmp(&b.seq()))
}

/// Max-heap adapter: reversed `(time, seq)` so `BinaryHeap` pops the
/// minimum key first.
struct HeapEntry<T>(T);

impl<T: EventKey> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        key_cmp(&self.0, &other.0) == Ordering::Equal
    }
}
impl<T: EventKey> Eq for HeapEntry<T> {}
impl<T: EventKey> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: EventKey> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        key_cmp(&other.0, &self.0)
    }
}

/// A min-queue of events ordered by `(time, seq)`.
pub struct HeapQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
}

impl<T: EventKey> HeapQueue<T> {
    /// Creates an empty queue that grows on demand.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }

    /// Creates an empty queue with room for exactly `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Enqueues an event.
    pub fn push(&mut self, item: T) {
        self.heap.push(HeapEntry(item));
    }

    /// Removes and returns the earliest `(time, seq)` event.
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.0)
    }

    /// The earliest event's time without removing it.
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.0.time())
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Events the queue holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

impl<T: EventKey> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Minimal keyed event for exercising the queue.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Ev {
        t: f64,
        s: u64,
    }

    impl EventKey for Ev {
        fn time(&self) -> f64 {
            self.t
        }
        fn seq(&self) -> u64 {
            self.s
        }
    }

    fn by_time(a: &Ev, b: &Ev) -> Ordering {
        a.t.total_cmp(&b.t)
    }

    fn drain(q: &mut HeapQueue<Ev>) -> Vec<Ev> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q = HeapQueue::<Ev>::new();
        assert!(q.pop().is_none());
        assert!(q.next_time().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn pops_ascend_by_time_then_seq() {
        let mut q = HeapQueue::new();
        // Ties at t = 2.0 must pop in seq order.
        for (t, s) in [(5.0, 0), (2.0, 1), (2.0, 2), (9.0, 3), (0.5, 4), (2.0, 5)] {
            q.push(Ev { t, s });
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.next_time(), Some(0.5));
        let order: Vec<u64> = drain(&mut q).iter().map(|e| e.s).collect();
        assert_eq!(order, vec![4, 1, 2, 5, 0, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn total_cmp_orders_signed_zeros_and_nonfinite_times() {
        let mut q = HeapQueue::new();
        for (t, s) in [
            (f64::NAN, 0),
            (0.0, 1),
            (f64::INFINITY, 2),
            (-0.0, 3),
            (1.0, 4),
            (f64::NEG_INFINITY, 5),
        ] {
            q.push(Ev { t, s });
        }
        let order: Vec<u64> = drain(&mut q).iter().map(|e| e.s).collect();
        // -inf < -0.0 < +0.0 < 1 < +inf < NaN under `total_cmp`.
        assert_eq!(order, vec![5, 3, 1, 4, 2, 0]);
    }

    #[test]
    fn exact_reserve_holds_a_full_hold_pattern() {
        // The engine's shape: one entry per client, each pop followed by
        // one push, so the queue never outgrows its initial reservation.
        let clients = 1_000;
        let mut q = HeapQueue::with_capacity(clients);
        let reserved = q.capacity();
        assert!(reserved >= clients);
        for s in 0..clients as u64 {
            q.push(Ev {
                t: (s % 17) as f64,
                s,
            });
        }
        for s in clients as u64..10 * clients as u64 {
            let e = q.pop().expect("never empty");
            q.push(Ev {
                t: e.t + (s % 5) as f64,
                s,
            });
        }
        assert_eq!(q.len(), clients);
        assert_eq!(q.capacity(), reserved);
    }

    proptest! {
        /// Pop order equals a stable sort of the pushed events by
        /// `(time, seq)` under `total_cmp`, under random interleavings of
        /// pushes and pops. Times come from a small set including exact
        /// ties, both zeros, infinities and NaN.
        #[test]
        fn prop_pop_order_is_the_stable_sort_by_time_then_seq(
            raw in proptest::collection::vec((0usize..9, 0u32..3), 1..200),
            pop_every in 0usize..6,
        ) {
            const TIMES: [f64; 9] = [
                0.0,
                -0.0,
                0.5,
                0.5,
                1.0,
                2.5,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            let mut q = HeapQueue::new();
            let mut pending: Vec<Ev> = Vec::new();
            let mut seq = 0u64;
            for (i, &(slot, copies)) in raw.iter().enumerate() {
                for _ in 0..=copies {
                    let e = Ev { t: TIMES[slot], s: seq };
                    seq += 1;
                    q.push(e);
                    pending.push(e);
                }
                if pop_every > 0 && i % pop_every == 0 {
                    // Reference: `pending` is in push (= seq) order, so a
                    // stable sort by time alone orders it by (time, seq).
                    pending.sort_by(by_time);
                    let want = pending.remove(0);
                    let got = q.pop().expect("queue holds what was pushed");
                    prop_assert_eq!(got.t.to_bits(), want.t.to_bits());
                    prop_assert_eq!(got.s, want.s);
                }
            }
            pending.sort_by(by_time);
            let rest = drain(&mut q);
            prop_assert_eq!(rest.len(), pending.len());
            for (got, want) in rest.iter().zip(&pending) {
                prop_assert_eq!(got.t.to_bits(), want.t.to_bits());
                prop_assert_eq!(got.s, want.s);
            }
        }
    }
}
