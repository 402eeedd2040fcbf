//! The event scheduler of the discrete-event engines.
//!
//! Both engines order pending work by the total order `(time, seq)`:
//! completion time first (`f64::total_cmp`), then submission sequence
//! number as the tie-break. [`HeapQueue`] is that order over one
//! `std::collections::BinaryHeap`; [`WaveQueue`] is the same order over a
//! sorted kickoff wave merged with such a heap. DESIGN.md §12 states the
//! contract.
//!
//! Since `seq` is unique per event, the order is strict: pop order is a
//! pure function of the pushed keys, whatever the interleaving of pushes
//! and pops, for every `f64` time including ties, `±0.0`, infinities and
//! NaN. The deterministic engine starts every client at once, so it hands
//! the whole first wave to a [`WaveQueue`], sorted once, and only the jobs
//! it schedules later go through the heap, which grows on demand.

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
/// total order, over any two keyed event types.
fn key_cmp<A: EventKey, B: EventKey>(a: &A, b: &B) -> Ordering {
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

    /// Enqueues an event.
    pub fn push(&mut self, item: T) {
        self.heap.push(HeapEntry(item));
    }

    /// Removes and returns the earliest `(time, seq)` event.
    pub fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|e| e.0)
    }

    /// The earliest `(time, seq)` event without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.heap.peek().map(|e| &e.0)
    }

    /// The earliest event's time without removing it.
    pub fn next_time(&self) -> Option<f64> {
        self.peek().map(EventKey::time)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T: EventKey> Default for HeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Where [`WaveQueue::pop`]'s event came from.
#[derive(Debug, PartialEq)]
pub enum Popped<W, T> {
    /// The next entry of the sorted wave.
    Wave(W),
    /// The earliest event pushed since construction.
    Heap(T),
}

/// A min-queue over two sources: a wave of events known up front, sorted
/// once by `(time, seq)`, and a [`HeapQueue`] of events pushed later.
///
/// [`pop`](Self::pop) returns whichever source's earliest event comes
/// first under the one total order, so the pop order is exactly that of a
/// single [`HeapQueue`] holding the wave from the start. The wave is read
/// by a cursor: a popped wave entry stays in place (its storage is freed
/// with the queue), so the entries ahead of the cursor can be inspected
/// in pop order ([`wave`](Self::wave), [`wave_popped`](Self::wave_popped)).
pub struct WaveQueue<W, T> {
    wave: Vec<W>,
    popped: usize,
    heap: HeapQueue<T>,
}

impl<W: EventKey + Clone, T: EventKey> WaveQueue<W, T> {
    /// Sorts `wave` by `(time, seq)` and starts with an empty heap.
    pub fn new(mut wave: Vec<W>) -> Self {
        wave.sort_unstable_by(key_cmp);
        Self {
            wave,
            popped: 0,
            heap: HeapQueue::new(),
        }
    }

    /// Enqueues an event into the heap.
    pub fn push(&mut self, item: T) {
        self.heap.push(item);
    }

    /// Removes and returns the earliest `(time, seq)` event of either
    /// source.
    pub fn pop(&mut self) -> Option<Popped<W, T>> {
        let from_wave = match (self.wave.get(self.popped), self.heap.peek()) {
            (Some(w), Some(h)) => key_cmp(w, h) == Ordering::Less,
            (w, _) => w.is_some(),
        };
        if !from_wave {
            return self.heap.pop().map(Popped::Heap);
        }
        let entry = self.wave.get(self.popped)?.clone();
        self.popped += 1;
        Some(Popped::Wave(entry))
    }

    /// The whole wave in pop order, popped entries included.
    pub fn wave(&self) -> &[W] {
        &self.wave
    }

    /// How many wave entries have been popped: the wave's cursor.
    pub fn wave_popped(&self) -> usize {
        self.popped
    }

    /// Events in the heap (pushed and not yet popped).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
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

    /// Event times for the property tests: exact ties, both zeros, both
    /// infinities and NaN.
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

    fn merged(p: Popped<Ev, Ev>) -> Ev {
        match p {
            Popped::Wave(e) | Popped::Heap(e) => e,
        }
    }

    #[test]
    fn wave_and_heap_interleave_by_time_then_seq() {
        // The wave arrives unsorted; seqs 0..4 are the wave's, later ones
        // the heap's, as in the engine.
        let wave = vec![
            Ev { t: 2.0, s: 2 },
            Ev { t: 1.0, s: 0 },
            Ev { t: 2.0, s: 1 },
            Ev { t: 9.0, s: 3 },
        ];
        let mut q = WaveQueue::new(wave);
        q.push(Ev { t: 2.0, s: 4 });
        q.push(Ev { t: 0.5, s: 5 });
        assert_eq!(q.heap_len(), 2);
        assert_eq!(q.pop(), Some(Popped::Heap(Ev { t: 0.5, s: 5 })));
        assert_eq!(q.pop(), Some(Popped::Wave(Ev { t: 1.0, s: 0 })));
        assert_eq!(q.wave_popped(), 1);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|p| merged(p).s)
            .collect();
        assert_eq!(order, vec![1, 2, 4, 3]);
        assert_eq!(
            q.wave().iter().map(|e| e.s).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(q.wave_popped(), 4);
        assert_eq!(q.heap_len(), 0);
    }

    proptest! {
        /// Pop order equals a stable sort of the pushed events by
        /// `(time, seq)` under `total_cmp`, under random interleavings of
        /// pushes and pops, over [`TIMES`].
        #[test]
        fn prop_pop_order_is_the_stable_sort_by_time_then_seq(
            raw in proptest::collection::vec((0usize..9, 0u32..3), 1..200),
            pop_every in 0usize..6,
        ) {
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

        /// A sorted wave merged with a heap pops exactly like one heap
        /// that held the wave from the start, under random interleavings
        /// of pushes and pops. Times come from [`TIMES`], so they tie
        /// within the wave, within the heap and across the two.
        #[test]
        fn prop_wave_merge_pops_like_one_heap(
            wave_slots in proptest::collection::vec(0usize..9, 0..120),
            raw in proptest::collection::vec((0usize..9, 0u32..3), 0..120),
            pop_every in 1usize..6,
        ) {
            let n = wave_slots.len() as u64;
            let wave: Vec<Ev> = (0..n).zip(&wave_slots).map(|(s, &slot)| Ev { t: TIMES[slot], s }).collect();
            let mut single = HeapQueue::new();
            for &e in &wave {
                single.push(e);
            }
            let mut q = WaveQueue::new(wave.into_iter().rev().collect());
            let mut seq = n;
            let check = |q: &mut WaveQueue<Ev, Ev>, single: &mut HeapQueue<Ev>| {
                let want = single.pop();
                let got = q.pop();
                if let Some(Popped::Wave(e)) = &got {
                    assert!(e.s < n, "heap event {e:?} popped as a wave entry");
                }
                if let Some(Popped::Heap(e)) = &got {
                    assert!(e.s >= n, "wave entry {e:?} popped from the heap");
                }
                let got = got.map(merged);
                assert_eq!(got.map(|e| (e.t.to_bits(), e.s)), want.map(|e| (e.t.to_bits(), e.s)));
                want.is_some()
            };
            for (i, &(slot, copies)) in raw.iter().enumerate() {
                for _ in 0..=copies {
                    let e = Ev { t: TIMES[slot], s: seq };
                    seq += 1;
                    q.push(e);
                    single.push(e);
                }
                if i % pop_every == 0 {
                    check(&mut q, &mut single);
                }
            }
            while check(&mut q, &mut single) {}
            prop_assert_eq!(q.wave_popped() as u64, n);
            prop_assert_eq!(q.heap_len(), 0);
        }
    }
}
