//! A stable timestamped event queue: a binary heap keyed `(time, seq)`.
//!
//! The queue must pop events in exact `(timestamp, insertion order)` order or
//! the federation's behaviour would depend on container internals — the
//! golden-trace suite pins this. Every entry carries the value of a counter
//! that grows with each push, and the heap orders entries by `(at, seq)`:
//! FIFO-within-timestamp is the key, not an argument about the container.
//! A push may land at any instant, before or after what was already popped;
//! the next pop is always the smallest `(at, seq)` pending.
//!
//! A *run* ([`EventQueue::push_run`]) is n pushes of one event: it takes n
//! consecutive `seq`s and sits in the heap as one entry keyed by its next
//! `(at, seq)`, so a wave of arrivals costs the heap one entry, not n.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// One pending event or run; ordered by `(at, seq)` reversed so the max-heap
/// `BinaryHeap` pops earliest-first.
struct Entry<E> {
    at: u64,
    seq: u64,
    slot: Slot<E>,
}

enum Slot<E> {
    One(E),
    Run(Box<Run<E>>),
}

/// The elements of a run after the one its entry is keyed by, in `(at, seq)`
/// order; each but the last pops a clone of `event`, the last moves it.
struct Run<E> {
    event: E,
    clone: fn(&E) -> E,
    rest: std::vec::IntoIter<(u64, u64)>,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of events keyed by [`SimTime`], FIFO within a timestamp.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Insertion counter: the tie-break within a timestamp.
    next_seq: u64,
    /// Pending events, every element of a run counted.
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.heap.push(Entry {
            at: at.as_micros(),
            seq,
            slot: Slot::One(event),
        });
    }

    /// Exactly `push(t, event.clone())` for each `t` of `times` in turn, the
    /// last taking `event` itself: the run takes their `seq`s in input order
    /// and is one heap entry until its last element pops.
    pub fn push_run(&mut self, times: impl IntoIterator<Item = SimTime>, event: E)
    where
        E: Clone,
    {
        let base = self.next_seq;
        let mut keys: Vec<(u64, u64)> = (base..)
            .zip(times)
            .map(|(seq, at)| (at.as_micros(), seq))
            .collect();
        self.next_seq += keys.len() as u64;
        self.len += keys.len();
        if !keys.is_sorted() {
            keys.sort_unstable();
        }
        let mut rest = keys.into_iter();
        let Some((at, seq)) = rest.next() else { return };
        let slot = match rest.len() {
            0 => Slot::One(event),
            _ => Slot::Run(Box::new(Run {
                event,
                clone: E::clone,
                rest,
            })),
        };
        self.heap.push(Entry { at, seq, slot });
    }

    /// Timestamp of the earliest pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime::from_micros(e.at))
    }

    /// Pop the earliest event if it is due at or before `now`. A run's
    /// element re-keys its entry in place to the next one.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        let mut top = self.heap.peek_mut()?;
        if top.at > now.as_micros() {
            return None;
        }
        let at = SimTime::from_micros(top.at);
        self.len -= 1;
        if let Slot::Run(run) = &mut top.slot {
            if let Some((next_at, next_seq)) = run.rest.next() {
                let event = (run.clone)(&run.event);
                (top.at, top.seq) = (next_at, next_seq);
                return Some((at, event));
            }
        }
        let event = match PeekMut::pop(top).slot {
            Slot::One(event) => event,
            Slot::Run(run) => run.event,
        };
        Some((at, event))
    }

    /// Drain every event due at or before `now`, in timestamp-then-insertion
    /// order, into a `Vec` (convenient when handling events needs `&mut self`
    /// of the owner).
    pub fn drain_due(&mut self, now: SimTime) -> Vec<(SimTime, E)> {
        let mut out = Vec::new();
        self.drain_due_into(now, &mut out);
        out
    }

    /// [`Self::drain_due`] into a caller-owned buffer: hot loops reuse one
    /// allocation across steps instead of building a fresh `Vec` per step.
    /// The buffer is **not** cleared — due events are appended — so callers
    /// that recycle it must `clear()` between steps.
    pub fn drain_due_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, E)>) {
        while let Some(pair) = self.pop_due(now) {
            out.push(pair);
        }
    }

    /// Pending events, counting each element of a run.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn clear(&mut self) {
        self.heap.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let drained: Vec<_> = q
            .drain_due(SimTime::from_secs(10))
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        assert_eq!(drained, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_within_equal_timestamps() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let drained: Vec<_> = q.drain_due(t).into_iter().map(|(_, e)| e).collect();
        assert_eq!(drained, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "later");
        assert!(q.pop_due(SimTime::from_secs(4)).is_none());
        assert_eq!(q.next_time(), Some(SimTime::from_secs(5)));
        let (at, e) = q.pop_due(SimTime::from_secs(5)).unwrap();
        assert_eq!((at, e), (SimTime::from_secs(5), "later"));
        assert!(q.is_empty());
    }

    #[test]
    fn drain_due_into_reuses_buffer() {
        let mut q = EventQueue::new();
        let mut buf: Vec<(SimTime, &str)> = Vec::with_capacity(8);
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        q.drain_due_into(SimTime::from_secs(1), &mut buf);
        assert_eq!(buf.len(), 1);
        let cap = buf.capacity();
        buf.clear();
        q.drain_due_into(SimTime::from_secs(5), &mut buf);
        assert_eq!(buf, vec![(SimTime::from_secs(2), "b")]);
        assert_eq!(buf.capacity(), cap, "no reallocation for a smaller drain");
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1u8);
        q.push(SimTime::ZERO, 2u8);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.next_time().is_none());
    }

    #[test]
    fn far_future_overflow_promotes_in_order() {
        let mut q = EventQueue::new();
        // Days of virtual time beyond the near event.
        let far_a = SimTime::from_secs(200_000);
        let far_b = SimTime::from_secs(300_000);
        q.push(far_b, "far-b");
        q.push(far_a, "far-a2");
        q.push(SimTime::from_secs(1), "near");
        q.push(far_a, "far-a3");
        assert_eq!(q.next_time(), Some(SimTime::from_secs(1)));
        let drained: Vec<_> = q
            .drain_due(SimTime::FAR_FUTURE)
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        assert_eq!(drained, vec!["near", "far-a2", "far-a3", "far-b"]);
    }

    #[test]
    fn push_behind_cursor_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(100), "late");
        // Pop far ahead of the instant pushed next.
        let (at, _) = q.pop_due(SimTime::from_secs(100)).unwrap();
        assert_eq!(at, SimTime::from_secs(100));
        // Now push behind the last pop: exact semantics must hold anyway.
        q.push(SimTime::from_secs(1), "early");
        q.push(SimTime::from_secs(200), "future");
        assert_eq!(q.next_time(), Some(SimTime::from_secs(1)));
        let (at, e) = q.pop_due(SimTime::from_secs(500)).unwrap();
        assert_eq!((at, e), (SimTime::from_secs(1), "early"));
        let (at, e) = q.pop_due(SimTime::from_secs(500)).unwrap();
        assert_eq!((at, e), (SimTime::from_secs(200), "future"));
        assert!(q.is_empty());
    }

    #[test]
    fn push_behind_a_partly_drained_instant_pops_first_at_its_own_time() {
        let t = SimTime::from_micros(100);
        let mut q = EventQueue::new();
        q.push(t, "a");
        q.push(t, "b");
        assert_eq!(q.pop_due(t), Some((t, "a")));
        // `b` is still pending at 100 µs; `c` lands 30 µs before it.
        q.push(SimTime::from_micros(70), "c");
        assert_eq!(q.next_time(), Some(SimTime::from_micros(70)));
        assert_eq!(q.pop_due(t), Some((SimTime::from_micros(70), "c")));
        assert_eq!(q.pop_due(t), Some((t, "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn same_timestamp_batch_survives_interleaved_pushes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1500);
        q.push(t, 0);
        q.push(t, 1);
        // Pop one, then push more at the same instant: they must drain after
        // the entries already pending there.
        assert_eq!(q.pop_due(t).map(|(_, e)| e), Some(0));
        q.push(t, 2);
        q.push(t, 3);
        let rest: Vec<_> = q.drain_due(t).into_iter().map(|(_, e)| e).collect();
        assert_eq!(rest, vec![1, 2, 3]);
    }

    /// An event that counts its clones.
    struct Counted(std::rc::Rc<std::cell::Cell<usize>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(self.0.clone())
        }
    }

    #[test]
    fn a_run_clones_for_all_but_its_last_element() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut q = EventQueue::new();
        let times = [5u64, 1, 3].map(SimTime::from_secs);
        q.push_run(times, Counted(clones.clone()));
        assert_eq!(clones.get(), 0, "pushing a run clones nothing");
        let popped: Vec<SimTime> = std::iter::from_fn(|| q.pop_due(SimTime::from_secs(4)))
            .map(|(at, _)| at)
            .collect();
        assert_eq!(popped, [1, 3].map(SimTime::from_secs));
        assert_eq!(clones.get(), 2);
        let (at, last) = q.pop_due(SimTime::FAR_FUTURE).expect("the last element");
        assert_eq!(
            (at, clones.get()),
            (SimTime::from_secs(5), 2),
            "the last one moves"
        );
        assert_eq!(
            std::rc::Rc::strong_count(&last.0),
            2,
            "the original handle plus the test's"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn len_counts_pending_run_elements() {
        let mut q = EventQueue::new();
        q.push_run([3, 1, 2].map(SimTime::from_secs), 'r');
        q.push(SimTime::from_secs(2), 's');
        q.push_run([], 'e');
        assert_eq!(q.len(), 4);
        let t = SimTime::from_secs(2);
        assert_eq!(q.pop_due(t), Some((SimTime::from_secs(1), 'r')));
        assert_eq!(q.len(), 3);
        // Same instant: the run's element was pushed first.
        assert_eq!(q.pop_due(t), Some((t, 'r')));
        assert_eq!(q.pop_due(t), Some((t, 's')));
        assert_eq!(q.len(), 1);
        q.clear();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn sim_like_workload_stays_ordered() {
        // Mimics the federation wire: bursts submitted at one instant with
        // per-target latencies, handlers scheduling follow-ups.
        let mut q = EventQueue::new();
        let mut seq = 0u32;
        for i in 0..64u64 {
            q.push(SimTime::from_micros(50_000 + (i % 16) * 7), seq);
            seq += 1;
        }
        let mut popped = Vec::new();
        let mut now = SimTime::ZERO;
        while let Some((at, e)) = q.pop_due(SimTime::FAR_FUTURE) {
            assert!(at >= now, "time went backwards");
            now = at;
            popped.push((at, e));
            if popped.len() < 200 && e % 3 == 0 {
                q.push(now + crate::time::SimDuration::from_millis(3000), seq);
                seq += 1;
            }
        }
        // Equal timestamps popped in push order.
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated at {}", w[0].0);
            }
        }
    }
}
