//! A stable timestamped event queue, implemented as a hierarchical timing
//! wheel.
//!
//! The queue must pop events in exact `(timestamp, insertion order)` order or
//! the federation's behaviour would depend on container internals — the
//! golden-trace suite pins this. The previous implementation was a
//! `BinaryHeap` with explicit sequence numbers; every push and pop paid
//! `O(log n)` comparisons against the whole pending set even though the
//! simulator's access pattern is strongly time-local (events fire near the
//! cursor, new events land a bounded latency ahead).
//!
//! The wheel (tokio-timer style) exploits that locality:
//!
//! * **Levels.** Six levels of 64 slots each. An event's level is the highest
//!   bit position (in 6-bit groups) where its timestamp differs from the
//!   wheel cursor, so level 0 holds the cursor's current 64 µs window with
//!   one exact timestamp per slot, and each higher level covers 64× the span
//!   of the one below (level 5 spans ~19 virtual hours). Pushes are O(1)
//!   appends; an entry cascades down at most six times over its life.
//! * **Sorted overflow.** Events further than the wheel span from the cursor
//!   (long walltimes, `FAR_FUTURE` sentinels) sit in a `BTreeMap` keyed by
//!   timestamp and are promoted wholesale when the cursor reaches them.
//! * **Ready batch.** When the cursor reaches a level-0 slot, the whole slot
//!   — every event due at that exact instant, in insertion order — is
//!   promoted into a `VecDeque`, so same-timestamp bursts drain with O(1)
//!   pops and no re-probing between them (batched same-timestamp dispatch).
//! * **Past heap.** The generic API allows pushing behind the cursor (the
//!   simulator never does on its hot path); such entries go to a small
//!   binary heap ordered by `(time, seq)` so exact semantics hold anyway.
//!
//! FIFO-within-timestamp holds structurally: equal timestamps always map to
//! the same slot vector, appends preserve arrival order, and cascades move
//! whole vectors in order into empty lower slots. The cached global minimum
//! makes `next_time` O(1), which the hot loop probes far more often than it
//! pops.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; the wheel spans `2^(SLOT_BITS * LEVELS)` µs
/// (~19.1 virtual hours) from the cursor before the overflow map takes over.
const LEVELS: usize = 6;
/// First timestamp delta (xor-distance from the cursor) the wheel cannot
/// index; at or beyond it events go to the sorted overflow level.
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Entry in the past-push fallback heap; ordered by `(at, seq)` reversed so
/// the `BinaryHeap` max-heap pops earliest-first.
struct PastEntry<E> {
    at: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for PastEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for PastEntry<E> {}
impl<E> PartialOrd for PastEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for PastEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The wheel's slot storage: one insertion-ordered vector per (level, slot).
type SlotArray<E> = [[Vec<(u64, E)>; SLOTS]; LEVELS];

/// A priority queue of events keyed by [`SimTime`], FIFO within a timestamp.
pub struct EventQueue<E> {
    /// Wheel cursor: placements are computed relative to it, and it only
    /// moves forward (to the window of the entry being popped).
    cursor: u64,
    /// `levels[l][s]`: events whose timestamp differs from the cursor in bit
    /// group `l` with slot index `s`, in insertion order. Level 0 slots hold
    /// exactly one timestamp each.
    /// Boxed so the queue stays pointer-sized-ish inline: 6×64 `Vec`
    /// headers are ~9 KB, far too large to embed in every component.
    levels: Box<SlotArray<E>>,
    /// Per-level slot-occupancy bitmaps (bit `s` set ⇔ `levels[l][s]` is
    /// non-empty); `next_time` and cascades find slots via `trailing_zeros`.
    occupied: [u64; LEVELS],
    /// The promoted current-instant batch: every queued event at exactly
    /// `ready_at`, in insertion order.
    ready: VecDeque<E>,
    ready_at: u64,
    /// Events pushed behind the cursor's level-0 window (never on the sim
    /// hot path); exact `(time, seq)` order preserved by the heap.
    past: BinaryHeap<PastEntry<E>>,
    /// Far-future events beyond the wheel span, sorted by timestamp; each
    /// vector is in insertion order.
    overflow: BTreeMap<u64, Vec<E>>,
    /// Cached earliest pending timestamp across every structure.
    next_min: Option<u64>,
    next_seq: u64,
    len: usize,
    /// Spare slot vector rotated through cascades so refiling a slot never
    /// drops (and later re-grows) its heap allocation.
    cascade_scratch: Vec<(u64, E)>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            cursor: 0,
            levels: Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()))),
            occupied: [0; LEVELS],
            ready: VecDeque::new(),
            ready_at: 0,
            past: BinaryHeap::new(),
            overflow: BTreeMap::new(),
            next_min: None,
            next_seq: 0,
            len: 0,
            cascade_scratch: Vec::new(),
        }
    }

    /// Start of the cursor's level-0 window (low [`SLOT_BITS`] cleared).
    #[inline]
    fn window_start(&self) -> u64 {
        self.cursor & !(SLOTS as u64 - 1)
    }

    /// `(level, slot)` of timestamp `at` relative to the current cursor.
    /// Caller guarantees `window_start() <= at` and `at ^ cursor < WHEEL_SPAN`.
    #[inline]
    fn locate(&self, at: u64) -> (usize, usize) {
        let x = at ^ self.cursor;
        if x < SLOTS as u64 {
            (0, (at & (SLOTS as u64 - 1)) as usize)
        } else {
            let level = ((63 - x.leading_zeros()) / SLOT_BITS) as usize;
            (level, ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize)
        }
    }

    /// File one event into the structure that owns its timestamp. Does not
    /// touch `len` or `next_min` — callers maintain those.
    fn place(&mut self, at: u64, event: E) {
        if at < self.window_start() {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.past.push(PastEntry { at, seq, event });
            return;
        }
        if at ^ self.cursor >= WHEEL_SPAN {
            self.overflow.entry(at).or_default().push(event);
            return;
        }
        let (level, slot) = self.locate(at);
        self.levels[level][slot].push((at, event));
        self.occupied[level] |= 1 << slot;
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let at = at.as_micros();
        self.place(at, event);
        self.len += 1;
        if self.next_min.is_none_or(|m| at < m) {
            self.next_min = Some(at);
        }
    }

    /// Earliest pending timestamp in the wheel levels + overflow (ignores
    /// `ready` and `past`). Lower levels always precede higher ones, and the
    /// wheel always precedes the overflow, so the scan stops at the first
    /// non-empty structure.
    fn wheel_min(&self) -> Option<u64> {
        if self.occupied[0] != 0 {
            return Some(self.window_start() | self.occupied[0].trailing_zeros() as u64);
        }
        for level in 1..LEVELS {
            if self.occupied[level] != 0 {
                let slot = self.occupied[level].trailing_zeros() as usize;
                let min = self.levels[level][slot]
                    .iter()
                    .map(|(at, _)| *at)
                    .min()
                    .expect("occupied slot is non-empty");
                return Some(min);
            }
        }
        self.overflow.keys().next().copied()
    }

    /// Recompute the cached global minimum after the previous minimum was
    /// consumed.
    fn recompute_min(&mut self) {
        let mut min = self.past.peek().map(|e| e.at);
        if !self.ready.is_empty() && min.is_none_or(|m| self.ready_at < m) {
            min = Some(self.ready_at);
        }
        if let Some(w) = self.wheel_min() {
            if min.is_none_or(|m| w < m) {
                min = Some(w);
            }
        }
        self.next_min = min;
    }

    /// Move the cursor forward to the structure holding timestamp `t` and
    /// promote `t`'s whole slot into the ready batch. `t` must be the wheel
    /// (or overflow) minimum.
    fn promote(&mut self, t: u64) {
        debug_assert!(self.ready.is_empty());
        loop {
            if self.occupied.iter().all(|&o| o == 0) {
                // The wheel is drained: jump the cursor to the overflow head
                // and pull everything within the new span back in.
                debug_assert_eq!(self.overflow.keys().next().copied(), Some(t));
                self.cursor = t;
                while let Some((&at, _)) = self.overflow.iter().next() {
                    if at ^ self.cursor >= WHEEL_SPAN {
                        break;
                    }
                    let batch = self.overflow.remove(&at).expect("peeked key exists");
                    let (level, slot) = self.locate(at);
                    self.occupied[level] |= 1 << slot;
                    let slot_vec = &mut self.levels[level][slot];
                    slot_vec.extend(batch.into_iter().map(|e| (at, e)));
                }
            }
            let (level, slot) = self.locate(t);
            debug_assert!(self.occupied[level] & (1 << slot) != 0, "minimum not indexed");
            if level == 0 {
                // One exact timestamp per level-0 slot: promote it wholesale,
                // in insertion order, as the current-instant batch.
                let slot_vec = &mut self.levels[0][slot];
                self.occupied[0] &= !(1 << slot);
                self.ready_at = t;
                self.ready.extend(slot_vec.drain(..).map(|(at, e)| {
                    debug_assert_eq!(at, t, "level-0 slot mixes timestamps");
                    e
                }));
                return;
            }
            // Cascade: advance the cursor to this slot's window and refile
            // its entries one level (or more) down. Lower levels are empty —
            // `t` is the minimum — so refiling into them preserves order.
            // Rotate the slot's vector through the scratch spare so the
            // allocation survives the refile instead of being dropped.
            let mut entries = std::mem::replace(
                &mut self.levels[level][slot],
                std::mem::take(&mut self.cascade_scratch),
            );
            self.occupied[level] &= !(1 << slot);
            let shift = SLOT_BITS * level as u32;
            let span_mask = !((1u64 << (shift + SLOT_BITS)) - 1);
            self.cursor = (self.cursor & span_mask) | ((slot as u64) << shift);
            for (at, e) in entries.drain(..) {
                debug_assert!(at >= self.cursor);
                let (l, s) = self.locate(at);
                debug_assert!(l < level, "cascade must move entries down");
                self.levels[l][s].push((at, e));
                self.occupied[l] |= 1 << s;
            }
            self.cascade_scratch = entries;
        }
    }

    /// Timestamp of the earliest pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.next_min.map(SimTime::from_micros)
    }

    /// Pop the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        let t = self.next_min?;
        if t > now.as_micros() {
            return None;
        }
        // Fast path: the promoted current-instant batch.
        if !self.ready.is_empty() && self.ready_at == t {
            let event = self.ready.pop_front().expect("checked non-empty");
            self.len -= 1;
            if self.ready.is_empty() {
                self.recompute_min();
            }
            return Some((SimTime::from_micros(t), event));
        }
        // A push behind the cursor window: the fallback heap owns the
        // minimum. (A wheel entry at the same timestamp cannot coexist —
        // the cursor only passes `t` once nothing at or before `t` remains.)
        if self.past.peek().is_some_and(|e| e.at == t) {
            let e = self.past.pop().expect("peeked entry pops");
            self.len -= 1;
            self.recompute_min();
            return Some((SimTime::from_micros(t), e.event));
        }
        self.promote(t);
        let event = self.ready.pop_front().expect("promoted batch is non-empty");
        self.len -= 1;
        if self.ready.is_empty() {
            self.recompute_min();
        }
        Some((SimTime::from_micros(t), event))
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

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        for level in self.levels.iter_mut() {
            for slot in level.iter_mut() {
                slot.clear();
            }
        }
        self.occupied = [0; LEVELS];
        self.ready.clear();
        self.past.clear();
        self.overflow.clear();
        self.cursor = 0;
        self.next_min = None;
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
        // Beyond the 2^36 µs wheel span: lives in the sorted overflow level.
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
        // Advance the cursor far forward by popping.
        let (at, _) = q.pop_due(SimTime::from_secs(100)).unwrap();
        assert_eq!(at, SimTime::from_secs(100));
        // Now push behind the cursor: exact semantics must hold anyway.
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
    fn same_timestamp_batch_survives_interleaved_pushes() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1500);
        q.push(t, 0);
        q.push(t, 1);
        // Pop one (promotes the batch), then push more at the same instant:
        // they must drain after the already-promoted entries.
        assert_eq!(q.pop_due(t).map(|(_, e)| e), Some(0));
        q.push(t, 2);
        q.push(t, 3);
        let rest: Vec<_> = q.drain_due(t).into_iter().map(|(_, e)| e).collect();
        assert_eq!(rest, vec![1, 2, 3]);
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
