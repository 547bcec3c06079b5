//! The cooperative component protocol.
//!
//! The federation is a tree of components (schedulers, endpoints, CI engines)
//! that each keep an internal [`crate::EventQueue`]. A driver repeatedly asks
//! the tree for the earliest pending event and advances every component to
//! that instant. Components never see time move backwards, and components
//! with no pending work are never woken spuriously.

use crate::time::SimTime;

/// A simulation component that can be advanced through virtual time.
///
/// Implementations must uphold two contracts:
///
/// 1. `advance_to(t)` processes *all* internal events with timestamp `<= t`
///    and leaves the component's notion of "now" at `t`.
/// 2. `next_event()` returns the timestamp of the earliest internal event
///    still pending, or `None` when the component is quiescent. It must not
///    return a time earlier than the last `advance_to` instant.
pub trait Advance {
    /// Earliest pending internal event, if any.
    fn next_event(&self) -> Option<SimTime>;

    /// Process all events due at or before `t`.
    fn advance_to(&mut self, t: SimTime);

    /// Advance to the next pending event instant at or before `deadline` and
    /// process everything due there; returns that instant, or `None` if the
    /// component is quiescent or its next event lies beyond the deadline.
    ///
    /// Semantically this is exactly `next_event()` + `advance_to(t)`, and the
    /// provided implementation is that pair. A container may override it to
    /// ask its children once and use the answers for both the probe and the
    /// advance (see `CloudService` in `hpcci-faas`).
    fn step_next(&mut self, deadline: SimTime) -> Option<SimTime> {
        let next = self.next_event()?;
        if next > deadline {
            return None;
        }
        self.advance_to(next);
        Some(next)
    }
}

/// Step `component` until it is quiescent; returns the instant of its last
/// event ([`SimTime::ZERO`] if it never had one).
pub fn drive(component: &mut dyn Advance) -> SimTime {
    let mut now = SimTime::ZERO;
    while let Some(step) = component.step_next(SimTime::FAR_FUTURE) {
        debug_assert!(step >= now, "time went backwards: {step} < {now}");
        now = step;
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::SimDuration;

    /// Test component: every event at t schedules a follow-up at t+period,
    /// up to a budget.
    struct Ticker {
        queue: EventQueue<u32>,
        period: SimDuration,
        remaining: u32,
        fired: Vec<SimTime>,
        now: SimTime,
    }

    impl Ticker {
        fn new(start: SimTime, period: SimDuration, count: u32) -> Self {
            let mut queue = EventQueue::new();
            if count > 0 {
                queue.push(start, 0);
            }
            Ticker {
                queue,
                period,
                remaining: count,
                fired: Vec::new(),
                now: SimTime::ZERO,
            }
        }
    }

    impl Advance for Ticker {
        fn next_event(&self) -> Option<SimTime> {
            self.queue.next_time()
        }
        fn advance_to(&mut self, t: SimTime) {
            while let Some((at, _)) = self.queue.pop_due(t) {
                self.fired.push(at);
                self.remaining -= 1;
                if self.remaining > 0 {
                    self.queue.push(at + self.period, 0);
                }
            }
            self.now = t;
        }
    }

    #[test]
    fn drives_to_quiescence() {
        let mut a = Ticker::new(SimTime::from_secs(1), SimDuration::from_secs(2), 3);
        let end = drive(&mut a);
        // Events at 1, 3, 5 -> quiescent at 5.
        assert_eq!(end, SimTime::from_secs(5));
        assert_eq!(
            a.fired,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(3),
                SimTime::from_secs(5)
            ]
        );
        assert_eq!(a.next_event(), None);
    }

    #[test]
    fn respects_deadline() {
        let mut a = Ticker::new(SimTime::from_secs(1), SimDuration::from_secs(1), 100);
        let deadline = SimTime::from_secs(4);
        let mut end = SimTime::ZERO;
        while let Some(step) = a.step_next(deadline) {
            end = step;
        }
        assert_eq!(end, deadline);
        assert_eq!(a.fired.len(), 4); // t = 1, 2, 3, 4
        assert!(a.next_event().unwrap() > deadline);
    }

    #[test]
    fn empty_component_set_is_quiescent_at_zero() {
        let mut idle = Ticker::new(SimTime::from_secs(1), SimDuration::from_secs(1), 0);
        assert_eq!(drive(&mut idle), SimTime::ZERO);
        assert!(idle.fired.is_empty());
    }
}
