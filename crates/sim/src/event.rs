//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: ties at the same virtual time
//! fire in scheduling order, which keeps the simulator deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::VirtualTime;

#[derive(Clone)]
struct Scheduled<E> {
    time: VirtualTime,
    seq: u64,
    event: E,
}

// What the delivery heap holds: every sift moves one.
const _: () = assert!(std::mem::size_of::<Scheduled<crate::message::Message>>() <= 64);

// BinaryHeap is a max-heap; reverse the ordering for earliest-first.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic earliest-first event queue.
///
/// # Examples
///
/// ```
/// use naming_sim::event::EventQueue;
/// use naming_sim::time::VirtualTime;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_seq(VirtualTime::from_ticks(5), 0, "later");
/// q.schedule_seq(VirtualTime::from_ticks(1), 1, "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(t.ticks(), 1);
/// ```
#[derive(Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// Schedules `event` to fire at `time`, after every event at that time
    /// with a smaller `seq`. The caller numbers what it schedules from one
    /// counter, on however many queues: they merge into one `(time, seq)`
    /// order by [`EventQueue::peek_key`].
    pub fn schedule_seq(&mut self, time: VirtualTime, seq: u64, event: E) {
        self.heap.push(Scheduled { time, seq, event });
    }

    /// The `(time, seq)` of the earliest pending event.
    pub fn peek_key(&self) -> Option<(VirtualTime, u64)> {
        self.heap.peek().map(|s| (s.time, s.seq))
    }

    /// Drops every pending event `keep(seq, event)` is false for.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &E) -> bool) {
        self.heap.retain(|s| keep(s.seq, &s.event));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> VirtualTime {
        VirtualTime::from_ticks(n)
    }

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.schedule_seq(t(10), 0, "c");
        q.schedule_seq(t(1), 1, "a");
        q.schedule_seq(t(5), 2, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_seq(t(7), i as u64, i);
        }
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<i32> = (0..100).collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn peek_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        q.schedule_seq(t(3), 7, ());
        q.schedule_seq(t(2), 9, ());
        assert_eq!(q.peek_key(), Some((t(2), 9)));
        // Ties at one instant go by the caller's number.
        q.schedule_seq(t(2), 8, ());
        assert_eq!(q.peek_key(), Some((t(2), 8)));
        q.retain(|seq, ()| seq != 8);
        assert_eq!((q.peek_key(), q.len()), (Some((t(2), 9)), 2));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_seq(t(1), 0, "x");
        assert_eq!(q.pop().unwrap().1, "x");
        q.schedule_seq(t(1), 1, "y"); // same time as a popped event, later seq
        q.schedule_seq(t(0), 2, "z");
        assert_eq!(q.pop().unwrap().1, "z");
        assert_eq!(q.pop().unwrap().1, "y");
    }
}
