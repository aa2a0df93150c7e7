//! Deterministic event queue.
//!
//! A thin wrapper around [`std::collections::BinaryHeap`] that orders events
//! by the key `(time, class, seq)`: earliest time first, then the lower
//! event class, then the insertion sequence. The class lets an embedder rank
//! simultaneous events of different kinds (the fleet router processes
//! faults before arrivals before re-placements); the sequence number makes
//! equal `(time, class)` events pop FIFO. Together they keep the whole
//! simulator deterministic: two runs with identical inputs replay identical
//! event interleavings.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The total order of an [`EventQueue`]: time, then class, then insertion
/// sequence (field order is comparison order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Firing instant.
    pub time: SimTime,
    /// Rank among simultaneous events; lower classes pop first.
    pub class: u8,
    /// Insertion sequence assigned by [`EventQueue::schedule`]; FIFO among
    /// equal `(time, class)`.
    pub seq: u64,
}

/// A deterministic event queue ordered by [`EventKey`].
///
/// The payload type `E` is chosen by the embedding layer (the serving
/// engine queues job specs and in-flight gang members, the fleet router a
/// small enum of fault, arrival and re-placement events), keeping the
/// kernel free of dynamic dispatch.
///
/// # Example
///
/// ```
/// use maco_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(maco_sim::SimDuration::from_ns(2).into(), 0, "late");
/// q.schedule(SimTime::ZERO, 1, "early, low rank");
/// q.schedule(SimTime::ZERO, 0, "early, high rank");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("early, high rank"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("early, low rank"));
/// assert_eq!(q.pop().map(|(_, e)| e), Some("late"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    popped: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` of rank `class` to fire at absolute instant
    /// `time`, behind every event already scheduled with the same
    /// `(time, class)`.
    pub fn schedule(&mut self, time: SimTime, class: u8, event: E) {
        let key = EventKey {
            time,
            class,
            seq: self.seq,
        };
        self.seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
    }

    /// Puts a popped event back under its original class and sequence
    /// number, at `key.time` (which may have moved since the pop). An event
    /// stepped outside the queue thereby keeps its place among ties — the
    /// serving engine re-inserts a gang member after batch-stepping it.
    pub fn reinsert(&mut self, key: EventKey, event: E) {
        debug_assert!(key.seq < self.seq, "reinsert of a key never scheduled");
        self.heap.push(Reverse(Entry { key, event }));
    }

    /// Removes and returns the minimum event with its key.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.heap.pop().map(|Reverse(e)| {
            self.popped += 1;
            (e.key, e.event)
        })
    }

    /// The minimum event and its key, without removing it.
    pub fn peek(&self) -> Option<(EventKey, &E)> {
        self.heap.peek().map(|Reverse(e)| (e.key, &e.event))
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.key.time)
    }

    /// Every pending event with its key, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (EventKey, &E)> {
        self.heap.iter().map(|Reverse(e)| (e.key, &e.event))
    }

    /// Drops every pending event (the sequence counter keeps counting).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events processed since construction (a progress /
    /// cost metric reported by the experiment harnesses).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl From<crate::time::SimDuration> for SimTime {
    /// Interprets a duration as an offset from time zero — convenient when
    /// seeding an event queue at the start of a simulation.
    fn from(d: crate::time::SimDuration) -> SimTime {
        SimTime::ZERO + d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    /// Time orders first, class second, schedule order last.
    #[test]
    fn orders_by_time() {
        let order = |events: &[(u64, u8)]| {
            let mut q = EventQueue::new();
            for (i, &(ns, class)) in events.iter().enumerate() {
                q.schedule(SimTime::from_ns(ns), class, i);
            }
            drain(&mut q)
        };
        // Time only.
        assert_eq!(order(&[(30, 0), (10, 0), (20, 0)]), [1, 2, 0]);
        // Class breaks equal times, whatever the schedule order.
        assert_eq!(order(&[(5, 2), (5, 0), (5, 1)]), [1, 2, 0]);
        // An earlier time beats a lower class.
        assert_eq!(order(&[(6, 0), (5, 2)]), [1, 0]);
        // Equal (time, class) keeps schedule order.
        assert_eq!(order(&[(5, 1), (5, 1), (4, 1), (5, 1)]), [2, 0, 1, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, 0, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(1), 3, ());
        let key = EventKey {
            time: SimTime::from_ns(1),
            class: 3,
            seq: 0,
        };
        assert_eq!(q.peek(), Some((key, &())));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        assert_eq!(q.iter().collect::<Vec<_>>(), [(key, &())]);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), 1);
        // Clearing drops pending events but never reuses a seq.
        q.schedule(SimTime::from_ns(2), 0, ());
        q.clear();
        assert!(q.is_empty());
        q.schedule(SimTime::from_ns(3), 0, ());
        assert_eq!(q.peek().map(|(k, _)| k.seq), Some(2));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 0, "a");
        q.schedule(SimTime::from_ns(5), 0, "b");
        let (key, e) = q.pop().unwrap();
        assert_eq!((key.time, e), (SimTime::from_ns(5), "b"));
        // Schedule an event earlier than the pending one.
        q.schedule(SimTime::from_ns(7), 0, "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
    }

    /// A re-inserted event keeps its original seq: moved to a tie with a
    /// later-scheduled event, it still pops first.
    #[test]
    fn reinsert_keeps_the_original_seq() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(1), 0, "stepped");
        q.schedule(SimTime::from_ns(4), 0, "waiting");
        let (key, e) = q.pop().unwrap();
        q.reinsert(
            EventKey {
                time: SimTime::from_ns(4),
                ..key
            },
            e,
        );
        assert_eq!(drain(&mut q), ["stepped", "waiting"]);
    }

    #[test]
    fn duration_into_time() {
        let t: SimTime = SimDuration::from_ns(4).into();
        assert_eq!(t, SimTime::from_ns(4));
    }
}
