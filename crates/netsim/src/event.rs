//! A deterministic discrete-event queue.
//!
//! Events fire in timestamp order; ties are broken by insertion sequence,
//! never by anything hash- or pointer-dependent. This is the backbone of
//! the session simulator in `appvsweb-core`.

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with deterministic tie-breaking.
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `payload` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Pop the next event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(SimTime(5), label);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.len(), 1);
    }
}
