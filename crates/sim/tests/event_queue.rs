//! The event-queue tie law under arbitrary interleavings (128 cases under
//! the vendored proptest): whatever mix of `schedule`, `pop` and
//! `reinsert` runs, every pop returns exactly the minimum of a reference
//! model under the `(time, class, seq)` order, i.e. the queue drains in
//! the stable sort order of `(time, class)` by insertion sequence.

use proptest::prelude::*;

use maco_sim::{EventKey, EventQueue, SimTime};

proptest! {
    #[test]
    fn pops_follow_the_stable_time_class_seq_order(
        ops in proptest::collection::vec((0u64..3, 0u64..6, 0u64..3), 1..64),
    ) {
        let mut q = EventQueue::new();
        // Reference model: every pending (key, payload), plus the popped
        // events not yet put back (most recent last).
        let mut model: Vec<(EventKey, u64)> = Vec::new();
        let mut held: Vec<(EventKey, u64)> = Vec::new();
        let mut scheduled = 0u64;
        let mut pops = 0u64;
        for (i, &(op, time, class)) in ops.iter().enumerate() {
            let time = SimTime::from_ns(time);
            match op {
                0 => {
                    q.schedule(time, class as u8, i as u64);
                    let key = EventKey { time, class: class as u8, seq: scheduled };
                    model.push((key, i as u64));
                    scheduled += 1;
                }
                1 => {
                    let want = model.iter().enumerate().min_by_key(|(_, (k, _))| *k).map(|(j, _)| j);
                    let got = q.pop();
                    match want {
                        None => prop_assert!(got.is_none()),
                        Some(j) => {
                            let expect = model.swap_remove(j);
                            prop_assert_eq!(got, Some(expect));
                            held.push(expect);
                            pops += 1;
                        }
                    }
                }
                _ => {
                    // Put the latest popped event back at an arbitrary
                    // time; its class and seq must survive.
                    if let Some((key, payload)) = held.pop() {
                        let key = EventKey { time, ..key };
                        q.reinsert(key, payload);
                        model.push((key, payload));
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek().map(|(k, &e)| (k, e)), model.iter().copied().min());
        }
        model.sort();
        let drained: Vec<(EventKey, u64)> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(q.events_processed(), pops + drained.len() as u64);
        prop_assert_eq!(drained, model);
    }
}
