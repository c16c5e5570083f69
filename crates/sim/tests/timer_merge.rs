//! Messages and deadline timers wait in two queues; the world must step
//! them as the one `(time, seq)` heap they used to share would.
//!
//! The reference below is that heap, kept whole: every event in one
//! `BinaryHeap`, dead timers left in it until they surface. Random
//! schedules run against both. With at most a handful of timers pending,
//! the world's compaction (dead entries outnumbering live ones) triggers
//! all the time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use naming_sim::time::Duration;
use naming_sim::world::{Stepped, World};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Deliver { to: usize },
    Wake { pid: usize, token: u64 },
}

/// `Some((delivered?, process))`, as [`Stepped`] reads.
type Step = Option<(bool, usize)>;

#[derive(Default)]
struct OneHeap {
    now: u64,
    next_seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, Event)>>,
    /// Token → the sequence number of its live arming.
    live: HashMap<u64, u64>,
    alive: [bool; 3],
    /// Fired and untaken tokens, per process.
    wakes: [Vec<u64>; 3],
}

impl OneHeap {
    fn schedule(&mut self, after: u64, event: Event) -> u64 {
        self.heap
            .push(Reverse((self.now + after, self.next_seq, event)));
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn step(&mut self) -> Step {
        loop {
            let Reverse((time, seq, event)) = self.heap.pop()?;
            match event {
                Event::Deliver { to } => {
                    self.now = time;
                    return Some((true, to));
                }
                Event::Wake { pid, token } => {
                    if self.live.get(&token) != Some(&seq) {
                        continue;
                    }
                    self.live.remove(&token);
                    if !self.alive[pid] {
                        continue;
                    }
                    self.now = time;
                    self.wakes[pid].push(token);
                    return Some((false, pid));
                }
            }
        }
    }

    /// A restart loses the process's pending timers and fired wakes.
    fn revive(&mut self, pid: usize) {
        if !std::mem::replace(&mut self.alive[pid], true) {
            let pending = self
                .heap
                .iter()
                .filter_map(|Reverse((_, seq, e))| match *e {
                    Event::Wake { pid: p, token } if p == pid => Some((token, *seq)),
                    _ => None,
                });
            for (token, seq) in pending.collect::<Vec<_>>() {
                if self.live.get(&token) == Some(&seq) {
                    self.live.remove(&token);
                }
            }
            self.wakes[pid].clear();
        }
    }
}

proptest! {
    #[test]
    fn two_queues_step_like_one_heap(
        ops in proptest::collection::vec(((0u8..10, 0usize..3, 0usize..3), (0u64..24, 0u64..5)), 0..120)
    ) {
        let mut w = World::new(1);
        let net = w.add_network("n");
        let machines = [w.add_machine("a", net), w.add_machine("b", net)];
        // Two processes share a machine: latencies 1 and 10 tie with timers.
        let pids = [
            w.spawn(machines[0], "p0", None),
            w.spawn(machines[0], "p1", None),
            w.spawn(machines[1], "p2", None),
        ];
        let index = |pid| pids.iter().position(|&p| p == pid).unwrap();
        let mut model = OneHeap { alive: [true; 3], ..OneHeap::default() };

        let check_step = |w: &mut World, model: &mut OneHeap| {
            let stepped = w.step_event().map(|ev| match ev {
                Stepped::Delivered(pid) => (true, index(pid)),
                Stepped::Woke(pid) => (false, index(pid)),
            });
            assert_eq!(stepped, model.step());
            assert_eq!(w.now().ticks(), model.now);
            assert_eq!(w.pending_timers(), model.live.len());
            stepped.is_some()
        };
        for ((op, a, b), (after, token)) in ops {
            match op {
                0..=2 => {
                    w.send(pids[a], pids[b], vec![]);
                    let latency = w.topology().latency(w.machine_of(pids[a]), w.machine_of(pids[b]));
                    model.schedule(latency.ticks(), Event::Deliver { to: b });
                }
                // A token already pending is re-armed: only the new deadline fires.
                3..=4 => {
                    w.schedule_wake(pids[a], Duration::from_ticks(after), token);
                    let seq = model.schedule(after, Event::Wake { pid: a, token });
                    model.live.insert(token, seq);
                }
                5 => {
                    w.cancel_wake(token);
                    model.live.remove(&token);
                }
                6 => {
                    w.kill(pids[a]);
                    model.alive[a] = false;
                }
                7 => {
                    w.revive(pids[a]);
                    model.revive(a);
                }
                _ => {
                    check_step(&mut w, &mut model);
                }
            }
            prop_assert_eq!(w.pending_timers(), model.live.len());
        }
        while check_step(&mut w, &mut model) {}
        for (i, &pid) in pids.iter().enumerate() {
            prop_assert_eq!(Vec::from(w.drain_wakes(pid)), std::mem::take(&mut model.wakes[i]));
        }
        prop_assert_eq!((w.pending_timers(), w.messages_in_flight()), (0, 0));
    }
}
