//! Property tests for `tempered_runtime::wheel`: over arbitrary
//! interleavings of pushes and pops, the timer wheel releases events in
//! exactly the order the displaced `BinaryHeap<Reverse<…>>` event queues
//! did — ascending `(time, push sequence)` with `f64::total_cmp` on the
//! time — including pushes that land behind the drain cursor, on slot
//! collisions, and past the near horizon into the far pool.

use proptest::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use tempered_runtime::wheel::TimerWheel;

/// Reference model: the exact shape the simulator used before the wheel —
/// a min-heap of `(time, seq)`-ordered entries with a caller-side push
/// counter as the FIFO tie-break.
struct HeapEntry {
    time: f64,
    seq: u64,
    id: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Schedule an event at this time (seconds).
    Push(f64),
    /// Pop up to this many events.
    Pop(usize),
}

/// Exact-value palette → guaranteed duplicate times (FIFO tie-break).
const TIMES: [f64; 7] = [0.0, 1.0e-6, 1.5e-6, 2.55e-4, 2.56e-4, 1.0e-2, 1.0];

/// Op mix forcing every wheel path: exact ties, same-quantum near
/// misses, slot collisions one revolution apart (k × 256 quanta at the
/// 1 µs quantum used below), far-pool times, and interleaved pops (which
/// exercise the behind-cursor merge-insert on later pushes).
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..5, 0u64..12, 0.0f64..3.0e-3).prop_map(|(sel, k, t)| match sel {
            // A quarter of ops are pops of 1–7 events.
            0 => Op::Pop((k as usize % 7) + 1),
            // Duplicate exact times from the palette.
            1 => Op::Push(TIMES[(k % 7) as usize]),
            // Same-slot-different-tick collisions: k_hi revolutions out.
            2 => Op::Push(((k % 4) + 256 * (k / 4)) as f64 * 1.0e-6),
            // Arbitrary times across the near horizon and far pool.
            _ => Op::Push(t),
        }),
        1..120,
    )
}

proptest! {
    /// Wheel and heap agree on every popped `(time, id)` — mid-program
    /// (pops interleaved with pushes exercise the behind-cursor
    /// merge-insert) and on the final drain.
    #[test]
    fn wheel_pops_in_heap_order(ops in ops_strategy()) {
        // 1 µs quantum, the simulator's configuration for its default
        // base latency (scale is ticks per second).
        let mut wheel: TimerWheel<f64, usize> = TimerWheel::new(1.0 / 1.0e-6);
        let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut next_id = 0usize;

        for op in ops {
            match op {
                Op::Push(t) => {
                    wheel.push(t, next_id);
                    heap.push(Reverse(HeapEntry { time: t, seq, id: next_id }));
                    seq += 1;
                    next_id += 1;
                }
                Op::Pop(n) => {
                    for _ in 0..n {
                        let got = wheel.pop();
                        let want = heap.pop().map(|Reverse(e)| (e.time, e.id));
                        match (got, want) {
                            (None, None) => break,
                            (got, want) => prop_assert_eq!(got, want),
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }

        // Drain: the tail must come out identically too.
        while let Some(Reverse(e)) = heap.pop() {
            prop_assert_eq!(wheel.pop(), Some((e.time, e.id)));
        }
        prop_assert_eq!(wheel.pop(), None);
        prop_assert!(wheel.is_empty());
    }
}

/// Retained bucket memory tracks what is pending, not what was ever
/// drained: K bursts of M events, each into its own near slot and fully
/// drained before the next, leave the wheel holding a few bursts' worth
/// of capacity at most — the same after the last burst as after the
/// second — where keeping every drained slot's buffer would hold K × M.
#[test]
fn drained_bursts_do_not_accumulate_capacity() {
    const M: usize = 4096;
    const K: usize = 200;
    let mut wheel: TimerWheel<f64, u64> = TimerWheel::new(1.0 / 1.0e-6);
    let mut after_second = 0;
    for k in 0..K {
        // Burst k lands in tick k + 1: a distinct slot each time, all
        // within one revolution of the cursor.
        let t = (k + 1) as f64 * 1.0e-6;
        for i in 0..M {
            wheel.push(t, i as u64);
        }
        for i in 0..M {
            assert_eq!(wheel.pop(), Some((t, i as u64)));
        }
        assert!(wheel.is_empty());
        let retained = wheel.retained_capacity();
        assert!(
            retained <= 3 * M,
            "burst {k}: {retained} entries retained for bursts of {M}"
        );
        if k == 1 {
            after_second = retained;
        }
    }
    assert!(
        wheel.retained_capacity() <= after_second,
        "retention grew with the number of bursts"
    );
}
