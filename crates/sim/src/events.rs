//! The discrete-event queue.
//!
//! A binary min-heap keyed on `(time, sequence)` — the sequence number makes
//! ordering total and deterministic for simultaneous events.
//!
//! # Tie ordering
//!
//! Events scheduled for the **same timestamp** pop in **insertion (FIFO)
//! order**, whatever their [`EventKind`]: the queue stamps every push with a
//! monotonically increasing sequence number and compares `(t, seq)`,
//! nothing else. Two consequences the simulator relies on:
//!
//! * the pop order of any event set is a pure function of the push order —
//!   never of heap internals, payload contents or kind discriminants, so a
//!   run's event interleaving is reproducible bit-for-bit;
//! * a cause always pops before its same-timestamp effect (the cause was
//!   necessarily pushed first), e.g. a `MapDone` that schedules an
//!   immediate `Heartbeat` at the same instant.
//!
//! The regression tests below pin both properties by shuffling insertion
//! orders and asserting pop order follows `(time, insertion)` exactly.
//!
//! # Reserved sequence numbers
//!
//! [`EventQueue::reserve`] takes the next sequence number without pushing
//! anything; [`EventQueue::push_reserved`] later pushes an event under it.
//! The event then pops exactly where a push at reservation time would
//! have — the runner uses this to decide an event's time after the fact
//! (one transfer wake-up per dispatched event) without moving it in the
//! tie order. A reservation that is never pushed leaves a gap in the
//! sequence, which changes no relative order.

use pnats_net::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Event payloads.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EventKind {
    /// A job becomes known to the JobTracker.
    JobArrival {
        /// Index into the simulation's job table.
        job: usize,
    },
    /// A node reports in with its slot state.
    Heartbeat {
        /// Reporting node.
        node: NodeId,
    },
    /// The earliest in-flight transfer may have finished. Valid only if
    /// `version` still matches the transfer manager's version.
    TransferWake {
        /// Transfer-manager version this prediction was made against.
        version: u64,
    },
    /// A map task finishes its compute phase. Stale (and ignored) if the
    /// attempt was killed meanwhile — `run` no longer matches the task's
    /// current attempt id.
    MapDone {
        /// Job index.
        job: usize,
        /// Map index within the job.
        map: usize,
        /// Attempt id this completion belongs to.
        run: u32,
    },
    /// A map attempt dies with a transient (retryable) failure mid-compute.
    /// Stale if `run` no longer matches.
    MapFailed {
        /// Job index.
        job: usize,
        /// Map index within the job.
        map: usize,
        /// Attempt id this failure belongs to.
        run: u32,
    },
    /// A speculative map backup finishes (may be stale if cancelled).
    BackupDone {
        /// Index into the simulation's backup table.
        idx: usize,
    },
    /// A reduce task finishes its merge+reduce phase. Stale if `run` no
    /// longer matches (the reduce was killed or sent back to shuffling).
    ReduceDone {
        /// Job index.
        job: usize,
        /// Reduce index within the job.
        reduce: usize,
        /// Attempt id this completion belongs to.
        run: u32,
    },
    /// A node dies per the fault plan: slots vanish, running tasks are
    /// rescheduled, completed map outputs stored there are invalidated.
    NodeCrash {
        /// Index into `FaultPlan::crashes`.
        fault: usize,
    },
    /// A crashed node rejoins with empty disks and full free slots.
    NodeRecover {
        /// Index into `FaultPlan::crashes`.
        fault: usize,
    },
    /// A link-degradation window opens (node NIC scaled down).
    LinkDegradeStart {
        /// Index into `FaultPlan::link_degradations`.
        idx: usize,
    },
    /// A link-degradation window closes (node NIC restored).
    LinkDegradeEnd {
        /// Index into `FaultPlan::link_degradations`.
        idx: usize,
    },
    /// Start a configured background flow.
    BackgroundStart {
        /// Index into `SimConfig::background`.
        idx: usize,
    },
    /// Stop a configured background flow.
    BackgroundStop {
        /// Index into `SimConfig::background`.
        idx: usize,
    },
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    t: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic min-heap event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at absolute time `t`.
    pub fn push(&mut self, t: f64, kind: EventKind) {
        assert!(t.is_finite() && t >= 0.0, "event time must be finite: {t}");
        self.heap.push(Entry { t, seq: self.seq, kind });
        self.seq += 1;
    }

    /// Take the next sequence number without pushing an event; pass it to
    /// [`EventQueue::push_reserved`] (or drop it).
    pub fn reserve(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Schedule `kind` at `t` under a sequence number taken earlier with
    /// [`EventQueue::reserve`]: it ties with other same-time events as if
    /// it had been pushed at reservation time.
    pub fn push_reserved(&mut self, t: f64, seq: u64, kind: EventKind) {
        assert!(t.is_finite() && t >= 0.0, "event time must be finite: {t}");
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        self.heap.push(Entry { t, seq, kind });
    }

    /// Pop the earliest event as `(time, kind)`.
    pub fn pop(&mut self) -> Option<(f64, EventKind)> {
        self.heap.pop().map(|e| (e.t, e.kind))
    }

    /// Events still queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
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
        q.push(2.0, EventKind::Heartbeat { node: NodeId(0) });
        q.push(1.0, EventKind::Heartbeat { node: NodeId(1) });
        q.push(3.0, EventKind::Heartbeat { node: NodeId(2) });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::MapDone { job: 0, map: 0, run: 0 });
        q.push(1.0, EventKind::MapDone { job: 0, map: 1, run: 0 });
        q.push(1.0, EventKind::MapDone { job: 0, map: 2, run: 0 });
        let maps: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::MapDone { map, .. } => map,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(maps, vec![0, 1, 2]);
    }

    /// A mixed-kind event set with distinct timestamps must pop in pure
    /// time order no matter how insertion is shuffled — the heap must not
    /// leak its internal layout into the pop order.
    #[test]
    fn shuffled_insertion_pops_identical_time_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let events: Vec<(f64, EventKind)> = vec![
            (5.0, EventKind::JobArrival { job: 0 }),
            (1.0, EventKind::Heartbeat { node: NodeId(3) }),
            (4.0, EventKind::MapDone { job: 0, map: 2, run: 1 }),
            (2.0, EventKind::TransferWake { version: 7 }),
            (8.0, EventKind::ReduceDone { job: 1, reduce: 0, run: 0 }),
            (3.0, EventKind::NodeCrash { fault: 0 }),
            (7.0, EventKind::BackgroundStart { idx: 2 }),
            (6.0, EventKind::MapFailed { job: 2, map: 9, run: 3 }),
        ];
        let mut sorted = events.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xE7E27);
        for round in 0..32 {
            let mut order = events.clone();
            order.shuffle(&mut rng);
            let mut q = EventQueue::new();
            for &(t, kind) in &order {
                q.push(t, kind);
            }
            let popped: Vec<(f64, EventKind)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped, sorted, "round {round}: pop order depends on insertion order");
        }
    }

    /// Same-timestamp events of *different kinds* must pop in insertion
    /// order — for every permutation, not just the natural one. The kind
    /// discriminant must have no influence.
    #[test]
    fn tie_order_is_insertion_fifo_for_any_kind_permutation() {
        let kinds = [
            EventKind::Heartbeat { node: NodeId(1) },
            EventKind::MapDone { job: 0, map: 0, run: 0 },
            EventKind::NodeCrash { fault: 0 },
        ];
        // All 6 permutations of three simultaneous events.
        for perm in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut q = EventQueue::new();
            for &i in &perm {
                q.push(4.25, kinds[i]);
            }
            let popped: Vec<EventKind> =
                std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
            let expect: Vec<EventKind> = perm.iter().map(|&i| kinds[i]).collect();
            assert_eq!(popped, expect, "perm {perm:?}: ties must pop FIFO");
        }
    }

    /// An event pushed late under a reserved sequence number pops exactly
    /// where pushing it at reservation time would have put it, for any
    /// shuffled set of same- and different-time neighbours.
    #[test]
    fn reserved_push_pops_where_an_immediate_push_would() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let wake = EventKind::TransferWake { version: 3 };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5E0);
        for round in 0..64 {
            // Neighbours at the wake's time and around it, in random order;
            // the wake is "armed" after `armed_at` of them.
            let mut others: Vec<(f64, EventKind)> = (0..8)
                .map(|i| (1.0 + (i % 3) as f64, EventKind::Heartbeat { node: NodeId(i) }))
                .collect();
            others.shuffle(&mut rng);
            let armed_at = round % (others.len() + 1);
            let wake_t = 2.0;

            let mut eager = EventQueue::new();
            for (i, &(t, kind)) in others.iter().enumerate() {
                if i == armed_at {
                    eager.push(wake_t, wake);
                }
                eager.push(t, kind);
            }
            if armed_at == others.len() {
                eager.push(wake_t, wake);
            }

            let mut deferred = EventQueue::new();
            let mut seq = None;
            for (i, &(t, kind)) in others.iter().enumerate() {
                if i == armed_at {
                    seq = Some(deferred.reserve());
                }
                deferred.push(t, kind);
            }
            let seq = seq.unwrap_or_else(|| deferred.reserve());
            deferred.push_reserved(wake_t, seq, wake);

            let a: Vec<(f64, EventKind)> = std::iter::from_fn(|| eager.pop()).collect();
            let b: Vec<(f64, EventKind)> = std::iter::from_fn(|| deferred.pop()).collect();
            assert_eq!(a, b, "round {round}: reserved push moved in the pop order");
        }
    }

    /// A reservation that is never used leaves every other event's pop
    /// order untouched.
    #[test]
    fn unused_reservation_changes_nothing() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for i in 0..6u32 {
            let kind = EventKind::Heartbeat { node: NodeId(i) };
            a.push(1.0, kind);
            if i == 2 {
                b.reserve();
            }
            b.push(1.0, kind);
        }
        let pa: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let pb: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(0.0, EventKind::JobArrival { job: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::JobArrival { job: 0 });
    }
}
