//! In-memory spans for the traced run.
//!
//! The benchmark records a span around every call it makes into a layer:
//! an id, the id of the span that caused it, the id shared by every span
//! of one job, a name, and start/end on one monotonic clock. Spans stay in
//! memory and are written as JSONL once the run ends. A layer's self time
//! is its span's duration minus the part of that interval its children
//! cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval, in nanoseconds since the log's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one job (or one simulator cell).
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A monotonic clock shared by the benchmark and the placer wrapper, so
/// spans recorded on different threads line up.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The run's spans, in the order they were opened.
#[derive(Debug)]
pub struct SpanLog {
    pub clock: Clock,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            spans: Vec::new(),
        }
    }

    /// Append a finished span and return its id.
    pub fn push(
        &mut self,
        parent: Option<u64>,
        job: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, parent: Option<u64>, job: u64, name: &'static str) -> u64 {
        let now = self.clock.now_ns();
        self.push(parent, job, name, now, now)
    }

    pub fn close(&mut self, id: u64) {
        self.spans[id as usize].end_ns = self.clock.now_ns();
    }

    /// Total self time (ns) of the spans named `name`.
    pub fn self_ns_of(&self, name: &str) -> u64 {
        let st = self_times(&self.spans);
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| st[s.id as usize])
            .sum()
    }

    /// Total duration (ns) of the spans named `name`.
    pub fn dur_ns_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.job, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of each span (indexed by position, which must equal its id):
/// its duration minus the union of its direct children's intervals,
/// clipped to the parent's own interval. Children may nest, overlap one
/// another, or stick out of the parent; each covered nanosecond counts
/// once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_on_a_hand_built_tree() {
        // root [0,100)
        //   a [10,40)        — has a grandchild, which must not count for root
        //     a1 [15,25)
        //   b [30,50)        — overlaps a by 10
        //   c [45,48)        — nested entirely inside b
        //   d [90,120)       — sticks out of root; only [90,100) counts
        // leaf e [200,210) with no parent
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 30, 50),
            span(4, Some(0), 45, 48),
            span(5, Some(0), 90, 120),
            span(6, None, 200, 210),
        ];
        let st = self_times(&spans);
        // root: children cover [10,50) ∪ [90,100) = 50 ns.
        assert_eq!(st[0], 50);
        // a: 30 minus a1's 10.
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 10);
        // b's own child list is empty: c is root's child, not b's.
        assert_eq!(st[3], 20);
        assert_eq!(st[4], 3);
        assert_eq!(st[5], 30);
        assert_eq!(st[6], 10);
    }

    #[test]
    fn identical_children_count_once() {
        let spans = vec![
            span(0, None, 0, 10),
            span(1, Some(0), 2, 6),
            span(2, Some(0), 2, 6),
        ];
        assert_eq!(self_times(&spans), vec![6, 4, 4]);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut log = SpanLog::new(Clock::new());
        let root = log.push(None, 7, "root", 0, 10);
        log.push(Some(root), 7, "leaf", 2, 3);
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"id\":0,\"parent\":null,\"job\":7,\"name\":\"root\""));
        assert!(jsonl.contains("\"parent\":0"));
    }
}
