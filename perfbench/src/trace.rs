//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, in the benchmark's own code, around each call
//! into a layer: name, start, end, parent and run id, plus the allocation
//! churn the counting allocator saw in between. They stay in memory and
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Bytes requested from the global allocator so far (churn, not residency).
pub fn allocated() -> u64 {
    support::obs::alloc::allocated_bytes()
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub alloc_bytes: u64,
    alloc_at_start: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let alloc_at_start = allocated();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            alloc_bytes: 0,
            alloc_at_start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open span).
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let alloc_now = allocated();
        debug_assert_eq!(self.open.last(), Some(&id));
        self.open.pop();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.alloc_bytes = alloc_now.saturating_sub(s.alloc_at_start);
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover (children never overlap: the benchmark is
    /// single-threaded between spans).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// For every root span called `root`: the summed duration and
    /// allocation of its direct children, by child name, plus the root's
    /// own duration and self (unattributed) time.
    pub fn roots(&self, root: &str) -> Vec<RootView> {
        let selfs = self.self_ns();
        let mut out: Vec<RootView> = Vec::new();
        let mut index: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                index.insert(i, out.len());
                out.push(RootView {
                    total_ns: s.dur_ns(),
                    self_ns: selfs[i],
                    ..RootView::default()
                });
            }
        }
        for s in &self.spans {
            if let Some(&slot) = s.parent.and_then(|p| index.get(&p)) {
                let e = out[slot].children.entry(s.name).or_default();
                e.0 += s.dur_ns();
                e.1 += s.alloc_bytes;
            }
        }
        out
    }

    /// Durations of every root span called `name`.
    pub fn root_durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// The spans as JSON lines: one object per span.
    pub fn to_jsonl(&self) -> String {
        let selfs = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"run":"{}","id":{i},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{},"alloc_bytes":{}}}"#,
                self.run_id, s.name, s.start_ns, s.end_ns, selfs[i], s.alloc_bytes
            );
        }
        out
    }
}

/// One root span's breakdown (see [`Tracer::roots`]).
#[derive(Debug, Default, Clone)]
pub struct RootView {
    pub total_ns: u64,
    pub self_ns: u64,
    /// child name → (summed duration ns, summed allocation bytes)
    pub children: BTreeMap<&'static str, (u64, u64)>,
}
