//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. A span has a name (`layer.operation`), a start, an
//! end, a parent and the thread that recorded it. Spans stay in memory
//! until the run ends; [`Trace::write`] then saves them. From the spans
//! the benchmark derives each layer's self time (a span's duration minus
//! the part of it that child spans cover), call counts and per-call
//! medians.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Summary;

/// Spans whose layer is this prefix are the benchmark's own glue; every
/// other prefix names a layer (module) of the program.
pub const GLUE: &str = "bench";

/// One recorded span. Times are nanoseconds since the trace origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (`start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Recording thread (0 = the benchmark's main thread).
    pub thread: u32,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A single thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose times count from `origin`.
    pub fn new(origin: Instant, thread: u32) -> Self {
        Self {
            origin,
            thread,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            thread: self.thread,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end = self.now();
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end = end;
    }

    /// Records an already finished span under the innermost open one.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            thread: self.thread,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Spans gathered from one or more [`Tracer`]s.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Takes over a finished tracer's spans; its top-level spans become
    /// children of `parent` (an index into this trace).
    pub fn absorb(&mut self, tracer: Tracer, parent: Option<usize>) {
        assert!(tracer.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    fn children(&self) -> Vec<Vec<(u64, u64)>> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        children
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.children())
            .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
            .collect()
    }

    /// Total self time per layer, in ns.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer()).or_insert(0) += own;
        }
        out
    }

    /// Share of the root spans' wall time during which at least one
    /// thread was inside a program layer: the union of every non-glue
    /// span's self intervals, over the union of the roots. On one thread
    /// this is the layers' self time over the root's wall time; with
    /// several, a thread that waits (in glue) while another works does not
    /// lower it, and an instant when no thread is in a layer does.
    pub fn coverage(&self) -> f64 {
        let mut work = Vec::new();
        for (s, kids) in self.spans.iter().zip(self.children()) {
            if s.layer() != GLUE {
                work.extend(gaps(s.start, s.end, kids));
            }
        }
        let roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start, s.end))
            .collect();
        let (mut wall, mut busy) = (0, 0);
        for (a, b) in union(roots) {
            wall += b - a;
            busy += covered(a, b, work.clone());
        }
        if wall == 0 {
            0.0
        } else {
            busy as f64 / wall as f64
        }
    }

    /// Per-call durations (µs) of the spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e3)
            .collect()
    }

    /// For every span named `parent`, the summed duration (µs) of its
    /// direct children named `child`.
    pub fn child_sums_us(&self, parent: &str, child: &str) -> Vec<f64> {
        let mut sums: BTreeMap<usize, u64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent)
            .map(|(i, _)| (i, 0))
            .collect();
        for s in self.spans.iter().filter(|s| s.name == child) {
            if let Some(sum) = s.parent.and_then(|p| sums.get_mut(&p)) {
                *sum += s.duration();
            }
        }
        sums.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Calls recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per-call summary of the spans named `name`.
    pub fn summary_us(&self, name: &str) -> Option<Summary> {
        Summary::of(&self.durations_us(name))
    }

    /// Writes the spans as JSON: a name table and one
    /// `[name, parent, thread, start_ns, end_ns]` row per span (parent
    /// `-1` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        let table = serde::Value::Array(
            names
                .iter()
                .map(|n| serde::Value::Str((*n).to_string()))
                .collect(),
        );
        let table = serde_json::to_string(&table).expect("a string table serialises");
        write!(w, "{{\"names\":{table},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name is in the table");
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i == 0 { "" } else { "," };
            write!(
                w,
                "{sep}[{name},{parent},{},{},{}]",
                s.thread, s.start, s.end
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// The union of `intervals` as sorted, disjoint intervals.
fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (a, b) in intervals {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// The parts of `[start, end]` that no interval of `intervals` covers.
fn gaps(start: u64, end: u64, intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut reach = start;
    for (a, b) in union(intervals) {
        if a > reach && reach < end {
            out.push((reach, a.min(end)));
        }
        reach = reach.max(b);
    }
    if reach < end {
        out.push((reach, end));
    }
    out
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let trace = Trace {
            spans: vec![
                span("bench.root", 0, 100, None),
                span("env.step", 10, 30, Some(0)),
                span("nn.fwd", 40, 70, Some(0)),
                // Nested below nn.fwd: only reduces nn.fwd's self time.
                span("nn.gemm", 45, 65, Some(2)),
            ],
        };
        assert_eq!(trace.self_times(), vec![50, 20, 10, 20]);
        let layers = trace.layer_self_ns();
        assert_eq!(layers["bench"], 50);
        assert_eq!(layers["nn"], 30);
        assert!((trace.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two worker threads' spans overlap in time under one parent, and
        // one runs past the parent's end.
        let trace = Trace {
            spans: vec![
                span("bench.root", 0, 100, None),
                span("rl.update", 10, 60, Some(0)),
                span("rl.update", 20, 80, Some(0)),
                span("rl.update", 90, 130, Some(0)),
            ],
        };
        assert_eq!(trace.self_times()[0], 100 - 70 - 10);
        assert_eq!(covered(0, 10, vec![(2, 4), (3, 5), (8, 20)]), 5);
        assert_eq!(covered(0, 10, vec![]), 0);
    }

    #[test]
    fn coverage_counts_each_instant_once_across_threads() {
        // Thread 0 (the root) and thread 1 take turns working and
        // waiting. Work covers [0,60) and [70,90) of [0,100): a wait on
        // one thread while the other works costs nothing, the instants
        // when nobody works do.
        let mut thread1 = span("bench.serve", 0, 100, Some(0));
        thread1.thread = 1;
        let trace = Trace {
            spans: vec![
                span("bench.root", 0, 100, None),
                thread1,
                span("exec.work", 0, 40, Some(1)),
                span("bench.wait", 40, 100, Some(1)),
                span("net.recv", 30, 60, Some(0)),
                span("bench.wait", 60, 95, Some(0)),
                span("nn.fwd", 70, 90, Some(0)),
            ],
        };
        assert!((trace.coverage() - 0.8).abs() < 1e-12);
        assert_eq!(
            gaps(0, 10, vec![(2, 4), (3, 5), (8, 20)]),
            vec![(0, 2), (5, 8)]
        );
        assert_eq!(gaps(0, 10, vec![]), vec![(0, 10)]);
        assert_eq!(union(vec![(5, 6), (0, 2), (1, 3)]), vec![(0, 3), (5, 6)]);
    }

    #[test]
    fn tracer_nests_and_absorb_reparents_roots() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin, 0);
        main.begin("bench.root");
        let mut worker = Tracer::new(origin, 1);
        worker.time("env.step", || ());
        worker.begin("rl.update");
        worker.time("rl.update.adam", || ());
        worker.end();
        main.end();
        let mut trace = Trace::default();
        trace.absorb(main, None);
        trace.absorb(worker, Some(0));
        let parents: Vec<_> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert_eq!(trace.count("rl.update"), 1);
        assert_eq!(trace.spans[3].thread, 1);
    }

    #[test]
    fn child_sums_group_phases_by_parent() {
        let trace = Trace {
            spans: vec![
                span("rl.update", 0, 100, None),
                span("rl.update.adam", 10, 20, Some(0)),
                span("rl.update.adam", 50, 80, Some(0)),
                span("rl.update", 100, 200, None),
                span("rl.update.adam", 150, 155, Some(3)),
            ],
        };
        assert_eq!(
            trace.child_sums_us("rl.update", "rl.update.adam"),
            vec![0.04, 0.005]
        );
    }
}
