//! Spans recorded by the benchmark around its calls into each layer of
//! the program. Nothing inside the program is instrumented: a span is
//! the time one public call took, seen from the caller.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call: `[start, end)` seconds since the tracer began.
struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// An in-memory span log, written out once when the run ends. When
/// `on` is false every method is a no-op, so untraced ops pay nothing.
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.duration_since(self.t0).as_secs_f64()
    }

    /// Open the root span of op `op`; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, op: usize) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.secs(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// End a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.secs(Instant::now());
        }
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: self.secs(start),
            end: self.secs(end),
        });
        out
    }

    /// Record a span whose bounds the caller measured itself (a call on
    /// another thread, for example).
    pub fn record(&mut self, name: &'static str, op: usize, start: Instant, end: Instant) {
        if self.on {
            let (start, end) = (self.secs(start), self.secs(end));
            self.spans.push(Span {
                name,
                op,
                parent: None,
                start,
                end,
            });
        }
    }

    /// Durations of the spans named `name`, in the order recorded.
    pub fn durations(&self, name: &str) -> Vec<(usize, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.end - s.start))
            .collect()
    }

    /// Per span name: `(count, total s, self s)`, where a span's self
    /// time is its duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += (s.end - s.start - c).max(0.0);
        }
        out
    }

    /// The self-time table, one line per span name.
    pub fn table(&self) -> String {
        let times = self.self_times();
        let roots: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum();
        let mut out = format!(
            "{:<18} {:>7} {:>12} {:>12} {:>8}\n",
            "span", "count", "total_ms", "self_ms", "self%"
        );
        for (name, (count, total, own)) in &times {
            let _ = writeln!(
                out,
                "{name:<18} {count:>7} {:>12.3} {:>12.3} {:>7.1}%",
                total * 1e3,
                own * 1e3,
                100.0 * own / roots.max(f64::MIN_POSITIVE)
            );
        }
        out
    }

    /// Write every span as tab-separated `id parent op name start_us
    /// end_us` lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\top\tname\tstart_us\tend_us\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{:.3}\t{:.3}",
                s.op,
                s.name,
                s.start * 1e6,
                s.end * 1e6
            );
        }
        std::fs::write(path, out)
    }
}
