//! The span recorder behind `--trace 1`.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a crate: name, start, end, parent span and op id. They stay in
//! memory while the run measures and are written out as JSON lines when
//! it ends. A layer's self time is its span's duration minus the part
//! covered by its child spans, so the self times of every span under an
//! op's root span add up to the op's wall time exactly.
//!
//! Counts (tokens, fuel, bytes, reuse counters, ...) are recorded at the
//! same call boundaries. With tracing off every method is one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub op: u64,
}

/// Records spans and counts while `on`, and nothing otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
            maxima: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the op id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises the high-water mark `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let m = self.maxima.entry(name).or_insert(0.0);
            if v > *m {
                *m = v;
            }
        }
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    pub fn maxima(&self) -> &BTreeMap<&'static str, f64> {
        &self.maxima
    }

    /// Moves another recorder's spans and counts into this one (serve
    /// clients each record on their own thread).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.maxima {
            let m = self.maxima.entry(k).or_insert(0.0);
            if v > *m {
                *m = v;
            }
        }
    }

    /// Self time per span name, in nanoseconds, summed over all spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64;
        }
        out
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(Instant::now());
        t.set_on(true);
        let root = t.begin("op");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = t.begin("b");
        t.span("c", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.end(b);
        t.end(root);
        let selfs = t.self_times();
        let sum: f64 = selfs.values().sum();
        assert_eq!(sum, t.total_ns("op"));
        assert!(selfs["a"] >= 2e6 && selfs["c"] >= 1e6);
        assert!(selfs["b"] < selfs["c"], "b's self time excludes c");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let id = t.begin("op");
        t.count("x", 1.0);
        t.end(id);
        assert!(t.spans.is_empty() && t.counts().is_empty());
    }
}
