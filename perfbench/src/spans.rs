//! In-memory span recorder for traced runs.
//!
//! Spans are opened and closed from the benchmark's own code around calls
//! into each layer's public functions; nothing inside the crates records
//! them. Each span has a name, a start, an end, a parent and a run id. The
//! spans are written out once, when the run ends. A span's self time is
//! its duration minus the part of it that its children cover.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans of one run. Opening a span makes it the parent of every
/// span opened or laid out before it is closed.
pub struct Tracer {
    origin: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(run: u64) -> Self {
        Tracer {
            origin: Instant::now(),
            run,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Lay out already-measured durations back to back as children of span
    /// `parent`, starting at its start and clipped to its end (the layers
    /// report phase durations, not instants).
    pub fn lay_out(&mut self, parent: usize, children: &[(&'static str, Duration)]) {
        let (mut cursor, stop) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for &(name, d) in children {
            let end_ns = (cursor + d.as_nanos() as u64).min(stop);
            self.spans.push(Span {
                name,
                start_ns: cursor,
                end_ns,
                parent: Some(parent),
                run: self.run,
            });
            cursor = end_ns;
        }
    }

    /// Drop every span recorded so far (warm-up). No span may be open.
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns() as f64).sum::<f64>() * 1e-6
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Durations of every span named `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 * 1e-6).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Share of the summed duration of spans named `parent` that their
    /// direct children cover (children of one parent never overlap).
    pub fn coverage(&self, parent: &str) -> f64 {
        let total: u64 = self.named(parent).map(Span::dur_ns).sum();
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::dur_ns)
            .sum();
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Every span lies inside its parent, no span is left open, and the
    /// children of one parent do not overlap.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} span(s) left open", self.open.len()));
        }
        let mut last_child_end = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} '{}' ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!(
                        "span {i} '{}' is not inside parent '{}'",
                        s.name, ps.name
                    ));
                }
                if s.start_ns < last_child_end[p] {
                    return Err(format!("span {i} '{}' overlaps a sibling", s.name));
                }
                last_child_end[p] = s.end_ns;
            }
        }
        Ok(())
    }

    /// One JSON object per line: name, start/end ns, parent index, run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_check_and_self_time() {
        let mut t = Tracer::new(1);
        let step = t.begin("step");
        t.span("a", || std::thread::sleep(Duration::from_millis(2)));
        t.span("force", || std::thread::sleep(Duration::from_millis(2)));
        t.end(step);
        let force = t.spans().iter().position(|s| s.name == "force").unwrap();
        t.lay_out(
            force,
            &[
                ("force.x", Duration::from_millis(1)),
                ("force.y", Duration::from_secs(9)),
            ],
        );
        t.check_nesting().unwrap();
        assert_eq!(t.count("a"), 1);
        assert!(t.coverage("step") > 0.5 && t.coverage("step") <= 1.0);
        // force.y is clipped to its parent, so its children cover all of it.
        assert_eq!(t.coverage("force"), 1.0);
        assert!(t.to_jsonl().lines().count() == 5);
    }

    #[test]
    fn misnested_span_is_reported() {
        let mut t = Tracer::new(1);
        let a = t.begin("a");
        t.end(a);
        t.spans.push(Span {
            name: "b",
            start_ns: 0,
            end_ns: u64::MAX,
            parent: Some(0),
            run: 1,
        });
        assert!(t.check_nesting().is_err());
    }
}
