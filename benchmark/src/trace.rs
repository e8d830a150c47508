//! In-memory spans for the traced pass. Spans are recorded only here, in the
//! benchmark, around calls into each layer's public functions; the program
//! under test is not instrumented. They are written out when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one request (one update batch, one query) share this.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans made on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// A leaf span around one call.
    pub fn time<T>(&mut self, name: &'static str, request: u64, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = call();
        self.exit(id);
        out
    }

    /// Records a span from timestamps taken elsewhere (an interval between
    /// two callbacks, say), under no parent.
    pub fn record(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: None,
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9 + 0.0
    }

    /// Summed self time of the spans called `name`: each span's duration
    /// minus the part its direct children cover, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        // Built by hand so the arithmetic is exact.
        t.spans = vec![
            Span {
                name: "batch",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "refresh",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "sgd",
                start_ns: 40,
                end_ns: 90,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "kernel",
                start_ns: 50,
                end_ns: 60,
                parent: Some(2),
                request: 1,
            },
            Span {
                name: "wait",
                start_ns: 100,
                end_ns: 120,
                parent: None,
                request: 2,
            },
        ];
        assert_eq!(t.self_s("batch"), 20e-9);
        assert_eq!(t.self_s("sgd"), 40e-9);
        assert_eq!(t.total_s("sgd"), 50e-9);
        assert_eq!(t.count("refresh"), 1);
    }

    #[test]
    fn nesting_sets_parents_and_request_ids() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        let got = t.time("inner", 7, || 42);
        t.exit(outer);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans.iter().all(|s| s.request == 7));
    }
}
