//! In-memory span recorder. A span is `(name, parent, start, end, work)`;
//! `work` is the count of units the span processed (attempts, arrivals,
//! queue operations, bytes), so per-unit rates are measured where the work
//! happens. Spans stay in memory and are written once, at the end.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    work: u64,
}

/// Records spans when enabled; when disabled every call is a plain
/// pass-through, so traced and untraced passes run the same code.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_work(name, |tr| (f(tr), 0))
    }

    /// [`Tracer::span`] for a body that also reports its work count.
    pub fn span_work<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            work: 0,
        });
        self.open.push(id);
        let (out, work) = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.work = work;
        out
    }

    /// `{"spans": [[name, parent, start_ns, end_ns, work], ...]}` — parent
    /// is -1 for a root span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}\n[\"{}\", {parent}, {}, {}, {}]",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.work
            );
        }
        out.push_str("]}\n");
        out
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
