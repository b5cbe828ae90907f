//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is a name, a start and end (ns since the run's epoch), the
//! span that caused it, and the question it belongs to.  Spans stay in
//! memory and are written out once, as JSON lines, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use spi_auth::verify::jsonlite::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `explore.concrete`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u128,
    /// End, ns since the tracer's epoch.
    pub end_ns: u128,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<usize>,
    /// The question (or request) the span belongs to.
    pub question: String,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = (self.end_ns - self.start_ns) as f64;
        ns / 1e6
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span and returns its result with the span's
    /// index; `f` receives the tracer and that index, so it can open
    /// child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        question: &str,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> (T, usize) {
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            question: question.to_string(),
        });
        let out = f(self, id);
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos();
        (out, id)
    }

    /// Records an already-timed span (e.g. one measured on a client
    /// thread) as a root.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, question: &str) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            question: question.to_string(),
        });
    }

    /// The recorded span at `id`.
    #[must_use]
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Direct children of `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"question":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                Json::str(s.question.as_str()).render_compact()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::default();
        let ((), root) = t.span("question", None, "q1", |t, id| {
            t.span("explore.concrete", Some(id), "q1", |_, _| ());
            t.span("decide.trace", Some(id), "q1", |_, _| ());
        });
        t.span("traces.weak.concrete", None, "q1", |_, _| ());
        assert_eq!(root, 0);
        let names: Vec<&str> = t.children(root).map(|s| s.name).collect();
        assert_eq!(names, ["explore.concrete", "decide.trace"]);
        let kids: f64 = t.children(root).map(Span::ms).sum();
        assert!(kids <= t.get(root).ms());
    }
}
