//! Pluggable span sinks: where finished spans go.
//!
//! Three built-ins cover the pipeline's needs: [`StderrSink`] renders
//! one human-readable line per span (the successor of the engine's old
//! ad-hoc `[foc-trace]` `eprintln!`s), [`JsonLinesSink`] appends one
//! JSON object per span for machine consumption, and [`MemorySink`]
//! retains spans in memory so tests and the `foc explain` report can
//! reconstruct the span tree after the session ends.

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::json::Value;
use crate::span::{AttrValue, FinishedSpan};

/// Receives every finished span of an observer. Implementations must be
/// thread-safe: parallel workers finish spans concurrently.
pub trait Sink: Send + Sync {
    /// Called once per finished span, in finish order (children before
    /// their parent).
    fn record(&self, span: &FinishedSpan);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Human-readable `[foc-trace]` lines on stderr.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, span: &FinishedSpan) {
        let mut line = format!(
            "[foc-trace] span={} id={} micros={}",
            span.name,
            span.id,
            span.dur_nanos / 1_000
        );
        if let Some(p) = span.parent {
            line.push_str(&format!(" parent={p}"));
        }
        for (k, v) in &span.attrs {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }
}

/// One JSON object per span, appended to a writer (JSON-lines format).
pub struct JsonLinesSink {
    w: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl JsonLinesSink {
    /// A sink writing to `w`.
    pub fn new(w: Box<dyn Write + Send>) -> JsonLinesSink {
        JsonLinesSink { w: Mutex::new(w) }
    }

    /// A sink appending to the file at `path` (created or truncated).
    pub fn create(path: &str) -> std::io::Result<JsonLinesSink> {
        Ok(JsonLinesSink::new(Box::new(std::fs::File::create(path)?)))
    }
}

/// One span as a JSON object (written as one line by [`JsonLinesSink`]).
pub fn span_to_json(span: &FinishedSpan) -> Value {
    let mut v = Value::object()
        .with("span", span.name)
        .with("id", span.id)
        .with("parent", span.parent)
        .with("start_micros", span.start_nanos / 1_000)
        .with("dur_micros", span.dur_nanos / 1_000);
    if !span.attrs.is_empty() {
        let attrs = span.attrs.iter().map(|(k, a)| {
            let value = match a {
                AttrValue::Int(n) => Value::from(*n),
                AttrValue::Text(t) => Value::from(t.as_str()),
            };
            (k.to_string(), value)
        });
        v = v.with("attrs", Value::Object(attrs.collect()));
    }
    v
}

impl Sink for JsonLinesSink {
    fn record(&self, span: &FinishedSpan) {
        let line = span_to_json(span).compact();
        let mut w = self.w.lock().expect("jsonl writer poisoned");
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.w.lock().expect("jsonl writer poisoned").flush();
    }
}

/// Retains finished spans in memory (tests, `foc explain`).
#[derive(Debug, Default)]
pub struct MemorySink {
    spans: Mutex<Vec<FinishedSpan>>,
}

impl MemorySink {
    /// A fresh, empty sink behind an `Arc` (the form sinks are attached
    /// in).
    pub fn shared() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// The spans recorded so far, in finish order.
    pub fn spans(&self) -> Vec<FinishedSpan> {
        self.spans.lock().expect("memory sink poisoned").clone()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("memory sink poisoned").len()
    }

    /// `true` iff no span has finished yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, span: &FinishedSpan) {
        self.spans
            .lock()
            .expect("memory sink poisoned")
            .push(span.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> FinishedSpan {
        FinishedSpan {
            id: 1,
            parent: Some(0),
            name: "cover",
            start_nanos: 5_000,
            dur_nanos: 42_000,
            attrs: vec![
                ("radius", AttrValue::Int(2)),
                ("note", AttrValue::Text("a \"quoted\" label".into())),
            ],
        }
    }

    #[test]
    fn jsonl_escapes_and_structures() {
        let json = span_to_json(&span()).compact();
        assert!(json.contains("\"span\":\"cover\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"radius\":2"));
        assert!(json.contains("a \\\"quoted\\\" label"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Tee(Arc<Mutex<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(Box::new(Tee(buf.clone())));
        sink.record(&span());
        sink.record(&span());
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn memory_sink_retains() {
        let m = MemorySink::default();
        assert!(m.is_empty());
        m.record(&span());
        assert_eq!(m.len(), 1);
        assert_eq!(m.spans()[0].name, "cover");
    }
}
