//! The flight recorder: a fixed-capacity ring buffer of recent span
//! closures and events, dumped to a postmortem JSON file when the
//! process hits trouble (worker panic, drain-deadline interruption,
//! watermark escalation to the shed rung).
//!
//! The recorder is designed for the hot path of a serving process:
//! writers claim a sequence number with one atomic `fetch_add` — the
//! ring index derivation is lock-free and wait-free — and then store
//! the event through that slot's own latch. Latches are per-slot, so
//! two writers only ever contend when they are exactly `capacity`
//! events apart (the overwrite case); readers ([`FlightRecorder::recent`],
//! the dump path) walk the slots without stopping writers.
//!
//! Because the recorder implements [`Sink`], it can be attached to any
//! evaluation session like the stderr/JSON-lines sinks: every finished
//! span lands in the ring automatically, newest-overwrites-oldest.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Value;
use crate::sink::Sink;
use crate::span::FinishedSpan;

/// One recorded moment: a finished span or an explicit event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number (total order across all writers).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub micros: u64,
    /// `"span"` for sink-recorded span closures, `"event"` for explicit
    /// [`FlightRecorder::event`] calls (e.g. `pressure`, `panic`,
    /// `drain`).
    pub kind: &'static str,
    /// Span or event name.
    pub name: String,
    /// Free-form detail (span attributes, event payload).
    pub detail: String,
}

/// A fixed-capacity ring buffer of [`FlightEvent`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEvent>>>,
    cursor: AtomicU64,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (at least
    /// one).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (not the retained
    /// count, which is bounded by [`FlightRecorder::capacity`]).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records an explicit event.
    pub fn event(&self, name: impl Into<String>, detail: impl Into<String>) {
        self.push("event", name.into(), detail.into());
    }

    fn push(&self, kind: &'static str, name: String, detail: String) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let ev = FlightEvent {
            seq,
            micros: self.epoch.elapsed().as_micros() as u64,
            kind,
            name,
            detail,
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        // A poisoned slot (writer panicked mid-store) still holds a
        // well-formed Option; keep recording through it.
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(ev);
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Renders a postmortem document: the dump reason, wall-clock and
    /// uptime stamps, and the retained events oldest-first. The schema
    /// (`reason`, `unix_micros`, `uptime_micros`, `recorded`, `events`
    /// with `seq`/`micros`/`kind`/`name`/`detail`) is documented in
    /// DESIGN.md and consumed by the serve postmortem tests.
    pub fn dump_json(&self, reason: &str) -> String {
        let unix_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        let events = self.recent().into_iter().map(|e| {
            Value::object()
                .with("seq", e.seq)
                .with("micros", e.micros)
                .with("kind", e.kind)
                .with("name", e.name)
                .with("detail", e.detail)
        });
        Value::object()
            .with("reason", reason)
            .with("unix_micros", unix_micros)
            .with("uptime_micros", self.epoch.elapsed().as_micros() as u64)
            .with("recorded", self.recorded())
            .with("events", events.collect::<Value>())
            .pretty()
    }

    /// Writes the postmortem document to `path` (creating or
    /// truncating it).
    pub fn dump_to_file(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        std::fs::write(path, self.dump_json(reason))
    }
}

impl Sink for FlightRecorder {
    fn record(&self, span: &FinishedSpan) {
        let mut detail = format!("dur_micros={}", span.dur_nanos / 1_000);
        for (k, v) in &span.attrs {
            let _ = write!(detail, " {k}={v}");
        }
        self.push("span", span.name.to_string(), detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_keeps_the_newest_events() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.event("tick", format!("i={i}"));
        }
        let recent = rec.recent();
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].seq, 6);
        assert_eq!(recent[3].seq, 9);
        assert_eq!(recent[3].detail, "i=9");
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn sink_records_span_closures() {
        let rec = Arc::new(FlightRecorder::new(8));
        let obs = crate::Observer::with_sinks(vec![rec.clone()]);
        {
            let root = obs.root_span("session", &[("order", 5)]);
            let _child = root.handle().child("eval", &[]);
        }
        let recent = rec.recent();
        assert_eq!(recent.len(), 2);
        // Children finish first.
        assert_eq!(recent[0].name, "eval");
        assert_eq!(recent[1].name, "session");
        assert!(recent[1].detail.contains("order=5"));
        assert_eq!(recent[0].kind, "span");
    }

    #[test]
    fn dump_json_is_balanced_and_carries_reason() {
        let rec = FlightRecorder::new(2);
        rec.event("pressure", "rung=3");
        let json = rec.dump_json("watermark shed");
        assert!(json.contains("\"reason\": \"watermark shed\""));
        assert!(json.contains("\"name\": \"pressure\""));
        assert!(json.contains("\"recorded\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn concurrent_writers_never_lose_the_ring_shape() {
        let rec = Arc::new(FlightRecorder::new(16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        rec.event("w", format!("t={t} i={i}"));
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 400);
        let recent = rec.recent();
        assert_eq!(recent.len(), 16);
        // Sequence numbers are unique; each slot holds one event whose
        // ring index matches its position (a racing overwrite may keep
        // the older of two same-slot events, never a corrupt one).
        for w in recent.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        for e in &recent {
            assert_eq!(e.kind, "event");
        }
    }
}
