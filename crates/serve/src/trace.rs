//! Tail-based trace sampling: deciding which request traces to keep and
//! where the kept ones go.
//!
//! Every request is traced while it runs (when `ServerConfig::tracing`
//! is on): a per-request `MemorySink` captures the full span tree the
//! engine would otherwise discard. The *keep* decision is made at the
//! tail, after the outcome is known:
//!
//! * **tail** — kept because the request is anomalous: it errored,
//!   panicked, tripped a budget (deadline / fuel / cancel / memory), or
//!   exceeded the slow-query threshold;
//! * **random** — kept by the seeded 1-in-N sampler so the healthy
//!   population stays represented.
//!
//! Kept traces are emitted as one JSON line each: request identity
//! (`trace_id` / `request_id`), the query text, the snapshot epoch it
//! ran against, latency, outcome, why it was sampled, and the span
//! tree. They land in a bounded in-memory ring (surfaced by
//! [`crate::server::ServerHandle::recent_traces`]) and, when a trace
//! path is configured, are appended to a JSON-lines file.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use foc_guard::TraceContext;
use foc_obs::json::Value;
use foc_obs::sink::span_to_json;
use foc_obs::FinishedSpan;

/// How many kept traces the in-memory ring retains.
const RECENT_TRACES: usize = 64;

/// The seeded 1-in-N keep decision for well-behaved requests.
/// Anomalous requests bypass the sampler entirely (they are always
/// kept), so this only thins the healthy population. The decision is a
/// deterministic function of `(seed, arrival index)` — two servers
/// started with the same seed sample the same request positions.
#[derive(Debug)]
pub(crate) struct TailSampler {
    sample_n: u64,
    seed: u64,
    seq: AtomicU64,
}

impl TailSampler {
    pub(crate) fn new(sample_n: u64, seed: u64) -> TailSampler {
        TailSampler {
            sample_n,
            seed,
            seq: AtomicU64::new(0),
        }
    }

    /// Whether this (non-anomalous) request should be kept anyway.
    /// `sample_n == 0` keeps none, `1` keeps all.
    pub(crate) fn keep_random(&self) -> bool {
        if self.sample_n == 0 {
            return false;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.sample_n == 1 {
            return true;
        }
        // splitmix-style finalizer over (seed, index): cheap, stateless
        // given the counter, and well-spread even for sequential input.
        let mut x = n.wrapping_add(self.seed);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x.is_multiple_of(self.sample_n)
    }
}

/// Renders one kept trace as a single JSON line. `sampled` is `"tail"`
/// or `"random"`; `outcome` is `"ok"`, `"slow"`, `"error"`,
/// `"interrupted"`, or `"panic"`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trace_line(
    tc: &TraceContext,
    mode: &str,
    query: &str,
    epoch: u64,
    micros: u64,
    outcome: &str,
    sampled: &str,
    spans: &[FinishedSpan],
) -> String {
    Value::object()
        .with("trace_id", tc.trace_id.as_str())
        .with("request_id", tc.request_id.as_str())
        .with("mode", mode)
        .with("query", query)
        .with("epoch", epoch)
        .with("micros", micros)
        .with("outcome", outcome)
        .with("sampled", sampled)
        .with("spans", spans.iter().map(span_to_json).collect::<Value>())
        .compact()
}

/// Where kept traces go: a bounded in-memory ring always, plus an
/// appended JSON-lines file when a path was configured.
pub(crate) struct TraceLog {
    recent: Mutex<VecDeque<String>>,
    file: Mutex<Option<File>>,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog").finish_non_exhaustive()
    }
}

impl TraceLog {
    /// A log appending to `path` (created if absent) when given.
    pub(crate) fn new(path: Option<&Path>) -> std::io::Result<TraceLog> {
        let file = match path {
            Some(p) => Some(OpenOptions::new().create(true).append(true).open(p)?),
            None => None,
        };
        Ok(TraceLog {
            recent: Mutex::new(VecDeque::new()),
            file: Mutex::new(file),
        })
    }

    /// Emits one kept trace line. File errors are swallowed: a full
    /// disk must not take the query path down with it.
    pub(crate) fn emit(&self, line: String) {
        if let Some(f) = self.file.lock().unwrap_or_else(|e| e.into_inner()).as_mut() {
            let _ = writeln!(f, "{line}");
        }
        let mut recent = self.recent.lock().unwrap_or_else(|e| e.into_inner());
        if recent.len() >= RECENT_TRACES {
            recent.pop_front();
        }
        recent.push_back(line);
    }

    /// The kept traces still in the ring, oldest first.
    pub(crate) fn recent(&self) -> Vec<String> {
        self.recent
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_obs::AttrValue;

    #[test]
    fn sampler_is_deterministic_and_respects_n() {
        let a = TailSampler::new(4, 99);
        let b = TailSampler::new(4, 99);
        let da: Vec<bool> = (0..256).map(|_| a.keep_random()).collect();
        let db: Vec<bool> = (0..256).map(|_| b.keep_random()).collect();
        assert_eq!(da, db, "same seed, same decisions");
        let kept = da.iter().filter(|&&k| k).count();
        // 1-in-4 over 256 draws: allow a wide band, reject degenerate
        // all/none behaviour.
        assert!((16..=128).contains(&kept), "kept {kept} of 256 at n=4");

        let none = TailSampler::new(0, 1);
        assert!((0..64).all(|_| !none.keep_random()));
        let all = TailSampler::new(1, 1);
        assert!((0..64).all(|_| all.keep_random()));
    }

    #[test]
    fn trace_lines_are_single_line_json_with_spans() {
        let tc = TraceContext::new("ab12-3", "q9");
        let spans = vec![FinishedSpan {
            id: 0,
            parent: None,
            name: "session",
            start_nanos: 1_000,
            dur_nanos: 9_000,
            attrs: vec![("engine", AttrValue::Text("Local".into()))],
        }];
        let line = trace_line(
            &tc,
            "check",
            "E(x,\"y\")",
            7,
            42,
            "interrupted",
            "tail",
            &spans,
        );
        assert!(!line.contains('\n'));
        let v = foc_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("trace_id").and_then(Value::as_str), Some("ab12-3"));
        assert_eq!(
            v.get("outcome").and_then(Value::as_str),
            Some("interrupted")
        );
        assert_eq!(v.get("epoch").and_then(Value::as_i64), Some(7));
        match v.get("spans") {
            Some(Value::Array(items)) => assert_eq!(items.len(), 1),
            other => panic!("spans not an array: {other:?}"),
        }
    }

    #[test]
    fn trace_log_ring_is_bounded_and_file_appends() {
        let log = TraceLog::new(None).unwrap();
        for i in 0..(RECENT_TRACES + 10) {
            log.emit(Value::object().with("i", i).compact());
        }
        let recent = log.recent();
        assert_eq!(recent.len(), RECENT_TRACES);
        assert_eq!(
            recent.last().unwrap(),
            &Value::object().with("i", RECENT_TRACES + 9).compact()
        );

        let dir = std::env::temp_dir().join(format!("foc-trace-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.jsonl");
        {
            let log = TraceLog::new(Some(&path)).unwrap();
            log.emit(Value::object().with("a", 1u64).compact());
            log.emit(Value::object().with("a", 2u64).compact());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
