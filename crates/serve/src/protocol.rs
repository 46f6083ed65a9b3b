//! The JSON-lines wire protocol: request parsing and response frames.
//!
//! One request per line; responses arrive in request order. Proto 1 is
//! strictly one frame per request; proto 2 adds *progressive* delivery
//! for anytime queries — zero or more `partial` frames followed by
//! exactly one terminal frame (`result`, `error`, or `shed`). A request
//! declaring any other version is refused with a structured
//! `{"class":"unsupported_proto"}` error (requests without the field
//! are treated as proto 1 for backwards compatibility). Every
//! request-scoped frame (everything except `drained`, which is a
//! connection-level notice) echoes the client's `id` and carries the
//! server-minted `trace_id` of the request, so a client can join its
//! responses against the server's sampled traces and flight-recorder
//! dumps. The frame taxonomy is tabulated in `DESIGN.md` §"Wire
//! frames"; in short, the frames leaving the server are:
//!
//! * `{"type":"result", "proto":1, "id":…, "trace_id":…, "mode":…,
//!   "value":…, "epoch":…, "micros":…}` — a query answer (a boolean
//!   for `check`, an integer for `eval`), stamped with the epoch of
//!   the snapshot it evaluated against;
//! * `{"type":"result", "proto":1, "id":…, "trace_id":…,
//!   "mode":"update"|"batch", "epoch":…, "changed":…, "micros":…}` — a
//!   committed mutation: the epoch now current and how many tuples
//!   actually changed;
//! * `{"type":"error", "proto":1, "id":…, "trace_id":…, "class":…,
//!   "message":…}` — a structured failure (parse errors, evaluation
//!   errors, rejected mutations with `"class":"mutation"`, version
//!   mismatches with `"class":"unsupported_proto"`, tripped budgets
//!   with `"class":"interrupted"` and a `"reason"` field, contained
//!   panics with `"class":"panic"`);
//! * `{"type":"shed", "proto":1, "id":…, "trace_id":…,
//!   "retry_after_ms":…}` — admission control refused the request (or,
//!   during drain, the connection; then `id` is `"-"`); the hint is
//!   derived live from queue depth and the latency p99, with
//!   deterministic per-request jitter;
//! * `{"type":"drained", "proto":1}` — sent on streams still open when
//!   the server finishes draining, immediately before the socket
//!   closes.
//!
//! Proto-2 additions (anytime evaluation; see `DESIGN.md` §"Anytime
//! evaluation"):
//!
//! * `{"type":"partial", "proto":2, "id":…, "trace_id":…, "mode":…,
//!   "pass":"sample"|"approx"|"local"|"exact", "value":…,
//!   "confidence":"exact"|"approx"|"lower_bound"|"partial"
//!   [,"approx":true,"error_bound":…] [,"clusters_done":…,
//!   "clusters_total":…], "micros":…}` — one frame per deepening pass
//!   that banked an answer, streamed while evaluation continues;
//! * the terminal `result` frame of an anytime request additionally
//!   carries the same `confidence` (and, for `"partial"`, progress)
//!   fields — the best-so-far answer when the budget tripped, tagged
//!   instead of discarded;
//! * an `eval` request with `"approx":true` (proto 2) runs the `(ε, δ)`
//!   estimator instead of an exact engine; its `result` frame carries
//!   `"confidence":"approx","approx":true,"error_bound":…` — the
//!   estimate is within ±`error_bound` of the true count with
//!   probability ≥ 1−δ. `"epsilon_milli"` (1..=1000, thousandths)
//!   overrides the server's default ε; the wire stays integer-only.
//!
//! Lines are read by [`foc_obs::json::parse`], which accepts any JSON
//! number; every integer field here (`proto`, `timeout_ms`, `fuel`,
//! `mem_limit_bytes`, `epsilon_milli`, tuple components) is read with
//! [`foc_obs::json::Value::as_i64`], so a fraction in one is a
//! `bad-request`. Frames are written by its compact writer.

use std::time::Duration;

use foc_core::{Confidence, EngineKind};
use foc_obs::json::{parse, Value};

/// The baseline wire-protocol version: one frame per request. Stamped
/// on every proto-1 frame; requests declaring an unknown version are
/// refused.
pub const PROTO_VERSION: i64 = 1;

/// The progressive dialect: a superset of proto 1 that adds the
/// `anytime` request flag, `partial` frames, and confidence-tagged
/// result frames. Clients opt in per request with `"proto":2`.
pub const PROTO_PROGRESSIVE: i64 = 2;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Model checking of a sentence (`"mode":"check"`).
    Check,
    /// Evaluation of a ground term (`"mode":"eval"`).
    Eval,
    /// A single tuple mutation (`"mode":"update"` with `op`/`rel`/
    /// `tuple` fields).
    Update,
    /// An atomic batch of tuple mutations (`"mode":"batch"` with an
    /// `ops` array).
    Batch,
}

impl Mode {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Check => "check",
            Mode::Eval => "eval",
            Mode::Update => "update",
            Mode::Batch => "batch",
        }
    }

    /// Whether this mode mutates the served structure.
    pub fn is_mutation(self) -> bool {
        matches!(self, Mode::Update | Mode::Batch)
    }
}

/// One requested tuple mutation, as parsed off the wire (converted to
/// [`foc_structures::TupleOp`] by the server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOp {
    /// `true` = insert, `false` = delete.
    pub insert: bool,
    /// Relation name.
    pub rel: String,
    /// The tuple, one component per position.
    pub tuple: Vec<u32>,
}

/// A parsed request frame. Budgets here are *requests*: the server
/// clamps them to its own caps before arming.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen id, echoed on the response (`"-"` if absent).
    pub id: String,
    /// The protocol dialect the client declared (1 when absent).
    pub proto: i64,
    /// Anytime evaluation requested (`"anytime":true`; proto 2 only).
    /// The server streams a `partial` frame per completed deepening
    /// pass and tags the terminal result with its confidence.
    pub anytime: bool,
    /// Approximate evaluation requested (`"approx":true`; proto 2,
    /// `eval` mode only). The server answers with an `(ε, δ)`-bounded
    /// estimate flagged `"approx":true` with its `error_bound`.
    pub approx: bool,
    /// Requested additive-error fraction (`"epsilon_milli"`, parsed as
    /// thousandths; requires `"approx":true`). `None` = server default.
    pub epsilon: Option<f64>,
    /// Check, eval, update, or batch.
    pub mode: Mode,
    /// The query text (a sentence or a ground term; empty for
    /// mutations).
    pub query: String,
    /// The mutation ops (empty for queries).
    pub ops: Vec<UpdateOp>,
    /// Requested wall-clock allowance.
    pub timeout: Option<Duration>,
    /// Requested fuel allowance.
    pub fuel: Option<u64>,
    /// Requested byte cap against the server-wide memory account
    /// (`"mem_limit_bytes"`); trips `TripReason::Memory` when the
    /// account exceeds it mid-evaluation.
    pub mem_limit: Option<u64>,
    /// Requested engine override.
    pub engine: Option<EngineKind>,
}

/// Why a request line was refused before evaluation. `class` feeds the
/// error frame (`"bad-request"` for malformed frames,
/// `"unsupported_proto"` for version mismatches); `id` echoes the
/// client's id when the frame was valid JSON with a bad field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFailure {
    /// Echoed request id (`"-"` when unreadable).
    pub id: String,
    /// Stable error class for the frame.
    pub class: &'static str,
    /// Human-readable reason.
    pub message: String,
}

fn parse_op(v: &Value) -> Result<UpdateOp, String> {
    let insert = match v.get("op").and_then(Value::as_str) {
        Some("insert") => true,
        Some("delete") => false,
        Some(other) => return Err(format!("unknown op {other:?} (want insert|delete)")),
        None => return Err("missing \"op\"".to_string()),
    };
    let Some(rel) = v.get("rel").and_then(Value::as_str) else {
        return Err("missing \"rel\"".to_string());
    };
    let tuple = match v.get("tuple") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|t| match t.as_i64() {
                Some(x) if (0..=i64::from(u32::MAX)).contains(&x) => Ok(x as u32),
                _ => Err("\"tuple\" components must be non-negative integers".to_string()),
            })
            .collect::<Result<Vec<u32>, String>>()?,
        _ => return Err("missing \"tuple\" array".to_string()),
    };
    Ok(UpdateOp {
        insert,
        rel: rel.to_string(),
        tuple,
    })
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ParseFailure> {
    let bad = |id: &str, msg: String| ParseFailure {
        id: id.to_string(),
        class: "bad-request",
        message: msg,
    };
    let v = parse(line).map_err(|e| bad("-", format!("invalid JSON: {e}")))?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or("-")
        .to_string();
    let fail = |msg: String| Err(bad(&id, msg));
    // The protocol's typed accessors for optional fields: an absent
    // field is `None`, a present one of the wrong type (a fraction where
    // an integer is due included) is a `bad-request`.
    let flag = |key: &str| match v.get(key) {
        None => Ok(false),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| bad(&id, format!("\"{key}\" must be a boolean"))),
    };
    let count = |key: &str| match v.get(key) {
        None => Ok(None),
        Some(n) => match n.as_i64() {
            Some(x) if x >= 0 => Ok(Some(x as u64)),
            _ => Err(bad(
                &id,
                format!("\"{key}\" must be a non-negative integer"),
            )),
        },
    };
    let proto = match v.get("proto") {
        None => PROTO_VERSION,
        Some(p) => match p.as_i64() {
            Some(p @ (PROTO_VERSION | PROTO_PROGRESSIVE)) => p,
            Some(other) => {
                return Err(ParseFailure {
                    id,
                    class: "unsupported_proto",
                    message: format!(
                        "protocol version {other} is not supported (this server speaks proto {PROTO_VERSION} and {PROTO_PROGRESSIVE})"
                    ),
                })
            }
            None => return fail("\"proto\" must be an integer".to_string()),
        },
    };
    let anytime = flag("anytime")?;
    if anytime && proto < PROTO_PROGRESSIVE {
        return fail(format!(
            "\"anytime\" requires proto {PROTO_PROGRESSIVE} (progressive frames)"
        ));
    }
    let approx = flag("approx")?;
    if approx && proto < PROTO_PROGRESSIVE {
        return fail(format!(
            "\"approx\" requires proto {PROTO_PROGRESSIVE} (approx-flagged frames)"
        ));
    }
    let epsilon = match v.get("epsilon_milli") {
        None => None,
        Some(e) => match e.as_i64() {
            Some(milli @ 1..=1000) => Some(milli as f64 / 1000.0),
            _ => return fail("\"epsilon_milli\" must be an integer in 1..=1000".to_string()),
        },
    };
    if epsilon.is_some() && !approx {
        return fail("\"epsilon_milli\" requires \"approx\":true".to_string());
    }
    let mode = match v.get("mode").and_then(Value::as_str) {
        Some("check") => Mode::Check,
        Some("eval") => Mode::Eval,
        Some("update") => Mode::Update,
        Some("batch") => Mode::Batch,
        Some(other) => {
            return fail(format!(
                "unknown mode {other:?} (want check|eval|update|batch)"
            ))
        }
        None => return fail("missing \"mode\"".to_string()),
    };
    if approx && mode != Mode::Eval {
        return fail("\"approx\" applies to eval requests only".to_string());
    }
    let (query, ops) = match mode {
        Mode::Check | Mode::Eval => {
            let Some(q) = v.get("query").and_then(Value::as_str) else {
                return fail("missing \"query\"".to_string());
            };
            (q.to_string(), Vec::new())
        }
        Mode::Update => match parse_op(&v) {
            Ok(op) => (String::new(), vec![op]),
            Err(e) => return fail(e),
        },
        Mode::Batch => match v.get("ops") {
            Some(Value::Array(items)) => {
                let mut ops = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    match parse_op(item) {
                        Ok(op) => ops.push(op),
                        Err(e) => return fail(format!("ops[{i}]: {e}")),
                    }
                }
                (String::new(), ops)
            }
            _ => return fail("missing \"ops\" array".to_string()),
        },
    };
    let timeout = count("timeout_ms")?.map(Duration::from_millis);
    let fuel = count("fuel")?;
    let mem_limit = count("mem_limit_bytes")?;
    let engine = match v.get("engine").and_then(Value::as_str) {
        None => None,
        Some("naive") => Some(EngineKind::Naive),
        Some("local") => Some(EngineKind::Local),
        Some("cover") => Some(EngineKind::Cover),
        Some(other) => return fail(format!("unknown engine {other:?}")),
    };
    Ok(Request {
        id,
        proto,
        anytime,
        approx,
        epsilon,
        mode,
        query,
        ops,
        timeout,
        fuel,
        mem_limit,
        engine,
    })
}

/// Appends the confidence fields shared by `partial` and anytime
/// `result` frames: `"confidence":…` plus, for partial coverage, the
/// progress pair, and for an estimate its `approx` flag and bound.
fn with_confidence(frame: Value, c: &Confidence) -> Value {
    match c {
        Confidence::Partial {
            clusters_done,
            clusters_total,
        } => frame
            .with("confidence", "partial")
            .with("clusters_done", *clusters_done)
            .with("clusters_total", *clusters_total),
        Confidence::Approximate { error_bound } => frame
            .with("confidence", "approx")
            .with("approx", true)
            .with("error_bound", *error_bound),
        other => frame.with("confidence", other.tag()),
    }
}

/// The answer payload of a result frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// `check` verdict.
    Bool(bool),
    /// `eval` value.
    Int(i64),
}

impl From<Answer> for Value {
    fn from(a: Answer) -> Value {
        match a {
            Answer::Bool(b) => b.into(),
            Answer::Int(i) => i.into(),
        }
    }
}

/// The fields every request-scoped frame opens with.
fn frame(kind: &str, proto: i64, id: &str, trace_id: &str) -> Value {
    Value::object()
        .with("type", kind)
        .with("proto", proto)
        .with("id", id)
        .with("trace_id", trace_id)
}

/// Renders a query result frame. `epoch` is the mutation epoch of the
/// snapshot the query evaluated against; `trace_id` is the
/// server-minted trace identifier of the request.
pub fn result_frame(
    id: &str,
    trace_id: &str,
    mode: Mode,
    answer: Answer,
    epoch: u64,
    micros: u64,
) -> String {
    frame("result", PROTO_VERSION, id, trace_id)
        .with("mode", mode.name())
        .with("value", answer)
        .with("epoch", epoch)
        .with("micros", micros)
        .compact()
}

/// Renders one progressive `partial` frame (proto 2): the answer a
/// completed deepening pass banked, streamed while stronger passes are
/// still running. `micros` is the wall time of that pass alone.
pub fn partial_frame(
    id: &str,
    trace_id: &str,
    mode: Mode,
    pass: &str,
    answer: Answer,
    confidence: &Confidence,
    micros: u64,
) -> String {
    let f = frame("partial", PROTO_PROGRESSIVE, id, trace_id)
        .with("mode", mode.name())
        .with("pass", pass)
        .with("value", answer);
    with_confidence(f, confidence)
        .with("micros", micros)
        .compact()
}

/// Renders the terminal result frame of an anytime request: the
/// best-so-far answer with its confidence tag. `proto` echoes the
/// request's dialect (a forced-anytime proto-1 client still gets a
/// proto-1 frame; the confidence fields are additive).
#[allow(clippy::too_many_arguments)]
pub fn anytime_result_frame(
    proto: i64,
    id: &str,
    trace_id: &str,
    mode: Mode,
    answer: Answer,
    confidence: &Confidence,
    epoch: u64,
    micros: u64,
) -> String {
    let f = frame("result", proto, id, trace_id)
        .with("mode", mode.name())
        .with("value", answer);
    with_confidence(f, confidence)
        .with("epoch", epoch)
        .with("micros", micros)
        .compact()
}

/// Renders a mutation result frame: the epoch now current after the
/// commit (unchanged if the batch was a no-op) and the number of tuples
/// that actually changed.
pub fn update_frame(
    id: &str,
    trace_id: &str,
    mode: Mode,
    epoch: u64,
    changed: usize,
    micros: u64,
) -> String {
    frame("result", PROTO_VERSION, id, trace_id)
        .with("mode", mode.name())
        .with("epoch", epoch)
        .with("changed", changed)
        .with("micros", micros)
        .compact()
}

/// Renders an error frame. `reason` is present only for
/// `class == "interrupted"` (deadline / fuel / cancellation / memory
/// limit).
pub fn error_frame(
    id: &str,
    trace_id: &str,
    class: &str,
    reason: Option<&str>,
    message: &str,
) -> String {
    let mut f = frame("error", PROTO_VERSION, id, trace_id).with("class", class);
    if let Some(r) = reason {
        f = f.with("reason", r);
    }
    f.with("message", message).compact()
}

/// Renders a shed frame (admission refused; retry after the hint).
/// `id` is the client's request id when the refused line parsed far
/// enough to carry one, `"-"` when the whole connection was refused
/// during drain.
pub fn shed_frame(id: &str, trace_id: &str, retry_after_ms: u64) -> String {
    frame("shed", PROTO_VERSION, id, trace_id)
        .with("retry_after_ms", retry_after_ms)
        .compact()
}

/// Renders the drain notice sent before the server closes a stream.
pub fn drained_frame() -> String {
    Value::object()
        .with("type", "drained")
        .with("proto", PROTO_VERSION)
        .compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip_and_clamps() {
        let r = parse_request(
            r##"{"proto":1,"id":"q7","mode":"eval","query":"#(x,y). E(x,y)","timeout_ms":250,"fuel":1000,"mem_limit_bytes":4096,"engine":"cover"}"##,
        )
        .unwrap();
        assert_eq!(r.id, "q7");
        assert_eq!(r.mode, Mode::Eval);
        assert_eq!(r.timeout, Some(Duration::from_millis(250)));
        assert_eq!(r.fuel, Some(1000));
        assert_eq!(r.mem_limit, Some(4096));
        assert_eq!(r.engine, Some(EngineKind::Cover));
    }

    #[test]
    fn update_and_batch_requests_parse() {
        let r = parse_request(
            r#"{"proto":1,"id":"u1","mode":"update","op":"insert","rel":"E","tuple":[3,7]}"#,
        )
        .unwrap();
        assert_eq!(r.mode, Mode::Update);
        assert!(r.mode.is_mutation());
        assert_eq!(
            r.ops,
            vec![UpdateOp {
                insert: true,
                rel: "E".to_string(),
                tuple: vec![3, 7],
            }]
        );

        let r = parse_request(
            r#"{"id":"b1","mode":"batch","ops":[{"op":"insert","rel":"E","tuple":[0,1]},{"op":"delete","rel":"E","tuple":[1,0]}]}"#,
        )
        .unwrap();
        assert_eq!(r.mode, Mode::Batch);
        assert_eq!(r.ops.len(), 2);
        assert!(!r.ops[1].insert);

        let f = parse_request(r#"{"id":"u2","mode":"update","op":"warp","rel":"E","tuple":[1]}"#)
            .unwrap_err();
        assert_eq!(f.class, "bad-request");
        assert!(f.message.contains("unknown op"));
        let f = parse_request(r#"{"id":"b2","mode":"batch","ops":[{"op":"insert","rel":"E"}]}"#)
            .unwrap_err();
        assert!(f.message.contains("ops[0]"));
    }

    #[test]
    fn unknown_proto_versions_are_refused() {
        let f = parse_request(r#"{"proto":3,"id":"v","mode":"check","query":"true"}"#).unwrap_err();
        assert_eq!(f.class, "unsupported_proto");
        assert_eq!(f.id, "v");
        assert!(f.message.contains("proto 1"));
        // Absent proto = proto 1 (pre-versioning clients).
        let r = parse_request(r#"{"id":"v","mode":"check","query":"x = x"}"#).unwrap();
        assert_eq!(r.proto, PROTO_VERSION);
        assert!(!r.anytime);
        let f = parse_request(r#"{"proto":"x","mode":"check","query":"true"}"#).unwrap_err();
        assert_eq!(f.class, "bad-request");
    }

    #[test]
    fn proto_2_negotiates_anytime() {
        let r = parse_request(
            r##"{"proto":2,"id":"a","mode":"eval","query":"#(x). x = x","anytime":true}"##,
        )
        .unwrap();
        assert_eq!(r.proto, PROTO_PROGRESSIVE);
        assert!(r.anytime);
        // Proto 2 without the flag is plain one-frame service.
        let r = parse_request(r#"{"proto":2,"id":"b","mode":"check","query":"true"}"#).unwrap();
        assert!(!r.anytime);
        // The flag without the dialect is a client bug, not a silent
        // downgrade.
        let f = parse_request(r#"{"id":"c","mode":"check","query":"true","anytime":true}"#)
            .unwrap_err();
        assert_eq!(f.class, "bad-request");
        assert!(f.message.contains("proto 2"));
        let f = parse_request(r#"{"proto":2,"id":"d","mode":"check","query":"true","anytime":1}"#)
            .unwrap_err();
        assert!(f.message.contains("boolean"));
    }

    #[test]
    fn progressive_frames_render() {
        let p = partial_frame(
            "q1",
            "t9",
            Mode::Eval,
            "sample",
            Answer::Int(41),
            &Confidence::LowerBound,
            120,
        );
        assert_eq!(
            p,
            "{\"type\":\"partial\",\"proto\":2,\"id\":\"q1\",\"trace_id\":\"t9\",\"mode\":\"eval\",\"pass\":\"sample\",\"value\":41,\"confidence\":\"lower_bound\",\"micros\":120}"
        );
        let r = anytime_result_frame(
            2,
            "q1",
            "t9",
            Mode::Eval,
            Answer::Int(41),
            &Confidence::Partial {
                clusters_done: 3,
                clusters_total: 7,
            },
            5,
            990,
        );
        assert!(r.contains("\"confidence\":\"partial\""));
        assert!(r.contains("\"clusters_done\":3"));
        assert!(r.contains("\"clusters_total\":7"));
        assert!(r.contains("\"proto\":2"));
        let exact = anytime_result_frame(
            1,
            "q2",
            "ta",
            Mode::Check,
            Answer::Bool(true),
            &Confidence::Exact,
            0,
            10,
        );
        assert!(exact.contains("\"confidence\":\"exact\""));
        assert!(exact.contains("\"proto\":1"));
        for f in [&p, &r, &exact] {
            assert!(!f.contains('\n'));
            parse(f).unwrap_or_else(|e| panic!("unparseable {f}: {e}"));
        }
    }

    #[test]
    fn approx_requests_negotiate_like_anytime() {
        let r = parse_request(
            r##"{"proto":2,"id":"e","mode":"eval","query":"#(x,y). E(x,y)","approx":true,"epsilon_milli":50}"##,
        )
        .unwrap();
        assert!(r.approx);
        assert_eq!(r.epsilon, Some(0.05));
        // ε defaults server-side when the field is absent.
        let r = parse_request(
            r##"{"proto":2,"id":"f","mode":"eval","query":"#(x). x = x","approx":true}"##,
        )
        .unwrap();
        assert!(r.approx);
        assert_eq!(r.epsilon, None);
        // The flag needs the progressive dialect, eval mode, and a sane ε.
        let f = parse_request(r##"{"id":"g","mode":"eval","query":"#(x). x = x","approx":true}"##)
            .unwrap_err();
        assert!(f.message.contains("proto 2"));
        let f =
            parse_request(r#"{"proto":2,"id":"h","mode":"check","query":"true","approx":true}"#)
                .unwrap_err();
        assert!(f.message.contains("eval requests only"));
        let f = parse_request(
            r##"{"proto":2,"id":"i","mode":"eval","query":"#(x). x = x","approx":true,"epsilon_milli":0}"##,
        )
        .unwrap_err();
        assert!(f.message.contains("1..=1000"));
        let f = parse_request(
            r##"{"proto":2,"id":"j","mode":"eval","query":"#(x). x = x","epsilon_milli":100}"##,
        )
        .unwrap_err();
        assert!(f.message.contains("requires \"approx\""));
    }

    #[test]
    fn approx_frames_flag_the_estimate_and_its_bound() {
        let r = anytime_result_frame(
            2,
            "q9",
            "tb",
            Mode::Eval,
            Answer::Int(870),
            &Confidence::Approximate { error_bound: 90 },
            0,
            44,
        );
        assert_eq!(
            r,
            "{\"type\":\"result\",\"proto\":2,\"id\":\"q9\",\"trace_id\":\"tb\",\"mode\":\"eval\",\"value\":870,\"confidence\":\"approx\",\"approx\":true,\"error_bound\":90,\"epoch\":0,\"micros\":44}"
        );
        let p = partial_frame(
            "q9",
            "tb",
            Mode::Eval,
            "approx",
            Answer::Int(870),
            &Confidence::Approximate { error_bound: 90 },
            21,
        );
        assert!(p.contains("\"pass\":\"approx\""));
        assert!(p.contains("\"approx\":true,\"error_bound\":90"));
        for f in [&r, &p] {
            assert!(!f.contains('\n'));
            parse(f).unwrap_or_else(|e| panic!("unparseable {f}: {e}"));
        }
    }

    #[test]
    fn bad_requests_keep_the_id_when_parseable() {
        let f = parse_request(r#"{"id":"x","mode":"warp","query":"true"}"#).unwrap_err();
        assert_eq!(f.id, "x");
        assert_eq!(f.class, "bad-request");
        assert!(f.message.contains("unknown mode"));
        let f = parse_request("not json").unwrap_err();
        assert_eq!(f.id, "-");
        let f = parse_request(r#"{"mode":"check"}"#).unwrap_err();
        assert!(f.message.contains("query"));
    }

    #[test]
    fn frames_are_single_line_json() {
        let frames = [
            result_frame("a", "t1", Mode::Check, Answer::Bool(true), 0, 12),
            result_frame("b", "t2", Mode::Eval, Answer::Int(-3), 4, 7),
            update_frame("u", "t3", Mode::Update, 5, 2, 9),
            error_frame(
                "c",
                "t4",
                "interrupted",
                Some("deadline"),
                "interrupted by deadline",
            ),
            error_frame("d\"e", "t5", "panic", None, "boom"),
            shed_frame("s", "t6", 50),
            drained_frame(),
        ];
        for f in &frames {
            assert!(!f.contains('\n'), "frame must be one line: {f}");
            let v = parse(f).unwrap_or_else(|e| panic!("unparseable {f}: {e}"));
            assert!(v.get("type").is_some());
            assert_eq!(
                v.get("proto").and_then(Value::as_i64),
                Some(PROTO_VERSION),
                "every frame carries the protocol version: {f}"
            );
        }
        // Every frame except the connection-level drain notice carries
        // the request's trace_id.
        for f in &frames[..frames.len() - 1] {
            let v = parse(f).unwrap();
            assert!(
                v.get("trace_id").and_then(Value::as_str).is_some(),
                "request-scoped frames carry trace_id: {f}"
            );
        }
        assert_eq!(
            frames[0],
            "{\"type\":\"result\",\"proto\":1,\"id\":\"a\",\"trace_id\":\"t1\",\"mode\":\"check\",\"value\":true,\"epoch\":0,\"micros\":12}"
        );
        assert_eq!(
            frames[2],
            "{\"type\":\"result\",\"proto\":1,\"id\":\"u\",\"trace_id\":\"t3\",\"mode\":\"update\",\"epoch\":5,\"changed\":2,\"micros\":9}"
        );
    }

    #[test]
    fn fractions_are_refused_by_the_integer_fields() {
        // The reader accepts `1.5`; the protocol's integer accessor
        // refuses it wherever an integer is due.
        let f = parse_request("1.5").unwrap_err();
        assert_eq!(f.class, "bad-request");
        let f = parse_request(r#"{"id":"t","mode":"check","query":"true","timeout_ms":1.5}"#)
            .unwrap_err();
        assert_eq!(f.class, "bad-request");
        assert_eq!(f.id, "t");
        assert!(f.message.contains("timeout_ms"));
    }

    /// Wire bytes pinned against the frames of the hand-assembled
    /// writers this crate used before the shared JSON layer: clients and
    /// log scrapers see byte-identical frames.
    #[test]
    fn wire_bytes_match_the_golden_frames() {
        use foc_obs::{names, AttrValue, FinishedSpan, Metrics};
        let span = FinishedSpan {
            id: 1,
            parent: Some(0),
            name: "eval",
            start_nanos: 2_500,
            dur_nanos: 7_900,
            attrs: vec![
                ("radius", AttrValue::Int(2)),
                ("note", AttrValue::Text("a \"b\"\tc".into())),
            ],
        };
        let tc = foc_guard::TraceContext::new("00000000000000a1-5", "t\\1");
        let m = Metrics::new();
        m.counter(names::SERVE_REQUESTS).add(120);
        m.counter(names::RECOVERY_REPLAYED).add(3);
        let live = crate::server::LiveStats {
            uptime_micros: 1_500_000,
            inflight: 3,
            cache_hit_rate: 0.75,
            wal: Some((0, 0)),
            ..Default::default()
        };
        let approx = Confidence::Approximate { error_bound: 90 };
        let msg = "interrupted by deadline in phase engine\n(after 50 ms)";
        let cases = [
            (
                result_frame(
                    "r1",
                    "00000000000000a1-1",
                    Mode::Eval,
                    Answer::Int(1560),
                    3,
                    1834,
                ),
                r##"{"type":"result","proto":1,"id":"r1","trace_id":"00000000000000a1-1","mode":"eval","value":1560,"epoch":3,"micros":1834}"##,
            ),
            (
                anytime_result_frame(
                    2,
                    "q\"9",
                    "00000000000000a1-2",
                    Mode::Eval,
                    Answer::Int(870),
                    &approx,
                    4,
                    44,
                ),
                r##"{"type":"result","proto":2,"id":"q\"9","trace_id":"00000000000000a1-2","mode":"eval","value":870,"confidence":"approx","approx":true,"error_bound":90,"epoch":4,"micros":44}"##,
            ),
            (
                error_frame(
                    "e1",
                    "00000000000000a1-3",
                    "interrupted",
                    Some("deadline"),
                    msg,
                ),
                r##"{"type":"error","proto":1,"id":"e1","trace_id":"00000000000000a1-3","class":"interrupted","reason":"deadline","message":"interrupted by deadline in phase engine\n(after 50 ms)"}"##,
            ),
            (
                shed_frame("s1", "00000000000000a1-4", 57),
                r##"{"type":"shed","proto":1,"id":"s1","trace_id":"00000000000000a1-4","retry_after_ms":57}"##,
            ),
            (
                crate::trace::trace_line(
                    &tc,
                    "eval",
                    "#(x). E(x,\"y\")",
                    7,
                    42,
                    "slow",
                    "tail",
                    &[span],
                ),
                r##"{"trace_id":"00000000000000a1-5","request_id":"t\\1","mode":"eval","query":"#(x). E(x,\"y\")","epoch":7,"micros":42,"outcome":"slow","sampled":"tail","spans":[{"span":"eval","id":1,"parent":0,"start_micros":2,"dur_micros":7,"attrs":{"radius":2,"note":"a \"b\"\tc"}}]}"##,
            ),
            (
                live.to_json(&m.snapshot()),
                r##"{"uptime_micros":1500000,"inflight":3,"queue_depth":0,"draining":false,"pressure":0,"epoch":0,"requests":120,"shed":0,"errors":0,"interrupted":0,"slow_queries":0,"traces_kept":0,"postmortems":0,"cache_entries":0,"cache_bytes":0,"cache_hit_rate":0.7500,"resident_bytes":0,"peak_resident_bytes":0,"wal_enabled":true,"wal_readonly":false,"wal_last_sync_age_micros":0,"wal_bytes_since_checkpoint":0,"wal_appends":0,"wal_checkpoints":0,"frames_oversized":0,"recovery_replayed":3}"##,
            ),
        ];
        for (got, want) in &cases {
            assert_eq!(got, want);
        }
    }
}
