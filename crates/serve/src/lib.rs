//! # foc-serve — the resilient query-serving mode
//!
//! A dependency-free JSON-lines TCP server over one resident
//! [`foc_structures::Structure`]: load once, evaluate FOC1(P) queries
//! from concurrent clients, survive the queries that misbehave.
//!
//! The robustness machinery of the earlier layers is composed here into
//! a long-running process:
//!
//! * **Admission control** — a bounded in-flight limit plus a bounded
//!   wait queue; beyond both, requests are *shed* with a structured
//!   `retry_after_ms` frame instead of queueing unboundedly
//!   ([`server::Gate`] internals, [`protocol::shed_frame`]);
//! * **Per-request budgets** — request-supplied deadline/fuel clamped
//!   by server-wide caps and armed as a [`foc_guard::Budget`], with the
//!   drain [`foc_guard::CancelToken`] threaded through every guard;
//! * **Panic isolation** — each evaluation runs under
//!   [`foc_parallel::run_isolated`]; a poisoned query is one error
//!   frame, not a dead server;
//! * **Memory watermark** — structure bytes and shared-cache occupancy
//!   are mirrored into a [`foc_guard::MemoryMeter`]; over the limit the
//!   server walks shrink-cache → stop-caching → shed, and requests can
//!   carry their own byte cap that trips
//!   [`foc_guard::TripReason::Memory`];
//! * **Graceful drain** — stop accepting, shed the queue, finish
//!   in-flight work against a drain deadline, cancel the stragglers,
//!   join every thread, flush metrics ([`server::ServerHandle::drain`]);
//! * **Request-scoped tracing** — every request is stamped with a
//!   server-minted `trace_id` (echoed on each of its frames), its span
//!   tree is captured while it runs, and a *tail-based* sampler keeps
//!   the full trace of every request that erred, panicked, was
//!   interrupted, or ran slow, plus a seeded 1-in-N of the healthy
//!   rest (the `trace` module internals, `ServerConfig::tracing`);
//! * **Telemetry listener** — a second socket answering `GET /metrics`
//!   (Prometheus text exposition), `/healthz` (drain- and
//!   pressure-aware), and `/stats` (live JSON) without touching the
//!   admission gate (the `telemetry` module internals,
//!   `ServerConfig::telemetry_addr`);
//! * **Flight recorder** — a fixed-capacity ring of recent span
//!   closures and events, dumped to a postmortem JSON file on worker
//!   panic, drain-deadline interruption, or watermark escalation to
//!   the shed rung (`ServerConfig::postmortem_dir`);
//! * **Anytime evaluation** — proto-2 requests with `"anytime":true`
//!   run through the deepening driver ([`foc_core::anytime`]): each
//!   completed pass streams a `partial` frame and the terminal result
//!   carries a confidence tag (`exact` / `lower_bound` / `partial`),
//!   so a tripped budget returns the best-so-far answer instead of an
//!   `interrupted` error. The memory-pressure ladder also *forces*
//!   anytime mode one rung before shedding — degraded answers beat
//!   refusals;
//! * **Crash-safe durability** — with `ServerConfig::wal_dir` set,
//!   every effective commit is appended to a [`foc_wal`] write-ahead
//!   log and made durable per [`foc_wal::FsyncPolicy`] *before* the
//!   result frame is emitted (an acknowledged update survives
//!   `kill -9`); startup recovers the directory — checkpoint restore,
//!   torn-tail truncation, fingerprint-verified replay — and refuses
//!   to serve a diverged state. A WAL write failure rolls the commit
//!   back and degrades the server to read-only (structured
//!   `read-only` frames, `/healthz` 503), a second failure drains;
//!   request lines beyond `ServerConfig::max_frame_bytes` are answered
//!   with a structured `bad-request` frame without buffering them.
//!
//! The wire protocol is one JSON object per line in each direction; see
//! [`protocol`].

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod protocol;
pub mod server;
mod telemetry;
mod trace;

pub use protocol::{parse_request, Answer, Mode, Request, PROTO_PROGRESSIVE, PROTO_VERSION};
pub use server::{start, DrainReport, ServerConfig, ServerHandle};
