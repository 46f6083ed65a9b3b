//! E13 — the service mode under load: a seeded loopback stress run
//! against `foc-serve`, measuring throughput, tail latency, load
//! shedding, and the resident-byte watermark, followed by a graceful
//! drain.
//!
//! Besides the markdown table, this experiment writes `BENCH_serve.json`
//! to the current directory: one machine-readable record per
//! concurrency level plus the drain report. On a single-CPU host the
//! concurrency sweep measures queueing, not parallel speedup — the JSON
//! carries a `note` saying so rather than hiding it.
//!
//! A second section measures the cost of observability itself: the same
//! seeded load with telemetry fully off (no tracing, no listener)
//! versus fully on (request tracing, tail sampling, and a live
//! `/metrics` + `/stats` scraper polling throughout the run). The
//! on/off pair and their throughput ratio land in
//! `BENCH_telemetry.json`.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use foc_core::EngineKind;
use foc_obs::json::{parse, Value};
use foc_obs::names;
use foc_serve::{start, ServerConfig};
use foc_structures::gen::grid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// The deterministic request pool: a mix of cheap checks and heavier
/// counting terms over the grid, all well-formed (failures measured by
/// E13 are sheds, not errors).
const QUERIES: [(&str, &str); 4] = [
    ("check", "exists x. exists y. E(x,y)"),
    ("check", "@even(#(x). exists y. E(x,y))"),
    ("eval", "#(x,y). E(x,y)"),
    ("eval", "#(x). exists y. E(x,y)"),
];

/// How much observability machinery a stress cell runs with.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Telemetry {
    /// Tracing disabled, no listener — the PR 6 fast path.
    Off,
    /// Tracing + tail sampling on, telemetry listener bound, and a
    /// scraper thread polling `/metrics` and `/stats` during the run.
    On,
}

struct LoadCell {
    clients: usize,
    requests: usize,
    served: u64,
    shed: u64,
    errors: u64,
    secs: f64,
    p50_micros: u64,
    p99_micros: u64,
    peak_resident: u64,
    drain_interrupted: u64,
    drain_micros: u64,
    traces_kept: u64,
    scrapes: u64,
}

impl LoadCell {
    fn throughput(&self) -> f64 {
        self.served as f64 / self.secs.max(1e-9)
    }
}

/// One blocking HTTP GET against the telemetry listener; returns true
/// when a 200 came back.
fn scrape(addr: std::net::SocketAddr, path: &str) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    if write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").is_err() {
        return false;
    }
    let mut raw = String::new();
    stream.read_to_string(&mut raw).ok();
    raw.starts_with("HTTP/1.1 200")
}

/// Runs one stress cell: `clients` concurrent connections, each sending
/// `per_client` seeded requests back-to-back, against a fresh server.
fn run_cell(
    seed: u64,
    side: u32,
    clients: usize,
    per_client: usize,
    telemetry: Telemetry,
) -> LoadCell {
    let handle = start(
        grid(side, side),
        ServerConfig {
            max_inflight: 4,
            queue: 8,
            engine: EngineKind::Local,
            max_timeout: Duration::from_secs(30),
            tracing: telemetry == Telemetry::On,
            trace_sample: 16,
            telemetry_addr: match telemetry {
                Telemetry::On => Some("127.0.0.1:0".to_string()),
                Telemetry::Off => None,
            },
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = handle.addr();

    // With telemetry on, a scraper hammers the second socket for the
    // whole run — the overhead measured is "observed in production",
    // not just "tracing compiled in".
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = handle.telemetry_addr().map(|taddr| {
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                scrape(taddr, "/metrics");
                scrape(taddr, "/stats");
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    });

    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37));
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut latencies = Vec::with_capacity(per_client);
                let (mut served, mut shed, mut errors) = (0u64, 0u64, 0u64);
                for i in 0..per_client {
                    let (mode, query) = QUERIES[rng.gen_range(0..QUERIES.len())];
                    let req = Value::object()
                        .with("id", format!("c{c}-{i}"))
                        .with("mode", mode)
                        .with("query", query);
                    let t = Instant::now();
                    writeln!(writer, "{req}").expect("send");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("recv");
                    let micros = t.elapsed().as_micros() as u64;
                    let reply = parse(&line).unwrap_or(Value::Null);
                    match reply.get("type").and_then(Value::as_str) {
                        Some("result") => {
                            served += 1;
                            latencies.push(micros);
                        }
                        Some("shed") => shed += 1,
                        _ => errors += 1,
                    }
                }
                (latencies, served, shed, errors)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let (mut served, mut shed, mut errors) = (0u64, 0u64, 0u64);
    for w in workers {
        let (l, s, sh, e) = w.join().expect("client thread");
        latencies.extend(l);
        served += s;
        shed += sh;
        errors += e;
    }
    let secs = t0.elapsed().as_secs_f64();
    scrape_stop.store(true, Ordering::Relaxed);
    if let Some(s) = scraper {
        s.join().expect("scraper thread");
    }
    let peak_resident = handle.peak_resident_bytes();
    let report = handle.drain();
    // The server counts sheds too; the client-side tally is the ground
    // truth for the cell, the counter must agree.
    debug_assert_eq!(report.final_metrics.counter(names::SERVE_SHED), shed);

    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[(latencies.len() * p / 100).min(latencies.len() - 1)]
        }
    };
    LoadCell {
        clients,
        requests: clients * per_client,
        served,
        shed,
        errors,
        secs,
        p50_micros: pct(50),
        p99_micros: pct(99),
        peak_resident,
        drain_interrupted: report.interrupted,
        drain_micros: report.drain.as_micros() as u64,
        traces_kept: report.final_metrics.counter(names::SERVE_TRACES_KEPT),
        scrapes: report.final_metrics.counter(names::SERVE_TELEMETRY_SCRAPES),
    }
}

/// The fields a stress cell shares between `BENCH_serve.json` and
/// `BENCH_telemetry.json`, up to the latency pair.
fn load_fields(cell: Value, c: &LoadCell) -> Value {
    cell.with("clients", c.clients)
        .with("requests", c.requests)
        .with("served", c.served)
        .with("shed", c.shed)
}

fn latency(c: &LoadCell) -> Value {
    Value::object()
        .with("p50", c.p50_micros)
        .with("p99", c.p99_micros)
}

fn emit_json(cells: &[LoadCell], quick: bool) -> String {
    let cell = |c: &LoadCell| {
        load_fields(Value::object(), c)
            .with("errors", c.errors)
            .with("seconds", Value::fixed(c.secs, 6))
            .with("throughput_rps", Value::fixed(c.throughput(), 3))
            .with("latency_micros", latency(c))
            .with("peak_resident_bytes", c.peak_resident)
            .with(
                "drain",
                Value::object()
                    .with("interrupted", c.drain_interrupted)
                    .with("micros", c.drain_micros),
            )
    };
    Value::object()
        .with("experiment", "E13 service mode under load")
        .with("engine", "local")
        .with("cpus", foc_parallel::available_threads())
        .with("quick", quick)
        .with(
            "note",
            "loopback stress with max_inflight=4, queue=8; on a 1-CPU host the client sweep measures queueing and shedding, not parallel speedup",
        )
        .with("cells", cells.iter().map(cell).collect::<Value>())
        .pretty()
}

fn emit_telemetry_json(off: &LoadCell, on: &LoadCell, quick: bool) -> String {
    let ratio = on.throughput() / off.throughput().max(1e-9);
    let cell = |label: &str, c: &LoadCell| {
        load_fields(Value::object().with("telemetry", label), c)
            .with("seconds", Value::fixed(c.secs, 6))
            .with("throughput_rps", Value::fixed(c.throughput(), 3))
            .with("latency_micros", latency(c))
            .with("traces_kept", c.traces_kept)
            .with("scrapes", c.scrapes)
    };
    Value::object()
        .with("experiment", "E13b telemetry overhead")
        .with("engine", "local")
        .with("cpus", foc_parallel::available_threads())
        .with("quick", quick)
        .with(
            "note",
            "same seeded load with telemetry fully off vs fully on (tracing + tail sampling + a live /metrics + /stats scraper); on-vs-off throughput ratio below 1.0 is the observability tax",
        )
        .with("on_off_throughput_ratio", Value::fixed(ratio, 4))
        .with("cells", Value::Array(vec![cell("off", off), cell("on", on)]))
        .pretty()
}

/// E13: the loopback stress run. Returns the markdown tables and writes
/// `BENCH_serve.json` plus `BENCH_telemetry.json` to the working
/// directory.
pub fn e13(quick: bool) -> Vec<Table> {
    let side: u32 = if quick { 12 } else { 24 };
    let per_client: usize = if quick { 20 } else { 60 };
    let mut t = Table::new(
        "E13: service mode under load (loopback, max_inflight=4, queue=8)",
        &[
            "clients",
            "requests",
            "served",
            "shed",
            "errors",
            "rps",
            "p50 µs",
            "p99 µs",
            "peak bytes",
            "drain",
        ],
    );
    let mut cells = Vec::new();
    for clients in [1usize, 4, 16] {
        let cell = run_cell(42, side, clients, per_client, Telemetry::Off);
        assert_eq!(cell.errors, 0, "well-formed requests must not error");
        assert_eq!(
            cell.served + cell.shed,
            cell.requests as u64,
            "every request is answered exactly once"
        );
        assert_eq!(cell.drain_interrupted, 0, "idle drain must be clean");
        t.row(vec![
            cell.clients.to_string(),
            cell.requests.to_string(),
            cell.served.to_string(),
            cell.shed.to_string(),
            cell.errors.to_string(),
            format!("{:.0}", cell.throughput()),
            cell.p50_micros.to_string(),
            cell.p99_micros.to_string(),
            cell.peak_resident.to_string(),
            format!("{}µs", cell.drain_micros),
        ]);
        cells.push(cell);
    }
    let json = emit_json(&cells, quick);
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }

    // E13b: the observability tax. Same seeded load at the middle
    // concurrency, telemetry fully off vs fully on (with a scraper
    // polling the second socket throughout).
    let mut tt = Table::new(
        "E13b: telemetry overhead (4 clients, tracing + live scraper vs off)",
        &[
            "telemetry",
            "served",
            "shed",
            "rps",
            "p50 µs",
            "p99 µs",
            "traces",
            "scrapes",
        ],
    );
    let off = run_cell(42, side, 4, per_client, Telemetry::Off);
    let on = run_cell(42, side, 4, per_client, Telemetry::On);
    for (label, cell) in [("off", &off), ("on", &on)] {
        assert_eq!(cell.errors, 0, "well-formed requests must not error");
        tt.row(vec![
            label.to_string(),
            cell.served.to_string(),
            cell.shed.to_string(),
            format!("{:.0}", cell.throughput()),
            cell.p50_micros.to_string(),
            cell.p99_micros.to_string(),
            cell.traces_kept.to_string(),
            cell.scrapes.to_string(),
        ]);
    }
    assert_eq!(off.traces_kept, 0, "telemetry off must keep no traces");
    assert!(on.scrapes > 0, "the scraper must have reached /metrics");
    let json = emit_telemetry_json(&off, &on, quick);
    match std::fs::write("BENCH_telemetry.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_telemetry.json"),
        Err(e) => eprintln!("could not write BENCH_telemetry.json: {e}"),
    }
    vec![t, tt]
}
