//! perfbench — the repository's seeded end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <query-large|query-cover|serve-mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed by the benchmark's own code and
//! reach the program as `.foc` text. Every answer is checked against an
//! oracle computed directly from the generated data. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it records the
//! host and the inputs. A traced run also writes its spans and their
//! per-layer fold to `perfbench/out/trace-<workload>-<seed>.json`.

mod direct;
mod gen;
mod json;
mod layers;
mod oracle;
mod queries;
mod query_wl;
mod rng;
mod serve_wl;
mod stats;
mod trace;

use json::J;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Host-independent facts about the inputs and sample counts.
    pub info: Vec<(&'static str, J)>,
    /// The spans of a traced run.
    pub trace: Option<trace::Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "query-large" => query_wl::run(query_wl::Kind::Large, args.seed, args.seconds, args.trace),
        "query-cover" => query_wl::run(query_wl::Kind::Cover, args.seed, args.seconds, args.trace),
        "serve-mixed" => match serve_wl::run(args.seed, args.seconds, args.trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: serve-mixed: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut info = vec![
        ("workload", J::str(args.workload.clone())),
        ("trace", J::Bool(args.trace)),
        ("seconds", J::Int(args.seconds as i64)),
        ("cpus", J::Int(stats::cpus() as i64)),
        ("rev", J::str(stats::git_rev())),
    ];
    info.extend(outcome.info);
    if let Some(tracer) = &outcome.trace {
        let path = format!("perfbench/out/trace-{}-{}.json", args.workload, args.seed);
        let doc = tracer.to_json(info.clone()).render();
        if let Err(e) =
            std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, doc))
        {
            eprintln!("perfbench: cannot write {path}: {e}");
            std::process::exit(1);
        }
        info.push(("trace_file", J::str(path)));
    }
    let expected = if args.trace {
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    assert!(
        outcome.metrics.len() == expected.len()
            && outcome
                .metrics
                .iter()
                .zip(expected)
                .all(|(m, &(n, u))| m.name == n && m.unit == u),
        "the {} run must report exactly the listed metrics",
        args.workload
    );
    for m in &outcome.metrics {
        eprintln!("perfbench: {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", J::obj(vec![("info", J::obj(info))]).render());
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                J::obj(vec![("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
            )
        })
        .collect();
    let result = J::obj(vec![
        ("correct", J::Bool(outcome.correct)),
        ("attempted", J::Int(outcome.attempted as i64)),
        ("failed", J::Int(outcome.failed as i64)),
        ("metrics", J::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
