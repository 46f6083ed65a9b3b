//! E12 — the thread sweep of the parallel cluster scheduler: evaluating
//! cover-engine workloads at threads ∈ {1, 2, 4, 8}, verifying bit-identical
//! results against the single-threaded run, and recording wall-clock
//! speedups plus the engine's structured metrics.
//!
//! Besides the markdown table, this experiment writes `BENCH_parallel.json`
//! to the current directory: a machine-readable record with one entry per
//! (workload, thread-count) cell and a top-level `cpus` field so the
//! speedup numbers can be judged against the hardware they were measured
//! on (on a single-CPU host the sweep measures scheduling overhead, not
//! speedup — the JSON says so rather than hiding it).

use std::time::Instant;

use foc_core::{EngineKind, Evaluator};
use foc_logic::parse::{parse_formula, parse_term};
use foc_obs::json::Value;
use foc_structures::gen::{bounded_degree, grid, random_tree};
use foc_structures::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fmt_duration, Table};

/// Thread counts swept by E12.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Workload {
    label: &'static str,
    structure: Structure,
    /// `Ok` = ground term, `Err` = sentence (sign carries the answer type).
    term: Option<std::sync::Arc<foc_logic::Term>>,
    sentence: Option<std::sync::Arc<foc_logic::Formula>>,
}

fn workloads(quick: bool) -> Vec<Workload> {
    let n: u32 = if quick { 2_000 } else { 8_000 };
    let side = (n as f64).sqrt().round() as u32;
    let mut rng = StdRng::seed_from_u64(12);
    let tree = random_tree(n, &mut rng);
    let mut rng = StdRng::seed_from_u64(13);
    let deg3 = bounded_degree(n, 3, 3 * n as usize, &mut rng);
    vec![
        Workload {
            label: "grid: far pairs",
            structure: grid(side, side),
            term: Some(parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap()),
            sentence: None,
        },
        Workload {
            label: "tree: deg-1 pairs",
            structure: tree,
            term: Some(parse_term("#(x,y). (E(x,y) & #(z). E(y,z) = 1)").unwrap()),
            sentence: None,
        },
        Workload {
            label: "deg≤3: parity sentence",
            structure: deg3,
            term: None,
            sentence: Some(parse_formula("@even(#(x,y). !(dist(x,y) <= 2))").unwrap()),
        },
    ]
}

/// One measured cell of the sweep, including the session's metrics
/// snapshot (counters plus per-phase wall time) so the JSON record can
/// explain *where* a cell's time went, not just how long it took.
struct Cell {
    workload: &'static str,
    order: u32,
    threads: usize,
    secs: f64,
    speedup: f64,
    identical: bool,
    clusters: u64,
    covers_built: u64,
    removals: u64,
    peak_cluster: u32,
    cache_hits: u64,
    cache_misses: u64,
    balls: u64,
    materialize_micros: u64,
    decompose_micros: u64,
    cover_micros: u64,
    eval_micros: u64,
}

fn run_cell(w: &Workload, threads: usize, baseline: Option<&(i64, f64)>) -> (i64, Cell) {
    let ev = Evaluator::builder()
        .kind(EngineKind::Cover)
        .threads(threads)
        .build()
        .unwrap();
    let mut session = ev.session(&w.structure);
    let t0 = Instant::now();
    let value = match (&w.term, &w.sentence) {
        (Some(t), _) => session.eval_ground(t).unwrap(),
        (None, Some(f)) => session.check_sentence(f).unwrap() as i64,
        _ => unreachable!("workload has neither term nor sentence"),
    };
    let secs = t0.elapsed().as_secs_f64();
    let stats = session.stats();
    let cell = Cell {
        workload: w.label,
        order: w.structure.order(),
        threads,
        secs,
        speedup: baseline.map_or(1.0, |(_, base)| base / secs.max(1e-12)),
        identical: baseline.is_none_or(|(v, _)| *v == value),
        clusters: stats.clusters,
        covers_built: stats.covers_built,
        removals: stats.removals,
        peak_cluster: stats.peak_cluster,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        balls: stats.balls,
        materialize_micros: stats.phase.materialize.as_micros() as u64,
        decompose_micros: stats.phase.decompose.as_micros() as u64,
        cover_micros: stats.phase.cover.as_micros() as u64,
        eval_micros: stats.phase.eval.as_micros() as u64,
    };
    (value, cell)
}

fn emit_json(cells: &[Cell], quick: bool) -> String {
    let cell = |c: &Cell| {
        Value::object()
            .with("workload", c.workload)
            .with("order", c.order)
            .with("threads", c.threads)
            .with("seconds", Value::fixed(c.secs, 6))
            .with("speedup_vs_1", Value::fixed(c.speedup, 3))
            .with("identical_to_sequential", c.identical)
            .with("clusters", c.clusters)
            .with("covers_built", c.covers_built)
            .with("removals", c.removals)
            .with("peak_cluster", c.peak_cluster)
            .with("cache_hits", c.cache_hits)
            .with("cache_misses", c.cache_misses)
            .with("balls", c.balls)
            .with(
                "phases_micros",
                Value::object()
                    .with("materialize", c.materialize_micros)
                    .with("decompose", c.decompose_micros)
                    .with("cover", c.cover_micros)
                    .with("eval", c.eval_micros),
            )
    };
    Value::object()
        .with("experiment", "E12 parallel cluster evaluation")
        .with("engine", "cover")
        .with("cpus", foc_parallel::available_threads())
        .with("quick", quick)
        .with(
            "note",
            "speedup is wall-clock vs threads=1 on this host; with cpus=1 the sweep can only measure scheduling overhead",
        )
        .with("cells", cells.iter().map(cell).collect::<Value>())
        .pretty()
}

/// E12: the thread sweep. Returns the markdown table and writes
/// `BENCH_parallel.json` beside the working directory.
pub fn e12(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E12: parallel cluster evaluation (Cover engine) — thread sweep",
        &[
            "workload",
            "n",
            "threads",
            "time",
            "speedup",
            "identical",
            "clusters",
            "peak",
            "cache h/m",
        ],
    );
    let mut cells = Vec::new();
    for w in workloads(quick) {
        let mut baseline: Option<(i64, f64)> = None;
        for threads in THREADS {
            let (value, cell) = run_cell(&w, threads, baseline.as_ref());
            t.row(vec![
                w.label.into(),
                cell.order.to_string(),
                threads.to_string(),
                fmt_duration(std::time::Duration::from_secs_f64(cell.secs)),
                format!("{:.2}×", cell.speedup),
                if cell.identical {
                    "✓".into()
                } else {
                    "✗".into()
                },
                cell.clusters.to_string(),
                cell.peak_cluster.to_string(),
                format!("{}/{}", cell.cache_hits, cell.cache_misses),
            ]);
            if baseline.is_none() {
                baseline = Some((value, cell.secs));
            }
            cells.push(cell);
        }
    }
    assert!(
        cells.iter().all(|c| c.identical),
        "parallel results must be bit-identical"
    );
    let json = emit_json(&cells, quick);
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => t.note("wrote BENCH_parallel.json".to_string()),
        Err(e) => t.note(format!("could not write BENCH_parallel.json: {e}")),
    }
    t.note(format!(
        "host has {} hardware thread(s); speedups are wall-clock vs threads=1 on this host.",
        foc_parallel::available_threads()
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_well_formed() {
        let cells = vec![Cell {
            workload: "w",
            order: 10,
            threads: 2,
            secs: 0.5,
            speedup: 1.9,
            identical: true,
            clusters: 7,
            covers_built: 2,
            removals: 4,
            peak_cluster: 3,
            cache_hits: 1,
            cache_misses: 2,
            balls: 11,
            materialize_micros: 100,
            decompose_micros: 20,
            cover_micros: 30,
            eval_micros: 80,
        }];
        let json = emit_json(&cells, true);
        assert!(json.contains("\"cpus\""));
        assert!(json.contains("\"speedup_vs_1\": 1.900"));
        assert!(json.contains("\"identical_to_sequential\": true"));
        assert!(json.contains("\"phases_micros\""));
        assert!(json.contains("\"balls\": 11"));
        let doc = foc_obs::json::parse(&json).expect("the document parses");
        let Some(Value::Array(cells)) = doc.get("cells") else {
            panic!("no cells array: {json}");
        };
        assert_eq!(cells[0].get("speedup_vs_1"), Some(&Value::fixed(1.9, 3)));
        // Balanced braces/brackets — a cheap well-formedness proxy; the
        // parse below is the full check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sweep_runs_and_agrees_on_tiny_inputs() {
        let w = Workload {
            label: "tiny grid",
            structure: grid(8, 8),
            term: Some(parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap()),
            sentence: None,
        };
        let (v1, c1) = run_cell(&w, 1, None);
        let (v2, c2) = run_cell(&w, 4, Some(&(v1, c1.secs)));
        assert_eq!(v1, v2);
        assert!(c2.identical);
        assert!(c2.clusters > 0);
    }
}
