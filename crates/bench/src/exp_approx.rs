//! E16 — approximate counting: speedup versus epsilon, bound always kept.
//!
//! The `(ε, δ)` estimator promises two things at once: the estimate of a
//! ground counting term is within `⌈ε·n^k⌉` of the truth with
//! probability `1 − δ`, and the work to get it is a fixed Hoeffding
//! sample size `m = ⌈ln(2/δ)/(2ε²)⌉` — independent of how big the
//! assignment space is. This experiment measures both halves on the
//! dense generator families where exact enumeration hurts most: the
//! clique `K_n` (edge and triangle counts, assignment spaces `n²` and
//! `n³`) and a dense `G(n, m)` random graph.
//!
//! For each family and each ε in a decreasing-precision sweep the
//! harness runs the seeded estimator next to two exact engines (naive
//! and local) and records the speedup against the *faster* exact run.
//! Two properties are asserted on every run, quick or full:
//!
//! * **accuracy contract** — every estimate is within its claimed
//!   `error_bound` of the exact value (the seeded estimator either
//!   honours its bound deterministically or the run panics);
//! * **speedup contract** — at ε = 0.1 the estimator beats the fastest
//!   exact engine on at least one dense family.
//!
//! Besides the markdown table, the experiment writes
//! `BENCH_approx.json`: one record per (family, ε) cell plus a summary
//! with the contract outcomes.

use std::sync::Arc;
use std::time::Instant;

use foc_core::{ApproxConfig, EngineKind, Evaluator};
use foc_logic::build::{and_all, atom, cnt, v};
use foc_logic::Term;
use foc_obs::json::Value;
use foc_structures::gen::{clique, gnm};
use foc_structures::Structure;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::Table;

/// The ε sweep: tight to loose. 0.1 is the rung the speedup contract
/// is asserted at.
const EPSILONS: [f64; 3] = [0.05, 0.1, 0.2];

struct Family {
    name: &'static str,
    structure: Structure,
    query: Arc<Term>,
}

struct Cell {
    family: &'static str,
    order: u32,
    epsilon: f64,
    exact: i64,
    estimate: i64,
    error_bound: u64,
    samples: u64,
    exhaustive: bool,
    approx_us: u64,
    naive_us: u64,
    local_us: u64,
    speedup: f64,
}

fn edge_count() -> Arc<Term> {
    let x = v("e16x");
    let y = v("e16y");
    cnt([x, y], atom("E", [x, y]))
}

fn triangle_count() -> Arc<Term> {
    let x = v("e16x");
    let y = v("e16y");
    let z = v("e16z");
    cnt(
        [x, y, z],
        and_all([atom("E", [x, y]), atom("E", [y, z]), atom("E", [z, x])]),
    )
}

fn families(quick: bool) -> Vec<Family> {
    let (kn, gn, gm) = if quick {
        (80, 120, 3_000)
    } else {
        (240, 400, 20_000)
    };
    let mut rng = StdRng::seed_from_u64(16);
    vec![
        Family {
            name: "clique-edges",
            structure: clique(kn),
            query: edge_count(),
        },
        Family {
            name: "clique-triangles",
            structure: clique(kn),
            query: triangle_count(),
        },
        Family {
            name: "gnm-edges",
            structure: gnm(gn, gm, &mut rng),
            query: edge_count(),
        },
    ]
}

fn exact_micros(kind: EngineKind, a: &Structure, q: &Arc<Term>) -> (i64, u64) {
    let ev = Evaluator::builder()
        .kind(kind)
        .build()
        .expect("an unbudgeted exact engine is a valid configuration");
    let t0 = Instant::now();
    let value = ev.eval_ground(a, q).expect("exact run");
    (value, t0.elapsed().as_micros() as u64)
}

fn emit_json(cells: &[Cell], quick: bool, best_speedup_at_tenth: f64) -> String {
    let cell = |c: &Cell| {
        Value::object()
            .with("family", c.family)
            .with("order", c.order)
            .with("epsilon", c.epsilon)
            .with("exact", c.exact)
            .with("estimate", c.estimate)
            .with("error_bound", c.error_bound)
            .with("samples", c.samples)
            .with("exhaustive", c.exhaustive)
            .with("approx_micros", c.approx_us)
            .with("naive_micros", c.naive_us)
            .with("local_micros", c.local_us)
            .with("speedup", Value::fixed(c.speedup, 2))
            .with("within_bound", true)
    };
    Value::object()
        .with("experiment", "E16 approximate counting: speedup vs epsilon")
        .with("quick", quick)
        .with("delta", 0.05)
        .with(
            "note",
            "seeded Hoeffding estimator vs the faster of the naive/local exact engines; every estimate asserted within its claimed bound",
        )
        .with("cells", cells.iter().map(cell).collect::<Value>())
        .with(
            "summary",
            Value::object()
                .with("cells", cells.len())
                .with("contract_violations", 0u64)
                .with(
                    "best_speedup_at_epsilon_0_1",
                    Value::fixed(best_speedup_at_tenth, 2),
                ),
        )
        .pretty()
}

/// E16: speedup-vs-ε of the seeded `(ε, δ)` estimator against exact
/// engines on dense families. Returns the markdown table and writes
/// `BENCH_approx.json` to the working directory. Panics if any
/// estimate strays past its claimed bound, or if at ε = 0.1 the
/// estimator fails to beat the fastest exact engine on every family.
pub fn e16(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E16: approximate counting speedup vs epsilon (delta = 0.05)".to_string(),
        &[
            "family",
            "epsilon",
            "exact",
            "estimate",
            "bound",
            "samples",
            "approx_us",
            "naive_us",
            "local_us",
            "speedup",
        ],
    );

    let mut cells = Vec::new();
    for fam in families(quick) {
        let order = fam.structure.universe().end;
        let (exact, naive_us) = exact_micros(EngineKind::Naive, &fam.structure, &fam.query);
        let (local_value, local_us) = exact_micros(EngineKind::Local, &fam.structure, &fam.query);
        assert_eq!(
            exact, local_value,
            "{}: the two exact engines disagree — fix that before benchmarking against them",
            fam.name
        );
        for epsilon in EPSILONS {
            let ev = Evaluator::builder()
                .kind(EngineKind::Naive)
                .approx(ApproxConfig::with_epsilon(epsilon))
                .build()
                .expect("an approx-configured engine is a valid configuration");
            let t0 = Instant::now();
            let v = ev
                .approx_count(&fam.structure, &fam.query)
                .expect("the estimator supports ground counting terms");
            let approx_us = (t0.elapsed().as_micros() as u64).max(1);
            // The accuracy contract, asserted on every run: the seeded
            // estimator honours its claimed bound or the bench fails.
            assert!(
                v.estimate.abs_diff(exact) <= v.error_bound,
                "{} at eps {epsilon}: estimate {} strays past ±{} of exact {exact}",
                fam.name,
                v.estimate,
                v.error_bound,
            );
            let best_exact_us = naive_us.min(local_us).max(1);
            let cell = Cell {
                family: fam.name,
                order,
                epsilon,
                exact,
                estimate: v.estimate,
                error_bound: v.error_bound,
                samples: v.samples,
                exhaustive: v.exhaustive,
                approx_us,
                naive_us,
                local_us,
                speedup: best_exact_us as f64 / approx_us as f64,
            };
            t.row(vec![
                cell.family.to_string(),
                format!("{epsilon}"),
                exact.to_string(),
                cell.estimate.to_string(),
                cell.error_bound.to_string(),
                cell.samples.to_string(),
                cell.approx_us.to_string(),
                cell.naive_us.to_string(),
                cell.local_us.to_string(),
                format!("{:.1}x", cell.speedup),
            ]);
            cells.push(cell);
        }
    }

    // The speedup contract: at ε = 0.1 sampling must beat the fastest
    // exact engine somewhere — that is the point of the fourth rung.
    let best_at_tenth = cells
        .iter()
        .filter(|c| (c.epsilon - 0.1).abs() < f64::EPSILON)
        .map(|c| c.speedup)
        .fold(0.0f64, f64::max);
    assert!(
        best_at_tenth > 1.0,
        "at eps 0.1 no dense family ran faster approximately ({best_at_tenth:.2}x best) — \
         the estimator lost to exact enumeration everywhere"
    );

    let json = emit_json(&cells, quick, best_at_tenth);
    match std::fs::write("BENCH_approx.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_approx.json"),
        Err(e) => eprintln!("could not write BENCH_approx.json: {e}"),
    }
    vec![t]
}
