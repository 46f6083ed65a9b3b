//! E14 — live updates: the per-update cost of the served update path
//! versus a from-scratch rebuild, on a grid of ~10⁵ elements.
//!
//! The delta column is what `foc serve` does per single-edge update: a
//! `DeltaStructure` commit (epoch bump, COW relations, incremental
//! Gaifman maintenance), then [`foc_core::repair_caches`] — which
//! recomputes exactly the dirty balls of every cached per-element
//! vector (the locality of change, Remark 6.3) — then a warm `Local`
//! evaluation over the shared [`TermCache`]. The rebuild baseline pays
//! what a non-incremental engine would pay for the same freshness:
//! `DeltaStructure::rebuild_from_scratch()` plus a cold evaluation of
//! the whole term. Both paths must agree on the value at every step —
//! the experiment asserts it.
//!
//! Besides the markdown table, the experiment writes
//! `BENCH_updates.json` to the current directory: one record per
//! update (recomputed vector entries, both timings, speedup) plus a
//! summary with median/min speedups. On a bounded-degree grid the dirty
//! ball is O(1), so the speedup grows linearly with the order — the
//! acceptance bar (≥10× at 10⁵ elements) sits far below the measured
//! ratio.

use std::sync::Arc;
use std::time::Instant;

use foc_core::{repair_caches, EngineKind, Evaluator};
use foc_covers::CoverStore;
use foc_locality::TermCache;
use foc_logic::build::{and, cnt, dist_le, eq, not, v};
use foc_logic::{Predicates, Symbol};
use foc_obs::json::Value;
use foc_structures::gen::grid;
use foc_structures::{DeltaStructure, Structure, TupleOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

struct UpdateCell {
    op: String,
    affected: usize,
    delta_micros: u64,
    rebuild_micros: u64,
}

impl UpdateCell {
    fn speedup(&self) -> f64 {
        self.rebuild_micros as f64 / (self.delta_micros as f64).max(1.0)
    }
}

/// A symmetric single-edge update: insert `{u, v}` or delete it.
#[derive(Debug, Clone, Copy)]
struct Toggle {
    insert: bool,
    u: u32,
    v: u32,
}

impl Toggle {
    fn ops(self) -> [TupleOp; 2] {
        let (u, v) = (self.u, self.v);
        if self.insert {
            [TupleOp::insert("E", &[u, v]), TupleOp::insert("E", &[v, u])]
        } else {
            [TupleOp::delete("E", &[u, v]), TupleOp::delete("E", &[v, u])]
        }
    }

    fn render(self) -> String {
        let sign = if self.insert { '+' } else { '-' };
        format!("{sign}E({},{})", self.u, self.v)
    }
}

/// Draws a seeded stream of single-edge toggles: each update picks a
/// distinct pair and inserts the edge if absent, deletes it if present,
/// so every update is an effective commit (`changed > 0`).
fn gen_updates(s: &Structure, count: usize, rng: &mut StdRng) -> Vec<Toggle> {
    let order = s.order();
    let e = Symbol::new("E");
    let mut updates = Vec::with_capacity(count);
    // Track toggles locally so repeated picks of the same pair stay
    // effective without consulting the mutated structure mid-stream.
    let mut flipped: Vec<(u32, u32)> = Vec::new();
    while updates.len() < count {
        let u = rng.gen_range(0..order);
        let w = rng.gen_range(0..order);
        if u == w {
            continue;
        }
        let (a, b) = if u < w { (u, w) } else { (w, u) };
        let base = s.holds(e, &[a, b]);
        let toggled = flipped.iter().filter(|&&p| p == (a, b)).count() % 2 == 1;
        let present = base ^ toggled;
        flipped.push((a, b));
        updates.push(Toggle {
            insert: !present,
            u: a,
            v: b,
        });
    }
    updates
}

fn median_by<F: Fn(&UpdateCell) -> f64>(cells: &[UpdateCell], f: F) -> f64 {
    let mut vals: Vec<f64> = cells.iter().map(f).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    if vals.is_empty() {
        0.0
    } else {
        vals[vals.len() / 2]
    }
}

fn emit_json(cells: &[UpdateCell], order: u32, quick: bool) -> String {
    let update = |c: &UpdateCell| {
        Value::object()
            .with("op", c.op.as_str())
            .with("affected", c.affected)
            .with("delta_micros", c.delta_micros)
            .with("rebuild_micros", c.rebuild_micros)
            .with("speedup", Value::fixed(c.speedup(), 3))
    };
    let min_speedup = cells
        .iter()
        .map(UpdateCell::speedup)
        .fold(f64::INFINITY, f64::min);
    Value::object()
        .with("experiment", "E14 live updates: served delta path vs rebuild")
        .with("engine", "local")
        .with("quick", quick)
        .with("order", order)
        .with("query", "#(x,y). dist<=2(x,y) and not x=y")
        .with(
            "note",
            "rebuild pays DeltaStructure::rebuild_from_scratch plus a cold full evaluation; delta pays one commit, repair_caches (dirty-ball recomputation) and a warm evaluation; affected counts recomputed vector entries",
        )
        .with("updates", cells.iter().map(update).collect::<Value>())
        .with(
            "summary",
            Value::object()
                .with("updates", cells.len())
                .with(
                    "median_delta_micros",
                    Value::fixed(median_by(cells, |c| c.delta_micros as f64), 1),
                )
                .with(
                    "median_rebuild_micros",
                    Value::fixed(median_by(cells, |c| c.rebuild_micros as f64), 1),
                )
                .with(
                    "median_speedup",
                    Value::fixed(median_by(cells, UpdateCell::speedup), 3),
                )
                .with("min_speedup", Value::fixed(min_speedup, 3)),
        )
        .pretty()
}

/// E14: the served update path vs from-scratch rebuilds. Returns the
/// markdown table and writes `BENCH_updates.json` to the working
/// directory.
pub fn e14(quick: bool) -> Vec<Table> {
    // 317² = 100489 ≥ 10⁵ elements for the acceptance run; the quick
    // cell keeps CI fast while preserving the shape of the experiment.
    let side: u32 = if quick { 40 } else { 317 };
    let n_updates: usize = if quick { 6 } else { 10 };
    let order = side * side;

    let x = v("e14x");
    let y = v("e14y");
    let term = cnt([x, y], and(dist_le(x, y, 2), not(eq(x, y))));
    let preds = Predicates::standard();
    let cache = Arc::new(TermCache::default());
    let covers = CoverStore::default();
    let warm = Evaluator::builder()
        .kind(EngineKind::Local)
        .shared_cache(cache.clone())
        .build()
        .expect("static engine configuration");
    let cold = Evaluator::builder()
        .kind(EngineKind::Local)
        .build()
        .expect("static engine configuration");

    let mut delta = DeltaStructure::new(grid(side, side));
    warm.eval_ground(&delta.snapshot(), &term)
        .expect("initial E14 evaluation");

    let mut rng = StdRng::seed_from_u64(14);
    let updates = gen_updates(delta.current(), n_updates, &mut rng);

    let mut t = Table::new(
        format!("E14: live updates on grid({side},{side}) — served delta path vs rebuild"),
        &[
            "update",
            "op",
            "affected",
            "delta µs",
            "rebuild µs",
            "speedup",
        ],
    );
    let mut cells = Vec::new();
    for (i, &up) in updates.iter().enumerate() {
        let t_delta = Instant::now();
        let old = delta.snapshot();
        let info = delta.apply(&up.ops()).expect("delta commit");
        let new = delta.snapshot();
        let stats = repair_caches(&cache, &covers, &preds, &old, &new, &info.touched, || {});
        let incremental = warm.eval_ground(&new, &term).expect("warm evaluation");
        let delta_micros = t_delta.elapsed().as_micros() as u64;
        assert!(
            info.changed > 0 && stats.recomputed > 0,
            "toggle stream must produce effective commits"
        );

        let t_rebuild = Instant::now();
        let rebuilt = delta.rebuild_from_scratch();
        let scratch = cold.eval_ground(&rebuilt, &term).expect("rebuild oracle");
        let rebuild_micros = t_rebuild.elapsed().as_micros() as u64;
        assert_eq!(
            incremental, scratch,
            "served delta path diverged from rebuild at update {i} ({up:?})"
        );

        let cell = UpdateCell {
            op: up.render(),
            affected: stats.recomputed,
            delta_micros,
            rebuild_micros,
        };
        t.row(vec![
            i.to_string(),
            cell.op.clone(),
            cell.affected.to_string(),
            cell.delta_micros.to_string(),
            cell.rebuild_micros.to_string(),
            format!("{:.1}x", cell.speedup()),
        ]);
        cells.push(cell);
    }

    let median_speedup = median_by(&cells, UpdateCell::speedup);
    if !quick {
        // The ISSUE's acceptance bar: ≥10× delta-vs-rebuild on
        // single-tuple updates at 10⁵ elements.
        assert!(
            median_speedup >= 10.0,
            "median speedup {median_speedup:.1}x below the 10x acceptance bar"
        );
    }

    let json = emit_json(&cells, order, quick);
    match std::fs::write("BENCH_updates.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_updates.json"),
        Err(e) => eprintln!("could not write BENCH_updates.json: {e}"),
    }
    vec![t]
}
