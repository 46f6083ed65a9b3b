//! E11 — ablations of the implementation's design choices (DESIGN.md
//! §3/§5): what do forced-edge pruning, guard-atom and `dist`-conjunct
//! candidates, the support prefilter, and the least-centre cover rule
//! actually buy?

use std::sync::Arc;
use std::time::Instant;

use foc_covers::cover::{build_cover, trivial_cover};
use foc_locality::decompose::{decompose_ground, decompose_ground_unpruned, decompose_unary};
use foc_locality::local_eval::{ClValue, LocalEvaluator};
use foc_logic::build::*;
use foc_logic::{Predicates, Var};
use foc_structures::gen::{grid, random_tree, sql_database, SqlDbParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fmt_duration, Table};

/// E11a: forced-edge pruning in the pattern enumeration of Lemma 6.4.
fn ablation_pruning() -> Table {
    let mut t = Table::new(
        "E11a: forced-edge pruning of the connectivity-pattern enumeration",
        &[
            "body",
            "k",
            "basics (pruned)",
            "basics (full)",
            "time (pruned)",
            "time (full)",
        ],
    );
    let x = v("abx");
    let y = v("aby");
    let z = v("abz");
    let w = v("abw");
    let bodies: Vec<(&str, Vec<Var>, Arc<foc_logic::Formula>)> = vec![
        ("edges", vec![x, y], atom("E", [x, y])),
        (
            "triangles",
            vec![x, y, z],
            and_all([atom("E", [x, y]), atom("E", [y, z]), atom("E", [z, x])]),
        ),
        (
            "4-paths",
            vec![x, y, z, w],
            and_all([atom("E", [x, y]), atom("E", [y, z]), atom("E", [z, w])]),
        ),
        (
            "SQL-style 4-atom",
            vec![x, y, z, w],
            atom_vec("R4", vec![x, y, z, w]),
        ),
    ];
    for (label, vars, body) in bodies {
        let t0 = Instant::now();
        let pruned = decompose_ground(&body, &vars);
        let tp = t0.elapsed();
        let t0 = Instant::now();
        let full = decompose_ground_unpruned(&body, &vars);
        let tf = t0.elapsed();
        t.row(vec![
            label.into(),
            vars.len().to_string(),
            pruned
                .as_ref()
                .map(|c| c.num_basics().to_string())
                .unwrap_or("—".into()),
            full.as_ref()
                .map(|c| c.num_basics().to_string())
                .unwrap_or("—".into()),
            fmt_duration(tp),
            fmt_duration(tf),
        ]);
    }
    t.note(
        "Pruning collapses conjunctive (atom-guarded) bodies to a single \
         connectivity pattern; without it the symbolic size grows with \
         2^(k choose 2) — a pure win inside the f(‖ξ‖) factor.",
    );
    t
}

/// E11b: guard-atom candidates and the support prefilter in the ball
/// evaluator, on the SQL database (hub-shaped data, where they matter
/// most).
fn ablation_candidates() -> Table {
    let mut t = Table::new(
        "E11b: ball-evaluator candidate strategies (GROUP-BY count term on the SQL database)",
        &[
            "customers",
            "full (both on)",
            "no atom candidates",
            "no support filter",
        ],
    );
    let xco = v("abco");
    let xid = v("abid");
    let body = {
        let xfi = Var::fresh("abfi");
        let xla = Var::fresh("abla");
        let xci = Var::fresh("abci");
        let xph = Var::fresh("abph");
        exists_all(
            [xfi, xla, xci, xph],
            atom_vec("Customer", vec![xid, xfi, xla, xci, xco, xph]),
        )
    };
    let cl = decompose_unary(&body, &[xco, xid]).expect("SQL body decomposes");
    let preds = Predicates::standard();
    let mut rng = StdRng::seed_from_u64(1111);
    for customers in [200u32, 800] {
        let db = sql_database(
            SqlDbParams {
                customers,
                countries: 10,
                cities: 20,
                avg_orders: 1.0,
            },
            &mut rng,
        );
        let mut cells = vec![customers.to_string()];
        let mut reference: Option<ClValue> = None;
        for (atoms, support) in [(true, true), (false, true), (true, false)] {
            let mut lev = LocalEvaluator::new(&db.structure, &preds);
            lev.use_atom_candidates = atoms;
            lev.use_support = support;
            let t0 = Instant::now();
            let val = lev.eval_clterm(&cl).expect("evaluates");
            let dt = t0.elapsed();
            match &reference {
                None => reference = Some(val),
                Some(r) => assert_eq!(*r, val, "ablation changed the result!"),
            }
            cells.push(fmt_duration(dt));
        }
        t.row(cells);
    }
    t.note(
        "Both optimisations are semantics-preserving (asserted during the \
         run). With atom candidates on, the guard planner sizes every guard \
         of a position from the relation indexes and replaces the δ-ball \
         scan by the smallest index lookup (the same toggle governs the \
         dist-conjunct candidates of E11d); the support filter, picked by the \
         same planner, skips elements that cannot head a satisfying tuple.",
    );
    t
}

/// E11d: candidates from positive `dist` conjuncts, which the
/// `use_atom_candidates` toggle governs along with guard atoms.
fn ablation_dist_candidates(quick: bool) -> Table {
    let mut t = Table::new(
        "E11d: dist-conjunct candidates (#(x,y). dist(x,y) <= r on a grid)",
        &[
            "n",
            "r",
            "tuples (on)",
            "tuples (off)",
            "time (on)",
            "time (off)",
        ],
    );
    let (x, y) = (v("x"), v("y"));
    let side = if quick { 32 } else { 128 };
    let s = grid(side, side);
    let preds = Predicates::standard();
    for r in [1u32, 3] {
        let cl = decompose_ground(&dist_le(x, y, r), &[x, y]).expect("dist body decomposes");
        let mut cells = vec![s.order().to_string(), r.to_string()];
        let mut runs = Vec::new();
        for guards in [true, false] {
            let mut lev = LocalEvaluator::new(&s, &preds);
            lev.use_atom_candidates = guards;
            let t0 = Instant::now();
            let val = lev.eval_clterm(&cl).expect("evaluates");
            runs.push((val, lev.stats.tuples_checked, t0.elapsed()));
        }
        assert_eq!(runs[0].0, runs[1].0, "ablation changed the result!");
        cells.extend(runs.iter().map(|r| r.1.to_string()));
        cells.extend(runs.iter().map(|r| fmt_duration(r.2)));
        t.row(cells);
    }
    t.note(
        "With the toggle on, a position tied to an earlier one by a \
         positive conjunct dist(y_i, y_j) <= d draws its candidates from \
         the radius-d prefix of y_j's BFS layers instead of the radius-(2r+1) \
         δ-ball, so every checked tuple satisfies the body.",
    );
    t
}

/// E11c: least-centre cover rule vs the trivial per-element cover.
fn ablation_cover_rule(quick: bool) -> Table {
    let mut t = Table::new(
        "E11c: cover construction rule — least-centre vs trivial per-element",
        &[
            "class",
            "n",
            "r",
            "clusters (LC)",
            "Σ|X| (LC)",
            "clusters (triv)",
            "Σ|X| (triv)",
        ],
    );
    let sizes: &[u32] = if quick { &[1_000] } else { &[1_000, 8_000] };
    let mut rng = StdRng::seed_from_u64(2222);
    for &n in sizes {
        let structures = vec![
            ("tree", random_tree(n, &mut rng)),
            ("grid", {
                let side = (n as f64).sqrt().round() as u32;
                grid(side, side)
            }),
        ];
        for (class, s) in structures {
            for r in [1u32, 2] {
                let g = s.gaifman();
                let lc = build_cover(g, r);
                let tv = trivial_cover(g, r);
                assert!(lc.verify(g) && tv.verify(g));
                t.row(vec![
                    class.into(),
                    s.order().to_string(),
                    r.to_string(),
                    lc.clusters.len().to_string(),
                    lc.total_weight().to_string(),
                    tv.clusters.len().to_string(),
                    tv.total_weight().to_string(),
                ]);
            }
        }
    }
    t.note(
        "The least-centre rule shares clusters between nearby elements, so \
         there are far fewer clusters — which is what the cover engine pays \
         for (per-cluster induced substructures, removals, recursion). The \
         price is radius 2r instead of r, so the total weight Σ|X| is \
         larger; the trade is worthwhile because per-cluster overhead \
         dominates per-element overhead in the Section 8.2 strategy.",
    );
    t
}

/// E11: all ablations.
pub fn e11(quick: bool) -> Vec<Table> {
    vec![
        ablation_pruning(),
        ablation_candidates(),
        ablation_cover_rule(quick),
        ablation_dist_candidates(quick),
    ]
}
