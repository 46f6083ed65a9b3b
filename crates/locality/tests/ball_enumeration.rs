//! Ball enumeration against the reference evaluator on bodies that mix
//! `dist` atoms into the δ-constrained tuple search: as positive
//! conjuncts (which choose the candidates of a position), negated, under
//! `∃`, between two non-anchor positions, and with bounds below, at and
//! above the δ bound `2r+1`; and on a hub database whose bodies mix
//! indexed atoms, atoms with quantified companions and equalities, with
//! every combination of the candidate and support toggles.

use std::sync::Arc;

use foc_eval::{Assignment, NaiveEvaluator};
use foc_locality::clterm::BasicClTerm;
use foc_locality::gk::Gk;
use foc_locality::local_eval::LocalEvaluator;
use foc_logic::build::*;
use foc_logic::{Formula, Predicates, Var};
use foc_structures::gen::{bounded_degree, graph_structure, grid, random_tree};
use foc_structures::Structure;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn structures() -> Vec<Structure> {
    let mut rng = StdRng::seed_from_u64(31);
    vec![
        grid(4, 4),
        random_tree(14, &mut rng),
        bounded_degree(14, 3, 40, &mut rng),
        // Disconnected: a triangle, a path and an isolated vertex.
        graph_structure(10, &[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)]),
    ]
}

/// One conjunct of a generated body: a `dist` atom between positions
/// `i` and `j` in one of five forms.
#[derive(Debug, Clone, Copy)]
struct Part {
    form: u8,
    i: usize,
    j: usize,
    /// 0: bound − 1, 1: bound, 2: bound + 1.
    slot: u32,
}

fn part_formula(p: Part, vars: &[Var], bound: u32) -> Arc<Formula> {
    let d = (bound + p.slot).saturating_sub(1);
    let (x, y, z) = (vars[p.i], vars[p.j], v("z"));
    match p.form {
        0 => dist_le(x, y, d),
        1 => not(dist_le(x, y, d)),
        // The atom mentions a quantified variable: never a guard.
        2 => exists(z, and(atom("E", [x, z]), dist_le(z, y, d))),
        // A guard reached through a foreign binder.
        3 => exists(z, and(dist_le(x, y, d), atom("E", [y, z]))),
        // A guard beside an atom that also yields candidates.
        _ => and(atom("E", [x, y]), dist_le(x, y, d)),
    }
}

/// A width-2 or width-3 basic cl-term with a random connected `G`, a
/// radius in 0..=2 and a conjunction of 1–3 `dist` parts as body.
fn arb_term() -> impl Strategy<Value = BasicClTerm> {
    let part = (0u8..5, 0usize..3, 0usize..2, 0u32..3);
    (
        2usize..4,
        0usize..4,
        0u64..3,
        0u8..2,
        proptest::collection::vec(part, 1..4),
    )
        .prop_map(|(k, gi, radius, unary, parts)| {
            let vars: Vec<Var> = ["y1", "y2", "y3"][..k].iter().map(|n| v(n)).collect();
            let graph = match (k, gi) {
                (2, _) => Gk::from_edges(2, &[(0, 1)]),
                (_, 0) => Gk::from_edges(3, &[(0, 1), (1, 2)]),
                (_, 1) => Gk::from_edges(3, &[(0, 1), (0, 2)]),
                (_, 2) => Gk::from_edges(3, &[(0, 2), (2, 1)]),
                _ => Gk::from_edges(3, &[(0, 1), (1, 2), (0, 2)]),
            };
            let bound = 2 * radius as u32 + 1;
            let body = and_all(parts.into_iter().map(|(form, i, step, slot)| {
                let i = i % k;
                let j = (i + 1 + step % (k - 1)) % k;
                part_formula(Part { form, i, j, slot }, &vars, bound)
            }));
            BasicClTerm::new(vars, unary == 1, graph, radius, body).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every element's count equals the reference count of the term's
    /// defining counting term, with and without guard candidates and on
    /// one and two threads.
    #[test]
    fn local_counts_match_naive_on_dist_bodies(b in arb_term()) {
        let p = Predicates::standard();
        let term = b.to_term();
        for s in structures() {
            let mut nev = NaiveEvaluator::new(&s, &p);
            for (guards, threads) in [(true, 1), (false, 1), (true, 2)] {
                let mut lev = LocalEvaluator::new(&s, &p);
                lev.use_atom_candidates = guards;
                lev.threads = threads;
                let ctx = format!("{} on order {} (guards {guards}, threads {threads})", b.body, s.order());
                if b.unary {
                    let got = lev.eval_basic_all(&b).unwrap();
                    for a in s.universe() {
                        let mut env = Assignment::from_pairs([(b.vars[0], a)]);
                        let want = nev.eval_term(&term, &mut env).unwrap();
                        prop_assert_eq!(got[a as usize], want, "at {}: {}", a, ctx);
                        prop_assert_eq!(lev.eval_basic_at(&b, a).unwrap(), want, "at {}: {}", a, ctx);
                    }
                } else {
                    let want = nev.eval_ground(&term).unwrap();
                    prop_assert_eq!(lev.eval_basic_ground(&b).unwrap(), want, "{}", ctx);
                }
            }
        }
    }
}

/// A customers → country → orders database with one hub country:
/// countries `0..3`, then customers, then orders. Customers pick country
/// 0 half the time; orders pick their customer uniformly.
fn hub(seed: u64) -> Structure {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let (countries, customers, orders) = (3u32, 14u32, 18u32);
    let mut b = foc_structures::StructureBuilder::new();
    b.declare("Cust", 2);
    b.declare("Ord", 2);
    b.ensure_universe(countries + customers + orders);
    for c in countries..countries + customers {
        let d = if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(0..countries)
        };
        b.try_insert("Cust", &[c, d]).unwrap();
    }
    for o in countries + customers..countries + customers + orders {
        let c = rng.gen_range(countries..countries + customers);
        b.try_insert("Ord", &[o, c]).unwrap();
    }
    b.finish()
}

/// One conjunct over positions `i` and `j` of a hub body: indexed atoms,
/// atoms whose companion is quantified, a `dist` guard, an equality and
/// a negated atom.
fn hub_part(form: u8, i: usize, j: usize, d: u32, vars: &[Var]) -> Arc<Formula> {
    let (x, y, z) = (vars[i], vars[j], v("z"));
    match form {
        0 => atom("Cust", [x, y]),
        1 => atom("Ord", [x, y]),
        2 => exists(z, atom("Cust", [x, z])),
        3 => exists(z, and(atom("Ord", [z, x]), atom("Cust", [x, y]))),
        4 => dist_le(x, y, d),
        5 => eq(x, y),
        _ => not(atom("Ord", [y, x])),
    }
}

fn arb_hub_term() -> impl Strategy<Value = BasicClTerm> {
    let part = (0u8..7, 0usize..3, 0usize..2, 1u32..4);
    (
        2usize..4,
        0u64..2,
        0u8..2,
        proptest::collection::vec(part, 1..4),
    )
        .prop_map(|(k, radius, unary, parts)| {
            let vars: Vec<Var> = ["y1", "y2", "y3"][..k].iter().map(|n| v(n)).collect();
            let graph = match k {
                2 => Gk::from_edges(2, &[(0, 1)]),
                _ => Gk::from_edges(3, &[(0, 1), (1, 2)]),
            };
            let body = and_all(parts.into_iter().map(|(form, i, step, d)| {
                let i = i % k;
                let j = (i + 1 + step % (k - 1)) % k;
                hub_part(form, i, j, d, &vars)
            }));
            BasicClTerm::new(vars, unary == 1, graph, radius, body).unwrap()
        })
}

/// Checks every combination of the candidate and support toggles on one
/// and two threads against the reference count on hub databases.
fn hub_counts_match_naive(b: &BasicClTerm) -> Result<(), TestCaseError> {
    let p = Predicates::standard();
    let term = b.to_term();
    for s in [hub(5), hub(6)] {
        let mut nev = NaiveEvaluator::new(&s, &p);
        let want: Vec<i64> = if b.unary {
            s.universe()
                .map(|a| {
                    let mut env = Assignment::from_pairs([(b.vars[0], a)]);
                    nev.eval_term(&term, &mut env).unwrap()
                })
                .collect()
        } else {
            vec![nev.eval_ground(&term).unwrap()]
        };
        for (guards, support, threads) in [
            (true, true, 1),
            (false, true, 1),
            (true, false, 1),
            (false, false, 1),
            (true, true, 2),
            (false, false, 2),
        ] {
            let mut lev = LocalEvaluator::new(&s, &p);
            lev.use_atom_candidates = guards;
            lev.use_support = support;
            lev.threads = threads;
            let got = if b.unary {
                lev.eval_basic_all(b).unwrap().to_vec()
            } else {
                vec![lev.eval_basic_ground(b).unwrap()]
            };
            prop_assert_eq!(
                &got,
                &want,
                "{} (guards {}, support {}, threads {})",
                b.body,
                guards,
                support,
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Ball enumeration on hub data agrees with the reference evaluator
    /// whichever candidate sources the planner may use.
    #[test]
    fn local_counts_match_naive_on_hub_bodies(b in arb_hub_term()) {
        hub_counts_match_naive(&b)?;
    }
}
