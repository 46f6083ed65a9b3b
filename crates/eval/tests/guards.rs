//! The guard planner: a pinned row count on the customers → country →
//! orders shape of Example 5.3, and candidate-driven counts against a
//! guard-free oracle (`¬¬φ` hides every guard of `φ`, because the planner
//! does not look through negation).

use std::sync::Arc;

use foc_eval::NaiveEvaluator;
use foc_logic::build::*;
use foc_logic::parse::parse_formula;
use foc_logic::{Formula, Predicates, Var};
use foc_structures::{Structure, StructureBuilder};
use proptest::prelude::*;

/// Countries 0 and 1; customers 2–5 (three in country 0, one in
/// country 1); orders 6–11. `extra` more customers live in a country of
/// their own and place no orders.
fn shop(extra: u32) -> Structure {
    let mut b = StructureBuilder::new();
    b.declare("Cust", 2);
    b.declare("Ord", 2);
    for (c, d) in [(2, 0), (3, 0), (4, 0), (5, 1)] {
        b.try_insert("Cust", &[c, d]).unwrap();
    }
    for (o, c) in [(6, 2), (7, 2), (8, 3), (9, 4), (10, 5), (11, 5)] {
        b.try_insert("Ord", &[o, c]).unwrap();
    }
    let lonely = 12;
    b.ensure_universe(lonely + 1);
    for i in 0..extra {
        b.try_insert("Cust", &[lonely + 1 + i, lonely]).unwrap();
    }
    b.finish()
}

/// `(count, guard_rows)` of `#(o). body` on `s`.
fn count_orders(s: &Structure, body: &str) -> (i64, u64) {
    let p = Predicates::standard();
    let mut ev = NaiveEvaluator::new(s, &p);
    let f = parse_formula(body).unwrap();
    let n = ev.count_satisfying(&f, &[v("o")]).unwrap();
    (n, ev.stats.guard_rows)
}

#[test]
fn hub_shape_reads_only_index_buckets() {
    // `o` is guarded by `Ord(o,c)` alone (`c` is quantified inside): a
    // scan of the 6 `Ord` rows. Per order, `c` comes from the 1-row
    // bucket `Ord(o,·)` rather than a scan of `Cust` (whose `d` is
    // shadowed), and `d` from the 1-row bucket `Cust(c,·)`: 6 + 6·2.
    let base = "exists c. exists d. (Ord(o,c) & Cust(c,d))";
    assert_eq!(count_orders(&shop(0), base), (6, 18));
    // Customers that place no orders do not change the work.
    assert_eq!(count_orders(&shop(100), base), (6, 18));

    // With the count term, each order also reads the bucket `Cust(·,d)`
    // of its customer's country: 3 rows for the 4 orders from country 0,
    // 1 row for the 2 from country 1; 18 + 14. The count is the same for
    // every order of the conjuncts.
    let parts = ["Ord(o,c)", "Cust(c,d)", "#(y). Cust(y,d) >= 2"];
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for order in orders {
        let conj: Vec<&str> = order.iter().map(|&i| parts[i]).collect();
        let body = format!("exists c. exists d. ({})", conj.join(" & "));
        assert_eq!(count_orders(&shop(0), &body), (4, 32), "{body}");
        assert_eq!(count_orders(&shop(100), &body), (4, 32), "{body}");
    }
}

/// A structure over `0..n` with relations `R0`, `R1` (and `R2`) of the
/// given arities; each row's first entry picks its relation.
fn structure(n: u32, arities: &[usize], rows: &[Vec<u32>]) -> Structure {
    let mut b = StructureBuilder::new();
    b.ensure_universe(n);
    for (i, &ar) in arities.iter().enumerate() {
        b.declare(&format!("R{i}"), ar);
    }
    for row in rows {
        let i = row[0] as usize % arities.len();
        let tuple: Vec<u32> = row[1..=arities[i]].iter().map(|x| x % n).collect();
        b.try_insert(&format!("R{i}"), &tuple).unwrap();
    }
    b.finish()
}

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// One conjunct: `kind` picks the form, `rel` the relation, `args` its
/// variables (indices into [`VARS`]), `d` a `dist` bound.
fn part(kind: u8, rel: usize, args: &[usize], arities: &[usize], d: u32) -> Arc<Formula> {
    let rel = rel % arities.len();
    let vars: Vec<Var> = (0..arities[rel])
        .map(|i| v(VARS[args[i] % VARS.len()]))
        .collect();
    let (a, b) = (vars[0], *vars.last().unwrap());
    let r = || atom_vec(&format!("R{rel}"), vars.clone());
    match kind {
        0 => eq(a, b),
        1 => dist_le(a, b, d),
        2 => not(r()),
        // The companion is quantified: a full scan, or an index lookup on
        // another bound companion.
        3 => exists(v("w"), r()),
        // A counting term that rebinds an outer counted variable.
        4 => ge1(cnt([v("y")], r())),
        _ => r(),
    }
}

fn arb_case() -> impl Strategy<Value = (Structure, Arc<Formula>)> {
    let arities = proptest::collection::vec(1usize..4, 2..4);
    let row = proptest::collection::vec(0u32..64, 4..5);
    let conj = (
        0u8..7,
        0usize..3,
        proptest::collection::vec(0usize..4, 3..4),
        0u32..3,
    );
    (
        2u32..7,
        arities,
        proptest::collection::vec(row, 0..24),
        proptest::collection::vec(conj, 1..5),
    )
        .prop_map(|(n, arities, rows, parts)| {
            let s = structure(n, &arities, &rows);
            let body = and_all(
                parts
                    .iter()
                    .map(|(k, r, args, d)| part(*k, *r, args, &arities, *d)),
            );
            (s, body)
        })
}

/// Counts `body` over several variable tuples (closing the rest of its
/// free variables with `∃`) with and without its guards.
fn guarded_vs_hidden(s: &Structure, body: &Arc<Formula>) -> Result<(), TestCaseError> {
    let p = Predicates::standard();
    let hidden = Arc::new(Formula::Not(Arc::new(Formula::Not(body.clone()))));
    let tuples: [&[&str]; 4] = [&["x"], &["x", "y"], &["x", "y", "z"], &["z", "x", "w"]];
    for names in tuples {
        let vars: Vec<Var> = names.iter().map(|n| v(n)).collect();
        let rest: Vec<Var> = body
            .free_vars()
            .into_iter()
            .filter(|x| !vars.contains(x))
            .collect();
        let f = exists_all(rest.clone(), body.clone());
        let g = exists_all(rest, hidden.clone());
        let want = NaiveEvaluator::new(s, &p)
            .count_satisfying(&g, &vars)
            .unwrap();
        let got = NaiveEvaluator::new(s, &p)
            .count_satisfying(&f, &vars)
            .unwrap();
        prop_assert_eq!(got, want, "{} over {:?}", body, names);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Counting through the planner's candidates agrees with counting
    /// over the whole universe.
    #[test]
    fn guarded_counts_match_guard_free_counts(case in arb_case()) {
        guarded_vs_hidden(&case.0, &case.1)?;
    }
}
