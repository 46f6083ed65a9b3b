//! Constant-delay enumeration of query results — the paper's open
//! question (3) (Section 9: *"Can our approach be generalised to obtain
//! an algorithm that enumerates the query result with constant
//! delay?"*) — answered for unary-head FOC1(P) queries over the
//! separable fragment.
//!
//! The enumeration contract of the constant-delay literature (e.g.
//! Kazana–Segoufin, Segoufin–Vigny, both cited by the paper): a
//! *preprocessing phase* that is (almost) linear in `‖A‖`, followed by an
//! *enumeration phase* that emits the result tuples one by one with a
//! delay between consecutive outputs that depends only on the query.
//!
//! For a query `{(x, t₁(x), …, t_ℓ(x)) : φ(x)}`, preprocessing
//! materialises the cardinality guards (Theorem 6.10), evaluates the head
//! terms as per-element vectors with the decomposed machinery, and builds
//! the index of satisfying elements; the enumeration phase then emits one
//! row per index entry — `O(ℓ)` work per row, independent of `|A|`.

use foc_eval::QueryRow;
use foc_logic::Query;
use foc_structures::Structure;

use crate::engine::Evaluator;
use crate::error::{Error, Result};
use crate::value::Value;

/// The preprocessed state: an index of satisfying elements plus the head
/// term vectors. Iterating emits rows with constant delay.
pub struct QueryEnumerator {
    satisfying: Vec<u32>,
    term_values: Vec<Value>,
    next: usize,
    /// Wall-clock duration of the preprocessing phase.
    pub preprocessing: std::time::Duration,
}

impl QueryEnumerator {
    /// Number of result rows (known after preprocessing).
    pub fn len(&self) -> usize {
        self.satisfying.len()
    }

    /// `true` iff the result is empty.
    pub fn is_empty(&self) -> bool {
        self.satisfying.is_empty()
    }
}

impl Iterator for QueryEnumerator {
    type Item = QueryRow;

    fn next(&mut self) -> Option<QueryRow> {
        let &e = self.satisfying.get(self.next)?;
        self.next += 1;
        Some(QueryRow {
            elems: vec![e],
            counts: self
                .term_values
                .iter()
                // `e` comes from the satisfying-element index, built over
                // the same universe as every term vector.
                .map(|v| v.at(e).expect("index elements are in range"))
                .collect(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.satisfying.len() - self.next;
        (rem, Some(rem))
    }
}

impl Evaluator {
    /// Preprocesses a unary-head FOC1(P) query for constant-delay
    /// enumeration. Queries with other head shapes are rejected (the
    /// open question is only answered for the unary case).
    pub fn enumerate_query(&self, a: &Structure, q: &Query) -> Result<QueryEnumerator> {
        if q.head_vars.len() != 1 {
            return Err(Error::Unsupported(
                "constant-delay enumeration is implemented for single-variable heads".into(),
            ));
        }
        let t0 = std::time::Instant::now();
        let (satisfying, term_values) = self.session(a).select_unary(q)?;
        Ok(QueryEnumerator {
            satisfying,
            term_values,
            next: 0,
            preprocessing: t0.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_core_test_helpers::*;

    mod foc_core_test_helpers {
        pub use crate::engine::EngineKind;
        pub use foc_logic::build::*;
        pub use foc_structures::gen::{grid, random_tree};
        pub use rand::rngs::StdRng;
        pub use rand::SeedableRng;
    }

    fn degree_query() -> Query {
        let x = v("enx");
        let y = v("eny");
        Query::new(
            vec![x],
            vec![cnt_vec(vec![y], atom("E", [x, y]))],
            tle(int(2), cnt_vec(vec![y], atom("E", [x, y]))),
        )
        .unwrap()
    }

    #[test]
    fn enumeration_matches_materialised_query() {
        let q = degree_query();
        let mut rng = StdRng::seed_from_u64(6);
        for s in [grid(6, 6), random_tree(40, &mut rng)] {
            for kind in [EngineKind::Naive, EngineKind::Local] {
                let ev = Evaluator::builder().kind(kind).build().unwrap();
                let reference = ev.query(&s, &q).unwrap();
                let en = ev.enumerate_query(&s, &q).unwrap();
                assert_eq!(en.len(), reference.rows.len());
                let streamed: Vec<QueryRow> = en.collect();
                assert_eq!(streamed, reference.rows, "{kind:?} on order {}", s.order());
            }
        }
    }

    #[test]
    fn delay_is_independent_of_structure_size() {
        // Measure the maximum inter-row delay on two sizes; the larger
        // structure must not have a (significantly) larger per-row cost.
        // We assert only a loose factor to stay robust on noisy CI boxes.
        let q = degree_query();
        let ev = Evaluator::builder()
            .kind(EngineKind::Local)
            .build()
            .unwrap();
        let mut delays = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for n in [500u32, 8_000] {
            let s = random_tree(n, &mut rng);
            let en = ev.enumerate_query(&s, &q).unwrap();
            let rows = en.len();
            assert!(rows > 0);
            let t0 = std::time::Instant::now();
            let emitted = en.count();
            let per_row = t0.elapsed() / emitted as u32;
            assert_eq!(emitted, rows);
            delays.push(per_row);
        }
        // 16× data, but the average per-row delay must not grow with it;
        // allow a generous 10× factor plus a floor for timer noise (the
        // real ratio is ≈ 1).
        assert!(
            delays[1] < delays[0] * 10 + std::time::Duration::from_micros(20),
            "per-row delay grew with n: {delays:?}"
        );
    }

    #[test]
    fn non_unary_heads_are_rejected() {
        let x = v("rjx");
        let y = v("rjy");
        let q = Query::new(vec![x, y], vec![], atom("E", [x, y])).unwrap();
        let ev = Evaluator::builder()
            .kind(EngineKind::Local)
            .build()
            .unwrap();
        let s = grid(3, 3);
        assert!(matches!(
            ev.enumerate_query(&s, &q),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn fuel_budget_trips_in_the_body_loop() {
        // No head terms and no counting in the body: the only work is
        // checking the quantified body at every element, which must run
        // under the session's budget.
        let (x, y, z) = (v("fbx"), v("fby"), v("fbz"));
        let body = exists(
            y,
            exists(
                z,
                and_all([atom("E", [x, y]), atom("E", [y, z]), not(eq(x, z))]),
            ),
        );
        let q = Query::new(vec![x], vec![], body).unwrap();
        let s = grid(12, 12);
        for kind in [EngineKind::Naive, EngineKind::Local, EngineKind::Cover] {
            let unlimited = Evaluator::builder().kind(kind).build().unwrap();
            assert_eq!(unlimited.enumerate_query(&s, &q).unwrap().len(), 144);
            let starved = Evaluator::builder().kind(kind).fuel(50).build().unwrap();
            assert!(
                matches!(starved.enumerate_query(&s, &q), Err(Error::Interrupted(_))),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let q = degree_query();
        let ev = Evaluator::builder()
            .kind(EngineKind::Local)
            .build()
            .unwrap();
        let s = grid(5, 5);
        let mut en = ev.enumerate_query(&s, &q).unwrap();
        let total = en.len();
        assert_eq!(en.size_hint(), (total, Some(total)));
        en.next();
        assert_eq!(en.size_hint(), (total - 1, Some(total - 1)));
    }
}
