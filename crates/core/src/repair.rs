//! Cache repair after a live update — the repo's answer to the paper's
//! open question (2) (Section 9: *"Can our approach be generalised to
//! support database updates?"*).
//!
//! The answer rests on the *locality of change*: a basic cl-term value
//! `u^A[a]` depends only on `N_R(a)` (Remark 6.3), so after a delta
//! commit only the entries within the exploration radius of a touched
//! element can differ. [`repair_caches`] carries the engines' shared
//! state across one effective commit of a
//! [`foc_structures::DeltaStructure`]: the memoised per-element vectors
//! of the [`TermCache`] (dirty balls recomputed by
//! [`foc_locality::migrate_cache`]) and the neighbourhood covers of the
//! [`CoverStore`] (repaired by [`CoverStore::migrate`]). Evaluators
//! built over the same stores then answer on the new epoch warm.

use foc_covers::CoverStore;
use foc_locality::{migrate_cache, MigrationStats, TermCache};
use foc_logic::Predicates;
use foc_structures::Structure;

/// Repairs the shared caches across one effective commit `old → new`
/// whose changed tuples mention the elements `touched`.
///
/// Runs in a fixed order: the term vectors and covers are migrated to
/// `new`, then `publish` runs, then everything keyed on `old` is
/// retired. A server swaps its published snapshot in `publish`, so no
/// reader can pick up `old` after its entries are gone and re-populate
/// them under a fingerprint nobody retires again.
pub fn repair_caches(
    cache: &TermCache,
    covers: &CoverStore,
    preds: &Predicates,
    old: &Structure,
    new: &Structure,
    touched: &[u32],
    publish: impl FnOnce(),
) -> MigrationStats {
    let stats = migrate_cache(cache, old, new, touched, preds);
    covers.migrate(old, new, touched);
    publish();
    cache.evict_structure(old.fingerprint());
    covers.retire(old.fingerprint());
    stats
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use foc_logic::build::*;
    use foc_logic::Term;
    use foc_structures::gen::{grid, path, random_tree};
    use foc_structures::{CommitInfo, DeltaStructure, Structure, TupleOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::{EngineKind, Evaluator};

    /// The served update path in miniature: a delta structure, shared
    /// caches warmed by the Local and Cover engines, and the naive
    /// engine over a from-scratch rebuild as the oracle.
    struct Served {
        delta: DeltaStructure,
        cache: Arc<TermCache>,
        covers: Arc<CoverStore>,
        local: Evaluator,
        cover: Evaluator,
        naive: Evaluator,
        term: Arc<Term>,
    }

    impl Served {
        fn new(s: Structure, term: Arc<Term>) -> Served {
            let cache = Arc::new(TermCache::default());
            let covers = Arc::new(CoverStore::default());
            let local = Evaluator::builder()
                .kind(EngineKind::Local)
                .shared_cache(cache.clone())
                .build()
                .unwrap();
            let cover = Evaluator::builder()
                .kind(EngineKind::Cover)
                .shared_cache(cache.clone())
                .shared_covers(covers.clone())
                .build()
                .unwrap();
            let naive = Evaluator::builder()
                .kind(EngineKind::Naive)
                .build()
                .unwrap();
            let served = Served {
                delta: DeltaStructure::new(s),
                cache,
                covers,
                local,
                cover,
                naive,
                term,
            };
            served.value();
            served
        }

        /// The term's value on the live snapshot, asserted equal across
        /// the warm engines and the rebuilt oracle.
        fn value(&self) -> i64 {
            let live = self.delta.snapshot();
            let want = self
                .naive
                .eval_ground(&self.delta.rebuild_from_scratch(), &self.term)
                .unwrap();
            assert_eq!(self.local.eval_ground(&live, &self.term).unwrap(), want);
            assert_eq!(self.cover.eval_ground(&live, &self.term).unwrap(), want);
            want
        }

        /// Toggles the symmetric edge `{u, v}` and repairs the caches.
        fn edge(&mut self, insert: bool, u: u32, v: u32) -> (CommitInfo, MigrationStats) {
            let ops = if insert {
                [TupleOp::insert("E", &[u, v]), TupleOp::insert("E", &[v, u])]
            } else {
                [TupleOp::delete("E", &[u, v]), TupleOp::delete("E", &[v, u])]
            };
            let old = self.delta.snapshot();
            let info = self.delta.apply(&ops).unwrap();
            let mut stats = MigrationStats::default();
            if info.changed > 0 {
                let new = self.delta.snapshot();
                let preds = Predicates::standard();
                stats = repair_caches(
                    &self.cache,
                    &self.covers,
                    &preds,
                    &old,
                    &new,
                    &info.touched,
                    || {},
                );
            }
            self.value();
            (info, stats)
        }
    }

    fn close_pairs() -> Arc<Term> {
        let x = v("rpx");
        let y = v("rpy");
        cnt([x, y], and(dist_le(x, y, 2), not(eq(x, y))))
    }

    fn edge_pairs() -> Arc<Term> {
        let x = v("rpx");
        let y = v("rpy");
        cnt([x, y], atom("E", [x, y]))
    }

    #[test]
    fn repaired_caches_match_rebuild() {
        // Scripted inserts and deletes on a path.
        let mut s = Served::new(path(12), close_pairs());
        for (insert, u, v) in [
            (true, 0, 5),
            (true, 3, 9),
            (false, 0, 1),
            (false, 3, 9),
            (true, 11, 2),
            (false, 5, 6),
        ] {
            s.edge(insert, u, v);
        }

        // A seeded insert/delete stream on a random tree.
        let mut rng = StdRng::seed_from_u64(77);
        let mut s = Served::new(random_tree(30, &mut rng), close_pairs());
        for _ in 0..12 {
            let u = rng.gen_range(0..30);
            let v = rng.gen_range(0..30);
            if u != v {
                s.edge(rng.gen_bool(0.5), u, v);
            }
        }

        // Deleting an absent edge is a no-op: no change, same epoch and
        // value (5 symmetric edges).
        let mut s = Served::new(path(6), edge_pairs());
        assert_eq!(s.value(), 10);
        let (info, _) = s.edge(false, 0, 5);
        assert_eq!((info.changed, info.epoch), (0, 0));
        assert_eq!(s.value(), 10);

        // The dirty set is local: one insert on a 400-element grid
        // recomputes far fewer entries than the universe.
        let mut s = Served::new(grid(20, 20), edge_pairs());
        let (info, stats) = s.edge(true, 0, 399);
        assert_eq!(info.changed, 2);
        assert!(
            stats.recomputed > 0 && stats.recomputed < 100,
            "recomputed {} of 400 elements — change is not local",
            stats.recomputed
        );
    }
}
