//! Delta-maintained neighbourhood covers.
//!
//! Rebuilding an (r, 2r)-cover after a tuple update costs a BFS per
//! element; a single edge change perturbs only the clusters and
//! assignments whose balls reach the touched elements. The least-centre
//! rule is correct for *any* fixed vertex order (the degeneracy order
//! only tunes the cover degree), so a maintained cover freezes the
//! order chosen at construction and, on refresh, recomputes
//!
//! * cluster contents `N_2r[c]` for centres within distance `2r` of a
//!   touched element (their balls may have changed), and
//! * assignments for vertices within distance `r` of a touched element
//!   (their `N_r[a]`, hence their least centre, may have changed),
//!
//! in the *union* of the old and new Gaifman graphs — edge deletions
//! shrink balls, insertions grow them, and the union bounds both. Every
//! other cluster and assignment is provably unchanged, and the covering
//! property `N_r(a) ⊆ X(a)` survives: for an untouched `a` the ball
//! `N_r[a]` is identical in both graphs, its least centre `c ∈ N_r[a]`
//! is unchanged, and `N_r[a] ⊆ N_2r[c]` holds in the new graph by the
//! triangle inequality.
//!
//! [`CoverStore`] keys ready covers by `(structure fingerprint, radius)`
//! so the cover engine stops rebuilding them per evaluation, and
//! [`CoverStore::migrate`] carries them across epochs.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use foc_structures::{BfsScratch, FxHashMap, FxHashSet, Graph, Structure};

use crate::cover::{build_cover_with_order, NeighborhoodCover};

/// What a cover refresh did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Clusters whose contents were recomputed.
    pub clusters_rebuilt: usize,
    /// Vertices whose assignment was recomputed.
    pub reassigned: usize,
    /// Clusters dropped because no vertex is assigned to them anymore.
    pub clusters_dropped: usize,
}

/// A neighbourhood cover that can follow a mutating graph by local
/// repair instead of full rebuild.
#[derive(Debug, Clone)]
pub(crate) struct MaintainedCover {
    /// The current, always-valid (r, 2r)-cover.
    pub(crate) cover: NeighborhoodCover,
    /// The frozen vertex order of the least-centre rule.
    pos: Arc<Vec<u32>>,
}

impl MaintainedCover {
    /// Builds a cover and freezes the construction-time vertex order.
    pub(crate) fn build(g: &Graph, r: u32) -> MaintainedCover {
        let pos = Arc::new(g.degeneracy_positions());
        let cover = build_cover_with_order(g, r, &pos);
        MaintainedCover { cover, pos }
    }

    /// Repairs the cover after edge changes around `touched` (the
    /// elements of the changed tuples). `old_g` is the graph the cover
    /// currently describes, `new_g` the one it must describe next.
    pub(crate) fn refresh(
        &mut self,
        old_g: &Graph,
        new_g: &Graph,
        touched: &[u32],
    ) -> RefreshStats {
        let mut stats = RefreshStats::default();
        if touched.is_empty() {
            return stats;
        }
        let r = self.cover.r;
        let mut scratch = BfsScratch::new();
        // Clusters whose ball may have changed: centres within 2r of a
        // touched element, in either graph.
        let mut dirty_centers: FxHashSet<u32> = FxHashSet::default();
        dirty_centers.extend(old_g.ball(touched, 2 * r, &mut scratch));
        dirty_centers.extend(new_g.ball(touched, 2 * r, &mut scratch));
        for (idx, &c) in self.cover.centers.iter().enumerate() {
            if dirty_centers.contains(&c) {
                self.cover.clusters[idx] = new_g.ball(&[c], 2 * r, &mut scratch);
                stats.clusters_rebuilt += 1;
            }
        }
        // Assignments whose r-ball may have changed: within r of a
        // touched element, in either graph.
        let mut dirty: FxHashSet<u32> = FxHashSet::default();
        dirty.extend(old_g.ball(touched, r, &mut scratch));
        dirty.extend(new_g.ball(touched, r, &mut scratch));
        let mut dirty: Vec<u32> = dirty.into_iter().collect();
        dirty.sort_unstable();
        let mut center_idx: FxHashMap<u32, u32> = FxHashMap::default();
        for (idx, &c) in self.cover.centers.iter().enumerate() {
            center_idx.insert(c, idx as u32);
        }
        let mut ball = Vec::new();
        for &a in &dirty {
            new_g.ball_into(&[a], r, &mut scratch, &mut ball);
            let c = ball
                .iter()
                .copied()
                .min_by_key(|&w| self.pos[w as usize])
                .unwrap_or(a);
            let idx = match center_idx.get(&c) {
                Some(&idx) => idx,
                None => {
                    let idx = self.cover.clusters.len() as u32;
                    self.cover
                        .clusters
                        .push(new_g.ball(&[c], 2 * r, &mut scratch));
                    self.cover.centers.push(c);
                    center_idx.insert(c, idx);
                    stats.clusters_rebuilt += 1;
                    idx
                }
            };
            self.cover.assign[a as usize] = idx;
            stats.reassigned += 1;
        }
        stats.clusters_dropped = self.gc_unassigned();
        stats
    }

    /// Drops clusters no vertex is assigned to and compacts indices.
    fn gc_unassigned(&mut self) -> usize {
        let k = self.cover.clusters.len();
        let mut used = vec![false; k];
        for &c in &self.cover.assign {
            used[c as usize] = true;
        }
        if used.iter().all(|&u| u) {
            return 0;
        }
        let mut remap = vec![u32::MAX; k];
        let mut next = 0u32;
        for (i, &u) in used.iter().enumerate() {
            if u {
                remap[i] = next;
                next += 1;
            }
        }
        let mut i = 0;
        self.cover.clusters.retain(|_| {
            i += 1;
            used[i - 1]
        });
        let mut j = 0;
        self.cover.centers.retain(|_| {
            j += 1;
            used[j - 1]
        });
        for a in self.cover.assign.iter_mut() {
            *a = remap[*a as usize];
        }
        k - next as usize
    }
}

/// Default bound on resident covers in a [`CoverStore`].
pub const DEFAULT_COVER_STORE_CAPACITY: usize = 256;

/// A shared, thread-safe store of ready covers keyed by
/// `(structure fingerprint, radius)`. The cover engine consults it
/// instead of rebuilding a cover on every evaluation; delta commits call
/// [`CoverStore::migrate`] to repair root-structure covers into the next
/// epoch. Entries are evicted FIFO beyond the capacity.
#[derive(Debug)]
pub struct CoverStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct StoreInner {
    map: FxHashMap<(u64, u32), MaintainedCover>,
    fifo: VecDeque<(u64, u32)>,
}

impl Default for CoverStore {
    fn default() -> CoverStore {
        CoverStore::with_capacity(DEFAULT_COVER_STORE_CAPACITY)
    }
}

impl CoverStore {
    /// An empty store holding at most `capacity` covers.
    pub fn with_capacity(capacity: usize) -> CoverStore {
        CoverStore {
            inner: Mutex::new(StoreInner::default()),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        // Plain data: recovery from a poisoned lock is safe.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cover of `s`'s Gaifman graph at `radius`, built on first use.
    pub fn get_or_build(&self, s: &Structure, radius: u32) -> Arc<NeighborhoodCover> {
        let key = (s.fingerprint(), radius);
        if let Some(mc) = self.lock().map.get(&key) {
            return Arc::new(mc.cover.clone());
        }
        let mc = MaintainedCover::build(s.gaifman(), radius);
        let cover = Arc::new(mc.cover.clone());
        let mut inner = self.lock();
        if !inner.map.contains_key(&key) {
            while inner.fifo.len() >= self.capacity {
                match inner.fifo.pop_front() {
                    Some(old) => {
                        inner.map.remove(&old);
                    }
                    None => break,
                }
            }
            inner.fifo.push_back(key);
            inner.map.insert(key, mc);
        }
        cover
    }

    /// Repairs every cover keyed on `old`'s fingerprint into a cover of
    /// `new`, inserted under `new`'s fingerprint. Old-epoch entries stay
    /// until [`CoverStore::retire`]d (in-flight readers may still use
    /// them). Returns per-radius refresh stats.
    pub fn migrate(&self, old: &Structure, new: &Structure, touched: &[u32]) -> Vec<RefreshStats> {
        if old.fingerprint() == new.fingerprint() {
            return Vec::new();
        }
        let old_fp = old.fingerprint();
        let radii: Vec<u32> = {
            let inner = self.lock();
            let mut radii: Vec<u32> = inner
                .fifo
                .iter()
                .filter(|(fp, _)| *fp == old_fp)
                .map(|&(_, r)| r)
                .collect();
            radii.sort_unstable();
            radii
        };
        let mut out = Vec::with_capacity(radii.len());
        for r in radii {
            let Some(mut mc) = self.lock().map.get(&(old_fp, r)).cloned() else {
                continue;
            };
            let stats = mc.refresh(old.gaifman(), new.gaifman(), touched);
            let key = (new.fingerprint(), r);
            let mut inner = self.lock();
            if !inner.map.contains_key(&key) {
                while inner.fifo.len() >= self.capacity {
                    match inner.fifo.pop_front() {
                        Some(victim) => {
                            inner.map.remove(&victim);
                        }
                        None => break,
                    }
                }
                inner.fifo.push_back(key);
                inner.map.insert(key, mc);
            }
            out.push(stats);
        }
        out
    }

    /// Drops every cover keyed on a retired structure fingerprint;
    /// returns how many were dropped.
    pub fn retire(&self, fingerprint: u64) -> usize {
        let mut inner = self.lock();
        let before = inner.map.len();
        inner.map.retain(|(fp, _), _| *fp != fingerprint);
        inner.fifo.retain(|(fp, _)| *fp != fingerprint);
        before - inner.map.len()
    }

    /// Resident covers.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` iff nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_structures::{DeltaStructure, StructureBuilder, TupleOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_delta(w: u32, h: u32) -> DeltaStructure {
        let mut b = StructureBuilder::new();
        b.declare("E", 2);
        b.ensure_universe(w * h);
        let id = |x: u32, y: u32| y * w + x;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    b.try_insert("E", &[id(x, y), id(x + 1, y)]).unwrap();
                    b.try_insert("E", &[id(x + 1, y), id(x, y)]).unwrap();
                }
                if y + 1 < h {
                    b.try_insert("E", &[id(x, y), id(x, y + 1)]).unwrap();
                    b.try_insert("E", &[id(x, y + 1), id(x, y)]).unwrap();
                }
            }
        }
        DeltaStructure::new(b.finish())
    }

    #[test]
    fn refreshed_covers_stay_valid_under_random_updates() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = grid_delta(8, 8);
        d.snapshot().gaifman();
        for r in [1u32, 2] {
            let mut mc = MaintainedCover::build(d.snapshot().gaifman(), r);
            assert!(mc.cover.verify(d.snapshot().gaifman()));
            for step in 0..30 {
                let old = d.snapshot();
                let u = rng.gen_range(0..old.order());
                let v = rng.gen_range(0..old.order());
                if u == v {
                    continue;
                }
                let present = old.holds(foc_logic::Symbol::new("E"), &[u, v]);
                let ops = if present {
                    vec![TupleOp::delete("E", &[u, v]), TupleOp::delete("E", &[v, u])]
                } else {
                    vec![TupleOp::insert("E", &[u, v]), TupleOp::insert("E", &[v, u])]
                };
                let info = d.apply(&ops).unwrap();
                let new = d.snapshot();
                let stats = mc.refresh(old.gaifman(), new.gaifman(), &info.touched);
                assert!(
                    mc.cover.verify(new.gaifman()),
                    "cover invalid at r={r} step={step}"
                );
                // Locality: the repair must not have rebuilt everything.
                assert!(stats.reassigned < old.order() as usize);
            }
        }
    }

    #[test]
    fn store_migrates_and_retires() {
        let mut d = grid_delta(6, 6);
        d.snapshot().gaifman();
        let store = CoverStore::default();
        let old = d.snapshot();
        let c1 = store.get_or_build(&old, 1);
        assert!(c1.verify(old.gaifman()));
        assert_eq!(store.len(), 1);
        // A second build is a hit, not a rebuild.
        let c1b = store.get_or_build(&old, 1);
        assert_eq!(c1.clusters, c1b.clusters);
        let info = d
            .apply(&[
                TupleOp::insert("E", &[0, 35]),
                TupleOp::insert("E", &[35, 0]),
            ])
            .unwrap();
        let new = d.snapshot();
        let stats = store.migrate(&old, &new, &info.touched);
        assert_eq!(stats.len(), 1);
        let c2 = store.get_or_build(&new, 1);
        assert!(c2.verify(new.gaifman()));
        assert_eq!(store.len(), 2);
        assert_eq!(store.retire(old.fingerprint()), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_capacity_evicts_fifo() {
        let store = CoverStore::with_capacity(2);
        let mut d = grid_delta(4, 4);
        for _ in 0..4 {
            let s = d.snapshot();
            store.get_or_build(&s, 1);
            let present = s.holds(foc_logic::Symbol::new("E"), &[0, 1]);
            let op = if present {
                TupleOp::delete("E", &[0, 1])
            } else {
                TupleOp::insert("E", &[0, 1])
            };
            d.apply(&[op]).unwrap();
        }
        assert!(store.len() <= 2);
    }
}
