//! Undirected graphs in CSR form, BFS utilities, distances, balls, and
//! connected components — everything Section 2 needs of Gaifman graphs.

use crate::hash::FxHashMap;

/// An undirected graph with vertex set `0..n` in compressed sparse row
/// form. Adjacency lists are sorted and deduplicated; no self-loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u32>,
    adj: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an edge list (pairs are symmetrised, self-loops
    /// dropped, duplicates removed).
    pub fn from_edges(n: u32, edges: &[(u32, u32)]) -> Graph {
        let mut deg = vec![0u32; n as usize];
        let mut sym: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
            if u != v {
                sym.push((u, v));
                sym.push((v, u));
            }
        }
        sym.sort_unstable();
        sym.dedup();
        for &(u, _) in &sym {
            deg[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let adj: Vec<u32> = sym.into_iter().map(|(_, v)| v).collect();
        Graph { offsets, adj }
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// The size `‖G‖ = |V| + |E|`.
    pub fn size(&self) -> usize {
        self.n() as usize + self.num_edges()
    }

    /// The sorted neighbour list of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let a = self.offsets[v as usize] as usize;
        let b = self.offsets[v as usize + 1] as usize;
        &self.adj[a..b]
    }

    /// The degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// The maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// `true` iff `{u, v}` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The r-ball `N_r(centers)` as a sorted vector, using `scratch` to
    /// avoid allocation across calls.
    pub fn ball(&self, centers: &[u32], r: u32, scratch: &mut BfsScratch) -> Vec<u32> {
        let mut out = Vec::new();
        self.ball_into(centers, r, scratch, &mut out);
        out
    }

    /// Like [`Graph::ball`], writing into `out` (cleared first).
    pub fn ball_into(&self, centers: &[u32], r: u32, scratch: &mut BfsScratch, out: &mut Vec<u32>) {
        scratch.search(self, centers, r, None);
        out.clear();
        out.extend_from_slice(scratch.reached());
        out.sort_unstable();
    }

    /// Bounded distance: `Some(d)` with `d = dist(a, b)` if `d ≤ cap`,
    /// `None` otherwise. The search stops at the level that reaches `b`.
    pub fn dist_bounded(&self, a: u32, b: u32, cap: u32, scratch: &mut BfsScratch) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        scratch.search(self, &[a], cap, Some(b))
    }

    /// `dist(a, b) ≤ d`?
    pub fn dist_le(&self, a: u32, b: u32, d: u32, scratch: &mut BfsScratch) -> bool {
        self.dist_bounded(a, b, d, scratch).is_some()
    }

    /// Level-ordered BFS from `src` up to distance `cap`, kept in
    /// `scratch`: afterwards [`BfsScratch::dist`] is one array lookup and
    /// [`BfsScratch::within`] the radius-`d` ball for any `d ≤ cap`.
    pub fn bfs(&self, src: u32, cap: u32, scratch: &mut BfsScratch) {
        scratch.search(self, &[src], cap, None);
    }

    /// BFS distances from `src` up to `cap`, as a map (vertices beyond
    /// `cap` are absent).
    pub fn distances_from(
        &self,
        src: u32,
        cap: u32,
        scratch: &mut BfsScratch,
    ) -> FxHashMap<u32, u32> {
        self.bfs(src, cap, scratch);
        scratch
            .reached()
            .iter()
            .map(|&v| {
                (
                    v,
                    scratch.dist(v).unwrap_or_else(|| unreachable!("reached")),
                )
            })
            .collect()
    }

    /// Connected components; returns `(component_id per vertex, count)`.
    pub fn components(&self) -> (Vec<u32>, usize) {
        let n = self.n() as usize;
        let mut comp = vec![u32::MAX; n];
        let mut count = 0usize;
        let mut stack = Vec::new();
        for s in 0..n as u32 {
            if comp[s as usize] != u32::MAX {
                continue;
            }
            comp[s as usize] = count as u32;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for &w in self.neighbors(u) {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = count as u32;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }

    /// `true` iff the graph is connected (the empty graph counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        self.n() == 0 || self.components().1 == 1
    }

    /// A degeneracy-style ordering: repeatedly remove a minimum-degree
    /// vertex. Returns `order[i] = position of vertex i` (smaller =
    /// earlier). Used as the cluster-centre order of the neighbourhood
    /// cover (DESIGN.md §3.4).
    pub fn degeneracy_positions(&self) -> Vec<u32> {
        let n = self.n() as usize;
        let mut deg: Vec<usize> = (0..n as u32).map(|v| self.degree(v)).collect();
        let maxd = deg.iter().copied().max().unwrap_or(0);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); maxd + 1];
        for (v, &d) in deg.iter().enumerate() {
            buckets[d].push(v as u32);
        }
        let mut removed = vec![false; n];
        let mut pos = vec![0u32; n];
        let mut cur = 0usize;
        for next_pos in 0..n as u32 {
            while cur <= maxd && buckets[cur].is_empty() {
                cur += 1;
            }
            // Find the lowest non-empty bucket with a live vertex.
            let v = loop {
                while cur <= maxd && buckets[cur].is_empty() {
                    cur += 1;
                }
                debug_assert!(cur <= maxd || n == 0, "ran out of vertices");
                let cand = buckets[cur].pop().expect("bucket nonempty");
                if !removed[cand as usize] && deg[cand as usize] == cur {
                    break cand;
                }
                if !removed[cand as usize] {
                    // Stale entry; re-file under the current degree.
                    buckets[deg[cand as usize]].push(cand);
                }
            };
            removed[v as usize] = true;
            pos[v as usize] = next_pos;
            for &w in self.neighbors(v) {
                if !removed[w as usize] && deg[w as usize] > 0 {
                    deg[w as usize] -= 1;
                    let d = deg[w as usize];
                    buckets[d].push(w);
                    if d < cur {
                        cur = d;
                    }
                }
            }
        }
        pos
    }
}

/// Reusable BFS state: stamped marks that double as distances, and the
/// reached vertices in level order.
///
/// A search writes `base + dist(v)` into `marks[v]` for every vertex it
/// reaches; marks below `base` are left over from earlier searches. A new
/// search takes a `base` above every mark written so far, so nothing is
/// cleared between searches: the marks are zero-filled only when the
/// stamp would wrap. After a search from `src` capped at `cap`,
/// `dist(v)` is one lookup, and for any `d ≤ cap` the radius-`d` ball is
/// a prefix of the reached list.
#[derive(Debug, Default, Clone)]
pub struct BfsScratch {
    marks: Vec<u32>,
    /// Stamp of the last search (distance 0).
    base: u32,
    /// Highest mark any search has written since the last zero-fill.
    top: u32,
    /// Reached vertices, in nondecreasing distance.
    order: Vec<u32>,
    /// `ends[d]`: number of reached vertices at distance `≤ d`.
    ends: Vec<u32>,
    /// Source of the last search, if it had exactly one.
    src: Option<u32>,
    /// Distances up to `cap` are complete (`u32::MAX` once the search
    /// exhausted its component).
    cap: u32,
}

impl BfsScratch {
    /// Creates scratch space (lazily sized on first use).
    pub fn new() -> BfsScratch {
        BfsScratch::default()
    }

    /// The single source of the last search (`None` before any search
    /// and after a multi-source one).
    #[inline]
    pub fn source(&self) -> Option<u32> {
        self.src
    }

    /// The radius up to which the last search's distances are complete
    /// (`u32::MAX` when it exhausted the component).
    #[inline]
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Distance from the last search's sources to `v`, if at most
    /// [`BfsScratch::cap`].
    #[inline]
    pub fn dist(&self, v: u32) -> Option<u32> {
        let m = *self.marks.get(v as usize)?;
        let d = m.checked_sub(self.base)?;
        (d <= self.cap).then_some(d)
    }

    /// Every vertex within [`BfsScratch::cap`] of the sources, in
    /// nondecreasing distance.
    #[inline]
    pub fn reached(&self) -> &[u32] {
        self.within(self.cap)
    }

    /// The vertices within distance `d` of the sources, in nondecreasing
    /// distance. `d` must not exceed [`BfsScratch::cap`].
    #[inline]
    pub fn within(&self, d: u32) -> &[u32] {
        assert!(
            d <= self.cap,
            "radius {d} beyond the search cap {}",
            self.cap
        );
        let end = self
            .ends
            .get(d as usize)
            .or(self.ends.last())
            .map_or(0, |&e| e as usize);
        &self.order[..end]
    }

    /// Level-ordered BFS from `sources` up to distance `cap`. With a
    /// `target`, stops at the level that reaches it and returns its
    /// distance; the completed levels stay valid.
    fn search(&mut self, g: &Graph, sources: &[u32], cap: u32, target: Option<u32>) -> Option<u32> {
        let n = g.n() as usize;
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        // This search writes marks up to `top + 1 + levels`, where the
        // number of non-empty levels is below `n`.
        let levels = cap.min(g.n());
        if u32::MAX - self.top <= levels {
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.top = 0;
        }
        let base = self.top + 1;
        self.base = base;
        self.src = match sources {
            [s] => Some(*s),
            _ => None,
        };
        self.order.clear();
        self.ends.clear();
        for &s in sources {
            if self.marks[s as usize] < base {
                self.marks[s as usize] = base;
                self.order.push(s);
            }
        }
        let mut level_start = 0;
        let mut d = 0u32;
        loop {
            let level_end = self.order.len();
            self.ends.push(level_end as u32);
            if level_start == level_end {
                self.cap = u32::MAX;
                break;
            }
            if d == cap {
                self.cap = cap;
                break;
            }
            d += 1;
            for i in level_start..level_end {
                let u = self.order[i];
                for &w in g.neighbors(u) {
                    let slot = &mut self.marks[w as usize];
                    if *slot < base {
                        *slot = base + d;
                        self.order.push(w);
                        if target == Some(w) {
                            self.cap = d - 1;
                            self.top = base + d;
                            return Some(d);
                        }
                    }
                }
            }
            level_start = level_end;
        }
        self.top = base + d;
        // A target within `cap` returned from inside the loop.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn csr_basics() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 2), (2, 2)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.num_edges(), 2); // duplicate and self-loop dropped
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn balls_on_a_path() {
        let g = path_graph(10);
        let mut s = BfsScratch::new();
        assert_eq!(g.ball(&[5], 0, &mut s), vec![5]);
        assert_eq!(g.ball(&[5], 2, &mut s), vec![3, 4, 5, 6, 7]);
        assert_eq!(g.ball(&[0], 3, &mut s), vec![0, 1, 2, 3]);
        assert_eq!(g.ball(&[0, 9], 1, &mut s), vec![0, 1, 8, 9]);
    }

    #[test]
    fn distances_match_path_metric() {
        let g = path_graph(12);
        let mut s = BfsScratch::new();
        for a in 0..12u32 {
            for b in 0..12u32 {
                let true_d = a.abs_diff(b);
                assert_eq!(g.dist_bounded(a, b, 12, &mut s), Some(true_d));
                assert!(g.dist_le(a, b, true_d, &mut s));
                if true_d > 0 {
                    assert!(!g.dist_le(a, b, true_d - 1, &mut s));
                }
            }
        }
    }

    #[test]
    fn dist_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut s = BfsScratch::new();
        assert_eq!(g.dist_bounded(0, 3, 10, &mut s), None);
        let (comp, k) = g.components();
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
        assert!(!g.is_connected());
    }

    #[test]
    fn distances_from_cap() {
        let g = path_graph(10);
        let mut s = BfsScratch::new();
        let d = g.distances_from(0, 3, &mut s);
        assert_eq!(d.len(), 4);
        assert_eq!(d.get(&3), Some(&3));
        assert_eq!(d.get(&4), None);
    }

    #[test]
    fn degeneracy_order_on_star() {
        // In a star, leaves (degree 1) are removed before the hub.
        let edges: Vec<(u32, u32)> = (1..6u32).map(|i| (0, i)).collect();
        let g = Graph::from_edges(6, &edges);
        let pos = g.degeneracy_positions();
        // The hub 0 ends up late: all leaves have smaller positions except
        // possibly the very last leaf (once all leaves are gone the hub has
        // degree 0). At least 4 of the 5 leaves precede the hub.
        let before_hub = (1..6).filter(|&l| pos[l] < pos[0]).count();
        assert!(before_hub >= 4, "positions: {pos:?}");
    }

    /// All-pairs distances by Floyd–Warshall (`None` = unreachable).
    fn brute_distances(g: &Graph) -> Vec<Vec<Option<u32>>> {
        let n = g.n() as usize;
        let mut d = vec![vec![None; n]; n];
        for (u, row) in d.iter_mut().enumerate() {
            row[u] = Some(0);
            for &w in g.neighbors(u as u32) {
                row[w as usize] = Some(1);
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if let (Some(a), Some(b)) = (d[i][k], d[k][j]) {
                        if d[i][j].is_none_or(|c| a + b < c) {
                            d[i][j] = Some(a + b);
                        }
                    }
                }
            }
        }
        d
    }

    fn layered_test_graphs() -> Vec<Graph> {
        let grid: Vec<(u32, u32)> = (0..16u32)
            .flat_map(|v| {
                let right = (v % 4 < 3).then_some((v, v + 1));
                let down = (v < 12).then_some((v, v + 4));
                right.into_iter().chain(down)
            })
            .collect();
        vec![
            path_graph(9),
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]),
            Graph::from_edges(16, &grid),
            Graph::from_edges(8, &[(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)]),
        ]
    }

    /// Checks the scratch's last search from `src` capped at `cap`
    /// against brute-force distances.
    fn assert_layers(s: &BfsScratch, brute: &[Vec<Option<u32>>], src: u32, cap: u32) {
        assert_eq!(s.source(), Some(src));
        assert!(s.cap() >= cap);
        for (v, want) in brute[src as usize].iter().enumerate() {
            let want = want.filter(|&d| d <= cap);
            let got = s.dist(v as u32).filter(|&d| d <= cap);
            assert_eq!(got, want, "dist({src},{v}) at cap {cap}");
        }
        for d in 0..=cap {
            let mut got = s.within(d).to_vec();
            got.sort_unstable();
            let want: Vec<u32> = (0..brute.len() as u32)
                .filter(|&v| brute[src as usize][v as usize].is_some_and(|x| x <= d))
                .collect();
            assert_eq!(got, want, "ball({src},{d})");
        }
    }

    #[test]
    fn layered_bfs_matches_brute_force() {
        for g in layered_test_graphs() {
            let brute = brute_distances(&g);
            let mut s = BfsScratch::new();
            let mut probe = BfsScratch::new();
            for src in 0..g.n() {
                for cap in 0..=4 {
                    g.bfs(src, cap, &mut s);
                    assert_layers(&s, &brute, src, cap);
                    // Cap 0 is the source alone; a == b is distance 0.
                    assert_eq!(s.within(0), &[src]);
                    assert_eq!(s.dist(src), Some(0));
                    for b in 0..g.n() {
                        let want = brute[src as usize][b as usize].filter(|&d| d <= cap);
                        assert_eq!(g.dist_bounded(src, b, cap, &mut probe), want);
                    }
                }
            }
        }
    }

    #[test]
    fn early_exit_keeps_the_completed_levels() {
        let g = path_graph(10);
        let mut s = BfsScratch::new();
        assert_eq!(g.dist_bounded(0, 5, 9, &mut s), Some(5));
        assert_eq!(s.cap(), 4);
        assert_eq!(s.dist(4), Some(4));
        assert_eq!(s.dist(5), None);
        assert_eq!(s.reached().len(), 5);
        assert_eq!(g.dist_bounded(0, 9, 3, &mut s), None);
        assert_eq!(g.dist_bounded(3, 3, 0, &mut s), Some(0));
    }

    #[test]
    fn exhausted_component_answers_every_radius() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let mut s = BfsScratch::new();
        g.bfs(0, 100, &mut s);
        assert_eq!(s.cap(), u32::MAX);
        assert_eq!(s.within(1000), &[0, 1, 2]);
        assert_eq!(s.dist(4), None);
    }

    #[test]
    fn stamp_wrap_around_zero_fills_the_marks() {
        for g in layered_test_graphs() {
            let brute = brute_distances(&g);
            let mut s = BfsScratch::new();
            g.bfs(0, 2, &mut s);
            // Start just below the wrap so the next searches cross it.
            s.top = u32::MAX - 6;
            let mut wrapped = false;
            for round in 0..6u32 {
                for src in 0..g.n() {
                    let cap = (src + round) % 4;
                    g.bfs(src, cap, &mut s);
                    wrapped |= s.base == 1;
                    assert_layers(&s, &brute, src, cap);
                }
            }
            assert!(wrapped, "the stamp must have wrapped");
        }
    }

    #[test]
    fn scratch_stamping_is_reusable() {
        let g = path_graph(5);
        let mut s = BfsScratch::new();
        for _ in 0..100 {
            assert_eq!(g.ball(&[2], 1, &mut s), vec![1, 2, 3]);
        }
    }
}
