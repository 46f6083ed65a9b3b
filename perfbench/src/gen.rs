//! Input generators. Every structure is built here from the seed and
//! reaches the program only as `.foc` text, so a change to the
//! program's own generators cannot change what the benchmark measures.

use std::fmt::Write as _;

use crate::rng::Rng;

/// An undirected simple graph, stored as sorted adjacency lists. It
/// becomes the `{E/2}` structure with a symmetric edge relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    pub family: &'static str,
    pub adj: Vec<Vec<u32>>,
}

impl Graph {
    pub fn from_edges(family: &'static str, n: u32, edges: &[(u32, u32)]) -> Graph {
        let mut adj = vec![Vec::new(); n as usize];
        for &(u, v) in edges {
            if u != v {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Graph { family, adj }
    }

    pub fn order(&self) -> u32 {
        self.adj.len() as u32
    }

    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// `‖A‖ = |A| + |E^A|` with both edge directions stored.
    pub fn size(&self) -> usize {
        self.adj.len() + self.adj.iter().map(Vec::len).sum::<usize>()
    }

    pub fn foc_text(&self) -> String {
        let mut out = String::with_capacity(self.size() * 12);
        let _ = writeln!(out, "universe {}\nrel E 2", self.order());
        for (u, list) in self.adj.iter().enumerate() {
            for v in list {
                let _ = writeln!(out, "E {u} {v}");
            }
        }
        out
    }
}

/// A `w × h` grid.
pub fn grid(w: u32, h: u32) -> Graph {
    let id = |x: u32, y: u32| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    Graph::from_edges("grid", w * h, &edges)
}

/// A random recursive tree: vertex `i` attaches to a uniform earlier one.
pub fn random_tree(n: u32, rng: &mut Rng) -> Graph {
    let edges: Vec<(u32, u32)> = (1..n)
        .map(|i| (rng.below(u64::from(i)) as u32, i))
        .collect();
    Graph::from_edges("tree", n, &edges)
}

/// A random tree of maximum degree 4: vertex `i` attaches to a uniform
/// earlier vertex that still has spare degree. Without the hubs of a
/// random recursive tree, its neighbourhoods vary less from seed to
/// seed, and so does the cost of evaluating on it (on 500 vertices the
/// cover engine's time on random recursive trees differed by up to 1.7×
/// between seeds).
pub fn bounded_tree(n: u32, rng: &mut Rng) -> Graph {
    let mut deg = vec![0usize; n as usize];
    let mut edges = Vec::new();
    for i in 1..n {
        let p = loop {
            let p = rng.below(u64::from(i)) as usize;
            if deg[p] < 4 {
                break p;
            }
        };
        deg[p] += 1;
        deg[i as usize] += 1;
        edges.push((p as u32, i));
    }
    Graph::from_edges("tree4", n, &edges)
}

/// A random graph of maximum degree `d`: `3n` proposed pairs, each kept
/// while both endpoints have spare degree.
pub fn bounded_degree(n: u32, d: usize, rng: &mut Rng) -> Graph {
    let mut deg = vec![0usize; n as usize];
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for _ in 0..3 * n {
        let u = rng.below(u64::from(n)) as u32;
        let v = rng.below(u64::from(n)) as u32;
        let key = (u.min(v), u.max(v));
        if u == v || deg[u as usize] >= d || deg[v as usize] >= d || !seen.insert(key) {
            continue;
        }
        deg[u as usize] += 1;
        deg[v as usize] += 1;
        edges.push(key);
    }
    Graph::from_edges("deg3", n, &edges)
}

/// A customers → country database with Zipf-skewed country sizes (the
/// big countries are hubs of the Gaifman graph) and orders per customer.
/// Elements: countries `0..countries`, then customers, then orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubDb {
    pub countries: u32,
    /// Country of each customer (customer `i` is element `countries + i`).
    pub country_of: Vec<u32>,
    /// `(order element, customer element)`.
    pub orders: Vec<(u32, u32)>,
}

impl HubDb {
    pub fn order(&self) -> u32 {
        self.countries + self.country_of.len() as u32 + self.orders.len() as u32
    }

    pub fn size(&self) -> usize {
        self.order() as usize + self.country_of.len() + self.orders.len()
    }

    pub fn customer(&self, i: usize) -> u32 {
        self.countries + i as u32
    }

    pub fn foc_text(&self) -> String {
        let mut out = String::with_capacity(self.size() * 14);
        let _ = writeln!(out, "universe {}\nrel Cust 2\nrel Ord 2", self.order());
        for (i, &c) in self.country_of.iter().enumerate() {
            let _ = writeln!(out, "Cust {} {c}", self.customer(i));
        }
        for &(o, c) in &self.orders {
            let _ = writeln!(out, "Ord {o} {c}");
        }
        out
    }
}

pub fn hub_db(customers: u32, countries: u32, rng: &mut Rng) -> HubDb {
    let zipf = crate::rng::Zipf::new(countries as usize, 1.0);
    let country_of: Vec<u32> = (0..customers).map(|_| zipf.sample(rng) as u32).collect();
    let mut orders = Vec::new();
    let mut next = countries + customers;
    for i in 0..customers {
        for _ in 0..rng.below(3) {
            orders.push((next, countries + i));
            next += 1;
        }
    }
    HubDb {
        countries,
        country_of,
        orders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_respect_their_classes() {
        let mut rng = Rng::new(3);
        let t = random_tree(500, &mut rng);
        assert_eq!(t.size() - 500, 2 * 499);
        let b = bounded_tree(500, &mut rng);
        assert_eq!(b.size() - 500, 2 * 499);
        assert!((0..500).all(|v| b.degree(v) <= 4));
        let d = bounded_degree(500, 3, &mut rng);
        assert!((0..500).all(|v| d.degree(v) <= 3));
        let g = grid(4, 3);
        assert_eq!(g.size(), 12 + 2 * (3 * 3 + 4 * 2));
    }
}
