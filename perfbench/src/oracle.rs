//! Independent answers, computed directly from the benchmark's own
//! generated data (BFS ball sizes, degree tallies, group counts) without
//! any code of the program under test.

use std::collections::HashMap;

/// Radius-`r` ball sizes `|B_r(v)|` of every vertex of an undirected
/// graph given by adjacency lists.
pub fn ball_sizes(adj: &[Vec<u32>], r: u32) -> Vec<u32> {
    let n = adj.len();
    let mut stamp = vec![u32::MAX; n];
    let mut frontier = Vec::new();
    let mut next = Vec::new();
    let mut out = Vec::with_capacity(n);
    for v in 0..n {
        stamp[v] = v as u32;
        frontier.clear();
        frontier.push(v as u32);
        let mut size = 1u32;
        for _ in 0..r {
            next.clear();
            for &u in &frontier {
                for &w in &adj[u as usize] {
                    if stamp[w as usize] != v as u32 {
                        stamp[w as usize] = v as u32;
                        next.push(w);
                    }
                }
            }
            size += next.len() as u32;
            std::mem::swap(&mut frontier, &mut next);
            if frontier.is_empty() {
                break;
            }
        }
        out.push(size);
    }
    out
}

pub fn is_prime(n: i64) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n % d == 0 {
            return false;
        }
        d += 1;
    }
    true
}

/// Ball sizes per radius, computed once per structure and radius.
#[derive(Debug, Default)]
pub struct Balls {
    by_radius: HashMap<u32, Vec<u32>>,
}

impl Balls {
    pub fn get(&mut self, adj: &[Vec<u32>], r: u32) -> &[u32] {
        self.by_radius
            .entry(r)
            .or_insert_with(|| ball_sizes(adj, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balls_on_a_path() {
        let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        assert_eq!(ball_sizes(&adj, 1), vec![2, 3, 3, 2]);
        assert_eq!(ball_sizes(&adj, 2), vec![3, 4, 4, 3]);
        assert_eq!(ball_sizes(&adj, 0), vec![1, 1, 1, 1]);
    }

    #[test]
    fn primes() {
        let ps: Vec<i64> = (0..20).filter(|&n| is_prime(n)).collect();
        assert_eq!(ps, vec![2, 3, 5, 7, 11, 13, 17, 19]);
    }
}
