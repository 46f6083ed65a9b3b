//! Sample statistics and process/host facts.

/// Nearest-rank percentile of unsorted samples (`p` in `0..=100`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentile `p` of weighted samples `(value, weight)`, interpolated
/// linearly between the weight midpoints of neighbouring samples, so a
/// small shift in the weights moves it smoothly instead of jumping
/// across a gap between clusters of values.
pub fn weighted_percentile(samples: &[(f64, f64)], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = v.iter().map(|s| s.1).sum();
    let target = total * p / 100.0;
    let mut below = 0.0;
    let mut prev: Option<(f64, f64)> = None;
    for &(x, w) in &v {
        let mid = below + w / 2.0;
        if mid >= target {
            return match prev {
                Some((px, pmid)) if mid > pmid => px + (x - px) * (target - pmid) / (mid - pmid),
                _ => x,
            };
        }
        prev = Some((x, mid));
        below += w;
    }
    v.last().map_or(f64::NAN, |s| s.0)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process (all threads), in
/// seconds, at clock-tick resolution.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The git revision of the checkout, read from `.git` when there is
/// one (a plain source tree reports `unknown`).
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..40.min(l.len())].to_string())
            }),
            None => Some(head),
        }
        .unwrap_or_else(|| "unknown".to_string()),
        None => "unknown".to_string(),
    }
}

/// The reference probe time: scaled times are those of a host on which
/// one probe run takes this long. Only the scale of the reported times
/// depends on it.
const PROBE_NOMINAL_S: f64 = 2.5e-3;
/// Vertices whose capped neighbourhood one probe run collects.
const PROBE_BALLS: usize = 1024;
/// Elements per collected neighbourhood.
const PROBE_BALL_CAP: usize = 40;

/// A fixed unit of the benchmark's own work, timed between
/// measurements to track the host's speed. It mimics ball enumeration:
/// for each of 1,024 vertices of a fixed bounded-degree graph it
/// collects the nearest 40 vertices by BFS into a fresh vector and hash
/// set. On a shared host the speed of a CPU changes by 1.3–1.5× within
/// seconds and drifts over minutes (other tenants on the same cores
/// and caches); scaling each measurement by
/// `PROBE_NOMINAL_S / probe time` cancels much of that. A probe with this
/// allocation and hashing mix tracked the query workload's slowdowns
/// closely (correlation 0.97 over 30-query blocks); a pure BFS over
/// flat arrays tracked them less well (0.94) and under-corrected.
pub struct Probe {
    adj: Vec<Vec<u32>>,
}

impl Probe {
    pub fn new() -> Probe {
        let g = crate::gen::bounded_degree(4096, 3, &mut crate::rng::Rng::new(0));
        Probe { adj: g.adj }
    }

    /// One probe run on this thread, in seconds.
    fn time(&self) -> f64 {
        let t0 = std::time::Instant::now();
        let mut total = 0usize;
        for v in 0..PROBE_BALLS as u32 {
            let mut seen = std::collections::HashSet::new();
            let mut ball = vec![v];
            seen.insert(v);
            let mut i = 0;
            while i < ball.len() && ball.len() < PROBE_BALL_CAP {
                for &w in &self.adj[ball[i] as usize] {
                    if seen.insert(w) {
                        ball.push(w);
                    }
                }
                i += 1;
            }
            total += std::hint::black_box(ball).len();
        }
        std::hint::black_box(total);
        t0.elapsed().as_secs_f64()
    }

    /// The scale from wall time now to nominal time.
    pub fn scale(&self) -> f64 {
        PROBE_NOMINAL_S / self.time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(75, 80.0), 15);
        // Weight midpoints at 12.5%, 37.5% and 75% of the total.
        let w = [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0)];
        assert_eq!(weighted_percentile(&w, 37.5), 2.0);
        assert_eq!(weighted_percentile(&w, 56.25), 2.5);
        assert_eq!(weighted_percentile(&w, 5.0), 1.0);
        assert_eq!(weighted_percentile(&w, 90.0), 3.0);
    }
}
