//! The canonical metric lists. Every workload reports every metric of
//! its mode — a layer that does no work on a workload reports 0 — so
//! runs of different workloads and commits line up name for name.

use std::collections::BTreeMap;

use crate::Metric;

/// The end-to-end metrics of an untraced run, `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run, `(name, unit)`. "op" is one
/// query on the query workloads and one read request on serve-mixed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("logic.parse_us", "us"),
    ("structures.load_ms", "ms"),
    ("structures.commit_us", "us"),
    ("locality.decompose_ms", "ms/op"),
    ("locality.clterms", "count/op"),
    ("locality.basics", "count/op"),
    ("locality.eval_ms", "ms/op"),
    ("locality.balls", "count/op"),
    ("locality.ball_elements_per_ball", "count"),
    ("locality.tuples_checked", "count/op"),
    ("cache.hits", "count/op"),
    ("cache.misses", "count/op"),
    ("cache.hit_ratio", "ratio"),
    ("locality.migrate_us", "us"),
    ("covers.build_ms", "ms/op"),
    ("covers.eval_ms", "ms/op"),
    ("covers.clusters", "count/op"),
    ("covers.removals", "count/op"),
    ("covers.peak_cluster", "count"),
    ("covers.weight_per_element", "ratio"),
    ("covers.naive_fallbacks", "count/op"),
    ("parallel.items", "count/op"),
    ("parallel.workers", "count"),
    ("process.cpu_per_wall", "ratio"),
    ("core.self_ms", "ms/op"),
    ("core.naive_fallbacks", "count/op"),
    ("serve.self_us", "us"),
    ("serve.server_latency_p50_us", "us"),
    ("serve.read_p50_us", "us"),
    ("serve.read_p99_us", "us"),
    ("serve.update_p50_us", "us"),
    ("serve.update_p90_us", "us"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("wal.bytes_per_update", "bytes"),
    ("wal.syncs_per_update", "ratio"),
    ("wal.recover_ms", "ms"),
    ("recovery.replayed_records", "count"),
    ("recovery.restart_s", "s"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_share", "ratio"),
    ("trace.direct_vs_engine", "ratio"),
];

/// Values by per-layer metric name; unset metrics report 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's manifest lists exactly these metrics, in order.
    #[test]
    fn manifest_lists_the_same_metrics() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = manifest[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            at += found + entry.len();
        }
        assert_eq!(
            manifest.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
