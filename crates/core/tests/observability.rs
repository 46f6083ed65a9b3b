//! Integration tests for the observability wiring: a cover-engine run
//! over a generated grid must populate the metrics registry (counters,
//! the cluster/ball histograms, the term cache), keep histogram totals
//! consistent with their counters, and emit a span tree whose `cover`
//! span nests under the session root.

use std::sync::Arc;

use foc_core::{EngineKind, Evaluator};
use foc_logic::parse::parse_term;
use foc_obs::{build_tree, names, MemorySink, Sink};
use foc_structures::gen::grid;

#[test]
fn cover_engine_metrics_and_span_tree() {
    let sink = MemorySink::shared();
    let ev = Evaluator::builder()
        .kind(EngineKind::Cover)
        .sink(sink.clone() as Arc<dyn Sink>)
        .build()
        .unwrap();
    let g = grid(12, 12);
    let term = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
    let mut session = ev.session(&g);
    let value = session.eval_ground(&term).unwrap();
    assert!(value > 0, "far pairs exist on a 12x12 grid");

    let stats = session.stats();
    assert!(stats.clusters > 0, "cover engine must form clusters");
    assert!(stats.covers_built > 0, "at least one cover must be built");
    assert!(
        stats.cache_hits + stats.cache_misses > 0,
        "term cache must be exercised"
    );

    // Histogram totals equal their counters: cluster sizes are observed
    // exactly once per cluster, ball sizes exactly once per ball.
    let snap = session.observer().metrics().snapshot();
    let cluster_hist = &snap.histograms[names::COVER_CLUSTER_SIZE];
    assert_eq!(cluster_hist.total, snap.counter(names::COVER_CLUSTERS));
    assert_eq!(cluster_hist.total, stats.clusters);
    let ball_hist = &snap.histograms[names::LOCAL_BALL_SIZE];
    assert_eq!(ball_hist.total, snap.counter(names::LOCAL_BALLS));
    assert_eq!(snap.counter(names::CACHE_HITS), stats.cache_hits);
    assert_eq!(snap.counter(names::CACHE_MISSES), stats.cache_misses);

    // Dropping the session finishes the root span; children finish
    // before parents, so the sink now holds a complete tree.
    drop(session);
    let tree = build_tree(&sink.spans());
    assert_eq!(tree.len(), 1, "exactly one session root");
    assert_eq!(tree[0].span.name, "session");
    assert!(
        tree[0].contains("cover"),
        "cover span must nest under the session root"
    );
    assert!(tree[0].contains("eval"), "eval phase span must be present");
}

#[test]
fn local_engine_records_balls_and_spans() {
    let sink = MemorySink::shared();
    let ev = Evaluator::builder()
        .kind(EngineKind::Local)
        .sink(sink.clone() as Arc<dyn Sink>)
        .build()
        .unwrap();
    let g = grid(8, 8);
    let term = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
    let mut session = ev.session(&g);
    session.eval_ground(&term).unwrap();

    let stats = session.stats();
    assert!(stats.balls > 0, "local engine enumerates balls");
    let snap = session.observer().metrics().snapshot();
    let ball_hist = &snap.histograms[names::LOCAL_BALL_SIZE];
    assert_eq!(ball_hist.total, snap.counter(names::LOCAL_BALLS));

    drop(session);
    let tree = build_tree(&sink.spans());
    assert_eq!(tree[0].span.name, "session");
    assert!(tree[0].contains("ball_enum"));
}

#[test]
fn disabled_observer_still_feeds_stats() {
    // No sink attached: spans are disabled, but the metrics registry
    // stays live so `stats()` remains a faithful typed view.
    let ev = Evaluator::builder()
        .kind(EngineKind::Cover)
        .build()
        .unwrap();
    let g = grid(10, 10);
    let term = parse_term("#(x,y). !(dist(x,y) <= 2)").unwrap();
    let mut session = ev.session(&g);
    session.eval_ground(&term).unwrap();
    let stats = session.stats();
    assert!(stats.clusters > 0);
    assert!(stats.covers_built > 0);
}

#[test]
fn naive_engine_reports_its_work() {
    let ev = Evaluator::builder()
        .kind(EngineKind::Naive)
        .build()
        .unwrap();
    let g = grid(4, 4);
    let term = parse_term("#(x,y). (E(x,y) & dist(x,y) <= 1)").unwrap();
    let mut session = ev.session(&g);
    assert_eq!(session.eval_ground(&term).unwrap(), 48);
    let snap = session.observer().metrics().snapshot();
    for name in [
        names::EVAL_ASSIGNMENTS,
        names::EVAL_ATOM_TESTS,
        names::EVAL_DIST_BFS,
        names::EVAL_GUARD_ROWS,
    ] {
        assert!(snap.counter(name) > 0, "{name} stays 0 on the naive engine");
    }
}
