//! The two query workloads: `query-large` (the default engine on
//! structures of ~16k elements) and `query-cover` (the Section 8 cover +
//! removal engine, two worker threads, on ~500 elements).

use std::time::{Duration, Instant};

use foc_core::{CoverConfig, EngineKind, Evaluator};
use foc_covers::cover_structure;
use foc_logic::Predicates;
use foc_structures::io::parse_structure;
use foc_structures::Structure;

use crate::direct::{Counts, Direct};
use crate::gen;
use crate::json::J;
use crate::layers::Layers;
use crate::queries::{batch, evaluate, Answer, Dataset, Parsed, QuerySpec, Slot, Template};
use crate::rng::Rng;
use crate::stats::{beyond, median, weighted_percentile, Probe};
use crate::trace::Tracer;
use crate::{Metric, Outcome};

/// Rounds of the slot cycle generated up front (more than a run uses).
const ROUNDS: usize = 8;
/// The tail percentile reported as `tail_ms`. It is fixed, so runs stay
/// comparable; a run answers about 90–180 queries, which leaves at least ten
/// samples beyond it.
const TAIL_PCT: f64 = 80.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Large,
    Cover,
}

impl Kind {
    fn engine(self) -> EngineKind {
        match self {
            Kind::Large => EngineKind::Local,
            Kind::Cover => EngineKind::Cover,
        }
    }

    fn threads(self) -> usize {
        match self {
            Kind::Large => 1,
            Kind::Cover => 2,
        }
    }

    /// Structure loads repeated in set-up; `setup_s` is the median of
    /// their probe-scaled times. The small cover structures load in about
    /// a millisecond, so they are loaded more often.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Large => 31,
            Kind::Cover => 201,
        }
    }

    /// How query times are scaled by the speed probe (see `Probe`), which
    /// runs on one thread after every query. `query-large` scales each
    /// query by the mean of the probes before and after it. The
    /// two-thread cover workload scales every query of the run by the
    /// median of all its probes: in five trial sets of 5–10 seeds the
    /// quartile spread of its throughput was 6–13% scaled this way,
    /// against 10–27% unscaled and 11–24% scaled by a two-thread probe.
    fn per_query_scale(self) -> bool {
        self == Kind::Large
    }

    fn evaluator(self) -> Evaluator {
        match self {
            // The default engine, as library and CLI users get it.
            Kind::Large => Evaluator::builder().build(),
            Kind::Cover => Evaluator::builder()
                .kind(EngineKind::Cover)
                .threads(self.threads())
                .build(),
        }
        .expect("the evaluator configuration is valid")
    }
}

/// The generated inputs of a query workload: its datasets and the
/// query batch with expected answers.
pub struct Inputs {
    pub datasets: Vec<Dataset>,
    pub queries: Vec<QuerySpec>,
}

pub fn inputs(kind: Kind, seed: u64) -> Inputs {
    let mut rng = Rng::derive(seed, "structures");
    let mut datasets = match kind {
        Kind::Large => vec![
            Dataset::graph(gen::grid(128, 128)),
            Dataset::graph(gen::random_tree(16_384, &mut rng)),
            Dataset::graph(gen::bounded_degree(16_384, 3, &mut rng)),
            Dataset::hub(gen::hub_db(8_000, 200, &mut rng)),
        ],
        Kind::Cover => vec![
            Dataset::graph(gen::grid(23, 22)),
            Dataset::graph(gen::bounded_tree(500, &mut rng)),
            Dataset::graph(gen::bounded_degree(500, 3, &mut rng)),
        ],
    };
    let slots = slots(kind);
    let queries = batch(
        &mut datasets,
        &slots,
        ROUNDS,
        &mut Rng::derive(seed, "queries"),
    );
    Inputs { datasets, queries }
}

/// The fixed slot cycle of one round: `(template, radius, k range,
/// datasets)`. Radius 3 appears on some templates only. Under the cover
/// engine the grid gets the cheap templates only: its far-pair and
/// radius-2 terms take one to three seconds each there.
fn slots(kind: Kind) -> Vec<Slot> {
    use Template::*;
    const GRAPHS: &[usize] = &[0, 1, 2];
    const SPARSE: &[usize] = &[1, 2];
    const HUB: &[usize] = &[3];
    let cycle: &[(Template, u32, u32, u32, &[usize])] = match kind {
        Kind::Large => &[
            (Far, 1, 0, 7, GRAPHS),
            (OrdBig, 0, 1, 400, HUB),
            (Ball, 2, 0, 7, GRAPHS),
            (Thresh, 3, 1, 40, GRAPHS),
            (BigCountry, 0, 1, 400, HUB),
            (DegPairs, 0, 0, 9, GRAPHS),
            (Parity, 1, 1, 8, GRAPHS),
            (PerCountry, 0, 1, 400, HUB),
            (Prime, 2, 0, 7, GRAPHS),
            (Far, 3, 0, 7, GRAPHS),
            (Orders, 0, 1, 3, HUB),
            (Thresh, 1, 1, 12, GRAPHS),
            (Ball, 1, 0, 7, GRAPHS),
            (Parity, 2, 1, 8, GRAPHS),
            (Prime, 3, 0, 7, GRAPHS),
            (Far, 2, 0, 7, GRAPHS),
        ],
        Kind::Cover => &[
            (Far, 1, 0, 7, GRAPHS),
            (Ball, 2, 0, 7, SPARSE),
            (Thresh, 1, 1, 12, GRAPHS),
            (DegPairs, 0, 0, 9, GRAPHS),
            (Prime, 1, 0, 7, SPARSE),
            (Parity, 1, 1, 8, SPARSE),
            (Ball, 1, 0, 7, GRAPHS),
            (Thresh, 2, 1, 20, SPARSE),
        ],
    };
    let mut out = Vec::new();
    for &(template, radius, k_lo, k_hi, datasets) in cycle {
        for &dataset in datasets {
            out.push(Slot {
                dataset,
                template,
                radius,
                k_lo,
                k_hi,
            });
        }
    }
    out
}

/// Parses every dataset and builds its Gaifman graph: the set-up a user
/// pays before the first query.
fn load(datasets: &[Dataset], texts: &[String]) -> (Vec<Structure>, Vec<f64>) {
    let mut out = Vec::new();
    let mut secs = Vec::new();
    for (ds, text) in datasets.iter().zip(texts) {
        let t0 = Instant::now();
        let s = parse_structure(text).expect("generated .foc text parses");
        let _ = s.gaifman();
        secs.push(t0.elapsed().as_secs_f64());
        assert_eq!(s.order(), ds.order(), "{}: universe size", ds.name);
        out.push(s);
    }
    (out, secs)
}

struct Sample {
    slot: usize,
    /// Wall time of the query.
    ms: f64,
    /// The mean probe scale before and after the query.
    scale: f64,
    ok: bool,
}

/// Query times scaled to the nominal host (see `Kind::per_query_scale`).
fn nominal_ms(kind: Kind, samples: &[Sample]) -> Vec<f64> {
    let run_scale = median(&samples.iter().map(|s| s.scale).collect::<Vec<_>>());
    samples
        .iter()
        .map(|s| {
            s.ms * if kind.per_query_scale() {
                s.scale
            } else {
                run_scale
            }
        })
        .collect()
}

fn run_one(ev: &Evaluator, s: &[Structure], q: &QuerySpec) -> (f64, Result<Answer, String>) {
    let t0 = Instant::now();
    let r = q
        .shape
        .parse()
        .and_then(|p| evaluate(ev, &s[q.dataset], &p));
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Times queries from the batch, in order, until `budget` runs out. A
/// host fast enough to finish the batch starts it again from the top;
/// every evaluation builds a fresh cache, so a repeated query costs what
/// it did the first time. The speed probe runs between queries.
fn timed_loop(
    ev: &Evaluator,
    s: &[Structure],
    queries: &[QuerySpec],
    budget: Duration,
    probe: &Probe,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut before = probe.scale();
    for q in queries.iter().cycle() {
        if start.elapsed() >= budget {
            break;
        }
        let (ms, r) = run_one(ev, s, q);
        let after = probe.scale();
        samples.push(Sample {
            slot: q.slot,
            ms,
            scale: (before + after) / 2.0,
            ok: r.as_ref() == Ok(&q.expect),
        });
        before = after;
    }
    samples
}

fn info(kind: Kind, seed: u64, datasets: &[Dataset], samples: usize) -> Vec<(&'static str, J)> {
    vec![
        ("engine", J::str(format!("{:?}", kind.engine()))),
        ("threads", J::Int(kind.threads() as i64)),
        ("seed", J::Int(seed as i64)),
        (
            "structures",
            J::Arr(
                datasets
                    .iter()
                    .map(|d| {
                        J::obj(vec![
                            ("name", J::str(d.name.clone())),
                            ("n", J::Int(i64::from(d.order()))),
                            ("size", J::Int(d.size() as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("setup_reps", J::Int(kind.setup_reps() as i64)),
        ("query_samples", J::Int(samples as i64)),
        ("tail_percentile", J::Num(TAIL_PCT)),
        (
            "tail_samples_beyond",
            J::Int(beyond(samples, TAIL_PCT) as i64),
        ),
    ]
}

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let Inputs { datasets, queries } = inputs(kind, seed);
    let texts: Vec<String> = datasets.iter().map(Dataset::foc_text).collect();
    let probe = Probe::new();
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut structures = Vec::new();
    for _ in 0..kind.setup_reps() {
        let (s, secs) = load(&datasets, &texts);
        let scale = probe.scale();
        setups.push(secs.iter().sum::<f64>() * scale);
        loads.push(secs.iter().copied().fold(0.0, f64::max) * scale);
        structures = s;
    }
    let ev = kind.evaluator();
    if trace {
        return run_traced(
            kind,
            seed,
            seconds,
            &datasets,
            &structures,
            &queries,
            &ev,
            &probe,
            median(&loads),
        );
    }
    let samples = timed_loop(
        &ev,
        &structures,
        &queries,
        Duration::from_secs(seconds),
        &probe,
    );
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let raw = Mix::of(&samples, samples.iter().map(|s| s.ms).collect());
    let nominal = Mix::of(&samples, nominal_ms(kind, &samples));
    let mut info = info(kind, seed, &datasets, samples.len());
    info.push(("slots_per_round", J::Int(raw.slots as i64)));
    info.push(("batch_size", J::Int(queries.len() as i64)));
    info.push((
        "repeated_queries",
        J::Int(samples.len().saturating_sub(queries.len()) as i64),
    ));
    info.push(("wall_throughput_per_s", J::Num(raw.throughput())));
    info.push(("wall_p50_ms", J::Num(raw.percentile(50.0))));
    info.push(("wall_tail_ms", J::Num(raw.percentile(TAIL_PCT))));
    Outcome {
        correct: failed == 0,
        attempted: samples.len() as u64,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("throughput_per_s", nominal.throughput(), "1/s"),
            Metric::new("p50_ms", nominal.percentile(50.0), "ms"),
            Metric::new("tail_ms", nominal.percentile(TAIL_PCT), "ms"),
            Metric::new("peak_rss_mb", crate::stats::peak_rss_mb(), "MB"),
        ],
        info,
        trace: None,
    }
}

/// Query times weighted to the mix of one round. A run ends part-way
/// through a round, and a faster host gets further, so raw per-query
/// statistics would shift with the host's speed; weighting each sample
/// by `1 / (samples of its slot)` gives every slot of the round the
/// same weight however many times the run reached it.
struct Mix {
    /// `(ms, weight)` per query.
    weighted: Vec<(f64, f64)>,
    /// Median time per slot, for the slots the run reached.
    slot_medians: Vec<f64>,
    slots: usize,
}

impl Mix {
    /// The mix of `samples` with query times `ms` (one per sample).
    fn of(samples: &[Sample], ms: Vec<f64>) -> Mix {
        let mut by_slot: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
        for (s, &t) in samples.iter().zip(&ms) {
            by_slot.entry(s.slot).or_default().push(t);
        }
        Mix {
            weighted: samples
                .iter()
                .zip(&ms)
                .map(|(s, &t)| (t, 1.0 / by_slot[&s.slot].len() as f64))
                .collect(),
            slot_medians: by_slot.values().map(|v| median(v)).collect(),
            slots: by_slot.len(),
        }
    }

    /// Queries per second over one round's mix.
    fn throughput(&self) -> f64 {
        self.slot_medians.len() as f64 * 1e3 / self.slot_medians.iter().sum::<f64>()
    }

    fn percentile(&self, p: f64) -> f64 {
        weighted_percentile(&self.weighted, p)
    }
}

/// The traced run. An untraced pass over the batch comes first; the
/// traced pass then repeats the same queries with a span around every
/// layer call — the `Evaluator` call that answers the query, then the
/// direct layer path, whose answer must agree with it.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: u64,
    datasets: &[Dataset],
    structures: &[Structure],
    queries: &[QuerySpec],
    ev: &Evaluator,
    probe: &Probe,
    load_s: f64,
) -> Outcome {
    let untraced_budget = Duration::from_secs_f64(seconds as f64 * 0.35);
    let plain = timed_loop(ev, structures, queries, untraced_budget, probe);
    let tracer = Tracer::new();
    let preds = Predicates::standard();
    let cover_cfg = (kind == Kind::Cover).then(|| CoverConfig {
        threads: kind.threads(),
        ..CoverConfig::default()
    });
    let budget = Duration::from_secs_f64(seconds as f64 * 0.65);
    let start = Instant::now();
    let mut totals = Counts::default();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let (mut parse_ns, mut parse_calls) = (0u64, 0u64);
    // Evaluator time, with the probe around it (to compare with the
    // untraced pass).
    let mut engine = Vec::new();
    let (mut core_self_ms, mut core_self_n) = (0.0, 0u64);
    let mut engine_fallbacks = 0u64;
    let (mut eval_cpu, mut eval_wall) = (0.0, 0.0);
    let mut direct_ms = 0.0;
    let mut cover_radii = std::collections::BTreeSet::new();
    for (i, q) in queries.iter().enumerate().take(plain.len()) {
        if start.elapsed() >= budget {
            break;
        }
        let req = i as u64;
        attempted += 1;
        let s = &structures[q.dataset];
        let root = tracer.begin("query", None, req);
        let p0 = tracer.begin("logic.parse", Some(root), req);
        let parsed = q.shape.parse();
        parse_ns += tracer.end(p0);
        parse_calls += 1;
        let Ok(parsed) = parsed else {
            failed += 1;
            tracer.end(root);
            continue;
        };
        let before = probe.scale();
        let c0 = tracer.begin("core.evaluate", Some(root), req);
        let answer = match &parsed {
            Parsed::Term(t) => {
                let mut session = ev.session(s);
                let r = session.eval_ground(t).map(Answer::Int);
                Some((r, session.stats()))
            }
            Parsed::Sentence(f) => {
                let mut session = ev.session(s);
                let r = session.check_sentence(f).map(Answer::Bool);
                Some((r, session.stats()))
            }
            Parsed::Unary(_) => None,
        };
        let (answer, stats) = match answer {
            Some((r, st)) => (r.map_err(|e| e.to_string()), Some(st)),
            None => (evaluate(ev, s, &parsed), None),
        };
        let evaluate_ms = tracer.end(c0) as f64 / 1e6;
        engine.push(Sample {
            slot: q.slot,
            ms: evaluate_ms,
            scale: (before + probe.scale()) / 2.0,
            ok: true,
        });
        if let Some(st) = stats {
            let layers = (st.phase.decompose + st.phase.eval).as_secs_f64() * 1e3;
            core_self_ms += (evaluate_ms - layers).max(0.0);
            core_self_n += 1;
            engine_fallbacks += (st.naive_fallbacks as u64) + st.degrade_naive;
        }
        let d0 = tracer.begin("direct", Some(root), req);
        let t0 = Instant::now();
        let mut direct = Direct::new(&tracer, req, Some(d0), &preds, cover_cfg);
        let direct_answer = direct.answer(s, &parsed);
        direct_ms += t0.elapsed().as_secs_f64() * 1e3;
        tracer.end(d0);
        tracer.end(root);
        let c = direct.counts();
        cover_radii.extend(direct.cover_radii.iter().map(|&r| (q.dataset, r)));
        eval_cpu += direct.eval_cpu_s;
        eval_wall += direct.eval_wall_s;
        add_counts(&mut totals, &c);
        let ok = answer.as_ref() == Ok(&q.expect) && direct_answer == answer;
        if !ok {
            failed += 1;
            eprintln!(
                "perfbench: query {i} ({}) disagrees: expected {:.120}, evaluator {:.120}, direct path {:.120}",
                q.shape.text(),
                format!("{:?}", q.expect),
                format!("{answer:?}"),
                format!("{direct_answer:?}")
            );
        }
    }
    // Cover weight per element, from the cover construction itself,
    // once per structure at each exploration radius the covers used.
    let weights: Vec<f64> = cover_radii
        .iter()
        .map(|&(d, r)| {
            let s = &structures[d];
            let cover = tracer.span("covers.build", None, u64::MAX, || cover_structure(s, r));
            cover.total_weight() as f64 / f64::from(s.order())
        })
        .collect();
    let fold = tracer.fold();
    let n = attempted.max(1) as f64;
    let per_q_ms = |name: &str| fold.get(name).map_or(0.0, |f| f.total_ns as f64 / 1e6) / n;
    let self_ms = |name: &str| fold.get(name).map_or(0.0, |f| f.self_ns as f64 / 1e6);
    let layer_ms =
        self_ms("locality.decompose") + self_ms("locality.eval") + self_ms("covers.eval");
    let lookups = (totals.cache_hits + totals.cache_misses).max(1) as f64;
    let per = |v: u64| v as f64 / n;
    let mut l = Layers::default();
    l.set(
        "logic.parse_us",
        parse_ns as f64 / 1e3 / parse_calls.max(1) as f64,
    );
    l.set("structures.load_ms", load_s * 1e3);
    l.set("locality.decompose_ms", per_q_ms("locality.decompose"));
    l.set("locality.clterms", per(totals.clterms));
    l.set("locality.basics", per(totals.basics));
    l.set("locality.eval_ms", per_q_ms("locality.eval"));
    l.set("locality.balls", per(totals.balls));
    l.set(
        "locality.ball_elements_per_ball",
        totals.ball_elements as f64 / totals.balls.max(1) as f64,
    );
    l.set("locality.tuples_checked", per(totals.tuples_checked));
    l.set("cache.hits", per(totals.cache_hits));
    l.set("cache.misses", per(totals.cache_misses));
    l.set("cache.hit_ratio", totals.cache_hits as f64 / lookups);
    l.set("covers.build_ms", totals.cover.cover_nanos as f64 / 1e6 / n);
    l.set("covers.eval_ms", per_q_ms("covers.eval"));
    l.set("covers.clusters", per(totals.cover.clusters));
    l.set("covers.removals", per(totals.cover.removals));
    l.set("covers.peak_cluster", f64::from(totals.cover.peak_cluster));
    if !weights.is_empty() {
        l.set(
            "covers.weight_per_element",
            weights.iter().sum::<f64>() / weights.len() as f64,
        );
    }
    l.set("covers.naive_fallbacks", per(totals.cover.naive_fallbacks));
    l.set("parallel.items", per(totals.parallel_items));
    l.set("parallel.workers", totals.parallel_workers as f64);
    if eval_wall > 0.0 {
        l.set("process.cpu_per_wall", eval_cpu / eval_wall);
    }
    l.set("core.self_ms", core_self_ms / core_self_n.max(1) as f64);
    l.set(
        "core.naive_fallbacks",
        per(engine_fallbacks + totals.naive_fallbacks),
    );
    // The same queries, traced and untraced, each scaled as its pass is.
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let engine_ms = sum(engine.iter().map(|s| s.ms).collect());
    l.set(
        "trace.overhead_ratio",
        sum(nominal_ms(kind, &engine)) / sum(nominal_ms(kind, &plain[..engine.len()])).max(1e-9),
    );
    l.set("trace.layer_share", layer_ms / direct_ms.max(1e-9));
    l.set("trace.direct_vs_engine", direct_ms / engine_ms.max(1e-9));
    Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics: l.into_metrics(),
        info: info(kind, seed, datasets, attempted as usize),
        trace: Some(tracer),
    }
}

fn add_counts(t: &mut Counts, c: &Counts) {
    t.clterms += c.clterms;
    t.basics += c.basics;
    t.naive_fallbacks += c.naive_fallbacks;
    t.balls += c.balls;
    t.ball_elements += c.ball_elements;
    t.tuples_checked += c.tuples_checked;
    t.cache_hits += c.cache_hits;
    t.cache_misses += c.cache_misses;
    t.cover.covers_built += c.cover.covers_built;
    t.cover.clusters += c.cover.clusters;
    t.cover.removals += c.cover.removals;
    t.cover.naive_fallbacks += c.cover.naive_fallbacks;
    t.cover.peak_cluster = t.cover.peak_cluster.max(c.cover.peak_cluster);
    t.cover.cover_nanos += c.cover.cover_nanos;
    t.parallel_items += c.parallel_items;
    t.parallel_workers = t.parallel_workers.max(c.parallel_workers);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for kind in [Kind::Large, Kind::Cover] {
            let a = inputs(kind, 11);
            let b = inputs(kind, 11);
            let texts = |i: &Inputs| i.datasets.iter().map(Dataset::foc_text).collect::<Vec<_>>();
            assert_eq!(texts(&a), texts(&b));
            let qs = |i: &Inputs| {
                i.queries
                    .iter()
                    .map(|q| (q.shape.text(), format!("{:?}", q.expect)))
                    .collect::<Vec<_>>()
            };
            assert_eq!(qs(&a), qs(&b));
            let c = inputs(kind, 12);
            assert_ne!(texts(&a), texts(&c));
        }
    }

    #[test]
    fn batch_queries_are_distinct() {
        let i = inputs(Kind::Large, 5);
        let mut seen = std::collections::HashSet::new();
        for q in &i.queries {
            assert!(
                seen.insert((q.dataset, q.shape.text())),
                "repeated query {}",
                q.shape.text()
            );
        }
    }
}
