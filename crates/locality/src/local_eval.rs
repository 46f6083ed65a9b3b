//! Ball-based evaluation of basic cl-terms (Remark 6.3): because the
//! connectivity graph of a basic cl-term is connected, the value
//! `u^A[a]` only depends on the `R`-neighbourhood of `a`, with
//! `R = r_body + (k−1)·(2r+1)` (Lemma 6.1). The evaluator extends tuples
//! from `y₁ = a` along the edges of `G`, in BFS order of `G`.
//!
//! Every tuple position that later positions are checked against gets
//! one level-ordered BFS of radius `2r+1` from its value, kept in a
//! reusable per-depth buffer ([`BfsScratch`]). Its δ-constraints are then
//! array lookups, and the candidates for a later position are a prefix
//! of an earlier position's reached list: the δ-ball of an assigned
//! `G`-neighbour. The guard planner of `foc-eval` replaces it with a
//! cheaper source when the body has one: the radius-`d` prefix of an
//! assigned position's layers for a positive conjunct `dist(y_i, y_j) ≤
//! d`, or a relational-index lookup through a positive guard atom; the
//! same planner picks the support of `y₁`. Complete tuples
//! are checked by one reference evaluator that lives as long as this
//! one: it gets the body validated once per term and answers `dist`
//! atoms from the layers of its last BFS.
//!
//! On classes with polynomial ball growth (bounded degree, trees, grids,
//! bounded expansion…) this yields the paper's fixed-parameter
//! almost-linear behaviour; on dense structures the balls, and hence the
//! cost, degenerate — exactly the dichotomy the theory predicts.

use std::sync::{Arc, Mutex};

use foc_eval::{
    Assignment, EvalError, EvalStats, GuardContext, GuardPlanner, NaiveEvaluator, Validated,
};
use foc_guard::{Guard, Phase};
use foc_logic::{Predicates, Var};
use foc_obs::{names, pow2_buckets, Counter, Histogram, Metrics, SpanHandle};
use foc_parallel::ParMeter;
use foc_structures::{BfsScratch, FxHashMap, Structure};

use crate::cache::TermCache;
use crate::clterm::{BasicClTerm, ClTerm};
use crate::error::{LocalityError, Result};

/// Resolved observability handles of a [`LocalEvaluator`]: registry
/// counters and the span position ball-enumeration spans nest under.
/// Cloned into parallel workers so their balls land in the same
/// registry.
#[derive(Debug, Clone)]
struct LocalObs {
    parent: SpanHandle,
    balls: Counter,
    ball_elements: Counter,
    tuples: Counter,
    ball_size: Histogram,
    meter: ParMeter,
}

/// Work counters for the local evaluator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LocalStats {
    /// Balls materialised.
    pub balls: u64,
    /// Total elements across materialised balls.
    pub ball_elements: u64,
    /// Tuples fully assembled and checked against the body.
    pub tuples_checked: u64,
}

/// A value of a cl-term over a structure: one integer per element for
/// unary terms, a single integer broadcast for ground ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClValue {
    /// A ground value.
    Scalar(i64),
    /// Per-element values (indexed by element id).
    Vector(Vec<i64>),
}

impl ClValue {
    /// The value at element `a`.
    pub fn at(&self, a: u32) -> i64 {
        match self {
            ClValue::Scalar(s) => *s,
            ClValue::Vector(v) => v[a as usize],
        }
    }
}

/// A cl-term value while it is being combined: vectors stay shared with
/// the memo caches until the final [`ClValue`] is built.
#[derive(Clone)]
enum Partial {
    Scalar(i64),
    Vector(Arc<Vec<i64>>),
}

impl From<Partial> for ClValue {
    fn from(v: Partial) -> ClValue {
        match v {
            Partial::Scalar(s) => ClValue::Scalar(s),
            Partial::Vector(v) => {
                ClValue::Vector(Arc::try_unwrap(v).unwrap_or_else(|v| v.as_ref().clone()))
            }
        }
    }
}

/// What the enumeration for one basic cl-term needs, worked out once per
/// call rather than once per anchor, plus the evaluator settings every
/// worker of the call shares.
struct Plan<'t> {
    b: &'t BasicClTerm,
    /// The body, validated once. An invalid body is reported at the first
    /// checked tuple, as validating every check would.
    body: std::result::Result<Validated<'t>, EvalError>,
    /// BFS order of `G`: depth `i` assigns tuple position `order[i]`.
    order: Vec<usize>,
    /// The δ bound `2r+1`.
    bound: u32,
    /// See [`LocalEvaluator::use_atom_candidates`].
    atom_candidates: bool,
    obs: Option<&'t LocalObs>,
    guard: &'t Guard,
    fault_panic_element: Option<u32>,
}

/// One assigned position of the tuple under construction.
#[derive(Debug, Clone, Copy)]
struct Placed {
    /// The position in the tuple (a vertex of `G`).
    node: usize,
    val: u32,
    /// The depth whose layer buffer holds the BFS from `val`.
    layers: usize,
}

/// Reusable state of one enumeration depth.
#[derive(Debug, Default)]
struct Depth {
    /// BFS layers of radius `2r+1` around this depth's value.
    layers: BfsScratch,
    /// Candidate values for this depth.
    cands: Vec<u32>,
}

/// The mutable state of the per-anchor enumeration: one per worker,
/// reused across anchors and terms.
struct Walker<'a> {
    a: &'a Structure,
    /// Checks complete tuples against the body; kept for the walker's
    /// lifetime, so its `dist` memo carries over from tuple to tuple.
    ev: NaiveEvaluator<'a>,
    /// Picks the candidates of each depth and the support of `y₁`.
    planner: GuardPlanner<'a>,
    /// The tuple under construction, bound and restored position by
    /// position.
    env: Assignment,
    /// The assigned positions, in depth order.
    path: Vec<Placed>,
    /// Per-depth layer and candidate buffers.
    depths: Vec<Depth>,
    /// Work counters since the owner last folded them.
    stats: LocalStats,
}

/// Evaluates basic cl-terms by neighbourhood exploration.
pub struct LocalEvaluator<'a> {
    a: &'a Structure,
    preds: &'a Predicates,
    /// This evaluator's enumeration buffers; the first worker of every
    /// fan-out borrows them.
    walker: Walker<'a>,
    /// Derive tuple candidates from guard atoms (relational-index
    /// lookups) and positive `dist` conjuncts in addition to δ-balls.
    /// Ablation toggle for E11.
    pub use_atom_candidates: bool,
    /// Skip elements outside the guard-atom support of `y₁`. Ablation
    /// toggle for E11.
    pub use_support: bool,
    /// Worker threads for [`LocalEvaluator::eval_basic_on`]: `1` is the
    /// sequential loop, `0` means "one per hardware thread". Results are
    /// identical at every thread count (anchors are independent; values
    /// are written back in anchor order).
    pub threads: usize,
    /// Optional shared memo of basic-term values (see [`TermCache`]).
    cache: Option<Arc<TermCache>>,
    /// Optional observability handles (registry + span parent).
    obs: Option<LocalObs>,
    /// Cooperative resource guard; checked per candidate during ball
    /// enumeration and before each cache fill.
    guard: Guard,
    /// Test-only fault injection: panic while evaluating this element, to
    /// exercise the panic-isolation path. Not part of the public API.
    #[doc(hidden)]
    pub fault_panic_element: Option<u32>,
    /// Work counters.
    pub stats: LocalStats,
}

impl<'a> LocalEvaluator<'a> {
    /// Creates a local evaluator over `a`.
    pub fn new(a: &'a Structure, preds: &'a Predicates) -> LocalEvaluator<'a> {
        let guard = Guard::unlimited();
        LocalEvaluator {
            a,
            preds,
            walker: Walker::new(a, preds, &guard),
            use_atom_candidates: true,
            use_support: true,
            threads: 1,
            cache: None,
            obs: None,
            guard,
            fault_panic_element: None,
            stats: LocalStats::default(),
        }
    }

    /// Attaches a shared memo cache consulted by
    /// [`LocalEvaluator::eval_basic_all`].
    pub fn set_cache(&mut self, cache: Arc<TermCache>) {
        self.cache = Some(cache);
    }

    /// Installs a cooperative resource guard, shared with every inner
    /// reference evaluator and every parallel worker this evaluator
    /// spawns.
    pub fn set_guard(&mut self, guard: Guard) {
        self.walker.ev.set_guard(guard.clone());
        self.guard = guard;
    }

    /// Attaches observability: ball counters and the ball-size histogram
    /// land in `parent`'s metrics registry, and ball-enumeration spans
    /// nest under `parent`. The [`LocalStats`] struct counters keep
    /// working either way; with an observer attached the registry sees
    /// the same events live (including those of parallel workers).
    pub fn set_observer(&mut self, parent: SpanHandle) {
        let m = parent.metrics();
        self.obs = Some(LocalObs {
            balls: m.counter(names::LOCAL_BALLS),
            ball_elements: m.counter(names::LOCAL_BALL_ELEMENTS),
            tuples: m.counter(names::LOCAL_TUPLES),
            ball_size: m.histogram(names::LOCAL_BALL_SIZE, &pow2_buckets(20)),
            meter: ParMeter::from_metrics(m),
            parent,
        });
    }

    /// The exploration radius for a basic cl-term (Lemma 6.1 /
    /// Remark 6.3).
    pub fn exploration_radius(b: &BasicClTerm) -> u64 {
        let k = b.width() as u64;
        // Saturation is sound here (unlike in the radius analysis): this
        // radius only sizes the explored ball, and a *larger* ball never
        // changes answers — wrapping would shrink it, which does.
        b.body_radius
            .max(b.radius)
            .saturating_add((k - 1).saturating_mul(b.delta_bound()))
    }

    /// `u^A[a]` at each of `anchors`, in anchor order (duplicates are
    /// evaluated again): the number of extensions `(a₂,…,a_k)` with
    /// `y₁ = a` satisfying `ψ ∧ δ_G,2r+1`. A ground term is read as the
    /// unary term that pins `y₁ = a` (Remark 6.3).
    ///
    /// The enumeration is ball-local by construction (candidates come
    /// from bounded BFS layers, so only `N_R(a)` is ever touched, with
    /// `R` the exploration radius of Lemma 6.1); the body is checked
    /// directly in `A` — its value at a tuple *is* the cl-term's
    /// semantics, and the candidate-driven reference evaluator keeps that
    /// check neighbourhood-local for the separable fragment.
    ///
    /// The per-term plan is built once per call and the anchors fan out
    /// over [`LocalEvaluator::threads`] workers. The first worker borrows
    /// this evaluator's own buffers, so a sequential call allocates
    /// nothing per anchor. Values and counters do not depend on
    /// scheduling, and a panicking anchor surfaces as
    /// [`LocalityError::WorkerPanicked`] at every thread count. Does not
    /// consult the [`TermCache`].
    pub fn eval_basic_on(&mut self, b: &BasicClTerm, anchors: &[u32]) -> Result<Vec<i64>> {
        let order = b.graph.bfs_order();
        debug_assert_eq!(order[0], 0);
        let plan = Plan {
            b,
            body: self.walker.ev.validate(&b.body),
            // `BasicClTerm::new` validated the bound via `checked_delta_bound`.
            bound: u32::try_from(b.delta_bound())
                .unwrap_or_else(|_| unreachable!("delta bound fits u32")),
            order,
            atom_candidates: self.use_atom_candidates,
            obs: self.obs.as_ref(),
            guard: &self.guard,
            fault_panic_element: self.fault_panic_element,
        };
        let (a, preds) = (self.a, self.preds);
        let tally = Mutex::new((LocalStats::default(), EvalStats::default()));
        let lent = Mutex::new(Some(&mut self.walker));
        let results = foc_parallel::par_map_isolated(
            anchors,
            self.threads,
            plan.obs.map(|o| &o.meter),
            || match lent.lock().unwrap_or_else(|e| e.into_inner()).take() {
                Some(w) => Lease::Lent(w),
                None => Lease::Own(Box::new(Walker::new(a, preds, plan.guard)), &tally),
            },
            |w, _, &e| w.walker().eval(&plan, e),
        )
        .map_err(LocalityError::from);
        let (ls, es) = tally.into_inner().unwrap_or_else(|e| e.into_inner());
        self.stats.add(&ls);
        self.stats.add(&std::mem::take(&mut self.walker.stats));
        self.walker.ev.stats.merge(&es);
        // The reference evaluator's counters (tuple checks and guard
        // planning, workers included) reach the registry once per call.
        if let Some(o) = &self.obs {
            record_eval_stats(
                &std::mem::take(&mut self.walker.ev.stats),
                o.parent.metrics(),
            );
        }
        results
    }

    /// The *support* of `y₁`: the candidates of its cheapest guard atom,
    /// outside which every count is 0. `None` means "no restriction".
    fn support(&mut self, b: &BasicClTerm) -> Option<Vec<u32>> {
        let w = &mut self.walker;
        let mut ctx = PathGuards {
            vars: &b.vars,
            path: &[],
            depths: &[],
            stats: &mut w.ev.stats,
        };
        let mut elems = Vec::new();
        w.planner
            .candidates(b.vars[0], &b.body, &[], usize::MAX, &mut ctx, &mut elems)
            .then_some(elems)
    }

    /// `u^A[a]` for all elements at once: the attached [`TermCache`]'s
    /// vector if it has one, else [`LocalEvaluator::eval_basic_on`] over
    /// the guard-atom support of `y₁` (or the universe), with every
    /// element outside it 0 without exploring its neighbourhood. A
    /// cached vector is shared, not copied.
    pub fn eval_basic_all(&mut self, b: &BasicClTerm) -> Result<Arc<Vec<i64>>> {
        self.guard.check(Phase::BallEnum)?;
        if let Some(vals) = self.cache.as_ref().and_then(|c| c.get(b, self.a)) {
            return Ok(vals);
        }
        let span = self.obs.as_ref().map(|o| {
            o.parent.child(
                "ball_enum",
                &[
                    ("width", b.width() as i64),
                    ("order", i64::from(self.a.order())),
                ],
            )
        });
        let support = if self.use_support {
            self.support(b)
        } else {
            None
        };
        let anchors = support.unwrap_or_else(|| self.a.universe().collect());
        let mut out = vec![0i64; self.a.order() as usize];
        for (&a, v) in anchors.iter().zip(self.eval_basic_on(b, &anchors)?) {
            out[a as usize] = v;
        }
        drop(span);
        let vals = Arc::new(out);
        if let Some(cache) = &self.cache {
            cache.insert(b, self.a, vals.clone());
        }
        Ok(vals)
    }

    /// Evaluates a full cl-term. Returns a scalar for ground terms and a
    /// per-element vector when any unary basic occurs. Basic-term values
    /// are cached by identity.
    pub fn eval_clterm(&mut self, t: &ClTerm) -> Result<ClValue> {
        eval_clterm_vectors(t, &mut |b| self.eval_basic_all(b))
    }
}

impl<'a> Walker<'a> {
    fn new(a: &'a Structure, preds: &'a Predicates, guard: &Guard) -> Walker<'a> {
        let mut ev = NaiveEvaluator::new(a, preds);
        ev.set_guard(guard.clone());
        Walker {
            a,
            ev,
            planner: GuardPlanner::new(a),
            env: Assignment::new(),
            path: Vec::new(),
            depths: Vec::new(),
            stats: LocalStats::default(),
        }
    }

    /// Counts one materialised ball of `elements` elements.
    fn note_ball(&mut self, plan: &Plan<'_>, elements: u64) {
        self.stats.balls += 1;
        self.stats.ball_elements += elements;
        if let Some(o) = plan.obs {
            o.balls.inc();
            o.ball_elements.add(elements);
            o.ball_size.observe(elements);
        }
    }

    /// Counts one fully assembled tuple checked against the body.
    fn note_tuple(&mut self, plan: &Plan<'_>) {
        self.stats.tuples_checked += 1;
        if let Some(o) = plan.obs {
            o.tuples.inc();
        }
    }

    /// `u^A[a]`: the number of extensions `(a₂,…,a_k)` with `y₁ = a`
    /// satisfying `ψ ∧ δ_G,2r+1`.
    fn eval(&mut self, plan: &Plan<'_>, a: u32) -> Result<i64> {
        plan.guard.check(Phase::BallEnum)?;
        if plan.fault_panic_element == Some(a) {
            panic!("injected fault at element {a}");
        }
        if self.depths.len() < plan.order.len() {
            self.depths.resize_with(plan.order.len(), Depth::default);
        }
        let mut count: i64 = 0;
        self.path.clear();
        let var = plan.b.vars[plan.order[0]];
        let prev = self.env.bind(var, a);
        let result = if plan.order.len() == 1 {
            self.check_tuple(plan, &mut count)
        } else {
            self.descend(plan, 0, a, &mut count)
        };
        self.env.restore(var, prev);
        result.map(|()| count)
    }

    /// Records `val`, already bound at depth `idx` (not the last depth),
    /// and counts the satisfying extensions.
    fn descend(&mut self, plan: &Plan<'_>, idx: usize, val: u32, count: &mut i64) -> Result<()> {
        // A value repeated from an earlier depth shares that depth's
        // layers.
        let layers = match self.path.iter().find(|p| p.val == val) {
            Some(p) => p.layers,
            None => {
                let buf = &mut self.depths[idx].layers;
                self.a.gaifman().bfs(val, plan.bound, buf);
                let reached = buf.within(plan.bound).len() as u64;
                self.note_ball(plan, reached);
                idx
            }
        };
        let node = plan.order[idx];
        self.path.push(Placed { node, val, layers });
        let result = self.extend(plan, idx + 1, count);
        self.path.pop();
        result
    }

    /// Tests the complete tuple bound in `env` against the body.
    fn check_tuple(&mut self, plan: &Plan<'_>, count: &mut i64) -> Result<()> {
        self.note_tuple(plan);
        let body = plan.body.as_ref().map_err(|e| e.clone())?;
        if self.ev.check_validated(*body, &mut self.env)? {
            *count = count
                .checked_add(1)
                .ok_or(LocalityError::Eval(EvalError::Overflow))?;
        }
        Ok(())
    }

    /// Enumerates the values of depth `idx` that keep every δ-constraint
    /// against the assigned depths, binding each in turn.
    fn extend(&mut self, plan: &Plan<'_>, idx: usize, count: &mut i64) -> Result<()> {
        let node = plan.order[idx];
        let var = plan.b.vars[node];
        let last = idx + 1 == plan.order.len();
        let mut cands = std::mem::take(&mut self.depths[idx].cands);
        self.candidates(plan, idx, &mut cands);
        let prev = self.env.get(var);
        let result = (|| {
            'cand: for &cand in &cands {
                plan.guard.check(Phase::BallEnum)?;
                for p in &self.path {
                    let close = self.depths[p.layers]
                        .layers
                        .dist(cand)
                        .is_some_and(|d| d <= plan.bound);
                    if close != plan.b.graph.edge(node, p.node) {
                        continue 'cand;
                    }
                }
                self.env.bind(var, cand);
                if last {
                    self.check_tuple(plan, count)?;
                } else {
                    self.descend(plan, idx, cand, count)?;
                }
            }
            Ok(())
        })();
        self.env.restore(var, prev);
        self.depths[idx].cands = cands;
        result
    }

    /// Fills `out` with the candidates for depth `idx`: the δ-ball of an
    /// assigned `G`-neighbour (BFS order guarantees one), unless the
    /// guard planner finds a smaller set — the radius-`d` prefix of an
    /// assigned position's layers for a `dist ≤ d` guard, or the rows of
    /// a guard atom. Values outside a guard's set falsify the body and
    /// values outside the δ-ball falsify δ, so each is sound.
    fn candidates(&mut self, plan: &Plan<'_>, idx: usize, out: &mut Vec<u32>) {
        let node = plan.order[idx];
        let anchor = self
            .path
            .iter()
            .find(|p| plan.b.graph.edge(node, p.node))
            .unwrap_or_else(|| unreachable!("BFS order guarantees an assigned neighbour"));
        let ball = self.depths[anchor.layers].layers.within(plan.bound);
        if plan.atom_candidates {
            let mut ctx = PathGuards {
                vars: &plan.b.vars,
                path: &self.path,
                depths: &self.depths,
                stats: &mut self.ev.stats,
            };
            let var = plan.b.vars[node];
            if self
                .planner
                .candidates(var, &plan.b.body, &[], ball.len(), &mut ctx, out)
            {
                return;
            }
        }
        out.clear();
        out.extend_from_slice(ball);
    }
}

/// A worker's walker for one fan-out: the evaluator's own, lent to the
/// first worker, or a fresh one whose counters reach `tally` when the
/// worker drops it.
enum Lease<'w, 'a> {
    Lent(&'w mut Walker<'a>),
    Own(Box<Walker<'a>>, &'w Mutex<(LocalStats, EvalStats)>),
}

impl<'a> Lease<'_, 'a> {
    fn walker(&mut self) -> &mut Walker<'a> {
        match self {
            Lease::Lent(w) => w,
            Lease::Own(w, _) => w,
        }
    }
}

impl Drop for Lease<'_, '_> {
    fn drop(&mut self) {
        if let Lease::Own(w, tally) = self {
            let mut t = tally.lock().unwrap_or_else(|e| e.into_inner());
            t.0.add(&w.stats);
            t.1.merge(&w.ev.stats);
        }
    }
}

impl LocalStats {
    fn add(&mut self, other: &LocalStats) {
        self.balls += other.balls;
        self.ball_elements += other.ball_elements;
        self.tuples_checked += other.tuples_checked;
    }
}

/// Adds the reference evaluator's counters that the metrics registry
/// tracks (`eval.*`) to `m`.
pub fn record_eval_stats(s: &EvalStats, m: &Metrics) {
    m.counter(names::EVAL_ASSIGNMENTS).add(s.assignments_tried);
    m.counter(names::EVAL_ATOM_TESTS).add(s.atom_tests);
    m.counter(names::EVAL_DIST_BFS).add(s.dist_bfs);
    m.counter(names::EVAL_GUARD_ROWS).add(s.guard_rows);
}

/// Evaluates a cl-term from the value vectors of its basic terms.
/// `vector_of` runs once per distinct basic term (by identity); a ground
/// basic term contributes the sum of its vector (Remark 6.3). Vectors
/// stay shared with the caller's caches until the result is built, and
/// intermediate sums and products are updated in place.
pub fn eval_clterm_vectors(
    t: &ClTerm,
    vector_of: &mut dyn FnMut(&Arc<BasicClTerm>) -> Result<Arc<Vec<i64>>>,
) -> Result<ClValue> {
    fn rec(
        t: &ClTerm,
        vector_of: &mut dyn FnMut(&Arc<BasicClTerm>) -> Result<Arc<Vec<i64>>>,
        memo: &mut FxHashMap<usize, Partial>,
    ) -> Result<Partial> {
        let (parts, unit, op): (_, _, fn(i64, i64) -> Option<i64>) = match t {
            ClTerm::Int(i) => return Ok(Partial::Scalar(*i)),
            ClTerm::Basic(b) => {
                let key = Arc::as_ptr(b) as usize;
                if let Some(v) = memo.get(&key) {
                    return Ok(v.clone());
                }
                let vals = vector_of(b)?;
                let v = if b.unary {
                    Partial::Vector(vals)
                } else {
                    Partial::Scalar(checked_sum(&vals)?)
                };
                memo.insert(key, v.clone());
                return Ok(v);
            }
            ClTerm::Add(ts) => (ts, 0, i64::checked_add),
            ClTerm::Mul(ts) => (ts, 1, i64::checked_mul),
        };
        let mut acc = Partial::Scalar(unit);
        for s in parts {
            let v = rec(s, vector_of, memo)?;
            acc = combine(acc, v, op)?;
        }
        Ok(acc)
    }
    Ok(rec(t, vector_of, &mut FxHashMap::default())?.into())
}

fn checked_sum(vals: &[i64]) -> Result<i64> {
    vals.iter().try_fold(0i64, |acc, &v| {
        acc.checked_add(v)
            .ok_or(LocalityError::Eval(EvalError::Overflow))
    })
}

/// The ball evaluator's side of guard planning: the assigned positions
/// are the bound variables, and their layers answer `dist` guards.
struct PathGuards<'p> {
    vars: &'p [Var],
    path: &'p [Placed],
    depths: &'p [Depth],
    stats: &'p mut EvalStats,
}

impl GuardContext for PathGuards<'_> {
    fn value(&self, v: Var) -> Option<u32> {
        self.path
            .iter()
            .find(|p| self.vars[p.node] == v)
            .map(|p| p.val)
    }

    fn ball(&mut self, anchor: u32, d: u32, max: usize) -> Option<&[u32]> {
        let p = self.path.iter().find(|p| p.val == anchor)?;
        let layers = &self.depths[p.layers].layers;
        let ball = (d <= layers.cap()).then(|| layers.within(d))?;
        (ball.len() <= max).then_some(ball)
    }

    fn stats(&mut self) -> &mut EvalStats {
        self.stats
    }
}

/// `op` applied pointwise; a vector operand is updated in place when
/// nothing else shares it.
fn combine(a: Partial, b: Partial, op: impl Fn(i64, i64) -> Option<i64>) -> Result<Partial> {
    let overflow = || LocalityError::Eval(EvalError::Overflow);
    let apply = |mut xs: Arc<Vec<i64>>, f: &dyn Fn(i64) -> Option<i64>| -> Result<Partial> {
        for x in Arc::make_mut(&mut xs).iter_mut() {
            *x = f(*x).ok_or_else(overflow)?;
        }
        Ok(Partial::Vector(xs))
    };
    match (a, b) {
        (Partial::Scalar(x), Partial::Scalar(y)) => {
            Ok(Partial::Scalar(op(x, y).ok_or_else(overflow)?))
        }
        (Partial::Scalar(x), Partial::Vector(ys)) => apply(ys, &|y| op(x, y)),
        (Partial::Vector(xs), Partial::Scalar(y)) => apply(xs, &|x| op(x, y)),
        (Partial::Vector(xs), Partial::Vector(ys)) => {
            assert_eq!(xs.len(), ys.len(), "mismatched unary value lengths");
            let mut xs = xs;
            for (x, &y) in Arc::make_mut(&mut xs).iter_mut().zip(ys.iter()) {
                *x = op(*x, y).ok_or_else(overflow)?;
            }
            Ok(Partial::Vector(xs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose_ground, decompose_unary};
    use foc_logic::build::*;
    use foc_logic::{Term, Var};
    use foc_structures::gen::{cycle, graph_structure, grid, path, random_tree, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc as StdArc;

    fn structures() -> Vec<Structure> {
        let mut rng = StdRng::seed_from_u64(7);
        vec![
            path(8),
            cycle(7),
            star(6),
            grid(3, 3),
            random_tree(9, &mut rng),
            graph_structure(8, &[(0, 1), (1, 2), (2, 0), (5, 6)]),
        ]
    }

    /// Local ball evaluation of each basic term must agree with the
    /// reference evaluator on the full structure.
    fn check_local_vs_naive(cl: &ClTerm, s: &Structure) {
        let p = Predicates::standard();
        let mut lev = LocalEvaluator::new(s, &p);
        let universe: Vec<u32> = s.universe().collect();
        for b in cl.basics() {
            let term = b.to_term();
            let mut nev = foc_eval::NaiveEvaluator::new(s, &p);
            let got = lev.eval_basic_on(&b, &universe).unwrap();
            if b.unary {
                for a in s.universe() {
                    let mut env = Assignment::from_pairs([(b.vars[0], a)]);
                    let want = nev.eval_term(&term, &mut env).unwrap();
                    assert_eq!(
                        got[a as usize], want,
                        "local vs naive at {a} for {}",
                        b.body
                    );
                }
            } else {
                let want = nev.eval_ground(&term).unwrap();
                let got = checked_sum(&got).unwrap();
                assert_eq!(got, want, "local vs naive (ground) for {}", b.body);
            }
        }
    }

    #[test]
    fn basic_local_eval_matches_naive() {
        let y1: Var = v("y1");
        let y2: Var = v("y2");
        let bodies: Vec<StdArc<foc_logic::Formula>> = vec![
            atom("E", [y1, y2]),
            not(atom("E", [y1, y2])),
            and(dist_le(y1, y2, 2), not(eq(y1, y2))),
        ];
        for body in &bodies {
            let cl = decompose_ground(body, &[y1, y2]).unwrap();
            for s in structures() {
                check_local_vs_naive(&cl, &s);
            }
        }
    }

    #[test]
    fn full_clterm_pipeline_ground() {
        // End-to-end: decompose then evaluate locally; compare with the
        // reference count of the original term.
        let y1 = v("y1");
        let y2 = v("y2");
        let body = not(atom("E", [y1, y2]));
        let cl = decompose_ground(&body, &[y1, y2]).unwrap();
        let p = Predicates::standard();
        for s in structures() {
            let mut lev = LocalEvaluator::new(&s, &p);
            let got = match lev.eval_clterm(&cl).unwrap() {
                ClValue::Scalar(x) => x,
                ClValue::Vector(_) => panic!("ground term produced a vector"),
            };
            let term = StdArc::new(Term::Count(vec![y1, y2].into_boxed_slice(), body.clone()));
            let mut nev = foc_eval::NaiveEvaluator::new(&s, &p);
            assert_eq!(
                got,
                nev.eval_ground(&term).unwrap(),
                "on order {}",
                s.order()
            );
        }
    }

    #[test]
    fn full_clterm_pipeline_unary() {
        let y1 = v("y1");
        let y2 = v("y2");
        let z = v("z");
        // Number of non-neighbours y2 that share a common neighbour z with
        // y1 — a width-2 body with a guarded quantifier.
        let body = and(
            not(atom("E", [y1, y2])),
            exists(z, and(atom("E", [y1, z]), atom("E", [z, y2]))),
        );
        let cl = decompose_unary(&body, &[y1, y2]).unwrap();
        let p = Predicates::standard();
        let counted = vec![y2];
        let term = StdArc::new(Term::Count(counted.into_boxed_slice(), body.clone()));
        for s in structures() {
            let mut lev = LocalEvaluator::new(&s, &p);
            let got = match lev.eval_clterm(&cl).unwrap() {
                ClValue::Vector(vals) => vals,
                ClValue::Scalar(x) => vec![x; s.order() as usize],
            };
            let mut nev = foc_eval::NaiveEvaluator::new(&s, &p);
            for a in s.universe() {
                let mut env = Assignment::from_pairs([(y1, a)]);
                let want = nev.eval_term(&term, &mut env).unwrap();
                assert_eq!(
                    got[a as usize],
                    want,
                    "at element {a} on order {}",
                    s.order()
                );
            }
        }
    }

    #[test]
    fn triangle_body_width_three() {
        let x = v("x");
        let y = v("y");
        let z = v("z");
        let tri = and_all([atom("E", [x, y]), atom("E", [y, z]), atom("E", [z, x])]);
        let cl = decompose_unary(&tri, &[x, y, z]).unwrap();
        let p = Predicates::standard();
        let term = StdArc::new(Term::Count(vec![y, z].into_boxed_slice(), tri.clone()));
        for s in structures() {
            let mut lev = LocalEvaluator::new(&s, &p);
            let got = lev.eval_clterm(&cl).unwrap();
            let mut nev = foc_eval::NaiveEvaluator::new(&s, &p);
            for a in s.universe() {
                let mut env = Assignment::from_pairs([(x, a)]);
                let want = nev.eval_term(&term, &mut env).unwrap();
                assert_eq!(got.at(a), want, "triangles at {a}");
            }
        }
    }

    #[test]
    fn dist_guard_candidates_check_only_satisfying_pairs() {
        // #(x,y). dist(x,y) <= 1 on grid(10,10): 100 diagonal pairs plus
        // 2 · 180 edge pairs. The guard takes the radius-1 prefix of the
        // anchor's layers, so every checked tuple satisfies the body.
        let (x, y) = (v("x"), v("y"));
        let cl = decompose_ground(&dist_le(x, y, 1), &[x, y]).unwrap();
        let s = grid(10, 10);
        let p = Predicates::standard();
        let mut lev = LocalEvaluator::new(&s, &p);
        assert_eq!(lev.eval_clterm(&cl).unwrap(), ClValue::Scalar(460));
        assert_eq!(lev.stats.tuples_checked, 460);
        // Without guard candidates the whole δ-ball is checked.
        let mut ablated = LocalEvaluator::new(&s, &p);
        ablated.use_atom_candidates = false;
        assert_eq!(ablated.eval_clterm(&cl).unwrap(), ClValue::Scalar(460));
        assert!(ablated.stats.tuples_checked > 460);
    }

    #[test]
    fn stats_track_work() {
        let y1 = v("y1");
        let y2 = v("y2");
        let body = atom("E", [y1, y2]);
        let cl = decompose_ground(&body, &[y1, y2]).unwrap();
        let s = path(10);
        let p = Predicates::standard();
        let mut lev = LocalEvaluator::new(&s, &p);
        lev.eval_clterm(&cl).unwrap();
        assert!(lev.stats.balls >= 10);
        assert!(lev.stats.ball_elements > 0);
    }
}
