//! The traced run's direct layer path: the benchmark composes the
//! layers itself — marker materialisation of numerical predicates,
//! `decompose_ground` / `decompose_unary` (foc-locality), cl-term
//! evaluation by ball enumeration (foc-locality) or covers + removal
//! (foc-covers), and the reference evaluator (foc-eval) for the first-
//! order rest — timing each call in its own span. Its answers must
//! agree with the `Evaluator`'s.

use std::collections::BTreeSet;
use std::sync::Arc;

use foc_covers::{CoverConfig, CoverEvaluator, CoverStats};
use foc_eval::{Assignment, NaiveEvaluator};
use foc_locality::{decompose_ground, decompose_unary, ClValue, LocalEvaluator, TermCache};
use foc_logic::build::atom_sym;
use foc_logic::{Formula, Predicates, Term, Var};
use foc_obs::{names, Observer};
use foc_structures::{RelDecl, Structure};

use crate::queries::{Answer, Parsed};
use crate::trace::{SpanId, Tracer};

/// Per-query counts gathered from the layers' public getters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub clterms: u64,
    pub basics: u64,
    pub naive_fallbacks: u64,
    pub balls: u64,
    pub ball_elements: u64,
    pub tuples_checked: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cover: CoverStats,
    pub parallel_items: u64,
    pub parallel_workers: u64,
}

/// One query's walk through the layers.
pub struct Direct<'a> {
    tracer: &'a Tracer,
    req: u64,
    parent: Option<SpanId>,
    preds: &'a Predicates,
    /// `None` evaluates cl-terms by ball enumeration, `Some` by covers.
    cover: Option<CoverConfig>,
    cache: Arc<TermCache>,
    obs: Arc<Observer>,
    counts: Counts,
    /// CPU and wall seconds spent inside cl-term evaluation calls.
    pub eval_cpu_s: f64,
    pub eval_wall_s: f64,
    /// Exploration radii of the basic cl-terms evaluated with covers.
    pub cover_radii: BTreeSet<u32>,
}

/// A term value: one number, or one per element.
enum Val {
    Scalar(i64),
    Vector(Vec<i64>),
}

impl Val {
    fn at(&self, e: u32) -> i64 {
        match self {
            Val::Scalar(s) => *s,
            Val::Vector(v) => v[e as usize],
        }
    }
}

impl<'a> Direct<'a> {
    pub fn new(
        tracer: &'a Tracer,
        req: u64,
        parent: Option<SpanId>,
        preds: &'a Predicates,
        cover: Option<CoverConfig>,
    ) -> Direct<'a> {
        let obs = Observer::disabled();
        Direct {
            tracer,
            req,
            parent,
            preds,
            cover,
            cache: Arc::new(TermCache::default()),
            obs,
            counts: Counts::default(),
            eval_cpu_s: 0.0,
            eval_wall_s: 0.0,
            cover_radii: BTreeSet::new(),
        }
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(name, self.parent, self.req, f)
    }

    pub fn counts(&self) -> Counts {
        let snap = self.obs.metrics().snapshot();
        Counts {
            balls: snap.counter(names::LOCAL_BALLS),
            ball_elements: snap.counter(names::LOCAL_BALL_ELEMENTS),
            tuples_checked: snap.counter(names::LOCAL_TUPLES),
            parallel_items: snap.counter(names::PARALLEL_ITEMS),
            parallel_workers: snap.gauge(names::PARALLEL_WORKERS),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            ..self.counts
        }
    }

    pub fn answer(&mut self, s: &Structure, q: &Parsed) -> Result<Answer, String> {
        let mut s = s.clone();
        match q {
            Parsed::Term(t) => {
                let t = self.materialize_term(&mut s, t)?;
                match self.eval_term(&s, &t)? {
                    Val::Scalar(v) => Ok(Answer::Int(v)),
                    Val::Vector(_) => Err("ground term produced a vector".into()),
                }
            }
            Parsed::Sentence(f) => {
                let f = self.materialize_formula(&mut s, f)?;
                let preds = self.preds;
                self.span("eval.naive", || {
                    NaiveEvaluator::new(&s, preds)
                        .check_sentence(&f)
                        .map(Answer::Bool)
                        .map_err(|e| e.to_string())
                })
            }
            Parsed::Unary(q) => {
                let x = q.head_vars[0];
                let body = self.materialize_formula(&mut s, &q.body)?;
                let head = self.materialize_term(&mut s, &q.head_terms[0])?;
                let vals = self.eval_term(&s, &head)?;
                let preds = self.preds;
                self.span("eval.naive", || {
                    let mut ev = NaiveEvaluator::new(&s, preds);
                    let mut rows = Vec::new();
                    for e in s.universe() {
                        let mut env = Assignment::from_pairs([(x, e)]);
                        if ev.check(&body, &mut env).map_err(|e| e.to_string())? {
                            rows.push((e, vals.at(e)));
                        }
                    }
                    Ok(Answer::Rows(rows))
                })
            }
        }
    }

    /// Replaces every numerical-predicate application, innermost first,
    /// by a marker relation holding where the predicate holds (Theorem
    /// 6.10), leaving a first-order formula over the expanded structure.
    fn materialize_formula(
        &mut self,
        s: &mut Structure,
        f: &Arc<Formula>,
    ) -> Result<Arc<Formula>, String> {
        Ok(match &**f {
            Formula::Bool(_) | Formula::Eq(..) | Formula::Atom(_) | Formula::DistLe { .. } => {
                f.clone()
            }
            Formula::Not(g) => Arc::new(Formula::Not(self.materialize_formula(s, g)?)),
            Formula::And(gs) => Arc::new(Formula::And(
                gs.iter()
                    .map(|g| self.materialize_formula(s, g))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Or(gs) => Arc::new(Formula::Or(
                gs.iter()
                    .map(|g| self.materialize_formula(s, g))
                    .collect::<Result<_, _>>()?,
            )),
            Formula::Exists(y, g) => Arc::new(Formula::Exists(*y, self.materialize_formula(s, g)?)),
            Formula::Forall(y, g) => Arc::new(Formula::Forall(*y, self.materialize_formula(s, g)?)),
            Formula::Pred { name, args } => {
                let args: Vec<Arc<Term>> = args
                    .iter()
                    .map(|t| self.materialize_term(s, t))
                    .collect::<Result<_, _>>()?;
                let free: BTreeSet<Var> = args.iter().flat_map(|t| t.free_vars()).collect();
                let x = free.iter().next().copied();
                let vals: Vec<Val> = args
                    .iter()
                    .map(|t| self.eval_term(s, t))
                    .collect::<Result<_, _>>()?;
                let holds = |e: u32| {
                    let at: Vec<i64> = vals.iter().map(|v| v.at(e)).collect();
                    self.preds
                        .holds(*name, &at)
                        .ok_or_else(|| format!("unknown predicate {name}"))
                };
                match x {
                    None => Arc::new(Formula::Bool(holds(0)?)),
                    Some(x) => {
                        let mut rows = Vec::new();
                        for e in s.universe() {
                            if holds(e)? {
                                rows.push(vec![e]);
                            }
                        }
                        let marker = Var::fresh("M").symbol();
                        let decl = RelDecl {
                            name: marker,
                            arity: 1,
                        };
                        *s = self.span("structures.expand", || s.expand(vec![(decl, rows)]));
                        atom_sym(marker, vec![x])
                    }
                }
            }
        })
    }

    fn materialize_term(&mut self, s: &mut Structure, t: &Arc<Term>) -> Result<Arc<Term>, String> {
        Ok(match &**t {
            Term::Int(_) => t.clone(),
            Term::Count(vars, body) => Arc::new(Term::Count(
                vars.clone(),
                self.materialize_formula(s, body)?,
            )),
            Term::Add(ts) => Arc::new(Term::Add(
                ts.iter()
                    .map(|u| self.materialize_term(s, u))
                    .collect::<Result<_, _>>()?,
            )),
            Term::Mul(ts) => Arc::new(Term::Mul(
                ts.iter()
                    .map(|u| self.materialize_term(s, u))
                    .collect::<Result<_, _>>()?,
            )),
        })
    }

    /// Evaluates a term whose counting bodies are first order, as a
    /// scalar or (with `x` free) per element.
    fn eval_term(&mut self, s: &Structure, t: &Arc<Term>) -> Result<Val, String> {
        let combine = |parts: Vec<Val>, add: bool| -> Val {
            let n = s.order() as usize;
            if parts.iter().all(|p| matches!(p, Val::Scalar(_))) {
                let it = parts.iter().map(|p| p.at(0));
                return Val::Scalar(if add { it.sum() } else { it.product() });
            }
            Val::Vector(
                (0..n as u32)
                    .map(|e| {
                        let it = parts.iter().map(|p| p.at(e));
                        if add {
                            it.sum()
                        } else {
                            it.product()
                        }
                    })
                    .collect(),
            )
        };
        match &**t {
            Term::Int(i) => Ok(Val::Scalar(*i)),
            Term::Add(ts) | Term::Mul(ts) => {
                let parts = ts
                    .iter()
                    .map(|u| self.eval_term(s, u))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(combine(parts, matches!(&**t, Term::Add(_))))
            }
            Term::Count(vars, body) => {
                let free = t.free_vars();
                let unary = free.iter().next().copied();
                let decomposed = self.span("locality.decompose", || match unary {
                    None => decompose_ground(body, vars),
                    Some(y) => {
                        let mut all = vec![y];
                        all.extend(vars.iter().copied());
                        decompose_unary(body, &all)
                    }
                });
                match decomposed {
                    Ok(cl) => {
                        self.counts.clterms += 1;
                        self.counts.basics += cl.num_basics() as u64;
                        let cpu0 = crate::stats::cpu_seconds();
                        let t0 = std::time::Instant::now();
                        let v = self.eval_clterm(s, &cl)?;
                        self.eval_wall_s += t0.elapsed().as_secs_f64();
                        self.eval_cpu_s += crate::stats::cpu_seconds() - cpu0;
                        Ok(match v {
                            ClValue::Scalar(v) => Val::Scalar(v),
                            ClValue::Vector(v) => Val::Vector(v),
                        })
                    }
                    // Outside the separable fragment: the reference
                    // evaluator counts this component.
                    Err(_) => {
                        self.counts.naive_fallbacks += 1;
                        let preds = self.preds;
                        self.span("eval.naive", || {
                            let mut ev = NaiveEvaluator::new(s, preds);
                            match unary {
                                None => ev.eval_ground(t).map(Val::Scalar),
                                Some(y) => s
                                    .universe()
                                    .map(|e| ev.eval_term(t, &mut Assignment::from_pairs([(y, e)])))
                                    .collect::<Result<Vec<_>, _>>()
                                    .map(Val::Vector),
                            }
                            .map_err(|e| e.to_string())
                        })
                    }
                }
            }
        }
    }

    fn eval_clterm(&mut self, s: &Structure, cl: &foc_locality::ClTerm) -> Result<ClValue, String> {
        let handle = self.obs.handle();
        match self.cover {
            None => self.span("locality.eval", || {
                let mut ev = LocalEvaluator::new(s, self.preds);
                ev.set_cache(self.cache.clone());
                ev.set_observer(handle);
                ev.eval_clterm(cl).map_err(|e| e.to_string())
            }),
            Some(config) => {
                for b in cl.basics() {
                    self.cover_radii
                        .insert(LocalEvaluator::exploration_radius(&b) as u32);
                }
                let (v, stats) = self.span("covers.eval", || {
                    let mut ev = CoverEvaluator::new(s, self.preds);
                    ev.config = config;
                    ev.set_cache(self.cache.clone());
                    ev.set_observer(handle);
                    let v = ev.eval_clterm(cl).map_err(|e| e.to_string());
                    (v, ev.stats())
                });
                let c = &mut self.counts.cover;
                c.covers_built += stats.covers_built;
                c.clusters += stats.clusters;
                c.removals += stats.removals;
                c.naive_fallbacks += stats.naive_fallbacks;
                c.peak_cluster = c.peak_cluster.max(stats.peak_cluster);
                c.cover_nanos += stats.cover_nanos;
                v
            }
        }
    }
}
