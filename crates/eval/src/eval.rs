//! The reference evaluator: a direct implementation of the semantics of
//! Definition 3.1.
//!
//! This evaluator is the *correctness oracle* of the repository — every
//! rewriting step (Gaifman normal form, cl-decomposition, removal lemma,
//! cover localisation) is property-tested against it. It is deliberately
//! close to the paper's semantic clauses; its only optimisation is
//! *candidate-driven quantification*: a quantified or counted variable
//! ranges over the candidates of the cheapest guard of its body — an
//! equality, a positive atom or a positive `dist` conjunct — instead of
//! the whole universe. The [guard planner](crate::guards) sizes every
//! guard from the relation indexes before it builds one, so a guard the
//! index answers in a few rows is never paid for with a full scan of
//! another relation. This does not change the semantics — values outside
//! a guard's candidates falsify the guard — but turns `∃x̄ R(x̄,…)`
//! patterns from `n^k` scans into index lookups, which is what makes the
//! SQL workloads of Example 5.3 runnable at realistic sizes.

use foc_guard::{Guard, Phase};
use foc_logic::{Formula, Predicates, Term, Var};
use foc_structures::{BfsScratch, FxHashMap, Signature, Structure};

use crate::error::{EvalError, Result};
use crate::guards::{GuardContext, GuardPlanner};
use crate::validate::{validate_formula, validate_term};

/// A partial assignment `β : vars → A` (only finitely many bindings are
/// ever consulted). Formulas bind a handful of variables at a time, so
/// the bindings are a short list searched from the most recent one.
#[derive(Debug, Default, Clone)]
pub struct Assignment {
    binds: Vec<(Var, u32)>,
}

impl Assignment {
    /// The empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// An assignment binding `vars[i] ↦ vals[i]` (a later pair for the
    /// same variable wins).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Var, u32)>) -> Assignment {
        let mut env = Assignment::new();
        for (v, a) in pairs {
            env.bind(v, a);
        }
        env
    }

    #[inline]
    fn slot(&self, v: Var) -> Option<usize> {
        self.binds.iter().rposition(|&(w, _)| w == v)
    }

    /// Current binding of `v`, if any.
    #[inline]
    pub fn get(&self, v: Var) -> Option<u32> {
        self.slot(v).map(|i| self.binds[i].1)
    }

    /// Binds `v ↦ a`, returning the previous binding.
    #[inline]
    pub fn bind(&mut self, v: Var, a: u32) -> Option<u32> {
        match self.slot(v) {
            Some(i) => Some(std::mem::replace(&mut self.binds[i].1, a)),
            None => {
                self.binds.push((v, a));
                None
            }
        }
    }

    /// Restores a previous binding (or removes `v` if there was none).
    #[inline]
    pub fn restore(&mut self, v: Var, prev: Option<u32>) {
        match (self.slot(v), prev) {
            (Some(i), Some(a)) => self.binds[i].1 = a,
            (Some(i), None) => {
                self.binds.remove(i);
            }
            (None, Some(a)) => self.binds.push((v, a)),
            (None, None) => {}
        }
    }
}

/// Counters describing the work an evaluation performed; used by the
/// experiment harness to report machine-independent cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Assignments tried across all quantifiers and counting terms.
    pub assignments_tried: u64,
    /// Atom membership tests.
    pub atom_tests: u64,
    /// `dist(x, y) ≤ d` atoms evaluated.
    pub dist_queries: u64,
    /// BFS runs behind those atoms, counting the balls that `dist`
    /// guards enumerate candidates from; every other atom was answered
    /// from the layers of the previous run (`dist_queries − dist_bfs`
    /// memo hits).
    pub dist_bfs: u64,
    /// Numerical predicate oracle calls.
    pub oracle_calls: u64,
    /// Relation rows visited while building guard candidates.
    pub guard_rows: u64,
}

impl EvalStats {
    /// Adds every counter of `other` to `self`.
    pub fn merge(&mut self, other: &EvalStats) {
        self.assignments_tried += other.assignments_tried;
        self.atom_tests += other.atom_tests;
        self.dist_queries += other.dist_queries;
        self.dist_bfs += other.dist_bfs;
        self.oracle_calls += other.oracle_calls;
        self.guard_rows += other.guard_rows;
    }
}

/// A formula that passed static validation against one structure's
/// signature and one predicate collection. Only
/// [`NaiveEvaluator::validate`] makes one, so a caller checking the same
/// formula under many assignments validates it once.
#[derive(Debug, Clone, Copy)]
pub struct Validated<'f> {
    formula: &'f Formula,
    sig: &'f Signature,
    preds: &'f Predicates,
}

/// The reference evaluator over one structure and predicate collection.
pub struct NaiveEvaluator<'a> {
    structure: &'a Structure,
    preds: &'a Predicates,
    /// Layers of the last BFS over the Gaifman graph; `dist` atoms with
    /// that source as either endpoint are answered from them.
    scratch: BfsScratch,
    /// Buffers of the guard planner behind candidate-driven
    /// quantification.
    planner: GuardPlanner<'a>,
    /// Values of *closed* counting terms (no free variables): they do not
    /// depend on the assignment, so they are computed once per structure.
    ground_cache: FxHashMap<Term, i64>,
    /// Cooperative resource guard; checked once per assignment tried.
    guard: Guard,
    /// Work counters (reset with [`NaiveEvaluator::reset_stats`]).
    pub stats: EvalStats,
}

impl<'a> NaiveEvaluator<'a> {
    /// Creates an evaluator for `structure` with the predicate oracle
    /// `preds`.
    pub fn new(structure: &'a Structure, preds: &'a Predicates) -> NaiveEvaluator<'a> {
        NaiveEvaluator {
            structure,
            preds,
            scratch: BfsScratch::new(),
            planner: GuardPlanner::new(structure),
            ground_cache: FxHashMap::default(),
            guard: Guard::unlimited(),
            stats: EvalStats::default(),
        }
    }

    /// Installs a cooperative resource guard; it is checked once per
    /// assignment tried, so deadline / fuel / cancellation budgets bound
    /// the quantifier and counting enumerations.
    pub fn set_guard(&mut self, guard: Guard) {
        self.guard = guard;
    }

    /// The structure being evaluated against.
    pub fn structure(&self) -> &'a Structure {
        self.structure
    }

    /// Clears the work counters.
    pub fn reset_stats(&mut self) {
        self.stats = EvalStats::default();
    }

    /// Checks a sentence: `A ⊨ φ`.
    pub fn check_sentence(&mut self, f: &Formula) -> Result<bool> {
        validate_formula(f, self.structure.signature(), self.preds)?;
        let mut env = Assignment::new();
        self.formula(f, &mut env)
    }

    /// Model checking with parameters: `A ⊨ φ[ā]`.
    pub fn check(&mut self, f: &Formula, env: &mut Assignment) -> Result<bool> {
        validate_formula(f, self.structure.signature(), self.preds)?;
        self.formula(f, env)
    }

    /// Validates `f` once for [`NaiveEvaluator::check_validated`].
    pub fn validate<'f>(&self, f: &'f Formula) -> Result<Validated<'f>>
    where
        'a: 'f,
    {
        let sig: &Signature = self.structure.signature();
        validate_formula(f, sig, self.preds)?;
        Ok(Validated {
            formula: f,
            sig,
            preds: self.preds,
        })
    }

    /// [`NaiveEvaluator::check`] without re-validating. A formula
    /// validated for another structure's signature or another predicate
    /// collection is validated again here.
    pub fn check_validated(&mut self, f: Validated<'_>, env: &mut Assignment) -> Result<bool> {
        let sig: &Signature = self.structure.signature();
        if !std::ptr::eq(f.sig, sig) || !std::ptr::eq(f.preds, self.preds) {
            validate_formula(f.formula, sig, self.preds)?;
        }
        self.formula(f.formula, env)
    }

    /// Evaluates a ground term: `t^A`.
    pub fn eval_ground(&mut self, t: &Term) -> Result<i64> {
        validate_term(t, self.structure.signature(), self.preds)?;
        let mut env = Assignment::new();
        self.term(t, &mut env)
    }

    /// Evaluates a term under an assignment: `t^A[ā]`.
    pub fn eval_term(&mut self, t: &Term, env: &mut Assignment) -> Result<i64> {
        validate_term(t, self.structure.signature(), self.preds)?;
        self.term(t, env)
    }

    /// The counting problem of Corollary 5.6: `|φ(A)|` over the given
    /// tuple of free variables.
    pub fn count_satisfying(&mut self, f: &Formula, vars: &[Var]) -> Result<i64> {
        validate_formula(f, self.structure.signature(), self.preds)?;
        let mut env = Assignment::new();
        self.count_rec(vars, f, &mut env)
    }

    /// Enumerates `φ(A)` over the given tuple of free variables.
    pub fn satisfying_tuples(&mut self, f: &Formula, vars: &[Var]) -> Result<Vec<Vec<u32>>> {
        validate_formula(f, self.structure.signature(), self.preds)?;
        let mut env = Assignment::new();
        let mut out = Vec::new();
        let mut cur = Vec::with_capacity(vars.len());
        self.enumerate_rec(vars, f, &mut env, &mut cur, &mut out)?;
        Ok(out)
    }

    fn formula(&mut self, f: &Formula, env: &mut Assignment) -> Result<bool> {
        match f {
            Formula::Bool(b) => Ok(*b),
            Formula::Eq(x, y) => {
                let a = env.get(*x).ok_or(EvalError::UnboundVariable(*x))?;
                let b = env.get(*y).ok_or(EvalError::UnboundVariable(*y))?;
                Ok(a == b)
            }
            Formula::Atom(at) => {
                self.stats.atom_tests += 1;
                // Short tuples are assembled on the stack.
                let mut buf = [0u32; 8];
                let mut spill = Vec::new();
                let tuple = match buf.get_mut(..at.args.len()) {
                    Some(t) => t,
                    None => {
                        spill.resize(at.args.len(), 0);
                        &mut spill[..]
                    }
                };
                for (slot, v) in tuple.iter_mut().zip(at.args.iter()) {
                    *slot = env.get(*v).ok_or(EvalError::UnboundVariable(*v))?;
                }
                Ok(self.structure.holds(at.rel, tuple))
            }
            Formula::DistLe { x, y, d } => {
                let a = env.get(*x).ok_or(EvalError::UnboundVariable(*x))?;
                let b = env.get(*y).ok_or(EvalError::UnboundVariable(*y))?;
                self.stats.dist_queries += 1;
                if a == b {
                    return Ok(true);
                }
                let (from, to) = if memo_covers(&self.scratch, b, *d) {
                    (b, a)
                } else {
                    (a, b)
                };
                bfs_layers(self.structure, &mut self.scratch, &mut self.stats, from, *d);
                Ok(self.scratch.dist(to).is_some_and(|x| x <= *d))
            }
            Formula::Not(g) => Ok(!self.formula(g, env)?),
            Formula::And(gs) => {
                for g in gs {
                    if !self.formula(g, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(gs) => {
                for g in gs {
                    if self.formula(g, env)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Exists(y, g) => {
                let cands = self.candidates(*y, g, env, &[]);
                let prev = env.get(*y);
                let result = (|| {
                    match cands {
                        Candidates::List(vals) => {
                            for a in vals {
                                self.guard.check(Phase::NaiveEval)?;
                                self.stats.assignments_tried += 1;
                                env.bind(*y, a);
                                if self.formula(g, env)? {
                                    return Ok(true);
                                }
                            }
                        }
                        Candidates::Universe => {
                            for a in self.structure.universe() {
                                self.guard.check(Phase::NaiveEval)?;
                                self.stats.assignments_tried += 1;
                                env.bind(*y, a);
                                if self.formula(g, env)? {
                                    return Ok(true);
                                }
                            }
                        }
                    }
                    Ok(false)
                })();
                env.restore(*y, prev);
                result
            }
            Formula::Forall(y, g) => {
                let prev = env.get(*y);
                let result = (|| {
                    for a in self.structure.universe() {
                        self.guard.check(Phase::NaiveEval)?;
                        self.stats.assignments_tried += 1;
                        env.bind(*y, a);
                        if !self.formula(g, env)? {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                })();
                env.restore(*y, prev);
                result
            }
            Formula::Pred { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for t in args {
                    vals.push(self.term(t, env)?);
                }
                self.stats.oracle_calls += 1;
                self.preds
                    .holds(*name, &vals)
                    .ok_or(EvalError::UnknownPredicate(*name))
            }
        }
    }

    fn term(&mut self, t: &Term, env: &mut Assignment) -> Result<i64> {
        match t {
            Term::Int(i) => Ok(*i),
            Term::Count(vars, body) => {
                // Closed counting terms are assignment-independent; cache
                // them so repeated evaluation (e.g. per result tuple of a
                // query) pays once.
                let closed = t.free_vars().is_empty();
                if closed {
                    if let Some(&v) = self.ground_cache.get(t) {
                        return Ok(v);
                    }
                }
                let v = self.count_rec(vars, body, env)?;
                if closed {
                    self.ground_cache.insert(t.clone(), v);
                }
                Ok(v)
            }
            Term::Add(ts) => {
                let mut acc: i64 = 0;
                for s in ts {
                    acc = acc
                        .checked_add(self.term(s, env)?)
                        .ok_or(EvalError::Overflow)?;
                }
                Ok(acc)
            }
            Term::Mul(ts) => {
                let mut acc: i64 = 1;
                for s in ts {
                    acc = acc
                        .checked_mul(self.term(s, env)?)
                        .ok_or(EvalError::Overflow)?;
                }
                Ok(acc)
            }
        }
    }

    /// Counts assignments of `vars` satisfying `body` under `env`
    /// (rule (5) of Definition 3.1).
    fn count_rec(&mut self, vars: &[Var], body: &Formula, env: &mut Assignment) -> Result<i64> {
        let Some((&y, rest)) = vars.split_first() else {
            return Ok(if self.formula(body, env)? { 1 } else { 0 });
        };
        let cands = self.candidates(y, body, env, rest);
        let prev = env.get(y);
        let result = (|| {
            let mut acc: i64 = 0;
            match cands {
                Candidates::List(vals) => {
                    for a in vals {
                        self.guard.check(Phase::NaiveEval)?;
                        self.stats.assignments_tried += 1;
                        env.bind(y, a);
                        acc = acc
                            .checked_add(self.count_rec(rest, body, env)?)
                            .ok_or(EvalError::Overflow)?;
                    }
                }
                Candidates::Universe => {
                    for a in self.structure.universe() {
                        self.guard.check(Phase::NaiveEval)?;
                        self.stats.assignments_tried += 1;
                        env.bind(y, a);
                        acc = acc
                            .checked_add(self.count_rec(rest, body, env)?)
                            .ok_or(EvalError::Overflow)?;
                    }
                }
            }
            Ok(acc)
        })();
        env.restore(y, prev);
        result
    }

    fn enumerate_rec(
        &mut self,
        vars: &[Var],
        body: &Formula,
        env: &mut Assignment,
        cur: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
    ) -> Result<()> {
        let Some((&y, rest)) = vars.split_first() else {
            if self.formula(body, env)? {
                out.push(cur.clone());
            }
            return Ok(());
        };
        let cands = self.candidates(y, body, env, rest);
        let prev = env.get(y);
        let result = (|| {
            let vals: Vec<u32> = match cands {
                Candidates::List(vals) => vals,
                Candidates::Universe => self.structure.universe().collect(),
            };
            for a in vals {
                self.guard.check(Phase::NaiveEval)?;
                self.stats.assignments_tried += 1;
                env.bind(y, a);
                cur.push(a);
                self.enumerate_rec(rest, body, env, cur, out)?;
                cur.pop();
            }
            Ok(())
        })();
        env.restore(y, prev);
        result
    }

    /// Candidate values for `var` from the cheapest guard of `body` (see
    /// [`crate::guards`]), sorted; [`Candidates::Universe`] when there is
    /// none. Variables in `pre_shadowed` are *about to be rebound* (the
    /// remaining counted variables of an enclosing `#`), so their stale
    /// outer bindings must not select candidates.
    fn candidates(
        &mut self,
        var: Var,
        body: &Formula,
        env: &Assignment,
        pre_shadowed: &[Var],
    ) -> Candidates {
        let mut ctx = NaiveGuards {
            env,
            structure: self.structure,
            scratch: &mut self.scratch,
            stats: &mut self.stats,
        };
        let mut vals = Vec::new();
        if self
            .planner
            .candidates(var, body, pre_shadowed, usize::MAX, &mut ctx, &mut vals)
        {
            // Balls come in BFS order.
            vals.sort_unstable();
            Candidates::List(vals)
        } else {
            Candidates::Universe
        }
    }
}

/// Whether the last BFS in `scratch` ran from `src` and reached at least
/// radius `d`.
fn memo_covers(scratch: &BfsScratch, src: u32, d: u32) -> bool {
    scratch.source() == Some(src) && d <= scratch.cap()
}

/// Leaves BFS layers from `src` covering radius `d` in `scratch`, reusing
/// the last run when it does.
fn bfs_layers(s: &Structure, scratch: &mut BfsScratch, stats: &mut EvalStats, src: u32, d: u32) {
    if !memo_covers(scratch, src, d) {
        stats.dist_bfs += 1;
        s.gaifman().bfs(src, d, scratch);
    }
}

/// The reference evaluator's side of guard planning: bindings from the
/// assignment, balls from the BFS memo. A ball not in the memo is
/// searched in full whatever `max` is: the body's own `dist` atom is then
/// answered from the same layers for every candidate, whichever guard
/// wins.
struct NaiveGuards<'e, 'a> {
    env: &'e Assignment,
    structure: &'a Structure,
    scratch: &'e mut BfsScratch,
    stats: &'e mut EvalStats,
}

impl GuardContext for NaiveGuards<'_, '_> {
    fn value(&self, v: Var) -> Option<u32> {
        self.env.get(v)
    }

    fn ball(&mut self, anchor: u32, d: u32, max: usize) -> Option<&[u32]> {
        bfs_layers(self.structure, self.scratch, self.stats, anchor, d);
        let ball = self.scratch.within(d);
        (ball.len() <= max).then_some(ball)
    }

    fn stats(&mut self) -> &mut EvalStats {
        self.stats
    }
}

enum Candidates {
    Universe,
    List(Vec<u32>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_logic::build::*;
    use foc_logic::parse::parse_formula;
    use foc_structures::gen::{clique, cycle, example_colored, path, star};

    fn preds() -> Predicates {
        Predicates::standard()
    }

    #[test]
    fn atoms_and_equality() {
        let s = path(4);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let mut env = Assignment::from_pairs([(v("x"), 0), (v("y"), 1)]);
        assert!(ev.check(&atom("E", [v("x"), v("y")]), &mut env).unwrap());
        assert!(!ev.check(&eq(v("x"), v("y")), &mut env).unwrap());
        let mut env2 = Assignment::from_pairs([(v("x"), 0), (v("y"), 2)]);
        assert!(!ev.check(&atom("E", [v("x"), v("y")]), &mut env2).unwrap());
    }

    #[test]
    fn quantifiers_on_path() {
        let s = path(4);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        // Every vertex has a neighbour.
        let f = parse_formula("forall x. exists y. E(x,y)").unwrap();
        assert!(ev.check_sentence(&f).unwrap());
        // Some vertex has two distinct neighbours.
        let g = parse_formula("exists x y z. (E(x,y) & E(x,z) & !(y=z))").unwrap();
        assert!(ev.check_sentence(&g).unwrap());
        // On a 2-path no vertex has 3 neighbours.
        let h =
            parse_formula("exists x a b c. (E(x,a) & E(x,b) & E(x,c) & !(a=b) & !(a=c) & !(b=c))")
                .unwrap();
        assert!(!ev.check_sentence(&h).unwrap());
    }

    #[test]
    fn counting_degrees() {
        let s = star(6); // hub 0 with 5 leaves
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let deg = cnt([v("y")], atom("E", [v("x"), v("y")]));
        let mut hub = Assignment::from_pairs([(v("x"), 0)]);
        assert_eq!(ev.eval_term(&deg, &mut hub).unwrap(), 5);
        let mut leaf = Assignment::from_pairs([(v("x"), 3)]);
        assert_eq!(ev.eval_term(&deg, &mut leaf).unwrap(), 1);
    }

    #[test]
    fn ground_terms_and_arithmetic() {
        let s = cycle(5);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        // #(x). x=x = 5 vertices; #(x,y). E(x,y) = 10 directed edges.
        let t = parse_formula("@prime(#(x). (x = x) + #(x,y). E(x,y))").unwrap();
        // 5 + 10 = 15, not prime.
        assert!(!ev.check_sentence(&t).unwrap());
        let verts = ev.eval_ground(&cnt([v("x")], eq(v("x"), v("x")))).unwrap();
        assert_eq!(verts, 5);
    }

    #[test]
    fn example_3_2_out_degree() {
        // On the colored example digraph, out-degree of node 0 is 1.
        let s = example_colored();
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let t = cnt([v("z")], atom("E", [v("y"), v("z")]));
        let mut env = Assignment::from_pairs([(v("y"), 0)]);
        assert_eq!(ev.eval_term(&t, &mut env).unwrap(), 1);
        let f = ge1(t);
        assert!(ev.check(&f, &mut env).unwrap());
        // Node 3 has out-degree 1 (3→0); node 2 has out-degree 1 (2→0).
        let mut env3 = Assignment::from_pairs([(v("y"), 3)]);
        assert!(ev.check(&f, &mut env3).unwrap());
    }

    #[test]
    fn count_zero_vars() {
        // #().φ is 1 or 0 depending on φ.
        let s = path(3);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let t = cnt_vec(vec![], parse_formula("exists x y. E(x,y)").unwrap());
        assert_eq!(ev.eval_ground(&t).unwrap(), 1);
        let t0 = cnt_vec(vec![], ff());
        assert_eq!(ev.eval_ground(&t0).unwrap(), 0);
    }

    #[test]
    fn count_satisfying_and_enumerate() {
        let s = path(4);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let f = atom("E", [v("x"), v("y")]);
        assert_eq!(ev.count_satisfying(&f, &[v("x"), v("y")]).unwrap(), 6);
        let tuples = ev.satisfying_tuples(&f, &[v("x"), v("y")]).unwrap();
        assert_eq!(tuples.len(), 6);
        assert!(tuples.contains(&vec![0, 1]));
        assert!(tuples.contains(&vec![1, 0]));
        assert!(!tuples.contains(&vec![0, 2]));
    }

    #[test]
    fn dist_atoms() {
        let s = path(6);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let mut env = Assignment::from_pairs([(v("x"), 0), (v("y"), 3)]);
        assert!(ev.check(&dist_le(v("x"), v("y"), 3), &mut env).unwrap());
        assert!(!ev.check(&dist_le(v("x"), v("y"), 2), &mut env).unwrap());
        assert!(ev.check(&dist_gt(v("x"), v("y"), 2), &mut env).unwrap());
    }

    #[test]
    fn nested_counting_example_3_2() {
        // ∃x Prime(#(y). P=(#(z).E(x,z), #(z).E(y,z))): there is an
        // out-degree d (witnessed by x) with a prime number of nodes of
        // out-degree d. On K4 (symmetrised), every node has out-degree 3,
        // so the count is 4 — not prime. On a 5-cycle every node has
        // out-degree 2, count 5 — prime.
        let f = parse_formula("exists x. @prime(#(y). #(z). E(x,z) = #(z). E(y,z))").unwrap();
        let p = preds();
        let k4 = clique(4);
        assert!(!NaiveEvaluator::new(&k4, &p).check_sentence(&f).unwrap());
        let c5 = cycle(5);
        assert!(NaiveEvaluator::new(&c5, &p).check_sentence(&f).unwrap());
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let s = path(3);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let mut env = Assignment::new();
        assert!(matches!(
            ev.check(&atom("E", [v("x"), v("y")]), &mut env),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn dist_atoms_reuse_the_last_bfs() {
        let s = cycle(9);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let (x, y) = (v("x"), v("y"));
        let brute = |a: u32, b: u32, d: u32| {
            let mut scratch = BfsScratch::new();
            s.gaifman().dist_le(a, b, d, &mut scratch)
        };
        let ask = |ev: &mut NaiveEvaluator<'_>, a: u32, b: u32, d: u32, bfs: u64| {
            let mut env = Assignment::from_pairs([(x, a), (y, b)]);
            let got = ev.check(&dist_le(x, y, d), &mut env).unwrap();
            assert_eq!(got, brute(a, b, d), "dist({a},{b}) <= {d}");
            assert_eq!(
                ev.stats.dist_bfs, bfs,
                "BFS runs after dist({a},{b}) <= {d}"
            );
        };
        ask(&mut ev, 0, 3, 3, 1); // first query: BFS from 0, cap 3
        ask(&mut ev, 0, 4, 3, 1); // same source
        ask(&mut ev, 3, 0, 3, 1); // symmetric hit: 0 is the second argument
        ask(&mut ev, 0, 3, 2, 1); // smaller radius: a prefix of the layers
        ask(&mut ev, 0, 4, 4, 2); // radius above the cached cap: recompute
        ask(&mut ev, 5, 5, 0, 2); // a == b needs no BFS
        ask(&mut ev, 5, 7, 1, 3); // neither endpoint is the source
        ask(&mut ev, 7, 5, 1, 3);
        assert_eq!(ev.stats.dist_queries, 8);
    }

    #[test]
    fn validated_formulas_check_like_check() {
        let s = path(5);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let f = and(atom("E", [v("x"), v("y")]), dist_le(v("x"), v("y"), 1));
        let token = ev.validate(&f).unwrap();
        for a in s.universe() {
            for b in s.universe() {
                let mut env = Assignment::from_pairs([(v("x"), a), (v("y"), b)]);
                let want = ev.check(&f, &mut env).unwrap();
                assert_eq!(ev.check_validated(token, &mut env).unwrap(), want);
            }
        }
        assert!(matches!(
            ev.validate(&atom("F", [v("x")])),
            Err(EvalError::UnknownRelation(_))
        ));
        // A token made for another signature is validated again.
        let colored = example_colored();
        let r = atom("R", [v("x")]);
        let foreign = NaiveEvaluator::new(&colored, &p).validate(&r).unwrap();
        let mut env = Assignment::from_pairs([(v("x"), 0)]);
        assert!(matches!(
            ev.check_validated(foreign, &mut env),
            Err(EvalError::UnknownRelation(_))
        ));
    }

    #[test]
    fn candidate_guard_agrees_with_universe_scan() {
        // The candidate-driven path must agree with brute force on a
        // formula where guards exist: count pairs at distance ≤ 2.
        let s = cycle(8);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let f = and(dist_le(v("x"), v("y"), 2), not(eq(v("x"), v("y"))));
        // Each vertex has 4 vertices within distance 1..2 on an 8-cycle.
        assert_eq!(ev.count_satisfying(&f, &[v("x"), v("y")]).unwrap(), 32);
    }

    #[test]
    fn fuel_budget_interrupts_enumeration() {
        use foc_guard::{Budget, TripReason};
        let s = clique(8);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        ev.set_guard(Budget::unlimited().with_fuel(5).arm());
        let f = parse_formula("forall x. exists y. E(x,y)").unwrap();
        match ev.check_sentence(&f) {
            Err(EvalError::Interrupted(i)) => assert_eq!(i.reason, TripReason::Fuel),
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn stats_are_recorded() {
        let s = path(5);
        let p = preds();
        let mut ev = NaiveEvaluator::new(&s, &p);
        let f = parse_formula("exists x y. E(x,y)").unwrap();
        ev.check_sentence(&f).unwrap();
        assert!(ev.stats.assignments_tried > 0);
        assert!(ev.stats.atom_tests > 0);
        ev.reset_stats();
        assert_eq!(ev.stats, EvalStats::default());
    }
}
