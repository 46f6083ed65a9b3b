//! The cost-ordered guard planner: candidate values for a quantified or
//! counted variable, taken from the cheapest positive guard of its body.
//!
//! A *guard* of `var` is a conjunct of the body, reached through
//! conjunctions and `∃` binders of other variables, that every
//! satisfying value of `var` makes true and whose solutions can be
//! listed. There are three kinds: `var = v`, `dist(var, v) ≤ d` with `v`
//! bound, and a positive atom `R(…, var, …)`. A variable bound by a
//! binder on the way, or named in the caller's `shadowed` list, counts
//! as unbound. Each guard's solutions contain every satisfying value, so
//! the choice between guards changes the cost and never the answer.
//!
//! The planner sizes every guard before it builds any:
//!
//! * `var = v` gives one value;
//! * an atom gives the smallest index bucket among its bound companion
//!   positions (the sorted range of position 0 or a hash bucket), or the
//!   relation's length when none is bound;
//! * a `dist` guard's ball comes from the caller
//!   ([`GuardContext::ball`]): the ball evaluator has it at hand as a
//!   prefix of an assigned position's layers, the reference evaluator
//!   runs the BFS whose layers then answer the body's own `dist` atom.
//!   Balls are therefore tried last, and not at all against a one-value
//!   guard.
//!
//! Only the smallest source strictly below the caller's limit is built.
//! Ties are broken on the guards themselves, so the choice does not
//! depend on the order of the conjuncts.

use std::cmp::Ordering;
use std::ops::Range;

use foc_logic::{Atom, Formula, Var};
use foc_structures::{Relation, Structure};

use crate::eval::EvalStats;

/// What the planner asks of its caller.
pub trait GuardContext {
    /// The value bound to `v`, if any. The planner applies shadowing.
    fn value(&self, v: Var) -> Option<u32>;
    /// The radius-`d` ball around `anchor` if it has at most `max`
    /// elements; `None` when it is larger or not available.
    fn ball(&mut self, anchor: u32, d: u32, max: usize) -> Option<&[u32]>;
    /// The counters that relation rows visited while building are added
    /// to.
    fn stats(&mut self) -> &mut EvalStats;
}

/// One position of an atom guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    /// The variable being planned for.
    Var,
    /// A bound companion: the row must hold this value.
    Bound(u32),
    /// An unbound or shadowed companion: any value.
    Free,
}

/// The rows of a relation an atom guard reads.
#[derive(Debug, Clone)]
enum Bucket<'a> {
    /// Every row.
    All,
    /// A run of the sorted order (a bound position 0).
    Run(Range<usize>),
    /// A hash-index bucket (a bound later position).
    Ids(&'a [u32]),
}

impl Bucket<'_> {
    fn len(&self, rel: &Relation) -> usize {
        match self {
            Bucket::All => rel.len(),
            Bucket::Run(r) => r.len(),
            Bucket::Ids(ids) => ids.len(),
        }
    }
}

/// The cheapest sized source seen so far.
#[derive(Debug, Clone)]
enum Source<'f, 'a> {
    None,
    Value(u32),
    /// An atom and the rows it reads; its slots are in
    /// [`GuardPlanner::best_slots`].
    Rows(&'f Atom, &'a Relation, Bucket<'a>),
}

/// Reusable buffers of the planner; one per evaluator.
#[derive(Debug)]
pub struct GuardPlanner<'a> {
    structure: &'a Structure,
    shadowed: Vec<Var>,
    slots: Vec<Slot>,
    best_slots: Vec<Slot>,
    /// `(anchor, d)` of every `dist` guard found.
    balls: Vec<(u32, u32)>,
}

impl<'a> GuardPlanner<'a> {
    /// A planner over `structure`'s relations.
    pub fn new(structure: &'a Structure) -> GuardPlanner<'a> {
        GuardPlanner {
            structure,
            shadowed: Vec::new(),
            slots: Vec::new(),
            best_slots: Vec::new(),
            balls: Vec::new(),
        }
    }

    /// Fills `out` with candidate values for `var` from the cheapest
    /// guard of `body` that has fewer than `limit` of them, and says
    /// whether one did; `out` is then a superset of the values that
    /// satisfy `body`. Atom candidates come sorted and deduplicated,
    /// balls in the caller's order.
    pub fn candidates(
        &mut self,
        var: Var,
        body: &Formula,
        shadowed: &[Var],
        limit: usize,
        ctx: &mut dyn GuardContext,
        out: &mut Vec<u32>,
    ) -> bool {
        self.shadowed.clear();
        self.shadowed.extend_from_slice(shadowed);
        self.balls.clear();
        let mut best = (limit, Source::None);
        self.walk(var, body, &*ctx, &mut best);
        self.balls.sort_unstable();
        self.balls.dedup();
        let mut ball_won = false;
        for &(anchor, d) in &self.balls {
            // A ball holds its anchor, so it cannot beat one value.
            if best.0 <= 1 {
                break;
            }
            if let Some(ball) = ctx.ball(anchor, d, best.0.saturating_sub(1)) {
                out.clear();
                out.extend_from_slice(ball);
                best.0 = ball.len();
                ball_won = true;
            }
        }
        if ball_won {
            return true;
        }
        match best.1 {
            Source::None => false,
            Source::Value(v) => {
                out.clear();
                out.push(v);
                true
            }
            Source::Rows(_, rel, bucket) => {
                out.clear();
                let mut visit = |i: usize| {
                    let mut cand = None;
                    for (slot, &x) in self.best_slots.iter().zip(rel.row(i)) {
                        match *slot {
                            Slot::Bound(v) if v != x => return,
                            Slot::Var if cand.is_some_and(|c| c != x) => return,
                            Slot::Var => cand = Some(x),
                            _ => {}
                        }
                    }
                    out.extend(cand);
                };
                ctx.stats().guard_rows += best.0 as u64;
                match bucket {
                    Bucket::All => (0..rel.len()).for_each(visit),
                    Bucket::Run(r) => r.for_each(visit),
                    Bucket::Ids(ids) => ids.iter().for_each(|&i| visit(i as usize)),
                }
                out.sort_unstable();
                out.dedup();
                true
            }
        }
    }

    /// Lists the guards of `var` in `f`, keeping the smallest sized one
    /// in `best` and the `dist` guards in `self.balls`.
    fn walk<'f>(
        &mut self,
        var: Var,
        f: &'f Formula,
        ctx: &dyn GuardContext,
        best: &mut (usize, Source<'f, 'a>),
    ) {
        let lookup = |shadowed: &[Var], v: Var| {
            (v != var && !shadowed.contains(&v))
                .then(|| ctx.value(v))
                .flatten()
        };
        match f {
            Formula::And(parts) => {
                for p in parts {
                    self.walk(var, p, ctx, best);
                }
            }
            Formula::Exists(y, g) if *y != var => {
                self.shadowed.push(*y);
                self.walk(var, g, ctx, best);
                self.shadowed.pop();
            }
            Formula::Eq(a, b) | Formula::DistLe { x: a, y: b, .. } if *a == var || *b == var => {
                let other = if *a == var { *b } else { *a };
                match (lookup(&self.shadowed, other), f) {
                    (Some(anchor), Formula::DistLe { d, .. }) => self.balls.push((anchor, *d)),
                    (Some(v), _) if self.beats(1, &Source::Value(v), best) => {
                        *best = (1, Source::Value(v));
                    }
                    _ => {}
                }
            }
            Formula::Atom(at) if at.args.contains(&var) => {
                let Some(rel) = self.structure.relation(at.rel) else {
                    return;
                };
                self.slots.clear();
                let mut bucket = Bucket::All;
                for (pos, &v) in at.args.iter().enumerate() {
                    let slot = if v == var {
                        Slot::Var
                    } else if let Some(val) = lookup(&self.shadowed, v) {
                        // A bucket of at most one row cannot be beaten.
                        if bucket.len(rel) > 1 {
                            let b = match pos {
                                0 => Bucket::Run(rel.first_run(val)),
                                _ => Bucket::Ids(rel.ids_with_value_at(pos, val)),
                            };
                            if b.len(rel) < bucket.len(rel) {
                                bucket = b;
                            }
                        }
                        Slot::Bound(val)
                    } else {
                        Slot::Free
                    };
                    self.slots.push(slot);
                }
                let size = bucket.len(rel);
                let source = Source::Rows(at, rel, bucket);
                if self.beats(size, &source, best) {
                    *best = (size, source);
                    std::mem::swap(&mut self.slots, &mut self.best_slots);
                }
            }
            _ => {}
        }
    }

    /// Whether `source` of `size` values beats `best`: it is smaller, or
    /// as small and first in a fixed order of the guards themselves (the
    /// atom being sized has its slots in `self.slots`).
    fn beats(&self, size: usize, source: &Source<'_, '_>, best: &(usize, Source<'_, '_>)) -> bool {
        let tie = match (source, &best.1) {
            (_, Source::None) => return size < best.0,
            (Source::Value(a), Source::Value(b)) => a.cmp(b),
            (Source::Value(_), _) => Ordering::Less,
            (Source::Rows(a, ..), Source::Rows(b, ..)) => (a.rel, &a.args)
                .cmp(&(b.rel, &b.args))
                .then_with(|| self.slots.cmp(&self.best_slots)),
            _ => Ordering::Greater,
        };
        size.cmp(&best.0).then(tie).is_lt()
    }
}
