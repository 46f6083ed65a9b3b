//! The query batch: FOC1(P) templates (after experiments E3, E4, E7 and
//! E8) instantiated with a radius, a threshold and a numerical
//! predicate, each paired with the answer the oracle computes directly
//! from the generated data.

use std::collections::HashSet;
use std::sync::Arc;

use foc_core::Evaluator;
use foc_eval::QueryResult;
use foc_logic::parse::{parse_formula, parse_term};
use foc_logic::{Formula, Query, Term, Var};
use foc_structures::Structure;

use crate::gen::{Graph, HubDb};
use crate::oracle::{is_prime, Balls};
use crate::rng::Rng;

/// One generated input structure with its oracle state.
#[derive(Debug)]
pub struct Dataset {
    pub name: String,
    pub data: Data,
    balls: Balls,
}

#[derive(Debug)]
pub enum Data {
    Graph(Graph),
    Hub(HubDb),
}

impl Dataset {
    pub fn graph(g: Graph) -> Dataset {
        Dataset {
            name: format!("{}({})", g.family, g.order()),
            data: Data::Graph(g),
            balls: Balls::default(),
        }
    }

    pub fn hub(h: HubDb) -> Dataset {
        Dataset {
            name: format!("hub({})", h.order()),
            data: Data::Hub(h),
            balls: Balls::default(),
        }
    }

    pub fn order(&self) -> u32 {
        match &self.data {
            Data::Graph(g) => g.order(),
            Data::Hub(h) => h.order(),
        }
    }

    pub fn size(&self) -> usize {
        match &self.data {
            Data::Graph(g) => g.size(),
            Data::Hub(h) => h.size(),
        }
    }

    pub fn foc_text(&self) -> String {
        match &self.data {
            Data::Graph(g) => g.foc_text(),
            Data::Hub(h) => h.foc_text(),
        }
    }
}

/// How a query is posed to the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// A ground counting term (`Evaluator::eval_ground`).
    Term(String),
    /// A sentence (`Evaluator::check_sentence`).
    Sentence(String),
    /// `{(x, head(x)) : body(x)}` (`Evaluator::query`).
    Unary { head: String, body: String },
}

impl Shape {
    pub fn text(&self) -> String {
        match self {
            Shape::Term(t) | Shape::Sentence(t) => t.clone(),
            Shape::Unary { head, body } => format!("{{(x, {head}) : {body}}}"),
        }
    }
}

/// An answer, from the program or from the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Int(i64),
    Bool(bool),
    Rows(Vec<(u32, i64)>),
}

/// A parsed query, ready for the evaluator.
#[derive(Debug, Clone)]
pub enum Parsed {
    Term(Arc<Term>),
    Sentence(Arc<Formula>),
    Unary(Query),
}

impl Shape {
    pub fn parse(&self) -> Result<Parsed, String> {
        let e = |e: foc_logic::parse::ParseError| e.to_string();
        Ok(match self {
            Shape::Term(t) => Parsed::Term(parse_term(t).map_err(e)?),
            Shape::Sentence(s) => Parsed::Sentence(parse_formula(s).map_err(e)?),
            Shape::Unary { head, body } => Parsed::Unary(
                Query::new(
                    vec![Var::new("x")],
                    vec![parse_term(head).map_err(e)?],
                    parse_formula(body).map_err(e)?,
                )
                .map_err(|m| m.to_string())?,
            ),
        })
    }
}

/// Runs a parsed query through an evaluator.
pub fn evaluate(ev: &Evaluator, s: &Structure, q: &Parsed) -> Result<Answer, String> {
    let e = |e: foc_core::Error| e.to_string();
    Ok(match q {
        Parsed::Term(t) => Answer::Int(ev.eval_ground(s, t).map_err(e)?),
        Parsed::Sentence(f) => Answer::Bool(ev.check_sentence(s, f).map_err(e)?),
        Parsed::Unary(q) => rows_of(&ev.query(s, q).map_err(e)?),
    })
}

fn rows_of(r: &QueryResult) -> Answer {
    Answer::Rows(
        r.rows
            .iter()
            .map(|row| (row.elems[0], row.counts[0]))
            .collect(),
    )
}

/// The query templates. Graph templates run on `{E/2}` structures, hub
/// templates on the customers → country database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Template {
    /// E4 far pairs `#(x,y). dist(x,y) > r`, or the sentence "at least
    /// `t` far pairs" for a `t` near the count.
    Far,
    /// E4 degree pairs: `#(x,y). (E(x,y) & deg(y) = k)`.
    DegPairs,
    /// E3's sentence: parity of far pairs and a degree-1-neighbour
    /// threshold.
    Parity,
    /// A threshold sentence: some `r`-ball has at least `k` elements.
    Thresh,
    /// A one-free-variable query: `r`-ball sizes of the vertices of
    /// degree `>= k`.
    Ball,
    /// `@prime` on ball sizes: `#(x). (@prime(|B_r(x)|) & deg(x) >= k)`.
    Prime,
    /// E7 GROUP BY: customers per country, for countries with `>= k`.
    PerCountry,
    /// Customers living in a country with `>= k` customers.
    BigCountry,
    /// Customers with `>= k` orders.
    Orders,
    /// Orders of customers living in a country with `>= k` customers.
    OrdBig,
}

/// One instantiated query with its expected answer.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub dataset: usize,
    /// Position of the query's slot in the round (see [`batch`]).
    pub slot: usize,
    pub shape: Shape,
    pub expect: Answer,
}

/// Instantiates `template` on dataset `ds` with radius `r` and
/// threshold `k`, computing the expected answer directly.
pub fn instantiate(
    ds: &mut Dataset,
    index: usize,
    template: Template,
    r: u32,
    k: u32,
) -> QuerySpec {
    let (shape, expect) = match &ds.data {
        Data::Graph(g) => {
            let n = i64::from(g.order());
            let deg: Vec<usize> = (0..g.order()).map(|v| g.degree(v)).collect();
            let balls = ds.balls.get(&g.adj, r).to_vec();
            let k_us = k as usize;
            match template {
                Template::Far => {
                    // E4's far pairs: the count itself (k = 0), or a
                    // sentence comparing it with a threshold near it.
                    // Every form costs the same count.
                    let far: i64 = balls.iter().map(|&b| n - i64::from(b)).sum();
                    let count = format!("#(x,y). !(dist(x,y) <= {r})");
                    if k == 0 {
                        (Shape::Term(count), Answer::Int(far))
                    } else {
                        let t = far + i64::from(k) - 4;
                        (
                            Shape::Sentence(format!("{count} >= {t}")),
                            Answer::Bool(far >= t),
                        )
                    }
                }
                Template::DegPairs => (
                    Shape::Term(format!("#(x,y). (E(x,y) & #(z). E(y,z) = {k})")),
                    Answer::Int(k as i64 * deg.iter().filter(|&&d| d == k_us).count() as i64),
                ),
                Template::Parity => {
                    let far: i64 = balls.iter().map(|&b| n - i64::from(b)).sum();
                    let best = (0..g.order())
                        .map(|x| {
                            g.adj[x as usize]
                                .iter()
                                .filter(|&&y| deg[y as usize] == 1)
                                .count()
                        })
                        .max()
                        .unwrap_or(0);
                    (
                        Shape::Sentence(format!(
                            "@even(#(x,y). !(dist(x,y) <= {r})) & exists x. #(y). (E(x,y) & #(z). E(y,z) = 1) >= {k}"
                        )),
                        Answer::Bool(far % 2 == 0 && best >= k_us),
                    )
                }
                Template::Thresh => (
                    Shape::Sentence(format!("exists x. #(y). (dist(x,y) <= {r}) >= {k}")),
                    Answer::Bool(balls.iter().any(|&b| b >= k)),
                ),
                Template::Ball => (
                    Shape::Unary {
                        head: format!("#(y). (dist(x,y) <= {r})"),
                        body: format!("#(y). E(x,y) >= {k}"),
                    },
                    Answer::Rows(
                        (0..g.order())
                            .filter(|&x| deg[x as usize] >= k_us)
                            .map(|x| (x, i64::from(balls[x as usize])))
                            .collect(),
                    ),
                ),
                Template::Prime => (
                    Shape::Term(format!(
                        "#(x). (@prime(#(y). (dist(x,y) <= {r})) & #(y). E(x,y) >= {k})"
                    )),
                    Answer::Int(
                        (0..g.order() as usize)
                            .filter(|&x| deg[x] >= k_us && is_prime(i64::from(balls[x])))
                            .count() as i64,
                    ),
                ),
                _ => unreachable!("hub template on a graph"),
            }
        }
        Data::Hub(h) => {
            let mut cnt = vec![0i64; h.countries as usize];
            for &c in &h.country_of {
                cnt[c as usize] += 1;
            }
            let mut orders_of = vec![0i64; h.country_of.len()];
            for &(_, c) in &h.orders {
                orders_of[(c - h.countries) as usize] += 1;
            }
            let k_i = i64::from(k);
            match template {
                Template::PerCountry => (
                    Shape::Unary {
                        head: "#(y). Cust(y,x)".to_string(),
                        body: format!("#(y). Cust(y,x) >= {k}"),
                    },
                    Answer::Rows(
                        (0..h.countries)
                            .filter(|&c| cnt[c as usize] >= k_i)
                            .map(|c| (c, cnt[c as usize]))
                            .collect(),
                    ),
                ),
                Template::BigCountry => (
                    Shape::Term(format!(
                        "#(x). exists c. (Cust(x,c) & #(y). Cust(y,c) >= {k})"
                    )),
                    Answer::Int(cnt.iter().filter(|&&c| c >= k_i).sum()),
                ),
                Template::Orders => (
                    Shape::Term(format!("#(x). #(o). Ord(o,x) >= {k}")),
                    Answer::Int(orders_of.iter().filter(|&&o| o >= k_i).count() as i64),
                ),
                Template::OrdBig => (
                    Shape::Term(format!(
                        "#(o). exists c. exists d. (Ord(o,c) & Cust(c,d) & #(y). Cust(y,d) >= {k})"
                    )),
                    Answer::Int(
                        h.country_of
                            .iter()
                            .zip(&orders_of)
                            .filter(|(&c, _)| cnt[c as usize] >= k_i)
                            .map(|(_, &o)| o)
                            .sum(),
                    ),
                ),
                _ => unreachable!("graph template on the hub database"),
            }
        }
    };
    QuerySpec {
        dataset: index,
        slot: 0,
        shape,
        expect,
    }
}

/// A slot of the batch: one template at one radius on one dataset, with
/// the range its threshold `k` is drawn from.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub dataset: usize,
    pub template: Template,
    pub radius: u32,
    pub k_lo: u32,
    pub k_hi: u32,
}

/// Builds a batch of `rounds × slots.len()` pairwise distinct queries:
/// each round visits every slot once, in order, with a seeded
/// threshold (moved to the next free value on a repeat). The fixed slot
/// cycle keeps the cost mix the same for every seed; the seed varies
/// the data and the thresholds.
pub fn batch(
    datasets: &mut [Dataset],
    slots: &[Slot],
    rounds: usize,
    rng: &mut Rng,
) -> Vec<QuerySpec> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for _ in 0..rounds {
        for (i, slot) in slots.iter().enumerate() {
            let span = slot.k_hi - slot.k_lo + 1;
            let start = rng.below(u64::from(span)) as u32;
            let free = (0..span)
                .map(|i| slot.k_lo + (start + i) % span)
                .find(|&k| seen.insert((slot.dataset, slot.template, slot.radius, k)));
            if let Some(k) = free {
                let ds = &mut datasets[slot.dataset];
                let mut q = instantiate(ds, slot.dataset, slot.template, slot.radius, k);
                q.slot = i;
                out.push(q);
            }
        }
    }
    out
}
