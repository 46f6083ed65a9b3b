//! # foc-eval — reference semantics of FOC(P)
//!
//! A direct implementation of the semantics of Definition 3.1 (the
//! correctness oracle for the whole repository), FOC1(P) query evaluation
//! per Definition 5.2, and the free-variable elimination of Section 5.
//!
//! ```
//! use foc_eval::NaiveEvaluator;
//! use foc_logic::{parse::parse_formula, Predicates};
//! use foc_structures::gen::cycle;
//!
//! let c5 = cycle(5);
//! let preds = Predicates::standard();
//! // "the number of vertices plus the number of directed edges is prime"
//! // (Example 3.2): 5 + 10 = 15 is not prime.
//! let f = parse_formula("@prime(#(x). (x = x) + #(x,y). E(x,y))").unwrap();
//! let mut ev = NaiveEvaluator::new(&c5, &preds);
//! assert!(!ev.check_sentence(&f).unwrap());
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod eval;
pub mod freevars;
pub mod guards;
pub mod query;
pub mod validate;

pub use error::{EvalError, Result};
pub use eval::{Assignment, EvalStats, NaiveEvaluator, Validated};
pub use freevars::FreeVarElim;
pub use guards::{GuardContext, GuardPlanner};
pub use query::{eval_query, QueryResult, QueryRow};
