//! Hierarchical Temporal Logic (HTL) — the query language of
//! *Similarity Based Retrieval of Videos* (Sistla, Yu &
//! Venkatasubrahmanian, ICDE 1997), §2.
//!
//! HTL formulas describe properties of sequences of video segments. They
//! combine:
//!
//! * **atomic predicates** on the meta-data of a single segment —
//!   `present(x)`, class predicates like `person(x)`, relationship
//!   predicates like `fires_at(x, y)`, and attribute comparisons like
//!   `height(z) > h` or `type = "western"`;
//! * the **temporal operators** `next`, `until` and `eventually` over the
//!   sequence of segments at one level;
//! * **level modal operators** (`at next level`, `at level i`,
//!   `at shot level`, …) that descend the video hierarchy;
//! * conjunction, negation, the existential quantifier `exists x .` over
//!   object variables, and the **freeze quantifier** `[h := height(z)]`
//!   that captures an attribute value for later comparison.
//!
//! This crate provides the AST ([`Formula`]), a concrete textual syntax with
//! a [`parse`]r and pretty printer, free/bound variable analysis, the
//! paper's formula-class hierarchy ([`classify`]: type (1) ⊂ type (2) ⊂
//! conjunctive ⊂ extended conjunctive), extraction of the maximal
//! non-temporal **atomic units** that the retrieval engines feed to the
//! picture system, and an **exact (boolean) semantics** evaluator used as a
//! reference oracle by the similarity engine's tests.
//!
//! # Concrete syntax
//!
//! ```text
//! formula  := conj ("until" formula)?                    -- right-assoc
//! conj     := unary ("and" unary)*
//! unary    := "not" unary | "next" unary | "eventually" unary
//!           | "exists" IDENT "." unary
//!           | "[" IDENT ":=" term "]" unary
//!           | "at" ("next" | "level" NUM | IDENT "level") unary
//!           | atom
//! atom     := "present" "(" IDENT ")" | "true" | "false"
//!           | "(" formula ")"
//!           | term (CMP term)?          -- comparison or relation predicate
//! term     := IDENT | IDENT "(" term,* ")" | STRING | NUMBER
//! ```
//!
//! Example queries from the paper:
//!
//! ```
//! use simvid_htl::parse;
//!
//! // Formula (A), asserted at the shot level:
//! parse("at shot level (M1() and next (M2() until M3()))").unwrap();
//! // Formula (B): John Wayne shoots a bandit.
//! parse(
//!     "exists x . exists y . \
//!      (present(x) and present(y) and person(x) and person(y) and \
//!       name(x) = \"John Wayne\" and holds_gun(x) and holds_gun(y)) \
//!      and eventually (fires_at(x, y) and eventually on_floor(y))",
//! )
//! .unwrap();
//! // Formula (C): a plane appears, later the same plane appears higher.
//! parse(
//!     "exists z . (present(z) and type(z) = \"airplane\" and \
//!      [h := height(z)] eventually (present(z) and height(z) > h))",
//! )
//! .unwrap();
//! ```

mod ast;
mod atoms;
mod classify;
mod error;
mod exact;
mod intern;
mod lexer;
mod normalize;
mod parser;
mod print;
mod vars;

pub use ast::{Atom, AttrFn, AttrVar, CmpOp, Expr, Formula, LevelSpec, ObjVar};
pub use atoms::{atomic_units, is_pure, AtomicUnit};
pub use classify::{classify, FormulaClass};
pub use error::{ParseError, ParseErrorKind};
pub use exact::{
    eval_atom, eval_expr, exact_retrieve, satisfies_video, Bindings, Env, ExactEvaluator,
};
pub use intern::FormulaId;
pub use normalize::{hoist_quantifiers, normalize_for_engine};
pub use parser::{parse, MAX_FORMULA_DEPTH};
pub use vars::{bound_vars, free_attr_vars, free_obj_vars, is_closed};
