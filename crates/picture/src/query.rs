//! Compilation of pure (non-temporal) formulas into weighted conjunct sets.

use crate::ScoringConfig;
use simvid_htl::{free_attr_vars, Atom, AttrVar, CmpOp, Expr, Formula, ObjVar};
use std::fmt;

/// Errors raised while compiling an atomic query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The formula contains temporal / level / freeze operators.
    NotPure,
    /// A predicate over an attribute variable is not of the restricted form
    /// `y OP value` the paper admits (§3.3).
    BadAttrPredicate(String),
    /// Too many variables to enumerate bindings for.
    TooManyVariables(usize),
    /// The scoring weight for this key is not positive (zero, negative or
    /// NaN); scoring needs every weight positive.
    BadWeight(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NotPure => {
                write!(
                    f,
                    "atomic queries must be free of temporal and level operators"
                )
            }
            QueryError::BadAttrPredicate(s) => write!(
                f,
                "attribute-variable predicates must have the form `y OP value`: {s}"
            ),
            QueryError::TooManyVariables(n) => {
                write!(
                    f,
                    "atomic query binds {n} object variables; at most 5 are supported"
                )
            }
            QueryError::BadWeight(key) => {
                write!(f, "scoring weight for `{key}` must be positive")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// How a conjunct is evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum ConjunctKind {
    /// Directly on a segment's meta-data (no free attribute variables).
    Plain,
    /// `var OP value`: constrains a free attribute variable; generates
    /// range columns in the similarity table.
    Range {
        /// The attribute variable (normalised to the left side).
        var: String,
        /// Comparison with the variable on the left.
        op: CmpOp,
        /// The value expression (evaluated per segment and binding).
        value: Expr,
    },
}

/// One weighted conjunct.
#[derive(Debug, Clone, PartialEq)]
pub struct Conjunct {
    /// The conjunct subformula.
    pub formula: Formula,
    /// Its weight (contribution to max similarity).
    pub weight: f64,
    /// Evaluation strategy.
    pub kind: ConjunctKind,
}

/// A compiled atomic query: weighted conjuncts plus variable structure.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicQuery {
    /// Free object variables (similarity-table columns), sorted.
    pub free_objs: Vec<String>,
    /// Free attribute variables (range columns), sorted.
    pub free_attrs: Vec<String>,
    /// Existentially bound object variables, pulled to a prefix (renamed
    /// apart from the free variables); maximised over jointly.
    pub exist_objs: Vec<String>,
    /// The weighted conjuncts.
    pub conjuncts: Vec<Conjunct>,
    /// Maximum similarity: the sum of all weights.
    pub max: f64,
}

/// Renames free occurrences of object variable `from` to `to`, respecting
/// shadowing binders.
fn rename_obj(f: &Formula, from: &str, to: &str) -> Formula {
    fn ren_expr(e: &Expr, from: &str, to: &str) -> Expr {
        match e {
            Expr::Obj(ObjVar(v)) if v == from => Expr::Obj(ObjVar(to.to_owned())),
            Expr::Fn(af) if af.of.as_ref().is_some_and(|o| o.0 == from) => {
                Expr::Fn(simvid_htl::AttrFn {
                    attr: af.attr.clone(),
                    of: Some(ObjVar(to.to_owned())),
                })
            }
            other => other.clone(),
        }
    }
    match f {
        Formula::Atom(a) => Formula::Atom(match a {
            Atom::Bool(b) => Atom::Bool(*b),
            Atom::Present(ObjVar(v)) if v == from => Atom::Present(ObjVar(to.to_owned())),
            Atom::Present(v) => Atom::Present(v.clone()),
            Atom::Cmp { op, lhs, rhs } => Atom::Cmp {
                op: *op,
                lhs: ren_expr(lhs, from, to),
                rhs: ren_expr(rhs, from, to),
            },
            Atom::Rel { name, args } => Atom::Rel {
                name: name.clone(),
                args: args.iter().map(|a| ren_expr(a, from, to)).collect(),
            },
        }),
        Formula::Not(g) => rename_obj(g, from, to).not(),
        Formula::And(g, h) => rename_obj(g, from, to).and(rename_obj(h, from, to)),
        Formula::Exists(v, g) if v.0 == from => Formula::Exists(v.clone(), g.clone()),
        Formula::Exists(v, g) => Formula::Exists(v.clone(), Box::new(rename_obj(g, from, to))),
        // Pure formulas contain no other operators, but stay total.
        Formula::Next(g) => rename_obj(g, from, to).next(),
        Formula::Eventually(g) => rename_obj(g, from, to).eventually(),
        Formula::Until(g, h) => rename_obj(g, from, to).until(rename_obj(h, from, to)),
        Formula::Freeze { var, func, body } => Formula::Freeze {
            var: var.clone(),
            func: if func.of.as_ref().is_some_and(|o| o.0 == from) {
                simvid_htl::AttrFn {
                    attr: func.attr.clone(),
                    of: Some(ObjVar(to.to_owned())),
                }
            } else {
                func.clone()
            },
            body: Box::new(rename_obj(body, from, to)),
        },
        Formula::AtLevel(spec, g) => {
            Formula::AtLevel(spec.clone(), Box::new(rename_obj(g, from, to)))
        }
    }
}

/// Flattens the ∧/∃ structure of a pure formula into conjuncts, pulling
/// existential binders to a prefix (renaming them apart as needed).
fn flatten(f: &Formula, taken: &mut Vec<String>, exist: &mut Vec<String>, out: &mut Vec<Formula>) {
    match f {
        Formula::And(g, h) => {
            flatten(g, taken, exist, out);
            flatten(h, taken, exist, out);
        }
        Formula::Exists(v, body) => {
            let name = if taken.contains(&v.0) {
                let mut i = 1usize;
                loop {
                    let candidate = format!("{}_{i}", v.0);
                    if !taken.contains(&candidate) {
                        break candidate;
                    }
                    i += 1;
                }
            } else {
                v.0.clone()
            };
            let body = if name == v.0 {
                (**body).clone()
            } else {
                rename_obj(body, &v.0, &name)
            };
            taken.push(name.clone());
            exist.push(name);
            flatten(&body, taken, exist, out);
        }
        other => out.push(other.clone()),
    }
}

/// The weight key of a conjunct (see [`ScoringConfig`]).
fn weight_key(f: &Formula) -> &str {
    match f {
        Formula::Atom(Atom::Present(_)) => "present",
        Formula::Atom(Atom::Rel { name, .. }) => name,
        Formula::Atom(Atom::Cmp { lhs, rhs, .. }) => match (lhs, rhs) {
            (Expr::Fn(af), _) | (_, Expr::Fn(af)) => &af.attr,
            _ => "cmp",
        },
        Formula::Atom(Atom::Bool(_)) => "bool",
        Formula::Not(inner) => weight_key(inner),
        _ => "complex",
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

impl AtomicQuery {
    /// Compiles a pure formula into an atomic query under the given
    /// scoring configuration.
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn compile(f: &Formula, config: &ScoringConfig) -> Result<AtomicQuery, QueryError> {
        if !simvid_htl::is_pure(f) {
            return Err(QueryError::NotPure);
        }
        let free_objs: Vec<String> = simvid_htl::free_obj_vars(f)
            .into_iter()
            .map(|v| v.0)
            .collect();
        let free_attrs: Vec<String> = simvid_htl::free_attr_vars(f)
            .into_iter()
            .map(|v| v.0)
            .collect();
        let mut taken = free_objs.clone();
        let mut exist_objs = Vec::new();
        let mut parts = Vec::new();
        flatten(f, &mut taken, &mut exist_objs, &mut parts);
        if free_objs.len() + exist_objs.len() > 5 {
            return Err(QueryError::TooManyVariables(
                free_objs.len() + exist_objs.len(),
            ));
        }
        let mut conjuncts = Vec::with_capacity(parts.len());
        let mut max = 0.0;
        for part in parts {
            let key = weight_key(&part);
            let weight = config.weight(key);
            if weight.is_nan() || weight <= 0.0 {
                return Err(QueryError::BadWeight(key.to_owned()));
            }
            let kind = Self::kind_of(&part)?;
            max += weight;
            conjuncts.push(Conjunct {
                formula: part,
                weight,
                kind,
            });
        }
        Ok(AtomicQuery {
            free_objs,
            free_attrs,
            exist_objs,
            conjuncts,
            max,
        })
    }

    fn kind_of(part: &Formula) -> Result<ConjunctKind, QueryError> {
        let attrs: Vec<AttrVar> = free_attr_vars(part).into_iter().collect();
        if attrs.is_empty() {
            return Ok(ConjunctKind::Plain);
        }
        // Attribute-variable conjuncts must be the restricted comparison.
        let Formula::Atom(Atom::Cmp { op, lhs, rhs }) = part else {
            return Err(QueryError::BadAttrPredicate(part.to_string()));
        };
        match (lhs, rhs) {
            (Expr::Attr(AttrVar(v)), value) if free_attr_vars_of_expr(value).is_empty() => {
                Ok(ConjunctKind::Range {
                    var: v.clone(),
                    op: *op,
                    value: value.clone(),
                })
            }
            (value, Expr::Attr(AttrVar(v))) if free_attr_vars_of_expr(value).is_empty() => {
                Ok(ConjunctKind::Range {
                    var: v.clone(),
                    op: flip(*op),
                    value: value.clone(),
                })
            }
            _ => Err(QueryError::BadAttrPredicate(part.to_string())),
        }
    }

    /// All object variables a binding must cover: free then existential.
    #[must_use]
    pub fn binding_vars(&self) -> Vec<&str> {
        self.free_objs
            .iter()
            .chain(self.exist_objs.iter())
            .map(String::as_str)
            .collect()
    }
}

fn free_attr_vars_of_expr(e: &Expr) -> Vec<&str> {
    match e {
        Expr::Attr(AttrVar(v)) => vec![v],
        _ => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::parse;

    fn compile(src: &str) -> AtomicQuery {
        AtomicQuery::compile(&parse(src).unwrap(), &ScoringConfig::default()).unwrap()
    }

    #[test]
    fn flattens_conjunction_and_prefixes_exists() {
        let q = compile("exists x . present(x) and person(x) and near(x, y)");
        assert_eq!(q.free_objs, vec!["y"]);
        assert_eq!(q.exist_objs, vec!["x"]);
        assert_eq!(q.conjuncts.len(), 3);
        assert_eq!(q.max, 3.0);
    }

    #[test]
    fn renames_colliding_binders() {
        // The inner `exists x` collides with the free `x`.
        let q = compile("present(x) and (exists x . person(x))");
        assert_eq!(q.free_objs, vec!["x"]);
        assert_eq!(q.exist_objs, vec!["x_1"]);
        assert_eq!(q.conjuncts[1].formula.to_string(), "person(x_1)");
    }

    /// Extracts the single atomic unit of a formula — the way range
    /// conjuncts really arise (`h` must be freeze-bound to be an attribute
    /// variable).
    fn compile_unit(src: &str, cfg: &ScoringConfig) -> AtomicQuery {
        let f = parse(src).unwrap();
        let unit = simvid_htl::atomic_units(&f).remove(0);
        AtomicQuery::compile(&unit.formula, cfg).unwrap()
    }

    #[test]
    fn range_conjuncts_are_detected_and_oriented() {
        let q = compile_unit(
            "[h := height(z)] (present(z) and height(z) > h)",
            &ScoringConfig::default(),
        );
        assert_eq!(q.free_attrs, vec!["h"]);
        match &q.conjuncts[1].kind {
            ConjunctKind::Range { var, op, .. } => {
                // height(z) > h  ==>  h < height(z)
                assert_eq!(var, "h");
                assert_eq!(*op, CmpOp::Lt);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn attr_var_on_left_keeps_orientation() {
        let q = compile_unit("[h := height(w)] h >= height(z)", &ScoringConfig::default());
        match &q.conjuncts[0].kind {
            ConjunctKind::Range { var, op, .. } => {
                assert_eq!(var, "h");
                assert_eq!(*op, CmpOp::Ge);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn weights_follow_config_keys() {
        let cfg = ScoringConfig::default()
            .with_weight("person", 2.0)
            .with_weight("present", 0.25)
            .with_weight("height", 4.0);
        let f = parse("present(x) and person(x) and height(x) > 3").unwrap();
        let q = AtomicQuery::compile(&f, &cfg).unwrap();
        let weights: Vec<f64> = q.conjuncts.iter().map(|c| c.weight).collect();
        assert_eq!(weights, vec![0.25, 2.0, 4.0]);
        assert_eq!(q.max, 6.25);
    }

    #[test]
    fn temporal_formulas_rejected() {
        let f = parse("eventually p()").unwrap();
        assert_eq!(
            AtomicQuery::compile(&f, &ScoringConfig::default()),
            Err(QueryError::NotPure)
        );
    }

    #[test]
    fn malformed_attr_predicate_rejected() {
        // Two attribute variables in one comparison.
        let f = parse("[a := height(z)] true").unwrap();
        // Construct h0 = h1 style manually via parse inside two freezes is
        // awkward; instead compare attr var to attr var via the parser:
        let bad = parse("present(z)")
            .unwrap()
            .and(simvid_htl::Formula::Atom(Atom::Cmp {
                op: CmpOp::Eq,
                lhs: Expr::Attr(AttrVar("a".into())),
                rhs: Expr::Attr(AttrVar("b".into())),
            }));
        assert!(matches!(
            AtomicQuery::compile(&bad, &ScoringConfig::default()),
            Err(QueryError::BadAttrPredicate(_))
        ));
        drop(f);
    }

    #[test]
    fn too_many_variables_rejected() {
        let f = parse("p(a) and p(b) and p(c) and p(d) and p(e) and p(g)").unwrap();
        assert!(matches!(
            AtomicQuery::compile(&f, &ScoringConfig::default()),
            Err(QueryError::TooManyVariables(6))
        ));
    }

    #[test]
    fn non_positive_and_nan_weights_rejected() {
        for bad in [-1.0, 0.0, f64::NAN] {
            let cfg = ScoringConfig {
                default_weight: bad,
                ..ScoringConfig::default()
            };
            assert_eq!(
                AtomicQuery::compile(&parse("person(x) and moving(x)").unwrap(), &cfg),
                Err(QueryError::BadWeight("person".into()))
            );
        }
        // Only the weights a query uses are checked.
        let mut cfg = ScoringConfig::default();
        cfg.weights.insert("near".into(), f64::NAN);
        assert!(AtomicQuery::compile(&parse("person(x)").unwrap(), &cfg).is_ok());
        assert_eq!(
            AtomicQuery::compile(&parse("person(x) and near(x, y)").unwrap(), &cfg),
            Err(QueryError::BadWeight("near".into()))
        );
    }

    #[test]
    fn negated_conjuncts_are_plain() {
        let q = compile("not person(x)");
        assert_eq!(q.conjuncts[0].kind, ConjunctKind::Plain);
        // Weight key looks through the negation.
        let cfg = ScoringConfig::default().with_weight("person", 7.0);
        let q = AtomicQuery::compile(&parse("not person(x)").unwrap(), &cfg).unwrap();
        assert_eq!(q.conjuncts[0].weight, 7.0);
    }
}
