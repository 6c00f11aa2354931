//! Query plans: a formula compiled once into the operator tree the engine
//! walks.
//!
//! Everything the engine needs to know about a formula that does not
//! depend on the video — which subtrees are pure atomic units, each
//! node's interned [`FormulaId`] (its memo key), the free variables of a
//! level-modal body, the formula class — is computed here once. A corpus
//! query plans once per request and evaluates the same [`Plan`] on every
//! video, instead of re-deriving those facts per video and per node.
//!
//! The plan mirrors the formula's shape: one [`Node`] per subformula down
//! to the maximal pure subtrees, which become [`Op::Unit`] leaves holding
//! the [`AtomicUnit`] handed to the provider.

use simvid_htl::{
    classify, free_attr_vars, free_obj_vars, is_pure, AtomicUnit, AttrFn, Formula, FormulaClass,
    FormulaId, LevelSpec,
};
use std::collections::HashSet;

/// A formula compiled for evaluation. Build it once with [`Plan::new`] and
/// evaluate it with [`crate::Engine::top_k_plan`] on any number of videos.
#[derive(Debug, Clone)]
pub struct Plan {
    root: Node,
    class: FormulaClass,
    repeats: bool,
}

impl Plan {
    /// Compiles `f`: interns every node, wraps each maximal pure subtree
    /// as an [`AtomicUnit`], and classifies the whole formula.
    #[must_use]
    pub fn new(f: &Formula) -> Plan {
        let root = Node::build(f);
        let mut seen = HashSet::new();
        let mut repeats = false;
        root.for_each(&mut |n| repeats |= !seen.insert(n.id));
        Plan {
            root,
            class: classify(f),
            repeats,
        }
    }

    /// Whether some subformula occurs at two places in the plan (`p() and
    /// eventually p()`): the only case in which the engine's
    /// per-evaluation memo can answer a node from an earlier one.
    #[must_use]
    pub fn repeats_subformula(&self) -> bool {
        self.repeats
    }

    /// The formula class of the planned formula.
    pub(crate) fn class(&self) -> FormulaClass {
        self.class
    }

    pub(crate) fn root(&self) -> &Node {
        &self.root
    }
}

/// One plan node: the interned identity of its subformula plus the
/// operator to run.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Memo key of the subformula (equal to the unit's id for a leaf).
    pub(crate) id: FormulaId,
    pub(crate) op: Op,
}

/// The operators of the engine's algebra. Only impure `and`/`not` nodes
/// appear here; pure ones are inside a [`Op::Unit`].
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// A maximal pure subformula, scored by the atomic provider.
    Unit(AtomicUnit),
    And(Box<Node>, Box<Node>),
    Until(Box<Node>, Box<Node>),
    Next(Box<Node>),
    Eventually(Box<Node>),
    /// `exists var . body`: the bound object variable's column collapses.
    Exists(String, Box<Node>),
    Freeze {
        var: String,
        func: AttrFn,
        body: Box<Node>,
    },
    /// A level modal operator, with the free variables of its body: the
    /// result columns when no segment has descendants at the target level.
    AtLevel {
        spec: LevelSpec,
        body: Box<Node>,
        obj_cols: Vec<String>,
        attr_cols: Vec<String>,
    },
    /// Negation outside an atomic unit: unsupported at evaluation time.
    /// The body is kept because it still bounds the node's maximum.
    Not(Box<Node>),
}

impl Node {
    /// Calls `visit` on this node and every node below it, pre-order.
    fn for_each(&self, visit: &mut impl FnMut(&Node)) {
        visit(self);
        match &self.op {
            Op::Unit(_) => {}
            Op::And(g, h) | Op::Until(g, h) => {
                g.for_each(visit);
                h.for_each(visit);
            }
            Op::Next(g)
            | Op::Eventually(g)
            | Op::Exists(_, g)
            | Op::Freeze { body: g, .. }
            | Op::AtLevel { body: g, .. }
            | Op::Not(g) => g.for_each(visit),
        }
    }

    fn build(f: &Formula) -> Node {
        if is_pure(f) {
            let unit = AtomicUnit::of(f);
            return Node {
                id: unit.id,
                op: Op::Unit(unit),
            };
        }
        let child = |g: &Formula| Box::new(Node::build(g));
        let op = match f {
            Formula::And(g, h) => Op::And(child(g), child(h)),
            Formula::Until(g, h) => Op::Until(child(g), child(h)),
            Formula::Next(g) => Op::Next(child(g)),
            Formula::Eventually(g) => Op::Eventually(child(g)),
            Formula::Exists(var, g) => Op::Exists(var.0.clone(), child(g)),
            Formula::Freeze { var, func, body } => Op::Freeze {
                var: var.0.clone(),
                func: func.clone(),
                body: child(body),
            },
            Formula::AtLevel(spec, g) => Op::AtLevel {
                spec: spec.clone(),
                body: child(g),
                obj_cols: free_obj_vars(g).into_iter().map(|v| v.0).collect(),
                attr_cols: free_attr_vars(g).into_iter().map(|v| v.0).collect(),
            },
            Formula::Not(g) => Op::Not(child(g)),
            Formula::Atom(_) => unreachable!("atoms are pure"),
        };
        Node {
            id: FormulaId::of(f),
            op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::parse;

    fn units(n: &Node, out: &mut Vec<String>) {
        n.for_each(&mut |n| {
            if let Op::Unit(u) = &n.op {
                out.push(u.formula.to_string());
            }
        });
    }

    #[test]
    fn leaves_are_the_atomic_units_in_order() {
        let f = parse("(p(x) and q(x)) and eventually (r() until at shot level s())").unwrap();
        let plan = Plan::new(&f);
        let mut got = Vec::new();
        units(plan.root(), &mut got);
        let want: Vec<String> = simvid_htl::atomic_units(&f)
            .iter()
            .map(|u| u.formula.to_string())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn node_ids_are_the_interned_subformulas() {
        let f = parse("p() and eventually p()").unwrap();
        let plan = Plan::new(&f);
        assert_eq!(plan.root().id, FormulaId::of(&f));
        let Op::And(lhs, rhs) = &plan.root().op else {
            panic!("impure conjunction plans as And");
        };
        let Op::Eventually(inner) = &rhs.op else {
            panic!("eventually");
        };
        // Both occurrences of `p()` share one memo key.
        assert_eq!(lhs.id, inner.id);
        assert_eq!(lhs.id, FormulaId::of(&parse("p()").unwrap()));
    }

    #[test]
    fn repeats_are_reported_only_where_a_subformula_recurs() {
        let plan = |q: &str| Plan::new(&parse(q).unwrap());
        assert!(plan("p() and eventually p()").repeats_subformula());
        assert!(
            plan("at shot level (q() until r()) and next at shot level (q() until r())")
                .repeats_subformula()
        );
        for q in [
            "p()",
            "p() and eventually q()",
            "(exists x . moving(x)) until at shot level (exists x . moving(x) and p())",
            "exists x . person(x) and eventually (exists y . near(x, y))",
        ] {
            assert!(!plan(q).repeats_subformula(), "{q}");
        }
    }

    #[test]
    fn level_modal_nodes_carry_their_body_columns() {
        let f =
            parse("exists x . at shot level (p(x) and [h := height(x)] (height(x) > h))").unwrap();
        let plan = Plan::new(&f);
        let Op::Exists(var, body) = &plan.root().op else {
            panic!("exists");
        };
        assert_eq!(var, "x");
        let Op::AtLevel { obj_cols, .. } = &body.op else {
            panic!("at level");
        };
        assert_eq!(obj_cols, &["x".to_owned()]);
        assert_eq!(plan.class(), classify(&f));
    }
}
