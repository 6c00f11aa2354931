//! Exact (boolean) semantics of HTL, per §2.3 of the paper.
//!
//! This evaluator is the reference oracle: it handles *all* of HTL,
//! including negation and arbitrarily nested quantifiers, by direct
//! recursion over the definition. It is exponential in the worst case and
//! meant for validation, not retrieval — the similarity engine in
//! `simvid-core` is the efficient path.

use crate::{Atom, AttrFn, AttrVar, CmpOp, Expr, Formula, LevelSpec, ObjVar};
use simvid_model::{AttrValue, ObjectId, SegmentMeta, VideoTree};
use std::collections::HashMap;

/// An evaluation ρ: an assignment of object ids to object variables and
/// attribute values to attribute variables.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Object variable bindings.
    pub objs: HashMap<String, ObjectId>,
    /// Attribute variable bindings.
    pub attrs: HashMap<String, AttrValue>,
}

impl Env {
    /// The empty evaluation.
    #[must_use]
    pub fn new() -> Self {
        Env::default()
    }

    /// Binds an object variable; builder style.
    #[must_use]
    pub fn with_obj(mut self, var: impl Into<String>, id: ObjectId) -> Self {
        self.objs.insert(var.into(), id);
        self
    }

    /// Binds an object variable in place, allocating its key only the
    /// first time the variable is bound.
    pub fn set_obj(&mut self, var: &str, id: ObjectId) {
        match self.objs.get_mut(var) {
            Some(slot) => *slot = id,
            None => {
                self.objs.insert(var.to_owned(), id);
            }
        }
    }

    /// Binds an attribute variable; builder style.
    #[must_use]
    pub fn with_attr(mut self, var: impl Into<String>, value: AttrValue) -> Self {
        self.attrs.insert(var.into(), value);
        self
    }
}

/// Variable bindings an atom is evaluated under.
///
/// [`Env`] is the general, name-keyed evaluation ρ; callers on a hot path
/// (the picture scorer binds variables by slot) implement this trait over
/// their own layout and evaluate atoms without building an `Env`.
pub trait Bindings {
    /// The object bound to an object variable, if any.
    fn obj(&self, var: &str) -> Option<ObjectId>;
    /// The value bound to an attribute variable, if any.
    fn attr(&self, var: &str) -> Option<&AttrValue>;
}

impl Bindings for Env {
    fn obj(&self, var: &str) -> Option<ObjectId> {
        self.objs.get(var).copied()
    }

    fn attr(&self, var: &str) -> Option<&AttrValue> {
        self.attrs.get(var)
    }
}

/// Evaluates a term to an attribute value, or `None` when undefined
/// (unbound variable, absent attribute, or an object variable — objects are
/// not attribute values).
#[must_use]
pub fn eval_expr<B: Bindings + ?Sized>(
    tree: &VideoTree,
    meta: &SegmentMeta,
    expr: &Expr,
    env: &B,
) -> Option<AttrValue> {
    match expr {
        Expr::Obj(_) => None,
        Expr::Attr(AttrVar(name)) => env.attr(name).cloned(),
        Expr::Const(v) => Some(v.clone()),
        Expr::Fn(f) => eval_attr_fn(tree, meta, f, env),
    }
}

/// Evaluates an attribute function at a segment. The attribute names
/// `type`/`class` and `name` of an object resolve against the video's
/// object registry; other object attributes read the per-segment appearance
/// record; `of = None` reads a segment attribute.
#[must_use]
pub fn eval_attr_fn<B: Bindings + ?Sized>(
    tree: &VideoTree,
    meta: &SegmentMeta,
    f: &AttrFn,
    env: &B,
) -> Option<AttrValue> {
    match &f.of {
        None => meta.segment_attr(&f.attr).cloned(),
        Some(ObjVar(var)) => {
            let oid = env.obj(var)?;
            match f.attr.as_str() {
                "type" | "class" => tree
                    .object_info(oid)
                    .map(|i| AttrValue::from(i.class.clone())),
                "name" => tree
                    .object_info(oid)
                    .and_then(|i| i.name.clone())
                    .map(AttrValue::from),
                attr => meta.object_attr(oid, attr).cloned(),
            }
        }
    }
}

fn rel_arg_matches<B: Bindings + ?Sized>(
    tree: &VideoTree,
    bound: ObjectId,
    arg: &Expr,
    env: &B,
) -> bool {
    match arg {
        Expr::Obj(ObjVar(v)) => env.obj(v) == Some(bound),
        Expr::Const(AttrValue::Str(s)) => tree
            .object_info(bound)
            .is_some_and(|i| i.class == *s || i.name.as_deref() == Some(s)),
        _ => false,
    }
}

/// Evaluates an atomic predicate on one segment's meta-data.
#[must_use]
pub fn eval_atom<B: Bindings + ?Sized>(
    tree: &VideoTree,
    meta: &SegmentMeta,
    atom: &Atom,
    env: &B,
) -> bool {
    match atom {
        Atom::Bool(b) => *b,
        Atom::Present(ObjVar(v)) => env.obj(v).is_some_and(|oid| meta.contains_object(oid)),
        Atom::Cmp { op, lhs, rhs } => {
            let (Some(l), Some(r)) = (
                eval_expr(tree, meta, lhs, env),
                eval_expr(tree, meta, rhs, env),
            ) else {
                return false;
            };
            match op {
                CmpOp::Eq => l.sem_eq(&r),
                CmpOp::Ne => !l.sem_eq(&r),
                op => l.sem_cmp(&r).is_some_and(|ord| op.test(ord)),
            }
        }
        Atom::Rel { name, args } => {
            // Unary class-test fallback: person(x) holds when x's class is
            // "person" and x appears in the segment.
            if let [Expr::Obj(ObjVar(v))] = args.as_slice() {
                if let Some(oid) = env.obj(v) {
                    if meta.contains_object(oid)
                        && tree.object_info(oid).is_some_and(|i| i.class == *name)
                    {
                        return true;
                    }
                }
            }
            meta.relationships.iter().any(|r| {
                r.name == *name
                    && r.args.len() == args.len()
                    && r.args
                        .iter()
                        .zip(args)
                        .all(|(&roid, a)| rel_arg_matches(tree, roid, a, env))
            })
        }
    }
}

/// Exact-semantics evaluator over one video's hierarchy.
pub struct ExactEvaluator<'a> {
    tree: &'a VideoTree,
}

impl<'a> ExactEvaluator<'a> {
    /// Creates an evaluator for a video.
    #[must_use]
    pub fn new(tree: &'a VideoTree) -> Self {
        ExactEvaluator { tree }
    }

    /// The video this evaluator reads.
    #[must_use]
    pub fn tree(&self) -> &VideoTree {
        self.tree
    }

    /// Whether `f` is satisfied at position `pos` of the proper sequence
    /// spanning `range` (0-based, half-open) at `depth`, under `env`.
    ///
    /// `pos` must lie within `range`.
    pub fn satisfies_at(
        &self,
        depth: u8,
        range: (u32, u32),
        pos: u32,
        f: &Formula,
        env: &mut Env,
    ) -> bool {
        debug_assert!(range.0 <= pos && pos < range.1, "pos within range");
        match f {
            Formula::Atom(a) => {
                let meta = self.tree.meta_at(depth, pos).expect("valid position");
                eval_atom(self.tree, meta, a, env)
            }
            Formula::Not(g) => !self.satisfies_at(depth, range, pos, g, env),
            Formula::And(g, h) => {
                self.satisfies_at(depth, range, pos, g, env)
                    && self.satisfies_at(depth, range, pos, h, env)
            }
            Formula::Next(g) => {
                pos + 1 < range.1 && self.satisfies_at(depth, range, pos + 1, g, env)
            }
            Formula::Until(g, h) => (pos..range.1).any(|u| {
                self.satisfies_at(depth, range, u, h, env)
                    && (pos..u).all(|v| self.satisfies_at(depth, range, v, g, env))
            }),
            Formula::Eventually(g) => {
                (pos..range.1).any(|u| self.satisfies_at(depth, range, u, g, env))
            }
            Formula::Exists(ObjVar(v), g) => {
                let saved = env.objs.get(v).copied();
                let result = self.tree.object_ids().any(|oid| {
                    env.set_obj(v, oid);
                    self.satisfies_at(depth, range, pos, g, env)
                });
                match saved {
                    Some(o) => {
                        env.objs.insert(v.clone(), o);
                    }
                    None => {
                        env.objs.remove(v);
                    }
                }
                result
            }
            Formula::Freeze { var, func, body } => {
                let meta = self.tree.meta_at(depth, pos).expect("valid position");
                let Some(value) = eval_attr_fn(self.tree, meta, func, env) else {
                    return false;
                };
                let saved = env.attrs.get(&var.0).cloned();
                env.attrs.insert(var.0.clone(), value);
                let result = self.satisfies_at(depth, range, pos, body, env);
                match saved {
                    Some(v) => {
                        env.attrs.insert(var.0.clone(), v);
                    }
                    None => {
                        env.attrs.remove(&var.0);
                    }
                }
                result
            }
            Formula::AtLevel(spec, g) => {
                let node = self.tree.level_sequence(depth)[pos as usize];
                let Some(target) = self.resolve_level(depth, spec) else {
                    return false;
                };
                if target <= depth {
                    return false;
                }
                match self.tree.descendant_span(node, target) {
                    Some((lo, hi)) if lo < hi => self.satisfies_at(target, (lo, hi), lo, g, env),
                    _ => false,
                }
            }
        }
    }

    /// Resolves a level specification relative to the current depth.
    #[must_use]
    pub fn resolve_level(&self, current: u8, spec: &LevelSpec) -> Option<u8> {
        match spec {
            LevelSpec::Next => Some(current + 1),
            LevelSpec::Number(n) => n.checked_sub(1),
            LevelSpec::Named(name) => self.tree.level_by_name(name),
        }
    }
}

/// Whether the whole video satisfies `f`: satisfaction at the root in the
/// one-element sequence consisting of the root (§2.3).
#[must_use]
pub fn satisfies_video(tree: &VideoTree, f: &Formula) -> bool {
    let mut env = Env::new();
    ExactEvaluator::new(tree).satisfies_at(0, (0, 1), 0, f, &mut env)
}

/// Brute-force retrieval under the exact semantics: the 1-based positions
/// of the segments at `depth` where the closed formula `f` holds.
///
/// This handles *all* of HTL — including negation and arbitrarily nested
/// quantifiers the similarity engine rejects — at exponential worst-case
/// cost; it is the fallback (and the test oracle) for the general class.
#[must_use]
pub fn exact_retrieve(tree: &VideoTree, f: &Formula, depth: u8) -> Vec<u32> {
    let n = tree.level_sequence(depth).len() as u32;
    let eval = ExactEvaluator::new(tree);
    (0..n)
        .filter(|&pos| {
            let mut env = Env::new();
            eval.satisfies_at(depth, (0, n), pos, f, &mut env)
        })
        .map(|pos| pos + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use simvid_model::VideoBuilder;

    /// A western with three shots: (1) John and a bandit hold guns,
    /// (2) John fires at the bandit, (3) the bandit is on the floor.
    fn western() -> VideoTree {
        let mut b = VideoBuilder::new("showdown");
        b.set_level_names(["video", "shot"]);
        b.segment_attr("type", AttrValue::from("western"));

        b.child("standoff");
        let john = b.object(1, "person", Some("John Wayne"));
        let bandit = b.object(2, "bandit", None);
        b.relationship("holds_gun", [john]);
        b.relationship("holds_gun", [bandit]);
        b.up();

        b.child("shootout");
        b.object(1, "person", Some("John Wayne"));
        b.object(2, "bandit", None);
        b.relationship("fires_at", [john, bandit]);
        b.up();

        b.child("aftermath");
        b.object(2, "bandit", None);
        b.relationship("on_floor", [bandit]);
        b.up();

        b.finish().unwrap()
    }

    fn holds(tree: &VideoTree, src: &str) -> bool {
        satisfies_video(tree, &parse(src).unwrap())
    }

    #[test]
    fn segment_attribute_at_root() {
        let t = western();
        assert!(holds(&t, "type = \"western\""));
        assert!(!holds(&t, "type = \"news\""));
        assert!(holds(&t, "not type = \"news\""));
    }

    #[test]
    fn formula_b_shootout_satisfied_at_shot_level() {
        let t = western();
        let src = "at shot level (exists x . exists y . \
                   (present(x) and present(y) and person(x) and bandit(y) and \
                    name(x) = \"John Wayne\" and holds_gun(x) and holds_gun(y)) \
                   and eventually (fires_at(x, y) and eventually on_floor(y)))";
        assert!(holds(&t, src));
    }

    #[test]
    fn until_requires_left_side_throughout() {
        let t = western();
        // present(john) holds in shots 1-2; on_floor(bandit) in shot 3.
        assert!(holds(
            &t,
            "at shot level (exists x . exists y . (name(x) = \"John Wayne\" and \
             (present(x) until on_floor(y))))"
        ));
        // holds_gun(john) holds only in shot 1, so gun-until-floor fails:
        // shot 2 breaks the chain.
        assert!(!holds(
            &t,
            "at shot level (exists x . exists y . (name(x) = \"John Wayne\" and bandit(y) and \
             (holds_gun(x) until on_floor(y))))"
        ));
    }

    #[test]
    fn until_satisfied_immediately_by_rhs() {
        let t = western();
        // h at the very first shot: g irrelevant.
        assert!(holds(
            &t,
            "at shot level (exists x . (false until holds_gun(x)))"
        ));
    }

    #[test]
    fn next_walks_one_step() {
        let t = western();
        assert!(holds(
            &t,
            "at shot level next (exists x . exists y . fires_at(x, y))"
        ));
        assert!(!holds(&t, "at shot level next (exists x . holds_gun(x))"));
        // next beyond the end of the sequence is false.
        assert!(!holds(&t, "at shot level next next next true"));
    }

    #[test]
    fn freeze_compares_across_time() {
        let mut b = VideoBuilder::new("flight");
        b.set_level_names(["video", "frame"]);
        for (i, h) in [(0, 100), (1, 250), (2, 200)] {
            b.child(format!("frame{i}"));
            let plane = b.object(9, "airplane", None);
            b.object_attr(plane, "height", AttrValue::Int(h));
            b.up();
        }
        let t = b.finish().unwrap();
        // Height rises above the initial 100 later: satisfied.
        assert!(holds(
            &t,
            "at frame level (exists z . (present(z) and type(z) = \"airplane\" and \
             [h := height(z)] eventually (present(z) and height(z) > h)))"
        ));
        // Nothing exceeds 250 after frame 1 (started there): build query
        // anchored at second frame via next.
        assert!(!holds(
            &t,
            "at frame level next (exists z . ([h := height(z)] \
             eventually (present(z) and height(z) > h)))"
        ));
    }

    #[test]
    fn at_level_number_uses_paper_numbering() {
        let t = western();
        // Level 2 = the shots.
        assert!(holds(&t, "at level 2 (exists x . holds_gun(x))"));
        // Level 1 = the root itself: `at level` must descend, so false.
        assert!(!holds(&t, "at level 1 true"));
        // Level 5 does not exist.
        assert!(!holds(&t, "at level 5 true"));
    }

    #[test]
    fn at_next_level_evaluates_at_first_child() {
        let t = western();
        assert!(holds(&t, "at next level (exists x . holds_gun(x))"));
        // First shot has no fires_at.
        assert!(!holds(
            &t,
            "at next level (exists x . exists y . fires_at(x, y))"
        ));
    }

    #[test]
    fn string_constant_rel_args_match_class_or_name() {
        let mut b = VideoBuilder::new("props");
        b.child("shot");
        let man = b.object(1, "person", Some("Rick"));
        let gun = b.object(2, "gun", None);
        b.relationship("holds", [man, gun]);
        b.up();
        let t = b.finish().unwrap();
        assert!(holds(&t, "at next level (exists x . holds(x, \"gun\"))"));
        assert!(holds(&t, "at next level (exists y . holds(\"Rick\", y))"));
        assert!(!holds(&t, "at next level (exists x . holds(x, \"sword\"))"));
    }

    #[test]
    fn comparison_with_missing_attribute_is_false_not_error() {
        let t = western();
        assert!(!holds(&t, "budget > 100"));
        assert!(!holds(&t, "at shot level (exists x . age(x) > 3)"));
    }

    #[test]
    fn eventually_scans_whole_sequence() {
        let t = western();
        assert!(holds(
            &t,
            "at shot level eventually (exists y . on_floor(y))"
        ));
        assert!(!holds(
            &t,
            "at shot level eventually (exists y . flying(y))"
        ));
    }
}
