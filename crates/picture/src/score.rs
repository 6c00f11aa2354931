//! Weighted partial-match scoring over candidate segments and bindings.

use crate::index::LevelIndex;
use crate::query::{AtomicQuery, ConjunctKind};
use simvid_core::{AttrRange, Row, SimilarityList, SimilarityTable};
use simvid_htl::{
    eval_atom, eval_expr, free_obj_vars, Atom, Bindings, Env, ExactEvaluator, Expr, Formula,
};
use simvid_model::{AttrValue, ObjectId, SegmentMeta, VideoTree};
use std::collections::HashMap;

/// Accumulator rows while scoring: one per `(free binding, attribute
/// ranges)` evaluation, collecting `(local position, actual similarity)`
/// pairs in ascending position order.
type BindingAcc = Vec<(Vec<ObjectId>, Vec<AttrRange>, Vec<(u32, f64)>)>;

/// Candidate positions for one conjunct, or `None` for "any segment".
fn conjunct_candidates(ix: &LevelIndex, f: &Formula) -> Option<Vec<u32>> {
    match f {
        Formula::Atom(Atom::Bool(false)) => Some(Vec::new()),
        Formula::Atom(Atom::Bool(true)) | Formula::Not(_) => None,
        Formula::Atom(Atom::Present(_)) => {
            let mut out: Vec<u32> = ix.presence.values().flatten().copied().collect();
            out.sort_unstable();
            out.dedup();
            Some(out)
        }
        Formula::Atom(Atom::Rel { name, args }) => {
            let mut out = ix.rel_by_name.get(name).cloned().unwrap_or_default();
            if args.len() == 1 {
                out.extend(ix.class_positions(name));
                out.sort_unstable();
                out.dedup();
            }
            Some(out)
        }
        Formula::Atom(Atom::Cmp { op, lhs, rhs }) => {
            // Index through whichever side applies an attribute function.
            let fn_side = match (lhs, rhs) {
                (Expr::Fn(af), other) | (other, Expr::Fn(af)) => Some((af, other)),
                _ => None,
            };
            let (af, other) = fn_side?;
            match (&af.of, af.attr.as_str()) {
                (Some(_), "type" | "class") => match (op, other) {
                    (simvid_htl::CmpOp::Eq, Expr::Const(AttrValue::Str(s))) => {
                        Some(ix.class_positions(s))
                    }
                    _ => all_presence(ix),
                },
                (Some(_), "name") => match (op, other) {
                    (simvid_htl::CmpOp::Eq, Expr::Const(AttrValue::Str(s))) => {
                        let mut out: Vec<u32> = ix
                            .name_objects
                            .get(s)
                            .into_iter()
                            .flatten()
                            .filter_map(|oid| ix.presence.get(oid))
                            .flatten()
                            .copied()
                            .collect();
                        out.sort_unstable();
                        out.dedup();
                        Some(out)
                    }
                    _ => all_presence(ix),
                },
                (Some(_), attr) => {
                    Some(ix.obj_attr_segments.get(attr).cloned().unwrap_or_default())
                }
                (None, attr) => Some(ix.seg_attr_segments.get(attr).cloned().unwrap_or_default()),
            }
        }
        // Nested structure (existentials etc.): no index pruning.
        _ => None,
    }
}

fn all_presence(ix: &LevelIndex) -> Option<Vec<u32>> {
    let mut out: Vec<u32> = ix.presence.values().flatten().copied().collect();
    out.sort_unstable();
    out.dedup();
    Some(out)
}

/// Computes the candidate positions of a whole query within `[lo, hi)`.
fn candidates(ix: &LevelIndex, query: &AtomicQuery, lo: u32, hi: u32) -> Vec<u32> {
    let mut acc: Vec<u32> = Vec::new();
    for c in &query.conjuncts {
        match conjunct_candidates(ix, &c.formula) {
            None => return (lo..hi).collect(),
            Some(ps) => acc.extend(ps),
        }
    }
    acc.sort_unstable();
    acc.dedup();
    acc.retain(|&p| p >= lo && p < hi);
    acc
}

/// Scores an atomic query over the window `[lo, hi)` of level `depth`,
/// producing a similarity table with positions local to the window
/// (1-based).
///
/// Each candidate segment runs a depth-first branch-and-bound search over
/// the joint bindings of [`AtomicQuery::binding_vars`]; see [`Search`].
#[must_use]
pub fn score_window(
    tree: &VideoTree,
    ix: &LevelIndex,
    depth: u8,
    lo: u32,
    hi: u32,
    query: &AtomicQuery,
) -> SimilarityTable {
    let mut search = Search::new(tree, depth, query);
    for p in candidates(ix, query, lo, hi) {
        search.segment(p, p - lo + 1);
    }
    rows_into_table(search.acc.rows, query)
}

/// Object variables bound by slot: `objs[i]` binds `vars[i]`.
struct Slots<'s> {
    vars: &'s [&'s str],
    objs: &'s [ObjectId],
}

impl Bindings for Slots<'_> {
    fn obj(&self, var: &str) -> Option<ObjectId> {
        self.vars
            .iter()
            .zip(self.objs)
            .find(|(v, _)| **v == var)
            .map(|(_, &oid)| oid)
    }

    fn attr(&self, _var: &str) -> Option<&AttrValue> {
        None
    }
}

/// Accumulator rows, found through a map keyed on the free binding.
#[derive(Default)]
struct Acc {
    rows: BindingAcc,
    /// Free binding → indices of its rows (one per attribute-range split).
    by_binding: HashMap<Vec<ObjectId>, Vec<usize>>,
}

impl Acc {
    /// Folds `act` into the `(free, ranges)` row at position `local`,
    /// keeping the max.
    fn record(&mut self, free: &[ObjectId], ranges: Vec<AttrRange>, local: u32, act: f64) {
        if !self.by_binding.contains_key(free) {
            self.by_binding.insert(free.to_vec(), Vec::new());
        }
        let ids = self.by_binding.get_mut(free).expect("inserted above");
        let rows = &mut self.rows;
        match ids.iter().find(|&&i| rows[i].1 == ranges) {
            Some(&i) => match rows[i].2.last_mut() {
                Some((p, v)) if *p == local => *v = v.max(act),
                _ => rows[i].2.push((local, act)),
            },
            None => {
                ids.push(rows.len());
                rows.push((free.to_vec(), ranges, vec![(local, act)]));
            }
        }
    }
}

/// Builds the similarity table of accumulated rows.
fn rows_into_table(rows: BindingAcc, query: &AtomicQuery) -> SimilarityTable {
    let mut out =
        SimilarityTable::new(query.free_objs.clone(), query.free_attrs.clone(), query.max);
    for (objs, ranges, entries) in rows {
        let list = SimilarityList::from_tuples(
            entries.into_iter().map(|(p, v)| (p, p, v)).collect(),
            query.max,
        )
        .expect("entries are per-position and ascending")
        .coalesce();
        out.push_row(Row {
            objs,
            ranges,
            list: std::sync::Arc::new(list),
        });
    }
    out
}

/// Depth-first branch-and-bound over the joint bindings of one segment.
///
/// Slots are bound one at a time in [`AtomicQuery::binding_vars`] order
/// (free variables first). Each plain conjunct is decided at the first
/// depth where all of its variables are bound, so a unary conjunct is read
/// once per object, not once per joint binding. When the query has no
/// `Range` conjunct, a subtree whose free binding is fixed is cut as soon
/// as the best value already found for that binding at this segment
/// reaches the subtree's upper bound: the conjunct-order sum of the weights
/// of conjuncts satisfied or still undecided. Weights are positive and
/// floating-point rounding is monotone, so that sum bounds every leaf's
/// conjunct-order sum of satisfied weights exactly, and a full match ends
/// the search.
struct Search<'a> {
    tree: &'a VideoTree,
    evaluator: ExactEvaluator<'a>,
    depth: u8,
    query: &'a AtomicQuery,
    vars: Vec<&'a str>,
    n_free: usize,
    /// `decide_at[d]`: the plain conjuncts whose variables lie in the
    /// first `d` slots and not in the first `d - 1`.
    decide_at: Vec<Vec<usize>>,
    /// Whether bounds may cut subtrees (no `Range` conjunct).
    prune: bool,
    /// The segment being searched: level position and window-local one.
    pos: u32,
    local: u32,
    /// The segment's objects, candidates for every slot.
    objs: Vec<ObjectId>,
    slots: Vec<ObjectId>,
    /// Per conjunct: `None` while undecided, else whether it holds.
    sat: Vec<Option<bool>>,
    /// Best value of the current free binding at this segment.
    best: f64,
    /// Bindings for conjuncts that are neither atoms nor negated atoms,
    /// which go through the exact evaluator.
    env: Env,
    acc: Acc,
}

impl<'a> Search<'a> {
    fn new(tree: &'a VideoTree, depth: u8, query: &'a AtomicQuery) -> Self {
        let vars = query.binding_vars();
        let mut decide_at = vec![Vec::new(); vars.len() + 1];
        let mut prune = true;
        for (c, conj) in query.conjuncts.iter().enumerate() {
            if !matches!(conj.kind, ConjunctKind::Plain) {
                prune = false;
                continue;
            }
            let d = free_obj_vars(&conj.formula)
                .iter()
                .filter_map(|v| vars.iter().position(|b| *b == v.0))
                .map(|i| i + 1)
                .max()
                .unwrap_or(0);
            decide_at[d].push(c);
        }
        Search {
            tree,
            evaluator: ExactEvaluator::new(tree),
            depth,
            query,
            n_free: query.free_objs.len(),
            slots: vec![ObjectId(0); vars.len()],
            vars,
            decide_at,
            prune,
            pos: 0,
            local: 0,
            objs: Vec::new(),
            sat: vec![None; query.conjuncts.len()],
            best: 0.0,
            env: Env::new(),
            acc: Acc::default(),
        }
    }

    /// Scores every binding at level position `pos` (window-local `local`).
    fn segment(&mut self, pos: u32, local: u32) {
        let meta = self
            .tree
            .meta_at(self.depth, pos)
            .expect("candidate within level");
        self.objs.clear();
        self.objs.extend(meta.object_ids());
        if !self.vars.is_empty() && self.objs.is_empty() {
            return;
        }
        self.pos = pos;
        self.local = local;
        for k in 0..self.decide_at[0].len() {
            let c = self.decide_at[0][k];
            self.sat[c] = Some(self.decide(meta, c, 0));
        }
        self.descend(meta, 0);
    }

    /// Explores every binding that extends the first `d` slots.
    fn descend(&mut self, meta: &SegmentMeta, d: usize) {
        if d == self.n_free {
            self.best = 0.0;
        }
        let bounded = self.prune && d >= self.n_free;
        let bound = if bounded { self.bound() } else { f64::INFINITY };
        if bounded && self.best >= bound {
            return;
        }
        if d == self.vars.len() {
            self.leaf(meta, bound);
        } else {
            for i in 0..self.objs.len() {
                if bounded && self.best >= bound {
                    break;
                }
                self.slots[d] = self.objs[i];
                for k in 0..self.decide_at[d + 1].len() {
                    let c = self.decide_at[d + 1][k];
                    self.sat[c] = Some(self.decide(meta, c, d + 1));
                }
                self.descend(meta, d + 1);
                for k in 0..self.decide_at[d + 1].len() {
                    self.sat[self.decide_at[d + 1][k]] = None;
                }
            }
        }
        if self.prune && d == self.n_free && self.best > 0.0 {
            self.acc
                .record(&self.slots[..d], Vec::new(), self.local, self.best);
        }
    }

    /// Conjunct-order sum of the weights of conjuncts not yet refuted.
    fn bound(&self) -> f64 {
        let mut bound = 0.0;
        for (c, sat) in self.query.conjuncts.iter().zip(&self.sat) {
            if *sat != Some(false) {
                bound += c.weight;
            }
        }
        bound
    }

    /// Whether plain conjunct `c` holds with the first `bound` slots bound.
    fn decide(&mut self, meta: &SegmentMeta, c: usize, bound: usize) -> bool {
        let query = self.query;
        let formula = &query.conjuncts[c].formula;
        let atom = match formula {
            Formula::Atom(a) => Some((a, false)),
            Formula::Not(g) => match &**g {
                Formula::Atom(a) => Some((a, true)),
                _ => None,
            },
            _ => None,
        };
        if let Some((a, negated)) = atom {
            let slots = Slots {
                vars: &self.vars,
                objs: &self.slots[..bound],
            };
            return eval_atom(self.tree, meta, a, &slots) != negated;
        }
        for (var, &oid) in self.vars.iter().zip(&self.slots[..bound]) {
            self.env.set_obj(var, oid);
        }
        let span = (self.pos, self.pos + 1);
        self.evaluator
            .satisfies_at(self.depth, span, self.pos, formula, &mut self.env)
    }

    /// Records a full binding. `bound` is its exact value when pruning.
    fn leaf(&mut self, meta: &SegmentMeta, bound: f64) {
        if self.prune {
            self.best = self.best.max(bound);
            return;
        }
        let mut base = 0.0f64;
        for (c, sat) in self.query.conjuncts.iter().zip(&self.sat) {
            if *sat == Some(true) {
                base += c.weight;
            }
        }
        let slots = Slots {
            vars: &self.vars,
            objs: &self.slots,
        };
        for (ranges, extra) in range_combos(self.tree, meta, self.query, &slots) {
            let act = base + extra;
            if act > 0.0 {
                self.acc
                    .record(&self.slots[..self.n_free], ranges, self.local, act);
            }
        }
    }
}

/// The attribute-range splits of one full binding: every consistent
/// combination of the `Range` conjuncts' outcomes, with the weight sum of
/// those it satisfies.
fn range_combos<B: Bindings + ?Sized>(
    tree: &VideoTree,
    meta: &SegmentMeta,
    query: &AtomicQuery,
    bindings: &B,
) -> Vec<(Vec<AttrRange>, f64)> {
    // Outcomes per range conjunct: (attr column, range, weight-if-satisfied).
    let mut range_outcomes: Vec<Vec<(usize, AttrRange, f64)>> = Vec::new();
    for c in &query.conjuncts {
        let ConjunctKind::Range { var, op, value } = &c.kind else {
            continue;
        };
        let col = query
            .free_attrs
            .iter()
            .position(|a| a == var)
            .expect("range var is a free attr");
        let mut outcomes = Vec::with_capacity(2);
        if let Some(v) = eval_expr(tree, meta, value, bindings) {
            if let Some(r) = AttrRange::from_cmp(*op, &v) {
                outcomes.push((col, r, c.weight));
            }
            if let Some(r) = AttrRange::from_cmp_negated(*op, &v) {
                outcomes.push((col, r, 0.0));
            }
        }
        if outcomes.is_empty() {
            // Value undefined: the predicate fails for every y.
            outcomes.push((col, AttrRange::any(), 0.0));
        }
        range_outcomes.push(outcomes);
    }
    // Product of outcomes across range conjuncts.
    let mut combos: Vec<(Vec<AttrRange>, f64)> =
        vec![(vec![AttrRange::any(); query.free_attrs.len()], 0.0)];
    for outcomes in &range_outcomes {
        let mut next = Vec::with_capacity(combos.len() * outcomes.len());
        for (ranges, w) in &combos {
            for (col, r, dw) in outcomes {
                if let Some(merged) = ranges[*col].intersect(r) {
                    let mut ranges = ranges.clone();
                    ranges[*col] = merged;
                    next.push((ranges, w + dw));
                }
            }
        }
        combos = next;
    }
    combos
}

/// The odometer scorer the search replaced: every joint binding of every
/// candidate segment, scored in full. Kept as the search's test oracle.
#[cfg(test)]
mod reference {
    use super::*;

    /// Scores an atomic query over `[lo, hi)` by enumerating all joint
    /// bindings; rows come out in first-seen order of the odometer.
    pub(super) fn score_window_reference(
        tree: &VideoTree,
        ix: &LevelIndex,
        depth: u8,
        lo: u32,
        hi: u32,
        query: &AtomicQuery,
    ) -> SimilarityTable {
        let evaluator = ExactEvaluator::new(tree);
        let vars = query.binding_vars();
        let n_free = query.free_objs.len();
        // Accumulated rows: (free binding, ranges, per-position values).
        let mut acc: BindingAcc = Vec::new();

        for p in candidates(ix, query, lo, hi) {
            let meta = tree.meta_at(depth, p).expect("candidate within level");
            let objs: Vec<ObjectId> = meta.object_ids().collect();
            if !vars.is_empty() && objs.is_empty() {
                continue;
            }
            let local = p - lo + 1;
            // Odometer over object assignments to all binding variables.
            let mut counters = vec![0usize; vars.len()];
            loop {
                let mut env = Env::new();
                for (vi, var) in vars.iter().enumerate() {
                    env.objs.insert((*var).to_owned(), objs[counters[vi]]);
                }
                score_binding(
                    tree, &evaluator, depth, p, local, query, &env, n_free, &mut acc,
                );
                // Advance the odometer.
                let mut vi = 0;
                loop {
                    if vi == counters.len() {
                        break;
                    }
                    counters[vi] += 1;
                    if counters[vi] < objs.len() {
                        break;
                    }
                    counters[vi] = 0;
                    vi += 1;
                }
                if vi == counters.len() {
                    break;
                }
            }
        }
        rows_into_table(acc, query)
    }

    /// Scores one joint binding at one segment and folds the result into
    /// `acc`, keeping the max over existential assignments.
    #[allow(clippy::too_many_arguments)]
    fn score_binding(
        tree: &VideoTree,
        evaluator: &ExactEvaluator<'_>,
        depth: u8,
        pos: u32,
        local: u32,
        query: &AtomicQuery,
        env: &Env,
        n_free: usize,
        acc: &mut BindingAcc,
    ) {
        let meta = tree.meta_at(depth, pos).expect("valid position");
        let mut base = 0.0f64;
        for c in &query.conjuncts {
            if matches!(c.kind, ConjunctKind::Plain) {
                let mut scratch = env.clone();
                if evaluator.satisfies_at(depth, (pos, pos + 1), pos, &c.formula, &mut scratch) {
                    base += c.weight;
                }
            }
        }
        let free_binding: Vec<ObjectId> = query
            .free_objs
            .iter()
            .map(|v| env.objs[v])
            .take(n_free)
            .collect();
        for (ranges, extra) in range_combos(tree, meta, query, env) {
            let act = base + extra;
            if act <= 0.0 {
                continue;
            }
            match acc
                .iter_mut()
                .find(|(o, r, _)| *o == free_binding && *r == ranges)
            {
                Some((_, _, entries)) => match entries.last_mut() {
                    Some((p, v)) if *p == local => *v = v.max(act),
                    _ => entries.push((local, act)),
                },
                None => acc.push((free_binding.clone(), ranges, vec![(local, act)])),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScoringConfig;
    use simvid_htl::parse;
    use simvid_model::VideoBuilder;

    fn compile(src: &str, cfg: &ScoringConfig) -> AtomicQuery {
        AtomicQuery::compile(&parse(src).unwrap(), cfg).unwrap()
    }

    /// Three shots: (1) two men, (2) man + woman near each other, (3) train.
    fn bar_scene() -> VideoTree {
        let mut b = VideoBuilder::new("t");
        b.set_level_names(["video", "shot"]);
        b.child("two-men");
        let m1 = b.object(1, "person", Some("Rick"));
        b.object_attr(m1, "sex", AttrValue::from("male"));
        let m2 = b.object(2, "person", Some("Sam"));
        b.object_attr(m2, "sex", AttrValue::from("male"));
        b.up();
        b.child("couple");
        let m = b.object(1, "person", Some("Rick"));
        b.object_attr(m, "sex", AttrValue::from("male"));
        let w = b.object(3, "person", Some("Ilsa"));
        b.object_attr(w, "sex", AttrValue::from("female"));
        b.relationship("near", [m, w]);
        b.up();
        b.child("train");
        b.object(4, "train", None);
        b.up();
        b.finish().unwrap()
    }

    #[test]
    fn partial_matches_scored_below_full_matches() {
        let tree = bar_scene();
        let ix = LevelIndex::build(&tree, 1);
        let cfg = ScoringConfig::default();
        let q = compile(
            "exists x . exists y . person(x) and person(y) and \
             sex(x) = \"male\" and sex(y) = \"female\" and near(x, y)",
            &cfg,
        );
        let t = score_window(&tree, &ix, 1, 0, 3, &q);
        assert_eq!(t.rows.len(), 1, "closed query yields one row");
        let list = &t.rows[0].list;
        // Shot 1 (two men): person+person+male = 3 of 5.
        // Shot 2 (couple with near): all 5.
        assert_eq!(list.to_tuples(), vec![(1, 1, 3.0), (2, 2, 5.0)]);
        assert_eq!(t.max, 5.0);
    }

    #[test]
    fn free_variables_produce_binding_rows() {
        let tree = bar_scene();
        let ix = LevelIndex::build(&tree, 1);
        let q = compile(
            "person(x) and sex(x) = \"female\"",
            &ScoringConfig::default(),
        );
        let t = score_window(&tree, &ix, 1, 0, 3, &q);
        // Bindings: o1 (person, male) scores 1 in shots 1-2; o2 scores 1 in
        // shot 1; o3 (female) scores 2 in shot 2; o4 (train) scores 0.
        let find = |oid: u64| {
            t.rows
                .iter()
                .find(|r| r.objs == vec![ObjectId(oid)])
                .map(|r| r.list.to_tuples())
        };
        assert_eq!(find(1), Some(vec![(1, 2, 1.0)]));
        assert_eq!(find(2), Some(vec![(1, 1, 1.0)]));
        assert_eq!(find(3), Some(vec![(2, 2, 2.0)]));
        assert_eq!(find(4), None);
    }

    #[test]
    fn windows_renumber_locally() {
        let tree = bar_scene();
        let ix = LevelIndex::build(&tree, 1);
        let q = compile("exists t . type(t) = \"train\"", &ScoringConfig::default());
        let full = score_window(&tree, &ix, 1, 0, 3, &q);
        assert_eq!(full.rows[0].list.to_tuples(), vec![(3, 3, 1.0)]);
        let windowed = score_window(&tree, &ix, 1, 2, 3, &q);
        assert_eq!(windowed.rows[0].list.to_tuples(), vec![(1, 1, 1.0)]);
    }

    #[test]
    fn range_conjuncts_split_rows_by_attribute_range() {
        let mut b = VideoBuilder::new("flight");
        b.set_level_names(["video", "frame"]);
        for h in [100i64, 250] {
            b.child(format!("frame-h{h}"));
            let plane = b.object(9, "airplane", None);
            b.object_attr(plane, "height", AttrValue::Int(h));
            b.up();
        }
        let tree = b.finish().unwrap();
        let ix = LevelIndex::build(&tree, 1);
        // `h` must be freeze-bound to resolve as an attribute variable;
        // extract the unit the way the engine does.
        let f = parse("[h := height(z)] (present(z) and height(z) > h)").unwrap();
        let unit = simvid_htl::atomic_units(&f).remove(0);
        let q = AtomicQuery::compile(&unit.formula, &ScoringConfig::default()).unwrap();
        let t = score_window(&tree, &ix, 1, 0, 2, &q);
        // For z = plane: frame 1 (height 100) is fully satisfied when
        // h <= 99 (act 2) and partially otherwise (h >= 100, act 1 for the
        // present(z) conjunct); frame 2 splits at 249/250. For any concrete
        // h exactly one row covers each frame: e.g. h = 150 reads frame 1
        // from the [100, ∞) row (act 1) and frame 2 from the (-∞, 249] row
        // (act 2).
        assert_eq!(t.attr_cols, vec!["h"]);
        #[allow(clippy::type_complexity)]
        let mut acts: Vec<(Option<i64>, Option<i64>, Vec<(u32, u32, f64)>)> = t
            .rows
            .iter()
            .map(|r| (r.ranges[0].lo, r.ranges[0].hi, r.list.to_tuples()))
            .collect();
        acts.sort_by_key(|(lo, hi, _)| (*lo, *hi));
        assert_eq!(
            acts,
            vec![
                (None, Some(99), vec![(1, 1, 2.0)]),
                (None, Some(249), vec![(2, 2, 2.0)]),
                (Some(100), None, vec![(1, 1, 1.0)]),
                (Some(250), None, vec![(2, 2, 1.0)]),
            ]
        );
        // Cross-check the per-evaluation read-out for h = 150.
        let h150 = simvid_model::AttrValue::Int(150);
        let covering: Vec<_> = t
            .rows
            .iter()
            .filter(|r| r.ranges[0].contains(&h150))
            .collect();
        assert_eq!(covering.len(), 2);
    }

    #[test]
    fn empty_segments_are_skipped_for_object_queries() {
        let mut b = VideoBuilder::new("t");
        b.leaf("empty1");
        b.leaf("empty2");
        let tree = b.finish().unwrap();
        let ix = LevelIndex::build(&tree, 1);
        let q = compile("present(x)", &ScoringConfig::default());
        let t = score_window(&tree, &ix, 1, 0, 2, &q);
        assert!(t.rows.is_empty());
    }

    #[test]
    fn segment_attribute_queries_work_without_objects() {
        let mut b = VideoBuilder::new("t");
        b.child("s0");
        b.segment_attr("type", AttrValue::from("western"));
        b.up();
        b.leaf("s1");
        let tree = b.finish().unwrap();
        let ix = LevelIndex::build(&tree, 1);
        let q = compile("type = \"western\"", &ScoringConfig::default());
        let t = score_window(&tree, &ix, 1, 0, 2, &q);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].list.to_tuples(), vec![(1, 1, 1.0)]);
    }
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use crate::ScoringConfig;
    use simvid_htl::parse;
    use simvid_model::VideoBuilder;

    /// Conjuncts sharing an existential variable must be satisfied by a
    /// *single* joint witness, not independently.
    #[test]
    fn shared_existential_variable_needs_a_joint_witness() {
        let mut b = VideoBuilder::new("witness");
        b.set_level_names(["video", "shot"]);
        // Shot 1: one object is armed, a DIFFERENT object is mounted.
        b.child("split");
        let a = b.object(1, "person", None);
        let c = b.object(2, "person", None);
        b.relationship("armed", [a]);
        b.relationship("mounted", [c]);
        b.up();
        // Shot 2: one object is both.
        b.child("joint");
        let d = b.object(3, "person", None);
        b.relationship("armed", [d]);
        b.relationship("mounted", [d]);
        b.up();
        let tree = b.finish().unwrap();
        let ix = LevelIndex::build(&tree, 1);
        let q = AtomicQuery::compile(
            &parse("exists x . armed(x) and mounted(x)").unwrap(),
            &ScoringConfig::default(),
        )
        .unwrap();
        let t = score_window(&tree, &ix, 1, 0, 2, &q);
        let list = t.into_closed_list();
        // Shot 1: best single witness satisfies one conjunct -> act 1.
        assert_eq!(list.value_at(1), 1.0);
        // Shot 2: the joint witness satisfies both -> act 2 (exact).
        assert_eq!(list.value_at(2), 2.0);
    }

    /// Distinct existential variables may pick distinct witnesses.
    #[test]
    fn distinct_variables_may_split_witnesses() {
        let mut b = VideoBuilder::new("split-ok");
        b.set_level_names(["video", "shot"]);
        b.child("split");
        let a = b.object(1, "person", None);
        let c = b.object(2, "person", None);
        b.relationship("armed", [a]);
        b.relationship("mounted", [c]);
        b.up();
        let tree = b.finish().unwrap();
        let ix = LevelIndex::build(&tree, 1);
        let q = AtomicQuery::compile(
            &parse("exists x . exists y . armed(x) and mounted(y)").unwrap(),
            &ScoringConfig::default(),
        )
        .unwrap();
        let t = score_window(&tree, &ix, 1, 0, 1, &q);
        assert_eq!(
            t.into_closed_list().value_at(1),
            2.0,
            "independent witnesses allowed"
        );
    }
}

#[cfg(test)]
mod search_vs_reference {
    use super::reference::score_window_reference;
    use super::*;
    use crate::ScoringConfig;
    use proptest::prelude::*;
    use simvid_htl::parse;
    use simvid_model::VideoBuilder;

    const CLASSES: [&str; 5] = ["person", "person", "horse", "car", "person"];
    const HEIGHTS: [Option<i64>; 4] = [None, Some(50), Some(100), Some(150)];
    const WEIGHTS: [f64; 4] = [0.1, 0.7, 1.0, 3.665];
    const KEYS: [&str; 8] = [
        "person", "moving", "near", "height", "present", "type", "name", "complex",
    ];

    /// One object appearance: (id index, height index, flags); flag bit 0
    /// makes it `moving`, bit 1 puts it `near` the next object in the shot.
    type Shot = Vec<(usize, usize, u8)>;

    fn build(shots: &[Shot]) -> VideoTree {
        let mut b = VideoBuilder::new("random");
        b.set_level_names(["video", "shot"]);
        for (s, shot) in shots.iter().enumerate() {
            b.child(format!("s{s}"));
            if s % 2 == 0 {
                b.segment_attr("genre", AttrValue::from("western"));
            }
            let mut placed: Vec<(ObjectId, u8)> = Vec::new();
            for &(id, h, flags) in shot {
                if placed.iter().any(|(o, _)| o.0 == id as u64 + 1) {
                    continue;
                }
                let name = (id == 0).then_some("Rick");
                let o = b.object(id as u64 + 1, CLASSES[id], name);
                if let Some(h) = HEIGHTS[h] {
                    b.object_attr(o, "height", AttrValue::Int(h));
                }
                placed.push((o, flags));
            }
            for (i, &(o, flags)) in placed.iter().enumerate() {
                if flags & 1 == 1 {
                    b.relationship("moving", [o]);
                }
                if let (true, Some(&(next, _))) = (flags & 2 == 2, placed.get(i + 1)) {
                    b.relationship("near", [o, next]);
                }
            }
            b.up();
        }
        b.finish().unwrap()
    }

    /// A conjunct over variables `a` and `b` (or, with no variables, over
    /// the segment alone).
    fn conjunct(template: usize, a: Option<&str>, b: Option<&str>) -> String {
        let (Some(a), Some(b)) = (a, b) else {
            return match template % 3 {
                0 => "genre = \"western\"".into(),
                1 => "not genre = \"news\"".into(),
                _ => "not exists w . moving(w)".into(),
            };
        };
        match template {
            0 => format!("person({a})"),
            1 => format!("moving({a})"),
            2 => format!("near({a}, {b})"),
            3 => format!("height({a}) > 100"),
            4 => format!("not moving({a})"),
            5 => format!("present({a})"),
            6 => format!("not exists w . near({a}, w)"),
            7 => format!("type({a}) = \"horse\""),
            8 => format!("not near({a}, {b})"),
            _ => format!("name({a}) = \"Rick\""),
        }
    }

    /// Query text: `vars` variables (bit `i` of `free` keeps `x{i}` free),
    /// the given conjuncts, and, when `freeze >= 12`, a freeze whose body
    /// compares a height against the frozen `h` (a `Range` conjunct once
    /// extracted).
    fn query_text(
        vars: usize,
        free: u8,
        conjuncts: &[(usize, usize, usize)],
        freeze: usize,
    ) -> String {
        let var = |i: usize| (vars > 0).then(|| format!("x{}", i % vars));
        let mut parts: Vec<String> = conjuncts
            .iter()
            .map(|&(t, a, b)| format!("({})", conjunct(t, var(a).as_deref(), var(b).as_deref())))
            .collect();
        let frozen = freeze >= 12 && vars > 0;
        if frozen {
            let op = [">", ">=", "<", "="][freeze % 4];
            parts.push(format!("height(x{}) {op} h", vars - 1));
        }
        let mut body = parts.join(" and ");
        for i in (0..vars).rev() {
            if free & (1 << i) == 0 {
                body = format!("exists x{i} . ({body})");
            }
        }
        if frozen {
            format!("[h := height(x0)] ({body})")
        } else {
            body
        }
    }

    fn config(weights: &[usize]) -> ScoringConfig {
        let mut cfg = ScoringConfig {
            default_weight: WEIGHTS[weights[0]],
            ..ScoringConfig::default()
        };
        for (key, &w) in KEYS.iter().zip(&weights[1..]) {
            cfg = cfg.with_weight(*key, WEIGHTS[w]);
        }
        cfg
    }

    fn bits(t: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
        t.iter().map(|&(a, b, v)| (a, b, v.to_bits())).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The branch-and-bound search produces the odometer's rows, each
        /// with a bit-identical list.
        #[test]
        fn search_matches_the_odometer(
            shots in prop::collection::vec(
                prop::collection::vec((0usize..5, 0usize..4, 0u8..4), 0..=4),
                1..=6,
            ),
            shape in (0usize..=3, 0u8..8, 0usize..16),
            conjuncts in prop::collection::vec((0usize..10, 0usize..3, 0usize..3), 1..=4),
            weights in prop::collection::vec(0usize..4, 9),
            window in (0usize..6, 0usize..6),
        ) {
            let (vars, free, freeze) = shape;
            let tree = build(&shots);
            let text = query_text(vars, free, &conjuncts, freeze);
            let f = parse(&text).unwrap();
            let unit = simvid_htl::atomic_units(&f).remove(0).formula;
            let q = AtomicQuery::compile(&unit, &config(&weights)).unwrap();
            let ix = LevelIndex::build(&tree, 1);
            let n = shots.len();
            let (lo, hi) = (window.0 % n, n - window.1 % (n - window.0 % n));
            let (lo, hi) = (lo as u32, hi as u32);
            let got = score_window(&tree, &ix, 1, lo, hi, &q);
            let want = score_window_reference(&tree, &ix, 1, lo, hi, &q);
            prop_assert_eq!(&got.obj_cols, &want.obj_cols, "{}", text);
            prop_assert_eq!(&got.attr_cols, &want.attr_cols, "{}", text);
            prop_assert_eq!(got.max.to_bits(), want.max.to_bits(), "{}", text);
            prop_assert_eq!(got.rows.len(), want.rows.len(), "{}", text);
            for row in &got.rows {
                let same: Vec<_> = want
                    .rows
                    .iter()
                    .filter(|r| r.objs == row.objs && r.ranges == row.ranges)
                    .collect();
                prop_assert_eq!(same.len(), 1, "{}: row {:?}", text, row.objs);
                prop_assert_eq!(
                    bits(&row.list.to_tuples()),
                    bits(&same[0].list.to_tuples()),
                    "{}: row {:?} {:?}", text, row.objs, row.ranges
                );
            }
        }
    }
}
