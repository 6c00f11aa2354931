//! Extraction of atomic units — the maximal non-temporal subformulas.
//!
//! Both retrieval approaches in the paper (the direct algorithms and the
//! SQL translation) share a front end that "parses the input conjunctive
//! temporal formula and identifies its subformulas"; the similarity tables
//! of the *atomic subformulas* — the "maximal subformulas that do not have
//! any temporal operators in them" (§4) — are produced by the picture
//! retrieval system and fed to the temporal combination machinery.
//!
//! We additionally exclude level modal operators and freeze binders from
//! units: the former change the evaluation level and the latter are handled
//! via value tables by the engine.

use crate::{free_attr_vars, free_obj_vars, AttrVar, Formula, FormulaId, ObjVar};

/// A maximal non-temporal subformula together with its free variables.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomicUnit {
    /// The subformula (cloned out of the query).
    pub formula: Formula,
    /// The interned identity of `formula`, computed once when the unit is
    /// built so providers can key caches on it without re-interning.
    /// Must equal `FormulaId::of(&formula)`.
    pub id: FormulaId,
    /// Free object variables, sorted.
    pub free_objs: Vec<ObjVar>,
    /// Free attribute variables, sorted.
    pub free_attrs: Vec<AttrVar>,
}

/// Whether `f` is free of temporal operators, level modal operators and
/// freeze binders — i.e. evaluable on a single segment's meta-data.
#[must_use]
pub fn is_pure(f: &Formula) -> bool {
    match f {
        Formula::Atom(_) => true,
        Formula::Not(g) => is_pure(g),
        Formula::And(g, h) => is_pure(g) && is_pure(h),
        Formula::Exists(_, g) => is_pure(g),
        Formula::Next(_)
        | Formula::Until(..)
        | Formula::Eventually(_)
        | Formula::Freeze { .. }
        | Formula::AtLevel(..) => false,
    }
}

impl AtomicUnit {
    /// Wraps a pure formula as a unit: clones it, interns it and collects
    /// its free variables.
    #[must_use]
    pub fn of(f: &Formula) -> AtomicUnit {
        debug_assert!(is_pure(f), "atomic units are pure");
        AtomicUnit {
            formula: f.clone(),
            id: FormulaId::of(f),
            free_objs: free_obj_vars(f).into_iter().collect(),
            free_attrs: free_attr_vars(f).into_iter().collect(),
        }
    }
}

fn collect(f: &Formula, out: &mut Vec<AtomicUnit>) {
    if is_pure(f) {
        out.push(AtomicUnit::of(f));
        return;
    }
    match f {
        Formula::Atom(_) => unreachable!("atoms are pure"),
        Formula::Not(g)
        | Formula::Next(g)
        | Formula::Eventually(g)
        | Formula::Exists(_, g)
        | Formula::Freeze { body: g, .. }
        | Formula::AtLevel(_, g) => collect(g, out),
        Formula::And(g, h) | Formula::Until(g, h) => {
            collect(g, out);
            collect(h, out);
        }
    }
}

/// Returns the atomic units of `f` in left-to-right order. Repeated
/// occurrences of the same predicate yield separate units (the paper counts
/// them separately in its complexity analysis).
#[must_use]
pub fn atomic_units(f: &Formula) -> Vec<AtomicUnit> {
    let mut out = Vec::new();
    collect(f, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn type1_formula_units_are_the_nontemporal_blocks() {
        let f = parse("M1() and next (M2() until M3())").unwrap();
        let units = atomic_units(&f);
        let names: Vec<String> = units.iter().map(|u| u.formula.to_string()).collect();
        assert_eq!(names, vec!["M1()", "M2()", "M3()"]);
    }

    #[test]
    fn conjunction_of_atoms_is_one_unit() {
        let f = parse("(present(x) and person(x)) and eventually on_floor(x)").unwrap();
        let units = atomic_units(&f);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].formula.to_string(), "present(x) and person(x)");
        assert_eq!(units[0].free_objs.len(), 1);
    }

    #[test]
    fn exists_with_temporal_scope_splits_below_the_binder() {
        let f = parse("exists x . (p(x) and eventually q(x))").unwrap();
        let units = atomic_units(&f);
        assert_eq!(units.len(), 2);
        // x is free in both units; the binder lives above them.
        assert_eq!(units[0].free_objs[0].0, "x");
        assert_eq!(units[1].free_objs[0].0, "x");
    }

    #[test]
    fn exists_with_pure_scope_stays_whole() {
        let f = parse("(exists x . (p(x) and q(x))) and eventually r()").unwrap();
        let units = atomic_units(&f);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].formula.to_string(), "exists x . p(x) and q(x)");
        assert!(units[0].free_objs.is_empty());
    }

    #[test]
    fn freeze_is_not_part_of_a_unit() {
        let f = parse("[h := height(z)] (present(z) and height(z) > h)").unwrap();
        let units = atomic_units(&f);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].formula.to_string(), "present(z) and height(z) > h");
        assert_eq!(units[0].free_attrs.len(), 1);
        assert_eq!(units[0].free_objs.len(), 1);
    }

    #[test]
    fn units_carry_their_interned_id() {
        let f = parse("p() until (q(x) and r(x))").unwrap();
        for unit in atomic_units(&f) {
            assert_eq!(unit.id, FormulaId::of(&unit.formula));
        }
    }

    #[test]
    fn repeated_predicates_count_separately() {
        let f = parse("p() until (p() until p())").unwrap();
        assert_eq!(atomic_units(&f).len(), 3);
    }

    #[test]
    fn level_modals_are_transparent() {
        let f = parse("at shot level (a() until b())").unwrap();
        assert_eq!(atomic_units(&f).len(), 2);
    }
}
