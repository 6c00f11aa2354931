//! Hash-consed formula identities.
//!
//! The evaluation stack used to key memo tables and picture caches by the
//! *printed* formula (`f.to_string()`), which allocates a fresh `String` and
//! walks the whole AST on every lookup. [`FormulaId`] replaces that: a small
//! `Copy` token obtained once per distinct formula structure from a global
//! intern table. Two formulas that are structurally equal (same AST, same
//! names, bit-identical float constants) always receive the same id, so an
//! id comparison is exactly as discriminating as comparing printed forms —
//! without the allocation or the traversal on the hot path.
//!
//! Interning cost is paid once per *distinct* formula (a structural hash
//! plus, on first sight, one clone into the table). Repeat interning of an
//! already-seen formula is a read-locked probe. The table is append-only
//! and global for the process; formulas are tiny relative to similarity
//! tables, so unbounded growth is a non-issue for realistic query mixes.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

use crate::ast::{Atom, AttrFn, Expr, Formula, LevelSpec};
use simvid_model::AttrValue;

/// A process-wide identity for a structurally distinct [`Formula`].
///
/// Obtained from [`FormulaId::of`]. Ids are dense small integers in order of
/// first interning; equality of ids is equivalent to structural equality of
/// the underlying formulas (within one process — ids are not stable across
/// runs and must not be persisted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormulaId(u64);

impl FormulaId {
    /// Interns `f` and returns its id.
    ///
    /// Structural equality decides identity: names and strings byte-wise,
    /// float constants by their IEEE bit pattern (so `0.0` and `-0.0`
    /// differ, and NaN payloads are respected — consistent with how the
    /// printer would render distinct tokens for distinct sources).
    #[must_use]
    pub fn of(f: &Formula) -> FormulaId {
        let hash = structural_hash(f);
        let table = intern_table();
        // Fast path: already interned — read lock + bucket scan.
        {
            let map = table
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(bucket) = map.buckets.get(&hash) {
                if let Some(&(_, id)) = bucket.iter().find(|(g, _)| g == f) {
                    return FormulaId(id);
                }
            }
        }
        // Slow path: intern under the write lock (re-probe: another thread
        // may have inserted between our locks).
        let mut map = table
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let bucket = map.buckets.entry(hash).or_default();
        if let Some(&(_, id)) = bucket.iter().find(|(g, _)| g == f) {
            return FormulaId(id);
        }
        let id = map.next_id;
        map.next_id += 1;
        map.buckets.entry(hash).or_default().push((f.clone(), id));
        FormulaId(id)
    }

    /// The raw id value, for diagnostics and digests.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The structural hash [`FormulaId::of`] keys its table with (FNV-1a
    /// over a canonical traversal). Unlike the id, it does not depend on
    /// interning order, so it is stable across runs and processes.
    #[must_use]
    pub fn stable_hash(f: &Formula) -> u64 {
        structural_hash(f)
    }
}

struct InternTable {
    /// Structural hash → formulas sharing it (collisions resolved by
    /// `PartialEq`), each with its assigned id.
    buckets: HashMap<u64, Vec<(Formula, u64)>>,
    next_id: u64,
}

fn intern_table() -> &'static RwLock<InternTable> {
    static TABLE: OnceLock<RwLock<InternTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(InternTable {
            buckets: HashMap::new(),
            next_id: 0,
        })
    })
}

// ---------------------------------------------------------------------------
// Structural hashing (FNV-1a over a canonical traversal)
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so `("ab","c")` and `("a","bc")` hash
    /// differently.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A node tag, separating constructors.
    fn tag(&mut self, t: u8) {
        self.byte(t);
    }
}

fn structural_hash(f: &Formula) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    hash_formula(&mut h, f);
    h.0
}

fn hash_formula(h: &mut Fnv, f: &Formula) {
    match f {
        Formula::Atom(a) => {
            h.tag(0);
            hash_atom(h, a);
        }
        Formula::Not(g) => {
            h.tag(1);
            hash_formula(h, g);
        }
        Formula::And(g, k) => {
            h.tag(2);
            hash_formula(h, g);
            hash_formula(h, k);
        }
        Formula::Next(g) => {
            h.tag(3);
            hash_formula(h, g);
        }
        Formula::Until(g, k) => {
            h.tag(4);
            hash_formula(h, g);
            hash_formula(h, k);
        }
        Formula::Eventually(g) => {
            h.tag(5);
            hash_formula(h, g);
        }
        Formula::Exists(v, g) => {
            h.tag(6);
            h.str(&v.0);
            hash_formula(h, g);
        }
        Formula::Freeze { var, func, body } => {
            h.tag(7);
            h.str(&var.0);
            hash_attr_fn(h, func);
            hash_formula(h, body);
        }
        Formula::AtLevel(spec, g) => {
            h.tag(8);
            match spec {
                LevelSpec::Next => h.tag(0),
                LevelSpec::Number(n) => {
                    h.tag(1);
                    h.byte(*n);
                }
                LevelSpec::Named(name) => {
                    h.tag(2);
                    h.str(name);
                }
            }
            hash_formula(h, g);
        }
    }
}

fn hash_atom(h: &mut Fnv, a: &Atom) {
    match a {
        Atom::Bool(b) => {
            h.tag(0);
            h.byte(u8::from(*b));
        }
        Atom::Present(v) => {
            h.tag(1);
            h.str(&v.0);
        }
        Atom::Cmp { op, lhs, rhs } => {
            h.tag(2);
            h.str(op.symbol());
            hash_expr(h, lhs);
            hash_expr(h, rhs);
        }
        Atom::Rel { name, args } => {
            h.tag(3);
            h.str(name);
            h.u64(args.len() as u64);
            for arg in args {
                hash_expr(h, arg);
            }
        }
    }
}

fn hash_expr(h: &mut Fnv, e: &Expr) {
    match e {
        Expr::Obj(v) => {
            h.tag(0);
            h.str(&v.0);
        }
        Expr::Attr(v) => {
            h.tag(1);
            h.str(&v.0);
        }
        Expr::Const(c) => {
            h.tag(2);
            match c {
                AttrValue::Int(i) => {
                    h.tag(0);
                    h.u64(*i as u64);
                }
                AttrValue::Float(x) => {
                    h.tag(1);
                    h.u64(x.to_bits());
                }
                AttrValue::Str(s) => {
                    h.tag(2);
                    h.str(s);
                }
                AttrValue::Bool(b) => {
                    h.tag(3);
                    h.byte(u8::from(*b));
                }
            }
        }
        Expr::Fn(f) => {
            h.tag(3);
            hash_attr_fn(h, f);
        }
    }
}

fn hash_attr_fn(h: &mut Fnv, f: &AttrFn) {
    h.str(&f.attr);
    match &f.of {
        Some(v) => {
            h.tag(1);
            h.str(&v.0);
        }
        None => h.tag(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;

    #[test]
    fn equal_structures_share_an_id() {
        let a = Formula::present("x").and(Formula::rel("person", ["x"]));
        let b = Formula::present("x").and(Formula::rel("person", ["x"]));
        assert_eq!(FormulaId::of(&a), FormulaId::of(&b));
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let a = Formula::present("x");
        let b = Formula::present("y");
        let c = Formula::present("x").not();
        assert_ne!(FormulaId::of(&a), FormulaId::of(&b));
        assert_ne!(FormulaId::of(&a), FormulaId::of(&c));
    }

    #[test]
    fn associativity_is_not_conflated() {
        // (a ∧ b) ∧ c vs a ∧ (b ∧ c) are different ASTs and print
        // differently; they must intern differently too.
        let a = || Formula::present("a");
        let b = || Formula::present("b");
        let c = || Formula::present("c");
        let left = a().and(b()).and(c());
        let right = a().and(b().and(c()));
        assert_ne!(FormulaId::of(&left), FormulaId::of(&right));
    }

    #[test]
    fn float_constants_hash_by_bits() {
        let f = |x: f64| Formula::cmp_seg_const("duration", CmpOp::Gt, AttrValue::Float(x));
        assert_eq!(FormulaId::of(&f(1.5)), FormulaId::of(&f(1.5)));
        assert_ne!(FormulaId::of(&f(0.0)), FormulaId::of(&f(-0.0)));
    }

    #[test]
    fn string_boundaries_are_not_ambiguous() {
        let ab_c = Formula::rel("ab", ["c"]);
        let a_bc = Formula::rel("a", ["bc"]);
        assert_ne!(FormulaId::of(&ab_c), FormulaId::of(&a_bc));
    }

    #[test]
    fn interning_is_idempotent_across_many_calls() {
        let f = Formula::present("x")
            .until(Formula::present("y"))
            .eventually();
        let first = FormulaId::of(&f);
        for _ in 0..100 {
            assert_eq!(FormulaId::of(&f), first);
        }
    }
}
