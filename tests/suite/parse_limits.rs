//! Hostile input: formulas nested past `MAX_FORMULA_DEPTH` are rejected at
//! parse with a typed error instead of overflowing the stack, and formulas
//! exactly at the limit still parse, plan and evaluate.
//!
//! Every case runs on one spawned thread with the default 2 MiB stack, the
//! stack a serving worker gets.

use simvid_core::{Engine, Plan};
use simvid_htl::{exact_retrieve, parse, ParseErrorKind, MAX_FORMULA_DEPTH};
use simvid_model::{VideoBuilder, VideoTree};
use simvid_picture::{PictureSystem, ScoringConfig};

/// Runs `work` on a fresh thread with the default stack size.
fn on_default_stack(work: impl FnOnce() + Send + 'static) {
    std::thread::spawn(work)
        .join()
        .expect("no stack overflow or panic");
}

/// Parses `src` and asserts it is rejected as too deep.
fn assert_too_deep(src: String) {
    on_default_stack(move || {
        let err = parse(&src).expect_err("over-deep input must not parse");
        assert_eq!(err.kind, ParseErrorKind::TooDeep, "{err}");
    });
}

/// An 8-shot video where the zero-arity predicate `p()` holds everywhere.
fn video() -> VideoTree {
    let mut b = VideoBuilder::new("limits");
    for i in 0..8 {
        b.child(format!("s{i}"));
        b.relationship("p", []);
        b.up();
    }
    b.finish().unwrap()
}

/// Parses, plans and evaluates `src`, which sits exactly at the limit: one
/// more level of the same shape (`deeper`) is rejected.
fn assert_at_limit(src: String, deeper: String) {
    on_default_stack(move || {
        let f = parse(&src).expect("a formula at the limit parses");
        let tree = video();
        let depth = tree.leaf_level();
        let sys = PictureSystem::new(&tree, ScoringConfig::default());
        let engine = Engine::new(&sys, &tree);
        let plan = Plan::new(&f);
        let top = engine.top_k_plan(&plan, depth, 3).expect("evaluates");
        assert!(top.len() <= 3);
        let list = engine.eval_closed_at_level(&f, depth).expect("evaluates");
        list.check_invariants().unwrap();
        assert!(!f.to_string().is_empty());
        let _ = exact_retrieve(&tree, &f, depth);
        assert_eq!(
            parse(&deeper).map_err(|e| e.kind),
            Err(ParseErrorKind::TooDeep)
        );
    });
}

const HOSTILE: usize = 100_000;

#[test]
fn deeply_nested_parentheses_are_rejected() {
    assert_too_deep(format!("{}p(){}", "(".repeat(HOSTILE), ")".repeat(HOSTILE)));
}

#[test]
fn long_not_chains_are_rejected() {
    assert_too_deep(format!("{}p()", "not ".repeat(HOSTILE)));
}

#[test]
fn long_and_chains_are_rejected() {
    assert_too_deep(vec!["p()"; HOSTILE].join(" and "));
}

#[test]
fn long_until_chains_are_rejected() {
    assert_too_deep(vec!["p()"; HOSTILE].join(" until "));
}

#[test]
fn deeply_nested_terms_are_rejected() {
    assert_too_deep(format!(
        "p({}x{})",
        "f(".repeat(HOSTILE),
        ")".repeat(HOSTILE)
    ));
}

// Nesting counts one level per `formula`, `unary`, `atom` and `term`
// entered and per chained `and`, so each shape below reaches exactly
// `MAX_FORMULA_DEPTH`.

#[test]
fn prefix_chains_at_the_limit_evaluate() {
    // formula, then one unary per prefix, then the unary, atom and term of
    // `p()`.
    let prefixes = MAX_FORMULA_DEPTH - 4;
    for op in ["not ", "next ", "eventually "] {
        assert_at_limit(
            format!("{}p()", op.repeat(prefixes)),
            format!("{}p()", op.repeat(prefixes + 1)),
        );
    }
}

#[test]
fn and_chain_at_the_limit_evaluates() {
    // formula, one level per `and`, then the last conjunct's unary, atom
    // and term.
    let terms = MAX_FORMULA_DEPTH - 3;
    assert_at_limit(
        vec!["p()"; terms].join(" and "),
        vec!["p()"; terms + 1].join(" and "),
    );
}

#[test]
fn until_chain_at_the_limit_evaluates() {
    // One formula per operand, then the last operand's unary, atom and
    // term.
    let terms = MAX_FORMULA_DEPTH - 3;
    assert_at_limit(
        vec!["p()"; terms].join(" until "),
        vec!["p()"; terms + 1].join(" until "),
    );
}
