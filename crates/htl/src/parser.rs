//! Recursive-descent parser for the HTL concrete syntax.

use crate::lexer::{lex, Spanned, Tok};
use crate::{Atom, AttrFn, AttrVar, CmpOp, Expr, Formula, LevelSpec, ObjVar, ParseError};
use simvid_model::AttrValue;

/// The deepest the parser nests. Each `formula`, `unary`, `atom` and `term`
/// it enters counts one level, and so does each `and` a conjunction chains
/// (a left-nested chain builds a deep tree without recursing). A parsed
/// formula is therefore never deeper than this, which bounds the recursion
/// of every later pass over it: normalizing, interning, printing, exact
/// evaluation, planning, engine evaluation and `Drop`.
pub const MAX_FORMULA_DEPTH: usize = 256;

/// Parses an HTL formula from its concrete syntax.
///
/// Identifier resolution follows fixed syntactic rules: identifiers in
/// predicate-argument position are object variables (free if not bound by
/// `exists`); a bare identifier used as a comparison operand is an attribute
/// variable when it is bound by an enclosing freeze quantifier `[y := q]`
/// and a segment-attribute reference otherwise.
///
/// # Errors
///
/// Returns a [`ParseError`] with byte position on malformed input, and one
/// of kind [`crate::ParseErrorKind::TooDeep`] on input nested deeper than
/// [`MAX_FORMULA_DEPTH`], before any over-deep node is built.
pub fn parse(input: &str) -> Result<Formula, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        i: 0,
        obj_binders: Vec::new(),
        attr_binders: Vec::new(),
        depth: 0,
    };
    let f = p.formula()?;
    p.expect(&Tok::Eof)?;
    Ok(f)
}

/// Intermediate term shape before operand-position resolution.
#[derive(Debug)]
enum Term {
    Ident(String),
    Call(String, Vec<Term>, usize),
    Const(AttrValue),
}

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    obj_binders: Vec<String>,
    attr_binders: Vec<String>,
    /// Current nesting, counted as [`MAX_FORMULA_DEPTH`] describes.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> usize {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(ParseError::new(
                self.pos(),
                format!(
                    "expected {}, found {}",
                    want.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, usize), ParseError> {
        let pos = self.pos();
        match self.bump() {
            Tok::Ident(s) => Ok((s, pos)),
            other => Err(ParseError::new(
                pos,
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    /// Goes one level deeper, failing if that passes [`MAX_FORMULA_DEPTH`].
    /// A failed parse never comes back up, so only success restores depth.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_FORMULA_DEPTH {
            Err(ParseError::too_deep(self.pos()))
        } else {
            Ok(())
        }
    }

    /// Runs `body` one level deeper.
    fn nested<T>(&mut self, body: fn(&mut Self) -> Result<T, ParseError>) -> Result<T, ParseError> {
        self.descend()?;
        let out = body(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn formula(&mut self) -> Result<Formula, ParseError> {
        self.nested(Self::formula_body)
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        self.nested(Self::unary_body)
    }

    fn atom(&mut self) -> Result<Formula, ParseError> {
        self.nested(Self::atom_body)
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.nested(Self::term_body)
    }

    // formula := conj ('until' formula)?     (right associative)
    fn formula_body(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.conj()?;
        if *self.peek() == Tok::KwUntil {
            self.bump();
            let rhs = self.formula()?;
            Ok(lhs.until(rhs))
        } else {
            Ok(lhs)
        }
    }

    // conj := unary ('and' unary)*           (left associative)
    fn conj(&mut self) -> Result<Formula, ParseError> {
        let mut f = self.unary()?;
        let mut links = 0;
        while *self.peek() == Tok::KwAnd {
            // Each link nests the chain so far one level deeper.
            self.descend()?;
            links += 1;
            self.bump();
            let rhs = self.unary()?;
            f = f.and(rhs);
        }
        self.depth -= links;
        Ok(f)
    }

    fn unary_body(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Tok::KwNot => {
                self.bump();
                Ok(self.unary()?.not())
            }
            Tok::KwNext => {
                self.bump();
                Ok(self.unary()?.next())
            }
            Tok::KwEventually => {
                self.bump();
                Ok(self.unary()?.eventually())
            }
            // Quantifier scopes extend maximally to the right, so
            // `exists x . p(x) and eventually q(x)` binds both conjuncts.
            Tok::KwExists => self.exists(),
            Tok::LBracket => self.freeze(),
            Tok::KwAt => self.at_level(),
            _ => self.atom(),
        }
    }

    // The rarer prefix forms live apart from `unary_body`, which every
    // nesting level runs, to keep its stack frame small.

    fn exists(&mut self) -> Result<Formula, ParseError> {
        self.bump();
        let (name, _) = self.expect_ident()?;
        self.expect(&Tok::Dot)?;
        self.obj_binders.push(name.clone());
        let body = self.formula();
        self.obj_binders.pop();
        Ok(Formula::Exists(ObjVar(name), Box::new(body?)))
    }

    fn freeze(&mut self) -> Result<Formula, ParseError> {
        self.bump();
        let (name, _) = self.expect_ident()?;
        self.expect(&Tok::Assign)?;
        let term = self.term()?;
        let func = self.term_to_attr_fn(term)?;
        self.expect(&Tok::RBracket)?;
        self.attr_binders.push(name.clone());
        let body = self.formula();
        self.attr_binders.pop();
        Ok(Formula::Freeze {
            var: AttrVar(name),
            func,
            body: Box::new(body?),
        })
    }

    fn at_level(&mut self) -> Result<Formula, ParseError> {
        self.bump();
        let spec = match self.peek().clone() {
            Tok::KwNext => {
                self.bump();
                LevelSpec::Next
            }
            Tok::KwLevel => {
                self.bump();
                let pos = self.pos();
                match self.bump() {
                    // `at level N f`: no trailing `level` keyword.
                    Tok::Int(n) if (1..=255).contains(&n) => {
                        return Ok(Formula::AtLevel(
                            LevelSpec::Number(n as u8),
                            Box::new(self.unary()?),
                        ));
                    }
                    other => {
                        return Err(ParseError::new(
                            pos,
                            format!("expected level number 1-255, found {}", other.describe()),
                        ))
                    }
                }
            }
            Tok::Ident(name) => {
                self.bump();
                LevelSpec::Named(name)
            }
            other => {
                return Err(ParseError::new(
                    self.pos(),
                    format!(
                        "expected `next`, `level` or a level name after `at`, found {}",
                        other.describe()
                    ),
                ))
            }
        };
        self.expect(&Tok::KwLevel)?;
        Ok(Formula::AtLevel(spec, Box::new(self.unary()?)))
    }

    fn atom_body(&mut self) -> Result<Formula, ParseError> {
        match self.peek().clone() {
            Tok::KwTrue | Tok::KwFalse => {
                let b = matches!(self.bump(), Tok::KwTrue);
                // `true = speed` compares the boolean constant; a lone
                // `true`/`false` is the boolean formula.
                if let Some(op) = self.cmp_op() {
                    let rhs_pos = self.pos();
                    let rhs = self.term()?;
                    Ok(Formula::Atom(Atom::Cmp {
                        op,
                        lhs: Expr::Const(AttrValue::Bool(b)),
                        rhs: self.term_to_operand(rhs, rhs_pos)?,
                    }))
                } else if b {
                    Ok(Formula::tt())
                } else {
                    Ok(Formula::ff())
                }
            }
            Tok::KwPresent => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let (name, _) = self.expect_ident()?;
                self.expect(&Tok::RParen)?;
                Ok(Formula::Atom(Atom::Present(ObjVar(name))))
            }
            Tok::LParen => {
                self.bump();
                let f = self.formula()?;
                self.expect(&Tok::RParen)?;
                Ok(f)
            }
            Tok::Ident(_) | Tok::Str(_) | Tok::Int(_) | Tok::Float(_) => {
                let lhs_pos = self.pos();
                let lhs = self.term()?;
                if let Some(op) = self.cmp_op() {
                    let rhs_pos = self.pos();
                    let rhs = self.term()?;
                    Ok(Formula::Atom(Atom::Cmp {
                        op,
                        lhs: self.term_to_operand(lhs, lhs_pos)?,
                        rhs: self.term_to_operand(rhs, rhs_pos)?,
                    }))
                } else {
                    match lhs {
                        Term::Call(name, args, pos) => {
                            let args = args
                                .into_iter()
                                .map(|a| self.term_to_rel_arg(a, pos))
                                .collect::<Result<Vec<_>, _>>()?;
                            Ok(Formula::Atom(Atom::Rel { name, args }))
                        }
                        _ => Err(ParseError::new(
                            lhs_pos,
                            "expected a predicate application or comparison",
                        )),
                    }
                }
            }
            other => Err(ParseError::new(
                self.pos(),
                format!("expected a formula, found {}", other.describe()),
            )),
        }
    }

    fn cmp_op(&mut self) -> Option<CmpOp> {
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return None,
        };
        self.bump();
        Some(op)
    }

    fn term_body(&mut self) -> Result<Term, ParseError> {
        let pos = self.pos();
        match self.bump() {
            Tok::Ident(name) => {
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.term()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Term::Call(name, args, pos))
                } else {
                    Ok(Term::Ident(name))
                }
            }
            Tok::Str(s) => Ok(Term::Const(AttrValue::Str(s))),
            Tok::Int(i) => Ok(Term::Const(AttrValue::Int(i))),
            Tok::Float(x) => Ok(Term::Const(AttrValue::Float(x))),
            Tok::KwTrue => Ok(Term::Const(AttrValue::Bool(true))),
            Tok::KwFalse => Ok(Term::Const(AttrValue::Bool(false))),
            other => Err(ParseError::new(
                pos,
                format!("expected a term, found {}", other.describe()),
            )),
        }
    }

    /// Resolves a term in comparison-operand position.
    fn term_to_operand(&self, term: Term, pos: usize) -> Result<Expr, ParseError> {
        match term {
            Term::Const(v) => Ok(Expr::Const(v)),
            Term::Ident(name) => {
                if self.attr_binders.contains(&name) {
                    Ok(Expr::Attr(AttrVar(name)))
                } else if self.obj_binders.contains(&name) {
                    Err(ParseError::new(
                        pos,
                        format!("object variable `{name}` cannot be used as an attribute value"),
                    ))
                } else {
                    Ok(Expr::Fn(AttrFn {
                        attr: name,
                        of: None,
                    }))
                }
            }
            Term::Call(name, args, call_pos) => match args.as_slice() {
                [Term::Ident(obj)] => Ok(Expr::Fn(AttrFn {
                    attr: name,
                    of: Some(ObjVar(obj.clone())),
                })),
                _ => Err(ParseError::new(
                    call_pos,
                    format!("attribute function `{name}` takes exactly one object variable"),
                )),
            },
        }
    }

    /// Resolves a term in relationship-argument position.
    fn term_to_rel_arg(&self, term: Term, pos: usize) -> Result<Expr, ParseError> {
        match term {
            Term::Ident(name) => Ok(Expr::Obj(ObjVar(name))),
            Term::Const(v) => Ok(Expr::Const(v)),
            Term::Call(name, ..) => Err(ParseError::new(
                pos,
                format!("nested application `{name}(…)` is not allowed in predicate arguments"),
            )),
        }
    }

    /// Resolves the right-hand side of a freeze quantifier.
    fn term_to_attr_fn(&self, term: Term) -> Result<AttrFn, ParseError> {
        match term {
            Term::Ident(name) => Ok(AttrFn {
                attr: name,
                of: None,
            }),
            Term::Call(name, args, pos) => match args.as_slice() {
                [Term::Ident(obj)] => Ok(AttrFn {
                    attr: name,
                    of: Some(ObjVar(obj.clone())),
                }),
                _ => Err(ParseError::new(
                    pos,
                    format!("attribute function `{name}` takes exactly one object variable"),
                )),
            },
            Term::Const(_) => Err(ParseError::new(
                0,
                "freeze quantifier requires an attribute function, not a constant",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_formula_a() {
        let f = parse("at shot level (M1() and next (M2() until M3()))").unwrap();
        match f {
            Formula::AtLevel(LevelSpec::Named(n), body) => {
                assert_eq!(n, "shot");
                assert!(matches!(*body, Formula::And(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_paper_formula_b() {
        let f = parse(
            "exists x . exists y . \
             (present(x) and person(x) and name(x) = \"John Wayne\" and holds_gun(y)) \
             and eventually (fires_at(x, y) and eventually on_floor(y))",
        )
        .unwrap();
        assert!(matches!(f, Formula::Exists(..)));
    }

    #[test]
    fn parses_paper_formula_c_with_freeze() {
        let f = parse(
            "exists z . (present(z) and type(z) = \"airplane\" and \
             [h := height(z)] eventually (present(z) and height(z) > h))",
        )
        .unwrap();
        // Find the freeze node and check the comparison inside uses Attr(h).
        fn find_cmp(f: &Formula) -> Option<&Atom> {
            match f {
                Formula::Atom(
                    a @ Atom::Cmp {
                        rhs: Expr::Attr(_), ..
                    },
                ) => Some(a),
                Formula::Atom(_) => None,
                Formula::Not(g)
                | Formula::Next(g)
                | Formula::Eventually(g)
                | Formula::Exists(_, g)
                | Formula::Freeze { body: g, .. }
                | Formula::AtLevel(_, g) => find_cmp(g),
                Formula::And(g, h) | Formula::Until(g, h) => find_cmp(g).or_else(|| find_cmp(h)),
            }
        }
        let cmp = find_cmp(&f).expect("freeze-bound comparison found");
        match cmp {
            Atom::Cmp { op, lhs, rhs } => {
                assert_eq!(*op, CmpOp::Gt);
                assert_eq!(
                    *lhs,
                    Expr::Fn(AttrFn {
                        attr: "height".into(),
                        of: Some(ObjVar("z".into()))
                    })
                );
                assert_eq!(*rhs, Expr::Attr(AttrVar("h".into())));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn segment_attribute_comparison() {
        let f = parse("type = \"western\"").unwrap();
        assert_eq!(
            f,
            Formula::cmp_seg_const("type", CmpOp::Eq, AttrValue::from("western"))
        );
    }

    #[test]
    fn until_is_right_associative() {
        let f = parse("a() until b() until c()").unwrap();
        match f {
            Formula::Until(lhs, rhs) => {
                assert!(matches!(*lhs, Formula::Atom(_)));
                assert!(matches!(*rhs, Formula::Until(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_until() {
        let f = parse("a() and b() until c()").unwrap();
        assert!(matches!(f, Formula::Until(..)));
        if let Formula::Until(lhs, _) = f {
            assert!(matches!(*lhs, Formula::And(..)));
        }
    }

    #[test]
    fn at_level_number() {
        let f = parse("at level 3 present(x)").unwrap();
        assert!(matches!(f, Formula::AtLevel(LevelSpec::Number(3), _)));
    }

    #[test]
    fn at_next_level() {
        let f = parse("at next level M()").unwrap();
        assert!(matches!(f, Formula::AtLevel(LevelSpec::Next, _)));
    }

    #[test]
    fn object_variable_in_comparison_rejected() {
        let err = parse("exists x . x = 3").unwrap_err();
        assert!(err.msg.contains("object variable"));
    }

    #[test]
    fn rel_with_string_constant_arg() {
        let f = parse("holds(x, \"gun\")").unwrap();
        assert_eq!(
            f,
            Formula::Atom(Atom::Rel {
                name: "holds".into(),
                args: vec![
                    Expr::Obj(ObjVar("x".into())),
                    Expr::Const(AttrValue::from("gun"))
                ],
            })
        );
    }

    #[test]
    fn bare_identifier_is_not_a_formula() {
        assert!(parse("lonely").is_err());
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("present(x) present(y)").is_err());
    }

    #[test]
    fn unclosed_paren_rejected() {
        let err = parse("(present(x)").unwrap_err();
        assert!(err.msg.contains("expected `)`"));
    }

    #[test]
    fn zero_arity_predicates() {
        let f = parse("M1()").unwrap();
        assert_eq!(
            f,
            Formula::Atom(Atom::Rel {
                name: "M1".into(),
                args: vec![]
            })
        );
    }

    #[test]
    fn attr_fn_must_take_single_object() {
        assert!(parse("height(a, b) > 3").is_err());
        assert!(parse("[h := height(a, b)] present(a)").is_err());
    }

    #[test]
    fn freeze_of_segment_attribute() {
        let f = parse("[t := temperature] eventually temperature > t").unwrap();
        match f {
            Formula::Freeze { var, func, .. } => {
                assert_eq!(var.0, "t");
                assert_eq!(
                    func,
                    AttrFn {
                        attr: "temperature".into(),
                        of: None
                    }
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn true_false_literals() {
        assert_eq!(parse("true").unwrap(), Formula::tt());
        assert_eq!(parse("false").unwrap(), Formula::ff());
    }

    #[test]
    fn freeze_scope_limits_attr_binding() {
        // `h` outside the freeze scope resolves to a segment attribute.
        let f = parse("([h := height(z)] height(z) > h) and h = 1").unwrap();
        if let Formula::And(_, rhs) = f {
            match *rhs {
                Formula::Atom(Atom::Cmp { ref lhs, .. }) => {
                    assert_eq!(
                        *lhs,
                        Expr::Fn(AttrFn {
                            attr: "h".into(),
                            of: None
                        })
                    );
                }
                ref other => panic!("unexpected {other:?}"),
            }
        } else {
            panic!("expected And");
        }
    }
}
