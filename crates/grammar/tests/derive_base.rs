//! Derived tables equal full builds over the real MayaJava base grammar:
//! seeded random chains of one to four extensions, each derived from the
//! grammar it extends (or an older ancestor), compared field for field, or
//! conflict list for conflict list, with a full build.

use maya_ast::NodeKind;
use maya_grammar::{Assoc, Built, Grammar, GrammarError, RhsItem, Terminal};
use maya_lexer::{Delim, TokenKind};

/// Deterministic xorshift64* (no registry access for `rand`).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(2685821657736338717) % n
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }
}

/// One random production on a MayaJava nonterminal. Its head is a new
/// word, an existing nonterminal (which redirects transitions), an
/// existing token, or nothing (an ε-production); some carry precedence,
/// and many conflict.
fn production(rng: &mut Rng, fresh: &str) -> (NodeKind, Vec<RhsItem>, Option<(u16, Assoc)>) {
    use NodeKind::*;
    let lhs = rng.pick(&[
        Statement,
        Statement,
        Expression,
        Declaration,
        MethodName,
        Formal,
    ]);
    let mut rhs = match rng.below(5) {
        0 | 1 => vec![RhsItem::word(fresh)],
        2 => vec![RhsItem::Kind(rng.pick(&[
            Expression,
            MethodName,
            TypeName,
            ModifierList,
        ]))],
        3 => vec![RhsItem::tok(rng.pick(&[
            TokenKind::At,
            TokenKind::Ident,
            TokenKind::KwIf,
        ]))],
        _ => vec![],
    };
    for _ in 0..rng.below(4) {
        rhs.push(match rng.below(6) {
            0 => RhsItem::tok(rng.pick(&[TokenKind::Semi, TokenKind::Colon, TokenKind::Comma])),
            1 => RhsItem::Subtree(
                rng.pick(&[Delim::Paren, Delim::Brack]),
                vec![RhsItem::Kind(rng.pick(&[Expression, Formal, ArgumentList]))],
            ),
            2 => RhsItem::Lazy(Delim::Brace, BlockStmts),
            3 => RhsItem::word(&format!("{fresh}t")),
            _ => RhsItem::Kind(rng.pick(&[Expression, Identifier, TypeName, Statement])),
        });
    }
    let prec =
        (rng.below(4) == 0).then(|| (rng.below(55) as u16, rng.pick(&[Assoc::Left, Assoc::Right])));
    (lhs, rhs, prec)
}

fn check(g: &Grammar, from: &Built, what: &str) -> Option<Built> {
    let full = g.build_full();
    let derived = g.derive_from(from).expect("an extension is derivable");
    match (full, derived) {
        (Ok(f), Ok(d)) => {
            assert!(
                **f.tables() == **d.tables(),
                "{what}: derived tables differ"
            );
            Some(d)
        }
        (Err(GrammarError::Conflicts(f)), Err(GrammarError::Conflicts(d))) => {
            assert_eq!(
                format!("{f:?}"),
                format!("{d:?}"),
                "{what}: conflicts differ"
            );
            None
        }
        (f, d) => panic!(
            "{what}: full build ok={} but derivation ok={}",
            f.is_ok(),
            d.is_ok()
        ),
    }
}

#[test]
fn derived_tables_equal_full_builds_over_the_base_grammar() {
    let base = maya_basegrammar::build().grammar;
    let base_built = base.build_full().expect("the base grammar is LALR(1)");
    let (mut derived, mut conflicted) = (0, 0);
    for seed in 1..=24u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let mut chain = vec![(base.clone(), base_built.clone())];
        for step in 0..=rng.below(4) as usize {
            let mut b = chain.last().unwrap().0.extend();
            for i in 0..=rng.below(2) {
                let fresh = format!("xw{step}n{i}");
                let (lhs, rhs, prec) = production(&mut rng, &fresh);
                if rng.below(6) == 0 {
                    b.set_prec(
                        Terminal::Word(maya_lexer::sym(&fresh)),
                        rng.below(30) as u16,
                        Assoc::Left,
                    );
                }
                b.add_production(lhs, &rhs, prec).expect("valid production");
            }
            let g = b.finish();
            let from = &chain[chain.len() - 1 - rng.below(chain.len() as u64) as usize].1;
            match check(&g, from, &format!("seed {seed} step {step}")) {
                Some(built) => {
                    derived += 1;
                    chain.push((g, built));
                }
                None => {
                    conflicted += 1;
                    break;
                }
            }
        }
    }
    assert!(
        derived >= 8 && conflicted >= 4,
        "{derived} derived, {conflicted} conflicted"
    );
}
