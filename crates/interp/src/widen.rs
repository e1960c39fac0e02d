//! Assignment conversion (JLS §5.2) where a value meets a declared type:
//! widening primitive conversion (§5.1.2), and the narrowing of a constant
//! into a `byte`, `short` or `char` that the checker admits.
//!
//! At a local variable's initializer, a simple assignment to a local, a
//! `return` and a parameter, both execution tiers decide a conversion from
//! static types: the declared type at the site, and the type
//! [`static_prim`] reads off the value's expression and the declared types
//! of the locals it names. A site converts only when both are known and
//! their run-time representations differ ([`converts`]: `byte`, `short`
//! and `int` share `Value::Int`). A parameter declared `long`, `float` or
//! `double` converts on entry instead (the bytecode as a prologue,
//! [`entry_prim`]): the argument's static type stays with the caller, but
//! a narrower static type always means a narrower representation.
//!
//! A store into a field or an array element converts by the declared type
//! of the field (its [`crate::FieldLayout`] slot, or the class table for a
//! static) or of the element ([`crate::ArrayObj::elem`]) alone
//! ([`to_declared`]): the checker lets only those conversions reach a
//! store, so a value in another representation is one of them.
//!
//! A compound assignment or `++`/`--` stores its promoted result cast back
//! to the variable's type (JLS §15.26.2, §15.14.2), and that stored value
//! is the expression's. A field or an array element narrows through the
//! same [`to_declared`], which also truncates an `int` stored into a
//! `byte` or `short` (a simple store's value is in range already), and
//! the store hands the converted value back. A local narrows by its
//! declared type: both tiers pass the result through [`to_declared`]
//! (the bytecode in a binary's general path, plus a `cast` for `byte`,
//! `short` and `char`, which `++`/`--` promote to `int`).

use crate::lower::name_of;
use crate::Value;
use maya_ast::{BinOp, Expr, ExprKind, Lit, PrimKind, TypeName, TypeNameKind, UnOp};
use maya_lexer::Symbol;
use maya_types::Type;

/// How a tier resolves a bare name: `None` when it names no local,
/// `Some(None)` for a local of a non-primitive type.
pub(crate) type LocalPrim<'a> = &'a dyn Fn(Symbol) -> Option<Option<PrimKind>>;

/// The primitive static type of `e`, when it follows from literals, casts,
/// operators and the declared types of locals; `None` for anything else (a
/// call, a field, an array element, a string).
pub(crate) fn static_prim(e: &Expr, local: LocalPrim<'_>) -> Option<PrimKind> {
    use PrimKind::*;
    match &e.kind {
        ExprKind::Literal(l) => match l {
            Lit::Int(_) => Some(Int),
            Lit::Long(_) => Some(Long),
            Lit::Float(_) => Some(Float),
            Lit::Double(_) => Some(Double),
            Lit::Bool(_) => Some(Boolean),
            Lit::Char(_) => Some(Char),
            Lit::Str(_) | Lit::Null => None,
        },
        ExprKind::Name(_) | ExprKind::VarRef(_) => local(name_of(e)?)?,
        ExprKind::Cast(tn, _) => prim_of(tn),
        ExprKind::Unary(UnOp::Not, _) => Some(Boolean),
        ExprKind::Unary(_, x) => numeric(static_prim(x, local)?).map(promote),
        ExprKind::Binary(op, l, r) => {
            use BinOp::*;
            match op {
                Lt | Gt | Le | Ge | Eq | Ne | And | Or => Some(Boolean),
                Shl | Shr | Ushr => numeric(static_prim(l, local)?).map(promote),
                Add | Sub | Mul | Div | Rem | BitAnd | BitXor | BitOr => {
                    let (a, b) = (static_prim(l, local)?, static_prim(r, local)?);
                    if (a, b) == (Boolean, Boolean) {
                        return matches!(op, BitAnd | BitXor | BitOr).then_some(Boolean);
                    }
                    Some(binary_promote(numeric(a)?, numeric(b)?))
                }
            }
        }
        ExprKind::Cond(_, t, f) => {
            let (a, b) = (static_prim(t, local)?, static_prim(f, local)?);
            (a == b).then_some(a)
        }
        ExprKind::IncDec(_, _, x) => static_prim(x, local),
        _ => None,
    }
}

/// True when a value of static type `from` needs converting to `to`: an
/// assignment conversion that changes the representation (a widening, or
/// a checked constant's narrowing between `char` and `byte`/`short`/`int`).
pub(crate) fn converts(from: PrimKind, to: PrimKind) -> bool {
    use PrimKind::*;
    matches!(
        (from, to),
        (Char, Byte | Short | Int | Long | Float | Double)
            | (Byte | Short | Int, Char | Long | Float | Double)
            | (Long, Float | Double)
            | (Float, Double)
    )
}

/// `v` converted to the primitive `p` as a cast converts it (JLS §5.1.2,
/// §5.1.3), or `None` when `v` is no number or `p` is `boolean`. An
/// integral value narrows to an integral type by its two's-complement
/// bits. A floating value rounds toward zero to `long` or `int`,
/// saturating (NaN gives 0), and reaches `byte`, `short` or `char`
/// through `int`.
pub(crate) fn convert(v: &Value, p: PrimKind) -> Option<Value> {
    use PrimKind::*;
    let bits = match *v {
        Value::Int(i) => i64::from(i),
        Value::Long(l) => l,
        Value::Char(c) => i64::from(u32::from(c)),
        Value::Float(_) | Value::Double(_) => {
            let d = match *v {
                Value::Float(f) => f64::from(f),
                Value::Double(d) => d,
                _ => unreachable!("a floating value"),
            };
            match p {
                Float => return Some(Value::Float(d as f32)),
                Double => return Some(Value::Double(d)),
                Long => d as i64,
                Boolean => return None,
                Byte | Short | Char | Int => i64::from(d as i32),
            }
        }
        _ => return None,
    };
    Some(match p {
        Byte => Value::Int(i32::from(bits as i8)),
        Short => Value::Int(i32::from(bits as i16)),
        Int => Value::Int(bits as i32),
        Long => Value::Long(bits),
        Float => Value::Float(bits as f32),
        Double => Value::Double(bits as f64),
        Char => Value::Char(char::from_u32(u32::from(bits as u16)).unwrap_or('\0')),
        Boolean => return None,
    })
}

/// `v` in the run-time representation of a variable declared `to`:
/// converted when `to` is primitive and the representations differ, and
/// an `int` truncated to a `byte` or `short`. Values that are no number
/// pass unchanged.
pub(crate) fn to_declared(v: Value, to: Option<PrimKind>) -> Value {
    use PrimKind::*;
    let Some(to) = to else { return v };
    match (&v, to) {
        (Value::Int(i), Byte) => Value::Int(*i as i8 as i32),
        (Value::Int(i), Short) => Value::Int(*i as i16 as i32),
        (Value::Int(_), Int)
        | (Value::Char(_), Char)
        | (Value::Long(_), Long)
        | (Value::Float(_), Float)
        | (Value::Double(_), Double) => v,
        _ => convert(&v, to).unwrap_or(v),
    }
}

/// The primitive a type name denotes, if it denotes one.
pub(crate) fn prim_of(tn: &TypeName) -> Option<PrimKind> {
    match tn.kind {
        TypeNameKind::Prim(p) => Some(p),
        _ => None,
    }
}

/// The primitive a declared type is, if it is one.
pub(crate) fn prim_of_type(t: &Type) -> Option<PrimKind> {
    match t {
        Type::Prim(p) => Some(*p),
        _ => None,
    }
}

/// The type a parameter of declared type `t` converts its argument to on
/// entry: `long`, `float` and `double`.
pub(crate) fn entry_prim(t: Option<PrimKind>) -> Option<PrimKind> {
    t.filter(|p| matches!(p, PrimKind::Long | PrimKind::Float | PrimKind::Double))
}

fn numeric(p: PrimKind) -> Option<PrimKind> {
    (p != PrimKind::Boolean).then_some(p)
}

/// Unary numeric promotion.
fn promote(p: PrimKind) -> PrimKind {
    match p {
        PrimKind::Byte | PrimKind::Short | PrimKind::Char => PrimKind::Int,
        other => other,
    }
}

/// Binary numeric promotion.
fn binary_promote(a: PrimKind, b: PrimKind) -> PrimKind {
    use PrimKind::*;
    if a == Double || b == Double {
        Double
    } else if a == Float || b == Float {
        Float
    } else if a == Long || b == Long {
        Long
    } else {
        Int
    }
}
