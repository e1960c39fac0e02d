//! Runtime values.

use crate::layout::FieldLayout;
use crate::NativeObject;
use maya_lexer::Symbol;
use maya_types::{ClassId, ClassTable, Type};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A thin, reference-counted runtime string.
///
/// `Rc<str>` is a fat pointer (16 bytes), which forced [`Value`] to 24
/// bytes; boxing the text behind a thin `Rc` brings `Value` down to 16, so
/// two frame slots share a cache line.  String *literals* are interned
/// through a per-thread table, which makes repeated literals pointer-equal
/// (a fast path for `==`/`equals`) and allocation-free; computed strings
/// (concatenation results) are never interned — hashing every intermediate
/// concat would cost more than it saves.  Equality is always by contents,
/// so interning is invisible to program semantics.
#[derive(Clone)]
pub struct RtStr(Rc<Box<str>>);

/// Interner bounds: pathological programs (fuzz campaigns) must not grow
/// the table without limit, and long strings are unlikely to repeat.
const INTERN_CAP: usize = 4096;
const INTERN_MAX_LEN: usize = 128;

thread_local! {
    static INTERNED: RefCell<HashMap<Box<str>, RtStr>> = RefCell::new(HashMap::new());
}

impl RtStr {
    /// A fresh (uninterned) runtime string.
    pub fn new(s: &str) -> RtStr {
        RtStr(Rc::new(Box::from(s)))
    }

    /// A fresh runtime string taking ownership of `s` (no copy).
    pub fn from_string(s: String) -> RtStr {
        RtStr(Rc::new(s.into_boxed_str()))
    }

    /// The interned string for `s`: repeated literals share one allocation
    /// and compare by pointer.  Over-long strings and overflow past the
    /// table cap fall back to fresh allocations (still correct — equality
    /// is by contents).
    pub fn intern(s: &str) -> RtStr {
        if s.len() > INTERN_MAX_LEN {
            return RtStr::new(s);
        }
        INTERNED.with(|m| {
            let mut m = m.borrow_mut();
            if let Some(r) = m.get(s) {
                return r.clone();
            }
            let r = RtStr::new(s);
            if m.len() < INTERN_CAP {
                m.insert(Box::from(s), r.clone());
            }
            r
        })
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Pointer identity (interned literals hit this fast path).
    pub fn ptr_eq(a: &RtStr, b: &RtStr) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }
}

impl std::ops::Deref for RtStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl PartialEq for RtStr {
    fn eq(&self, other: &RtStr) -> bool {
        RtStr::ptr_eq(self, other) || self.as_str() == other.as_str()
    }
}

impl Eq for RtStr {}

impl PartialEq<str> for RtStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl fmt::Display for RtStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for RtStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// An instance of a source-defined class.
///
/// Declared fields live in `slots` at the fixed offsets of the class's
/// [`FieldLayout`]; `extra` is a rarely used overflow for names assigned at
/// runtime that the layout does not know (e.g. intercession adding a field
/// after instances already exist).
pub struct Obj {
    pub class: ClassId,
    pub layout: Rc<FieldLayout>,
    slots: RefCell<Vec<Value>>,
    extra: RefCell<Vec<(Symbol, Value)>>,
}

impl Obj {
    /// A fresh instance: every declared slot starts as `null`.
    pub fn new(class: ClassId, layout: Rc<FieldLayout>) -> Obj {
        let slots = vec![Value::Null; layout.len()];
        Obj {
            class,
            layout,
            slots: RefCell::new(slots),
            extra: RefCell::new(Vec::new()),
        }
    }

    /// An instance with no declared fields (tests, synthetic objects).
    pub fn empty(class: ClassId) -> Obj {
        Obj::new(class, FieldLayout::empty(class))
    }

    /// Reads a field by name (declared slot first, then overflow).
    pub fn get(&self, name: Symbol) -> Option<Value> {
        if let Some(off) = self.layout.offset(name) {
            return Some(self.slots.borrow()[off as usize].clone());
        }
        self.extra
            .borrow()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
    }

    /// Writes a field by name (declared slot first, then overflow);
    /// returns the value stored.
    pub fn set(&self, name: Symbol, v: Value) -> Value {
        if let Some(off) = self.layout.offset(name) {
            return self.set_slot(off, v);
        }
        let mut extra = self.extra.borrow_mut();
        if let Some(slot) = extra.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = v.clone();
        } else {
            extra.push((name, v.clone()));
        }
        v
    }

    /// Reads a declared slot directly (offset from the layout).
    pub fn get_slot(&self, off: u32) -> Value {
        self.slots.borrow()[off as usize].clone()
    }

    /// Writes a declared slot directly, converted to the slot's declared
    /// primitive type (see [`crate::widen::to_declared`]); returns the
    /// value stored.
    pub fn set_slot(&self, off: u32, v: Value) -> Value {
        let v = crate::widen::to_declared(v, self.layout.prims[off as usize]);
        self.slots.borrow_mut()[off as usize] = v.clone();
        v
    }

    /// The `message` field through its pre-resolved offset (exceptions).
    pub fn message(&self) -> Option<Value> {
        self.layout.message.map(|off| self.get_slot(off))
    }
}

/// An array instance.
pub struct ArrayObj {
    pub elem: Type,
    pub data: RefCell<Vec<Value>>,
}

/// A MayaJava runtime value.
///
/// Kept to 16 bytes (tag + one word of payload): small ints/longs/doubles
/// are stored inline ("tagged"), and strings are thin [`RtStr`] handles —
/// so a slot frame of N locals spans N*16 bytes and stays cache-resident
/// in the bytecode VM's register file.
#[derive(Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Char(char),
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    Str(RtStr),
    Object(Rc<Obj>),
    Array(Rc<ArrayObj>),
    /// A runtime-library or bridge object (Vector, Enumeration, AST node…).
    /// The trait object is boxed behind a thin `Rc` (like [`RtStr`]) so the
    /// fat vtable pointer does not widen every `Value`.
    Native(Rc<Box<dyn NativeObject>>),
    /// A class used in a receiver position (`System.out`); internal, never
    /// a first-class value.
    ClassRef(ClassId),
}

impl Value {
    /// A string value (interned — use for literals and repeated names).
    pub fn str(s: &str) -> Value {
        Value::Str(RtStr::intern(s))
    }

    /// A computed string value (never interned — use for concat results
    /// and other run-time-built strings).
    pub fn owned_str(s: String) -> Value {
        Value::Str(RtStr::from_string(s))
    }

    /// A native-object value.
    pub fn native(n: impl NativeObject + 'static) -> Value {
        Value::Native(Rc::new(Box::new(n)))
    }

    /// The default value for a type (`0`, `false`, `null`).
    pub fn default_for(ty: &Type) -> Value {
        use maya_ast::PrimKind::*;
        match ty {
            Type::Prim(Boolean) => Value::Bool(false),
            Type::Prim(Char) => Value::Char('\0'),
            Type::Prim(Byte | Short | Int) => Value::Int(0),
            Type::Prim(Long) => Value::Long(0),
            Type::Prim(Float) => Value::Float(0.0),
            Type::Prim(Double) => Value::Double(0.0),
            _ => Value::Null,
        }
    }

    /// The dynamic class of a reference value, when it has one.
    pub fn class_of(&self, ct: &ClassTable) -> Option<ClassId> {
        match self {
            Value::Object(o) => Some(o.class),
            Value::Str(_) => ct.by_fqcn_str("java.lang.String"),
            Value::Native(n) => ct.by_fqcn_str(n.class_fqcn()),
            _ => None,
        }
    }

    /// The runtime [`Type`] of this value (used for runtime overload
    /// applicability and `instanceof`).
    pub fn runtime_type(&self, ct: &ClassTable) -> Type {
        use maya_ast::PrimKind::*;
        match self {
            Value::Null => Type::Null,
            Value::Bool(_) => Type::Prim(Boolean),
            Value::Char(_) => Type::Prim(Char),
            Value::Int(_) => Type::Prim(Int),
            Value::Long(_) => Type::Prim(Long),
            Value::Float(_) => Type::Prim(Float),
            Value::Double(_) => Type::Prim(Double),
            Value::Array(a) => a.elem.clone().array_of(),
            other => other
                .class_of(ct)
                .map(Type::Class)
                .unwrap_or(Type::Error),
        }
    }

    /// Java `==` semantics: primitive equality, reference identity
    /// (strings compare by contents — our literals are effectively
    /// interned).
    pub fn ref_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Char(a), Value::Char(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Long(a), Value::Long(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            (Value::Array(a), Value::Array(b)) => Rc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// True for the `null` value.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

// The whole point of RtStr and the boxed native payload: a Value is a tag
// plus one 8-byte word, so frames stay cache-resident.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Char(c) => write!(f, "{c:?}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}L"),
            Value::Float(v) => write!(f, "{v}f"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Object(o) => write!(f, "<object #{}>", o.class.0),
            Value::Array(a) => write!(f, "<array[{}]>", a.data.borrow().len()),
            Value::Native(n) => write!(f, "<{}>", n.class_fqcn()),
            Value::ClassRef(c) => write!(f, "<class #{}>", c.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert!(matches!(Value::default_for(&Type::int()), Value::Int(0)));
        assert!(matches!(Value::default_for(&Type::boolean()), Value::Bool(false)));
        assert!(Value::default_for(&Type::Null).is_null());
    }

    #[test]
    fn ref_eq_semantics() {
        assert!(Value::Int(3).ref_eq(&Value::Int(3)));
        assert!(!Value::Int(3).ref_eq(&Value::Long(3)));
        assert!(Value::str("a").ref_eq(&Value::str("a")));
        // Interned literal vs computed string: contents equality holds
        // even without pointer identity.
        assert!(Value::str("ab").ref_eq(&Value::owned_str("ab".to_string())));
        let o = Rc::new(Obj::empty(ClassId(0)));
        assert!(Value::Object(o.clone()).ref_eq(&Value::Object(o.clone())));
        let o2 = Rc::new(Obj::empty(ClassId(0)));
        assert!(!Value::Object(o).ref_eq(&Value::Object(o2)));
    }

    #[test]
    fn literal_interning() {
        let (Value::Str(a), Value::Str(b)) = (Value::str("lit"), Value::str("lit")) else {
            panic!("strings");
        };
        assert!(RtStr::ptr_eq(&a, &b));
        let Value::Str(c) = Value::owned_str("lit".to_string()) else {
            panic!("string");
        };
        assert!(!RtStr::ptr_eq(&a, &c));
        assert!(a == c);
    }

    #[test]
    fn runtime_types() {
        let ct = ClassTable::bootstrap();
        assert_eq!(Value::Int(1).runtime_type(&ct), Type::int());
        assert_eq!(
            ct.describe(&Value::str("x").runtime_type(&ct)),
            "java.lang.String"
        );
        assert_eq!(Value::Null.runtime_type(&ct), Type::Null);
    }
}
