//! Class field layouts and epoch-guarded runtime caches.
//!
//! The fast runtime stores object fields in a `Vec<Value>` at fixed offsets
//! instead of a per-instance `HashMap`.  A [`FieldLayout`] maps every
//! instance field name visible on a class to its offset (static fields live
//! in the interpreter's per-class table, never in objects); layouts are
//! *prefix layouts* (superclass fields first), so a subclass object can be
//! viewed through its superclass's offsets unchanged.
//!
//! Layouts — like vtable rows and constructor rows — describe the *shape* of
//! a class, and Maya classes mutate under intercession (metaprograms add
//! members mid-compile).  [`RuntimeCaches`] therefore validates every lookup
//! against [`ClassTable::version`]: when the table changed, the caches are
//! cleared and a globally fresh **epoch** is allocated.  Per-call-site inline
//! caches store the epoch they were filled under; a stale epoch can never be
//! re-observed (epochs come from a process-wide counter), which keeps the
//! scheme sound even when lowered bodies are shared across interpreters.

use maya_lexer::{sym, Symbol};
use maya_types::{ClassId, ClassTable, CtorInfo, MethodInfo};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed field offsets for one class (prefix layout over the super chain).
pub struct FieldLayout {
    pub class: ClassId,
    /// Slot `i` holds the field named `names[i]`.
    pub names: Vec<Symbol>,
    offsets: HashMap<Symbol, u32>,
    /// Offset of the `message` field, pre-resolved because the exception
    /// machinery reads it on every `getMessage`/`toString`.
    pub message: Option<u32>,
}

impl FieldLayout {
    /// Computes the layout of `class` from the table's declared instance
    /// fields.
    pub fn of(ct: &ClassTable, class: ClassId) -> FieldLayout {
        let ordered = ct.fields_in_layout_order(class);
        let mut names = Vec::with_capacity(ordered.len());
        let mut offsets = HashMap::with_capacity(ordered.len());
        for (i, (_, f)) in ordered.iter().enumerate() {
            names.push(f.name);
            offsets.insert(f.name, i as u32);
        }
        let message = offsets.get(&sym("message")).copied();
        FieldLayout {
            class,
            names,
            offsets,
            message,
        }
    }

    /// A layout with no declared fields (tests, synthetic objects).
    pub fn empty(class: ClassId) -> Rc<FieldLayout> {
        Rc::new(FieldLayout {
            class,
            names: Vec::new(),
            offsets: HashMap::new(),
            message: None,
        })
    }

    /// The fixed offset of `name`, if declared.
    pub fn offset(&self, name: Symbol) -> Option<u32> {
        self.offsets.get(&name).copied()
    }

    /// Number of declared slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the class declares no fields.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One method row: every method named `name` visible on a class, in the
/// table's resolution order, shared by vtable dispatch and the slow path.
pub type MethodRow = Rc<Vec<(ClassId, Rc<MethodInfo>)>>;

/// Epochs are process-global so that a lowered body shared between two
/// interpreters can never confuse one interpreter's cache generation with
/// the other's.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Shape-dependent caches for one interpreter, validated against the class
/// table's structural version.
pub struct RuntimeCaches {
    /// The [`ClassTable::version`] the caches were built against.
    table_version: Cell<u64>,
    /// The globally unique generation id handed to inline caches.
    epoch: Cell<u64>,
    layouts: RefCell<HashMap<ClassId, Rc<FieldLayout>>>,
    rows: RefCell<HashMap<(ClassId, Symbol), MethodRow>>,
    ctors: RefCell<HashMap<ClassId, Rc<Vec<CtorInfo>>>>,
}

impl RuntimeCaches {
    /// Fresh caches (first `sync` allocates the first epoch).
    pub fn new() -> RuntimeCaches {
        RuntimeCaches {
            table_version: Cell::new(u64::MAX),
            epoch: Cell::new(0),
            layouts: RefCell::new(HashMap::new()),
            rows: RefCell::new(HashMap::new()),
            ctors: RefCell::new(HashMap::new()),
        }
    }

    /// Validates against the table and returns the current epoch.  On a
    /// version mismatch every cache is dropped and a fresh global epoch is
    /// allocated, invalidating all inline caches filled earlier.
    pub fn sync(&self, ct: &ClassTable) -> u64 {
        let v = ct.version();
        if self.table_version.get() != v {
            self.table_version.set(v);
            self.epoch
                .set(NEXT_EPOCH.fetch_add(1, Ordering::Relaxed));
            self.layouts.borrow_mut().clear();
            self.rows.borrow_mut().clear();
            self.ctors.borrow_mut().clear();
        }
        self.epoch.get()
    }

    /// The (memoized) field layout of `class`.  Callers must have `sync`ed
    /// this generation.
    pub fn layout(&self, ct: &ClassTable, class: ClassId) -> Rc<FieldLayout> {
        if let Some(l) = self.layouts.borrow().get(&class) {
            return l.clone();
        }
        let l = Rc::new(FieldLayout::of(ct, class));
        self.layouts.borrow_mut().insert(class, l.clone());
        l
    }

    /// The (memoized) method row for `class::name`.
    pub fn row(&self, ct: &ClassTable, class: ClassId, name: Symbol) -> MethodRow {
        if let Some(r) = self.rows.borrow().get(&(class, name)) {
            return r.clone();
        }
        let r: MethodRow = Rc::new(
            ct.methods_named(class, name)
                .into_iter()
                .map(|(c, m)| (c, Rc::new(m)))
                .collect(),
        );
        self.rows.borrow_mut().insert((class, name), r.clone());
        r
    }

    /// The (memoized) constructor row for `class`.
    pub fn ctor_row(&self, ct: &ClassTable, class: ClassId) -> Rc<Vec<CtorInfo>> {
        if let Some(r) = self.ctors.borrow().get(&class) {
            return r.clone();
        }
        let r = Rc::new(ct.ctors(class));
        self.ctors.borrow_mut().insert(class, r.clone());
        r
    }
}

impl Default for RuntimeCaches {
    fn default() -> Self {
        RuntimeCaches::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_types::{ClassInfo, FieldInfo, Type};

    fn field(name: &str) -> FieldInfo {
        FieldInfo {
            name: sym(name),
            ty: Type::int(),
            modifiers: maya_ast::Modifiers::none(),
            init: None,
        }
    }

    fn static_field(name: &str) -> FieldInfo {
        FieldInfo {
            modifiers: maya_ast::Modifiers::just(maya_ast::Modifier::Static),
            ..field(name)
        }
    }

    #[test]
    fn prefix_layout_and_shadowing() {
        let ct = ClassTable::bootstrap();
        let sup = ct.declare(ClassInfo::new("A", false)).unwrap();
        ct.add_field(sup, field("x"));
        ct.add_field(sup, static_field("count")); // no slot: statics live in the class
        ct.add_field(sup, field("y"));
        let mut sub_info = ClassInfo::new("B", false);
        sub_info.superclass = Some(sup);
        let sub = ct.declare(sub_info).unwrap();
        ct.add_field(sub, field("y")); // shadows — shares the slot
        ct.add_field(sub, field("z"));

        let la = FieldLayout::of(&ct, sup);
        let lb = FieldLayout::of(&ct, sub);
        assert_eq!(la.offset(sym("x")), Some(0));
        assert_eq!(la.offset(sym("y")), Some(1));
        assert_eq!(la.offset(sym("count")), None);
        assert_eq!(lb.offset(sym("x")), Some(0));
        assert_eq!(lb.offset(sym("y")), Some(1));
        assert_eq!(lb.offset(sym("z")), Some(2));
        assert_eq!(lb.len(), 3);
    }

    #[test]
    fn sync_invalidates_on_table_mutation() {
        let ct = ClassTable::bootstrap();
        let caches = RuntimeCaches::new();
        let e1 = caches.sync(&ct);
        assert_eq!(caches.sync(&ct), e1);
        let c = ct.declare(ClassInfo::new("C", false)).unwrap();
        let e2 = caches.sync(&ct);
        assert_ne!(e1, e2);
        ct.add_field(c, field("message"));
        let e3 = caches.sync(&ct);
        assert_ne!(e2, e3);
        assert_eq!(caches.layout(&ct, c).message, Some(0));
    }
}
