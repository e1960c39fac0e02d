//! The class table: every class and interface known to a compilation, with
//! subtyping, member lookup, name resolution, and the intercession API.

use crate::{Type, TypeError};
use maya_ast::{Expr, LazyNode, Modifiers, PrimKind, TypeName, TypeNameKind};
use maya_lexer::{sym, Span, Symbol};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Identifies a class or interface in a [`ClassTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// A field member.
#[derive(Clone, Debug)]
pub struct FieldInfo {
    pub name: Symbol,
    pub ty: Type,
    pub modifiers: Modifiers,
    pub init: Option<Expr>,
}

/// A method member. `body` is lazy (forced when compiled/interpreted);
/// `native` names a runtime-library implementation. `specializers` carries
/// MultiJava `@`-specializers, `None` per unspecialized position.
#[derive(Clone, Debug)]
pub struct MethodInfo {
    pub name: Symbol,
    pub params: Vec<Type>,
    pub param_names: Vec<Symbol>,
    pub ret: Type,
    pub modifiers: Modifiers,
    pub body: Option<LazyNode>,
    pub native: Option<Symbol>,
    pub specializers: Vec<Option<Type>>,
}

impl MethodInfo {
    /// A convenience constructor for runtime-library (native) methods.
    pub fn native(name: &str, params: Vec<Type>, ret: Type, key: &str) -> MethodInfo {
        MethodInfo {
            name: sym(name),
            param_names: (0..params.len())
                .map(|i| sym(&format!("a{i}")))
                .collect(),
            params,
            ret,
            modifiers: Modifiers::just(maya_ast::Modifier::Public),
            body: None,
            native: Some(sym(key)),
            specializers: Vec::new(),
        }
    }

    /// True when this method is `static`.
    pub fn is_static(&self) -> bool {
        self.modifiers.is_static()
    }
}

/// A constructor member.
#[derive(Clone, Debug)]
pub struct CtorInfo {
    pub params: Vec<Type>,
    pub param_names: Vec<Symbol>,
    pub modifiers: Modifiers,
    pub body: Option<LazyNode>,
    pub native: Option<Symbol>,
}

/// One class or interface.
#[derive(Clone, Debug)]
pub struct ClassInfo {
    pub fqcn: Symbol,
    pub simple: Symbol,
    pub package: Symbol,
    pub is_interface: bool,
    pub superclass: Option<ClassId>,
    pub interfaces: Vec<ClassId>,
    pub fields: Vec<FieldInfo>,
    pub methods: Vec<MethodInfo>,
    pub ctors: Vec<CtorInfo>,
    pub modifiers: Modifiers,
}

impl ClassInfo {
    /// A skeleton class with the given fully qualified name.
    pub fn new(fqcn: &str, is_interface: bool) -> ClassInfo {
        let (package, simple) = match fqcn.rfind('.') {
            Some(i) => (&fqcn[..i], &fqcn[i + 1..]),
            None => ("", fqcn),
        };
        ClassInfo {
            fqcn: sym(fqcn),
            simple: sym(simple),
            package: sym(package),
            is_interface,
            superclass: None,
            interfaces: Vec::new(),
            fields: Vec::new(),
            methods: Vec::new(),
            ctors: Vec::new(),
            modifiers: Modifiers::none(),
        }
    }
}

/// Lexical name-resolution context: the enclosing package, imports, and any
/// locally declared (possibly shadowing) class names.
#[derive(Clone, Debug, Default)]
pub struct ResolveCtx {
    pub package: Option<Symbol>,
    /// Fully qualified names from `import a.b.C;`.
    pub single_imports: Vec<Symbol>,
    /// Package names from `import a.b.*;`.
    pub wildcard_imports: Vec<Symbol>,
    /// Locally visible class names (shadow everything else).
    pub local_classes: Vec<(Symbol, ClassId)>,
}

/// The registry of classes, with per-class interior mutability so that
/// metaprograms can add members ("intercession", paper §3.2) while other
/// parts of the compiler hold the table.
#[derive(Default)]
pub struct ClassTable {
    classes: RefCell<Vec<Rc<RefCell<ClassInfo>>>>,
    by_fqcn: RefCell<HashMap<Symbol, ClassId>>,
    /// Bumped on every structural mutation (declare / add or remove
    /// members).  Runtime caches keyed on class shape — field layouts,
    /// vtable rows, inline caches — compare this to decide whether their
    /// entries are still valid.
    version: Cell<u64>,
}

impl ClassTable {
    /// An empty table.
    pub fn new() -> ClassTable {
        ClassTable::default()
    }

    /// A table pre-seeded with `java.lang.Object` and `java.lang.String`
    /// (the minimum the checker itself assumes).
    pub fn bootstrap() -> ClassTable {
        let t = ClassTable::new();
        t.declare(ClassInfo::new("java.lang.Object", false))
            .expect("fresh table");
        let mut string = ClassInfo::new("java.lang.String", false);
        string.superclass = t.by_fqcn_str("java.lang.Object");
        t.declare(string).expect("fresh table");
        t
    }

    /// Declares a class.
    ///
    /// # Errors
    ///
    /// Fails if a class with the same fully qualified name exists.
    pub fn declare(&self, info: ClassInfo) -> Result<ClassId, TypeError> {
        let mut by_fqcn = self.by_fqcn.borrow_mut();
        if by_fqcn.contains_key(&info.fqcn) {
            return Err(TypeError::new(
                format!("duplicate class {}", info.fqcn),
                Span::DUMMY,
            ));
        }
        let mut classes = self.classes.borrow_mut();
        let id = ClassId(classes.len() as u32);
        by_fqcn.insert(info.fqcn, id);
        classes.push(Rc::new(RefCell::new(info)));
        self.bump_version();
        Ok(id)
    }

    /// Current structural version of the table (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version.get()
    }

    /// Records a structural change so shape-dependent caches re-validate.
    pub fn bump_version(&self) {
        self.version.set(self.version.get() + 1);
    }

    /// Number of declared classes.
    pub fn len(&self) -> usize {
        self.classes.borrow().len()
    }

    /// True when no classes are declared.
    pub fn is_empty(&self) -> bool {
        self.classes.borrow().is_empty()
    }

    /// The shared cell for a class (introspection handle).
    pub fn info(&self, id: ClassId) -> Rc<RefCell<ClassInfo>> {
        self.classes.borrow()[id.0 as usize].clone()
    }

    /// Looks up a class by interned fully qualified name.
    pub fn by_fqcn(&self, fqcn: Symbol) -> Option<ClassId> {
        self.by_fqcn.borrow().get(&fqcn).copied()
    }

    /// Looks up a class by fully qualified name.
    pub fn by_fqcn_str(&self, fqcn: &str) -> Option<ClassId> {
        self.by_fqcn(sym(fqcn))
    }

    /// The fully qualified name of a class.
    pub fn fqcn(&self, id: ClassId) -> Symbol {
        self.info(id).borrow().fqcn
    }

    /// Renders a type for diagnostics, using class names.
    pub fn describe(&self, t: &Type) -> String {
        match t {
            Type::Class(id) => self.fqcn(*id).to_string(),
            Type::Array(e) => format!("{}[]", self.describe(e)),
            other => other.to_string(),
        }
    }

    /// Adds a method to a class (intercession).
    pub fn add_method(&self, id: ClassId, m: MethodInfo) {
        self.info(id).borrow_mut().methods.push(m);
        self.bump_version();
    }

    /// Removes methods matching a predicate (intercession).
    pub fn retain_methods(&self, id: ClassId, keep: impl FnMut(&MethodInfo) -> bool) {
        self.info(id).borrow_mut().methods.retain(keep);
        self.bump_version();
    }

    /// Adds a field to a class (intercession).
    pub fn add_field(&self, id: ClassId, f: FieldInfo) {
        self.info(id).borrow_mut().fields.push(f);
        self.bump_version();
    }

    /// Adds a constructor to a class.
    pub fn add_ctor(&self, id: ClassId, c: CtorInfo) {
        self.info(id).borrow_mut().ctors.push(c);
        self.bump_version();
    }

    /// True iff `a` equals `b` or `b` is reachable from `a` through
    /// superclasses and interfaces.
    pub fn is_subclass_or_eq(&self, a: ClassId, b: ClassId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = Vec::new();
        let mut work = vec![a];
        while let Some(c) = work.pop() {
            if c == b {
                return true;
            }
            if seen.contains(&c) {
                continue;
            }
            seen.push(c);
            let info = self.info(c);
            let info = info.borrow();
            if let Some(s) = info.superclass {
                work.push(s);
            }
            work.extend(info.interfaces.iter().copied());
        }
        false
    }

    /// Reference/primitive subtyping (`a <: b`).
    pub fn is_subtype(&self, a: &Type, b: &Type) -> bool {
        match (a, b) {
            (Type::Error, _) | (_, Type::Error) => true,
            (x, y) if x == y => true,
            (Type::Null, t) => t.is_reference(),
            (Type::Class(x), Type::Class(y)) => self.is_subclass_or_eq(*x, *y),
            (Type::Array(_), Type::Class(y)) => {
                // Arrays are subtypes of Object.
                Some(*y) == self.by_fqcn_str("java.lang.Object")
            }
            (Type::Array(x), Type::Array(y)) => {
                x.is_reference() && y.is_reference() && self.is_subtype(x, y)
            }
            _ => false,
        }
    }

    fn widens(from: PrimKind, to: PrimKind) -> bool {
        use PrimKind::*;
        if from == to {
            return true;
        }
        let order = |p: PrimKind| match p {
            Byte => 1,
            Short | Char => 2,
            Int => 3,
            Long => 4,
            Float => 5,
            Double => 6,
            Boolean => 0,
        };
        from != Boolean && to != Boolean && order(from) < order(to)
    }

    /// Assignability (`from` may be assigned to `to`): identity, primitive
    /// widening, or reference subtyping.
    pub fn is_assignable(&self, from: &Type, to: &Type) -> bool {
        match (from, to) {
            (Type::Prim(a), Type::Prim(b)) => Self::widens(*a, *b),
            _ => self.is_subtype(from, to),
        }
    }

    /// Finds a field by name, walking up the hierarchy.
    pub fn lookup_field(&self, id: ClassId, name: Symbol) -> Option<(ClassId, FieldInfo)> {
        let mut cur = Some(id);
        while let Some(c) = cur {
            let info = self.info(c);
            let info = info.borrow();
            if let Some(f) = info.fields.iter().find(|f| f.name == name) {
                return Some((c, f.clone()));
            }
            cur = info.superclass;
        }
        None
    }

    /// All instance fields of `id` in *layout order*: superclass fields
    /// first (recursively), then own fields in declaration order, with
    /// re-declared names collapsed onto the first (inherited) occurrence.
    /// Runtimes can use this to assign every field a fixed offset such
    /// that a subclass layout is a prefix-extension of its superclass's.
    pub fn fields_in_layout_order(&self, id: ClassId) -> Vec<(ClassId, FieldInfo)> {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            chain.push(c);
            cur = self.info(c).borrow().superclass;
        }
        let mut out: Vec<(ClassId, FieldInfo)> = Vec::new();
        for c in chain.into_iter().rev() {
            let info = self.info(c);
            let info = info.borrow();
            for f in info.fields.iter().filter(|f| !f.modifiers.is_static()) {
                if !out.iter().any(|(_, g)| g.name == f.name) {
                    out.push((c, f.clone()));
                }
            }
        }
        out
    }

    /// All methods with the given name visible on `id` (own + inherited,
    /// with overrides removed).
    pub fn methods_named(&self, id: ClassId, name: Symbol) -> Vec<(ClassId, MethodInfo)> {
        let mut out: Vec<(ClassId, MethodInfo)> = Vec::new();
        let mut seen_sigs: Vec<Vec<Type>> = Vec::new();
        let mut work = vec![id];
        let mut visited = Vec::new();
        while let Some(c) = work.pop() {
            if visited.contains(&c) {
                continue;
            }
            visited.push(c);
            let info = self.info(c);
            let info = info.borrow();
            for m in info.methods.iter().filter(|m| m.name == name) {
                if seen_sigs.iter().any(|s| s == &m.params) {
                    continue; // overridden above
                }
                seen_sigs.push(m.params.clone());
                out.push((c, m.clone()));
            }
            if let Some(s) = info.superclass {
                work.push(s);
            }
            work.extend(info.interfaces.iter().copied());
        }
        out
    }

    /// The constructors of a class.
    pub fn ctors(&self, id: ClassId) -> Vec<CtorInfo> {
        self.info(id).borrow().ctors.clone()
    }

    /// Resolves a simple class name under a lexical context. Order: local
    /// (shadowing) classes, the current package, single imports, wildcard
    /// imports, `java.lang`, the default package.
    pub fn resolve_simple(&self, name: Symbol, ctx: &ResolveCtx) -> Option<ClassId> {
        if let Some((_, id)) = ctx.local_classes.iter().rev().find(|(n, _)| *n == name) {
            return Some(*id);
        }
        if let Some(pkg) = ctx.package {
            if let Some(id) = self.by_fqcn_str(&format!("{pkg}.{name}")) {
                return Some(id);
            }
        }
        for imp in &ctx.single_imports {
            let s = imp.as_str();
            if s.rsplit('.').next() == Some(name.as_str()) {
                if let Some(id) = self.by_fqcn(*imp) {
                    return Some(id);
                }
            }
        }
        for pkg in &ctx.wildcard_imports {
            if let Some(id) = self.by_fqcn_str(&format!("{pkg}.{name}")) {
                return Some(id);
            }
        }
        if let Some(id) = self.by_fqcn_str(&format!("java.lang.{name}")) {
            return Some(id);
        }
        self.by_fqcn(name)
    }

    /// Resolves a syntactic type name to a semantic type.
    ///
    /// # Errors
    ///
    /// Fails when the name does not denote a known type.
    pub fn resolve_type_name(&self, tn: &TypeName, ctx: &ResolveCtx) -> Result<Type, TypeError> {
        match &tn.kind {
            TypeNameKind::Prim(p) => Ok(Type::Prim(*p)),
            TypeNameKind::Void => Ok(Type::Void),
            TypeNameKind::Array(e) => Ok(self.resolve_type_name(e, ctx)?.array_of()),
            TypeNameKind::Strict(fqcn) => self
                .by_fqcn(*fqcn)
                .map(Type::Class)
                .ok_or_else(|| TypeError::new(format!("unknown type {fqcn}"), tn.span)),
            TypeNameKind::Named(parts) => {
                if parts.len() == 1 {
                    self.resolve_simple(parts[0].sym, ctx)
                        .map(Type::Class)
                        .ok_or_else(|| {
                            TypeError::new(format!("unknown type {}", parts[0].sym), tn.span)
                        })
                } else {
                    let dotted: Vec<&str> = parts.iter().map(|p| p.sym.as_str()).collect();
                    let dotted = dotted.join(".");
                    // A locally shadowing class name makes the qualified
                    // form inaccessible (paper §4.3's `class java` example).
                    if let Some((shadow, _)) = ctx
                        .local_classes
                        .iter()
                        .find(|(n, _)| *n == parts[0].sym)
                    {
                        return Err(TypeError::new(
                            format!(
                                "name {dotted} is inaccessible: {shadow} is shadowed by a local class"
                            ),
                            tn.span,
                        ));
                    }
                    self.by_fqcn_str(&dotted).map(Type::Class).ok_or_else(|| {
                        TypeError::new(format!("unknown type {dotted}"), tn.span)
                    })
                }
            }
        }
    }
}

impl fmt::Debug for ClassTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassTable")
            .field("classes", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_hierarchy() -> (ClassTable, ClassId, ClassId, ClassId) {
        let t = ClassTable::bootstrap();
        let obj = t.by_fqcn_str("java.lang.Object").unwrap();
        let mut c = ClassInfo::new("p.C", false);
        c.superclass = Some(obj);
        let c = t.declare(c).unwrap();
        let mut d = ClassInfo::new("p.D", false);
        d.superclass = Some(c);
        let d = t.declare(d).unwrap();
        (t, obj, c, d)
    }

    #[test]
    fn subtyping() {
        let (t, obj, c, d) = table_with_hierarchy();
        assert!(t.is_subclass_or_eq(d, c));
        assert!(t.is_subclass_or_eq(d, obj));
        assert!(!t.is_subclass_or_eq(c, d));
        assert!(t.is_subtype(&Type::Class(d), &Type::Class(c)));
        assert!(t.is_subtype(&Type::Null, &Type::Class(c)));
        assert!(t.is_subtype(&Type::Class(c).array_of(), &Type::Class(obj)));
        assert!(t.is_subtype(
            &Type::Class(d).array_of(),
            &Type::Class(c).array_of()
        ));
    }

    #[test]
    fn primitive_widening() {
        let t = ClassTable::new();
        assert!(t.is_assignable(&Type::int(), &Type::Prim(PrimKind::Long)));
        assert!(t.is_assignable(&Type::int(), &Type::Prim(PrimKind::Double)));
        assert!(!t.is_assignable(&Type::Prim(PrimKind::Long), &Type::int()));
        assert!(!t.is_assignable(&Type::boolean(), &Type::int()));
        assert!(!t.is_assignable(
            &Type::int().array_of(),
            &Type::Prim(PrimKind::Long).array_of()
        ));
    }

    #[test]
    fn member_lookup_walks_supers() {
        let (t, _obj, c, d) = table_with_hierarchy();
        t.add_field(
            c,
            FieldInfo {
                name: sym("x"),
                ty: Type::int(),
                modifiers: Modifiers::none(),
                init: None,
            },
        );
        t.add_method(c, MethodInfo::native("m", vec![], Type::int(), "p.C.m"));
        let (owner, f) = t.lookup_field(d, sym("x")).unwrap();
        assert_eq!(owner, c);
        assert_eq!(f.ty, Type::int());
        let ms = t.methods_named(d, sym("m"));
        assert_eq!(ms.len(), 1);
        // Override in D hides C's method.
        t.add_method(d, MethodInfo::native("m", vec![], Type::int(), "p.D.m"));
        let ms = t.methods_named(d, sym("m"));
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].0, d);
    }

    #[test]
    fn name_resolution_order() {
        let (t, _obj, c, _d) = table_with_hierarchy();
        let mut ctx = ResolveCtx::default();
        assert_eq!(t.resolve_simple(sym("C"), &ctx), None);
        ctx.wildcard_imports.push(sym("p"));
        assert_eq!(t.resolve_simple(sym("C"), &ctx), Some(c));
        // A local class shadows the import.
        let shadow = t.declare(ClassInfo::new("q.C", false)).unwrap();
        ctx.local_classes.push((sym("C"), shadow));
        assert_eq!(t.resolve_simple(sym("C"), &ctx), Some(shadow));
        // java.lang fallback.
        assert!(t.resolve_simple(sym("String"), &ResolveCtx::default()).is_some());
    }

    #[test]
    fn qualified_name_shadowed_by_local_class() {
        // Paper §4.3: java.lang.System cannot be referenced when a local
        // class is named `java`.
        let t = ClassTable::bootstrap();
        t.declare(ClassInfo::new("java.lang.System", false)).unwrap();
        let local_java = t.declare(ClassInfo::new("p.java", false)).unwrap();
        let mut ctx = ResolveCtx::default();
        let tn = TypeName::named("java.lang.System");
        assert!(t.resolve_type_name(&tn, &ctx).is_ok());
        ctx.local_classes.push((sym("java"), local_java));
        assert!(t.resolve_type_name(&tn, &ctx).is_err());
        // A strict name bypasses the shadowing (referential transparency).
        let strict = TypeName::strict(sym("java.lang.System"));
        assert!(t.resolve_type_name(&strict, &ctx).is_ok());
    }

    #[test]
    fn duplicate_class_rejected() {
        let t = ClassTable::new();
        t.declare(ClassInfo::new("A", false)).unwrap();
        assert!(t.declare(ClassInfo::new("A", false)).is_err());
    }
}
