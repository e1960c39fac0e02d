//! Keys for the force cache's class and clean-check layers.
//!
//! A member's check is a function of its forced body, the scope it is
//! checked in (class, static flag, return and parameter types), the
//! resolve contexts names are looked up in, and the class table it reads
//! signatures from. [`Signatures`] condenses the last of these into one
//! digest per request; [`Signatures::member_key`] folds the digest
//! together with everything member-specific. The digest is deliberately
//! coarse: any signature change anywhere gives every member a new key, so
//! only body edits leave other members' keys alone.
//!
//! A class's installed signatures are a function of its member list, its
//! name, its resolve context and the names the table declares.
//! [`DeclTable`] digests the last once per request, after every class is
//! declared; [`DeclTable::class_key`] keys the rest.
//!
//! Classes are hashed by interned name, never by `ClassId`: ids are per
//! compiler and shift when an edit adds or removes a class. The check
//! memo lives in one process, where interned names are stable.
//!
//! The four table structs and `ResolveCtx` are destructured without `..`,
//! as `Session::outcome_key` does, so a new field does not compile until
//! it is keyed here or exempted with a reason.

use crate::driver::LazyEnvPayload;
use maya_ast::{LazyCell, LazyNode, Modifiers, NodeKind};
use maya_lexer::{Fnv2, Symbol};
use maya_types::{
    ClassId, ClassInfo, ClassTable, CtorInfo, FieldInfo, MethodInfo, ResolveCtx, Type,
};
use std::rc::Rc;

/// The declared-class table once every class is declared: each class's
/// interned name and kind, in id order. Installed signatures hold
/// `ClassId`s, so the class layer replays them only under the table they
/// were resolved under.
pub(crate) struct DeclTable {
    pub(crate) digest: u128,
    names: Vec<Symbol>,
}

impl DeclTable {
    /// Digests the classes `classes` declares.
    pub(crate) fn of(classes: &ClassTable) -> DeclTable {
        let mut h = Fnv2::new();
        let names: Vec<Symbol> = (0..classes.len())
            .map(|i| {
                let info = classes.info(ClassId(i as u32));
                let info = info.borrow();
                h.u32(info.fqcn.index());
                h.byte(u8::from(info.is_interface));
                info.fqcn
            })
            .collect();
        h.u32(names.len() as u32);
        DeclTable {
            digest: h.finish(),
            names,
        }
    }

    /// True while `classes` declares no class beyond the digested ones.
    pub(crate) fn current(&self, classes: &ClassTable) -> bool {
        classes.len() == self.names.len()
    }

    /// The class layer's key: the class body's token fingerprint, the
    /// class's interned name, the environment the body is parsed under and
    /// the resolve context of its unit.
    pub(crate) fn class_key(
        &self,
        body: u128,
        name: Symbol,
        env: (u128, u64),
        unit_ctx: &ResolveCtx,
    ) -> u128 {
        let mut k = KeyHasher {
            h: Fnv2::new(),
            names: &self.names,
        };
        k.h.bytes(&body.to_le_bytes());
        k.sym(name);
        k.h.bytes(&env.0.to_le_bytes());
        k.h.bytes(&env.1.to_le_bytes());
        k.ctx(unit_ctx);
        k.h.finish()
    }
}

/// The force key of an unforced lazy body and the payload it captured,
/// when that payload is the `pristine` environment's. Read before
/// forcing: the fingerprint comes from the cell's token tree.
pub(crate) fn unforced_source(
    body: &LazyNode,
    pristine: (u128, u64),
) -> Option<(u128, Rc<LazyEnvPayload>)> {
    let cell = body.cell.borrow();
    let LazyCell::Unforced { tree, env } = &*cell else {
        return None;
    };
    let payload = env.clone()?.downcast::<LazyEnvPayload>().ok()?;
    if (
        payload.pair.grammar.content_hash(),
        payload.pair.denv.version(),
    ) != pristine
    {
        return None;
    }
    Some((tree.fingerprint(), payload))
}

/// One request's class-signature digest, taken after the class hooks.
pub(crate) struct Signatures {
    pub(crate) digest: u128,
    /// The table version the digest was taken at; a member is looked up
    /// only while the table still has it.
    pub(crate) version: u64,
    /// Interned class names by `ClassId` index.
    names: Vec<Symbol>,
}

impl Signatures {
    /// Digests every class signature in `classes`.
    pub(crate) fn of(classes: &ClassTable) -> Signatures {
        let infos: Vec<_> = (0..classes.len())
            .map(|i| classes.info(ClassId(i as u32)))
            .collect();
        let names: Vec<Symbol> = infos.iter().map(|c| c.borrow().fqcn).collect();
        let mut k = KeyHasher {
            h: Fnv2::new(),
            names: &names,
        };
        k.h.u32(infos.len() as u32);
        for info in &infos {
            let ClassInfo {
                fqcn,
                // Both derive from `fqcn`.
                simple: _,
                package: _,
                is_interface,
                superclass,
                interfaces,
                fields,
                methods,
                ctors,
                modifiers,
            } = &*info.borrow();
            k.sym(*fqcn);
            k.h.byte(u8::from(*is_interface));
            k.opt_class(*superclass);
            k.h.u32(interfaces.len() as u32);
            for i in interfaces {
                k.class(*i);
            }
            k.modifiers(*modifiers);
            k.h.u32(fields.len() as u32);
            for f in fields {
                let FieldInfo {
                    name,
                    ty,
                    modifiers,
                    // No member's check reads another member's initializer.
                    init: _,
                } = f;
                k.sym(*name);
                k.ty(ty);
                k.modifiers(*modifiers);
            }
            k.h.u32(methods.len() as u32);
            for m in methods {
                let MethodInfo {
                    name,
                    params,
                    param_names,
                    ret,
                    modifiers,
                    body,
                    native,
                    specializers,
                } = m;
                k.sym(*name);
                k.params(param_names, params);
                k.ty(ret);
                k.modifiers(*modifiers);
                k.h.u32(specializers.len() as u32);
                for s in specializers {
                    match s {
                        Some(t) => {
                            k.h.byte(1);
                            k.ty(t);
                        }
                        None => k.h.byte(0),
                    }
                }
                k.opt_sym(*native);
                k.h.byte(u8::from(body.is_some()));
            }
            k.h.u32(ctors.len() as u32);
            for c in ctors {
                let CtorInfo {
                    params,
                    param_names,
                    modifiers,
                    body,
                    native,
                } = c;
                k.params(param_names, params);
                k.modifiers(*modifiers);
                k.opt_sym(*native);
                k.h.byte(u8::from(body.is_some()));
            }
        }
        let digest = k.h.finish();
        Signatures {
            digest,
            version: classes.version(),
            names,
        }
    }

    /// The clean-check key of one member body: its force key
    /// (`goal`, `fingerprint`), the resolve context and class its payload
    /// captured, and the scope it is checked in.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn member_key(
        &self,
        class: ClassId,
        class_ctx: &ResolveCtx,
        (goal, fingerprint): (NodeKind, u128),
        (payload_ctx, payload_class): (&ResolveCtx, Option<ClassId>),
        is_static: bool,
        ret: &Type,
        param_names: &[Symbol],
        params: &[Type],
    ) -> u128 {
        let mut k = KeyHasher {
            h: Fnv2::new(),
            names: &self.names,
        };
        k.h.bytes(&self.digest.to_le_bytes());
        k.class(class);
        k.ctx(class_ctx);
        k.ctx(payload_ctx);
        k.opt_class(payload_class);
        k.h.byte(u8::from(is_static));
        k.ty(ret);
        k.params(param_names, params);
        k.h.str(goal.name());
        k.h.bytes(&fingerprint.to_le_bytes());
        k.h.finish()
    }
}

struct KeyHasher<'a> {
    h: Fnv2,
    names: &'a [Symbol],
}

impl KeyHasher<'_> {
    fn sym(&mut self, s: Symbol) {
        self.h.u32(s.index());
    }

    fn opt_sym(&mut self, s: Option<Symbol>) {
        match s {
            Some(s) => {
                self.h.byte(1);
                self.sym(s);
            }
            None => self.h.byte(0),
        }
    }

    fn class(&mut self, c: ClassId) {
        match self.names.get(c.0 as usize) {
            Some(name) => self.h.u32(name.index()),
            None => self.h.u32(u32::MAX),
        }
    }

    fn opt_class(&mut self, c: Option<ClassId>) {
        match c {
            Some(c) => {
                self.h.byte(1);
                self.class(c);
            }
            None => self.h.byte(0),
        }
    }

    fn modifiers(&mut self, m: Modifiers) {
        let bits = m.iter().fold(0u32, |bits, x| bits | 1 << x as u32);
        self.h.u32(bits);
    }

    fn ty(&mut self, t: &Type) {
        match t {
            Type::Prim(p) => {
                self.h.byte(0);
                self.h.byte(*p as u8);
            }
            Type::Void => self.h.byte(1),
            Type::Null => self.h.byte(2),
            Type::Class(c) => {
                self.h.byte(3);
                self.class(*c);
            }
            Type::Array(e) => {
                self.h.byte(4);
                self.ty(e);
            }
            Type::Error => self.h.byte(5),
        }
    }

    fn params(&mut self, names: &[Symbol], types: &[Type]) {
        self.h.u32(names.len() as u32);
        for n in names {
            self.sym(*n);
        }
        self.h.u32(types.len() as u32);
        for t in types {
            self.ty(t);
        }
    }

    fn ctx(&mut self, ctx: &ResolveCtx) {
        let ResolveCtx {
            package,
            single_imports,
            wildcard_imports,
            local_classes,
        } = ctx;
        self.opt_sym(*package);
        for list in [single_imports, wildcard_imports] {
            self.h.u32(list.len() as u32);
            for s in list {
                self.sym(*s);
            }
        }
        self.h.u32(local_classes.len() as u32);
        for (simple, id) in local_classes {
            self.sym(*simple);
            self.class(*id);
        }
    }
}
