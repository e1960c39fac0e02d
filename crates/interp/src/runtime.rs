//! The runtime library: the slice of `java.*` (plus `maya.util.Vector`)
//! that the paper's examples and evaluation touch (§3, §5).

use crate::{native_as, Control, Eval, Interp, NativeFn, NativeObject, Value};
use maya_ast::{Modifier, Modifiers};
use maya_lexer::{sym, Span, Symbol};
use maya_types::{ClassInfo, ClassTable, CtorInfo, FieldInfo, MethodInfo, Type};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

// ---- native payloads --------------------------------------------------------

/// `java.util.Vector` / `maya.util.Vector` backing store.
pub struct VecObj {
    fqcn: &'static str,
    pub data: RefCell<Vec<Value>>,
}

impl NativeObject for VecObj {
    fn class_fqcn(&self) -> &str {
        self.fqcn
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A snapshot `java.util.Enumeration`.
pub struct EnumObj {
    items: RefCell<(Vec<Value>, usize)>,
}

impl EnumObj {
    /// Builds an enumeration over a snapshot.
    pub fn over(items: Vec<Value>) -> Value {
        Value::native(EnumObj {
            items: RefCell::new((items, 0)),
        })
    }
}

impl NativeObject for EnumObj {
    fn class_fqcn(&self) -> &str {
        "maya.runtime.VectorEnumeration"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `java.util.Hashtable` backing store (association list).
pub struct HashObj {
    data: RefCell<Vec<(Value, Value)>>,
}

impl NativeObject for HashObj {
    fn class_fqcn(&self) -> &str {
        "java.util.Hashtable"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `java.lang.StringBuffer`.
pub struct SbObj {
    s: RefCell<String>,
}

impl NativeObject for SbObj {
    fn class_fqcn(&self) -> &str {
        "java.lang.StringBuffer"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `java.io.PrintStream` (both `System.out` and `System.err` write to the
/// interpreter's captured output).
pub struct PrintObj;

impl NativeObject for PrintObj {
    fn class_fqcn(&self) -> &str {
        "java.io.PrintStream"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn key_eq(a: &Value, b: &Value) -> bool {
    a.ref_eq(b)
}

// ---- class table installation -------------------------------------------------

fn obj_ty(ct: &ClassTable) -> Type {
    Type::Class(ct.by_fqcn_str("java.lang.Object").expect("Object"))
}

fn declare_class(
    ct: &ClassTable,
    fqcn: &str,
    superclass: Option<&str>,
    is_interface: bool,
) -> maya_types::ClassId {
    let mut info = ClassInfo::new(fqcn, is_interface);
    info.superclass = superclass.and_then(|s| ct.by_fqcn_str(s));
    info.modifiers = Modifiers::just(Modifier::Public);
    ct.declare(info).expect("runtime class declared twice")
}

/// Installs the runtime-library classes into a class table (idempotent).
/// Must run before creating an [`Interp`] over the table.
pub fn install_runtime(ct: &ClassTable) {
    if ct.by_fqcn_str("java.io.PrintStream").is_some() {
        return; // already installed
    }
    if ct.by_fqcn_str("java.lang.Object").is_none() {
        ct.declare(ClassInfo::new("java.lang.Object", false))
            .expect("empty table");
        let mut s = ClassInfo::new("java.lang.String", false);
        s.superclass = ct.by_fqcn_str("java.lang.Object");
        ct.declare(s).expect("empty table");
    }
    let object = ct.by_fqcn_str("java.lang.Object").unwrap();
    let string = ct.by_fqcn_str("java.lang.String").unwrap();
    let ot = Type::Class(object);
    let st = Type::Class(string);

    ct.add_method(object, MethodInfo::native("toString", vec![], st.clone(), "obj.toString"));
    ct.add_method(
        object,
        MethodInfo::native("equals", vec![ot.clone()], Type::boolean(), "obj.equals"),
    );

    ct.add_method(string, MethodInfo::native("length", vec![], Type::int(), "str.length"));
    ct.add_method(
        string,
        MethodInfo::native("charAt", vec![Type::int()], Type::Prim(maya_ast::PrimKind::Char), "str.charAt"),
    );
    ct.add_method(
        string,
        MethodInfo::native("equals", vec![ot.clone()], Type::boolean(), "str.equals"),
    );
    ct.add_method(
        string,
        MethodInfo::native("concat", vec![st.clone()], st.clone(), "str.concat"),
    );
    ct.add_method(string, MethodInfo::native("toString", vec![], st.clone(), "str.toString"));
    ct.add_method(
        string,
        MethodInfo::native("substring", vec![Type::int(), Type::int()], st.clone(), "str.substring"),
    );
    ct.add_method(
        string,
        MethodInfo::native("indexOf", vec![st.clone()], Type::int(), "str.indexOf"),
    );

    // PrintStream + System.
    let ps = declare_class(ct, "java.io.PrintStream", Some("java.lang.Object"), false);
    let pst = Type::Class(ps);
    for (name, key) in [("println", "ps.println"), ("print", "ps.print")] {
        for param in [
            Some(ot.clone()),
            Some(st.clone()),
            Some(Type::int()),
            Some(Type::Prim(maya_ast::PrimKind::Long)),
            Some(Type::Prim(maya_ast::PrimKind::Double)),
            Some(Type::boolean()),
            Some(Type::Prim(maya_ast::PrimKind::Char)),
            None,
        ] {
            let params = param.map(|p| vec![p]).unwrap_or_default();
            ct.add_method(ps, MethodInfo::native(name, params, Type::Void, key));
        }
    }
    let system = declare_class(ct, "java.lang.System", Some("java.lang.Object"), false);
    let static_field = |name: &str, ty: Type| {
        ct.add_field(
            system,
            FieldInfo {
                name: sym(name),
                ty,
                modifiers: Modifiers::just(Modifier::Public).with(Modifier::Static),
                init: None,
            },
        );
    };
    static_field("out", pst.clone());
    static_field("err", pst);

    // StringBuffer.
    let sb = declare_class(ct, "java.lang.StringBuffer", Some("java.lang.Object"), false);
    ct.add_ctor(
        sb,
        CtorInfo {
            params: vec![],
            param_names: vec![],
            modifiers: Modifiers::just(Modifier::Public),
            body: None,
            native: Some(sym("sb.new")),
        },
    );
    let sbt = Type::Class(sb);
    for param in [
        ot.clone(),
        st.clone(),
        Type::int(),
        Type::Prim(maya_ast::PrimKind::Long),
        Type::Prim(maya_ast::PrimKind::Double),
        Type::boolean(),
        Type::Prim(maya_ast::PrimKind::Char),
    ] {
        ct.add_method(
            sb,
            MethodInfo::native("append", vec![param], sbt.clone(), "sb.append"),
        );
    }
    ct.add_method(sb, MethodInfo::native("toString", vec![], st.clone(), "sb.toString"));

    // Exceptions.
    let throwable = declare_class(ct, "java.lang.Throwable", Some("java.lang.Object"), false);
    ct.add_field(
        throwable,
        FieldInfo {
            name: sym("message"),
            ty: st.clone(),
            modifiers: Modifiers::just(Modifier::Public),
            init: None,
        },
    );
    ct.add_method(
        throwable,
        MethodInfo::native("getMessage", vec![], st.clone(), "thr.getMessage"),
    );
    declare_class(ct, "java.lang.Exception", Some("java.lang.Throwable"), false);
    declare_class(ct, "java.lang.RuntimeException", Some("java.lang.Exception"), false);
    for exc in [
        "java.lang.NullPointerException",
        "java.lang.ClassCastException",
        "java.lang.ArithmeticException",
        "java.lang.ArrayIndexOutOfBoundsException",
        "java.lang.NegativeArraySizeException",
        "java.util.NoSuchElementException",
    ] {
        declare_class(ct, exc, Some("java.lang.RuntimeException"), false);
    }
    // Exceptions get a default and a message constructor.
    for exc in [
        "java.lang.Throwable",
        "java.lang.Exception",
        "java.lang.RuntimeException",
        "java.lang.NullPointerException",
        "java.lang.ClassCastException",
        "java.lang.ArithmeticException",
        "java.lang.ArrayIndexOutOfBoundsException",
        "java.lang.NegativeArraySizeException",
        "java.util.NoSuchElementException",
    ] {
        let id = ct.by_fqcn_str(exc).unwrap();
        ct.add_ctor(
            id,
            CtorInfo {
                params: vec![],
                param_names: vec![],
                modifiers: Modifiers::just(Modifier::Public),
                body: None,
                native: Some(sym(&format!("exc.new0.{exc}"))),
            },
        );
        ct.add_ctor(
            id,
            CtorInfo {
                params: vec![st.clone()],
                param_names: vec![sym("message")],
                modifiers: Modifiers::just(Modifier::Public),
                body: None,
                native: Some(sym(&format!("exc.new1.{exc}"))),
            },
        );
    }

    // Integer and Math statics.
    let integer = declare_class(ct, "java.lang.Integer", Some("java.lang.Object"), false);
    let mut s = MethodInfo::native("toString", vec![Type::int()], st.clone(), "int.toString");
    s.modifiers.add(Modifier::Static);
    ct.add_method(integer, s);
    let mut s = MethodInfo::native("parseInt", vec![st.clone()], Type::int(), "int.parseInt");
    s.modifiers.add(Modifier::Static);
    ct.add_method(integer, s);
    let math = declare_class(ct, "java.lang.Math", Some("java.lang.Object"), false);
    for (name, key) in [("max", "math.max"), ("min", "math.min")] {
        let mut m = MethodInfo::native(name, vec![Type::int(), Type::int()], Type::int(), key);
        m.modifiers.add(Modifier::Static);
        ct.add_method(math, m);
    }
    let mut m = MethodInfo::native("abs", vec![Type::int()], Type::int(), "math.abs");
    m.modifiers.add(Modifier::Static);
    ct.add_method(math, m);

    // Enumeration interface.
    let enumeration = declare_class(ct, "java.util.Enumeration", Some("java.lang.Object"), true);
    ct.add_method(
        enumeration,
        MethodInfo::native("hasMoreElements", vec![], Type::boolean(), "enum.has"),
    );
    ct.add_method(
        enumeration,
        MethodInfo::native("nextElement", vec![], ot.clone(), "enum.next"),
    );
    let vec_enum = declare_class(
        ct,
        "maya.runtime.VectorEnumeration",
        Some("java.lang.Object"),
        false,
    );
    {
        let info = ct.info(vec_enum);
        info.borrow_mut().interfaces.push(enumeration);
    }
    ct.add_method(
        vec_enum,
        MethodInfo::native("hasMoreElements", vec![], Type::boolean(), "enum.has"),
    );
    ct.add_method(
        vec_enum,
        MethodInfo::native("nextElement", vec![], ot.clone(), "enum.next"),
    );

    // Vectors.
    let vector = declare_class(ct, "java.util.Vector", Some("java.lang.Object"), false);
    ct.add_ctor(
        vector,
        CtorInfo {
            params: vec![],
            param_names: vec![],
            modifiers: Modifiers::just(Modifier::Public),
            body: None,
            native: Some(sym("vec.new.java.util.Vector")),
        },
    );
    ct.add_method(
        vector,
        MethodInfo::native("addElement", vec![ot.clone()], Type::Void, "vec.addElement"),
    );
    ct.add_method(
        vector,
        MethodInfo::native("elementAt", vec![Type::int()], ot.clone(), "vec.elementAt"),
    );
    ct.add_method(vector, MethodInfo::native("size", vec![], Type::int(), "vec.size"));
    ct.add_method(
        vector,
        MethodInfo::native("isEmpty", vec![], Type::boolean(), "vec.isEmpty"),
    );
    ct.add_method(
        vector,
        MethodInfo::native("elements", vec![], Type::Class(enumeration), "vec.elements"),
    );
    let mvector = declare_class(ct, "maya.util.Vector", Some("java.util.Vector"), false);
    ct.add_ctor(
        mvector,
        CtorInfo {
            params: vec![],
            param_names: vec![],
            modifiers: Modifiers::just(Modifier::Public),
            body: None,
            native: Some(sym("vec.new.maya.util.Vector")),
        },
    );
    // maya.util.Vector exposes its underlying object array (paper §3).
    ct.add_method(
        mvector,
        MethodInfo::native(
            "getElementData",
            vec![],
            ot.clone().array_of(),
            "mvec.getElementData",
        ),
    );

    // Hashtable.
    let ht = declare_class(ct, "java.util.Hashtable", Some("java.lang.Object"), false);
    ct.add_ctor(
        ht,
        CtorInfo {
            params: vec![],
            param_names: vec![],
            modifiers: Modifiers::just(Modifier::Public),
            body: None,
            native: Some(sym("ht.new")),
        },
    );
    ct.add_method(ht, MethodInfo::native("put", vec![ot.clone(), ot.clone()], ot.clone(), "ht.put"));
    ct.add_method(ht, MethodInfo::native("get", vec![ot.clone()], ot.clone(), "ht.get"));
    ct.add_method(
        ht,
        MethodInfo::native("keys", vec![], Type::Class(enumeration), "ht.keys"),
    );
    ct.add_method(ht, MethodInfo::native("size", vec![], Type::int(), "ht.size"));
}

// ---- native registrations ------------------------------------------------------

fn err(msg: &str) -> Control {
    Control::error(msg.to_owned(), Span::DUMMY)
}

fn as_str(v: &Value) -> Result<crate::RtStr, Control> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(err(&format!("expected String, got {other:?}"))),
    }
}

fn reg(i: &Interp, key: &str, f: impl Fn(&Interp, Value, Vec<Value>) -> Eval + 'static) {
    i.register_native(key, Rc::new(f) as NativeFn);
}

/// Registers all runtime-library natives on an interpreter and seeds
/// `System.out` / `System.err`.
pub(crate) fn register_natives(i: &Interp) {
    // Object / String ------------------------------------------------------
    reg(i, "obj.toString", |i, recv, _| {
        // The *default* rendering: must not call display() (which would
        // recurse back into toString).
        let s = match &recv {
            Value::Object(o) => {
                let fqcn = i.ct.fqcn(o.class);
                // The `message` field sits at a pre-resolved layout offset;
                // the overflow lookup only runs for layouts without one.
                match o.message().or_else(|| o.get(sym("message"))) {
                    Some(Value::Str(m)) => format!("{fqcn}: {m}"),
                    _ => format!("{fqcn}@obj"),
                }
            }
            Value::Native(n) => n.display(),
            other => format!("{other:?}"),
        };
        Ok(Value::owned_str(s))
    });
    reg(i, "obj.equals", |_, recv, args| {
        Ok(Value::Bool(recv.ref_eq(&args[0])))
    });
    reg(i, "str.length", |_, recv, _| {
        Ok(Value::Int(as_str(&recv)?.chars().count() as i32))
    });
    reg(i, "str.charAt", |_, recv, args| {
        let s = as_str(&recv)?;
        let idx = match args[0] {
            Value::Int(v) => v as usize,
            _ => return Err(err("charAt index")),
        };
        s.chars()
            .nth(idx)
            .map(Value::Char)
            .ok_or_else(|| err("string index out of range"))
    });
    reg(i, "str.equals", |_, recv, args| {
        let s = as_str(&recv)?;
        Ok(Value::Bool(matches!(&args[0], Value::Str(o) if **o == *s)))
    });
    reg(i, "str.concat", |_, recv, args| {
        let a = as_str(&recv)?;
        let b = as_str(&args[0])?;
        Ok(Value::owned_str(format!("{a}{b}")))
    });
    reg(i, "str.toString", |_, recv, _| Ok(recv));
    reg(i, "str.substring", |_, recv, args| {
        let s = as_str(&recv)?;
        let (a, b) = match (&args[0], &args[1]) {
            (Value::Int(a), Value::Int(b)) => (*a as usize, *b as usize),
            _ => return Err(err("substring bounds")),
        };
        s.get(a..b)
            .map(|t| Value::owned_str(t.to_string()))
            .ok_or_else(|| err("substring out of range"))
    });
    reg(i, "str.indexOf", |_, recv, args| {
        let s = as_str(&recv)?;
        let n = as_str(&args[0])?;
        Ok(Value::Int(
            s.find(&*n).map(|p| p as i32).unwrap_or(-1),
        ))
    });

    // PrintStream ----------------------------------------------------------
    reg(i, "ps.println", |i, _recv, args| {
        let text = args
            .first()
            .map(|v| i.display(v))
            .unwrap_or_default();
        i.write_out(&text);
        i.write_out("\n");
        Ok(Value::Null)
    });
    reg(i, "ps.print", |i, _recv, args| {
        let text = args
            .first()
            .map(|v| i.display(v))
            .unwrap_or_default();
        i.write_out(&text);
        Ok(Value::Null)
    });

    // StringBuffer -----------------------------------------------------------
    reg(i, "sb.new", |_, _, _| {
        Ok(Value::native(SbObj {
            s: RefCell::new(String::new()),
        }))
    });
    reg(i, "sb.append", |i, recv, args| {
        let text = i.display(&args[0]);
        match &recv {
            Value::Native(n) => {
                let sb = n
                    .as_any()
                    .downcast_ref::<SbObj>()
                    .ok_or_else(|| err("not a StringBuffer"))?;
                sb.s.borrow_mut().push_str(&text);
                Ok(recv.clone())
            }
            _ => Err(err("not a StringBuffer")),
        }
    });
    reg(i, "sb.toString", |_, recv, _| {
        let sb = native_as::<SbObj>(&recv).ok_or_else(|| err("not a StringBuffer"))?;
        let s = sb.s.borrow().clone();
        Ok(Value::owned_str(s))
    });

    // Exceptions -------------------------------------------------------------
    for exc in [
        "java.lang.Throwable",
        "java.lang.Exception",
        "java.lang.RuntimeException",
        "java.lang.NullPointerException",
        "java.lang.ClassCastException",
        "java.lang.ArithmeticException",
        "java.lang.ArrayIndexOutOfBoundsException",
        "java.lang.NegativeArraySizeException",
        "java.util.NoSuchElementException",
    ] {
        let fqcn: Symbol = sym(exc);
        reg(i, &format!("exc.new0.{exc}"), move |i, _, _| {
            make_exception(i, fqcn, None)
        });
        reg(i, &format!("exc.new1.{exc}"), move |i, _, args| {
            make_exception(i, fqcn, Some(args[0].clone()))
        });
    }
    reg(i, "thr.getMessage", |_, recv, _| match recv {
        Value::Object(o) => Ok(o
            .message()
            .or_else(|| o.get(sym("message")))
            .unwrap_or(Value::Null)),
        _ => Err(err("not a throwable")),
    });

    // Integer / Math -----------------------------------------------------------
    reg(i, "int.toString", |_, _, args| match args[0] {
        Value::Int(v) => Ok(Value::owned_str(v.to_string())),
        _ => Err(err("Integer.toString")),
    });
    reg(i, "int.parseInt", |_, _, args| {
        let s = as_str(&args[0])?;
        s.trim()
            .parse::<i32>()
            .map(Value::Int)
            .map_err(|_| err("NumberFormatException"))
    });
    reg(i, "math.max", |_, _, args| match (&args[0], &args[1]) {
        (Value::Int(a), Value::Int(b)) => Ok(Value::Int(*a.max(b))),
        _ => Err(err("Math.max")),
    });
    reg(i, "math.min", |_, _, args| match (&args[0], &args[1]) {
        (Value::Int(a), Value::Int(b)) => Ok(Value::Int(*a.min(b))),
        _ => Err(err("Math.min")),
    });
    reg(i, "math.abs", |_, _, args| match args[0] {
        Value::Int(a) => Ok(Value::Int(a.abs())),
        _ => Err(err("Math.abs")),
    });

    // Enumeration ----------------------------------------------------------------
    reg(i, "enum.has", |_, recv, _| {
        let e = native_as::<EnumObj>(&recv).ok_or_else(|| err("not an Enumeration"))?;
        let items = e.items.borrow();
        Ok(Value::Bool(items.1 < items.0.len()))
    });
    reg(i, "enum.next", |i, recv, _| {
        let e = native_as::<EnumObj>(&recv).ok_or_else(|| err("not an Enumeration"))?;
        let mut items = e.items.borrow_mut();
        if items.1 >= items.0.len() {
            drop(items);
            return Err(throw_named(i, "java.util.NoSuchElementException"));
        }
        let v = items.0[items.1].clone();
        items.1 += 1;
        Ok(v)
    });

    // Vector ----------------------------------------------------------------------
    reg(i, "vec.new.java.util.Vector", |_, _, _| {
        Ok(Value::native(VecObj {
            fqcn: "java.util.Vector",
            data: RefCell::new(Vec::new()),
        }))
    });
    reg(i, "vec.new.maya.util.Vector", |_, _, _| {
        Ok(Value::native(VecObj {
            fqcn: "maya.util.Vector",
            data: RefCell::new(Vec::new()),
        }))
    });
    reg(i, "vec.addElement", |_, recv, args| {
        let v = native_as::<VecObj>(&recv).ok_or_else(|| err("not a Vector"))?;
        v.data.borrow_mut().push(args[0].clone());
        Ok(Value::Null)
    });
    reg(i, "vec.elementAt", |i, recv, args| {
        let v = native_as::<VecObj>(&recv).ok_or_else(|| err("not a Vector"))?;
        let idx = match args[0] {
            Value::Int(x) => x,
            _ => return Err(err("elementAt index")),
        };
        let data = v.data.borrow();
        data.get(idx as usize).cloned().ok_or_else(|| {
            throw_named(i, "java.lang.ArrayIndexOutOfBoundsException")
        })
    });
    reg(i, "vec.size", |_, recv, _| {
        let v = native_as::<VecObj>(&recv).ok_or_else(|| err("not a Vector"))?;
        Ok(Value::Int(v.data.borrow().len() as i32))
    });
    reg(i, "vec.isEmpty", |_, recv, _| {
        let v = native_as::<VecObj>(&recv).ok_or_else(|| err("not a Vector"))?;
        Ok(Value::Bool(v.data.borrow().is_empty()))
    });
    reg(i, "vec.elements", |_, recv, _| {
        let v = native_as::<VecObj>(&recv).ok_or_else(|| err("not a Vector"))?;
        Ok(EnumObj::over(v.data.borrow().clone()))
    });
    reg(i, "mvec.getElementData", |i, recv, _| {
        let v = native_as::<VecObj>(&recv).ok_or_else(|| err("not a Vector"))?;
        let data = v.data.borrow().clone();
        Ok(Value::Array(Rc::new(crate::ArrayObj {
            elem: obj_ty(&i.ct),
            data: RefCell::new(data),
        })))
    });

    // Hashtable ---------------------------------------------------------------------
    reg(i, "ht.new", |_, _, _| {
        Ok(Value::native(HashObj {
            data: RefCell::new(Vec::new()),
        }))
    });
    reg(i, "ht.put", |_, recv, mut args| {
        let h = native_as::<HashObj>(&recv).ok_or_else(|| err("not a Hashtable"))?;
        let v = args.pop().unwrap();
        let k = args.pop().unwrap();
        let mut data = h.data.borrow_mut();
        for pair in data.iter_mut() {
            if key_eq(&pair.0, &k) {
                let old = pair.1.clone();
                pair.1 = v;
                return Ok(old);
            }
        }
        data.push((k, v));
        Ok(Value::Null)
    });
    reg(i, "ht.get", |_, recv, args| {
        let h = native_as::<HashObj>(&recv).ok_or_else(|| err("not a Hashtable"))?;
        let data = h.data.borrow();
        Ok(data
            .iter()
            .find(|(k, _)| key_eq(k, &args[0]))
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null))
    });
    reg(i, "ht.keys", |_, recv, _| {
        let h = native_as::<HashObj>(&recv).ok_or_else(|| err("not a Hashtable"))?;
        let keys = h.data.borrow().iter().map(|(k, _)| k.clone()).collect();
        Ok(EnumObj::over(keys))
    });
    reg(i, "ht.size", |_, recv, _| {
        let h = native_as::<HashObj>(&recv).ok_or_else(|| err("not a Hashtable"))?;
        Ok(Value::Int(h.data.borrow().len() as i32))
    });

    // Seed System.out / System.err.
    if let Some(system) = i.ct.by_fqcn_str("java.lang.System") {
        let _ = i.set_static_field(system, sym("out"), Value::native(PrintObj));
        let _ = i.set_static_field(system, sym("err"), Value::native(PrintObj));
    }
}

fn make_exception(i: &Interp, fqcn: Symbol, message: Option<Value>) -> Eval {
    let class = i
        .ct
        .by_fqcn(fqcn)
        .ok_or_else(|| err(&format!("unknown exception class {fqcn}")))?;
    let obj = crate::Obj::new(class, i.layout_of(class));
    let msg = message.unwrap_or(Value::Null);
    match obj.layout.message {
        Some(off) => obj.set_slot(off, msg),
        None => obj.set(sym("message"), msg),
    };
    Ok(Value::Object(obj.into()))
}

fn throw_named(i: &Interp, fqcn: &str) -> Control {
    match make_exception(i, sym(fqcn), None) {
        Ok(v) => Control::Throw(v),
        Err(c) => c,
    }
}

