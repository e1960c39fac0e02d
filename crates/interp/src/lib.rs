//! A tree-walking interpreter for MayaJava.
//!
//! Two roles (paper Figure 1): it *runs compiled applications* (the paper
//! compiled to JVM bytecode; we interpret the typed AST directly — see
//! DESIGN.md for the substitution argument), and it *executes metaprogram
//! bodies at compile time* when extensions are written in MayaJava itself
//! (the `maya.tree` bridge is installed by `maya-core`).
//!
//! The interpreter is deliberately lazy-friendly: method bodies are
//! [`maya_ast::LazyNode`]s, and an optional *forcer* hook lets the compiler
//! parse/check a body on its first call — the runtime continuation of
//! mayac's lazy compilation.

mod bytecode;
mod error;
mod interp;
mod layout;
mod lower;
mod native;
mod runtime;
mod value;
mod vm;
mod widen;

pub use error::RuntimeError;
pub use interp::{Control, Eval, Frame, Interp};
pub use layout::{FieldLayout, RuntimeCaches};
pub use lower::{LowerStore, LoweredBody};
pub use native::{native_as, NativeFn, NativeObject};
pub use runtime::{install_runtime, EnumObj, HashObj, PrintObj, SbObj, VecObj};
pub use value::{ArrayObj, Obj, RtStr, Value};
