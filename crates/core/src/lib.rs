//! `maya-core`: the mayac compiler (paper Figures 1 and 4).
//!
//! This crate ties every substrate together into the pipeline the paper
//! describes: the **file reader** reads class declarations from source
//! files; the **class shaper** parses class bodies and computes member
//! types; the **class compiler** parses (lazily) and checks member
//! initializers and method bodies. The parser is invoked in all three
//! stages, dispatching to Mayans on every node-type reduction, with lazy
//! parsing and lazy type checking interleaved on demand.
//!
//! The public API is [`Compiler`]: register extensions (native
//! [`maya_dispatch::MetaProgram`]s or source `syntax` declarations), add
//! sources, compile, and run the result on the interpreter.

mod base;
mod bridge;
mod builtins;
mod check_memo;
mod compiler;
mod diag;
mod driver;
mod error;
pub mod faults;
mod fingerprint;
pub mod json;
mod recover;
mod sandbox;
mod extension;
mod literal;
pub mod metagrammar;
mod session;
pub mod service;
mod source_mayan;
pub mod store;

pub use base::{embedded_tables, Base, BaseProds, Shipped};

/// Re-export for debugging tools and benches.
pub fn describe_prod_pub(g: &maya_grammar::Grammar, p: maya_grammar::ProdId) -> String {
    crate::driver::describe_prod(g, p)
}
pub use compiler::{lex_files, CompileOptions, Compiler, CompilerInner, DepEdge, ForceCache};
pub use session::{
    clear_lex_share, lex_share_enabled, set_lex_share_enabled, ErrorFormat, Outcome, RequestOpts,
    Session, SessionStats,
};
pub use driver::{expr_as_type, CoreExpand, CoreInstHost, Cx, EnvPair, ExpandSnapshot, ForceHost, LazyEnvPayload};
pub use diag::{Diagnostic, Diagnostics, Severity};
pub use error::CompileError;
pub use extension::TreeValue;
pub use literal::parse_literal;

/// Runs `f`, converting a panic into an `Err` with the panic message.
///
/// This is the driver-boundary safety net: `mayac` wraps whole phases in
/// it so a compiler bug surfaces as an internal-compiler-error diagnostic
/// instead of a process abort. The default panic hook is suppressed while
/// inside (the message is captured instead).
pub fn catch_ice<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    sandbox::catch(f)
}

/// Maximally permissive parameters for a production (used by extensions
/// that override built-in semantic actions and fall through with
/// `nextRewrite`).
pub fn builtin_params(g: &maya_grammar::Grammar, p: maya_grammar::ProdId) -> Vec<maya_dispatch::Param> {
    crate::builtins::params_for(g, p)
}
