//! Compiler lifetime: dropping a `Compiler` frees everything it built.
//!
//! A warm `Session` creates one compiler per request, so anything that
//! keeps a compiler alive past its request is a per-request leak. Every
//! conformance-corpus program (successes, compile errors and runtime
//! errors alike) is compiled and run through a compiler with the native
//! extensions installed; after the compiler is dropped, its shared state,
//! class table and interpreter must all be gone.

use maya::core::{Compiler, CompilerInner, Diagnostics};
use maya::interp::Interp;
use maya::types::ClassTable;
use maya::CompileOptions;
use std::path::Path;
use std::rc::{Rc, Weak};

struct Handles {
    inner: Weak<CompilerInner>,
    classes: Weak<ClassTable>,
    interp: Weak<Interp>,
}

/// Compiles `sources` the way `mayac` does (multi-error mode, global
/// `-use` imports, an error cap) and runs `Main` when compilation
/// succeeds. Returns whether the run succeeded, plus weak handles to the
/// compiler's state; the compiler itself is dropped on return.
fn compile_and_drop(
    name: &str,
    src: &str,
    uses: Vec<String>,
    max_errors: usize,
) -> (bool, Handles) {
    let compiler = Compiler::with_options(CompileOptions {
        uses,
        ..CompileOptions::default()
    });
    maya::macrolib::install(&compiler);
    maya::multijava::install(&compiler);
    let handles = Handles {
        inner: Rc::downgrade(compiler.inner()),
        classes: Rc::downgrade(&compiler.classes()),
        interp: Rc::downgrade(&compiler.interp()),
    };
    let diags = Diagnostics::with_limits(max_errors, false);
    compiler.add_sources_diags(&[(name.to_owned(), src.to_owned())], &diags);
    if !diags.should_fail() {
        compiler.compile_diags(&diags);
    }
    if !diags.should_fail() {
        compiler.run_main_diags("Main", &diags);
    }
    (!diags.should_fail(), handles)
}

fn freed(h: &Handles) -> Vec<&'static str> {
    let mut alive = Vec::new();
    if h.inner.upgrade().is_some() {
        alive.push("CompilerInner");
    }
    if h.classes.upgrade().is_some() {
        alive.push("ClassTable");
    }
    if h.interp.upgrade().is_some() {
        alive.push("Interp");
    }
    alive
}

#[test]
fn dropping_a_compiler_frees_it_for_every_corpus_program() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".maya").then_some(name)
        })
        .collect();
    names.sort();
    assert!(
        names.len() >= 25,
        "corpus shrank ({} programs)",
        names.len()
    );

    let mut leaks = Vec::new();
    let mut failing = 0;
    for name in &names {
        let src = std::fs::read_to_string(dir.join(name)).unwrap();
        // The corpus directives that change what the compiler does:
        // `-use NAME`, `--max-errors=N` and the expected exit status.
        let mut uses = Vec::new();
        let mut max_errors = 20;
        let mut expect_fail = false;
        for line in src.lines() {
            let Some(rest) = line.trim().strip_prefix("//") else {
                break;
            };
            let rest = rest.trim();
            if let Some(args) = rest.strip_prefix("mayac:") {
                let mut args = args.split_whitespace();
                while let Some(a) = args.next() {
                    if a == "-use" {
                        uses.push(args.next().expect("-use NAME").to_owned());
                    } else if let Some(n) = a.strip_prefix("--max-errors=") {
                        max_errors = n.parse().unwrap();
                    }
                }
            } else if rest == "status: fail" {
                expect_fail = true;
            }
        }
        let (ok, handles) = compile_and_drop(name, &src, uses, max_errors);
        assert_eq!(ok, !expect_fail, "{name}: unexpected compile/run status");
        failing += usize::from(!ok);
        let alive = freed(&handles);
        if !alive.is_empty() {
            leaks.push(format!("{name}: {} still alive", alive.join(", ")));
        }
    }
    assert!(failing > 0, "the corpus should include failing programs");
    assert!(leaks.is_empty(), "\n{}", leaks.join("\n"));
}

#[test]
fn dropping_a_compiler_frees_it_after_an_injected_panic() {
    const SRC: &str = r#"
import java.util.*;
class Main {
    static void main() {
        Vector v = new Vector();
        v.addElement("x");
        use Foreach;
        v.elements().foreach(String s) { System.out.println(s); }
    }
}
"#;
    maya::core::faults::arm("interp:panic");
    let (ok, handles) = compile_and_drop("faulted.maya", SRC, Vec::new(), 20);
    maya::core::faults::disarm();
    assert!(!ok, "the armed fault should fail the run");
    let alive = freed(&handles);
    assert!(
        alive.is_empty(),
        "{} still alive after an ICE",
        alive.join(", ")
    );
}
