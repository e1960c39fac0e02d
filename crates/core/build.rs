//! Computes the compiler's build identity, `store::BUILD_ID`: a 64-bit
//! FNV-1a hash of every `.rs` file under the workspace's `src/` and
//! `crates/` directories, taken over the files' workspace-relative paths
//! (sorted, `/`-separated) and their contents. The persistent artifact
//! store stamps it into every entry, so an entry written by a build of
//! other sources reads as a miss.
//!
//! Absolute paths, the build profile and the target directory never reach
//! the hash: a crate that builds this library from its own workspace gets
//! the same id as the `mayac` it talks to.
//!
//! It also builds, with the same generator the compiler runs, the LALR(1)
//! tables of the base grammar and of the base extended by each extension
//! the compiler ships (`maya_basegrammar::Shipped`, its productions added
//! without precedence, as a `use` adds them), and writes them as Rust
//! statics with each grammar's content hash, and the base grammar's
//! automaton that other extensions derive their tables from, for
//! `src/base.rs` to include: no process builds those tables at run time.

use maya_basegrammar::Shipped;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.join("../..");
    let mut files = Vec::new();
    for top in ["src", "crates"] {
        println!("cargo:rerun-if-changed=../../{top}");
        collect(&root, top, &mut files);
    }
    files.sort();

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for rel in &files {
        let text = fs::read(root.join(rel)).expect("read a workspace source");
        // Length prefixes keep (path, contents) pairs from running together.
        eat(&(rel.len() as u64).to_le_bytes());
        eat(rel.as_bytes());
        eat(&(text.len() as u64).to_le_bytes());
        eat(&text);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    fs::write(out.join("build_id.rs"), format!("{h:#018x}\n")).expect("write build_id.rs");

    let base = maya_basegrammar::build().grammar;
    let mut grammars = vec![("BASE".to_owned(), base.clone())];
    for ext in Shipped::ALL {
        grammars.push((format!("{ext:?}").to_uppercase(), ext.extend(&base)));
    }
    let mut src = String::new();
    let mut sets = Vec::new();
    for (name, grammar) in &grammars {
        let e = maya_grammar::embedding(grammar)
            .unwrap_or_else(|e| panic!("{name} is not LALR(1): {e}"));
        let _ = writeln!(
            src,
            "static {name}_TABLES: maya_grammar::StaticTables = {};",
            e.tables
        );
        // Only the base grammar's automaton is embedded: every other
        // extension derives from it.
        let automaton = if name == "BASE" {
            let _ = writeln!(
                src,
                "static {name}_AUTOMATON: maya_grammar::StaticAutomaton = {};",
                e.automaton
            );
            format!("Some(&{name}_AUTOMATON)")
        } else {
            "None".to_owned()
        };
        sets.push(format!(
            "    maya_grammar::EmbeddedTables::new({:#034x}, &{name}_TABLES, {automaton}),\n",
            e.hash
        ));
    }
    let _ = writeln!(
        src,
        "static EMBEDDED: [maya_grammar::EmbeddedTables; {}] = [\n{}];",
        sets.len(),
        sets.concat()
    );
    fs::write(out.join("embedded_tables.rs"), src).expect("write embedded_tables.rs");
}

/// Appends the `.rs` files under `root/rel` as `/`-separated paths relative
/// to `root`, skipping hidden and `target` directories.
fn collect(root: &Path, rel: &str, out: &mut Vec<String>) {
    let Ok(dir) = fs::read_dir(root.join(rel)) else {
        return;
    };
    for entry in dir.flatten() {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        let Ok(ty) = entry.file_type() else {
            continue;
        };
        let path = format!("{rel}/{name}");
        if ty.is_dir() && !name.starts_with('.') && name != "target" {
            collect(root, &path, out);
        } else if ty.is_file() && name.ends_with(".rs") {
            out.push(path);
        }
    }
}
