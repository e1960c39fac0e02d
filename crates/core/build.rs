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
//! It also builds the base grammar's LALR(1) tables with the same generator
//! the compiler runs and writes them, with the automaton that extensions
//! derive their tables from and the grammar's content hash, for
//! `src/base.rs` to embed: no process builds the base tables at run time.

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

    let base = maya_basegrammar::build();
    let embedded = maya_grammar::embedding(&base.grammar).expect("the base grammar is LALR(1)");
    fs::write(out.join("base_tables.bin"), &embedded.tables).expect("write base_tables.bin");
    fs::write(out.join("base_automaton.rs"), &embedded.automaton).expect("write base_automaton.rs");
    fs::write(
        out.join("base_hash.rs"),
        format!("{:#034x}\n", embedded.hash),
    )
    .expect("write base_hash.rs");
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
