//! The tables of every grammar the compiler ships are compiled into the
//! binary: a `use` of one shipped extension over the base grammar builds
//! no tables and is served what a full build makes. (`tests/store.rs`
//! checks that such a program stores no tables.)

mod shipped;

use shipped::PROGRAMS;

/// A one-`use` program of each shipped extension, each on a cold thread:
/// an extension whose productions drift from `maya::core::Shipped` would
/// build its grammar's tables here.
#[test]
fn a_use_of_each_shipped_extension_builds_no_tables() {
    for &(name, _, src, expected) in PROGRAMS {
        let run = std::thread::spawn(move || shipped::run(name, src))
            .join()
            .unwrap();
        assert_eq!(run.output, expected, "{name}");
        assert_eq!(run.tables_built, 0, "{name}: tables built");
        assert!(run.table_cache_hits > 0, "{name}: no table-cache hit");
    }
}

#[test]
fn each_shipped_grammar_is_served_what_a_full_build_makes() {
    for &(name, ext, _, _) in PROGRAMS {
        shipped::check_served_embedded(name, ext);
    }
    // The base grammar's set, too.
    let base = maya::core::Base::build().grammar;
    let embedded = &maya::core::embedded_tables()[0];
    assert_eq!(embedded.hash(), base.content_hash());
    let full = base.build_full().unwrap();
    assert!(*base.tables().unwrap() == **full.tables());
}
