//! The tables compiled into the binary do not depend on symbol numbers:
//! a process that interns other strings first, shifting the numbers of
//! the shipped extensions' contextual keywords, is served the same
//! compiled-in tables for every shipped extension, equal to a full build,
//! with unchanged output. This file is its own test binary, so its one
//! test starts from a fresh interner.

mod shipped;

use maya::lexer::sym;
use shipped::PROGRAMS;

#[test]
fn shifted_symbol_numbers_keep_every_shipped_grammar_compiled_in() {
    for i in 0..300 {
        sym(&format!("unrelated_{i}"));
    }
    for word in ["assert", "format", "typedef", "into", "each"] {
        assert!(
            sym(word).index() >= 300,
            "{word} was interned before the shift"
        );
    }
    for &(name, ext, src, expected) in PROGRAMS {
        let run = shipped::run(name, src);
        assert_eq!(run.output, expected, "{name}");
        assert_eq!(run.tables_built, 0, "{name}: tables built");
        assert!(run.table_cache_hits > 0, "{name}: no table-cache hit");
        shipped::check_served_embedded(name, ext);
    }
}
