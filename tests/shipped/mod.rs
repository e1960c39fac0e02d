//! Programs that import one shipped extension over the base grammar and
//! use its syntax, shared by the tests of the tables compiled into the
//! binary (`tests/shipped_tables.rs`, `tests/shipped_symbols.rs`).

use maya::core::Shipped;
use maya::grammar::Grammar;
use maya::telemetry::{self, Counter};
use maya::Compiler;

/// Each name a shipped extension registers, the extension whose syntax it
/// adds, a program that imports only it and uses that syntax, and what the
/// program prints.
pub const PROGRAMS: &[(&str, Shipped, &str, &str)] = &[
    (
        "Foreach",
        Shipped::Foreach,
        r#"import java.util.*;
        class Main {
            static void main() {
                Vector v = new Vector();
                v.addElement("hello");
                v.addElement("world");
                use Foreach;
                v.elements().foreach(String st) { System.out.println(st); }
            }
        }"#,
        "hello\nworld\n",
    ),
    (
        "EForEach",
        Shipped::Foreach,
        r#"import java.util.*;
        class Main {
            static void main() {
                Vector v = new Vector();
                v.addElement("e");
                use EForEach;
                v.elements().foreach(String st) { System.out.println(st); }
            }
        }"#,
        "e\n",
    ),
    (
        "VForEach",
        Shipped::Foreach,
        r#"class Main {
            static void main() {
                maya.util.Vector v = new maya.util.Vector();
                v.addElement("v");
                use VForEach;
                v.elements().foreach(String st) { System.out.println(st); }
            }
        }"#,
        "v\n",
    ),
    (
        "AForEach",
        Shipped::Foreach,
        r#"class Main {
            static void main() {
                int[] a = new int[2];
                a[0] = 1;
                a[1] = 2;
                use AForEach;
                a.foreach(int x) { System.out.println(x); }
            }
        }"#,
        "1\n2\n",
    ),
    (
        "Assert",
        Shipped::Assert,
        r#"class Main {
            static void main() {
                use Assert;
                assert(1 + 1 == 2);
                System.out.println("ok");
            }
        }"#,
        "ok\n",
    ),
    (
        "Format",
        Shipped::Format,
        r#"class Main {
            static void main() {
                use Format;
                System.out.println(format("%s + %s = %s", 1, 2, 1 + 2));
            }
        }"#,
        "1 + 2 = 3\n",
    ),
    (
        "Typedef",
        Shipped::Typedef,
        r#"class Main {
            static void main() {
                use Typedef;
                typedef (Registry = java.util.Hashtable) {
                    Registry r = new Registry();
                    r.put("ada", "admin");
                    System.out.println((String) r.get("ada"));
                }
            }
        }"#,
        "admin\n",
    ),
    (
        "Comprehension",
        Shipped::Comprehension,
        r#"import java.util.*;
        class Main {
            static void main() {
                Vector words = new Vector();
                words.addElement("ab");
                Vector doubled = new Vector();
                use Comprehension;
                into(doubled, w + w each String w : words);
                System.out.println(doubled.size());
            }
        }"#,
        "1\n",
    ),
    (
        "MultiJava",
        Shipped::MultiJava,
        r#"use MultiJava;
        class Animal { }
        class Dog extends Animal { }
        class Sound {
            String of(Animal a) { return "..."; }
            String of(Animal@Dog a) { return "woof"; }
        }
        class Main {
            static void main() {
                Sound s = new Sound();
                System.out.println(s.of(new Animal()));
                System.out.println(s.of(new Dog()));
            }
        }"#,
        "...\nwoof\n",
    ),
];

/// A compiler with every shipped extension registered.
pub fn compiler() -> Compiler {
    let c = maya::macrolib::compiler_with_macros();
    maya::multijava::install(&c);
    c
}

/// What compiling and running a program on this thread did.
pub struct Run {
    pub output: String,
    pub tables_built: u64,
    pub table_cache_hits: u64,
}

/// Compiles and runs `src` on this thread.
pub fn run(name: &str, src: &str) -> Run {
    let s = telemetry::Session::start(telemetry::Config::default());
    let output = compiler()
        .compile_and_run("Main.maya", src, "Main")
        .unwrap_or_else(|e| panic!("{name}: {}", e.message));
    let r = s.finish();
    Run {
        output,
        tables_built: r.counter(Counter::TablesBuilt),
        table_cache_hits: r.counter(Counter::TableCacheHits),
    }
}

/// The grammar `use NAME` makes of the base grammar.
pub fn grammar_of(name: &str) -> Grammar {
    let c = compiler();
    c.use_globally(name)
        .unwrap_or_else(|e| panic!("{name}: {}", e.message));
    let g = c.inner().global.borrow().grammar.clone();
    g
}

/// Checks that `name`'s grammar is the one compiled in for `ext`, and is
/// served the tables a full build makes.
pub fn check_served_embedded(name: &str, ext: Shipped) {
    let g = grammar_of(name);
    let at = Shipped::ALL.iter().position(|&e| e == ext).unwrap();
    // The base grammar's set comes first.
    let embedded = &maya::core::embedded_tables()[at + 1];
    assert_eq!(
        embedded.hash(),
        g.content_hash(),
        "{name}: its grammar is not the one compiled in for {ext:?}"
    );
    let served = g.tables().unwrap();
    let full = g.build_full().unwrap();
    assert!(
        *served == **full.tables(),
        "{name}: served tables differ from a full build"
    );
    assert!(
        embedded.read(&g).is_some_and(|t| t == **full.tables()),
        "{name}: the compiled-in set read in place differs from a full build"
    );
}
