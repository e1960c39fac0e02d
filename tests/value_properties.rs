//! Property tests for the compact tagged `Value` representation.
//!
//! The interpreter stores small ints and longs inline in a 16-byte tagged
//! `Value` and interns string literals; the bytecode VM tier adds its own
//! constant preloading and superinstruction fusion on top. These tests pin
//! the observable semantics: boundary integer arithmetic (i64 wrap-around,
//! `MIN / -1`, `MIN % -1`, int→long promotion) and interned-string
//! equality/concatenation must be **bit-for-bit identical** across both
//! execution tiers, and must match host-computed expectations.
//!
//! Random programs come from a deterministic xorshift PRNG (the build
//! container has no registry access, so `proptest` is unavailable); seeds
//! are fixed, so failures reproduce exactly.

use maya::{CompileOptions, Compiler};

/// Runs `src` in-process on the legacy walker (`lowering` off) or the
/// bytecode VM; `Err` carries the full error rendering so diagnosed/thrown
/// outcomes are compared too.
fn run_tier(src: &str, lowering: bool) -> Result<String, String> {
    let c = Compiler::with_options(CompileOptions {
        echo_output: false,
        jobs: 1,
        ..Default::default()
    });
    c.interp().set_lowering(lowering);
    c.add_source("Main.maya", src).map_err(|e| e.to_string())?;
    c.compile().map_err(|e| e.to_string())?;
    c.run_main("Main").map_err(|e| e.to_string())
}

/// Runs `src` through both tiers and asserts the outcomes are identical;
/// returns the agreed outcome.
fn tiers_agree(label: &str, src: &str) -> Result<String, String> {
    let baseline = run_tier(src, false);
    let out = run_tier(src, true);
    assert_eq!(
        out, baseline,
        "{label}: bytecode diverged from legacy\n--- program ---\n{src}"
    );
    baseline
}

/// Boundary long/int arithmetic with host-checked answers. Every printed
/// line is an in-language comparison against the expected value, so the
/// assertion is independent of number formatting.
#[test]
fn boundary_arithmetic_matches_host_on_all_tiers() {
    // i64::MIN is spelled MAX - MAX - MAX - 1 style because a bare
    // -9223372036854775808L literal need not parse (Java special-cases it).
    let src = r#"
class Main {
    static void main() {
        long max = 9223372036854775807L;
        long min = -9223372036854775807L - 1L;
        long m1 = 0L - 1L;
        System.out.println(min / m1 == min);      // wraps, Java semantics
        System.out.println(min % m1 == 0L);
        System.out.println(max + 1L == min);
        System.out.println(min - 1L == max);
        System.out.println(min * m1 == min);
        System.out.println(max * 2L == 0L - 2L);
        System.out.println((min >> 1) * 2L == min);

        int imax = 2147483647;
        int imin = -2147483647 - 1;
        int i1 = 0 - 1;
        System.out.println(imin / i1 == imin);
        System.out.println(imin % i1 == 0);
        System.out.println(imax + 1 == imin);
        System.out.println(imin - 1 == imax);
        System.out.println(imin * i1 == imin);

        // int→long promotion: the same expression that wraps as int is
        // exact once one operand is long.
        System.out.println(imax + 1L == 2147483648L);
        System.out.println(imin - 1L == -2147483649L);
        long wide = imax;
        System.out.println(wide * 4L == 8589934588L);
    }
}
"#;
    let out = tiers_agree("boundary arithmetic", src).expect("program runs");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 15, "unexpected output:\n{out}");
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(*line, "true", "comparison {i} failed:\n{out}");
    }
}

/// Division and remainder by zero must throw identically on every tier.
#[test]
fn division_by_zero_throws_identically() {
    for body in [
        "long z = 1L / (5L - 5L); System.out.println(z);",
        "long z = 1L % (5L - 5L); System.out.println(z);",
        "int z = 7 / (3 - 3); System.out.println(z);",
        "int z = 7 % (3 - 3); System.out.println(z);",
    ] {
        let src = format!("class Main {{ static void main() {{ {body} }} }}");
        let out = tiers_agree("div by zero", &src);
        let err = out.expect_err("division by zero must not succeed");
        assert!(err.contains("ArithmeticException"), "unexpected error: {err}");
    }
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Literal pool biased toward representation boundaries: values around
/// i32/i64 extremes, -1 (the div/rem wrap case), and small tagged ints.
const LONG_POOL: [&str; 10] = [
    "0L",
    "1L",
    "-1L",
    "2L",
    "-3L",
    "2147483647L",
    "-2147483648L",
    "9223372036854775807L",
    "-9223372036854775807L - 1L",
    "1000000007L",
];

/// Random straight-line long arithmetic threaded through mutable locals
/// and a counted loop, so lowering resolves slots and the bytecode tier
/// compiles, fuses, and preloads constants — then both tiers must print
/// the same variable dump (or throw the same exception).
#[test]
fn random_long_arithmetic_identical_across_tiers() {
    const VARS: usize = 6;
    const STMTS: usize = 10;
    for seed in 0..20u64 {
        let mut rng = Rng::new(seed + 1);
        let mut body = String::new();
        for v in 0..VARS {
            let init = LONG_POOL[rng.below(LONG_POOL.len())];
            body.push_str(&format!("        long v{v} = {init};\n"));
        }
        body.push_str("        for (int i = 0; i < 4; i = i + 1) {\n");
        for _ in 0..STMTS {
            let dst = rng.below(VARS);
            let a = rng.below(VARS);
            let op = ["+", "-", "*", "/", "%"][rng.below(5)];
            // Divisors come from the pool (possibly zero or -1 on
            // purpose): a thrown ArithmeticException is a valid outcome,
            // it just has to be the same one on every tier.
            let b = if op == "/" || op == "%" {
                format!("({})", LONG_POOL[rng.below(LONG_POOL.len())])
            } else {
                format!("v{}", rng.below(VARS))
            };
            body.push_str(&format!("            v{dst} = v{a} {op} {b};\n"));
        }
        body.push_str("        }\n");
        for v in 0..VARS {
            body.push_str(&format!("        System.out.println(v{v});\n"));
        }
        let src = format!("class Main {{\n    static void main() {{\n{body}    }}\n}}");
        // A thrown ArithmeticException is as valid an outcome as output:
        // only the tiers' agreement is checked.
        let _ = tiers_agree(&format!("random long arithmetic (seed {seed})"), &src);
    }
}

/// Interned-string behaviour: literals, concatenation (including numeric
/// operands), equality, and `.equals` must agree bit-for-bit across tiers
/// and match the host-computed strings.
#[test]
fn interned_string_concat_and_equality_identical_across_tiers() {
    let src = r#"
class Main {
    static String glue(String a, String b) { return a + ":" + b; }

    static void main() {
        String lit = "alpha";
        String same = "alpha";
        String built = "al" + "pha";
        System.out.println(lit.equals(same));
        System.out.println(lit.equals(built));
        System.out.println(lit == same);
        System.out.println(lit == built);

        String acc = "";
        for (int i = 0; i < 5; i = i + 1) {
            acc = glue(acc, "x" + i);
        }
        System.out.println(acc);
        System.out.println(acc.length());
        System.out.println(acc.equals(":x0:x1:x2:x3:x4"));

        long big = 9223372036854775807L;
        System.out.println("max=" + big);
        System.out.println("sum=" + (big + 1L));
        System.out.println("mix=" + 1 + 2 + "!" );
    }
}
"#;
    let out = tiers_agree("interned strings", src).expect("program runs");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 10, "unexpected output:\n{out}");
    // Value equality of the contents is tier-independent ground truth;
    // `==` identity lines only have to agree across tiers (asserted by
    // tiers_agree) and are not pinned here.
    assert_eq!(lines[0], "true");
    assert_eq!(lines[1], "true");
    assert_eq!(lines[4], ":x0:x1:x2:x3:x4");
    assert_eq!(lines[5], "15");
    assert_eq!(lines[6], "true");
    assert_eq!(lines[7], "max=9223372036854775807");
    assert_eq!(lines[8], "sum=-9223372036854775808");
    assert_eq!(lines[9], "mix=12!");
}

/// Random concat/equality programs: a pool of literals (some repeated, so
/// interning paths are hit) combined by concatenation and compared with
/// `.equals` — identical output required on every tier.
#[test]
fn random_string_programs_identical_across_tiers() {
    const POOL: [&str; 6] = ["\"a\"", "\"b\"", "\"a\"", "\"long-ish literal\"", "\"\"", "\"b\""];
    for seed in 0..12u64 {
        let mut rng = Rng::new(seed.wrapping_mul(77) + 5);
        let mut body = String::new();
        for v in 0..4 {
            body.push_str(&format!("        String s{v} = {};\n", POOL[rng.below(POOL.len())]));
        }
        for _ in 0..6 {
            let dst = rng.below(4);
            let a = rng.below(4);
            match rng.below(3) {
                0 => body.push_str(&format!("        s{dst} = s{dst} + s{a};\n")),
                1 => body.push_str(&format!(
                    "        s{dst} = s{dst} + {};\n",
                    POOL[rng.below(POOL.len())]
                )),
                _ => body.push_str(&format!("        s{dst} = s{a} + {};\n", rng.below(100))),
            }
        }
        for v in 0..4 {
            body.push_str(&format!("        System.out.println(s{v});\n"));
            body.push_str(&format!("        System.out.println(s{v}.equals(s{}));\n", (v + 1) % 4));
        }
        let src = format!("class Main {{\n    static void main() {{\n{body}    }}\n}}");
        // A thrown exception would be as valid an outcome as output: only
        // the tiers' agreement is checked.
        let _ = tiers_agree(&format!("random strings (seed {seed})"), &src);
    }
}
