//! Repo automation (`cargo xtask <command>`).
//!
//! `cargo xtask fuzz [--cases=N] [--seed=S] [--budget=SECS] [--induce]`
//! is the grammar-aware differential fuzzer (see `fuzz.rs`): programs and
//! Mayan extensions derived from the base grammar's productions, the
//! differential oracles (engines, warm/post-edit session, jobs, worker
//! pool, store, faults, tables), telemetry-driven coverage seeds, and
//! auto-minimization of any divergence into `tests/corpus/regressions/`.
//! Writes `BENCH_fuzz.json` and exits 1 on any escaped panic or
//! divergence.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod fuzz;

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the repo root")
        .to_path_buf()
}

/// xorshift64: tiny, deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => {
            let mut cfg = fuzz::FuzzConfig {
                cases: fuzz::DEFAULT_CASES,
                seed: fuzz::DEFAULT_SEED,
                budget_secs: None,
                induce: false,
            };
            for a in &args[1..] {
                if let Some(n) = a.strip_prefix("--cases=") {
                    match n.parse() {
                        Ok(n) => cfg.cases = n,
                        Err(_) => {
                            eprintln!("xtask fuzz: bad --cases value {n:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else if let Some(s) = a.strip_prefix("--seed=") {
                    match s.parse() {
                        Ok(s) => cfg.seed = s,
                        Err(_) => {
                            eprintln!("xtask fuzz: bad --seed value {s:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else if let Some(b) = a.strip_prefix("--budget=") {
                    match b.parse() {
                        Ok(b) => cfg.budget_secs = Some(b),
                        Err(_) => {
                            eprintln!("xtask fuzz: bad --budget value {b:?}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else if a == "--induce" {
                    cfg.induce = true;
                } else {
                    eprintln!("xtask fuzz: unknown option {a}");
                    return ExitCode::FAILURE;
                }
            }
            fuzz::run(&cfg)
        }
        other => {
            if let Some(other) = other {
                eprintln!("xtask: unknown command {other}");
            }
            eprintln!("usage: cargo xtask fuzz [--cases=N] [--seed=S] [--budget=SECS] [--induce]");
            ExitCode::FAILURE
        }
    }
}
