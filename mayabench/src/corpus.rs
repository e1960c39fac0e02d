//! The conformance corpus the `cli_*` and `run_hot` workloads draw from,
//! with its hand-blessed goldens as the reference.
//!
//! The benchmark keeps its own copy under `corpus/` so that a change to
//! the repository's test corpus cannot change what the benchmark measures
//! between a parent commit and the change under test.

use std::path::Path;

/// One corpus program and its reference behaviour.
pub struct Program {
    pub name: String,
    pub src: String,
    /// Extra `mayac` arguments (`// mayac: ARGS`).
    pub args: Vec<String>,
    /// `// status: fail`: the reference exit status is non-zero.
    pub expect_fail: bool,
    /// `// noedit`: appending to the file would change its diagnostics.
    pub noedit: bool,
    pub stdout: String,
    pub stderr: String,
}

impl Program {
    /// Whether an output-neutral class may be appended without
    /// invalidating the goldens: only clean-running programs qualify.
    pub fn editable(&self) -> bool {
        !self.expect_fail && !self.noedit
    }

    /// The source with one empty class appended. An empty class adds no
    /// method, so neither program output nor `--expand` output changes,
    /// while the token stream (and every content key) does.
    pub fn edited(&self, tag: u64) -> String {
        format!("{}\nclass ZZBenchEdit{tag} {{ }}\n", self.src)
    }

    /// Compares one run against the goldens; `Err` describes the first
    /// mismatch.
    pub fn check(&self, succeeded: bool, stdout: &str, stderr: &str) -> Result<(), String> {
        if succeeded == self.expect_fail {
            return Err(format!(
                "exit status: expected {}, got {}",
                if self.expect_fail {
                    "failure"
                } else {
                    "success"
                },
                if succeeded { "success" } else { "failure" }
            ));
        }
        for (channel, want, got) in [
            ("stdout", &self.stdout, stdout),
            ("stderr", &self.stderr, stderr),
        ] {
            if want != got {
                return Err(format!(
                    "{channel} differs from the golden\n--- expected ---\n{want}--- got ---\n{got}"
                ));
            }
        }
        Ok(())
    }
}

fn directives(src: &str) -> (Vec<String>, bool, bool) {
    let (mut args, mut fail, mut noedit) = (Vec::new(), false, false);
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("//") else {
            break;
        };
        let rest = rest.trim();
        if let Some(a) = rest.strip_prefix("mayac:") {
            args = a.split_whitespace().map(str::to_owned).collect();
        } else if rest == "status: fail" {
            fail = true;
        } else if rest == "noedit" {
            noedit = true;
        }
    }
    (args, fail, noedit)
}

/// Every program under `dir`, sorted by name. A missing golden means the
/// channel is expected to be empty.
pub fn load(dir: &Path) -> Result<Vec<Program>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.ends_with(".maya").then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no .maya programs in {}", dir.display()));
    }
    names
        .into_iter()
        .map(|name| {
            let src = std::fs::read_to_string(dir.join(&name))
                .map_err(|e| format!("read {name}: {e}"))?;
            let stem = name.trim_end_matches(".maya");
            let golden = |ext: &str| {
                std::fs::read_to_string(dir.join(format!("{stem}.{ext}"))).unwrap_or_default()
            };
            let (args, expect_fail, noedit) = directives(&src);
            Ok(Program {
                stdout: golden("stdout"),
                stderr: golden("stderr"),
                name,
                src,
                args,
                expect_fail,
                noedit,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_stop_at_first_code_line() {
        let (args, fail, noedit) = directives(
            "// mayac: --max-errors=2 -use Foreach\n// status: fail\nclass A {}\n// noedit\n",
        );
        assert_eq!(args, ["--max-errors=2", "-use", "Foreach"]);
        assert!(fail);
        assert!(!noedit);
    }
}
