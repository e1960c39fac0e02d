//! `cli_cold` and `cli_store`: the batch user. One `mayac` child at a time
//! runs each program of a seeded shuffle of the corpus, honouring its
//! `// mayac:` arguments, and is checked against the program's goldens.
//!
//! `cli_cold` runs without a store, so every child builds the LALR tables
//! of the base grammar and of each imported extension. `cli_store` runs
//! every child against a `--cache-dir` populated during set-up; in each
//! pass about one request in four first appends an empty class to its
//! program, so it misses the stored outcome, reads tables, lexed trees and
//! bodies, and writes new entries. Unedited requests replay their outcome.

use std::collections::BTreeSet;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::corpus::{self, Program};
use crate::layers::{self, Tally, Work};
use crate::proc::{self, ChildRun};
use crate::report::{Checks, Table};
use crate::speed::{self, SpeedLog};
use crate::stats::{self, Rng};
use crate::{Ctx, RunOut, Timed, Window};

/// Set-up repetitions per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Cli<'a> {
    ctx: &'a Ctx,
    programs: &'a [Program],
    mayac: PathBuf,
    /// The directory the children run in (programs, store, output files).
    dir: PathBuf,
    store: bool,
    /// Editable programs in a seeded order; pass `p` edits the next
    /// `edits_per_pass` of them, cyclically, so every one is edited
    /// equally often whatever the seed.
    edit_order: Vec<usize>,
    edits_per_pass: usize,
    /// Makes every edit new content, so no edited request can hit an
    /// outcome an earlier one stored.
    next_tag: u64,
    /// The store's entries right after set-up. `ArtifactStore::open` scans
    /// the whole directory, so every `mayac` start costs time in proportion
    /// to the store's size; entries an edited request adds are removed
    /// after it, and every request finds the store as set-up left it.
    baseline: BTreeSet<OsString>,
}

impl Cli<'_> {
    fn new<'a>(ctx: &'a Ctx, programs: &'a [Program], store: bool) -> Cli<'a> {
        let mut edit_order: Vec<usize> = (0..programs.len())
            .filter(|&i| programs[i].editable())
            .collect();
        Rng::new(ctx.seed).fork(0xED17).shuffle(&mut edit_order);
        Cli {
            ctx,
            programs,
            mayac: ctx.bin_dir.join("mayac"),
            dir: PathBuf::new(),
            store,
            edits_per_pass: if store { (programs.len() + 2) / 4 } else { 0 },
            edit_order,
            next_tag: 0,
            baseline: BTreeSet::new(),
        }
    }

    /// Pass `p` of the request stream: a seeded shuffle of every program,
    /// each flagged with whether it is edited first.
    fn pass(&self, p: usize) -> Vec<(usize, bool)> {
        let mut order: Vec<usize> = (0..self.programs.len()).collect();
        Rng::new(self.ctx.seed)
            .fork(p as u64 + 1)
            .shuffle(&mut order);
        let n = self.edit_order.len();
        let edited: Vec<usize> = (0..self.edits_per_pass.min(n))
            .map(|j| self.edit_order[(p * self.edits_per_pass + j) % n])
            .collect();
        order
            .into_iter()
            .map(|i| (i, edited.contains(&i)))
            .collect()
    }

    /// Writes the program (edited or not), then times one `mayac` child
    /// from spawn to exit and checks it against the goldens.
    fn request(
        &mut self,
        i: usize,
        edit: bool,
        traced: bool,
        checks: &mut Checks,
    ) -> Result<ChildRun, String> {
        let p = &self.programs[i];
        let src = if edit {
            self.next_tag += 1;
            p.edited(self.next_tag)
        } else {
            p.src.clone()
        };
        std::fs::write(self.dir.join(&p.name), src)
            .map_err(|e| format!("write {}: {e}", p.name))?;
        let mut cmd = Command::new(&self.mayac);
        cmd.current_dir(&self.dir).args(&p.args).arg(&p.name);
        for var in [
            "MAYA_CACHE_DIR",
            "MAYA_FAULTS",
            "MAYA_NO_LOWER",
            "MAYA_NO_BYTECODE",
        ] {
            cmd.env_remove(var);
        }
        if self.store {
            cmd.arg("--cache-dir=store");
        }
        if traced {
            for f in ["stats.json", "trace.json"] {
                let _ = std::fs::remove_file(self.dir.join(f));
            }
            cmd.args(["--stats=stats.json", "--trace-out=trace.json"]);
        }
        let run = proc::run_child(&mut cmd, &self.dir.join(".out"), &self.dir.join(".err"))?;
        let verdict = match run.exit_code {
            None => Err("mayac was killed by a signal".to_owned()),
            Some(code) => p.check(code == 0, &run.stdout, &run.stderr),
        };
        checks.record(
            &format!("{}{}", p.name, if edit { " (edited)" } else { "" }),
            verdict,
        );
        if edit {
            self.prune_store()?;
        }
        Ok(run)
    }

    fn store_entries(&self) -> Result<BTreeSet<OsString>, String> {
        let dir = self.dir.join("store");
        let list = std::fs::read_dir(&dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        Ok(list.flatten().map(|e| e.file_name()).collect())
    }

    /// Removes every store entry set-up did not leave there.
    fn prune_store(&self) -> Result<(), String> {
        for name in self.store_entries()?.difference(&self.baseline) {
            let path = self.dir.join("store").join(name);
            std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Writes the inputs into a fresh directory and runs every program
    /// once, in name order: for `cli_store` this populates the store, for
    /// both it checks the reference and warms the page cache.
    fn setup(&mut self, dir: PathBuf, speed: &SpeedLog, checks: &mut Checks) -> Result<(), String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        for p in self.programs {
            std::fs::write(dir.join(&p.name), &p.src)
                .map_err(|e| format!("write {}: {e}", p.name))?;
        }
        self.dir = dir;
        for i in 0..self.programs.len() {
            speed.maybe_probe();
            self.request(i, false, false, checks)?;
        }
        if self.store {
            self.baseline = self.store_entries()?;
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx, store: bool) -> Result<RunOut, String> {
    let programs = corpus::load(&ctx.corpus_dir)?;
    let mut cli = Cli::new(ctx, &programs, store);
    let mut checks = Checks::default();
    let mut table = Table::default();

    // Fitted over pooled runs: table builds suffer more than the probe in a
    // slow spell, process start-up and store reads about as much.
    let sensitivity = if store { 1.0 } else { 1.5 };
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    for r in 0..reps {
        let dir = ctx.work.join(format!("setup{r}"));
        let (secs, done) =
            speed::calibrated_secs(sensitivity, |log| cli.setup(dir, log, &mut checks));
        done?;
        setup_s.push(secs);
    }

    if !ctx.trace {
        // Whole passes only, so every run times the same mix of programs.
        let (mut reqs, mut rss_kb) = (Vec::new(), 0u64);
        let speed = SpeedLog::default();
        speed.probe();
        let start = Instant::now();
        let mut last_pass_s = 0.0;
        for p in 0.. {
            if p > 0 && start.elapsed().as_secs_f64() + last_pass_s > ctx.seconds {
                break;
            }
            let pass_t0 = Instant::now();
            for (i, edit) in cli.pass(p) {
                speed.maybe_probe();
                let run = cli.request(i, edit, false, &mut checks)?;
                reqs.push(Timed {
                    t0: run.t0,
                    t1: run.t1,
                    cpu_ns: run.cpu_us * 1000,
                });
                rss_kb = rss_kb.max(run.maxrss_kb);
            }
            last_pass_s = pass_t0.elapsed().as_secs_f64();
        }
        let end = Instant::now();
        speed.probe();
        let window = Window {
            spans: vec![(start, end)],
            reqs,
            total_cpu_ns: None,
            speed: speed.finish(),
            sensitivity,
        };
        crate::window_metrics(&mut table, &window)?;
        table.set("peak_rss_mb", rss_kb as f64 / 1024.0);
        table.set("setup_s", stats::median(&setup_s));
        return Ok(RunOut { table, checks });
    }

    if store {
        store_probe(&cli.dir.join("store"), &mut table)?;
    }
    // The same passes twice: untraced for the overhead baseline, then
    // traced. Edits get fresh tags, so both halves do the same work.
    let passes = ctx.traced_passes(if store { 30.0 } else { 2.0 });
    let mut untraced_ms = Vec::new();
    for p in 0..passes {
        for (i, edit) in cli.pass(p) {
            untraced_ms.push(cli.request(i, edit, false, &mut checks)?.wall_ns as f64 / 1e6);
        }
    }
    let mut tally = Tally::default();
    for p in 0..passes {
        for (i, edit) in cli.pass(p) {
            let run = cli.request(i, edit, true, &mut checks)?;
            let name = &programs[i].name;
            traced_request(&cli.dir, &run, &mut tally)
                .map_err(|e| format!("traced {name}: {e}"))?;
        }
    }
    tally.fill(&mut table);
    table.set(
        "telemetry.overhead_pct",
        (stats::median(&tally.wall_ms) / stats::median(&untraced_ms) - 1.0) * 100.0,
    );
    table.set("error_rate", checks.error_rate());
    Ok(RunOut { table, checks })
}

fn read_json(path: &Path) -> Result<maya::core::json::Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    maya::core::json::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Joins one traced child's wall time with the stats and span tree it
/// exported. The child's own session covers `total_ns`; the rest of its
/// wall time is process start-up and exit.
fn traced_request(dir: &Path, run: &ChildRun, tally: &mut Tally) -> Result<(), String> {
    let stats_doc = read_json(&dir.join("stats.json"))?;
    let total_ns = stats_doc
        .get("total_ns")
        .and_then(maya::core::json::Json::as_u64)
        .ok_or("stats without total_ns")?;
    let outside_ns = run.wall_ns.checked_sub(total_ns).ok_or_else(|| {
        format!(
            "child session ({total_ns} ns) outlasted the child ({} ns)",
            run.wall_ns
        )
    })?;
    let spans = layers::spans_of_chrome_trace(&read_json(&dir.join("trace.json"))?)?;
    tally.add_request(
        run.wall_ns,
        outside_ns,
        &spans,
        Work::of_stats_json(&stats_doc)?,
    )
}

/// `store.load_us` and `store.bytes`: `ArtifactStore::load` timed
/// in-process over every entry of the freshly populated store.
fn store_probe(dir: &Path, table: &mut Table) -> Result<(), String> {
    use maya::core::store::{ArtifactStore, Kind};
    let store =
        ArtifactStore::open(dir, None).map_err(|e| format!("open store {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    let mut bytes = 0u64;
    for item in std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .flatten()
    {
        let name = item.file_name().to_string_lossy().into_owned();
        let Some((key, ext)) = name.split_once('.') else {
            continue;
        };
        let (Some(kind), Ok(key)) = (
            Kind::ALL.into_iter().find(|k| k.ext() == ext),
            u128::from_str_radix(key, 16),
        ) else {
            continue;
        };
        bytes += item.metadata().map(|m| m.len()).unwrap_or(0);
        entries.push((kind, key));
    }
    entries.sort_by_key(|&(k, key)| (k.ext(), key));
    let mut load_us = Vec::with_capacity(entries.len());
    for (kind, key) in entries {
        let t0 = Instant::now();
        let hit = store.load(kind, key);
        load_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if hit.is_none() {
            return Err(format!(
                "store entry {key:032x}.{} failed to load",
                kind.ext()
            ));
        }
    }
    table.set("store.load_us", stats::median(&load_us));
    table.set("store.bytes", bytes as f64);
    Ok(())
}
