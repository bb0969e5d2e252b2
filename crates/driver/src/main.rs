//! `sim-driver` — run named scenarios end-to-end with checkpoint/restart.
//!
//! ```text
//! sim-driver list
//! sim-driver <scenario> [--config FILE] [--steps N] [--checkpoint-every K]
//!            [--keep-checkpoints K] [--out DIR | --no-output]
//!            [--restart CKPT] [--quiet] [--threads N] [--assert EXPR ...]
//!            [--allow-nonfinite] [--set key=value ...]
//! sim-driver batch <manifest.toml> [--jobs N] [--halt-after N] [--quiet]
//!            [--assert EXPR ...]
//! ```
//!
//! `batch` runs a simulation farm: a manifest of scenario jobs scheduled
//! over the persistent worker pool, resumable from per-job checkpoints
//! (see `driver::batch` for the manifest format). `--jobs N` caps
//! concurrent jobs (1 = sequential, 0 = pool width); `--halt-after N`
//! simulates a crash after `N` completed jobs.
//!
//! `--set` writes into the scenario's config section, overriding the file;
//! e.g. `sim-driver shear_pair --set order=8 --set dt=0.01`.
//!
//! `--threads N` pins every parallel stage of the step to `N` workers
//! (shorthand for `--set threads=N`; default 0 = available parallelism).
//! Trajectories are bit-identical at any thread count, so this only trades
//! wall time — and it survives `--restart`, since the checkpoint neither
//! stores nor restores the thread count.
//!
//! `--assert '<agg>(<column>)<op><value>'` (repeatable) turns the run into
//! a CI smoke test: `agg` is `sum`, `min` or `max` over the run's steps,
//! `column` is any `trajectory.csv` column, and `op` is `>=` or `<=`; e.g.
//! `--assert 'sum(contacts)>=10' --assert 'max(gmres_iters)<=29'`. With
//! any `--assert` given, the run exits nonzero unless every assertion
//! holds and every cell ends with finite coefficients, centroid and
//! volume. In batch mode the expression is a bare farm scalar instead:
//! `--assert 'cache_hits>=1'` or `--assert 'resumed>=1'` (see
//! `driver::assertion`).
//!
//! The run aborts by default the moment any cell's coefficients go
//! non-finite (naming the step, cell, and coefficient); pass
//! `--allow-nonfinite` to disable that guard and keep stepping anyway.

use driver::{final_checkpoint_path, Assertion, Doc, FarmOptions, Manifest, RunOptions, Session};
use sim::Checkpoint;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

struct Args {
    scenario: String,
    config: Option<PathBuf>,
    run: RunOptions,
    no_output: bool,
    restart: Option<PathBuf>,
    threads: Option<usize>,
    asserts: Vec<Assertion>,
    allow_nonfinite: bool,
    sets: Vec<String>,
    help: bool,
}

fn usage() -> String {
    let mut u = String::from(
        "usage: sim-driver <scenario|list> [--config FILE] [--steps N] \
         [--checkpoint-every K] [--keep-checkpoints K] \
         [--out DIR | --no-output] [--restart CKPT] \
         [--quiet] [--threads N] [--assert '<sum|min|max>(<column>)(>=|<=)<value>' ...] \
         [--allow-nonfinite] [--set key=value ...]\n       \
         sim-driver batch <manifest.toml> [--jobs N] [--halt-after N] \
         [--quiet] [--assert '(cache_hits|resumed)(>=|<=)<value>' ...]\n\nscenarios:\n",
    );
    for s in driver::registry() {
        u.push_str(&format!("  {:<18} {}\n", s.name, s.summary));
    }
    u
}

/// The value following `flag`.
fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed.
fn parsed<'a, T: FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: Display,
{
    value(it, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scenario: String::new(),
        config: None,
        run: RunOptions::default(),
        no_output: false,
        restart: None,
        threads: None,
        asserts: Vec::new(),
        allow_nonfinite: false,
        sets: Vec::new(),
        help: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => args.config = Some(value(&mut it, a)?.into()),
            "--steps" => args.run.steps = parsed(&mut it, a)?,
            "--checkpoint-every" => args.run.checkpoint_every = parsed(&mut it, a)?,
            "--keep-checkpoints" => args.run.keep_checkpoints = parsed(&mut it, a)?,
            "--out" => args.run.out_dir = Some(value(&mut it, a)?.into()),
            "--no-output" => args.no_output = true,
            "--restart" => args.restart = Some(value(&mut it, a)?.into()),
            "--quiet" => args.run.quiet = true,
            "--threads" => args.threads = Some(parsed(&mut it, a)?),
            "--assert" => args.asserts.push(Assertion::parse_run(value(&mut it, a)?)?),
            "--allow-nonfinite" => args.allow_nonfinite = true,
            "--set" => args.sets.push(value(&mut it, a)?.to_string()),
            "--help" | "-h" => args.help = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{}", usage()))
            }
            other => {
                if !args.scenario.is_empty() {
                    return Err(format!(
                        "two scenarios given: {} and {other}",
                        args.scenario
                    ));
                }
                args.scenario = other.to_string();
            }
        }
    }
    if args.scenario.is_empty() && !args.help {
        return Err(usage());
    }
    Ok(args)
}

/// Prints each passing assertion (unless `quiet`) and fails with every
/// failing one.
fn enforce(results: Vec<Result<String, String>>, quiet: bool) -> Result<(), String> {
    let mut failed = Vec::new();
    for r in results {
        match r {
            Ok(msg) if !quiet => println!("{msg}"),
            Ok(_) => {}
            Err(e) => failed.push(e),
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("\n"))
    }
}

/// `sim-driver batch <manifest.toml> [...]`: parse the manifest, run the
/// farm, enforce the `--assert` checks, exit nonzero on any failed job.
fn batch_main(argv: &[String]) -> Result<(), String> {
    let mut manifest_path: Option<PathBuf> = None;
    let mut opts = FarmOptions::default();
    let mut asserts = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => opts.jobs_parallel = parsed(&mut it, a)?,
            "--halt-after" => opts.halt_after = Some(parsed(&mut it, a)?),
            "--quiet" => opts.quiet = true,
            "--assert" => asserts.push(Assertion::parse_farm(value(&mut it, a)?)?),
            other if other.starts_with('-') => {
                return Err(format!("unknown batch flag {other}\n{}", usage()))
            }
            other => {
                if manifest_path.is_some() {
                    return Err(format!("two manifests given; second was {other}"));
                }
                manifest_path = Some(PathBuf::from(other));
            }
        }
    }
    let path = manifest_path.ok_or_else(|| format!("batch needs a manifest\n{}", usage()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let manifest = Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = driver::run_farm(&manifest, &opts)?;
    enforce(
        asserts.iter().map(|a| a.check_farm(&report)).collect(),
        opts.quiet,
    )?;
    if report.failed() > 0 {
        return Err(format!("{} farm job(s) failed", report.failed()));
    }
    // only count jobs as missing if the farm was supposed to run them
    if opts.halt_after.is_none() && report.completed() < manifest.jobs.len() {
        return Err(format!(
            "{}/{} farm jobs reached their target",
            report.completed(),
            manifest.jobs.len()
        ));
    }
    Ok(())
}

fn main_inner() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("batch") {
        return batch_main(&argv[1..]);
    }
    let mut args = parse_args(&argv)?;

    if args.help || args.scenario == "list" {
        print!("{}", usage());
        return Ok(());
    }

    // config: file, then --set overrides into the scenario's section
    let mut cfg = match &args.config {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            Doc::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
        }
        None => Doc::default(),
    };
    for s in &args.sets {
        let (key, value) = driver::toml::parse_override(s)?;
        cfg.set(&args.scenario, &key, value);
    }
    if let Some(n) = args.threads {
        cfg.set(&args.scenario, "threads", driver::Value::Int(n as i64));
    }

    let mut session = Session::build(&args.scenario, &cfg)?;
    session.fail_on_nonfinite = !args.allow_nonfinite;

    if let Some(ckpt_path) = &args.restart {
        let ckpt =
            Checkpoint::load(ckpt_path).map_err(|e| format!("{}: {e}", ckpt_path.display()))?;
        session.restore(&ckpt)?;
        if !args.sets.is_empty() {
            eprintln!(
                "warning: --restart restores the checkpoint's configuration; \
                 --set overrides of evolving-state parameters (dt, shear_rate, ...) \
                 are ignored for the restored run"
            );
        }
        if !args.run.quiet {
            println!(
                "restarted from {} at step {}",
                ckpt_path.display(),
                session.sim.steps
            );
        }
    }

    if args.no_output {
        args.run.out_dir = None;
    } else if args.run.out_dir.is_none() {
        args.run.out_dir = Some(PathBuf::from("target/driver").join(&args.scenario));
    }
    let report = session.run(&args.run).map_err(|e| e.to_string())?;

    if !args.asserts.is_empty() {
        let mut results: Vec<_> = args.asserts.iter().map(|a| a.check_run(&report)).collect();
        results.push(
            session
                .check_finite()
                .map(|()| {
                    format!(
                        "final state OK: all {} cells finite",
                        session.sim.cells.len()
                    )
                })
                .map_err(|e| format!("assertion failed: final state: {e}")),
        );
        enforce(results, args.run.quiet)?;
    }

    if !args.run.quiet {
        println!("\n{}", report.stage_table());
        if let Some(dir) = &args.run.out_dir {
            println!(
                "wrote per-step CSV and {} checkpoint(s) under {}; resume with:\n  sim-driver {} --restart {} --steps N",
                report.checkpoints.len(),
                dir.display(),
                args.scenario,
                final_checkpoint_path(dir, &args.scenario).display(),
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
