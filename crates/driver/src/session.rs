//! The composable run layer: scenario build / step loop / IO split.
//!
//! - **build**: [`Session::build`] goes registry → ready-to-step
//!   [`Simulation`] (through the process-wide shared immutable caches —
//!   FMM operator tables in [`fmm::ops`], refined wall surfaces in
//!   [`sim::caches`]) and carries the per-step policy (outlet recycling,
//!   the non-finite guard) with the state it applies to;
//! - **step loop**: [`Session::step`] is the resumable stepper — one call,
//!   one committed step, one [`StepRow`] of per-stage timers and
//!   [`sim::StepStats`]; [`Session::drive`] folds it over N steps;
//! - **IO sinks**: [`StepSink`] observers ([`ConsoleSink`], [`CsvSink`],
//!   [`CheckpointSink`]) receive each row as it happens, so output
//!   streams and checkpoints survive a kill at any step. They are
//!   pluggable: the batch farm, the CLI, and the examples wire different
//!   sink sets over the same loop, and [`Session::run`] is the full
//!   console + CSV + checkpoint composition the CLI and the farm share.

use crate::run::{
    checkpoint_path, csv_header, final_checkpoint_path, RunOptions, RunReport, StepRow,
};
use crate::toml::Doc;
use sim::{Checkpoint, Simulation};
use std::io;
use std::path::{Path, PathBuf};

/// A per-step observer plugged into the step loop.
///
/// Sinks are called in the order they are passed to [`Session::drive`]; any error
/// aborts the run (the step itself is already committed — sinks observe,
/// they do not vote).
pub trait StepSink {
    /// Called once before the first step.
    fn on_start(&mut self, _sim: &Simulation) -> io::Result<()> {
        Ok(())
    }
    /// Called after every committed step with the step's record.
    fn on_step(&mut self, sim: &Simulation, row: &StepRow) -> io::Result<()>;
    /// Called once after the last step.
    fn on_finish(&mut self, _sim: &Simulation) -> io::Result<()> {
        Ok(())
    }
}

/// Prints the monolith-era progress lines: a two-line header, then one
/// line per step.
pub struct ConsoleSink {
    scenario: String,
    steps: usize,
}

impl ConsoleSink {
    /// A console sink announcing `scenario` over `steps` steps.
    pub fn new(scenario: impl Into<String>, steps: usize) -> ConsoleSink {
        ConsoleSink {
            scenario: scenario.into(),
            steps,
        }
    }
}

impl StepSink for ConsoleSink {
    fn on_start(&mut self, sim: &Simulation) -> io::Result<()> {
        println!(
            "{}: {} cells, {} dofs, dt = {}, {} steps",
            self.scenario,
            sim.cells.len(),
            sim.dofs(),
            sim.config.dt,
            self.steps
        );
        println!("step  total(s)  COL(s)  BIE(s)  gmres  contacts  recycled  dt_eff  retries");
        Ok(())
    }

    fn on_step(&mut self, _sim: &Simulation, row: &StepRow) -> io::Result<()> {
        let t = row.timers;
        println!(
            "{:>4}  {:>8.3}  {:>6.3}  {:>6.3}  {:>5}  {:>8}  {:>8}  {:>6.4}  {:>7}",
            row.step,
            t.total(),
            t.col,
            t.bie_solve + t.bie_fmm,
            row.stats.bie_iterations,
            row.stats.contacts,
            row.recycled,
            row.stats.dt_effective,
            row.stats.dt_retries
        );
        Ok(())
    }
}

/// Streams rows to a CSV file as they happen, so a killed run keeps
/// everything up to its last completed step.
pub struct CsvSink {
    file: std::fs::File,
}

impl CsvSink {
    /// Creates (truncating) `path` and writes the column header.
    pub fn create(path: &Path) -> io::Result<CsvSink> {
        let mut file = std::fs::File::create(path)?;
        io::Write::write_all(&mut file, csv_header().as_bytes())?;
        Ok(CsvSink { file })
    }

    /// The trajectory CSV name for a run starting at step counter
    /// `start_step`: continuation runs (restarts) get their own file
    /// instead of overwriting the earlier portion of the trajectory.
    pub fn trajectory_name(start_step: usize) -> String {
        if start_step == 0 {
            "trajectory.csv".to_string()
        } else {
            format!("trajectory_from_{:06}.csv", start_step + 1)
        }
    }
}

impl StepSink for CsvSink {
    fn on_step(&mut self, _sim: &Simulation, row: &StepRow) -> io::Result<()> {
        io::Write::write_all(&mut self.file, row.csv_line().as_bytes())
    }
}

/// Writes cadence checkpoints every `every` steps (0 = none), rotates them
/// down to the newest `keep` (0 = keep all), and writes the final-state
/// checkpoint after the last step.
pub struct CheckpointSink {
    dir: PathBuf,
    scenario: String,
    every: usize,
    keep: usize,
    /// Cadence checkpoints currently on disk from this run, oldest first.
    cadence: Vec<PathBuf>,
    /// All surviving checkpoints written by this run, in write order (the
    /// final-state checkpoint last) — what [`RunReport::checkpoints`]
    /// reports.
    pub written: Vec<PathBuf>,
}

impl CheckpointSink {
    /// A checkpoint sink writing into `dir` under `scenario`'s name.
    pub fn new(
        dir: impl Into<PathBuf>,
        scenario: impl Into<String>,
        every: usize,
        keep: usize,
    ) -> CheckpointSink {
        CheckpointSink {
            dir: dir.into(),
            scenario: scenario.into(),
            every,
            keep,
            cadence: Vec::new(),
            written: Vec::new(),
        }
    }
}

impl StepSink for CheckpointSink {
    fn on_step(&mut self, sim: &Simulation, _row: &StepRow) -> io::Result<()> {
        if self.every == 0 || !sim.steps.is_multiple_of(self.every) {
            return Ok(());
        }
        let path = checkpoint_path(&self.dir, &self.scenario, sim.steps);
        Checkpoint::write(sim, &self.scenario, &path)?;
        self.cadence.push(path.clone());
        self.written.push(path);
        // rotation: long-horizon farm jobs would otherwise accumulate one
        // file per cadence tick; resume only ever needs the newest
        while self.keep > 0 && self.cadence.len() > self.keep {
            let old = self.cadence.remove(0);
            std::fs::remove_file(&old)?;
            self.written.retain(|p| p != &old);
        }
        Ok(())
    }

    fn on_finish(&mut self, sim: &Simulation) -> io::Result<()> {
        let path = final_checkpoint_path(&self.dir, &self.scenario);
        Checkpoint::write(sim, &self.scenario, &path)?;
        self.written.push(path);
        Ok(())
    }
}

/// Scans every cell's shape coefficients for NaN/∞; returns the first
/// offender as `(cell, component, coefficient index)`.
fn first_nonfinite(sim: &Simulation) -> Option<(usize, usize, usize)> {
    for (ci, cell) in sim.cells.iter().enumerate() {
        for (comp, coeffs) in cell.coeffs.iter().enumerate() {
            if let Some(k) = coeffs.data.iter().position(|v| !v.is_finite()) {
                return Some((ci, comp, k));
            }
        }
    }
    None
}

/// One step of the step loop: advance, guard, recycle, record.
fn step_once(sim: &mut Simulation, recycle: bool, fail_on_nonfinite: bool) -> io::Result<StepRow> {
    let t = sim.step();
    if fail_on_nonfinite {
        if let Some((ci, comp, k)) = first_nonfinite(sim) {
            return Err(io::Error::other(format!(
                "non-finite state after step {}: cell {ci}, component {}, \
                 coefficient {k} (rerun with --allow-nonfinite to continue anyway)",
                sim.steps,
                ["x", "y", "z"][comp],
            )));
        }
    }
    let recycled = if recycle { sim.recycle_cells() } else { 0 };
    Ok(StepRow {
        step: sim.steps,
        timers: t,
        stats: sim.last_stats,
        recycled,
    })
}

/// An owned scenario run: the simulation plus the per-step policy and the
/// name that ties its checkpoints back to the registry.
///
/// Where [`crate::build`] returns the raw parts, a `Session` is the
/// steppable unit the farm schedules and the examples iterate:
/// [`Session::step`] advances one step at a time (resumable — call it
/// whenever), [`Session::run`] composes the full sink set.
pub struct Session {
    /// Registry name (stored in checkpoints so a restart can rebuild).
    pub scenario: String,
    /// The live simulation.
    pub sim: Simulation,
    /// Recycle outlet cells into the inlet after each step.
    pub recycle: bool,
    /// Abort the run (with an error naming the step, cell, and
    /// coefficient) the moment any cell's shape coefficients go
    /// non-finite. On by default: a NaN that survives the adaptive
    /// stepper's own gates means the simulation state is garbage and
    /// every later step wastes time.
    pub fail_on_nonfinite: bool,
}

impl Session {
    /// Builds registry scenario `name` from `cfg` (through the shared
    /// immutable caches) into a ready-to-step session.
    pub fn build(name: &str, cfg: &Doc) -> Result<Session, String> {
        let built = crate::build(name, cfg)?;
        Ok(Session {
            scenario: name.to_string(),
            sim: built.sim,
            recycle: built.recycle,
            fail_on_nonfinite: true,
        })
    }

    /// Restores a checkpoint into this session, rejecting checkpoints
    /// from a different scenario (their domains cannot match).
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), String> {
        if ckpt.scenario != self.scenario {
            return Err(format!(
                "checkpoint is from scenario `{}`, not `{}`",
                ckpt.scenario, self.scenario
            ));
        }
        ckpt.restore_into(&mut self.sim).map_err(|e| e.to_string())
    }

    /// Takes one committed step and returns its record. Resumable: the
    /// step counter (and the CSV/ckpt numbering derived from it) carries
    /// across calls, checkpoint restores, and process restarts.
    pub fn step(&mut self) -> io::Result<StepRow> {
        step_once(&mut self.sim, self.recycle, self.fail_on_nonfinite)
    }

    /// Runs `steps` steps, feeding every row to each sink in order.
    /// Returns the aggregate report; `report.checkpoints` stays empty —
    /// checkpoint paths live in the [`CheckpointSink`] that wrote them.
    pub fn drive(
        &mut self,
        steps: usize,
        sinks: &mut [&mut dyn StepSink],
    ) -> io::Result<RunReport> {
        for sink in sinks.iter_mut() {
            sink.on_start(&self.sim)?;
        }
        let mut report = RunReport::default();
        for _ in 0..steps {
            let row = self.step()?;
            report.timers.accumulate(&row.timers);
            for sink in sinks.iter_mut() {
                sink.on_step(&self.sim, &row)?;
            }
            report.rows.push(row);
        }
        for sink in sinks.iter_mut() {
            sink.on_finish(&self.sim)?;
        }
        Ok(report)
    }

    /// Runs with the full sink set: a console table unless `opts.quiet`,
    /// and with `opts.out_dir` a streaming `trajectory.csv` plus cadence
    /// and final checkpoints (listed in the report's `checkpoints`).
    pub fn run(&mut self, opts: &RunOptions) -> io::Result<RunReport> {
        if let Some(dir) = &opts.out_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut console = (!opts.quiet).then(|| ConsoleSink::new(&self.scenario, opts.steps));
        let mut csv = match &opts.out_dir {
            Some(dir) => Some(CsvSink::create(
                &dir.join(CsvSink::trajectory_name(self.sim.steps)),
            )?),
            None => None,
        };
        let mut ckpt = opts.out_dir.as_ref().map(|dir| {
            CheckpointSink::new(
                dir,
                &self.scenario,
                opts.checkpoint_every,
                opts.keep_checkpoints,
            )
        });
        let mut sinks: Vec<&mut dyn StepSink> = Vec::with_capacity(3);
        if let Some(s) = console.as_mut() {
            sinks.push(s);
        }
        if let Some(s) = csv.as_mut() {
            sinks.push(s);
        }
        if let Some(s) = ckpt.as_mut() {
            sinks.push(s);
        }
        let mut report = self.drive(opts.steps, &mut sinks)?;
        if let Some(c) = ckpt {
            report.checkpoints = c.written;
        }
        Ok(report)
    }

    /// Checks that every cell's coefficients, centroid and volume are
    /// finite; the error names the first offender.
    pub fn check_finite(&self) -> Result<(), String> {
        if let Some((ci, comp, k)) = first_nonfinite(&self.sim) {
            return Err(format!(
                "cell {ci} component {} coefficient {k} is not finite",
                ["x", "y", "z"][comp]
            ));
        }
        for (ci, cell) in self.sim.cells.iter().enumerate() {
            let g = cell.geometry(&self.sim.basis);
            let (c, vol) = (g.centroid(), g.volume());
            if !c.is_finite() || !vol.is_finite() {
                return Err(format!(
                    "cell {ci} ended non-finite (centroid {c:?}, volume {vol})"
                ));
            }
        }
        Ok(())
    }
}

/// Snapshot of the process-wide shared-cache counters (cumulative).
///
/// The farm reports the delta over its run window: `hits > 0` is the
/// acceptance signal that jobs actually shared immutable state instead of
/// re-paying cold builds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTelemetry {
    /// Cold refined-wall-surface builds ([`sim::caches`]).
    pub surface_builds: u64,
    /// Refined-wall-surface cache hits.
    pub surface_hits: u64,
    /// Cold FMM operator-table builds ([`fmm::ops`]).
    pub fmm_op_builds: u64,
    /// FMM operator-table cache hits.
    pub fmm_op_hits: u64,
}

impl CacheTelemetry {
    /// Current cumulative counters.
    pub fn snapshot() -> CacheTelemetry {
        let s = sim::surface_cache_stats();
        let f = fmm::ops_cache_stats();
        CacheTelemetry {
            surface_builds: s.builds,
            surface_hits: s.hits,
            fmm_op_builds: f.builds,
            fmm_op_hits: f.hits,
        }
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &CacheTelemetry) -> CacheTelemetry {
        CacheTelemetry {
            surface_builds: self.surface_builds.saturating_sub(earlier.surface_builds),
            surface_hits: self.surface_hits.saturating_sub(earlier.surface_hits),
            fmm_op_builds: self.fmm_op_builds.saturating_sub(earlier.fmm_op_builds),
            fmm_op_hits: self.fmm_op_hits.saturating_sub(earlier.fmm_op_hits),
        }
    }

    /// Total cache hits across all shared caches.
    pub fn hits(&self) -> u64 {
        self.surface_hits + self.fmm_op_hits
    }

    /// Total cold builds across all shared caches.
    pub fn builds(&self) -> u64 {
        self.surface_builds + self.fmm_op_builds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml::Value;

    fn tiny_session() -> Session {
        let mut cfg = Doc::default();
        cfg.set("shear_pair", "order", Value::Int(6));
        Session::build("shear_pair", &cfg).unwrap()
    }

    /// A sink that records the step indices it observed plus the
    /// start/finish hooks — pins the observer contract.
    #[derive(Default)]
    struct Recorder {
        started: usize,
        finished: usize,
        steps: Vec<usize>,
    }

    impl StepSink for Recorder {
        fn on_start(&mut self, _sim: &Simulation) -> io::Result<()> {
            self.started += 1;
            Ok(())
        }
        fn on_step(&mut self, sim: &Simulation, row: &StepRow) -> io::Result<()> {
            assert_eq!(sim.steps, row.step, "row observed out of sync");
            self.steps.push(row.step);
            Ok(())
        }
        fn on_finish(&mut self, _sim: &Simulation) -> io::Result<()> {
            self.finished += 1;
            Ok(())
        }
    }

    #[test]
    fn session_step_is_resumable_across_drive_calls() {
        let mut s = tiny_session();
        let r1 = s.step().unwrap();
        assert_eq!(r1.step, 1);
        let mut rec = Recorder::default();
        {
            let mut sinks: Vec<&mut dyn StepSink> = vec![&mut rec];
            s.drive(2, &mut sinks).unwrap();
        }
        assert_eq!(rec.started, 1);
        assert_eq!(rec.finished, 1);
        assert_eq!(rec.steps, vec![2, 3], "global step counter must carry");
        assert_eq!(s.sim.steps, 3);
    }

    #[test]
    fn checkpoint_sink_rotates_cadence_files() {
        let mut s = tiny_session();
        let dir = std::env::temp_dir().join(format!("session_rotate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut ckpt = CheckpointSink::new(&dir, "shear_pair", 1, 2);
        {
            let mut sinks: Vec<&mut dyn StepSink> = vec![&mut ckpt];
            s.drive(4, &mut sinks).unwrap();
        }
        // keep = 2: steps 3 and 4 survive, 1 and 2 rotated away, plus final
        let names: Vec<String> = ckpt
            .written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "shear_pair_step000003.ckpt",
                "shear_pair_step000004.ckpt",
                "shear_pair_final.ckpt"
            ],
            "{names:?}"
        );
        for p in &ckpt.written {
            assert!(p.exists(), "{} missing", p.display());
        }
        assert!(!checkpoint_path(&dir, "shear_pair", 1).exists());
        assert!(!checkpoint_path(&dir, "shear_pair", 2).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_rejects_wrong_scenario() {
        let mut s = tiny_session();
        let ckpt = Checkpoint::capture(&s.sim, "sedimentation");
        let e = s.restore(&ckpt).unwrap_err();
        assert!(
            e.contains("sedimentation") && e.contains("shear_pair"),
            "{e}"
        );
    }

    #[test]
    fn cache_telemetry_deltas() {
        let a = CacheTelemetry {
            surface_builds: 1,
            surface_hits: 2,
            fmm_op_builds: 3,
            fmm_op_hits: 5,
        };
        let b = CacheTelemetry {
            surface_builds: 1,
            surface_hits: 4,
            fmm_op_builds: 4,
            fmm_op_hits: 9,
        };
        let d = b.since(&a);
        assert_eq!(d.surface_builds, 0);
        assert_eq!(d.surface_hits, 2);
        assert_eq!(d.fmm_op_builds, 1);
        assert_eq!(d.fmm_op_hits, 4);
        assert_eq!(d.hits(), 6);
        assert_eq!(d.builds(), 1);
    }
}
