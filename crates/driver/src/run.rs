//! Run-loop records: [`StepRow`], [`RunReport`], [`RunOptions`], and the
//! `COLUMNS` table that names, reads and formats every `trajectory.csv`
//! column — the same names `sim-driver --assert` aggregates over.

use sim::{StepStats, StepTimers};
use std::path::{Path, PathBuf};
use Format::{Fixed, Int, Sci};

/// Controls for [`Session::run`](crate::Session::run).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Number of steps to take (on restart: *additional* steps).
    pub steps: usize,
    /// Write a checkpoint every `k` steps (0 = only the final one).
    pub checkpoint_every: usize,
    /// Cadence checkpoints to keep on disk (rotation): 0 = keep all,
    /// `k` = delete all but the newest `k` (the final-state checkpoint is
    /// never rotated). Long-horizon farm jobs use this so resumability
    /// does not cost one file per cadence tick.
    pub keep_checkpoints: usize,
    /// Directory for checkpoints and CSV output; `None` disables all
    /// file output.
    pub out_dir: Option<PathBuf>,
    /// Suppress the per-step progress lines.
    pub quiet: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            steps: 10,
            checkpoint_every: 0,
            keep_checkpoints: 0,
            out_dir: None,
            quiet: false,
        }
    }
}

/// One step's record.
#[derive(Clone, Copy, Debug)]
pub struct StepRow {
    /// Step index (1-based, global across restarts).
    pub step: usize,
    /// Component timers for this step.
    pub timers: StepTimers,
    /// Solver/contact diagnostics.
    pub stats: StepStats,
    /// Cells recycled outlet → inlet after this step.
    pub recycled: usize,
}

/// What a run produced.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Component timers summed over the executed steps.
    pub timers: StepTimers,
    /// Per-step records.
    pub rows: Vec<StepRow>,
    /// Checkpoints written, in order; the last one is the final state.
    pub checkpoints: Vec<PathBuf>,
}

impl RunReport {
    /// Renders the per-stage aggregate the paper's Figs. 4–6 tabulate.
    pub fn stage_table(&self) -> String {
        let t = &self.timers;
        let n = self.rows.len().max(1) as f64;
        let mut out = String::from("stage        total(s)  per-step(s)\n");
        for (name, v) in [
            ("COL", t.col),
            ("BIE-solve", t.bie_solve),
            ("BIE-FMM", t.bie_fmm),
            ("Other-FMM", t.other_fmm),
            ("Other", t.other),
        ] {
            out.push_str(&format!("{name:<11} {v:>9.3}  {:>11.4}\n", v / n));
        }
        out.push_str(&format!(
            "{:<11} {:>9.3}  {:>11.4}\n",
            "TOTAL",
            t.total(),
            t.total() / n
        ));
        out
    }
}

/// How a [`Column`] prints its value in `trajectory.csv`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Format {
    /// An integer count (`{}`).
    Int,
    /// Fixed-point with this many decimals (`{:.N}`).
    Fixed(usize),
    /// Scientific with this many mantissa decimals (`{:.Ne}`).
    Sci(usize),
}

/// One `trajectory.csv` column: its header name, its CSV format, and how
/// to read its value from a [`StepRow`].
pub(crate) struct Column {
    /// Header name (also the metric name `sim-driver --assert` takes).
    pub(crate) name: &'static str,
    /// How the value is printed.
    pub(crate) format: Format,
    /// The row's value; integer columns are exact in `f64`.
    pub(crate) get: fn(&StepRow) -> f64,
}

const fn col(name: &'static str, format: Format, get: fn(&StepRow) -> f64) -> Column {
    Column { name, format, get }
}

/// The per-step CSV columns, in file order.
pub(crate) const COLUMNS: &[Column] = &[
    col("step", Int, |r| r.step as f64),
    col("col_s", Fixed(6), |r| r.timers.col),
    col("bie_solve_s", Fixed(6), |r| r.timers.bie_solve),
    col("bie_fmm_s", Fixed(6), |r| r.timers.bie_fmm),
    col("other_fmm_s", Fixed(6), |r| r.timers.other_fmm),
    col("other_s", Fixed(6), |r| r.timers.other),
    col("total_s", Fixed(6), |r| r.timers.total()),
    col("gmres_iters", Int, |r| r.stats.bie_iterations as f64),
    col("contacts", Int, |r| r.stats.contacts as f64),
    col("ncp_iters", Int, |r| r.stats.ncp_iters as f64),
    col("recycled", Int, |r| r.recycled as f64),
    col("dt_effective", Fixed(8), |r| r.stats.dt_effective),
    col("dt_retries", Int, |r| r.stats.dt_retries as f64),
    col("max_edge_stretch", Fixed(4), |r| r.stats.max_edge_stretch),
    col("frozen_cells", Int, |r| r.stats.frozen_cells as f64),
    col("wall_fmm_builds", Int, |r| r.stats.wall_fmm_builds as f64),
    col("wall_fmm_replans", Int, |r| r.stats.wall_fmm_replans as f64),
    col("flux_imbalance", Sci(3), |r| r.stats.flux_imbalance),
];

/// The per-step CSV header line (newline-terminated).
pub(crate) fn csv_header() -> String {
    let names: Vec<&str> = COLUMNS.iter().map(|c| c.name).collect();
    names.join(",") + "\n"
}

impl StepRow {
    /// One CSV line (newline-terminated) for this row.
    pub(crate) fn csv_line(&self) -> String {
        let cells: Vec<String> = COLUMNS
            .iter()
            .map(|c| {
                let v = (c.get)(self);
                match c.format {
                    Int => format!("{}", v as u64),
                    Fixed(p) => format!("{v:.p$}"),
                    Sci(p) => format!("{v:.p$e}"),
                }
            })
            .collect();
        cells.join(",") + "\n"
    }
}

/// Path of a cadence checkpoint at the given step counter.
pub(crate) fn checkpoint_path(dir: &Path, scenario: &str, step: usize) -> PathBuf {
    dir.join(format!("{scenario}_step{step:06}.ckpt"))
}

/// Path of the final-state checkpoint a run writes.
pub fn final_checkpoint_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{scenario}_final.ckpt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_header_is_pinned() {
        assert_eq!(
            csv_header(),
            "step,col_s,bie_solve_s,bie_fmm_s,other_fmm_s,other_s,total_s,gmres_iters,contacts,ncp_iters,recycled,dt_effective,dt_retries,max_edge_stretch,frozen_cells,wall_fmm_builds,wall_fmm_replans,flux_imbalance\n"
        );
    }

    #[test]
    fn stage_table_and_csv_render() {
        let mut report = RunReport::default();
        let t = StepTimers {
            col: 0.5,
            bie_solve: 0.25,
            ..Default::default()
        };
        report.timers.accumulate(&t);
        report.rows.push(StepRow {
            step: 1,
            timers: t,
            stats: StepStats {
                bie_iterations: 12,
                contacts: 3,
                dt_effective: 0.005,
                dt_retries: 2,
                max_edge_stretch: 1.25,
                frozen_cells: 1,
                wall_fmm_builds: 1,
                wall_fmm_replans: 4,
                flux_imbalance: 2.5e-13,
                ..Default::default()
            },
            recycled: 1,
        });
        let table = report.stage_table();
        assert!(table.contains("COL") && table.contains("0.500"), "{table}");
        // every column's precision, byte for byte
        assert_eq!(
            report.rows[0].csv_line(),
            "1,0.500000,0.250000,0.000000,0.000000,0.000000,0.750000,12,3,0,1,\
                   0.00500000,2,1.2500,1,1,4,2.500e-13\n"
        );
    }
}
