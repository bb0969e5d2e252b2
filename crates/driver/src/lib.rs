//! # driver — the scenario-driven simulation harness
//!
//! Everything needed to run end-to-end `sim::Simulation` workloads from
//! declarative configs:
//!
//! - [`toml`]: a hand-rolled parser for the TOML subset scenario files use
//!   (the environment is offline, so no external parser crates);
//! - [`scenario`]: the registry of named scenario builders (shear pair,
//!   sedimentation, vessel flow, dense fill, Poiseuille cell train, random
//!   suspension) shared by `examples/`, `sim-driver`, and `step_bench`;
//! - [`session`]: the composable run layer — [`Session`] owns a built
//!   scenario and steps it resumably, streaming each step through
//!   pluggable [`StepSink`] observers (console table, CSV stream, cadence
//!   checkpointer);
//! - [`batch`]: the simulation farm — `sim-driver batch <manifest.toml>`
//!   schedules many scenario jobs over the persistent worker pool with
//!   shared immutable caches and a checkpoint-resumable queue;
//! - [`physio`]: the physiology observer — [`PhysioSink`] streams
//!   apparent viscosity, cell-free layer, and branch hematocrit split
//!   (from [`sim::physio`]) as one CSV row per step;
//! - [`mod@run`]: the run records ([`RunOptions`], [`RunReport`],
//!   [`StepRow`]) and the column table behind `trajectory.csv`;
//! - [`assertion`]: the `sim-driver --assert` expressions over those
//!   columns (and the farm's scalars) that turn a run into a CI smoke.
//!
//! The `sim-driver` binary is the CLI front end:
//!
//! ```text
//! cargo run --release -p driver -- list
//! cargo run --release -p driver -- shear_pair --steps 20
//! cargo run --release -p driver -- vessel_flow --config scenarios/vessel_flow.toml
//! cargo run --release -p driver -- shear_pair --restart target/driver/shear_pair/shear_pair_final.ckpt --steps 10
//! cargo run --release -p driver -- batch scenarios/farm_smoke.toml
//! ```

#![warn(missing_docs)]

pub mod assertion;
pub mod batch;
pub mod physio;
pub mod run;
pub mod scenario;
pub mod session;
pub mod toml;

pub use assertion::Assertion;
pub use batch::{run_farm, FarmOptions, FarmReport, JobOutcome, JobSpec, JobStatus, Manifest};
pub use physio::{PhysioRow, PhysioSink, PHYSIO_CSV_HEADER};
pub use run::{final_checkpoint_path, RunOptions, RunReport, StepRow};
pub use scenario::{build, registry, Built, ScenarioSpec};
pub use session::{CacheTelemetry, CheckpointSink, ConsoleSink, CsvSink, Session, StepSink};
pub use toml::{Doc, Value};
