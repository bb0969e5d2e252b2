//! `perfbench`: runs one seeded workload of the RBC-in-vessel solver
//! through `driver::Session` and prints its metrics.
//!
//! ```text
//! perfbench --workload <shear_free|packed_column|vessel_refined> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (set-up, step and run time,
//! simulated time per second, peak memory) and the attempted and failed
//! step counts. `--trace 1` repeats the same workload and seed twice in one process — once
//! untraced, once with in-memory spans around timed calls into each layer
//! after every step — checks that both runs took the same trajectory, and
//! prints the per-layer metrics. The last stdout line is the JSON result;
//! the lines before it are human-readable context. Normally run through
//! `python3 perfbench/run.py`, which builds this binary first.

use bie::{closest_points, LayerKernel};
use collision::{detect_contacts, triangulate_latlon, DetectOptions, TriMesh};
use driver::{Doc, Session};
use fmm::Fmm;
use kernels::{direct_eval, StokesDL, StokesEquiv, StokesSL};
use linalg::Vec3;
use perfbench::{
    json_str, mean, median, percentile, result_json, trajectory_counters, Metric, SplitMix64,
    StepRecord, Tally, Tracer,
};
use sim::{Checkpoint, Simulation};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use vesicle::{implicit_substep_chain, StepOptions};

/// Cold set-up samples per run: each builds the session in a fresh child
/// process, so every sample pays the process-wide cache fills a user's
/// run pays once. A run takes at least the minimum, then more while
/// their total stays under the budget (cheap set-ups get more samples),
/// up to the maximum; the run's own build is one more sample.
const SETUP_SAMPLES_MIN: usize = 4;
const SETUP_SAMPLES_MAX: usize = 32;
const SETUP_BUDGET_S: f64 = 4.0;

/// A traced run measures this share of the untraced run's steps in each
/// of its two passes.
const TRACE_STEP_SHARE: usize = 3;

/// Targets sampled for the FMM accuracy check against direct summation.
const FMM_ERR_SAMPLE: usize = 96;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ShearFree,
    PackedColumn,
    VesselRefined,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ShearFree,
        Workload::PackedColumn,
        Workload::VesselRefined,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ShearFree => "shear_free",
            Workload::PackedColumn => "packed_column",
            Workload::VesselRefined => "vessel_refined",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The registry scenario the workload builds.
    fn scenario(self) -> &'static str {
        match self {
            Workload::ShearFree => "shear_pair",
            Workload::PackedColumn => "dense_fill_packed",
            Workload::VesselRefined => "vessel_flow",
        }
    }

    /// Wall seconds per steady step on the reference host (2 cores, see
    /// README.md): sets how many steps fill a `--seconds` budget, so the
    /// step count, and with it the measured trajectory, depends only on
    /// `--seconds` and never on how fast the program is.
    fn nominal_step_s(self) -> f64 {
        match self {
            Workload::ShearFree => 0.25,
            Workload::PackedColumn => 2.5,
            Workload::VesselRefined => 14.0,
        }
    }

    /// Measured steps for a `seconds` budget (at least two).
    fn steps(self, seconds: f64) -> usize {
        ((seconds / self.nominal_step_s()).ceil() as usize).max(2)
    }

    /// The scenario config the program receives, generated from `seed`.
    fn config(self, seed: u64, threads: usize) -> String {
        let sec = self.scenario();
        let body = match self {
            // the step_bench section, with the pair geometry perturbed
            // within ±0.05 of its defaults (separation 1.4, offset 0.25)
            Workload::ShearFree => {
                let mut g = SplitMix64::new(seed);
                let sep = 1.4 + g.uniform(-0.05, 0.05);
                let off = 0.25 + g.uniform(-0.05, 0.05);
                format!("order = 12\ndt = 0.02\nseparation_x = {sep:?}\noffset_z = {off:?}\n")
            }
            // registry defaults: 14 cells, order 6, ~40% hematocrit
            Workload::PackedColumn => format!("seed = {seed}\n"),
            // the step_bench section on the twice-refined wall
            Workload::VesselRefined => format!(
                "order = 6\ntube_segments = 3\nfill_h = 1.3\npatch_order = 6\n\
                 wall_refine = 2\nseed = {seed}\n"
            ),
        };
        format!("[{sec}]\n{body}threads = {threads}\n")
    }

    fn vessel(self) -> bool {
        self != Workload::ShearFree
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    commit: String,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = None;
    let mut commit = "unknown".to_string();
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}`; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                let s: u64 = value.parse().map_err(|e| format!("--seed: {e}"))?;
                if s > i64::MAX as u64 {
                    return Err("--seed must fit in a signed 64-bit integer".into());
                }
                seed = Some(s);
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_only {
            seconds.unwrap_or(1.0)
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace,
        out,
        commit,
        setup_only,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn all_finite(sim: &Simulation) -> bool {
    sim.cells.iter().all(|c| {
        c.coeffs
            .iter()
            .all(|k| k.data.iter().all(|v| v.is_finite()))
    })
}

/// FNV-1a over every cell coefficient's bits: equal digests mean
/// bit-identical cell states.
fn state_digest(sim: &Simulation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in &sim.cells {
        for k in &c.coeffs {
            for v in &k.data {
                for b in v.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}

fn cell_volumes(sim: &Simulation) -> Vec<f64> {
    sim.cells
        .iter()
        .map(|c| c.geometry(&sim.basis).volume())
        .collect()
}

fn cell_centroids(sim: &Simulation) -> Vec<Vec3> {
    sim.cells
        .iter()
        .map(|c| {
            let p = c.positions(&sim.basis);
            p.iter().fold(Vec3::ZERO, |a, &b| a + b) * (1.0 / p.len() as f64)
        })
        .collect()
}

/// Per-layer probe accumulators of the traced run (sums over steps;
/// timings live in the tracer's spans).
#[derive(Default)]
struct ProbeTotals {
    implicit_iters: usize,
    pair_evals: f64,
    near: usize,
    closest_targets: usize,
    fmm_sources: usize,
    fmm_targets: usize,
    fmm_rel_err: Vec<f64>,
    detect_contacts: usize,
}

/// The traced run's state: spans plus counts, and the probe FMM built
/// over the wall on the first traced step.
struct Probe {
    tracer: Tracer,
    totals: ProbeTotals,
    wall_fmm: Option<Fmm<StokesDL, StokesEquiv>>,
}

/// The check points of the solve's on-surface targets: `p + 1` per coarse
/// node along the inward normal (the same geometry the solver's matvec
/// evaluates at, rebuilt from the solver's public fields).
fn check_points(v: &sim::Vessel) -> Vec<Vec3> {
    let s = &v.solver;
    let quad = &s.quad;
    let p1 = s.opts.p_extrap + 1;
    let mut out = Vec::with_capacity(quad.len() * p1);
    for l in 0..quad.len() {
        let (big_r, r) = s
            .opts
            .check
            .distances(quad.patch_size(quad.patch_of[l] as usize));
        for i in 0..p1 {
            out.push(quad.points[l] - quad.normals[l] * (big_r + i as f64 * r));
        }
    }
    out
}

/// Timed calls into each layer's public functions on the state a step
/// just committed. Runs outside the `Session::step` span, and leaves the
/// solver's per-step counters drained so the next step reports only its
/// own work.
fn probe_step(p: &mut Probe, sim: &Simulation) {
    let Probe {
        tracer,
        totals: t,
        wall_fmm,
    } = p;
    tracer.span("trace.probes", |tr| probe_layers(tr, t, wall_fmm, sim));
}

fn probe_layers(
    tr: &mut Tracer,
    t: &mut ProbeTotals,
    wall_fmm: &mut Option<Fmm<StokesDL, StokesEquiv>>,
    sim: &Simulation,
) {
    let basis = &sim.basis;
    // vesicle: per-cell geometry, forces, self-interaction, implicit update
    let shear = sim.config.shear_rate;
    let opts = StepOptions {
        dt: sim.config.dt,
        ..sim.config.step
    };
    let mut src_pts = Vec::new();
    let mut src_f = Vec::new();
    for cell in &sim.cells {
        let geo = tr.span("vesicle.geometry", |_| cell.geometry(basis));
        let force = tr.span("vesicle.membrane_force", |_| {
            cell.membrane_force(basis, &geo)
        });
        let selfop = tr.span("vesicle.self_interaction", |_| cell.self_interaction(basis));
        let b: Vec<Vec3> = geo
            .x
            .iter()
            .map(|x| Vec3::new(shear * x.z, 0.0, 0.0))
            .collect();
        let (_, res) = tr.span("vesicle.implicit_step", |_| {
            implicit_substep_chain(basis, cell, &selfop, &b, &opts, 1)
        });
        t.implicit_iters += res.iterations;
        for (i, x) in geo.x.iter().enumerate() {
            let wf = (force[i] + sim.config.gravity) * geo.w_quad[i];
            src_pts.push(*x);
            src_f.extend_from_slice(&[wf.x, wf.y, wf.z]);
        }
    }
    // kernels: the cell–cell Stokes single-layer sum over all cell points
    let mu = sim.cells.first().map_or(1.0, |c| c.params.mu);
    let mut u = vec![0.0; src_pts.len() * 3];
    tr.span("kernels.direct_eval", |_| {
        direct_eval(&StokesSL { mu }, &src_pts, &src_f, &src_pts, &mut u)
    });
    t.pair_evals += (src_pts.len() * src_pts.len()) as f64;

    if let (Some(v), Some(phi)) = (&sim.vessel, &sim.bie_warm) {
        let solver = &v.solver;
        // bie: one matvec, the closest-point search, and eval_at at the
        // cell points with the step's density
        let mut out = vec![0.0; phi.len()];
        tr.span("bie.matvec", |_| solver.apply(phi, &mut out));
        let hits = tr.span("bie.closest", |_| {
            closest_points(
                &solver.surface,
                &solver.quad,
                &src_pts,
                solver.opts.near_factor,
            )
        });
        t.near += hits.iter().filter(|h| h.is_some()).count();
        t.closest_targets += hits.len();
        tr.span("bie.eval_at", |_| solver.eval_at(phi, &src_pts));
        // fmm: the wall density at the solve's check points
        let checks = check_points(v);
        let fine =
            solver
                .fine
                .upsample_density(phi, 3, solver.surface.num_patches(), solver.surface.q);
        let mut src = vec![0.0; solver.fine.len() * 6];
        for (j, o) in src.chunks_mut(6).enumerate() {
            StokesDL.pack(
                &fine[3 * j..3 * j + 3],
                solver.fine.normals[j],
                solver.fine.weights[j],
                o,
            );
        }
        let fmm = match wall_fmm {
            Some(f) => f,
            slot => tr.span("fmm.build", |_| {
                slot.insert(Fmm::frozen(
                    StokesDL,
                    StokesEquiv { mu: v.mu },
                    &solver.fine.points,
                    &checks,
                    solver.opts.fmm,
                ))
            }),
        };
        let vals = tr.span("fmm.evaluate", |_| fmm.evaluate_at(&src, &checks));
        t.fmm_sources += solver.fine.len();
        t.fmm_targets += checks.len();
        let stride = (checks.len() / FMM_ERR_SAMPLE).max(1);
        let sample: Vec<usize> = (0..checks.len()).step_by(stride).collect();
        let pts: Vec<Vec3> = sample.iter().map(|&i| checks[i]).collect();
        let mut exact = vec![0.0; pts.len() * 3];
        direct_eval(&StokesDL, &solver.fine.points, &src, &pts, &mut exact);
        let (mut num, mut den) = (0.0, 0.0);
        for (k, &i) in sample.iter().enumerate() {
            for c in 0..3 {
                num += (vals[3 * i + c] - exact[3 * k + c]).powi(2);
                den += exact[3 * k + c].powi(2);
            }
        }
        t.fmm_rel_err
            .push(if den > 0.0 { (num / den).sqrt() } else { 0.0 });
        // the probes' far-field time and plan activity are not the next
        // step's: drain them
        solver.take_fmm_nanos();
        solver.take_eval_fmm_counters();
    }

    // collision: contact detection on the committed cell and wall meshes
    let nc = sim.cells.len();
    let mut meshes: Vec<TriMesh> = sim
        .cells
        .iter()
        .map(|c| {
            let (pts, nlat, nlon, n0, s0) = c.collision_points(basis, sim.config.col_upsample);
            triangulate_latlon(&pts, nlat, nlon, n0, s0)
        })
        .collect();
    let mut obj_of: Vec<u32> = (0..nc as u32).collect();
    if let Some(v) = &sim.vessel {
        meshes.extend(v.meshes.iter().cloned());
        obj_of.resize(meshes.len(), nc as u32);
    }
    let contacts = tr.span("collision.detect", |_| {
        detect_contacts(
            &meshes,
            None,
            &obj_of,
            DetectOptions::new(sim.config.collision_delta),
        )
    });
    t.detect_contacts += contacts.len();
}

/// One pass over a workload: build, one untimed warm-up step, `steps`
/// measured steps. With a probe, every build and step sits in a span and
/// the layer probes run after each measured step.
struct Pass {
    build_s: f64,
    records: Vec<StepRecord>,
    cells: usize,
    dofs: usize,
    digest: u64,
    /// Correctness checks that failed (empty = correct).
    violations: Vec<String>,
    /// `(1-thread, n-thread)` wall seconds of the first measured step,
    /// replayed from one snapshot (traced pass only).
    speedup: Option<(f64, f64)>,
    /// Share of host CPU time stolen by the hypervisor while the measured
    /// steps ran.
    steal_frac: f64,
}

/// `(steal, total)` clock ticks of all CPUs since boot (`/proc/stat`):
/// the share of time the hypervisor ran other guests on this host's
/// CPUs, recorded so a slow run can be told from a slow program.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Wall seconds of one `Session::step` call (in a `driver.step` span
/// when tracing).
fn timed_step(
    s: &mut Session,
    probe: Option<&mut Probe>,
) -> (Result<driver::StepRow, String>, f64) {
    let t0 = Instant::now();
    let row = match probe {
        Some(p) => p.tracer.span("driver.step", |_| s.step()),
        None => s.step(),
    };
    (row.map_err(|e| e.to_string()), t0.elapsed().as_secs_f64())
}

fn run_pass(
    wl: Workload,
    doc: &Doc,
    steps: usize,
    threads: usize,
    mut probe: Option<&mut Probe>,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let built = match probe.as_deref_mut() {
        Some(p) => p
            .tracer
            .span("driver.build", |_| Session::build(wl.scenario(), doc)),
        None => Session::build(wl.scenario(), doc),
    };
    let build_s = t0.elapsed().as_secs_f64();
    let mut s = built?;
    // the benchmark counts non-finite states as failed steps instead of
    // aborting on them
    s.fail_on_nonfinite = false;
    let cells = s.sim.cells.len();
    let dofs = s.sim.dofs();
    let vessel = s.sim.vessel.is_some();
    let gate = s.sim.config.dt_control.max_volume_drift;
    let mut violations = Vec::new();

    // warm-up: relaxes the initial shapes and builds the persistent plans
    let (warm, _) = timed_step(&mut s, None);
    warm.map_err(|e| format!("warm-up step: {e}"))?;

    let cen0 = cell_centroids(&s.sim);
    let mut vol_prev = cell_volumes(&s.sim);
    let mut records = Vec::with_capacity(steps);
    let mut one_thread = None;
    let mut speedup = None;
    let ticks0 = host_ticks();
    for k in 0..steps {
        if k == 0 && probe.is_some() {
            // the HPC single-thread baseline: the same step at 1 thread
            // and at `threads`, from one snapshot
            let ck = Checkpoint::capture(&s.sim, &s.scenario);
            s.sim.config.threads = 1;
            let (r1, t1) = timed_step(&mut s, None);
            r1.map_err(|e| format!("1-thread step: {e}"))?;
            let digest1 = state_digest(&s.sim);
            s.restore(&ck)?;
            s.sim.config.threads = threads;
            one_thread = Some((t1, digest1));
        }
        let (row, wall) = timed_step(&mut s, probe.as_deref_mut());
        let row = row?;
        let finite = all_finite(&s.sim);
        let vols = cell_volumes(&s.sim);
        let rec = StepRecord {
            wall_s: wall,
            timers: row.timers,
            stats: row.stats,
            finite,
        };
        let drift = vols
            .iter()
            .zip(&vol_prev)
            .map(|(v1, v0)| (v1 / v0 - 1.0).abs())
            .fold(0.0f64, f64::max);
        vol_prev = vols;
        let st = &row.stats;
        eprintln!(
            "step {:>4}  wall {:>8.4} s  retries {}  contacts {:>2}  \
             contact_free {}  frozen {}  dt_eff {:.6}  gmres {:>2}  residual {:.3e}  \
             converged {}  volume_drift {:.2e}",
            row.step,
            wall,
            st.dt_retries,
            st.contacts,
            st.contact_free,
            st.frozen_cells,
            st.dt_effective,
            st.bie_iterations,
            st.bie_residual,
            st.bie_converged,
            drift
        );
        if !rec.failed(vessel) && (drift.is_nan() || drift > gate) {
            violations.push(format!(
                "step {}: a cell's volume changed by {drift:.3e} (gate {gate})",
                row.step
            ));
        }
        if let Some((t1, digest1)) = one_thread.take() {
            if digest1 != state_digest(&s.sim) {
                violations.push("the 1-thread step ended in a different state".into());
            }
            speedup = Some((t1, wall));
        }
        records.push(rec);
        if !finite {
            violations.push(format!("non-finite cell state after step {}", row.step));
            break;
        }
        if let Some(p) = probe.as_deref_mut() {
            probe_step(p, &s.sim);
        }
    }

    let ticks1 = host_ticks();
    let steal_frac = (ticks1.0 - ticks0.0) as f64 / (ticks1.1 - ticks0.1).max(1) as f64;

    // output checks beyond the per-step failure conditions
    if s.sim.steps != 1 + records.len() {
        violations.push(format!(
            "step counter {} after {} steps",
            s.sim.steps,
            1 + records.len()
        ));
    }
    if records
        .iter()
        .any(|r| r.stats.dt_effective.is_nan() || r.stats.dt_effective <= 0.0)
    {
        violations.push("a step advanced by a non-positive dt".into());
    }
    if vessel
        && records
            .iter()
            .any(|r| r.stats.bie_residual.is_nan() || r.stats.bie_residual >= 1.0)
    {
        violations.push("a boundary solve ended above its initial residual".into());
    }
    if wl == Workload::ShearFree && violations.is_empty() {
        // u = [γ̇ z, 0, 0]: the upper cell moves downstream (+x), the
        // lower one upstream
        let cen1 = cell_centroids(&s.sim);
        let dx0 = cen1[0].x - cen0[0].x;
        let dx1 = cen1[1].x - cen0[1].x;
        if !(dx0 > 0.0 && dx1 < 0.0) {
            violations.push(format!(
                "cells moved against the shear: dx = {dx0:.3e}, {dx1:.3e}"
            ));
        }
    }
    Ok(Pass {
        build_s,
        records,
        cells,
        dofs,
        digest: state_digest(&s.sim),
        violations,
        speedup,
        steal_frac,
    })
}

/// Builds the session once and reports how long it took (one cold set-up
/// sample, run in a child process).
fn setup_only(wl: Workload, doc: &Doc) -> Result<f64, String> {
    let t0 = Instant::now();
    let s = Session::build(wl.scenario(), doc)?;
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(&s);
    Ok(dt)
}

fn setup_sample_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| {
            l.strip_prefix("setup_s ")
                .and_then(|v| v.trim().parse().ok())
        })
        .ok_or_else(|| "set-up child printed no setup_s".to_string())
}

fn context_line(args: &Args, threads: usize, steps: usize, pass: &Pass) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"context\": {{\"workload\": {}, \"scenario\": {}, \"seed\": {}, \"trace\": {}, \
         \"host_cores\": {cores}, \"threads\": {threads}, \"commit\": {}, \
         \"profile\": \"release (lto = thin, target-cpu = native)\", \"cells\": {}, \
         \"dofs\": {}, \"warmup_steps\": 1, \"measured_steps\": {steps}, \"steal_frac\": {:.4}}}}}",
        json_str(args.workload.name()),
        json_str(args.workload.scenario()),
        args.seed,
        u8::from(args.trace),
        json_str(&args.commit),
        pass.cells,
        pass.dofs,
        pass.steal_frac
    )
}

fn end_to_end(setup: &[f64], pass: &Pass) -> Result<Vec<Metric>, String> {
    let walls: Vec<f64> = pass.records.iter().map(|r| r.wall_s).collect();
    let run_s: f64 = walls.iter().sum();
    let sim_t: f64 = pass.records.iter().map(|r| r.stats.dt_effective).sum();
    Ok(vec![
        Metric::new("setup_s", "s", median(setup)),
        Metric::new("step_s", "s", median(&walls)),
        Metric::new("run_s", "s", run_s),
        Metric::new("sim_time_per_s", "1/s", sim_t / run_s),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()?),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(base: &Pass, traced: &Pass, p: &Probe, threads: usize) -> Vec<Metric> {
    let r = &traced.records;
    let n = r.len() as f64;
    let per = |v: f64| v / n;
    let avg = |f: &dyn Fn(&StepRecord) -> f64| mean(&r.iter().map(f).collect::<Vec<_>>());
    let tr = &p.tracer;
    let t = &p.totals;
    let col = avg(&|x| x.timers.col);
    let bie_solve = avg(&|x| x.timers.bie_solve);
    let bie_fmm = avg(&|x| x.timers.bie_fmm);
    let other = avg(&|x| x.timers.other);
    let attempts: f64 = r.iter().map(|x| 1.0 + x.stats.dt_retries as f64).sum();
    let gmres = avg(&|x| x.stats.bie_iterations as f64);
    let matvec = per(tr.total_s("bie.matvec"));
    let eval_at = per(tr.total_s("bie.eval_at"));
    let vesicle = [
        "vesicle.geometry",
        "vesicle.membrane_force",
        "vesicle.self_interaction",
        "vesicle.implicit_step",
    ]
    .iter()
    .map(|s| per(tr.total_s(s)))
    .sum::<f64>();
    let walls = |x: &Pass| median(&x.records.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let (t1, tn) = traced.speedup.unwrap_or((0.0, 0.0));
    vec![
        // the untraced pass built first, with the process-wide caches cold
        Metric::new("driver.build_s", "s", base.build_s),
        Metric::new("driver.step_s", "s", per(tr.total_s("driver.step"))),
        Metric::new("driver.step_overhead_s", "s", avg(&|x| x.overhead_s())),
        Metric::new("sim.col_s", "s", col),
        Metric::new("sim.bie_solve_s", "s", bie_solve),
        Metric::new("sim.bie_fmm_s", "s", bie_fmm),
        Metric::new("sim.other_fmm_s", "s", avg(&|x| x.timers.other_fmm)),
        Metric::new("sim.other_s", "s", other),
        Metric::new("sim.attempts_per_step", "count", attempts / n),
        Metric::new("sim.accepted_attempt_frac", "1", n / attempts),
        Metric::new("sim.dt_eff_mean", "t_sim", avg(&|x| x.stats.dt_effective)),
        Metric::new(
            "sim.frozen_cells",
            "count",
            avg(&|x| x.stats.frozen_cells as f64),
        ),
        Metric::new("sim.speedup_1to2", "x", ratio(t1, tn)),
        Metric::new(
            "vesicle.geometry_s",
            "s",
            per(tr.total_s("vesicle.geometry")),
        ),
        Metric::new(
            "vesicle.membrane_force_s",
            "s",
            per(tr.total_s("vesicle.membrane_force")),
        ),
        Metric::new(
            "vesicle.self_interaction_s",
            "s",
            per(tr.total_s("vesicle.self_interaction")),
        ),
        Metric::new(
            "vesicle.implicit_step_s",
            "s",
            per(tr.total_s("vesicle.implicit_step")),
        ),
        Metric::new(
            "vesicle.implicit_iters",
            "count",
            per(t.implicit_iters as f64),
        ),
        Metric::new(
            "kernels.direct_eval_s",
            "s",
            per(tr.total_s("kernels.direct_eval")),
        ),
        Metric::new("kernels.pair_evals", "count", per(t.pair_evals)),
        Metric::new("fmm.build_s", "s", tr.total_s("fmm.build")),
        Metric::new("fmm.evaluate_s", "s", per(tr.total_s("fmm.evaluate"))),
        Metric::new("fmm.sources", "count", per(t.fmm_sources as f64)),
        Metric::new("fmm.targets", "count", per(t.fmm_targets as f64)),
        Metric::new(
            "fmm.rel_err",
            "1",
            if t.fmm_rel_err.is_empty() {
                0.0
            } else {
                median(&t.fmm_rel_err)
            },
        ),
        Metric::new("bie.matvec_s", "s", matvec),
        Metric::new("bie.eval_at_s", "s", eval_at),
        Metric::new("bie.closest_s", "s", per(tr.total_s("bie.closest"))),
        Metric::new(
            "bie.near_frac",
            "1",
            ratio(t.near as f64, t.closest_targets as f64),
        ),
        Metric::new("bie.gmres_iters", "count", gmres),
        Metric::new("bie.residual", "1", avg(&|x| x.stats.bie_residual)),
        Metric::new(
            "bie.wall_fmm_builds",
            "count",
            avg(&|x| x.stats.wall_fmm_builds as f64),
        ),
        Metric::new(
            "bie.wall_fmm_replans",
            "count",
            avg(&|x| x.stats.wall_fmm_replans as f64),
        ),
        Metric::new(
            "collision.detect_s",
            "s",
            per(tr.total_s("collision.detect")),
        ),
        Metric::new(
            "collision.contacts",
            "count",
            avg(&|x| x.stats.contacts as f64),
        ),
        Metric::new("collision.detected", "count", per(t.detect_contacts as f64)),
        Metric::new(
            "collision.ncp_iters",
            "count",
            avg(&|x| x.stats.ncp_iters as f64),
        ),
        Metric::new(
            "collision.contact_free_frac",
            "1",
            avg(&|x| f64::from(u8::from(x.stats.contact_free))),
        ),
        // the probes call each cell in turn, the step spreads cells over
        // `threads` workers
        Metric::new(
            "attrib.other_explained_frac",
            "1",
            ratio(vesicle, threads as f64 * other),
        ),
        Metric::new(
            "attrib.bie_explained_frac",
            "1",
            ratio(gmres * matvec + eval_at, bie_solve + bie_fmm),
        ),
        Metric::new(
            "trace.overhead_frac",
            "1",
            walls(traced) / walls(base) - 1.0,
        ),
    ]
}

fn run(args: &Args) -> Result<(bool, Tally, Vec<Metric>), String> {
    let wl = args.workload;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Doc::parse(&wl.config(args.seed, threads))?;
    let steps = wl.steps(args.seconds);

    if !args.trace {
        let mut setup = Vec::with_capacity(SETUP_SAMPLES_MAX + 1);
        while setup.len() < SETUP_SAMPLES_MIN
            || (setup.len() < SETUP_SAMPLES_MAX && setup.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            setup.push(setup_sample_in_child(args)?);
        }
        let pass = run_pass(wl, &doc, steps, threads, None)?;
        setup.push(pass.build_s);
        println!("{}", context_line(args, threads, steps, &pass));
        let tally = Tally::of(&pass.records, wl.vessel());
        let metrics = end_to_end(&setup, &pass)?;
        let walls: Vec<f64> = pass.records.iter().map(|r| r.wall_s).collect();
        println!(
            "{}: {} steps, step_s p50 {:.4} p90 {:.4} max {:.4}; attempted {} failed {} (fail_frac {:.3})",
            wl.name(),
            walls.len(),
            median(&walls),
            percentile(&walls, 90.0),
            percentile(&walls, 100.0),
            tally.attempted,
            tally.failed,
            tally.fail_frac()
        );
        for m in &metrics {
            println!("  {:<16} {:>14.6} {}", m.name, m.value, m.unit);
        }
        for v in &pass.violations {
            println!("check failed: {v}");
        }
        return Ok((pass.violations.is_empty(), tally, metrics));
    }

    // both passes and the probes fit the time of one untraced run
    let steps = steps.div_ceil(TRACE_STEP_SHARE);
    let base = run_pass(wl, &doc, steps, threads, None)?;
    let mut probe = Probe {
        tracer: Tracer::new(format!("{}-seed{}-traced", wl.name(), args.seed)),
        totals: ProbeTotals::default(),
        wall_fmm: None,
    };
    let traced = run_pass(wl, &doc, steps, threads, Some(&mut probe))?;
    println!("{}", context_line(args, threads, steps, &traced));
    let mut violations = base.violations.clone();
    violations.extend(traced.violations.iter().cloned());
    if trajectory_counters(&base.records) != trajectory_counters(&traced.records) {
        violations.push(format!(
            "traced run changed the per-step counters: {:?} vs {:?}",
            trajectory_counters(&base.records),
            trajectory_counters(&traced.records)
        ));
    }
    if base.digest != traced.digest {
        violations.push("traced run ended in a different cell state".into());
    }
    let tally = Tally::of(&traced.records, wl.vessel());
    let metrics = per_layer(&base, &traced, &probe, threads);
    for m in &metrics {
        println!("  {:<30} {:>14.6e} {}", m.name, m.value, m.unit);
    }
    for v in &violations {
        println!("check failed: {v}");
    }
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.spans.jsonl", probe.tracer.run_id));
        std::fs::write(&path, probe.tracer.to_jsonl())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    Ok((violations.is_empty(), tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cfg = args.workload.config(args.seed, threads);
        return match Doc::parse(&cfg).and_then(|doc| setup_only(args.workload, &doc)) {
            Ok(s) => {
                println!("setup_s {s:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok((correct, tally, metrics)) => {
            println!("{}", result_json(correct, tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
