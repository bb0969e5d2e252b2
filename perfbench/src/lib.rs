//! The benchmark's own logic, kept apart from the measuring binary so it
//! can be unit-tested: order statistics, per-step failure accounting,
//! metric naming and the JSON result line, the seeded input generator, and
//! the in-memory span recorder of the traced run.

use sim::{StepStats, StepTimers};
use std::fmt::Write as _;
use std::time::Instant;

/// Median of `v` (the mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `q`-th percentile of `v` (0 ≤ q ≤ 100), linearly interpolated
/// between the closest ranks (the "linear" / type-7 definition).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&q), "percentile {q} out of range");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Largest |net port flux| a vessel step may report and still count as
/// flux-balanced.
pub const FLUX_TOL: f64 = 1e-12;

/// One committed step as the benchmark saw it: the wall time of
/// `Session::step` around it, and the record the step returned.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepRecord {
    /// Wall seconds of the `Session::step` call.
    pub wall_s: f64,
    /// The program's own per-bucket timers for the step.
    pub timers: StepTimers,
    /// The program's per-step diagnostics.
    pub stats: StepStats,
    /// Whether every cell coefficient was finite after the step.
    pub finite: bool,
}

impl StepRecord {
    /// `Session::step` wall time the program's buckets do not cover:
    /// non-finite scan, outlet recycling, and the row bookkeeping.
    pub fn overhead_s(&self) -> f64 {
        self.wall_s - self.timers.total()
    }

    /// Whether this step counts as a failed operation: non-finite state,
    /// a frozen cell, a step that ends in contact, or (in a vessel) a
    /// boundary condition whose net flux is not balanced.
    pub fn failed(&self, vessel: bool) -> bool {
        !self.finite
            || self.stats.frozen_cells > 0
            || !self.stats.contact_free
            || (vessel && self.stats.flux_imbalance.abs() > FLUX_TOL)
    }
}

/// Attempted and failed operation counts of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Committed steps measured.
    pub attempted: usize,
    /// Of those, steps that failed [`StepRecord::failed`].
    pub failed: usize,
}

impl Tally {
    /// Counts `records` (steps of one vessel or free-space run).
    pub fn of(records: &[StepRecord], vessel: bool) -> Tally {
        Tally {
            attempted: records.len(),
            failed: records.iter().filter(|r| r.failed(vessel)).count(),
        }
    }

    /// failed / attempted (0 for an empty run).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The per-step counters a traced run must reproduce exactly:
/// `(dt_retries, contacts, bie_iterations, frozen_cells)`.
pub fn trajectory_counters(records: &[StepRecord]) -> Vec<[usize; 4]> {
    records
        .iter()
        .map(|r| {
            [
                r.stats.dt_retries,
                r.stats.contacts,
                r.stats.bie_iterations,
                r.stats.frozen_cells,
            ]
        })
        .collect()
}

/// Whether `name` is a valid metric name: a letter or digit first, then at
/// most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: &'static str,
    /// Unit, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Formats a number for JSON: the shortest round-tripping representation
/// (all its digits), `null` when not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The benchmark's result line: exactly the keys `correct`, `attempted`,
/// `failed`, `metrics`. A non-finite metric makes the result incorrect.
/// Panics on an invalid metric name (the names are this crate's
/// constants).
pub fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    for m in metrics {
        assert!(
            valid_metric_name(m.name),
            "invalid metric name {:?}",
            m.name
        );
    }
    let all_finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && all_finite,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// SplitMix64: the seeded generator the workload inputs are drawn from
/// (self-contained so the generated inputs never depend on another
/// crate's generator).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }
}

/// One recorded span: a timed call into a layer's public function.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `bie.matvec`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder: spans are kept in start order and written
/// out once, when the run ends.
pub struct Tracer {
    /// Identifies the run every span belongs to.
    pub run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder for run `run_id`.
    pub fn new(run_id: impl Into<String>) -> Tracer {
        Tracer {
            run_id: run_id.into(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// All spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of all spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// The spans as JSON lines: name, start, end, parent, run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                json_str(&self.run_id)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(wall: f64, timers: StepTimers, stats: StepStats) -> StepRecord {
        StepRecord {
            wall_s: wall,
            timers,
            stats,
            finite: true,
        }
    }

    fn clean() -> StepStats {
        StepStats {
            contact_free: true,
            ..StepStats::default()
        }
    }

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 11.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        // interpolated between ranks: 25% of 4 gaps past the first value
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 25.0), 20.0);
        assert!((percentile(&[1.0, 2.0], 75.0) - 1.75).abs() < 1e-15);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn fail_accounting_on_synthetic_steps() {
        let t = StepTimers::default();
        let ok = rec(1.0, t, clean());
        let frozen = rec(
            1.0,
            t,
            StepStats {
                frozen_cells: 2,
                ..clean()
            },
        );
        let contact = rec(1.0, t, StepStats::default()); // contact_free = false
        let unbalanced = rec(
            1.0,
            t,
            StepStats {
                flux_imbalance: -1e-9,
                ..clean()
            },
        );
        let nan = StepRecord {
            finite: false,
            ..ok
        };
        let steps = [ok, frozen, contact, unbalanced, nan, ok];
        // free space: the flux condition does not apply
        let free = Tally::of(&steps, false);
        assert_eq!(
            free,
            Tally {
                attempted: 6,
                failed: 3
            }
        );
        let vessel = Tally::of(&steps, true);
        assert_eq!(
            vessel,
            Tally {
                attempted: 6,
                failed: 4
            }
        );
        assert!((vessel.fail_frac() - 4.0 / 6.0).abs() < 1e-15);
        // a balanced flux at the tolerance still passes
        let edge = rec(
            1.0,
            t,
            StepStats {
                flux_imbalance: FLUX_TOL,
                ..clean()
            },
        );
        assert!(!edge.failed(true));
        assert_eq!(Tally::of(&[], true).fail_frac(), 0.0);
    }

    #[test]
    fn counters_pick_the_trajectory_fields() {
        let r = rec(
            1.0,
            StepTimers::default(),
            StepStats {
                dt_retries: 3,
                contacts: 7,
                bie_iterations: 11,
                frozen_cells: 1,
                ..clean()
            },
        );
        assert_eq!(trajectory_counters(&[r]), vec![[3, 7, 11, 1]]);
    }

    #[test]
    fn metric_name_charset() {
        for ok in ["setup_s", "sim.bie_fmm_s", "fmm.rel_err", "a-b", "9x", "x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", "a,b", "\"a\""] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn step_wall_is_buckets_plus_overhead() {
        let timers = StepTimers {
            col: 0.125,
            bie_solve: 0.5,
            bie_fmm: 2.0,
            other_fmm: 0.25,
            other: 1.0,
        };
        let r = rec(4.0, timers, clean());
        let buckets =
            timers.col + timers.bie_solve + timers.bie_fmm + timers.other_fmm + timers.other;
        assert_eq!(buckets + r.overhead_s(), r.wall_s);
        assert_eq!(r.overhead_s(), 0.125);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [
            Metric::new("step_s", "s", 0.25),
            Metric::new("peak_rss_mb", "MB", 1.0),
        ];
        let line = result_json(
            true,
            Tally {
                attempted: 4,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"step_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 1.0, \"unit\": \"MB\"}}}"
        );
        let bad = [Metric::new("step_s", "s", f64::NAN)];
        let line = result_json(
            true,
            Tally {
                attempted: 1,
                failed: 0,
            },
            &bad,
        );
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(line.contains("null"), "{line}");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn result_line_rejects_a_bad_name() {
        result_json(
            true,
            Tally::default(),
            &[Metric::new("step time", "s", 1.0)],
        );
    }

    #[test]
    fn seeded_generator_is_reproducible_and_in_range() {
        let a: Vec<f64> = {
            let mut g = SplitMix64::new(7);
            (0..100).map(|_| g.uniform(-1.0, 1.0)).collect()
        };
        let mut g = SplitMix64::new(7);
        let b: Vec<f64> = (0..100).map(|_| g.uniform(-1.0, 1.0)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        let mut h = SplitMix64::new(8);
        assert_ne!(a[0], h.uniform(-1.0, 1.0));
    }

    #[test]
    fn spans_nest_within_their_parent() {
        let mut tr = Tracer::new("run-1");
        tr.span("driver.step", |tr| {
            tr.span("bie.matvec", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("bie.eval_at", |_| ());
        });
        tr.span("collision.detect", |_| ());
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        for child in &s[1..3] {
            assert!(child.start_ns >= s[0].start_ns && child.end_ns <= s[0].end_ns);
        }
        assert!(s[1].secs() >= 0.002);
        assert!((tr.total_s("bie.matvec") - s[1].secs()).abs() < 1e-15);
        // a layer with no spans reads +0, not -0
        assert_eq!(tr.total_s("fmm.build").to_bits(), 0.0f64.to_bits());
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.lines().nth(1).unwrap().contains("\"parent\": 0"));
        assert!(jsonl.contains("\"run\": \"run-1\""));
    }
}
