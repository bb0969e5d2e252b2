//! `sim-driver --assert`: one threshold check over a run's metrics.
//!
//! A run-mode expression is `<agg>(<column>)<op><value>`: `agg` is `sum`,
//! `min` or `max` over the run's steps, `column` is a `trajectory.csv`
//! column, and `op` is `>=` or `<=` (e.g.
//! `sum(contacts)>=10`, `max(gmres_iters)<=29`). The batch farm takes a
//! bare scalar instead of an aggregate: `cache_hits>=1`, `resumed>=1`.
//! Values are compared as `f64`, never as formatted CSV text, and a NaN
//! or ∞ anywhere in the asserted column fails the assertion.

use crate::batch::FarmReport;
use crate::run::{RunReport, COLUMNS};

/// The farm's scalar metrics (see [`FarmReport`]).
const FARM_SCALARS: &[&str] = &["cache_hits", "resumed"];

/// How the per-step values of a column fold into one number.
#[derive(Clone, Copy, Debug)]
enum Agg {
    Sum,
    Min,
    Max,
}

/// One parsed `--assert` expression.
#[derive(Debug)]
pub struct Assertion {
    expr: String,
    agg: Option<Agg>,
    metric: &'static str,
    at_least: bool,
    value: f64,
}

impl Assertion {
    /// Parses a run-mode `<agg>(<column>)<op><value>` expression.
    pub fn parse_run(expr: &str) -> Result<Assertion, String> {
        let names: Vec<&'static str> = COLUMNS.iter().map(|c| c.name).collect();
        Assertion::parse(expr, &names, true)
    }

    /// Parses a batch-mode `<scalar><op><value>` expression over the
    /// farm scalars `cache_hits` and `resumed`.
    pub fn parse_farm(expr: &str) -> Result<Assertion, String> {
        Assertion::parse(expr, FARM_SCALARS, false)
    }

    fn parse(expr: &str, names: &[&'static str], aggregated: bool) -> Result<Assertion, String> {
        let err = |why: String| format!("--assert '{expr}': {why}");
        let text: String = expr.split_whitespace().collect();
        if text.is_empty() {
            return Err(err("empty expression".into()));
        }
        let (lhs, at_least, rhs) = if let Some((l, r)) = text.split_once(">=") {
            (l, true, r)
        } else if let Some((l, r)) = text.split_once("<=") {
            (l, false, r)
        } else if text.contains(['<', '>', '=']) {
            return Err(err("unsupported operator; use >= or <=".into()));
        } else {
            return Err(err("missing operator >= or <=".into()));
        };
        let (agg, name) = if aggregated {
            let (agg, rest) = lhs
                .split_once('(')
                .ok_or_else(|| err("expected <agg>(<column>)".into()))?;
            let name = rest
                .strip_suffix(')')
                .ok_or_else(|| err("expected <agg>(<column>)".into()))?;
            let agg = match agg {
                "sum" => Agg::Sum,
                "min" => Agg::Min,
                "max" => Agg::Max,
                other => {
                    return Err(err(format!(
                        "unknown aggregator `{other}`; use sum, min or max"
                    )))
                }
            };
            (Some(agg), name)
        } else {
            (None, lhs)
        };
        let metric = *names.iter().find(|n| **n == name).ok_or_else(|| {
            err(format!(
                "unknown metric `{name}`; valid: {}",
                names.join(", ")
            ))
        })?;
        let value: f64 = rhs
            .parse()
            .ok()
            .filter(|v: &f64| v.is_finite())
            .ok_or_else(|| err(format!("`{rhs}` is not a finite number")))?;
        Ok(Assertion {
            expr: text,
            agg,
            metric,
            at_least,
            value,
        })
    }

    /// Evaluates a run-mode assertion over the report's steps; `Ok` holds
    /// a one-line summary, `Err` names the failed expression.
    pub fn check_run(&self, report: &RunReport) -> Result<String, String> {
        let col = COLUMNS.iter().find(|c| c.name == self.metric);
        let (Some(agg), Some(col)) = (self.agg, col) else {
            return Err(format!("assertion {} is not over a run column", self.expr));
        };
        if report.rows.is_empty() {
            return Err(format!(
                "assertion failed: {}: the run took no steps",
                self.expr
            ));
        }
        let values: Vec<f64> = report.rows.iter().map(|r| (col.get)(r)).collect();
        // checked up front: f64::min/max would silently drop a NaN
        if let Some(k) = values.iter().position(|v| !v.is_finite()) {
            return Err(format!(
                "assertion failed: {}: step {} has {} = {}",
                self.expr, report.rows[k].step, self.metric, values[k]
            ));
        }
        self.check(match agg {
            Agg::Sum => values.iter().sum(),
            Agg::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Agg::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Evaluates a batch-mode assertion against the farm's scalars.
    pub fn check_farm(&self, report: &FarmReport) -> Result<String, String> {
        self.check(match self.metric {
            "cache_hits" => report.cache.hits() as f64,
            "resumed" => report.resumed() as f64,
            _ => return Err(format!("assertion {} is not over a farm scalar", self.expr)),
        })
    }

    /// Compares `value` against the threshold.
    fn check(&self, value: f64) -> Result<String, String> {
        let holds = if self.at_least {
            value >= self.value
        } else {
            value <= self.value
        };
        if holds && value.is_finite() {
            Ok(format!("assertion OK: {} ({value:?})", self.expr))
        } else {
            Err(format!("assertion failed: {}: got {value:?}", self.expr))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::StepRow;
    use crate::session::CacheTelemetry;
    use sim::StepStats;

    /// Three steps with 3, 5 and 2 contacts and the given flux imbalances.
    fn report(flux: [f64; 3]) -> RunReport {
        let mut r = RunReport::default();
        for (k, (contacts, flux_imbalance)) in [3, 5, 2].into_iter().zip(flux).enumerate() {
            r.rows.push(StepRow {
                step: k + 1,
                timers: Default::default(),
                stats: StepStats {
                    contacts,
                    flux_imbalance,
                    ..Default::default()
                },
                recycled: 0,
            });
        }
        r
    }

    fn run(expr: &str, r: &RunReport) -> Result<String, String> {
        Assertion::parse_run(expr).unwrap().check_run(r)
    }

    fn parse_error(expr: &str) -> String {
        let e = Assertion::parse_run(expr).unwrap_err();
        assert!(
            e.contains(&format!("'{expr}'")),
            "error must name the expression: {e}"
        );
        e
    }

    #[test]
    fn parse_accepts_every_aggregator_and_spaces() {
        let r = report([0.0; 3]);
        assert!(run(" sum( contacts ) >= 10 ", &r).is_ok());
        assert!(run("min(contacts)>=2", &r).is_ok());
        assert!(run("max(contacts)<=5", &r).is_ok());
        assert!(run("max(flux_imbalance)<=1e-6", &r).is_ok());
    }

    #[test]
    fn parse_rejects_empty_expression() {
        assert!(parse_error("").contains("empty"));
        assert!(parse_error("   ").contains("empty"));
    }

    #[test]
    fn parse_rejects_unknown_aggregator() {
        assert!(parse_error("avg(contacts)>=1").contains("unknown aggregator `avg`"));
        assert!(parse_error("contacts>=1").contains("<agg>(<column>)"));
        assert!(parse_error("sum(contacts>=1").contains("<agg>(<column>)"));
    }

    #[test]
    fn parse_rejects_unknown_column_listing_valid_names() {
        let e = parse_error("sum(contact)>=1");
        assert!(e.contains("unknown metric `contact`"), "{e}");
        for c in COLUMNS {
            assert!(e.contains(c.name), "{e} should list {}", c.name);
        }
    }

    #[test]
    fn parse_rejects_missing_or_unsupported_operator() {
        assert!(parse_error("sum(contacts)10").contains("missing operator"));
        for expr in ["max(gmres_iters)<30", "sum(contacts)>1", "sum(contacts)==1"] {
            assert!(parse_error(expr).contains("unsupported operator"), "{expr}");
        }
    }

    #[test]
    fn parse_rejects_non_numeric_value() {
        for expr in [
            "sum(contacts)>=ten",
            "sum(contacts)>=",
            "sum(contacts)>=NaN",
        ] {
            assert!(parse_error(expr).contains("not a finite number"), "{expr}");
        }
    }

    #[test]
    fn sum_passes_at_the_threshold_and_fails_one_past_it() {
        let r = report([0.0; 3]);
        assert!(run("sum(contacts)>=10", &r).is_ok());
        let e = run("sum(contacts)>=11", &r).unwrap_err();
        assert!(
            e.contains("sum(contacts)>=11") && e.contains("got 10"),
            "{e}"
        );
        assert!(run("sum(contacts)<=10", &r).is_ok());
        assert!(run("sum(contacts)<=9", &r).is_err());
    }

    #[test]
    fn min_passes_at_the_threshold_and_fails_one_past_it() {
        let r = report([0.0; 3]);
        assert!(run("min(contacts)>=2", &r).is_ok());
        assert!(run("min(contacts)>=3", &r).is_err());
        assert!(run("min(contacts)<=2", &r).is_ok());
        assert!(run("min(contacts)<=1", &r).is_err());
    }

    #[test]
    fn max_passes_at_the_threshold_and_fails_one_past_it() {
        let r = report([0.0; 3]);
        assert!(run("max(contacts)<=5", &r).is_ok());
        assert!(run("max(contacts)<=4", &r).is_err());
        assert!(run("max(contacts)>=5", &r).is_ok());
        assert!(run("max(contacts)>=6", &r).is_err());
    }

    #[test]
    fn nan_or_infinity_in_the_column_fails_every_aggregator() {
        for bad in [f64::NAN, f64::INFINITY] {
            let r = report([1e-9, bad, 2e-9]);
            for expr in [
                "max(flux_imbalance)<=1e-6",
                "min(flux_imbalance)<=1e-6",
                "sum(flux_imbalance)>=0",
            ] {
                let e = run(expr, &r).unwrap_err();
                assert!(e.contains(expr) && e.contains("step 2"), "{e}");
            }
            // other columns of the same run are unaffected
            assert!(run("sum(contacts)>=10", &r).is_ok());
        }
    }

    #[test]
    fn a_run_without_steps_fails() {
        let e = run("sum(contacts)>=0", &RunReport::default()).unwrap_err();
        assert!(e.contains("no steps"), "{e}");
    }

    #[test]
    fn farm_scalars_parse_and_evaluate() {
        let report = FarmReport {
            outcomes: Vec::new(),
            cache: CacheTelemetry {
                fmm_op_hits: 1,
                ..Default::default()
            },
            wall_s: 0.0,
        };
        let farm = |expr: &str| Assertion::parse_farm(expr).unwrap().check_farm(&report);
        assert!(farm("cache_hits>=1").is_ok());
        assert!(farm("cache_hits>=2").is_err());
        assert!(farm("resumed<=0").is_ok());
        assert!(farm("resumed>=1").is_err());
        let e = Assertion::parse_farm("sum(cache_hits)>=1").unwrap_err();
        assert!(e.contains("valid: cache_hits, resumed"), "{e}");
        assert!(Assertion::parse_run("cache_hits>=1").is_err());
    }
}
