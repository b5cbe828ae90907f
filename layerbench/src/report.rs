//! The result line every run ends with, plus the failure ledger.

use std::fmt::Write as _;

use spi_auth::verify::jsonlite::Json;

/// Named metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Every `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Counts attempted operations and records why any failed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted (questions, schedules' campaigns, requests).
    pub attempted: u64,
    /// Reasons, one per failed operation.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Records one attempted operation that failed when `problem` is
    /// `Some`.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failures.push(p);
        }
    }

    /// Failed ÷ attempted.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let share = self.failures.len() as f64 / self.attempted.max(1) as f64;
        share
    }
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
/// A non-finite value renders as `null` (and the run is incorrect).
#[must_use]
pub fn result_line(ledger: &Ledger, metrics: &Metrics) -> String {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let mut out = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
        ledger.failures.is_empty() && finite,
        ledger.attempted.max(1),
        ledger.failures.len()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            r#"{sep}{}: {{"value": {v}, "unit": "{}"}}"#,
            Json::str(name.as_str()).render_compact(),
            unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.234_567_891_2, "s");
        m.set("peak_rss_mb", 42.0, "MB");
        let mut l = Ledger::default();
        l.check(None);
        l.check(None);
        assert_eq!(
            result_line(&l, &m),
            r#"{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 1.2345678912, "unit": "s"}, "peak_rss_mb": {"value": 42, "unit": "MB"}}}"#
        );
    }

    #[test]
    fn a_failure_or_a_non_finite_value_makes_the_run_incorrect() {
        let mut m = Metrics::default();
        m.set("x", 1.0, "ms");
        let mut l = Ledger::default();
        l.check(Some("wrong verdict".into()));
        assert!(
            result_line(&l, &m).starts_with(r#"{"correct": false, "attempted": 1, "failed": 1"#)
        );
        assert!((l.failed_share() - 1.0).abs() < f64::EPSILON);
        m.set("x", f64::NAN, "ms");
        let ok = Ledger {
            attempted: 1,
            failures: Vec::new(),
        };
        let line = result_line(&ok, &m);
        assert!(
            line.contains(r#""correct": false"#) && line.contains("null"),
            "{line}"
        );
    }
}
