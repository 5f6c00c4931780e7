//! What a run prints: named metrics with units, operation counts, failed
//! checks, and the final one-line JSON result.

use crate::stats::Pct;
use std::fmt::Write as _;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    /// `None` when the value cannot be given honestly (a percentile with
    /// too few samples beyond it).
    pub value: Option<f64>,
    pub unit: &'static str,
    /// Sample count behind a percentile.
    pub n: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Out {
    pub metrics: Vec<Metric>,
    /// Operations (jobs) attempted and failed; a failed check fails the
    /// jobs it covers.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Out {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: Some(value),
            unit,
            n: None,
        });
    }

    /// A percentile, scaled into `unit` (e.g. 1e-3 for ns → µs).
    pub fn put_pct(&mut self, name: impl Into<String>, p: Pct, scale: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: p.value.map(|v| v * scale),
            unit,
            n: Some(p.n),
        });
    }

    /// Record a failed check covering `jobs` operations.
    pub fn fail(&mut self, jobs: u64, msg: String) {
        self.failed += jobs;
        self.errors.push(msg);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: every metric with its unit, a percentile's
    /// sample count beside it, `null` where the value is withheld.
    pub fn lines(&self, prefix: &str) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let v = m.value.map_or("null".to_string(), |v| format!("{v:.6}"));
            let n = m.n.map_or(String::new(), |n| format!(" n={n}"));
            let _ = writeln!(s, "{prefix}metric {} {v} {}{n}", m.name, m.unit);
        }
        for e in &self.errors {
            let _ = writeln!(s, "{prefix}check_failed {e}");
        }
        s
    }

    /// The result object over the metrics named in `declared`. A declared
    /// metric that has no value makes the run incorrect and is left out.
    pub fn result_json(&self, declared: &[(&str, &str)]) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut fields = Vec::new();
        for (name, unit) in declared {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(Metric {
                    value: Some(v),
                    unit: u,
                    ..
                }) if u == unit && v.is_finite() => {
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    ));
                }
                _ => correct = false,
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}
